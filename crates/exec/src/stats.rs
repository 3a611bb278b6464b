//! Per-operator runtime statistics.
//!
//! Figure 4 of the paper breaks the tuple-based vs vector-based Gram
//! computation into per-operation running times (join vs aggregation).
//! The executor records, for every physical operator instance: wall time,
//! output rows, and — for exchanges — rows and bytes that crossed worker
//! boundaries. Under the serialized transport exchanges additionally
//! report per-channel detail: encoded frames, actual wire bytes, and time
//! spent blocked enqueueing into a full channel (backpressure).

use std::collections::BTreeMap;
use std::time::Duration;

/// Traffic over one directed worker-to-worker channel of an exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Sending worker.
    pub from: usize,
    /// Receiving worker.
    pub to: usize,
    /// Rows shipped over this channel.
    pub rows: usize,
    /// Actual encoded bytes shipped (frame headers and schema included).
    pub bytes: usize,
    /// Frames shipped (one schema frame plus row batches).
    pub frames: usize,
    /// Time the sender spent blocked in `send` because the channel was
    /// full — observed backpressure.
    pub enqueue_block: Duration,
}

/// What one exchange moved, in aggregate and per channel.
///
/// In `pointer` mode `bytes` is an *estimate* from in-memory payload
/// sizes and `channels` is empty; under a serialized transport `bytes`
/// counts actual encoded frames and `channels` has one entry per
/// directed channel that carried data.
#[derive(Debug, Clone, Default)]
pub struct ShuffleStats {
    /// Rows that crossed a partition boundary.
    pub rows: usize,
    /// Bytes that crossed a partition boundary.
    pub bytes: usize,
    /// Encoded frames shipped (0 in pointer mode).
    pub frames: usize,
    /// Total sender time blocked on full channels, summed over channels.
    pub enqueue_block: Duration,
    /// Per-channel detail (empty in pointer mode).
    pub channels: Vec<ChannelStats>,
    /// True when `bytes` is a pointer-mode estimate rather than a count of
    /// actual encoded wire bytes. Display marks such values with `~` so
    /// estimated and measured bytes are never conflated.
    pub estimated: bool,
}

impl ShuffleStats {
    /// Pointer-mode record: estimated bytes, no channel detail.
    pub fn estimated(rows: usize, bytes: usize) -> Self {
        ShuffleStats { rows, bytes, estimated: true, ..ShuffleStats::default() }
    }

    /// Aggregates per-channel records into totals.
    pub fn from_channels(channels: Vec<ChannelStats>) -> Self {
        let mut s = ShuffleStats { channels, ..ShuffleStats::default() };
        for c in &s.channels {
            s.rows += c.rows;
            s.bytes += c.bytes;
            s.frames += c.frames;
            s.enqueue_block += c.enqueue_block;
        }
        s
    }
}

/// Out-of-core activity of one operator: what it wrote to and read back
/// from spill files when its memory reservation was denied. All zeros for
/// operators that stayed in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Spill files created.
    pub files: usize,
    /// Bytes written to spill files (framing and fin frames included).
    pub bytes_written: usize,
    /// Bytes read back from spill files.
    pub bytes_read: usize,
    /// Partition buckets the operator's state was spilled into.
    pub partitions: usize,
}

impl SpillStats {
    /// Accumulates another record (e.g. a recursive grace-join level).
    pub fn merge(&mut self, other: SpillStats) {
        self.files += other.files;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.partitions += other.partitions;
    }

    /// True when any out-of-core activity happened.
    pub fn spilled(&self) -> bool {
        self.files > 0 || self.bytes_written > 0
    }
}

/// Vectorized-execution activity of one operator: how much of its input
/// went through the compiled columnar engine. All zeros for operators
/// that ran the row interpreter (or never take the vectorized path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Column batches (morsel chunks) evaluated by compiled kernels.
    pub batches: usize,
    /// Rows that went through the compiled path.
    pub rows: usize,
    /// Kernel invocations (bytecode instructions × batches).
    pub kernels: usize,
}

impl BatchStats {
    /// Accumulates another record (e.g. a fused stage's counters).
    pub fn merge(&mut self, other: BatchStats) {
        self.batches += other.batches;
        self.rows += other.rows;
        self.kernels += other.kernels;
    }

    /// True when any vectorized activity happened.
    pub fn vectorized(&self) -> bool {
        self.batches > 0
    }
}

/// Statistics for one operator instance.
#[derive(Debug, Clone)]
pub struct OperatorStats {
    /// Operator id from the physical plan.
    pub id: usize,
    /// Operator label (`HashJoin`, `Exchange(Hash)`, …).
    pub label: String,
    /// Wall-clock time spent in this operator (excluding children).
    pub wall: Duration,
    /// Rows produced.
    pub rows_out: usize,
    /// Rows, bytes and per-channel traffic moved between partitions
    /// (exchanges only; empty elsewhere).
    pub shuffle: ShuffleStats,
    /// Out-of-core activity (hash join / aggregation under a memory
    /// budget; all zeros for in-memory execution).
    pub spill: SpillStats,
    /// Vectorized (compiled columnar) activity; all zeros under the row
    /// interpreter.
    pub batch: BatchStats,
}

impl OperatorStats {
    /// Rows that moved between partitions (exchanges only).
    pub fn rows_shuffled(&self) -> usize {
        self.shuffle.rows
    }

    /// Bytes that moved between partitions (exchanges only).
    pub fn bytes_shuffled(&self) -> usize {
        self.shuffle.bytes
    }
}

/// Statistics for one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    ops: Vec<OperatorStats>,
    /// Kernel-dispatch choices (dense vs sparse kernels) this query
    /// made: exactly its own, read from the tally of the query context
    /// its execution and every one of its pool tasks ran in.
    pub dispatch: lardb_la::DispatchCounters,
}

impl ExecStats {
    /// Empty stats.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Records one operator's stats.
    pub fn record(&mut self, op: OperatorStats) {
        self.ops.push(op);
    }

    /// All operator records, in completion order (children first).
    pub fn operators(&self) -> &[OperatorStats] {
        &self.ops
    }

    /// Total bytes shuffled across all exchanges.
    pub fn total_bytes_shuffled(&self) -> usize {
        self.ops.iter().map(|o| o.shuffle.bytes).sum()
    }

    /// Total rows shuffled across all exchanges.
    pub fn total_rows_shuffled(&self) -> usize {
        self.ops.iter().map(|o| o.shuffle.rows).sum()
    }

    /// Total encoded frames shipped across all exchanges (0 unless a
    /// serialized transport ran).
    pub fn total_frames(&self) -> usize {
        self.ops.iter().map(|o| o.shuffle.frames).sum()
    }

    /// Total sender time spent blocked on full channels.
    pub fn total_enqueue_block(&self) -> Duration {
        self.ops.iter().map(|o| o.shuffle.enqueue_block).sum()
    }

    /// Total bytes written to spill files across all operators (0 unless
    /// a memory budget forced out-of-core execution).
    pub fn total_spill_bytes(&self) -> usize {
        self.ops.iter().map(|o| o.spill.bytes_written).sum()
    }

    /// Total spill files created across all operators.
    pub fn total_spill_files(&self) -> usize {
        self.ops.iter().map(|o| o.spill.files).sum()
    }

    /// Total column batches evaluated by compiled kernels (0 under the
    /// row interpreter).
    pub fn total_batches(&self) -> usize {
        self.ops.iter().map(|o| o.batch.batches).sum()
    }

    /// Total rows that went through the compiled columnar path.
    pub fn total_batch_rows(&self) -> usize {
        self.ops.iter().map(|o| o.batch.rows).sum()
    }

    /// Total compiled-kernel invocations across all operators.
    pub fn total_kernels(&self) -> usize {
        self.ops.iter().map(|o| o.batch.kernels).sum()
    }

    /// Always 0: no chunk is replayed through the row interpreter any
    /// more. Kept only because the benchmark (`benchmark/src/engine.rs`)
    /// reads it for its `exec.fallbacks` metric, until that metric is
    /// dropped there.
    pub fn total_fallbacks(&self) -> usize {
        0
    }

    /// Wall time grouped by operator label — the Figure 4 breakdown.
    pub fn time_by_label(&self) -> BTreeMap<String, Duration> {
        let mut m = BTreeMap::new();
        for o in &self.ops {
            *m.entry(o.label.clone()).or_insert(Duration::ZERO) += o.wall;
        }
        m
    }

    /// Merges another execution's stats into this one (multi-statement
    /// workloads sum their queries).
    pub fn merge(&mut self, other: &ExecStats) {
        self.ops.extend(other.ops.iter().cloned());
        self.dispatch = self.dispatch.plus(&other.dispatch);
    }

    /// Renders a human-readable table. Exchanges that ran over a
    /// serialized transport get one indented sub-line per channel;
    /// pointer-mode byte estimates are marked `~` to keep them distinct
    /// from measured wire bytes.
    pub fn display_table(&self) -> String {
        // The operator column grows to fit the longest label so long
        // labels never push the numeric columns out of alignment.
        let label_w = self
            .ops
            .iter()
            .map(|o| o.label.len())
            .max()
            .unwrap_or(0)
            .max(24);
        let mut out = format!(
            "{:<5} {:<label_w$} {:>9} {:>9} {:>15} {:>13} {:>8} {:>12}\n",
            "id", "operator", "time_ms", "rows", "shuffled_rows", "shuffled_MB", "frames", "blocked_ms",
        );
        for o in &self.ops {
            let mb = format!(
                "{}{:.3}",
                if o.shuffle.estimated { "~" } else { "" },
                o.shuffle.bytes as f64 / 1e6,
            );
            out.push_str(&format!(
                "{:<5} {:<label_w$} {:>9.3} {:>9} {:>15} {:>13} {:>8} {:>12.3}\n",
                o.id,
                o.label,
                o.wall.as_secs_f64() * 1e3,
                o.rows_out,
                o.shuffle.rows,
                mb,
                o.shuffle.frames,
                o.shuffle.enqueue_block.as_secs_f64() * 1e3,
            ));
            for c in &o.shuffle.channels {
                out.push_str(&format!(
                    "        ch {}->{}: {} rows, {} bytes, {}, blocked {:.3} ms\n",
                    c.from,
                    c.to,
                    c.rows,
                    c.bytes,
                    plural(c.frames, "frame"),
                    c.enqueue_block.as_secs_f64() * 1e3,
                ));
            }
            if o.spill.spilled() {
                out.push_str(&format!(
                    "        spill: {}, {} buckets, {} bytes written, {} bytes read\n",
                    plural(o.spill.files, "file"),
                    o.spill.partitions,
                    o.spill.bytes_written,
                    o.spill.bytes_read,
                ));
            }
            if o.batch.vectorized() {
                out.push_str(&format!(
                    "        vec: {} batches, {} rows, {}\n",
                    o.batch.batches,
                    o.batch.rows,
                    plural(o.batch.kernels, "kernel"),
                ));
            }
        }
        out
    }
}

/// `1 frame`, `2 frames` — correct pluralization for count displays.
fn plural(n: usize, unit: &str) -> String {
    if n == 1 {
        format!("{n} {unit}")
    } else {
        format!("{n} {unit}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: usize, label: &str, ms: u64, bytes: usize) -> OperatorStats {
        OperatorStats {
            id,
            label: label.into(),
            wall: Duration::from_millis(ms),
            rows_out: id * 10,
            shuffle: ShuffleStats::estimated(id, bytes),
            spill: SpillStats::default(),
            batch: BatchStats::default(),
        }
    }

    #[test]
    fn totals_and_grouping() {
        let mut s = ExecStats::new();
        s.record(op(1, "HashJoin", 10, 0));
        s.record(op(2, "HashJoin", 5, 0));
        s.record(op(3, "Exchange(Hash)", 2, 100));
        assert_eq!(s.total_bytes_shuffled(), 100);
        assert_eq!(s.total_rows_shuffled(), 6);
        let by = s.time_by_label();
        assert_eq!(by["HashJoin"], Duration::from_millis(15));
        assert_eq!(by["Exchange(Hash)"], Duration::from_millis(2));
    }

    #[test]
    fn merge_and_display() {
        let mut a = ExecStats::new();
        a.record(op(1, "Filter", 1, 0));
        let mut b = ExecStats::new();
        b.record(op(2, "Project", 1, 0));
        a.merge(&b);
        assert_eq!(a.operators().len(), 2);
        let table = a.display_table();
        assert!(table.contains("Filter"));
        assert!(table.contains("Project"));
    }

    #[test]
    fn channel_aggregation_and_display() {
        let channels = vec![
            ChannelStats {
                from: 0,
                to: 1,
                rows: 10,
                bytes: 800,
                frames: 2,
                enqueue_block: Duration::from_millis(3),
            },
            ChannelStats {
                from: 2,
                to: 1,
                rows: 5,
                bytes: 400,
                frames: 1,
                enqueue_block: Duration::from_millis(1),
            },
        ];
        let shuffle = ShuffleStats::from_channels(channels);
        assert_eq!(shuffle.rows, 15);
        assert_eq!(shuffle.bytes, 1200);
        assert_eq!(shuffle.frames, 3);
        assert_eq!(shuffle.enqueue_block, Duration::from_millis(4));

        let mut s = ExecStats::new();
        s.record(OperatorStats {
            id: 7,
            label: "Exchange(Hash)".into(),
            wall: Duration::from_millis(2),
            rows_out: 15,
            shuffle,
            spill: SpillStats::default(),
            batch: BatchStats::default(),
        });
        assert_eq!(s.total_frames(), 3);
        assert_eq!(s.total_enqueue_block(), Duration::from_millis(4));
        let table = s.display_table();
        assert!(table.contains("ch 0->1: 10 rows, 800 bytes, 2 frames"), "{table}");
        assert!(table.contains("ch 2->1: 5 rows, 400 bytes, 1 frame,"), "{table}");
    }

    #[test]
    fn display_marks_estimated_bytes_and_fits_long_labels() {
        let mut s = ExecStats::new();
        s.record(op(1, "Exchange(Hash)", 1, 2_000_000)); // estimated() helper
        let long = "HashJoin(some.very.long.column = other.even.longer.column)";
        s.record(OperatorStats {
            id: 2,
            label: long.into(),
            wall: Duration::from_millis(1),
            rows_out: 1,
            shuffle: ShuffleStats::from_channels(vec![ChannelStats {
                from: 0,
                to: 1,
                rows: 1,
                bytes: 3_000_000,
                frames: 1,
                enqueue_block: Duration::ZERO,
            }]),
            spill: SpillStats::default(),
            batch: BatchStats::default(),
        });
        let table = s.display_table();
        // Pointer-mode estimate is marked; measured bytes are not.
        assert!(table.contains("~2.000"), "{table}");
        assert!(table.contains(" 3.000") && !table.contains("~3.000"), "{table}");
        // Long labels widen the column instead of breaking alignment: every
        // full-width row is the same length.
        let rows: Vec<&str> = table
            .lines()
            .filter(|l| !l.starts_with(' '))
            .collect();
        assert!(rows.iter().all(|r| r.len() == rows[0].len()), "{table}");
    }

    #[test]
    fn spill_totals_and_display() {
        let mut s = ExecStats::new();
        let mut o = op(1, "HashJoin", 3, 0);
        o.spill = SpillStats { files: 2, bytes_written: 4096, bytes_read: 4096, partitions: 8 };
        assert!(o.spill.spilled());
        s.record(o);
        s.record(op(2, "Filter", 1, 0)); // no spill → no detail line
        assert_eq!(s.total_spill_bytes(), 4096);
        assert_eq!(s.total_spill_files(), 2);
        let table = s.display_table();
        assert!(
            table.contains("spill: 2 files, 8 buckets, 4096 bytes written, 4096 bytes read"),
            "{table}"
        );
        assert_eq!(table.matches("spill:").count(), 1, "{table}");

        let mut merged = SpillStats::default();
        assert!(!merged.spilled());
        merged.merge(SpillStats { files: 1, bytes_written: 10, bytes_read: 5, partitions: 4 });
        merged.merge(SpillStats { files: 2, bytes_written: 30, bytes_read: 45, partitions: 4 });
        assert_eq!(merged, SpillStats { files: 3, bytes_written: 40, bytes_read: 50, partitions: 8 });
    }

    #[test]
    fn batch_totals_and_display() {
        let mut s = ExecStats::new();
        let mut o = op(1, "Filter [vec]", 2, 0);
        o.batch = BatchStats { batches: 3, rows: 2048, kernels: 9 };
        assert!(o.batch.vectorized());
        s.record(o);
        s.record(op(2, "HashJoin", 1, 0)); // interpreted → no detail line
        assert_eq!(s.total_batches(), 3);
        assert_eq!(s.total_batch_rows(), 2048);
        assert_eq!(s.total_kernels(), 9);
        let table = s.display_table();
        assert!(table.contains("vec: 3 batches, 2048 rows, 9 kernels\n"), "{table}");
        assert_eq!(table.matches("vec:").count(), 1, "{table}");

        let mut merged = BatchStats::default();
        assert!(!merged.vectorized());
        merged.merge(BatchStats { batches: 1, rows: 10, kernels: 2 });
        merged.merge(BatchStats { batches: 2, rows: 20, kernels: 4 });
        assert_eq!(merged, BatchStats { batches: 3, rows: 30, kernels: 6 });
    }
}
