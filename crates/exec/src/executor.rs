//! The physical-plan interpreter.
//!
//! Operators run one at a time over `Vec<Row>` partitions. Three jobs are
//! each done in exactly one place:
//!
//! * rows cross partitions in `Executor::exchange` (`crate::exchange`):
//!   every exchange kind is routed once into `routed[from][to]` buckets
//!   and assembled once, and the transport mode only picks the carrier of
//!   a boundary-crossing bucket (handed over, or encoded → mesh → decoded);
//! * a join table is built in `prepare_build` (reserve, else spill) and
//!   probed in `probe_matches` (key evaluation + lookup). Every hash join
//!   is the chunk producer of the pipeline above it (`run_join`): a
//!   resident table's matches are buffered as row-index pairs over sides
//!   pivoted once (`probe_in_chunks`), and only the grace join, which
//!   must produce rows, concatenates them (`joined_row`). A cross product
//!   is the join on the empty key, built on its right side (`BuildOn`);
//! * expressions are evaluated in `ChunkPipeline`: every Filter/Project
//!   chain and every aggregate runs its chunks through it, as rows from a
//!   materialized child or as matched pairs from the join under it — no
//!   `Row` is built between the probe and the operator above the join,
//!   which folds the chunks into its group table or appends the rows
//!   that survive.
//!   Each aggregate fills one group table (`crate::agg::GroupedAgg`) per
//!   partition, in row order, from the evaluated key and argument
//!   *columns*. A chunk that fails is cut at its first failing lane and
//!   run again, so the query raises the interpreter's error of its first
//!   failing row.
//!
//! Two references sit beside the product path, for the equivalence
//! suites to compare against: `Executor::interpreted`, whose pipelines
//! compile nothing and run every chunk row at a time through the
//! interpreter (`ChunkPipeline::interpret`), and the test-only
//! `Executor::with_fusion(false)`, which runs every join with nothing
//! above it in its pipeline, so the operator above reads materialized
//! rows.

use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lardb_buf::{MemoryGovernor, MemoryReservation, SpillFile, SpillWriter};
use lardb_net::{NetConfig, TransportMode, ROWS_PER_FRAME};
use lardb_planner::physical::{AggMode, PhysicalPlan};
use lardb_planner::{AggExpr, AggFunc, Builtin, Expr};
use lardb_storage::ops::CompositeKey;
use lardb_storage::{Catalog, Partitioning, Row, Schema, Value};

use crate::agg::{hash_values, spill_bucket, Accumulator, ArgCols, GroupedAgg, KeyTable};
use crate::batch::{Col, ColumnBatch};
use crate::cluster::{context, Cluster};
use crate::compile::Program;
use crate::eval::{eval_predicate_with, eval_with};
use crate::kernels::{self, KernelError, KernelResult};
use crate::stats::{
    BatchStats, ExecStats, OperatorStats, ShuffleStats, SpillStats,
};
use crate::{CancelToken, ExecError, Result};

/// How often tight row loops (probe rows, scan re-deals, exchange
/// routing) re-check the cancel token: every this many iterations. Cheap
/// enough to be noise, frequent enough that a KILL lands in milliseconds.
/// A pipeline also polls at every chunk it cuts.
pub(crate) const CANCEL_CHECK_PAIRS: usize = 8192;

/// Rows per [`ColumnBatch`] chunk in the vectorized engine: large enough
/// to amortize the pivot and per-instruction dispatch, small enough that
/// a batch's columns stay cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Byte cap on a chunk a join producer buffers: a chunk
/// is cut at `batch_rows` pairs or once the [`Row::byte_size`] of its
/// pairs' two sides reaches this, whichever comes first. Column-at-a-time
/// evaluation materializes one argument value per buffered pair, so with
/// tile-sized payloads a count cut alone would hold a thousand
/// intermediate tiles at once.
const CHUNK_BYTES: usize = 1 << 20;

/// Partitioned rows: one `Vec<Row>` per worker.
pub(crate) type Parts = Vec<Vec<Row>>;

/// Buckets a spilled build side (or aggregation state) fans out into per
/// spill level. 8 buckets per level × up to [`MAX_SPILL_DEPTH`] levels
/// bounds each bucket at fanout^depth-th of the input.
const SPILL_FANOUT: usize = 8;

/// Recursion cap for the grace join. A bucket still over budget at this
/// depth is duplicate-key-heavy and will not shrink by re-partitioning, so
/// it is processed under a forced (overcommitted) reservation instead of
/// recursing forever.
const MAX_SPILL_DEPTH: usize = 6;

/// Memory-budget knobs for out-of-core execution: which [`MemoryGovernor`]
/// operators reserve against, and where spill files go.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    governor: Arc<MemoryGovernor>,
    spill_dir: PathBuf,
}

impl MemoryConfig {
    /// A governor of its own with a budget in bytes (`None` = unbounded),
    /// spilling to `spill_dir` (`None` = the OS temp dir).
    pub fn with_budget(budget: Option<u64>, spill_dir: Option<PathBuf>) -> Self {
        MemoryConfig {
            governor: Arc::new(MemoryGovernor::new(budget)),
            spill_dir: spill_dir.unwrap_or_else(std::env::temp_dir),
        }
    }

    /// Wraps an existing governor (e.g. a tenant sub-governor created with
    /// [`MemoryGovernor::child`]) with the given spill directory.
    pub fn with_governor(governor: Arc<MemoryGovernor>, spill_dir: PathBuf) -> Self {
        MemoryConfig { governor, spill_dir }
    }

    /// The governor operators reserve bytes against.
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.governor
    }

    /// Directory spill files are created in.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// True when a finite budget is configured — the only case where the
    /// out-of-core paths can engage.
    pub fn bounded(&self) -> bool {
        self.governor.budget().is_some()
    }
}

/// The result of executing a physical plan.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Output schema.
    pub schema: Schema,
    /// Output rows, one vector per worker partition.
    pub partitions: Parts,
    /// Per-operator runtime statistics.
    pub stats: ExecStats,
}

impl ExecutionResult {
    /// All rows, concatenated in partition order. Clones every row
    /// (cheap since rows are `Arc`-backed, but prefer [`Self::into_rows`]
    /// when the result is no longer needed).
    pub fn rows(&self) -> Vec<Row> {
        self.partitions.iter().flat_map(|p| p.iter().cloned()).collect()
    }

    /// Consumes the result, yielding all rows in partition order without
    /// cloning any of them.
    pub fn into_rows(self) -> Vec<Row> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }
}

/// Executes physical plans against a catalog on a simulated cluster.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    pub(crate) cluster: Cluster,
    fuse: bool,
    pub(crate) mode: TransportMode,
    pub(crate) net: NetConfig,
    mem: MemoryConfig,
    interpreted: bool,
    batch_rows: usize,
}

impl<'a> Executor<'a> {
    /// Creates an executor (join→aggregate fusion enabled, pointer
    /// transport, compiled expressions, an unbounded governor of its
    /// own).
    pub fn new(catalog: &'a Catalog, cluster: Cluster) -> Self {
        Executor {
            catalog,
            cluster,
            fuse: true,
            mode: TransportMode::default(),
            net: NetConfig::default(),
            mem: MemoryConfig::with_budget(None, None),
            interpreted: false,
            batch_rows: DEFAULT_BATCH_ROWS,
        }
    }

    /// Applies a memory budget: hash joins and grouped aggregations reserve
    /// their state against the config's governor and fall back to disk-backed
    /// out-of-core execution when a reservation is denied.
    pub fn with_memory(mut self, mem: MemoryConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Disables pipelining a join into the operator above it: every join
    /// then runs with nothing above it in its pipeline, and the operator
    /// above reads its materialized rows — the reference a test compares
    /// the fused plan with.
    #[cfg(test)]
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Selects how exchanges move rows between workers: `pointer` keeps
    /// the zero-copy in-memory shuffle; `serialized` pushes every
    /// boundary-crossing batch through the wire codec. Both meter the
    /// same encoded bytes and frames per channel.
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Applies the network layer's frame-size cap and the optional
    /// chaos-testing fault plan to this executor's serialized exchanges.
    pub fn with_net_config(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// The differential suites' oracle, not a product setting: every
    /// pipeline compiles nothing, pivots nothing and runs each chunk row
    /// at a time through the interpreter ([`crate::eval`]), over the same
    /// operators and chunks.
    #[doc(hidden)]
    pub fn interpreted(mut self) -> Self {
        self.interpreted = true;
        self
    }

    /// Rows per column batch in the vectorized engine (clamped to ≥ 1).
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Runs a plan to completion, materializing its output.
    ///
    /// The run has a context of its own, entered here and carried by the
    /// pool into every task: the statement's token and trace when one is
    /// entered (a fresh token otherwise), the cluster's pool, and a fresh
    /// kernel tally, which becomes `ExecStats.dispatch`.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecutionResult> {
        let statement = context();
        let ctx = statement.child(statement.cancel_token().clone(), self.cluster.pool.clone());
        let _entered = ctx.enter();
        if ctx.cancel_token().is_cancelled() {
            return Err(ExecError::Cancelled("query killed before execution".into()));
        }
        let mut stats = ExecStats::new();
        let partitions = self.run(plan, &mut stats)?;
        stats.dispatch = lardb_la::dispatch::counts(&ctx);
        publish_metrics(&stats);
        Ok(ExecutionResult { schema: plan.schema(), partitions, stats })
    }

    fn run(&self, plan: &PhysicalPlan, stats: &mut ExecStats) -> Result<Parts> {
        // Evaluate children first so each operator's timer covers only its
        // own work (stage-at-a-time, like the Hadoop substrate).
        let out = match plan {
            PhysicalPlan::TableScan { table, .. } => {
                let t0 = Instant::now();
                let out = self.scan(table)?;
                self.record(plan, stats, t0, &out, ShuffleStats::default());
                out
            }
            PhysicalPlan::HashJoin { .. } => return self.run_join(plan, &[], None, stats),
            PhysicalPlan::Filter { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::HashAggregate { .. } => {
                // The adjacent Filter/Project chain, and the aggregate on
                // top of it, run as one chunk pipeline, fed by the join
                // under it or else by its materialized child. Pipelined
                // join→aggregate fusion streams joined rows into the
                // pipeline in chunks instead of materializing them — the
                // combiner structure SimSQL's MapReduce substrate
                // provides, and the only way the tuple-based workloads
                // survive realistic scales.
                let (chain, base, agg) = peel_pipeline(plan);
                let folds_states = agg.is_some_and(|a| a.mode == AggMode::Final);
                if self.fuse && !folds_states && matches!(base, PhysicalPlan::HashJoin { .. }) {
                    return self.run_join(base, &chain, agg, stats);
                }
                return self.run_scan_fed(&chain, base, agg, stats);
            }
            PhysicalPlan::Exchange { input, kind, .. } => {
                let child = self.run(input, stats)?;
                let t0 = Instant::now();
                let (out, shuffle) = self.exchange(child, kind, &plan.schema())?;
                self.record(plan, stats, t0, &out, shuffle);
                out
            }
            PhysicalPlan::Sort { input, keys, .. } => {
                let child = self.run(input, stats)?;
                let t0 = Instant::now();
                let w = child.len();
                let mut all: Vec<Row> = child.into_iter().flatten().collect();
                sort_rows(&mut all, keys)?;
                let mut out = vec![Vec::new(); w];
                out[0] = all;
                self.record(plan, stats, t0, &out, ShuffleStats::default());
                out
            }
            PhysicalPlan::Limit { input, n, .. } => {
                let child = self.run(input, stats)?;
                let t0 = Instant::now();
                let w = child.len();
                let mut all: Vec<Row> = child.into_iter().flatten().collect();
                all.truncate(*n);
                let mut out = vec![Vec::new(); w];
                out[0] = all;
                self.record(plan, stats, t0, &out, ShuffleStats::default());
                out
            }
        };
        Ok(out)
    }

    /// Runs a hash join as the chunk producer of the pipeline above it:
    /// `chain`, the Filter/Project stages between the join and its
    /// consumer, then `agg`'s group table when an aggregate consumes the
    /// join, or the surviving rows otherwise — no intermediate `Row` is
    /// built between the probe and the consumer. Each partition prepares
    /// its build side ([`prepare_build`]). A resident build is probed by
    /// [`probe_in_chunks`], which buffers matched pairs as two row-index
    /// vectors over the partition's sides — the build rows stay owned by
    /// the join table, the probe rows by the partition — cuts a chunk at
    /// `batch_rows` pairs or [`CHUNK_BYTES`] buffered bytes, whichever
    /// comes first, and hands it to the pipeline, which gathers the pairs'
    /// columns by position from sides pivoted once and runs the join
    /// residual as the chunk's first filter, then the chain and the sink.
    /// Chunks are therefore cut *before* the residual, and the cancel
    /// token is polled after every chunk. A spilled build runs as a grace
    /// join ([`grace_join_partition`]), whose joined rows, residual
    /// applied and in exact probe order, enter the same pipeline as row
    /// chunks. Join time and pipeline time stay separately attributed
    /// (Figure 4's breakdown): the join's wall is the partition's wall
    /// minus the time spent inside the pipeline, its `rows_out` the pairs
    /// that passed the residual. A join with nothing above it in its
    /// pipeline also books the pipeline's wall and batch counters.
    fn run_join<'p>(
        &self,
        join: &'p PhysicalPlan,
        chain: &[&'p PhysicalPlan],
        agg: Option<AggSink<'p>>,
        stats: &mut ExecStats,
    ) -> Result<Parts> {
        struct PartOut {
            rows: Vec<Row>,
            joined_rows: usize,
            join_ns: u64,
            pipe_ns: u64,
            spill: SpillStats,
        }

        let PhysicalPlan::HashJoin { left, right, left_keys, right_keys, residual, .. } = join else {
            unreachable!("not a join: {}", join.label())
        };
        let residual = residual.as_ref();
        let on = BuildOn::of(left_keys);
        let (build_keys, probe_keys) = on.split(left_keys.as_slice(), right_keys);
        let l = self.run(left, stats)?;
        let r = self.run(right, stats)?;
        let (group_by, aggs): (&[Expr], &[AggExpr]) = match agg {
            Some(a) => (a.group_by, a.aggs),
            None => (&[], &[]),
        };
        // No per-chunk kernel spans here: a join feeds chunks in proportion
        // to its joined rows (n·d² tuples for the Gram query), which would
        // fill the trace's event cap and the flight recorder's ring.
        let (compiled, input) = (!self.interpreted, join.schema());
        let pipe = ChunkPipeline::new(compiled, None, input, residual, chain, group_by, aggs)?;
        let sides = [left.schema(), right.schema()];
        let mem = &self.mem;
        let cancel = context().cancel_token().clone();
        let batch_rows = self.batch_rows;
        let run_partition = |lp: Vec<Row>, rp: Vec<Row>| -> Result<PartOut> {
            let t_start = Instant::now();
            let mut sink = Sink::new(agg, 0);
            let (mut joined_rows, mut pipe_ns) = (0usize, 0u64);
            let mut scratch: Vec<Value> = Vec::new();
            let mut spill = SpillStats::default();
            // One chunk into the pipeline; the token is polled after every
            // chunk, so a KILL waits out at most one chunk however skewed
            // the keys.
            let mut feed = |chunk: Chunk<'_>| -> Result<()> {
                let t = Instant::now();
                joined_rows += pipe.feed(chunk, &mut sink, &mut scratch)?;
                add_elapsed(&mut pipe_ns, t);
                if cancel.is_cancelled() {
                    return Err(join_cancelled());
                }
                Ok(())
            };
            let full = |len: usize, bytes: usize| len >= batch_rows || bytes >= CHUNK_BYTES;

            let (bp, pp) = on.split(lp, rp);
            match prepare_build(bp, build_keys, mem, 0, &mut spill)? {
                BuildSide::InMem { table, _res } => {
                    probe_in_chunks(&table, &pp, probe_keys, on, &sides, full, &cancel, &mut feed)?;
                }
                BuildSide::Spilled { buckets } => {
                    let (joined, sp) = grace_join_partition(
                        buckets, pp, build_keys, probe_keys, residual, mem,
                    )?;
                    spill.merge(sp);
                    let (mut start, mut bytes) = (0, 0);
                    for (i, row) in joined.iter().enumerate() {
                        bytes += row.byte_size();
                        if full(i + 1 - start, bytes) {
                            feed(Chunk::Rows(&joined[start..=i]))?;
                            start = i + 1;
                            bytes = 0;
                        }
                    }
                    feed(Chunk::Rows(&joined[start..]))?;
                }
            }
            let total_ns = t_start.elapsed().as_nanos() as u64;
            Ok(PartOut {
                rows: sink.finish(),
                joined_rows,
                join_ns: total_ns.saturating_sub(pipe_ns),
                pipe_ns,
                spill,
            })
        };

        let pairs: Vec<(Vec<Row>, Vec<Row>)> = l.into_iter().zip(r).collect();
        let parts = self.cluster.par_map(pairs, |_, (lp, rp)| run_partition(lp, rp))?;

        // Attribute wall time across workers as the max (they ran in
        // parallel), matching how the other operators are timed.
        let max_ns = |f: fn(&PartOut) -> u64| parts.iter().map(f).max().unwrap_or(0);
        let (join_ns, pipe_ns) = (max_ns(|p| p.join_ns), max_ns(|p| p.pipe_ns));
        let part_ns = max_ns(|p| p.join_ns + p.pipe_ns);
        let joined_rows: usize = parts.iter().map(|p| p.joined_rows).sum();
        let mut spill = SpillStats::default();
        for p in &parts {
            spill.merge(p.spill);
        }
        let mut out: Parts = parts.into_iter().map(|p| p.rows).collect();
        if let Some(a) = agg {
            ensure_global_row(&mut out, a.group_by, a.aggs, a.mode);
        }
        // With nothing above it in its pipeline, the join's record is the
        // pipeline's too. Either way it carries its residual's kernels.
        let bare = agg.is_none() && chain.is_empty();
        let residual_kernels = pipe.residual_kernels.load(AtomicOrdering::Relaxed) as usize;
        stats.record(OperatorStats {
            id: join.id(),
            label: join.label(),
            wall: Duration::from_nanos(if bare { part_ns } else { join_ns }),
            rows_out: joined_rows,
            shuffle: ShuffleStats::default(),
            spill,
            batch: if bare {
                pipe.batch_stats(residual_kernels)
            } else {
                BatchStats { kernels: residual_kernels, ..BatchStats::default() }
            },
        });
        if !bare {
            let agg = agg.map(|a| (a.plan, SpillStats::default()));
            pipe.record(agg, Duration::from_nanos(pipe_ns), &out, stats);
        }
        Ok(out)
    }

    /// Runs a chunk pipeline over its materialized child, one task per
    /// partition. Each task cuts its partition into `batch_rows` chunks,
    /// polls the token before each, and feeds them in row order through
    /// the one [`ChunkPipeline`] into the partition's [`Sink`], as
    /// [`Self::run_join`] does: the rows that survive `chain`, or the
    /// partition's group table when `agg` tops the pipeline. So group
    /// order and float accumulation order are independent of scheduler
    /// and batch size, and the query's error is the interpreter's for the
    /// first failing row of the first failing partition. A Final
    /// aggregate's input rows are accumulator states, which no program
    /// evaluates (its arguments name the Partial's input columns): it has
    /// no pipeline and folds each row through `GroupedAgg::update_row`.
    /// Under a memory budget a grouped table is finished through
    /// [`finish_spilling`]; a global aggregate holds a single group's
    /// state and gains nothing from bucketing it.
    fn run_scan_fed<'p>(
        &self,
        chain: &[&'p PhysicalPlan],
        base: &'p PhysicalPlan,
        agg: Option<AggSink<'p>>,
        stats: &mut ExecStats,
    ) -> Result<Parts> {
        let child = self.run(base, stats)?;
        let t0 = Instant::now();
        let (group_by, aggs): (&[Expr], &[AggExpr]) = match agg {
            Some(a) => (a.group_by, a.aggs),
            None => (&[], &[]),
        };
        let pipe = match agg {
            Some(a) if a.mode == AggMode::Final => None,
            _ => {
                let (compiled, trace) = (!self.interpreted, context().trace().cloned());
                let input = base.schema();
                Some(ChunkPipeline::new(compiled, trace, input, None, chain, group_by, aggs)?)
            }
        };
        let batch_rows = self.batch_rows;
        let cancel = context().cancel_token().clone();
        let sinks = self.cluster.par_map(child, |_, rows| {
            let mut sink = Sink::new(agg, rows.len());
            let mut scratch: Vec<Value> = Vec::new();
            for chunk in rows.chunks(batch_rows) {
                if cancel.is_cancelled() {
                    return Err(ExecError::Cancelled("pipeline cancelled".into()));
                }
                match (&pipe, &mut sink) {
                    (Some(pipe), sink) => {
                        pipe.feed(Chunk::Rows(chunk), sink, &mut scratch)?;
                    }
                    (None, Sink::Agg(table)) => {
                        for row in chunk {
                            table.update_row(row, &mut scratch)?;
                        }
                    }
                    (None, Sink::Rows(_)) => {
                        unreachable!("only a Final aggregate has no pipeline")
                    }
                }
            }
            Ok(sink)
        })?;
        let spilling = self.mem.bounded() && !group_by.is_empty();
        let mut spill = SpillStats::default();
        let mut out = Vec::with_capacity(sinks.len());
        for sink in sinks {
            out.push(match (sink, agg) {
                (Sink::Agg(table), Some(a)) if spilling => {
                    let (rows, sp) = finish_spilling(table, group_by, aggs, a.mode, &self.mem)?;
                    spill.merge(sp);
                    rows
                }
                (sink, _) => sink.finish(),
            });
        }
        if let Some(a) = agg {
            ensure_global_row(&mut out, a.group_by, a.aggs, a.mode);
        }
        let Some(pipe) = &pipe else {
            let plan = agg.expect("only a Final aggregate has no pipeline").plan;
            stats.record(OperatorStats {
                id: plan.id(),
                label: plan.label(),
                wall: t0.elapsed(),
                rows_out: out.iter().map(Vec::len).sum(),
                shuffle: ShuffleStats::default(),
                spill,
                batch: BatchStats::default(),
            });
            return Ok(out);
        };
        pipe.record(agg.map(|a| (a.plan, spill)), t0.elapsed(), &out, stats);
        Ok(out)
    }

    fn record(
        &self,
        plan: &PhysicalPlan,
        stats: &mut ExecStats,
        t0: Instant,
        out: &Parts,
        shuffle: ShuffleStats,
    ) {
        stats.record(OperatorStats {
            id: plan.id(),
            label: plan.label(),
            wall: t0.elapsed(),
            rows_out: out.iter().map(Vec::len).sum(),
            shuffle,
            spill: SpillStats::default(),
            batch: BatchStats::default(),
        });
    }

    /// Scans a table, normalizing to the cluster's partition count. The
    /// cancel token is checked per partition (and periodically inside the
    /// re-deal loop), so a killed query stops copying rows promptly
    /// instead of materializing a large scan it will never use.
    fn scan(&self, table: &str) -> Result<Parts> {
        let cancel = context().cancel_token().clone();
        let scan_cancelled = || ExecError::Cancelled("table scan cancelled".into());
        if cancel.is_cancelled() {
            return Err(scan_cancelled());
        }
        let w = self.cluster.workers();
        let handle = self.catalog.table(table)?;
        let t = handle.read();
        let replicated = matches!(t.partitioning(), Partitioning::Replicated);
        if replicated {
            // Every worker sees the same rows; `Row` is Arc-backed, so
            // the W copies share one attribute buffer per row instead of
            // materializing W deep copies of the table.
            let copy: Vec<Row> = t.partition(0).to_vec();
            return Ok((0..w).map(|_| copy.clone()).collect());
        }
        if t.num_partitions() == w {
            let mut out = Vec::with_capacity(w);
            for p in 0..w {
                if cancel.is_cancelled() {
                    return Err(scan_cancelled());
                }
                out.push(t.partition(p).to_vec());
            }
            return Ok(out);
        }
        // Partition-count mismatch: re-deal round-robin.
        let mut out = vec![Vec::new(); w];
        for (i, row) in t.iter_rows().enumerate() {
            if i % CANCEL_CHECK_PAIRS == 0 && cancel.is_cancelled() {
                return Err(scan_cancelled());
            }
            out[i % w].push(row.clone());
        }
        Ok(out)
    }
}

/// Publishes one execution's totals into the process-wide metrics
/// registry: plans run, rows/bytes shuffled, frames encoded, kernel
/// choices (`la.dispatch.*`) and an enqueue-block-time histogram (µs).
fn publish_metrics(stats: &ExecStats) {
    lardb_la::dispatch::publish(&stats.dispatch);
    let registry = lardb_obs::global();
    registry.counter("exec.plans_run").inc();
    registry
        .counter("exec.rows_shuffled")
        .add(stats.total_rows_shuffled() as u64);
    registry
        .counter("exec.bytes_shuffled")
        .add(stats.total_bytes_shuffled() as u64);
    registry
        .counter("exec.frames_encoded")
        .add(stats.total_frames() as u64);
    let blocked = stats.total_enqueue_block();
    if blocked > Duration::ZERO {
        registry
            .histogram("exec.enqueue_block_us")
            .observe(blocked.as_micros() as u64);
    }
    // spill.files / spill.bytes_written / spill.bytes_read are fed by
    // lardb-buf as files are produced; per-query bucket counts land here.
    let buckets: usize = stats.operators().iter().map(|o| o.spill.partitions).sum();
    if buckets > 0 {
        registry.counter("spill.partitions").add(buckets as u64);
    }
    // Vectorized-engine totals. The rows-per-batch histogram is fed
    // inline as chunks run; the counters summarize per query here.
    let batches = stats.total_batches();
    if batches > 0 {
        registry.counter("exec.batch.batches").add(batches as u64);
        registry.counter("exec.batch.rows").add(stats.total_batch_rows() as u64);
        registry.counter("exec.batch.kernels").add(stats.total_kernels() as u64);
    }
}

/// Splits a pipeline's top into the Filter/Project chain under it —
/// returned bottom-up, the order the stages run in — the node that
/// produces its chunks, and the aggregate that tops it, if `plan` is one.
/// A Final aggregate folds state rows, which no program evaluates: what is
/// under it runs apart.
fn peel_pipeline(plan: &PhysicalPlan) -> (Vec<&PhysicalPlan>, &PhysicalPlan, Option<AggSink<'_>>) {
    let (mut base, agg) = match plan {
        PhysicalPlan::HashAggregate { input, group_by, aggs, mode, .. } => {
            let sink = AggSink { plan, group_by, aggs, mode: *mode };
            if *mode == AggMode::Final {
                return (Vec::new(), input, Some(sink));
            }
            (&**input, Some(sink))
        }
        _ => (plan, None),
    };
    let mut chain = Vec::new();
    while let PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } = base {
        chain.push(base);
        base = input;
    }
    chain.reverse();
    (chain, base, agg)
}

/// The aggregate a chunk pipeline folds into when one tops it.
#[derive(Clone, Copy)]
struct AggSink<'p> {
    plan: &'p PhysicalPlan,
    group_by: &'p [Expr],
    aggs: &'p [AggExpr],
    mode: AggMode,
}

/// Where one partition's chunks end up: the rows that survive the
/// pipeline, or the partition's group table.
enum Sink<'p> {
    Rows(Vec<Row>),
    Agg(GroupedAgg<'p>),
}

impl<'p> Sink<'p> {
    /// The sink of a pipeline that `agg` tops, if any; a row sink
    /// reserves `rows`.
    fn new(agg: Option<AggSink<'p>>, rows: usize) -> Self {
        match agg {
            Some(a) => Sink::Agg(GroupedAgg::new(a.group_by, a.aggs, a.mode)),
            None => Sink::Rows(Vec::with_capacity(rows)),
        }
    }

    /// The partition's output rows.
    fn finish(self) -> Vec<Row> {
        match self {
            Sink::Rows(rows) => rows,
            Sink::Agg(table) => table.finish(),
        }
    }
}

/// One stage of a Filter/Project chain: its expressions, which the
/// interpreter evaluates, and the meters every chunk reports into.
struct VecStage<'p> {
    id: usize,
    label: String,
    kind: VecStageKind<'p>,
    meter: StageMeter,
}

#[derive(Clone, Copy)]
enum VecStageKind<'p> {
    Filter(&'p Expr),
    Project(&'p [Expr]),
}

/// A chain stage's compiled programs: a Filter's predicate or a
/// Project's expressions.
enum StageProgram<'p> {
    Filter(Program<'p>),
    Project(Vec<Program<'p>>),
}

impl<'p> VecStage<'p> {
    fn new(node: &'p PhysicalPlan) -> VecStage<'p> {
        let kind = match node {
            PhysicalPlan::Filter { predicate, .. } => VecStageKind::Filter(predicate),
            PhysicalPlan::Project { exprs, .. } => VecStageKind::Project(exprs),
            other => unreachable!("not a vectorizable stage: {}", other.label()),
        };
        VecStage { id: node.id(), label: node.label(), kind, meter: StageMeter::default() }
    }

    /// The stage's programs, typed against `input`, the schema of the rows
    /// it reads, and the kernel invocations one chunk of them costs (feeds
    /// the `exec.batch.kernels` counter exactly, per executed chunk).
    fn compile(&self, input: &Schema) -> Result<(u64, StageProgram<'p>)> {
        Ok(match self.kind {
            VecStageKind::Filter(pred) => {
                let prog = Program::compile_predicate(pred, input)?;
                // +1 for the selection-vector pass itself.
                (prog.kernels() + 1, StageProgram::Filter(prog))
            }
            VecStageKind::Project(exprs) => {
                let progs: Vec<Program<'p>> =
                    exprs.iter().map(|e| Program::compile(e, input)).collect::<Result<_>>()?;
                (progs.iter().map(Program::kernels).sum(), StageProgram::Project(progs))
            }
        })
    }
}

/// Per-stage meters shared across partition tasks (kernel wall time, rows
/// surviving the stage, kernel invocations).
#[derive(Default)]
struct StageMeter {
    ns: AtomicU64,
    rows_out: AtomicU64,
    kernels: AtomicU64,
}

impl StageMeter {
    fn add(&self, t: Instant, kernels: u64, rows: u64) {
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        self.kernels.fetch_add(kernels, AtomicOrdering::Relaxed);
        self.rows_out.fetch_add(rows, AtomicOrdering::Relaxed);
    }
}

/// Batch counters for one vectorized operator chain.
#[derive(Default)]
struct BatchMeter {
    batches: AtomicU64,
    rows: AtomicU64,
}

impl BatchMeter {
    fn chunk(&self, rows: usize) {
        self.batches.fetch_add(1, AtomicOrdering::Relaxed);
        self.rows.fetch_add(rows as u64, AtomicOrdering::Relaxed);
    }
}

/// Columns, selection vector, whether a projection replaced the input
/// columns, and how many of the chunk's lanes entered the chain (all of
/// them, or the join residual's survivors).
type VecChunkState = (Vec<Arc<Col>>, Option<Vec<u32>>, bool, usize);

/// One input of a join partition: its rows, and their columns, pivoted
/// once with the join child's schema by the first chunk that needs them
/// (so never by the interpreted oracle, which reads the rows).
struct Side<'a> {
    rows: &'a [Row],
    schema: &'a Schema,
    cols: OnceCell<ColumnBatch>,
}

impl<'a> Side<'a> {
    fn new(rows: &'a [Row], schema: &'a Schema) -> Self {
        Side { rows, schema, cols: OnceCell::new() }
    }

    fn cols(&self) -> KernelResult<&ColumnBatch> {
        if let Some(cols) = self.cols.get() {
            return Ok(cols);
        }
        let cols = ColumnBatch::pivot(self.rows, self.schema).ok_or_else(misfit)?;
        Ok(self.cols.get_or_init(|| cols))
    }
}

/// The pivot refused rows: a row of another arity than its plan's
/// schema, or a lane of another type than its column's. Scans read
/// validated rows and every operator writes the types it was planned
/// with, so this is a planner bug.
fn misfit() -> KernelError {
    KernelError::internal("rows that do not fit their plan's schema reached a pipeline")
}

/// A chunk entering the pipeline: materialized rows, or a join's matched
/// pairs as `(left, right)` row indices into their sides, which
/// stand for the rows' concatenation without having been concatenated.
#[derive(Clone, Copy)]
enum Chunk<'a> {
    Rows(&'a [Row]),
    Pairs([(&'a Side<'a>, &'a [u32]); 2]),
}

impl<'a> Chunk<'a> {
    fn len(&self) -> usize {
        match self {
            Chunk::Rows(rows) => rows.len(),
            Chunk::Pairs([(_, li), _]) => li.len(),
        }
    }

    /// The chunk's first `l` lanes.
    fn prefix(&self, l: usize) -> Chunk<'a> {
        match *self {
            Chunk::Rows(rows) => Chunk::Rows(&rows[..l]),
            Chunk::Pairs([(l_side, li), (r_side, ri)]) => {
                Chunk::Pairs([(l_side, &li[..l]), (r_side, &ri[..l])])
            }
        }
    }

    /// The chunk's columns; rows are pivoted with `input`, the schema of
    /// the pipeline's input, pairs gathered from their sides.
    fn pivot(&self, input: &Schema) -> KernelResult<ColumnBatch> {
        match self {
            Chunk::Rows(rows) => ColumnBatch::pivot(rows, input).ok_or_else(misfit),
            Chunk::Pairs([(l, li), (r, ri)]) => {
                Ok(ColumnBatch::join(l.cols()?, li, r.cols()?, ri))
            }
        }
    }

    /// Lane `i` as a row: a pair is concatenated.
    fn row(&self, i: usize) -> Row {
        match self {
            Chunk::Rows(rows) => rows[i].clone(),
            Chunk::Pairs([(l, li), (r, ri)]) => {
                l.rows[li[i] as usize].concat(&r.rows[ri[i] as usize])
            }
        }
    }

}

/// The `k`-th live lane of a chunk under an optional selection vector.
fn lane(sel: Option<&[u32]>, k: usize) -> usize {
    sel.map_or(k, |s| s[k] as usize)
}

/// The one place chunks are evaluated: a Filter/Project chain and, when
/// it feeds an aggregate, the group keys and arguments, with the meters
/// every chunk reports into. Shared by all workers of one operator. Two
/// pivots, one pipeline: a [`Chunk`] of rows (a materialized child's, the grace
/// join's output) or of matched pairs (a join's in-memory arm, gathered
/// from its sides) becomes a column batch and runs the same stage loop
/// and aggregate-update loop. Under [`Executor::interpreted`] the
/// pipeline compiles nothing, pivots nothing and interprets every chunk.
struct ChunkPipeline<'p> {
    /// The schema of the rows entering the pipeline: the chain base's, or
    /// the join's when a join produces the chunks.
    input: Schema,
    /// The join's residual: the first filter of every pair chunk.
    /// Row chunks have already passed it.
    residual: Option<&'p Expr>,
    stages: Vec<VecStage<'p>>,
    /// `None` under [`Executor::interpreted`].
    programs: Option<Programs<'p>>,
    /// Kernel invocations of the residual's program, counted like a
    /// Filter stage's and reported on the join's record.
    residual_kernels: AtomicU64,
    agg_meter: StageMeter,
    counters: BatchMeter,
    hist: Arc<lardb_obs::Histogram>,
    /// When set, every stage of every compiled chunk opens a `kernel` span.
    trace: Option<Arc<lardb_obs::ActiveTrace>>,
}

/// A pipeline's compiled programs, each typed against the schema of the
/// rows it reads: the pipeline's input, a chain stage's, or the chain
/// top's for the group keys and the aggregate arguments.
struct Programs<'p> {
    residual: Option<Program<'p>>,
    /// Per chain stage, the kernels one chunk costs and the programs.
    stages: Vec<(u64, StageProgram<'p>)>,
    /// Empty for a bare chain.
    keys: Vec<Program<'p>>,
    args: Vec<ArgProgram<'p>>,
    /// Kernel invocations the key and argument programs cost per chunk.
    agg_kernels: u64,
}

/// An aggregate argument's compiled programs: none for `COUNT(*)`, or the
/// argument's — for `MATRIX_FROM_ENTRIES`, the three operands of the
/// binder-made `sparse_entry(row, col, val)` carrier, so the group table
/// folds typed lanes and no `VECTOR[3]` is built per lane.
enum ArgProgram<'p> {
    Star,
    One(Program<'p>),
    Entry([Program<'p>; 3]),
}

impl<'p> ArgProgram<'p> {
    fn compile(agg: &'p AggExpr, schema: &Schema) -> Result<Self> {
        Ok(match (agg.func, &agg.arg) {
            (_, None) => ArgProgram::Star,
            (AggFunc::MatrixFromEntries, Some(Expr::Call { func: Builtin::SparseEntry, args }))
                if args.len() == 3 =>
            {
                let [r, c, v] = [0, 1, 2].map(|i| Program::compile(&args[i], schema));
                ArgProgram::Entry([r?, c?, v?])
            }
            (_, Some(e)) => ArgProgram::One(Program::compile(e, schema)?),
        })
    }

    fn kernels(&self) -> u64 {
        match self {
            ArgProgram::Star => 0,
            ArgProgram::One(p) => p.kernels(),
            ArgProgram::Entry(ps) => ps.iter().map(Program::kernels).sum(),
        }
    }

    fn eval(&self, cols: &[Arc<Col>], n: usize, sel: Option<&[u32]>) -> KernelResult<ArgCols> {
        Ok(match self {
            ArgProgram::Star => ArgCols::Star,
            ArgProgram::One(p) => ArgCols::One(p.eval(cols, n, sel)?),
            ArgProgram::Entry(ps) => {
                let [r, c, v] = ps.each_ref().map(|p| p.eval(cols, n, sel));
                ArgCols::Entry([r?, c?, v?])
            }
        })
    }
}

impl<'p> ChunkPipeline<'p> {
    /// The pipeline of `chain` (and of `group_by` and `aggs` when it feeds
    /// an aggregate) over rows of `input`, its programs compiled unless
    /// `compiled` is false (the interpreted oracle).
    fn new(
        compiled: bool,
        trace: Option<Arc<lardb_obs::ActiveTrace>>,
        input: Schema,
        residual: Option<&'p Expr>,
        chain: &[&'p PhysicalPlan],
        group_by: &'p [Expr],
        aggs: &'p [AggExpr],
    ) -> Result<Self> {
        let stages: Vec<VecStage<'p>> = chain.iter().map(|n| VecStage::new(n)).collect();
        let compile = || -> Result<Programs<'p>> {
            let mut schema = input.clone();
            let mut stage_progs = Vec::with_capacity(stages.len());
            for (stage, node) in stages.iter().zip(chain) {
                stage_progs.push(stage.compile(&schema)?);
                schema = node.schema();
            }
            let keys: Vec<Program<'p>> =
                group_by.iter().map(|e| Program::compile(e, &schema)).collect::<Result<_>>()?;
            let args: Vec<ArgProgram<'p>> =
                aggs.iter().map(|a| ArgProgram::compile(a, &schema)).collect::<Result<_>>()?;
            Ok(Programs {
                residual: residual.map(|e| Program::compile_predicate(e, &input)).transpose()?,
                stages: stage_progs,
                agg_kernels: keys.iter().map(Program::kernels).sum::<u64>()
                    + args.iter().map(ArgProgram::kernels).sum::<u64>(),
                keys,
                args,
            })
        };
        let programs = if compiled { Some(compile()?) } else { None };
        Ok(ChunkPipeline {
            input,
            residual,
            stages,
            programs,
            residual_kernels: AtomicU64::new(0),
            agg_meter: StageMeter::default(),
            counters: BatchMeter::default(),
            hist: lardb_obs::global().histogram("exec.batch.rows_per_batch"),
            trace,
        })
    }

    /// The residual a chunk must still pass: the join's, for pairs.
    fn residual_of(&self, chunk: Chunk<'_>) -> Option<&'p Expr> {
        self.residual.filter(|_| matches!(chunk, Chunk::Pairs(_)))
    }

    /// Pivots one chunk and runs the residual's program, then every chain
    /// stage's, over it. An empty selection short-circuits the remaining
    /// stages (the interpreter would not evaluate them on zero rows
    /// either).
    fn run_stages(&self, progs: &Programs<'p>, chunk: Chunk<'_>) -> KernelResult<VecChunkState> {
        let n = chunk.len();
        let batch = chunk.pivot(&self.input)?;
        let mut cols: Vec<Arc<Col>> = batch.cols().to_vec();
        let mut sel: Option<Vec<u32>> = None;
        let mut projected = false;
        if let (Some(prog), Chunk::Pairs(_)) = (&progs.residual, chunk) {
            let pred = prog.eval(&cols, n, None)?;
            sel = Some(kernels::selection(&pred, None, n)?);
            // +1 for the selection-vector pass, as for a Filter stage.
            self.residual_kernels.fetch_add(prog.kernels() + 1, AtomicOrdering::Relaxed);
        }
        let joined = sel.as_ref().map_or(n, Vec::len);
        for (stage, (cost, prog)) in self.stages.iter().zip(&progs.stages) {
            if sel.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
            let _span = self
                .trace
                .as_ref()
                .map(|t| t.span("kernel", "vec").arg("op", stage.label.clone()));
            let t = Instant::now();
            match prog {
                StageProgram::Filter(prog) => {
                    let pred = prog.eval(&cols, n, sel.as_deref())?;
                    sel = Some(kernels::selection(&pred, sel.as_deref(), n)?);
                }
                StageProgram::Project(progs) => {
                    let mut outs = Vec::with_capacity(progs.len());
                    for p in progs {
                        outs.push(p.eval(&cols, n, sel.as_deref())?);
                    }
                    cols = outs;
                    projected = true;
                }
            }
            stage.meter.add(t, *cost, sel.as_ref().map_or(n, Vec::len) as u64);
        }
        Ok((cols, sel, projected, joined))
    }

    /// One chunk through the residual and the chain, survivors appended
    /// to `out`; returns how many of its rows passed the residual. A chunk
    /// with nothing to evaluate (no residual, no stage) is appended as it
    /// is, pairs concatenated, and counts no batch. Surviving lanes of a
    /// chunk no Project ran reuse the input rows (`Arc` clones) or
    /// concatenate their pairs; only a projected chunk builds rows from
    /// its columns. A failing chunk raises the interpreter's error of its
    /// first failing row ([`first_failure`]).
    fn rows(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut Vec<Value>,
        out: &mut Vec<Row>,
    ) -> Result<usize> {
        let n = chunk.len();
        let residual = self.residual_of(chunk);
        if n == 0 || (residual.is_none() && self.stages.is_empty()) {
            out.extend((0..n).map(|i| chunk.row(i)));
            return Ok(n);
        }
        let Some(progs) = &self.programs else {
            return self.interpret(chunk, residual, scratch, &mut |row, _| {
                out.push(row);
                Ok(())
            });
        };
        self.hist.observe(n as u64);
        let (evaluated, failed) = first_failure(chunk, |c| self.run_stages(progs, c))?;
        if let Some(e) = failed {
            return Err(e);
        }
        self.counters.chunk(n);
        let (cols, sel, projected, joined) = evaluated;
        let sel = sel.as_deref();
        let live = (0..sel.map_or(n, <[u32]>::len)).map(|k| lane(sel, k));
        if projected {
            out.extend(live.map(|i| Row::new(cols.iter().map(|c| c.value_at(i)).collect())));
        } else {
            out.extend(live.map(|i| chunk.row(i)));
        }
        Ok(joined)
    }

    /// One chunk through the residual, the chain and the group-key /
    /// argument programs into `agg`, lanes ascending — so accumulation
    /// order is the interpreter's row order exactly. A failing chunk folds
    /// the lanes before its first failing row, then raises the fold's
    /// error, which comes from an earlier row, or else that row's
    /// ([`first_failure`]). Returns how many of the chunk's rows entered
    /// the chain: what the join under it produced.
    fn aggregate(
        &self,
        chunk: Chunk<'_>,
        agg: &mut GroupedAgg<'_>,
        scratch: &mut Vec<Value>,
    ) -> Result<usize> {
        let n = chunk.len();
        if n == 0 {
            return Ok(0);
        }
        let Some(progs) = &self.programs else {
            let residual = self.residual_of(chunk);
            let mut fold = |row: Row, scratch: &mut Vec<Value>| agg.update_row(&row, scratch);
            return self.interpret(chunk, residual, scratch, &mut fold);
        };
        self.hist.observe(n as u64);
        // Every program runs before the group table is touched, in
        // `update_row`'s order: residual, chain, keys, arguments.
        let (evaluated, failed) = first_failure(chunk, |c| {
            let (cols, sel, _, joined) = self.run_stages(progs, c)?;
            let (m, s) = (c.len(), sel.as_deref());
            if s.is_some_and(<[u32]>::is_empty) {
                return Ok((joined, None)); // filtered to nothing
            }
            let keys = progs.keys.iter().map(|p| p.eval(&cols, m, s));
            let keys = keys.collect::<KernelResult<Vec<_>>>()?;
            let args = progs.args.iter().map(|p| p.eval(&cols, m, s));
            let args = args.collect::<KernelResult<Vec<_>>>()?;
            Ok((joined, Some((keys, args, sel, m))))
        })?;
        let (joined, inputs) = evaluated;
        if let Some((key_cols, arg_cols, sel, m)) = inputs {
            let t = Instant::now();
            agg.update_columns(&key_cols, &arg_cols, sel.as_deref(), m)?;
            self.agg_meter.add(t, progs.agg_kernels, m as u64);
        }
        if let Some(e) = failed {
            return Err(e);
        }
        self.counters.chunk(n);
        Ok(joined)
    }

    /// One chunk through the pipeline into `sink`: [`Self::rows`] or
    /// [`Self::aggregate`]. Returns how many of its rows entered the chain.
    fn feed(&self, chunk: Chunk<'_>, sink: &mut Sink<'_>, scratch: &mut Vec<Value>) -> Result<usize> {
        match sink {
            Sink::Rows(out) => self.rows(chunk, scratch, out),
            Sink::Agg(table) => self.aggregate(chunk, table, scratch),
        }
    }

    /// Runs one chunk through the interpreted residual and chain, row at
    /// a time, handing each survivor to `sink` (which appends it, or folds
    /// it into a group table) before the next row starts; returns how many
    /// rows passed the residual. Every chunk's path under
    /// [`Executor::interpreted`], the oracle the compiled pipeline is
    /// compared against: its error is the first failing row's, whichever
    /// stage or fold fails on it.
    fn interpret(
        &self,
        chunk: Chunk<'_>,
        residual: Option<&Expr>,
        scratch: &mut Vec<Value>,
        sink: &mut dyn FnMut(Row, &mut Vec<Value>) -> Result<()>,
    ) -> Result<usize> {
        let mut joined = 0;
        'row: for i in 0..chunk.len() {
            // A pair is concatenated: the row the interpreter reads.
            let mut row = chunk.row(i);
            if let Some(pred) = residual {
                if !eval_predicate_with(pred, &row, scratch)? {
                    continue;
                }
            }
            joined += 1;
            for stage in &self.stages {
                match stage.kind {
                    VecStageKind::Filter(pred) => {
                        if !eval_predicate_with(pred, &row, scratch)? {
                            continue 'row;
                        }
                    }
                    VecStageKind::Project(exprs) => {
                        let mut vals = Vec::with_capacity(exprs.len());
                        for e in exprs {
                            vals.push(eval_with(e, &row, scratch)?);
                        }
                        row = Row::new(vals);
                    }
                }
                stage.meter.rows_out.fetch_add(1, AtomicOrdering::Relaxed);
            }
            sink(row, scratch)?;
        }
        Ok(joined)
    }

    /// The pipeline's batch counters, with `kernels` kernel invocations.
    fn batch_stats(&self, kernels: usize) -> BatchStats {
        let relaxed = AtomicOrdering::Relaxed;
        BatchStats {
            batches: self.counters.batches.load(relaxed) as usize,
            rows: self.counters.rows.load(relaxed) as usize,
            kernels,
        }
    }

    /// Records the pipeline's per-operator stats. Its measured wall time
    /// is split across stages proportionally to their metered kernel time
    /// (the last operator absorbs the remainder — pivot, materialize),
    /// batch counters land on the top operator, and
    /// labels of compiled stages get a ` [vec]` / ` [vec fused]` *suffix*
    /// so label-prefix bucketing (the Figure 4 breakdown) still matches.
    fn record(
        &self,
        agg: Option<(&PhysicalPlan, SpillStats)>,
        total: Duration,
        out: &Parts,
        stats: &mut ExecStats,
    ) {
        let relaxed = AtomicOrdering::Relaxed;
        let mut ops: Vec<(usize, String, &StageMeter)> =
            self.stages.iter().map(|s| (s.id, s.label.clone(), &s.meter)).collect();
        let mut top_spill = SpillStats::default();
        if let Some((plan, spill)) = agg {
            ops.push((plan.id(), plan.label(), &self.agg_meter));
            top_spill = spill;
        }
        let n_ops = ops.len();
        let suffix = match (&self.programs, n_ops) {
            (None, _) => "",
            (Some(_), 1) => " [vec]",
            (Some(_), _) => " [vec fused]",
        };
        let sum = ops.iter().map(|(.., m)| m.ns.load(relaxed)).sum::<u64>().max(1);
        let mut spent = Duration::ZERO;
        for (i, (id, label, m)) in ops.into_iter().enumerate() {
            let kernels = m.kernels.load(relaxed) as usize;
            let (wall, rows_out, batch, spill) = if i + 1 == n_ops {
                (
                    total.saturating_sub(spent),
                    out.iter().map(Vec::len).sum(),
                    self.batch_stats(kernels),
                    top_spill,
                )
            } else {
                let share = total.as_nanos() * m.ns.load(relaxed) as u128 / sum as u128;
                (
                    Duration::from_nanos(share as u64),
                    m.rows_out.load(relaxed) as usize,
                    BatchStats { kernels, ..BatchStats::default() },
                    SpillStats::default(),
                )
            };
            spent += wall;
            stats.record(OperatorStats {
                id,
                label: format!("{label}{suffix}"),
                wall,
                rows_out,
                shuffle: ShuffleStats::default(),
                spill,
                batch,
            });
        }
    }
}

/// Runs `run` over `chunk` and, whenever it fails at lane `L`, over the
/// chunk's first `L` lanes again, until a run is clean; returns the clean
/// run's output and the error of the lane the last cut named. Every lane
/// before that one passes every program, so it is the chunk's first
/// failing row, and its error comes from the first instruction, in
/// program (post-)order, that fails on it: the interpreter's error for
/// the row. An internal error is raised at once. A chunk that fails
/// costs its reruns; one that does not runs once.
fn first_failure<'c, T>(
    mut chunk: Chunk<'c>,
    mut run: impl FnMut(Chunk<'c>) -> KernelResult<T>,
) -> Result<(T, Option<ExecError>)> {
    let mut failed = None;
    loop {
        match run(chunk) {
            Ok(out) => return Ok((out, failed)),
            Err(KernelError { lane: Some(l), error }) => {
                chunk = chunk.prefix(l);
                failed = Some(error);
            }
            Err(KernelError { lane: None, error }) => return Err(error),
        }
    }
}

/// Adds the elapsed time since `t` to `acc` (nanoseconds; u64 covers
/// 500+ years, no overflow concern).
fn add_elapsed(acc: &mut u64, t: Instant) {
    *acc += t.elapsed().as_nanos() as u64;
}

/// A partition's build side keyed for probing: its rows with a non-NULL
/// key, each one's [`Row::byte_size`] (for the join producer's byte-cut
/// chunks), and each key's row indices (`u32`, as lanes are) in order.
struct JoinTable {
    rows: Vec<Row>,
    bytes: Vec<usize>,
    index: HashMap<CompositeKey, Vec<u32>>,
}

/// Which input a hash join builds its table on. Keyed joins build on the
/// left. A join on the empty key — the cross product — builds on the right
/// and probes with the left: every build row lands in the one bucket in
/// partition order, so the left side emits its `(l, r)` pairs left-major,
/// a nested loop's order.
#[derive(Clone, Copy)]
enum BuildOn {
    Left,
    Right,
}

impl BuildOn {
    fn of(left_keys: &[Expr]) -> Self {
        if left_keys.is_empty() {
            BuildOn::Right
        } else {
            BuildOn::Left
        }
    }

    /// `(build, probe)` of a `(left, right)` pair and — the swap being its
    /// own inverse — `(left, right)` of a `(build, probe)` pair.
    fn split<T>(self, left: T, right: T) -> (T, T) {
        match self {
            BuildOn::Left => (left, right),
            BuildOn::Right => (right, left),
        }
    }
}

/// Hash-join build phase: one partition's build side keyed for probing.
fn build_join_table(build: Vec<Row>, keys: &[Expr]) -> Result<JoinTable> {
    // The empty key is one bucket, however many rows it holds.
    let mut index = HashMap::with_capacity(if keys.is_empty() { 1 } else { build.len() });
    let (mut rows, mut bytes) = (Vec::with_capacity(build.len()), Vec::new());
    let mut scratch = Vec::new();
    for r in build {
        if let Some(key) = join_key(&r, keys, &mut scratch)? {
            index.entry(key).or_insert_with(Vec::new).push(rows.len() as u32);
            bytes.push(r.byte_size());
            rows.push(r);
        }
    }
    Ok(JoinTable { rows, bytes, index })
}

/// The indices of the build rows one probe-side row matches, in build
/// order: its key evaluated and looked up. The one probe-key loop —
/// [`probe_in_chunks`] buffers the matches as index pairs, the grace join
/// concatenates them with [`joined_row`].
fn probe_matches<'t>(
    table: &'t JoinTable,
    probe: &Row,
    probe_keys: &[Expr],
    scratch: &mut Vec<Value>,
) -> Result<&'t [u32]> {
    let key = join_key(probe, probe_keys, scratch)?;
    Ok(key.and_then(|k| table.index.get(&k)).map_or(&[], Vec::as_slice))
}

/// A join's in-memory arm over one partition, and the only in-memory
/// probe: each probe row's matches buffered as `(build, probe)` row
/// indices over the two sides, in probe order, and fed as a chunk of
/// pairs whenever `full(pairs, bytes)` holds, and once at the end. Each side is pivoted with its
/// join child's schema, `left` or `right`. The probe loop polls the token
/// every [`CANCEL_CHECK_PAIRS`] probe rows: rows that match nothing cut
/// no chunk.
#[allow(clippy::too_many_arguments)]
fn probe_in_chunks(
    table: &JoinTable,
    probe: &[Row],
    probe_keys: &[Expr],
    on: BuildOn,
    [left, right]: &[Schema; 2],
    full: impl Fn(usize, usize) -> bool,
    cancel: &CancelToken,
    mut feed: impl FnMut(Chunk<'_>) -> Result<()>,
) -> Result<()> {
    let (build_schema, probe_schema) = on.split(left, right);
    let (build_side, probe_side) =
        (Side::new(&table.rows, build_schema), Side::new(probe, probe_schema));
    let (left, right) = on.split(&build_side, &probe_side);
    let (mut bi, mut pi): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let (mut bytes, mut scratch) = (0usize, Vec::new());
    for (i, pr) in probe.iter().enumerate() {
        if (i + 1).is_multiple_of(CANCEL_CHECK_PAIRS) && cancel.is_cancelled() {
            return Err(join_cancelled());
        }
        let matches = probe_matches(table, pr, probe_keys, &mut scratch)?;
        let p_bytes = if matches.is_empty() { 0 } else { pr.byte_size() };
        for &b in matches {
            bi.push(b);
            pi.push(i as u32);
            bytes += table.bytes[b as usize] + p_bytes;
            if full(bi.len(), bytes) {
                let (li, ri) = on.split(&bi, &pi);
                feed(Chunk::Pairs([(left, li), (right, ri)]))?;
                bi.clear();
                pi.clear();
                bytes = 0;
            }
        }
    }
    let (li, ri) = on.split(&bi, &pi);
    feed(Chunk::Pairs([(left, li), (right, ri)]))
}

/// The error a join partition stops with once the query is cancelled.
fn join_cancelled() -> ExecError {
    ExecError::Cancelled("hash join cancelled".into())
}

/// The joined row `l ++ r` for the grace join, which must *produce* rows,
/// if it passes the residual.
fn joined_row(
    l: &Row,
    r: &Row,
    residual: Option<&Expr>,
    scratch: &mut Vec<Value>,
) -> Result<Option<Row>> {
    let joined = l.concat(r);
    match residual {
        Some(res) if !eval_predicate_with(res, &joined, scratch)? => Ok(None),
        _ => Ok(Some(joined)),
    }
}

/// A prepared hash-join build partition: resident (holding its memory
/// reservation for the probe's duration) or spilled to hashed bucket files.
enum BuildSide {
    InMem {
        table: JoinTable,
        _res: MemoryReservation,
    },
    Spilled { buckets: Vec<SpillFile> },
}

/// The one build preparation: `rows` become a resident table under a
/// reservation of their footprint or, when the governor denies it, fan out
/// into hashed spill buckets under `level`'s salt. Hashing cannot split an
/// empty-key build, nor a bucket at [`MAX_SPILL_DEPTH`] (a duplicate-heavy
/// key set), so a denied one of those overcommits and stays resident
/// rather than loop.
fn prepare_build(
    rows: Vec<Row>,
    keys: &[Expr],
    mem: &MemoryConfig,
    level: usize,
    spill: &mut SpillStats,
) -> Result<BuildSide> {
    let gov = mem.governor();
    let footprint = rows_footprint(&rows);
    let res = match gov.try_reserve(footprint) {
        Some(res) => res,
        None if keys.is_empty() || level >= MAX_SPILL_DEPTH => gov.force_reserve(footprint),
        None => {
            // NULL-key rows are dropped here: they can never join.
            let mut scratch = Vec::new();
            let buckets = spill_buckets(rows, mem, &format!("join-l{level}"), spill, |r| {
                Ok(join_key(r, keys, &mut scratch)?.map(|k| bucket_of(&k, level, SPILL_FANOUT)))
            })?;
            return Ok(BuildSide::Spilled { buckets });
        }
    };
    Ok(BuildSide::InMem { table: build_join_table(rows, keys)?, _res: res })
}

/// Bytes a materialized row set is charged against the governor: payload
/// bytes plus per-row container overhead (Arc + Vec headers).
fn rows_footprint(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.byte_size() as u64 + 48).sum()
}

/// The composite join key of `row`, or `None` when any key column is NULL
/// (NULL never joins).
fn join_key(
    row: &Row,
    keys: &[Expr],
    scratch: &mut Vec<Value>,
) -> Result<Option<CompositeKey>> {
    let mut vals = Vec::with_capacity(keys.len());
    for k in keys {
        let v = eval_with(k, row, scratch)?;
        if v.is_null() {
            return Ok(None);
        }
        vals.push(v);
    }
    Ok(Some(CompositeKey::from_values(vals)))
}

/// Spill bucket for a key at a recursion level. The level salts the hash so
/// every recursion re-partitions differently (and differently from the
/// worker routing in `hash_route`, which uses the unsalted key hash — the
/// very hash that put all these rows in one partition).
fn bucket_of(key: &CompositeKey, level: usize, fanout: usize) -> usize {
    let mut h = DefaultHasher::new();
    (0xB0F1_5EEDu64 ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).hash(&mut h);
    key.hash(&mut h);
    (h.finish() % fanout as u64) as usize
}

/// Fans `rows` out into [`SPILL_FANOUT`] bucket files named
/// `{tag}-b{bucket}`: each row goes to the bucket `bucket` picks for it
/// (`None` drops it), buffered per bucket up to [`ROWS_PER_FRAME`] rows,
/// so relative row order is preserved within each bucket (what keeps
/// grace output bit-identical to the in-memory join). The buckets, files
/// and bytes written are tallied into `spill`.
fn spill_buckets(
    rows: impl IntoIterator<Item = Row>,
    mem: &MemoryConfig,
    tag: &str,
    spill: &mut SpillStats,
    mut bucket: impl FnMut(&Row) -> Result<Option<usize>>,
) -> Result<Vec<SpillFile>> {
    let mut writers = Vec::with_capacity(SPILL_FANOUT);
    for b in 0..SPILL_FANOUT {
        writers.push(SpillWriter::create(mem.spill_dir(), &format!("{tag}-b{b}"))?);
    }
    spill.partitions += SPILL_FANOUT;
    let mut bufs: Vec<Vec<Row>> = vec![Vec::new(); SPILL_FANOUT];
    for r in rows {
        let Some(b) = bucket(&r)? else { continue };
        bufs[b].push(r);
        if bufs[b].len() >= ROWS_PER_FRAME {
            writers[b].write_rows(&bufs[b])?;
            bufs[b].clear();
        }
    }
    let mut files = Vec::with_capacity(SPILL_FANOUT);
    for (mut w, buf) in writers.into_iter().zip(bufs) {
        if !buf.is_empty() {
            w.write_rows(&buf)?;
        }
        let f = w.finish()?;
        spill.files += 1;
        spill.bytes_written += f.bytes() as usize;
        files.push(f);
    }
    Ok(files)
}

/// Joins one spilled partition: probe rows are tagged with their original
/// position, routed to the build's buckets, joined bucket-by-bucket
/// (recursing while a bucket still exceeds the budget), and the output
/// restored to exact probe order. Only keyed joins spill, and they build
/// on the left.
fn grace_join_partition(
    buckets: Vec<SpillFile>,
    probe: Vec<Row>,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: Option<&Expr>,
    mem: &MemoryConfig,
) -> Result<(Vec<Row>, SpillStats)> {
    let mut spill = SpillStats::default();
    let fanout = buckets.len();
    let mut probe_buckets: Vec<Vec<(usize, Row)>> = vec![Vec::new(); fanout];
    let mut scratch = Vec::new();
    for (i, r) in probe.into_iter().enumerate() {
        if let Some(key) = join_key(&r, right_keys, &mut scratch)? {
            probe_buckets[bucket_of(&key, 0, fanout)].push((i, r));
        }
    }
    let mut tagged: Vec<(usize, Row)> = Vec::new();
    for (file, probes) in buckets.into_iter().zip(probe_buckets) {
        grace_bucket(
            file, probes, left_keys, right_keys, residual, mem, 1, &mut tagged, &mut spill,
        )?;
    }
    // Stable sort: a probe row's multiple matches keep their build order.
    tagged.sort_by_key(|&(i, _)| i);
    Ok((tagged.into_iter().map(|(_, r)| r).collect(), spill))
}

/// Joins one grace bucket, re-partitioning recursively while the bucket's
/// build rows exceed the budget. `level` is the salt the *next* spill
/// level would use.
#[allow(clippy::too_many_arguments)]
fn grace_bucket(
    file: SpillFile,
    probes: Vec<(usize, Row)>,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: Option<&Expr>,
    mem: &MemoryConfig,
    level: usize,
    out: &mut Vec<(usize, Row)>,
    spill: &mut SpillStats,
) -> Result<()> {
    if file.rows() == 0 || probes.is_empty() {
        return Ok(()); // no matches possible; the file is deleted on drop
    }
    let rows = file.read_rows()?;
    spill.bytes_read += file.bytes() as usize;
    drop(file); // delete before building: halves peak disk usage
    let mut scratch = Vec::new();
    match prepare_build(rows, left_keys, mem, level, spill)? {
        BuildSide::InMem { table, _res } => {
            for (i, r) in &probes {
                for &b in probe_matches(&table, r, right_keys, &mut scratch)? {
                    let l = &table.rows[b as usize];
                    out.extend(joined_row(l, r, residual, &mut scratch)?.map(|j| (*i, j)));
                }
            }
        }
        // Still too big: re-partitioned under this level's salt.
        BuildSide::Spilled { buckets } => {
            let fanout = buckets.len();
            let mut sub_probes: Vec<Vec<(usize, Row)>> = vec![Vec::new(); fanout];
            for (i, r) in probes {
                if let Some(key) = join_key(&r, right_keys, &mut scratch)? {
                    sub_probes[bucket_of(&key, level, fanout)].push((i, r));
                }
            }
            for (f, ps) in buckets.into_iter().zip(sub_probes) {
                grace_bucket(
                    f, ps, left_keys, right_keys, residual, mem, level + 1, out, spill,
                )?;
            }
        }
    }
    Ok(())
}

/// Finishes one partition's group table under a memory budget. While the
/// governor grants the table's state bytes this IS [`GroupedAgg::finish`].
/// On denial the table is flushed once to hashed bucket files as
/// `[group cols][state cols]` rows and the buckets are drained one at a
/// time; a first-seen order map (keys only — small next to the states
/// being spilled) restores the output order, so the result is
/// bit-identical, float accumulation included.
fn finish_spilling(
    agg: GroupedAgg<'_>,
    group_by: &[Expr],
    aggs: &[AggExpr],
    mode: AggMode,
    mem: &MemoryConfig,
) -> Result<(Vec<Row>, SpillStats)> {
    let mut spill = SpillStats::default();
    let gov = mem.governor();
    if let Some(_res) = gov.try_reserve(agg.state_bytes() as u64) {
        return Ok((agg.finish(), spill));
    }

    // Out of core.
    let mut order = KeyTable::new();
    let files = spill_buckets(agg.into_state_rows(), mem, "agg", &mut spill, |row| {
        let kv = &row.values()[..group_by.len()];
        let hash = hash_values(kv);
        order.group_of(hash, kv)?;
        Ok(Some(spill_bucket(hash, SPILL_FANOUT)))
    })?;

    // Drain: finish each bucket independently (a group never straddles
    // buckets), then restore first-seen output order.
    let mut tagged: Vec<(usize, Row)> = Vec::new();
    for f in files {
        if f.rows() == 0 {
            continue;
        }
        let rows = f.read_rows()?;
        spill.bytes_read += f.bytes() as usize;
        drop(f);
        let footprint = rows_footprint(&rows);
        let _res = gov
            .try_reserve(footprint)
            .unwrap_or_else(|| gov.force_reserve(footprint));
        // Replay the bucket's state rows into a fresh table and tag each
        // output row with its global first-seen index.
        let mut bucket = GroupedAgg::new(group_by, aggs, mode);
        for row in &rows {
            bucket.merge_state_row(row)?;
        }
        for row in bucket.finish() {
            let kv = &row.values()[..group_by.len()];
            let ord = order.get(hash_values(kv), kv).ok_or_else(|| {
                ExecError::Runtime("spilled group missing from first-seen order map".to_string())
            })?;
            tagged.push((ord, row));
        }
    }
    tagged.sort_by_key(|&(i, _)| i);
    Ok((tagged.into_iter().map(|(_, r)| r).collect(), spill))
}

/// Global aggregates produce exactly one row even over empty input
/// (`SUM` → NULL, `COUNT` → 0, …) — but only on partition 0 of a gathered
/// stream.
fn ensure_global_row(out: &mut Parts, group_by: &[Expr], aggs: &[AggExpr], mode: AggMode) {
    if group_by.is_empty()
        && matches!(mode, AggMode::Final | AggMode::Complete)
        && out.iter().all(Vec::is_empty)
    {
        out[0] =
            vec![Row::new(aggs.iter().map(|a| Accumulator::new(a.func).finish()).collect())];
    }
}

/// Sorts rows by the key expressions. NULLs sort last in either
/// direction; NaN is greater than every number and equal to NaN (as in
/// PostgreSQL), so it sorts last ascending and first descending, and the
/// comparison stays a total order.
fn sort_rows(rows: &mut [Row], keys: &[(Expr, bool)]) -> Result<()> {
    // Decorate with key values to avoid re-evaluating during comparisons.
    let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    let mut scratch = Vec::new();
    for r in rows.iter() {
        let mut kv = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            kv.push(eval_with(e, r, &mut scratch)?);
        }
        decorated.push((kv, r.clone()));
    }
    decorated.sort_by(|(a, _), (b, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            // NULLs sort last regardless of direction.
            let ord = match (a[i].is_null(), b[i].is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    let nan = |v: &Value| v.as_double().is_some_and(f64::is_nan);
                    let ord = lardb_storage::ops::compare(&a[i], &b[i])
                        .unwrap_or_else(|| nan(&a[i]).cmp(&nan(&b[i])));
                    if *asc {
                        ord
                    } else {
                        ord.reverse()
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    for (slot, (_, r)) in rows.iter_mut().zip(decorated) {
        *slot = r;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_planner::physical::PhysicalPlanner;
    use lardb_planner::{AggFunc, CmpOp, JoinKind, LogicalPlan, PlanError};
    use lardb_storage::table::hash_partition;
    use lardb_storage::{Column, DataType, Partitioning, Table};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Double)]);
        let mut t = Table::new("nums", schema, 4, Partitioning::RoundRobin);
        for i in 0..20i64 {
            t.insert(Row::new(vec![Value::Integer(i), Value::Double(i as f64)])).unwrap();
        }
        catalog.create_table(t).unwrap();
        // NULL-bearing keys and a VARCHAR (boxed) payload column.
        let schema = Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("k", DataType::Integer),
            ("v", DataType::Double),
            ("s", DataType::Varchar),
        ]);
        let mut t = Table::new("pts", schema, 4, Partitioning::RoundRobin);
        for i in 0..24i64 {
            t.insert(Row::new(vec![
                Value::Integer(i),
                if i % 5 == 0 { Value::Null } else { Value::Integer(i % 4) },
                Value::Double(i as f64 * 0.5),
                Value::Varchar(format!("s{}", i % 3).into()),
            ]))
            .unwrap();
        }
        catalog.create_table(t).unwrap();
        catalog
    }

    fn scan_plan(catalog: &Catalog, name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: catalog.table_schema(name).unwrap().with_qualifier(name),
        }
    }

    fn run(catalog: &Catalog, logical: &LogicalPlan) -> ExecutionResult {
        let stats: std::collections::HashMap<String, usize> = Default::default();
        let mut pp = PhysicalPlanner::new(catalog, &stats);
        let plan = pp.plan_gathered(logical).unwrap();
        let exec = Executor::new(catalog, Cluster::new(4));
        exec.execute(&plan).unwrap()
    }

    #[test]
    fn scan_and_filter() {
        let c = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan(&c, "nums")),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
        };
        let out = run(&c, &plan);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn project_expressions() {
        let c = setup();
        let plan = LogicalPlan::project(
            scan_plan(&c, "nums"),
            vec![(
                Expr::arith(lardb_storage::ops::ArithOp::Mul, Expr::col(1), Expr::lit(2.0)),
                "d".into(),
            )],
        )
        .unwrap();
        let out = run(&c, &plan);
        assert_eq!(out.num_rows(), 20);
        let sum: f64 = out.rows().iter().map(|r| r.value(0).as_double().unwrap()).sum();
        assert_eq!(sum, 2.0 * (0..20).sum::<i64>() as f64);
    }

    #[test]
    fn self_equi_join_counts() {
        let c = setup();
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        };
        let out = run(&c, &join);
        assert_eq!(out.num_rows(), 20); // each id matches exactly itself
        // shuffles happened and were metered
        assert!(out.stats.total_bytes_shuffled() > 0);
    }

    #[test]
    fn cross_join_counts() {
        let c = setup();
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Cross,
            equi: vec![],
            residual: None,
        };
        let out = run(&c, &join);
        assert_eq!(out.num_rows(), 400);
    }

    #[test]
    fn global_sum_and_count() {
        let c = setup();
        let agg = LogicalPlan::aggregate(
            scan_plan(&c, "nums"),
            vec![],
            vec![
                AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
                AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
            ],
        )
        .unwrap();
        let out = run(&c, &agg);
        assert_eq!(out.num_rows(), 1);
        let row = &out.rows()[0];
        assert_eq!(row.value(0).as_double().unwrap(), 190.0);
        assert_eq!(row.value(1).as_integer().unwrap(), 20);
    }

    #[test]
    fn grouped_aggregate() {
        let c = setup();
        // GROUP BY id % 2 — expressed as id - (id/2)*2
        use lardb_storage::ops::ArithOp;
        let parity = Expr::arith(
            ArithOp::Sub,
            Expr::col(0),
            Expr::arith(
                ArithOp::Mul,
                Expr::arith(ArithOp::Div, Expr::col(0), Expr::lit(2i64)),
                Expr::lit(2i64),
            ),
        );
        let agg = LogicalPlan::aggregate(
            scan_plan(&c, "nums"),
            vec![(parity, "p".into())],
            vec![AggExpr { func: AggFunc::Count, arg: None, name: "n".into() }],
        )
        .unwrap();
        let out = run(&c, &agg);
        assert_eq!(out.num_rows(), 2);
        for r in out.rows() {
            assert_eq!(r.value(1).as_integer().unwrap(), 10);
        }
    }

    #[test]
    fn empty_global_aggregate_yields_one_row() {
        let c = setup();
        let filtered = LogicalPlan::Filter {
            input: Box::new(scan_plan(&c, "nums")),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(-1i64)),
        };
        let agg = LogicalPlan::aggregate(
            filtered,
            vec![],
            vec![
                AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
                AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
            ],
        )
        .unwrap();
        let out = run(&c, &agg);
        assert_eq!(out.num_rows(), 1);
        let row = &out.rows()[0];
        assert!(row.value(0).is_null());
        assert_eq!(row.value(1).as_integer().unwrap(), 0);
    }

    #[test]
    fn sort_and_limit() {
        let c = setup();
        let sorted = LogicalPlan::Sort {
            input: Box::new(scan_plan(&c, "nums")),
            keys: vec![(Expr::col(0), false)],
        };
        let limited = LogicalPlan::Limit { input: Box::new(sorted), n: 3 };
        let out = run(&c, &limited);
        let ids: Vec<i64> =
            out.rows().iter().map(|r| r.value(0).as_integer().unwrap()).collect();
        assert_eq!(ids, vec![19, 18, 17]);
    }

    #[test]
    fn stats_record_operators() {
        let c = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan(&c, "nums")),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(100i64)),
        };
        let out = run(&c, &plan);
        let labels: Vec<String> =
            out.stats.operators().iter().map(|o| o.label.clone()).collect();
        assert!(labels.iter().any(|l| l.starts_with("TableScan")));
        // Under the default compiled engine the filter runs vectorized and
        // its label carries the " [vec]" suffix; prefix-match so the test
        // covers both engines.
        assert!(labels.iter().any(|l| l.starts_with("Filter")));
    }

    #[test]
    fn fused_aggregate_matches_materialized() {
        // The pipelined join→aggregate path must agree with the
        // materialize-everything path, for hash joins and cross joins.
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let agg_over_join = |kind: JoinKind, equi: Vec<(Expr, Expr)>| {
            LogicalPlan::aggregate(
                LogicalPlan::Join {
                    left: Box::new(scan_plan(&c, "nums")),
                    right: Box::new(scan_plan(&c, "nums")),
                    kind,
                    equi,
                    residual: None,
                },
                vec![],
                vec![
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(Expr::arith(
                            lardb_storage::ops::ArithOp::Mul,
                            Expr::col(1),
                            Expr::col(3),
                        )),
                        name: "s".into(),
                    },
                    AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
                ],
            )
            .unwrap()
        };
        for (kind, equi) in [
            (JoinKind::Inner, vec![(Expr::col(0), Expr::col(0))]),
            (JoinKind::Cross, vec![]),
        ] {
            let logical = agg_over_join(kind, equi);
            let mut pp = PhysicalPlanner::new(&c, &stats_src);
            let plan = pp.plan_gathered(&logical).unwrap();
            let fused = Executor::new(&c, Cluster::new(4))
                .execute(&plan)
                .unwrap();
            let materialized = Executor::new(&c, Cluster::new(4))
                .with_fusion(false)
                .execute(&plan)
                .unwrap();
            assert_eq!(fused.rows()[0].value(0), materialized.rows()[0].value(0));
            assert_eq!(fused.rows()[0].value(1), materialized.rows()[0].value(1));
        }
    }

    /// A MemoryConfig with a dedicated governor, a tiny budget, and its own
    /// spill directory (so the test can assert cleanup).
    fn tiny_mem(tag: &str) -> (MemoryConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("lardb-exec-spill-{}-{tag}", std::process::id()));
        (MemoryConfig::with_budget(Some(64), Some(dir.clone())), dir)
    }

    fn spill_dir_empty(dir: &std::path::Path) -> bool {
        match std::fs::read_dir(dir) {
            Ok(mut it) => it.next().is_none(),
            Err(_) => true, // never created — nothing leaked either
        }
    }

    #[test]
    fn budgeted_join_matches_unbounded_bit_exactly() {
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        };
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&join).unwrap();
        let base = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        let (mem, dir) = tiny_mem("join");
        let out = Executor::new(&c, Cluster::new(4))
            .with_memory(mem)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.partitions, base.partitions, "grace join diverged");
        assert!(out.stats.total_spill_bytes() > 0, "64-byte budget must spill");
        assert!(out.stats.total_spill_files() > 0);
        assert!(
            out.stats.operators().iter().any(|o| o.label.starts_with("HashJoin")
                && o.spill.spilled()
                && o.spill.bytes_read > 0),
            "spill must be attributed to the join operator"
        );
        assert!(spill_dir_empty(&dir), "spill files must be cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_grouped_aggregate_matches_unbounded_bit_exactly() {
        use lardb_storage::ops::ArithOp;
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let parity = Expr::arith(
            ArithOp::Sub,
            Expr::col(0),
            Expr::arith(
                ArithOp::Mul,
                Expr::arith(ArithOp::Div, Expr::col(0), Expr::lit(2i64)),
                Expr::lit(2i64),
            ),
        );
        let agg = LogicalPlan::aggregate(
            scan_plan(&c, "nums"),
            vec![(parity, "p".into())],
            vec![
                AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
                AggExpr { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
                AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
            ],
        )
        .unwrap();
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&agg).unwrap();
        let base = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        let (mem, dir) = tiny_mem("agg");
        let out = Executor::new(&c, Cluster::new(4))
            .with_memory(mem)
            .execute(&plan)
            .unwrap();
        // Bit-identical including row (group first-seen) order.
        assert_eq!(out.partitions, base.partitions, "spilling aggregation diverged");
        assert!(out.stats.total_spill_bytes() > 0, "64-byte budget must spill");
        assert!(spill_dir_empty(&dir), "spill files must be cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_fused_aggregate_matches_unbounded() {
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let logical = LogicalPlan::aggregate(
            LogicalPlan::Join {
                left: Box::new(scan_plan(&c, "nums")),
                right: Box::new(scan_plan(&c, "nums")),
                kind: JoinKind::Inner,
                equi: vec![(Expr::col(0), Expr::col(0))],
                residual: None,
            },
            vec![],
            vec![
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::arith(
                        lardb_storage::ops::ArithOp::Mul,
                        Expr::col(1),
                        Expr::col(3),
                    )),
                    name: "s".into(),
                },
                AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
            ],
        )
        .unwrap();
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&logical).unwrap();
        let base = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        let (mem, dir) = tiny_mem("fused");
        let out = Executor::new(&c, Cluster::new(4))
            .with_memory(mem)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.partitions, base.partitions, "fused grace join diverged");
        assert!(out.stats.total_spill_bytes() > 0, "fused path must spill too");
        assert!(spill_dir_empty(&dir), "spill files must be cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fused_stats_split_join_and_aggregation() {
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let logical = LogicalPlan::aggregate(
            LogicalPlan::Join {
                left: Box::new(scan_plan(&c, "nums")),
                right: Box::new(scan_plan(&c, "nums")),
                kind: JoinKind::Inner,
                equi: vec![(Expr::col(0), Expr::col(0))],
                residual: None,
            },
            vec![],
            vec![AggExpr { func: AggFunc::Count, arg: None, name: "n".into() }],
        )
        .unwrap();
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&logical).unwrap();
        let out = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        let labels: Vec<String> =
            out.stats.operators().iter().map(|o| o.label.clone()).collect();
        assert!(labels.iter().any(|l| l == "HashJoin"), "{labels:?}");
        assert!(
            labels.iter().any(|l| l.starts_with("HashAggregate")),
            "{labels:?}"
        );
        // The fused join record reports the joined-row count.
        let join_stat = out
            .stats
            .operators()
            .iter()
            .find(|o| o.label == "HashJoin")
            .unwrap();
        assert_eq!(join_stat.rows_out, 20);
    }

    /// The same join→aggregate as above under a Filter: the join reports
    /// what it produced, the chain stage what survived it.
    #[test]
    fn fused_stats_report_join_rows_before_the_filter() {
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let logical = LogicalPlan::aggregate(
            LogicalPlan::Filter {
                input: Box::new(self_join(&c)),
                predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
            },
            vec![],
            vec![AggExpr { func: AggFunc::Count, arg: None, name: "n".into() }],
        )
        .unwrap();
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&logical).unwrap();
        let out = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        assert_eq!(out.rows()[0].value(0), &Value::Integer(5));
        let op = |prefix: &str| {
            out.stats
                .operators()
                .iter()
                .find(|o| o.label.starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix} record"))
        };
        assert_eq!(op("HashJoin").rows_out, 20, "rows the join produced");
        assert_eq!(op("Filter").label, "Filter [vec fused]");
        assert_eq!(op("Filter").rows_out, 5, "rows the filter kept");
        assert!(op("HashAggregate").label.ends_with(" [vec fused]"));
    }

    fn self_join(c: &Catalog) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(scan_plan(c, "nums")),
            right: Box::new(scan_plan(c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        }
    }

    /// `table ⋈ table` with an optional equi key `col k = col k` and a
    /// residual over the concatenated row.
    fn join_of(c: &Catalog, table: &str, key: Option<usize>, residual: Option<Expr>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(scan_plan(c, table)),
            right: Box::new(scan_plan(c, table)),
            kind: if key.is_some() { JoinKind::Inner } else { JoinKind::Cross },
            equi: key.map(|k| (Expr::col(k), Expr::col(k))).into_iter().collect(),
            residual,
        }
    }

    /// `col - (col / k) * k`: an INTEGER column modulo `k`.
    fn modulo(col: usize, k: i64) -> Expr {
        use lardb_storage::ops::ArithOp;
        let floor = Expr::arith(ArithOp::Div, Expr::col(col), Expr::lit(k));
        Expr::arith(ArithOp::Sub, Expr::col(col), Expr::arith(ArithOp::Mul, floor, Expr::lit(k)))
    }

    /// `SUM(col x * col y), COUNT(*) GROUP BY col g modulo 3`.
    fn bucketed_sum(input: LogicalPlan, g: usize, x: usize, y: usize) -> LogicalPlan {
        use lardb_storage::ops::ArithOp;
        LogicalPlan::aggregate(
            input,
            vec![(modulo(g, 3), "b".into())],
            vec![
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::arith(ArithOp::Mul, Expr::col(x), Expr::col(y))),
                    name: "s".into(),
                },
                AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
            ],
        )
        .unwrap()
    }

    /// An executor on `w` workers: the product's, or the interpreted
    /// oracle.
    fn executor(c: &Catalog, w: usize, compiled: bool) -> Executor<'_> {
        let e = Executor::new(c, Cluster::new(w));
        if compiled {
            e
        } else {
            e.interpreted()
        }
    }

    fn physical(c: &Catalog, logical: &LogicalPlan) -> PhysicalPlan {
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        PhysicalPlanner::new(c, &stats_src).plan_gathered(logical).unwrap()
    }

    #[test]
    fn fused_matches_unfused_at_any_batch_rows() {
        use lardb_storage::ops::ArithOp;
        let c = setup();
        let ne = |a, b| Expr::cmp(CmpOp::NotEq, Expr::col(a), Expr::col(b));
        let filtered = |input, col| LogicalPlan::Filter {
            input: Box::new(input),
            predicate: Expr::cmp(CmpOp::GtEq, Expr::col(col), Expr::lit(2i64)),
        };
        let product = |a, b| Expr::arith(ArithOp::Mul, Expr::col(a), Expr::col(b));
        let project = |input, exprs: Vec<Expr>| {
            let named = exprs.into_iter().enumerate().map(|(i, e)| (e, format!("c{i}"))).collect();
            LogicalPlan::project(input, named).unwrap()
        };
        // (what, plan, output rows)
        let cases = [
            (
                "hash join, no residual",
                bucketed_sum(filtered(self_join(&c), 0), 0, 1, 3),
                3,
            ),
            (
                "hash join + residual, NULL keys",
                bucketed_sum(join_of(&c, "pts", Some(1), Some(ne(0, 4))), 0, 2, 6),
                3,
            ),
            (
                "cross product + residual",
                bucketed_sum(filtered(join_of(&c, "nums", None, Some(ne(0, 2))), 0), 0, 1, 3),
                3,
            ),
            (
                "residual NULL on some pairs",
                bucketed_sum(
                    join_of(&c, "pts", None, Some(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(5)))),
                    0,
                    2,
                    6,
                ),
                3,
            ),
            (
                // Every pair of a probe row below 15: whole chunks have an
                // empty selection and skip the Filter and the aggregate.
                "residual rejecting whole chunks",
                bucketed_sum(
                    filtered(
                        join_of(
                            &c,
                            "nums",
                            None,
                            Some(Expr::cmp(CmpOp::GtEq, Expr::col(2), Expr::lit(15i64))),
                        ),
                        0,
                    ),
                    0,
                    1,
                    3,
                ),
                3,
            ),
            (
                // `a.id = 0 OR 10 / a.id > b.k`: the division runs only on
                // the lanes the left operand leaves undecided, as the
                // interpreter's short-circuit, so a.id = 0 never divides
                // (boxed VARCHAR payloads and all).
                "short-circuit residual over boxed payloads",
                bucketed_sum(
                    join_of(
                        &c,
                        "pts",
                        None,
                        Some(Expr::Or(
                            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(0i64))),
                            Box::new(Expr::cmp(
                                CmpOp::Gt,
                                Expr::arith(ArithOp::Div, Expr::lit(10i64), Expr::col(0)),
                                Expr::col(5),
                            )),
                        )),
                    ),
                    0,
                    2,
                    6,
                ),
                3,
            ),
            (
                "project over a cross product + residual",
                project(
                    join_of(&c, "nums", None, Some(ne(0, 2))),
                    vec![Expr::col(0), product(1, 3)],
                ),
                380,
            ),
            (
                // 19 non-NULL keys: 4 × 4 + 3 × 5 × 5 pairs.
                "project over a keyed join, NULL keys",
                project(join_of(&c, "pts", Some(1), None), vec![Expr::col(4), product(2, 6)]),
                91,
            ),
        ];
        for (what, logical, groups) in &cases {
            let plan = physical(&c, logical);
            let unfused = Executor::new(&c, Cluster::new(4))
                .with_fusion(false)
                .execute(&plan)
                .unwrap();
            assert_eq!(unfused.num_rows(), *groups, "{what}");
            for batch_rows in [1, 7, 1024, 4096] {
                let fused = Executor::new(&c, Cluster::new(4))
                    .with_batch_rows(batch_rows)
                    .execute(&plan)
                    .unwrap();
                assert_eq!(fused.partitions, unfused.partitions, "{what} batch_rows={batch_rows}");
                assert!(fused.stats.total_batches() > 0, "{what}");
                let interpreted =
                    executor(&c, 4, false).with_batch_rows(batch_rows).execute(&plan).unwrap();
                assert_eq!(interpreted.partitions, unfused.partitions, "{what} interpreted");
            }
        }
    }

    /// With the residual inside the pipeline, the fused join still reports
    /// the pairs that passed it, the chain's first stage what *it* kept.
    #[test]
    fn fused_join_rows_out_counts_residual_survivors() {
        let c = setup();
        let ne = Expr::cmp(CmpOp::NotEq, Expr::col(0), Expr::col(2));
        // id % 4 as the hash key: 4 keys × 5 ids, so 80 pairs differ in id;
        // the cross join has 20 × 19 of them.
        let hash = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(modulo(0, 4), modulo(0, 4))],
            residual: Some(ne.clone()),
        };
        let cross = join_of(&c, "nums", None, Some(ne));
        for (join, label, joined, kept) in
            [(hash, "HashJoin", 80, 20), (cross, "HashJoin", 380, 95)]
        {
            let logical = LogicalPlan::aggregate(
                LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
                },
                vec![],
                vec![AggExpr { func: AggFunc::Count, arg: None, name: "n".into() }],
            )
            .unwrap();
            let plan = physical(&c, &logical);
            for w in [1, 4] {
                let rows_out = |fuse: bool| {
                    let out = Executor::new(&c, Cluster::new(w))
                        .with_fusion(fuse)
                        .with_batch_rows(7)
                        .execute(&plan)
                        .unwrap();
                    assert_eq!(out.rows()[0].value(0), &Value::Integer(kept));
                    let mut ops: Vec<(usize, usize)> =
                        out.stats.operators().iter().map(|o| (o.id, o.rows_out)).collect();
                    ops.sort();
                    let of = |prefix: &str| {
                        let op = out.stats.operators().iter().find(|o| o.label.starts_with(prefix));
                        op.unwrap_or_else(|| panic!("no {prefix} record")).rows_out
                    };
                    (ops, of(label), of("Filter"))
                };
                let fused = rows_out(true);
                assert_eq!(fused, rows_out(false), "{label} W={w}");
                assert_eq!((fused.1, fused.2), (joined, kept as usize), "{label} W={w}");
            }
        }
    }

    /// A plain join's residual runs compiled in the join's pipeline, with
    /// or without a Project above it: batches are counted, the rows are
    /// the interpreter's bit for bit, and the join reports
    /// the pairs that passed its residual and the residual's kernels. A
    /// join with nothing to evaluate pivots nothing.
    #[test]
    fn plain_join_residuals_run_compiled() {
        use lardb_storage::ops::ArithOp;
        let c = setup();
        // id % 4 as the hash key, a.id <> b.id as the residual: 80 pairs.
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(modulo(0, 4), modulo(0, 4))],
            residual: Some(Expr::cmp(CmpOp::NotEq, Expr::col(0), Expr::col(2))),
        };
        let product = Expr::arith(ArithOp::Mul, Expr::col(1), Expr::col(3));
        let exprs = vec![(Expr::col(2), "b".into()), (product, "p".into())];
        let projected = LogicalPlan::project(join.clone(), exprs).unwrap();
        for (what, logical) in [("bare join", join), ("Project over a join", projected)] {
            let plan = physical(&c, &logical);
            for w in [1, 4] {
                let run = |compiled| {
                    executor(&c, w, compiled).with_batch_rows(7).execute(&plan).unwrap()
                };
                let (compiled, interpreted) = (run(true), run(false));
                assert!(compiled.stats.total_batches() > 0, "{what} W={w}");
                assert_eq!(interpreted.stats.total_batches(), 0, "{what} W={w}");
                assert_eq!(compiled.partitions, interpreted.partitions, "{what} W={w}");
                assert_eq!(compiled.num_rows(), 80, "{what} W={w}");
                for out in [&compiled, &interpreted] {
                    let join = out.stats.operators().iter().find(|o| o.label == "HashJoin");
                    assert_eq!(join.expect("no HashJoin record").rows_out, 80, "{what} W={w}");
                }
                let join = compiled.stats.operators().iter().find(|o| o.label == "HashJoin");
                assert!(join.unwrap().batch.kernels > 0, "{what} W={w}: residual kernels");
                assert!(compiled.stats.total_kernels() > 0, "{what} W={w}");
            }
        }
        let plan = physical(&c, &self_join(&c));
        let bare = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        assert_eq!((bare.num_rows(), bare.stats.total_batches()), (20, 0));
    }

    /// The compiled `MATRIX_FROM_ENTRIES` fold reads its three operand
    /// lanes and builds no `sparse_entry` carrier per lane, and folds what
    /// the interpreter folds: NULL operands in each position skipped,
    /// INTEGER and DOUBLE coordinates, duplicates summed in row order, and
    /// the same error from the same first bad row (fractional, negative or
    /// NaN coordinate), at W ∈ {1, 4} × batch_rows {16, 1 024}.
    #[test]
    fn compiled_matrix_from_entries_matches_the_interpreter() {
        use lardb_net::codec::wire_eq;
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Integer),
            ("r", DataType::Integer),
            ("c", DataType::Integer),
            ("rd", DataType::Double),
            ("cd", DataType::Double),
            ("v", DataType::Double),
            ("frac", DataType::Double),
            ("neg", DataType::Integer),
            ("nan", DataType::Double),
        ]);
        let mut t = Table::new("entries", schema, 4, Partitioning::RoundRobin);
        let null_or = |skip: bool, v: Value| if skip { Value::Null } else { v };
        for i in 0..300i64 {
            // Coordinates repeat every 60 rows, so every group sums
            // duplicates, and fill 1 % of a 40 × 50 tile.
            let (r, col) = ((i % 60) * 7 % 40, (i % 60) * 3 % 50);
            // Two bad rows each in the frac and neg columns, one NaN.
            let frac = match i {
                40 => 7.5,
                173 => 2.5,
                _ => col as f64,
            };
            let neg = match i {
                99 => -1,
                211 => -4,
                _ => col,
            };
            let nan = if i == 257 { f64::NAN } else { col as f64 };
            t.insert(Row::new(vec![
                Value::Integer(i % 3),
                null_or(i % 11 == 0, Value::Integer(r)),
                null_or(i % 13 == 0, Value::Integer(col)),
                null_or(i % 17 == 0, Value::Double(r as f64)),
                null_or(i % 19 == 0, Value::Double(col as f64)),
                null_or(i % 23 == 0, Value::Double(0.1 * (i as f64) - 3.3)),
                Value::Double(frac),
                Value::Integer(neg),
                Value::Double(nan),
            ]))
            .unwrap();
        }
        c.create_table(t).unwrap();
        let entry = |r, c, v| Expr::call(Builtin::SparseEntry, vec![r, c, v]);
        let mfe = |arg| AggExpr {
            func: AggFunc::MatrixFromEntries,
            arg: Some(arg),
            name: "m".into(),
        };
        let aggregate = |group_by, arg| {
            LogicalPlan::aggregate(scan_plan(&c, "entries"), group_by, vec![mfe(arg)]).unwrap()
        };
        let by_g = |arg| aggregate(vec![(Expr::col(0), "g".into())], arg);
        let col = Expr::col;
        let ok = [
            ("INTEGER coordinates", by_g(entry(col(1), col(2), col(5)))),
            ("DOUBLE coordinates", by_g(entry(col(3), col(4), col(5)))),
            ("mixed coordinates", by_g(entry(col(1), col(4), col(5)))),
            ("global", aggregate(vec![], entry(col(3), col(2), col(5)))),
        ];
        // Which of two bad rows a query reports depends on W (the first
        // error in task order), never on the engine.
        let failing = [
            ("fractional", by_g(entry(col(6), col(2), col(5))), "5 is not a non-negative integer"),
            ("negative", by_g(entry(col(1), col(7), col(5))), "coordinate -"),
            ("NaN", by_g(entry(col(3), col(8), col(5))), "coordinate NaN is not"),
        ];
        for w in [1, 4] {
            for batch_rows in [16, 1024] {
                let exec = |plan: &PhysicalPlan, compiled| {
                    executor(&c, w, compiled).with_batch_rows(batch_rows).execute(plan)
                };
                let cell = format!("W={w} batch_rows={batch_rows}");
                for (what, logical) in &ok {
                    let plan = physical(&c, logical);
                    let compiled = exec(&plan, true).unwrap();
                    let interpreted = exec(&plan, false).unwrap();
                    assert!(compiled.stats.total_batches() > 0, "{what} {cell}");
                    // Plain column operands and keys: no kernel runs at all.
                    assert_eq!(compiled.stats.total_kernels(), 0, "{what} {cell}");
                    let (got, want) = (compiled.rows(), interpreted.rows());
                    assert_eq!(got.len(), want.len(), "{what} {cell}");
                    for (a, b) in got.iter().zip(&want) {
                        let same = a.values().iter().zip(b.values()).all(|(x, y)| wire_eq(x, y));
                        assert!(same && a.arity() == b.arity(), "{what} {cell}: {a:?} != {b:?}");
                        let m = a.values().last().and_then(Value::as_sparse_matrix);
                        assert!(m.is_some_and(|m| m.nnz() > 0), "{what} {cell}: {a:?}");
                    }
                }
                for (what, logical, fragment) in &failing {
                    let plan = physical(&c, logical);
                    let message = |compiled| exec(&plan, compiled).expect_err("fails").to_string();
                    let want = message(false);
                    assert!(want.contains(fragment), "{what} {cell}: {want}");
                    assert_eq!(message(true), want, "{what} {cell}");
                }
            }
        }
        // The carrier costs a kernel per chunk; its three operands, plain
        // columns here, cost none.
        let carrier = entry(col(1), col(2), col(5));
        let schema = c.table_schema("entries").unwrap();
        assert_eq!(Program::compile(&carrier, &schema).unwrap().kernels(), 1);
        let aggs = [mfe(carrier)];
        let pipe = ChunkPipeline::new(true, None, schema, None, &[], &[], &aggs).unwrap();
        assert_eq!(pipe.programs.map(|p| p.agg_kernels), Some(0));
    }

    /// A chunk whose `OR` short-circuits, in a later program than the
    /// Filter, where its right operand would divide by zero: every chunk
    /// is a batch, each stage counts its rows once, and rows and stage
    /// rows are the oracle's.
    #[test]
    fn short_circuit_chunks_count_stage_rows_once() {
        use lardb_storage::ops::ArithOp;
        let c = setup();
        let kept = LogicalPlan::Filter {
            input: Box::new(scan_plan(&c, "pts")),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(20i64)),
        };
        // `id = 0 OR 10 / id > k`: the division runs only where id <> 0.
        let declining = Expr::Or(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(0i64))),
            Box::new(Expr::cmp(
                CmpOp::Gt,
                Expr::arith(ArithOp::Div, Expr::lit(10i64), Expr::col(0)),
                Expr::col(1),
            )),
        );
        let project =
            LogicalPlan::project(kept.clone(), vec![(declining.clone(), "d".into())]).unwrap();
        let count = LogicalPlan::aggregate(
            kept,
            vec![(Expr::col(3), "s".into())],
            vec![AggExpr { func: AggFunc::Count, arg: Some(declining), name: "n".into() }],
        )
        .unwrap();
        for (what, logical) in [("Filter → Project", project), ("Filter → aggregate", count)] {
            let plan = physical(&c, &logical);
            for w in [1, 4] {
                for batch_rows in [1, 7, 4096] {
                    let run = |compiled| {
                        let out = executor(&c, w, compiled)
                            .with_batch_rows(batch_rows)
                            .execute(&plan)
                            .unwrap();
                        let filter =
                            out.stats.operators().iter().find(|o| o.label.starts_with("Filter"));
                        let kept = filter.expect("no Filter record").rows_out;
                        (kept, out.stats.total_batches(), out.partitions)
                    };
                    let (want, _, want_rows) = run(false);
                    assert_eq!(want, 20, "{what}");
                    let (got, batches, rows) = run(true);
                    assert!(batches > 0, "{what}");
                    assert_eq!(got, want, "{what} W={w} batch_rows={batch_rows}");
                    assert_eq!(rows, want_rows, "{what} W={w} batch_rows={batch_rows}");
                }
            }
        }
    }

    /// A failing residual, and a failing aggregate under a join that has
    /// one, report the interpreter's message whichever path ran them.
    #[test]
    fn fused_errors_match_unfused_with_a_residual() {
        use lardb_storage::ops::ArithOp;
        let c = setup();
        let sq = |col, k: i64| {
            let d = Expr::arith(ArithOp::Sub, Expr::col(col), Expr::lit(k));
            Expr::arith(ArithOp::Mul, d.clone(), d)
        };
        // 1 / ((a.id - 3)² + (b.id - k)²) >= 0 divides by zero on one pair.
        let one_bad_pair = |k| {
            Expr::cmp(
                CmpOp::GtEq,
                Expr::arith(
                    ArithOp::Div,
                    Expr::lit(1i64),
                    Expr::arith(ArithOp::Add, sq(0, 3), sq(2, k)),
                ),
                Expr::lit(0i64),
            )
        };
        let count = |input| {
            LogicalPlan::aggregate(
                input,
                vec![],
                vec![AggExpr { func: AggFunc::Count, arg: None, name: "n".into() }],
            )
            .unwrap()
        };
        let overflowing_sum = LogicalPlan::aggregate(
            join_of(&c, "nums", None, Some(Expr::cmp(CmpOp::NotEq, Expr::col(0), Expr::col(2)))),
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::arith(
                    ArithOp::Add,
                    Expr::col(0),
                    Expr::lit(9_223_372_036_854_775_000i64),
                )),
                name: "s".into(),
            }],
        )
        .unwrap();
        for (logical, fragment) in [
            (join_of(&c, "nums", None, Some(one_bad_pair(5))), "division by zero"),
            (count(join_of(&c, "nums", None, Some(one_bad_pair(5)))), "division by zero"),
            (count(join_of(&c, "nums", Some(1), Some(one_bad_pair(3)))), "division by zero"),
            (overflowing_sum, "integer overflow in +"),
        ] {
            let plan = physical(&c, &logical);
            for w in [1, 4] {
                let message = |fuse: bool, compiled| {
                    executor(&c, w, compiled)
                        .with_fusion(fuse)
                        .with_batch_rows(7)
                        .execute(&plan)
                        .expect_err("must fail")
                        .to_string()
                };
                let want = message(false, false);
                assert!(want.contains(fragment), "{want}");
                assert_eq!(message(true, true), want, "W={w}");
                assert_eq!(message(true, false), want, "W={w}");
                assert_eq!(message(false, true), want, "W={w}");
            }
        }
    }

    /// Sides of an INTEGER key and a DOUBLE payload holding `-0.0` lanes
    /// through the pair entry, the row entry and the interpreter: same
    /// groups, same bits, also where the residual's `OR` short-circuits a
    /// division by zero.
    #[test]
    fn mixed_typed_pair_chunks_replay_like_row_chunks() {
        use lardb_storage::ops::ArithOp;
        let side = |base: i64| -> Vec<Row> {
            (0..6i64)
                .map(|i| {
                    let x = if i % 2 == 0 { (base + i) as f64 } else { -0.0 };
                    Row::new(vec![Value::Integer(i % 3), Value::Double(x)])
                })
                .collect()
        };
        let schema = Schema::from_pairs(&[("k", DataType::Integer), ("x", DataType::Double)]);
        let (lrows, rrows) = (side(0), side(10));
        let (left, right) = (Side::new(&lrows, &schema), Side::new(&rrows, &schema));
        let (li, ri): (Vec<u32>, Vec<u32>) =
            (0..6).flat_map(|l| (0..6).map(move |r| (l, r))).unzip();
        let pair = |(&l, &r): (&u32, &u32)| lrows[l as usize].concat(&rrows[r as usize]);
        let rows: Vec<Row> = li.iter().zip(&ri).map(pair).collect();
        // l.k = 0 OR 6 / l.k > r.k: divides by zero unless lazy.
        let residual = Expr::Or(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(0i64))),
            Box::new(Expr::cmp(
                CmpOp::Gt,
                Expr::arith(ArithOp::Div, Expr::lit(6i64), Expr::col(0)),
                Expr::col(2),
            )),
        );
        let group_by = [Expr::col(2)];
        let aggs = [
            AggExpr {
                func: AggFunc::Min,
                arg: Some(Expr::arith(ArithOp::Add, Expr::col(1), Expr::col(3))),
                name: "m".into(),
            },
            AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
        ];
        let run = |compiled, as_pairs: bool| {
            let input = schema.concat(&schema);
            let on = Some(&residual);
            let pipe = ChunkPipeline::new(compiled, None, input, on, &[], &group_by, &aggs).unwrap();
            let mut agg = GroupedAgg::new(&group_by, &aggs, AggMode::Complete);
            let mut scratch = Vec::new();
            let mut joined = 0;
            for ((l, p), r) in li.chunks(5).zip(ri.chunks(5)).zip(rows.chunks(5)) {
                // A row chunk has passed the residual already: keep its
                // survivors only, as the grace arm would.
                let kept: Vec<Row> = r
                    .iter()
                    .filter(|row| eval_predicate_with(&residual, row, &mut Vec::new()).unwrap())
                    .cloned()
                    .collect();
                let pairs = Chunk::Pairs([(&left, l), (&right, p)]);
                let chunk = if as_pairs { pairs } else { Chunk::Rows(&kept) };
                joined += pipe.aggregate(chunk, &mut agg, &mut scratch).unwrap();
            }
            (agg.finish(), joined)
        };
        let want = run(false, true);
        assert_eq!(want.0.len(), 3);
        assert_eq!(run(true, true), want);
        assert_eq!(run(true, false), want);
    }

    /// A chunk of VECTOR pairs is read by position: gathering it from its
    /// sides, running `inner_product` over it and aggregating the result
    /// clone and drop no payload `Arc`.
    #[test]
    fn vector_pair_chunks_touch_no_payload_arc() {
        use lardb_planner::Builtin;
        let side = |base: f64| -> Vec<Row> {
            let vector = |i| Value::vector(lardb_la::Vector::from_vec(vec![base + i as f64, -0.0]));
            (0..4i64).map(|i| Row::new(vec![Value::Integer(i), vector(i)])).collect()
        };
        let schema = Schema::from_pairs(&[("i", DataType::Integer), ("x", DataType::Vector(None))]);
        let (lrows, rrows) = (side(0.0), side(10.0));
        let (left, right) = (Side::new(&lrows, &schema), Side::new(&rrows, &schema));
        let counts = || -> Vec<usize> {
            let count = |r: &Row| match r.value(1) {
                Value::Vector(v) => Arc::strong_count(v),
                _ => 0,
            };
            lrows.iter().chain(&rrows).map(count).collect()
        };
        // Each side's pivot holds one reference per row, once.
        assert!(left.cols().is_ok() && right.cols().is_ok());
        let before = counts();
        let (li, ri): (Vec<u32>, Vec<u32>) =
            (0..4).flat_map(|l| (0..4).map(move |r| (l, r))).unzip();
        let chunk = Chunk::Pairs([(&left, &li), (&right, &ri)]);
        let input = schema.concat(&schema);
        let batch = chunk.pivot(&input).unwrap();
        assert_eq!(counts(), before, "pivot");
        let cols = batch.cols();
        let args = [&*cols[1], &*cols[3]];
        let out = kernels::call(&Builtin::InnerProduct, &args, &DataType::Double, None, 16);
        let out = out.unwrap();
        assert_eq!(counts(), before, "inner_product");
        for (k, row) in (0..16).map(|k| (k, chunk.row(k))) {
            let args = [row.value(1).clone(), row.value(3).clone()];
            assert_eq!(out.value_at(k), Builtin::InnerProduct.evaluate(&args).unwrap());
        }
        drop((out, batch));
        assert_eq!(counts(), before, "drop");
        let arg = Expr::call(Builtin::InnerProduct, vec![Expr::col(1), Expr::col(3)]);
        let aggs = [AggExpr { func: AggFunc::Min, arg: Some(arg), name: "m".into() }];
        let pipe = ChunkPipeline::new(true, None, input, None, &[], &[], &aggs).unwrap();
        let mut agg = GroupedAgg::new(&[], &aggs, AggMode::Complete);
        assert_eq!(pipe.aggregate(chunk, &mut agg, &mut Vec::new()).unwrap(), 16);
        assert_eq!(counts(), before, "aggregate");
    }

    /// The fused in-memory arm over sides whose key columns differ in type
    /// (a DOUBLE build key, an INTEGER probe key: `2.0` joins `2`): each
    /// side is pivoted once with its own schema, and groups and sums match
    /// the interpreter's. A ragged probe side, which no operator writes,
    /// pivots no chunk: an internal error.
    #[test]
    fn fused_pairs_over_sides_typed_once_match_the_interpreter() {
        use lardb_storage::ops::ArithOp;
        let build: Vec<Row> = (0..12i64)
            .map(|i| {
                let k = (i % 2) as f64;
                let k = if i < 8 { k } else { 2.0 + k };
                Row::new(vec![Value::Double(k), Value::Double(i as f64 - 0.5)])
            })
            .collect();
        let build_schema = Schema::from_pairs(&[("k", DataType::Double), ("v", DataType::Double)]);
        let probe_schema =
            Schema::from_pairs(&[("k", DataType::Integer), ("i", DataType::Integer)]);
        // Keys 0 and 1 first (20 pairs), then 3 and 2 (8 pairs).
        let probe = |ragged: bool| -> Vec<Row> {
            let key = |i: i64| Value::Integer(if i < 5 { i % 2 } else { 2 + (i + 1) % 2 });
            let row = |i| Row::new(vec![key(i), Value::Integer(i)]);
            (0..9).map(|i| if ragged && i == 7 { row(i).concat(&row(i)) } else { row(i) }).collect()
        };
        let product = Expr::arith(ArithOp::Mul, Expr::col(1), Expr::col(3));
        let aggs = [
            AggExpr { func: AggFunc::Sum, arg: Some(product), name: "s".into() },
            AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
        ];
        let keys = [Expr::col(0)];
        let run = |compiled, probe: &[Row]| {
            let table = build_join_table(build.clone(), &keys).unwrap();
            let input = build_schema.concat(&probe_schema);
            let pipe = ChunkPipeline::new(compiled, None, input, None, &[], &keys, &aggs).unwrap();
            let mut agg = GroupedAgg::new(&keys, &aggs, AggMode::Complete);
            let (mut scratch, mut chunks) = (Vec::new(), 0);
            let full = |pairs: usize, _| pairs >= 5;
            let sides = [build_schema.clone(), probe_schema.clone()];
            let cancel = CancelToken::new();
            probe_in_chunks(&table, probe, &keys, BuildOn::Left, &sides, full, &cancel, |c| {
                chunks += 1;
                pipe.aggregate(c, &mut agg, &mut scratch).map(drop)
            })
            .map(|()| (agg.finish(), chunks))
        };
        let (want, chunks) = run(false, &probe(false)).unwrap();
        assert_eq!((want.len(), chunks), (4, 6));
        assert_eq!(run(true, &probe(false)).unwrap(), (want, chunks));
        let ragged = run(true, &probe(true)).unwrap_err();
        assert!(matches!(ragged, ExecError::Plan(PlanError::Internal(_))), "{ragged}");
    }

    /// A lane of another type than its column's declared one refuses its
    /// chunk's pivot, as a ragged row does. Scans read validated rows and
    /// operators write their planned types, so no plan feeds a pipeline
    /// such a lane: it is an internal error, raised at the chunk that
    /// holds it, after the chunks before it were batches.
    #[test]
    fn a_lane_of_another_type_is_an_internal_error() {
        use lardb_storage::ops::ArithOp;
        let schema = Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Double)]);
        let rows: Vec<Row> = (0..20i64)
            .map(|i| {
                let v = if i == 13 { Value::Integer(7) } else { Value::Double(i as f64 * 0.5) };
                Row::new(vec![Value::Integer(i), v])
            })
            .collect();
        let twice = Expr::arith(ArithOp::Mul, Expr::col(1), Expr::lit(2.0));
        let aggs = [
            AggExpr { func: AggFunc::Sum, arg: Some(twice), name: "s".into() },
            AggExpr { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "m".into() },
        ];
        let pipe = ChunkPipeline::new(true, None, schema, None, &[], &[], &aggs).unwrap();
        let mut agg = GroupedAgg::new(&[], &aggs, AggMode::Complete);
        let mut scratch = Vec::new();
        let mut folded =
            rows.chunks(5).map(|c| pipe.aggregate(Chunk::Rows(c), &mut agg, &mut scratch));
        assert_eq!(folded.next().unwrap().unwrap(), 5);
        assert_eq!(folded.next().unwrap().unwrap(), 5);
        let err = folded.next().unwrap().unwrap_err();
        assert!(matches!(err, ExecError::Plan(PlanError::Internal(_))), "{err}");
        assert_eq!(pipe.counters.batches.load(AtomicOrdering::Relaxed), 2);
    }

    /// A Filter whose predicate does not type never comes from the
    /// planner, which types every predicate: one that reaches the
    /// executor is an internal error before any row is evaluated.
    #[test]
    fn an_untyped_program_is_an_internal_error() {
        let c = setup();
        let scan = physical(&c, &scan_plan(&c, "nums"));
        let plan = PhysicalPlan::Filter {
            id: 99,
            input: Box::new(scan),
            predicate: Expr::And(Box::new(Expr::col(0)), Box::new(Expr::lit(true))),
        };
        let err = Executor::new(&c, Cluster::new(2)).execute(&plan).unwrap_err();
        let untyped = |m: &str| m.contains("untyped");
        assert!(matches!(&err, ExecError::Plan(PlanError::Internal(m)) if untyped(m)), "{err}");
    }

    #[test]
    fn fused_chunks_are_cut_by_bytes_under_large_payloads() {
        use lardb_la::Matrix;
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("m", DataType::Matrix(Some(128), Some(128))),
        ]);
        let mut t = Table::new("tiles", schema, 1, Partitioning::RoundRobin);
        for i in 0..8i64 {
            let m = Matrix::from_vec(128, 128, vec![i as f64 + 0.5; 128 * 128]).unwrap();
            t.insert(Row::new(vec![Value::Integer(i), Value::matrix(m)])).unwrap();
        }
        c.create_table(t).unwrap();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let logical = LogicalPlan::aggregate(
            LogicalPlan::Join {
                left: Box::new(scan_plan(&c, "tiles")),
                right: Box::new(scan_plan(&c, "tiles")),
                kind: JoinKind::Inner,
                equi: vec![(Expr::col(0), Expr::col(0))],
                residual: None,
            },
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::arith(
                    lardb_storage::ops::ArithOp::Add,
                    Expr::col(1),
                    Expr::col(3),
                )),
                name: "s".into(),
            }],
        )
        .unwrap();
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&logical).unwrap();
        let fused = Executor::new(&c, Cluster::new(1)).execute(&plan).unwrap();
        let unfused = Executor::new(&c, Cluster::new(1))
            .with_fusion(false)
            .execute(&plan)
            .unwrap();
        assert_eq!(fused.partitions, unfused.partitions);
        // 8 joined rows of 2 × 128 KiB each: far fewer than `batch_rows`
        // rows, but 2 MiB of payload — the byte cap cuts them up.
        assert!(
            fused.stats.total_batches() > 1,
            "{} batches",
            fused.stats.total_batches()
        );
        assert_eq!(fused.stats.total_batch_rows(), 8);
    }

    /// Sender 3's rows do not fit a frame, so it fails while senders 0..3
    /// are mid-stream and echo the abort: the exchange reports the
    /// oversized frame, not the lower-indexed echo.
    #[test]
    fn exchange_reports_the_failing_sender_not_the_echo() {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("k", DataType::Integer),
            ("id", DataType::Integer),
            ("pad", DataType::Varchar),
        ]);
        let mut t = Table::new("skewed", schema, 4, Partitioning::Hash(0));
        for i in 0..40_000i64 {
            let last = hash_partition(&Value::Integer(i), 4) == 3;
            let pad = if last { "x".repeat(64 << 10) } else { String::new() };
            if !last || i < 64 {
                let row = vec![Value::Integer(i), Value::Integer(i), Value::Varchar(pad.into())];
                t.insert(Row::new(row)).unwrap();
            }
        }
        assert!(!t.partition(3).is_empty());
        c.create_table(t).unwrap();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "skewed")),
            right: Box::new(scan_plan(&c, "skewed")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(1), Expr::col(1))],
            residual: None,
        };
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&join).unwrap();
        let net = NetConfig { max_frame_bytes: 32 << 10, ..NetConfig::default() };
        for run in 0..8 {
            let err = Executor::new(&c, Cluster::new(4))
                .with_transport(TransportMode::Serialized)
                .with_net_config(net.clone())
                .execute(&plan)
                .unwrap_err();
            assert!(
                matches!(&err, ExecError::Runtime(m) if m.contains("exceeds")),
                "run {run}: {err}"
            );
        }
    }

    #[test]
    fn sort_places_nulls_last() {
        let mut rows = vec![
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Integer(2)]),
            Row::new(vec![Value::Integer(1)]),
        ];
        sort_rows(&mut rows, &[(Expr::col(0), true)]).unwrap();
        assert_eq!(rows[0].value(0), &Value::Integer(1));
        assert!(rows[2].value(0).is_null());
        // Descending still keeps NULLs last.
        sort_rows(&mut rows, &[(Expr::col(0), false)]).unwrap();
        assert_eq!(rows[0].value(0), &Value::Integer(2));
        assert!(rows[2].value(0).is_null());
    }

    #[test]
    fn serialized_transports_match_pointer_exchange() {
        // A self equi-join forces a hash exchange; the serialized transport
        // must produce byte-identical rows in identical order, and both
        // transports count the same rows, bytes and frames per channel.
        let c = setup();
        let stats_src: std::collections::HashMap<String, usize> = Default::default();
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan(&c, "nums")),
            right: Box::new(scan_plan(&c, "nums")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        };
        let mut pp = PhysicalPlanner::new(&c, &stats_src);
        let plan = pp.plan_gathered(&join).unwrap();
        let channels = |stats: &ExecStats| -> Vec<_> {
            let all = stats.operators().iter().flat_map(|o| &o.shuffle.channels);
            all.map(|ch| (ch.from, ch.to, ch.rows, ch.bytes, ch.frames)).collect()
        };
        let base = Executor::new(&c, Cluster::new(4)).execute(&plan).unwrap();
        let mode = TransportMode::Serialized;
        let out = Executor::new(&c, Cluster::new(4))
            .with_transport(mode)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.partitions, base.partitions, "{mode} diverged");
        assert!(out.stats.total_frames() > 0, "{mode} shipped no frames");
        assert!(out.stats.total_bytes_shuffled() > 0);
        assert!(!channels(&out.stats).is_empty(), "{mode} recorded no channel stats");
        assert_eq!(channels(&base.stats), channels(&out.stats), "pointer counts what {mode} ships");
    }

    #[test]
    fn replicated_scan_gathers_single_copy() {
        let c = setup();
        let schema = Schema::new(vec![Column::new("id", DataType::Integer)]);
        let mut t = Table::new("rep", schema, 4, Partitioning::Replicated);
        for i in 0..5i64 {
            t.insert(Row::new(vec![Value::Integer(i)])).unwrap();
        }
        c.create_table(t).unwrap();
        let out = run(&c, &scan_plan(&c, "rep"));
        assert_eq!(out.num_rows(), 5);
    }
}
