//! The names, units and bounds of every metric.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`lardb-benchmark manifest`), and a test holds the two together.

use std::collections::BTreeMap;

use crate::json::Json;

/// Seconds one run measures for, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 15;

/// Why each workload exists, in one line (`BENCHMARK.json` allows 200
/// characters); the README has the long form.
pub const WORKLOAD_WHY: [(&str, &str); 6] = [
    (
        "linreg_block",
        "Fig. 2 block-based regression: dense SYRK/GEMM/LU in la do nearly all the work and the relational layers almost none",
    ),
    (
        "gram_tuple",
        "Fig. 1/4 tuple-based Gram matrix: scalar hash join, hash aggregate, expression kernels and row-column pivot do all the work, la none",
    ),
    (
        "distance_vector",
        "Fig. 3 vector-based distances: same join/aggregate layers as gram_tuple but VECTOR payloads, small per-row la calls and CREATE TABLE AS writes",
    ),
    (
        "matmul_tiled_ooc",
        "Sec. 3.4 tiled multiply under a memory budget: the only workload where buf spill I/O and net encoding of large dense tiles take a large share",
    ),
    (
        "pagerank_sparse",
        "PageRank over sparse tiles: CSR kernels, nnz-proportional frames and one short CREATE TABLE AS per iteration, so per-statement overhead matters",
    ),
    (
        "serve_mixed",
        "Two closed-loop clients on the loopback server, reads beside writes: server, SQL front end, plan cache hit and invalidation paths dominate",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these, with the benchmark's spans off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// `span`, `probe`, `count`, or `run` (measured by the untraced loop of
    /// the traced run's process).
    pub source: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    source: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
    }
}

/// Printed by the traced run; a metric that does not apply to a workload is 0.
pub const PER_LAYER: [PerLayer; 52] = [
    pl("sql.parse_s", "s", "lower", "sql", "span"),
    pl("sql.bind_s", "s", "lower", "sql", "span"),
    pl("sql.statements", "count", "lower", "sql", "count"),
    pl("planner.optimize_s", "s", "lower", "planner", "span"),
    pl("planner.physical_s", "s", "lower", "planner", "span"),
    pl("core.unattributed_share", "ratio", "lower", "core", "span"),
    pl(
        "core.plan_cache_hit_share",
        "ratio",
        "higher",
        "core",
        "count",
    ),
    pl(
        "core.plan_cache_invalidations",
        "count",
        "lower",
        "core",
        "count",
    ),
    pl("exec.execute_s", "s", "lower", "exec", "span"),
    pl("exec.join_s", "s", "lower", "exec", "count"),
    pl("exec.agg_s", "s", "lower", "exec", "count"),
    pl("exec.exchange_s", "s", "lower", "exec", "count"),
    pl("exec.scan_s", "s", "lower", "exec", "count"),
    pl("exec.pivot_mrows_s", "Mrows/s", "higher", "exec", "probe"),
    pl("exec.batches", "count", "lower", "exec", "count"),
    pl("exec.fallbacks", "count", "lower", "exec", "count"),
    pl("exec.rows_shuffled", "count", "lower", "exec", "count"),
    pl("la.gemm_gflops", "GFLOP/s", "higher", "la", "probe"),
    pl("la.syrk_gflops", "GFLOP/s", "higher", "la", "probe"),
    pl("la.inverse_s", "s", "lower", "la", "probe"),
    pl("la.spmv_mnnz_s", "Mnnz/s", "higher", "la", "probe"),
    pl("la.from_entries_mnnz_s", "Mnnz/s", "higher", "la", "probe"),
    pl("la.roofline_share", "ratio", "higher", "la", "probe"),
    pl("la.kernel_share", "ratio", "higher", "la", "probe"),
    pl("la.dispatch.dense", "count", "lower", "la", "count"),
    pl("la.dispatch.spmv", "count", "lower", "la", "count"),
    pl("la.dispatch.densified", "count", "lower", "la", "count"),
    pl("net.encode_mb_s", "MB/s", "higher", "net", "probe"),
    pl("net.decode_mb_s", "MB/s", "higher", "net", "probe"),
    pl("net.bytes_shuffled", "count", "lower", "net", "count"),
    pl("net.frames", "count", "lower", "net", "count"),
    pl("buf.spill_write_mb_s", "MB/s", "higher", "buf", "probe"),
    pl("buf.spill_read_mb_s", "MB/s", "higher", "buf", "probe"),
    pl("buf.spill_bytes", "count", "lower", "buf", "count"),
    pl("buf.spill_files", "count", "lower", "buf", "count"),
    pl("buf.leftover_files", "count", "lower", "buf", "count"),
    pl("pool.scope_us", "us", "lower", "pool", "probe"),
    pl(
        "storage.insert_mrows_s",
        "Mrows/s",
        "higher",
        "storage",
        "probe",
    ),
    pl("storage.ctas_write_s", "s", "lower", "storage", "span"),
    pl("server.wire_overhead_ms", "ms", "lower", "server", "probe"),
    pl("server.rejected", "count", "lower", "server", "count"),
    pl(
        "obs.recorder_overhead_share",
        "ratio",
        "lower",
        "obs",
        "probe",
    ),
    pl(
        "bench.trace_overhead_share",
        "ratio",
        "lower",
        "bench",
        "span",
    ),
    pl("host.peak_gflops", "GFLOP/s", "higher", "bench", "probe"),
    pl("host.memcpy_gb_s", "GB/s", "higher", "bench", "probe"),
    pl("build_s", "s", "lower", "core", "run"),
    pl("point_p50_ms", "ms", "lower", "server", "run"),
    pl("point_p95_ms", "ms", "lower", "server", "run"),
    pl("agg_p50_ms", "ms", "lower", "server", "run"),
    pl("agg_p95_ms", "ms", "lower", "server", "run"),
    pl("insert_p50_ms", "ms", "lower", "server", "run"),
    pl("insert_p95_ms", "ms", "lower", "server", "run"),
];

/// The per-layer metrics of one run: every name present, 0 until measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl LayerMetrics {
    /// Sets a metric; a name missing from [`PER_LAYER`] is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// In the order of [`PER_LAYER`].
    pub fn iter(&self) -> impl Iterator<Item = (&'static PerLayer, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m, self.get(m.name)))
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = BTreeSet::new();
        for w in workloads::NAMES {
            assert!(name_ok(w) && seen.insert(w.to_string()), "{w}");
        }
        assert!(WORKLOAD_WHY
            .iter()
            .map(|(n, _)| n)
            .eq(workloads::NAMES.iter()));
        for (name, why) in WORKLOAD_WHY {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
        }
        for m in END_TO_END {
            assert!(
                name_ok(m.name) && seen.insert(m.name.to_string()),
                "{}",
                m.name
            );
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                name_ok(m.name) && seen.insert(m.name.to_string()),
                "{}",
                m.name
            );
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(matches!(m.source, "span" | "probe" | "count" | "run"));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.bound, largest);
        assert!(manifest().compact().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
    }

    #[test]
    fn layer_metrics_start_at_zero_and_reject_unknown_names() {
        let mut m = LayerMetrics::default();
        assert_eq!(m.iter().count(), PER_LAYER.len());
        assert!(m.iter().all(|(_, v)| v == 0.0));
        m.set("pool.scope_us", 3.5);
        assert_eq!(m.get("pool.scope_us"), 3.5);
        assert!(std::panic::catch_unwind(move || m.set("no.such", 1.0)).is_err());
    }
}
