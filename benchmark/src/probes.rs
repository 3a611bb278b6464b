//! Repeats the probes of `engine.rs` and turns their times into rates.

use std::time::Instant;

use crate::engine::{self, ColType, RowSample};
use crate::metrics::LayerMetrics;
use crate::stats;

/// Median seconds of `probe`, repeated at least `MIN_REPS` times and until
/// `budget_s` seconds have been spent.
pub fn median_seconds(budget_s: f64, mut probe: impl FnMut() -> f64) -> f64 {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 10_000;
    let started = Instant::now();
    let mut samples = Vec::new();
    // One untimed call lets caches fill and lazy set-up finish.
    probe();
    while samples.len() < MIN_REPS
        || (started.elapsed().as_secs_f64() < budget_s && samples.len() < MAX_REPS)
    {
        samples.push(probe());
    }
    stats::median(&samples)
}

/// `work / seconds`, or 0 when the probe did not run.
pub fn rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 && seconds.is_finite() {
        work / seconds
    } else {
        0.0
    }
}

/// Floating-point operations of an `m × k` by `k × n` product.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Seconds each of the probes below may spend.
const BUDGET_S: f64 = 0.3;

/// `exec.pivot_mrows_s`: row-to-column pivot of a chunk of a workload's table.
pub fn pivot(sample: &RowSample, out: &mut LayerMetrics) {
    let s = median_seconds(BUDGET_S, engine::pivot_probe(sample));
    out.set("exec.pivot_mrows_s", rate(sample.rows() as f64, s) / 1e6);
}

/// `net.encode_mb_s` and `net.decode_mb_s` on one of a workload's own batches.
pub fn codec(sample: &RowSample, out: &mut LayerMetrics) {
    let mb = engine::encoded_bytes(sample) as f64 / 1e6;
    out.set(
        "net.encode_mb_s",
        rate(mb, median_seconds(BUDGET_S, engine::encode_probe(sample))),
    );
    out.set(
        "net.decode_mb_s",
        rate(mb, median_seconds(BUDGET_S, engine::decode_probe(sample))),
    );
}

/// `pool.scope_us`: one scope of empty tasks on a pool of the workload's size.
pub fn pool_scope(out: &mut LayerMetrics) {
    out.set(
        "pool.scope_us",
        median_seconds(BUDGET_S, engine::pool_scope_probe()) * 1e6,
    );
}

/// `storage.insert_mrows_s`: bulk load of the sample into a fresh table.
pub fn insert(sample: &RowSample, cols: &[(&str, ColType)], out: &mut LayerMetrics) {
    let s = median_seconds(BUDGET_S, engine::insert_probe(sample, cols));
    out.set(
        "storage.insert_mrows_s",
        rate(sample.rows() as f64, s) / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_seconds_repeats_at_least_three_times_after_a_warm_up() {
        let mut calls = 0;
        let m = median_seconds(0.0, || {
            calls += 1;
            calls as f64
        });
        assert_eq!(calls, 4);
        assert_eq!(m, 3.0);
    }

    #[test]
    fn rate_of_a_probe_that_did_not_run_is_zero() {
        assert_eq!(rate(10.0, 2.0), 5.0);
        assert_eq!(rate(10.0, 0.0), 0.0);
        assert_eq!(rate(10.0, f64::NAN), 0.0);
    }
}
