//! What the numbers were measured on: core count, CPU model, and two
//! calibrated ceilings. Results from hosts with different fingerprints are
//! never compared.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Multiply-add throughput of all cores in the build's own instruction
    /// set (no `target-cpu` flags, like the engine), in GFLOP/s.
    pub peak_gflops: f64,
    /// Large-block copy bandwidth of one core, in GB/s.
    pub memcpy_gb_s: f64,
}

impl Host {
    /// Reads the fingerprint and runs both calibrations (about 0.4 s).
    pub fn measure() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            cpu_model: cpu_model(),
            peak_gflops: peak_gflops(nproc),
            memcpy_gb_s: memcpy_gb_s(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Int(self.nproc as i64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("peak_gflops", Json::Num(self.peak_gflops)),
            ("memcpy_gb_s", Json::Num(self.memcpy_gb_s)),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Sixteen independent multiply-add chains: enough to fill the pipelines,
/// few enough to stay in registers.
fn flop_chains(iters: u64) -> f64 {
    let (a, b) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    let mut acc = [1.0f64; 16];
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

fn peak_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 12_000_000;
    const ROUNDS: usize = 8;
    // Best of a few rounds: a ceiling is what the host can do when nothing
    // interferes.
    (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            // The calling thread is one of the workers, so that no core waits
            // for a thread to wake up.
            std::thread::scope(|s| {
                for _ in 1..threads {
                    s.spawn(|| black_box(flop_chains(ITERS)));
                }
                black_box(flop_chains(ITERS));
            });
            (threads as u64 * ITERS * 16 * 2) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

fn memcpy_gb_s() -> f64 {
    const BYTES: usize = 8 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            BYTES as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// `VmHWM` of this process in MB (10⁶ bytes), or 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|kb| kb.parse::<f64>().ok())
                })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Engine settings read from the environment would silently change what is
/// measured; the benchmark measures defaults.
pub fn engine_env_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LARDB_"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_filled_in() {
        let h = Host::measure();
        assert!(h.nproc >= 1);
        assert!(!h.cpu_model.is_empty());
        assert!(h.peak_gflops > 0.0 && h.peak_gflops.is_finite());
        assert!(h.memcpy_gb_s > 0.0 && h.memcpy_gb_s.is_finite());
        assert!(peak_rss_mb() > 0.0);
    }
}
