//! Density-adaptive kernel dispatch.
//!
//! Dense-typed tiles always run the dense loops in [`crate::gemm`]; this
//! module decides what happens to *sparse-typed* tiles:
//!
//! * a process-wide [`DispatchMode`] — `dense` densifies sparse tiles at
//!   kernel entry (the reference arm of the sparse ≡ dense suites),
//!   `sparse` keeps them on sparse kernels, `adaptive` (default) picks
//!   per tile from its stored density against [`DENSIFY_ABOVE`];
//! * monotone per-kind choice counters, snapshotted by the database layer
//!   around each query to surface per-query kernel choices in
//!   EXPLAIN ANALYZE and `la.dispatch.*` metrics in SHOW METRICS.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which kernel family multiplies get routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Always the dense loops; sparse tiles densify first.
    Dense,
    /// Sparse tiles always stay on sparse kernels.
    Sparse,
    /// Pick per sparse tile from its stored density (the default).
    Adaptive,
}

impl DispatchMode {
    /// Parses the CLI/env spelling (`dense` / `sparse` / `adaptive`).
    pub fn parse(s: &str) -> Option<DispatchMode> {
        match s.to_ascii_lowercase().as_str() {
            "dense" => Some(DispatchMode::Dense),
            "sparse" => Some(DispatchMode::Sparse),
            "adaptive" => Some(DispatchMode::Adaptive),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchMode::Dense => "dense",
            DispatchMode::Sparse => "sparse",
            DispatchMode::Adaptive => "adaptive",
        }
    }
}

const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;
const MODE_ADAPTIVE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_ADAPTIVE);

/// Stored density above which adaptive dispatch densifies a sparse tile:
/// past it the dense loop beats the indexed sparse kernels.
pub const DENSIFY_ABOVE: f64 = 0.75;

/// Sets the process-wide dispatch mode; returns the previous one.
pub fn set_dispatch_mode(mode: DispatchMode) -> DispatchMode {
    let raw = match mode {
        DispatchMode::Dense => MODE_DENSE,
        DispatchMode::Sparse => MODE_SPARSE,
        DispatchMode::Adaptive => MODE_ADAPTIVE,
    };
    match MODE.swap(raw, Ordering::Relaxed) {
        MODE_DENSE => DispatchMode::Dense,
        MODE_SPARSE => DispatchMode::Sparse,
        _ => DispatchMode::Adaptive,
    }
}

/// Current process-wide dispatch mode.
pub fn dispatch_mode() -> DispatchMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_DENSE => DispatchMode::Dense,
        MODE_SPARSE => DispatchMode::Sparse,
        _ => DispatchMode::Adaptive,
    }
}

/// Whether a *sparse-typed* tile of the given stored density should stay
/// on sparse kernels (`true`) or densify first (`false`). Sparse tiles
/// stay sparse except under forced-dense mode or when adaptive dispatch
/// sees a tile denser than [`DENSIFY_ABOVE`].
pub fn keep_sparse(density: f64) -> bool {
    match dispatch_mode() {
        DispatchMode::Dense => false,
        DispatchMode::Sparse => true,
        DispatchMode::Adaptive => density <= DENSIFY_ABOVE,
    }
}

/// The kernel families whose choices are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense GEMM or SYRK.
    Dense,
    /// Sparse × dense-vector product.
    Spmv,
    /// Sparse × dense matrix product.
    SpDense,
    /// Sparse × sparse product.
    SpGemm,
    /// Sparse Gram (SYRK).
    SpSyrk,
    /// A sparse tile was densified before a dense kernel ran.
    Densified,
}

/// Records that a kernel (or a densification) ran.
pub fn note_kernel(kernel: Kernel) {
    let c = match kernel {
        Kernel::Dense => &COUNTERS.dense,
        Kernel::Spmv => &COUNTERS.spmv,
        Kernel::SpDense => &COUNTERS.sp_dense,
        Kernel::SpGemm => &COUNTERS.spgemm,
        Kernel::SpSyrk => &COUNTERS.sp_syrk,
        Kernel::Densified => &COUNTERS.densified,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

struct Counters {
    dense: AtomicU64,
    spmv: AtomicU64,
    sp_dense: AtomicU64,
    spgemm: AtomicU64,
    sp_syrk: AtomicU64,
    densified: AtomicU64,
}

static COUNTERS: Counters = Counters {
    dense: AtomicU64::new(0),
    spmv: AtomicU64::new(0),
    sp_dense: AtomicU64::new(0),
    spgemm: AtomicU64::new(0),
    sp_syrk: AtomicU64::new(0),
    densified: AtomicU64::new(0),
};

/// A monotone snapshot of every dispatch-choice counter. Subtract two
/// snapshots to get the choices made in between (per-query attribution in
/// EXPLAIN ANALYZE; concurrent queries overlap, which the display notes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounters {
    /// Dense GEMM/SYRK runs.
    pub dense: u64,
    /// SpMV kernel runs.
    pub spmv: u64,
    /// Sparse × dense GEMM runs.
    pub sp_dense: u64,
    /// SpGEMM runs.
    pub spgemm: u64,
    /// Sparse SYRK runs.
    pub sp_syrk: u64,
    /// Sparse tiles densified before a dense kernel.
    pub densified: u64,
}

impl DispatchCounters {
    /// Total sparse-kernel runs.
    pub fn sparse_total(&self) -> u64 {
        self.spmv + self.sp_dense + self.spgemm + self.sp_syrk
    }

    /// Elementwise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &DispatchCounters) -> DispatchCounters {
        DispatchCounters {
            dense: self.dense.saturating_sub(earlier.dense),
            spmv: self.spmv.saturating_sub(earlier.spmv),
            sp_dense: self.sp_dense.saturating_sub(earlier.sp_dense),
            spgemm: self.spgemm.saturating_sub(earlier.spgemm),
            sp_syrk: self.sp_syrk.saturating_sub(earlier.sp_syrk),
            densified: self.densified.saturating_sub(earlier.densified),
        }
    }

    /// Elementwise sum (merging multi-statement workload stats).
    pub fn plus(&self, other: &DispatchCounters) -> DispatchCounters {
        DispatchCounters {
            dense: self.dense + other.dense,
            spmv: self.spmv + other.spmv,
            sp_dense: self.sp_dense + other.sp_dense,
            spgemm: self.spgemm + other.spgemm,
            sp_syrk: self.sp_syrk + other.sp_syrk,
            densified: self.densified + other.densified,
        }
    }

    /// True when any kernel choice was recorded.
    pub fn any(&self) -> bool {
        *self != DispatchCounters::default()
    }
}

/// Snapshots the process-wide dispatch counters.
pub fn dispatch_counters() -> DispatchCounters {
    DispatchCounters {
        dense: COUNTERS.dense.load(Ordering::Relaxed),
        spmv: COUNTERS.spmv.load(Ordering::Relaxed),
        sp_dense: COUNTERS.sp_dense.load(Ordering::Relaxed),
        spgemm: COUNTERS.spgemm.load(Ordering::Relaxed),
        sp_syrk: COUNTERS.sp_syrk.load(Ordering::Relaxed),
        densified: COUNTERS.densified.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_roundtrip() {
        for m in [DispatchMode::Dense, DispatchMode::Sparse, DispatchMode::Adaptive] {
            assert_eq!(DispatchMode::parse(m.name()), Some(m));
        }
        assert_eq!(DispatchMode::parse("ADAPTIVE"), Some(DispatchMode::Adaptive));
        assert_eq!(DispatchMode::parse("banana"), None);
    }

    #[test]
    fn forced_modes_override_density() {
        // Serialize against other tests touching the global mode.
        let prev = set_dispatch_mode(DispatchMode::Dense);
        assert!(!keep_sparse(0.0001));
        set_dispatch_mode(DispatchMode::Sparse);
        assert!(keep_sparse(0.9999));
        set_dispatch_mode(DispatchMode::Adaptive);
        assert!(keep_sparse(0.01));
        assert!(!keep_sparse(0.9));
        set_dispatch_mode(prev);
    }

    #[test]
    fn counters_are_monotone_and_diffable() {
        let before = dispatch_counters();
        note_kernel(Kernel::Spmv);
        note_kernel(Kernel::SpGemm);
        note_kernel(Kernel::Densified);
        let delta = dispatch_counters().since(&before);
        assert!(delta.spmv >= 1);
        assert!(delta.spgemm >= 1);
        assert!(delta.densified >= 1);
        assert!(delta.sparse_total() >= 2);
    }
}
