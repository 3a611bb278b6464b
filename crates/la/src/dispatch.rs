//! Density-adaptive kernel dispatch.
//!
//! Dense-typed tiles always run the dense loops in [`crate::gemm`]; this
//! module decides what happens to *sparse-typed* tiles:
//!
//! * [`keep_sparse`] picks per tile from its stored density against
//!   [`DENSIFY_ABOVE`] — the input decides, there is no setting;
//! * monotone per-kind choice counters, snapshotted by the database layer
//!   around each query to surface per-query kernel choices in
//!   EXPLAIN ANALYZE and `la.dispatch.*` metrics in SHOW METRICS.

use std::sync::atomic::{AtomicU64, Ordering};

/// Stored density above which a sparse tile densifies at kernel entry:
/// past it the dense loop beats the indexed sparse kernels.
pub const DENSIFY_ABOVE: f64 = 0.75;

/// Whether a *sparse-typed* tile of the given stored density should stay
/// on sparse kernels (`true`) or densify first (`false`).
pub fn keep_sparse(density: f64) -> bool {
    density <= DENSIFY_ABOVE
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
    fn density_decides() {
        assert!(keep_sparse(0.01));
        assert!(keep_sparse(DENSIFY_ABOVE));
        assert!(!keep_sparse(0.9));
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
