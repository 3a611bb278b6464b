//! Density-adaptive kernel dispatch, and what it counts.
//!
//! Dense-typed tiles always run the dense loops in [`crate::gemm`]; this
//! module decides what happens to *sparse-typed* tiles:
//!
//! * [`keep_sparse`] picks per tile from its stored density against
//!   [`DENSIFY_ABOVE`] — the input decides, there is no setting;
//! * [`note_kernel`] counts each choice in the tally of the thread's
//!   [`QueryContext`], the query's own: `ExecStats.dispatch`, [`publish`]ed
//!   as the `la.dispatch.*` metrics. Large dense kernels fan out on the
//!   context's pool.

use lardb_pool::{QueryContext, WorkerPool};

/// Stored density above which a sparse tile densifies at kernel entry:
/// past it the dense loop beats the indexed sparse kernels.
pub const DENSIFY_ABOVE: f64 = 0.75;

/// Whether a *sparse-typed* tile of the given stored density should stay
/// on sparse kernels (`true`) or densify first (`false`).
pub fn keep_sparse(density: f64) -> bool {
    density <= DENSIFY_ABOVE
}

/// The kernel families whose choices are counted, in [`DispatchCounters`]
/// field order (a kind is its index in the context's tally).
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
    /// A sparse tile was densified before a dense kernel ran.
    Densified,
}

/// Records that a kernel (or a densification) ran, in the current
/// query's tally. Outside a query it records nothing.
pub fn note_kernel(kernel: Kernel) {
    if let Some(ctx) = QueryContext::current() {
        ctx.note(kernel as usize);
    }
}

/// Runs `f` on the current query's pool, or on the process pool outside
/// a query.
pub(crate) fn on_pool<R>(f: impl FnOnce(&WorkerPool) -> R) -> R {
    // Cloned out: `f` may help run another query's task, which enters
    // that query's context on this thread.
    match QueryContext::current() {
        Some(ctx) => f(ctx.pool()),
        None => f(lardb_pool::global()),
    }
}

/// The kernel choices counted in `ctx` so far.
pub fn counts(ctx: &QueryContext) -> DispatchCounters {
    DispatchCounters::from_fields(ctx.tally())
}

/// Counts of kernel choices, per kind: one query's (`ExecStats.dispatch`)
/// or a read of the process-wide `la.dispatch.*` metrics.
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
    /// Sparse tiles densified before a dense kernel.
    pub densified: u64,
}

impl DispatchCounters {
    fn from_fields([dense, spmv, sp_dense, spgemm, densified]: [u64; 5]) -> Self {
        DispatchCounters { dense, spmv, sp_dense, spgemm, densified }
    }

    fn fields(&self) -> [u64; 5] {
        [self.dense, self.spmv, self.sp_dense, self.spgemm, self.densified]
    }

    /// Elementwise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &DispatchCounters) -> DispatchCounters {
        let (a, b) = (self.fields(), earlier.fields());
        DispatchCounters::from_fields(std::array::from_fn(|k| a[k].saturating_sub(b[k])))
    }

    /// Elementwise sum (merging multi-statement workload stats).
    pub fn plus(&self, other: &DispatchCounters) -> DispatchCounters {
        let (a, b) = (self.fields(), other.fields());
        DispatchCounters::from_fields(std::array::from_fn(|k| a[k] + b[k]))
    }

    /// True when any kernel choice was recorded.
    pub fn any(&self) -> bool {
        *self != DispatchCounters::default()
    }
}

/// Each kind's `la.dispatch.<name>` metric, in field order.
const NAMES: [&str; 5] = ["dense", "spmv", "sp_dense", "spgemm", "densified"];

/// Adds one query's kernel choices to the `la.dispatch.*` metrics.
pub fn publish(d: &DispatchCounters) {
    if d.any() {
        let registry = lardb_obs::global();
        for (name, n) in NAMES.iter().zip(d.fields()) {
            registry.counter(&format!("la.dispatch.{name}")).add(n);
        }
    }
}

/// Reads the `la.dispatch.*` metrics: every query's kernel choices
/// published in this process so far.
pub fn dispatch_counters() -> DispatchCounters {
    let registry = lardb_obs::global();
    let read = |name| registry.counter(&format!("la.dispatch.{name}")).get();
    DispatchCounters::from_fields(NAMES.map(read))
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
    fn choices_count_in_the_entered_context_only() {
        use lardb_pool::CancelToken;
        note_kernel(Kernel::Spmv);
        let outer = QueryContext::new(CancelToken::new(), None, None);
        let inner = QueryContext::new(CancelToken::new(), None, None);
        {
            let _o = outer.enter();
            note_kernel(Kernel::SpGemm);
            {
                let _i = inner.enter();
                note_kernel(Kernel::Densified);
            }
            note_kernel(Kernel::SpGemm);
        }
        note_kernel(Kernel::Dense);
        assert!(QueryContext::current().is_none());
        let o = counts(&outer);
        assert_eq!(o, DispatchCounters { spgemm: 2, ..Default::default() });
        let i = counts(&inner);
        assert_eq!(i, DispatchCounters { densified: 1, ..Default::default() });
        assert_eq!(o.plus(&i).since(&i), o);
    }
}
