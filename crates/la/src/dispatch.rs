//! Density-adaptive kernel dispatch, and the per-query kernel context.
//!
//! Dense-typed tiles always run the dense loops in [`crate::gemm`]; this
//! module decides what happens to *sparse-typed* tiles:
//!
//! * [`keep_sparse`] picks per tile from its stored density against
//!   [`DENSIFY_ABOVE`] — the input decides, there is no setting;
//! * [`note_kernel`] counts each choice in the thread's [`KernelContext`],
//!   the query's own tally: `ExecStats.dispatch`, [`publish`]ed as the
//!   `la.dispatch.*` metrics. The context also names the query's pool.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lardb_pool::WorkerPool;

/// Stored density above which a sparse tile densifies at kernel entry:
/// past it the dense loop beats the indexed sparse kernels.
pub const DENSIFY_ABOVE: f64 = 0.75;

/// Whether a *sparse-typed* tile of the given stored density should stay
/// on sparse kernels (`true`) or densify first (`false`).
pub fn keep_sparse(density: f64) -> bool {
    density <= DENSIFY_ABOVE
}

/// The kernel families whose choices are counted, in [`DispatchCounters`]
/// field order.
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

/// One query's kernel context, shared by every thread running its work:
/// its dense kernels' pool (`None` ⇒ the process pool) and choice tally.
#[derive(Debug, Clone)]
pub struct KernelContext {
    pool: Option<Arc<WorkerPool>>,
    tally: Arc<[AtomicU64; 5]>,
}

impl KernelContext {
    /// A fresh context with an empty tally, fanning out on `pool`.
    pub fn new(pool: Option<Arc<WorkerPool>>) -> Self {
        KernelContext { pool, tally: Arc::default() }
    }

    /// The kernel choices counted so far.
    pub fn counts(&self) -> DispatchCounters {
        DispatchCounters::from_fields(self.tally.each_ref().map(|n| n.load(Ordering::Relaxed)))
    }
}

thread_local! {
    static CURRENT: RefCell<Option<KernelContext>> = const { RefCell::new(None) };
}

/// The calling thread's kernel context, if it runs a query's work.
pub fn current() -> Option<KernelContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Makes `ctx` the thread's kernel context until the guard drops and
/// restores the previous one (a scope waiter's own, after helping a task).
pub fn enter(ctx: Option<KernelContext>) -> Entered {
    Entered(CURRENT.with(|c| c.replace(ctx)))
}

/// Restores the previously-current kernel context when dropped.
#[derive(Debug)]
pub struct Entered(Option<KernelContext>);

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.0.take()));
    }
}

/// Records that a kernel (or a densification) ran, in the current
/// query's tally. Outside a query it records nothing.
pub fn note_kernel(kernel: Kernel) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.tally[kernel as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Runs `f` on the current query's pool, or on the process pool outside
/// a query or for a query without a pool of its own.
pub(crate) fn on_pool<R>(f: impl FnOnce(&WorkerPool) -> R) -> R {
    // Cloned out: `f` may help run another query's task, which enters
    // that query's context on this thread.
    let pool = CURRENT.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.pool.clone()));
    f(pool.as_deref().unwrap_or_else(|| lardb_pool::global()))
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
        note_kernel(Kernel::Spmv);
        let outer = KernelContext::new(None);
        let inner = KernelContext::new(None);
        {
            let _o = enter(Some(outer.clone()));
            note_kernel(Kernel::SpGemm);
            {
                let _i = enter(Some(inner.clone()));
                note_kernel(Kernel::Densified);
            }
            note_kernel(Kernel::SpGemm);
        }
        note_kernel(Kernel::Dense);
        assert!(current().is_none());
        let o = outer.counts();
        assert_eq!(o, DispatchCounters { spgemm: 2, ..Default::default() });
        let i = inner.counts();
        assert_eq!(i, DispatchCounters { densified: 1, ..Default::default() });
        assert_eq!(o.plus(&i).since(&i), o);
    }
}
