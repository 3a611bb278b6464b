//! A dense product goes to the worker pool only when it splits into at
//! least two morsels. The `pool.morsels` counter is process-wide, so this
//! is the only test in its binary.

use std::sync::Arc;

use lardb_la::Matrix;
use lardb_pool::{CancelToken, QueryContext, WorkerPool};

/// Multiplies `m × 128` by `128 × 128` in a traced query context on a
/// four-worker pool; returns the `pool.wait` spans recorded and the
/// morsels counted.
fn traced_multiply(pool: &Arc<WorkerPool>, m: usize) -> (usize, u64) {
    let a = Matrix::from_fn(m, 128, |i, j| (i + 2 * j) as f64);
    let b = Matrix::from_fn(128, 128, |i, j| (3 * i + j) as f64);
    let recorder = lardb_obs::recorder();
    let trace = recorder.start_forced("gemm", "test");
    let morsels = lardb_obs::global().counter("pool.morsels");
    let before = morsels.get();
    {
        let pool = Some(Arc::clone(pool));
        let _entered = QueryContext::new(CancelToken::new(), Some(trace.clone()), pool).enter();
        a.multiply(&b).unwrap();
    }
    let waits = trace.events().iter().filter(|e| e.name == "pool.wait").count();
    recorder.finish(&trace, None);
    (waits, morsels.get() - before)
}

#[test]
fn a_single_morsel_product_does_not_open_a_pool_scope() {
    let pool = Arc::new(WorkerPool::new(4));
    // 128³ is above the flop cutoff but is one morsel: the tile product of
    // `matmul_tiled_ooc`, which used to box, push, wake and wait for it.
    assert_eq!(traced_multiply(&pool, 128), (0, 0));
    // One more row makes it two, and those do go to the pool.
    assert_eq!(traced_multiply(&pool, 129), (2, 2));
}
