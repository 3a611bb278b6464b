//! The pool gauges sum over every live pool. This binary holds one test
//! because the metrics registry is process-wide: no other pool may run
//! beside it.

use std::sync::Barrier;

use lardb_pool::WorkerPool;

#[test]
fn size_and_busy_sum_over_live_pools() {
    let registry = lardb_obs::global();
    let (size, busy) = (registry.gauge("pool.size"), registry.gauge("pool.busy"));
    let (size0, busy0) = (size.get(), busy.get());

    let two = WorkerPool::new(2);
    let three = WorkerPool::new(3);
    assert_eq!(size.get(), size0 + 5.0);

    // Three tasks parked on the 3-thread pool's workers, while the
    // spawning thread (which would otherwise help) waits outside them.
    // Read before the release and asserted after it, so a failure
    // cannot leave the tasks parked.
    let (parked, release) = (Barrier::new(4), Barrier::new(4));
    let running = three
        .scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    parked.wait();
                    release.wait();
                });
            }
            parked.wait();
            let running = busy.get();
            release.wait();
            running
        })
        .unwrap();
    assert_eq!(running, busy0 + 3.0);

    // Dropping joins the workers, so every task has left the gauge.
    drop(two);
    drop(three);
    assert_eq!(size.get(), size0);
    assert_eq!(busy.get(), busy0);
}
