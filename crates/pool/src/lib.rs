//! # lardb-pool — the persistent work-stealing worker pool
//!
//! Task parallelism for the whole engine (see DESIGN.md "Scheduling").
//! One [`WorkerPool`] owns a fixed set of long-lived OS threads, each
//! with its own task deque; idle workers steal from the
//! back of busy workers' deques. Callers submit work through
//! [`WorkerPool::scope`], which hands out a [`Scope`] that can spawn
//! closures borrowing from the caller's stack — the scope blocks until
//! every spawned task has finished, which is what makes the lifetime
//! erasure inside sound.
//!
//! Two properties matter for the engine:
//!
//! * **Stealing.** The engine spawns one task per partition, and a dense
//!   kernel one per cache block; once an idle worker runs dry it steals
//!   queued tasks from a loaded worker's deque instead of sitting out the
//!   stage.
//! * **No per-operator thread spawns.** Threads are created once per
//!   pool (once per process for [`global()`]), not once per partition
//!   per operator, so operator boundaries cost a queue push, not a
//!   `clone(2)`.
//!
//! Waiting threads *help*: while a scope has unfinished tasks, the
//! waiter pops and runs pool tasks itself rather than blocking, so a
//! task that opens a nested scope (e.g. a partition closure scheduling
//! GEMM cache-block tasks) can never deadlock the pool.
//!
//! The pool feeds `lardb-obs`: `pool.morsels` (tasks run) /
//! `pool.steals` counters, a `pool.queue_wait_us` histogram (push-to-pop
//! latency), and
//! `pool.size` / `pool.busy` gauges summed over live pools — all visible
//! via `SHOW METRICS`.
//!
//! The crate also owns [`QueryContext`], the one carrier of a query's
//! state (cancel token, trace, pool, kernel tally), kept in the crate's
//! only thread-local. Every task runs inside its spawner's context, so a
//! worker that runs (or, waiting, helps run) another query's task works
//! for that query and then gets its own context back; a traced task also
//! records a `pool.wait` span (push-to-pop latency, steal flag included).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use lardb_obs::{Counter, Gauge, Histogram};

mod context;

pub use context::{CancelToken, Entered, QueryContext, TALLY_KINDS};

/// One queued unit of work, tagged with its submission time (for the
/// queue-wait histogram) and home queue (to tell steals from local pops).
/// Tasks carry the spawning thread's query context, so work that hops
/// threads stays its query's, and the scope they complete.
struct Task {
    run: Box<dyn FnOnce() + Send>,
    pushed: Instant,
    home: usize,
    ctx: Option<QueryContext>,
    group: Arc<Group>,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One deque per worker. Owners pop the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Coordination for sleeping workers and waiters.
    gate: Mutex<()>,
    cv: Condvar,
    /// Total tasks sitting in queues (checked under `gate` before
    /// sleeping, incremented before notify — prevents lost wakeups).
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Round-robin cursor for picking a home queue.
    next_home: AtomicUsize,
    // Cached metric handles so the hot path never takes the registry lock.
    morsels: Arc<Counter>,
    steals: Arc<Counter>,
    queue_wait_us: Arc<Histogram>,
    busy: Arc<Gauge>,
}

impl Shared {
    /// Pushes a task onto its home queue and wakes a sleeper.
    fn push(&self, task: Task) {
        self.queues[task.home]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
        self.queued.fetch_add(1, Ordering::SeqCst);
        let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Takes a task, preferring `who`'s own queue (front), then stealing
    /// from the back of the others. Returns the task and whether it was
    /// stolen.
    fn take(&self, who: usize) -> Option<(Task, bool)> {
        let n = self.queues.len();
        for k in 0..n {
            let q = (who + k) % n;
            let task = {
                let mut queue =
                    self.queues[q].lock().unwrap_or_else(|e| e.into_inner());
                if k == 0 {
                    queue.pop_front()
                } else {
                    queue.pop_back()
                }
            };
            if let Some(task) = task {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                let stolen = k != 0;
                return Some((task, stolen));
            }
        }
        None
    }

    /// Runs one task inside its spawner's context, maintaining the pool
    /// metrics, then tells its scope. A traced task's push-to-pop latency
    /// is recorded as a `pool.wait` span — only the pool sees the enqueue
    /// point, so this can't be measured elsewhere.
    fn run_task(&self, task: Task, stolen: bool) {
        let Task { run, pushed, home, ctx, group } = task;
        let waited = pushed.elapsed();
        self.queue_wait_us.observe(waited.as_micros() as u64);
        self.morsels.inc();
        if stolen {
            self.steals.inc();
        }
        if let Some(t) = ctx.as_ref().and_then(QueryContext::trace) {
            t.record(
                "pool.wait",
                "pool",
                pushed,
                waited,
                vec![("stolen", stolen.to_string()), ("home", home.to_string())],
            );
        }
        {
            // Restored before the scope hears of it: once it has, the
            // spawner may return and drop the last handle to what the
            // context holds (this very pool, say).
            let _ctx = context::install(ctx);
            self.busy.add(1.0);
            run();
            self.busy.add(-1.0);
        }
        if group.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Wake waiters parked on the gate (under the lock, so the
            // wakeup races neither the waiter's check nor its wait).
            let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Worker main loop: drain tasks, sleep when every queue is empty.
    fn worker_loop(&self, index: usize) {
        loop {
            if let Some((task, stolen)) = self.take(index) {
                self.run_task(task, stolen);
                continue;
            }
            let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.queued.load(Ordering::SeqCst) == 0 {
                // Wait releases `gate`, so a push's notify cannot be lost:
                // pushes bump `queued` first and notify under `gate`.
                drop(self.cv.wait(guard).unwrap_or_else(|e| e.into_inner()));
            }
        }
    }
}

/// Bookkeeping for one [`Scope`]'s spawned tasks.
#[derive(Default)]
struct Group {
    pending: AtomicUsize,
    panic: Mutex<Option<String>>,
}

impl Group {
    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic payload".to_string()
        };
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(msg);
    }
}

/// A persistent pool of worker threads with per-worker work-stealing
/// deques. Dropping the pool shuts the threads down (pending tasks are
/// discarded, which is safe because every [`scope`](WorkerPool::scope)
/// blocks until its own tasks finish — a live scope keeps the pool
/// borrowed and therefore alive).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers()).finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let registry = lardb_obs::global();
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            next_home: AtomicUsize::new(0),
            morsels: registry.counter("pool.morsels"),
            steals: registry.counter("pool.steals"),
            queue_wait_us: registry.histogram("pool.queue_wait_us"),
            busy: registry.gauge("pool.busy"),
        });
        registry.gauge("pool.size").add(workers as f64);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lardb-pool-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs `f` with a [`Scope`] that can spawn tasks borrowing from the
    /// caller's stack frame, then blocks (helping to drain the pool)
    /// until every spawned task has completed.
    ///
    /// Returns `Err(message)` if any spawned task panicked (first panic
    /// wins); `f`'s own panic propagates after all tasks finish.
    pub fn scope<'env, F, R>(&self, f: F) -> Result<R, String>
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let group = Arc::new(Group::default());
        let scope = Scope {
            pool: self,
            group: Arc::clone(&group),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain before returning or unwinding: tasks may borrow
        // the caller's frame (soundness of the 'env erasure in spawn).
        self.wait(&group);
        let out = match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        };
        let panicked =
            group.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        match panicked {
            Some(msg) => Err(msg),
            None => Ok(out),
        }
    }

    /// Blocks until `group` completes, executing pool tasks while any
    /// are runnable (help-first waiting — this is what makes nested
    /// scopes deadlock-free even on a 1-worker pool).
    fn wait(&self, group: &Group) {
        let shared = &self.shared;
        while group.pending.load(Ordering::SeqCst) != 0 {
            if let Some((task, stolen)) = shared.take(0) {
                shared.run_task(task, stolen);
                continue;
            }
            let guard = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            if group.pending.load(Ordering::SeqCst) != 0
                && shared.queued.load(Ordering::SeqCst) == 0
            {
                drop(shared.cv.wait(guard).unwrap_or_else(|e| e.into_inner()));
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _g = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        lardb_obs::global().gauge("pool.size").add(-(self.workers() as f64));
    }
}

/// Spawns tasks into a [`WorkerPool`] on behalf of one
/// [`WorkerPool::scope`] call. Tasks may borrow anything outliving the
/// scope (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    group: Arc<Group>,
    // Invariant over 'env, mirroring std::thread::Scope.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queues `f` onto the pool. The enclosing scope will not return
    /// before `f` has run to completion.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let shared = &self.pool.shared;
        let home = shared.next_home.fetch_add(1, Ordering::Relaxed)
            % shared.queues.len();
        self.group.pending.fetch_add(1, Ordering::SeqCst);
        let group = Arc::clone(&self.group);
        let body: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                group.record_panic(payload.as_ref());
            }
        });
        // Erase 'env. Sound because `scope` (and its panic path) block on
        // group completion before the borrowed frame can be left, and
        // `run_task` completes the group only after the body has run.
        let body: Box<dyn FnOnce() + Send + 'static> =
            unsafe { std::mem::transmute(body) };
        shared.push(Task {
            run: body,
            pushed: Instant::now(),
            home,
            ctx: QueryContext::current(),
            group: Arc::clone(&self.group),
        });
    }
}

/// The process pool, created on first use with one thread per core. Like
/// the metrics registry it belongs to the process by design: it serves
/// clusters built without a pool and LA called outside any query.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = WorkerPool::new(4);
        let sum = AtomicI64::new(0);
        pool.scope(|s| {
            for i in 0..100i64 {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(i, Ordering::SeqCst);
                });
            }
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::SeqCst), (0..100).sum::<i64>());
    }

    #[test]
    fn scope_writes_into_disjoint_slots() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 64];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * 2);
            }
        })
        .unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn task_panic_reported_not_fatal() {
        let pool = WorkerPool::new(2);
        let err = pool
            .scope(|s| {
                s.spawn(|| panic!("morsel exploded"));
                s.spawn(|| {});
            })
            .unwrap_err();
        assert!(err.contains("morsel exploded"), "{err}");
        // The pool survives and runs later scopes.
        assert!(pool.scope(|s| s.spawn(|| {})).is_ok());
    }

    #[test]
    fn nested_scopes_do_not_deadlock_on_one_worker() {
        let pool = WorkerPool::new(1);
        let total = AtomicI64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn skewed_work_is_stolen() {
        // Many tiny tasks on a small pool: steals must occur (the
        // round-robin home assignment plus help-first waiting guarantee
        // cross-queue traffic).
        let before = lardb_obs::global().counter("pool.morsels").get();
        let pool = WorkerPool::new(4);
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..256 {
                s.spawn(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 256);
        let after = lardb_obs::global().counter("pool.morsels").get();
        assert!(after >= before + 256, "morsel counter advanced");
    }

    #[test]
    fn sequential_scopes_reuse_threads() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
            .unwrap();
            assert_eq!(hits.load(Ordering::SeqCst), 8, "round {round}");
        }
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = global();
        let p2 = global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.workers() >= 1);
    }

    #[test]
    fn scope_value_is_returned() {
        let pool = WorkerPool::new(2);
        let v = pool.scope(|_| 42).unwrap();
        assert_eq!(v, 42);
    }
}
