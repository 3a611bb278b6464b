//! The query context: the state one query carries, in one value.
//!
//! The calling thread's [`QueryContext`] lives in this crate's only
//! thread-local: [`QueryContext::enter`] installs one until its guard
//! drops, and every pool task runs inside its spawner's, so leaf code
//! (kernels, spill files, the memory governor) finds its query with no
//! parameter.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lardb_obs::ActiveTrace;

use crate::WorkerPool;

/// A query-wide cancellation flag: a failed stage flips it (so do `KILL`
/// and a client disconnect), and every worker checks it at task and
/// chunk boundaries and exchange senders before each frame, so a failing
/// query stops instead of draining work whose result will be discarded.
/// Clones share the flag; it is never re-armed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flips the token. Returns `true` only for the flipping caller —
    /// the winner of the race is the query's *first* failure.
    pub fn cancel(&self) -> bool {
        !self.0.swap(true, Ordering::AcqRel)
    }

    /// True once the query has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Kinds in a context's kernel tally (`lardb_la::dispatch::Kernel`).
pub const TALLY_KINDS: usize = 5;

/// One query's cancel token, trace, pool and kernel tally, shared by every
/// thread running its work. Clones share it.
#[derive(Debug, Clone)]
pub struct QueryContext(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    cancel: CancelToken,
    trace: Option<Arc<ActiveTrace>>,
    /// `None` ⇒ the process pool.
    pool: Option<Arc<WorkerPool>>,
    tally: [AtomicU64; TALLY_KINDS],
}

thread_local! {
    static CURRENT: RefCell<Option<QueryContext>> = const { RefCell::new(None) };
}

impl QueryContext {
    /// A context with an empty tally, running on `pool` (`None` ⇒ the
    /// process pool).
    pub fn new(
        cancel: CancelToken,
        trace: Option<Arc<ActiveTrace>>,
        pool: Option<Arc<WorkerPool>>,
    ) -> Self {
        QueryContext(Arc::new(Inner { cancel, trace, pool, tally: Default::default() }))
    }

    /// A context under this one: the same trace, `cancel`, `pool` and an
    /// empty tally.
    pub fn child(&self, cancel: CancelToken, pool: Option<Arc<WorkerPool>>) -> Self {
        QueryContext::new(cancel, self.0.trace.clone(), pool)
    }

    /// The calling thread's context, if it runs a query's work.
    pub fn current() -> Option<QueryContext> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Makes this the thread's context until the guard drops, which
    /// restores the previous one.
    pub fn enter(&self) -> Entered {
        install(Some(self.clone()))
    }

    /// The query's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.0.cancel
    }

    /// The query's trace, if it is sampled.
    pub fn trace(&self) -> Option<&Arc<ActiveTrace>> {
        self.0.trace.as_ref()
    }

    /// The pool the query's work runs on.
    pub fn pool(&self) -> &WorkerPool {
        self.0.pool.as_deref().unwrap_or_else(|| crate::global())
    }

    /// Counts one kernel of kind `kind` (< [`TALLY_KINDS`]).
    pub fn note(&self, kind: usize) {
        self.0.tally[kind].fetch_add(1, Ordering::Relaxed);
    }

    /// The kernels counted so far, per kind.
    pub fn tally(&self) -> [u64; TALLY_KINDS] {
        self.0.tally.each_ref().map(|n| n.load(Ordering::Relaxed))
    }
}

/// Makes `ctx` the thread's context (`None`: no query's) until the guard
/// drops.
pub(crate) fn install(ctx: Option<QueryContext>) -> Entered {
    Entered(CURRENT.with(|c| c.replace(ctx)))
}

/// Restores the previously-current context when dropped.
#[derive(Debug)]
#[must_use = "the context is left as soon as the guard drops"]
pub struct Entered(Option<QueryContext>);

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| c.replace(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_obs::recorder;
    use std::sync::Mutex;

    #[test]
    fn context_nests_and_restores() {
        let trace = |ctx: Option<QueryContext>| ctx.and_then(|c| c.trace().cloned());
        assert!(QueryContext::current().is_none());
        let t = recorder().start_forced("SELECT 1", "test");
        let outer = QueryContext::new(CancelToken::new(), Some(Arc::clone(&t)), None);
        {
            let _g = outer.enter();
            assert_eq!(trace(QueryContext::current()).unwrap().id(), t.id());
            {
                let _inner = QueryContext::new(CancelToken::new(), None, None).enter();
                assert!(trace(QueryContext::current()).is_none());
            }
            assert_eq!(trace(QueryContext::current()).unwrap().id(), t.id());
        }
        assert!(QueryContext::current().is_none());
        recorder().finish(&t, None);
    }

    /// What a task saw of its context: trace id, tally, token flag.
    type Seen = (Option<u64>, [u64; TALLY_KINDS], bool);

    fn seen() -> Seen {
        let ctx = QueryContext::current().expect("a task runs in a context");
        (ctx.trace().map(|t| t.id().0), ctx.tally(), ctx.cancel_token().is_cancelled())
    }

    #[test]
    fn a_helping_waiter_runs_a_task_in_its_spawners_context_then_gets_its_own_back() {
        let pool = WorkerPool::new(1);
        let a_trace = recorder().start_forced("A", "test");
        let b_trace = recorder().start_forced("B", "test");
        let a = QueryContext::new(CancelToken::new(), Some(Arc::clone(&a_trace)), None);
        let b = QueryContext::new(CancelToken::new(), Some(Arc::clone(&b_trace)), None);
        b.note(3);
        b.cancel_token().cancel();
        let (a_started, b_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let waiter = Mutex::new(None);
        let ran_b = Mutex::new(None);
        let spin = |flag: &AtomicBool| {
            while !flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _a = a.enter();
                *waiter.lock().unwrap() = Some(std::thread::current().id());
                pool.scope(|scope| {
                    scope.spawn(|| {
                        a_started.store(true, Ordering::SeqCst);
                        spin(&b_ran);
                    });
                    // Not waiting yet, so the pool's one worker takes it
                    // and stays busy until B's task has run.
                    spin(&a_started);
                })
                .unwrap();
                let back = QueryContext::current().expect("the waiter's context is back");
                assert_eq!(back.trace().unwrap().id(), a_trace.id());
                assert_eq!(back.tally(), [0; TALLY_KINDS]);
            });
            spin(&a_started);
            s.spawn(|| {
                let _b = b.enter();
                pool.scope(|scope| {
                    scope.spawn(|| {
                        *ran_b.lock().unwrap() = Some((seen(), std::thread::current().id()));
                        b_ran.store(true, Ordering::SeqCst);
                    });
                    // This thread never waits, so only A's waiter is free.
                    spin(&b_ran);
                })
                .unwrap();
            });
        });
        let (seen_b, thread) = ran_b.into_inner().unwrap().unwrap();
        assert_eq!(Some(thread), waiter.into_inner().unwrap(), "A's waiter ran B's task");
        assert_eq!(seen_b, (Some(b_trace.id().0), [0, 0, 0, 1, 0], true));
        recorder().finish(&a_trace, None);
        recorder().finish(&b_trace, None);
    }

    #[test]
    fn a_task_spawned_by_a_task_sees_its_spawners_context() {
        let pool = WorkerPool::new(2);
        let t = recorder().start_forced("nested", "test");
        let ctx = QueryContext::new(CancelToken::new(), Some(Arc::clone(&t)), None);
        ctx.note(0);
        let inner: Mutex<Vec<Seen>> = Mutex::new(Vec::new());
        {
            let _e = ctx.enter();
            pool.scope(|outer| {
                for _ in 0..4 {
                    outer.spawn(|| {
                        pool.scope(|s| {
                            for _ in 0..4 {
                                s.spawn(|| inner.lock().unwrap().push(seen()));
                            }
                        })
                        .unwrap();
                    });
                }
            })
            .unwrap();
        }
        let inner = inner.into_inner().unwrap();
        assert_eq!(inner.len(), 16);
        assert!(inner.iter().all(|s| *s == (Some(t.id().0), [1, 0, 0, 0, 0], false)), "{inner:?}");
        assert!(QueryContext::current().is_none());
        recorder().finish(&t, None);
    }
}
