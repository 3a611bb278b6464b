//! The simulated shared-nothing cluster and its one scheduling call.
//!
//! A cluster is the query's shape — workers and pool — and nothing of
//! the query itself: the token and trace every task runs under come from
//! the calling thread's [`QueryContext`], which the pool carries into
//! each task.

use std::sync::Arc;

use lardb_pool::{CancelToken, QueryContext, WorkerPool};

use crate::{ExecError, Result};

/// The calling thread's query context. Outside any (a cluster driven
/// directly), a fresh one whose token nobody else holds.
pub(crate) fn context() -> QueryContext {
    QueryContext::current().unwrap_or_else(|| QueryContext::new(CancelToken::new(), None, None))
}

/// Records a worker failure on the query token: the first (non-cancel)
/// error flips the token and counts one `query.aborts`. Cancellation
/// errors themselves don't re-flip — they are the *effect* of an abort,
/// not a cause.
pub(crate) fn flag_abort(cancel: &CancelToken, e: &ExecError) {
    if matches!(e, ExecError::Cancelled(_)) {
        return;
    }
    if cancel.cancel() {
        lardb_obs::global().counter("query.aborts").inc();
    }
}

/// The error a set of sibling failures reports: the first, in the order
/// given, that is not a cancellation echo. `Cancelled` surfaces only when
/// every failure is one (KILL, disconnect, or a fault elsewhere in the
/// query). Shared by the task scheduler and the exchange threads.
pub(crate) fn root_cause(errors: impl IntoIterator<Item = ExecError>) -> Option<ExecError> {
    let mut echo = None;
    for e in errors {
        if !matches!(e, ExecError::Cancelled(_)) {
            return Some(e);
        }
        echo = echo.or(Some(e));
    }
    echo
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// A cluster of `W` shared-nothing workers.
///
/// Substitution note (see DESIGN.md): the paper ran on 10 EC2 machines with
/// Hadoop, one task per partition; here each "machine" is a *partition*
/// of every table and intermediate, and each stage runs one task per
/// partition on a persistent work-stealing [`WorkerPool`]. All dataflow
/// properties the paper measures — per-tuple fixed costs, shuffle volumes,
/// blocking amortization — are preserved, because partition *boundaries*
/// never change; only the mapping of partition work onto OS threads does.
/// So is the §5 load-imbalance pathology (hashing 100 blocks onto 80
/// cores): a heavy partition is one task, and its stage waits for it.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: usize,
    /// Partition tasks' and dense kernels' pool; `None` ⇒
    /// [`lardb_pool::global`].
    pub(crate) pool: Option<Arc<WorkerPool>>,
}

impl Cluster {
    /// A cluster with `workers` workers (≥ 1), scheduling on the global
    /// pool.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Cluster { workers, pool: None }
    }

    /// Schedules on a dedicated pool instead of the global one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Number of workers (== partitions of every table and intermediate).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool this cluster schedules on.
    pub fn pool(&self) -> &WorkerPool {
        match &self.pool {
            Some(p) => p,
            None => lardb_pool::global(),
        }
    }

    /// The one scheduling function: runs `f(index, item)` for every item
    /// as one task on the pool and returns the results in item order.
    /// Every stage that runs per partition (pipelines, hash joins,
    /// aggregates, exchange routing) is one call, one task per partition.
    ///
    /// Each task runs under the cancellation protocol of the calling
    /// thread's query: a cancelled query skips the work outright, and a
    /// task over a partition's rows polls the token itself as it goes. A
    /// failed task does not stop its siblings: every task runs to its own
    /// end, so each failing one reaches its own error and which error the
    /// call reports does not depend on timing. The call flips the query's
    /// token with that error once every task is done, which stops the
    /// rest of the query. When the query is traced, each task runs inside
    /// a `morsel` span (the trace's name for one pool task), so the flight
    /// recorder sees which pool thread ran each partition. The pool runs
    /// every task in the caller's context, so nothing is entered here.
    ///
    /// A task that panics surfaces as [`ExecError::Runtime`] instead of
    /// tearing down the process — a query must not crash the database.
    /// When several tasks fail, the first error in item order that is not
    /// a cancellation echo is returned; `Cancelled` surfaces only when no
    /// task has a root cause of its own (KILL, disconnect, or a failure in
    /// an earlier call under the same query).
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        let ctx = context();
        let cancel = ctx.cancel_token();
        let guarded = |i: usize, input: T| -> Result<R> {
            if cancel.is_cancelled() {
                return Err(ExecError::Cancelled(
                    "query cancelled before the task ran".into(),
                ));
            }
            let _span =
                ctx.trace().map(|t| t.span("morsel", "worker").arg("partition", i.to_string()));
            f(i, input)
        };
        // One task: run inline, no scheduling overhead (and bit-identical
        // to a sequential run).
        let results: Vec<Result<R>> = if items.len() <= 1 {
            items.into_iter().enumerate().map(|(i, input)| guarded(i, input)).collect()
        } else {
            let mut slots: Vec<Option<Result<R>>> = Vec::new();
            slots.resize_with(items.len(), || None);
            let scoped = self.pool().scope(|s| {
                for ((i, input), slot) in items.into_iter().enumerate().zip(slots.iter_mut()) {
                    let guarded = &guarded;
                    s.spawn(move || {
                        *slot = Some(guarded(i, input));
                    });
                }
            });
            if let Err(msg) = scoped {
                lardb_obs::global().counter("exec.worker_panics").inc();
                let e = ExecError::Runtime(format!("worker thread panicked: {msg}"));
                flag_abort(cancel, &e);
                return Err(e);
            }
            // An unfilled slot means the pool dropped a task without
            // running it — surface as an error instead of panicking the
            // coordinating thread.
            slots
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| {
                        Err(ExecError::Runtime("pool dropped a task unrun".into()))
                    })
                })
                .collect()
        };
        let mut out = Vec::with_capacity(results.len());
        let mut errors = Vec::new();
        for r in results {
            match r {
                Ok(v) => out.push(v),
                Err(e) => errors.push(e),
            }
        }
        match root_cause(errors) {
            Some(e) => {
                flag_abort(cancel, &e);
                Err(e)
            }
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let c = Cluster::new(4);
        let out = c
            .par_map((0..8).collect::<Vec<i32>>(), |i, x| Ok((i, x * 2)))
            .unwrap();
        assert_eq!(out.len(), 8);
        for (i, (wi, v)) in out.iter().enumerate() {
            assert_eq!(*wi, i);
            assert_eq!(*v, (i as i32) * 2);
        }
    }

    #[test]
    fn par_map_propagates_errors() {
        let c = Cluster::new(2);
        let out: Result<Vec<i32>> = c.par_map(vec![1, 2, 3], |_, x| {
            if x == 2 {
                Err(ExecError::Runtime("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn single_item_runs_inline() {
        let c = Cluster::new(8);
        let out = c.par_map(vec![42], |i, x| Ok(i + x)).unwrap();
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn par_map_converts_worker_panics_to_errors() {
        // Also on a pool far wider than the machine (oversubscribed).
        for width in [2, 64] {
            let c = Cluster::new(2).with_pool(Arc::new(WorkerPool::new(width)));
            let out: Result<Vec<i32>> = c.par_map(vec![1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("kaboom on {x}");
                }
                Ok(x)
            });
            match out {
                Err(ExecError::Runtime(msg)) => {
                    assert!(msg.contains("kaboom"), "pool of {width}: {msg}")
                }
                other => panic!("pool of {width}: expected Runtime error, got {other:?}"),
            }
        }
    }

    /// A fresh query context, entered until the guard drops.
    fn query() -> (CancelToken, lardb_pool::Entered) {
        let ctx = QueryContext::new(CancelToken::new(), None, None);
        (ctx.cancel_token().clone(), ctx.enter())
    }

    #[test]
    fn root_cause_beats_cancellation_echo() {
        // Task 0 waits for the token to flip and reports the echo; task 1
        // holds the real error, and a KILL flips the token as it fails.
        // The call must report the real one.
        let c = Cluster::new(2).with_pool(Arc::new(WorkerPool::new(2)));
        let (token, _query) = query();
        let err = c
            .par_map(vec![0, 1], |_, i| -> Result<()> {
                if i == 0 {
                    while !token.is_cancelled() {
                        std::thread::yield_now();
                    }
                    Err(ExecError::Cancelled("query killed".into()))
                } else {
                    token.cancel();
                    Err(ExecError::Runtime("root cause".into()))
                }
            })
            .unwrap_err();
        assert!(matches!(&err, ExecError::Runtime(m) if m == "root cause"), "reported {err:?}");
    }

    #[test]
    fn root_cause_is_first_non_cancelled_in_order() {
        let echo = |m: &str| ExecError::Cancelled(m.into());
        let fault = |m: &str| ExecError::Runtime(m.into());
        // The exchange's shape: a low-index sender echoes the abort, a
        // later receiver holds the fault that caused it.
        assert_eq!(
            root_cause([echo("sender 0"), echo("sender 1"), fault("receiver 2"), fault("receiver 3")]),
            Some(fault("receiver 2")),
        );
        // Only echoes: the first one is reported.
        assert_eq!(root_cause([echo("a"), echo("b")]), Some(echo("a")));
        assert_eq!(root_cause([]), None);
    }

    /// Task 1 fails first. Tasks 0 and 2 wait for that, are not stopped
    /// by it and reach their own errors; the call reports task 0's, the
    /// first in task order, and flips the token once it is done.
    #[test]
    fn the_first_error_in_task_order_wins() {
        let c = Cluster::new(3).with_pool(Arc::new(WorkerPool::new(3)));
        let (token, _query) = query();
        let one_failed = AtomicBool::new(false);
        let stopped = AtomicBool::new(false);
        let err = c
            .par_map(vec![0, 1, 2], |_, i| -> Result<()> {
                if i == 1 {
                    one_failed.store(true, Ordering::SeqCst);
                    return Err(ExecError::Runtime("task 1".into()));
                }
                while !one_failed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Past task 1's own bookkeeping too.
                std::thread::sleep(std::time::Duration::from_millis(20));
                stopped.fetch_or(token.is_cancelled(), Ordering::SeqCst);
                Err(ExecError::Runtime(format!("task {i}")))
            })
            .unwrap_err();
        assert!(!stopped.load(Ordering::SeqCst), "task 1's failure stopped a sibling");
        assert_eq!(err, ExecError::Runtime("task 0".into()));
        assert!(token.is_cancelled());
    }

    #[test]
    fn first_error_cancels_siblings() {
        // After one item fails, later items of the same query see the
        // flipped token and come back Cancelled instead of running.
        let c = Cluster::new(2);
        let (token, _query) = query();
        let _ = c.par_map(vec![1], |_, _| -> Result<i32> {
            Err(ExecError::Runtime("first failure".into()))
        });
        assert!(token.is_cancelled());
        let out: Result<Vec<i32>> = c.par_map(vec![1], |_, x| Ok(x));
        assert!(matches!(out, Err(ExecError::Cancelled(_))), "got {out:?}");
    }

    #[test]
    fn cancel_token_flips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.cancel(), "first cancel must win");
        assert!(!t.cancel(), "second cancel must lose");
        assert!(t.is_cancelled());
    }
}
