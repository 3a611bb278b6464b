//! The simulated shared-nothing cluster and its morsel scheduler.
//!
//! A cluster is the query's shape — workers, pool, morsel size — and
//! nothing of the query itself: the token and trace every task runs
//! under come from the calling thread's [`QueryContext`], which the pool
//! carries into each task.

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

/// Default rows per morsel. Small enough that a skewed partition splits
/// into many stealable pieces, large enough that per-morsel scheduling
/// cost is noise. No result depends on it: morsels carry row-at-a-time
/// work (filters and projections over materialized rows, exchange
/// routing) whose outputs reassemble in row order, and joins and
/// aggregates run each partition whole.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// A cluster of `W` shared-nothing workers.
///
/// Substitution note (see DESIGN.md): the paper ran on 10 EC2 machines with
/// Hadoop; here each "machine" is a *partition* of every table and
/// intermediate, and the per-partition work is scheduled on a persistent
/// work-stealing [`WorkerPool`] as row-range morsels. All dataflow
/// properties the paper measures — per-tuple fixed costs, shuffle volumes,
/// blocking amortization — are preserved, because partition *boundaries*
/// never change; only the mapping of partition work onto OS threads does.
/// The §5 load-imbalance pathology (hashing 100 blocks onto 80 cores) is
/// what the morsel scheduler removes: idle workers steal morsels from a
/// heavy partition instead of waiting for it.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: usize,
    /// Morsels' and dense kernels' pool; `None` ⇒ [`lardb_pool::global`].
    pub(crate) pool: Option<Arc<WorkerPool>>,
    morsel_rows: usize,
}

impl Cluster {
    /// A cluster with `workers` workers (≥ 1), scheduling on the global
    /// pool with default morsel size.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Cluster { workers, pool: None, morsel_rows: DEFAULT_MORSEL_ROWS }
    }

    /// Schedules on a dedicated pool instead of the global one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the morsel size in rows (clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Number of workers (== partitions of every table and intermediate).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Rows per scheduled morsel.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// The pool this cluster schedules on.
    pub fn pool(&self) -> &WorkerPool {
        match &self.pool {
            Some(p) => p,
            None => lardb_pool::global(),
        }
    }

    /// Runs `f(worker_index, item)` for every item in parallel, preserving
    /// item order in the result. A worker that panics surfaces as
    /// [`ExecError::Runtime`], and when several fail the first root cause
    /// in item order wins over any `Cancelled` echo.
    ///
    /// Used for partition-granular stages (hash joins, aggregates, sorts,
    /// frame encoding); row-granular stages go through
    /// [`Self::morsel_map`].
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        self.run_tasks(items.into_iter().enumerate().collect(), f)
    }

    /// Runs `f(partition, morsel_rows)` over every partition of `parts`,
    /// splitting each partition into row-range morsels of
    /// [`Self::morsel_rows`] rows scheduled together on the pool — so
    /// workers drain a skewed partition's tail instead of idling.
    ///
    /// Returns, per partition, the morsel results **in ascending row
    /// order** (deterministic regardless of which worker ran what), so
    /// concatenating them gives what one pass over the partition would.
    /// A morsel's result may therefore depend only on its own rows, never
    /// on where the partition was cut: no caller folds a partition's
    /// morsels into one state (aggregates run per partition through
    /// [`Self::par_map`]). Every partition yields at least one morsel, so
    /// empty partitions still produce one result.
    pub fn morsel_map<T, R, F>(&self, parts: Vec<Vec<T>>, f: F) -> Result<Vec<Vec<R>>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, Vec<T>) -> Result<R> + Sync,
    {
        // Split partitions into (partition, rows) morsels, partition-major.
        let num_parts = parts.len();
        let mut morsels: Vec<(usize, Vec<T>)> = Vec::new();
        for (p, rows) in parts.into_iter().enumerate() {
            morsels.extend(chunk_rows(rows, self.morsel_rows).into_iter().map(|c| (p, c)));
        }
        let homes: Vec<usize> = morsels.iter().map(|&(p, _)| p).collect();
        // Reassemble per partition, morsel order preserved.
        let mut out: Vec<Vec<R>> = (0..num_parts).map(|_| Vec::new()).collect();
        for (p, r) in homes.into_iter().zip(self.run_tasks(morsels, f)?) {
            out[p].push(r);
        }
        Ok(out)
    }

    /// The one scheduling function: runs `f(index, input)` for every task
    /// on the pool and returns the results in task order.
    ///
    /// Each task runs under the cancellation protocol of the calling
    /// thread's query: a cancelled query skips the work outright
    /// (morsel-boundary abort). A failed task does not stop its siblings:
    /// every task runs to its own end, so each failing one reaches its own
    /// error and which error the call reports does not depend on timing.
    /// The call flips the query's token with that error once every task
    /// is done, which stops the rest of the query. When the query is
    /// traced, each task runs inside a per-morsel span, so the flight
    /// recorder sees which pool thread ran each morsel. The pool runs every
    /// task in the caller's context, so nothing is entered here.
    ///
    /// A task that panics surfaces as [`ExecError::Runtime`] instead of
    /// tearing down the process — a query must not crash the database.
    /// When several tasks fail, the first error in task order that is not
    /// a cancellation echo is returned; `Cancelled` surfaces only when no
    /// task has a root cause of its own (KILL, disconnect, or a failure in
    /// an earlier call under the same query).
    fn run_tasks<T, R, F>(&self, tasks: Vec<(usize, T)>, f: F) -> Result<Vec<R>>
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
        let results: Vec<Result<R>> = if tasks.len() <= 1 {
            tasks.into_iter().map(|(i, input)| guarded(i, input)).collect()
        } else {
            let mut slots: Vec<Option<Result<R>>> = Vec::new();
            slots.resize_with(tasks.len(), || None);
            let scoped = self.pool().scope(|s| {
                for ((i, input), slot) in tasks.into_iter().zip(slots.iter_mut()) {
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

/// Splits `rows` into chunks of ≤ `size` rows, moving (never cloning)
/// elements. An empty input yields one empty chunk.
fn chunk_rows<T>(rows: Vec<T>, size: usize) -> Vec<Vec<T>> {
    if rows.len() <= size {
        return vec![rows];
    }
    let mut out = Vec::with_capacity(rows.len() / size + 1);
    let mut cur = Vec::with_capacity(size);
    for r in rows {
        cur.push(r);
        if cur.len() == size {
            out.push(std::mem::replace(&mut cur, Vec::with_capacity(size)));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
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
        let c = Cluster::new(2)
            .with_pool(Arc::new(WorkerPool::new(2)))
            .with_morsel_rows(1);
        let task = |token: &CancelToken, i: usize| -> Result<()> {
            if i == 0 {
                while !token.is_cancelled() {
                    std::thread::yield_now();
                }
                Err(ExecError::Cancelled("query killed".into()))
            } else {
                token.cancel();
                Err(ExecError::Runtime("root cause".into()))
            }
        };
        let is_root =
            |e: &ExecError| matches!(e, ExecError::Runtime(m) if m == "root cause");
        let (token, _query) = query();
        let err = c
            .par_map(vec![0, 1], |_, i| task(&token, i))
            .unwrap_err();
        assert!(is_root(&err), "par_map reported {err:?}");
        let (token, _query) = query();
        let err = c
            .morsel_map(vec![vec![0, 1]], |_, rows| task(&token, rows[0]))
            .unwrap_err();
        assert!(is_root(&err), "morsel_map reported {err:?}");
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
        let c = Cluster::new(3).with_pool(Arc::new(WorkerPool::new(3))).with_morsel_rows(1);
        type Task<'a> = &'a (dyn Fn(usize) -> Result<()> + Sync);
        let run = |map: &dyn Fn(Task<'_>) -> Result<()>| {
            let (token, _query) = query();
            let one_failed = AtomicBool::new(false);
            let stopped = AtomicBool::new(false);
            let err = map(&|i| {
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
        };
        run(&|f| c.par_map(vec![0, 1, 2], |_, i| f(i)).map(drop));
        // Three morsels of one partition: each task's `i` is 0.
        run(&|f| c.morsel_map(vec![vec![0, 1, 2]], |_, rows| f(rows[0])).map(drop));
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

    #[test]
    fn chunk_rows_splits_and_preserves_order() {
        assert_eq!(chunk_rows(Vec::<i32>::new(), 4), vec![Vec::<i32>::new()]);
        assert_eq!(chunk_rows(vec![1, 2, 3], 4), vec![vec![1, 2, 3]]);
        assert_eq!(
            chunk_rows((0..10).collect::<Vec<_>>(), 4),
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
        );
    }

    #[test]
    fn morsel_map_matches_sequential_on_skew() {
        // One partition holds nearly all rows; morsel outputs must still
        // arrive per partition in row order.
        // Also on a pool far wider than the machine (oversubscribed).
        let parts: Vec<Vec<i64>> =
            vec![(0..900).collect(), (900..950).collect(), vec![], (950..1000).collect()];
        for width in [4, 64] {
            let c = Cluster::new(4)
                .with_pool(Arc::new(WorkerPool::new(width)))
                .with_morsel_rows(16);
            let out = c
                .morsel_map(parts.clone(), |p, rows| {
                    Ok(rows.into_iter().map(|x| x * 2 + p as i64).collect::<Vec<_>>())
                })
                .unwrap();
            assert_eq!(out.len(), 4);
            for (p, (morsels, rows)) in out.into_iter().zip(parts.clone()).enumerate() {
                let flat: Vec<i64> = morsels.into_iter().flatten().collect();
                let want: Vec<i64> = rows.into_iter().map(|x| x * 2 + p as i64).collect();
                assert_eq!(flat, want, "pool of {width}, partition {p}");
            }
        }
    }

    #[test]
    fn morsel_map_empty_partition_yields_one_morsel() {
        let c = Cluster::new(2).with_morsel_rows(8);
        let out = c
            .morsel_map(vec![Vec::<i32>::new(), vec![1]], |_, rows| Ok(rows.len()))
            .unwrap();
        assert_eq!(out, vec![vec![0], vec![1]]);
    }

    #[test]
    fn morsel_map_propagates_errors_and_panics() {
        let c = Cluster::new(2)
            .with_pool(Arc::new(WorkerPool::new(2)))
            .with_morsel_rows(1);
        let (_, _query) = query();
        let err = c
            .morsel_map(vec![vec![1, 2, 3]], |_, rows| {
                if rows == [2] {
                    Err(ExecError::Runtime("bad morsel".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Runtime(ref m) if m.contains("bad morsel")));
        // The error flipped the query's token; the next query has its own.
        let (_, _query) = query();
        let err = c
            .morsel_map(vec![vec![1, 2, 3]], |_, rows: Vec<i32>| {
                if rows == [3] {
                    panic!("morsel panic");
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Runtime(ref m) if m.contains("morsel panic")));
    }
}
