//! The session registry: who is connected, what is running, and how to
//! kill it.
//!
//! One [`SessionRegistry`] is shared by every clone of a [`Database`]
//! (like the catalog), so any session can observe and cancel any other's
//! work: `SHOW SESSIONS` renders the registry as a relation, and
//! `KILL <query-id>` flips the target query's [`CancelToken`] — the same
//! token the executor's pipeline chunks, matched join pairs, scans,
//! exchange routing and exchange senders already poll.
//!
//! [`Database`]: crate::Database

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lardb_exec::CancelToken;

/// A snapshot row of one open session, as rendered by `SHOW SESSIONS`.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Session id (stable for the connection's lifetime).
    pub session_id: u64,
    /// Tenant the session bills against.
    pub tenant: String,
    /// Peer description (socket address, or `local` for in-process use).
    pub peer: String,
    /// `idle` or `running`.
    pub state: &'static str,
    /// The running query's id, if any.
    pub query_id: Option<u64>,
    /// The running query's SQL text, if any.
    pub sql: Option<String>,
    /// Milliseconds the current query has been running (0 when idle).
    pub elapsed_ms: f64,
}

#[derive(Debug)]
struct RunningQuery {
    query_id: u64,
    sql: String,
    started: Instant,
    cancel: CancelToken,
}

#[derive(Debug)]
struct SessionEntry {
    tenant: String,
    peer: String,
    current: Option<RunningQuery>,
}

/// Process-shared bookkeeping of sessions and their in-flight queries.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    // BTreeMap so SHOW SESSIONS lists sessions in id order.
    sessions: Mutex<BTreeMap<u64, SessionEntry>>,
    next_session: AtomicU64,
    next_query: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SessionRegistry::default()
    }

    /// Registers a session; returns its id. Publishes the
    /// `server.sessions_active` gauge and counts `server.sessions_opened`.
    pub fn open(&self, tenant: &str, peer: &str) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let mut s = self.lock();
        s.insert(
            id,
            SessionEntry {
                tenant: tenant.to_string(),
                peer: peer.to_string(),
                current: None,
            },
        );
        let m = lardb_obs::global();
        m.counter("server.sessions_opened").inc();
        m.gauge("server.sessions_active").set(s.len() as f64);
        id
    }

    /// Deregisters a session (its running query, if any, stays cancellable
    /// only through its token holder).
    pub fn close(&self, session_id: u64) {
        let mut s = self.lock();
        s.remove(&session_id);
        lardb_obs::global()
            .gauge("server.sessions_active")
            .set(s.len() as f64);
    }

    /// Marks `sql` as running on `session_id` under `cancel`; returns the
    /// query id `KILL` targets. Unknown sessions still get an id (the
    /// query runs; it is just not listed).
    pub fn begin_query(&self, session_id: u64, sql: &str, cancel: &CancelToken) -> u64 {
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed) + 1;
        let mut s = self.lock();
        if let Some(entry) = s.get_mut(&session_id) {
            entry.current = Some(RunningQuery {
                query_id,
                sql: sql.to_string(),
                started: Instant::now(),
                cancel: cancel.clone(),
            });
        }
        query_id
    }

    /// Clears the running query of `session_id`.
    pub fn end_query(&self, session_id: u64) {
        let mut s = self.lock();
        if let Some(entry) = s.get_mut(&session_id) {
            entry.current = None;
        }
    }

    /// Cancels the query with id `query_id`. Returns `true` when a running
    /// query was found (and counts `server.queries_killed`); `false` when
    /// no such query is running (already finished, or never existed).
    pub fn kill(&self, query_id: u64) -> bool {
        let s = self.lock();
        for entry in s.values() {
            if let Some(q) = &entry.current {
                if q.query_id == query_id {
                    q.cancel.cancel();
                    lardb_obs::global().counter("server.queries_killed").inc();
                    return true;
                }
            }
        }
        false
    }

    /// Number of open sessions.
    pub fn active_sessions(&self) -> usize {
        self.lock().len()
    }

    /// One snapshot row per open session, in session-id order.
    pub fn snapshot(&self) -> Vec<SessionSnapshot> {
        let s = self.lock();
        s.iter()
            .map(|(&session_id, entry)| match &entry.current {
                Some(q) => SessionSnapshot {
                    session_id,
                    tenant: entry.tenant.clone(),
                    peer: entry.peer.clone(),
                    state: "running",
                    query_id: Some(q.query_id),
                    sql: Some(q.sql.clone()),
                    elapsed_ms: q.started.elapsed().as_secs_f64() * 1e3,
                },
                None => SessionSnapshot {
                    session_id,
                    tenant: entry.tenant.clone(),
                    peer: entry.peer.clone(),
                    state: "idle",
                    query_id: None,
                    sql: None,
                    elapsed_ms: 0.0,
                },
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, SessionEntry>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(session, tenant)` of every session with a query in flight and
    /// that query's id.
    fn running(reg: &SessionRegistry) -> Vec<(u64, String, u64)> {
        let all = reg.snapshot().into_iter();
        all.filter_map(|s| Some((s.session_id, s.tenant, s.query_id?))).collect()
    }

    #[test]
    fn open_query_kill_close_lifecycle() {
        let reg = SessionRegistry::new();
        let sid = reg.open("acme", "local");
        assert_eq!(reg.active_sessions(), 1);
        assert_eq!(running(&reg), []);

        let cancel = CancelToken::new();
        let qid = reg.begin_query(sid, "SELECT 1", &cancel);
        assert_eq!(running(&reg), [(sid, "acme".to_string(), qid)]);

        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, "running");
        assert_eq!(snap[0].query_id, Some(qid));
        assert_eq!(snap[0].sql.as_deref(), Some("SELECT 1"));

        assert!(reg.kill(qid), "running query is killable");
        assert!(cancel.is_cancelled(), "kill flips the query's token");

        reg.end_query(sid);
        assert_eq!(running(&reg), []);
        assert!(!reg.kill(qid), "finished query no longer killable");

        reg.close(sid);
        assert_eq!(reg.active_sessions(), 0);
    }

    #[test]
    fn query_ids_are_unique_across_sessions() {
        let reg = SessionRegistry::new();
        let a = reg.open("t1", "local");
        let b = reg.open("t2", "local");
        let qa = reg.begin_query(a, "SELECT 1", &CancelToken::new());
        let qb = reg.begin_query(b, "SELECT 2", &CancelToken::new());
        assert_ne!(qa, qb);
        // Killing one query leaves the other running.
        assert!(reg.kill(qa));
        assert!(running(&reg).contains(&(b, "t2".to_string(), qb)));
    }

    #[test]
    fn kill_unknown_query_is_a_noop() {
        let reg = SessionRegistry::new();
        assert!(!reg.kill(12345));
    }
}
