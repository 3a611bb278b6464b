//! # lardb-server — multi-tenant query server with admission control
//!
//! `lardb serve` turns an embedded [`Database`] into a network service:
//!
//! - **Wire protocol**: length-prefixed frames over TCP carrying the
//!   server control messages (`Hello`/`Query`/`Prepare`/`Execute`/
//!   `Kill`/`Close` → `Ok`/`Error`) from `lardb_net::msg`, plus the
//!   exchange's own data frames (schema/rows/fin) for query results —
//!   the client verifies the fin (`lardb_net::stream::Check`) exactly
//!   like an exchange receiver, so truncated results are detected,
//!   never silently short.
//! - **Sessions**: two blocking threads per connection — one reads the
//!   socket, one runs statements and writes replies (see [`session`]) —
//!   registered in the shared
//!   [`SessionRegistry`](lardb::SessionRegistry) so `SHOW SESSIONS` and
//!   `KILL <query-id>` work across connections.
//! - **Admission control**: a bounded FIFO queue in front of a global
//!   concurrency cap and per-tenant slots; overload is typed
//!   ([`ServerError::Saturated`]), never an OOM or a hung client.
//! - **Tenant quotas**: each tenant gets a child
//!   [`MemoryGovernor`] under the server's
//!   governor, so one tenant's joins spill (or get rejected at
//!   admission) instead of eating another tenant's budget.
//! - **Cancellation**: `KILL` flips the running query's
//!   [`CancelToken`](lardb::CancelToken); client disconnects are
//!   detected mid-query and cancel the same way, and so does
//!   [`Server::shutdown`], which disconnects every session. All three
//!   release the governor ledger and spill files before the session ends.
//!
//! Nothing on the path from the socket to `Database::run` waits on a
//! timer: the accept loop blocks in `accept` (shutdown wakes it with one
//! connection to itself), a session's reader blocks in `read`, its
//! session thread blocks on the reader or in the statement. The one
//! timed wait left is admission's `QUEUE_POLL`, which re-checks a tenant
//! governor that has no way to notify a waiter and is never reached while
//! a slot is free. (What a row reply still waits for is the kernel: its
//! frames are separate small writes on a socket without `TCP_NODELAY`, so
//! the second is held until the client's delayed ACK — DESIGN §12.)
//!
//! ```no_run
//! use lardb::Database;
//! use lardb_server::{Client, Server, ServerConfig};
//!
//! let db = Database::new(4);
//! let server = Server::start(db, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//!
//! let mut client = Client::connect(&addr.to_string(), "acme", "").unwrap();
//! client.query("CREATE TABLE t (id INTEGER)").unwrap();
//! client.query("INSERT INTO t VALUES (1), (2)").unwrap();
//! let out = client.query("SELECT COUNT(*) AS n FROM t").unwrap();
//! println!("{out:?}");
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod session;
pub mod wire;

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lardb::{Database, MemoryConfig};
use lardb_buf::MemoryGovernor;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionPermit};
pub use client::{Client, QueryOutput};

/// Server knobs (`lardb-cli serve` exposes these as flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address. Port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum simultaneously connected sessions; further connections are
    /// turned away with a `Saturated` error before handshake.
    pub max_sessions: usize,
    /// Queries allowed to execute concurrently across all sessions.
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot; the next one is rejected
    /// immediately.
    pub queue_depth: usize,
    /// Longest a query waits in the admission queue before a typed
    /// `Saturated` rejection.
    pub queue_wait_ms: u64,
    /// Per-tenant memory budget in MiB. `None` disables tenant
    /// sub-governors (all sessions share the database's governor).
    pub tenant_mem_mb: Option<u64>,
    /// Concurrent queries allowed per tenant (`0` = no per-tenant cap).
    pub tenant_slots: usize,
    /// Bytes reserved from the tenant's governor at admission and held
    /// for the query's lifetime, so quota exhaustion surfaces as
    /// `Saturated` at admission instead of an execution failure.
    /// Ignored when `tenant_mem_mb` is `None`.
    pub admission_floor_bytes: u64,
    /// Shared-secret token. `None` runs the server open; `Some` rejects
    /// handshakes whose `Hello.auth` does not match.
    pub auth_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            max_concurrent: 8,
            queue_depth: 16,
            queue_wait_ms: 2_000,
            tenant_mem_mb: None,
            tenant_slots: 0,
            admission_floor_bytes: 256 * 1024,
            auth_token: None,
        }
    }
}

/// Anything the server or client can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Admission control rejected the query (queue full, wait timed out,
    /// or the tenant's memory quota never admitted the floor). Typed so
    /// callers can back off and retry instead of treating it as failure.
    Saturated {
        /// Human-readable cause.
        reason: String,
    },
    /// Handshake rejected (bad auth token).
    Auth(String),
    /// The query was killed (`KILL` statement or client disconnect).
    Killed(String),
    /// The query failed in the engine.
    Query(String),
    /// Malformed or unexpected protocol traffic (including fin-summary
    /// mismatches on the result stream).
    Protocol(String),
    /// Transport-level failure.
    Io(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Saturated { reason } => write!(f, "saturated: {reason}"),
            ServerError::Auth(m) => write!(f, "authentication failed: {m}"),
            ServerError::Killed(m) => write!(f, "query killed: {m}"),
            ServerError::Query(m) => write!(f, "query failed: {m}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServerError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

/// State shared by the accept loop and every session thread.
pub(crate) struct Shared {
    pub(crate) db: Database,
    pub(crate) cfg: ServerConfig,
    pub(crate) admission: Arc<AdmissionController>,
    /// Lazily created per-tenant sub-governors (children of the
    /// database's governor), kept so reconnecting tenants keep billing
    /// the same ledger.
    tenants: Mutex<HashMap<String, Arc<MemoryGovernor>>>,
    /// Set by [`Server::stop`] before it wakes the accept loop.
    shutdown: AtomicBool,
    /// Connections currently alive (pre- and post-handshake), enforced
    /// against `max_sessions` at accept time. Counted by the accept loop,
    /// uncounted by the session itself just before its last frame.
    pub(crate) connections: AtomicUsize,
}

impl Shared {
    /// The database clone a session of `tenant` runs on: shares catalog,
    /// pool, sessions and profile state with every other session, but —
    /// when tenant quotas are on — bills memory to the tenant's child
    /// governor (gauged as `server.tenant.<tenant>.reserved_bytes`).
    pub(crate) fn tenant_db(&self, tenant: &str) -> Database {
        let db = self.db.clone();
        match self.cfg.tenant_mem_mb {
            None => db,
            Some(mb) => {
                let gov = self.tenant_governor(tenant, mb);
                let spill = self.db.memory().spill_dir().to_path_buf();
                db.with_memory_config(MemoryConfig::with_governor(gov, spill))
            }
        }
    }

    fn tenant_governor(&self, tenant: &str, mb: u64) -> Arc<MemoryGovernor> {
        let mut map = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(tenant.to_string()).or_insert_with(|| {
            self.db
                .memory()
                .governor()
                .child(Some(mb * 1024 * 1024), format!("server.tenant.{tenant}"))
        }))
    }

    /// The governor admission should reserve the floor from (the tenant's
    /// child when quotas are on, nothing otherwise — without quotas there
    /// is no per-tenant ledger to protect).
    pub(crate) fn floor_governor(&self, tenant: &str) -> Option<Arc<MemoryGovernor>> {
        self.cfg
            .tenant_mem_mb
            .map(|mb| self.tenant_governor(tenant, mb))
    }
}

/// A running query server. Dropping it (or calling [`shutdown`]) stops
/// the accept loop, disconnects every session and joins its threads.
///
/// [`shutdown`]: Server::shutdown
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts accepting connections. Each accepted
    /// connection is served on its own threads; queries run under the
    /// shared admission controller.
    pub fn start(db: Database, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let admission = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: cfg.max_concurrent.max(1),
            queue_depth: cfg.queue_depth,
            queue_wait_ms: cfg.queue_wait_ms,
            tenant_slots: cfg.tenant_slots,
            admission_floor_bytes: cfg.admission_floor_bytes,
        }));
        let shared = Arc::new(Shared {
            db,
            cfg,
            admission,
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("lardb-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Open connections right now (pre- and post-handshake).
    pub fn connections(&self) -> usize {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Stops accepting, disconnects every session (which cancels its
    /// in-flight query) and returns once their threads have ended.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop blocks in `accept`; one connection wakes it.
            let _ = TcpStream::connect(self.local_addr);
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Every session that may still be alive: its thread, and a clone of its
    // socket to disconnect it with at shutdown.
    let mut sessions: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        sessions.retain(|(thread, _)| !thread.is_finished());
        let accepted = accepted.and_then(|(stream, peer)| Ok((stream.try_clone()?, stream, peer)));
        let Ok((socket, stream, peer)) = accepted else {
            // A connection reset before it was accepted, or no descriptor
            // to accept it with until a session ends: try again.
            std::thread::yield_now();
            continue;
        };
        let session_shared = Arc::clone(&shared);
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let thread = std::thread::Builder::new()
            .name(format!("lardb-session-{peer}"))
            .spawn(move || session::run(&session_shared, stream, peer));
        match thread {
            Ok(thread) => sessions.push((thread, socket)),
            Err(_) => {
                // Thread spawn failed; the connection drops and the
                // count must not leak.
                shared.connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    // A shut-down socket is its session's reader's EOF, so shutdown takes
    // the disconnect path: cancel, wait for the executor to unwind, release.
    for (_, socket) in &sessions {
        let _ = socket.shutdown(Shutdown::Both);
    }
    for (thread, _) in sessions {
        let _ = thread.join();
    }
}
