//! One connection's lifecycle: handshake, requests, result streaming,
//! kill and disconnect handling.
//!
//! After the handshake a connection has two threads, and each blocks on
//! the one thing it waits for:
//!
//! - the **reader** is the only one that reads the socket. It answers
//!   `Kill` itself, hands `Query`/`Prepare`/`Execute` to the session
//!   thread — one at a time; a request sent while another is in flight is
//!   refused with `ERR_PROTOCOL`, so the hand-off never holds more than
//!   the request in flight and at most one that arrived while its
//!   reply was being written — and ends on `Close`, EOF or a read
//!   error, cancelling the statement in flight through its
//!   [`CancelToken`], which the executor's row and chunk loops poll.
//! - the **session thread** takes requests from the reader, runs each
//!   statement inline (admission → registry → execute → registry → permit
//!   released) and writes its reply.
//!
//! Both write, so the write half sits behind a lock that is held for a
//! whole reply: an ack or protocol error from the reader can land before
//! or after a result stream, never inside one. Once the reader has seen
//! `Close` or EOF no statement reply is written any more, and the session
//! thread cannot outlive the statement it is running — so governor
//! reservations and spill files are released before the session is
//! deregistered, the connection uncounted and, last of all, `OK_CLOSED`
//! sent. [`Server::shutdown`](crate::Server::shutdown) shuts the socket
//! down, which the reader sees as EOF: shutdown is a disconnect.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lardb::{CancelToken, Database, EngineError, PreparedStatement, QueryResult, Response, Source};
use lardb_exec::ExecError;
use lardb_net::codec::{encode_schema_frame, encode_trace_frame};
use lardb_net::stream::Seal;
use lardb_net::{msg, Message};

use crate::wire::{recv_message, send_bytes, send_message, Recv, MAX_WIRE_BYTES};
use crate::Shared;

/// How long a fresh connection may sit silent before `Hello` (the
/// socket's read timeout until then; none afterwards).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the reader hands the session thread: a `Query`, `Prepare` or
/// `Execute`, and the token that aborts it.
type Request = (Message, CancelToken);

/// The request in flight, as the two threads share it.
#[derive(Default)]
struct InFlight {
    /// Token of the request handed over and not yet answered.
    cancel: Option<CancelToken>,
    /// The reader has seen `Close` or EOF: no statement reply may follow.
    gone: bool,
}

/// An authenticated connection.
struct Session<'a> {
    shared: &'a Shared,
    /// The tenant's database clone, labelled with this session.
    db: Database,
    id: u64,
    tenant: String,
    /// The read half: the reader thread's alone.
    stream: &'a TcpStream,
    /// The write half, locked for a whole reply.
    writer: Mutex<&'a TcpStream>,
    in_flight: Mutex<InFlight>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serves one accepted connection to completion. Errors are terminal for
/// the connection only; the server keeps running.
pub(crate) fn run(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    let closed = serve(shared, &stream, peer);
    // `OK_CLOSED` tells the client that nothing of the session is left,
    // so it goes out after the connection is uncounted.
    shared.connections.fetch_sub(1, Ordering::SeqCst);
    if let Some(session_id) = closed {
        let ack = Message::Ok { code: msg::OK_CLOSED, value: session_id, text: String::new() };
        let _ = send_message(&mut &stream, &ack);
    }
    // Dropping `stream` would not end the connection while the accept
    // loop still holds its clone of the socket.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Everything up to the final ack. Returns the session id to acknowledge
/// when the client asked for an orderly close.
fn serve(shared: &Shared, mut stream: &TcpStream, peer: SocketAddr) -> Option<u64> {
    // Session cap: this connection was already counted by the accept
    // loop, so `>` (not `>=`) means someone beyond the cap.
    if shared.connections.load(Ordering::SeqCst) > shared.cfg.max_sessions {
        lardb_obs::global().counter("server.sessions_rejected").inc();
        let _ = send_message(
            &mut stream,
            &Message::Error {
                code: msg::ERR_SATURATED,
                message: format!("server at max sessions ({})", shared.cfg.max_sessions),
            },
        );
        return None;
    }
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
    let tenant = handshake(shared, stream)?;
    stream.set_read_timeout(None).ok()?;
    let id = shared.db.sessions().open(&tenant, &peer.to_string());
    let session = Session {
        shared,
        db: shared.tenant_db(&tenant).with_session(id, tenant.as_str()),
        id,
        tenant,
        stream,
        writer: Mutex::new(stream),
        in_flight: Mutex::default(),
    };
    let closed = session.run();
    shared.db.sessions().close(id);
    closed.then_some(id)
}

/// Waits for `Hello` and validates auth. Returns the tenant name, or
/// `None` when the connection should just be dropped.
fn handshake(shared: &Shared, mut stream: &TcpStream) -> Option<String> {
    let (code, message) = match recv_message(&mut stream) {
        Ok(Recv::Msg(Message::Hello { tenant, auth })) => {
            if shared.cfg.auth_token.as_ref().is_none_or(|expected| *expected == auth) {
                return Some(if tenant.is_empty() { "default".to_string() } else { tenant });
            }
            (msg::ERR_AUTH, "bad auth token")
        }
        Ok(Recv::Msg(_)) => (msg::ERR_PROTOCOL, "expected HELLO first"),
        Ok(Recv::Closed | Recv::TimedOut) | Err(_) => return None,
    };
    let _ = send_message(&mut stream, &Message::Error { code, message: message.to_string() });
    None
}

impl Session<'_> {
    /// Runs the connection's two threads to their end. Returns whether
    /// the client sent `Close`.
    fn run(&self) -> bool {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let reader = std::thread::Builder::new()
                .name(format!("lardb-reader-{}", self.id))
                .spawn_scoped(scope, || self.read_requests(tx));
            let reader = match reader {
                Ok(reader) => reader,
                Err(e) => {
                    let refusal = Message::Error {
                        code: msg::ERR_SATURATED,
                        message: format!("could not spawn the session's reader thread: {e}"),
                    };
                    let _ = send_message(&mut *lock(&self.writer), &refusal);
                    return false;
                }
            };
            let hello =
                Message::Ok { code: msg::OK_HELLO, value: self.id, text: self.tenant.clone() };
            // Its own `let`: the lock guard is a temporary and must be
            // dropped before the first reply wants the lock.
            let greeted = send_message(&mut *lock(&self.writer), &hello);
            let served = catch_unwind(AssertUnwindSafe(|| {
                greeted.and_then(|()| self.serve_requests(rx))
            }));
            if !matches!(served, Ok(Ok(()))) {
                // The client cannot be written to, or a statement panicked
                // (unwinding further would strand the reader and leak the
                // session and its connection slot): the connection is
                // over, so make that the reader's EOF as well.
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            reader.join().unwrap_or(false)
        })
    }

    /// The reader thread. Returns whether it ended on `Close`.
    fn read_requests(&self, requests: Sender<Request>) -> bool {
        let mut stream = self.stream;
        let closed = loop {
            let message = match recv_message(&mut stream) {
                Ok(Recv::Msg(Message::Close)) => break true,
                Ok(Recv::Msg(message)) => message,
                // EOF, a torn frame, or a socket the server shut down.
                Ok(Recv::Closed | Recv::TimedOut) | Err(_) => break false,
            };
            let is_request = matches!(
                message,
                Message::Query { .. } | Message::Prepare { .. } | Message::Execute { .. }
            );
            if is_request {
                if let Some(cancel) = self.begin() {
                    if requests.send((message, cancel)).is_err() {
                        break false;
                    }
                    continue;
                }
            }
            // Everything else is answered from here. The write lock is
            // taken before a kill is delivered, so the ack precedes the
            // killed statement's own reply.
            let mut socket = lock(&self.writer);
            let reply = match message {
                Message::Kill { query_id } => {
                    if self.db.sessions().kill(query_id) {
                        Message::Ok { code: msg::OK_KILLED, value: query_id, text: String::new() }
                    } else {
                        Message::Error {
                            code: msg::ERR_QUERY,
                            message: format!(
                                "no running query with id {query_id} (see SHOW SESSIONS)"
                            ),
                        }
                    }
                }
                other => Message::Error {
                    code: msg::ERR_PROTOCOL,
                    message: format!(
                        "unexpected message{}: {other:?}",
                        if is_request { " while a request is in flight" } else { "" }
                    ),
                },
            };
            if send_message(&mut *socket, &reply).is_err() {
                break false;
            }
        };
        // Client gone (or going): abort what it was waiting for. The
        // session thread comes back once the executor has unwound.
        let mut in_flight = lock(&self.in_flight);
        in_flight.gone = true;
        if let Some(cancel) = &in_flight.cancel {
            cancel.cancel();
        }
        closed
    }

    /// Marks a request as in flight and returns the token that aborts it,
    /// or `None` while another one is.
    fn begin(&self) -> Option<CancelToken> {
        let mut in_flight = lock(&self.in_flight);
        if in_flight.cancel.is_some() {
            return None;
        }
        let cancel = CancelToken::new();
        in_flight.cancel = Some(cancel.clone());
        Some(cancel)
    }

    /// Ends the request in flight and writes its reply under the write
    /// lock — unless the reader has seen `Close` or EOF, after which the
    /// client is owed `OK_CLOSED` at most.
    fn reply(&self, write: impl FnOnce(&mut &TcpStream) -> io::Result<()>) -> io::Result<()> {
        let mut socket = lock(&self.writer);
        let gone = {
            let mut in_flight = lock(&self.in_flight);
            in_flight.cancel = None;
            in_flight.gone
        };
        if gone {
            return Ok(());
        }
        write(&mut socket)
    }

    /// The session thread: serves requests until the reader hangs up
    /// (`Ok`) or a reply cannot be written (`Err`).
    fn serve_requests(&self, requests: Receiver<Request>) -> io::Result<()> {
        // Statements prepared on this session: parsed (and, for cacheable
        // SELECTs, bound + optimized into the shared plan cache) exactly once
        // at Prepare; every Execute reuses the stored handle instead of
        // re-planning the SQL text. Keyed by statement id — sessions
        // accumulate statements, so lookup must not degrade linearly.
        let mut prepared: HashMap<u64, PreparedStatement> = HashMap::new();
        let mut next_stmt: u64 = 1;
        for (request, cancel) in requests {
            match request {
                Message::Query { sql } => self.run_query(Source::Sql(&sql), &cancel)?,
                Message::Prepare { sql } => {
                    let reply = match self.db.prepare(&sql) {
                        Ok(stmt) => {
                            let id = next_stmt;
                            next_stmt += 1;
                            prepared.insert(id, stmt);
                            Message::Ok { code: msg::OK_PREPARED, value: id, text: String::new() }
                        }
                        Err(e) => Message::Error { code: msg::ERR_QUERY, message: e.to_string() },
                    };
                    self.reply(|out| send_message(out, &reply))?;
                }
                Message::Execute { stmt_id } => match prepared.get(&stmt_id) {
                    Some(stmt) => self.run_query(Source::Prepared(stmt), &cancel)?,
                    None => {
                        let reply = Message::Error {
                            code: msg::ERR_QUERY,
                            message: format!("unknown prepared statement id {stmt_id}"),
                        };
                        self.reply(|out| send_message(out, &reply))?;
                    }
                },
                other => unreachable!("the reader hands over requests only, not {other:?}"),
            }
        }
        Ok(())
    }

    /// Admits, executes, and answers one statement. `Err` means the reply
    /// could not be written; saturation and query errors are replies, not
    /// `Err`.
    fn run_query(&self, source: Source<'_>, cancel: &CancelToken) -> io::Result<()> {
        let (shared, db, tenant) = (self.shared, &self.db, self.tenant.as_str());
        let sql = match source {
            Source::Sql(sql) => sql,
            Source::Prepared(stmt) => stmt.sql(),
        };
        // Mint the trace BEFORE admission so queue wait is on the trace. This
        // is the one place a served statement is sampled: `Database::run`
        // takes the decision as it is, and finishes the trace.
        let trace = lardb_obs::recorder().start(sql, tenant);
        let floor_gov = shared.floor_governor(tenant);
        let t_admit = Instant::now();
        let permit = match shared.admission.admit(tenant, floor_gov.as_ref()) {
            Ok(p) => p,
            Err(e) => {
                let (code, reason) = match e {
                    crate::ServerError::Saturated { reason } => (msg::ERR_SATURATED, reason),
                    other => (msg::ERR_QUERY, other.to_string()),
                };
                if let Some(t) = &trace {
                    lardb_obs::recorder().finish(t, Some(&reason));
                }
                let message = match &trace {
                    Some(t) => format!("{reason} [trace {}]", t.id()),
                    None => reason,
                };
                return self.reply(|out| send_message(out, &Message::Error { code, message }));
            }
        };
        let queue_wait = t_admit.elapsed();
        lardb_obs::global()
            .histogram(&format!("server.tenant.{tenant}.queue_wait_ms"))
            .observe(queue_wait.as_millis() as u64);
        if let Some(t) = &trace {
            t.set_queue_wait_us(queue_wait.as_micros() as u64);
            t.record(
                "admission.wait",
                "admission",
                t_admit,
                queue_wait,
                vec![("tenant", tenant.to_string())],
            );
        }

        let query_id = db.sessions().begin_query(self.id, sql, cancel);
        if let Some(t) = &trace {
            t.set_query_id(query_id);
        }
        let result = db.run(source, Some(cancel), trace.as_ref());
        db.sessions().end_query(self.id);
        drop(permit);
        lardb_obs::global()
            .histogram(&format!("server.tenant.{tenant}.query_ms"))
            .observe(t_admit.elapsed().saturating_sub(queue_wait).as_millis() as u64);

        // Correlation stamp for error replies and the result stream: the
        // query id (always) and the trace id (when this query was sampled).
        let ids = match &trace {
            Some(t) => format!(" [query {query_id} trace {}]", t.id()),
            None => format!(" [query {query_id}]"),
        };
        let reply = match result {
            Ok(Response::Rows(q)) => {
                let trace_id = trace.as_ref().map(|t| t.id().0);
                return self.reply(|out| stream_rows(out, q, trace_id));
            }
            Ok(Response::Done) => Message::Ok { code: msg::OK_DONE, value: 0, text: String::new() },
            Ok(Response::Inserted(n)) => {
                Message::Ok { code: msg::OK_INSERTED, value: n as u64, text: String::new() }
            }
            Ok(Response::Explained(text)) => Message::Ok { code: msg::OK_TEXT, value: 0, text },
            Err(EngineError::Exec(ExecError::Cancelled(m))) => {
                Message::Error { code: msg::ERR_KILLED, message: format!("{m}{ids}") }
            }
            Err(e) => Message::Error { code: msg::ERR_QUERY, message: format!("{e}{ids}") },
        };
        self.reply(|out| send_message(out, &reply))
    }
}

/// Streams a result as a checked row stream: an optional trace frame
/// (when the query was traced), the schema, the rows cut to fit
/// [`MAX_WIRE_BYTES`], then the fin the client re-verifies. A single row
/// that fits no frame ends the stream with an error message in its place.
fn stream_rows(out: &mut impl Write, q: QueryResult, trace_id: Option<u64>) -> io::Result<()> {
    let mut seal = Seal::default();
    if let Some(id) = trace_id {
        send_bytes(out, &seal.frame(encode_trace_frame(id)))?;
    }
    send_bytes(out, &seal.frame(encode_schema_frame(&q.schema)))?;
    for frame in seal.rows(&q.rows, MAX_WIRE_BYTES) {
        match frame {
            Ok(frame) => send_bytes(out, &frame)?,
            Err(e) => {
                let message = format!("result row does not fit a reply frame: {e}");
                return send_message(out, &Message::Error { code: msg::ERR_QUERY, message });
            }
        }
    }
    send_bytes(out, &seal.fin())
}
