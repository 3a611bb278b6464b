//! Minimal client for the query server: connect, run statements, kill,
//! close.
//!
//! The client verifies every result stream against its fin summary —
//! frame count, row count, and the checksum over the encoded frame
//! bytes — exactly like an exchange receiver, so a truncated or
//! corrupted result surfaces as [`ServerError::Protocol`], never as a
//! silently short row set.

use std::net::TcpStream;
use std::time::Duration;

use lardb_net::codec::Frame;
use lardb_net::stream::{read_frame, Check, FrameRead};
use lardb_net::{msg, Message};
use lardb_storage::{Row, Schema};

use crate::wire::{self, send_message, MAX_WIRE_BYTES};
use crate::ServerError;

/// How long the client waits for one server reply before giving up.
/// Generous: covers queued admission (`queue_wait_ms`) plus execution.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What one statement produced, client-side.
#[derive(Debug)]
pub enum QueryOutput {
    /// SELECT results (fin-verified).
    Rows {
        /// Output schema.
        schema: Schema,
        /// All result rows.
        rows: Vec<Row>,
    },
    /// DDL completed.
    Done,
    /// INSERT / CTAS row count.
    Inserted(u64),
    /// EXPLAIN (or other textual) output.
    Text(String),
}

impl QueryOutput {
    /// Renders rows as a simple ` | `-separated table (same shape as
    /// `QueryResult::display_table`); other outputs as one line.
    pub fn display(&self) -> String {
        match self {
            QueryOutput::Rows { schema, rows } => {
                let mut out = String::new();
                let names: Vec<String> =
                    schema.columns().iter().map(|c| c.name.clone()).collect();
                out.push_str(&names.join(" | "));
                out.push('\n');
                for r in rows {
                    let vals: Vec<String> =
                        r.values().iter().map(|v| v.to_string()).collect();
                    out.push_str(&vals.join(" | "));
                    out.push('\n');
                }
                out
            }
            QueryOutput::Done => "OK\n".to_string(),
            QueryOutput::Inserted(n) => format!("INSERT {n}\n"),
            QueryOutput::Text(t) => format!("{t}\n"),
        }
    }
}

/// A connected session.
pub struct Client {
    stream: TcpStream,
    session_id: u64,
    /// Trace id from the most recent result stream's trace frame, if the
    /// server traced that query (see `FlightRecorder`).
    last_trace_id: Option<u64>,
}

impl Client {
    /// Connects to `addr` (`host:port`) and performs the handshake as
    /// `tenant` with `auth` (empty string for open servers).
    pub fn connect(addr: &str, tenant: &str, auth: &str) -> Result<Client, ServerError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        send_message(
            &mut stream,
            &Message::Hello { tenant: tenant.to_string(), auth: auth.to_string() },
        )?;
        match recv_reply(&mut stream)? {
            Message::Ok { code: msg::OK_HELLO, value, .. } => {
                Ok(Client { stream, session_id: value, last_trace_id: None })
            }
            Message::Error { code, message } => Err(map_error(code, message)),
            other => Err(ServerError::Protocol(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        }
    }

    /// The server-assigned session id (as shown by `SHOW SESSIONS`).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Trace id the server attached to the most recent row-producing
    /// result, or `None` when that query was not traced. Lets a client
    /// correlate its own statements with server-side `SHOW QUERIES` /
    /// flight-recorder output.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace_id
    }

    /// Runs one SQL statement and collects its full result.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutput, ServerError> {
        send_message(&mut self.stream, &Message::Query { sql: sql.to_string() })?;
        self.read_result()
    }

    /// Parses and stores a statement server-side; returns its id.
    pub fn prepare(&mut self, sql: &str) -> Result<u64, ServerError> {
        send_message(&mut self.stream, &Message::Prepare { sql: sql.to_string() })?;
        match recv_reply(&mut self.stream)? {
            Message::Ok { code: msg::OK_PREPARED, value, .. } => Ok(value),
            Message::Error { code, message } => Err(map_error(code, message)),
            other => Err(ServerError::Protocol(format!("unexpected PREPARE reply: {other:?}"))),
        }
    }

    /// Runs a previously prepared statement.
    pub fn execute(&mut self, stmt_id: u64) -> Result<QueryOutput, ServerError> {
        send_message(&mut self.stream, &Message::Execute { stmt_id })?;
        self.read_result()
    }

    /// Kills a running query by id (its own or any other session's).
    /// `Ok(())` means the kill was delivered to a running query.
    pub fn kill(&mut self, query_id: u64) -> Result<(), ServerError> {
        send_message(&mut self.stream, &Message::Kill { query_id })?;
        match recv_reply(&mut self.stream)? {
            Message::Ok { code: msg::OK_KILLED, .. } => Ok(()),
            Message::Error { code, message } => Err(map_error(code, message)),
            other => Err(ServerError::Protocol(format!("unexpected KILL reply: {other:?}"))),
        }
    }

    /// Orderly shutdown: tells the server, waits for the ack, closes.
    pub fn close(mut self) -> Result<(), ServerError> {
        send_message(&mut self.stream, &Message::Close)?;
        match recv_reply(&mut self.stream)? {
            Message::Ok { code: msg::OK_CLOSED, .. } => Ok(()),
            Message::Error { code, message } => Err(map_error(code, message)),
            other => Err(ServerError::Protocol(format!("unexpected CLOSE reply: {other:?}"))),
        }
    }

    /// Reads one statement outcome: an `Ok`/`Error` control frame, or a
    /// schema/rows/fin data stream. The stream's [`Check`] folds the bytes
    /// as they arrived; what is the client's own is to remember the schema
    /// (and the trace id), which must precede any rows.
    fn read_result(&mut self) -> Result<QueryOutput, ServerError> {
        let mut schema: Option<Schema> = None;
        let mut rows: Vec<Row> = Vec::new();
        let mut check = Check::default();
        self.last_trace_id = None;
        let protocol = |what: String| ServerError::Protocol(format!("result stream: {what}"));
        loop {
            let bytes = recv_bytes(&mut self.stream)?;
            let frame = match wire::decode(&bytes)? {
                Message::Ok { code: msg::OK_DONE, .. } => return Ok(QueryOutput::Done),
                Message::Ok { code: msg::OK_INSERTED, value, .. } => {
                    return Ok(QueryOutput::Inserted(value))
                }
                Message::Ok { code: msg::OK_TEXT, text, .. } => {
                    return Ok(QueryOutput::Text(text))
                }
                Message::Error { code, message } => return Err(map_error(code, message)),
                Message::Data(frame) => frame,
                other => return Err(protocol(format!("unexpected message {other:?}"))),
            };
            check
                .accept(&bytes, &frame)
                .map_err(|e| protocol(format!("failed fin verification: {e}")))?;
            match frame {
                Frame::Schema(s) => schema = Some(s),
                Frame::Trace(id) => self.last_trace_id = Some(id),
                Frame::Rows(batch) if schema.is_some() => rows.extend(batch),
                Frame::Rows(_) => return Err(protocol("rows before schema".to_string())),
                Frame::Fin(_) => {
                    let schema = schema.ok_or_else(|| protocol("fin before schema".to_string()))?;
                    return Ok(QueryOutput::Rows { schema, rows });
                }
            }
        }
    }
}

/// One blocking reply frame (timeouts are errors client-side: the server
/// always answers a request).
fn recv_bytes(stream: &mut TcpStream) -> Result<Vec<u8>, ServerError> {
    match read_frame(stream, MAX_WIRE_BYTES).map_err(std::io::Error::from)? {
        FrameRead::Frame(bytes) => Ok(bytes),
        FrameRead::Closed => Err(ServerError::Io("server closed the connection".to_string())),
        FrameRead::Idle => Err(ServerError::Io(format!(
            "no reply from server within {REPLY_TIMEOUT:?}"
        ))),
    }
}

/// One blocking reply, decoded.
fn recv_reply(stream: &mut TcpStream) -> Result<Message, ServerError> {
    Ok(wire::decode(&recv_bytes(stream)?)?)
}

fn map_error(code: u16, message: String) -> ServerError {
    match code {
        msg::ERR_SATURATED => ServerError::Saturated { reason: message },
        msg::ERR_AUTH => ServerError::Auth(message),
        msg::ERR_KILLED => ServerError::Killed(message),
        msg::ERR_QUERY => ServerError::Query(message),
        _ => ServerError::Protocol(message),
    }
}
