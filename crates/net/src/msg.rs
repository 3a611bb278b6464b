//! Server control-protocol messages (`lardb serve`).
//!
//! The query server speaks the same wire discipline as the exchange —
//! every message is one frame with the [`FRAME_MAGIC`] byte, the
//! [`WIRE_VERSION`], a kind byte, and a `u32` count — but uses its own
//! kind range (4–11) so the exchange decoder and the server decoder can
//! never mistake each other's traffic:
//!
//! | kind | message | direction | payload |
//! |-----:|---|---|---|
//! | 4 | `Hello`   | client → server | tenant + auth token strings |
//! | 5 | `Query`   | client → server | SQL text |
//! | 6 | `Prepare` | client → server | SQL text |
//! | 7 | `Execute` | client → server | `u64` statement id |
//! | 8 | `Kill`    | client → server | `u64` query id |
//! | 9 | `Close`   | client → server | — |
//! | 10 | `Ok`     | server → client | `u8` code + `u64` value + text |
//! | 11 | `Error`  | server → client | `u16` code + message |
//!
//! Query *results* are not a new format: the server streams the existing
//! data frames (kind 2 schema, kind 1 rows, kind 3 fin) and the client
//! verifies the fin summary exactly like an exchange receiver does, so a
//! truncated result is a detected error on the client, never a silently
//! short row set. [`decode_message`] therefore accepts the data kinds too
//! and wraps them as [`Message::Data`].
//!
//! Like the codec, decoding is *checked*: truncated or corrupt input
//! yields a [`CodecError`], never a panic.

use crate::codec::{self, CodecError, Frame, FRAME_MAGIC, WIRE_VERSION};

/// Result alias (codec errors).
pub type Result<T> = std::result::Result<T, CodecError>;

const KIND_HELLO: u8 = 4;
const KIND_QUERY: u8 = 5;
const KIND_PREPARE: u8 = 6;
const KIND_EXECUTE: u8 = 7;
const KIND_KILL: u8 = 8;
const KIND_CLOSE: u8 = 9;
const KIND_OK: u8 = 10;
const KIND_ERROR: u8 = 11;

/// `Ok` code: generic acknowledgement (handshake accepted, `value` is the
/// session id).
pub const OK_HELLO: u8 = 0;
/// `Ok` code: DDL completed (`Response::Done`).
pub const OK_DONE: u8 = 1;
/// `Ok` code: rows inserted; `value` is the count.
pub const OK_INSERTED: u8 = 2;
/// `Ok` code: textual payload (EXPLAIN output) in `text`.
pub const OK_TEXT: u8 = 3;
/// `Ok` code: statement prepared; `value` is the statement id.
pub const OK_PREPARED: u8 = 4;
/// `Ok` code: kill delivered; `value` is the query id.
pub const OK_KILLED: u8 = 5;
/// `Ok` code: session closing.
pub const OK_CLOSED: u8 = 6;

/// `Error` code: generic query failure (message carries the engine error).
pub const ERR_QUERY: u16 = 1;
/// `Error` code: admission control rejected the query — the server (or the
/// tenant's quota) is saturated. Typed so clients can distinguish
/// backpressure from failure.
pub const ERR_SATURATED: u16 = 2;
/// `Error` code: handshake rejected (bad auth token or tenant).
pub const ERR_AUTH: u16 = 3;
/// `Error` code: the query was killed (KILL statement or client
/// disconnect).
pub const ERR_KILLED: u16 = 4;
/// `Error` code: malformed protocol traffic.
pub const ERR_PROTOCOL: u16 = 5;

/// One server-protocol message: a control frame, or one of the existing
/// data frames wrapped as [`Message::Data`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session handshake: tenant name + auth token (empty when the server
    /// runs open).
    Hello {
        /// Tenant this session bills its memory/CPU against.
        tenant: String,
        /// Shared-secret token; ignored by servers running open.
        auth: String,
    },
    /// Execute one SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Parse/bind a statement for later execution.
    Prepare {
        /// The statement text.
        sql: String,
    },
    /// Execute a previously prepared statement.
    Execute {
        /// Statement id from the `Ok(OK_PREPARED)` reply.
        stmt_id: u64,
    },
    /// Abort a running query by id (any session's).
    Kill {
        /// The query id, as shown by `SHOW SESSIONS`.
        query_id: u64,
    },
    /// Orderly session shutdown.
    Close,
    /// Success acknowledgement. `code` is one of the `OK_*` constants;
    /// `value` and `text` carry code-specific payload.
    Ok {
        /// One of the `OK_*` constants.
        code: u8,
        /// Code-specific numeric payload (session id, row count, …).
        value: u64,
        /// Code-specific text payload (EXPLAIN output, …).
        text: String,
    },
    /// Failure. `code` is one of the `ERR_*` constants.
    Error {
        /// One of the `ERR_*` constants.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
    /// A result-stream data frame (schema / rows / fin), unchanged from
    /// the exchange wire format.
    Data(Frame),
}

fn header(kind: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.push(FRAME_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(kind);
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes one message as a self-contained frame. Data messages re-encode
/// through the exchange codec (identical bytes to an exchange frame).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    match msg {
        Message::Hello { tenant, auth } => {
            let mut buf = header(KIND_HELLO);
            put_str(&mut buf, tenant);
            put_str(&mut buf, auth);
            buf
        }
        Message::Query { sql } => {
            let mut buf = header(KIND_QUERY);
            put_str(&mut buf, sql);
            buf
        }
        Message::Prepare { sql } => {
            let mut buf = header(KIND_PREPARE);
            put_str(&mut buf, sql);
            buf
        }
        Message::Execute { stmt_id } => {
            let mut buf = header(KIND_EXECUTE);
            buf.extend_from_slice(&stmt_id.to_le_bytes());
            buf
        }
        Message::Kill { query_id } => {
            let mut buf = header(KIND_KILL);
            buf.extend_from_slice(&query_id.to_le_bytes());
            buf
        }
        Message::Close => header(KIND_CLOSE),
        Message::Ok { code, value, text } => {
            let mut buf = header(KIND_OK);
            buf.push(*code);
            buf.extend_from_slice(&value.to_le_bytes());
            put_str(&mut buf, text);
            buf
        }
        Message::Error { code, message } => {
            let mut buf = header(KIND_ERROR);
            buf.extend_from_slice(&code.to_le_bytes());
            put_str(&mut buf, message);
            buf
        }
        Message::Data(frame) => match frame {
            Frame::Rows(rows) => codec::encode_rows_frame(rows),
            Frame::Schema(schema) => codec::encode_schema_frame(schema),
            Frame::Fin(fin) => codec::encode_fin_frame(fin),
            Frame::Trace(id) => codec::encode_trace_frame(*id),
        },
    }
}

/// A minimal checked reader for control payloads (the codec's reader is
/// private to it; control messages only need strings and fixed ints).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(CodecError::Truncated { what, needed: n, available: remaining });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self, what: &'static str) -> Result<String> {
        let b = self.take(4, what)?;
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        let remaining = self.buf.len() - self.pos;
        if len > remaining {
            return Err(CodecError::LengthOverflow {
                what,
                len: len as u64,
                available: remaining,
            });
        }
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| CodecError::BadUtf8)
    }

    fn finish(self) -> Result<()> {
        let remaining = self.buf.len() - self.pos;
        if remaining > 0 {
            return Err(CodecError::TrailingBytes(remaining));
        }
        Ok(())
    }
}

/// Decodes one server-protocol message. Data-frame kinds (1–3) are
/// delegated to the exchange codec and wrapped as [`Message::Data`].
pub fn decode_message(buf: &[u8]) -> Result<Message> {
    if buf.len() < 3 {
        return Err(CodecError::Truncated {
            what: "message header",
            needed: 3,
            available: buf.len(),
        });
    }
    if buf[0] != FRAME_MAGIC {
        return Err(CodecError::BadMagic(buf[0]));
    }
    if buf[1] != WIRE_VERSION {
        return Err(CodecError::UnsupportedVersion(buf[1]));
    }
    let kind = buf[2];
    // Exchange data kinds (1–3) and the trace-context kind (12) decode
    // through the exchange codec.
    if (1..=3).contains(&kind) || kind == 12 {
        return codec::decode_frame(buf).map(Message::Data);
    }
    // Control frames: skip the header's unused u32 count.
    let mut c = Cursor { buf, pos: 3 };
    let count = c.take(4, "message count")?;
    if count != [0, 0, 0, 0] {
        return Err(CodecError::BadTag { what: "message count", tag: count[0] });
    }
    let msg = match kind {
        KIND_HELLO => Message::Hello {
            tenant: c.str("HELLO tenant")?,
            auth: c.str("HELLO auth")?,
        },
        KIND_QUERY => Message::Query { sql: c.str("QUERY sql")? },
        KIND_PREPARE => Message::Prepare { sql: c.str("PREPARE sql")? },
        KIND_EXECUTE => Message::Execute { stmt_id: c.u64("EXECUTE stmt id")? },
        KIND_KILL => Message::Kill { query_id: c.u64("KILL query id")? },
        KIND_CLOSE => Message::Close,
        KIND_OK => Message::Ok {
            code: c.u8("OK code")?,
            value: c.u64("OK value")?,
            text: c.str("OK text")?,
        },
        KIND_ERROR => Message::Error {
            code: c.u16("ERROR code")?,
            message: c.str("ERROR message")?,
        },
        tag => return Err(CodecError::BadTag { what: "message kind", tag }),
    };
    c.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_storage::{Row, Value};

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello { tenant: "acme".into(), auth: "s3cr3t".into() },
            Message::Hello { tenant: String::new(), auth: String::new() },
            Message::Query { sql: "SELECT 1 AS one".into() },
            Message::Prepare { sql: "SELECT * FROM t — ünïcode".into() },
            Message::Execute { stmt_id: u64::MAX },
            Message::Kill { query_id: 42 },
            Message::Close,
            Message::Ok { code: OK_INSERTED, value: 128, text: String::new() },
            Message::Ok { code: OK_TEXT, value: 0, text: "== Plan ==".into() },
            Message::Error { code: ERR_SATURATED, message: "queue full".into() },
            Message::Data(Frame::Rows(vec![Row::new(vec![Value::Integer(7)])])),
        ]
    }

    #[test]
    fn message_roundtrip_all_variants() {
        for m in samples() {
            let bytes = encode_message(&m);
            let back = decode_message(&bytes).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn truncation_always_errors() {
        for m in samples() {
            let bytes = encode_message(&m);
            for cut in 0..bytes.len() {
                assert!(
                    decode_message(&bytes[..cut]).is_err(),
                    "{m:?} decoded at cut {cut}"
                );
            }
        }
    }

    #[test]
    fn header_errors() {
        let bytes = encode_message(&Message::Close);
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(matches!(decode_message(&bad), Err(CodecError::BadMagic(0))));
        let mut bad = bytes.clone();
        bad[1] = 99;
        assert!(matches!(decode_message(&bad), Err(CodecError::UnsupportedVersion(99))));
        let mut bad = bytes.clone();
        bad[2] = 200;
        assert!(matches!(
            decode_message(&bad),
            Err(CodecError::BadTag { what: "message kind", tag: 200 })
        ));
        let mut long = bytes;
        long.push(0xFF);
        assert!(matches!(decode_message(&long), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn hostile_string_length_rejected_before_allocation() {
        // A QUERY claiming a 4 GB SQL string in a tiny buffer must fail the
        // length check, not attempt the allocation.
        let mut buf = vec![FRAME_MAGIC, WIRE_VERSION, KIND_QUERY, 0, 0, 0, 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_message(&buf),
            Err(CodecError::LengthOverflow { what: "QUERY sql", .. })
        ));
    }

    #[test]
    fn data_frames_pass_through_unchanged() {
        // The server protocol's data frames ARE exchange frames: the bytes
        // must be identical so fin checksums computed by either side agree.
        let rows = vec![Row::new(vec![Value::Integer(1), Value::varchar("x")])];
        let direct = codec::encode_rows_frame(&rows);
        let wrapped = encode_message(&Message::Data(Frame::Rows(rows)));
        assert_eq!(direct, wrapped);
    }

    #[test]
    fn nonzero_count_on_control_frame_rejected() {
        let mut buf = encode_message(&Message::Close);
        buf[3] = 1;
        assert!(matches!(
            decode_message(&buf),
            Err(CodecError::BadTag { what: "message count", .. })
        ));
    }
}
