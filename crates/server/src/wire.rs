//! Length-prefixed message framing over a byte stream (a `TcpStream` or
//! a shared `&TcpStream`: a session's two threads share one socket).
//!
//! Same discipline as the exchange transport: every message is one
//! `u32`-LE length prefix followed by that many bytes of an encoded
//! [`Message`]. The prefix and payload are written
//! with a single `write_all` so a peer never observes a torn header.
//!
//! Reads distinguish three outcomes the session cares about:
//! a complete message, an orderly close (EOF *between* messages), and a
//! read timeout (EOF or timeout *inside* a message is a protocol error —
//! the peer died mid-frame).

use std::io::{self, ErrorKind, Read, Write};

use lardb_net::{decode_message, encode_message, Message};

/// Default cap on one wire message (64 MiB, matching the exchange
/// transport's `DEFAULT_MAX_FRAME_BYTES`).
pub const MAX_WIRE_BYTES: usize = 64 * 1024 * 1024;

/// Outcome of one read attempt.
#[derive(Debug)]
pub enum Recv {
    /// A complete message arrived.
    Msg(Message),
    /// The peer closed the connection cleanly (EOF at a message
    /// boundary).
    Closed,
    /// The configured read timeout elapsed with no traffic.
    TimedOut,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Sends one message: `u32` LE length prefix + encoded bytes, written as
/// one buffer.
pub fn send_message(stream: &mut impl Write, msg: &Message) -> io::Result<()> {
    send_bytes(stream, &encode_message(msg))
}

/// Sends pre-encoded message bytes (used by the result streamer, which
/// already has the bytes in hand for checksumming).
pub fn send_bytes(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_WIRE_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("outgoing message of {} bytes exceeds cap", body.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Receives one message, honouring the stream's configured read timeout.
///
/// A timeout *before any byte* of the length prefix yields
/// [`Recv::TimedOut`]; EOF there yields [`Recv::Closed`]. Once the first
/// byte has arrived the rest of the message must follow: EOF or timeout
/// mid-message is an error (the peer vanished mid-frame).
pub fn recv_message(stream: &mut impl Read) -> io::Result<Recv> {
    let mut prefix = [0u8; 4];
    // First byte decides between idle-timeout / clean-close / traffic.
    let n = match stream.read(&mut prefix[..1]) {
        Ok(0) => return Ok(Recv::Closed),
        Ok(n) => n,
        Err(e) if is_timeout(&e) => return Ok(Recv::TimedOut),
        Err(e) if e.kind() == ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    read_remaining(stream, &mut prefix[n..])?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_WIRE_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("incoming message claims {len} bytes (cap {MAX_WIRE_BYTES})"),
        ));
    }
    let mut body = vec![0u8; len];
    read_remaining(stream, &mut body)?;
    let msg = decode_message(&body)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad message: {e}")))?;
    Ok(Recv::Msg(msg))
}

/// `read_exact` that retries timeouts: once a message has started, a
/// pause mid-frame means "keep waiting", not "drop bytes on the floor".
/// EOF mid-frame is an `UnexpectedEof` error.
fn read_remaining(stream: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed mid-message",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn roundtrip_over_loopback() {
        let (mut c, mut s) = pair();
        send_message(&mut c, &Message::Query { sql: "SELECT 1".into() }).unwrap();
        match recv_message(&mut s).unwrap() {
            Recv::Msg(Message::Query { sql }) => assert_eq!(sql, "SELECT 1"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn clean_close_vs_timeout() {
        let (c, mut s) = pair();
        s.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        assert!(matches!(recv_message(&mut s).unwrap(), Recv::TimedOut));
        drop(c);
        assert!(matches!(recv_message(&mut s).unwrap(), Recv::Closed));
    }

    #[test]
    fn eof_mid_message_is_an_error() {
        let (mut c, mut s) = pair();
        // A length prefix promising 100 bytes, then a hangup.
        c.write_all(&100u32.to_le_bytes()).unwrap();
        c.write_all(&[0u8; 10]).unwrap();
        drop(c);
        let err = recv_message(&mut s).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let (mut c, mut s) = pair();
        c.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = recv_message(&mut s).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
