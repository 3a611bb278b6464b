//! Message framing over a byte stream (a `TcpStream` or a shared
//! `&TcpStream`: a session's two threads share one socket).
//!
//! Every message is one frame of the checked row stream
//! (`lardb_net::stream`) holding an encoded [`Message`]. The prefix and
//! payload are written with a single `write_all` so a peer never observes
//! a torn header.
//!
//! Reads distinguish three outcomes the session cares about:
//! a complete message, an orderly close (EOF *between* messages), and a
//! read timeout before a message. Inside a message a timeout means "keep
//! waiting" and EOF is a protocol error — the peer died mid-frame.

use std::io::{self, ErrorKind, Read, Write};

use lardb_net::stream::{read_frame, write_frame, FrameRead};
use lardb_net::{decode_message, encode_message, Message};

/// Cap on one wire message (64 MiB, matching the exchange transport's
/// `DEFAULT_MAX_FRAME_BYTES`): what the result streamer cuts its rows
/// frames to, and what either end refuses to allocate beyond.
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

/// Sends one message as one frame.
pub fn send_message(stream: &mut impl Write, msg: &Message) -> io::Result<()> {
    send_bytes(stream, &encode_message(msg))
}

/// Sends pre-encoded message bytes (the result streamer's frames) as one
/// frame, written as one buffer and flushed.
pub fn send_bytes(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_WIRE_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("outgoing message of {} bytes exceeds cap", body.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + body.len());
    write_frame(&mut buf, body)?;
    stream.write_all(&buf)?;
    stream.flush()
}

/// Receives one message, honouring the stream's configured read timeout
/// while no message is under way.
pub fn recv_message(stream: &mut impl Read) -> io::Result<Recv> {
    Ok(match read_frame(stream, MAX_WIRE_BYTES)? {
        FrameRead::Frame(body) => Recv::Msg(decode(&body)?),
        FrameRead::Closed => Recv::Closed,
        FrameRead::Idle => Recv::TimedOut,
    })
}

/// Decodes one received frame as a message.
pub(crate) fn decode(body: &[u8]) -> io::Result<Message> {
    decode_message(body)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad message: {e}")))
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
