//! Worker-to-worker frame transports.
//!
//! A [`Transport`] builds a [`Mesh`] connecting `W` worker endpoints.
//! Senders push opaque frames (already codec-encoded) to a destination
//! endpoint; each destination drains its inbox until every sender has
//! ended its channel. Frame order is preserved **per (from, to) channel**
//! — exactly the guarantee a TCP stream gives — and nothing is promised
//! about cross-sender interleaving, so receivers that need determinism
//! bucket frames by sender (the exchange operators do).
//!
//! A channel can end two ways, and the distinction is load-bearing:
//! a **clean close** ([`Mesh::close`]) means the sender finished, while a
//! **failure** ([`Mesh::fail`], a mid-frame EOF, or a socket read error)
//! surfaces from [`Mesh::recv`] as [`NetError::Sender`]. Conflating the
//! two is how a dead worker silently truncates a query's answer — the
//! exact bug this layer exists to prevent.
//!
//! Two implementations:
//!
//! * [`ChannelTransport`] — one bounded `std::sync::mpsc` inbox per
//!   destination. `send` blocks when the inbox is full: real backpressure,
//!   measurable as enqueue-block time. This is the default for
//!   `serialized` mode.
//! * [`TcpTransport`] — every (from, to) pair gets its own loopback TCP
//!   connection (`std::net`); frames travel length-prefixed through the
//!   kernel's socket buffers. Backpressure is the socket send buffer
//!   filling up. Connect/accept/handshake and per-frame reads are
//!   bounded by [`TcpTransport::timeout_ms`], and the attacker-controlled
//!   length prefix is capped by [`TcpTransport::max_frame_bytes`] before
//!   any allocation. This is the multi-process-shaped configuration:
//!   swapping the loopback address for a remote one is the only change a
//!   true multi-node deployment needs at this layer.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stream::{is_timeout, read_frame, write_frame, FrameRead, Stall};
use crate::{NetError, Result, DEFAULT_MAX_FRAME_BYTES, DEFAULT_NET_TIMEOUT_MS};

/// Bumps the process-wide per-transport send counters
/// (`net.<transport>.frames_sent` / `net.<transport>.bytes_sent`).
fn meter_send(transport: &str, bytes: usize) {
    let registry = lardb_obs::global();
    registry.counter(&format!("net.{transport}.frames_sent")).inc();
    registry
        .counter(&format!("net.{transport}.bytes_sent"))
        .add(bytes as u64);
}

/// Builds meshes over `W` workers.
pub trait Transport: Send + Sync {
    /// Connects all `workers × workers` channels and returns the mesh.
    fn mesh(&self, workers: usize) -> Result<Box<dyn Mesh>>;

    /// Short name for stats / display.
    fn name(&self) -> &'static str;
}

/// A connected set of worker endpoints.
///
/// Contract: each endpoint index is driven by at most one sending thread
/// and one receiving thread at a time. `send` may block (backpressure).
/// After a sender calls [`Mesh::close`], its channels deliver no more
/// frames; once **all** senders have ended (closed *or* failed), `recv`
/// returns `Ok(None)`. A channel ended by [`Mesh::fail`] (or by a
/// transport-level read failure) surfaces once from `recv` as
/// [`NetError::Sender`] before counting toward end-of-stream.
pub trait Mesh: Send + Sync {
    /// Ships one frame from endpoint `from` to endpoint `to`, blocking
    /// while the destination's inbox (or socket buffer) is full.
    fn send(&self, from: usize, to: usize, frame: Vec<u8>) -> Result<()>;

    /// Declares endpoint `from` cleanly done sending (to every
    /// destination).
    fn close(&self, from: usize) -> Result<()>;

    /// Ends endpoint `from` **abnormally** (to every destination):
    /// receivers observe [`NetError::Sender`] instead of a clean close.
    /// Used when a sender dies mid-exchange so its partial stream can
    /// never be mistaken for a complete one.
    fn fail(&self, from: usize, reason: &str) -> Result<()>;

    /// Receives the next frame addressed to `to`, tagged with its sender.
    /// Returns `Ok(None)` when every sender has ended. Returns
    /// `Err(NetError::Sender)` exactly once per abnormally-ended channel;
    /// the caller may keep calling `recv` to drain the remaining senders.
    fn recv(&self, to: usize) -> Result<Option<(usize, Vec<u8>)>>;
}

/// How one sender's channel presents to a receiver's inbox.
enum SenderEvent {
    /// A payload frame.
    Frame(Vec<u8>),
    /// The sender finished cleanly.
    Closed,
    /// The sender's channel ended abnormally (mid-frame EOF, read error,
    /// injected kill).
    Errored(String),
}

/// `(sender, event)`.
type Msg = (usize, SenderEvent);

/// Shared inbox-draining logic: frames pass through, `Closed` counts
/// quietly toward end-of-stream, `Errored` counts too but surfaces once
/// as [`NetError::Sender`].
fn drain_inbox(
    rx: &Mutex<Receiver<Msg>>,
    eofs: &AtomicUsize,
    workers: usize,
    to: usize,
) -> Result<Option<(usize, Vec<u8>)>> {
    loop {
        if eofs.load(Ordering::Acquire) >= workers {
            return Ok(None);
        }
        // One thread drains an inbox, so the lock is uncontended; it is
        // there because a `Receiver` alone is not `Sync`.
        let (from, event) = rx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv()
            .map_err(|_| NetError::Transport(format!("inbox of worker {to} disconnected")))?;
        match event {
            SenderEvent::Frame(frame) => return Ok(Some((from, frame))),
            SenderEvent::Closed => {
                eofs.fetch_add(1, Ordering::AcqRel);
            }
            SenderEvent::Errored(reason) => {
                eofs.fetch_add(1, Ordering::AcqRel);
                return Err(NetError::Sender { from, reason });
            }
        }
    }
}

// --------------------------------------------------- in-process channels

/// Bounded-channel mesh: the in-process transport.
#[derive(Debug, Clone)]
pub struct ChannelTransport {
    /// Inbox capacity per destination, in frames. Small on purpose: a full
    /// inbox makes `send` block, which is the backpressure the per-channel
    /// enqueue-block meter observes.
    pub capacity: usize,
    /// Maximum accepted frame size in bytes (checked on send).
    pub max_frame_bytes: usize,
}

impl Default for ChannelTransport {
    fn default() -> Self {
        ChannelTransport { capacity: 32, max_frame_bytes: DEFAULT_MAX_FRAME_BYTES }
    }
}

struct ChannelMesh {
    txs: Vec<SyncSender<Msg>>,
    rxs: Vec<Mutex<Receiver<Msg>>>,
    /// Per-destination count of senders that have ended (closed or
    /// failed).
    eofs: Vec<AtomicUsize>,
    workers: usize,
    max_frame_bytes: usize,
}

impl Transport for ChannelTransport {
    fn mesh(&self, workers: usize) -> Result<Box<dyn Mesh>> {
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel(self.capacity.max(1));
            txs.push(tx);
            rxs.push(Mutex::new(rx));
        }
        let eofs = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        Ok(Box::new(ChannelMesh {
            txs,
            rxs,
            eofs,
            workers,
            max_frame_bytes: self.max_frame_bytes.max(1),
        }))
    }

    fn name(&self) -> &'static str {
        "channel"
    }
}

impl Mesh for ChannelMesh {
    fn send(&self, from: usize, to: usize, frame: Vec<u8>) -> Result<()> {
        if frame.len() > self.max_frame_bytes {
            return Err(NetError::FrameTooLarge {
                len: frame.len() as u64,
                max: self.max_frame_bytes as u64,
            });
        }
        meter_send("channel", frame.len());
        self.txs[to]
            .send((from, SenderEvent::Frame(frame)))
            .map_err(|_| NetError::Transport(format!("channel to worker {to} disconnected")))
    }

    fn close(&self, from: usize) -> Result<()> {
        for to in 0..self.workers {
            self.txs[to]
                .send((from, SenderEvent::Closed))
                .map_err(|_| NetError::Transport(format!("channel to worker {to} disconnected")))?;
        }
        Ok(())
    }

    fn fail(&self, from: usize, reason: &str) -> Result<()> {
        for to in 0..self.workers {
            // A destination that already went away can't observe the
            // failure anyway; don't let that mask the original error.
            let _ = self.txs[to].send((from, SenderEvent::Errored(reason.to_string())));
        }
        Ok(())
    }

    fn recv(&self, to: usize) -> Result<Option<(usize, Vec<u8>)>> {
        drain_inbox(&self.rxs[to], &self.eofs[to], self.workers, to)
    }
}

// -------------------------------------------------------- loopback TCP

/// Loopback-TCP mesh: every (from, to) pair is a real `std::net` socket.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Inbox capacity per destination, in frames (reader threads stop
    /// pulling off the socket when the inbox is full, so socket buffers —
    /// and then the sender — back up: end-to-end backpressure).
    pub capacity: usize,
    /// Deadline for connect/accept/handshake and per-frame reads, in
    /// milliseconds. A stalled peer fails with [`NetError::Timeout`]
    /// instead of hanging mesh construction or a receiver forever.
    pub timeout_ms: u64,
    /// Maximum accepted frame size in bytes, enforced on send and —
    /// before the frame buffer is allocated — on the length prefix read
    /// off the wire.
    pub max_frame_bytes: usize,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            capacity: 32,
            timeout_ms: DEFAULT_NET_TIMEOUT_MS,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

struct TcpMesh {
    /// Outgoing streams, indexed `from * workers + to`.
    streams: Vec<Mutex<TcpStream>>,
    rxs: Vec<Mutex<Receiver<Msg>>>,
    eofs: Vec<AtomicUsize>,
    workers: usize,
    max_frame_bytes: usize,
}

fn io_err(context: &str, e: std::io::Error) -> NetError {
    if is_timeout(&e) {
        NetError::Timeout(format!("{context}: {e}"))
    } else {
        NetError::Transport(format!("{context}: {e}"))
    }
}

/// Connects with a deadline and bounded exponential-backoff retries
/// (transient refusals happen while the peer's listener backlog churns).
fn connect_with_retry(
    addr: std::net::SocketAddr,
    timeout: Duration,
    context: &str,
) -> Result<TcpStream> {
    const ATTEMPTS: u32 = 4;
    let mut backoff = Duration::from_millis(10);
    let mut last = None;
    for attempt in 0..ATTEMPTS {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < ATTEMPTS {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
    }
    let e = last.expect("at least one connect attempt ran");
    Err(io_err(&format!("{context} after {ATTEMPTS} attempts"), e))
}

/// Accepts one connection, polling a nonblocking listener to a deadline
/// so a peer that never connects can't hang mesh construction.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    to: usize,
) -> Result<TcpStream> {
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(&format!("accept on endpoint {to}"), e))?;
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                conn.set_nonblocking(false)
                    .map_err(|e| io_err(&format!("accept on endpoint {to}"), e))?;
                return Ok(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(NetError::Timeout(format!(
                        "accept on endpoint {to}: no peer connected before the deadline"
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(io_err(&format!("accept on endpoint {to}"), e)),
        }
    }
}

impl Transport for TcpTransport {
    fn mesh(&self, workers: usize) -> Result<Box<dyn Mesh>> {
        let timeout = Duration::from_millis(self.timeout_ms.max(1));
        // One listener per destination endpoint.
        let mut listeners = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for to in 0..workers {
            let l = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| io_err(&format!("bind endpoint {to}"), e))?;
            addrs.push(
                l.local_addr()
                    .map_err(|e| io_err(&format!("local_addr endpoint {to}"), e))?,
            );
            listeners.push(l);
        }
        // Connect the full mesh first (the kernel backlog holds them), then
        // accept. Each connection handshakes with its sender index.
        let mut streams = Vec::with_capacity(workers * workers);
        for from in 0..workers {
            for (to, addr) in addrs.iter().enumerate() {
                let mut s = connect_with_retry(*addr, timeout, &format!("connect {from}→{to}"))?;
                s.set_nodelay(true).ok();
                s.set_write_timeout(Some(timeout))
                    .map_err(|e| io_err(&format!("configure {from}→{to}"), e))?;
                s.write_all(&(from as u32).to_le_bytes())
                    .map_err(|e| io_err(&format!("handshake {from}→{to}"), e))?;
                streams.push(Mutex::new(s));
            }
        }
        // Accept and spawn one reader thread per incoming connection; each
        // pushes frames into the destination's bounded inbox.
        let max_frame_bytes = self.max_frame_bytes.max(1);
        let mut rxs = Vec::with_capacity(workers);
        for (to, listener) in listeners.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Msg>(self.capacity.max(1));
            let deadline = Instant::now() + timeout;
            for _ in 0..workers {
                let mut conn = accept_with_deadline(&listener, deadline, to)?;
                conn.set_read_timeout(Some(timeout))
                    .map_err(|e| io_err(&format!("configure endpoint {to}"), e))?;
                let mut hs = [0u8; 4];
                conn.read_exact(&mut hs)
                    .map_err(|e| io_err(&format!("handshake on endpoint {to}"), e))?;
                let from = u32::from_le_bytes(hs) as usize;
                if from >= workers {
                    return Err(NetError::Transport(format!(
                        "handshake on endpoint {to}: bogus sender index {from}"
                    )));
                }
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("lardb-net-rx-{from}-{to}"))
                    .spawn(move || reader_loop(conn, from, tx, max_frame_bytes))
                    .map_err(|e| io_err("spawn reader", e))?;
            }
            rxs.push(Mutex::new(rx));
        }
        let eofs = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        Ok(Box::new(TcpMesh { streams, rxs, eofs, workers, max_frame_bytes }))
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

/// Drains one incoming connection frame by frame ([`read_frame`]) until
/// the channel ends. A clean EOF on a frame boundary reports `Closed`;
/// anything else — mid-frame EOF, read errors, a timeout before or inside
/// a frame, an oversized length prefix — reports `Errored` so the receiver
/// can flag truncation instead of silently accepting a short stream.
fn reader_loop(mut conn: TcpStream, from: usize, tx: SyncSender<Msg>, max_frame_bytes: usize) {
    loop {
        let event = match read_frame(&mut conn, max_frame_bytes, Stall::Fail) {
            Ok(FrameRead::Frame(frame)) => SenderEvent::Frame(frame),
            Ok(FrameRead::Closed) => SenderEvent::Closed,
            Ok(FrameRead::Idle) => SenderEvent::Errored("read timeout waiting for a frame".into()),
            Err(e) => SenderEvent::Errored(e.to_string()),
        };
        let last = !matches!(event, SenderEvent::Frame(_));
        // A failed send means the receiver went away: stop pulling.
        if tx.send((from, event)).is_err() || last {
            return;
        }
    }
}

impl Mesh for TcpMesh {
    fn send(&self, from: usize, to: usize, frame: Vec<u8>) -> Result<()> {
        if frame.len() > self.max_frame_bytes {
            return Err(NetError::FrameTooLarge {
                len: frame.len() as u64,
                max: self.max_frame_bytes as u64,
            });
        }
        meter_send("tcp", frame.len());
        let mut s = self.streams[from * self.workers + to]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *s, &frame).map_err(|e| io_err(&format!("send {from}→{to}"), e))
    }

    fn close(&self, from: usize) -> Result<()> {
        for to in 0..self.workers {
            let s = self.streams[from * self.workers + to]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.shutdown(std::net::Shutdown::Write)
                .map_err(|e| io_err(&format!("close {from}→{to}"), e))?;
        }
        Ok(())
    }

    fn fail(&self, from: usize, _reason: &str) -> Result<()> {
        // Write a length prefix with no payload behind it, then shut the
        // stream: every reader sees a mid-frame EOF, which is exactly how
        // a worker death looks on a real network.
        for to in 0..self.workers {
            let mut s = self.streams[from * self.workers + to]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let _ = s.write_all(&8u32.to_le_bytes());
            let _ = s.shutdown(std::net::Shutdown::Write);
        }
        Ok(())
    }

    fn recv(&self, to: usize) -> Result<Option<(usize, Vec<u8>)>> {
        drain_inbox(&self.rxs[to], &self.eofs[to], self.workers, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuffles distinct payloads through a full mesh and checks each
    /// endpoint sees every sender's frames, in per-channel order.
    fn exercise(transport: &dyn Transport, workers: usize, frames_per_channel: usize) {
        let mesh = transport.mesh(workers).unwrap();
        let mesh = mesh.as_ref();
        std::thread::scope(|s| {
            let receivers: Vec<_> = (0..workers)
                .map(|to| {
                    s.spawn(move || {
                        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); workers];
                        while let Some((from, frame)) = mesh.recv(to).unwrap() {
                            got[from].push(frame);
                        }
                        got
                    })
                })
                .collect();
            for from in 0..workers {
                s.spawn(move || {
                    for seq in 0..frames_per_channel {
                        for to in 0..workers {
                            let payload = vec![from as u8, to as u8, seq as u8];
                            mesh.send(from, to, payload).unwrap();
                        }
                    }
                    mesh.close(from).unwrap();
                });
            }
            for (to, h) in receivers.into_iter().enumerate() {
                let got = h.join().unwrap();
                for (from, frames) in got.iter().enumerate() {
                    assert_eq!(frames.len(), frames_per_channel, "{from}→{to}");
                    for (seq, frame) in frames.iter().enumerate() {
                        assert_eq!(frame, &vec![from as u8, to as u8, seq as u8]);
                    }
                }
            }
        });
    }

    #[test]
    fn channel_mesh_delivers_in_order() {
        exercise(&ChannelTransport::default(), 4, 17);
    }

    #[test]
    fn channel_mesh_backpressure_does_not_deadlock() {
        // Capacity 1 forces senders to block constantly; concurrent
        // receivers must keep the system moving.
        exercise(&ChannelTransport { capacity: 1, ..ChannelTransport::default() }, 3, 50);
    }

    #[test]
    fn tcp_mesh_delivers_in_order() {
        exercise(&TcpTransport::default(), 3, 11);
    }

    #[test]
    fn tcp_mesh_single_worker() {
        exercise(&TcpTransport::default(), 1, 5);
    }

    #[test]
    fn empty_mesh_recv_terminates() {
        for t in [&ChannelTransport::default() as &dyn Transport, &TcpTransport::default()] {
            let mesh = t.mesh(2).unwrap();
            mesh.close(0).unwrap();
            mesh.close(1).unwrap();
            assert!(mesh.recv(0).unwrap().is_none());
            assert!(mesh.recv(1).unwrap().is_none());
        }
    }

    /// Drives `reader_loop` directly over a local socket pair.
    fn reader_harness(
        max_frame_bytes: usize,
    ) -> (TcpStream, Receiver<Msg>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let (tx, rx) = sync_channel::<Msg>(8);
        let h = std::thread::spawn(move || reader_loop(server, 0, tx, max_frame_bytes));
        (client, rx, h)
    }

    #[test]
    fn reader_clean_close_on_frame_boundary() {
        let (mut client, rx, h) = reader_harness(1024);
        client.write_all(&3u32.to_le_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Frame(f)) if f == b"abc"));
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Closed)));
        h.join().unwrap();
    }

    #[test]
    fn reader_midframe_eof_is_an_error_not_a_close() {
        // The original bug: a peer dying mid-frame looked like EOF.
        let (mut client, rx, h) = reader_harness(1024);
        client.write_all(&100u32.to_le_bytes()).unwrap();
        client.write_all(b"only a few bytes").unwrap();
        drop(client);
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Errored(_))));
        h.join().unwrap();
    }

    #[test]
    fn reader_partial_length_prefix_is_an_error() {
        let (mut client, rx, h) = reader_harness(1024);
        client.write_all(&[0x01, 0x02]).unwrap(); // 2 of 4 prefix bytes
        drop(client);
        match rx.recv().unwrap() {
            (0, SenderEvent::Errored(reason)) => {
                assert!(reason.contains("2 of 4"), "reason: {reason}")
            }
            other => panic!("expected Errored, got {:?}", discriminant_name(&other.1)),
        }
        h.join().unwrap();
    }

    #[test]
    fn reader_rejects_oversized_length_prefix() {
        // A hostile prefix must be refused before vec![0u8; len] runs.
        let (mut client, rx, h) = reader_harness(64);
        client.write_all(&65u32.to_le_bytes()).unwrap();
        client.write_all(&[0u8; 65]).unwrap();
        match rx.recv().unwrap() {
            (0, SenderEvent::Errored(reason)) => {
                assert!(reason.contains("exceeds maximum"), "reason: {reason}")
            }
            other => panic!("expected Errored, got {:?}", discriminant_name(&other.1)),
        }
        h.join().unwrap();
    }

    #[test]
    fn reader_accepts_boundary_and_zero_length_frames() {
        let (mut client, rx, h) = reader_harness(64);
        client.write_all(&64u32.to_le_bytes()).unwrap();
        client.write_all(&[7u8; 64]).unwrap(); // exactly max: allowed
        client.write_all(&0u32.to_le_bytes()).unwrap(); // empty frame
        drop(client);
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Frame(f)) if f.len() == 64));
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Frame(f)) if f.is_empty()));
        assert!(matches!(rx.recv().unwrap(), (0, SenderEvent::Closed)));
        h.join().unwrap();
    }

    fn discriminant_name(e: &SenderEvent) -> &'static str {
        match e {
            SenderEvent::Frame(_) => "Frame",
            SenderEvent::Closed => "Closed",
            SenderEvent::Errored(_) => "Errored",
        }
    }

    #[test]
    fn send_rejects_frames_over_max() {
        for t in [
            &ChannelTransport { max_frame_bytes: 64, ..ChannelTransport::default() }
                as &dyn Transport,
            &TcpTransport { max_frame_bytes: 64, ..TcpTransport::default() },
        ] {
            let mesh = t.mesh(2).unwrap();
            assert!(matches!(
                mesh.send(0, 1, vec![0u8; 65]),
                Err(NetError::FrameTooLarge { len: 65, max: 64 })
            ));
            mesh.send(0, 1, vec![0u8; 64]).unwrap(); // boundary: allowed
            mesh.send(0, 1, Vec::new()).unwrap(); // zero-length: allowed
            mesh.close(0).unwrap();
            mesh.close(1).unwrap();
            assert!(matches!(mesh.recv(1).unwrap(), Some((0, f)) if f.len() == 64));
            assert!(matches!(mesh.recv(1).unwrap(), Some((0, f)) if f.is_empty()));
            assert!(mesh.recv(1).unwrap().is_none());
        }
    }

    #[test]
    fn fail_surfaces_as_sender_error_then_eof() {
        for t in [&ChannelTransport::default() as &dyn Transport, &TcpTransport::default()] {
            let mesh = t.mesh(2).unwrap();
            mesh.send(0, 1, vec![1, 2, 3]).unwrap();
            mesh.fail(0, "injected death").unwrap();
            mesh.close(1).unwrap();
            assert!(matches!(mesh.recv(1).unwrap(), Some((0, f)) if f == [1, 2, 3]));
            assert!(matches!(
                mesh.recv(1),
                Err(NetError::Sender { from: 0, .. })
            ));
            // The failed channel still counts toward end-of-stream.
            assert!(mesh.recv(1).unwrap().is_none());
        }
    }

    #[test]
    fn accept_times_out_against_absent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        match accept_with_deadline(&listener, deadline, 0) {
            Err(NetError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn handshake_times_out_against_stalled_peer() {
        // A peer that connects but never sends its handshake must not
        // hang the reader forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _stalled = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut conn = conn;
        let mut hs = [0u8; 4];
        let e = conn.read_exact(&mut hs).map_err(|e| io_err("handshake", e));
        assert!(matches!(e, Err(NetError::Timeout(_))), "got {e:?}");
    }
}
