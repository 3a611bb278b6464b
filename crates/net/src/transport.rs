//! Worker-to-worker frame transports.
//!
//! A [`Transport`] builds a [`Mesh`] connecting `W` worker endpoints.
//! Senders push opaque frames (already codec-encoded) to a destination
//! endpoint; each destination drains its inbox until every sender has
//! ended its channel. Frame order is preserved **per (from, to) channel**
//! and nothing is promised about cross-sender interleaving, so receivers
//! that need determinism bucket frames by sender (the exchange operators
//! do).
//!
//! A channel can end two ways, and the distinction is load-bearing:
//! a **clean close** ([`Mesh::close`]) means the sender finished, while a
//! **failure** ([`Mesh::fail`]) surfaces from [`Mesh::recv`] as
//! [`NetError::Sender`]. Conflating the two is how a dead worker silently
//! truncates a query's answer — the exact bug this layer exists to
//! prevent.
//!
//! The one carrier is [`ChannelTransport`]: one bounded
//! `std::sync::mpsc` inbox per destination. `send` blocks when the inbox
//! is full: real backpressure, measurable as enqueue-block time. The
//! traits are what lets the chaos suite's
//! [`FaultyTransport`](crate::FaultyTransport) wrap it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

use crate::{NetError, Result, DEFAULT_MAX_FRAME_BYTES};

/// Builds meshes over `W` workers.
pub trait Transport: Send + Sync {
    /// Connects all `workers × workers` channels and returns the mesh.
    fn mesh(&self, workers: usize) -> Result<Box<dyn Mesh>>;
}

/// A connected set of worker endpoints.
///
/// Contract: each endpoint index is driven by at most one sending thread
/// and one receiving thread at a time. `send` may block (backpressure).
/// After a sender calls [`Mesh::close`], its channels deliver no more
/// frames; once **all** senders have ended (closed *or* failed), `recv`
/// returns `Ok(None)`. A channel ended by [`Mesh::fail`] surfaces once
/// from `recv` as [`NetError::Sender`] before counting toward
/// end-of-stream.
pub trait Mesh: Send + Sync {
    /// Ships one frame from endpoint `from` to endpoint `to`, blocking
    /// while the destination's inbox is full.
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
    /// The sender's channel ended abnormally ([`Mesh::fail`]).
    Errored(String),
}

/// `(sender, event)`.
type Msg = (usize, SenderEvent);

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
}

impl Mesh for ChannelMesh {
    fn send(&self, from: usize, to: usize, frame: Vec<u8>) -> Result<()> {
        if frame.len() > self.max_frame_bytes {
            return Err(NetError::FrameTooLarge {
                len: frame.len() as u64,
                max: self.max_frame_bytes as u64,
            });
        }
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

    /// Frames pass through; `Closed` counts quietly toward end-of-stream,
    /// `Errored` counts too but surfaces once as [`NetError::Sender`].
    fn recv(&self, to: usize) -> Result<Option<(usize, Vec<u8>)>> {
        loop {
            if self.eofs[to].load(Ordering::Acquire) >= self.workers {
                return Ok(None);
            }
            // One thread drains an inbox, so the lock is uncontended; it
            // is there because a `Receiver` alone is not `Sync`.
            let (from, event) =
                self.rxs[to].lock().unwrap_or_else(|e| e.into_inner()).recv().map_err(|_| {
                    NetError::Transport(format!("inbox of worker {to} disconnected"))
                })?;
            match event {
                SenderEvent::Frame(frame) => return Ok(Some((from, frame))),
                SenderEvent::Closed => {
                    self.eofs[to].fetch_add(1, Ordering::AcqRel);
                }
                SenderEvent::Errored(reason) => {
                    self.eofs[to].fetch_add(1, Ordering::AcqRel);
                    return Err(NetError::Sender { from, reason });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{read_frame, write_frame, FrameRead};

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
    fn empty_mesh_recv_terminates() {
        let mesh = ChannelTransport::default().mesh(2).unwrap();
        mesh.close(0).unwrap();
        mesh.close(1).unwrap();
        assert!(mesh.recv(0).unwrap().is_none());
        assert!(mesh.recv(1).unwrap().is_none());
    }

    #[test]
    fn send_rejects_frames_over_max() {
        let transport = ChannelTransport { max_frame_bytes: 64, ..ChannelTransport::default() };
        let mesh = transport.mesh(2).unwrap();
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

    /// Every frame [`read_frame`] returns from `bytes` under `max`, and
    /// how the stream then ended: `closed`, or the error.
    fn read_all(mut bytes: &[u8], max: usize) -> (Vec<Vec<u8>>, String) {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut bytes, max) {
                Ok(FrameRead::Frame(f)) => frames.push(f),
                Ok(FrameRead::Closed) => return (frames, "closed".into()),
                Ok(FrameRead::Idle) => return (frames, "idle".into()),
                Err(e) => return (frames, e.to_string()),
            }
        }
    }

    /// `frames`, each behind its length prefix.
    fn framed(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, f).unwrap();
        }
        out
    }

    // The byte-stream side of the close/failure distinction: a stream of
    // length-prefixed frames (the server's sockets, spill files) may end
    // only between frames, and its length prefix is capped before anything
    // is allocated.

    #[test]
    fn reader_clean_close_on_frame_boundary() {
        assert_eq!(read_all(&framed(&[b"abc"]), 1024), (vec![b"abc".to_vec()], "closed".into()));
    }

    #[test]
    fn reader_midframe_eof_is_an_error_not_a_close() {
        // A peer dying mid-frame must not look like a close.
        let mut bytes = 100u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"only a few bytes");
        let (frames, end) = read_all(&bytes, 1024);
        assert!(frames.is_empty());
        assert_eq!(end, "stream ended after 16 of 100 frame bytes");
    }

    #[test]
    fn reader_partial_length_prefix_is_an_error() {
        let (frames, end) = read_all(&[0x01, 0x02], 1024); // 2 of 4 prefix bytes
        assert!(frames.is_empty());
        assert!(end.contains("2 of 4"), "reason: {end}");
    }

    #[test]
    fn reader_rejects_oversized_length_prefix() {
        // A hostile prefix must be refused before `vec![0u8; len]` runs.
        let (frames, end) = read_all(&framed(&[&[0u8; 65]]), 64);
        assert!(frames.is_empty());
        assert!(end.contains("exceeds maximum"), "reason: {end}");
    }

    #[test]
    fn reader_accepts_boundary_and_zero_length_frames() {
        let (frames, end) = read_all(&framed(&[&[7u8; 64], b""]), 64);
        assert_eq!(frames, [vec![7u8; 64], Vec::new()]);
        assert_eq!(end, "closed");
    }

    #[test]
    fn fail_surfaces_as_sender_error_then_eof() {
        let mesh = ChannelTransport::default().mesh(2).unwrap();
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
