//! Deterministic fault injection for chaos testing the exchange layer.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs its sends
//! according to a [`FaultPlan`]: a seeded, purely arithmetic schedule
//! (splitmix64 over `(seed, from, to, frame-sequence)`), so the same plan
//! replays the same faults on every run. The chaos suite relies on this
//! to assert that **every** fault either leaves the result untouched or
//! surfaces as a clean error — never a silently truncated answer.
//!
//! Injected faults model the partial failures a real cluster sees:
//!
//! * [`FaultKind::DropFrame`] — a frame vanishes in flight.
//! * [`FaultKind::TruncateFrame`] — a frame arrives cut in half.
//! * [`FaultKind::CorruptBytes`] — a few bytes flip in flight.
//! * [`FaultKind::DelaySend`] — a frame is late (must be harmless).
//! * [`FaultKind::KillSender`] — one worker dies after sending N frames;
//!   everything it would still send is lost and its endpoint ends
//!   abnormally rather than with a clean close.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::transport::{Mesh, Transport};
use crate::Result;

/// What kind of fault a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard selected frames.
    DropFrame,
    /// Deliver only the first half of selected frames.
    TruncateFrame,
    /// Flip a few bytes of selected frames.
    CorruptBytes,
    /// Delay selected frames by a few milliseconds (benign: results must
    /// still be exactly correct).
    DelaySend,
    /// One seeded victim worker stops sending after
    /// [`FaultPlan::kill_after`] frames and its endpoint fails instead of
    /// closing cleanly.
    KillSender,
}

impl FaultKind {
    /// All kinds, in chaos-suite order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::DropFrame,
        FaultKind::TruncateFrame,
        FaultKind::CorruptBytes,
        FaultKind::DelaySend,
        FaultKind::KillSender,
    ];

    /// Parses a CLI spelling (`drop`, `truncate`, `corrupt`, `delay`,
    /// `kill`).
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s.to_ascii_lowercase().as_str() {
            "drop" => Some(FaultKind::DropFrame),
            "truncate" => Some(FaultKind::TruncateFrame),
            "corrupt" => Some(FaultKind::CorruptBytes),
            "delay" => Some(FaultKind::DelaySend),
            "kill" => Some(FaultKind::KillSender),
            _ => None,
        }
    }

    /// The CLI / display name.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DropFrame => "drop",
            FaultKind::TruncateFrame => "truncate",
            FaultKind::CorruptBytes => "corrupt",
            FaultKind::DelaySend => "delay",
            FaultKind::KillSender => "kill",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A reproducible fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Seed for the deterministic per-frame decision (and victim choice
    /// for [`FaultKind::KillSender`]).
    pub seed: u64,
    /// Probability a given frame is faulted, in parts per million
    /// (ignored by `KillSender`). Default 100 000 = 10%.
    pub rate_ppm: u32,
    /// For [`FaultKind::KillSender`]: frames the victim sends before
    /// dying. Default 3.
    pub kill_after: u64,
}

impl FaultPlan {
    /// A plan with the default rate (10%) and kill-after (3 frames).
    pub fn new(kind: FaultKind, seed: u64) -> Self {
        FaultPlan { kind, seed, rate_ppm: 100_000, kill_after: 3 }
    }
}

/// splitmix64: the standard 64-bit finalizer — cheap, stateless and
/// well-distributed, which is all a deterministic schedule needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn count_injected() {
    lardb_obs::global().counter("net.faults_injected").inc();
}

/// A [`Transport`] decorator that injects faults per a [`FaultPlan`].
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
}

impl FaultyTransport {
    /// Wraps `inner`, perturbing its sends per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        FaultyTransport { inner, plan }
    }
}

impl Transport for FaultyTransport {
    fn mesh(&self, workers: usize) -> Result<Box<dyn Mesh>> {
        let inner = self.inner.mesh(workers)?;
        // Victim choice is part of the seeded schedule, not runtime state.
        let victim =
            (splitmix64(self.plan.seed ^ 0x0D1E_50FF_A117) % workers.max(1) as u64) as usize;
        Ok(Box::new(FaultyMesh {
            inner,
            plan: self.plan.clone(),
            victim,
            workers,
            sent: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            killed: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            seq: (0..workers * workers).map(|_| AtomicU64::new(0)).collect(),
        }))
    }
}

struct FaultyMesh {
    inner: Box<dyn Mesh>,
    plan: FaultPlan,
    /// The one worker `KillSender` kills (seeded, fixed per mesh).
    victim: usize,
    workers: usize,
    /// Frames sent per endpoint (drives `kill_after`).
    sent: Vec<AtomicU64>,
    /// Endpoints that have dropped at least one frame to `KillSender` —
    /// their `close` becomes a `fail` so the death is never mistaken for
    /// a clean end-of-stream.
    killed: Vec<AtomicBool>,
    /// Per-(from, to) frame sequence numbers feeding the schedule.
    seq: Vec<AtomicU64>,
}

impl Mesh for FaultyMesh {
    fn send(&self, from: usize, to: usize, mut frame: Vec<u8>) -> Result<()> {
        let seq = self.seq[from * self.workers + to].fetch_add(1, Ordering::Relaxed);

        if self.plan.kind == FaultKind::KillSender {
            if from == self.victim {
                let total = self.sent[from].fetch_add(1, Ordering::Relaxed);
                if total >= self.plan.kill_after {
                    self.killed[from].store(true, Ordering::Release);
                    count_injected();
                    return Ok(()); // the dead worker's frame never leaves
                }
            }
            return self.inner.send(from, to, frame);
        }

        let channel = ((from as u64) << 40) | ((to as u64) << 20) | (seq & 0xF_FFFF);
        let h = splitmix64(self.plan.seed ^ splitmix64(channel));
        if (h % 1_000_000) as u32 >= self.plan.rate_ppm {
            return self.inner.send(from, to, frame);
        }
        count_injected();
        match self.plan.kind {
            FaultKind::DropFrame => Ok(()),
            FaultKind::TruncateFrame => {
                frame.truncate(frame.len() / 2);
                self.inner.send(from, to, frame)
            }
            FaultKind::CorruptBytes => {
                if !frame.is_empty() {
                    let len = frame.len() as u64;
                    for i in 0..3u64 {
                        let pos = (splitmix64(h ^ i) % len) as usize;
                        frame[pos] ^= 0x5A;
                    }
                }
                self.inner.send(from, to, frame)
            }
            FaultKind::DelaySend => {
                std::thread::sleep(Duration::from_millis(1 + h % 8));
                self.inner.send(from, to, frame)
            }
            FaultKind::KillSender => unreachable!("handled above"),
        }
    }

    fn close(&self, from: usize) -> Result<()> {
        if self.killed[from].load(Ordering::Acquire) {
            // A dead worker never closes cleanly; receivers must see an
            // abnormal end-of-channel, not EOF.
            return self.inner.fail(from, "endpoint killed by fault injection");
        }
        self.inner.close(from)
    }

    fn recv(&self, to: usize) -> Result<Option<(usize, Vec<u8>)>> {
        self.inner.recv(to)
    }

    fn fail(&self, from: usize, reason: &str) -> Result<()> {
        self.inner.fail(from, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelTransport, NetError};

    #[test]
    fn kind_parse_roundtrip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.label()), Some(k));
        }
        assert_eq!(FaultKind::parse("KILL"), Some(FaultKind::KillSender));
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn schedule_is_deterministic() {
        // Same seed ⇒ same faulted frame set, run after run.
        let faulted = |seed: u64| -> Vec<usize> {
            let t = FaultyTransport::new(
                Box::new(ChannelTransport::default()),
                FaultPlan { rate_ppm: 300_000, ..FaultPlan::new(FaultKind::DropFrame, seed) },
            );
            let mesh = t.mesh(2).unwrap();
            for i in 0..40 {
                mesh.send(0, 1, vec![i as u8]).unwrap();
            }
            mesh.close(0).unwrap();
            mesh.close(1).unwrap();
            let mut got = Vec::new();
            while let Some((_, frame)) = mesh.recv(1).unwrap() {
                got.push(frame[0] as usize);
            }
            got
        };
        let a = faulted(7);
        assert_eq!(a, faulted(7));
        assert!(a.len() < 40, "rate 30% dropped nothing out of 40 frames");
        assert_ne!(a, faulted(8), "different seeds picked identical drops");
    }

    #[test]
    fn killed_sender_fails_instead_of_closing() {
        let t = FaultyTransport::new(
            Box::new(ChannelTransport::default()),
            FaultPlan { kill_after: 2, ..FaultPlan::new(FaultKind::KillSender, 1) },
        );
        let workers = 2;
        let mesh = t.mesh(workers).unwrap();
        // Whoever the victim is, make both endpoints send past kill_after.
        for from in 0..workers {
            for i in 0..5u8 {
                mesh.send(from, 1 - from, vec![i]).unwrap();
            }
            mesh.close(from).unwrap();
        }
        let mut saw_sender_error = false;
        for to in 0..workers {
            loop {
                match mesh.recv(to) {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(NetError::Sender { .. }) => saw_sender_error = true,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert!(saw_sender_error, "victim's death looked like a clean close");
    }
}
