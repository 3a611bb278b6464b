//! # lardb-net — the message-passing exchange layer
//!
//! The paper's central claim (§2.1, §3.4) is that distributed matrix
//! arithmetic is plain distributed relational algebra over tiles. For that
//! claim to be *exercised* rather than simulated, data crossing a partition
//! boundary has to move as bytes through a real channel, not as `Arc`
//! pointers between threads. This crate provides the three pieces that make
//! the exchange operators honest:
//!
//! * [`codec`] — a hand-rolled, dependency-free binary wire format for
//!   [`Schema`](lardb_storage::Schema), [`Row`](lardb_storage::Row) and
//!   every [`Value`](lardb_storage::Value) variant (including
//!   `MATRIX[r][c]`, `VECTOR[n]` with its §3.3 label, and
//!   `LABELED_SCALAR`), with explicit little-endian framing, a version
//!   byte, and checked decode errors that never panic on corrupt input.
//! * [`stream`] — the checked row stream: the one length-prefix frame
//!   reader, the one frame cutter (rows → frames of at most
//!   [`ROWS_PER_FRAME`] rows and about a MiB, never past the carrier's
//!   cap) and the one
//!   completeness proof (sender's `Seal`, receiver's `Check`) that the
//!   exchange, the spill files and the server's reply stream all carry.
//! * [`transport`] — a [`Transport`] abstraction over worker-to-worker
//!   frame channels, and its one carrier: an in-process bounded-channel
//!   mesh (`std::sync::mpsc`, with backpressure). The chaos suite wraps
//!   it in a [`FaultyTransport`]; a mesh across processes would be
//!   another implementation of the same traits.
//!
//! The executor in `lardb-exec` picks a [`TransportMode`] per query:
//! `pointer` keeps the zero-copy exchange and sizes what it would ship
//! with the frame cutter ([`stream::frame_sizes`]); `serialized` encodes
//! every boundary-crossing batch through the codec and ships it. Both
//! count the same shuffle bytes and frames. The only sockets are the
//! query server's, which carry the same codec and checked stream.

pub mod codec;
pub mod fault;
pub mod msg;
pub mod stream;
pub mod transport;

pub use codec::{CodecError, FinSummary, Frame, FRAME_MAGIC, WIRE_VERSION};
pub use msg::{decode_message, encode_message, Message};
pub use fault::{FaultKind, FaultPlan, FaultyTransport};
pub use stream::ROWS_PER_FRAME;
pub use transport::{ChannelTransport, Mesh, Transport};

/// How exchange operators move rows between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Zero-copy: rows move as `Arc` pointers between threads; shuffle
    /// bytes and frames are what `Serialized` ships, sized by the frame
    /// cutter without encoding (and with no cap to refuse a row).
    #[default]
    Pointer,
    /// Every batch crossing a partition boundary is encoded through the
    /// wire codec and sent over an in-process bounded channel; shuffle
    /// bytes are the actual encoded frame sizes.
    Serialized,
}

impl TransportMode {
    /// All modes, in ablation order.
    pub const ALL: [TransportMode; 2] = [TransportMode::Pointer, TransportMode::Serialized];

    /// Parses a mode name as used by CLI flags (`pointer`, `serialized`).
    pub fn parse(s: &str) -> Option<TransportMode> {
        match s.to_ascii_lowercase().as_str() {
            "pointer" => Some(TransportMode::Pointer),
            "serialized" => Some(TransportMode::Serialized),
            _ => None,
        }
    }

    /// The CLI / display name.
    pub fn label(&self) -> &'static str {
        match self {
            TransportMode::Pointer => "pointer",
            TransportMode::Serialized => "serialized",
        }
    }
}

impl std::fmt::Display for TransportMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Default cap on a single frame's length prefix: 64 MiB. A corrupt or
/// hostile `u32` prefix must never drive `vec![0u8; len]` past this.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Network-layer knobs of the serialized exchange, plus the optional
/// fault-injection plan for chaos testing.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Maximum frame size in bytes: the frame cutter cuts rows frames
    /// under it, and the mesh refuses a larger frame on send.
    pub max_frame_bytes: usize,
    /// When set, serialized exchanges wrap their transport in a
    /// [`FaultyTransport`] driven by this deterministic schedule.
    pub faults: Option<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { max_frame_bytes: DEFAULT_MAX_FRAME_BYTES, faults: None }
    }
}

/// Errors raised by the codec or a transport.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Malformed or truncated wire data.
    Codec(CodecError),
    /// A channel failed (its other end is gone).
    Transport(String),
    /// A frame's length prefix exceeded the configured maximum.
    FrameTooLarge { len: u64, max: u64 },
    /// One sender's channel ended abnormally (a failed sender, an
    /// injected kill) — distinct from a clean close, so the receiver can
    /// flag truncation instead of silently accepting short results.
    Sender { from: usize, reason: String },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Transport(m) => write!(f, "transport error: {m}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max} bytes")
            }
            NetError::Sender { from, reason } => {
                write!(f, "sender {from} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_roundtrip() {
        for m in TransportMode::ALL {
            assert_eq!(TransportMode::parse(m.label()), Some(m));
        }
        assert_eq!(TransportMode::parse("SERIALIZED"), Some(TransportMode::Serialized));
        assert_eq!(TransportMode::parse("bogus"), None);
        assert_eq!(TransportMode::parse("channel"), None);
        assert_eq!(TransportMode::parse("tcp"), None);
    }
}
