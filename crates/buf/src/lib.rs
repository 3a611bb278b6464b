//! Memory governor and disk-backed spill files for out-of-core execution.
//!
//! This crate gives the executor two primitives:
//!
//! * [`MemoryGovernor`] — a per-database (or per-tenant) accountant that
//!   operators ask for byte reservations before materialising large state
//!   (hash-join build tables, aggregation maps). A denied reservation is the
//!   backpressure signal that flips an operator into its out-of-core path.
//! * [`SpillWriter`] / [`SpillFile`] — row batches serialized to temp files
//!   through `lardb-net`'s checked row stream (each file ends with a fin
//!   frame: frame count, row count, checksum over every byte), so a
//!   truncated or corrupted spill file surfaces as a typed [`BufError`],
//!   never as silently wrong rows.
//!
//! Governor and spill activity is reported through `lardb-obs` as the
//! `mem.*` and `spill.*` metrics.

pub mod governor;
pub mod spill;

pub use governor::{MemoryGovernor, MemoryReservation};
pub use spill::{SpillFile, SpillWriter};

use lardb_net::codec::CodecError;
use std::path::PathBuf;

/// Errors from the spill subsystem. IO errors carry the path and operation so
/// a failed spill names the file that broke; integrity failures distinguish
/// truncation (EOF before the fin frame) from corruption (bad bytes,
/// checksum/count mismatch, or trailing data).
#[derive(Debug, Clone, PartialEq)]
pub enum BufError {
    /// An OS-level IO failure; `op` is what we were doing (create/write/read/...).
    Io {
        path: PathBuf,
        op: &'static str,
        err: String,
    },
    /// The wire codec rejected a frame (bad magic, version, kind, length...).
    Codec(CodecError),
    /// The file ended before its fin frame: the writer died mid-spill.
    Truncated { path: PathBuf, detail: String },
    /// The file is structurally complete but its contents are wrong:
    /// checksum/count mismatch, or bytes after the fin frame.
    Corrupt { path: PathBuf, detail: String },
}

impl std::fmt::Display for BufError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufError::Io { path, op, err } => {
                write!(f, "spill io error ({op} {}): {err}", path.display())
            }
            BufError::Codec(e) => write!(f, "spill codec error: {e}"),
            BufError::Truncated { path, detail } => {
                write!(f, "spill file truncated ({}): {detail}", path.display())
            }
            BufError::Corrupt { path, detail } => {
                write!(f, "spill file corrupt ({}): {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for BufError {}

impl From<CodecError> for BufError {
    fn from(e: CodecError) -> Self {
        BufError::Codec(e)
    }
}

/// Result alias for the spill subsystem.
pub type Result<T> = std::result::Result<T, BufError>;

