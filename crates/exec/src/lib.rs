//! # lardb-exec — physical operators on a simulated shared-nothing cluster
//!
//! This crate is the execution substrate standing in for SimSQL's
//! Hadoop-based runtime. A [`cluster::Cluster`] models `W` shared-nothing
//! workers; every table and every intermediate result is split into `W`
//! partitions, operators run partition-parallel on real threads
//! (std scoped threads), and data only crosses partitions through explicit
//! **exchange** operators, which meter every row and byte "shuffled" — the
//! simulation's stand-in for network cost. Under
//! [`TransportMode::Serialized`] the exchanges additionally encode every
//! boundary-crossing batch through the `lardb-net` wire codec and ship it
//! over a bounded in-process channel, metering actual encoded bytes per
//! worker-to-worker channel.
//!
//! Execution is operator-at-a-time materialized, mirroring the MapReduce
//! stage structure of the paper's SimSQL/Hadoop substrate, which also makes
//! per-operator wall-clock attribution trivial — that attribution is what
//! regenerates Figure 4 (join vs aggregation cost in the tuple-based Gram
//! computation). The one pipelined operator is the join→aggregate: joined
//! rows are chunked straight into the same compiled chunk pipeline a
//! scan-fed aggregate uses, and the join and the aggregate still report
//! separately.

pub mod agg;
pub mod batch;
pub mod cluster;
pub mod compile;
pub mod eval;
mod exchange;
pub mod executor;
pub mod kernels;
pub mod stats;

pub use cluster::Cluster;
pub use executor::{ExecutionResult, Executor, MemoryConfig, DEFAULT_BATCH_ROWS};
pub use lardb_net::{FaultKind, FaultPlan, NetConfig, TransportMode};
pub use lardb_pool::CancelToken;
pub use stats::{BatchStats, ChannelStats, ExecStats, OperatorStats, ShuffleStats, SpillStats};

use lardb_net::NetError;
use lardb_planner::PlanError;
use lardb_storage::StorageError;

/// Errors raised during query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A runtime type or dimension error (e.g. a `VECTOR[]` column holding
    /// a vector of the wrong length for an operation, per §3.1).
    Runtime(String),
    /// Error from the storage layer.
    Storage(StorageError),
    /// Error from expression machinery shared with the planner.
    Plan(PlanError),
    /// The query was aborted: some sibling worker hit an error first and
    /// flipped the query-wide cancellation token, so this worker stopped
    /// at its next chunk, task or exchange boundary instead of finishing
    /// work whose result will be thrown away.
    Cancelled(String),
    /// The out-of-core path failed: a spill file could not be written,
    /// or was truncated/corrupted when read back.
    Spill(lardb_buf::BufError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Runtime(m) => write!(f, "runtime error: {m}"),
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::Plan(e) => write!(f, "{e}"),
            ExecError::Cancelled(m) => write!(f, "query aborted: {m}"),
            ExecError::Spill(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<lardb_la::LaError> for ExecError {
    fn from(e: lardb_la::LaError) -> Self {
        ExecError::Storage(StorageError::La(e))
    }
}

impl From<NetError> for ExecError {
    fn from(e: NetError) -> Self {
        ExecError::Runtime(e.to_string())
    }
}

impl From<lardb_buf::BufError> for ExecError {
    fn from(e: lardb_buf::BufError) -> Self {
        ExecError::Spill(e)
    }
}

/// Result alias for the executor.
pub type Result<T> = std::result::Result<T, ExecError>;
