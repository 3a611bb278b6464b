//! # lardb — scalable linear algebra on a relational database system
//!
//! A Rust reproduction of *Scalable Linear Algebra on a Relational Database
//! System* (Luo, Gao, Gubanov, Perez, Jermaine — ICDE 2017). The engine is
//! a parallel, shared-nothing relational database whose relational model is
//! extended with `LABELED_SCALAR`, `VECTOR` and `MATRIX` attribute types,
//! a suite of built-in linear-algebra functions, label-driven construction
//! aggregates (`VECTORIZE`, `ROWMATRIX`, `COLMATRIX`), templated function
//! type signatures with compile-time dimension checking, and an
//! LA-size-aware cost-based optimizer.
//!
//! ## Quick start
//!
//! ```
//! use lardb::Database;
//!
//! let db = Database::new(2); // two simulated workers
//! db.execute("CREATE TABLE points (id INTEGER, x DOUBLE, y DOUBLE)").unwrap();
//! db.execute("INSERT INTO points VALUES (1, 1.0, 2.0), (2, 3.0, 4.0)").unwrap();
//!
//! // Build a vector per point with VECTORIZE, then take the Gram matrix.
//! db.execute(
//!     "CREATE VIEW vecs AS
//!      SELECT VECTORIZE(label_scalar(x, 0) ) AS v0, id FROM points GROUP BY id",
//! ).unwrap();
//!
//! let result = db.query("SELECT COUNT(*) AS n FROM points").unwrap();
//! assert_eq!(result.rows[0].value(0).as_integer(), Some(2));
//! ```
//!
//! The crate re-exports the pieces examples and benchmarks need:
//! [`Vector`], [`Matrix`], [`Value`], [`Row`], [`DataType`],
//! [`Partitioning`], plus the planner/executor layers for advanced use.

pub mod database;
pub mod error;
mod matview;
pub mod plan_cache;
pub mod sessions;

pub use database::{
    Database, DatabaseConfig, PreparedStatement, QueryResult, Response, Source,
};
pub use error::{EngineError, Result};
pub use plan_cache::{CacheStats, InvalidationReason, PlanCache};
pub use sessions::{SessionRegistry, SessionSnapshot};

// Re-exports for downstream convenience (examples, benches, tests).
pub use lardb_exec::{
    BatchStats, CancelToken, ChannelStats, Cluster, ExecStats, Executor, FaultKind,
    FaultPlan, MemoryConfig, NetConfig, OperatorStats, ShuffleStats, SpillStats,
    TransportMode,
};
pub use lardb_la::{
    dispatch, CooBuilder, DispatchCounters, LabeledScalar, Matrix, SparseMatrix, Vector,
};
pub use lardb_obs::{
    MetricKind, MetricSample, MetricsRegistry, OperatorProfile, QueryProfile,
    StageTiming,
};
pub use lardb_planner::{LogicalPlan, Optimizer, OptimizerConfig, PhysicalPlan};
pub use lardb_storage::{
    Catalog, Column, DataType, MatViewDef, Partitioning, Row, Schema, Table, Value,
};
