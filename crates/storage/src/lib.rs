//! # lardb-storage — the relational storage layer
//!
//! This crate holds the relational data model of the lardb engine, extended
//! exactly as the paper proposes: alongside the classical SQL types, a
//! column may be of type `LABELED_SCALAR`, `VECTOR[n]` or `MATRIX[r][c]`
//! (§3.1), with the size parameters optionally unknown (`VECTOR[]`,
//! `MATRIX[10][]`).
//!
//! Contents:
//!
//! * [`DataType`] / [`Value`] — the type lattice and runtime values. LA
//!   values are `Arc`-shared so that copying a tuple never deep-copies an
//!   80 MB matrix; only the exchange operators charge full byte size, the
//!   way a real network shuffle would.
//! * [`ops`] — the overloaded `+ - * /` semantics of §3.2, including
//!   scalar↔vector/matrix broadcasting, plus comparisons and group-key
//!   hashing.
//! * [`Schema`] / [`Column`] — named, optionally qualified columns.
//! * [`Table`] — a horizontally partitioned heap; partitioning models the
//!   shared-nothing placement of tuples on the simulated cluster.
//! * [`Catalog`] — table and view registry with per-table statistics.
//! * [`gen`] — deterministic synthetic data generators for the paper's
//!   three workloads.

pub mod catalog;
pub mod gen;
pub mod ops;
pub mod row;
pub mod schema;
pub mod table;
pub mod types;
pub mod value;

pub use catalog::{Catalog, MatViewDef, TableStats};
pub use row::Row;
pub use schema::{Column, Schema};
pub use table::{Partitioning, Table};
pub use types::DataType;
pub use value::Value;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A value did not match the declared column type.
    TypeMismatch {
        /// What was being attempted.
        context: String,
    },
    /// Unknown table or view.
    NoSuchTable(String),
    /// A table or view with this name already exists.
    DuplicateTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A bare column name matched more than one qualified column.
    AmbiguousColumn(String),
    /// Row arity did not match the schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values in the offending row.
        got: usize,
    },
    /// INTEGER arithmetic left the 64-bit range; carries the operator.
    IntegerOverflow(&'static str),
    /// An error bubbled up from the linear-algebra kernel.
    La(lardb_la::LaError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::TypeMismatch { context } => write!(f, "type mismatch: {context}"),
            StorageError::NoSuchTable(t) => write!(f, "no such table or view: {t}"),
            StorageError::DuplicateTable(t) => write!(f, "table or view already exists: {t}"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            StorageError::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values but schema has {expected} columns")
            }
            StorageError::IntegerOverflow(op) => write!(f, "integer overflow in {op}"),
            StorageError::La(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<lardb_la::LaError> for StorageError {
    fn from(e: lardb_la::LaError) -> Self {
        StorageError::La(e)
    }
}

/// Result alias for the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;
