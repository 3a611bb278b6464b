//! # lardb-la — dense linear algebra kernel
//!
//! This crate is the BLAS/LAPACK stand-in for the lardb system, the Rust
//! reproduction of *Scalable Linear Algebra on a Relational Database System*
//! (Luo et al., ICDE 2017). It provides the value types that the paper adds
//! to the relational model — [`Vector`], [`Matrix`] and [`LabeledScalar`] —
//! together with every numeric routine the paper's 22 built-in functions
//! need:
//!
//! * register-tiled dense GEMM ([`Matrix::multiply`]) and matrix–vector
//!   products,
//! * LU factorization with partial pivoting ([`lu::LuDecomposition`]) for
//!   `matrix_inverse` and `solve`, in LINPACK's element orders; the
//!   factorization and `matrix_inverse`'s substitutions are blocked onto
//!   the GEMM microkernel,
//! * Cholesky factorization ([`chol::CholeskyDecomposition`]) for symmetric
//!   positive-definite systems (the comparator baselines' least-squares
//!   solves; no SQL built-in uses it),
//! * element-wise arithmetic with scalar broadcasting, exactly matching the
//!   overloaded `+ - * /` semantics of the paper's SQL extension (§3.2),
//! * the label machinery of §3.3 (`label_scalar`, `label_vector`,
//!   `VECTORIZE`, `ROWMATRIX`, `COLMATRIX`) via [`LabeledScalar`], vector
//!   labels and the [`builder`] module.
//!
//! Everything is plain safe Rust over row-major `f64` storage; there are no
//! external numeric dependencies. Matrices in the engine are shared by
//! `Arc`, so all routines here take `&self` and return fresh values.
//!
//! ## Example
//!
//! ```
//! use lardb_la::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let x = Vector::from_slice(&[1.0, 1.0]);
//! let y = a.matrix_vector_multiply(&x).unwrap();
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//!
//! let inv = a.inverse().unwrap();
//! let id = a.multiply(&inv).unwrap();
//! assert!((id.get(0, 0).unwrap() - 1.0).abs() < 1e-12);
//! ```

pub mod builder;
pub mod chol;
pub mod dispatch;
pub mod error;
pub mod gemm;
pub mod labeled;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod sparse;
pub mod vector;

pub use builder::{ColMatrixBuilder, RowMatrixBuilder, VectorizeBuilder};
pub use chol::CholeskyDecomposition;
pub use dispatch::DispatchCounters;
pub use error::{LaError, Result};
pub use labeled::LabeledScalar;
pub use lu::LuDecomposition;
pub use qr::QrDecomposition;
pub use matrix::Matrix;
pub use sparse::{CooBuilder, SparseMatrix};
pub use vector::Vector;

/// Default label carried by vectors whose label was never set explicitly.
///
/// The paper (§3.3): "if the label is never explicitly set for a particular
/// vector, then its value is −1 by default".
pub const DEFAULT_LABEL: i64 = -1;
