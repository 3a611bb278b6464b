//! The built-in function suite of §3.1–§3.3, with templated type
//! signatures (§4.2) and runtime evaluation.
//!
//! Each scalar built-in knows two things:
//!
//! 1. **Its templated signature** — [`Builtin::infer_type`] takes the
//!    (possibly dimension-annotated) argument types and *unifies* the
//!    signature's dimension parameters against them, exactly as §4.2
//!    describes: binding `a`/`b`/`c` to known sizes, failing at compile
//!    time when a parameter would bind to two different values, and
//!    leaving parameters unknown (runtime-checked) when the input size is
//!    unknown. The inferred output size is what the cost model prices.
//! 2. **Its runtime semantics** — [`Builtin::evaluate`] over [`Value`]s.
//!
//! Aggregates ([`AggFunc`]) follow the same pattern; their accumulators
//! live in `lardb-exec`, but result-type inference is here.

use std::borrow::{Borrow, Cow};

use lardb_la::{LabeledScalar, Matrix, Vector};
use lardb_storage::{DataType, Value};

use crate::error::{PlanError, Result};

/// Type information for one function argument at planning time: its data
/// type plus, when the argument is an integer literal, its value — needed
/// by constructors like `identity(10)` whose *output type* depends on an
/// argument *value*.
#[derive(Debug, Clone, Copy)]
pub struct ArgType {
    /// The argument's inferred type.
    pub dtype: DataType,
    /// The constant value, when statically known.
    pub const_int: Option<i64>,
}

impl ArgType {
    /// Plain (non-constant) argument.
    pub fn of(dtype: DataType) -> Self {
        ArgType { dtype, const_int: None }
    }

    /// Integer-literal argument.
    pub fn const_int(v: i64) -> Self {
        ArgType { dtype: DataType::Integer, const_int: Some(v) }
    }
}

/// The scalar built-in functions over `LABELED_SCALAR`, `VECTOR` and
/// `MATRIX`. The paper reports 22 built-ins; this implementation has 32
/// (the paper's suite plus `solve_ls`, `min_element`, `max_element`, a
/// few constructors its examples imply, and the sparse-representation
/// helpers `sparsify`, `densify`, `nnz` and `sparse_entry`), plus two
/// internal ones only the optimizer's rewrites produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]`
    MatrixMultiply,
    /// `matrix_vector_multiply(MATRIX[a][b], VECTOR[b]) -> VECTOR[a]`
    MatrixVectorMultiply,
    /// `vector_matrix_multiply(VECTOR[a], MATRIX[a][b]) -> VECTOR[b]`
    VectorMatrixMultiply,
    /// `outer_product(VECTOR[a], VECTOR[b]) -> MATRIX[a][b]`
    OuterProduct,
    /// `inner_product(VECTOR[a], VECTOR[a]) -> DOUBLE`
    InnerProduct,
    /// `trans_matrix(MATRIX[a][b]) -> MATRIX[b][a]`
    TransMatrix,
    /// `matrix_inverse(MATRIX[a][a]) -> MATRIX[a][a]`
    MatrixInverse,
    /// `diag(MATRIX[a][a]) -> VECTOR[a]`
    Diag,
    /// `diag_matrix(VECTOR[a]) -> MATRIX[a][a]`
    DiagMatrix,
    /// `identity(n) -> MATRIX[n][n]`
    Identity,
    /// `zero_matrix(r, c) -> MATRIX[r][c]`
    ZeroMatrix,
    /// `zero_vector(n) -> VECTOR[n]`
    ZeroVector,
    /// `trace(MATRIX[a][a]) -> DOUBLE`
    Trace,
    /// `frobenius_norm(MATRIX[a][b]) -> DOUBLE`
    FrobeniusNorm,
    /// `norm2(VECTOR[a]) -> DOUBLE`
    Norm2,
    /// `sum_elements(MATRIX[a][b] | VECTOR[a]) -> DOUBLE`
    SumElements,
    /// `row_sums(MATRIX[a][b]) -> VECTOR[a]`
    RowSums,
    /// `col_sums(MATRIX[a][b]) -> VECTOR[b]`
    ColSums,
    /// `row_min(MATRIX[a][b]) -> VECTOR[a]`
    RowMin,
    /// `row_max(MATRIX[a][b]) -> VECTOR[a]`
    RowMax,
    /// `get_scalar(VECTOR[a], i) -> DOUBLE`
    GetScalar,
    /// `get_entry(MATRIX[a][b], i, j) -> DOUBLE`
    GetEntry,
    /// `label_scalar(DOUBLE, i) -> LABELED_SCALAR`
    LabelScalar,
    /// `label_vector(VECTOR[a], i) -> VECTOR[a]` (attaches the label)
    LabelVector,
    /// `solve(MATRIX[a][a], VECTOR[a]) -> VECTOR[a]`
    Solve,
    /// `solve_ls(MATRIX[a][b], VECTOR[a]) -> VECTOR[b]` — least squares via
    /// Householder QR (extension beyond the paper's list).
    SolveLs,
    /// `min_element(MATRIX[a][b] | VECTOR[a]) -> DOUBLE`
    MinElement,
    /// `max_element(MATRIX[a][b] | VECTOR[a]) -> DOUBLE`
    MaxElement,
    /// `sparsify(MATRIX[a][b]) -> MATRIX[a][b]` — force the sparse
    /// representation (logically the identity function).
    Sparsify,
    /// `densify(MATRIX[a][b]) -> MATRIX[a][b]` — force the dense
    /// representation (logically the identity function).
    Densify,
    /// `nnz(MATRIX[a][b]) -> INTEGER` — number of stored/non-zero entries.
    Nnz,
    /// `sparse_entry(row, col, val) -> VECTOR[3]` — packs one COO
    /// coordinate into a 3-vector. Internal carrier for the single-argument
    /// `MATRIX_FROM_ENTRIES` aggregate; the binder synthesizes it, but it
    /// is also callable directly.
    SparseEntry,
    /// `gram(MATRIX[a][b]) -> MATRIX[b][b]`: `matrix_multiply(trans_matrix(x),
    /// x)` as the optimizer rewrites it (SYRK on a dense tile). Internal:
    /// not in [`ALL_BUILTINS`], so SQL cannot name it.
    Gram,
    /// `trans_matrix_vector_multiply(MATRIX[a][b], VECTOR[a]) -> VECTOR[b]`:
    /// `matrix_vector_multiply(trans_matrix(x), v)` as the optimizer
    /// rewrites it (no transpose materialized on a dense tile). Internal,
    /// like [`Builtin::Gram`].
    TransMatrixVectorMultiply,
}

/// All built-ins, for registry listings and docs.
pub const ALL_BUILTINS: &[Builtin] = &[
    Builtin::MatrixMultiply,
    Builtin::MatrixVectorMultiply,
    Builtin::VectorMatrixMultiply,
    Builtin::OuterProduct,
    Builtin::InnerProduct,
    Builtin::TransMatrix,
    Builtin::MatrixInverse,
    Builtin::Diag,
    Builtin::DiagMatrix,
    Builtin::Identity,
    Builtin::ZeroMatrix,
    Builtin::ZeroVector,
    Builtin::Trace,
    Builtin::FrobeniusNorm,
    Builtin::Norm2,
    Builtin::SumElements,
    Builtin::RowSums,
    Builtin::ColSums,
    Builtin::RowMin,
    Builtin::RowMax,
    Builtin::GetScalar,
    Builtin::GetEntry,
    Builtin::LabelScalar,
    Builtin::LabelVector,
    Builtin::Solve,
    Builtin::SolveLs,
    Builtin::MinElement,
    Builtin::MaxElement,
    Builtin::Sparsify,
    Builtin::Densify,
    Builtin::Nnz,
    Builtin::SparseEntry,
];

impl Builtin {
    /// SQL-visible name.
    pub fn name(&self) -> &'static str {
        match self {
            Builtin::MatrixMultiply => "matrix_multiply",
            Builtin::MatrixVectorMultiply => "matrix_vector_multiply",
            Builtin::VectorMatrixMultiply => "vector_matrix_multiply",
            Builtin::OuterProduct => "outer_product",
            Builtin::InnerProduct => "inner_product",
            Builtin::TransMatrix => "trans_matrix",
            Builtin::MatrixInverse => "matrix_inverse",
            Builtin::Diag => "diag",
            Builtin::DiagMatrix => "diag_matrix",
            Builtin::Identity => "identity",
            Builtin::ZeroMatrix => "zero_matrix",
            Builtin::ZeroVector => "zero_vector",
            Builtin::Trace => "trace",
            Builtin::FrobeniusNorm => "frobenius_norm",
            Builtin::Norm2 => "norm2",
            Builtin::SumElements => "sum_elements",
            Builtin::RowSums => "row_sums",
            Builtin::ColSums => "col_sums",
            Builtin::RowMin => "row_min",
            Builtin::RowMax => "row_max",
            Builtin::GetScalar => "get_scalar",
            Builtin::GetEntry => "get_entry",
            Builtin::LabelScalar => "label_scalar",
            Builtin::LabelVector => "label_vector",
            Builtin::Solve => "solve",
            Builtin::SolveLs => "solve_ls",
            Builtin::MinElement => "min_element",
            Builtin::MaxElement => "max_element",
            Builtin::Sparsify => "sparsify",
            Builtin::Densify => "densify",
            Builtin::Nnz => "nnz",
            Builtin::SparseEntry => "sparse_entry",
            Builtin::Gram => "gram",
            Builtin::TransMatrixVectorMultiply => "trans_matrix_vector_multiply",
        }
    }

    /// For an internal built-in, the SQL built-in it stands for once its
    /// first argument is transposed: `f(x, ..)` is `g(trans_matrix(x),
    /// last)`, where `last` is its last argument (`x` itself for `gram`).
    fn spelled_out(&self) -> Builtin {
        match self {
            Builtin::Gram => Builtin::MatrixMultiply,
            Builtin::TransMatrixVectorMultiply => Builtin::MatrixVectorMultiply,
            sql => *sql,
        }
    }

    /// Case-insensitive lookup by SQL name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        let lower = name.to_ascii_lowercase();
        ALL_BUILTINS.iter().copied().find(|b| b.name() == lower)
    }

    /// Number of arguments the function takes.
    pub fn arity(&self) -> usize {
        match self {
            Builtin::TransMatrix
            | Builtin::MatrixInverse
            | Builtin::Diag
            | Builtin::DiagMatrix
            | Builtin::Identity
            | Builtin::ZeroVector
            | Builtin::Trace
            | Builtin::FrobeniusNorm
            | Builtin::Norm2
            | Builtin::SumElements
            | Builtin::RowSums
            | Builtin::ColSums
            | Builtin::RowMin
            | Builtin::RowMax
            | Builtin::MinElement
            | Builtin::MaxElement
            | Builtin::Sparsify
            | Builtin::Densify
            | Builtin::Nnz
            | Builtin::Gram => 1,
            Builtin::GetEntry | Builtin::SparseEntry => 3,
            _ => 2,
        }
    }

    /// Templated-signature type inference (§4.2). Binds the signature's
    /// dimension parameters against the argument types, failing on
    /// impossible bindings and producing the exact output type when the
    /// inputs' sizes are known.
    pub fn infer_type(&self, args: &[ArgType]) -> Result<DataType> {
        if args.len() != self.arity() {
            return Err(PlanError::Type(format!(
                "{} takes {} argument(s), got {}",
                self.name(),
                self.arity(),
                args.len()
            )));
        }
        let t = |i: usize| args[i].dtype;
        match self {
            Builtin::MatrixMultiply => {
                let (a, b) = expect_matrix(self.name(), t(0))?;
                let (b2, c) = expect_matrix(self.name(), t(1))?;
                unify(self.name(), "b", b, b2)?;
                Ok(DataType::Matrix(a, c))
            }
            Builtin::MatrixVectorMultiply => {
                let (a, b) = expect_matrix(self.name(), t(0))?;
                let b2 = expect_vector(self.name(), t(1))?;
                unify(self.name(), "b", b, b2)?;
                Ok(DataType::Vector(a))
            }
            Builtin::VectorMatrixMultiply => {
                let a = expect_vector(self.name(), t(0))?;
                let (a2, b) = expect_matrix(self.name(), t(1))?;
                unify(self.name(), "a", a, a2)?;
                Ok(DataType::Vector(b))
            }
            Builtin::OuterProduct => {
                let a = expect_vector(self.name(), t(0))?;
                let b = expect_vector(self.name(), t(1))?;
                Ok(DataType::Matrix(a, b))
            }
            Builtin::InnerProduct => {
                let a = expect_vector(self.name(), t(0))?;
                let b = expect_vector(self.name(), t(1))?;
                unify(self.name(), "a", a, b)?;
                Ok(DataType::Double)
            }
            Builtin::TransMatrix => {
                let (a, b) = expect_matrix(self.name(), t(0))?;
                Ok(DataType::Matrix(b, a))
            }
            Builtin::MatrixInverse => {
                let (a, b) = expect_square(self.name(), t(0))?;
                Ok(DataType::Matrix(a.or(b), a.or(b)))
            }
            Builtin::Diag => {
                let (a, b) = expect_square(self.name(), t(0))?;
                Ok(DataType::Vector(a.or(b)))
            }
            Builtin::DiagMatrix => {
                let a = expect_vector(self.name(), t(0))?;
                Ok(DataType::Matrix(a, a))
            }
            Builtin::Identity => {
                expect_integer(self.name(), t(0))?;
                let n = args[0].const_int.map(|v| v as usize);
                Ok(DataType::Matrix(n, n))
            }
            Builtin::ZeroMatrix => {
                expect_integer(self.name(), t(0))?;
                expect_integer(self.name(), t(1))?;
                Ok(DataType::Matrix(
                    args[0].const_int.map(|v| v as usize),
                    args[1].const_int.map(|v| v as usize),
                ))
            }
            Builtin::ZeroVector => {
                expect_integer(self.name(), t(0))?;
                Ok(DataType::Vector(args[0].const_int.map(|v| v as usize)))
            }
            Builtin::Trace => {
                expect_square(self.name(), t(0))?;
                Ok(DataType::Double)
            }
            Builtin::FrobeniusNorm => {
                expect_matrix(self.name(), t(0))?;
                Ok(DataType::Double)
            }
            Builtin::Norm2 => {
                expect_vector(self.name(), t(0))?;
                Ok(DataType::Double)
            }
            Builtin::SumElements => match t(0) {
                DataType::Matrix(_, _) | DataType::Vector(_) => Ok(DataType::Double),
                other => Err(PlanError::Type(format!(
                    "sum_elements expects MATRIX or VECTOR, got {other}"
                ))),
            },
            Builtin::RowSums | Builtin::RowMin | Builtin::RowMax => {
                let (a, _) = expect_matrix(self.name(), t(0))?;
                Ok(DataType::Vector(a))
            }
            Builtin::ColSums => {
                let (_, b) = expect_matrix(self.name(), t(0))?;
                Ok(DataType::Vector(b))
            }
            Builtin::GetScalar => {
                expect_vector(self.name(), t(0))?;
                expect_integer(self.name(), t(1))?;
                Ok(DataType::Double)
            }
            Builtin::GetEntry => {
                expect_matrix(self.name(), t(0))?;
                expect_integer(self.name(), t(1))?;
                expect_integer(self.name(), t(2))?;
                Ok(DataType::Double)
            }
            Builtin::LabelScalar => {
                expect_numeric_scalar(self.name(), t(0))?;
                expect_integer(self.name(), t(1))?;
                Ok(DataType::LabeledScalar)
            }
            Builtin::LabelVector => {
                let a = expect_vector(self.name(), t(0))?;
                expect_integer(self.name(), t(1))?;
                Ok(DataType::Vector(a))
            }
            Builtin::Solve => {
                let (a, a2) = expect_square(self.name(), t(0))?;
                let b = expect_vector(self.name(), t(1))?;
                let n = unify(self.name(), "a", a.or(a2), b)?;
                Ok(DataType::Vector(n))
            }
            Builtin::SolveLs => {
                let (rows, cols) = expect_matrix(self.name(), t(0))?;
                let b = expect_vector(self.name(), t(1))?;
                unify(self.name(), "a", rows, b)?;
                Ok(DataType::Vector(cols))
            }
            Builtin::MinElement | Builtin::MaxElement => match t(0) {
                DataType::Matrix(_, _) | DataType::Vector(_) => Ok(DataType::Double),
                other => Err(PlanError::Type(format!(
                    "{} expects MATRIX or VECTOR, got {other}",
                    self.name()
                ))),
            },
            Builtin::Sparsify | Builtin::Densify => {
                let (a, b) = expect_matrix(self.name(), t(0))?;
                Ok(DataType::Matrix(a, b))
            }
            Builtin::Nnz => {
                expect_matrix(self.name(), t(0))?;
                Ok(DataType::Integer)
            }
            Builtin::SparseEntry => {
                expect_numeric_scalar(self.name(), t(0))?;
                expect_numeric_scalar(self.name(), t(1))?;
                expect_numeric_scalar(self.name(), t(2))?;
                Ok(DataType::Vector(Some(3)))
            }
            Builtin::Gram | Builtin::TransMatrixVectorMultiply => {
                let xt = ArgType::of(Builtin::TransMatrix.infer_type(&args[..1])?);
                self.spelled_out().infer_type(&[xt, args[args.len() - 1]])
            }
        }
    }

    /// Runtime evaluation. NULL inputs yield NULL (SQL semantics). Size
    /// errors that the static checker could not rule out (unknown dims)
    /// surface here as runtime errors, per §3.1.
    ///
    /// Arguments are read by reference: the interpreter passes its owned
    /// `&[Value]` window, the vectorized kernels pass lanes borrowed from
    /// their columns, and no payload `Arc` is cloned to make the call.
    pub fn evaluate<V: Borrow<Value>>(&self, args: &[V]) -> Result<Value> {
        let arg = move |i: usize| args[i].borrow();
        if args.iter().any(|v| v.borrow().is_null()) {
            return Ok(Value::Null);
        }
        let bad = |i: usize| -> PlanError {
            PlanError::Type(format!(
                "{}: argument {} has unsupported runtime type {}",
                self.name(),
                i + 1,
                arg(i).data_type()
            ))
        };
        // Dense view of a matrix argument in either representation. A
        // sparse tile reaching a builtin with no sparse kernel densifies
        // here, and the dispatch layer counts it so EXPLAIN ANALYZE can
        // show the fallback.
        let mat = |i: usize| -> Result<Cow<'_, Matrix>> {
            match arg(i) {
                Value::Matrix(m) => Ok(Cow::Borrowed(m)),
                Value::SparseMatrix(m) => {
                    lardb_la::dispatch::note_kernel(lardb_la::dispatch::Kernel::Densified);
                    Ok(Cow::Owned(m.to_dense()))
                }
                _ => Err(bad(i)),
            }
        };
        let vec = |i: usize| arg(i).as_vector().ok_or_else(|| bad(i));
        let int = |i: usize| arg(i).as_integer().ok_or_else(|| bad(i));
        let dbl = |i: usize| arg(i).as_double().ok_or_else(|| bad(i));
        use lardb_la::dispatch::{self, Kernel};

        Ok(match self {
            Builtin::MatrixMultiply => match (arg(0), arg(1)) {
                // Sparse × sparse: Gustavson SpGEMM; keep the product
                // sparse only while it is still worth it.
                (Value::SparseMatrix(a), Value::SparseMatrix(b)) => {
                    dispatch::note_kernel(Kernel::SpGemm);
                    let p = a.multiply_sparse(b)?;
                    if dispatch::keep_sparse(p.density()) {
                        Value::sparse_matrix(p)
                    } else {
                        Value::matrix(p.to_dense())
                    }
                }
                // Sparse × dense: row-wise skip-zero kernel, dense result.
                (Value::SparseMatrix(a), Value::Matrix(b)) => {
                    dispatch::note_kernel(Kernel::SpDense);
                    Value::matrix(a.multiply_dense(b)?)
                }
                // Dense × sparse and dense × dense go through the dense
                // GEMM (densifying the right side when needed).
                _ => {
                    let (a, b) = (mat(0)?, mat(1)?);
                    Value::matrix(a.multiply(&b)?)
                }
            },
            Builtin::MatrixVectorMultiply => match arg(0) {
                Value::SparseMatrix(a) => {
                    dispatch::note_kernel(Kernel::Spmv);
                    Value::vector(a.spmv(vec(1)?)?)
                }
                _ => Value::vector(mat(0)?.matrix_vector_multiply(vec(1)?)?),
            },
            Builtin::VectorMatrixMultiply => match arg(1) {
                // xᵀA = (Aᵀx)ᵀ; the sparse transpose is O(nnz log nnz) at worst.
                Value::SparseMatrix(a) => {
                    dispatch::note_kernel(Kernel::Spmv);
                    Value::vector(a.transpose().spmv(vec(0)?)?)
                }
                _ => {
                    let m = mat(1)?;
                    Value::vector(vec(0)?.vector_matrix_multiply(&m)?)
                }
            },
            Builtin::OuterProduct => Value::matrix(vec(0)?.outer_product(vec(1)?)),
            Builtin::InnerProduct => Value::Double(vec(0)?.inner_product(vec(1)?)?),
            Builtin::TransMatrix => match arg(0) {
                Value::SparseMatrix(a) => Value::sparse_matrix(a.transpose()),
                _ => Value::matrix(mat(0)?.transpose()),
            },
            Builtin::MatrixInverse => Value::matrix(mat(0)?.inverse()?),
            Builtin::Diag => Value::vector(mat(0)?.diag()?),
            Builtin::DiagMatrix => Value::matrix(Matrix::from_diag(vec(0)?)),
            Builtin::Identity => Value::matrix(Matrix::identity(usize_arg(self, int(0)?)?)),
            Builtin::ZeroMatrix => Value::matrix(Matrix::zeros(
                usize_arg(self, int(0)?)?,
                usize_arg(self, int(1)?)?,
            )),
            Builtin::ZeroVector => Value::vector(Vector::zeros(usize_arg(self, int(0)?)?)),
            Builtin::Trace => Value::Double(mat(0)?.trace()?),
            Builtin::FrobeniusNorm => Value::Double(mat(0)?.frobenius_norm()),
            Builtin::Norm2 => Value::Double(vec(0)?.norm2()),
            Builtin::SumElements => match arg(0) {
                Value::Matrix(m) => Value::Double(m.sum_elements()),
                Value::SparseMatrix(m) => Value::Double(m.sum_elements()),
                Value::Vector(v) => Value::Double(v.sum_elements()),
                _ => return Err(bad(0)),
            },
            Builtin::RowSums => Value::vector(mat(0)?.row_sums()),
            Builtin::ColSums => Value::vector(mat(0)?.col_sums()),
            Builtin::RowMin => Value::vector(mat(0)?.row_mins()),
            Builtin::RowMax => Value::vector(mat(0)?.row_maxs()),
            Builtin::GetScalar => Value::Double(vec(0)?.get(usize_arg(self, int(1)?)?)?),
            Builtin::GetEntry => Value::Double(
                mat(0)?.get(usize_arg(self, int(1)?)?, usize_arg(self, int(2)?)?)?,
            ),
            Builtin::LabelScalar => {
                Value::LabeledScalar(LabeledScalar::new(dbl(0)?, int(1)?))
            }
            Builtin::LabelVector => Value::vector(vec(0)?.with_label(int(1)?)),
            Builtin::Solve => Value::vector(mat(0)?.solve(vec(1)?)?),
            Builtin::SolveLs => Value::vector(mat(0)?.solve_least_squares(vec(1)?)?),
            Builtin::MinElement => match arg(0) {
                Value::Matrix(m) => Value::Double(
                    m.as_slice().iter().copied().fold(f64::INFINITY, f64::min),
                ),
                Value::Vector(v) => Value::Double(v.min_element()),
                _ => return Err(bad(0)),
            },
            Builtin::MaxElement => match arg(0) {
                Value::Matrix(m) => Value::Double(
                    m.as_slice().iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ),
                Value::Vector(v) => Value::Double(v.max_element()),
                _ => return Err(bad(0)),
            },
            Builtin::Sparsify => match arg(0) {
                Value::SparseMatrix(_) => arg(0).clone(),
                Value::Matrix(m) => {
                    Value::sparse_matrix(lardb_la::SparseMatrix::from_dense(m)?)
                }
                _ => return Err(bad(0)),
            },
            // Explicit representation change requested by the query; not a
            // dispatch decision, so it is not counted as a densification.
            Builtin::Densify => match arg(0) {
                Value::SparseMatrix(m) => Value::matrix(m.to_dense()),
                Value::Matrix(_) => arg(0).clone(),
                _ => return Err(bad(0)),
            },
            Builtin::Nnz => match arg(0) {
                Value::SparseMatrix(m) => Value::Integer(m.nnz() as i64),
                Value::Matrix(m) => Value::Integer(
                    m.as_slice().iter().filter(|&&x| x != 0.0).count() as i64,
                ),
                _ => return Err(bad(0)),
            },
            Builtin::SparseEntry => {
                Value::vector(Vector::from_slice(&[dbl(0)?, dbl(1)?, dbl(2)?]))
            }
            // A dense tile takes the rewrite's kernel, which gives the bits
            // the spelled-out call would (DESIGN.md §5); anything else runs
            // the spelled-out call itself, sparse kernels and errors alike.
            Builtin::Gram => match arg(0) {
                Value::Matrix(x) => Value::matrix(x.gram()),
                _ => return self.evaluate_spelled_out(args),
            },
            Builtin::TransMatrixVectorMultiply => match (arg(0), arg(1)) {
                (Value::Matrix(x), Value::Vector(v)) => {
                    Value::vector(x.transpose_vector_multiply(v)?)
                }
                _ => return self.evaluate_spelled_out(args),
            },
        })
    }

    /// Evaluates an internal built-in as the call it stands for.
    fn evaluate_spelled_out<V: Borrow<Value>>(&self, args: &[V]) -> Result<Value> {
        let xt = Builtin::TransMatrix.evaluate(&args[..1])?;
        self.spelled_out().evaluate(&[&xt, args[args.len() - 1].borrow()])
    }
}

fn usize_arg(b: &Builtin, v: i64) -> Result<usize> {
    usize::try_from(v).map_err(|_| {
        PlanError::Type(format!("{}: negative size/index argument {v}", b.name()))
    })
}

fn expect_matrix(
    func: &str,
    t: DataType,
) -> Result<(Option<usize>, Option<usize>)> {
    match t {
        DataType::Matrix(r, c) => Ok((r, c)),
        other => Err(PlanError::Type(format!("{func} expects MATRIX, got {other}"))),
    }
}

fn expect_square(func: &str, t: DataType) -> Result<(Option<usize>, Option<usize>)> {
    let (r, c) = expect_matrix(func, t)?;
    if let (Some(r), Some(c)) = (r, c) {
        if r != c {
            return Err(PlanError::Type(format!(
                "{func} expects a square matrix, got MATRIX[{r}][{c}]"
            )));
        }
    }
    Ok((r, c))
}

fn expect_vector(func: &str, t: DataType) -> Result<Option<usize>> {
    match t {
        DataType::Vector(n) => Ok(n),
        other => Err(PlanError::Type(format!("{func} expects VECTOR, got {other}"))),
    }
}

fn expect_integer(func: &str, t: DataType) -> Result<()> {
    match t {
        DataType::Integer => Ok(()),
        other => Err(PlanError::Type(format!("{func} expects INTEGER, got {other}"))),
    }
}

fn expect_numeric_scalar(func: &str, t: DataType) -> Result<()> {
    match t {
        DataType::Integer | DataType::Double | DataType::LabeledScalar => Ok(()),
        other => Err(PlanError::Type(format!("{func} expects a numeric scalar, got {other}"))),
    }
}

/// Unifies one dimension parameter across two occurrences, per §4.2: two
/// known values must agree ("a different value for b would cause a
/// compile-time error"); an unknown occurrence adopts the known one.
fn unify(
    func: &str,
    param: &str,
    a: Option<usize>,
    b: Option<usize>,
) -> Result<Option<usize>> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => Err(PlanError::Type(format!(
            "{func}: dimension parameter '{param}' bound to both {x} and {y}"
        ))),
        (Some(x), _) => Ok(Some(x)),
        (_, y) => Ok(y),
    }
}

/// Public dimension unification used by element-wise arithmetic type
/// inference (`VECTOR[a] + VECTOR[a]` and friends).
pub fn unify_dims_public(
    op: &str,
    a: Option<usize>,
    b: Option<usize>,
) -> Result<Option<usize>> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => Err(PlanError::Type(format!(
            "element-wise {op}: operand sizes {x} and {y} differ"
        ))),
        (Some(x), _) => Ok(Some(x)),
        (_, y) => Ok(y),
    }
}

/// SQL aggregate functions, including the three LA construction aggregates
/// of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `SUM` — element-wise over vectors/matrices (§3.2).
    Sum,
    /// `COUNT`
    Count,
    /// `AVG`
    Avg,
    /// `MIN` — element-wise over vectors/matrices.
    Min,
    /// `MAX` — element-wise over vectors/matrices.
    Max,
    /// `VECTORIZE(LABELED_SCALAR) -> VECTOR` (§3.3)
    Vectorize,
    /// `ROWMATRIX(VECTOR) -> MATRIX` (§3.3)
    RowMatrix,
    /// `COLMATRIX(VECTOR) -> MATRIX` (§3.3)
    ColMatrix,
    /// `MATRIX_FROM_ENTRIES(row, col, val) -> MATRIX` — assembles a sparse
    /// matrix from COO coordinates, one entry per input row. Duplicate
    /// coordinates sum; negative or > `u32::MAX` coordinates are typed
    /// errors. The binder packs the three arguments into one
    /// `sparse_entry(row, col, val)` vector, so the planner-level aggregate
    /// stays single-argument like every other. The carrier exists at plan
    /// level only: the interpreter folds it, while the compiled pipeline
    /// compiles its three operands and folds their typed lanes, building
    /// no vector per row.
    MatrixFromEntries,
}

impl AggFunc {
    /// SQL-visible name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Vectorize => "VECTORIZE",
            AggFunc::RowMatrix => "ROWMATRIX",
            AggFunc::ColMatrix => "COLMATRIX",
            AggFunc::MatrixFromEntries => "MATRIX_FROM_ENTRIES",
        }
    }

    /// Case-insensitive lookup by SQL name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "COUNT" => Some(AggFunc::Count),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "VECTORIZE" => Some(AggFunc::Vectorize),
            "ROWMATRIX" => Some(AggFunc::RowMatrix),
            "COLMATRIX" => Some(AggFunc::ColMatrix),
            "MATRIX_FROM_ENTRIES" => Some(AggFunc::MatrixFromEntries),
            _ => None,
        }
    }

    /// Result type of the aggregate over an input of type `input`.
    pub fn infer_type(&self, input: DataType) -> Result<DataType> {
        match self {
            AggFunc::Count => Ok(DataType::Integer),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                if input.is_numeric() && input != DataType::LabeledScalar {
                    Ok(input)
                } else {
                    Err(PlanError::Type(format!(
                        "{} cannot aggregate values of type {input}",
                        self.name()
                    )))
                }
            }
            AggFunc::Avg => match input {
                DataType::Integer | DataType::Double => Ok(DataType::Double),
                DataType::Vector(n) => Ok(DataType::Vector(n)),
                DataType::Matrix(r, c) => Ok(DataType::Matrix(r, c)),
                other => Err(PlanError::Type(format!("AVG cannot aggregate {other}"))),
            },
            AggFunc::Vectorize => match input {
                DataType::LabeledScalar => Ok(DataType::Vector(None)),
                other => Err(PlanError::Type(format!(
                    "VECTORIZE expects LABELED_SCALAR, got {other}"
                ))),
            },
            AggFunc::RowMatrix | AggFunc::ColMatrix => match input {
                // The assembled size depends on the labels present, so it
                // is unknown statically.
                DataType::Vector(_) => Ok(DataType::Matrix(None, None)),
                other => Err(PlanError::Type(format!(
                    "{} expects VECTOR, got {other}",
                    self.name()
                ))),
            },
            AggFunc::MatrixFromEntries => match input {
                // Input is the packed sparse_entry(row, col, val) carrier.
                // The assembled size depends on the coordinates present,
                // so it is unknown statically.
                DataType::Vector(_) => Ok(DataType::Matrix(None, None)),
                other => Err(PlanError::Type(format!(
                    "MATRIX_FROM_ENTRIES expects (row, col, val), got {other}"
                ))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(r: usize, c: usize) -> ArgType {
        ArgType::of(DataType::Matrix(Some(r), Some(c)))
    }

    fn v(n: usize) -> ArgType {
        ArgType::of(DataType::Vector(Some(n)))
    }

    #[test]
    fn all_builtins_roundtrip_names() {
        for b in ALL_BUILTINS {
            assert_eq!(Builtin::from_name(b.name()), Some(*b));
            assert_eq!(Builtin::from_name(&b.name().to_uppercase()), Some(*b));
        }
        assert_eq!(Builtin::from_name("nope"), None);
        assert_eq!(ALL_BUILTINS.len(), 32);
    }

    #[test]
    fn internal_builtins_cannot_be_named() {
        for b in [Builtin::Gram, Builtin::TransMatrixVectorMultiply] {
            assert!(!ALL_BUILTINS.contains(&b));
            assert_eq!(Builtin::from_name(b.name()), None);
        }
    }

    #[test]
    fn internal_builtins_type_as_the_call_they_stand_for() {
        let x = |r, c| ArgType::of(DataType::Matrix(r, c));
        let v = |n| ArgType::of(DataType::Vector(n));
        let t = |a: ArgType| ArgType::of(Builtin::TransMatrix.infer_type(&[a]).unwrap());
        for m in [x(Some(5), Some(3)), x(None, Some(3)), x(Some(5), None), x(None, None)] {
            assert_eq!(
                Builtin::Gram.infer_type(&[m]).unwrap(),
                Builtin::MatrixMultiply.infer_type(&[t(m), m]).unwrap()
            );
            for n in [Some(5), Some(4), None] {
                let spelled = Builtin::MatrixVectorMultiply.infer_type(&[t(m), v(n)]);
                let got = Builtin::TransMatrixVectorMultiply.infer_type(&[m, v(n)]);
                assert_eq!(format!("{got:?}"), format!("{spelled:?}"));
            }
        }
    }

    #[test]
    fn internal_builtins_evaluate_as_the_call_they_stand_for() {
        let dense = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let sparse = lardb_la::SparseMatrix::from_dense(&dense).unwrap();
        let v = |n: usize| Value::vector(Vector::from_fn(n, |i| i as f64 - 0.5));
        for x in [Value::matrix(dense), Value::sparse_matrix(sparse), Value::Null] {
            let xt = Builtin::TransMatrix.evaluate(std::slice::from_ref(&x)).unwrap();
            let want = Builtin::MatrixMultiply.evaluate(&[xt.clone(), x.clone()]).unwrap();
            assert_eq!(Builtin::Gram.evaluate(std::slice::from_ref(&x)).unwrap(), want);
            // 3 is the matching length; 2 fails with the transposed shape.
            for v in [v(3), v(2), Value::Null] {
                let want = Builtin::MatrixVectorMultiply.evaluate(&[xt.clone(), v.clone()]);
                let got = Builtin::TransMatrixVectorMultiply.evaluate(&[x.clone(), v]);
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    /// Borrowed arguments (`&[&Value]`, the vectorized kernels' lanes)
    /// evaluate exactly as owned ones (the interpreter's window): same
    /// value bits, same error message, for every built-in over every
    /// argument tuple drawn from dense and sparse matrices, vectors,
    /// scalars and NULL.
    #[test]
    fn borrowed_arguments_evaluate_as_owned_ones() {
        let dense = Matrix::from_rows(&[&[4.0, 1.0, -0.0], &[1.0, 3.0, 0.5], &[0.0, 0.5, 2.0]])
            .unwrap();
        let pool = [
            Value::sparse_matrix(lardb_la::SparseMatrix::from_dense(&dense).unwrap()),
            Value::matrix(dense),
            Value::vector(Vector::from_slice(&[1.5, -2.0, f64::NAN])),
            Value::vector(Vector::from_slice(&[0.25, -0.0, 3.0])),
            Value::Integer(1),
            Value::Double(0.5),
            Value::Null,
        ];
        let internal = [Builtin::Gram, Builtin::TransMatrixVectorMultiply];
        for b in ALL_BUILTINS.iter().chain(&internal) {
            let mut tuples: Vec<Vec<&Value>> = vec![Vec::new()];
            for _ in 0..b.arity() {
                tuples = tuples
                    .into_iter()
                    .flat_map(|t| pool.iter().map(move |v| [t.clone(), vec![v]].concat()))
                    .collect();
            }
            let mut ok = 0;
            for borrowed in tuples {
                let owned: Vec<Value> = borrowed.iter().map(|v| (*v).clone()).collect();
                let want = format!("{:?}", b.evaluate(&owned));
                let got = format!("{:?}", b.evaluate(&borrowed));
                assert_eq!(got, want, "{} over {owned:?}", b.name());
                ok += want.starts_with("Ok(") as usize;
            }
            assert!(ok > 0, "{}: no argument tuple evaluated", b.name());
        }
    }

    /// `matrix_inverse` runs blocked LU, whose products on the dense
    /// microkernel note no kernel choice: a query's tally counts its own
    /// dense products, not the steps of a factorization.
    #[test]
    fn matrix_inverse_counts_no_kernel() {
        use lardb_la::dispatch::{counts, DispatchCounters};
        use lardb_pool::{CancelToken, QueryContext};
        let n = 400;
        let a = Value::matrix(Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64
            } else {
                1.0 / (i + 2 * j + 1) as f64
            }
        }));
        let ctx = QueryContext::new(CancelToken::new(), None, None);
        let _entered = ctx.enter();
        let inv = Builtin::MatrixInverse.evaluate(std::slice::from_ref(&a)).unwrap();
        assert_eq!(inv.data_type(), DataType::Matrix(Some(n), Some(n)));
        assert_eq!(counts(&ctx), DispatchCounters::default());
        // The tally is live: the product that checks the inverse counts.
        Builtin::MatrixMultiply.evaluate(&[a, inv]).unwrap();
        assert_eq!(counts(&ctx), DispatchCounters { dense: 1, ..Default::default() });
    }

    #[test]
    fn matrix_multiply_signature_binds_dims() {
        // the paper's §4.2 example: U MATRIX[1000][100] × V MATRIX[100][10000]
        let out = Builtin::MatrixMultiply.infer_type(&[m(1000, 100), m(100, 10000)]).unwrap();
        assert_eq!(out, DataType::Matrix(Some(1000), Some(10000)));
    }

    #[test]
    fn matrix_multiply_conflicting_binding_is_compile_error() {
        // "a different value for b would cause a compile-time error"
        let err = Builtin::MatrixMultiply.infer_type(&[m(10, 100), m(99, 5)]);
        assert!(matches!(err, Err(PlanError::Type(_))));
    }

    #[test]
    fn unknown_dims_flow_through() {
        let unk = ArgType::of(DataType::Matrix(Some(10), None));
        let out = Builtin::MatrixMultiply.infer_type(&[unk, m(100, 5)]).unwrap();
        assert_eq!(out, DataType::Matrix(Some(10), Some(5)));
    }

    #[test]
    fn matrix_vector_multiply_size_check() {
        // the paper's §3.1 example: MATRIX[10][10] × VECTOR[100] must not compile
        let err = Builtin::MatrixVectorMultiply.infer_type(&[m(10, 10), v(100)]);
        assert!(err.is_err());
        let ok = Builtin::MatrixVectorMultiply.infer_type(&[m(10, 10), v(10)]).unwrap();
        assert_eq!(ok, DataType::Vector(Some(10)));
    }

    #[test]
    fn diag_requires_square() {
        assert!(Builtin::Diag.infer_type(&[m(3, 4)]).is_err());
        assert_eq!(Builtin::Diag.infer_type(&[m(4, 4)]).unwrap(), DataType::Vector(Some(4)));
    }

    #[test]
    fn constructors_use_const_args() {
        let out = Builtin::Identity.infer_type(&[ArgType::const_int(10)]).unwrap();
        assert_eq!(out, DataType::Matrix(Some(10), Some(10)));
        // non-constant integer argument: output dims unknown
        let out = Builtin::Identity.infer_type(&[ArgType::of(DataType::Integer)]).unwrap();
        assert_eq!(out, DataType::Matrix(None, None));
        let out = Builtin::ZeroMatrix
            .infer_type(&[ArgType::const_int(2), ArgType::const_int(3)])
            .unwrap();
        assert_eq!(out, DataType::Matrix(Some(2), Some(3)));
    }

    #[test]
    fn arity_checked() {
        assert!(Builtin::Trace.infer_type(&[m(2, 2), m(2, 2)]).is_err());
    }

    #[test]
    fn evaluate_core_functions() {
        let a = Value::matrix(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
        let x = Value::vector(Vector::from_slice(&[1.0, 1.0]));
        let mv = Builtin::MatrixVectorMultiply.evaluate(&[a.clone(), x.clone()]).unwrap();
        assert_eq!(mv.as_vector().unwrap().as_slice(), &[3.0, 7.0]);
        let ip = Builtin::InnerProduct.evaluate(&[x.clone(), x.clone()]).unwrap();
        assert_eq!(ip, Value::Double(2.0));
        let tr = Builtin::Trace.evaluate(std::slice::from_ref(&a)).unwrap();
        assert_eq!(tr, Value::Double(5.0));
        let op = Builtin::OuterProduct.evaluate(&[x.clone(), x.clone()]).unwrap();
        assert_eq!(op.as_matrix().unwrap().shape(), (2, 2));
        let inv = Builtin::MatrixInverse.evaluate(std::slice::from_ref(&a)).unwrap();
        let prod = Builtin::MatrixMultiply.evaluate(&[a.clone(), inv]).unwrap();
        assert!(prod.as_matrix().unwrap().approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn evaluate_labels() {
        let ls = Builtin::LabelScalar
            .evaluate(&[Value::Double(3.5), Value::Integer(2)])
            .unwrap();
        assert_eq!(ls.as_labeled_scalar().unwrap(), LabeledScalar::new(3.5, 2));
        let lv = Builtin::LabelVector
            .evaluate(&[Value::vector(Vector::zeros(2)), Value::Integer(5)])
            .unwrap();
        assert_eq!(lv.as_vector().unwrap().label(), 5);
    }

    #[test]
    fn evaluate_null_propagates() {
        let out = Builtin::Trace.evaluate(&[Value::Null]).unwrap();
        assert!(out.is_null());
    }

    #[test]
    fn evaluate_runtime_dim_error() {
        // VECTOR[] columns defer checks to runtime (§3.1)
        let a = Value::matrix(Matrix::zeros(2, 2));
        let x = Value::vector(Vector::zeros(3));
        assert!(Builtin::MatrixVectorMultiply.evaluate(&[a, x]).is_err());
    }

    #[test]
    fn evaluate_constructors_and_accessors() {
        let id = Builtin::Identity.evaluate(&[Value::Integer(3)]).unwrap();
        assert_eq!(id.as_matrix().unwrap().trace().unwrap(), 3.0);
        assert!(Builtin::Identity.evaluate(&[Value::Integer(-1)]).is_err());
        let z = Builtin::ZeroVector.evaluate(&[Value::Integer(4)]).unwrap();
        assert_eq!(z.as_vector().unwrap().len(), 4);
        let gs = Builtin::GetScalar
            .evaluate(&[Value::vector(Vector::from_slice(&[7.0, 8.0])), Value::Integer(1)])
            .unwrap();
        assert_eq!(gs, Value::Double(8.0));
        let ge = Builtin::GetEntry
            .evaluate(&[
                Value::matrix(Matrix::identity(2)),
                Value::Integer(0),
                Value::Integer(1),
            ])
            .unwrap();
        assert_eq!(ge, Value::Double(0.0));
    }

    #[test]
    fn agg_type_inference() {
        assert_eq!(
            AggFunc::Sum.infer_type(DataType::Matrix(Some(2), Some(2))).unwrap(),
            DataType::Matrix(Some(2), Some(2))
        );
        assert_eq!(AggFunc::Count.infer_type(DataType::Varchar).unwrap(), DataType::Integer);
        assert_eq!(AggFunc::Avg.infer_type(DataType::Integer).unwrap(), DataType::Double);
        assert_eq!(
            AggFunc::Vectorize.infer_type(DataType::LabeledScalar).unwrap(),
            DataType::Vector(None)
        );
        assert!(AggFunc::Vectorize.infer_type(DataType::Double).is_err());
        assert_eq!(
            AggFunc::RowMatrix.infer_type(DataType::Vector(Some(5))).unwrap(),
            DataType::Matrix(None, None)
        );
        assert!(AggFunc::Sum.infer_type(DataType::Varchar).is_err());
        assert!(AggFunc::Sum.infer_type(DataType::LabeledScalar).is_err());
    }

    #[test]
    fn agg_names_roundtrip() {
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Vectorize,
            AggFunc::RowMatrix,
            AggFunc::ColMatrix,
            AggFunc::MatrixFromEntries,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
