//! Runtime values for the extended relational model.

use std::sync::Arc;

use lardb_la::{LabeledScalar, Matrix, SparseMatrix, Vector};

use crate::types::DataType;

/// A single attribute value inside a tuple.
///
/// `Vector` and `Matrix` payloads are behind [`Arc`]: the engine copies
/// tuples freely between operators, and sharing makes those copies O(1)
/// regardless of payload size. The exchange operators nonetheless *charge*
/// the full payload size when a tuple crosses a (simulated) machine
/// boundary — see `lardb-exec`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// `INTEGER`.
    Integer(i64),
    /// `DOUBLE`.
    Double(f64),
    /// `BOOLEAN`.
    Boolean(bool),
    /// `VARCHAR`.
    Varchar(Arc<str>),
    /// `LABELED_SCALAR` (§3.3).
    LabeledScalar(LabeledScalar),
    /// `VECTOR` (§3.1).
    Vector(Arc<Vector>),
    /// `MATRIX` (§3.1).
    Matrix(Arc<Matrix>),
    /// A `MATRIX` stored sparsely: only its nonempty rows and their
    /// entries. Logically indistinguishable from [`Value::Matrix`] — same
    /// SQL type, equality and arithmetic — but storage, shuffle and spill
    /// accounting are proportional to nnz.
    SparseMatrix(Arc<SparseMatrix>),
}

impl Value {
    /// Convenience constructor wrapping a vector in its `Arc`.
    pub fn vector(v: Vector) -> Value {
        Value::Vector(Arc::new(v))
    }

    /// Convenience constructor wrapping a matrix in its `Arc`.
    pub fn matrix(m: Matrix) -> Value {
        Value::Matrix(Arc::new(m))
    }

    /// Convenience constructor wrapping a sparse matrix in its `Arc`.
    pub fn sparse_matrix(m: SparseMatrix) -> Value {
        Value::SparseMatrix(Arc::new(m))
    }

    /// Convenience constructor for strings.
    pub fn varchar(s: impl Into<Arc<str>>) -> Value {
        Value::Varchar(s.into())
    }

    /// The runtime type of this value, with exact LA dimensions.
    pub fn data_type(&self) -> DataType {
        match self {
            // NULL is typeless; report it as DOUBLE for width purposes.
            Value::Null => DataType::Double,
            Value::Integer(_) => DataType::Integer,
            Value::Double(_) => DataType::Double,
            Value::Boolean(_) => DataType::Boolean,
            Value::Varchar(_) => DataType::Varchar,
            Value::LabeledScalar(_) => DataType::LabeledScalar,
            Value::Vector(v) => DataType::Vector(Some(v.len())),
            Value::Matrix(m) => DataType::Matrix(Some(m.rows()), Some(m.cols())),
            // Sparse is a storage format, not a SQL type: the planner and
            // binder see an ordinary MATRIX with exact dimensions.
            Value::SparseMatrix(m) => DataType::Matrix(Some(m.rows()), Some(m.cols())),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Payload size in bytes, as charged by shuffle accounting and the
    /// memory governor.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Integer(_) | Value::Double(_) => 8,
            Value::Boolean(_) => 1,
            Value::Varchar(s) => s.len(),
            Value::LabeledScalar(_) => 16,
            Value::Vector(v) => v.byte_size(),
            Value::Matrix(m) => m.byte_size(),
            // nnz-proportional: this is what makes sparse tiles cheap for
            // the memory governor, spill files and shuffle accounting.
            Value::SparseMatrix(m) => m.byte_size(),
        }
    }

    /// Extracts an `i64`, coercing from `DOUBLE` when lossless.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 9e15 => Some(*d as i64),
            _ => None,
        }
    }

    /// Extracts an `f64` from any scalar numeric value.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::LabeledScalar(s) => Some(s.value),
            _ => None,
        }
    }

    /// Extracts the string payload of a `VARCHAR`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the vector payload.
    pub fn as_vector(&self) -> Option<&Arc<Vector>> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Extracts the matrix payload.
    pub fn as_matrix(&self) -> Option<&Arc<Matrix>> {
        match self {
            Value::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// Extracts the sparse matrix payload.
    pub fn as_sparse_matrix(&self) -> Option<&Arc<SparseMatrix>> {
        match self {
            Value::SparseMatrix(m) => Some(m),
            _ => None,
        }
    }

    /// A dense matrix view of either matrix representation. Dense values
    /// share their `Arc`; sparse values materialize (the caller should
    /// count that via `lardb_la::dispatch` when it happens on a kernel
    /// path).
    pub fn to_dense_matrix(&self) -> Option<Arc<Matrix>> {
        match self {
            Value::Matrix(m) => Some(Arc::clone(m)),
            Value::SparseMatrix(m) => Some(Arc::new(m.to_dense())),
            _ => None,
        }
    }

    /// Extracts the labeled scalar payload.
    pub fn as_labeled_scalar(&self) -> Option<LabeledScalar> {
        match self {
            Value::LabeledScalar(s) => Some(*s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Integer(a), Integer(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (Integer(a), Double(b)) | (Double(b), Integer(a)) => *a as f64 == *b,
            (Boolean(a), Boolean(b)) => a == b,
            (Varchar(a), Varchar(b)) => a == b,
            (LabeledScalar(a), LabeledScalar(b)) => a == b,
            (Vector(a), Vector(b)) => a == b,
            (Matrix(a), Matrix(b)) => a == b,
            // Sparse equality is logical, not structural: explicit zeros
            // and representation differences must not break equality, so
            // both sides compare through the dense element semantics.
            (SparseMatrix(a), SparseMatrix(b)) => {
                a.shape() == b.shape() && a.to_dense() == b.to_dense()
            }
            (SparseMatrix(s), Matrix(m)) | (Matrix(m), SparseMatrix(s)) => {
                s.shape() == m.shape() && s.to_dense() == **m
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Varchar(s) => write!(f, "{s}"),
            Value::LabeledScalar(s) => write!(f, "{s}"),
            Value::Vector(v) => {
                write!(f, "[")?;
                let show = v.len().min(8);
                for (i, x) in v.as_slice()[..show].iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x:.4}")?;
                }
                if v.len() > show {
                    write!(f, ", … ({} entries)", v.len())?;
                }
                write!(f, "]")
            }
            Value::Matrix(m) => write!(f, "MATRIX[{}][{}]", m.rows(), m.cols()),
            Value::SparseMatrix(m) => {
                write!(f, "SPARSE_MATRIX[{}][{}] nnz={}", m.rows(), m.cols(), m.nnz())
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::varchar(v)
    }
}

impl From<Vector> for Value {
    fn from(v: Vector) -> Self {
        Value::vector(v)
    }
}

impl From<Matrix> for Value {
    fn from(v: Matrix) -> Self {
        Value::matrix(v)
    }
}

impl From<LabeledScalar> for Value {
    fn from(v: LabeledScalar) -> Self {
        Value::LabeledScalar(v)
    }
}

impl From<SparseMatrix> for Value {
    fn from(v: SparseMatrix) -> Self {
        Value::sparse_matrix(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_reports_exact_dims() {
        let v = Value::vector(Vector::zeros(7));
        assert_eq!(v.data_type(), DataType::Vector(Some(7)));
        let m = Value::matrix(Matrix::zeros(2, 3));
        assert_eq!(m.data_type(), DataType::Matrix(Some(2), Some(3)));
    }

    #[test]
    fn numeric_extraction_and_coercion() {
        assert_eq!(Value::Integer(3).as_double(), Some(3.0));
        assert_eq!(Value::Double(3.0).as_integer(), Some(3));
        assert_eq!(Value::Double(3.5).as_integer(), None);
        assert_eq!(Value::varchar("x").as_double(), None);
        assert_eq!(Value::LabeledScalar(LabeledScalar::new(2.0, 1)).as_double(), Some(2.0));
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Integer(2), Value::Double(2.0));
        assert_ne!(Value::Integer(2), Value::Double(2.5));
        assert_ne!(Value::Integer(2), Value::varchar("2"));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Integer(1).byte_size(), 8);
        assert_eq!(Value::matrix(Matrix::zeros(10, 10)).byte_size(), 800);
        assert_eq!(Value::vector(Vector::zeros(10)).byte_size(), 88);
    }

    #[test]
    fn arc_sharing_is_shallow() {
        let m = Value::matrix(Matrix::zeros(100, 100));
        let m2 = m.clone();
        let (a, b) = (m.as_matrix().unwrap(), m2.as_matrix().unwrap());
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn display_truncates_long_vectors() {
        let v = Value::vector(Vector::zeros(100));
        let s = v.to_string();
        assert!(s.contains("(100 entries)"));
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
