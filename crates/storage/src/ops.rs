//! Overloaded arithmetic, comparison and hashing over [`Value`]s.
//!
//! This module implements §3.2 of the paper: "the standard arithmetic
//! operations `+ - * /` (element-wise) are also defined over MATRIX and
//! VECTOR types", and "arithmetic between a scalar value and a MATRIX or
//! VECTOR type performs the arithmetic operation between the scalar and
//! every entry". `SUM`, `MIN` and `MAX` aggregates build on the same
//! element-wise kernels.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use lardb_la::{Matrix, Vector};

use crate::value::Value;
use crate::{Result, StorageError};

/// A binary arithmetic operator of the SQL surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// Operator symbol as written in SQL.
    pub fn symbol(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }

    /// The operator over two doubles: plain IEEE operations, so `x / 0.0`
    /// is an infinity, not an error. The interpreter and the vectorized
    /// kernels both compute DOUBLE arithmetic here.
    #[inline]
    pub fn apply_f64(&self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }
    }
}

/// Evaluates `lhs OP rhs` with the full overload matrix of §3.2.
///
/// NULL propagates. `INTEGER op INTEGER` stays integral (with SQL's
/// truncating division — the paper's own blocking query relies on
/// `x.id/1000` being integer division); any DOUBLE operand promotes the
/// result to DOUBLE. LABELED_SCALAR operands participate as their DOUBLE
/// payload and the label is dropped, matching SimSQL.
pub fn arith(op: ArithOp, lhs: &Value, rhs: &Value) -> Result<Value> {
    use Value::*;
    match (lhs, rhs) {
        (Null, _) | (_, Null) => Ok(Null),

        // Checked: overflow (and `i64::MIN / -1`) is a typed error in
        // debug and release builds alike, never a panic or a wrapped sum.
        (Integer(a), Integer(b)) => match op {
            ArithOp::Add => a.checked_add(*b),
            ArithOp::Sub => a.checked_sub(*b),
            ArithOp::Mul => a.checked_mul(*b),
            ArithOp::Div => {
                if *b == 0 {
                    return Err(StorageError::TypeMismatch {
                        context: "integer division by zero".into(),
                    });
                }
                a.checked_div(*b)
            }
        }
        .map(Integer)
        .ok_or(StorageError::IntegerOverflow(op.symbol())),

        // Vector ⊕ Vector (element-wise).
        (Vector(a), Vector(b)) => {
            let out = match op {
                ArithOp::Add => a.add(b),
                ArithOp::Sub => a.sub(b),
                ArithOp::Mul => a.mul(b),
                ArithOp::Div => a.div(b),
            }?;
            Ok(Value::vector(out))
        }

        // Matrix ⊕ Matrix (element-wise; `mat * mat` is the Hadamard
        // product in §3.2).
        (Matrix(a), Matrix(b)) => {
            let out = match op {
                ArithOp::Add => a.add(b),
                ArithOp::Sub => a.sub(b),
                ArithOp::Mul => a.mul(b),
                ArithOp::Div => a.div(b),
            }?;
            Ok(Value::matrix(out))
        }

        // Sparse ⊕ sparse: add/sub/Hadamard are O(nnz) row merges and stay
        // sparse; division densifies because implicit zeros divide to the
        // NaN/±inf the dense loop computes.
        (SparseMatrix(a), SparseMatrix(b)) => Ok(match op {
            ArithOp::Add => Value::sparse_matrix(a.add(b)?),
            ArithOp::Sub => Value::sparse_matrix(a.sub(b)?),
            ArithOp::Mul => Value::sparse_matrix(a.hadamard(b)?),
            ArithOp::Div => Value::matrix(densify(a).div(&densify(b))?),
        }),

        // Sparse ⊕ dense matrix: the Hadamard product keeps only stored
        // coordinates (implicit zeros annihilate `×` on finite data, the
        // documented sparse contract); everything else densifies since the
        // result is dense anyway.
        (SparseMatrix(a), Matrix(b)) => Ok(match op {
            ArithOp::Mul => Value::sparse_matrix(a.hadamard_dense(b)?),
            ArithOp::Add => Value::matrix(densify(a).add(b)?),
            ArithOp::Sub => Value::matrix(densify(a).sub(b)?),
            ArithOp::Div => Value::matrix(densify(a).div(b)?),
        }),
        (Matrix(a), SparseMatrix(b)) => Ok(match op {
            // x·y == y·x element-wise, so reuse the sparse-side kernel.
            ArithOp::Mul => Value::sparse_matrix(b.hadamard_dense(a)?),
            ArithOp::Add => Value::matrix(a.add(&densify(b))?),
            ArithOp::Sub => Value::matrix(a.sub(&densify(b))?),
            ArithOp::Div => Value::matrix(a.div(&densify(b))?),
        }),

        // Scalar broadcast over vectors.
        (Vector(v), s) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(Value::vector(broadcast_vec(op, v, s, false)))
        }
        (s, Vector(v)) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(Value::vector(broadcast_vec(op, v, s, true)))
        }

        // Scalar broadcast over matrices.
        (Matrix(m), s) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(Value::matrix(broadcast_mat(op, m, s, false)))
        }
        (s, Matrix(m)) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(Value::matrix(broadcast_mat(op, m, s, true)))
        }

        // Scalar broadcast over sparse matrices: `× s` and `/ s` (s ≠ 0)
        // map implicit zeros to ±0.0 and stay sparse; `+ s`, `- s` and
        // division by zero change every element and densify.
        (SparseMatrix(m), s) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(match op {
                ArithOp::Mul => Value::sparse_matrix(m.scalar_mul(s)),
                ArithOp::Div if s != 0.0 => {
                    Value::sparse_matrix(m.map_values(|x| x / s))
                }
                _ => Value::matrix(broadcast_mat(op, &densify(m), s, false)),
            })
        }
        (s, SparseMatrix(m)) if s.as_double().is_some() => {
            let s = s.as_double().expect("checked");
            Ok(match op {
                ArithOp::Mul => Value::sparse_matrix(m.scalar_mul(s)),
                _ => Value::matrix(broadcast_mat(op, &densify(m), s, true)),
            })
        }

        // Remaining scalar numerics promote to DOUBLE.
        (a, b) => match (a.as_double(), b.as_double()) {
            (Some(x), Some(y)) => Ok(Double(op.apply_f64(x, y))),
            _ => Err(StorageError::TypeMismatch {
                context: format!(
                    "cannot apply {} to {} and {}",
                    op.symbol(),
                    a.data_type(),
                    b.data_type()
                ),
            }),
        },
    }
}

fn broadcast_vec(op: ArithOp, v: &Vector, s: f64, scalar_on_left: bool) -> Vector {
    if scalar_on_left {
        v.map(|x| op.apply_f64(s, x))
    } else {
        v.map(|x| op.apply_f64(x, s))
    }
}

fn broadcast_mat(op: ArithOp, m: &Matrix, s: f64, scalar_on_left: bool) -> Matrix {
    if scalar_on_left {
        m.map(|x| op.apply_f64(s, x))
    } else {
        m.map(|x| op.apply_f64(x, s))
    }
}

/// Materializes a sparse tile for a dense element-wise path, counting the
/// densification in the dispatch-choice metrics.
fn densify(s: &lardb_la::SparseMatrix) -> Matrix {
    lardb_la::dispatch::note_kernel(lardb_la::dispatch::Kernel::Densified);
    s.to_dense()
}

/// Unary minus.
pub fn negate(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Integer(i) => i
            .checked_neg()
            .map(Value::Integer)
            .ok_or(StorageError::IntegerOverflow("-")),
        Value::Double(d) => Ok(Value::Double(-d)),
        Value::Vector(x) => Ok(Value::vector(x.scalar_mul(-1.0))),
        Value::Matrix(x) => Ok(Value::matrix(x.scalar_mul(-1.0))),
        Value::SparseMatrix(x) => Ok(Value::sparse_matrix(x.scalar_mul(-1.0))),
        other => Err(StorageError::TypeMismatch {
            context: format!("cannot negate {}", other.data_type()),
        }),
    }
}

/// Three-valued-logic-free comparison used by predicates and ORDER BY.
/// Returns `None` when the values are incomparable (e.g. a NULL operand or
/// mixed string/number) — predicates treat that as FALSE.
pub fn compare(lhs: &Value, rhs: &Value) -> Option<Ordering> {
    use Value::*;
    match (lhs, rhs) {
        (Null, _) | (_, Null) => None,
        (Varchar(a), Varchar(b)) => Some(a.cmp(b)),
        (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
        (a, b) => {
            let (x, y) = (a.as_double()?, b.as_double()?);
            x.partial_cmp(&y)
        }
    }
}

/// A hashable, equatable wrapper over [`Value`] for hash-join and group-by
/// keys. Doubles hash by bit pattern (with `-0.0` normalized to `0.0`) and
/// integers that equal a double hash identically, so `1` and `1.0` land in
/// the same bucket — matching [`Value`]'s cross-type equality.
#[derive(Debug, Clone)]
pub struct KeyValue(pub Value);

impl PartialEq for KeyValue {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for KeyValue {}

impl Hash for KeyValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_key(&self.0, state)
    }
}

/// [`KeyValue`]'s hash over a borrowed value, for callers that hash keys
/// in place instead of wrapping an owned copy.
pub fn hash_key<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => state.write_u8(0),
        Value::Integer(i) => {
            state.write_u8(1);
            canonical_f64_hash(*i as f64, state);
        }
        Value::Double(d) => {
            state.write_u8(1);
            canonical_f64_hash(*d, state);
        }
        Value::Boolean(b) => {
            state.write_u8(2);
            b.hash(state);
        }
        Value::Varchar(s) => {
            state.write_u8(3);
            s.hash(state);
        }
        Value::LabeledScalar(s) => {
            state.write_u8(4);
            canonical_f64_hash(s.value, state);
            s.label.hash(state);
        }
        Value::Vector(v) => {
            state.write_u8(5);
            for &x in v.as_slice() {
                canonical_f64_hash(x, state);
            }
        }
        Value::Matrix(m) => {
            state.write_u8(6);
            state.write_usize(m.rows());
            for &x in m.as_slice() {
                canonical_f64_hash(x, state);
            }
        }
        // Same tag and element stream as the dense arm: a sparse
        // matrix equals its dense counterpart, so it must hash
        // identically too.
        Value::SparseMatrix(m) => {
            state.write_u8(6);
            state.write_usize(m.rows());
            for &x in m.to_dense().as_slice() {
                canonical_f64_hash(x, state);
            }
        }
    }
}

fn canonical_f64_hash<H: Hasher>(x: f64, state: &mut H) {
    // Fold -0.0 into 0.0, and every NaN into one: NaN equals nothing here,
    // but a GROUP BY keeps it as one key, and hash routing must send all of
    // that key's rows to one worker.
    let x = if x == 0.0 {
        0.0
    } else if x.is_nan() {
        f64::NAN
    } else {
        x
    };
    state.write_u64(x.to_bits());
}

/// Composite key over several values, used for multi-column GROUP BY and
/// join keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompositeKey(pub Vec<KeyValueWrapper>);

/// Internal alias to keep `CompositeKey` derivable.
pub type KeyValueWrapper = KeyValue;

impl CompositeKey {
    /// Builds a key from a row projection.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        CompositeKey(values.into_iter().map(KeyValue).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::LabeledScalar;
    use std::collections::hash_map::DefaultHasher;

    fn h<T: Hash>(t: &T) -> u64 {
        let mut s = DefaultHasher::new();
        t.hash(&mut s);
        s.finish()
    }

    #[test]
    fn integer_arith_stays_integer() {
        assert_eq!(arith(ArithOp::Add, &Value::Integer(2), &Value::Integer(3)).unwrap(), Value::Integer(5));
        // truncating division, as the paper's blocking query needs
        assert_eq!(arith(ArithOp::Div, &Value::Integer(1999), &Value::Integer(1000)).unwrap(), Value::Integer(1));
        assert!(arith(ArithOp::Div, &Value::Integer(1), &Value::Integer(0)).is_err());
    }

    #[test]
    fn mixed_promotes_to_double() {
        assert_eq!(
            arith(ArithOp::Mul, &Value::Integer(2), &Value::Double(1.5)).unwrap(),
            Value::Double(3.0)
        );
    }

    #[test]
    fn null_propagates() {
        assert!(arith(ArithOp::Add, &Value::Null, &Value::Integer(1)).unwrap().is_null());
        assert!(arith(ArithOp::Div, &Value::Double(1.0), &Value::Null).unwrap().is_null());
    }

    #[test]
    fn vector_vector_elementwise() {
        let a = Value::vector(Vector::from_slice(&[1.0, 2.0]));
        let b = Value::vector(Vector::from_slice(&[3.0, 4.0]));
        let s = arith(ArithOp::Sub, &b, &a).unwrap();
        assert_eq!(s.as_vector().unwrap().as_slice(), &[2.0, 2.0]);
        let bad = Value::vector(Vector::zeros(3));
        assert!(arith(ArithOp::Add, &a, &bad).is_err());
    }

    #[test]
    fn scalar_vector_broadcast_both_sides() {
        let v = Value::vector(Vector::from_slice(&[2.0, 4.0]));
        // X.x_i * y_i from the paper's regression query
        let r = arith(ArithOp::Mul, &v, &Value::Double(0.5)).unwrap();
        assert_eq!(r.as_vector().unwrap().as_slice(), &[1.0, 2.0]);
        // scalar on the left of a subtraction is NOT commutative
        let l = arith(ArithOp::Sub, &Value::Double(10.0), &v).unwrap();
        assert_eq!(l.as_vector().unwrap().as_slice(), &[8.0, 6.0]);
    }

    #[test]
    fn matrix_hadamard_and_broadcast() {
        let m = Value::matrix(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
        let h2 = arith(ArithOp::Mul, &m, &m).unwrap();
        assert_eq!(h2.as_matrix().unwrap().get(1, 1).unwrap(), 16.0);
        let shifted = arith(ArithOp::Add, &Value::Integer(1), &m).unwrap();
        assert_eq!(shifted.as_matrix().unwrap().get(0, 0).unwrap(), 2.0);
    }

    #[test]
    fn vector_matrix_mix_rejected() {
        let v = Value::vector(Vector::zeros(2));
        let m = Value::matrix(Matrix::zeros(2, 2));
        assert!(arith(ArithOp::Add, &v, &m).is_err());
    }

    #[test]
    fn labeled_scalar_acts_as_double() {
        let ls = Value::LabeledScalar(LabeledScalar::new(2.0, 7));
        let r = arith(ArithOp::Mul, &ls, &Value::Double(3.0)).unwrap();
        assert_eq!(r, Value::Double(6.0));
    }

    #[test]
    fn negate_values() {
        assert_eq!(negate(&Value::Integer(2)).unwrap(), Value::Integer(-2));
        let v = negate(&Value::vector(Vector::ones(2))).unwrap();
        assert_eq!(v.as_vector().unwrap().as_slice(), &[-1.0, -1.0]);
        assert!(negate(&Value::varchar("x")).is_err());
        assert!(negate(&Value::Null).unwrap().is_null());
    }

    #[test]
    fn compare_semantics() {
        assert_eq!(compare(&Value::Integer(1), &Value::Double(2.0)), Some(Ordering::Less));
        assert_eq!(compare(&Value::varchar("a"), &Value::varchar("b")), Some(Ordering::Less));
        assert_eq!(compare(&Value::Null, &Value::Integer(1)), None);
        assert_eq!(compare(&Value::varchar("a"), &Value::Integer(1)), None);
    }

    #[test]
    fn key_hash_integer_double_coherence() {
        // 1 == 1.0 must also hash equal for hash joins on mixed columns.
        assert_eq!(KeyValue(Value::Integer(1)), KeyValue(Value::Double(1.0)));
        assert_eq!(h(&KeyValue(Value::Integer(1))), h(&KeyValue(Value::Double(1.0))));
        // -0.0 and 0.0
        assert_eq!(h(&KeyValue(Value::Double(-0.0))), h(&KeyValue(Value::Double(0.0))));
    }

    #[test]
    fn sparse_arith_matches_dense() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 1, 2.0).unwrap();
        b.push(1, 0, -3.0).unwrap();
        let s = b.build(2, 2).unwrap();
        let sv = Value::sparse_matrix(s.clone());
        let dv = Value::matrix(s.to_dense());

        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul] {
            let sparse = arith(op, &sv, &sv).unwrap();
            let dense = arith(op, &dv, &dv).unwrap();
            assert_eq!(sparse, dense, "{op:?}");
            // Mixed representations too, both sides.
            assert_eq!(arith(op, &sv, &dv).unwrap(), dense, "{op:?} mixed");
            assert_eq!(arith(op, &dv, &sv).unwrap(), dense, "{op:?} mixed rev");
        }
        // Division densifies (0/0 → NaN on implicit zeros), result dense.
        let q = arith(ArithOp::Div, &sv, &sv).unwrap();
        assert!(q.as_matrix().is_some());
        assert!(q.as_matrix().unwrap().get(0, 0).unwrap().is_nan());

        // Scalar broadcast: × and / (nonzero) stay sparse, + densifies.
        let scaled = arith(ArithOp::Mul, &sv, &Value::Double(2.0)).unwrap();
        assert!(scaled.as_sparse_matrix().is_some());
        assert_eq!(scaled, arith(ArithOp::Mul, &dv, &Value::Double(2.0)).unwrap());
        let halved = arith(ArithOp::Div, &sv, &Value::Double(2.0)).unwrap();
        assert!(halved.as_sparse_matrix().is_some());
        assert_eq!(halved, arith(ArithOp::Div, &dv, &Value::Double(2.0)).unwrap());
        let shifted = arith(ArithOp::Add, &sv, &Value::Integer(1)).unwrap();
        assert!(shifted.as_matrix().is_some());
        assert_eq!(shifted, arith(ArithOp::Add, &dv, &Value::Integer(1)).unwrap());
        // Scalar on the left of `-` is not commutative; densified path.
        let l = arith(ArithOp::Sub, &Value::Double(10.0), &sv).unwrap();
        assert_eq!(l, arith(ArithOp::Sub, &Value::Double(10.0), &dv).unwrap());

        // Negation stays sparse and equals dense negation.
        let n = negate(&sv).unwrap();
        assert!(n.as_sparse_matrix().is_some());
        assert_eq!(n, negate(&dv).unwrap());
    }

    #[test]
    fn sparse_hashes_like_its_dense_equal() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 0, 1.0).unwrap();
        b.push(2, 1, 4.5).unwrap();
        let s = b.build(3, 2).unwrap();
        let sv = Value::sparse_matrix(s.clone());
        let dv = Value::matrix(s.to_dense());
        assert_eq!(KeyValue(sv.clone()), KeyValue(dv.clone()));
        assert_eq!(h(&KeyValue(sv)), h(&KeyValue(dv)));
    }

    #[test]
    fn composite_key_groups() {
        use std::collections::HashMap;
        let mut m: HashMap<CompositeKey, i32> = HashMap::new();
        let k1 = CompositeKey::from_values([Value::Integer(1), Value::varchar("x")]);
        let k2 = CompositeKey::from_values([Value::Integer(1), Value::varchar("x")]);
        m.insert(k1, 10);
        assert_eq!(m.get(&k2), Some(&10));
    }
}
