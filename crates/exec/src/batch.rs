//! Columnar morsel batches for the vectorized engine.
//!
//! A [`ColumnBatch`] is a morsel-sized chunk of rows pivoted into
//! columns: fixed-width `f64` / `i64` / `bool` columns with validity
//! bitmaps for NULLs, plus a fallback *boxed* column ([`Boxed`]: plain
//! `Value`s) for matrices, vectors, strings, and mixed-typed columns.
//! Batches are built from the `Arc`-backed rows a scan (or any upstream
//! operator) materialized, evaluated column-at-a-time by
//! [`crate::compile::Program`] bytecode, and converted back to rows only
//! at pipeline edges.
//!
//! Column typing is decided per pivot from the values actually present:
//! a column whose non-NULL values are all `Integer` becomes `I64`, all
//! `Double` becomes `F64`, all `Boolean` becomes `Bool`; anything else —
//! including an `Integer`/`Double` mix, which must round-trip each
//! `Value` exactly — stays boxed. Reconstruction ([`Col::value_at`]) is
//! therefore bit-identical to the source values, `-0.0` included.
//!
//! A join partition's sides are each pivoted once, so each is typed over
//! all of its rows, and a chunk of matched pairs is two index vectors
//! over them ([`ColumnBatch::join`]): typed lanes are gathered, boxed
//! ones read in place, and no value is cloned per pair.

use std::ops::Index;
use std::sync::Arc;

use lardb_storage::{Row, Value};

/// A validity bitmap: bit `i` set ⇔ lane `i` holds a (non-NULL) value.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All lanes valid.
    pub fn new_valid(len: usize) -> Self {
        Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len }
    }

    /// All lanes NULL.
    pub fn new_invalid(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Whether lane `i` is valid.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Marks lane `i` valid.
    #[inline]
    pub fn set_valid(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks lane `i` NULL.
    #[inline]
    pub fn set_invalid(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// True when every lane is valid (no NULLs) — enables the branch-free
    /// kernel fast paths.
    pub fn all_valid(&self) -> bool {
        let full = self.len / 64;
        if self.words[..full].iter().any(|&w| w != u64::MAX) {
            return false;
        }
        let rem = self.len % 64;
        rem == 0 || self.words[full] & ((1u64 << rem) - 1) == (1u64 << rem) - 1
    }

    /// Bits `idx` of this bitmap, all set at once when no lane is NULL.
    fn gather(&self, idx: &[u32]) -> Bitmap {
        if self.all_valid() {
            return Bitmap::new_valid(idx.len());
        }
        let mut out = Bitmap::new_invalid(idx.len());
        for (i, &k) in idx.iter().enumerate() {
            if self.get(k as usize) {
                out.set_valid(i);
            }
        }
        out
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-lane bitmap.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One column of a batch.
#[derive(Debug, Clone)]
pub enum Col {
    /// Fixed-width doubles with a validity bitmap.
    F64 {
        /// Lane values (garbage where invalid).
        data: Vec<f64>,
        /// Validity: unset ⇔ NULL.
        valid: Bitmap,
    },
    /// Fixed-width integers with a validity bitmap.
    I64 {
        /// Lane values (garbage where invalid).
        data: Vec<i64>,
        /// Validity: unset ⇔ NULL.
        valid: Bitmap,
    },
    /// Booleans with a validity bitmap.
    Bool {
        /// Lane values (garbage where invalid).
        data: Vec<bool>,
        /// Validity: unset ⇔ NULL.
        valid: Bitmap,
    },
    /// Fallback: one `Value` per lane (vectors, matrices, strings, mixed
    /// numeric columns). NULL lanes hold `Value::Null`.
    Boxed(Boxed),
}

/// A boxed column's lanes, read by position through `Index`: owned
/// values, or a column's values shared and read through an index vector
/// — how a joined chunk reads its sides' boxed lanes in place.
#[derive(Debug, Clone)]
pub struct Boxed {
    values: Arc<Vec<Value>>,
    idx: Option<Arc<[u32]>>,
}

impl From<Vec<Value>> for Boxed {
    fn from(values: Vec<Value>) -> Self {
        Boxed { values: Arc::new(values), idx: None }
    }
}

impl Index<usize> for Boxed {
    type Output = Value;

    #[inline]
    fn index(&self, i: usize) -> &Value {
        match &self.idx {
            None => &self.values[i],
            Some(idx) => &self.values[idx[i] as usize],
        }
    }
}

impl Col {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            Col::F64 { data, .. } => data.len(),
            Col::I64 { data, .. } => data.len(),
            Col::Bool { data, .. } => data.len(),
            Col::Boxed(v) => v.idx.as_ref().map_or(v.values.len(), |idx| idx.len()),
        }
    }

    /// True for a zero-lane column.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether lane `i` holds a non-NULL value.
    #[inline]
    pub fn valid(&self, i: usize) -> bool {
        match self {
            Col::F64 { valid, .. } | Col::I64 { valid, .. } | Col::Bool { valid, .. } => {
                valid.get(i)
            }
            Col::Boxed(v) => !v[i].is_null(),
        }
    }

    /// Reconstructs lane `i` as an owned [`Value`] — bit-identical to the
    /// value the column was built from (or that a kernel computed).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Col::F64 { data, valid } => {
                if valid.get(i) {
                    Value::Double(data[i])
                } else {
                    Value::Null
                }
            }
            Col::I64 { data, valid } => {
                if valid.get(i) {
                    Value::Integer(data[i])
                } else {
                    Value::Null
                }
            }
            Col::Bool { data, valid } => {
                if valid.get(i) {
                    Value::Boolean(data[i])
                } else {
                    Value::Null
                }
            }
            Col::Boxed(v) => v[i].clone(),
        }
    }

    /// A constant column: `v` replicated across `n` lanes (how literals
    /// enter a batch).
    pub fn splat(v: &Value, n: usize) -> Col {
        match v {
            Value::Integer(x) => Col::I64 { data: vec![*x; n], valid: Bitmap::new_valid(n) },
            Value::Double(x) => Col::F64 { data: vec![*x; n], valid: Bitmap::new_valid(n) },
            Value::Boolean(x) => Col::Bool { data: vec![*x; n], valid: Bitmap::new_valid(n) },
            Value::Null => Col::F64 { data: vec![0.0; n], valid: Bitmap::new_invalid(n) },
            other => Col::Boxed(vec![other.clone(); n].into()),
        }
    }

    /// Lanes `idx` of this column: typed lanes gathered into an owned
    /// column, boxed ones as a view of the same values through the one
    /// index vector `view` that a side's boxed columns share.
    fn gather(&self, idx: &[u32], view: &mut Option<Arc<[u32]>>) -> Col {
        fn at<T: Copy>(data: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&k| data[k as usize]).collect()
        }
        let bits = |valid: &Bitmap| valid.gather(idx);
        match self {
            Col::F64 { data, valid } => Col::F64 { data: at(data, idx), valid: bits(valid) },
            Col::I64 { data, valid } => Col::I64 { data: at(data, idx), valid: bits(valid) },
            Col::Bool { data, valid } => Col::Bool { data: at(data, idx), valid: bits(valid) },
            Col::Boxed(b) => Col::Boxed(Boxed {
                values: Arc::clone(&b.values),
                idx: Some(match &b.idx {
                    None => Arc::clone(view.get_or_insert_with(|| idx.into())),
                    // A view of a view reads the first one's values.
                    Some(own) => at(own, idx).into(),
                }),
            }),
        }
    }
}

/// A morsel chunk pivoted into columns.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Arc<Col>>,
    len: usize,
}

impl ColumnBatch {
    /// Pivots rows into columns, choosing each column's representation
    /// from the values present (see module docs). Returns `None` when the
    /// rows disagree on arity — the caller falls back to the row
    /// interpreter, which reports the per-row error.
    pub fn from_rows(rows: &[Row]) -> Option<ColumnBatch> {
        let arity = rows.first().map(Row::arity).unwrap_or(0);
        if rows.iter().any(|r| r.arity() != arity) {
            return None;
        }
        let cols = (0..arity).map(|j| Arc::new(build_col(rows, j))).collect();
        Some(ColumnBatch { cols, len: rows.len() })
    }

    /// The joined chunk whose lane `k` is row `li[k]` of `left` followed
    /// by row `ri[k]` of `right`: lane for lane the values and validity of
    /// [`Self::from_rows`] over the concatenated rows, in the sides'
    /// column variants.
    pub fn join(left: &ColumnBatch, li: &[u32], right: &ColumnBatch, ri: &[u32]) -> ColumnBatch {
        debug_assert_eq!(li.len(), ri.len());
        let mut cols = Vec::with_capacity(left.arity() + right.arity());
        for (side, idx) in [(left, li), (right, ri)] {
            let mut view = None;
            cols.extend(side.cols.iter().map(|c| Arc::new(c.gather(idx, &mut view))));
        }
        ColumnBatch { cols, len: li.len() }
    }

    /// Number of rows (lanes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-row batch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The columns, cheaply shareable across pipeline stages.
    pub fn cols(&self) -> &[Arc<Col>] {
        &self.cols
    }
}

/// Builds column `j` of `rows`, sniffing the lane types first.
fn build_col(rows: &[Row], j: usize) -> Col {
    let (n, lane) = (rows.len(), |i: usize| rows[i].value(j));
    let (mut ints, mut doubles, mut bools, mut others) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..n {
        match lane(i) {
            Value::Integer(_) => ints += 1,
            Value::Double(_) => doubles += 1,
            Value::Boolean(_) => bools += 1,
            Value::Null => {}
            _ => others += 1,
        }
    }
    if others == 0 && ints > 0 && doubles == 0 && bools == 0 {
        let mut data = vec![0i64; n];
        let mut valid = Bitmap::new_invalid(n);
        for (i, slot) in data.iter_mut().enumerate() {
            if let Value::Integer(x) = lane(i) {
                *slot = *x;
                valid.set_valid(i);
            }
        }
        Col::I64 { data, valid }
    } else if others == 0 && doubles > 0 && ints == 0 && bools == 0 {
        let mut data = vec![0.0f64; n];
        let mut valid = Bitmap::new_invalid(n);
        for (i, slot) in data.iter_mut().enumerate() {
            if let Value::Double(x) = lane(i) {
                *slot = *x;
                valid.set_valid(i);
            }
        }
        Col::F64 { data, valid }
    } else if others == 0 && bools > 0 && ints == 0 && doubles == 0 {
        let mut data = vec![false; n];
        let mut valid = Bitmap::new_invalid(n);
        for (i, slot) in data.iter_mut().enumerate() {
            if let Value::Boolean(x) = lane(i) {
                *slot = *x;
                valid.set_valid(i);
            }
        }
        Col::Bool { data, valid }
    } else if others == 0 && ints == 0 && doubles == 0 && bools == 0 {
        // All NULL: typed-but-empty; reconstruction yields Value::Null.
        Col::F64 { data: vec![0.0; n], valid: Bitmap::new_invalid(n) }
    } else {
        Col::Boxed((0..n).map(|i| lane(i).clone()).collect::<Vec<_>>().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut b = Bitmap::new_invalid(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.all_valid(), len == 0);
            for i in 0..len {
                assert!(!b.get(i));
                b.set_valid(i);
                assert!(b.get(i));
            }
            assert!(b.all_valid());
            if len > 0 {
                b.set_invalid(len - 1);
                assert!(!b.all_valid());
                assert!(!b.get(len - 1));
            }
        }
    }

    #[test]
    fn typed_columns_round_trip() {
        let rows = vec![
            Row::new(vec![Value::Integer(1), Value::Double(-0.0), Value::Null]),
            Row::new(vec![Value::Null, Value::Double(2.5), Value::Null]),
            Row::new(vec![Value::Integer(-3), Value::Double(f64::NAN), Value::Null]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 3);
        assert!(matches!(*b.cols()[0].as_ref(), Col::I64 { .. }));
        assert!(matches!(*b.cols()[1].as_ref(), Col::F64 { .. }));
        for (i, r) in rows.iter().enumerate() {
            for j in 0..3 {
                let got = b.cols()[j].value_at(i);
                let want = r.value(j);
                // Compare bit patterns so -0.0 and NaN round-trip exactly.
                match (&got, want) {
                    (Value::Double(g), Value::Double(w)) => {
                        assert_eq!(g.to_bits(), w.to_bits())
                    }
                    _ => assert_eq!(&got, want),
                }
            }
        }
    }

    #[test]
    fn mixed_numeric_column_stays_boxed() {
        let rows = vec![
            Row::new(vec![Value::Integer(1)]),
            Row::new(vec![Value::Double(2.0)]),
        ];
        let b = ColumnBatch::from_rows(&rows).unwrap();
        assert!(matches!(*b.cols()[0].as_ref(), Col::Boxed(_)));
        assert_eq!(b.cols()[0].value_at(0), Value::Integer(1));
        assert_eq!(b.cols()[0].value_at(1), Value::Double(2.0));
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = vec![
            Row::new(vec![Value::Integer(1)]),
            Row::new(vec![Value::Integer(1), Value::Integer(2)]),
        ];
        assert!(ColumnBatch::from_rows(&rows).is_none());
    }

    #[test]
    fn splat_matches_literal() {
        for v in [
            Value::Integer(42),
            Value::Double(0.5),
            Value::Boolean(true),
            Value::Null,
            Value::Varchar("x".into()),
        ] {
            let c = Col::splat(&v, 3);
            assert_eq!(c.len(), 3);
            for i in 0..3 {
                assert_eq!(c.value_at(i), v);
            }
        }
    }
}
