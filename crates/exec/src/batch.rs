//! Columnar batches for the vectorized engine.
//!
//! A [`ColumnBatch`] is a `batch_rows`-sized chunk of rows pivoted into
//! columns: fixed-width `f64` / `i64` / `bool` columns with validity
//! bitmaps for NULLs, plus a *boxed* column ([`Boxed`]: plain `Value`s)
//! for matrices, vectors, labeled scalars and strings. Batches are built
//! from the `Arc`-backed rows a scan (or any upstream operator)
//! materialized, evaluated column-at-a-time by
//! [`crate::compile::Program`] bytecode, and converted back to rows only
//! at pipeline edges.
//!
//! The plan's types pick each column's representation, once per query:
//! [`ColumnBatch::pivot`] fills a DOUBLE column as `F64`, INTEGER as
//! `I64`, BOOLEAN as `Bool` and every other type boxed, in one pass. A
//! lane of another variant than its column's declared type makes the
//! pivot refuse the chunk, as a ragged row does; no operator writes
//! either, so the chunk pipeline raises that as an internal error.
//! Reconstruction ([`Col::value_at`]) is therefore bit-identical to the
//! source values, `-0.0` included.
//!
//! A join partition's sides are each pivoted once, with their own
//! schemas, and a chunk of matched pairs is two index vectors over them
//! ([`ColumnBatch::join`]): typed lanes are gathered, boxed ones read in
//! place, and no value is cloned per pair.

use std::mem::discriminant;
use std::ops::Index;
use std::sync::Arc;

use lardb_storage::{Column, DataType, Row, Schema, Value};

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
    /// One `Value` per lane (vectors, matrices, labeled scalars,
    /// strings). NULL lanes hold `Value::Null`.
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

/// A pipeline chunk pivoted into columns.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Arc<Col>>,
    len: usize,
}

impl ColumnBatch {
    /// Pivots rows into columns of `schema`'s types (see module docs).
    /// Returns `None` when a row's arity is not the schema's, or a lane is
    /// not of its column's type.
    pub fn pivot(rows: &[Row], schema: &Schema) -> Option<ColumnBatch> {
        if rows.iter().any(|r| r.arity() != schema.arity()) {
            return None;
        }
        let col = |(j, c): (usize, &Column)| {
            let mut w = ColWriter::new(&c.dtype, rows.len());
            let fits = rows.iter().enumerate().all(|(i, r)| w.set(i, r.value(j)));
            fits.then(|| Arc::new(w.finish()))
        };
        let cols = schema.columns().iter().enumerate().map(col).collect::<Option<_>>()?;
        Some(ColumnBatch { cols, len: rows.len() })
    }

    /// [`Self::pivot`] for rows without a schema: each column takes the
    /// type of its first non-NULL lane, and an all-NULL one is DOUBLE, the
    /// NULL literal's type.
    pub fn from_rows(rows: &[Row]) -> Option<ColumnBatch> {
        let arity = rows.first().map_or(0, Row::arity);
        let dtype = |j: usize| {
            let first = rows.iter().filter_map(|r| r.values().get(j)).find(|v| !v.is_null());
            first.map_or(DataType::Double, Value::data_type)
        };
        Self::pivot(rows, &Schema::new((0..arity).map(|j| Column::new("", dtype(j))).collect()))
    }

    /// The joined chunk whose lane `k` is row `li[k]` of `left` followed
    /// by row `ri[k]` of `right`: lane for lane the values and validity of
    /// [`Self::pivot`] over the concatenated rows and schemas.
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

/// A column of one declared type filled lane by lane: every lane NULL
/// until [`ColWriter::set`] writes it.
pub(crate) enum ColWriter {
    F64(Vec<f64>, Bitmap),
    I64(Vec<i64>, Bitmap),
    Bool(Vec<bool>, Bitmap),
    Boxed(DataType, Vec<Value>),
}

impl ColWriter {
    /// `n` NULL lanes of a column of type `t`.
    pub(crate) fn new(t: &DataType, n: usize) -> Self {
        match t {
            DataType::Double => ColWriter::F64(vec![0.0; n], Bitmap::new_invalid(n)),
            DataType::Integer => ColWriter::I64(vec![0; n], Bitmap::new_invalid(n)),
            DataType::Boolean => ColWriter::Bool(vec![false; n], Bitmap::new_invalid(n)),
            t => ColWriter::Boxed(*t, vec![Value::Null; n]),
        }
    }

    /// Writes lane `i`; false, writing nothing, when `v` is neither NULL
    /// nor of the column's type.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: &Value) -> bool {
        fn put<T>(data: &mut [T], valid: &mut Bitmap, i: usize, x: T) {
            data[i] = x;
            valid.set_valid(i);
        }
        match (self, v) {
            (_, Value::Null) => {}
            (ColWriter::F64(data, valid), Value::Double(x)) => put(data, valid, i, *x),
            (ColWriter::I64(data, valid), Value::Integer(x)) => put(data, valid, i, *x),
            (ColWriter::Bool(data, valid), Value::Boolean(x)) => put(data, valid, i, *x),
            (ColWriter::Boxed(t, lanes), v) if discriminant(&v.data_type()) == discriminant(t) => {
                lanes[i] = v.clone()
            }
            _ => return false,
        }
        true
    }

    /// The column, its lanes as written.
    pub(crate) fn finish(self) -> Col {
        match self {
            ColWriter::F64(data, valid) => Col::F64 { data, valid },
            ColWriter::I64(data, valid) => Col::I64 { data, valid },
            ColWriter::Bool(data, valid) => Col::Bool { data, valid },
            ColWriter::Boxed(_, lanes) => Col::Boxed(lanes.into()),
        }
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

    /// A lane of another variant than its column's declared type refuses
    /// the chunk, as a ragged row does. NULL fits every type, and a
    /// VECTOR of another length is still a VECTOR.
    #[test]
    fn a_lane_disagreeing_with_its_declared_type_is_refused() {
        let schema =
            Schema::from_pairs(&[("x", DataType::Double), ("v", DataType::Vector(Some(2)))]);
        let vector = |n| Value::vector(lardb_la::Vector::from_vec(vec![0.5; n]));
        let rows = |x: Value, v: Value| {
            vec![Row::new(vec![Value::Double(2.0), vector(2)]), Row::new(vec![x, v])]
        };
        assert!(ColumnBatch::pivot(&rows(Value::Integer(1), vector(2)), &schema).is_none());
        assert!(ColumnBatch::from_rows(&rows(Value::Integer(1), vector(2))).is_none());
        let text = Value::Varchar("v".into());
        assert!(ColumnBatch::pivot(&rows(Value::Double(1.0), text), &schema).is_none());
        let b = ColumnBatch::pivot(&rows(Value::Null, vector(3)), &schema).unwrap();
        assert!(matches!(*b.cols()[0].as_ref(), Col::F64 { .. }));
        assert!(matches!(*b.cols()[1].as_ref(), Col::Boxed(_)));
        assert!(b.cols()[0].value_at(1).is_null());
        assert_eq!(b.cols()[1].value_at(1), vector(3));
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
