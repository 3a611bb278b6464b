//! Aggregate accumulators, including the element-wise LA aggregates of
//! §3.2 and the construction aggregates of §3.3.
//!
//! Every accumulator supports **two-phase aggregation**: a partial phase
//! per worker encodes its state as ordinary [`Value`]s (so it can travel
//! through an exchange like any row), and a final phase decodes and merges
//! those states. This is the combiner structure the paper's Hadoop
//! substrate relies on; without it, the distributed `SUM` of Gram-matrix
//! outer products would serialize on one worker.
//!
//! The grouped-aggregation table lives here too: `GroupedAgg` keeps one
//! row of accumulators per group behind a `KeyTable` — group keys stored
//! once, as `Value`s in first-seen order, indexed by an open-addressed
//! array of group numbers. Rows (`update_row`), evaluated column chunks
//! (`update_columns`) and spilled state rows (`merge_state_row`) all find
//! their group through the same key hash and the same key equality
//! (`KeyLane`), which compare a typed lane against the stored key without
//! boxing it. Group keys treat `-0.0` as `0.0` and
//! every NaN as one key (and emit `0.0` and the canonical NaN for them);
//! nothing else in the engine does.

use lardb_la::dispatch::{self, Kernel};
use lardb_la::{CooBuilder, LabeledScalar, Matrix, RowMatrixBuilder, Vector, VectorizeBuilder};
use lardb_planner::physical::AggMode;
use lardb_planner::{AggExpr, AggFunc, Expr};
use lardb_storage::ops::{self, ArithOp};
use lardb_storage::{Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;

use crate::batch::Col;
use crate::eval::eval_with;
use crate::{ExecError, Result};

/// Number of state values a partial aggregate emits (fixed per function).
pub fn state_arity(func: AggFunc) -> usize {
    match func {
        AggFunc::Sum | AggFunc::Count | AggFunc::Min | AggFunc::Max => 1,
        AggFunc::Avg => 2,
        AggFunc::Vectorize => 2,
        AggFunc::RowMatrix | AggFunc::ColMatrix => 2,
        AggFunc::MatrixFromEntries => 3,
    }
}

/// A running aggregate.
#[derive(Debug)]
pub enum Accumulator {
    /// `SUM` — element-wise over LA values.
    Sum(Option<Value>),
    /// `COUNT`.
    Count(i64),
    /// `AVG`.
    Avg(Option<Value>, i64),
    /// `MIN` — element-wise over LA values.
    Min(Option<Value>),
    /// `MAX` — element-wise over LA values.
    Max(Option<Value>),
    /// `VECTORIZE`.
    Vectorize(VectorizeBuilder),
    /// `ROWMATRIX`.
    RowMatrix(RowMatrixBuilder),
    /// `COLMATRIX`.
    ColMatrix(RowMatrixBuilder),
    /// `MATRIX_FROM_ENTRIES` — COO assembly of a sparse matrix.
    MatrixFromEntries(CooBuilder),
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => Accumulator::Sum(None),
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Avg => Accumulator::Avg(None, 0),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Vectorize => Accumulator::Vectorize(VectorizeBuilder::new()),
            AggFunc::RowMatrix => Accumulator::RowMatrix(RowMatrixBuilder::new()),
            AggFunc::ColMatrix => Accumulator::ColMatrix(RowMatrixBuilder::new()),
            AggFunc::MatrixFromEntries => Accumulator::MatrixFromEntries(CooBuilder::new()),
        }
    }

    /// Folds one input value. SQL semantics: NULL inputs are skipped
    /// (`COUNT(*)` callers pass a non-null marker per row).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Count(n) => {
                *n += 1;
            }
            Accumulator::Sum(acc) => add_into(acc, v)?,
            Accumulator::Avg(acc, n) => {
                add_into(acc, v)?;
                *n += 1;
            }
            Accumulator::Min(acc) => minmax_into(acc, v, true)?,
            Accumulator::Max(acc) => minmax_into(acc, v, false)?,
            Accumulator::Vectorize(b) => {
                let ls = v.as_labeled_scalar().ok_or_else(|| {
                    ExecError::Runtime(format!(
                        "VECTORIZE expects LABELED_SCALAR, got {}",
                        v.data_type()
                    ))
                })?;
                b.push(ls)?;
            }
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                let vec = v.as_vector().ok_or_else(|| {
                    ExecError::Runtime(format!(
                        "ROWMATRIX/COLMATRIX expects VECTOR, got {}",
                        v.data_type()
                    ))
                })?;
                b.push((**vec).clone())?;
            }
            Accumulator::MatrixFromEntries(b) => {
                let (r, c, x) = unpack_entry(v)?;
                b.push(r, c, x)?;
            }
        }
        Ok(())
    }

    /// [`Self::update`] for one non-NULL `DOUBLE` lane. The states whose
    /// running value is already a `Double` fold it in place — the same
    /// `+` and comparisons `update` reaches through `ops::arith` and
    /// `ops::compare` — and every other state takes `update` itself.
    pub fn update_f64(&mut self, x: f64) -> Result<()> {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum(Some(Value::Double(acc))) => *acc += x,
            Accumulator::Avg(Some(Value::Double(acc)), n) => {
                *acc += x;
                *n += 1;
            }
            // A NaN on either side keeps the running value, as `compare` does.
            Accumulator::Min(Some(Value::Double(acc))) => {
                if *acc > x {
                    *acc = x;
                }
            }
            Accumulator::Max(Some(Value::Double(acc))) => {
                if *acc < x {
                    *acc = x;
                }
            }
            _ => return self.update(&Value::Double(x)),
        }
        Ok(())
    }

    /// Encodes the partial state as values (see [`state_arity`]).
    pub fn state(&self) -> Vec<Value> {
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => {
                vec![acc.clone().unwrap_or(Value::Null)]
            }
            Accumulator::Count(n) => vec![Value::Integer(*n)],
            Accumulator::Avg(acc, n) => {
                vec![acc.clone().unwrap_or(Value::Null), Value::Integer(*n)]
            }
            Accumulator::Vectorize(b) => encode_vectorize(b),
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => encode_labeled_rows(b),
            // (rows, cols, vals) parallel vectors — the partial state ships
            // proportionally to the entries actually seen.
            Accumulator::MatrixFromEntries(b) => {
                let (rows, cols, vals) = b.parts();
                vec![
                    Value::vector(Vector::from_vec(rows)),
                    Value::vector(Vector::from_vec(cols)),
                    Value::vector(Vector::from_vec(vals)),
                ]
            }
        }
    }

    /// Merges a partial state produced by [`Accumulator::state`].
    pub fn merge_state(&mut self, state: &[Value]) -> Result<()> {
        let need = match self {
            Accumulator::Avg(..) => 2,
            Accumulator::Vectorize(_) | Accumulator::RowMatrix(_) | Accumulator::ColMatrix(_) => 2,
            Accumulator::MatrixFromEntries(_) => 3,
            _ => 1,
        };
        if state.len() != need {
            return Err(ExecError::Runtime(format!(
                "aggregate state arity {} does not match expected {need}",
                state.len()
            )));
        }
        match self {
            Accumulator::Sum(acc) => add_into(acc, &state[0])?,
            Accumulator::Count(n) => {
                if let Some(m) = state[0].as_integer() {
                    *n += m;
                }
            }
            Accumulator::Avg(acc, n) => {
                add_into(acc, &state[0])?;
                *n += state[1].as_integer().unwrap_or(0);
            }
            Accumulator::Min(acc) => minmax_into(acc, &state[0], true)?,
            Accumulator::Max(acc) => minmax_into(acc, &state[0], false)?,
            Accumulator::Vectorize(b) => decode_vectorize(b, state)?,
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                decode_labeled_rows(b, state)?
            }
            Accumulator::MatrixFromEntries(b) => {
                // One validation pass over the three lanes, then one
                // extend: a corrupted partial is a typed error and must
                // not assemble a bogus matrix.
                let lane = |i: usize| {
                    let v = state[i].as_vector().ok_or_else(|| bad_state("MATRIX_FROM_ENTRIES"))?;
                    Ok::<_, ExecError>(v.as_slice())
                };
                b.extend_parts(lane(0)?, lane(1)?, lane(2)?)?;
            }
        }
        Ok(())
    }

    /// Approximate heap bytes held by this accumulator's state — what the
    /// spilling aggregation charges against its memory reservation. Cheap
    /// per variant (the builder aggregates are O(entries), but entry counts
    /// are exactly what the estimate must track).
    pub fn state_bytes(&self) -> usize {
        fn opt(v: &Option<Value>) -> usize {
            v.as_ref().map_or(1, Value::byte_size)
        }
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => opt(acc),
            Accumulator::Count(_) => 8,
            Accumulator::Avg(acc, _) => opt(acc) + 8,
            Accumulator::Vectorize(b) => b.entries().len() * 16,
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                b.entries().iter().map(|(_, v)| 8 + v.len() * 8).sum()
            }
            Accumulator::MatrixFromEntries(b) => b.len() * 16,
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => {
                acc.unwrap_or(Value::Null)
            }
            Accumulator::Count(n) => Value::Integer(n),
            Accumulator::Avg(acc, n) => match (acc, n) {
                (Some(v), n) if n > 0 => {
                    ops::arith(ArithOp::Div, &v, &Value::Double(n as f64))
                        .unwrap_or(Value::Null)
                }
                _ => Value::Null,
            },
            Accumulator::Vectorize(b) => Value::vector(b.finish()),
            Accumulator::RowMatrix(b) => Value::matrix(b.finish_rows()),
            Accumulator::ColMatrix(b) => Value::matrix(b.finish_cols()),
            Accumulator::MatrixFromEntries(b) => {
                let m = b.build_inferred();
                // The dispatch layer decides the output representation:
                // forced-dense runs get an ordinary MATRIX, adaptive runs
                // keep the sparse form while it is worth it.
                if dispatch::keep_sparse(m.density()) {
                    Value::sparse_matrix(m)
                } else {
                    dispatch::note_kernel(Kernel::Densified);
                    Value::matrix(m.to_dense())
                }
            }
        }
    }
}

/// Unpacks one `sparse_entry(row, col, val)` carrier vector.
fn unpack_entry(v: &Value) -> Result<(i64, i64, f64)> {
    let vec = v.as_vector().filter(|e| e.len() == 3).ok_or_else(|| {
        ExecError::Runtime(format!(
            "MATRIX_FROM_ENTRIES expects (row, col, val), got {}",
            v.data_type()
        ))
    })?;
    let s = vec.as_slice();
    Ok((coord(s[0])?, coord(s[1])?, s[2]))
}

/// A coordinate must be an exact non-negative integer; anything else —
/// fractional values, NaN, negatives — is a typed error rather than a
/// silent truncation.
fn coord(x: f64) -> Result<i64> {
    // In range, the cast truncates exactly, so a round trip is integrality.
    if (0.0..9e15).contains(&x) && x as i64 as f64 == x {
        Ok(x as i64)
    } else {
        Err(ExecError::Runtime(format!(
            "MATRIX_FROM_ENTRIES: coordinate {x} is not a non-negative integer"
        )))
    }
}

/// `*acc += v` with in-place element-wise addition when the accumulator
/// uniquely owns its payload (the common case), avoiding an allocation per
/// input row — the hot path of the Gram-matrix `SUM`.
fn add_into(acc: &mut Option<Value>, v: &Value) -> Result<()> {
    if v.is_null() {
        return Ok(());
    }
    match acc {
        None => {
            // Deep-copy LA payloads: the accumulator will mutate them.
            // (Sparse tiles are never mutated in place, so sharing the Arc
            // is safe there.)
            *acc = Some(match v {
                Value::Matrix(m) => Value::Matrix(Arc::new((**m).clone())),
                Value::Vector(x) => Value::Vector(Arc::new((**x).clone())),
                other => other.clone(),
            });
        }
        Some(Value::Matrix(m)) => {
            // Sparse input into a dense accumulator: scatter-add in O(nnz).
            if let Value::SparseMatrix(rhs) = v {
                let lhs = Arc::make_mut(m);
                rhs.add_to_dense(lhs)?;
                return Ok(());
            }
            let rhs = v.as_matrix().ok_or_else(|| mix_err("SUM", v))?;
            let lhs = Arc::make_mut(m);
            lhs.add_in_place(rhs)?;
        }
        Some(Value::Vector(x)) => {
            let rhs = v.as_vector().ok_or_else(|| mix_err("SUM", v))?;
            let lhs = Arc::make_mut(x);
            lhs.add_in_place(rhs)?;
        }
        Some(other) => {
            *other = ops::arith(ArithOp::Add, other, v)?;
        }
    }
    Ok(())
}

fn minmax_into(acc: &mut Option<Value>, v: &Value, is_min: bool) -> Result<()> {
    if v.is_null() {
        return Ok(());
    }
    // Element-wise MIN/MAX over matrices compares every coordinate, so
    // implicit zeros participate: densify sparse inputs up front.
    let dense_v;
    let v = match v {
        Value::SparseMatrix(m) => {
            dispatch::note_kernel(Kernel::Densified);
            dense_v = Value::matrix(m.to_dense());
            &dense_v
        }
        other => other,
    };
    match acc {
        None => {
            *acc = Some(match v {
                Value::Matrix(m) => Value::Matrix(Arc::new((**m).clone())),
                Value::Vector(x) => Value::Vector(Arc::new((**x).clone())),
                other => other.clone(),
            });
        }
        Some(Value::Matrix(m)) => {
            let rhs = v.as_matrix().ok_or_else(|| mix_err("MIN/MAX", v))?;
            let lhs = Arc::make_mut(m);
            if is_min {
                lhs.min_in_place(rhs)?;
            } else {
                lhs.max_in_place(rhs)?;
            }
        }
        Some(Value::Vector(x)) => {
            let rhs = v.as_vector().ok_or_else(|| mix_err("MIN/MAX", v))?;
            let lhs = Arc::make_mut(x);
            if is_min {
                lhs.min_in_place(rhs)?;
            } else {
                lhs.max_in_place(rhs)?;
            }
        }
        Some(other) => {
            let ord = ops::compare(other, v);
            let replace = match ord {
                Some(std::cmp::Ordering::Greater) => is_min,
                Some(std::cmp::Ordering::Less) => !is_min,
                _ => false,
            };
            if replace {
                *other = v.clone();
            }
        }
    }
    Ok(())
}

fn mix_err(agg: &str, v: &Value) -> ExecError {
    ExecError::Runtime(format!("{agg}: mixed aggregate input types (saw {})", v.data_type()))
}

/// Encodes a `VECTORIZE` partial as `[values VECTOR, labels VECTOR]`,
/// shipping only the *sparse* entries actually seen — positions other
/// workers filled must not be clobbered with zeros at merge time.
fn encode_vectorize(b: &VectorizeBuilder) -> Vec<Value> {
    let entries = b.entries();
    let values = Vector::from_fn(entries.len(), |i| entries[i].1);
    let labels = Vector::from_fn(entries.len(), |i| entries[i].0 as f64);
    vec![Value::vector(values), Value::vector(labels)]
}

fn decode_vectorize(b: &mut VectorizeBuilder, state: &[Value]) -> Result<()> {
    if state[0].is_null() {
        return Ok(());
    }
    let values = state[0].as_vector().ok_or_else(|| bad_state("VECTORIZE"))?;
    let labels = state[1].as_vector().ok_or_else(|| bad_state("VECTORIZE"))?;
    for (&x, &l) in values.as_slice().iter().zip(labels.as_slice()) {
        b.push(LabeledScalar::new(x, l as i64))?;
    }
    Ok(())
}

/// Encodes a `ROWMATRIX`/`COLMATRIX` partial as
/// `[stacked rows MATRIX, labels VECTOR]` — one stacked row per vector
/// actually folded (sparse), labels alongside.
fn encode_labeled_rows(b: &RowMatrixBuilder) -> Vec<Value> {
    let entries = b.entries();
    if entries.is_empty() {
        return vec![Value::Null, Value::Null];
    }
    let parts: Vec<Matrix> = entries.iter().map(|(_, v)| v.to_row_matrix()).collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    let stacked = Matrix::vstack(&refs).expect("uniform widths enforced on push");
    let labels = Vector::from_fn(entries.len(), |i| entries[i].0 as f64);
    vec![Value::matrix(stacked), Value::vector(labels)]
}

fn decode_labeled_rows(b: &mut RowMatrixBuilder, state: &[Value]) -> Result<()> {
    if state[0].is_null() {
        return Ok(());
    }
    let m: &Matrix = state[0].as_matrix().ok_or_else(|| bad_state("ROWMATRIX"))?;
    let labels = state[1].as_vector().ok_or_else(|| bad_state("ROWMATRIX"))?;
    for i in 0..m.rows() {
        let label = labels.get(i)? as i64;
        b.push(m.row_vector(i)?.with_label(label))?;
    }
    Ok(())
}

fn bad_state(agg: &str) -> ExecError {
    ExecError::Runtime(format!("{agg}: malformed partial aggregate state"))
}

/// Bit patterns no canonical double has (every NaN folds to `f64::NAN`'s),
/// so a NULL or a boolean key never hashes like a number.
const NULL_BITS: u64 = 0x7FF8_0000_0000_0001;
const BOOL_BITS: u64 = 0x7FF8_0000_0000_0002;
const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The bits a `DOUBLE` key is hashed and compared by: `-0.0` folds into
/// `0.0` and every NaN into one, so each is a single group.
#[inline]
fn canonical_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Folds one key lane's bits into a running key hash (the splitmix64
/// finalizer: every input bit reaches the low bits the slot index uses).
#[inline]
fn fold_hash(h: u64, bits: u64) -> u64 {
    let mut x = h ^ bits;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One lane of a group-key column, unboxed: what the table hashes and
/// compares against the key `Value`s it stores. Scalars never travel as
/// `Other`, so a key hashes and compares the same whether it arrives as a
/// typed lane or as a `Value`.
#[derive(Clone, Copy)]
enum KeyLane<'a> {
    Null,
    I64(i64),
    F64(f64),
    Bool(bool),
    Other(&'a Value),
}

impl<'a> KeyLane<'a> {
    #[inline]
    fn of_value(v: &'a Value) -> Self {
        match v {
            Value::Null => KeyLane::Null,
            Value::Integer(i) => KeyLane::I64(*i),
            Value::Double(d) => KeyLane::F64(*d),
            Value::Boolean(b) => KeyLane::Bool(*b),
            other => KeyLane::Other(other),
        }
    }

    #[inline]
    fn of_col(col: &'a Col, i: usize) -> Self {
        match col {
            Col::I64 { data, valid } if valid.get(i) => KeyLane::I64(data[i]),
            Col::F64 { data, valid } if valid.get(i) => KeyLane::F64(data[i]),
            Col::Bool { data, valid } if valid.get(i) => KeyLane::Bool(data[i]),
            Col::Boxed(v) => KeyLane::of_value(&v[i]),
            _ => KeyLane::Null,
        }
    }

    /// The key hash's input for this lane. An integer hashes as the double
    /// it equals, so `1` and `1.0` meet in one group.
    #[inline]
    fn bits(self) -> u64 {
        match self {
            KeyLane::Null => NULL_BITS,
            KeyLane::I64(i) => canonical_bits(i as f64),
            KeyLane::F64(d) => canonical_bits(d),
            KeyLane::Bool(b) => BOOL_BITS + b as u64,
            KeyLane::Other(v) => {
                let mut s = DefaultHasher::new();
                ops::hash_key(v, &mut s);
                s.finish()
            }
        }
    }

    /// Key equality against a stored key value: `Value`'s `==`, except
    /// that doubles compare by [`canonical_bits`] — NaN is one key.
    #[inline]
    fn matches(self, stored: &Value) -> bool {
        match (self, stored) {
            (KeyLane::Null, Value::Null) => true,
            (KeyLane::I64(a), Value::Integer(b)) => a == *b,
            (KeyLane::I64(a), Value::Double(b)) => a as f64 == *b,
            (KeyLane::F64(a), Value::Integer(b)) => a == *b as f64,
            (KeyLane::F64(a), Value::Double(b)) => canonical_bits(a) == canonical_bits(*b),
            (KeyLane::Bool(a), Value::Boolean(b)) => a == *b,
            (KeyLane::Other(v), stored) => v == stored,
            _ => false,
        }
    }
}

/// The group-key hash of a materialized key — the hash `update_columns`
/// folds column-at-a-time over typed lanes.
pub(crate) fn hash_values(kv: &[Value]) -> u64 {
    kv.iter().fold(HASH_SEED, |h, v| fold_hash(h, KeyLane::of_value(v).bits()))
}

/// The spill bucket of a key hash: its high bits, so the keys of one
/// bucket still spread over a table's low-bit slot index.
pub(crate) fn spill_bucket(hash: u64, fanout: usize) -> usize {
    ((hash >> 32) % fanout as u64) as usize
}

/// The slot entry of group number `group` (`group + 1`; 0 marks an empty
/// slot), or a typed error once group numbers outgrow the `u32` slots.
fn slot_entry(group: usize) -> Result<u32> {
    u32::try_from(group + 1)
        .map_err(|_| ExecError::Runtime("hash aggregate: more than 2^32 - 1 groups".into()))
}

/// Group keys in first-seen order behind an open-addressed index:
/// power-of-two `u32` slots, linear probing, load < ½. Keys are stored once,
/// as the `Value`s that are emitted; the index holds only group numbers,
/// and the per-group hash makes growth and most mismatches key-free.
pub(crate) struct KeyTable {
    slots: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<Vec<Value>>,
}

impl KeyTable {
    pub(crate) fn new() -> Self {
        KeyTable { slots: vec![0; 16], hashes: Vec::new(), keys: Vec::new() }
    }

    /// The group whose hash is `hash` and whose stored key satisfies `eq`,
    /// or the empty slot that ends its probe sequence.
    #[inline]
    fn probe(
        &self,
        hash: u64,
        eq: impl Fn(&[Value]) -> bool,
    ) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                entry => {
                    let g = (entry - 1) as usize;
                    if self.hashes[g] == hash && eq(&self.keys[g]) {
                        return Ok(g);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends a group at the empty `slot` a failed [`Self::probe`] for
    /// `hash` returned; its number is the count of groups before it.
    fn insert(&mut self, mut slot: usize, hash: u64, mut key: Vec<Value>) -> Result<usize> {
        // The key a group emits is the canonical double of its class, not
        // the lane that got here first: which of `-0.0`/`0.0`, or which
        // NaN payload, a table sees first depends on how rows were dealt
        // to workers, and results may not.
        for v in &mut key {
            if let Value::Double(d) = v {
                *d = f64::from_bits(canonical_bits(*d));
            }
        }
        let g = self.keys.len();
        let entry = slot_entry(g)?;
        if (g + 1) * 2 >= self.slots.len() {
            // Re-seated in group order, so equal hashes keep probing in
            // first-seen order; the stored hashes make this key-free.
            self.slots = vec![0; self.slots.len() * 2];
            let end_of = |t: &Self, h| t.probe(h, |_| false).unwrap_or_else(|empty| empty);
            for old in 0..g {
                let s = end_of(self, self.hashes[old]);
                self.slots[s] = old as u32 + 1;
            }
            slot = end_of(self, hash);
        }
        self.slots[slot] = entry;
        self.hashes.push(hash);
        self.keys.push(key);
        Ok(g)
    }

    /// The group of `kv` (whose [`hash_values`] is `hash`), if present.
    pub(crate) fn get(&self, hash: u64, kv: &[Value]) -> Option<usize> {
        self.probe(hash, |stored| values_match(stored, kv)).ok()
    }

    /// The group of `kv`, appended in first-seen order when new.
    pub(crate) fn group_of(&mut self, hash: u64, kv: &[Value]) -> Result<usize> {
        match self.probe(hash, |stored| values_match(stored, kv)) {
            Ok(g) => Ok(g),
            Err(slot) => self.insert(slot, hash, kv.to_vec()),
        }
    }
}

fn values_match(stored: &[Value], kv: &[Value]) -> bool {
    stored.iter().zip(kv).all(|(s, v)| KeyLane::of_value(v).matches(s))
}

/// One aggregate's argument, evaluated over a chunk.
pub(crate) enum ArgCols {
    /// `COUNT(*)`: no argument.
    Star,
    /// The argument's column.
    One(Arc<Col>),
    /// `MATRIX_FROM_ENTRIES`: the `(row, col, val)` operands of its
    /// `sparse_entry` carrier, which is never built per lane.
    Entry([Arc<Col>; 3]),
}

/// Folds lane `i` of `MATRIX_FROM_ENTRIES`'s numeric operand columns into
/// `acc` as the interpreter folds the lane's `sparse_entry` carrier:
/// integers go to `f64`, as the carrier holds them, and a NULL operand
/// makes the carrier NULL, which folds nothing. The pipeline declines a
/// chunk with an operand column of any other kind.
fn fold_entry(acc: &mut Accumulator, lanes: &[Arc<Col>; 3], i: usize) -> Result<()> {
    let number_at = |col: &Col| match col {
        Col::F64 { data, valid } => Ok(valid.get(i).then(|| data[i])),
        Col::I64 { data, valid } => Ok(valid.get(i).then(|| data[i] as f64)),
        _ => Err(ExecError::Runtime("matrix_from_entries: a non-numeric operand column".into())),
    };
    let Accumulator::MatrixFromEntries(b) = acc else {
        return Err(ExecError::Runtime("matrix_from_entries: operands of another aggregate".into()));
    };
    if let [Some(r), Some(c), Some(v)] =
        [number_at(&lanes[0])?, number_at(&lanes[1])?, number_at(&lanes[2])?]
    {
        b.push(coord(r)?, coord(c)?, v)?;
    }
    Ok(())
}

/// A grouped-aggregation hash table: one [`KeyTable`] and, per group, one
/// accumulator per aggregate. Every aggregate mode and both expression
/// engines fill the same table, one per partition — rows through
/// [`Self::update_row`], column chunks through [`Self::update_columns`] —
/// and groups come out in first-seen order.
pub(crate) struct GroupedAgg<'a> {
    group_by: &'a [Expr],
    aggs: &'a [AggExpr],
    mode: AggMode,
    table: KeyTable,
    accs: Vec<Vec<Accumulator>>,
    /// Per live lane of the chunk in `update_columns`, its key hash.
    lane_hashes: Vec<u64>,
}

impl<'a> GroupedAgg<'a> {
    pub(crate) fn new(group_by: &'a [Expr], aggs: &'a [AggExpr], mode: AggMode) -> Self {
        GroupedAgg {
            group_by,
            aggs,
            mode,
            table: KeyTable::new(),
            accs: Vec::new(),
            lane_hashes: Vec::new(),
        }
    }

    /// The group of `kv`, with fresh accumulators when the table appended it.
    fn group_index(&mut self, hash: u64, kv: &[Value]) -> Result<usize> {
        let idx = self.table.group_of(hash, kv)?;
        if idx == self.accs.len() {
            self.accs.push(self.aggs.iter().map(|a| Accumulator::new(a.func)).collect());
        }
        Ok(idx)
    }

    pub(crate) fn update_row(&mut self, row: &Row, scratch: &mut Vec<Value>) -> Result<()> {
        let mut kv = Vec::with_capacity(self.group_by.len());
        for g in self.group_by {
            kv.push(eval_with(g, row, scratch)?);
        }
        let idx = self.group_index(hash_values(&kv), &kv)?;
        match self.mode {
            AggMode::Partial | AggMode::Complete => {
                for (a, acc) in self.aggs.iter().zip(self.accs[idx].iter_mut()) {
                    match &a.arg {
                        Some(e) => acc.update(&eval_with(e, row, scratch)?)?,
                        None => acc.update(&Value::Integer(1))?, // COUNT(*)
                    }
                }
                Ok(())
            }
            AggMode::Final => self.merge_states(idx, row),
        }
    }

    /// Folds the state columns of a `[group cols][state cols per agg]` row
    /// into group `idx`.
    fn merge_states(&mut self, idx: usize, row: &Row) -> Result<()> {
        let mut off = self.group_by.len();
        for (a, acc) in self.aggs.iter().zip(self.accs[idx].iter_mut()) {
            let n = state_arity(a.func);
            let state = row.values().get(off..off + n).ok_or_else(|| {
                ExecError::Runtime(format!(
                    "partial row arity {} too short for state columns at {off}..{}",
                    row.arity(),
                    off + n
                ))
            })?;
            acc.merge_state(state)?;
            off += n;
        }
        if off != row.arity() {
            return Err(ExecError::Runtime(format!(
                "partial row arity {} does not match states ({off})",
                row.arity()
            )));
        }
        Ok(())
    }

    /// Folds one state row whose group key is its leading columns — what
    /// [`Self::into_state_rows`] emits and a spilling finish reads back.
    pub(crate) fn merge_state_row(&mut self, row: &Row) -> Result<()> {
        let kv = row.values().get(..self.group_by.len()).ok_or_else(|| {
            ExecError::Runtime("aggregate state row shorter than its group key".to_string())
        })?;
        let idx = self.group_index(hash_values(kv), kv)?;
        self.merge_states(idx, row)
    }

    /// Folds the live lanes of one evaluated chunk, ascending — exactly
    /// what [`Self::update_row`] does with the rows those lanes stand for
    /// (Partial/Complete modes). Key hashes are folded column-at-a-time;
    /// a lane is compared unboxed against the stored key and only a new
    /// group materializes its key. `arg_cols[a]` is aggregate `a`'s
    /// evaluated argument.
    pub(crate) fn update_columns(
        &mut self,
        key_cols: &[Arc<Col>],
        arg_cols: &[ArgCols],
        sel: Option<&[u32]>,
        n: usize,
    ) -> Result<()> {
        let lane = |k: usize| sel.map_or(k, |s| s[k] as usize);
        self.lane_hashes.clear();
        self.lane_hashes.resize(sel.map_or(n, <[u32]>::len), HASH_SEED);
        for col in key_cols {
            for (k, h) in self.lane_hashes.iter_mut().enumerate() {
                *h = fold_hash(*h, KeyLane::of_col(col, lane(k)).bits());
            }
        }
        for (k, &hash) in self.lane_hashes.iter().enumerate() {
            let i = lane(k);
            let same_key = |stored: &[Value]| {
                stored.iter().zip(key_cols).all(|(s, c)| KeyLane::of_col(c, i).matches(s))
            };
            let idx = match self.table.probe(hash, same_key) {
                Ok(idx) => idx,
                Err(slot) => {
                    let key = key_cols.iter().map(|c| c.value_at(i)).collect();
                    let idx = self.table.insert(slot, hash, key)?;
                    self.accs.push(self.aggs.iter().map(|a| Accumulator::new(a.func)).collect());
                    idx
                }
            };
            for (acc, arg) in self.accs[idx].iter_mut().zip(arg_cols) {
                match arg {
                    ArgCols::Star => acc.update(&Value::Integer(1))?, // COUNT(*)
                    ArgCols::One(col) => match &**col {
                        Col::F64 { data, valid } => {
                            if valid.get(i) {
                                acc.update_f64(data[i])?;
                            }
                        }
                        Col::Boxed(vals) => acc.update(&vals[i])?,
                        col => acc.update(&col.value_at(i))?,
                    },
                    ArgCols::Entry(lanes) => fold_entry(acc, lanes, i)?,
                }
            }
        }
        Ok(())
    }

    /// Approximate heap bytes of this table's state (group keys +
    /// accumulator payloads + per-group bookkeeping), as charged against
    /// the memory governor when a budget finishes the table.
    pub(crate) fn state_bytes(&self) -> usize {
        let keys: usize = self.table.keys.iter().flatten().map(Value::byte_size).sum();
        let states: usize = self.accs.iter().flatten().map(Accumulator::state_bytes).sum();
        keys + states + self.accs.len() * 64
    }

    /// Consumes the table into `[group cols][state cols]` rows in
    /// first-seen order — the same layout `AggMode::Final` consumes, and
    /// what a spilling finish writes to its bucket files.
    pub(crate) fn into_state_rows(mut self) -> Vec<Row> {
        self.mode = AggMode::Partial;
        self.finish()
    }

    /// Emits groups in first-seen order.
    pub(crate) fn finish(self) -> Vec<Row> {
        let mode = self.mode;
        let mut out = Vec::with_capacity(self.accs.len());
        for (kv, group_accs) in self.table.keys.into_iter().zip(self.accs) {
            let mut vals = kv;
            for acc in group_accs {
                match mode {
                    AggMode::Partial => vals.extend(acc.state()),
                    AggMode::Final | AggMode::Complete => vals.push(acc.finish()),
                }
            }
            out.push(Row::new(vals));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::Vector;

    #[test]
    fn sum_scalars_and_vectors() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::Integer(2)).unwrap();
        a.update(&Value::Integer(3)).unwrap();
        a.update(&Value::Null).unwrap();
        assert_eq!(a.finish(), Value::Integer(5));

        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]))).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[10.0, 20.0]))).unwrap();
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn sum_does_not_mutate_shared_input() {
        // The first input is Arc-shared with the "table"; the accumulator
        // must deep-copy before mutating.
        let original = Value::vector(Vector::from_slice(&[1.0, 1.0]));
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&original).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[1.0, 1.0]))).unwrap();
        assert_eq!(original.as_vector().unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn count_and_avg() {
        let mut c = Accumulator::new(AggFunc::Count);
        c.update(&Value::Integer(1)).unwrap();
        c.update(&Value::Integer(1)).unwrap();
        c.update(&Value::Null).unwrap(); // skipped
        assert_eq!(c.finish(), Value::Integer(2));

        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::Double(1.0)).unwrap();
        a.update(&Value::Double(3.0)).unwrap();
        assert_eq!(a.finish(), Value::Double(2.0));
        assert!(Accumulator::new(AggFunc::Avg).finish().is_null());
    }

    #[test]
    fn avg_of_vectors() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::vector(Vector::from_slice(&[2.0]))).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[4.0]))).unwrap();
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[3.0]);
    }

    #[test]
    fn min_max_scalars_and_elementwise() {
        let mut mn = Accumulator::new(AggFunc::Min);
        mn.update(&Value::Double(5.0)).unwrap();
        mn.update(&Value::Double(2.0)).unwrap();
        mn.update(&Value::Double(7.0)).unwrap();
        assert_eq!(mn.finish(), Value::Double(2.0));

        let mut mx = Accumulator::new(AggFunc::Max);
        mx.update(&Value::vector(Vector::from_slice(&[1.0, 9.0]))).unwrap();
        mx.update(&Value::vector(Vector::from_slice(&[5.0, 2.0]))).unwrap();
        assert_eq!(mx.finish().as_vector().unwrap().as_slice(), &[5.0, 9.0]);
    }

    #[test]
    fn vectorize_roundtrip_through_state() {
        let mut p1 = Accumulator::new(AggFunc::Vectorize);
        p1.update(&Value::LabeledScalar(LabeledScalar::new(1.0, 0))).unwrap();
        let mut p2 = Accumulator::new(AggFunc::Vectorize);
        p2.update(&Value::LabeledScalar(LabeledScalar::new(9.0, 3))).unwrap();

        let mut f = Accumulator::new(AggFunc::Vectorize);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let v = f.finish();
        assert_eq!(v.as_vector().unwrap().as_slice(), &[1.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn rowmatrix_roundtrip_through_state() {
        let mut p1 = Accumulator::new(AggFunc::RowMatrix);
        p1.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]).with_label(0)))
            .unwrap();
        let mut p2 = Accumulator::new(AggFunc::RowMatrix);
        p2.update(&Value::vector(Vector::from_slice(&[3.0, 4.0]).with_label(1)))
            .unwrap();
        let mut f = Accumulator::new(AggFunc::RowMatrix);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let m = f.finish();
        let m = m.as_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn colmatrix_finish() {
        let mut a = Accumulator::new(AggFunc::ColMatrix);
        a.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]).with_label(1)))
            .unwrap();
        let m = a.finish();
        let m = m.as_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1).unwrap(), 2.0);
    }

    #[test]
    fn sum_state_roundtrip() {
        let mut p = Accumulator::new(AggFunc::Sum);
        p.update(&Value::Double(2.0)).unwrap();
        let mut f = Accumulator::new(AggFunc::Sum);
        f.merge_state(&p.state()).unwrap();
        f.merge_state(&Accumulator::new(AggFunc::Sum).state()).unwrap(); // empty partial
        assert_eq!(f.finish(), Value::Double(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut a = Accumulator::new(AggFunc::Vectorize);
        assert!(a.update(&Value::Double(1.0)).is_err());
        let mut b = Accumulator::new(AggFunc::RowMatrix);
        assert!(b.update(&Value::Double(1.0)).is_err());
        let mut s = Accumulator::new(AggFunc::Sum);
        s.update(&Value::vector(Vector::zeros(2))).unwrap();
        assert!(s.update(&Value::Double(1.0)).is_err());
    }

    #[test]
    fn state_bytes_tracks_growth() {
        let mut s = Accumulator::new(AggFunc::Sum);
        let empty = s.state_bytes();
        s.update(&Value::matrix(Matrix::from_fn(8, 8, |_, _| 1.0))).unwrap();
        assert!(s.state_bytes() >= 8 * 8 * 8, "matrix sum charged its payload");
        assert!(s.state_bytes() > empty);

        let mut v = Accumulator::new(AggFunc::Vectorize);
        let before = v.state_bytes();
        v.update(&Value::LabeledScalar(LabeledScalar::new(1.0, 3))).unwrap();
        assert!(v.state_bytes() > before);
    }

    #[test]
    fn state_arity_consistency() {
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
            assert_eq!(Accumulator::new(f).state().len(), state_arity(f));
        }
    }

    fn entry(r: f64, c: f64, v: f64) -> Value {
        Value::vector(Vector::from_slice(&[r, c, v]))
    }

    #[test]
    fn matrix_from_entries_sums_duplicates_and_roundtrips_state() {
        // Default mode is Adaptive; the forced-dense variant lives in the
        // same test as the mode flip to avoid cross-test races on the
        // process-wide dispatch mode.
        let mut p1 = Accumulator::new(AggFunc::MatrixFromEntries);
        p1.update(&entry(0.0, 1.0, 2.0)).unwrap();
        p1.update(&entry(2.0, 0.0, 5.0)).unwrap();
        let mut p2 = Accumulator::new(AggFunc::MatrixFromEntries);
        p2.update(&entry(0.0, 1.0, 3.0)).unwrap(); // duplicate of p1's first

        let mut f = Accumulator::new(AggFunc::MatrixFromEntries);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let out = f.finish();
        let m = out.as_sparse_matrix().expect("low density stays sparse");
        assert_eq!(m.shape(), (3, 2)); // inferred from max coordinates
        assert_eq!(m.get(0, 1).unwrap(), 5.0); // 2.0 + 3.0
        assert_eq!(m.get(2, 0).unwrap(), 5.0);
        assert_eq!(m.nnz(), 2);

        // Entries denser than DENSIFY_ABOVE yield an ordinary MATRIX.
        let mut a = Accumulator::new(AggFunc::MatrixFromEntries);
        for (i, j) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            a.update(&entry(i, j, i + 2.0 * j + 1.0)).unwrap();
        }
        let out = a.finish();
        let m = out.as_matrix().expect("a full tile densifies");
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1).unwrap(), 4.0);
    }

    #[test]
    fn matrix_from_entries_rejects_bad_coordinates() {
        let mut a = Accumulator::new(AggFunc::MatrixFromEntries);
        assert!(a.update(&entry(-1.0, 0.0, 1.0)).is_err());
        assert!(a.update(&entry(0.5, 0.0, 1.0)).is_err());
        assert!(a.update(&entry(f64::NAN, 0.0, 1.0)).is_err());
        assert!(a.update(&Value::Double(1.0)).is_err());
        assert!(a.update(&Value::vector(Vector::zeros(2))).is_err());
    }

    #[test]
    fn sum_mixes_sparse_and_dense_tiles() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 1, 2.0).unwrap();
        let sp = b.build(2, 2).unwrap();
        let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 3.0]]).unwrap();

        // dense first, then sparse (O(nnz) scatter-add path)
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::matrix(dense.clone())).unwrap();
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        let m1 = a.finish();

        // sparse first, then dense (generic arith path)
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        a.update(&Value::matrix(dense.clone())).unwrap();
        let m2 = a.finish();

        let expected = Value::matrix(
            Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).unwrap(),
        );
        assert_eq!(m1, expected);
        assert_eq!(m2, expected);

        // sparse-only SUM stays sparse
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        a.update(&Value::sparse_matrix(sp)).unwrap();
        assert_eq!(
            a.finish(),
            Value::matrix(Matrix::from_rows(&[&[0.0, 4.0], &[0.0, 0.0]]).unwrap())
        );
    }

    #[test]
    fn minmax_densifies_sparse_input() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 0, -5.0).unwrap();
        let sp = b.build(1, 2).unwrap();
        let mut mn = Accumulator::new(AggFunc::Min);
        mn.update(&Value::matrix(Matrix::from_rows(&[&[1.0, -2.0]]).unwrap())).unwrap();
        mn.update(&Value::sparse_matrix(sp)).unwrap();
        let m = mn.finish();
        let m = m.as_matrix().unwrap();
        // min(1, -5) = -5; min(-2, implicit 0) = -2
        assert_eq!(m.row(0), &[-5.0, -2.0]);
    }
    // ------------------------------------------------------- group table

    use crate::batch::ColumnBatch;
    use proptest::prelude::*;

    /// Exact rendering: float bits, so `-0.0`, NaN payloads and `Integer`
    /// vs `Double` are all told apart.
    fn exact(rows: &[Row]) -> Vec<Vec<String>> {
        let one = |v: &Value| match v {
            Value::Double(d) => format!("D:{:016x}", d.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter().map(|r| r.values().iter().map(one).collect()).collect()
    }

    /// splitmix64 (the vendored proptest has scalar strategies only).
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            fold_hash(self.0, 0) % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    const BIG: i64 = 1 << 53;
    const INTS: [i64; 7] = [0, 1, 2, -1, BIG, BIG + 1, BIG + 2];
    const NAN_A: f64 = f64::NAN;

    fn doubles() -> [f64; 9] {
        let nan_b = f64::from_bits(0xFFF8_0000_0000_0BAD);
        [0.0, -0.0, 1.0, 2.0, -1.0, NAN_A, nan_b, BIG as f64, (BIG + 2) as f64]
    }

    /// One key lane of a column whose chunk has the given kind: the same
    /// logical column is `I64`, `F64`, `Bool`, all-NULL or `Boxed`
    /// (VARCHAR, VECTOR) from one chunk to the next. (A column mixing
    /// INTEGER and DOUBLE lanes is no type, and no pivot builds one.)
    fn key_lane(g: &mut Gen, kind: u64) -> Value {
        if g.below(5) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Integer(g.pick(&INTS)),
            1 => Value::Double(g.pick(&doubles())),
            2 => Value::Boolean(g.below(2) == 0),
            3 => Value::Null,
            4 => Value::varchar(g.pick(&["a", "b", ""])),
            _ => Value::vector(Vector::from_slice(&[g.pick(&[0.0, -0.0, 1.0]), 2.0])),
        }
    }

    fn arg_lane(g: &mut Gen, kind: u64) -> Value {
        let double = |g: &mut Gen| {
            Value::Double(g.pick(&[0.0, -0.0, 0.1, 0.2, 0.3, 1e300, -1e300, f64::INFINITY, NAN_A]))
        };
        match (g.below(6), kind) {
            (0, _) => Value::Null,
            (_, 0) => double(g),
            _ => Value::Integer(g.below(2000) as i64 - 1000),
        }
    }

    /// Random chunks as `(rows, selection)`; every row is `keys ++ args`.
    fn gen_chunks(g: &mut Gen, keys: usize, args: usize) -> Vec<(Vec<Row>, Option<Vec<u32>>)> {
        (0..1 + g.below(4))
            .map(|_| {
                let n = g.below(65) as usize;
                let key_kinds: Vec<u64> = (0..keys).map(|_| g.below(6)).collect();
                let arg_kinds: Vec<u64> = (0..args).map(|_| g.below(2)).collect();
                let rows = (0..n)
                    .map(|_| {
                        let k = key_kinds.iter().map(|&kind| key_lane(g, kind));
                        let k: Vec<Value> = k.collect();
                        let a = arg_kinds.iter().map(|&kind| arg_lane(g, kind));
                        Row::new(k.into_iter().chain(a.collect::<Vec<_>>()).collect())
                    })
                    .collect();
                let sel = (g.below(2) == 0)
                    .then(|| (0..n as u32).filter(|_| g.below(3) != 0).collect());
                (rows, sel)
            })
            .collect()
    }

    /// Feeds the chunks column-at-a-time (`columns`) or as the rows their
    /// live lanes stand for.
    fn fill(agg: &mut GroupedAgg<'_>, chunks: &[(Vec<Row>, Option<Vec<u32>>)], columns: bool) {
        let (keys, aggs) = (agg.group_by.len(), agg.aggs);
        // (A zero-row chunk pivots to no columns; the pipeline skips it.)
        for (rows, sel) in chunks.iter().filter(|(rows, _)| !rows.is_empty()) {
            if columns {
                let batch = ColumnBatch::from_rows(rows).unwrap();
                let cols = batch.cols();
                let mut next_arg = keys;
                let arg_cols: Vec<ArgCols> = aggs
                    .iter()
                    .map(|a| match a.arg {
                        None => ArgCols::Star,
                        Some(_) => {
                            next_arg += 1;
                            ArgCols::One(cols[next_arg - 1].clone())
                        }
                    })
                    .collect();
                agg.update_columns(&cols[..keys], &arg_cols, sel.as_deref(), rows.len()).unwrap();
            } else {
                let live: Vec<usize> = match sel {
                    Some(s) => s.iter().map(|&i| i as usize).collect(),
                    None => (0..rows.len()).collect(),
                };
                for i in live {
                    agg.update_row(&rows[i], &mut Vec::new()).unwrap();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `update_columns` ≡ `update_row`: same groups in the same order,
        /// same `Value` variants, same float bits.
        #[test]
        fn update_columns_matches_update_row(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let keys = g.below(4) as usize;
            let group_by: Vec<Expr> = (0..keys).map(Expr::col).collect();
            let mut next_arg = keys;
            let aggs: Vec<AggExpr> = (0..1 + g.below(3))
                .map(|_| {
                    let func = g.pick(&[
                        AggFunc::Sum, AggFunc::Count, AggFunc::Count, AggFunc::Avg,
                        AggFunc::Min, AggFunc::Max,
                    ]);
                    // COUNT(*) has no argument column.
                    let arg = (func != AggFunc::Count || g.below(2) == 0).then(|| {
                        next_arg += 1;
                        Expr::col(next_arg - 1)
                    });
                    AggExpr { func, arg, name: "a".into() }
                })
                .collect();
            let chunks = gen_chunks(&mut g, keys, next_arg - keys);
            for mode in [AggMode::Partial, AggMode::Complete] {
                let table = |chunks, columns| {
                    let mut agg = GroupedAgg::new(&group_by, &aggs, mode);
                    fill(&mut agg, chunks, columns);
                    agg
                };
                let (by_col, by_row) = (table(&chunks, true), table(&chunks, false));
                prop_assert_eq!(by_col.state_bytes(), by_row.state_bytes());
                prop_assert_eq!(exact(&by_col.finish()), exact(&by_row.finish()));
            }
        }
    }

    /// The hash folded over a typed lane is the hash of the `Value` that
    /// lane materializes to, for every column variant.
    #[test]
    fn typed_lane_hash_equals_value_hash() {
        let mut g = Gen(7);
        let mut lanes = 0;
        let mut agree = true;
        while lanes < 10_000 {
            let kind = g.below(6);
            let rows: Vec<Row> = (0..50).map(|_| Row::new(vec![key_lane(&mut g, kind)])).collect();
            let batch = ColumnBatch::from_rows(&rows).unwrap();
            let col = &batch.cols()[0];
            for (i, row) in rows.iter().enumerate() {
                let typed = fold_hash(HASH_SEED, KeyLane::of_col(col, i).bits());
                agree &= typed == hash_values(&[col.value_at(i)]);
                agree &= typed == hash_values(row.values());
            }
            lanes += rows.len();
        }
        assert!(agree);
    }

    #[test]
    fn key_equality_folds_zeros_and_nans_only() {
        let mut t = KeyTable::new();
        let mut group =
            |v: Value| t.group_of(hash_values(std::slice::from_ref(&v)), &[v]).unwrap();
        assert_eq!(group(Value::Double(-0.0)), 0);
        assert_eq!(group(Value::Double(0.0)), 0);
        assert_eq!(group(Value::Integer(0)), 0);
        assert_eq!(group(Value::Double(f64::NAN)), 1);
        assert_eq!(group(Value::Double(f64::from_bits(0xFFF8_0000_0000_0001))), 1);
        assert_eq!(group(Value::Null), 2);
        assert_eq!(group(Value::Boolean(false)), 3);
        assert_eq!(group(Value::Integer(BIG + 1)), 4);
        assert_eq!(group(Value::Integer(BIG)), 5); // exact among integers
        assert_eq!(group(Value::Double(BIG as f64)), 4); // first-seen `Value ==` match
        let Value::Double(zero) = t.keys[0][0] else { panic!("{:?}", t.keys[0]) };
        assert_eq!(zero.to_bits(), 0, "the canonical zero is kept, not the first-seen -0.0");
    }

    #[test]
    fn index_numbers_groups_densely_through_growth() {
        let mut t = KeyTable::new();
        for i in 0..100_000i64 {
            let kv = [Value::Integer(i * 7919)];
            assert_eq!(t.group_of(hash_values(&kv), &kv).unwrap(), i as usize);
        }
        assert_eq!(t.keys.len(), 100_000);
        assert!(t.slots.len().is_power_of_two() && t.slots.len() > 2 * t.keys.len());
        for i in (0..100_000i64).step_by(997) {
            let kv = [Value::Integer(i * 7919)];
            assert_eq!(t.get(hash_values(&kv), &kv), Some(i as usize));
            assert_eq!(t.group_of(hash_values(&kv), &kv).unwrap(), i as usize);
        }
        assert_eq!(t.get(hash_values(&[Value::Integer(1)]), &[Value::Integer(1)]), None);
    }

    #[test]
    fn keys_sharing_one_hash_stay_distinct() {
        let mut t = KeyTable::new();
        for i in 0..300i64 {
            assert_eq!(t.group_of(42, &[Value::Integer(i)]).unwrap(), i as usize);
        }
        for i in 0..300i64 {
            assert_eq!(t.get(42, &[Value::Integer(i)]), Some(i as usize));
        }
        assert_eq!(t.get(42, &[Value::Integer(300)]), None);
    }

    #[test]
    fn group_numbers_outgrowing_the_slots_are_a_typed_error() {
        assert_eq!(slot_entry(0).unwrap(), 1);
        assert_eq!(slot_entry(u32::MAX as usize - 1).unwrap(), u32::MAX);
        let err = slot_entry(u32::MAX as usize).unwrap_err();
        assert!(matches!(err, ExecError::Runtime(m) if m.contains("groups")));
    }

    /// Slots looked at to find each group of `keys`: (worst, mean).
    fn probe_lengths(keys: impl Iterator<Item = Vec<Value>>) -> (usize, f64) {
        let mut t = KeyTable::new();
        for kv in keys {
            t.group_of(hash_values(&kv), &kv).unwrap();
        }
        let mask = t.slots.len() - 1;
        let lengths = t.hashes.iter().enumerate().map(|(g, &h)| {
            let home = h as usize & mask;
            (0..).find(|d| t.slots[(home + d) & mask] == g as u32 + 1).unwrap() + 1
        });
        let lengths: Vec<usize> = lengths.collect();
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        (lengths.into_iter().max().unwrap(), mean)
    }

    /// Patterned keys must not cluster: a multiply-only hash leaves the low
    /// bits of small integers stored as `f64` bits all zero.
    #[test]
    fn patterned_keys_probe_short() {
        type Keys = Box<dyn Iterator<Item = Vec<Value>>>;
        let ints = |step: i64| (0..4096i64).map(move |i| vec![Value::Integer(i * step)]);
        let patterns: Vec<(&str, Keys)> = vec![
            ("0..4096 as I64", Box::new(ints(1))),
            ("0..4096 as F64", Box::new((0..4096).map(|i| vec![Value::Double(i as f64)]))),
            ("multiples of 1024", Box::new(ints(1024))),
            (
                "64 x 64 grid",
                Box::new((0..4096i64).map(|i| vec![Value::Integer(i / 64), Value::Integer(i % 64)])),
            ),
            (
                "exponent-only doubles",
                Box::new((1..=1024u64).map(|e| vec![Value::Double(f64::from_bits(e << 52))])),
            ),
        ];
        for (what, keys) in patterns {
            let (worst, mean) = probe_lengths(keys);
            assert!(worst <= 8 && mean <= 2.0, "{what}: worst {worst}, mean {mean:.3}");
        }
    }
}
