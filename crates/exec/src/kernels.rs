//! Column-at-a-time kernels for the vectorized engine.
//!
//! Every kernel mirrors the row interpreter ([`crate::eval`]) exactly on
//! the lanes it evaluates: when a kernel returns `Ok`, its output values
//! are bit-identical to what per-row evaluation would produce. When a
//! kernel cannot guarantee that — an unsupported type combination, an
//! integer overflow the interpreter might or might not reach, a NaN
//! comparison, a lane error inside an eagerly evaluated `AND`/`OR`
//! branch — it returns `Err`, and the executor re-runs the whole chunk
//! through the row interpreter and takes *its* result. That fallback rule
//! is what makes eager (non-short-circuit) evaluation safe: the compiled
//! path evaluates a superset of the (row, subexpression) pairs the
//! interpreter would, so a compiled success implies interpreter agreement,
//! and any disagreement route ends in `Err`, never in a wrong answer.
//!
//! Kernels take an optional *selection vector* (`sel`): the sorted lane
//! indices still alive after upstream filters. With no selection they run
//! branch-free tight loops over full slices; `Vector ⊕ scalar` and
//! `Vector ⊕ Vector` lanes dispatch to the `lardb-la` slice kernels
//! directly instead of going through `ops::arith`'s dynamic overload
//! match per row. Built-in calls read their lanes by reference, and a
//! DOUBLE-valued built-in writes a `Col::F64`; `inner_product` calls its
//! `lardb-la` kernel directly on VECTOR lanes.

use std::borrow::Borrow;

use lardb_planner::{Builtin, CmpOp};
use lardb_storage::ops::{self, ArithOp};
use lardb_storage::Value;

use crate::batch::{Bitmap, Col};
use crate::eval::cmp_holds;
use crate::{ExecError, Result};

/// The interpreter would have to decide this lane/type combination; the
/// chunk is replayed through [`crate::eval`].
fn unsupported(what: &str) -> ExecError {
    ExecError::Runtime(format!("vectorized kernel fallback: {what}"))
}

/// Runs `f` over every selected lane.
#[inline]
fn for_lanes(
    n: usize,
    sel: Option<&[u32]>,
    mut f: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    match sel {
        Some(s) => {
            for &i in s {
                f(i as usize)?;
            }
        }
        None => {
            for i in 0..n {
                f(i)?;
            }
        }
    }
    Ok(())
}

/// `ArithOp` over two `f64`s — must stay identical to the private
/// `ArithOp::apply_f64` in `lardb_storage::ops` (plain IEEE ops; `x/0.0`
/// is `inf`, not an error, exactly as the interpreter computes it).
#[inline]
fn apply_f64(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
    }
}

/// A lane read that borrows boxed values and materializes typed ones.
enum LaneVal<'a> {
    R(&'a Value),
    O(Value),
}

impl<'a> LaneVal<'a> {
    #[inline]
    fn get(&self) -> &Value {
        match self {
            LaneVal::R(v) => v,
            LaneVal::O(v) => v,
        }
    }
}

#[inline]
fn lane_val(col: &Col, i: usize) -> LaneVal<'_> {
    match col {
        Col::Boxed(v) => LaneVal::R(&v[i]),
        other => LaneVal::O(other.value_at(i)),
    }
}

/// Numeric lane as `f64`, `None` when NULL. Matches `Value::as_double`'s
/// `Integer → as f64` promotion.
#[inline]
fn num_f64(col: &Col, i: usize) -> Option<f64> {
    match col {
        Col::F64 { data, valid } => valid.get(i).then(|| data[i]),
        Col::I64 { data, valid } => valid.get(i).then(|| data[i] as f64),
        _ => None,
    }
}

/// Element-wise arithmetic, mirroring `ops::arith`'s overload matrix.
pub fn arith(op: ArithOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    match (a, b) {
        (Col::Boxed(_), _) | (_, Col::Boxed(_)) => boxed_arith(op, a, b, sel, n),
        (Col::F64 { data: ad, valid: av }, Col::F64 { data: bd, valid: bv }) => {
            if sel.is_none() && av.all_valid() && bv.all_valid() {
                // Branch-free: one fused pass over both slices.
                let data =
                    ad.iter().zip(bd).map(|(&x, &y)| apply_f64(op, x, y)).collect();
                return Ok(Col::F64 { data, valid: Bitmap::new_valid(n) });
            }
            let mut data = vec![0.0f64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if av.get(i) && bv.get(i) {
                    data[i] = apply_f64(op, ad[i], bd[i]);
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::F64 { data, valid })
        }
        (Col::I64 { data: ad, valid: av }, Col::I64 { data: bd, valid: bv }) => {
            let mut data = vec![0i64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if av.get(i) && bv.get(i) {
                    // Checked ops: overflow (a debug-build panic on the
                    // interpreted path) and division by zero both route to
                    // the interpreter, which decides the actual outcome.
                    let out = match op {
                        ArithOp::Add => ad[i].checked_add(bd[i]),
                        ArithOp::Sub => ad[i].checked_sub(bd[i]),
                        ArithOp::Mul => ad[i].checked_mul(bd[i]),
                        ArithOp::Div => ad[i].checked_div(bd[i]),
                    }
                    .ok_or_else(|| unsupported("integer overflow or division by zero"))?;
                    data[i] = out;
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::I64 { data, valid })
        }
        (Col::F64 { .. } | Col::I64 { .. }, Col::F64 { .. } | Col::I64 { .. }) => {
            // Mixed INTEGER/DOUBLE promotes to DOUBLE, as `as_double` does.
            let mut data = vec![0.0f64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if let (Some(x), Some(y)) = (num_f64(a, i), num_f64(b, i)) {
                    data[i] = apply_f64(op, x, y);
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::F64 { data, valid })
        }
        _ => Err(unsupported("arithmetic over BOOLEAN lanes")),
    }
}

/// Arithmetic with at least one boxed side: per-lane by reference, with
/// the LA broadcast cases dispatched straight to the `lardb-la` slice
/// kernels (the same ones `ops::arith` would call).
fn boxed_arith(op: ArithOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut out = vec![Value::Null; n];
    for_lanes(n, sel, |i| {
        let (l, r) = (lane_val(a, i), lane_val(b, i));
        out[i] = arith_lane(op, l.get(), r.get())?;
        Ok(())
    })?;
    Ok(Col::Boxed(out.into()))
}

/// One boxed arithmetic lane. The fast paths are *specializations* of
/// `ops::arith` arms (same underlying `Vector` methods, same `apply_f64`),
/// so their results are bit-identical; everything else — including the
/// error cases — goes through `ops::arith` itself. Integer pairs use
/// checked ops so overflow routes to the interpreter (see module docs).
fn arith_lane(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Integer(x), Value::Integer(y)) => {
            if *y == 0 && op == ArithOp::Div {
                // Let ops::arith produce its exact division-by-zero error.
                return Ok(ops::arith(op, l, r)?);
            }
            let out = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => x.checked_div(*y),
            }
            .ok_or_else(|| unsupported("integer overflow"))?;
            Ok(Value::Integer(out))
        }
        (Value::Vector(x), Value::Vector(y)) => {
            let out = match op {
                ArithOp::Add => x.add(y),
                ArithOp::Sub => x.sub(y),
                ArithOp::Mul => x.mul(y),
                ArithOp::Div => x.div(y),
            }?;
            Ok(Value::vector(out))
        }
        (Value::Vector(v), s) => match s.as_double() {
            Some(s) => Ok(Value::vector(v.map(|x| apply_f64(op, x, s)))),
            None => Ok(ops::arith(op, l, r)?),
        },
        (s, Value::Vector(v)) => match s.as_double() {
            Some(s) => Ok(Value::vector(v.map(|x| apply_f64(op, s, x)))),
            None => Ok(ops::arith(op, l, r)?),
        },
        _ => Ok(ops::arith(op, l, r)?),
    }
}

/// Element-wise comparison to a BOOLEAN column; NULL operands produce
/// NULL lanes, incomparable lanes (NaN, mixed string/number) fall back.
pub fn cmp(op: CmpOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    match (a, b) {
        (Col::Boxed(_), _) | (_, Col::Boxed(_)) => {
            for_lanes(n, sel, |i| {
                let (l, r) = (lane_val(a, i), lane_val(b, i));
                let (l, r) = (l.get(), r.get());
                if l.is_null() || r.is_null() {
                    return Ok(());
                }
                let ord = ops::compare(l, r)
                    .ok_or_else(|| unsupported("incomparable lane values"))?;
                data[i] = cmp_holds(op, ord);
                valid.set_valid(i);
                Ok(())
            })?;
        }
        (Col::Bool { data: ad, valid: av }, Col::Bool { data: bd, valid: bv }) => {
            for_lanes(n, sel, |i| {
                if av.get(i) && bv.get(i) {
                    data[i] = cmp_holds(op, ad[i].cmp(&bd[i]));
                    valid.set_valid(i);
                }
                Ok(())
            })?;
        }
        (Col::F64 { .. } | Col::I64 { .. }, Col::F64 { .. } | Col::I64 { .. }) => {
            for_lanes(n, sel, |i| {
                if let (Some(x), Some(y)) = (num_f64(a, i), num_f64(b, i)) {
                    let ord = x
                        .partial_cmp(&y)
                        .ok_or_else(|| unsupported("NaN comparison"))?;
                    data[i] = cmp_holds(op, ord);
                    valid.set_valid(i);
                } // else: NULL lane
                Ok(())
            })?;
        }
        _ => return Err(unsupported("comparing BOOLEAN with numeric lanes")),
    }
    Ok(Col::Bool { data, valid })
}

/// Three-valued truth of one lane, under `AND`'s classification: FALSE
/// dominates, NULL is unknown, and any other non-NULL value — the
/// interpreter is deliberately lenient here — behaves as "not FALSE".
#[inline]
fn tri_and(col: &Col, i: usize) -> Option<bool> {
    match col {
        Col::Bool { data, valid } => valid.get(i).then(|| data[i]),
        Col::F64 { valid, .. } | Col::I64 { valid, .. } => valid.get(i).then_some(true),
        Col::Boxed(v) => match &v[i] {
            Value::Boolean(b) => Some(*b),
            Value::Null => None,
            _ => Some(true),
        },
    }
}

/// Three-valued truth of one lane under `OR`'s classification: TRUE
/// dominates, NULL is unknown, any other non-NULL value is "not TRUE".
#[inline]
fn tri_or(col: &Col, i: usize) -> Option<bool> {
    match col {
        Col::Bool { data, valid } => valid.get(i).then(|| data[i]),
        Col::F64 { valid, .. } | Col::I64 { valid, .. } => valid.get(i).then_some(false),
        Col::Boxed(v) => match &v[i] {
            Value::Boolean(b) => Some(*b),
            Value::Null => None,
            _ => Some(false),
        },
    }
}

/// Lane-wise SQL `AND` (eager: both sides were already evaluated).
pub fn and(a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    for_lanes(n, sel, |i| {
        let out = match (tri_and(a, i), tri_and(b, i)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (None, _) | (_, None) => None,
            _ => Some(true),
        };
        if let Some(v) = out {
            data[i] = v;
            valid.set_valid(i);
        }
        Ok(())
    })?;
    Ok(Col::Bool { data, valid })
}

/// Lane-wise SQL `OR` (eager: both sides were already evaluated).
pub fn or(a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    for_lanes(n, sel, |i| {
        let out = match (tri_or(a, i), tri_or(b, i)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (None, _) | (_, None) => None,
            _ => Some(false),
        };
        if let Some(v) = out {
            data[i] = v;
            valid.set_valid(i);
        }
        Ok(())
    })?;
    Ok(Col::Bool { data, valid })
}

/// Lane-wise SQL `NOT`. Non-BOOLEAN lanes are a hard interpreter error
/// (`NOT expects BOOLEAN`), so they fall back.
pub fn not(a: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    match a {
        Col::Bool { data: ad, valid: av } => {
            for_lanes(n, sel, |i| {
                if av.get(i) {
                    data[i] = !ad[i];
                    valid.set_valid(i);
                }
                Ok(())
            })?;
        }
        Col::F64 { valid: av, .. } | Col::I64 { valid: av, .. } => {
            for_lanes(n, sel, |i| {
                if av.get(i) {
                    return Err(unsupported("NOT over non-BOOLEAN lane"));
                }
                Ok(())
            })?;
        }
        Col::Boxed(v) => {
            for_lanes(n, sel, |i| {
                match &v[i] {
                    Value::Boolean(b) => {
                        data[i] = !b;
                        valid.set_valid(i);
                    }
                    Value::Null => {}
                    _ => return Err(unsupported("NOT over non-BOOLEAN lane")),
                }
                Ok(())
            })?;
        }
    }
    Ok(Col::Bool { data, valid })
}

/// Lane-wise unary minus, mirroring `ops::negate`.
pub fn negate(a: &Col, sel: Option<&[u32]>, n: usize) -> Result<Col> {
    match a {
        Col::F64 { data: ad, valid: av } => {
            if sel.is_none() && av.all_valid() {
                return Ok(Col::F64 {
                    data: ad.iter().map(|&x| -x).collect(),
                    valid: Bitmap::new_valid(n),
                });
            }
            let mut data = vec![0.0f64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if av.get(i) {
                    data[i] = -ad[i];
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::F64 { data, valid })
        }
        Col::I64 { data: ad, valid: av } => {
            let mut data = vec![0i64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if av.get(i) {
                    data[i] = ad[i]
                        .checked_neg()
                        .ok_or_else(|| unsupported("integer negation overflow"))?;
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::I64 { data, valid })
        }
        Col::Bool { valid: av, .. } => {
            // Valid lanes are a hard error ("cannot negate BOOLEAN");
            // all-NULL lanes legitimately negate to NULL.
            let mut ok = true;
            for_lanes(n, sel, |i| {
                ok &= !av.get(i);
                Ok(())
            })?;
            if !ok {
                return Err(unsupported("negating BOOLEAN lanes"));
            }
            Ok(Col::F64 { data: vec![0.0; n], valid: Bitmap::new_invalid(n) })
        }
        Col::Boxed(v) => {
            let mut out = vec![Value::Null; n];
            for_lanes(n, sel, |i| {
                out[i] = ops::negate(&v[i])?;
                Ok(())
            })?;
            Ok(Col::Boxed(out.into()))
        }
    }
}

/// A lane read that borrows boxed values and materializes typed ones is
/// a `Builtin::evaluate` argument as it stands.
impl Borrow<Value> for LaneVal<'_> {
    #[inline]
    fn borrow(&self) -> &Value {
        self.get()
    }
}

/// A DOUBLE result lane: NULL stays NULL, anything else is not this
/// kernel's to decide.
#[inline]
fn double_lane(v: Value) -> Result<Option<f64>> {
    match v {
        Value::Double(x) => Ok(Some(x)),
        Value::Null => Ok(None),
        _ => Err(unsupported("DOUBLE built-in produced a non-DOUBLE lane")),
    }
}

/// Runs `lane` over every selected lane into a `Col::F64`; `None` is a
/// NULL lane.
fn f64_lanes(
    n: usize,
    sel: Option<&[u32]>,
    mut lane: impl FnMut(usize) -> Result<Option<f64>>,
) -> Result<Col> {
    let mut data = vec![0.0f64; n];
    let mut valid = Bitmap::new_invalid(n);
    for_lanes(n, sel, |i| {
        if let Some(x) = lane(i)? {
            data[i] = x;
            valid.set_valid(i);
        }
        Ok(())
    })?;
    Ok(Col::F64 { data, valid })
}

/// Lane-wise builtin call over borrowed lanes: boxed arguments are read
/// by reference, typed ones materialize as scalars, so no payload `Arc`
/// is cloned or dropped. `Builtin::evaluate` handles its own NULL-in →
/// NULL-out rule, and any lane it rejects makes the chunk `Err`.
///
/// The loop is chosen once per chunk. A DOUBLE-valued built-in writes a
/// `Col::F64`. `inner_product` over two VECTOR lanes calls the `lardb-la`
/// kernel that `evaluate` would, directly, and sends every other lane
/// (NULL, a type the interpreter rejects) through `evaluate` itself.
pub fn call(func: &Builtin, args: &[&Col], sel: Option<&[u32]>, n: usize) -> Result<Col> {
    let mut lanes: Vec<LaneVal<'_>> = Vec::new();
    let mut eval = |i: usize| -> Result<Value> {
        lanes.clear();
        lanes.extend(args.iter().map(|a| lane_val(a, i)));
        Ok(func.evaluate(&lanes)?)
    };
    match (func, args) {
        (Builtin::InnerProduct, [Col::Boxed(a), Col::Boxed(b)]) => {
            f64_lanes(n, sel, |i| match (&a[i], &b[i]) {
                (Value::Vector(x), Value::Vector(y)) => Ok(Some(x.inner_product(y)?)),
                _ => double_lane(eval(i)?),
            })
        }
        _ if func.returns_double() => f64_lanes(n, sel, |i| double_lane(eval(i)?)),
        _ => {
            let mut out = vec![Value::Null; n];
            for_lanes(n, sel, |i| {
                out[i] = eval(i)?;
                Ok(())
            })?;
            Ok(Col::Boxed(out.into()))
        }
    }
}

/// Builds the selection vector of lanes whose predicate lane is valid
/// *and* TRUE (SQL: NULL filters the row out). The BOOLEAN path appends
/// branch-free: write the lane index unconditionally, advance the length
/// by the keep bit.
pub fn selection(pred: &Col, sel: Option<&[u32]>, n: usize) -> Result<Vec<u32>> {
    match pred {
        Col::Bool { data, valid } => {
            let cap = sel.map_or(n, <[u32]>::len);
            let mut out = vec![0u32; cap];
            let mut k = 0usize;
            match sel {
                None => {
                    // Indexing `data` by the loop counter is deliberate: the
                    // write-then-advance idiom stays branch-free only if the
                    // lane index and the keep bit come from the same `i`.
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..n {
                        out[k] = i as u32;
                        k += (valid.get(i) & data[i]) as usize;
                    }
                }
                Some(s) => {
                    for &i in s {
                        out[k] = i;
                        k += (valid.get(i as usize) & data[i as usize]) as usize;
                    }
                }
            }
            out.truncate(k);
            Ok(out)
        }
        Col::F64 { valid, .. } | Col::I64 { valid, .. } => {
            // A valid lane is a non-BOOLEAN predicate value — a hard
            // interpreter error; all-NULL lanes filter everything out.
            for_lanes(n, sel, |i| {
                if valid.get(i) {
                    return Err(unsupported("non-BOOLEAN predicate lane"));
                }
                Ok(())
            })?;
            Ok(Vec::new())
        }
        Col::Boxed(v) => {
            let mut out = Vec::new();
            for_lanes(n, sel, |i| {
                match &v[i] {
                    Value::Boolean(true) => out.push(i as u32),
                    Value::Boolean(false) | Value::Null => {}
                    _ => return Err(unsupported("non-BOOLEAN predicate lane")),
                }
                Ok(())
            })?;
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnBatch;
    use lardb_la::Vector;
    use lardb_storage::Row;

    fn f64_col(vals: &[Option<f64>]) -> Col {
        let mut data = vec![0.0; vals.len()];
        let mut valid = Bitmap::new_invalid(vals.len());
        for (i, v) in vals.iter().enumerate() {
            if let Some(x) = v {
                data[i] = *x;
                valid.set_valid(i);
            }
        }
        Col::F64 { data, valid }
    }

    fn i64_col(vals: &[Option<i64>]) -> Col {
        let mut data = vec![0; vals.len()];
        let mut valid = Bitmap::new_invalid(vals.len());
        for (i, v) in vals.iter().enumerate() {
            if let Some(x) = v {
                data[i] = *x;
                valid.set_valid(i);
            }
        }
        Col::I64 { data, valid }
    }

    #[test]
    fn f64_arith_fast_and_null_paths() {
        let a = f64_col(&[Some(1.0), Some(2.0), Some(3.0)]);
        let b = f64_col(&[Some(10.0), Some(20.0), Some(30.0)]);
        let out = arith(ArithOp::Add, &a, &b, None, 3).unwrap();
        assert_eq!(out.value_at(1), Value::Double(22.0));

        let c = f64_col(&[Some(1.0), None, Some(3.0)]);
        let out = arith(ArithOp::Mul, &a, &c, None, 3).unwrap();
        assert_eq!(out.value_at(0), Value::Double(1.0));
        assert!(out.value_at(1).is_null());
    }

    #[test]
    fn int_div_zero_falls_back_but_float_div_zero_does_not() {
        let a = i64_col(&[Some(10)]);
        let z = i64_col(&[Some(0)]);
        assert!(arith(ArithOp::Div, &a, &z, None, 1).is_err());
        let fa = f64_col(&[Some(10.0)]);
        let fz = f64_col(&[Some(0.0)]);
        let out = arith(ArithOp::Div, &fa, &fz, None, 1).unwrap();
        assert_eq!(out.value_at(0), Value::Double(f64::INFINITY));
    }

    #[test]
    fn mixed_promotes_like_interpreter() {
        let a = i64_col(&[Some(3)]);
        let b = f64_col(&[Some(0.5)]);
        let out = arith(ArithOp::Mul, &a, &b, None, 1).unwrap();
        assert_eq!(out.value_at(0), Value::Double(1.5));
    }

    #[test]
    fn vector_broadcast_matches_ops() {
        let v = Value::vector(Vector::from_slice(&[1.0, 2.0]));
        let col = Col::Boxed(vec![v.clone()].into());
        let s = f64_col(&[Some(2.5)]);
        let out = arith(ArithOp::Mul, &col, &s, None, 1).unwrap();
        let want = ops::arith(ArithOp::Mul, &v, &Value::Double(2.5)).unwrap();
        assert_eq!(out.value_at(0), want);
        // scalar on the left of a Sub: operand order matters.
        let out = arith(ArithOp::Sub, &s, &col, None, 1).unwrap();
        let want = ops::arith(ArithOp::Sub, &Value::Double(2.5), &v).unwrap();
        assert_eq!(out.value_at(0), want);
    }

    #[test]
    fn cmp_null_and_nan() {
        let a = f64_col(&[Some(1.0), None, Some(f64::NAN)]);
        let b = f64_col(&[Some(2.0), Some(1.0), Some(1.0)]);
        let out = cmp(CmpOp::Lt, &a, &b, Some(&[0, 1]), 3).unwrap();
        assert_eq!(out.value_at(0), Value::Boolean(true));
        assert!(out.value_at(1).is_null());
        // NaN lane selected → fallback.
        assert!(cmp(CmpOp::Lt, &a, &b, None, 3).is_err());
    }

    #[test]
    fn three_valued_and_or_lanes() {
        let t = Col::splat(&Value::Boolean(true), 1);
        let f = Col::splat(&Value::Boolean(false), 1);
        let nl = Col::splat(&Value::Null, 1);
        assert_eq!(and(&f, &nl, None, 1).unwrap().value_at(0), Value::Boolean(false));
        assert!(and(&t, &nl, None, 1).unwrap().value_at(0).is_null());
        assert_eq!(or(&t, &nl, None, 1).unwrap().value_at(0), Value::Boolean(true));
        assert!(or(&f, &nl, None, 1).unwrap().value_at(0).is_null());
        // Interpreter leniency: a non-BOOLEAN lane is "not FALSE" in AND.
        let five = Col::splat(&Value::Integer(5), 1);
        assert_eq!(and(&five, &t, None, 1).unwrap().value_at(0), Value::Boolean(true));
        assert_eq!(or(&five, &f, None, 1).unwrap().value_at(0), Value::Boolean(false));
    }

    #[test]
    fn selection_is_sorted_and_respects_nulls() {
        let pred = Col::Bool {
            data: vec![true, false, true, true],
            valid: {
                let mut v = Bitmap::new_valid(4);
                v.set_invalid(2); // NULL lane filters out
                v
            },
        };
        assert_eq!(selection(&pred, None, 4).unwrap(), vec![0, 3]);
        assert_eq!(selection(&pred, Some(&[1, 3]), 4).unwrap(), vec![3]);
        // Non-BOOLEAN predicate lane → fallback.
        let num = Col::splat(&Value::Integer(1), 2);
        assert!(selection(&num, None, 2).is_err());
    }

    #[test]
    fn not_and_negate() {
        let t = Col::splat(&Value::Boolean(true), 2);
        assert_eq!(not(&t, None, 2).unwrap().value_at(1), Value::Boolean(false));
        let five = Col::splat(&Value::Integer(5), 1);
        assert!(not(&five, None, 1).is_err());
        assert_eq!(negate(&five, None, 1).unwrap().value_at(0), Value::Integer(-5));
        let nl = Col::splat(&Value::Null, 1);
        assert!(negate(&nl, None, 1).unwrap().value_at(0).is_null());
    }

    #[test]
    fn call_reads_boxed_lanes_by_reference() {
        let v = Value::vector(Vector::from_slice(&[3.0, 4.0]));
        let col = Col::Boxed(vec![v.clone(), Value::Null].into());
        let out = call(&Builtin::InnerProduct, &[&col, &col], None, 2).unwrap();
        assert_eq!(out.value_at(0), Value::Double(25.0));
        assert!(out.value_at(1).is_null());
        // The lanes were borrowed: the column and `v` are the only owners.
        let Value::Vector(arc) = &v else { unreachable!() };
        assert_eq!(std::sync::Arc::strong_count(arc), 2);
    }

    fn vector(xs: &[f64]) -> Value {
        Value::vector(Vector::from_slice(xs))
    }

    fn matrix(rows: usize, cols: usize, xs: &[f64]) -> Value {
        Value::matrix(lardb_la::Matrix::from_vec(rows, cols, xs.to_vec()).unwrap())
    }

    /// One chunk per DOUBLE built-in: lanes whose results are NaN and
    /// −0.0, NULL lanes in every argument position, lanes that take the
    /// `evaluate` route (a matrix, an INTEGER index), and one lane the
    /// interpreter rejects — a dimension mismatch, an index out of range
    /// or a wrong runtime type.
    fn double_cases() -> Vec<(Builtin, Vec<Vec<Value>>, Vec<Value>)> {
        let nan = f64::NAN;
        let (inf, tiny) = (f64::INFINITY, f64::MIN_POSITIVE / 4.0);
        let v5 = vector(&[1.5, -2.0, 0.25, 8.0, -0.5]);
        // Long enough that the four-lane order rounds unlike a naive sum.
        let v9 = Value::vector(Vector::from_fn(9, |i| 0.1 * (i as f64 + 1.0)));
        let vz = vector(&[-0.0, 0.0, -0.0]);
        let m2 = matrix(2, 2, &[1.0, 2.0, 3.0, -4.5]);
        let mz = matrix(1, 1, &[-0.0]);
        let mn = matrix(2, 2, &[nan, 1.0, 2.0, 3.0]);
        let int = Value::Integer;
        vec![
            (
                Builtin::InnerProduct,
                vec![
                    vec![v5.clone(), v5.clone()],
                    vec![Value::Null, v5.clone()],
                    vec![vector(&[inf, 1.0]), vector(&[0.0, 1.0])],
                    vec![vz.clone(), vz.clone()],
                    vec![v5.clone(), Value::Null],
                    vec![vector(&[tiny, -tiny, 3.0]), vector(&[0.5, 0.5, -1.0])],
                    vec![vector(&[]), vector(&[])],
                    vec![v9.clone(), vector(&[1.0; 9])],
                ],
                vec![v5.clone(), vector(&[1.0, 2.0])],
            ),
            (
                Builtin::Norm2,
                vec![
                    vec![v5.clone()],
                    vec![Value::Null],
                    vec![vector(&[nan, 1.0])],
                    vec![vz.clone()],
                    vec![v9.clone()],
                ],
                vec![m2.clone()],
            ),
            (
                Builtin::SumElements,
                vec![
                    vec![v5.clone()],
                    vec![vector(&[-0.0, -0.0])],
                    vec![Value::Null],
                    vec![vector(&[inf, -inf])],
                    vec![m2.clone()],
                ],
                vec![int(3)],
            ),
            (
                Builtin::MinElement,
                vec![
                    vec![v5.clone()],
                    vec![vector(&[-0.0])],
                    vec![Value::Null],
                    vec![vector(&[])],
                    vec![mn.clone()],
                ],
                vec![Value::Varchar("v".into())],
            ),
            (
                Builtin::MaxElement,
                vec![
                    vec![v5.clone()],
                    vec![vector(&[nan])],
                    vec![Value::Null],
                    vec![vector(&[-0.0, -1.0])],
                    vec![m2.clone()],
                ],
                vec![int(3)],
            ),
            (
                Builtin::Trace,
                vec![vec![m2.clone()], vec![Value::Null], vec![mz.clone()], vec![mn.clone()]],
                vec![matrix(1, 2, &[1.0, 2.0])],
            ),
            (
                Builtin::FrobeniusNorm,
                vec![vec![m2.clone()], vec![mn.clone()], vec![Value::Null], vec![mz.clone()]],
                vec![v5.clone()],
            ),
            (
                Builtin::GetScalar,
                vec![
                    vec![v5.clone(), int(3)],
                    vec![vz.clone(), int(0)],
                    vec![Value::Null, int(1)],
                    vec![vector(&[nan]), int(0)],
                    vec![v5.clone(), Value::Null],
                ],
                vec![v5.clone(), int(9)],
            ),
            (
                Builtin::GetEntry,
                vec![
                    vec![m2.clone(), int(1), int(1)],
                    vec![mz.clone(), int(0), int(0)],
                    vec![mn.clone(), int(0), int(0)],
                    vec![m2.clone(), Value::Null, int(0)],
                    vec![Value::Null, int(0), int(0)],
                ],
                vec![m2.clone(), int(2), int(0)],
            ),
        ]
    }

    /// Evaluates `func` over `rows` pivoted as the executor pivots them.
    fn call_rows(func: Builtin, rows: &[Vec<Value>], sel: Option<&[u32]>) -> Result<Col> {
        let rows: Vec<Row> = rows.iter().cloned().map(Row::new).collect();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let args: Vec<&Col> = batch.cols().iter().map(|c| &**c).collect();
        call(&func, &args, sel, rows.len())
    }

    /// The typed lane loop ≡ `Builtin::evaluate`: a `Col::F64` (never a
    /// silent `Boxed`), with the interpreter's bits on every selected
    /// lane and its NULLs as invalid bits; a lane the interpreter rejects
    /// makes the chunk `Err`, so it replays and the interpreter reports.
    #[test]
    fn double_builtins_write_f64_lanes_bit_identical_to_evaluate() {
        let (mut nans, mut neg_zeros) = (0, 0);
        for (func, rows, bad) in double_cases() {
            let n = rows.len();
            let odd: Vec<u32> = (1..n as u32).step_by(2).collect();
            for sel in [None, Some(odd.as_slice())] {
                let out = call_rows(func, &rows, sel).unwrap();
                let Col::F64 { data, valid } = &out else {
                    panic!("{func:?}: expected Col::F64, got {out:?}");
                };
                let lanes: Vec<usize> = match sel {
                    Some(s) => s.iter().map(|&i| i as usize).collect(),
                    None => (0..n).collect(),
                };
                for i in lanes {
                    match func.evaluate(&rows[i]).unwrap() {
                        Value::Double(want) => {
                            assert!(valid.get(i), "{func:?} lane {i} lost its value");
                            assert_eq!(data[i].to_bits(), want.to_bits(), "{func:?} lane {i}");
                            nans += want.is_nan() as usize;
                            neg_zeros += (want == 0.0 && want.is_sign_negative()) as usize;
                        }
                        Value::Null => assert!(!valid.get(i), "{func:?} lane {i} not NULL"),
                        other => panic!("{func:?} lane {i} evaluated to {other:?}"),
                    }
                }
            }

            // The rejected lane: the chunk declines, and the interpreter
            // has an error of its own to report for that row.
            let mut with_bad = rows.clone();
            with_bad.insert(1, bad.clone());
            assert!(func.evaluate(&bad).is_err(), "{func:?}: the bad lane must be an error");
            assert!(call_rows(func, &with_bad, None).is_err(), "{func:?} kept a bad lane");
            // A selection that skips it evaluates the rest as before.
            let skip: Vec<u32> = (0..with_bad.len() as u32).filter(|&i| i != 1).collect();
            let out = call_rows(func, &with_bad, Some(&skip)).unwrap();
            assert!(matches!(out, Col::F64 { .. }), "{func:?}: {out:?}");
        }
        assert!(nans >= 4 && neg_zeros >= 4, "NaN {nans}, -0.0 {neg_zeros} result lanes");
    }

    #[test]
    fn non_double_builtins_stay_boxed() {
        let v = vector(&[1.0, 2.0]);
        let rows = vec![vec![v.clone(), v.clone()], vec![Value::Null, v.clone()]];
        let out = call_rows(Builtin::OuterProduct, &rows, None).unwrap();
        let Col::Boxed(lanes) = &out else { panic!("{out:?}") };
        assert_eq!(lanes[0], Builtin::OuterProduct.evaluate(&rows[0]).unwrap());
        assert!(lanes[1].is_null());
    }
}
