//! Column-at-a-time kernels for the vectorized engine.
//!
//! Every kernel answers each lane it evaluates as the row interpreter
//! ([`crate::eval`]) answers that row: with its value, bit for bit, or
//! with its error. A kernel that fails stops at the first selected lane
//! it fails on and reports that lane beside the error ([`KernelError`]),
//! from which the chunk pipeline finds the interpreter's first failing
//! row. The error is the interpreter's own: `ops::arith` and
//! `ops::negate` run on the failing lane's values, `Builtin::evaluate` on
//! a call's, and two values no order compares raise eval's `cannot
//! compare` text.
//!
//! Kernels run typed programs ([`crate::compile`]), so a BOOLEAN operand
//! is always a `Col::Bool`: `AND`, `OR`, `NOT` and the selection pass take
//! nothing else, and arithmetic and unary minus never see one. A column
//! of another variant there, like a call's result lane of another type
//! than declared, is a planner bug: `PlanError::Internal`.
//!
//! `AND` and `OR` are lazy, as the interpreter's short-circuit is: the
//! right operand runs only on the lanes the left one leaves undecided
//! ([`undecided`]), so no lane evaluates a subexpression its row would
//! not. When the left operand decides no lane, the right one runs under
//! the incoming selection unchanged, and its branch-free paths stay.
//!
//! Kernels take an optional *selection vector* (`sel`): the sorted lane
//! indices still alive after upstream filters. With no selection they run
//! branch-free tight loops over full slices; `Vector ⊕ scalar` and
//! `Vector ⊕ Vector` lanes dispatch to the `lardb-la` slice kernels
//! directly instead of going through `ops::arith`'s dynamic overload
//! match per row. Built-in calls read their lanes by reference and write
//! the column their declared type names (a DOUBLE built-in a `Col::F64`,
//! `nnz` a `Col::I64`); `inner_product` calls its `lardb-la` kernel
//! directly on VECTOR lanes.

use std::borrow::Borrow;

use lardb_planner::{Builtin, CmpOp, PlanError};
use lardb_storage::ops::{self, ArithOp};
use lardb_storage::{DataType, Value};

use crate::batch::{Bitmap, Col, ColWriter};
use crate::eval::{cmp_holds, incomparable};
use crate::{ExecError, Result};

/// A kernel's failure: the interpreter's error for `lane`, the first
/// selected lane the kernel fails on, or an internal error (`lane` is
/// `None`), which no lane of a typed program raises.
#[derive(Debug)]
pub struct KernelError {
    /// The failing lane; `None` for an internal error.
    pub lane: Option<usize>,
    /// What the interpreter raises for the lane's row.
    pub error: ExecError,
}

impl KernelError {
    /// An invariant of typed programs does not hold: a planner bug.
    pub(crate) fn internal(what: impl std::fmt::Display) -> Self {
        KernelError { lane: None, error: internal(what) }
    }
}

/// What a kernel returns.
pub type KernelResult<T> = std::result::Result<T, KernelError>;

/// A planner bug surfaced where the executor meets it.
pub(crate) fn internal(what: impl std::fmt::Display) -> ExecError {
    ExecError::Plan(PlanError::Internal(what.to_string()))
}

/// Runs `f` over every selected lane, ascending; the first lane it fails
/// on is the kernel's error.
#[inline]
fn for_lanes(
    n: usize,
    sel: Option<&[u32]>,
    mut f: impl FnMut(usize) -> Result<()>,
) -> KernelResult<()> {
    let mut lane = |i: usize| f(i).map_err(|error| KernelError { lane: Some(i), error });
    match sel {
        Some(s) => {
            for &i in s {
                lane(i as usize)?;
            }
        }
        None => {
            for i in 0..n {
                lane(i)?;
            }
        }
    }
    Ok(())
}

/// `x op y` over INTEGER lanes, checked. Where the checked op fails
/// (overflow, division by zero) `ops::arith` raises the interpreter's
/// error for the lane's values.
#[inline]
fn int_op(op: ArithOp, x: i64, y: i64) -> Result<i64> {
    let out = match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Sub => x.checked_sub(y),
        ArithOp::Mul => x.checked_mul(y),
        ArithOp::Div => x.checked_div(y),
    };
    out.ok_or_else(|| match ops::arith(op, &Value::Integer(x), &Value::Integer(y)) {
        Err(e) => e.into(),
        Ok(v) => internal(format!("checked INTEGER {} failed where ops gives {v:?}", op.symbol())),
    })
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
pub fn arith(op: ArithOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
    match (a, b) {
        (Col::Boxed(_), _) | (_, Col::Boxed(_)) => boxed_arith(op, a, b, sel, n),
        (Col::F64 { data: ad, valid: av }, Col::F64 { data: bd, valid: bv }) => {
            if sel.is_none() && av.all_valid() && bv.all_valid() {
                // Branch-free: one fused pass over both slices.
                let data = ad.iter().zip(bd).map(|(&x, &y)| op.apply_f64(x, y)).collect();
                return Ok(Col::F64 { data, valid: Bitmap::new_valid(n) });
            }
            let mut data = vec![0.0f64; n];
            let mut valid = Bitmap::new_invalid(n);
            for_lanes(n, sel, |i| {
                if av.get(i) && bv.get(i) {
                    data[i] = op.apply_f64(ad[i], bd[i]);
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
                    data[i] = int_op(op, ad[i], bd[i])?;
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
                    data[i] = op.apply_f64(x, y);
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::F64 { data, valid })
        }
        _ => Err(KernelError::internal("arithmetic over BOOLEAN lanes")),
    }
}

/// Arithmetic with at least one boxed side: per-lane by reference, with
/// the LA broadcast cases dispatched straight to the `lardb-la` slice
/// kernels (the same ones `ops::arith` would call).
fn boxed_arith(op: ArithOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
    let mut out = vec![Value::Null; n];
    for_lanes(n, sel, |i| {
        let (l, r) = (lane_val(a, i), lane_val(b, i));
        out[i] = arith_lane(op, l.get(), r.get())?;
        Ok(())
    })?;
    Ok(Col::Boxed(out.into()))
}

/// One boxed arithmetic lane. The fast paths are *specializations* of
/// `ops::arith` arms (same underlying `Vector` methods, same
/// `ArithOp::apply_f64`),
/// so their results are bit-identical; everything else — including the
/// error cases — goes through `ops::arith` itself.
fn arith_lane(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Integer(x), Value::Integer(y)) => Ok(Value::Integer(int_op(op, *x, *y)?)),
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
            Some(s) => Ok(Value::vector(v.map(|x| op.apply_f64(x, s)))),
            None => Ok(ops::arith(op, l, r)?),
        },
        (s, Value::Vector(v)) => match s.as_double() {
            Some(s) => Ok(Value::vector(v.map(|x| op.apply_f64(s, x)))),
            None => Ok(ops::arith(op, l, r)?),
        },
        _ => Ok(ops::arith(op, l, r)?),
    }
}

/// Element-wise comparison to a BOOLEAN column; NULL operands produce
/// NULL lanes, and two values no order compares (a NaN, a string beside a
/// number, a BOOLEAN beside a number) raise eval's error.
pub fn cmp(op: CmpOp, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    match (a, b) {
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
                        .ok_or_else(|| incomparable(&a.value_at(i), &b.value_at(i)))?;
                    data[i] = cmp_holds(op, ord);
                    valid.set_valid(i);
                } // else: NULL lane
                Ok(())
            })?;
        }
        // Boxed lanes, and BOOLEAN beside a number: lane by lane, as eval
        // compares them.
        _ => {
            for_lanes(n, sel, |i| {
                let (l, r) = (lane_val(a, i), lane_val(b, i));
                let (l, r) = (l.get(), r.get());
                if l.is_null() || r.is_null() {
                    return Ok(());
                }
                let ord = ops::compare(l, r).ok_or_else(|| incomparable(l, r))?;
                data[i] = cmp_holds(op, ord);
                valid.set_valid(i);
                Ok(())
            })?;
        }
    }
    Ok(Col::Bool { data, valid })
}

/// The lanes of `sel` that `a`, the left operand of `OR` (`or`) or `AND`,
/// leaves undecided — those where it is not TRUE for `OR`, not FALSE for
/// `AND` — which are the rows the interpreter evaluates the right operand
/// on. `None` when `a` decides no lane: the right operand then runs under
/// `sel` unchanged.
pub fn undecided(
    a: &Col,
    or: bool,
    sel: Option<&[u32]>,
    n: usize,
) -> KernelResult<Option<Vec<u32>>> {
    let Col::Bool { data, valid } = a else {
        return Err(KernelError::internal("AND/OR over non-BOOLEAN lanes"));
    };
    let open = |i: &u32| !(valid.get(*i as usize) && data[*i as usize] == or);
    let lanes: Vec<u32> = match sel {
        Some(s) => s.iter().copied().filter(open).collect(),
        None => (0..n as u32).filter(open).collect(),
    };
    Ok((lanes.len() < sel.map_or(n, <[u32]>::len)).then_some(lanes))
}

/// Lane-wise `OR` (`or`) or `AND` under three-valued logic: the dominant
/// value (TRUE for `OR`, FALSE for `AND`) wins over NULL, NULL over the
/// other one. Where `a` is dominant `b` may hold anything: those lanes
/// are the ones [`undecided`] kept it from.
pub fn connective(or: bool, a: &Col, b: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
    let (Col::Bool { data: ad, valid: av }, Col::Bool { data: bd, valid: bv }) = (a, b) else {
        return Err(KernelError::internal("AND/OR over non-BOOLEAN lanes"));
    };
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    for_lanes(n, sel, |i| {
        let (l, r) = (av.get(i).then(|| ad[i]), bv.get(i).then(|| bd[i]));
        let out = if l == Some(or) || r == Some(or) { Some(or) } else { l.and(r).map(|_| !or) };
        if let Some(v) = out {
            data[i] = v;
            valid.set_valid(i);
        }
        Ok(())
    })?;
    Ok(Col::Bool { data, valid })
}

/// Lane-wise SQL `NOT`.
pub fn not(a: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
    let Col::Bool { data: ad, valid: av } = a else {
        return Err(KernelError::internal("NOT over non-BOOLEAN lanes"));
    };
    let mut data = vec![false; n];
    let mut valid = Bitmap::new_invalid(n);
    for_lanes(n, sel, |i| {
        if av.get(i) {
            data[i] = !ad[i];
            valid.set_valid(i);
        }
        Ok(())
    })?;
    Ok(Col::Bool { data, valid })
}

/// Lane-wise unary minus, mirroring `ops::negate`.
pub fn negate(a: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Col> {
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
                    // `-x` is `0 - x` on INTEGER lanes, `-MIN`'s overflow
                    // and its `integer overflow in -` included.
                    data[i] = int_op(ArithOp::Sub, 0, ad[i])?;
                    valid.set_valid(i);
                }
                Ok(())
            })?;
            Ok(Col::I64 { data, valid })
        }
        Col::Boxed(v) => {
            let mut out = vec![Value::Null; n];
            for_lanes(n, sel, |i| {
                out[i] = ops::negate(&v[i])?;
                Ok(())
            })?;
            Ok(Col::Boxed(out.into()))
        }
        Col::Bool { .. } => Err(KernelError::internal("negating BOOLEAN lanes")),
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

/// Lane-wise builtin call over borrowed lanes: boxed arguments are read
/// by reference, typed ones materialize as scalars, so no payload `Arc`
/// is cloned or dropped. `Builtin::evaluate` handles its own NULL-in →
/// NULL-out rule, and the first lane it rejects is the kernel's error.
///
/// The result is the column that `ty`, the call's declared type, names;
/// a result lane of another type is an internal error. `inner_product`
/// over two VECTOR lanes calls the `lardb-la` kernel that `evaluate`
/// would, directly, and sends every other lane (NULL, a type the
/// interpreter rejects) through `evaluate` itself.
pub fn call(
    func: &Builtin,
    args: &[&Col],
    ty: &DataType,
    sel: Option<&[u32]>,
    n: usize,
) -> KernelResult<Col> {
    let mut lanes: Vec<LaneVal<'_>> = Vec::new();
    let mut eval = |i: usize| -> Result<Value> {
        lanes.clear();
        lanes.extend(args.iter().map(|a| lane_val(a, i)));
        Ok(func.evaluate(&lanes)?)
    };
    let mut out = ColWriter::new(ty, n);
    let mut put = |i: usize, v: Value| {
        if out.set(i, &v) {
            Ok(())
        } else {
            Err(internal(format!("{}: a result lane of another type than {ty}", func.name())))
        }
    };
    match (func, args) {
        (Builtin::InnerProduct, [Col::Boxed(a), Col::Boxed(b)]) => {
            for_lanes(n, sel, |i| match (&a[i], &b[i]) {
                (Value::Vector(x), Value::Vector(y)) => {
                    let dot = x.inner_product(y).map_err(PlanError::from)?;
                    put(i, Value::Double(dot))
                }
                _ => put(i, eval(i)?),
            })?
        }
        _ => for_lanes(n, sel, |i| put(i, eval(i)?))?,
    }
    Ok(out.finish())
}

/// Builds the selection vector of lanes whose predicate lane is valid
/// *and* TRUE (SQL: NULL filters the row out) from a BOOLEAN column,
/// appending branch-free: write the lane index unconditionally, advance
/// the length by the keep bit.
pub fn selection(pred: &Col, sel: Option<&[u32]>, n: usize) -> KernelResult<Vec<u32>> {
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
        _ => Err(KernelError::internal("non-BOOLEAN predicate lanes")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnBatch;
    use lardb_la::Vector;
    use lardb_planner::Expr;
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

    /// The interpreter's error for a lane's values, as `ops` raises it.
    fn ops_error(r: std::result::Result<Value, lardb_storage::StorageError>) -> ExecError {
        r.unwrap_err().into()
    }

    #[test]
    fn int_div_zero_raises_but_float_div_zero_does_not() {
        let a = i64_col(&[Some(10), Some(4), Some(i64::MAX)]);
        let z = i64_col(&[Some(1), Some(0), Some(1)]);
        // The first failing lane, with the error `ops` gives for it.
        let err = arith(ArithOp::Div, &a, &z, None, 3).unwrap_err();
        let want = ops_error(ops::arith(ArithOp::Div, &Value::Integer(4), &Value::Integer(0)));
        assert_eq!((err.lane, err.error), (Some(1), want));
        let err = arith(ArithOp::Add, &a, &z, Some(&[0, 2]), 3).unwrap_err();
        let (max, one) = (Value::Integer(i64::MAX), Value::Integer(1));
        let want = ops_error(ops::arith(ArithOp::Add, &max, &one));
        assert_eq!((err.lane, err.error.to_string()), (Some(2), want.to_string()));
        assert!(want.to_string().contains("integer overflow in +"), "{want}");
        // Boxed INTEGER lanes raise the same.
        let boxed = Col::Boxed(vec![Value::Integer(4)].into());
        let err = arith(ArithOp::Div, &boxed, &i64_col(&[Some(0)]), None, 1).unwrap_err();
        assert!(err.error.to_string().contains("integer division by zero"), "{:?}", err.error);
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
        // A NaN lane selected raises eval's error for its row.
        let err = cmp(CmpOp::Lt, &a, &b, None, 3).unwrap_err();
        let row = Row::new(vec![Value::Double(f64::NAN), Value::Double(1.0)]);
        let want = crate::eval::eval(&Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(1)), &row);
        assert_eq!((err.lane, Err(err.error)), (Some(2), want));
        // BOOLEAN beside a number: NULL where either is, else eval's error.
        let t = Col::splat(&Value::Boolean(true), 2);
        let null = Col::splat(&Value::Null, 2);
        assert!(cmp(CmpOp::Eq, &t, &null, None, 2).unwrap().value_at(1).is_null());
        let err = cmp(CmpOp::Eq, &t, &i64_col(&[None, Some(1)]), None, 2).unwrap_err();
        assert_eq!(err.lane, Some(1));
        assert_eq!(err.error.to_string(), "runtime error: cannot compare BOOLEAN with INTEGER");
    }

    #[test]
    fn three_valued_and_or_lanes() {
        let (and, or) = (false, true);
        let t = Col::splat(&Value::Boolean(true), 1);
        let f = Col::splat(&Value::Boolean(false), 1);
        // A NULL BOOLEAN lane, as a comparison with a NULL operand gives.
        let nl = Col::Bool { data: vec![false], valid: Bitmap::new_invalid(1) };
        let eval = |dominant, a: &Col, b: &Col| connective(dominant, a, b, None, 1).unwrap();
        assert_eq!(eval(and, &f, &nl).value_at(0), Value::Boolean(false));
        assert!(eval(and, &t, &nl).value_at(0).is_null());
        assert_eq!(eval(or, &t, &nl).value_at(0), Value::Boolean(true));
        assert!(eval(or, &f, &nl).value_at(0).is_null());
        assert!(eval(or, &nl, &f).value_at(0).is_null());
        // A non-BOOLEAN operand does not type: an internal error.
        let five = Col::splat(&Value::Integer(5), 1);
        assert!(connective(and, &five, &t, None, 1).is_err_and(|e| e.lane.is_none()));
        assert!(undecided(&five, or, None, 1).is_err_and(|e| e.lane.is_none()));
    }

    /// The right operand of `AND` runs where the left is not FALSE, of
    /// `OR` where it is not TRUE (NULL lanes included), within the
    /// incoming selection; a left operand deciding no lane narrows
    /// nothing.
    #[test]
    fn undecided_lanes_are_the_interpreters_short_circuit() {
        let mut valid = Bitmap::new_valid(5);
        valid.set_invalid(3);
        let left = Col::Bool { data: vec![true, false, true, false, false], valid };
        assert_eq!(undecided(&left, false, None, 5).unwrap(), Some(vec![0, 2, 3]));
        assert_eq!(undecided(&left, true, None, 5).unwrap(), Some(vec![1, 3, 4]));
        assert_eq!(undecided(&left, false, Some(&[1, 2, 4]), 5).unwrap(), Some(vec![2]));
        assert_eq!(undecided(&left, true, Some(&[3, 4]), 5).unwrap(), None);
        let t = Col::splat(&Value::Boolean(true), 3);
        assert_eq!(undecided(&t, false, None, 3).unwrap(), None);
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
        // A non-BOOLEAN predicate does not type: an internal error.
        let num = Col::splat(&Value::Integer(1), 2);
        assert!(selection(&num, None, 2).is_err_and(|e| e.lane.is_none()));
    }

    #[test]
    fn not_and_negate() {
        let t = Col::splat(&Value::Boolean(true), 2);
        assert_eq!(not(&t, None, 2).unwrap().value_at(1), Value::Boolean(false));
        let five = Col::splat(&Value::Integer(5), 1);
        assert!(not(&five, None, 1).is_err_and(|e| e.lane.is_none()));
        assert!(negate(&t, None, 2).is_err_and(|e| e.lane.is_none()));
        assert_eq!(negate(&five, None, 1).unwrap().value_at(0), Value::Integer(-5));
        let nl = Col::splat(&Value::Null, 1);
        assert!(negate(&nl, None, 1).unwrap().value_at(0).is_null());
        // `-MIN` overflows on its lane with the error `ops` gives.
        let min = i64_col(&[Some(1), Some(i64::MIN)]);
        let err = negate(&min, None, 2).unwrap_err();
        let want = ops_error(ops::negate(&Value::Integer(i64::MIN)));
        assert_eq!((err.lane, err.error), (Some(1), want));
    }

    #[test]
    fn call_reads_boxed_lanes_by_reference() {
        let v = Value::vector(Vector::from_slice(&[3.0, 4.0]));
        let col = Col::Boxed(vec![v.clone(), Value::Null].into());
        let out = call(&Builtin::InnerProduct, &[&col, &col], &DataType::Double, None, 2).unwrap();
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

    /// One well-typed chunk per scalar built-in and argument type: lanes
    /// whose results are NaN and −0.0, NULL lanes in every argument
    /// position, lanes that take the `evaluate` route (a matrix, an
    /// INTEGER index), dense and sparse tiles, and one lane the
    /// interpreter rejects — a dimension mismatch, an index out of range,
    /// a non-square or sparse matrix, or a lane of another type.
    fn scalar_cases() -> Vec<(Builtin, Vec<Vec<Value>>, Vec<Value>)> {
        let nan = f64::NAN;
        let (inf, tiny) = (f64::INFINITY, f64::MIN_POSITIVE / 4.0);
        let v5 = vector(&[1.5, -2.0, 0.25, 8.0, -0.5]);
        // Long enough that the four-lane order rounds unlike a naive sum.
        let v9 = Value::vector(Vector::from_fn(9, |i| 0.1 * (i as f64 + 1.0)));
        let vz = vector(&[-0.0, 0.0, -0.0]);
        let m2 = matrix(2, 2, &[1.0, 2.0, 3.0, -4.5]);
        let mz = matrix(1, 1, &[-0.0]);
        let mn = matrix(2, 2, &[nan, 1.0, 2.0, 3.0]);
        let tile = [0.0, -0.0, 2.5, 0.0, nan, 0.0, 1.0, 0.0, 0.0];
        let tile = lardb_la::Matrix::from_vec(3, 3, tile.to_vec()).unwrap();
        let sparse = Value::sparse_matrix(lardb_la::SparseMatrix::from_dense(&tile).unwrap());
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
                ],
                vec![int(3)],
            ),
            (
                Builtin::SumElements,
                vec![vec![m2.clone()], vec![Value::Null], vec![sparse.clone()]],
                vec![Value::Varchar("m".into())],
            ),
            (
                Builtin::MinElement,
                vec![vec![v5.clone()], vec![vector(&[-0.0])], vec![Value::Null], vec![vector(&[])]],
                vec![Value::Varchar("v".into())],
            ),
            (
                Builtin::MinElement,
                vec![vec![mn.clone()], vec![Value::Null], vec![mz.clone()]],
                vec![sparse.clone()],
            ),
            (
                Builtin::MaxElement,
                vec![
                    vec![v5.clone()],
                    vec![vector(&[nan])],
                    vec![Value::Null],
                    vec![vector(&[-0.0, -1.0])],
                ],
                vec![int(3)],
            ),
            (
                Builtin::MaxElement,
                vec![vec![m2.clone()], vec![Value::Null], vec![mn.clone()]],
                vec![sparse.clone()],
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
            (
                Builtin::Nnz,
                vec![vec![mn.clone()], vec![sparse.clone()], vec![Value::Null], vec![mz.clone()]],
                vec![v5.clone()],
            ),
        ]
    }

    /// Evaluates `func`, declared `ty`, over `rows` pivoted with the types
    /// of their first non-NULL lanes; `None` when the pivot refuses them.
    fn call_rows(
        func: Builtin,
        ty: DataType,
        rows: &[Vec<Value>],
        sel: Option<&[u32]>,
    ) -> Option<KernelResult<Col>> {
        let rows: Vec<Row> = rows.iter().cloned().map(Row::new).collect();
        let batch = ColumnBatch::from_rows(&rows)?;
        let args: Vec<&Col> = batch.cols().iter().map(|c| &**c).collect();
        Some(call(&func, &args, &ty, sel, rows.len()))
    }

    /// The typed lane loop ≡ `Builtin::evaluate`: the column the call's
    /// type names (`Col::F64` for the DOUBLE built-ins, `Col::I64` for
    /// `nnz`, never a silent `Boxed`), with the interpreter's bits on every
    /// selected lane and its NULLs as invalid bits. A lane the interpreter
    /// rejects raises its error at that lane in the kernel, unless the
    /// lane is of another type than its column's, which the pivot
    /// refuses.
    #[test]
    fn scalar_builtins_write_the_column_their_type_names_bit_identical_to_evaluate() {
        let (mut nans, mut neg_zeros, mut refused, mut raised) = (0, 0, 0, 0);
        for (func, rows, bad) in scalar_cases() {
            let ty = if func == Builtin::Nnz { DataType::Integer } else { DataType::Double };
            let typed = |out: &Col| match (out, ty) {
                (Col::F64 { .. }, DataType::Double) | (Col::I64 { .. }, DataType::Integer) => {}
                _ => panic!("{func:?}: expected the {ty} column, got {out:?}"),
            };
            let n = rows.len();
            let odd: Vec<u32> = (1..n as u32).step_by(2).collect();
            for sel in [None, Some(odd.as_slice())] {
                let out = call_rows(func, ty, &rows, sel).unwrap().unwrap();
                typed(&out);
                let lanes: Vec<usize> = match sel {
                    Some(s) => s.iter().map(|&i| i as usize).collect(),
                    None => (0..n).collect(),
                };
                for i in lanes {
                    match (&out, func.evaluate(&rows[i]).unwrap()) {
                        (Col::F64 { data, valid }, Value::Double(want)) => {
                            assert!(valid.get(i), "{func:?} lane {i} lost its value");
                            assert_eq!(data[i].to_bits(), want.to_bits(), "{func:?} lane {i}");
                            nans += want.is_nan() as usize;
                            neg_zeros += (want == 0.0 && want.is_sign_negative()) as usize;
                        }
                        (Col::I64 { data, valid }, Value::Integer(want)) => {
                            assert!(valid.get(i), "{func:?} lane {i} lost its value");
                            assert_eq!(data[i], want, "{func:?} lane {i}");
                        }
                        (_, Value::Null) => assert!(!out.valid(i), "{func:?} lane {i} not NULL"),
                        (_, other) => panic!("{func:?} lane {i} evaluated to {other:?}"),
                    }
                }
            }

            // The rejected lane raises the interpreter's error for it.
            let mut with_bad = rows.clone();
            with_bad.insert(1, bad.clone());
            let want = func.evaluate(&bad).expect_err("the bad lane must be an error");
            let Some(got) = call_rows(func, ty, &with_bad, None) else {
                refused += 1;
                continue;
            };
            let got = got.expect_err("a bad lane kept");
            assert_eq!((got.lane, got.error), (Some(1), want.into()), "{func:?}");
            raised += 1;
            // A selection that skips it evaluates the rest as before.
            let skip: Vec<u32> = (0..with_bad.len() as u32).filter(|&i| i != 1).collect();
            typed(&call_rows(func, ty, &with_bad, Some(&skip)).unwrap().unwrap());
        }
        assert!(nans >= 4 && neg_zeros >= 4, "NaN {nans}, -0.0 {neg_zeros} result lanes");
        assert!(refused >= 4 && raised >= 4, "{refused} refused, {raised} raised");
    }

    #[test]
    fn non_double_builtins_stay_boxed() {
        let v = vector(&[1.0, 2.0]);
        let rows = vec![vec![v.clone(), v.clone()], vec![Value::Null, v.clone()]];
        let ty = DataType::Matrix(Some(2), Some(2));
        let out = call_rows(Builtin::OuterProduct, ty, &rows, None).unwrap().unwrap();
        let Col::Boxed(lanes) = &out else { panic!("{out:?}") };
        assert_eq!(lanes[0], Builtin::OuterProduct.evaluate(&rows[0]).unwrap());
        assert!(lanes[1].is_null());
    }
}
