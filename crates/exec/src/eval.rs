//! Row-at-a-time expression evaluation.
//!
//! This is the *interpreted* engine (`ExprEngine::Interpret`) and the
//! semantic reference for the vectorized engine in [`crate::compile`] /
//! [`crate::kernels`]: whatever this module computes, per row, is by
//! definition the right answer. Two allocation patterns matter on the
//! hot path and are deliberately engineered away:
//!
//! * `Expr::Column` / `Expr::Literal` do **not** clone: evaluation is
//!   internally borrow-based (`Ev`) and only materializes an owned
//!   [`Value`] at the root (or when an operator genuinely produces a new
//!   value).
//! * `Expr::Call` argument lists reuse a caller-provided scratch buffer
//!   ([`eval_with`]) instead of allocating a `Vec` per row. Nested calls
//!   share the same buffer stack-style (push args, evaluate, truncate).

use lardb_planner::{CmpOp, Expr};
use lardb_storage::ops;
use lardb_storage::{Row, Value};

use crate::{ExecError, Result};

/// A possibly-borrowed evaluation result: column references and literals
/// borrow from the row / expression tree, computed values are owned.
enum Ev<'a> {
    /// Borrowed from the input row or the expression's literal pool.
    Ref(&'a Value),
    /// Produced by an operator.
    Owned(Value),
}

impl<'a> Ev<'a> {
    #[inline]
    fn get(&self) -> &Value {
        match self {
            Ev::Ref(v) => v,
            Ev::Owned(v) => v,
        }
    }

    #[inline]
    fn into_owned(self) -> Value {
        match self {
            Ev::Ref(v) => v.clone(),
            Ev::Owned(v) => v,
        }
    }
}

/// Borrow-based core: clones only where a value is genuinely produced.
/// `scratch` is a reusable argument buffer for `Expr::Call`; it is always
/// left at the length it had on entry.
fn eval_ev<'a>(expr: &'a Expr, row: &'a Row, scratch: &mut Vec<Value>) -> Result<Ev<'a>> {
    match expr {
        Expr::Column(i) => row.values().get(*i).map(Ev::Ref).ok_or_else(|| {
            ExecError::Runtime(format!(
                "column #{i} out of range for row of arity {}",
                row.arity()
            ))
        }),
        Expr::Literal(v) => Ok(Ev::Ref(v)),
        Expr::Arith { op, lhs, rhs } => {
            let l = eval_ev(lhs, row, scratch)?;
            let r = eval_ev(rhs, row, scratch)?;
            Ok(Ev::Owned(ops::arith(*op, l.get(), r.get())?))
        }
        Expr::Cmp { op, lhs, rhs } => {
            let l = eval_ev(lhs, row, scratch)?;
            let r = eval_ev(rhs, row, scratch)?;
            let (l, r) = (l.get(), r.get());
            if l.is_null() || r.is_null() {
                return Ok(Ev::Owned(Value::Null));
            }
            let ord = ops::compare(l, r).ok_or_else(|| {
                ExecError::Runtime(format!(
                    "cannot compare {} with {}",
                    l.data_type(),
                    r.data_type()
                ))
            })?;
            Ok(Ev::Owned(Value::Boolean(cmp_holds(*op, ord))))
        }
        Expr::And(a, b) => {
            // SQL three-valued logic: FALSE dominates NULL.
            let l = eval_ev(a, row, scratch)?;
            if l.get() == &Value::Boolean(false) {
                return Ok(Ev::Owned(Value::Boolean(false)));
            }
            let r = eval_ev(b, row, scratch)?;
            if r.get() == &Value::Boolean(false) {
                return Ok(Ev::Owned(Value::Boolean(false)));
            }
            if l.get().is_null() || r.get().is_null() {
                return Ok(Ev::Owned(Value::Null));
            }
            Ok(Ev::Owned(Value::Boolean(true)))
        }
        Expr::Or(a, b) => {
            let l = eval_ev(a, row, scratch)?;
            if l.get() == &Value::Boolean(true) {
                return Ok(Ev::Owned(Value::Boolean(true)));
            }
            let r = eval_ev(b, row, scratch)?;
            if r.get() == &Value::Boolean(true) {
                return Ok(Ev::Owned(Value::Boolean(true)));
            }
            if l.get().is_null() || r.get().is_null() {
                return Ok(Ev::Owned(Value::Null));
            }
            Ok(Ev::Owned(Value::Boolean(false)))
        }
        Expr::Not(e) => match eval_ev(e, row, scratch)?.get() {
            Value::Null => Ok(Ev::Owned(Value::Null)),
            Value::Boolean(b) => Ok(Ev::Owned(Value::Boolean(!b))),
            other => Err(ExecError::Runtime(format!(
                "NOT expects BOOLEAN, got {}",
                other.data_type()
            ))),
        },
        Expr::Negate(e) => {
            let v = eval_ev(e, row, scratch)?;
            Ok(Ev::Owned(ops::negate(v.get())?))
        }
        Expr::Call { func, args } => {
            // Stack discipline on the shared scratch buffer: push this
            // call's arguments, evaluate over the pushed window, truncate
            // back. Nested calls nest windows naturally.
            let base = scratch.len();
            for a in args {
                let v = eval_ev(a, row, scratch)?.into_owned();
                scratch.push(v);
            }
            let out = func.evaluate(&scratch[base..]);
            scratch.truncate(base);
            Ok(Ev::Owned(out?))
        }
    }
}

/// Whether a comparison outcome satisfies the operator.
#[inline]
pub(crate) fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::NotEq => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::LtEq => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::GtEq => ord != std::cmp::Ordering::Less,
    }
}

/// Evaluates an expression against one input row.
pub fn eval(expr: &Expr, row: &Row) -> Result<Value> {
    let mut scratch = Vec::new();
    eval_with(expr, row, &mut scratch)
}

/// [`eval`] with a reusable `Expr::Call` argument buffer: hot loops pass
/// the same buffer for every row so argument lists stop allocating.
pub fn eval_with(expr: &Expr, row: &Row, scratch: &mut Vec<Value>) -> Result<Value> {
    eval_ev(expr, row, scratch).map(Ev::into_owned)
}

/// Evaluates a predicate; NULL (unknown) filters the row out, per SQL.
pub fn eval_predicate(expr: &Expr, row: &Row) -> Result<bool> {
    let mut scratch = Vec::new();
    eval_predicate_with(expr, row, &mut scratch)
}

/// [`eval_predicate`] with a reusable `Expr::Call` argument buffer.
pub fn eval_predicate_with(expr: &Expr, row: &Row, scratch: &mut Vec<Value>) -> Result<bool> {
    match eval_ev(expr, row, scratch)?.get() {
        Value::Boolean(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(ExecError::Runtime(format!(
            "predicate evaluated to {}, expected BOOLEAN",
            other.data_type()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::Vector;
    use lardb_planner::Builtin;
    use lardb_storage::ops::ArithOp;

    fn row() -> Row {
        Row::new(vec![
            Value::Integer(7),
            Value::Double(2.5),
            Value::vector(Vector::from_slice(&[1.0, 2.0])),
            Value::Null,
        ])
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(eval(&Expr::col(0), &row()).unwrap(), Value::Integer(7));
        assert_eq!(eval(&Expr::lit(3.0), &row()).unwrap(), Value::Double(3.0));
        assert!(eval(&Expr::col(9), &row()).is_err());
    }

    #[test]
    fn arithmetic_and_broadcast() {
        let e = Expr::arith(ArithOp::Mul, Expr::col(2), Expr::col(1));
        let v = eval(&e, &row()).unwrap();
        assert_eq!(v.as_vector().unwrap().as_slice(), &[2.5, 5.0]);
    }

    #[test]
    fn comparisons() {
        let lt = Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(0));
        assert_eq!(eval(&lt, &row()).unwrap(), Value::Boolean(true));
        let ne = Expr::cmp(CmpOp::NotEq, Expr::col(0), Expr::lit(7i64));
        assert_eq!(eval(&ne, &row()).unwrap(), Value::Boolean(false));
        // NULL comparison is NULL, and a NULL predicate filters the row.
        let nl = Expr::eq(Expr::col(3), Expr::lit(1i64));
        assert!(eval(&nl, &row()).unwrap().is_null());
        assert!(!eval_predicate(&nl, &row()).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let t = Expr::cmp(CmpOp::Eq, Expr::lit(1i64), Expr::lit(1i64));
        let f = Expr::cmp(CmpOp::Eq, Expr::lit(1i64), Expr::lit(2i64));
        let n = Expr::eq(Expr::col(3), Expr::lit(1i64));
        // FALSE AND NULL = FALSE
        let e = Expr::And(Box::new(f.clone()), Box::new(n.clone()));
        assert_eq!(eval(&e, &row()).unwrap(), Value::Boolean(false));
        // TRUE AND NULL = NULL
        let e = Expr::And(Box::new(t.clone()), Box::new(n.clone()));
        assert!(eval(&e, &row()).unwrap().is_null());
        // TRUE OR NULL = TRUE
        let e = Expr::Or(Box::new(n.clone()), Box::new(t.clone()));
        assert_eq!(eval(&e, &row()).unwrap(), Value::Boolean(true));
        // FALSE OR NULL = NULL
        let e = Expr::Or(Box::new(f), Box::new(n));
        assert!(eval(&e, &row()).unwrap().is_null());
        // NOT
        let e = Expr::Not(Box::new(t));
        assert_eq!(eval(&e, &row()).unwrap(), Value::Boolean(false));
    }

    #[test]
    fn builtin_calls() {
        let e = Expr::call(Builtin::InnerProduct, vec![Expr::col(2), Expr::col(2)]);
        assert_eq!(eval(&e, &row()).unwrap(), Value::Double(5.0));
    }

    #[test]
    fn nested_calls_share_one_scratch_buffer() {
        // norm(v * 2.0) as an arg to an outer call: the inner call's
        // argument window must not clobber the outer's.
        let inner = Expr::call(
            Builtin::InnerProduct,
            vec![Expr::col(2), Expr::col(2)],
        );
        let outer = Expr::arith(ArithOp::Add, inner.clone(), inner);
        let mut scratch = Vec::new();
        let v = eval_with(&outer, &row(), &mut scratch).unwrap();
        assert_eq!(v, Value::Double(10.0));
        assert!(scratch.is_empty(), "scratch must unwind to entry length");
    }

    #[test]
    fn predicate_type_error() {
        assert!(eval_predicate(&Expr::col(0), &row()).is_err());
    }
}
