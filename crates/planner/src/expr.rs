//! The expression IR shared by the planner and the executor.

use std::collections::BTreeSet;
use std::fmt;

use lardb_storage::ops::ArithOp;
use lardb_storage::{DataType, Schema, Value};

use crate::error::{PlanError, Result};
use crate::functions::{ArgType, Builtin};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// SQL symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

/// A scalar expression over an input row.
///
/// Column references are *positional*: the SQL binder resolves names to
/// positions, and the optimizer remaps positions as it reshapes the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column at this position.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Overloaded arithmetic (§3.2).
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Comparison producing BOOLEAN.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Unary minus.
    Negate(Box<Expr>),
    /// A call to one of the built-in LA functions (§3.1).
    Call {
        /// The function.
        func: Builtin,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference helper.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary arithmetic helper.
    pub fn arith(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Builtin-call helper.
    pub fn call(func: Builtin, args: Vec<Expr>) -> Expr {
        Expr::Call { func, args }
    }

    /// Equality-comparison helper (the most common join predicate).
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// Conjunction of a list of predicates; `None` for an empty list.
    pub fn conjunction(preds: Vec<Expr>) -> Option<Expr> {
        preds.into_iter().reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    }

    /// Splits a predicate tree on top-level ANDs.
    pub fn split_conjunction(self, out: &mut Vec<Expr>) {
        match self {
            Expr::And(a, b) => {
                a.split_conjunction(out);
                b.split_conjunction(out);
            }
            other => out.push(other),
        }
    }

    /// Full type inference, including the §4.2 dimension propagation.
    pub fn infer_type(&self, input: &Schema) -> Result<DataType> {
        Ok(self.infer_arg(input)?.dtype)
    }

    /// Types a predicate — a Filter's, a HAVING's or a join residual —
    /// against the rows it reads: it must type, and as BOOLEAN.
    pub fn type_predicate(&self, input: &Schema) -> Result<()> {
        match self.infer_type(input)? {
            DataType::Boolean => Ok(()),
            t => Err(PlanError::Type(format!("predicate must be BOOLEAN, got {t}"))),
        }
    }

    /// Type inference that also tracks integer-constant values, so
    /// size-from-argument constructors (`identity(10)`) type precisely.
    pub fn infer_arg(&self, input: &Schema) -> Result<ArgType> {
        match self {
            Expr::Column(i) => {
                if *i >= input.arity() {
                    return Err(PlanError::Internal(format!(
                        "column #{i} out of range for schema of arity {}",
                        input.arity()
                    )));
                }
                Ok(ArgType::of(input.column(*i).dtype))
            }
            Expr::Literal(v) => Ok(ArgType {
                dtype: v.data_type(),
                const_int: v.as_integer(),
            }),
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.infer_arg(input)?;
                let r = rhs.infer_arg(input)?;
                let dtype = infer_arith_type(*op, l.dtype, r.dtype)?;
                // Constant-fold integer arithmetic for dimension inference.
                let const_int = match (l.const_int, r.const_int, dtype) {
                    (Some(a), Some(b), DataType::Integer) => match op {
                        ArithOp::Add => Some(a + b),
                        ArithOp::Sub => Some(a - b),
                        ArithOp::Mul => Some(a * b),
                        ArithOp::Div => (b != 0).then(|| a / b),
                    },
                    _ => None,
                };
                Ok(ArgType { dtype, const_int })
            }
            Expr::Cmp { lhs, rhs, .. } => {
                let l = lhs.infer_arg(input)?.dtype;
                let r = rhs.infer_arg(input)?.dtype;
                if l.is_linear_algebra() || r.is_linear_algebra() {
                    return Err(PlanError::Type(format!(
                        "comparison between {l} and {r} is not defined"
                    )));
                }
                Ok(ArgType::of(DataType::Boolean))
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                for (side, e) in [("left", a), ("right", b)] {
                    let t = e.infer_arg(input)?.dtype;
                    if t != DataType::Boolean {
                        return Err(PlanError::Type(format!(
                            "{side} operand of AND/OR must be BOOLEAN, got {t}"
                        )));
                    }
                }
                Ok(ArgType::of(DataType::Boolean))
            }
            Expr::Not(e) => {
                let t = e.infer_arg(input)?.dtype;
                if t != DataType::Boolean {
                    return Err(PlanError::Type(format!("NOT expects BOOLEAN, got {t}")));
                }
                Ok(ArgType::of(DataType::Boolean))
            }
            Expr::Negate(e) => {
                let a = e.infer_arg(input)?;
                if !a.dtype.is_numeric() {
                    return Err(PlanError::Type(format!("cannot negate {}", a.dtype)));
                }
                Ok(ArgType { dtype: a.dtype, const_int: a.const_int.map(|v| -v) })
            }
            Expr::Call { func, args } => {
                let arg_types = args
                    .iter()
                    .map(|a| a.infer_arg(input))
                    .collect::<Result<Vec<_>>>()?;
                Ok(ArgType::of(func.infer_type(&arg_types)?))
            }
        }
    }

    /// Collects the positions of all referenced input columns.
    pub fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Column(i) => {
                out.insert(*i);
            }
            Expr::Literal(_) => {}
            Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) | Expr::Negate(e) => e.collect_columns(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// The set of referenced columns.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut s = BTreeSet::new();
        self.collect_columns(&mut s);
        s
    }

    /// Rewrites every column reference through `f`.
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(f(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: Box::new(lhs.remap_columns(f)),
                rhs: Box::new(rhs.remap_columns(f)),
            },
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.remap_columns(f)),
                rhs: Box::new(rhs.remap_columns(f)),
            },
            Expr::And(a, b) => {
                Expr::And(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(f))),
            Expr::Negate(e) => Expr::Negate(Box::new(e.remap_columns(f))),
            Expr::Call { func, args } => Expr::Call {
                func: *func,
                args: args.iter().map(|a| a.remap_columns(f)).collect(),
            },
        }
    }

    /// True for a bare column reference.
    pub fn is_column(&self) -> bool {
        matches!(self, Expr::Column(_))
    }

    /// If this is `col = col` (possibly flipped), the two positions.
    pub fn as_equi_join(&self) -> Option<(usize, usize)> {
        if let Expr::Cmp { op: CmpOp::Eq, lhs, rhs } = self {
            if let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) {
                return Some((*a, *b));
            }
        }
        None
    }

    /// Renders against a schema (for EXPLAIN), falling back to `#i` when the
    /// schema is absent.
    pub fn display(&self, schema: Option<&Schema>) -> String {
        match self {
            Expr::Column(i) => match schema {
                Some(s) if *i < s.arity() => s.column(*i).full_name(),
                _ => format!("#{i}"),
            },
            Expr::Literal(v) => v.to_string(),
            Expr::Arith { op, lhs, rhs } => {
                format!("({} {} {})", lhs.display(schema), op.symbol(), rhs.display(schema))
            }
            Expr::Cmp { op, lhs, rhs } => {
                format!("({} {} {})", lhs.display(schema), op.symbol(), rhs.display(schema))
            }
            Expr::And(a, b) => format!("({} AND {})", a.display(schema), b.display(schema)),
            Expr::Or(a, b) => format!("({} OR {})", a.display(schema), b.display(schema)),
            Expr::Not(e) => format!("(NOT {})", e.display(schema)),
            Expr::Negate(e) => format!("(-{})", e.display(schema)),
            Expr::Call { func, args } => {
                let args: Vec<String> = args.iter().map(|a| a.display(schema)).collect();
                format!("{}({})", func.name(), args.join(", "))
            }
        }
    }
}

/// Result type of overloaded arithmetic (§3.2), mirroring the runtime
/// overload matrix in `lardb_storage::ops::arith`.
fn infer_arith_type(op: ArithOp, l: DataType, r: DataType) -> Result<DataType> {
    use DataType::*;
    let scalar = |t: DataType| matches!(t, Integer | Double | LabeledScalar);
    Ok(match (l, r) {
        (Integer, Integer) => Integer,
        (Vector(a), Vector(b)) => {
            let n = crate::functions::unify_dims_public(op.symbol(), a, b)?;
            Vector(n)
        }
        (Matrix(r1, c1), Matrix(r2, c2)) => {
            let rr = crate::functions::unify_dims_public(op.symbol(), r1, r2)?;
            let cc = crate::functions::unify_dims_public(op.symbol(), c1, c2)?;
            Matrix(rr, cc)
        }
        (Vector(n), s) | (s, Vector(n)) if scalar(s) => Vector(n),
        (Matrix(rr, cc), s) | (s, Matrix(rr, cc)) if scalar(s) => Matrix(rr, cc),
        (a, b) if scalar(a) && scalar(b) => Double,
        (a, b) => {
            return Err(PlanError::Type(format!(
                "operator {} undefined between {a} and {b}",
                op.symbol()
            )))
        }
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("x", DataType::Vector(Some(10))),
            ("a", DataType::Matrix(Some(10), Some(10))),
            ("y", DataType::Double),
        ])
    }

    #[test]
    fn infer_columns_and_literals() {
        let s = schema();
        assert_eq!(Expr::col(1).infer_type(&s).unwrap(), DataType::Vector(Some(10)));
        assert_eq!(Expr::lit(1i64).infer_type(&s).unwrap(), DataType::Integer);
        assert!(Expr::col(9).infer_type(&s).is_err());
    }

    #[test]
    fn infer_vector_arith_with_dims() {
        let s = schema();
        // x - x : VECTOR[10]
        let e = Expr::arith(ArithOp::Sub, Expr::col(1), Expr::col(1));
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Vector(Some(10)));
        // x * y (scalar broadcast): VECTOR[10] — the paper's X.x_i * y_i
        let e = Expr::arith(ArithOp::Mul, Expr::col(1), Expr::col(3));
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Vector(Some(10)));
    }

    #[test]
    fn infer_call_propagates_dims() {
        let s = schema();
        // matrix_vector_multiply(a, x - x) : VECTOR[10]
        let e = Expr::call(
            Builtin::MatrixVectorMultiply,
            vec![Expr::col(2), Expr::arith(ArithOp::Sub, Expr::col(1), Expr::col(1))],
        );
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Vector(Some(10)));
    }

    #[test]
    fn infer_rejects_la_comparison() {
        let s = schema();
        let e = Expr::eq(Expr::col(1), Expr::col(1));
        assert!(e.infer_type(&s).is_err());
    }

    #[test]
    fn infer_boolean_ops() {
        let s = schema();
        let p = Expr::eq(Expr::col(0), Expr::lit(3i64));
        let e = Expr::And(Box::new(p.clone()), Box::new(Expr::Not(Box::new(p.clone()))));
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Boolean);
        let bad = Expr::And(Box::new(p), Box::new(Expr::col(0)));
        assert!(bad.infer_type(&s).is_err());
    }

    #[test]
    fn constant_folding_feeds_constructors() {
        let s = schema();
        // identity(2 * 5) : MATRIX[10][10]
        let e = Expr::call(
            Builtin::Identity,
            vec![Expr::arith(ArithOp::Mul, Expr::lit(2i64), Expr::lit(5i64))],
        );
        assert_eq!(e.infer_type(&s).unwrap(), DataType::Matrix(Some(10), Some(10)));
    }

    #[test]
    fn collect_and_remap_columns() {
        let e = Expr::arith(
            ArithOp::Add,
            Expr::col(0),
            Expr::call(Builtin::Norm2, vec![Expr::col(2)]),
        );
        assert_eq!(e.columns().into_iter().collect::<Vec<_>>(), vec![0, 2]);
        let shifted = e.remap_columns(&|i| i + 10);
        assert_eq!(shifted.columns().into_iter().collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn conjunction_roundtrip() {
        let p1 = Expr::eq(Expr::col(0), Expr::col(1));
        let p2 = Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit(5i64));
        let c = Expr::conjunction(vec![p1.clone(), p2.clone()]).unwrap();
        let mut out = Vec::new();
        c.split_conjunction(&mut out);
        assert_eq!(out, vec![p1, p2]);
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn equi_join_detection() {
        assert_eq!(Expr::eq(Expr::col(0), Expr::col(3)).as_equi_join(), Some((0, 3)));
        assert_eq!(Expr::eq(Expr::col(0), Expr::lit(1i64)).as_equi_join(), None);
        assert_eq!(
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(3)).as_equi_join(),
            None
        );
    }

    #[test]
    fn display_with_schema() {
        let s = schema().with_qualifier("t");
        let e = Expr::call(Builtin::Norm2, vec![Expr::col(1)]);
        assert_eq!(e.display(Some(&s)), "norm2(t.x)");
        assert_eq!(e.to_string(), "norm2(#1)");
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }
}
