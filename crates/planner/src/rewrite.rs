//! Type-directed LA rewrites: the §4.2 signatures put to work on kernels.
//!
//! After join planning, [`rewrite_plan`] replaces two spellings of a
//! product with a transposed left operand by internal built-ins SQL cannot
//! name:
//!
//! * `matrix_multiply(trans_matrix(c), c)`, both operands the same column,
//!   becomes `gram(c)` — SYRK on a dense tile, half the multiply-adds and
//!   no transpose;
//! * `matrix_vector_multiply(trans_matrix(x), v)` becomes
//!   `trans_matrix_vector_multiply(x, v)` — `xᵀv` with no transpose.
//!
//! Each internal built-in has its original's type, NULL propagation,
//! errors and bits (DESIGN.md §5), and runs the original call itself on a
//! sparse tile, so the rewrite changes how long a query takes and nothing
//! else.

use crate::expr::Expr;
use crate::functions::Builtin;
use crate::logical::{AggExpr, LogicalPlan};

/// Rewrites every expression of `plan`: projections, filters, join keys
/// and residuals, group keys, aggregate arguments and sort keys.
pub(crate) fn rewrite_plan(plan: LogicalPlan) -> LogicalPlan {
    let input = |p: Box<LogicalPlan>| Box::new(rewrite_plan(*p));
    match plan {
        scan @ LogicalPlan::Scan { .. } => scan,
        LogicalPlan::Filter { input: i, predicate } => {
            LogicalPlan::Filter { input: input(i), predicate: rewrite(predicate) }
        }
        LogicalPlan::Project { input: i, exprs, schema } => LogicalPlan::Project {
            input: input(i),
            exprs: exprs.into_iter().map(rewrite).collect(),
            schema,
        },
        LogicalPlan::MultiJoin { inputs, predicates } => LogicalPlan::MultiJoin {
            inputs: inputs.into_iter().map(rewrite_plan).collect(),
            predicates: predicates.into_iter().map(rewrite).collect(),
        },
        LogicalPlan::Join { left, right, kind, equi, residual } => LogicalPlan::Join {
            left: input(left),
            right: input(right),
            kind,
            equi: equi.into_iter().map(|(l, r)| (rewrite(l), rewrite(r))).collect(),
            residual: residual.map(rewrite),
        },
        LogicalPlan::Aggregate { input: i, group_by, aggs, schema } => LogicalPlan::Aggregate {
            input: input(i),
            group_by: group_by.into_iter().map(rewrite).collect(),
            aggs: aggs
                .into_iter()
                .map(|a| AggExpr { arg: a.arg.map(rewrite), ..a })
                .collect(),
            schema,
        },
        LogicalPlan::Sort { input: i, keys } => LogicalPlan::Sort {
            input: input(i),
            keys: keys.into_iter().map(|(k, asc)| (rewrite(k), asc)).collect(),
        },
        LogicalPlan::Limit { input: i, n } => LogicalPlan::Limit { input: input(i), n },
    }
}

/// Rewrites one expression, arguments first.
fn rewrite(e: Expr) -> Expr {
    let boxed = |e: Box<Expr>| Box::new(rewrite(*e));
    match e {
        Expr::Call { func, args } => {
            let args: Vec<Expr> = args.into_iter().map(rewrite).collect();
            match (func, args.as_slice()) {
                (
                    Builtin::MatrixMultiply,
                    [Expr::Call { func: Builtin::TransMatrix, args: x }, y @ Expr::Column(_)],
                ) if x.as_slice() == std::slice::from_ref(y) => {
                    Expr::call(Builtin::Gram, vec![y.clone()])
                }
                (
                    Builtin::MatrixVectorMultiply,
                    [Expr::Call { func: Builtin::TransMatrix, args: x }, v],
                ) => Expr::call(Builtin::TransMatrixVectorMultiply, vec![x[0].clone(), v.clone()]),
                _ => Expr::Call { func, args },
            }
        }
        Expr::Arith { op, lhs, rhs } => Expr::Arith { op, lhs: boxed(lhs), rhs: boxed(rhs) },
        Expr::Cmp { op, lhs, rhs } => Expr::Cmp { op, lhs: boxed(lhs), rhs: boxed(rhs) },
        Expr::And(a, b) => Expr::And(boxed(a), boxed(b)),
        Expr::Or(a, b) => Expr::Or(boxed(a), boxed(b)),
        Expr::Not(a) => Expr::Not(boxed(a)),
        Expr::Negate(a) => Expr::Negate(boxed(a)),
        leaf @ (Expr::Column(_) | Expr::Literal(_)) => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(func: Builtin, args: Vec<Expr>) -> Expr {
        Expr::call(func, args)
    }

    fn t(x: Expr) -> Expr {
        call(Builtin::TransMatrix, vec![x])
    }

    #[test]
    fn gram_needs_the_same_column_on_both_sides() {
        let c = Expr::col;
        let xtx = call(Builtin::MatrixMultiply, vec![t(c(0)), c(0)]);
        assert_eq!(rewrite(xtx), call(Builtin::Gram, vec![c(0)]));
        for (l, r) in [
            (t(c(0)), c(1)),
            (c(0), t(c(0))),
            (t(call(Builtin::Densify, vec![c(0)])), call(Builtin::Densify, vec![c(0)])),
        ] {
            let product = call(Builtin::MatrixMultiply, vec![l, r]);
            assert_eq!(rewrite(product.clone()), product);
        }
    }

    #[test]
    fn transposed_matvec_fires_on_any_operands_at_any_depth() {
        let (x, v) = (call(Builtin::Densify, vec![Expr::col(0)]), Expr::col(1));
        let xtv = call(Builtin::MatrixVectorMultiply, vec![t(x.clone()), v.clone()]);
        let inner = call(Builtin::TransMatrixVectorMultiply, vec![x, v]);
        assert_eq!(rewrite(Expr::Negate(Box::new(xtv))), Expr::Negate(Box::new(inner)));
        let plain = call(Builtin::MatrixVectorMultiply, vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(rewrite(plain.clone()), plain);
        // A rewritten argument can complete an enclosing pattern.
        let g = call(Builtin::MatrixMultiply, vec![t(Expr::col(0)), Expr::col(0)]);
        let outer = call(Builtin::MatrixVectorMultiply, vec![t(g), Expr::col(1)]);
        let gram = call(Builtin::Gram, vec![Expr::col(0)]);
        assert_eq!(
            rewrite(outer),
            call(Builtin::TransMatrixVectorMultiply, vec![gram, Expr::col(1)])
        );
    }
}
