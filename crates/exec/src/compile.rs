//! Expression → register bytecode compilation for the vectorized engine.
//!
//! [`Program::compile`] flattens an [`Expr`] tree into a linear,
//! register-based instruction sequence (`Instr`) evaluated
//! column-at-a-time over a [`crate::batch::ColumnBatch`]: instruction `k`
//! writes register `k`, one column, running one kernel from
//! [`crate::kernels`] across all selected lanes before the next
//! instruction starts. `AND`/`OR` short-circuit as the interpreter does:
//! an `Undecided` instruction after the left operand narrows the
//! selection to the lanes it leaves undecided, the right operand's
//! instructions run under that selection, and the connective restores it
//! and combines the two lane-wise under SQL three-valued logic. So every
//! lane evaluates exactly the subexpressions its row evaluates in
//! [`crate::eval`], in the same (post-)order, and the first instruction
//! that fails on a lane raises the error the interpreter raises for its
//! row (see the [`crate::kernels`] module docs).
//!
//! Compilation is typed against the operator's input schema: every
//! register records the `DataType` that [`Expr::infer_type`] gives its
//! subexpression, and a built-in call writes the column that type names.
//! A BOOLEAN register is therefore always a `Col::Bool`. The planner has
//! typed every expression an operator evaluates — projections and
//! aggregate arguments when bound, Filter predicates, HAVING and join
//! residuals as BOOLEAN when planned — so an expression that does not
//! type here, or a predicate that is not BOOLEAN, is a planner bug and
//! compiles to `PlanError::Internal`.
//!
//! Programs borrow literals and builtin handles from the expression tree
//! (`Program<'e>`), so compilation allocates only the instruction list
//! and is done once per operator per query, not per batch.

use std::sync::Arc;

use lardb_planner::{Builtin, CmpOp, Expr, PlanError};
use lardb_storage::ops::ArithOp;
use lardb_storage::{DataType, Schema, Value};

use crate::batch::Col;
use crate::kernels::{self, KernelError, KernelResult};
use crate::{ExecError, Result};

/// One bytecode instruction; `a`/`b`/`args` are the registers of its
/// operands, written by earlier instructions.
#[derive(Debug)]
enum Instr<'e> {
    /// Load input column `col` (zero-copy: an `Arc` bump).
    Load { col: usize },
    /// Splat a literal across the batch.
    Const { v: &'e Value },
    /// `a ⊕ b` element-wise.
    Arith { op: ArithOp, a: usize, b: usize },
    /// `a <op> b` lane-wise comparison.
    Cmp { op: CmpOp, a: usize, b: usize },
    /// Narrows the selection to the lanes `a`, the left operand of an
    /// `OR` (`or`) or `AND`, leaves undecided, for the right operand's
    /// instructions that follow. Its register is `a`'s.
    Undecided { a: usize, or: bool },
    /// `a OR b` (`or`) or `a AND b` under three-valued logic; restores
    /// the selection `Undecided` narrowed.
    Connective { a: usize, b: usize, or: bool },
    /// `NOT a`.
    Not { a: usize },
    /// `-a`.
    Negate { a: usize },
    /// `func(args…)` over borrowed lanes.
    Call { func: &'e Builtin, args: Vec<usize> },
}

/// A compiled expression: flat bytecode, each instruction beside the
/// type of the register it writes, whose last register is the
/// expression's column result.
#[derive(Debug)]
pub struct Program<'e> {
    code: Vec<(Instr<'e>, DataType)>,
}

impl<'e> Program<'e> {
    /// Compiles an expression tree against the schema of the rows it
    /// reads (see module docs). The planner has typed every expression an
    /// operator evaluates, so one that does not type here is a planner
    /// bug: `PlanError::Internal`.
    pub fn compile(expr: &'e Expr, input: &Schema) -> Result<Program<'e>> {
        let mut p = Program { code: Vec::new() };
        p.emit(expr, input)?;
        Ok(p)
    }

    /// [`Self::compile`] for a Filter's or a join residual's predicate,
    /// which must be BOOLEAN.
    pub fn compile_predicate(expr: &'e Expr, input: &Schema) -> Result<Program<'e>> {
        let p = Program::compile(expr, input)?;
        match p.code.last() {
            Some((_, DataType::Boolean)) => Ok(p),
            _ => Err(untyped(expr, "is not a BOOLEAN predicate")),
        }
    }

    /// Appends `expr`'s instructions, operands first, and returns the
    /// register holding its value.
    fn emit(&mut self, expr: &'e Expr, input: &Schema) -> Result<usize> {
        let t = expr.infer_type(input).map_err(|e| untyped(expr, &e.to_string()))?;
        let instr = match expr {
            Expr::Column(col) => Instr::Load { col: *col },
            Expr::Literal(v) => Instr::Const { v },
            Expr::Arith { op, lhs, rhs } => {
                Instr::Arith { op: *op, a: self.emit(lhs, input)?, b: self.emit(rhs, input)? }
            }
            Expr::Cmp { op, lhs, rhs } => {
                Instr::Cmp { op: *op, a: self.emit(lhs, input)?, b: self.emit(rhs, input)? }
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                let or = matches!(expr, Expr::Or(..));
                let a = self.emit(l, input)?;
                self.code.push((Instr::Undecided { a, or }, DataType::Boolean));
                Instr::Connective { a, b: self.emit(r, input)?, or }
            }
            Expr::Not(e) => Instr::Not { a: self.emit(e, input)? },
            Expr::Negate(e) => Instr::Negate { a: self.emit(e, input)? },
            Expr::Call { func, args } => Instr::Call {
                func,
                args: args.iter().map(|a| self.emit(a, input)).collect::<Result<_>>()?,
            },
        };
        self.code.push((instr, t));
        Ok(self.code.len() - 1)
    }

    /// Kernel instructions per evaluation (loads, constants and the
    /// narrowing of `AND`/`OR` excluded) — feeds the `exec.batch.kernels`
    /// counter and EXPLAIN ANALYZE.
    pub fn kernels(&self) -> u64 {
        let kernel = |i: &Instr| {
            !matches!(i, Instr::Load { .. } | Instr::Const { .. } | Instr::Undecided { .. })
        };
        self.code.iter().filter(|(i, _)| kernel(i)).count() as u64
    }

    /// Evaluates the program over a batch's columns. `sel` restricts
    /// evaluation to the selected lanes (post-filter); unselected lanes of
    /// the result are unspecified and must not be read. An error names
    /// the first selected lane the first failing instruction fails on,
    /// with the interpreter's error for that lane's row.
    pub fn eval(&self, cols: &[Arc<Col>], n: usize, sel: Option<&[u32]>) -> KernelResult<Arc<Col>> {
        let mut regs: Vec<Arc<Col>> = Vec::with_capacity(self.code.len());
        // The selections `Undecided` narrowed, innermost last; `None`
        // where it narrowed nothing.
        let mut narrowed: Vec<Option<Vec<u32>>> = Vec::new();
        for (instr, t) in &self.code {
            if let Instr::Connective { .. } = instr {
                narrowed.pop();
            }
            let sel = narrowed.iter().rev().find_map(Option::as_deref).or(sel);
            let r = |i: usize| &*regs[i];
            let out = match instr {
                Instr::Load { col } => {
                    regs.push(Arc::clone(cols.get(*col).ok_or_else(|| {
                        KernelError::internal(format!(
                            "column #{col} out of range for batch of arity {}",
                            cols.len()
                        ))
                    })?));
                    continue;
                }
                Instr::Const { v } => Col::splat(v, n),
                Instr::Arith { op, a, b } => kernels::arith(*op, r(*a), r(*b), sel, n)?,
                Instr::Cmp { op, a, b } => kernels::cmp(*op, r(*a), r(*b), sel, n)?,
                Instr::Undecided { a, or } => {
                    narrowed.push(kernels::undecided(r(*a), *or, sel, n)?);
                    regs.push(Arc::clone(&regs[*a]));
                    continue;
                }
                Instr::Connective { a, b, or } => kernels::connective(*or, r(*a), r(*b), sel, n)?,
                Instr::Not { a } => kernels::not(r(*a), sel, n)?,
                Instr::Negate { a } => kernels::negate(r(*a), sel, n)?,
                Instr::Call { func, args } => {
                    let args: Vec<&Col> = args.iter().map(|&i| r(i)).collect();
                    kernels::call(func, &args, t, sel, n)?
                }
            };
            regs.push(Arc::new(out));
        }
        Ok(regs.pop().expect("a compiled program has an instruction"))
    }
}

/// The planner let `expr` through untyped: a bug, not the query's error.
fn untyped(expr: &Expr, why: &str) -> ExecError {
    ExecError::Plan(PlanError::Internal(format!("{expr} reached the executor untyped: {why}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnBatch;
    use crate::eval::eval;
    use lardb_storage::Row;

    fn schema() -> Schema {
        let int = DataType::Integer;
        Schema::from_pairs(&[("i", int), ("x", DataType::Double), ("j", int)])
    }

    fn rows() -> Vec<Row> {
        (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Integer(i),
                    Value::Double(i as f64 * 0.5),
                    if i % 3 == 0 { Value::Null } else { Value::Integer(i * 10) },
                ])
            })
            .collect()
    }

    /// Compiled output must be bit-identical to the interpreter, lane by
    /// lane, whenever the program evaluates successfully.
    fn assert_matches_interpreter(e: &Expr) {
        let rows = rows();
        let batch = ColumnBatch::pivot(&rows, &schema()).unwrap();
        let prog = Program::compile(e, &schema()).unwrap();
        let out = prog.eval(batch.cols(), rows.len(), None).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let want = eval(e, r).unwrap();
            let got = out.value_at(i);
            match (&got, &want) {
                (Value::Double(g), Value::Double(w)) => assert_eq!(g.to_bits(), w.to_bits()),
                _ => assert_eq!(got, want, "lane {i}"),
            }
        }
    }

    #[test]
    fn arithmetic_and_comparison_match_interpreter() {
        use lardb_storage::ops::ArithOp::*;
        assert_matches_interpreter(&Expr::arith(Add, Expr::col(0), Expr::lit(3i64)));
        assert_matches_interpreter(&Expr::arith(Mul, Expr::col(1), Expr::col(1)));
        assert_matches_interpreter(&Expr::arith(Div, Expr::col(1), Expr::lit(4.0)));
        assert_matches_interpreter(&Expr::arith(Add, Expr::col(0), Expr::col(2)));
        assert_matches_interpreter(&Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit(40i64)));
        assert_matches_interpreter(&Expr::Negate(Box::new(Expr::col(1))));
    }

    #[test]
    fn three_valued_logic_matches_interpreter() {
        let lt = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64));
        let nl = Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::lit(20i64)); // NULL lanes
        assert_matches_interpreter(&Expr::And(Box::new(lt.clone()), Box::new(nl.clone())));
        assert_matches_interpreter(&Expr::Or(Box::new(lt.clone()), Box::new(nl.clone())));
        assert_matches_interpreter(&Expr::Not(Box::new(nl)));
    }

    #[test]
    fn selection_respects_upstream_filter() {
        let rows = rows();
        let batch = ColumnBatch::pivot(&rows, &schema()).unwrap();
        let pred = Expr::cmp(CmpOp::GtEq, Expr::col(0), Expr::lit(4i64));
        let prog = Program::compile_predicate(&pred, &schema()).unwrap();
        let c = prog.eval(batch.cols(), rows.len(), None).unwrap();
        let sel = kernels::selection(&c, None, rows.len()).unwrap();
        assert_eq!(sel, vec![4, 5, 6, 7, 8, 9]);
        // Second predicate evaluated only on surviving lanes.
        let pred2 = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(7i64));
        let prog2 = Program::compile_predicate(&pred2, &schema()).unwrap();
        let c2 = prog2.eval(batch.cols(), rows.len(), Some(&sel)).unwrap();
        let sel2 = kernels::selection(&c2, Some(&sel), rows.len()).unwrap();
        assert_eq!(sel2, vec![4, 5, 6]);
    }

    fn internal(r: Result<Program<'_>>) -> String {
        match r {
            Err(ExecError::Plan(PlanError::Internal(m))) => m,
            other => panic!("expected an internal error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_column_errors() {
        let m = internal(Program::compile(&Expr::col(17), &schema()));
        assert!(m.contains("out of range"), "{m}");
    }

    /// The planner types every expression the executor compiles, so one
    /// that does not type — `NOT` over an INTEGER, the lenient `AND` over
    /// one — and a predicate that is not BOOLEAN are planner bugs:
    /// internal errors, raised before any chunk runs.
    #[test]
    fn untyped_programs_are_internal_errors() {
        let lt = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64));
        let lenient = Expr::And(Box::new(Expr::col(2)), Box::new(lt.clone()));
        for e in [Expr::Not(Box::new(Expr::col(0))), lenient] {
            let m = internal(Program::compile(&e, &schema()));
            assert!(m.contains("untyped"), "{m}");
        }
        let numeric = Expr::arith(ArithOp::Add, Expr::col(0), Expr::lit(1i64));
        assert!(Program::compile(&numeric, &schema()).is_ok());
        let m = internal(Program::compile_predicate(&numeric, &schema()));
        assert!(m.contains("not a BOOLEAN predicate"), "{m}");
        assert!(Program::compile_predicate(&lt, &schema()).is_ok());
    }

    #[test]
    fn kernel_count_excludes_loads_and_consts() {
        let e = Expr::arith(
            lardb_storage::ops::ArithOp::Add,
            Expr::col(0),
            Expr::lit(1i64),
        );
        assert_eq!(Program::compile(&e, &schema()).unwrap().kernels(), 1);
    }
}
