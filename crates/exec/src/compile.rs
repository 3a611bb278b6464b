//! Expression → register bytecode compilation for the vectorized engine.
//!
//! [`Program::compile`] flattens an [`Expr`] tree into a linear,
//! register-based instruction sequence (`Instr`) evaluated
//! column-at-a-time over a [`crate::batch::ColumnBatch`]: instruction `k`
//! writes register `k`, one column, running one kernel from
//! [`crate::kernels`] across all selected lanes before the next
//! instruction starts. `AND`/`OR` are evaluated *eagerly* (both operand
//! columns computed, then combined lane-wise under SQL three-valued
//! logic) — safe because any lane error routes the whole chunk to the
//! row interpreter, which applies its own short-circuit rules (see
//! [`crate::kernels`] module docs for the fallback argument).
//!
//! Compilation is typed against the operator's input schema: every
//! register records the `DataType` that [`Expr::infer_type`] gives its
//! subexpression, and a built-in call writes the column that type names.
//! A BOOLEAN register is therefore always a `Col::Bool`. An expression
//! that does not type, and a predicate that is not BOOLEAN, compile to a
//! program that declines every chunk, so the interpreter answers for it
//! (the interpreter is lenient where the type checker is not: its `AND`
//! takes any non-FALSE value as true).
//!
//! Programs borrow literals and builtin handles from the expression tree
//! (`Program<'e>`), so compilation allocates only the instruction list
//! and is done once per operator per query, not per batch.

use std::sync::Arc;

use lardb_planner::{Builtin, CmpOp, Expr};
use lardb_storage::ops::ArithOp;
use lardb_storage::{DataType, Schema, Value};

use crate::batch::Col;
use crate::kernels::{self, unsupported};
use crate::{ExecError, Result};

/// How the chunk pipeline evaluates the expressions of filters,
/// projections, join residuals and aggregate inputs. Both engines run the
/// same operators over the same chunks and fill the same group tables in
/// the same row order; only the evaluation of a chunk differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExprEngine {
    /// Row-at-a-time tree-walking interpreter ([`crate::eval`]) over every
    /// chunk, with nothing compiled or pivoted — the compiled engine's
    /// per-chunk fallback and the differential suite's oracle.
    Interpret,
    /// Compiled bytecode over column batches with fused morsel kernels
    /// (the default).
    #[default]
    Compiled,
}

impl std::fmt::Display for ExprEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprEngine::Interpret => write!(f, "interpret"),
            ExprEngine::Compiled => write!(f, "compiled"),
        }
    }
}

impl std::str::FromStr for ExprEngine {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "interpret" | "interpreted" => Ok(ExprEngine::Interpret),
            "compiled" | "compile" => Ok(ExprEngine::Compiled),
            other => Err(format!("unknown expression engine '{other}' (interpret|compiled)")),
        }
    }
}

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
    /// `a AND b` under three-valued logic.
    And { a: usize, b: usize },
    /// `a OR b` under three-valued logic.
    Or { a: usize, b: usize },
    /// `NOT a`.
    Not { a: usize },
    /// `-a`.
    Negate { a: usize },
    /// `func(args…)` over borrowed lanes.
    Call { func: &'e Builtin, args: Vec<usize> },
}

/// A compiled expression: flat bytecode, each instruction beside the
/// type of the register it writes, whose last register is the
/// expression's column result. Empty when the expression does not type:
/// such a program declines every chunk.
#[derive(Debug)]
pub struct Program<'e> {
    code: Vec<(Instr<'e>, DataType)>,
}

impl<'e> Program<'e> {
    /// Compiles an expression tree against the schema of the rows it
    /// reads (see module docs).
    pub fn compile(expr: &'e Expr, input: &Schema) -> Program<'e> {
        let mut p = Program { code: Vec::new() };
        if p.emit(expr, input).is_none() {
            p.code.clear();
        }
        p
    }

    /// [`Self::compile`] for a Filter's or a join residual's predicate:
    /// one that is not BOOLEAN declines every chunk.
    pub fn compile_predicate(expr: &'e Expr, input: &Schema) -> Program<'e> {
        let mut p = Program::compile(expr, input);
        if p.code.last().is_some_and(|(_, t)| *t != DataType::Boolean) {
            p.code.clear();
        }
        p
    }

    /// Appends `expr`'s instructions, operands first, and returns the
    /// register holding its value; `None` when it does not type.
    fn emit(&mut self, expr: &'e Expr, input: &Schema) -> Option<usize> {
        let t = expr.infer_type(input).ok()?;
        let instr = match expr {
            Expr::Column(col) => Instr::Load { col: *col },
            Expr::Literal(v) => Instr::Const { v },
            Expr::Arith { op, lhs, rhs } => {
                Instr::Arith { op: *op, a: self.emit(lhs, input)?, b: self.emit(rhs, input)? }
            }
            Expr::Cmp { op, lhs, rhs } => {
                Instr::Cmp { op: *op, a: self.emit(lhs, input)?, b: self.emit(rhs, input)? }
            }
            Expr::And(l, r) => Instr::And { a: self.emit(l, input)?, b: self.emit(r, input)? },
            Expr::Or(l, r) => Instr::Or { a: self.emit(l, input)?, b: self.emit(r, input)? },
            Expr::Not(e) => Instr::Not { a: self.emit(e, input)? },
            Expr::Negate(e) => Instr::Negate { a: self.emit(e, input)? },
            Expr::Call { func, args } => Instr::Call {
                func,
                args: args.iter().map(|a| self.emit(a, input)).collect::<Option<_>>()?,
            },
        };
        self.code.push((instr, t));
        Some(self.code.len() - 1)
    }

    /// Kernel instructions per evaluation (loads and constants excluded) —
    /// feeds the `exec.batch.kernels` counter and EXPLAIN ANALYZE.
    pub fn kernels(&self) -> u64 {
        let kernel = |i: &Instr| !matches!(i, Instr::Load { .. } | Instr::Const { .. });
        self.code.iter().filter(|(i, _)| kernel(i)).count() as u64
    }

    /// Evaluates the program over a batch's columns. `sel` restricts
    /// evaluation to the selected lanes (post-filter); unselected lanes of
    /// the result are unspecified and must not be read. Any `Err` means
    /// "replay this chunk through the row interpreter", not a final query
    /// error.
    pub fn eval(&self, cols: &[Arc<Col>], n: usize, sel: Option<&[u32]>) -> Result<Arc<Col>> {
        let mut regs: Vec<Arc<Col>> = Vec::with_capacity(self.code.len());
        for (instr, t) in &self.code {
            let r = |i: usize| &*regs[i];
            let out = match instr {
                Instr::Load { col } => {
                    regs.push(Arc::clone(cols.get(*col).ok_or_else(|| {
                        ExecError::Runtime(format!(
                            "column #{col} out of range for batch of arity {}",
                            cols.len()
                        ))
                    })?));
                    continue;
                }
                Instr::Const { v } => Col::splat(v, n),
                Instr::Arith { op, a, b } => kernels::arith(*op, r(*a), r(*b), sel, n)?,
                Instr::Cmp { op, a, b } => kernels::cmp(*op, r(*a), r(*b), sel, n)?,
                Instr::And { a, b } => kernels::and(r(*a), r(*b), sel, n)?,
                Instr::Or { a, b } => kernels::or(r(*a), r(*b), sel, n)?,
                Instr::Not { a } => kernels::not(r(*a), sel, n)?,
                Instr::Negate { a } => kernels::negate(r(*a), sel, n)?,
                Instr::Call { func, args } => {
                    let args: Vec<&Col> = args.iter().map(|&i| r(i)).collect();
                    kernels::call(func, &args, t, sel, n)?
                }
            };
            regs.push(Arc::new(out));
        }
        regs.pop().ok_or_else(|| unsupported("the expression does not type"))
    }
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
        let prog = Program::compile(e, &schema());
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
        let prog = Program::compile_predicate(&pred, &schema());
        let c = prog.eval(batch.cols(), rows.len(), None).unwrap();
        let sel = kernels::selection(&c, None, rows.len()).unwrap();
        assert_eq!(sel, vec![4, 5, 6, 7, 8, 9]);
        // Second predicate evaluated only on surviving lanes.
        let pred2 = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(7i64));
        let prog2 = Program::compile_predicate(&pred2, &schema());
        let c2 = prog2.eval(batch.cols(), rows.len(), Some(&sel)).unwrap();
        let sel2 = kernels::selection(&c2, Some(&sel), rows.len()).unwrap();
        assert_eq!(sel2, vec![4, 5, 6]);
    }

    #[test]
    fn out_of_range_column_errors() {
        let rows = rows();
        let batch = ColumnBatch::pivot(&rows, &schema()).unwrap();
        let oor = Expr::col(17);
        let prog = Program::compile(&oor, &schema());
        assert!(prog.eval(batch.cols(), rows.len(), None).is_err());
    }

    /// What does not type, and a predicate that is not BOOLEAN, decline
    /// every chunk: `NOT` over an INTEGER, and the interpreter's lenient
    /// `AND` over one.
    #[test]
    fn untyped_programs_decline_every_chunk() {
        let rows = rows();
        let batch = ColumnBatch::pivot(&rows, &schema()).unwrap();
        let lt = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64));
        let lenient = Expr::And(Box::new(Expr::col(2)), Box::new(lt.clone()));
        for e in [Expr::Not(Box::new(Expr::col(0))), lenient] {
            let prog = Program::compile(&e, &schema());
            assert_eq!(prog.kernels(), 0, "{e:?}");
            assert!(prog.eval(batch.cols(), rows.len(), None).is_err(), "{e:?}");
        }
        let numeric = Expr::arith(ArithOp::Add, Expr::col(0), Expr::lit(1i64));
        assert!(Program::compile(&numeric, &schema()).eval(batch.cols(), 10, None).is_ok());
        let prog = Program::compile_predicate(&numeric, &schema());
        assert!(prog.eval(batch.cols(), rows.len(), None).is_err());
        assert!(Program::compile_predicate(&lt, &schema()).eval(batch.cols(), 10, None).is_ok());
    }

    #[test]
    fn engine_knob_parses() {
        assert_eq!("interpret".parse::<ExprEngine>().unwrap(), ExprEngine::Interpret);
        assert_eq!("Compiled".parse::<ExprEngine>().unwrap(), ExprEngine::Compiled);
        assert_eq!(ExprEngine::default(), ExprEngine::Compiled);
        assert!("jit".parse::<ExprEngine>().is_err());
        assert_eq!(ExprEngine::Compiled.to_string(), "compiled");
    }

    #[test]
    fn kernel_count_excludes_loads_and_consts() {
        let e = Expr::arith(
            lardb_storage::ops::ArithOp::Add,
            Expr::col(0),
            Expr::lit(1i64),
        );
        assert_eq!(Program::compile(&e, &schema()).kernels(), 1);
    }
}
