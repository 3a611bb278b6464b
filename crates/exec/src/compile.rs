//! Expression → register bytecode compilation for the vectorized engine.
//!
//! [`Program::compile`] flattens an [`Expr`] tree into a linear,
//! register-based instruction sequence (`Instr`) evaluated
//! column-at-a-time over a [`crate::batch::ColumnBatch`]: one virtual
//! register holds one column, every instruction runs one kernel from
//! [`crate::kernels`] across all selected lanes before the next
//! instruction starts. `AND`/`OR` are evaluated *eagerly* (both operand
//! columns computed, then combined lane-wise under SQL three-valued
//! logic) — safe because any lane error routes the whole chunk to the
//! row interpreter, which applies its own short-circuit rules (see
//! [`crate::kernels`] module docs for the fallback argument).
//!
//! Programs borrow literals and builtin handles from the expression tree
//! (`Program<'e>`), so compilation allocates only the instruction list
//! and is done once per operator per query, not per batch.

use std::sync::Arc;

use lardb_planner::{Builtin, CmpOp, Expr};
use lardb_storage::ops::ArithOp;
use lardb_storage::Value;

use crate::batch::Col;
use crate::kernels;
use crate::{ExecError, Result};

/// Which expression engine executes scans, filters, projections and
/// aggregate inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExprEngine {
    /// Row-at-a-time tree-walking interpreter ([`crate::eval`]) — the
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

/// One bytecode instruction; `a`/`b`/`args` and `dst` are virtual
/// register indices (single-assignment, allocated post-order).
#[derive(Debug)]
enum Instr<'e> {
    /// Load input column `col` into `dst` (zero-copy: an `Arc` bump).
    Load { col: usize, dst: usize },
    /// Splat a literal across the batch into `dst`.
    Const { v: &'e Value, dst: usize },
    /// `dst ← a ⊕ b` element-wise.
    Arith { op: ArithOp, a: usize, b: usize, dst: usize },
    /// `dst ← a <op> b` lane-wise comparison.
    Cmp { op: CmpOp, a: usize, b: usize, dst: usize },
    /// `dst ← a AND b` under three-valued logic.
    And { a: usize, b: usize, dst: usize },
    /// `dst ← a OR b` under three-valued logic.
    Or { a: usize, b: usize, dst: usize },
    /// `dst ← NOT a`.
    Not { a: usize, dst: usize },
    /// `dst ← -a`.
    Negate { a: usize, dst: usize },
    /// `dst ← func(args…)` over borrowed lanes.
    Call { func: &'e Builtin, args: Vec<usize>, dst: usize },
}

/// A compiled expression: flat bytecode whose final register is the
/// expression's column result.
#[derive(Debug)]
pub struct Program<'e> {
    instrs: Vec<Instr<'e>>,
    out: usize,
    regs: usize,
    kernels: u64,
}

impl<'e> Program<'e> {
    /// Compiles an expression tree. Compilation is total: type decisions
    /// that need lane values (and the resulting "unsupported" fallbacks)
    /// happen at kernel execution time, per batch.
    pub fn compile(expr: &'e Expr) -> Program<'e> {
        let mut p = Program { instrs: Vec::new(), out: 0, regs: 0, kernels: 0 };
        p.out = p.emit(expr);
        p.kernels = p
            .instrs
            .iter()
            .filter(|i| !matches!(i, Instr::Load { .. } | Instr::Const { .. }))
            .count() as u64;
        p
    }

    fn alloc(&mut self) -> usize {
        let r = self.regs;
        self.regs += 1;
        r
    }

    fn emit(&mut self, expr: &'e Expr) -> usize {
        match expr {
            Expr::Column(i) => {
                let dst = self.alloc();
                self.instrs.push(Instr::Load { col: *i, dst });
                dst
            }
            Expr::Literal(v) => {
                let dst = self.alloc();
                self.instrs.push(Instr::Const { v, dst });
                dst
            }
            Expr::Arith { op, lhs, rhs } => {
                let a = self.emit(lhs);
                let b = self.emit(rhs);
                let dst = self.alloc();
                self.instrs.push(Instr::Arith { op: *op, a, b, dst });
                dst
            }
            Expr::Cmp { op, lhs, rhs } => {
                let a = self.emit(lhs);
                let b = self.emit(rhs);
                let dst = self.alloc();
                self.instrs.push(Instr::Cmp { op: *op, a, b, dst });
                dst
            }
            Expr::And(l, r) => {
                let a = self.emit(l);
                let b = self.emit(r);
                let dst = self.alloc();
                self.instrs.push(Instr::And { a, b, dst });
                dst
            }
            Expr::Or(l, r) => {
                let a = self.emit(l);
                let b = self.emit(r);
                let dst = self.alloc();
                self.instrs.push(Instr::Or { a, b, dst });
                dst
            }
            Expr::Not(e) => {
                let a = self.emit(e);
                let dst = self.alloc();
                self.instrs.push(Instr::Not { a, dst });
                dst
            }
            Expr::Negate(e) => {
                let a = self.emit(e);
                let dst = self.alloc();
                self.instrs.push(Instr::Negate { a, dst });
                dst
            }
            Expr::Call { func, args } => {
                let arg_regs: Vec<usize> = args.iter().map(|a| self.emit(a)).collect();
                let dst = self.alloc();
                self.instrs.push(Instr::Call { func, args: arg_regs, dst });
                dst
            }
        }
    }

    /// Kernel instructions per evaluation (loads and constants excluded) —
    /// feeds the `exec.batch.kernels` counter and EXPLAIN ANALYZE.
    pub fn kernels(&self) -> u64 {
        self.kernels
    }

    /// Evaluates the program over a batch's columns. `sel` restricts
    /// evaluation to the selected lanes (post-filter); unselected lanes of
    /// the result are unspecified and must not be read. Any `Err` means
    /// "replay this chunk through the row interpreter", not a final query
    /// error.
    pub fn eval(&self, cols: &[Arc<Col>], n: usize, sel: Option<&[u32]>) -> Result<Arc<Col>> {
        let mut regs: Vec<Option<Arc<Col>>> = vec![None; self.regs];
        for instr in &self.instrs {
            match instr {
                Instr::Load { col, dst } => {
                    let c = cols.get(*col).ok_or_else(|| {
                        ExecError::Runtime(format!(
                            "column #{col} out of range for batch of arity {}",
                            cols.len()
                        ))
                    })?;
                    regs[*dst] = Some(Arc::clone(c));
                }
                Instr::Const { v, dst } => {
                    regs[*dst] = Some(Arc::new(Col::splat(v, n)));
                }
                Instr::Arith { op, a, b, dst } => {
                    let out = kernels::arith(*op, reg(&regs, *a)?, reg(&regs, *b)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::Cmp { op, a, b, dst } => {
                    let out = kernels::cmp(*op, reg(&regs, *a)?, reg(&regs, *b)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::And { a, b, dst } => {
                    let out = kernels::and(reg(&regs, *a)?, reg(&regs, *b)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::Or { a, b, dst } => {
                    let out = kernels::or(reg(&regs, *a)?, reg(&regs, *b)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::Not { a, dst } => {
                    let out = kernels::not(reg(&regs, *a)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::Negate { a, dst } => {
                    let out = kernels::negate(reg(&regs, *a)?, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
                Instr::Call { func, args, dst } => {
                    let arg_cols: Vec<&Col> = args
                        .iter()
                        .map(|r| reg(&regs, *r))
                        .collect::<Result<_>>()?;
                    let out = kernels::call(func, &arg_cols, sel, n)?;
                    regs[*dst] = Some(Arc::new(out));
                }
            }
        }
        regs[self.out]
            .take()
            .ok_or_else(|| ExecError::Runtime("bytecode produced no output register".into()))
    }
}

/// Reads a register that must have been assigned by an earlier
/// instruction (guaranteed by post-order register allocation).
fn reg(regs: &[Option<Arc<Col>>], i: usize) -> Result<&Col> {
    regs.get(i)
        .and_then(|r| r.as_deref())
        .ok_or_else(|| ExecError::Runtime(format!("bytecode register {i} read before write")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnBatch;
    use crate::eval::eval;
    use lardb_storage::Row;

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
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let prog = Program::compile(e);
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
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let pred = Expr::cmp(CmpOp::GtEq, Expr::col(0), Expr::lit(4i64));
        let prog = Program::compile(&pred);
        let c = prog.eval(batch.cols(), rows.len(), None).unwrap();
        let sel = kernels::selection(&c, None, rows.len()).unwrap();
        assert_eq!(sel, vec![4, 5, 6, 7, 8, 9]);
        // Second predicate evaluated only on surviving lanes.
        let pred2 = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(7i64));
        let prog2 = Program::compile(&pred2);
        let c2 = prog2.eval(batch.cols(), rows.len(), Some(&sel)).unwrap();
        let sel2 = kernels::selection(&c2, Some(&sel), rows.len()).unwrap();
        assert_eq!(sel2, vec![4, 5, 6]);
    }

    #[test]
    fn out_of_range_column_errors() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let oor = Expr::col(17);
        let prog = Program::compile(&oor);
        assert!(prog.eval(batch.cols(), rows.len(), None).is_err());
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
        assert_eq!(Program::compile(&e).kernels(), 1);
    }
}
