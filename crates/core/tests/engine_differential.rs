//! Differential tests: the compiled vectorized engine vs the row
//! interpreter.
//!
//! Two layers, matching the engine's correctness argument:
//!
//! * **Bytecode vs tree walker** (proptest): for random typed expression
//!   trees over random column batches — each column of a random type, its
//!   rows conforming to it, NULLs, NaN, `±0.0` and zero-length batches
//!   included — the compiled program answers as the interpreter does:
//!   every lane *bit-identical* (`-0.0` and NaN payloads included) to the
//!   interpreter's per-row answer, or, cut at each failing lane and run
//!   again as the chunk pipeline does, failing at the interpreter's first
//!   failing row with the interpreter's message. An expression that does
//!   not type is rejected when planned and never compiled, so at least
//!   half of the generated expressions must type for the property to say
//!   much.
//! * **Engine level** (SQL through [`Database`]): the same statements run
//!   compiled and on the interpreted oracle, across worker counts,
//!   must return bit-identical relations — and failing statements must
//!   fail with the same message, because the chunk pipeline raises the
//!   interpreter's error of a chunk's first failing row and the scheduler
//!   reports the root cause, never a sibling's cancellation echo.

mod common;

use common::compare::{canon, canon_rows, metric, sweep};
use common::corpus::{self, Statement, SHORT_CIRCUIT_RESIDUAL, MIXED_FILTER, MIXED_JOIN_AGG};
use common::fixtures::Fixture;
use common::lattice::{self, cell, interpreted};
use lardb::{Partitioning, Row, Value};
use lardb_exec::batch::ColumnBatch;
use lardb_exec::compile::Program;
use lardb_exec::eval::eval;
use lardb_planner::{CmpOp, Expr};
use lardb_storage::ops::ArithOp;
use lardb_storage::{Column, DataType, Schema};
use proptest::prelude::*;

const ARITY: usize = 3;

// ------------------------------------------------------ unit differential

/// splitmix64: tiny deterministic generator for expression/batch shapes
/// (the vendored proptest provides scalar strategies only).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The column and literal types the generator draws, the numeric ones
/// most often.
const TYPES: [DataType; 9] = [
    DataType::Integer,
    DataType::Integer,
    DataType::Integer,
    DataType::Double,
    DataType::Double,
    DataType::Double,
    DataType::Double,
    DataType::Boolean,
    DataType::Varchar,
];

/// A value of type `t`, NULL one time in nine.
fn gen_typed(g: &mut Gen, t: DataType) -> Value {
    if g.below(9) == 0 {
        return Value::Null;
    }
    match t {
        DataType::Integer => Value::Integer(g.below(13) as i64 - 6),
        DataType::Double => {
            Value::Double([0.0, -0.0, 1.5, -3.25, 0.125, f64::NAN][g.below(6) as usize])
        }
        DataType::Boolean => Value::Boolean(g.below(2) == 0),
        _ => Value::Varchar(["s", "t"][g.below(2) as usize].into()),
    }
}

/// A literal of any type the columns draw, or NULL.
fn gen_value(g: &mut Gen) -> Value {
    let t = TYPES[g.below(TYPES.len() as u64) as usize];
    gen_typed(g, t)
}

/// A random expression over `schema`'s columns. Each operator is drawn
/// up to three times over the same operands, and the first that types
/// over them is kept, so most expressions type and the rest are the
/// planner's to reject.
fn gen_expr(g: &mut Gen, schema: &Schema, depth: u32) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        return if g.below(2) == 0 {
            Expr::col(g.below(ARITY as u64) as usize)
        } else {
            Expr::lit(gen_value(g))
        };
    }
    let l = gen_expr(g, schema, depth - 1);
    let r = gen_expr(g, schema, depth - 1);
    let mut node = gen_op(g, l.clone(), r.clone());
    for _ in 0..2 {
        if node.infer_type(schema).is_ok() {
            break;
        }
        node = gen_op(g, l.clone(), r.clone());
    }
    node
}

/// A random operator over `l` (and `r`, if it takes two operands).
fn gen_op(g: &mut Gen, l: Expr, r: Expr) -> Expr {
    match g.below(6) {
        0 => Expr::arith(
            [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][g.below(4) as usize],
            l,
            r,
        ),
        1 => Expr::cmp(
            [CmpOp::Eq, CmpOp::NotEq, CmpOp::Lt, CmpOp::LtEq, CmpOp::Gt, CmpOp::GtEq]
                [g.below(6) as usize],
            l,
            r,
        ),
        2 => Expr::And(Box::new(l), Box::new(r)),
        3 => Expr::Or(Box::new(l), Box::new(r)),
        4 => Expr::Not(Box::new(l)),
        _ => Expr::Negate(Box::new(l)),
    }
}

/// A schema of [`ARITY`] columns of drawn types, and rows conforming to it.
fn gen_rows(g: &mut Gen) -> (Schema, Vec<Row>) {
    let types: Vec<DataType> =
        (0..ARITY).map(|_| TYPES[g.below(TYPES.len() as u64) as usize]).collect();
    let n = g.below(7) as usize; // 0..=6: zero-length batches included
    let rows = (0..n).map(|_| Row::new(types.iter().map(|&t| gen_typed(g, t)).collect()));
    let rows = rows.collect();
    (Schema::new(types.into_iter().map(|t| Column::new("c", t)).collect()), rows)
}

/// One differential case: an expression, and a batch of rows of a
/// schema, pivoted with it.
fn gen_case(seed: u64) -> (Expr, Schema, Vec<Row>, ColumnBatch) {
    let mut g = Gen(seed);
    let (schema, rows) = gen_rows(&mut g);
    let expr = gen_expr(&mut g, &schema, 3);
    let batch = ColumnBatch::pivot(&rows, &schema).expect("the rows conform to their schema");
    (expr, schema, rows, batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled program answers as the interpreter, values and
    /// errors: run over the batch, and over its first `L` rows again
    /// whenever it fails at lane `L` (the chunk pipeline's cut), it either
    /// succeeds on every row bit for bit, or its last cut is the
    /// interpreter's first failing row, with that row's message, and every
    /// row before it is bit-identical.
    #[test]
    fn compiled_matches_the_interpreter_on_values_and_errors(seed in 0u64..u64::MAX) {
        let (expr, schema, rows, _) = gen_case(seed);
        // An untyped expression never reaches the executor.
        let Ok(prog) = Program::compile(&expr, &schema) else { return Ok(()) };
        let want: Vec<_> = rows.iter().map(|row| eval(&expr, row)).collect();
        let first_failing = want.iter().position(Result::is_err);
        let (mut n, mut failed) = (rows.len(), None);
        let col = loop {
            let batch = ColumnBatch::pivot(&rows[..n], &schema).expect("rows conform");
            match prog.eval(batch.cols(), n, None) {
                Ok(col) => break col,
                Err(e) => {
                    let lane = e.lane.expect("a typed program raises no internal error");
                    prop_assert!(lane < n, "lane {lane} of {n}");
                    failed = Some((lane, e.error.to_string()));
                    n = lane;
                }
            }
        };
        match (&failed, first_failing) {
            (None, None) => {}
            (Some((lane, message)), Some(row)) => {
                let want = want[row].as_ref().unwrap_err().to_string();
                prop_assert!(*lane == row, "{expr:?}: lane {lane}, interpreter row {row}");
                prop_assert!(*message == want, "{expr:?}: {message} != {want}");
            }
            (failed, row) => {
                prop_assert!(false, "{expr:?}: compiled {failed:?}, interpreter row {row:?}")
            }
        }
        for (i, want) in want.iter().enumerate().take(n) {
            let got = canon(&col.value_at(i));
            let want = canon(want.as_ref().expect("before the first failing row"));
            prop_assert!(got == want, "lane {i} of {expr:?}: {got} != {want}");
        }
    }

    /// Selection vectors restrict evaluation to the selected lanes and
    /// stay bit-identical there.
    #[test]
    fn compiled_respects_selection(seed in 0u64..u64::MAX) {
        let (expr, schema, rows, batch) = gen_case(seed);
        let sel: Vec<u32> = (0..rows.len() as u32).step_by(2).collect();
        let Ok(prog) = Program::compile(&expr, &schema) else { return Ok(()) };
        if let Ok(col) = prog.eval(batch.cols(), rows.len(), Some(&sel)) {
            for &i in &sel {
                let want = eval(&expr, &rows[i as usize])
                    .expect("a program that succeeds ran no row that fails");
                let got = canon(&col.value_at(i as usize));
                let want = canon(&want);
                prop_assert!(got == want, "lane {i} of {expr:?}: {got} != {want}");
            }
        }
    }
}

/// The share of the generated cases whose expression types, and so
/// compiles to a program that can succeed: at least half of them.
#[test]
fn most_generated_expressions_type() {
    let cases = 256;
    let typed = (0..cases)
        .filter(|&seed| {
            let (expr, schema, ..) = gen_case(seed);
            expr.infer_type(&schema).is_ok()
        })
        .count();
    println!("{typed} of {cases} generated expressions type");
    assert!(2 * typed >= cases as usize, "{typed} of {cases} generated expressions type");
}

#[test]
fn zero_length_batch_evaluates_to_empty_column() {
    let rows: Vec<Row> = Vec::new();
    let batch = ColumnBatch::from_rows(&rows).unwrap();
    let e = Expr::arith(ArithOp::Add, Expr::col(0), Expr::lit(1i64));
    // Column 0 is out of range on a zero-arity schema: it does not
    // compile, rather than fabricate lanes.
    assert!(Program::compile(&e, &Schema::new(Vec::new())).is_err());
    // A literal-only program over zero lanes succeeds with zero lanes.
    let lit = Expr::lit(2.5f64);
    let prog = Program::compile(&lit, &Schema::new(Vec::new())).unwrap();
    let col = prog.eval(batch.cols(), 0, None).unwrap();
    assert_eq!(col.len(), 0);
}

// ---------------------------------------------------- engine differential

/// Compiled and interpreted on one worker and on four, at 8-row batches:
/// 400 rows cross many chunk boundaries within each partition.
fn engine_cells() -> Vec<lattice::Cell> {
    let mut cells = Vec::new();
    for workers in [1usize, 4] {
        let compiled = cell(|c| {
            c.workers = workers;
            c.batch_rows = 8;
        });
        cells.extend([compiled.clone(), interpreted(compiled)]);
    }
    cells
}

/// This suite's own statements over the mixed fixture, swept beside the
/// corpus's but outside it (so the counters golden does not run them):
/// * a predicate that would lean on a lenient `AND` taking the INTEGER
///   `g` as not FALSE: it does not type, so the planner rejects it;
/// * a chain that fails in two stages: the Filter overflows on `edge`'s
///   second row, the Project divides by zero on its first. Both engines
///   report the first failing row's error, the Project's.
const OWN: [Statement; 2] = [
    Statement {
        sql: "SELECT id FROM t WHERE (g AND v < 0.0) OR id = 307",
        fails_with: Some("left operand of AND/OR must be BOOLEAN, got INTEGER"),
    },
    Statement {
        sql: "SELECT 10 / (b - 1) AS q FROM edge WHERE b + b > 0",
        fails_with: Some("division by zero"),
    },
];

/// Statements that succeed return bit-identical relations, and failing
/// ones fail with the same message: workers race to fail first and the
/// losers see the flipped token, but the query reports the root cause,
/// not the echo.
#[test]
fn compiled_matches_interpreter_across_configs() {
    let statements = [corpus::on(Fixture::Mixed), OWN.to_vec()].concat();
    sweep(Fixture::Mixed, statements, &engine_cells());
}

/// Every axis alone: the failing statements among them must report the
/// oracle's message under a serialized transport, a 1 MiB budget, one-row
/// batches and a 64-thread pool as well.
#[test]
fn every_axis_alone_matches_the_oracle_on_mixed_and_nan() {
    for fixture in [Fixture::Mixed, Fixture::Nan] {
        sweep(fixture, corpus::on(fixture), &lattice::single_axis());
    }
}

#[test]
fn compiled_engine_is_deterministic_across_runs() {
    let db = Fixture::Mixed.open(&cell(|c| c.batch_rows = 16));
    let q = "SELECT g, AVG(v) AS a, SUM(v) AS s FROM t WHERE id < 390 GROUP BY g";
    let reference = canon_rows(&db.query(q).unwrap());
    for run in 1..5 {
        assert_eq!(canon_rows(&db.query(q).unwrap()), reference, "run {run} diverged");
    }
}

#[test]
fn batch_rows_knob_does_not_change_results() {
    let cells = [1usize, 7, 64, 4096].map(|rows| cell(|c| c.batch_rows = rows));
    sweep(Fixture::Mixed, corpus::named(&[MIXED_FILTER]), &cells);
}

#[test]
fn vectorized_counters_surface_in_stats_and_metrics() {
    let db = Fixture::Mixed.open(&cell(|c| c.batch_rows = 16));
    let r = db.query("SELECT id FROM t WHERE v > -50.0").unwrap();
    assert!(r.stats.total_batches() > 0, "vectorized filter should report batches");
    assert!(r.stats.total_kernels() > 0, "vectorized filter should report kernels");
    assert!(
        r.stats.display_table().contains("vec:"),
        "display_table should carry the vec sub-line:\n{}",
        r.stats.display_table()
    );
    for name in ["exec.batch.batches", "exec.batch.rows", "exec.batch.kernels"] {
        metric(&db, name);
    }
    // A join→aggregate feeds its joined rows through the same compiled
    // pipeline.
    let rj = db.query(MIXED_JOIN_AGG).unwrap();
    assert!(rj.stats.total_batches() > 0, "join→aggregate should report batches");
    // A residual whose right operand divides by zero on lanes its left
    // one decides short-circuits there: every chunk is a batch, and the
    // rows are the oracle's.
    let rd = db.query(SHORT_CIRCUIT_RESIDUAL).unwrap();
    assert!(rd.stats.total_batches() > 0, "the residual's chunks should be batches");
    let oracle = Fixture::Mixed.open(&lattice::oracle());
    assert_eq!(canon_rows(&rd), canon_rows(&oracle.query(SHORT_CIRCUIT_RESIDUAL).unwrap()));
    // SHOW METRICS lists no fallback counter.
    let shown = db.query("SHOW METRICS").unwrap();
    let names: Vec<String> = shown.rows.iter().map(|row| row.value(0).to_string()).collect();
    assert!(!names.iter().any(|n| n.contains("fallback")), "{names:?}");
    // The interpreted oracle reports no vectorized work.
    let idb = Fixture::Mixed.open(&interpreted(cell(|c| c.batch_rows = 16)));
    for q in ["SELECT id FROM t WHERE v > -50.0", MIXED_JOIN_AGG] {
        let ri = idb.query(q).unwrap();
        assert_eq!(ri.stats.total_batches(), 0, "{q}");
        assert_eq!(ri.stats.total_kernels(), 0, "{q}");
    }
}

/// A chunk reports its first failing row, across the chain and the fold:
/// the SUM overflows on every partition's second row, the WHERE divides
/// by zero on a later row of the same partition. The overflow comes
/// first, so it is the error at every worker count and batch size —
/// where a chunk holds both rows, after cutting it at the division and
/// folding what is before.
#[test]
fn the_first_failing_row_wins_across_chain_and_fold() {
    let sql = "SELECT SUM(id + 9223372036854775000) AS s FROM f WHERE 10 / d > 0";
    for workers in [1usize, 4] {
        for batch_rows in [1usize, 16, 1024] {
            let compiled = cell(|c| {
                c.workers = workers;
                c.batch_rows = batch_rows;
            });
            for cell in [interpreted(compiled.clone()), compiled] {
                let db = cell.open();
                let int = DataType::Integer;
                let schema = Schema::from_pairs(&[("id", int), ("d", int)]);
                db.create_table("f", schema, Partitioning::RoundRobin).unwrap();
                // Rows 40.. divide by zero: partition p's rows p, p + 4, ...
                // reach them at its eleventh row (its 41st on one worker).
                let rows = (0..64i64).map(|i| {
                    Row::new(vec![Value::Integer(i), Value::Integer(i64::from(i < 40))])
                });
                db.insert_rows("f", rows.collect::<Vec<_>>()).unwrap();
                let err = db.query(sql).expect_err("must fail").to_string();
                assert!(err.contains("integer overflow in +"), "{}: {err}", cell.name);
            }
        }
    }
}

/// A NaN group key is one group: the table compares key doubles by
/// canonical bits (every NaN one key, `-0.0` folded into `0.0`), while
/// `=` predicates and join keys keep `NaN <> NaN`. The exchange in front
/// of the final aggregate routes every NaN to one worker for the same
/// reason.
#[test]
fn nan_group_key_is_one_group() {
    for run in sweep(Fixture::Nan, corpus::on(Fixture::Nan), &engine_cells()) {
        let groups: Vec<usize> = (0..3).map(|i| run.result(i).rows.len()).collect();
        assert_eq!(groups, [2, 3000, 3], "{}", run.cell.name);
        // NaN still equals nothing outside the group table.
        assert_eq!(run.result(3).rows[0].value(0), &Value::Integer(5), "{}", run.cell.name);
    }
}
