//! Differential tests: the compiled vectorized engine vs the row
//! interpreter.
//!
//! Two layers, matching the engine's correctness argument:
//!
//! * **Bytecode vs tree walker** (proptest): for random expression trees
//!   over random column batches — NULLs, mixed types, zero-length batches
//!   included — whenever the compiled program evaluates a batch
//!   successfully, every lane must be *bit-identical* (`-0.0` and NaN
//!   payloads included) to the interpreter's per-row answer. When the
//!   program errors, the executor replays the chunk through the
//!   interpreter and takes its result, so a program error is never a
//!   wrong answer — which is exactly why success-implies-identical is the
//!   whole invariant at this layer.
//! * **Engine level** (SQL through [`Database`]): the same statements run
//!   under `ExprEngine::Interpret` and `Compiled`, across worker counts,
//!   must return bit-identical relations — and failing statements must
//!   fail with the same message, because the per-chunk fallback hands
//!   errors to the interpreter and the scheduler reports the root cause,
//!   never a sibling's cancellation echo.

use lardb::{
    Database, DatabaseConfig, DataType, ExprEngine, Partitioning, QueryResult, Row,
    Schema, Value,
};
use lardb_exec::batch::ColumnBatch;
use lardb_exec::compile::Program;
use lardb_exec::eval::eval;
use lardb_planner::{CmpOp, Expr};
use lardb_storage::ops::ArithOp;
use proptest::prelude::*;

const ARITY: usize = 3;

/// Canonical rendering with exact float bits, so `-0.0 != 0.0` and NaN
/// payloads are compared faithfully.
fn canon(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("D:{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    }
}

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

fn gen_value(g: &mut Gen) -> Value {
    match g.below(9) {
        0 => Value::Null,
        1..=3 => Value::Integer(g.below(13) as i64 - 6),
        4..=6 => Value::Double([0.0, -0.0, 1.5, -3.25, 0.125, f64::NAN][g.below(6) as usize]),
        7 => Value::Boolean(g.below(2) == 0),
        _ => Value::Varchar(["s", "t"][g.below(2) as usize].into()),
    }
}

fn gen_expr(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        return if g.below(2) == 0 {
            Expr::col(g.below(ARITY as u64) as usize)
        } else {
            Expr::lit(gen_value(g))
        };
    }
    let l = gen_expr(g, depth - 1);
    let r = gen_expr(g, depth - 1);
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

fn gen_rows(g: &mut Gen) -> Vec<Row> {
    let n = g.below(7) as usize; // 0..=6: zero-length batches included
    (0..n).map(|_| Row::new((0..ARITY).map(|_| gen_value(g)).collect())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled success ⇒ bit-identical to the interpreter, lane by lane.
    /// On Err the executor replays the chunk through the interpreter and
    /// takes its result, so a program error is by construction never a
    /// wrong answer — success-implies-identical is the whole invariant.
    #[test]
    fn compiled_success_is_bit_identical(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let expr = gen_expr(&mut g, 3);
        let rows = gen_rows(&mut g);
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let prog = Program::compile(&expr);
        let mut scratch = Vec::new();
        if let Ok(col) = prog.eval(batch.cols(), rows.len(), None, &mut scratch) {
            for (i, row) in rows.iter().enumerate() {
                let want = eval(&expr, row).expect(
                    "compiled program succeeded on a batch whose row errors under \
                     the interpreter — the fallback rule cannot mask this",
                );
                let got = canon(&col.value_at(i));
                let want = canon(&want);
                prop_assert!(got == want, "lane {i} of {expr:?}: {got} != {want}");
            }
        }
    }

    /// Selection vectors restrict evaluation to the selected lanes and
    /// stay bit-identical there.
    #[test]
    fn compiled_respects_selection(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let expr = gen_expr(&mut g, 3);
        let rows = gen_rows(&mut g);
        let batch = ColumnBatch::from_rows(&rows).unwrap();
        let sel: Vec<u32> = (0..rows.len() as u32).step_by(2).collect();
        let prog = Program::compile(&expr);
        let mut scratch = Vec::new();
        if let Ok(col) = prog.eval(batch.cols(), rows.len(), Some(&sel), &mut scratch) {
            for &i in &sel {
                let want = eval(&expr, &rows[i as usize]).expect("fallback masks errors");
                let got = canon(&col.value_at(i as usize));
                let want = canon(&want);
                prop_assert!(got == want, "lane {i} of {expr:?}: {got} != {want}");
            }
        }
    }
}

#[test]
fn zero_length_batch_evaluates_to_empty_column() {
    let rows: Vec<Row> = Vec::new();
    let batch = ColumnBatch::from_rows(&rows).unwrap();
    let e = Expr::arith(ArithOp::Add, Expr::col(0), Expr::lit(1i64));
    let prog = Program::compile(&e);
    let mut scratch = Vec::new();
    // Column 0 is out of range on a zero-arity batch: the program must
    // error (and the executor would fall back), not fabricate lanes.
    assert!(prog.eval(batch.cols(), 0, None, &mut scratch).is_err());
    // A literal-only program over zero lanes succeeds with zero lanes.
    let lit = Expr::lit(2.5f64);
    let prog = Program::compile(&lit);
    let col = prog.eval(batch.cols(), 0, None, &mut scratch).unwrap();
    assert_eq!(col.len(), 0);
}

// ---------------------------------------------------- engine differential

/// Mixed-type table: exact-in-float doubles (halves) so aggregate results
/// are order-independent, NULLs in every column, and a VARCHAR column for
/// type-error statements.
fn seed_db(config: DatabaseConfig) -> Database {
    let db = Database::with_config(config);
    db.create_table(
        "t",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("g", DataType::Integer),
            ("v", DataType::Double),
            ("s", DataType::Varchar),
        ]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let rows = (0..400i64).map(|i| {
        Row::new(vec![
            Value::Integer(i),
            if i % 11 == 0 { Value::Null } else { Value::Integer(i % 7) },
            if i % 13 == 0 { Value::Null } else { Value::Double(i as f64 * 0.5 - 100.0) },
            Value::Varchar(format!("s{}", i % 3).into()),
        ])
    });
    db.insert_rows("t", rows).unwrap();
    db.create_table(
        "empty",
        Schema::from_pairs(&[("x", DataType::Integer), ("y", DataType::Double)]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db
}

fn config(workers: usize, engine: ExprEngine) -> DatabaseConfig {
    DatabaseConfig {
        workers,
        expr_engine: engine,
        // Tiny batches and morsels so even 400 rows cross many chunk and
        // steal boundaries; CI's `LARDB_BATCH_ROWS=1` row makes every row
        // (and every joined pair) its own chunk.
        batch_rows: DatabaseConfig::default().batch_rows.min(16),
        morsel_rows: 32,
        pool_workers: Some(4),
        ..DatabaseConfig::default()
    }
}

fn canon_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.values().iter().map(canon).collect::<Vec<_>>().join("|")
        })
        .collect();
    rows.sort();
    rows
}

const STATEMENTS: &[&str] = &[
    // Filter + project with arithmetic, NULLs flowing through 3VL.
    "SELECT id * 2, v + 0.5, v * v - id FROM t WHERE v > -50.0 AND id < 350",
    // Eager OR/AND over NULL-bearing predicates.
    "SELECT id FROM t WHERE g = 3 OR v < -90.0",
    "SELECT id, g FROM t WHERE NOT (g = 2) AND v <= 50.0",
    // Highly selective and empty-result filters.
    "SELECT id FROM t WHERE v = 0.0",
    "SELECT id FROM t WHERE v > 1e18",
    // Fused filter→aggregate (halves are exact in f64, so SUM order is
    // immaterial).
    "SELECT g, COUNT(*) AS c, SUM(v) AS sv, MIN(v) AS mn FROM t WHERE id >= 10 GROUP BY g",
    // Global aggregate, and one over an empty input.
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v < -98.0",
    "SELECT COUNT(*) AS n, SUM(y) AS s FROM empty",
    "SELECT x, y * 2.0 FROM empty WHERE x > 0",
    // Projection only (no filter in the chain).
    "SELECT v - 1.0, id + g FROM t",
    // Fused join→aggregate: a self equi-join with NULL keys and NULL
    // values (products of halves are exact, so SUM order is immaterial).
    "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c FROM t AS a, t AS b
     WHERE a.g = b.g GROUP BY a.g",
    // A cross join with a projection and a filter between join and
    // aggregate.
    "SELECT k, COUNT(*) AS c, SUM(p) AS sp
     FROM (SELECT a.g + b.g AS k, a.v * b.v AS p FROM t AS a, t AS b
           WHERE a.id < 40 AND b.id >= 350) AS j
     WHERE p > -8000.0 GROUP BY k",
    // Joins with an empty side: no groups, and the one global row.
    "SELECT a.g, COUNT(*) AS c, SUM(e.y) AS sy FROM t AS a, empty AS e
     WHERE a.id = e.x GROUP BY a.g",
    "SELECT COUNT(*) AS c, SUM(e.y) AS sy FROM t AS a, empty AS e WHERE a.id = e.x",
    // Join residuals, evaluated on the pair chunk ahead of the chain: under
    // a hash join; under a nested loop, NULL on the pairs with a NULL `v`;
    // and one that rejects every pair of most 16-pair chunks.
    "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c FROM t AS a, t AS b
     WHERE a.g = b.g AND a.id <> b.id GROUP BY a.g",
    "SELECT a.g, COUNT(*) AS c, SUM(a.v + b.v) AS s FROM t AS a, t AS b
     WHERE a.id < 40 AND b.id >= 350 AND a.v + b.v < 0.0 GROUP BY a.g",
    "SELECT a.g, COUNT(*) AS c, MIN(b.v) AS m FROM t AS a, t AS b
     WHERE a.g = b.g AND b.id > a.id + 300 GROUP BY a.g",
    DECLINED_RESIDUAL,
];

/// A residual the eager kernels decline on every chunk holding an
/// `a.id = b.id` pair (they divide by zero where the interpreter
/// short-circuits), over chunks with a boxed VARCHAR column.
const DECLINED_RESIDUAL: &str = "SELECT a.s, COUNT(*) AS c FROM t AS a, t AS b
     WHERE a.g = b.g AND (a.id = b.id OR 1000 / (a.id - b.id) > 3) GROUP BY a.s";

/// Statements that must fail under both engines with the same error,
/// each with a fragment that error carries.
const FAILING: &[(&str, &str)] = &[
    // VARCHAR arithmetic: rejected by the binder, or at run time by the
    // shared ops table.
    ("SELECT s + 1 FROM t", "operator + undefined"),
    ("SELECT id FROM t WHERE s * 2 > 0", "cannot apply *"),
    // The same under a join→aggregate, and an argument that only fails
    // when evaluated (the kernel declines, the interpreter's replay of
    // the chunk raises).
    (
        "SELECT a.g, SUM(a.s + 1) AS x FROM t AS a, t AS b WHERE a.id = b.id GROUP BY a.g",
        "operator + undefined",
    ),
    (
        "SELECT a.g, SUM(a.id / (b.id - b.id)) AS x FROM t AS a, t AS b
         WHERE a.id = b.id GROUP BY a.g",
        "integer division by zero",
    ),
    // INTEGER arithmetic leaving the 64-bit range: a product, `-MIN`,
    // `MIN / -1`, and a SUM whose terms each fit (plain and under the
    // join→aggregate). A typed error in debug and release builds alike,
    // not a caught worker panic or a wrapped value.
    ("SELECT id * 9223372036854775807 FROM t", "integer overflow in *"),
    ("SELECT -(id - 9223372036854775807 - 1) FROM t", "integer overflow in -"),
    ("SELECT (id - 9223372036854775807 - 1) / -1 FROM t", "integer overflow in /"),
    ("SELECT SUM(id + 9223372036854775000) AS s FROM t", "integer overflow in +"),
    (
        "SELECT a.g, SUM(a.id + 9223372036854775000) AS x FROM t AS a, t AS b
         WHERE a.id = b.id GROUP BY a.g",
        "integer overflow in +",
    ),
    // The same SUM under a join that has a residual, and a residual that
    // divides by zero on one pair (ids 8 and 15 share g = 1).
    (
        "SELECT a.g, SUM(a.id + 9223372036854775000) AS x FROM t AS a, t AS b
         WHERE a.g = b.g AND a.id <> b.id GROUP BY a.g",
        "integer overflow in +",
    ),
    (
        "SELECT COUNT(*) AS c FROM t AS a, t AS b WHERE a.g = b.g
         AND 1 / ((a.id - 8) * (a.id - 8) + (b.id - 15) * (b.id - 15)) >= 0",
        "integer division by zero",
    ),
];

#[test]
fn compiled_matches_interpreter_across_configs() {
    for workers in [1usize, 4] {
        let compiled = seed_db(config(workers, ExprEngine::Compiled));
        let interp = seed_db(config(workers, ExprEngine::Interpret));
        for q in STATEMENTS {
            let got = compiled.query(q).unwrap();
            let want = interp.query(q).unwrap();
            assert_eq!(canon_rows(&got), canon_rows(&want), "W={workers} query={q}");
        }
        for (q, fragment) in FAILING {
            let got = compiled.query(q).expect_err("compiled should fail").to_string();
            let want = interp.query(q).expect_err("interpret should fail").to_string();
            // Workers race to fail first and the losers see the flipped
            // token, but the query reports the root cause, not the echo.
            assert_eq!(got, want, "W={workers} query={q}");
            assert!(got.contains(fragment), "W={workers} query={q}: {got}");
        }
    }
}

#[test]
fn compiled_engine_is_deterministic_across_runs() {
    let db = seed_db(config(4, ExprEngine::Compiled));
    let q = "SELECT g, AVG(v) AS a, SUM(v) AS s FROM t WHERE id < 390 GROUP BY g";
    let reference = canon_rows(&db.query(q).unwrap());
    for run in 1..5 {
        assert_eq!(canon_rows(&db.query(q).unwrap()), reference, "run {run} diverged");
    }
}

#[test]
fn batch_rows_knob_does_not_change_results() {
    let mut cfgs = Vec::new();
    for rows in [1usize, 7, 64, 4096] {
        let mut c = config(4, ExprEngine::Compiled);
        c.batch_rows = rows;
        cfgs.push((rows, seed_db(c)));
    }
    let q = "SELECT id, v * 2.0 FROM t WHERE v > -80.0 AND g <= 5";
    let reference = canon_rows(&cfgs[0].1.query(q).unwrap());
    for (rows, db) in &cfgs[1..] {
        assert_eq!(canon_rows(&db.query(q).unwrap()), reference, "batch_rows={rows}");
    }
}

#[test]
fn vectorized_counters_surface_in_stats_and_metrics() {
    let db = seed_db(config(4, ExprEngine::Compiled));
    let r = db.query("SELECT id FROM t WHERE v > -50.0").unwrap();
    assert!(r.stats.total_batches() > 0, "vectorized filter should report batches");
    assert!(r.stats.total_kernels() > 0, "vectorized filter should report kernels");
    assert!(
        r.stats.display_table().contains("vec:"),
        "display_table should carry the vec sub-line:\n{}",
        r.stats.display_table()
    );
    let metrics = db.query("SHOW METRICS").unwrap();
    let names: Vec<String> =
        metrics.rows.iter().map(|row| row.value(0).to_string()).collect();
    for metric in ["exec.batch.batches", "exec.batch.rows", "exec.batch.kernels"] {
        assert!(
            names.iter().any(|n| n == metric),
            "metric {metric} missing from SHOW METRICS: {names:?}"
        );
    }
    // A join→aggregate feeds its joined rows through the same compiled
    // pipeline.
    let join_agg = "SELECT a.g, SUM(a.v * b.v) AS s FROM t AS a, t AS b \
                    WHERE a.id = b.id GROUP BY a.g";
    let rj = db.query(join_agg).unwrap();
    assert!(rj.stats.total_batches() > 0, "join→aggregate should report batches");
    assert_eq!(rj.stats.total_fallbacks(), 0);
    // A declined pair chunk is counted, replayed, and not a batch.
    let rd = db.query(DECLINED_RESIDUAL).unwrap();
    assert!(rd.stats.total_fallbacks() > 0, "the residual kernel should decline");
    // The interpreted engine reports no vectorized work.
    let idb = seed_db(config(4, ExprEngine::Interpret));
    for q in ["SELECT id FROM t WHERE v > -50.0", join_agg] {
        let ri = idb.query(q).unwrap();
        assert_eq!(ri.stats.total_batches(), 0, "{q}");
        assert_eq!(ri.stats.total_kernels(), 0, "{q}");
    }
}

/// A NaN group key is one group: the table compares key doubles by
/// canonical bits (every NaN one key, `-0.0` folded into `0.0`), while
/// `=` predicates and join keys keep `NaN <> NaN`. The exchange in front
/// of the final aggregate routes every NaN to one worker for the same
/// reason.
#[test]
fn nan_group_key_is_one_group() {
    for workers in [1usize, 4] {
        let dbs = [ExprEngine::Compiled, ExprEngine::Interpret].map(|engine| {
            let db = seed_db(config(workers, engine));
            let doubles = Schema::from_pairs(&[("v", DataType::Double)]);
            db.create_table("z", doubles.clone(), Partitioning::RoundRobin).unwrap();
            let z = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0];
            db.insert_rows("z", z.map(|v| Row::new(vec![Value::Double(v)]))).unwrap();
            db.create_table(
                "p",
                Schema::from_pairs(&[("payload", DataType::Integer), ("v", DataType::Double)]),
                Partitioning::Hash(0),
            )
            .unwrap();
            db.insert_rows(
                "p",
                (0..6000i64)
                    .map(|i| Row::new(vec![Value::Integer(i % 3000), Value::Double(i as f64)])),
            )
            .unwrap();
            // Stored NaNs of different sign and payload, and both zeros.
            db.create_table("n", doubles, Partitioning::RoundRobin).unwrap();
            let n = [0x7FF8_0000_0000_0000u64, 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_00AB];
            let n = n.map(f64::from_bits).into_iter().chain([0.0, -0.0, f64::NAN, 2.5]);
            db.insert_rows("n", n.map(|v| Row::new(vec![Value::Double(v)]))).unwrap();
            db
        });
        for (q, groups) in [
            ("SELECT v / v AS k, COUNT(*) AS c FROM z GROUP BY v / v", 2),
            (
                "SELECT payload, (v - v) / (v - v) AS k, COUNT(*) AS c FROM p
                 GROUP BY payload, (v - v) / (v - v)",
                3000,
            ),
            ("SELECT v, COUNT(*) AS c FROM n GROUP BY v", 3),
        ] {
            let got = dbs[0].query(q).unwrap();
            let want = dbs[1].query(q).unwrap();
            assert_eq!(got.rows.len(), groups, "W={workers} query={q}");
            assert_eq!(canon_rows(&got), canon_rows(&want), "W={workers} query={q}");
        }
        // NaN still equals nothing outside the group table.
        let joined = dbs[0].query("SELECT COUNT(*) AS c FROM n AS a, n AS b WHERE a.v = b.v");
        assert_eq!(joined.unwrap().rows[0].value(0), &Value::Integer(5));
    }
}
