//! Optimizer plan-shape tests through the full engine: the §4.1 example
//! (early projection through a cross product beats the rule-based join
//! order) and the ablation knobs, with results checked for correctness in
//! every configuration.

use lardb::{
    DataType, Database, DatabaseConfig, Matrix, OptimizerConfig, Partitioning, Row, Schema,
    Value,
};

/// Scaled-down §4.1 schema: the declared matrix shapes make `R ⋈ᵣᵢ𝒹 T ⋈ₛᵢ𝒹 S`
/// carry ~10 KB matrices per row while `matrix_multiply(r, s)` is 6 doubles.
/// |R| = |S| = 30, |T| = 3000 — T deliberately large so the intermediate
/// carrying matrices through T dwarfs everything else, as in the paper.
fn setup_rst(db: &Database) {
    db.create_table(
        "R",
        Schema::from_pairs(&[
            ("r_rid", DataType::Integer),
            ("r_matrix", DataType::Matrix(Some(2), Some(500))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.create_table(
        "S",
        Schema::from_pairs(&[
            ("s_sid", DataType::Integer),
            ("s_matrix", DataType::Matrix(Some(500), Some(3))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.create_table(
        "T",
        Schema::from_pairs(&[("t_rid", DataType::Integer), ("t_sid", DataType::Integer)]),
        Partitioning::RoundRobin,
    )
    .unwrap();

    for i in 0..30i64 {
        db.insert_rows(
            "R",
            [Row::new(vec![
                Value::Integer(i),
                Value::matrix(Matrix::filled(2, 500, (i + 1) as f64 * 1e-3)),
            ])],
        )
        .unwrap();
        db.insert_rows(
            "S",
            [Row::new(vec![
                Value::Integer(i),
                Value::matrix(Matrix::filled(500, 3, (i + 1) as f64 * 1e-3)),
            ])],
        )
        .unwrap();
    }
    for k in 0..3000i64 {
        db.insert_rows(
            "T",
            [Row::new(vec![Value::Integer(k % 30), Value::Integer((k * 7) % 30)])],
        )
        .unwrap();
    }
}

const RST_QUERY: &str = "SELECT matrix_multiply(r_matrix, s_matrix) AS prod
     FROM R, S, T
     WHERE r_rid = t_rid AND s_sid = t_sid";

/// Expected multiset of products, computed directly.
fn expected_products() -> Vec<f64> {
    // product of filled matrices: every entry = 500 * a * b where a, b are
    // the fill values; identify each result by its (0,0) entry.
    let mut out = Vec::new();
    for k in 0..3000i64 {
        let rid = (k % 30 + 1) as f64 * 1e-3;
        let sid = ((k * 7) % 30 + 1) as f64 * 1e-3;
        out.push(500.0 * rid * sid);
    }
    out.sort_by(f64::total_cmp);
    out
}

fn run_and_collect(db: &Database) -> Vec<f64> {
    let r = db.query(RST_QUERY).unwrap();
    assert_eq!(r.rows.len(), 3000);
    let mut got: Vec<f64> = r
        .rows
        .iter()
        .map(|row| {
            let m = row.value(0).as_matrix().unwrap();
            assert_eq!(m.shape(), (2, 3));
            m.get(0, 0).unwrap()
        })
        .collect();
    got.sort_by(f64::total_cmp);
    got
}

fn assert_close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-9, "{x} vs {y}");
    }
}

#[test]
fn paper_41_plan_uses_early_cross_product() {
    let db = Database::new(4);
    setup_rst(&db);
    let plan = db.explain(RST_QUERY).unwrap();
    // The winning plan evaluates matrix_multiply inside the tree (early
    // projection) and joins R with S *before* T — visible as a
    // `HashJoin cross` (the empty-key join) whose projection carries the
    // multiply.
    assert!(
        plan.contains("HashJoin cross"),
        "expected a cross product between R and S:\n{plan}"
    );
    let logical = plan.split("== Physical Plan ==").next().unwrap();
    let mm_line = logical
        .lines()
        .find(|l| l.contains("matrix_multiply"))
        .expect("plan must contain the multiply");
    // The multiply must not be in the top-level (root) projection: root is
    // indented zero levels.
    assert!(
        mm_line.starts_with("  "),
        "matrix_multiply should be pushed below the root:\n{plan}"
    );
    // And results are right.
    assert_close(&run_and_collect(&db), &expected_products());
}

#[test]
fn blind_optimizer_produces_rule_based_plan_but_same_answer() {
    let mut db = Database::with_config(DatabaseConfig {
        workers: 4,
        optimizer: OptimizerConfig { size_inference: false, ..Default::default() },
        ..DatabaseConfig::default()
    });
    setup_rst(&db);
    let plan = db.explain(RST_QUERY).unwrap();
    // Without size knowledge the optimizer avoids the cross product and
    // joins through T (π((S ⋈ T) ⋈ R)) — the paper's "bad plan".
    assert!(
        !plan.contains("HashJoin cross"),
        "blind optimizer should not choose the cross product:\n{plan}"
    );
    assert_close(&run_and_collect(&db), &expected_products());
    // Keep db mutable API exercised.
    db.set_optimizer_config(OptimizerConfig::default());
    assert_close(&run_and_collect(&db), &expected_products());
}

#[test]
fn no_early_projection_keeps_multiply_at_root_but_same_answer() {
    let db = Database::with_config(DatabaseConfig {
        workers: 4,
        optimizer: OptimizerConfig { early_projection: false, ..Default::default() },
        ..DatabaseConfig::default()
    });
    setup_rst(&db);
    let plan = db.explain(RST_QUERY).unwrap();
    let logical: Vec<&str> = plan
        .split("== Physical Plan ==")
        .next()
        .unwrap()
        .lines()
        .filter(|l| l.contains("matrix_multiply"))
        .collect();
    // The multiply appears exactly once, in the root projection (line
    // indented one level under the header).
    assert_eq!(logical.len(), 1, "{plan}");
    assert_close(&run_and_collect(&db), &expected_products());
}

#[test]
fn shuffle_volume_shrinks_with_early_projection() {
    // The quantitative §4.1 claim: early projection cuts the bytes moving
    // through the plan by orders of magnitude.
    let db_smart = Database::new(4);
    setup_rst(&db_smart);
    let smart = db_smart.query(RST_QUERY).unwrap();

    let db_blind = Database::with_config(DatabaseConfig {
        workers: 4,
        optimizer: OptimizerConfig { size_inference: false, ..Default::default() },
        ..DatabaseConfig::default()
    });
    setup_rst(&db_blind);
    let blind = db_blind.query(RST_QUERY).unwrap();

    let smart_bytes = smart.stats.total_bytes_shuffled();
    let blind_bytes = blind.stats.total_bytes_shuffled();
    assert!(
        smart_bytes * 10 < blind_bytes,
        "early projection should shuffle ≥10× less: smart={smart_bytes} blind={blind_bytes}"
    );
}

#[test]
fn single_table_predicates_are_pushed_below_joins() {
    let db = Database::new(2);
    db.execute("CREATE TABLE a (k INTEGER, v DOUBLE)").unwrap();
    db.execute("CREATE TABLE b (k INTEGER, w DOUBLE)").unwrap();
    for i in 0..20i64 {
        db.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({i}, {i})")).unwrap();
    }
    let plan = db
        .explain("SELECT a.v FROM a, b WHERE a.k = b.k AND a.v < 5 AND b.w > 2")
        .unwrap();
    let logical = plan.split("== Physical Plan ==").next().unwrap();
    // Both single-table filters should appear below the join, directly over
    // scans.
    let filter_count = logical.matches("Filter").count();
    assert!(filter_count >= 2, "{plan}");
    let r = db
        .query("SELECT a.v FROM a, b WHERE a.k = b.k AND a.v < 5 AND b.w > 2")
        .unwrap();
    assert_eq!(r.rows.len(), 2); // k ∈ {3, 4}
}

#[test]
fn prepartitioned_join_avoids_shuffling_that_side() {
    // §2.1's scenario: R pre-partitioned on the join key means only L moves.
    let db = Database::new(4);
    db.create_table(
        "hashed",
        Schema::from_pairs(&[("k", DataType::Integer), ("v", DataType::Double)]),
        Partitioning::Hash(0),
    )
    .unwrap();
    db.create_table(
        "rr",
        Schema::from_pairs(&[("k", DataType::Integer), ("w", DataType::Double)]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    for i in 0..40i64 {
        db.insert_rows(
            "hashed",
            [Row::new(vec![Value::Integer(i), Value::Double(i as f64)])],
        )
        .unwrap();
        db.insert_rows("rr", [Row::new(vec![Value::Integer(i), Value::Double(i as f64)])])
            .unwrap();
    }
    let plan = db
        .explain("SELECT hashed.v FROM hashed, rr WHERE hashed.k = rr.k")
        .unwrap();
    let physical = plan.split("== Physical Plan ==").nth(1).unwrap();
    let hash_exchanges = physical.matches("Exchange(Hash)").count();
    assert_eq!(hash_exchanges, 1, "only the round-robin side should move:\n{plan}");
    let r = db.query("SELECT hashed.v FROM hashed, rr WHERE hashed.k = rr.k").unwrap();
    assert_eq!(r.rows.len(), 40);
}

#[test]
fn four_way_join_order_is_correct() {
    // DP enumeration across 4 inputs; answer checked against a serial
    // computation.
    let db = Database::new(3);
    for t in ["t1", "t2", "t3", "t4"] {
        db.execute(&format!("CREATE TABLE {t} (k INTEGER, v INTEGER)")).unwrap();
    }
    for i in 0..15i64 {
        db.execute(&format!("INSERT INTO t1 VALUES ({i}, {})", i)).unwrap();
        db.execute(&format!("INSERT INTO t2 VALUES ({i}, {})", i * 2)).unwrap();
        db.execute(&format!("INSERT INTO t3 VALUES ({i}, {})", i * 3)).unwrap();
        db.execute(&format!("INSERT INTO t4 VALUES ({i}, {})", i * 4)).unwrap();
    }
    let r = db
        .query(
            "SELECT SUM(t1.v + t2.v + t3.v + t4.v) AS s
             FROM t1, t2, t3, t4
             WHERE t1.k = t2.k AND t2.k = t3.k AND t3.k = t4.k",
        )
        .unwrap();
    let expected: i64 = (0..15).map(|i| i + 2 * i + 3 * i + 4 * i).sum();
    assert_eq!(r.scalar().unwrap().as_integer(), Some(expected));
}

/// A join none of whose columns the root needs still projects one: the
/// optimizer keeps the column at the lowest input position, so every
/// optimization of the statement prints the same plan.
#[test]
fn an_empty_projection_keeps_the_same_column_every_time() {
    let db = Database::new(2);
    db.execute("CREATE TABLE n (v INTEGER)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO n VALUES ({i})")).unwrap();
    }
    let sql = "SELECT COUNT(*) FROM n AS a, n AS b WHERE a.v = b.v";
    let first = db.explain(sql).unwrap();
    assert!(first.contains("Project: a.v AS __keep"), "not the first column kept:\n{first}");
    for run in 1..20 {
        assert_eq!(db.explain(sql).unwrap(), first, "optimization {run}");
    }
    assert_eq!(db.query(sql).unwrap().scalar().unwrap().as_integer(), Some(10));
}
