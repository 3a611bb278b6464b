//! Morsel-scheduler equivalence and determinism tests.
//!
//! Morsel splitting and stealing must be a pure performance change: on
//! heavily skewed partitions (one partition holding ~90% of rows), across
//! worker counts and transports, execution over 16-row stolen morsels
//! must produce the same relations as one morsel per partition — and
//! repeated runs over stolen morsels must be bit-for-bit identical.

use lardb::{
    Database, DatabaseConfig, DataType, Partitioning, QueryResult, Row, Schema, Table,
    TransportMode, Value,
};

/// Builds a database whose `skew` table hash-partitions 90% of its rows
/// into a single partition, plus a small `dim` table to join against.
fn skewed_db(config: DatabaseConfig) -> Database {
    let workers = config.workers;
    let db = Database::with_config(config);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Integer),
        ("g", DataType::Integer),
        ("v", DataType::Double),
    ]);
    // Hash on `k`: the 900 rows with k = 0 all land in one partition.
    let mut t = Table::new("skew", schema, workers, Partitioning::Hash(0));
    for i in 0..900i64 {
        t.insert(Row::new(vec![
            Value::Integer(0),
            Value::Integer(i % 7),
            Value::Double(i as f64 * 0.25),
        ]))
        .unwrap();
    }
    for i in 0..100i64 {
        t.insert(Row::new(vec![
            Value::Integer(i + 1),
            Value::Integer(i % 7),
            Value::Double(i as f64 * 1.5),
        ]))
        .unwrap();
    }
    db.catalog().create_table(t).unwrap();

    let dim_schema =
        Schema::from_pairs(&[("g", DataType::Integer), ("label", DataType::Integer)]);
    let mut dim = Table::new("dim", dim_schema, workers, Partitioning::Hash(0));
    for g in 0..7i64 {
        dim.insert(Row::new(vec![Value::Integer(g), Value::Integer(g * 100)]))
            .unwrap();
    }
    db.catalog().create_table(dim).unwrap();
    db
}

/// Renders a result as sorted row strings (queries here avoid ORDER BY,
/// so compare as multisets).
fn sorted_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    rows.sort();
    rows
}

const QUERIES: &[&str] = &[
    // Scan + filter + project over the skewed partition.
    "SELECT k * 2 AS kk, g FROM skew WHERE k >= 10",
    // Group-by with integer aggregates (exact under any morsel split).
    "SELECT g, COUNT(*) AS c, SUM(k) AS s FROM skew GROUP BY g",
    // Global aggregate.
    "SELECT COUNT(*) AS n, SUM(g) AS sg FROM skew",
    // Hash join build + probe against the skewed probe side.
    "SELECT s.k, d.label FROM skew AS s, dim AS d WHERE s.g = d.g AND s.k >= 990",
];

/// Tiny morsels, so the 900-row partition splits into dozens of
/// stealable pieces even in a quick test.
const SPLIT: usize = 16;
/// One morsel per partition: the reference the split runs must match.
const WHOLE: usize = usize::MAX;

fn config(workers: usize, transport: TransportMode, morsel_rows: usize) -> DatabaseConfig {
    DatabaseConfig {
        workers,
        transport,
        morsel_rows,
        // Oversubscribed dedicated pool: on any core count, preemption
        // forces cross-queue stealing.
        pool_workers: Some(4),
        ..DatabaseConfig::default()
    }
}

#[test]
fn split_morsels_match_whole_partitions_on_skew() {
    for workers in [1usize, 4] {
        for transport in [TransportMode::Pointer, TransportMode::Serialized] {
            let split_db = skewed_db(config(workers, transport, SPLIT));
            let whole_db = skewed_db(config(workers, transport, WHOLE));
            for q in QUERIES {
                let got = split_db.query(q).unwrap();
                let want = whole_db.query(q).unwrap();
                assert_eq!(
                    sorted_rows(&got),
                    sorted_rows(&want),
                    "W={workers} transport={transport:?} query={q}"
                );
            }
        }
    }
}

#[test]
fn double_aggregates_match_within_tolerance() {
    // Morsel splitting re-associates float addition; sums must agree with
    // the one-morsel-per-partition run to rounding error only.
    let split_db = skewed_db(config(4, TransportMode::Pointer, SPLIT));
    let whole_db = skewed_db(config(4, TransportMode::Pointer, WHOLE));
    let q = "SELECT SUM(v) AS s FROM skew";
    let got = split_db.query(q).unwrap().scalar().unwrap().as_double().unwrap();
    let want = whole_db.query(q).unwrap().scalar().unwrap().as_double().unwrap();
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "split {got} vs whole {want}"
    );
}

#[test]
fn repeated_grouped_aggregation_is_deterministic() {
    // Per-partition partials merge in ascending morsel order no matter
    // which worker ran which morsel, so repeated runs are bit-identical —
    // including float AVG states.
    let db = skewed_db(config(4, TransportMode::Pointer, SPLIT));
    let q = "SELECT g, AVG(v) AS a, SUM(v) AS s, COUNT(*) AS c FROM skew GROUP BY g";
    let first = db.query(q).unwrap();
    let reference: Vec<Vec<Value>> =
        first.rows.iter().map(|r| r.values().to_vec()).collect();
    for run in 1..5 {
        let again = db.query(q).unwrap();
        let rows: Vec<Vec<Value>> =
            again.rows.iter().map(|r| r.values().to_vec()).collect();
        assert_eq!(rows, reference, "run {run} diverged");
    }
}

#[test]
fn pool_metrics_surface_in_show_metrics() {
    let db = skewed_db(config(4, TransportMode::Pointer, SPLIT));
    db.query("SELECT g, COUNT(*) AS c FROM skew GROUP BY g").unwrap();
    let r = db.query("SHOW METRICS").unwrap();
    let names: Vec<String> = r.rows.iter().map(|row| row.value(0).to_string()).collect();
    for metric in
        ["pool.morsels", "pool.steals", "pool.queue_wait_us", "pool.size", "pool.utilization"]
    {
        assert!(
            names.iter().any(|n| n == metric),
            "metric {metric} missing from SHOW METRICS: {names:?}"
        );
    }
    // The query above ran real morsels through the pool.
    let morsels = r
        .rows
        .iter()
        .find(|row| row.value(0).to_string() == "pool.morsels")
        .map(|row| row.value(2).as_double().unwrap())
        .unwrap();
    assert!(morsels >= 1.0, "pool.morsels = {morsels}");
}
