//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! LA-size-aware costing vs blind (§4.1) and early projection on/off.
//!
//! With `--profile-json PATH` the harness additionally runs the RST query
//! once on the size-aware configuration and writes its query-lifecycle
//! profile (stage timings + per-operator estimate-vs-actual records) as
//! JSON.

use criterion::{criterion_group, Criterion};
use lardb::{
    DataType, Database, DatabaseConfig, Matrix, OptimizerConfig, Partitioning, Row,
    Schema, Value,
};

fn rst_db(config: OptimizerConfig) -> Database {
    let db = Database::with_config(DatabaseConfig {
        workers: 4,
        optimizer: config,
        ..DatabaseConfig::default()
    });
    db.create_table(
        "R",
        Schema::from_pairs(&[
            ("r_rid", DataType::Integer),
            ("r_matrix", DataType::Matrix(Some(2), Some(1000))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.create_table(
        "S",
        Schema::from_pairs(&[
            ("s_sid", DataType::Integer),
            ("s_matrix", DataType::Matrix(Some(1000), Some(2))),
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
    for i in 0..50i64 {
        db.insert_rows(
            "R",
            [Row::new(vec![
                Value::Integer(i),
                Value::matrix(Matrix::filled(2, 1000, 0.5)),
            ])],
        )
        .unwrap();
        db.insert_rows(
            "S",
            [Row::new(vec![
                Value::Integer(i),
                Value::matrix(Matrix::filled(1000, 2, 0.5)),
            ])],
        )
        .unwrap();
    }
    for k in 0..1000i64 {
        db.insert_rows("T", [Row::new(vec![Value::Integer(k % 50), Value::Integer((k * 3) % 50)])])
            .unwrap();
    }
    db
}

const RST: &str = "SELECT matrix_multiply(r_matrix, s_matrix) AS prod
 FROM R, S, T WHERE r_rid = t_rid AND s_sid = t_sid";

/// §4.1: size-aware plan vs blind plan, measured end to end.
fn bench_size_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer_41");
    g.sample_size(10);
    let smart = rst_db(OptimizerConfig::default());
    g.bench_function("size_aware", |b| b.iter(|| smart.query(RST).unwrap()));
    let blind = rst_db(OptimizerConfig { size_inference: false, ..Default::default() });
    g.bench_function("blind", |b| b.iter(|| blind.query(RST).unwrap()));
    let no_early =
        rst_db(OptimizerConfig { early_projection: false, ..Default::default() });
    g.bench_function("no_early_projection", |b| b.iter(|| no_early.query(RST).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_size_inference);

/// `--profile-json PATH` from argv, ignoring the flags `cargo bench`
/// itself forwards (`--bench`, filters, ...).
fn profile_json_path() -> Option<String> {
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--profile-json" {
            return argv.next();
        }
    }
    None
}

fn main() {
    benches();
    if let Some(path) = profile_json_path() {
        let db = rst_db(OptimizerConfig::default());
        db.query(RST).expect("RST query runs");
        let profile = db.last_profile().expect("query stores a profile");
        let doc = format!("{{\"bench\":\"ablations\",\"profile\":{}}}", profile.to_json());
        match std::fs::write(&path, doc) {
            Ok(()) => println!("wrote query profile to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
