//! Out-of-core ablation: the §3.4 chunked (tiled) matrix multiply under
//! shrinking memory budgets.
//!
//! The same `SUM(matrix_multiply(A_ik, B_kj)) GROUP BY i, j` query runs
//! with an unbounded governor and under 256 MiB and 64 MiB budgets that
//! force the hash-join build side and the running tile sums through the
//! Grace-partitioned spill path. The interesting numbers are the
//! slowdown-per-budget curve and the spill volume, not the absolute
//! times.
//!
//! With `--profile-json PATH` the harness re-times each budget once and
//! writes `{budget_mb, median_ms, spill_bytes, spill_files}` records as
//! JSON (the CI artifact).

use criterion::{criterion_group, Criterion};
use lardb::{
    DataType, Database, DatabaseConfig, Partitioning, Schema, TransportMode,
};
use lardb_storage::gen::tiled_matrix_rows;

/// 8×8 grid of 96×96 tiles: each table holds 64 tiles × 72 KiB ≈ 4.7 MiB,
/// so a 64 MiB budget leaves headroom while per-query concurrent
/// reservations (build side + 64 running 96×96 sums across 4 partitions)
/// still cross the line under contention; the tiny budget in
/// `spill_equivalence.rs` covers guaranteed spilling — here the point is
/// timing realistic budget pressure.
const TILES: usize = 8;
const TILE: usize = 96;

const QUERY: &str = "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
                     FROM ta AS a, tb AS b WHERE a.tc = b.tr
                     GROUP BY a.tr, b.tc";

/// Budgets to sweep: unbounded, two comfortable budgets that only pay
/// governor accounting (the working set here is ~10 MiB), and a 4 MiB
/// budget under which the build side and tile sums genuinely spill.
/// `None` maps to `Some(0)` in `DatabaseConfig.mem` (explicitly
/// unbounded, dedicated governor), so the sweep ignores
/// `LARDB_MEM_BUDGET_MB` in the environment.
const BUDGETS_MB: &[(&str, Option<u64>)] = &[
    ("unbounded", None),
    ("256mb", Some(256)),
    ("64mb", Some(64)),
    ("4mb", Some(4)),
];

fn matmul_db(mem: Option<u64>) -> Database {
    let db = Database::with_config(DatabaseConfig {
        workers: 4,
        transport: TransportMode::Pointer,
        pool_workers: Some(4),
        mem: Some(mem.unwrap_or(0)),
        spill_dir: Some(std::env::temp_dir().join(format!(
            "lardb-bench-ooc-{}",
            std::process::id()
        ))),
        ..DatabaseConfig::default()
    });
    let schema = Schema::from_pairs(&[
        ("tr", DataType::Integer),
        ("tc", DataType::Integer),
        ("mat", DataType::Matrix(Some(TILE), Some(TILE))),
    ]);
    for (name, seed) in [("ta", 7u64), ("tb", 11)] {
        db.create_table(name, schema.clone(), Partitioning::Hash(0)).unwrap();
        db.insert_rows(name, tiled_matrix_rows(seed, TILES, TILE))
            .unwrap();
    }
    db
}

fn bench_budget_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("out_of_core");
    g.sample_size(10);
    for &(label, mem) in BUDGETS_MB {
        let db = matmul_db(mem);
        g.bench_function(format!("chunked_matmul/{label}"), |b| {
            b.iter(|| db.query(QUERY).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_budget_sweep);

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
        let mut records = Vec::new();
        for &(label, mem) in BUDGETS_MB {
            let db = matmul_db(mem);
            let mut samples = Vec::new();
            let mut spill_bytes = 0usize;
            let mut spill_files = 0usize;
            for _ in 0..5 {
                let t0 = std::time::Instant::now();
                let r = db.query(QUERY).unwrap();
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                spill_bytes = r.stats.total_spill_bytes();
                spill_files = r.stats.total_spill_files();
            }
            samples.sort_by(|x, y| x.total_cmp(y));
            let median_ms = samples[samples.len() / 2];
            records.push(format!(
                "{{\"budget\":\"{label}\",\"budget_mb\":{},\"median_ms\":{median_ms:.3},\
                 \"spill_bytes\":{spill_bytes},\"spill_files\":{spill_files}}}",
                mem.map_or(0, |m| m),
            ));
        }
        let doc = format!(
            "{{\"bench\":\"out_of_core\",\"case\":\"chunked_matmul_{TILES}x{TILES}x{TILE}\",\
             \"runs\":[{}]}}",
            records.join(",")
        );
        match std::fs::write(&path, &doc) {
            Ok(()) => println!("wrote out-of-core profile to {path}: {doc}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
