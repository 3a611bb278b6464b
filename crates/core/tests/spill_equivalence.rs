//! Out-of-core equivalence tests: a memory budget must be a pure
//! capacity change, never a semantic one.
//!
//! Every query here runs twice — once unbounded, once under a budget
//! small enough that the hash-join build side and the grouped-aggregate
//! state spill to disk — and the budgeted result must be **bit-identical**
//! to the unbounded one (same rows, same order, same float bits), across
//! worker counts and transports. Spill files must be gone when the query
//! finishes.

use lardb::{
    Database, DatabaseConfig, DataType, Partitioning, QueryResult, Row, Schema,
    TransportMode, Value,
};
use lardb_storage::gen::tiled_matrix_rows;

/// A per-test spill directory so emptiness checks don't race across
/// tests in the same binary.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lardb-spill-eq-{}-{tag}", std::process::id()))
}

fn assert_spill_dir_empty(dir: &std::path::Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        let left: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        assert!(left.is_empty(), "spill files leaked in {}: {left:?}", dir.display());
    }
    let _ = std::fs::remove_dir(dir);
}

/// `mem = Some(1)`: a dedicated 1 MiB governor; `None`: unbounded
/// (dedicated, so this test is immune to `LARDB_MEM_BUDGET_MB` in the
/// environment — `Some(0)` means explicitly unbounded).
fn config(
    workers: usize,
    transport: TransportMode,
    mem: Option<u64>,
    tag: &str,
) -> DatabaseConfig {
    DatabaseConfig {
        workers,
        transport,
        morsel_rows: 64,
        pool_workers: Some(4),
        mem: Some(mem.unwrap_or(0)),
        spill_dir: Some(spill_dir(tag)),
        ..DatabaseConfig::default()
    }
}

/// A table fat enough that one partition's hash-join build side and the
/// `GROUP BY payload` aggregate state both exceed a 1 MiB budget: 6000
/// rows with a ~140-byte VARCHAR payload (~1.2 MiB footprint), 90% of
/// them hash-skewed into a single partition.
fn fat_db(config: DatabaseConfig) -> Database {
    let db = Database::with_config(config);
    db.create_table(
        "fat",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("k", DataType::Integer),
            ("g", DataType::Integer),
            ("v", DataType::Double),
            ("payload", DataType::Varchar),
        ]),
        Partitioning::Hash(1),
    )
    .unwrap();
    let rows = (0..6000i64).map(|i| {
        let k = if i % 10 != 0 { 0 } else { i };
        Row::new(vec![
            Value::Integer(i),
            Value::Integer(k),
            Value::Integer(i % 7),
            Value::Double(i as f64 * 0.125),
            Value::varchar(format!("payload-{i:0>128}")),
        ])
    });
    db.insert_rows("fat", rows).unwrap();
    db
}

const QUERIES: &[&str] = &[
    // Wide grouped aggregation: 6000 distinct VARCHAR keys, state larger
    // than the budget — exercises the spilling aggregate path.
    "SELECT payload, COUNT(*) AS c FROM fat GROUP BY payload",
    // Self-join on the unique id: the build side is the whole fat table —
    // exercises the Grace-partitioned join path.
    "SELECT a.id, b.v FROM fat AS a, fat AS b WHERE a.id = b.id AND a.k >= 10",
    // Join + float aggregation on top (fused path under the optimizer).
    "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c
     FROM fat AS a, fat AS b WHERE a.id = b.id GROUP BY a.g",
    // Small grouped aggregate + global aggregate: must not regress when
    // nothing needs to spill.
    "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM fat GROUP BY g",
    "SELECT COUNT(*) AS n FROM fat",
];

/// Exact row values (order-sensitive, float-bit-sensitive).
fn exact_rows(r: &QueryResult) -> Vec<Vec<Value>> {
    r.rows.iter().map(|row| row.values().to_vec()).collect()
}

#[test]
fn budgeted_queries_match_unbounded_bit_exactly() {
    for workers in [1usize, 4] {
        let tag = format!("eq-w{workers}");
        let budgeted =
            fat_db(config(workers, TransportMode::Pointer, Some(1), &tag));
        let unbounded = fat_db(config(
            workers,
            TransportMode::Pointer,
            None,
            &format!("{tag}-unbounded"),
        ));
        let mut spilled_bytes = 0usize;
        for q in QUERIES {
            let got = budgeted.query(q).unwrap();
            let want = unbounded.query(q).unwrap();
            assert_eq!(
                exact_rows(&got),
                exact_rows(&want),
                "W={workers} query={q}"
            );
            spilled_bytes += got.stats.total_spill_bytes();
            assert_eq!(
                want.stats.total_spill_bytes(),
                0,
                "unbounded run must never spill (query={q})"
            );
        }
        // The whole point: the budgeted runs actually went out of core.
        assert!(spilled_bytes > 0, "W={workers}: no query spilled under 1 MiB");
        assert_spill_dir_empty(&spill_dir(&tag));
        assert_spill_dir_empty(&spill_dir(&format!("{tag}-unbounded")));
    }
}

#[test]
fn budgeted_serialized_transport_matches_pointer() {
    // Transport changes how exchanges move bytes; spilling must compose
    // with both. Compare serialized-budgeted against pointer-unbounded.
    let budgeted = fat_db(config(
        4,
        TransportMode::Serialized,
        Some(1),
        "ser",
    ));
    let unbounded = fat_db(config(
        4,
        TransportMode::Pointer,
        None,
        "ser-unbounded",
    ));
    for q in QUERIES {
        let got = budgeted.query(q).unwrap();
        let want = unbounded.query(q).unwrap();
        assert_eq!(exact_rows(&got), exact_rows(&want), "query={q}");
    }
    assert_spill_dir_empty(&spill_dir("ser"));
}

/// The paper's §3.4 chunked (tiled) matrix multiply: `SUM(A_ik · B_kj)
/// GROUP BY i, j` over 64×64 tiles. Both the join build side (~1.2 MiB
/// of tiles) and the aggregate state (36 running 64×64 sums) exceed the
/// 1 MiB budget, so the query must finish out-of-core and still produce
/// float-bit-identical tiles.
#[test]
fn chunked_matmul_spills_and_matches_unbounded() {
    const TILES: usize = 6;
    const TILE: usize = 64;
    let schema = Schema::from_pairs(&[
        ("tr", DataType::Integer),
        ("tc", DataType::Integer),
        ("mat", DataType::Matrix(Some(TILE), Some(TILE))),
    ]);
    let query = "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
                 FROM ta AS a, tb AS b WHERE a.tc = b.tr
                 GROUP BY a.tr, b.tc";

    let make = |mem: Option<u64>, tag: &str, workers: usize| {
        let db = Database::with_config(config(
            workers,
            TransportMode::Pointer,
            mem,
            tag,
        ));
        for name in ["ta", "tb"] {
            db.create_table(name, schema.clone(), Partitioning::Hash(0)).unwrap();
            let seed = if name == "ta" { 7 } else { 11 };
            db.insert_rows(name, tiled_matrix_rows(seed, TILES, TILE).into_iter())
                .unwrap();
        }
        db
    };

    for workers in [1usize, 4] {
        let tag = format!("matmul-w{workers}");
        let budgeted = make(Some(1), &tag, workers);
        let unbounded = make(None, &format!("{tag}-unbounded"), workers);
        let got = budgeted.query(query).unwrap();
        let want = unbounded.query(query).unwrap();
        assert_eq!(got.rows.len(), TILES * TILES);
        assert_eq!(exact_rows(&got), exact_rows(&want), "W={workers}");
        if workers == 1 {
            // One partition holds the entire 1.2 MiB build side: the spill
            // is deterministic, not a scheduling accident.
            assert!(
                got.stats.total_spill_bytes() > 0,
                "W=1 chunked matmul did not spill under 1 MiB"
            );
        }
        // The budget caps live reservations even while spilling.
        assert_spill_dir_empty(&spill_dir(&tag));
    }
}

#[test]
fn spill_metrics_surface_in_show_metrics() {
    let db = fat_db(config(
        2,
        TransportMode::Pointer,
        Some(1),
        "metrics",
    ));
    let r = db
        .query("SELECT payload, COUNT(*) AS c FROM fat GROUP BY payload")
        .unwrap();
    assert!(r.stats.total_spill_bytes() > 0, "query did not spill");

    let metrics = db.query("SHOW METRICS").unwrap();
    let value_of = |name: &str| -> Option<f64> {
        metrics
            .rows
            .iter()
            .find(|row| row.value(0).to_string() == name)
            .map(|row| row.value(2).as_double().unwrap())
    };
    for metric in ["spill.files", "spill.bytes_written", "spill.bytes_read"] {
        let v = value_of(metric)
            .unwrap_or_else(|| panic!("metric {metric} missing from SHOW METRICS"));
        assert!(v > 0.0, "{metric} = {v}");
    }
    assert_spill_dir_empty(&spill_dir("metrics"));
}

/// A NaN group key under the spilling merge: its first-seen order map and
/// its bucket routing use the group table's hash and key equality, so the
/// NaN half of every key neither straddles buckets nor misses its order
/// entry, and 6 000 rows over 3 000 payloads come back as 3 000 groups —
/// the rows, order and float bits of the unbounded run.
#[test]
fn nan_group_keys_spill_like_they_merge_in_memory() {
    let query = "SELECT payload, (v - v) / (v - v) AS k, COUNT(*) AS c, SUM(v) AS s
                 FROM wide GROUP BY payload, (v - v) / (v - v)";
    let make = |mem: Option<u64>, tag: &str, workers: usize| {
        let db = Database::with_config(config(workers, TransportMode::Pointer, mem, tag));
        db.create_table(
            "wide",
            Schema::from_pairs(&[("v", DataType::Double), ("payload", DataType::Varchar)]),
            Partitioning::RoundRobin,
        )
        .unwrap();
        let rows = (0..6000i64).map(|i| {
            let payload = Value::varchar(format!("payload-{:0>256}", i % 3000));
            Row::new(vec![Value::Double(i as f64 * 0.125), payload])
        });
        db.insert_rows("wide", rows).unwrap();
        db
    };
    // NaN != NaN under `Value`'s `==`: compare doubles by their bits.
    let bit_rows = |r: &QueryResult| -> Vec<Vec<String>> {
        let bits = |v: &Value| match v {
            Value::Double(d) => format!("D:{:016x}", d.to_bits()),
            other => format!("{other:?}"),
        };
        r.rows.iter().map(|row| row.values().iter().map(bits).collect()).collect()
    };
    for workers in [1usize, 4] {
        let tag = format!("nan-w{workers}");
        let budgeted = make(Some(1), &tag, workers);
        let unbounded = make(None, &format!("{tag}-unbounded"), workers);
        let got = budgeted.query(query).unwrap();
        let want = unbounded.query(query).unwrap();
        assert_eq!(got.rows.len(), 3000, "W={workers}");
        assert!(got.rows.iter().all(|r| r.value(1).as_double().is_some_and(f64::is_nan)));
        assert_eq!(bit_rows(&got), bit_rows(&want), "W={workers}");
        if workers == 1 {
            assert!(got.stats.total_spill_bytes() > 0, "the aggregate did not spill");
        }
        assert_spill_dir_empty(&spill_dir(&tag));
    }
}
