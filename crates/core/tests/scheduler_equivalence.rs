//! Scheduler equivalence and determinism tests.
//!
//! Every stage runs one pool task per partition, and which thread runs
//! (or steals) a task must not change a result: on heavily skewed
//! partitions (one partition holding ~90% of rows), across worker counts
//! and transports, execution must produce the oracle's relations — and
//! repeated runs must be bit-for-bit identical.

mod common;

use common::compare::{exact_rows, metric, sweep};
use common::corpus;
use common::fixtures::{rngish, Fixture};
use common::lattice::{self, cell, interpreted};
use lardb::{
    DataType, DatabaseConfig, Matrix, Partitioning, Row, Schema, Source,
    TransportMode, Value,
};

/// One task per partition over the skewed tables, where one partition
/// holds ~90% of the rows: every worker count × transport matches the
/// oracle.
#[test]
fn split_morsels_match_whole_partitions_on_skew() {
    let mut cells = Vec::new();
    for workers in [1usize, 4] {
        for transport in [TransportMode::Pointer, TransportMode::Serialized] {
            cells.push(cell(|c| {
                c.workers = workers;
                c.transport = transport;
            }));
        }
    }
    sweep(Fixture::Skew, corpus::on(Fixture::Skew), &cells);
}

/// Every axis alone, over the skewed tables.
#[test]
fn every_axis_alone_matches_the_oracle_on_skew() {
    sweep(Fixture::Skew, corpus::on(Fixture::Skew), &lattice::single_axis());
}

/// Neither the batch size nor the expression engine moves a bit of an
/// aggregate: each partition folds its rows into one group table, in row
/// order. The doubles carry full mantissas, so any re-association shows:
/// a grouped `SUM`/`AVG`/`COUNT` over three groups, and 4 000 groups whose
/// `Final` partitions hold some 4 000 state rows at four workers, more
/// than a default batch. Each worker count is compared with itself: more
/// workers do re-associate, through the Partial/Final split.
#[test]
fn morsel_size_and_engine_move_no_bit_of_an_aggregate() {
    let statements = [
        "SELECT g, SUM(v) AS s, AVG(v) AS a, COUNT(*) AS c FROM f GROUP BY g",
        "SELECT k, SUM(v) AS s, AVG(v) AS a FROM many GROUP BY k",
    ];
    let load = |db: &lardb::Database| {
        let mut rng = rngish(0xF00D);
        let mut double = move || (rng() >> 11) as f64 / (1u64 << 53) as f64 * 1e3 - 500.0;
        let columns =
            |key| Schema::from_pairs(&[(key, DataType::Integer), ("v", DataType::Double)]);
        for (table, key, rows, groups) in [("f", "g", 20_000, 3), ("many", "k", 32_000, 4_000)] {
            db.create_table(table, columns(key), Partitioning::RoundRobin).unwrap();
            let rows = (0..rows).map(|i: i64| {
                Row::new(vec![Value::Integer(i % groups), Value::Double(double())])
            });
            db.insert_rows(table, rows.collect::<Vec<_>>()).unwrap();
        }
    };
    let default_batch = DatabaseConfig::default().batch_rows;
    for workers in [1usize, 4] {
        let mut want: Option<(String, Vec<Vec<String>>)> = None;
        for compiled in [false, true] {
            for batch_rows in [1, 16, default_batch] {
                let cell = cell(|c| {
                    c.workers = workers;
                    c.batch_rows = batch_rows;
                });
                let cell = if compiled { cell } else { interpreted(cell) };
                let db = cell.open();
                load(&db);
                let got: Vec<Vec<String>> =
                    statements.iter().map(|q| exact_rows(&db.query(q).unwrap())).collect();
                match &want {
                    None => want = Some((cell.name, got)),
                    Some((first, want)) => assert_eq!(&got, want, "{} vs {first}", cell.name),
                }
            }
        }
    }
}

#[test]
fn repeated_grouped_aggregation_is_deterministic() {
    // Each partition folds its rows into one group table in row order,
    // whichever worker ran it, so repeated runs are bit-identical —
    // including float AVG states.
    let db = Fixture::Skew.open(&cell(|_| {}));
    let q = "SELECT g, AVG(v) AS a, SUM(v) AS s, COUNT(*) AS c FROM skew GROUP BY g";
    let reference = exact_rows(&db.query(q).unwrap());
    for run in 1..5 {
        assert_eq!(exact_rows(&db.query(q).unwrap()), reference, "run {run} diverged");
    }
}

#[test]
fn pool_metrics_surface_in_show_metrics() {
    let db = Fixture::Skew.open(&cell(|_| {}));
    db.query("SELECT g, COUNT(*) AS c FROM skew GROUP BY g").unwrap();
    for name in ["pool.steals", "pool.queue_wait_us", "pool.size", "pool.busy"] {
        metric(&db, name);
    }
    // The query above ran real tasks through the pool.
    let morsels = metric(&db, "pool.morsels");
    assert!(morsels >= 1.0, "pool.morsels = {morsels}");
}

/// Two databases on the process pool, each looping a statement with dense
/// and sparse kernels on its own thread: their tasks interleave on the
/// same pool threads, yet every run counts exactly its own kernels — what
/// it counted alone.
#[test]
fn neighbours_on_one_pool_count_only_their_own_kernels() {
    let sql = "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS s,
                      SUM(matrix_multiply(densify(a.mat), b.mat)) AS d
               FROM ta AS a, tb AS b WHERE a.tc = b.tr GROUP BY a.tr, b.tc";
    let on_process_pool = cell(|c| c.pool_workers = None);
    let dbs = [(); 2].map(|_| Fixture::Tiles.open(&on_process_pool));
    let counts = |db: &lardb::Database| db.query(sql).unwrap().stats.dispatch;
    let alone = dbs.each_ref().map(counts);
    assert!(alone[0].dense > 0 && alone[0].spgemm > 0, "{:?}", alone[0]);
    std::thread::scope(|scope| {
        for (db, alone) in dbs.iter().zip(alone) {
            scope.spawn(move || {
                for run in 0..40 {
                    assert_eq!(counts(db), alone, "run {run} counted a neighbour's kernels");
                }
            });
        }
    });
}

/// A query's large dense product fans out on the query's own pool: one
/// traced 256² · 256² multiply on one worker records no `pool.wait` span
/// on a pool of one thread and one per 128² output block on a pool of four.
#[test]
fn a_querys_dense_kernels_fan_out_on_its_own_pool() {
    let sql = "SELECT matrix_multiply(m, m) AS p FROM big";
    for (pool, waits) in [(1, 0), (4, 4)] {
        let db = cell(|c| {
            c.workers = 1;
            c.pool_workers = Some(pool);
        })
        .open();
        let m = Matrix::from_fn(256, 256, |i, j| (i + 2 * j) as f64);
        let square = DataType::Matrix(Some(256), Some(256));
        db.create_table("big", Schema::from_pairs(&[("m", square)]), Partitioning::Hash(0))
            .unwrap();
        db.insert_rows("big", [Row::new(vec![Value::matrix(m)])]).unwrap();
        let trace = lardb_obs::recorder().start_forced(sql, "test");
        db.run(Source::Sql(sql), None, Some(&trace)).unwrap();
        let got = trace.events().iter().filter(|e| e.name == "pool.wait").count();
        assert_eq!(got, waits, "pool of {pool}");
    }
}
