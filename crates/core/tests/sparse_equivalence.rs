//! Sparse/dense differential suite: a sparse tile is a storage format,
//! never a semantic one.
//!
//! Every query here runs twice — once against a database whose matrix
//! tiles are stored as CSR sparse values, once against a twin that stores
//! the densified equivalents (so only dense kernels ever run on it) — and
//! the results must be **bit-identical**
//! (sparse kernels accumulate each output element over ascending k, the
//! same order as the dense loops, so `==` on float bits is the contract,
//! not a tolerance). The matrix sweeps density {0.1%, 1%, 10%, 50%, 90%},
//! W ∈ {1, 4}, both transports, and a 1 MiB spill
//! budget; the iterative PageRank and logistic-regression drivers must
//! follow identical trajectories; and serialized exchanges must ship
//! sparse tiles proportionally to nnz, not rows × cols.

mod common;

use common::compare::{check, exact_rows, metric, Run};
use common::corpus::{self, TILE_JOIN};
use common::fixtures::{rngish, sparse_tile, tile_db, Fixture};
use common::lattice::{self, at, Cell};
use lardb::TransportMode::{Pointer, Serialized};
use lardb::{
    CooBuilder, Database, DataType, DispatchCounters, Partitioning, QueryResult, Row, Schema,
    SparseMatrix, Value, Vector,
};

/// The tile tables under `cell`: the CSR store, or its densified twin.
fn open(cell: &Cell, sparse: bool, density: f64) -> (Cell, Database) {
    let db = cell.open();
    tile_db(&db, 4, sparse, density);
    (cell.clone(), db)
}

/// The differential query set on each of `stores`, against the dense twin
/// under `cell`: the reference of this suite, whose axis is the store.
fn check_against_dense(cell: &Cell, density: f64, stores: Vec<(Cell, Database)>) -> Vec<Run> {
    check(&corpus::on(Fixture::Tiles), open(cell, false, density), stores)
}

fn run(db: &Database, q: &str) -> QueryResult {
    db.query(q).unwrap_or_else(|e| panic!("query={q}: {e}"))
}

#[test]
fn sparse_matches_dense_across_density_and_workers() {
    for density in [0.001, 0.01, 0.1, 0.5, 0.9] {
        let [one, four] = [1usize, 4].map(|workers| at(workers, Pointer, None));
        let stores =
            vec![open(&one, true, density), open(&four, false, density), open(&four, true, density)];
        let runs = check_against_dense(&one, density, stores);
        // Tiles past DENSIFY_ABOVE: the densify arm ran and still
        // produced the dense twin's bits.
        for sparse in [&runs[0], &runs[2]] {
            let densified: u64 =
                sparse.outcomes.iter().flatten().map(|r| r.stats.dispatch.densified).sum();
            if density > lardb::dispatch::DENSIFY_ABOVE {
                assert!(densified > 0, "density={density} {}: nothing densified", sparse.cell.name);
            }
        }
    }
}

/// Serialized transport (tag-8 sparse wire frames) + a 1 MiB spill
/// budget compose with sparse tiles: same bits as the unbounded
/// pointer-mode dense twin.
#[test]
fn serialized_budgeted_sparse_matches_unbounded_dense() {
    for density in [0.01, 0.5] {
        let sparse = open(&at(4, Serialized, Some(1)), true, density);
        check_against_dense(&at(4, Pointer, None), density, vec![sparse]);
    }
}

/// Every axis that decides how many tiles are in one place at a time,
/// alone, over the CSR store at 1 % — against the dense twin under the
/// oracle cell.
#[test]
fn every_capacity_axis_alone_matches_the_dense_oracle() {
    let stores = lattice::capacity_axes().iter().map(|cell| open(cell, true, 0.01)).collect();
    check_against_dense(&lattice::oracle(), 0.01, stores);
}

/// Serialized exchanges ship sparse tiles proportionally to nnz: the
/// same tile-join at 1% density must move at least 10× fewer wire bytes
/// from the sparse store than from the dense store (a dense 64×64 tile
/// is 32 KiB; its 1% CSR twin is under a kilobyte).
#[test]
fn exchange_bytes_scale_with_nnz_not_shape() {
    let cell = at(4, Serialized, None);
    let [want, got] = [false, true].map(|sparse| run(&open(&cell, sparse, 0.01).1, TILE_JOIN));
    assert_eq!(exact_rows(&got), exact_rows(&want));
    let (sparse_bytes, dense_bytes) =
        (got.stats.total_bytes_shuffled(), want.stats.total_bytes_shuffled());
    assert!(
        sparse_bytes > 0 && dense_bytes > 0,
        "expected measured wire bytes, got sparse={sparse_bytes} dense={dense_bytes}"
    );
    assert!(
        sparse_bytes * 10 < dense_bytes,
        "sparse exchange not nnz-proportional: {sparse_bytes} vs dense {dense_bytes}"
    );
}

/// `MATRIX_FROM_ENTRIES` over a W=4 edge table: duplicates sum, the
/// result matches a hand-built COO assembly bit-for-bit, entries denser
/// than `DENSIFY_ABOVE` come back as the dense representation, and bad
/// coordinates surface as typed errors (never a truncated matrix).
#[test]
fn matrix_from_entries_sql_end_to_end() {
    let db = at(4, Pointer, None).open();
    db.create_table(
        "edges",
        Schema::from_pairs(&[
            ("g", DataType::Integer),
            ("i", DataType::Integer),
            ("j", DataType::Integer),
            ("w", DataType::Double),
        ]),
        Partitioning::Hash(1),
    )
    .unwrap();
    let mut rng = rngish(0xed9e);
    let mut rows = Vec::new();
    let mut expected = CooBuilder::new();
    for _ in 0..500 {
        let (i, j) = ((rng() % 40) as i64, (rng() % 30) as i64);
        let w = (rng() % 1000 + 1) as f64 / 32.0;
        expected.push(i, j, w).unwrap();
        rows.push(Row::new(vec![
            Value::Integer(i % 2),
            Value::Integer(i),
            Value::Integer(j),
            Value::Double(w),
        ]));
    }
    // Pin the corners so the inferred shape is deterministic.
    for (i, j) in [(39i64, 29i64), (0, 0)] {
        expected.push(i, j, 1.0).unwrap();
        rows.push(Row::new(vec![
            Value::Integer(i % 2),
            Value::Integer(i),
            Value::Integer(j),
            Value::Double(1.0),
        ]));
    }
    db.insert_rows("edges", rows).unwrap();
    let expected = expected.build_inferred();
    assert_eq!(expected.shape(), (40, 30));

    let r = db.query("SELECT MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges").unwrap();
    assert_eq!(r.rows.len(), 1);
    let got = r.rows[0].value(0).as_sparse_matrix().expect("a sparse result stays sparse");
    assert_eq!(got.shape(), (40, 30));
    assert_eq!(got.parts(), expected.parts(), "duplicate summation diverged");

    // The filled 40 × 1 column is past DENSIFY_ABOVE: same entries, dense
    // representation, and the densification is counted.
    let r = db.query("SELECT MATRIX_FROM_ENTRIES(i, 0, w) AS m FROM edges").unwrap();
    let dense = r.rows[0].value(0).as_matrix().expect("a dense result is a MATRIX");
    assert_eq!(dense.shape(), (40, 1));
    assert_eq!(dense.sum_elements(), expected.sum_elements());
    assert!(r.stats.dispatch.densified > 0);

    // Grouped construction splits the same edges into per-group matrices
    // whose sum of entries matches the whole.
    let r = db
        .query("SELECT g, MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges GROUP BY g")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let part_sum: f64 = r
        .rows
        .iter()
        .map(|row| match row.value(1) {
            Value::SparseMatrix(m) => m.sum_elements(),
            Value::Matrix(m) => m.sum_elements(),
            other => panic!("expected a matrix cell, got {other:?}"),
        })
        .sum();
    assert_eq!(part_sum, expected.sum_elements());

    // Out-of-range coordinates are typed errors, not truncations.
    db.execute("INSERT INTO edges VALUES (0, -3, 1, 1.0)").unwrap();
    let err = db
        .query("SELECT MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges")
        .expect_err("negative coordinate must fail");
    assert!(
        err.to_string().contains("MATRIX_FROM_ENTRIES"),
        "untyped error: {err}"
    );
}

/// Builds a column-stochastic adjacency matrix for a deterministic
/// `n`-node graph where every node has at least one out-edge. Returns
/// the CSR matrix (stored sparse or densified by the caller).
fn stochastic_graph(n: usize) -> SparseMatrix {
    let mut rng = rngish(0x9a9a);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (src, targets) in out.iter_mut().enumerate() {
        targets.push((src * 7 + 1) % n);
        for _ in 0..(rng() % 4) {
            targets.push(rng() as usize % n);
        }
        targets.sort_unstable();
        targets.dedup();
    }
    let mut b = CooBuilder::new();
    for (src, targets) in out.iter().enumerate() {
        let w = 1.0 / targets.len() as f64;
        for &dst in targets {
            b.push(dst as i64, src as i64, w).unwrap();
        }
    }
    b.build(n, n).unwrap()
}

/// A table of one row and one column holding `value`.
fn one_cell(db: &Database, table: &str, column: (&str, DataType), value: Value) {
    db.create_table(table, Schema::from_pairs(&[column]), Partitioning::Hash(0)).unwrap();
    db.insert_rows(table, [Row::new(vec![value])]).unwrap();
}

/// A two-worker database whose single-row `table(m)` holds `m`, stored
/// sparse or densified.
fn matrix_db(table: &str, sparse: bool, m: &SparseMatrix) -> Database {
    let (rows, cols) = m.shape();
    let db = at(2, Pointer, None).open();
    let cell =
        if sparse { Value::sparse_matrix(m.clone()) } else { Value::matrix(m.to_dense()) };
    one_cell(&db, table, ("m", DataType::Matrix(Some(rows), Some(cols))), cell);
    db
}

/// One damped PageRank step driven through SQL SpMV: inserts the rank
/// vector as `rank_k(x)`, queries `M · x`, applies damping in the
/// driver, and returns the next vector.
fn pagerank_step(db: &Database, k: usize, rank: &[f64]) -> Vec<f64> {
    let n = rank.len();
    let table = format!("rank_{k}");
    let x = Value::vector(Vector::from_vec(rank.to_vec()));
    one_cell(db, &table, ("x", DataType::Vector(Some(n))), x);
    let r = run(
        db,
        &format!("SELECT matrix_vector_multiply(g.m, r.x) AS y FROM graph AS g, {table} AS r"),
    );
    assert_eq!(r.rows.len(), 1);
    let y = r.rows[0].value(0).as_vector().expect("SpMV returns a vector");
    y.as_slice().iter().map(|&mv| 0.85 * mv + 0.15 / n as f64).collect()
}

/// PageRank over the sparse store follows the dense trajectory
/// bit-for-bit and converges.
#[test]
fn pagerank_sparse_trajectory_matches_dense() {
    const N: usize = 200;
    let m = stochastic_graph(N);
    assert!(m.density() < 0.05, "graph should be sparse, got {}", m.density());
    let sparse_db = matrix_db("graph", true, &m);
    let dense_db = matrix_db("graph", false, &m);

    let mut rank_s = vec![1.0 / N as f64; N];
    let mut rank_d = rank_s.clone();
    let mut last_delta = f64::INFINITY;
    for k in 0..60 {
        let next_s = pagerank_step(&sparse_db, k, &rank_s);
        let next_d = pagerank_step(&dense_db, k, &rank_d);
        assert_eq!(next_s, next_d, "PageRank diverged at iteration {k}");
        last_delta =
            next_s.iter().zip(&rank_s).map(|(a, b)| (a - b).abs()).sum::<f64>();
        rank_s = next_s;
        rank_d = next_d;
    }
    assert!(last_delta < 1e-8, "PageRank did not converge: L1 delta {last_delta}");
    let total: f64 = rank_s.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "ranks must stay a distribution: {total}");
}

/// Logistic-regression batch gradient descent: `z = X·w` and the
/// gradient `Xᵀ·r` both run through SQL (SpMV over the sparse feature
/// matrix and its transpose); sigmoid/update steps run in the driver.
/// Sparse and dense stores must produce identical weight trajectories
/// with decreasing loss.
#[test]
fn logreg_sparse_trajectory_matches_dense() {
    const ROWS: usize = 120;
    const FEATS: usize = 16;
    let x = sparse_tile(0x10919, ROWS, FEATS, 0.1);
    let mut rng = rngish(0x1abe1);
    let y: Vec<f64> = (0..ROWS).map(|_| (rng() % 2) as f64).collect();

    let sparse_db = matrix_db("feats", true, &x);
    let dense_db = matrix_db("feats", false, &x);

    let spmv = |db: &Database, k: usize, tag: &str, v: &[f64], transpose: bool| {
        let table = format!("v_{tag}_{k}");
        let x = Value::vector(Vector::from_vec(v.to_vec()));
        one_cell(db, &table, ("x", DataType::Vector(Some(v.len()))), x);
        let expr = if transpose {
            "matrix_vector_multiply(trans_matrix(f.m), r.x)"
        } else {
            "matrix_vector_multiply(f.m, r.x)"
        };
        let r = run(db, &format!("SELECT {expr} AS y FROM feats AS f, {table} AS r"));
        r.rows[0].value(0).as_vector().unwrap().as_slice().to_vec()
    };

    let sigmoid = |z: f64| 1.0 / (1.0 + (-z).exp());
    let loss = |p: &[f64]| -> f64 {
        p.iter()
            .zip(&y)
            .map(|(&p, &yi)| {
                let p = p.clamp(1e-12, 1.0 - 1e-12);
                -(yi * p.ln() + (1.0 - yi) * (1.0 - p).ln())
            })
            .sum::<f64>()
            / ROWS as f64
    };

    let mut w_s = vec![0.0f64; FEATS];
    let mut w_d = w_s.clone();
    let mut losses = Vec::new();
    for k in 0..25 {
        let z_s = spmv(&sparse_db, k, "z", &w_s, false);
        let z_d = spmv(&dense_db, k, "z", &w_d, false);
        assert_eq!(z_s, z_d, "X·w diverged at iteration {k}");
        let p: Vec<f64> = z_s.iter().map(|&z| sigmoid(z)).collect();
        losses.push(loss(&p));
        let resid: Vec<f64> = p.iter().zip(&y).map(|(&p, &yi)| p - yi).collect();
        let g_s = spmv(&sparse_db, k, "g", &resid, true);
        let g_d = spmv(&dense_db, k, "g", &resid, true);
        assert_eq!(g_s, g_d, "Xᵀ·r diverged at iteration {k}");
        for i in 0..FEATS {
            w_s[i] -= 0.05 / ROWS as f64 * g_s[i];
            w_d[i] -= 0.05 / ROWS as f64 * g_d[i];
        }
    }
    assert_eq!(w_s, w_d, "weight trajectories diverged");
    assert!(
        losses.last().unwrap() < &losses[0],
        "loss did not decrease: {losses:?}"
    );
}

/// Each of the five kernel kinds, one statement apiece on one worker:
/// `stats.dispatch` and EXPLAIN ANALYZE's `la dispatch:` line count
/// exactly the kernels the statement ran, and the `la.dispatch.*` SHOW
/// METRICS counters carry them.
#[test]
fn dispatch_choices_surface_in_explain_and_metrics() {
    let db = at(1, Pointer, None).open();
    let s = sparse_tile(0xd15, 8, 8, 0.1);
    let a = Value::matrix(s.to_dense().add(&lardb::Matrix::identity(8)).unwrap());
    let x = Value::vector(Vector::from_vec((0..8).map(f64::from).collect()));
    let square = DataType::Matrix(Some(8), Some(8));
    db.create_table(
        "t",
        Schema::from_pairs(&[("a", square), ("s", square), ("x", DataType::Vector(Some(8)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    db.insert_rows("t", [Row::new(vec![a, Value::sparse_matrix(s), x])]).unwrap();

    let none = DispatchCounters::default();
    let kinds = [
        ("matrix_multiply(a, a)", DispatchCounters { dense: 1, ..none }),
        ("matrix_vector_multiply(s, x)", DispatchCounters { spmv: 1, ..none }),
        ("matrix_multiply(s, a)", DispatchCounters { sp_dense: 1, ..none }),
        ("matrix_multiply(s, s)", DispatchCounters { spgemm: 1, ..none }),
        ("diag(s)", DispatchCounters { densified: 1, ..none }),
    ];
    for (expr, want) in kinds {
        let sql = format!("SELECT {expr} AS y FROM t");
        assert_eq!(run(&db, &sql).stats.dispatch, want, "{expr}");
        let out = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let lardb::database::Response::Explained(text) = out else {
            panic!("EXPLAIN ANALYZE should return Explained");
        };
        let line = text.lines().find(|l| l.starts_with("la dispatch:"));
        let DispatchCounters { dense, spmv, sp_dense, spgemm, densified } = want;
        let counted = format!(
            "la dispatch: {dense} dense, {spmv} spmv, {sp_dense} sp×dense, \
             {spgemm} spgemm, {densified} densified"
        );
        assert_eq!(line, Some(counted.as_str()), "{expr}:\n{text}");
    }

    let spgemm = metric(&db, "la.dispatch.spgemm");
    assert!(spgemm >= 2.0, "la.dispatch.spgemm = {spgemm}");
}
