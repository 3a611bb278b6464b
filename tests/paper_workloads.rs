//! The paper's three §5 workloads — Gram matrix, least-squares linear
//! regression, distance computation — in each representation the paper
//! compares (tuple-based, vector-based, block-based), validated at small
//! scale against the linear-algebra kernel directly.
//!
//! The SQL here is the same SQL the Figure 1–3 benchmark harness runs at
//! larger scale; these tests pin its *correctness*.

use lardb::{DataType, Database, Matrix, Partitioning, Row, Schema, Value};
use lardb_storage::gen;

const SEED: u64 = 4242;

/// Loads both representations of the same data set.
fn load_points(db: &Database, n: usize, dims: usize) {
    // Vector form: x_vm(id INTEGER, value VECTOR[dims])
    db.create_table(
        "x_vm",
        Schema::from_pairs(&[("id", DataType::Integer), ("value", DataType::Vector(None))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows("x_vm", gen::vector_rows(SEED, n, dims)).unwrap();

    // Tuple form: x(row_index, col_index, value)
    db.create_table(
        "x",
        Schema::from_pairs(&[
            ("row_index", DataType::Integer),
            ("col_index", DataType::Integer),
            ("value", DataType::Double),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows("x", gen::tuple_rows(SEED, n, dims)).unwrap();
}

/// The full data matrix (n × dims), for computing expected answers.
fn data_matrix(n: usize, dims: usize) -> Matrix {
    let rows = gen::vector_rows(SEED, n, dims);
    let mut m = Matrix::zeros(n, dims);
    for (i, r) in rows.iter().enumerate() {
        let v = r.value(1).as_vector().unwrap();
        m.row_mut(i).copy_from_slice(v.as_slice());
    }
    m
}

/// Installs `block_index` and the paper's §5 MLX blocking view (with block
/// id exposed, which the regression/distance queries join on).
fn create_blocks(db: &Database, n: usize, block: usize) {
    let nblocks = n.div_ceil(block);
    db.execute("CREATE TABLE block_index (mi INTEGER)").unwrap();
    for b in 0..nblocks {
        db.execute(&format!("INSERT INTO block_index VALUES ({b})")).unwrap();
    }
    db.execute(&format!(
        "CREATE VIEW MLX AS
         SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{block})) AS m
         FROM x_vm AS x, block_index AS ind
         WHERE x.id/{block} = ind.mi
         GROUP BY ind.mi"
    ))
    .unwrap();
    db.execute(&format!(
        "CREATE VIEW MLXI AS
         SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{block})) AS m, ind.mi AS mi
         FROM x_vm AS x, block_index AS ind
         WHERE x.id/{block} = ind.mi
         GROUP BY ind.mi"
    ))
    .unwrap();
}

// ---------------------------------------------------------------- Gram

#[test]
fn gram_vector_based_matches_kernel() {
    let (n, dims) = (30, 5);
    let db = Database::new(4);
    load_points(&db, n, dims);
    let r = db
        .query("SELECT SUM(outer_product(x.value, x.value)) AS g FROM x_vm AS x")
        .unwrap();
    let got = r.scalar().unwrap().as_matrix().unwrap().clone();
    let expected = data_matrix(n, dims).gram();
    assert!(got.approx_eq(&expected, 1e-9));
}

#[test]
fn gram_tuple_based_matches_kernel() {
    let (n, dims) = (20, 4);
    let db = Database::new(4);
    load_points(&db, n, dims);
    let r = db
        .query(
            "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) AS v
             FROM x AS x1, x AS x2
             WHERE x1.row_index = x2.row_index
             GROUP BY x1.col_index, x2.col_index",
        )
        .unwrap();
    assert_eq!(r.rows.len(), dims * dims);
    let expected = data_matrix(n, dims).gram();
    for row in &r.rows {
        let i = row.value(0).as_integer().unwrap() as usize;
        let j = row.value(1).as_integer().unwrap() as usize;
        let v = row.value(2).as_double().unwrap();
        assert!(
            (v - expected.get(i, j).unwrap()).abs() < 1e-9,
            "G[{i}][{j}] = {v}, expected {}",
            expected.get(i, j).unwrap()
        );
    }
}

#[test]
fn gram_block_based_matches_kernel() {
    let (n, dims, block) = (20, 4, 5);
    let db = Database::new(4);
    load_points(&db, n, dims);
    create_blocks(&db, n, block);
    let r = db
        .query("SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) AS g FROM mlx")
        .unwrap();
    let got = r.scalar().unwrap().as_matrix().unwrap().clone();
    let expected = data_matrix(n, dims).gram();
    assert!(got.approx_eq(&expected, 1e-9), "got {got:?}\nexpected {expected:?}");
}

#[test]
fn gram_blocking_handles_ragged_last_block() {
    // n not divisible by the block size: the last block is zero-padded, and
    // zero rows contribute nothing to XᵀX.
    let (n, dims, block) = (13, 3, 5);
    let db = Database::new(3);
    load_points(&db, n, dims);
    create_blocks(&db, n, block);
    let r = db
        .query("SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) AS g FROM mlx")
        .unwrap();
    let got = r.scalar().unwrap().as_matrix().unwrap().clone();
    let expected = data_matrix(n, dims).gram();
    assert!(got.approx_eq(&expected, 1e-9));
}

// ----------------------------------------------------- Linear regression

fn load_targets(db: &Database, n: usize, dims: usize) {
    db.create_table(
        "y",
        Schema::from_pairs(&[("i", DataType::Integer), ("y_i", DataType::Double)]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows("y", gen::regression_targets(SEED, n, dims, 0.0)).unwrap();
}

#[test]
fn regression_vector_based_recovers_beta() {
    let (n, dims) = (40, 4);
    let db = Database::new(4);
    load_points(&db, n, dims);
    load_targets(&db, n, dims);
    // The paper's §3.2 regression query, verbatim shape.
    let r = db
        .query(
            "SELECT matrix_vector_multiply(
                 matrix_inverse(SUM(outer_product(x.value, x.value))),
                 SUM(x.value * y.y_i)) AS beta
             FROM x_vm AS x, y
             WHERE x.id = y.i",
        )
        .unwrap();
    let beta = r.scalar().unwrap().as_vector().unwrap().clone();
    let truth = gen::true_beta(SEED, dims);
    assert!(
        beta.approx_eq(&truth, 1e-8),
        "beta {:?} vs truth {:?}",
        beta.as_slice(),
        truth.as_slice()
    );
}

#[test]
fn regression_block_based_recovers_beta() {
    let (n, dims, block) = (40, 4, 8);
    let db = Database::new(4);
    load_points(&db, n, dims);
    load_targets(&db, n, dims);
    create_blocks(&db, n, block);
    // Block the targets too: one VECTOR[block] per block id.
    db.execute(&format!(
        "CREATE VIEW YB AS
         SELECT VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*{block})) AS yv, ind.mi AS mi
         FROM y, block_index AS ind
         WHERE y.i/{block} = ind.mi
         GROUP BY ind.mi"
    ))
    .unwrap();
    let r = db
        .query(
            "SELECT matrix_vector_multiply(
                 matrix_inverse(SUM(matrix_multiply(trans_matrix(b.m), b.m))),
                 SUM(matrix_vector_multiply(trans_matrix(b.m), t.yv))) AS beta
             FROM mlxi AS b, yb AS t
             WHERE b.mi = t.mi",
        )
        .unwrap();
    let beta = r.scalar().unwrap().as_vector().unwrap().clone();
    let truth = gen::true_beta(SEED, dims);
    assert!(beta.approx_eq(&truth, 1e-8));
}

#[test]
fn regression_tuple_based_normal_equations() {
    // Tuple-based XᵀX and Xᵀy (the expensive parts, as in the paper);
    // assembled and solved via the label machinery of §3.3.
    let (n, dims) = (30, 3);
    let db = Database::new(4);
    load_points(&db, n, dims);
    load_targets(&db, n, dims);

    db.execute(
        "CREATE VIEW XTX AS
         SELECT x1.col_index AS r, x2.col_index AS c, SUM(x1.value * x2.value) AS v
         FROM x AS x1, x AS x2
         WHERE x1.row_index = x2.row_index
         GROUP BY x1.col_index, x2.col_index",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW XTY AS
         SELECT x.col_index AS c, SUM(x.value * y.y_i) AS v
         FROM x, y
         WHERE x.row_index = y.i
         GROUP BY x.col_index",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW XTXM AS
         SELECT ROWMATRIX(label_vector(q.vec, q.r)) AS m
         FROM (SELECT VECTORIZE(label_scalar(v, c)) AS vec, r FROM xtx GROUP BY r) AS q",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW XTYV AS SELECT VECTORIZE(label_scalar(v, c)) AS vec FROM xty",
    )
    .unwrap();
    let r = db
        .query("SELECT solve(a.m, b.vec) AS beta FROM xtxm AS a, xtyv AS b")
        .unwrap();
    let beta = r.scalar().unwrap().as_vector().unwrap().clone();
    let truth = gen::true_beta(SEED, dims);
    assert!(beta.approx_eq(&truth, 1e-8));
}

// ------------------------------------------------------------- Distance

/// Expected result of the §5 distance computation, straight from the
/// kernel: d²(xi, x') = xiᵀ·A·x', minimum over x' ≠ xi, then the ids whose
/// minimum is the global maximum.
fn expected_distance_winners(n: usize, dims: usize) -> Vec<i64> {
    let x = data_matrix(n, dims);
    let a = gen::spd_matrix(SEED ^ 7, dims);
    let mut mins = vec![f64::INFINITY; n];
    for (i, min) in mins.iter_mut().enumerate() {
        let xi = x.row_vector(i).unwrap();
        let axi = a.matrix_vector_multiply(&xi).unwrap();
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = x.row_vector(j).unwrap().inner_product(&axi).unwrap();
            if d < *min {
                *min = d;
            }
        }
    }
    let best = mins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (0..n).filter(|&i| mins[i] == best).map(|i| i as i64).collect()
}

fn load_metric(db: &Database, dims: usize) {
    db.create_table(
        "matrixA",
        Schema::from_pairs(&[("val", DataType::Matrix(None, None))]),
        Partitioning::Replicated,
    )
    .unwrap();
    db.insert_rows(
        "matrixA",
        [Row::new(vec![Value::matrix(gen::spd_matrix(SEED ^ 7, dims))])],
    )
    .unwrap();
}

#[test]
fn distance_vector_based_matches_kernel() {
    let (n, dims) = (16, 3);
    let db = Database::new(4);
    load_points(&db, n, dims);
    load_metric(&db, dims);

    // The paper's MX + DISTANCESM structure (§5).
    db.execute(
        "CREATE VIEW MX AS
         SELECT x.id AS id, matrix_vector_multiply(a.val, x.value) AS mx_data
         FROM x_vm AS x, matrixA AS a",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW DISTANCESM AS
         SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
         FROM x_vm AS a, MX AS mxx
         WHERE a.id <> mxx.id
         GROUP BY a.id",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT d.id FROM distancesm AS d,
                    (SELECT MAX(dist) AS mx FROM distancesm) AS m
             WHERE d.dist = m.mx",
        )
        .unwrap();
    let mut got: Vec<i64> =
        r.rows.iter().map(|row| row.value(0).as_integer().unwrap()).collect();
    got.sort();
    assert_eq!(got, expected_distance_winners(n, dims));
}

#[test]
fn distance_block_based_matches_kernel() {
    // block deliberately does not divide n: the last block is ragged, and
    // the diagonal mask must adapt to its size.
    let (n, dims, block) = (16, 3, 5);
    let db = Database::new(4);
    load_points(&db, n, dims);
    create_blocks(&db, n, block);
    db.create_table(
        "MM",
        Schema::from_pairs(&[("mapping", DataType::Matrix(None, None))]),
        Partitioning::Replicated,
    )
    .unwrap();
    db.insert_rows(
        "MM",
        [Row::new(vec![Value::matrix(gen::spd_matrix(SEED ^ 7, dims))])],
    )
    .unwrap();

    // Cross-block distance matrices (the paper's DISTANCES view).
    db.execute(
        "CREATE VIEW DISTANCES AS
         SELECT mxx.mi AS id1, mx.mi AS id2,
                matrix_multiply(mxx.m,
                    matrix_multiply(mp.mapping, trans_matrix(mx.m))) AS dm
         FROM MLXI AS mx, MLXI AS mxx, MM AS mp
         WHERE mxx.mi <> mx.mi",
    )
    .unwrap();
    // Same-block distances with +infinity on the diagonal so MIN skips
    // d(x, x); the mask is sized from the (possibly ragged) block itself.
    db.execute(
        "CREATE VIEW SELFDM AS
         SELECT mxx.mi AS id1,
                matrix_multiply(mxx.m,
                    matrix_multiply(mp.mapping, trans_matrix(mxx.m))) AS dm
         FROM MLXI AS mxx, MM AS mp",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW SELFDIST AS
         SELECT id1, dm + diag_matrix(diag(dm) * 0.0 + 1e300) AS dm
         FROM selfdm",
    )
    .unwrap();
    // Per-block per-point minima: element-wise MIN over row_min vectors.
    db.execute(
        "CREATE VIEW CROSSMINS AS
         SELECT q.id1 AS bid, MIN(q.v) AS mv
         FROM (SELECT id1, row_min(dm) AS v FROM distances) AS q
         GROUP BY q.id1",
    )
    .unwrap();
    db.execute("CREATE VIEW SELFMINS AS SELECT id1 AS bid, row_min(dm) AS mv FROM selfdist")
        .unwrap();

    // Combine in the driver ("a series of operations on matrices", §5):
    // per point min(self, cross), then global argmax.
    let combined = db
        .query(
            "SELECT a.bid AS bid, a.mv AS self_mv, b.mv AS cross_mv
             FROM selfmins AS a, crossmins AS b
             WHERE a.bid = b.bid",
        )
        .unwrap();
    let mut best_val = f64::NEG_INFINITY;
    let mut winners: Vec<i64> = Vec::new();
    for row in &combined.rows {
        let bid = row.value(0).as_integer().unwrap();
        let s = row.value(1).as_vector().unwrap();
        let c = row.value(2).as_vector().unwrap();
        for k in 0..s.len() {
            let id = bid * block as i64 + k as i64;
            if id >= n as i64 {
                continue;
            }
            let v = s.get(k).unwrap().min(c.get(k).unwrap());
            if v > best_val {
                best_val = v;
                winners = vec![id];
            } else if v == best_val {
                winners.push(id);
            }
        }
    }
    winners.sort();
    assert_eq!(winners, expected_distance_winners(n, dims));
}

#[test]
fn distance_tuple_based_matches_kernel_tiny() {
    // The paper marks tuple-based distance as "Fail" at scale; at toy scale
    // it still checks the pure-relational formulation's correctness.
    let (n, dims) = (8, 2);
    let db = Database::new(2);
    load_points(&db, n, dims);
    let a = gen::spd_matrix(SEED ^ 7, dims);
    db.execute("CREATE TABLE amat (r INTEGER, c INTEGER, v DOUBLE)").unwrap();
    for i in 0..dims {
        for j in 0..dims {
            db.execute(&format!(
                "INSERT INTO amat VALUES ({i}, {j}, {})",
                a.get(i, j).unwrap()
            ))
            .unwrap();
        }
    }
    // A·x' per point, tuple-wise.
    db.execute(
        "CREATE VIEW AX AS
         SELECT x.row_index AS pid, amat.r AS dim, SUM(amat.v * x.value) AS v
         FROM amat, x
         WHERE amat.c = x.col_index
         GROUP BY x.row_index, amat.r",
    )
    .unwrap();
    // d(i, j) = Σ_dim x_i[dim]·(A·x_j)[dim]
    db.execute(
        "CREATE VIEW D AS
         SELECT xi.row_index AS i, axj.pid AS j, SUM(xi.value * axj.v) AS d
         FROM x AS xi, ax AS axj
         WHERE xi.col_index = axj.dim AND xi.row_index <> axj.pid
         GROUP BY xi.row_index, axj.pid",
    )
    .unwrap();
    db.execute("CREATE VIEW MINS AS SELECT i, MIN(d) AS md FROM d GROUP BY i")
        .unwrap();
    let r = db
        .query(
            "SELECT mins.i FROM mins, (SELECT MAX(md) AS mx FROM mins) AS q
             WHERE mins.md = q.mx",
        )
        .unwrap();
    let mut got: Vec<i64> =
        r.rows.iter().map(|row| row.value(0).as_integer().unwrap()).collect();
    got.sort();
    assert_eq!(got, expected_distance_winners(n, dims));
}

// ------------------------------------------------------------ Figure 4

#[test]
fn figure4_stats_attribute_join_and_aggregation() {
    // The per-operator statistics behind Figure 4: the tuple-based Gram
    // query must attribute measurable work to both the join and the
    // aggregation, and the vector-based one to the aggregation alone.
    let (n, dims) = (200, 8);
    let db = Database::new(4);
    load_points(&db, n, dims);

    let tuple = db
        .query(
            "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) AS v
             FROM x AS x1, x AS x2
             WHERE x1.row_index = x2.row_index
             GROUP BY x1.col_index, x2.col_index",
        )
        .unwrap();
    let labels: Vec<String> =
        tuple.stats.operators().iter().map(|o| o.label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("Join")), "{labels:?}");
    assert!(labels.iter().any(|l| l.starts_with("HashAggregate")), "{labels:?}");
    // The fused join processed n·dims² joined tuples.
    let join_rows: usize = tuple
        .stats
        .operators()
        .iter()
        .filter(|o| o.label.contains("Join"))
        .map(|o| o.rows_out)
        .sum();
    assert_eq!(join_rows, n * dims * dims);

    let vector = db
        .query("SELECT SUM(outer_product(x.value, x.value)) AS g FROM x_vm AS x")
        .unwrap();
    let vlabels: Vec<String> =
        vector.stats.operators().iter().map(|o| o.label.clone()).collect();
    assert!(!vlabels.iter().any(|l| l.contains("Join")), "{vlabels:?}");
    assert!(vlabels.iter().any(|l| l.starts_with("HashAggregate")), "{vlabels:?}");
}
