//! Rewritten ≡ unrewritten: the optimizer's type-directed LA rewrites
//! (`matrix_multiply(trans_matrix(c), c)` → `gram(c)`,
//! `matrix_vector_multiply(trans_matrix(x), v)` →
//! `trans_matrix_vector_multiply(x, v)`) change which kernel a statement
//! runs, never its answer.
//!
//! Every statement a rewrite fires on is paired with a spelling it cannot
//! fire on: the same transpose, materialized as a column of a derived
//! table. Under the oracle and every single-axis cell, each cell answers
//! both as the oracle does, and the two spellings give the same rows, bit
//! for bit — or, for a runtime dimension mismatch, the same message. The
//! pairs run over the Gram and regression blocks, NULL operands, and both
//! tile stores: CSR tiles (where the internal built-ins run the spelled-out
//! call) and their dense twins (where they run SYRK and `xᵀv`).

mod common;

use common::compare::{check, unordered};
use common::corpus::{Statement, GRAM_BLOCK, LINREG_BLOCK};
use common::fixtures::{tile_db, Fixture};
use common::lattice::{self, Cell};
use lardb::{Database, DispatchCounters};

/// The names EXPLAIN shows for the rewrites' internal built-ins.
const INTERNAL: [&str; 2] = ["gram(", "trans_matrix_vector_multiply("];

/// `(rewritten, unrewritten, fails_with)`.
type Law = (&'static str, &'static str, Option<&'static str>);

/// An empty global `SUM`: one row whose `m` is a NULL `MATRIX[4][4]` and
/// whose `v` is a NULL `VECTOR[4]`.
macro_rules! nulls {
    ($($items:literal),*) => {
        concat!("(SELECT ", $($items,)* " FROM x_vm AS x WHERE x.id < 0) AS z")
    };
}

const POINTS_LAWS: &[Law] = &[
    (
        GRAM_BLOCK,
        "SELECT SUM(matrix_multiply(q.mt, q.m)) AS g
         FROM (SELECT trans_matrix(mlx.m) AS mt, mlx.m AS m FROM mlx) AS q",
        None,
    ),
    (
        LINREG_BLOCK,
        "SELECT matrix_vector_multiply(
            matrix_inverse(SUM(matrix_multiply(q.mt, q.m))),
            SUM(matrix_vector_multiply(q.mt, q.yv))) AS beta
         FROM (SELECT trans_matrix(b.m) AS mt, b.m AS m, t.yv AS yv
               FROM mlxi AS b, yb AS t WHERE b.mi = t.mi) AS q",
        None,
    ),
    // Dimensions unknown at bind time: 8 × 4 blocks, transposed, times a
    // 5-vector fail at run time on the transposed shape.
    (
        "SELECT matrix_vector_multiply(trans_matrix(b.m), q.x) AS y
         FROM mlx AS b, (SELECT VECTORIZE(label_scalar(y.y_i, y.i)) AS x FROM y
                         WHERE y.i < 5) AS q",
        "SELECT matrix_vector_multiply(p.mt, q.x) AS y
         FROM (SELECT trans_matrix(mlx.m) AS mt FROM mlx) AS p,
              (SELECT VECTORIZE(label_scalar(y.y_i, y.i)) AS x FROM y WHERE y.i < 5) AS q",
        Some("matrix_vector_multiply: dimension mismatch between 4x8 and 5x1"),
    ),
    // NULL operands: a NULL matrix to either rewrite, a NULL vector to Aᵀv.
    (
        concat!(
            "SELECT matrix_multiply(trans_matrix(z.m), z.m) AS g FROM ",
            nulls!("SUM(outer_product(x.value, x.value)) AS m")
        ),
        concat!(
            "SELECT matrix_multiply(z.mt, z.m) AS g FROM ",
            nulls!(
                "trans_matrix(SUM(outer_product(x.value, x.value))) AS mt, ",
                "SUM(outer_product(x.value, x.value)) AS m"
            )
        ),
        None,
    ),
    (
        concat!(
            "SELECT matrix_vector_multiply(trans_matrix(z.m), x.value) AS y FROM x_vm AS x, ",
            nulls!("SUM(outer_product(x.value, x.value)) AS m")
        ),
        concat!(
            "SELECT matrix_vector_multiply(z.mt, x.value) AS y FROM x_vm AS x, ",
            nulls!("trans_matrix(SUM(outer_product(x.value, x.value))) AS mt")
        ),
        None,
    ),
    (
        concat!(
            "SELECT matrix_vector_multiply(trans_matrix(b.m), z.v) AS y FROM mlx AS b, ",
            nulls!("SUM(x.value) AS v")
        ),
        concat!(
            "SELECT matrix_vector_multiply(p.mt, z.v) AS y
             FROM (SELECT trans_matrix(mlx.m) AS mt FROM mlx) AS p, ",
            nulls!("SUM(x.value) AS v")
        ),
        None,
    ),
];

/// `ta` with each tile's transpose beside it, as the derived table `q`.
macro_rules! ta_t {
    () => {
        "(SELECT a.tr AS tr, a.tc AS tc, trans_matrix(a.mat) AS mt, a.mat AS mat
          FROM ta AS a) AS q"
    };
}

const TILE_LAWS: &[Law] = &[
    (
        "SELECT a.tr, a.tc, matrix_multiply(trans_matrix(a.mat), a.mat) AS g FROM ta AS a",
        concat!("SELECT q.tr, q.tc, matrix_multiply(q.mt, q.mat) AS g FROM ", ta_t!()),
        None,
    ),
    (
        "SELECT a.tr, SUM(matrix_multiply(trans_matrix(a.mat), a.mat)) AS g
         FROM ta AS a GROUP BY a.tr",
        concat!(
            "SELECT q.tr, SUM(matrix_multiply(q.mt, q.mat)) AS g FROM ",
            ta_t!(),
            " GROUP BY q.tr"
        ),
        None,
    ),
    (
        "SELECT a.tr, a.tc, matrix_vector_multiply(trans_matrix(a.mat), v.x) AS y
         FROM ta AS a, vt AS v",
        concat!(
            "SELECT q.tr, q.tc, matrix_vector_multiply(q.mt, v.x) AS y FROM vt AS v, ",
            ta_t!()
        ),
        None,
    ),
];

/// Runs every law's two statements under the oracle and each single-axis
/// cell over the databases `open` builds, each cell checked against the
/// oracle, and asserts that in every cell the two spellings agree — after
/// checking that the rewrite fires on the first and not on the second.
fn assert_laws(laws: &[Law], open: impl Fn(&Cell) -> Database) {
    let oracle = lattice::oracle();
    let reference = open(&oracle);
    for &(rewritten, unrewritten, _) in laws {
        let shown = |sql| reference.explain(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let fired = |sql| {
            let plan = shown(sql);
            INTERNAL.iter().any(|name| plan.contains(name))
        };
        assert!(fired(rewritten), "no rewrite in:\n{}", shown(rewritten));
        assert!(!fired(unrewritten), "rewritten:\n{}", shown(unrewritten));
    }
    let statements: Vec<Statement> = laws
        .iter()
        .flat_map(|&(a, b, fails_with)| [a, b].map(|sql| Statement { sql, fails_with }))
        .collect();
    let cells = lattice::single_axis().into_iter().map(|c| {
        let db = open(&c);
        (c, db)
    });
    for run in check(&statements, (oracle, reference), cells.collect()) {
        for (pair, law) in run.outcomes.chunks(2).zip(laws) {
            let at = format!("{} statement={}", run.cell.name, law.0);
            assert_eq!(unordered(&pair[0]), unordered(&pair[1]), "{at}");
        }
    }
}

#[test]
fn rewritten_equals_unrewritten_on_points_under_every_cell() {
    assert_laws(POINTS_LAWS, |cell| Fixture::Points.open(cell));
}

#[test]
fn rewritten_equals_unrewritten_on_sparse_tiles_under_every_cell() {
    assert_laws(TILE_LAWS, |cell| Fixture::Tiles.open(cell));
}

#[test]
fn rewritten_equals_unrewritten_on_dense_tiles_under_every_cell() {
    assert_laws(TILE_LAWS, |cell| {
        let db = cell.open();
        tile_db(&db, 4, false, 0.5);
        db
    });
}

/// SQL cannot name the internal built-ins; EXPLAIN shows them where the
/// optimizer put them; and the Gram counts exactly the dense kernels the
/// GEMM it replaces counted — one per block, nothing else.
#[test]
fn internal_builtins_are_invisible_to_sql_and_count_as_the_gemm_did() {
    let db = Fixture::Points.open(&lattice::oracle());
    for sql in ["SELECT gram(mlx.m) FROM mlx", "SELECT trans_matrix_vector_multiply(m, m) FROM mlx"] {
        let err = db.query(sql).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("unknown function"), "{sql}: {err}");
    }
    let plan = db.explain(GRAM_BLOCK).unwrap();
    assert!(plan.contains("SUM(gram(mlx.m))"), "{plan}");
    assert!(!plan.contains("trans_matrix"), "{plan}");
    let blocks = db.query("SELECT COUNT(*) AS n FROM mlx").unwrap();
    let blocks = blocks.scalar().and_then(|v| v.as_integer()).unwrap() as u64;
    assert_eq!(blocks, 5);
    let r = db.query(GRAM_BLOCK).unwrap();
    let dense_only = DispatchCounters { dense: blocks, ..DispatchCounters::default() };
    assert_eq!(r.stats.dispatch, dense_only);
}

/// The block regression counts one dense kernel per block, its Gram:
/// `matrix_inverse` runs blocked LU on the same microkernel but counts no
/// kernel, and neither do the products with vectors.
#[test]
fn block_regression_counts_one_dense_kernel_per_block() {
    let db = Fixture::Points.open(&lattice::oracle());
    let blocks = db.query("SELECT COUNT(*) AS n FROM mlxi").unwrap();
    let blocks = blocks.scalar().and_then(|v| v.as_integer()).unwrap() as u64;
    assert!(blocks > 1, "{blocks} blocks");
    let r = db.query(LINREG_BLOCK).unwrap();
    assert_eq!(r.stats.dispatch, DispatchCounters { dense: blocks, ..DispatchCounters::default() });
}
