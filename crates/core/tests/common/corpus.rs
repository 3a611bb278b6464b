//! The one statement corpus: every statement an equivalence suite runs,
//! under the fixture it reads, and for one that must fail a fragment of
//! the message it fails with. A suite's list is a slice of this one
//! ([`on`], [`named`]); statements a suite also singles out are constants.
//! Adding a statement here runs it under every cell its fixture's suite
//! sweeps.

use super::fixtures::Fixture;

#[derive(Clone, Copy)]
pub struct Statement {
    pub sql: &'static str,
    /// `Some(fragment)`: must fail, in every cell with the same message,
    /// and that message contains `fragment`.
    pub fails_with: Option<&'static str>,
}

/// A fixture, the statements over it that succeed, and those that fail
/// with the fragment their message carries.
type Entry = (Fixture, &'static [&'static str], &'static [(&'static str, &'static str)]);

/// The corpus statements over `fixture`, in corpus order.
pub fn on(fixture: Fixture) -> Vec<Statement> {
    let (_, ok, failing) = CORPUS.iter().find(|(on, ..)| *on == fixture).expect("in the corpus");
    let ok = ok.iter().map(|&sql| Statement { sql, fails_with: None });
    ok.chain(failing.iter().map(|&(sql, fragment)| Statement { sql, fails_with: Some(fragment) }))
        .collect()
}

/// Every corpus statement, with its fixture.
pub fn all() -> impl Iterator<Item = (Fixture, Statement)> {
    CORPUS.iter().flat_map(|&(fixture, ..)| on(fixture).into_iter().map(move |s| (fixture, s)))
}

/// The corpus entries for some of the named statements below.
pub fn named(sql: &[&'static str]) -> Vec<Statement> {
    sql.iter().map(|q| all().find(|(_, s)| s.sql == *q).expect("in the corpus").1).collect()
}

/// Group-by with integer aggregates over the skewed partition.
pub const SKEW_GROUPS: &str = "SELECT g, COUNT(*) AS c, SUM(k) AS s FROM skew GROUP BY g";

/// Wide grouped aggregation: 6000 distinct VARCHAR keys, state larger
/// than a 1 MiB budget — the spilling aggregate path.
pub const FAT_GROUPS: &str = "SELECT payload, COUNT(*) AS c FROM fat GROUP BY payload";

/// Cross products whose build side, the right input, is all of `fat` with
/// its payloads: over 1 MiB on one worker, and not splittable by hashing
/// the empty key. One feeds rows, one feeds an aggregate.
pub const FAT_CROSS: &str = "SELECT a.id, b.payload, a.v * b.v AS p FROM fat AS a, fat AS b
     WHERE a.id < 3 AND b.id < a.id + 2";
pub const FAT_CROSS_SUM: &str = "SELECT a.id, SUM(a.v * b.v) AS s, COUNT(*) AS c
     FROM fat AS a, fat AS b WHERE a.id < 3 AND a.payload <> b.payload GROUP BY a.id";

/// The tile join: tiled SpGEMM + SUM mixing. It repartitions both tables'
/// cells; over 6 × 6 dense tiles it is the paper's §3.4 chunked multiply
/// whose build side and 36 running sums both exceed 1 MiB.
pub const TILE_JOIN: &str = "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
     FROM ta AS a, tb AS b WHERE a.tc = b.tr GROUP BY a.tr, b.tc";

/// The paper's §3.4 distributed tile multiply, verbatim.
pub const TILE_MULTIPLY: &str = "SELECT lhs.tileRow, rhs.tileCol,
        SUM(matrix_multiply(lhs.mat, rhs.mat)) AS mat
 FROM bigMatrix AS lhs, anotherBigMat AS rhs
 WHERE lhs.tileCol = rhs.tileRow
 GROUP BY lhs.tileRow, rhs.tileCol";

/// A scalar filter over `facts`.
pub const FACTS_FILTER: &str = "SELECT id, v * 2 AS vv FROM facts WHERE id >= 150";
/// A join + aggregate over `facts` and `dims`.
pub const FACTS_JOIN_AGG: &str = "SELECT d.label, SUM(f.v) AS s FROM facts AS f, dims AS d
     WHERE f.g = d.g GROUP BY d.label";
/// An LA expression over a subquery of `facts`.
pub const FACTS_LA: &str = "SELECT inner_product(q.x, q.x) AS n2
     FROM (SELECT VECTORIZE(label_scalar(v, id)) AS x FROM facts WHERE id < 8) AS q";

/// A filter whose selectivity makes every batch size cut differently.
pub const MIXED_FILTER: &str = "SELECT id, v * 2.0 FROM t WHERE v > -80.0 AND g <= 5";
/// Fused join→aggregate on the unique id: no residual.
pub const MIXED_JOIN_AGG: &str =
    "SELECT a.g, SUM(a.v * b.v) AS s FROM t AS a, t AS b WHERE a.id = b.id GROUP BY a.g";
/// A residual whose right operand divides by zero on every `a.id = b.id`
/// pair, which its left operand decides: the `OR` must short-circuit
/// there, in the kernels as in the interpreter, over chunks with a boxed
/// VARCHAR column.
pub const SHORT_CIRCUIT_RESIDUAL: &str = "SELECT a.s, COUNT(*) AS c FROM t AS a, t AS b
     WHERE a.g = b.g AND (a.id = b.id OR 1000 / (a.id - b.id) > 3) GROUP BY a.s";

/// A NaN group key under the spilling merge: 6 000 rows over 3 000
/// payloads must come back as 3 000 groups, every key NaN.
pub const WIDE_NAN_GROUPS: &str =
    "SELECT payload, (v - v) / (v - v) AS k, COUNT(*) AS c, SUM(v) AS s
     FROM wide GROUP BY payload, (v - v) / (v - v)";

/// The paper's three Gram formulations (§2, Fig. 1): tuple-based,
/// vector-based, block-based.
pub const GRAM_TUPLE: &str = "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) AS v
     FROM x AS x1, x AS x2
     WHERE x1.row_index = x2.row_index
     GROUP BY x1.col_index, x2.col_index";
pub const GRAM_VECTOR: &str = "SELECT SUM(outer_product(x.value, x.value)) AS g FROM x_vm AS x";
pub const GRAM_BLOCK: &str =
    "SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) AS g FROM mlx";

/// The paper's block-based regression (Fig. 2), as `linreg_block` runs it:
/// `XᵀX` and `Xᵀy` summed over blocks, then `(XᵀX)⁻¹ Xᵀy`.
pub const LINREG_BLOCK: &str = "SELECT matrix_vector_multiply(
        matrix_inverse(SUM(matrix_multiply(trans_matrix(b.m), b.m))),
        SUM(matrix_vector_multiply(trans_matrix(b.m), t.yv))) AS beta
     FROM mlxi AS b, yb AS t
     WHERE b.mi = t.mi";

pub static CORPUS: &[Entry] = &[
    (
        Fixture::Skew,
        &[
            // Scan + filter + project over the skewed partition.
            "SELECT k * 2 AS kk, g FROM skew WHERE k >= 10",
            SKEW_GROUPS,
            "SELECT COUNT(*) AS n, SUM(g) AS sg FROM skew",
            // Hash join build + probe against the skewed probe side.
            "SELECT s.k, d.label FROM skew AS s, dim AS d WHERE s.g = d.g AND s.k >= 990",
            // Sparse tiles cross the wire twice here: raw CSR cells into the
            // repartitioning join, sparse SUM partials into the final
            // aggregate.
            "SELECT a.tr, b.tc, sum_elements(SUM(matrix_multiply(a.mat, b.mat))) AS s
             FROM stile AS a, stile AS b WHERE a.tc = b.tr GROUP BY a.tr, b.tc",
        ],
        &[],
    ),
    (
        Fixture::Fat,
        &[
            FAT_GROUPS,
            // Self-join on the unique id: the build side is the whole fat
            // table — the Grace-partitioned join path.
            "SELECT a.id, b.v FROM fat AS a, fat AS b WHERE a.id = b.id AND a.k >= 10",
            // Join + float aggregation on top (fused path under the
            // optimizer).
            "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c
             FROM fat AS a, fat AS b WHERE a.id = b.id GROUP BY a.g",
            // Small grouped aggregate + global aggregate: must not regress
            // when nothing needs to spill.
            "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM fat GROUP BY g",
            "SELECT COUNT(*) AS n FROM fat",
            FAT_CROSS,
            FAT_CROSS_SUM,
        ],
        &[],
    ),
    (
        Fixture::Facts,
        &[
            FACTS_FILTER,
            "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM facts GROUP BY g",
            "SELECT COUNT(*) AS n, SUM(g) AS sg FROM facts",
            "SELECT f.id, d.label FROM facts AS f, dims AS d WHERE f.g = d.g AND f.id >= 190",
            FACTS_JOIN_AGG,
            FACTS_LA,
        ],
        &[],
    ),
    (
        Fixture::Mixed,
        &[
            // Filter + project with arithmetic, NULLs flowing through 3VL.
            "SELECT id * 2, v + 0.5, v * v - id FROM t WHERE v > -50.0 AND id < 350",
            // Eager OR/AND over NULL-bearing predicates.
            "SELECT id FROM t WHERE g = 3 OR v < -90.0",
            "SELECT id, g FROM t WHERE NOT (g = 2) AND v <= 50.0",
            // Highly selective and empty-result filters.
            "SELECT id FROM t WHERE v = 0.0",
            "SELECT id FROM t WHERE v > 1e18",
            MIXED_FILTER,
            // Fused filter→aggregate, and one with AVG's float state.
            "SELECT g, COUNT(*) AS c, SUM(v) AS sv, MIN(v) AS mn FROM t WHERE id >= 10 GROUP BY g",
            "SELECT g, AVG(v) AS a, SUM(v) AS s FROM t WHERE id < 390 GROUP BY g",
            // Global aggregate, and one over an empty input.
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v < -98.0",
            "SELECT COUNT(*) AS n, SUM(y) AS s FROM empty",
            "SELECT x, y * 2.0 FROM empty WHERE x > 0",
            // Projection only (no filter in the chain).
            "SELECT v - 1.0, id + g FROM t",
            // Fused join→aggregate: a self equi-join with NULL keys and
            // NULL values.
            "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c FROM t AS a, t AS b
             WHERE a.g = b.g GROUP BY a.g",
            MIXED_JOIN_AGG,
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
            // Join residuals, evaluated on the pair chunk ahead of the
            // chain: under a keyed hash join; under a cross product, NULL on
            // the pairs with a NULL `v`; and one that rejects every pair of
            // most 16-pair chunks.
            "SELECT a.g, SUM(a.v * b.v) AS s, COUNT(*) AS c FROM t AS a, t AS b
             WHERE a.g = b.g AND a.id <> b.id GROUP BY a.g",
            "SELECT a.g, COUNT(*) AS c, SUM(a.v + b.v) AS s FROM t AS a, t AS b
             WHERE a.id < 40 AND b.id >= 350 AND a.v + b.v < 0.0 GROUP BY a.g",
            "SELECT a.g, COUNT(*) AS c, MIN(b.v) AS m FROM t AS a, t AS b
             WHERE a.g = b.g AND b.id > a.id + 300 GROUP BY a.g",
            SHORT_CIRCUIT_RESIDUAL,
        ],
        &[
            // VARCHAR arithmetic: rejected by the binder in a projection,
            // by the planner in a predicate.
            ("SELECT s + 1 FROM t", "operator + undefined"),
            ("SELECT id FROM t WHERE s * 2 > 0", "operator * undefined"),
            // The same under a join→aggregate, and an argument that only
            // fails when evaluated (the kernel raises the interpreter's
            // error for its first failing row).
            (
                "SELECT a.g, SUM(a.s + 1) AS x FROM t AS a, t AS b
                 WHERE a.id = b.id GROUP BY a.g",
                "operator + undefined",
            ),
            (
                "SELECT a.g, SUM(a.id / (b.id - b.id)) AS x FROM t AS a, t AS b
                 WHERE a.id = b.id GROUP BY a.g",
                "integer division by zero",
            ),
            // INTEGER arithmetic leaving the 64-bit range: a product,
            // `-MIN`, `MIN / -1`, and a SUM whose terms each fit (plain and
            // under the join→aggregate). A typed error in debug and release
            // builds alike, not a caught worker panic or a wrapped value.
            ("SELECT id * 9223372036854775807 FROM t", "integer overflow in *"),
            ("SELECT -(id - 9223372036854775807 - 1) FROM t", "integer overflow in -"),
            ("SELECT (id - 9223372036854775807 - 1) / -1 FROM t", "integer overflow in /"),
            ("SELECT SUM(id + 9223372036854775000) AS s FROM t", "integer overflow in +"),
            (
                "SELECT a.g, SUM(a.id + 9223372036854775000) AS x FROM t AS a, t AS b
                 WHERE a.id = b.id GROUP BY a.g",
                "integer overflow in +",
            ),
            // The same SUM under a join that has a residual, and a residual
            // that divides by zero on one pair (ids 8 and 15 share g = 1).
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
        ],
    ),
    (
        Fixture::Nan,
        &[
            // A NaN group key is one group (2, 3 000 and 3 groups), while
            // `=` predicates and join keys keep `NaN <> NaN` (5 pairs).
            "SELECT v / v AS k, COUNT(*) AS c FROM z GROUP BY v / v",
            "SELECT payload, (v - v) / (v - v) AS k, COUNT(*) AS c FROM p
             GROUP BY payload, (v - v) / (v - v)",
            "SELECT v, COUNT(*) AS c FROM n GROUP BY v",
            "SELECT COUNT(*) AS c FROM n AS a, n AS b WHERE a.v = b.v",
        ],
        &[],
    ),
    (
        Fixture::Tiles,
        &[
            // Then SpMV, sparse transpose/Gram, elementwise Hadamard, and
            // nnz bookkeeping.
            TILE_JOIN,
            "SELECT a.tr, a.tc, matrix_vector_multiply(a.mat, v.x) AS y
             FROM ta AS a, vt AS v",
            "SELECT a.tr, a.tc, sum_elements(matrix_multiply(trans_matrix(a.mat), a.mat)) AS g
             FROM ta AS a",
            "SELECT a.tr, a.tc, frobenius_norm(a.mat * b.mat) AS f
             FROM ta AS a, tb AS b WHERE a.tr = b.tr AND a.tc = b.tc",
            "SELECT SUM(nnz(a.mat)) AS z, SUM(sum_elements(a.mat)) AS s FROM ta AS a",
        ],
        &[],
    ),
    (Fixture::Wide, &[WIDE_NAN_GROUPS], &[]),
    (Fixture::Paper, &[TILE_MULTIPLY], &[]),
    (
        Fixture::Points,
        &[
            GRAM_TUPLE,
            GRAM_VECTOR,
            GRAM_BLOCK,
            LINREG_BLOCK,
            // The paper's §3.2 regression and §5 distance queries, vector
            // form.
            "SELECT matrix_vector_multiply(
                 matrix_inverse(SUM(outer_product(x.value, x.value))),
                 SUM(x.value * y.y_i)) AS beta
             FROM x_vm AS x, y
             WHERE x.id = y.i",
            "SELECT a.id, MIN(inner_product(a.value, b.value)) AS d
             FROM x_vm AS a, x_vm AS b
             WHERE a.id <> b.id
             GROUP BY a.id",
        ],
        &[],
    ),
];
