//! Cardinality and data-volume estimation.
//!
//! The paper's optimizer story (§4.1) is entirely about *data volume*: the
//! rows flowing through a plan, times per-row width — where the width of an
//! LA attribute comes from the dimension inference of §4.2 (an intermediate
//! `MATRIX[100000][100]` weighs 80 MB). Plan cost here is the classic
//! "sum of intermediate result volumes", which is exactly the quantity the
//! paper reasons with (80 GB vs 80 MB for the two §4.1 plans).

use lardb_storage::Schema;

use crate::{AggExpr, AggFunc, CmpOp, Expr};

/// Estimated size of a plan node's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Estimated row count.
    pub rows: f64,
    /// Estimated bytes per row (LA columns priced via inferred dims).
    pub row_bytes: f64,
}

impl PlanEstimate {
    /// Creates an estimate.
    pub fn new(rows: f64, row_bytes: f64) -> Self {
        PlanEstimate { rows, row_bytes }
    }

    /// Total output volume in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }

    /// Row width implied by a schema's declared/inferred types.
    pub fn row_bytes_of(schema: &Schema) -> f64 {
        schema.estimated_row_bytes() as f64
    }
}

/// Bytes charged per COO entry of a `MATRIX_FROM_ENTRIES` aggregate —
/// (row, col, val) coordinates plus row overhead. Matches the wire
/// format's nnz-proportional sizing.
pub const COO_ENTRY_BYTES: f64 = 16.0;

/// Makes aggregate output widths nnz-aware: each `MATRIX_FROM_ENTRIES`
/// column is priced at `input_rows × COO_ENTRY_BYTES` (one COO entry per
/// input row) instead of the unknown-dims dense guess the schema carries,
/// which overstates a sparse tile by orders of magnitude.
pub fn sparse_agg_width(base: f64, n_sparse_aggs: usize, input_rows: f64) -> f64 {
    if n_sparse_aggs == 0 {
        return base;
    }
    let dense_guess =
        lardb_storage::DataType::Matrix(None, None).estimated_byte_width() as f64;
    let adjusted =
        base + n_sparse_aggs as f64 * (input_rows * COO_ENTRY_BYTES - dense_guess);
    adjusted.max(8.0)
}

/// Default selectivity of an equality predicate between two columns
/// (an equi-join): 1 / max cardinality side, the textbook Selinger
/// assumption with unknown distinct counts.
pub fn equi_join_selectivity(left_rows: f64, right_rows: f64) -> f64 {
    1.0 / left_rows.max(right_rows).max(1.0)
}

/// Default selectivity of a single-table predicate.
pub fn predicate_selectivity(is_equality: bool) -> f64 {
    if is_equality {
        0.1
    } else {
        1.0 / 3.0
    }
}

// One formula per operator, applied by the one pricing function,
// `Optimizer::price`: `Optimizer::estimate` folds it over a logical tree,
// and the physical planner calls it on each node as it plans it.

/// Rows a filter keeps: every conjunct at its default selectivity.
pub fn filter_rows(input_rows: f64, predicate: &Expr) -> f64 {
    let mut preds = Vec::new();
    predicate.clone().split_conjunction(&mut preds);
    let sel: f64 = preds
        .iter()
        .map(|p| predicate_selectivity(matches!(p, Expr::Cmp { op: CmpOp::Eq, .. })))
        .product();
    (input_rows * sel).max(1.0)
}

/// Rows of a join on `keys` equality pairs (none: the cross product).
pub fn equi_join_rows(left_rows: f64, right_rows: f64, keys: usize) -> f64 {
    let sel: f64 = (0..keys).map(|_| equi_join_selectivity(left_rows, right_rows)).product();
    (left_rows * right_rows * sel).max(1.0)
}

/// Groups of a complete aggregate: one when global, else the square root
/// of its input (no distinct counts are kept).
pub fn group_rows(input_rows: f64, grouped: bool) -> f64 {
    if grouped {
        input_rows.sqrt().max(1.0)
    } else {
        1.0
    }
}

/// An aggregate's row width: its schema's (`base`), with every
/// `MATRIX_FROM_ENTRIES` column re-priced by [`sparse_agg_width`].
pub fn aggregate_width(base: f64, aggs: &[AggExpr], input_rows: f64) -> f64 {
    let sparse = aggs.iter().filter(|a| a.func == AggFunc::MatrixFromEntries).count();
    sparse_agg_width(base, sparse, input_rows)
}

/// Rows a `LIMIT n` lets through.
pub fn limit_rows(input_rows: f64, n: usize) -> f64 {
    input_rows.min(n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_storage::DataType;

    #[test]
    fn volume_math() {
        let e = PlanEstimate::new(1000.0, 80.0);
        assert_eq!(e.total_bytes(), 80_000.0);
    }

    #[test]
    fn row_bytes_prices_matrices() {
        let s = Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("m", DataType::Matrix(Some(100_000), Some(100))),
        ]);
        assert_eq!(PlanEstimate::row_bytes_of(&s), 8.0 + 80_000_000.0);
    }

    #[test]
    fn sparse_agg_width_is_nnz_proportional() {
        let dense = DataType::Matrix(None, None).estimated_byte_width() as f64;
        // No sparse aggs: untouched.
        assert_eq!(sparse_agg_width(100.0, 0, 1e6), 100.0);
        // One sparse agg over 10k entries replaces the dense guess.
        let w = sparse_agg_width(dense + 8.0, 1, 10_000.0);
        assert_eq!(w, 8.0 + 10_000.0 * COO_ENTRY_BYTES);
        assert!(w < dense / 10.0, "sparse estimate far below dense guess");
        // Never collapses below a scalar's width.
        assert_eq!(sparse_agg_width(8.0, 1, 0.0), 8.0);
    }

    #[test]
    fn selectivities_sane() {
        assert_eq!(equi_join_selectivity(100.0, 1000.0), 1e-3);
        assert!(predicate_selectivity(true) < predicate_selectivity(false));
        assert_eq!(equi_join_selectivity(0.0, 0.0), 1.0);
    }
}
