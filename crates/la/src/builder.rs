//! The three construction aggregates of §3.3: `VECTORIZE`, `ROWMATRIX` and
//! `COLMATRIX`.
//!
//! These are *aggregate* functions in the SQL extension: they fold a group
//! of labeled scalars (resp. labeled vectors) into a single vector (resp.
//! matrix). Per the paper, "holes" — positions for which no input arrived —
//! are set to zero, and the result is sized by the largest label seen.
//!
//! ## Label base
//!
//! The paper's prose says the vector length equals "the largest label of any
//! entry", while its own block-building code produces labels `0..999`
//! (`x.id - ind.mi*1000`). We resolve the ambiguity the way the code demands:
//! labels are **0-based positions**, and the result has `max_label + 1`
//! entries. Negative labels (including the −1 default) are rejected.

use crate::error::{LaError, Result};
use crate::labeled::LabeledScalar;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Accumulator for the `VECTORIZE` aggregate: builds a [`Vector`] from
/// [`LabeledScalar`] inputs.
///
/// ```
/// use lardb_la::{LabeledScalar, VectorizeBuilder};
/// let mut b = VectorizeBuilder::new();
/// b.push(LabeledScalar::new(9.0, 2)).unwrap();
/// b.push(LabeledScalar::new(1.0, 0)).unwrap();
/// assert_eq!(b.finish().as_slice(), &[1.0, 0.0, 9.0]); // holes are zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct VectorizeBuilder {
    entries: Vec<(i64, f64)>,
    max_label: i64,
}

impl VectorizeBuilder {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        VectorizeBuilder { entries: Vec::new(), max_label: -1 }
    }

    /// Folds one labeled scalar into the accumulator.
    pub fn push(&mut self, s: LabeledScalar) -> Result<()> {
        if s.label < 0 {
            return Err(LaError::InvalidConstruction {
                reason: format!("VECTORIZE: negative label {}", s.label),
            });
        }
        self.max_label = self.max_label.max(s.label);
        self.entries.push((s.label, s.value));
        Ok(())
    }

    /// Number of values folded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The raw `(label, value)` pairs folded so far, in arrival order.
    /// Used by two-phase aggregation to ship partial state.
    pub fn entries(&self) -> &[(i64, f64)] {
        &self.entries
    }

    /// True when nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finishes the aggregate. Holes are zero; later duplicates of the same
    /// label overwrite earlier ones (group order), matching SimSQL.
    pub fn finish(self) -> Vector {
        let len = (self.max_label + 1).max(0) as usize;
        let mut v = Vector::zeros(len);
        for (label, value) in self.entries {
            v.as_mut_slice()[label as usize] = value;
        }
        v
    }
}

/// Accumulator shared by the `ROWMATRIX` and `COLMATRIX` aggregates: builds
/// a [`Matrix`] from labeled [`Vector`]s, using each vector's label as its
/// row (resp. column) position.
#[derive(Debug, Clone)]
pub struct RowMatrixBuilder {
    vectors: Vec<(i64, Vector)>,
    max_label: i64,
    width: Option<usize>,
}

impl RowMatrixBuilder {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        RowMatrixBuilder { vectors: Vec::new(), max_label: -1, width: None }
    }

    /// Folds one labeled vector. All vectors in a group must share one
    /// length; the first vector fixes it.
    pub fn push(&mut self, v: Vector) -> Result<()> {
        if v.label() < 0 {
            return Err(LaError::InvalidConstruction {
                reason: format!("ROWMATRIX/COLMATRIX: negative label {}", v.label()),
            });
        }
        match self.width {
            None => self.width = Some(v.len()),
            Some(w) if w != v.len() => {
                return Err(LaError::DimMismatch {
                    op: "rowmatrix",
                    lhs: (w, 1),
                    rhs: (v.len(), 1),
                })
            }
            Some(_) => {}
        }
        self.max_label = self.max_label.max(v.label());
        self.vectors.push((v.label(), v));
        Ok(())
    }

    /// Number of vectors folded so far.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// The raw `(label, vector)` pairs folded so far, in arrival order.
    /// Used by two-phase aggregation to ship partial state.
    pub fn entries(&self) -> &[(i64, Vector)] {
        &self.vectors
    }

    /// True when nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Finishes as `ROWMATRIX`: vector with label `i` becomes row `i`.
    pub fn finish_rows(self) -> Matrix {
        let rows = (self.max_label + 1).max(0) as usize;
        let cols = self.width.unwrap_or(0);
        let mut m = Matrix::zeros(rows, cols);
        for (label, v) in self.vectors {
            m.row_mut(label as usize).copy_from_slice(v.as_slice());
        }
        m
    }

    /// Finishes as `COLMATRIX`: vector with label `j` becomes column `j`.
    pub fn finish_cols(self) -> Matrix {
        let cols = (self.max_label + 1).max(0) as usize;
        let rows = self.width.unwrap_or(0);
        let mut m = Matrix::zeros(rows, cols);
        for (label, v) in self.vectors {
            let j = label as usize;
            for (i, &x) in v.as_slice().iter().enumerate() {
                m.as_mut_slice()[i * cols + j] = x;
            }
        }
        m
    }
}

/// Alias so call sites can say [`ColMatrixBuilder`] for intent; the
/// accumulator is shared and only `finish_*` differs.
pub type ColMatrixBuilder = RowMatrixBuilder;

impl Default for RowMatrixBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectorize_places_by_label_with_holes() {
        let mut b = VectorizeBuilder::new();
        b.push(LabeledScalar::new(5.0, 2)).unwrap();
        b.push(LabeledScalar::new(1.0, 0)).unwrap();
        let v = b.finish();
        assert_eq!(v.as_slice(), &[1.0, 0.0, 5.0]);
    }

    #[test]
    fn vectorize_rejects_negative_label() {
        let mut b = VectorizeBuilder::new();
        assert!(b.push(LabeledScalar::new(1.0, -1)).is_err());
    }

    #[test]
    fn vectorize_empty_gives_empty_vector() {
        assert_eq!(VectorizeBuilder::new().finish().len(), 0);
    }

    #[test]
    fn vectorize_duplicate_label_last_wins() {
        let mut b = VectorizeBuilder::new();
        b.push(LabeledScalar::new(1.0, 0)).unwrap();
        b.push(LabeledScalar::new(9.0, 0)).unwrap();
        assert_eq!(b.finish().as_slice(), &[9.0]);
    }

    #[test]
    fn vectorize_zero_fills_up_to_the_largest_label() {
        let mut b = VectorizeBuilder::new();
        b.push(LabeledScalar::new(1.0, 0)).unwrap();
        b.push(LabeledScalar::new(2.0, 3)).unwrap();
        assert_eq!(b.finish().as_slice(), &[1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn rowmatrix_assembles_rows() {
        let mut b = RowMatrixBuilder::new();
        b.push(Vector::from_slice(&[1.0, 2.0]).with_label(1)).unwrap();
        b.push(Vector::from_slice(&[3.0, 4.0]).with_label(0)).unwrap();
        let m = b.finish_rows();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn rowmatrix_hole_rows_are_zero() {
        let mut b = RowMatrixBuilder::new();
        b.push(Vector::from_slice(&[1.0]).with_label(2)).unwrap();
        let m = b.finish_rows();
        assert_eq!(m.shape(), (3, 1));
        assert_eq!(m.row(0), &[0.0]);
        assert_eq!(m.row(2), &[1.0]);
    }

    #[test]
    fn colmatrix_assembles_columns() {
        let mut b: ColMatrixBuilder = RowMatrixBuilder::new();
        b.push(Vector::from_slice(&[1.0, 2.0]).with_label(0)).unwrap();
        b.push(Vector::from_slice(&[3.0, 4.0]).with_label(1)).unwrap();
        let m = b.finish_cols();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 1).unwrap(), 3.0);
        assert_eq!(m.get(1, 0).unwrap(), 2.0);
    }

    #[test]
    fn rowmatrix_rejects_mixed_widths_and_unlabeled() {
        let mut b = RowMatrixBuilder::new();
        b.push(Vector::zeros(2).with_label(0)).unwrap();
        assert!(b.push(Vector::zeros(3).with_label(1)).is_err());
        // default label is -1 => rejected
        assert!(b.push(Vector::zeros(2)).is_err());
    }

    #[test]
    fn rowmatrix_shape_follows_the_largest_label() {
        let mut b = RowMatrixBuilder::new();
        b.push(Vector::from_slice(&[1.0]).with_label(0)).unwrap();
        b.push(Vector::from_slice(&[2.0]).with_label(1)).unwrap();
        let m = b.finish_rows();
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m.get(1, 0).unwrap(), 2.0);
    }

    #[test]
    fn empty_builders() {
        assert!(RowMatrixBuilder::new().is_empty());
        assert_eq!(RowMatrixBuilder::new().finish_rows().shape(), (0, 0));
        assert_eq!(RowMatrixBuilder::new().finish_cols().shape(), (0, 0));
        assert!(VectorizeBuilder::new().is_empty());
    }
}
