//! Dense row-major `f64` matrices.

use crate::error::{LaError, Result};
use crate::gemm;
use crate::vector::Vector;

/// A dense, row-major matrix of `f64` entries — the paper's `MATRIX` type.
///
/// All matrices are *local*: the paper's design deliberately keeps every
/// matrix small enough for one machine's RAM (§3.4); large matrices live in
/// the database as relations of tiles, and distributed arithmetic over tiles
/// is ordinary relational algebra.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an all-zero `rows × cols` matrix (the `zero_matrix` built-in).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix (the `identity` built-in).
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LaError::InvalidConstruction {
                    reason: format!("row {i} has length {}, expected {c}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: r, cols: c, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LaError::InvalidConstruction {
                reason: format!(
                    "buffer length {} does not match {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a generating function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read-only view of the flat row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice. Panics if out of range (internal hot path; use
    /// [`Matrix::get`] for checked access).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Checked element access — the `get_entry` built-in.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(LaError::OutOfBounds {
                op: "get_entry",
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Checked element update.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(LaError::OutOfBounds {
                op: "set_entry",
                index: (i, j),
                shape: self.shape(),
            });
        }
        self.data[i * self.cols + j] = value;
        Ok(())
    }

    /// Unchecked-by-construction access used by kernel inner loops.
    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Extracts row `i` as a [`Vector`] (used by the block-based SQL paths).
    pub fn row_vector(&self, i: usize) -> Result<Vector> {
        if i >= self.rows {
            return Err(LaError::OutOfBounds {
                op: "row_vector",
                index: (i, 0),
                shape: self.shape(),
            });
        }
        Ok(Vector::from_slice(self.row(i)))
    }

    /// Extracts column `j` as a [`Vector`].
    pub fn col_vector(&self, j: usize) -> Result<Vector> {
        if j >= self.cols {
            return Err(LaError::OutOfBounds {
                op: "col_vector",
                index: (0, j),
                shape: self.shape(),
            });
        }
        Ok(Vector::from_fn(self.rows, |i| self.at(i, j)))
    }

    /// Matrix transpose — the `trans_matrix` built-in. Blocked for cache
    /// friendliness on large matrices.
    pub fn transpose(&self) -> Matrix {
        const B: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Matrix × matrix — the `matrix_multiply` built-in; register-tiled GEMM.
    ///
    /// ```
    /// use lardb_la::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    /// let b = Matrix::identity(2);
    /// assert_eq!(a.multiply(&b).unwrap(), a);
    /// assert!(Matrix::zeros(2, 3).multiply(&Matrix::zeros(2, 3)).is_err());
    /// ```
    pub fn multiply(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LaError::DimMismatch {
                op: "matrix_multiply",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm::gemm_acc(self, other, &mut out);
        Ok(out)
    }

    /// Accumulates `self × other` into `out` (`out += self * other`); the hot
    /// path of distributed tile multiplication where many partial products
    /// are summed (§3.4).
    pub fn multiply_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LaError::DimMismatch {
                op: "matrix_multiply",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if out.rows != self.rows || out.cols != other.cols {
            return Err(LaError::DimMismatch {
                op: "matrix_multiply_into",
                lhs: (self.rows, other.cols),
                rhs: out.shape(),
            });
        }
        gemm::gemm_acc(self, other, out);
        Ok(())
    }

    /// `selfᵀ × self`, exploiting symmetry — used by Gram-matrix and
    /// least-squares kernels (computes only the upper triangle, mirrors it).
    pub fn gram(&self) -> Matrix {
        gemm::syrk_t(self)
    }

    /// Matrix × column-vector — the `matrix_vector_multiply` built-in.
    pub fn matrix_vector_multiply(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.len() {
            return Err(LaError::DimMismatch {
                op: "matrix_vector_multiply",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut s = 0.0;
            for (a, b) in row.iter().zip(v.as_slice().iter()) {
                s += a * b;
            }
            out.push(s);
        }
        Ok(Vector::from_vec(out))
    }

    /// `selfᵀ × v` without materializing the transpose: what
    /// `matrix_vector_multiply(trans_matrix(m), v)` computes, bit for bit,
    /// failing with that call's error on the transposed shape.
    pub fn transpose_vector_multiply(&self, v: &Vector) -> Result<Vector> {
        if self.rows != v.len() {
            return Err(LaError::DimMismatch {
                op: "matrix_vector_multiply",
                lhs: (self.cols, self.rows),
                rhs: (v.len(), 1),
            });
        }
        Ok(v.combine_rows(self))
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LaError::DimMismatch { op, lhs: self.shape(), rhs: other.shape() });
        }
        Ok(())
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let data =
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise addition (`+` in the SQL extension).
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "matrix_add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "matrix_sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product — `mat * mat` in §3.2.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "matrix_mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Element-wise division.
    pub fn div(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "matrix_div")?;
        Ok(self.zip_with(other, |a, b| a / b))
    }

    /// In-place element-wise addition (the `SUM` aggregate accumulator).
    pub fn add_in_place(&mut self, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "matrix_sum")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place element-wise minimum (the `MIN` aggregate).
    pub fn min_in_place(&mut self, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "matrix_min")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = a.min(b);
        }
        Ok(())
    }

    /// In-place element-wise maximum (the `MAX` aggregate).
    pub fn max_in_place(&mut self, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "matrix_max")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = a.max(b);
        }
        Ok(())
    }

    /// Applies `f` to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds `s` to every entry (scalar broadcast, §3.2).
    pub fn scalar_add(&self, s: f64) -> Matrix {
        self.map(|x| x + s)
    }

    /// Subtracts `s` from every entry.
    pub fn scalar_sub(&self, s: f64) -> Matrix {
        self.map(|x| x - s)
    }

    /// Multiplies every entry by `s`.
    pub fn scalar_mul(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Divides every entry by `s`.
    pub fn scalar_div(&self, s: f64) -> Matrix {
        self.map(|x| x / s)
    }

    /// Diagonal of a square matrix — the `diag` built-in, whose templated
    /// signature `diag(MATRIX[a][a]) -> VECTOR[a]` constrains the input to
    /// be square (§4.2).
    pub fn diag(&self) -> Result<Vector> {
        if !self.is_square() {
            return Err(LaError::NotSquare { op: "diag", shape: self.shape() });
        }
        Ok(Vector::from_fn(self.rows, |i| self.at(i, i)))
    }

    /// Builds a diagonal matrix from a vector — the `diag_matrix` built-in.
    pub fn from_diag(v: &Vector) -> Matrix {
        let n = v.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &x) in v.as_slice().iter().enumerate() {
            m.data[i * n + i] = x;
        }
        m
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LaError::NotSquare { op: "trace", shape: self.shape() });
        }
        Ok((0..self.rows).map(|i| self.at(i, i)).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum_elements(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-row sums — the `row_sums` built-in.
    pub fn row_sums(&self) -> Vector {
        Vector::from_fn(self.rows, |i| self.row(i).iter().sum())
    }

    /// Per-column sums — the `col_sums` built-in.
    pub fn col_sums(&self) -> Vector {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
        Vector::from_vec(out)
    }

    /// Per-row minima (SystemML's `rowMins`, used by the distance workload).
    pub fn row_mins(&self) -> Vector {
        Vector::from_fn(self.rows, |i| {
            self.row(i).iter().copied().fold(f64::INFINITY, f64::min)
        })
    }

    /// Per-row maxima.
    pub fn row_maxs(&self) -> Vector {
        Vector::from_fn(self.rows, |i| {
            self.row(i).iter().copied().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Inverse via LU with partial pivoting — the `matrix_inverse` built-in.
    pub fn inverse(&self) -> Result<Matrix> {
        crate::lu::LuDecomposition::new(self)?.inverse()
    }

    /// Solves `self · x = b` — the `solve` built-in.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        crate::lu::LuDecomposition::new(self)?.solve(b)
    }

    /// Determinant via LU.
    pub fn determinant(&self) -> Result<f64> {
        Ok(crate::lu::LuDecomposition::new(self)?.determinant())
    }

    /// Stacks matrices vertically; every input must have the same column
    /// count. Used by `ROWMATRIX`-style assembly and the tiled examples.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        let cols = parts.first().map_or(0, |m| m.cols);
        let mut data = Vec::new();
        let mut rows = 0;
        for (i, m) in parts.iter().enumerate() {
            if m.cols != cols {
                return Err(LaError::InvalidConstruction {
                    reason: format!("vstack part {i} has {} cols, expected {cols}", m.cols),
                });
            }
            rows += m.rows;
            data.extend_from_slice(&m.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Extracts the sub-matrix `[r0, r0+nrows) × [c0, c0+ncols)`.
    pub fn submatrix(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Result<Matrix> {
        if r0 + nrows > self.rows || c0 + ncols > self.cols {
            return Err(LaError::OutOfBounds {
                op: "submatrix",
                index: (r0 + nrows, c0 + ncols),
                shape: self.shape(),
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in r0..r0 + nrows {
            data.extend_from_slice(&self.data[i * self.cols + c0..i * self.cols + c0 + ncols]);
        }
        Ok(Matrix { rows: nrows, cols: ncols, data })
    }

    /// Approximate equality with absolute tolerance `tol`; test helper.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Payload size in bytes — what the paper's optimizer estimates as
    /// `8 × rows × cols` (§4.1); used by the cost model and shuffle metering.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::identity(3).trace().unwrap(), 3.0);
        assert_eq!(Matrix::filled(2, 2, 5.0).sum_elements(), 20.0);
        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f.get(1, 1).unwrap(), 11.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r: &[&[f64]] = &[&[1.0, 2.0], &[3.0]];
        assert!(matches!(Matrix::from_rows(r), Err(LaError::InvalidConstruction { .. })));
    }

    #[test]
    fn from_vec_rejects_wrong_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn transpose_square_and_rect() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1).unwrap(), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        let m = Matrix::from_fn(70, 45, |i, j| (i * 45 + j) as f64);
        let t = m.transpose();
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(t.get(j, i).unwrap(), m.get(i, j).unwrap());
            }
        }
    }

    #[test]
    fn multiply_identity() {
        let m = m22();
        let id = Matrix::identity(2);
        assert_eq!(m.multiply(&id).unwrap(), m);
        assert_eq!(id.multiply(&m).unwrap(), m);
    }

    #[test]
    fn multiply_known_values() {
        let a = m22();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.multiply(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn multiply_dim_mismatch() {
        assert!(Matrix::zeros(2, 3).multiply(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn multiply_into_accumulates() {
        let a = Matrix::identity(2);
        let mut acc = Matrix::zeros(2, 2);
        a.multiply_into(&a, &mut acc).unwrap();
        a.multiply_into(&a, &mut acc).unwrap();
        assert_eq!(acc.get(0, 0).unwrap(), 2.0);
        let mut bad = Matrix::zeros(3, 3);
        assert!(a.multiply_into(&a, &mut bad).is_err());
    }

    #[test]
    fn matrix_vector_multiply_works() {
        let m = m22();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.matrix_vector_multiply(&v).unwrap().as_slice(), &[3.0, 7.0]);
        assert!(m.matrix_vector_multiply(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn elementwise_and_broadcast() {
        let a = m22();
        assert_eq!(a.add(&a).unwrap(), a.scalar_mul(2.0));
        assert_eq!(a.sub(&a).unwrap(), Matrix::zeros(2, 2));
        assert_eq!(a.mul(&a).unwrap().get(1, 1).unwrap(), 16.0);
        assert_eq!(a.div(&a).unwrap(), Matrix::filled(2, 2, 1.0));
        assert_eq!(a.scalar_add(1.0).get(0, 0).unwrap(), 2.0);
        assert_eq!(a.scalar_sub(1.0).get(0, 0).unwrap(), 0.0);
        assert_eq!(a.scalar_div(2.0).get(1, 1).unwrap(), 2.0);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        assert!(m22().add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn in_place_aggregate_ops() {
        let mut acc = Matrix::zeros(2, 2);
        acc.add_in_place(&m22()).unwrap();
        acc.add_in_place(&m22()).unwrap();
        assert_eq!(acc, m22().scalar_mul(2.0));
        let mut lo = m22();
        lo.min_in_place(&Matrix::filled(2, 2, 2.5)).unwrap();
        assert_eq!(lo.get(0, 0).unwrap(), 1.0);
        assert_eq!(lo.get(1, 1).unwrap(), 2.5);
        let mut hi = m22();
        hi.max_in_place(&Matrix::filled(2, 2, 2.5)).unwrap();
        assert_eq!(hi.get(0, 0).unwrap(), 2.5);
        assert_eq!(hi.get(1, 1).unwrap(), 4.0);
    }

    #[test]
    fn diag_roundtrip() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let d = Matrix::from_diag(&v);
        assert_eq!(d.diag().unwrap(), v);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert!(Matrix::zeros(2, 3).diag().is_err());
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn row_col_reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(m.col_sums().as_slice(), &[4.0, 6.0]);
        assert_eq!(m.row_mins().as_slice(), &[1.0, 3.0]);
        assert_eq!(m.row_maxs().as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_explicit_transpose_multiply() {
        let m = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) % 11) as f64 - 5.0);
        let g1 = m.gram();
        let g2 = m.transpose().multiply(&m).unwrap();
        assert!(g1.approx_eq(&g2, 1e-10));
    }

    #[test]
    fn row_col_vector_extraction() {
        let m = m22();
        assert_eq!(m.row_vector(1).unwrap().as_slice(), &[3.0, 4.0]);
        assert_eq!(m.col_vector(0).unwrap().as_slice(), &[1.0, 3.0]);
        assert!(m.row_vector(2).is_err());
        assert!(m.col_vector(2).is_err());
    }

    #[test]
    fn vstack_and_submatrix() {
        let a = m22();
        let s = Matrix::vstack(&[&a, &a]).unwrap();
        assert_eq!(s.shape(), (4, 2));
        assert_eq!(s.get(3, 1).unwrap(), 4.0);
        let sub = s.submatrix(2, 0, 2, 2).unwrap();
        assert_eq!(sub, a);
        assert!(s.submatrix(3, 0, 2, 2).is_err());
        assert!(Matrix::vstack(&[&a, &Matrix::zeros(1, 3)]).is_err());
    }

    #[test]
    fn get_set_bounds() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 9.0).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), 9.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn byte_size_is_8rc() {
        // the paper's §4.1 estimate: 8 × 100000 × 100 bytes = 80 MB
        assert_eq!(Matrix::zeros(100, 50).byte_size(), 8 * 100 * 50);
    }
}
