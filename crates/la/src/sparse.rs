//! Sparse tiles: CSR / COO representations and skip-zero kernels.
//!
//! The paper's §3.4 tiled-relational representation assumes dense blocks,
//! but graph and ML workloads are overwhelmingly sparse — an edge table
//! over a million nodes fills well under 0.1% of its adjacency matrix.
//! This module adds a compressed-sparse-row tile ([`SparseMatrix`]) and a
//! COO staging builder ([`CooBuilder`]) so those tiles store, ship and
//! multiply only their nonzeros.
//!
//! ## Float-summation-order contract
//!
//! Every kernel here accumulates each output element over `k` in ascending
//! index order — the same per-element order as the dense blocked kernels
//! in [`crate::gemm`]. A skipped implicit zero contributes exactly the
//! `0.0 * x` term the dense loop would have added, which cannot change a
//! finite accumulator (`+0.0` is the additive identity up to the sign of
//! zero, and `-0.0 == 0.0`). Sparse results therefore compare `==` to
//! their dense counterparts for finite inputs; the differential suites
//! assert exactly that. The one documented exception is non-finite data:
//! `0.0 * inf = NaN` in the dense loop but is skipped here.
//!
//! ## Duplicate and out-of-bounds semantics
//!
//! [`CooBuilder`] *sums* duplicate coordinates in arrival order (matching
//! the paper's tile-aggregate construction, where a tile is the SUM of its
//! per-tuple contributions) and rejects out-of-bounds or negative indices
//! with a typed [`LaError`] instead of panicking.

use crate::error::{LaError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// A compressed-sparse-row (CSR) matrix tile.
///
/// `indptr` has `rows + 1` entries; row `i`'s nonzeros live at
/// `indptr[i]..indptr[i+1]` in `indices` (column ids, strictly increasing
/// within a row) and `values`. Column indices are `u32` — a tile side of
/// four billion is far beyond anything a single tile should hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// An empty (all-implicit-zero) `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Builds from raw CSR parts, validating every invariant. This is the
    /// entry point for decoded wire frames, so it must reject hostile
    /// inputs with typed errors rather than index panics downstream.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 || indptr.first() != Some(&0) {
            return Err(LaError::InvalidConstruction {
                reason: format!("CSR indptr length {} for {rows} rows", indptr.len()),
            });
        }
        if indices.len() != values.len() || indptr[rows] != indices.len() {
            return Err(LaError::InvalidConstruction {
                reason: format!(
                    "CSR nnz mismatch: indptr ends at {}, {} indices, {} values",
                    indptr[rows],
                    indices.len(),
                    values.len()
                ),
            });
        }
        for r in 0..rows {
            let (lo, hi) = (indptr[r], indptr[r + 1]);
            if lo > hi {
                return Err(LaError::InvalidConstruction {
                    reason: format!("CSR indptr not monotone at row {r}"),
                });
            }
            let mut prev: Option<u32> = None;
            for &c in &indices[lo..hi] {
                if c as usize >= cols {
                    return Err(LaError::OutOfBounds {
                        op: "sparse_from_csr",
                        index: (r, c as usize),
                        shape: (rows, cols),
                    });
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err(LaError::InvalidConstruction {
                        reason: format!("CSR column indices not strictly increasing in row {r}"),
                    });
                }
                prev = Some(c);
            }
        }
        Ok(SparseMatrix { rows, cols, indptr, indices, values })
    }

    /// Converts a dense tile, dropping elements that compare equal to zero.
    pub fn from_dense(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let data = m.as_slice();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix { rows, cols, indptr, indices, values }
    }

    /// Materializes the dense equivalent (implicit zeros become `+0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let data = out.as_mut_slice();
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                data[r * self.cols + self.indices[idx] as usize] = self.values[idx];
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries (explicit zeros from summed duplicates count).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored-entry fraction, `nnz / (rows·cols)`; `0.0` for empty shapes.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 { 0.0 } else { self.nnz() as f64 / cells as f64 }
    }

    /// Raw CSR parts `(indptr, indices, values)` — for the wire codec.
    pub fn csr_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Element at `(r, c)`, `0.0` when not stored.
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.rows || c >= self.cols {
            return Err(LaError::OutOfBounds {
                op: "sparse_get",
                index: (r, c),
                shape: (self.rows, self.cols),
            });
        }
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        Ok(match self.indices[lo..hi].binary_search(&(c as u32)) {
            Ok(i) => self.values[lo + i],
            Err(_) => 0.0,
        })
    }

    /// Iterates stored entries as `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.indptr[r]..self.indptr[r + 1])
                .map(move |i| (r, self.indices[i] as usize, self.values[i]))
        })
    }

    /// In-memory footprint of the three CSR arrays, in bytes. This is what
    /// the memory governor and the planner's row-byte estimates see, so
    /// sparse tiles are priced by nnz, not `rows × cols`.
    pub fn byte_size(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Sum of all stored entries.
    pub fn sum_elements(&self) -> f64 {
        self.values.iter().sum()
    }

    /// CSR transpose via a counting sort over column ids — `O(nnz + cols)`.
    pub fn transpose(&self) -> SparseMatrix {
        let mut ptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            ptr[i + 1] += ptr[i];
        }
        let mut cursor = ptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx] as usize;
                let dst = cursor[c];
                cursor[c] += 1;
                indices[dst] = r as u32;
                values[dst] = self.values[idx];
            }
        }
        SparseMatrix { rows: self.cols, cols: self.rows, indptr: ptr, indices, values }
    }

    /// Sparse matrix × dense vector (SpMV): `y = self · x`.
    ///
    /// Each `y[i]` accumulates over ascending `k`, matching the dense
    /// row-dot-product order bit for bit (finite inputs).
    pub fn spmv(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LaError::DimMismatch {
                op: "spmv",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        let mut y = vec![0.0f64; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[idx] * xs[self.indices[idx] as usize];
            }
            *out = acc;
        }
        Ok(Vector::from_vec(y))
    }

    /// Sparse × dense GEMM: `C = self · b`, dense output.
    ///
    /// Row-major streaming: for each stored `a[i,k]`, fuse over `b`'s row
    /// `k` — unit stride on both `b` and `c`, ascending `k` per output
    /// element (the dense kernel's accumulation order).
    pub fn multiply_dense(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.cols {
            return Err(LaError::DimMismatch {
                op: "sparse_matrix_multiply",
                lhs: (self.rows, self.cols),
                rhs: b.shape(),
            });
        }
        let n = b.cols();
        let bd = b.as_slice();
        let mut out = Matrix::zeros(self.rows, n);
        let od = out.as_mut_slice();
        for r in 0..self.rows {
            let out_row = &mut od[r * n..(r + 1) * n];
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let a = self.values[idx];
                let k = self.indices[idx] as usize;
                let b_row = &bd[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * bv;
                }
            }
        }
        Ok(out)
    }

    /// Sparse × sparse GEMM (SpGEMM): `C = self · b`, sparse output.
    ///
    /// Gustavson's row algorithm with a dense sparse-accumulator (SPA)
    /// scratch per output row; output columns are emitted sorted, so each
    /// element's terms still accumulate in ascending `k`.
    pub fn multiply_sparse(&self, b: &SparseMatrix) -> Result<SparseMatrix> {
        if b.rows != self.cols {
            return Err(LaError::DimMismatch {
                op: "spgemm",
                lhs: (self.rows, self.cols),
                rhs: (b.rows, b.cols),
            });
        }
        let n = b.cols;
        let mut spa = vec![0.0f64; n];
        let mut occupied = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let a = self.values[idx];
                let k = self.indices[idx] as usize;
                for bidx in b.indptr[k]..b.indptr[k + 1] {
                    let c = b.indices[bidx] as usize;
                    spa[c] += a * b.values[bidx];
                    if !occupied[c] {
                        occupied[c] = true;
                        touched.push(c as u32);
                    }
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                indices.push(c);
                values.push(spa[c as usize]);
                spa[c as usize] = 0.0;
                occupied[c as usize] = false;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        Ok(SparseMatrix { rows: self.rows, cols: b.cols, indptr, indices, values })
    }

    /// Sparse SYRK: the Gram matrix `selfᵀ · self`, dense output (Gram
    /// matrices of interesting feature sets are dense).
    ///
    /// Mirrors the dense SYRK's order (`gemm::syrk_t`) — input rows
    /// outermost, upper triangle accumulated then mirrored — so results
    /// are bit-identical to the dense kernel on finite data.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        let od = out.as_mut_slice();
        for r in 0..self.rows {
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            for i in lo..hi {
                let p = self.indices[i] as usize;
                let v = self.values[i];
                for j in i..hi {
                    od[p * n + self.indices[j] as usize] += v * self.values[j];
                }
            }
        }
        for p in 0..n {
            for q in (p + 1)..n {
                od[q * n + p] = od[p * n + q];
            }
        }
        out
    }

    /// Element-wise combine with another sparse matrix via a row merge.
    /// `f` receives `(a, b)` with `0.0` standing in for an absent entry;
    /// entries where both sides are absent stay implicit.
    fn merge_with(&self, other: &SparseMatrix, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<SparseMatrix> {
        if self.shape() != other.shape() {
            return Err(LaError::DimMismatch { op, lhs: self.shape(), rhs: other.shape() });
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..self.rows {
            let (mut i, ihi) = (self.indptr[r], self.indptr[r + 1]);
            let (mut j, jhi) = (other.indptr[r], other.indptr[r + 1]);
            while i < ihi || j < jhi {
                let ci = if i < ihi { self.indices[i] } else { u32::MAX };
                let cj = if j < jhi { other.indices[j] } else { u32::MAX };
                let (c, v) = if ci < cj {
                    let v = f(self.values[i], 0.0);
                    i += 1;
                    (ci, v)
                } else if cj < ci {
                    let v = f(0.0, other.values[j]);
                    j += 1;
                    (cj, v)
                } else {
                    let v = f(self.values[i], other.values[j]);
                    i += 1;
                    j += 1;
                    (ci, v)
                };
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Ok(SparseMatrix { rows: self.rows, cols: self.cols, indptr, indices, values })
    }

    /// Adds this matrix into a dense accumulator in O(nnz) — the hot path
    /// of a distributed `SUM` over sparse tiles.
    pub fn add_to_dense(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != self.shape() {
            return Err(LaError::DimMismatch {
                op: "matrix_sum",
                lhs: self.shape(),
                rhs: out.shape(),
            });
        }
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for k in self.indptr[r]..self.indptr[r + 1] {
                row[self.indices[k] as usize] += self.values[k];
            }
        }
        Ok(())
    }

    /// Element-wise sum; stays sparse.
    pub fn add(&self, other: &SparseMatrix) -> Result<SparseMatrix> {
        self.merge_with(other, "sparse_add", |a, b| a + b)
    }

    /// Element-wise difference; stays sparse.
    pub fn sub(&self, other: &SparseMatrix) -> Result<SparseMatrix> {
        self.merge_with(other, "sparse_sub", |a, b| a - b)
    }

    /// Hadamard product; only coordinates stored on *both* sides can be
    /// nonzero, but we keep the union pattern (`x * 0.0` entries) so the
    /// result is exactly what the dense loop computes even for signed
    /// zeros.
    pub fn hadamard(&self, other: &SparseMatrix) -> Result<SparseMatrix> {
        self.merge_with(other, "sparse_mul", |a, b| a * b)
    }

    /// Hadamard product against a dense matrix; only stored coordinates
    /// survive (implicit zeros annihilate under `×` on finite data).
    pub fn hadamard_dense(&self, m: &Matrix) -> Result<SparseMatrix> {
        if self.shape() != m.shape() {
            return Err(LaError::DimMismatch {
                op: "sparse_mul",
                lhs: self.shape(),
                rhs: m.shape(),
            });
        }
        let md = m.as_slice();
        let mut out = self.clone();
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                out.values[idx] *= md[r * self.cols + self.indices[idx] as usize];
            }
        }
        Ok(out)
    }

    /// Applies `f` to every stored entry (implicit zeros are untouched, so
    /// `f` must map `0.0` to `±0.0` for dense parity — scaling and
    /// division by a nonzero scalar qualify).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> SparseMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Scales every stored entry.
    pub fn scalar_mul(&self, s: f64) -> SparseMatrix {
        self.map_values(|v| v * s)
    }
}

/// COO staging area for building a [`SparseMatrix`] from an edge table.
///
/// Entries arrive in any order; [`CooBuilder::build`] sorts them
/// (stably, so duplicates keep arrival order), **sums** duplicate
/// coordinates, and produces canonical CSR.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    entries: Vec<(u32, u32, f64)>,
    /// Maximum row/col seen, for dimension inference.
    max_row: Option<u32>,
    max_col: Option<u32>,
}

impl CooBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CooBuilder::default()
    }

    /// Number of staged entries (before duplicate folding).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stages one `(row, col, value)` entry. Negative or over-large
    /// indices are a typed error — never a panic, because these come
    /// straight from user data in the edge table.
    pub fn push(&mut self, row: i64, col: i64, value: f64) -> Result<()> {
        let (r, c) = Self::check_coord(row, col)?;
        self.max_row = Some(self.max_row.map_or(r, |m| m.max(r)));
        self.max_col = Some(self.max_col.map_or(c, |m| m.max(c)));
        self.entries.push((r, c, value));
        Ok(())
    }

    fn check_coord(row: i64, col: i64) -> Result<(u32, u32)> {
        if row < 0 || col < 0 {
            return Err(LaError::InvalidConstruction {
                reason: format!("matrix entry at negative coordinate ({row}, {col})"),
            });
        }
        if row > u32::MAX as i64 || col > u32::MAX as i64 {
            return Err(LaError::InvalidConstruction {
                reason: format!("matrix entry coordinate ({row}, {col}) exceeds the 2^32-1 tile limit"),
            });
        }
        Ok((row as u32, col as u32))
    }

    /// Staged entries as parallel `(rows, cols, values)` arrays — the
    /// nnz-proportional partial-aggregate state shipped over exchanges.
    pub fn parts(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rows = Vec::with_capacity(self.entries.len());
        let mut cols = Vec::with_capacity(self.entries.len());
        let mut vals = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            rows.push(r as f64);
            cols.push(c as f64);
            vals.push(v);
        }
        (rows, cols, vals)
    }

    /// Builds with dimensions inferred as `max index + 1` on each axis.
    pub fn build_inferred(self) -> SparseMatrix {
        let rows = self.max_row.map_or(0, |m| m as usize + 1);
        let cols = self.max_col.map_or(0, |m| m as usize + 1);
        self.build(rows, cols).expect("inferred dims cover every staged entry")
    }

    /// Builds an explicit `rows × cols` matrix. Entries outside the given
    /// shape are a typed out-of-bounds error. Duplicate coordinates are
    /// summed in arrival order.
    pub fn build(mut self, rows: usize, cols: usize) -> Result<SparseMatrix> {
        for &(r, c, _) in &self.entries {
            if r as usize >= rows || c as usize >= cols {
                return Err(LaError::OutOfBounds {
                    op: "matrix_from_entries",
                    index: (r as usize, c as usize),
                    shape: (rows, cols),
                });
            }
        }
        // Stable sort keeps duplicate coordinates in arrival order, so the
        // duplicate sum below is deterministic left-to-right.
        self.entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &self.entries {
            if last == Some((r, c)) {
                *values.last_mut().expect("duplicate follows an entry") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r as usize + 1] += 1; // per-row count, prefix-summed below
                last = Some((r, c));
            }
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        SparseMatrix::from_csr(rows, cols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, on_pool_of, syrk_t};

    fn rngish(seed: u64, len: usize) -> Vec<f64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 2000) as f64 - 1000.0) / 250.0
            })
            .collect()
    }

    /// Dense matrix with roughly `density` fraction of nonzeros.
    fn sparse_dense(seed: u64, rows: usize, cols: usize, density: f64) -> Matrix {
        let raw = rngish(seed, rows * cols);
        let gate = rngish(seed.wrapping_mul(31) | 7, rows * cols);
        let data: Vec<f64> = raw
            .iter()
            .zip(gate.iter())
            .map(|(&v, &g)| if (g + 4.0) / 8.0 < density { v } else { 0.0 })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn dense_roundtrip() {
        let m = sparse_dense(3, 17, 23, 0.1);
        let s = SparseMatrix::from_dense(&m);
        assert_eq!(s.to_dense().as_slice(), m.as_slice());
        assert!(s.density() < 0.25, "density {}", s.density());
        assert!(s.byte_size() < m.byte_size());
    }

    #[test]
    fn coo_duplicates_sum_in_arrival_order() {
        let mut b = CooBuilder::new();
        b.push(0, 0, 1.0).unwrap();
        b.push(1, 2, 5.0).unwrap();
        b.push(0, 0, 2.5).unwrap();
        b.push(0, 0, -0.5).unwrap();
        let s = b.build(2, 3).unwrap();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 0).unwrap(), (1.0 + 2.5) + -0.5);
        assert_eq!(s.get(1, 2).unwrap(), 5.0);
    }

    #[test]
    fn coo_out_of_bounds_is_typed_error() {
        let mut b = CooBuilder::new();
        assert!(matches!(
            b.push(-1, 0, 1.0),
            Err(LaError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            b.push(0, -7, 1.0),
            Err(LaError::InvalidConstruction { .. })
        ));
        b.push(5, 5, 1.0).unwrap();
        assert!(matches!(
            b.build(3, 3),
            Err(LaError::OutOfBounds { op: "matrix_from_entries", .. })
        ));
    }

    #[test]
    fn coo_inferred_dims_and_empty_rows() {
        let mut b = CooBuilder::new();
        b.push(4, 1, 2.0).unwrap();
        b.push(0, 3, 1.0).unwrap();
        let s = b.build_inferred();
        assert_eq!(s.shape(), (5, 4));
        assert_eq!(s.get(2, 2).unwrap(), 0.0); // empty middle row
        assert_eq!(s.get(4, 1).unwrap(), 2.0);
        assert_eq!(CooBuilder::new().build_inferred().shape(), (0, 0));
    }

    #[test]
    fn from_csr_rejects_hostile_input() {
        // Column out of range.
        assert!(SparseMatrix::from_csr(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Unsorted columns within a row.
        assert!(SparseMatrix::from_csr(1, 4, vec![0, 2], vec![3, 1], vec![1.0, 2.0]).is_err());
        // indptr / nnz mismatch.
        assert!(SparseMatrix::from_csr(1, 4, vec![0, 2], vec![1], vec![1.0]).is_err());
        // Non-monotone indptr.
        assert!(SparseMatrix::from_csr(2, 4, vec![0, 2, 1], vec![0, 1, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn spmv_matches_dense_bitwise() {
        for density in [0.001, 0.01, 0.1, 0.5] {
            let m = sparse_dense(11, 60, 80, density);
            let s = SparseMatrix::from_dense(&m);
            let x = Vector::from_vec(rngish(5, 80));
            let dense_y = m.matrix_vector_multiply(&x).unwrap();
            let sparse_y = s.spmv(&x).unwrap();
            assert_eq!(dense_y.as_slice(), sparse_y.as_slice(), "density {density}");
        }
        assert!(SparseMatrix::zeros(3, 4).spmv(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn sparse_dense_gemm_matches_naive() {
        for density in [0.01, 0.1, 0.5] {
            let a = sparse_dense(21, 40, 50, density);
            let b = Matrix::from_vec(50, 30, rngish(22, 50 * 30)).unwrap();
            let s = SparseMatrix::from_dense(&a);
            let fast = s.multiply_dense(&b).unwrap();
            let slow = gemm_naive(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-9), "density {density}");
        }
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sparse_dense(31, 30, 40, 0.08);
        let b = sparse_dense(32, 40, 25, 0.12);
        let sa = SparseMatrix::from_dense(&a);
        let sb = SparseMatrix::from_dense(&b);
        let sc = sa.multiply_sparse(&sb).unwrap();
        let dense = gemm_naive(&a, &b);
        assert!(sc.to_dense().approx_eq(&dense, 1e-9));
        assert!(sa.multiply_sparse(&SparseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn sparse_gram_matches_dense_syrk_bitwise() {
        let a = sparse_dense(41, 50, 35, 0.1);
        let s = SparseMatrix::from_dense(&a);
        let _pool = on_pool_of(1);
        let dense = syrk_t(&a);
        let sparse = s.gram();
        assert_eq!(dense.as_slice(), sparse.as_slice());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sparse_dense(51, 13, 29, 0.2);
        let s = SparseMatrix::from_dense(&m);
        let t = s.transpose();
        assert_eq!(t.shape(), (29, 13));
        assert_eq!(t.to_dense().as_slice(), m.transpose().as_slice());
        assert_eq!(t.transpose().to_dense().as_slice(), m.as_slice());
    }

    #[test]
    fn elementwise_merge_matches_dense() {
        let a = sparse_dense(61, 20, 20, 0.15);
        let b = sparse_dense(62, 20, 20, 0.15);
        let (sa, sb) = (SparseMatrix::from_dense(&a), SparseMatrix::from_dense(&b));
        assert_eq!(sa.add(&sb).unwrap().to_dense().as_slice(), a.add(&b).unwrap().as_slice());
        assert_eq!(sa.sub(&sb).unwrap().to_dense().as_slice(), a.sub(&b).unwrap().as_slice());
        assert_eq!(
            sa.hadamard(&sb).unwrap().to_dense().as_slice(),
            a.mul(&b).unwrap().as_slice()
        );
        assert_eq!(
            sa.scalar_mul(-2.0).to_dense().as_slice(),
            a.scalar_mul(-2.0).as_slice()
        );
        assert!(sa.add(&SparseMatrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn builder_sums_duplicates_and_infers_its_shape() {
        let mut b = CooBuilder::new();
        b.push(0, 0, 1.0).unwrap();
        b.push(0, 0, 2.0).unwrap();
        b.push(3, 1, 4.0).unwrap();
        let s = b.build_inferred();
        assert_eq!(s.shape(), (4, 2));
        assert_eq!(s.get(0, 0).unwrap(), 3.0);
        assert_eq!(s.nnz(), 2);
    }
}
