//! Sparse tiles: a doubly-compressed row layout, a COO staging builder and
//! skip-zero kernels.
//!
//! The paper's §3.4 tiled-relational representation assumes dense blocks,
//! but graph and ML workloads are overwhelmingly sparse — an edge table
//! over a million nodes fills well under 0.1% of its adjacency matrix.
//! This module adds a sparse tile ([`SparseMatrix`]) and a COO staging
//! builder ([`CooBuilder`]) so those tiles store, ship and multiply only
//! their nonzeros.
//!
//! A tile lists only its nonempty rows (the doubly-compressed sparse row
//! layout of Buluç & Gilbert, "On the Representation and Multiplication of
//! Hypersparse Matrices", IPDPS 2008): a 2 000-row tile holding 141
//! entries keeps 141-odd row ids and pointers, not 2 001 pointers. Every
//! kernel walks the listed rows only, so building, storing and
//! multiplying a tile costs O(its nonzeros) plus its dense operands.
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
//! with a typed [`LaError`] instead of panicking. A tile holds at most
//! 2³²−1 entries (the wire format counts them in a `u32`); more is a typed
//! error too.

use std::ops::Range;

use crate::error::{LaError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// A sparse matrix tile that stores only its nonempty rows.
///
/// `row_ids` lists the rows holding at least one entry, strictly
/// ascending; `row_ptr` has `row_ids.len() + 1` entries, and row
/// `row_ids[j]`'s entries live at `row_ptr[j]..row_ptr[j+1]` in `indices`
/// (column ids, strictly increasing within a row) and `values`. A row not
/// listed is all implicit zeros. Indices and pointers are `u32`: a tile
/// side or entry count of four billion is far beyond anything a single
/// tile should hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ids: Vec<u32>,
    row_ptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

fn too_many_entries() -> LaError {
    LaError::InvalidConstruction {
        reason: "a sparse tile holds at most 2^32-1 entries".to_string(),
    }
}

/// A tile's rows, appended in ascending order: entries are pushed, then
/// [`Self::close_row`] lists the row if it received any.
struct RowsOut {
    row_ids: Vec<u32>,
    row_ptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl RowsOut {
    /// Room for `nnz` entries in at most `rows` rows.
    fn with_capacity(nnz: usize, rows: usize) -> Self {
        let listed = nnz.min(rows);
        let mut row_ptr = Vec::with_capacity(listed + 1);
        row_ptr.push(0);
        RowsOut {
            row_ids: Vec::with_capacity(listed),
            row_ptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    fn push(&mut self, c: u32, v: f64) {
        self.indices.push(c);
        self.values.push(v);
    }

    /// Ends row `r`: listed when entries were pushed since the last row.
    fn close_row(&mut self, r: usize) -> Result<()> {
        let end = self.indices.len();
        if end > self.row_ptr[self.row_ptr.len() - 1] as usize {
            self.row_ids.push(u32::try_from(r).map_err(|_| too_many_entries())?);
            self.row_ptr.push(u32::try_from(end).map_err(|_| too_many_entries())?);
        }
        Ok(())
    }

    fn finish(self, rows: usize, cols: usize) -> SparseMatrix {
        let RowsOut { row_ids, row_ptr, indices, values } = self;
        SparseMatrix { rows, cols, row_ids, row_ptr, indices, values }
    }
}

impl SparseMatrix {
    /// An empty (all-implicit-zero) `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RowsOut::with_capacity(0, 0).finish(rows, cols)
    }

    /// Builds from raw parts (see the type's doc), validating every
    /// invariant. This is the entry point for decoded wire frames, so it
    /// rejects hostile input with typed errors rather than index panics
    /// downstream: row ids not strictly increasing or out of range,
    /// pointers not strictly increasing (a listed row must hold an entry),
    /// a pointer past the entries, and columns out of range or not
    /// strictly increasing within a row.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ids: Vec<u32>,
        row_ptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let invalid = |reason: String| Err(LaError::InvalidConstruction { reason });
        if row_ptr.len() != row_ids.len() + 1 || row_ptr[0] != 0 {
            return invalid(format!(
                "sparse row_ptr of length {} for {} listed rows",
                row_ptr.len(),
                row_ids.len()
            ));
        }
        let nnz = indices.len();
        if values.len() != nnz || row_ptr[row_ids.len()] as usize != nnz {
            return invalid(format!(
                "sparse nnz mismatch: row_ptr ends at {}, {nnz} indices, {} values",
                row_ptr[row_ids.len()],
                values.len()
            ));
        }
        for (j, (&r, w)) in row_ids.iter().zip(row_ptr.windows(2)).enumerate() {
            if r as usize >= rows {
                return Err(LaError::OutOfBounds {
                    op: "sparse_from_parts",
                    index: (r as usize, 0),
                    shape: (rows, cols),
                });
            }
            if j > 0 && row_ids[j - 1] >= r {
                return invalid(format!("sparse row ids not strictly increasing at row {r}"));
            }
            if w[0] >= w[1] || w[1] as usize > nnz {
                return invalid(format!("sparse row_ptr not strictly increasing at row {r}"));
            }
            let mut prev: Option<u32> = None;
            for &c in &indices[w[0] as usize..w[1] as usize] {
                if c as usize >= cols {
                    return Err(LaError::OutOfBounds {
                        op: "sparse_from_parts",
                        index: (r as usize, c as usize),
                        shape: (rows, cols),
                    });
                }
                if prev.is_some_and(|p| p >= c) {
                    return invalid(format!(
                        "sparse column indices not strictly increasing in row {r}"
                    ));
                }
                prev = Some(c);
            }
        }
        Ok(SparseMatrix { rows, cols, row_ids, row_ptr, indices, values })
    }

    /// Converts a dense tile, dropping elements that compare equal to
    /// zero. More than 2³²−1 nonzeros is a typed error.
    pub fn from_dense(m: &Matrix) -> Result<Self> {
        let (rows, cols) = m.shape();
        let mut out = RowsOut::with_capacity(0, 0);
        for (r, row) in m.as_slice().chunks_exact(cols.max(1)).take(rows).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    out.push(c as u32, v);
                }
            }
            out.close_row(r)?;
        }
        Ok(out.finish(rows, cols))
    }

    /// Materializes the dense equivalent (implicit zeros become `+0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let data = out.as_mut_slice();
        for (r, span) in self.stored_rows() {
            for i in span {
                data[r * self.cols + self.indices[i] as usize] = self.values[i];
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

    /// Raw parts `(row_ids, row_ptr, indices, values)` — what
    /// [`Self::from_parts`] takes.
    pub fn parts(&self) -> (&[u32], &[u32], &[u32], &[f64]) {
        (&self.row_ids, &self.row_ptr, &self.indices, &self.values)
    }

    /// The listed (nonempty) rows, ascending, each with its entry range.
    fn stored_rows(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.row_ids
            .iter()
            .zip(self.row_ptr.windows(2))
            .map(|(&r, w)| (r as usize, w[0] as usize..w[1] as usize))
    }

    /// The entry range of row `r`, empty when the row is not listed.
    fn row_span(&self, r: usize) -> Range<usize> {
        match u32::try_from(r).map(|r| self.row_ids.binary_search(&r)) {
            Ok(Ok(j)) => self.row_ptr[j] as usize..self.row_ptr[j + 1] as usize,
            _ => 0..0,
        }
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
        let span = self.row_span(r);
        Ok(match self.indices[span.clone()].binary_search(&(c as u32)) {
            Ok(i) => self.values[span.start + i],
            Err(_) => 0.0,
        })
    }

    /// Iterates stored entries as `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.stored_rows().flat_map(move |(r, span)| {
            span.map(move |i| (r, self.indices[i] as usize, self.values[i]))
        })
    }

    /// In-memory footprint of the four arrays, in bytes. This is what the
    /// memory governor and the planner's row-byte estimates see, so
    /// sparse tiles are priced by their nonzeros, not `rows × cols`.
    pub fn byte_size(&self) -> usize {
        (self.row_ids.len() + self.row_ptr.len() + self.indices.len()) * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Sum of all stored entries.
    pub fn sum_elements(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Transpose: a stable sort of the swapped entries, so rows stay
    /// ascending within each column and nothing is allocated per column.
    pub fn transpose(&self) -> SparseMatrix {
        let entries = self.iter().map(|(r, c, v)| (c as u32, r as u32, v)).collect();
        assemble(self.cols, self.rows, entries).expect("a transpose keeps the entry count")
    }

    /// Sparse matrix × dense vector (SpMV): `y = self · x`.
    ///
    /// Each `y[i]` accumulates over ascending `k`, matching the dense
    /// row-dot-product order bit for bit (finite inputs); an unlisted row
    /// yields `+0.0`, as the dense loop does.
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
        for (r, span) in self.stored_rows() {
            let mut acc = 0.0;
            for i in span {
                acc += self.values[i] * xs[self.indices[i] as usize];
            }
            y[r] = acc;
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
        for (r, span) in self.stored_rows() {
            let out_row = &mut od[r * n..(r + 1) * n];
            for i in span {
                let a = self.values[i];
                let k = self.indices[i] as usize;
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
    /// Gustavson's row algorithm over `self`'s listed rows, each `k`
    /// looked up among `b`'s listed rows, with a dense sparse-accumulator
    /// (SPA) scratch per output row; output columns are emitted sorted, so
    /// each element's terms still accumulate in ascending `k`.
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
        let mut out = RowsOut::with_capacity(0, 0);
        for (r, span) in self.stored_rows() {
            for i in span {
                let a = self.values[i];
                for bidx in b.row_span(self.indices[i] as usize) {
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
                out.push(c, spa[c as usize]);
                spa[c as usize] = 0.0;
                occupied[c as usize] = false;
            }
            touched.clear();
            out.close_row(r)?;
        }
        Ok(out.finish(self.rows, b.cols))
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
        for (_, span) in self.stored_rows() {
            for i in span.clone() {
                let p = self.indices[i] as usize;
                let v = self.values[i];
                for j in i..span.end {
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

    /// Element-wise combine with another sparse matrix via a merge of the
    /// two listed-row sequences, then of each row's columns. `f` receives
    /// `(a, b)` with `0.0` standing in for an absent entry; entries where
    /// both sides are absent stay implicit.
    fn merge_with(&self, other: &SparseMatrix, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<SparseMatrix> {
        if self.shape() != other.shape() {
            return Err(LaError::DimMismatch { op, lhs: self.shape(), rhs: other.shape() });
        }
        let mut out = RowsOut::with_capacity(self.nnz().max(other.nnz()), self.rows);
        let mut a_rows = self.stored_rows().peekable();
        let mut b_rows = other.stored_rows().peekable();
        loop {
            let r = match (a_rows.peek(), b_rows.peek()) {
                (None, None) => break,
                (Some((ra, _)), Some((rb, _))) => *ra.min(rb),
                (Some((r, _)), None) | (None, Some((r, _))) => *r,
            };
            let (mut i, ihi) = match a_rows.next_if(|(ra, _)| *ra == r) {
                Some((_, span)) => (span.start, span.end),
                None => (0, 0),
            };
            let (mut j, jhi) = match b_rows.next_if(|(rb, _)| *rb == r) {
                Some((_, span)) => (span.start, span.end),
                None => (0, 0),
            };
            while i < ihi || j < jhi {
                let ci = if i < ihi { self.indices[i] } else { u32::MAX };
                let cj = if j < jhi { other.indices[j] } else { u32::MAX };
                if ci < cj {
                    out.push(ci, f(self.values[i], 0.0));
                    i += 1;
                } else if cj < ci {
                    out.push(cj, f(0.0, other.values[j]));
                    j += 1;
                } else {
                    out.push(ci, f(self.values[i], other.values[j]));
                    i += 1;
                    j += 1;
                }
            }
            out.close_row(r)?;
        }
        Ok(out.finish(self.rows, self.cols))
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
        for (r, span) in self.stored_rows() {
            let row = out.row_mut(r);
            for i in span {
                row[self.indices[i] as usize] += self.values[i];
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
        for (r, span) in self.stored_rows() {
            for i in span {
                out.values[i] *= md[r * self.cols + self.indices[i] as usize];
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

/// Sorts `entries` stably by `(row, col)` — duplicates keep their arrival
/// order — and sums each run of duplicates left to right into one entry
/// of a `rows × cols` tile. Entries must be in bounds.
fn assemble(rows: usize, cols: usize, mut entries: Vec<(u32, u32, f64)>) -> Result<SparseMatrix> {
    entries.sort_by_key(|&(r, c, _)| (u64::from(r) << 32) | u64::from(c));
    let mut out = RowsOut::with_capacity(entries.len(), rows);
    let mut last: Option<(u32, u32)> = None;
    for &(r, c, v) in &entries {
        match last {
            Some((lr, lc)) if (lr, lc) == (r, c) => {
                *out.values.last_mut().expect("a duplicate follows its entry") += v;
                continue;
            }
            Some((lr, _)) if lr != r => out.close_row(lr as usize)?,
            _ => {}
        }
        out.push(c, v);
        last = Some((r, c));
    }
    if let Some((lr, _)) = last {
        out.close_row(lr as usize)?;
    }
    Ok(out.finish(rows, cols))
}

/// COO staging area for building a [`SparseMatrix`] from an edge table.
///
/// Entries arrive in any order; [`CooBuilder::build`] sorts them
/// (stably, so duplicates keep arrival order), **sums** duplicate
/// coordinates, and lists only the rows that received an entry.
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
    /// Staging more than 2³²−1 entries is a typed error too, so no
    /// build can exceed a tile's entry limit.
    pub fn push(&mut self, row: i64, col: i64, value: f64) -> Result<()> {
        let (r, c) = Self::check_coord(row, col)?;
        self.check_room(1)?;
        self.stage(r, c, value);
        Ok(())
    }

    fn check_room(&self, more: usize) -> Result<()> {
        match self.entries.len().checked_add(more) {
            Some(n) if n <= u32::MAX as usize => Ok(()),
            _ => Err(too_many_entries()),
        }
    }

    fn stage(&mut self, r: u32, c: u32, value: f64) {
        self.max_row = Some(self.max_row.map_or(r, |m| m.max(r)));
        self.max_col = Some(self.max_col.map_or(c, |m| m.max(c)));
        self.entries.push((r, c, value));
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

    /// Stages the entries of another builder's [`Self::parts`], in order.
    /// Every coordinate is checked once, before any is staged: arrays of
    /// unequal length, a coordinate that is not an integer in
    /// `0..=2³²−1`, or more entries than a tile may hold are a typed error
    /// and stage nothing.
    pub fn extend_parts(&mut self, rows: &[f64], cols: &[f64], vals: &[f64]) -> Result<()> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(LaError::InvalidConstruction {
                reason: format!(
                    "matrix entry parts of unequal length ({}, {}, {})",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        self.check_room(vals.len())?;
        let index = |x: f64| (0.0..=u32::MAX as f64).contains(&x) && x as u32 as f64 == x;
        if let Some((&r, &c)) = rows.iter().zip(cols).find(|&(&r, &c)| !(index(r) && index(c))) {
            return Err(LaError::InvalidConstruction {
                reason: format!("matrix entry coordinate ({r}, {c}) is not a tile index"),
            });
        }
        self.entries.reserve(vals.len());
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
            self.stage(r as u32, c as u32, v);
        }
        Ok(())
    }

    /// Builds with dimensions inferred as `max index + 1` on each axis.
    pub fn build_inferred(self) -> SparseMatrix {
        let rows = self.max_row.map_or(0, |m| m as usize + 1);
        let cols = self.max_col.map_or(0, |m| m as usize + 1);
        self.build(rows, cols)
            .expect("inferred dims cover every staged entry, and staging caps the count")
    }

    /// Builds an explicit `rows × cols` matrix. Entries outside the given
    /// shape are a typed out-of-bounds error. Duplicate coordinates are
    /// summed in arrival order.
    pub fn build(self, rows: usize, cols: usize) -> Result<SparseMatrix> {
        for &(r, c, _) in &self.entries {
            if r as usize >= rows || c as usize >= cols {
                return Err(LaError::OutOfBounds {
                    op: "matrix_from_entries",
                    index: (r as usize, c as usize),
                    shape: (rows, cols),
                });
            }
        }
        assemble(rows, cols, self.entries)
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

    fn sparse(m: &Matrix) -> SparseMatrix {
        SparseMatrix::from_dense(m).unwrap()
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
        let s = sparse(&m);
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
    fn from_parts_rejects_hostile_input() {
        // `(rows, cols, row_ids, row_ptr, indices)`, one value per index.
        let parts = |rows, cols, ids: &[u32], ptr: &[u32], idx: &[u32]| {
            let values = vec![1.0; idx.len()];
            SparseMatrix::from_parts(rows, cols, ids.to_vec(), ptr.to_vec(), idx.to_vec(), values)
        };
        assert_eq!(parts(4, 4, &[1, 3], &[0, 2, 3], &[0, 2, 1]).unwrap().get(3, 1).unwrap(), 1.0);
        let invalid = |r: Result<SparseMatrix>| {
            matches!(r, Err(LaError::InvalidConstruction { .. } | LaError::OutOfBounds { .. }))
        };
        // Row ids not increasing, repeated, or out of range.
        assert!(invalid(parts(4, 4, &[3, 1], &[0, 1, 2], &[0, 0])));
        assert!(invalid(parts(4, 4, &[1, 1], &[0, 1, 2], &[0, 1])));
        assert!(invalid(parts(4, 4, &[4], &[0, 1], &[0])));
        // row_ptr not monotone, or past the entries before coming back.
        assert!(invalid(parts(4, 4, &[0, 1], &[0, 2, 1], &[0, 1])));
        assert!(invalid(parts(4, 4, &[0, 1, 2], &[0, 5, 3, 3], &[0, 1, 2])));
        // A listed row with no entries.
        assert!(invalid(parts(4, 4, &[0, 2], &[0, 0, 1], &[0])));
        // Out-of-range or unsorted columns.
        assert!(invalid(parts(1, 2, &[0], &[0, 1], &[5])));
        assert!(invalid(parts(1, 4, &[0], &[0, 2], &[3, 1])));
        // Pointer, index and value counts that disagree.
        assert!(invalid(parts(1, 4, &[0], &[0, 2], &[1])));
        assert!(invalid(parts(1, 4, &[0], &[0], &[])));
        assert!(invalid(parts(1, 4, &[], &[1], &[1])));
        let values = vec![1.0, 2.0];
        assert!(invalid(SparseMatrix::from_parts(1, 4, vec![0], vec![0, 1], vec![1], values)));
    }

    #[test]
    fn spmv_matches_dense_bitwise() {
        for density in [0.001, 0.01, 0.1, 0.5] {
            let m = sparse_dense(11, 60, 80, density);
            let s = sparse(&m);
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
            let s = sparse(&a);
            let fast = s.multiply_dense(&b).unwrap();
            let slow = gemm_naive(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-9), "density {density}");
        }
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sparse_dense(31, 30, 40, 0.08);
        let b = sparse_dense(32, 40, 25, 0.12);
        let sa = sparse(&a);
        let sb = sparse(&b);
        let sc = sa.multiply_sparse(&sb).unwrap();
        let dense = gemm_naive(&a, &b);
        assert!(sc.to_dense().approx_eq(&dense, 1e-9));
        assert!(sa.multiply_sparse(&SparseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn sparse_gram_matches_dense_syrk_bitwise() {
        let a = sparse_dense(41, 50, 35, 0.1);
        let s = sparse(&a);
        let _pool = on_pool_of(1);
        let dense = syrk_t(&a);
        let sparse = s.gram();
        assert_eq!(dense.as_slice(), sparse.as_slice());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sparse_dense(51, 13, 29, 0.2);
        let s = sparse(&m);
        let t = s.transpose();
        assert_eq!(t.shape(), (29, 13));
        assert_eq!(t.to_dense().as_slice(), m.transpose().as_slice());
        assert_eq!(t.transpose().to_dense().as_slice(), m.as_slice());
    }

    #[test]
    fn elementwise_merge_matches_dense() {
        let a = sparse_dense(61, 20, 20, 0.15);
        let b = sparse_dense(62, 20, 20, 0.15);
        let (sa, sb) = (sparse(&a), sparse(&b));
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

    #[test]
    fn a_tile_lists_only_its_nonempty_rows() {
        let mut b = CooBuilder::new();
        b.push(1500, 7, 1.0).unwrap();
        b.push(3, 9, 2.0).unwrap();
        b.push(1500, 2, 3.0).unwrap();
        let s = b.build(2000, 2000).unwrap();
        let (row_ids, row_ptr, indices, values) = s.parts();
        assert_eq!((row_ids, row_ptr), (&[3, 1500][..], &[0, 1, 3][..]));
        assert_eq!((indices, values), (&[9, 2, 7][..], &[2.0, 3.0, 1.0][..]));
        assert_eq!(s.byte_size(), (2 + 3 + 3) * 4 + 3 * 8);
        assert_eq!(SparseMatrix::zeros(2000, 2000).byte_size(), 4);
        let y = s.spmv(&Vector::filled(2000, 1.0)).unwrap();
        assert_eq!((y.as_slice()[3], y.as_slice()[1500], y.as_slice()[4]), (2.0, 4.0, 0.0));
    }

    #[test]
    fn staging_and_merge_inputs_are_checked() {
        let mut b = CooBuilder::new();
        b.push(0, 1, 1.0).unwrap();
        let (rows, cols, vals) = b.parts();
        let mut merged = CooBuilder::new();
        merged.extend_parts(&rows, &cols, &vals).unwrap();
        merged.extend_parts(&[2.0], &[0.0], &[5.0]).unwrap();
        assert_eq!(merged.len(), 2);
        for (r, c) in [(0.5, 0.0), (-1.0, 0.0), (0.0, f64::NAN), (4294967296.0, 0.0)] {
            assert!(matches!(
                merged.extend_parts(&[0.0, r], &[0.0, c], &[1.0, 1.0]),
                Err(LaError::InvalidConstruction { .. })
            ));
        }
        assert!(merged.extend_parts(&[0.0], &[0.0, 1.0], &[1.0]).is_err());
        assert_eq!(merged.len(), 2, "a rejected merge stages nothing");
        let s = merged.build_inferred();
        assert_eq!((s.shape(), s.get(2, 0).unwrap()), ((3, 2), 5.0));
    }

    /// A tile's entries in arrival order, duplicates included, and the
    /// dense matrix they stand for: each coordinate holds its first value
    /// plus the later ones, left to right, as [`CooBuilder::build`] sums
    /// them; unstored cells are `+0.0`.
    struct Case {
        rows: usize,
        cols: usize,
        entries: Vec<(u32, u32, f64)>,
        dense: Matrix,
    }

    impl Case {
        fn tile(&self) -> SparseMatrix {
            let mut b = CooBuilder::new();
            for &(r, c, v) in &self.entries {
                b.push(r as i64, c as i64, v).unwrap();
            }
            b.build(self.rows, self.cols).unwrap()
        }
    }

    /// A quiet NaN with a payload. Every planted NaN has this one: two NaNs
    /// with different payloads meeting in an add keep whichever operand
    /// the compiler put first, which no kernel contract fixes.
    const NAN: f64 = f64::from_bits(0x7FF8_0000_0000_0ABC);

    /// A random `rows × cols` tile: each row is empty with probability
    /// one half (so leading, trailing and interior empty rows all occur),
    /// and a stored cell is a finite value, `±0.0` or, when `nan`, [`NAN`];
    /// a third of the stored cells arrive as two or three
    /// duplicates in shuffled order. `empty` makes every row empty.
    fn case(seed: u64, rows: usize, cols: usize, nan: bool, empty: bool) -> Case {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut entries = Vec::new();
        for r in 0..rows {
            if empty || next() % 2 == 0 {
                continue;
            }
            for c in 0..cols {
                if next() % 3 != 0 {
                    continue;
                }
                let copies = if next() % 3 == 0 { 2 + next() % 2 } else { 1 };
                for _ in 0..copies {
                    let v = match next() % 8 {
                        0 => -0.0,
                        1 => 0.0,
                        2 if nan => NAN,
                        _ => ((next() % 2000) as f64 - 1000.0) / 250.0,
                    };
                    entries.push((r as u32, c as u32, v));
                }
            }
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, next() as usize % (i + 1));
        }
        let mut cells: Vec<Option<f64>> = vec![None; rows * cols];
        for &(r, c, v) in &entries {
            let cell = &mut cells[r as usize * cols + c as usize];
            *cell = Some(cell.map_or(v, |acc| acc + v));
        }
        let dense = Matrix::from_vec(rows, cols, cells.iter().map(|v| v.unwrap_or(0.0)).collect())
            .unwrap();
        Case { rows, cols, entries, dense }
    }

    fn filled(seed: u64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, rngish(seed, rows * cols)).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn vbits(v: &Vector) -> Vec<u64> {
        v.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every kernel of a tile built from `a` against the dense kernel on
    /// `a.dense`, `==` on the float bits. `b` is a second tile of the same
    /// shape for the element-wise family, and `seed` draws the finite dense
    /// operands. A NaN stored in a tile meets only finite dense operands
    /// here, where the dense loop's `0 × x` terms are `±0`; the kernels
    /// whose both operands are sparse (SpGEMM, SYRK) run on NaN-free
    /// tiles, since `NaN × 0` is the documented non-finite exception.
    fn check_kernels(a: &Case, b: &Case, seed: u64) {
        let (rows, cols) = (a.rows, a.cols);
        let what = format!("{rows}x{cols} seed {seed}");
        let s = a.tile();
        let (row_ids, row_ptr, indices, values) = s.parts();
        // Layout: exactly the nonempty rows, each with its distinct columns.
        let mut coords: Vec<(u32, u32)> = a.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        coords.dedup();
        let mut listed: Vec<u32> = coords.iter().map(|&(r, _)| r).collect();
        listed.dedup();
        assert_eq!(row_ids, &listed[..], "{what}");
        assert_eq!(s.nnz(), coords.len(), "{what}");
        let again = SparseMatrix::from_parts(
            rows, cols, row_ids.to_vec(), row_ptr.to_vec(), indices.to_vec(), values.to_vec(),
        );
        assert_eq!(again.map(|t| t.parts().0.len()), Ok(row_ids.len()), "{what}");
        assert_eq!(s.byte_size(), (2 * row_ids.len() + 1 + s.nnz()) * 4 + s.nnz() * 8, "{what}");

        // Representation: entries, element reads and conversions.
        assert_eq!(bits(&s.to_dense()), bits(&a.dense), "to_dense {what}");
        let stored: Vec<(usize, usize, u64)> =
            s.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        let want: Vec<(usize, usize, u64)> = coords
            .iter()
            .map(|&(r, c)| (r as usize, c as usize))
            .map(|(r, c)| (r, c, a.dense.get(r, c).unwrap().to_bits()))
            .collect();
        assert_eq!(stored, want, "iter {what}");
        for r in 0..rows {
            for c in 0..cols {
                let got = s.get(r, c).unwrap().to_bits();
                assert_eq!(got, a.dense.get(r, c).unwrap().to_bits(), "get({r}, {c}) {what}");
            }
        }
        assert!(s.get(rows, 0).is_err() && s.get(0, cols).is_err());
        let nonzero: Vec<(usize, usize, u64)> = (0..rows * cols)
            .map(|i| (i / cols, i % cols, a.dense.as_slice()[i]))
            .filter(|&(.., v)| v != 0.0)
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect();
        let from_dense = sparse(&a.dense);
        let kept: Vec<(usize, usize, u64)> =
            from_dense.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        assert_eq!(kept, nonzero, "from_dense {what}");
        assert_eq!(bits(&s.transpose().to_dense()), bits(&a.dense.transpose()), "transpose {what}");
        let back = s.transpose().transpose();
        let same = |x: &SparseMatrix, y: &SparseMatrix| {
            let ((xr, xp, xi, xv), (yr, yp, yi, yv)) = (x.parts(), y.parts());
            x.shape() == y.shape()
                && (xr, xp, xi) == (yr, yp, yi)
                && xv.iter().zip(yv).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        assert!(same(&back, &s), "transpose twice {what}");

        // Products against finite dense operands.
        let x = Vector::from_vec(rngish(seed ^ 1, cols));
        let dense_y = a.dense.matrix_vector_multiply(&x).unwrap();
        assert_eq!(vbits(&s.spmv(&x).unwrap()), vbits(&dense_y), "spmv {what}");
        let rhs = filled(seed ^ 2, cols, 3);
        let dense_p = gemm_naive(&a.dense, &rhs);
        assert_eq!(bits(&s.multiply_dense(&rhs).unwrap()), bits(&dense_p), "multiply_dense {what}");

        // Sparse × sparse, on NaN-free tiles.
        let finite = |m: &SparseMatrix| m.map_values(|v| if v.is_nan() { 1.5 } else { v });
        let fa = finite(&s);
        let fb = finite(&b.tile().transpose());
        let product = fa.multiply_sparse(&fb).unwrap();
        let dense_pp = gemm_naive(&fa.to_dense(), &fb.to_dense());
        assert_eq!(bits(&product.to_dense()), bits(&dense_pp), "multiply_sparse {what}");
        assert!(product.parts().1.windows(2).all(|w| w[0] < w[1]), "no empty listed row {what}");
        let _pool = on_pool_of(1);
        assert_eq!(bits(&fa.gram()), bits(&syrk_t(&fa.to_dense())), "gram {what}");

        // The element-wise family.
        let t = b.tile();
        let pairs: [(SparseMatrix, Matrix, &str); 3] = [
            (s.add(&t).unwrap(), a.dense.add(&b.dense).unwrap(), "add"),
            (s.sub(&t).unwrap(), a.dense.sub(&b.dense).unwrap(), "sub"),
            (s.hadamard(&t).unwrap(), a.dense.mul(&b.dense).unwrap(), "hadamard"),
        ];
        for (got, want, op) in pairs {
            assert_eq!(bits(&got.to_dense()), bits(&want), "{op} {what}");
            assert!(got.parts().1.windows(2).all(|w| w[0] < w[1]), "{op}: no empty listed row");
        }
        let mut acc = filled(seed ^ 3, rows, cols);
        let mut dense_acc = acc.clone();
        s.add_to_dense(&mut acc).unwrap();
        dense_acc.add_in_place(&a.dense).unwrap();
        assert_eq!(bits(&acc), bits(&dense_acc), "add_to_dense {what}");
        // Positive scales keep the dense loop's `0 × m` terms at `+0.0`.
        let scale = filled(seed ^ 4, rows, cols).map(f64::abs);
        let got = s.hadamard_dense(&scale).unwrap().to_dense();
        assert_eq!(bits(&got), bits(&a.dense.mul(&scale).unwrap()), "hadamard_dense {what}");
        let scaled = s.scalar_mul(2.5).to_dense();
        assert_eq!(bits(&scaled), bits(&a.dense.scalar_mul(2.5)), "scalar_mul {what}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn every_kernel_matches_the_dense_kernels_bitwise(
            shape in 0u8..8,
            n in 1usize..10,
            m in 1usize..10,
            seed in 0u64..1 << 40,
        ) {
            // 1 × n, n × 1, an all-empty tile, and general shapes.
            let (rows, cols) = match shape {
                0 => (1, m),
                1 => (n, 1),
                _ => (n, m),
            };
            let empty = shape == 2;
            let a = case(seed, rows, cols, true, empty);
            let b = case(seed ^ 0x5555, rows, cols, true, false);
            check_kernels(&a, &b, seed);
        }
    }

    /// The shapes the property must not leave to chance.
    #[test]
    fn edge_tiles_match_the_dense_kernels_bitwise() {
        let at = |rows: usize, cols: usize, entries: Vec<(u32, u32, f64)>| {
            let mut cells: Vec<Option<f64>> = vec![None; rows * cols];
            for &(r, c, v) in &entries {
                let cell = &mut cells[r as usize * cols + c as usize];
                *cell = Some(cell.map_or(v, |acc| acc + v));
            }
            let data = cells.iter().map(|v| v.unwrap_or(0.0)).collect();
            Case { rows, cols, entries, dense: Matrix::from_vec(rows, cols, data).unwrap() }
        };
        let cases = [
            // Empty leading, interior and trailing rows.
            at(6, 4, vec![(2, 1, 1.5), (4, 3, -0.0), (2, 0, NAN)]),
            // Duplicates summed in arrival order: (0.1 + 0.2) + 0.3 ≠ 0.1 + (0.2 + 0.3).
            at(3, 3, vec![(1, 1, 0.1), (0, 2, -0.0), (1, 1, 0.2), (1, 1, 0.3), (0, 2, -0.0)]),
            at(1, 5, vec![(0, 4, 2.0), (0, 0, -1.0)]),
            at(5, 1, vec![(4, 0, 3.0), (0, 0, 0.0)]),
            at(4, 4, vec![]),
            at(1, 1, vec![(0, 0, -0.0)]),
        ];
        for (i, a) in cases.iter().enumerate() {
            let b = case(i as u64, a.rows, a.cols, true, false);
            check_kernels(a, &b, i as u64);
        }
        let dup = cases[1].tile();
        assert_eq!(dup.get(1, 1).unwrap().to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
        assert_ne!(((0.1 + 0.2) + 0.3f64).to_bits(), (0.1 + (0.2 + 0.3f64)).to_bits());
        assert_eq!(dup.get(0, 2).unwrap().to_bits(), (-0.0f64).to_bits());
    }
}
