//! LU factorization with partial pivoting — the engine's LAPACK stand-in for
//! `matrix_inverse`, `solve` and determinants.
//!
//! Element orders are LINPACK's (`dgefa`/`dgesl`): every element of the
//! factor and of the forward substitution takes its terms `k` ascending,
//! every element of the back substitution `k` descending, one IEEE
//! multiply and one IEEE subtract per term, zeros included. Within those
//! orders the work runs on the register-tiled microkernel
//! (`gemm::sub_product`): the factorization is right-looking in
//! `PANEL`-column panels (pivoting and elimination inside the panel, a
//! row solve for the panel's rows right of it, then `A₂₂ −= L₂₁·U₁₂` in one
//! product), and each `ROWS`-row block of a substitution takes the terms
//! of the rows solved before it in one product and the rest as axpys. The
//! back substitution is the forward one over the row-reversed system. The
//! unblocked loops are kept in the tests as oracles; the blocked results
//! equal them bit for bit.

// Index-based loops mirror the LAPACK-style reference formulation.
#![allow(clippy::needless_range_loop)]

use crate::error::{LaError, Result};
use crate::gemm;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Pivot magnitudes at or below this times the largest magnitude in the
/// whole matrix are treated as exact zeros: the matrix is reported singular.
const SINGULARITY_EPS: f64 = 1e-13;

/// Columns per panel of the factorization: the `k` extent of each
/// trailing update, one packed microkernel panel.
const PANEL: usize = 64;

/// Rows per block of the substitutions.
const ROWS: usize = 32;

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// (row) pivoting.
///
/// The factorization is computed once and can then be reused for multiple
/// solves — exactly how the least-squares workload (Figure 2) inverts the
/// `XᵀX` normal matrix.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed L (unit lower, below diagonal) and U (upper, incl. diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// +1.0 or −1.0 depending on the parity of the permutation.
    sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a`. Fails with [`LaError::NotSquare`] for rectangular
    /// input and [`LaError::Singular`] when a pivot collapses.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LaError::NotSquare { op: "lu", shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        // Scale of the whole matrix, for a relative singularity test.
        let scale = lu.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));

        for p0 in (0..n).step_by(PANEL) {
            let p1 = (p0 + PANEL).min(n);
            // The panel: columns `p0..p1` take their terms from the
            // columns before them inside the panel.
            for col in p0..p1 {
                // Find the pivot row.
                let m = lu.as_slice();
                let mut pivot_row = col;
                let mut pivot_val = m[col * n + col].abs();
                for r in (col + 1)..n {
                    let v = m[r * n + col].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = r;
                    }
                }
                if pivot_val <= SINGULARITY_EPS * scale {
                    return Err(LaError::Singular { op: "lu" });
                }
                if pivot_row != col {
                    swap_rows(&mut lu, col, pivot_row);
                    perm.swap(col, pivot_row);
                    sign = -sign;
                }
                let m = lu.as_mut_slice();
                let pivot = m[col * n + col];
                // Eliminate below the pivot, inside the panel.
                for r in (col + 1)..n {
                    let factor = m[r * n + col] / pivot;
                    m[r * n + col] = factor;
                    let (upper, lower) = m.split_at_mut(r * n);
                    axpy(&mut lower[col + 1..p1], factor, &upper[col * n + col + 1..col * n + p1]);
                }
            }
            if p1 == n {
                break;
            }
            let m = lu.as_mut_slice();
            // U₁₂: the panel's rows, right of it, take their in-panel terms.
            for i in p0 + 1..p1 {
                let (above, row) = m.split_at_mut(i * n);
                for k in p0..i {
                    let f = row[k];
                    axpy(&mut row[p1..n], f, &above[k * n + p1..(k + 1) * n]);
                }
            }
            // A₂₂ −= L₂₁·U₁₂: every trailing element's in-panel terms.
            let l21 = gemm::packed(n - p1, p1 - p0, |i, k| m[(p1 + i) * n + p0 + k]);
            let (top, bottom) = m.split_at_mut(p1 * n);
            gemm::sub_product(
                &l21,
                (&top[p0 * n + p1..], n),
                (&mut bottom[p1..], n),
                (n - p1, p1 - p0, n - p1),
            );
        }

        Ok(LuDecomposition { lu, perm, sign })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for one right-hand side.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LaError::DimMismatch { op: "solve", lhs: (n, n), rhs: (b.len(), 1) });
        }
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b.as_slice()[p]).collect();
        self.solve_in_place(&mut x);
        Ok(Vector::from_vec(x))
    }

    /// Solves `A·X = B` for every column of `B` at once. Each column
    /// agrees bit for bit with `solve`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LaError::DimMismatch { op: "solve_matrix", lhs: (n, n), rhs: b.shape() });
        }
        let cols = b.cols();
        let mut x: Vec<f64> = self.perm.iter().flat_map(|&p| b.row(p)).copied().collect();
        // Forward: L·Y = P·B.
        self.substitute(&mut x, cols, false);
        // Back: U·X = Y, as the forward solve over the reversed rows.
        // Reversing the buffer also reverses each row, which changes
        // nothing: the columns are independent right-hand sides.
        x.reverse();
        self.substitute(&mut x, cols, true);
        x.reverse();
        Matrix::from_vec(n, cols, x)
    }

    /// One lower-triangular solve `T·Y = X` over the `n × cols` rows of
    /// `x`, in [`ROWS`]-row blocks: each row takes `T[i,k]·row k` off
    /// itself for `k` ascending, the rows above its block in one product
    /// and its block's earlier rows as axpys. `T` is `L` (unit diagonal),
    /// or with `flip` it is `U` read through reversed indices,
    /// `T[i,k] = U[n−1−i, n−1−k]`, and each row is then divided by its
    /// diagonal: the back substitution, on rows the caller reversed.
    fn substitute(&self, x: &mut [f64], cols: usize, flip: bool) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        let t = |i: usize, k: usize| {
            if flip {
                lu[(n - 1 - i) * n + n - 1 - k]
            } else {
                lu[i * n + k]
            }
        };
        for i0 in (0..n).step_by(ROWS) {
            let i1 = (i0 + ROWS).min(n);
            let (done, block) = x.split_at_mut(i0 * cols);
            let t_block = gemm::packed(i1 - i0, i0, |r, k| t(i0 + r, k));
            gemm::sub_product(&t_block, (done, cols), (block, cols), (i1 - i0, i0, cols));
            for i in i0..i1 {
                let (above, row) = block.split_at_mut((i - i0) * cols);
                let row = &mut row[..cols];
                for k in i0..i {
                    axpy(row, t(i, k), &above[(k - i0) * cols..][..cols]);
                }
                if flip {
                    let d = t(i, i);
                    row.iter_mut().for_each(|v| *v /= d);
                }
            }
        }
    }

    /// Forward + back substitution on one permuted RHS, a dot product per
    /// row, in `solve_matrix`'s orders: `k` ascending, then descending.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        // Forward: L·y = Pb (L has unit diagonal).
        for i in 1..n {
            let mut s = x[i];
            for k in 0..i {
                s -= lu[i * n + k] * x[k];
            }
            x[i] = s;
        }
        // Back: U·x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in ((i + 1)..n).rev() {
                s -= lu[i * n + k] * x[k];
            }
            x[i] = s / lu[i * n + i];
        }
    }

    /// The matrix inverse, computed by solving against the identity.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant: product of U's diagonal times the permutation sign.
    pub fn determinant(&self) -> f64 {
        let n = self.dim();
        let mut det = self.sign;
        for i in 0..n {
            det *= self.lu.as_slice()[i * n + i];
        }
        det
    }
}

/// `y −= f·x`, element by element.
fn axpy(y: &mut [f64], f: f64, x: &[f64]) {
    y.iter_mut().zip(x).for_each(|(t, &v)| *t -= f * v)
}

fn swap_rows(m: &mut Matrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    let n = m.cols();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (first, second) = m.as_mut_slice().split_at_mut(hi * n);
    first[lo * n..(lo + 1) * n].swap_with_slice(&mut second[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned(n: usize) -> Matrix {
        // Diagonally dominant => nonsingular.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                1.0 / ((i + 2 * j + 1) as f64)
            }
        })
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = well_conditioned(6);
        let x_true = Vector::from_fn(6, |i| (i as f64) - 2.5);
        let b = a.matrix_vector_multiply(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = well_conditioned(8);
        let inv = a.inverse().unwrap();
        let id = a.multiply(&inv).unwrap();
        assert!(id.approx_eq(&Matrix::identity(8), 1e-9));
        let id2 = inv.multiply(&a).unwrap();
        assert!(id2.approx_eq(&Matrix::identity(8), 1e-9));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(LuDecomposition::new(&a), Err(LaError::Singular { .. })));
        assert!(a.inverse().is_err());
    }

    #[test]
    fn rectangular_rejected() {
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LaError::NotSquare { .. })
        ));
    }

    #[test]
    fn determinant_known_values() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]).unwrap();
        assert!((a.determinant().unwrap() - (-14.0)).abs() < 1e-10);
        assert!((Matrix::identity(5).determinant().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_pivoting() {
        // Requires a row swap: leading zero.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.determinant().unwrap() - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = well_conditioned(5);
        let b = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let x = LuDecomposition::new(&a).unwrap().solve_matrix(&b).unwrap();
        let back = a.multiply(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-9));
    }

    #[test]
    fn solve_dim_mismatch() {
        let a = well_conditioned(4);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[4.0]]).unwrap();
        assert_eq!(a.solve(&Vector::from_slice(&[8.0])).unwrap().as_slice(), &[2.0]);
        assert!((a.determinant().unwrap() - 4.0).abs() < 1e-12);
    }

    /// `LuDecomposition::new` as it was before blocking: one column at a
    /// time over the whole trailing matrix, the oracle the blocked
    /// factorization must match bit for bit. Kept verbatim but for one
    /// marked change.
    fn factor_unblocked(a: &Matrix) -> Result<LuDecomposition> {
        if !a.is_square() {
            return Err(LaError::NotSquare { op: "lu", shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        // Scale of the whole matrix, for a relative singularity test.
        let scale = lu.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));

        for col in 0..n {
            // Find the pivot row.
            let mut pivot_row = col;
            let mut pivot_val = lu.as_slice()[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu.as_slice()[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= SINGULARITY_EPS * scale {
                return Err(LaError::Singular { op: "lu" });
            }
            if pivot_row != col {
                swap_rows(&mut lu, col, pivot_row);
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            let pivot = lu.as_slice()[col * n + col];
            // Eliminate below the pivot.
            for r in (col + 1)..n {
                let factor = lu.as_slice()[r * n + col] / pivot;
                lu.as_mut_slice()[r * n + col] = factor;
                // Changed: the `if factor == 0.0 { continue; }` that stood
                // here is gone; a zero multiplier subtracts its terms too.
                // Split the storage at row r so we can read the pivot row
                // while writing row r.
                let (upper, lower) = lu.as_mut_slice().split_at_mut(r * n);
                let pivot_row_slice = &upper[col * n + col + 1..(col + 1) * n];
                let target = &mut lower[col + 1..n];
                for (t, &p) in target.iter_mut().zip(pivot_row_slice.iter()) {
                    *t -= factor * p;
                }
            }
        }

        Ok(LuDecomposition { lu, perm, sign })
    }

    /// `solve_matrix` as it was before blocking: row `i` takes `L[i,k]·row
    /// k`, then `U[i,k]·row k`, off itself as one contiguous axpy per `k`.
    /// The oracle of the blocked substitutions, kept verbatim but for one
    /// marked change.
    fn solve_matrix_rows(lu: &LuDecomposition, b: &Matrix) -> Matrix {
        let n = lu.dim();
        let cols = b.cols();
        let mut x: Vec<f64> = lu.perm.iter().flat_map(|&p| b.row(p)).copied().collect();
        let lu = lu.lu.as_slice();
        let axpy = |xi: &mut [f64], f: f64, xk: &[f64]| {
            xi.iter_mut().zip(xk).for_each(|(t, &v)| *t -= f * v)
        };
        // Forward: L·Y = P·B (L has unit diagonal).
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i * cols);
            for k in 0..i {
                axpy(&mut rest[..cols], lu[i * n + k], &done[k * cols..][..cols]);
            }
        }
        // Back: U·X = Y.
        for i in (0..n).rev() {
            let (head, done) = x.split_at_mut((i + 1) * cols);
            let xi = &mut head[i * cols..];
            // Changed: `k` runs descending (it ran ascending), the order
            // that lets the back substitution be blocked.
            for k in ((i + 1)..n).rev() {
                axpy(xi, lu[i * n + k], &done[(k - i - 1) * cols..][..cols]);
            }
            xi.iter_mut().for_each(|t| *t /= lu[i * n + i]);
        }
        Matrix::from_vec(n, cols, x).unwrap()
    }

    /// The column-at-a-time `solve_matrix` this crate shipped until PR 25:
    /// the oracle the row-oriented substitution must match bit for bit.
    fn solve_matrix_by_columns(lu: &LuDecomposition, b: &Matrix) -> Matrix {
        let n = lu.dim();
        let cols = b.cols();
        let mut out = Matrix::zeros(n, cols);
        let mut work = vec![0.0; n];
        for j in 0..cols {
            for (i, &p) in lu.perm.iter().enumerate() {
                work[i] = b.as_slice()[p * cols + j];
            }
            lu.solve_in_place(&mut work);
            for i in 0..n {
                out.as_mut_slice()[i * cols + j] = work[i];
            }
        }
        out
    }

    /// Deterministic xorshift data in [-4, 4), so the tests need no RNG crate.
    fn xorshift(seed: u64, len: usize) -> Vec<f64> {
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

    /// `background` with `specials` planted at a stride of 11 (coprime to
    /// every width below, so each lands in many rows and columns).
    fn planted(mut background: Vec<f64>, specials: &[f64]) -> Vec<f64> {
        for (slot, &v) in background.iter_mut().step_by(11).zip(specials.iter().cycle()) {
            *slot = v;
        }
        background
    }

    /// Right-hand-side data of every operand class: plain, infinities and
    /// NaN among plain values, and signed zeros among subnormals.
    fn right_hand_sides(seed: u64, len: usize) -> [(&'static str, Vec<f64>); 3] {
        let sub = f64::MIN_POSITIVE / 2.0;
        [
            ("plain", xorshift(seed, len)),
            (
                "inf/nan",
                planted(xorshift(seed, len), &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0]),
            ),
            ("zeros/subnormals", planted(vec![-0.0; len], &[5e-324, 0.0, -sub, sub, -5e-324])),
        ]
    }

    /// One matrix that factors without a row swap and one whose tiny
    /// diagonal makes partial pivoting swap at most steps.
    fn operands(n: usize) -> [(&'static str, Matrix); 2] {
        let dominant = Matrix::from_vec(n, n, xorshift(11 + n as u64, n * n)).unwrap();
        let dominant = dominant.add(&Matrix::identity(n).scalar_mul(4.0 * n as f64)).unwrap();
        let mut pivoting = Matrix::from_vec(n, n, xorshift(17 + n as u64, n * n)).unwrap();
        for i in 0..n {
            pivoting.as_mut_slice()[i * n + i] *= 1e-3;
        }
        [("dominant", dominant), ("pivoting", pivoting)]
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_substitution_is_bit_identical_to_the_column_oracle() {
        for n in [1, 2, 7, 64, 129, 400] {
            for (what, a) in operands(n) {
                let lu = LuDecomposition::new(&a).unwrap();
                if what == "pivoting" && n > 1 {
                    let moved = lu.perm.iter().enumerate().filter(|&(i, &p)| i != p).count();
                    assert!(2 * moved > n, "{what} n={n}: only {moved} rows moved");
                }
                for cols in [1, 3, n] {
                    for (class, data) in right_hand_sides(n as u64 * 31 + cols as u64, n * cols) {
                        let b = Matrix::from_vec(n, cols, data).unwrap();
                        let got = lu.solve_matrix(&b).unwrap();
                        let want = solve_matrix_by_columns(&lu, &b);
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(want.as_slice()),
                            "{what} n={n} cols={cols} {class}"
                        );
                    }
                }
                let want = solve_matrix_by_columns(&lu, &Matrix::identity(n));
                let got = lu.inverse().unwrap();
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what} n={n} inverse");
            }
        }
    }

    /// Orders around every panel (64) and row-block (32) edge, and one
    /// `linreg_block` normal matrix.
    const SIZES: [usize; 10] = [1, 2, 31, 32, 33, 63, 64, 65, 129, 400];

    /// `a` as is, with two NaNs planted (one in the last row, one in the
    /// last column, so most of the factor stays finite), and with signed
    /// zeros and subnormals planted throughout.
    fn matrix_classes(a: Matrix) -> [(&'static str, Matrix); 3] {
        let n = a.rows();
        let mut nan = a.clone();
        nan.as_mut_slice()[(n - 1) * n + n / 2] = f64::NAN;
        nan.as_mut_slice()[(n / 2) * n + n - 1] = f64::NAN;
        let sub = f64::MIN_POSITIVE / 2.0;
        let zeros = planted(a.as_slice().to_vec(), &[0.0, -0.0, 5e-324, -sub]);
        let zeros = Matrix::from_vec(n, n, zeros).unwrap();
        [("plain", a), ("nan", nan), ("zeros/subnormals", zeros)]
    }

    #[test]
    fn blocked_factorization_is_bit_identical_to_the_unblocked_loop() {
        for n in SIZES {
            for (what, a) in operands(n) {
                for (class, a) in matrix_classes(a) {
                    let at = format!("{what} {class} n={n}");
                    match (LuDecomposition::new(&a), factor_unblocked(&a)) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(bits(got.lu.as_slice()), bits(want.lu.as_slice()), "{at}");
                            assert_eq!((got.perm, got.sign), (want.perm, want.sign), "{at}");
                        }
                        (got, want) => assert_eq!(got.err(), want.err(), "{at}"),
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_inverse_and_solve_matrix_are_bit_identical_to_the_unblocked_loops() {
        for n in SIZES {
            for (what, a) in operands(n) {
                for (class, a) in matrix_classes(a) {
                    let at = format!("{what} {class} n={n}");
                    // A singular class is the factorization test's concern.
                    let (Ok(lu), Ok(oracle)) = (LuDecomposition::new(&a), factor_unblocked(&a))
                    else {
                        continue;
                    };
                    let want = solve_matrix_rows(&oracle, &Matrix::identity(n));
                    let got = a.inverse().unwrap();
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{at} inverse");
                    let b = Matrix::from_vec(n, 3, xorshift(n as u64, 3 * n)).unwrap();
                    let want = solve_matrix_rows(&oracle, &b);
                    let got = lu.solve_matrix(&b).unwrap();
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{at} solve_matrix");
                }
            }
        }
    }

    #[test]
    fn single_rhs_solve_is_bit_identical_to_solve_matrix() {
        for n in [1, 2, 7, 64, 129, 400] {
            for (what, a) in operands(n) {
                let lu = LuDecomposition::new(&a).unwrap();
                for (class, data) in right_hand_sides(n as u64 * 7, n) {
                    let col = lu.solve_matrix(&Matrix::from_vec(n, 1, data.clone()).unwrap());
                    let x = lu.solve(&Vector::from_vec(data)).unwrap();
                    assert_eq!(
                        bits(x.as_slice()),
                        bits(col.unwrap().as_slice()),
                        "{what} n={n} {class}"
                    );
                }
            }
        }
    }

    /// A zero multiplier still subtracts its term: `0 × NaN` is NaN and
    /// `−0 − 0·p` is `+0` for `p < 0`, as in every other dense loop.
    #[test]
    fn lu_keeps_terms_at_zero_multipliers() {
        // Row 1's multiplier is 0, so the NaN in pivot row 0 reaches it.
        let a = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.lu.get(1, 1).unwrap().is_nan());
        let inv = lu.inverse().unwrap();
        assert!(inv.row(1).iter().all(|v| v.is_nan()), "{inv:?}");

        // Row 2 takes `−0 − 0·(−1) = +0` at column 1, then divides it by
        // the pivot 1: the stored multiplier is `+0`, not the `−0` a skip
        // would leave behind.
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, -0.0, 1.0]])
            .unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert_eq!(lu.perm, [0, 1, 2]);
        assert_eq!(lu.lu.get(2, 1).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn small_well_conditioned_matrices_are_not_singular() {
        // Each was `Singular` while the relative test's scale had a floor of 1.
        for (s, a) in [
            (2f64.powi(-50), Matrix::identity(4)),
            (1e-300, Matrix::identity(2)),
            (1e-14, well_conditioned(8)),
        ] {
            let n = a.rows();
            let small = a.scalar_mul(s);
            let inv = small.inverse().unwrap();
            assert!(small.multiply(&inv).unwrap().approx_eq(&Matrix::identity(n), 1e-9));
            assert!(inv.scalar_mul(s).approx_eq(&a.inverse().unwrap(), 1e-9));
        }
        // A zero matrix has scale 0 and stays singular.
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(3, 3)),
            Err(LaError::Singular { .. })
        ));
    }
}
