//! Cache-blocked dense matrix-multiplication kernels.
//!
//! The engine's `matrix_multiply` built-in bottoms out here. The kernel is a
//! straightforward i-k-j loop order (streaming through rows of both operands
//! so the inner loop is a unit-stride fused multiply-add over contiguous
//! memory) with an outer cache-blocking over `k` and `j`. This is not a
//! hand-tuned BLAS, but it is within a small factor of one for the sizes the
//! paper manipulates (tiles up to a few thousand on a side) and — crucially
//! for the reproduction — its cost *scales* exactly like the paper's GEMM
//! calls, so relative results are preserved.
//!
//! There is one dense inner loop: every `a[i][k] * b[k][j]` term is
//! accumulated, zeros included, so non-finite operands follow IEEE 754
//! (`0 × inf = NaN`) whatever the density of `a`. Sparsity is expressed
//! with a sparse-typed tile ([`crate::sparse`]), not sampled here.
//!
//! Above `PAR_FLOPS` multiply-adds the output is tiled into
//! `(i-block, j-block)` cache blocks scheduled as morsels on the
//! process-wide [`lardb_pool`] worker pool. Each morsel owns a disjoint
//! block of `out` and runs the *full* `k` loop in the same block order
//! as the sequential kernel, so per-element accumulation order — and
//! therefore every output bit — is identical to a sequential run.

use crate::matrix::Matrix;

/// Cache-block edge (in elements). 64×64 f64 tiles = 32 KiB per operand
/// block, comfortably inside L1+L2 on every machine we target.
const BLOCK: usize = 64;

/// Edge of one parallel morsel: a `PAR_BLOCK × PAR_BLOCK` block of `out`
/// (two cache blocks on a side, so each morsel amortizes scheduling over
/// several inner-kernel block iterations).
const PAR_BLOCK: usize = 2 * BLOCK;

/// Minimum multiply-add count (`m·n·k`) before GEMM/SYRK fan their
/// output blocks out onto the worker pool.
const PAR_FLOPS: usize = 2_000_000;

/// A raw pointer into `out` that can cross thread boundaries. Safety is
/// by construction: every parallel morsel writes a disjoint
/// `(i-block, j-block)` element set.
#[derive(Clone, Copy)]
struct OutPtr(*mut f64);
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// The blocked inner kernel over one `[i0,i1) × [j0,j1)` block of `out`,
/// running the full `k` extent in the canonical `kb`-block order.
///
/// # Safety
/// `out` must point at an `m × n` row-major buffer; no other thread may
/// touch elements in `[i0,i1) × [j0,j1)` while this runs.
unsafe fn gemm_block(
    a_data: &[f64],
    b_data: &[f64],
    out: OutPtr,
    k: usize,
    n: usize,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    for kb in (0..k).step_by(BLOCK) {
        let kmax = (kb + BLOCK).min(k);
        for jb in (j0..j1).step_by(BLOCK) {
            let jmax = (jb + BLOCK).min(j1);
            for i in i0..i1 {
                let a_row = &a_data[i * k..(i + 1) * k];
                let out_row = std::slice::from_raw_parts_mut(
                    out.0.add(i * n + jb),
                    jmax - jb,
                );
                for kk in kb..kmax {
                    let aik = a_row[kk];
                    let b_row = &b_data[kk * n + jb..kk * n + jmax];
                    for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

/// Splits `0..len` into `PAR_BLOCK`-sized ranges.
fn par_ranges(len: usize) -> Vec<(usize, usize)> {
    (0..len).step_by(PAR_BLOCK).map(|lo| (lo, (lo + PAR_BLOCK).min(len))).collect()
}

/// `out += a × b`. Shapes must already be validated by the caller.
///
/// Runs inline or pool-parallel over output cache blocks depending on
/// size; both produce bit-identical output.
pub(crate) fn gemm_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    gemm_acc_pooled(lardb_pool::global(), a, b, out)
}

/// `gemm_acc` scheduled on a caller-supplied pool (tests use a
/// dedicated multi-worker pool so the parallel path is exercised even on
/// single-core machines).
pub fn gemm_acc_pooled(
    pool: &lardb_pool::WorkerPool,
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
) {
    let (m, k) = a.shape();
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(out.shape(), (m, n));

    crate::dispatch::note_kernel(crate::dispatch::Kernel::Dense);
    let flops = m.saturating_mul(n).saturating_mul(k);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    if flops >= PAR_FLOPS && pool.workers() > 1 && m * n > PAR_BLOCK {
        pool.scope(|s| {
            for ib in par_ranges(m) {
                for jb in par_ranges(n) {
                    // SAFETY: disjoint (ib, jb) block of `out` per morsel.
                    s.spawn(move || unsafe {
                        gemm_block(a_data, b_data, ptr, k, n, ib, jb)
                    });
                }
            }
        })
        .expect("gemm morsel panicked");
    } else {
        // SAFETY: `out` is m × n and exclusively borrowed.
        unsafe { gemm_block(a_data, b_data, ptr, k, n, (0, m), (0, n)) }
    }
}

/// `out += a × b` through the dense inner loop, sequentially. Public for
/// differential tests and the kernel bench.
pub fn gemm_acc_dense(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm shape mismatch");
    assert_eq!(out.shape(), (m, n), "gemm output shape mismatch");
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    unsafe { gemm_block(a.as_slice(), b.as_slice(), ptr, k, n, (0, m), (0, n)) }
}

/// The SYRK inner kernel: accumulates `aᵀa` rows `[p0,p1)` of the upper
/// triangle into `out`, iterating input rows outermost (the canonical
/// order, so parallel row-blocks accumulate bit-identically).
///
/// # Safety
/// `out` must point at an `n × n` row-major buffer; no other thread may
/// touch rows `[p0,p1)` while this runs.
unsafe fn syrk_rows(
    data: &[f64],
    out: OutPtr,
    m: usize,
    n: usize,
    (p0, p1): (usize, usize),
) {
    for i in 0..m {
        let row = &data[i * n..(i + 1) * n];
        for p in p0..p1 {
            let v = row[p];
            let out_row =
                std::slice::from_raw_parts_mut(out.0.add(p * n + p), n - p);
            for (o, &w) in out_row.iter_mut().zip(row[p..].iter()) {
                *o += v * w;
            }
        }
    }
}

/// Symmetric rank-k update: computes `aᵀ × a`, touching only the upper
/// triangle and mirroring — about half the flops of a general GEMM. This is
/// the kernel behind Gram-matrix computation (Figure 1) and the normal
/// equations of least squares (Figure 2).
///
/// Large updates parallelize over output-row blocks on the worker pool.
pub(crate) fn syrk_t(a: &Matrix) -> Matrix {
    syrk_t_pooled(lardb_pool::global(), a)
}

/// `syrk_t` scheduled on a caller-supplied pool.
pub fn syrk_t_pooled(pool: &lardb_pool::WorkerPool, a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let data = a.as_slice();
    let mut out = Matrix::zeros(n, n);
    crate::dispatch::note_kernel(crate::dispatch::Kernel::Dense);
    // ~half the multiplies of a full m×n×n GEMM.
    let flops = m.saturating_mul(n).saturating_mul(n) / 2;
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    if flops >= PAR_FLOPS && pool.workers() > 1 && n > PAR_BLOCK {
        pool.scope(|s| {
            for pb in par_ranges(n) {
                // SAFETY: disjoint output rows [pb.0, pb.1) per morsel.
                s.spawn(move || unsafe { syrk_rows(data, ptr, m, n, pb) });
            }
        })
        .expect("syrk morsel panicked");
    } else {
        // SAFETY: `out` is n × n and exclusively borrowed.
        unsafe { syrk_rows(data, ptr, m, n, (0, n)) }
    }
    // Mirror the strict upper triangle into the lower one.
    for p in 0..n {
        for q in (p + 1)..n {
            let v = out.as_slice()[p * n + q];
            out.as_mut_slice()[q * n + p] = v;
        }
    }
    out
}

/// Naive triple-loop reference multiply, kept for differential testing and
/// the blocking ablation bench.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_naive shape mismatch");
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            out.as_mut_slice()[i * n + j] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rngish(seed: u64, len: usize) -> Vec<f64> {
        // Small deterministic pseudo-random generator (xorshift) so the
        // kernel tests do not need the rand crate at build time.
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

    #[test]
    fn blocked_matches_naive_various_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 9, 33), (70, 65, 80), (128, 64, 1)] {
            let a = Matrix::from_vec(m, k, rngish(42 + m as u64, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(99 + n as u64, k * n)).unwrap();
            let fast = a.multiply(&b).unwrap();
            let slow = gemm_naive(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-9), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn syrk_matches_naive() {
        for &(m, n) in &[(5, 3), (33, 17), (80, 70)] {
            let a = Matrix::from_vec(m, n, rngish(7 + m as u64, m * n)).unwrap();
            let fast = syrk_t(&a);
            let slow = gemm_naive(&a.transpose(), &a);
            assert!(fast.approx_eq(&slow, 1e-9), "mismatch at {m}x{n}");
        }
    }

    #[test]
    fn gemm_acc_accumulates_not_overwrites() {
        let a = Matrix::identity(4);
        let mut out = Matrix::filled(4, 4, 1.0);
        gemm_acc(&a, &a, &mut out);
        assert_eq!(out.get(0, 0).unwrap(), 2.0);
        assert_eq!(out.get(0, 1).unwrap(), 1.0);
    }

    #[test]
    fn zero_sized_operands() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 0);
        let c = a.multiply(&b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        let d = b.multiply(&a).unwrap();
        assert_eq!(d.shape(), (5, 5));
        assert_eq!(d.sum_elements(), 0.0);
    }

    #[test]
    fn sparse_input_dispatch_is_correct() {
        // ~70% zeros in a dense-typed tile.
        let m = 40;
        let data: Vec<f64> =
            rngish(11, m * m).iter().map(|&v| if v < 1.0 { 0.0 } else { v }).collect();
        let a = Matrix::from_vec(m, m, data).unwrap();
        let b = Matrix::from_vec(m, m, rngish(13, m * m)).unwrap();
        let fast = a.multiply(&b).unwrap();
        assert!(fast.approx_eq(&gemm_naive(&a, &b), 1e-9));
    }

    #[test]
    fn parallel_gemm_is_bitwise_identical_to_inline() {
        let (m, k, n) = (300, 150, 280);
        let a = Matrix::from_vec(m, k, rngish(21, m * k)).unwrap();
        let b = Matrix::from_vec(k, n, rngish(22, k * n)).unwrap();
        let mut inline_out = Matrix::zeros(m, n);
        gemm_acc_dense(&a, &b, &mut inline_out);
        // A dedicated multi-worker pool forces the morsel path even on
        // single-core machines (the flop count is far above the cutoff).
        let pool = lardb_pool::WorkerPool::new(4);
        let mut par_out = Matrix::zeros(m, n);
        gemm_acc_pooled(&pool, &a, &b, &mut par_out);
        // Same per-element accumulation order ⇒ identical bits.
        assert_eq!(inline_out.as_slice(), par_out.as_slice());
    }

    #[test]
    fn parallel_syrk_is_bitwise_identical_to_inline() {
        let (m, n) = (200, 260);
        let a = Matrix::from_vec(m, n, rngish(31, m * n)).unwrap();
        let inline_pool = lardb_pool::WorkerPool::new(1);
        let inline_out = syrk_t_pooled(&inline_pool, &a);
        let pool = lardb_pool::WorkerPool::new(4);
        let par_out = syrk_t_pooled(&pool, &a);
        assert_eq!(inline_out.as_slice(), par_out.as_slice());
    }

    /// `a == b` element-wise, with NaN equal to NaN.
    fn same_ieee(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn non_finite_operands_follow_ieee_at_any_zero_density() {
        // `0 × inf` must be NaN whether the left operand has few or many
        // zeros: a query's answer may not depend on its operand's density.
        let m = 40;
        for zero_below in [-3.2, 1.6] {
            // ≈10 % and ≈70 % zeros.
            let data: Vec<f64> = rngish(11, m * m)
                .iter()
                .map(|&v| if v < zero_below { 0.0 } else { v })
                .collect();
            let zeros = data.iter().filter(|&&v| v == 0.0).count();
            let a = Matrix::from_vec(m, m, data).unwrap();
            let mut b_data = rngish(13, m * m);
            b_data[3 * m + 5] = f64::INFINITY;
            b_data[17 * m + 9] = f64::NAN;
            let b = Matrix::from_vec(m, m, b_data).unwrap();
            let want = gemm_naive(&a, &b);
            assert!(want.as_slice().iter().any(|v| v.is_nan()));
            assert!(
                same_ieee(&a.multiply(&b).unwrap(), &want),
                "gemm diverged from IEEE with {zeros} zeros"
            );
            // SYRK multiplies the matrix with itself, so plant the
            // non-finite values in the zero-bearing operand.
            let mut s_data = a.as_slice().to_vec();
            s_data[3 * m + 5] = f64::INFINITY;
            s_data[17 * m + 9] = f64::NAN;
            let s = Matrix::from_vec(m, m, s_data).unwrap();
            assert!(
                same_ieee(&syrk_t(&s), &gemm_naive(&s.transpose(), &s)),
                "syrk diverged from IEEE with {zeros} zeros"
            );
        }
    }
}
