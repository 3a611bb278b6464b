//! Register-tiled dense matrix-multiplication kernel.
//!
//! The engine's `matrix_multiply` built-in, the Gram kernel and blocked LU
//! bottom out here, in one microkernel: an `MR × NR` tile of `out` is
//! loaded into registers, the `k` extent is run over it as an IEEE multiply
//! followed by an IEEE add per term — or an IEEE subtract, in the
//! instantiation LU's updates run (`sub_product`) — two roundings, never
//! a fused multiply-add, and the tile is stored back. The right operand is
//! packed once per `(k-block, j-block)` into `NR`-wide strips on the stack,
//! so the inner loop streams it contiguously; it and `out` are read through
//! row strides, so a product may run on a sub-block of a larger matrix. The
//! left operand is read through a `(row stride, k stride)` pair, which is
//! what lets SYRK be the same kernel over `aᵀ` restricted to upper-triangle
//! tiles. Rows and columns left over after whole tiles run the same
//! statement one row at a time. This is not a BLAS: there is no prefetch
//! and no FMA, and `a` is packed only for LU (a copy of the block, read
//! once).
//!
//! Every output element accumulates its terms in ascending `k`, starting
//! from the value already in `out`, whatever the tile, strip or morsel it
//! falls in. Lane width is therefore free to follow the host — `NR = 8`
//! under AVX when the CPU has it, `NR = 4` otherwise — while every output
//! bit stays the same on every machine, equal to a plain i-k-j loop and to
//! the sparse kernels in [`crate::sparse`]. A fused multiply-add or a
//! reassociated sum would break that; neither is used anywhere (CI greps).
//!
//! Every `a[i][k] * b[k][j]` term is accumulated, zeros included, so
//! non-finite operands follow IEEE 754 (`0 × inf = NaN`) whatever the
//! density of `a`. Sparsity is expressed with a sparse-typed tile
//! ([`crate::sparse`]), not sampled here.
//!
//! At `PAR_FLOPS` multiply-adds and above, a GEMM or SYRK output that spans
//! at least two `PAR_BLOCK`-square blocks is scheduled block by block as
//! morsels on the current query's worker pool ([`lardb_pool::QueryContext`];
//! the process pool outside a query). Each morsel owns a
//! disjoint block of `out` and runs the *full* `k` loop, so the parallel
//! result is bit-identical to the inline one. LU's products always run
//! inline.

use std::mem::MaybeUninit;

use crate::matrix::Matrix;

/// Edge (in elements) of the packed `b` panel: `BLOCK` values of `k` by
/// `BLOCK` columns, 32 KiB of stack — it stays in L1 while every row tile
/// of the block runs over it.
const BLOCK: usize = 64;

/// Rows of the register tile. With `NR = 8` under AVX the accumulators
/// fill 8 of 16 vector registers, with `NR = 4` on baseline SSE2 likewise,
/// leaving room for the `b` strip row and the broadcast `a` value.
const MR: usize = 4;

/// Edge of one parallel morsel: a `PAR_BLOCK × PAR_BLOCK` block of `out`
/// (two panel widths on a side, so each morsel amortizes scheduling over
/// several panels).
const PAR_BLOCK: usize = 2 * BLOCK;

/// Minimum multiply-add count before GEMM/SYRK fan their output blocks
/// out onto the worker pool.
const PAR_FLOPS: usize = 2_000_000;

/// A raw pointer into `out` that can cross thread boundaries.
#[derive(Clone, Copy)]
struct OutPtr(*mut f64);
// SAFETY: the pointer is only dereferenced by `block`, whose callers hand
// every concurrent call a disjoint `(i-block, j-block)` element set of a
// buffer that outlives the pool scope.
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// One accumulation `out += a × b` (or `out −= a × b`) as the microkernel
/// sees it: `out` is `m × n` with row stride `o_row`, `b` is `k × n` with
/// row stride `b_row`, and `a(i, kk)` lives at `a[i * a_row + kk * a_k]`.
#[derive(Clone, Copy)]
struct Product<'a> {
    a: &'a [f64],
    a_row: usize,
    a_k: usize,
    b: &'a [f64],
    b_row: usize,
    o_row: usize,
    m: usize,
    k: usize,
    n: usize,
    /// Only elements on or above the diagonal of `out` are needed.
    upper: bool,
}

impl<'a> Product<'a> {
    /// `a × b`.
    fn gemm(a: &'a Matrix, b: &'a Matrix) -> Self {
        let (m, k) = a.shape();
        assert_eq!(b.rows(), k, "gemm shape mismatch");
        let n = b.cols();
        let p = Product {
            a: a.as_slice(),
            a_row: k,
            a_k: 1,
            b: b.as_slice(),
            b_row: n,
            o_row: n,
            m,
            k,
            n,
            upper: false,
        };
        p.check();
        p
    }

    /// The upper triangle of `aᵀ × a`: the left operand is `a` read with
    /// its strides swapped.
    fn syrk(a: &'a Matrix) -> Self {
        let (rows, n) = a.shape();
        let p = Product {
            a: a.as_slice(),
            a_row: 1,
            a_k: n,
            b: a.as_slice(),
            b_row: n,
            o_row: n,
            m: n,
            k: rows,
            n,
            upper: true,
        };
        p.check();
        p
    }

    /// The bounds `block` relies on for its unchecked reads of `a`, and
    /// those of `b`.
    fn check(&self) {
        if self.k > 0 && self.n > 0 {
            assert!(self.n <= self.b_row && (self.k - 1) * self.b_row + self.n <= self.b.len());
        }
        if self.m > 0 && self.k > 0 {
            assert!((self.m - 1) * self.a_row + (self.k - 1) * self.a_k < self.a.len());
        }
    }
}

/// The microkernel over one `[i0,i1) × [j0,j1)` block of `out`, running
/// the full `k` extent in ascending order for every element.
///
/// # Safety
/// `p` must have passed [`Product::check`], `out` must point at its
/// `m × n` output (row stride `o_row`) with `i1 <= m` and `j1 <= n`, and
/// no other thread may touch elements in `[i0,i1) × [j0,j1)` while this
/// runs.
#[inline(always)]
unsafe fn block<const NR: usize, const SUB: bool>(
    p: &Product<'_>,
    out: OutPtr,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    let Product { a, a_row, a_k, b, b_row, o_row, k, upper, .. } = *p;
    let mut panel = [MaybeUninit::<f64>::uninit(); BLOCK * BLOCK];
    let ifull = i0 + (i1 - i0) / MR * MR;
    for kb in (0..k).step_by(BLOCK) {
        let kc = BLOCK.min(k - kb);
        for jb in (j0..j1).step_by(BLOCK) {
            let jmax = (jb + BLOCK).min(j1);
            let strips = (jmax - jb) / NR;
            let jfull = jb + strips * NR;
            // Pack: strip `s` holds rows `kb..kb+kc` of columns
            // `jb + s*NR ..` back to back.
            for (s, strip) in panel.chunks_exact_mut(kc * NR).take(strips).enumerate() {
                for (kk, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    let src = (kb + kk) * b_row + jb + s * NR;
                    for (d, &v) in dst.iter_mut().zip(&b[src..src + NR]) {
                        d.write(v);
                    }
                }
            }
            // SAFETY: the loop above initialized the first
            // `strips * kc * NR` elements.
            let packed = std::slice::from_raw_parts(panel.as_ptr().cast::<f64>(), strips * kc * NR);
            for i in (i0..ifull).step_by(MR) {
                for (s, strip) in packed.chunks_exact(kc * NR).enumerate() {
                    let j = jb + s * NR;
                    // A tile wholly below the diagonal has nothing to do.
                    if upper && j + NR <= i {
                        continue;
                    }
                    let mut acc = [[0.0f64; NR]; MR];
                    for (r, row) in acc.iter_mut().enumerate() {
                        let o = out.0.add((i + r) * o_row + j);
                        for (c, v) in row.iter_mut().enumerate() {
                            *v = *o.add(c);
                        }
                    }
                    // SAFETY: `Product::check` bounds `a(i + r, kb + kk)`
                    // for every `i + r < m` and `kb + kk < k`; unchecked
                    // because the index checks cost a fifth of the rate.
                    let mut ap = a.as_ptr().add(i * a_row + kb * a_k);
                    for b_row in strip.chunks_exact(NR) {
                        for (r, row) in acc.iter_mut().enumerate() {
                            let av = *ap.add(r * a_row);
                            for (v, &bv) in row.iter_mut().zip(b_row) {
                                *v = term::<SUB>(*v, av, bv);
                            }
                        }
                        ap = ap.add(a_k);
                    }
                    for (r, row) in acc.iter().enumerate() {
                        let o = out.0.add((i + r) * o_row + j);
                        for (c, &v) in row.iter().enumerate() {
                            *o.add(c) = v;
                        }
                    }
                }
            }
            // Rows past the last whole tile, then columns past the last
            // whole strip.
            edge::<SUB>(p, out, (ifull, i1), (jb, jfull), (kb, kb + kc));
            edge::<SUB>(p, out, (i0, i1), (jfull, jmax), (kb, kb + kc));
        }
    }
}

/// The tail of [`block`]: the same statement over `[i0,i1) × [j0,j1)` for
/// `k` in `[k0,k1)`, a row of `out` at a time.
///
/// # Safety
/// As for [`block`].
#[inline(always)]
unsafe fn edge<const SUB: bool>(
    p: &Product<'_>,
    out: OutPtr,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    (k0, k1): (usize, usize),
) {
    for i in i0..i1 {
        let j0 = if p.upper { j0.max(i) } else { j0 };
        if j0 >= j1 {
            continue;
        }
        let out_row = std::slice::from_raw_parts_mut(out.0.add(i * p.o_row + j0), j1 - j0);
        for kk in k0..k1 {
            let av = p.a[i * p.a_row + kk * p.a_k];
            let b_row = &p.b[kk * p.b_row + j0..kk * p.b_row + j1];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = term::<SUB>(*o, av, bv);
            }
        }
    }
}

/// One term into an element: `t + a·b`, or `t − a·b` for a subtracting
/// product — the statement of the loop it replaces, so that even a NaN
/// result carries the bits that loop gives it.
#[inline(always)]
fn term<const SUB: bool>(t: f64, a: f64, b: f64) -> f64 {
    if SUB {
        t - a * b
    } else {
        t + a * b
    }
}

/// [`block`] as compiled for one lane width.
type BlockFn = unsafe fn(&Product<'_>, OutPtr, (usize, usize), (usize, usize));

/// [`block`] for the baseline ISA (SSE2 on x86-64): 2-wide lanes, `NR = 4`.
///
/// # Safety
/// As for [`block`].
unsafe fn block_baseline<const SUB: bool>(
    p: &Product<'_>,
    out: OutPtr,
    rows: (usize, usize),
    cols: (usize, usize),
) {
    block::<4, SUB>(p, out, rows, cols)
}

/// [`block`] with 4-wide lanes, `NR = 8`. Only `avx` is enabled, so the
/// compiler has no fused instruction to reach for.
///
/// # Safety
/// As for [`block`], and the CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn block_avx<const SUB: bool>(
    p: &Product<'_>,
    out: OutPtr,
    rows: (usize, usize),
    cols: (usize, usize),
) {
    block::<8, SUB>(p, out, rows, cols)
}

/// The widest [`block`] this host can run, adding or subtracting.
fn block_fn<const SUB: bool>() -> BlockFn {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return block_avx::<SUB>;
    }
    block_baseline::<SUB>
}

/// Splits `0..len` into `PAR_BLOCK`-sized ranges.
fn par_ranges(len: usize) -> Vec<(usize, usize)> {
    (0..len).step_by(PAR_BLOCK).map(|lo| (lo, (lo + PAR_BLOCK).min(len))).collect()
}

/// Runs `p` over all of `out`: inline, or as one morsel per
/// `PAR_BLOCK`-square output block on the current query's pool
/// ([`crate::dispatch`]) when the product is large, has at least two of
/// them and the pool has several threads (a scope around one morsel buys
/// nothing and costs a boxed closure, a wake-up and a wait).
///
/// # Safety
/// `out` must point at `p`'s exclusively borrowed `m × n` output.
unsafe fn run(p: &Product<'_>, out: OutPtr) {
    let block = block_fn::<false>();
    let (m, n) = (p.m, p.n);
    // An upper-triangle product does about half the multiplies.
    let flops = m.saturating_mul(n).saturating_mul(p.k) / if p.upper { 2 } else { 1 };
    let several = m > PAR_BLOCK || n > PAR_BLOCK;
    crate::dispatch::on_pool(|pool| {
        if flops >= PAR_FLOPS && pool.workers() > 1 && several {
            let cols = par_ranges(n);
            pool.scope(|s| {
                for ib in par_ranges(m) {
                    // Blocks wholly below the diagonal have nothing to do.
                    for &jb in cols.iter().filter(|jb| !p.upper || jb.1 > ib.0) {
                        // SAFETY: disjoint (ib, jb) block of `out` per morsel.
                        s.spawn(move || unsafe { block(p, out, ib, jb) });
                    }
                }
            })
            .expect("dense kernel morsel panicked");
        } else {
            block(p, out, (0, m), (0, n))
        }
    })
}

/// `out += a × b`. Shapes must already be validated by the caller.
///
/// Runs inline or pool-parallel over output blocks depending on size;
/// both produce bit-identical output.
pub(crate) fn gemm_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let p = Product::gemm(a, b);
    assert_eq!(out.shape(), (p.m, p.n), "gemm output shape mismatch");
    crate::dispatch::note_kernel(crate::dispatch::Kernel::Dense);
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    // SAFETY: `out` is m × n and exclusively borrowed.
    unsafe { run(&p, ptr) }
}

/// Symmetric rank-k update: computes `aᵀ × a`, touching only the upper
/// triangle and mirroring — about half the flops of a general GEMM. This is
/// the kernel behind Gram-matrix computation (Figure 1) and the normal
/// equations of least squares (Figure 2).
///
/// Large updates parallelize over upper-triangle blocks on the worker pool.
pub(crate) fn syrk_t(a: &Matrix) -> Matrix {
    let n = a.cols();
    let mut out = Matrix::zeros(n, n);
    crate::dispatch::note_kernel(crate::dispatch::Kernel::Dense);
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    // SAFETY: `out` is n × n and exclusively borrowed.
    unsafe { run(&Product::syrk(a), ptr) }
    // Mirror the strict upper triangle into the lower one.
    for p in 0..n {
        for q in (p + 1)..n {
            let v = out.as_slice()[p * n + q];
            out.as_mut_slice()[q * n + p] = v;
        }
    }
    out
}

/// `a`'s `m × k` block, row-major, as the left operand of
/// [`sub_product`]. Every `a(i, kk)` is read here, so `a` may live in rows
/// that `out` shares.
pub(crate) fn packed(m: usize, k: usize, a: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let a = &a;
    (0..m).flat_map(|i| (0..k).map(move |kk| a(i, kk))).collect()
}

/// `out −= a × b` through the microkernel on the calling thread: the
/// trailing update and the substitutions of blocked LU ([`crate::lu`]).
/// Each element takes `t − a·b` per term, `k` ascending, the statement of
/// the plain loop. `a` is [`packed`], `b` is `k × n` with row stride
/// `b_row`, `out` is `m × n` with row stride `o_row`. There is no morsel
/// fan-out, and no kernel choice is noted: a factorization is not a dense
/// product of the query's.
pub(crate) fn sub_product(
    a: &[f64],
    (b, b_row): (&[f64], usize),
    (out, o_row): (&mut [f64], usize),
    (m, k, n): (usize, usize, usize),
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert_eq!(a.len(), m * k, "sub_product left operand shape");
    assert!(n <= o_row && (m - 1) * o_row + n <= out.len(), "sub_product output bounds");
    let p = Product { a, a_row: k, a_k: 1, b, b_row, o_row, m, k, n, upper: false };
    p.check();
    // SAFETY: `p.check()` bounds the reads of `a` and `b`, the assert
    // above every element of `out`, which is exclusively borrowed.
    unsafe { block_fn::<true>()(&p, OutPtr(out.as_mut_ptr()), (0, m), (0, n)) }
}

/// Makes a fresh `workers`-thread pool the current query's pool until the
/// guard drops, so tests reach the parallel path on any machine.
#[cfg(test)]
pub(crate) fn on_pool_of(workers: usize) -> lardb_pool::Entered {
    let pool = std::sync::Arc::new(lardb_pool::WorkerPool::new(workers));
    lardb_pool::QueryContext::new(lardb_pool::CancelToken::new(), None, Some(pool)).enter()
}

/// `out += a × b` through the microkernel, sequentially: what the
/// pool-parallel path must reproduce bit for bit.
#[cfg(test)]
pub(crate) fn gemm_acc_dense(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let p = Product::gemm(a, b);
    assert_eq!(out.shape(), (p.m, p.n), "gemm output shape mismatch");
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    // SAFETY: `out` is m × n and exclusively borrowed.
    unsafe { block_fn::<false>()(&p, ptr, (0, p.m), (0, p.n)) }
}

/// Naive triple-loop reference multiply for differential tests.
#[cfg(test)]
pub(crate) fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
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

    /// The kernel this module had before the register tile, kept verbatim
    /// as the oracle: a 64-blocked i-k-j loop over one block of `out`.
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

    /// The SYRK loop this module had before, kept verbatim as the oracle:
    /// input rows outermost, upper triangle only.
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

    /// Every instantiation of the microkernel this host can run, narrow
    /// one first: the baseline is tested on an AVX host without a switch.
    fn instantiations() -> Vec<(&'static str, BlockFn)> {
        instantiations_of::<false>()
    }

    /// [`instantiations`], adding or subtracting.
    fn instantiations_of<const SUB: bool>() -> Vec<(&'static str, BlockFn)> {
        let mut all: Vec<(&'static str, BlockFn)> = vec![("baseline", block_baseline::<SUB>)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            all.push(("avx", block_avx::<SUB>));
        }
        all
    }

    /// Same bits, except that any NaN equals any NaN (which operand's
    /// payload a NaN result carries is the instruction's choice).
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Asserts that `init + a × b` comes out of every instantiation with
    /// the bits the reference loop gives.
    fn assert_gemm_matches_reference(what: &str, a: &Matrix, b: &Matrix, init: &Matrix) {
        let (k, n) = b.shape();
        let mut want = init.clone();
        let ptr = OutPtr(want.as_mut_slice().as_mut_ptr());
        unsafe { gemm_block(a.as_slice(), b.as_slice(), ptr, k, n, (0, a.rows()), (0, n)) };
        let p = Product::gemm(a, b);
        for (name, block) in instantiations() {
            let mut got = init.clone();
            let ptr = OutPtr(got.as_mut_slice().as_mut_ptr());
            unsafe { block(&p, ptr, (0, p.m), (0, p.n)) };
            assert!(same_bits(got.as_slice(), want.as_slice()), "{name} gemm differs: {what}");
        }
    }

    #[test]
    fn microkernel_is_bit_identical_to_the_reference_gemm() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (70, 65, 80),
            (128, 64, 1),
            (129, 257, 131),
            (400, 500, 400),
        ] {
            let a = Matrix::from_vec(m, k, rngish(42 + m as u64, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(99 + n as u64, k * n)).unwrap();
            let what = format!("{m}x{k}x{n}");
            assert_gemm_matches_reference(&what, &a, &b, &Matrix::zeros(m, n));
            // Accumulation starts from what `out` already holds.
            let init = Matrix::from_vec(m, n, rngish(7 + k as u64, m * n)).unwrap();
            assert_gemm_matches_reference(&format!("{what} into non-zero out"), &a, &b, &init);
        }
    }

    /// `rngish` data with every special value planted at a stride coprime
    /// to the tile and block sizes, so each lands in tiles and in tails.
    fn with_specials(seed: u64, len: usize) -> Vec<f64> {
        const SPECIALS: [f64; 9] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            1e300,
        ];
        let mut data = rngish(seed, len);
        for (slot, v) in data.iter_mut().step_by(13).zip(SPECIALS.iter().cycle()) {
            *slot = *v;
        }
        data
    }

    #[test]
    fn microkernel_is_bit_identical_on_zeros_infinities_nans_and_subnormals() {
        for &(m, k, n) in &[(17, 9, 33), (70, 65, 80)] {
            let a = Matrix::from_vec(m, k, with_specials(3, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, with_specials(5, k * n)).unwrap();
            let plain_a = Matrix::from_vec(m, k, rngish(3, m * k)).unwrap();
            let plain_b = Matrix::from_vec(k, n, rngish(5, k * n)).unwrap();
            let init = Matrix::from_vec(m, n, with_specials(9, m * n)).unwrap();
            let zeros = Matrix::zeros(m, n);
            assert_gemm_matches_reference("specials on the left", &a, &plain_b, &zeros);
            assert_gemm_matches_reference("specials on the right", &plain_a, &b, &zeros);
            assert_gemm_matches_reference("specials on both sides", &a, &b, &zeros);
            assert_gemm_matches_reference("specials in out", &plain_a, &plain_b, &init);
            // Tiny products that underflow and sums that cancel to ±0.
            let small = plain_a.scalar_mul(1e-160);
            assert_gemm_matches_reference("underflow", &small, &plain_b.scalar_mul(1e-160), &zeros);
        }
    }

    #[test]
    fn microkernel_is_bit_identical_to_the_reference_syrk() {
        // The last shape is one `linreg_block` block: 500 rows of 400.
        for &(m, n) in &[(5, 3), (33, 17), (200, 260), (500, 400)] {
            for data in [rngish(7 + m as u64, m * n), with_specials(11, m * n)] {
                let a = Matrix::from_vec(m, n, data).unwrap();
                let mut want = Matrix::zeros(n, n);
                let ptr = OutPtr(want.as_mut_slice().as_mut_ptr());
                unsafe { syrk_rows(a.as_slice(), ptr, m, n, (0, n)) };
                let p = Product::syrk(&a);
                for (name, block) in instantiations() {
                    let mut got = Matrix::zeros(n, n);
                    let ptr = OutPtr(got.as_mut_slice().as_mut_ptr());
                    unsafe { block(&p, ptr, (0, n), (0, n)) };
                    // The reference leaves the strict lower triangle zero;
                    // a tile on the diagonal may write below it, and the
                    // mirror in `syrk_t` overwrites all of it.
                    for i in 0..n {
                        let upper = i * n + i..(i + 1) * n;
                        assert!(
                            same_bits(&got.as_slice()[upper.clone()], &want.as_slice()[upper]),
                            "{name} syrk differs at {m}x{n}, row {i}"
                        );
                    }
                }
                // The public entry: mirrored, inline and pool-parallel.
                for i in 0..n {
                    for j in 0..i {
                        want.as_mut_slice()[i * n + j] = want.as_slice()[j * n + i];
                    }
                }
                for workers in [1, 4] {
                    let _pool = on_pool_of(workers);
                    let got = syrk_t(&a);
                    assert!(same_bits(got.as_slice(), want.as_slice()), "syrk_t at {m}x{n}");
                }
            }
        }
    }

    /// The two products the optimizer's type-directed rewrites replace,
    /// against what they replace them with: `matrix_multiply(trans_matrix(x),
    /// x)` against the Gram (SYRK), `matrix_vector_multiply(trans_matrix(x),
    /// v)` against the transpose-free `xᵀv`. Shapes with tails on every
    /// edge, one `linreg_block` block, and every special value in the
    /// matrix and in the vector.
    #[test]
    fn rewritten_products_are_bit_identical_to_transpose_then_multiply() {
        for &(m, n) in &[(1, 1), (5, 3), (3, 5), (33, 17), (70, 129), (500, 400)] {
            let plain = [rngish(3 + m as u64, m * n), rngish(5 + n as u64, m)];
            let special = [with_specials(7, m * n), with_specials(9, m)];
            for (what, [x, v]) in [("plain", plain), ("specials", special)] {
                let x = Matrix::from_vec(m, n, x).unwrap();
                let v = crate::Vector::from_vec(v);
                let at = format!("{what} {m}x{n}");
                let want = x.transpose().multiply(&x).unwrap();
                assert!(same_bits(x.gram().as_slice(), want.as_slice()), "gram {at}");
                let want = x.transpose().matrix_vector_multiply(&v).unwrap();
                let got = x.transpose_vector_multiply(&v).unwrap();
                assert!(same_bits(got.as_slice(), want.as_slice()), "xᵀv {at}");
            }
        }
        // A length mismatch is the transposed matvec's error, word for word.
        let x = Matrix::zeros(4, 3);
        let v = crate::Vector::zeros(3);
        assert_eq!(
            x.transpose_vector_multiply(&v),
            x.transpose().matrix_vector_multiply(&v)
        );
        assert_eq!(
            x.transpose_vector_multiply(&v).unwrap_err().to_string(),
            "matrix_vector_multiply: dimension mismatch between 3x4 and 3x1"
        );
    }

    /// `out −= a × b` into an interior block of a larger buffer, `b` read
    /// from an interior block of another, through the entry and through
    /// every subtracting instantiation: every element of the block takes
    /// the plain loop's subtracts, and nothing outside it moves.
    #[test]
    fn sub_product_updates_an_interior_block_only() {
        // Tails on every edge of the register tile, `k` past one panel.
        let (m, k, n) = (21, 70, 19);
        let (o_row, o_at) = (60, 5 * 60 + 7);
        let (b_row, b_at) = (40, 3 * 40 + 11);
        for (what, specials) in [("plain", false), ("specials", true)] {
            let data = |seed, len| if specials { with_specials(seed, len) } else { rngish(seed, len) };
            let a = data(3, m * k);
            let b = data(5, 80 * b_row);
            let init = data(9, 50 * o_row);
            let mut want = init.clone();
            for i in 0..m {
                for j in 0..n {
                    let t = &mut want[o_at + i * o_row + j];
                    for kk in 0..k {
                        *t -= a[i * k + kk] * b[b_at + kk * b_row + j];
                    }
                }
            }
            let packed = packed(m, k, |i, kk| a[i * k + kk]);
            let mut runs = vec![("entry", init.clone())];
            sub_product(&packed, (&b[b_at..], b_row), (&mut runs[0].1[o_at..], o_row), (m, k, n));
            let b = &b[b_at..];
            let p = Product { a: &packed, a_row: k, a_k: 1, b, b_row, o_row, m, k, n, upper: false };
            p.check();
            for (name, block) in instantiations_of::<true>() {
                let mut got = init.clone();
                unsafe { block(&p, OutPtr(got[o_at..].as_mut_ptr()), (0, m), (0, n)) };
                runs.push((name, got));
            }
            for (name, got) in runs {
                for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                    let (i, j) = ((at / o_row).wrapping_sub(5), (at % o_row).wrapping_sub(7));
                    if i < m && j < n {
                        assert!(same_bits(&[*g], &[*w]), "{name} {what}: ({i}, {j}) is {g}, want {w}");
                    } else {
                        assert_eq!(g.to_bits(), init[at].to_bits(), "{name} {what}: {at} moved");
                    }
                }
            }
        }
    }

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
        let _pool = on_pool_of(4);
        let mut par_out = Matrix::zeros(m, n);
        gemm_acc(&a, &b, &mut par_out);
        // Same per-element accumulation order ⇒ identical bits.
        assert_eq!(inline_out.as_slice(), par_out.as_slice());
    }

    #[test]
    fn parallel_syrk_is_bitwise_identical_to_inline() {
        let (m, n) = (200, 260);
        let a = Matrix::from_vec(m, n, rngish(31, m * n)).unwrap();
        let inline_out = {
            let _pool = on_pool_of(1);
            syrk_t(&a)
        };
        let _pool = on_pool_of(4);
        let par_out = syrk_t(&a);
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
