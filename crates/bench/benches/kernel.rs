//! Criterion micro-benchmarks for the linear-algebra kernel — the
//! "BLAS/LAPACK stand-in" whose constants every higher-level number rests
//! on, including the cache-blocking ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lardb_la::gemm::{gemm_acc_dense, gemm_naive};
use lardb_la::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(seed: u64, r: usize, c: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
}

/// A dense-typed matrix with roughly `zero_pct`% zero entries.
fn sparse_matrix(seed: u64, r: usize, c: usize, zero_pct: u32) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(r, c, |_, _| {
        if rng.gen_range(0u32..100) < zero_pct {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        }
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let a = random_matrix(1, n, n);
        let b = random_matrix(2, n, n);
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| a.multiply(&b).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| gemm_naive(&a, &b))
        });
    }
    g.finish();
}

/// The dense inner loop on dense and ~60%-zero operands: its cost does
/// not depend on the operand's zero density (sparse-typed tiles are what
/// make zeros cheap; see the `sparse_density_sweep` bench).
fn bench_gemm_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_density");
    let n = 128usize;
    let b = random_matrix(20, n, n);
    for (label, a) in
        [("dense", random_matrix(21, n, n)), ("sparse60", sparse_matrix(22, n, n, 60))]
    {
        g.bench_with_input(BenchmarkId::new(format!("{label}_branchfree"), n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = Matrix::zeros(n, n);
                gemm_acc_dense(&a, &b, &mut out);
                out
            })
        });
    }
    g.finish();
}

fn bench_gram_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram");
    for &d in &[10usize, 100] {
        let x = random_matrix(3, 1000, d);
        // syrk (exploits symmetry) vs explicit transpose-multiply
        g.bench_with_input(BenchmarkId::new("syrk", d), &d, |bch, _| {
            bch.iter(|| x.gram())
        });
        g.bench_with_input(BenchmarkId::new("t_mul", d), &d, |bch, _| {
            bch.iter(|| x.transpose().multiply(&x).unwrap())
        });
        // the per-row path the vector-based SQL takes
        let rows: Vec<Vector> = (0..x.rows()).map(|i| x.row_vector(i).unwrap()).collect();
        g.bench_with_input(BenchmarkId::new("outer_sum", d), &d, |bch, _| {
            bch.iter(|| {
                let mut acc = Matrix::zeros(d, d);
                for r in &rows {
                    r.outer_product_into(r, &mut acc).unwrap();
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("solve");
    for &n in &[10usize, 100] {
        let b = random_matrix(4, n, n);
        let spd = b.multiply(&b.transpose()).unwrap().add(&Matrix::identity(n).scalar_mul(n as f64)).unwrap();
        let rhs = Vector::from_fn(n, |i| i as f64);
        g.bench_with_input(BenchmarkId::new("lu_inverse", n), &n, |bch, _| {
            bch.iter(|| spd.inverse().unwrap())
        });
        g.bench_with_input(BenchmarkId::new("lu_solve", n), &n, |bch, _| {
            bch.iter(|| spd.solve(&rhs).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |bch, _| {
            bch.iter(|| {
                lardb_la::CholeskyDecomposition::new(&spd).unwrap().solve(&rhs).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let v1 = Vector::from_fn(1000, |i| i as f64);
    let v2 = Vector::from_fn(1000, |i| (i * 2) as f64);
    c.bench_function("inner_product_1000", |b| {
        b.iter(|| v1.inner_product(&v2).unwrap())
    });
    let m = random_matrix(5, 512, 512);
    c.bench_function("transpose_512", |b| b.iter(|| m.transpose()));
    c.bench_function("matrix_add_in_place_512", |b| {
        let mut acc = Matrix::zeros(512, 512);
        b.iter(|| acc.add_in_place(&m).unwrap())
    });
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_density,
    bench_gram_kernels,
    bench_solvers,
    bench_elementwise
);
criterion_main!(benches);
