//! A miniature Spark `mllib.linalg`: RDD-style partitioned collections and
//! a distributed `BlockMatrix`.
//!
//! The paper's Spark implementations are reproduced at the *strategy*
//! level, including the cost characteristics that made Spark uncompetitive
//! at 1000 dimensions:
//!
//! * the Gram/regression jobs are `map` + `reduce` over per-row results,
//!   where — exactly like the paper's Scala
//!   `.reduce((a, b) => (a, b).zipped.map(_+_))` — **every combine
//!   allocates a fresh result buffer** instead of accumulating in place;
//! * the distance job uses a `BlockMatrix`-style blocked multiply in which
//!   every block crossing a "shuffle" boundary is **deep-copied first**
//!   (standing in for serialization), then reduced row-wise through an
//!   RDD of `(index, row)` pairs as the paper's code does.

use lardb_la::{CholeskyDecomposition, Matrix, Vector};

use crate::{split_ranges, WorkloadData};

/// A resilient-distributed-dataset stand-in: a partitioned `Vec`.
#[derive(Debug, Clone)]
pub struct Rdd<T> {
    partitions: Vec<Vec<T>>,
}

impl<T: Send> Rdd<T> {
    /// Distributes `items` round-robin over `parts` partitions.
    pub fn parallelize(items: Vec<T>, parts: usize) -> Self {
        let parts = parts.max(1);
        let mut partitions: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            partitions[i % parts].push(item);
        }
        Rdd { partitions }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Parallel per-element map.
    pub fn map<U: Send>(self, f: impl Fn(T) -> U + Sync) -> Rdd<U> {
        let partitions = par_over(self.partitions, |part| {
            part.into_iter().map(&f).collect::<Vec<U>>()
        });
        Rdd { partitions }
    }

    /// Parallel reduce: each partition folds locally (allocating combine,
    /// like the paper's Scala), then the driver combines partials.
    pub fn reduce(self, f: impl Fn(T, T) -> T + Sync) -> Option<T> {
        let partials: Vec<Option<T>> = par_over(self.partitions, |part| {
            part.into_iter().reduce(&f)
        });
        partials.into_iter().flatten().reduce(&f)
    }

    /// Gathers all elements to the driver.
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Pipelined map + reduce, the way a Spark stage actually executes:
    /// each element is mapped and folded immediately, so only one mapped
    /// value per partition is alive at a time. (A bare `.map().reduce()`
    /// here would materialize the whole mapped RDD — 20 000 × 8 MB outer
    /// products for the 1000-dim Gram — which no real engine does.) The
    /// combine function still allocates per call, faithfully to the
    /// paper's `(a, b).zipped.map(_+_)`.
    pub fn map_reduce<U: Send>(
        self,
        map_f: impl Fn(T) -> U + Sync,
        reduce_f: impl Fn(U, U) -> U + Sync,
    ) -> Option<U> {
        let partials: Vec<Option<U>> = par_over(self.partitions, |part| {
            let mut acc: Option<U> = None;
            for item in part {
                let mapped = map_f(item);
                acc = Some(match acc {
                    None => mapped,
                    Some(a) => reduce_f(a, mapped),
                });
            }
            acc
        });
        partials.into_iter().flatten().reduce(&reduce_f)
    }
}

fn par_over<T: Send, R: Send>(
    parts: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|p| {
                let f = &f;
                scope.spawn(move || f(p))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("executor died")).collect()
    })
}

/// The miniature Spark engine.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    block: usize,
}

impl Engine {
    /// An engine with `workers` executors and 1000-row blocks for the
    /// BlockMatrix path (the paper's block size).
    pub fn new(workers: usize) -> Self {
        Engine::with_block(workers, 1000)
    }

    /// Explicit BlockMatrix block height.
    pub fn with_block(workers: usize, block: usize) -> Self {
        Engine { workers: workers.max(1), block: block.max(1) }
    }

    /// Vector-based Gram: `parsedData.map(x => xᵀ·x).reduce(zipped add)` —
    /// each combine allocates a fresh d² buffer, as the paper's code does.
    pub fn gram(&self, data: &WorkloadData) -> Matrix {
        let d = data.x.cols();
        let rows: Vec<Vec<f64>> =
            (0..data.x.rows()).map(|i| data.x.row(i).to_vec()).collect();
        let flat = Rdd::parallelize(rows, self.workers)
            .map_reduce(
                |row| {
                    // outer product, flattened row-major (a fresh boxed
                    // array per input row, like
                    // `x.transpose.multiply(x).toArray`)
                    let mut out = vec![0.0f64; d * d];
                    for (i, &a) in row.iter().enumerate() {
                        for (j, &b) in row.iter().enumerate() {
                            out[i * d + j] = a * b;
                        }
                    }
                    out
                },
                // `(a, b).zipped.map(_+_)`: allocates the combined array.
                |a, b| a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
            )
            .expect("nonempty data");
        Matrix::from_vec(d, d, flat).expect("consistent shape")
    }

    /// Vector-based least squares: map to (xxᵀ, x·y) pairs, allocating
    /// reduce, then a driver-side solve.
    pub fn linear_regression(&self, data: &WorkloadData) -> Vector {
        let d = data.x.cols();
        let rows: Vec<(Vec<f64>, f64)> = (0..data.x.rows())
            .map(|i| (data.x.row(i).to_vec(), data.y[i]))
            .collect();
        let (xtx, xty) = Rdd::parallelize(rows, self.workers)
            .map_reduce(
                |(row, y)| {
                    let mut m = vec![0.0f64; d * d];
                    let mut v = vec![0.0f64; d];
                    for (i, &a) in row.iter().enumerate() {
                        v[i] = a * y;
                        for (j, &b) in row.iter().enumerate() {
                            m[i * d + j] = a * b;
                        }
                    }
                    (m, v)
                },
                |(m1, v1), (m2, v2)| {
                    (
                        m1.iter().zip(&m2).map(|(a, b)| a + b).collect(),
                        v1.iter().zip(&v2).map(|(a, b)| a + b).collect(),
                    )
                },
            )
            .expect("nonempty data");
        let xtx = Matrix::from_vec(d, d, xtx).expect("consistent");
        let xty = Vector::from_vec(xty);
        CholeskyDecomposition::new(&xtx)
            .map(|c| c.solve(&xty).expect("aligned"))
            .unwrap_or_else(|_| xtx.solve(&xty).expect("nonsingular"))
    }

    /// BlockMatrix-based distance: `X · A · Xᵀ` over blocks (each block
    /// deep-copied across the simulated shuffle), then the paper's
    /// RDD-of-rows min/argmax epilogue.
    pub fn distance_argmax(&self, data: &WorkloadData) -> Vec<usize> {
        let n = data.x.rows();
        // Block X row-wise.
        let blocks: Vec<(usize, Matrix)> = split_ranges(n, n.div_ceil(self.block))
            .into_iter()
            .map(|r| {
                (r.start, data.x.submatrix(r.start, 0, r.len(), data.x.cols()).unwrap())
            })
            .collect();
        // W = X·A blockwise (shuffle: clone the block first).
        let w_blocks: Vec<(usize, Matrix)> =
            par_over(blocks.clone(), |(off, b)| {
                let shipped = b.clone(); // serialization stand-in
                (off, shipped.multiply(&data.a).expect("shapes"))
            });
        // dist = W · Xᵀ blockwise; emit (global row index, row) pairs like
        // `toIndexedRowMatrix.rows.map(...)`.
        let all_pairs: Vec<Vec<(usize, Vec<f64>)>> =
            par_over(w_blocks, |(row_off, wb)| {
                let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n]; wb.rows()];
                for (col_off, xb) in &blocks {
                    let shipped = xb.clone(); // shuffle copy again
                    let tile = wb.multiply(&shipped.transpose()).expect("dims");
                    for i in 0..tile.rows() {
                        rows[i][*col_off..*col_off + tile.cols()]
                            .copy_from_slice(tile.row(i));
                    }
                }
                rows.into_iter()
                    .enumerate()
                    .map(|(i, r)| (row_off + i, r))
                    .collect()
            });
        // The paper's epilogue: per row, mask the diagonal, take min; then
        // a driver-side max with ties.
        let indexed: Vec<(usize, Vec<f64>)> = all_pairs.into_iter().flatten().collect();
        let mins: Vec<(usize, f64)> = Rdd::parallelize(indexed, self.workers)
            .map(|(i, row)| {
                let m = row
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &v)| v)
                    .fold(f64::INFINITY, f64::min);
                (i, m)
            })
            .collect();
        let best = mins.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
        let mut winners: Vec<usize> =
            mins.into_iter().filter(|(_, v)| *v == best).map(|(i, _)| i).collect();
        winners.sort_unstable();
        winners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_x(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn rdd_map_reduce_basics() {
        let r = Rdd::parallelize((1..=10i64).collect(), 3);
        assert_eq!(r.num_partitions(), 3);
        assert_eq!(r.count(), 10);
        let sum = r.map(|x| x * 2).reduce(|a, b| a + b).unwrap();
        assert_eq!(sum, 110);
        let empty: Rdd<i64> = Rdd::parallelize(vec![], 4);
        assert_eq!(empty.reduce(|a, b| a + b), None);
    }

    #[test]
    fn pipelined_map_reduce_matches_materialized() {
        let items: Vec<i64> = (1..=50).collect();
        let a = Rdd::parallelize(items.clone(), 4).map(|x| x * x).reduce(|a, b| a + b);
        let b = Rdd::parallelize(items, 4).map_reduce(|x| x * x, |a, b| a + b);
        assert_eq!(a, b);
        let empty: Rdd<i64> = Rdd::parallelize(vec![], 3);
        assert_eq!(empty.map_reduce(|x| x, |a, b| a + b), None);
    }

    #[test]
    fn gram_matches_kernel() {
        let x = random_x(37, 6, 10);
        let got = Engine::new(4).gram(&WorkloadData::from_x(x.clone()));
        assert!(got.approx_eq(&x.gram(), 1e-9));
    }

    #[test]
    fn regression_recovers_beta() {
        let x = random_x(45, 4, 11);
        let beta = Vector::from_fn(4, |i| 0.5 * (i as f64) - 1.0);
        let y: Vec<f64> = (0..45)
            .map(|i| x.row_vector(i).unwrap().inner_product(&beta).unwrap())
            .collect();
        let data = WorkloadData { x, y, a: Matrix::identity(4) };
        let got = Engine::new(3).linear_regression(&data);
        assert!(got.approx_eq(&beta, 1e-8));
    }

    #[test]
    fn distance_agrees_with_other_baselines() {
        let n = 25;
        let d = 3;
        let x = random_x(n, d, 12);
        let b = random_x(d, d, 13);
        let a = b.multiply(&b.transpose()).unwrap();
        let data = WorkloadData { x, y: vec![], a };
        let spark = Engine::with_block(4, 6).distance_argmax(&data);
        let sysml = crate::systemml_like::Engine::new(4).distance_argmax(&data);
        assert_eq!(spark, sysml);
    }
}
