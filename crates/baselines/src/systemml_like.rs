//! A miniature SystemML: block-partitioned matrices with fused block
//! map/reduce execution.
//!
//! SystemML V0.9 stores matrices as square blocks and compiles DML scripts
//! like `result = t(X) %*% X` into block-parallel MapReduce (or in-memory)
//! jobs. This module executes the paper's three DML programs the same way:
//! the data matrix is split into row panels, each worker computes a
//! partial result over its panels, and partials are reduced on the driver.
//! There is no relational machinery at all — which is exactly why this
//! baseline is fast at high dimensionality and why beating or matching it
//! with a *relational* engine is the paper's headline.

use lardb_la::{CholeskyDecomposition, Matrix, Vector};

use crate::{split_ranges, WorkloadData};

/// Strip height used when materializing slices of the n×n distance matrix
/// (`all_dist` in the paper's DML) so memory stays bounded.
const DIST_STRIP: usize = 256;

/// The miniature SystemML engine.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// An engine with `workers` parallel workers.
    pub fn new(workers: usize) -> Self {
        Engine { workers: workers.max(1) }
    }

    /// `result = t(X) %*% X` — the paper's one-line Gram DML.
    pub fn gram(&self, data: &WorkloadData) -> Matrix {
        let x = &data.x;
        let panels = split_ranges(x.rows(), self.workers);
        let partials = self.par_map(panels, |range| {
            x.submatrix(range.start, 0, range.len(), x.cols())
                .expect("panel in range")
                .gram()
        });
        reduce_add(partials)
    }

    /// `beta = solve(t(X) %*% X, t(X) %*% y)` — least squares via the
    /// normal equations, Cholesky-solved as SystemML's `solve` does for
    /// SPD systems.
    pub fn linear_regression(&self, data: &WorkloadData) -> Vector {
        let x = &data.x;
        let y = &data.y;
        assert_eq!(x.rows(), y.len(), "X and y must align");
        let panels = split_ranges(x.rows(), self.workers);
        let partials = self.par_map(panels, |range| {
            let panel = x
                .submatrix(range.start, 0, range.len(), x.cols())
                .expect("panel in range");
            let xtx = panel.gram();
            let yv = Vector::from_slice(&y[range.start..range.end]);
            let xty = yv.vector_matrix_multiply(&panel).expect("aligned");
            (xtx, xty)
        });
        let (xtx, xty) = partials
            .into_iter()
            .reduce(|(mut a, mut b), (a2, b2)| {
                a.add_in_place(&a2).expect("same shape");
                b.add_in_place(&b2).expect("same shape");
                (a, b)
            })
            .expect("at least one panel");
        CholeskyDecomposition::new(&xtx)
            .map(|c| c.solve(&xty).expect("aligned"))
            .unwrap_or_else(|_| xtx.solve(&xty).expect("nonsingular"))
    }

    /// The paper's distance DML:
    ///
    /// ```text
    /// all_dist = X %*% m %*% X_t
    /// all_dist = all_dist + diag(diag_inf)
    /// min_dist = rowMins(all_dist)
    /// result = rowIndexMax(t(min_dist))
    /// ```
    ///
    /// Returns every index achieving the maximum (ties included).
    pub fn distance_argmax(&self, data: &WorkloadData) -> Vec<usize> {
        let x = &data.x;
        let n = x.rows();
        // W = X %*% m (n × d), panel-parallel.
        let w = {
            let panels = split_ranges(n, self.workers);
            let parts = self.par_map(panels, |range| {
                x.submatrix(range.start, 0, range.len(), x.cols())
                    .expect("panel")
                    .multiply(&data.a)
                    .expect("shapes checked by caller")
            });
            let refs: Vec<&Matrix> = parts.iter().collect();
            Matrix::vstack(&refs).expect("uniform width")
        };
        let xt = x.transpose();
        // all_dist strips: rowMins per strip with +inf on the diagonal.
        let strip_starts: Vec<usize> = (0..n).step_by(DIST_STRIP).collect();
        let mins: Vec<Vec<f64>> = self.par_map(strip_starts, |s0| {
            let height = DIST_STRIP.min(n - s0);
            let strip = w
                .submatrix(s0, 0, height, w.cols())
                .expect("strip")
                .multiply(&xt)
                .expect("inner dims");
            (0..height)
                .map(|i| {
                    let row = strip.row(i);
                    let self_idx = s0 + i;
                    row.iter()
                        .enumerate()
                        .filter(|(j, _)| *j != self_idx)
                        .map(|(_, &v)| v)
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        });
        let min_dist: Vec<f64> = mins.into_iter().flatten().collect();
        let best = min_dist.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (0..n).filter(|&i| min_dist[i] == best).collect()
    }

    /// Parallel map over work items using scoped worker threads.
    fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .into_iter()
                .map(|item| {
                    let f = &f;
                    scope.spawn(move || f(item))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        })
    }
}

fn reduce_add(parts: Vec<Matrix>) -> Matrix {
    parts
        .into_iter()
        .reduce(|mut a, b| {
            a.add_in_place(&b).expect("same shape");
            a
        })
        .expect("at least one partial")
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
    fn gram_matches_kernel() {
        let x = random_x(57, 6, 1);
        let e = Engine::new(4);
        let got = e.gram(&WorkloadData::from_x(x.clone()));
        assert!(got.approx_eq(&x.gram(), 1e-9));
    }

    #[test]
    fn gram_single_worker_same_as_many() {
        let x = random_x(23, 4, 2);
        let a = Engine::new(1).gram(&WorkloadData::from_x(x.clone()));
        let b = Engine::new(7).gram(&WorkloadData::from_x(x));
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn regression_recovers_beta() {
        let x = random_x(60, 5, 3);
        let beta = Vector::from_fn(5, |i| (i as f64) - 2.0);
        let y: Vec<f64> = (0..60)
            .map(|i| x.row_vector(i).unwrap().inner_product(&beta).unwrap())
            .collect();
        let data = WorkloadData { x, y, a: Matrix::identity(5) };
        let got = Engine::new(3).linear_regression(&data);
        assert!(got.approx_eq(&beta, 1e-8));
    }

    #[test]
    fn distance_matches_bruteforce() {
        let n = 40;
        let d = 3;
        let x = random_x(n, d, 4);
        let b = random_x(d, d, 5);
        let a = b.multiply(&b.transpose()).unwrap(); // symmetric
        let data = WorkloadData { x: x.clone(), y: vec![], a: a.clone() };
        let got = Engine::new(4).distance_argmax(&data);

        // brute force
        let mut mins = vec![f64::INFINITY; n];
        for (i, min) in mins.iter_mut().enumerate() {
            let axi = a.matrix_vector_multiply(&x.row_vector(i).unwrap()).unwrap();
            for j in 0..n {
                if i != j {
                    let v = x.row_vector(j).unwrap().inner_product(&axi).unwrap();
                    // d(i, j) as X·A·Xᵀ entry (i, j): row i of X·A times col j
                    // of Xᵀ — same as x_j · (A·x_i) because A is symmetric.
                    *min = min.min(v);
                }
            }
        }
        let best = mins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let expected: Vec<usize> = (0..n).filter(|&i| mins[i] == best).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn distance_strips_handle_small_n() {
        // n far below the strip height.
        let x = random_x(5, 2, 9);
        let data = WorkloadData::from_x(x);
        let got = Engine::new(2).distance_argmax(&data);
        assert_eq!(got.len(), 1);
    }
}
