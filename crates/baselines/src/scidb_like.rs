//! A miniature SciDB: chunked dense arrays with AQL-shaped operators.
//!
//! SciDB partitions arrays into chunks (the paper used chunk size 1000 for
//! every array) and executes `gemm`, `filter` and grouped aggregates over
//! chunks. The three workloads below follow the paper's AQL programs
//! operator by operator: the Gram matrix is
//! `gemm(transpose(x), x, build(...))`, and the distance computation is the
//! five-statement AQL pipeline from §5 (`mxt`, `all_distance` with the
//! `t1<>t2` filter, grouped `min`, global `max`, and the final join-select).

use lardb_la::{CholeskyDecomposition, Matrix, Vector};

use crate::WorkloadData;

/// A dense 2-D array stored as row-chunks of fixed height.
#[derive(Debug, Clone)]
pub struct ChunkedArray {
    chunk: usize,
    cols: usize,
    chunks: Vec<Matrix>,
}

impl ChunkedArray {
    /// Chunks a dense matrix (row-wise) with chunk height `chunk`.
    pub fn from_dense(m: &Matrix, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        let mut chunks = Vec::new();
        let mut r = 0;
        while r < m.rows() {
            let h = chunk.min(m.rows() - r);
            chunks.push(m.submatrix(r, 0, h, m.cols()).expect("in range"));
            r += h;
        }
        ChunkedArray { chunk, cols: m.cols(), chunks }
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(Matrix::rows).sum()
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Chunk height.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// The chunks.
    pub fn chunks(&self) -> &[Matrix] {
        &self.chunks
    }

    /// Reassembles the dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let refs: Vec<&Matrix> = self.chunks.iter().collect();
        Matrix::vstack(&refs).expect("uniform width")
    }
}

/// The miniature SciDB engine.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    chunk: usize,
}

impl Engine {
    /// An engine with `workers` workers and the paper's default chunk size
    /// of 1000.
    pub fn new(workers: usize) -> Self {
        Engine::with_chunk(workers, 1000)
    }

    /// An engine with an explicit chunk size.
    pub fn with_chunk(workers: usize, chunk: usize) -> Self {
        Engine { workers: workers.max(1), chunk: chunk.max(1) }
    }

    /// `SELECT * FROM gemm(transpose(x), x, build(<val>[...], 0))`.
    pub fn gram(&self, data: &WorkloadData) -> Matrix {
        let x = ChunkedArray::from_dense(&data.x, self.chunk);
        // gemm over chunks: Σ_c chunkᵀ · chunk, chunk-parallel.
        let partials = self.par_map(x.chunks.clone(), |c| c.gram());
        partials
            .into_iter()
            .reduce(|mut a, b| {
                a.add_in_place(&b).expect("same shape");
                a
            })
            .expect("nonempty array")
    }

    /// Least squares through two gemm calls and a solve, as the paper's
    /// "linear regression is similar" AQL would do.
    pub fn linear_regression(&self, data: &WorkloadData) -> Vector {
        let x = ChunkedArray::from_dense(&data.x, self.chunk);
        let y = &data.y;
        let mut offsets = Vec::with_capacity(x.chunks.len());
        let mut off = 0;
        for c in &x.chunks {
            offsets.push(off);
            off += c.rows();
        }
        let work: Vec<(Matrix, usize)> =
            x.chunks.iter().cloned().zip(offsets).collect();
        let partials = self.par_map(work, |(c, off)| {
            let xtx = c.gram();
            let yv = Vector::from_slice(&y[off..off + c.rows()]);
            let xty = yv.vector_matrix_multiply(&c).expect("aligned");
            (xtx, xty)
        });
        let (xtx, xty) = partials
            .into_iter()
            .reduce(|(mut a, mut b), (a2, b2)| {
                a.add_in_place(&a2).expect("same shape");
                b.add_in_place(&b2).expect("same shape");
                (a, b)
            })
            .expect("nonempty");
        CholeskyDecomposition::new(&xtx)
            .map(|ch| ch.solve(&xty).expect("aligned"))
            .unwrap_or_else(|_| xtx.solve(&xty).expect("nonsingular"))
    }

    /// The paper's five-statement AQL distance pipeline:
    ///
    /// ```text
    /// mxt          := gemm(m, transpose(x))
    /// all_distance := filter(gemm(x, mxt), t1 <> t2)
    /// distance     := min(all_distance) GROUP BY t1
    /// max_dist     := max(distance.min)
    /// result       := SELECT t1 WHERE distance.min = max_dist
    /// ```
    pub fn distance_argmax(&self, data: &WorkloadData) -> Vec<usize> {
        let x = ChunkedArray::from_dense(&data.x, self.chunk);
        let n = x.rows();
        // mxt = A · Xᵀ, materialized column-chunk-wise: (d × n).
        let mxt = {
            let parts = self.par_map(x.chunks.clone(), |c| {
                data.a.multiply(&c.transpose()).expect("shapes")
            });
            // horizontal concat == vstack of transposes, but we only ever
            // read it as per-chunk column groups, so keep the pieces.
            parts
        };
        // all_distance chunks: for each row-chunk i of X and piece j of mxt,
        // gemm gives a (chunk × chunk) tile; grouped min per row with the
        // t1<>t2 filter skipping the diagonal tile's diagonal.
        let mut offsets = Vec::new();
        let mut off = 0;
        for c in &x.chunks {
            offsets.push(off);
            off += c.rows();
        }
        let work: Vec<(usize, Matrix)> =
            offsets.iter().copied().zip(x.chunks.iter().cloned()).collect();
        let mins: Vec<Vec<f64>> = self.par_map(work, |(row_off, xc)| {
            let mut row_min = vec![f64::INFINITY; xc.rows()];
            for (j, piece) in mxt.iter().enumerate() {
                let col_off = offsets[j];
                let tile = xc.multiply(piece).expect("inner dims");
                for (i, best) in row_min.iter_mut().enumerate().take(tile.rows()) {
                    let global_i = row_off + i;
                    for (jj, &v) in tile.row(i).iter().enumerate() {
                        if col_off + jj == global_i {
                            continue; // the t1 <> t2 filter
                        }
                        if v < *best {
                            *best = v;
                        }
                    }
                }
            }
            row_min
        });
        let min_dist: Vec<f64> = mins.into_iter().flatten().collect();
        let best = min_dist.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (0..n).filter(|&i| min_dist[i] == best).collect()
    }

    fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if items.len() <= 1 || self.workers == 1 {
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
    fn chunking_roundtrip() {
        let m = random_x(23, 4, 0);
        let c = ChunkedArray::from_dense(&m, 5);
        assert_eq!(c.chunks().len(), 5);
        assert_eq!(c.rows(), 23);
        assert!(c.to_dense().approx_eq(&m, 0.0));
    }

    #[test]
    fn gram_matches_kernel_across_chunk_sizes() {
        let x = random_x(41, 5, 1);
        for chunk in [1, 7, 41, 1000] {
            let e = Engine::with_chunk(4, chunk);
            let got = e.gram(&WorkloadData::from_x(x.clone()));
            assert!(got.approx_eq(&x.gram(), 1e-9), "chunk={chunk}");
        }
    }

    #[test]
    fn regression_recovers_beta() {
        let x = random_x(50, 4, 2);
        let beta = Vector::from_fn(4, |i| 1.0 - i as f64);
        let y: Vec<f64> = (0..50)
            .map(|i| x.row_vector(i).unwrap().inner_product(&beta).unwrap())
            .collect();
        let data = WorkloadData { x, y, a: Matrix::identity(4) };
        let got = Engine::with_chunk(3, 9).linear_regression(&data);
        assert!(got.approx_eq(&beta, 1e-8));
    }

    #[test]
    fn distance_matches_systemml_miniature() {
        let n = 30;
        let d = 3;
        let x = random_x(n, d, 3);
        let b = random_x(d, d, 4);
        let a = b.multiply(&b.transpose()).unwrap();
        let data = WorkloadData { x, y: vec![], a };
        let scidb = Engine::with_chunk(4, 7).distance_argmax(&data);
        let sysml = crate::systemml_like::Engine::new(4).distance_argmax(&data);
        assert_eq!(scidb, sysml);
    }
}
