//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The least-squares workload (Figure 2) solves the normal equations
//! `(XᵀX)·β = Xᵀy`; `XᵀX` is symmetric positive (semi-)definite, so a
//! Cholesky solve is both faster and more numerically stable than a general
//! LU inverse. The comparator baselines solve with it; the SQL `solve` and
//! `matrix_inverse` built-ins are LU ([`crate::lu`]) for every input.

use crate::error::{LaError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factorizes a symmetric positive-definite matrix. Fails with
    /// [`LaError::Singular`] when a diagonal pivot is not strictly positive
    /// (i.e. the matrix is not PD to working precision) and
    /// [`LaError::NotSquare`] for rectangular input. Symmetry is assumed —
    /// only the lower triangle of `a` is read.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LaError::NotSquare { op: "cholesky", shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.get(i, j).expect("validated shape");
                for k in 0..j {
                    s -= l.as_slice()[i * n + k] * l.as_slice()[j * n + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LaError::Singular { op: "cholesky" });
                    }
                    l.as_mut_slice()[i * n + j] = s.sqrt();
                } else {
                    l.as_mut_slice()[i * n + j] = s / l.as_slice()[j * n + j];
                }
            }
        }
        Ok(CholeskyDecomposition { l })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LaError::DimMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let l = self.l.as_slice();
        let mut x = b.as_slice().to_vec();
        // Forward: L·y = b.
        for i in 0..n {
            let mut s = x[i];
            for k in 0..i {
                s -= l[i * n + k] * x[k];
            }
            x[i] = s / l[i * n + i];
        }
        // Back: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * x[k];
            }
            x[i] = s / l[i * n + i];
        }
        Ok(Vector::from_vec(x))
    }

    /// log-determinant of the original matrix: `2·Σ log L[i][i]`. Stable for
    /// the large covariance matrices the distance workload builds.
    pub fn log_determinant(&self) -> f64 {
        let n = self.dim();
        2.0 * (0..n).map(|i| self.l.as_slice()[i * n + i].ln()).sum::<f64>()
    }
}

/// True when `a` is symmetric within absolute tolerance `tol`.
pub fn is_symmetric(a: &Matrix, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            if (a.as_slice()[i * n + j] - a.as_slice()[j * n + i]).abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // B·Bᵀ + n·I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let bbt = b.multiply(&b.transpose()).unwrap();
        bbt.add(&Matrix::identity(n).scalar_mul(n as f64)).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(6);
        let c = CholeskyDecomposition::new(&a).unwrap();
        let l = c.factor();
        let back = l.multiply(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-9));
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd(7);
        let b = Vector::from_fn(7, |i| i as f64 - 3.0);
        let x_chol = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = a.solve(&b).unwrap();
        assert!(x_chol.approx_eq(&x_lu, 1e-8));
    }

    #[test]
    fn non_pd_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(CholeskyDecomposition::new(&a), Err(LaError::Singular { .. })));
    }

    #[test]
    fn rectangular_rejected() {
        assert!(CholeskyDecomposition::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn log_determinant_matches_lu_determinant() {
        let a = spd(4);
        let ld = CholeskyDecomposition::new(&a).unwrap().log_determinant();
        let det = a.determinant().unwrap();
        assert!((ld - det.ln()).abs() < 1e-8);
    }

    #[test]
    fn symmetry_check() {
        assert!(is_symmetric(&spd(4), 1e-12));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(!is_symmetric(&asym, 1e-12));
        assert!(!is_symmetric(&Matrix::zeros(2, 3), 1e-12));
    }

    #[test]
    fn one_by_one_spd() {
        let a = Matrix::from_rows(&[&[4.0]]).unwrap();
        let c = CholeskyDecomposition::new(&a).unwrap();
        assert_eq!(c.factor().get(0, 0).unwrap(), 2.0);
        assert_eq!(c.solve(&Vector::from_slice(&[8.0])).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn zero_matrix_rejected() {
        assert!(CholeskyDecomposition::new(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn solve_dim_mismatch() {
        let c = CholeskyDecomposition::new(&spd(3)).unwrap();
        assert!(c.solve(&Vector::zeros(4)).is_err());
    }
}
