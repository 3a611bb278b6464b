//! Dense `f64` vectors with the paper's implicit integer label.

use crate::error::{LaError, Result};
use crate::matrix::Matrix;
use crate::DEFAULT_LABEL;

/// A dense vector of `f64` entries.
///
/// Per the paper (§3.1) each element of a `VECTOR` is a double, there is no
/// row/column distinction (interpretation is up to each operation), and every
/// vector carries an implicit integer *label* (§3.3) used by the `ROWMATRIX`
/// and `COLMATRIX` aggregates to place the vector inside a matrix. A label
/// that was never set is [`DEFAULT_LABEL`] (−1).
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
    label: i64,
}

impl Vector {
    /// Creates a zero vector with `len` entries.
    pub fn zeros(len: usize) -> Self {
        Vector { data: vec![0.0; len], label: DEFAULT_LABEL }
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Vector { data: vec![1.0; len], label: DEFAULT_LABEL }
    }

    /// Creates a vector with every entry set to `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector { data: vec![value; len], label: DEFAULT_LABEL }
    }

    /// Builds a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector { data: values.to_vec(), label: DEFAULT_LABEL }
    }

    /// Builds a vector by taking ownership of `values`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Vector { data: values, label: DEFAULT_LABEL }
    }

    /// Builds a vector from a generating function over indices.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector { data: (0..len).map(f).collect(), label: DEFAULT_LABEL }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns its backing storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The vector's label (§3.3). Defaults to −1 when never set.
    #[inline]
    pub fn label(&self) -> i64 {
        self.label
    }

    /// Returns a copy of this vector carrying `label` — the kernel-level
    /// realization of the paper's `label_vector` built-in.
    pub fn with_label(&self, label: i64) -> Self {
        Vector { data: self.data.clone(), label }
    }

    /// Sets the label in place.
    pub fn set_label(&mut self, label: i64) {
        self.label = label;
    }

    /// Entry access with bounds checking — the `get_scalar` built-in.
    pub fn get(&self, i: usize) -> Result<f64> {
        self.data.get(i).copied().ok_or(LaError::OutOfBounds {
            op: "get_scalar",
            index: (i, 0),
            shape: (self.data.len(), 1),
        })
    }

    /// Sets entry `i`, with bounds checking.
    pub fn set(&mut self, i: usize, value: f64) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(i) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => {
                Err(LaError::OutOfBounds { op: "set_scalar", index: (i, 0), shape: (len, 1) })
            }
        }
    }

    fn check_same_len(&self, other: &Vector, op: &'static str) -> Result<()> {
        if self.len() != other.len() {
            return Err(LaError::DimMismatch {
                op,
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(())
    }

    /// Element-wise addition (`+` in the SQL extension).
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "vector_add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "vector_sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) multiplication.
    pub fn mul(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "vector_mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Element-wise division.
    pub fn div(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len(other, "vector_div")?;
        Ok(self.zip_with(other, |a, b| a / b))
    }

    fn zip_with(&self, other: &Vector, f: impl Fn(f64, f64) -> f64) -> Vector {
        let data =
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Vector { data, label: self.label }
    }

    /// Applies `scalar OP entry` for every entry — scalar broadcasting as in
    /// §3.2 ("arithmetic between a scalar value and a ... VECTOR type
    /// performs the arithmetic operation between the scalar and every
    /// entry").
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector { data: self.data.iter().map(|&x| f(x)).collect(), label: self.label }
    }

    /// Adds `s` to every entry.
    pub fn scalar_add(&self, s: f64) -> Vector {
        self.map(|x| x + s)
    }

    /// Subtracts `s` from every entry.
    pub fn scalar_sub(&self, s: f64) -> Vector {
        self.map(|x| x - s)
    }

    /// Multiplies every entry by `s`.
    pub fn scalar_mul(&self, s: f64) -> Vector {
        self.map(|x| x * s)
    }

    /// Divides every entry by `s`.
    pub fn scalar_div(&self, s: f64) -> Vector {
        self.map(|x| x / s)
    }

    /// `self + alpha * other`, fused; the classic BLAS `axpy` used by the
    /// aggregation paths to avoid a temporary per added vector.
    pub fn axpy_in_place(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        self.check_same_len(other, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place element-wise addition; used by the `SUM` aggregate so the
    /// accumulator does not allocate per input row.
    pub fn add_in_place(&mut self, other: &Vector) -> Result<()> {
        self.check_same_len(other, "vector_sum")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place element-wise minimum (the `MIN` aggregate over vectors).
    pub fn min_in_place(&mut self, other: &Vector) -> Result<()> {
        self.check_same_len(other, "vector_min")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = a.min(b);
        }
        Ok(())
    }

    /// In-place element-wise maximum (the `MAX` aggregate over vectors).
    pub fn max_in_place(&mut self, other: &Vector) -> Result<()> {
        self.check_same_len(other, "vector_max")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = a.max(b);
        }
        Ok(())
    }

    /// Dot product — the `inner_product` built-in.
    pub fn inner_product(&self, other: &Vector) -> Result<f64> {
        self.check_same_len(other, "inner_product")?;
        // Accumulate in four lanes so the compiler can keep independent
        // dependency chains in flight (see the perf-book guidance on
        // reduction loops).
        let mut acc = [0.0f64; 4];
        let chunks = self.data.chunks_exact(4).zip(other.data.chunks_exact(4));
        for (a, b) in chunks {
            acc[0] += a[0] * b[0];
            acc[1] += a[1] * b[1];
            acc[2] += a[2] * b[2];
            acc[3] += a[3] * b[3];
        }
        let rem = self.data.len() - self.data.len() % 4;
        let mut tail = 0.0;
        for i in rem..self.data.len() {
            tail += self.data[i] * other.data[i];
        }
        Ok(acc[0] + acc[1] + acc[2] + acc[3] + tail)
    }

    /// Outer product `self · otherᵀ` — the `outer_product` built-in.
    pub fn outer_product(&self, other: &Vector) -> Matrix {
        let mut m = Matrix::zeros(self.len(), other.len());
        for (i, &a) in self.data.iter().enumerate() {
            let row = m.row_mut(i);
            for (slot, &b) in row.iter_mut().zip(other.data.iter()) {
                *slot = a * b;
            }
        }
        m
    }

    /// Accumulates `self * otherᵀ` into an existing matrix; the hot path of
    /// the vector-based Gram-matrix aggregation (Figure 1).
    pub fn outer_product_into(&self, other: &Vector, out: &mut Matrix) -> Result<()> {
        if out.rows() != self.len() || out.cols() != other.len() {
            return Err(LaError::DimMismatch {
                op: "outer_product_into",
                lhs: (self.len(), other.len()),
                rhs: (out.rows(), out.cols()),
            });
        }
        for (i, &a) in self.data.iter().enumerate() {
            let row = out.row_mut(i);
            for (slot, &b) in row.iter_mut().zip(other.data.iter()) {
                *slot += a * b;
            }
        }
        Ok(())
    }

    /// Euclidean norm — the `norm2` built-in.
    pub fn norm2(&self) -> f64 {
        self.inner_product(self).expect("same vector").sqrt()
    }

    /// Sum of all entries.
    pub fn sum_elements(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Smallest entry; `NaN` entries are ignored. Returns `f64::INFINITY`
    /// for an empty vector.
    pub fn min_element(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest entry; returns `f64::NEG_INFINITY` for an empty vector.
    pub fn max_element(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the smallest entry (first occurrence), or `None` if empty.
    pub fn argmin(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Index of the largest entry (first occurrence), or `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Row-vector × matrix — the `vector_matrix_multiply` built-in.
    pub fn vector_matrix_multiply(&self, m: &Matrix) -> Result<Vector> {
        if self.len() != m.rows() {
            return Err(LaError::DimMismatch {
                op: "vector_matrix_multiply",
                lhs: (1, self.len()),
                rhs: (m.rows(), m.cols()),
            });
        }
        Ok(self.combine_rows(m))
    }

    /// `Σᵢ m[i] · self[i]`, the rows of `m` weighted by this vector's
    /// entries: each output element accumulates its terms in ascending `i`
    /// from `0.0`, every term included (`0 × inf = NaN` whatever the
    /// density of `self`), each an IEEE multiply then an IEEE add with the
    /// matrix entry on the left. That is, bit for bit, `mᵀ × self` as
    /// [`Matrix::matrix_vector_multiply`] computes it on the transpose.
    pub(crate) fn combine_rows(&self, m: &Matrix) -> Vector {
        let mut out = vec![0.0; m.cols()];
        for (i, &a) in self.data.iter().enumerate() {
            for (o, &w) in out.iter_mut().zip(m.row(i)) {
                *o += w * a;
            }
        }
        Vector::from_vec(out)
    }

    /// Reinterprets the vector as a 1×n matrix (used when a programmer wants
    /// explicit row-vector semantics, §3.1).
    pub fn to_row_matrix(&self) -> Matrix {
        Matrix::from_vec(1, self.len(), self.data.clone()).expect("consistent shape")
    }

    /// Reinterprets the vector as an n×1 matrix.
    pub fn to_col_matrix(&self) -> Matrix {
        Matrix::from_vec(self.len(), 1, self.data.clone()).expect("consistent shape")
    }

    /// Approximate equality with absolute tolerance `tol`; test helper.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Size in bytes of the payload; used by the planner's cost model and by
    /// the exchange operators' shuffle accounting.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>() + std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(Vector::filled(2, 7.0).as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn default_label_is_minus_one() {
        assert_eq!(Vector::zeros(4).label(), -1);
    }

    #[test]
    fn with_label_sets_label_and_preserves_data() {
        let v = Vector::from_slice(&[1.0, 2.0]).with_label(42);
        assert_eq!(v.label(), 42);
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn elementwise_dim_mismatch() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(a.add(&b), Err(LaError::DimMismatch { .. })));
    }

    #[test]
    fn scalar_broadcast() {
        let a = Vector::from_slice(&[2.0, 4.0]);
        assert_eq!(a.scalar_add(1.0).as_slice(), &[3.0, 5.0]);
        assert_eq!(a.scalar_mul(0.5).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.scalar_sub(2.0).as_slice(), &[0.0, 2.0]);
        assert_eq!(a.scalar_div(2.0).as_slice(), &[1.0, 2.0]);
    }

    /// `inner_product`'s order, spelled out: four lane accumulators over
    /// the whole chunks of four, a tail over the rest, then
    /// `acc0 + acc1 + acc2 + acc3 + tail` left to right — one IEEE
    /// multiply then one add per term, no FMA.
    fn spelled_out_inner_product(a: &[f64], b: &[f64]) -> f64 {
        let whole = a.len() / 4 * 4;
        let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for k in (0..whole).step_by(4) {
            acc0 += a[k] * b[k];
            acc1 += a[k + 1] * b[k + 1];
            acc2 += a[k + 2] * b[k + 2];
            acc3 += a[k + 3] * b[k + 3];
        }
        let mut tail = 0.0f64;
        for i in whole..a.len() {
            tail += a[i] * b[i];
        }
        (((acc0 + acc1) + acc2) + acc3) + tail
    }

    /// Deterministic xorshift data in [-4, 4).
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

    /// `background` with `specials` planted from `start` at a stride of 3.
    fn planted(mut background: Vec<f64>, start: usize, specials: &[f64]) -> Vec<f64> {
        let slots = background.iter_mut().skip(start).step_by(3);
        for (slot, &v) in slots.zip(specials.iter().cycle()) {
            *slot = v;
        }
        background
    }

    /// The kernel's bits are the spelled-out order's bits, over lengths
    /// either side of every tail width and long vectors, with NaN, signed
    /// zeros, infinities and subnormals planted. NaN and the infinities
    /// are planted apart so that every NaN a case meets has one payload.
    #[test]
    fn inner_product_order_is_pinned_bit_for_bit() {
        let sub = f64::MIN_POSITIVE / 3.0;
        let classes: [(&str, &[f64], &[f64]); 4] = [
            ("plain", &[], &[]),
            ("nan/zeros", &[f64::NAN, -0.0, 0.0], &[-0.0, f64::NAN]),
            ("infinities", &[f64::INFINITY, 0.0, f64::NEG_INFINITY], &[f64::NEG_INFINITY, 1.0]),
            ("subnormals", &[sub, -5e-324, -0.0], &[5e-324, -sub, f64::MIN_POSITIVE]),
        ];
        for len in (0..=9).chain([100, 1000]) {
            for (class, in_a, in_b) in classes {
                let a = planted(xorshift(7 + len as u64, len), 0, in_a);
                let b = planted(xorshift(13 + len as u64, len), 1, in_b);
                let want = spelled_out_inner_product(&a, &b);
                let got = Vector::from_slice(&a)
                    .inner_product(&Vector::from_slice(&b))
                    .unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} {class}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn inner_product_dim_mismatch() {
        assert!(Vector::zeros(2).inner_product(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn outer_product_shape_and_values() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0, 5.0]);
        let m = a.outer_product(&b);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn outer_product_into_accumulates() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let mut acc = Matrix::zeros(2, 2);
        a.outer_product_into(&a, &mut acc).unwrap();
        a.outer_product_into(&a, &mut acc).unwrap();
        assert_eq!(acc.get(1, 1).unwrap(), 8.0);
    }

    #[test]
    fn min_max_arg() {
        let v = Vector::from_slice(&[3.0, -1.0, 7.0, 0.0]);
        assert_eq!(v.min_element(), -1.0);
        assert_eq!(v.max_element(), 7.0);
        assert_eq!(v.argmin(), Some(1));
        assert_eq!(v.argmax(), Some(2));
        assert_eq!(Vector::zeros(0).argmin(), None);
    }

    #[test]
    fn axpy_and_sum_in_place() {
        let mut acc = Vector::zeros(3);
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        acc.add_in_place(&v).unwrap();
        acc.axpy_in_place(2.0, &v).unwrap();
        assert_eq!(acc.as_slice(), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn min_max_in_place() {
        let mut lo = Vector::from_slice(&[1.0, 5.0]);
        let mut hi = Vector::from_slice(&[1.0, 5.0]);
        let v = Vector::from_slice(&[2.0, 2.0]);
        lo.min_in_place(&v).unwrap();
        hi.max_in_place(&v).unwrap();
        assert_eq!(lo.as_slice(), &[1.0, 2.0]);
        assert_eq!(hi.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn get_set_bounds() {
        let mut v = Vector::zeros(2);
        v.set(1, 9.0).unwrap();
        assert_eq!(v.get(1).unwrap(), 9.0);
        assert!(v.get(2).is_err());
        assert!(v.set(5, 0.0).is_err());
    }

    #[test]
    fn vector_matrix_multiply_works() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let m = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
        let out = v.vector_matrix_multiply(&m).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0]);
        assert!(Vector::zeros(3).vector_matrix_multiply(&m).is_err());
    }

    #[test]
    fn vector_matrix_multiply_keeps_non_finite_terms_at_zero_weights() {
        // `0 × inf` and `0 × NaN` are NaN: a zero entry of the vector may
        // not drop its matrix row, or the answer would depend on density.
        let v = Vector::from_slice(&[0.0, 2.0, -0.0]);
        let m = Matrix::from_rows(&[
            &[f64::INFINITY, 1.0, f64::NAN],
            &[1.0, 2.0, 3.0],
            &[4.0, f64::NEG_INFINITY, 5.0],
        ])
        .unwrap();
        let out = v.vector_matrix_multiply(&m).unwrap();
        assert!(out.as_slice().iter().all(|x| x.is_nan()), "{:?}", out.as_slice());
        let finite = Vector::from_slice(&[0.0, 2.0, 0.0]);
        let m = Matrix::from_rows(&[&[1.0, -1.0], &[3.0, 0.5], &[f64::NAN, 2.0]]).unwrap();
        let out = finite.vector_matrix_multiply(&m).unwrap();
        assert!(out.as_slice()[0].is_nan());
        assert_eq!(out.as_slice()[1], 1.0);
    }

    #[test]
    fn row_col_matrix_views() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let r = v.to_row_matrix();
        let c = v.to_col_matrix();
        assert_eq!((r.rows(), r.cols()), (1, 3));
        assert_eq!((c.rows(), c.cols()), (3, 1));
        assert_eq!(c.get(2, 0).unwrap(), 3.0);
    }

    #[test]
    fn byte_size_counts_payload() {
        assert_eq!(Vector::zeros(10).byte_size(), 10 * 8 + 8);
    }

    #[test]
    fn norm2_of_three_four() {
        let v = Vector::from_slice(&[3.0, 4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-12);
    }
}
