//! Row-major dense matrix.
//!
//! The embedding matrices `W_in`, `W_out` of the skip-gram model and the
//! generator weights are all dense `|V| x r` or `r x r` matrices whose rows
//! are accessed far more often than their columns, so a row-major layout with
//! cheap `&[f64]` row views is the natural representation.

use crate::error::LinalgError;
use crate::vector;

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a closure mapping `(row, col)` to a value.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix that takes ownership of `data` (row-major).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i)[j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.row_mut(i)[j] = v;
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Fills the matrix with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Matrix-vector product `self * x` (x is a column vector of length `cols`).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok(self.rows_iter().map(|r| vector::dot(r, x)).collect())
    }

    /// Vector-matrix product `x^T * self` (x has length `rows`); returns a
    /// vector of length `cols`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "vecmat",
                lhs: (1, x.len()),
                rhs: (self.rows, self.cols),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (xi, row) in x.iter().zip(self.rows_iter()) {
            vector::axpy(*xi, row, &mut out);
        }
        Ok(out)
    }

    /// Matrix product `self * other`.
    ///
    /// A straightforward ikj-ordered triple loop; all matrices in this
    /// workspace are small (`r x r` with r <= 256), so cache blocking is not
    /// worth the complexity.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                let o_row = out.row_mut(i);
                vector::axpy(aik, b_row, o_row);
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Rank-1 update `self += alpha * x * y^T`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn rank1_update(&mut self, alpha: f64, x: &[f64], y: &[f64]) -> Result<(), LinalgError> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "rank1_update",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), y.len()),
            });
        }
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vector::axpy(alpha * xi, y, self.row_mut(i));
            }
        }
        Ok(())
    }

    /// Element-wise `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        vector::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i3 = DenseMatrix::identity(3);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_rejects_bad_shape() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let x = vec![2.0, -1.0];
        let a = m.vecmat(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_small_example() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_right() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let c = a.matmul(&DenseMatrix::identity(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(2, 4, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn rank1_update_outer_product() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.rank1_update(2.0, &[1.0, 3.0], &[4.0, 5.0]).unwrap();
        assert_eq!(m.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
    }

    #[test]
    fn axpy_matrices() {
        let mut a = DenseMatrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 2, vec![10.0, 20.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        DenseMatrix::zeros(1, 1).row(1);
    }
}
