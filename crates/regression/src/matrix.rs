//! Minimal dense row-major matrix used by the regression pipeline.
//!
//! The matrices involved in cell characterization are tiny (the design
//! matrix is `m × (N+1)²` with `m` a few thousand samples and `N ≤ 5`), so a
//! straightforward row-major `Vec<f64>` with cache-friendly loop ordering is
//! entirely sufficient — no external linear-algebra crate is needed.

use crate::RegressionError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use avfs_regression::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                ncols,
                "row {i} has length {} but expected {ncols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if `data.len() !=
    /// rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, RegressionError> {
        if data.len() != rows * cols {
            return Err(RegressionError::DimensionMismatch {
                context: "Matrix::from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if the inner
    /// dimensions disagree.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, RegressionError> {
        if self.cols != rhs.rows {
            return Err(RegressionError::DimensionMismatch {
                context: "Matrix::mul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj ordering keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if `v.len() !=
    /// self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, RegressionError> {
        if self.cols != v.len() {
            return Err(RegressionError::DimensionMismatch {
                context: "Matrix::mul_vec",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(0.0, |acc, (&a, &b)| a * b + acc)
            })
            .collect())
    }

    /// Computes `Xᵀ · X` for `X = self` without forming the transpose.
    ///
    /// This is the Gram matrix of the normal equation (Eq. 8); it is
    /// symmetric positive semi-definite by construction.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                let g_row = g.row_mut(i);
                for (j, &b) in row.iter().enumerate().skip(i) {
                    g_row[j] += a * b;
                }
            }
        }
        // Mirror the upper triangle into the lower one.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Computes `Xᵀ · y` for `X = self`.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if `y.len() !=
    /// self.rows()`.
    pub fn transpose_mul_vec(&self, y: &[f64]) -> Result<Vec<f64>, RegressionError> {
        if self.rows != y.len() {
            return Err(RegressionError::DimensionMismatch {
                context: "Matrix::transpose_mul_vec",
                left: (self.rows, self.cols),
                right: (y.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x * yr;
            }
        }
        Ok(out)
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(RegressionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(RegressionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 9.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = vec![10.0, 20.0];
        assert_eq!(a.mul_vec(&v).unwrap(), vec![50.0, 110.0]);
    }

    #[test]
    fn gram_matches_explicit_transpose_mul() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, -1.0, 2.0], &[0.0, 4.0, 1.0]]);
        let g = x.gram();
        let explicit = x.transpose().mul(&x).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_mul_vec_matches_explicit() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 4.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let xty = x.transpose_mul_vec(&y).unwrap();
        let explicit = x.transpose().mul_vec(&y).unwrap();
        assert_eq!(xty, explicit);
    }

    #[test]
    fn max_abs() {
        let m = Matrix::from_rows(&[&[1.0, -7.5], &[3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.5);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }
}
