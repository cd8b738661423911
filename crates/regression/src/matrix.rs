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
/// # fn main() -> Result<(), avfs_regression::RegressionError> {
/// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// # Ok(())
/// # }
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

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    #[cfg(test)]
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
    #[cfg(test)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix into its row-major storage.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
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
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
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
    #[cfg(test)]
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
    fn zeros() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
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
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
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
    fn max_abs() {
        let m = Matrix::from_rows(&[&[1.0, -7.5], &[3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.5);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }
}
