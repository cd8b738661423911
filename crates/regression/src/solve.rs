//! Direct solvers for the small dense systems arising in cell
//! characterization.
//!
//! The normal-equation matrix `XᵀX` is symmetric positive definite whenever
//! the design matrix has full column rank, so a Cholesky factorization is the
//! workhorse. A Householder-QR least-squares path is provided as a more
//! robust fallback for ill-conditioned sweeps (high polynomial orders on
//! nearly collinear grids), and an LU solver with partial pivoting covers
//! general square systems.

use crate::{Matrix, RegressionError};

/// Solves `A·x = b` for symmetric positive definite `A` via Cholesky
/// factorization (`A = L·Lᵀ`).
///
/// # Errors
///
/// Returns [`RegressionError::SingularMatrix`] if `A` is not positive
/// definite (a non-positive pivot is encountered), and
/// [`RegressionError::DimensionMismatch`] if `A` is not square or `b` has
/// the wrong length.
pub fn solve_cholesky(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, RegressionError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(RegressionError::DimensionMismatch {
            context: "solve_cholesky",
            left: (a.rows(), a.cols()),
            right: (b.len(), 1),
        });
    }
    Ok(solve_factored(&cholesky_factor(a)?, b))
}

/// Solves `L·Lᵀ·x = b` for a lower-triangular Cholesky factor `L` (from
/// [`cholesky_factor`]) by forward then back substitution.
///
/// # Panics
///
/// Panics if `b` has fewer entries than `L` has rows.
pub(crate) fn solve_factored(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // Forward substitution: L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * y[j];
        }
        y[i] = s / l[(i, i)];
    }
    // Back substitution: Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in i + 1..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// Computes the lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Errors
///
/// Returns [`RegressionError::SingularMatrix`] if a pivot is not strictly
/// positive (within a small tolerance relative to the matrix scale).
pub fn cholesky_factor(a: &Matrix) -> Result<Matrix, RegressionError> {
    let n = a.rows();
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let tol = scale * 1e-13;
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= tol {
                    return Err(RegressionError::SingularMatrix { pivot: i });
                }
                l[(i, i)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves the square system `A·x = b` by LU decomposition with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`RegressionError::SingularMatrix`] if no usable pivot exists,
/// and [`RegressionError::DimensionMismatch`] for shape errors.
pub fn solve_lu(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, RegressionError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(RegressionError::DimensionMismatch {
            context: "solve_lu",
            left: (a.rows(), a.cols()),
            right: (b.len(), 1),
        });
    }
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let tol = scale * 1e-15;
    for col in 0..n {
        // Partial pivoting: pick the largest remaining entry in this column.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, lu[(r, col)].abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty pivot range");
        if pivot_val <= tol {
            return Err(RegressionError::SingularMatrix { pivot: col });
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = lu[(col, j)];
                lu[(col, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        let inv_pivot = 1.0 / lu[(col, col)];
        for r in col + 1..n {
            let factor = lu[(r, col)] * inv_pivot;
            lu[(r, col)] = factor;
            if factor == 0.0 {
                continue;
            }
            for j in col + 1..n {
                lu[(r, j)] -= factor * lu[(col, j)];
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution on U.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s / lu[(i, i)];
    }
    Ok(x)
}

/// Solves the (possibly over-determined) least-squares problem
/// `min ‖A·x − b‖₂` via Householder QR factorization.
///
/// This avoids squaring the condition number the way the normal equation
/// does, at roughly twice the arithmetic cost — the robust fallback for
/// high polynomial orders.
///
/// # Errors
///
/// Returns [`RegressionError::UnderDetermined`] if `A` has fewer rows than
/// columns, [`RegressionError::SingularMatrix`] if `A` is column-rank
/// deficient, and [`RegressionError::DimensionMismatch`] for shape errors.
pub fn solve_qr_least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, RegressionError> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m {
        return Err(RegressionError::DimensionMismatch {
            context: "solve_qr_least_squares",
            left: (m, n),
            right: (b.len(), 1),
        });
    }
    if m < n {
        return Err(RegressionError::UnderDetermined {
            samples: m,
            unknowns: n,
        });
    }
    let mut r = a.clone();
    let mut rhs: Vec<f64> = b.to_vec();
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let tol = scale * 1e-13;
    // Apply n Householder reflections in place, updating rhs alongside.
    for k in 0..n {
        let mut norm = 0.0f64;
        for i in k..m {
            norm = r[(i, k)].hypot(norm);
        }
        if norm <= tol {
            return Err(RegressionError::SingularMatrix { pivot: k });
        }
        let alpha = if r[(k, k)] > 0.0 { -norm } else { norm };
        // Householder vector v = x − α·e_k, stored temporarily.
        let mut v = vec![0.0; m - k];
        v[0] = r[(k, k)] - alpha;
        for i in k + 1..m {
            v[i - k] = r[(i, k)];
        }
        let vtv: f64 = v.iter().map(|x| x * x).sum();
        if vtv <= tol * tol {
            // Column already triangular below the diagonal.
            continue;
        }
        let beta = 2.0 / vtv;
        // Reflect the remaining columns of R.
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r[(i, j)];
            }
            let f = beta * dot;
            for i in k..m {
                r[(i, j)] -= f * v[i - k];
            }
        }
        // Reflect the right-hand side.
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * rhs[i];
        }
        let f = beta * dot;
        for i in k..m {
            rhs[i] -= f * v[i - k];
        }
    }
    // Back substitution on the upper-triangular leading n×n block.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = rhs[i];
        for j in i + 1..n {
            s -= r[(i, j)] * x[j];
        }
        if r[(i, i)].abs() <= tol {
            return Err(RegressionError::SingularMatrix { pivot: i });
        }
        x[i] = s / r[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "element {i}: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]] (SPD), b = [10, 8] → x = [1.75, 1.5]
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = solve_cholesky(&a, &[10.0, 8.0]).unwrap();
        assert_vec_close(&x, &[1.75, 1.5], 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            solve_cholesky(&a, &[1.0, 1.0]),
            Err(RegressionError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn cholesky_factor_reconstructs() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let l = cholesky_factor(&a).unwrap();
        let rec = l.mul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn lu_solves_general_system() {
        // Requires pivoting: first pivot is 0.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 1.0], &[2.0, 0.0, -1.0]]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.mul_vec(&x_true).unwrap();
        let x = solve_lu(&a, &b).unwrap();
        assert_vec_close(&x, &x_true, 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            solve_lu(&a, &[1.0, 2.0]),
            Err(RegressionError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let x_true = vec![2.0, -1.0];
        let b = a.mul_vec(&x_true).unwrap();
        let x = solve_qr_least_squares(&a, &b).unwrap();
        assert_vec_close(&x, &x_true, 1e-12);
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Fit y = 2t + 1 from 4 noiseless points: exact recovery.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = solve_qr_least_squares(&a, &b).unwrap();
        assert_vec_close(&x, &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn qr_least_squares_minimizes_residual() {
        // Inconsistent system: residual of LS solution must not exceed the
        // residual of nearby perturbed candidates.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let b = [0.0, 1.0, 1.0];
        let x = solve_qr_least_squares(&a, &b).unwrap();
        let res = |x: &[f64]| -> f64 {
            let ax = a.mul_vec(x).unwrap();
            ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum()
        };
        let base = res(&x);
        for d in [-1e-3, 1e-3] {
            assert!(base <= res(&[x[0] + d, x[1]]) + 1e-15);
            assert!(base <= res(&[x[0], x[1] + d]) + 1e-15);
        }
    }

    #[test]
    fn qr_rejects_underdetermined() {
        let a = Matrix::zeros(1, 2);
        assert!(matches!(
            solve_qr_least_squares(&a, &[1.0]),
            Err(RegressionError::UnderDetermined { .. })
        ));
    }

    #[test]
    fn qr_rejects_rank_deficient() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(matches!(
            solve_qr_least_squares(&a, &[1.0, 2.0, 3.0]),
            Err(RegressionError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn cholesky_and_qr_agree_on_normal_equation() {
        // Random-ish tall system; both paths must give the same LS solution.
        let a = Matrix::from_rows(&[
            &[1.0, 0.5, 0.25],
            &[1.0, 1.5, 2.25],
            &[1.0, 2.5, 6.25],
            &[1.0, 3.5, 12.25],
            &[1.0, 4.5, 20.25],
        ]);
        let b = [1.0, 2.0, 2.5, 3.5, 5.5];
        let x_qr = solve_qr_least_squares(&a, &b).unwrap();
        let g = a.gram();
        let rhs = a.transpose_mul_vec(&b).unwrap();
        let x_chol = solve_cholesky(&g, &rhs).unwrap();
        assert_vec_close(&x_qr, &x_chol, 1e-9);
    }
}
