//! The least-squares solver of the regression substrate.
//!
//! Householder QR factors the design matrix itself, so the solve never
//! squares its condition number the way the Gram matrix `XᵀX` of the
//! normal equation (Eq. 8) would.

use crate::{Matrix, RegressionError};

/// Solves the (possibly over-determined) least-squares problem
/// `min ‖A·x − b‖₂` via Householder QR factorization.
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
}
