//! Ordinary least-squares multi-variable linear regression (Sec. III.C).
//!
//! The regression model is `y = X·β + ε` (Eq. 5) with the design matrix `X`
//! of polynomial power terms (Eq. 6). The fitted coefficients follow the
//! ordinary-least-squares criterion (Eq. 7), obtained by solving the normal
//! equation `β̂ = (XᵀX)⁻¹ Xᵀ y` (Eq. 8) via Cholesky factorization of the
//! Gram matrix, with a Householder-QR fallback when `XᵀX` is numerically
//! indefinite.
//!
//! `X` and the factorization depend only on the sample positions, so a
//! [`LeastSquaresPlan`] builds them once and fits any number of target
//! vectors over the same samples — every arc of a characterization call
//! shares one refined lattice.

use crate::matrix::Matrix;
use crate::poly::PolyBasis;
use crate::solve::{cholesky_factor, solve_factored, solve_qr_least_squares};
use crate::RegressionError;

/// Builds the design matrix `X` of Eq. 6 for normalized samples `(v, c)`.
///
/// Row `k` contains the power terms `v_kⁱ c_kʲ` in basis order.
pub fn design_matrix(basis: &PolyBasis, samples: &[(f64, f64)]) -> Matrix {
    let cols = basis.len();
    let mut data = Vec::with_capacity(samples.len() * cols);
    for &(v, c) in samples {
        basis.write_features(v, c, &mut data);
    }
    Matrix::from_vec(samples.len(), cols, data).expect("design matrix shape is consistent")
}

/// Fits polynomial coefficients `β̂` to samples by ordinary least squares.
///
/// `samples` are the normalized `(v, c)` predictor pairs and `targets` the
/// normalized delay deviations `φ_D(d)`. Solving goes through the normal
/// equation with Cholesky (the paper's Eq. 8); if the Gram matrix is too
/// ill-conditioned to factorize, the solver transparently falls back to a
/// Householder-QR least-squares factorization of `X` itself.
///
/// # Errors
///
/// * [`RegressionError::DimensionMismatch`] if `samples.len() !=
///   targets.len()`.
/// * [`RegressionError::UnderDetermined`] if there are fewer samples than
///   coefficients.
/// * [`RegressionError::NonFiniteSample`] if any input is NaN/infinite.
/// * [`RegressionError::SingularMatrix`] if even the QR fallback cannot
///   determine the coefficients (rank-deficient design).
///
/// # Example
///
/// ```
/// use avfs_regression::{PolyBasis, fit_least_squares};
///
/// # fn main() -> Result<(), avfs_regression::RegressionError> {
/// let basis = PolyBasis::new(2);
/// let truth = [0.1, -0.2, 0.05, 0.3, 0.0, 0.01, -0.15, 0.02, 0.002];
/// let mut samples = Vec::new();
/// let mut targets = Vec::new();
/// for i in 0..8 {
///     for j in 0..8 {
///         let (v, c) = (i as f64 / 7.0, j as f64 / 7.0);
///         samples.push((v, c));
///         targets.push(basis.eval(&truth, v, c)?);
///     }
/// }
/// let beta = fit_least_squares(&basis, &samples, &targets)?;
/// for (b, t) in beta.iter().zip(&truth) {
///     assert!((b - t).abs() < 1e-8);
/// }
/// # Ok(())
/// # }
/// ```
pub fn fit_least_squares(
    basis: &PolyBasis,
    samples: &[(f64, f64)],
    targets: &[f64],
) -> Result<Vec<f64>, RegressionError> {
    if samples.len() != targets.len() {
        return Err(RegressionError::DimensionMismatch {
            context: "fit_least_squares",
            left: (samples.len(), 2),
            right: (targets.len(), 1),
        });
    }
    LeastSquaresPlan::new(basis, samples)?.fit(targets)
}

/// The least-squares system of one sample set, factored once: the design
/// matrix `X` and the Cholesky factor of `XᵀX`, or — when `XᵀX` is too
/// ill-conditioned to factorize — `X` alone for the Householder-QR
/// fallback. [`LeastSquaresPlan::fit`] then costs one `Xᵀ·y` and two
/// triangular solves per target vector, and returns what
/// [`fit_least_squares`] returns for the same samples, bit for bit.
#[derive(Debug, Clone)]
pub struct LeastSquaresPlan {
    x: Matrix,
    /// `L` with `XᵀX = L·Lᵀ`; `None` selects the QR fallback.
    factor: Option<Matrix>,
}

impl LeastSquaresPlan {
    /// Validates `samples` (normalized `(v, c)` pairs) and factors their
    /// system under `basis`.
    ///
    /// # Errors
    ///
    /// * [`RegressionError::UnderDetermined`] if there are fewer samples
    ///   than coefficients.
    /// * [`RegressionError::NonFiniteSample`] if a sample is NaN/infinite.
    pub fn new(basis: &PolyBasis, samples: &[(f64, f64)]) -> Result<Self, RegressionError> {
        if samples.len() < basis.len() {
            return Err(RegressionError::UnderDetermined {
                samples: samples.len(),
                unknowns: basis.len(),
            });
        }
        for (k, &(v, c)) in samples.iter().enumerate() {
            if !v.is_finite() || !c.is_finite() {
                return Err(RegressionError::NonFiniteSample { index: k });
            }
        }
        let x = design_matrix(basis, samples);
        let factor = match cholesky_factor(&x.gram()) {
            Ok(l) => Some(l),
            // Ill-conditioned normal equation: fit on the un-squared
            // problem instead.
            Err(RegressionError::SingularMatrix { .. }) => None,
            Err(e) => return Err(e),
        };
        Ok(LeastSquaresPlan { x, factor })
    }

    /// Fits the coefficients `β̂` of one target vector, in sample order.
    ///
    /// # Errors
    ///
    /// * [`RegressionError::DimensionMismatch`] if `targets` does not hold
    ///   one value per sample.
    /// * [`RegressionError::NonFiniteSample`] if a target is NaN/infinite.
    /// * [`RegressionError::SingularMatrix`] if even the QR fallback cannot
    ///   determine the coefficients (rank-deficient design).
    pub fn fit(&self, targets: &[f64]) -> Result<Vec<f64>, RegressionError> {
        if targets.len() != self.x.rows() {
            return Err(RegressionError::DimensionMismatch {
                context: "LeastSquaresPlan::fit",
                left: (self.x.rows(), 2),
                right: (targets.len(), 1),
            });
        }
        if let Some(k) = targets.iter().position(|t| !t.is_finite()) {
            return Err(RegressionError::NonFiniteSample { index: k });
        }
        match &self.factor {
            Some(l) => Ok(solve_factored(l, &self.x.transpose_mul_vec(targets)?)),
            None => solve_qr_least_squares(&self.x, targets),
        }
    }
}

/// The fitted-model residual summary `ε = y − X·β̂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualSummary {
    /// Sum of squared residuals `‖ε‖₂²` (the quantity Eq. 7 minimizes).
    pub sum_squares: f64,
    /// Maximum absolute residual.
    pub max_abs: f64,
    /// Root-mean-square residual.
    pub rms: f64,
}

/// Computes residual statistics of a fit over its training samples.
///
/// # Errors
///
/// Returns [`RegressionError::DimensionMismatch`] if the coefficient count
/// does not match the basis or the sample/target lengths differ.
pub fn residuals(
    basis: &PolyBasis,
    beta: &[f64],
    samples: &[(f64, f64)],
    targets: &[f64],
) -> Result<ResidualSummary, RegressionError> {
    if samples.len() != targets.len() {
        return Err(RegressionError::DimensionMismatch {
            context: "residuals",
            left: (samples.len(), 2),
            right: (targets.len(), 1),
        });
    }
    let mut sum_squares = 0.0;
    let mut max_abs = 0.0f64;
    for (&(v, c), &t) in samples.iter().zip(targets) {
        let r = basis.eval(beta, v, c)? - t;
        sum_squares += r * r;
        max_abs = max_abs.max(r.abs());
    }
    let rms = if samples.is_empty() {
        0.0
    } else {
        (sum_squares / samples.len() as f64).sqrt()
    };
    Ok(ResidualSummary {
        sum_squares,
        max_abs,
        rms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lattice(nx: usize, ny: usize) -> Vec<(f64, f64)> {
        let mut s = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                s.push((i as f64 / (nx - 1) as f64, j as f64 / (ny - 1) as f64));
            }
        }
        s
    }

    #[test]
    fn design_matrix_layout() {
        let basis = PolyBasis::new(1);
        let x = design_matrix(&basis, &[(2.0, 3.0), (0.5, 4.0)]);
        assert_eq!(x.rows(), 2);
        assert_eq!(x.cols(), 4);
        assert_eq!(x.row(0), &[1.0, 3.0, 2.0, 6.0]);
        assert_eq!(x.row(1), &[1.0, 4.0, 0.5, 2.0]);
    }

    #[test]
    fn recovers_exact_polynomial() {
        let basis = PolyBasis::new(3);
        let truth: Vec<f64> = (0..16).map(|k| 0.01 * (k as f64 - 7.5)).collect();
        let samples = lattice(9, 9);
        let targets: Vec<f64> = samples
            .iter()
            .map(|&(v, c)| basis.eval(&truth, v, c).unwrap())
            .collect();
        let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
        for (b, t) in beta.iter().zip(&truth) {
            assert!((b - t).abs() < 1e-8, "{b} vs {t}");
        }
    }

    #[test]
    fn rejects_underdetermined() {
        let basis = PolyBasis::new(3); // 16 unknowns
        let samples = lattice(3, 3); // 9 samples
        let targets = vec![0.0; 9];
        assert!(matches!(
            fit_least_squares(&basis, &samples, &targets),
            Err(RegressionError::UnderDetermined { .. })
        ));
    }

    #[test]
    fn rejects_len_mismatch() {
        let basis = PolyBasis::new(1);
        assert!(matches!(
            fit_least_squares(&basis, &lattice(3, 3), &[0.0; 8]),
            Err(RegressionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let basis = PolyBasis::new(1);
        let mut targets = vec![0.0; 9];
        targets[4] = f64::NAN;
        assert!(matches!(
            fit_least_squares(&basis, &lattice(3, 3), &targets),
            Err(RegressionError::NonFiniteSample { index: 4 })
        ));
    }

    /// `targets` under the plan and one-shot, bit for bit.
    fn assert_plan_matches_one_shot(basis: &PolyBasis, samples: &[(f64, f64)], targets: &[f64]) {
        let plan = LeastSquaresPlan::new(basis, samples).unwrap();
        let bits = |beta: Vec<f64>| beta.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(plan.fit(targets).unwrap()),
            bits(fit_least_squares(basis, samples, targets).unwrap())
        );
    }

    #[test]
    fn one_plan_fits_every_target_as_the_one_shot_fit_does() {
        let basis = PolyBasis::new(3);
        let samples = lattice(37, 37);
        let plan = LeastSquaresPlan::new(&basis, &samples).unwrap();
        assert!(plan.factor.is_some(), "a well-posed lattice factors");
        for seed in 1..6u64 {
            let targets: Vec<f64> = samples
                .iter()
                .map(|&(v, c)| ((seed as f64) * v).sin() + c * c / seed as f64)
                .collect();
            assert_plan_matches_one_shot(&basis, &samples, &targets);
        }
        assert!(matches!(
            plan.fit(&[0.0; 3]),
            Err(RegressionError::DimensionMismatch { .. })
        ));
        let mut nan = vec![0.0; samples.len()];
        nan[17] = f64::NAN;
        assert!(matches!(
            plan.fit(&nan),
            Err(RegressionError::NonFiniteSample { index: 17 })
        ));
    }

    #[test]
    fn a_plan_that_cannot_factor_falls_back_to_qr_per_fit() {
        // Order 2 on a lattice squeezed near the origin: the v²c² column is
        // so small that XᵀX loses definiteness, while X keeps full column
        // rank.
        let basis = PolyBasis::new(2);
        let samples: Vec<(f64, f64)> = lattice(12, 12)
            .into_iter()
            .map(|(v, c)| (1e-2 * v, 1e-2 * c))
            .collect();
        let plan = LeastSquaresPlan::new(&basis, &samples).unwrap();
        assert!(plan.factor.is_none(), "the Gram matrix must not factor");
        let targets: Vec<f64> = samples.iter().map(|&(v, c)| 1.0 + v - 2.0 * c).collect();
        assert_plan_matches_one_shot(&basis, &samples, &targets);
    }

    #[test]
    fn noisy_fit_beats_naive_constant() {
        // With symmetric deterministic "noise", OLS should approximate the
        // underlying linear trend far better than a constant model.
        let basis = PolyBasis::new(1);
        let samples = lattice(16, 16);
        let targets: Vec<f64> = samples
            .iter()
            .enumerate()
            .map(|(k, &(v, c))| 0.5 * v - 0.25 * c + if k % 2 == 0 { 1e-3 } else { -1e-3 })
            .collect();
        let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
        assert!((beta[2] - 0.5).abs() < 1e-2); // v coefficient
        assert!((beta[1] + 0.25).abs() < 1e-2); // c coefficient
        let res = residuals(&basis, &beta, &samples, &targets).unwrap();
        assert!(res.rms < 2e-3);
    }

    #[test]
    fn residuals_zero_for_exact_fit() {
        let basis = PolyBasis::new(2);
        let truth = [0.1; 9];
        let samples = lattice(5, 5);
        let targets: Vec<f64> = samples
            .iter()
            .map(|&(v, c)| basis.eval(&truth, v, c).unwrap())
            .collect();
        let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
        let res = residuals(&basis, &beta, &samples, &targets).unwrap();
        assert!(res.max_abs < 1e-9);
        assert!(res.sum_squares < 1e-18);
    }

    proptest! {
        // Planted-polynomial recovery: whatever the coefficients, an exact
        // polynomial sampled on a dense enough lattice must be recovered.
        #[test]
        fn recovers_planted_polynomial(
            n in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let basis = PolyBasis::new(n);
            let mut state = seed | 1;
            let truth: Vec<f64> = (0..basis.len())
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                })
                .collect();
            let samples = lattice(2 * n + 3, 2 * n + 3);
            let targets: Vec<f64> = samples
                .iter()
                .map(|&(v, c)| basis.eval(&truth, v, c).unwrap())
                .collect();
            let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
            // The monomial Gram matrix is badly conditioned at higher orders,
            // so compare in function space (what the delay kernel consumes)
            // rather than coefficient space.
            for (&(v, c), &t) in samples.iter().zip(&targets) {
                let p = basis.eval(&beta, v, c).unwrap();
                prop_assert!((p - t).abs() < 1e-7 * (1.0 + t.abs()), "{p} vs {t}");
            }
        }

        // OLS optimality: perturbing any single fitted coefficient must not
        // reduce the sum of squared residuals.
        #[test]
        fn fit_is_least_squares_optimal(
            seed in any::<u64>(),
            coeff_idx in 0usize..4,
            delta in prop::sample::select(vec![-1e-3f64, 1e-3]),
        ) {
            let basis = PolyBasis::new(1);
            let samples = lattice(6, 6);
            let mut state = seed | 1;
            let targets: Vec<f64> = samples
                .iter()
                .map(|&(v, c)| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let noise = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                    v - c + 0.1 * noise
                })
                .collect();
            let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
            let base = residuals(&basis, &beta, &samples, &targets).unwrap().sum_squares;
            let mut perturbed = beta.clone();
            perturbed[coeff_idx] += delta;
            let worse = residuals(&basis, &perturbed, &samples, &targets).unwrap().sum_squares;
            prop_assert!(base <= worse + 1e-12);
        }
    }
}
