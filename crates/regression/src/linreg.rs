//! Ordinary least-squares multi-variable linear regression (Sec. III.C).
//!
//! The regression model is `y = X·β + ε` (Eq. 5) with the design matrix `X`
//! of polynomial power terms (Eq. 6). The fitted coefficients follow the
//! ordinary-least-squares criterion (Eq. 7), the solution of the normal
//! equation `β̂ = (XᵀX)⁻¹ Xᵀ y` (Eq. 8), computed without forming `XᵀX`:
//!
//! * [`fit_least_squares`] factors `X` itself by Householder QR, for any
//!   sample set;
//! * [`SeparableFit`] fits on the lattice [`DataGrid::refine`] builds from a
//!   pair of coarse axes. There `X` is the Kronecker product `A_V ⊗ A_C` of
//!   two 1-D monomial Vandermonde matrices and the refined targets are
//!   `R_V · Y · R_Cᵀ` for the coarse grid `Y` and the 1-D interpolation
//!   matrices `R`, so Eq. 8 is exactly `B = M_V · Y · M_Cᵀ` with
//!   `M = A⁺·R` per axis: two small 1-D least-squares problems, solved once
//!   per axis pair, and two matrix products per fit.

use crate::grid::{refine_axis, refine_matrix};
use crate::matrix::Matrix;
use crate::poly::PolyBasis;
use crate::solve::solve_qr_least_squares;
use crate::{DataGrid, RegressionError};

/// Builds the design matrix `X` of Eq. 6 for normalized samples `(v, c)`.
///
/// Row `k` contains the power terms `v_kⁱ c_kʲ` in basis order.
fn design_matrix(basis: &PolyBasis, samples: &[(f64, f64)]) -> Matrix {
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
/// normalized delay deviations `φ_D(d)`. The solve is a Householder-QR
/// factorization of the design matrix, which never squares its condition
/// number the way the Gram matrix `XᵀX` would.
///
/// # Errors
///
/// * [`RegressionError::DimensionMismatch`] if `samples.len() !=
///   targets.len()`.
/// * [`RegressionError::UnderDetermined`] if there are fewer samples than
///   coefficients.
/// * [`RegressionError::NonFiniteSample`] if any input is NaN/infinite.
/// * [`RegressionError::SingularMatrix`] if the design is column-rank
///   deficient.
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
    for (index, (&(v, c), &t)) in samples.iter().zip(targets).enumerate() {
        if !(v.is_finite() && c.is_finite() && t.is_finite()) {
            return Err(RegressionError::NonFiniteSample { index });
        }
    }
    solve_qr_least_squares(&design_matrix(basis, samples), targets)
}

/// [`fit_least_squares`] on the lattice `grid.refine(refine_factor)` of every
/// grid on one pair of coarse axes, as two axis operators built once:
/// `M_V = A_V⁺·R_V` and `M_C = A_C⁺·R_C`, where `A` is the monomial
/// Vandermonde matrix of the refined axis and `R` the linear interpolation
/// [`DataGrid::refine`] applies along it. [`SeparableFit::fit`] is then
/// `B = M_V · Y · M_Cᵀ` on the coarse values `Y`, whose row-major entries
/// are the coefficients in [`PolyBasis`] order.
///
/// # Example
///
/// ```
/// use avfs_regression::{DataGrid, PolyBasis, SeparableFit};
///
/// # fn main() -> Result<(), avfs_regression::RegressionError> {
/// let (xs, ys) = (vec![0.0, 0.3, 0.6, 1.0], vec![0.0, 0.5, 1.0]);
/// let grid = DataGrid::from_fn(xs.clone(), ys.clone(), |v, c| 1.0 + 2.0 * v - c)?;
/// let beta = SeparableFit::new(&PolyBasis::new(1), &xs, &ys, 4)?.fit(&grid)?;
/// for (b, t) in beta.iter().zip([1.0, -1.0, 2.0, 0.0]) {
///     assert!((b - t).abs() < 1e-12); // terms 1, c, v, v·c
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SeparableFit {
    /// `M_V`, `(N+1) × |xs|`.
    v: Matrix,
    /// `M_Cᵀ`, `|ys| × (N+1)`.
    c_transposed: Matrix,
}

impl SeparableFit {
    /// Builds the axis operators of `basis` for grids on the coarse axes
    /// `xs × ys` (strictly increasing, at least two points each) refined
    /// `refine_factor`-fold.
    ///
    /// # Errors
    ///
    /// * [`RegressionError::UnderDetermined`] if a refined axis has fewer
    ///   points than `N + 1`.
    /// * [`RegressionError::SingularMatrix`] if a refined axis' Vandermonde
    ///   matrix is numerically rank deficient.
    ///
    /// # Panics
    ///
    /// Panics if `refine_factor == 0` or an axis has fewer than two points.
    pub fn new(
        basis: &PolyBasis,
        xs: &[f64],
        ys: &[f64],
        refine_factor: usize,
    ) -> Result<Self, RegressionError> {
        Ok(SeparableFit {
            v: transposed_axis_operator(basis.order(), xs, refine_factor)?.transpose(),
            c_transposed: transposed_axis_operator(basis.order(), ys, refine_factor)?,
        })
    }

    /// The coefficients of `grid`, in [`PolyBasis`] order.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if `grid` does not
    /// have the axis lengths the operators were built for.
    pub fn fit(&self, grid: &DataGrid) -> Result<Vec<f64>, RegressionError> {
        let y = Matrix::from_vec(
            grid.xs().len(),
            grid.ys().len(),
            grid.samples().map(|(_, _, d)| d).collect(),
        )?;
        Ok(self.v.mul(&y)?.mul(&self.c_transposed)?.into_vec())
    }
}

/// `Mᵀ = (A⁺·R)ᵀ` of one axis: row `i` is the least-squares fit of the
/// order-`order` monomials to column `i` of the axis' interpolation matrix.
fn transposed_axis_operator(
    order: usize,
    axis: &[f64],
    factor: usize,
) -> Result<Matrix, RegressionError> {
    assert!(factor > 0, "refinement factor must be ≥ 1");
    let a = vandermonde(order, &refine_axis(axis, factor));
    let r_transposed = refine_matrix(axis, factor).transpose();
    let mut rows = Vec::with_capacity(axis.len() * (order + 1));
    for i in 0..axis.len() {
        rows.extend(solve_qr_least_squares(&a, r_transposed.row(i))?);
    }
    Matrix::from_vec(axis.len(), order + 1, rows)
}

/// The 1-D monomial design `A`: row `p` is `[1, x_p, …, x_pᴺ]`.
fn vandermonde(order: usize, points: &[f64]) -> Matrix {
    let width = order + 1;
    let mut data = Vec::with_capacity(points.len() * width);
    for &x in points {
        let mut power = 1.0;
        for _ in 0..width {
            data.push(power);
            power *= x;
        }
    }
    Matrix::from_vec(points.len(), width, data).expect("Vandermonde shape is consistent")
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

    /// `‖X·β − y‖₂²`, the quantity Eq. 7 minimizes.
    fn sum_squares(
        basis: &PolyBasis,
        beta: &[f64],
        samples: &[(f64, f64)],
        targets: &[f64],
    ) -> f64 {
        samples
            .iter()
            .zip(targets)
            .map(|(&(v, c), &t)| (basis.eval(beta, v, c).unwrap() - t).powi(2))
            .sum()
    }

    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `κ_F(A) = ‖A‖_F·‖A⁺‖_F` of the refined axis' Vandermonde matrix.
    fn condition(order: usize, axis: &[f64], factor: usize) -> f64 {
        let a = vandermonde(order, &refine_axis(axis, factor));
        let frobenius = |x: &[f64]| x.iter().map(|x| x * x).sum::<f64>();
        let pinv: f64 = (0..a.rows())
            .map(|p| {
                let mut unit = vec![0.0; a.rows()];
                unit[p] = 1.0;
                frobenius(&solve_qr_least_squares(&a, &unit).unwrap())
            })
            .sum();
        (frobenius(a.as_slice()) * pinv).sqrt()
    }

    /// A strictly increasing axis on `[0, 1]` with the given relative gaps.
    fn axis(gaps: &[f64]) -> Vec<f64> {
        let total: f64 = gaps.iter().sum();
        let mut x = 0.0;
        std::iter::once(0.0)
            .chain(gaps.iter().map(|g| {
                x += g;
                x / total
            }))
            .collect()
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

    #[test]
    fn separable_fit_rejects_a_grid_on_other_axes() {
        let (xs, ys) = (vec![0.0, 0.5, 1.0], vec![0.0, 1.0]);
        let fit = SeparableFit::new(&PolyBasis::new(1), &xs, &ys, 2).unwrap();
        let other = DataGrid::from_fn(ys.clone(), xs.clone(), |v, c| v + c).unwrap();
        assert!(matches!(
            fit.fit(&other),
            Err(RegressionError::DimensionMismatch { .. })
        ));
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
        let rms = (sum_squares(&basis, &beta, &samples, &targets) / samples.len() as f64).sqrt();
        assert!(rms < 2e-3);
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
            let mut next = uniform(seed);
            let truth: Vec<f64> = (0..basis.len()).map(|_| next() - 0.5).collect();
            let samples = lattice(2 * n + 3, 2 * n + 3);
            let targets: Vec<f64> = samples
                .iter()
                .map(|&(v, c)| basis.eval(&truth, v, c).unwrap())
                .collect();
            let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
            // The monomial design is badly conditioned at higher orders, so
            // compare in function space (what the delay kernel consumes)
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
            let mut next = uniform(seed);
            let targets: Vec<f64> = samples
                .iter()
                .map(|&(v, c)| v - c + 0.1 * (next() - 0.5))
                .collect();
            let beta = fit_least_squares(&basis, &samples, &targets).unwrap();
            let base = sum_squares(&basis, &beta, &samples, &targets);
            let mut perturbed = beta.clone();
            perturbed[coeff_idx] += delta;
            let worse = sum_squares(&basis, &perturbed, &samples, &targets);
            prop_assert!(base <= worse + 1e-12);
        }

        // The separable product is Eq. 8 on the refined lattice: the QR fit
        // of the full design agrees with it, and an axis too short for the
        // order is a typed error, not a panic. The QR oracle is itself only
        // accurate to about κ(X)·ε relative (ε = f64::EPSILON), with
        // κ(A_V ⊗ A_C) = κ(A_V)·κ(A_C): far below 1e-9 up to N = 3 (κ·ε at
        // most 1.1e-11 over these axes), up to 3e-8 at N = 5, so the bound
        // is 1e-9 or 64·κ·ε, whichever is larger.
        #[test]
        fn separable_fit_is_the_least_squares_fit_of_the_refined_lattice(
            v_gaps in prop::collection::vec(0.05f64..1.0, 2..=13),
            c_gaps in prop::collection::vec(0.05f64..1.0, 2..=13),
            n in 1usize..=5,
            factor in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let (xs, ys) = (axis(&v_gaps), axis(&c_gaps));
            let basis = PolyBasis::new(n);
            let mut next = uniform(seed);
            let grid = DataGrid::from_fn(xs.clone(), ys.clone(), |_, _| 2.0 * next() - 1.0).unwrap();
            let separable = SeparableFit::new(&basis, &xs, &ys, factor);
            let refined = grid.refine(factor);
            if refined.xs().len().min(refined.ys().len()) < n + 1 {
                prop_assert!(
                    matches!(separable, Err(RegressionError::UnderDetermined { .. })),
                    "{separable:?}"
                );
            } else {
                let samples: Vec<(f64, f64)> = refined.samples().map(|(v, c, _)| (v, c)).collect();
                let targets: Vec<f64> = refined.samples().map(|(_, _, d)| d).collect();
                let want = fit_least_squares(&basis, &samples, &targets).unwrap();
                let got = separable.unwrap().fit(&grid).unwrap();
                let scale = want.iter().fold(0.0f64, |m, b| m.max(b.abs()));
                let kappa = condition(n, &xs, factor) * condition(n, &ys, factor);
                let tolerance = 1e-9f64.max(64.0 * f64::EPSILON * kappa);
                prop_assert_eq!(got.len(), want.len());
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        (g - w).abs() <= tolerance * scale,
                        "β[{k}]: separable {g:e} vs QR {w:e} (max |β| {scale:e}, κ {kappa:e})"
                    );
                }
            }
        }
    }
}
