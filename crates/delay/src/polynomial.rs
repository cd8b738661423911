//! Compiled delay-deviation surfaces (paper Eq. 4, evaluated as the GPU
//! delay kernel of Sec. IV).

use crate::op::NormalizedPoint;
use crate::DelayError;
use avfs_regression::poly::{eval_horner, PolyBasis};

/// A bivariate polynomial surface `f(v, c)` over normalized coordinates,
/// represented by its `(N+1)²` coefficients in Eq. 6 order.
///
/// # Example
///
/// ```
/// use avfs_delay::{SurfacePolynomial, NormalizedPoint};
///
/// # fn main() -> Result<(), avfs_delay::DelayError> {
/// // f(v, c) = 0.2 − 0.3·v (voltage-only linear deviation)
/// let poly = SurfacePolynomial::new(1, vec![0.2, 0.0, -0.3, 0.0])?;
/// let f = poly.eval(NormalizedPoint { v: 0.5, c: 0.7 });
/// assert!((f - 0.05).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePolynomial {
    order: usize,
    coeffs: Vec<f64>,
}

impl SurfacePolynomial {
    /// Creates a surface from per-variable order `N` and `(N+1)²`
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::BadCoefficients`] on a length mismatch.
    pub fn new(order: usize, coeffs: Vec<f64>) -> Result<SurfacePolynomial, DelayError> {
        let expected = (order + 1) * (order + 1);
        if coeffs.len() != expected {
            return Err(DelayError::BadCoefficients {
                expected,
                got: coeffs.len(),
            });
        }
        Ok(SurfacePolynomial { order, coeffs })
    }

    /// The zero surface (no deviation at any operating point).
    pub fn zero(order: usize) -> SurfacePolynomial {
        SurfacePolynomial {
            order,
            coeffs: vec![0.0; (order + 1) * (order + 1)],
        }
    }

    /// Per-variable order `N`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The coefficients in Eq. 6 order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The matching regression basis.
    pub fn basis(&self) -> PolyBasis {
        PolyBasis::new(self.order)
    }

    /// Evaluates the deviation `f(P)` at a normalized operating point —
    /// the hot path of the online delay calculation. Nested Horner over
    /// both variables, each multiply-add rounded as a multiply and an add.
    #[inline]
    pub fn eval(&self, p: NormalizedPoint) -> f64 {
        eval_horner(self.order, &self.coeffs, p.v, p.c)
    }

    /// The multiplicative delay factor of Eq. 9: `1 + f(P)`.
    #[inline]
    pub fn factor(&self, p: NormalizedPoint) -> f64 {
        1.0 + self.eval(p)
    }
}

/// The lane-gather helper behind
/// [`CoefficientTable::deviation_lanes`](crate::table::CoefficientTable::deviation_lanes):
/// evaluates the surface `(order, beta)` at each point, processing
/// [`HORNER_LANE_BLOCK`]-wide blocks through the unrolled kernel and the
/// partial tail through scalar [`eval_horner`].
///
/// # Panics
///
/// Panics if `points.len() != out.len()`.
pub(crate) fn eval_lanes_with(
    order: usize,
    beta: &[f64],
    points: &[NormalizedPoint],
    out: &mut [f64],
) {
    use avfs_regression::poly::{eval_horner_lanes, HORNER_LANE_BLOCK};
    assert_eq!(points.len(), out.len(), "lane output length mismatch");
    let mut k = 0;
    let mut vb = [0.0f64; HORNER_LANE_BLOCK];
    let mut cb = [0.0f64; HORNER_LANE_BLOCK];
    while k + HORNER_LANE_BLOCK <= points.len() {
        for (j, p) in points[k..k + HORNER_LANE_BLOCK].iter().enumerate() {
            vb[j] = p.v;
            cb[j] = p.c;
        }
        eval_horner_lanes(order, beta, &vb, &cb, &mut out[k..k + HORNER_LANE_BLOCK]);
        k += HORNER_LANE_BLOCK;
    }
    for (p, o) in points[k..].iter().zip(out[k..].iter_mut()) {
        *o = eval_horner(order, beta, p.v, p.c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coefficient_count_enforced() {
        assert!(SurfacePolynomial::new(3, vec![0.0; 16]).is_ok());
        assert!(matches!(
            SurfacePolynomial::new(3, vec![0.0; 15]),
            Err(DelayError::BadCoefficients {
                expected: 16,
                got: 15
            })
        ));
    }

    #[test]
    fn zero_surface_has_unit_factor() {
        let z = SurfacePolynomial::zero(3);
        for &(v, c) in &[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)] {
            let p = NormalizedPoint { v, c };
            assert_eq!(z.eval(p), 0.0);
            assert_eq!(z.factor(p), 1.0);
        }
    }

    #[test]
    fn eval_matches_basis_eval() {
        let coeffs: Vec<f64> = (0..16).map(|k| 0.01 * k as f64 - 0.05).collect();
        let s = SurfacePolynomial::new(3, coeffs.clone()).unwrap();
        let basis = s.basis();
        for &(v, c) in &[(0.1, 0.9), (0.5, 0.5), (0.99, 0.01)] {
            let via_basis = basis.eval(&coeffs, v, c).unwrap();
            assert!((s.eval(NormalizedPoint { v, c }) - via_basis).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn factor_is_one_plus_eval(v in 0.0f64..1.0, c in 0.0f64..1.0) {
            let coeffs: Vec<f64> = (0..9).map(|k| (k as f64) * 0.013 - 0.04).collect();
            let s = SurfacePolynomial::new(2, coeffs).unwrap();
            let p = NormalizedPoint { v, c };
            prop_assert!((s.factor(p) - (1.0 + s.eval(p))).abs() < 1e-15);
        }
    }
}
