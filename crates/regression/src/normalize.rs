//! Parameter normalizations from Sec. III.C of the paper.
//!
//! Prior to regression all predictor and response values are normalized "to
//! evenly weight the parameters and prevent overfitting":
//!
//! * voltages: `φ_V(v) = (v − V_min) / (V_max − V_min)` — linear to `[0, 1]`,
//! * capacitances: `φ_C(c) = (log₂ c − log₂ C_min) / (log₂ C_max − log₂ C_min)`
//!   — logarithmic, because load sweeps span powers of two,
//! * delays: `φ_D(d) = d / d_nom − 1` — relative deviation from the nominal
//!   operating point (Eq. 3), applied where a sweep becomes a deviation
//!   grid (`avfs-delay`'s `deviation_grid`).
//!
//! This module holds the two predictor normalizers.

use crate::RegressionError;

/// Linear voltage normalizer `φ_V : [V_min, V_max] → [0, 1]`.
///
/// # Example
///
/// ```
/// use avfs_regression::VoltageNormalizer;
///
/// # fn main() -> Result<(), avfs_regression::RegressionError> {
/// let phi = VoltageNormalizer::new(0.55, 1.10)?;
/// assert!((phi.apply(0.55) - 0.0).abs() < 1e-12);
/// assert!((phi.apply(1.10) - 1.0).abs() < 1e-12);
/// assert!((phi.invert(phi.apply(0.8)) - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageNormalizer {
    v_min: f64,
    v_max: f64,
}

impl VoltageNormalizer {
    /// Creates a normalizer for the interval `[v_min, v_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::InvalidInterval`] if the interval is empty,
    /// inverted, or non-finite.
    pub fn new(v_min: f64, v_max: f64) -> Result<Self, RegressionError> {
        if !(v_min.is_finite() && v_max.is_finite()) || v_min >= v_max {
            return Err(RegressionError::InvalidInterval {
                what: "voltage interval must be finite with v_min < v_max",
            });
        }
        Ok(VoltageNormalizer { v_min, v_max })
    }

    /// Lower bound of the interval.
    pub fn min(&self) -> f64 {
        self.v_min
    }

    /// Upper bound of the interval.
    pub fn max(&self) -> f64 {
        self.v_max
    }

    /// Applies `φ_V`.
    #[inline]
    pub fn apply(&self, v: f64) -> f64 {
        (v - self.v_min) / (self.v_max - self.v_min)
    }

    /// Inverts `φ_V`.
    #[inline]
    pub fn invert(&self, u: f64) -> f64 {
        self.v_min + u * (self.v_max - self.v_min)
    }

    /// Whether `v` lies inside the modeled interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.v_min..=self.v_max).contains(&v)
    }
}

/// Logarithmic capacitance normalizer
/// `φ_C(c) = (log₂ c − log₂ C_min) / (log₂ C_max − log₂ C_min)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapNormalizer {
    c_min: f64,
    c_max: f64,
    log_min: f64,
    log_span: f64,
}

impl CapNormalizer {
    /// Creates a normalizer for loads in `[c_min, c_max]` (both strictly
    /// positive).
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::InvalidInterval`] if the interval is empty,
    /// inverted, non-finite, or touches zero.
    pub fn new(c_min: f64, c_max: f64) -> Result<Self, RegressionError> {
        if !(c_min.is_finite() && c_max.is_finite()) || c_min <= 0.0 || c_min >= c_max {
            return Err(RegressionError::InvalidInterval {
                what: "capacitance interval must be finite with 0 < c_min < c_max",
            });
        }
        let log_min = c_min.log2();
        let log_span = c_max.log2() - log_min;
        Ok(CapNormalizer {
            c_min,
            c_max,
            log_min,
            log_span,
        })
    }

    /// Lower bound of the interval.
    pub fn min(&self) -> f64 {
        self.c_min
    }

    /// Upper bound of the interval.
    pub fn max(&self) -> f64 {
        self.c_max
    }

    /// Applies `φ_C`.
    #[inline]
    pub fn apply(&self, c: f64) -> f64 {
        (c.log2() - self.log_min) / self.log_span
    }

    /// Whether `c` lies inside the modeled interval.
    pub fn contains(&self, c: f64) -> bool {
        (self.c_min..=self.c_max).contains(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn voltage_endpoints() {
        let phi = VoltageNormalizer::new(0.55, 1.1).unwrap();
        assert!((phi.apply(0.55)).abs() < 1e-12);
        assert!((phi.apply(1.1) - 1.0).abs() < 1e-12);
        // Paper nominal 0.8 V sits at (0.8-0.55)/0.55 ≈ 0.4545…
        assert!((phi.apply(0.8) - 0.25 / 0.55).abs() < 1e-12);
    }

    #[test]
    fn voltage_rejects_bad_intervals() {
        assert!(VoltageNormalizer::new(1.0, 1.0).is_err());
        assert!(VoltageNormalizer::new(1.2, 0.5).is_err());
        assert!(VoltageNormalizer::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn cap_is_logarithmic() {
        // Paper sweep: 0.5 fF … 128 fF in powers of two → φ_C is uniform
        // over the exponents.
        let phi = CapNormalizer::new(0.5, 128.0).unwrap();
        assert!((phi.apply(0.5)).abs() < 1e-12);
        assert!((phi.apply(128.0) - 1.0).abs() < 1e-12);
        // 8 fF is exponent 3 of 9 total steps (−1..7): (3−(−1))/8 = 0.5.
        assert!((phi.apply(8.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cap_rejects_nonpositive() {
        assert!(CapNormalizer::new(0.0, 1.0).is_err());
        assert!(CapNormalizer::new(-1.0, 1.0).is_err());
        assert!(CapNormalizer::new(2.0, 1.0).is_err());
    }

    proptest! {
        #[test]
        fn voltage_roundtrip(v in 0.55f64..1.1) {
            let phi = VoltageNormalizer::new(0.55, 1.1).unwrap();
            prop_assert!((phi.invert(phi.apply(v)) - v).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&phi.apply(v)));
        }

        #[test]
        fn cap_maps_into_the_unit_interval(c in 0.5f64..128.0) {
            let phi = CapNormalizer::new(0.5, 128.0).unwrap();
            prop_assert!((0.0..=1.0).contains(&phi.apply(c)));
        }

        #[test]
        fn cap_monotone(c1 in 0.5f64..128.0, c2 in 0.5f64..128.0) {
            let phi = CapNormalizer::new(0.5, 128.0).unwrap();
            if c1 < c2 {
                prop_assert!(phi.apply(c1) < phi.apply(c2));
            }
        }

    }
}
