//! Operating points and the constrained parameter space `𝒫 ⊆ ℝ²`.

use crate::DelayError;
use avfs_regression::{CapNormalizer, VoltageNormalizer};

/// One operating point `P = (v, c)`: supply voltage (V) and load
/// capacitance (fF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage, V.
    pub voltage: f64,
    /// Load capacitance, fF.
    pub load_ff: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub fn new(voltage: f64, load_ff: f64) -> OperatingPoint {
        OperatingPoint { voltage, load_ff }
    }
}

/// An operating point mapped to the unit square by `φ_V` / `φ_C`.
///
/// Simulation kernels consume pre-normalized coordinates so that the inner
/// loop is pure Horner arithmetic (the paper normalizes once per slot when
/// the operating point is assigned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedPoint {
    /// `φ_V(v) ∈ [0, 1]`.
    pub v: f64,
    /// `φ_C(c) ∈ [0, 1]`.
    pub c: f64,
}

/// The constrained two-dimensional parameter space of the characterization:
/// `v ∈ [V_min, V_max]`, `c ∈ [C_min, C_max]`, with a distinguished nominal
/// voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParameterSpace {
    phi_v: VoltageNormalizer,
    phi_c: CapNormalizer,
    nominal_vdd: f64,
}

impl ParameterSpace {
    /// Creates a parameter space.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::OutOfRange`] if the nominal voltage lies
    /// outside `[v_min, v_max]`, and propagates interval validation from
    /// the normalizers as [`DelayError::Characterization`]-free plain
    /// `OutOfRange` signals (empty or inverted intervals).
    pub fn new(
        v_min: f64,
        v_max: f64,
        c_min_ff: f64,
        c_max_ff: f64,
        nominal_vdd: f64,
    ) -> Result<ParameterSpace, DelayError> {
        let phi_v = VoltageNormalizer::new(v_min, v_max).map_err(|_| DelayError::OutOfRange {
            voltage: v_min,
            load_ff: c_min_ff,
        })?;
        let phi_c = CapNormalizer::new(c_min_ff, c_max_ff).map_err(|_| DelayError::OutOfRange {
            voltage: v_min,
            load_ff: c_min_ff,
        })?;
        if !phi_v.contains(nominal_vdd) {
            return Err(DelayError::OutOfRange {
                voltage: nominal_vdd,
                load_ff: c_min_ff,
            });
        }
        Ok(ParameterSpace {
            phi_v,
            phi_c,
            nominal_vdd,
        })
    }

    /// The paper's space: `[0.55, 1.1] V × [0.5, 128] fF`, nominal 0.8 V.
    pub fn paper() -> ParameterSpace {
        ParameterSpace::new(0.55, 1.1, 0.5, 128.0, 0.8).expect("paper space is valid")
    }

    /// The nominal supply voltage.
    pub fn nominal_vdd(&self) -> f64 {
        self.nominal_vdd
    }

    /// The voltage interval `[V_min, V_max]`.
    pub fn voltage_range(&self) -> (f64, f64) {
        (self.phi_v.min(), self.phi_v.max())
    }

    /// The load interval `[C_min, C_max]`, fF.
    pub fn load_range(&self) -> (f64, f64) {
        (self.phi_c.min(), self.phi_c.max())
    }

    /// Whether `op` is inside the space.
    pub fn contains(&self, op: OperatingPoint) -> bool {
        self.phi_v.contains(op.voltage) && self.phi_c.contains(op.load_ff)
    }

    /// Normalizes an operating point to the unit square.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::OutOfRange`] for points outside the space —
    /// polynomials extrapolate badly, so out-of-range evaluation is a
    /// caller bug, not a soft clamp.
    pub fn normalize(&self, op: OperatingPoint) -> Result<NormalizedPoint, DelayError> {
        if !self.contains(op) {
            return Err(DelayError::OutOfRange {
                voltage: op.voltage,
                load_ff: op.load_ff,
            });
        }
        Ok(NormalizedPoint {
            v: self.phi_v.apply(op.voltage),
            c: self.phi_c.apply(op.load_ff),
        })
    }

    /// Normalizes with clamping to the space boundary (used for loads that
    /// fall slightly outside the characterized interval, e.g. unloaded
    /// dangling nets).
    pub fn normalize_clamped(&self, op: OperatingPoint) -> NormalizedPoint {
        let (v_min, v_max) = self.voltage_range();
        let (c_min, c_max) = self.load_range();
        NormalizedPoint {
            v: self.phi_v.apply(op.voltage.clamp(v_min, v_max)),
            c: self.phi_c.apply(op.load_ff.clamp(c_min, c_max)),
        }
    }

    /// The voltage normalizer `φ_V`.
    pub fn phi_v(&self) -> &VoltageNormalizer {
        &self.phi_v
    }

    /// The capacitance normalizer `φ_C`.
    pub fn phi_c(&self) -> &CapNormalizer {
        &self.phi_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space() {
        let s = ParameterSpace::paper();
        assert_eq!(s.nominal_vdd(), 0.8);
        assert_eq!(s.voltage_range(), (0.55, 1.1));
        assert_eq!(s.load_range(), (0.5, 128.0));
        assert!(s.contains(OperatingPoint::new(0.8, 4.0)));
        assert!(!s.contains(OperatingPoint::new(1.2, 4.0)));
        assert!(!s.contains(OperatingPoint::new(0.8, 0.2)));
    }

    #[test]
    fn nominal_must_be_inside() {
        assert!(matches!(
            ParameterSpace::new(0.55, 1.1, 0.5, 128.0, 1.2),
            Err(DelayError::OutOfRange { .. })
        ));
        assert!(ParameterSpace::new(0.55, 1.1, 0.5, 128.0, 0.55).is_ok());
    }

    #[test]
    fn bad_intervals_rejected() {
        assert!(ParameterSpace::new(1.1, 0.55, 0.5, 128.0, 0.8).is_err());
        assert!(ParameterSpace::new(0.55, 1.1, -1.0, 128.0, 0.8).is_err());
    }

    #[test]
    fn normalize_maps_corners_to_unit_square() {
        let s = ParameterSpace::paper();
        let lo = s.normalize(OperatingPoint::new(0.55, 0.5)).unwrap();
        assert!((lo.v).abs() < 1e-12 && (lo.c).abs() < 1e-12);
        let hi = s.normalize(OperatingPoint::new(1.1, 128.0)).unwrap();
        assert!((hi.v - 1.0).abs() < 1e-9 && (hi.c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_rejects_outside() {
        let s = ParameterSpace::paper();
        assert!(s.normalize(OperatingPoint::new(0.5, 1.0)).is_err());
        assert!(s.normalize(OperatingPoint::new(0.8, 200.0)).is_err());
    }

    #[test]
    fn clamped_normalization() {
        let s = ParameterSpace::paper();
        let p = s.normalize_clamped(OperatingPoint::new(0.8, 0.01));
        assert_eq!(p.c, 0.0);
        let p = s.normalize_clamped(OperatingPoint::new(2.0, 300.0));
        assert!((p.v - 1.0).abs() < 1e-12);
        assert!((p.c - 1.0).abs() < 1e-12);
    }
}
