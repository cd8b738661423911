//! The α-power-law MOSFET model (Sakurai–Newton).
//!
//! Drain current of a device with effective width `w` (unit widths):
//!
//! ```text
//! V_ov   = V_gs − V_th                       (overdrive)
//! I_dsat = w · k · V_ov^α                    (saturation)
//! V_dsat = k_sat · V_ov^{α/2}                (saturation voltage)
//! I_d    = I_dsat · (2 − V_ds/V_dsat) · (V_ds/V_dsat)   for V_ds < V_dsat
//! ```
//!
//! The model is exactly the origin of the paper's Eq. 1: the time to move
//! charge `C·V_DD` at current `∝ (V_DD − V_th)^α` gives
//! `τ ∝ V_DD/(V_DD − V_th)^α`.
//!
//! The current factors into a part that depends only on the gate —
//! `(I_dsat, V_dsat)`, one `powf` (`Mosfet::drive`) — and the
//! `V_ds` profile applied to it (`Drive::current`).
//! [`Mosfet::drain_current`] is the two composed; the transient integrator
//! evaluates the gate part once per distinct `V_gs` and the `V_ds` part at
//! every slope.

use crate::technology::Technology;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// N-channel (pull-down).
    Nmos,
    /// P-channel (pull-up).
    Pmos,
}

/// One equivalent MOSFET with an effective width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Device polarity.
    pub device: DeviceType,
    /// Effective channel width in unit widths (already divided by the
    /// series stack depth by the caller).
    pub width: f64,
    /// Effective threshold voltage, V (stack body effect folded in).
    pub vth: f64,
}

/// A conducting device's state at one gate voltage: everything of the
/// drain current that does not depend on `V_ds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Drive {
    /// Saturation current `w · k · V_ov^α`, µA.
    idsat: f64,
    /// Saturation voltage `k_sat · V_ov^{α/2}`, V.
    vdsat: f64,
}

impl Drive {
    /// Drain current in µA at `|V_ds| = vds` (negative inputs are clamped).
    pub(crate) fn current(self, vds: f64) -> f64 {
        // Clamping `V_ds/V_dsat` to [0, 1] covers `V_ds ≤ 0` and
        // saturation without a branch: at 1 the profile is exactly `I_dsat`.
        let x = (vds / self.vdsat).clamp(0.0, 1.0);
        self.idsat * (2.0 - x) * x
    }
}

impl Mosfet {
    /// An NMOS with the technology's nominal threshold.
    pub fn nmos(tech: &Technology, width: f64) -> Mosfet {
        Mosfet {
            device: DeviceType::Nmos,
            width,
            vth: tech.vth_n,
        }
    }

    /// A PMOS with the technology's nominal threshold (magnitude).
    pub fn pmos(tech: &Technology, width: f64) -> Mosfet {
        Mosfet {
            device: DeviceType::Pmos,
            width,
            vth: tech.vth_p,
        }
    }

    /// The gate-dependent part of the drain current at `|V_gs| = vgs`:
    /// `None` in cut-off (`vgs ≤ vth`; negative inputs are clamped).
    pub(crate) fn drive(&self, tech: &Technology, vgs: f64) -> Option<Drive> {
        let vov = vgs.max(0.0) - self.vth;
        if vov <= 0.0 {
            return None;
        }
        let k = match self.device {
            DeviceType::Nmos => tech.k_n,
            DeviceType::Pmos => tech.k_p,
        };
        // V_ov^α is the square of V_ov^{α/2}: one `powf` serves both.
        let root = vov.powf(tech.alpha / 2.0);
        Some(Drive {
            idsat: self.width * k * (root * root),
            vdsat: tech.k_sat * root,
        })
    }

    /// Drain current in µA for gate-overdrive-relevant voltages given as
    /// magnitudes: `vgs` is `|V_gs|` and `vds` is `|V_ds|`.
    ///
    /// Returns 0 in cut-off (`vgs ≤ vth`). Negative inputs are clamped.
    pub fn drain_current(&self, tech: &Technology, vgs: f64, vds: f64) -> f64 {
        self.drive(tech, vgs)
            .map_or(0.0, |drive| drive.current(vds))
    }

    /// Saturation current in µA at gate overdrive `vgs`.
    pub fn saturation_current(&self, tech: &Technology, vgs: f64) -> f64 {
        // Saturation is reached for any vds ≥ vdsat; use a large vds.
        self.drain_current(tech, vgs, 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tech() -> Technology {
        Technology::nm15()
    }

    #[test]
    fn cutoff_below_threshold() {
        let t = tech();
        let m = Mosfet::nmos(&t, 1.0);
        assert_eq!(m.drain_current(&t, t.vth_n, 0.5), 0.0);
        assert_eq!(m.drain_current(&t, t.vth_n - 0.1, 0.5), 0.0);
        assert_eq!(m.drain_current(&t, -1.0, 0.5), 0.0);
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let t = tech();
        let m = Mosfet::nmos(&t, 1.0);
        assert_eq!(m.drain_current(&t, 0.8, 0.0), 0.0);
    }

    #[test]
    fn saturation_current_matches_alpha_power() {
        let t = tech();
        let m = Mosfet::nmos(&t, 2.0);
        let vgs = 0.8;
        let expect = 2.0 * t.k_n * (vgs - t.vth_n).powf(t.alpha);
        assert!((m.saturation_current(&t, vgs) - expect).abs() < 1e-9);
    }

    #[test]
    fn linear_region_below_saturation() {
        let t = tech();
        let m = Mosfet::nmos(&t, 1.0);
        let vgs = 0.8;
        let vov = vgs - t.vth_n;
        let vdsat = t.k_sat * vov.powf(t.alpha / 2.0);
        let i_half = m.drain_current(&t, vgs, vdsat / 2.0);
        let i_sat = m.saturation_current(&t, vgs);
        // At vds = vdsat/2 the parabolic profile gives (2 − 0.5)·0.5 = 0.75.
        assert!((i_half / i_sat - 0.75).abs() < 1e-9);
        assert!(i_half < i_sat);
    }

    #[test]
    fn continuity_at_saturation_boundary() {
        let t = tech();
        let m = Mosfet::pmos(&t, 1.5);
        let vgs = 0.7;
        let vov = vgs - t.vth_p;
        let vdsat = t.k_sat * vov.powf(t.alpha / 2.0);
        let below = m.drain_current(&t, vgs, vdsat * (1.0 - 1e-9));
        let above = m.drain_current(&t, vgs, vdsat * (1.0 + 1e-9));
        assert!((below - above).abs() / above < 1e-6);
    }

    #[test]
    fn pmos_weaker_than_nmos_at_same_width() {
        let t = tech();
        let n = Mosfet::nmos(&t, 1.0);
        let p = Mosfet::pmos(&t, 1.0);
        assert!(p.saturation_current(&t, 0.8) < n.saturation_current(&t, 0.8));
    }

    proptest! {
        #[test]
        fn current_monotone_in_vgs(
            vgs1 in 0.3f64..1.2, vgs2 in 0.3f64..1.2, vds in 0.01f64..1.2,
        ) {
            let t = tech();
            let m = Mosfet::nmos(&t, 1.0);
            let (lo, hi) = if vgs1 < vgs2 { (vgs1, vgs2) } else { (vgs2, vgs1) };
            prop_assert!(m.drain_current(&t, lo, vds) <= m.drain_current(&t, hi, vds) + 1e-12);
        }

        #[test]
        fn current_monotone_in_vds(
            vgs in 0.4f64..1.2, vds1 in 0.0f64..1.2, vds2 in 0.0f64..1.2,
        ) {
            let t = tech();
            let m = Mosfet::nmos(&t, 1.0);
            let (lo, hi) = if vds1 < vds2 { (vds1, vds2) } else { (vds2, vds1) };
            prop_assert!(m.drain_current(&t, vgs, lo) <= m.drain_current(&t, vgs, hi) + 1e-12);
        }

        #[test]
        fn current_scales_with_width(
            vgs in 0.4f64..1.2, vds in 0.01f64..1.2, w in 0.5f64..8.0,
        ) {
            let t = tech();
            let unit = Mosfet::nmos(&t, 1.0).drain_current(&t, vgs, vds);
            let scaled = Mosfet::nmos(&t, w).drain_current(&t, vgs, vds);
            prop_assert!((scaled - w * unit).abs() < 1e-9 * (1.0 + scaled));
        }
    }
}
