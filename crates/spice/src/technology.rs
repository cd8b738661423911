//! Technology parameters of the synthetic 15 nm-class process.

/// Process parameters shared by all devices.
///
/// The numbers are chosen so that a unit-drive inverter with a ~2 fF load
/// at the nominal 0.8 V supply exhibits a propagation delay of roughly
/// 10 ps — the regime of the NanGate 15 nm cells behind the paper's
/// Table II (arrival times of hundreds of ps over tens of logic levels).
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Nominal supply voltage, V (the paper's `P_nom` uses 0.8 V).
    pub vdd_nominal: f64,
    /// NMOS threshold voltage, V.
    pub vth_n: f64,
    /// PMOS threshold voltage magnitude, V.
    pub vth_p: f64,
    /// Velocity-saturation index α of the α-power law (1 = fully
    /// velocity-saturated short channel, 2 = long channel quadratic).
    pub alpha: f64,
    /// NMOS transconductance, µA per unit width at `(V_gs−V_th) = 1 V`.
    pub k_n: f64,
    /// PMOS transconductance, µA per unit width.
    pub k_p: f64,
    /// Fraction of the overdrive at which the device saturates
    /// (`V_dsat = k_sat · (V_gs − V_th)^{α/2}`).
    pub k_sat: f64,
    /// Default input ramp (10 %–90 % slew) used during characterization, ps.
    pub input_slew_ps: f64,
    /// Additional effective-threshold fraction per extra series device
    /// (body effect in stacks).
    pub stack_vth_derate: f64,
    /// Current derating per stack position away from the output node
    /// (internal node charging).
    pub position_derate: f64,
    /// Junction temperature the parameters describe, °C.
    pub temp_c: f64,
}

/// Reference temperature of the nominal parameter set, °C.
pub const NOMINAL_TEMP_C: f64 = 27.0;

impl Technology {
    /// The default 15 nm-class process at 27 °C.
    pub fn nm15() -> Technology {
        Technology {
            vdd_nominal: 0.8,
            vth_n: 0.24,
            vth_p: 0.26,
            alpha: 1.35,
            k_n: 175.0,
            k_p: 118.0,
            k_sat: 0.9,
            input_slew_ps: 10.0,
            stack_vth_derate: 0.035,
            position_derate: 0.06,
            temp_c: NOMINAL_TEMP_C,
        }
    }

    /// Derives the process at another junction temperature — the PVT
    /// "T" axis the paper's introduction (and its references \[17\], \[21\])
    /// names alongside voltage. Two first-order effects:
    ///
    /// * carrier mobility falls as `(T/T₀)^(−1.5)` → transconductance
    ///   `k` shrinks with heat,
    /// * threshold voltages drop ~0.7 mV/K → overdrive grows with heat.
    ///
    /// At high supply the mobility term dominates (hotter = slower); near
    /// threshold the V_th term can win (hotter = *faster*), the
    /// temperature-inversion effect of near-threshold design.
    ///
    /// # Panics
    ///
    /// Panics for physically meaningless temperatures (≤ −273.15 °C).
    pub fn at_temperature(&self, temp_c: f64) -> Technology {
        assert!(temp_c > -273.15, "temperature below absolute zero");
        let t0_k = NOMINAL_TEMP_C + 273.15;
        let t_k = temp_c + 273.15;
        let mobility = (t_k / t0_k).powf(-1.5);
        let dvth = -0.0007 * (temp_c - self.temp_c);
        Technology {
            k_n: self.k_n * mobility / ((self.temp_c + 273.15) / t0_k).powf(-1.5),
            k_p: self.k_p * mobility / ((self.temp_c + 273.15) / t0_k).powf(-1.5),
            vth_n: (self.vth_n + dvth).max(0.05),
            vth_p: (self.vth_p + dvth).max(0.05),
            temp_c,
            ..self.clone()
        }
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::nm15()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_plausible() {
        let t = Technology::nm15();
        assert!(t.alpha >= 1.0 && t.alpha <= 2.0, "α-power law range");
        assert!(t.k_n > t.k_p, "NMOS drives more current per width");
        assert_eq!(Technology::default(), t);
    }

    #[test]
    fn floor_covers_paper_sweep() {
        // The paper sweeps down to 0.55 V; both devices need usable
        // overdrive there.
        let t = Technology::nm15();
        assert!(0.55 - t.vth_n.max(t.vth_p) > 0.1);
    }

    #[test]
    fn hot_corner_parameters() {
        let nom = Technology::nm15();
        let hot = nom.at_temperature(125.0);
        assert_eq!(hot.temp_c, 125.0);
        assert!(hot.k_n < nom.k_n, "mobility falls with heat");
        assert!(hot.vth_n < nom.vth_n, "threshold drops with heat");
        // Round trip back to nominal recovers the original parameters.
        let back = hot.at_temperature(27.0);
        assert!((back.k_n - nom.k_n).abs() < 1e-9);
        assert!((back.vth_n - nom.vth_n).abs() < 1e-9);
    }

    #[test]
    fn cold_corner_parameters() {
        let nom = Technology::nm15();
        let cold = nom.at_temperature(-40.0);
        assert!(cold.k_n > nom.k_n, "mobility rises in the cold");
        assert!(cold.vth_n > nom.vth_n, "threshold rises in the cold");
    }

    #[test]
    #[should_panic(expected = "absolute zero")]
    fn absurd_temperature_panics() {
        let _ = Technology::nm15().at_temperature(-300.0);
    }
}
