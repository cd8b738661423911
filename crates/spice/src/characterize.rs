//! Cell-level delay extraction: maps a library cell's (pin, polarity) onto
//! equivalent switching stages and measures the pin-to-pin delay.

use crate::mosfet::Mosfet;
use crate::technology::Technology;
use crate::transient::{simulate_stage, Stage};
use crate::SpiceError;
use avfs_netlist::library::{Cell, Polarity};

/// Measures the pin-to-pin propagation delay of `cell` from input `pin` to
/// the output for the given output `polarity`, at supply `vdd` (V) with
/// external load `c_load_ff` (fF). Returns picoseconds.
///
/// The cell is reduced to one or two equivalent stages using the library's
/// sizing data:
///
/// * the conducting network becomes a single α-power device with the
///   effective width of the path (already stack-divided), a body-effect
///   threshold raise per extra series device, and a current derating per
///   stack position of the switching pin;
/// * the output stage drives `c_load + c_parasitic`;
/// * two-stage cells (AND, OR, BUF, XOR, MUX) add the first stage driving
///   an internal node sized from the cell's parasitics, with the opposite
///   transition polarity.
///
/// # Errors
///
/// Propagates [`SpiceError::InvalidOperatingPoint`] /
/// [`SpiceError::NoConvergence`] from the transient engine.
///
/// # Panics
///
/// Panics if `pin` is out of range for the cell (consistent with
/// [`Cell::pin_drive`]).
pub fn pin_delay_ps(
    tech: &Technology,
    cell: &Cell,
    pin: usize,
    polarity: Polarity,
    vdd: f64,
    c_load_ff: f64,
) -> Result<f64, SpiceError> {
    let (output, internal) = pin_stages(tech, cell, pin, polarity, vdd, c_load_ff);
    let mut total = simulate_stage(tech, &output)?.delay_ps;
    if let Some(internal) = internal {
        total += simulate_stage(tech, &internal)?.delay_ps;
    }
    Ok(total)
}

/// The equivalent stages of one pin-to-pin arc: the output stage and, for
/// two-stage cells, the internal stage in front of it.
pub(crate) fn pin_stages(
    tech: &Technology,
    cell: &Cell,
    pin: usize,
    polarity: Polarity,
    vdd: f64,
    c_load_ff: f64,
) -> (Stage, Option<Stage>) {
    let drive = cell.pin_drive(pin, polarity);
    let out_cap = c_load_ff + cell.parasitic_cap_ff();
    let output = equivalent_stage(
        tech,
        drive.width,
        drive.stack,
        drive.position,
        polarity,
        vdd,
        out_cap,
    );
    let internal = (drive.stages > 1).then(|| {
        // First stage: inverting core driving the internal node. Its
        // transition polarity is the opposite of the output's, and its
        // load is the internal parasitic plus the output stage's gate.
        let internal_polarity = match polarity {
            Polarity::Rise => Polarity::Fall,
            Polarity::Fall => Polarity::Rise,
        };
        let internal_cap = (0.8 * cell.parasitic_cap_ff()).max(0.2);
        // The internal stage runs at ~70 % of the cell's drive (first
        // stage devices are smaller). Nothing in it depends on the
        // external load, so a sweep plan runs it once per voltage.
        equivalent_stage(
            tech,
            0.7 * drive.width.max(0.5),
            drive.stack,
            drive.position,
            internal_polarity,
            vdd,
            internal_cap,
        )
    });
    (output, internal)
}

/// The single equivalent stage of one conducting network.
fn equivalent_stage(
    tech: &Technology,
    width: f64,
    stack: u8,
    position: u8,
    polarity: Polarity,
    vdd: f64,
    cap_ff: f64,
) -> Stage {
    // Body effect: threshold rises with stack depth.
    let vth_scale = 1.0 + tech.stack_vth_derate * (stack.saturating_sub(1)) as f64;
    // Internal-node charging: current derates with switching-pin position.
    let width_eff = width / (1.0 + tech.position_derate * position as f64);
    let device = match polarity {
        Polarity::Fall => Mosfet {
            vth: tech.vth_n * vth_scale,
            ..Mosfet::nmos(tech, width_eff)
        },
        Polarity::Rise => Mosfet {
            vth: tech.vth_p * vth_scale,
            ..Mosfet::pmos(tech, width_eff)
        },
    };
    Stage {
        device,
        cap_ff,
        vdd,
        slew_ps: tech.input_slew_ps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::CellLibrary;

    fn setup() -> (Technology, std::sync::Arc<CellLibrary>) {
        (Technology::nm15(), CellLibrary::nangate15_like())
    }

    #[test]
    fn inverter_delays_plausible() {
        let (tech, lib) = setup();
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        let fall = pin_delay_ps(&tech, inv, 0, Polarity::Fall, 0.8, 2.0).unwrap();
        let rise = pin_delay_ps(&tech, inv, 0, Polarity::Rise, 0.8, 2.0).unwrap();
        assert!(fall > 1.0 && fall < 60.0, "fall {fall}");
        assert!(
            rise > fall,
            "rise should be slower (PMOS), {rise} vs {fall}"
        );
    }

    #[test]
    fn voltage_dependence_is_nonlinear_and_monotone() {
        let (tech, lib) = setup();
        let nand = lib.cell(lib.find("NAND2_X1").unwrap());
        let mut prev = f64::INFINITY;
        let mut deltas = Vec::new();
        for v in [0.55, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1] {
            let d = pin_delay_ps(&tech, nand, 0, Polarity::Fall, v, 4.0).unwrap();
            assert!(d < prev, "delay must fall with rising voltage at {v} V");
            if prev.is_finite() {
                deltas.push(prev - d);
            }
            prev = d;
        }
        // Non-linear: improvements shrink as the voltage rises.
        assert!(
            deltas.first().unwrap() > deltas.last().unwrap(),
            "expected diminishing returns: {deltas:?}"
        );
    }

    #[test]
    fn load_dependence_monotone() {
        let (tech, lib) = setup();
        let nor = lib.cell(lib.find("NOR2_X2").unwrap());
        let mut prev = 0.0;
        for c in [0.5, 1.0, 2.0, 8.0, 32.0, 128.0] {
            let d = pin_delay_ps(&tech, nor, 0, Polarity::Rise, 0.8, c).unwrap();
            assert!(d > prev, "delay must grow with load at {c} fF");
            prev = d;
        }
    }

    #[test]
    fn inner_pins_slower() {
        let (tech, lib) = setup();
        let nand3 = lib.cell(lib.find("NAND3_X1").unwrap());
        let d_outer = pin_delay_ps(&tech, nand3, 0, Polarity::Fall, 0.8, 4.0).unwrap();
        let d_inner = pin_delay_ps(&tech, nand3, 2, Polarity::Fall, 0.8, 4.0).unwrap();
        assert!(d_inner > d_outer, "{d_inner} vs {d_outer}");
    }

    #[test]
    fn stronger_drive_is_faster() {
        let (tech, lib) = setup();
        let x1 = lib.cell(lib.find("NAND2_X1").unwrap());
        let x4 = lib.cell(lib.find("NAND2_X4").unwrap());
        let d1 = pin_delay_ps(&tech, x1, 0, Polarity::Fall, 0.8, 16.0).unwrap();
        let d4 = pin_delay_ps(&tech, x4, 0, Polarity::Fall, 0.8, 16.0).unwrap();
        assert!(d4 < d1 / 2.0, "X4 should be much faster into a fixed load");
    }

    #[test]
    fn two_stage_cells_slower_than_single_stage() {
        let (tech, lib) = setup();
        let and2 = lib.cell(lib.find("AND2_X1").unwrap());
        let nand2 = lib.cell(lib.find("NAND2_X1").unwrap());
        let d_and = pin_delay_ps(&tech, and2, 0, Polarity::Rise, 0.8, 4.0).unwrap();
        let d_nand = pin_delay_ps(&tech, nand2, 0, Polarity::Rise, 0.8, 4.0).unwrap();
        assert!(d_and > d_nand, "AND = NAND + INV must be slower");
    }

    #[test]
    fn temperature_slows_at_high_supply_more_than_near_threshold() {
        // The temperature-inversion trend: heating costs more delay at
        // high overdrive (mobility-limited) than near threshold (where
        // the dropping V_th claws back overdrive).
        let (nom, lib) = setup();
        let hot = nom.at_temperature(125.0);
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        let slowdown = |v: f64| {
            let d_nom = pin_delay_ps(&nom, inv, 0, Polarity::Fall, v, 4.0).unwrap();
            let d_hot = pin_delay_ps(&hot, inv, 0, Polarity::Fall, v, 4.0).unwrap();
            d_hot / d_nom
        };
        let low = slowdown(0.55);
        let high = slowdown(1.1);
        assert!(high > 1.0, "hot silicon is slower at full supply ({high})");
        assert!(
            low < high,
            "near threshold the slowdown must shrink (inversion trend): {low} vs {high}"
        );
    }

    #[test]
    fn all_cells_characterizable_at_corners() {
        let (tech, lib) = setup();
        for (_, cell) in lib.iter() {
            for pin in 0..cell.num_inputs() {
                for polarity in Polarity::both() {
                    for &(v, c) in &[(0.55, 0.5), (1.1, 128.0)] {
                        let d =
                            pin_delay_ps(&tech, cell, pin, polarity, v, c).unwrap_or_else(|e| {
                                panic!("{} pin {pin} {polarity} at ({v},{c}): {e}", cell.name())
                            });
                        assert!(d.is_finite() && d > 0.0);
                    }
                }
            }
        }
    }
}
