//! Unit costs of single layers, measured on fixed inputs around one
//! public call each — the traced round's "ns per unit of work" numbers.
//! They do not depend on the workload or the seed, so the same value
//! drifting in every workload points at the host, and one moving with a
//! commit points at the layer.

use crate::stats::median;
use avfs_delay::characterize::deviation_grid;
use avfs_delay::variation::derate;
use avfs_delay::{NormalizedPoint, ParameterSpace, PolynomialModel, VariationConfig};
use avfs_netlist::library::Polarity;
use avfs_netlist::{CellId, CellLibrary, NodeId};
use avfs_regression::{fit_least_squares, PolyBasis};
use avfs_spice::{sweep_pin, SweepConfig, Technology};
use avfs_waveform::{
    evaluate_gate_bounded_raw, evaluate_gate_bounded_raw_segmented, GateScratch, PinDelays,
    Waveform,
};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `reps` calls of `f`.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `(spice.sweep_pin_s, regression.fit_s)`: one sweep of NOR2_X2 pin 0
/// over the paper's 12 × 9 grid (the Fig. 5 cell), and one order-3
/// least-squares fit of its refined deviation surface (the paper claims
/// 1–40 ms per fit).
pub fn sweep_and_fit(library: &CellLibrary) -> Result<(f64, f64), String> {
    let tech = Technology::nm15();
    let config = SweepConfig::paper();
    let cell = library.cell(
        library
            .find("NOR2_X2")
            .ok_or("library has no NOR2_X2 cell")?,
    );
    let sweep = || sweep_pin(&tech, cell, 0, Polarity::Rise, &config);
    let surface = sweep().map_err(|e| e.to_string())?;
    let sweep_s = median_seconds(3, || {
        black_box(sweep().ok());
    });

    let grid = deviation_grid(&surface, &ParameterSpace::paper()).map_err(|e| e.to_string())?;
    let refined = grid.refine(4);
    let samples: Vec<(f64, f64)> = refined.samples().map(|(v, c, _)| (v, c)).collect();
    let targets: Vec<f64> = refined.samples().map(|(_, _, d)| d).collect();
    let basis = PolyBasis::new(3);
    fit_least_squares(&basis, &samples, &targets).map_err(|e| e.to_string())?;
    let fit_s = median_seconds(5, || {
        black_box(fit_least_squares(&basis, &samples, &targets).ok());
    });
    Ok((sweep_s, fit_s))
}

/// `delay.ns_per_factor`: 2²⁰ operating points through
/// `CoefficientTable::deviation_lanes` of one characterized pin.
pub fn ns_per_factor(model: &PolynomialModel, cell: CellId) -> Result<f64, String> {
    const LANE_POINTS: usize = 4096;
    const REPS: usize = 256;
    let points: Vec<NormalizedPoint> = (0..LANE_POINTS)
        .map(|k| NormalizedPoint {
            v: k as f64 / LANE_POINTS as f64,
            c: 1.0 - k as f64 / LANE_POINTS as f64,
        })
        .collect();
    let mut out = vec![0.0; LANE_POINTS];
    let table = model.table();
    let seconds = median_seconds(3, || {
        for _ in 0..REPS {
            table
                .deviation_lanes(cell, 0, Polarity::Rise, black_box(&points), &mut out)
                .expect("the workload characterized this cell");
            black_box(&mut out);
        }
    });
    Ok(seconds * 1e9 / (LANE_POINTS * REPS) as f64)
}

/// `delay.ns_per_derate`: one hashed Monte Carlo variation draw.
pub fn ns_per_derate() -> f64 {
    const DRAWS: usize = 1 << 18;
    let config = VariationConfig::sigma5(1);
    let seconds = median_seconds(3, || {
        let mut sum = 0.0;
        for k in 0..DRAWS {
            sum += derate(
                &config,
                (k & 7) as u32,
                NodeId::from_index(k),
                k & 1,
                Polarity::Rise,
            );
        }
        black_box(sum);
    });
    seconds * 1e9 / DRAWS as f64
}

/// `(waveform.ns_per_transition, waveform.ns_per_transition_segmented)`:
/// the engine's allocation-free gate kernel on a NAND2 with two
/// interleaved 8-transition inputs, per input transition; the segmented
/// form runs the same inputs over three delay segments.
pub fn ns_per_transition() -> (f64, f64) {
    const CALLS: usize = 1 << 16;
    const CAP: usize = 64;
    let input = |offset: f64| {
        Waveform::with_transitions(false, (0..8).map(|k| offset + 20.0 * k as f64).collect())
            .expect("strictly increasing times")
    };
    let inputs = [input(10.0), input(17.0)];
    let delays = [
        PinDelays {
            rise: 6.0,
            fall: 5.0,
        },
        PinDelays {
            rise: 7.0,
            fall: 4.5,
        },
    ];
    let nand = |v: &[bool]| !(v[0] && v[1]);
    let transitions = (CALLS * 16) as f64;
    let mut scratch = GateScratch::new();
    let plain = median_seconds(3, || {
        for _ in 0..CALLS {
            black_box(
                evaluate_gate_bounded_raw(black_box(&inputs), &delays, nand, &mut scratch, CAP)
                    .ok(),
            );
        }
    });
    let boundaries = [60.0, 120.0];
    let segmented = median_seconds(3, || {
        for _ in 0..CALLS {
            black_box(
                evaluate_gate_bounded_raw_segmented(
                    black_box(&inputs),
                    &boundaries,
                    |segment, pin| PinDelays {
                        rise: delays[pin].rise + segment as f64,
                        fall: delays[pin].fall + segment as f64,
                    },
                    nand,
                    &mut scratch,
                    CAP,
                )
                .ok(),
            );
        }
    });
    (plain * 1e9 / transitions, segmented * 1e9 / transitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_are_positive_and_finite() {
        let (plain, segmented) = ns_per_transition();
        for v in [plain, segmented, ns_per_derate()] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }
}
