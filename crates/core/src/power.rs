//! Dynamic-power estimation from glitch-accurate switching activity.
//!
//! The paper names power estimation as a primary consumer of
//! glitch-accurate switching data (its reference \[15\]); for AVFS
//! exploration the interesting quantity is how dynamic energy trades off
//! against the arrival times as the supply scales:
//!
//! ```text
//! E_dyn = ½ · Σ_nets C_net · V_DD² · toggles(net)
//! ```
//!
//! Glitch transitions burn energy without doing work, so the glitch
//! fraction is reported separately — the value a designer weighs against
//! the latency win of a higher supply.

use crate::results::{SimRun, SlotResult};
use avfs_delay::TimingAnnotation;
use avfs_netlist::Netlist;

/// Dynamic-energy estimate of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyEstimate {
    /// Total switched energy, femtojoule (fF · V²).
    pub total_fj: f64,
    /// Share caused by glitch transitions, femtojoule.
    pub glitch_fj: f64,
    /// Transitions counted.
    pub transitions: usize,
}

impl EnergyEstimate {
    /// Glitch share of the total, in `[0, 1]`.
    pub fn glitch_fraction(&self) -> f64 {
        if self.total_fj <= 0.0 {
            0.0
        } else {
            self.glitch_fj / self.total_fj
        }
    }
}

/// Estimates the switched energy of one slot from its retained waveforms.
///
/// Requires the run to have kept waveforms
/// ([`SimOptions::keep_waveforms`](crate::engine::SimOptions)); returns
/// `None` otherwise.
pub fn slot_energy(
    netlist: &Netlist,
    annotation: &TimingAnnotation,
    slot: &SlotResult,
) -> Option<EnergyEstimate> {
    let waveforms = slot.waveforms.as_ref()?;
    let v = slot.spec.voltage;
    let mut total = 0.0;
    let mut glitch = 0.0;
    let mut transitions = 0usize;
    for (id, _) in netlist.iter() {
        let wf = &waveforms[id.index()];
        let toggles = wf.num_transitions();
        if toggles == 0 {
            continue;
        }
        let c = annotation.load_ff(id);
        let e = 0.5 * c * v * v * toggles as f64;
        total += e;
        let functional = usize::from(wf.initial_value() != wf.final_value());
        glitch += 0.5 * c * v * v * (toggles - functional) as f64;
        transitions += toggles;
    }
    Some(EnergyEstimate {
        total_fj: total,
        glitch_fj: glitch,
        transitions,
    })
}

/// Per-voltage average energy over a run (one entry per distinct voltage,
/// in first-appearance order).
pub fn energy_by_voltage(
    netlist: &Netlist,
    annotation: &TimingAnnotation,
    run: &SimRun,
) -> Vec<(f64, EnergyEstimate)> {
    let mut out: Vec<(f64, EnergyEstimate, usize)> = Vec::new();
    for slot in &run.slots {
        let Some(e) = slot_energy(netlist, annotation, slot) else {
            continue;
        };
        match out
            .iter_mut()
            .find(|(v, _, _)| (*v - slot.spec.voltage).abs() < 1e-12)
        {
            Some((_, acc, count)) => {
                acc.total_fj += e.total_fj;
                acc.glitch_fj += e.glitch_fj;
                acc.transitions += e.transitions;
                *count += 1;
            }
            None => out.push((slot.spec.voltage, e, 1)),
        }
    }
    out.into_iter()
        .map(|(v, mut e, count)| {
            if count > 0 {
                e.total_fj /= count as f64;
                e.glitch_fj /= count as f64;
                e.transitions /= count;
            }
            (v, e)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNetlist;
    use crate::engine::SimOptions;
    use crate::slots;
    use avfs_atpg::pattern::{Pattern, PatternPair};
    use avfs_atpg::PatternSet;
    use avfs_delay::{ParameterSpace, StaticModel};
    use avfs_netlist::{CellLibrary, NetlistBuilder, NodeKind};
    use avfs_waveform::PinDelays;
    use std::sync::Arc;

    fn run_chain(voltages: &[f64]) -> (Arc<Netlist>, Arc<TimingAnnotation>, SimRun) {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("p", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X2", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        let n = Arc::new(b.finish().unwrap());
        let mut ann = TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                ann.node_delays_mut(id)[0] = PinDelays {
                    rise: 5.0,
                    fall: 6.0,
                };
            }
        }
        let ann = Arc::new(ann);
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::clone(&ann),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
        .unwrap();
        let patterns: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let run = engine
            .launch(
                &patterns,
                &slots::cross(1, voltages),
                &SimOptions {
                    threads: 1,
                    keep_waveforms: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        (n, ann, run)
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let (n, ann, run) = run_chain(&[0.55, 1.1]);
        let by_v = energy_by_voltage(&n, &ann, &run);
        assert_eq!(by_v.len(), 2);
        let (v0, e0) = by_v[0];
        let (v1, e1) = by_v[1];
        assert_eq!(v0, 0.55);
        assert_eq!(v1, 1.1);
        // Static model → same toggles; energy ratio is exactly (V1/V0)².
        assert_eq!(e0.transitions, e1.transitions);
        let ratio = e1.total_fj / e0.total_fj;
        assert!(((v1 / v0).powi(2) - ratio).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn clean_transition_has_no_glitch_energy() {
        let (n, ann, run) = run_chain(&[0.8]);
        let e = slot_energy(&n, &ann, &run.slots[0]).expect("waveforms kept");
        assert!(e.total_fj > 0.0);
        assert_eq!(e.glitch_fj, 0.0);
        assert_eq!(e.glitch_fraction(), 0.0);
        // Input + two gates + PO toggle exactly once each, but PI/PO nets
        // carry loads too: count transitions, not energy details.
        assert_eq!(e.transitions, 4);
    }

    #[test]
    fn requires_kept_waveforms() {
        let (n, ann, mut run) = run_chain(&[0.8]);
        run.slots[0].waveforms = None;
        assert!(slot_energy(&n, &ann, &run.slots[0]).is_none());
        assert!(energy_by_voltage(&n, &ann, &run).is_empty());
    }

    #[test]
    fn glitch_energy_counted() {
        // Reconvergent XOR produces a pure glitch: all its energy is
        // glitch energy on the XOR net.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.add_input("a").unwrap();
        let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
        let x = b.add_gate("x", "XOR2_X1", &[a, inv]).unwrap();
        b.add_output("y", x).unwrap();
        let n = Arc::new(b.finish().unwrap());
        let mut ann = TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for p in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[p] = PinDelays {
                        rise: 10.0,
                        fall: 10.0,
                    };
                }
            }
        }
        let ann = Arc::new(ann);
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::clone(&ann),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
        .unwrap();
        let patterns: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let run = engine
            .launch(
                &patterns,
                &slots::at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    keep_waveforms: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let e = slot_energy(&n, &ann, &run.slots[0]).expect("kept");
        assert!(e.glitch_fj > 0.0);
        assert!(e.glitch_fraction() > 0.0 && e.glitch_fraction() < 1.0);
    }
}
