//! Small-delay-fault grading on top of the parametric engine.
//!
//! Small (gate) delay faults are the headline application of the paper's
//! simulator family (its reference \[28\], "GPU-Accelerated Simulation of
//! Small Delay Faults", and the small-delay test motivation of the
//! introduction): a defect adds an extra delay `δ` at one node; a pattern
//! pair *detects* it if any primary output holds a different value at the
//! capture time than in the fault-free run.
//!
//! A fault is one more per-group delay modifier (DESIGN.md §5): a
//! [`Launch::Faults`](crate::Launch::Faults) request, through any door,
//! simulates the slots patterns × (golden + faults) in one launch on one
//! compiled artifact, a fault's slots reading the artifact's tables with
//! `δ` added to the site's nominal pin delays before they are scaled.
//! [`FaultVerdict::grade`] reads the verdicts off the run.

use crate::compile::{check_pins, CompiledNetlist};
use crate::results::SimRun;
use crate::SimError;
use avfs_delay::TimingAnnotation;
use avfs_netlist::{Netlist, NodeId, NodeKind};
use avfs_waveform::PinDelays;

/// One small-delay fault: extra delay at a node's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallDelayFault {
    /// The fault site (a gate node).
    pub node: NodeId,
    /// The extra delay, ps.
    pub delta_ps: f64,
}

impl SmallDelayFault {
    /// The candidate fault list: one fault of size `delta_ps` per gate
    /// node of `netlist`, in node order.
    pub fn every_gate(netlist: &Netlist, delta_ps: f64) -> Vec<SmallDelayFault> {
        netlist
            .iter()
            .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
            .map(|(id, _)| SmallDelayFault { node: id, delta_ps })
            .collect()
    }

    /// The fault site's pin delays in `annotation` with `δ` added to
    /// every rise and fall: what the fault does to the circuit.
    pub(crate) fn pins<'a>(
        &self,
        annotation: &'a TimingAnnotation,
    ) -> impl Iterator<Item = PinDelays> + 'a {
        let delta = self.delta_ps;
        annotation
            .node_delays(self.node)
            .iter()
            .map(move |d| PinDelays {
                rise: d.rise + delta,
                fall: d.fall + delta,
            })
    }
}

/// The verdict for one fault under one pattern set.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultVerdict {
    /// The fault.
    pub fault: SmallDelayFault,
    /// Whether any pattern detected it.
    pub detected: bool,
    /// Index of the first detecting pattern.
    pub detected_by: Option<usize>,
    /// The worst slack consumed: latest faulty arrival minus capture
    /// period, ps (positive = capture violation).
    pub worst_overshoot_ps: f64,
}

impl FaultVerdict {
    /// Per-fault verdicts of `run`, the run of a
    /// [`Launch::Faults`](crate::Launch::Faults) request for `faults`
    /// sampled at `capture_ps`. A pattern detects a fault when an
    /// output's value at the capture time differs from the fault-free
    /// run's and both slots completed.
    pub fn grade(run: &SimRun, faults: &[SmallDelayFault], capture_ps: f64) -> Vec<FaultVerdict> {
        let patterns = run.slots.len() / (faults.len() + 1);
        let (golden, faulty) = run.slots.split_at(patterns);
        let graded = faults.iter().zip(faulty.chunks(patterns.max(1)));
        graded
            .map(|(&fault, slots)| {
                let detected_by = slots.iter().zip(golden).position(|(bad, good)| {
                    bad.status.is_completed()
                        && good.status.is_completed()
                        && bad.responses != good.responses
                });
                let worst_overshoot_ps = slots
                    .iter()
                    .filter_map(|s| s.latest_output_transition_ps)
                    .fold(f64::NEG_INFINITY, |worst, t| worst.max(t - capture_ps))
                    .max(-capture_ps);
                FaultVerdict {
                    fault,
                    detected: detected_by.is_some(),
                    detected_by,
                    worst_overshoot_ps,
                }
            })
            .collect()
    }

    /// Fault coverage of a verdict list.
    pub fn coverage(verdicts: &[FaultVerdict]) -> f64 {
        if verdicts.is_empty() {
            return 0.0;
        }
        verdicts.iter().filter(|v| v.detected).count() as f64 / verdicts.len() as f64
    }
}

impl CompiledNetlist {
    /// Refuses fault `index` unless it names a gate whose nominal pin
    /// delays stay finite and non-negative with `δ` added.
    pub(crate) fn check_fault(
        &self,
        index: usize,
        fault: &SmallDelayFault,
    ) -> Result<(), SimError> {
        let node = self.netlist.nodes().get(fault.node.index());
        let Some(gate) = node.filter(|node| matches!(node.kind(), NodeKind::Gate(_))) else {
            return Err(SimError::FaultSite {
                fault: index,
                node: fault.node.index(),
            });
        };
        check_pins(gate.name(), fault.pins(&self.annotation))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Launch, SimOptions};
    use crate::scenario::{cross_schedules, MonteCarlo, Schedule};
    use avfs_atpg::pattern::{Pattern, PatternPair};
    use avfs_atpg::PatternSet;
    use avfs_delay::model::DelayModel;
    use avfs_delay::op::NormalizedPoint;
    use avfs_delay::{ParameterSpace, StaticModel, VariationConfig};
    use avfs_netlist::library::Polarity;
    use avfs_netlist::{CellId, CellLibrary, NetlistBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Chain of four inverters, 10 ps each → nominal arrival 40 ps.
    fn chain(model: Arc<dyn DelayModel>) -> Arc<CompiledNetlist> {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.add_input("a").unwrap();
        let mut prev = a;
        for i in 0..4 {
            prev = b.add_gate(format!("g{i}"), "INV_X1", &[prev]).unwrap();
        }
        b.add_output("y", prev).unwrap();
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
        Arc::new(CompiledNetlist::compile(n, Arc::new(ann), model).unwrap())
    }

    fn static_model() -> Arc<dyn DelayModel> {
        Arc::new(StaticModel::new(ParameterSpace::paper()))
    }

    fn toggle_pattern() -> PatternSet {
        std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect()
    }

    /// Grades `faults` in one [`Launch::Faults`] launch on `compiled`.
    fn grade(
        compiled: &CompiledNetlist,
        faults: &[SmallDelayFault],
        patterns: &PatternSet,
        (voltage, die): (f64, Option<VariationConfig>),
        capture_ps: f64,
        options: &SimOptions,
    ) -> Result<Vec<FaultVerdict>, SimError> {
        let request = Launch::Faults {
            faults,
            voltage,
            die,
            capture_ps,
        };
        let run = compiled.launch(patterns, request, options)?;
        Ok(FaultVerdict::grade(&run, faults, capture_ps))
    }

    /// Every gate of `compiled`'s netlist faulted by `delta_ps`.
    fn every_gate(compiled: &CompiledNetlist, delta_ps: f64) -> Vec<SmallDelayFault> {
        SmallDelayFault::every_gate(compiled.netlist(), delta_ps)
    }

    fn serial() -> SimOptions {
        SimOptions {
            threads: 1,
            ..SimOptions::default()
        }
    }

    #[test]
    fn tight_capture_detects_small_delta() {
        // Arrival 40 ps, capture 45 ps → δ = 10 pushes past capture.
        let s = chain(static_model());
        let faults = every_gate(&s, 10.0);
        assert_eq!(faults.len(), 4);
        let verdicts = grade(&s, &faults, &toggle_pattern(), (0.8, None), 45.0, &serial()).unwrap();
        assert!(verdicts.iter().all(|v| v.detected), "{verdicts:?}");
        assert!((FaultVerdict::coverage(&verdicts) - 1.0).abs() < 1e-12);
        for v in &verdicts {
            assert_eq!(v.detected_by, Some(0));
            assert!((v.worst_overshoot_ps - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn loose_capture_hides_small_delta() {
        // Capture 100 ps → a 10 ps defect stays invisible ("hidden delay
        // fault", the FAST-BIST motivation the paper cites).
        let s = chain(static_model());
        let faults = every_gate(&s, 10.0);
        let verdicts = grade(
            &s,
            &faults,
            &toggle_pattern(),
            (0.8, None),
            100.0,
            &serial(),
        )
        .unwrap();
        assert!(verdicts.iter().all(|v| !v.detected));
        assert_eq!(FaultVerdict::coverage(&verdicts), 0.0);
    }

    #[test]
    fn threshold_delta_behaviour() {
        // Capture 45: δ = 4 keeps arrival at 44 < 45 (undetected); δ = 6
        // lands at 46 > 45 (detected).
        let s = chain(static_model());
        let at = |delta| {
            let faults = every_gate(&s, delta);
            grade(&s, &faults, &toggle_pattern(), (0.8, None), 45.0, &serial()).unwrap()
        };
        assert!(at(4.0).iter().all(|v| !v.detected));
        assert!(at(6.0).iter().all(|v| v.detected));
    }

    #[test]
    fn quiet_pattern_detects_nothing() {
        let s = chain(static_model());
        let quiet: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([true]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let faults = every_gate(&s, 50.0);
        let verdicts = grade(&s, &faults, &quiet, (0.8, None), 45.0, &serial()).unwrap();
        assert!(verdicts.iter().all(|v| !v.detected));
    }

    #[test]
    fn empty_inputs() {
        let s = chain(static_model());
        assert_eq!(FaultVerdict::coverage(&[]), 0.0);
        let opts = SimOptions::default();
        let verdicts = grade(&s, &[], &toggle_pattern(), (0.8, None), 45.0, &opts).unwrap();
        assert!(verdicts.is_empty());
    }

    /// The per-fault recompile loop [`Launch::Faults`] replaced, kept
    /// as its oracle: the fault-free artifact and one artifact
    /// recompiled per fault from an annotation with `δ` added to every
    /// pin of the fault site, each launched on its own with every
    /// waveform kept — as a one-die constant-schedule scenario when a die
    /// is given — and each output read at the capture time.
    pub(crate) fn recompile_oracle(
        compiled: &CompiledNetlist,
        faults: &[SmallDelayFault],
        patterns: &PatternSet,
        (voltage, die): (f64, Option<VariationConfig>),
        capture_ps: f64,
    ) -> Vec<FaultVerdict> {
        let opts = SimOptions {
            keep_waveforms: true,
            ..serial()
        };
        let n = patterns.len();
        let scenarios = cross_schedules(n, &[Schedule::constant(voltage)]);
        let slots = crate::slots::at_voltage(n, voltage);
        let launch = |artifact: &CompiledNetlist| {
            let request = match die {
                None => Launch::Uniform(&slots),
                Some(variation) => Launch::Scenarios {
                    scenarios: &scenarios,
                    mc: Some(MonteCarlo {
                        samples: 1,
                        variation,
                    }),
                    capture_deadline_ps: None,
                },
            };
            artifact.launch(patterns, request, &opts).unwrap()
        };
        let captures = |run: &SimRun| -> Vec<Vec<bool>> {
            let outputs = compiled.netlist().outputs();
            run.slots
                .iter()
                .map(|slot| {
                    let waveforms = slot.waveforms.as_ref().expect("kept");
                    outputs
                        .iter()
                        .map(|&po| waveforms[po.index()].value_at(capture_ps))
                        .collect()
                })
                .collect()
        };
        let golden = captures(&launch(compiled));
        faults
            .iter()
            .map(|&fault| {
                let mut annotation = compiled.annotation().as_ref().clone();
                for d in annotation.node_delays_mut(fault.node).iter_mut() {
                    *d = PinDelays {
                        rise: d.rise + fault.delta_ps,
                        fall: d.fall + fault.delta_ps,
                    };
                }
                let faulty = CompiledNetlist::compile(
                    Arc::clone(compiled.netlist()),
                    Arc::new(annotation),
                    Arc::clone(compiled.model()),
                )
                .unwrap();
                let run = launch(&faulty);
                let mut detected_by = None;
                let mut worst_overshoot = f64::NEG_INFINITY;
                for (pi, (slot, captured)) in run.slots.iter().zip(captures(&run)).enumerate() {
                    let late = slot
                        .latest_output_transition_ps
                        .map_or(f64::NEG_INFINITY, |t| t - capture_ps);
                    worst_overshoot = worst_overshoot.max(late);
                    if detected_by.is_none() && captured != golden[pi] {
                        detected_by = Some(pi);
                    }
                }
                FaultVerdict {
                    fault,
                    detected: detected_by.is_some(),
                    detected_by,
                    worst_overshoot_ps: worst_overshoot.max(-capture_ps),
                }
            })
            .collect()
    }

    /// A verdict list with every float as its bits.
    pub(crate) fn bits(verdicts: &[FaultVerdict]) -> Vec<(usize, u64, bool, Option<usize>, u64)> {
        verdicts
            .iter()
            .map(|v| {
                (
                    v.fault.node.index(),
                    v.fault.delta_ps.to_bits(),
                    v.detected,
                    v.detected_by,
                    v.worst_overshoot_ps.to_bits(),
                )
            })
            .collect()
    }

    /// `netlist` compiled against a fast characterization of the cells
    /// it uses.
    pub(crate) fn characterized(netlist: avfs_netlist::Netlist) -> Arc<CompiledNetlist> {
        let netlist = Arc::new(netlist);
        let mut cells: Vec<CellId> = netlist
            .iter()
            .filter_map(|(_, node)| match node.kind() {
                NodeKind::Gate(cell) => Some(cell),
                _ => None,
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let chars = avfs_delay::characterize::characterize_library(
            netlist.library(),
            &avfs_spice::Technology::nm15(),
            &avfs_delay::characterize::CharacterizationConfig::fast(),
            Some(&cells),
        )
        .unwrap();
        Arc::new(CompiledNetlist::from_characterization(netlist, &chars).unwrap())
    }

    /// The acceptance matrix: one launch grades exactly like the
    /// recompile oracle — `detected`, `detected_by` and the overshoot's
    /// bits — on the inverter chain, `c17` and an 8-bit adder, at two
    /// supplies, on the nominal die and one varied die, at threads
    /// {1, 4} × lanes {1, 8}, and with a one-transition arena that sends
    /// glitching slots through retry rounds.
    #[test]
    fn one_launch_grades_like_the_per_fault_recompile_oracle() {
        let lib = CellLibrary::nangate15_like();
        let lfsr =
            |compiled: &CompiledNetlist| PatternSet::lfsr(compiled.netlist().inputs().len(), 32, 5);
        let c17 = characterized(avfs_circuits::c17(&lib).unwrap());
        let adder = characterized(avfs_circuits::ripple_carry_adder(8, &lib).unwrap());
        // The adder glitches, so a one-transition arena runs retry rounds.
        let one_transition = SimOptions {
            arena_capacity: 1,
            ..serial()
        };
        let slots = crate::slots::at_voltage(32, 0.7);
        let retried = adder.launch(&lfsr(&adder), &slots, &one_transition);
        assert!(retried.unwrap().diagnostics.slot_retries > 0);
        let circuits = [
            ("chain", chain(static_model()), toggle_pattern()),
            ("c17", Arc::clone(&c17), lfsr(&c17)),
            ("adder", Arc::clone(&adder), lfsr(&adder)),
        ];
        let die = VariationConfig::sigma5(0xFA17);
        for (name, compiled, patterns) in circuits {
            let arrival = compiled
                .launch(
                    &patterns,
                    &crate::slots::at_voltage(patterns.len(), 0.8),
                    &serial(),
                )
                .unwrap()
                .latest_arrival_at(0.8)
                .expect("toggles");
            let capture = arrival * 1.1;
            // Three fault sizes, so some faults hide and some show.
            let faults: Vec<SmallDelayFault> = every_gate(&compiled, arrival * 0.1)
                .into_iter()
                .enumerate()
                .map(|(i, f)| SmallDelayFault {
                    delta_ps: f.delta_ps * [0.5, 1.0, 2.0][i % 3],
                    ..f
                })
                .collect();
            let (mut detected, mut hidden) = (0, 0);
            for voltage in [0.7, 0.8] {
                for die in [None, Some(die)] {
                    let point = (voltage, die);
                    let want = recompile_oracle(&compiled, &faults, &patterns, point, capture);
                    detected += want.iter().filter(|v| v.detected).count();
                    hidden += want.iter().filter(|v| !v.detected).count();
                    let mut options: Vec<SimOptions> = [1, 4]
                        .into_iter()
                        .flat_map(|threads| {
                            [1, 8].map(|lanes| SimOptions {
                                threads,
                                lanes,
                                ..SimOptions::default()
                            })
                        })
                        .collect();
                    options.push(SimOptions {
                        threads: 4,
                        arena_capacity: 1,
                        ..SimOptions::default()
                    });
                    for opts in options {
                        let got =
                            grade(&compiled, &faults, &patterns, point, capture, &opts).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{name} at {voltage} V, die {die:?}, threads {}, lanes {}, cap {}",
                            opts.threads,
                            opts.lanes,
                            opts.arena_capacity
                        );
                    }
                }
            }
            assert!(detected > 0 && hidden > 0, "{name}: {detected} / {hidden}");
        }
    }

    /// [`StaticModel`] counting its kernel evaluations.
    #[derive(Debug)]
    struct CountingModel {
        inner: StaticModel,
        calls: AtomicUsize,
    }

    impl DelayModel for CountingModel {
        fn factor(
            &self,
            cell: CellId,
            pin: usize,
            polarity: Polarity,
            p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.factor(cell, pin, polarity, p)
        }
        fn name(&self) -> &str {
            "counting"
        }
        fn space(&self) -> &ParameterSpace {
            self.inner.space()
        }
    }

    /// A fault grading is one launch on one artifact: a single table
    /// build — every pin of the chain, rise and fall — plus each faulted
    /// gate's pins once. A recompile per fault would build the table once
    /// per artifact, five times here.
    #[test]
    fn one_run_is_one_launch_on_one_artifact() {
        let model = Arc::new(CountingModel {
            inner: StaticModel::new(ParameterSpace::paper()),
            calls: AtomicUsize::new(0),
        });
        let s = chain(model.clone());
        let faults = every_gate(&s, 10.0);
        let calls = || model.calls.load(Ordering::Relaxed);
        let run = || grade(&s, &faults, &toggle_pattern(), (0.8, None), 45.0, &serial()).unwrap();
        assert_eq!(run().len(), 4);
        assert_eq!(calls(), 2 * 4 + 2 * 4);
        // The artifact's table serves the next run at that supply: only
        // the faulted gates are scaled again.
        run();
        assert_eq!(calls(), 16 + 2 * 4);
    }

    /// Capture times no arrival can be judged against, and faults the
    /// launch could not apply, are typed errors — not a simulator that
    /// detects nothing, a silent no-op or an index panic.
    #[test]
    fn unusable_capture_times_and_faults_are_typed_errors() {
        let s = chain(static_model());
        for capture in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                grade(&s, &[], &toggle_pattern(), (0.8, None), capture, &serial()),
                Err(SimError::InvalidCaptureTime { .. })
            ));
        }
        let netlist = Arc::clone(s.netlist());
        let input = netlist.inputs()[0];
        let output = netlist.outputs()[0];
        let gate = netlist.find("g2").unwrap();
        let grade_one = |node: NodeId, delta_ps: f64| {
            let faults = [
                SmallDelayFault {
                    node: netlist.find("g0").unwrap(),
                    delta_ps: 1.0,
                },
                SmallDelayFault { node, delta_ps },
            ];
            grade(&s, &faults, &toggle_pattern(), (0.8, None), 45.0, &serial())
        };
        for node in [input, output, NodeId::from_index(netlist.num_nodes())] {
            assert_eq!(
                grade_one(node, 1.0).unwrap_err(),
                SimError::FaultSite {
                    fault: 1,
                    node: node.index(),
                }
            );
        }
        for delta in [-10.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                grade_one(gate, delta).unwrap_err(),
                SimError::InvalidDelay {
                    gate: "g2".to_owned(),
                    pin: 0,
                }
            );
        }
        // Down to a zero-delay gate is a usable fault.
        assert!(grade_one(gate, -10.0).is_ok());
        let bad_die = VariationConfig {
            sigma: f64::NAN,
            ..VariationConfig::sigma5(1)
        };
        assert!(matches!(
            grade(
                &s,
                &[],
                &toggle_pattern(),
                (0.8, Some(bad_die)),
                45.0,
                &serial()
            ),
            Err(SimError::InvalidVariation { .. })
        ));
    }
}
