//! Small-delay-fault simulation on top of the parametric engine.
//!
//! Small (gate) delay faults are the headline application of the paper's
//! simulator family (its reference \[28\], "GPU-Accelerated Simulation of
//! Small Delay Faults", and the small-delay test motivation of the
//! introduction): a defect adds an extra delay `δ` at one node; a pattern
//! pair *detects* it if any primary output either changes its captured
//! value at the capture time or settles later than the fault-free run.
//!
//! This module simulates a fault list by annotation perturbation: each
//! fault gets a derived [`TimingAnnotation`] with `δ` added to every pin
//! of the fault site, reusing the unmodified engine. Detection is judged
//! against a capture period.

use crate::compile::CompiledNetlist;
use crate::engine::SimOptions;
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::model::DelayModel;
use avfs_delay::TimingAnnotation;
use avfs_netlist::{Netlist, NodeId, NodeKind};
use avfs_waveform::PinDelays;
use std::sync::Arc;

/// One small-delay fault: extra delay at a node's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallDelayFault {
    /// The fault site (a gate node).
    pub node: NodeId,
    /// The extra delay, ps.
    pub delta_ps: f64,
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

/// Small-delay fault simulator.
pub struct DelayFaultSimulator {
    netlist: Arc<Netlist>,
    annotation: Arc<TimingAnnotation>,
    model: Arc<dyn DelayModel>,
    /// Capture period: outputs are sampled at this time, ps.
    capture_ps: f64,
}

impl DelayFaultSimulator {
    /// Creates a fault simulator sampling outputs at `capture_ps`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AnnotationMismatch`] on shape mismatch.
    pub fn new(
        netlist: Arc<Netlist>,
        annotation: Arc<TimingAnnotation>,
        model: Arc<dyn DelayModel>,
        capture_ps: f64,
    ) -> Result<DelayFaultSimulator, SimError> {
        if !annotation.matches(&netlist) {
            return Err(SimError::AnnotationMismatch);
        }
        Ok(DelayFaultSimulator {
            netlist,
            annotation,
            model,
            capture_ps,
        })
    }

    /// The capture period.
    pub fn capture_ps(&self) -> f64 {
        self.capture_ps
    }

    /// Builds the candidate fault list: one fault of size `delta_ps` per
    /// gate node.
    pub fn full_fault_list(&self, delta_ps: f64) -> Vec<SmallDelayFault> {
        self.netlist
            .iter()
            .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
            .map(|(id, _)| SmallDelayFault { node: id, delta_ps })
            .collect()
    }

    /// Simulates the fault-free reference and every fault at `voltage`,
    /// returning per-fault verdicts.
    ///
    /// Detection criterion per pattern: a primary output's value *at the
    /// capture time* differs from the fault-free run, or the output
    /// settles after the capture time while the fault-free run settled
    /// before it.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run(
        &self,
        faults: &[SmallDelayFault],
        patterns: &PatternSet,
        voltage: f64,
        options: &SimOptions,
    ) -> Result<Vec<FaultVerdict>, SimError> {
        let slots: Vec<SlotSpec> = crate::slots::at_voltage(patterns.len(), voltage);
        let mut opts = options.clone();
        opts.keep_waveforms = true;

        // Fault-free reference captures.
        let golden_engine = CompiledNetlist::compile(
            Arc::clone(&self.netlist),
            Arc::clone(&self.annotation),
            Arc::clone(&self.model),
        )?;
        let golden = golden_engine.launch(patterns, &slots, &opts)?;
        let golden_captures: Vec<Vec<bool>> = golden
            .slots
            .iter()
            .map(|s| self.captures(s.waveforms.as_ref().expect("kept")))
            .collect();

        let mut verdicts = Vec::with_capacity(faults.len());
        for &fault in faults {
            let faulty_annotation = Arc::new(self.inject(fault));
            let engine = CompiledNetlist::compile(
                Arc::clone(&self.netlist),
                faulty_annotation,
                Arc::clone(&self.model),
            )?;
            let run = engine.launch(patterns, &slots, &opts)?;
            let mut detected_by = None;
            let mut worst_overshoot = f64::NEG_INFINITY;
            for (pi, slot) in run.slots.iter().enumerate() {
                let wfs = slot.waveforms.as_ref().expect("kept");
                let captures = self.captures(wfs);
                let late = slot
                    .latest_output_transition_ps
                    .map_or(f64::NEG_INFINITY, |t| t - self.capture_ps);
                worst_overshoot = worst_overshoot.max(late);
                if detected_by.is_none() && captures != golden_captures[pi] {
                    detected_by = Some(pi);
                }
            }
            verdicts.push(FaultVerdict {
                fault,
                detected: detected_by.is_some(),
                detected_by,
                worst_overshoot_ps: worst_overshoot.max(-self.capture_ps),
            });
        }
        Ok(verdicts)
    }

    /// Fault coverage of a verdict list.
    pub fn coverage(verdicts: &[FaultVerdict]) -> f64 {
        if verdicts.is_empty() {
            return 0.0;
        }
        verdicts.iter().filter(|v| v.detected).count() as f64 / verdicts.len() as f64
    }

    /// Output values at the capture time.
    fn captures(&self, waveforms: &[avfs_waveform::Waveform]) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|&po| waveforms[po.index()].value_at(self.capture_ps))
            .collect()
    }

    /// Derives the faulty annotation: `δ` added to every pin delay of the
    /// fault site.
    fn inject(&self, fault: SmallDelayFault) -> TimingAnnotation {
        let mut ann = (*self.annotation).clone();
        for d in ann.node_delays_mut(fault.node).iter_mut() {
            *d = PinDelays {
                rise: d.rise + fault.delta_ps,
                fall: d.fall + fault.delta_ps,
            };
        }
        ann
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_atpg::pattern::{Pattern, PatternPair};
    use avfs_delay::{ParameterSpace, StaticModel};
    use avfs_netlist::{CellLibrary, NetlistBuilder};

    /// Chain of four inverters, 10 ps each → nominal arrival 40 ps.
    fn chain() -> (Arc<Netlist>, Arc<TimingAnnotation>) {
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
        (n, Arc::new(ann))
    }

    fn toggle_pattern() -> PatternSet {
        std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect()
    }

    fn sim(capture: f64) -> DelayFaultSimulator {
        let (n, ann) = chain();
        DelayFaultSimulator::new(
            n,
            ann,
            Arc::new(StaticModel::new(ParameterSpace::paper())),
            capture,
        )
        .unwrap()
    }

    #[test]
    fn tight_capture_detects_small_delta() {
        // Arrival 40 ps, capture 45 ps → δ = 10 pushes past capture.
        let s = sim(45.0);
        let faults = s.full_fault_list(10.0);
        assert_eq!(faults.len(), 4);
        let verdicts = s
            .run(
                &faults,
                &toggle_pattern(),
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(verdicts.iter().all(|v| v.detected), "{verdicts:?}");
        assert!((DelayFaultSimulator::coverage(&verdicts) - 1.0).abs() < 1e-12);
        for v in &verdicts {
            assert_eq!(v.detected_by, Some(0));
            assert!((v.worst_overshoot_ps - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn loose_capture_hides_small_delta() {
        // Capture 100 ps → a 10 ps defect stays invisible ("hidden delay
        // fault", the FAST-BIST motivation the paper cites).
        let s = sim(100.0);
        let faults = s.full_fault_list(10.0);
        let verdicts = s
            .run(
                &faults,
                &toggle_pattern(),
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(verdicts.iter().all(|v| !v.detected));
        assert_eq!(DelayFaultSimulator::coverage(&verdicts), 0.0);
    }

    #[test]
    fn threshold_delta_behaviour() {
        // Capture 45: δ = 4 keeps arrival at 44 < 45 (undetected); δ = 6
        // lands at 46 > 45 (detected).
        let s = sim(45.0);
        let small = s
            .run(
                &s.full_fault_list(4.0),
                &toggle_pattern(),
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(small.iter().all(|v| !v.detected));
        let big = s
            .run(
                &s.full_fault_list(6.0),
                &toggle_pattern(),
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(big.iter().all(|v| v.detected));
    }

    #[test]
    fn quiet_pattern_detects_nothing() {
        let s = sim(45.0);
        let quiet: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([true]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let verdicts = s
            .run(
                &s.full_fault_list(50.0),
                &quiet,
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(verdicts.iter().all(|v| !v.detected));
    }

    #[test]
    fn empty_inputs() {
        let s = sim(45.0);
        assert_eq!(DelayFaultSimulator::coverage(&[]), 0.0);
        let verdicts = s
            .run(&[], &toggle_pattern(), 0.8, &SimOptions::default())
            .unwrap();
        assert!(verdicts.is_empty());
    }
}
