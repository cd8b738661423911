//! Serial event-driven time simulation — the conventional baseline.
//!
//! This is the algorithm class of the "serial commercial event-driven
//! logic level time simulator" the paper benchmarks against (Table I,
//! columns 4–5): a global time-ordered event queue, per-event gate
//! re-evaluation, and inertial cancellation of overtaken output
//! transitions. The delay semantics match the levelized engine exactly
//! (same pin-to-pin delays, same overtaking rule, same tie-breaking by
//! pin order), so on any feed-forward circuit both simulators produce
//! identical waveforms — a property the integration tests exploit as a
//! cross-validation oracle.
//!
//! Supports static delays only, like the commercial tool: parametric
//! evaluation with this baseline requires a full re-annotation and re-run
//! per operating point, which is precisely the scalability wall the paper
//! attacks.

use crate::phases;
use crate::results::{RunDiagnostics, SimRun, SlotResult, SlotStatus};
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::{zero_delay_values, PatternSet};
use avfs_delay::TimingAnnotation;
use avfs_inject::{FaultPlan, InjectionSite, Injector};
use avfs_netlist::{Levelization, Netlist, NodeId, NodeKind};
use avfs_obs::{Histogram, Metrics};
use avfs_waveform::{SwitchingActivity, Waveform, WaveformStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A time value with a total order (no NaNs may enter the queue).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The serial event-driven simulator.
#[derive(Debug, Clone)]
pub struct EventDrivenSimulator {
    netlist: Arc<Netlist>,
    levels: Arc<Levelization>,
    annotation: Arc<TimingAnnotation>,
}

/// Result of one event-driven pattern simulation.
#[derive(Debug, Clone)]
pub struct EventDrivenOutcome {
    /// Final waveform of every net.
    pub waveforms: Vec<Waveform>,
    /// Number of committed events (net transitions).
    pub events: u64,
}

impl EventDrivenSimulator {
    /// Creates the baseline simulator.
    ///
    /// # Errors
    ///
    /// * [`SimError::AnnotationMismatch`] if the annotation does not cover
    ///   the netlist,
    /// * [`SimError::NonPositiveDelay`] if any gate pin delay is not
    ///   strictly positive (zero-delay gates would make event cancellation
    ///   ambiguous at equal timestamps; annotate first).
    pub fn new(
        netlist: Arc<Netlist>,
        annotation: Arc<TimingAnnotation>,
    ) -> Result<EventDrivenSimulator, SimError> {
        if !annotation.matches(&netlist) {
            return Err(SimError::AnnotationMismatch);
        }
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    let d = annotation.pin_delays(id, pin);
                    if d.rise <= 0.0 || d.fall <= 0.0 {
                        return Err(SimError::NonPositiveDelay {
                            gate: node.name().to_owned(),
                        });
                    }
                }
            }
        }
        let levels = Arc::new(Levelization::of(&netlist)?);
        Ok(EventDrivenSimulator {
            netlist,
            levels,
            annotation,
        })
    }

    /// Simulates every slot serially (the baseline has no slot
    /// parallelism; its `voltage` field is ignored — static delays only).
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as the engine.
    pub fn run(
        &self,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        keep_waveforms: bool,
    ) -> Result<SimRun, SimError> {
        self.run_profiled(patterns, slots, keep_waveforms, false)
    }

    /// Like [`EventDrivenSimulator::run`], optionally collecting a
    /// performance profile into [`SimRun::profile`]: total simulation time
    /// ([`phases::ED_SIMULATE`]), committed events
    /// ([`phases::ED_EVENTS`]) and a queue-depth histogram sampled once
    /// per simulation time step ([`phases::ED_QUEUE_DEPTH`]). Simulation
    /// results are bit-for-bit identical with profiling on or off.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`EventDrivenSimulator::run`].
    pub fn run_profiled(
        &self,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        keep_waveforms: bool,
        profiling: bool,
    ) -> Result<SimRun, SimError> {
        self.run_with_plan(patterns, slots, keep_waveforms, profiling, None)
    }

    /// [`EventDrivenSimulator::run_profiled`] with an optional armed
    /// fault plan, giving the baseline the same per-slot fault envelope
    /// as the engine: a panicking slot — organic or injected
    /// ([`InjectionSite::KernelPanic`] keyed by the slot index, salt 0) —
    /// is contained via `catch_unwind` and reported as
    /// [`SlotStatus::Panicked`] in slot results and
    /// [`RunDiagnostics::panicked_slots`], while every healthy slot is
    /// reported [`SlotStatus::Completed`]. Like the engine, a run in
    /// which *no* slot completes returns [`SimError::AllSlotsFailed`].
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as
    /// [`EventDrivenSimulator::run`], plus [`SimError::AllSlotsFailed`]
    /// on total loss.
    pub fn run_with_plan(
        &self,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        keep_waveforms: bool,
        profiling: bool,
        plan: Option<&Arc<FaultPlan>>,
    ) -> Result<SimRun, SimError> {
        if slots.is_empty() {
            return Err(SimError::EmptySlots);
        }
        let width = self.netlist.inputs().len();
        for pair in patterns {
            if pair.width() != width {
                return Err(SimError::PatternWidth {
                    expected: width,
                    got: pair.width(),
                });
            }
        }
        let injector = plan.map_or_else(Injector::unarmed, |p| Injector::armed(Arc::clone(p)));
        let fired_before = plan.map_or(0, |p| p.total_fired());
        let metrics = profiling.then(|| Metrics::new("event_driven"));
        let mut depth_hist = profiling.then(Histogram::new);
        let mut total_events = 0u64;
        let simulate_span = metrics.as_ref().map(|m| m.span(phases::ED_SIMULATE));
        let start = Instant::now();
        let mut diag = RunDiagnostics::default();
        let mut results = Vec::with_capacity(slots.len());
        for (i, spec) in slots.iter().enumerate() {
            let pair = patterns
                .pairs()
                .get(spec.pattern)
                .ok_or(SimError::BadPatternIndex {
                    index: spec.pattern,
                    available: patterns.len(),
                })?;
            // Per-slot containment, exactly like the engine's: a panic —
            // injected or organic — fails this slot, not the run. The
            // queue-depth histogram may hold samples from the aborted
            // slot; the depth distribution is observational only.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injector.fires(InjectionSite::KernelPanic, i as u64, 0) {
                    panic!("injected kernel panic (slot {i})");
                }
                self.simulate_pair_sampled(pair, 0.0, depth_hist.as_mut())
            }));
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(_) => {
                    results.push(SlotResult::failed(*spec, SlotStatus::Panicked));
                    diag.panicked_slots.push(i);
                    diag.failed_slots.push(i);
                    continue;
                }
            };
            total_events += outcome.events;
            let mut responses = Vec::with_capacity(self.netlist.outputs().len());
            let mut latest: Option<f64> = None;
            for &po in self.netlist.outputs() {
                let stats = WaveformStats::of(&outcome.waveforms[po.index()]);
                responses.push(stats.final_value);
                latest = match (latest, stats.latest_transition) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            let activity = SwitchingActivity::of(outcome.waveforms.iter());
            results.push(SlotResult {
                spec: *spec,
                status: SlotStatus::Completed { retries: 0 },
                responses,
                latest_output_transition_ps: latest,
                activity,
                waveforms: keep_waveforms.then_some(outcome.waveforms),
            });
        }
        diag.faults_injected = plan
            .map_or(0, |p| p.total_fired())
            .saturating_sub(fired_before);
        if results.iter().all(|s| !s.status.is_completed()) {
            return Err(SimError::AllSlotsFailed {
                slots: results.len(),
            });
        }
        let elapsed = start.elapsed();
        if let Some(span) = simulate_span {
            span.finish();
        }
        if let Some(m) = &metrics {
            m.add(phases::ED_EVENTS, total_events);
            if let Some(h) = &depth_hist {
                m.merge_histogram(phases::ED_QUEUE_DEPTH, h);
            }
        }
        Ok(SimRun {
            slots: results,
            elapsed,
            node_evaluations: (self.netlist.num_nodes() as u64) * (slots.len() as u64),
            diagnostics: diag,
            profile: metrics.as_ref().map(Metrics::snapshot),
            scenario: None,
        })
    }

    /// Simulates one pattern pair, returning all net waveforms.
    pub fn simulate_pair(
        &self,
        pair: &avfs_atpg::pattern::PatternPair,
        launch_time_ps: f64,
    ) -> EventDrivenOutcome {
        self.simulate_pair_sampled(pair, launch_time_ps, None)
    }

    /// [`EventDrivenSimulator::simulate_pair`] with optional queue-depth
    /// sampling: when `depth` is present, the pending-heap size (alive and
    /// lazily cancelled entries alike) is recorded once per simulation
    /// time step. Sampling never changes the schedule.
    fn simulate_pair_sampled(
        &self,
        pair: &avfs_atpg::pattern::PatternPair,
        launch_time_ps: f64,
        mut depth: Option<&mut Histogram>,
    ) -> EventDrivenOutcome {
        let n = self.netlist.num_nodes();
        // Settle the launch vector: initial values of all nets.
        let initial = zero_delay_values(&self.netlist, &self.levels, &pair.launch);

        // Per-net committed transition lists.
        let mut transitions: Vec<Vec<f64>> = vec![Vec::new(); n];
        // Per-gate live input snapshot (indexed by node, pin).
        let mut gate_inputs: Vec<Vec<bool>> = self
            .netlist
            .nodes()
            .iter()
            .map(|node| node.fanin().iter().map(|f| initial[f.index()]).collect())
            .collect();
        // Per-node pending (scheduled, uncommitted) transitions: sorted
        // ascending, identified for lazy cancellation.
        let mut pending: Vec<Vec<(f64, u64)>> = vec![Vec::new(); n];
        let mut scheduled_value: Vec<bool> = initial.clone();
        let mut alive: Vec<bool> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(Time, usize, u64)>> = BinaryHeap::new();
        let mut events: u64 = 0;

        let schedule = |node: usize,
                        tt: f64,
                        new_out: bool,
                        pending: &mut Vec<Vec<(f64, u64)>>,
                        scheduled_value: &mut Vec<bool>,
                        alive: &mut Vec<bool>,
                        heap: &mut BinaryHeap<Reverse<(Time, usize, u64)>>| {
            if new_out == scheduled_value[node] {
                return;
            }
            // Inertial cancellation: drop overtaken transitions.
            while let Some(&(t_last, id_last)) = pending[node].last() {
                if t_last >= tt {
                    pending[node].pop();
                    alive[id_last as usize] = false;
                    scheduled_value[node] = !scheduled_value[node];
                } else {
                    break;
                }
            }
            if scheduled_value[node] != new_out {
                let id = alive.len() as u64;
                alive.push(true);
                pending[node].push((tt, id));
                heap.push(Reverse((Time(tt), node, id)));
                scheduled_value[node] = new_out;
            }
        };

        // Launch events: PIs that differ between the two vectors.
        for (k, &pi) in self.netlist.inputs().iter().enumerate() {
            if pair.launch.bit(k) != pair.capture.bit(k) {
                let id = alive.len() as u64;
                alive.push(true);
                pending[pi.index()].push((launch_time_ps, id));
                scheduled_value[pi.index()] = pair.capture.bit(k);
                heap.push(Reverse((Time(launch_time_ps), pi.index(), id)));
            }
        }

        let mut values = initial.clone();
        let mut committed: Vec<usize> = Vec::new();
        let mut eval_buf: Vec<bool> = Vec::new();
        while let Some(&Reverse((Time(t), _, _))) = heap.peek() {
            if let Some(h) = depth.as_deref_mut() {
                h.record(heap.len() as u64);
            }
            // Phase 1: commit every alive event at exactly time t.
            committed.clear();
            while let Some(&Reverse((Time(t2), node, id))) = heap.peek() {
                if t2 > t {
                    break;
                }
                heap.pop();
                if !alive[id as usize] {
                    continue;
                }
                debug_assert_eq!(
                    pending[node].first().map(|&(_, i)| i),
                    Some(id),
                    "commits must pop pending entries in order"
                );
                pending[node].remove(0);
                values[node] = !values[node];
                transitions[node].push(t);
                events += 1;
                committed.push(node);
            }

            // Phase 2: deliver to sinks. Collect changed pins per gate so
            // simultaneous events replay in pin order (matching the
            // levelized merge's tie-break).
            let mut affected: Vec<(usize, usize)> = Vec::new(); // (gate, pin)
            for &src in &committed {
                let src_id = NodeId::from_index(src);
                for &sink in self.netlist.node(src_id).fanout() {
                    match self.netlist.node(sink).kind() {
                        NodeKind::Output => {
                            // Zero-delay observation copy.
                            values[sink.index()] = !values[sink.index()];
                            transitions[sink.index()].push(t);
                        }
                        NodeKind::Gate(_) => {
                            // The same net may drive several pins of one
                            // gate; deliver to every matching pin (the
                            // duplicate fanout entries collapse in the
                            // dedup below).
                            for (pin, &f) in self.netlist.node(sink).fanin().iter().enumerate() {
                                if f.index() == src {
                                    affected.push((sink.index(), pin));
                                }
                            }
                        }
                        NodeKind::Input => unreachable!("inputs have no fanin"),
                    }
                }
            }
            affected.sort_unstable();
            affected.dedup();
            for &(gate, pin) in &affected {
                let gate_id = NodeId::from_index(gate);
                gate_inputs[gate][pin] = !gate_inputs[gate][pin];
                let cell = self.netlist.cell_of(gate_id).expect("gate has a cell");
                eval_buf.clear();
                eval_buf.extend_from_slice(&gate_inputs[gate]);
                let new_out = cell.eval(&eval_buf);
                if new_out != scheduled_value[gate] {
                    let d = self.annotation.pin_delays(gate_id, pin);
                    let tt = t + d.for_output(new_out);
                    schedule(
                        gate,
                        tt,
                        new_out,
                        &mut pending,
                        &mut scheduled_value,
                        &mut alive,
                        &mut heap,
                    );
                }
            }
        }

        let waveforms = (0..n)
            .map(|i| {
                Waveform::with_transitions(initial[i], std::mem::take(&mut transitions[i]))
                    .expect("event times are strictly increasing per net")
            })
            .collect();
        EventDrivenOutcome { waveforms, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNetlist;
    use crate::engine::SimOptions;
    use crate::slots::at_voltage;
    use avfs_atpg::pattern::{Pattern, PatternPair};
    use avfs_delay::{ParameterSpace, StaticModel};
    use avfs_netlist::{CellLibrary, NetlistBuilder};
    use avfs_waveform::PinDelays;

    fn annotate_static(netlist: &Netlist, seed: u64) -> TimingAnnotation {
        // Deterministic, varied, strictly positive delays.
        let mut ann = TimingAnnotation::zero(netlist);
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1.0 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 19.0
        };
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays {
                        rise: next(),
                        fall: next(),
                    };
                }
            }
        }
        ann
    }

    fn inverter_chain() -> Arc<Netlist> {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "NAND2_X1", &[a, g1]).unwrap();
        b.add_output("y", g2).unwrap();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn rejects_zero_delays() {
        let n = inverter_chain();
        let ann = Arc::new(TimingAnnotation::zero(&n));
        assert!(matches!(
            EventDrivenSimulator::new(Arc::clone(&n), ann),
            Err(SimError::NonPositiveDelay { .. })
        ));
    }

    #[test]
    fn matches_levelized_engine_small() {
        let n = inverter_chain();
        let ann = Arc::new(annotate_static(&n, 3));
        let ed = EventDrivenSimulator::new(Arc::clone(&n), Arc::clone(&ann)).unwrap();
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
        let slots = at_voltage(1, 0.8);
        let opts = SimOptions {
            threads: 1,
            keep_waveforms: true,
            ..SimOptions::default()
        };
        let run_engine = engine.launch(&patterns, &slots, &opts).unwrap();
        let run_ed = ed.run(&patterns, &slots, true).unwrap();
        let wf_a = run_engine.slots[0].waveforms.as_ref().unwrap();
        let wf_b = run_ed.slots[0].waveforms.as_ref().unwrap();
        for (id, node) in n.iter() {
            assert_eq!(
                wf_a[id.index()],
                wf_b[id.index()],
                "waveform mismatch on {} ({})",
                node.name(),
                id
            );
        }
    }

    #[test]
    fn cross_validation_random_circuits() {
        // The load-bearing oracle test: on random circuits with random
        // positive delays, the event-driven baseline and the levelized
        // engine must agree net-for-net, transition-for-transition.
        let lib = CellLibrary::nangate15_like();
        for seed in 0..4u64 {
            let cfg = avfs_circuits::GeneratorConfig {
                nodes: 120,
                inputs: 10,
                outputs: 10,
                depth: 8,
                two_input_fraction: 0.7,
            };
            let n = Arc::new(avfs_circuits::random_netlist("xval", &cfg, &lib, seed).unwrap());
            let ann = Arc::new(annotate_static(&n, seed.wrapping_mul(77).wrapping_add(1)));
            let ed = EventDrivenSimulator::new(Arc::clone(&n), Arc::clone(&ann)).unwrap();
            let engine = CompiledNetlist::compile(
                Arc::clone(&n),
                Arc::clone(&ann),
                Arc::new(StaticModel::new(ParameterSpace::paper())),
            )
            .unwrap();
            let patterns = PatternSet::lfsr(n.inputs().len(), 6, seed + 5);
            let slots = at_voltage(patterns.len(), 0.8);
            let opts = SimOptions {
                threads: 1,
                keep_waveforms: true,
                ..SimOptions::default()
            };
            let run_a = engine.launch(&patterns, &slots, &opts).unwrap();
            let run_b = ed.run(&patterns, &slots, true).unwrap();
            for (sa, sb) in run_a.slots.iter().zip(&run_b.slots) {
                let wa = sa.waveforms.as_ref().unwrap();
                let wb = sb.waveforms.as_ref().unwrap();
                for (id, node) in n.iter() {
                    assert_eq!(
                        wa[id.index()],
                        wb[id.index()],
                        "seed {seed}: mismatch on {} pattern {}",
                        node.name(),
                        sa.spec.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn event_count_reported() {
        let n = inverter_chain();
        let ann = Arc::new(annotate_static(&n, 9));
        let ed = EventDrivenSimulator::new(Arc::clone(&n), ann).unwrap();
        let pair =
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap();
        let outcome = ed.simulate_pair(&pair, 0.0);
        assert!(outcome.events >= 2, "at least PI and one gate switch");
        // Constant pair: no events at all.
        let quiet =
            PatternPair::new(Pattern::from_bits([true]), Pattern::from_bits([true])).unwrap();
        assert_eq!(ed.simulate_pair(&quiet, 0.0).events, 0);
    }

    #[test]
    fn injected_panic_contained_per_slot() {
        // Baseline parity with the engine's fault envelope: injected
        // panics fail exactly the predicted slots, healthy slots report
        // Completed, and the diagnostics carry the loss.
        let n = inverter_chain();
        let ann = Arc::new(annotate_static(&n, 5));
        let ed = EventDrivenSimulator::new(Arc::clone(&n), ann).unwrap();
        let patterns: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let slots: Vec<SlotSpec> = (0..4)
            .map(|_| SlotSpec {
                pattern: 0,
                voltage: 0.8,
            })
            .collect();
        let plan = Arc::new(
            avfs_inject::FaultPlan::empty(11)
                .with_rate(avfs_inject::InjectionSite::KernelPanic, 0.5),
        );
        let run = ed
            .run_with_plan(&patterns, &slots, false, false, Some(&plan))
            .unwrap();
        let mut panicked = Vec::new();
        for (i, slot) in run.slots.iter().enumerate() {
            if plan.decide(avfs_inject::InjectionSite::KernelPanic, i as u64, 0) {
                panicked.push(i);
                assert_eq!(slot.status, SlotStatus::Panicked, "slot {i}");
                assert!(slot.responses.is_empty());
            } else {
                assert_eq!(
                    slot.status,
                    SlotStatus::Completed { retries: 0 },
                    "slot {i}"
                );
            }
        }
        assert!(!panicked.is_empty() && panicked.len() < 4, "{panicked:?}");
        assert_eq!(run.diagnostics.panicked_slots, panicked);
        assert_eq!(run.diagnostics.failed_slots, panicked);
        assert_eq!(run.diagnostics.faults_injected, plan.total_fired());
        // Rate 1.0 fails every slot — a total loss is an error here too.
        let all = Arc::new(
            avfs_inject::FaultPlan::empty(11)
                .with_rate(avfs_inject::InjectionSite::KernelPanic, 1.0),
        );
        assert!(matches!(
            ed.run_with_plan(&patterns, &slots, false, false, Some(&all)),
            Err(SimError::AllSlotsFailed { slots: 4 })
        ));
    }

    #[test]
    fn clean_runs_report_completed_status() {
        let n = inverter_chain();
        let ann = Arc::new(annotate_static(&n, 9));
        let ed = EventDrivenSimulator::new(Arc::clone(&n), ann).unwrap();
        let patterns: PatternSet = std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect();
        let run = ed.run(&patterns, &at_voltage(1, 0.8), false).unwrap();
        assert_eq!(run.slots[0].status, SlotStatus::Completed { retries: 0 });
        assert!(run.is_complete());
        assert_eq!(run.diagnostics.faults_injected, 0);
        assert!(run.diagnostics.panicked_slots.is_empty());
    }
}
