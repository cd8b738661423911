#![allow(clippy::too_many_lines)]

use super::*;
use crate::slots::{at_voltage, cross};
use avfs_delay::model::DelayModel;
use avfs_delay::op::NormalizedPoint;
use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
use avfs_inject::InjectionSite;
use avfs_netlist::{CellLibrary, Netlist, NetlistBuilder, NodeKind};
use avfs_waveform::PinDelays;
use std::time::Duration;

fn chain_netlist() -> Arc<Netlist> {
    let lib = CellLibrary::nangate15_like();
    let mut b = NetlistBuilder::new("chain", &lib);
    let a = b.add_input("a").unwrap();
    let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
    let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
    b.add_output("y", g2).unwrap();
    Arc::new(b.finish().unwrap())
}

fn static_engine(netlist: &Arc<Netlist>, rise: f64, fall: f64) -> CompiledNetlist {
    let mut ann = TimingAnnotation::zero(netlist);
    for (id, node) in netlist.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for pin in 0..node.fanin().len() {
                ann.node_delays_mut(id)[pin] = PinDelays { rise, fall };
            }
        }
    }
    CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::new(ann),
        Arc::new(StaticModel::new(ParameterSpace::paper())),
    )
    .unwrap()
}

fn one_pattern() -> PatternSet {
    use avfs_atpg::pattern::{Pattern, PatternPair};
    std::iter::once(
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
    )
    .collect()
}

#[test]
fn chain_propagates_with_static_delays() {
    let n = chain_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let opts = SimOptions {
        keep_waveforms: true,
        threads: 1,
        ..SimOptions::default()
    };
    let run = engine
        .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
        .unwrap();
    assert_eq!(run.slots.len(), 1);
    let slot = &run.slots[0];
    // Input rises at 0; y (after two inverters) rises at 20.
    assert_eq!(slot.latest_output_transition_ps, Some(20.0));
    assert_eq!(slot.responses, vec![true]);
    let wfs = slot.waveforms.as_ref().unwrap();
    let g1 = n.find("g1").unwrap();
    assert_eq!(wfs[g1.index()].transitions(), &[10.0]);
    assert!(!wfs[g1.index()].final_value());
    assert_eq!(run.node_evaluations, 4);
    assert!(run.meps() >= 0.0);
}

#[test]
fn voltage_slots_share_pattern() {
    let n = chain_netlist();
    let engine = static_engine(&n, 5.0, 7.0);
    let run = engine
        .launch(
            &one_pattern(),
            &cross(1, &[0.6, 0.8, 1.0]),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    // Static model: identical timing regardless of voltage.
    assert_eq!(run.slots.len(), 3);
    let t0 = run.slots[0].latest_output_transition_ps;
    assert!(run
        .slots
        .iter()
        .all(|s| s.latest_output_transition_ps == t0));
    assert_eq!(run.voltages(), vec![0.6, 0.8, 1.0]);
}

/// The packed arena addresses its storage with `u32` offsets, so one
/// slot may reserve at most `WaveformArena::MAX_RESERVATION`
/// transitions. A capacity past that is a typed error before any batch
/// runs (30-node 4-bit adder).
#[test]
fn arena_capacity_past_the_reservation_limit_is_an_error() {
    let lib = CellLibrary::nangate15_like();
    let n = Arc::new(avfs_circuits::ripple_carry_adder(4, &lib).unwrap());
    let engine = static_engine(&n, 8.0, 9.5);
    let nodes = n.num_nodes();
    let capacity = WaveformArena::MAX_RESERVATION / nodes + 1;
    let err = engine
        .launch(
            &PatternSet::lfsr(n.inputs().len(), 2, 3),
            &at_voltage(2, 0.8),
            &SimOptions {
                arena_capacity: capacity,
                ..SimOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err, SimError::InvalidArenaCapacity { capacity, nodes });
}

/// A retry round whose ×4 capacity would pass the arena's reservation
/// limit is never started: `retry_rounds` then resolves the overflowed
/// slots `Overflowed` at the last capacity that fit, the branch
/// exhausted retries take. Decided on the shape alone, so checked here
/// without reserving a quarter of the limit for round 0.
#[test]
fn unaddressable_retry_capacity_is_not_grown() {
    let nodes = 30;
    let last = WaveformArena::MAX_RESERVATION / (CAPACITY_GROWTH * nodes);
    assert_eq!(grown_capacity(nodes, last), Some(CAPACITY_GROWTH * last));
    assert_eq!(max_batch_slots(nodes, CAPACITY_GROWTH * last), 1);
    assert_eq!(grown_capacity(nodes, last + 1), None);
    assert_eq!(grown_capacity(nodes, usize::MAX / 2), None);
    // The batch cut never passes the limit either, whatever the budget.
    assert_eq!(slots_per_batch(usize::MAX, nodes, last, 8, 1, 100), 4);
    assert_eq!(slots_per_batch(usize::MAX, nodes, 64, 8, 1, 100), 100);
}

/// The batch rule: whole lane groups of `L` slots, at least one group
/// per worker and more when the budget reserves more, then clamped to
/// the pending slots and to what the arena can address.
#[test]
fn a_batch_holds_a_lane_group_per_worker() {
    let (nodes, capacity) = (1000, 64);
    let per_slot = nodes * capacity;
    let limit = WaveformArena::MAX_RESERVATION / (3 * nodes);
    assert_eq!(max_batch_slots(nodes, limit), 3);
    for workers in [1usize, 2, 4] {
        for lanes in [1usize, 8] {
            let case = format!("workers={workers}, lanes={lanes}");
            let cut =
                |budget, pending| slots_per_batch(budget, nodes, capacity, lanes, workers, pending);
            // Below one group's reservation: one group per worker.
            for budget in [0, per_slot / 2, (lanes * per_slot).saturating_sub(1)] {
                assert_eq!(
                    cut(budget, 1000),
                    lanes * workers,
                    "{case}, budget={budget}"
                );
            }
            // Above it: the budget's whole groups, when they are more than
            // one per worker.
            for groups in [1usize, 3, 6] {
                let budget = ((groups + 1) * lanes - 1) * per_slot;
                assert_eq!(
                    cut(budget, 1000),
                    lanes * groups.max(workers),
                    "{case}, {groups} groups"
                );
            }
            // Clamped to the pending slots ...
            assert_eq!(cut(6 * lanes * per_slot, 5), 5, "{case}");
            assert_eq!(cut(0, 3), 3.min(lanes * workers), "{case}");
            // ... and to the reservation limit.
            let at_limit = slots_per_batch(usize::MAX, nodes, limit, lanes, workers, 1000);
            assert_eq!(at_limit, 3, "{case}");
            let below = slots_per_batch(0, nodes, limit, lanes, workers, 1000);
            assert_eq!(below, 3.min(lanes * workers), "{case}");
        }
    }
}

/// A profiled run's exact work counts, which every point of a
/// determinism matrix must repeat: the counters any schedule must agree
/// on, and the per-level activity histogram whole. Quiet lanes are
/// tallied by whichever worker ran each task and folded per batch, so a
/// lost fold shows here.
fn work_counts(run: &SimRun) -> (Vec<Option<u64>>, Option<avfs_obs::HistogramStats>) {
    let profile = run.profile.as_ref().expect("profiled");
    let counters = [
        phases::ENGINE_LEVELS,
        phases::ENGINE_BATCHES,
        phases::ENGINE_KERNEL_EVALS,
        phases::ENGINE_DELAY_TABLE_BUILDS,
        phases::ENGINE_DELAY_TABLE_HITS,
        phases::ENGINE_VARIATION_DRAWS,
        phases::ENGINE_GATES_SKIPPED_QUIET,
        phases::ENGINE_QUIET_CELLS,
        phases::ENGINE_RETRY_ROUNDS,
    ]
    .into_iter()
    .map(|name| profile.counter(name))
    .collect();
    let activity = profile.histogram(phases::ENGINE_LEVEL_ACTIVITY).cloned();
    (counters, activity)
}

/// The counts of [`work_counts`] that do not depend on how a launch is
/// cut into batches: what every cut of the same launch must repeat.
fn cut_free_counts(run: &SimRun) -> Vec<Option<u64>> {
    let profile = run.profile.as_ref().expect("profiled");
    [
        phases::ENGINE_KERNEL_EVALS,
        phases::ENGINE_DELAY_TABLE_BUILDS,
        phases::ENGINE_GATES_SKIPPED_QUIET,
        phases::ENGINE_QUIET_CELLS,
        phases::ENGINE_RETRY_ROUNDS,
    ]
    .into_iter()
    .map(|name| profile.counter(name))
    .collect()
}

#[test]
fn quiet_stimuli_resolve_without_pool_tasks() {
    // launch == capture: every stimulus is a constant, so every gate
    // of every level is quiet and the whole run resolves through the
    // quiet scan's constant writes — zero merge-loop tasks.
    use avfs_atpg::pattern::PatternPair;
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 3).unwrap());
    let engine = static_engine(&n, 8.0, 9.0);
    let p = PatternSet::random(n.inputs().len(), 1, 0xBEEF).pairs()[0]
        .launch
        .clone();
    let patterns: PatternSet = std::iter::once(PatternPair::new(p.clone(), p).unwrap()).collect();
    let opts = SimOptions {
        threads: 1,
        profiling: true,
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let run = engine
        .launch(&patterns, &at_voltage(1, 0.8), &opts)
        .unwrap();
    assert!(run.is_complete());
    let gates = n
        .iter()
        .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
        .count() as u64;
    let profile = run.profile.as_ref().unwrap();
    assert_eq!(
        profile.counter(phases::ENGINE_GATES_SKIPPED_QUIET),
        Some(gates),
        "every gate resolved by the quiet fast path"
    );
    assert_eq!(
        profile.counter(phases::ENGINE_QUIET_CELLS),
        Some(n.num_nodes() as u64),
        "every cell stayed quiet"
    );
    let worker_tasks = profile.histogram(phases::ENGINE_POOL_WORKER_TASKS).unwrap();
    assert_eq!(worker_tasks.max, 0, "no lane reached the merge loop");
    // Nothing toggles: every retained waveform is constant, and the
    // constants the scan's bit-parallel evaluation wrote are the values
    // the event-driven baseline settles to.
    assert_eq!(run.slots[0].activity.total_transitions, 0);
    for wf in run.slots[0].waveforms.as_ref().unwrap() {
        assert_eq!(wf.num_transitions(), 0);
    }
    let baseline =
        crate::EventDrivenSimulator::new(Arc::clone(&n), Arc::clone(engine.annotation())).unwrap();
    let oracle = baseline.run(&patterns, &at_voltage(1, 0.8), true).unwrap();
    assert_eq!(run.slots[0].waveforms, oracle.slots[0].waveforms);
    assert_eq!(run.slots[0].responses, oracle.slots[0].responses);
}

#[test]
fn quiet_controlling_inputs_resolve_without_the_merge() {
    // Two NAND2s share the toggling input b; a and c are quiet. A quiet 0
    // controls a NAND: that lane's output is a constant 1 and never
    // reaches the merge, while a quiet 1 does not control it, so the lane
    // merges b alone.
    use avfs_atpg::pattern::{Pattern, PatternPair};
    let lib = CellLibrary::nangate15_like();
    let mut b = NetlistBuilder::new("masked", &lib);
    let a = b.add_input("a").unwrap();
    let toggling = b.add_input("b").unwrap();
    let c = b.add_input("c").unwrap();
    let g1 = b.add_gate("g1", "NAND2_X1", &[a, toggling]).unwrap();
    let g2 = b.add_gate("g2", "NAND2_X1", &[c, toggling]).unwrap();
    b.add_output("y1", g1).unwrap();
    b.add_output("y2", g2).unwrap();
    let n = Arc::new(b.finish().unwrap());
    let engine = static_engine(&n, 4.0, 6.0);
    // (a, b launch, b capture, c): g1 is masked in the first two slots,
    // g2 in the third.
    let patterns: PatternSet = [
        (false, false, true, true),
        (false, true, false, true),
        (true, false, true, false),
    ]
    .into_iter()
    .map(|(a, launch, capture, c)| {
        PatternPair::new(
            Pattern::from_bits([a, launch, c]),
            Pattern::from_bits([a, capture, c]),
        )
        .unwrap()
    })
    .collect();
    let baseline =
        crate::EventDrivenSimulator::new(Arc::clone(&n), Arc::clone(engine.annotation())).unwrap();
    let oracle = baseline.run(&patterns, &at_voltage(3, 0.8), true).unwrap();
    for lanes in [1, 8] {
        let run = engine
            .launch(
                &patterns,
                &at_voltage(3, 0.8),
                &SimOptions {
                    threads: 1,
                    lanes,
                    profiling: true,
                    keep_waveforms: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let profile = run.profile.as_ref().unwrap();
        assert_eq!(
            profile.counter(phases::ENGINE_GATES_SKIPPED_QUIET),
            Some(3),
            "lanes={lanes}: one masked gate per slot"
        );
        let merged = profile.histogram(phases::ENGINE_POOL_WORKER_TASKS).unwrap();
        assert_eq!(
            (merged.count, merged.max),
            (1, 3),
            "lanes={lanes}: only the unmasked lanes reach the merge"
        );
        for (slot, masked) in [(0, g1), (1, g1), (2, g2)] {
            let wf = &run.slots[slot].waveforms.as_ref().unwrap()[masked.index()];
            assert_eq!(wf.num_transitions(), 0, "lanes={lanes} slot {slot}");
            assert!(wf.initial_value(), "lanes={lanes} slot {slot}");
        }
        for (got, want) in run.slots.iter().zip(&oracle.slots) {
            assert_eq!(got.waveforms, want.waveforms, "lanes={lanes}");
            assert_eq!(got.responses, want.responses, "lanes={lanes}");
        }
    }
}

#[test]
fn lane_width_validation() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 7).unwrap());
    let engine = static_engine(&n, 6.0, 7.0);
    let patterns = PatternSet::random(n.inputs().len(), 5, 3);
    let run = |lanes| {
        let opts = SimOptions {
            lanes,
            threads: 1,
            keep_waveforms: true,
            ..SimOptions::default()
        };
        engine.launch(&patterns, &at_voltage(5, 0.8), &opts)
    };
    for lanes in [3usize, 5, 6, 128] {
        assert_eq!(run(lanes).unwrap_err(), SimError::InvalidLanes { lanes });
    }
    // 0 resolves to the default width; every power of two ≤ 64 lays the
    // five slots out as the scalar layout does: widths 2 and 4 end on a
    // 1-lane tail group, width 64 is one partial group wider than the
    // batch.
    let scalar = run(1).unwrap();
    for lanes in [0usize, 2, 4, 64] {
        let got = run(lanes).unwrap();
        assert_eq!(got.slots, scalar.slots, "lanes={lanes}");
        assert_eq!(got.diagnostics, scalar.diagnostics, "lanes={lanes}");
    }

    // The default widens per batch: 144 slots at 2 workers is the widest
    // width that leaves each worker two whole groups — 32, five groups of
    // 32, 32, 32, 32 and 16 — in one batch cut in groups of 8.
    let defaults = SimOptions::default();
    assert_eq!(defaults.batch_lanes(144, 2), 32);
    assert_eq!(defaults.batch_lanes(48, 2), 8, "never below 8");
    assert_eq!(defaults.batch_lanes(144, 1), 64);
    assert_eq!(
        SimOptions {
            lanes: 4,
            ..defaults
        }
        .batch_lanes(144, 2),
        4
    );
    let adder = Arc::new(avfs_circuits::ripple_carry_adder(64, &lib).unwrap());
    let engine = static_engine(&adder, 6.0, 7.0);
    let patterns = PatternSet::random(adder.inputs().len(), 48, 11);
    let slots = cross(patterns.len(), &[0.6, 0.8, 1.0]);
    let run = |lanes| {
        let opts = SimOptions {
            lanes,
            threads: 2,
            keep_waveforms: true,
            profiling: true,
            ..SimOptions::default()
        };
        engine.launch(&patterns, &slots, &opts).unwrap()
    };
    let (wide, scalar) = (run(0), run(1));
    assert_eq!(wide.slots, scalar.slots);
    assert_eq!(wide.diagnostics, scalar.diagnostics);
    let profile = wide.profile.as_ref().unwrap();
    assert_eq!(profile.counter(phases::ENGINE_BATCHES), Some(1));
    let levels = profile.counter(phases::ENGINE_LEVELS).unwrap();
    assert_eq!(
        profile.counter(phases::ENGINE_LANES_GROUPS),
        Some(5 * levels),
        "every one of the five lane groups walks every level"
    );
}

#[test]
fn input_validation() {
    let n = chain_netlist();
    let engine = static_engine(&n, 1.0, 1.0);
    let patterns = one_pattern();
    assert!(matches!(
        engine.launch(&patterns, &[], &SimOptions::default()),
        Err(SimError::EmptySlots)
    ));
    assert!(matches!(
        engine.launch(
            &patterns,
            &[SlotSpec {
                pattern: 7,
                voltage: 0.8
            }],
            &SimOptions::default()
        ),
        Err(SimError::BadPatternIndex {
            index: 7,
            available: 1
        })
    ));
    // Wrong-width pattern.
    use avfs_atpg::pattern::{Pattern, PatternPair};
    let wide: PatternSet =
        std::iter::once(PatternPair::new(Pattern::zeros(3), Pattern::zeros(3)).unwrap()).collect();
    assert!(matches!(
        engine.launch(&wide, &at_voltage(1, 0.8), &SimOptions::default()),
        Err(SimError::PatternWidth {
            expected: 1,
            got: 3
        })
    ));
}

#[test]
fn annotation_mismatch_rejected() {
    let n = chain_netlist();
    let other = {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("other", &lib);
        let a = b.add_input("a").unwrap();
        b.add_output("y", a).unwrap();
        Arc::new(b.finish().unwrap())
    };
    let ann = Arc::new(TimingAnnotation::zero(&other));
    let model = Arc::new(StaticModel::new(ParameterSpace::paper()));
    assert!(matches!(
        CompiledNetlist::compile(Arc::clone(&n), ann, model),
        Err(SimError::AnnotationMismatch)
    ));
}

/// A delay model that panics for operating points at the top of the
/// normalized voltage range — the fault-injection vehicle for the
/// panic-containment tests (distinct voltages form distinct kernel
/// groups, so the panic hits exactly the marker slot).
#[derive(Debug)]
struct PanickyModel {
    inner: StaticModel,
}

impl avfs_delay::model::DelayModel for PanickyModel {
    fn factor(
        &self,
        cell: avfs_netlist::CellId,
        pin: usize,
        polarity: avfs_netlist::library::Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, avfs_delay::DelayError> {
        assert!(p.v < 0.999, "injected fault: poisoned operating point");
        self.inner.factor(cell, pin, polarity, p)
    }
    fn name(&self) -> &str {
        "panicky"
    }
    fn space(&self) -> &ParameterSpace {
        self.inner.space()
    }
}

/// A delay model whose kernel output is garbage (non-finite factors):
/// exercises the online-delay-calculation guard.
#[derive(Debug)]
struct BrokenKernelModel {
    space: ParameterSpace,
}

impl avfs_delay::model::DelayModel for BrokenKernelModel {
    fn factor(
        &self,
        _cell: avfs_netlist::CellId,
        _pin: usize,
        _polarity: avfs_netlist::library::Polarity,
        _p: NormalizedPoint,
    ) -> Result<f64, avfs_delay::DelayError> {
        Ok(f64::INFINITY)
    }
    fn name(&self) -> &str {
        "broken-kernel"
    }
    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

/// A glitching netlist: reconvergent XOR whose output pulses on every
/// input transition (see `glitch_visible_in_activity`).
fn glitch_netlist() -> Arc<Netlist> {
    let lib = CellLibrary::nangate15_like();
    let mut b = NetlistBuilder::new("glitch", &lib);
    let a = b.add_input("a").unwrap();
    let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
    let x = b.add_gate("x", "XOR2_X1", &[a, inv]).unwrap();
    b.add_output("y", x).unwrap();
    Arc::new(b.finish().unwrap())
}

#[test]
fn invalid_operating_points_rejected() {
    let n = chain_netlist();
    let engine = static_engine(&n, 1.0, 1.0);
    let patterns = one_pattern();
    for bad in [f64::NAN, f64::INFINITY, 0.0, -0.8] {
        let slots = [
            SlotSpec {
                pattern: 0,
                voltage: 0.8,
            },
            SlotSpec {
                pattern: 0,
                voltage: bad,
            },
        ];
        match engine.launch(&patterns, &slots, &SimOptions::default()) {
            Err(SimError::InvalidOperatingPoint { slot: 1, voltage }) => {
                assert!(voltage.is_nan() || voltage == bad);
            }
            other => panic!("expected InvalidOperatingPoint, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_annotation_rejected() {
    let n = chain_netlist();
    let model: Arc<dyn DelayModel> = Arc::new(StaticModel::new(ParameterSpace::paper()));
    // Non-finite load.
    let mut ann = TimingAnnotation::zero(&n);
    ann.set_load_ff(n.find("g1").unwrap(), f64::NAN);
    assert!(matches!(
        CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
        Err(SimError::InvalidLoad { node, .. }) if node == "g1"
    ));
    // Negative load.
    let mut ann = TimingAnnotation::zero(&n);
    ann.set_load_ff(n.find("g2").unwrap(), -3.0);
    assert!(matches!(
        CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
        Err(SimError::InvalidLoad { node, load }) if node == "g2" && load == -3.0
    ));
    // Non-finite delay.
    let mut ann = TimingAnnotation::zero(&n);
    ann.node_delays_mut(n.find("g1").unwrap())[0] = PinDelays {
        rise: f64::NAN,
        fall: 1.0,
    };
    assert!(matches!(
        CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
        Err(SimError::InvalidDelay { gate, pin: 0 }) if gate == "g1"
    ));
    // Negative delay.
    let mut ann = TimingAnnotation::zero(&n);
    ann.node_delays_mut(n.find("g2").unwrap())[0] = PinDelays {
        rise: 1.0,
        fall: -2.0,
    };
    assert!(matches!(
        CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
        Err(SimError::InvalidDelay { gate, pin: 0 }) if gate == "g2"
    ));
}

#[test]
fn model_error_propagates() {
    /// Rejects every factor request.
    #[derive(Debug)]
    struct NoKernelModel {
        space: ParameterSpace,
    }
    impl avfs_delay::model::DelayModel for NoKernelModel {
        fn factor(
            &self,
            cell: avfs_netlist::CellId,
            _pin: usize,
            _polarity: avfs_netlist::library::Polarity,
            _p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            Err(avfs_delay::DelayError::MissingCell {
                cell_index: cell.index(),
            })
        }
        fn name(&self) -> &str {
            "no-kernel"
        }
        fn space(&self) -> &ParameterSpace {
            &self.space
        }
    }
    let n = chain_netlist();
    let engine = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(TimingAnnotation::zero(&n)),
        Arc::new(NoKernelModel {
            space: ParameterSpace::paper(),
        }),
    )
    .unwrap();
    assert!(matches!(
        engine.launch(&one_pattern(), &at_voltage(1, 0.8), &SimOptions::default()),
        Err(SimError::Model(avfs_delay::DelayError::MissingCell { .. }))
    ));
}

#[test]
fn overflow_quarantine_and_retry_converges() {
    // The glitch pulse needs 2 transitions per net; a capacity-1 arena
    // must overflow, quarantine the slot and retry at capacity 4.
    let n = glitch_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let patterns = one_pattern();
    let tight = SimOptions {
        threads: 1,
        keep_waveforms: true,
        arena_capacity: 1,
        ..SimOptions::default()
    };
    let run = engine
        .launch(&patterns, &at_voltage(1, 0.8), &tight)
        .unwrap();
    assert!(run.is_complete());
    assert_eq!(run.slots[0].status, SlotStatus::Completed { retries: 1 });
    assert_eq!(run.diagnostics.overflowed_slots, vec![0]);
    assert_eq!(run.diagnostics.slot_retries, 1);
    assert!(run.diagnostics.failed_slots.is_empty());
    assert_eq!(run.diagnostics.peak_arena_occupancy, 2);
    // Retries are visible in the throughput accounting.
    assert_eq!(run.node_evaluations, 2 * n.num_nodes() as u64);
    // The retried result is identical to an untroubled run.
    let easy = engine
        .launch(
            &patterns,
            &at_voltage(1, 0.8),
            &SimOptions {
                threads: 1,
                keep_waveforms: true,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert_eq!(run.slots[0].responses, easy.slots[0].responses);
    assert_eq!(run.slots[0].activity, easy.slots[0].activity);
    assert_eq!(run.slots[0].waveforms, easy.slots[0].waveforms);
}

#[test]
fn overflow_past_retry_limit_fails_only_that_slot() {
    let n = glitch_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    // Pattern 0 glitches (input rises); pattern 1 is quiet.
    use avfs_atpg::pattern::{Pattern, PatternPair};
    let patterns: PatternSet = [
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
    ]
    .into_iter()
    .collect();
    let slots = [
        SlotSpec {
            pattern: 0,
            voltage: 0.8,
        },
        SlotSpec {
            pattern: 1,
            voltage: 0.8,
        },
    ];
    let opts = SimOptions {
        threads: 1,
        arena_capacity: 1,
        overflow_retries: 0,
        ..SimOptions::default()
    };
    let run = engine.launch(&patterns, &slots, &opts).unwrap();
    assert!(!run.is_complete());
    assert_eq!(run.slots[0].status, SlotStatus::Overflowed { capacity: 1 });
    assert!(run.slots[0].responses.is_empty());
    assert_eq!(run.slots[1].status, SlotStatus::Completed { retries: 0 });
    assert_eq!(run.slots[1].responses, vec![true]); // quiet XOR: a ⊕ ā = 1
    assert_eq!(run.diagnostics.failed_slots, vec![0]);
    assert_eq!(run.diagnostics.overflowed_slots, vec![0]);
    assert_eq!(run.diagnostics.slot_retries, 0);
}

#[test]
fn all_slots_failed_is_an_error() {
    let n = glitch_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let opts = SimOptions {
        threads: 1,
        arena_capacity: 1,
        overflow_retries: 0,
        ..SimOptions::default()
    };
    assert!(matches!(
        engine.launch(&one_pattern(), &at_voltage(1, 0.8), &opts),
        Err(SimError::AllSlotsFailed { slots: 1 })
    ));
}

#[test]
fn panicking_slot_is_contained() {
    let n = chain_netlist();
    let engine = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(static_engine(&n, 10.0, 10.0).annotation().as_ref().clone()),
        Arc::new(PanickyModel {
            inner: StaticModel::new(ParameterSpace::paper()),
        }),
    )
    .unwrap();
    let patterns = one_pattern();
    // 1.1 V normalizes to 1.0 — the poisoned operating point.
    let slots = cross(1, &[0.8, 1.1, 0.9]);
    for threads in [1, 4] {
        let opts = SimOptions {
            threads,
            ..SimOptions::default()
        };
        let run = engine.launch(&patterns, &slots, &opts).unwrap();
        assert!(!run.is_complete());
        assert_eq!(run.slots[1].status, SlotStatus::Panicked);
        assert!(run.slots[1].responses.is_empty());
        assert_eq!(run.diagnostics.panicked_slots, vec![1]);
        assert_eq!(run.diagnostics.failed_slots, vec![1]);
        // The healthy slots are unaffected.
        for i in [0, 2] {
            assert_eq!(run.slots[i].status, SlotStatus::Completed { retries: 0 });
            assert_eq!(run.slots[i].latest_output_transition_ps, Some(20.0));
            assert_eq!(run.slots[i].responses, vec![true]);
        }
    }
    // All slots at the poisoned point → the run itself errors.
    assert!(matches!(
        engine.launch(&patterns, &at_voltage(1, 1.1), &SimOptions::default()),
        Err(SimError::AllSlotsFailed { slots: 1 })
    ));
}

#[test]
fn kernel_fallback_guards_nonfinite_delays() {
    let n = chain_netlist();
    let mut ann = TimingAnnotation::zero(&n);
    for (id, node) in n.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            ann.node_delays_mut(id)[0] = PinDelays {
                rise: 10.0,
                fall: 10.0,
            };
        }
    }
    let broken = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(ann),
        Arc::new(BrokenKernelModel {
            space: ParameterSpace::paper(),
        }),
    )
    .unwrap();
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let run = broken
        .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
        .unwrap();
    // Every scaled delay was non-finite; all fell back to nominal.
    assert!(run.diagnostics.kernel_fallbacks > 0);
    assert!(run.is_complete());
    let nominal = static_engine(&n, 10.0, 10.0)
        .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
        .unwrap();
    assert_eq!(run.slots[0].responses, nominal.slots[0].responses);
    assert_eq!(
        run.slots[0].latest_output_transition_ps,
        nominal.slots[0].latest_output_transition_ps
    );
    // A healthy kernel reports no fallbacks.
    assert_eq!(nominal.diagnostics.kernel_fallbacks, 0);
}

#[test]
fn dangling_net_clamp_reported() {
    // TimingAnnotation::zero leaves dangling nets at 0 fF, below the
    // paper space's 0.5 fF minimum — the engine clamps and reports.
    let n = chain_netlist();
    let engine = static_engine(&n, 1.0, 1.0);
    let run = engine
        .launch(
            &one_pattern(),
            &at_voltage(1, 0.8),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert!(run.diagnostics.clamped_loads > 0);
}

#[test]
fn out_of_domain_slots_are_recorded() {
    let n = chain_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let patterns = one_pattern();
    // 0.3 V is well below the paper space's 0.55 V minimum: the launch
    // clamps it and records the finding.
    let low = at_voltage(1, 0.3);
    let run = engine
        .launch(
            &patterns,
            &low,
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert!(
        run.diagnostics
            .validation_findings
            .iter()
            .any(|f| f.contains("AVC-D005") && f.contains("slot 0")),
        "{:?}",
        run.diagnostics.validation_findings
    );
}

#[test]
fn clean_launch_records_nothing() {
    // Explicit in-range loads so the setup stage has nothing to clamp.
    let n = chain_netlist();
    let delays = n
        .nodes()
        .iter()
        .map(|node| {
            vec![
                PinDelays {
                    rise: 10.0,
                    fall: 10.0
                };
                node.fanin().len()
            ]
        })
        .collect();
    let ann = TimingAnnotation::from_parts(delays, vec![1.0; n.num_nodes()]);
    let engine = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(ann),
        Arc::new(StaticModel::new(ParameterSpace::paper())),
    )
    .unwrap();
    assert!(engine.setup_findings().is_empty());
    let run = engine
        .launch(
            &one_pattern(),
            &at_voltage(1, 0.8),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert!(run.diagnostics.validation_findings.is_empty());
}

#[test]
fn glitch_visible_in_activity() {
    // Reconvergent XOR: a ─┬────────► x
    //                      └─ inv ──► x ; x = a ⊕ ā glitches on input
    // change when path delays differ.
    let n = glitch_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let run = engine
        .launch(
            &one_pattern(),
            &at_voltage(1, 0.8),
            &SimOptions {
                threads: 1,
                keep_waveforms: true,
                ..SimOptions::default()
            },
        )
        .unwrap();
    let slot = &run.slots[0];
    // x is 1 in steady state both before and after (a ⊕ ā = 1); the
    // inverter delay opens a 10 ps window where both inputs agree →
    // a glitch pulse at the XOR output.
    let wfs = slot.waveforms.as_ref().unwrap();
    let x_wf = &wfs[n.find("x").unwrap().index()];
    assert_eq!(x_wf.num_transitions(), 2, "expected a glitch pulse");
    assert!(x_wf.initial_value() && x_wf.final_value());
    assert!(slot.activity.total_glitch_transitions >= 2);
}

#[test]
fn injected_overflow_hits_predicted_slots_and_replays() {
    // The plan's decisions are pure (site, key, salt) hashes, so the
    // harness can predict the affected slots offline — and a second
    // run with the same seed replays bit for bit.
    let n = chain_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let slots = cross(1, &[0.8; 4]);
    let mk_plan = || Arc::new(FaultPlan::empty(7).with_rate(InjectionSite::ArenaOverflow, 0.5));
    let plan = mk_plan();
    let opts = SimOptions {
        threads: 2,
        overflow_retries: 0,
        fault_plan: Some(Arc::clone(&plan)),
        ..SimOptions::default()
    };
    let run = engine.launch(&one_pattern(), &slots, &opts).unwrap();
    let mut predicted_hits = 0;
    for (i, slot) in run.slots.iter().enumerate() {
        if plan.decide(InjectionSite::ArenaOverflow, i as u64, 0) {
            predicted_hits += 1;
            assert_eq!(
                slot.status,
                SlotStatus::Overflowed { capacity: 64 },
                "slot {i}"
            );
        } else {
            assert_eq!(
                slot.status,
                SlotStatus::Completed { retries: 0 },
                "slot {i}"
            );
        }
    }
    assert!(predicted_hits >= 1, "seed 7 must hit at least one slot");
    assert!(predicted_hits < 4, "seed 7 must spare at least one slot");
    assert_eq!(run.diagnostics.faults_injected, plan.total_fired());
    assert_eq!(
        plan.fired_keys(InjectionSite::ArenaOverflow).len(),
        predicted_hits
    );
    // Replay from a fresh plan with the same seed.
    let replay = engine
        .launch(
            &one_pattern(),
            &slots,
            &SimOptions {
                fault_plan: Some(mk_plan()),
                ..opts.clone()
            },
        )
        .unwrap();
    assert_eq!(replay.slots, run.slots);
    assert_eq!(replay.diagnostics, run.diagnostics);
}

#[test]
fn injected_kernel_panic_is_contained_like_an_organic_one() {
    let n = chain_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let slots = cross(1, &[0.8; 4]);
    let plan = Arc::new(FaultPlan::empty(3).with_rate(InjectionSite::KernelPanic, 0.5));
    let run = engine
        .launch(
            &one_pattern(),
            &slots,
            &SimOptions {
                threads: 2,
                fault_plan: Some(Arc::clone(&plan)),
                ..SimOptions::default()
            },
        )
        .unwrap();
    let mut panicked = Vec::new();
    for (i, slot) in run.slots.iter().enumerate() {
        if plan.decide(InjectionSite::KernelPanic, i as u64, 0) {
            panicked.push(i);
            assert_eq!(slot.status, SlotStatus::Panicked, "slot {i}");
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
}

// ---- scenario engine: schedules and Monte Carlo variation ----

use crate::scenario::{cross_schedules, MonteCarlo, ScenarioSpec, Schedule};
use avfs_delay::VariationConfig;

/// A [`Launch::Scenarios`] request.
fn scheduled<'a>(
    scenarios: &'a [ScenarioSpec],
    mc: Option<&MonteCarlo>,
    capture_deadline_ps: Option<f64>,
) -> Launch<'a> {
    Launch::Scenarios {
        scenarios,
        mc: mc.copied(),
        capture_deadline_ps,
    }
}

/// A kernel whose factor actually depends on voltage — the flat
/// [`StaticModel`] would make every schedule segment indistinguishable,
/// so the segment-snapping and schedule tests need this instead.
#[derive(Debug)]
struct VoltageScaledModel {
    space: ParameterSpace,
}

impl avfs_delay::model::DelayModel for VoltageScaledModel {
    fn factor(
        &self,
        _cell: avfs_netlist::CellId,
        _pin: usize,
        _polarity: avfs_netlist::library::Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, avfs_delay::DelayError> {
        // Monotone decreasing in voltage, strictly positive on [0, 1].
        Ok(1.5 - p.v)
    }
    fn name(&self) -> &str {
        "voltage-scaled"
    }
    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

fn voltage_scaled_engine(netlist: &Arc<Netlist>, rise: f64, fall: f64) -> CompiledNetlist {
    let mut ann = TimingAnnotation::zero(netlist);
    for (id, node) in netlist.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for pin in 0..node.fanin().len() {
                ann.node_delays_mut(id)[pin] = PinDelays { rise, fall };
            }
        }
    }
    CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::new(ann),
        Arc::new(VoltageScaledModel {
            space: ParameterSpace::paper(),
        }),
    )
    .unwrap()
}

/// A droop × Monte Carlo launch whose batches can be cut anywhere: 3
/// schedules × 3 patterns = 9 scenarios × 4 dice = 36 slots, scenario
/// `i`'s dice at launch slots `i * 4 ..`.
struct DiceGrid {
    engine: CompiledNetlist,
    patterns: PatternSet,
    scenarios: Vec<ScenarioSpec>,
    mc: MonteCarlo,
}

impl DiceGrid {
    fn new() -> DiceGrid {
        let lib = CellLibrary::nangate15_like();
        let n = Arc::new(avfs_circuits::ripple_carry_adder(8, &lib).unwrap());
        let patterns = PatternSet::random(n.inputs().len(), 3, 9);
        let scenarios = cross_schedules(
            patterns.len(),
            &[
                Schedule::droop(0.9, 0.15, 12.0, 40.0),
                Schedule::steps([(0.0, 0.7), (25.0, 1.0)]),
                Schedule::droop(0.8, 0.1, 20.0, 55.0),
            ],
        );
        DiceGrid {
            engine: voltage_scaled_engine(&n, 8.0, 9.5),
            patterns,
            scenarios,
            mc: MonteCarlo {
                samples: 4,
                variation: VariationConfig {
                    sigma: 0.05,
                    max_deviation: 0.2,
                    seed: 0xD1CE,
                },
            },
        }
    }

    fn slots(&self) -> usize {
        self.scenarios.len() * self.mc.samples
    }

    /// The `waveform_budget` that cuts round 0 into batches of
    /// `batch_slots` slots at per-cell capacity `cap` and lane width 1
    /// (a wider lane width rounds the cut to whole lane groups).
    fn budget(&self, batch_slots: usize, cap: usize) -> usize {
        batch_slots * self.engine.netlist().num_nodes() * cap
    }

    fn launch(&self, mc: &MonteCarlo, opts: &SimOptions) -> SimRun {
        self.engine
            .launch(
                &self.patterns,
                scheduled(&self.scenarios, Some(mc), Some(60.0)),
                opts,
            )
            .unwrap()
    }

    /// How often a die is drawn per level when round 0 is cut into
    /// batches of `batch_slots` (lane width 1, see
    /// [`DiceGrid::budget`]): batches are die-major (position `p` of
    /// the batch order carries die `p / scenarios`), and a batch draws
    /// each die it carries once.
    fn dice_drawn(&self, batch_slots: usize) -> u64 {
        let die_of = |p: usize| p / self.scenarios.len();
        (0..self.slots())
            .step_by(batch_slots)
            .map(|first| {
                let last = (first + batch_slots).min(self.slots()) - 1;
                (die_of(last) - die_of(first) + 1) as u64
            })
            .sum()
    }
}

/// The draw count is exact: a die is hashed once per pin and polarity
/// per level *per batch that carries it* — never once per voltage group,
/// never once per slot — so a launch cut into whole-die batches draws
/// `2 × pins × dice`, and a launch without a plan draws nothing. Lane
/// width 1 keeps the five-slot cut, and the one-slot cut at one worker;
/// two workers cut at least two slots, one per worker.
#[test]
fn variation_draws_count_dice_per_batch() {
    let grid = DiceGrid::new();
    let netlist = grid.engine.netlist();
    let pins: u64 = netlist
        .iter()
        .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
        .map(|(_, node)| node.fanin().len() as u64)
        .sum();
    let dice = grid.mc.samples as u64;
    assert_eq!(grid.dice_drawn(grid.scenarios.len()), dice);
    assert_eq!(grid.dice_drawn(grid.slots()), dice);
    assert_eq!(grid.dice_drawn(1), grid.slots() as u64);
    for budget_slots in [1, 5, grid.scenarios.len(), grid.slots()] {
        for threads in [1usize, 2] {
            let run = grid.launch(
                &grid.mc,
                &SimOptions {
                    threads,
                    lanes: 1,
                    profiling: true,
                    waveform_budget: grid.budget(budget_slots, 64),
                    ..SimOptions::default()
                },
            );
            assert!(run.is_complete(), "no slot dies, so every level draws");
            let profile = run.profile.as_ref().unwrap();
            let batch_slots = budget_slots.max(threads);
            let case = format!("{batch_slots} slots/batch, threads={threads}");
            assert_eq!(
                profile.counter(phases::ENGINE_BATCHES),
                Some(grid.slots().div_ceil(batch_slots) as u64),
                "{case}"
            );
            assert_eq!(
                profile.counter(phases::ENGINE_VARIATION_DRAWS),
                Some(2 * pins * grid.dice_drawn(batch_slots)),
                "{case}"
            );
        }
    }
    // No plan, no draws — and no instrument.
    let plain = grid
        .engine
        .launch(
            &grid.patterns,
            scheduled(&grid.scenarios, None, None),
            &SimOptions {
                profiling: true,
                ..SimOptions::default()
            },
        )
        .unwrap();
    let profile = plain.profile.as_ref().unwrap();
    assert_eq!(profile.counter(phases::ENGINE_VARIATION_DRAWS), None);
}

/// Armed runs stay deterministic under die-major batches, whatever the
/// cut: the arena-overflow and kernel-panic sites are probed per (slot,
/// round), so neither the thread count nor the lane width — which here
/// also move the cut, from 5-slot batches straddling dice of 9 at width
/// 1 to one 8-slot lane group per worker at width 8 — changes a slot or
/// a diagnostic.
#[test]
fn armed_droop_mc_launch_is_deterministic_across_threads_and_lanes() {
    let grid = DiceGrid::new();
    let launch = |threads, lanes| armed_droop_mc_launch(&grid, threads, lanes, false);
    let reference = launch(1, 1);
    assert!(reference.diagnostics.slot_retries > 0, "a slot overflowed");
    assert!(
        !reference.diagnostics.panicked_slots.is_empty(),
        "a slot panicked"
    );
    for threads in [1usize, 2, 4] {
        for lanes in [1usize, 8] {
            let got = launch(threads, lanes);
            let case = format!("threads={threads}, lanes={lanes}");
            assert_eq!(got.slots, reference.slots, "{case}");
            assert_eq!(got.scenario, reference.scenario, "{case}");
            assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
        }
    }
}

/// [`DiceGrid`]'s Monte Carlo launch under a 5-slot budget (5-slot
/// batches at lane width 1), with slots overflowing the arena and
/// panicking in the kernel.
fn armed_droop_mc_launch(grid: &DiceGrid, threads: usize, lanes: usize, profiling: bool) -> SimRun {
    let plan = FaultPlan::empty(0x5EED)
        .with_rate(InjectionSite::ArenaOverflow, 0.2)
        .with_rate(InjectionSite::KernelPanic, 0.2);
    grid.launch(
        &grid.mc,
        &SimOptions {
            threads,
            lanes,
            profiling,
            waveform_budget: grid.budget(5, 64),
            fault_plan: Some(Arc::new(plan)),
            ..SimOptions::default()
        },
    )
}

/// Workers draw a die's levels ahead of their walks as far as timing
/// takes them, and a die's slots can die mid-walk; the caller draws
/// what no worker reached, so every opened die is drawn whole and the
/// draw count stays a function of the launch and its batch cut, run
/// after run.
#[test]
fn variation_draws_repeat_when_slots_die_mid_walk() {
    let grid = DiceGrid::new();
    let pins: u64 = grid
        .engine
        .netlist()
        .iter()
        .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
        .map(|(_, node)| node.fanin().len() as u64)
        .sum();
    for threads in [2usize, 4] {
        let draws: Vec<Option<u64>> = (0..5)
            .map(|_| {
                let run = armed_droop_mc_launch(&grid, threads, 1, true);
                assert!(
                    !run.diagnostics.panicked_slots.is_empty(),
                    "a slot panicked"
                );
                let profile = run.profile.as_ref().unwrap();
                profile.counter(phases::ENGINE_VARIATION_DRAWS)
            })
            .collect();
        assert!(
            draws[0].is_some_and(|n| n > 0 && n % (2 * pins) == 0),
            "threads={threads}: whole dice, {draws:?}"
        );
        assert!(
            draws.iter().all(|&n| n == draws[0]),
            "threads={threads}: {draws:?}"
        );
    }
}

/// A variation distribution `derate` cannot draw from is a typed error
/// — not a coordinator panic (`clamp` with a
/// negative or NaN bound) and not silently zeroed delays (a NaN sigma)
/// — while `sigma == 0.0` stays the exact identity.
#[test]
fn invalid_variation_rejected() {
    let n = chain_netlist();
    let engine = voltage_scaled_engine(&n, 10.0, 10.0);
    let patterns = one_pattern();
    let scenarios = [ScenarioSpec {
        pattern: 0,
        schedule: Schedule::droop(0.9, 0.1, 5.0, 15.0),
    }];
    let launch = |sigma: f64, max_deviation: f64| {
        engine.launch(
            &patterns,
            scheduled(
                &scenarios,
                Some(&MonteCarlo {
                    samples: 2,
                    variation: VariationConfig {
                        sigma,
                        max_deviation,
                        seed: 1,
                    },
                }),
                None,
            ),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
    };
    for (sigma, max_deviation) in [
        (f64::NAN, 0.2),
        (-0.05, 0.2),
        (f64::INFINITY, 0.2),
        (0.05, f64::NAN),
        (0.05, -0.2),
        (0.05, f64::INFINITY),
    ] {
        match launch(sigma, max_deviation) {
            Err(SimError::InvalidVariation { .. }) => {}
            other => panic!(
                "sigma {sigma}, max_deviation {max_deviation}: \
                 expected InvalidVariation, got {other:?}"
            ),
        }
    }
    // The boundary values are usable: a zero clamp and a zero sigma both
    // leave every delay exactly as scaled.
    let plain = engine
        .launch(
            &patterns,
            scheduled(&scenarios, None, None),
            &SimOptions::default(),
        )
        .unwrap();
    for (sigma, max_deviation) in [(0.0, 0.2), (0.0, 0.0), (0.05, 0.0)] {
        let run = launch(sigma, max_deviation).unwrap();
        for die in &run.slots {
            assert_eq!(*die, plain.slots[0], "sigma {sigma}, clamp {max_deviation}");
        }
    }
}

/// A capture deadline no arrival can be judged against is a typed error
/// at all three doors — a NaN
/// deadline used to pass every sample (`t > NaN` is false), reading
/// p_fail 0 — while 0 ps stays a usable deadline.
#[test]
fn unusable_capture_deadline_rejected() {
    let n = chain_netlist();
    let engine = Arc::new(voltage_scaled_engine(&n, 10.0, 10.0));
    let patterns = one_pattern();
    let scenarios = [ScenarioSpec {
        pattern: 0,
        schedule: Schedule::constant(0.8),
    }];
    let mut session = crate::session::Session::new(Arc::clone(&engine), 1);
    let runner = crate::batch::BatchRunner::new(1, 1);
    let opts = SimOptions::default();
    for deadline in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let d = Some(deadline);
        for got in [
            engine.launch(&patterns, scheduled(&scenarios, None, d), &opts),
            session.run(&patterns, scheduled(&scenarios, None, d), &opts),
            runner.run(&engine, &patterns, scheduled(&scenarios, None, d), &opts),
        ] {
            assert!(
                matches!(got, Err(SimError::InvalidCaptureTime { .. })),
                "deadline {deadline}: {got:?}"
            );
        }
    }
    let run = engine
        .launch(
            &patterns,
            scheduled(&scenarios, None, Some(0.0)),
            &SimOptions::default(),
        )
        .unwrap();
    let summary = run.scenario.unwrap();
    assert_eq!(summary.points[0].p_fail, 1.0);
}

#[test]
fn malformed_scenarios_rejected() {
    let n = chain_netlist();
    let engine = voltage_scaled_engine(&n, 10.0, 10.0);
    let patterns = one_pattern();
    let opts = SimOptions::default();
    let launch = |schedule: Schedule| {
        engine.launch(
            &patterns,
            scheduled(
                &[ScenarioSpec {
                    pattern: 0,
                    schedule,
                }],
                None,
                None,
            ),
            &opts,
        )
    };
    // Structurally un-lowerable shapes: refused in every validation
    // mode (the segment lookup has no semantics for them).
    for (name, schedule) in [
        ("empty", Schedule { segments: vec![] }),
        (
            "unsorted",
            Schedule::steps([(0.0, 0.8), (50.0, 0.7), (40.0, 0.9)]),
        ),
        (
            "duplicate",
            Schedule::steps([(0.0, 0.8), (50.0, 0.7), (50.0, 0.9)]),
        ),
        ("nan-start", Schedule::steps([(0.0, 0.8), (f64::NAN, 0.7)])),
    ] {
        match launch(schedule) {
            Err(SimError::InvalidSchedule { slot: 0, .. }) => {}
            other => panic!("{name}: expected InvalidSchedule, got {other:?}"),
        }
    }
    // Voltage problems: the same refusal a static slot gets.
    for bad in [f64::NAN, f64::INFINITY, 0.0, -0.8] {
        match launch(Schedule::steps([(0.0, 0.8), (10.0, bad)])) {
            Err(SimError::InvalidOperatingPoint { slot: 0, .. }) => {}
            other => panic!("expected InvalidOperatingPoint, got {other:?}"),
        }
    }
    // Empty launches.
    assert_eq!(
        engine
            .launch(&patterns, scheduled(&[], None, None), &opts)
            .unwrap_err(),
        SimError::EmptySlots
    );
    assert_eq!(
        engine
            .launch(
                &patterns,
                scheduled(
                    &[ScenarioSpec {
                        pattern: 0,
                        schedule: Schedule::constant(0.8),
                    }],
                    Some(&MonteCarlo {
                        samples: 0,
                        variation: VariationConfig::sigma5(0),
                    }),
                    None
                ),
                &opts
            )
            .unwrap_err(),
        SimError::EmptySlots
    );
    // Pattern index out of range.
    match engine.launch(
        &patterns,
        scheduled(
            &[ScenarioSpec {
                pattern: 7,
                schedule: Schedule::constant(0.8),
            }],
            None,
            None,
        ),
        &opts,
    ) {
        Err(SimError::BadPatternIndex {
            index: 7,
            available: 1,
        }) => {}
        other => panic!("expected BadPatternIndex, got {other:?}"),
    }
}

/// Repairable schedule findings — an unanchored first segment
/// (`AVC-N010`, lowering extends it back to `t = 0`) and supplies
/// outside the characterized range (`AVC-D006`, the kernel clamps) —
/// are recorded instead of hard-failing.
#[test]
fn repairable_schedules_are_recorded() {
    let n = chain_netlist();
    let engine = voltage_scaled_engine(&n, 10.0, 10.0);
    let patterns = one_pattern();
    let launch = |schedule: Schedule| {
        engine.launch(
            &patterns,
            scheduled(
                &[ScenarioSpec {
                    pattern: 0,
                    schedule,
                }],
                None,
                None,
            ),
            &SimOptions::default(),
        )
    };
    // The paper space characterizes [0.55, 1.1] V; 1.3 V clamps.
    let cases = [
        ("AVC-N010", Schedule::steps([(5.0, 0.8), (20.0, 0.7)])),
        ("AVC-D006", Schedule::steps([(0.0, 0.8), (20.0, 1.3)])),
    ];
    for (rule, schedule) in &cases {
        // The run proceeds, the finding lands in the diagnostics.
        let run = launch(schedule.clone()).unwrap();
        assert!(
            run.diagnostics
                .validation_findings
                .iter()
                .any(|f| f.contains(rule)),
            "{rule} missing from {:?}",
            run.diagnostics.validation_findings
        );
        assert!(run.slots[0].status.is_completed());
    }
    // An unanchored schedule still lowers soundly: segment 0 extends
    // back to the launch instant, so this two-segment trace equals
    // the anchored trace with the same boundary.
    let unanchored = launch(Schedule::steps([(5.0, 0.8), (20.0, 0.7)])).unwrap();
    let anchored = launch(Schedule::steps([(0.0, 0.8), (20.0, 0.7)])).unwrap();
    assert_eq!(unanchored.slots, anchored.slots);
}

/// The failure-probability reduction against a capture deadline:
/// lower supplies are slower under the voltage-scaled kernel, so a
/// deadline between the two arrival times separates the curve. The
/// constant schedules are the static launch, instruments included.
#[test]
fn scenario_summary_separates_voltages_at_a_deadline() {
    let n = chain_netlist();
    let engine = voltage_scaled_engine(&n, 10.0, 10.0);
    let space = ParameterSpace::paper();
    let c_min = space.load_range().0;
    let f = |v: f64| 1.5 - space.normalize_clamped(OperatingPoint::new(v, c_min)).v;
    let (slow_v, fast_v) = (0.6, 1.0);
    let deadline = 20.0 * (f(slow_v) + f(fast_v)) / 2.0;
    let scenarios = cross_schedules(1, &[Schedule::constant(slow_v), Schedule::constant(fast_v)]);
    let opts = SimOptions {
        threads: 1,
        profiling: true,
        ..SimOptions::default()
    };
    let request = scheduled(&scenarios, None, Some(deadline));
    let run = engine.launch(&one_pattern(), request, &opts).unwrap();
    // Constant schedules lower to static slots: the static launch's
    // slots, and no scenario instrument in the profile.
    let fixed = cross(1, &[slow_v, fast_v]);
    let fixed = engine.launch(&one_pattern(), &fixed, &opts).unwrap();
    assert_eq!(run.slots, fixed.slots);
    let profile = run.profile.as_ref().unwrap();
    for counter in [phases::ENGINE_SCENARIO_SEGMENTS, phases::ENGINE_MC_SAMPLES] {
        assert_eq!(profile.counter(counter), None, "{counter}");
    }
    let summary = run.scenario.as_ref().unwrap();
    assert_eq!(summary.capture_deadline_ps, Some(deadline));
    assert_eq!(summary.points.len(), 2);
    let slow = summary.points.iter().find(|p| p.voltage == slow_v).unwrap();
    let fast = summary.points.iter().find(|p| p.voltage == fast_v).unwrap();
    assert_eq!((slow.samples, slow.failures), (1, 1), "slow slot misses");
    assert!((slow.p_fail - 1.0).abs() < 1e-12);
    assert_eq!((fast.samples, fast.failures), (1, 0), "fast slot makes it");
    assert_eq!(fast.p_fail, 0.0);
}

/// A batch is one pool release: a 64-bit adder under 32 slots, given the
/// budget of one lane group per batch, is cut into one group per worker
/// — four batches at one worker, two at two, one at four — so every
/// group is walked by its owner. More workers must reproduce one worker
/// bit for bit, and a single worker given the same cut every exact count
/// of the profile; the pool's idle time is recorded once per batch of a
/// pooled run, and a worker-stall plan, probed once per spawned worker
/// per release, fires `batches × (threads − 1)` times and replays from
/// its seed.
#[test]
fn a_batch_is_one_pool_release() {
    let lib = CellLibrary::nangate15_like();
    let n = Arc::new(avfs_circuits::ripple_carry_adder(64, &lib).unwrap());
    let engine = static_engine(&n, 8.0, 9.5);
    let patterns = PatternSet::random(n.inputs().len(), 8, 0xD15);
    let slots = cross(8, &[0.7, 0.8, 0.9, 1.0]);
    let batches = |threads: u64| 4 / threads;
    let budget = |groups: usize| groups * 8 * n.num_nodes() * 64;
    let opts = |threads: usize| SimOptions {
        threads,
        lanes: 8,
        waveform_budget: budget(1),
        ..SimOptions::default()
    };
    let launch = |opts: SimOptions| engine.launch(&patterns, &slots, &opts).unwrap();
    // Fill the delay-table cache so every profiled launch below hits it.
    launch(opts(1));
    let count = |run: &SimRun, name: &str| run.profile.as_ref().unwrap().counter(name).unwrap_or(0);
    let profiled = |threads: usize| {
        launch(SimOptions {
            profiling: true,
            ..opts(threads)
        })
    };
    let one = profiled(1);
    assert_eq!(count(&one, phases::ENGINE_BATCHES), batches(1));
    assert!(one
        .profile
        .as_ref()
        .unwrap()
        .phase(phases::ENGINE_POOL_IDLE)
        .is_none());
    for threads in [2, 4] {
        let many = profiled(threads);
        let batches = batches(threads as u64);
        assert_eq!(count(&many, phases::ENGINE_BATCHES), batches);
        assert_eq!(one.slots, many.slots, "threads={threads}");
        assert_eq!(one.diagnostics, many.diagnostics, "threads={threads}");
        assert_eq!(one.node_evaluations, many.node_evaluations);
        assert_eq!(
            cut_free_counts(&one),
            cut_free_counts(&many),
            "threads={threads}"
        );
        // One worker cut the same way does the same work.
        let same = launch(SimOptions {
            profiling: true,
            waveform_budget: budget(threads),
            ..opts(1)
        });
        assert_eq!(count(&same, phases::ENGINE_BATCHES), batches);
        assert_eq!(work_counts(&same), work_counts(&many), "threads={threads}");
        for counter in [phases::ENGINE_LANES_GROUPS, phases::ENGINE_QUIET_CELLS] {
            assert_eq!(count(&same, counter), count(&many, counter), "{counter}");
        }
        let (p1, pn) = (
            same.profile.as_ref().unwrap(),
            many.profile.as_ref().unwrap(),
        );
        for histogram in [phases::ENGINE_ARENA_OCCUPANCY, phases::ENGINE_BATCH_SLOTS] {
            assert_eq!(
                p1.histogram(histogram),
                pn.histogram(histogram),
                "{histogram}"
            );
        }
        // One release per batch, and the pool's idle time once per release.
        assert_eq!(pn.phase(phases::ENGINE_POOL_IDLE).unwrap().calls, batches);
        let stalled = || {
            let plan = Arc::new(
                FaultPlan::empty(0x57A11)
                    .with_rate(InjectionSite::WorkerStall, 1.0)
                    .with_stall(Duration::from_micros(50)),
            );
            let run = launch(SimOptions {
                fault_plan: Some(Arc::clone(&plan)),
                ..opts(threads)
            });
            (run, plan.hits(InjectionSite::WorkerStall))
        };
        let ((first, first_stalls), (second, second_stalls)) = (stalled(), stalled());
        assert_eq!(
            first_stalls,
            batches * (threads as u64 - 1),
            "threads={threads}"
        );
        assert_eq!(
            first_stalls, second_stalls,
            "the plan replays from its seed"
        );
        for run in [&first, &second] {
            assert_eq!(run.slots, one.slots, "stalls are timing-only");
            assert_eq!(run.diagnostics.faults_injected, first_stalls);
        }
    }
}

/// No hang: a panic outside any lane on a helper — after it grabbed a
/// chunk whose tasks no other worker will run — aborts the batch for
/// every worker and re-raises on the caller, at two and four workers.
/// One-group batches make every worker but the owner a helper; the
/// launch is repeated until a helper grabs, for up to 10 s: each launch
/// spawns its helpers, and on a loaded host a helper can start only
/// after the owner has walked every level.
#[test]
fn a_helper_panic_outside_any_lane_re_raises_instead_of_hanging() {
    use std::sync::mpsc;
    let lib = CellLibrary::nangate15_like();
    let n = Arc::new(avfs_circuits::ripple_carry_adder(64, &lib).unwrap());
    let engine = Arc::new(static_engine(&n, 8.0, 9.5));
    engine.panic_in_help.store(true, Ordering::Relaxed);
    let patterns = Arc::new(PatternSet::random(n.inputs().len(), 8, 0xD15));
    for threads in [2usize, 4] {
        let (engine, patterns) = (Arc::clone(&engine), Arc::clone(&patterns));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let opts = SimOptions {
                threads,
                lanes: 8,
                ..SimOptions::default()
            };
            let slots = at_voltage(8, 0.8);
            let start = std::time::Instant::now();
            let panicked = loop {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.launch(&patterns, &slots, &opts)
                }))
                .is_err();
                if caught || start.elapsed() > Duration::from_secs(10) {
                    break caught;
                }
            };
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a helper's panic must never hang the launch");
        assert!(panicked, "threads={threads}: a helper grabbed and panicked");
    }
}

/// Containment is per lane inside one `catch_unwind` per chunk: with an
/// injected kernel panic on one slot of an eight-lane group, the lanes
/// after it in every chunk it shares still run, and every other slot
/// completes with the clean run's result. Slots and diagnostics also
/// equal digests recorded before chunks replaced per-lane containment.
#[test]
fn an_injected_panic_leaves_the_other_lanes_of_its_chunks_complete() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 11).unwrap());
    let engine = static_engine(&n, 8.0, 9.5);
    let patterns = PatternSet::lfsr(n.inputs().len(), 8, 5);
    assert!(patterns.launched_transitions() >= patterns.len());
    let slots = at_voltage(8, 0.8);
    let plan = |seed| Arc::new(FaultPlan::empty(seed).with_rate(InjectionSite::KernelPanic, 0.15));
    let doomed = |seed| -> Vec<usize> {
        (0..slots.len())
            .filter(|&slot| plan(seed).decide(InjectionSite::KernelPanic, slot as u64, 0))
            .collect()
    };
    // The first seed that dooms lane 3 alone: lanes before and after it.
    let seed = (0u64..)
        .find(|&seed| doomed(seed) == [DOOMED_SLOT])
        .unwrap();
    let clean = engine
        .launch(&patterns, &slots, &SimOptions::default())
        .unwrap();
    for threads in [1usize, 2, 4] {
        let run = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads,
                    fault_plan: Some(plan(seed)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            run.diagnostics.panicked_slots,
            [DOOMED_SLOT],
            "threads={threads}"
        );
        for (i, (got, want)) in run.slots.iter().zip(&clean.slots).enumerate() {
            if i == DOOMED_SLOT {
                assert_eq!(got.status, SlotStatus::Panicked);
            } else {
                assert_eq!(got, want, "threads={threads}, slot {i}");
            }
        }
        assert_eq!(
            (digest(&run.slots), digest(&run.diagnostics)),
            RECORDED_DIGESTS,
            "threads={threads}"
        );
    }
}

/// The slot the kernel-panic plan above dooms.
const DOOMED_SLOT: usize = 3;

/// `(slots, diagnostics)` digests of the kernel-panic launch above,
/// recorded on the per-level engine with per-lane `catch_unwind`. The
/// diagnostics digest was re-taken when `RunDiagnostics` lost its four
/// run-budget fields: their zero values inserted back into the new
/// rendering hash to the earlier record, 4 263 676 137 089 281 978.
const RECORDED_DIGESTS: (u64, u64) = (13_698_186_902_048_818_133, 1_173_682_873_714_108_029);

/// FNV-1a over a value's `Debug` rendering: stable for as long as the
/// value and its `Debug` impls are.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}
