//! Fault-isolation acceptance tests: the bounded-arena quarantine-and-
//! retry loop and panic containment, cross-validated against the serial
//! event-driven oracle.

use avfs::atpg::pattern::{Pattern, PatternPair};
use avfs::atpg::PatternSet;
use avfs::circuits::{random_netlist, GeneratorConfig};
use avfs::delay::model::DelayModel;
use avfs::delay::op::NormalizedPoint;
use avfs::delay::{DelayError, ParameterSpace, StaticModel, TimingAnnotation};
use avfs::netlist::library::Polarity;
use avfs::netlist::{CellId, CellLibrary, Netlist, NetlistBuilder, NodeKind};
use avfs::sim::{
    slots, CompiledNetlist, EventDrivenSimulator, SimError, SimOptions, SimRun, SlotStatus,
};
use avfs::waveform::PinDelays;
use proptest::prelude::*;
use std::sync::Arc;

/// Uniform static pin delays so the engine (factor-1 model) and the
/// event-driven oracle share exact delay semantics.
fn static_annotation(netlist: &Netlist, rise: f64, fall: f64) -> TimingAnnotation {
    let mut ann = TimingAnnotation::zero(netlist);
    for (id, node) in netlist.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for pin in 0..node.fanin().len() {
                ann.node_delays_mut(id)[pin] = PinDelays { rise, fall };
            }
        }
    }
    ann
}

/// Asserts one engine slot equals one oracle slot bit-for-bit: responses,
/// arrival time, activity, and every per-net waveform.
fn assert_slot_matches_oracle(run: &SimRun, oracle: &SimRun, slot: usize) {
    let a = &run.slots[slot];
    let b = &oracle.slots[slot];
    assert_eq!(a.responses, b.responses, "slot {slot} responses");
    assert_eq!(
        a.latest_output_transition_ps, b.latest_output_transition_ps,
        "slot {slot} arrival"
    );
    assert_eq!(a.activity, b.activity, "slot {slot} activity");
    assert_eq!(a.waveforms, b.waveforms, "slot {slot} waveforms");
}

/// A glitch multiplier: every stage XORs its input with a delayed copy,
/// roughly doubling the transition count — after a few stages the deep
/// nets overflow any small per-net waveform capacity.
fn glitch_cascade(stages: usize) -> Arc<Netlist> {
    let lib = CellLibrary::nangate15_like();
    let mut b = NetlistBuilder::new("glitch-cascade", &lib);
    let mut cur = b.add_input("a").unwrap();
    for s in 0..stages {
        let i1 = b.add_gate(format!("i{s}a"), "INV_X1", &[cur]).unwrap();
        let i2 = b.add_gate(format!("i{s}b"), "INV_X1", &[i1]).unwrap();
        cur = b.add_gate(format!("x{s}"), "XOR2_X1", &[cur, i2]).unwrap();
    }
    b.add_output("y", cur).unwrap();
    Arc::new(b.finish().unwrap())
}

#[test]
fn overflow_quarantine_retries_until_result_matches_oracle() {
    let netlist = glitch_cascade(3);
    let annotation = Arc::new(static_annotation(&netlist, 7.0, 5.0));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(StaticModel::new(ParameterSpace::paper())),
    )
    .unwrap();
    let patterns: PatternSet = std::iter::once(
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
    )
    .collect();
    let specs = slots::cross(1, &[0.8]);
    let opts = SimOptions {
        threads: 2,
        keep_waveforms: true,
        arena_capacity: 2, // deliberately too small for the cascade
        ..SimOptions::default()
    };
    let run = engine.launch(&patterns, &specs, &opts).unwrap();

    // The slot overflowed, was quarantined and completed on a retry.
    assert!(run.is_complete());
    assert!(
        run.diagnostics.slot_retries >= 1,
        "expected at least one retry"
    );
    assert_eq!(run.diagnostics.overflowed_slots, vec![0]);
    assert!(run.diagnostics.failed_slots.is_empty());
    match run.slots[0].status {
        SlotStatus::Completed { retries } => assert!(retries >= 1),
        other => panic!("expected a completed slot, got {other:?}"),
    }
    assert!(run.diagnostics.peak_arena_occupancy > 2);

    // The retried result is bit-for-bit the oracle's.
    let oracle = EventDrivenSimulator::new(Arc::clone(&netlist), annotation)
        .unwrap()
        .run(&patterns, &specs, true)
        .unwrap();
    assert_slot_matches_oracle(&run, &oracle, 0);
}

/// Panics for operating points at the top of the normalized voltage range
/// (1.1 V in the paper space) — the per-slot fault-injection vehicle.
#[derive(Debug)]
struct PanickyModel {
    inner: StaticModel,
}

impl DelayModel for PanickyModel {
    fn factor(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
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

#[test]
fn panicked_slot_is_quarantined_while_others_match_oracle() {
    let lib = CellLibrary::nangate15_like();
    let cfg = GeneratorConfig {
        nodes: 80,
        inputs: 8,
        outputs: 8,
        depth: 6,
        two_input_fraction: 0.7,
    };
    let netlist = Arc::new(random_netlist("rnd", &cfg, &lib, 23).unwrap());
    let annotation = Arc::new(static_annotation(&netlist, 9.0, 11.0));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(PanickyModel {
            inner: StaticModel::new(ParameterSpace::paper()),
        }),
    )
    .unwrap();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 3, 7);
    // Slot 2 sits at the poisoned 1.1 V operating point.
    let voltages = [0.8, 0.7, 1.1, 0.9];
    let specs = slots::cross(patterns.len(), &voltages);
    let poisoned: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.voltage == 1.1)
        .map(|(i, _)| i)
        .collect();
    let opts = SimOptions {
        threads: 4,
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let run = engine.launch(&patterns, &specs, &opts).unwrap();

    assert!(!run.is_complete());
    assert_eq!(run.diagnostics.panicked_slots, poisoned);
    assert_eq!(run.diagnostics.failed_slots, poisoned);

    // Every healthy slot matches the event-driven oracle bit-for-bit
    // (static factors → identical delay semantics).
    let oracle = EventDrivenSimulator::new(Arc::clone(&netlist), annotation)
        .unwrap()
        .run(&patterns, &specs, true)
        .unwrap();
    for (i, slot) in run.slots.iter().enumerate() {
        if poisoned.contains(&i) {
            assert_eq!(slot.status, SlotStatus::Panicked, "slot {i}");
            assert!(slot.responses.is_empty());
            assert!(slot.waveforms.is_none());
        } else {
            assert_eq!(slot.status, SlotStatus::Completed { retries: 0 });
            assert_slot_matches_oracle(&run, &oracle, i);
        }
    }
}

/// A slot's activity is accumulated where its cells are written —
/// stimuli, worker blocks, output passthroughs — and never re-read from
/// the arena; `SwitchingActivity::of` over the kept waveforms is the
/// oracle, across every schedule that changes who writes what, with
/// retry rounds and a contained kernel panic in the mix.
#[test]
fn write_side_activity_equals_the_waveform_oracle() {
    use avfs::inject::{FaultPlan, InjectionSite};
    use avfs::waveform::SwitchingActivity;
    let lib = CellLibrary::nangate15_like();
    let cfg = GeneratorConfig {
        nodes: 160,
        inputs: 12,
        outputs: 8,
        depth: 9,
        two_input_fraction: 0.6,
    };
    let netlist = Arc::new(random_netlist("rnd", &cfg, &lib, 41).unwrap());
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::new(static_annotation(&netlist, 9.0, 6.0)),
        Arc::new(StaticModel::new(ParameterSpace::paper())),
    )
    .unwrap();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 5, 11);
    let specs = slots::cross(patterns.len(), &[0.7, 0.9]);
    let modes: [(&str, usize, Option<f64>); 3] = [
        ("normal", 0, None),
        ("retry rounds", 1, None),
        ("panicked slot", 0, Some(0.3)),
    ];
    for (mode, arena_capacity, panic_rate) in modes {
        for threads in [1, 2, 4] {
            for lanes in [1, 4, 8] {
                for activity_gating in [true, false] {
                    let label = format!(
                        "{mode}, {threads} threads, {lanes} lanes, gating {activity_gating}"
                    );
                    let run = engine
                        .launch(
                            &patterns,
                            &specs,
                            &SimOptions {
                                threads,
                                lanes,
                                activity_gating,
                                arena_capacity,
                                keep_waveforms: true,
                                fault_plan: panic_rate.map(|rate| {
                                    Arc::new(
                                        FaultPlan::empty(5)
                                            .with_rate(InjectionSite::KernelPanic, rate),
                                    )
                                }),
                                ..SimOptions::default()
                            },
                        )
                        .unwrap();
                    match mode {
                        "retry rounds" => assert!(run.diagnostics.slot_retries > 0, "{label}"),
                        "panicked slot" => {
                            let panicked = run.diagnostics.panicked_slots.len();
                            assert!(0 < panicked && panicked < specs.len(), "{label}");
                        }
                        _ => assert!(run.is_complete(), "{label}"),
                    }
                    for (i, slot) in run.slots.iter().enumerate() {
                        let Some(waveforms) = &slot.waveforms else {
                            assert!(!slot.status.is_completed(), "{label}, slot {i}");
                            continue;
                        };
                        assert_eq!(
                            slot.activity,
                            SwitchingActivity::of(waveforms.iter()),
                            "{label}, slot {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_slot_poisoned_is_a_run_error() {
    let netlist = glitch_cascade(1);
    let annotation = Arc::new(static_annotation(&netlist, 3.0, 3.0));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        annotation,
        Arc::new(PanickyModel {
            inner: StaticModel::new(ParameterSpace::paper()),
        }),
    )
    .unwrap();
    let patterns: PatternSet = std::iter::once(
        PatternPair::new(Pattern::from_bits([true]), Pattern::from_bits([false])).unwrap(),
    )
    .collect();
    match engine.launch(&patterns, &slots::cross(1, &[1.1]), &SimOptions::default()) {
        Err(SimError::AllSlotsFailed { slots: 1 }) => {}
        other => panic!("expected AllSlotsFailed, got {other:?}"),
    }
}

/// A fixed engine + stimuli pair for the fault-plan property below: a
/// glitchy netlist (so injected overflows and retries actually bite)
/// with static delays and eight mixed-voltage slots.
fn chaos_fixture() -> (CompiledNetlist, PatternSet, Vec<slots::SlotSpec>) {
    let netlist = glitch_cascade(3);
    let annotation = Arc::new(static_annotation(&netlist, 4.0, 6.0));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        annotation,
        Arc::new(StaticModel::new(ParameterSpace::paper())),
    )
    .unwrap();
    let patterns: PatternSet = std::iter::once(
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
    )
    .collect();
    let specs = slots::cross(
        patterns.len(),
        &[0.7, 0.8, 0.9, 1.0, 0.75, 0.85, 0.95, 1.05],
    );
    (engine, patterns, specs)
}

proptest! {
    /// Any randomized fault plan replays bit-for-bit from its seed
    /// alone: two runs under independently constructed plans with the
    /// same seed agree on every slot outcome and every diagnostic, and
    /// fire the exact same injection-site keys.
    #[test]
    fn randomized_fault_plans_replay_deterministically(
        seed in 0u64..1_000_000,
        max_rate in 0.0f64..0.6,
        threads in 1usize..5,
    ) {
        use avfs::inject::{FaultPlan, InjectionSite};
        let (engine, patterns, specs) = chaos_fixture();
        let run = |plan: Arc<FaultPlan>| {
            engine.launch(
                &patterns,
                &specs,
                &SimOptions {
                    threads,
                    arena_capacity: 4, // small enough for organic retries
                    fault_plan: Some(plan),
                    ..SimOptions::default()
                },
            )
        };
        let a_plan = Arc::new(FaultPlan::randomized(seed, max_rate));
        let b_plan = Arc::new(FaultPlan::randomized(seed, max_rate));
        match (run(Arc::clone(&a_plan)), run(Arc::clone(&b_plan))) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.slots, &b.slots);
                prop_assert_eq!(&a.diagnostics, &b.diagnostics);
                prop_assert_eq!(a.node_evaluations, b.node_evaluations);
            }
            (
                Err(SimError::AllSlotsFailed { slots: a }),
                Err(SimError::AllSlotsFailed { slots: b }),
            ) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "replay outcome class diverged: {:?} vs {:?}",
                a.map(|r| r.summary()),
                b.map(|r| r.summary())
            ),
        }
        for site in InjectionSite::ALL {
            prop_assert_eq!(a_plan.fired_keys(site), b_plan.fired_keys(site));
        }
    }
}
