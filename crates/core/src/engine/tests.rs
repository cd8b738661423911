#![allow(clippy::too_many_lines)]

use super::*;
use crate::slots::{at_voltage, cross};
use avfs_delay::model::DelayModel;
use avfs_delay::op::NormalizedPoint;
use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
use avfs_inject::InjectionSite;
use avfs_netlist::{CellLibrary, Netlist, NetlistBuilder, NodeId, NodeKind};
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

#[test]
fn batching_is_transparent() {
    // Force a one-slot batch via a tiny waveform budget and compare
    // against an unbatched run.
    let n = chain_netlist();
    let engine = static_engine(&n, 3.0, 4.0);
    let patterns = one_pattern();
    let slots = cross(1, &[0.8, 0.9, 1.0, 1.1]);
    let big = engine
        .launch(
            &patterns,
            &slots,
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    let tiny = engine
        .launch(
            &patterns,
            &slots,
            &SimOptions {
                threads: 1,
                lanes: 1,
                waveform_budget: 1, // → batch of one slot (at lane width 1)
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert_eq!(big.slots.len(), tiny.slots.len());
    for (a, b) in big.slots.iter().zip(&tiny.slots) {
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.latest_output_transition_ps, b.latest_output_transition_ps);
        assert_eq!(a.activity, b.activity);
    }
}

/// Batches are cut in whole lane groups, at least one per worker: a
/// budget that reserves room for anything from one slot to just under
/// two groups (`raw` slots) cuts one group of `L` slots per worker, two
/// groups' worth cuts two or one per worker, whichever is more, and lane
/// width 1 keeps the exact budget at one worker. 20 slots leave a
/// partial last batch at most widths and worker counts, and every cut
/// equals the single-batch reference bit for bit.
#[test]
fn batches_are_whole_lane_groups() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 5).unwrap());
    let engine = static_engine(&n, 7.0, 8.5);
    let patterns = PatternSet::lfsr(n.inputs().len(), 10, 3);
    let slots = cross(patterns.len(), &[0.7, 0.9]);
    assert_eq!(slots.len(), 20);
    let opts = SimOptions {
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let reference = engine
        .launch(
            &patterns,
            &slots,
            &SimOptions {
                threads: 1,
                lanes: 1,
                ..opts.clone()
            },
        )
        .unwrap();
    let per_slot = n.num_nodes() * opts.resolved_arena_capacity();
    for (threads, lanes) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| [1, 2, 8].map(|l| (t, l)))
    {
        // `(raw, groups)`: the budget's slots and the lane groups it buys.
        let cuts = [1, lanes - 1, lanes, 2 * lanes - 1]
            .map(|raw| (raw, 1))
            .into_iter()
            .chain([(2 * lanes, 2)]);
        for (raw, groups) in cuts {
            let batch_slots = (lanes * groups.max(threads)).min(slots.len());
            let run = engine
                .launch(
                    &patterns,
                    &slots,
                    &SimOptions {
                        threads,
                        lanes,
                        profiling: true,
                        waveform_budget: raw * per_slot,
                        ..opts.clone()
                    },
                )
                .unwrap();
            let case = format!("threads={threads}, lanes={lanes}, raw={raw}");
            let profile = run.profile.as_ref().unwrap();
            let batches = slots.len().div_ceil(batch_slots);
            assert_eq!(
                profile.counter(phases::ENGINE_BATCHES),
                Some(batches as u64),
                "{case}"
            );
            let sizes = profile.histogram(phases::ENGINE_BATCH_SLOTS).unwrap();
            let tail = slots.len() - (batches - 1) * batch_slots;
            assert_eq!(
                (sizes.count, sizes.max, sizes.min),
                (batches as u64, batch_slots as u64, tail as u64),
                "{case}"
            );
            assert_eq!(run.slots, reference.slots, "{case}");
            assert_eq!(run.diagnostics, reference.diagnostics, "{case}");
        }
    }
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

/// Determinism matrix: the hard invariant of the pooled engine is that
/// results — and the work that produced them — are bit-for-bit
/// identical to the single-threaded scalar path whoever walks which
/// lane group. The group-shape axis gives 48 slots the budget of one,
/// three and six lane groups of 8 slots; crossed with workers, lane
/// width, profiling and an armed-but-empty fault plan, which must equal
/// no plan at all. A batch holds at least one lane group per worker, so
/// at lane width 8 the cut is `8 × max(workers, groups)` slots — one
/// group per worker where the budget buys fewer — while at lane width 1
/// the budget's 8, 24 or 48 slots already hold one per worker. Every
/// point equals the scalar reference in slots, diagnostics and the
/// counts no cut moves, and a single-threaded scalar run cut the same
/// way in every count.
#[test]
fn multithreaded_matches_single_threaded() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 11).unwrap());
    let engine = static_engine(&n, 8.0, 9.5);
    let patterns = PatternSet::lfsr(n.inputs().len(), 24, 5);
    let slots = cross(patterns.len(), &[0.8, 1.0]);
    assert_eq!(slots.len(), 48);
    let per_slot = n.num_nodes() * SimOptions::default().resolved_arena_capacity();
    let launch = |opts: SimOptions| {
        engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    keep_waveforms: true,
                    ..opts
                },
            )
            .unwrap()
    };
    let whole = launch(SimOptions {
        threads: 1,
        lanes: 1,
        ..SimOptions::default()
    });
    let scalar_at = |budget| {
        launch(SimOptions {
            threads: 1,
            lanes: 1,
            profiling: true,
            waveform_budget: budget,
            ..SimOptions::default()
        })
    };
    let mut same_cut = std::collections::BTreeMap::new();
    for groups in [1usize, 3, 6] {
        let budget = groups * 8 * per_slot;
        let reference = scalar_at(budget);
        assert_eq!(reference.slots, whole.slots, "{groups} groups per batch");
        assert_eq!(reference.diagnostics, whole.diagnostics);
        let batches = reference
            .profile
            .as_ref()
            .unwrap()
            .counter(phases::ENGINE_BATCHES);
        assert_eq!(
            batches,
            Some(6 / groups as u64),
            "{groups} groups per batch"
        );
        for injection in ["unarmed", "armed-empty"] {
            let fault_plan =
                (injection == "armed-empty").then(|| Arc::new(FaultPlan::empty(0xC0FFEE)));
            for lanes in [1, 8] {
                for threads in [1, 2, 4, 8] {
                    for profiling in [false, true] {
                        let got = launch(SimOptions {
                            threads,
                            profiling,
                            lanes,
                            waveform_budget: budget,
                            fault_plan: fault_plan.clone(),
                            ..SimOptions::default()
                        });
                        let case = format!(
                            "{groups} groups per batch, threads={threads}, lanes={lanes}, \
                             profiling={profiling}, injection={injection}"
                        );
                        assert_eq!(got.slots, reference.slots, "{case}");
                        assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
                        assert_eq!(got.node_evaluations, reference.node_evaluations, "{case}");
                        assert_eq!(got.profile.is_some(), profiling, "{case}");
                        if profiling {
                            let cut = if lanes == 1 {
                                8 * groups
                            } else {
                                8 * groups.max(threads)
                            };
                            let cut = cut.min(slots.len());
                            let batches = got
                                .profile
                                .as_ref()
                                .unwrap()
                                .counter(phases::ENGINE_BATCHES);
                            assert_eq!(batches, Some(slots.len().div_ceil(cut) as u64), "{case}");
                            let same = same_cut
                                .entry(cut)
                                .or_insert_with(|| scalar_at(cut * per_slot));
                            assert_eq!(work_counts(&got), work_counts(same), "{case}");
                            assert_eq!(
                                cut_free_counts(&got),
                                cut_free_counts(&reference),
                                "{case}"
                            );
                        }
                    }
                }
            }
            if let Some(plan) = &fault_plan {
                assert_eq!(plan.total_fired(), 0, "an empty plan never fires");
            }
        }
    }
}

/// The fault and scenario paths under the same matrix at four workers:
/// quarantine-and-retry, a contained delay-model panic, Monte Carlo dice
/// over droop schedules and voltage islands each equal their
/// single-threaded scalar reference — slots, diagnostics and exact work
/// counts.
#[test]
fn fault_and_scenario_paths_match_single_threaded() {
    let glitch = glitch_netlist();
    let glitch_engine = static_engine(&glitch, 10.0, 10.0);
    let chain = chain_netlist();
    let panicky_engine = CompiledNetlist::compile(
        Arc::clone(&chain),
        Arc::new(
            static_engine(&chain, 10.0, 10.0)
                .annotation()
                .as_ref()
                .clone(),
        ),
        Arc::new(PanickyModel {
            inner: StaticModel::new(ParameterSpace::paper()),
        }),
    )
    .unwrap();
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let rnd = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 31).unwrap());
    let scaled = voltage_scaled_engine(&rnd, 8.0, 9.5);
    let rnd_patterns = PatternSet::lfsr(rnd.inputs().len(), 6, 9);
    let schedules = cross_schedules(
        rnd_patterns.len(),
        &[
            Schedule::droop(0.9, 0.15, 12.0, 40.0),
            Schedule::steps([(0.0, 0.7), (25.0, 1.0)]),
        ],
    );
    let mc = MonteCarlo {
        samples: 3,
        variation: VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed: 0xD1CE,
        },
    };
    let domains = crate::domains::VoltageDomains::from_fn(&rnd, |id| id.index() % 3);
    let islands: Vec<crate::domains::DomainSlotSpec> = [[0.9, 0.6, 0.9], [0.6, 0.6, 1.0]]
        .iter()
        .flat_map(|voltages| {
            (0..rnd_patterns.len()).map(|pattern| crate::domains::DomainSlotSpec {
                pattern,
                voltages: voltages.to_vec(),
            })
        })
        .collect();
    type Path<'a> = (&'a str, Box<dyn Fn(SimOptions) -> SimRun + 'a>);
    let paths: Vec<Path<'_>> = vec![
        (
            "retry",
            Box::new(|opts| {
                glitch_engine
                    .launch(
                        &one_pattern(),
                        &cross(1, &[0.7, 0.8, 0.9, 1.0]),
                        &SimOptions {
                            keep_waveforms: true,
                            arena_capacity: 1,
                            ..opts
                        },
                    )
                    .unwrap()
            }),
        ),
        (
            "panicking",
            Box::new(|opts| {
                // 1.1 V normalizes to the poisoned operating point.
                panicky_engine
                    .launch(&one_pattern(), &cross(1, &[0.8, 1.1, 0.9]), &opts)
                    .unwrap()
            }),
        ),
        (
            "dice",
            Box::new(|opts| {
                scaled
                    .launch(
                        &rnd_patterns,
                        scheduled(&schedules, Some(&mc), Some(500.0)),
                        &opts,
                    )
                    .unwrap()
            }),
        ),
        (
            "islands",
            Box::new(|opts| {
                scaled
                    .launch(
                        &rnd_patterns,
                        Launch::Domains {
                            domains: &domains,
                            slots: &islands,
                        },
                        &opts,
                    )
                    .unwrap()
            }),
        ),
    ];
    for (name, run) in &paths {
        // Fills the delay-table caches, so the profiled runs below
        // repeat one another's work exactly.
        run(SimOptions {
            threads: 1,
            ..SimOptions::default()
        });
        let reference = run(SimOptions {
            threads: 1,
            lanes: 1,
            profiling: true,
            ..SimOptions::default()
        });
        match *name {
            "retry" => assert_eq!(reference.diagnostics.slot_retries, 4),
            "panicking" => assert_eq!(reference.diagnostics.panicked_slots, vec![1]),
            _ => {}
        }
        for lanes in [1, 8] {
            let got = run(SimOptions {
                threads: 4,
                lanes,
                profiling: true,
                ..SimOptions::default()
            });
            let case = format!("{name}, lanes={lanes}");
            assert_eq!(got.slots, reference.slots, "{case}");
            assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
            assert_eq!(got.scenario, reference.scenario, "{case}");
            assert_eq!(work_counts(&got), work_counts(&reference), "{case}");
        }
    }
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
    let n = chain_netlist();
    let engine = static_engine(&n, 1.0, 1.0);
    let patterns = one_pattern();
    for lanes in [3usize, 5, 6, 128] {
        let err = engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    lanes,
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, SimError::InvalidLanes { lanes });
    }
    // 0 resolves to the default width; every power of two ≤ 64 works.
    for lanes in [0usize, 1, 2, 64] {
        engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    lanes,
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
    }
}

#[test]
fn partial_tail_lane_groups_match_scalar() {
    // 5 slots at lane width 4 → one full group plus a 1-lane tail;
    // lane width 64 → a single partial group wider than the whole
    // batch. Both must be bit-identical to the scalar layout.
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 7).unwrap());
    let engine = static_engine(&n, 6.0, 7.0);
    let patterns = PatternSet::lfsr(n.inputs().len(), 5, 3);
    let slots: Vec<SlotSpec> = (0..5)
        .map(|p| SlotSpec {
            pattern: p,
            voltage: 0.8,
        })
        .collect();
    let opts = |lanes| SimOptions {
        threads: 1,
        lanes,
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let reference = engine.launch(&patterns, &slots, &opts(1)).unwrap();
    for lanes in [4, 64] {
        let got = engine.launch(&patterns, &slots, &opts(lanes)).unwrap();
        assert_eq!(got.slots, reference.slots, "lanes={lanes}");
        assert_eq!(got.diagnostics, reference.diagnostics, "lanes={lanes}");
    }
}

#[test]
fn quarantined_lane_masking_on_overflow_retry() {
    // A capacity-1 arena overflows the glitching slots of a lane
    // group while their constant-stimulus neighbours complete in
    // round 0; the retry rounds must mask the quarantined lanes out
    // of their groups' live masks (never re-evaluating the finished
    // lanes) and end bit-identical to the scalar path.
    use avfs_atpg::pattern::{Pattern, PatternPair};
    let n = glitch_netlist();
    let engine = static_engine(&n, 10.0, 10.0);
    let patterns: PatternSet = [
        // Glitches: the XOR of a rising input with its inverse.
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        // Constant: nothing ever toggles.
        PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
    ]
    .into_iter()
    .collect();
    let slots: Vec<SlotSpec> = (0..6)
        .map(|i| SlotSpec {
            pattern: i % 2,
            voltage: 0.8,
        })
        .collect();
    let opts = |lanes| SimOptions {
        threads: 1,
        lanes,
        arena_capacity: 1,
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let reference = engine.launch(&patterns, &slots, &opts(1)).unwrap();
    assert!(
        reference.diagnostics.slot_retries > 0,
        "glitch slots must hit the quarantine-and-retry path"
    );
    for lanes in [4, 8] {
        let got = engine.launch(&patterns, &slots, &opts(lanes)).unwrap();
        assert_eq!(got.slots, reference.slots, "lanes={lanes}");
        assert_eq!(got.diagnostics, reference.diagnostics, "lanes={lanes}");
    }
}

#[test]
fn mixed_island_vectors_group_correctly() {
    // Slots with different per-domain voltage vectors in ONE launch:
    // the per-(level, voltage-assignment) grouping must keep them
    // apart; results must match per-vector launches.
    let lib = CellLibrary::nangate15_like();
    let n = Arc::new(avfs_circuits::ripple_carry_adder(4, &lib).unwrap());
    // A voltage-sensitive analytic model so distinct vectors actually
    // produce distinct timing.
    let mut ann = TimingAnnotation::zero(&n);
    for (id, node) in n.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for pin in 0..node.fanin().len() {
                ann.node_delays_mut(id)[pin] = PinDelays {
                    rise: 6.0,
                    fall: 7.0,
                };
            }
        }
    }
    let engine = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(ann),
        Arc::new(avfs_delay::AlphaPowerModel::new(
            0.24,
            1.35,
            ParameterSpace::paper(),
        )),
    )
    .unwrap();
    let domains = crate::domains::VoltageDomains::by_output_cones(&n, 2);
    let patterns = PatternSet::lfsr(n.inputs().len(), 2, 8);
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let mixed = vec![
        crate::domains::DomainSlotSpec {
            pattern: 0,
            voltages: vec![0.8, 0.8],
        },
        crate::domains::DomainSlotSpec {
            pattern: 1,
            voltages: vec![0.6, 1.0],
        },
        crate::domains::DomainSlotSpec {
            pattern: 0,
            voltages: vec![0.6, 1.0],
        },
    ];
    let run = engine
        .launch(
            &patterns,
            Launch::Domains {
                domains: &domains,
                slots: &mixed,
            },
            &opts,
        )
        .unwrap();
    assert_eq!(run.slots.len(), 3);
    for (spec, slot) in mixed.iter().zip(&run.slots) {
        let solo = engine
            .launch(
                &patterns,
                Launch::Domains {
                    domains: &domains,
                    slots: std::slice::from_ref(spec),
                },
                &opts,
            )
            .unwrap();
        assert_eq!(slot.responses, solo.slots[0].responses);
        assert_eq!(
            slot.latest_output_transition_ps,
            solo.slots[0].latest_output_transition_ps
        );
    }
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
    let lib = CellLibrary::nangate15_like();
    let mut b = NetlistBuilder::new("glitch", &lib);
    let a = b.add_input("a").unwrap();
    let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
    let x = b.add_gate("x", "XOR2_X1", &[a, inv]).unwrap();
    b.add_output("y", x).unwrap();
    let n = Arc::new(b.finish().unwrap());
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

/// [`VoltageScaledModel`] with a non-finite kernel below `v_norm` 0.3:
/// 0.6 V, and no supply of 0.8 V or above, reads a non-finite factor.
#[derive(Debug)]
struct DroopBlindModel(VoltageScaledModel);

impl avfs_delay::model::DelayModel for DroopBlindModel {
    fn factor(
        &self,
        cell: avfs_netlist::CellId,
        pin: usize,
        polarity: avfs_netlist::library::Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, avfs_delay::DelayError> {
        if p.v < 0.3 {
            return Ok(f64::INFINITY);
        }
        self.0.factor(cell, pin, polarity, p)
    }
    fn name(&self) -> &str {
        "droop-blind"
    }
    fn space(&self) -> &ParameterSpace {
        self.0.space()
    }
}

/// [`voltage_scaled_engine`]'s annotation under a [`DroopBlindModel`].
fn droop_blind_engine(netlist: &Arc<Netlist>) -> CompiledNetlist {
    CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(voltage_scaled_engine(netlist, 8.0, 9.5).annotation()),
        Arc::new(DroopBlindModel(VoltageScaledModel {
            space: ParameterSpace::paper(),
        })),
    )
    .unwrap()
}

/// The tentpole identity: a constant (single-segment) schedule is the
/// static run, bit for bit — slots, diagnostics, node evaluations —
/// at every thread count and lane width, profiled or not, and the
/// profile carries no scenario instruments (so even profiles stay
/// identical to the static launch).
#[test]
fn constant_schedule_is_bit_identical_to_static() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 23).unwrap());
    let engine = voltage_scaled_engine(&n, 8.0, 9.5);
    let patterns = PatternSet::lfsr(n.inputs().len(), 4, 5);
    let voltages = [0.7, 0.9];
    let slots = cross(patterns.len(), &voltages);
    let scenarios = cross_schedules(
        patterns.len(),
        &[Schedule::constant(0.7), Schedule::constant(0.9)],
    );
    for threads in [1usize, 4] {
        for lanes in [1usize, 8] {
            for profiling in [false, true] {
                let opts = SimOptions {
                    threads,
                    lanes,
                    profiling,
                    ..SimOptions::default()
                };
                let case = format!("threads={threads}, lanes={lanes}, profiling={profiling}");
                let fixed = engine.launch(&patterns, &slots, &opts).unwrap();
                let scheduled = engine
                    .launch(&patterns, scheduled(&scenarios, None, None), &opts)
                    .unwrap();
                assert_eq!(scheduled.slots, fixed.slots, "{case}");
                assert_eq!(scheduled.diagnostics, fixed.diagnostics, "{case}");
                assert_eq!(scheduled.node_evaluations, fixed.node_evaluations, "{case}");
                if profiling {
                    let profile = scheduled.profile.as_ref().unwrap();
                    assert_eq!(
                        profile.counter(phases::ENGINE_SCENARIO_SEGMENTS),
                        None,
                        "constant schedules record no scenario instruments ({case})"
                    );
                    assert_eq!(profile.counter(phases::ENGINE_MC_SAMPLES), None, "{case}");
                    assert_eq!(
                        profile.counter(phases::ENGINE_VARIATION_DRAWS),
                        None,
                        "{case}"
                    );
                }
                let summary = scheduled.scenario.as_ref().unwrap();
                assert_eq!(summary.samples_per_scenario, 1);
                assert_eq!(summary.points.len(), voltages.len());
            }
        }
    }
}

/// Multi-segment schedules and Monte Carlo sampling obey the same
/// determinism matrix as every other engine path: bit-identical to
/// the single-threaded scalar reference at all thread counts and lane
/// widths, profiled or not.
#[test]
fn scheduled_mc_runs_match_single_threaded_reference() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 31).unwrap());
    let engine = voltage_scaled_engine(&n, 8.0, 9.5);
    let patterns = PatternSet::lfsr(n.inputs().len(), 3, 9);
    let scenarios = cross_schedules(
        patterns.len(),
        &[
            Schedule::droop(0.9, 0.15, 12.0, 40.0),
            Schedule::steps([(0.0, 0.7), (25.0, 1.0)]),
        ],
    );
    let mc = MonteCarlo {
        samples: 3,
        variation: VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed: 0xD1CE,
        },
    };
    let reference = engine
        .launch(
            &patterns,
            scheduled(&scenarios, Some(&mc), Some(500.0)),
            &SimOptions {
                threads: 1,
                lanes: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert_eq!(reference.slots.len(), scenarios.len() * mc.samples);
    for threads in [1usize, 4] {
        for lanes in [1usize, 8] {
            for profiling in [false, true] {
                let case = format!("threads={threads}, lanes={lanes}, profiling={profiling}");
                let got = engine
                    .launch(
                        &patterns,
                        scheduled(&scenarios, Some(&mc), Some(500.0)),
                        &SimOptions {
                            threads,
                            lanes,
                            profiling,
                            ..SimOptions::default()
                        },
                    )
                    .unwrap();
                assert_eq!(got.slots, reference.slots, "{case}");
                assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
                assert_eq!(got.scenario, reference.scenario, "{case}");
                if profiling {
                    let profile = got.profile.as_ref().unwrap();
                    // 3 segments + 2 segments, × patterns × dice.
                    let segments = (3 + 2) as u64 * patterns.len() as u64 * mc.samples as u64;
                    assert_eq!(
                        profile.counter(phases::ENGINE_SCENARIO_SEGMENTS),
                        Some(segments),
                        "{case}"
                    );
                    assert_eq!(
                        profile.counter(phases::ENGINE_MC_SAMPLES),
                        Some(reference.slots.len() as u64),
                        "{case}"
                    );
                    assert!(
                        profile.counter(phases::ENGINE_VARIATION_DRAWS).unwrap() > 0,
                        "{case}"
                    );
                }
            }
        }
    }
}

/// The one delay-initialisation path against an independent oracle:
/// every kind of voltage group's level view equals, bit for bit, the
/// delays `sta::scaled_graph` derives gate by gate with its own model
/// calls — uniform, every segment of a droop, a three-domain island at
/// two supplies (each gate at its domain's supply), a die (the reference
/// × its derate) and a small-delay fault group (the derivation of the
/// artifact recompiled with the fault in its annotation: on a die and
/// non-finite). The model is non-finite below `v_norm` 0.3, so the
/// fallback tallies are known in closed form: every pin at 0.6 V falls
/// back twice, no pin at 0.8 V or above does.
#[test]
fn group_level_views_match_the_sta_derivation() {
    use super::delays::{BatchDelays, VoltageGroup};
    use avfs_netlist::library::Polarity;
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 31).unwrap());
    let engine = droop_blind_engine(&n);
    let (low, mid, high) = (0.6, 0.8, 0.9);
    assert!(engine.v_norm(low) < 0.3 && engine.v_norm(mid) >= 0.3);
    let reference = |volts: f64| crate::sta::scaled_graph(&engine, volts).unwrap();
    let (ref_low, ref_mid, ref_high) = (reference(low), reference(mid), reference(high));
    let domains = crate::domains::VoltageDomains::from_fn(&n, |id| id.index() % 3);
    let island_supplies = [high, low, high];
    let bits = |d: &[PinDelays]| -> Vec<(u64, u64)> {
        d.iter()
            .map(|p| (p.rise.to_bits(), p.fall.to_bits()))
            .collect()
    };
    let pins_of = |node: NodeId| engine.annotation().node_delays(node).len() as u64;
    let die = VariationSample {
        config: VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed: 0xD1CE,
        },
        sample: 2,
    };
    // Binds a group, opens every level and compares what the merge loop
    // reads in each segment — at the segment's start time — with
    // `expect(segment, gate)` and its fallbacks with the sum of `tally`.
    let check = |name: &str,
                 work: SlotWork,
                 expect: &dyn Fn(usize, NodeId) -> Vec<PinDelays>,
                 tally: &dyn Fn(NodeId) -> u64| {
        let mut group = VoltageGroup::new(&work);
        assert!(group.bind_tables(&engine, None).is_ok(), "{name}: binds");
        let groups = [group];
        let delays = BatchDelays::new(&engine, Some(&domains), &groups);
        let starts: Vec<f64> = std::iter::once(f64::NEG_INFINITY)
            .chain(work.assign.boundaries().iter().copied())
            .collect();
        assert_eq!(starts.len(), work.assign.segments(), "{name}");
        for level in 1..engine.levels().depth() {
            let fallbacks = delays.open(0, level);
            let plan = &engine.level_plans[level];
            let view = delays.level(0, level);
            for (seg, &t) in starts.iter().enumerate() {
                for (pos, &gate) in plan.gate_nodes.iter().enumerate() {
                    let pins = plan.gate_offsets[pos]..plan.gate_offsets[pos + 1];
                    let read: Vec<PinDelays> = pins.map(|idx| view.pin(t, idx)).collect();
                    assert_eq!(
                        bits(&read),
                        bits(&expect(seg, gate)),
                        "{name}: level {level}, segment {seg}, gate {pos}"
                    );
                }
            }
            let want: u64 = plan.gate_nodes.iter().map(|&gate| tally(gate)).sum();
            assert_eq!(fallbacks, want, "{name}: level {level} fallbacks");
        }
        if work.variation.is_some() {
            // One draw per level, whoever opens it: re-opening draws
            // nothing.
            let drawn = delays.draws();
            delays.open(0, 1);
            assert_eq!(delays.draws(), drawn, "{name}");
        }
    };
    let slot = |assign, variation, fault| SlotWork {
        pattern: 0,
        assign,
        voltage: 0.0,
        variation,
        fault,
    };
    let v = |volts: f64| engine.v_norm(volts);
    let droop = || {
        VoltageAssign::Scheduled(Arc::new(NormalizedSchedule {
            v_norms: vec![v(high), v(low), v(high)],
            boundaries: vec![12.0, 40.0],
        }))
    };
    let fall_back = |gate| 2 * pins_of(gate);
    let derated = |delays: &[PinDelays], gate| -> Vec<PinDelays> {
        let derate = |pin, polarity| {
            avfs_delay::variation::derate(&die.config, die.sample, gate, pin, polarity)
        };
        delays
            .iter()
            .enumerate()
            .map(|(pin, d)| PinDelays {
                rise: (d.rise * derate(pin, Polarity::Rise)).max(0.0),
                fall: (d.fall * derate(pin, Polarity::Fall)).max(0.0),
            })
            .collect()
    };
    check(
        "uniform",
        slot(VoltageAssign::Uniform(v(mid)), None, None),
        &|_, gate| ref_mid.node_delays(gate).to_vec(),
        &|_| 0,
    );
    check(
        "uniform, non-finite",
        slot(VoltageAssign::Uniform(v(low)), None, None),
        &|_, gate| ref_low.node_delays(gate).to_vec(),
        &fall_back,
    );
    check(
        "droop",
        slot(droop(), None, None),
        &|seg, gate| match seg {
            1 => ref_low.node_delays(gate).to_vec(),
            _ => ref_high.node_delays(gate).to_vec(),
        },
        // Segment 1 of three falls back.
        &fall_back,
    );
    let island_low = |gate| island_supplies[domains.domain_of(gate)] == low;
    check(
        "islands",
        slot(
            VoltageAssign::PerDomain(island_supplies.iter().map(|&s| v(s)).collect()),
            None,
            None,
        ),
        &|_, gate| match island_low(gate) {
            true => ref_low.node_delays(gate).to_vec(),
            false => ref_high.node_delays(gate).to_vec(),
        },
        &|gate| if island_low(gate) { fall_back(gate) } else { 0 },
    );
    check(
        "die",
        slot(VoltageAssign::Uniform(v(mid)), Some(die), None),
        &|_, gate| derated(ref_mid.node_delays(gate), gate),
        &|_| 0,
    );
    // A small-delay fault on the last gate of a middle level, against the
    // derivation of an artifact recompiled with `δ` in its annotation: on
    // a die and at the non-finite supply.
    let depth = engine.levels().depth();
    let site = (depth / 2..depth)
        .find_map(|level| engine.level_plans[level].gate_nodes.last().copied())
        .unwrap();
    let fault = crate::delay_fault::SmallDelayFault {
        node: site,
        delta_ps: 3.25,
    };
    let mut annotation = engine.annotation().as_ref().clone();
    for d in annotation.node_delays_mut(site).iter_mut() {
        d.rise += fault.delta_ps;
        d.fall += fault.delta_ps;
    }
    let faulty = CompiledNetlist::compile(
        Arc::clone(&n),
        Arc::new(annotation),
        Arc::clone(engine.model()),
    )
    .unwrap();
    let faulty_at = |volts: f64| crate::sta::scaled_graph(&faulty, volts).unwrap();
    let (faulty_low, faulty_mid) = (faulty_at(low), faulty_at(mid));
    check(
        "fault on a die",
        slot(VoltageAssign::Uniform(v(mid)), Some(die), Some(fault)),
        &|_, gate| derated(faulty_mid.node_delays(gate), gate),
        &|_| 0,
    );
    check(
        "fault, non-finite",
        slot(VoltageAssign::Uniform(v(low)), None, Some(fault)),
        &|_, gate| faulty_low.node_delays(gate).to_vec(),
        &fall_back,
    );
    // A launch reports exactly the tallies of the gates each slot reads:
    // two island groups, one per supply vector, of one slot per pattern.
    let patterns = PatternSet::lfsr(n.inputs().len(), 2, 9);
    let vectors = [vec![high, low, high], vec![low, low, high]];
    let specs: Vec<crate::domains::DomainSlotSpec> = vectors
        .iter()
        .flat_map(|voltages| {
            (0..patterns.len()).map(|pattern| crate::domains::DomainSlotSpec {
                pattern,
                voltages: voltages.clone(),
            })
        })
        .collect();
    let gates = || {
        n.iter()
            .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
            .map(|(id, _)| id)
    };
    let expected: u64 = vectors
        .iter()
        .map(|voltages| {
            gates()
                .filter(|&gate| voltages[domains.domain_of(gate)] == low)
                .map(|gate| 2 * pins_of(gate))
                .sum::<u64>()
        })
        .sum::<u64>()
        * patterns.len() as u64;
    for threads in [1usize, 2] {
        for lanes in [1usize, 8] {
            let run = engine
                .launch(
                    &patterns,
                    Launch::Domains {
                        domains: &domains,
                        slots: &specs,
                    },
                    &SimOptions {
                        threads,
                        lanes,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
            assert!(run.is_complete());
            assert_eq!(
                run.diagnostics.kernel_fallbacks, expected,
                "threads={threads}, lanes={lanes}"
            );
        }
    }
}

/// A non-finite factor falls back to nominal and is counted once per
/// slot that reads it, whatever the batch cut: a launch mixing a supply
/// whose factor is non-finite (0.6 V, constant and as a droop's dip)
/// with a clean one, on three dice, given the budget of 8-slot batches —
/// so slots of one schedule and die share a voltage group, and at lane
/// width 8 the batch grows to one 8-slot group per worker — equals each
/// scenario launched alone, slot for slot, and its fallbacks are the
/// sum of theirs, at every worker count and lane width.
#[test]
fn nonfinite_factors_fall_back_per_slot_whatever_the_batch_cut() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 31).unwrap());
    let engine = droop_blind_engine(&n);
    let patterns = PatternSet::lfsr(n.inputs().len(), 3, 9);
    let scenarios = cross_schedules(
        patterns.len(),
        &[
            Schedule::constant(0.6),
            Schedule::constant(0.9),
            Schedule::droop(0.9, 0.3, 12.0, 40.0),
        ],
    );
    let mc = MonteCarlo {
        samples: 3,
        variation: VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed: 0xD1CE,
        },
    };
    let solo_opts = SimOptions {
        threads: 1,
        lanes: 1,
        ..SimOptions::default()
    };
    let solos: Vec<SimRun> = (0..scenarios.len())
        .map(|i| {
            let one = scheduled(&scenarios[i..=i], Some(&mc), None);
            engine.launch(&patterns, one, &solo_opts).unwrap()
        })
        .collect();
    let fallbacks: Vec<u64> = solos
        .iter()
        .map(|run| run.diagnostics.kernel_fallbacks)
        .collect();
    // The clean constant supply never falls back; the other two do.
    for (i, &count) in fallbacks.iter().enumerate() {
        let clean = i / patterns.len() == 1;
        assert_eq!(count == 0, clean, "scenario {i}: {count} fallbacks");
    }
    let per_batch = 8 * n.num_nodes() * SimOptions::default().resolved_arena_capacity();
    for threads in [1usize, 4] {
        for lanes in [1usize, 8] {
            let case = format!("threads={threads}, lanes={lanes}");
            let run = engine
                .launch(
                    &patterns,
                    scheduled(&scenarios, Some(&mc), None),
                    &SimOptions {
                        threads,
                        lanes,
                        profiling: true,
                        waveform_budget: per_batch,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
            let batches = run
                .profile
                .as_ref()
                .unwrap()
                .counter(phases::ENGINE_BATCHES);
            let cut = lanes * (8 / lanes).max(threads);
            assert_eq!(
                batches,
                Some(run.slots.len().div_ceil(cut) as u64),
                "{case}"
            );
            for (i, solo) in solos.iter().enumerate() {
                for (die, want) in solo.slots.iter().enumerate() {
                    let got = &run.slots[i * mc.samples + die];
                    assert_eq!(got, want, "{case}: scenario {i}, die {die}");
                }
            }
            assert_eq!(
                run.diagnostics.kernel_fallbacks,
                fallbacks.iter().sum::<u64>(),
                "{case}"
            );
        }
    }
}

/// Segment selection snaps on the *cause* (input event) time: an
/// event exactly at a boundary belongs to the later segment, one just
/// before it to the earlier — checked through a two-inverter chain
/// whose second stage's input event lands exactly on the boundary.
#[test]
fn boundary_event_snaps_to_later_segment() {
    let n = chain_netlist();
    let engine = voltage_scaled_engine(&n, 10.0, 10.0);
    let space = ParameterSpace::paper();
    let c_min = space.load_range().0;
    let f = |v: f64| 1.5 - space.normalize_clamped(OperatingPoint::new(v, c_min)).v;
    let (v0, v1) = (0.7, 1.0);
    // Input flips at t = 0 (segment 0): g1's output lands at t1.
    let t1 = 10.0 * f(v0);
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let run_with_boundary = |boundary: f64| {
        let scenarios = [ScenarioSpec {
            pattern: 0,
            schedule: Schedule::steps([(0.0, v0), (boundary, v1)]),
        }];
        let run = engine
            .launch(&one_pattern(), scheduled(&scenarios, None, None), &opts)
            .unwrap();
        run.slots[0].latest_output_transition_ps.unwrap()
    };
    // Boundary exactly at g2's input event: the event sees the
    // *later* (faster) segment.
    let at = run_with_boundary(t1);
    assert!(
        (at - (t1 + 10.0 * f(v1))).abs() < 1e-9,
        "boundary event must use the later segment: got {at}"
    );
    // Boundary just after the event: still the earlier segment.
    let after = run_with_boundary(t1 + 0.01);
    assert!(
        (after - (t1 + 10.0 * f(v0))).abs() < 1e-9,
        "pre-boundary event must use the earlier segment: got {after}"
    );
}

/// Monte Carlo draws replay exactly from the seed (pure hashes, no
/// stateful RNG), a different seed draws different dice, and a
/// zero-sigma die is bit-identical to the variation-free run.
#[test]
fn mc_replays_exactly_from_seed() {
    let lib = CellLibrary::nangate15_like();
    let cfg = avfs_circuits::GeneratorConfig::small();
    let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 47).unwrap());
    let engine = voltage_scaled_engine(&n, 8.0, 9.0);
    let patterns = PatternSet::lfsr(n.inputs().len(), 2, 3);
    let scenarios = cross_schedules(patterns.len(), &[Schedule::droop(0.9, 0.1, 15.0, 60.0)]);
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let mc = |sigma: f64, seed: u64| MonteCarlo {
        samples: 4,
        variation: VariationConfig {
            sigma,
            max_deviation: 0.25,
            seed,
        },
    };
    let a = engine
        .launch(
            &patterns,
            scheduled(&scenarios, Some(&mc(0.08, 7)), None),
            &opts,
        )
        .unwrap();
    let b = engine
        .launch(
            &patterns,
            scheduled(&scenarios, Some(&mc(0.08, 7)), None),
            &opts,
        )
        .unwrap();
    assert_eq!(a.slots, b.slots, "same seed must replay exactly");
    assert_eq!(a.scenario, b.scenario);
    let c = engine
        .launch(
            &patterns,
            scheduled(&scenarios, Some(&mc(0.08, 8)), None),
            &opts,
        )
        .unwrap();
    assert_ne!(
        a.slots
            .iter()
            .map(|s| s.latest_output_transition_ps)
            .collect::<Vec<_>>(),
        c.slots
            .iter()
            .map(|s| s.latest_output_transition_ps)
            .collect::<Vec<_>>(),
        "a different seed must draw different dice"
    );
    // Zero sigma: derates are exactly 1.0, so the sampled run is the
    // variation-free run bit for bit (slot-for-slot: each scenario's
    // single nominal die).
    let nominal = engine
        .launch(
            &patterns,
            scheduled(
                &scenarios,
                Some(&MonteCarlo {
                    samples: 1,
                    variation: VariationConfig {
                        sigma: 0.0,
                        max_deviation: 0.25,
                        seed: 99,
                    },
                }),
                None,
            ),
            &opts,
        )
        .unwrap();
    let plain = engine
        .launch(&patterns, scheduled(&scenarios, None, None), &opts)
        .unwrap();
    assert_eq!(nominal.slots, plain.slots);
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

/// Batch order is invisible: batches are cut die-major, results come
/// back in launch order (scenario `i`'s dice at `i * samples ..`), and
/// every cut at every thread count and lane width equals the
/// single-threaded single-batch reference bit for bit. At
/// lane width 1 the budgets cut one slot per batch, a batch straddling
/// two dice, exactly one die per batch and everything in one batch; at
/// width 8 the same budgets cut whole lane groups (8, 8, 8 and 32 + 4
/// slots). Retry rounds keep the order (`arena_capacity: 1` overflows
/// every toggling slot into round 1), and an armed all-zero fault plan
/// changes nothing.
#[test]
fn batch_order_is_invisible_in_a_droop_mc_launch() {
    let grid = DiceGrid::new();
    let (scenarios, samples) = (grid.scenarios.len(), grid.mc.samples);
    let base = |arena_capacity: usize| SimOptions {
        threads: 1,
        lanes: 1,
        arena_capacity,
        ..SimOptions::default()
    };
    let reference = grid.launch(&grid.mc, &base(0));
    assert_eq!(reference.slots.len(), grid.slots());
    assert!(reference.is_complete());
    // Launch order, checked against launches the die sort cannot touch:
    // one die per scenario is already die-major, and a one-die plan
    // draws sample 0 — so scenario `i`'s first slot is that launch's
    // slot `i`, and every slot reports its own scenario's spec.
    let die0 = grid.launch(
        &MonteCarlo {
            samples: 1,
            ..grid.mc
        },
        &base(0),
    );
    for (i, spec) in grid.scenarios.iter().enumerate() {
        assert_eq!(reference.slots[i * samples], die0.slots[i], "scenario {i}");
        for die in 0..samples {
            let slot = &reference.slots[i * samples + die];
            assert_eq!(slot.spec.pattern, spec.pattern, "scenario {i}, die {die}");
            assert_eq!(
                Some(slot.spec.voltage),
                spec.schedule.representative_voltage(),
                "scenario {i}, die {die}"
            );
        }
    }
    let overflowing = grid.launch(&grid.mc, &base(1));
    assert!(
        overflowing.diagnostics.slot_retries > 0,
        "capacity 1 retries"
    );
    for (name, arena_capacity, armed, expected) in [
        ("clean", 0, false, &reference),
        ("retry rounds", 1, false, &overflowing),
        ("armed all-zero plan", 0, true, &reference),
    ] {
        let cap = base(arena_capacity).resolved_arena_capacity();
        // 5 slots straddle two dice (9 slots each); 9 is one die.
        for batch_slots in [1, 5, scenarios, grid.slots()] {
            for threads in [1usize, 2, 4] {
                for lanes in [1usize, 8] {
                    let got = grid.launch(
                        &grid.mc,
                        &SimOptions {
                            threads,
                            lanes,
                            waveform_budget: grid.budget(batch_slots, cap),
                            fault_plan: armed.then(|| Arc::new(FaultPlan::empty(0xC0FFEE))),
                            ..base(arena_capacity)
                        },
                    );
                    let case = format!(
                        "{name}: {batch_slots} slots/batch, threads={threads}, lanes={lanes}"
                    );
                    assert_eq!(got.slots, expected.slots, "{case}");
                    assert_eq!(got.scenario, expected.scenario, "{case}");
                    assert_eq!(got.diagnostics, expected.diagnostics, "{case}");
                    assert_eq!(got.node_evaluations, expected.node_evaluations, "{case}");
                }
            }
        }
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

/// Every launch kind through all three doors: uniform supplies (also at
/// a one-transition arena, which forces retry rounds), voltage islands,
/// droop × Monte Carlo scenarios under a capture deadline, and a fault
/// list on a die at a one-transition arena. At threads {1, 4} × lanes
/// {1, 8}, the slots, diagnostics and summary of
/// [`CompiledNetlist::launch`], [`Session::run`](crate::Session::run) and
/// [`BatchRunner::run`](crate::BatchRunner::run) are those of the
/// single-threaded `launch`, and the verdicts graded off every fault run
/// are the per-fault recompile oracle's.
#[test]
fn every_launch_kind_runs_alike_through_every_door() {
    use crate::delay_fault::tests::{bits, recompile_oracle};
    use crate::delay_fault::{FaultVerdict, SmallDelayFault};
    use crate::domains::{DomainSlotSpec, VoltageDomains};
    let lib = CellLibrary::nangate15_like();
    let netlist = Arc::new(avfs_circuits::ripple_carry_adder(8, &lib).unwrap());
    let engine = Arc::new(voltage_scaled_engine(&netlist, 10.0, 7.0));
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 6, 11);
    let uniform = cross(patterns.len(), &[0.7, 0.8]);
    let domains = VoltageDomains::by_output_cones(&netlist, 2);
    let islands: Vec<DomainSlotSpec> = [[0.9, 0.6], [0.7, 1.0]]
        .iter()
        .flat_map(|voltages| {
            (0..patterns.len()).map(|pattern| DomainSlotSpec {
                pattern,
                voltages: voltages.to_vec(),
            })
        })
        .collect();
    let schedules = cross_schedules(
        patterns.len(),
        &[
            Schedule::droop(0.8, 0.1, 20.0, 70.0),
            Schedule::constant(0.7),
        ],
    );
    let mc = MonteCarlo {
        samples: 2,
        variation: VariationConfig {
            sigma: 0.06,
            max_deviation: 0.2,
            seed: 0xA11CE,
        },
    };
    // Three fault sizes around a capture 10 % past the nominal arrival,
    // so some faults hide and some show.
    let arrival = engine
        .launch(
            &patterns,
            &at_voltage(patterns.len(), 0.8),
            &SimOptions::default(),
        )
        .unwrap()
        .latest_arrival_at(0.8)
        .unwrap();
    let capture_ps = arrival * 1.1;
    let faults: Vec<SmallDelayFault> = SmallDelayFault::every_gate(&netlist, arrival * 0.1)
        .into_iter()
        .enumerate()
        .map(|(i, f)| SmallDelayFault {
            delta_ps: f.delta_ps * [0.5, 1.0, 2.0][i % 3],
            ..f
        })
        .collect();
    let die = Some(VariationConfig::sigma5(0xFA17));
    let verdicts = recompile_oracle(&engine, &faults, &patterns, (0.8, die), capture_ps);
    assert!(verdicts.iter().any(|v| v.detected) && verdicts.iter().any(|v| !v.detected));
    let tight = SimOptions {
        arena_capacity: 1,
        ..SimOptions::default()
    };
    let rows = [
        ("uniform", Launch::from(&uniform), SimOptions::default()),
        (
            "uniform, tight arena",
            Launch::from(&uniform),
            tight.clone(),
        ),
        (
            "islands",
            Launch::Domains {
                domains: &domains,
                slots: &islands,
            },
            SimOptions::default(),
        ),
        (
            "scenarios",
            scheduled(&schedules, Some(&mc), Some(120.0)),
            SimOptions::default(),
        ),
        (
            "faults",
            Launch::Faults {
                faults: &faults,
                voltage: 0.8,
                die,
                capture_ps,
            },
            tight,
        ),
    ];
    for (name, request, base) in rows {
        let reference = engine
            .launch(
                &patterns,
                request,
                &SimOptions {
                    threads: 1,
                    ..base.clone()
                },
            )
            .unwrap();
        if base.arena_capacity == 1 {
            assert!(reference.diagnostics.slot_retries > 0, "{name} retries");
        }
        for threads in [1, 4] {
            let mut session = crate::session::Session::new(Arc::clone(&engine), threads);
            let runner = crate::batch::BatchRunner::new(threads, 1);
            for lanes in [1, 8] {
                let opts = SimOptions {
                    threads,
                    lanes,
                    ..base.clone()
                };
                let runs = [
                    ("launch", engine.launch(&patterns, request, &opts)),
                    ("session", session.run(&patterns, request, &opts)),
                    ("runner", runner.run(&engine, &patterns, request, &opts)),
                ];
                for (door, run) in runs {
                    let run = run.unwrap();
                    let case = format!("{name} via {door}, threads={threads}, lanes={lanes}");
                    assert_eq!(run.slots, reference.slots, "{case}");
                    assert_eq!(run.diagnostics, reference.diagnostics, "{case}");
                    assert_eq!(run.node_evaluations, reference.node_evaluations, "{case}");
                    assert_eq!(run.scenario, reference.scenario, "{case}");
                    if let Launch::Faults { faults, .. } = request {
                        let graded = FaultVerdict::grade(&run, faults, capture_ps);
                        assert_eq!(bits(&graded), bits(&verdicts), "{case}");
                    }
                }
            }
        }
    }
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
/// deadline between the two arrival times separates the curve.
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
    let run = engine
        .launch(
            &one_pattern(),
            scheduled(&scenarios, None, Some(deadline)),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .unwrap();
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

/// Resident ≡ fresh: the arena a `Session` / `BatchRunner` keeps across
/// launches must be unobservable. Every launch of a sequence that
/// changes shape, capacity, artifact and fault mode between launches
/// equals the bare [`CompiledNetlist::launch`] of the same inputs — which
/// allocates its arena for itself — in slots and diagnostics, the
/// occupancy watermark included (a loud launch is followed by quieter
/// ones, so a watermark that leaked across launches would show).
#[test]
fn resident_arena_is_indistinguishable_from_a_fresh_one() {
    use crate::batch::BatchRunner;
    use crate::session::Session;
    use avfs_atpg::pattern::{Pattern, PatternPair};

    // Artifact 0 overflows a capacity-1 arena (the glitch pulse) and
    // panics at 1.1 V; artifact 1 is wide enough for pooled epochs.
    let glitch = glitch_netlist();
    let glitchy = Arc::new(
        CompiledNetlist::compile(
            Arc::clone(&glitch),
            Arc::new(
                static_engine(&glitch, 10.0, 10.0)
                    .annotation()
                    .as_ref()
                    .clone(),
            ),
            Arc::new(PanickyModel {
                inner: StaticModel::new(ParameterSpace::paper()),
            }),
        )
        .unwrap(),
    );
    let lib = CellLibrary::nangate15_like();
    let adder = Arc::new(avfs_circuits::ripple_carry_adder(64, &lib).unwrap());
    let wide = Arc::new(static_engine(&adder, 8.0, 9.5));
    let artifacts = [glitchy, wide];
    // Pattern 0 toggles the glitch input, pattern 1 holds it.
    let bit = |b: bool| Pattern::from_bits([b]);
    let toggle_and_hold: PatternSet = [(false, true), (true, true)]
        .into_iter()
        .map(|(l, c)| PatternPair::new(bit(l), bit(c)).unwrap())
        .collect();
    let wide_patterns = PatternSet::random(adder.inputs().len(), 8, 0xA7E4A);
    let toggling = |voltages: &[f64]| cross(1, voltages);
    let eight = || toggling(&[0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]);
    let holding = |n: usize| {
        vec![
            SlotSpec {
                pattern: 1,
                voltage: 0.8
            };
            n
        ]
    };
    let overflowing = || {
        Some(Arc::new(
            FaultPlan::empty(0x5EED).with_rate(InjectionSite::ArenaOverflow, 0.5),
        ))
    };
    type Step<'a> = (
        &'a str,
        usize,
        &'a PatternSet,
        Vec<SlotSpec>,
        SimOptions,
        Option<u64>,
    );
    let default = SimOptions::default;
    let steps: Vec<Step<'_>> = vec![
        (
            "base",
            0,
            &toggle_and_hold,
            toggling(&[0.6, 0.7, 0.8, 0.9]),
            default(),
            Some(1),
        ),
        (
            "same shape",
            0,
            &toggle_and_hold,
            toggling(&[0.6, 0.7, 0.8, 0.9]),
            default(),
            Some(1),
        ),
        (
            "fewer slots, quiet",
            0,
            &toggle_and_hold,
            holding(3),
            default(),
            Some(1),
        ),
        (
            "more slots",
            0,
            &toggle_and_hold,
            holding(16),
            default(),
            Some(2),
        ),
        (
            "smaller cells",
            0,
            &toggle_and_hold,
            eight(),
            SimOptions {
                arena_capacity: 16,
                ..default()
            },
            Some(2),
        ),
        (
            "overflow and retry",
            0,
            &toggle_and_hold,
            toggling(&[0.7, 0.8, 0.9]),
            SimOptions {
                arena_capacity: 1,
                ..default()
            },
            Some(2),
        ),
        (
            "contained panic",
            0,
            &toggle_and_hold,
            toggling(&[0.8, 1.1, 0.9]),
            default(),
            Some(2),
        ),
        (
            "another artifact",
            1,
            &wide_patterns,
            cross(8, &[0.7, 0.8, 0.9, 1.0]),
            default(),
            None,
        ),
        (
            "armed plan",
            0,
            &toggle_and_hold,
            eight(),
            SimOptions {
                fault_plan: overflowing(),
                ..default()
            },
            None,
        ),
        (
            "clean after armed",
            0,
            &toggle_and_hold,
            eight(),
            default(),
            None,
        ),
    ];
    let outcome = |run: Result<SimRun, SimError>| run.map(|r| (r.slots, r.diagnostics));
    for threads in [1usize, 2] {
        for lanes in [1usize, 8] {
            let mut session = Session::new(Arc::clone(&artifacts[0]), threads);
            let runner = BatchRunner::new(threads, 4);
            for (name, artifact, patterns, slots, base, allocations) in &steps {
                let case = format!("{name}, threads={threads}, lanes={lanes}");
                // A fresh plan per launch, so each records only its own
                // firings.
                let opts = || SimOptions {
                    lanes,
                    fault_plan: base.fault_plan.as_ref().and_then(|_| overflowing()),
                    ..base.clone()
                };
                let compiled = &artifacts[*artifact];
                let fresh =
                    outcome(compiled.launch(patterns, slots, &SimOptions { threads, ..opts() }));
                let (_, diag) = fresh.as_ref().expect("every step keeps a slot alive");
                match *name {
                    "overflow and retry" => assert!(diag.slot_retries > 0, "{case}"),
                    "contained panic" => assert_eq!(diag.panicked_slots, vec![1], "{case}"),
                    "armed plan" => assert!(diag.faults_injected > 0, "{case}"),
                    _ => {}
                }
                let batched = outcome(runner.run(compiled, patterns, slots, &opts()));
                assert_eq!(batched, fresh, "BatchRunner: {case}");
                if *artifact == 0 {
                    let resident = outcome(session.run(patterns, slots, &opts()));
                    assert_eq!(resident, fresh, "Session: {case}");
                }
                if let Some(expected) = allocations {
                    assert_eq!(session.arena_allocations(), *expected, "Session: {case}");
                    assert_eq!(runner.arena_allocations(), *expected, "BatchRunner: {case}");
                }
            }
        }
    }
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
