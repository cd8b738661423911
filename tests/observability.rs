//! Observability invariants: profiling must change *nothing* about the
//! simulation — results are bit-for-bit identical with it on or off — and
//! must report every documented phase of a real run.

use avfs::atpg::PatternSet;
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library_metered, CharacterizationConfig};
use avfs::delay::CharacterizedLibrary;
use avfs::netlist::{CellLibrary, Netlist, NodeKind};
use avfs::obs::Metrics;
use avfs::sim::{phases, slots, CompiledNetlist, EventDrivenSimulator, SimOptions, SimRun};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::sync::Arc;

fn characterize_for(netlist: &Netlist, library: &Arc<CellLibrary>) -> CharacterizedLibrary {
    characterize_metered_for(netlist, library, None)
}

fn characterize_metered_for(
    netlist: &Netlist,
    library: &Arc<CellLibrary>,
    metrics: Option<&Metrics>,
) -> CharacterizedLibrary {
    let used: Vec<_> = {
        let mut set = BTreeSet::new();
        for (_, node) in netlist.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                set.insert(cell);
            }
        }
        set.into_iter().collect()
    };
    characterize_library_metered(
        library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&used),
        metrics,
    )
    .expect("characterization succeeds")
}

/// A run that exercises every engine phase on a two-worker pool:
/// several patterns at two voltages over a 64-bit adder — four lane
/// groups in one batch, walked level by level by their owners — with
/// waveforms retained.
fn run_adder(profiling: bool) -> SimRun {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(64, &library).expect("adder builds"));
    let chars = characterize_for(&netlist, &library);
    let engine = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
        .expect("engine builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 7);
    let mut slot_list = slots::at_voltage(patterns.len(), 0.8);
    slot_list.extend(slots::at_voltage(patterns.len(), 0.6));
    let options = SimOptions {
        threads: 2,
        keep_waveforms: true,
        profiling,
        ..SimOptions::default()
    };
    engine
        .launch(&patterns, &slot_list, &options)
        .expect("engine runs")
}

#[test]
fn characterization_counts_grid_points_and_integrations() {
    let library = CellLibrary::nangate15_like();
    let netlist = ripple_carry_adder(64, &library).expect("adder builds");
    let metrics = Metrics::new("characterize");
    let metered = characterize_metered_for(&netlist, &library, Some(&metrics));
    let profile = metrics.snapshot();
    // AND2, OR2, XOR2: 3 cells × 2 pins × 2 polarities × the 5 × 5 grid.
    let points = profile
        .counter("spice.transient_points")
        .expect("grid points counted");
    assert_eq!(points, 3 * 2 * 2 * 25);
    // All three are two-stage cells, so a point-by-point sweep would run
    // two integrations per point; the characterization's one planned
    // sweep integrates the load-independent first stages and the
    // symmetric pins once — as many as the per-call memo it replaced ran.
    let runs = profile
        .counter("spice.stage_runs")
        .expect("integrations counted");
    assert_eq!(runs, 300, "{points} points");
    assert_eq!(profile.phase("spice/sweep").map(|p| p.calls), Some(1));
    assert_eq!(
        profile.phase("delay/characterize").map(|p| p.calls),
        Some(1)
    );
    // Metering observes only.
    assert_eq!(
        metered.content_hash(),
        characterize_for(&netlist, &library).content_hash()
    );
}

#[test]
fn profiling_is_observation_only() {
    let plain = run_adder(false);
    let profiled = run_adder(true);
    assert!(plain.profile.is_none());
    assert!(profiled.profile.is_some());
    // Bit-for-bit identical simulation: every slot (responses, arrival
    // times, activity, full waveforms), the evaluation count and the
    // diagnostics. Only `elapsed` and `profile` may differ.
    assert_eq!(plain.slots, profiled.slots);
    assert_eq!(plain.node_evaluations, profiled.node_evaluations);
    assert_eq!(plain.diagnostics, profiled.diagnostics);
}

#[test]
fn profile_reports_every_documented_phase() {
    let run = run_adder(true);
    let profile = run.profile.as_ref().expect("profiling was on");
    assert_eq!(profile.name, "engine");
    for phase in phases::ENGINE_PHASES {
        let stats = profile
            .phase(phase)
            .unwrap_or_else(|| panic!("phase `{phase}` missing from profile"));
        assert!(stats.calls > 0, "phase `{phase}` never called");
        assert!(stats.total_ns > 0, "phase `{phase}` has zero total time");
        assert!(stats.min_ns <= stats.max_ns, "phase `{phase}` min > max");
    }
    // The run phase dominates any sub-phase by construction.
    let total = profile.phase(phases::ENGINE_RUN).unwrap().total_ns;
    for phase in phases::ENGINE_PHASES {
        assert!(profile.phase(phase).unwrap().total_ns <= total);
    }
    // The quiet scan runs inside the workers' share of each release, so
    // the merge phase has no serial child span to report.
    let merge = profile.phase(phases::ENGINE_WAVEFORM_MERGE).unwrap();
    assert!(
        !profile
            .phases
            .iter()
            .any(|p| p.path.starts_with("engine/waveform_merge/")),
        "no coordinator-side span inside the merge phase"
    );
    // Counters and histograms of the same run.
    assert!(profile.counter(phases::ENGINE_KERNEL_EVALS).unwrap() > 0);
    assert!(profile.counter(phases::ENGINE_LEVELS).unwrap() > 0);
    assert!(profile.counter(phases::ENGINE_BATCHES).unwrap() > 0);
    assert_eq!(
        profile.counter(phases::ENGINE_RETRY_ROUNDS),
        None,
        "no retries expected"
    );
    let occupancy = profile
        .histogram(phases::ENGINE_ARENA_OCCUPANCY)
        .expect("arena occupancy recorded");
    assert!(occupancy.count > 0);
    assert_eq!(
        occupancy.max as usize, run.diagnostics.peak_arena_occupancy,
        "histogram max agrees with diagnostics"
    );
    // Worker-pool instrumentation (the run used threads = 2): one pool
    // release per batch, the workers' idle time inside each, the
    // work-stealing counter, and one per-worker task-count sample each.
    let batches = profile.counter(phases::ENGINE_BATCHES).unwrap();
    assert_eq!(merge.calls, batches, "one release per batch");
    let idle = profile
        .phase(phases::ENGINE_POOL_IDLE)
        .expect("pool idle recorded for a threads=2 run");
    assert_eq!(idle.calls, batches, "one idle sample per release");
    assert!(
        profile.counter(phases::ENGINE_POOL_STEALS).is_some(),
        "steal counter present (possibly zero)"
    );
    let worker_tasks = profile
        .histogram(phases::ENGINE_POOL_WORKER_TASKS)
        .expect("per-worker task histogram recorded");
    assert_eq!(worker_tasks.count, 2, "one sample per pool worker");
    // Activity-gating instruments: the skip counter exists even when
    // busy stimuli leave nothing to skip, the quiet-cell tally exists
    // even when every net toggled, and every batch level with a gate
    // samples its activity share as a 0–100 percentage.
    assert!(
        profile
            .counter(phases::ENGINE_GATES_SKIPPED_QUIET)
            .is_some(),
        "quiet-skip counter present"
    );
    assert!(
        profile.counter(phases::ENGINE_QUIET_CELLS).is_some(),
        "quiet-cell tally present"
    );
    let level_activity = profile
        .histogram(phases::ENGINE_LEVEL_ACTIVITY)
        .expect("per-level activity histogram recorded");
    let levels = profile.counter(phases::ENGINE_LEVELS).unwrap();
    assert!(
        level_activity.count > 0 && level_activity.count <= levels,
        "at most one sample per simulated level"
    );
    assert!(
        level_activity.max <= 100,
        "activity is a percentage of the level's tasks"
    );
    // The run's diagnostics say it was fault-free.
    assert_eq!(
        run.diagnostics.faults_injected, 0,
        "a clean run injects no fault"
    );
    // The profile survives its JSON round-trip unchanged.
    let json = profile.to_json().to_string_pretty();
    let parsed = avfs::obs::Json::parse(&json).expect("valid JSON");
    let back = avfs::obs::Profile::from_json(&parsed).expect("valid profile");
    assert_eq!(&back, profile);
}

#[test]
fn event_driven_profile_and_identity() {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(6, &library).expect("adder builds"));
    let chars = characterize_for(&netlist, &library);
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
    let ed = EventDrivenSimulator::new(Arc::clone(&netlist), annotation).expect("positive delays");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 3);
    let slot_list = slots::at_voltage(patterns.len(), 0.8);

    let plain = ed.run(&patterns, &slot_list, true).expect("baseline runs");
    let profiled = ed
        .run_profiled(&patterns, &slot_list, true, true)
        .expect("profiled baseline runs");
    assert!(plain.profile.is_none());
    assert_eq!(plain.slots, profiled.slots);
    assert_eq!(plain.node_evaluations, profiled.node_evaluations);

    let profile = profiled.profile.as_ref().expect("profiling was on");
    assert_eq!(profile.name, "event_driven");
    assert!(profile.phase(phases::ED_SIMULATE).unwrap().total_ns > 0);
    assert!(profile.counter(phases::ED_EVENTS).unwrap() > 0);
    let depth = profile
        .histogram(phases::ED_QUEUE_DEPTH)
        .expect("queue depth sampled");
    assert!(depth.count > 0);
    assert!(depth.max >= 1, "the queue held at least one event");
}
