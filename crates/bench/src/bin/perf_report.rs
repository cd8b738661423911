//! perf_report — schema-versioned, machine-readable performance report.
//!
//! Where `table1` renders the paper's Table I for humans, this binary
//! captures the same comparison — serial event-driven baseline versus the
//! parallel polynomial engine on identical inputs — as a JSON document
//! (`avfs-perf-report/1`, default `BENCH_core.json`) with the phase-level
//! profiles ([`avfs_core::Profile`]) of both simulators embedded, so
//! regressions in any single phase (delay kernel, waveform merge, barrier)
//! are visible across commits, not just end-to-end runtimes.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin perf_report [-- --scale 0.01 --pairs 24]
//! cargo run -p avfs-bench --bin perf_report -- --smoke   # CI: c17 only, validate, no file
//! ```

use avfs_atpg::timing_aware::{collect_pairs, generate_timing_aware};
use avfs_atpg::{k_longest_paths, PatternSet};
use avfs_bench::perf::{
    ActivitySweep, CircuitPerf, LanePoint, LaneScaling, PerfReport, ScalingPoint, ThreadScaling,
};
use avfs_bench::{
    activity_patterns, characterize_used, measure_activity_point, measure_batch_throughput, Args,
};
use avfs_circuits::{CircuitProfile, PAPER_PROFILES};
use avfs_core::{slots, CompiledNetlist, EventDrivenSimulator, SimOptions, SimRun};
use avfs_delay::{CharacterizedLibrary, TimingAnnotation};
use avfs_netlist::{CellLibrary, Netlist, NetlistStats};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("perf_report: machine-readable phase-level performance report");
        println!("  --scale <f>       circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>       cap on pattern pairs per design (default 24)");
        println!("  --order <N>       polynomial order (default 3)");
        println!("  --threads <n>     engine worker threads (0 = auto, the default)");
        println!("  --circuit <name>  limit to specific designs (repeatable)");
        println!("  --out <path>      output path (default BENCH_core.json)");
        println!("  --smoke           c17 only, validate the schema, write nothing");
        return;
    }
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
    let order: usize = args.value("--order").unwrap_or(3);
    let threads = SimOptions {
        threads: args.value("--threads").unwrap_or(0),
        ..SimOptions::default()
    }
    .resolved_threads();
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_core.json".into());
    let library = CellLibrary::nangate15_like();

    let mut report = PerfReport {
        scale,
        pairs_cap: pairs_cap as u64,
        threads: threads as u64,
        arch: std::env::consts::ARCH.to_owned(),
        os: std::env::consts::OS.to_owned(),
        circuits: Vec::new(),
        thread_scaling: None,
        activity_sweep: None,
        lane_scaling: None,
        batch_throughput: None,
        scenario_sweep: None,
    };

    if args.flag("--smoke") {
        // CI gate: tiny circuit, full pipeline, schema validation, no file.
        let c17 = Arc::new(avfs_circuits::c17(&library).expect("c17 builds"));
        let chars = characterize_used(&[c17.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&c17).expect("annotation"));
        let patterns = PatternSet::random(c17.inputs().len(), 4, 0xC17);
        report.circuits.push(measure(
            "c17",
            &c17,
            &annotation,
            &chars,
            &patterns,
            threads,
        ));
        report.thread_scaling = Some(scaling_sweep(
            "c17",
            &c17,
            &annotation,
            &chars,
            &patterns,
            &[1, 2],
            None,
        ));
        report.activity_sweep = Some(activity_sweep(
            "c17",
            &c17,
            &annotation,
            &chars,
            4,
            &[0.0, 1.0],
            threads,
        ));
        report.lane_scaling = Some(lane_sweep(
            "c17",
            &c17,
            &annotation,
            &chars,
            &patterns,
            &[1, 4],
            threads,
        ));
        report.batch_throughput = Some(measure_batch_throughput(
            "c17",
            &c17,
            &chars,
            &patterns,
            6,
            &SimOptions {
                threads,
                ..SimOptions::default()
            },
        ));
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("schema validates");
        assert_eq!(back, report, "round trip is identity");
        println!(
            "perf_report --smoke: schema avfs-perf-report/1 OK ({} bytes)",
            text.len()
        );
        return;
    }

    let wanted = args.values("--circuit");
    let profiles: Vec<&CircuitProfile> = PAPER_PROFILES
        .iter()
        .filter(|p| wanted.is_empty() || wanted.iter().any(|w| w == p.name))
        .collect();
    eprintln!(
        "perf_report: synthesizing {} designs at scale {scale} ...",
        profiles.len()
    );
    let netlists: Vec<Arc<Netlist>> = profiles
        .iter()
        .map(|p| Arc::new(p.synthesize(scale, &library).expect("synthesis succeeds")))
        .collect();
    eprintln!("perf_report: characterizing used cells (order N={order}) ...");
    let refs: Vec<&Netlist> = netlists.iter().map(Arc::as_ref).collect();
    let chars = characterize_used(&refs, &library, order);

    for (profile, netlist) in profiles.iter().zip(&netlists) {
        let annotation = Arc::new(chars.annotate(netlist).expect("all cells characterized"));
        let patterns = build_patterns(netlist, &annotation, profile, pairs_cap);
        let entry = measure(
            profile.name,
            netlist,
            &annotation,
            &chars,
            &patterns,
            threads,
        );
        eprintln!(
            "perf_report: {:<10} engine {:>8.1} MEPS, {:>6.1}x vs event-driven",
            entry.name, entry.engine_meps, entry.speedup_vs_event_driven
        );
        report.circuits.push(entry);
    }

    // Worker-pool scaling sweep on the largest measured design, compared
    // (when possible) against the previously committed report at `out`.
    if let Some((profile, netlist)) = profiles
        .iter()
        .zip(&netlists)
        .max_by_key(|(_, n)| n.num_nodes())
    {
        let prior = std::fs::read_to_string(&out)
            .ok()
            .and_then(|t| PerfReport::validate(&t).ok())
            .and_then(|r| {
                r.circuits
                    .iter()
                    .find(|c| c.name == profile.name)
                    .map(|c| c.engine_elapsed_ms)
            });
        let annotation = Arc::new(chars.annotate(netlist).expect("all cells characterized"));
        let patterns = build_patterns(netlist, &annotation, profile, pairs_cap);
        eprintln!("perf_report: thread-scaling sweep on {} ...", profile.name);
        let sweep = scaling_sweep(
            profile.name,
            netlist,
            &annotation,
            &chars,
            &patterns,
            &[1, 2, 4, 8],
            prior,
        );
        for p in &sweep.points {
            eprintln!(
                "perf_report:   threads={:<2} {:>9.1} ms  ({:.2}x vs single)",
                p.threads, p.elapsed_ms, p.speedup_vs_single
            );
        }
        report.thread_scaling = Some(sweep);

        // Activity-gating sweep on the same design: gated vs ungated on
        // identical stimuli across activity factors, identity asserted at
        // every point.
        eprintln!("perf_report: activity sweep on {} ...", profile.name);
        let sweep = activity_sweep(
            profile.name,
            netlist,
            &annotation,
            &chars,
            pairs_cap.min(profile.test_pairs),
            &[0.01, 0.05, 0.1, 0.2, 0.5, 1.0],
            threads,
        );
        for p in &sweep.points {
            eprintln!(
                "perf_report:   a={:<5} gated {:>8.1} ms  ungated {:>8.1} ms  ({:.2}x, {}/{} skipped)",
                p.activity_factor, p.gated_ms, p.ungated_ms, p.speedup, p.gates_skipped_quiet, p.gate_tasks
            );
        }
        report.activity_sweep = Some(sweep);

        // Lane-width scaling sweep on the same design: the lane-major
        // layout at widths 1…16 on identical inputs, identity asserted
        // against the scalar point.
        eprintln!("perf_report: lane-scaling sweep on {} ...", profile.name);
        let sweep = lane_sweep(
            profile.name,
            netlist,
            &annotation,
            &chars,
            &patterns,
            &[1, 4, 8, 16],
            threads,
        );
        for p in &sweep.points {
            eprintln!(
                "perf_report:   lanes={:<3} {:>9.1} ms  ({:.2}x vs scalar)",
                p.lanes, p.elapsed_ms, p.speedup_vs_scalar
            );
        }
        report.lane_scaling = Some(sweep);

        // Compile-once / simulate-many A/B on the same design: a short
        // per-run workload repeated 64 times with a fresh compile per
        // run versus one `BatchRunner` compile and a parked pool,
        // identity asserted run-for-run.
        eprintln!("perf_report: batch-throughput A/B on {} ...", profile.name);
        // Same workload shape as the `batch_throughput` binary's default:
        // short low-activity runs with a right-sized arena — the
        // incremental re-simulation loop that batching amortizes.
        let batch_patterns = activity_patterns(
            netlist.inputs().len(),
            2,
            0.1,
            0xBA7C_0000 ^ profile.nodes as u64,
        );
        let bt = measure_batch_throughput(
            profile.name,
            netlist,
            &chars,
            &batch_patterns,
            64,
            &SimOptions {
                threads,
                ..SimOptions::default()
            },
        );
        eprintln!(
            "perf_report:   {} runs: per-run {:>8.1} ms, batched {:>8.1} ms ({:.2}x, {} compile misses)",
            bt.runs, bt.per_run_ms, bt.batched_ms, bt.speedup, bt.compile_misses
        );
        report.batch_throughput = Some(bt);
    }

    let text = report.to_json().to_string_pretty();
    PerfReport::validate(&text).expect("emitted report validates");
    std::fs::write(&out, &text).expect("report written");
    println!(
        "perf_report: wrote {out} ({} circuits)",
        report.circuits.len()
    );
}

/// Runs the event-driven baseline and the profiled polynomial engine on
/// identical inputs and folds both into one report entry.
fn measure(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    threads: usize,
) -> CircuitPerf {
    let stats = NetlistStats::of(netlist);
    let slot_list = slots::at_voltage(patterns.len(), 0.8);

    let ed = EventDrivenSimulator::new(Arc::clone(netlist), Arc::clone(annotation))
        .expect("positive delays from characterization");
    let ed_run = ed
        .run_profiled(patterns, &slot_list, false, true)
        .expect("baseline runs");

    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let opts = SimOptions {
        threads,
        profiling: true,
        ..SimOptions::default()
    };
    let run = engine
        .launch(patterns, &slot_list, &opts)
        .expect("engine runs");
    eprint!("{}", run.summary());

    let take_profile = |r: &SimRun| r.profile.clone().expect("profiling was on");
    CircuitPerf {
        name: name.to_owned(),
        nodes: stats.nodes as u64,
        levels: stats.depth as u64,
        pairs: patterns.len() as u64,
        slots: slot_list.len() as u64,
        ed_elapsed_ms: ed_run.elapsed.as_secs_f64() * 1e3,
        ed_meps: ed_run.meps(),
        engine_elapsed_ms: run.elapsed.as_secs_f64() * 1e3,
        engine_meps: run.meps(),
        speedup_vs_event_driven: ed_run.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9),
        engine_profile: take_profile(&run),
        ed_profile: take_profile(&ed_run),
    }
}

/// Re-runs the engine on identical inputs at each worker count of
/// `sweep`, asserting bit-for-bit identical results across counts (the
/// pooled engine's hard invariant) and reporting wall-clock speedups
/// against the sweep's own single-worker point.
fn scaling_sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    sweep: &[usize],
    prior_engine_elapsed_ms: Option<f64>,
) -> ThreadScaling {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let mut reference: Option<SimRun> = None;
    let mut points = Vec::new();
    let mut single_ms = 0.0;
    for &threads in sweep {
        let run = engine
            .launch(
                patterns,
                &slot_list,
                &SimOptions {
                    threads,
                    ..SimOptions::default()
                },
            )
            .expect("engine runs");
        let elapsed_ms = run.elapsed.as_secs_f64() * 1e3;
        match &reference {
            None => {
                single_ms = elapsed_ms;
                reference = Some(run);
            }
            Some(r) => {
                assert_eq!(
                    r.slots, run.slots,
                    "{name}: results diverge at threads={threads}"
                );
                assert_eq!(r.diagnostics, run.diagnostics);
            }
        }
        points.push(ScalingPoint {
            threads: threads as u64,
            elapsed_ms,
            speedup_vs_single: single_ms / elapsed_ms.max(1e-9),
        });
    }
    ThreadScaling {
        circuit: name.to_owned(),
        nodes: netlist.num_nodes() as u64,
        pairs: patterns.len() as u64,
        slots: slot_list.len() as u64,
        prior_engine_elapsed_ms,
        points,
    }
}

/// Re-runs the engine on identical inputs at each lane width of `sweep`,
/// asserting bit-for-bit identical results against the scalar (lane
/// width 1) point (the lane-major engine's hard invariant) and reporting
/// wall-clock speedups against it.
fn lane_sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    sweep: &[usize],
    threads: usize,
) -> LaneScaling {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let mut reference: Option<SimRun> = None;
    let mut points = Vec::new();
    let mut scalar_ms = 0.0;
    for &lanes in sweep {
        let run = engine
            .launch(
                patterns,
                &slot_list,
                &SimOptions {
                    threads,
                    lanes,
                    ..SimOptions::default()
                },
            )
            .expect("engine runs");
        let elapsed_ms = run.elapsed.as_secs_f64() * 1e3;
        match &reference {
            None => {
                scalar_ms = elapsed_ms;
                reference = Some(run);
            }
            Some(r) => {
                assert_eq!(
                    r.slots, run.slots,
                    "{name}: results diverge at lanes={lanes}"
                );
                assert_eq!(r.diagnostics, run.diagnostics);
            }
        }
        points.push(LanePoint {
            lanes: lanes as u64,
            elapsed_ms,
            speedup_vs_scalar: scalar_ms / elapsed_ms.max(1e-9),
        });
    }
    LaneScaling {
        circuit: name.to_owned(),
        nodes: netlist.num_nodes() as u64,
        pairs: patterns.len() as u64,
        slots: slot_list.len() as u64,
        points,
    }
}

/// Re-runs the engine gated vs ungated at each activity factor of
/// `factors` on stimuli generated with that factor, asserting bit-for-bit
/// identity at every point (via [`measure_activity_point`]).
fn activity_sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    pairs: usize,
    factors: &[f64],
    threads: usize,
) -> ActivitySweep {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let width = netlist.inputs().len();
    let seed = 0xAC71_0000 ^ netlist.num_nodes() as u64;
    let points = factors
        .iter()
        .map(|&factor| {
            let patterns = activity_patterns(width, pairs, factor, seed);
            measure_activity_point(&engine, &patterns, factor, threads)
        })
        .collect();
    ActivitySweep {
        circuit: name.to_owned(),
        nodes: netlist.num_nodes() as u64,
        pairs: pairs as u64,
        slots: pairs as u64,
        points,
    }
}

/// Same pattern recipe as `table1`: pseudo-random pairs topped off with
/// timing-aware patterns on the longest paths (unless they are all false
/// paths), so the two reports measure identical workloads.
fn build_patterns(
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    profile: &CircuitProfile,
    pairs_cap: usize,
) -> PatternSet {
    let width = netlist.inputs().len();
    let count = profile.test_pairs.min(pairs_cap);
    let seed = 0xA5F5_0000 ^ profile.nodes as u64;
    let mut patterns = PatternSet::random(width, count, seed);
    if !profile.false_paths_only {
        let levels = avfs_netlist::Levelization::of(netlist).expect("acyclic");
        let k = 200.min(count.max(8));
        let paths = k_longest_paths(netlist, &levels, Some(annotation), k);
        let outcomes = generate_timing_aware(netlist, &levels, &paths, 4, seed ^ 0xFF);
        patterns.extend(collect_pairs(&outcomes).iter().cloned());
    }
    patterns
}
