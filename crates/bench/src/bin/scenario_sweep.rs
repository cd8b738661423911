//! scenario_sweep — failure probability vs supply voltage under droop
//! schedules with Monte Carlo process variation (DESIGN.md §15).
//!
//! One launch per invocation: every pattern pair is replayed under a
//! three-segment voltage-droop [`Schedule`] per nominal supply, expanded
//! into `--samples` Monte Carlo dice, and reduced into the
//! failure-probability-vs-voltage curve against a capture deadline
//! derived from the nominal-supply static run (latest arrival × 1.05 —
//! the margin a capture flop would give the paper's Table II arrivals).
//! In full mode the resulting `scenario_sweep` section is merged into an
//! existing `BENCH_core.json` (validated before and after), so the
//! committed report grows the curve without re-measuring the other
//! sections.
//!
//! `--smoke` is the CI gate, asserting the scenario engine's two hard
//! invariants on a small adder:
//!   1. a constant (single-segment) schedule is **bit-identical** to the
//!      static run at 1 and at auto threads, and
//!   2. Monte Carlo runs **replay exactly** from their seed (and a
//!      different seed draws different dice), with multi-segment droop
//!      runs bit-identical across thread counts.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin scenario_sweep [-- --scale 0.01 --samples 16]
//! cargo run -p avfs-bench --bin scenario_sweep -- --smoke
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::perf::{PerfReport, ScenarioPoint, ScenarioSweep};
use avfs_bench::{characterize_used, Args};
use avfs_circuits::{ripple_carry_adder, PAPER_PROFILES};
use avfs_core::scenario::{cross_schedules, MonteCarlo, Schedule};
use avfs_core::{cross, CompiledNetlist, SimOptions, VariationConfig};
use avfs_netlist::CellLibrary;
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("scenario_sweep: droop-schedule Monte Carlo failure-probability curve");
        println!("  --scale <f>    circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>    pattern pairs per voltage point (default 8)");
        println!("  --samples <n>  Monte Carlo dice per scenario (default 16)");
        println!("  --sigma <f>    relative sigma of the delay derate (default 0.05)");
        println!("  --seed <n>     variation seed (default 3901)");
        println!("  --threads <n>  worker threads (0 = auto, the default)");
        println!("  --out <path>   report to merge into (default BENCH_core.json)");
        println!("  --smoke        CI mode: identity + seed-replay gates, no file");
        return;
    }
    let library = CellLibrary::nangate15_like();
    let threads = SimOptions {
        threads: args.value("--threads").unwrap_or(0),
        ..SimOptions::default()
    }
    .resolved_threads();

    if args.flag("--smoke") {
        let netlist = Arc::new(ripple_carry_adder(16, &library).expect("adder builds"));
        let chars = characterize_used(&[netlist.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&netlist).expect("annotates"));
        let model = Arc::new(chars.model().clone());
        let engine = CompiledNetlist::compile(Arc::clone(&netlist), annotation, model)
            .expect("engine builds");
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
        let voltages = [0.7, 0.9];

        // Gate 1: constant-schedule ≡ static identity, scalar and pooled.
        let constants: Vec<Schedule> = voltages.iter().map(|&v| Schedule::constant(v)).collect();
        let scenarios = cross_schedules(patterns.len(), &constants);
        for threads in [1, threads] {
            let opts = SimOptions {
                threads,
                ..SimOptions::default()
            };
            let fixed = engine
                .launch(&patterns, &cross(patterns.len(), &voltages), &opts)
                .expect("static run");
            let scheduled = engine
                .launch_scenarios(&patterns, &scenarios, None, None, &opts)
                .expect("scheduled run");
            assert_eq!(
                scheduled.slots, fixed.slots,
                "constant-schedule run must be bit-identical to the static run (threads={threads})"
            );
        }

        // Gate 2: droop schedules are thread-invariant, and Monte Carlo
        // replays exactly from the seed.
        let droops: Vec<Schedule> = voltages
            .iter()
            .map(|&v| Schedule::droop(v, 0.08, 30.0, 110.0))
            .collect();
        let droop_scenarios = cross_schedules(patterns.len(), &droops);
        let mc = |seed: u64| MonteCarlo {
            samples: 3,
            variation: VariationConfig {
                sigma: 0.05,
                max_deviation: 0.2,
                seed,
            },
        };
        let run_mc = |threads: usize, seed: u64| {
            engine
                .launch_scenarios(
                    &patterns,
                    &droop_scenarios,
                    Some(&mc(seed)),
                    Some(400.0),
                    &SimOptions {
                        threads,
                        ..SimOptions::default()
                    },
                )
                .expect("mc run")
        };
        let reference = run_mc(1, 11);
        let pooled = run_mc(threads, 11);
        assert_eq!(
            pooled.slots, reference.slots,
            "droop + MC runs must be bit-identical across thread counts"
        );
        assert_eq!(pooled.scenario, reference.scenario);
        let replay = run_mc(1, 11);
        assert_eq!(
            replay.slots, reference.slots,
            "same seed must replay exactly"
        );
        let other = run_mc(1, 12);
        assert_ne!(
            other
                .slots
                .iter()
                .map(|s| s.latest_output_transition_ps)
                .collect::<Vec<_>>(),
            reference
                .slots
                .iter()
                .map(|s| s.latest_output_transition_ps)
                .collect::<Vec<_>>(),
            "a different seed must draw different dice"
        );
        println!(
            "scenario_sweep --smoke: constant-schedule == static (threads 1 and {threads}), \
             droop+MC thread-invariant, seed replay exact, OK"
        );
        return;
    }

    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs: usize = args.value("--pairs").unwrap_or(8);
    let samples: usize = args.value("--samples").unwrap_or(16);
    let sigma: f64 = args.value("--sigma").unwrap_or(0.05);
    let seed: u64 = args.value("--seed").unwrap_or(3901);
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_core.json".into());
    let profile = PAPER_PROFILES
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("paper profiles exist");
    eprintln!(
        "scenario_sweep: synthesizing {} at scale {scale} ...",
        profile.name
    );
    let netlist = Arc::new(
        profile
            .synthesize(scale, &library)
            .expect("synthesis succeeds"),
    );
    let chars = characterize_used(&[netlist.as_ref()], &library, 3);
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotates"));
    let model = Arc::new(chars.model().clone());
    let engine =
        CompiledNetlist::compile(Arc::clone(&netlist), annotation, model).expect("engine builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), pairs, 0x5CE0 ^ profile.nodes as u64);
    let opts = SimOptions {
        threads,
        ..SimOptions::default()
    };

    // The capture deadline: 5% margin over the nominal-supply static run.
    let nominal_v = 0.8;
    let nominal = engine
        .launch(&patterns, &cross(patterns.len(), &[nominal_v]), &opts)
        .expect("nominal run");
    let deadline = nominal
        .latest_arrival_at(nominal_v)
        .expect("outputs toggle at nominal")
        * 1.05;

    // One droop schedule per nominal supply: a 50 mV dip across the
    // window where the nominal run's critical transitions land.
    let voltages = [0.6, 0.65, 0.7, 0.75, 0.8, 0.9];
    let schedules: Vec<Schedule> = voltages
        .iter()
        .map(|&v| Schedule::droop(v, 0.05, deadline * 0.25, deadline * 0.6))
        .collect();
    let scenarios = cross_schedules(patterns.len(), &schedules);
    let mc = MonteCarlo {
        samples,
        variation: VariationConfig {
            sigma,
            max_deviation: 4.0 * sigma,
            seed,
        },
    };
    eprintln!(
        "scenario_sweep: {} scenarios x {} dice = {} slots ...",
        scenarios.len(),
        samples,
        scenarios.len() * samples
    );
    let run = engine
        .launch_scenarios(&patterns, &scenarios, Some(&mc), Some(deadline), &opts)
        .expect("sweep run");
    let summary = run.scenario.as_ref().expect("scenario summary");

    let sweep = ScenarioSweep {
        circuit: profile.name.to_owned(),
        nodes: netlist.num_nodes() as u64,
        pairs: patterns.len() as u64,
        samples: samples as u64,
        seed,
        sigma,
        capture_deadline_ps: deadline,
        elapsed_ms: run.elapsed.as_secs_f64() * 1e3,
        points: summary
            .points
            .iter()
            .map(|p| ScenarioPoint {
                voltage: p.voltage,
                samples: p.samples as u64,
                failures: p.failures as u64,
                p_fail: p.p_fail,
            })
            .collect(),
    };

    println!(
        "scenario_sweep: {} ({} nodes, {} pairs, {} dice/scenario, sigma {}, deadline {:.1} ps)",
        sweep.circuit, sweep.nodes, sweep.pairs, sweep.samples, sweep.sigma, deadline
    );
    println!("  V_nominal   samples   failures   p_fail");
    for p in &sweep.points {
        println!(
            "  {:>7.2} V  {:>8}  {:>9}   {:.3}",
            p.voltage, p.samples, p.failures, p.p_fail
        );
    }

    // Merge into the committed report: validate, graft, re-validate.
    let text = std::fs::read_to_string(&out).unwrap_or_else(|e| {
        panic!("cannot read {out} ({e}); run perf_report first to create the base report")
    });
    let mut report = PerfReport::validate(&text).expect("existing report validates");
    report.scenario_sweep = Some(sweep);
    let merged = report.to_json().to_string_pretty();
    PerfReport::validate(&merged).expect("merged report validates");
    std::fs::write(&out, &merged).expect("report written");
    println!("  merged scenario_sweep section into {out}");
}
