//! scenario_sweep — failure probability vs supply voltage under droop
//! schedules with Monte Carlo process variation (DESIGN.md §5).
//!
//! One launch per invocation: every pattern pair is replayed under a
//! three-segment voltage-droop [`Schedule`] per nominal supply, expanded
//! into `--samples` Monte Carlo dice, and reduced into the
//! failure-probability-vs-voltage curve against a capture deadline
//! derived from the nominal-supply static run (latest arrival × 1.05 —
//! the margin a capture flop would give the paper's Table II arrivals).
//! The curve is printed (EXPERIMENTS.md E11); the scenario engine's
//! identity and replay invariants are workspace tests and the repo
//! benchmark's `scenario_mc` oracle.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin scenario_sweep [-- --scale 0.01 --samples 16]
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{characterize_used, Args};
use avfs_circuits::PAPER_PROFILES;
use avfs_core::scenario::{cross_schedules, MonteCarlo, Schedule};
use avfs_core::{cross, CompiledNetlist, Launch, SimOptions, VariationConfig};
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
        return;
    }
    let library = CellLibrary::nangate15_like();
    let threads = SimOptions {
        threads: args.value("--threads").unwrap_or(0),
        ..SimOptions::default()
    }
    .resolved_threads();

    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs: usize = args.value("--pairs").unwrap_or(8);
    let samples: usize = args.value("--samples").unwrap_or(16);
    let sigma: f64 = args.value("--sigma").unwrap_or(0.05);
    let seed: u64 = args.value("--seed").unwrap_or(3901);
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
    let request = Launch::Scenarios {
        scenarios: &scenarios,
        mc: Some(mc),
        capture_deadline_ps: Some(deadline),
    };
    let run = engine.launch(&patterns, request, &opts).expect("sweep run");
    let summary = run.scenario.as_ref().expect("scenario summary");

    println!(
        "scenario_sweep: {} ({} nodes, {} pairs, {samples} dice/scenario, sigma {sigma}, \
         deadline {deadline:.1} ps, {:.1} ms)",
        profile.name,
        netlist.num_nodes(),
        patterns.len(),
        run.elapsed.as_secs_f64() * 1e3
    );
    println!("  V_nominal   samples   failures   p_fail");
    for p in &summary.points {
        println!(
            "  {:>7.2} V  {:>8}  {:>9}   {:.3}",
            p.voltage, p.samples, p.failures, p.p_fail
        );
    }
}
