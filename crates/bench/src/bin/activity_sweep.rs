//! activity_sweep — speedup of activity-gated execution as a function of
//! the stimuli activity factor.
//!
//! Builds pattern sets whose capture flips each input with probability
//! `a` (the activity factor, see [`avfs_bench::activity_patterns`]), then
//! A/B-runs the engine with the quiet-cell fast path on and off on
//! identical inputs, asserting the gating invariant (results bit-for-bit
//! identical) at every point and printing the speedup table
//! (EXPERIMENTS.md E6). This is the one instrument on the losing side of
//! default-on gating (activity 1.0) — the repo benchmark has no
//! high-activity workload yet.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin activity_sweep [-- --scale 0.01 --pairs 24]
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{activity_patterns, characterize_used, Args};
use avfs_circuits::PAPER_PROFILES;
use avfs_core::{phases, slots, CompiledNetlist, SimOptions, SimRun};
use avfs_netlist::CellLibrary;
use std::sync::Arc;

/// Default sweep: near-quiescent through fully toggling stimuli.
const FACTORS: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("activity_sweep: activity-gating speedup sweep with identity checks");
        println!("  --scale <f>    circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>    cap on pattern pairs (default 24)");
        println!("  --threads <n>  engine worker threads (0 = auto, the default)");
        return;
    }
    let library = CellLibrary::nangate15_like();
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
    let threads: usize = args.value("--threads").unwrap_or(0);
    let profile = PAPER_PROFILES
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("paper profiles exist");
    eprintln!(
        "activity_sweep: synthesizing {} at scale {scale} ...",
        profile.name
    );
    let netlist = Arc::new(
        profile
            .synthesize(scale, &library)
            .expect("synthesis succeeds"),
    );
    let chars = characterize_used(&[netlist.as_ref()], &library, 3);
    let annotation = Arc::new(chars.annotate(&netlist).expect("all cells characterized"));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        annotation,
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let pairs = profile.test_pairs.min(pairs_cap);
    println!(
        "activity_sweep: {} ({} nodes, {} pairs)",
        profile.name,
        netlist.num_nodes(),
        pairs
    );
    for factor in FACTORS {
        let patterns = activity_patterns(
            netlist.inputs().len(),
            pairs,
            factor,
            0xAC71_0000 ^ netlist.num_nodes() as u64,
        );
        // Both arms run profiled — profiling is observation-only, and the
        // gated arm's profile carries the skipped-task tally.
        let ungated = launch(&engine, &patterns, threads, false);
        let gated = launch(&engine, &patterns, threads, true);
        assert_eq!(
            gated.slots, ungated.slots,
            "activity gating changed results at factor {factor}"
        );
        assert_eq!(
            gated.diagnostics, ungated.diagnostics,
            "activity gating changed diagnostics at factor {factor}"
        );
        let skipped = gated
            .profile
            .as_ref()
            .and_then(|p| p.counter(phases::ENGINE_GATES_SKIPPED_QUIET))
            .unwrap_or(0);
        let (gated_ms, ungated_ms) = (
            gated.elapsed.as_secs_f64() * 1e3,
            ungated.elapsed.as_secs_f64() * 1e3,
        );
        println!(
            "  a={factor:<5} gated {gated_ms:>9.1} ms  ungated {ungated_ms:>9.1} ms  \
             speedup {:>5.2}x  skipped {skipped}/{} tasks",
            ungated_ms / gated_ms.max(1e-9),
            netlist.num_gates() * patterns.len()
        );
    }
}

fn launch(
    engine: &CompiledNetlist,
    patterns: &PatternSet,
    threads: usize,
    activity_gating: bool,
) -> SimRun {
    engine
        .launch(
            patterns,
            &slots::at_voltage(patterns.len(), 0.8),
            &SimOptions {
                threads,
                profiling: true,
                activity_gating,
                ..SimOptions::default()
            },
        )
        .expect("engine runs")
}
