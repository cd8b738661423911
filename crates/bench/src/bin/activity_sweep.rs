//! activity_sweep — speedup of activity-gated execution as a function of
//! the stimuli activity factor.
//!
//! Builds pattern sets whose capture flips each input with probability
//! `a` (the activity factor, see [`avfs_bench::activity_patterns`]), then
//! A/B-runs the engine with the quiet-cell fast path on and off on
//! identical inputs, asserting the gating invariant (results bit-for-bit
//! identical) at every point and printing the speedup table. `--smoke` is
//! the CI gate: a small adder, three factors spanning quiescent to fully
//! toggling, identity enforced at two worker counts, fast enough for
//! every commit.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin activity_sweep [-- --scale 0.01 --pairs 24]
//! cargo run --release -p avfs-bench --bin activity_sweep -- --smoke
//! ```

use avfs_bench::{activity_patterns, characterize_used, measure_activity_point, Args};
use avfs_circuits::{ripple_carry_adder, PAPER_PROFILES};
use avfs_core::CompiledNetlist;
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
        println!("  --smoke        CI mode: small adder, factors 0/0.5/1, no table");
        return;
    }
    let library = CellLibrary::nangate15_like();

    if args.flag("--smoke") {
        let netlist = Arc::new(ripple_carry_adder(32, &library).expect("adder builds"));
        let chars = characterize_used(&[netlist.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
        let engine = CompiledNetlist::compile(
            Arc::clone(&netlist),
            annotation,
            Arc::new(chars.model().clone()),
        )
        .expect("engine builds");
        for &factor in &[0.0, 0.5, 1.0] {
            let patterns = activity_patterns(netlist.inputs().len(), 16, factor, 0xAC71_0001);
            for threads in [1, 2] {
                let p = measure_activity_point(&engine, &patterns, factor, threads);
                if factor == 0.0 {
                    assert_eq!(
                        p.gates_skipped_quiet, p.gate_tasks,
                        "fully quiescent stimuli must skip every gate task"
                    );
                }
            }
        }
        println!("activity_sweep --smoke: gated and ungated runs identical, OK");
        return;
    }

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
        let p = measure_activity_point(&engine, &patterns, factor, threads);
        println!(
            "  a={factor:<5} gated {:>9.1} ms  ungated {:>9.1} ms  speedup {:>5.2}x  \
             skipped {}/{} tasks",
            p.gated_ms, p.ungated_ms, p.speedup, p.gates_skipped_quiet, p.gate_tasks
        );
    }
}
