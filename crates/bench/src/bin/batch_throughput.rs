//! batch_throughput — compile-once / simulate-many amortization check.
//!
//! Runs the same short workload N times two ways on identical inputs:
//! once the one-shot way (a fresh [`avfs_core::CompiledNetlist::compile`]
//! — and with it a fresh worker pool — per run) and once through a
//! [`avfs_core::BatchRunner`] that compiles a single shared
//! [`avfs_core::CompiledNetlist`] and keeps the pool parked between
//! launches. Results are asserted bit-for-bit identical run-for-run and
//! arm-for-arm; the printed table is the setup-amortization payoff.
//!
//! `--smoke` is the CI gate: a small adder, a handful of runs, identity
//! plus the cache contract (`compile_misses == 1`,
//! `compile_hits == runs - 1`, and — asserted by the shared helper —
//! `arena_allocations == 1`) enforced, fast enough for every commit. The
//! speedup itself is *reported* but not gated in smoke mode — on a
//! loaded 1-CPU CI container wall-clock ratios are too noisy to assert.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin batch_throughput [-- --scale 0.01 --runs 64]
//! cargo run -p avfs-bench --bin batch_throughput -- --smoke
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{activity_patterns, characterize_used, measure_batch_throughput, Args};
use avfs_circuits::{ripple_carry_adder, PAPER_PROFILES};
use avfs_core::SimOptions;
use avfs_netlist::CellLibrary;
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("batch_throughput: compile-once vs compile-per-run A/B");
        println!("  --scale <f>    circuit scale factor (default 0.01 of paper node counts)");
        println!("  --runs <n>     repeated runs per arm (default 64)");
        println!(
            "  --pairs <n>    pattern pairs per run (default 2; short runs expose setup cost)"
        );
        println!("  --activity <f> stimuli activity factor (default 0.1: the incremental");
        println!("                 re-simulation workload batching is for; 1.0 = dense random)");
        println!("  --arena <n>    transitions/net arena capacity (0 = engine default)");
        println!("  --threads <n>  worker threads (0 = auto, the default)");
        println!("  --smoke        CI mode: small adder, identity + cache contract, no table");
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
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
        let runs = 6;
        let bt = measure_batch_throughput(
            "rca16",
            &netlist,
            &chars,
            &patterns,
            runs,
            &SimOptions {
                threads,
                ..SimOptions::default()
            },
        );
        // The helper already asserted run-for-run identity and that the
        // launches shared one resident arena; the smoke gate additionally
        // pins the cache contract.
        assert_eq!(bt.compile_misses, 1, "one compile for the whole batch");
        assert_eq!(
            bt.compile_hits,
            runs as u64 - 1,
            "every launch after the first reuses the artifact"
        );
        println!(
            "batch_throughput --smoke: {} runs identical across arms ({:.2}x amortized), \
             compile_misses=1, OK",
            bt.runs, bt.speedup
        );
        return;
    }

    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let runs: usize = args.value("--runs").unwrap_or(64);
    let pairs: usize = args.value("--pairs").unwrap_or(2);
    let profile = PAPER_PROFILES
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("paper profiles exist");
    eprintln!(
        "batch_throughput: synthesizing {} at scale {scale} ...",
        profile.name
    );
    let netlist = Arc::new(
        profile
            .synthesize(scale, &library)
            .expect("synthesis succeeds"),
    );
    let chars = characterize_used(&[netlist.as_ref()], &library, 3);
    // Default to low-activity stimuli: the batch-amortization customer is
    // the AVFS monitoring loop that re-simulates small input deltas over
    // and over, not one dense full-toggle run. `--activity 1.0` recovers
    // dense random pairs.
    let activity: f64 = args.value("--activity").unwrap_or(0.1);
    let seed = 0xBA7C_0000 ^ profile.nodes as u64;
    let patterns = activity_patterns(netlist.inputs().len(), pairs, activity, seed);
    let base = SimOptions {
        threads,
        arena_capacity: args.value("--arena").unwrap_or(0),
        ..SimOptions::default()
    };
    let bt = measure_batch_throughput(profile.name, &netlist, &chars, &patterns, runs, &base);
    println!(
        "batch_throughput: {} ({} nodes, {} pairs, {} runs, {} threads)",
        bt.circuit, bt.nodes, bt.pairs, bt.runs, threads
    );
    println!(
        "  per-run compile      {:>9.1} ms  ({:.3} ms/run)",
        bt.per_run_ms,
        bt.per_run_ms / bt.runs as f64
    );
    println!(
        "  BatchRunner          {:>9.1} ms  ({:.3} ms/run)  {:.2}x",
        bt.batched_ms,
        bt.batched_ms / bt.runs as f64,
        bt.speedup
    );
    println!(
        "  compile cache        {} miss, {} hits",
        bt.compile_misses, bt.compile_hits
    );
}
