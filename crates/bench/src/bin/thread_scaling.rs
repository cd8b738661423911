//! thread_scaling — worker-pool scaling check for the persistent-pool
//! engine.
//!
//! Re-runs one circuit at increasing worker counts on identical inputs,
//! asserts the pooled engine's hard invariant (results bit-for-bit
//! identical to the single-threaded path at every count) and prints the
//! wall-clock scaling table. `--smoke` is the CI gate: a small adder,
//! threads 1 vs 2, identity enforced, fast enough for every commit.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin thread_scaling [-- --scale 0.01 --pairs 24]
//! cargo run --release -p avfs-bench --bin thread_scaling -- --smoke
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{characterize_used, Args};
use avfs_circuits::{ripple_carry_adder, PAPER_PROFILES};
use avfs_core::{slots, CompiledNetlist, SimOptions, SimRun};
use avfs_delay::{CharacterizedLibrary, TimingAnnotation};
use avfs_netlist::{CellLibrary, Netlist};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("thread_scaling: worker-pool scaling sweep with identity checks");
        println!("  --scale <f>   circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>   cap on pattern pairs (default 24)");
        println!("  --smoke       CI mode: small adder, threads 1 vs 2, no table");
        return;
    }
    let library = CellLibrary::nangate15_like();

    if args.flag("--smoke") {
        let netlist = Arc::new(ripple_carry_adder(32, &library).expect("adder builds"));
        let chars = characterize_used(&[netlist.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 7);
        sweep("rca32", &netlist, &annotation, &chars, &patterns, &[1, 2]);
        println!("thread_scaling --smoke: identical results at threads 1 and 2, OK");
        return;
    }

    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
    let profile = PAPER_PROFILES
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("paper profiles exist");
    eprintln!(
        "thread_scaling: synthesizing {} at scale {scale} ...",
        profile.name
    );
    let netlist = Arc::new(
        profile
            .synthesize(scale, &library)
            .expect("synthesis succeeds"),
    );
    let chars = characterize_used(&[netlist.as_ref()], &library, 3);
    let annotation = Arc::new(chars.annotate(&netlist).expect("all cells characterized"));
    let patterns = PatternSet::random(
        netlist.inputs().len(),
        profile.test_pairs.min(pairs_cap),
        0xA5F5_0000 ^ profile.nodes as u64,
    );
    sweep(
        profile.name,
        &netlist,
        &annotation,
        &chars,
        &patterns,
        &[1, 2, 4, 8],
    );
}

/// Runs the sweep, asserting identity against the first (single-worker)
/// run and printing one line per point.
fn sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    counts: &[usize],
) {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let mut reference: Option<SimRun> = None;
    let mut single_ms = 0.0;
    println!(
        "thread_scaling: {name} ({} nodes, {} slots)",
        netlist.num_nodes(),
        slot_list.len()
    );
    for &threads in counts {
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
                assert_eq!(
                    r.diagnostics, run.diagnostics,
                    "{name}: diagnostics diverge at threads={threads}"
                );
            }
        }
        println!(
            "  threads={threads:<2} {elapsed_ms:>9.1} ms  ({:.2}x vs single)",
            single_ms / elapsed_ms.max(1e-9)
        );
    }
}
