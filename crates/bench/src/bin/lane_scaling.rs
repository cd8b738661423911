//! lane_scaling — lane-width scaling check for the lane-major engine.
//!
//! Re-runs one circuit at increasing lane widths on identical inputs,
//! asserts the lane-major engine's hard invariant (results bit-for-bit
//! identical to the scalar slot-major path, lane width 1, at every
//! width) and prints the wall-clock scaling table. `--smoke` is the CI
//! gate: a small adder, lanes 1 vs 4 vs 8, identity enforced, fast
//! enough for every commit.
//!
//! Unlike `thread_scaling`, the payoff here is per-core: wider lanes
//! amortize instruction overhead over contiguous lane runs (one Horner
//! kernel batch per level, word-wide quiet-bit scans, one claim
//! `fetch_or` per lane run), so speedups show up even on a single CPU.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin lane_scaling [-- --scale 0.01 --pairs 24]
//! cargo run --release -p avfs-bench --bin lane_scaling -- --smoke
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{activity_patterns, characterize_used, Args};
use avfs_circuits::{ripple_carry_adder, PAPER_PROFILES};
use avfs_core::{slots, CompiledNetlist, SimOptions, SimRun};
use avfs_delay::{CharacterizedLibrary, TimingAnnotation};
use avfs_netlist::{CellLibrary, Netlist};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("lane_scaling: lane-width scaling sweep with identity checks");
        println!("  --scale <f>     circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>     cap on pattern pairs (default 24)");
        println!("  --activity <f>  stimuli activity factor (default: paper-style random pairs)");
        println!("  --smoke         CI mode: small adder, lanes 1 vs 4 vs 8, no table");
        return;
    }
    let library = CellLibrary::nangate15_like();

    if args.flag("--smoke") {
        let netlist = Arc::new(ripple_carry_adder(32, &library).expect("adder builds"));
        let chars = characterize_used(&[netlist.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 7);
        sweep(
            "rca32",
            &netlist,
            &annotation,
            &chars,
            &patterns,
            &[1, 4, 8],
        );
        println!("lane_scaling --smoke: identical results at lanes 1, 4 and 8, OK");
        return;
    }

    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
    let profile = PAPER_PROFILES
        .iter()
        .max_by_key(|p| p.nodes)
        .expect("paper profiles exist");
    eprintln!(
        "lane_scaling: synthesizing {} at scale {scale} ...",
        profile.name
    );
    let netlist = Arc::new(
        profile
            .synthesize(scale, &library)
            .expect("synthesis succeeds"),
    );
    let chars = characterize_used(&[netlist.as_ref()], &library, 3);
    let annotation = Arc::new(chars.annotate(&netlist).expect("all cells characterized"));
    let pairs = profile.test_pairs.min(pairs_cap);
    let seed = 0xA5F5_0000 ^ profile.nodes as u64;
    let patterns = match args.value::<f64>("--activity") {
        // Controlled-activity stimuli: each input toggles between launch
        // and capture with the given probability (the E9 methodology).
        Some(a) => activity_patterns(netlist.inputs().len(), pairs, a, seed),
        None => PatternSet::random(netlist.inputs().len(), pairs, seed),
    };
    sweep(
        profile.name,
        &netlist,
        &annotation,
        &chars,
        &patterns,
        &[1, 4, 8, 16],
    );
}

/// Runs the sweep, asserting identity against the first (scalar, lane
/// width 1) run and printing one line per point.
fn sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    widths: &[usize],
) {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let mut reference: Option<SimRun> = None;
    let mut scalar_ms = 0.0;
    println!(
        "lane_scaling: {name} ({} nodes, {} slots)",
        netlist.num_nodes(),
        slot_list.len()
    );
    for &lanes in widths {
        let run = engine
            .launch(
                patterns,
                &slot_list,
                &SimOptions {
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
                assert_eq!(
                    r.diagnostics, run.diagnostics,
                    "{name}: diagnostics diverge at lanes={lanes}"
                );
            }
        }
        println!(
            "  lanes={lanes:<3} {elapsed_ms:>9.1} ms  ({:.2}x vs scalar)",
            scalar_ms / elapsed_ms.max(1e-9)
        );
    }
}
