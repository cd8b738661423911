//! thread_scaling — worker-pool scaling check for the persistent-pool
//! engine.
//!
//! Re-runs one circuit at increasing worker counts on identical inputs,
//! asserts the pooled engine's hard invariant (results bit-for-bit
//! identical to the single-threaded path at every count) and prints the
//! wall-clock scaling table. `--smoke` is the CI gate: the s38417
//! stand-in at a scale whose levels straddle the engine's pooled-epoch
//! threshold, threads 1 vs 2, identity enforced and both dispatch arms
//! required, fast enough for every commit.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin thread_scaling [-- --scale 0.01 --pairs 24]
//! cargo run --release -p avfs-bench --bin thread_scaling -- --smoke
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{characterize_used, Args};
use avfs_circuits::PAPER_PROFILES;
use avfs_core::{phases, slots, CompiledNetlist, SimOptions, SimRun};
use avfs_delay::{CharacterizedLibrary, TimingAnnotation};
use avfs_netlist::{CellLibrary, Netlist};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("thread_scaling: worker-pool scaling sweep with identity checks");
        println!("  --scale <f>   circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>   cap on pattern pairs (default 24)");
        println!("  --smoke       CI mode: small design, threads 1 vs 2, both dispatch arms");
        return;
    }
    let library = CellLibrary::nangate15_like();

    if args.flag("--smoke") {
        // s38417 at 3 134 nodes × 48 slots: about a third of its levels
        // schedule enough lane tasks to wake the pool, the rest run on
        // the coordinator.
        let design = &PAPER_PROFILES[0];
        let netlist = Arc::new(
            design
                .synthesize(0.165, &library)
                .expect("synthesis succeeds"),
        );
        let chars = characterize_used(&[netlist.as_ref()], &library, 2);
        let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 48, 7);
        let last = sweep(
            design.name,
            &netlist,
            &annotation,
            &chars,
            &patterns,
            &[1, 2],
            true,
        );
        // Identity at threads = 2 only gates the pool if the pool ran, and
        // only gates the inline arm if some epochs stayed off it.
        let profile = last.profile.expect("the smoke sweep is profiled");
        let epochs = |name| profile.counter(name).unwrap_or(0);
        let (pooled, inline) = (
            epochs(phases::ENGINE_EPOCHS_POOLED),
            epochs(phases::ENGINE_EPOCHS_INLINE),
        );
        assert!(
            pooled > 0 && inline > 0,
            "the smoke design must exercise both dispatch arms at threads=2 \
             ({pooled} pooled, {inline} inline)"
        );
        println!(
            "thread_scaling --smoke: identical results at threads 1 and 2 \
             ({pooled} pooled + {inline} inline epochs), OK"
        );
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
        false,
    );
}

/// Runs the sweep, asserting identity against the first (single-worker)
/// run and printing one line per point. Returns the last point's run.
fn sweep(
    name: &str,
    netlist: &Arc<Netlist>,
    annotation: &Arc<TimingAnnotation>,
    chars: &CharacterizedLibrary,
    patterns: &PatternSet,
    counts: &[usize],
    profiling: bool,
) -> SimRun {
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let mut runs: Vec<SimRun> = Vec::new();
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
                    profiling,
                    ..SimOptions::default()
                },
            )
            .expect("engine runs");
        let single = runs.first().unwrap_or(&run);
        assert_eq!(
            single.slots, run.slots,
            "{name}: results diverge at threads={threads}"
        );
        assert_eq!(
            single.diagnostics, run.diagnostics,
            "{name}: diagnostics diverge at threads={threads}"
        );
        println!(
            "  threads={threads:<2} {:>9.1} ms  ({:.2}x vs single)",
            run.elapsed.as_secs_f64() * 1e3,
            single.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-12)
        );
        runs.push(run);
    }
    runs.pop().expect("at least one thread count")
}
