//! Table I — circuit statistics and simulation performance at 0.8 V.
//!
//! For every design profile the paper lists, this harness synthesizes a
//! stand-in netlist (scaled by `--scale`; 1.0 = the paper's node counts),
//! generates the transition pattern set (pseudo-random pairs topped off
//! with timing-aware patterns on the longest paths, except for the `*`
//! designs whose long paths the paper found to be false paths), and
//! measures three simulators on identical inputs:
//!
//! * the serial event-driven baseline (Table I cols 4–5),
//! * the parallel engine with static delays (col 6, the \[25\] algorithm),
//! * the parallel engine with the order-`2·N` polynomial kernels
//!   (cols 7–9, the proposed method).
//!
//! ```text
//! cargo run --release -p avfs-bench --bin table1 [-- --scale 0.01 --pairs 24]
//! ```

use avfs_atpg::timing_aware::{collect_pairs, generate_timing_aware};
use avfs_atpg::{k_longest_paths, PatternSet};
use avfs_bench::{characterize_used, fmt_runtime, Args};
use avfs_circuits::{CircuitProfile, PAPER_PROFILES};
use avfs_core::{slots, CompiledNetlist, EventDrivenSimulator, SimOptions};
use avfs_delay::StaticModel;
use avfs_netlist::{CellLibrary, NetlistStats};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("table1: simulation performance comparison at V_DD = 0.8 V");
        println!("  --scale <f>       circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>       cap on pattern pairs per design (default 24)");
        println!("  --circuit <name>  limit to specific designs (repeatable)");
        println!("  --order <N>       polynomial order (default 3)");
        println!("  --threads <n>     engine worker threads (0 = auto, the default)");
        println!("  --skip-event-driven  skip the serial baseline (it dominates runtime)");
        println!("  --slots-ablation  stimuli-vs-operating-point slot split ablation");
        println!("  --order-sweep     engine runtime vs polynomial order ablation");
        return;
    }
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
    let order: usize = args.value("--order").unwrap_or(3);
    let threads: usize = args.value("--threads").map_or(0, |n: usize| n);
    let threads = SimOptions {
        threads,
        ..SimOptions::default()
    }
    .resolved_threads();
    let wanted = args.values("--circuit");
    let profiles: Vec<&CircuitProfile> = PAPER_PROFILES
        .iter()
        .filter(|p| wanted.is_empty() || wanted.iter().any(|w| w == p.name))
        .collect();

    let library = CellLibrary::nangate15_like();
    eprintln!(
        "table1: synthesizing {} designs at scale {scale} ...",
        profiles.len()
    );
    let netlists: Vec<Arc<avfs_netlist::Netlist>> = profiles
        .iter()
        .map(|p| Arc::new(p.synthesize(scale, &library).expect("synthesis succeeds")))
        .collect();

    eprintln!("table1: characterizing used cells (order N={order}) ...");
    let refs: Vec<&avfs_netlist::Netlist> = netlists.iter().map(Arc::as_ref).collect();
    let chars = characterize_used(&refs, &library, order);

    println!("# Table I — circuit statistics and simulation performance (V_DD = 0.8 V)");
    println!("# scale {scale}, pairs cap {pairs_cap}, polynomial order 2N with N={order}, {threads} thread(s)");
    println!(
        "{:<10} {:>9} {:>6} | {:>9} {:>7} | {:>9} | {:>9} {:>8} {:>7}",
        "Circuit", "Nodes", "Pairs", "ED Time", "MEPS", "[25]", "Proposed", "MEPS", "X"
    );

    for (profile, netlist) in profiles.iter().zip(&netlists) {
        let stats = NetlistStats::of(netlist);
        let annotation = Arc::new(chars.annotate(netlist).expect("all cells characterized"));
        let patterns = build_patterns(netlist, &annotation, profile, pairs_cap);
        let slot_list = slots::at_voltage(patterns.len(), 0.8);
        let opts = SimOptions {
            threads,
            ..SimOptions::default()
        };

        // Serial event-driven baseline.
        let (ed_time, ed_meps) = if args.flag("--skip-event-driven") {
            (None, 0.0)
        } else {
            let ed = EventDrivenSimulator::new(Arc::clone(netlist), Arc::clone(&annotation))
                .expect("positive delays from characterization");
            let run = ed.run(&patterns, &slot_list, false).expect("baseline runs");
            (Some(run.elapsed), run.meps())
        };

        // Parallel engine, static delays ([25]).
        let static_engine = CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::clone(&annotation),
            Arc::new(StaticModel::new(*chars.space())),
        )
        .expect("engine builds");
        let static_run = static_engine
            .launch(&patterns, &slot_list, &opts)
            .expect("static engine runs");

        // Parallel engine, polynomial kernels (proposed).
        let poly_engine = CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::clone(&annotation),
            Arc::new(chars.model().clone()),
        )
        .expect("engine builds");
        let poly_run = poly_engine
            .launch(&patterns, &slot_list, &opts)
            .expect("parametric engine runs");

        let name = if profile.false_paths_only {
            format!("{}*", profile.name)
        } else {
            profile.name.to_owned()
        };
        let speedup = ed_time
            .map(|t| t.as_secs_f64() / poly_run.elapsed.as_secs_f64().max(1e-9))
            .unwrap_or(0.0);
        println!(
            "{:<10} {:>9} {:>6} | {:>9} {:>7.2} | {:>9} | {:>9} {:>8.1} {:>7.1}",
            name,
            stats.nodes,
            patterns.len(),
            ed_time.map(fmt_runtime).unwrap_or_else(|| "-".into()),
            ed_meps,
            fmt_runtime(static_run.elapsed),
            fmt_runtime(poly_run.elapsed),
            poly_run.meps(),
            speedup,
        );
    }

    if args.flag("--slots-ablation") {
        slots_ablation(&netlists[0], &chars, pairs_cap, threads);
    }
    if args.flag("--order-sweep") {
        order_sweep(&netlists[0], &library, pairs_cap, threads);
    }
}

/// The paper's pattern recipe: pseudo-random transition pairs, topped off
/// with timing-aware patterns for the longest paths (unless the profile's
/// long paths are all false paths).
fn build_patterns(
    netlist: &Arc<avfs_netlist::Netlist>,
    annotation: &Arc<avfs_delay::TimingAnnotation>,
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

/// Fixed slot budget, varying the stimuli-vs-operating-points split
/// (Sec. IV.B: "trade-off arbitrarily between simulation of multiple
/// stimuli or multiple operating points").
fn slots_ablation(
    netlist: &Arc<avfs_netlist::Netlist>,
    chars: &avfs_delay::CharacterizedLibrary,
    pairs_cap: usize,
    threads: usize,
) {
    println!(
        "#\n# slot-split ablation on {} (fixed budget of slots)",
        netlist.name()
    );
    let annotation = Arc::new(chars.annotate(netlist).expect("annotation"));
    let engine = CompiledNetlist::compile(
        Arc::clone(netlist),
        Arc::clone(&annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let budget = pairs_cap.max(16);
    println!(
        "{:>10} {:>10} {:>10} {:>9} {:>8}",
        "stimuli", "voltages", "slots", "time", "MEPS"
    );
    for voltages_count in [1usize, 2, 4, 8] {
        let stimuli = (budget / voltages_count).max(1);
        let patterns = PatternSet::random(netlist.inputs().len(), stimuli, 42);
        let voltages: Vec<f64> = (0..voltages_count)
            .map(|i| 0.55 + 0.55 * i as f64 / voltages_count.max(2) as f64)
            .collect();
        let slot_list = slots::cross(patterns.len(), &voltages);
        let opts = SimOptions {
            threads,
            ..SimOptions::default()
        };
        let run = engine.launch(&patterns, &slot_list, &opts).expect("runs");
        println!(
            "{:>10} {:>10} {:>10} {:>9} {:>8.1}",
            stimuli,
            voltages_count,
            slot_list.len(),
            fmt_runtime(run.elapsed),
            run.meps()
        );
    }
}

/// Engine runtime versus polynomial order (the paper: "the runtime
/// overhead of the gate delay calculations showed no significant impact
/// even for higher degree polynomials").
fn order_sweep(
    netlist: &Arc<avfs_netlist::Netlist>,
    library: &Arc<CellLibrary>,
    pairs_cap: usize,
    threads: usize,
) {
    println!("#\n# polynomial-order ablation on {}", netlist.name());
    println!("{:>5} {:>9} {:>8}", "N", "time", "MEPS");
    let patterns = PatternSet::random(netlist.inputs().len(), pairs_cap.max(8), 7);
    for order in 1..=5usize {
        let chars = characterize_used(&[netlist.as_ref()], library, order);
        let annotation = Arc::new(chars.annotate(netlist).expect("annotation"));
        let engine = CompiledNetlist::compile(
            Arc::clone(netlist),
            annotation,
            Arc::new(chars.model().clone()),
        )
        .expect("engine builds");
        let slot_list = slots::at_voltage(patterns.len(), 0.7);
        let opts = SimOptions {
            threads,
            ..SimOptions::default()
        };
        let run = engine.launch(&patterns, &slot_list, &opts).expect("runs");
        println!(
            "{:>5} {:>9} {:>8.1}",
            order,
            fmt_runtime(run.elapsed),
            run.meps()
        );
    }
}
