//! Table II — circuit timing characteristics under the voltage sweep.
//!
//! For each design: the STA longest path at the nominal corner (col 2),
//! the latest transition arrival time observed while simulating the whole
//! pattern set under each supply voltage (cols 3–8), and at 0.8 V the
//! relative deviation of the parametric simulation against a static-delay
//! run (the parenthesized percentage).
//!
//! All `patterns × voltages` combinations of one design run in a *single*
//! engine launch — the multi-operating-point parallelism that is the
//! paper's point.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin table2 [-- --scale 0.01 --pairs 24]
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{characterize_used, fmt_ps, Args};
use avfs_circuits::{CircuitProfile, PAPER_PROFILES};
use avfs_core::{slots, sta, CompiledNetlist, SimOptions};
use avfs_delay::StaticModel;
use avfs_netlist::CellLibrary;
use std::sync::Arc;

const SWEEP_VOLTAGES: [f64; 6] = [0.55, 0.6, 0.7, 0.8, 0.9, 1.1];

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("table2: latest transition arrival times under voltage sweep");
        println!("  --scale <f>       circuit scale factor (default 0.01)");
        println!("  --pairs <n>       cap on pattern pairs per design (default 24)");
        println!("  --circuit <name>  limit to specific designs (repeatable)");
        println!("  --order <N>       polynomial order (default 3)");
        println!("  --threads <n>     engine worker threads (0 = auto, the default)");
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
        "table2: synthesizing {} designs at scale {scale} ...",
        profiles.len()
    );
    let netlists: Vec<Arc<avfs_netlist::Netlist>> = profiles
        .iter()
        .map(|p| Arc::new(p.synthesize(scale, &library).expect("synthesis succeeds")))
        .collect();
    let refs: Vec<&avfs_netlist::Netlist> = netlists.iter().map(Arc::as_ref).collect();
    eprintln!("table2: characterizing used cells (order N={order}) ...");
    let chars = characterize_used(&refs, &library, order);

    println!("# Table II — circuit timing characteristics under voltage sweep");
    println!("# scale {scale}, pairs cap {pairs_cap}, order N={order}");
    print!("{:<10} {:>9}", "Circuit", "LongPath");
    for v in SWEEP_VOLTAGES {
        print!(" {v:>9}V");
    }
    println!(" {:>12}", "(vs static)");

    for (profile, netlist) in profiles.iter().zip(&netlists) {
        let annotation = Arc::new(chars.annotate(netlist).expect("all cells characterized"));
        let patterns = PatternSet::random(
            netlist.inputs().len(),
            profile.test_pairs.min(pairs_cap),
            0xBEEF ^ profile.nodes as u64,
        );
        let opts = SimOptions {
            threads,
            ..SimOptions::default()
        };

        // STA longest path at the nominal corner (col 2).
        let levels = avfs_netlist::Levelization::of(netlist).expect("acyclic");
        let sta_report = sta::longest_path(netlist, &levels, &annotation);

        // One launch: every pattern under every voltage.
        let engine = CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::clone(&annotation),
            Arc::new(chars.model().clone()),
        )
        .expect("engine builds");
        let run = engine
            .launch(
                &patterns,
                &slots::cross(patterns.len(), &SWEEP_VOLTAGES),
                &opts,
            )
            .expect("sweep runs");

        // Static-delay reference at the nominal voltage.
        let static_engine = CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::clone(&annotation),
            Arc::new(StaticModel::new(*chars.space())),
        )
        .expect("engine builds");
        let static_run = static_engine
            .launch(&patterns, &slots::at_voltage(patterns.len(), 0.8), &opts)
            .expect("static runs");

        let name = if profile.false_paths_only {
            format!("{}*", profile.name)
        } else {
            profile.name.to_owned()
        };
        print!("{:<10} {:>9}", name, fmt_ps(sta_report.longest_path_ps));
        for v in SWEEP_VOLTAGES {
            match run.latest_arrival_at(v) {
                Some(t) => print!(" {:>10}", fmt_ps(t)),
                None => print!(" {:>10}", "-"),
            }
        }
        let deviation = match (
            run.latest_arrival_at(0.8),
            static_run.latest_arrival_at(0.8),
        ) {
            (Some(a), Some(b)) if b > 0.0 => format!("({:+.2}%)", 100.0 * (a - b) / b),
            _ => "(-)".to_owned(),
        };
        println!(" {deviation:>12}");
    }
    println!("# paper shape: arrivals fall monotonically with V_DD; nominal deviation ~0.1%");
}
