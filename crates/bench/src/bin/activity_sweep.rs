//! activity_sweep — how much of the gate-task grid the constant scan
//! resolves, as a function of the stimuli activity factor.
//!
//! Builds pattern sets whose capture flips each input with probability
//! `a` (the activity factor, see [`avfs_bench::activity_patterns`]),
//! launches the engine once per point and prints the table of lane
//! tasks the workers' scan resolved to constant writes instead of
//! running the merge loop — all fan-ins quiet, or the quiet ones fix the
//! output (EXPERIMENTS.md E6). The counts are exact and repeat run to
//! run, so `--check <file>` fails unless they equal the E6 table in
//! `<file>`.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin activity_sweep [-- --scale 0.01 --pairs 24]
//! cargo run --release -p avfs-bench --bin activity_sweep -- --check EXPERIMENTS.md   # CI
//! ```

use avfs_bench::{activity_patterns, characterize_used, Args};
use avfs_circuits::PAPER_PROFILES;
use avfs_core::{phases, slots, CompiledNetlist, SimOptions};
use avfs_netlist::CellLibrary;
use std::process::ExitCode;
use std::sync::Arc;

/// Default sweep: near-quiescent through fully toggling stimuli.
const FACTORS: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

fn main() -> ExitCode {
    let args = Args::capture();
    if args.flag("--help") {
        println!("activity_sweep: constant-scan skipped-task table over stimuli activity");
        println!("  --scale <f>      circuit scale factor (default 0.01 of paper node counts)");
        println!("  --pairs <n>      cap on pattern pairs (default 24)");
        println!("  --check <path>   fail unless every count equals <path>'s E6 table");
        return ExitCode::SUCCESS;
    }
    let check: Option<String> = args.value("--check");
    if args.flag("--check") && check.is_none() {
        eprintln!("activity_sweep: --check needs the document to compare against");
        return ExitCode::FAILURE;
    }
    let library = CellLibrary::nangate15_like();
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let pairs_cap: usize = args.value("--pairs").unwrap_or(24);
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
    let mut counts = Vec::with_capacity(FACTORS.len());
    for factor in FACTORS {
        let patterns = activity_patterns(
            netlist.inputs().len(),
            pairs,
            factor,
            0xAC71_0000 ^ netlist.num_nodes() as u64,
        );
        let run = engine
            .launch(
                &patterns,
                &slots::at_voltage(patterns.len(), 0.8),
                &SimOptions {
                    profiling: true,
                    ..SimOptions::default()
                },
            )
            .expect("engine runs");
        let skipped = run
            .profile
            .as_ref()
            .and_then(|p| p.counter(phases::ENGINE_GATES_SKIPPED_QUIET))
            .unwrap_or(0);
        let tasks = netlist.num_gates() * patterns.len();
        println!(
            "  a={factor:<5} skipped {skipped:>7}/{tasks} tasks ({:>5.1} %)",
            100.0 * skipped as f64 / tasks as f64
        );
        counts.push((factor, skipped));
    }
    match check {
        Some(path) if !table_matches(&path, &counts) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

/// The `--check` comparison: whether the E6 table of the document at
/// `path` lists exactly `counts`, factor by factor.
fn table_matches(path: &str, counts: &[(f64, u64)]) -> bool {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => e6_table(&text),
        Err(e) => {
            eprintln!("activity_sweep --check: cannot read {path}: {e}");
            return false;
        }
    };
    if committed == counts {
        println!(
            "activity_sweep --check: {path}'s E6 table equals a fresh run ({} rows)",
            counts.len()
        );
        return true;
    }
    eprintln!("activity_sweep --check: {path}'s E6 table differs from a fresh run:");
    eprintln!("  committed {committed:?}");
    eprintln!("  fresh     {counts:?}");
    false
}

/// The `(a, gate tasks skipped)` rows of the first table under the
/// `## E6` heading of `doc`: a row reads `| 0.01 | 243 974 / 255 696
/// (95.4 %) |`, and the count is the digits before its `/` or `(`.
fn e6_table(doc: &str) -> Vec<(f64, u64)> {
    doc.lines()
        .skip_while(|line| !line.starts_with("## E6"))
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| {
            let mut cells = row.split('|').skip(1);
            let factor = cells.next()?.trim().parse().ok()?;
            let count = cells.next()?.split(['/', '(']).next()?;
            let digits: String = count.chars().filter(char::is_ascii_digit).collect();
            Some((factor, digits.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::e6_table;

    #[test]
    fn reads_the_e6_table_only() {
        let doc = "## E5\n\n| a | b |\n|---:|---:|\n| 9 | 9 |\n\n## E6 — sweep\n\ntext\n\n\
                   | a | gate tasks skipped |\n|---:|---:|\n| 0.01 | 243 974 / 255 696 (95.4 %) |\n\
                   | 1.0 | 66 416 (26.0 %) |\n\n| a | other |\n| 2.0 | 7 |\n";
        assert_eq!(e6_table(doc), vec![(0.01, 243_974), (1.0, 66_416)]);
    }
}
