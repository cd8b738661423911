//! Fig. 4 — approximation-error distribution of cell-delay polynomials.
//!
//! Sweeps the Fig. 4 cell subset (AND, NAND, BUF, INV, OR, NOR at all
//! drive strengths) once with the paper's operating-point grid, then fits
//! polynomials of order `2·N` for `N = 1…5` against the shared sweep data
//! and reports the distribution of per-cell mean / stddev / max relative
//! errors over a 64 × 64 probe lattice.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin fig4 [-- --orders 1,2,3,4,5 --ablation]
//! cargo run --release -p avfs-bench --bin fig4 -- --smoke   # CI: X1 cells, 32 × 32 probes, verdicts
//! ```
//!
//! `--smoke` sweeps only the X1 drive strength of each function on a
//! 32 × 32 probe lattice and exits non-zero unless the paper's verdicts
//! hold: every error statistic falls with the order, and at `N = 3` the
//! average stddev is below 1 %, the average max below 2.7 % and the worst
//! sample below 5.35 %.

use avfs_bench::Args;
use avfs_delay::characterize::{deviation_grid, fit_deviation_grid};
use avfs_delay::ParameterSpace;
use avfs_netlist::library::Polarity;
use avfs_netlist::CellLibrary;
use avfs_regression::stats::StatsDistribution;
use avfs_regression::ErrorStats;
use avfs_spice::{sweep::sweep_pin, SweepConfig, Technology};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::capture();
    if args.flag("--help") {
        println!("fig4: cell-delay polynomial approximation error distributions");
        println!("  --orders <csv>   per-variable orders to evaluate (default 1,2,3,4,5)");
        println!("  --probe <n>      probe lattice per axis (default 64)");
        println!("  --refine <n>     grid densification factor (default 4)");
        println!("  --ablation       also print coefficient counts and fit runtimes");
        println!("  --smoke          X1 cells, 32 x 32 probes; exit non-zero unless the paper's verdicts hold");
        return ExitCode::SUCCESS;
    }
    let smoke = args.flag("--smoke");
    let orders: Vec<usize> = args
        .value::<String>("--orders")
        .unwrap_or_else(|| "1,2,3,4,5".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let probe: usize = args.value("--probe").unwrap_or(if smoke { 32 } else { 64 });
    let refine: usize = args.value("--refine").unwrap_or(4);

    let library = CellLibrary::nangate15_like();
    let tech = Technology::nm15();
    let sweep = SweepConfig::paper();
    let space = ParameterSpace::paper();

    // The Fig. 4 subset: AND, NAND, BUF, INV, OR and NOR for all driving
    // strengths (two-input forms for the multi-input functions).
    let strengths: &[&str] = if smoke {
        &["X1"]
    } else {
        &["X1", "X2", "X4", "X8"]
    };
    let mut cell_names = Vec::new();
    for base in ["AND2", "NAND2", "BUF", "INV", "OR2", "NOR2"] {
        for strength in strengths {
            cell_names.push(format!("{base}_{strength}"));
        }
    }

    eprintln!(
        "fig4: sweeping {} cells over {} voltages x {} loads ...",
        cell_names.len(),
        sweep.voltages.len(),
        sweep.loads_ff.len()
    );

    // Step A once per (cell, pin, polarity); reused across orders.
    let mut grids = Vec::new(); // (cell name, Vec<DataGrid>)
    for name in &cell_names {
        let id = library.find(name).expect("subset cell exists");
        let cell = library.cell(id);
        let mut cell_grids = Vec::new();
        for pin in 0..cell.num_inputs() {
            for polarity in Polarity::both() {
                let surface =
                    sweep_pin(&tech, cell, pin, polarity, &sweep).expect("sweep succeeds");
                cell_grids.push(deviation_grid(&surface, &space).expect("grid is valid"));
            }
        }
        grids.push((name.clone(), cell_grids));
    }

    println!("# Fig. 4 — approximation error of cell delay polynomials");
    println!(
        "# subset: AND/NAND/BUF/INV/OR/NOR x {} ({} cells)",
        strengths.join(","),
        cell_names.len()
    );
    println!("# probe lattice {probe}x{probe}, refine factor {refine}, errors in % relative delay");
    println!(
        "{:>5} {:>7} | {:>10} {:>10} {:>10} | {:>10} {:>10} | {:>10}",
        "2N", "coeffs", "avg mean", "p50 mean", "p90 mean", "avg stddev", "avg max", "worst max"
    );
    // Per order: avg mean, avg stddev, avg max and worst max, in %.
    let mut rows: Vec<(usize, [f64; 4])> = Vec::new();
    for &order in &orders {
        let mut dist = StatsDistribution::new();
        let mut fit_ms = Vec::new();
        for (_, cell_grids) in &grids {
            let mut cell_errors: Vec<f64> = Vec::new();
            for grid in cell_grids {
                let fit = fit_deviation_grid(grid, order, refine, probe).expect("fit succeeds");
                cell_errors.extend(fit.probe_errors);
                fit_ms.push(fit.fit_millis);
            }
            dist.push(ErrorStats::from_errors(cell_errors));
        }
        let coeffs = (order + 1) * (order + 1);
        let stats = [
            dist.avg_mean(),
            dist.avg_stddev(),
            dist.avg_max(),
            dist.worst_max(),
        ]
        .map(|x| 100.0 * x);
        println!(
            "{:>5} {:>7} | {:>9.4}% {:>9.4}% {:>9.4}% | {:>9.4}% {:>9.4}% | {:>9.4}%",
            2 * order,
            coeffs,
            stats[0],
            100.0 * dist.mean_quantile(0.5),
            100.0 * dist.mean_quantile(0.9),
            stats[1],
            stats[2],
            stats[3],
        );
        rows.push((order, stats));
        if args.flag("--ablation") {
            let total: f64 = fit_ms.iter().sum();
            let max = fit_ms.iter().fold(0.0f64, |m, &x| m.max(x));
            println!(
                "#   ablation N={order}: {coeffs} coeffs/pin-polarity, {} fits, {:.2} ms total ({:.3} ms max per fit)",
                fit_ms.len(),
                total,
                max
            );
        }
    }
    println!("# paper reference: for N >= 3 avg stddev < 1%, avg max < 2.7%, worst sample 5.35%");
    if !smoke {
        return ExitCode::SUCCESS;
    }
    let failed = verdict_failures(&rows);
    for failure in &failed {
        eprintln!("fig4 --smoke: {failure}");
    }
    if failed.is_empty() {
        println!("fig4 --smoke: error falls with order; N = 3 within the paper's bounds");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The paper's Fig. 4 verdicts that `rows` (order, [avg mean, avg stddev,
/// avg max, worst max] in %) break: every statistic must fall from each
/// order to the next, and `N = 3` must be present and within the paper's
/// bounds.
fn verdict_failures(rows: &[(usize, [f64; 4])]) -> Vec<String> {
    const NAMES: [&str; 4] = ["avg mean", "avg stddev", "avg max", "worst max"];
    let mut failed = Vec::new();
    for pair in rows.windows(2) {
        let ((lo, a), (hi, b)) = (pair[0], pair[1]);
        for (k, name) in NAMES.iter().enumerate() {
            if b[k] >= a[k] {
                failed.push(format!(
                    "{name} does not fall from N = {lo} to N = {hi}: {:.4}% -> {:.4}%",
                    a[k], b[k]
                ));
            }
        }
    }
    match rows.iter().find(|(order, _)| *order == 3) {
        None => failed.push("no N = 3 row to check".to_owned()),
        Some((_, stats)) => {
            for (k, bound) in [(1, 1.0), (2, 2.7), (3, 5.35)] {
                if stats[k] >= bound {
                    failed.push(format!(
                        "{} at N = 3 is {:.4}%, not below {bound}%",
                        NAMES[k], stats[k]
                    ));
                }
            }
        }
    }
    failed
}
