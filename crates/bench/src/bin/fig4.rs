//! Fig. 4 — approximation-error distribution of cell-delay polynomials.
//!
//! Sweeps the Fig. 4 cell subset (AND, NAND, BUF, INV, OR, NOR at all
//! drive strengths) once with the paper's operating-point grid, then fits
//! polynomials of order `2·N` for `N = 1…5` against the shared sweep data
//! and reports the distribution of per-cell mean / stddev / max relative
//! errors over a 64 × 64 probe lattice.
//!
//! It then prints the search that chose the characterization default,
//! [`SweepConfig::sparse`]: every subset of the paper's twelve supplies
//! that keeps 0.55, 0.8 and 1.1 V is fitted at the default order from the
//! paper sweep's rows (no extra SPICE) and measured against the paper
//! sweep's refined reference. Each 6-supply subset gets a row with its
//! worst per-cell max-error ratio (subset fit over paper-sweep fit) and
//! its mean error averaged over the cells; the best 5- and 7-supply
//! subsets get one line each. The search runs over the whole library.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin fig4 [-- --orders 1,2,3,4,5 --ablation]
//! cargo run --release -p avfs-bench --bin fig4 -- --smoke   # CI: X1 cells, 32 × 32 probes, verdicts
//! ```
//!
//! `--smoke` sweeps only the X1 drive strength of each function on a
//! 32 × 32 probe lattice, searches over those cells alone and exits
//! non-zero unless the paper's verdicts hold: every error statistic falls
//! with the order, and at `N = 3` the average stddev is below 1 %, the
//! average max below 2.7 % and the worst sample below 5.35 %, on the paper
//! sweep and on the default lattice alike; and no cell's max error under
//! the default lattice exceeds its paper-sweep fit's.

use avfs_bench::Args;
use avfs_delay::characterize::{
    deviation_grid, fit_deviation_grid, fit_deviation_grid_against, CharacterizationConfig,
};
use avfs_delay::ParameterSpace;
use avfs_netlist::library::Polarity;
use avfs_netlist::CellLibrary;
use avfs_regression::stats::StatsDistribution;
use avfs_regression::{DataGrid, ErrorStats};
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
        println!("  --smoke          X1 cells, 32 x 32 probes; exit non-zero unless the paper's verdicts");
        println!("                   hold and no cell's max error is worse on the default lattice");
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

    // The search runs over the whole library; `--smoke` keeps it to the
    // Fig. 4 cells it sweeps.
    let swept: Vec<String> = if smoke {
        cell_names.clone()
    } else {
        library
            .iter()
            .map(|(_, cell)| cell.name().to_owned())
            .collect()
    };
    eprintln!(
        "fig4: sweeping {} cells over {} voltages x {} loads ...",
        swept.len(),
        sweep.voltages.len(),
        sweep.loads_ff.len()
    );

    // Step A once per (cell, pin, polarity); reused across orders and
    // supply subsets.
    let mut all_grids = Vec::new(); // (cell name, Vec<DataGrid>)
    for name in &swept {
        let id = library.find(name).expect("swept cell exists");
        let cell = library.cell(id);
        let mut cell_grids = Vec::new();
        for pin in 0..cell.num_inputs() {
            for polarity in Polarity::both() {
                let surface =
                    sweep_pin(&tech, cell, pin, polarity, &sweep).expect("sweep succeeds");
                cell_grids.push(deviation_grid(&surface, &space).expect("grid is valid"));
            }
        }
        all_grids.push((name.clone(), cell_grids));
    }
    let grids: Vec<&(String, Vec<DataGrid>)> = all_grids
        .iter()
        .filter(|(name, _)| cell_names.contains(name))
        .collect();

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
        for (_, cell_grids) in grids.iter().copied() {
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

    let lattice_failures = search_supplies(&sweep, &all_grids, &cell_names, refine, probe);
    if !smoke {
        return ExitCode::SUCCESS;
    }
    let mut failed = verdict_failures(&rows);
    failed.extend(lattice_failures);
    for failure in &failed {
        eprintln!("fig4 --smoke: {failure}");
    }
    if failed.is_empty() {
        println!(
            "fig4 --smoke: error falls with order; N = 3 within the paper's bounds; \
             no cell's max error worse on the default lattice"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-cell error statistics of fits on the supply rows `keep` of each
/// arc's paper-sweep grid, measured against the full grid's refinement.
fn subset_stats(
    grids: &[(String, Vec<DataGrid>)],
    keep: &[usize],
    order: usize,
    refine: usize,
    probe: usize,
) -> Vec<ErrorStats> {
    grids
        .iter()
        .map(|(_, cell_grids)| {
            let mut errors = Vec::new();
            for grid in cell_grids {
                let sparse = rows(grid, keep);
                let fit = fit_deviation_grid_against(&sparse, grid, order, refine, probe)
                    .expect("fit succeeds");
                errors.extend(fit.probe_errors);
            }
            ErrorStats::from_errors(errors)
        })
        .collect()
}

/// The rows `keep` of `grid`, bit for bit.
fn rows(grid: &DataGrid, keep: &[usize]) -> DataGrid {
    let width = grid.ys().len();
    let values: Vec<f64> = grid.samples().map(|(_, _, d)| d).collect();
    DataGrid::new(
        keep.iter().map(|&i| grid.xs()[i]).collect(),
        grid.ys().to_vec(),
        keep.iter()
            .flat_map(|&i| values[i * width..(i + 1) * width].iter().copied())
            .collect(),
    )
    .expect("a row subset of a valid grid is valid")
}

/// Every `size`-element subset of `0..n` that contains `fixed`, each in
/// increasing order.
fn subsets(n: usize, size: usize, fixed: &[usize]) -> Vec<Vec<usize>> {
    let has = |mask: u32, i: usize| mask >> i & 1 == 1;
    (0u32..1 << n)
        .filter(|&mask| mask.count_ones() as usize == size && fixed.iter().all(|&i| has(mask, i)))
        .map(|mask| (0..n).filter(|&i| has(mask, i)).collect())
        .collect()
}

/// How much the default lattice may raise the cells' average mean error
/// over the paper sweep's: the price of half the transients.
const MEAN_RATIO_BOUND: f64 = 1.35;

/// Prints the supply-subset search over `all` at the default order and
/// returns the gates the default lattice breaks: a cell of `all` whose
/// max error exceeds its paper-sweep fit's, an average mean error above
/// [`MEAN_RATIO_BOUND`] times the paper sweep's, or the paper's `N = 3`
/// bounds on the Fig. 4 cells `fig4`.
fn search_supplies(
    sweep: &SweepConfig,
    all: &[(String, Vec<DataGrid>)],
    fig4: &[String],
    refine: usize,
    probe: usize,
) -> Vec<String> {
    let order = CharacterizationConfig::default().order;
    let n = sweep.voltages.len();
    let nominal = sweep
        .voltages
        .iter()
        .position(|&v| (v - sweep.nominal_vdd).abs() < 1e-9)
        .expect("the nominal supply is swept");
    let fixed = [0, nominal, n - 1];
    let default: Vec<usize> = SweepConfig::sparse()
        .voltages
        .iter()
        .map(|v| {
            sweep
                .voltages
                .iter()
                .position(|w| w.to_bits() == v.to_bits())
                .expect("the default lattice is a subset of the paper sweep")
        })
        .collect();
    let everything: Vec<usize> = (0..n).collect();
    let paper = subset_stats(all, &everything, order, refine, probe);
    let mean =
        |stats: &[ErrorStats]| stats.iter().map(|s| s.mean).sum::<f64>() / stats.len() as f64;
    let worst_max = |stats: &[ErrorStats]| stats.iter().fold(0.0f64, |m, s| m.max(s.max));
    let paper_mean = mean(&paper);
    // (subset, worst per-cell max ratio, library mean error, per-cell stats)
    let rank = |keep: Vec<usize>| {
        let stats = subset_stats(all, &keep, order, refine, probe);
        let worst = stats
            .iter()
            .zip(&paper)
            .map(|(s, p)| s.max / p.max)
            .fold(0.0f64, f64::max);
        let library_mean = mean(&stats);
        (keep, worst, library_mean, stats)
    };
    let volts = |keep: &[usize]| {
        keep.iter()
            .map(|&i| format!("{:.2}", sweep.voltages[i]))
            .collect::<Vec<_>>()
            .join(" ")
    };

    println!();
    println!(
        "# Supply-lattice search: N = {order}, {probe}x{probe} probes, {} cells; every subset keeps {} V",
        all.len(),
        volts(&fixed)
    );
    println!(
        "# paper sweep ({n} supplies): worst max {:.4}%, library mean {:.4}%",
        100.0 * worst_max(&paper),
        100.0 * paper_mean
    );
    println!("# worst ratio: max over cells of (subset max error / paper-sweep max error); mean: avg over cells of the mean error");
    for size in [5, 7] {
        let best = subsets(n, size, &fixed)
            .into_iter()
            .map(rank)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a subset exists");
        println!(
            "# best {size}-supply subset: {} V, worst ratio {:.3}, mean {:.4}%",
            volts(&best.0),
            best.1,
            100.0 * best.2
        );
    }
    let mut ranked: Vec<_> = subsets(n, 6, &fixed).into_iter().map(rank).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "{:<32} | {:>11} | {:>9} | {:>9} | {:>10}",
        "6 supplies (V)", "worst ratio", "worst max", "mean", "mean ratio"
    );
    for (keep, worst, library_mean, stats) in &ranked {
        let tag = if *keep == default { "  <- default" } else { "" };
        println!(
            "{:<32} | {:>11.3} | {:>8.4}% | {:>8.4}% | {:>10.3}{tag}",
            volts(keep),
            worst,
            100.0 * worst_max(stats),
            100.0 * library_mean,
            library_mean / paper_mean
        );
    }
    let passing = ranked.iter().filter(|r| r.1 <= 1.0).count();
    println!(
        "# 6-supply subsets with no cell's max error worse than the paper sweep's: {passing} of {}",
        ranked.len()
    );

    let (_, _, default_mean, stats) = ranked
        .iter()
        .find(|r| r.0 == default)
        .expect("the default lattice is searched");
    let mut failed: Vec<String> = all
        .iter()
        .zip(stats.iter().zip(&paper))
        .filter(|(_, (s, p))| s.max > p.max)
        .map(|((name, _), (s, p))| {
            format!(
                "{name}: max error {:.4}% on the default lattice, {:.4}% on the paper sweep",
                100.0 * s.max,
                100.0 * p.max
            )
        })
        .collect();
    let mean_ratio = default_mean / paper_mean;
    if mean_ratio > MEAN_RATIO_BOUND {
        failed.push(format!(
            "mean error on the default lattice is {mean_ratio:.3}x the paper sweep's, above {MEAN_RATIO_BOUND}x"
        ));
    }
    let mut dist = StatsDistribution::new();
    for ((name, _), &s) in all.iter().zip(stats) {
        if fig4.contains(name) {
            dist.push(s);
        }
    }
    let fig4_stats = [
        dist.avg_mean(),
        dist.avg_stddev(),
        dist.avg_max(),
        dist.worst_max(),
    ]
    .map(|x| 100.0 * x);
    println!(
        "# default lattice ({} V) on the Fig. 4 cells: avg stddev {:.4}%, avg max {:.4}%, worst max {:.4}%",
        volts(&default),
        fig4_stats[1],
        fig4_stats[2],
        fig4_stats[3]
    );
    failed.extend(
        verdict_failures(&[(order, fig4_stats)])
            .into_iter()
            .map(|failure| format!("default lattice: {failure}")),
    );
    failed
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
