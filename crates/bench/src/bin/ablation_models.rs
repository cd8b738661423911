//! Ablation — delay-model family comparison (paper Sec. II / IV.B note:
//! "although this work utilizes polynomials for the delay calculation,
//! analytical models and other types of approximations can be applied as
//! well").
//!
//! Compares, for the Fig. 4 cell subset, the accuracy and storage of:
//!
//! * the compiled polynomial kernels (the paper's method, order N),
//! * bilinear LUT interpolation on the raw sweep grid (the "traditional"
//!   approach whose table growth motivates the paper),
//! * the closed-form α-power law (load-blind analytical baseline),
//!
//! the first two characterized on the default six-supply lattice, each
//! judged on a dense probe lattice against the bilinear LUT of the
//! paper's full twelve-supply sweep, plus the end-to-end arrival-time
//! disagreement on a real netlist.
//!
//! ```text
//! cargo run --release -p avfs-bench --bin ablation_models [-- --order 3]
//! ```

use avfs_atpg::PatternSet;
use avfs_bench::{used_cells, Args};
use avfs_circuits::ripple_carry_adder;
use avfs_core::{slots, CompiledNetlist, SimOptions};
use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
use avfs_delay::model::DelayModel;
use avfs_delay::op::NormalizedPoint;
use avfs_delay::AlphaPowerModel;
use avfs_netlist::library::Polarity;
use avfs_netlist::CellLibrary;
use avfs_regression::ErrorStats;
use avfs_spice::{SweepConfig, Technology};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    if args.flag("--help") {
        println!("ablation_models: polynomial vs LUT vs alpha-power delay models");
        println!("  --order <N>   polynomial order (default 3)");
        println!("  --probe <n>   probe lattice per axis (default 48)");
        return;
    }
    let order: usize = args.value("--order").unwrap_or(3);
    let probe: usize = args.value("--probe").unwrap_or(48);

    let library = CellLibrary::nangate15_like();
    let tech = Technology::nm15();
    let netlist = Arc::new(ripple_carry_adder(12, &library).expect("adder builds"));
    eprintln!("ablation_models: characterizing used cells (N={order}) ...");
    let used = used_cells(&[netlist.as_ref()]);
    let characterize = |sweep| {
        let config = CharacterizationConfig {
            sweep,
            order,
            ..CharacterizationConfig::default()
        };
        characterize_library(&library, &tech, &config, Some(&used))
            .expect("characterization of the synthetic library cannot fail")
    };
    // The models under test, on the default lattice, and the reference:
    // the paper's full sweep, whose LUT interpolates all twelve supplies.
    let chars = characterize(CharacterizationConfig::default().sweep);
    let reference_chars = characterize(SweepConfig::paper());
    let space = *chars.space();
    let alpha = AlphaPowerModel::new(tech.vth_n, tech.alpha, space);

    // Accuracy on the probe lattice against the paper sweep's bilinear
    // LUT: bilinear refinement is exact under bilinear interpolation, so
    // that LUT is the refined deviation grid's interpolant (up to
    // rounding) ≈ interpolated electrical truth. Each model's factor is
    // compared at interior probes.
    let mut poly_errors = Vec::new();
    let mut lut_errors = Vec::new();
    let mut alpha_errors = Vec::new();
    for &cell in &used {
        let ncell = library.cell(cell);
        for pin in 0..ncell.num_inputs() {
            for polarity in Polarity::both() {
                for i in 1..probe {
                    for j in 1..probe {
                        let p = NormalizedPoint {
                            v: i as f64 / probe as f64,
                            c: j as f64 / probe as f64,
                        };
                        let reference = reference_chars
                            .lut()
                            .factor(cell, pin, polarity, p)
                            .expect("lut entry");
                        let f_lut = chars
                            .lut()
                            .factor(cell, pin, polarity, p)
                            .expect("lut entry");
                        let f_poly = chars
                            .model()
                            .factor(cell, pin, polarity, p)
                            .expect("kernel");
                        let f_alpha = alpha.factor(cell, pin, polarity, p).expect("analytic");
                        poly_errors.push((f_poly - reference) / reference);
                        lut_errors.push((f_lut - reference) / reference);
                        alpha_errors.push((f_alpha - reference) / reference);
                    }
                }
            }
        }
    }
    let poly_stats = ErrorStats::from_errors(poly_errors);
    let lut_stats = ErrorStats::from_errors(lut_errors);
    let alpha_stats = ErrorStats::from_errors(alpha_errors);

    // Storage: doubles held per model.
    let poly_words = chars.model().table().arena_len();
    let lut_words = chars.lut().stored_samples();

    println!(
        "# model-family ablation ({} cells, order N={order})",
        used.len()
    );
    println!(
        "{:<14} {:>12} {:>12} {:>14}",
        "model", "mean err", "max err", "stored f64s"
    );
    println!(
        "{:<14} {:>11.3}% {:>11.3}% {:>14}",
        "polynomial",
        100.0 * poly_stats.mean,
        100.0 * poly_stats.max,
        poly_words
    );
    println!(
        "{:<14} {:>11.3}% {:>11.3}% {:>14}",
        "lut-bilinear",
        100.0 * lut_stats.mean,
        100.0 * lut_stats.max,
        lut_words
    );
    println!(
        "{:<14} {:>11.3}% {:>11.3}% {:>14}  (load-blind)",
        "alpha-power",
        100.0 * alpha_stats.mean,
        100.0 * alpha_stats.max,
        2
    );

    // End-to-end: latest arrival disagreement on the adder at a low
    // supply, polynomial vs the others.
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotates"));
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 5);
    let slot_list = slots::at_voltage(patterns.len(), 0.6);
    let opts = SimOptions::default();
    let arrivals: Vec<(String, f64)> = {
        let models: Vec<(&str, Arc<dyn DelayModel>)> = vec![
            ("polynomial", Arc::new(chars.model().clone())),
            ("alpha-power", Arc::new(alpha.clone())),
        ];
        models
            .into_iter()
            .map(|(name, model)| {
                let engine =
                    CompiledNetlist::compile(Arc::clone(&netlist), Arc::clone(&annotation), model)
                        .expect("engine builds");
                let run = engine.launch(&patterns, &slot_list, &opts).expect("runs");
                (
                    name.to_owned(),
                    run.latest_arrival_at(0.6).expect("adder toggles"),
                )
            })
            .collect()
    };
    println!("#\n# end-to-end latest arrival at 0.6 V on rca12:");
    for (name, t) in &arrivals {
        println!("#   {name:<12} {t:>9.1} ps");
    }
    let spread = (arrivals[0].1 - arrivals[1].1).abs() / arrivals[0].1;
    println!(
        "#   end-to-end disagreement {:.2}% (per-corner model errors up to {:.1}% largely \
         average out along paths; worst-case corners are where the LUT/polynomial detail matters)",
        100.0 * spread,
        100.0 * alpha_stats.max
    );
}
