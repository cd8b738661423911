//! Quickstart: characterize, annotate and simulate the ISCAS'85 c17
//! benchmark under two supply voltages.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use avfs::atpg::PatternSet;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::netlist::CellLibrary;
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use avfs::spice::Technology;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. The cell library and a netlist (c17 ships embedded).
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(avfs::circuits::c17(&library)?);
    println!(
        "loaded `{}`: {}",
        netlist.name(),
        avfs::netlist::NetlistStats::of(&netlist)
    );

    // 2. Offline characterization (Fig. 1 of the paper): transient sweeps,
    //    regression, compiled polynomial delay kernels. c17 only uses
    //    NAND2_X1, so characterize just that cell.
    let nand2 = library.find("NAND2_X1").expect("library cell");
    let chars = characterize_library(
        &library,
        &Technology::nm15(),
        &CharacterizationConfig::default(),
        Some(&[nand2]),
    )?;
    let report = &chars.reports()[0];
    println!(
        "characterized {}: mean fit error {:.3}%, regression {:.1} ms",
        report.cell,
        100.0 * report.stats.mean,
        report.fit_millis
    );

    // 3. Compile: the netlist bound to its nominal annotation and the
    //    polynomial delay model — paid once, launched any number of times.
    let sim = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)?;

    // 4. Transition patterns and a two-voltage comparison, with the
    //    phase-level profile attached to the run.
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 32, 42);
    let options = SimOptions {
        profiling: true,
        ..SimOptions::default()
    };
    let run = sim.launch(
        &patterns,
        &slots::cross(patterns.len(), &[0.55, 0.8]),
        &options,
    )?;

    for v in [0.55, 0.8] {
        let latest = run.latest_arrival_at(v).expect("c17 outputs toggle");
        println!("V_DD = {v:.2} V → latest output transition {latest:.1} ps");
    }
    let t_low = run.latest_arrival_at(0.55).expect("toggles");
    let t_nom = run.latest_arrival_at(0.8).expect("toggles");
    println!(
        "slowdown at 0.55 V: {:.1}% — the voltage dependence AVFS validation must model",
        100.0 * (t_low / t_nom - 1.0)
    );
    // 5. The shared run summary: throughput, diagnostics and the profile
    //    (where did the milliseconds go — delay kernel, merge, barrier?).
    print!("{}", run.summary());
    Ok(())
}
