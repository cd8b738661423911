//! AVFS design-space exploration: find the minimum supply voltage that
//! meets each clock period — the use case the paper's introduction
//! motivates ("large-scale design space exploration of AVFS-based
//! systems").
//!
//! A scaled industrial-profile netlist is swept over a fine voltage grid
//! in a single engine launch; for each candidate clock period the lowest
//! voltage whose worst observed arrival time still fits is reported (plus
//! the switching-activity proxy for the power trade-off).
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use avfs::atpg::PatternSet;
use avfs::circuits::CircuitProfile;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::netlist::{CellLibrary, NodeKind};
use avfs::sim::{
    cross_schedules, slots, CompiledNetlist, Launch, MonteCarlo, Schedule, SimOptions,
    VariationConfig,
};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let library = CellLibrary::nangate15_like();
    let profile = CircuitProfile::find("s38417").expect("profile exists");
    let netlist = Arc::new(profile.synthesize(0.05, &library)?);
    println!(
        "exploring {} (scale 0.05): {}",
        profile.name,
        avfs::netlist::NetlistStats::of(&netlist)
    );

    let used: Vec<_> = {
        let mut set = BTreeSet::new();
        for (_, node) in netlist.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                set.insert(cell);
            }
        }
        set.into_iter().collect()
    };
    let chars = characterize_library(
        &library,
        &Technology::nm15(),
        &CharacterizationConfig::default(),
        Some(&used),
    )?;
    let sim = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)?;

    // A fine AVFS voltage grid (the paper's interval at 0.05 V steps) and
    // a realistic pattern budget — all in ONE launch.
    let voltages: Vec<f64> = (0..12).map(|i| 0.55 + 0.05 * i as f64).collect();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 24, 11);
    let run = sim.launch(
        &patterns,
        &slots::cross(patterns.len(), &voltages),
        &SimOptions::default(),
    )?;
    println!(
        "swept {} operating points x {} patterns = {} slots in {:?} ({:.1} MEPS)",
        voltages.len(),
        patterns.len(),
        run.slots.len(),
        run.elapsed,
        run.meps()
    );

    // Arrival and activity per voltage.
    let mut rows = Vec::new();
    for &v in &voltages {
        let latest = run.latest_arrival_at(v).expect("activity exists");
        let avg_toggles: f64 = run
            .slots
            .iter()
            .filter(|s| (s.spec.voltage - v).abs() < 1e-12)
            .map(|s| s.activity.total_transitions as f64)
            .sum::<f64>()
            / patterns.len() as f64;
        rows.push((v, latest, avg_toggles));
    }

    // Minimum-voltage operating points for candidate clock periods.
    println!(
        "{:>10} {:>12} — lowest V_DD meeting the period",
        "clock", "V_min"
    );
    let worst = rows.last().expect("rows exist").1;
    for target_ps in [
        1.1 * worst,
        1.3 * worst,
        1.6 * worst,
        2.0 * worst,
        2.6 * worst,
    ] {
        let vmin = rows
            .iter()
            .find(|(_, latest, _)| *latest <= target_ps)
            .map(|(v, _, _)| *v);
        match vmin {
            Some(v) => println!("{target_ps:>9.0}ps {v:>11.2}V"),
            None => println!("{target_ps:>9.0}ps {:>11}", "unreachable"),
        }
    }

    println!(
        "\n{:>8} {:>14} {:>16}",
        "V_DD", "latest [ps]", "avg toggles/pat"
    );
    for (v, latest, toggles) in &rows {
        println!("{v:>7.2}V {latest:>13.1} {toggles:>16.1}");
    }

    // Static V_min tables assume a quiet supply and a typical die. The
    // scenario engine stresses the same operating points with a supply
    // droop plus Monte Carlo process variation (DESIGN.md §5): how much
    // guard-band does each candidate V_DD really have at a 1.3x clock?
    let deadline = 1.3 * worst;
    let candidates: Vec<f64> = rows
        .iter()
        .map(|(v, _, _)| *v)
        .filter(|v| (0.6..=0.85).contains(v))
        .collect();
    let schedules: Vec<Schedule> = candidates
        .iter()
        .map(|&v| Schedule::droop(v, 0.05, 0.2 * deadline, 0.7 * deadline))
        .collect();
    let scenarios = cross_schedules(patterns.len(), &schedules);
    let mc = MonteCarlo {
        samples: 8,
        variation: VariationConfig {
            sigma: 0.04,
            max_deviation: 0.16,
            seed: 0xD5E,
        },
    };
    let request = Launch::Scenarios {
        scenarios: &scenarios,
        mc: Some(mc),
        capture_deadline_ps: Some(deadline),
    };
    let stressed = sim.launch(&patterns, request, &SimOptions::default())?;
    let summary = stressed.scenario.as_ref().expect("scenario summary");
    println!(
        "\n50 mV droop + sigma-4% variation, {} dice/pattern, deadline {deadline:.0} ps:",
        mc.samples
    );
    println!(
        "{:>8} {:>9} {:>9} {:>8}",
        "V_DD", "samples", "failures", "p_fail"
    );
    for p in &summary.points {
        println!(
            "{:>7.2}V {:>9} {:>9} {:>8.3}",
            p.voltage, p.samples, p.failures, p.p_fail
        );
    }
    Ok(())
}
