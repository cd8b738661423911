//! Variation-aware small-delay fault grading across AVFS operating
//! points — the test-application the paper's introduction motivates
//! (small delay fault testing, variation-aware fault grading \[13\]).
//!
//! A small-delay defect that escapes the test at the nominal supply can
//! become detectable at a lowered supply (the defect consumes a larger
//! share of the shrunken slack) — the "faster-than-at-speed" insight.
//! This example grades the same fault list at three supplies, with and
//! without random process variation — each grading one `Launch::Faults`
//! launch on one session's parked worker pool, the faults a per-slot
//! delay modifier.
//!
//! ```text
//! cargo run --release --example fault_grading
//! ```

use avfs::atpg::PatternSet;
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::netlist::{CellLibrary, NodeKind};
use avfs::sim::{
    slots, CompiledNetlist, FaultVerdict, Launch, Session, SimOptions, SmallDelayFault,
    VariationConfig,
};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library)?);

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
    let sim = Arc::new(CompiledNetlist::from_characterization(
        Arc::clone(&netlist),
        &chars,
    )?);
    // One worker pool, parked across every launch below.
    let mut session = Session::new(sim, 0);

    // A fixed system clock with 25 % guardband over the *measured*
    // fault-free arrival at the nominal supply. Lowering the supply eats
    // the guardband, so a fixed-size defect consumes a growing share of
    // the remaining slack — the faster-than-at-speed effect, achieved
    // here by voltage instead of clock scaling.
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 24, 19);
    let opts = SimOptions::default();
    let nominal_arrival = session
        .run(&patterns, &slots::at_voltage(patterns.len(), 0.8), &opts)?
        .latest_arrival_at(0.8)
        .expect("adder toggles");
    let capture_ps = nominal_arrival * 1.25;
    let delta_ps = nominal_arrival * 0.18;
    println!(
        "fault-free nominal arrival {nominal_arrival:.1} ps, capture {capture_ps:.1} ps, δ = {delta_ps:.1} ps"
    );
    let faults = SmallDelayFault::every_gate(&netlist, delta_ps);

    println!(
        "{:>8} {:>12} {:>16} {:>18}  ({} faults, {} patterns)",
        "V_DD",
        "slack",
        "coverage",
        "coverage+var(5%)",
        netlist.num_gates(),
        patterns.len()
    );
    for &voltage in &[0.8, 0.75, 0.7] {
        let arrival = session
            .run(
                &patterns,
                &slots::at_voltage(patterns.len(), voltage),
                &opts,
            )?
            .latest_arrival_at(voltage)
            .expect("adder toggles");
        // The nominal die, then a process-varied die (same defect,
        // different silicon).
        let mut grade = |die: Option<VariationConfig>| {
            let request = Launch::Faults {
                faults: &faults,
                voltage,
                die,
                capture_ps,
            };
            let run = session.run(&patterns, request, &opts)?;
            Ok::<_, Box<dyn Error>>(FaultVerdict::coverage(&FaultVerdict::grade(
                &run, &faults, capture_ps,
            )))
        };
        let coverage = grade(None)?;
        let coverage_var = grade(Some(VariationConfig::sigma5(42)))?;

        println!(
            "{voltage:>7.2}V {:>9.1}ps {:>15.1}% {:>17.1}%",
            capture_ps - arrival,
            100.0 * coverage,
            100.0 * coverage_var
        );
    }
    println!("lowering V_DD shrinks slack, so the same small defect is caught more often");
    Ok(())
}
