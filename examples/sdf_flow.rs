//! The file-based annotation flow: emit SDF + SPEF from a characterized
//! design, read both back, and verify the re-annotated simulation matches
//! — exactly what a tool exchange with a synthesis/STA flow looks like.
//!
//! ```text
//! cargo run --release --example sdf_flow
//! ```

use avfs::atpg::PatternSet;
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::StaticModel;
use avfs::netlist::{CellLibrary, NodeKind};
use avfs::sdf::{sdf, spef};
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library)?);

    // Characterize and annotate (what an STA tool would compute).
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
    let annotation = Arc::new(chars.annotate(&netlist)?);

    // Emit the interchange files.
    let sdf_text = sdf::write_sdf(&netlist, &annotation);
    let spef_text = spef::write_spef(&netlist, &annotation);
    println!(
        "emitted SDF ({} lines) and SPEF ({} lines); SDF excerpt:",
        sdf_text.lines().count(),
        spef_text.lines().count()
    );
    for line in sdf_text.lines().take(9) {
        println!("  {line}");
    }

    // Read both back into a fresh annotation.
    let mut parsed = sdf::parse_sdf(&netlist, &sdf_text)?;
    let loads = spef::parse_spef(&spef_text)?;
    spef::apply_spef(&netlist, &mut parsed, &loads)?;
    assert!(parsed.matches(&netlist));

    // Same simulation through both annotations must agree.
    let model = Arc::new(StaticModel::new(*chars.space()));
    let sim_a =
        CompiledNetlist::compile(Arc::clone(&netlist), annotation, Arc::clone(&model) as _)?;
    let sim_b = CompiledNetlist::compile(Arc::clone(&netlist), Arc::new(parsed), model as _)?;
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 5);
    let opts = SimOptions::default();
    let at_nominal = slots::at_voltage(patterns.len(), 0.8);
    let a = sim_a.launch(&patterns, &at_nominal, &opts)?;
    let b = sim_b.launch(&patterns, &at_nominal, &opts)?;
    for (x, y) in a.slots.iter().zip(&b.slots) {
        assert_eq!(x.responses, y.responses);
        let (ta, tb) = (
            x.latest_output_transition_ps.unwrap_or(0.0),
            y.latest_output_transition_ps.unwrap_or(0.0),
        );
        assert!((ta - tb).abs() < 1e-6, "arrival mismatch {ta} vs {tb}");
    }
    println!(
        "round-trip verified: {} patterns, identical responses and arrival times",
        patterns.len()
    );
    Ok(())
}
