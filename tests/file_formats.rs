//! Integration: netlist / SDF / SPEF round trips feeding the simulator.

use avfs::atpg::PatternSet;
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::StaticModel;
use avfs::netlist::{bench, verilog, CellLibrary, NodeKind};
use avfs::sdf::{sdf, spef};
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn verilog_roundtrip_preserves_simulation() {
    let library = CellLibrary::nangate15_like();
    let original = Arc::new(ripple_carry_adder(6, &library).expect("adder"));
    let text = verilog::write_verilog(&original);
    let reparsed = Arc::new(verilog::parse_verilog(&text, &library).expect("reparses"));
    assert_eq!(original.num_gates(), reparsed.num_gates());
    assert_eq!(original.inputs().len(), reparsed.inputs().len());
    assert_eq!(original.outputs().len(), reparsed.outputs().len());

    // Same logic: zero-delay responses agree on random vectors.
    let levels_a = avfs::netlist::Levelization::of(&original).expect("acyclic");
    let levels_b = avfs::netlist::Levelization::of(&reparsed).expect("acyclic");
    let patterns = PatternSet::random(original.inputs().len(), 16, 5);
    for pair in &patterns {
        let va = avfs::atpg::zero_delay_values(&original, &levels_a, &pair.capture);
        let vb = avfs::atpg::zero_delay_values(&reparsed, &levels_b, &pair.capture);
        let ra: Vec<bool> = original
            .outputs()
            .iter()
            .map(|&po| va[po.index()])
            .collect();
        let rb: Vec<bool> = reparsed
            .outputs()
            .iter()
            .map(|&po| vb[po.index()])
            .collect();
        assert_eq!(ra, rb);
    }
}

#[test]
fn bench_roundtrip_preserves_structure() {
    let library = CellLibrary::nangate15_like();
    let c17 = avfs::circuits::c17(&library).expect("c17 parses");
    let text = bench::write_bench(&c17);
    let again = bench::parse_bench("c17b", &text, &library, &bench::BenchOptions::default())
        .expect("reparses");
    assert_eq!(c17.num_nodes(), again.num_nodes());
    assert_eq!(c17.num_gates(), again.num_gates());
}

#[test]
fn sdf_spef_roundtrip_preserves_timing() {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(6, &library).expect("adder"));
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
        &CharacterizationConfig::fast(),
        Some(&used),
    )
    .expect("characterizes");
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotates"));

    let sdf_text = sdf::write_sdf(&netlist, &annotation);
    let spef_text = spef::write_spef(&netlist, &annotation);
    let mut parsed = sdf::parse_sdf(&netlist, &sdf_text).expect("sdf parses");
    spef::apply_spef(
        &netlist,
        &mut parsed,
        &spef::parse_spef(&spef_text).expect("spef parses"),
    )
    .expect("loads apply");

    // Every pin delay and every load survives the text round trip.
    for (id, node) in netlist.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for pin in 0..node.fanin().len() {
                let a = annotation.pin_delays(id, pin);
                let b = parsed.pin_delays(id, pin);
                assert!((a.rise - b.rise).abs() < 1e-5, "{} pin {pin}", node.name());
                assert!((a.fall - b.fall).abs() < 1e-5, "{} pin {pin}", node.name());
            }
        }
        if !node.fanout().is_empty() {
            assert!((annotation.load_ff(id) - parsed.load_ff(id)).abs() < 1e-5);
        }
    }

    // And the simulation built on the parsed annotation is identical.
    let model = Arc::new(StaticModel::new(*chars.space()));
    let sim_a = CompiledNetlist::compile(Arc::clone(&netlist), annotation, Arc::clone(&model) as _)
        .expect("builds");
    let sim_b = CompiledNetlist::compile(Arc::clone(&netlist), Arc::new(parsed), model as _)
        .expect("builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 6);
    let opts = SimOptions::default();
    let at_nominal = slots::at_voltage(patterns.len(), 0.8);
    let a = sim_a.launch(&patterns, &at_nominal, &opts).expect("runs");
    let b = sim_b.launch(&patterns, &at_nominal, &opts).expect("runs");
    for (x, y) in a.slots.iter().zip(&b.slots) {
        assert_eq!(x.responses, y.responses);
        match (x.latest_output_transition_ps, y.latest_output_transition_ps) {
            (Some(ta), Some(tb)) => assert!((ta - tb).abs() < 1e-6),
            (a, b) => assert_eq!(a, b),
        }
    }
}
