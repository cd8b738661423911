//! Integration: netlist / SDF / SPEF / kernel-package round trips feeding
//! the simulator, and every reader's behaviour on mutated input.

use avfs::atpg::PatternSet;
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::{io, StaticModel};
use avfs::netlist::{bench, verilog, CellId, CellLibrary, Netlist, NodeKind};
use avfs::sdf::{sdf, spef};
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use avfs::spice::Technology;
use avfs_prng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

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
    let used = used_cells(&netlist);
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

/// The cell types `netlist` instantiates.
fn used_cells(netlist: &Netlist) -> Vec<CellId> {
    let mut set = BTreeSet::new();
    for (_, node) in netlist.iter() {
        if let NodeKind::Gate(cell) = node.kind() {
            set.insert(cell);
        }
    }
    set.into_iter().collect()
}

/// A count no reader may trust: `u64::MAX`.
const HUGE_COUNT: &str = "18446744073709551615";

/// `seed` after one to four byte edits drawn from `rng`: a bit flipped, a
/// byte inserted, a range deleted or duplicated, or [`HUGE_COUNT`]
/// spliced in. Invalid UTF-8 is replaced, since every reader takes text.
fn mutate(seed: &[u8], rng: &mut SmallRng) -> String {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..5u8) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u8),
            1 => bytes.insert(at, rng.gen()),
            2 => {
                let end = (at + rng.gen_range(1..16usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let end = (at + rng.gen_range(1..64usize)).min(bytes.len());
                let piece = bytes[at..end].to_vec();
                bytes.splice(at..at, piece);
            }
            _ => {
                bytes.splice(at..at, HUGE_COUNT.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Mutated inputs per reader.
const MUTANTS: u64 = 2_000;

/// How long one reader may take over all of its inputs.
const READER_BUDGET: Duration = Duration::from_secs(120);

/// Runs `read` on every `hostile` input and on [`MUTANTS`] seeded mutations
/// of `seed`, on a thread of its own: each must come back — `Ok` or the
/// reader's typed error — without a panic, and all of them within
/// [`READER_BUDGET`].
fn assert_reader_survives<T, E>(
    reader: &'static str,
    seed: String,
    hostile: Vec<String>,
    read: impl Fn(&str) -> Result<T, E> + Send + 'static,
) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(7);
        let mutants = (0..MUTANTS).map(|_| mutate(seed.as_bytes(), &mut rng));
        for text in hostile.into_iter().chain(mutants) {
            if panic::catch_unwind(AssertUnwindSafe(|| drop(read(&text)))).is_err() {
                let _ = tx.send(Some(text));
                return;
            }
        }
        let _ = tx.send(None);
    });
    match rx.recv_timeout(READER_BUDGET) {
        Ok(None) => {}
        Ok(Some(text)) => panic!("{reader} panicked on {text:?}"),
        Err(_) => panic!("{reader} did not finish its inputs within {READER_BUDGET:?}"),
    }
}

#[test]
fn every_reader_survives_mutated_input() {
    let library = Arc::new(CellLibrary::nangate15_like());
    let netlist = Arc::new(ripple_carry_adder(2, &library).expect("adder"));
    let chars = characterize_library(
        &library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&used_cells(&netlist)),
    )
    .expect("characterizes");
    let annotation = chars.annotate(&netlist).expect("annotates");

    let lib = Arc::clone(&library);
    assert_reader_survives(
        "verilog",
        verilog::write_verilog(&netlist),
        Vec::new(),
        move |text| verilog::parse_verilog(text, &lib),
    );
    let lib = Arc::clone(&library);
    let c17 = avfs::circuits::c17(&library).expect("c17 parses");
    assert_reader_survives("bench", bench::write_bench(&c17), Vec::new(), move |text| {
        bench::parse_bench("mutant", text, &lib, &bench::BenchOptions::default())
    });
    let target = Arc::clone(&netlist);
    assert_reader_survives(
        "sdf",
        sdf::write_sdf(&netlist, &annotation),
        Vec::new(),
        move |text| sdf::parse_sdf(&target, text),
    );
    assert_reader_survives(
        "spef",
        spef::write_spef(&netlist, &annotation),
        Vec::new(),
        spef::parse_spef,
    );
    // The kernel package is the one format that carries counts: a pin
    // count and a polynomial order.
    let head = "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\n";
    let hostile = vec![
        format!("avfs-kernels v1\ncell X pins {HUGE_COUNT}"),
        format!("{head}order 3\ncell INV_X1 pins 4000000000000\nend\n"),
        format!("{head}order {HUGE_COUNT}\nend\n"),
    ];
    let package = chars.to_package(&library);
    assert_reader_survives(
        "kernels",
        io::write_kernels(&package),
        hostile,
        move |text| {
            io::read_kernels(text).and_then(|package| {
                avfs::delay::CharacterizedLibrary::from_package(&package, &library)
            })
        },
    );
}
