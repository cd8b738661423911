//! End-to-end integration: characterization → annotation → simulation,
//! cross-validated between the parallel engine and the event-driven
//! baseline.

use avfs::atpg::{Pattern, PatternPair, PatternSet};
use avfs::circuits::{random_netlist, ripple_carry_adder, GeneratorConfig};
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::{CharacterizedLibrary, StaticModel};
use avfs::netlist::{CellLibrary, Netlist, NodeKind};
use avfs::sim::{phases, slots, CompiledNetlist, EventDrivenSimulator, SimOptions};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::sync::Arc;

fn characterize_for(netlist: &Netlist, library: &Arc<CellLibrary>) -> CharacterizedLibrary {
    let used: Vec<_> = {
        let mut set = BTreeSet::new();
        for (_, node) in netlist.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                set.insert(cell);
            }
        }
        set.into_iter().collect()
    };
    characterize_library(
        library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&used),
    )
    .expect("characterization succeeds")
}

#[test]
fn engine_matches_event_driven_on_adder() {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library).expect("adder builds"));
    let chars = characterize_for(&netlist, &library);
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));

    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(StaticModel::new(*chars.space())),
    )
    .expect("engine builds");
    let baseline = EventDrivenSimulator::new(Arc::clone(&netlist), Arc::clone(&annotation))
        .expect("positive delays");

    let patterns = PatternSet::lfsr(netlist.inputs().len(), 12, 9);
    let slot_list = slots::at_voltage(patterns.len(), 0.8);
    let opts = SimOptions {
        threads: 1,
        keep_waveforms: true,
        ..SimOptions::default()
    };
    let a = engine
        .launch(&patterns, &slot_list, &opts)
        .expect("engine runs");
    let b = baseline
        .run(&patterns, &slot_list, true)
        .expect("baseline runs");
    for (sa, sb) in a.slots.iter().zip(&b.slots) {
        let (wa, wb) = (
            sa.waveforms.as_ref().expect("kept"),
            sb.waveforms.as_ref().expect("kept"),
        );
        for (id, node) in netlist.iter() {
            assert_eq!(
                wa[id.index()],
                wb[id.index()],
                "waveform mismatch at {} pattern {}",
                node.name(),
                sa.spec.pattern
            );
        }
    }
}

#[test]
fn final_values_match_zero_delay_semantics() {
    // The steady state of a glitch-accurate simulation is delay-model
    // independent and must equal the zero-delay evaluation of the capture
    // vector.
    let library = CellLibrary::nangate15_like();
    let cfg = GeneratorConfig {
        nodes: 300,
        inputs: 20,
        outputs: 20,
        depth: 14,
        two_input_fraction: 0.7,
    };
    let netlist = Arc::new(random_netlist("zchk", &cfg, &library, 21).expect("generates"));
    let chars = characterize_for(&netlist, &library);
    let sim = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
        .expect("simulator builds");

    let patterns = PatternSet::random(netlist.inputs().len(), 10, 33);
    let levels = avfs::netlist::Levelization::of(&netlist).expect("acyclic");
    for &voltage in &[0.55, 0.8, 1.1] {
        let run = sim
            .launch(
                &patterns,
                &slots::at_voltage(patterns.len(), voltage),
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .expect("runs");
        for slot in &run.slots {
            let expect = avfs::atpg::zero_delay_values(
                &netlist,
                &levels,
                &patterns.pairs()[slot.spec.pattern].capture,
            );
            for (k, &po) in netlist.outputs().iter().enumerate() {
                assert_eq!(
                    slot.responses[k],
                    expect[po.index()],
                    "response mismatch at {voltage} V, output {k}"
                );
            }
        }
    }
}

/// The determinism matrix on a characterized polynomial model: every
/// combination of worker count and lane width must reproduce the serial
/// scalar run bit for bit, over quiescent, LFSR and fully toggling
/// stimuli. 25 pairs × 2 voltages leave a ragged tail lane group at
/// widths 4 and 8, and every pooled batch is one release of the pool.
#[test]
fn multithreaded_engine_equals_serial() {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(32, &library).expect("adder builds"));
    let chars = characterize_for(&netlist, &library);
    let engine = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
        .expect("engine builds");
    let width = netlist.inputs().len();

    let lfsr = PatternSet::lfsr(width, 25, 4);
    let with_capture = |capture: fn(&Pattern) -> Pattern| -> PatternSet {
        lfsr.pairs()
            .iter()
            .map(|p| PatternPair::new(p.launch.clone(), capture(&p.launch)).expect("same width"))
            .collect()
    };
    let quiet = with_capture(Pattern::clone);
    let busy = with_capture(|launch| Pattern::from_bits(launch.iter().map(|bit| !bit)));

    for (stimuli, patterns) in [("quiet", &quiet), ("lfsr", &lfsr), ("busy", &busy)] {
        let slot_list = slots::cross(patterns.len(), &[0.6, 0.9]);
        let launch = |threads, lanes, profiling| {
            let options = SimOptions {
                threads,
                lanes,
                profiling,
                ..SimOptions::default()
            };
            engine
                .launch(patterns, &slot_list, &options)
                .expect("engine runs")
        };
        let reference = launch(1, 1, false);
        for threads in [1, 2, 8] {
            for lanes in [1, 4, 8] {
                let run = launch(threads, lanes, true);
                let at = format!("{stimuli}: threads={threads} lanes={lanes}");
                assert_eq!(run.slots, reference.slots, "{at}");
                assert_eq!(run.diagnostics, reference.diagnostics, "{at}");
                let profile = run.profile.as_ref().expect("profiling was on");
                let count = |name| profile.counter(name).unwrap_or(0);
                if stimuli == "quiet" {
                    assert_eq!(
                        count(phases::ENGINE_GATES_SKIPPED_QUIET),
                        (netlist.num_gates() * slot_list.len()) as u64,
                        "{at}: quiescent stimuli must skip every gate task"
                    );
                }
                if threads > 1 {
                    assert_eq!(
                        profile.phase(phases::ENGINE_POOL_IDLE).map(|p| p.calls),
                        Some(count(phases::ENGINE_BATCHES)),
                        "{at}: one pool release per batch"
                    );
                }
            }
        }
    }
}

#[test]
fn hot_corner_characterization_slows_the_design() {
    // PVT: characterize the same library at 27 °C and 125 °C; the hot
    // corner's annotated netlist must be slower end to end at full
    // supply (mobility-limited regime).
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
    let characterize_at = |tech: &Technology| {
        characterize_library(&library, tech, &CharacterizationConfig::fast(), Some(&used))
            .expect("characterizes")
    };
    let nom_tech = Technology::nm15();
    let chars_nom = characterize_at(&nom_tech);
    let chars_hot = characterize_at(&nom_tech.at_temperature(125.0));

    let patterns = PatternSet::lfsr(netlist.inputs().len(), 12, 6);
    let opts = SimOptions::default();
    let arrival = |chars: &CharacterizedLibrary| {
        CompiledNetlist::from_characterization(Arc::clone(&netlist), chars)
            .expect("builds")
            .launch(&patterns, &slots::at_voltage(patterns.len(), 1.0), &opts)
            .expect("runs")
            .latest_arrival_at(1.0)
            .expect("toggles")
    };
    let t_nom = arrival(&chars_nom);
    let t_hot = arrival(&chars_hot);
    assert!(
        t_hot > t_nom * 1.05,
        "hot corner must be noticeably slower: {t_hot} vs {t_nom}"
    );
}

#[test]
fn verilog_roundtrip_of_generated_netlists() {
    // Generator → writer → parser round trips preserve structure across
    // random seeds (a fuzz-ish pass over the full netlist tool chain).
    let library = CellLibrary::nangate15_like();
    for seed in 0..6u64 {
        let cfg = GeneratorConfig {
            nodes: 150 + 40 * seed as usize,
            inputs: 12,
            outputs: 12,
            depth: 10,
            two_input_fraction: 0.6 + 0.05 * (seed % 3) as f64,
        };
        let original = random_netlist("fuzz", &cfg, &library, seed).expect("generates");
        let text = avfs::netlist::verilog::write_verilog(&original);
        let reparsed = avfs::netlist::verilog::parse_verilog(&text, &library)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}"));
        assert_eq!(original.num_gates(), reparsed.num_gates(), "seed {seed}");
        assert_eq!(original.inputs().len(), reparsed.inputs().len());
        assert_eq!(original.outputs().len(), reparsed.outputs().len());
        // Every gate keeps its cell type and fan-in names.
        for (id, node) in original.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                let other = reparsed
                    .find(node.name())
                    .unwrap_or_else(|| panic!("seed {seed}: lost gate {}", node.name()));
                assert_eq!(
                    original.cell_of(id).expect("gate").name(),
                    reparsed.cell_of(other).expect("gate").name()
                );
            }
        }
    }
}

#[test]
fn sta_agrees_with_k_longest_path_enumeration() {
    // Two independent implementations of the same definition: the STA DP
    // (avfs-core) and the best-first path enumeration (avfs-atpg) must
    // report the same longest-path length on the same annotation.
    let library = CellLibrary::nangate15_like();
    for seed in [1u64, 2, 3] {
        let cfg = GeneratorConfig {
            nodes: 250,
            inputs: 16,
            outputs: 16,
            depth: 12,
            two_input_fraction: 0.7,
        };
        let netlist = Arc::new(random_netlist("sta_x", &cfg, &library, seed).expect("generates"));
        let chars = characterize_for(&netlist, &library);
        let annotation = chars.annotate(&netlist).expect("annotates");
        let levels = avfs::netlist::Levelization::of(&netlist).expect("acyclic");
        let sta = avfs::sim::sta::longest_path(&netlist, &levels, &annotation);
        let paths = avfs::atpg::k_longest_paths(&netlist, &levels, Some(&annotation), 1);
        assert_eq!(paths.len(), 1);
        assert!(
            (sta.longest_path_ps - paths[0].length).abs() < 1e-6,
            "seed {seed}: STA {} vs enumeration {}",
            sta.longest_path_ps,
            paths[0].length
        );
    }
}

#[test]
fn kernel_persistence_preserves_simulation() {
    // Save the compiled kernels to text, reload them, and verify the
    // restored simulator reproduces arrivals bit-for-bit.
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library).expect("adder"));
    let chars = characterize_for(&netlist, &library);
    let text = avfs::delay::io::write_kernels(&chars.to_package(&library));
    let package = avfs::delay::io::read_kernels(&text).expect("own output parses");
    let restored = avfs::delay::CharacterizedLibrary::from_package(&package, &library)
        .expect("package restores");

    let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 12);
    let opts = SimOptions {
        threads: 1,
        ..SimOptions::default()
    };
    let sim_a =
        CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars).expect("builds");
    let sim_b =
        CompiledNetlist::from_characterization(Arc::clone(&netlist), &restored).expect("builds");
    for &v in &[0.55, 0.8, 1.1] {
        let at_v = slots::at_voltage(patterns.len(), v);
        let a = sim_a.launch(&patterns, &at_v, &opts).expect("runs");
        let b = sim_b.launch(&patterns, &at_v, &opts).expect("runs");
        for (x, y) in a.slots.iter().zip(&b.slots) {
            assert_eq!(x.responses, y.responses);
            assert_eq!(x.latest_output_transition_ps, y.latest_output_transition_ps);
        }
    }
}

#[test]
fn sta_bounds_simulated_arrivals() {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(10, &library).expect("adder builds"));
    let chars = characterize_for(&netlist, &library);
    let sim = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
        .expect("simulator builds");
    let sta = avfs::sim::sta::longest_path(&netlist, sim.levels(), sim.annotation());
    assert!(sta.longest_path_ps > 0.0);
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 24, 77);
    let run = sim
        .launch(
            &patterns,
            &slots::at_voltage(patterns.len(), 0.8),
            &SimOptions::default(),
        )
        .expect("runs");
    let latest = run.latest_arrival_at(0.8).expect("adder toggles");
    // Allow the fit's small nominal deviation on top of the bound.
    assert!(
        latest <= sta.longest_path_ps * 1.02,
        "simulated arrival {latest} exceeds STA bound {}",
        sta.longest_path_ps
    );
}
