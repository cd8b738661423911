//! Voltage sweep of a 16-bit ripple-carry adder — a miniature Table II.
//!
//! Characterizes the cells the adder instantiates, generates transition
//! patterns plus timing-aware patterns for the carry chain, then runs the
//! whole `patterns × voltages` grid in one engine launch and prints the
//! arrival-time row together with the STA bound.
//!
//! ```text
//! cargo run --release --example voltage_sweep
//! ```

use avfs::atpg::timing_aware::{collect_pairs, generate_timing_aware};
use avfs::atpg::{k_longest_paths, PatternSet};
use avfs::circuits::ripple_carry_adder;
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::netlist::{CellLibrary, NodeKind};
use avfs::sim::{cross_schedules, slots, sta, CompiledNetlist, Launch, Schedule, SimOptions};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::Arc;

const VOLTAGES: [f64; 6] = [0.55, 0.6, 0.7, 0.8, 0.9, 1.1];

fn main() -> Result<(), Box<dyn Error>> {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(16, &library)?);
    println!("adder: {}", avfs::netlist::NetlistStats::of(&netlist));

    // Characterize exactly the used cell types.
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

    // Random transition pairs plus timing-aware patterns on the carry
    // chain (the adder's longest paths).
    let mut patterns = PatternSet::random(netlist.inputs().len(), 32, 7);
    let levels = sim.levels();
    let paths = k_longest_paths(&netlist, levels, Some(sim.annotation()), 8);
    println!(
        "longest structural path: {:.1} ps over {} nodes",
        paths[0].length,
        paths[0].nodes.len()
    );
    let outcomes = generate_timing_aware(&netlist, levels, &paths, 16, 3);
    let sensitized = outcomes.iter().filter(|o| o.sensitized).count();
    println!(
        "timing-aware patterns: {sensitized}/{} paths sensitized",
        outcomes.len()
    );
    patterns.extend(collect_pairs(&outcomes).iter().cloned());

    // The whole design-space slice in one launch.
    let run = sim.launch(
        &patterns,
        &slots::cross(patterns.len(), &VOLTAGES),
        &SimOptions::default(),
    )?;
    let nominal_sta = sta::longest_path(&netlist, levels, sim.annotation());
    println!(
        "STA longest path (nominal): {:.1} ps",
        nominal_sta.longest_path_ps
    );
    println!(
        "{:>8} {:>14} {:>12}",
        "V_DD", "latest arrival", "vs nominal"
    );
    let nominal = run.latest_arrival_at(0.8).expect("outputs toggle");
    for v in VOLTAGES {
        let t = run.latest_arrival_at(v).expect("outputs toggle");
        println!(
            "{v:>7.2}V {t:>11.1} ps {:>11.1}%",
            100.0 * (t / nominal - 1.0)
        );
    }
    println!(
        "{} slots in {:?} ({:.1} MEPS)",
        run.slots.len(),
        run.elapsed,
        run.meps()
    );

    // The same grid as time-domain *scenarios*: a constant schedule is
    // bit-identical to the static slot above (DESIGN.md §5), while a
    // supply droop across the critical window stretches arrivals.
    let droop = Schedule::droop(0.8, 0.1, 0.25 * nominal, 0.8 * nominal);
    let scenarios = cross_schedules(patterns.len(), &[Schedule::constant(0.8), droop]);
    let request = Launch::Scenarios {
        scenarios: &scenarios,
        mc: None,
        capture_deadline_ps: None,
    };
    let scheduled = sim.launch(&patterns, request, &SimOptions::default())?;
    let constant_slice = &scheduled.slots[..patterns.len()];
    assert!(
        constant_slice
            .iter()
            .zip(
                &run.slots[run
                    .slots
                    .iter()
                    .position(|s| (s.spec.voltage - 0.8).abs() < 1e-12)
                    .expect("0.8 V slots")..]
            )
            .all(|(a, b)| a.latest_output_transition_ps == b.latest_output_transition_ps),
        "constant schedule must reproduce the static 0.8 V run bit-for-bit"
    );
    let drooped = scheduled.slots[patterns.len()..]
        .iter()
        .filter_map(|s| s.latest_output_transition_ps)
        .fold(0.0f64, f64::max);
    println!(
        "0.8 V with a 100 mV droop over [{:.0}, {:.0}] ps: latest arrival {drooped:.1} ps \
         ({:+.1}% vs the static 0.8 V run)",
        0.25 * nominal,
        0.8 * nominal,
        100.0 * (drooped / nominal - 1.0)
    );
    Ok(())
}
