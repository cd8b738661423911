//! Integration checks of the voltage-dependent timing behaviour — the
//! properties behind Table II.

use avfs::atpg::PatternSet;
use avfs::circuits::{random_netlist, ripple_carry_adder, GeneratorConfig};
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::{AlphaPowerModel, StaticModel};
use avfs::netlist::{CellLibrary, Netlist, NodeKind};
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use avfs::spice::Technology;
use std::collections::BTreeSet;
use std::sync::Arc;

const SWEEP: [f64; 6] = [0.55, 0.6, 0.7, 0.8, 0.9, 1.1];

fn characterized_sim(netlist: &Arc<Netlist>, library: &Arc<CellLibrary>) -> CompiledNetlist {
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
        library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&used),
    )
    .expect("characterization succeeds");
    CompiledNetlist::from_characterization(Arc::clone(netlist), &chars).expect("builds")
}

#[test]
fn arrival_times_fall_monotonically_with_voltage() {
    let library = CellLibrary::nangate15_like();
    for netlist in [
        Arc::new(ripple_carry_adder(8, &library).expect("adder")),
        Arc::new(
            random_netlist(
                "mono",
                &GeneratorConfig {
                    nodes: 400,
                    inputs: 24,
                    outputs: 24,
                    depth: 16,
                    two_input_fraction: 0.7,
                },
                &library,
                5,
            )
            .expect("generates"),
        ),
    ] {
        let sim = characterized_sim(&netlist, &library);
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 2);
        let run = sim
            .launch(
                &patterns,
                &slots::cross(patterns.len(), &SWEEP),
                &SimOptions::default(),
            )
            .expect("sweep runs");
        let arrivals: Vec<f64> = SWEEP
            .iter()
            .map(|&v| run.latest_arrival_at(v).expect("outputs toggle"))
            .collect();
        for w in arrivals.windows(2) {
            assert!(
                w[0] > w[1],
                "{}: arrivals must fall with voltage: {arrivals:?}",
                netlist.name()
            );
        }
        // Non-linear: the low-voltage end is much more sensitive (paper
        // Table II shape). Compare slopes of the first and last segment.
        let low_slope = (arrivals[0] - arrivals[1]) / (SWEEP[1] - SWEEP[0]);
        let high_slope = (arrivals[4] - arrivals[5]) / (SWEEP[5] - SWEEP[4]);
        assert!(
            low_slope > 1.5 * high_slope,
            "{}: expected super-linear low-voltage sensitivity ({low_slope} vs {high_slope})",
            netlist.name()
        );
    }
}

#[test]
fn nominal_parametric_deviation_is_small() {
    // Table II: the parametric simulation at the nominal voltage deviates
    // from the static-delay simulation only by the kernel's fit error.
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library).expect("adder"));
    let sim = characterized_sim(&netlist, &library);
    let static_sim = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(sim.annotation()),
        Arc::new(StaticModel::new(*sim.model().space())),
    )
    .expect("builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 8);
    let opts = SimOptions::default();
    let at_nominal = slots::at_voltage(patterns.len(), 0.8);
    let a = sim.launch(&patterns, &at_nominal, &opts).expect("runs");
    let b = static_sim
        .launch(&patterns, &at_nominal, &opts)
        .expect("runs");
    let (ta, tb) = (
        a.latest_arrival_at(0.8).expect("toggles"),
        b.latest_arrival_at(0.8).expect("toggles"),
    );
    let deviation = (ta - tb).abs() / tb;
    assert!(deviation < 0.02, "nominal deviation {deviation} too large");
    // Responses are identical — delays shift, logic does not.
    for (x, y) in a.slots.iter().zip(&b.slots) {
        assert_eq!(x.responses, y.responses);
    }
}

#[test]
fn alpha_power_baseline_tracks_polynomial_roughly() {
    // The analytical α-power model (load-blind) should agree with the
    // learned polynomial on the big picture while differing in detail —
    // the motivation for learning the surface instead of using Eq. 1.
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library).expect("adder"));
    let sim = characterized_sim(&netlist, &library);
    let tech = Technology::nm15();
    let alpha_sim = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(sim.annotation()),
        Arc::new(AlphaPowerModel::new(
            tech.vth_n,
            tech.alpha,
            *sim.model().space(),
        )),
    )
    .expect("builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 13);
    let opts = SimOptions::default();
    for &v in &[0.55, 0.8, 1.1] {
        let at_v = slots::at_voltage(patterns.len(), v);
        let poly = sim
            .launch(&patterns, &at_v, &opts)
            .expect("runs")
            .latest_arrival_at(v)
            .expect("toggles");
        let alpha = alpha_sim
            .launch(&patterns, &at_v, &opts)
            .expect("runs")
            .latest_arrival_at(v)
            .expect("toggles");
        let ratio = poly / alpha;
        assert!(
            (0.7..1.4).contains(&ratio),
            "at {v} V: polynomial {poly} vs alpha-power {alpha}"
        );
    }
}

#[test]
fn process_variation_shifts_arrivals_modestly() {
    use avfs::sim::{cross_schedules, Launch, MonteCarlo, Schedule, VariationConfig};
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(8, &library).expect("adder"));
    let sim = characterized_sim(&netlist, &library);
    let base_sim = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(sim.annotation()),
        Arc::new(StaticModel::new(*sim.model().space())),
    )
    .expect("builds");
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 2);
    let opts = SimOptions::default();
    let a = base_sim
        .launch(&patterns, &slots::at_voltage(patterns.len(), 0.8), &opts)
        .expect("runs");
    // One die, every pattern at a constant 0.8 V.
    let b = base_sim
        .launch(
            &patterns,
            Launch::Scenarios {
                scenarios: &cross_schedules(patterns.len(), &[Schedule::constant(0.8)]),
                mc: Some(MonteCarlo {
                    samples: 1,
                    variation: VariationConfig::sigma5(99),
                }),
                capture_deadline_ps: None,
            },
            &opts,
        )
        .expect("runs");
    let (ta, tb) = (
        a.latest_arrival_at(0.8).expect("toggles"),
        b.latest_arrival_at(0.8).expect("toggles"),
    );
    let shift = (tb - ta).abs() / ta;
    assert!(shift > 0.0, "variation must move the arrival");
    assert!(
        shift < 0.25,
        "5%-sigma variation shifted arrival by {shift}"
    );
    // Logic is unaffected.
    for (x, y) in a.slots.iter().zip(&b.slots) {
        assert_eq!(x.responses, y.responses);
    }
}

#[test]
fn glitch_activity_is_observed() {
    // Glitch accuracy is the point of time simulation: a reconvergent
    // random circuit must show glitch transitions beyond the functional
    // ones under realistic delays.
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(
        random_netlist(
            "glitchy",
            &GeneratorConfig {
                nodes: 500,
                inputs: 24,
                outputs: 24,
                depth: 18,
                two_input_fraction: 0.75,
            },
            &library,
            17,
        )
        .expect("generates"),
    );
    let sim = characterized_sim(&netlist, &library);
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 16, 3);
    let run = sim
        .launch(
            &patterns,
            &slots::at_voltage(patterns.len(), 0.8),
            &SimOptions::default(),
        )
        .expect("runs");
    let glitches: usize = run
        .slots
        .iter()
        .map(|s| s.activity.total_glitch_transitions)
        .sum();
    assert!(
        glitches > 0,
        "expected glitch activity in a reconvergent circuit"
    );
}
