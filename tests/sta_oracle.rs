//! Integration: the `avfs-sta` static-timing oracle cross-validating
//! the time simulator through the public facade (DESIGN.md §9).
//!
//! Two properties anchor the cross-check:
//!
//! 1. **Bound** — on any netlist, at any characterized supply, the STA
//!    latest arrival dominates every simulated latest output transition
//!    (both engines fold `t + delay(pin, edge)` over one shared delay
//!    matrix, and STA maximizes over all paths).
//! 2. **Agreement** — walking the simulator's realized critical event
//!    chain backwards under the STA arc delays reconstructs a real path
//!    whose STA fold reproduces the simulated arrival bitwise, even on
//!    the false-path-heavy paper profiles.

use avfs::atpg::PatternSet;
use avfs::circuits::{random_netlist, CircuitProfile, GeneratorConfig};
use avfs::delay::characterize::{
    characterize_library, CharacterizationConfig, CharacterizedLibrary,
};
use avfs::delay::OperatingPoint;
use avfs::netlist::{CellLibrary, Netlist, NodeId};
use avfs::sim::sta::{analyze, crosscheck, scaled_graph, CrossCheckOptions};
use avfs::sim::{slots, CompiledNetlist, SimOptions, SlotResult};
use avfs::spice::Technology;
use avfs::sta::TimingGraph;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One characterization shared by every property case — the fitted
/// polynomial kernels are deterministic, so caching them changes
/// nothing but the runtime.
fn shared_characterization() -> &'static CharacterizedLibrary {
    static CHARS: OnceLock<CharacterizedLibrary> = OnceLock::new();
    CHARS.get_or_init(|| {
        let library = CellLibrary::nangate15_like();
        characterize_library(
            &library,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            None,
        )
        .expect("characterization succeeds")
    })
}

/// Compiles a netlist against the shared characterization.
fn compile(netlist: Netlist) -> Arc<CompiledNetlist> {
    let chars = shared_characterization();
    Arc::new(
        CompiledNetlist::from_characterization(Arc::new(netlist), chars).expect("netlist compiles"),
    )
}

proptest! {
    /// The oracle bound on randomized netlists: across shapes, seeds,
    /// and the characterized voltage range, no simulated arrival ever
    /// exceeds the STA latest arrival, and the cross-check emits zero
    /// deny findings.
    #[test]
    fn sta_bound_dominates_randomized_netlists(
        seed in 0u64..1_000_000,
        nodes in 40usize..160,
        depth in 4usize..12,
    ) {
        let config = GeneratorConfig {
            nodes,
            inputs: 10,
            outputs: 8,
            depth,
            two_input_fraction: 0.7,
        };
        let library = CellLibrary::nangate15_like();
        let netlist = random_netlist(&format!("prop-{seed}"), &config, &library, seed)
            .expect("random netlist builds");
        let compiled = compile(netlist);
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 4, seed | 1);
        let run = compiled
            .launch(
                &patterns,
                &slots::cross(patterns.len(), &[0.55, 0.8, 1.1]),
                &SimOptions::default(),
            )
            .expect("launch succeeds");
        let check = crosscheck(&compiled, &run, "prop", &CrossCheckOptions::default())
            .expect("sweep voltages are modelable");
        prop_assert_eq!(check.deny_count(), 0, "findings: {:?}", check.findings);
        for row in &check.rows {
            if let Some(margin) = row.margin_ps {
                prop_assert!(
                    margin >= -check.epsilon_ps,
                    "STA bound breached at {} V: margin {margin} ps",
                    row.voltage
                );
            }
        }
    }
}

/// Walks the realized critical event chain of `slot` backwards from its
/// latest-toggling output: at every gate the last transition must equal
/// a fanin transition plus the STA arc delay for the realized output
/// edge, bitwise. Returns the simulated arrival and the STA fold along
/// the reconstructed chain; `None` if no output toggled or some arc is
/// priced differently by the two engines (which the caller must treat
/// as a failure).
fn realized_chain_fold(
    netlist: &Netlist,
    graph: &TimingGraph<'_>,
    slot: &SlotResult,
) -> Option<(f64, f64)> {
    let t_end = slot.latest_output_transition_ps?;
    let waves = slot.waveforms.as_ref().expect("run keeps waveforms");
    let po = netlist.outputs().iter().copied().max_by(|&a, &b| {
        let last = |id: NodeId| {
            waves[id.index()]
                .last_transition()
                .unwrap_or(f64::NEG_INFINITY)
        };
        last(a).total_cmp(&last(b))
    })?;

    let mut chain = Vec::new();
    let mut edges = Vec::new();
    let mut cur = po;
    let mut t = t_end;
    let mut edge = waves[po.index()].value_at(t);
    loop {
        chain.push(cur);
        edges.push(edge);
        let node = netlist.node(cur);
        if node.fanin().is_empty() {
            break;
        }
        let pins = graph.node_delays(cur);
        let mut matched = None;
        'pins: for (pin, &f) in node.fanin().iter().enumerate() {
            let d = pins[pin].for_output(edge);
            for (tf, vf) in waves[f.index()].iter() {
                if tf + d == t {
                    matched = Some((f, tf, vf));
                    break 'pins;
                }
            }
        }
        let (f, tf, vf) = matched?;
        cur = f;
        t = tf;
        edge = vf;
    }
    chain.reverse();
    edges.reverse();
    let fold = graph
        .path_arrival_with_edges(&chain, &edges, t)
        .expect("the reconstructed chain is a fanin chain by construction");
    Some((t_end, fold))
}

/// The acceptance agreement on p951k: the simulated critical-path
/// arrival is reproduced exactly by the STA fold along the realized
/// event chain. Forward sensitization cannot carry this circuit — its
/// long paths are tens of levels deep and random fill never sensitizes
/// them — so the backward walk is the witness (DESIGN.md §9).
#[test]
fn p951k_critical_path_agrees_with_sta_fold() {
    let library = CellLibrary::nangate15_like();
    let profile = CircuitProfile::find("p951k").expect("profile exists");
    let netlist = profile
        .synthesize(0.002, &library)
        .expect("synthesis succeeds");
    let compiled = compile(netlist);
    let options = CrossCheckOptions::default();
    let voltage = 0.8;
    let graph = scaled_graph(&compiled, voltage).expect("nominal supply is modelable");
    let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 8, 0x5EED);
    let run = compiled
        .launch(
            &patterns,
            &slots::at_voltage(patterns.len(), voltage),
            &SimOptions {
                keep_waveforms: true,
                ..SimOptions::default()
            },
        )
        .expect("launch succeeds");

    // The bound must hold on the paper profile too.
    let check = crosscheck(&compiled, &run, "p951k", &options).expect("modelable");
    assert_eq!(check.deny_count(), 0, "findings: {:?}", check.findings);

    // The worst slot of the run realizes the critical arrival; its
    // event chain must price bitwise under the STA arc delays.
    let slot = run
        .slots
        .iter()
        .filter(|s| s.latest_output_transition_ps.is_some())
        .max_by(|a, b| {
            a.latest_output_transition_ps
                .unwrap()
                .total_cmp(&b.latest_output_transition_ps.unwrap())
        })
        .expect("some output toggles under LFSR stimuli");
    let (sim, fold) = realized_chain_fold(compiled.netlist(), &graph, slot)
        .expect("every realized arc prices under the shared delay matrix");
    assert!(
        (sim - fold).abs() <= options.epsilon_ps,
        "sim {sim} ps vs STA fold {fold} ps exceeds ε = {} ps",
        options.epsilon_ps
    );

    // And the fold is itself bounded by the global STA latest arrival.
    let report = analyze(&compiled, &OperatingPoint::new(voltage, 0.0)).expect("modelable");
    assert!(fold <= report.latest_arrival_ps + options.epsilon_ps);
}
