//! Static timing analysis glue: voltage-scaled oracle runs and the
//! STA ↔ simulator cross-check (DESIGN.md §9).
//!
//! Two analyses live here:
//!
//! * [`longest_path`] — the pessimistic longest *structural* path at the
//!   nominal corner, the "Longest Path" reference of Table II column 2:
//!   it ignores logical sensitizability and takes the worst pin/polarity
//!   delay at every gate.
//! * [`analyze`] / [`crosscheck`] — the per-pin-transition oracle from
//!   `avfs-sta`, run over the *voltage-scaled* delay matrix of one
//!   operating point. [`scaled_graph`] reads that matrix from the
//!   artifact's cached per-supply delay table, the one a launch at the
//!   supply reads, so the oracle's bound and the simulator's arrivals
//!   rest on one shared delay matrix — the premise of the bitwise
//!   `sim ≤ sta` argument in `avfs-sta`'s crate docs.
//!
//! The cross-check compares a finished uniform-voltage [`SimRun`]
//! against the bound per supply voltage and renders the `AVC-T` finding
//! family (`avfs_sta::crosscheck`): a simulated arrival beyond the bound
//! is `AVC-T001` (Deny, always — it proves a bug in one of the two
//! engines), structural blind spots are `AVC-T003`/`AVC-T004` (Warn).

use crate::compile::CompiledNetlist;
use crate::results::SimRun;
use crate::SimError;
use avfs_check::{Finding, Findings, Severity, StaRow, StaSection};
use avfs_delay::op::OperatingPoint;
use avfs_delay::TimingAnnotation;
use avfs_netlist::{Levelization, Netlist, NodeId, NodeKind};
use avfs_sta::crosscheck::{bound_finding, structure_findings, DEFAULT_EPSILON_PS};
use avfs_sta::TimingGraph;
use avfs_waveform::PinDelays;

/// The result of a longest-path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Length of the longest structural path, ps.
    pub longest_path_ps: f64,
    /// The path itself, PI → PO.
    pub critical_path: Vec<NodeId>,
}

/// Computes the longest structural path with worst-case pin delays.
///
/// Gate edges weigh `max(rise, fall)` of the annotated pin delay; PI and
/// PO edges weigh zero.
pub fn longest_path(
    netlist: &Netlist,
    levels: &Levelization,
    annotation: &TimingAnnotation,
) -> StaReport {
    let n = netlist.num_nodes();
    let mut dist = vec![0.0f64; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    for id in levels.topological_order() {
        let node = netlist.node(id);
        let pins = annotation.node_delays(id);
        for (pin, &f) in node.fanin().iter().enumerate() {
            let w = pins.get(pin).map_or(0.0, |d| d.max());
            let cand = dist[f.index()] + w;
            // `>=`-style update on the first fanin keeps the critical path
            // structurally complete even for zero-weight (unannotated)
            // edges.
            if cand > dist[id.index()] || pred[id.index()].is_none() {
                dist[id.index()] = cand;
                pred[id.index()] = Some(f);
            }
        }
    }
    // The worst endpoint among primary outputs.
    let (&end, &length) = netlist
        .outputs()
        .iter()
        .map(|po| (po, &dist[po.index()]))
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("netlists have at least one output");
    let mut critical_path = vec![end];
    let mut cur = end;
    while let Some(p) = pred[cur.index()] {
        critical_path.push(p);
        cur = p;
    }
    critical_path.reverse();
    StaReport {
        longest_path_ps: length,
        critical_path,
    }
}

/// Builds the per-pin-transition [`TimingGraph`] of one compiled
/// artifact at one supply voltage. Every gate's delays are read from the
/// artifact's cached delay table at the supply — built, on first use, by
/// the engine's own delay-initialisation routine (`gate_delays` at the
/// supply's normalized `v_norm`: same normalized point, same
/// polarity-split factors, same non-finite fallback guard) and read
/// verbatim by every uniform launch at that voltage — so a graph built
/// here and a simulator launch at the same voltage price every arc
/// bit-identically, and a supply a launch already priced is not priced
/// again. Non-gate nodes keep their nominal annotation delays (zero for
/// the repo's annotations: the simulator copies primary outputs at zero
/// cost).
///
/// Only the supply axis is taken from `voltage`; the load axis is the
/// artifact's per-node normalized value, exactly as in a launch.
///
/// # Errors
///
/// [`SimError::Model`] when the delay model rejects the operating point.
pub fn scaled_graph(compiled: &CompiledNetlist, voltage: f64) -> Result<TimingGraph<'_>, SimError> {
    let table = compiled.supply_table(voltage)?;
    let mut delays: Vec<Vec<PinDelays>> = compiled
        .netlist
        .iter()
        .map(|(id, node)| match node.kind() {
            NodeKind::Gate(_) => Vec::new(),
            _ => compiled.annotation.node_delays(id).to_vec(),
        })
        .collect();
    for (plan, scaled) in compiled.level_plans.iter().zip(&table.per_level) {
        for (pos, node) in plan.gate_nodes.iter().enumerate() {
            let pins = plan.gate_offsets[pos]..plan.gate_offsets[pos + 1];
            delays[node.index()] = scaled[pins].to_vec();
        }
    }
    Ok(
        TimingGraph::new(&compiled.netlist, &compiled.levels, delays)
            .expect("delay matrix shaped by the netlist itself"),
    )
}

/// Runs the independent STA oracle over `compiled` at one operating
/// point, with arrivals seeded at `t = 0 ps` — where every launch puts
/// its stimulus. Only the supply axis of `point` is used — the load axis
/// is per node, from the artifact's annotation, exactly as in a
/// simulator launch.
///
/// The returned report's `latest_arrival_ps` is a sound upper bound on
/// every [`SlotResult::latest_output_transition_ps`](crate::SlotResult)
/// a uniform launch of this artifact at the same voltage can produce
/// (no Monte Carlo variation, no fault injection — those perturb delays
/// after scaling).
///
/// # Errors
///
/// [`SimError::Model`] when the delay model rejects the operating point.
pub fn analyze(
    compiled: &CompiledNetlist,
    point: &OperatingPoint,
) -> Result<avfs_sta::StaReport, SimError> {
    Ok(scaled_graph(compiled, point.voltage)?.report(0.0))
}

/// Knobs of one [`crosscheck`] comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheckOptions {
    /// Comparison tolerance, ps
    /// ([`DEFAULT_EPSILON_PS`]
    /// by default — see `avfs-sta`'s docs for why the bound itself needs
    /// none).
    pub epsilon_ps: f64,
}

impl Default for CrossCheckOptions {
    fn default() -> CrossCheckOptions {
        CrossCheckOptions {
            epsilon_ps: DEFAULT_EPSILON_PS,
        }
    }
}

/// The outcome of one STA ↔ simulator cross-check: `AVC-T` findings
/// plus the quantitative per-voltage agreement rows that feed the
/// `sta` section of `CHECK_report.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheck {
    /// Rendered findings (`AVC-T001` per violating slot, `AVC-T003`/
    /// `AVC-T004` per structural blind spot), capped per rule.
    pub findings: Vec<Finding>,
    /// One row per distinct supply voltage, in first-appearance order.
    pub rows: Vec<StaRow>,
    /// The tolerance the comparison ran with, ps.
    pub epsilon_ps: f64,
}

impl CrossCheck {
    /// Findings of Deny severity — a healthy flow has zero (the CI
    /// gate's criterion).
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity >= Severity::Deny)
            .count()
    }

    /// The report section this comparison contributes to
    /// `CHECK_report.json` (merge via
    /// [`Report::sta`](avfs_check::Report)).
    pub fn section(&self) -> StaSection {
        StaSection {
            epsilon_ps: self.epsilon_ps,
            rows: self.rows.clone(),
        }
    }
}

/// Cross-validates a finished **uniform-voltage** run against the STA
/// oracle: per distinct slot voltage, the oracle bound is computed once
/// and every completed slot's latest output transition is checked
/// against it (`AVC-T001` on violation); the oracle's structural
/// warnings (`AVC-T003`/`AVC-T004`) are rendered once per circuit.
/// `circuit` labels the findings and rows.
///
/// The run must come from a plain uniform launch
/// ([`CompiledNetlist::launch`], [`Session::run`](crate::Session)) of
/// the same artifact, with no Monte Carlo plan and no armed fault plan:
/// scheduled supplies change delays mid-flight and variation/fault
/// derates perturb them after scaling, so the single-voltage bound does
/// not apply. (Scenario runs are recognizable by
/// [`SimRun::scenario`](crate::SimRun); fault plans are the caller's
/// knowledge.)
///
/// # Errors
///
/// [`SimError::Model`] when the delay model rejects one of the run's
/// voltages.
pub fn crosscheck(
    compiled: &CompiledNetlist,
    run: &SimRun,
    circuit: &str,
    options: &CrossCheckOptions,
) -> Result<CrossCheck, SimError> {
    // Distinct voltages in first-appearance order, keyed by bit pattern
    // (the same identity the engine's delay-table cache uses).
    let mut groups: Vec<(f64, Vec<usize>)> = Vec::new();
    for (i, slot) in run.slots.iter().enumerate() {
        let v = slot.spec.voltage;
        match groups
            .iter_mut()
            .find(|(gv, _)| gv.to_bits() == v.to_bits())
        {
            Some((_, idx)) => idx.push(i),
            None => groups.push((v, vec![i])),
        }
    }
    let mut findings = Findings::default();
    let mut rows = Vec::with_capacity(groups.len());
    for (gi, (voltage, slot_indices)) in groups.iter().enumerate() {
        let report = scaled_graph(compiled, *voltage)?.report(0.0);
        if gi == 0 {
            // Structure is voltage-independent: render the warnings once.
            structure_findings(&compiled.netlist, &report, &mut findings);
        }
        let mut sim_latest: Option<f64> = None;
        for &i in slot_indices {
            let slot = &run.slots[i];
            if !slot.status.is_completed() {
                continue;
            }
            bound_finding(
                || format!("{circuit} @ {voltage} V slot {i}"),
                slot.latest_output_transition_ps,
                report.latest_arrival_ps,
                options.epsilon_ps,
                &mut findings,
            );
            if let Some(t) = slot.latest_output_transition_ps {
                sim_latest = Some(sim_latest.map_or(t, |prev: f64| prev.max(t)));
            }
        }
        rows.push(StaRow {
            circuit: circuit.to_string(),
            voltage: *voltage,
            sta_latest_ps: report.latest_arrival_ps,
            sim_latest_ps: sim_latest,
            margin_ps: sim_latest.map(|s| report.latest_arrival_ps - s),
        });
    }
    Ok(CrossCheck {
        findings: findings.finish(),
        rows,
        epsilon_ps: options.epsilon_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{slots, SimOptions};
    use avfs_atpg::PatternSet;
    use avfs_delay::{ParameterSpace, StaticModel};
    use avfs_netlist::{CellLibrary, NetlistBuilder, NodeKind};
    use std::sync::Arc;

    #[test]
    fn picks_worst_branch() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("y", &lib);
        let a = b.add_input("a").unwrap();
        let fast = b.add_gate("fast", "BUF_X1", &[a]).unwrap();
        let slow1 = b.add_gate("slow1", "INV_X1", &[a]).unwrap();
        let slow2 = b.add_gate("slow2", "INV_X1", &[slow1]).unwrap();
        let join = b.add_gate("join", "AND2_X1", &[fast, slow2]).unwrap();
        b.add_output("y", join).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).expect("acyclic");
        let mut ann = avfs_delay::TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays {
                        rise: 10.0,
                        fall: 12.0,
                    };
                }
            }
        }
        let report = longest_path(&n, &levels, &ann);
        // slow1 + slow2 + join = 3 × 12.
        assert!((report.longest_path_ps - 36.0).abs() < 1e-9);
        let names: Vec<&str> = report
            .critical_path
            .iter()
            .map(|&id| n.node(id).name())
            .collect();
        assert_eq!(names, ["a", "slow1", "slow2", "join", "y"]);
    }

    #[test]
    fn zero_annotation_gives_zero_path() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("z", &lib);
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", "INV_X1", &[a]).unwrap();
        b.add_output("y", g).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).expect("acyclic");
        let ann = avfs_delay::TimingAnnotation::zero(&n);
        let report = longest_path(&n, &levels, &ann);
        assert_eq!(report.longest_path_ps, 0.0);
        assert_eq!(report.critical_path.len(), 3);
    }

    fn compiled_c17() -> Arc<CompiledNetlist> {
        let lib = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::c17(&lib).unwrap());
        let mut ann = avfs_delay::TimingAnnotation::zero(&netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays {
                        rise: 9.0 + pin as f64,
                        fall: 11.0 + pin as f64,
                    };
                }
            }
        }
        Arc::new(
            CompiledNetlist::compile(
                netlist,
                Arc::new(ann),
                Arc::new(StaticModel::new(ParameterSpace::paper())),
            )
            .unwrap(),
        )
    }

    #[test]
    fn scaled_graph_matches_engine_delay_derivation() {
        let compiled = compiled_c17();
        // At two sweep voltages the oracle bound must dominate every
        // simulated arrival — bitwise, per the shared-matrix argument.
        for &v in &[0.55, 0.8] {
            // The graph read from the cached table is the
            // delay-initialisation routine's output, bit for bit.
            let graph = scaled_graph(&compiled, v).unwrap();
            for (id, node) in compiled.netlist().iter() {
                let nominal = compiled.annotation.node_delays(id);
                let mut want = Vec::new();
                if matches!(node.kind(), NodeKind::Gate(_)) {
                    compiled
                        .gate_delays(id, nominal, compiled.v_norm(v), &mut want)
                        .unwrap();
                } else {
                    want.extend_from_slice(nominal);
                }
                let bits = |d: &[PinDelays]| -> Vec<(u64, u64)> {
                    d.iter()
                        .map(|p| (p.rise.to_bits(), p.fall.to_bits()))
                        .collect()
                };
                assert_eq!(
                    bits(graph.node_delays(id)),
                    bits(&want),
                    "{v} V node {id:?}"
                );
            }
            let report = analyze(&compiled, &OperatingPoint::new(v, 1.0)).unwrap();
            assert!(report.latest_arrival_ps.is_finite());
            let patterns = PatternSet::random(compiled.netlist().inputs().len(), 8, 11);
            assert!(patterns.launched_transitions() >= patterns.len());
            let run = compiled
                .launch(
                    &patterns,
                    &slots::at_voltage(patterns.len(), v),
                    &SimOptions {
                        threads: 1,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
            for slot in &run.slots {
                if let Some(t) = slot.latest_output_transition_ps {
                    assert!(
                        t <= report.latest_arrival_ps,
                        "sim {t} ps exceeds STA bound {} ps at {v} V",
                        report.latest_arrival_ps
                    );
                }
            }
        }
    }

    #[test]
    fn lower_voltage_never_tightens_the_bound() {
        let compiled = compiled_c17();
        let slow = analyze(&compiled, &OperatingPoint::new(0.55, 1.0)).unwrap();
        let fast = analyze(&compiled, &OperatingPoint::new(1.1, 1.0)).unwrap();
        assert!(slow.latest_arrival_ps >= fast.latest_arrival_ps);
    }

    #[test]
    fn crosscheck_produces_rows_and_no_deny_findings() {
        let compiled = compiled_c17();
        let patterns = PatternSet::random(compiled.netlist().inputs().len(), 6, 3);
        assert!(patterns.launched_transitions() >= patterns.len());
        let mut slot_list = slots::at_voltage(patterns.len(), 0.8);
        slot_list.extend(slots::at_voltage(patterns.len(), 0.6));
        let run = compiled
            .launch(
                &patterns,
                &slot_list,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let check = crosscheck(&compiled, &run, "c17", &CrossCheckOptions::default()).unwrap();
        assert_eq!(check.deny_count(), 0, "findings: {:?}", check.findings);
        assert_eq!(check.rows.len(), 2);
        assert_eq!(check.rows[0].voltage, 0.8);
        assert_eq!(check.rows[1].voltage, 0.6);
        for row in &check.rows {
            assert_eq!(row.circuit, "c17");
            let margin = row.margin_ps.expect("c17 toggles under random stimuli");
            assert!(margin >= 0.0, "negative margin {margin}");
        }
        let section = check.section();
        assert_eq!(section.epsilon_ps, DEFAULT_EPSILON_PS);
        assert_eq!(section.rows, check.rows);
    }

    #[test]
    fn crosscheck_flags_fabricated_bound_violation() {
        let compiled = compiled_c17();
        let patterns = PatternSet::random(compiled.netlist().inputs().len(), 2, 5);
        assert!(patterns.launched_transitions() >= patterns.len());
        let run = compiled
            .launch(
                &patterns,
                &slots::at_voltage(patterns.len(), 0.8),
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let mut tampered = run.clone();
        tampered.slots[0].latest_output_transition_ps = Some(1e12);
        let check = crosscheck(&compiled, &tampered, "c17", &CrossCheckOptions::default()).unwrap();
        assert_eq!(check.deny_count(), 1);
        assert_eq!(check.findings[0].rule, "AVC-T001");
        assert!(check.findings[0].location.contains("slot 0"));
        assert!(check.rows[0].margin_ps.unwrap() < 0.0);
    }
}
