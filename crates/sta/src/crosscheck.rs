//! Pure finding generation for the STA ↔ simulator cross-check
//! (`AVC-T001..T004`).
//!
//! The STA latest arrival is a *sound upper bound*: it is the maximum
//! over all per-pin-transition chains of the same left-fold
//! `t_in + delay` the event kernel performs, over the same delay matrix.
//! A simulated transition later than the bound therefore proves a bug in
//! one of the two engines — `AVC-T001` is Deny, always. `AVC-T002`
//! (divergence beyond ε where agreement is expected, e.g. a sensitized
//! critical path) is equally Deny. The structural warnings `AVC-T003`
//! (endpoint no launch point reaches) and `AVC-T004` (launch point with
//! no outgoing timing arc) mark analysis blind spots, not engine bugs.

use crate::graph::StaReport;
use avfs_check::{Finding, Findings};
use avfs_netlist::Netlist;

/// Default comparison tolerance, ps. The bound comparison needs no slack
/// at all when simulator and STA share one delay matrix (both sides run
/// the identical f64 fold, and `max` is exact); the epsilon only covers
/// independently re-derived delay matrices, and 1e-6 ps is far below any
/// physical delay while far above accumulated f64 noise on paths of
/// realistic depth.
pub const DEFAULT_EPSILON_PS: f64 = 1e-6;

/// `AVC-T001`: the simulator's latest transition arrival exceeds the STA
/// upper bound by more than `epsilon_ps`. Adds nothing when the bound
/// holds (including when the slot saw no transition at all); `location`
/// runs only when the finding is kept.
pub fn bound_finding(
    location: impl FnOnce() -> String,
    sim_latest_ps: Option<f64>,
    sta_latest_ps: f64,
    epsilon_ps: f64,
    findings: &mut Findings,
) {
    let Some(sim) = sim_latest_ps else {
        return;
    };
    if sim <= sta_latest_ps + epsilon_ps {
        return;
    }
    findings.push("AVC-T001", || {
        let message = format!(
            "simulated latest arrival {sim} ps exceeds the STA bound {sta_latest_ps} ps \
             by {} ps (ε = {epsilon_ps} ps)",
            sim - sta_latest_ps
        );
        (location(), message)
    });
}

/// `AVC-T002`: simulator and STA were expected to agree (a sensitized
/// critical path was driven) but diverge by more than `epsilon_ps`.
/// `None` when they agree.
pub fn agreement_finding(
    location: &str,
    sim_latest_ps: f64,
    sta_expected_ps: f64,
    epsilon_ps: f64,
) -> Option<Finding> {
    let gap = (sim_latest_ps - sta_expected_ps).abs();
    if gap <= epsilon_ps {
        return None;
    }
    Some(Finding::new(
        "AVC-T002",
        location,
        format!(
            "simulated arrival {sim_latest_ps} ps diverges from the STA critical-path \
             arrival {sta_expected_ps} ps by {gap} ps (ε = {epsilon_ps} ps)"
        ),
    ))
}

/// `AVC-T003`/`AVC-T004`: structural analysis warnings from one report —
/// unreachable endpoints and unconstrained launch points, located by
/// node name — written into `findings`, which caps them.
pub fn structure_findings(netlist: &Netlist, report: &StaReport, findings: &mut Findings) {
    for &po in &report.unreachable_endpoints {
        findings.push("AVC-T003", || {
            (
                netlist.node(po).name(),
                "endpoint is reached by no launch point: its arrival is undefined and the \
                 simulator can never toggle it",
            )
        });
    }
    for &pi in &report.unconstrained_inputs {
        findings.push("AVC-T004", || {
            (
                netlist.node(pi).name(),
                "launch point has no outgoing timing arc: its stimulus cannot affect any \
                 endpoint",
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;
    use avfs_check::Severity;
    use avfs_netlist::{CellLibrary, Levelization, NetlistBuilder};

    fn bound(sim_latest_ps: Option<f64>) -> Vec<Finding> {
        let mut findings = Findings::default();
        let location = || "c17 @ 0.55 V slot 3".to_owned();
        bound_finding(location, sim_latest_ps, 10.0, 1e-6, &mut findings);
        findings.finish()
    }

    #[test]
    fn bound_violations_are_deny() {
        assert!(bound(None).is_empty());
        assert!(bound(Some(10.0)).is_empty());
        // Within epsilon: tolerated.
        assert!(bound(Some(10.0 + 1e-9)).is_empty());
        let f = &bound(Some(12.0))[0];
        assert_eq!(f.rule, "AVC-T001");
        assert_eq!(f.location, "c17 @ 0.55 V slot 3");
        assert_eq!(f.severity, Severity::Deny);
        assert!(f.message.contains("exceeds the STA bound"), "{}", f.message);
    }

    #[test]
    fn divergence_is_deny_and_symmetric() {
        assert!(agreement_finding("s", 10.0, 10.0, 1e-6).is_none());
        for (sim, sta) in [(12.0, 10.0), (10.0, 12.0)] {
            let f = agreement_finding("s", sim, sta, 1e-6).unwrap();
            assert_eq!(f.rule, "AVC-T002");
            assert_eq!(f.severity, Severity::Deny);
        }
    }

    #[test]
    fn structure_findings_name_nodes() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("w", &lib);
        let a = b.add_input("a").unwrap();
        let _floating = b.add_input("floating").unwrap();
        let g1 = b.add_gate("g1", "BUF_X1", &[a]).unwrap();
        b.add_output("y", g1).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).unwrap();
        let ann = avfs_delay::TimingAnnotation::zero(&n);
        let g = TimingGraph::from_annotation(&n, &levels, &ann).unwrap();
        let mut findings = Findings::default();
        structure_findings(&n, &g.report(0.0), &mut findings);
        let findings = findings.finish();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "AVC-T004");
        assert_eq!(findings[0].severity, Severity::Warn);
        assert_eq!(findings[0].location, "floating");
    }
}
