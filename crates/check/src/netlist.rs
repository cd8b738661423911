//! Tier 1 — structural lints over [`avfs_netlist::Netlist`].
//!
//! The builder already rejects many malformed graphs at construction
//! time, but netlists also arrive through parsers, unchecked test hooks
//! and (eventually) external tools, so the linter re-proves every
//! structural property the engine's levelized schedule relies on and
//! additionally flags *legal-but-suspect* shapes (dead logic, floating
//! stimuli) that silently skew activity and timing statistics.

use crate::Findings;
use avfs_netlist::{Levelization, Netlist, NetlistError, NodeId, NodeKind};

/// Runs every tier-1 rule over a netlist, writing into `findings`. A
/// clean netlist adds nothing.
///
/// `levels` is a levelization of `netlist` the caller already holds (the
/// engine's compile computes one): it is checked against the level
/// invariant instead of levelizing again. With `None` the netlist is
/// levelized here.
pub fn lint_netlist(netlist: &Netlist, levels: Option<&Levelization>, findings: &mut Findings) {
    lint_arity(netlist, findings);
    lint_graph_consistency(netlist, findings);
    // On a corrupt graph the remaining lints would chase the broken
    // cross-references (levelization in particular walks fan-out lists),
    // so stop at the structural deny — fixing it re-enables the rest.
    if findings.count("AVC-N003") > 0 {
        return;
    }
    match levels {
        Some(levels) => lint_levels(netlist, levels, findings),
        None => lint_levelization(netlist, findings),
    }
    lint_connectivity(netlist, findings);
    lint_duplicate_fanin(netlist, findings);
}

/// AVC-N002: a gate's fan-in count must match its library cell's arity.
/// `NetlistBuilder::add_gate` enforces this, but rewiring hooks and
/// future binary loaders do not.
fn lint_arity(netlist: &Netlist, findings: &mut Findings) {
    for (id, node) in netlist.iter() {
        if let Some(cell) = netlist.cell_of(id) {
            if cell.num_inputs() != node.fanin().len() {
                findings.push("AVC-N002", || {
                    (
                        node.name(),
                        format!(
                            "gate `{}` connects {} input(s) but cell `{}` has {} pin(s)",
                            node.name(),
                            node.fanin().len(),
                            cell.name(),
                            cell.num_inputs()
                        ),
                    )
                });
            }
        }
    }
}

/// AVC-N003: every fan-in edge must have a matching fan-out edge and
/// vice versa — the in-memory expression of "each net has exactly one
/// driver". A mismatch means the graph was corrupted (or a net
/// multi-driven) by an unchecked construction path.
fn lint_graph_consistency(netlist: &Netlist, findings: &mut Findings) {
    for (id, node) in netlist.iter() {
        for (pin, &f) in node.fanin().iter().enumerate() {
            if f.index() >= netlist.num_nodes() {
                findings.push("AVC-N003", || {
                    (
                        node.name(),
                        format!(
                            "pin {pin} of `{}` references out-of-range node index {}",
                            node.name(),
                            f.index()
                        ),
                    )
                });
                continue;
            }
            if !netlist.node(f).fanout().contains(&id) {
                findings.push("AVC-N003", || {
                    (
                        node.name(),
                        format!(
                            "pin {pin} of `{}` reads `{}`, but `{}` has no matching fan-out edge",
                            node.name(),
                            netlist.node(f).name(),
                            netlist.node(f).name()
                        ),
                    )
                });
            }
        }
        for &s in node.fanout() {
            if s.index() >= netlist.num_nodes() || !netlist.node(s).fanin().contains(&id) {
                findings.push("AVC-N003", || {
                    (
                        node.name(),
                        format!(
                            "`{}` lists a fan-out sink without a matching fan-in edge",
                            node.name()
                        ),
                    )
                });
            }
        }
        if matches!(node.kind(), NodeKind::Input) && !node.fanin().is_empty() {
            findings.push("AVC-N003", || {
                (
                    node.name(),
                    format!(
                        "primary input `{}` has fan-in (multi-driven net)",
                        node.name()
                    ),
                )
            });
        }
    }
}

/// AVC-N001 / AVC-N004: the netlist must levelize (reusing the existing
/// combinational-loop witness) and the computed levels must satisfy the
/// level invariant the parallel schedule rests on.
fn lint_levelization(netlist: &Netlist, findings: &mut Findings) {
    match Levelization::of(netlist) {
        Err(NetlistError::CombinationalLoop { nodes }) => {
            findings.push("AVC-N001", || {
                (
                    nodes.first().cloned().unwrap_or_default(),
                    format!("combinational feedback loop: {}", nodes.join(" -> ")),
                )
            });
        }
        Err(other) => {
            findings.push("AVC-N001", || ("", format!("levelization failed: {other}")));
        }
        Ok(levels) => lint_levels(netlist, &levels, findings),
    }
}

/// AVC-N004: checks a *given* levelization against a netlist — every
/// node's level must strictly exceed all of its fan-ins' levels, the
/// precondition for the engine's one-epoch-per-level arena writes.
/// [`lint_netlist`] applies it to the caller's levelization, or to a
/// fresh one (where it holds by construction).
fn lint_levels(netlist: &Netlist, levels: &Levelization, findings: &mut Findings) {
    for (id, node) in netlist.iter() {
        for &f in node.fanin() {
            if levels.level_of(f) >= levels.level_of(id) {
                findings.push("AVC-N004", || {
                    (
                        node.name(),
                        format!(
                            "`{}` (level {}) does not dominate fan-in `{}` (level {})",
                            node.name(),
                            levels.level_of(id),
                            netlist.node(f).name(),
                            levels.level_of(f)
                        ),
                    )
                });
            }
        }
    }
}

/// AVC-N005..N008: connectivity lints — dangling nets, dead cones,
/// floating inputs, undriven gates. One forward and one backward
/// reachability sweep; all legal, all suspicious.
fn lint_connectivity(netlist: &Netlist, findings: &mut Findings) {
    let n = netlist.num_nodes();
    // Forward reachability from primary inputs.
    let mut from_input = vec![false; n];
    let mut stack: Vec<NodeId> = netlist.inputs().to_vec();
    for &i in netlist.inputs() {
        from_input[i.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &s in netlist.node(id).fanout() {
            if !from_input[s.index()] {
                from_input[s.index()] = true;
                stack.push(s);
            }
        }
    }
    // Backward reachability from primary outputs.
    let mut to_output = vec![false; n];
    let mut stack: Vec<NodeId> = netlist.outputs().to_vec();
    for &o in netlist.outputs() {
        to_output[o.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &f in netlist.node(id).fanin() {
            if !to_output[f.index()] {
                to_output[f.index()] = true;
                stack.push(f);
            }
        }
    }
    for (id, node) in netlist.iter() {
        match node.kind() {
            NodeKind::Input => {
                if node.fanout().is_empty() {
                    findings.push("AVC-N007", || {
                        (
                            node.name(),
                            format!("primary input `{}` drives nothing", node.name()),
                        )
                    });
                }
            }
            NodeKind::Gate(_) => {
                if node.fanout().is_empty() {
                    findings.push("AVC-N005", || {
                        (
                            node.name(),
                            format!("output net of gate `{}` has no fan-out", node.name()),
                        )
                    });
                } else if !to_output[id.index()] {
                    // Fanout-free gates are already flagged above; this
                    // catches cones that feed only other dead logic.
                    findings.push("AVC-N006", || {
                        (
                            node.name(),
                            format!("gate `{}` reaches no primary output", node.name()),
                        )
                    });
                }
                if !from_input[id.index()] {
                    findings.push("AVC-N008", || {
                        (
                            node.name(),
                            format!(
                                "gate `{}` is unreachable from every primary input",
                                node.name()
                            ),
                        )
                    });
                }
            }
            NodeKind::Output => {}
        }
    }
}

/// AVC-N009: the same net on several pins of one gate is legal (tests
/// use it to express `NAND(a, a)`) but usually a netlist bug upstream.
fn lint_duplicate_fanin(netlist: &Netlist, findings: &mut Findings) {
    for (_, node) in netlist.iter() {
        let fanin = node.fanin();
        let mut dup: Option<NodeId> = None;
        for (i, &f) in fanin.iter().enumerate() {
            if fanin[..i].contains(&f) {
                dup = Some(f);
                break;
            }
        }
        if let Some(f) = dup {
            findings.push("AVC-N009", || {
                (
                    node.name(),
                    format!(
                        "net `{}` drives more than one pin of `{}`",
                        netlist.node(f).name(),
                        node.name()
                    ),
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Severity};
    use avfs_netlist::{CellLibrary, NetlistBuilder};
    use std::sync::Arc;

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::nangate15_like()
    }

    /// A clean two-gate circuit: the negative fixture for every rule.
    fn clean() -> Netlist {
        let lib = lib();
        let mut b = NetlistBuilder::new("clean", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let g1 = b.add_gate("g1", "NAND2_X1", &[a, c]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        b.finish().unwrap()
    }

    fn lint(netlist: &Netlist, levels: Option<&Levelization>) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_netlist(netlist, levels, &mut findings);
        findings.finish()
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        assert_eq!(lint(&clean(), None), Vec::new());
    }

    #[test]
    fn combinational_loop_reuses_witness() {
        let lib = lib();
        let mut b = NetlistBuilder::new("looped", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "NAND2_X1", &[a, a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        b.rewire_unchecked(g1, 1, g2);
        let findings = lint(&b.finish_unchecked(), None);
        let loops: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N001").collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].severity, Severity::Deny);
        assert!(loops[0].message.contains("g1") && loops[0].message.contains("g2"));
    }

    #[test]
    fn dangling_gate_and_unobservable_cone_flagged() {
        let lib = lib();
        let mut b = NetlistBuilder::new("dead", &lib);
        let a = b.add_input("a").unwrap();
        let live = b.add_gate("live", "INV_X1", &[a]).unwrap();
        // A two-gate dead cone: `feeder` reaches only `sink`, which
        // drives nothing.
        let feeder = b.add_gate("feeder", "BUF_X1", &[a]).unwrap();
        let _sink = b.add_gate("sink", "INV_X1", &[feeder]).unwrap();
        b.add_output("y", live).unwrap();
        let findings = lint(&b.finish().unwrap(), None);
        assert_eq!(rules_of(&findings), vec!["AVC-N005", "AVC-N006"]);
        assert_eq!(findings[0].location, "sink");
        assert_eq!(findings[1].location, "feeder");
    }

    #[test]
    fn unused_input_flagged() {
        let lib = lib();
        let mut b = NetlistBuilder::new("floating", &lib);
        let a = b.add_input("a").unwrap();
        let _unused = b.add_input("unused").unwrap();
        let g = b.add_gate("g", "INV_X1", &[a]).unwrap();
        b.add_output("y", g).unwrap();
        let findings = lint(&b.finish().unwrap(), None);
        assert_eq!(rules_of(&findings), vec!["AVC-N007"]);
        assert_eq!(findings[0].location, "unused");
    }

    #[test]
    fn duplicate_fanin_is_info() {
        let lib = lib();
        let mut b = NetlistBuilder::new("dup", &lib);
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", "NAND2_X1", &[a, a]).unwrap();
        b.add_output("y", g).unwrap();
        let findings = lint(&b.finish().unwrap(), None);
        assert_eq!(rules_of(&findings), vec!["AVC-N009"]);
        assert_eq!(findings[0].severity, Severity::Info);
    }

    #[test]
    fn corrupted_cross_references_flagged() {
        // Clearing one node's fan-out list after assembly leaves its
        // sinks' fan-in edges without a matching counterpart — the
        // in-memory shape of a multi-driven / corrupted net.
        let mut netlist = clean();
        let g1 = netlist.find("g1").unwrap();
        netlist.clear_fanout_unchecked(g1);
        let findings = lint(&netlist, None);
        let integrity: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N003").collect();
        assert!(!integrity.is_empty(), "expected AVC-N003 in {findings:?}");
        assert_eq!(integrity[0].severity, Severity::Deny);
        assert_eq!(integrity[0].location, "g2");
    }

    #[test]
    fn arity_mismatch_flagged() {
        let lib = lib();
        let mut b = NetlistBuilder::new("arity", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let g = b.add_gate("g", "NAND2_X1", &[a, c]).unwrap();
        b.add_output("y", g).unwrap();
        b.pop_fanin_unchecked(g);
        let findings = lint(&b.finish_unchecked(), None);
        let arity: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N002").collect();
        assert_eq!(arity.len(), 1);
        assert_eq!(arity[0].severity, Severity::Deny);
        assert!(arity[0].message.contains("1 input(s)"));
    }

    #[test]
    fn stale_levelization_flagged() {
        // Levels computed for a chain a→g1→g2→y do not satisfy the
        // invariant on a same-size netlist wired a→{g1,g2}→y.
        let lib = lib();
        let mut chain = NetlistBuilder::new("chain", &lib);
        let a = chain.add_input("a").unwrap();
        let g1 = chain.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = chain.add_gate("g2", "INV_X1", &[g1]).unwrap();
        chain.add_output("y", g2).unwrap();
        let chain = chain.finish().unwrap();

        let mut flat = NetlistBuilder::new("flat", &lib);
        let a = flat.add_input("a").unwrap();
        let g1 = flat.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = flat.add_gate("g2", "INV_X1", &[a]).unwrap();
        flat.add_output("y", g2).unwrap();
        let _ = g1;
        let flat = flat.finish().unwrap();

        let chain_levels = Levelization::of(&chain).unwrap();
        let flat_levels = Levelization::of(&flat).unwrap();
        assert_eq!(lint(&chain, Some(&chain_levels)), Vec::new());
        // `flat`'s g2 reads `a` directly; under `chain`'s levels that is
        // fine, but `chain`'s g2 (level 2) read against `flat`'s levels
        // (g2 at level 1, g1 at level 1) breaks the invariant.
        let findings = lint(&chain, Some(&flat_levels));
        assert!(
            findings.iter().any(|f| f.rule == "AVC-N004"),
            "expected AVC-N004 in {findings:?}"
        );
    }

    #[test]
    fn undriven_cone_behind_cycle_flagged() {
        // g1/g2 form a loop that feeds g3: none of them is reachable
        // from a primary input, and the loop itself is AVC-N001.
        let lib = lib();
        let mut b = NetlistBuilder::new("islanded", &lib);
        let a = b.add_input("a").unwrap();
        let live = b.add_gate("live", "INV_X1", &[a]).unwrap();
        let g1 = b.add_gate("g1", "NAND2_X1", &[a, a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        let g3 = b.add_gate("g3", "INV_X1", &[g2]).unwrap();
        b.add_output("y", live).unwrap();
        b.add_output("z", g3).unwrap();
        b.rewire_unchecked(g1, 0, g2);
        b.rewire_unchecked(g1, 1, g2);
        let findings = lint(&b.finish_unchecked(), None);
        let rules = rules_of(&findings);
        assert!(rules.contains(&"AVC-N001"), "loop missing in {rules:?}");
        let undriven: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N008").collect();
        let names: Vec<&str> = undriven.iter().map(|f| f.location.as_str()).collect();
        assert_eq!(names, vec!["g1", "g2", "g3"]);
    }

    #[test]
    fn level_violations_are_capped_once() {
        // A 20-inverter chain checked against the levels of 20 gates
        // fanned out from one input: g1..g19 each read a same-level
        // fan-in, 19 violations of one rule.
        let lib = lib();
        let mut chain = NetlistBuilder::new("chain", &lib);
        let mut flat = NetlistBuilder::new("flat", &lib);
        let a = chain.add_input("a").unwrap();
        flat.add_input("a").unwrap();
        let (mut prev, mut fanned) = (a, a);
        for i in 0..20 {
            prev = chain.add_gate(format!("g{i}"), "INV_X1", &[prev]).unwrap();
            fanned = flat.add_gate(format!("g{i}"), "INV_X1", &[a]).unwrap();
        }
        chain.add_output("y", prev).unwrap();
        flat.add_output("y", fanned).unwrap();
        let chain = chain.finish().unwrap();
        let flat_levels = Levelization::of(&flat.finish().unwrap()).unwrap();
        let findings = lint(&chain, Some(&flat_levels));
        let n004: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N004").collect();
        assert_eq!(n004.len(), crate::MAX_FINDINGS_PER_RULE + 1, "{findings:?}");
        assert!(n004[..8].iter().all(|f| !f.location.is_empty()));
        assert_eq!(
            n004[8].message,
            "11 further `level-invariant` occurrence(s) suppressed (19 total)"
        );
    }

    #[test]
    fn findings_are_capped_per_rule() {
        let lib = lib();
        let mut b = NetlistBuilder::new("many", &lib);
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", "INV_X1", &[a]).unwrap();
        for i in 0..20 {
            b.add_gate(format!("dead{i}"), "INV_X1", &[a]).unwrap();
        }
        b.add_output("y", g).unwrap();
        let findings = lint(&b.finish().unwrap(), None);
        let dangling: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N005").collect();
        assert_eq!(dangling.len(), crate::MAX_FINDINGS_PER_RULE + 1);
        assert!(dangling.last().unwrap().message.contains("12 further"));
    }
}
