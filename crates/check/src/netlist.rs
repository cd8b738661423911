//! Tier 1 — structural lints over [`avfs_netlist::Netlist`].
//!
//! A `Netlist` is valid by construction — acyclic, arity-correct,
//! cross-reference-consistent (see its docs) — so these lints do not
//! re-prove structure. They flag *legal-but-suspect* shapes (dead logic,
//! floating stimuli, duplicated fan-in) that silently skew activity and
//! timing statistics.

use crate::Findings;
use avfs_netlist::{Netlist, NodeId, NodeKind};

/// Runs every tier-1 rule over a netlist, writing into `findings`. A
/// clean netlist adds nothing.
pub fn lint_netlist(netlist: &Netlist, findings: &mut Findings) {
    lint_connectivity(netlist, findings);
    lint_duplicate_fanin(netlist, findings);
}

/// AVC-N005..N007: connectivity lints — dangling nets, dead cones,
/// floating inputs. One backward reachability sweep; all legal, all
/// suspicious.
fn lint_connectivity(netlist: &Netlist, findings: &mut Findings) {
    // Backward reachability from primary outputs: one reverse pass, as
    // every fan-in precedes its sink.
    let mut to_output = vec![false; netlist.num_nodes()];
    for &o in netlist.outputs() {
        to_output[o.index()] = true;
    }
    for (i, node) in netlist.nodes().iter().enumerate().rev() {
        if to_output[i] {
            for &f in node.fanin() {
                to_output[f.index()] = true;
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

    fn lint(netlist: &Netlist) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_netlist(netlist, &mut findings);
        findings.finish()
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        assert_eq!(lint(&clean()), Vec::new());
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
        let findings = lint(&b.finish().unwrap());
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
        let findings = lint(&b.finish().unwrap());
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
        let findings = lint(&b.finish().unwrap());
        assert_eq!(rules_of(&findings), vec!["AVC-N009"]);
        assert_eq!(findings[0].severity, Severity::Info);
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
        let findings = lint(&b.finish().unwrap());
        let dangling: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-N005").collect();
        assert_eq!(dangling.len(), crate::MAX_FINDINGS_PER_RULE + 1);
        assert!(dangling.last().unwrap().message.contains("12 further"));
    }
}
