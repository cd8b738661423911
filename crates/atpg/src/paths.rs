//! Exact K-longest-path enumeration.
//!
//! Implements a best-first backward search (a recursive-enumeration /
//! Eppstein-style scheme specialized to DAGs): partial paths grow from
//! primary outputs toward primary inputs, ranked by the exact upper bound
//! `suffix_length + longest_prefix_to(node)`. Because the bound is exact,
//! paths pop off the heap in globally decreasing length order, so the
//! first K completions are the K longest paths — the "200 longest paths"
//! the paper's timing-aware ATPG targets.

use avfs_delay::TimingAnnotation;
use avfs_netlist::{Levelization, Netlist, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One structural path from a primary input to a primary output.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Nodes from PI to PO inclusive.
    pub nodes: Vec<NodeId>,
    /// Total length: sum of the worst-case pin delays along the path (ps),
    /// or hop count when enumerating with unit delays.
    pub length: f64,
}

impl Path {
    /// The launching primary input.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("paths are non-empty")
    }

    /// The observing primary output.
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }
}

/// The edge delay used for ranking: the worst of the rise/fall pin delays
/// from `fanin_idx` into `node`, or 1 for unit-delay enumeration.
fn edge_delay(annotation: Option<&TimingAnnotation>, node: NodeId, fanin_idx: usize) -> f64 {
    match annotation {
        Some(ann) => {
            let pins = ann.node_delays(node);
            if fanin_idx < pins.len() {
                pins[fanin_idx].max()
            } else {
                0.0
            }
        }
        None => 1.0,
    }
}

/// Enumerates the `k` longest PI→PO paths of `netlist`.
///
/// With `annotation = Some(_)` edges weigh their worst-case annotated pin
/// delay (a static-timing view); with `None` every edge weighs 1
/// (structural depth). Ties break deterministically by node order.
///
/// Returns fewer than `k` paths when the circuit has fewer distinct paths,
/// or when enumeration stops early: it is capped at `k` completions and
/// at `max(128·k, 4096)` heap expansions in total (over all outputs) to
/// bound memory on reconvergent fan-out.
pub fn k_longest_paths(
    netlist: &Netlist,
    levels: &Levelization,
    annotation: Option<&TimingAnnotation>,
    k: usize,
) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    // Longest prefix distance from any PI to each node.
    let mut prefix = vec![0.0f64; netlist.num_nodes()];
    for id in levels.topological_order() {
        let node = netlist.node(id);
        let mut best = 0.0f64;
        for (idx, &f) in node.fanin().iter().enumerate() {
            let cand = prefix[f.index()] + edge_delay(annotation, id, idx);
            best = best.max(cand);
        }
        prefix[id.index()] = best;
    }

    #[derive(Debug)]
    struct Partial {
        bound: f64,
        /// Suffix from this node to the PO (reversed: PO first).
        suffix: Vec<NodeId>,
        node: NodeId,
    }
    impl PartialEq for Partial {
        fn eq(&self, other: &Self) -> bool {
            self.bound == other.bound && self.node == other.node
        }
    }
    impl Eq for Partial {}
    impl PartialOrd for Partial {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Partial {
        fn cmp(&self, other: &Self) -> Ordering {
            self.bound
                .total_cmp(&other.bound)
                .then_with(|| self.node.index().cmp(&other.node.index()).reverse())
        }
    }

    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    for &po in netlist.outputs() {
        heap.push(Partial {
            bound: prefix[po.index()],
            suffix: vec![po],
            node: po,
        });
    }

    let mut paths = Vec::with_capacity(k);
    // Memory/time guard on heavily reconvergent circuits: enough to find
    // k complete paths in practice without letting the heap explode.
    let expansion_budget = k.saturating_mul(128).max(4096);
    let mut expansions = 0usize;
    while let Some(partial) = heap.pop() {
        let node = netlist.node(partial.node);
        if node.fanin().is_empty() {
            // Reached a PI: the suffix is a complete path.
            let mut nodes = partial.suffix.clone();
            nodes.reverse();
            paths.push(Path {
                nodes,
                length: partial.bound,
            });
            if paths.len() >= k {
                break;
            }
            continue;
        }
        expansions += 1;
        if expansions > expansion_budget {
            break;
        }
        let suffix_len = partial.bound - prefix[partial.node.index()];
        for (idx, &f) in node.fanin().iter().enumerate() {
            let d = edge_delay(annotation, partial.node, idx);
            let mut suffix = partial.suffix.clone();
            suffix.push(f);
            heap.push(Partial {
                bound: suffix_len + d + prefix[f.index()],
                suffix,
                node: f,
            });
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};
    use avfs_netlist::{CellLibrary, NetlistBuilder};
    use avfs_waveform::PinDelays;

    fn c17() -> (Netlist, Levelization) {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        (n, l)
    }

    #[test]
    fn unit_delay_longest_path_depth() {
        let (n, l) = c17();
        let paths = k_longest_paths(&n, &l, None, 1);
        assert_eq!(paths.len(), 1);
        // c17's deepest structure: PI → NAND → NAND → NAND → PO = 4 hops.
        assert_eq!(paths[0].length, 4.0);
        assert_eq!(paths[0].nodes.len(), 5);
        // Endpoints are a PI and a PO.
        assert!(n.inputs().contains(&paths[0].source()));
        assert!(n.outputs().contains(&paths[0].sink()));
    }

    #[test]
    fn paths_come_out_sorted_and_distinct() {
        let (n, l) = c17();
        let paths = k_longest_paths(&n, &l, None, 10);
        assert!(paths.len() >= 6, "c17 has many PI→PO paths");
        for w in paths.windows(2) {
            assert!(w[0].length >= w[1].length, "lengths must be non-increasing");
        }
        // All paths distinct.
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert_ne!(paths[i].nodes, paths[j].nodes);
            }
        }
        // Every path is structurally valid.
        for p in &paths {
            for pair in p.nodes.windows(2) {
                assert!(n.node(pair[1]).fanin().contains(&pair[0]));
            }
        }
    }

    #[test]
    fn annotated_delays_reorder_paths() {
        // Two parallel two-gate chains; make the structurally identical
        // second chain much slower via annotation.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("par", &lib);
        let a = b.add_input("a").unwrap();
        let fast1 = b.add_gate("fast1", "BUF_X1", &[a]).unwrap();
        let fast2 = b.add_gate("fast2", "BUF_X1", &[fast1]).unwrap();
        let slow1 = b.add_gate("slow1", "BUF_X1", &[a]).unwrap();
        let slow2 = b.add_gate("slow2", "BUF_X1", &[slow1]).unwrap();
        b.add_output("yf", fast2).unwrap();
        b.add_output("ys", slow2).unwrap();
        let n = b.finish().unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        let mut ann = TimingAnnotation::zero(&n);
        for (name, d) in [
            ("fast1", 1.0),
            ("fast2", 1.0),
            ("slow1", 50.0),
            ("slow2", 50.0),
        ] {
            let id = n.find(name).unwrap();
            ann.node_delays_mut(id)[0] = PinDelays { rise: d, fall: d };
        }
        let paths = k_longest_paths(&n, &l, Some(&ann), 2);
        assert_eq!(paths.len(), 2);
        assert_eq!(n.node(paths[0].sink()).name(), "ys");
        assert!((paths[0].length - 100.0).abs() < 1e-9);
        assert!((paths[1].length - 2.0).abs() < 1e-9);
    }

    #[test]
    fn k_zero_and_k_larger_than_path_count() {
        let (n, l) = c17();
        assert!(k_longest_paths(&n, &l, None, 0).is_empty());
        let all = k_longest_paths(&n, &l, None, 10_000);
        // c17 path count is finite and small; request must not hang or
        // fabricate duplicates.
        assert!(all.len() < 100);
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i].nodes, all[j].nodes);
            }
        }
    }
}
