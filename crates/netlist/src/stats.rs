//! Circuit statistics — the "Circuit / Nodes" columns of Table I.

use crate::graph::{Netlist, NodeKind};
use crate::levelize::Levelization;
use std::fmt;

/// Summary statistics of a netlist.
///
/// # Example
///
/// ```
/// use avfs_netlist::{bench, CellLibrary, NetlistStats};
///
/// # fn main() -> Result<(), avfs_netlist::NetlistError> {
/// let lib = CellLibrary::nangate15_like();
/// let c17 = bench::parse_bench("c17", bench::C17_BENCH, &lib, &Default::default())?;
/// let stats = NetlistStats::of(&c17);
/// assert_eq!(stats.nodes, 13);
/// assert_eq!(stats.gates, 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total nodes (inputs + gates + outputs), the paper's "Nodes" metric.
    pub nodes: usize,
    /// Gate count.
    pub gates: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Number of levels including the PI and PO levels.
    pub depth: usize,
    /// Widest level (bound on per-level gate parallelism).
    pub max_level_width: usize,
    /// Largest gate fan-in.
    pub max_fanin: usize,
    /// Largest net fan-out.
    pub max_fanout: usize,
}

impl NetlistStats {
    /// Computes statistics for a netlist.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let levels = Levelization::of(netlist).expect("a netlist always levelizes");
        NetlistStats::with_levels(netlist, &levels)
    }

    /// Computes statistics reusing an existing levelization.
    fn with_levels(netlist: &Netlist, levels: &Levelization) -> NetlistStats {
        let mut gates = 0;
        let mut max_fanin = 0;
        let mut max_fanout = 0;
        for (_, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                gates += 1;
                max_fanin = max_fanin.max(node.fanin().len());
            }
            max_fanout = max_fanout.max(node.fanout().len());
        }
        NetlistStats {
            nodes: netlist.num_nodes(),
            gates,
            inputs: netlist.inputs().len(),
            outputs: netlist.outputs().len(),
            depth: levels.depth(),
            max_level_width: levels.max_width(),
            max_fanin,
            max_fanout,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} gates, {} PI, {} PO), depth {}, widest level {}",
            self.nodes, self.gates, self.inputs, self.outputs, self.depth, self.max_level_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, BenchOptions, C17_BENCH};
    use crate::library::CellLibrary;

    #[test]
    fn c17_stats() {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let s = NetlistStats::of(&n);
        assert_eq!(s.nodes, 13);
        assert_eq!(s.gates, 6);
        assert_eq!(s.inputs, 5);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.depth, 5);
        assert_eq!(s.max_fanin, 2);
        // Net 11 and 16 each drive two sinks.
        assert_eq!(s.max_fanout, 2);
        let shown = s.to_string();
        assert!(shown.contains("13 nodes"));
    }
}
