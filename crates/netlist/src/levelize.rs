//! Topological levelization of a netlist.
//!
//! The parallel simulator processes a circuit level by level: all gates
//! whose fan-ins are fully computed form one *level* and are evaluated
//! concurrently (paper Fig. 3, "structural parallelism in simulation slots
//! through level-wise processing"). This module computes that partition.

use crate::graph::{Netlist, NodeId};
use crate::NetlistError;

/// The level assignment of a netlist.
///
/// Primary inputs are level 0; every other node's level is one more than
/// the maximum level of its fan-ins.
///
/// # Example
///
/// ```
/// use avfs_netlist::{CellLibrary, NetlistBuilder, Levelization};
///
/// # fn main() -> Result<(), avfs_netlist::NetlistError> {
/// let lib = CellLibrary::nangate15_like();
/// let mut b = NetlistBuilder::new("chain", &lib);
/// let a = b.add_input("a")?;
/// let g1 = b.add_gate("g1", "INV_X1", &[a])?;
/// let g2 = b.add_gate("g2", "INV_X1", &[g1])?;
/// b.add_output("y", g2)?;
/// let netlist = b.finish()?;
/// let levels = Levelization::of(&netlist)?;
/// assert_eq!(levels.depth(), 4); // PI, g1, g2, PO
/// assert_eq!(levels.level_of(g2), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    level_of: Vec<u32>,
    levels: Vec<Vec<NodeId>>,
}

impl Levelization {
    /// Computes the levelization of a netlist in one forward pass over
    /// node indices: a [`Netlist`] stores every fan-in before its sink,
    /// so each fan-in's level is final when its sink is reached.
    ///
    /// # Errors
    ///
    /// Never fails: every [`Netlist`] is acyclic by construction. The
    /// `Result` is kept for callers that chain it with `?`.
    pub fn of(netlist: &Netlist) -> Result<Levelization, NetlistError> {
        let mut level_of = vec![0u32; netlist.num_nodes()];
        let mut depth = 0;
        for (id, node) in netlist.iter() {
            let level = node
                .fanin()
                .iter()
                .map(|f| {
                    debug_assert!(f.index() < id.index(), "fan-in {f} after its sink {id}");
                    level_of[f.index()] + 1
                })
                .max()
                .unwrap_or(0);
            level_of[id.index()] = level;
            depth = depth.max(level as usize + 1);
        }
        let mut levels = vec![Vec::new(); depth];
        for (id, _) in netlist.iter() {
            levels[level_of[id.index()] as usize].push(id);
        }
        Ok(Levelization { level_of, levels })
    }

    /// The level of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn level_of(&self, id: NodeId) -> u32 {
        self.level_of[id.index()]
    }

    /// Number of levels (circuit depth including PI and PO levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The nodes of one level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.depth()`.
    pub fn level(&self, level: usize) -> &[NodeId] {
        &self.levels[level]
    }

    /// Iterates over levels in topological order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.levels.iter().map(Vec::as_slice)
    }

    /// All node ids in one flat topological order (level-major).
    pub fn topological_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// The widest level's size — the upper bound on per-level gate
    /// parallelism.
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NetlistBuilder, NodeKind};
    use crate::library::CellLibrary;

    fn diamond() -> Netlist {
        // a ──► g1 ──► g3 ──► y
        //   └─► g2 ──────┘
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("diamond", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "BUF_X1", &[a]).unwrap();
        let g3 = b.add_gate("g3", "NAND2_X1", &[g1, g2]).unwrap();
        b.add_output("y", g3).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_levels() {
        let n = diamond();
        let lv = Levelization::of(&n).expect("acyclic");
        assert_eq!(lv.depth(), 4);
        assert_eq!(lv.level_of(n.find("a").unwrap()), 0);
        assert_eq!(lv.level_of(n.find("g1").unwrap()), 1);
        assert_eq!(lv.level_of(n.find("g2").unwrap()), 1);
        assert_eq!(lv.level_of(n.find("g3").unwrap()), 2);
        assert_eq!(lv.level_of(n.find("y").unwrap()), 3);
        assert_eq!(lv.max_width(), 2);
    }

    #[test]
    fn unbalanced_paths_take_max() {
        // g3's fanins are at levels 1 and 3 → g3 at level 4.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("unbalanced", &lib);
        let a = b.add_input("a").unwrap();
        let fast = b.add_gate("fast", "BUF_X1", &[a]).unwrap();
        let s1 = b.add_gate("s1", "INV_X1", &[a]).unwrap();
        let s2 = b.add_gate("s2", "INV_X1", &[s1]).unwrap();
        let s3 = b.add_gate("s3", "INV_X1", &[s2]).unwrap();
        let j = b.add_gate("j", "AND2_X1", &[fast, s3]).unwrap();
        b.add_output("y", j).unwrap();
        let n = b.finish().unwrap();
        let lv = Levelization::of(&n).expect("acyclic");
        assert_eq!(lv.level_of(n.find("j").unwrap()), 4);
    }

    #[test]
    fn levels_partition_all_nodes() {
        let n = diamond();
        let lv = Levelization::of(&n).expect("acyclic");
        let total: usize = lv.iter().map(<[NodeId]>::len).sum();
        assert_eq!(total, n.num_nodes());
        let ordered: Vec<NodeId> = lv.topological_order().collect();
        assert_eq!(ordered.len(), n.num_nodes());
        // Topological property: every fanin appears before its sink.
        let pos: std::collections::HashMap<NodeId, usize> =
            ordered.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, node) in n.iter() {
            for &f in node.fanin() {
                assert!(pos[&f] < pos[&id]);
            }
        }
    }

    #[test]
    fn inputs_are_level_zero_only() {
        let n = diamond();
        let lv = Levelization::of(&n).expect("acyclic");
        for &id in lv.level(0) {
            assert!(matches!(n.node(id).kind(), NodeKind::Input));
        }
    }
}
