//! The netlist graph: primary inputs, gates and primary outputs.
//!
//! Every node drives exactly one net, so nets are identified with their
//! driving node. Primary outputs are explicit observation nodes with a
//! single fan-in, matching the paper's node accounting ("cells, inputs and
//! outputs", Table I column 2).

use crate::cell::CellKind;
use crate::library::{CellId, CellLibrary};
use crate::NetlistError;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default extra wire capacitance per fan-out branch, in fF.
pub const WIRE_CAP_PER_FANOUT_FF: f64 = 0.10;

/// Default capacitive load presented by a primary-output port, in fF.
pub const OUTPUT_PORT_CAP_FF: f64 = 2.0;

/// Index of a node (= its driven net) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a raw index.
    ///
    /// Intended for dense per-node arrays (annotations, waveform arenas);
    /// the caller must use indices obtained from the same netlist.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input (stimulus entry point).
    Input,
    /// A logic gate instantiating a library cell.
    Gate(CellId),
    /// Primary output (observation point; single fan-in, no logic).
    Output,
}

/// One node of the netlist graph.
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    kind: NodeKind,
    fanin: Vec<NodeId>,
    fanout: Vec<NodeId>,
}

impl Node {
    /// The node's (unique) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Driving nodes, in pin order.
    pub fn fanin(&self) -> &[NodeId] {
        &self.fanin
    }

    /// Driven nodes.
    pub fn fanout(&self) -> &[NodeId] {
        &self.fanout
    }
}

/// An immutable, validated gate-level netlist.
///
/// Constructed only through [`NetlistBuilder`] or one of the parsers
/// ([`bench`](crate::bench), [`verilog`](crate::verilog)), which go
/// through it, so every netlist holds three invariants by construction:
///
/// 1. **Topological order.** Every fan-in of a node has a smaller
///    [`NodeId`] than the node itself (`add_gate` and `add_output`
///    refuse any other driver), so the graph is acyclic and index order
///    is a topological order.
/// 2. **Arity.** Every gate has exactly as many fan-ins as its library
///    cell has input pins (`add_gate` checks it).
/// 3. **Consistent cross-references.** Every fan-out list is derived
///    from the fan-in lists by [`NetlistBuilder::finish`]: `s` is in
///    `f`'s fan-out exactly as often as `f` is a fan-in of `s`.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: Arc<CellLibrary>,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl Netlist {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell library this netlist instantiates.
    pub fn library(&self) -> &Arc<CellLibrary> {
        &self.library
    }

    /// Total node count (inputs + gates + outputs) — the paper's "Nodes".
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gate nodes.
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Gate(_)))
            .count()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The node for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// A deterministic 64-bit hash of the netlist's structural content:
    /// design name, bound library
    /// ([`CellLibrary::content_hash`]), and every node's name, kind
    /// (gates by cell-type name) and fan-in, plus the input/output
    /// declaration order. Two netlists with equal structure hash
    /// equally regardless of how they were built; any renamed node,
    /// re-typed gate or rewired pin changes the hash. Used as the
    /// netlist half of compiled-artifact cache keys.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.write_str(&self.name);
        h.write_u64(self.library.content_hash());
        h.write_usize(self.nodes.len());
        for node in &self.nodes {
            h.write_str(&node.name);
            match node.kind {
                NodeKind::Input => h.write_usize(0),
                NodeKind::Gate(cell) => {
                    h.write_usize(1);
                    h.write_str(self.library.cell(cell).name());
                }
                NodeKind::Output => h.write_usize(2),
            }
            h.write_usize(node.fanin.len());
            for id in &node.fanin {
                h.write_usize(id.index());
            }
        }
        h.write_usize(self.inputs.len());
        for id in &self.inputs {
            h.write_usize(id.index());
        }
        h.write_usize(self.outputs.len());
        for id in &self.outputs {
            h.write_usize(id.index());
        }
        h.finish()
    }

    /// The library cell of a gate node, or `None` for inputs/outputs.
    pub fn cell_of(&self, id: NodeId) -> Option<&crate::library::Cell> {
        match self.node(id).kind {
            NodeKind::Gate(cell) => Some(self.library.cell(cell)),
            _ => None,
        }
    }

    /// The [`CellKind`] of a gate node.
    pub fn kind_of(&self, id: NodeId) -> Option<CellKind> {
        self.cell_of(id).map(|c| c.kind())
    }

    /// Computes the capacitive load (fF) on every node's output net:
    /// the sum of the fan-out pins' input capacitances, a wire estimate of
    /// [`WIRE_CAP_PER_FANOUT_FF`] per branch, and [`OUTPUT_PORT_CAP_FF`]
    /// for nets observed by a primary output.
    ///
    /// These are the per-net `c` parameters of the operating points; in a
    /// flow with extracted parasitics they are overridden from SPEF data
    /// (see `avfs-sdf`).
    pub fn load_caps_ff(&self) -> Vec<f64> {
        let mut caps = vec![0.0f64; self.nodes.len()];
        for (id, node) in self.iter() {
            let mut load = 0.0;
            for &sink in node.fanout() {
                load += WIRE_CAP_PER_FANOUT_FF;
                match self.node(sink).kind {
                    NodeKind::Gate(cell_id) => {
                        // Which pin of the sink does this net drive?
                        let sink_node = self.node(sink);
                        let pin = sink_node
                            .fanin()
                            .iter()
                            .position(|&f| f == id)
                            .expect("fanout/fanin must be consistent");
                        load += self.library.cell(cell_id).input_pins()[pin].capacitance_ff;
                    }
                    NodeKind::Output => load += OUTPUT_PORT_CAP_FF,
                    NodeKind::Input => unreachable!("inputs have no fanin"),
                }
            }
            caps[id.index()] = load;
        }
        caps
    }
}

/// Incremental, validating netlist constructor — the one way to make a
/// [`Netlist`].
///
/// Nodes must be added before they are referenced: inputs first, then
/// gates and outputs, each over already-added drivers. That makes every
/// netlist it finishes valid by construction (see [`Netlist`]).
pub struct NetlistBuilder {
    name: String,
    library: Arc<CellLibrary>,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl NetlistBuilder {
    /// Starts building a netlist over the given library.
    pub fn new(name: impl Into<String>, library: &Arc<CellLibrary>) -> Self {
        NetlistBuilder {
            name: name.into(),
            library: Arc::clone(library),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    fn add_node(
        &mut self,
        name: String,
        kind: NodeKind,
        fanin: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            kind,
            fanin,
            fanout: Vec::new(),
        });
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let id = self.add_node(name.into(), NodeKind::Input, Vec::new())?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate of library type `cell_name` driven by `fanin` (in pin
    /// order).
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateName`] if the name is taken,
    /// * [`NetlistError::UnknownCell`] if the cell type is not in the
    ///   library,
    /// * [`NetlistError::ArityMismatch`] if `fanin.len()` does not match the
    ///   cell,
    /// * [`NetlistError::InvalidNode`] if a fan-in id is out of bounds.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell_name: &str,
        fanin: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        let name = name.into();
        let cell_id = self.library.require(cell_name)?;
        let cell = self.library.cell(cell_id);
        if cell.num_inputs() != fanin.len() {
            return Err(NetlistError::ArityMismatch {
                gate: name,
                cell: cell_name.to_owned(),
                expected: cell.num_inputs(),
                got: fanin.len(),
            });
        }
        for &f in fanin {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode { index: f.index() });
            }
        }
        self.add_node(name, NodeKind::Gate(cell_id), fanin.to_vec())
    }

    /// Adds a primary output observing `source`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] or
    /// [`NetlistError::InvalidNode`].
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        source: NodeId,
    ) -> Result<NodeId, NetlistError> {
        if source.index() >= self.nodes.len() {
            return Err(NetlistError::InvalidNode {
                index: source.index(),
            });
        }
        let id = self.add_node(name.into(), NodeKind::Output, vec![source])?;
        self.outputs.push(id);
        Ok(id)
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up an already-added node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Finalizes the netlist: derives every node's fan-out list from the
    /// fan-in lists.
    ///
    /// # Errors
    ///
    /// [`NetlistError::EmptyInterface`] without inputs or outputs.
    pub fn finish(mut self) -> Result<Netlist, NetlistError> {
        if self.inputs.is_empty() || self.outputs.is_empty() {
            return Err(NetlistError::EmptyInterface);
        }
        for i in 0..self.nodes.len() {
            // Every fan-in precedes its sink, so it lies in `drivers`.
            let (drivers, rest) = self.nodes.split_at_mut(i);
            for &f in &rest[0].fanin {
                drivers[f.index()].fanout.push(NodeId(i as u32));
            }
        }
        Ok(Netlist {
            name: self.name,
            library: self.library,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
            by_name: self.by_name,
        })
    }
}

impl fmt::Debug for NetlistBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetlistBuilder")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::nangate15_like()
    }

    /// c17-like tiny circuit used across the tests.
    fn small() -> Netlist {
        let lib = lib();
        let mut b = NetlistBuilder::new("small", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let g1 = b.add_gate("g1", "NAND2_X1", &[a, c]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let n = small();
        assert_eq!(n.num_nodes(), 5);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        let g1 = n.find("g1").unwrap();
        assert_eq!(n.node(g1).fanin().len(), 2);
        assert_eq!(n.node(g1).fanout().len(), 1);
        assert_eq!(n.cell_of(g1).unwrap().name(), "NAND2_X1");
        assert!(n.cell_of(n.find("a").unwrap()).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("dup", &lib);
        b.add_input("x").unwrap();
        assert!(matches!(
            b.add_input("x"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("bad", &lib);
        let a = b.add_input("a").unwrap();
        assert!(matches!(
            b.add_gate("g", "NAND2_X1", &[a]),
            Err(NetlistError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("bad", &lib);
        let a = b.add_input("a").unwrap();
        assert!(matches!(
            b.add_gate("g", "NOPE_X1", &[a]),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn empty_interface_rejected() {
        let lib = lib();
        let b = NetlistBuilder::new("empty", &lib);
        assert!(matches!(b.finish(), Err(NetlistError::EmptyInterface)));

        let mut b = NetlistBuilder::new("no_out", &lib);
        b.add_input("a").unwrap();
        assert!(matches!(b.finish(), Err(NetlistError::EmptyInterface)));
    }

    #[test]
    fn fanout_is_consistent_with_fanin() {
        let n = small();
        for (id, node) in n.iter() {
            for &f in node.fanin() {
                assert!(
                    n.node(f).fanout().contains(&id),
                    "fanin {f} of {id} lacks matching fanout"
                );
            }
            for &s in node.fanout() {
                assert!(
                    n.node(s).fanin().contains(&id),
                    "fanout {s} of {id} lacks matching fanin"
                );
            }
        }
    }

    #[test]
    fn load_caps_reflect_fanout() {
        let n = small();
        let caps = n.load_caps_ff();
        let g1 = n.find("g1").unwrap();
        let inv = n.library().cell(n.library().find("INV_X1").unwrap());
        let expected = WIRE_CAP_PER_FANOUT_FF + inv.input_pins()[0].capacitance_ff;
        assert!((caps[g1.index()] - expected).abs() < 1e-12);
        // Net feeding the output port.
        let g2 = n.find("g2").unwrap();
        assert!((caps[g2.index()] - (WIRE_CAP_PER_FANOUT_FF + OUTPUT_PORT_CAP_FF)).abs() < 1e-12);
        // Output node drives nothing.
        let y = n.find("y").unwrap();
        assert_eq!(caps[y.index()], 0.0);
    }

    #[test]
    fn multi_fanout_sums_caps() {
        let lib = lib();
        let mut b = NetlistBuilder::new("fan", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X2", &[g1]).unwrap();
        let g3 = b.add_gate("g3", "INV_X4", &[g1]).unwrap();
        b.add_output("y2", g2).unwrap();
        b.add_output("y3", g3).unwrap();
        let n = b.finish().unwrap();
        let caps = n.load_caps_ff();
        let lib = n.library();
        let c2 = lib.cell(lib.find("INV_X2").unwrap()).input_pins()[0].capacitance_ff;
        let c4 = lib.cell(lib.find("INV_X4").unwrap()).input_pins()[0].capacitance_ff;
        let expected = 2.0 * WIRE_CAP_PER_FANOUT_FF + c2 + c4;
        assert!((caps[n.find("g1").unwrap().index()] - expected).abs() < 1e-12);
    }

    #[test]
    fn invalid_node_reference_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("bad", &lib);
        let _a = b.add_input("a").unwrap();
        let bogus = NodeId(999);
        assert!(matches!(
            b.add_gate("g", "INV_X1", &[bogus]),
            Err(NetlistError::InvalidNode { .. })
        ));
        assert!(matches!(
            b.add_output("y", bogus),
            Err(NetlistError::InvalidNode { .. })
        ));
    }
}
