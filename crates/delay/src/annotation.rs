//! Per-instance nominal timing annotations.
//!
//! In the paper's flow these come from *standard delay format* files (the
//! nominal pin-to-pin delays) plus *standard parasitics* data (the load
//! capacitances). This module stores them densely indexed by node, as the
//! simulator's "gate description with the nominal delays" that each thread
//! loads into registers (Sec. IV.A, step 1).

use avfs_netlist::{Netlist, NodeId, NodeKind};
use avfs_waveform::PinDelays;

/// Nominal pin-to-pin delays and instance loads for every node of one
/// netlist. Times are picoseconds, loads fF.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnnotation {
    /// `delays[node][pin]` — one rise/fall pair per input pin. Inputs have
    /// no pins; outputs have exactly one (their observation edge, zero by
    /// default).
    delays: Vec<Vec<PinDelays>>,
    /// Output-net load per node, fF.
    loads_ff: Vec<f64>,
}

impl TimingAnnotation {
    /// Creates a zero-delay annotation shaped like `netlist`, with loads
    /// from [`Netlist::load_caps_ff`].
    pub fn zero(netlist: &Netlist) -> TimingAnnotation {
        let delays = netlist
            .nodes()
            .iter()
            .map(|node| vec![PinDelays::default(); node.fanin().len()])
            .collect();
        TimingAnnotation {
            delays,
            loads_ff: netlist.load_caps_ff(),
        }
    }

    /// Creates an annotation from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with each other.
    pub fn from_parts(delays: Vec<Vec<PinDelays>>, loads_ff: Vec<f64>) -> TimingAnnotation {
        assert_eq!(delays.len(), loads_ff.len(), "annotation shape mismatch");
        TimingAnnotation { delays, loads_ff }
    }

    /// A deterministic 64-bit hash of the annotation's content: every
    /// pin's rise/fall delay and every node's load, by IEEE-754 bit
    /// pattern, with shape framing. Used as a corner discriminator in
    /// compiled-artifact cache keys — two annotations for the same
    /// netlist at different corners hash differently.
    pub fn content_hash(&self) -> u64 {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_usize(self.delays.len());
        for pins in &self.delays {
            h.write_usize(pins.len());
            for d in pins {
                h.write_f64(d.rise);
                h.write_f64(d.fall);
            }
        }
        for &load in &self.loads_ff {
            h.write_f64(load);
        }
        h.finish()
    }

    /// Number of annotated nodes.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// `true` if the annotation covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// The nominal rise/fall delays from input `pin` of `node` to its
    /// output, ps.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `pin` is out of range.
    #[inline]
    pub fn pin_delays(&self, node: NodeId, pin: usize) -> PinDelays {
        self.delays[node.index()][pin]
    }

    /// All pin delays of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn node_delays(&self, node: NodeId) -> &[PinDelays] {
        &self.delays[node.index()]
    }

    /// Mutable access for annotators (SDF parser, characterization).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_delays_mut(&mut self, node: NodeId) -> &mut [PinDelays] {
        &mut self.delays[node.index()]
    }

    /// The load on the node's output net, fF.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn load_ff(&self, node: NodeId) -> f64 {
        self.loads_ff[node.index()]
    }

    /// Overrides the load of one net (SPEF annotation path).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_load_ff(&mut self, node: NodeId, load_ff: f64) {
        self.loads_ff[node.index()] = load_ff;
    }

    /// Verifies the annotation covers `netlist` exactly: one entry per
    /// node, one pin pair per fan-in.
    pub fn matches(&self, netlist: &Netlist) -> bool {
        self.delays.len() == netlist.num_nodes()
            && netlist
                .iter()
                .all(|(id, node)| self.delays[id.index()].len() == node.fanin().len())
    }
}

/// Convenience: checks whether a netlist node is a gate (delays apply) or
/// an interface node.
pub fn is_gate(netlist: &Netlist, node: NodeId) -> bool {
    matches!(netlist.node(node).kind(), NodeKind::Gate(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::{CellLibrary, NetlistBuilder};

    fn small() -> Netlist {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let g = b.add_gate("g", "NAND2_X1", &[a, c]).unwrap();
        b.add_output("y", g).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn zero_annotation_shape() {
        let n = small();
        let ann = TimingAnnotation::zero(&n);
        assert!(ann.matches(&n));
        assert_eq!(ann.len(), 4);
        assert!(!ann.is_empty());
        let g = n.find("g").unwrap();
        assert_eq!(ann.node_delays(g).len(), 2);
        assert_eq!(ann.pin_delays(g, 0), PinDelays::default());
        // Loads come from the netlist.
        assert!(ann.load_ff(g) > 0.0);
    }

    #[test]
    fn mutation_roundtrip() {
        let n = small();
        let mut ann = TimingAnnotation::zero(&n);
        let g = n.find("g").unwrap();
        ann.node_delays_mut(g)[1] = PinDelays {
            rise: 12.0,
            fall: 9.0,
        };
        assert_eq!(ann.pin_delays(g, 1).rise, 12.0);
        ann.set_load_ff(g, 42.0);
        assert_eq!(ann.load_ff(g), 42.0);
    }

    #[test]
    fn matches_rejects_wrong_shape() {
        let n = small();
        let ann = TimingAnnotation::from_parts(vec![Vec::new(); 4], vec![0.0; 4]);
        assert!(!ann.matches(&n)); // gate pin lists are empty

        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("other", &lib);
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", "INV_X1", &[a]).unwrap();
        b.add_output("y", g).unwrap();
        let other = b.finish().unwrap();
        let ann = TimingAnnotation::zero(&other);
        assert!(!ann.matches(&n));
    }

    #[test]
    fn is_gate_classifier() {
        let n = small();
        assert!(is_gate(&n, n.find("g").unwrap()));
        assert!(!is_gate(&n, n.find("a").unwrap()));
        assert!(!is_gate(&n, n.find("y").unwrap()));
    }
}
