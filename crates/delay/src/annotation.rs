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
    /// Every node's pin delays end to end, node by node: one rise/fall
    /// pair per input pin. Inputs have no pins; outputs have exactly one
    /// (their observation edge, zero by default).
    delays: Vec<PinDelays>,
    /// Node `i`'s pins are `delays[offsets[i]..offsets[i + 1]]`: one
    /// entry per node plus the end.
    offsets: Vec<usize>,
    /// Output-net load per node, fF.
    loads_ff: Vec<f64>,
}

impl TimingAnnotation {
    /// Creates a zero-delay annotation shaped like `netlist`, with loads
    /// from [`Netlist::load_caps_ff`].
    pub fn zero(netlist: &Netlist) -> TimingAnnotation {
        let offsets = Self::offsets(netlist.nodes().iter().map(|node| node.fanin().len()));
        TimingAnnotation {
            delays: vec![PinDelays::default(); offsets[offsets.len() - 1]],
            offsets,
            loads_ff: netlist.load_caps_ff(),
        }
    }

    /// The running sums of per-node pin counts, starting at 0.
    fn offsets(pins: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(pins.len() + 1);
        offsets.push(0);
        let mut end = 0;
        offsets.extend(pins.map(|n| {
            end += n;
            end
        }));
        offsets
    }

    /// Creates an annotation from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with each other.
    pub fn from_parts(delays: Vec<Vec<PinDelays>>, loads_ff: Vec<f64>) -> TimingAnnotation {
        assert_eq!(delays.len(), loads_ff.len(), "annotation shape mismatch");
        TimingAnnotation {
            offsets: Self::offsets(delays.iter().map(Vec::len)),
            delays: delays.concat(),
            loads_ff,
        }
    }

    /// Node `i`'s span of `delays`.
    #[inline]
    fn pins(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// A deterministic 64-bit hash of the annotation's content: every
    /// pin's rise/fall delay and every node's load, by IEEE-754 bit
    /// pattern, with shape framing. Used as a corner discriminator in
    /// compiled-artifact cache keys — two annotations for the same
    /// netlist at different corners hash differently.
    pub fn content_hash(&self) -> u64 {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_usize(self.len());
        for i in 0..self.len() {
            let pins = &self.delays[self.pins(i)];
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
        self.loads_ff.len()
    }

    /// `true` if the annotation covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.loads_ff.is_empty()
    }

    /// The nominal rise/fall delays from input `pin` of `node` to its
    /// output, ps.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `pin` is out of range.
    #[inline]
    pub fn pin_delays(&self, node: NodeId, pin: usize) -> PinDelays {
        self.node_delays(node)[pin]
    }

    /// All pin delays of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn node_delays(&self, node: NodeId) -> &[PinDelays] {
        &self.delays[self.pins(node.index())]
    }

    /// Mutable access for annotators (SDF parser, characterization).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_delays_mut(&mut self, node: NodeId) -> &mut [PinDelays] {
        let pins = self.pins(node.index());
        &mut self.delays[pins]
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
        self.len() == netlist.num_nodes()
            && netlist
                .iter()
                .all(|(id, node)| self.node_delays(id).len() == node.fanin().len())
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
