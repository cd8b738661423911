//! Word-parallel zero-delay simulation: up to 64 input vectors per pass.
//!
//! [`crate::zero_delay_values`] walks the netlist once per vector with a
//! `bool` per node. Timing-aware generation asks the same question of
//! many vectors at a time — every random-fill attempt of a path — so
//! [`ZeroDelayPlan`] flattens the topological order into compact arrays
//! once and evaluates 64 vectors per `u64` word, one
//! [`LogicFunction::eval_lanes`] call per gate.

use crate::pattern::Pattern;
use avfs_netlist::{CellKind, Levelization, LogicFunction, Netlist, NodeKind};

/// Launch/capture pairs per pass: pair `k` takes lanes `2k` (launch)
/// and `2k + 1` (capture) of the 64-lane word.
pub(crate) const PAIRS_PER_PASS: usize = 32;

/// A netlist's gates in topological order, flattened for word-parallel
/// zero-delay simulation.
///
/// Primary outputs are stored as buffers of their fan-in, so every
/// evaluated node is one function over a CSR fan-in slice.
#[derive(Debug, Clone)]
pub(crate) struct ZeroDelayPlan {
    num_nodes: usize,
    /// Node index of primary input `k`, in pattern bit order.
    inputs: Vec<u32>,
    /// Evaluated nodes (gates and outputs) in topological order.
    nodes: Vec<u32>,
    /// The function of `nodes[i]`.
    functions: Vec<LogicFunction>,
    /// `fanin[fanin_start[i]..fanin_start[i + 1]]` are the fan-in node
    /// indices of `nodes[i]`, in pin order.
    fanin_start: Vec<u32>,
    fanin: Vec<u32>,
}

/// Node indices are stored as `u32`.
fn index32(index: usize) -> u32 {
    u32::try_from(index).expect("node index fits in u32")
}

impl ZeroDelayPlan {
    /// Flattens `netlist` in the topological order of `levels`.
    pub(crate) fn new(netlist: &Netlist, levels: &Levelization) -> ZeroDelayPlan {
        let mut plan = ZeroDelayPlan {
            num_nodes: netlist.num_nodes(),
            inputs: netlist
                .inputs()
                .iter()
                .map(|id| index32(id.index()))
                .collect(),
            nodes: Vec::new(),
            functions: Vec::new(),
            fanin_start: vec![0],
            fanin: Vec::new(),
        };
        for id in levels.topological_order() {
            let node = netlist.node(id);
            let function = match node.kind() {
                NodeKind::Input => continue,
                NodeKind::Output => LogicFunction::Buf,
                NodeKind::Gate(_) => netlist.kind_of(id).expect("gate has a cell").function(),
            };
            plan.nodes.push(index32(id.index()));
            plan.functions.push(function);
            plan.fanin
                .extend(node.fanin().iter().map(|f| index32(f.index())));
            plan.fanin_start.push(index32(plan.fanin.len()));
        }
        plan
    }

    /// Simulates up to 64 vectors at once: afterwards lane `k` of
    /// `words[node]` is the node's zero-delay value under `vectors[k]`
    /// (what [`crate::zero_delay_values`] returns for that vector). Lanes
    /// at and above `vectors.len()` hold unspecified values.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 vectors are given or a vector's width
    /// differs from the netlist's input count.
    pub(crate) fn simulate(&self, vectors: &[&Pattern], words: &mut Vec<u64>) {
        assert!(vectors.len() <= 64, "at most 64 vectors per pass");
        words.clear();
        words.resize(self.num_nodes, 0);
        for (lane, vector) in vectors.iter().enumerate() {
            assert_eq!(
                vector.width(),
                self.inputs.len(),
                "vector width must equal the input count"
            );
            for (w, &bits) in vector.words().iter().enumerate() {
                let mut rest = bits;
                while rest != 0 {
                    let bit = w * 64 + rest.trailing_zeros() as usize;
                    words[self.inputs[bit] as usize] |= 1 << lane;
                    rest &= rest - 1;
                }
            }
        }
        let mut pins = [0u64; CellKind::MAX_INPUTS];
        for (i, (&node, function)) in self.nodes.iter().zip(&self.functions).enumerate() {
            let fanin = &self.fanin[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize];
            for (pin, &f) in pins.iter_mut().zip(fanin) {
                *pin = words[f as usize];
            }
            words[node as usize] = function.eval_lanes(&pins[..fanin.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zero_delay_values;
    use avfs_circuits::{random_netlist, GeneratorConfig};
    use avfs_netlist::{CellLibrary, NetlistBuilder};
    use avfs_prng::{SeedableRng, SmallRng};
    use proptest::prelude::*;

    /// Lane `k` of the plan equals the scalar simulation of vector `k` on
    /// every node.
    fn assert_lanes_match(netlist: &Netlist, count: usize, seed: u64) {
        let levels = Levelization::of(netlist).expect("acyclic");
        let plan = ZeroDelayPlan::new(netlist, &levels);
        let mut rng = SmallRng::seed_from_u64(seed);
        let vectors: Vec<Pattern> = (0..count)
            .map(|_| Pattern::random(netlist.inputs().len(), &mut rng))
            .collect();
        let refs: Vec<&Pattern> = vectors.iter().collect();
        let mut words = Vec::new();
        plan.simulate(&refs, &mut words);
        assert_eq!(words.len(), netlist.num_nodes());
        for (lane, vector) in vectors.iter().enumerate() {
            let scalar = zero_delay_values(netlist, &levels, vector);
            for (node, &value) in scalar.iter().enumerate() {
                assert_eq!(
                    words[node] >> lane & 1 == 1,
                    value,
                    "node {node}, lane {lane} of {count}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn lanes_equal_scalar_simulation_on_random_netlists(
            width in prop::sample::select(vec![1usize, 63, 64, 65, 130]),
            count in 1usize..=64,
            depth in 1usize..10,
            seed in any::<u64>(),
        ) {
            let library = CellLibrary::nangate15_like();
            let config = GeneratorConfig {
                nodes: 2 * width + 40 + 8 * depth,
                inputs: width,
                outputs: 8,
                depth,
                two_input_fraction: 0.6,
            };
            let netlist = random_netlist("lanes", &config, &library, seed).expect("builds");
            assert_lanes_match(&netlist, count, seed ^ 0x9E37);
        }
    }

    #[test]
    fn output_tapping_an_input_mirrors_it() {
        let library = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("tap", &library);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("c").unwrap();
        let g = b.add_gate("g", "NOR2_X1", &[a, c]).unwrap();
        b.add_output("a_po", a).unwrap();
        b.add_output("g_po", g).unwrap();
        let netlist = b.finish().unwrap();
        for count in [1, 4, 64] {
            assert_lanes_match(&netlist, count, count as u64);
        }
    }
}
