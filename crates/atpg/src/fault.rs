//! Transition-fault bookkeeping.
//!
//! A transition (gate-delay) fault assumes one node is slow-to-rise or
//! slow-to-fall. A pattern pair *excites* the fault if the fault-free
//! circuit launches the corresponding transition at the fault site; the
//! excitation coverage of a pattern set is the standard first-order
//! quality metric used to size transition test sets (full detection
//! analysis additionally requires fault-effect propagation, which the
//! small-delay-fault literature the paper cites \[28\] layers on top of
//! exactly this machinery).

use crate::pattern::{Pattern, PatternSet};
use crate::zero_delay::{ZeroDelayPlan, PAIRS_PER_PASS};
use avfs_netlist::{Levelization, Netlist, NodeId, NodeKind};

/// The two transition-fault polarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionFault {
    /// The node is slow to rise (excited by a 0→1 transition).
    SlowToRise,
    /// The node is slow to fall (excited by a 1→0 transition).
    SlowToFall,
}

/// A full transition-fault list with excitation marks.
#[derive(Debug, Clone)]
pub struct FaultList {
    /// `(node, fault)` in deterministic order.
    faults: Vec<(NodeId, TransitionFault)>,
    excited: Vec<bool>,
}

impl FaultList {
    /// Builds the collapsed fault list of a netlist: two faults per gate
    /// and primary input (outputs are observation points and carry no
    /// faults of their own).
    pub fn full(netlist: &Netlist) -> FaultList {
        let mut faults = Vec::new();
        for (id, node) in netlist.iter() {
            if !matches!(node.kind(), NodeKind::Output) {
                faults.push((id, TransitionFault::SlowToRise));
                faults.push((id, TransitionFault::SlowToFall));
            }
        }
        let n = faults.len();
        FaultList {
            faults,
            excited: vec![false; n],
        }
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Marks the faults excited by each pair of `patterns` and returns the
    /// number of *newly* excited faults.
    ///
    /// The pairs are simulated 32 at a time, 64 vectors per word-parallel
    /// zero-delay pass: launch vectors in the even lanes, capture vectors
    /// in the odd ones.
    pub fn mark_excited(
        &mut self,
        netlist: &Netlist,
        levels: &Levelization,
        patterns: &PatternSet,
    ) -> usize {
        const LAUNCH_LANES: u64 = 0x5555_5555_5555_5555;
        let plan = ZeroDelayPlan::new(netlist, levels);
        let mut words = Vec::new();
        let mut newly = 0;
        for chunk in patterns.pairs().chunks(PAIRS_PER_PASS) {
            let lanes: Vec<&Pattern> = chunk
                .iter()
                .flat_map(|pair| [&pair.launch, &pair.capture])
                .collect();
            plan.simulate(&lanes, &mut words);
            let live = LAUNCH_LANES >> (64 - lanes.len());
            for (k, &(node, fault)) in self.faults.iter().enumerate() {
                if self.excited[k] {
                    continue;
                }
                // Bit 2j: pair j's launch value; bit 2j + 1 shifted down
                // onto it: its capture value.
                let (a, b) = (words[node.index()], words[node.index()] >> 1);
                let hits = match fault {
                    TransitionFault::SlowToRise => !a & b,
                    TransitionFault::SlowToFall => a & !b,
                };
                if hits & live != 0 {
                    self.excited[k] = true;
                    newly += 1;
                }
            }
        }
        newly
    }

    /// Number of excited faults so far.
    pub fn excited_count(&self) -> usize {
        self.excited.iter().filter(|&&e| e).count()
    }

    /// Excitation coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 0.0;
        }
        self.excited_count() as f64 / self.faults.len() as f64
    }

    /// Iterates the unexcited faults (for top-off generation).
    pub fn unexcited(&self) -> impl Iterator<Item = (NodeId, TransitionFault)> + '_ {
        self.faults
            .iter()
            .zip(&self.excited)
            .filter(|(_, &e)| !e)
            .map(|(&f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternPair;
    use crate::zero_delay_values;
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};
    use avfs_netlist::CellLibrary;

    fn c17() -> (Netlist, Levelization) {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        (n, l)
    }

    #[test]
    fn fault_list_size() {
        let (n, _) = c17();
        let list = FaultList::full(&n);
        // 5 PIs + 6 gates = 11 sites × 2 polarities.
        assert_eq!(list.len(), 22);
        assert!(!list.is_empty());
        assert_eq!(list.excited_count(), 0);
        assert_eq!(list.coverage(), 0.0);
        assert_eq!(list.unexcited().count(), 22);
    }

    #[test]
    fn identical_vectors_excite_nothing() {
        let (n, l) = c17();
        let mut list = FaultList::full(&n);
        let p = Pattern::zeros(5);
        let set: PatternSet = std::iter::once(PatternPair::new(p.clone(), p).unwrap()).collect();
        assert_eq!(list.mark_excited(&n, &l, &set), 0);
        assert_eq!(list.coverage(), 0.0);
    }

    #[test]
    fn complementary_vectors_excite_all_pi_faults() {
        let (n, l) = c17();
        let mut list = FaultList::full(&n);
        let zeros = Pattern::zeros(5);
        let ones = Pattern::from_bits(std::iter::repeat_n(true, 5));
        let set: PatternSet = [
            PatternPair::new(zeros.clone(), ones.clone()).unwrap(),
            PatternPair::new(ones, zeros).unwrap(),
        ]
        .into_iter()
        .collect();
        list.mark_excited(&n, &l, &set);
        // Every PI sees both a rising and a falling launch.
        let pi_faults_excited = list
            .faults
            .iter()
            .zip(&list.excited)
            .filter(|((id, _), &e)| n.inputs().contains(id) && e)
            .count();
        assert_eq!(pi_faults_excited, 10);
    }

    #[test]
    fn random_patterns_reach_high_excitation() {
        let (n, l) = c17();
        let mut list = FaultList::full(&n);
        let set = PatternSet::random(5, 64, 3);
        let newly = list.mark_excited(&n, &l, &set);
        assert_eq!(newly, list.excited_count());
        assert!(
            list.coverage() > 0.9,
            "64 random pairs should excite most of c17: {}",
            list.coverage()
        );
        // Marking again with the same set adds nothing.
        assert_eq!(list.mark_excited(&n, &l, &set), 0);
    }

    #[test]
    fn word_parallel_marking_equals_the_per_pair_loop() {
        let lib = CellLibrary::nangate15_like();
        let n = avfs_circuits::random_netlist(
            "faults",
            &avfs_circuits::GeneratorConfig::small(),
            &lib,
            0xFA17,
        )
        .unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        // Sparse pairs (one launched input each) leave faults for the
        // second call to find.
        let sparse: PatternSet = PatternSet::random(n.inputs().len(), 100, 11)
            .iter()
            .enumerate()
            .map(|(j, pair)| {
                let mut capture = pair.launch.clone();
                let bit = j % n.inputs().len();
                capture.set_bit(bit, !capture.bit(bit));
                PatternPair::new(pair.launch.clone(), capture).unwrap()
            })
            .collect();
        let mut list = FaultList::full(&n);
        let mut serial = FaultList::full(&n);
        for set in [sparse, PatternSet::random(n.inputs().len(), 100, 12)] {
            // The per-pair loop: two scalar passes per pair, the fault
            // list walked after each.
            let mut serial_newly = 0;
            for pair in &set {
                let v1 = zero_delay_values(&n, &l, &pair.launch);
                let v2 = zero_delay_values(&n, &l, &pair.capture);
                for (k, &(node, fault)) in serial.faults.iter().enumerate() {
                    let (a, b) = (v1[node.index()], v2[node.index()]);
                    let hit = match fault {
                        TransitionFault::SlowToRise => !a && b,
                        TransitionFault::SlowToFall => a && !b,
                    };
                    if hit && !serial.excited[k] {
                        serial.excited[k] = true;
                        serial_newly += 1;
                    }
                }
            }
            assert_eq!(list.mark_excited(&n, &l, &set), serial_newly);
            assert_eq!(list.excited, serial.excited);
        }
        assert!(list.excited_count() > 0 && list.excited_count() < list.len());
    }
}
