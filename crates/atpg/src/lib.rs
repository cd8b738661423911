//! Test-pattern substrate: transition-delay pattern pairs and
//! timing-aware patterns for the longest paths.
//!
//! The paper's experiments drive each design with "transition delay test
//! patterns … generated using a commercial ATPG-tool. These were topped
//! off with additional timing-aware patterns that target the 200 longest
//! paths in each circuit" (Sec. V). A commercial ATPG is out of scope, so
//! this crate supplies the same *inputs to the simulator*:
//!
//! * [`pattern`] — launch/capture pattern pairs, pseudo-random generation
//!   (seeded `SmallRng` and a classic LFSR PRPG),
//! * [`paths`] — exact K-longest-path enumeration over the annotated (or
//!   unit-delay) netlist,
//! * [`timing_aware`] — best-effort sensitization of those paths: side
//!   inputs are justified toward non-controlling values with bounded
//!   random retry, verified by zero-delay simulation of all of a path's
//!   attempts in one word-parallel pass,
//! * [`fault`] — transition-fault bookkeeping with excitation-coverage
//!   reporting.
//!
//! The last two share a crate-private word-parallel zero-delay simulator
//! that evaluates up to 64 vectors per pass.
//!
//! The fault-grade quality of a commercial tool is irrelevant to the
//! paper's timing/throughput experiments; what matters is pattern *pairs*
//! with realistic switching activity and deliberate pressure on long
//! paths, which this crate provides deterministically (every generator is
//! seeded).

#![forbid(unsafe_code)]

pub mod fault;
pub mod paths;
pub mod pattern;
pub mod timing_aware;
mod zero_delay;

pub use fault::{FaultList, TransitionFault};
pub use paths::{k_longest_paths, Path};
pub use pattern::{Pattern, PatternPair, PatternSet};
pub use timing_aware::generate_timing_aware;

use std::error::Error;
use std::fmt;

/// Errors produced by pattern generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AtpgError {
    /// A pattern's width disagrees with the netlist's input count.
    WidthMismatch {
        /// Inputs the netlist has.
        expected: usize,
        /// Bits the pattern has.
        got: usize,
    },
    /// Path enumeration was asked for zero paths.
    EmptyRequest,
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "pattern width {got} does not match {expected} primary inputs"
                )
            }
            AtpgError::EmptyRequest => write!(f, "requested zero paths/patterns"),
        }
    }
}

impl Error for AtpgError {}

/// Zero-delay logic simulation of one input vector; returns the value of
/// every node. The scalar reference: the event-driven baseline
/// initializes each pair with it, the crate's word-parallel simulator is
/// tested lane by lane against it, and the integration tests cross-check
/// it against the timing simulator's steady state.
pub fn zero_delay_values(
    netlist: &avfs_netlist::Netlist,
    levels: &avfs_netlist::Levelization,
    vector: &pattern::Pattern,
) -> Vec<bool> {
    let mut values = vec![false; netlist.num_nodes()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = vector.bit(k);
    }
    let mut fanin_values: Vec<bool> = Vec::new();
    for id in levels.topological_order() {
        let node = netlist.node(id);
        match node.kind() {
            avfs_netlist::NodeKind::Input => {}
            avfs_netlist::NodeKind::Output => {
                values[id.index()] = values[node.fanin()[0].index()];
            }
            avfs_netlist::NodeKind::Gate(_) => {
                fanin_values.clear();
                fanin_values.extend(node.fanin().iter().map(|f| values[f.index()]));
                let cell = netlist.cell_of(id).expect("gate has a cell");
                values[id.index()] = cell.eval(&fanin_values);
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};
    use avfs_netlist::{CellLibrary, Levelization};

    #[test]
    fn zero_delay_c17_known_vector() {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let levels = Levelization::of(&n).expect("acyclic");
        // All inputs 0: NAND gates with 0 inputs produce 1 → outputs:
        // 10=1, 11=1, 16=NAND(0,1)=1, 19=NAND(1,0)=1, 22=NAND(1,1)=0, 23=0.
        let v = zero_delay_values(&n, &levels, &Pattern::zeros(5));
        assert!(v[n.find("10").unwrap().index()]);
        assert!(v[n.find("11").unwrap().index()]);
        assert!(v[n.find("16").unwrap().index()]);
        assert!(v[n.find("19").unwrap().index()]);
        assert!(!v[n.find("22").unwrap().index()]);
        assert!(!v[n.find("23").unwrap().index()]);
        // PO mirrors its source.
        assert!(!v[n.find("22_po").unwrap().index()]);
    }
}
