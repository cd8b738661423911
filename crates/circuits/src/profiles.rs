//! The circuit roster of Tables I and II.
//!
//! For every design the paper evaluates, this module records the published
//! statistics (node count, test-pair count, nominal longest-path delay)
//! and can synthesize a seeded stand-in netlist reproducing the profile's
//! shape at a configurable scale. Scale 1.0 builds the full node count;
//! the performance benches default to a smaller scale so the comparison
//! suite completes on modest hardware (the *relative* results are what
//! the reproduction tracks — see `EXPERIMENTS.md`).

use crate::generate::{random_netlist, GeneratorConfig};
use avfs_netlist::{CellLibrary, Netlist, NetlistError};
use std::sync::Arc;

/// Published statistics of one Table-I/II design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitProfile {
    /// Design name as printed in the paper.
    pub name: &'static str,
    /// Nodes (cells + inputs + outputs), Table I column 2.
    pub nodes: usize,
    /// Transition test pattern pairs, Table I column 3.
    pub test_pairs: usize,
    /// Longest path delay at nominal corner from the paper's STA tool,
    /// Table II column 2, in ps (`None` where the paper prints no value).
    pub longest_path_ps: Option<f64>,
    /// Whether the paper marks the design with `*` (all reported longest
    /// paths were false paths; no timing-aware top-off patterns).
    pub false_paths_only: bool,
}

/// All fifteen designs of Tables I and II, in table order.
pub const PAPER_PROFILES: &[CircuitProfile] = &[
    CircuitProfile {
        name: "s38417",
        nodes: 18_999,
        test_pairs: 173,
        longest_path_ps: Some(145.3),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "s38584",
        nodes: 23_053,
        test_pairs: 194,
        longest_path_ps: Some(610.9),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "b17",
        nodes: 42_779,
        test_pairs: 818,
        longest_path_ps: Some(571.2),
        false_paths_only: true,
    },
    CircuitProfile {
        name: "b18",
        nodes: 125_305,
        test_pairs: 961,
        longest_path_ps: Some(708.7),
        false_paths_only: true,
    },
    CircuitProfile {
        name: "b19",
        nodes: 250_232,
        test_pairs: 1_916,
        longest_path_ps: Some(744.1),
        false_paths_only: true,
    },
    CircuitProfile {
        name: "b22",
        nodes: 27_847,
        test_pairs: 692,
        longest_path_ps: Some(606.2),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p35k",
        nodes: 47_997,
        test_pairs: 3_298,
        longest_path_ps: Some(275.5),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p45k",
        nodes: 44_098,
        test_pairs: 2_320,
        longest_path_ps: Some(2_234.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p100k",
        nodes: 96_172,
        test_pairs: 2_211,
        longest_path_ps: Some(2_234.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p141k",
        nodes: 178_063,
        test_pairs: 995,
        longest_path_ps: Some(640.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p418k",
        nodes: 440_277,
        test_pairs: 1_516,
        longest_path_ps: Some(1_537.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p500k",
        nodes: 527_006,
        test_pairs: 3_820,
        longest_path_ps: Some(660.8),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p533k",
        nodes: 676_611,
        test_pairs: 1_940,
        longest_path_ps: Some(2_348.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p951k",
        nodes: 1_090_419,
        test_pairs: 4_080,
        longest_path_ps: Some(708.0),
        false_paths_only: false,
    },
    CircuitProfile {
        name: "p1522k",
        nodes: 1_088_421,
        test_pairs: 8_021,
        longest_path_ps: None,
        false_paths_only: true,
    },
];

impl CircuitProfile {
    /// Looks up a profile by design name.
    pub fn find(name: &str) -> Option<&'static CircuitProfile> {
        PAPER_PROFILES.iter().find(|p| p.name == name)
    }

    /// Synthesizes a stand-in netlist with this profile's shape at the
    /// given `scale` (1.0 = the paper's node count). Deterministic per
    /// profile: the seed is derived from the design name.
    ///
    /// I/O width scales with the square root of the node count (typical
    /// Rent-style scaling for flat scan designs); depth scales
    /// logarithmically, anchored so the million-node designs get ~60
    /// logic levels.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (degenerate scales only).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive finite number.
    pub fn synthesize(
        &self,
        scale: f64,
        library: &Arc<CellLibrary>,
    ) -> Result<Netlist, NetlistError> {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite"
        );
        let nodes = ((self.nodes as f64 * scale) as usize).max(64);
        let io = ((nodes as f64).sqrt() * 1.2) as usize;
        let inputs = io.clamp(8, 4096);
        let outputs = io.clamp(8, 4096);
        let depth = (8.0 + 3.8 * (nodes as f64).ln()).round() as usize;
        let seed = self.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        let config = GeneratorConfig {
            nodes,
            inputs,
            outputs,
            depth,
            two_input_fraction: 0.72,
        };
        random_netlist(self.name, &config, library, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::NetlistStats;

    #[test]
    fn roster_matches_table_one() {
        assert_eq!(PAPER_PROFILES.len(), 15);
        let s38417 = CircuitProfile::find("s38417").unwrap();
        assert_eq!(s38417.nodes, 18_999);
        assert_eq!(s38417.test_pairs, 173);
        assert!(!s38417.false_paths_only);
        let b17 = CircuitProfile::find("b17").unwrap();
        assert!(b17.false_paths_only);
        let p1522k = CircuitProfile::find("p1522k").unwrap();
        assert_eq!(p1522k.longest_path_ps, None);
        assert!(CircuitProfile::find("nope").is_none());
        // Total nodes ≈ 4.68M, a sanity anchor against typos.
        let total: usize = PAPER_PROFILES.iter().map(|p| p.nodes).sum();
        assert_eq!(total, 4_677_279);
    }

    #[test]
    fn synthesize_small_scale() {
        let lib = CellLibrary::nangate15_like();
        let p = CircuitProfile::find("s38417").unwrap();
        let n = p.synthesize(0.05, &lib).unwrap();
        let stats = NetlistStats::of(&n);
        let target = (p.nodes as f64 * 0.05) as usize;
        assert!(
            (stats.nodes as i64 - target as i64).unsigned_abs() < target as u64 / 5 + 64,
            "nodes {} vs target {target}",
            stats.nodes
        );
        assert_eq!(n.name(), "s38417");
    }

    #[test]
    fn synthesize_deterministic() {
        let lib = CellLibrary::nangate15_like();
        let p = CircuitProfile::find("b17").unwrap();
        let a = p.synthesize(0.01, &lib).unwrap();
        let b = p.synthesize(0.01, &lib).unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        for (id, node) in a.iter() {
            assert_eq!(node.fanin(), b.node(id).fanin());
        }
    }
}
