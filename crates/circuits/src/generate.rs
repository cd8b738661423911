//! Netlist generators: structured arithmetic blocks and seeded random
//! levelized DAGs.

use avfs_netlist::{CellLibrary, Netlist, NetlistBuilder, NetlistError, NodeId};
use avfs_prng::{Rng, SeedableRng, SmallRng};
use std::sync::Arc;

/// Builds an `n`-bit ripple-carry adder (`2n` inputs, `n+1` outputs) from
/// XOR/AND/OR cells — a real arithmetic circuit with a long, genuinely
/// sensitizable carry chain, useful for path-based tests.
///
/// # Errors
///
/// Propagates builder errors (cannot occur with the full library).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_carry_adder(
    bits: usize,
    library: &Arc<CellLibrary>,
) -> Result<Netlist, NetlistError> {
    assert!(bits > 0, "adder must have at least one bit");
    let mut b = NetlistBuilder::new(format!("rca{bits}"), library);
    let a_in: Vec<NodeId> = (0..bits)
        .map(|i| b.add_input(format!("a{i}")))
        .collect::<Result<_, _>>()?;
    let b_in: Vec<NodeId> = (0..bits)
        .map(|i| b.add_input(format!("b{i}")))
        .collect::<Result<_, _>>()?;
    let mut carry: Option<NodeId> = None;
    for i in 0..bits {
        let axb = b.add_gate(format!("axb{i}"), "XOR2_X1", &[a_in[i], b_in[i]])?;
        let aab = b.add_gate(format!("aab{i}"), "AND2_X1", &[a_in[i], b_in[i]])?;
        match carry {
            None => {
                // Half adder at bit 0.
                b.add_output("s0", axb)?;
                carry = Some(aab);
            }
            Some(c) => {
                let sum = b.add_gate(format!("sum{i}"), "XOR2_X1", &[axb, c])?;
                let prop = b.add_gate(format!("prop{i}"), "AND2_X1", &[axb, c])?;
                let cout = b.add_gate(format!("cout{i}"), "OR2_X1", &[aab, prop])?;
                b.add_output(format!("s{i}"), sum)?;
                carry = Some(cout);
            }
        }
    }
    b.add_output("cout", carry.expect("bits > 0"))?;
    b.finish()
}

/// Builds an `n × n` array (schoolbook) multiplier: `2n` inputs,
/// `2n` outputs, built from AND partial products reduced row by row with
/// ripple carry — a deep, heavily reconvergent arithmetic block that
/// stresses glitch handling far more than the adder.
///
/// # Errors
///
/// Propagates builder errors (cannot occur with the full library).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn array_multiplier(bits: usize, library: &Arc<CellLibrary>) -> Result<Netlist, NetlistError> {
    assert!(bits > 0, "multiplier must have at least one bit");
    let mut b = NetlistBuilder::new(format!("mul{bits}"), library);
    let a_in: Vec<NodeId> = (0..bits)
        .map(|i| b.add_input(format!("a{i}")))
        .collect::<Result<_, _>>()?;
    let b_in: Vec<NodeId> = (0..bits)
        .map(|i| b.add_input(format!("b{i}")))
        .collect::<Result<_, _>>()?;

    // Partial products pp[i][j] = a[j] AND b[i].
    let mut pp = vec![vec![NodeId::from_index(0); bits]; bits];
    for (i, &bi) in b_in.iter().enumerate() {
        for (j, &aj) in a_in.iter().enumerate() {
            pp[i][j] = b.add_gate(format!("pp{i}_{j}"), "AND2_X1", &[aj, bi])?;
        }
    }

    // A full adder; returns (sum, carry).
    let mut adder_no = 0usize;
    let mut full_adder = |b: &mut NetlistBuilder,
                          x: NodeId,
                          y: NodeId,
                          cin: Option<NodeId>|
     -> Result<(NodeId, NodeId), NetlistError> {
        let n = adder_no;
        adder_no += 1;
        let axb = b.add_gate(format!("fa{n}_x"), "XOR2_X1", &[x, y])?;
        let aab = b.add_gate(format!("fa{n}_a"), "AND2_X1", &[x, y])?;
        match cin {
            None => Ok((axb, aab)),
            Some(c) => {
                let sum = b.add_gate(format!("fa{n}_s"), "XOR2_X1", &[axb, c])?;
                let prop = b.add_gate(format!("fa{n}_p"), "AND2_X1", &[axb, c])?;
                let cout = b.add_gate(format!("fa{n}_c"), "OR2_X1", &[aab, prop])?;
                Ok((sum, cout))
            }
        }
    };

    // Row-by-row accumulation: acc holds the running sum of the first i
    // rows, aligned at bit 0; out[k] are finished product bits. Indexed
    // loops keep the weight arithmetic (pp[i][j] has weight i+j) legible.
    #[allow(clippy::needless_range_loop)]
    let mut out: Vec<NodeId> = Vec::with_capacity(2 * bits);
    let mut acc: Vec<NodeId> = pp[0].clone();
    #[allow(clippy::needless_range_loop)]
    for i in 1..bits {
        // The lowest live bit of acc is final: it is product bit i-1.
        out.push(acc[0]);
        // Add row i (weight i … i+bits−1) onto acc shifted down by one.
        let mut next: Vec<NodeId> = Vec::with_capacity(bits + 1);
        let mut carry: Option<NodeId> = None;
        for j in 0..bits {
            // acc bit j+1 (if any) + pp[i][j] + carry.
            let x = pp[i][j];
            match acc.get(j + 1).copied() {
                Some(y) => {
                    let (s, c) = full_adder(&mut b, x, y, carry)?;
                    next.push(s);
                    carry = Some(c);
                }
                None => match carry {
                    Some(c) => {
                        let (s, c2) = full_adder(&mut b, x, c, None)?;
                        next.push(s);
                        carry = Some(c2);
                    }
                    None => next.push(x),
                },
            }
        }
        if let Some(c) = carry {
            next.push(c);
        }
        acc = next;
    }
    out.extend(acc);
    for (k, &bit) in out.iter().enumerate().take(2 * bits) {
        b.add_output(format!("p{k}"), bit)?;
    }
    // Pad missing high bits (bits == 1 has exactly 2 outputs already;
    // larger widths always produce 2n bits from the loop above).
    b.finish()
}

/// Configuration of the random levelized-DAG generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Target total node count (inputs + gates + outputs). The generator
    /// lands within a few nodes of this.
    pub nodes: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Target logic depth (number of gate levels).
    pub depth: usize,
    /// Fraction of two-input gates among the gate mix (the rest splits
    /// between inverters/buffers and 3-input gates).
    pub two_input_fraction: f64,
}

impl GeneratorConfig {
    /// A small default: ~200 nodes, depth 12.
    pub fn small() -> GeneratorConfig {
        GeneratorConfig {
            nodes: 200,
            inputs: 16,
            outputs: 16,
            depth: 12,
            two_input_fraction: 0.7,
        }
    }
}

/// Generates a random, connected, levelized combinational netlist.
///
/// Structure mirrors synthesized logic: gates are placed on `depth`
/// levels with a flat size distribution; each gate draws its fan-ins from
/// recent levels with locality bias (80 % from the previous three levels).
/// The primary outputs tap the last level, then random earlier gates when
/// the last level is narrower than the output count; a gate that no later
/// gate reads and no output taps is left in place, so dead cones remain.
/// Deterministic per seed.
///
/// # Errors
///
/// Propagates builder errors (only possible for degenerate configs, e.g.
/// zero inputs).
pub fn random_netlist(
    name: &str,
    config: &GeneratorConfig,
    library: &Arc<CellLibrary>,
    seed: u64,
) -> Result<Netlist, NetlistError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(name, library);

    let pis: Vec<NodeId> = (0..config.inputs.max(1))
        .map(|i| b.add_input(format!("pi{i}")))
        .collect::<Result<_, _>>()?;

    let gate_budget = config
        .nodes
        .saturating_sub(config.inputs + config.outputs)
        .max(1);
    let depth = config.depth.max(1);
    let per_level = (gate_budget / depth).max(1);

    // levels[l] holds the gate (or PI) ids available as fan-in sources.
    let mut levels: Vec<Vec<NodeId>> = vec![pis.clone()];
    let mut gate_no = 0usize;
    let mut placed = 0usize;
    while placed < gate_budget {
        let level_index = levels.len();
        let count = per_level.min(gate_budget - placed).max(1);
        let mut this_level = Vec::with_capacity(count);
        for _ in 0..count {
            // Pick arity by the configured mix.
            let roll: f64 = rng.gen();
            let arity = if roll < config.two_input_fraction {
                2
            } else if roll < config.two_input_fraction + 0.15 {
                1
            } else {
                3
            };
            let cell = pick_cell(&mut rng, arity);
            let mut fanin = Vec::with_capacity(arity);
            for k in 0..arity {
                // Locality: mostly the previous few levels; first fan-in
                // always from the immediately preceding level to enforce
                // the target depth.
                let src_level = if k == 0 {
                    level_index - 1
                } else if rng.gen::<f64>() < 0.8 {
                    level_index.saturating_sub(1 + rng.gen_range(0..3usize))
                } else {
                    rng.gen_range(0..level_index)
                };
                let pool = &levels[src_level.min(levels.len() - 1)];
                fanin.push(pool[rng.gen_range(0..pool.len())]);
            }
            let id = b.add_gate(format!("g{gate_no}"), cell, &fanin)?;
            gate_no += 1;
            this_level.push(id);
        }
        placed += this_level.len();
        levels.push(this_level);
    }

    // Outputs: observe the last level first, then random earlier gates;
    // gates neither read nor observed stay as dead cones.
    let last = levels.last().expect("at least the PI level").clone();
    let mut po_no = 0usize;
    for src in last.into_iter().take(config.outputs.max(1)) {
        b.add_output(format!("po{po_no}"), src)?;
        po_no += 1;
    }
    // If the last level was narrower than the requested PO count, tap
    // random earlier gates.
    while po_no < config.outputs.max(1) {
        let lvl = rng.gen_range(1..levels.len());
        let pool = &levels[lvl];
        let src = pool[rng.gen_range(0..pool.len())];
        b.add_output(format!("po{po_no}"), src)?;
        po_no += 1;
    }
    b.finish()
}

fn pick_cell(rng: &mut SmallRng, arity: usize) -> &'static str {
    match arity {
        1 => {
            if rng.gen::<f64>() < 0.7 {
                "INV_X1"
            } else {
                "BUF_X1"
            }
        }
        2 => match rng.gen_range(0..6u8) {
            0 => "NAND2_X1",
            1 => "NOR2_X1",
            2 => "AND2_X1",
            3 => "OR2_X1",
            4 => "XOR2_X1",
            _ => "NAND2_X2",
        },
        _ => match rng.gen_range(0..4u8) {
            0 => "NAND3_X1",
            1 => "NOR3_X1",
            2 => "AOI21_X1",
            _ => "OAI21_X1",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::{Levelization, NetlistStats};

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::nangate15_like()
    }

    #[test]
    fn adder_shape() {
        let n = ripple_carry_adder(8, &lib()).unwrap();
        assert_eq!(n.inputs().len(), 16);
        assert_eq!(n.outputs().len(), 9);
        // Full adders: 5 gates each except the half adder (2).
        assert_eq!(n.num_gates(), 2 + 7 * 5);
        // Carry chain forces depth ≳ bit count.
        let stats = NetlistStats::of(&n);
        assert!(
            stats.depth > 8,
            "depth {} too shallow for a ripple carry",
            stats.depth
        );
    }

    #[test]
    fn adder_is_correct_combinationally() {
        // Check the adder's zero-delay function on a few vectors via the
        // cell truth tables (poor man's functional test).
        use avfs_netlist::NodeKind;
        let n = ripple_carry_adder(4, &lib()).unwrap();
        let levels = Levelization::of(&n).expect("acyclic");
        let add = |a: u8, c: u8| -> u16 {
            let mut values = vec![false; n.num_nodes()];
            for (k, &pi) in n.inputs().iter().enumerate() {
                let bit = if k < 4 {
                    (a >> k) & 1 == 1
                } else {
                    (c >> (k - 4)) & 1 == 1
                };
                values[pi.index()] = bit;
            }
            let mut buf = Vec::new();
            for id in levels.topological_order() {
                let node = n.node(id);
                match node.kind() {
                    NodeKind::Input => {}
                    NodeKind::Output => values[id.index()] = values[node.fanin()[0].index()],
                    NodeKind::Gate(_) => {
                        buf.clear();
                        buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                        values[id.index()] = n.cell_of(id).expect("gate").eval(&buf);
                    }
                }
            }
            let mut sum = 0u16;
            for (k, &po) in n.outputs().iter().enumerate() {
                if values[po.index()] {
                    sum |= 1 << k;
                }
            }
            sum
        };
        for (a, c) in [(0u8, 0u8), (1, 1), (7, 9), (15, 15), (5, 10)] {
            // Outputs: s0..s3 then cout, in declaration order.
            let expect = (a as u16 + c as u16) & 0x1f;
            assert_eq!(add(a, c), expect, "{a}+{c}");
        }
    }

    #[test]
    fn multiplier_is_functionally_correct() {
        use avfs_netlist::NodeKind;
        let n = array_multiplier(4, &lib()).unwrap();
        assert_eq!(n.inputs().len(), 8);
        assert_eq!(n.outputs().len(), 8);
        let levels = Levelization::of(&n).expect("acyclic");
        let multiply = |a: u8, c: u8| -> u16 {
            let mut values = vec![false; n.num_nodes()];
            for (k, &pi) in n.inputs().iter().enumerate() {
                values[pi.index()] = if k < 4 {
                    (a >> k) & 1 == 1
                } else {
                    (c >> (k - 4)) & 1 == 1
                };
            }
            let mut buf = Vec::new();
            for id in levels.topological_order() {
                let node = n.node(id);
                match node.kind() {
                    NodeKind::Input => {}
                    NodeKind::Output => values[id.index()] = values[node.fanin()[0].index()],
                    NodeKind::Gate(_) => {
                        buf.clear();
                        buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                        values[id.index()] = n.cell_of(id).expect("gate").eval(&buf);
                    }
                }
            }
            let mut p = 0u16;
            for (k, &po) in n.outputs().iter().enumerate() {
                if values[po.index()] {
                    p |= 1 << k;
                }
            }
            p
        };
        for a in 0..16u8 {
            for c in 0..16u8 {
                assert_eq!(multiply(a, c), (a as u16) * (c as u16), "{a}*{c}");
            }
        }
    }

    #[test]
    fn multiplier_one_bit_degenerate() {
        let n = array_multiplier(1, &lib()).unwrap();
        assert_eq!(n.inputs().len(), 2);
        // 1×1 multiplier: p0 = a·b, p1 = 0? The schoolbook array emits
        // only the single AND; output count is the accumulated bits.
        assert!(!n.outputs().is_empty());
    }

    #[test]
    fn random_netlist_matches_config_shape() {
        let cfg = GeneratorConfig::small();
        let n = random_netlist("rnd", &cfg, &lib(), 1).unwrap();
        let stats = NetlistStats::of(&n);
        assert_eq!(stats.inputs, cfg.inputs);
        assert_eq!(stats.outputs, cfg.outputs);
        // Node budget respected within slack.
        assert!(
            (stats.nodes as i64 - cfg.nodes as i64).unsigned_abs() < 40,
            "{} vs {}",
            stats.nodes,
            cfg.nodes
        );
        // Depth close to target (gate levels + PI + PO levels).
        assert!(stats.depth >= cfg.depth, "depth {}", stats.depth);
        assert!(stats.depth <= cfg.depth + 3, "depth {}", stats.depth);
    }

    #[test]
    fn random_netlist_deterministic_per_seed() {
        let cfg = GeneratorConfig::small();
        let a = random_netlist("x", &cfg, &lib(), 7).unwrap();
        let b = random_netlist("x", &cfg, &lib(), 7).unwrap();
        let c = random_netlist("x", &cfg, &lib(), 8).unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        // Same structure: node names and fanins agree.
        for (id, node) in a.iter() {
            let other = b.node(id);
            assert_eq!(node.name(), other.name());
            assert_eq!(node.fanin(), other.fanin());
        }
        // Different seed differs somewhere (overwhelmingly likely).
        let differs = a
            .iter()
            .any(|(id, node)| c.num_nodes() <= id.index() || c.node(id).fanin() != node.fanin());
        assert!(differs);
    }

    #[test]
    fn random_netlist_no_dangling_gates() {
        let cfg = GeneratorConfig {
            nodes: 400,
            inputs: 24,
            outputs: 24,
            depth: 20,
            two_input_fraction: 0.6,
        };
        let n = random_netlist("dangle", &cfg, &lib(), 3).unwrap();
        // The circuit is as deep as asked and reasonably connected (most
        // gates have fanout).
        let levels = Levelization::of(&n).expect("a netlist always levelizes");
        assert!(levels.depth() >= cfg.depth);
        let dangling = n
            .iter()
            .filter(|(_, node)| {
                matches!(node.kind(), avfs_netlist::NodeKind::Gate(_)) && node.fanout().is_empty()
            })
            .count();
        // Some dangling gates are tolerable (like post-synthesis dead
        // logic) but they must be rare.
        assert!(
            dangling * 5 < n.num_gates(),
            "{dangling} of {} gates dangle",
            n.num_gates()
        );
    }

    #[test]
    fn generated_netlists_are_in_topological_order() {
        // The one-pass levelization reads node indices as a topological
        // order: every fan-in precedes its sink and sits on a lower level.
        let lib = lib();
        for profile in crate::PAPER_PROFILES {
            let n = profile.synthesize(0.01, &lib).unwrap();
            let levels = Levelization::of(&n).unwrap();
            for (id, node) in n.iter() {
                for &f in node.fanin() {
                    assert!(f < id, "{}: fan-in {f} after its sink {id}", profile.name);
                    assert!(levels.level_of(f) < levels.level_of(id), "{}", profile.name);
                }
            }
        }
    }
}
