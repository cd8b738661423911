//! Timing-aware pattern generation for the longest paths.
//!
//! For each targeted path, generate a launch/capture pair that (a) toggles
//! the path's primary input and (b) tries to hold every side input of
//! every path gate at a non-controlling value in both vectors, so that the
//! launched transition propagates along the whole path. Side-input
//! justification back to primary inputs is NP-hard in general; this
//! generator uses bounded random retry with zero-delay verification —
//! the standard "best-effort sensitization with random fill" compromise
//! (the paper notes many of its reported longest paths were *false paths*
//! that even the commercial timing-aware ATPG could not sensitize).

use crate::paths::Path;
use crate::pattern::{Pattern, PatternPair, PatternSet};
use crate::zero_delay::{ZeroDelayPlan, PAIRS_PER_PASS};
use avfs_netlist::{Levelization, Netlist, NodeKind};
use avfs_prng::{SeedableRng, SmallRng};

/// Outcome of targeting one path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// The generated pair (always produced; possibly only partially
    /// sensitizing).
    pub pair: PatternPair,
    /// Number of path gates whose output toggles under zero-delay
    /// simulation of the pair.
    pub toggled_gates: usize,
    /// Number of gates on the path (excluding PI/PO).
    pub path_gates: usize,
    /// Whether the transition propagated through the full path (all gates
    /// toggled) — the path is (robustly or not) sensitized.
    pub sensitized: bool,
}

/// Generates timing-aware patterns for `paths`, appending one pair per
/// path. `retries` bounds the random-fill attempts per path (16 is a
/// reasonable default).
///
/// Returns the per-path outcomes; collect `.pair` into a
/// [`PatternSet`] via [`collect_pairs`].
pub fn generate_timing_aware(
    netlist: &Netlist,
    levels: &Levelization,
    paths: &[Path],
    retries: usize,
    seed: u64,
) -> Vec<PathPattern> {
    generate(
        netlist,
        levels,
        paths,
        retries,
        &mut SmallRng::seed_from_u64(seed),
    )
}

/// [`generate_timing_aware`] on a caller's generator.
///
/// Attempt `a` of a path draws a random fill, launches a transition at
/// the path's source (rising when `a` is even) and keeps the pair if it
/// toggles strictly more path gates than the best so far; the search
/// stops at the first attempt that toggles them all. Up to
/// [`PAIRS_PER_PASS`] attempts are drawn ahead on a copy of `rng` and
/// simulated in one [`ZeroDelayPlan`] pass (attempt `k` of the pass in
/// lanes `2k` and `2k + 1`); `rng` then resumes from its state after the
/// last attempt the search used, so the outcomes and the generator's
/// final state are those of simulating one attempt at a time.
fn generate(
    netlist: &Netlist,
    levels: &Levelization,
    paths: &[Path],
    retries: usize,
    rng: &mut SmallRng,
) -> Vec<PathPattern> {
    let plan = ZeroDelayPlan::new(netlist, levels);
    let width = netlist.inputs().len();
    // PI node index → bit position.
    let mut pi_bit = vec![usize::MAX; netlist.num_nodes()];
    for (bit, id) in netlist.inputs().iter().enumerate() {
        pi_bit[id.index()] = bit;
    }
    let retries = retries.max(1);
    let mut vectors: Vec<Pattern> = Vec::with_capacity(2 * PAIRS_PER_PASS);
    let mut after: Vec<SmallRng> = Vec::with_capacity(PAIRS_PER_PASS);
    let mut words = Vec::new();

    paths
        .iter()
        .map(|path| {
            let gates: Vec<usize> = path
                .nodes
                .iter()
                .filter(|&&id| matches!(netlist.node(id).kind(), NodeKind::Gate(_)))
                .map(|id| id.index())
                .collect();
            let source_bit = pi_bit[path.source().index()];

            let mut best: Option<(usize, PatternPair)> = None;
            let mut first = 0;
            'search: while first < retries {
                let count = (retries - first).min(PAIRS_PER_PASS);
                let mut ahead = rng.clone();
                vectors.clear();
                after.clear();
                for attempt in first..first + count {
                    let mut launch = Pattern::random(width, &mut ahead);
                    let mut capture = launch.clone();
                    // Launch a transition at the path's source; alternate
                    // the direction across attempts.
                    let rising = attempt % 2 == 0;
                    launch.set_bit(source_bit, !rising);
                    capture.set_bit(source_bit, rising);
                    vectors.push(launch);
                    vectors.push(capture);
                    after.push(ahead.clone());
                }
                let lanes: Vec<&Pattern> = vectors.iter().collect();
                plan.simulate(&lanes, &mut words);
                for k in 0..count {
                    let toggled = gates
                        .iter()
                        .filter(|&&g| (words[g] >> (2 * k) ^ words[g] >> (2 * k + 1)) & 1 == 1)
                        .count();
                    if best.as_ref().is_none_or(|(most, _)| toggled > *most) {
                        let pair =
                            PatternPair::new(vectors[2 * k].clone(), vectors[2 * k + 1].clone())
                                .expect("widths equal by construction");
                        best = Some((toggled, pair));
                        if toggled == gates.len() {
                            *rng = after.swap_remove(k);
                            break 'search;
                        }
                    }
                }
                *rng = ahead;
                first += count;
            }
            let (toggled_gates, pair) = best.expect("at least one attempt");
            PathPattern {
                pair,
                toggled_gates,
                path_gates: gates.len(),
                sensitized: toggled_gates == gates.len(),
            }
        })
        .collect()
}

/// Collects the generated pairs into a [`PatternSet`].
pub fn collect_pairs(outcomes: &[PathPattern]) -> PatternSet {
    outcomes.iter().map(|o| o.pair.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::k_longest_paths;
    use crate::zero_delay_values;
    use avfs_circuits::PAPER_PROFILES;
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};
    use avfs_netlist::{CellLibrary, NetlistBuilder};

    /// The search one attempt at a time, two scalar zero-delay passes per
    /// attempt: the oracle [`generate`] must reproduce, outcomes and
    /// final generator state alike.
    fn generate_serial(
        netlist: &Netlist,
        levels: &Levelization,
        paths: &[Path],
        retries: usize,
        rng: &mut SmallRng,
    ) -> Vec<PathPattern> {
        let width = netlist.inputs().len();
        let pi_bit: std::collections::HashMap<usize, usize> = netlist
            .inputs()
            .iter()
            .enumerate()
            .map(|(bit, id)| (id.index(), bit))
            .collect();

        paths
            .iter()
            .map(|path| {
                let path_gates = path
                    .nodes
                    .iter()
                    .filter(|&&id| matches!(netlist.node(id).kind(), NodeKind::Gate(_)))
                    .count();
                let source_bit = pi_bit[&path.source().index()];

                let mut best: Option<PathPattern> = None;
                for attempt in 0..retries.max(1) {
                    let mut launch = Pattern::random(width, rng);
                    let mut capture = launch.clone();
                    let rising = attempt % 2 == 0;
                    launch.set_bit(source_bit, !rising);
                    capture.set_bit(source_bit, rising);

                    let v1 = zero_delay_values(netlist, levels, &launch);
                    let v2 = zero_delay_values(netlist, levels, &capture);
                    let toggled = path
                        .nodes
                        .iter()
                        .filter(|&&id| {
                            matches!(netlist.node(id).kind(), NodeKind::Gate(_))
                                && v1[id.index()] != v2[id.index()]
                        })
                        .count();
                    let candidate = PathPattern {
                        pair: PatternPair::new(launch, capture).expect("widths equal"),
                        toggled_gates: toggled,
                        path_gates,
                        sensitized: toggled == path_gates,
                    };
                    let better = match &best {
                        None => true,
                        Some(b) => candidate.toggled_gates > b.toggled_gates,
                    };
                    if better {
                        let done = candidate.sensitized;
                        best = Some(candidate);
                        if done {
                            break;
                        }
                    }
                }
                best.expect("at least one attempt")
            })
            .collect()
    }

    fn inverter_chain(library: &std::sync::Arc<CellLibrary>) -> Netlist {
        let mut b = NetlistBuilder::new("chain", library);
        let a = b.add_input("a").unwrap();
        let _side = b.add_input("side").unwrap();
        let g1 = b.add_gate("g1", "BUF_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        let g3 = b.add_gate("g3", "BUF_X1", &[g2]).unwrap();
        b.add_output("y", g3).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn word_parallel_search_equals_the_serial_loop() {
        let library = CellLibrary::nangate15_like();
        let mut circuits = vec![
            avfs_circuits::c17(&library).unwrap(),
            inverter_chain(&library),
            avfs_circuits::ripple_carry_adder(8, &library).unwrap(),
            avfs_circuits::ripple_carry_adder(16, &library).unwrap(),
            avfs_circuits::array_multiplier(4, &library).unwrap(),
        ];
        for name in ["s38417", "b17"] {
            let profile = PAPER_PROFILES.iter().find(|p| p.name == name).unwrap();
            circuits.push(profile.synthesize(0.01, &library).unwrap());
        }
        let (mut sensitized, mut unsensitized) = (0, 0);
        for netlist in &circuits {
            let levels = Levelization::of(netlist).expect("acyclic");
            let paths = k_longest_paths(netlist, &levels, None, 8);
            let width = netlist.inputs().len();
            for retries in [1, 2, 3, 31, 32, 33, 64, 65] {
                for seed in [1, 0x5EED, 0xDEAD_BEEF] {
                    let mut fast = SmallRng::seed_from_u64(seed);
                    let mut slow = SmallRng::seed_from_u64(seed);
                    let got = generate(netlist, &levels, &paths, retries, &mut fast);
                    let want = generate_serial(netlist, &levels, &paths, retries, &mut slow);
                    let case = format!("{} retries {retries} seed {seed:#x}", netlist.name());
                    assert_eq!(got, want, "{case}");
                    assert_eq!(
                        Pattern::random(width, &mut fast),
                        Pattern::random(width, &mut slow),
                        "{case}: the generator resumes where the serial loop left it"
                    );
                    assert_eq!(
                        generate_timing_aware(netlist, &levels, &paths, retries, seed),
                        want,
                        "{case}"
                    );
                    sensitized += got.iter().filter(|o| o.sensitized).count();
                    unsensitized += got.iter().filter(|o| !o.sensitized).count();
                }
            }
        }
        // Both ways out of the search are exercised: an early stop on a
        // sensitized attempt and the full retry budget.
        assert!(sensitized > 0 && unsensitized > 0);
    }

    #[test]
    fn buffer_chain_always_sensitizes() {
        // A pure buffer chain has no side inputs: any transition propagates.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "BUF_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        let g3 = b.add_gate("g3", "BUF_X1", &[g2]).unwrap();
        b.add_output("y", g3).unwrap();
        let n = b.finish().unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        let paths = k_longest_paths(&n, &l, None, 1);
        let out = generate_timing_aware(&n, &l, &paths, 4, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].sensitized);
        assert_eq!(out[0].path_gates, 3);
        assert_eq!(out[0].toggled_gates, 3);
        assert_eq!(out[0].pair.launched_transitions(), 1);
    }

    #[test]
    fn c17_paths_mostly_sensitizable() {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        let paths = k_longest_paths(&n, &l, None, 8);
        let out = generate_timing_aware(&n, &l, &paths, 32, 7);
        assert_eq!(out.len(), paths.len());
        let sensitized = out.iter().filter(|o| o.sensitized).count();
        // c17 is tiny and highly testable: the bounded search should
        // sensitize most of its longest paths.
        assert!(
            sensitized * 2 >= out.len(),
            "only {sensitized}/{} sensitized",
            out.len()
        );
        // Every outcome toggles at least the source-adjacent structure.
        for o in &out {
            assert!(o.toggled_gates <= o.path_gates);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let lib = CellLibrary::nangate15_like();
        let n = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let l = Levelization::of(&n).expect("acyclic");
        let paths = k_longest_paths(&n, &l, None, 4);
        let a = generate_timing_aware(&n, &l, &paths, 8, 99);
        let b = generate_timing_aware(&n, &l, &paths, 8, 99);
        assert_eq!(a, b);
        let pairs = collect_pairs(&a);
        assert_eq!(pairs.len(), 4);
    }
}
