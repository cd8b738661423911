//! Voltage domains (voltage islands) for multi-rail AVFS systems.
//!
//! The paper's introduction describes AVFS systems that "actively control
//! internal voltages" — in real SoCs those are multiple independently
//! scaled supply rails. [`VoltageDomains`] partitions a netlist's nodes
//! into such rails; a [`Launch::Domains`](crate::Launch::Domains) request
//! then sweeps per-island voltage configurations exactly as slots sweep
//! global supplies, through any launch door.

use avfs_netlist::{Netlist, NodeId};

/// A partition of a netlist's nodes into independently supplied domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoltageDomains {
    domain_of: Vec<u16>,
    count: usize,
}

impl VoltageDomains {
    /// One domain covering the whole netlist (equivalent to a global
    /// supply).
    pub fn single(netlist: &Netlist) -> VoltageDomains {
        VoltageDomains {
            domain_of: vec![0; netlist.num_nodes()],
            count: 1,
        }
    }

    /// Builds a partition from an assignment function.
    ///
    /// # Panics
    ///
    /// Panics if the function returns a domain index ≥ 65 535: indices
    /// are stored as `u16`, with `u16::MAX` kept free as a sentinel.
    pub fn from_fn(netlist: &Netlist, mut assign: impl FnMut(NodeId) -> usize) -> VoltageDomains {
        let mut count = 0usize;
        let domain_of: Vec<u16> = netlist
            .iter()
            .map(|(id, _)| {
                let d = assign(id);
                assert!(d < u16::MAX as usize, "domain index {d} out of range");
                count = count.max(d + 1);
                d as u16
            })
            .collect();
        VoltageDomains {
            domain_of,
            count: count.max(1),
        }
    }

    /// Number of domains.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of covered nodes.
    pub fn len(&self) -> usize {
        self.domain_of.len()
    }

    /// `true` when the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.domain_of.is_empty()
    }

    /// The domain of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn domain_of(&self, node: NodeId) -> usize {
        self.domain_of[node.index()] as usize
    }

    /// Nodes per domain (diagnostic).
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &d in &self.domain_of {
            sizes[d as usize] += 1;
        }
        sizes
    }
}

/// One voltage-island slot: a pattern replayed with one supply voltage
/// per domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSlotSpec {
    /// Index into the pattern set.
    pub pattern: usize,
    /// Supply voltage per domain, `voltages.len() == domains.count()`.
    pub voltages: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNetlist;
    use crate::engine::{Launch, SimOptions};
    use crate::{phases, slots, SimRun};
    use avfs_atpg::PatternSet;
    use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
    use avfs_delay::CharacterizedLibrary;
    use avfs_netlist::{CellLibrary, NodeKind};
    use avfs_spice::Technology;
    use std::sync::Arc;

    /// Splits the netlist into `count` domains by output-cone affinity:
    /// every node joins the domain of the primary-output group it
    /// (structurally) feeds first — a simple but realistic islanding
    /// (logic clusters feeding the same interface share a rail).
    fn by_output_cones(netlist: &Netlist, count: usize) -> VoltageDomains {
        let count = count.clamp(1, netlist.outputs().len().max(1));
        let mut domain_of = vec![u16::MAX; netlist.num_nodes()];
        // Seed the domains at the outputs, round-robin.
        let mut stack: Vec<(NodeId, u16)> = netlist
            .outputs()
            .iter()
            .enumerate()
            .map(|(k, &po)| (po, (k % count) as u16))
            .collect();
        // Reverse BFS: first domain to reach a node claims it.
        while let Some((id, d)) = stack.pop() {
            if domain_of[id.index()] != u16::MAX {
                continue;
            }
            domain_of[id.index()] = d;
            for &f in netlist.node(id).fanin() {
                if domain_of[f.index()] == u16::MAX {
                    stack.push((f, d));
                }
            }
        }
        // Nodes reaching no output (dead logic) fall into domain 0.
        for d in &mut domain_of {
            if *d == u16::MAX {
                *d = 0;
            }
        }
        VoltageDomains { domain_of, count }
    }

    fn setup() -> (Arc<Netlist>, CompiledNetlist) {
        let (netlist, chars) = characterized();
        let engine = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
            .expect("engine builds");
        (netlist, engine)
    }

    fn characterized() -> (Arc<Netlist>, CharacterizedLibrary) {
        let library = CellLibrary::nangate15_like();
        let netlist =
            Arc::new(avfs_circuits::ripple_carry_adder(8, &library).expect("adder builds"));
        let used: Vec<_> = {
            let mut set = std::collections::BTreeSet::new();
            for (_, node) in netlist.iter() {
                if let NodeKind::Gate(cell) = node.kind() {
                    set.insert(cell);
                }
            }
            set.into_iter().collect()
        };
        let chars = characterize_library(
            &library,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            Some(&used),
        )
        .expect("characterizes");
        (netlist, chars)
    }

    #[test]
    fn single_domain_matches_uniform_run() {
        let (netlist, engine) = setup();
        let domains = VoltageDomains::single(&netlist);
        assert_eq!(domains.count(), 1);
        let patterns = PatternSet::random(netlist.inputs().len(), 6, 3);
        assert!(patterns.launched_transitions() >= patterns.len());
        let specs: Vec<DomainSlotSpec> = (0..patterns.len())
            .map(|pattern| DomainSlotSpec {
                pattern,
                voltages: vec![0.7],
            })
            .collect();
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let island_run = engine
            .launch(
                &patterns,
                Launch::Domains {
                    domains: &domains,
                    slots: &specs,
                },
                &opts,
            )
            .expect("runs");
        let uniform_run = engine
            .launch(&patterns, &slots::at_voltage(patterns.len(), 0.7), &opts)
            .expect("runs");
        assert_eq!(island_run.slots, uniform_run.slots);
        assert_eq!(island_run.diagnostics, uniform_run.diagnostics);
    }

    /// Three islands at one supply are the uniform launch at that supply:
    /// same slots, same diagnostics, and the same delay-table work — each
    /// launch builds the one table of its supply on a fresh artifact, and
    /// a second island launch builds nothing.
    #[test]
    fn islands_at_one_supply_equal_the_uniform_launch() {
        let (netlist, chars) = characterized();
        let compile = || {
            CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
                .expect("engine builds")
        };
        let (uniform_engine, island_engine) = (compile(), compile());
        let domains = by_output_cones(&netlist, 3);
        assert_eq!(domains.count(), 3);
        let patterns = PatternSet::random(netlist.inputs().len(), 6, 3);
        assert!(patterns.launched_transitions() >= patterns.len());
        let specs: Vec<DomainSlotSpec> = (0..patterns.len())
            .map(|pattern| DomainSlotSpec {
                pattern,
                voltages: vec![0.7; 3],
            })
            .collect();
        let opts = SimOptions {
            threads: 1,
            profiling: true,
            ..SimOptions::default()
        };
        let uniform = uniform_engine
            .launch(&patterns, &slots::at_voltage(patterns.len(), 0.7), &opts)
            .expect("runs");
        let islands = island_engine
            .launch(
                &patterns,
                Launch::Domains {
                    domains: &domains,
                    slots: &specs,
                },
                &opts,
            )
            .expect("runs");
        assert_eq!(islands.slots, uniform.slots);
        assert_eq!(islands.diagnostics, uniform.diagnostics);
        let count = |run: &SimRun, name| run.profile.as_ref().expect("profiled").counter(name);
        for name in [
            phases::ENGINE_KERNEL_EVALS,
            phases::ENGINE_DELAY_TABLE_BUILDS,
            phases::ENGINE_DELAY_TABLE_HITS,
        ] {
            assert_eq!(count(&islands, name), count(&uniform, name), "{name}");
        }
        assert_eq!(count(&islands, phases::ENGINE_DELAY_TABLE_BUILDS), Some(1));
        let again = island_engine
            .launch(
                &patterns,
                Launch::Domains {
                    domains: &domains,
                    slots: &specs,
                },
                &opts,
            )
            .expect("runs");
        assert_eq!(again.slots, islands.slots);
        assert_eq!(count(&again, phases::ENGINE_DELAY_TABLE_BUILDS), None);
        assert_eq!(count(&again, phases::ENGINE_KERNEL_EVALS), None);
        assert_eq!(count(&again, phases::ENGINE_DELAY_TABLE_HITS), Some(1));
    }

    #[test]
    fn cone_partition_covers_all_nodes() {
        let (netlist, _) = setup();
        let domains = by_output_cones(&netlist, 3);
        assert_eq!(domains.count(), 3);
        assert_eq!(domains.len(), netlist.num_nodes());
        let sizes = domains.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), netlist.num_nodes());
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    }

    #[test]
    fn lowering_one_island_slows_only_its_cone() {
        let (netlist, engine) = setup();
        let domains = by_output_cones(&netlist, 2);
        let patterns = PatternSet::random(netlist.inputs().len(), 8, 9);
        assert!(patterns.launched_transitions() >= patterns.len());
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };

        let run_at = |v0: f64, v1: f64| {
            let specs: Vec<DomainSlotSpec> = (0..patterns.len())
                .map(|pattern| DomainSlotSpec {
                    pattern,
                    voltages: vec![v0, v1],
                })
                .collect();
            engine
                .launch(
                    &patterns,
                    Launch::Domains {
                        domains: &domains,
                        slots: &specs,
                    },
                    &SimOptions {
                        keep_waveforms: true,
                        ..opts.clone()
                    },
                )
                .expect("runs")
        };
        let both_nominal = run_at(0.8, 0.8);
        let one_low = run_at(0.8, 0.55);
        let both_low = run_at(0.55, 0.55);

        // Per-output arrivals: slowing island 1 must never speed an
        // output up and must strictly slow at least one (the island's
        // own cone); slowing both islands dominates slowing one.
        let mut strictly_slower = false;
        for ((a, b), c) in both_nominal
            .slots
            .iter()
            .zip(&one_low.slots)
            .zip(&both_low.slots)
        {
            let (wa, wb, wc) = (
                a.waveforms.as_ref().expect("kept"),
                b.waveforms.as_ref().expect("kept"),
                c.waveforms.as_ref().expect("kept"),
            );
            for &po in netlist.outputs() {
                let ta = wa[po.index()].last_transition();
                let tb = wb[po.index()].last_transition();
                let tc = wc[po.index()].last_transition();
                if let (Some(ta), Some(tb), Some(tc)) = (ta, tb, tc) {
                    assert!(tb >= ta - 1e-9, "island slow-down sped up an output");
                    assert!(tc >= tb - 1e-9, "slowing both islands must dominate");
                    if tb > ta + 1e-9 {
                        strictly_slower = true;
                    }
                }
            }
            // Logic results are voltage-independent.
            assert_eq!(a.responses, c.responses);
        }
        assert!(strictly_slower, "island 1's cone must slow down somewhere");
    }

    /// An island launch refuses what a uniform one refuses, with the
    /// same typed errors: its slots go through the same
    /// stimulus/operating-point check.
    #[test]
    fn validation_rejects_bad_specs() {
        use crate::SimError;
        let (netlist, engine) = setup();
        let domains = by_output_cones(&netlist, 2);
        let patterns = PatternSet::lfsr(netlist.inputs().len(), 2, 1);
        let opts = SimOptions::default();
        let launch = |patterns: &PatternSet, pattern: usize, voltages: &[f64]| {
            let specs = [DomainSlotSpec {
                pattern,
                voltages: voltages.to_vec(),
            }];
            engine.launch(
                patterns,
                Launch::Domains {
                    domains: &domains,
                    slots: &specs,
                },
                &opts,
            )
        };
        // A voltage vector that does not assign every domain.
        assert_eq!(
            launch(&patterns, 0, &[0.8]).unwrap_err(),
            SimError::DomainCount {
                slot: 0,
                expected: 2,
                got: 1
            }
        );
        // Empty specs.
        assert_eq!(
            engine
                .launch(
                    &patterns,
                    Launch::Domains {
                        domains: &domains,
                        slots: &[]
                    },
                    &opts
                )
                .unwrap_err(),
            SimError::EmptySlots
        );
        // Bad pattern index.
        assert_eq!(
            launch(&patterns, 9, &[0.8, 0.8]).unwrap_err(),
            SimError::BadPatternIndex {
                index: 9,
                available: 2
            }
        );
        // Non-finite and non-positive domain supplies.
        for bad in [f64::NAN, -1.0, 0.0] {
            match launch(&patterns, 0, &[0.8, bad]) {
                Err(SimError::InvalidOperatingPoint { slot: 0, voltage }) => {
                    assert!(voltage.is_nan() || voltage == bad);
                }
                other => panic!("expected InvalidOperatingPoint, got {other:?}"),
            }
        }
        // A pattern set one bit too narrow.
        let narrow = PatternSet::lfsr(netlist.inputs().len() - 1, 2, 1);
        assert_eq!(
            launch(&narrow, 0, &[0.8, 0.8]).unwrap_err(),
            SimError::PatternWidth {
                expected: netlist.inputs().len(),
                got: netlist.inputs().len() - 1
            }
        );
    }

    #[test]
    fn from_fn_assignment() {
        let (netlist, _) = setup();
        let domains = VoltageDomains::from_fn(&netlist, |id| id.index() % 4);
        assert_eq!(domains.count(), 4);
        for (id, _) in netlist.iter() {
            assert_eq!(domains.domain_of(id), id.index() % 4);
        }
    }

    /// The largest domain index `from_fn` takes is 65 534; 65 535 is the
    /// sentinel and panics.
    #[test]
    fn from_fn_domain_index_boundary() {
        let library = CellLibrary::nangate15_like();
        let netlist = avfs_circuits::ripple_carry_adder(1, &library).expect("adder builds");
        let top = VoltageDomains::from_fn(&netlist, |_| 65_534);
        assert_eq!(top.count(), 65_535);
        assert!(netlist.iter().all(|(id, _)| top.domain_of(id) == 65_534));
        let sentinel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            VoltageDomains::from_fn(&netlist, |_| 65_535)
        }));
        assert!(sentinel.is_err(), "65 535 must panic");
    }
}
