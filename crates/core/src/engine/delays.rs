//! Delay initialisation (paper Sec. IV.A): scaling every gate's nominal
//! pin delays by the delay-kernel factor at a slot's operating point.
//!
//! "The delay calculations of threads from parallel instances of a gate
//! utilize the same coefficients and delay function calls", so each piece
//! of the work is done once per thing it depends on. Scaling depends on
//! the supply alone: [`CompiledNetlist::level_delays`] scales one level at
//! one supply, and a per-voltage [`DelayTable`] — that routine looped over
//! levels — is cached on the artifact. Model code runs nowhere else.
//!
//! Every *voltage group* (the slots of a batch that share a voltage
//! assignment and a Monte Carlo die) reads tables: a uniform group one, a
//! scheduled group one per segment, an island group one per domain. A
//! group whose delays are a table slice verbatim reads it in place; any
//! other writes its own copy of the level: an island group gathers each
//! gate from its domain's table, a group the injected non-finite kernel
//! fired on falls back to nominal, and a die derates the copy. The die is
//! drawn once per level per batch ([`draw_level_derates`]) and shared by
//! every group carrying it; nothing drawn outlives its level.

use super::{VariationSample, VoltageAssign};
use crate::compile::CompiledNetlist;
use crate::domains::VoltageDomains;
use crate::phases;
use crate::SimError;
use avfs_delay::op::NormalizedPoint;
use avfs_netlist::library::Polarity;
use avfs_netlist::NodeKind;
use avfs_obs::Metrics;
use avfs_waveform::PinDelays;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A fully-scaled per-level delay table for one uniform normalized
/// supply — the entire delay initialisation of a launch at that supply,
/// materialized. Cached per voltage on the [`CompiledNetlist`] (bounded
/// LRU). `per_level[level]` is gate-major in level order, one
/// [`PinDelays`] per fanin pin, addressed through the level plan's
/// `gate_offsets`.
#[derive(Debug)]
pub(crate) struct DelayTable {
    pub(crate) per_level: Vec<Vec<PinDelays>>,
    /// Per level, the gates that fell back to nominal. Replayed into
    /// [`RunDiagnostics::kernel_fallbacks`](crate::RunDiagnostics::kernel_fallbacks)
    /// for every launch the table serves: whole by the groups that read
    /// the whole table, gate by gate by the island groups that read only
    /// some of its gates.
    pub(crate) fallbacks_per_level: Vec<GateFallbacks>,
}

/// `(gate position, scaled delays that fell back to nominal)` for every
/// gate of one level plan that had any, in position order — empty for a
/// finite model.
type GateFallbacks = Vec<(usize, u64)>;

/// Guards the delay calculation: a non-finite scaled delay falls back to
/// the nominal delay and is counted in
/// [`RunDiagnostics::kernel_fallbacks`](crate::RunDiagnostics::kernel_fallbacks).
/// Crate-visible because the STA glue (`crate::sta`) re-derives per-node
/// scaled delays with the exact same guard so oracle and kernel share
/// one delay matrix bitwise.
pub(crate) fn scale_or_fallback(nominal: f64, factor: f64, fallbacks: &mut u64) -> f64 {
    let scaled = nominal * factor;
    if scaled.is_finite() {
        scaled.max(0.0)
    } else {
        *fallbacks += 1;
        nominal.max(0.0)
    }
}

/// Applies a Monte Carlo process-variation derate to an already-scaled
/// delay. Both operands are finite and non-negative (the derate is
/// `(1 + ε).max(0)` with bounded `ε`), so the product needs no fallback
/// guard of its own.
#[inline]
fn derate_delay(scaled: f64, derate: f64) -> f64 {
    (scaled * derate).max(0.0)
}

/// Why a voltage group got no delays.
pub(super) enum DelayFault {
    /// The delay model rejected an operating point or lacks a kernel —
    /// fails the whole run.
    Model(SimError),
    /// The delay model panicked — contained; fails the group's slots.
    Panicked,
}

impl CompiledNetlist {
    /// The delay-initialisation routine: the nominal pin delays of
    /// `level`'s gates scaled by the kernel factor at each gate's
    /// `(v_norm, φ_C(load))`, and the gates that fell back to nominal —
    /// one level of a [`DelayTable`].
    fn level_delays(
        &self,
        level: usize,
        v_norm: f64,
    ) -> Result<(Vec<PinDelays>, GateFallbacks), SimError> {
        let (mut out, mut fallbacks) = (Vec::new(), Vec::new());
        for (pos, &node_id) in self.level_plans[level].gate_nodes.iter().enumerate() {
            let NodeKind::Gate(cell_id) = self.netlist.node(node_id).kind() else {
                unreachable!("level plans list gates only");
            };
            let p = NormalizedPoint {
                v: v_norm,
                c: self.c_norm[node_id.index()],
            };
            let mut gate_fallbacks = 0u64;
            for (pin, d) in self.annotation.node_delays(node_id).iter().enumerate() {
                let f_rise = self.model.factor(cell_id, pin, Polarity::Rise, p)?;
                let f_fall = self.model.factor(cell_id, pin, Polarity::Fall, p)?;
                out.push(PinDelays {
                    rise: scale_or_fallback(d.rise, f_rise, &mut gate_fallbacks),
                    fall: scale_or_fallback(d.fall, f_fall, &mut gate_fallbacks),
                });
            }
            if gate_fallbacks > 0 {
                fallbacks.push((pos, gate_fallbacks));
            }
        }
        Ok((out, fallbacks))
    }

    /// The artifact's cached delay table for one uniform normalized
    /// supply (keyed by the supply's bit pattern), built on first use by
    /// looping [`CompiledNetlist::level_delays`] over the levels. The
    /// build runs outside the cache lock and under one `catch_unwind`, so
    /// a model error or panic caches nothing, poisons nothing and fails
    /// only the groups that asked for the supply.
    pub(super) fn cached_delay_table(
        &self,
        v_norm: f64,
        metrics: Option<&Metrics>,
    ) -> Result<Arc<DelayTable>, DelayFault> {
        let key = v_norm.to_bits();
        let lock = || self.delay_tables.lock().expect("delay-table cache lock");
        if let Some(hit) = lock().get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Level 0, the stimuli, plans no gates: its entries stay empty.
        let build = || -> Result<_, SimError> {
            let levels = (0..self.levels.depth()).map(|level| self.level_delays(level, v_norm));
            let (per_level, fallbacks_per_level) =
                levels.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
            Ok(DelayTable {
                per_level,
                fallbacks_per_level,
            })
        };
        let table = match catch_unwind(AssertUnwindSafe(build)) {
            Ok(Ok(table)) => Arc::new(table),
            Ok(Err(e)) => return Err(DelayFault::Model(e)),
            Err(_) => return Err(DelayFault::Panicked),
        };
        if let Some(m) = metrics {
            let pins: usize = table.per_level.iter().map(Vec::len).sum();
            m.add(phases::ENGINE_KERNEL_EVALS, 2 * pins as u64);
            m.add(phases::ENGINE_DELAY_TABLE_BUILDS, 1);
        }
        lock().insert(key, Arc::clone(&table));
        Ok(table)
    }
}

/// Draws `die`'s derates for `level` into `out` (cleared first): one
/// `(rise, fall)` pair per fanin pin, laid out like
/// [`DelayTable::per_level`]. Derates are hashed per (die, node, pin,
/// polarity) — segment-, schedule- and batch-independent — so one vector
/// serves every voltage group carrying the die. Returns the number of
/// hashes run.
pub(super) fn draw_level_derates(
    compiled: &CompiledNetlist,
    level: usize,
    die: &VariationSample,
    out: &mut Vec<(f64, f64)>,
) -> u64 {
    out.clear();
    for &node_id in &compiled.level_plans[level].gate_nodes {
        for pin in 0..compiled.annotation.node_delays(node_id).len() {
            let derate = |polarity| {
                avfs_delay::variation::derate(&die.config, die.sample, node_id, pin, polarity)
            };
            out.push((derate(Polarity::Rise), derate(Polarity::Fall)));
        }
    }
    2 * out.len() as u64
}

/// The slots of a batch that share one delay initialisation: same
/// voltage assignment, same Monte Carlo die (variation derates the
/// initialized delays, so sampled slots only share a group with slots of
/// the same die).
pub(super) struct VoltageGroup<'w> {
    assign: &'w VoltageAssign,
    variation: Option<VariationSample>,
    /// Fault-injection key: the global (launch-order) slot of the
    /// group's first batch member (a group shares one delay
    /// initialisation, so the non-finite-kernel site is per group).
    /// Batches are die-major, so in a Monte Carlo launch that is the
    /// group's earliest scenario *of the die the batch carries* — a group
    /// is met once per die-batch, each time under that die's slot.
    key: u64,
    /// The artifact's tables this group reads, one per entry of
    /// [`VoltageAssign::v_norms`]: per segment of a uniform or scheduled
    /// assignment, per domain of an island assignment.
    tables: Vec<Arc<DelayTable>>,
    /// The injected non-finite kernel fired on this group this batch:
    /// every delay falls back to nominal.
    poisoned: bool,
    /// One level buffer per segment: the group's own copy of a level,
    /// for every group whose delays are not a table slice verbatim.
    bufs: Vec<Vec<PinDelays>>,
}

impl<'w> VoltageGroup<'w> {
    pub(super) fn new(
        assign: &'w VoltageAssign,
        variation: Option<VariationSample>,
        key: u64,
    ) -> Self {
        VoltageGroup {
            assign,
            variation,
            key,
            tables: Vec::new(),
            poisoned: false,
            bufs: vec![Vec::new(); assign.segments()],
        }
    }

    pub(super) fn matches(
        &self,
        assign: &VoltageAssign,
        variation: Option<VariationSample>,
    ) -> bool {
        // The die first: a cheap reject before the assignment compare.
        self.variation == variation && *self.assign == *assign
    }

    pub(super) fn key(&self) -> u64 {
        self.key
    }

    /// The die this group's delays are derated by (`None` = nominal).
    pub(super) fn variation(&self) -> Option<VariationSample> {
        self.variation
    }

    /// Binds the group to the artifact's cached tables (so a droop or an
    /// island over an already-swept voltage grid pays no kernel work at
    /// all) and records whether the injected non-finite kernel fired on
    /// it.
    pub(super) fn bind_tables(
        &mut self,
        compiled: &CompiledNetlist,
        metrics: Option<&Metrics>,
        poisoned: bool,
    ) -> Result<(), DelayFault> {
        self.poisoned = poisoned;
        self.tables = self
            .assign
            .v_norms()
            .iter()
            .map(|&v| compiled.cached_delay_table(v, metrics))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Whether this group's delays differ from a table slice, so it
    /// reads its own copy of each level.
    fn owns_copy(&self) -> bool {
        self.poisoned
            || self.variation.is_some()
            || matches!(self.assign, VoltageAssign::PerDomain(_))
    }

    /// Initializes this group's delays for `level` and returns how many
    /// fell back to nominal: the tables' tallies of the gates it reads,
    /// or — poisoned — every delay, which is what a non-finite factor
    /// makes of each through [`scale_or_fallback`]. A group that owns a
    /// copy writes it here (island groups gather each gate's pins from
    /// its domain's table in `domains`, the launch's map); a die's group
    /// is then derated by [`VoltageGroup::derate_level`].
    pub(super) fn init_level(
        &mut self,
        compiled: &CompiledNetlist,
        domains: Option<&VoltageDomains>,
        level: usize,
    ) -> u64 {
        let plan = &compiled.level_plans[level];
        if self.poisoned {
            let nominal = plan
                .gate_nodes
                .iter()
                .flat_map(|&node| compiled.annotation.node_delays(node));
            for buf in &mut self.bufs {
                buf.clear();
                buf.extend(nominal.clone().map(|d| PinDelays {
                    rise: d.rise.max(0.0),
                    fall: d.fall.max(0.0),
                }));
            }
            return self.bufs.iter().map(|b| 2 * b.len() as u64).sum();
        }
        if let VoltageAssign::PerDomain(_) = self.assign {
            let domains = domains.expect("an island launch carries its domain map");
            let buf = &mut self.bufs[0];
            buf.clear();
            let mut fallbacks = 0u64;
            for (pos, &node) in plan.gate_nodes.iter().enumerate() {
                let table = &self.tables[domains.domain_of(node)];
                buf.extend_from_slice(
                    &table.per_level[level][plan.gate_offsets[pos]..plan.gate_offsets[pos + 1]],
                );
                let gates = &table.fallbacks_per_level[level];
                fallbacks += gates
                    .binary_search_by_key(&pos, |&(p, _)| p)
                    .map_or(0, |i| gates[i].1);
            }
            return fallbacks;
        }
        if self.owns_copy() {
            for (buf, table) in self.bufs.iter_mut().zip(&self.tables) {
                buf.clear();
                buf.extend_from_slice(&table.per_level[level]);
            }
        }
        self.tables
            .iter()
            .flat_map(|t| &t.fallbacks_per_level[level])
            .map(|&(_, n)| n)
            .sum()
    }

    /// Applies a die's `derates` ([`draw_level_derates`] of this group's
    /// die) to this level's copy. A derate multiplies the scaled delay
    /// after the fallback guard, the same factor in every segment; a
    /// nominal die multiplies by exactly 1.0.
    pub(super) fn derate_level(&mut self, derates: &[(f64, f64)]) {
        for buf in &mut self.bufs {
            assert_eq!(buf.len(), derates.len(), "one derate pair per pin");
            for (d, &(rise, fall)) in buf.iter_mut().zip(derates) {
                d.rise = derate_delay(d.rise, rise);
                d.fall = derate_delay(d.fall, fall);
            }
        }
    }

    /// This group's delay view of `level` for the merge kernel.
    pub(super) fn level_view(&self, level: usize) -> GroupDelays<'_> {
        let segs = if self.owns_copy() {
            self.bufs.iter().map(Vec::as_slice).collect()
        } else {
            self.tables
                .iter()
                .map(|t| t.per_level[level].as_slice())
                .collect()
        };
        GroupDelays {
            segs,
            boundaries: self.assign.boundaries(),
        }
    }
}

/// One voltage group's delay view of a level: one pin-delay slice per
/// schedule segment plus the segment boundaries that select among them.
/// `segs.len() == 1` with empty `boundaries` is the static case.
pub(super) struct GroupDelays<'l> {
    pub(super) segs: Vec<&'l [PinDelays]>,
    pub(super) boundaries: &'l [f64],
}
