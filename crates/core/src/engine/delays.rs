//! Delay initialisation (paper Sec. IV.A): scaling every gate's nominal
//! pin delays by the delay-kernel factor at a slot's operating point.
//!
//! "The delay calculations of threads from parallel instances of a gate
//! utilize the same coefficients and delay function calls", so each piece
//! of the work is done once per thing it depends on. Scaling depends on
//! the supply: it is done once per *voltage group* — the slots of a batch
//! that share a voltage assignment and a Monte Carlo die — and it is
//! written once: [`CompiledNetlist::level_delays`] scales one level for
//! one supply assignment. A per-voltage [`DelayTable`] is that routine
//! looped over levels and cached on the artifact; uniform and scheduled
//! groups read the cache (one table per segment). Only voltage islands
//! (no single supply to key a table by) and armed fault plans (factor
//! corruption is keyed per run and round) call the routine per launch.
//! Process variation depends on the die alone — not on the schedule, the
//! segment or the batch: [`draw_level_derates`] draws a die's derates
//! for one level once, and every group of the batch that carries the die
//! multiplies its level slices by that one vector
//! ([`VoltageGroup::derate_level`]). The vector is scratch: nothing
//! drawn outlives its level.

use super::{VariationSample, VoltageAssign};
use crate::compile::CompiledNetlist;
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
    /// Non-finite scaled delays that fell back to nominal while the
    /// table was built, per level — replayed into
    /// [`RunDiagnostics::kernel_fallbacks`](crate::RunDiagnostics::kernel_fallbacks)
    /// for every launch the table serves, so cached and uncached runs
    /// report identical diagnostics.
    pub(crate) fallbacks_per_level: Vec<u64>,
}

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

/// Runs model code for one voltage group, containing a panic to that
/// group.
fn contained<T>(f: impl FnOnce() -> Result<T, SimError>) -> Result<T, DelayFault> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(DelayFault::Model(e)),
        Err(_) => Err(DelayFault::Panicked),
    }
}

impl CompiledNetlist {
    /// The delay-initialisation routine: scales the nominal pin delays
    /// of `level`'s gates by the kernel factor at each gate's
    /// `(v_norm(node), φ_C(load))` into `out` (cleared first, laid out
    /// like [`DelayTable::per_level`]) and returns how many scaled delays
    /// fell back to nominal. `corrupt` is the fault-injection seam on
    /// the raw factors (identity on clean runs).
    fn level_delays(
        &self,
        level: usize,
        v_norm: impl Fn(usize) -> f64,
        corrupt: impl Fn(f64) -> f64,
        out: &mut Vec<PinDelays>,
    ) -> Result<u64, SimError> {
        out.clear();
        let mut fallbacks = 0u64;
        for &node_id in self.levels.level(level) {
            if let NodeKind::Gate(cell_id) = self.netlist.node(node_id).kind() {
                let p = NormalizedPoint {
                    v: v_norm(node_id.index()),
                    c: self.c_norm[node_id.index()],
                };
                for (pin, d) in self.annotation.node_delays(node_id).iter().enumerate() {
                    let f_rise = corrupt(self.model.factor(cell_id, pin, Polarity::Rise, p)?);
                    let f_fall = corrupt(self.model.factor(cell_id, pin, Polarity::Fall, p)?);
                    out.push(PinDelays {
                        rise: scale_or_fallback(d.rise, f_rise, &mut fallbacks),
                        fall: scale_or_fallback(d.fall, f_fall, &mut fallbacks),
                    });
                }
            }
        }
        Ok(fallbacks)
    }

    /// The artifact's cached delay table for one uniform normalized
    /// supply (keyed by the supply's bit pattern), built on first use by
    /// looping [`CompiledNetlist::level_delays`] over the levels. The
    /// build runs outside the cache lock, so a model error or panic
    /// caches nothing and poisons nothing.
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
        let table = Arc::new(contained(|| {
            let depth = self.levels.depth();
            let mut per_level = vec![Vec::new(); depth];
            let mut fallbacks_per_level = vec![0u64; depth];
            // Level 0 is the stimuli level: no gates, empty buffer.
            for level in 1..depth {
                fallbacks_per_level[level] =
                    self.level_delays(level, |_| v_norm, |f| f, &mut per_level[level])?;
            }
            Ok(DelayTable {
                per_level,
                fallbacks_per_level,
            })
        })?);
        if let Some(m) = metrics {
            let pins: usize = table.per_level.iter().map(Vec::len).sum();
            m.add(phases::ENGINE_KERNEL_EVALS, 2 * pins as u64);
            m.add(phases::ENGINE_DELAY_TABLE_BUILDS, 1);
        }
        lock().insert(key, Arc::clone(&table));
        Ok(table)
    }
}

/// What one level's delay initialisation of one voltage group cost.
#[derive(Default)]
pub(super) struct LevelInit {
    /// Scaled delays that fell back to nominal (replayed from the table
    /// for cached groups).
    pub(super) fallbacks: u64,
    /// Kernel factor evaluations performed now (0 for cached groups:
    /// theirs were counted when the table was built).
    pub(super) kernel_evals: u64,
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
    /// group's first batch member (a group shares one kernel evaluation,
    /// so the non-finite-kernel site is per group). Batches are
    /// die-major, so in a Monte Carlo launch that is the group's
    /// earliest scenario *of the die the batch carries* — a group is met
    /// once per die-batch, each time under that die's slot.
    key: u64,
    /// One cached table per segment; empty for groups that run the
    /// routine per launch (islands, armed fault plans).
    tables: Vec<Arc<DelayTable>>,
    /// One level buffer per segment: what uncached groups compute into
    /// and what a die's derated delays live in.
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
            bufs: vec![Vec::new(); assign.segments()],
        }
    }

    pub(super) fn matches(
        &self,
        assign: &VoltageAssign,
        variation: Option<VariationSample>,
    ) -> bool {
        // The die first: a cheap reject before the deep assignment compare.
        self.variation == variation && *self.assign == *assign
    }

    pub(super) fn key(&self) -> u64 {
        self.key
    }

    /// The die this group's delays are derated by (`None` = nominal).
    pub(super) fn variation(&self) -> Option<VariationSample> {
        self.variation
    }

    pub(super) fn is_cached(&self) -> bool {
        !self.tables.is_empty()
    }

    /// Binds a uniform or scheduled group to the artifact's cached
    /// tables, one per segment (so a droop schedule over an
    /// already-swept voltage grid pays no kernel work at all). Island
    /// groups have no single supply to key a table by and stay unbound.
    pub(super) fn bind_tables(
        &mut self,
        compiled: &CompiledNetlist,
        metrics: Option<&Metrics>,
    ) -> Result<(), DelayFault> {
        let v_norms = match self.assign {
            VoltageAssign::Uniform(v) => std::slice::from_ref(v),
            VoltageAssign::Scheduled(s) => s.v_norms.as_slice(),
            VoltageAssign::PerNode(_) => return Ok(()),
        };
        self.tables = v_norms
            .iter()
            .map(|&v| compiled.cached_delay_table(v, metrics))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Initializes this group's delays for `level`: cached groups replay
    /// their tables' fallback tallies, uncached groups run the routine
    /// (under one `catch_unwind`, with `corrupt` on the raw factors). A
    /// die's group is then derated by [`VoltageGroup::derate_level`] —
    /// the same operation order either way, so cached and uncached
    /// delays are bit-identical.
    pub(super) fn init_level(
        &mut self,
        compiled: &CompiledNetlist,
        level: usize,
        corrupt: impl Fn(f64) -> f64,
    ) -> Result<LevelInit, DelayFault> {
        let mut init = LevelInit::default();
        if self.is_cached() {
            init.fallbacks = self
                .tables
                .iter()
                .map(|t| t.fallbacks_per_level[level])
                .sum();
        } else {
            let (assign, bufs) = (self.assign, &mut self.bufs);
            init.fallbacks = contained(|| {
                let mut fallbacks = 0u64;
                for (seg, buf) in bufs.iter_mut().enumerate() {
                    let v_norm = |node| assign.v_norm_at(node, seg);
                    fallbacks += compiled.level_delays(level, v_norm, &corrupt, buf)?;
                }
                Ok(fallbacks)
            })?;
            // Two kernel evaluations (rise + fall) per pin per segment.
            init.kernel_evals = bufs.iter().map(|b| 2 * b.len() as u64).sum();
        }
        Ok(init)
    }

    /// Applies a die's `derates` ([`draw_level_derates`] of this group's
    /// die) to this level's scaled delays, copied out of the cached
    /// tables first. A derate multiplies the scaled delay after the
    /// fallback guard, the same factor in every segment; a nominal die
    /// multiplies by exactly 1.0.
    pub(super) fn derate_level(&mut self, level: usize, derates: &[(f64, f64)]) {
        for (buf, table) in self.bufs.iter_mut().zip(&self.tables) {
            buf.clear();
            buf.extend_from_slice(&table.per_level[level]);
        }
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
        let segs = if self.is_cached() && self.variation.is_none() {
            self.tables
                .iter()
                .map(|t| t.per_level[level].as_slice())
                .collect()
        } else {
            self.bufs.iter().map(Vec::as_slice).collect()
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
