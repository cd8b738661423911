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
//! group whose delays are a table slice verbatim reads it in place; an
//! island group gathers each gate from its domain's table into its own
//! copy of the level; a fault group reads one copy, its faulted gate's
//! level with the gate swapped in, made when the group binds. A
//! die is drawn once per level per batch ([`DieLevels::draw_level`],
//! hashing the die once, each gate once and each pin once for both
//! polarities), shared by every group carrying it, and applied as the
//! merge loop reads each delay ([`LevelDelays::pin`]).
//! Lane groups walk the levels independently, so a level's copies are
//! made by the first worker that opens the level for a slot that reads
//! them ([`BatchDelays::open`]) and live until the batch ends. A die's
//! levels are claimed in walk order: a worker that opens a level not
//! yet drawn draws the die's next unclaimed level, until its own is
//! drawn, so two workers on one die draw alternate levels instead of one
//! waiting on the other ([`BatchDelays::draw_until`]). After the release
//! the caller draws the levels of each opened die that no worker reached
//! ([`BatchDelays::draw_rest`]): every opened die is drawn whole.

use super::{SlotWork, VariationSample, VoltageAssign};
use crate::compile::CompiledNetlist;
use crate::domains::VoltageDomains;
use crate::phases;
use crate::SimError;
use avfs_delay::op::NormalizedPoint;
use avfs_delay::variation::DieDraw;
use avfs_netlist::library::Polarity;
use avfs_netlist::{NodeId, NodeKind};
use avfs_obs::Metrics;
use avfs_waveform::{segment_of, PinDelays};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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
fn scale_or_fallback(nominal: f64, factor: f64, fallbacks: &mut u64) -> f64 {
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

/// Runs delay-model work, a panic contained as [`DelayFault::Panicked`].
fn guarded<T>(work: impl FnOnce() -> Result<T, SimError>) -> Result<T, DelayFault> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(DelayFault::Model(e)),
        Err(_) => Err(DelayFault::Panicked),
    }
}

impl CompiledNetlist {
    /// The delay-initialisation routine: `nominal`, the pin delays of
    /// gate `node`, scaled by the kernel factor at `(v_norm, φ_C(load))`
    /// and appended to `out`. Returns how many fell back to nominal.
    pub(crate) fn gate_delays(
        &self,
        node: NodeId,
        nominal: &[PinDelays],
        v_norm: f64,
        out: &mut Vec<PinDelays>,
    ) -> Result<u64, SimError> {
        let NodeKind::Gate(cell_id) = self.netlist.node(node).kind() else {
            unreachable!("only gates carry scaled delays");
        };
        let p = NormalizedPoint {
            v: v_norm,
            c: self.c_norm[node.index()],
        };
        let mut fallbacks = 0u64;
        for (pin, d) in nominal.iter().enumerate() {
            let f_rise = self.model.factor(cell_id, pin, Polarity::Rise, p)?;
            let f_fall = self.model.factor(cell_id, pin, Polarity::Fall, p)?;
            out.push(PinDelays {
                rise: scale_or_fallback(d.rise, f_rise, &mut fallbacks),
                fall: scale_or_fallback(d.fall, f_fall, &mut fallbacks),
            });
        }
        Ok(fallbacks)
    }

    /// One level of a [`DelayTable`]: [`CompiledNetlist::gate_delays`] over
    /// `level`'s annotated gates, and the gates that fell back to nominal.
    fn level_delays(
        &self,
        level: usize,
        v_norm: f64,
    ) -> Result<(Vec<PinDelays>, GateFallbacks), SimError> {
        let (mut out, mut fallbacks) = (Vec::new(), Vec::new());
        for (pos, &node) in self.level_plans[level].gate_nodes.iter().enumerate() {
            let n = self.gate_delays(node, self.annotation.node_delays(node), v_norm, &mut out)?;
            if n > 0 {
                fallbacks.push((pos, n));
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
        let table = Arc::new(guarded(build)?);
        if let Some(m) = metrics {
            let pins: usize = table.per_level.iter().map(Vec::len).sum();
            m.add(phases::ENGINE_KERNEL_EVALS, 2 * pins as u64);
            m.add(phases::ENGINE_DELAY_TABLE_BUILDS, 1);
        }
        lock().insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// The artifact's cached delay table at supply `voltage`, built on
    /// first use — what a uniform launch at `voltage` reads, shared with
    /// the STA oracle (`crate::sta::scaled_graph`) so that both price
    /// every arc from one table.
    ///
    /// # Errors
    ///
    /// [`SimError::Model`] when the delay model rejects the operating
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if the delay model panicked building the table.
    pub(crate) fn supply_table(&self, voltage: f64) -> Result<Arc<DelayTable>, SimError> {
        match self.cached_delay_table(self.v_norm(voltage), None) {
            Ok(table) => Ok(table),
            Err(DelayFault::Model(e)) => Err(e),
            Err(DelayFault::Panicked) => {
                panic!("the delay model panicked scaling the delays at {voltage} V")
            }
        }
    }
}

/// A die's draw of one level: one `(rise, fall)` derate pair per fanin
/// pin, laid out like [`DelayTable::per_level`].
type LevelDerates = Vec<(f64, f64)>;

/// One die of a batch, drawn level by level in walk order by whichever
/// workers need it ([`BatchDelays::draw_until`]).
struct DieLevels {
    draw: DieDraw,
    /// The next level no worker has claimed to draw.
    next: AtomicUsize,
    /// `levels[level]`: the die's derates of `level`, drawn once.
    levels: Vec<OnceLock<LevelDerates>>,
}

impl DieLevels {
    /// Draws `level` unless it is drawn, counting its hashes into
    /// `draws`; returns once it is drawn (by this call or one in flight).
    /// Derates are hashed per (die, node, pin, polarity) — segment-,
    /// schedule- and batch-independent — so one vector serves every
    /// voltage group carrying the die.
    fn draw_level(&self, compiled: &CompiledNetlist, level: usize, draws: &AtomicU64) {
        self.levels[level].get_or_init(|| {
            let plan = &compiled.level_plans[level];
            let mut out = Vec::with_capacity(plan.gate_offsets.last().copied().unwrap_or(0));
            for &node in &plan.gate_nodes {
                let key = self.draw.node_key(node);
                for pin in 0..compiled.annotation.node_delays(node).len() {
                    let pin = self.draw.pin(key, pin);
                    let derate = |polarity| self.draw.derate(pin, polarity);
                    out.push((derate(Polarity::Rise), derate(Polarity::Fall)));
                }
            }
            draws.fetch_add(2 * out.len() as u64, Ordering::Relaxed);
            out
        });
    }
}

/// The slots of a batch that share one delay initialisation: same
/// voltage assignment, same Monte Carlo die (variation derates the
/// initialized delays, so sampled slots only share a group with slots of
/// the same die) and same small-delay fault.
pub(super) struct VoltageGroup<'w> {
    /// The first slot's work, whose assignment, die and fault the group
    /// shares.
    work: &'w SlotWork,
    /// The artifact's tables this group reads, one per entry of
    /// [`VoltageAssign::v_norms`]: per segment of a uniform or scheduled
    /// assignment, per domain of an island assignment.
    tables: Vec<Arc<DelayTable>>,
    /// The fault's gate, bound with the tables.
    faulted: Option<FaultedGate>,
}

/// A fault group's gate: its level and the group's one own copy — the
/// level's table slice with the gate's pins, `δ` added, scaled in place
/// of the gate's, bitwise a faulty table's level.
struct FaultedGate {
    level: usize,
    copy: LevelCopy,
}

impl<'w> VoltageGroup<'w> {
    pub(super) fn new(work: &'w SlotWork) -> Self {
        VoltageGroup {
            work,
            tables: Vec::new(),
            faulted: None,
        }
    }

    pub(super) fn matches(&self, work: &SlotWork) -> bool {
        // Cheap rejects before the assignment compare.
        self.work.variation == work.variation
            && self.work.fault == work.fault
            && self.work.assign == work.assign
    }

    /// Binds the group to the artifact's cached tables (so a droop or an
    /// island over an already-swept voltage grid pays no kernel work at
    /// all), and a fault group to its faulted gate: `nominal + δ` scaled
    /// by [`CompiledNetlist::gate_delays`] into a copy of its level.
    pub(super) fn bind_tables(
        &mut self,
        compiled: &CompiledNetlist,
        metrics: Option<&Metrics>,
    ) -> Result<(), DelayFault> {
        self.tables = self
            .work
            .assign
            .v_norms()
            .iter()
            .map(|&v| compiled.cached_delay_table(v, metrics))
            .collect::<Result<_, _>>()?;
        let Some(fault) = self.work.fault else {
            return Ok(());
        };
        let nominal: Vec<PinDelays> = fault.pins(&compiled.annotation).collect();
        let level = compiled.levels.level_of(fault.node) as usize;
        let plan = &compiled.level_plans[level];
        let at = plan.gate_nodes.iter().position(|&g| g == fault.node);
        let at = at.expect("a gate is planned at its level");
        let (table, v_norm) = (&self.tables[0], self.work.assign.v_norms()[0]);
        let slice = &table.per_level[level];
        let mut delays = slice[..plan.gate_offsets[at]].to_vec();
        let own = guarded(|| compiled.gate_delays(fault.node, &nominal, v_norm, &mut delays))?;
        delays.extend_from_slice(&slice[plan.gate_offsets[at + 1]..]);
        if let Some(m) = metrics {
            m.add(phases::ENGINE_KERNEL_EVALS, 2 * nominal.len() as u64);
        }
        let others = table.fallbacks_per_level[level]
            .iter()
            .filter(|&&(pos, _)| pos != at);
        let fallbacks = own + others.map(|&(_, n)| n).sum::<u64>();
        let copy = LevelCopy { delays, fallbacks };
        self.faulted = Some(FaultedGate { level, copy });
        Ok(())
    }

    /// Whether this group's delays differ from a table slice at every
    /// level, so it reads its own copy of each: an island group.
    fn owns_copy(&self) -> bool {
        matches!(self.work.assign, VoltageAssign::PerDomain(_))
    }

    /// This island group's own copy of `level`: each gate's pins gathered
    /// from its domain's table in `domains`, the launch's map.
    fn level_copy(
        &self,
        compiled: &CompiledNetlist,
        domains: Option<&VoltageDomains>,
        level: usize,
    ) -> LevelCopy {
        let plan = &compiled.level_plans[level];
        let domains = domains.expect("an island launch carries its domain map");
        let (mut delays, mut fallbacks) = (Vec::new(), 0u64);
        for (pos, &node) in plan.gate_nodes.iter().enumerate() {
            let table = &self.tables[domains.domain_of(node)];
            delays.extend_from_slice(
                &table.per_level[level][plan.gate_offsets[pos]..plan.gate_offsets[pos + 1]],
            );
            let gates = &table.fallbacks_per_level[level];
            fallbacks += gates
                .binary_search_by_key(&pos, |&(p, _)| p)
                .map_or(0, |i| gates[i].1);
        }
        LevelCopy { delays, fallbacks }
    }
}

/// A voltage group's own copy of one level and how many of one slot's
/// delays in it fell back to nominal.
struct LevelCopy {
    delays: Vec<PinDelays>,
    fallbacks: u64,
}

/// A batch's delay views, level by level, for workers that walk the
/// levels independently: a group that reads its tables in place needs
/// nothing per level; a die's draw of a level and a group's own copy of
/// a level are made once per batch, by the first worker to open that
/// level for a slot that reads them, and kept until the batch ends.
pub(super) struct BatchDelays<'b> {
    compiled: &'b CompiledNetlist,
    domains: Option<&'b VoltageDomains>,
    groups: &'b [VoltageGroup<'b>],
    /// The batch's distinct dice, in group order.
    dice: Vec<DieLevels>,
    /// Per voltage group, its die's index in `dice`.
    die_of: Vec<Option<usize>>,
    /// `copies[group][level]` for the groups that own copies (empty for
    /// the others).
    copies: Vec<Vec<OnceLock<LevelCopy>>>,
    /// Hashes the draws ran.
    draws: AtomicU64,
}

impl<'b> BatchDelays<'b> {
    /// Delay views for the bound voltage `groups` of one batch
    /// (`domains` is the launch's island map, if any).
    pub(super) fn new(
        compiled: &'b CompiledNetlist,
        domains: Option<&'b VoltageDomains>,
        groups: &'b [VoltageGroup<'b>],
    ) -> Self {
        fn per_level<T>(compiled: &CompiledNetlist) -> Vec<OnceLock<T>> {
            (0..compiled.levels.depth())
                .map(|_| OnceLock::new())
                .collect()
        }
        let mut dice: Vec<VariationSample> = Vec::new();
        let die_of = groups
            .iter()
            .map(|g| {
                let die = g.work.variation?;
                Some(dice.iter().position(|&d| d == die).unwrap_or_else(|| {
                    dice.push(die);
                    dice.len() - 1
                }))
            })
            .collect();
        BatchDelays {
            compiled,
            domains,
            groups,
            dice: dice
                .iter()
                .map(|die| DieLevels {
                    draw: DieDraw::new(&die.config, die.sample),
                    next: AtomicUsize::new(0),
                    levels: per_level(compiled),
                })
                .collect(),
            die_of,
            copies: groups
                .iter()
                .map(|g| {
                    if g.owns_copy() {
                        per_level(compiled)
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            draws: AtomicU64::new(0),
        }
    }

    /// Voltage group `group`'s own copy of `level`, if it reads one
    /// rather than a table slice in place: an island group's (made here
    /// by the first worker to ask), or a fault group's at its faulted
    /// gate's level (made at bind time).
    fn own_copy(&self, group: usize, level: usize) -> Option<&LevelCopy> {
        let g = &self.groups[group];
        if let Some(copy) = self.copies[group].get(level) {
            return Some(copy.get_or_init(|| g.level_copy(self.compiled, self.domains, level)));
        }
        let faulted = g.faulted.as_ref()?;
        (faulted.level == level).then_some(&faulted.copy)
    }

    /// Readies voltage group `group`'s delays of `level` — its die's
    /// draw and its own copy, whichever it reads and no worker made yet —
    /// and returns how many of one slot's delays fell back to nominal:
    /// the tables' tallies of the gates the group reads.
    pub(super) fn open(&self, group: usize, level: usize) -> u64 {
        if let Some(die) = self.die_of[group] {
            self.draw_until(die, level);
        }
        match self.own_copy(group, level) {
            Some(copy) => copy.fallbacks,
            None => self.groups[group]
                .tables
                .iter()
                .flat_map(|t| &t.fallbacks_per_level[level])
                .map(|&(_, n)| n)
                .sum(),
        }
    }

    /// Voltage group `group`'s delay view of `level`, which
    /// [`BatchDelays::open`] readied.
    pub(super) fn level(&self, group: usize, level: usize) -> LevelDelays<'_> {
        let (g, own) = (&self.groups[group], self.own_copy(group, level));
        let assign = &g.work.assign;
        let (first, tables): (&[PinDelays], &[Arc<DelayTable>]) = match own {
            Some(copy) => (copy.delays.as_slice(), &[]),
            None if assign.segments() == 1 => (g.tables[0].per_level[level].as_slice(), &[]),
            None => (&[], g.tables.as_slice()),
        };
        LevelDelays {
            first,
            tables,
            level,
            boundaries: assign.boundaries(),
            derates: self.die_of[group].map(|die| {
                self.dice[die].levels[level]
                    .get()
                    .expect("drawn at open")
                    .as_slice()
            }),
        }
    }

    /// Draws die `die` until its `level` is drawn: while it is not, the
    /// caller claims the die's next unclaimed level in walk order and
    /// draws it, so workers that open the same die draw different
    /// levels instead of one waiting on the other's draw. Once every
    /// level is claimed, the caller waits only on a draw of `level`
    /// already in flight.
    fn draw_until(&self, die: usize, level: usize) {
        let die = &self.dice[die];
        while die.levels[level].get().is_none() {
            let next = die.next.fetch_add(1, Ordering::Relaxed);
            let claimed = if next < die.levels.len() { next } else { level };
            die.draw_level(self.compiled, claimed, &self.draws);
        }
    }

    /// Draws every level no worker reached of each die a worker opened,
    /// after the release: the workers draw ahead of their walks, as far
    /// as timing takes them, so only whole dice make the draw count a
    /// function of the launch and its batch cut. Levels are left undrawn
    /// only when a die's slots all died before its walks ended.
    pub(super) fn draw_rest(&self) {
        for die in &self.dice {
            if die.next.load(Ordering::Relaxed) > 0 {
                for level in 0..die.levels.len() {
                    die.draw_level(self.compiled, level, &self.draws);
                }
            }
        }
    }

    /// Hashes the batch's die draws ran: two (rise and fall) per
    /// annotated pin per level of each die a worker opened, whichever
    /// worker drew, once [`BatchDelays::draw_rest`] ran.
    pub(super) fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }
}

/// One voltage group's delays of one level, as the merge loop reads
/// them ([`LevelDelays::pin`]).
pub(super) struct LevelDelays<'l> {
    /// The one slice every event reads: a static group's table slice, or
    /// the group's own copy. Empty for a scheduled group reading
    /// `tables` in place.
    first: &'l [PinDelays],
    /// A scheduled group's per-segment tables (empty otherwise).
    tables: &'l [Arc<DelayTable>],
    level: usize,
    boundaries: &'l [f64],
    /// The die's draw of the level, applied as each delay is read.
    derates: Option<&'l [(f64, f64)]>,
}

impl LevelDelays<'_> {
    /// The delays of flat pin index `idx` (the level plan's
    /// `gate_offsets[pos] + pin`) for an input event at cause time `t`:
    /// the segment `t` falls in, derated by the die after the fallback
    /// guard — the same factor in every segment, exactly 1.0 on a
    /// nominal die.
    #[inline]
    pub(super) fn pin(&self, t: f64, idx: usize) -> PinDelays {
        let d = if self.tables.is_empty() {
            self.first[idx]
        } else {
            self.tables[segment_of(self.boundaries, t)].per_level[self.level][idx]
        };
        match self.derates {
            None => d,
            Some(derates) => PinDelays {
                rise: derate_delay(d.rise, derates[idx].0),
                fall: derate_delay(d.fall, derates[idx].1),
            },
        }
    }
}
