//! One batch of a launch: as many slots as fit the arena, simulated
//! level by level with a barrier per level (paper Fig. 3) in named
//! phases — stimuli, voltage grouping, delay initialisation, activity
//! gating, dispatch, barrier, analysis.

use super::delays::{draw_level_derates, DelayFault, GroupDelays, VoltageGroup};
use super::{RunCtx, RunState, VariationSample, MAX_STEAL_CHUNK, STEAL_GRABS_PER_WORKER};
use crate::compile::LevelPlan;
use crate::phases;
use crate::pool::WorkerPool;
use crate::results::{SlotResult, SlotStatus};
use crate::SimError;
use avfs_inject::InjectionSite;
use avfs_obs::time_option;
use avfs_waveform::{
    merge_transitions, segment_of, CapacityOverflow, GateScratch, LaneLayout, LevelWriter,
    OverflowHook, SwitchingActivity, Waveform, WaveformArena, WaveformStats, WaveformView,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Lane tasks (one lane of one gate) an epoch needs before waking the
/// pool pays: a release is a mutex + condvar round trip of ~35 µs per
/// epoch against ~0.1 µs per lane task, so a level below the threshold
/// finishes on the coordinator before a second worker would have
/// started. Chosen from the sweeps recorded in EXPERIMENTS.md E5 (the
/// second one at today's per-task cost); not an option, because no
/// caller has a better number than the measurement.
const POOLED_EPOCH_LANE_TASKS: usize = 2048;

/// Most pins a gate of the level plan has.
const MAX_PINS: usize = avfs_netlist::CellKind::MAX_INPUTS;

/// Why a slot died within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dead {
    /// A gate's output outgrew the bounded arena — retry at larger
    /// capacity.
    Overflow,
    /// The slot's evaluation panicked — contained, no retry.
    Panic,
    /// The run's wall-clock deadline expired at a level barrier — the
    /// slot is abandoned, no retry.
    Deadline,
}

/// One batch in flight: `chunk` indexes into the launch's work list.
pub(super) struct Batch<'c> {
    ctx: &'c RunCtx<'c>,
    chunk: &'c [usize],
    round: u32,
    /// The lane-major (slot-packed) address map of this batch: chunk
    /// slots are grouped `L` at a time and one net's `L` waveforms are
    /// stored contiguously, so every per-gate pass advances a whole lane
    /// group. `L = 1` degenerates exactly to the slot-major layout,
    /// which is what the determinism matrix compares against.
    layout: LaneLayout,
    /// Per-slot fault status. A dead slot's remaining work is skipped;
    /// flags are only updated at level barriers so the schedule stays
    /// deterministic.
    dead: Vec<Option<Dead>>,
    groups: Vec<VoltageGroup<'c>>,
    group_of_slot: Vec<usize>,
    /// Per-slot switching activity, accumulated where a cell is written:
    /// stimuli and output passthroughs on the coordinator, gate outputs
    /// by the workers, which fold their own tallies in once per epoch.
    /// Sums and one maximum, so the fold order cannot matter. Constant
    /// cells add nothing, and `nets` is filled in at analysis.
    activity: Mutex<Vec<SwitchingActivity>>,
    fallbacks: u64,
    /// Scratch for the die being applied this level (see
    /// [`Batch::init_delays`]); nothing drawn outlives its level.
    derates: Vec<(f64, f64)>,
    variation_draws: u64,
}

/// Shared per-level context handed to the device threads. The task grid
/// is `live_groups × plan.gate_nodes`: scheduled entry `(gt, mask)`
/// evaluates gate `gt % gates` of the plan for every lane set in `mask`
/// of lane group `live_groups[gt / gates]`.
struct LevelCtx<'l> {
    /// The level's gates (outputs are barrier passthroughs, not tasks).
    plan: &'l LevelPlan,
    /// `delays[group].segs[segment][plan.gate_offsets[pos] + pin]` —
    /// modified pin delays per voltage group and schedule segment.
    delays: Vec<GroupDelays<'l>>,
    /// Lane groups with at least one live lane at the start of the level,
    /// as `(group index, live-lane mask)`.
    live_groups: &'l [(usize, u64)],
}

impl<'c> Batch<'c> {
    /// Grouping phase: lays the chunk out lane-major and sorts its slots
    /// into voltage groups, so delay initialisation runs once per
    /// (level, group) instead of once per (slot, gate).
    pub(super) fn new(ctx: &'c RunCtx<'c>, chunk: &'c [usize], round: u32) -> Self {
        let nodes = ctx.compiled.netlist.num_nodes();
        let mut groups: Vec<VoltageGroup<'c>> = Vec::new();
        let group_of_slot = chunk
            .iter()
            .map(|&slot| {
                let w = &ctx.work[slot];
                groups
                    .iter()
                    .position(|g| g.matches(&w.assign, w.variation))
                    .unwrap_or_else(|| {
                        groups.push(VoltageGroup::new(&w.assign, w.variation, slot as u64));
                        groups.len() - 1
                    })
            })
            .collect();
        Batch {
            ctx,
            chunk,
            round,
            layout: LaneLayout::new(ctx.options.resolved_lanes(), nodes.max(1), chunk.len()),
            dead: vec![None; chunk.len()],
            groups,
            group_of_slot,
            activity: Mutex::new(vec![SwitchingActivity::default(); chunk.len()]),
            fallbacks: 0,
            derates: Vec::new(),
            variation_draws: 0,
        }
    }

    /// Simulates the batch against the bounded `arena`. Slots that
    /// overflow the arena are appended to `overflowed` for the caller's
    /// retry loop; slots whose evaluation panics are contained and
    /// recorded as failed. Only errors affecting the whole run (a
    /// delay-model error) propagate as `Err`.
    pub(super) fn run(
        mut self,
        arena: &mut WaveformArena,
        state: &mut RunState,
        overflowed: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let metrics = self.ctx.metrics;
        arena.reset();
        time_option(metrics, phases::ENGINE_STIMULI, || self.stimuli(arena));
        self.bind_delay_tables()?;
        // Levels 1…L: the vertical dimension with a barrier per level.
        for level in 1..self.ctx.compiled.levels.depth() {
            if self.dead.iter().all(Option::is_some) {
                break;
            }
            if self.ctx.compiled.levels.level(level).is_empty() {
                continue;
            }
            if let Some(m) = metrics {
                m.add(phases::ENGINE_LEVELS, 1);
            }
            self.init_delays(level);
            let live_groups = self.live_lane_groups();
            if live_groups.is_empty() {
                continue;
            }
            if let Some(m) = metrics {
                m.add(phases::ENGINE_LANES_GROUPS, live_groups.len() as u64);
            }
            let verdicts = time_option(metrics, phases::ENGINE_WAVEFORM_MERGE, || {
                self.merge_level(level, &live_groups, arena)
            });
            time_option(metrics, phases::ENGINE_BARRIER, || {
                self.barrier(level, &live_groups, verdicts, arena);
            });
            // Level-barrier progress bump (the watchdog's liveness signal)
            // and the cooperative deadline check: a level runs to its
            // barrier, then every still-live slot of an expired batch is
            // abandoned at once.
            if let Some(wd) = &self.ctx.watchdog {
                wd.progress();
            }
            if self.ctx.deadline_expired() {
                for d in self.dead.iter_mut().filter(|d| d.is_none()) {
                    *d = Some(Dead::Deadline);
                }
                break;
            }
        }
        state.diag.kernel_fallbacks += self.fallbacks;
        if let Some(m) = metrics.filter(|_| self.variation_draws > 0) {
            m.add(phases::ENGINE_VARIATION_DRAWS, self.variation_draws);
        }
        time_option(metrics, phases::ENGINE_ANALYSIS, || {
            self.analyze(arena, state, overflowed);
        });
        Ok(())
    }

    /// Level 0: stimuli waveforms, one pattern pair per slot, launched
    /// at t = 0 (where every `Schedule` is anchored).
    fn stimuli(&mut self, arena: &mut WaveformArena) {
        let ctx = self.ctx;
        let layout = self.layout;
        let activity = self.activity.get_mut().expect("activity lock");
        for (si, &slot) in self.chunk.iter().enumerate() {
            let pair = &ctx.patterns.pairs()[ctx.work[slot].pattern];
            for (k, &pi) in ctx.compiled.netlist.inputs().iter().enumerate() {
                let wf = Waveform::from_pattern(pair.launch.bit(k), pair.capture.bit(k), 0.0);
                match arena.write(layout.index(si, pi.index()), &wf) {
                    Ok(()) => activity[si].record(&WaveformStats::of(&wf)),
                    Err(_) => self.dead[si] = Some(Dead::Overflow),
                }
            }
        }
    }

    /// Marks every still-live slot of voltage group `g` dead.
    fn kill_group(&mut self, g: usize, verdict: Dead) {
        for (d, &gg) in self.dead.iter_mut().zip(&self.group_of_slot) {
            if gg == g && d.is_none() {
                *d = Some(verdict);
            }
        }
    }

    /// Delay initialisation, batch half: binds every voltage group to
    /// the artifact's per-voltage tables and probes the injected
    /// non-finite kernel once per group, keyed (group, round).
    fn bind_delay_tables(&mut self) -> Result<(), SimError> {
        let ctx = self.ctx;
        // Table fetches (and first-use builds) are delay-kernel work.
        let _span = ctx.metrics.map(|m| m.span(phases::ENGINE_DELAY_KERNEL));
        let mut all_bound = true;
        for g in 0..self.groups.len() {
            let poisoned = ctx.injector.fires(
                InjectionSite::NonFiniteKernel,
                self.groups[g].key(),
                u64::from(self.round),
            );
            match self.groups[g].bind_tables(ctx.compiled, ctx.metrics, poisoned) {
                Ok(()) => {}
                Err(DelayFault::Model(e)) => return Err(e),
                Err(DelayFault::Panicked) => {
                    all_bound = false;
                    self.kill_group(g, Dead::Panic);
                }
            }
        }
        if let Some(m) = ctx.metrics.filter(|_| all_bound) {
            m.add(phases::ENGINE_DELAY_TABLE_HITS, 1);
        }
        Ok(())
    }

    /// Delay initialisation, level half: every voltage group still live
    /// this level (a group is live while any of its slots is) reads its
    /// pin delays for `level` from its tables, and a die's groups are
    /// derated by one shared draw of the die. Groups are met in batch
    /// order, which is die-major, so a die's groups are adjacent and the
    /// die is drawn once per level; the values never depend on that
    /// order, only the draw count does.
    fn init_delays(&mut self, level: usize) {
        let ctx = self.ctx;
        let _span = ctx.metrics.map(|m| m.span(phases::ENGINE_DELAY_KERNEL));
        // The die whose derates for this level `self.derates` holds.
        let mut drawn: Option<VariationSample> = None;
        for g in 0..self.groups.len() {
            let live = self
                .group_of_slot
                .iter()
                .zip(&self.dead)
                .any(|(&gg, d)| gg == g && d.is_none());
            if !live {
                continue;
            }
            self.fallbacks += self.groups[g].init_level(ctx.compiled, ctx.domains, level);
            if let Some(die) = self.groups[g].variation() {
                if drawn != Some(die) {
                    self.variation_draws +=
                        draw_level_derates(ctx.compiled, level, &die, &mut self.derates);
                    drawn = Some(die);
                }
                self.groups[g].derate_level(&self.derates);
            }
        }
    }

    /// The lane groups of the level's task grid: dead lanes are masked
    /// out of their group's live mask up front, so neither round 0 nor
    /// retry rounds ever evaluate a quarantined slot's lanes; a fully
    /// dead group is dropped from the grid.
    fn live_lane_groups(&self) -> Vec<(usize, u64)> {
        (0..self.layout.groups())
            .filter_map(|g| {
                let mut mask = 0u64;
                for lane in 0..self.layout.group_width(g) {
                    if self.dead[self.layout.group_slot(g) + lane].is_none() {
                        mask |= 1 << lane;
                    }
                }
                (mask != 0).then_some((g, mask))
            })
            .collect()
    }

    /// Evaluates the level's live lane groups × gates and returns the
    /// fault verdicts `(slot-major grid index, fault)` the workers
    /// collected.
    fn merge_level(
        &self,
        level: usize,
        live_groups: &[(usize, u64)],
        arena: &mut WaveformArena,
    ) -> Vec<(usize, Dead)> {
        let ctx = self.ctx;
        let plan = &ctx.compiled.level_plans[level];
        // Per-(slot, gate) grid size — the unit the activity counters
        // are denominated in, independent of the lane width.
        let live_count = self.dead.iter().filter(|d| d.is_none()).count();
        let grid_tasks = live_count * plan.gate_nodes.len();
        if grid_tasks == 0 {
            return Vec::new();
        }
        let level_ctx = LevelCtx {
            plan,
            delays: self.groups.iter().map(|g| g.level_view(level)).collect(),
            live_groups,
        };
        // Injected forced overflow: an armed run installs a hook that
        // maps the written cell back to its global slot and asks the
        // plan; a firing cell reports CapacityOverflow exactly like a
        // real capacity miss, feeding the same quarantine-and-retry loop.
        let (chunk, layout, round) = (self.chunk, self.layout, u64::from(self.round));
        let overflow_hook = ctx.injector.is_armed().then_some(move |idx: usize| {
            let slot = chunk[layout.slot_of(idx)] as u64;
            ctx.injector
                .fires(InjectionSite::ArenaOverflow, slot, round)
        });
        // The epoch writer: workers publish this level's cells into the
        // arena themselves (claim-guarded, cell-disjoint, a block per
        // stolen chunk) while reading only previous levels' cells — no
        // per-task waveform allocation, no serial write-back.
        let writer = arena.level_writer(overflow_hook.as_ref().map(|h| h as &OverflowHook));
        // The scheduled task list: (lane-group grid index, eval mask)
        // pairs — the surviving active lanes when gated, the whole grid
        // otherwise.
        let scheduled: Vec<(usize, u64)> = if ctx.options.activity_gating {
            time_option(ctx.metrics, phases::ENGINE_GATING, || {
                self.gate(&level_ctx, &writer, grid_tasks)
            })
        } else {
            let gates = plan.gate_nodes.len();
            live_groups
                .iter()
                .enumerate()
                .flat_map(|(gi, &(_, mask))| (0..gates).map(move |pos| (gi * gates + pos, mask)))
                .collect()
        };
        if scheduled.is_empty() {
            return Vec::new();
        }
        self.dispatch(&level_ctx, &writer, &scheduled)
    }

    /// Activity gating, lane-packed: a gate whose fanin cells are all
    /// quiet (zero transitions) has a constant output. Per (lane group,
    /// gate) the quiet lanes are found with word-wide quiet-bit reads,
    /// the constant outputs computed with one bit-parallel `eval_lanes`
    /// word op, and written back under a single masked run claim — the
    /// coordinator resolves whole lane words at once and only lanes with
    /// active fanin survive into the returned task list. The scan claims
    /// runs in (group, gate) order on one thread, so the schedule stays
    /// deterministic; retry rounds re-derive quiet bits from the
    /// surviving lanes' freshly written cells.
    fn gate(
        &self,
        level_ctx: &LevelCtx<'_>,
        writer: &LevelWriter<'_>,
        grid_tasks: usize,
    ) -> Vec<(usize, u64)> {
        let plan = level_ctx.plan;
        let layout = self.layout;
        let gates = plan.gate_nodes.len();
        let mut active: Vec<(usize, u64)> = Vec::new();
        let mut quiet_lanes = 0u64;
        for (gi, &(g, live_mask)) in level_ctx.live_groups.iter().enumerate() {
            let w = layout.group_width(g);
            for (pos, pins) in plan.gate_offsets.windows(2).enumerate() {
                let fanin = &plan.gate_fanin[pins[0]..pins[1]];
                let mut quiet = live_mask;
                for f in fanin {
                    if quiet == 0 {
                        break;
                    }
                    quiet &= writer.quiet_run(layout.run_start(g, f.index()), w);
                }
                if quiet != 0 {
                    let mut fan_words = [0u64; MAX_PINS];
                    for (word, f) in fan_words.iter_mut().zip(fanin) {
                        *word = writer.initial_run(layout.run_start(g, f.index()), w);
                    }
                    writer.write_constant_run(
                        layout.run_start(g, plan.gate_nodes[pos].index()),
                        quiet,
                        plan.gate_functions[pos].eval_lanes(&fan_words[..fanin.len()]),
                    );
                    quiet_lanes += u64::from(quiet.count_ones());
                }
                let rest = live_mask & !quiet;
                if rest != 0 {
                    active.push((gi * gates + pos, rest));
                }
            }
        }
        if let Some(m) = self.ctx.metrics {
            m.add(phases::ENGINE_GATES_SKIPPED_QUIET, quiet_lanes);
            let active_lanes: u64 = active
                .iter()
                .map(|&(_, mask)| u64::from(mask.count_ones()))
                .sum();
            m.record(
                phases::ENGINE_LEVEL_ACTIVITY,
                active_lanes * 100 / grid_tasks as u64,
            );
        }
        active
    }

    /// Runs the level's scheduled tasks — on the pool when the epoch is
    /// worth a wake-up, on the coordinator otherwise — and returns the
    /// fault verdicts. The choice depends on the scheduled work alone,
    /// never on timing, and either arm claims, writes and reports the
    /// same cells, so results are independent of it.
    fn dispatch(
        &self,
        level_ctx: &LevelCtx<'_>,
        writer: &LevelWriter<'_>,
        scheduled: &[(usize, u64)],
    ) -> Vec<(usize, Dead)> {
        let ctx = self.ctx;
        let lane_tasks = || -> usize {
            scheduled
                .iter()
                .map(|&(_, mask)| mask.count_ones() as usize)
                .sum()
        };
        let pool = ctx
            .pool
            .workers()
            .filter(|_| lane_tasks() >= POOLED_EPOCH_LANE_TASKS);
        let workers = pool.map_or(1, WorkerPool::size).clamp(1, scheduled.len());
        let epoch = Epoch {
            batch: self,
            level_ctx,
            writer,
            scheduled,
            cursor: AtomicUsize::new(0),
            chunk_tasks: (scheduled.len() / (workers * STEAL_GRABS_PER_WORKER))
                .clamp(1, MAX_STEAL_CHUNK),
            verdicts: Mutex::new(Vec::new()),
        };
        if let Some(m) = ctx.metrics {
            m.add(phases::ENGINE_EPOCHS_POOLED, u64::from(pool.is_some()));
            m.add(phases::ENGINE_EPOCHS_INLINE, u64::from(pool.is_none()));
        }
        match pool {
            Some(p) => {
                let idle = p.run(&|w| epoch.work(w), &ctx.injector, ctx.metrics.is_some());
                if let Some(m) = ctx.metrics {
                    m.record_duration(phases::ENGINE_POOL_IDLE, idle);
                }
            }
            None => epoch.work(0),
        }
        epoch
            .verdicts
            .into_inner()
            .expect("verdict lock survives (worker panics are contained)")
    }

    /// The barrier: primary-output passthroughs, then fault verdicts.
    /// Sorting by task index makes reconciliation independent of which
    /// worker stole which chunk — first fault in task order wins, exactly
    /// as a serial sweep would decide.
    fn barrier(
        &mut self,
        level: usize,
        live_groups: &[(usize, u64)],
        mut verdicts: Vec<(usize, Dead)>,
        arena: &mut WaveformArena,
    ) {
        let compiled = self.ctx.compiled;
        let plan = &compiled.level_plans[level];
        let layout = self.layout;
        let activity = self.activity.get_mut().expect("activity lock");
        for &(g, mask) in live_groups {
            let mut rem = mask;
            while rem != 0 {
                let lane = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let si = layout.group_slot(g) + lane;
                for &out in &plan.output_nodes {
                    let from = compiled.netlist.node(out).fanin()[0].index();
                    let to = layout.index(si, out.index());
                    arena.copy_cell(layout.index(si, from), to);
                    activity[si].record(&WaveformStats::of(&arena.view(to)));
                }
            }
        }
        verdicts.sort_unstable_by_key(|&(t, _)| t);
        for (t, verdict) in verdicts {
            let si = t / plan.gate_nodes.len();
            if self.dead[si].is_none() {
                self.dead[si] = Some(verdict);
            }
        }
    }

    /// Waveform analysis (Fig. 2, step 4) for surviving slots;
    /// quarantine verdicts for the rest.
    fn analyze(&self, arena: &WaveformArena, state: &mut RunState, overflowed: &mut Vec<usize>) {
        let ctx = self.ctx;
        let netlist = &ctx.compiled.netlist;
        let nodes = netlist.num_nodes();
        let layout = self.layout;
        let written = self.activity.lock().expect("activity lock");
        for (si, &slot) in self.chunk.iter().enumerate() {
            let status = match self.dead[si] {
                Some(Dead::Overflow) => {
                    overflowed.push(slot);
                    continue;
                }
                Some(Dead::Panic) => SlotStatus::Panicked,
                Some(Dead::Deadline) => SlotStatus::DeadlineExceeded,
                None => SlotStatus::Completed {
                    retries: self.round,
                },
            };
            if !status.is_completed() {
                state.fail(ctx.work, slot, status);
                continue;
            }
            let mut responses = Vec::with_capacity(netlist.outputs().len());
            let mut latest: Option<f64> = None;
            for &po in netlist.outputs() {
                let stats = WaveformStats::of(&arena.view(layout.index(si, po.index())));
                responses.push(stats.final_value);
                latest = match (latest, stats.latest_transition) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            // A completed slot wrote every one of its nets exactly once,
            // and the constant ones added nothing to the tally.
            let activity = SwitchingActivity {
                nets: nodes,
                ..written[si]
            };
            debug_assert_eq!(
                activity,
                SwitchingActivity::of((0..nodes).map(|net| arena.view(layout.index(si, net)))),
                "write-side activity of slot {slot} disagrees with its waveforms"
            );
            if let Some(m) = ctx.metrics {
                // The activity headroom gating exploits: quiet cells
                // observed over the whole window (recorded whether or not
                // gating is on).
                m.add(
                    phases::ENGINE_QUIET_CELLS,
                    (activity.nets - activity.active_nets) as u64,
                );
            }
            state.results[slot] = Some(SlotResult {
                spec: ctx.work[slot].spec(),
                status,
                responses,
                latest_output_transition_ps: latest,
                activity,
                waveforms: ctx.options.keep_waveforms.then(|| {
                    (0..nodes)
                        .map(|net| arena.to_waveform(layout.index(si, net)))
                        .collect()
                }),
            });
        }
    }
}

/// One level's release to the workers: the scheduled tasks, the shared
/// work-stealing cursor and the verdicts collected so far.
struct Epoch<'l> {
    batch: &'l Batch<'l>,
    level_ctx: &'l LevelCtx<'l>,
    writer: &'l LevelWriter<'l>,
    scheduled: &'l [(usize, u64)],
    cursor: AtomicUsize,
    chunk_tasks: usize,
    /// Verdicts (grid-task index, fault) collected by workers; applied
    /// deterministically at the barrier.
    verdicts: Mutex<Vec<(usize, Dead)>>,
}

impl Epoch<'_> {
    /// One worker's share of the level: steal task chunks off the shared
    /// cursor until it runs dry. A task is one (lane group, gate) pair;
    /// its eval mask names the lanes to run, each evaluated under its
    /// own `catch_unwind` so one lane's panic or overflow never takes
    /// down the group's other slots.
    fn work(&self, w: usize) {
        let batch = self.batch;
        let ctx = batch.ctx;
        let gates = self.level_ctx.plan.gate_nodes.len();
        let tasks = self.scheduled.len();
        let mut scratch = GateScratch::new();
        let mut local_verdicts: Vec<(usize, Dead)> = Vec::new();
        let mut activity = vec![SwitchingActivity::default(); batch.chunk.len()];
        // Longest waveform this worker wrote: folded into the arena's
        // occupancy watermark once, below, instead of once per gate.
        let mut peak = 0usize;
        let mut executed = 0u64;
        let mut grabs = 0u64;
        loop {
            let t0 = self.cursor.fetch_add(self.chunk_tasks, Ordering::Relaxed);
            if t0 >= tasks {
                break;
            }
            grabs += 1;
            let t1 = (t0 + self.chunk_tasks).min(tasks);
            for &(gt, mask) in &self.scheduled[t0..t1] {
                let (g, _) = self.level_ctx.live_groups[gt / gates];
                let pos = gt % gates;
                let mut rem = mask;
                while rem != 0 {
                    let lane = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let si = batch.layout.group_slot(g) + lane;
                    executed += 1;
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        // Injected kernel panic: every lane task of the
                        // affected (slot, round) panics, so the
                        // first-in-grid-order verdict is
                        // schedule-independent.
                        let slot = batch.chunk[si];
                        if ctx.injector.is_armed()
                            && ctx.injector.fires(
                                InjectionSite::KernelPanic,
                                slot as u64,
                                u64::from(batch.round),
                            )
                        {
                            panic!("injected kernel panic (slot {slot})");
                        }
                        self.eval_lane(si, pos, &mut scratch)
                    }));
                    // Verdicts carry the slot-major grid index (slot ×
                    // gates + gate) so barrier reconciliation is
                    // independent of gating, lane width and stealing.
                    let grid = si * gates + pos;
                    match r {
                        Ok(Ok(stats)) => {
                            peak = peak.max(stats.transitions);
                            activity[si].record(&stats);
                        }
                        Ok(Err(_)) => local_verdicts.push((grid, Dead::Overflow)),
                        Err(_) => local_verdicts.push((grid, Dead::Panic)),
                    }
                }
            }
            // One reservation and one copy for the whole chunk; a lane
            // that overflowed or panicked staged nothing.
            self.writer.publish(&mut scratch);
        }
        if !local_verdicts.is_empty() {
            self.verdicts
                .lock()
                .expect("verdict lock survives (worker panics are contained)")
                .extend(local_verdicts);
        }
        if executed > 0 {
            let mut shared = batch
                .activity
                .lock()
                .expect("activity lock survives (worker panics are contained)");
            for (slot, local) in shared.iter_mut().zip(&activity) {
                slot.merge(local);
            }
        }
        self.writer.note_occupancy(peak);
        ctx.tallies.tasks[w].fetch_add(executed, Ordering::Relaxed);
        ctx.tallies.steals[w].fetch_add(grabs.saturating_sub(1), Ordering::Relaxed);
    }

    /// Evaluates one lane of a (lane group, gate) task — gate `pos` of
    /// the level plan for batch slot `si` — the body of a device thread.
    /// Inputs are read through the epoch writer from previous levels'
    /// cells; the output is staged in `scratch` as this level's cell,
    /// for the chunk's `publish`. Returns the statistics of the staged
    /// waveform.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] when the gate's output history would
    /// outgrow the arena's per-net capacity — the quarantine signal
    /// (nothing is staged, so the output cell stays untouched and
    /// unclaimed).
    fn eval_lane(
        &self,
        si: usize,
        pos: usize,
        scratch: &mut GateScratch,
    ) -> Result<WaveformStats, CapacityOverflow> {
        let plan = self.level_ctx.plan;
        let layout = self.batch.layout;
        let (lo, hi) = (plan.gate_offsets[pos], plan.gate_offsets[pos + 1]);
        let mut inputs = [WaveformView::default(); MAX_PINS];
        for (view, f) in inputs.iter_mut().zip(&plan.gate_fanin[lo..hi]) {
            *view = self.writer.view(layout.index(si, f.index()));
        }
        let inputs = &inputs[..hi - lo];
        let table = plan.gate_tables[pos];
        let output = |pins: u32| table >> pins & 1 == 1;
        let gd = &self.level_ctx.delays[self.batch.group_of_slot[si]];
        let cap = self.writer.capacity();
        let initial = if gd.boundaries.is_empty() {
            // Static timeline: one delay per pin.
            let delays = &gd.segs[0][lo..hi];
            merge_transitions(inputs, |_, pin| delays[pin], output, scratch, cap)?
        } else {
            // Scheduled timeline: each input event is charged the delay
            // of the segment its cause time falls in.
            let delay = |t, pin: usize| gd.segs[segment_of(gd.boundaries, t)][lo + pin];
            merge_transitions(inputs, delay, output, scratch, cap)?
        };
        let cell = layout.index(si, plan.gate_nodes[pos].index());
        self.writer.stage(scratch, cell, initial)
    }
}
