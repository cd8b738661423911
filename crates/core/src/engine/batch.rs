//! One batch of a launch: as many slots as fit the arena, simulated in
//! one release of the worker pool (paper Fig. 3). Slots are independent
//! (the slot dimension, Sec. IV.B), so a level barrier is needed only
//! between one lane group's own levels: the worker that owns a lane
//! group walks its levels — stimuli, then per level the delay views, the
//! gate tasks and the close — while workers with no group left to own
//! join any group's open level. Grouping, delay binding and analysis run
//! on the caller, before and after the release.

use super::delays::{BatchDelays, DelayFault, LevelDelays, VoltageGroup};
use super::{RunCtx, RunState, MAX_STEAL_CHUNK, STEAL_GRABS_PER_WORKER};
use crate::compile::LevelPlan;
use crate::phases;
use crate::results::{SlotResult, SlotStatus};
use crate::SimError;
use avfs_inject::InjectionSite;
use avfs_netlist::NodeId;
use avfs_obs::time_option;
use avfs_waveform::{
    cofactor, constant_lanes, merge_transitions, CapacityOverflow, GateScratch, LaneLayout,
    LevelWriter, SwitchingActivity, WaveformArena, WaveformRead, WaveformStats, WaveformView,
    WrittenRun,
};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Most pins a gate of the level plan has.
const MAX_PINS: usize = avfs_netlist::CellKind::MAX_INPUTS;

/// Turns a waiting worker spends on spin-loop hints before it starts
/// yielding its core: a level's close takes about a microsecond, so a
/// short spin usually sees the next level open, and the yields keep a
/// worker that waits longer from starving the owner it waits for.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Why a slot died within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dead {
    /// A gate's output outgrew the bounded arena — retry at larger
    /// capacity.
    Overflow,
    /// The slot's evaluation panicked — contained, no retry.
    Panic,
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
    /// Per-slot fault status before the walk: only a voltage group whose
    /// delay binding panicked starts dead.
    dead: Vec<Option<Dead>>,
    groups: Vec<VoltageGroup<'c>>,
    group_of_slot: Vec<usize>,
}

impl<'c> Batch<'c> {
    /// Grouping phase: lays the chunk out lane-major and sorts its slots
    /// into voltage groups, so delay initialisation runs once per
    /// (level, group) instead of once per (slot, gate). Each fault's
    /// slots are adjacent, so a faulted slot joins the last group or
    /// opens one, never scans: grouping stays linear in slots.
    pub(super) fn new(ctx: &'c RunCtx<'c>, chunk: &'c [usize], round: u32) -> Self {
        let nodes = ctx.compiled.netlist.num_nodes();
        let mut groups: Vec<VoltageGroup<'c>> = Vec::new();
        let group_of_slot = chunk
            .iter()
            .map(|&slot| {
                let w = &ctx.plan.work[slot];
                let first = w.fault.map_or(0, |_| groups.len().saturating_sub(1));
                (first..groups.len())
                    .find(|&g| groups[g].matches(w))
                    .unwrap_or_else(|| {
                        groups.push(VoltageGroup::new(w));
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
        }
    }

    /// Simulates the batch against the bounded `arena`. Slots that
    /// overflow the arena are appended to `overflowed` for the caller's
    /// retry loop; slots whose evaluation panics are contained and
    /// recorded as failed. Only errors affecting the whole run (a
    /// delay-model error) propagate as `Err`.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escaped a worker outside any lane (a
    /// broken arena discipline, a bug in a close), after every worker
    /// gave up the batch.
    pub(super) fn run(
        mut self,
        arena: &mut WaveformArena,
        state: &mut RunState,
        overflowed: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let ctx = self.ctx;
        let metrics = ctx.metrics;
        arena.reset();
        self.bind_delay_tables()?;
        let delays = BatchDelays::new(ctx.compiled, ctx.plan.domains, &self.groups);
        let walk = Walk::new(&self, &delays, arena.level_writer());
        let release = metrics.map(|_| Instant::now());
        match ctx.pool.workers() {
            Some(pool) => pool.run(&|w| walk.work(w), &ctx.injector),
            None => walk.work(0),
        }
        let release = release.map_or(Duration::ZERO, |t| t.elapsed());
        let walked = walk.finish();
        let rest = metrics.map(|_| Instant::now());
        delays.draw_rest();
        let rest = rest.map_or(Duration::ZERO, |t| t.elapsed());
        let mut dead = self.dead.clone();
        for &(si, verdict) in &walked.verdicts {
            dead[si] = Some(verdict);
        }
        state.diag.kernel_fallbacks += walked.fallbacks;
        if let Some(m) = metrics {
            walked.record(m, release, rest, ctx.pool.workers().is_some());
            if delays.draws() > 0 {
                m.add(phases::ENGINE_VARIATION_DRAWS, delays.draws());
            }
        }
        time_option(metrics, phases::ENGINE_ANALYSIS, || {
            self.analyze(arena, &dead, &walked.activity, state, overflowed);
        });
        Ok(())
    }

    /// Marks every still-live slot of voltage group `g` dead.
    fn kill_group(&mut self, g: usize, verdict: Dead) {
        for (d, &gg) in self.dead.iter_mut().zip(&self.group_of_slot) {
            if gg == g && d.is_none() {
                *d = Some(verdict);
            }
        }
    }

    /// Lane group `g`'s runs of consecutive lanes that share a voltage
    /// group, as `(lane mask, voltage group)`. Slots are voltage-major, so
    /// a lane group is usually one run.
    fn voltage_runs(&self, g: usize) -> Vec<(u64, usize)> {
        let base = self.layout.group_slot(g);
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for lane in 0..self.layout.group_width(g) {
            let group = self.group_of_slot[base + lane];
            match runs.last_mut() {
                Some((lanes, last)) if *last == group => *lanes |= 1 << lane,
                _ => runs.push((1 << lane, group)),
            }
        }
        runs
    }

    /// Delay initialisation, batch half: binds every voltage group to
    /// the artifact's per-voltage tables.
    fn bind_delay_tables(&mut self) -> Result<(), SimError> {
        let ctx = self.ctx;
        // Table fetches (and first-use builds) are delay-kernel work.
        let _span = ctx.metrics.map(|m| m.span(phases::ENGINE_DELAY_KERNEL));
        let mut all_bound = true;
        for g in 0..self.groups.len() {
            match self.groups[g].bind_tables(ctx.compiled, ctx.metrics) {
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

    /// Waveform analysis (Fig. 2, step 4) for surviving slots;
    /// quarantine verdicts for the rest. An output's response is its
    /// final value, or its value at a fault launch's capture time.
    fn analyze(
        &self,
        arena: &WaveformArena,
        dead: &[Option<Dead>],
        written: &[SwitchingActivity],
        state: &mut RunState,
        overflowed: &mut Vec<usize>,
    ) {
        let ctx = self.ctx;
        let netlist = &ctx.compiled.netlist;
        let nodes = netlist.num_nodes();
        let layout = self.layout;
        let capture = ctx.plan.capture_ps;
        for (si, &slot) in self.chunk.iter().enumerate() {
            let status = match dead[si] {
                Some(Dead::Overflow) => {
                    overflowed.push(slot);
                    continue;
                }
                Some(Dead::Panic) => SlotStatus::Panicked,
                None => SlotStatus::Completed {
                    retries: self.round,
                },
            };
            if !status.is_completed() {
                state.fail(&ctx.plan.work, slot, status);
                continue;
            }
            let mut responses = Vec::with_capacity(netlist.outputs().len());
            let mut latest: Option<f64> = None;
            for &po in netlist.outputs() {
                let view = arena.view(layout.index(si, po.index()));
                let stats = WaveformStats::of(&view);
                responses.push(capture.map_or(stats.final_value, |t| view.value_at(t)));
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
                spec: ctx.plan.work[slot].spec(),
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

/// The live-lane mask of a lane group's verdicts.
fn live_lanes(dead: &[Option<Dead>]) -> u64 {
    dead.iter()
        .enumerate()
        .filter(|(_, d)| d.is_none())
        .fold(0, |mask, (lane, _)| mask | 1 << lane)
}

/// The set bits of `mask`, lowest first.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// A group's open level and next unclaimed gate in one word, so one
/// `fetch_add` can never hand out a gate of one level under the number
/// of another. A cursor overshoots its level by at most one chunk per
/// racing worker, far below the 2³² gates the low half holds.
fn pack(level: usize, gate: usize) -> u64 {
    (level as u64) << 32 | gate as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & 0xFFFF_FFFF) as usize)
}

/// One turn of a wait loop: a spin-loop hint for the first
/// [`SPINS_BEFORE_YIELD`] turns, a yield of the core after that — a
/// worker never parks mid-batch.
fn pause(turns: &mut u32) {
    if *turns < SPINS_BEFORE_YIELD {
        *turns += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// The time since `start`, zero when nothing is timed.
fn since(start: Option<Instant>) -> Duration {
    start.map_or(Duration::ZERO, |t| t.elapsed())
}

/// One batch's release: the lane groups' walk state, the writer every
/// worker publishes through, and what the workers fold in once each.
struct Walk<'a> {
    batch: &'a Batch<'a>,
    delays: &'a BatchDelays<'a>,
    writer: LevelWriter<'a>,
    /// The non-empty levels in order: every lane group's walk.
    levels: Vec<usize>,
    /// Workers in the release, for the chunk rule.
    workers: usize,
    /// Per lane group, its runs of consecutive lanes that share a voltage
    /// group, as `(lane mask, voltage group)`: one delay view serves each.
    voltage_runs: Vec<Vec<(u64, usize)>>,
    /// The first lane group no worker owns yet.
    unowned: AtomicUsize,
    /// Lane groups whose walk ended.
    closed: AtomicUsize,
    /// Set when a panic escaped a worker outside any lane: tasks it held
    /// will never report done, so every wait loop gives up instead.
    abort: AtomicBool,
    groups: Vec<GroupWalk>,
    walked: Mutex<Walked>,
}

/// The shared state of one lane group's walk, on cache lines of its own.
#[repr(align(128))]
struct GroupWalk {
    /// The open level and its next unclaimed gate ([`pack`]). Level 0 —
    /// the stimuli — has no gates, so the initial word opens nothing.
    cursor: AtomicU64,
    /// The lanes live at the open level.
    live: AtomicU64,
    /// Gates of the open level whose tasks finished.
    done: AtomicUsize,
    /// Lanes of the open level the constant scans resolved.
    quiet: AtomicU64,
    /// The open level's faults as `(gate position, lane, verdict)`.
    faults: Mutex<Vec<(usize, usize, Dead)>>,
}

/// What the release produces, folded from every worker's share: sums,
/// maxima and per-slot verdicts, so the fold order cannot matter.
struct Walked {
    /// `(batch slot, verdict)` of every slot that died in the walk.
    verdicts: Vec<(usize, Dead)>,
    /// Per-slot switching activity, tallied where each cell was written.
    activity: Vec<SwitchingActivity>,
    /// Delays that fell back to nominal, once per live slot per level.
    fallbacks: u64,
    /// Levels the longest-lived lane group walked.
    levels: usize,
    /// Levels walked, summed over lane groups.
    lane_groups: u64,
    /// Per level: live lane tasks (live lanes × gates) and how many of
    /// them the constant scans resolved.
    level_tasks: Vec<u64>,
    level_quiet: Vec<u64>,
    /// Worker time (profiled runs only) spent writing stimuli, readying
    /// delay views, closing levels and waiting with nothing to grab.
    stimuli: Duration,
    delays: Duration,
    closes: Duration,
    idle: Duration,
}

impl Walked {
    fn new(slots: usize, depth: usize) -> Walked {
        Walked {
            verdicts: Vec::new(),
            activity: vec![SwitchingActivity::default(); slots],
            fallbacks: 0,
            levels: 0,
            lane_groups: 0,
            level_tasks: vec![0; depth],
            level_quiet: vec![0; depth],
            stimuli: Duration::ZERO,
            delays: Duration::ZERO,
            closes: Duration::ZERO,
            idle: Duration::ZERO,
        }
    }

    fn merge(&mut self, other: Walked) {
        self.verdicts.extend(other.verdicts);
        for (slot, local) in self.activity.iter_mut().zip(&other.activity) {
            slot.merge(local);
        }
        self.fallbacks += other.fallbacks;
        self.levels = self.levels.max(other.levels);
        self.lane_groups += other.lane_groups;
        for (sum, n) in self.level_tasks.iter_mut().zip(other.level_tasks) {
            *sum += n;
        }
        for (sum, n) in self.level_quiet.iter_mut().zip(other.level_quiet) {
            *sum += n;
        }
        self.stimuli += other.stimuli;
        self.delays += other.delays;
        self.closes += other.closes;
        self.idle += other.idle;
    }

    /// Records the batch's instruments. The worker-side phases are worker
    /// time, so the release's wall time less their sum is what
    /// `engine/waveform_merge` reports: the phases still add up to the
    /// launch. `rest` is the caller's draw of the dice's levels no worker
    /// reached, after the release: delay-kernel time outside it.
    fn record(&self, m: &avfs_obs::Metrics, release: Duration, rest: Duration, pooled: bool) {
        if self.levels > 0 {
            m.add(phases::ENGINE_LEVELS, self.levels as u64);
            m.add(phases::ENGINE_LANES_GROUPS, self.lane_groups);
        }
        let mut skipped = None;
        for (&tasks, &quiet) in self.level_tasks.iter().zip(&self.level_quiet) {
            if let Some(active_pct) = ((tasks - quiet) * 100).checked_div(tasks) {
                m.record(phases::ENGINE_LEVEL_ACTIVITY, active_pct);
                *skipped.get_or_insert(0) += quiet;
            }
        }
        if let Some(skipped) = skipped {
            m.add(phases::ENGINE_GATES_SKIPPED_QUIET, skipped);
        }
        m.record_duration(phases::ENGINE_STIMULI, self.stimuli);
        m.record_duration(phases::ENGINE_DELAY_KERNEL, self.delays + rest);
        m.record_duration(phases::ENGINE_BARRIER, self.closes);
        m.record_duration(
            phases::ENGINE_WAVEFORM_MERGE,
            release.saturating_sub(self.stimuli + self.delays + self.closes),
        );
        if pooled {
            m.record_duration(phases::ENGINE_POOL_IDLE, self.idle);
        }
    }
}

/// One worker's share of the release, folded in when it leaves.
struct Share<'a> {
    scratch: GateScratch,
    /// The running chunk's delay views, one per run of its lane group's
    /// lanes that share a voltage group (kept to reuse the allocation).
    views: Vec<(u64, LevelDelays<'a>)>,
    walked: Walked,
    /// Longest waveform this worker wrote: folded into the arena's
    /// occupancy watermark once, instead of once per cell.
    peak: usize,
    /// Lane tasks this worker ran through the merge loop.
    executed: u64,
    /// Chunks this worker ran of lane groups it does not own.
    steals: u64,
    profiling: bool,
}

impl Share<'_> {
    fn clock(&self) -> Option<Instant> {
        self.profiling.then(Instant::now)
    }
}

impl<'a> Walk<'a> {
    fn new(batch: &'a Batch<'a>, delays: &'a BatchDelays<'a>, writer: LevelWriter<'a>) -> Self {
        let levels = &batch.ctx.compiled.levels;
        Walk {
            batch,
            delays,
            writer,
            levels: (1..levels.depth())
                .filter(|&level| !levels.level(level).is_empty())
                .collect(),
            workers: batch.ctx.pool.threads(),
            voltage_runs: (0..batch.layout.groups())
                .map(|g| batch.voltage_runs(g))
                .collect(),
            unowned: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            groups: (0..batch.layout.groups())
                .map(|_| GroupWalk {
                    cursor: AtomicU64::new(pack(0, 0)),
                    live: AtomicU64::new(0),
                    done: AtomicUsize::new(0),
                    quiet: AtomicU64::new(0),
                    faults: Mutex::new(Vec::new()),
                })
                .collect(),
            walked: Mutex::new(Walked::new(batch.chunk.len(), levels.depth())),
        }
    }

    /// Everything the workers folded in; ends the writer's borrow.
    fn finish(self) -> Walked {
        self.walked.into_inner().expect("fold lock survives")
    }

    /// Worker `w`'s release: walk every lane group it can claim, then
    /// help the groups still walking until every group is closed. A panic
    /// that escapes outside any lane aborts the batch for every worker
    /// and is re-raised.
    fn work(&self, w: usize) {
        let ctx = self.batch.ctx;
        let mut share = Share {
            scratch: GateScratch::new(),
            views: Vec::new(),
            walked: Walked::new(self.batch.chunk.len(), ctx.compiled.levels.depth()),
            peak: 0,
            executed: 0,
            steals: 0,
            profiling: ctx.metrics.is_some(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while let Some(g) = self.claim() {
                self.walk(g, &mut share);
            }
            self.help(&mut share);
        }));
        if let Err(payload) = outcome {
            self.abort.store(true, Ordering::Relaxed);
            resume_unwind(payload);
        }
        self.writer.note_occupancy(share.peak);
        ctx.tallies.tasks[w].fetch_add(share.executed, Ordering::Relaxed);
        ctx.tallies.steals[w].fetch_add(share.steals, Ordering::Relaxed);
        self.walked
            .lock()
            .expect("fold lock survives (a panicking worker never holds it)")
            .merge(share.walked);
    }

    /// The next lane group no worker owns, now owned by the caller.
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        let g = self.unowned.fetch_add(1, Ordering::Relaxed);
        (g < self.groups.len()).then_some(g)
    }

    /// The owner's walk of lane group `g`: its stimuli, then each
    /// non-empty level while any lane lives — open it, run its chunks,
    /// wait for the helpers' chunks, close it.
    fn walk(&self, g: usize, share: &mut Share<'a>) {
        let batch = self.batch;
        let group = &self.groups[g];
        let base = batch.layout.group_slot(g);
        let mut dead = batch.dead[base..base + batch.layout.group_width(g)].to_vec();
        self.stimuli(g, share);
        let mut walked = 0;
        for &level in &self.levels {
            let live = live_lanes(&dead);
            if live == 0 {
                break;
            }
            walked += 1;
            let gates = batch.ctx.compiled.level_plans[level].gate_nodes.len();
            let t = share.clock();
            for &(lanes, vg) in &self.voltage_runs[g] {
                let slots = u64::from((live & lanes).count_ones());
                if slots > 0 {
                    share.walked.fallbacks += slots * self.delays.open(vg, level);
                }
            }
            share.walked.delays += since(t);
            group.live.store(live, Ordering::Relaxed);
            group.done.store(0, Ordering::Relaxed);
            group.quiet.store(0, Ordering::Relaxed);
            // Release: a worker whose grab reads this word (or a later
            // one of its `fetch_add`s) sees the level's live lanes and
            // reset counters.
            group.cursor.store(pack(level, 0), Ordering::Release);
            while let Some((level, gates)) = self.grab(g) {
                self.run_chunk(g, level, gates, true, share);
            }
            // The owner's cells of the level in one block: only the next
            // level reads them, and the owner opens it.
            self.writer.publish(&mut share.scratch);
            // Acquire: pairs with each chunk's Release `done` increment,
            // so the close sees the level's cells, faults and quiet
            // tallies.
            if !self.wait(share, || group.done.load(Ordering::Acquire) == gates) {
                return;
            }
            let t = share.clock();
            self.close(g, level, live, &mut dead, share);
            share.walked.closes += since(t);
        }
        share.walked.levels = share.walked.levels.max(walked);
        share.walked.lane_groups += walked as u64;
        for (lane, verdict) in dead.iter().enumerate() {
            if let (None, Some(verdict)) = (batch.dead[base + lane], verdict) {
                share.walked.verdicts.push((base + lane, *verdict));
            }
        }
        self.closed.fetch_add(1, Ordering::Release);
    }

    /// Level 0 of lane group `g`: stimuli waveforms, one pattern pair
    /// per slot, launched at t = 0 (where every `Schedule` is anchored),
    /// dead slots included so the occupancy watermark never depends on
    /// which slots died. Each input's lanes are one run, staged in turn.
    fn stimuli(&self, g: usize, share: &mut Share<'a>) {
        let t = share.clock();
        let ctx = self.batch.ctx;
        let layout = self.batch.layout;
        let base = layout.group_slot(g);
        let pairs: Vec<_> = (base..base + layout.group_width(g))
            .map(|si| &ctx.plan.patterns.pairs()[ctx.plan.work[self.batch.chunk[si]].pattern])
            .collect();
        for (k, &pi) in ctx.compiled.netlist.inputs().iter().enumerate() {
            let run = layout.run_start(g, pi.index());
            for (lane, pair) in pairs.iter().enumerate() {
                let (launch, capture) = (pair.launch.bit(k), pair.capture.bit(k));
                let stats = self
                    .writer
                    .stage_edge(
                        &mut share.scratch,
                        run + lane,
                        launch,
                        (launch != capture).then_some(0.0),
                    )
                    .expect("a stimulus has at most one transition, and every cell holds one");
                share.peak = share.peak.max(stats.transitions);
                share.walked.activity[base + lane].record(&stats);
            }
        }
        self.writer.publish(&mut share.scratch);
        share.walked.stimuli += since(t);
    }

    /// The close of `level` for lane group `g`, whose `live` lanes it
    /// opened with: tallies, verdicts — a lane dies of its first fault in
    /// gate order, whoever ran the chunk — then the level's output
    /// passthroughs for the lanes still live.
    fn close(
        &self,
        g: usize,
        level: usize,
        live: u64,
        dead: &mut [Option<Dead>],
        share: &mut Share<'a>,
    ) {
        let ctx = self.batch.ctx;
        let layout = self.batch.layout;
        let group = &self.groups[g];
        let plan = &ctx.compiled.level_plans[level];
        share.walked.level_tasks[level] +=
            u64::from(live.count_ones()) * plan.gate_nodes.len() as u64;
        share.walked.level_quiet[level] += group.quiet.load(Ordering::Relaxed);
        let mut faults = std::mem::take(&mut *group.faults.lock().expect("fault lock"));
        faults.sort_unstable_by_key(|&(pos, _, _)| pos);
        for (_, lane, verdict) in faults {
            if dead[lane].is_none() {
                dead[lane] = Some(verdict);
            }
        }
        for lane in lanes_of(live_lanes(dead)) {
            let si = layout.group_slot(g) + lane;
            for &out in &plan.output_nodes {
                let from = ctx.compiled.netlist.node(out).fanin()[0].index();
                let to = layout.index(si, out.index());
                self.writer.copy_cell(layout.index(si, from), to);
                share.walked.activity[si].record(&WaveformStats::of(&self.writer.view(to)));
            }
        }
    }

    /// Waits until `ready` holds, timed as idle; false when the batch
    /// aborted first.
    fn wait(&self, share: &mut Share<'a>, ready: impl Fn() -> bool) -> bool {
        if ready() {
            return true;
        }
        let t = share.clock();
        let mut turns = 0;
        let ready = loop {
            if ready() {
                break true;
            }
            if self.abort.load(Ordering::Relaxed) {
                break false;
            }
            pause(&mut turns);
        };
        share.walked.idle += since(t);
        ready
    }

    /// A helper's share: chunks of any lane group's open level, until
    /// every group is closed.
    fn help(&self, share: &mut Share<'a>) {
        let n = self.groups.len();
        let (mut from, mut turns) = (0, 0);
        let mut idle_since = None;
        while self.closed.load(Ordering::Acquire) < n && !self.abort.load(Ordering::Relaxed) {
            let grabbed = (0..n)
                .map(|k| (from + k) % n)
                .find_map(|g| self.grab(g).map(|(level, gates)| (g, level, gates)));
            let Some((g, level, gates)) = grabbed else {
                idle_since.get_or_insert_with(|| share.clock());
                pause(&mut turns);
                continue;
            };
            share.walked.idle += since(idle_since.take().flatten());
            #[cfg(test)]
            assert!(
                !self
                    .batch
                    .ctx
                    .compiled
                    .panic_in_help
                    .load(Ordering::Relaxed),
                "a helper panicked holding a chunk"
            );
            (from, turns) = (g, 0);
            share.steals += 1;
            self.run_chunk(g, level, gates, false, share);
        }
        share.walked.idle += since(idle_since.flatten());
    }

    /// Grabs the next chunk of lane group `g`'s open level, if it has
    /// gates left: `(level, gate positions)`. Chunks are sized so each
    /// worker sees about [`STEAL_GRABS_PER_WORKER`] grabs per level.
    fn grab(&self, g: usize) -> Option<(usize, Range<usize>)> {
        let plans = &self.batch.ctx.compiled.level_plans;
        let cursor = &self.groups[g].cursor;
        let (level, gate) = unpack(cursor.load(Ordering::Acquire));
        let gates = plans[level].gate_nodes.len();
        if gate >= gates {
            return None;
        }
        let chunk = (gates / (self.workers * STEAL_GRABS_PER_WORKER)).clamp(1, MAX_STEAL_CHUNK);
        // The level may have closed and the next opened since the load:
        // the word this `fetch_add` reads says which level its gates
        // belong to.
        let (level, gate) = unpack(cursor.fetch_add(chunk as u64, Ordering::Acquire));
        let gates = plans[level].gate_nodes.len();
        (gate < gates).then(|| (level, gate..(gate + chunk).min(gates)))
    }

    /// Runs gate positions `gates` of `level` for lane group `g`'s live
    /// lanes: per task the fanin runs are read once, the lanes whose
    /// quiet fanins fix the output resolve to constants and the rest are
    /// merged, each under the delay view of its voltage group, made once
    /// per chunk. One `catch_unwind` covers the chunk; the lane in flight
    /// when it unwinds dies of `Dead::Panic` and the chunk goes on with
    /// the next lane. A helper publishes the chunk's cells as one block
    /// (the group's `owner` publishes its chunks of a level together),
    /// and `done` is bumped last.
    fn run_chunk(
        &self,
        g: usize,
        level: usize,
        gates: Range<usize>,
        owner: bool,
        share: &mut Share<'a>,
    ) {
        let group = &self.groups[g];
        let live = group.live.load(Ordering::Relaxed);
        let plan = &self.batch.ctx.compiled.level_plans[level];
        let mut views = std::mem::take(&mut share.views);
        views.clear();
        views.extend(
            self.voltage_runs[g]
                .iter()
                .filter(|&&(lanes, _)| lanes & live != 0)
                .map(|&(lanes, vg)| (lanes, self.delays.level(vg, level))),
        );
        let (mut pos, mut left) = (gates.start, None::<u64>);
        let (mut quiet, mut faults) = (0u64, Vec::new());
        loop {
            // Read only by the unwind path below.
            let mut in_flight = None;
            let run = catch_unwind(AssertUnwindSafe(|| {
                while pos < gates.end {
                    let task = self.task(g, live, plan, pos);
                    let mut lanes = match left {
                        Some(lanes) => lanes,
                        None => {
                            let resolved = self.resolve_constant(&task, live);
                            quiet += u64::from(resolved.count_ones());
                            live & !resolved
                        }
                    };
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        left = Some(lanes);
                        in_flight = Some(lane);
                        share.executed += 1;
                        let (_, delays) = views
                            .iter()
                            .find(|(run, _)| run >> lane & 1 == 1)
                            .expect("a live lane's voltage group has a view");
                        let evaluated = self.eval_lane(g, lane, &task, delays, share);
                        in_flight = None;
                        match evaluated {
                            Ok(stats) => {
                                let si = self.batch.layout.group_slot(g) + lane;
                                share.peak = share.peak.max(stats.transitions);
                                share.walked.activity[si].record(&stats);
                            }
                            Err(_) => faults.push((pos, lane, Dead::Overflow)),
                        }
                    }
                    (pos, left) = (pos + 1, None);
                }
            }));
            match (run, in_flight) {
                (Ok(()), _) => break,
                (Err(_), Some(lane)) => faults.push((pos, lane, Dead::Panic)),
                (Err(payload), None) => resume_unwind(payload),
            }
        }
        share.views = views;
        // One reservation and one copy for the whole chunk; a lane that
        // overflowed or panicked staged nothing.
        if !owner {
            self.writer.publish(&mut share.scratch);
        }
        if !faults.is_empty() {
            group.faults.lock().expect("fault lock").extend(faults);
        }
        group.quiet.fetch_add(quiet, Ordering::Relaxed);
        // Release: pairs with the owner's Acquire wait before the close.
        group.done.fetch_add(gates.len(), Ordering::Release);
    }

    /// Gate `pos` of `plan` as a task of lane group `g`: each fanin's run
    /// read — and claim-checked — once for the `live` lanes, a superset of
    /// the lanes any view of the task reads, and the output run's start.
    fn task(&self, g: usize, live: u64, plan: &LevelPlan, pos: usize) -> GateTask<'_> {
        let layout = self.batch.layout;
        let (lo, hi) = (plan.gate_offsets[pos], plan.gate_offsets[pos + 1]);
        let fanin = &plan.gate_fanin[lo..hi];
        let read = |net: NodeId| self.writer.read_run(layout.run_start(g, net.index()), live);
        // Every gate has at least one pin.
        let mut runs = [read(fanin[0]); MAX_PINS];
        for (run, &net) in runs.iter_mut().zip(fanin).skip(1) {
            *run = read(net);
        }
        GateTask {
            runs,
            pins: lo..hi,
            table: plan.gate_tables[pos],
            out: layout.run_start(g, plan.gate_nodes[pos].index()),
        }
    }

    /// Activity gating of one task over the `live` lanes: a lane whose
    /// quiet fanin cells (zero transitions) fix the gate's output — all
    /// quiet, or a quiet controlling value — has a constant output, which
    /// needs neither delays nor the merge loop. [`constant_lanes`] finds
    /// the lanes and their values from the runs' quiet and initial words;
    /// they are written under a single masked run claim and returned, so
    /// the caller evaluates only the rest. The values depend only on
    /// earlier levels' cells, so what is written does not depend on the
    /// schedule; retry rounds re-derive quiet bits from the surviving
    /// lanes' freshly written cells.
    fn resolve_constant(&self, task: &GateTask<'_>, live: u64) -> u64 {
        let pins = task.runs().iter().map(|run| (run.quiet(), run.initial()));
        let (constant, values) = constant_lanes(task.table, pins, live);
        self.writer.write_constant_run(task.out, constant, values);
        constant
    }

    /// Evaluates `task` for lane `lane` of lane group `g` under its
    /// voltage group's `delays`: only the fanin runs' switching pins are
    /// merged, in ascending order (the full merge's tie-break), under the
    /// truth table's [`cofactor`] over the quiet ones; the output is
    /// staged in the worker's scratch for the chunk's `publish`. Returns
    /// the statistics of the staged waveform.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] when the gate's output history would
    /// outgrow the arena's per-net capacity, or the injected arena
    /// overflow fires for the slot — the quarantine signal (nothing is
    /// staged, so the output cell stays untouched and unclaimed).
    fn eval_lane(
        &self,
        g: usize,
        lane: usize,
        task: &GateTask<'_>,
        delays: &LevelDelays<'_>,
        share: &mut Share<'a>,
    ) -> Result<WaveformStats, CapacityOverflow> {
        let batch = self.batch;
        let ctx = batch.ctx;
        let slot = batch.chunk[batch.layout.group_slot(g) + lane] as u64;
        let injected = |site| {
            ctx.injector.is_armed() && ctx.injector.fires(site, slot, u64::from(batch.round))
        };
        // Injected kernel panic: every lane task of the affected (slot,
        // round) panics, so the slot dies at its first evaluated gate
        // whichever worker runs it.
        if injected(InjectionSite::KernelPanic) {
            panic!("injected kernel panic (slot {slot})");
        }
        let runs = task.runs();
        let mut inputs = [WaveformView::default(); MAX_PINS];
        let mut pins = [0usize; MAX_PINS];
        let (mut switching, mut quiet, mut fixed) = (0, 0u32, 0u32);
        for (p, run) in runs.iter().enumerate() {
            if run.quiet() >> lane & 1 == 1 {
                quiet |= 1 << p;
                fixed |= u32::from(run.initial() >> lane & 1 == 1) << p;
            } else {
                inputs[switching] = run.view(lane);
                pins[switching] = task.pins.start + p;
                switching += 1;
            }
        }
        let table = cofactor(task.table, runs.len(), quiet, fixed);
        let output = |bits: u32| table >> bits & 1 == 1;
        let cap = self.writer.capacity();
        let scratch = &mut share.scratch;
        let initial = merge_transitions(
            &inputs[..switching],
            |t, i| delays.pin(t, pins[i]),
            output,
            scratch,
            cap,
        )?;
        // Injected forced overflow: the same observable outcome as a real
        // capacity miss. A constant output fits any capacity and is
        // exempt, so a constant lane cannot overflow, injected or not.
        if !scratch.scheduled().is_empty() && injected(InjectionSite::ArenaOverflow) {
            return Err(CapacityOverflow { capacity: cap });
        }
        self.writer.stage(scratch, task.out + lane, initial)
    }
}

/// One gate task's addresses, made once for all its lanes.
struct GateTask<'w> {
    /// The fanin runs, read for the task's live lanes (the first
    /// `pins.len()` entries; the rest repeat the first).
    runs: [WrittenRun<'w>; MAX_PINS],
    /// The gate's flat pin indices in the level's delay views.
    pins: Range<usize>,
    /// The gate's truth table, what the scan and the merge evaluate.
    table: u16,
    /// The start of the output net's lane run.
    out: usize,
}

impl<'w> GateTask<'w> {
    fn runs(&self) -> &[WrittenRun<'w>] {
        &self.runs[..self.pins.len()]
    }
}
