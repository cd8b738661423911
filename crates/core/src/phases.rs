//! Canonical instrument names recorded by the simulators when
//! [`SimOptions::profiling`](crate::SimOptions::profiling) is enabled.
//!
//! Phase durations are nanoseconds: wall clock on the coordinator for
//! the phases around a batch's pool release, and worker time — summed
//! over workers, folded in once per batch — for the parts of a release
//! that run on the workers. Timing reads clocks and nothing else, and
//! every count a worker keeps is a sum or a maximum folded in once per
//! batch, so profiling cannot perturb the deterministic results. Tests
//! and report tooling
//! should reference these constants rather than repeating string
//! literals; [`ENGINE_PHASES`] lists every phase a completed engine run
//! is guaranteed to report.

/// Whole engine run: batching, retry rounds, everything below.
pub const ENGINE_RUN: &str = "engine/run";

/// Level 0 of each batch: expanding pattern pairs into stimuli
/// waveforms, written by each lane group's owner before it opens the
/// group's first level. Worker time, one call per batch.
pub const ENGINE_STIMULI: &str = "engine/stimuli";

/// Delay initialisation (paper Sec. IV.A): per batch, binding every
/// voltage group to the artifact's per-voltage tables (first-use builds
/// included), on the coordinator; inside the release, readying each
/// level's delay views as a lane group opens it — the copies of the
/// groups whose delays are not a table slice verbatim (island gathers),
/// made by whichever worker opens the level first, and the Monte Carlo
/// draws (one per die per level, shared by every group of that die),
/// each worker that opens an undrawn level drawing the die's next
/// unclaimed one until its own is drawn — as worker time, plus the
/// coordinator's draw, after the release, of the levels of opened dice
/// that no worker reached. Two calls per batch.
pub const ENGINE_DELAY_KERNEL: &str = "engine/delay_kernel";

/// Gate evaluation: the batch's pool release — every lane group's
/// (gate × live lane) tasks, walked level by level by the group's owner
/// and shared with idle workers by work stealing; per task the lanes
/// whose quiet fan-ins fix the output resolve to constants (activity
/// gating), the rest merge their switching fan-ins, and each stolen
/// chunk's outputs are published as one block into disjoint arena cells. The release's wall
/// time less the worker time of [`ENGINE_STIMULI`], the release's share
/// of [`ENGINE_DELAY_KERNEL`] and [`ENGINE_BARRIER`], which run inside
/// it, so the phases still sum to the launch. One call per batch.
pub const ENGINE_WAVEFORM_MERGE: &str = "engine/waveform_merge";

/// Level closes: per lane group and level, once its tasks are done —
/// applying the fault verdicts and copying primary-output passthrough
/// cells. Worker time of the groups' owners, one call per batch.
pub const ENGINE_BARRIER: &str = "engine/barrier";

/// Worker time spent waiting inside a batch's release with nothing to
/// grab — an owner waiting for helpers to finish its level, a helper
/// waiting for a level to open — summed over workers. Recorded once per
/// batch of a pooled run (never at `threads = 1`), nested inside
/// [`ENGINE_WAVEFORM_MERGE`], so it is *not* part of [`ENGINE_PHASES`].
pub const ENGINE_POOL_IDLE: &str = "engine/pool_idle";

/// Per-batch waveform analysis (Fig. 2 step 4): output responses and
/// latest transition arrival read from the primary-output cells, and
/// the switching activity tallied while the batch's cells were written.
pub const ENGINE_ANALYSIS: &str = "engine/analysis";

/// Every phase a completed profiled engine run reports (each with at
/// least one call and nonzero total time).
pub const ENGINE_PHASES: [&str; 6] = [
    ENGINE_RUN,
    ENGINE_STIMULI,
    ENGINE_DELAY_KERNEL,
    ENGINE_WAVEFORM_MERGE,
    ENGINE_BARRIER,
    ENGINE_ANALYSIS,
];

/// Delay-kernel factor evaluations (rise and fall per annotated pin): a
/// whole netlist's worth per delay-table build — the only place the
/// model runs. Absent from a launch that built no table.
pub const ENGINE_KERNEL_EVALS: &str = "engine.kernel_evals";

/// Circuit levels processed, summed over batches and retry rounds.
pub const ENGINE_LEVELS: &str = "engine.levels";

/// Slot batches launched (the analogue of GPU kernel launches).
pub const ENGINE_BATCHES: &str = "engine.batches";

/// Quarantine-and-retry rounds after round 0.
pub const ENGINE_RETRY_ROUNDS: &str = "engine.retry_rounds";

/// Histogram of per-batch peak `(slot, net)` arena occupancy
/// (transitions) — headroom against the configured capacity.
pub const ENGINE_ARENA_OCCUPANCY: &str = "engine.arena_occupancy";

/// Histogram of slots per launched batch.
pub const ENGINE_BATCH_SLOTS: &str = "engine.batch_slots";

/// Live lane tasks — one slot's evaluation of one gate — resolved
/// without the merge (all fan-ins quiet, or the quiet ones fix the
/// output), summed over levels, batches and retry rounds. Tallied per
/// lane group and level by whichever worker ran the task, folded in at
/// the batch's end; recorded (possibly 0) by every run with a gate task.
pub const ENGINE_GATES_SKIPPED_QUIET: &str = "engine.gates_skipped_quiet";

/// Quiet `(slot, net)` cells (zero transitions over the simulation
/// window) observed at waveform analysis, summed over completed slots —
/// the activity headroom gating exploits.
pub const ENGINE_QUIET_CELLS: &str = "engine.quiet_cells";

/// Histogram of per-level activity: for every level of a batch with a
/// live lane task, the percentage (0–100) of its live lane tasks — over
/// all the batch's lane groups — that were *active*: not resolved
/// without the merge (all fan-ins quiet, or the quiet ones fix the
/// output). Recorded from the per-level sums folded at the batch's end.
pub const ENGINE_LEVEL_ACTIVITY: &str = "engine.level_activity";

/// Levels walked by lane groups, summed over lane groups, batches and
/// retry rounds. A group walks a level while any of its lanes is live;
/// quarantined lanes are masked out of it rather than removed.
pub const ENGINE_LANES_GROUPS: &str = "engine.lanes_groups";

/// Chunks workers ran of lane groups they do not own, summed over the
/// run — how often idle workers joined another group's open level.
pub const ENGINE_POOL_STEALS: &str = "engine.pool_steals";

/// Histogram of lane tasks each pool worker merged over the whole run
/// (one sample per worker; tasks resolved without the merge — all
/// fan-ins quiet, or the quiet ones fix the output — are not counted).
pub const ENGINE_POOL_WORKER_TASKS: &str = "engine.pool_worker_tasks";

/// Compiled-artifact cache hits on a
/// [`BatchRunner`](crate::BatchRunner) — launches that reused a cached
/// [`CompiledNetlist`](crate::CompiledNetlist) instead of compiling.
pub const ENGINE_COMPILE_HITS: &str = "engine.compile_hits";

/// Compiled-artifact cache misses — compiles actually performed by a
/// [`BatchRunner`](crate::BatchRunner). A compile-once workload shows
/// exactly 1 here regardless of run count.
pub const ENGINE_COMPILE_MISSES: &str = "engine.compile_misses";

/// Per-voltage delay tables built on a
/// [`CompiledNetlist`](crate::CompiledNetlist) — the one-time scalar
/// kernel sweep whose evaluations are counted in
/// [`ENGINE_KERNEL_EVALS`]. At a steady AVFS operating-point set this
/// stays at the number of distinct supplies.
pub const ENGINE_DELAY_TABLE_BUILDS: &str = "engine.delay_table_builds";

/// Per-voltage delay-table cache hits — batches whose every voltage
/// group bound a [`CompiledNetlist`](crate::CompiledNetlist)'s resident
/// tables (a first-use build included) instead of re-evaluating the
/// model: every batch of every launch — uniform, scheduled, island,
/// Monte Carlo, fault-injected — unless a table build panicked.
pub const ENGINE_DELAY_TABLE_HITS: &str = "engine.delay_table_hits";

/// Total schedule segments across a launch's slots (1 per static slot).
/// Recorded only when the work list carries a multi-segment schedule or
/// a Monte Carlo die: a constant-schedule scenario launch lowers to
/// static slots and stays bit-identical to the static run, profile
/// included (DESIGN.md §6).
pub const ENGINE_SCENARIO_SEGMENTS: &str = "engine.scenario_segments";

/// Monte Carlo sampled slots in a launch (slots carrying a process
/// variation die). Recorded under the same condition as
/// [`ENGINE_SCENARIO_SEGMENTS`]; 0 on a variation-free scenario launch
/// that still has multi-segment schedules.
pub const ENGINE_MC_SAMPLES: &str = "engine.mc_samples";

/// Hashed process-variation derate draws: two (rise and fall) per
/// annotated pin of the netlist per distinct die a batch opened — the
/// die's voltage groups share the draw, and a die any slot opened is
/// drawn whole, whichever workers drew which levels and wherever its
/// slots died, so the count is a function of the launch and its batch
/// cut. Recorded only when at least one draw happened.
pub const ENGINE_VARIATION_DRAWS: &str = "engine.variation_draws";

/// Whole event-driven baseline run (all slots, serial).
pub const ED_SIMULATE: &str = "ed/simulate";

/// Committed events across all event-driven slots.
pub const ED_EVENTS: &str = "ed.events";

/// Histogram of event-queue depth, sampled once per simulation time step
/// (pending heap entries, cancelled ones included).
pub const ED_QUEUE_DEPTH: &str = "ed.queue_depth";
