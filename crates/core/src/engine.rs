//! The parallel thread-grid time simulator (paper Sec. IV, Fig. 3).
//!
//! A CPU realization of the GPU kernel organization: slots × gates of a
//! level form the parallel work of one launch, and a level waits for the
//! one before it — within a lane group of slots, which is all it reads.
//! Waveforms live in one flat structure-of-arrays arena indexed
//! `(slot, net)`, and slots are processed in batches sized by
//! [`SimOptions::waveform_budget`] — the direct analogue of launching as
//! many slots as fit in GPU global memory.
//!
//! Every gate evaluation runs the paper's online delay calculation
//! (Sec. IV.A): load the nominal pin delays from the annotation, read the
//! slot's operating point, evaluate the delay kernel for each
//! (pin, polarity), scale, then run the waveform-processing loop.
//!
//! There is one launch path. Every door takes a [`Launch`] request —
//! uniform supplies, voltage islands, scenarios or a fault list — and
//! `CompiledNetlist::prepare` lowers it to a `LaunchPlan`;
//! `CompiledNetlist::execute` runs the plan on a pool — retry rounds and
//! arena-sized batches here, one batch's level loop in `batch`, delay
//! initialisation in `delays`.
//!
//! # Fault isolation
//!
//! The arena is *capacity-bounded*: every `(slot, net)` cell holds at most
//! [`SimOptions::arena_capacity`] transitions, exactly like the GPU's
//! fixed-size waveform buffers. A slot whose gates overflow is not an
//! error — it is quarantined (its remaining work skipped) and re-simulated
//! after the batch with geometrically grown capacity, up to
//! [`SimOptions::overflow_retries`] rounds; the GPU original's
//! overflow-flag-and-relaunch loop. A slot whose worker panics is likewise
//! contained via `catch_unwind` and reported in the run's
//! [`RunDiagnostics`] instead of poisoning the batch. Only when *every*
//! slot fails does a run return an error. Nothing else stops a slot:
//! retry growth is bounded by the round count and by what the arena can
//! address, and no time or byte budget applies, so results read no
//! clock.

#![deny(clippy::too_many_lines)]

mod batch;
mod delays;
#[cfg(test)]
mod tests;

pub(crate) use delays::DelayTable;

use crate::compile::CompiledNetlist;
use crate::delay_fault::SmallDelayFault;
use crate::domains::{DomainSlotSpec, VoltageDomains};
use crate::phases;
use crate::pool::ParkedPool;
use crate::results::{RunDiagnostics, SimRun, SlotResult, SlotStatus};
use crate::scenario::{check_capture_time, check_variation, MonteCarlo, ScenarioSpec};
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_check::Findings;
use avfs_delay::op::OperatingPoint;
use avfs_delay::VariationConfig;
use avfs_inject::{FaultPlan, Injector};
use avfs_obs::Metrics;
use avfs_waveform::WaveformArena;
use batch::Batch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-`(slot, net)` transition capacity when
/// [`SimOptions::arena_capacity`] is 0 (auto).
const DEFAULT_ARENA_CAPACITY: usize = 64;

/// Capacity growth factor per quarantine-and-retry round.
const CAPACITY_GROWTH: usize = 4;

/// Default lane width of the batch cut when [`SimOptions::lanes`] is 0
/// (auto), and the narrowest a batch's lane groups resolve to: 8 slots
/// per lane group balances lane-word utilization on typical launches
/// against partial-tail waste on small ones.
const DEFAULT_LANES: usize = 8;

/// The widest lane group a batch resolves to when [`SimOptions::lanes`]
/// is 0: one `u64` lane mask.
const MAX_LANES: usize = 64;

/// Whole lane groups per worker a batch's resolved default lane width
/// must still leave, so that a worker done with one group has another
/// to own rather than only helpers' chunks.
const GROUPS_PER_WORKER: usize = 2;

/// Work-stealing granularity: the cursor hands out chunks sized so each
/// worker sees about this many grabs per level, bounding both contention
/// (few grabs) and imbalance (small chunks).
const STEAL_GRABS_PER_WORKER: usize = 4;

/// Upper bound on one work-stealing chunk, so huge levels still rebalance.
const MAX_STEAL_CHUNK: usize = 64;

/// Runtime options of one engine launch.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Worker threads (the SIMD lanes of the substitute device); 0 — the
    /// default — selects the machine's available parallelism at run time
    /// (see [`SimOptions::resolved_threads`]). Workers are spawned once
    /// per run (or parked across runs by a session) and released once per
    /// batch.
    pub threads: usize,
    /// Upper bound on the transitions the waveform arena *reserves* at
    /// once (`slots × nodes × capacity`, the worst case); slots are
    /// processed in batches respecting it (the global-memory budget).
    /// Batches are cut in whole lane groups of [`SimOptions::lanes`]
    /// slots, at least one group per worker, so that every worker walks
    /// a group of its own: a budget below that many groups' reservation
    /// is rounded up to it (one worker at `lanes: 1` keeps the exact
    /// budget, down to one-slot batches). Each group adds about
    /// `nodes × lanes × 9` B of resident per-cell bookkeeping.
    /// Transitions are stored packed, so what is resident is what a
    /// batch actually wrote — usually a small fraction of the
    /// reservation.
    pub waveform_budget: usize,
    /// Retain full per-net waveforms in each [`SlotResult`] (small runs
    /// and tests only).
    pub keep_waveforms: bool,
    /// Transition capacity of one `(slot, net)` arena cell; 0 selects the
    /// default (64). Slots that overflow it are quarantined and retried at
    /// geometrically grown capacity.
    pub arena_capacity: usize,
    /// Quarantine-and-retry rounds for overflowing slots; each round
    /// multiplies the slot's capacity by 4. Slots still overflowing after
    /// the last round are reported as [`SlotStatus::Overflowed`].
    pub overflow_retries: u32,
    /// Collect a phase-level performance profile into
    /// [`SimRun::profile`]. Timing only reads clocks — workers time
    /// their own share of a batch, fold it in once, and no decision reads
    /// it — so simulation results are bit-for-bit identical with profiling
    /// on or off; when off (the default) the only cost is an `Option`
    /// check per phase boundary.
    pub profiling: bool,
    /// Lane width `L` of the slot-packed (lane-major) arena layout: slots
    /// are grouped `L` at a time and one net's `L` waveforms are stored
    /// contiguously, so one (lane group, gate) task advances `L` slots —
    /// logic values bit-packed into `u64` lane words on the quiet fast
    /// path, claim/quiet bookkeeping handled as per-lane-word masks, and
    /// each active lane merged by the scalar waveform kernel. Must be a
    /// power of two ≤ 64 (lane masks are single `u64` words, and
    /// power-of-two widths keep a full group's claim run inside one
    /// atomic word); 0 — the default — lets each batch pick its own
    /// width ([`SimOptions::batch_lanes`]), while batches are cut in
    /// groups of 8. `lanes: 1` is exactly the slot-major layout, and
    /// every lane width produces bit-for-bit identical results: the
    /// layout change is a pure memory permutation and every lane runs
    /// the identical operation sequence.
    pub lanes: usize,
    /// Armed fault plan for deterministic fault injection (`None` — the
    /// default — compiles every probe down to one `Option`-discriminant
    /// branch). An *empty* plan (all rates zero) is bit-for-bit identical
    /// to no plan at all; a firing plan exercises the engine's quarantine
    /// and containment paths exactly as the matching organic fault would.
    /// Decisions are pure functions of `(seed, site, key, salt)`, so a
    /// plan replays identically across thread counts and runs; the plan
    /// also records what fired (see [`FaultPlan`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SimOptions {
    /// The effective worker count: `threads`, with 0 resolved to the
    /// machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        crate::pool::resolve_threads(self.threads)
    }

    /// The lane width batches are cut in: `lanes`, with 0 resolved to
    /// the default of 8.
    fn resolved_lanes(&self) -> usize {
        if self.lanes == 0 {
            DEFAULT_LANES
        } else {
            self.lanes
        }
    }

    /// The lane width of one batch of `slots` slots walked by `workers`
    /// workers: `lanes`, or for 0 the widest power of two ≤ 64 that
    /// still gives every worker two whole lane groups, and never less
    /// than 8. A deep, narrow circuit then walks its levels in fewer,
    /// wider groups — fewer level epochs per batch — without changing
    /// the batch cut, hence the arena's size; every width gives
    /// bit-identical results.
    pub fn batch_lanes(&self, slots: usize, workers: usize) -> usize {
        if self.lanes != 0 {
            return self.lanes;
        }
        let mut lanes = MAX_LANES;
        while lanes > DEFAULT_LANES && slots / lanes < GROUPS_PER_WORKER * workers {
            lanes /= 2;
        }
        lanes
    }

    /// The effective per-`(slot, net)` arena transition capacity:
    /// `arena_capacity`, with 0 resolved to the default of 64.
    pub fn resolved_arena_capacity(&self) -> usize {
        if self.arena_capacity == 0 {
            DEFAULT_ARENA_CAPACITY
        } else {
            self.arena_capacity
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            threads: 0,
            waveform_budget: 16 << 20,
            keep_waveforms: false,
            arena_capacity: 0,
            overflow_retries: 4,
            profiling: false,
            lanes: 0,
            fault_plan: None,
        }
    }
}

/// The most slots one arena batch can hold at `capacity` transitions
/// per cell ([`WaveformArena::max_entries`] over `nodes` cells a slot) —
/// 0 when the arena cannot address even one slot.
fn max_batch_slots(nodes: usize, capacity: usize) -> usize {
    WaveformArena::max_entries(capacity) / nodes.max(1)
}

/// The capacity a retry round grows `capacity` to, or `None` when the
/// arena could not address one slot at it, so the round is never
/// started.
fn grown_capacity(nodes: usize, capacity: usize) -> Option<usize> {
    let grown = capacity.saturating_mul(CAPACITY_GROWTH);
    (max_batch_slots(nodes, grown) > 0).then_some(grown)
}

/// Slots per batch at `capacity` transitions per cell: what `budget`
/// reserves, cut in whole lane groups of `lanes` — at least one group
/// per worker of the pool's `workers`, so no two workers walk one lane
/// group when the batch can give each its own — then clamped to the
/// `pending` slots and to what the arena can address.
fn slots_per_batch(
    budget: usize,
    nodes: usize,
    capacity: usize,
    lanes: usize,
    workers: usize,
    pending: usize,
) -> usize {
    let per_slot = nodes.max(1).saturating_mul(capacity);
    let groups = (budget / per_slot / lanes).max(workers).max(1);
    groups
        .saturating_mul(lanes)
        .min(pending)
        .min(max_batch_slots(nodes, capacity))
}

/// One launch request: the slots one kernel launch runs, and how the
/// host chose them. Every kind lowers to the same grid of (stimulus,
/// operating point) slots and runs the same kernel, through any of the
/// three doors: [`CompiledNetlist::launch`],
/// [`Session::run`](crate::Session::run) and
/// [`BatchRunner::run`](crate::BatchRunner::run). A slot list converts
/// into a [`Launch::Uniform`] request.
#[derive(Debug, Clone, Copy)]
pub enum Launch<'a> {
    /// One global supply per slot.
    Uniform(&'a [SlotSpec]),
    /// Voltage islands: every slot assigns one supply to each domain of
    /// `domains`, the multi-rail AVFS systems the paper's introduction
    /// describes. A result's [`SlotSpec::voltage`] is its domain-0
    /// supply.
    Domains {
        /// The node → domain map; it must cover the netlist.
        domains: &'a VoltageDomains,
        /// One supply per domain for every slot.
        slots: &'a [DomainSlotSpec],
    },
    /// Piecewise supply schedules, each expanded into `mc.samples`
    /// Monte Carlo dice when a plan is given — scenario `i`'s dice are
    /// slots `i * samples .. (i + 1) * samples` — and reduced into the
    /// run's [`ScenarioSummary`](crate::ScenarioSummary) against the
    /// capture deadline (DESIGN.md §5).
    Scenarios {
        /// The scenarios, in launch order.
        scenarios: &'a [ScenarioSpec],
        /// The Monte Carlo plan (`None`: the nominal die only).
        mc: Option<MonteCarlo>,
        /// The deadline failures are counted against (`None`: no slot
        /// fails).
        capture_deadline_ps: Option<f64>,
    },
    /// Small-delay fault grading: every pattern at `voltage`, fault-free
    /// first and then under each fault in turn — slot
    /// `(k + 1) * patterns + p` is pattern `p` under `faults[k]`. A fault
    /// run's `responses` are the outputs' values at `capture_ps`, not
    /// their settled values; [`FaultVerdict::grade`](crate::FaultVerdict::grade)
    /// reads the verdicts off the run.
    Faults {
        /// The faults, each a delay added at one gate.
        faults: &'a [SmallDelayFault],
        /// The supply every slot runs at, V.
        voltage: f64,
        /// The die: sample 0 of this variation — what a one-sample
        /// [`MonteCarlo`] plan draws — or the nominal die.
        die: Option<VariationConfig>,
        /// The capture time the outputs are sampled at, ps.
        capture_ps: f64,
    },
}

impl<'a> From<&'a [SlotSpec]> for Launch<'a> {
    fn from(slots: &'a [SlotSpec]) -> Launch<'a> {
        Launch::Uniform(slots)
    }
}

impl<'a> From<&'a Vec<SlotSpec>> for Launch<'a> {
    fn from(slots: &'a Vec<SlotSpec>) -> Launch<'a> {
        Launch::Uniform(slots)
    }
}

impl<'a, const N: usize> From<&'a [SlotSpec; N]> for Launch<'a> {
    fn from(slots: &'a [SlotSpec; N]) -> Launch<'a> {
        Launch::Uniform(slots)
    }
}

/// One validated launch, ready for [`CompiledNetlist::execute`]: what
/// [`CompiledNetlist::prepare`] lowers a [`Launch`] to.
pub(crate) struct LaunchPlan<'a> {
    pub(crate) patterns: &'a PatternSet,
    /// Per-slot resolved work, in launch order.
    pub(crate) work: Vec<SlotWork>,
    /// Rendered validation findings for
    /// [`RunDiagnostics::validation_findings`].
    pub(crate) validation: Vec<String>,
    /// The node → domain map of a voltage-island launch, which its
    /// [`VoltageAssign::PerDomain`] slots index (`None` otherwise).
    pub(crate) domains: Option<&'a VoltageDomains>,
    /// Scenario launches reduce their slots into a
    /// [`ScenarioSummary`](crate::scenario::ScenarioSummary) against
    /// this Monte Carlo plan and capture deadline.
    pub(crate) reduction: Option<(Option<MonteCarlo>, Option<f64>)>,
    /// A fault launch's capture time, ps: the responses are sampled then.
    pub(crate) capture_ps: Option<f64>,
}

impl CompiledNetlist {
    /// The launch validation: the artifact's pre-rendered setup findings
    /// followed by the launch's own (`AVC-D005` per slot supply, the
    /// scenario layer's `AVC-N010`/`AVC-D006` schedule lints), rendered
    /// for [`RunDiagnostics::validation_findings`]. Validation records;
    /// it never refuses a launch.
    pub(crate) fn validate_launch(&self, findings: Findings) -> Vec<String> {
        let launch = findings.finish();
        let rendered = launch.iter().map(ToString::to_string);
        self.setup_rendered
            .iter()
            .cloned()
            .chain(rendered)
            .collect()
    }

    /// The `AVC-D005` check of one slot supply at the minimum load,
    /// *before* normalization clamps it into the characterized domain,
    /// so an out-of-domain sweep point is recorded instead of silently
    /// repaired. `location` runs only when the finding is kept.
    fn lint_supply(
        &self,
        voltage: f64,
        location: impl FnOnce() -> String,
        findings: &mut Findings,
    ) {
        let space = self.model.space();
        let op = OperatingPoint::new(voltage, space.load_range().0);
        avfs_check::model::lint_operating_point(space, op, location, findings);
    }

    /// The stimulus/operating-point check every launch runs, over its
    /// slots as `(pattern index, supply voltages)`: a non-empty slot
    /// list, pattern pairs as wide as the netlist's primary inputs, and
    /// per slot an existing pattern under finite, positive supplies —
    /// checked *before* normalization clamps them into the characterized
    /// domain.
    pub(crate) fn check_launch<V: IntoIterator<Item = f64>>(
        &self,
        patterns: &PatternSet,
        slots: impl ExactSizeIterator<Item = (usize, V)>,
    ) -> Result<(), SimError> {
        if slots.len() == 0 {
            return Err(SimError::EmptySlots);
        }
        let width = self.netlist.inputs().len();
        if let Some(pair) = patterns.into_iter().find(|pair| pair.width() != width) {
            return Err(SimError::PatternWidth {
                expected: width,
                got: pair.width(),
            });
        }
        for (slot, (pattern, voltages)) in slots.enumerate() {
            if pattern >= patterns.len() {
                return Err(SimError::BadPatternIndex {
                    index: pattern,
                    available: patterns.len(),
                });
            }
            if let Some(voltage) = voltages.into_iter().find(|v| !v.is_finite() || *v <= 0.0) {
                return Err(SimError::InvalidOperatingPoint { slot, voltage });
            }
        }
        Ok(())
    }

    /// A supply voltage normalized into the model's characterized
    /// domain — computed once per slot, like the paper's parameter
    /// memory (clamped so a sweep endpoint such as exactly V_max stays
    /// valid under floating-point noise).
    pub(crate) fn v_norm(&self, voltage: f64) -> f64 {
        let space = self.model.space();
        space
            .normalize_clamped(OperatingPoint::new(voltage, space.load_range().0))
            .v
    }

    /// Checks `launch` and lowers it to a plan. Each kind runs its own
    /// checks and [`CompiledNetlist::check_launch`], lowers its slots to
    /// per-slot work and lints its supplies (or schedules) into the
    /// findings [`CompiledNetlist::validate_launch`] then renders.
    pub(crate) fn prepare<'a>(
        &self,
        patterns: &'a PatternSet,
        launch: Launch<'a>,
    ) -> Result<LaunchPlan<'a>, SimError> {
        let mut plan = LaunchPlan {
            patterns,
            work: Vec::new(),
            validation: Vec::new(),
            domains: None,
            reduction: None,
            capture_ps: None,
        };
        let uniform = |pattern, voltage| SlotWork {
            pattern,
            assign: VoltageAssign::Uniform(self.v_norm(voltage)),
            voltage,
            variation: None,
            fault: None,
        };
        let mut findings = Findings::default();
        match launch {
            Launch::Uniform(slots) => {
                self.check_launch(patterns, slots.iter().map(|s| (s.pattern, [s.voltage])))?;
                plan.work = slots
                    .iter()
                    .map(|s| uniform(s.pattern, s.voltage))
                    .collect();
                for (i, s) in slots.iter().enumerate() {
                    self.lint_supply(s.voltage, || format!("slot {i}"), &mut findings);
                }
            }
            Launch::Domains { domains, slots } => {
                if domains.len() != self.netlist.num_nodes() {
                    return Err(SimError::AnnotationMismatch);
                }
                let count = domains.count();
                let short = slots.iter().position(|s| s.voltages.len() != count);
                if let Some(slot) = short {
                    let got = slots[slot].voltages.len();
                    return Err(SimError::DomainCount {
                        slot,
                        expected: count,
                        got,
                    });
                }
                let voltages = slots
                    .iter()
                    .map(|s| (s.pattern, s.voltages.iter().copied()));
                self.check_launch(patterns, voltages)?;
                plan.domains = Some(domains);
                plan.work = slots
                    .iter()
                    .map(|s| SlotWork {
                        pattern: s.pattern,
                        assign: VoltageAssign::PerDomain(
                            s.voltages.iter().map(|&v| self.v_norm(v)).collect(),
                        ),
                        voltage: s.voltages[0],
                        variation: None,
                        fault: None,
                    })
                    .collect();
                // Each (slot, domain) supply is a checked operating
                // point — islands extend the validation the same way
                // they extend the voltage assignment.
                for (i, s) in slots.iter().enumerate() {
                    for (d, &v) in s.voltages.iter().enumerate() {
                        let location = || format!("slot {i}/domain {d}");
                        self.lint_supply(v, location, &mut findings);
                    }
                }
            }
            Launch::Scenarios {
                scenarios,
                mc,
                capture_deadline_ps,
            } => {
                if let Some(m) = &mc {
                    if m.samples == 0 {
                        return Err(SimError::EmptySlots);
                    }
                    check_variation(&m.variation)?;
                }
                if let Some(t) = capture_deadline_ps {
                    check_capture_time(t)?;
                }
                let voltages = scenarios.iter().map(|s| {
                    let segments = s.schedule.segments.iter();
                    (s.pattern, segments.map(|seg| seg.voltage))
                });
                self.check_launch(patterns, voltages)?;
                for (i, spec) in scenarios.iter().enumerate() {
                    let assign = self.lower_schedule(i, &spec.schedule, &mut findings)?;
                    let voltage = spec.schedule.segments[0].voltage;
                    // One slot per die, scenario-major.
                    let dice = (0..mc.map_or(1, |m| m.samples)).map(|sample| SlotWork {
                        pattern: spec.pattern,
                        assign: assign.clone(),
                        voltage,
                        variation: mc.map(|m| VariationSample {
                            config: m.variation,
                            sample: sample as u32,
                        }),
                        fault: None,
                    });
                    plan.work.extend(dice);
                }
                // Schedules were linted once per scenario segment, not
                // per die, so findings don't multiply with the sample
                // count.
                plan.reduction = Some((mc, capture_deadline_ps));
            }
            Launch::Faults {
                faults,
                voltage,
                die,
                capture_ps,
            } => {
                check_capture_time(capture_ps)?;
                for (index, fault) in faults.iter().enumerate() {
                    self.check_fault(index, fault)?;
                }
                if let Some(config) = &die {
                    check_variation(config)?;
                }
                let n = patterns.len();
                self.check_launch(patterns, (0..n).map(|p| (p, [voltage])))?;
                let die = die.map(|config| VariationSample { config, sample: 0 });
                // Fault-major, so each fault's slots are adjacent in
                // every batch.
                let faults = std::iter::once(None).chain(faults.iter().copied().map(Some));
                plan.work = faults
                    .flat_map(|fault| {
                        (0..n).map(move |p| SlotWork {
                            fault,
                            variation: die,
                            ..uniform(p, voltage)
                        })
                    })
                    .collect();
                plan.capture_ps = Some(capture_ps);
                for i in 0..n {
                    self.lint_supply(voltage, || format!("slot {i}"), &mut findings);
                }
            }
        }
        plan.validation = self.validate_launch(findings);
        Ok(plan)
    }

    /// Simulates `launch` over `patterns` — the launch half of the
    /// compile/launch split. Pays no compile cost; a worker pool is
    /// spawned per call when `threads > 1` (use a
    /// [`Session`](crate::session::Session) or
    /// [`BatchRunner`](crate::batch::BatchRunner) to park one across
    /// runs). Results come back in slot order.
    ///
    /// # Errors
    ///
    /// Every kind:
    /// * [`SimError::EmptySlots`] for an empty slot list,
    /// * [`SimError::PatternWidth`] / [`SimError::BadPatternIndex`] for
    ///   inconsistent stimuli,
    /// * [`SimError::InvalidOperatingPoint`] for a non-finite or
    ///   non-positive supply voltage,
    /// * [`SimError::Model`] if the delay model rejects an operating point
    ///   or lacks a kernel,
    /// * [`SimError::AllSlotsFailed`] if no slot produced a usable result
    ///   (individual slot failures are reported per slot instead).
    ///
    /// [`Launch::Domains`]: [`SimError::AnnotationMismatch`] for a domain
    /// map that does not cover the netlist and [`SimError::DomainCount`]
    /// for a slot whose voltage vector does not assign every domain.
    ///
    /// [`Launch::Scenarios`]:
    /// [`SimError::InvalidSchedule`] for a structurally un-lowerable
    /// schedule (empty, unsorted, or with non-finite start times — lint
    /// rule `AVC-N010`), [`SimError::EmptySlots`] for a zero-sample
    /// Monte Carlo plan, [`SimError::InvalidVariation`] for a plan whose
    /// `sigma` or `max_deviation` is non-finite or negative, and
    /// [`SimError::InvalidCaptureTime`] for a non-finite or negative
    /// deadline. Repairable findings — an unanchored first segment
    /// (`AVC-N010`, lowering extends it back to `t = 0`) or supplies
    /// outside the characterized range (`AVC-D006`, the kernel clamps
    /// them) — are recorded in
    /// [`RunDiagnostics::validation_findings`], like a slot voltage
    /// outside the model's characterized domain (`AVC-D005`), and the
    /// launch proceeds.
    ///
    /// [`Launch::Faults`]: [`SimError::InvalidCaptureTime`] for an
    /// unusable capture time, [`SimError::FaultSite`] for a fault on a
    /// node that is not a gate, [`SimError::InvalidDelay`] for a fault
    /// that makes a nominal pin delay of its gate non-finite or negative,
    /// and [`SimError::InvalidVariation`] for an unusable die.
    pub fn launch<'a>(
        &self,
        patterns: &PatternSet,
        launch: impl Into<Launch<'a>>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let plan = self.prepare(patterns, launch.into())?;
        self.execute(plan, options, &ParkedPool::new(options.threads))
    }

    /// Executes a prepared launch on `pool` — the one path every door
    /// ([`CompiledNetlist::launch`], [`Session`](crate::session::Session),
    /// [`BatchRunner`](crate::batch::BatchRunner)) ends in.
    pub(crate) fn execute(
        &self,
        mut plan: LaunchPlan<'_>,
        options: &SimOptions,
        pool: &ParkedPool,
    ) -> Result<SimRun, SimError> {
        pool.admit(options)?;
        // Lane-width hygiene before any work launches: masks are single
        // u64 words and power-of-two widths keep full lane groups inside
        // one claim word.
        let lanes = options.resolved_lanes();
        if !lanes.is_power_of_two() || lanes > 64 {
            return Err(SimError::InvalidLanes {
                lanes: options.lanes,
            });
        }
        let nodes = self.netlist.num_nodes();
        let capacity = options.resolved_arena_capacity();
        if max_batch_slots(nodes, capacity) == 0 {
            return Err(SimError::InvalidArenaCapacity { capacity, nodes });
        }
        // Profiling is strictly observational: all instruments live in a
        // per-run registry written only by this thread, from what the
        // workers fold in per batch, so every waveform is identical
        // whether the registry exists or not.
        let metrics = options.profiling.then(|| Metrics::new("engine"));
        let metrics = metrics.as_ref();
        let run_span = metrics.map(|m| m.span(phases::ENGINE_RUN));
        if let Some(m) = metrics {
            record_scenario_shape(m, &plan.work);
        }
        let start = Instant::now();
        let validation = std::mem::take(&mut plan.validation);
        let ctx = RunCtx {
            compiled: self,
            plan: &plan,
            options,
            pool,
            tallies: PoolTallies::new(pool.threads()),
            // Fault injection: unarmed (the default) reduces every probe
            // to one Option-discriminant branch; an armed plan is
            // consulted with pure (site, key, salt) decisions, so the
            // schedule — and with an all-zero plan, every result bit —
            // is identical to a clean run.
            injector: options
                .fault_plan
                .as_ref()
                .map_or_else(Injector::unarmed, |p| Injector::armed(Arc::clone(p))),
            metrics,
        };
        // Snapshot so a plan reused across runs reports per-run deltas.
        let fired_before = options.fault_plan.as_ref().map_or(0, |p| p.total_fired());
        let mut state = RunState {
            results: vec![None; plan.work.len()],
            diag: RunDiagnostics {
                clamped_loads: self.clamped_loads,
                validation_findings: validation,
                ..RunDiagnostics::default()
            },
            slot_sims: 0,
        };
        ctx.retry_rounds(&mut state)?;
        let RunState {
            results,
            mut diag,
            slot_sims,
        } = state;
        diag.overflowed_slots.sort_unstable();
        diag.panicked_slots.sort_unstable();
        diag.failed_slots.sort_unstable();
        diag.faults_injected = options
            .fault_plan
            .as_ref()
            .map_or(0, |p| p.total_fired())
            .saturating_sub(fired_before);
        let slots: Vec<SlotResult> = results
            .into_iter()
            .map(|r| r.expect("every slot resolved by the retry loop"))
            .collect();
        if slots.iter().all(|s| !s.status.is_completed()) {
            return Err(SimError::AllSlotsFailed { slots: slots.len() });
        }
        if let Some(m) = metrics {
            ctx.tallies.record(m);
        }
        let elapsed = start.elapsed();
        if let Some(span) = run_span {
            span.finish();
        }
        let scenario = plan
            .reduction
            .map(|(mc, deadline)| crate::scenario::summarize(&slots, mc.as_ref(), deadline));
        Ok(SimRun {
            slots,
            elapsed,
            node_evaluations: nodes as u64 * slot_sims,
            diagnostics: diag,
            profile: metrics.map(Metrics::snapshot),
            scenario,
        })
    }
}

/// Scenario instruments are recorded only when the work list actually
/// carries a multi-segment schedule or a Monte Carlo die: a
/// constant-schedule scenario launch lowers to static slots and stays
/// bit-identical to the static run — profile included (DESIGN.md §6).
fn record_scenario_shape(m: &Metrics, work: &[SlotWork]) {
    if work
        .iter()
        .any(|w| w.assign.segments() > 1 || w.variation.is_some())
    {
        m.add(
            phases::ENGINE_SCENARIO_SEGMENTS,
            work.iter().map(|w| w.assign.segments() as u64).sum(),
        );
        m.add(
            phases::ENGINE_MC_SAMPLES,
            work.iter().filter(|w| w.variation.is_some()).count() as u64,
        );
    }
}

/// Everything one launch's batches share and none of them mutates.
struct RunCtx<'a> {
    compiled: &'a CompiledNetlist,
    plan: &'a LaunchPlan<'a>,
    options: &'a SimOptions,
    /// The parked workers every batch is released to once (the GPU grid
    /// analogue), and the resident arena round 0 runs in.
    pool: &'a ParkedPool,
    tallies: PoolTallies,
    injector: Injector,
    metrics: Option<&'a Metrics>,
}

/// What a launch accumulates across batches and retry rounds.
struct RunState {
    results: Vec<Option<SlotResult>>,
    diag: RunDiagnostics,
    slot_sims: u64,
}

impl RunState {
    /// Resolves `slot` to a failed result with `status`.
    fn fail(&mut self, work: &[SlotWork], slot: usize, status: SlotStatus) {
        if status == SlotStatus::Panicked {
            self.diag.panicked_slots.push(slot);
        }
        self.diag.failed_slots.push(slot);
        self.results[slot] = Some(SlotResult::failed(work[slot].spec(), status));
    }
}

impl RunCtx<'_> {
    /// Quarantine-and-retry rounds: round 0 simulates every slot at the
    /// base capacity; each later round re-simulates only the slots that
    /// overflowed, at geometrically grown capacity — the CPU analogue of
    /// the GPU's overflow-flag-and-relaunch loop. Round 0 runs in the
    /// pool's resident arena, checked out for the round and parked again
    /// whatever the outcome; a retry round's capacity × 4 arena is
    /// allocated for that round and dropped, so one glitchy launch
    /// cannot pin 4× the memory. A round whose grown capacity the arena
    /// could not address is never started: its slots resolve like
    /// exhausted retries, at the last capacity that fit.
    fn retry_rounds(&self, state: &mut RunState) -> Result<(), SimError> {
        let nodes = self.compiled.netlist.num_nodes();
        let lanes = self.options.resolved_lanes();
        let mut pending: Vec<usize> = (0..self.plan.work.len()).collect();
        // Die-major batches: a die's derates are drawn once per batch
        // that carries it, so a batch should carry few dice and all of
        // each. The sort is stable — within a die the launch's scenario
        // order is kept, and a launch without a Monte Carlo plan keeps
        // its order outright — and results never see it: they are stored
        // by launch slot. Retry rounds inherit the order from the batches
        // that overflowed.
        pending.sort_by_key(|&slot| self.plan.work[slot].variation.map(|v| v.sample));
        let mut cap = self.options.resolved_arena_capacity();
        let mut round = 0u32;
        loop {
            // `execute` checked round 0's shape, and `grown_capacity`
            // every later one.
            let batch_slots = slots_per_batch(
                self.options.waveform_budget,
                nodes,
                cap,
                lanes,
                self.pool.threads(),
                pending.len(),
            );
            let entries = batch_slots * nodes;
            let mut arena = if round == 0 {
                self.pool.take_arena(entries, cap)
            } else {
                WaveformArena::new(entries, cap)
            };
            let outcome = self.run_round(&mut arena, &pending, batch_slots, round, state);
            if round == 0 {
                self.pool.park_arena(arena);
            }
            let overflowed = outcome?;
            let diag = &mut state.diag;
            for &s in &overflowed {
                if !diag.overflowed_slots.contains(&s) {
                    diag.overflowed_slots.push(s);
                }
            }
            if overflowed.is_empty() {
                return Ok(());
            }
            let grown =
                grown_capacity(nodes, cap).filter(|_| round < self.options.overflow_retries);
            let Some(grown) = grown else {
                for &s in &overflowed {
                    state.fail(&self.plan.work, s, SlotStatus::Overflowed { capacity: cap });
                }
                return Ok(());
            };
            round += 1;
            cap = grown;
            pending = overflowed;
            if let Some(m) = self.metrics {
                m.add(phases::ENGINE_RETRY_ROUNDS, 1);
            }
            state.diag.slot_retries += pending.len() as u64;
        }
    }

    /// One round: `pending` simulated in arena-sized batches (the
    /// global-memory budget) against `arena`, whose occupancy watermark
    /// starts the round at zero. Returns the slots that overflowed.
    fn run_round(
        &self,
        arena: &mut WaveformArena,
        pending: &[usize],
        batch_slots: usize,
        round: u32,
        state: &mut RunState,
    ) -> Result<Vec<usize>, SimError> {
        let mut overflowed: Vec<usize> = Vec::new();
        for chunk in pending.chunks(batch_slots) {
            state.slot_sims += chunk.len() as u64;
            if let Some(m) = self.metrics {
                m.add(phases::ENGINE_BATCHES, 1);
                m.record(phases::ENGINE_BATCH_SLOTS, chunk.len() as u64);
            }
            Batch::new(self, chunk, round).run(arena, state, &mut overflowed)?;
            if let Some(m) = self.metrics {
                m.record(
                    phases::ENGINE_ARENA_OCCUPANCY,
                    arena.peak_occupancy() as u64,
                );
            }
        }
        let diag = &mut state.diag;
        diag.peak_arena_occupancy = diag.peak_arena_occupancy.max(arena.peak_occupancy());
        Ok(overflowed)
    }
}

/// Per-worker execution tallies over a whole run (tasks executed and
/// chunks run of lane groups the worker does not own), folded into the
/// profile at run end. Atomics make them writable from the pool without
/// synchronizing the walk.
struct PoolTallies {
    tasks: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
}

impl PoolTallies {
    fn new(workers: usize) -> PoolTallies {
        PoolTallies {
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, m: &Metrics) {
        let mut steals = 0u64;
        for (tasks, s) in self.tasks.iter().zip(&self.steals) {
            m.record(
                phases::ENGINE_POOL_WORKER_TASKS,
                tasks.load(Ordering::Relaxed),
            );
            steals += s.load(Ordering::Relaxed);
        }
        m.add(phases::ENGINE_POOL_STEALS, steals);
    }
}

/// One slot's resolved work: which pattern to replay under which voltage
/// assignment.
#[derive(Debug, Clone)]
pub(crate) struct SlotWork {
    pub(crate) pattern: usize,
    pub(crate) assign: VoltageAssign,
    /// Representative voltage reported in the result spec (the global
    /// supply for uniform slots, the domain-0 supply for island slots,
    /// the segment-0 supply for scheduled slots).
    pub(crate) voltage: f64,
    /// Monte Carlo process-variation sample of this slot (`None` = the
    /// nominal die). Part of the voltage-group key: two slots share a
    /// delay-initialization group only when both their voltage
    /// assignment *and* their die agree.
    pub(crate) variation: Option<VariationSample>,
    /// The slot's small-delay fault, also part of the voltage-group key.
    pub(crate) fault: Option<SmallDelayFault>,
}

impl SlotWork {
    /// The spec reported back in this slot's [`SlotResult`].
    fn spec(&self) -> SlotSpec {
        SlotSpec {
            pattern: self.pattern,
            voltage: self.voltage,
        }
    }
}

/// One Monte Carlo die: a variation configuration plus the sample index
/// that addresses its hashed draws (see
/// [`avfs_delay::variation::derate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VariationSample {
    pub(crate) config: avfs_delay::VariationConfig,
    pub(crate) sample: u32,
}

/// Normalized voltage assignment of one slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VoltageAssign {
    /// One global supply (normalized).
    Uniform(f64),
    /// One normalized supply per voltage domain (voltage islands),
    /// indexed by the launch's domain map.
    PerDomain(Vec<f64>),
    /// A piecewise operating-point schedule (always ≥ 2 segments: the
    /// scenario layer lowers a single-segment schedule to `Uniform`, so
    /// the constant-schedule ≡ static identity holds by construction).
    Scheduled(Arc<NormalizedSchedule>),
}

/// A slot's normalized piecewise supply schedule. Segment 0 covers the
/// launch instant; an input event at time `t` belongs to segment
/// `boundaries.partition_point(|b| *b <= t)` (an event exactly at a
/// boundary sees the *later* segment's supply).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NormalizedSchedule {
    /// Per-segment normalized supply (clamped into the characterized
    /// domain, like every other assignment).
    pub(crate) v_norms: Vec<f64>,
    /// Start times (ps) of segments `1..` — strictly increasing; one
    /// fewer entry than `v_norms`.
    pub(crate) boundaries: Vec<f64>,
}

impl VoltageAssign {
    /// The normalized supplies this assignment's delays are read at:
    /// the one global supply, one per domain, or one per segment.
    fn v_norms(&self) -> &[f64] {
        match self {
            VoltageAssign::Uniform(v) => std::slice::from_ref(v),
            VoltageAssign::PerDomain(v_norms) => v_norms,
            VoltageAssign::Scheduled(s) => &s.v_norms,
        }
    }

    /// How many delay-table segments this assignment needs (1 for every
    /// non-scheduled assignment).
    #[inline]
    pub(crate) fn segments(&self) -> usize {
        match self {
            VoltageAssign::Scheduled(s) => s.v_norms.len(),
            _ => 1,
        }
    }

    /// The segment boundaries (empty = static timeline).
    #[inline]
    fn boundaries(&self) -> &[f64] {
        match self {
            VoltageAssign::Scheduled(s) => &s.boundaries,
            _ => &[],
        }
    }
}
