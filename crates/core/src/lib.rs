//! Massively parallel voltage-aware gate-level time simulation — the
//! paper's primary contribution (Sec. IV).
//!
//! The centerpiece is [`CompiledNetlist::launch`], a CPU realization of
//! the GPU execution model of Fig. 3, which runs any [`Launch`] request:
//!
//! * **vertical dimension** — structural parallelism: the circuit is
//!   processed level by level, all gates of a level concurrently;
//! * **horizontal plane** — data parallelism over *slots*, each slot being
//!   one (stimulus waveform, operating point) assignment; the grid trades
//!   off stimuli against operating points arbitrarily;
//! * **online delay calculation** — every gate evaluation scales its
//!   nominal SDF delays with the delay-kernel factor
//!   `1 + f(φ_V(v), φ_C(c))` fetched from the shared coefficient table
//!   (Sec. IV.A), so per-instance timing never needs to be stored.
//!
//! Memory is organized as a structure-of-arrays waveform arena indexed by
//! `(slot, net)` — the GPU global-memory layout of Holst et al. \[25\] —
//! and slots are processed in batches sized to a configurable memory
//! budget, exactly as a GPU launches as many slots as fit.
//!
//! The comparison baselines live alongside:
//!
//! * [`event_driven`] — a serial event-driven time simulator (the
//!   "conventional commercial" algorithm of Table I columns 4–5) with
//!   identical delay semantics, used both for benchmarking and as a
//!   cross-validation oracle,
//! * [`sta`] — static timing analysis: the nominal longest-path
//!   reference (Table II column 2) plus the voltage-scaled
//!   per-pin-transition oracle from `avfs-sta` and its
//!   [`sta::crosscheck`] driver, which proves `sim ≤ sta` per run
//!   (DESIGN.md §9).
//!
//! On top of the static grid, [`scenario`] makes the operating point a
//! *function of time*: piecewise `(t_start, V)` supply [`Schedule`]s per
//! slot (droop transients, DVFS steps) plus seeded [`MonteCarlo`]
//! process variation, reduced into failure-probability-vs-voltage
//! curves. A constant schedule is bit-identical to the static run — see
//! the [`scenario`] module docs for the identity doctest and the
//! determinism argument.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod compile;
pub mod delay_fault;
pub mod domains;
pub mod engine;
pub mod event_driven;
pub mod phases;
mod pool;
pub mod results;
pub mod scenario;
pub mod session;
pub mod slots;
pub mod sta;

/// Re-exported so scenario launches configure variation without naming
/// `avfs_delay` directly.
pub use avfs_delay::VariationConfig;
/// Re-exported observability types ([`SimRun::profile`] is an
/// [`avfs_obs::Profile`]).
pub use avfs_obs::{Metrics, PhaseStats, Profile};
pub use batch::{BatchRunner, CompileKey};
pub use compile::CompiledNetlist;
pub use delay_fault::{FaultVerdict, SmallDelayFault};
pub use domains::{DomainSlotSpec, VoltageDomains};
pub use engine::{Launch, SimOptions};
pub use event_driven::EventDrivenSimulator;
pub use results::{RunDiagnostics, SimRun, SlotResult, SlotStatus};
pub use scenario::{
    cross_schedules, FailurePoint, MonteCarlo, ScenarioSpec, ScenarioSummary, Schedule, Segment,
};
pub use session::Session;
pub use slots::{cross, SlotSpec};

use std::error::Error;
use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The annotation does not cover the netlist.
    AnnotationMismatch,
    /// A pattern's width differs from the primary-input count.
    PatternWidth {
        /// Primary inputs in the netlist.
        expected: usize,
        /// Bits in the offending pattern.
        got: usize,
    },
    /// A slot references a pattern index outside the pattern set.
    BadPatternIndex {
        /// The offending index.
        index: usize,
        /// Patterns available.
        available: usize,
    },
    /// No slots were requested.
    EmptySlots,
    /// A voltage-island slot's voltage vector does not assign exactly one
    /// supply per domain.
    DomainCount {
        /// Index of the offending slot.
        slot: usize,
        /// Domains in the partition.
        expected: usize,
        /// Voltages the slot supplied.
        got: usize,
    },
    /// The delay model failed (missing kernel, out-of-range operating
    /// point).
    Model(avfs_delay::DelayError),
    /// The event-driven baseline requires strictly positive gate delays.
    NonPositiveDelay {
        /// Name of the offending gate.
        gate: String,
    },
    /// A slot requested a non-finite or non-positive supply voltage.
    InvalidOperatingPoint {
        /// Index of the offending slot.
        slot: usize,
        /// The rejected voltage (volts).
        voltage: f64,
    },
    /// A scenario's piecewise operating-point schedule is structurally
    /// un-lowerable (empty, unsorted, or with non-finite start times) —
    /// the `AVC-N010` lint refused it before any kernel work. Repairable
    /// schedule findings (an unanchored first segment, out-of-range
    /// supplies) are recorded in
    /// [`RunDiagnostics::validation_findings`] instead.
    InvalidSchedule {
        /// Index of the offending scenario.
        slot: usize,
        /// The first lint finding's message.
        message: String,
    },
    /// A [`MonteCarlo`] plan's variation distribution is unusable: a
    /// non-finite or negative `sigma` or `max_deviation` (a NaN sigma
    /// would derate every delay to 0 ps; a negative clamp has no
    /// interval to clamp into). Refused before any kernel work.
    InvalidVariation {
        /// The plan's relative standard deviation.
        sigma: f64,
        /// The plan's clamp on the absolute relative deviation.
        max_deviation: f64,
    },
    /// A capture time — a [`Launch::Scenarios`] request's
    /// `capture_deadline_ps` or a [`Launch::Faults`] request's
    /// `capture_ps` — is non-finite or negative, so no arrival could be
    /// judged against it (a NaN deadline would pass every sample).
    /// Refused before any kernel work.
    InvalidCaptureTime {
        /// The rejected capture time, ps.
        capture_ps: f64,
    },
    /// A small-delay fault names a node that is not a gate of the
    /// netlist.
    FaultSite {
        /// Index of the offending fault in the fault list.
        fault: usize,
        /// The node index it names.
        node: usize,
    },
    /// An annotated output load is non-finite or negative.
    InvalidLoad {
        /// Name of the offending node.
        node: String,
        /// The rejected load (femtofarads).
        load: f64,
    },
    /// An annotated pin delay — or one a small-delay fault adds to — is
    /// non-finite or negative.
    InvalidDelay {
        /// Name of the offending gate.
        gate: String,
        /// Input pin index of the offending delay.
        pin: usize,
    },
    /// Every slot of a run failed (overflowed past the retry limit or
    /// panicked); no usable result exists.
    AllSlotsFailed {
        /// Number of slots that failed (= number requested).
        slots: usize,
    },
    /// The requested lane width
    /// ([`SimOptions::lanes`](engine::SimOptions)) is not a power of two
    /// or exceeds 64 — lane masks are single `u64` words, so only
    /// power-of-two widths up to 64 keep a full lane group inside one
    /// claim word.
    InvalidLanes {
        /// The rejected lane width (as requested, before auto
        /// resolution).
        lanes: usize,
    },
    /// The per-cell transition capacity
    /// ([`SimOptions::arena_capacity`](engine::SimOptions)) is so large
    /// that one slot's arena reservation — `nodes × capacity`
    /// transitions — passes the `u32` offsets of the packed arena
    /// (`avfs_waveform::WaveformArena::MAX_RESERVATION`). Refused before
    /// any batch runs.
    InvalidArenaCapacity {
        /// The rejected per-cell capacity (after auto resolution).
        capacity: usize,
        /// Nets in the netlist, one arena cell per slot each.
        nodes: usize,
    },
    /// A run requested a per-run thread override that differs from the
    /// thread count a parked worker pool
    /// ([`Session`] / [`BatchRunner`]) was built with. Threads are
    /// resolved once at pool construction; pass `threads: 0` (or the
    /// pool's count) per run, or build a session with the count you
    /// want.
    ThreadMismatch {
        /// Worker count the parked pool was built with.
        pool: usize,
        /// The rejected per-run override.
        requested: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AnnotationMismatch => {
                write!(f, "timing annotation does not match the netlist")
            }
            SimError::PatternWidth { expected, got } => {
                write!(f, "pattern width {got} does not match {expected} inputs")
            }
            SimError::BadPatternIndex { index, available } => {
                write!(f, "slot references pattern {index} of {available}")
            }
            SimError::EmptySlots => write!(f, "no simulation slots requested"),
            SimError::DomainCount {
                slot,
                expected,
                got,
            } => {
                write!(
                    f,
                    "slot {slot} supplies {got} domain voltage(s) for {expected} domain(s)"
                )
            }
            SimError::Model(e) => write!(f, "delay model error: {e}"),
            SimError::NonPositiveDelay { gate } => {
                write!(
                    f,
                    "event-driven simulation requires positive delays (gate `{gate}`)"
                )
            }
            SimError::InvalidOperatingPoint { slot, voltage } => {
                write!(f, "slot {slot} requests invalid supply voltage {voltage} V")
            }
            SimError::InvalidSchedule { slot, message } => {
                write!(f, "scenario {slot} has a malformed schedule: {message}")
            }
            SimError::InvalidVariation {
                sigma,
                max_deviation,
            } => {
                write!(
                    f,
                    "Monte Carlo variation needs finite, non-negative sigma and \
                     max_deviation (got sigma {sigma}, max_deviation {max_deviation})"
                )
            }
            SimError::InvalidCaptureTime { capture_ps } => {
                write!(
                    f,
                    "capture time {capture_ps} ps is not a finite, non-negative time"
                )
            }
            SimError::FaultSite { fault, node } => {
                write!(f, "fault {fault} names node {node}, which is not a gate")
            }
            SimError::InvalidLoad { node, load } => {
                write!(f, "node `{node}` has invalid annotated load {load} fF")
            }
            SimError::InvalidDelay { gate, pin } => {
                write!(
                    f,
                    "gate `{gate}` pin {pin} has a non-finite or negative delay"
                )
            }
            SimError::AllSlotsFailed { slots } => {
                write!(f, "all {slots} simulation slots failed; no usable result")
            }
            SimError::InvalidLanes { lanes } => {
                write!(f, "lane width {lanes} is not a power of two within 1..=64")
            }
            SimError::InvalidArenaCapacity { capacity, nodes } => {
                write!(
                    f,
                    "arena capacity {capacity} × {nodes} nets per slot passes the arena's \
                     addressable reservation"
                )
            }
            SimError::ThreadMismatch { pool, requested } => {
                write!(
                    f,
                    "run requests {requested} thread(s) but the parked pool was built with {pool}; \
                     threads resolve once at pool construction (pass 0 per run)"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<avfs_delay::DelayError> for SimError {
    fn from(e: avfs_delay::DelayError) -> Self {
        SimError::Model(e)
    }
}
