//! Glitch-accurate signal waveforms and the gate-evaluation kernel.
//!
//! A [`Waveform`] is the complete switching history of one net within a
//! simulation window: an initial logic value plus a sorted list of
//! transition times (two-valued logic; each transition toggles). This is the
//! representation the GPU algorithm of Holst et al. \[25\] streams through
//! global memory, and what this reproduction's simulator stores per
//! `(slot, net)`.
//!
//! [`merge_transitions`] is the waveform-processing loop each simulator
//! thread runs for one gate: merge the input histories in time order,
//! re-evaluate the gate function after every input event, schedule output
//! transitions after the pin-to-pin propagation delay of the causing pin
//! and the output polarity, and cancel *overtaken* transitions — the
//! inertial pulse filtering of the paper (Sec. IV: "inertial delay is
//! considered for pulse filtering of glitches and hazards", with inertial
//! delay equal to the propagation delay). The two
//! `evaluate_gate_bounded_raw` forms are doors onto it for a gate function
//! given as a closure over `&[bool]`.
//!
//! # Example
//!
//! ```
//! use avfs_waveform::{evaluate_gate_bounded_raw, GateScratch, PinDelays, Waveform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An AND gate: input a rises at t=100, input b is constant 1.
//! let a = Waveform::with_transitions(false, vec![100.0])?;
//! let b = Waveform::constant(true);
//! let delays = [PinDelays { rise: 10.0, fall: 12.0 }; 2];
//! let mut scratch = GateScratch::new();
//! let initial =
//!     evaluate_gate_bounded_raw(&[&a, &b], &delays, |ins| ins[0] && ins[1], &mut scratch, 8)?;
//! assert!(!initial);
//! assert_eq!(scratch.scheduled(), &[110.0]); // rises 10 time units later
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod activity;
pub mod arena;
pub mod cofactor;
pub mod lanes;

pub use activity::{SwitchingActivity, WaveformStats};
pub use arena::{LevelWriter, WaveformArena, WaveformView, WrittenRun};
pub use cofactor::{cofactor, constant_lanes};
pub use lanes::LaneLayout;

use std::error::Error;
use std::fmt;

/// Read access to a waveform: the interface the gate-evaluation kernel
/// needs of its inputs and the analysis of its outputs.
///
/// Implemented by [`Waveform`] (owned storage), by references, and by
/// [`WaveformView`] (a slice into a [`WaveformArena`]), so the kernel can
/// consume either representation without copying.
pub trait WaveformRead {
    /// The value before the first transition.
    fn initial_value(&self) -> bool;
    /// The sorted transition times.
    fn transitions(&self) -> &[f64];

    /// The value at time `t` (transitions take effect *at* their time).
    fn value_at(&self, t: f64) -> bool {
        let flips = self.transitions().partition_point(|&x| x <= t);
        self.initial_value() ^ (flips % 2 == 1)
    }
}

impl WaveformRead for Waveform {
    fn initial_value(&self) -> bool {
        self.initial
    }
    fn transitions(&self) -> &[f64] {
        &self.transitions
    }
}

impl<W: WaveformRead + ?Sized> WaveformRead for &W {
    fn initial_value(&self) -> bool {
        (**self).initial_value()
    }
    fn transitions(&self) -> &[f64] {
        (**self).transitions()
    }
}

/// A gate evaluation exceeded the per-net transition capacity of its
/// bounded output buffer (see [`evaluate_gate_bounded_raw`]).
///
/// This is the CPU analogue of the GPU waveform-memory overflow flag: the
/// affected slot's result is unusable at this capacity, and the caller is
/// expected to quarantine the slot and retry with a larger allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityOverflow {
    /// The capacity (in transitions) that was exceeded.
    pub capacity: usize,
}

impl fmt::Display for CapacityOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "waveform exceeded its transition capacity of {}",
            self.capacity
        )
    }
}

impl Error for CapacityOverflow {}

/// Errors produced by waveform construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WaveformError {
    /// Transition times were not strictly increasing.
    UnsortedTransitions {
        /// Index of the first out-of-order transition.
        index: usize,
    },
    /// A transition time was NaN or infinite.
    NonFiniteTime {
        /// Index of the offending transition.
        index: usize,
    },
}

impl fmt::Display for WaveformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaveformError::UnsortedTransitions { index } => {
                write!(
                    f,
                    "transition {index} is not strictly after its predecessor"
                )
            }
            WaveformError::NonFiniteTime { index } => {
                write!(f, "transition {index} has a non-finite time")
            }
        }
    }
}

impl Error for WaveformError {}

/// The switching history of one signal: an initial value and strictly
/// increasing toggle times.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    initial: bool,
    transitions: Vec<f64>,
}

impl Waveform {
    /// A constant signal with no transitions.
    pub fn constant(value: bool) -> Waveform {
        Waveform {
            initial: value,
            transitions: Vec::new(),
        }
    }

    /// Builds a waveform from an initial value and strictly increasing
    /// transition times.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::UnsortedTransitions`] if times are not
    /// strictly increasing and [`WaveformError::NonFiniteTime`] for
    /// NaN/infinite times.
    pub fn with_transitions(
        initial: bool,
        transitions: Vec<f64>,
    ) -> Result<Waveform, WaveformError> {
        for (i, &t) in transitions.iter().enumerate() {
            if !t.is_finite() {
                return Err(WaveformError::NonFiniteTime { index: i });
            }
            if i > 0 && transitions[i - 1] >= t {
                return Err(WaveformError::UnsortedTransitions { index: i });
            }
        }
        Ok(Waveform {
            initial,
            transitions,
        })
    }

    /// The value before the first transition.
    pub fn initial_value(&self) -> bool {
        self.initial
    }

    /// The value after the last transition.
    pub fn final_value(&self) -> bool {
        self.initial ^ (self.transitions.len() % 2 == 1)
    }

    /// The value at time `t` (transitions take effect *at* their time).
    pub fn value_at(&self, t: f64) -> bool {
        WaveformRead::value_at(self, t)
    }

    /// The sorted transition times.
    pub fn transitions(&self) -> &[f64] {
        &self.transitions
    }

    /// Number of transitions (the switching activity of this net).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The time of the last transition, or `None` for a constant signal.
    pub fn last_transition(&self) -> Option<f64> {
        self.transitions.last().copied()
    }

    /// Iterates `(time, new_value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, bool)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, self.initial ^ (i % 2 == 0)))
    }

    /// Internal invariant check, for tests.
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        self.transitions.iter().all(|t| t.is_finite())
            && self.transitions.windows(2).all(|w| w[0] < w[1])
    }
}

impl Default for Waveform {
    /// A constant-low signal.
    fn default() -> Self {
        Waveform::constant(false)
    }
}

/// Pin-to-pin propagation delays for one gate input pin, by output
/// transition polarity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PinDelays {
    /// Delay when the output rises.
    pub rise: f64,
    /// Delay when the output falls.
    pub fall: f64,
}

impl PinDelays {
    /// Selects the delay for an output transition to `new_value`.
    #[inline]
    pub fn for_output(&self, new_value: bool) -> f64 {
        if new_value {
            self.rise
        } else {
            self.fall
        }
    }

    /// The larger of the two delays.
    pub fn max(&self) -> f64 {
        self.rise.max(self.fall)
    }
}

/// Reusable working memory for the merge kernel, and the worker-local
/// block its outputs collect in on their way into a [`WaveformArena`].
///
/// One instance per simulation worker avoids the per-gate heap traffic
/// that would otherwise dominate the oblivious (every-gate-every-slot)
/// simulation schedule. An evaluation appends its output transitions
/// after those of the cells already staged with [`LevelWriter::stage`];
/// [`LevelWriter::publish`] moves the staged cells into the arena in one
/// copy. An output that is never staged — an overflow, a panic half way
/// through the loop, a caller that only reads [`GateScratch::scheduled`]
/// — is dropped by the next evaluation, so only staged cells ever reach
/// the arena.
#[derive(Debug, Default)]
pub struct GateScratch {
    /// Per pin, the time of its next pending transition (`∞` once the
    /// pin is exhausted).
    heads: Vec<f64>,
    /// Per pin, the index of that transition.
    cursors: Vec<usize>,
    /// The staged cells' transitions end to end, then — from
    /// `staged_len` — the output of the last evaluation.
    sched: Vec<f64>,
    staged_len: usize,
    staged: Vec<arena::StagedCell>,
    /// The staged cells' 64-cell words, gathered by
    /// [`LevelWriter::publish`].
    words: Vec<arena::BlockWord>,
}

impl GateScratch {
    /// Creates empty scratch space.
    pub fn new() -> GateScratch {
        GateScratch::default()
    }

    /// The output transitions left behind by the last successful
    /// evaluation — sorted, strictly increasing, at most the requested
    /// cap. Valid until the scratch is reused or the output is staged.
    pub fn scheduled(&self) -> &[f64] {
        &self.sched[self.staged_len..]
    }
}

/// Evaluates one gate over its input waveforms — the per-thread waveform
/// processing loop of the parallel time simulator, for a gate function
/// over `&[bool]`: a door onto [`merge_transitions`], which documents
/// `cap`.
///
/// `delays[p]` gives the pin-to-pin delays from input `p` to the output;
/// `eval` is the gate's Boolean function. The output reflects
/// glitch-accurate timing with inertial pulse filtering by transition
/// overtaking: a newly caused output transition cancels any already
/// scheduled transition that would occur at the same time or later.
/// Returns the output's initial value and leaves its transitions in
/// [`GateScratch::scheduled`].
///
/// # Errors
///
/// Returns [`CapacityOverflow`] when the schedule would exceed `cap`.
///
/// # Panics
///
/// Panics if `inputs.len() != delays.len()`, either is empty, or there
/// are more than [`MAX_MERGE_PINS`] inputs.
pub fn evaluate_gate_bounded_raw<W: WaveformRead>(
    inputs: &[W],
    delays: &[PinDelays],
    eval: impl Fn(&[bool]) -> bool,
    scratch: &mut GateScratch,
    cap: usize,
) -> Result<bool, CapacityOverflow> {
    assert_eq!(
        inputs.len(),
        delays.len(),
        "one PinDelays entry per input pin required"
    );
    merge_transitions(
        inputs,
        |_, pin| delays[pin],
        unpacked(inputs.len(), eval),
        scratch,
        cap,
    )
}

/// [`evaluate_gate_bounded_raw`] over a *segmented* delay timeline — the
/// piecewise-operating-point form used by the AVFS scenario engine.
///
/// The simulation window is split into `boundaries.len() + 1` *segments*
/// by the strictly increasing `boundaries` (segment start times in ps,
/// excluding the implicit segment 0 start at −∞). An input event at time
/// `t` belongs to segment [`segment_of`]`(boundaries, t)` — an event
/// **exactly at** a boundary belongs to the *later* segment, the
/// convention under which a supply step applied at the launch instant of
/// a transition already sees the new voltage. The pin-to-output delay
/// charged to that event is `delays(segment, pin)`.
///
/// Segment selection is by the *cause* (input event) time, not the
/// resulting output time: the voltage in effect while the gate
/// propagates the event is the one at the moment the input switches, the
/// same first-order approximation the per-segment delay tables make.
///
/// Both entry points share one merge loop and differ only in the delay
/// lookup, so with empty `boundaries` this performs the identical
/// operation sequence as [`evaluate_gate_bounded_raw`] with
/// `delays(0, ·)` — the single-segment identity the scenario layer's
/// constant-schedule ≡ static-run guarantee rests on.
///
/// # Errors
///
/// Returns [`CapacityOverflow`] when the schedule would exceed `cap`.
///
/// # Panics
///
/// Panics if `inputs` is empty or holds more than [`MAX_MERGE_PINS`]
/// waveforms.
pub fn evaluate_gate_bounded_raw_segmented<W: WaveformRead>(
    inputs: &[W],
    boundaries: &[f64],
    delays: impl Fn(usize, usize) -> PinDelays,
    eval: impl Fn(&[bool]) -> bool,
    scratch: &mut GateScratch,
    cap: usize,
) -> Result<bool, CapacityOverflow> {
    merge_transitions(
        inputs,
        |t, pin| delays(segment_of(boundaries, t), pin),
        unpacked(inputs.len(), eval),
        scratch,
        cap,
    )
}

/// The segment of a piecewise timeline an input event at `t` falls in:
/// the number of `boundaries` (strictly increasing segment start times)
/// at or before `t`, so an event exactly on a boundary already belongs
/// to the segment that starts there.
#[inline]
pub fn segment_of(boundaries: &[f64], t: f64) -> usize {
    boundaries.partition_point(|b| *b <= t)
}

/// Most input pins [`merge_transitions`] takes: their logic values
/// travel as the bits of one `u32`.
pub const MAX_MERGE_PINS: usize = 32;

/// Adapts a `&[bool]` gate function over `pins` inputs to the packed pin
/// values the merge loop keeps (bit `p` = pin `p`).
fn unpacked(pins: usize, eval: impl Fn(&[bool]) -> bool) -> impl Fn(u32) -> bool {
    move |bits| {
        let mut values = [false; MAX_MERGE_PINS];
        for (p, value) in values[..pins].iter_mut().enumerate() {
            *value = bits >> p & 1 == 1;
        }
        eval(&values[..pins])
    }
}

/// The waveform-processing loop every gate evaluation runs: a k-way
/// merge over the input transition lists with inertial cancellation.
///
/// Input events are taken one at a time in time order, the lowest pin
/// first among equal times. The pins' current values are the low bits
/// of a `u32` (bit `p` = pin `p`) and `output` maps them to the gate's
/// output — for a library cell `|bits| table >> bits & 1 == 1` over its
/// truth table. `delay(t, pin)` is consulted only for an event that
/// changes the scheduled output value, with the event's cause time `t`.
/// A newly caused output transition cancels every already scheduled one
/// at the same time or later.
///
/// Returns the output's initial value and leaves its transitions in
/// [`GateScratch::scheduled`], ready for [`LevelWriter::stage`].
///
/// `cap` is a hard limit on *scheduled* output transitions, enforced on
/// the peak size of the pending-transition schedule, not just the final
/// count: like the GPU original, which allocates a fixed waveform buffer
/// per `(slot, net)` and raises an overflow flag when a write would run
/// past it, evaluation aborts the moment the schedule needs its
/// `cap + 1`-th entry, even if later cancellations would have shrunk it
/// again.
///
/// # Errors
///
/// Returns [`CapacityOverflow`] when the schedule would exceed `cap`;
/// nothing is left scheduled.
///
/// # Panics
///
/// Panics if `inputs` is empty or holds more than [`MAX_MERGE_PINS`]
/// waveforms.
#[inline]
pub fn merge_transitions<W: WaveformRead>(
    inputs: &[W],
    delay: impl Fn(f64, usize) -> PinDelays,
    output: impl Fn(u32) -> bool,
    scratch: &mut GateScratch,
    cap: usize,
) -> Result<bool, CapacityOverflow> {
    assert!(!inputs.is_empty(), "gate must have at least one input");
    assert!(
        inputs.len() <= MAX_MERGE_PINS,
        "gate has more than {MAX_MERGE_PINS} inputs"
    );
    let GateScratch {
        heads,
        cursors,
        sched,
        staged_len,
        ..
    } = scratch;
    // Whatever an earlier evaluation left unstaged is dropped here.
    let base = *staged_len;
    sched.truncate(base);

    // One pin — about two thirds of the engine's merges once quiet pins
    // are cofactored out — needs no scan: its events are in time order.
    if let [w] = inputs {
        let mut bits = u32::from(w.initial_value());
        let initial_out = output(bits);
        let mut scheduled_value = initial_out;
        for &t in w.transitions() {
            bits ^= 1;
            let new_out = output(bits);
            if new_out != scheduled_value {
                let tt = t + delay(t, 0).for_output(new_out);
                schedule(sched, base, &mut scheduled_value, tt, cap)?;
            }
        }
        return Ok(initial_out);
    }

    // Transition times are finite (the `Waveform` invariant), so `∞`
    // marks an exhausted pin and never wins the scan below while any
    // event is pending.
    let mut bits = 0u32;
    let mut pending = 0usize;
    heads.clear();
    for (pin, w) in inputs.iter().enumerate() {
        bits |= u32::from(w.initial_value()) << pin;
        let times = w.transitions();
        pending += times.len();
        heads.push(times.first().copied().unwrap_or(f64::INFINITY));
    }
    cursors.clear();
    cursors.resize(inputs.len(), 0);
    let heads = heads.as_mut_slice();

    let initial_out = output(bits);
    // `sched[base..]` holds the scheduled output transitions (sorted
    // ascending, alternating from `initial_out`); `scheduled_value` is
    // the output value after all of them. Quiescent inputs schedule
    // nothing: the output is the constant `initial_out`.
    let mut scheduled_value = initial_out;
    for _ in 0..pending {
        // The earliest pending input event, lowest pin on equal times.
        let (mut pin, mut t) = (0, heads[0]);
        for (p, &head) in heads.iter().enumerate().skip(1) {
            if head < t {
                (pin, t) = (p, head);
            }
        }
        cursors[pin] += 1;
        heads[pin] = inputs[pin]
            .transitions()
            .get(cursors[pin])
            .copied()
            .unwrap_or(f64::INFINITY);
        bits ^= 1 << pin;

        let new_out = output(bits);
        if new_out == scheduled_value {
            continue;
        }
        let tt = t + delay(t, pin).for_output(new_out);
        schedule(sched, base, &mut scheduled_value, tt, cap)?;
    }
    Ok(initial_out)
}

/// Schedules the output change away from `scheduled_value` that an
/// input event causes at `tt`, in the schedule `sched[base..]`.
/// Inertial cancellation: the new cause overtakes any scheduled
/// transition at `tt` or later, and when that leaves the output at its
/// new value already, nothing is pushed.
///
/// # Errors
///
/// [`CapacityOverflow`] when the push would be the `cap + 1`-th entry;
/// the schedule is emptied.
#[inline(always)]
fn schedule(
    sched: &mut Vec<f64>,
    base: usize,
    scheduled_value: &mut bool,
    tt: f64,
    cap: usize,
) -> Result<(), CapacityOverflow> {
    let new_out = !*scheduled_value;
    while sched.len() > base && sched[sched.len() - 1] >= tt {
        sched.pop();
        *scheduled_value = !*scheduled_value;
    }
    if *scheduled_value != new_out {
        if sched.len() - base >= cap {
            sched.truncate(base);
            return Err(CapacityOverflow { capacity: cap });
        }
        debug_assert!(tt.is_finite() && sched[base..].last().is_none_or(|&last| last < tt));
        sched.push(tt);
        *scheduled_value = new_out;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wf(initial: bool, times: &[f64]) -> Waveform {
        Waveform::with_transitions(initial, times.to_vec()).unwrap()
    }

    /// [`evaluate_gate_bounded_raw`] unbounded, as an owned waveform.
    fn evaluate_gate(
        inputs: &[&Waveform],
        delays: &[PinDelays],
        eval: impl Fn(&[bool]) -> bool,
    ) -> Waveform {
        let mut scratch = GateScratch::new();
        let initial = evaluate_gate_bounded_raw(inputs, delays, eval, &mut scratch, usize::MAX)
            .expect("unbounded evaluation cannot overflow");
        Waveform {
            initial,
            transitions: scratch.scheduled().to_vec(),
        }
    }

    /// The `Vec<bool>` merge loop [`merge_transitions`] replaced, kept
    /// as the oracle its event order, cancellation and cap check are
    /// compared against.
    fn reference_merge<W: WaveformRead>(
        inputs: &[W],
        delay: impl Fn(f64, usize) -> PinDelays,
        eval: impl Fn(&[bool]) -> bool,
        cap: usize,
    ) -> Result<(bool, Vec<f64>), CapacityOverflow> {
        let mut values: Vec<bool> = inputs.iter().map(|w| w.initial_value()).collect();
        let initial_out = eval(&values);
        let mut sched: Vec<f64> = Vec::new();
        let mut scheduled_value = initial_out;
        let mut cursors = vec![0usize; inputs.len()];
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (p, w) in inputs.iter().enumerate() {
                if let Some(&t) = w.transitions().get(cursors[p]) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, p));
                    }
                }
            }
            let Some((t, pin)) = best else { break };
            cursors[pin] += 1;
            values[pin] = !values[pin];
            let new_out = eval(&values);
            if new_out == scheduled_value {
                continue;
            }
            let tt = t + delay(t, pin).for_output(new_out);
            while let Some(&last) = sched.last() {
                if last >= tt {
                    sched.pop();
                    scheduled_value = !scheduled_value;
                } else {
                    break;
                }
            }
            if scheduled_value != new_out {
                if sched.len() >= cap {
                    return Err(CapacityOverflow { capacity: cap });
                }
                sched.push(tt);
                scheduled_value = new_out;
            }
        }
        Ok((initial_out, sched))
    }

    /// An identity stage with per-polarity delay.
    fn delay_waveform(input: &Waveform, delays: PinDelays) -> Waveform {
        evaluate_gate(&[input], &[delays], |v| v[0])
    }

    #[test]
    fn construction_validates() {
        assert!(Waveform::with_transitions(false, vec![1.0, 2.0]).is_ok());
        assert!(matches!(
            Waveform::with_transitions(false, vec![2.0, 1.0]),
            Err(WaveformError::UnsortedTransitions { index: 1 })
        ));
        assert!(matches!(
            Waveform::with_transitions(false, vec![1.0, 1.0]),
            Err(WaveformError::UnsortedTransitions { index: 1 })
        ));
        assert!(matches!(
            Waveform::with_transitions(false, vec![f64::NAN]),
            Err(WaveformError::NonFiniteTime { index: 0 })
        ));
    }

    #[test]
    fn values_over_time() {
        let w = wf(false, &[10.0, 20.0, 30.0]);
        assert!(!w.initial_value());
        assert!(w.final_value());
        assert!(!w.value_at(9.9));
        assert!(w.value_at(10.0)); // effective at its time
        assert!(!w.value_at(25.0));
        assert!(w.value_at(30.0));
        assert_eq!(w.num_transitions(), 3);
        assert_eq!(w.last_transition(), Some(30.0));
    }

    #[test]
    fn iter_reports_new_values() {
        let w = wf(true, &[1.0, 2.0]);
        let seq: Vec<_> = w.iter().collect();
        assert_eq!(seq, vec![(1.0, false), (2.0, true)]);
    }

    #[test]
    fn buffer_shifts_by_delay() {
        let input = wf(false, &[100.0, 150.0]);
        let out = delay_waveform(
            &input,
            PinDelays {
                rise: 7.0,
                fall: 9.0,
            },
        );
        assert_eq!(out.transitions(), &[107.0, 159.0]);
        assert!(!out.initial_value());
    }

    #[test]
    fn inverter_flips_polarity_delays() {
        let input = wf(false, &[100.0]);
        // Input rises → output falls → fall delay applies.
        let out = evaluate_gate(
            &[&input],
            &[PinDelays {
                rise: 5.0,
                fall: 11.0,
            }],
            |v| !v[0],
        );
        assert!(out.initial_value());
        assert_eq!(out.transitions(), &[111.0]);
    }

    #[test]
    fn and_gate_masks_controlled_input() {
        let a = wf(false, &[100.0]);
        let b = Waveform::constant(false); // controlling 0: output stays 0
        let out = evaluate_gate(&[&a, &b], &[PinDelays::default(); 2], |v| v[0] && v[1]);
        assert_eq!(out.num_transitions(), 0);
        assert!(!out.initial_value());
    }

    #[test]
    fn nand_glitch_from_skewed_inputs() {
        // a falls at 105, b rises at 100: window [100,105) has a=1,b=1 →
        // the NAND output dips and recovers: a glitch survives when the
        // delays keep the pulse open.
        let a = wf(true, &[105.0]);
        let b = wf(false, &[100.0]);
        let d = PinDelays {
            rise: 10.0,
            fall: 10.0,
        };
        let out = evaluate_gate(&[&a, &b], &[d, d], |v| !(v[0] && v[1]));
        // Fall caused at 100+10=110, rise caused at 105+10=115.
        assert!(out.initial_value());
        assert_eq!(out.transitions(), &[110.0, 115.0]);
        assert!(out.final_value());
    }

    #[test]
    fn glitch_filtered_when_delays_close_it() {
        // Same stimulus, but the rise delay is shorter than the fall delay:
        // the recovering rise at 105+4=109 overtakes the fall at 100+10=110
        // → both cancel, no output pulse.
        let a = wf(true, &[105.0]);
        let b = wf(false, &[100.0]);
        let d = PinDelays {
            rise: 4.0,
            fall: 10.0,
        };
        let out = evaluate_gate(&[&a, &b], &[d, d], |v| !(v[0] && v[1]));
        assert_eq!(out.num_transitions(), 0);
        assert!(out.initial_value());
        assert!(out.final_value());
    }

    #[test]
    fn narrow_input_pulse_filtered() {
        // 3-wide input pulse through a buffer with rise 10 / fall 5:
        // rise lands at t+10, fall at t+3+5=t+8 → overtakes → silence.
        let input = wf(false, &[100.0, 103.0]);
        let out = delay_waveform(
            &input,
            PinDelays {
                rise: 10.0,
                fall: 5.0,
            },
        );
        assert_eq!(out.num_transitions(), 0);
    }

    #[test]
    fn simultaneous_input_events() {
        // Both NAND inputs swap at the same instant (1,0) → (0,1); the
        // output stays 1 both before and after, and any internal hazard is
        // resolved by the overtaking rule (rise scheduled first is popped).
        let a = wf(true, &[100.0]);
        let b = wf(false, &[100.0]);
        let d = PinDelays {
            rise: 10.0,
            fall: 10.0,
        };
        let out = evaluate_gate(&[&a, &b], &[d, d], |v| !(v[0] && v[1]));
        assert!(out.initial_value());
        assert_eq!(out.num_transitions(), 0);
    }

    #[test]
    fn per_pin_delays_differ() {
        // XOR with different pin delays: pin 0 slow, pin 1 fast.
        let a = wf(false, &[100.0]);
        let b = wf(false, &[200.0]);
        let d0 = PinDelays {
            rise: 20.0,
            fall: 20.0,
        };
        let d1 = PinDelays {
            rise: 3.0,
            fall: 3.0,
        };
        let out = evaluate_gate(&[&a, &b], &[d0, d1], |v| v[0] ^ v[1]);
        assert_eq!(out.transitions(), &[120.0, 203.0]);
    }

    #[test]
    fn segmented_boundary_event_uses_later_segment() {
        // INV with a slow segment 0 (delay 5) and a fast segment 1
        // (delay 1) starting at t = 10.
        let seg_delays = [
            PinDelays {
                rise: 5.0,
                fall: 5.0,
            },
            PinDelays {
                rise: 1.0,
                fall: 1.0,
            },
        ];
        let mut scratch = GateScratch::new();
        let mut run = |event_t: f64| {
            let input = wf(false, &[event_t]);
            let initial = evaluate_gate_bounded_raw_segmented(
                &[&input],
                &[10.0],
                |seg, _pin| seg_delays[seg],
                |v| !v[0],
                &mut scratch,
                usize::MAX,
            )
            .unwrap();
            (initial, scratch.scheduled().to_vec())
        };
        // Just before the boundary: segment 0's delay applies.
        assert_eq!(run(9.9), (true, vec![9.9 + 5.0]));
        // Exactly at the boundary: the event belongs to the *later*
        // segment (partition_point with `<=`).
        assert_eq!(run(10.0), (true, vec![10.0 + 1.0]));
        // Past the boundary: still segment 1.
        assert_eq!(run(10.1), (true, vec![10.1 + 1.0]));
    }

    #[test]
    fn segmented_with_empty_boundaries_matches_raw() {
        // Skewed NAND inputs that produce a glitch — a case exercising
        // cancellation and capacity bookkeeping in both variants.
        let a = wf(true, &[10.0, 40.0]);
        let b = wf(false, &[12.0, 35.0, 36.0]);
        let delays = [
            PinDelays {
                rise: 3.0,
                fall: 4.0,
            },
            PinDelays {
                rise: 2.5,
                fall: 6.0,
            },
        ];
        let mut s1 = GateScratch::new();
        let mut s2 = GateScratch::new();
        let nand = |v: &[bool]| !(v[0] && v[1]);
        let i1 = evaluate_gate_bounded_raw(&[&a, &b], &delays, nand, &mut s1, 8).unwrap();
        let i2 = evaluate_gate_bounded_raw_segmented(
            &[&a, &b],
            &[],
            |_seg, pin| delays[pin],
            nand,
            &mut s2,
            8,
        )
        .unwrap();
        assert_eq!(i1, i2);
        assert_eq!(s1.scheduled(), s2.scheduled());
    }

    #[test]
    fn segmented_overflow_still_detected() {
        let input = wf(false, &[1.0, 2.0, 3.0, 4.0]);
        let mut scratch = GateScratch::new();
        let err = evaluate_gate_bounded_raw_segmented(
            &[&input],
            &[2.5],
            |_seg, _pin| PinDelays {
                rise: 0.1,
                fall: 0.1,
            },
            |v| v[0],
            &mut scratch,
            2,
        )
        .unwrap_err();
        assert_eq!(err.capacity, 2);
    }

    #[test]
    fn an_unstaged_output_is_dropped_by_the_next_evaluation() {
        let d = [PinDelays {
            rise: 1.0,
            fall: 1.0,
        }];
        let mut scratch = GateScratch::new();
        let long = wf(false, &[1.0, 2.0, 3.0]);
        evaluate_gate_bounded_raw(&[&long], &d, |v| v[0], &mut scratch, 8).unwrap();
        assert_eq!(scratch.scheduled(), &[2.0, 3.0, 4.0]);
        // An overflow leaves nothing scheduled ...
        evaluate_gate_bounded_raw(&[&long], &d, |v| v[0], &mut scratch, 2).unwrap_err();
        assert_eq!(scratch.scheduled(), &[] as &[f64]);
        // ... and a later evaluation starts from a clean schedule.
        let short = wf(true, &[5.0]);
        assert!(evaluate_gate_bounded_raw(&[&short], &d, |v| v[0], &mut scratch, 8).unwrap());
        assert_eq!(scratch.scheduled(), &[6.0]);
    }

    proptest! {
        #[test]
        fn truth_table_loop_matches_the_vec_bool_reference(
            grid_times in proptest::collection::vec(proptest::collection::vec(0usize..40, 0..10), 4),
            initials in 0u32..16,
            delay_values in proptest::collection::vec(0.5f64..30.0, 24),
        ) {
            use avfs_netlist::{CellKind, DriveStrength, LogicFunction};
            // Times sit on a 5 ps grid, so two pins often switch at the
            // same instant and events land exactly on the segment
            // boundaries below.
            let waveforms: Vec<Waveform> = grid_times
                .iter()
                .enumerate()
                .map(|(pin, ticks)| {
                    let mut ticks = ticks.clone();
                    ticks.sort_unstable();
                    ticks.dedup();
                    let times = ticks.iter().map(|&k| 5.0 * k as f64).collect();
                    Waveform::with_transitions(initials >> pin & 1 == 1, times).unwrap()
                })
                .collect();
            let boundaries = [50.0, 120.0];
            let seg_delay = |segment: usize, pin: usize| PinDelays {
                rise: delay_values[(segment * 4 + pin) * 2],
                fall: delay_values[(segment * 4 + pin) * 2 + 1],
            };
            let mut scratch = GateScratch::new();
            for &function in LogicFunction::all() {
                for pins in function.arity_range() {
                    let kind = CellKind::new(function, pins, DriveStrength::X1).unwrap();
                    let table = kind.truth_table();
                    let inputs = &waveforms[..pins];
                    let static_delays: Vec<PinDelays> =
                        (0..pins).map(|pin| seg_delay(0, pin)).collect();
                    for cap in [1, 2, 8, usize::MAX] {
                        // Static timeline: the truth-table form the
                        // engine runs and the `&[bool]` door.
                        let want =
                            reference_merge(inputs, |_, pin| static_delays[pin], |v| kind.eval(v), cap);
                        let got = merge_transitions(
                            inputs,
                            |_, pin| static_delays[pin],
                            |bits| table >> bits & 1 == 1,
                            &mut scratch,
                            cap,
                        )
                        .map(|initial| (initial, scratch.scheduled().to_vec()));
                        prop_assert_eq!(&got, &want, "{} static cap {}", kind, cap);
                        let got = evaluate_gate_bounded_raw(
                            inputs, &static_delays, |v| kind.eval(v), &mut scratch, cap,
                        )
                        .map(|initial| (initial, scratch.scheduled().to_vec()));
                        prop_assert_eq!(&got, &want, "{} static door cap {}", kind, cap);

                        // Three segments, each with its own delays.
                        let want = reference_merge(
                            inputs,
                            |t, pin| seg_delay(boundaries.partition_point(|b| *b <= t), pin),
                            |v| kind.eval(v),
                            cap,
                        );
                        let got = merge_transitions(
                            inputs,
                            |t, pin| seg_delay(segment_of(&boundaries, t), pin),
                            |bits| table >> bits & 1 == 1,
                            &mut scratch,
                            cap,
                        )
                        .map(|initial| (initial, scratch.scheduled().to_vec()));
                        prop_assert_eq!(&got, &want, "{} segmented cap {}", kind, cap);
                        let got = evaluate_gate_bounded_raw_segmented(
                            inputs, &boundaries, seg_delay, |v| kind.eval(v), &mut scratch, cap,
                        )
                        .map(|initial| (initial, scratch.scheduled().to_vec()));
                        prop_assert_eq!(&got, &want, "{} segmented door cap {}", kind, cap);
                    }
                }
            }
        }

        #[test]
        fn value_at_consistent_with_final(times in proptest::collection::vec(0.0f64..1e6, 0..20)) {
            let mut sorted = times.clone();
            sorted.sort_by(f64::total_cmp);
            sorted.dedup();
            let w = Waveform::with_transitions(false, sorted.clone()).unwrap();
            prop_assert_eq!(w.value_at(2e6), w.final_value());
            prop_assert_eq!(w.value_at(-1.0), w.initial_value());
        }

        #[test]
        fn gate_output_invariants(
            a_times in proptest::collection::vec(0.0f64..1000.0, 0..12),
            b_times in proptest::collection::vec(0.0f64..1000.0, 0..12),
            rise in 1.0f64..30.0,
            fall in 1.0f64..30.0,
        ) {
            let mut a_t = a_times.clone(); a_t.sort_by(f64::total_cmp); a_t.dedup();
            let mut b_t = b_times.clone(); b_t.sort_by(f64::total_cmp); b_t.dedup();
            let a = Waveform::with_transitions(false, a_t).unwrap();
            let b = Waveform::with_transitions(true, b_t).unwrap();
            let d = PinDelays { rise, fall };
            let out = evaluate_gate(&[&a, &b], &[d, d], |v| !(v[0] && v[1]));
            // Output transitions strictly increasing and finite.
            prop_assert!(out.check_invariants());
            // Causality: no output transition before the earliest input
            // event plus the smallest delay.
            if let Some(&first_out) = out.transitions().first() {
                let first_in = a.transitions().first().copied()
                    .into_iter()
                    .chain(b.transitions().first().copied())
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(first_out >= first_in + rise.min(fall) - 1e-9);
            }
            // Steady state: the final value equals the gate function of the
            // final input values.
            prop_assert_eq!(out.final_value(), !(a.final_value() && b.final_value()));
            // Initial value equals the function of initial inputs.
            prop_assert_eq!(out.initial_value(), !(a.initial_value() && b.initial_value()));
        }

        #[test]
        fn buffer_chain_associativity(
            times in proptest::collection::vec(0.0f64..1000.0, 0..10),
            d1 in 1.0f64..20.0,
            d2 in 1.0f64..20.0,
        ) {
            // Two buffers with symmetric delays compose additively.
            let mut t = times.clone(); t.sort_by(f64::total_cmp); t.dedup();
            let w = Waveform::with_transitions(false, t).unwrap();
            let sym1 = PinDelays { rise: d1, fall: d1 };
            let sym2 = PinDelays { rise: d2, fall: d2 };
            let sym12 = PinDelays { rise: d1 + d2, fall: d1 + d2 };
            let chained = delay_waveform(&delay_waveform(&w, sym1), sym2);
            let direct = delay_waveform(&w, sym12);
            prop_assert_eq!(chained.transitions().len(), direct.transitions().len());
            for (x, y) in chained.transitions().iter().zip(direct.transitions()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
