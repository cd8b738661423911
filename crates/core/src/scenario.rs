//! Time-domain AVFS scenarios: piecewise operating-point schedules and
//! Monte Carlo process variation (DESIGN.md §5).
//!
//! A *scenario* replays one stimulus pair under a [`Schedule`] — a
//! piecewise-constant supply trace of `(t_start, voltage)` [`Segment`]s
//! modeling DVFS governor steps, voltage-droop transients, or per-domain
//! supply sequences. The engine binds one per-voltage delay table per
//! segment (the same tables static launches at those supplies use), and
//! every gate evaluation picks its segment by the *cause*
//! time: an input event at time `t` uses segment
//! `boundaries.partition_point(|b| *b <= t)`, so an event exactly at a
//! boundary sees the later segment's supply.
//!
//! Optionally, a [`MonteCarlo`] plan expands every scenario into `N`
//! sampled slots across the lane-parallel grid. Each sample `s` is one
//! "die": a deterministic per-`(sample, node, pin, polarity)` delay
//! derate drawn by hashing, never by a stateful RNG (see
//! [`avfs_delay::variation::derate`]), so draws are independent of the
//! schedule, of slot order, of batching, and of the thread count —
//! replaying a seed replays the dice exactly. The engine leans on that
//! twice: the *launch* order is scenario-major (scenario `i`'s dice are
//! slots `i * N ..`, which is how results come back), but batches are cut
//! die-major, and within a batch a die is drawn once per level and shared
//! by every schedule that carries it — a die costs one draw per batch,
//! not one per scenario. The run's
//! [`ScenarioSummary`] reduces the sampled slots into a
//! failure-probability-vs-voltage curve against a capture deadline.
//!
//! # Constant schedules are static runs
//!
//! A single-segment schedule lowers to the same internal voltage
//! assignment as a static slot before any kernel work happens, so a
//! constant-schedule scenario run is **bit-identical** to the
//! corresponding static run — same responses, same arrival times, same
//! profile — at every thread count, lane width, and batch split:
//!
//! ```
//! use std::sync::Arc;
//! use avfs_core::{scenario::{Schedule, ScenarioSpec}, slots, CompiledNetlist, Launch};
//! use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
//! use avfs_netlist::CellLibrary;
//! use avfs_spice::Technology;
//! use avfs_atpg::PatternSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::nangate15_like();
//! let netlist = Arc::new(avfs_circuits::c17(&lib)?);
//! let nand = lib.find("NAND2_X1").expect("cell exists");
//! let chars = characterize_library(
//!     &lib,
//!     &Technology::nm15(),
//!     &CharacterizationConfig::fast(),
//!     Some(&[nand]),
//! )?;
//! let sim = CompiledNetlist::from_characterization(netlist, &chars)?;
//! let patterns = PatternSet::lfsr(5, 4, 42);
//!
//! // "Schedule" every pattern at a constant 0.8 V ...
//! let scenarios: Vec<ScenarioSpec> = (0..patterns.len())
//!     .map(|pattern| ScenarioSpec { pattern, schedule: Schedule::constant(0.8) })
//!     .collect();
//! let request = Launch::Scenarios { scenarios: &scenarios, mc: None, capture_deadline_ps: None };
//! let scheduled = sim.launch(&patterns, request, &Default::default())?;
//!
//! // ... and it is the 0.8 V static run, bit for bit.
//! let fixed = sim.launch(&patterns, &slots::at_voltage(patterns.len(), 0.8), &Default::default())?;
//! for (a, b) in scheduled.slots.iter().zip(&fixed.slots) {
//!     assert_eq!(a.responses, b.responses);
//!     assert_eq!(a.latest_output_transition_ps, b.latest_output_transition_ps);
//! }
//! # Ok(())
//! # }
//! ```

use crate::compile::CompiledNetlist;
use crate::engine::{NormalizedSchedule, VoltageAssign};
use crate::results::SlotResult;
use crate::SimError;
use avfs_check::schedule::{lint_schedule, lint_schedule_voltages};
use avfs_check::Findings;
use avfs_delay::VariationConfig;
use std::sync::Arc;

/// One schedule segment: from `t_start_ps` (inclusive) until the next
/// segment's start, the slot's supply is `voltage`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start, ps. The first segment must start at `0.0`.
    pub t_start_ps: f64,
    /// Supply voltage over the segment, V.
    pub voltage: f64,
}

/// A piecewise-constant supply schedule: non-empty, anchored at
/// `t = 0 ps`, with strictly increasing finite start times and finite
/// positive voltages (lint rule `AVC-N010`). Structurally un-lowerable
/// schedules — empty, unsorted, or non-finite start times — are refused
/// with [`SimError::InvalidSchedule`] before any kernel work; an
/// unanchored first segment is repairable (lowering extends it back to
/// `t = 0`) and is recorded in
/// [`RunDiagnostics::validation_findings`](crate::RunDiagnostics::validation_findings)
/// like any other launch finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The segments in timeline order.
    pub segments: Vec<Segment>,
}

impl Schedule {
    /// A constant (single-segment) schedule — semantically identical to
    /// a static slot at `voltage`, and guaranteed bit-identical to one
    /// (the scenario layer lowers it to the same internal assignment).
    pub fn constant(voltage: f64) -> Schedule {
        Schedule {
            segments: vec![Segment {
                t_start_ps: 0.0,
                voltage,
            }],
        }
    }

    /// A schedule from `(t_start_ps, voltage)` steps in timeline order —
    /// the shape a DVFS governor trace arrives in.
    pub fn steps<I>(steps: I) -> Schedule
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        Schedule {
            segments: steps
                .into_iter()
                .map(|(t_start_ps, voltage)| Segment {
                    t_start_ps,
                    voltage,
                })
                .collect(),
        }
    }

    /// A three-segment voltage-droop transient: `nominal` until
    /// `t_onset_ps`, then `nominal - droop` until `t_recover_ps`, then
    /// `nominal` again — the classic supply-droop shape AVFS responds to.
    pub fn droop(nominal: f64, droop: f64, t_onset_ps: f64, t_recover_ps: f64) -> Schedule {
        Schedule::steps([
            (0.0, nominal),
            (t_onset_ps, nominal - droop),
            (t_recover_ps, nominal),
        ])
    }
}

/// One scenario: which pattern pair to replay under which schedule — the
/// scheduled analogue of [`SlotSpec`](crate::SlotSpec).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Index into the [`PatternSet`](avfs_atpg::PatternSet) under simulation.
    pub pattern: usize,
    /// The supply schedule driving this circuit instance.
    pub schedule: Schedule,
}

/// Builds the cross product `patterns × schedules`, schedule-major — the
/// scheduled analogue of [`cross`](crate::slots::cross), so a batch
/// prefers filling with one schedule (one delay-table set) first.
pub fn cross_schedules(num_patterns: usize, schedules: &[Schedule]) -> Vec<ScenarioSpec> {
    let mut specs = Vec::with_capacity(num_patterns * schedules.len());
    for schedule in schedules {
        for pattern in 0..num_patterns {
            specs.push(ScenarioSpec {
                pattern,
                schedule: schedule.clone(),
            });
        }
    }
    specs
}

/// A Monte Carlo process-variation plan: expand every scenario into
/// `samples` dice drawn from `variation`. Sample 0 of seed `s` is the
/// same die in every launch, batch, and schedule — draws are pure hashes
/// of `(seed, sample, node, pin, polarity)`. `variation.sigma` and
/// `variation.max_deviation` must be finite and non-negative
/// ([`SimError::InvalidVariation`] otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Dice per scenario (must be nonzero).
    pub samples: usize,
    /// The per-pin delay-derate distribution and its seed.
    pub variation: VariationConfig,
}

/// One point of the failure-probability-vs-voltage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePoint {
    /// Representative (segment-0) supply voltage of the scenarios
    /// aggregated here, V.
    pub voltage: f64,
    /// Completed sampled slots at this voltage (failed slots — overflow,
    /// panic, deadline — are excluded from the denominator).
    pub samples: usize,
    /// Samples whose latest output transition missed the capture
    /// deadline.
    pub failures: usize,
    /// `failures / samples` (0 when no sample completed).
    pub p_fail: f64,
}

/// The scenario reduction attached to the run of a
/// [`Launch::Scenarios`](crate::Launch::Scenarios) request: sampled slots grouped by
/// representative voltage into a failure-probability curve — the
/// V_min-style readout of a Monte Carlo AVFS exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Monte Carlo dice per scenario (1 when no plan was given).
    pub samples_per_scenario: usize,
    /// The variation seed (`None` when no plan was given).
    pub seed: Option<u64>,
    /// The capture deadline failures were counted against (`None` = no
    /// deadline; every completed sample passes).
    pub capture_deadline_ps: Option<f64>,
    /// Curve points in first-appearance order of the representative
    /// voltages.
    pub points: Vec<FailurePoint>,
}

/// Refuses a variation distribution `derate` cannot draw from: it clamps
/// a deviate into `±max_deviation` (a panic for a negative or NaN bound)
/// and floors `1 + ε` at 0 (which maps a NaN sigma's ε to a 0 ps delay
/// everywhere), so the distribution is checked where it enters a launch,
/// not where it is drawn.
pub(crate) fn check_variation(v: &VariationConfig) -> Result<(), SimError> {
    let usable = |x: f64| x.is_finite() && x >= 0.0;
    if usable(v.sigma) && usable(v.max_deviation) {
        Ok(())
    } else {
        Err(SimError::InvalidVariation {
            sigma: v.sigma,
            max_deviation: v.max_deviation,
        })
    }
}

/// Refuses a capture time no waveform can be judged against: a NaN
/// compares false with every arrival, so it would pass every sample.
pub(crate) fn check_capture_time(capture_ps: f64) -> Result<(), SimError> {
    if capture_ps.is_finite() && capture_ps >= 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidCaptureTime { capture_ps })
    }
}

/// Reduces a run's slots into the failure-probability-vs-voltage curve.
/// Voltages within `1e-12` V collapse into one point; only completed
/// slots count as samples.
pub(crate) fn summarize(
    slots: &[SlotResult],
    mc: Option<&MonteCarlo>,
    capture_deadline_ps: Option<f64>,
) -> ScenarioSummary {
    let mut points: Vec<FailurePoint> = Vec::new();
    for slot in slots {
        let v = slot.spec.voltage;
        let idx = match points.iter().position(|p| (p.voltage - v).abs() <= 1e-12) {
            Some(i) => i,
            None => {
                points.push(FailurePoint {
                    voltage: v,
                    samples: 0,
                    failures: 0,
                    p_fail: 0.0,
                });
                points.len() - 1
            }
        };
        if slot.status.is_completed() {
            points[idx].samples += 1;
            let missed = matches!(
                (slot.latest_output_transition_ps, capture_deadline_ps),
                (Some(t), Some(deadline)) if t > deadline
            );
            if missed {
                points[idx].failures += 1;
            }
        }
    }
    for p in &mut points {
        if p.samples > 0 {
            p.p_fail = p.failures as f64 / p.samples as f64;
        }
    }
    ScenarioSummary {
        samples_per_scenario: mc.map_or(1, |m| m.samples),
        seed: mc.map(|m| m.variation.seed),
        capture_deadline_ps,
        points,
    }
}

impl CompiledNetlist {
    /// Lowers scenario `i`'s schedule to a voltage assignment, adding its
    /// repairable lint findings to `findings`.
    ///
    /// Schedules with no lowering semantics — empty, non-finite, or
    /// non-increasing segment starts (`partition_point` needs a strictly
    /// sorted finite boundary list) — are refused with
    /// [`SimError::InvalidSchedule`]. The repairable findings — a first
    /// segment not anchored at `t = 0` (`AVC-N010`: lowering extends it
    /// back to the launch instant) and supplies outside the characterized
    /// voltage range (`AVC-D006`: the kernel clamps them onto the
    /// boundary) — are recorded and the launch proceeds.
    pub(crate) fn lower_schedule(
        &self,
        i: usize,
        schedule: &Schedule,
        findings: &mut Findings,
    ) -> Result<VoltageAssign, SimError> {
        let segs = &schedule.segments;
        let fatal = segs.is_empty()
            || segs.iter().any(|s| !s.t_start_ps.is_finite())
            || segs.windows(2).any(|w| w[1].t_start_ps <= w[0].t_start_ps);
        let pairs: Vec<(f64, f64)> = segs.iter().map(|s| (s.t_start_ps, s.voltage)).collect();
        let location = format!("scenario {i}");
        if fatal {
            let mut shape = Findings::default();
            lint_schedule(&location, &pairs, &mut shape);
            let first = shape.finish().into_iter().next();
            return Err(SimError::InvalidSchedule {
                slot: i,
                message: first.expect("fatal schedule has a lint finding").message,
            });
        }
        lint_schedule(&location, &pairs, findings);
        let (v_min, v_max) = self.model.space().voltage_range();
        lint_schedule_voltages(&location, &pairs, v_min, v_max, findings);
        let v_norms: Vec<f64> = segs.iter().map(|seg| self.v_norm(seg.voltage)).collect();
        // A single-segment schedule lowers to the exact assignment a
        // static slot gets — the constant-schedule ≡ static identity
        // holds by construction, not by numerical luck.
        Ok(if v_norms.len() == 1 {
            VoltageAssign::Uniform(v_norms[0])
        } else {
            VoltageAssign::Scheduled(Arc::new(NormalizedSchedule {
                v_norms,
                boundaries: segs[1..].iter().map(|s| s.t_start_ps).collect(),
            }))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::SlotStatus;
    use crate::slots::SlotSpec;
    use avfs_waveform::SwitchingActivity;

    fn completed(voltage: f64, latest: Option<f64>) -> SlotResult {
        SlotResult {
            spec: SlotSpec {
                pattern: 0,
                voltage,
            },
            status: SlotStatus::Completed { retries: 0 },
            responses: vec![true],
            latest_output_transition_ps: latest,
            activity: SwitchingActivity::default(),
            waveforms: None,
        }
    }

    #[test]
    fn schedule_constructors() {
        assert_eq!(
            Schedule::constant(0.8).segments,
            vec![Segment {
                t_start_ps: 0.0,
                voltage: 0.8
            }]
        );
        let droop = Schedule::droop(0.8, 0.1, 40.0, 90.0);
        assert_eq!(
            droop
                .segments
                .iter()
                .map(|s| s.t_start_ps)
                .collect::<Vec<_>>(),
            vec![0.0, 40.0, 90.0]
        );
        assert!((droop.segments[1].voltage - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cross_schedules_is_schedule_major() {
        let specs = cross_schedules(2, &[Schedule::constant(0.8), Schedule::constant(0.7)]);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].pattern, 0);
        assert_eq!(specs[1].pattern, 1);
        assert_eq!(specs[0].schedule.segments[0].voltage, 0.8);
        assert_eq!(specs[2].schedule.segments[0].voltage, 0.7);
    }

    #[test]
    fn summarize_groups_by_voltage_and_counts_misses() {
        let slots = vec![
            completed(0.8, Some(50.0)),
            completed(0.8, Some(120.0)),
            completed(0.7, Some(130.0)),
            // Voltage within tolerance collapses into the 0.7 point.
            completed(0.7 + 1e-13, Some(40.0)),
            // Failed slot: excluded from the denominator.
            SlotResult::failed(
                SlotSpec {
                    pattern: 0,
                    voltage: 0.7,
                },
                SlotStatus::Panicked,
            ),
        ];
        let s = summarize(&slots, None, Some(100.0));
        assert_eq!(s.samples_per_scenario, 1);
        assert_eq!(s.seed, None);
        assert_eq!(s.capture_deadline_ps, Some(100.0));
        assert_eq!(s.points.len(), 2);
        // First-appearance order.
        assert_eq!(s.points[0].voltage, 0.8);
        assert_eq!(s.points[0].samples, 2);
        assert_eq!(s.points[0].failures, 1);
        assert!((s.points[0].p_fail - 0.5).abs() < 1e-12);
        assert_eq!(s.points[1].samples, 2);
        assert_eq!(s.points[1].failures, 1);
    }

    #[test]
    fn summarize_without_deadline_never_fails() {
        let slots = vec![completed(0.8, Some(1e9))];
        let s = summarize(&slots, None, None);
        assert_eq!(s.points[0].failures, 0);
        assert_eq!(s.points[0].p_fail, 0.0);
    }

    #[test]
    fn summarize_records_mc_metadata() {
        let mc = MonteCarlo {
            samples: 16,
            variation: VariationConfig {
                sigma: 0.05,
                max_deviation: 0.2,
                seed: 7,
            },
        };
        let s = summarize(&[completed(0.8, Some(1.0))], Some(&mc), Some(2.0));
        assert_eq!(s.samples_per_scenario, 16);
        assert_eq!(s.seed, Some(7));
    }

    #[test]
    fn summarize_empty_voltage_group_reports_zero_p_fail() {
        let slots = vec![SlotResult::failed(
            SlotSpec {
                pattern: 0,
                voltage: 0.6,
            },
            SlotStatus::Overflowed { capacity: 64 },
        )];
        let s = summarize(&slots, None, Some(10.0));
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].samples, 0);
        assert_eq!(s.points[0].p_fail, 0.0);
    }
}
