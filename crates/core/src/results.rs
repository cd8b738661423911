//! Simulation results, per-slot fault status and throughput accounting.

use crate::slots::SlotSpec;
use avfs_obs::Profile;
use avfs_waveform::{SwitchingActivity, Waveform};
use std::fmt;
use std::time::Duration;

/// Completion status of one slot — the fault-isolation verdict.
///
/// The engine never aborts a run for a single misbehaving slot: a slot
/// whose waveforms outgrow the bounded arena is quarantined and retried at
/// larger capacity, and a slot whose worker panics is contained. This enum
/// records how each slot ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    /// The slot simulated to completion; `retries` counts how many times it
    /// had to be re-simulated after a waveform-capacity overflow (0 = first
    /// attempt succeeded).
    Completed {
        /// Capacity-growth re-simulations this slot needed.
        retries: u32,
    },
    /// The slot still overflowed at the final retry capacity; its result
    /// fields are empty.
    Overflowed {
        /// The per-net transition capacity of the last attempt.
        capacity: usize,
    },
    /// The slot's worker panicked; the panic was contained and the slot's
    /// result fields are empty.
    Panicked,
}

impl SlotStatus {
    /// Whether the slot produced a usable result.
    pub fn is_completed(&self) -> bool {
        matches!(self, SlotStatus::Completed { .. })
    }
}

impl Default for SlotStatus {
    /// Completed on the first attempt.
    fn default() -> Self {
        SlotStatus::Completed { retries: 0 }
    }
}

/// Aggregated robustness diagnostics of one run.
///
/// The counters answer "did the engine have to defend itself, and how?" —
/// the CPU analogue of reading back the GPU's overflow flags after a
/// launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDiagnostics {
    /// Slots (by index into [`SimRun::slots`]) that overflowed the
    /// waveform arena at least once, including those that completed after
    /// a retry.
    pub overflowed_slots: Vec<usize>,
    /// Total capacity-growth re-simulations across all slots.
    pub slot_retries: u64,
    /// Slots whose worker panicked (contained; marked
    /// [`SlotStatus::Panicked`]).
    pub panicked_slots: Vec<usize>,
    /// Slots that produced no usable result (panicked, or still overflowing
    /// at the retry limit).
    pub failed_slots: Vec<usize>,
    /// Annotated output loads outside the delay model's characterized
    /// interval, silently clamped to its boundary during engine setup.
    pub clamped_loads: usize,
    /// Gate-delay scalings whose result was non-finite and fell back to
    /// the nominal delay (see the online delay calculation guard), counted
    /// per slot that read them — so batching never moves the count.
    pub kernel_fallbacks: u64,
    /// Largest per-`(slot, net)` transition count observed in the arena —
    /// compare against the configured capacity to judge headroom.
    pub peak_arena_occupancy: usize,
    /// Faults fired by an armed
    /// [`fault_plan`](crate::engine::SimOptions::fault_plan) during this
    /// run (0 when unarmed or armed-empty).
    pub faults_injected: u64,
    /// Rendered `avfs-check` findings from the run's up-front validation
    /// (`severity rule [location]: message` per line): the artifact's
    /// [`setup_findings`](crate::CompiledNetlist::setup_findings), then
    /// the launch's own. Empty when the launch is clean. Findings never
    /// stop a run; a caller that wants to refuse one reads them here.
    pub validation_findings: Vec<String>,
}

impl fmt::Display for RunDiagnostics {
    /// One-line-per-counter human-readable summary — the rendering the
    /// examples print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "diagnostics:")?;
        writeln!(
            f,
            "  overflowed slots : {} (retries: {})",
            self.overflowed_slots.len(),
            self.slot_retries
        )?;
        writeln!(f, "  panicked slots   : {}", self.panicked_slots.len())?;
        writeln!(f, "  failed slots     : {}", self.failed_slots.len())?;
        writeln!(f, "  clamped loads    : {}", self.clamped_loads)?;
        writeln!(f, "  kernel fallbacks : {}", self.kernel_fallbacks)?;
        writeln!(
            f,
            "  peak arena use   : {} transitions/net",
            self.peak_arena_occupancy
        )?;
        if self.faults_injected > 0 {
            writeln!(f, "  faults injected  : {}", self.faults_injected)?;
        }
        writeln!(
            f,
            "  validation       : {} finding(s)",
            self.validation_findings.len()
        )?;
        for finding in &self.validation_findings {
            writeln!(f, "    {finding}")?;
        }
        Ok(())
    }
}

/// The outcome of one slot (one stimulus under one operating point).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotResult {
    /// The slot assignment this result belongs to.
    pub spec: SlotSpec,
    /// How the slot ended: completed (with retry count), overflowed, or
    /// panicked. Non-completed slots have empty result fields.
    pub status: SlotStatus,
    /// Final value of every primary output (the test response).
    pub responses: Vec<bool>,
    /// Latest transition observed at any primary output, ps — the
    /// "latest transition arrival time" of Table II.
    pub latest_output_transition_ps: Option<f64>,
    /// Switching activity aggregated over all nets of the slot.
    pub activity: SwitchingActivity,
    /// Full per-net waveforms (only retained when
    /// [`SimOptions::keep_waveforms`](crate::engine::SimOptions) is set —
    /// memory scales with nodes × slots).
    pub waveforms: Option<Vec<Waveform>>,
}

impl SlotResult {
    /// An empty result recording a failed slot.
    pub(crate) fn failed(spec: SlotSpec, status: SlotStatus) -> SlotResult {
        SlotResult {
            spec,
            status,
            responses: Vec::new(),
            latest_output_transition_ps: None,
            activity: SwitchingActivity::default(),
            waveforms: None,
        }
    }
}

/// A completed simulation run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Per-slot results in slot order.
    pub slots: Vec<SlotResult>,
    /// Wall-clock simulation time (excludes setup, as in the paper's
    /// "only the bare simulation times were considered").
    pub elapsed: Duration,
    /// Total node evaluations (nodes × slots, retries included).
    pub node_evaluations: u64,
    /// Robustness diagnostics: overflows, retries, contained panics,
    /// clamped inputs and arena headroom.
    pub diagnostics: RunDiagnostics,
    /// Phase-level performance profile — `Some` only when the run was
    /// launched with
    /// [`SimOptions::profiling`](crate::engine::SimOptions::profiling).
    /// Phase names are the constants of [`crate::phases`]; durations are
    /// nanoseconds.
    pub profile: Option<Profile>,
    /// Scenario reduction — `Some` only when the run was launched from a
    /// [`Launch::Scenarios`](crate::Launch::Scenarios) request: the
    /// failure-probability-vs-voltage curve over the run's slots
    /// (DESIGN.md §5).
    pub scenario: Option<crate::scenario::ScenarioSummary>,
}

impl SimRun {
    /// Throughput in million node evaluations per second — the MEPS metric
    /// of Table I.
    pub fn meps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.node_evaluations as f64 / secs / 1e6
    }

    /// The latest output transition over all slots at a given voltage
    /// (Table II aggregates per voltage over the whole pattern set).
    pub fn latest_arrival_at(&self, voltage: f64) -> Option<f64> {
        self.slots
            .iter()
            .filter(|s| (s.spec.voltage - voltage).abs() < 1e-12)
            .filter_map(|s| s.latest_output_transition_ps)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Distinct voltages simulated, in first-appearance order.
    pub fn voltages(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for s in &self.slots {
            if !out.iter().any(|&v| (v - s.spec.voltage).abs() < 1e-12) {
                out.push(s.spec.voltage);
            }
        }
        out
    }

    /// Whether every slot produced a usable result.
    pub fn is_complete(&self) -> bool {
        self.diagnostics.failed_slots.is_empty()
    }

    /// Human-readable run summary: throughput, diagnostics, and — when
    /// profiling was on — the phase-level profile. Used by the examples.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} slots in {:.3} ms — {:.2} MEPS ({} node evaluations)\n",
            self.slots.len(),
            self.elapsed.as_secs_f64() * 1e3,
            self.meps(),
            self.node_evaluations,
        );
        out.push_str(&self.diagnostics.to_string());
        if let Some(profile) = &self.profile {
            out.push_str(&profile.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(voltage: f64, latest: Option<f64>) -> SlotResult {
        SlotResult {
            spec: SlotSpec {
                pattern: 0,
                voltage,
            },
            status: SlotStatus::default(),
            responses: vec![],
            latest_output_transition_ps: latest,
            activity: SwitchingActivity::default(),
            waveforms: None,
        }
    }

    #[test]
    fn meps_accounting() {
        let run = SimRun {
            slots: vec![],
            elapsed: Duration::from_millis(100),
            node_evaluations: 5_000_000,
            diagnostics: RunDiagnostics::default(),
            profile: None,
            scenario: None,
        };
        assert!((run.meps() - 50.0).abs() < 1e-9);
        let zero = SimRun {
            slots: vec![],
            elapsed: Duration::ZERO,
            node_evaluations: 1,
            diagnostics: RunDiagnostics::default(),
            profile: None,
            scenario: None,
        };
        assert_eq!(zero.meps(), 0.0);
    }

    #[test]
    fn latest_arrival_per_voltage() {
        let run = SimRun {
            slots: vec![
                slot(0.8, Some(100.0)),
                slot(0.8, Some(250.0)),
                slot(0.8, None),
                slot(1.1, Some(80.0)),
            ],
            elapsed: Duration::from_secs(1),
            node_evaluations: 1,
            diagnostics: RunDiagnostics::default(),
            profile: None,
            scenario: None,
        };
        assert_eq!(run.latest_arrival_at(0.8), Some(250.0));
        assert_eq!(run.latest_arrival_at(1.1), Some(80.0));
        assert_eq!(run.latest_arrival_at(0.55), None);
        assert_eq!(run.voltages(), vec![0.8, 1.1]);
    }

    #[test]
    fn status_and_completeness() {
        assert!(SlotStatus::default().is_completed());
        assert!(SlotStatus::Completed { retries: 3 }.is_completed());
        assert!(!SlotStatus::Overflowed { capacity: 64 }.is_completed());
        assert!(!SlotStatus::Panicked.is_completed());
        let clean = SimRun {
            slots: vec![slot(0.8, None)],
            elapsed: Duration::ZERO,
            node_evaluations: 0,
            diagnostics: RunDiagnostics::default(),
            profile: None,
            scenario: None,
        };
        assert!(clean.is_complete());
        let failed = SimRun {
            diagnostics: RunDiagnostics {
                failed_slots: vec![0],
                ..RunDiagnostics::default()
            },
            ..clean
        };
        assert!(!failed.is_complete());
    }
}
