//! High-level facade tying netlist, annotation, delay model and engine
//! together — the entry point used by the examples and benches.
//!
//! Every run returned here carries the engine's
//! [`RunDiagnostics`](crate::results::RunDiagnostics): check
//! [`SimRun::is_complete`](crate::results::SimRun::is_complete) to learn
//! whether any slot was quarantined (arena overflow past the retry limit)
//! or had its panic contained, and inspect per-slot
//! [`SlotStatus`](crate::results::SlotStatus) for the verdicts.

use crate::compile::CompiledNetlist;
use crate::engine::SimOptions;
use crate::event_driven::EventDrivenSimulator;
use crate::results::SimRun;
use crate::slots::{at_voltage, cross};
use crate::sta::{longest_path, StaReport};
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::model::DelayModel;
use avfs_delay::TimingAnnotation;
use avfs_netlist::Netlist;
use std::sync::Arc;

/// One fully configured voltage-aware time simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use avfs_core::TimeSimulator;
/// use avfs_delay::{characterize::{characterize_library, CharacterizationConfig}};
/// use avfs_netlist::CellLibrary;
/// use avfs_spice::Technology;
/// use avfs_atpg::PatternSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::nangate15_like();
/// let netlist = Arc::new(avfs_circuits::c17(&lib)?);
/// let nand = lib.find("NAND2_X1").expect("cell exists");
/// let chars = characterize_library(
///     &lib,
///     &Technology::nm15(),
///     &CharacterizationConfig::fast(),
///     Some(&[nand]),
/// )?;
/// let sim = TimeSimulator::from_characterization(netlist, &chars)?;
/// let patterns = PatternSet::lfsr(5, 8, 42);
/// let sweep = sim.voltage_sweep(&patterns, &[0.55, 0.8, 1.1], &Default::default())?;
/// let t_low = sweep.latest_arrival_at(0.55).expect("outputs toggled");
/// let t_high = sweep.latest_arrival_at(1.1).expect("outputs toggled");
/// assert!(t_low > t_high, "lower voltage must be slower");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimeSimulator {
    compiled: Arc<CompiledNetlist>,
}

impl TimeSimulator {
    /// Assembles a simulator from explicit parts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AnnotationMismatch`] if the annotation does not
    /// cover the netlist.
    pub fn new(
        netlist: Arc<Netlist>,
        annotation: Arc<TimingAnnotation>,
        model: Arc<dyn DelayModel>,
    ) -> Result<TimeSimulator, SimError> {
        Ok(TimeSimulator {
            compiled: Arc::new(CompiledNetlist::compile(netlist, annotation, model)?),
        })
    }

    /// Assembles a simulator from a characterization: the netlist is
    /// annotated with nominal delays at its instance loads, and the
    /// compiled polynomial model becomes the delay kernel.
    ///
    /// # Errors
    ///
    /// Propagates annotation failures ([`SimError::Model`] for
    /// uncharacterized cells).
    pub fn from_characterization(
        netlist: Arc<Netlist>,
        chars: &avfs_delay::CharacterizedLibrary,
    ) -> Result<TimeSimulator, SimError> {
        let annotation = Arc::new(chars.annotate(&netlist)?);
        let model = Arc::new(chars.model().clone());
        TimeSimulator::new(netlist, annotation, model)
    }

    /// The compiled artifact every run launches — share it with a
    /// [`Session`](crate::Session) or [`BatchRunner`](crate::BatchRunner)
    /// for repeated runs.
    pub fn compiled(&self) -> &Arc<CompiledNetlist> {
        &self.compiled
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Arc<Netlist> {
        self.compiled.netlist()
    }

    /// The nominal annotation.
    pub fn annotation(&self) -> &Arc<TimingAnnotation> {
        self.compiled.annotation()
    }

    /// Simulates all patterns at a single supply voltage.
    ///
    /// # Errors
    ///
    /// See [`CompiledNetlist::launch`].
    pub fn run_at(
        &self,
        patterns: &PatternSet,
        voltage: f64,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.compiled
            .launch(patterns, &at_voltage(patterns.len(), voltage), options)
    }

    /// Simulates the full cross product `patterns × voltages` in one
    /// launch — the design-space-exploration entry point.
    ///
    /// # Errors
    ///
    /// See [`CompiledNetlist::launch`].
    pub fn voltage_sweep(
        &self,
        patterns: &PatternSet,
        voltages: &[f64],
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.compiled
            .launch(patterns, &cross(patterns.len(), voltages), options)
    }

    /// Simulates time-domain AVFS scenarios: each slot replays its
    /// pattern under a piecewise operating-point [`Schedule`]
    /// (droop transients, DVFS governor steps), optionally expanded into
    /// [`MonteCarlo`] process-variation dice, and the returned run
    /// carries a failure-probability-vs-voltage
    /// [`ScenarioSummary`](crate::scenario::ScenarioSummary) against
    /// `capture_deadline_ps`.
    ///
    /// A constant (single-segment) schedule is bit-identical to the
    /// corresponding static run — see [`crate::scenario`].
    ///
    /// # Errors
    ///
    /// See [`CompiledNetlist::launch_scenarios`].
    ///
    /// [`Schedule`]: crate::scenario::Schedule
    /// [`MonteCarlo`]: crate::scenario::MonteCarlo
    pub fn run_scenarios(
        &self,
        patterns: &PatternSet,
        scenarios: &[crate::scenario::ScenarioSpec],
        mc: Option<&crate::scenario::MonteCarlo>,
        capture_deadline_ps: Option<f64>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.compiled
            .launch_scenarios(patterns, scenarios, mc, capture_deadline_ps, options)
    }

    /// Builds the serial event-driven baseline over the same netlist and
    /// annotation.
    ///
    /// # Errors
    ///
    /// See [`EventDrivenSimulator::new`].
    pub fn event_driven_baseline(&self) -> Result<EventDrivenSimulator, SimError> {
        EventDrivenSimulator::new(Arc::clone(self.netlist()), Arc::clone(self.annotation()))
    }

    /// Static timing analysis over the nominal annotation (Table II
    /// column 2).
    pub fn sta(&self) -> StaReport {
        longest_path(self.netlist(), self.compiled.levels(), self.annotation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
    use avfs_netlist::CellLibrary;
    use avfs_spice::Technology;

    #[test]
    fn c17_full_flow_voltage_ordering() {
        let lib = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::c17(&lib).unwrap());
        let chars = characterize_library(
            &lib,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            Some(&[lib.find("NAND2_X1").unwrap()]),
        )
        .unwrap();
        let sim = TimeSimulator::from_characterization(Arc::clone(&netlist), &chars).unwrap();
        let patterns = PatternSet::lfsr(5, 16, 3);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let run = sim
            .voltage_sweep(&patterns, &[0.55, 0.7, 0.8, 0.9, 1.1], &opts)
            .unwrap();
        // Monotone: latest arrival decreases with voltage.
        let arrivals: Vec<f64> = [0.55, 0.7, 0.8, 0.9, 1.1]
            .iter()
            .map(|&v| run.latest_arrival_at(v).expect("c17 toggles"))
            .collect();
        for w in arrivals.windows(2) {
            assert!(w[0] > w[1], "arrivals must fall with voltage: {arrivals:?}");
        }
        // STA bound dominates the simulated arrivals at nominal.
        let sta = sim.sta();
        assert!(sta.longest_path_ps >= run.latest_arrival_at(0.8).unwrap() * 0.999);
        assert!(sta.critical_path.len() >= 3);
    }

    #[test]
    fn facade_exposes_event_driven_baseline() {
        let lib = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::c17(&lib).unwrap());
        let chars = characterize_library(
            &lib,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            Some(&[lib.find("NAND2_X1").unwrap()]),
        )
        .unwrap();
        let sim = TimeSimulator::from_characterization(Arc::clone(&netlist), &chars).unwrap();
        let baseline = sim.event_driven_baseline().expect("positive delays");
        let patterns = PatternSet::lfsr(5, 8, 1);
        let slots = crate::slots::at_voltage(patterns.len(), 0.8);
        let a = baseline.run(&patterns, &slots, false).unwrap();
        let b = sim
            .run_at(
                &patterns,
                0.8,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        // Responses agree; arrivals agree to within the kernel's nominal
        // approximation error (the baseline is static-delay).
        for (x, y) in a.slots.iter().zip(&b.slots) {
            assert_eq!(x.responses, y.responses);
            if let (Some(ta), Some(tb)) =
                (x.latest_output_transition_ps, y.latest_output_transition_ps)
            {
                assert!((ta - tb).abs() / ta < 0.05, "{ta} vs {tb}");
            }
        }
    }

    #[test]
    fn static_vs_parametric_nominal_deviation_small() {
        // Table II: at the nominal voltage the parametric simulation
        // deviates from the static one by a fraction of a percent.
        let lib = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::c17(&lib).unwrap());
        let chars = characterize_library(
            &lib,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            Some(&[lib.find("NAND2_X1").unwrap()]),
        )
        .unwrap();
        let sim = TimeSimulator::from_characterization(Arc::clone(&netlist), &chars).unwrap();
        let static_sim = TimeSimulator::new(
            Arc::clone(&netlist),
            Arc::clone(sim.annotation()),
            Arc::new(avfs_delay::StaticModel::new(*chars.space())),
        )
        .unwrap();
        let patterns = PatternSet::lfsr(5, 16, 9);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let a = sim.run_at(&patterns, 0.8, &opts).unwrap();
        let b = static_sim.run_at(&patterns, 0.8, &opts).unwrap();
        let ta = a.latest_arrival_at(0.8).unwrap();
        let tb = b.latest_arrival_at(0.8).unwrap();
        let dev = (ta - tb).abs() / tb;
        assert!(
            dev < 0.02,
            "nominal deviation {dev} too large ({ta} vs {tb})"
        );
    }
}
