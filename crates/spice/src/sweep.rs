//! Parameter-sweep harness (Fig. 1, step A).
//!
//! Runs the transient characterization over a grid of operating points
//! `(V_DD, C_load)` and collects the resulting delay surface. The paper's
//! sweep is `V_DD ∈ [0.55 V, 1.1 V]` in 0.05 V steps (nominal 0.8 V) with
//! loads `2^i fF, i = −1 … 7`; [`SweepConfig::paper`] reproduces it.
//!
//! Many of a sweep's stage transients are the same [`Stage`](crate::transient::Stage)
//! bit for bit — the first stage of a two-stage cell at every load, the
//! symmetric pins of a cell — so a sweep looks each one up in a
//! [`StageMemo`] and integrates only the distinct ones. The memo is
//! scoped by the caller: [`sweep_pin`] creates one per call and drops it,
//! [`sweep_pin_memo`] shares the one a library characterization owns.

use crate::characterize::pin_delay_memo;
use crate::technology::Technology;
use crate::transient::StageMemo;
use crate::SpiceError;
use avfs_netlist::library::{Cell, Polarity};

/// The operating-point grid to characterize.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Supply voltages, V (strictly increasing).
    pub voltages: Vec<f64>,
    /// Load capacitances, fF (strictly increasing, positive).
    pub loads_ff: Vec<f64>,
    /// The nominal supply voltage (must be on the grid).
    pub nominal_vdd: f64,
}

impl SweepConfig {
    /// The paper's sweep: 0.55–1.1 V in 0.05 V steps, loads 0.5–128 fF in
    /// powers of two, nominal 0.8 V.
    pub fn paper() -> SweepConfig {
        let voltages: Vec<f64> = (0..12).map(|i| 0.55 + 0.05 * i as f64).collect();
        let loads_ff: Vec<f64> = (-1..=7).map(|i| (i as f64).exp2()).collect();
        SweepConfig {
            voltages,
            loads_ff,
            nominal_vdd: 0.8,
        }
    }

    /// A coarse 5 × 5 sweep for fast tests.
    pub fn coarse() -> SweepConfig {
        SweepConfig {
            voltages: vec![0.55, 0.7, 0.8, 0.95, 1.1],
            loads_ff: vec![0.5, 2.0, 8.0, 32.0, 128.0],
            nominal_vdd: 0.8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidSweep`] for empty/unsorted axes or a
    /// nominal voltage off the grid.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if self.voltages.len() < 2 || self.loads_ff.len() < 2 {
            return Err(SpiceError::InvalidSweep {
                reason: "need at least two voltages and two loads",
            });
        }
        if !self.voltages.windows(2).all(|w| w[0] < w[1]) {
            return Err(SpiceError::InvalidSweep {
                reason: "voltages must be strictly increasing",
            });
        }
        if !self.loads_ff.windows(2).all(|w| w[0] < w[1]) || self.loads_ff[0] <= 0.0 {
            return Err(SpiceError::InvalidSweep {
                reason: "loads must be positive and strictly increasing",
            });
        }
        if !self
            .voltages
            .iter()
            .any(|&v| (v - self.nominal_vdd).abs() < 1e-9)
        {
            return Err(SpiceError::InvalidSweep {
                reason: "nominal voltage must be one of the swept voltages",
            });
        }
        Ok(())
    }

    /// The voltage interval `[V_min, V_max]`.
    pub fn voltage_range(&self) -> (f64, f64) {
        (self.voltages[0], *self.voltages.last().expect("validated"))
    }

    /// The load interval `[C_min, C_max]` in fF.
    pub fn load_range(&self) -> (f64, f64) {
        (self.loads_ff[0], *self.loads_ff.last().expect("validated"))
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::paper()
    }
}

/// The measured delay surface of one (cell, pin, polarity) over the sweep
/// grid, in ps, stored row-major by voltage then load.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySurface {
    /// Swept voltages, V.
    pub voltages: Vec<f64>,
    /// Swept loads, fF.
    pub loads_ff: Vec<f64>,
    /// `delays_ps[i * loads.len() + j]` = delay at `(voltages[i],
    /// loads_ff[j])`.
    pub delays_ps: Vec<f64>,
}

impl DelaySurface {
    /// The delay at grid indices `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.voltages.len() && j < self.loads_ff.len());
        self.delays_ps[i * self.loads_ff.len() + j]
    }

    /// The delay at the grid point closest to `(vdd, c_ff)`.
    pub fn at_point(&self, vdd: f64, c_ff: f64) -> f64 {
        let i = nearest(&self.voltages, vdd);
        let j = nearest(&self.loads_ff, c_ff);
        self.at(i, j)
    }

    /// Iterates `(vdd, c_ff, delay_ps)` samples.
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let w = self.loads_ff.len();
        self.delays_ps
            .iter()
            .enumerate()
            .map(move |(k, &d)| (self.voltages[k / w], self.loads_ff[k % w], d))
    }
}

fn nearest(axis: &[f64], x: f64) -> usize {
    axis.iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| (*a - x).abs().total_cmp(&(*b - x).abs()))
        .map(|(i, _)| i)
        .expect("axis is non-empty")
}

/// Sweeps one (cell, pin, polarity) over the configured grid.
///
/// This is step A of Fig. 1; the paper notes the SPICE sweeps "took few
/// minutes for each cell" — this substitute takes milliseconds, which is
/// what makes the full Fig. 4 experiment tractable in CI. Every call
/// starts from an empty [`StageMemo`], so its cost does not depend on
/// what was swept before.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidSweep`] for a bad configuration and
/// propagates transient-analysis errors.
pub fn sweep_pin(
    tech: &Technology,
    cell: &Cell,
    pin: usize,
    polarity: Polarity,
    config: &SweepConfig,
) -> Result<DelaySurface, SpiceError> {
    let mut memo = StageMemo::default();
    sweep_pin_memo(tech, cell, pin, polarity, config, &mut memo, None)
}

/// [`sweep_pin`] over a caller-owned `memo` — stages already integrated
/// through it (by earlier sweeps of the same characterization) are not
/// integrated again — with optional instrumentation: when `metrics` is
/// present, each call records the phase `"spice/sweep"`, adds the number
/// of grid points to the `"spice.transient_points"` counter and the
/// number of integrations it actually ran to `"spice.stage_runs"`.
///
/// # Errors
///
/// Identical to [`sweep_pin`].
pub fn sweep_pin_memo(
    tech: &Technology,
    cell: &Cell,
    pin: usize,
    polarity: Polarity,
    config: &SweepConfig,
    memo: &mut StageMemo,
    metrics: Option<&avfs_obs::Metrics>,
) -> Result<DelaySurface, SpiceError> {
    let span = metrics.map(|m| m.span("spice/sweep"));
    config.validate()?;
    let runs_before = memo.runs();
    let mut delays_ps = Vec::with_capacity(config.voltages.len() * config.loads_ff.len());
    for &v in &config.voltages {
        for &c in &config.loads_ff {
            delays_ps.push(pin_delay_memo(tech, cell, pin, polarity, v, c, memo)?);
        }
    }
    if let Some(m) = metrics {
        m.add("spice.transient_points", delays_ps.len() as u64);
        m.add("spice.stage_runs", memo.runs() - runs_before);
    }
    if let Some(span) = span {
        span.finish();
    }
    Ok(DelaySurface {
        voltages: config.voltages.clone(),
        loads_ff: config.loads_ff.clone(),
        delays_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::CellLibrary;

    #[test]
    fn paper_sweep_matches_section_v() {
        let s = SweepConfig::paper();
        s.validate().unwrap();
        assert_eq!(s.voltages.len(), 12);
        assert!((s.voltages[0] - 0.55).abs() < 1e-12);
        assert!((s.voltages[11] - 1.1).abs() < 1e-9);
        assert_eq!(s.loads_ff.len(), 9);
        assert!((s.loads_ff[0] - 0.5).abs() < 1e-12);
        assert!((s.loads_ff[8] - 128.0).abs() < 1e-12);
        assert_eq!(s.voltage_range(), (0.55, s.voltages[11]));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut s = SweepConfig::coarse();
        s.voltages = vec![0.8];
        assert!(s.validate().is_err());

        let mut s = SweepConfig::coarse();
        s.voltages.reverse();
        assert!(s.validate().is_err());

        let mut s = SweepConfig::coarse();
        s.loads_ff[0] = -1.0;
        assert!(s.validate().is_err());

        let mut s = SweepConfig::coarse();
        s.nominal_vdd = 0.81;
        assert!(s.validate().is_err());
    }

    #[test]
    fn sweep_surface_shape_and_monotonicity() {
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let nor = lib.cell(lib.find("NOR2_X2").unwrap());
        let cfg = SweepConfig::coarse();
        let surf = sweep_pin(&tech, nor, 0, Polarity::Rise, &cfg).unwrap();
        assert_eq!(surf.delays_ps.len(), 25);
        // Monotone: delay decreases with voltage (rows) and increases with
        // load (columns).
        for i in 0..cfg.voltages.len() {
            for j in 1..cfg.loads_ff.len() {
                assert!(surf.at(i, j) > surf.at(i, j - 1));
            }
        }
        for j in 0..cfg.loads_ff.len() {
            for i in 1..cfg.voltages.len() {
                assert!(surf.at(i, j) < surf.at(i - 1, j));
            }
        }
    }

    #[test]
    fn memoised_surface_equals_the_unmemoised_one_for_every_cell() {
        // One memo shared across the whole library, as a characterization
        // shares it, against a grid of independent `pin_delay_ps` calls.
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let cfg = SweepConfig::coarse();
        let mut memo = StageMemo::default();
        for (_, cell) in lib.iter() {
            for pin in 0..cell.num_inputs() {
                for polarity in Polarity::both() {
                    let surf =
                        sweep_pin_memo(&tech, cell, pin, polarity, &cfg, &mut memo, None).unwrap();
                    for (k, (v, c, d)) in surf.samples().enumerate() {
                        let alone = crate::pin_delay_ps(&tech, cell, pin, polarity, v, c).unwrap();
                        assert_eq!(
                            d.to_bits(),
                            alone.to_bits(),
                            "{} pin {pin} {polarity} point {k}",
                            cell.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memo_runs_distinct_stages_once_and_does_not_outlive_a_call() {
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let and2 = lib.cell(lib.find("AND2_X1").unwrap());
        let cfg = SweepConfig::coarse();
        let points = (cfg.voltages.len() * cfg.loads_ff.len()) as u64;
        let stage_runs = |memo: &mut StageMemo| {
            let metrics = avfs_obs::Metrics::new("sweep");
            sweep_pin_memo(&tech, and2, 0, Polarity::Rise, &cfg, memo, Some(&metrics)).unwrap();
            let profile = metrics.snapshot();
            assert_eq!(profile.counter("spice.transient_points"), Some(points));
            profile.counter("spice.stage_runs").unwrap()
        };
        // A two-stage cell: one output-stage transient per point, one
        // first-stage transient per voltage.
        let mut memo = StageMemo::default();
        let first = stage_runs(&mut memo);
        assert_eq!(first, points + cfg.voltages.len() as u64);
        assert!(first < 2 * points);
        // The same memo has nothing left to integrate; a fresh one — what
        // every `sweep_pin` call starts from — integrates all of it again.
        assert_eq!(stage_runs(&mut memo), 0);
        assert_eq!(stage_runs(&mut StageMemo::default()), first);
    }

    #[test]
    fn at_point_picks_nearest() {
        let surf = DelaySurface {
            voltages: vec![0.5, 1.0],
            loads_ff: vec![1.0, 2.0],
            delays_ps: vec![10.0, 20.0, 30.0, 40.0],
        };
        assert_eq!(surf.at_point(0.55, 1.1), 10.0);
        assert_eq!(surf.at_point(0.99, 1.9), 40.0);
        let all: Vec<_> = surf.samples().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[2], (1.0, 1.0, 30.0));
    }
}
