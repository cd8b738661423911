//! Parameter-sweep harness (Fig. 1, step A).
//!
//! Runs the transient characterization over a grid of operating points
//! `(V_DD, C_load)` and collects the resulting delay surfaces. The paper's
//! sweep is `V_DD ∈ [0.55 V, 1.1 V]` in 0.05 V steps (nominal 0.8 V) with
//! loads `2^i fF, i = −1 … 7`; [`SweepConfig::paper`] reproduces it.
//!
//! A [`SweepPlan`] sweeps any number of (cell, pin, polarity) arcs in
//! three steps:
//!
//! 1. **Plan.** [`SweepPlan::push`] enumerates an arc's grid points
//!    through the cell's equivalent stages and interns each [`Stage`] by
//!    the bit patterns of everything the integration reads. Many are the
//!    same bit for bit — the first stage of a two-stage cell at every
//!    load, the symmetric pins of a cell — so the plan is one ordered list
//!    of *distinct* stages.
//! 2. **Integrate.** [`SweepPlan::run`] integrates that list on
//!    [`std::thread::available_parallelism`] scoped workers, the calling
//!    thread one of them. Each worker runs the transient lane kernel:
//!    eight stages in lockstep, and a lane whose stage is done claims the
//!    next index from one atomic cursor and writes the outcome into that
//!    index's preallocated slot, so a worker allocates nothing.
//! 3. **Deliver.** Each arc's [`DelaySurface`] goes to the caller's
//!    closure on the calling thread, in arc order, as soon as that arc's
//!    stages are done, so the caller's per-arc work overlaps the other
//!    workers' integration.
//!
//! Every stage is a pure function of its key, so the worker count cannot
//! change a bit of any surface. The error a sweep returns is the one a
//! serial point-by-point sweep returns: the first failing point in arc
//! then (V, C) order, output stage before internal stage.

use crate::characterize::pin_stages;
use crate::mosfet::DeviceType;
use crate::technology::Technology;
use crate::transient::{integrate_lanes, Stage, StageFeed, LANES};
use crate::SpiceError;
use avfs_netlist::library::{Cell, Polarity};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

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

    /// The characterization default: six of the paper's twelve supplies
    /// (0.55, 0.6, 0.7, 0.8, 0.95 and 1.1 V) at all nine loads, half the
    /// transients of [`SweepConfig::paper`]. The supplies are read from the
    /// paper's vector, so every point is bitwise one of its points. Of the
    /// 84 six-supply subsets that keep both ends and the nominal supply,
    /// this is the one whose order-3 fit has no cell's max error above the
    /// paper sweep's fit, both measured against the paper sweep (the `fig4`
    /// binary prints that search).
    pub fn sparse() -> SweepConfig {
        let paper = SweepConfig::paper();
        SweepConfig {
            voltages: [0, 1, 3, 5, 8, 11].map(|i| paper.voltages[i]).to_vec(),
            ..paper
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

/// Sweeps one (cell, pin, polarity) over the configured grid: the one-arc
/// case of a [`SweepPlan`].
///
/// This is step A of Fig. 1; the paper notes the SPICE sweeps "took few
/// minutes for each cell" — this substitute takes milliseconds, which is
/// what makes the full Fig. 4 experiment tractable in CI.
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
    let mut plan = SweepPlan::new(tech, config)?;
    plan.push(cell, pin, polarity);
    let mut surface = None;
    plan.run(None, |_, swept| swept.map(|s| surface = Some(s)))?;
    Ok(surface.expect("a planned arc is delivered"))
}

/// No internal stage at this grid point: a single-stage cell.
const NO_STAGE: u32 = u32::MAX;

/// The interning key of a [`Stage`]: the bit patterns of everything
/// [`simulate_stage`](crate::transient::simulate_stage) reads — device
/// type, effective width, threshold,
/// capacitance, supply, input slew and the technology's `k`, `α` and
/// `k_sat`.
type StageKey = (DeviceType, [u64; 8]);

fn stage_key(tech: &Technology, stage: &Stage) -> StageKey {
    let k = match stage.device.device {
        DeviceType::Nmos => tech.k_n,
        DeviceType::Pmos => tech.k_p,
    };
    (
        stage.device.device,
        [
            stage.device.width,
            stage.device.vth,
            stage.cap_ff,
            stage.vdd,
            stage.slew_ps,
            k,
            tech.alpha,
            tech.k_sat,
        ]
        .map(f64::to_bits),
    )
}

/// A planned sweep of (cell, pin, polarity) arcs over one grid: the
/// distinct stages of every grid point of every arc, integrated once each
/// by [`SweepPlan::run`].
#[derive(Debug)]
pub struct SweepPlan<'a> {
    tech: &'a Technology,
    config: &'a SweepConfig,
    /// Where each distinct stage sits in `stages`.
    index: HashMap<StageKey, u32>,
    /// The distinct stages, in order of first appearance.
    stages: Vec<Stage>,
    /// Per grid point of every arc, in arc order: the output stage and the
    /// internal stage (or [`NO_STAGE`]).
    points: Vec<[u32; 2]>,
    /// Per arc: the number of stages planned once it was pushed. Indices
    /// follow first appearance, so every stage an arc reads lies below it.
    ends: Vec<usize>,
}

impl<'a> SweepPlan<'a> {
    /// An empty plan over `config`'s grid.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidSweep`] for a bad configuration.
    pub fn new(tech: &'a Technology, config: &'a SweepConfig) -> Result<SweepPlan<'a>, SpiceError> {
        config.validate()?;
        Ok(SweepPlan {
            tech,
            config,
            index: HashMap::new(),
            stages: Vec::new(),
            points: Vec::new(),
            ends: Vec::new(),
        })
    }

    /// Plans one arc; [`SweepPlan::run`] delivers it under the index this
    /// returns (arcs are numbered in push order from 0).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the cell.
    pub fn push(&mut self, cell: &Cell, pin: usize, polarity: Polarity) -> usize {
        for &v in &self.config.voltages {
            for &c in &self.config.loads_ff {
                let (output, internal) = pin_stages(self.tech, cell, pin, polarity, v, c);
                let output = self.intern(&output);
                let internal = internal.map_or(NO_STAGE, |internal| self.intern(&internal));
                self.points.push([output, internal]);
            }
        }
        self.ends.push(self.stages.len());
        self.ends.len() - 1
    }

    fn intern(&mut self, stage: &Stage) -> u32 {
        let next = u32::try_from(self.stages.len()).expect("fewer than 2^32 stages");
        let index = *self
            .index
            .entry(stage_key(self.tech, stage))
            .or_insert(next);
        if index == next {
            self.stages.push(*stage);
        }
        index
    }

    /// Integrates the plan and hands `deliver` each arc's surface, in arc
    /// order, on the calling thread. An arc whose stages failed is
    /// delivered as its first failing point's error and is the last arc
    /// delivered; an `Err` from `deliver` stops the sweep and is returned.
    /// When `metrics` is present, the call records the phase
    /// `"spice/sweep"`, each worker adds the accepted steps of every kernel call
    /// it made to `"spice.ode_steps"` (for a sweep that delivers every arc,
    /// the steps of the plan's distinct stages), and once every arc is
    /// delivered the call adds the plan's grid points to
    /// `"spice.transient_points"` and its distinct stages — the
    /// integrations it ran — to `"spice.stage_runs"`.
    ///
    /// # Errors
    ///
    /// Whatever `deliver` returns.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the stage integration, whichever worker ran it.
    pub fn run<E>(
        &self,
        metrics: Option<&avfs_obs::Metrics>,
        deliver: impl FnMut(usize, Result<DelaySurface, SpiceError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.run_on(workers, metrics, deliver)
    }

    /// [`SweepPlan::run`] on `workers` threads, the calling thread one of
    /// them (`0` counts as 1). The worker count cannot change a bit of any
    /// surface.
    ///
    /// # Errors
    ///
    /// Whatever `deliver` returns.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the stage integration, whichever worker ran it.
    pub fn run_on<E>(
        &self,
        workers: usize,
        metrics: Option<&avfs_obs::Metrics>,
        mut deliver: impl FnMut(usize, Result<DelaySurface, SpiceError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let span = metrics.map(|m| m.span("spice/sweep"));
        let tech = self.tech;
        let grid = self.config.voltages.len() * self.config.loads_ff.len();
        integrate(
            self.stages.len(),
            &self.ends,
            workers,
            |feed| {
                let steps = integrate_lanes(tech, &self.stages, feed);
                if let Some(m) = metrics {
                    m.add("spice.ode_steps", steps);
                }
            },
            |arc, delays| {
                let surface = delays.map(|delays| DelaySurface {
                    voltages: self.config.voltages.clone(),
                    loads_ff: self.config.loads_ff.clone(),
                    delays_ps: self.points[arc * grid..][..grid]
                        .iter()
                        .map(|&[output, internal]| {
                            let mut total = delays.ps(output);
                            if internal != NO_STAGE {
                                total += delays.ps(internal);
                            }
                            total
                        })
                        .collect(),
                });
                deliver(arc, surface)
            },
        )?;
        if let Some(m) = metrics {
            m.add("spice.transient_points", self.points.len() as u64);
            m.add("spice.stage_runs", self.stages.len() as u64);
        }
        if let Some(span) = span {
            span.finish();
        }
        Ok(())
    }
}

/// What a worker made of one stage.
enum Outcome {
    Delay(f64),
    Failed(SpiceError),
    /// The solver panicked; [`integrate`] holds the payload.
    Panicked,
}

/// The stage delays a delivered arc may read: every stage below its end.
struct Delays<'s>(&'s [OnceLock<Outcome>]);

impl Delays<'_> {
    fn ps(&self, stage: u32) -> f64 {
        match self.0[stage as usize].get() {
            Some(Outcome::Delay(ps)) => *ps,
            _ => unreachable!("an arc is delivered only once its stages are integrated"),
        }
    }
}

/// The stages one kernel call has claimed and not yet emitted, and where
/// it claims and emits: the plan's cursor and slots.
struct Claims<'s> {
    cursor: &'s AtomicUsize,
    slots: &'s [OnceLock<Outcome>],
    /// The stages of the arc the caller waits for: its kernel stops
    /// claiming once they are all filled (`start` advances as they land).
    waiting: Option<Range<usize>>,
    held: [usize; LANES],
    len: usize,
}

impl Claims<'_> {
    /// Pushes the cursor past the end: nothing more is claimed.
    fn stop(&self) {
        self.cursor.store(self.slots.len(), Ordering::Relaxed);
    }
}

impl StageFeed for Claims<'_> {
    fn claim(&mut self) -> Option<usize> {
        if let Some(waiting) = &mut self.waiting {
            while waiting.start < waiting.end && self.slots[waiting.start].get().is_some() {
                waiting.start += 1;
            }
            if waiting.start == waiting.end {
                return None;
            }
        }
        // Checked before the claim, so a kernel that overreaches panics
        // holding only stages it will be charged with.
        assert!(self.len < LANES, "a kernel holds at most {LANES} stages");
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            return None;
        }
        self.held[self.len] = i;
        self.len += 1;
        Some(i)
    }

    fn emit(&mut self, index: usize, outcome: Result<f64, SpiceError>) {
        let k = self.held[..self.len]
            .iter()
            .position(|&i| i == index)
            .expect("a kernel emits only the stages it holds");
        self.len -= 1;
        self.held[k] = self.held[self.len];
        let outcome = outcome.map_or_else(
            |e| {
                self.stop();
                Outcome::Failed(e)
            },
            Outcome::Delay,
        );
        let _ = self.slots[index].set(outcome);
    }
}

/// The worker loop of [`SweepPlan::run`], generic over the lane kernel:
/// integrates stages `0..n` on `workers` threads, the caller one of them,
/// each thread calling `kernel` with its [`StageFeed`], and calls
/// `deliver(arc, …)` on the caller, in arc order, once every stage below
/// `ends[arc]` is done.
///
/// Lanes claim indices from one cursor, one `fetch_add` per stage, and
/// store each outcome in its preallocated slot. A failed stage pushes the
/// cursor past the end, and so does the caller however it leaves, so
/// nothing more is claimed. Each kernel call runs under one
/// `catch_unwind`: on a panic, every stage it held is marked panicked and
/// the cursor is pushed past the end. The caller walks the slots in index
/// order; while the next one is pending and stages are left, it runs the
/// kernel, which stops claiming once every slot of the arc it waits for
/// is filled and returns when its lanes are done — one drain per arc, not
/// per slot. Indices follow first appearance, so the first failed slot it
/// meets is the serial sweep's first failing point, and every slot below
/// the cursor's final value was claimed — and a claimed slot is always
/// filled — so it never waits on one nobody will fill. A panic's payload
/// is re-raised on the caller after every worker has stopped.
fn integrate<E>(
    n: usize,
    ends: &[usize],
    workers: usize,
    kernel: impl Fn(&mut dyn StageFeed) + Sync,
    mut deliver: impl FnMut(usize, Result<Delays<'_>, SpiceError>) -> Result<(), E>,
) -> Result<(), E> {
    let slots: Vec<OnceLock<Outcome>> = (0..n).map(|_| OnceLock::new()).collect();
    // The cursor publishes no data — each slot's `OnceLock` does — and a
    // claim is unique because `fetch_add` is one read-modify-write, so
    // every access to it is `Relaxed`.
    let cursor = AtomicUsize::new(0);
    let payload = Mutex::new(None);
    // One kernel call under containment.
    let run = |waiting: Option<Range<usize>>| {
        let mut claims = Claims {
            cursor: &cursor,
            slots: &slots,
            waiting,
            held: [0; LANES],
            len: 0,
        };
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| kernel(&mut claims))) {
            payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(p);
            claims.stop();
            for &i in &claims.held[..claims.len] {
                let _ = slots[i].set(Outcome::Panicked);
            }
        }
    };
    let delivered = std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(|| run(None));
        }
        let _stop = StopOnDrop(&cursor, n);
        let mut ready = 0;
        for (arc, &end) in ends.iter().enumerate() {
            while ready < end {
                let outcome = match slots[ready].get() {
                    Some(outcome) => outcome,
                    None if cursor.load(Ordering::Relaxed) < n => {
                        run(Some(ready..end));
                        continue;
                    }
                    None => slots[ready].wait(),
                };
                match outcome {
                    Outcome::Delay(_) => ready += 1,
                    Outcome::Failed(e) => return Some(deliver(arc, Err(e.clone()))),
                    Outcome::Panicked => return None,
                }
            }
            if let Err(e) = deliver(arc, Ok(Delays(&slots))) {
                return Some(Err(e));
            }
        }
        Some(Ok(()))
    });
    delivered.unwrap_or_else(|| {
        let p = payload.into_inner().unwrap_or_else(PoisonError::into_inner);
        panic::resume_unwind(p.expect("a panicked stage leaves its payload"))
    })
}

/// Pushes the cursor past the end when the caller leaves the scope —
/// returning or unwinding — so the other workers stop claiming.
struct StopOnDrop<'c>(&'c AtomicUsize, usize);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(self.1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{assert_near_oracle, simulate_stage};
    use avfs_netlist::CellLibrary;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn sparse_sweep_is_a_bitwise_subset_of_the_paper_sweep() {
        let (paper, sparse) = (SweepConfig::paper(), SweepConfig::sparse());
        sparse.validate().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want: Vec<f64> = [0, 1, 3, 5, 8, 11].map(|i| paper.voltages[i]).to_vec();
        assert_eq!(bits(&sparse.voltages), bits(&want));
        for (v, nominal) in sparse.voltages.iter().zip([0.55, 0.6, 0.7, 0.8, 0.95, 1.1]) {
            assert!((v - nominal).abs() < 1e-9, "{v} vs {nominal}");
        }
        assert_eq!(bits(&sparse.loads_ff), bits(&paper.loads_ff));
        assert_eq!(sparse.nominal_vdd.to_bits(), paper.nominal_vdd.to_bits());
        assert_eq!(sparse.voltage_range(), paper.voltage_range());
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

    /// Every arc of the whole library, planned into one sweep.
    fn library_plan<'a>(
        tech: &'a Technology,
        lib: &'a CellLibrary,
        cfg: &'a SweepConfig,
    ) -> (SweepPlan<'a>, Vec<(&'a Cell, usize, Polarity)>) {
        let mut plan = SweepPlan::new(tech, cfg).unwrap();
        let mut arcs = Vec::new();
        for (_, cell) in lib.iter() {
            for pin in 0..cell.num_inputs() {
                for polarity in Polarity::both() {
                    assert_eq!(plan.push(cell, pin, polarity), arcs.len());
                    arcs.push((cell, pin, polarity));
                }
            }
        }
        (plan, arcs)
    }

    /// The surfaces a plan delivers at `workers`, checking arc order.
    fn surfaces_at(plan: &SweepPlan<'_>, workers: usize) -> Vec<DelaySurface> {
        let mut surfaces = Vec::new();
        plan.run_on(workers, None, |arc, swept| {
            assert_eq!(arc, surfaces.len(), "arcs arrive in order");
            swept.map(|s| surfaces.push(s))
        })
        .unwrap();
        surfaces
    }

    #[test]
    fn planned_sweep_equals_pin_delay_ps_for_every_cell() {
        // One plan over the whole library against a grid of independent
        // `pin_delay_ps` calls, each integrating its own stages.
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let cfg = SweepConfig::coarse();
        let (plan, arcs) = library_plan(&tech, &lib, &cfg);
        let surfaces = surfaces_at(&plan, 2);
        assert_eq!(surfaces.len(), arcs.len());
        for (&(cell, pin, polarity), surf) in arcs.iter().zip(&surfaces) {
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

    #[test]
    fn worker_count_cannot_change_a_bit() {
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let cfg = SweepConfig::coarse();
        let (plan, _) = library_plan(&tech, &lib, &cfg);
        let bits = |surfaces: Vec<DelaySurface>| -> Vec<u64> {
            surfaces
                .iter()
                .flat_map(|s| s.delays_ps.iter().map(|d| d.to_bits()))
                .collect()
        };
        let serial = bits(surfaces_at(&plan, 1));
        for workers in [2, 7] {
            assert_eq!(
                bits(surfaces_at(&plan, workers)),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn plan_integrates_each_distinct_stage_once() {
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let and2 = lib.cell(lib.find("AND2_X1").unwrap());
        let cfg = SweepConfig::coarse();
        let points = (cfg.voltages.len() * cfg.loads_ff.len()) as u64;
        let counted = |plan: &SweepPlan<'_>| {
            let metrics = avfs_obs::Metrics::new("sweep");
            plan.run(Some(&metrics), |_, swept| swept.map(drop))
                .unwrap();
            let profile = metrics.snapshot();
            assert_eq!(profile.phase("spice/sweep").unwrap().calls, 1);
            (
                profile.counter("spice.transient_points").unwrap(),
                profile.counter("spice.stage_runs").unwrap(),
            )
        };
        // A two-stage cell: one output-stage transient per point, one
        // first-stage transient per voltage.
        let mut plan = SweepPlan::new(&tech, &cfg).unwrap();
        plan.push(and2, 0, Polarity::Rise);
        assert_eq!(counted(&plan), (points, points + cfg.voltages.len() as u64));
        // Planning the same arc again adds points and no stage.
        plan.push(and2, 0, Polarity::Rise);
        assert_eq!(
            counted(&plan),
            (2 * points, points + cfg.voltages.len() as u64)
        );
    }

    /// Arcs over stages `0..n`, one per `width` of them.
    fn toy_ends(n: usize, width: usize) -> Vec<usize> {
        (1..=n.div_ceil(width))
            .map(|a| (a * width).min(n))
            .collect()
    }

    /// A lockstep model of the lane kernel over toy stages: stage `i`
    /// takes `1 + 5i mod 7` ticks, so stages finish out of claim order,
    /// and every lane refills as soon as its stage is emitted. A tick
    /// resolves all its finished stages with `solve(i, others)` — `others`
    /// the stages the call still holds besides `i` — before it emits any.
    fn toy_kernel(
        solve: impl Fn(usize, usize) -> Result<f64, SpiceError> + Sync,
    ) -> impl Fn(&mut dyn StageFeed) + Sync {
        move |feed| {
            let mut lanes: Vec<(usize, usize)> = Vec::new();
            loop {
                while lanes.len() < LANES {
                    let Some(i) = feed.claim() else { break };
                    lanes.push((i, 1 + i * 5 % 7));
                }
                if lanes.is_empty() {
                    return;
                }
                for lane in &mut lanes {
                    lane.1 -= 1;
                }
                let held = lanes.len();
                let finished: Vec<_> = lanes
                    .iter()
                    .filter(|lane| lane.1 == 0)
                    .map(|&(i, _)| (i, solve(i, held - 1)))
                    .collect();
                lanes.retain(|lane| lane.1 > 0);
                for (i, outcome) in finished {
                    feed.emit(i, outcome);
                }
            }
        }
    }

    #[test]
    fn a_failing_lane_yields_the_serial_order_error_at_every_worker_count() {
        let n = 300;
        let ends = toy_ends(n, 7);
        // Two failing stages; the lower index is the one a serial sweep
        // meets first, whichever lane finishes first (58 takes 4 ticks, 57
        // takes 6).
        let kernel = toy_kernel(|i, _| match i {
            57 | 58 | 211 => Err(SpiceError::NoConvergence {
                reached_ps: i as f64,
            }),
            _ => Ok(i as f64),
        });
        for workers in [1, 2, 4] {
            let mut delivered = Vec::new();
            let err = integrate(n, &ends, workers, &kernel, |arc, delays| {
                let delays = delays?;
                let lo = if arc == 0 { 0 } else { ends[arc - 1] };
                for i in lo..ends[arc] {
                    assert_eq!(delays.ps(i as u32), i as f64);
                }
                delivered.push(arc);
                Ok::<(), SpiceError>(())
            })
            .unwrap_err();
            assert_eq!(err, SpiceError::NoConvergence { reached_ps: 57.0 });
            // Stage 57 belongs to arc 8: the eight arcs before it arrive.
            assert_eq!(delivered, (0..8).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn an_error_from_deliver_stops_the_sweep() {
        let ends = toy_ends(100, 10);
        for workers in [1, 2, 4] {
            let mut delivered = 0;
            let err = integrate(
                100,
                &ends,
                workers,
                toy_kernel(|i, _| Ok(i as f64)),
                |arc, _| {
                    delivered += 1;
                    if arc == 3 {
                        Err("fit failed")
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert_eq!((err, delivered), ("fit failed", 4));
        }
    }

    #[test]
    fn a_panicking_lane_re_raises_on_the_caller_at_every_worker_count() {
        // The first stage from 13 up that finishes while its kernel call
        // holds other stages panics; the caller waits on one of those held
        // stages or on the panicked one, and neither is ever integrated.
        // With spawned workers, the caller's lanes wait until one of them
        // has panicked, so the panic happens off the calling thread.
        for workers in [1, 2, 4] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let ends = toy_ends(64, 4);
                let caller = std::thread::current().id();
                let fired = AtomicBool::new(false);
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    integrate(
                        64,
                        &ends,
                        workers,
                        toy_kernel(|i, others| {
                            if workers > 1 && std::thread::current().id() == caller {
                                while !fired.load(Ordering::SeqCst) {
                                    std::thread::yield_now();
                                }
                            } else if i >= 13 && others > 0 && !fired.swap(true, Ordering::SeqCst) {
                                panic!("stage {i} blew up");
                            }
                            Ok(i as f64)
                        }),
                        |_, delays| delays.map(drop),
                    )
                }));
                let message = run
                    .expect_err("the panic reaches the caller")
                    .downcast::<String>()
                    .map(|m| *m);
                let _ = tx.send(message);
            });
            let message = rx
                .recv_timeout(Duration::from_secs(20))
                .expect("the caller is never left waiting on a held stage")
                .expect("the original payload");
            assert!(
                message.starts_with("stage ") && message.ends_with(" blew up"),
                "{workers} workers: {message}"
            );
        }
    }

    /// Every distinct stage of the whole library at the paper's sweep
    /// against the fixed-step oracle, on every core. The oracle takes
    /// seconds in a release build and far longer in a debug one, so this
    /// runs on request: `cargo test --release -p avfs-spice -- --ignored`
    /// (a step of `ci.sh`).
    #[test]
    #[ignore = "release build only; ci.sh runs it"]
    fn full_library_is_within_0_01_pct_of_the_fixed_step_oracle() {
        let tech = Technology::nm15();
        let lib = CellLibrary::nangate15_like();
        let cfg = SweepConfig::paper();
        let (plan, _) = library_plan(&tech, &lib, &cfg);
        assert_eq!(plan.stages.len(), 27_144);
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let tech = &tech;
        std::thread::scope(|scope| {
            for chunk in plan.stages.chunks(plan.stages.len().div_ceil(workers)) {
                scope.spawn(move || {
                    for stage in chunk {
                        let got = simulate_stage(tech, stage).expect("stage switches");
                        assert_near_oracle(tech, stage, got.delay_ps);
                    }
                });
            }
        });
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
