//! The full characterization pre-process of Fig. 1.
//!
//! For each cell type and input pin, rising and falling propagation delays
//! are extracted from transient analysis over the operating-point sweep
//! (step A), the normalized data grid is densified by linear interpolation
//! (step B), multi-variable linear regression fits a deviation surface
//! (step C), and the surface coefficients are compiled into the kernel
//! table (step D). "This flow has to be repeated only once for each new
//! cell type in the library as the computed functions are reused during
//! simulation."

use crate::annotation::TimingAnnotation;
use crate::model::{LutModel, PolynomialModel};
use crate::op::ParameterSpace;
use crate::polynomial::SurfacePolynomial;
use crate::table::CoefficientTable;
use crate::DelayError;
use avfs_netlist::library::{CellId, CellLibrary, Polarity};
use avfs_netlist::{Netlist, NodeKind};
use avfs_obs::Metrics;
use avfs_regression::poly::eval_horner_lattice;
use avfs_regression::{DataGrid, ErrorStats, PolyBasis, RegressionError, SeparableFit};
use avfs_spice::{SweepConfig, SweepPlan, Technology};
use avfs_waveform::PinDelays;
use std::time::Instant;

/// Configuration of the characterization flow.
#[derive(Debug, Clone)]
pub struct CharacterizationConfig {
    /// The operating-point sweep (step A): [`SweepConfig::sparse`] by
    /// default, [`SweepConfig::paper`] for the accuracy references.
    pub sweep: SweepConfig,
    /// Per-variable polynomial order `N` (the paper uses N = 3 for the
    /// performance experiments).
    pub order: usize,
    /// Grid densification factor per axis (step B).
    pub refine_factor: usize,
    /// Probe lattice size per axis for the error evaluation (Fig. 4 uses
    /// 64 × 64).
    pub probe_grid: usize,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        CharacterizationConfig {
            sweep: SweepConfig::sparse(),
            order: 3,
            refine_factor: 4,
            probe_grid: 64,
        }
    }
}

impl CharacterizationConfig {
    /// A fast configuration for tests: coarse sweep, small probe lattice.
    pub fn fast() -> CharacterizationConfig {
        CharacterizationConfig {
            sweep: SweepConfig::coarse(),
            order: 2,
            refine_factor: 3,
            probe_grid: 16,
        }
    }
}

/// Nominal delay versus load at the nominal supply voltage — the data an
/// SDF writer needs for one (cell, pin, polarity).
#[derive(Debug, Clone, PartialEq)]
pub struct NominalCurve {
    /// Load axis, fF (strictly increasing).
    loads_ff: Vec<f64>,
    /// `log₂` of each load, taken once here rather than per interpolation.
    log2_loads: Vec<f64>,
    /// Delay at nominal voltage for each load, ps.
    delays_ps: Vec<f64>,
}

impl NominalCurve {
    fn new(loads_ff: Vec<f64>, delays_ps: Vec<f64>) -> NominalCurve {
        NominalCurve {
            log2_loads: loads_ff.iter().map(|c| c.log2()).collect(),
            loads_ff,
            delays_ps,
        }
    }

    /// Interpolates the nominal delay at load `c_ff` (piecewise linear in
    /// `log₂ c`, clamped at the sweep boundaries).
    pub fn delay_ps(&self, c_ff: f64) -> f64 {
        self.at(self.locate(c_ff))
    }

    /// The segment containing load `c_ff` and its weight within it. It
    /// depends on the load axis alone, so curves on one axis share it.
    fn locate(&self, c_ff: f64) -> (usize, f64) {
        let n = self.loads_ff.len();
        let c = c_ff.max(self.loads_ff[0]).min(self.loads_ff[n - 1]);
        let x = c.log2();
        let mut i = 0;
        while i + 2 < n && self.log2_loads[i + 1] < x {
            i += 1;
        }
        let (x0, x1) = (self.log2_loads[i], self.log2_loads[i + 1]);
        let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
        (i, t.clamp(0.0, 1.0))
    }

    /// The delay at a located segment and weight.
    fn at(&self, (i, t): (usize, f64)) -> f64 {
        self.delays_ps[i] + t * (self.delays_ps[i + 1] - self.delays_ps[i])
    }

    /// The sampled loads.
    pub fn loads_ff(&self) -> &[f64] {
        &self.loads_ff
    }

    /// The sampled delays.
    pub fn delays_ps(&self) -> &[f64] {
        &self.delays_ps
    }
}

/// Per-cell report of the fit quality and cost (the raw data of Fig. 4 and
/// the regression-runtime claim of Sec. V.A).
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// Cell-type name.
    pub cell: String,
    /// Relative-error statistics over the probe lattice, aggregated over
    /// all pins and polarities of the cell.
    pub stats: ErrorStats,
    /// Wall-clock time of the regression fits only, milliseconds: each
    /// arc's fit against the call's one pair of axis operators (the paper
    /// reports 1–40 ms per coefficient set).
    pub fit_millis: f64,
}

/// The outcome of characterizing a library: compiled kernels, the LUT
/// baseline, and the nominal-delay curves for annotation.
#[derive(Debug)]
pub struct CharacterizedLibrary {
    space: ParameterSpace,
    order: usize,
    model: PolynomialModel,
    lut: LutModel,
    /// `nominal[cell][pin][polarity]`.
    nominal: Vec<Option<Vec<[NominalCurve; 2]>>>,
    reports: Vec<CharacterizationReport>,
}

impl CharacterizedLibrary {
    /// The characterized parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Per-variable polynomial order `N`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The compiled polynomial model (the paper's delay kernels).
    pub fn model(&self) -> &PolynomialModel {
        &self.model
    }

    /// The bilinear-LUT baseline built from the same sweep data.
    pub fn lut(&self) -> &LutModel {
        &self.lut
    }

    /// Per-cell fit reports.
    pub fn reports(&self) -> &[CharacterizationReport] {
        &self.reports
    }

    /// A deterministic 64-bit hash of everything a simulation consumes
    /// from this characterization: the parameter-space bounds, the
    /// polynomial order, the fitted coefficient table
    /// ([`CoefficientTable::content_hash`](crate::CoefficientTable::content_hash))
    /// and the nominal-delay curves. Fit reports and the LUT baseline
    /// (characterization-time diagnostics) are excluded. Used as the
    /// library half of compiled-artifact cache keys.
    pub fn content_hash(&self) -> u64 {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_f64(self.space.nominal_vdd());
        let (v_lo, v_hi) = self.space.voltage_range();
        h.write_f64(v_lo);
        h.write_f64(v_hi);
        let (c_lo, c_hi) = self.space.load_range();
        h.write_f64(c_lo);
        h.write_f64(c_hi);
        h.write_usize(self.order);
        h.write_u64(self.model.table().content_hash());
        h.write_usize(self.nominal.len());
        for entry in &self.nominal {
            match entry {
                None => h.write_usize(0),
                Some(pins) => {
                    h.write_usize(1 + pins.len());
                    for pair in pins {
                        for curve in pair {
                            h.write_usize(curve.loads_ff.len());
                            for &c in &curve.loads_ff {
                                h.write_f64(c);
                            }
                            for &d in &curve.delays_ps {
                                h.write_f64(d);
                            }
                        }
                    }
                }
            }
        }
        h.finish()
    }

    /// The nominal curve for (cell, pin, polarity), if characterized.
    pub fn nominal_curve(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
    ) -> Option<&NominalCurve> {
        self.nominal
            .get(cell.index())?
            .as_ref()?
            .get(pin)
            .map(|pair| &pair[polarity.index()])
    }

    /// Annotates a netlist with nominal pin-to-pin delays interpolated
    /// from the characterization at each instance's actual load — the
    /// role the SDF file plays in the paper's flow.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::MissingCell`] if the netlist instantiates a
    /// cell type that was not characterized.
    pub fn annotate(&self, netlist: &Netlist) -> Result<TimingAnnotation, DelayError> {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                let load = ann.load_ff(id);
                let pins = self
                    .nominal
                    .get(cell.index())
                    .and_then(Option::as_ref)
                    .ok_or(DelayError::MissingCell {
                        cell_index: cell.index(),
                    })?;
                // One load per node: locate it once per load axis (every
                // curve of a characterization shares one).
                let mut located: Option<(&[f64], (usize, f64))> = None;
                let delays = ann.node_delays_mut(id);
                for (p, pair) in pins.iter().enumerate() {
                    let [rise, fall] = pair.each_ref().map(|curve| {
                        let segment = match located {
                            Some((axis, segment)) if axis == curve.loads_ff => segment,
                            _ => {
                                let segment = curve.locate(load);
                                located = Some((&curve.loads_ff, segment));
                                segment
                            }
                        };
                        curve.at(segment)
                    });
                    delays[p] = PinDelays { rise, fall };
                }
            }
        }
        Ok(ann)
    }
}

/// A serializable snapshot of compiled kernels and nominal curves — what
/// a characterization run persists so that the Fig. 1 flow truly runs
/// "only once for each new cell type in the library".
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPackage {
    /// `(V_min, V_max, C_min, C_max, V_nom)` of the parameter space.
    pub space: (f64, f64, f64, f64, f64),
    /// Per-variable polynomial order `N`.
    pub order: usize,
    /// One entry per characterized cell type.
    pub cells: Vec<CellKernelData>,
}

/// Compiled kernels of one cell type.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKernelData {
    /// Cell-type name (resolved against the library on load).
    pub cell: String,
    /// Per input pin.
    pub pins: Vec<PinKernelData>,
}

/// Compiled kernels of one input pin.
#[derive(Debug, Clone, PartialEq)]
pub struct PinKernelData {
    /// Rise-polarity polynomial coefficients (Eq. 6 order).
    pub rise_coeffs: Vec<f64>,
    /// Fall-polarity polynomial coefficients.
    pub fall_coeffs: Vec<f64>,
    /// The nominal-curve load axis, fF.
    pub loads_ff: Vec<f64>,
    /// Nominal rise delays per load, ps.
    pub nominal_rise_ps: Vec<f64>,
    /// Nominal fall delays per load, ps.
    pub nominal_fall_ps: Vec<f64>,
}

impl CharacterizedLibrary {
    /// Extracts the persistable kernel package (the LUT baseline and fit
    /// reports are characterization-time artifacts and are not included).
    pub fn to_package(&self, library: &CellLibrary) -> KernelPackage {
        let (v_min, v_max) = self.space.voltage_range();
        let (c_min, c_max) = self.space.load_range();
        let mut cells = Vec::new();
        for (idx, entry) in self.nominal.iter().enumerate() {
            let Some(pins) = entry else { continue };
            let cell = library.cell(CellId::from_index(idx));
            let pin_data = pins
                .iter()
                .enumerate()
                .map(|(p, pair)| {
                    let rise = &pair[Polarity::Rise.index()];
                    let fall = &pair[Polarity::Fall.index()];
                    PinKernelData {
                        rise_coeffs: self
                            .model
                            .table()
                            .coefficients(CellId::from_index(idx), p, Polarity::Rise)
                            .expect("characterized cell has kernels")
                            .to_vec(),
                        fall_coeffs: self
                            .model
                            .table()
                            .coefficients(CellId::from_index(idx), p, Polarity::Fall)
                            .expect("characterized cell has kernels")
                            .to_vec(),
                        loads_ff: rise.loads_ff.clone(),
                        nominal_rise_ps: rise.delays_ps.clone(),
                        nominal_fall_ps: fall.delays_ps.clone(),
                    }
                })
                .collect();
            cells.push(CellKernelData {
                cell: cell.name().to_owned(),
                pins: pin_data,
            });
        }
        KernelPackage {
            space: (v_min, v_max, c_min, c_max, self.space.nominal_vdd()),
            order: self.order,
            cells,
        }
    }

    /// Rebuilds a characterized library from a package, resolving cell
    /// names against `library`.
    ///
    /// The bilinear-LUT baseline and the fit reports are not part of a
    /// package; the restored library has an empty LUT and no reports.
    ///
    /// # Errors
    ///
    /// * [`DelayError::Characterization`] for unknown cell names, shape
    ///   inconsistencies or an invalid space,
    /// * [`DelayError::BadCoefficients`] if a coefficient vector does not
    ///   match the declared order.
    pub fn from_package(
        package: &KernelPackage,
        library: &CellLibrary,
    ) -> Result<CharacterizedLibrary, DelayError> {
        let (v_min, v_max, c_min, c_max, v_nom) = package.space;
        let space = ParameterSpace::new(v_min, v_max, c_min, c_max, v_nom)?;
        let mut table = CoefficientTable::new(library.len(), package.order);
        let mut nominal: Vec<Option<Vec<[NominalCurve; 2]>>> =
            (0..library.len()).map(|_| None).collect();
        for cell_data in &package.cells {
            let id = library
                .find(&cell_data.cell)
                .ok_or_else(|| DelayError::Characterization {
                    cell: cell_data.cell.clone(),
                    message: "cell not present in the library".to_owned(),
                })?;
            let expected_pins = library.cell(id).num_inputs();
            if cell_data.pins.len() != expected_pins {
                return Err(DelayError::Characterization {
                    cell: cell_data.cell.clone(),
                    message: format!(
                        "package has {} pins, library cell has {expected_pins}",
                        cell_data.pins.len()
                    ),
                });
            }
            let mut surfaces = Vec::with_capacity(cell_data.pins.len());
            let mut curves = Vec::with_capacity(cell_data.pins.len());
            for pin in &cell_data.pins {
                let shape_ok = pin.loads_ff.len() == pin.nominal_rise_ps.len()
                    && pin.loads_ff.len() == pin.nominal_fall_ps.len()
                    && pin.loads_ff.len() >= 2;
                if !shape_ok {
                    return Err(DelayError::Characterization {
                        cell: cell_data.cell.clone(),
                        message: "nominal curve shape mismatch".to_owned(),
                    });
                }
                surfaces.push([
                    SurfacePolynomial::new(package.order, pin.rise_coeffs.clone())?,
                    SurfacePolynomial::new(package.order, pin.fall_coeffs.clone())?,
                ]);
                curves.push([
                    NominalCurve::new(pin.loads_ff.clone(), pin.nominal_rise_ps.clone()),
                    NominalCurve::new(pin.loads_ff.clone(), pin.nominal_fall_ps.clone()),
                ]);
            }
            table.insert(id, &surfaces)?;
            nominal[id.index()] = Some(curves);
        }
        Ok(CharacterizedLibrary {
            space,
            order: package.order,
            model: PolynomialModel::new(table, space),
            lut: LutModel::new(library.len(), space),
            nominal,
            reports: Vec::new(),
        })
    }
}

/// Builds the normalized deviation grid of one sweep surface: the
/// regression target `y(v, c) = d(v, c) / d(V_nom, c) − 1` over
/// `(φ_V, φ_C)` axes (the input to Fig. 1 steps B–C).
///
/// # Errors
///
/// Returns [`DelayError::Characterization`] if the space's nominal voltage
/// is not on the sweep grid or the surface is degenerate.
pub fn deviation_grid(
    surface: &avfs_spice::DelaySurface,
    space: &ParameterSpace,
) -> Result<DataGrid, DelayError> {
    let err = |message: &str| DelayError::Characterization {
        cell: String::new(),
        message: message.to_owned(),
    };
    let nom_idx = surface
        .voltages
        .iter()
        .position(|&v| (v - space.nominal_vdd()).abs() < 1e-9)
        .ok_or_else(|| err("nominal voltage not on the sweep grid"))?;
    let (xs, ys) = normalized_axes(&surface.voltages, &surface.loads_ff, space);
    let mut dev = Vec::with_capacity(xs.len() * ys.len());
    for i in 0..xs.len() {
        for j in 0..ys.len() {
            let nominal = surface.at(nom_idx, j);
            if nominal <= 0.0 {
                return Err(err("non-positive nominal delay in sweep"));
            }
            dev.push(surface.at(i, j) / nominal - 1.0);
        }
    }
    DataGrid::new(xs, ys, dev).map_err(|e| err(&e.to_string()))
}

/// The `(φ_V, φ_C)` axes of a sweep's deviation grid.
fn normalized_axes(
    voltages: &[f64],
    loads_ff: &[f64],
    space: &ParameterSpace,
) -> (Vec<f64>, Vec<f64>) {
    (
        voltages.iter().map(|&v| space.phi_v().apply(v)).collect(),
        loads_ff.iter().map(|&c| space.phi_c().apply(c)).collect(),
    )
}

/// One fitted deviation surface plus its quality metrics.
#[derive(Debug, Clone)]
pub struct GridFit {
    /// The compiled polynomial (step D).
    pub poly: SurfacePolynomial,
    /// Relative delay errors on the probe lattice (Fig. 4 raw data).
    pub probe_errors: Vec<f64>,
    /// Error statistics over the probe lattice.
    pub stats: ErrorStats,
    /// Regression wall-clock, milliseconds.
    pub fit_millis: f64,
}

/// Fits one deviation grid: densification (step B), OLS regression
/// (step C), compilation (step D) and the probe-lattice error evaluation
/// of Fig. 4 against the linearly interpolated reference. This is the
/// one-arc case of the plan a characterization call shares across its
/// arcs, so `fit_millis` covers building the axis operators as well as the
/// fit.
///
/// # Errors
///
/// Returns [`DelayError::Characterization`] wrapping regression failures.
pub fn fit_deviation_grid(
    grid: &DataGrid,
    order: usize,
    refine_factor: usize,
    probe_grid: usize,
) -> Result<GridFit, DelayError> {
    fit_deviation_grid_against(grid, grid, order, refine_factor, probe_grid)
}

/// [`fit_deviation_grid`] with the probe-lattice errors measured against
/// `reference`'s refinement instead of `grid`'s own: a fit on a sparse
/// sweep judged by a denser one over the same interval, such as
/// [`SweepConfig::sparse`] against [`SweepConfig::paper`] (the `fig4`
/// binary's supply-lattice search).
///
/// # Errors
///
/// Returns [`DelayError::Characterization`] wrapping regression failures.
///
/// # Panics
///
/// Panics if `reference` does not span `grid`'s interval on both axes,
/// bit for bit.
pub fn fit_deviation_grid_against(
    grid: &DataGrid,
    reference: &DataGrid,
    order: usize,
    refine_factor: usize,
    probe_grid: usize,
) -> Result<GridFit, DelayError> {
    let ends = |axis: &[f64]| (axis[0].to_bits(), axis[axis.len() - 1].to_bits());
    assert!(
        ends(grid.xs()) == ends(reference.xs()) && ends(grid.ys()) == ends(reference.ys()),
        "a fit is measured against a reference over its own interval"
    );
    let t0 = Instant::now();
    let plan = FitPlan::new(grid.xs(), grid.ys(), order, refine_factor, probe_grid)?;
    let planned = t0.elapsed().as_secs_f64() * 1e3;
    let mut fit = plan.fit(grid, reference, None)?;
    fit.fit_millis += planned;
    Ok(fit)
}

/// A regression failure as a characterization error (the caller tags the
/// cell).
fn regression_error(e: RegressionError) -> DelayError {
    DelayError::Characterization {
        cell: String::new(),
        message: e.to_string(),
    }
}

/// Steps B–D for every deviation grid on one pair of coarse axes. The
/// refined lattice is the tensor product of the refined axes, so the
/// least-squares fit on it is two 1-D axis operators `M_V`, `M_C` that
/// depend on the axes alone ([`SeparableFit`]): they are built once, and
/// each grid's fit is the product `M_V · Y · M_Cᵀ` on its coarse values.
struct FitPlan {
    /// The coarse axes the plan was built for.
    xs: Vec<f64>,
    ys: Vec<f64>,
    order: usize,
    refine_factor: usize,
    probe_grid: usize,
    separable: SeparableFit,
}

impl FitPlan {
    fn new(
        xs: &[f64],
        ys: &[f64],
        order: usize,
        refine_factor: usize,
        probe_grid: usize,
    ) -> Result<FitPlan, DelayError> {
        let refine_factor = refine_factor.max(1);
        let separable = SeparableFit::new(&PolyBasis::new(order), xs, ys, refine_factor)
            .map_err(regression_error)?;
        Ok(FitPlan {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            order,
            refine_factor,
            probe_grid,
            separable,
        })
    }

    /// Fits `grid` and measures the fit on the probe lattice against
    /// `reference`'s refinement. When `metrics` is present, the fit records
    /// the phase `"regression/fit"`, bumps `"regression.fits"` and feeds
    /// its duration into the `"regression.fit_ns"` histogram
    /// (nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not on the plan's axes, bit for bit.
    fn fit(
        &self,
        grid: &DataGrid,
        reference: &DataGrid,
        metrics: Option<&Metrics>,
    ) -> Result<GridFit, DelayError> {
        let bits = |axis: &[f64]| axis.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(grid.xs()) == bits(&self.xs) && bits(grid.ys()) == bits(&self.ys),
            "a deviation grid is fitted on the axes its plan was built for"
        );
        let t0 = Instant::now();
        let beta = match metrics {
            None => self.separable.fit(grid),
            Some(m) => {
                let span = m.span("regression/fit");
                let beta = self.separable.fit(grid);
                let elapsed = span.finish();
                m.add("regression.fits", 1);
                m.record(
                    "regression.fit_ns",
                    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                );
                beta
            }
        };
        let fit_millis = t0.elapsed().as_secs_f64() * 1e3;
        let poly = SurfacePolynomial::new(self.order, beta.map_err(regression_error)?)?;

        let refined = reference.refine(self.refine_factor);
        let (pvs, pcs) = refined.equidistant_probes(self.probe_grid);
        let references = refined.sample_lattice(&pvs, &pcs);
        let predictions = eval_horner_lattice(self.order, poly.coefficients(), &pvs, &pcs);
        let probe_errors: Vec<f64> = references
            .iter()
            .zip(&predictions)
            .map(|(&reference, &predicted)| {
                let (reference, predicted) = (1.0 + reference, 1.0 + predicted);
                (predicted - reference) / reference
            })
            .collect();
        let stats = ErrorStats::from_errors(probe_errors.iter().copied());
        Ok(GridFit {
            poly,
            probe_errors,
            stats,
            fit_millis,
        })
    }
}

/// The fitted arcs of the cell being characterized, in (pin, polarity)
/// order.
#[derive(Default)]
struct CellFits {
    polys: Vec<SurfacePolynomial>,
    grids: Vec<DataGrid>,
    curves: Vec<NominalCurve>,
    errors: Vec<f64>,
    fit_millis: f64,
}

/// Per-pin `[rise, fall]` pairs of per-arc results in (pin, polarity)
/// order ([`Polarity::both`] is rise then fall).
fn pairs<T>(arcs: Vec<T>) -> Vec<[T; 2]> {
    let mut arcs = arcs.into_iter();
    std::iter::from_fn(|| Some([arcs.next()?, arcs.next()?])).collect()
}

/// Runs the Fig. 1 flow for `cells` (or the whole library when `None`):
/// one [`SweepPlan`] over every (cell, pin, polarity) arc, integrated on
/// every core, with each arc fitted on the calling thread as soon as its
/// surface is swept. Every arc is fitted on the same refined lattice, so
/// the call builds its two axis operators once and each arc's fit is two
/// small matrix products.
///
/// # Errors
///
/// Returns [`DelayError::Characterization`] wrapping any sweep or
/// regression failure, tagged with the failing cell: the first one in
/// (cell, pin, polarity) order, as a serial per-arc flow would meet it.
pub fn characterize_library(
    library: &CellLibrary,
    tech: &Technology,
    config: &CharacterizationConfig,
    cells: Option<&[CellId]>,
) -> Result<CharacterizedLibrary, DelayError> {
    characterize_library_metered(library, tech, config, cells, None)
}

/// [`characterize_library`] with optional instrumentation: the call
/// records one `"delay/characterize"` span, its planned sweep records
/// `"spice/sweep"` / `"spice.ode_steps"` / `"spice.transient_points"` /
/// `"spice.stage_runs"` (see [`SweepPlan::run`]) and each arc's fit
/// against the call's axis operators records `"regression/fit"` /
/// `"regression.fits"` / `"regression.fit_ns"` — the measured counterpart
/// of the paper's 1–40 ms per-fit runtime claim (Sec. V.A).
///
/// # Errors
///
/// Identical to [`characterize_library`].
pub fn characterize_library_metered(
    library: &CellLibrary,
    tech: &Technology,
    config: &CharacterizationConfig,
    cells: Option<&[CellId]>,
    metrics: Option<&Metrics>,
) -> Result<CharacterizedLibrary, DelayError> {
    let workers = avfs_obs::host::available_parallelism();
    characterize_on(workers, library, tech, config, cells, metrics)
}

/// [`characterize_library_metered`] with its sweep on `workers` threads.
fn characterize_on(
    workers: usize,
    library: &CellLibrary,
    tech: &Technology,
    config: &CharacterizationConfig,
    cells: Option<&[CellId]>,
    metrics: Option<&Metrics>,
) -> Result<CharacterizedLibrary, DelayError> {
    let span = metrics.map(|m| m.span("delay/characterize"));
    let mut plan =
        SweepPlan::new(tech, &config.sweep).map_err(|e| DelayError::Characterization {
            cell: String::new(),
            message: e.to_string(),
        })?;
    let (v_min, v_max) = config.sweep.voltage_range();
    let (c_min, c_max) = config.sweep.load_range();
    let space = ParameterSpace::new(v_min, v_max, c_min, c_max, config.sweep.nominal_vdd)?;

    let all_ids: Vec<CellId>;
    let selected: &[CellId] = match cells {
        Some(ids) => ids,
        None => {
            all_ids = library.iter().map(|(id, _)| id).collect();
            &all_ids
        }
    };

    // Step A, planned: every arc of every selected cell, in (cell, pin,
    // polarity) order.
    let mut arcs: Vec<CellId> = Vec::new();
    for &cell_id in selected {
        let cell = library.cell(cell_id);
        for pin in 0..cell.num_inputs() {
            for polarity in Polarity::both() {
                plan.push(cell, pin, polarity);
                arcs.push(cell_id);
            }
        }
    }

    let mut table = CoefficientTable::new(library.len(), config.order);
    let mut lut = LutModel::new(library.len(), space);
    let mut nominal: Vec<Option<Vec<[NominalCurve; 2]>>> =
        (0..library.len()).map(|_| None).collect();
    let mut reports = Vec::with_capacity(selected.len());

    // Index of the nominal voltage within the sweep.
    let nom_idx = config
        .sweep
        .voltages
        .iter()
        .position(|&v| (v - config.sweep.nominal_vdd).abs() < 1e-9)
        .expect("validated: nominal on grid");

    // Every arc's deviation grid lies on these axes. A failure to build
    // their operators surfaces at the first arc's fit, where the per-arc
    // flow met it.
    let (xs, ys) = normalized_axes(&config.sweep.voltages, &config.sweep.loads_ff, &space);
    let fits = FitPlan::new(
        &xs,
        &ys,
        config.order,
        config.refine_factor,
        config.probe_grid,
    );

    // Steps B–D run here, on the calling thread, one arc at a time as the
    // sweep delivers it; a cell is assembled once its last arc is fitted.
    let mut fitted = CellFits::default();
    plan.run_on(workers, metrics, |arc, swept| {
        let cell_id = arcs[arc];
        let cell = library.cell(cell_id);
        let wrap = |message: String| DelayError::Characterization {
            cell: cell.name().to_owned(),
            message,
        };
        let tag = |e| match e {
            DelayError::Characterization { message, .. } => wrap(message),
            other => other,
        };
        let surface = swept.map_err(|e| wrap(e.to_string()))?;
        // Steps B–D plus the Fig. 4 error evaluation.
        let grid = deviation_grid(&surface, &space).map_err(tag)?;
        let fit = fits
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|fits| fits.fit(&grid, &grid, metrics))
            .map_err(tag)?;
        fitted.fit_millis += fit.fit_millis;
        fitted.errors.extend(fit.probe_errors);
        fitted.polys.push(fit.poly);
        fitted.grids.push(grid);
        // Nominal curve (the SDF view).
        let delays_ps = (0..surface.loads_ff.len())
            .map(|j| surface.at(nom_idx, j))
            .collect();
        fitted
            .curves
            .push(NominalCurve::new(surface.loads_ff, delays_ps));

        if fitted.polys.len() == 2 * cell.num_inputs() {
            let done = std::mem::take(&mut fitted);
            table.insert(cell_id, &pairs(done.polys))?;
            lut.insert(cell_id, pairs(done.grids))?;
            nominal[cell_id.index()] = Some(pairs(done.curves));
            reports.push(CharacterizationReport {
                cell: cell.name().to_owned(),
                stats: ErrorStats::from_errors(done.errors),
                fit_millis: done.fit_millis,
            });
        }
        Ok(())
    })?;
    if let Some(span) = span {
        span.finish();
    }

    Ok(CharacterizedLibrary {
        space,
        order: config.order,
        model: PolynomialModel::new(table, space),
        lut,
        nominal,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DelayModel;
    use crate::op::{NormalizedPoint, OperatingPoint};
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};

    fn subset(lib: &CellLibrary, names: &[&str]) -> Vec<CellId> {
        names
            .iter()
            .map(|n| lib.find(n).expect("cell exists"))
            .collect()
    }

    #[test]
    fn characterize_inverter_fast() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let cfg = CharacterizationConfig::fast();
        let ids = subset(&lib, &["INV_X1"]);
        let ch = characterize_library(&lib, &tech, &cfg, Some(&ids)).unwrap();
        assert_eq!(ch.order(), cfg.order);
        assert_eq!(ch.reports().len(), 1);
        let report = &ch.reports()[0];
        assert_eq!(report.cell, "INV_X1");
        // The surface is smooth; even a coarse fit should be within a few
        // percent on average.
        assert!(
            report.stats.mean < 0.05,
            "mean rel err {}",
            report.stats.mean
        );
        assert!(report.fit_millis >= 0.0);

        // Factor ≈ 1 at nominal voltage for any load.
        let id = ids[0];
        for c in [0.5, 2.0, 32.0, 128.0] {
            let p = ch.space().normalize(OperatingPoint::new(0.8, c)).unwrap();
            let f = ch.model().factor(id, 0, Polarity::Fall, p).unwrap();
            assert!((f - 1.0).abs() < 0.05, "nominal factor {f} at c={c}");
        }
        // Factor > 1 at low voltage, < 1 at high voltage.
        let lo = ch
            .space()
            .normalize(OperatingPoint::new(0.55, 4.0))
            .unwrap();
        let hi = ch.space().normalize(OperatingPoint::new(1.1, 4.0)).unwrap();
        assert!(ch.model().factor(id, 0, Polarity::Fall, lo).unwrap() > 1.15);
        assert!(ch.model().factor(id, 0, Polarity::Fall, hi).unwrap() < 0.95);
    }

    #[test]
    fn empty_sweep_axis_is_a_typed_error() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let ids = subset(&lib, &["INV_X1"]);
        let mut no_voltages = CharacterizationConfig::fast();
        no_voltages.sweep.voltages.clear();
        let mut no_loads = CharacterizationConfig::fast();
        no_loads.sweep.loads_ff.clear();
        for cfg in [no_voltages, no_loads] {
            match characterize_library(&lib, &tech, &cfg, Some(&ids)) {
                Err(DelayError::Characterization { message, .. }) => {
                    assert!(message.contains("invalid sweep"), "{message}");
                }
                other => panic!("expected Characterization, got {other:?}"),
            }
        }
    }

    /// A cell whose sweep fails surfaces as a typed
    /// [`DelayError::Characterization`] naming it, never as a panic, and
    /// of two failing cells the first in `cells` order names the error at
    /// every worker count. 0.313 V switches `INV_X1` (|V_th| 0.26 V) but
    /// not a 4-deep stack (0.265 V raised by the 0.05 V margin).
    #[test]
    fn the_first_failing_cell_in_cells_order_names_the_error() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let mut low = CharacterizationConfig::fast();
        low.sweep.voltages = vec![0.313, 0.55, 0.8, 1.1];
        let inv = subset(&lib, &["INV_X1"]);
        assert!(characterize_library(&lib, &tech, &low, Some(&inv)).is_ok());
        for (cells, first) in [
            (["INV_X1", "NAND4_X1", "NOR4_X1"], "NAND4_X1"),
            (["INV_X1", "NOR4_X1", "NAND4_X1"], "NOR4_X1"),
        ] {
            let ids = subset(&lib, &cells);
            for workers in [1, 2, 7] {
                match characterize_on(workers, &lib, &tech, &low, Some(&ids), None) {
                    Err(DelayError::Characterization { cell, message }) => {
                        assert_eq!(cell, first, "{cells:?}, {workers} workers");
                        assert!(message.contains("below device threshold"), "{message}");
                    }
                    other => panic!("{cells:?}, {workers} workers: {:?}", other.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn polynomial_beats_nothing_and_tracks_lut() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let cfg = CharacterizationConfig::fast();
        let ids = subset(&lib, &["NOR2_X2"]);
        let ch = characterize_library(&lib, &tech, &cfg, Some(&ids)).unwrap();
        let id = ids[0];
        // The polynomial and the LUT (same training data) should agree
        // closely everywhere on the grid interior.
        for &(v, c) in &[(0.6, 1.0), (0.8, 8.0), (1.0, 64.0)] {
            let p = ch.space().normalize(OperatingPoint::new(v, c)).unwrap();
            let f_poly = ch.model().factor(id, 0, Polarity::Rise, p).unwrap();
            let f_lut = ch.lut().factor(id, 0, Polarity::Rise, p).unwrap();
            assert!(
                (f_poly - f_lut).abs() / f_lut < 0.08,
                "poly {f_poly} vs lut {f_lut} at ({v},{c})"
            );
        }
    }

    #[test]
    fn annotation_from_characterization() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let cfg = CharacterizationConfig::fast();
        let ids = subset(&lib, &["NAND2_X1"]);
        let ch = characterize_library(&lib, &tech, &cfg, Some(&ids)).unwrap();
        let c17 = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        let ann = ch.annotate(&c17).unwrap();
        assert!(ann.matches(&c17));
        // Every gate pin must have a positive delay.
        for (id, node) in c17.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    let d = ann.pin_delays(id, pin);
                    assert!(d.rise > 0.0 && d.fall > 0.0);
                }
            }
        }
        // Gates driving more load must be slower: gate "16" drives two
        // sinks, gate "10" drives one.
        let g16 = c17.find("16").unwrap();
        let g10 = c17.find("10").unwrap();
        assert!(ann.load_ff(g16) > ann.load_ff(g10));
        assert!(ann.pin_delays(g16, 0).rise > ann.pin_delays(g10, 0).rise);
    }

    #[test]
    fn uncharacterized_cell_fails_annotation() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let cfg = CharacterizationConfig::fast();
        let ids = subset(&lib, &["INV_X1"]); // c17 needs NAND2_X1
        let ch = characterize_library(&lib, &tech, &cfg, Some(&ids)).unwrap();
        let c17 = parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap();
        assert!(matches!(
            ch.annotate(&c17),
            Err(DelayError::MissingCell { .. })
        ));
    }

    #[test]
    fn nominal_curve_interpolation() {
        let curve = NominalCurve::new(vec![1.0, 4.0, 16.0], vec![10.0, 20.0, 30.0]);
        assert!((curve.delay_ps(1.0) - 10.0).abs() < 1e-12);
        assert!((curve.delay_ps(16.0) - 30.0).abs() < 1e-12);
        // Midpoint in log2 space: c = 2 between 1 and 4.
        assert!((curve.delay_ps(2.0) - 15.0).abs() < 1e-9);
        // Clamped outside.
        assert!((curve.delay_ps(0.1) - 10.0).abs() < 1e-12);
        assert!((curve.delay_ps(100.0) - 30.0).abs() < 1e-12);
        assert_eq!(curve.loads_ff().len(), 3);
        assert_eq!(curve.delays_ps().len(), 3);
    }

    /// Every [`CharacterizationReport`] field but the wall-clock one, bit
    /// for bit.
    fn reports_digest(reports: &[CharacterizationReport]) -> u64 {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        for r in reports {
            h.write_str(&r.cell);
            h.write_f64(r.stats.mean);
            h.write_f64(r.stats.stddev);
            h.write_f64(r.stats.max);
            h.write_usize(r.stats.count);
        }
        h.finish()
    }

    /// What a metered characterization of the `pipeline_cold` cells must
    /// reproduce at every worker count.
    struct Pins {
        content_hash: u64,
        reports_digest: u64,
        transient_points: u64,
        stage_runs: u64,
        ode_steps: u64,
    }

    /// Characterizes the 64-bit adder's cells (what the `pipeline_cold`
    /// benchmark workload characterizes) on `sweep` at 1, 2 and 4 workers
    /// and checks each run against `pins`. The pins were recorded once from
    /// the error-controlled transient integrator, the separable
    /// least-squares fit and the unfused (multiply, then add) Horner
    /// kernels.
    fn assert_pinned(sweep: SweepConfig, pins: &Pins) {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let mut ids = subset(&lib, &["XOR2_X1", "AND2_X1", "OR2_X1"]);
        ids.sort();
        let config = CharacterizationConfig {
            sweep,
            ..CharacterizationConfig::default()
        };
        for workers in [1, 2, 4] {
            let metrics = Metrics::new("characterize");
            let ch =
                characterize_on(workers, &lib, &tech, &config, Some(&ids), Some(&metrics)).unwrap();
            let context = format!("{workers} workers");
            assert_eq!(ch.content_hash(), pins.content_hash, "{context}");
            assert_eq!(
                reports_digest(ch.reports()),
                pins.reports_digest,
                "{context}"
            );
            // One span per call, one planned sweep, the plan's distinct
            // stages are the integrations the per-call memo ran, their accepted
            // steps are a function of the plan, and every arc is one fit
            // against the call's axis operators.
            let profile = metrics.snapshot();
            assert_eq!(profile.phase("delay/characterize").unwrap().calls, 1);
            assert_eq!(profile.phase("spice/sweep").unwrap().calls, 1);
            assert_eq!(
                profile.counter("spice.transient_points"),
                Some(pins.transient_points)
            );
            assert_eq!(profile.counter("spice.stage_runs"), Some(pins.stage_runs));
            assert_eq!(
                profile.counter("spice.ode_steps"),
                Some(pins.ode_steps),
                "{context}"
            );
            assert_eq!(profile.counter("regression.fits"), Some(12));
            assert_eq!(profile.phase("regression/fit").unwrap().calls, 12);
        }
    }

    #[test]
    fn characterization_is_bit_identical_to_the_serial_sweep() {
        // The fast configuration over the whole library, unmetered.
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        for workers in [1, 2, 4] {
            let fast = CharacterizationConfig::fast();
            let fast = characterize_on(workers, &lib, &tech, &fast, None, None).unwrap();
            let context = format!("{workers} workers");
            assert_eq!(fast.content_hash(), 0xedd4_2209_8278_0abf, "{context}");
            assert_eq!(
                reports_digest(fast.reports()),
                0x7c0f_d389_8e99_f714,
                "{context}"
            );
        }
        // The adder's cells at the paper's sweep.
        assert_pinned(
            SweepConfig::paper(),
            &Pins {
                content_hash: 0x931a_a655_1f7a_68fa,
                reports_digest: 0x65af_0a84_2d42_7185,
                transient_points: 1296,
                stage_runs: 1200,
                ode_steps: 19_308,
            },
        );
    }

    #[test]
    fn default_lattice_characterization_is_bit_identical_to_the_serial_sweep() {
        assert_eq!(
            CharacterizationConfig::default().sweep,
            SweepConfig::sparse()
        );
        assert_pinned(
            SweepConfig::sparse(),
            &Pins {
                content_hash: 0x720b_a0cf_e406_0a95,
                reports_digest: 0x6c22_b2b1_d7ab_f892,
                transient_points: 648,
                stage_runs: 600,
                ode_steps: 9_565,
            },
        );
    }

    /// Factors of the `pipeline_cold` cells at the paper's sweep on the
    /// lattice `{0, ½, 1}²` (`v` major), recorded from the fit whose Gram,
    /// `Xᵀy` and Horner kernels fused every multiply-add.
    #[rustfmt::skip]
    const FUSED_FACTORS: [(&str, usize, Polarity, [f64; 9]); 12] = [
        ("XOR2_X1", 0, Polarity::Rise, [1.5228820770555218e0, 1.579732102906327e0, 1.5980470648155016e0, 9.684967178689063e-1, 9.656922590972108e-1, 9.647874911824194e-1, 7.603166774321259e-1, 7.458184149650721e-1, 7.411462457108995e-1]),
        ("XOR2_X1", 0, Polarity::Fall, [1.5147356264619072e0, 1.52914686668929e0, 1.5359839963471753e0, 9.689007843229586e-1, 9.681605235510037e-1, 9.678096923576264e-1, 7.624250978849187e-1, 7.577152234295473e-1, 7.554804446661624e-1]),
        ("XOR2_X1", 1, Polarity::Rise, [1.5255099187917562e0, 1.5806274161625518e0, 1.5981948804508639e0, 9.683709124361398e-1, 9.656486899822985e-1, 9.647805235388394e-1, 7.59679608225245e-1, 7.455988506993818e-1, 7.411106512833645e-1]),
        ("XOR2_X1", 1, Polarity::Fall, [1.5173593001644223e0, 1.5301422671297247e0, 1.5361394900329466e0, 9.687703467150754e-1, 9.681109277254754e-1, 9.678018135528138e-1, 7.617237583355516e-1, 7.574445294860513e-1, 7.554395202942134e-1]),
        ("AND2_X1", 0, Polarity::Rise, [1.48979325614357e0, 1.5522998852485888e0, 1.5687973038878047e0, 9.701013952100248e-1, 9.670204454229298e-1, 9.662082197171142e-1, 7.673564339704251e-1, 7.518172397813823e-1, 7.477165091509005e-1]),
        ("AND2_X1", 0, Polarity::Fall, [1.4982955602920298e0, 1.5250902008608271e0, 1.5352751784696665e0, 9.697184492748744e-1, 9.683609059467028e-1, 9.678448363365292e-1, 7.666510846181794e-1, 7.58715091910296e-1, 7.556691418373761e-1]),
        ("AND2_X1", 1, Polarity::Rise, [1.48979325614357e0, 1.5522998852485888e0, 1.5687973038878047e0, 9.701013952100248e-1, 9.670204454229298e-1, 9.662082197171142e-1, 7.673564339704251e-1, 7.518172397813823e-1, 7.477165091509005e-1]),
        ("AND2_X1", 1, Polarity::Fall, [1.501366170855896e0, 1.5261562358884178e0, 1.5354472520807478e0, 9.695658018596499e-1, 9.683072880690855e-1, 9.678360057057037e-1, 7.658974125592418e-1, 7.584304262841304e-1, 7.556193375606833e-1]),
        ("OR2_X1", 0, Polarity::Rise, [1.5155810982159112e0, 1.5798679651951137e0, 1.598073518558023e0, 9.688261729684945e-1, 9.656776204228578e-1, 9.647848075381017e-1, 7.618333215979676e-1, 7.45696327692384e-1, 7.411249458303578e-1]),
        ("OR2_X1", 0, Polarity::Fall, [1.4835979365615968e0, 1.5039958472812427e0, 1.5123752999610627e0, 9.704445158363821e-1, 9.693975880464326e-1, 9.68967209807146e-1, 7.702550501746706e-1, 7.638746741492803e-1, 7.61232537153196e-1]),
        ("OR2_X1", 1, Polarity::Rise, [1.518465010135822e0, 1.5807920260690853e0, 1.5982301723221912e0, 9.686952974725672e-1, 9.656344525559378e-1, 9.647775660750713e-1, 7.612268237930623e-1, 7.454931084556596e-1, 7.410907779914288e-1]),
        ("OR2_X1", 1, Polarity::Fall, [1.4835979365615968e0, 1.5039958472812427e0, 1.5123752999610627e0, 9.704445158363821e-1, 9.693975880464326e-1, 9.68967209807146e-1, 7.702550501746706e-1, 7.638746741492803e-1, 7.61232537153196e-1]),
    ];

    /// Each cell's Fig. 4 statistics `[mean, stddev, max]` from the same
    /// fused fit.
    #[rustfmt::skip]
    const FUSED_STATS: [(&str, [f64; 3]); 3] = [
        ("XOR2_X1", [3.620934330669271e-3, 1.979887033189581e-3, 1.2785557304574811e-2]),
        ("AND2_X1", [3.371874019735202e-3, 1.8236219867930501e-3, 1.1396888789482851e-2]),
        ("OR2_X1", [3.439157188104214e-3, 1.9377682175350547e-3, 1.2796827996793145e-2]),
    ];

    #[test]
    fn unfused_fit_matches_the_fused_record() {
        // The record came from the fused normal-equation fit. The separable
        // fit and the unfused kernels move coefficients (the monomial basis
        // is badly conditioned), but the fitted surfaces (what the engine
        // reads) and the Fig. 4 statistics must not.
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let ids = subset(&lib, &["XOR2_X1", "AND2_X1", "OR2_X1"]);
        let config = CharacterizationConfig {
            sweep: SweepConfig::paper(),
            ..CharacterizationConfig::default()
        };
        let ch = characterize_library(&lib, &tech, &config, Some(&ids)).unwrap();
        let close = |got: f64, want: f64, rel: f64| (got - want).abs() <= rel * want.abs();
        for (cell, pin, polarity, want) in FUSED_FACTORS {
            let id = lib.find(cell).unwrap();
            let lattice = [0.0, 0.5, 1.0]
                .into_iter()
                .flat_map(|v| [0.0, 0.5, 1.0].map(|c| NormalizedPoint { v, c }));
            for (p, want) in lattice.zip(want) {
                let got = ch.model().factor(id, pin, polarity, p).unwrap();
                assert!(
                    close(got, want, 1e-10),
                    "{cell} pin {pin} {polarity:?} at {p:?}: {got:e} vs fused {want:e}"
                );
            }
        }
        for (cell, [mean, stddev, max]) in FUSED_STATS {
            let stats = &ch.reports().iter().find(|r| r.cell == cell).unwrap().stats;
            for (what, got, want) in [
                ("mean", stats.mean, mean),
                ("stddev", stats.stddev, stddev),
                ("max", stats.max, max),
            ] {
                assert!(
                    close(got, want, 1e-8),
                    "{cell} {what}: {got:e} vs fused {want:e}"
                );
            }
        }
    }

    /// A fit on a row subset judged against the full grid: the same
    /// polynomial as the subset's own fit, its errors read against the
    /// full grid's refinement.
    #[test]
    fn a_sparse_fit_is_measured_against_the_dense_reference() {
        let xs: Vec<f64> = (0..12).map(|i| f64::from(i) / 11.0).collect();
        let ys: Vec<f64> = (0..9).map(|j| f64::from(j) / 8.0).collect();
        let dense = DataGrid::from_fn(xs.clone(), ys, |v, c| 0.6 * (1.5 - v).powi(4) - 0.1 * c * v)
            .unwrap();
        let keep = [0, 1, 3, 5, 8, 11];
        let values: Vec<f64> = dense.samples().map(|(_, _, d)| d).collect();
        let sparse = DataGrid::new(
            keep.iter().map(|&i| xs[i]).collect(),
            dense.ys().to_vec(),
            keep.iter()
                .flat_map(|&i| values[i * 9..(i + 1) * 9].to_vec())
                .collect(),
        )
        .unwrap();
        let own = fit_deviation_grid(&sparse, 3, 4, 16).unwrap();
        let judged = fit_deviation_grid_against(&sparse, &dense, 3, 4, 16).unwrap();
        assert_eq!(own.poly, judged.poly);
        let refined = dense.refine(4);
        let (pvs, pcs) = refined.equidistant_probes(16);
        let predictions = eval_horner_lattice(3, judged.poly.coefficients(), &pvs, &pcs);
        let want: Vec<f64> = refined
            .sample_lattice(&pvs, &pcs)
            .iter()
            .zip(&predictions)
            .map(|(&r, &p)| ((1.0 + p) - (1.0 + r)) / (1.0 + r))
            .collect();
        assert_eq!(judged.probe_errors, want);
        assert_ne!(judged.probe_errors, own.probe_errors);
    }

    #[test]
    #[should_panic(expected = "over its own interval")]
    fn a_reference_over_another_interval_is_refused() {
        let grid = DataGrid::from_fn(vec![0.0, 0.5, 1.0], vec![0.0, 1.0], |v, c| v + c).unwrap();
        let shorter = DataGrid::from_fn(vec![0.0, 0.5], vec![0.0, 1.0], |v, c| v + c).unwrap();
        let _ = fit_deviation_grid_against(&grid, &shorter, 1, 2, 4);
    }

    #[test]
    fn higher_order_fits_are_tighter() {
        let lib = CellLibrary::nangate15_like();
        let tech = Technology::nm15();
        let ids = subset(&lib, &["NAND2_X1"]);
        let mut maxes = Vec::new();
        for order in [1usize, 3] {
            let cfg = CharacterizationConfig {
                order,
                ..CharacterizationConfig::fast()
            };
            let ch = characterize_library(&lib, &tech, &cfg, Some(&ids)).unwrap();
            maxes.push(ch.reports()[0].stats.max);
        }
        assert!(
            maxes[1] < maxes[0],
            "order 3 ({}) should beat order 1 ({})",
            maxes[1],
            maxes[0]
        );
    }
}
