//! Delay-model abstraction and the paper's model family.
//!
//! The simulator asks one question per (gate, pin, polarity, operating
//! point): *by what factor does this delay deviate from its nominal
//! annotation?* The implementations answer it differently:
//!
//! * [`StaticModel`] — factor 1 everywhere; the conventional static-delay
//!   simulation the paper compares against (Table I, columns 4–6),
//! * [`PolynomialModel`] — the paper's contribution: compiled surface
//!   polynomials evaluated by nested Horner (Sec. III/IV),
//! * [`LutModel`] — bilinear interpolation in a look-up table, the
//!   "traditional validation approach" of Sec. II whose size/accuracy
//!   trade-off motivates the polynomial model,
//! * [`AlphaPowerModel`] — the closed-form α-power law (Eq. 1), an
//!   analytical baseline that ignores the load dependence of the
//!   sensitivity.
//!
//! All models are `Send + Sync`: one instance is shared read-only by every
//! simulation thread, mirroring the constant-memory coefficient array on
//! the GPU.

use crate::op::{NormalizedPoint, ParameterSpace};
use crate::table::CoefficientTable;
use crate::DelayError;
use avfs_netlist::library::{CellId, Polarity};
use avfs_regression::DataGrid;
use std::fmt;

/// A parametric delay model: multiplicative deviation factors relative to
/// the nominal annotation.
pub trait DelayModel: Send + Sync + fmt::Debug {
    /// The multiplicative factor `d'/d_nom` for (cell, pin, polarity) at a
    /// normalized operating point.
    ///
    /// # Errors
    ///
    /// Returns a [`DelayError`] if the model has no data for the cell/pin.
    fn factor(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError>;

    /// A short human-readable model name for reports.
    fn name(&self) -> &str;

    /// The parameter space the model was built over.
    fn space(&self) -> &ParameterSpace;
}

/// Factor-1 model: static nominal delays (the conventional simulator).
#[derive(Debug, Clone)]
pub struct StaticModel {
    space: ParameterSpace,
}

impl StaticModel {
    /// Creates a static model over a parameter space (the space is only
    /// used for normalization bookkeeping).
    pub fn new(space: ParameterSpace) -> StaticModel {
        StaticModel { space }
    }
}

impl DelayModel for StaticModel {
    fn factor(
        &self,
        _cell: CellId,
        _pin: usize,
        _polarity: Polarity,
        _p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
        Ok(1.0)
    }

    fn name(&self) -> &str {
        "static"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

/// The paper's polynomial model: a [`CoefficientTable`] over a
/// [`ParameterSpace`].
#[derive(Debug, Clone)]
pub struct PolynomialModel {
    table: CoefficientTable,
    space: ParameterSpace,
}

impl PolynomialModel {
    /// Wraps a coefficient table.
    pub fn new(table: CoefficientTable, space: ParameterSpace) -> PolynomialModel {
        PolynomialModel { table, space }
    }

    /// The underlying coefficient table.
    pub fn table(&self) -> &CoefficientTable {
        &self.table
    }

    /// Per-variable polynomial order `N`.
    pub fn order(&self) -> usize {
        self.table.order()
    }
}

impl DelayModel for PolynomialModel {
    #[inline]
    fn factor(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
        Ok(1.0 + self.table.deviation(cell, pin, polarity, p)?)
    }

    fn name(&self) -> &str {
        "polynomial"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

/// Bilinear look-up-table model over normalized coordinates — the
/// conventional interpolation approach of Sec. II.
pub struct LutModel {
    /// `grids[cell][pin][polarity]` over normalized `(v, c)` holding
    /// deviation values.
    grids: Vec<Option<Vec<[DataGrid; 2]>>>,
    space: ParameterSpace,
}

impl LutModel {
    /// Creates an empty LUT model for `num_cells` cell types.
    pub fn new(num_cells: usize, space: ParameterSpace) -> LutModel {
        LutModel {
            grids: (0..num_cells).map(|_| None).collect(),
            space,
        }
    }

    /// Installs the per-pin grids of one cell.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::MissingCell`] if `cell` is out of range.
    pub fn insert(&mut self, cell: CellId, grids: Vec<[DataGrid; 2]>) -> Result<(), DelayError> {
        let idx = cell.index();
        if idx >= self.grids.len() {
            return Err(DelayError::MissingCell { cell_index: idx });
        }
        self.grids[idx] = Some(grids);
        Ok(())
    }

    /// Total stored samples — the memory-footprint comparison point against
    /// the polynomial table.
    pub fn stored_samples(&self) -> usize {
        self.grids
            .iter()
            .flatten()
            .flat_map(|pins| pins.iter())
            .flat_map(|pair| pair.iter())
            .map(DataGrid::len)
            .sum()
    }
}

impl fmt::Debug for LutModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LutModel")
            .field("cells", &self.grids.iter().filter(|g| g.is_some()).count())
            .field("stored_samples", &self.stored_samples())
            .finish()
    }
}

impl DelayModel for LutModel {
    fn factor(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
        let idx = cell.index();
        let pins = self
            .grids
            .get(idx)
            .and_then(Option::as_ref)
            .ok_or(DelayError::MissingCell { cell_index: idx })?;
        let pair = pins
            .get(pin)
            .ok_or(DelayError::MissingCell { cell_index: idx })?;
        Ok(1.0 + pair[polarity.index()].sample(p.v, p.c))
    }

    fn name(&self) -> &str {
        "lut-bilinear"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

/// Closed-form α-power-law model (paper Eq. 1):
///
/// ```text
/// factor(v) = (v / V_nom) · ((V_nom − V_th) / (v − V_th))^α
/// ```
///
/// Load-independent by construction — its systematic error versus the
/// polynomial model is an ablation the benches report.
#[derive(Debug, Clone)]
pub struct AlphaPowerModel {
    vth: f64,
    alpha: f64,
    space: ParameterSpace,
}

impl AlphaPowerModel {
    /// Creates the analytic model with technology parameters.
    pub fn new(vth: f64, alpha: f64, space: ParameterSpace) -> AlphaPowerModel {
        AlphaPowerModel { vth, alpha, space }
    }

    /// The deviation factor at raw voltage `v`.
    pub fn factor_at_voltage(&self, v: f64) -> f64 {
        let vnom = self.space.nominal_vdd();
        (v / vnom) * ((vnom - self.vth) / (v - self.vth)).powf(self.alpha)
    }
}

impl DelayModel for AlphaPowerModel {
    fn factor(
        &self,
        _cell: CellId,
        _pin: usize,
        _polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
        // Undo φ_V to recover the raw voltage.
        let v = self.space.phi_v().invert(p.v);
        Ok(self.factor_at_voltage(v))
    }

    fn name(&self) -> &str {
        "alpha-power"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::SurfacePolynomial;

    fn space() -> ParameterSpace {
        ParameterSpace::paper()
    }

    fn mid() -> NormalizedPoint {
        NormalizedPoint { v: 0.5, c: 0.5 }
    }

    #[test]
    fn static_model_always_one() {
        let m = StaticModel::new(space());
        assert_eq!(m.name(), "static");
        for &(v, c) in &[(0.0, 0.0), (0.3, 0.9), (1.0, 1.0)] {
            let f = m
                .factor(
                    CellId::from_index(0),
                    0,
                    Polarity::Rise,
                    NormalizedPoint { v, c },
                )
                .unwrap();
            assert_eq!(f, 1.0);
        }
    }

    #[test]
    fn polynomial_model_wraps_table() {
        let mut table = CoefficientTable::new(2, 1);
        let mut coeffs = vec![0.0; 4];
        coeffs[0] = 0.25;
        let s = SurfacePolynomial::new(1, coeffs).unwrap();
        table
            .insert(CellId::from_index(0), &[[s.clone(), s]])
            .unwrap();
        let m = PolynomialModel::new(table, space());
        assert_eq!(m.order(), 1);
        let f = m
            .factor(CellId::from_index(0), 0, Polarity::Fall, mid())
            .unwrap();
        assert!((f - 1.25).abs() < 1e-12);
        assert!(m
            .factor(CellId::from_index(1), 0, Polarity::Fall, mid())
            .is_err());
    }

    #[test]
    fn lut_model_interpolates() {
        let mut m = LutModel::new(1, space());
        // Deviation grid: +0.5 at v=0 shrinking to 0 at v=1, flat in c.
        let grid =
            DataGrid::from_fn(vec![0.0, 1.0], vec![0.0, 1.0], |v, _| 0.5 * (1.0 - v)).unwrap();
        m.insert(CellId::from_index(0), vec![[grid.clone(), grid]])
            .unwrap();
        let f = m
            .factor(CellId::from_index(0), 0, Polarity::Rise, mid())
            .unwrap();
        assert!((f - 1.25).abs() < 1e-12);
        assert_eq!(m.stored_samples(), 8);
        assert!(m
            .factor(CellId::from_index(0), 3, Polarity::Rise, mid())
            .is_err());
    }

    #[test]
    fn alpha_power_is_one_at_nominal_and_monotone() {
        let m = AlphaPowerModel::new(0.24, 1.35, space());
        assert!((m.factor_at_voltage(0.8) - 1.0).abs() < 1e-12);
        assert!(m.factor_at_voltage(0.55) > 1.0, "slower below nominal");
        assert!(m.factor_at_voltage(1.1) < 1.0, "faster above nominal");
        // Through the trait, normalized v=~0.4545 is raw 0.8.
        let p_nom = space()
            .normalize(crate::op::OperatingPoint::new(0.8, 4.0))
            .unwrap();
        let f = m
            .factor(CellId::from_index(0), 0, Polarity::Rise, p_nom)
            .unwrap();
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn models_are_object_safe_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StaticModel>();
        assert_send_sync::<PolynomialModel>();
        assert_send_sync::<LutModel>();
        assert_send_sync::<AlphaPowerModel>();
        let boxed: Box<dyn DelayModel> = Box::new(StaticModel::new(space()));
        assert_eq!(boxed.name(), "static");
    }
}
