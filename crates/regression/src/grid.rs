//! Rectangular delay data grids with bilinear interpolation and
//! sub-sampling (Fig. 1, step B).
//!
//! The SPICE sweep produces delays on a coarse rectangular grid of operating
//! points (12 voltages × 9 loads in the paper). Before regression, the grid
//! is densified by linear interpolation on the *normalized* axes to increase
//! the sample density; the same interpolation also serves as the reference
//! ("linearly interpolated SPICE results") the fitted polynomials are
//! compared against in Figs. 4 and 5.

use crate::{Matrix, RegressionError};

/// A rectangular grid of values `d[i][j]` sampled at axis positions
/// `xs[i]`, `ys[j]`.
///
/// Axis values must be strictly increasing. For the characterization flow
/// the axes are the *normalized* voltage and capacitance coordinates, so
/// interpolation is linear in `φ_V(v)` and `φ_C(c)` — i.e. log-linear in
/// the raw capacitance, matching the power-of-two sweep.
///
/// # Example
///
/// ```
/// use avfs_regression::DataGrid;
///
/// # fn main() -> Result<(), avfs_regression::RegressionError> {
/// let grid = DataGrid::new(
///     vec![0.0, 1.0],
///     vec![0.0, 1.0],
///     vec![0.0, 1.0, 2.0, 3.0], // row-major: d(0,0), d(0,1), d(1,0), d(1,1)
/// )?;
/// assert_eq!(grid.sample(0.5, 0.5), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Row-major: `values[i * ys.len() + j]` is the sample at `(xs[i], ys[j])`.
    values: Vec<f64>,
}

impl DataGrid {
    /// Creates a grid from axis vectors and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::InvalidInterval`] if either axis has fewer
    /// than two points or is not strictly increasing, a
    /// [`RegressionError::DimensionMismatch`] if `values.len() !=
    /// xs.len() * ys.len()`, and [`RegressionError::NonFiniteSample`] if any
    /// value is NaN or infinite.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, values: Vec<f64>) -> Result<Self, RegressionError> {
        if xs.len() < 2 || !strictly_increasing(&xs) {
            return Err(RegressionError::InvalidInterval {
                what: "x axis must have ≥ 2 strictly increasing points",
            });
        }
        if ys.len() < 2 || !strictly_increasing(&ys) {
            return Err(RegressionError::InvalidInterval {
                what: "y axis must have ≥ 2 strictly increasing points",
            });
        }
        if values.len() != xs.len() * ys.len() {
            return Err(RegressionError::DimensionMismatch {
                context: "DataGrid::new",
                left: (xs.len(), ys.len()),
                right: (values.len(), 1),
            });
        }
        if let Some(idx) = values.iter().position(|v| !v.is_finite()) {
            return Err(RegressionError::NonFiniteSample { index: idx });
        }
        Ok(DataGrid { xs, ys, values })
    }

    /// Builds a grid by evaluating `f(x, y)` at every axis crossing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DataGrid::new`].
    pub fn from_fn(
        xs: Vec<f64>,
        ys: Vec<f64>,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, RegressionError> {
        let mut values = Vec::with_capacity(xs.len() * ys.len());
        for &x in &xs {
            for &y in &ys {
                values.push(f(x, y));
            }
        }
        DataGrid::new(xs, ys, values)
    }

    /// The x-axis sample positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-axis sample positions.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Bilinear interpolation at `(x, y)`.
    ///
    /// Coordinates outside the grid are clamped to the boundary (the paper
    /// constrains operating points to the characterized intervals, so
    /// clamping only guards against floating-point edge noise).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        self.interpolate(locate(&self.xs, x), locate(&self.ys, y))
    }

    /// [`DataGrid::sample`] at every point of the lattice `xs × ys`,
    /// row-major by `x`, bit for bit: each coordinate is located once, not
    /// once per point.
    pub fn sample_lattice(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        let columns: Vec<_> = ys.iter().map(|&y| locate(&self.ys, y)).collect();
        let mut out = Vec::with_capacity(xs.len() * ys.len());
        for &x in xs {
            let row = locate(&self.xs, x);
            out.extend(columns.iter().map(|&column| self.interpolate(row, column)));
        }
        out
    }

    /// Bilinear interpolation in the cell `(i0, j0)` at weights `(tx, ty)`.
    fn interpolate(&self, (i0, tx): (usize, f64), (j0, ty): (usize, f64)) -> f64 {
        let w = self.ys.len();
        let d00 = self.values[i0 * w + j0];
        let d01 = self.values[i0 * w + j0 + 1];
        let d10 = self.values[(i0 + 1) * w + j0];
        let d11 = self.values[(i0 + 1) * w + j0 + 1];
        let a = d00 + (d01 - d00) * ty;
        let b = d10 + (d11 - d10) * ty;
        a + (b - a) * tx
    }

    /// Densifies the grid `factor`-fold per axis by bilinear sub-sampling
    /// (Fig. 1, step B: "linear interpolation and sub-sampling is employed
    /// … to increase the density of the sample data-grid").
    ///
    /// A factor of 1 returns a copy. The original sample points are
    /// preserved exactly (they fall onto the refined lattice).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn refine(&self, factor: usize) -> DataGrid {
        assert!(factor > 0, "refinement factor must be ≥ 1");
        let xs = refine_axis(&self.xs, factor);
        let ys = refine_axis(&self.ys, factor);
        let values = self.sample_lattice(&xs, &ys);
        DataGrid { xs, ys, values }
    }

    /// Iterates over all `(x, y, value)` samples in row-major order.
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let w = self.ys.len();
        self.values.iter().enumerate().map(move |(k, &d)| {
            let i = k / w;
            let j = k % w;
            (self.xs[i], self.ys[j], d)
        })
    }

    /// Number of samples in the grid.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the grid holds no samples (cannot occur for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Generates `count` equidistant probe positions per axis spanning the
    /// grid, as used for the paper's 64 × 64 evaluation lattice.
    pub fn equidistant_probes(&self, count: usize) -> (Vec<f64>, Vec<f64>) {
        (
            linspace(self.xs[0], *self.xs.last().expect("non-empty axis"), count),
            linspace(self.ys[0], *self.ys.last().expect("non-empty axis"), count),
        )
    }
}

/// `count` equidistant points covering `[lo, hi]` inclusive.
fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    match count {
        0 => Vec::new(),
        1 => vec![lo],
        _ => {
            let step = (hi - lo) / (count - 1) as f64;
            (0..count).map(|k| lo + step * k as f64).collect()
        }
    }
}

fn strictly_increasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1]) && v.iter().all(|x| x.is_finite())
}

/// Finds the cell index and interpolation weight for coordinate `x` on a
/// sorted axis, clamping outside coordinates to the boundary cells.
fn locate(axis: &[f64], x: f64) -> (usize, f64) {
    let n = axis.len();
    if x <= axis[0] {
        return (0, 0.0);
    }
    if x >= axis[n - 1] {
        return (n - 2, 1.0);
    }
    // Binary search for the containing cell.
    let idx = match axis.binary_search_by(|a| a.total_cmp(&x)) {
        Ok(i) => i.min(n - 2),
        Err(i) => i - 1,
    };
    let t = (x - axis[idx]) / (axis[idx + 1] - axis[idx]);
    (idx, t)
}

/// The positions [`DataGrid::refine`] samples along one axis: `factor`
/// equidistant points per interval, the axis' own points included, so the
/// refined lattice depends on the axes alone.
///
/// # Panics
///
/// Panics if `axis` is empty.
pub(crate) fn refine_axis(axis: &[f64], factor: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity((axis.len() - 1) * factor + 1);
    for w in axis.windows(2) {
        for k in 0..factor {
            out.push(w[0] + (w[1] - w[0]) * k as f64 / factor as f64);
        }
    }
    out.push(*axis.last().expect("non-empty axis"));
    out
}

/// The linear interpolation [`DataGrid::refine`] applies along one axis,
/// as a `refined × axis` matrix `R`: row `p` holds the weights of
/// `refine_axis(axis, factor)[p]` on the axis' points, so a refined grid
/// is `R_x · values · R_yᵀ`.
pub(crate) fn refine_matrix(axis: &[f64], factor: usize) -> Matrix {
    let refined = refine_axis(axis, factor);
    let mut r = Matrix::zeros(refined.len(), axis.len());
    for (p, &x) in refined.iter().enumerate() {
        let (i, t) = locate(axis, x);
        r[(p, i)] = 1.0 - t;
        r[(p, i + 1)] = t;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_grid() -> DataGrid {
        // d(x, y) = x + 2y sampled on {0, 1}².
        DataGrid::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 2.0, 1.0, 3.0]).unwrap()
    }

    #[test]
    fn rejects_bad_axes() {
        assert!(DataGrid::new(vec![0.0], vec![0.0, 1.0], vec![0.0, 1.0]).is_err());
        assert!(DataGrid::new(vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
        assert!(DataGrid::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
    }

    #[test]
    fn rejects_wrong_value_count() {
        assert!(matches!(
            DataGrid::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]),
            Err(RegressionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        assert!(matches!(
            DataGrid::new(
                vec![0.0, 1.0],
                vec![0.0, 1.0],
                vec![0.0, f64::NAN, 0.0, 0.0]
            ),
            Err(RegressionError::NonFiniteSample { index: 1 })
        ));
    }

    #[test]
    fn sample_reproduces_corners() {
        let g = unit_grid();
        assert_eq!(g.sample(0.0, 0.0), 0.0);
        assert_eq!(g.sample(0.0, 1.0), 2.0);
        assert_eq!(g.sample(1.0, 0.0), 1.0);
        assert_eq!(g.sample(1.0, 1.0), 3.0);
    }

    #[test]
    fn sample_is_bilinear() {
        let g = unit_grid();
        assert!((g.sample(0.5, 0.5) - 1.5).abs() < 1e-12);
        assert!((g.sample(0.25, 0.75) - (0.25 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn sample_clamps_outside() {
        let g = unit_grid();
        assert_eq!(g.sample(-1.0, -1.0), 0.0);
        assert_eq!(g.sample(2.0, 2.0), 3.0);
    }

    #[test]
    fn refine_preserves_original_points() {
        let g = DataGrid::from_fn(vec![0.0, 0.5, 1.0], vec![0.0, 1.0, 2.0], |x, y| 3.0 * x - y)
            .unwrap();
        let r = g.refine(4);
        assert_eq!(r.xs().len(), 9);
        assert_eq!(r.ys().len(), 9);
        for (x, y, d) in g.samples() {
            assert!((r.sample(x, y) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn refine_factor_one_is_identity() {
        let g = unit_grid();
        assert_eq!(g.refine(1), g);
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(v[0], 0.0);
        assert!((v[63] - 1.0).abs() < 1e-12);
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn samples_iterator_row_major() {
        let g = unit_grid();
        let s: Vec<_> = g.samples().collect();
        assert_eq!(s[0], (0.0, 0.0, 0.0));
        assert_eq!(s[1], (0.0, 1.0, 2.0));
        assert_eq!(s[2], (1.0, 0.0, 1.0));
        assert_eq!(s[3], (1.0, 1.0, 3.0));
    }

    proptest! {
        #[test]
        fn interpolation_exact_for_bilinear_functions(
            x in 0.0f64..1.0,
            y in 0.0f64..1.0,
            a in -2.0f64..2.0,
            b in -2.0f64..2.0,
            c in -2.0f64..2.0,
            d in -2.0f64..2.0,
        ) {
            // Bilinear functions are reproduced exactly by bilinear interpolation.
            let f = |x: f64, y: f64| a + b * x + c * y + d * x * y;
            let g = DataGrid::from_fn(
                vec![0.0, 0.25, 0.5, 0.75, 1.0],
                vec![0.0, 0.5, 1.0],
                f,
            ).unwrap();
            prop_assert!((g.sample(x, y) - f(x, y)).abs() < 1e-10);
        }

        #[test]
        fn lattice_samples_equal_point_samples_bitwise(
            xs in prop::collection::vec(-0.5f64..1.5, 0..6),
            ys in prop::collection::vec(-0.5f64..1.5, 0..6),
        ) {
            let g = DataGrid::from_fn(
                vec![0.0, 0.3, 0.7, 1.0],
                vec![0.0, 0.4, 1.0],
                |x, y| (7.3 * x).sin() + (3.1 * y).cos(),
            ).unwrap();
            let lattice = g.sample_lattice(&xs, &ys);
            prop_assert_eq!(lattice.len(), xs.len() * ys.len());
            for (k, got) in lattice.iter().enumerate() {
                let want = g.sample(xs[k / ys.len()], ys[k % ys.len()]);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn interpolation_within_value_bounds(x in -0.5f64..1.5, y in -0.5f64..1.5) {
            let g = DataGrid::from_fn(
                vec![0.0, 0.3, 0.7, 1.0],
                vec![0.0, 0.4, 1.0],
                |x, y| (7.3 * x).sin() + (3.1 * y).cos(),
            ).unwrap();
            let (lo, hi) = g.samples().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, _, d)| {
                (lo.min(d), hi.max(d))
            });
            let s = g.sample(x, y);
            prop_assert!(s >= lo - 1e-12 && s <= hi + 1e-12);
        }

        #[test]
        fn refined_grid_agrees_with_parent(
            x in 0.0f64..1.0,
            y in 0.0f64..1.0,
            factor in 1usize..5,
        ) {
            let g = DataGrid::from_fn(
                vec![0.0, 0.5, 1.0],
                vec![0.0, 0.25, 1.0],
                |x, y| x * x + y,
            ).unwrap();
            let r = g.refine(factor);
            // The refined grid stores values interpolated from the parent, so
            // sampling it anywhere must agree with sampling the parent (both
            // are piecewise-bilinear over nested lattices).
            prop_assert!((r.sample(x, y) - g.sample(x, y)).abs() < 1e-9);
        }
    }
}
