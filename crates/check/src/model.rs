//! Tier 2 — lints over fitted delay models.
//!
//! The paper's delay kernel evaluates `1 + f(P)` with `f` a fitted
//! bivariate polynomial (Eq. 9). Fitting is numerical: nothing in the
//! regression pipeline structurally prevents a surface from carrying a
//! NaN coefficient, dipping below `−1` (a non-positive — i.e. negative
//! or zero — delay factor), or violating the physical expectation that
//! gates get *faster* as the supply voltage rises. Any of those silently
//! corrupts every downstream delay. This module audits a
//! [`PolynomialModel`] for all of them, plus the operating points the
//! simulation intends to evaluate it at:
//!
//! * `AVC-D001` — non-finite coefficient in any surface (deny),
//! * `AVC-D002` — factor `1 + f(P) ≤ 0` somewhere on the sampled
//!   characterized grid (deny),
//! * `AVC-D003` — factor increases with supply voltage on the sampled
//!   grid (warn: physically implausible fit),
//! * `AVC-D004` — factor evaluates to NaN/∞ on the grid (deny),
//! * `AVC-D005` — an operating point outside the characterized `(v, c)`
//!   domain (warn: the kernel would extrapolate or clamp).
//!
//! Grid checks sample an evenly spaced [`GRID_SAMPLES`]² lattice over the
//! normalized unit square — the same domain the Horner kernel runs on —
//! so the audit costs `O(cells · pins · GRID_SAMPLES²)` Horner
//! evaluations and nothing else.

use crate::Findings;
use avfs_delay::{
    CoefficientTable, NormalizedPoint, OperatingPoint, ParameterSpace, PolynomialModel,
};
use avfs_netlist::library::{CellId, Polarity};

/// Samples per normalized axis for the grid checks (81 points per
/// surface): dense enough to catch sign dips of fitted low-order
/// surfaces, cheap enough to run on every engine construction.
pub const GRID_SAMPLES: usize = 9;

/// Slack for the voltage-monotonicity check: fitted surfaces are allowed
/// to rise by this much per grid step before `AVC-D003` fires, so
/// benign sub-ppm regression wiggle does not page anyone.
pub const MONOTONICITY_TOLERANCE: f64 = 1e-6;

fn grid_coord(i: usize) -> f64 {
    i as f64 / (GRID_SAMPLES - 1) as f64
}

/// Audits every characterized surface of `model`: coefficient
/// finiteness (`AVC-D001`) and grid behavior of the factor `1 + f(P)`
/// (`AVC-D002`, `AVC-D003`, `AVC-D004`), writing into `findings`.
pub fn lint_polynomial_model(model: &PolynomialModel, findings: &mut Findings) {
    let table = model.table();
    for cell_idx in 0..table.num_cells() {
        let cell = CellId::from_index(cell_idx);
        for pin in 0..table.num_pins(cell) {
            for polarity in [Polarity::Rise, Polarity::Fall] {
                let Ok(beta) = table.coefficients(cell, pin, polarity) else {
                    continue;
                };
                let at = || surface_location(cell_idx, pin, polarity);
                lint_coefficients(at, beta, findings);
                // A non-finite coefficient poisons every grid sample;
                // skip the grid lints to avoid cascading noise.
                if beta.iter().all(|b| b.is_finite()) {
                    lint_grid(at, table, cell, pin, polarity, findings);
                }
            }
        }
    }
}

fn surface_location(cell: usize, pin: usize, polarity: Polarity) -> String {
    let pol = match polarity {
        Polarity::Rise => "rise",
        Polarity::Fall => "fall",
    };
    format!("cell{cell}/pin{pin}/{pol}")
}

fn lint_coefficients(at: impl Fn() -> String, beta: &[f64], findings: &mut Findings) {
    for (k, b) in beta.iter().enumerate() {
        if !b.is_finite() {
            findings.push("AVC-D001", || (at(), format!("coefficient β[{k}] is {b}")));
        }
    }
}

fn lint_grid(
    at: impl Fn() -> String,
    table: &CoefficientTable,
    cell: CellId,
    pin: usize,
    polarity: Polarity,
    findings: &mut Findings,
) {
    // One factor matrix per surface, sampled through the same
    // `deviation` entry point the simulation kernel uses: factors[ci][vi].
    let mut factors = [[0.0f64; GRID_SAMPLES]; GRID_SAMPLES];
    for (ci, row) in factors.iter_mut().enumerate() {
        for (vi, slot) in row.iter_mut().enumerate() {
            let p = NormalizedPoint {
                v: grid_coord(vi),
                c: grid_coord(ci),
            };
            let dev = table
                .deviation(cell, pin, polarity, p)
                .expect("surface exists: coefficients() succeeded");
            *slot = 1.0 + dev;
        }
    }
    let mut worst_nonpos: Option<(f64, usize, usize)> = None;
    let mut worst_rise: Option<(f64, usize, usize)> = None;
    for (ci, row) in factors.iter().enumerate() {
        for (vi, &f) in row.iter().enumerate() {
            if !f.is_finite() {
                findings.push("AVC-D004", || {
                    let (v, c) = (grid_coord(vi), grid_coord(ci));
                    (
                        at(),
                        format!("factor is {f} at normalized (v={v:.3}, c={c:.3})"),
                    )
                });
                return; // grid is poisoned; one finding suffices
            }
            if f <= 0.0 && worst_nonpos.is_none_or(|(w, _, _)| f < w) {
                worst_nonpos = Some((f, vi, ci));
            }
            if vi > 0 {
                let rise = f - row[vi - 1];
                if rise > MONOTONICITY_TOLERANCE && worst_rise.is_none_or(|(w, _, _)| rise > w) {
                    worst_rise = Some((rise, vi, ci));
                }
            }
        }
    }
    if let Some((f, vi, ci)) = worst_nonpos {
        findings.push("AVC-D002", || {
            let (v, c) = (grid_coord(vi), grid_coord(ci));
            let message =
                format!("factor 1 + f(P) = {f:.6} ≤ 0 at normalized (v={v:.3}, c={c:.3})");
            (at(), message)
        });
    }
    if let Some((rise, vi, ci)) = worst_rise {
        findings.push("AVC-D003", || {
            let message = format!(
                "factor rises by {rise:.6} from v={:.3} to v={:.3} at c={:.3} \
                 (gates should speed up with voltage)",
                grid_coord(vi - 1),
                grid_coord(vi),
                grid_coord(ci)
            );
            (at(), message)
        });
    }
}

/// Checks one intended operating point against the characterized domain
/// (`AVC-D005`), writing into `findings`. `location` names the point
/// (e.g. `slot 3`) and runs only when the finding is kept.
pub fn lint_operating_point(
    space: &ParameterSpace,
    op: OperatingPoint,
    location: impl FnOnce() -> String,
    findings: &mut Findings,
) {
    if space.contains(op) {
        return;
    }
    findings.push("AVC-D005", || {
        let (v_min, v_max) = space.voltage_range();
        let (c_min, c_max) = space.load_range();
        let message = format!(
            "operating point (v={} V, c={} fF) outside characterized \
             [{v_min}, {v_max}] V × [{c_min}, {c_max}] fF",
            op.voltage, op.load_ff
        );
        (location(), message)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;
    use avfs_delay::{CoefficientTable, DelayModel, SurfacePolynomial};

    fn lint(model: &PolynomialModel) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_polynomial_model(model, &mut findings);
        findings.finish()
    }

    fn lint_point(space: &ParameterSpace, location: &str, op: OperatingPoint) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_operating_point(space, op, || location.to_owned(), &mut findings);
        findings.finish()
    }

    fn surface(order: usize, coeffs: Vec<f64>) -> SurfacePolynomial {
        SurfacePolynomial::new(order, coeffs).unwrap()
    }

    /// `f(v, c) = 0.3 − 0.4·v`: finite, factor ∈ [0.9, 1.3] > 0, strictly
    /// decreasing in v — a physically sane fit.
    fn sane_surface() -> SurfacePolynomial {
        surface(1, vec![0.3, 0.0, -0.4, 0.0])
    }

    fn model_of(surfaces: Vec<[SurfacePolynomial; 2]>) -> PolynomialModel {
        let order = surfaces[0][0].order();
        let mut table = CoefficientTable::new(2, order);
        table.insert(CellId::from_index(0), &surfaces).unwrap();
        PolynomialModel::new(table, ParameterSpace::paper())
    }

    #[test]
    fn sane_model_is_clean() {
        let m = model_of(vec![[sane_surface(), sane_surface()]]);
        assert_eq!(lint(&m), Vec::new());
    }

    #[test]
    fn nan_coefficient_flagged_and_grid_skipped() {
        let bad = surface(1, vec![0.1, f64::NAN, 0.0, 0.0]);
        let m = model_of(vec![[bad, sane_surface()]]);
        let findings = lint(&m);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "AVC-D001");
        assert_eq!(findings[0].location, "cell0/pin0/rise");
        assert!(findings[0].message.contains("β[1]"));
    }

    #[test]
    fn non_positive_factor_flagged() {
        // f = −0.5 − v: factor 0.5 − v ≤ 0 for v ≥ 0.5.
        let bad = surface(1, vec![-0.5, 0.0, -1.0, 0.0]);
        let m = model_of(vec![[sane_surface(), bad]]);
        let findings = lint(&m);
        let d002: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-D002").collect();
        assert_eq!(d002.len(), 1);
        assert_eq!(d002[0].location, "cell0/pin0/fall");
        // The worst (most negative) grid point is reported: v=1 → −0.5.
        assert!(d002[0].message.contains("-0.5"));
    }

    #[test]
    fn voltage_monotonicity_violation_is_warn() {
        // f = 0.4·v: factor increases with voltage — implausible.
        let bad = surface(1, vec![0.0, 0.0, 0.4, 0.0]);
        let m = model_of(vec![[bad, sane_surface()]]);
        let findings = lint(&m);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "AVC-D003");
        assert_eq!(findings[0].severity, crate::Severity::Warn);
    }

    #[test]
    fn infinite_factor_reported_once_per_surface() {
        // Huge coefficients overflow the factor to ∞ on the grid without
        // any single coefficient being non-finite.
        let bad = surface(1, vec![f64::MAX, 0.0, f64::MAX, 0.0]);
        let m = model_of(vec![[bad.clone(), bad]]);
        let findings = lint(&m);
        let d004: Vec<&Finding> = findings.iter().filter(|f| f.rule == "AVC-D004").collect();
        assert_eq!(d004.len(), 2, "one per polarity surface: {findings:?}");
    }

    #[test]
    fn out_of_domain_operating_points_flagged() {
        let space = ParameterSpace::paper();
        assert!(lint_point(&space, "slot 0", OperatingPoint::new(0.8, 4.0)).is_empty());
        let f = lint_point(&space, "slot 1", OperatingPoint::new(0.3, 4.0));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "AVC-D005");
        assert_eq!(f[0].location, "slot 1");
        assert!(f[0].message.contains("0.3"));
        assert_eq!(
            lint_point(&space, "node 7", OperatingPoint::new(0.8, 500.0)).len(),
            1
        );
    }

    #[test]
    fn one_collector_combines_tiers() {
        let m = model_of(vec![[sane_surface(), sane_surface()]]);
        let mut findings = Findings::default();
        lint_polynomial_model(&m, &mut findings);
        lint_operating_point(
            m.space(),
            OperatingPoint::new(2.0, 4.0),
            || "slot 0".into(),
            &mut findings,
        );
        let findings = findings.finish();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "AVC-D005");
    }
}
