//! Statistical-learning substrate for the AVFS delay characterization flow.
//!
//! This crate implements the offline learning machinery of Schneider &
//! Wunderlich (DATE'20), Section III: dense linear algebra, ordinary
//! least-squares multi-variable linear regression (the normal equation
//! `β̂ = (XᵀX)⁻¹ Xᵀ y`, Eq. 8, solved by Householder QR, and on a refined
//! tensor lattice as two 1-D fits), bivariate polynomial feature expansion
//! (Eq. 4/6), the parameter normalizations `φ_V`, `φ_C`, `φ_D`, data-grid
//! densification by bilinear interpolation (Fig. 1, step B), and the error
//! statistics reported in Fig. 4.
//!
//! Everything is `f64`; the paper requires double precision throughout the
//! delay path because polynomial evaluation is highly sensitive to
//! coefficient perturbations (Sec. III.D).
//!
//! # Example
//!
//! Fit a plane `d = 1 + 2v + 3c` from samples and recover its coefficients:
//!
//! ```
//! use avfs_regression::{poly::PolyBasis, linreg::fit_least_squares};
//!
//! # fn main() -> Result<(), avfs_regression::RegressionError> {
//! let basis = PolyBasis::new(1); // order 2·N with N = 1: terms 1, c, v, vc
//! let mut xs = Vec::new();
//! let mut ys = Vec::new();
//! for &v in &[0.0, 0.25, 0.5, 1.0] {
//!     for &c in &[0.0, 0.5, 1.0] {
//!         xs.push((v, c));
//!         ys.push(1.0 + 2.0 * v + 3.0 * c);
//!     }
//! }
//! let beta = fit_least_squares(&basis, &xs, &ys)?;
//! assert!((beta[0] - 1.0).abs() < 1e-9); // constant term
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

#[cfg(test)]
mod fused;
pub mod grid;
pub mod linreg;
pub mod matrix;
pub mod normalize;
pub mod poly;
pub mod solve;
pub mod stats;

pub use grid::DataGrid;
pub use linreg::{fit_least_squares, SeparableFit};
pub use matrix::Matrix;
pub use normalize::{CapNormalizer, VoltageNormalizer};
pub use poly::PolyBasis;
pub use stats::ErrorStats;

use std::error::Error;
use std::fmt;

/// Errors produced by the regression substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RegressionError {
    /// Matrix dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimensions of the left / first operand.
        left: (usize, usize),
        /// Dimensions of the right / second operand.
        right: (usize, usize),
    },
    /// The system matrix is singular (or numerically indefinite) and cannot
    /// be factorized.
    SingularMatrix {
        /// Pivot index at which the factorization broke down.
        pivot: usize,
    },
    /// Fewer samples than unknown coefficients; the least-squares problem is
    /// under-determined.
    UnderDetermined {
        /// Number of provided samples.
        samples: usize,
        /// Number of unknown coefficients.
        unknowns: usize,
    },
    /// An interval given to a normalizer or grid was empty or inverted.
    InvalidInterval {
        /// Description of the offending interval.
        what: &'static str,
    },
    /// A sample value is non-finite (NaN or infinite).
    NonFiniteSample {
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionError::DimensionMismatch {
                context,
                left,
                right,
            } => write!(
                f,
                "dimension mismatch in {context}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            RegressionError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            RegressionError::UnderDetermined { samples, unknowns } => write!(
                f,
                "under-determined system: {samples} samples for {unknowns} unknowns"
            ),
            RegressionError::InvalidInterval { what } => {
                write!(f, "invalid interval: {what}")
            }
            RegressionError::NonFiniteSample { index } => {
                write!(f, "non-finite sample value at index {index}")
            }
        }
    }
}

impl Error for RegressionError {}
