//! Parametric voltage-dependent delay modeling (paper Sec. III).
//!
//! This crate is the bridge between offline characterization and online
//! simulation:
//!
//! * [`op`] — operating points `P = (v, c)` and the constrained parameter
//!   space `𝒫` with its normalizations,
//! * [`polynomial`] — compiled delay-deviation surfaces `f : 𝒫 → ℝ`
//!   evaluated with nested Horner (the paper's GPU delay kernel),
//! * [`table`] — coefficient storage indexed by (cell type, input pin,
//!   transition polarity), "a constant double-precision floating-point
//!   array structure … indexed by the cell type, input pin and transition
//!   polarity" (Sec. IV),
//! * [`model`] — the [`DelayModel`] abstraction with the
//!   polynomial model plus the baselines the paper discusses: static
//!   delays, look-up-table interpolation, and the analytical α-power law,
//! * [`annotation`] — per-instance nominal pin-to-pin delays (the SDF view
//!   of the circuit) and instance load capacitances,
//! * [`characterize`] — the full Fig. 1 pre-process: SPICE-substitute
//!   sweep → grid densification → normalization → OLS regression →
//!   compiled kernels.
//!
//! # Normalization note
//!
//! Eq. 3 of the paper normalizes delays by "the" nominal delay. For the
//! annotated-SDF flow to be consistent (and for the ±0.1 % nominal-case
//! deviation of Table II to be achievable), the deviation must vanish at
//! `v = V_nom` for *every* load. We therefore normalize each sweep sample
//! by the delay at the nominal voltage *under the same load*:
//! `y(v, c) = d(v, c) / d(V_nom, c) − 1`, and Eq. 9 scales the
//! load-dependent SDF annotation: `d' = d_SDF(c) · (1 + f(v, c))`.
//! `DESIGN.md` discusses this interpretation.

#![forbid(unsafe_code)]

pub mod annotation;
pub mod characterize;
pub mod io;
pub mod model;
pub mod op;
pub mod polynomial;
pub mod table;
pub mod variation;

pub use annotation::TimingAnnotation;
pub use characterize::{
    characterize_library, characterize_library_metered, CharacterizationReport,
    CharacterizedLibrary,
};
pub use model::{AlphaPowerModel, DelayModel, LutModel, PolynomialModel, StaticModel};
pub use op::{NormalizedPoint, OperatingPoint, ParameterSpace};
pub use polynomial::SurfacePolynomial;
pub use table::CoefficientTable;
pub use variation::VariationConfig;

use std::error::Error;
use std::fmt;

/// Errors produced by delay modeling.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DelayError {
    /// An operating point lies outside the characterized parameter space.
    OutOfRange {
        /// The voltage requested, V.
        voltage: f64,
        /// The load requested, fF.
        load_ff: f64,
    },
    /// A coefficient vector had the wrong length for its declared order.
    BadCoefficients {
        /// Expected number of coefficients.
        expected: usize,
        /// Provided number.
        got: usize,
    },
    /// The coefficient table has no entry for the requested cell.
    MissingCell {
        /// Index of the cell type.
        cell_index: usize,
    },
    /// Characterization failed for a cell.
    Characterization {
        /// The cell-type name.
        cell: String,
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for DelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayError::OutOfRange { voltage, load_ff } => {
                write!(
                    f,
                    "operating point ({voltage} V, {load_ff} fF) outside parameter space"
                )
            }
            DelayError::BadCoefficients { expected, got } => {
                write!(f, "expected {expected} coefficients, got {got}")
            }
            DelayError::MissingCell { cell_index } => {
                write!(f, "no delay kernel for cell index {cell_index}")
            }
            DelayError::Characterization { cell, message } => {
                write!(f, "characterization of `{cell}` failed: {message}")
            }
        }
    }
}

impl Error for DelayError {}
