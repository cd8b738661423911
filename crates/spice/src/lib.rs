//! Transistor-level cell characterization — the SPICE substitute.
//!
//! The paper extracts pin-to-pin propagation delays "from SPICE transient
//! analysis with parameter sweeps over a finite set of operating points"
//! using a commercial simulator on the NanGate 15 nm library. Neither the
//! tool nor the library is redistributable, so this crate implements the
//! smallest electrical simulator that preserves what the downstream
//! regression must learn:
//!
//! * an **α-power-law MOSFET model** (Sakurai–Newton) whose drain current
//!   captures the non-linear supply-voltage dependence of Eq. 1,
//!   `τ ∝ V_DD / (V_DD − V_th)^α`,
//! * a **transient analysis** integrating the nonlinear output-stage ODE
//!   `C·dV/dt = ±I_D(V_in(t), V_out)` with a ramped input, measuring the
//!   50 %-crossing propagation delay exactly like a `.MEASURE TRIG/TARG`
//!   statement,
//! * stack, pin-position and multi-stage derating consistent with the
//!   synthetic library's sizing rules, and
//! * a **parameter-sweep harness** producing the delay grids (voltage ×
//!   load) that feed the regression flow of Fig. 1.
//!
//! Delays are reported in **picoseconds**, currents in µA, capacitances in
//! fF, voltages in V.
//!
//! # Example
//!
//! ```
//! use avfs_spice::{Technology, characterize::pin_delay_ps};
//! use avfs_netlist::{CellLibrary, library::Polarity};
//!
//! let tech = Technology::nm15();
//! let lib = CellLibrary::nangate15_like();
//! let inv = lib.cell(lib.find("INV_X1").expect("INV_X1 exists"));
//! let d_nom = pin_delay_ps(&tech, inv, 0, Polarity::Fall, 0.8, 2.0).expect("valid op");
//! let d_low = pin_delay_ps(&tech, inv, 0, Polarity::Fall, 0.55, 2.0).expect("valid op");
//! assert!(d_low > d_nom, "lower supply voltage must slow the cell");
//! ```

#![forbid(unsafe_code)]

pub mod characterize;
pub mod mosfet;
pub mod sweep;
pub mod technology;
pub mod transient;

pub use characterize::pin_delay_ps;
pub use mosfet::Mosfet;
pub use sweep::{sweep_pin, DelaySurface, SweepConfig, SweepPlan};
pub use technology::Technology;

use std::error::Error;
use std::fmt;

/// Errors produced by the characterization substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// The requested operating point is outside the validity range of the
    /// device model (e.g. supply at or below threshold).
    InvalidOperatingPoint {
        /// Supply voltage that was requested.
        vdd: f64,
        /// Explanation.
        reason: &'static str,
    },
    /// The transient integration did not reach the measurement crossing
    /// within the step budget.
    NoConvergence {
        /// Time reached when the budget ran out, in ps.
        reached_ps: f64,
    },
    /// A sweep was configured with an empty axis or non-finite values.
    InvalidSweep {
        /// Explanation.
        reason: &'static str,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::InvalidOperatingPoint { vdd, reason } => {
                write!(f, "invalid operating point vdd={vdd} V: {reason}")
            }
            SpiceError::NoConvergence { reached_ps } => {
                write!(
                    f,
                    "transient did not converge within budget (t={reached_ps} ps)"
                )
            }
            SpiceError::InvalidSweep { reason } => write!(f, "invalid sweep: {reason}"),
        }
    }
}

impl Error for SpiceError {}
