//! Gate-level netlist substrate for the AVFS time simulator.
//!
//! The paper simulates full-scan combinational netlists synthesized with the
//! NanGate 15 nm Open Cell Library. This crate provides everything that the
//! simulator needs of such a netlist:
//!
//! * [`cell`] — cell kinds (logic function × arity × drive strength) and
//!   Boolean evaluation,
//! * [`library`] — a synthetic 15 nm-class standard-cell library with
//!   electrical parameters for characterization (the NanGate library itself
//!   is a proprietary download; see `DESIGN.md` for the substitution note),
//! * [`graph`] — the netlist graph (primary inputs, gates, primary outputs)
//!   with a validating builder,
//! * [`levelize`] — topological levelization into the structural levels the
//!   parallel simulator processes as units (paper Fig. 3, vertical axis),
//! * [`mod@bench`] — an ISCAS `.bench` format parser/writer,
//! * [`verilog`] — a structural-Verilog subset parser/writer,
//! * [`stats`] — circuit statistics (the "Nodes" column of Table I).
//!
//! # Example
//!
//! ```
//! use avfs_netlist::{library::CellLibrary, graph::NetlistBuilder};
//!
//! # fn main() -> Result<(), avfs_netlist::NetlistError> {
//! let lib = CellLibrary::nangate15_like();
//! let mut b = NetlistBuilder::new("half_adder", &lib);
//! let a = b.add_input("a")?;
//! let c = b.add_input("b")?;
//! let sum = b.add_gate("sum", "XOR2_X1", &[a, c])?;
//! let carry = b.add_gate("carry", "AND2_X1", &[a, c])?;
//! b.add_output("s", sum)?;
//! b.add_output("co", carry)?;
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_nodes(), 6); // 2 PIs + 2 gates + 2 POs
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bench;
pub mod cell;
pub mod graph;
pub mod hash;
pub mod levelize;
pub mod library;
pub mod stats;
pub mod verilog;

pub use cell::{CellKind, DriveStrength, LogicFunction};
pub use graph::{Netlist, NetlistBuilder, NodeId, NodeKind};
pub use levelize::Levelization;
pub use library::{Cell, CellId, CellLibrary};
pub use stats::NetlistStats;

use std::error::Error;
use std::fmt;

/// Errors produced while building or parsing netlists.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A node name was declared twice.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A referenced cell type does not exist in the library.
    UnknownCell {
        /// The unresolved cell-type name.
        cell: String,
    },
    /// A referenced signal name has no driver.
    UnknownSignal {
        /// The unresolved signal name.
        signal: String,
    },
    /// A gate was connected with the wrong number of inputs.
    ArityMismatch {
        /// The gate instance name.
        gate: String,
        /// The cell-type name.
        cell: String,
        /// Inputs the cell expects.
        expected: usize,
        /// Inputs that were connected.
        got: usize,
    },
    /// A parsed netlist contains a combinational cycle.
    CombinationalCycle {
        /// Name of a node on the cycle.
        node: String,
    },
    /// A parser failed.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The netlist has no primary inputs or no primary outputs.
    EmptyInterface,
    /// A node index was out of bounds for this netlist.
    InvalidNode {
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName { name } => write!(f, "duplicate node name `{name}`"),
            NetlistError::UnknownCell { cell } => write!(f, "unknown cell type `{cell}`"),
            NetlistError::UnknownSignal { signal } => write!(f, "unknown signal `{signal}`"),
            NetlistError::ArityMismatch {
                gate,
                cell,
                expected,
                got,
            } => write!(
                f,
                "gate `{gate}` of type `{cell}` expects {expected} inputs, got {got}"
            ),
            NetlistError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through node `{node}`")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::EmptyInterface => {
                write!(f, "netlist must have at least one input and one output")
            }
            NetlistError::InvalidNode { index } => write!(f, "invalid node index {index}"),
        }
    }
}

impl Error for NetlistError {}
