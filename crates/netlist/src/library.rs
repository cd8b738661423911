//! A synthetic 15 nm-class standard-cell library.
//!
//! The paper uses the NanGate 15 nm Open Cell Library, which is a
//! proprietary download. This module builds a library with the same
//! *taxonomy* (the functions and drive strengths of Fig. 4: AND, NAND, BUF,
//! INV, OR, NOR — plus XOR/XNOR/AOI/OAI/MUX — each in X1…X8) and physically
//! plausible electrical parameters derived from simple transistor sizing
//! rules. The characterization substrate (`avfs-spice`) consumes these
//! parameters to produce delay surfaces in the picosecond range of the
//! paper's tables.
//!
//! Sizing model: a cell of drive `Xk` uses NMOS devices of width
//! `k · S_n` units and PMOS devices of width `k · μ · S_p` units, where
//! `S_n`/`S_p` are the worst-case series stack depths of the pull-down /
//! pull-up network (stacked devices are widened to preserve drive) and
//! `μ = 1.5` compensates the hole-mobility deficit. Pin capacitances and
//! output parasitics are proportional to the connected gate and diffusion
//! widths.

use crate::cell::{CellKind, DriveStrength, LogicFunction};
use crate::NetlistError;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Signal transition polarity at a gate *output*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Output rises (0 → 1); the pull-up network conducts.
    Rise,
    /// Output falls (1 → 0); the pull-down network conducts.
    Fall,
}

impl Polarity {
    /// Both polarities, in `[Rise, Fall]` order (the index order used by
    /// coefficient tables).
    pub fn both() -> [Polarity; 2] {
        [Polarity::Rise, Polarity::Fall]
    }

    /// Stable index: `Rise = 0`, `Fall = 1`.
    pub fn index(&self) -> usize {
        match self {
            Polarity::Rise => 0,
            Polarity::Fall => 1,
        }
    }

    /// The polarity of a transition from `from` to `!from`.
    pub fn of_transition_to(new_value: bool) -> Polarity {
        if new_value {
            Polarity::Rise
        } else {
            Polarity::Fall
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Rise => f.write_str("rise"),
            Polarity::Fall => f.write_str("fall"),
        }
    }
}

/// PMOS/NMOS mobility compensation factor used by the sizing rules.
pub const MOBILITY_RATIO: f64 = 1.5;

/// Gate capacitance per unit transistor width, in fF.
pub const GATE_CAP_PER_WIDTH_FF: f64 = 0.25;

/// Diffusion (parasitic output) capacitance per unit width, in fF.
pub const DIFF_CAP_PER_WIDTH_FF: f64 = 0.12;

/// An input pin of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name (`A`, `B`, …; `S` for a mux select).
    pub name: String,
    /// Input capacitance presented to the driving net, in fF.
    pub capacitance_ff: f64,
}

/// The conducting-path description for one (input pin, output polarity)
/// pair, consumed by the transistor-level characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinDrive {
    /// Effective conducting channel width in unit widths (device width
    /// divided by series stack depth).
    pub width: f64,
    /// Series stack depth of the conducting network for this transition.
    pub stack: u8,
    /// Position of the switching device in the stack (0 = nearest the
    /// output node; inner positions are slower).
    pub position: u8,
    /// Number of logic stages inside the cell (1 for inverting primitives,
    /// 2 for buffered/composite cells like AND, OR, XOR, MUX).
    pub stages: u8,
}

/// One standard cell: kind, pins, and electrical sizing data.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    kind: CellKind,
    name: String,
    input_pins: Vec<Pin>,
    output_pin: String,
    /// Per-device NMOS width (unit widths).
    wn: f64,
    /// Per-device PMOS width (unit widths).
    wp: f64,
    parasitic_cap_ff: f64,
}

impl Cell {
    fn build(kind: CellKind) -> Cell {
        let drive = kind.drive().factor();
        let (pd_stack, pu_stack) = worst_stacks(kind.function(), kind.num_inputs());
        let stages = stage_count(kind.function());
        // Stacked devices are widened to preserve unit drive through the
        // full stack.
        let wn = drive * pd_stack as f64;
        let wp = drive * MOBILITY_RATIO * pu_stack as f64;
        // Multi-stage cells present the first stage's (smaller) devices to
        // the input; model with a 0.7 factor per pin, plus the full load
        // internally (captured in the parasitic).
        let pin_width = if stages > 1 { 0.7 * (wn + wp) } else { wn + wp };
        let n = kind.num_inputs();
        let input_pins = (0..n)
            .map(|i| Pin {
                name: pin_name(kind.function(), i, n),
                capacitance_ff: GATE_CAP_PER_WIDTH_FF * pin_width,
            })
            .collect();
        let parasitic_cap_ff =
            DIFF_CAP_PER_WIDTH_FF * (wn + wp) * if stages > 1 { 1.6 } else { 1.0 };
        let output_pin = if kind.function().is_inverting() {
            "ZN".to_owned()
        } else {
            "Z".to_owned()
        };
        Cell {
            name: kind.to_string(),
            kind,
            input_pins,
            output_pin,
            wn,
            wp,
            parasitic_cap_ff,
        }
    }

    /// The cell kind (function, arity, drive).
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The cell-type name, e.g. `NAND2_X1`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input pins in connection order.
    pub fn input_pins(&self) -> &[Pin] {
        &self.input_pins
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.input_pins.len()
    }

    /// The output pin name (`Z` or `ZN`).
    pub fn output_pin(&self) -> &str {
        &self.output_pin
    }

    /// Output parasitic (diffusion) capacitance in fF.
    pub fn parasitic_cap_ff(&self) -> f64 {
        self.parasitic_cap_ff
    }

    /// Describes the conducting path when a transition on `pin` causes the
    /// output to make a `polarity` transition.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= self.num_inputs()`.
    pub fn pin_drive(&self, pin: usize, polarity: Polarity) -> PinDrive {
        assert!(pin < self.num_inputs(), "pin index out of range");
        let func = self.kind.function();
        let n = self.kind.num_inputs();
        let stages = stage_count(func);
        let (stack, position) = pin_stack(func, n, pin, polarity);
        let device_width = match polarity {
            Polarity::Rise => self.wp / MOBILITY_RATIO, // current-equivalent width
            Polarity::Fall => self.wn,
        };
        PinDrive {
            width: device_width / stack as f64,
            stack,
            position,
            stages,
        }
    }

    /// Evaluates the cell function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        self.kind.eval(inputs)
    }
}

/// Conventional pin names: `A1…An` for simple gates, `A/B/S` for muxes,
/// `A1/A2/B1/B2` style for AOI/OAI.
fn pin_name(func: LogicFunction, index: usize, arity: usize) -> String {
    match func {
        LogicFunction::Buf | LogicFunction::Inv => "A".to_owned(),
        LogicFunction::Mux2 => ["A", "B", "S"][index].to_owned(),
        LogicFunction::Aoi21 | LogicFunction::Oai21 => ["A1", "A2", "B"][index].to_owned(),
        LogicFunction::Aoi22 | LogicFunction::Oai22 => ["A1", "A2", "B1", "B2"][index].to_owned(),
        _ if arity == 1 => "A".to_owned(),
        _ => format!("A{}", index + 1),
    }
}

/// Worst-case series stack depths (pull-down, pull-up) of the cell body.
fn worst_stacks(func: LogicFunction, n: usize) -> (u8, u8) {
    let n = n as u8;
    match func {
        LogicFunction::Buf | LogicFunction::Inv => (1, 1),
        LogicFunction::And | LogicFunction::Nand => (n, 1),
        LogicFunction::Or | LogicFunction::Nor => (1, n),
        LogicFunction::Xor | LogicFunction::Xnor => (2, 2),
        LogicFunction::Aoi21 => (2, 2),
        LogicFunction::Oai21 => (2, 2),
        LogicFunction::Aoi22 => (2, 2),
        LogicFunction::Oai22 => (2, 2),
        LogicFunction::Mux2 => (2, 2),
    }
}

/// Number of internal stages (composite cells are an inverting core plus an
/// output inverter).
fn stage_count(func: LogicFunction) -> u8 {
    match func {
        LogicFunction::Inv | LogicFunction::Nand | LogicFunction::Nor => 1,
        LogicFunction::Aoi21
        | LogicFunction::Oai21
        | LogicFunction::Aoi22
        | LogicFunction::Oai22 => 1,
        LogicFunction::Buf
        | LogicFunction::And
        | LogicFunction::Or
        | LogicFunction::Xor
        | LogicFunction::Xnor
        | LogicFunction::Mux2 => 2,
    }
}

/// Stack depth and position of the conducting path when `pin` switches and
/// the output makes a `polarity` transition.
fn pin_stack(func: LogicFunction, n: usize, pin: usize, polarity: Polarity) -> (u8, u8) {
    use LogicFunction::*;
    use Polarity::*;
    let n8 = n as u8;
    let p8 = pin as u8;
    match (func, polarity) {
        (Buf | Inv, _) => (1, 0),
        // NAND/AND body: series pull-down (position = pin order), parallel
        // pull-up.
        (Nand | And, Fall) => (n8, p8),
        (Nand | And, Rise) => (1, 0),
        // NOR/OR body: parallel pull-down, series pull-up.
        (Nor | Or, Fall) => (1, 0),
        (Nor | Or, Rise) => (n8, p8),
        // XOR/XNOR/MUX: both networks are two deep for every pin.
        (Xor | Xnor | Mux2, _) => (2, (p8).min(1)),
        // AOI21 = !((A1∧A2) ∨ B): pull-down has a 2-stack for A pins and a
        // single device for B; pull-up is always a 2-stack.
        (Aoi21, Fall) => {
            if pin < 2 {
                (2, p8)
            } else {
                (1, 0)
            }
        }
        (Aoi21, Rise) => (2, if pin < 2 { 0 } else { 1 }),
        // OAI21 = !((A1∨A2) ∧ B): dual of AOI21.
        (Oai21, Fall) => (2, if pin < 2 { 0 } else { 1 }),
        (Oai21, Rise) => {
            if pin < 2 {
                (2, p8)
            } else {
                (1, 0)
            }
        }
        (Aoi22, Fall) => (2, p8 % 2),
        (Aoi22, Rise) => (2, p8 / 2),
        (Oai22, Fall) => (2, p8 / 2),
        (Oai22, Rise) => (2, p8 % 2),
    }
}

/// A cell-type index into a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index value.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `CellId` from a raw index.
    ///
    /// Intended for data structures (coefficient tables, annotation
    /// arrays) that are densely indexed by cell id; the caller is
    /// responsible for using indices obtained from the same library.
    pub fn from_index(index: usize) -> CellId {
        CellId(index as u32)
    }
}

/// An immutable collection of standard cells, shared by netlists via `Arc`.
///
/// # Example
///
/// ```
/// use avfs_netlist::CellLibrary;
///
/// let lib = CellLibrary::nangate15_like();
/// let id = lib.find("NOR2_X2").expect("library contains NOR2_X2");
/// assert_eq!(lib.cell(id).num_inputs(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
}

impl CellLibrary {
    /// Builds the full synthetic library: every [`LogicFunction`] at every
    /// legal arity and drive strength (196 cells).
    pub fn nangate15_like() -> Arc<CellLibrary> {
        let mut lib = CellLibrary {
            cells: Vec::new(),
            by_name: HashMap::new(),
        };
        for &f in LogicFunction::all() {
            for arity in f.arity_range() {
                for &d in DriveStrength::all() {
                    let kind = CellKind::new(f, arity, d).expect("valid arity by construction");
                    lib.insert(Cell::build(kind));
                }
            }
        }
        Arc::new(lib)
    }

    fn insert(&mut self, cell: Cell) {
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name().to_owned(), id);
        self.cells.push(cell);
    }

    /// Looks up a cell type by name.
    pub fn find(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a cell type by name, returning a typed error when missing.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if the name is not present.
    pub fn require(&self, name: &str) -> Result<CellId, NetlistError> {
        self.find(name).ok_or_else(|| NetlistError::UnknownCell {
            cell: name.to_owned(),
        })
    }

    /// A deterministic 64-bit hash of the library's electrical content:
    /// every cell's name, pin names and capacitances, device widths,
    /// parasitic and output-pin name, in cell order. Any parameter
    /// change — a retuned capacitance, an added drive strength —
    /// changes the hash. Used as the library half of compiled-artifact
    /// cache keys.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.write_usize(self.cells.len());
        for cell in &self.cells {
            h.write_str(&cell.name);
            h.write_str(&cell.output_pin);
            h.write_f64(cell.wn);
            h.write_f64(cell.wp);
            h.write_f64(cell.parasitic_cap_ff);
            h.write_usize(cell.input_pins.len());
            for pin in &cell.input_pins {
                h.write_str(&pin.name);
                h.write_f64(pin.capacitance_ff);
            }
        }
        h.finish()
    }

    /// The cell for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Number of cell types.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_contains_fig4_subset() {
        let lib = CellLibrary::nangate15_like();
        // Fig. 4 subset: AND, NAND, BUF, INV, OR and NOR for all strengths.
        for base in ["AND2", "NAND2", "BUF", "INV", "OR2", "NOR2"] {
            for strength in ["X1", "X2", "X4", "X8"] {
                let name = format!("{base}_{strength}");
                assert!(lib.find(&name).is_some(), "missing {name}");
            }
        }
    }

    #[test]
    fn library_size() {
        let lib = CellLibrary::nangate15_like();
        // 13 functions; AND/NAND/OR/NOR at arities 2..=4 → 4·3 = 12 extra.
        // Functions with one arity each: BUF, INV, XOR, XNOR, AOI21, OAI21,
        // AOI22, OAI22, MUX2 = 9. Total kinds = (9 + 12) · 4 strengths = 84.
        assert_eq!(lib.len(), 84);
        assert!(!lib.is_empty());
    }

    #[test]
    fn truth_tables_agree_with_eval_on_every_row_of_every_cell() {
        let lib = CellLibrary::nangate15_like();
        let mut checked = 0;
        for (_, cell) in lib.iter() {
            let pins = cell.num_inputs();
            let table = cell.kind().truth_table();
            for row in 0..1usize << pins {
                let inputs: Vec<bool> = (0..pins).map(|p| row >> p & 1 == 1).collect();
                assert_eq!(
                    table >> row & 1 == 1,
                    cell.eval(&inputs),
                    "{} row {row:#06b}",
                    cell.name()
                );
            }
            // Rows past 2^pins stay clear, so a wider index reads `false`.
            assert_eq!(u32::from(table) >> (1u32 << pins), 0, "{}", cell.name());
            checked += 1;
        }
        assert_eq!(checked, 84);
    }

    #[test]
    fn ids_are_stable() {
        let lib = CellLibrary::nangate15_like();
        for (id, cell) in lib.iter() {
            assert_eq!(lib.find(cell.name()), Some(id));
            assert_eq!(lib.cell(id).name(), cell.name());
        }
    }

    #[test]
    fn require_unknown_is_error() {
        let lib = CellLibrary::nangate15_like();
        assert!(matches!(
            lib.require("FROB2_X1"),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn drive_strength_scales_pin_cap() {
        let lib = CellLibrary::nangate15_like();
        let x1 = lib.cell(lib.find("INV_X1").unwrap());
        let x4 = lib.cell(lib.find("INV_X4").unwrap());
        let c1 = x1.input_pins()[0].capacitance_ff;
        let c4 = x4.input_pins()[0].capacitance_ff;
        assert!((c4 / c1 - 4.0).abs() < 1e-9, "X4 pin cap should be 4× X1");
        assert!(c1 > 0.1 && c1 < 5.0, "X1 pin cap {c1} fF is implausible");
    }

    #[test]
    fn nand_stacks() {
        let lib = CellLibrary::nangate15_like();
        let nand3 = lib.cell(lib.find("NAND3_X1").unwrap());
        let fall = nand3.pin_drive(1, Polarity::Fall);
        assert_eq!(fall.stack, 3);
        assert_eq!(fall.position, 1);
        let rise = nand3.pin_drive(1, Polarity::Rise);
        assert_eq!(rise.stack, 1);
        // Stacked NMOS devices are widened: effective fall width stays at
        // the nominal drive.
        assert!((fall.width - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nor_is_dual_of_nand() {
        let lib = CellLibrary::nangate15_like();
        let nor2 = lib.cell(lib.find("NOR2_X1").unwrap());
        assert_eq!(nor2.pin_drive(0, Polarity::Rise).stack, 2);
        assert_eq!(nor2.pin_drive(0, Polarity::Fall).stack, 1);
    }

    #[test]
    fn output_pin_names_follow_inversion() {
        let lib = CellLibrary::nangate15_like();
        assert_eq!(lib.cell(lib.find("NAND2_X1").unwrap()).output_pin(), "ZN");
        assert_eq!(lib.cell(lib.find("AND2_X1").unwrap()).output_pin(), "Z");
    }

    #[test]
    fn pin_names() {
        let lib = CellLibrary::nangate15_like();
        let mux = lib.cell(lib.find("MUX2_X1").unwrap());
        let names: Vec<_> = mux.input_pins().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "S"]);
        let nand4 = lib.cell(lib.find("NAND4_X1").unwrap());
        assert_eq!(nand4.input_pins()[3].name, "A4");
        let aoi = lib.cell(lib.find("AOI21_X1").unwrap());
        let names: Vec<_> = aoi.input_pins().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["A1", "A2", "B"]);
    }

    #[test]
    fn parasitic_caps_positive_and_scale() {
        let lib = CellLibrary::nangate15_like();
        for (_, cell) in lib.iter() {
            assert!(cell.parasitic_cap_ff() > 0.0, "{}", cell.name());
        }
        let inv1 = lib.cell(lib.find("INV_X1").unwrap()).parasitic_cap_ff();
        let inv8 = lib.cell(lib.find("INV_X8").unwrap()).parasitic_cap_ff();
        assert!((inv8 / inv1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn polarity_index() {
        assert_eq!(Polarity::Rise.index(), 0);
        assert_eq!(Polarity::Fall.index(), 1);
        assert_eq!(Polarity::of_transition_to(true), Polarity::Rise);
        assert_eq!(Polarity::of_transition_to(false), Polarity::Fall);
        assert_eq!(Polarity::both(), [Polarity::Rise, Polarity::Fall]);
    }
}
