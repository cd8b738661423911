//! Cell kinds: logic function × input arity × drive strength.
//!
//! A [`CellKind`] identifies one standard-cell type such as `NAND2_X4`.
//! The Boolean behaviour lives in [`LogicFunction::eval`]; electrical data
//! (pin capacitances, drive currents) lives in the
//! [library](crate::library).

use crate::NetlistError;
use std::fmt;
use std::str::FromStr;

/// The Boolean function a cell computes.
///
/// The complex cells use the conventional pin grouping:
/// * `Aoi21(a, b, c) = !((a ∧ b) ∨ c)`
/// * `Oai21(a, b, c) = !((a ∨ b) ∧ c)`
/// * `Aoi22(a, b, c, d) = !((a ∧ b) ∨ (c ∧ d))`
/// * `Oai22(a, b, c, d) = !((a ∨ b) ∧ (c ∨ d))`
/// * `Mux2(a, b, s) = if s { b } else { a }`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum LogicFunction {
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// AND-OR-invert 2-2.
    Aoi22,
    /// OR-AND-invert 2-2.
    Oai22,
    /// 2-to-1 multiplexer (select is the last pin).
    Mux2,
}

impl LogicFunction {
    /// Evaluates the function over input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not valid for this function; gate
    /// construction through [`NetlistBuilder`](crate::graph::NetlistBuilder)
    /// guarantees validity.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        match self {
            LogicFunction::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes one input");
                inputs[0]
            }
            LogicFunction::Inv => {
                assert_eq!(inputs.len(), 1, "INV takes one input");
                !inputs[0]
            }
            LogicFunction::And => {
                assert!(inputs.len() >= 2, "AND takes ≥ 2 inputs");
                inputs.iter().all(|&x| x)
            }
            LogicFunction::Nand => {
                assert!(inputs.len() >= 2, "NAND takes ≥ 2 inputs");
                !inputs.iter().all(|&x| x)
            }
            LogicFunction::Or => {
                assert!(inputs.len() >= 2, "OR takes ≥ 2 inputs");
                inputs.iter().any(|&x| x)
            }
            LogicFunction::Nor => {
                assert!(inputs.len() >= 2, "NOR takes ≥ 2 inputs");
                !inputs.iter().any(|&x| x)
            }
            LogicFunction::Xor => {
                assert_eq!(inputs.len(), 2, "XOR2 takes two inputs");
                inputs[0] ^ inputs[1]
            }
            LogicFunction::Xnor => {
                assert_eq!(inputs.len(), 2, "XNOR2 takes two inputs");
                !(inputs[0] ^ inputs[1])
            }
            LogicFunction::Aoi21 => {
                assert_eq!(inputs.len(), 3, "AOI21 takes three inputs");
                !((inputs[0] && inputs[1]) || inputs[2])
            }
            LogicFunction::Oai21 => {
                assert_eq!(inputs.len(), 3, "OAI21 takes three inputs");
                !((inputs[0] || inputs[1]) && inputs[2])
            }
            LogicFunction::Aoi22 => {
                assert_eq!(inputs.len(), 4, "AOI22 takes four inputs");
                !((inputs[0] && inputs[1]) || (inputs[2] && inputs[3]))
            }
            LogicFunction::Oai22 => {
                assert_eq!(inputs.len(), 4, "OAI22 takes four inputs");
                !((inputs[0] || inputs[1]) && (inputs[2] || inputs[3]))
            }
            LogicFunction::Mux2 => {
                assert_eq!(inputs.len(), 3, "MUX2 takes three inputs (a, b, s)");
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
        }
    }

    /// Evaluates the function over 64 slots at once: bit `k` of each input
    /// word holds that input's logic value in lane `k`, and bit `k` of the
    /// result holds lane `k`'s output.
    ///
    /// Bitwise boolean algebra makes every lane independent, so each result
    /// bit equals [`LogicFunction::eval`] applied to the corresponding input
    /// bits — the packed path is exact, not approximate:
    ///
    /// ```
    /// use avfs_netlist::LogicFunction;
    ///
    /// let a = 0b1100;
    /// let b = 0b1010;
    /// let packed = LogicFunction::Nand.eval_lanes(&[a, b]);
    /// for lane in 0..4 {
    ///     let scalar = LogicFunction::Nand.eval(&[a >> lane & 1 == 1, b >> lane & 1 == 1]);
    ///     assert_eq!(packed >> lane & 1 == 1, scalar);
    /// }
    /// ```
    ///
    /// Unused lanes compute garbage-in/garbage-out; callers mask the result
    /// with their live-lane mask.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not valid for this function, exactly like
    /// [`LogicFunction::eval`].
    pub fn eval_lanes(&self, inputs: &[u64]) -> u64 {
        match self {
            LogicFunction::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes one input");
                inputs[0]
            }
            LogicFunction::Inv => {
                assert_eq!(inputs.len(), 1, "INV takes one input");
                !inputs[0]
            }
            LogicFunction::And => {
                assert!(inputs.len() >= 2, "AND takes ≥ 2 inputs");
                inputs.iter().fold(!0u64, |acc, &x| acc & x)
            }
            LogicFunction::Nand => {
                assert!(inputs.len() >= 2, "NAND takes ≥ 2 inputs");
                !inputs.iter().fold(!0u64, |acc, &x| acc & x)
            }
            LogicFunction::Or => {
                assert!(inputs.len() >= 2, "OR takes ≥ 2 inputs");
                inputs.iter().fold(0u64, |acc, &x| acc | x)
            }
            LogicFunction::Nor => {
                assert!(inputs.len() >= 2, "NOR takes ≥ 2 inputs");
                !inputs.iter().fold(0u64, |acc, &x| acc | x)
            }
            LogicFunction::Xor => {
                assert_eq!(inputs.len(), 2, "XOR2 takes two inputs");
                inputs[0] ^ inputs[1]
            }
            LogicFunction::Xnor => {
                assert_eq!(inputs.len(), 2, "XNOR2 takes two inputs");
                !(inputs[0] ^ inputs[1])
            }
            LogicFunction::Aoi21 => {
                assert_eq!(inputs.len(), 3, "AOI21 takes three inputs");
                !((inputs[0] & inputs[1]) | inputs[2])
            }
            LogicFunction::Oai21 => {
                assert_eq!(inputs.len(), 3, "OAI21 takes three inputs");
                !((inputs[0] | inputs[1]) & inputs[2])
            }
            LogicFunction::Aoi22 => {
                assert_eq!(inputs.len(), 4, "AOI22 takes four inputs");
                !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3]))
            }
            LogicFunction::Oai22 => {
                assert_eq!(inputs.len(), 4, "OAI22 takes four inputs");
                !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3]))
            }
            LogicFunction::Mux2 => {
                assert_eq!(inputs.len(), 3, "MUX2 takes three inputs (a, b, s)");
                let s = inputs[2];
                (inputs[0] & !s) | (inputs[1] & s)
            }
        }
    }

    /// Whether the output is the logical complement of its "body" function
    /// (inverting cells have their fastest transition driven by the output
    /// stage directly).
    pub fn is_inverting(&self) -> bool {
        matches!(
            self,
            LogicFunction::Inv
                | LogicFunction::Nand
                | LogicFunction::Nor
                | LogicFunction::Xnor
                | LogicFunction::Aoi21
                | LogicFunction::Oai21
                | LogicFunction::Aoi22
                | LogicFunction::Oai22
        )
    }

    /// The valid input arities for this function.
    pub fn arity_range(&self) -> std::ops::RangeInclusive<usize> {
        match self {
            LogicFunction::Buf | LogicFunction::Inv => 1..=1,
            LogicFunction::And | LogicFunction::Nand | LogicFunction::Or | LogicFunction::Nor => {
                2..=4
            }
            LogicFunction::Xor | LogicFunction::Xnor => 2..=2,
            LogicFunction::Aoi21 | LogicFunction::Oai21 | LogicFunction::Mux2 => 3..=3,
            LogicFunction::Aoi22 | LogicFunction::Oai22 => 4..=4,
        }
    }

    /// The base name used in cell-type identifiers (`NAND` in `NAND2_X1`).
    pub fn base_name(&self) -> &'static str {
        match self {
            LogicFunction::Buf => "BUF",
            LogicFunction::Inv => "INV",
            LogicFunction::And => "AND",
            LogicFunction::Nand => "NAND",
            LogicFunction::Or => "OR",
            LogicFunction::Nor => "NOR",
            LogicFunction::Xor => "XOR",
            LogicFunction::Xnor => "XNOR",
            LogicFunction::Aoi21 => "AOI21",
            LogicFunction::Oai21 => "OAI21",
            LogicFunction::Aoi22 => "AOI22",
            LogicFunction::Oai22 => "OAI22",
            LogicFunction::Mux2 => "MUX2",
        }
    }

    /// All functions in the synthetic library.
    pub fn all() -> &'static [LogicFunction] {
        &[
            LogicFunction::Buf,
            LogicFunction::Inv,
            LogicFunction::And,
            LogicFunction::Nand,
            LogicFunction::Or,
            LogicFunction::Nor,
            LogicFunction::Xor,
            LogicFunction::Xnor,
            LogicFunction::Aoi21,
            LogicFunction::Oai21,
            LogicFunction::Aoi22,
            LogicFunction::Oai22,
            LogicFunction::Mux2,
        ]
    }
}

/// Output drive strength of a cell (transistor width multiplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DriveStrength {
    /// Unit drive.
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
    /// Octuple drive.
    X8,
}

impl DriveStrength {
    /// The width multiplier relative to X1.
    pub fn factor(&self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
            DriveStrength::X8 => 8.0,
        }
    }

    /// All strengths in the synthetic library.
    pub fn all() -> &'static [DriveStrength] {
        &[
            DriveStrength::X1,
            DriveStrength::X2,
            DriveStrength::X4,
            DriveStrength::X8,
        ]
    }

    /// The `Xn` suffix used in cell names.
    pub fn suffix(&self) -> &'static str {
        match self {
            DriveStrength::X1 => "X1",
            DriveStrength::X2 => "X2",
            DriveStrength::X4 => "X4",
            DriveStrength::X8 => "X8",
        }
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A concrete cell type: function, input count and drive strength.
///
/// # Example
///
/// ```
/// use avfs_netlist::{CellKind, LogicFunction, DriveStrength};
///
/// let kind: CellKind = "NAND3_X2".parse()?;
/// assert_eq!(kind.function(), LogicFunction::Nand);
/// assert_eq!(kind.num_inputs(), 3);
/// assert_eq!(kind.drive(), DriveStrength::X2);
/// assert_eq!(kind.to_string(), "NAND3_X2");
/// # Ok::<(), avfs_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKind {
    function: LogicFunction,
    num_inputs: u8,
    drive: DriveStrength,
}

impl CellKind {
    /// Most input pins any cell has (the widest
    /// [`LogicFunction::arity_range`]): what bounds a
    /// [`CellKind::truth_table`] to sixteen rows.
    pub const MAX_INPUTS: usize = 4;

    /// Creates a cell kind, validating the arity against the function.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `num_inputs` is invalid for
    /// `function`.
    pub fn new(
        function: LogicFunction,
        num_inputs: usize,
        drive: DriveStrength,
    ) -> Result<Self, NetlistError> {
        if !function.arity_range().contains(&num_inputs) {
            return Err(NetlistError::ArityMismatch {
                gate: String::new(),
                cell: function.base_name().to_owned(),
                expected: *function.arity_range().start(),
                got: num_inputs,
            });
        }
        Ok(CellKind {
            function,
            num_inputs: num_inputs as u8,
            drive,
        })
    }

    /// The Boolean function.
    pub fn function(&self) -> LogicFunction {
        self.function
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Output drive strength.
    pub fn drive(&self) -> DriveStrength {
        self.drive
    }

    /// Evaluates the cell's function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "cell {self} evaluated with wrong input count"
        );
        self.function.eval(inputs)
    }

    /// The cell's function as a truth table: bit `r` is [`CellKind::eval`]
    /// on the input row whose pin `p` carries bit `p` of `r`. Derived by
    /// enumerating `eval`, so the two cannot disagree; sixteen bits cover
    /// every row because no cell has more than
    /// [`CellKind::MAX_INPUTS`] pins.
    pub fn truth_table(&self) -> u16 {
        let pins = self.num_inputs();
        assert!(
            pins <= Self::MAX_INPUTS,
            "cell {self} has more than {} inputs",
            Self::MAX_INPUTS
        );
        let mut row = [false; Self::MAX_INPUTS];
        (0..1u16 << pins).fold(0, |table, r| {
            for (p, value) in row.iter_mut().enumerate() {
                *value = r >> p & 1 == 1;
            }
            table | u16::from(self.eval(&row[..pins])) << r
        })
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = self.function.base_name();
        // Fixed-arity names already encode the arity (XOR2, AOI21, MUX2).
        match self.function {
            LogicFunction::Buf | LogicFunction::Inv => {
                write!(f, "{base}_{}", self.drive)
            }
            LogicFunction::And | LogicFunction::Nand | LogicFunction::Or | LogicFunction::Nor => {
                write!(f, "{base}{}_{}", self.num_inputs, self.drive)
            }
            LogicFunction::Xor | LogicFunction::Xnor => write!(f, "{base}2_{}", self.drive),
            _ => write!(f, "{base}_{}", self.drive),
        }
    }
}

impl FromStr for CellKind {
    type Err = NetlistError;

    /// Parses names like `NAND2_X1`, `INV_X4`, `AOI21_X2`, `MUX2_X1`.
    fn from_str(s: &str) -> Result<Self, NetlistError> {
        let unknown = || NetlistError::UnknownCell { cell: s.to_owned() };
        let (head, drive_str) = s.rsplit_once('_').ok_or_else(unknown)?;
        let drive = match drive_str {
            "X1" => DriveStrength::X1,
            "X2" => DriveStrength::X2,
            "X4" => DriveStrength::X4,
            "X8" => DriveStrength::X8,
            _ => return Err(unknown()),
        };
        // Fixed-arity names first (their digits are part of the base name).
        for (name, function, arity) in [
            ("XOR2", LogicFunction::Xor, 2usize),
            ("XNOR2", LogicFunction::Xnor, 2),
            ("AOI21", LogicFunction::Aoi21, 3),
            ("OAI21", LogicFunction::Oai21, 3),
            ("AOI22", LogicFunction::Aoi22, 4),
            ("OAI22", LogicFunction::Oai22, 4),
            ("MUX2", LogicFunction::Mux2, 3),
            ("BUF", LogicFunction::Buf, 1),
            ("INV", LogicFunction::Inv, 1),
        ] {
            if head == name {
                return CellKind::new(function, arity, drive).map_err(|_| unknown());
            }
        }
        // Variable-arity names: base + digits.
        let split = head
            .find(|ch: char| ch.is_ascii_digit())
            .ok_or_else(unknown)?;
        let (base, digits) = head.split_at(split);
        let arity: usize = digits.parse().map_err(|_| unknown())?;
        let function = match base {
            "AND" => LogicFunction::And,
            "NAND" => LogicFunction::Nand,
            "OR" => LogicFunction::Or,
            "NOR" => LogicFunction::Nor,
            _ => return Err(unknown()),
        };
        CellKind::new(function, arity, drive).map_err(|_| unknown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn truth_tables_two_input() {
        let cases: [(LogicFunction, [bool; 4]); 6] = [
            (LogicFunction::And, [false, false, false, true]),
            (LogicFunction::Nand, [true, true, true, false]),
            (LogicFunction::Or, [false, true, true, true]),
            (LogicFunction::Nor, [true, false, false, false]),
            (LogicFunction::Xor, [false, true, true, false]),
            (LogicFunction::Xnor, [true, false, false, true]),
        ];
        for (func, expect) in cases {
            for (k, &e) in expect.iter().enumerate() {
                let a = k & 1 != 0;
                let b = k & 2 != 0;
                assert_eq!(func.eval(&[a, b]), e, "{func:?}({a},{b})");
            }
        }
    }

    #[test]
    fn truth_tables_unary() {
        assert!(LogicFunction::Buf.eval(&[true]));
        assert!(!LogicFunction::Buf.eval(&[false]));
        assert!(!LogicFunction::Inv.eval(&[true]));
        assert!(LogicFunction::Inv.eval(&[false]));
    }

    #[test]
    fn truth_tables_complex() {
        // AOI21: !((a&b)|c)
        assert!(LogicFunction::Aoi21.eval(&[false, false, false]));
        assert!(!LogicFunction::Aoi21.eval(&[true, true, false]));
        assert!(!LogicFunction::Aoi21.eval(&[false, false, true]));
        // OAI21: !((a|b)&c)
        assert!(LogicFunction::Oai21.eval(&[false, false, true]));
        assert!(!LogicFunction::Oai21.eval(&[true, false, true]));
        assert!(LogicFunction::Oai21.eval(&[true, true, false]));
        // AOI22
        assert!(!LogicFunction::Aoi22.eval(&[true, true, false, false]));
        assert!(!LogicFunction::Aoi22.eval(&[false, false, true, true]));
        assert!(LogicFunction::Aoi22.eval(&[true, false, false, true]));
        // OAI22
        assert!(!LogicFunction::Oai22.eval(&[true, false, false, true]));
        assert!(LogicFunction::Oai22.eval(&[false, false, true, true]));
        // MUX2: s selects
        assert!(!LogicFunction::Mux2.eval(&[false, true, false]));
        assert!(LogicFunction::Mux2.eval(&[false, true, true]));
    }

    #[test]
    fn nary_gates() {
        assert!(LogicFunction::And.eval(&[true, true, true]));
        assert!(!LogicFunction::And.eval(&[true, false, true]));
        assert!(!LogicFunction::Nor.eval(&[false, false, true, false]));
        assert!(LogicFunction::Nor.eval(&[false, false, false, false]));
    }

    #[test]
    fn inverting_classification() {
        assert!(LogicFunction::Nand.is_inverting());
        assert!(LogicFunction::Inv.is_inverting());
        assert!(!LogicFunction::And.is_inverting());
        assert!(!LogicFunction::Buf.is_inverting());
        assert!(!LogicFunction::Mux2.is_inverting());
    }

    #[test]
    fn kind_validation() {
        assert!(CellKind::new(LogicFunction::Nand, 2, DriveStrength::X1).is_ok());
        assert!(CellKind::new(LogicFunction::Nand, 4, DriveStrength::X1).is_ok());
        assert!(CellKind::new(LogicFunction::Nand, 5, DriveStrength::X1).is_err());
        assert!(CellKind::new(LogicFunction::Inv, 2, DriveStrength::X1).is_err());
        assert!(CellKind::new(LogicFunction::Mux2, 3, DriveStrength::X8).is_ok());
    }

    #[test]
    fn name_roundtrip_all_kinds() {
        for &f in LogicFunction::all() {
            for arity in f.arity_range() {
                for &d in DriveStrength::all() {
                    let kind = CellKind::new(f, arity, d).unwrap();
                    let name = kind.to_string();
                    let parsed: CellKind = name.parse().unwrap_or_else(|e| {
                        panic!("failed to re-parse `{name}`: {e}");
                    });
                    assert_eq!(parsed, kind, "roundtrip of `{name}`");
                }
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "NAND2", "NAND2_X3", "FOO2_X1", "NAND_X1", "NAND9_X1", "X1_NAND2",
        ] {
            assert!(bad.parse::<CellKind>().is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn drive_factors() {
        assert_eq!(DriveStrength::X1.factor(), 1.0);
        assert_eq!(DriveStrength::X8.factor(), 8.0);
        assert!(DriveStrength::X2 < DriveStrength::X4);
    }

    #[test]
    fn eval_lanes_matches_scalar_for_every_function_and_arity() {
        // Deterministic pseudo-random lane words per input.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for &f in LogicFunction::all() {
            for arity in f.arity_range() {
                let words: Vec<u64> = (0..arity).map(|_| next()).collect();
                let packed = f.eval_lanes(&words);
                for lane in 0..64 {
                    let bits: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
                    assert_eq!(
                        packed >> lane & 1 == 1,
                        f.eval(&bits),
                        "{f:?}/{arity} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_kind_eval_checks_arity() {
        let kind = CellKind::new(LogicFunction::Nand, 3, DriveStrength::X1).unwrap();
        assert!(kind.eval(&[true, true, false]));
        assert!(!kind.eval(&[true, true, true]));
        let r = std::panic::catch_unwind(|| kind.eval(&[false, false]));
        assert!(r.is_err(), "wrong input count must panic");
    }

    proptest! {
        #[test]
        fn demorgan_duality(a in any::<bool>(), b in any::<bool>()) {
            // NAND(a,b) == OR(!a,!b); NOR(a,b) == AND(!a,!b)
            prop_assert_eq!(
                LogicFunction::Nand.eval(&[a, b]),
                LogicFunction::Or.eval(&[!a, !b])
            );
            prop_assert_eq!(
                LogicFunction::Nor.eval(&[a, b]),
                LogicFunction::And.eval(&[!a, !b])
            );
        }

        #[test]
        fn aoi_oai_are_complements_of_bodies(
            a in any::<bool>(), b in any::<bool>(),
            c in any::<bool>(), d in any::<bool>(),
        ) {
            prop_assert_eq!(
                LogicFunction::Aoi22.eval(&[a, b, c, d]),
                !((a && b) || (c && d))
            );
            prop_assert_eq!(
                LogicFunction::Oai22.eval(&[a, b, c, d]),
                !((a || b) && (c || d))
            );
        }
    }
}
