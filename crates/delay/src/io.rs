//! Text serialization of kernel packages.
//!
//! A deliberately simple line-oriented format (no external serialization
//! dependencies) with full `f64` round-trip fidelity — the paper's
//! Sec. III.D warns that "the polynomial approximation is highly prone to
//! deviations in the coefficients", so values are written in hexadecimal
//! bit-exact form with a human-readable decimal alongside.
//!
//! ```text
//! avfs-kernels v1
//! space 0.55 1.1 0.5 128 0.8
//! order 3
//! cell NAND2_X1 pins 2
//! pin 0
//! rise <16 hex words>
//! fall <16 hex words>
//! loads <9 hex words>
//! nominal-rise <9 hex words>
//! nominal-fall <9 hex words>
//! …
//! end
//! ```

use crate::characterize::{CellKernelData, KernelPackage, PinKernelData};
use crate::DelayError;
use avfs_netlist::CellKind;
use std::fmt::Write as _;

/// Serializes a package to text.
pub fn write_kernels(package: &KernelPackage) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "avfs-kernels v1");
    let (v_min, v_max, c_min, c_max, v_nom) = package.space;
    let _ = writeln!(out, "space {v_min} {v_max} {c_min} {c_max} {v_nom}");
    let _ = writeln!(out, "order {}", package.order);
    for cell in &package.cells {
        let _ = writeln!(out, "cell {} pins {}", cell.cell, cell.pins.len());
        for (p, pin) in cell.pins.iter().enumerate() {
            let _ = writeln!(out, "pin {p}");
            let _ = writeln!(out, "rise {}", hex_floats(&pin.rise_coeffs));
            let _ = writeln!(out, "fall {}", hex_floats(&pin.fall_coeffs));
            let _ = writeln!(out, "loads {}", hex_floats(&pin.loads_ff));
            let _ = writeln!(out, "nominal-rise {}", hex_floats(&pin.nominal_rise_ps));
            let _ = writeln!(out, "nominal-fall {}", hex_floats(&pin.nominal_fall_ps));
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// Parses a package from text.
///
/// # Errors
///
/// Returns [`DelayError::Characterization`] (with a line reference in the
/// message) for any structural or numeric problem.
pub fn read_kernels(text: &str) -> Result<KernelPackage, DelayError> {
    let err = |line: usize, message: String| DelayError::Characterization {
        cell: String::new(),
        message: format!("line {line}: {message}"),
    };
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    let (ln, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty kernel file".to_owned()))?;
    if header != "avfs-kernels v1" {
        return Err(err(ln, format!("bad header `{header}`")));
    }

    let mut space = None;
    let mut order = None;
    let mut cells: Vec<CellKernelData> = Vec::new();
    let mut saw_end = false;

    while let Some((ln, line)) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("space") => {
                let vals: Vec<f64> = words
                    .map(|w| w.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| err(ln, format!("bad space value: {e}")))?;
                if vals.len() != 5 {
                    return Err(err(ln, "space needs five values".to_owned()));
                }
                space = Some((vals[0], vals[1], vals[2], vals[3], vals[4]));
            }
            Some("order") => {
                let n = words
                    .next()
                    .ok_or_else(|| err(ln, "order needs a value".to_owned()))?
                    .parse::<usize>()
                    .map_err(|e| err(ln, format!("bad order: {e}")))?;
                // A surface holds (order + 1)² coefficients.
                if n.checked_add(1).and_then(|w| w.checked_mul(w)).is_none() {
                    return Err(err(ln, format!("order {n} is too large")));
                }
                order = Some(n);
            }
            Some("cell") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(ln, "cell needs a name".to_owned()))?
                    .to_owned();
                if words.next() != Some("pins") {
                    return Err(err(ln, "expected `pins <count>`".to_owned()));
                }
                let pin_count: usize = words
                    .next()
                    .ok_or_else(|| err(ln, "missing pin count".to_owned()))?
                    .parse()
                    .map_err(|e| err(ln, format!("bad pin count: {e}")))?;
                if pin_count > CellKind::MAX_INPUTS {
                    return Err(err(
                        ln,
                        format!(
                            "pin count {pin_count} exceeds the {} inputs a cell can have",
                            CellKind::MAX_INPUTS
                        ),
                    ));
                }
                let mut pins = Vec::with_capacity(pin_count);
                for expect_pin in 0..pin_count {
                    let mut take = |keyword: &str| -> Result<Vec<f64>, DelayError> {
                        let (lno, l) = lines
                            .next()
                            .ok_or_else(|| err(ln, format!("truncated after `{name}`")))?;
                        let rest = l.strip_prefix(keyword).ok_or_else(|| {
                            err(lno, format!("expected `{keyword} …`, found `{l}`"))
                        })?;
                        parse_hex_floats(rest).map_err(|m| err(lno, m))
                    };
                    let pin_header = take("pin")?;
                    if pin_header.len() != 1 || pin_header[0] as usize != expect_pin {
                        return Err(err(ln, format!("expected `pin {expect_pin}`")));
                    }
                    pins.push(PinKernelData {
                        rise_coeffs: take("rise")?,
                        fall_coeffs: take("fall")?,
                        loads_ff: take("loads")?,
                        nominal_rise_ps: take("nominal-rise")?,
                        nominal_fall_ps: take("nominal-fall")?,
                    });
                }
                cells.push(CellKernelData { cell: name, pins });
            }
            Some("end") => {
                saw_end = true;
                break;
            }
            Some(other) => return Err(err(ln, format!("unknown directive `{other}`"))),
            None => continue,
        }
    }
    if !saw_end {
        return Err(err(0, "missing `end` terminator".to_owned()));
    }
    Ok(KernelPackage {
        space: space.ok_or_else(|| err(0, "missing `space`".to_owned()))?,
        order: order.ok_or_else(|| err(0, "missing `order`".to_owned()))?,
        cells,
    })
}

/// Bit-exact float list: `<hex-bits>` words (decimal only in comments).
fn hex_floats(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 17);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:016x}", v.to_bits());
    }
    out
}

fn parse_hex_floats(text: &str) -> Result<Vec<f64>, String> {
    text.split_whitespace()
        .map(|w| {
            // Accept both bit-exact hex and plain decimals (hand edits).
            if w.len() == 16 && w.bytes().all(|b| b.is_ascii_hexdigit()) {
                u64::from_str_radix(w, 16)
                    .map(f64::from_bits)
                    .map_err(|e| format!("bad hex float `{w}`: {e}"))
            } else {
                w.parse::<f64>()
                    .map_err(|e| format!("bad float `{w}`: {e}"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_library, CharacterizationConfig, CharacterizedLibrary};
    use crate::model::DelayModel;
    use crate::op::OperatingPoint;
    use avfs_netlist::library::Polarity;
    use avfs_netlist::CellLibrary;
    use avfs_spice::Technology;

    #[test]
    fn roundtrip_preserves_kernels_bit_exactly() {
        let lib = CellLibrary::nangate15_like();
        let ids = vec![lib.find("NAND2_X1").unwrap(), lib.find("INV_X2").unwrap()];
        let chars = characterize_library(
            &lib,
            &Technology::nm15(),
            &CharacterizationConfig::fast(),
            Some(&ids),
        )
        .unwrap();
        let package = chars.to_package(&lib);
        assert_eq!(package.cells.len(), 2);

        let text = write_kernels(&package);
        let parsed = read_kernels(&text).unwrap();
        assert_eq!(parsed, package);

        // The restored library evaluates identically.
        let restored = CharacterizedLibrary::from_package(&parsed, &lib).unwrap();
        for &(v, c) in &[(0.55, 0.5), (0.8, 4.0), (1.1, 128.0)] {
            let p = chars.space().normalize(OperatingPoint::new(v, c)).unwrap();
            for &id in &ids {
                for pol in Polarity::both() {
                    let a = chars.model().factor(id, 0, pol, p).unwrap();
                    let b = restored.model().factor(id, 0, pol, p).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "factor drift at ({v},{c})");
                }
            }
        }
        // Nominal curves restored too.
        let a = chars.nominal_curve(ids[0], 1, Polarity::Fall).unwrap();
        let b = restored.nominal_curve(ids[0], 1, Polarity::Fall).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_files() {
        for bad in [
            "",
            "wrong header\nend\n",
            "avfs-kernels v1\norder 3\nend\n", // missing space
            "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\nend\n", // missing order
            "avfs-kernels v1\nspace 1 2 3\norder 3\nend\n",
            "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\norder 3\ncell X pins 1\npin 0\nrise 1.0\n", // truncated
            "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\norder 3\nfrobnicate\nend\n",
            "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\norder 3\n", // no end
        ] {
            assert!(read_kernels(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn rejects_hostile_counts_without_allocating() {
        let head = "avfs-kernels v1\nspace 0.55 1.1 0.5 128 0.8\n";
        for bad in [
            "avfs-kernels v1\ncell X pins 18446744073709551615".to_owned(),
            format!("{head}order 3\ncell X pins 4000000000000\nend\n"),
            format!("{head}order 3\ncell X pins 5\nend\n"),
            format!("{head}order 18446744073709551615\nend\n"),
            format!("{head}order 4294967296\nend\n"),
        ] {
            assert!(
                matches!(read_kernels(&bad), Err(DelayError::Characterization { .. })),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn accepts_decimal_floats() {
        let text = "\
avfs-kernels v1
space 0.55 1.1 0.5 128 0.8
order 1
cell INV_X1 pins 1
pin 0
rise 0.1 0.2 0.3 0.4
fall 0.1 0.2 0.3 0.4
loads 0.5 2.0 128.0
nominal-rise 5.0 8.0 20.0
nominal-fall 6.0 9.0 22.0
end
";
        let package = read_kernels(text).unwrap();
        assert_eq!(package.order, 1);
        assert_eq!(
            package.cells[0].pins[0].rise_coeffs,
            vec![0.1, 0.2, 0.3, 0.4]
        );
        let lib = CellLibrary::nangate15_like();
        let restored = CharacterizedLibrary::from_package(&package, &lib).unwrap();
        assert_eq!(restored.order(), 1);
    }

    #[test]
    fn from_package_rejects_unknown_cell_and_bad_shapes() {
        let lib = CellLibrary::nangate15_like();
        let mut package = KernelPackage {
            space: (0.55, 1.1, 0.5, 128.0, 0.8),
            order: 1,
            cells: vec![CellKernelData {
                cell: "WIDGET_X1".to_owned(),
                pins: vec![],
            }],
        };
        assert!(CharacterizedLibrary::from_package(&package, &lib).is_err());

        package.cells[0].cell = "INV_X1".to_owned(); // zero pins vs one
        assert!(CharacterizedLibrary::from_package(&package, &lib).is_err());

        package.cells[0].pins = vec![PinKernelData {
            rise_coeffs: vec![0.0; 4],
            fall_coeffs: vec![0.0; 4],
            loads_ff: vec![1.0], // too short
            nominal_rise_ps: vec![1.0],
            nominal_fall_ps: vec![1.0],
        }];
        assert!(CharacterizedLibrary::from_package(&package, &lib).is_err());
    }
}
