//! SDF 3.0 subset: `(DELAYFILE …)` with absolute `IOPATH` delays.
//!
//! Supported constructs (everything a synthesized-netlist timing flow
//! emits for combinational cells):
//!
//! ```text
//! (DELAYFILE
//!   (SDFVERSION "3.0")
//!   (DESIGN "c17")
//!   (TIMESCALE 1ps)
//!   (CELL (CELLTYPE "NAND2_X1")
//!     (INSTANCE g10)
//!     (DELAY (ABSOLUTE
//!       (IOPATH A1 ZN (12.5:12.5:12.5) (14.0:14.0:14.0))
//!       (IOPATH A2 ZN (13.0) (15.1))))))
//! ```
//!
//! Delay triples are `min:typ:max`; the typical value is used. Unknown
//! header entries are skipped. Times are picoseconds.

use crate::SdfError;
use avfs_delay::TimingAnnotation;
use avfs_netlist::{Netlist, NodeKind};
use avfs_waveform::PinDelays;
use std::fmt::Write as _;

/// Serializes a netlist's annotation as SDF text.
///
/// One `(CELL …)` per gate instance with one `IOPATH` per input pin, rise
/// and fall triples (degenerate `t:t:t`). Each delay is written in the
/// shortest decimal form that parses back to the same `f64`, so
/// [`parse_sdf`] recovers the annotation's delays bit for bit.
pub fn write_sdf(netlist: &Netlist, annotation: &TimingAnnotation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "(DELAYFILE");
    let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
    let _ = writeln!(out, "  (DESIGN \"{}\")", netlist.name());
    let _ = writeln!(out, "  (TIMESCALE 1ps)");
    for (id, node) in netlist.iter() {
        if let NodeKind::Gate(_) = node.kind() {
            let cell = netlist.cell_of(id).expect("gate has a cell");
            let _ = writeln!(out, "  (CELL (CELLTYPE \"{}\")", cell.name());
            let _ = writeln!(out, "    (INSTANCE {})", node.name());
            let _ = writeln!(out, "    (DELAY (ABSOLUTE");
            for (pin_idx, pin) in cell.input_pins().iter().enumerate() {
                let d = annotation.pin_delays(id, pin_idx);
                let _ = writeln!(
                    out,
                    "      (IOPATH {} {} ({r}:{r}:{r}) ({f}:{f}:{f}))",
                    pin.name,
                    cell.output_pin(),
                    r = d.rise,
                    f = d.fall,
                );
            }
            let _ = writeln!(out, "    ))");
            let _ = writeln!(out, "  )");
        }
    }
    let _ = writeln!(out, ")");
    out
}

/// Parses SDF text and produces an annotation for `netlist`.
///
/// Pins and instances are resolved against the netlist; delays not
/// mentioned in the file remain zero. Loads are initialized from
/// [`Netlist::load_caps_ff`] (override them from SPEF afterwards).
///
/// # Errors
///
/// * [`SdfError::Parse`] for malformed text,
/// * [`SdfError::UnknownInstance`] / [`SdfError::UnknownPin`] for dangling
///   references,
/// * [`SdfError::CellTypeMismatch`] if the recorded `CELLTYPE` disagrees
///   with the netlist.
pub fn parse_sdf(netlist: &Netlist, text: &str) -> Result<TimingAnnotation, SdfError> {
    let sexp = parse_sexp(text)?;
    let mut annotation = TimingAnnotation::zero(netlist);

    let Sexp::List(top, _) = &sexp else {
        return Err(SdfError::Parse {
            line: 1,
            message: "expected a top-level list".to_owned(),
        });
    };
    if !matches!(top.first(), Some(Sexp::Atom(kw, _)) if kw == "DELAYFILE") {
        return Err(SdfError::Parse {
            line: 1,
            message: "expected (DELAYFILE …)".to_owned(),
        });
    }

    for entry in &top[1..] {
        let Sexp::List(items, line) = entry else {
            continue;
        };
        let Some(Sexp::Atom(kw, _)) = items.first() else {
            continue;
        };
        if kw != "CELL" {
            continue; // header entries: SDFVERSION, DESIGN, TIMESCALE, …
        }
        parse_cell(netlist, &mut annotation, items, *line)?;
    }
    Ok(annotation)
}

fn parse_cell(
    netlist: &Netlist,
    annotation: &mut TimingAnnotation,
    items: &[Sexp],
    line: usize,
) -> Result<(), SdfError> {
    let mut celltype: Option<String> = None;
    let mut instance: Option<String> = None;
    let mut iopaths: Vec<(String, PinDelaysPartial, usize)> = Vec::new();

    for item in &items[1..] {
        let Sexp::List(sub, sub_line) = item else {
            continue;
        };
        match sub.first() {
            Some(Sexp::Atom(kw, _)) if kw == "CELLTYPE" => {
                if let Some(Sexp::Atom(name, _)) = sub.get(1) {
                    celltype = Some(unquote(name));
                }
            }
            Some(Sexp::Atom(kw, _)) if kw == "INSTANCE" => {
                if let Some(Sexp::Atom(name, _)) = sub.get(1) {
                    instance = Some(name.clone());
                }
            }
            Some(Sexp::Atom(kw, _)) if kw == "DELAY" => {
                for abs in &sub[1..] {
                    let Sexp::List(abs_items, _) = abs else {
                        continue;
                    };
                    if !matches!(abs_items.first(), Some(Sexp::Atom(a, _)) if a == "ABSOLUTE") {
                        continue;
                    }
                    for io in &abs_items[1..] {
                        let Sexp::List(io_items, io_line) = io else {
                            continue;
                        };
                        if !matches!(io_items.first(), Some(Sexp::Atom(a, _)) if a == "IOPATH") {
                            continue;
                        }
                        let (pin, delays) = parse_iopath(io_items, *io_line)?;
                        iopaths.push((pin, delays, *io_line));
                    }
                }
            }
            _ => {}
        }
        let _ = sub_line;
    }

    let instance = instance.ok_or(SdfError::Parse {
        line,
        message: "CELL without INSTANCE".to_owned(),
    })?;
    let node = netlist
        .find(&instance)
        .ok_or_else(|| SdfError::UnknownInstance {
            instance: instance.clone(),
        })?;
    let cell = netlist
        .cell_of(node)
        .ok_or_else(|| SdfError::UnknownInstance {
            instance: instance.clone(),
        })?;
    if let Some(ct) = celltype {
        if ct != cell.name() {
            return Err(SdfError::CellTypeMismatch {
                instance,
                in_file: ct,
                in_netlist: cell.name().to_owned(),
            });
        }
    }
    for (pin_name, delays, _io_line) in iopaths {
        let pin_idx = cell
            .input_pins()
            .iter()
            .position(|p| p.name == pin_name)
            .ok_or_else(|| SdfError::UnknownPin {
                instance: instance.clone(),
                pin: pin_name.clone(),
            })?;
        annotation.node_delays_mut(node)[pin_idx] = PinDelays {
            rise: delays.rise,
            fall: delays.fall,
        };
    }
    Ok(())
}

struct PinDelaysPartial {
    rise: f64,
    fall: f64,
}

fn parse_iopath(items: &[Sexp], line: usize) -> Result<(String, PinDelaysPartial), SdfError> {
    // (IOPATH <from> <to> (<rise>) (<fall>))
    let from = match items.get(1) {
        Some(Sexp::Atom(a, _)) => a.clone(),
        _ => {
            return Err(SdfError::Parse {
                line,
                message: "IOPATH missing source pin".to_owned(),
            })
        }
    };
    let _to = match items.get(2) {
        Some(Sexp::Atom(a, _)) => a.clone(),
        _ => {
            return Err(SdfError::Parse {
                line,
                message: "IOPATH missing destination pin".to_owned(),
            })
        }
    };
    let rise = parse_delay_value(items.get(3), line)?;
    let fall = parse_delay_value(items.get(4), line)?;
    Ok((from, PinDelaysPartial { rise, fall }))
}

/// Parses a delay list `(<v>)` or `(<min>:<typ>:<max>)`, returning the
/// typical value.
fn parse_delay_value(sexp: Option<&Sexp>, line: usize) -> Result<f64, SdfError> {
    let bad = |message: String| SdfError::Parse { line, message };
    let Some(Sexp::List(items, _)) = sexp else {
        return Err(bad("IOPATH delay must be a parenthesized value".to_owned()));
    };
    let Some(Sexp::Atom(text, _)) = items.first() else {
        return Err(bad("empty delay list".to_owned()));
    };
    let parts: Vec<&str> = text.split(':').collect();
    let chosen = match parts.len() {
        1 => parts[0],
        3 => parts[1],
        _ => return Err(bad(format!("malformed delay value `{text}`"))),
    };
    chosen
        .parse::<f64>()
        .map_err(|_| bad(format!("invalid number `{chosen}`")))
}

fn unquote(s: &str) -> String {
    s.trim_matches('"').to_owned()
}

/// Minimal s-expression tree with line tracking.
#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Atom(String, usize),
    List(Vec<Sexp>, usize),
}

fn parse_sexp(text: &str) -> Result<Sexp, SdfError> {
    let mut stack: Vec<(Vec<Sexp>, usize)> = Vec::new();
    let mut root: Option<Sexp> = None;
    let mut atom = String::new();
    let mut atom_line = 0usize;
    let mut in_string = false;

    let flush = |atom: &mut String,
                 atom_line: usize,
                 stack: &mut Vec<(Vec<Sexp>, usize)>,
                 root: &mut Option<Sexp>|
     -> Result<(), SdfError> {
        if atom.is_empty() {
            return Ok(());
        }
        let node = Sexp::Atom(std::mem::take(atom), atom_line);
        match stack.last_mut() {
            Some((items, _)) => items.push(node),
            None => {
                if root.is_some() {
                    return Err(SdfError::Parse {
                        line: atom_line,
                        message: "content after top-level list".to_owned(),
                    });
                }
                *root = Some(node);
            }
        }
        Ok(())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // SDF comments: `//` to end of line.
        let code = if in_string {
            raw
        } else {
            raw.split("//").next().unwrap_or("")
        };
        for ch in code.chars() {
            if in_string {
                atom.push(ch);
                if ch == '"' {
                    in_string = false;
                }
                continue;
            }
            match ch {
                '(' => {
                    flush(&mut atom, atom_line, &mut stack, &mut root)?;
                    stack.push((Vec::new(), line));
                }
                ')' => {
                    flush(&mut atom, atom_line, &mut stack, &mut root)?;
                    let (items, open_line) = stack.pop().ok_or(SdfError::Parse {
                        line,
                        message: "unbalanced `)`".to_owned(),
                    })?;
                    let node = Sexp::List(items, open_line);
                    match stack.last_mut() {
                        Some((parent, _)) => parent.push(node),
                        None => {
                            if root.is_some() {
                                return Err(SdfError::Parse {
                                    line,
                                    message: "multiple top-level lists".to_owned(),
                                });
                            }
                            root = Some(node);
                        }
                    }
                }
                '"' => {
                    if atom.is_empty() {
                        atom_line = line;
                    }
                    atom.push('"');
                    in_string = true;
                }
                c if c.is_whitespace() => {
                    flush(&mut atom, atom_line, &mut stack, &mut root)?;
                }
                c => {
                    if atom.is_empty() {
                        atom_line = line;
                    }
                    atom.push(c);
                }
            }
        }
        if !in_string {
            flush(&mut atom, atom_line, &mut stack, &mut root)?;
        }
    }
    if in_string {
        return Err(SdfError::Parse {
            line: text.lines().count(),
            message: "unterminated string".to_owned(),
        });
    }
    if let Some((_, open_line)) = stack.last() {
        return Err(SdfError::Parse {
            line: *open_line,
            message: "unbalanced `(`".to_owned(),
        });
    }
    root.ok_or(SdfError::Parse {
        line: 1,
        message: "empty file".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::bench::{parse_bench, BenchOptions, C17_BENCH};
    use avfs_netlist::{CellLibrary, NetlistBuilder};
    use std::sync::Arc;

    fn c17() -> Netlist {
        let lib = CellLibrary::nangate15_like();
        parse_bench("c17", C17_BENCH, &lib, &BenchOptions::default()).unwrap()
    }

    fn filled_annotation(netlist: &Netlist) -> TimingAnnotation {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                let n = node.fanin().len();
                for pin in 0..n {
                    ann.node_delays_mut(id)[pin] = PinDelays {
                        rise: 10.0 + id.index() as f64 + 0.1 * pin as f64,
                        fall: 8.0 + id.index() as f64 + 0.1 * pin as f64,
                    };
                }
            }
        }
        ann
    }

    #[test]
    fn roundtrip_preserves_delays() {
        let n = c17();
        let ann = filled_annotation(&n);
        let text = write_sdf(&n, &ann);
        assert!(text.contains("(DELAYFILE"));
        assert!(text.contains("IOPATH"));
        let parsed = parse_sdf(&n, &text).unwrap();
        for (id, node) in n.iter() {
            for pin in 0..node.fanin().len() {
                if matches!(node.kind(), NodeKind::Gate(_)) {
                    let a = ann.pin_delays(id, pin);
                    let b = parsed.pin_delays(id, pin);
                    assert!((a.rise - b.rise).abs() < 1e-6);
                    assert!((a.fall - b.fall).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn parses_single_value_and_triple() {
        let n = c17();
        let text = r#"
(DELAYFILE
  (SDFVERSION "3.0")
  (CELL (CELLTYPE "NAND2_X1")
    (INSTANCE 10)
    (DELAY (ABSOLUTE
      (IOPATH A1 ZN (1.5:2.5:3.5) (4.0))))))
"#;
        let ann = parse_sdf(&n, text).unwrap();
        let g = n.find("10").unwrap();
        assert_eq!(ann.pin_delays(g, 0).rise, 2.5); // typ of the triple
        assert_eq!(ann.pin_delays(g, 0).fall, 4.0);
        // Unmentioned pins stay zero.
        assert_eq!(ann.pin_delays(g, 1).rise, 0.0);
    }

    #[test]
    fn unknown_instance_rejected() {
        let n = c17();
        let text =
            r#"(DELAYFILE (CELL (INSTANCE nope) (DELAY (ABSOLUTE (IOPATH A1 ZN (1) (1))))))"#;
        assert!(matches!(
            parse_sdf(&n, text),
            Err(SdfError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn unknown_pin_rejected() {
        let n = c17();
        let text = r#"(DELAYFILE (CELL (INSTANCE 10) (DELAY (ABSOLUTE (IOPATH Q ZN (1) (1))))))"#;
        assert!(matches!(
            parse_sdf(&n, text),
            Err(SdfError::UnknownPin { .. })
        ));
    }

    #[test]
    fn celltype_mismatch_rejected() {
        let n = c17();
        let text = r#"(DELAYFILE (CELL (CELLTYPE "INV_X1") (INSTANCE 10) (DELAY (ABSOLUTE (IOPATH A ZN (1) (1))))))"#;
        assert!(matches!(
            parse_sdf(&n, text),
            Err(SdfError::CellTypeMismatch { .. })
        ));
    }

    #[test]
    fn malformed_files_rejected() {
        let n = c17();
        for bad in [
            "",
            "(DELAYFILE",
            "(DELAYFILE))",
            "(NOTDELAY)",
            r#"(DELAYFILE (CELL (INSTANCE 10) (DELAY (ABSOLUTE (IOPATH A1 ZN (1:2) (1))))))"#,
            r#"(DELAYFILE (CELL (INSTANCE 10) (DELAY (ABSOLUTE (IOPATH A1 ZN xyz (1))))))"#,
        ] {
            assert!(parse_sdf(&n, bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn comments_ignored() {
        let n = c17();
        let text = r#"
(DELAYFILE // header comment
  (CELL (INSTANCE 10) // the first NAND
    (DELAY (ABSOLUTE (IOPATH A1 ZN (7) (9))))))
"#;
        let ann = parse_sdf(&n, text).unwrap();
        assert_eq!(ann.pin_delays(n.find("10").unwrap(), 0).fall, 9.0);
    }

    #[test]
    fn roundtrip_random_delays_property() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let n = c17();
        let mut runner = TestRunner::new(Config::with_cases(64));
        runner
            .run(&proptest::collection::vec(0.0f64..1e4, 13 * 2), |raw| {
                let mut ann = TimingAnnotation::zero(&n);
                let mut k = 0;
                for (id, node) in n.iter() {
                    if matches!(node.kind(), NodeKind::Gate(_)) {
                        for pin in 0..node.fanin().len() {
                            ann.node_delays_mut(id)[pin] = PinDelays {
                                rise: raw[k % raw.len()],
                                fall: raw[(k + 1) % raw.len()],
                            };
                            k += 2;
                        }
                    }
                }
                let text = write_sdf(&n, &ann);
                let parsed = parse_sdf(&n, &text).expect("own output parses");
                for (id, node) in n.iter() {
                    if matches!(node.kind(), NodeKind::Gate(_)) {
                        for pin in 0..node.fanin().len() {
                            let a = ann.pin_delays(id, pin);
                            let b = parsed.pin_delays(id, pin);
                            prop_assert_eq!(a, b);
                        }
                    }
                }
                Ok(())
            })
            .expect("property holds");
    }

    #[test]
    fn write_skips_non_gates() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("t", &Arc::clone(&lib));
        let a = b.add_input("a").unwrap();
        let g = b.add_gate("g", "BUF_X1", &[a]).unwrap();
        b.add_output("y", g).unwrap();
        let n = b.finish().unwrap();
        let text = write_sdf(&n, &TimingAnnotation::zero(&n));
        // Exactly one CELL entry (the buffer), none for ports.
        assert_eq!(text.matches("(INSTANCE").count(), 1);
    }
}
