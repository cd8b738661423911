//! ISCAS `.bench` netlist format parser and writer.
//!
//! The `.bench` dialect covers the ISCAS'85/'89 benchmark sets the paper
//! evaluates (s38417, s38584, …). Supported syntax:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G10 = NAND(G1, G3)
//! G11 = DFF(G10)        # optional, handled per `DffHandling`
//! ```
//!
//! The paper removes all sequential elements assuming full scan ("All
//! sequential elements were removed … and only the combinational logic
//! remained"). [`DffHandling::ScanChain`] performs exactly this
//! transformation: every DFF output becomes a pseudo-primary input and
//! every DFF input is observed by a pseudo-primary output.

use crate::graph::{Netlist, NetlistBuilder, NodeId, NodeKind};
use crate::library::CellLibrary;
use crate::NetlistError;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// How to treat `DFF` primitives during parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DffHandling {
    /// Full-scan transformation: DFF output → pseudo-PI, DFF input →
    /// pseudo-PO (the paper's preparation step).
    #[default]
    ScanChain,
    /// Reject netlists containing DFFs.
    Reject,
}

/// Options for [`parse_bench`].
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// DFF treatment.
    pub dff: DffHandling,
    /// Drive strength suffix used when mapping `.bench` primitives onto
    /// library cells (`X1` when empty).
    pub drive_suffix: String,
}

/// Parses `.bench` text into a [`Netlist`] over `library`.
///
/// Primitive names map to library cells as `NAND(a,b)` → `NAND2_X1` etc.;
/// `NOT` maps to `INV`, `BUFF`/`BUF` to `BUF`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnknownCell`] / [`NetlistError::UnknownSignal`] for
/// unresolvable references, and [`NetlistError::CombinationalCycle`] if the
/// combinational part is cyclic.
pub fn parse_bench(
    name: &str,
    text: &str,
    library: &Arc<CellLibrary>,
    options: &BenchOptions,
) -> Result<Netlist, NetlistError> {
    struct GateDef {
        line: usize,
        output: String,
        func: String,
        inputs: Vec<String>,
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<GateDef> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some(rest) = strip_call(stripped, "INPUT") {
            inputs.push(rest.map_err(|m| parse_err(line, m))?);
        } else if let Some(rest) = strip_call(stripped, "OUTPUT") {
            outputs.push(rest.map_err(|m| parse_err(line, m))?);
        } else if let Some((lhs, rhs)) = stripped.split_once('=') {
            let output = lhs.trim().to_owned();
            let rhs = rhs.trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| parse_err(line, format!("expected `func(args)` in `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(parse_err(line, format!("missing `)` in `{rhs}`")));
            }
            let func = rhs[..open].trim().to_ascii_uppercase();
            let args: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            if output.is_empty() || func.is_empty() || args.is_empty() {
                return Err(parse_err(line, format!("malformed gate `{stripped}`")));
            }
            gates.push(GateDef {
                line,
                output,
                func,
                inputs: args,
            });
        } else {
            return Err(parse_err(line, format!("unrecognized line `{stripped}`")));
        }
    }

    // Full-scan transform: DFFs become pseudo-PI/PO pairs.
    let mut pseudo_outputs: Vec<(String, String)> = Vec::new(); // (po name, source signal)
    let mut kept_gates = Vec::new();
    for g in gates {
        if g.func == "DFF" {
            match options.dff {
                DffHandling::Reject => {
                    return Err(parse_err(
                        g.line,
                        format!("sequential element `{}` not allowed", g.output),
                    ));
                }
                DffHandling::ScanChain => {
                    if g.inputs.len() != 1 {
                        return Err(parse_err(g.line, "DFF takes exactly one input".to_owned()));
                    }
                    inputs.push(g.output.clone());
                    pseudo_outputs.push((format!("{}_scan_out", g.output), g.inputs[0].clone()));
                }
            }
        } else {
            kept_gates.push(g);
        }
    }

    // Emit in dependency order (definitions may reference later signals).
    let mut builder = NetlistBuilder::new(name, library);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for pi in &inputs {
        let id = builder.add_input(pi.clone())?;
        ids.insert(pi.clone(), id);
    }

    let index_of: HashMap<&str, usize> = kept_gates
        .iter()
        .enumerate()
        .map(|(i, g)| (g.output.as_str(), i))
        .collect();
    // Iterative DFS emission with cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unvisited,
        OnStack,
        Done,
    }
    let mut marks = vec![Mark::Unvisited; kept_gates.len()];
    let drive_suffix = if options.drive_suffix.is_empty() {
        "X1"
    } else {
        &options.drive_suffix
    };
    for start in 0..kept_gates.len() {
        if marks[start] == Mark::Done {
            continue;
        }
        // Stack of (gate index, next fanin to examine).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::OnStack;
        while let Some(&(gi, next)) = stack.last() {
            let g = &kept_gates[gi];
            if next < g.inputs.len() {
                stack.last_mut().expect("stack non-empty").1 += 1;
                let dep = &g.inputs[next];
                if ids.contains_key(dep.as_str()) {
                    continue;
                }
                match index_of.get(dep.as_str()) {
                    Some(&di) => match marks[di] {
                        Mark::Unvisited => {
                            marks[di] = Mark::OnStack;
                            stack.push((di, 0));
                        }
                        Mark::OnStack => {
                            return Err(NetlistError::CombinationalCycle { node: dep.clone() });
                        }
                        Mark::Done => {}
                    },
                    None => {
                        return Err(NetlistError::UnknownSignal {
                            signal: dep.clone(),
                        });
                    }
                }
            } else {
                // All fanins resolved: emit the gate.
                let cell_name = map_primitive(&g.func, g.inputs.len(), drive_suffix)
                    .ok_or_else(|| parse_err(g.line, format!("unknown primitive `{}`", g.func)))?;
                let fanin: Vec<NodeId> = g.inputs.iter().map(|s| ids[s.as_str()]).collect();
                let id = builder.add_gate(g.output.clone(), &cell_name, &fanin)?;
                ids.insert(g.output.clone(), id);
                marks[gi] = Mark::Done;
                stack.pop();
            }
        }
    }

    for po in &outputs {
        let src = *ids
            .get(po.as_str())
            .ok_or_else(|| NetlistError::UnknownSignal { signal: po.clone() })?;
        builder.add_output(format!("{po}_po"), src)?;
    }
    for (po_name, src_name) in &pseudo_outputs {
        let src = *ids
            .get(src_name.as_str())
            .ok_or_else(|| NetlistError::UnknownSignal {
                signal: src_name.clone(),
            })?;
        builder.add_output(po_name.clone(), src)?;
    }
    builder.finish()
}

/// Serializes a netlist back to `.bench` text.
///
/// Cell types collapse back to primitives (`NAND2_X4` → `NAND`); drive
/// strengths are not representable in `.bench` and are lost. Complex cells
/// without a `.bench` primitive (AOI/OAI/MUX) are written with their full
/// cell-type name, which [`parse_bench`] does not accept — round-trips are
/// only guaranteed for primitive-compatible netlists.
pub fn write_bench(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "INPUT({})", netlist.node(pi).name());
    }
    for &po in netlist.outputs() {
        // A PO node observes its single fanin; .bench outputs name the
        // observed signal directly.
        let src = netlist.node(po).fanin()[0];
        let _ = writeln!(out, "OUTPUT({})", netlist.node(src).name());
    }
    for (id, node) in netlist.iter() {
        if let NodeKind::Gate(_) = node.kind() {
            let cell = netlist.cell_of(id).expect("gate has a cell");
            let func = match cell.kind().function() {
                crate::cell::LogicFunction::Buf => "BUFF".to_owned(),
                crate::cell::LogicFunction::Inv => "NOT".to_owned(),
                crate::cell::LogicFunction::And => "AND".to_owned(),
                crate::cell::LogicFunction::Nand => "NAND".to_owned(),
                crate::cell::LogicFunction::Or => "OR".to_owned(),
                crate::cell::LogicFunction::Nor => "NOR".to_owned(),
                crate::cell::LogicFunction::Xor => "XOR".to_owned(),
                crate::cell::LogicFunction::Xnor => "XNOR".to_owned(),
                _ => cell.name().to_owned(),
            };
            let args: Vec<&str> = node
                .fanin()
                .iter()
                .map(|&f| netlist.node(f).name())
                .collect();
            let _ = writeln!(out, "{} = {}({})", node.name(), func, args.join(", "));
        }
    }
    out
}

fn parse_err(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses `KEYWORD(arg)`; returns the inner argument.
fn strip_call(s: &str, keyword: &str) -> Option<Result<String, String>> {
    let rest = s.strip_prefix(keyword)?.trim_start();
    let rest = match rest.strip_prefix('(') {
        Some(r) => r,
        None => return Some(Err(format!("expected `(` after {keyword}"))),
    };
    match rest.strip_suffix(')') {
        Some(inner) if !inner.trim().is_empty() => Some(Ok(inner.trim().to_owned())),
        _ => Some(Err(format!("malformed {keyword} declaration"))),
    }
}

/// Maps a `.bench` primitive and arity onto a library cell name.
fn map_primitive(func: &str, arity: usize, drive: &str) -> Option<String> {
    let name = match (func, arity) {
        ("NOT", 1) => format!("INV_{drive}"),
        ("BUF" | "BUFF", 1) => format!("BUF_{drive}"),
        ("AND", 2..=4) => format!("AND{arity}_{drive}"),
        ("NAND", 2..=4) => format!("NAND{arity}_{drive}"),
        ("OR", 2..=4) => format!("OR{arity}_{drive}"),
        ("NOR", 2..=4) => format!("NOR{arity}_{drive}"),
        ("XOR", 2) => format!("XOR2_{drive}"),
        ("XNOR", 2) => format!("XNOR2_{drive}"),
        _ => return None,
    };
    Some(name)
}

/// The ISCAS'85 c17 benchmark, the canonical smallest example.
pub const C17_BENCH: &str = "\
# c17 (ISCAS'85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelize::Levelization;

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::nangate15_like()
    }

    #[test]
    fn parses_c17() {
        let n = parse_bench("c17", C17_BENCH, &lib(), &BenchOptions::default()).unwrap();
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.num_gates(), 6);
        assert_eq!(n.num_nodes(), 13);
        let lv = Levelization::of(&n).expect("acyclic");
        assert_eq!(lv.depth(), 5); // PI, 10/11, 16/19, 22/23, PO
    }

    #[test]
    fn out_of_order_definitions_resolve() {
        let text = "\
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = NAND(a, a2)
INPUT(a2)
";
        let n = parse_bench("ooo", text, &lib(), &BenchOptions::default()).unwrap();
        assert_eq!(n.num_gates(), 2);
        let y = n.find("y").unwrap();
        assert_eq!(n.cell_of(y).unwrap().name(), "INV_X1");
        // The parser emits definitions in dependency order, which the
        // one-pass levelization reads.
        assert!(n
            .iter()
            .all(|(id, node)| node.fanin().iter().all(|&f| f < id)));
        let levels: Vec<Vec<&str>> = Levelization::of(&n)
            .unwrap()
            .iter()
            .map(|level| level.iter().map(|&id| n.node(id).name()).collect())
            .collect();
        assert_eq!(
            levels,
            [vec!["a", "a2"], vec!["m"], vec!["y"], vec!["y_po"]]
        );
    }

    #[test]
    fn dff_scan_transform() {
        let text = "\
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = NOT(a)
";
        let n = parse_bench("seq", text, &lib(), &BenchOptions::default()).unwrap();
        // q becomes a pseudo-PI; d gets observed by q_scan_out.
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 2);
        assert!(n.find("q_scan_out").is_some());
    }

    #[test]
    fn dff_reject_mode() {
        let text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        let opts = BenchOptions {
            dff: DffHandling::Reject,
            ..BenchOptions::default()
        };
        assert!(matches!(
            parse_bench("seq", text, &lib(), &opts),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn detects_cycles() {
        let text = "\
INPUT(a)
OUTPUT(x)
x = NAND(a, y)
y = NOT(x)
";
        assert!(matches!(
            parse_bench("cyc", text, &lib(), &BenchOptions::default()),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn unknown_signal() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n";
        assert!(matches!(
            parse_bench("bad", text, &lib(), &BenchOptions::default()),
            Err(NetlistError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn malformed_lines_error_with_location() {
        for (text, bad_line) in [
            ("INPUT a\n", 1),
            ("INPUT(a)\nOUTPUT(y)\ny = NOT(a\n", 3),
            ("INPUT(a)\nwhatever\n", 2),
            ("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", 3),
        ] {
            match parse_bench("bad", text, &lib(), &BenchOptions::default()) {
                Err(NetlistError::Parse { line, .. }) => assert_eq!(line, bad_line, "{text}"),
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\
# full line comment

INPUT(a)   # trailing comment
OUTPUT(y)
y = NOT(a)
";
        let n = parse_bench("c", text, &lib(), &BenchOptions::default()).unwrap();
        assert_eq!(n.num_nodes(), 3);
    }

    #[test]
    fn drive_suffix_option() {
        let opts = BenchOptions {
            drive_suffix: "X4".to_owned(),
            ..BenchOptions::default()
        };
        let n = parse_bench("c17", C17_BENCH, &lib(), &opts).unwrap();
        let g = n.find("10").unwrap();
        assert_eq!(n.cell_of(g).unwrap().name(), "NAND2_X4");
    }

    #[test]
    fn roundtrip_c17() {
        let n = parse_bench("c17", C17_BENCH, &lib(), &BenchOptions::default()).unwrap();
        let text = write_bench(&n);
        let n2 = parse_bench("c17rt", &text, &lib(), &BenchOptions::default()).unwrap();
        assert_eq!(n.num_nodes(), n2.num_nodes());
        assert_eq!(n.num_gates(), n2.num_gates());
        assert_eq!(n.inputs().len(), n2.inputs().len());
        assert_eq!(n.outputs().len(), n2.outputs().len());
        // Same gate names with same cell types.
        for (id, node) in n.iter() {
            if let NodeKind::Gate(_) = node.kind() {
                let other = n2.find(node.name()).expect("gate survives roundtrip");
                assert_eq!(
                    n.cell_of(id).unwrap().name(),
                    n2.cell_of(other).unwrap().name()
                );
            }
        }
    }
}
