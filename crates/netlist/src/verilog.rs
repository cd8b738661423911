//! Structural-Verilog subset parser and writer.
//!
//! Synthesized netlists (the paper's input, produced by a commercial
//! synthesis flow over the NanGate library) are flat structural Verilog.
//! The supported grammar is the subset such flows emit:
//!
//! ```text
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire n1;
//!   NAND2_X1 u1 (.A1(a), .A2(b), .ZN(n1));
//!   INV_X2 u2 (.A(n1), .ZN(y));
//! endmodule
//! ```
//!
//! Both named (`.A(net)`) and positional (`(y, a, b)` with the output
//! first) connections are accepted. `assign y = n;` aliases are supported
//! as buffers-free name bindings.

use crate::graph::{Netlist, NetlistBuilder, NodeId, NodeKind};
use crate::library::CellLibrary;
use crate::NetlistError;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parses a structural-Verilog module into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors,
/// [`NetlistError::UnknownCell`] for cell types missing from `library`,
/// [`NetlistError::UnknownSignal`] for undriven nets, and
/// [`NetlistError::CombinationalCycle`] for cyclic structures.
pub fn parse_verilog(text: &str, library: &Arc<CellLibrary>) -> Result<Netlist, NetlistError> {
    let tokens = tokenize(text)?;
    Parser {
        tokens,
        pos: 0,
        library: Arc::clone(library),
    }
    .parse_module()
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Symbol(char),
    /// 1-based line for diagnostics.
    Line(usize),
}

fn tokenize(text: &str) -> Result<Vec<(Token, usize)>, NetlistError> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut rest = raw;
        loop {
            if in_block_comment {
                match rest.find("*/") {
                    Some(end) => {
                        rest = &rest[end + 2..];
                        in_block_comment = false;
                    }
                    None => break,
                }
            }
            let code = match rest.find("//") {
                Some(idx) => &rest[..idx],
                None => rest,
            };
            let (code, opened_block) = match code.find("/*") {
                Some(idx) => (&code[..idx], true),
                None => (code, false),
            };
            let mut chars = code.char_indices().peekable();
            while let Some(&(start, ch)) = chars.peek() {
                if ch.is_whitespace() {
                    chars.next();
                } else if ch.is_alphanumeric() || ch == '_' || ch == '\\' || ch == '[' {
                    // Identifier (allowing escaped identifiers and bus bits
                    // like n[3], folded into one name).
                    let mut end = start;
                    while let Some(&(i, c)) = chars.peek() {
                        if c.is_alphanumeric() || "_$\\[]".contains(c) {
                            end = i + c.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push((Token::Ident(code[start..end].to_owned()), line));
                } else if "();,.=".contains(ch) {
                    out.push((Token::Symbol(ch), line));
                    chars.next();
                } else {
                    return Err(NetlistError::Parse {
                        line,
                        message: format!("unexpected character `{ch}`"),
                    });
                }
            }
            if opened_block {
                // Resume scanning after `/*` for a closing `*/` on this line.
                let after = rest.find("/*").map(|i| &rest[i + 2..]).unwrap_or("");
                match after.find("*/") {
                    Some(end) => {
                        rest = &after[end + 2..];
                        continue;
                    }
                    None => {
                        in_block_comment = true;
                        break;
                    }
                }
            }
            break;
        }
    }
    let _ = Token::Line(0); // variant reserved for future diagnostics
    Ok(out)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    library: Arc<CellLibrary>,
}

#[derive(Debug)]
struct Instance {
    line: usize,
    cell: String,
    name: String,
    /// Named connections `pin → net`, or positional nets when `named` is
    /// false (output first).
    named: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> NetlistError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0);
        NetlistError::Parse {
            line,
            message: message.into(),
        }
    }

    fn next_token(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_symbol(&mut self, sym: char) -> Result<(), NetlistError> {
        match self.next_token() {
            Some(Token::Symbol(c)) if c == sym => Ok(()),
            other => Err(self.err(format!("expected `{sym}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, NetlistError> {
        match self.next_token() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn ident_list_until_semicolon(&mut self) -> Result<Vec<String>, NetlistError> {
        let mut names = Vec::new();
        loop {
            names.push(self.expect_ident()?);
            match self.next_token() {
                Some(Token::Symbol(',')) => continue,
                Some(Token::Symbol(';')) => break,
                other => return Err(self.err(format!("expected `,` or `;`, found {other:?}"))),
            }
        }
        Ok(names)
    }

    fn parse_module(mut self) -> Result<Netlist, NetlistError> {
        match self.next_token() {
            Some(Token::Ident(kw)) if kw == "module" => {}
            other => return Err(self.err(format!("expected `module`, found {other:?}"))),
        }
        let module_name = self.expect_ident()?;
        // Port list (names only; direction comes from declarations).
        self.expect_symbol('(')?;
        loop {
            match self.next_token() {
                Some(Token::Symbol(')')) => break,
                Some(Token::Ident(_)) | Some(Token::Symbol(',')) => continue,
                other => return Err(self.err(format!("bad port list token {other:?}"))),
            }
        }
        self.expect_symbol(';')?;

        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut instances: Vec<Instance> = Vec::new();
        let mut aliases: Vec<(String, String, usize)> = Vec::new(); // (lhs, rhs, line)

        loop {
            let line = self.tokens.get(self.pos).map(|(_, l)| *l).unwrap_or(0);
            match self.next_token() {
                Some(Token::Ident(kw)) if kw == "endmodule" => break,
                Some(Token::Ident(kw)) if kw == "input" => {
                    inputs.extend(self.ident_list_until_semicolon()?);
                }
                Some(Token::Ident(kw)) if kw == "output" => {
                    outputs.extend(self.ident_list_until_semicolon()?);
                }
                Some(Token::Ident(kw)) if kw == "wire" => {
                    // Declarations carry no structure we need.
                    self.ident_list_until_semicolon()?;
                }
                Some(Token::Ident(kw)) if kw == "assign" => {
                    let lhs = self.expect_ident()?;
                    self.expect_symbol('=')?;
                    let rhs = self.expect_ident()?;
                    self.expect_symbol(';')?;
                    aliases.push((lhs, rhs, line));
                }
                Some(Token::Ident(cell)) => {
                    let inst_name = self.expect_ident()?;
                    self.expect_symbol('(')?;
                    let mut inst = Instance {
                        line,
                        cell,
                        name: inst_name,
                        named: Vec::new(),
                        positional: Vec::new(),
                    };
                    loop {
                        match self.next_token() {
                            Some(Token::Symbol(')')) => break,
                            Some(Token::Symbol(',')) => continue,
                            Some(Token::Symbol('.')) => {
                                let pin = self.expect_ident()?;
                                self.expect_symbol('(')?;
                                let net = self.expect_ident()?;
                                self.expect_symbol(')')?;
                                inst.named.push((pin, net));
                            }
                            Some(Token::Ident(net)) => inst.positional.push(net),
                            other => {
                                return Err(self.err(format!("bad connection token {other:?}")))
                            }
                        }
                    }
                    self.expect_symbol(';')?;
                    if !inst.named.is_empty() && !inst.positional.is_empty() {
                        return Err(NetlistError::Parse {
                            line,
                            message: format!(
                                "instance `{}` mixes named and positional connections",
                                inst.name
                            ),
                        });
                    }
                    instances.push(inst);
                }
                other => return Err(self.err(format!("unexpected token {other:?}"))),
            }
        }

        if inputs.is_empty() || outputs.is_empty() {
            return Err(NetlistError::EmptyInterface);
        }

        // Resolve each instance into (output net, cell, input nets in pin
        // order).
        struct GateDef {
            line: usize,
            output_net: String,
            cell: String,
            input_nets: Vec<String>,
        }
        let mut gates = Vec::new();
        for inst in instances {
            let cell_id = self.library.require(&inst.cell)?;
            let cell = self.library.cell(cell_id);
            let (output_net, input_nets) = if !inst.named.is_empty() {
                let mut output_net = None;
                let mut by_pin: HashMap<&str, &str> = HashMap::new();
                for (pin, net) in &inst.named {
                    if pin == cell.output_pin() {
                        output_net = Some(net.clone());
                    } else {
                        by_pin.insert(pin.as_str(), net.as_str());
                    }
                }
                let output_net = output_net.ok_or_else(|| NetlistError::Parse {
                    line: inst.line,
                    message: format!(
                        "instance `{}` lacks output pin `{}`",
                        inst.name,
                        cell.output_pin()
                    ),
                })?;
                let mut input_nets = Vec::with_capacity(cell.num_inputs());
                for pin in cell.input_pins() {
                    let net = by_pin
                        .get(pin.name.as_str())
                        .ok_or_else(|| NetlistError::Parse {
                            line: inst.line,
                            message: format!(
                                "instance `{}` lacks input pin `{}`",
                                inst.name, pin.name
                            ),
                        })?;
                    input_nets.push((*net).to_owned());
                }
                (output_net, input_nets)
            } else {
                // Positional: output first, then inputs in pin order.
                if inst.positional.len() != cell.num_inputs() + 1 {
                    return Err(NetlistError::ArityMismatch {
                        gate: inst.name.clone(),
                        cell: inst.cell.clone(),
                        expected: cell.num_inputs() + 1,
                        got: inst.positional.len(),
                    });
                }
                (inst.positional[0].clone(), inst.positional[1..].to_vec())
            };
            gates.push(GateDef {
                line: inst.line,
                output_net,
                cell: inst.cell,
                input_nets,
            });
        }

        // Apply assign-aliases: an alias `assign y = n` makes `y` another
        // name of net `n`. Map alias → canonical driver name.
        let mut canonical: HashMap<String, String> = HashMap::new();
        for (lhs, rhs, line) in &aliases {
            if canonical.contains_key(lhs) {
                return Err(NetlistError::Parse {
                    line: *line,
                    message: format!("net `{lhs}` assigned twice"),
                });
            }
            canonical.insert(lhs.clone(), rhs.clone());
        }
        let resolve = |name: &str| -> String {
            let mut cur = name.to_owned();
            let mut hops = 0;
            while let Some(next) = canonical.get(&cur) {
                cur = next.clone();
                hops += 1;
                if hops > canonical.len() {
                    break; // alias cycle; caught as unknown signal later
                }
            }
            cur
        };

        // Emit: inputs, then gates in dependency order (same DFS as the
        // bench parser), then outputs.
        let mut builder = NetlistBuilder::new(module_name, &self.library);
        let mut ids: HashMap<String, NodeId> = HashMap::new();
        for pi in &inputs {
            let id = builder.add_input(pi.clone())?;
            ids.insert(pi.clone(), id);
        }
        let index_of: HashMap<String, usize> = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.output_net.clone(), i))
            .collect();

        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unvisited,
            OnStack,
            Done,
        }
        let mut marks = vec![Mark::Unvisited; gates.len()];
        for start in 0..gates.len() {
            if marks[start] == Mark::Done {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            marks[start] = Mark::OnStack;
            while let Some(&(gi, next)) = stack.last() {
                let g = &gates[gi];
                if next < g.input_nets.len() {
                    stack.last_mut().expect("stack non-empty").1 += 1;
                    let dep = resolve(&g.input_nets[next]);
                    if ids.contains_key(&dep) {
                        continue;
                    }
                    match index_of.get(&dep) {
                        Some(&di) => match marks[di] {
                            Mark::Unvisited => {
                                marks[di] = Mark::OnStack;
                                stack.push((di, 0));
                            }
                            Mark::OnStack => {
                                return Err(NetlistError::CombinationalCycle { node: dep })
                            }
                            Mark::Done => {}
                        },
                        None => return Err(NetlistError::UnknownSignal { signal: dep }),
                    }
                } else {
                    let fanin: Vec<NodeId> =
                        g.input_nets.iter().map(|s| ids[&resolve(s)]).collect();
                    let id = builder.add_gate(g.output_net.clone(), &g.cell, &fanin)?;
                    ids.insert(g.output_net.clone(), id);
                    marks[gi] = Mark::Done;
                    stack.pop();
                    let _ = g.line;
                }
            }
        }

        for po in &outputs {
            let src_name = resolve(po);
            let src = *ids
                .get(&src_name)
                .ok_or_else(|| NetlistError::UnknownSignal {
                    signal: src_name.clone(),
                })?;
            builder.add_output(format!("{po}_po"), src)?;
        }
        builder.finish()
    }
}

/// Serializes a netlist as structural Verilog with named connections.
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let ports: Vec<&str> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs())
        .map(|&id| netlist.node(id).name())
        .collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        sanitize(netlist.name()),
        ports.join(", ")
    );
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "  input {};", netlist.node(pi).name());
    }
    for &po in netlist.outputs() {
        let _ = writeln!(out, "  output {};", netlist.node(po).name());
    }
    for (_, node) in netlist.iter() {
        if matches!(node.kind(), NodeKind::Gate(_)) {
            let _ = writeln!(out, "  wire {};", node.name());
        }
    }
    let mut inst = 0usize;
    for (id, node) in netlist.iter() {
        if let NodeKind::Gate(_) = node.kind() {
            let cell = netlist.cell_of(id).expect("gate has cell");
            let mut conns: Vec<String> = cell
                .input_pins()
                .iter()
                .zip(node.fanin())
                .map(|(pin, &f)| format!(".{}({})", pin.name, netlist.node(f).name()))
                .collect();
            conns.push(format!(".{}({})", cell.output_pin(), node.name()));
            let _ = writeln!(out, "  {} u{} ({});", cell.name(), inst, conns.join(", "));
            inst += 1;
        }
    }
    // Primary outputs alias their observed net.
    for &po in netlist.outputs() {
        let src = netlist.node(po).fanin()[0];
        let _ = writeln!(
            out,
            "  assign {} = {};",
            netlist.node(po).name(),
            netlist.node(src).name()
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::nangate15_like()
    }

    const SMALL: &str = "\
// a tiny synthesized module
module top (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2_X1 u1 (.A1(a), .A2(b), .ZN(n1));
  INV_X2 u2 (.A(n1), .ZN(n2));
  wire n2;
  assign y = n2;
endmodule
";

    #[test]
    fn parses_named_connections() {
        let n = parse_verilog(SMALL, &lib()).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.num_gates(), 2);
        let g = n.find("n1").unwrap();
        assert_eq!(n.cell_of(g).unwrap().name(), "NAND2_X1");
        // Output observes the inverter through the assign alias.
        let po = n.outputs()[0];
        let src = n.node(po).fanin()[0];
        assert_eq!(n.node(src).name(), "n2");
    }

    #[test]
    fn parses_positional_connections() {
        let text = "\
module pos (a, b, y);
  input a, b;
  output y;
  NOR2_X1 u1 (y, a, b);
endmodule
";
        let n = parse_verilog(text, &lib()).unwrap();
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.cell_of(n.find("y").unwrap()).unwrap().name(), "NOR2_X1");
    }

    #[test]
    fn block_comments_skipped() {
        let text = "\
module c (a, y); /* ports: a in,
 y out */
  input a;
  output y;
  INV_X1 u0 (.A(a), .ZN(y));
endmodule
";
        let n = parse_verilog(text, &lib()).unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn missing_pin_is_error() {
        let text = "\
module m (a, b, y);
  input a, b;
  output y;
  NAND2_X1 u1 (.A1(a), .ZN(y));
endmodule
";
        assert!(matches!(
            parse_verilog(text, &lib()),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_cell_is_error() {
        let text = "\
module m (a, y);
  input a;
  output y;
  WIDGET_X1 u1 (.A(a), .ZN(y));
endmodule
";
        assert!(matches!(
            parse_verilog(text, &lib()),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn positional_arity_checked() {
        let text = "\
module m (a, y);
  input a;
  output y;
  NAND2_X1 u1 (y, a);
endmodule
";
        assert!(matches!(
            parse_verilog(text, &lib()),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn undriven_net_is_error() {
        let text = "\
module m (a, y);
  input a;
  output y;
  INV_X1 u1 (.A(ghost), .ZN(y));
endmodule
";
        assert!(matches!(
            parse_verilog(text, &lib()),
            Err(NetlistError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        let text = "\
module m (a, y);
  input a;
  output y;
  NAND2_X1 u1 (.A1(a), .A2(q), .ZN(p));
  INV_X1 u2 (.A(p), .ZN(q));
  assign y = p;
endmodule
";
        assert!(matches!(
            parse_verilog(text, &lib()),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn out_of_order_instances_resolve() {
        let text = "\
module m (a, y);
  input a;
  output y;
  INV_X1 u2 (.A(n1), .ZN(y));
  INV_X1 u1 (.A(a), .ZN(n1));
endmodule
";
        let n = parse_verilog(text, &lib()).unwrap();
        assert_eq!(n.num_gates(), 2);
        // The parser emits instances in dependency order, which the
        // one-pass levelization reads.
        assert!(n
            .iter()
            .all(|(id, node)| node.fanin().iter().all(|&f| f < id)));
        let levels: Vec<Vec<&str>> = crate::Levelization::of(&n)
            .unwrap()
            .iter()
            .map(|level| level.iter().map(|&id| n.node(id).name()).collect())
            .collect();
        assert_eq!(levels, [vec!["a"], vec!["n1"], vec!["y"], vec!["y_po"]]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let n = parse_verilog(SMALL, &lib()).unwrap();
        let text = write_verilog(&n);
        let n2 = parse_verilog(&text, &lib()).unwrap();
        assert_eq!(n.num_gates(), n2.num_gates());
        assert_eq!(n.inputs().len(), n2.inputs().len());
        assert_eq!(n.outputs().len(), n2.outputs().len());
    }
}
