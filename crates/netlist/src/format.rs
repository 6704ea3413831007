//! A plain-text netlist format (`.snl`, "switch-level netlist").
//!
//! The format is line oriented; `;` starts a comment. Three statement
//! kinds exist:
//!
//! ```text
//! input <name> [0|1|X]          ; input node, optional default (X)
//! node  <name> [size <k>]      ; storage node, optional size (1)
//! n|p|d <gate> <src> <drn> [strength <g>]   ; transistor (default γ2)
//! ```
//!
//! Node names may be any non-empty token without whitespace or `;`
//! ([`Network::try_add_node`] enforces it).
//! Transistor statements may reference nodes declared on any line
//! (forward references are *not* allowed — declaration order is also
//! simulation id order, which keeps dumps reproducible).
//!
//! # Example
//!
//! ```
//! use fmossim_netlist::{parse_netlist, write_netlist};
//! let src = "\
//! ; nMOS inverter
//! input Vdd 1
//! input Gnd 0
//! input A
//! node OUT
//! d OUT Vdd OUT strength 1
//! n A OUT Gnd
//! ";
//! let net = parse_netlist(src)?;
//! assert_eq!(net.num_transistors(), 2);
//! let round = write_netlist(&net);
//! assert_eq!(parse_netlist(&round)?.num_nodes(), net.num_nodes());
//! # Ok::<(), fmossim_netlist::NetlistError>(())
//! ```

use crate::{Drive, Logic, NetlistError, Network, NodeClass, Size, TransistorType};
use std::fmt::Write as _;

/// Parses the text netlist format into a [`Network`].
///
/// # Errors
///
/// Returns a [`NetlistError`] with a 1-based line number on syntax
/// errors, duplicate or invalid node names, or references to
/// undeclared nodes.
pub fn parse_netlist(text: &str) -> Result<Network, NetlistError> {
    let mut net = Network::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let body = raw.split(';').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut tok = body.split_whitespace();
        let head = tok.next().expect("non-empty line has a first token");
        match head {
            "input" => {
                let name = tok.next().ok_or_else(|| NetlistError::Syntax {
                    line,
                    message: "input statement needs a node name".into(),
                })?;
                let default = match tok.next() {
                    None => Logic::X,
                    Some(v) => single_char_logic(v, line)?,
                };
                check_end(&mut tok, line)?;
                net.try_add_node(name.to_string(), NodeClass::Input(default))
                    .map_err(|e| at_line(e, line))?;
            }
            "node" => {
                let name = tok.next().ok_or_else(|| NetlistError::Syntax {
                    line,
                    message: "node statement needs a node name".into(),
                })?;
                let size = match tok.next() {
                    None => Size::S1,
                    Some("size") => {
                        let k = parse_u8(tok.next(), "size", line)?;
                        Size::new(k).ok_or_else(|| NetlistError::Syntax {
                            line,
                            message: format!("size {k} out of range 1..=7"),
                        })?
                    }
                    Some(other) => {
                        return Err(NetlistError::Syntax {
                            line,
                            message: format!("expected `size`, found `{other}`"),
                        })
                    }
                };
                check_end(&mut tok, line)?;
                net.try_add_node(name.to_string(), NodeClass::Storage(size))
                    .map_err(|e| at_line(e, line))?;
            }
            "n" | "p" | "d" => {
                let ttype =
                    TransistorType::from_char(head.chars().next().expect("head is one char"))
                        .expect("head is n/p/d");
                let gate = node_ref(&net, tok.next(), line)?;
                let source = node_ref(&net, tok.next(), line)?;
                let drain = node_ref(&net, tok.next(), line)?;
                let strength = match tok.next() {
                    None => Drive::default(),
                    Some("strength") => {
                        let g = parse_u8(tok.next(), "strength", line)?;
                        Drive::new(g).ok_or_else(|| NetlistError::Syntax {
                            line,
                            message: format!("strength {g} out of range 1..=7"),
                        })?
                    }
                    Some(other) => {
                        return Err(NetlistError::Syntax {
                            line,
                            message: format!("expected `strength`, found `{other}`"),
                        })
                    }
                };
                check_end(&mut tok, line)?;
                net.add_transistor(ttype, strength, gate, source, drain);
            }
            other => {
                return Err(NetlistError::Syntax {
                    line,
                    message: format!("unknown statement `{other}`"),
                })
            }
        }
    }
    Ok(net)
}

/// Serialises a [`Network`] to the text netlist format.
///
/// The output is canonical: parsing it back yields a network with
/// identical nodes (same order, names, classes) and transistors.
#[must_use]
pub fn write_netlist(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; switch-level netlist: {} nodes, {} transistors",
        net.num_nodes(),
        net.num_transistors()
    );
    for (_, node) in net.nodes() {
        match node.class {
            NodeClass::Input(d) => {
                let _ = writeln!(out, "input {} {}", node.name, d);
            }
            NodeClass::Storage(s) => {
                if s == Size::S1 {
                    let _ = writeln!(out, "node {}", node.name);
                } else {
                    let _ = writeln!(out, "node {} size {}", node.name, s.level());
                }
            }
        }
    }
    for (_, t) in net.transistors() {
        let g = &net.node(t.gate).name;
        let s = &net.node(t.source).name;
        let d = &net.node(t.drain).name;
        if t.strength == Drive::default() {
            let _ = writeln!(out, "{} {} {} {}", t.ttype, g, s, d);
        } else {
            let _ = writeln!(
                out,
                "{} {} {} {} strength {}",
                t.ttype,
                g,
                s,
                d,
                t.strength.level()
            );
        }
    }
    out
}

/// Attaches a source line to a [`Network::try_add_node`] error.
pub(crate) fn at_line(e: NetlistError, line: usize) -> NetlistError {
    match e {
        NetlistError::DuplicateNode(_) | NetlistError::InvalidNodeName(_) => NetlistError::Syntax {
            line,
            message: e.to_string(),
        },
        other => other,
    }
}

fn single_char_logic(tok: &str, line: usize) -> Result<Logic, NetlistError> {
    let mut chars = tok.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Logic::from_char(c).ok_or_else(|| NetlistError::Syntax {
            line,
            message: format!("expected 0, 1 or X, found `{tok}`"),
        }),
        _ => Err(NetlistError::Syntax {
            line,
            message: format!("expected 0, 1 or X, found `{tok}`"),
        }),
    }
}

fn parse_u8(tok: Option<&str>, what: &str, line: usize) -> Result<u8, NetlistError> {
    let tok = tok.ok_or_else(|| NetlistError::Syntax {
        line,
        message: format!("`{what}` needs a number"),
    })?;
    tok.parse().map_err(|_| NetlistError::Syntax {
        line,
        message: format!("`{what}` needs a number, found `{tok}`"),
    })
}

fn node_ref(net: &Network, tok: Option<&str>, line: usize) -> Result<crate::NodeId, NetlistError> {
    let name = tok.ok_or_else(|| NetlistError::Syntax {
        line,
        message: "transistor statement needs gate, source, drain".into(),
    })?;
    net.find_node(name)
        .ok_or_else(|| NetlistError::UnknownNode {
            name: name.to_string(),
            line,
        })
}

fn check_end<'a>(tok: &mut impl Iterator<Item = &'a str>, line: usize) -> Result<(), NetlistError> {
    match tok.next() {
        None => Ok(()),
        Some(extra) => Err(NetlistError::Syntax {
            line,
            message: format!("unexpected trailing token `{extra}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    const INV: &str = "\
; nMOS inverter
input Vdd 1
input Gnd 0
input A
node OUT
node BUS size 2
d OUT Vdd OUT strength 1
n A OUT Gnd
";

    #[test]
    fn parse_basic() {
        let net = parse_netlist(INV).unwrap();
        assert_eq!(net.num_nodes(), 5);
        assert_eq!(net.num_transistors(), 2);
        let out = net.find_node("OUT").unwrap();
        assert!(!net.node(out).is_input());
        assert_eq!(net.node(net.find_node("BUS").unwrap()).size(), Size::S2);
        match net.node(net.find_node("Vdd").unwrap()).class {
            NodeClass::Input(v) => assert_eq!(v, Logic::H),
            _ => panic!("Vdd must be an input"),
        }
        let t0 = net.transistor(crate::TransistorId::from_index(0));
        assert_eq!(t0.ttype, TransistorType::D);
        assert_eq!(t0.strength, Drive::D1);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let net = parse_netlist(INV).unwrap();
        let text = write_netlist(&net);
        let net2 = parse_netlist(&text).unwrap();
        assert_eq!(net.num_nodes(), net2.num_nodes());
        assert_eq!(net.num_transistors(), net2.num_transistors());
        for id in net.node_ids() {
            assert_eq!(net.node(id), net2.node(id));
        }
        for id in net.transistor_ids() {
            assert_eq!(net.transistor(id), net2.transistor(id));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let net = parse_netlist("\n; only comments\n\n   ; indented\ninput A\n").unwrap();
        assert_eq!(net.num_nodes(), 1);
        assert_eq!(net.find_node("A"), Some(NodeId::from_index(0)));
    }

    #[test]
    fn error_unknown_node_has_line() {
        let err = parse_netlist("input A\nn A B C\n").unwrap_err();
        assert_eq!(
            err,
            NetlistError::UnknownNode {
                name: "B".into(),
                line: 2
            }
        );
    }

    #[test]
    fn error_bad_statement() {
        let err = parse_netlist("resistor A B\n").unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 1, .. }));
    }

    #[test]
    fn error_duplicate_reports_line() {
        let err = parse_netlist("input A\ninput A\n").unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 2, .. }));
    }

    #[test]
    fn error_bad_size_range() {
        let err = parse_netlist("node B size 9\n").unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 1, .. }));
    }

    #[test]
    fn error_trailing_tokens() {
        let err = parse_netlist("input A 1 extra\n").unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 1, .. }));
    }

    #[test]
    fn error_bad_default_value() {
        let err = parse_netlist("input A 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 1, .. }));
    }

    #[test]
    fn strength_roundtrip() {
        let src = "input G\ninput S\ninput D\nn G S D strength 7\n";
        let net = parse_netlist(src).unwrap();
        assert_eq!(
            net.transistor(crate::TransistorId::from_index(0)).strength,
            Drive::FAULT
        );
        let text = write_netlist(&net);
        assert!(text.contains("strength 7"));
    }
}
