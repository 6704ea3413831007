//! Import of the Berkeley `.sim` netlist format.
//!
//! `.sim` files are what Magic's `ext2sim` and the original
//! MOSSIM/esim/rsim toolchain exchanged, so this importer lets the
//! simulator consume netlists extracted from real layouts of the era.
//! The subset understood:
//!
//! ```text
//! | units: 100 tech: nmos          comment / header lines
//! e gate source drain [...]        enhancement nMOS (our n-type)
//! d gate source drain [...]        depletion nMOS (our d-type, weak)
//! n gate source drain [...]        n-channel (alias of e)
//! p gate source drain [...]        p-channel
//! C node1 node2 cap                node capacitance (femtofarads)
//! = alias node                     node aliasing
//! ```
//!
//! Geometry fields after the three terminals are ignored. Nodes named
//! `VDD`/`GND` (any case, with or without `!` suffix) become input
//! rails; everything else is a storage node. Capacitance statements
//! promote a node to the κ2 size class when its total capacitance
//! reaches [`SimImportOptions::bus_threshold_ff`] — this is how bit
//! lines keep their charge-sharing dominance when importing real
//! layouts.

use crate::{Drive, Logic, NetlistError, Network, NodeClass, NodeId, Size, TransistorType};
use std::collections::HashMap;

/// Options controlling `.sim` import.
#[derive(Clone, Debug)]
pub struct SimImportOptions {
    /// Total node capacitance (fF) at which a node is classed κ2.
    pub bus_threshold_ff: f64,
    /// Drive strength for enhancement/p devices.
    pub strong: Drive,
    /// Drive strength for depletion loads.
    pub weak: Drive,
    /// Names of primary-input nodes (the `.sim` format does not mark
    /// them; only `VDD`/`GND`/`VSS` are recognised automatically).
    /// Matched after alias resolution; imported with default value `X`.
    pub inputs: Vec<String>,
}

impl Default for SimImportOptions {
    fn default() -> Self {
        SimImportOptions {
            bus_threshold_ff: 100.0,
            strong: Drive::D2,
            weak: Drive::D1,
            inputs: Vec::new(),
        }
    }
}

impl SimImportOptions {
    /// Builder-style helper declaring primary inputs by name.
    #[must_use]
    pub fn with_inputs<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.inputs.extend(names.into_iter().map(Into::into));
        self
    }
}

/// Per-import diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimImportReport {
    /// Transistors created.
    pub transistors: usize,
    /// Nodes created.
    pub nodes: usize,
    /// Nodes promoted to κ2 by capacitance.
    pub promoted_buses: usize,
    /// Lines skipped as not understood (line numbers, 1-based).
    pub skipped_lines: Vec<usize>,
}

/// Parses a Berkeley `.sim` file into a [`Network`].
///
/// # Errors
///
/// Returns [`NetlistError::Syntax`] for malformed device lines;
/// unrecognised statement kinds are skipped and reported in
/// [`SimImportReport::skipped_lines`].
pub fn parse_sim(
    text: &str,
    options: &SimImportOptions,
) -> Result<(Network, SimImportReport), NetlistError> {
    // First pass: aliases and capacitances (they may appear anywhere).
    let mut alias: HashMap<&str, &str> = HashMap::new();
    let mut cap_ff: HashMap<String, f64> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let mut tok = raw.split_whitespace();
        match tok.next() {
            Some("=") => {
                if let (Some(a), Some(b)) = (tok.next(), tok.next()) {
                    alias.insert(a, b);
                }
            }
            Some("C") => {
                // `C node1 node2 cap` (coupling) or `C node cap`.
                let parts: Vec<&str> = tok.collect();
                match parts.as_slice() {
                    [node, cap] => {
                        let c: f64 = cap.parse().map_err(|_| NetlistError::Syntax {
                            line: lineno + 1,
                            message: format!("bad capacitance `{cap}`"),
                        })?;
                        *cap_ff.entry((*node).to_string()).or_insert(0.0) += c;
                    }
                    [n1, n2, cap] => {
                        let c: f64 = cap.parse().map_err(|_| NetlistError::Syntax {
                            line: lineno + 1,
                            message: format!("bad capacitance `{cap}`"),
                        })?;
                        *cap_ff.entry((*n1).to_string()).or_insert(0.0) += c;
                        *cap_ff.entry((*n2).to_string()).or_insert(0.0) += c;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    let resolve = |name: &str| -> String {
        let mut n = name;
        let mut hops = 0;
        while let Some(&next) = alias.get(n) {
            n = next;
            hops += 1;
            if hops > 32 {
                break; // cycle; keep the last name
            }
        }
        n.to_string()
    };

    let mut net = Network::new();
    let mut report = SimImportReport::default();
    let mut ids: HashMap<String, NodeId> = HashMap::new();

    let mut intern = |net: &mut Network, name: String, line: usize| {
        if let Some(&id) = ids.get(&name) {
            return Ok(id);
        }
        let canon = name.trim_end_matches('!').to_ascii_uppercase();
        let class = match canon.as_str() {
            "VDD" => NodeClass::Input(Logic::H),
            "GND" | "VSS" => NodeClass::Input(Logic::L),
            _ if options.inputs.contains(&name) => NodeClass::Input(Logic::X),
            _ => {
                let size = if cap_ff.get(&name).copied().unwrap_or(0.0) >= options.bus_threshold_ff
                {
                    Size::S2
                } else {
                    Size::S1
                };
                NodeClass::Storage(size)
            }
        };
        let id = net
            .try_add_node(name.clone(), class)
            .map_err(|e| crate::format::at_line(e, line))?;
        ids.insert(name, id);
        Ok(id)
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut tok = raw.split_whitespace();
        let head = match tok.next() {
            None => continue,
            Some(h) => h,
        };
        let ttype = match head {
            "e" | "n" => TransistorType::N,
            "d" => TransistorType::D,
            "p" => TransistorType::P,
            "|" | "=" | "C" => continue, // header/alias/capacitance
            _ => {
                report.skipped_lines.push(line);
                continue;
            }
        };
        let (g, s, d) = match (tok.next(), tok.next(), tok.next()) {
            (Some(g), Some(s), Some(d)) => (g, s, d),
            _ => {
                return Err(NetlistError::Syntax {
                    line,
                    message: "device line needs gate, source, drain".into(),
                })
            }
        };
        let strength = if ttype == TransistorType::D {
            options.weak
        } else {
            options.strong
        };
        let g = intern(&mut net, resolve(g), line)?;
        let s = intern(&mut net, resolve(s), line)?;
        let d = intern(&mut net, resolve(d), line)?;
        net.add_transistor(ttype, strength, g, s, d);
        report.transistors += 1;
    }
    // Promote count for the report.
    report.promoted_buses = net
        .nodes()
        .filter(|(_, n)| matches!(n.class, NodeClass::Storage(s) if s == Size::S2))
        .count();
    report.nodes = net.num_nodes();
    Ok((net, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
| units: 100 tech: nmos
e IN OUT GND 2 2 16 24
d OUT VDD OUT 2 8 16 8
C OUT 12.5
C BIT GND 150.0
e SEL BIT OUT 2 2 0 0
= IN2 IN
e IN2 BIT GND 2 2 0 0
W whatever unknown statement
";

    #[test]
    fn parses_devices_and_rails() {
        let (net, report) = parse_sim(SAMPLE, &SimImportOptions::default()).unwrap();
        assert_eq!(report.transistors, 4);
        assert_eq!(report.skipped_lines, vec![9]);
        let vdd = net.find_node("VDD").expect("rail");
        assert!(net.node(vdd).is_input());
        let gnd = net.find_node("GND").expect("rail");
        assert!(net.node(gnd).is_input());
        // Depletion load imported as d-type, weak.
        let d = net
            .transistors()
            .find(|(_, t)| t.ttype == TransistorType::D)
            .expect("load");
        assert_eq!(d.1.strength, Drive::D1);
    }

    #[test]
    fn capacitance_promotes_buses() {
        let (net, report) = parse_sim(SAMPLE, &SimImportOptions::default()).unwrap();
        let bit = net.find_node("BIT").expect("bus node");
        assert_eq!(net.node(bit).size(), Size::S2, "150 fF ≥ threshold");
        let out = net.find_node("OUT").expect("node");
        assert_eq!(net.node(out).size(), Size::S1, "12.5 fF below threshold");
        assert_eq!(report.promoted_buses, 1);
    }

    #[test]
    fn aliases_merge_nodes() {
        let (net, _) = parse_sim(SAMPLE, &SimImportOptions::default()).unwrap();
        // IN2 was aliased to IN: only IN exists.
        assert!(net.find_node("IN").is_some());
        assert!(net.find_node("IN2").is_none());
        // The aliased device's channel lands on BIT and GND.
        let gnd = net.find_node("GND").unwrap();
        let bit = net.find_node("BIT").unwrap();
        let in_ = net.find_node("IN").unwrap();
        assert!(net
            .transistors()
            .any(|(_, t)| t.gate == in_ && t.connects(bit) && t.connects(gnd)));
    }

    #[test]
    fn imported_netlist_is_well_formed() {
        // (Behavioural simulation of imported netlists is covered by
        // the workspace integration test `sim_format_import.rs`.)
        let (net, _) = parse_sim(SAMPLE, &SimImportOptions::default()).unwrap();
        assert!(net.validate().is_ok());
    }

    #[test]
    fn malformed_device_line_errors() {
        let err = parse_sim("e A B\n", &SimImportOptions::default()).unwrap_err();
        assert!(matches!(err, NetlistError::Syntax { line: 1, .. }));
    }

    #[test]
    fn declared_inputs_are_input_classified() {
        let options = SimImportOptions::default().with_inputs(["IN", "SEL"]);
        let (net, _) = parse_sim(SAMPLE, &options).unwrap();
        for name in ["IN", "SEL"] {
            let id = net.find_node(name).expect("exists");
            assert!(net.node(id).is_input(), "{name} declared as input");
        }
        let out = net.find_node("OUT").expect("exists");
        assert!(!net.node(out).is_input());
    }

    #[test]
    fn vss_recognised_as_ground() {
        let (net, _) = parse_sim("e G S vss!\n", &SimImportOptions::default()).unwrap();
        let vss = net.find_node("vss!").expect("rail");
        assert!(net.node(vss).is_input());
        assert_eq!(
            match net.node(vss).class {
                NodeClass::Input(v) => v,
                NodeClass::Storage(_) => unreachable!(),
            },
            Logic::L
        );
    }
}
