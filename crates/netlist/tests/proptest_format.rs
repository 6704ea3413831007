//! Property tests for the two text formats: `parse_netlist` and
//! `parse_sim` never panic, whatever the input, and every network —
//! with node names drawn from hostile characters — survives
//! `write_netlist` + `parse_netlist` unchanged, because names the
//! format could not write back are rejected when the node is added.

use fmossim_netlist::{
    parse_netlist, parse_sim, write_netlist, Drive, Logic, NetlistError, Network, NodeClass,
    SimImportOptions, Size, TransistorType,
};
use proptest::prelude::*;

/// Characters for generated node names: the ones a name may not hold
/// (`;`, ASCII and Unicode whitespace, line breaks) beside ordinary
/// ASCII, punctuation the formats give no meaning to, and multi-byte
/// UTF-8.
#[rustfmt::skip]
const NAME_CHARS: &[char] = &[
    ';', ' ', '\t', '\n', '\r', '\u{a0}', '\u{2028}', 'a', 'Z', '0', '_', '#', '.', '!', '=',
    '|', 'é', '日', '\u{200b}', '🦀',
];

/// Fragments of both formats for hostile parser inputs: statement
/// heads, keywords, values (valid and out of range), separators and
/// comments.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "input", "node", "n", "p", "d", "e", "size", "strength", "0", "1", "X", "7", "9", "300",
    "-1", "12.5", "GND", "VDD", "vss!", "=", "C", "|", "a", "b", "a;b", ";", " ", "\t", "\n",
    "\r\n", "é", "\u{0}",
];

fn name_of(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&k| NAME_CHARS[k % NAME_CHARS.len()])
        .collect()
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty() && !name.contains(|c: char| c.is_whitespace() || c == ';')
}

fn class_of(kind: u8, size: u8) -> NodeClass {
    match kind % 4 {
        0 => NodeClass::Input(Logic::L),
        1 => NodeClass::Input(Logic::H),
        2 => NodeClass::Input(Logic::X),
        _ => NodeClass::Storage(Size::new(size).expect("size in range")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile input is an error, never a panic — and so is every
    /// prefix of it.
    #[test]
    fn parsers_never_panic(picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)) {
        let text: String = picks
            .iter()
            .map(|&k| FRAGMENTS[k])
            .collect::<Vec<_>>()
            .join(" ");
        for (i, _) in text.char_indices() {
            let _ = parse_netlist(&text[..i]);
            let _ = parse_sim(&text[..i], &SimImportOptions::default());
        }
        let _ = parse_netlist(&text);
        let _ = parse_sim(&text, &SimImportOptions::default().with_inputs(["a", "b"]));
    }

    /// Arbitrary Unicode scalar values.
    #[test]
    fn parsers_never_panic_on_any_chars(raw in prop::collection::vec(any::<u32>(), 0..40)) {
        let text: String = raw
            .iter()
            .map(|&u| char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect();
        let _ = parse_netlist(&text);
        let _ = parse_sim(&text, &SimImportOptions::default());
        let _ = parse_netlist(&format!("input {text}\nnode {text}\nn {text} {text} {text}\n"));
        let _ = parse_sim(&format!("e {text} GND {text}\n"), &SimImportOptions::default());
    }

    /// Every network `try_add_node` accepts writes out as a netlist that
    /// parses back to the same nodes (order, names, classes) and
    /// transistors; every name it could not write back is refused.
    #[test]
    fn written_networks_parse_back(
        nodes in prop::collection::vec(
            (prop::collection::vec(0usize..NAME_CHARS.len(), 0..5), any::<u8>(), 1u8..=7),
            1..16,
        ),
        trans in prop::collection::vec(
            (0u8..3, 1u8..=7, any::<u16>(), any::<u16>(), any::<u16>()),
            0..24,
        ),
    ) {
        let mut net = Network::new();
        for (picks, kind, size) in &nodes {
            let name = name_of(picks);
            let taken = net.find_node(&name).is_some();
            match net.try_add_node(name.clone(), class_of(*kind, *size)) {
                Ok(_) => prop_assert!(is_valid_name(&name) && !taken, "accepted {:?}", name),
                Err(NetlistError::InvalidNodeName(n)) => {
                    prop_assert!(!is_valid_name(&n), "refused valid {:?}", n);
                }
                Err(NetlistError::DuplicateNode(n)) => prop_assert!(taken, "{:?}", n),
                Err(e) => prop_assert!(false, "unexpected error {}", e),
            }
        }
        let ids: Vec<_> = net.node_ids().collect();
        if !ids.is_empty() {
            for &(ty, g, a, b, c) in &trans {
                let ttype = [TransistorType::N, TransistorType::P, TransistorType::D][ty as usize];
                let pick = |k: u16| ids[k as usize % ids.len()];
                net.add_transistor(ttype, Drive::new(g).expect("drive"), pick(a), pick(b), pick(c));
            }
        }

        let text = write_netlist(&net);
        let back = parse_netlist(&text);
        prop_assert!(back.is_ok(), "{:?} for\n{}", back.err(), text);
        let back = back.expect("checked");
        prop_assert_eq!(back.num_nodes(), net.num_nodes());
        prop_assert_eq!(back.num_transistors(), net.num_transistors());
        for id in net.node_ids() {
            prop_assert_eq!(back.node(id), net.node(id));
        }
        for id in net.transistor_ids() {
            prop_assert_eq!(back.transistor(id), net.transistor(id));
        }
    }
}

/// A `;` in a node name would start a comment in the written netlist,
/// so it is refused up front — by `try_add_node`, and with its line
/// number by the `.sim` importer, which used to accept it and write a
/// netlist that failed to parse.
#[test]
fn semicolon_names_are_rejected() {
    let mut net = Network::new();
    for bad in ["a;b", ";", "", "a b", "a\tb", "a\nb"] {
        assert_eq!(
            net.try_add_node(bad.into(), NodeClass::Storage(Size::S1)),
            Err(NetlistError::InvalidNodeName(bad.into())),
            "{bad:?}"
        );
    }
    assert_eq!(net.num_nodes(), 0, "nothing added");

    let err = parse_sim("n a;b GND OUT\n", &SimImportOptions::default())
        .expect_err("`a;b` cannot be written back");
    match err {
        NetlistError::Syntax { line, message } => {
            assert_eq!(line, 1);
            assert!(message.contains("a;b"), "{message}");
        }
        other => panic!("expected a syntax error with a line, got {other:?}"),
    }
    let (net, _) = parse_sim("n a_b GND OUT\n", &SimImportOptions::default()).expect("valid");
    assert_eq!(
        parse_netlist(&write_netlist(&net)).map(|n| n.num_nodes()),
        Ok(net.num_nodes())
    );
}
