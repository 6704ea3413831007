//! Property tests for the divergence-record store: the paper's sorted
//! state lists must be observationally identical to a plain
//! `BTreeMap<(node, circuit), state>` model under arbitrary operation
//! sequences.

use fmossim_core::StateLists;
use fmossim_netlist::{Logic, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference model: one entry per live record.
#[derive(Default)]
struct Model(BTreeMap<(usize, u32), Logic>);

impl Model {
    fn circuits_at(&self, n: usize) -> Vec<(u32, Logic)> {
        self.0
            .range((n, 0)..(n + 1, 0))
            .map(|(&(_, c), &v)| (c, v))
            .collect()
    }

    fn nodes_of(&self, c: u32) -> Vec<NodeId> {
        self.0
            .keys()
            .filter(|&&(_, cc)| cc == c)
            .map(|&(n, _)| NodeId::from_index(n))
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Set(u8, u8, Logic),
    Remove(u8, u8),
    DropCircuit(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 1u8..8, 0u8..3).prop_map(|(n, c, v)| Op::Set(
            n,
            c,
            match v {
                0 => Logic::L,
                1 => Logic::H,
                _ => Logic::X,
            }
        )),
        (0u8..16, 1u8..8).prop_map(|(n, c)| Op::Remove(n, c)),
        (1u8..8).prop_map(Op::DropCircuit),
    ]
}

/// Heavy set/remove churn on a few nodes and circuits, with a rare
/// circuit drop: the pattern that grows a per-circuit node index
/// without bound unless it is compacted.
fn arb_churn_op() -> impl Strategy<Value = Op> {
    (0u8..4, 1u8..3, 0u8..9).prop_map(|(n, c, sel)| match sel {
        0..=3 => Op::Set(n, c, if sel % 2 == 0 { Logic::L } else { Logic::H }),
        4..=7 => Op::Remove(n, c),
        _ => Op::DropCircuit(c),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A circuit's node index holds at most twice its live records
    /// right after every `set` that installs a record, and at most twice its peak live count
    /// at any time, however many records churn through it; live counts
    /// always equal the records observable via `get`.
    #[test]
    fn index_stays_bounded_under_churn(ops in prop::collection::vec(arb_churn_op(), 0..400)) {
        let mut s = StateLists::new(4, 2);
        let mut peak = [0usize; 3];
        for op in &ops {
            match *op {
                Op::Set(n, c, v) => {
                    let (node, c) = (NodeId::from_index(n as usize), u32::from(c));
                    let installs = s.get(node, c).is_none();
                    s.set(node, c, v);
                    if installs {
                        prop_assert!(
                            s.index_len(c) <= 2 * s.live_count(c),
                            "index {} for {} live", s.index_len(c), s.live_count(c)
                        );
                    }
                }
                Op::Remove(n, c) => s.remove(NodeId::from_index(n as usize), u32::from(c)),
                Op::DropCircuit(c) => {
                    s.drop_circuit(u32::from(c));
                    peak[c as usize] = 0;
                }
            }
            for c in 1..3u32 {
                let live = (0..4)
                    .filter(|&n| s.get(NodeId::from_index(n), c).is_some())
                    .count();
                prop_assert_eq!(s.live_count(c), live);
                peak[c as usize] = peak[c as usize].max(live);
                prop_assert!(s.index_len(c) <= 2 * peak[c as usize]);
            }
        }
    }

    #[test]
    fn backends_agree(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut a = StateLists::new(16, 8);
        let mut b = Model::default();
        for op in &ops {
            match *op {
                Op::Set(n, c, v) => {
                    a.set(NodeId::from_index(n as usize), u32::from(c), v);
                    b.0.insert((n as usize, u32::from(c)), v);
                }
                Op::Remove(n, c) => {
                    a.remove(NodeId::from_index(n as usize), u32::from(c));
                    b.0.remove(&(n as usize, u32::from(c)));
                }
                Op::DropCircuit(c) => {
                    let reclaimed = a.drop_circuit(u32::from(c));
                    let before = b.0.len();
                    b.0.retain(|&(_, cc), _| cc != u32::from(c));
                    prop_assert_eq!(reclaimed, before - b.0.len());
                }
            }
            prop_assert_eq!(a.len(), b.0.len());
        }
        // Full observational equality at the end.
        for n in 0..16 {
            let node = NodeId::from_index(n);
            prop_assert_eq!(a.circuits_at(node), b.circuits_at(n), "node {}", n);
            for c in 1..8u32 {
                prop_assert_eq!(a.get(node, c), b.0.get(&(n, c)).copied());
            }
        }
        for c in 1..8u32 {
            prop_assert_eq!(a.nodes_of(c), b.nodes_of(c));
        }
    }

    /// `len()` equals the number of live records observable via `get`.
    #[test]
    fn len_is_consistent(ops in prop::collection::vec(arb_op(), 0..80)) {
        let mut s = StateLists::new(16, 8);
        for op in &ops {
            match *op {
                Op::Set(n, c, v) => s.set(NodeId::from_index(n as usize), u32::from(c), v),
                Op::Remove(n, c) => s.remove(NodeId::from_index(n as usize), u32::from(c)),
                Op::DropCircuit(c) => {
                    s.drop_circuit(u32::from(c));
                }
            }
        }
        let mut live = 0;
        for n in 0..16 {
            for c in 1..8u32 {
                if s.get(NodeId::from_index(n), c).is_some() {
                    live += 1;
                }
            }
        }
        prop_assert_eq!(s.len(), live);
    }
}
