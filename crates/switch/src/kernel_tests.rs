//! Differential tests of the single-node closed form against the
//! general path, for both solvers.
//!
//! A random neighbourhood is one seed storage node with channel
//! transistors to inputs, to itself (self-loops) and occasionally to
//! other storage nodes, gated by inputs or storage nodes of any value
//! (X gates included). Most seeds are one-node vicinities, which the
//! solvers resolve in closed form; the general path is reached through
//! the test-only `solve_general` entry points. On the scalar side the
//! two must agree bit for bit: values, incident transistors and
//! boundary inputs, under both locality modes. On the packed side every
//! kept lane of either path must equal a scalar solve of that lane's
//! own view, members and value; the closed form keeps lanes that differ
//! only at a boundary transistor, which the general path evicts, so the
//! two agree pass for pass only on vicinities of more than one node.

use crate::solve::{PackedScratch, Scratch};
use crate::state::{DenseState, LaneView, PackedDenseState, PackedState, SwitchState};
use fmossim_netlist::{Conduction, Drive, Logic, Network, NodeId, Size, TransistorType};
use proptest::prelude::*;
use proptest::TestRng;

const TYPES: [TransistorType; 3] = [TransistorType::N, TransistorType::P, TransistorType::D];
const VALUES: [Logic; 3] = [Logic::L, Logic::H, Logic::X];
const CONDUCTIONS: [Conduction; 3] = [Conduction::Open, Conduction::Closed, Conduction::Maybe];

/// One channel transistor at the seed: `(type, drive, gate, far end)`.
/// The far end selects the seed itself (a self-loop), a storage
/// neighbour, or an input; the gate any node.
type EdgeRecipe = (u8, u8, u16, u16);

/// A random single-node neighbourhood.
#[derive(Clone, Debug)]
struct Recipe {
    seed_size: u8,
    seed_value: u8,
    /// Values of the inputs (beyond the two rails).
    inputs: Vec<u8>,
    /// `(size, value)` of the storage neighbours.
    neighbours: Vec<(u8, u8)>,
    edges: Vec<EdgeRecipe>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        (1u8..=7, 0u8..3),
        prop::collection::vec(0u8..3, 1..5),
        prop::collection::vec((1u8..=7, 0u8..3), 0..3),
        prop::collection::vec((0u8..3, 1u8..=7, any::<u16>(), any::<u16>()), 1..7),
    )
        .prop_map(|((seed_size, seed_value), inputs, neighbours, mut edges)| {
            // One input reached through several transistors: repeat
            // the first edge's far end with a second transistor.
            let (ty, g, gate, end) = edges[0];
            edges.push(((ty + 1) % 3, g % 7 + 1, gate / 3, end));
            Recipe {
                seed_size,
                seed_value,
                inputs,
                neighbours,
                edges,
            }
        })
}

/// A built neighbourhood: the network, its reset-with-values state, and
/// the seed.
struct Hood {
    net: Network,
    values: Vec<(NodeId, Logic)>,
    inputs: Vec<NodeId>,
    seed: NodeId,
}

fn build(r: &Recipe) -> Hood {
    let mut net = Network::new();
    let mut values = Vec::new();
    let mut inputs = vec![
        net.add_input("Vdd", Logic::H),
        net.add_input("Gnd", Logic::L),
    ];
    for (i, &v) in r.inputs.iter().enumerate() {
        let n = net.add_input(format!("I{i}"), VALUES[v as usize]);
        inputs.push(n);
    }
    let seed = net.add_storage("S", Size::new(r.seed_size).expect("size in range"));
    values.push((seed, VALUES[r.seed_value as usize]));
    let mut storage = vec![seed];
    for (i, &(size, v)) in r.neighbours.iter().enumerate() {
        let n = net.add_storage(format!("N{i}"), Size::new(size).expect("size in range"));
        values.push((n, VALUES[v as usize]));
        storage.push(n);
    }
    let all: Vec<NodeId> = net.node_ids().collect();
    for &(ty, g, gate, end) in &r.edges {
        // One end in eight is a self-loop and one a storage neighbour
        // (when there is one); the rest lead to inputs.
        let far = match end % 8 {
            0 => seed,
            1 if storage.len() > 1 => storage[1 + (end as usize / 8) % (storage.len() - 1)],
            _ => inputs[(end as usize / 8) % inputs.len()],
        };
        net.add_transistor(
            TYPES[ty as usize],
            Drive::new(g).expect("drive in range"),
            all[gate as usize % all.len()],
            seed,
            far,
        );
    }
    Hood {
        net,
        values,
        inputs,
        seed,
    }
}

fn dense<'n>(h: &'n Hood) -> DenseState<'n> {
    let mut st = DenseState::new(&h.net);
    for &(n, v) in &h.values {
        st.force(n, v);
    }
    st
}

/// Per-lane perturbations of a packed neighbourhood:
/// `(node selector, value)` input-value and forced-node overrides and
/// `(transistor selector, conduction)` forced-conduction overrides, each
/// with its lane.
#[derive(Clone, Debug)]
struct LaneRecipe {
    lanes: u32,
    input_values: Vec<(u8, u16, u8)>,
    forced_nodes: Vec<(u8, u16, u8)>,
    forced_conduction: Vec<(u8, u16, u8)>,
}

fn arb_lanes() -> impl Strategy<Value = LaneRecipe> {
    (
        2u32..=9,
        prop::collection::vec((0u8..64, any::<u16>(), 0u8..3), 0..8),
        prop::collection::vec((0u8..64, any::<u16>(), 0u8..3), 0..3),
        prop::collection::vec((0u8..64, any::<u16>(), 0u8..3), 0..4),
    )
        .prop_map(
            |(lanes, input_values, forced_nodes, forced_conduction)| LaneRecipe {
                lanes,
                input_values,
                forced_nodes,
                forced_conduction,
            },
        )
}

fn packed<'n>(h: &'n Hood, l: &LaneRecipe) -> PackedDenseState<'n> {
    let mut st = PackedDenseState::broadcast(&dense(h), l.lanes);
    let lane = |sel: u8| u32::from(sel) % l.lanes;
    for &(ln, sel, v) in &l.input_values {
        let n = h.inputs[sel as usize % h.inputs.len()];
        st.force_lane(n, lane(ln), VALUES[v as usize]);
    }
    // Stuck nodes land anywhere but on the seed (a seed must be a
    // storage node in every active lane).
    let others: Vec<NodeId> = h.net.node_ids().filter(|&n| n != h.seed).collect();
    for &(ln, sel, v) in &l.forced_nodes {
        st.force_input_lane(
            others[sel as usize % others.len()],
            lane(ln),
            VALUES[v as usize],
        );
    }
    let ts: Vec<_> = h.net.transistor_ids().collect();
    for &(ln, sel, c) in &l.forced_conduction {
        st.force_conduction_lane(
            ts[sel as usize % ts.len()],
            lane(ln),
            CONDUCTIONS[c as usize],
        );
    }
    st
}

/// Asserts that every lane of `kept` equals a scalar solve of that
/// lane's own view from `seed`: the same members in the same order,
/// and the same value at each. Returns whether every lane of `lanes`
/// has the seed alone as its vicinity.
fn lanes_match_scalar(
    st: &PackedDenseState<'_>,
    seed: NodeId,
    packed: &PackedScratch,
    kept: u64,
    lanes: u64,
) -> Result<bool, TestCaseError> {
    let net = st.network();
    let mut scalar = Scratch::new(net.num_nodes(), net.num_transistors());
    let mut all_single = true;
    let mut m = lanes;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let view = LaneView { st, lane };
        scalar.extract(&view, seed, false);
        scalar.steady_state(&view);
        all_single &= scalar.members.len() == 1;
        if kept & (1 << lane) == 0 {
            continue;
        }
        prop_assert_eq!(&packed.members, &scalar.members, "lane {} members", lane);
        for (i, &v) in scalar.out_values.iter().enumerate() {
            prop_assert_eq!(
                packed.out_values[i].get(lane),
                Some(v),
                "lane {} value",
                lane
            );
        }
    }
    Ok(all_single)
}

/// Solves the packed neighbourhood pass by pass (evicted lanes
/// re-solve from the seed, as the engine does) with the closed form,
/// and from each pass's lanes with the general path. Every kept lane of
/// either equals its scalar solve; a pass whose every lane has a
/// one-node vicinity evicts nothing; a pass over a larger vicinity
/// agrees with the general path exactly (kept and evicted lanes,
/// members, values). Returns whether some pass was a one-node vicinity,
/// and whether one of those kept lanes the general path evicts.
fn packed_kernel_matches(
    st: &PackedDenseState<'_>,
    seed: NodeId,
) -> Result<(bool, bool), TestCaseError> {
    let net = st.network();
    let mut kernel = PackedScratch::new(net.num_nodes(), net.num_transistors());
    let mut general = PackedScratch::new(net.num_nodes(), net.num_transistors());
    let mut pending = st.lanes();
    let (mut single, mut shared) = (false, false);
    while pending != 0 {
        let k = kernel.solve(st, seed, pending);
        let g = general.solve_general(st, seed, pending);
        prop_assert_eq!(k.0 & k.1, 0, "kept and evicted are disjoint");
        prop_assert_eq!(k.0 | k.1, pending, "every pending lane kept or evicted");
        prop_assert!(k.1 != pending, "eviction makes progress");
        let all_single = lanes_match_scalar(st, seed, &kernel, k.0, pending)?;
        lanes_match_scalar(st, seed, &general, g.0, g.0)?;
        if kernel.members.len() == 1 {
            single = true;
            shared |= g.0 != k.0;
            prop_assert_eq!(
                g.0 & !k.0,
                0,
                "the closed form keeps what the general path keeps"
            );
        } else {
            prop_assert_eq!(k, g, "kept/evicted lanes");
            prop_assert_eq!(&kernel.members, &general.members);
            prop_assert_eq!(&kernel.out_values, &general.out_values);
        }
        if all_single {
            prop_assert_eq!(
                k.1,
                0,
                "lanes differing only at the boundary share the pass"
            );
        }
        pending = k.1;
    }
    Ok((single, shared))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The scalar closed form against the general path, under both
    /// locality modes: identical members, values, incident transistors
    /// and boundary inputs (good-circuit triggering and the tape read
    /// all four).
    #[test]
    fn scalar_kernel_matches_general_path(r in arb_recipe()) {
        let h = build(&r);
        let st = dense(&h);
        let (n, t) = (h.net.num_nodes(), h.net.num_transistors());
        for static_locality in [false, true] {
            let mut kernel = Scratch::new(n, t);
            let mut general = Scratch::new(n, t);
            kernel.extract(&st, h.seed, static_locality);
            kernel.steady_state(&st);
            general.solve_general(&st, h.seed, static_locality);
            prop_assert_eq!(&kernel.members, &general.members);
            prop_assert_eq!(&kernel.out_values, &general.out_values);
            prop_assert_eq!(&kernel.incident, &general.incident);
            prop_assert_eq!(&kernel.boundary_inputs, &general.boundary_inputs);
        }
    }

    /// The packed closed form and the general packed path, with
    /// per-lane input values, stuck-node lanes and forced-conduction
    /// lanes: every kept lane equals its scalar solve, and on a
    /// vicinity of more than one node the two paths agree pass for
    /// pass.
    #[test]
    fn packed_kernel_matches_general_path(r in arb_recipe(), l in arb_lanes()) {
        let h = build(&r);
        let st = packed(&h, &l);
        packed_kernel_matches(&st, h.seed)?;
    }
}

/// The generator reaches what the differential tests claim to cover:
/// one-node vicinities on both solvers, with every transistor type,
/// drive, seed size and seed value, and X gates, and packed one-node
/// passes that keep lanes differing at a boundary transistor.
#[test]
fn generator_covers_single_node_shapes() {
    let mut rng = TestRng::deterministic("generator_covers_single_node_shapes");
    let (recipes, lanes) = (arb_recipe(), arb_lanes());
    const CASES: usize = 2000;
    let mut type_drive = [[false; 7]; 3];
    let mut size_value = [[false; 3]; 7];
    let (mut single, mut x_gate, mut packed_single, mut shared) = (0, 0, 0, 0);
    for _ in 0..CASES {
        let r = recipes.new_value(&mut rng);
        let h = build(&r);
        let st = dense(&h);
        let mut scratch = Scratch::new(h.net.num_nodes(), h.net.num_transistors());
        scratch.extract(&st, h.seed, false);
        if scratch.members.len() == 1 {
            single += 1;
            size_value[r.seed_size as usize - 1][r.seed_value as usize] = true;
            for &(ty, g, _, _) in &r.edges {
                type_drive[ty as usize][g as usize - 1] = true;
            }
            if h.net
                .transistor_ids()
                .any(|t| st.node_state(h.net.transistor(t).gate) == Logic::X)
            {
                x_gate += 1;
            }
        }
        let l = lanes.new_value(&mut rng);
        let (one_node, boundary_shared) =
            packed_kernel_matches(&packed(&h, &l), h.seed).expect("packed kernel agrees");
        packed_single += usize::from(one_node);
        shared += usize::from(boundary_shared);
    }
    assert!(single * 2 > CASES, "{single} of {CASES} single-node");
    assert!(packed_single * 2 > CASES, "{packed_single} of {CASES}");
    assert!(
        shared * 4 > CASES,
        "{shared} of {CASES} share lanes across a boundary"
    );
    assert!(x_gate > 0, "X gates reach one-node vicinities");
    assert!(
        type_drive.iter().flatten().all(|&b| b),
        "every type x drive"
    );
    assert!(
        size_value.iter().flatten().all(|&b| b),
        "every size x value"
    );
}

/// A CMOS inverter with the lanes {fault-free, pull-up stuck open,
/// pull-down stuck closed, X gate}: the lanes disagree only on the
/// conduction of the two boundary transistors, so one pass keeps all
/// four, and each equals its scalar solve.
#[test]
fn cmos_inverter_fault_lanes_share_one_pass() {
    let mut net = Network::new();
    let vdd = net.add_input("Vdd", Logic::H);
    let gnd = net.add_input("Gnd", Logic::L);
    let input = net.add_input("IN", Logic::L);
    let out = net.add_storage("OUT", Size::S1);
    let up = net.add_transistor(TransistorType::P, Drive::D2, input, vdd, out);
    let down = net.add_transistor(TransistorType::N, Drive::D2, input, out, gnd);
    let mut base = DenseState::new(&net);
    base.force(out, Logic::L);
    let mut st = PackedDenseState::broadcast(&base, 4);
    st.force_conduction_lane(up, 1, Conduction::Open);
    st.force_conduction_lane(down, 2, Conduction::Closed);
    st.force_lane(input, 3, Logic::X);
    let mut packed = PackedScratch::new(net.num_nodes(), net.num_transistors());
    assert_eq!(
        packed.solve(&st, out, 0b1111),
        (0b1111, 0),
        "one pass, no eviction"
    );
    assert!(lanes_match_scalar(&st, out, &packed, 0b1111, 0b1111).expect("lanes match"));
    let values: Vec<_> = (0..4).map(|l| packed.out_values[0].get(l)).collect();
    assert_eq!(
        values,
        [
            Some(Logic::H),
            Some(Logic::L),
            Some(Logic::X),
            Some(Logic::X)
        ],
        "pulled up; charge kept; fight; X gate"
    );
}

/// At a NAND2 output the lanes disagree on the series transistor to the
/// internal node: it decides whether that node is a member, so the
/// disagreement still evicts, and every lane still equals its scalar
/// solve.
#[test]
fn nand2_series_transistor_disagreement_evicts() {
    let mut net = Network::new();
    let vdd = net.add_input("Vdd", Logic::H);
    let gnd = net.add_input("Gnd", Logic::L);
    let a = net.add_input("A", Logic::H);
    let b = net.add_input("B", Logic::H);
    let out = net.add_storage("OUT", Size::S1);
    let mid = net.add_storage("MID", Size::S1);
    net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
    net.add_transistor(TransistorType::P, Drive::D2, b, vdd, out);
    net.add_transistor(TransistorType::N, Drive::D2, a, out, mid);
    net.add_transistor(TransistorType::N, Drive::D2, b, mid, gnd);
    let mut st = PackedDenseState::broadcast(&DenseState::new(&net), 2);
    st.force_lane(a, 1, Logic::L);
    let mut packed = PackedScratch::new(net.num_nodes(), net.num_transistors());
    let (kept, evicted) = packed.solve(&st, out, 0b11);
    assert_eq!((kept, evicted), (0b01, 0b10), "lane 1 has no MID: evicted");
    assert_eq!(packed.members, [out, mid]);
    packed_kernel_matches(&st, out).expect("every lane matches its scalar solve");
}
