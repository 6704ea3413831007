//! Differential tests of the packed and single-node solvers.
//!
//! A random neighbourhood is one seed storage node with channel
//! transistors to inputs, to itself (self-loops) and occasionally to
//! other storage nodes, which may also be linked to each other, gated
//! by inputs or storage nodes of any value (X gates included). Most
//! seeds are one-node vicinities, which the solvers resolve in closed
//! form; the general path is reached through the test-only
//! `solve_general` entry points. On the scalar side the two must agree
//! bit for bit: values, incident transistors and boundary inputs, under
//! both locality modes. On the packed side, per-lane gate values,
//! stuck nodes and forced conduction make the lanes' vicinities differ
//! in members, and a stuck neighbour is an input in some lanes only.
//! Every kept lane of either path must equal a scalar solve of that
//! lane's own view (its members, in order, and their values), and the
//! closed form and the general path agree pass for pass.

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

/// A random neighbourhood of a seed.
#[derive(Clone, Debug)]
struct Recipe {
    seed_size: u8,
    seed_value: u8,
    /// Values of the inputs (beyond the two rails).
    inputs: Vec<u8>,
    /// `(size, value)` of the storage neighbours.
    neighbours: Vec<(u8, u8)>,
    edges: Vec<EdgeRecipe>,
    /// Channel transistors between two storage neighbours, or from one
    /// to an input: `(type, drive, gate, ends)`.
    links: Vec<EdgeRecipe>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        (1u8..=7, 0u8..3),
        prop::collection::vec(0u8..3, 1..5),
        prop::collection::vec((1u8..=7, 0u8..3), 0..4),
        prop::collection::vec((0u8..3, 1u8..=7, any::<u16>(), any::<u16>()), 1..7),
        prop::collection::vec((0u8..3, 1u8..=7, any::<u16>(), any::<u16>()), 0..4),
    )
        .prop_map(
            |((seed_size, seed_value), inputs, neighbours, mut edges, links)| {
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
                    links,
                }
            },
        )
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
    // Links hang off the neighbours: to another neighbour (a second
    // level of the vicinity, or a cycle through the seed) or to an
    // input.
    for &(ty, g, gate, ends) in &r.links {
        if storage.len() < 2 {
            break;
        }
        let near = storage[1 + (ends as usize) % (storage.len() - 1)];
        let far = if ends % 4 == 0 {
            inputs[(ends as usize / 4) % inputs.len()]
        } else {
            storage[1 + (ends as usize / 4) % (storage.len() - 1)]
        };
        net.add_transistor(
            TYPES[ty as usize],
            Drive::new(g).expect("drive in range"),
            all[gate as usize % all.len()],
            near,
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
/// lane's own view from `seed`: its members (the packed members whose
/// lane mask holds it) in the same order, and the same value at each.
/// Returns whether every lane of `lanes` has the seed alone as its
/// vicinity.
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
        let own: Vec<usize> = (0..packed.members.len())
            .filter(|&i| packed.member_lanes[i] & (1 << lane) != 0)
            .collect();
        let members: Vec<NodeId> = own.iter().map(|&i| packed.members[i]).collect();
        prop_assert_eq!(&members, &scalar.members, "lane {} members", lane);
        for (&i, &v) in own.iter().zip(&scalar.out_values) {
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

/// What one neighbourhood's packed passes exercised.
#[derive(Clone, Copy, Debug, Default)]
struct PassShapes {
    /// Some pass was a one-node vicinity.
    single: bool,
    /// A one-node pass kept lanes that differ in a boundary
    /// transistor's conduction.
    boundary_shared: bool,
    /// A pass kept lanes whose vicinities differ in members.
    members_differ: bool,
    /// A pass kept a lane in which a member of another kept lane is an
    /// input (a stuck node).
    split_input: bool,
    /// A pass evicted lanes by the order rule.
    order_evicted: bool,
}

/// Solves the packed neighbourhood pass by pass (evicted lanes
/// re-solve from the seed, as the engine does) with the closed form and
/// with the general path. The two agree pass for pass (kept and evicted
/// lanes, members, lane masks, values); every kept lane equals its
/// scalar solve; a pass whose every lane has a one-node vicinity evicts
/// nothing; and every pass keeps a lane.
fn packed_kernel_matches(
    st: &PackedDenseState<'_>,
    seed: NodeId,
) -> Result<PassShapes, TestCaseError> {
    let net = st.network();
    let mut kernel = PackedScratch::new(net.num_nodes());
    let mut general = PackedScratch::new(net.num_nodes());
    let mut pending = st.lanes();
    let mut shapes = PassShapes::default();
    while pending != 0 {
        let k = kernel.solve(st, seed, pending);
        let g = general.solve_general(st, seed, pending);
        prop_assert_eq!(k.0 & k.1, 0, "kept and evicted are disjoint");
        prop_assert_eq!(k.0 | k.1, pending, "every pending lane kept or evicted");
        prop_assert!(k.0 != 0, "every pass keeps a lane");
        prop_assert_eq!(k, g, "kept/evicted lanes");
        prop_assert_eq!(&kernel.members, &general.members);
        prop_assert_eq!(&kernel.member_lanes, &general.member_lanes);
        prop_assert_eq!(&kernel.out_values, &general.out_values);
        let all_single = lanes_match_scalar(st, seed, &kernel, k.0, pending)?;
        if all_single {
            prop_assert_eq!(k.1, 0, "one-node vicinities evict nothing");
        }
        let kept = k.0;
        let several = kept & (kept - 1) != 0;
        if kernel.members.len() == 1 {
            shapes.single = true;
            shapes.boundary_shared |= several
                && net.channel_transistors(seed).iter().any(|&t| {
                    let pc = st.conduction(t);
                    let closed = pc.closed & kept;
                    let maybe = pc.maybe & kept;
                    (closed != 0 && closed != kept) || (maybe != 0 && maybe != kept)
                });
        }
        let lanes_of = || kernel.member_lanes.iter().map(|&l| l & kept);
        shapes.members_differ |= several && lanes_of().any(|l| l != kept);
        shapes.split_input |= kernel
            .members
            .iter()
            .zip(lanes_of())
            .any(|(&n, l)| l != 0 && st.is_input_lanes(n) & kept != 0);
        shapes.order_evicted |= k.1 != 0;
        pending = k.1;
    }
    Ok(shapes)
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
    /// lanes: every kept lane equals its scalar solve, and the two
    /// paths agree pass for pass.
    #[test]
    fn packed_kernel_matches_general_path(r in arb_recipe(), l in arb_lanes()) {
        let h = build(&r);
        let st = packed(&h, &l);
        packed_kernel_matches(&st, h.seed)?;
    }
}

/// The generator reaches what the differential tests claim to cover:
/// one-node vicinities on both solvers, with every transistor type,
/// drive, seed size and seed value, and X gates; packed one-node passes
/// that keep lanes differing at a boundary transistor; and multi-node
/// passes that keep lanes whose members differ, that keep a lane in
/// which another lane's member is an input, and that evict by the
/// order rule.
#[test]
fn generator_covers_single_node_shapes() {
    let mut rng = TestRng::deterministic("generator_covers_single_node_shapes");
    let (recipes, lanes) = (arb_recipe(), arb_lanes());
    const CASES: usize = 2000;
    let mut type_drive = [[false; 7]; 3];
    let mut size_value = [[false; 3]; 7];
    let (mut single, mut x_gate, mut packed_single, mut shared) = (0, 0, 0, 0);
    let (mut differ, mut split, mut evicted) = (0, 0, 0);
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
        let shapes = packed_kernel_matches(&packed(&h, &l), h.seed).expect("packed kernel agrees");
        packed_single += usize::from(shapes.single);
        shared += usize::from(shapes.boundary_shared);
        differ += usize::from(shapes.members_differ);
        split += usize::from(shapes.split_input);
        evicted += usize::from(shapes.order_evicted);
    }
    assert!(single * 2 > CASES, "{single} of {CASES} single-node");
    assert!(packed_single * 2 > CASES, "{packed_single} of {CASES}");
    assert!(
        shared * 4 > CASES,
        "{shared} of {CASES} share lanes across a boundary"
    );
    assert!(
        differ * 20 > CASES,
        "{differ} of {CASES} keep lanes whose members differ"
    );
    assert!(
        split * 50 > CASES,
        "{split} of {CASES} keep a lane where another lane's member is stuck"
    );
    assert!(
        evicted * 200 > CASES,
        "{evicted} of {CASES} evict by the order rule"
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
    let mut packed = PackedScratch::new(net.num_nodes());
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
/// internal node: MID is a member in lane 0 only, and both lanes share
/// the pass, each equal to its scalar solve.
#[test]
fn nand2_series_transistor_disagreement_shares_the_pass() {
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
    let mut packed = PackedScratch::new(net.num_nodes());
    assert_eq!(packed.solve(&st, out, 0b11), (0b11, 0), "one pass");
    assert_eq!(packed.members, [out, mid]);
    assert_eq!(packed.member_lanes, [0b11, 0b01], "lane 1 has no MID");
    assert!(!lanes_match_scalar(&st, out, &packed, 0b11, 0b11).expect("lanes match"));
    packed_kernel_matches(&st, out).expect("every lane matches its scalar solve");
}

/// A 3T-DRAM read column: the precharged bitline RBL reaches each row's
/// MID through that row's read select, and MID reaches ground through
/// the transistor its cell gates. Each lane selects a different row (a
/// decoder fault), and one lane none: the lanes' vicinities share only
/// RBL, yet one pass keeps them all, each equal to its scalar solve.
#[test]
fn ram_column_lanes_selecting_different_cells_share_one_pass() {
    let mut net = Network::new();
    let gnd = net.add_input("Gnd", Logic::L);
    let rbl = net.add_storage("RBL", Size::S2);
    let mut rows = Vec::new();
    for r in 0..4 {
        let rs = net.add_input(format!("RS{r}"), Logic::L);
        let cell = net.add_storage(format!("CELL{r}"), Size::S1);
        let mid = net.add_storage(format!("MID{r}"), Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, rs, rbl, mid);
        net.add_transistor(TransistorType::N, Drive::D2, cell, mid, gnd);
        rows.push((rs, cell, mid));
    }
    let mut base = DenseState::new(&net);
    base.force(rbl, Logic::H);
    for (r, &(_, cell, mid)) in rows.iter().enumerate() {
        base.force(cell, [Logic::H, Logic::L, Logic::X, Logic::H][r]);
        base.force(mid, Logic::L);
    }
    let mut st = PackedDenseState::broadcast(&base, 5);
    for (lane, &(rs, _, _)) in rows.iter().enumerate() {
        st.force_lane(rs, u32::try_from(lane).expect("lane"), Logic::H);
    }
    let mut packed = PackedScratch::new(net.num_nodes());
    assert_eq!(packed.solve(&st, rbl, 0b11111), (0b11111, 0), "one pass");
    let mids: Vec<NodeId> = rows.iter().map(|&(_, _, mid)| mid).collect();
    assert_eq!(packed.members[0], rbl);
    assert_eq!(&packed.members[1..], &mids[..]);
    assert_eq!(
        packed.member_lanes,
        [0b11111, 0b0001, 0b0010, 0b0100, 0b1000]
    );
    assert!(!lanes_match_scalar(&st, rbl, &packed, 0b11111, 0b11111).expect("lanes match"));
    let rbl_values: Vec<_> = (0..5).map(|l| packed.out_values[0].get(l)).collect();
    assert_eq!(
        rbl_values,
        [
            Some(Logic::L),
            Some(Logic::H),
            Some(Logic::X),
            Some(Logic::L),
            Some(Logic::H)
        ],
        "discharged; kept; maybe; discharged; unselected"
    );
}

/// vdd -(EN)- A -(CLK)- B -(CLK)- C, all gates high. In lane 1 B is
/// stuck at 0: a source of A's vicinity there, which ends at A, while
/// lane 0's vicinity runs on to C. One pass keeps both lanes.
#[test]
fn stuck_node_lane_sees_the_forced_member_as_a_source() {
    let mut net = Network::new();
    let vdd = net.add_input("Vdd", Logic::H);
    let en = net.add_input("EN", Logic::H);
    let clk = net.add_input("CLK", Logic::H);
    let a = net.add_storage("A", Size::S1);
    let b = net.add_storage("B", Size::S1);
    let c = net.add_storage("C", Size::S1);
    net.add_transistor(TransistorType::N, Drive::D2, en, vdd, a);
    net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
    net.add_transistor(TransistorType::N, Drive::D2, clk, b, c);
    let mut st = PackedDenseState::broadcast(&DenseState::new(&net), 2);
    st.force_input_lane(b, 1, Logic::L);
    let mut packed = PackedScratch::new(net.num_nodes());
    assert_eq!(packed.solve(&st, a, 0b11), (0b11, 0), "one pass");
    assert_eq!(packed.members, [a, b, c]);
    assert_eq!(packed.member_lanes, [0b11, 0b01, 0b01]);
    assert!(!lanes_match_scalar(&st, a, &packed, 0b11, 0b11).expect("lanes match"));
    assert_eq!(packed.out_values[0].get(0), Some(Logic::H), "driven");
    assert_eq!(packed.out_values[0].get(1), Some(Logic::X), "fights B");
    assert_eq!(packed.out_values[2].get(0), Some(Logic::H));
    assert_eq!(packed.out_values[2].get(1), None, "C is not lane 1's");
}

/// S reaches X through T1 and Y through T2, and X and Y are linked. Both
/// lanes conduct T2; only lane 0 conducts T1. The union scan finds X
/// from S in lane 0 alone, before Y; lane 1 reaches X only later, from
/// Y, so in lane 1's own scan X comes after Y: the order rule evicts
/// lane 1, and its re-solve is its scalar solve.
#[test]
fn lane_found_out_of_its_own_order_is_evicted() {
    let mut net = Network::new();
    let vdd = net.add_input("Vdd", Logic::H);
    let en = net.add_input("EN", Logic::H);
    let g1 = net.add_input("G1", Logic::H);
    let s = net.add_storage("S", Size::S1);
    let x = net.add_storage("X", Size::S1);
    let y = net.add_storage("Y", Size::S1);
    net.add_transistor(TransistorType::N, Drive::D2, en, vdd, s);
    net.add_transistor(TransistorType::N, Drive::D2, g1, s, x);
    net.add_transistor(TransistorType::N, Drive::D2, en, s, y);
    net.add_transistor(TransistorType::N, Drive::D2, en, x, y);
    let mut st = PackedDenseState::broadcast(&DenseState::new(&net), 2);
    st.force_lane(g1, 1, Logic::L);
    let mut packed = PackedScratch::new(net.num_nodes());
    assert_eq!(packed.solve(&st, s, 0b11), (0b01, 0b10), "lane 1 evicted");
    assert_eq!(packed.members, [s, x, y]);
    assert!(!lanes_match_scalar(&st, s, &packed, 0b01, 0b11).expect("lanes match"));
    assert_eq!(packed.solve(&st, s, 0b10), (0b10, 0), "alone, kept");
    assert_eq!(packed.members, [s, y, x]);
    packed_kernel_matches(&st, s).expect("every lane matches its scalar solve");
}
