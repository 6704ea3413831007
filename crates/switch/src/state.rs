//! State views: how the solver reads and writes node states.
//!
//! Two families live here. [`SwitchState`] is the scalar view — one
//! circuit, one [`Logic`] per node — that the [`Engine`](crate::Engine)
//! and [`Scratch`](crate::Scratch) drive. [`PackedState`] is its
//! bit-parallel sibling: up to 64 fault machines evaluated at once,
//! each ternary node value encoded across two `u64` *planes*
//! ([`PackedLogic`]), so one pass of bitwise plane operations settles
//! every machine in the word.

use fmossim_netlist::{Conduction, Logic, Network, NodeId, TransistorId, TransistorType};

/// A read/write view of a network's simulation state.
///
/// The steady-state solver and the [`Engine`](crate::Engine) are generic
/// over this trait so that the *same* algorithm simulates:
///
/// * the fault-free circuit (a dense state vector, [`DenseState`]);
/// * a faulty circuit in the concurrent simulator (divergence records
///   overlaid on the good circuit's dense state);
/// * a faulty circuit in the serial baseline (a dense state vector plus
///   structural overrides).
///
/// The three overridable queries (`is_input`, `conduction`) exist
/// because faults change them per circuit: a stuck node behaves as an
/// input node; a stuck transistor ignores its gate.
pub trait SwitchState {
    /// The network being simulated. The engine assumes the network
    /// outlives and is never structurally modified during a settle.
    fn network(&self) -> &Network;

    /// Current logic state of node `n`.
    fn node_state(&self, n: NodeId) -> Logic;

    /// Writes a new state for node `n`. Called only for nodes that are
    /// not input-classified under [`SwitchState::is_input`].
    fn set_node_state(&mut self, n: NodeId, v: Logic);

    /// Whether `n` acts as an input (externally forced) node in this
    /// view. Defaults to the netlist classification; stuck-node faults
    /// override this.
    #[inline]
    fn is_input(&self, n: NodeId) -> bool {
        self.network().node(n).is_input()
    }

    /// Conduction state of transistor `t` in this view. Defaults to the
    /// type-dependent function of the gate-node state (Table 1);
    /// stuck-open/closed faults override this.
    #[inline]
    fn conduction(&self, t: TransistorId) -> Conduction {
        let tr = self.network().transistor(t);
        tr.ttype.conduction(self.node_state(tr.gate))
    }
}

/// Dense per-node state storage for whole-circuit simulation.
///
/// Storage nodes start at `X` (uninitialized charge); input nodes start
/// at their declared default values.
#[derive(Clone, Debug)]
pub struct DenseState<'n> {
    net: &'n Network,
    states: Vec<Logic>,
}

impl<'n> DenseState<'n> {
    /// Creates the reset state for `net`: inputs at their defaults,
    /// storage nodes at `X`.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        let states = net
            .nodes()
            .map(|(_, node)| match node.class {
                fmossim_netlist::NodeClass::Input(v) => v,
                fmossim_netlist::NodeClass::Storage(_) => Logic::X,
            })
            .collect();
        DenseState { net, states }
    }

    /// Direct read access to the state vector (for snapshotting and
    /// divergence comparison in the fault simulator).
    #[must_use]
    pub fn states(&self) -> &[Logic] {
        &self.states
    }

    /// Overwrites the state of `n` without any perturbation bookkeeping.
    /// Used by the engine for input application; simulators should go
    /// through [`crate::Engine::apply_input`].
    #[inline]
    pub fn force(&mut self, n: NodeId, v: Logic) {
        self.states[n.index()] = v;
    }
}

impl SwitchState for DenseState<'_> {
    #[inline]
    fn network(&self) -> &Network {
        self.net
    }

    #[inline]
    fn node_state(&self, n: NodeId) -> Logic {
        self.states[n.index()]
    }

    #[inline]
    fn set_node_state(&mut self, n: NodeId, v: Logic) {
        self.states[n.index()] = v;
    }
}

/// Up to 64 ternary logic values in a two-plane bit encoding.
///
/// Lane `i` (bit `i` of each plane) holds one fault machine's value:
///
/// | value | `h` bit | `l` bit |
/// |-------|---------|---------|
/// | `H`   | 1       | 0       |
/// | `L`   | 0       | 1       |
/// | `X`   | 1       | 1       |
///
/// The encoding is chosen so the common lattice queries are single
/// bitwise operations: `lub` is plane-wise OR, "may be high"
/// (`old ∈ {H, X}`) is the `h` plane, "may be low" is the `l` plane,
/// and "definitely high" is `h & !l`. Both bits clear means the lane is
/// inactive; active lanes always have at least one bit set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedLogic {
    /// Plane of "may be high" bits (set for `H` and `X` lanes).
    pub h: u64,
    /// Plane of "may be low" bits (set for `L` and `X` lanes).
    pub l: u64,
}

impl PackedLogic {
    /// Broadcasts a scalar value to every lane in `lanes`.
    #[inline]
    #[must_use]
    pub fn splat(v: Logic, lanes: u64) -> Self {
        match v {
            Logic::H => PackedLogic { h: lanes, l: 0 },
            Logic::L => PackedLogic { h: 0, l: lanes },
            Logic::X => PackedLogic { h: lanes, l: lanes },
        }
    }

    /// Reads the value of lane `lane`. Returns `None` if the lane is
    /// inactive (both plane bits clear).
    #[inline]
    #[must_use]
    pub fn get(self, lane: u32) -> Option<Logic> {
        let bit = 1u64 << lane;
        match (self.h & bit != 0, self.l & bit != 0) {
            (true, false) => Some(Logic::H),
            (false, true) => Some(Logic::L),
            (true, true) => Some(Logic::X),
            (false, false) => None,
        }
    }

    /// Overwrites lane `lane` with `v`.
    #[inline]
    pub fn set(&mut self, lane: u32, v: Logic) {
        let bit = 1u64 << lane;
        self.h &= !bit;
        self.l &= !bit;
        match v {
            Logic::H => self.h |= bit,
            Logic::L => self.l |= bit,
            Logic::X => {
                self.h |= bit;
                self.l |= bit;
            }
        }
    }

    /// Per-lane least upper bound (`X` damping): plane-wise OR, so any
    /// lane where the two values differ becomes `X`.
    #[inline]
    #[must_use]
    pub fn lub(self, other: Self) -> Self {
        PackedLogic {
            h: self.h | other.h,
            l: self.l | other.l,
        }
    }

    /// Mask of lanes where `self` and `other` hold different values
    /// (inactive lanes compare on their raw plane bits).
    #[inline]
    #[must_use]
    pub fn diff_mask(self, other: Self) -> u64 {
        (self.h ^ other.h) | (self.l ^ other.l)
    }

    /// Mask of lanes that are exactly `H`.
    #[inline]
    #[must_use]
    pub fn exactly_h(self) -> u64 {
        self.h & !self.l
    }

    /// Mask of lanes that are exactly `L`.
    #[inline]
    #[must_use]
    pub fn exactly_l(self) -> u64 {
        self.l & !self.h
    }

    /// Mask of lanes that are `X`.
    #[inline]
    #[must_use]
    pub fn is_x(self) -> u64 {
        self.h & self.l
    }

    /// Restricts both planes to `lanes`.
    #[inline]
    #[must_use]
    pub fn masked(self, lanes: u64) -> Self {
        PackedLogic {
            h: self.h & lanes,
            l: self.l & lanes,
        }
    }

    /// Merges the lanes of `other` selected by `lanes` into `self`,
    /// leaving other lanes untouched.
    #[inline]
    pub fn overlay(&mut self, other: Self, lanes: u64) {
        self.h = (self.h & !lanes) | (other.h & lanes);
        self.l = (self.l & !lanes) | (other.l & lanes);
    }
}

/// Per-lane conduction classification of one transistor.
///
/// Active lanes not in `closed` or `maybe` are open. The packed solver
/// keeps the classes per lane: an edge carries a signal in the lanes
/// where it may conduct, and definitely in those where it is closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedConduction {
    /// Lanes where the transistor definitely conducts.
    pub closed: u64,
    /// Lanes where the transistor may conduct (gate at `X`).
    pub maybe: u64,
}

impl PackedConduction {
    /// Classifies `ttype` from the packed gate value, Table 1 per lane:
    /// N closed on `H`, P closed on `L`, both `Maybe` on `X`; depletion
    /// devices always conduct.
    #[inline]
    #[must_use]
    pub fn from_gate(ttype: TransistorType, gate: PackedLogic, lanes: u64) -> Self {
        match ttype {
            TransistorType::N => PackedConduction {
                closed: gate.exactly_h() & lanes,
                maybe: gate.is_x() & lanes,
            },
            TransistorType::P => PackedConduction {
                closed: gate.exactly_l() & lanes,
                maybe: gate.is_x() & lanes,
            },
            TransistorType::D => PackedConduction {
                closed: lanes,
                maybe: 0,
            },
        }
    }

    /// Lanes where the transistor may pass a signal (closed or maybe).
    #[inline]
    #[must_use]
    pub fn may_conduct(self) -> u64 {
        self.closed | self.maybe
    }
}

/// A read/write view over up to 64 fault machines at once — the
/// bit-parallel sibling of [`SwitchState`].
///
/// Lane `i` of every [`PackedLogic`] belongs to one fault machine; the
/// active machines are the set bits of [`PackedState::lanes`]. The
/// packed solver and [`PackedEngine`](crate::PackedEngine) are generic
/// over this trait so that the switch crate can be tested against a
/// dense implementation ([`PackedDenseState`]) while `fmossim-core`
/// supplies a view that gathers lanes from the concurrent simulator's
/// divergence records.
///
/// Like the scalar trait, `is_input_lanes` and `conduction` are
/// overridable because faults change them per machine — here per
/// *lane*.
pub trait PackedState {
    /// The network being simulated.
    fn network(&self) -> &Network;

    /// Mask of active lanes. Must stay constant during a settle.
    fn lanes(&self) -> u64;

    /// Current value of node `n` across all active lanes.
    fn node_state(&self, n: NodeId) -> PackedLogic;

    /// Writes `v`'s value into node `n` for each lane in `lanes` only;
    /// other lanes keep their current value. Called only for lanes that
    /// are not input-classified under [`PackedState::is_input_lanes`].
    fn set_node_state(&mut self, n: NodeId, lanes: u64, v: PackedLogic);

    /// Mask of lanes in which `n` acts as an input (externally forced)
    /// node. Defaults to the netlist classification (all lanes or
    /// none); stuck-node faults add per-lane bits.
    #[inline]
    fn is_input_lanes(&self, n: NodeId) -> u64 {
        if self.network().node(n).is_input() {
            self.lanes()
        } else {
            0
        }
    }

    /// Per-lane conduction of transistor `t`. Defaults to the
    /// type-dependent function of the packed gate value;
    /// stuck-open/closed faults override individual lanes.
    #[inline]
    fn conduction(&self, t: TransistorId) -> PackedConduction {
        let tr = self.network().transistor(t);
        PackedConduction::from_gate(tr.ttype, self.node_state(tr.gate), self.lanes())
    }

    /// Value of node `n` in the one active lane `lane`: the engine's
    /// one-lane solves read through this. Defaults to that lane of
    /// [`PackedState::node_state`]; a view that gathers lanes can read
    /// one lane without gathering the rest.
    #[inline]
    fn lane_state(&self, n: NodeId, lane: u32) -> Logic {
        self.node_state(n)
            .get(lane)
            .expect("active lane holds a value")
    }

    /// Conduction of transistor `t` in lane `lane`; that lane of
    /// [`PackedState::conduction`].
    #[inline]
    fn lane_conduction(&self, t: TransistorId, lane: u32) -> Conduction {
        let pc = self.conduction(t);
        let bit = 1 << lane;
        if pc.closed & bit != 0 {
            Conduction::Closed
        } else if pc.maybe & bit != 0 {
            Conduction::Maybe
        } else {
            Conduction::Open
        }
    }
}

/// One lane of a [`PackedState`] as a read-only scalar [`SwitchState`]:
/// the view behind the packed engine's one-lane solves, and the
/// per-lane oracle of the packed solver's tests. The solver only
/// reads; writes go through the packed state with a one-bit lane mask.
pub(crate) struct LaneView<'a, P> {
    pub(crate) st: &'a P,
    pub(crate) lane: u32,
}

impl<P: PackedState> SwitchState for LaneView<'_, P> {
    fn network(&self) -> &Network {
        self.st.network()
    }

    fn node_state(&self, n: NodeId) -> Logic {
        self.st.lane_state(n, self.lane)
    }

    fn set_node_state(&mut self, _n: NodeId, _v: Logic) {
        unreachable!("LaneView is the solver's read-only view");
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.st.is_input_lanes(n) & (1 << self.lane) != 0
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        self.st.lane_conduction(t, self.lane)
    }
}

/// Dense packed storage: a full two-plane value vector per node, with
/// optional per-lane input forcing and transistor conduction overrides.
///
/// This is the reference [`PackedState`] implementation used by the
/// switch crate's own tests and benchmarks; `fmossim-core` supplies a
/// record-backed view for the concurrent simulator instead.
#[derive(Clone, Debug)]
pub struct PackedDenseState<'n> {
    net: &'n Network,
    lanes: u64,
    values: Vec<PackedLogic>,
    input_lanes: Vec<u64>,
    forced_cond: Vec<(TransistorId, u64, Conduction)>,
}

impl<'n> PackedDenseState<'n> {
    /// Broadcasts a scalar state to `count` lanes (1..=64): every lane
    /// starts with the same per-node values and input classification.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds 64.
    #[must_use]
    pub fn broadcast(scalar: &DenseState<'n>, count: u32) -> Self {
        assert!((1..=64).contains(&count), "lane count must be in 1..=64");
        let lanes = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let net = scalar.net;
        let values = scalar
            .states()
            .iter()
            .map(|&v| PackedLogic::splat(v, lanes))
            .collect();
        let input_lanes = net
            .nodes()
            .map(|(_, node)| if node.is_input() { lanes } else { 0 })
            .collect();
        PackedDenseState {
            net,
            lanes,
            values,
            input_lanes,
            forced_cond: Vec::new(),
        }
    }

    /// Overwrites node `n` in lane `lane` without any bookkeeping.
    #[inline]
    pub fn force_lane(&mut self, n: NodeId, lane: u32, v: Logic) {
        self.values[n.index()].set(lane, v);
    }

    /// Additionally classifies `n` as an input in lane `lane` with value
    /// `v` (a stuck-node fault in that machine).
    pub fn force_input_lane(&mut self, n: NodeId, lane: u32, v: Logic) {
        self.input_lanes[n.index()] |= 1u64 << lane;
        self.force_lane(n, lane, v);
    }

    /// Forces transistor `t` to conduction `c` in lane `lane` (a
    /// stuck-open/closed fault in that machine).
    pub fn force_conduction_lane(&mut self, t: TransistorId, lane: u32, c: Conduction) {
        self.forced_cond.push((t, 1u64 << lane, c));
    }

    /// Extracts the scalar value of node `n` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the lane is inactive.
    #[must_use]
    pub fn lane_value(&self, n: NodeId, lane: u32) -> Logic {
        self.values[n.index()].get(lane).expect("active lane")
    }
}

impl PackedState for PackedDenseState<'_> {
    #[inline]
    fn network(&self) -> &Network {
        self.net
    }

    #[inline]
    fn lanes(&self) -> u64 {
        self.lanes
    }

    #[inline]
    fn node_state(&self, n: NodeId) -> PackedLogic {
        self.values[n.index()]
    }

    #[inline]
    fn set_node_state(&mut self, n: NodeId, lanes: u64, v: PackedLogic) {
        self.values[n.index()].overlay(v, lanes);
    }

    #[inline]
    fn is_input_lanes(&self, n: NodeId) -> u64 {
        self.input_lanes[n.index()]
    }

    fn conduction(&self, t: TransistorId) -> PackedConduction {
        let tr = self.net.transistor(t);
        let mut pc = PackedConduction::from_gate(tr.ttype, self.node_state(tr.gate), self.lanes);
        for &(ft, mask, c) in &self.forced_cond {
            if ft != t {
                continue;
            }
            pc.closed &= !mask;
            pc.maybe &= !mask;
            match c {
                Conduction::Closed => pc.closed |= mask,
                Conduction::Maybe => pc.maybe |= mask,
                Conduction::Open => {}
            }
        }
        pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::{Drive, Size, TransistorType};

    #[test]
    fn reset_state_matches_declarations() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::X);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        let st = DenseState::new(&net);
        assert_eq!(st.node_state(vdd), Logic::H);
        assert_eq!(st.node_state(gnd), Logic::L);
        assert_eq!(st.node_state(a), Logic::X);
        assert_eq!(st.node_state(s), Logic::X);
        assert!(st.is_input(a));
        assert!(!st.is_input(s));
    }

    #[test]
    fn conduction_tracks_gate_state() {
        let mut net = Network::new();
        let g = net.add_input("G", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_storage("B", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, g, a, b);
        let mut st = DenseState::new(&net);
        assert_eq!(st.conduction(t), Conduction::Open);
        st.force(g, Logic::H);
        assert_eq!(st.conduction(t), Conduction::Closed);
        st.force(g, Logic::X);
        assert_eq!(st.conduction(t), Conduction::Maybe);
    }

    #[test]
    fn packed_logic_roundtrip_and_masks() {
        let mut p = PackedLogic::splat(Logic::X, 0b111);
        p.set(0, Logic::H);
        p.set(1, Logic::L);
        assert_eq!(p.get(0), Some(Logic::H));
        assert_eq!(p.get(1), Some(Logic::L));
        assert_eq!(p.get(2), Some(Logic::X));
        assert_eq!(p.get(3), None);
        assert_eq!(p.exactly_h(), 0b001);
        assert_eq!(p.exactly_l(), 0b010);
        assert_eq!(p.is_x(), 0b100);
        // lub of H and L is X; lub of equal values is the value itself.
        let q = PackedLogic::splat(Logic::L, 0b011);
        let r = p.lub(q);
        assert_eq!(r.get(0), Some(Logic::X));
        assert_eq!(r.get(1), Some(Logic::L));
        assert_eq!(p.diff_mask(q) & 0b011, 0b001);
    }

    #[test]
    fn packed_overlay_touches_only_selected_lanes() {
        let mut p = PackedLogic::splat(Logic::H, 0b1111);
        p.overlay(PackedLogic::splat(Logic::L, 0b1111), 0b0110);
        assert_eq!(p.get(0), Some(Logic::H));
        assert_eq!(p.get(1), Some(Logic::L));
        assert_eq!(p.get(2), Some(Logic::L));
        assert_eq!(p.get(3), Some(Logic::H));
    }

    #[test]
    fn packed_conduction_matches_scalar_table() {
        for ttype in TransistorType::ALL {
            for v in Logic::ALL {
                let mut gate = PackedLogic::splat(Logic::X, 0b11);
                gate.set(0, v);
                let pc = PackedConduction::from_gate(ttype, gate, 0b11);
                let scalar = ttype.conduction(v);
                let bit = 1u64;
                assert_eq!(pc.closed & bit != 0, scalar == Conduction::Closed);
                assert_eq!(pc.maybe & bit != 0, scalar == Conduction::Maybe);
                assert_eq!(pc.may_conduct() & bit != 0, scalar.may_conduct());
            }
        }
    }

    #[test]
    fn packed_dense_broadcast_and_overrides() {
        let mut net = Network::new();
        let g = net.add_input("G", Logic::H);
        let a = net.add_input("A", Logic::L);
        let b = net.add_storage("B", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, g, a, b);
        let scalar = DenseState::new(&net);
        let mut p = PackedDenseState::broadcast(&scalar, 3);
        assert_eq!(p.lanes(), 0b111);
        assert_eq!(p.is_input_lanes(g), 0b111);
        assert_eq!(p.is_input_lanes(b), 0);
        assert_eq!(p.node_state(g), PackedLogic::splat(Logic::H, 0b111));
        // Lane 1 carries a stuck-at fault on B.
        p.force_input_lane(b, 1, Logic::H);
        assert_eq!(p.is_input_lanes(b), 0b010);
        assert_eq!(p.lane_value(b, 1), Logic::H);
        // Lane 2 carries a stuck-open fault on the transistor.
        p.force_conduction_lane(t, 2, Conduction::Open);
        let pc = p.conduction(t);
        assert_eq!(pc.closed, 0b011);
        assert_eq!(pc.maybe, 0);
    }
}
