//! Vicinity extraction and the steady-state solver.
//!
//! See the crate-level documentation for the algorithm description. All
//! scratch memory is owned by [`Scratch`] and reused across calls, so a
//! steady-state solve allocates nothing in the common case.

use crate::state::{PackedLogic, PackedState, SwitchState};
use fmossim_netlist::{Logic, NodeId, Strength, TransistorId};

/// Number of strength planes in a packed thermometer code — one per
/// lattice rank (λ, κ1…κ7, γ1…γ7, ω).
const PLANES: usize = Strength::NUM_RANKS;

/// Reusable scratch buffers for vicinity extraction and steady-state
/// solving, sized for a particular network (node/transistor counts).
///
/// A `Scratch` may be reused across different [`SwitchState`] views of
/// the *same* network (the concurrent fault simulator reuses one for
/// the good circuit and every faulty circuit).
#[derive(Clone, Debug)]
pub struct Scratch {
    /// Epoch-stamped membership marks, one per node.
    node_epoch: Vec<u32>,
    /// Local (within-group) index of each marked node.
    node_local: Vec<u32>,
    /// Epoch-stamped marks for visited transistors.
    t_epoch: Vec<u32>,
    current_epoch: u32,
    /// Members of the current group, in discovery order.
    pub(crate) members: Vec<NodeId>,
    /// Directed in-edges per member (indexed by local id).
    edges: Vec<Vec<Edge>>,
    /// Input-boundary source contributions per member.
    sources: Vec<Vec<SourceSig>>,
    /// The seed's conducting edges to inputs, saved by the seed scan:
    /// all a one-node vicinity's closed form needs.
    seed_sources: Vec<SeedSource>,
    /// Strength arrays for the five fixed-point passes.
    def_s: Vec<Strength>,
    pos: [Vec<Strength>; 2],
    defv: [Vec<Strength>; 2],
    /// Resolved steady-state values, parallel to `members`.
    pub(crate) out_values: Vec<Logic>,
    /// All transistors incident on the group (for support reporting).
    pub(crate) incident: Vec<TransistorId>,
    /// Input nodes adjacent to the group through channel edges.
    pub(crate) boundary_inputs: Vec<NodeId>,
}

/// A directed conduction edge into a member node.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// Local index of the node the signal comes *from*.
    from: u32,
    /// Attenuation of the traversed transistor.
    drive: fmossim_netlist::Drive,
    /// Whether the transistor definitely conducts (`Closed`) rather
    /// than only possibly (`Maybe`).
    definite: bool,
}

/// A boundary signal entering the group from an input node.
#[derive(Clone, Copy, Debug)]
struct SourceSig {
    /// Strength after attenuation by the boundary transistor.
    strength: Strength,
    /// The input node's value.
    value: Logic,
    /// Whether the boundary transistor definitely conducts.
    definite: bool,
}

/// A conducting channel edge from the seed to an input node, saved
/// while the seed's transistors are scanned; the input's value is read
/// when the vicinity is resolved. The packed solver keeps its sources
/// per member, with per-lane masks ([`PackedSource`]).
#[derive(Clone, Copy, Debug)]
struct SeedSource {
    /// Strength after attenuation by the boundary transistor.
    strength: Strength,
    /// The input node.
    node: NodeId,
    /// Whether the boundary transistor definitely conducts.
    definite: bool,
}

/// The result of solving one vicinity with
/// [`Scratch::solve_group`]: members and their steady-state values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupOutcome {
    /// The storage nodes of the vicinity, in discovery order.
    pub members: Vec<NodeId>,
    /// The steady-state value for each member (parallel to `members`).
    pub values: Vec<Logic>,
}

impl Scratch {
    /// Creates scratch buffers for a network with the given counts.
    #[must_use]
    pub fn new(num_nodes: usize, num_transistors: usize) -> Self {
        Scratch {
            node_epoch: vec![0; num_nodes],
            node_local: vec![0; num_nodes],
            t_epoch: vec![0; num_transistors],
            current_epoch: 0,
            members: Vec::new(),
            edges: Vec::new(),
            sources: Vec::new(),
            seed_sources: Vec::new(),
            def_s: Vec::new(),
            pos: [Vec::new(), Vec::new()],
            defv: [Vec::new(), Vec::new()],
            out_values: Vec::new(),
            incident: Vec::new(),
            boundary_inputs: Vec::new(),
        }
    }

    /// True iff `n` belongs to the group extracted in the current epoch.
    #[inline]
    pub(crate) fn in_group(&self, n: NodeId) -> bool {
        self.node_epoch[n.index()] == self.current_epoch
    }

    /// The solved value of `n` if it is a member of the group extracted
    /// last.
    #[inline]
    pub(crate) fn member_value(&self, n: NodeId) -> Option<Logic> {
        self.in_group(n)
            .then(|| self.out_values[self.node_local[n.index()] as usize])
    }

    /// Extracts and solves the vicinity containing `seed`, returning an
    /// owned outcome. This is the allocating convenience wrapper around
    /// the zero-allocation internals used by the
    /// [`Engine`](crate::Engine); it is public for solver-level testing
    /// and benchmarking.
    ///
    /// `static_locality` selects the pre-MOSSIM-II partitioning (whole
    /// DC-connected component), the reference the solver proptest
    /// holds dynamic bounding to.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `seed` is input-classified under
    /// `st`; vicinity seeds must be storage nodes.
    pub fn solve_group<S: SwitchState>(
        &mut self,
        st: &S,
        seed: NodeId,
        static_locality: bool,
    ) -> GroupOutcome {
        let (members, values) = self.solve(st, seed, static_locality);
        GroupOutcome {
            members: members.to_vec(),
            values: values.to_vec(),
        }
    }

    /// Zero-allocation solve: extracts the vicinity of `seed` and
    /// resolves its steady state. The returned slices borrow scratch
    /// storage and are valid until the next call.
    pub(crate) fn solve<S: SwitchState>(
        &mut self,
        st: &S,
        seed: NodeId,
        static_locality: bool,
    ) -> (&[NodeId], &[Logic]) {
        self.extract(st, seed, static_locality);
        self.steady_state(st);
        (&self.members, &self.out_values)
    }

    /// Test-only entry to the general path: extracts the vicinity of
    /// `seed` and resolves it through the edge lists and the five fixed
    /// points even when it is a single node, for the differential test
    /// of the closed form.
    #[cfg(test)]
    pub(crate) fn solve_general<S: SwitchState>(
        &mut self,
        st: &S,
        seed: NodeId,
        static_locality: bool,
    ) -> (&[NodeId], &[Logic]) {
        self.scan(st, seed, static_locality);
        self.build_edges(st);
        self.fixed_point(st);
        (&self.members, &self.out_values)
    }

    /// Extracts the vicinity of `seed`: members, incident transistors
    /// and boundary inputs, plus the per-member edge lists unless the
    /// vicinity is the seed alone (whose closed form needs only the
    /// seed's saved sources).
    pub(crate) fn extract<S: SwitchState>(&mut self, st: &S, seed: NodeId, static_locality: bool) {
        self.scan(st, seed, static_locality);
        if self.members.len() > 1 {
            self.build_edges(st);
        }
    }

    /// Breadth-first vicinity scan from `seed`, saving the seed's
    /// conducting input edges as it goes.
    fn scan<S: SwitchState>(&mut self, st: &S, seed: NodeId, static_locality: bool) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            // Extremely rare wraparound: clear stamps and restart at 1.
            self.node_epoch.fill(0);
            self.t_epoch.fill(0);
            self.current_epoch = 1;
        }
        self.members.clear();
        self.incident.clear();
        self.boundary_inputs.clear();
        self.seed_sources.clear();
        debug_assert!(!st.is_input(seed), "vicinity seeds must be storage nodes");
        self.mark(seed);
        let net = st.network();
        let mut head = 0;
        while head < self.members.len() {
            let m = self.members[head];
            let at_seed = head == 0;
            head += 1;
            for &t in net.channel_transistors(m) {
                if self.t_epoch[t.index()] == self.current_epoch {
                    continue;
                }
                self.t_epoch[t.index()] = self.current_epoch;
                self.incident.push(t);
                let cond = st.conduction(t);
                if !static_locality && !cond.may_conduct() {
                    continue;
                }
                let tr = net.transistor(t);
                let other = tr.other_end(m);
                if other == m {
                    continue; // self-loop carries no signal
                }
                if st.is_input(other) {
                    if at_seed && cond.may_conduct() {
                        self.seed_sources.push(SeedSource {
                            strength: Strength::INPUT.through(tr.strength),
                            node: other,
                            definite: cond.is_closed(),
                        });
                    }
                    // Input nodes are never members, so reusing the node
                    // mark for dedup of the boundary list is safe.
                    if self.node_epoch[other.index()] != self.current_epoch {
                        self.node_epoch[other.index()] = self.current_epoch;
                        self.boundary_inputs.push(other);
                    }
                } else if self.node_epoch[other.index()] != self.current_epoch {
                    self.mark(other);
                }
            }
        }
        // Undo the membership stamp borrowed by boundary inputs so that
        // `in_group` answers correctly for them.
        for &b in &self.boundary_inputs {
            self.node_epoch[b.index()] = self.current_epoch.wrapping_sub(1);
        }
    }

    /// Second pass of extraction: builds in-edges and boundary sources
    /// per member (after the scan, so local indices are final).
    fn build_edges<S: SwitchState>(&mut self, st: &S) {
        let net = st.network();
        let n = self.members.len();
        for v in &mut self.edges {
            v.clear();
        }
        for v in &mut self.sources {
            v.clear();
        }
        while self.edges.len() < n {
            self.edges.push(Vec::new());
        }
        while self.sources.len() < n {
            self.sources.push(Vec::new());
        }
        for li in 0..n {
            let m = self.members[li];
            for &t in net.channel_transistors(m) {
                let cond = st.conduction(t);
                if !cond.may_conduct() {
                    continue;
                }
                let definite = cond.is_closed();
                let tr = net.transistor(t);
                let other = tr.other_end(m);
                if other == m {
                    continue;
                }
                if st.is_input(other) {
                    self.sources[li].push(SourceSig {
                        strength: Strength::INPUT.through(tr.strength),
                        value: st.node_state(other),
                        definite,
                    });
                } else {
                    debug_assert!(
                        self.in_group(other),
                        "conducting neighbour must be in group"
                    );
                    self.edges[li].push(Edge {
                        from: self.node_local[other.index()],
                        drive: tr.strength,
                        definite,
                    });
                }
            }
        }
    }

    #[inline]
    fn mark(&mut self, n: NodeId) {
        self.node_epoch[n.index()] = self.current_epoch;
        self.node_local[n.index()] = u32::try_from(self.members.len()).expect("group too large");
        self.members.push(n);
    }

    /// Resolves the extracted vicinity's steady state into
    /// `out_values`: in closed form for a single node, else through the
    /// five fixed points.
    pub(crate) fn steady_state<S: SwitchState>(&mut self, st: &S) {
        if self.members.len() == 1 {
            self.single_node(st);
        } else {
            self.fixed_point(st);
        }
    }

    /// The closed-form steady state of a one-node vicinity. A single
    /// node has no edges inside the group, so every relaxation is a
    /// no-op: each of pos1/pos0/def1/def0 is the fold of the node's own
    /// charge and its boundary sources, and defS, which only gates
    /// propagation along edges, is not needed at all.
    fn single_node<S: SwitchState>(&mut self, st: &S) {
        let node = self.members[0];
        // Index 0 collects signals of value 1 (pos1, def1), index 1
        // signals of value 0 (pos0, def0).
        let mut pos = [Strength::NONE; 2];
        let mut def = [Strength::NONE; 2];
        let mut fold = |strength: Strength, value: Logic, definite: bool| match value {
            Logic::H => {
                pos[0] = pos[0].max(strength);
                if definite {
                    def[0] = def[0].max(strength);
                }
            }
            Logic::L => {
                pos[1] = pos[1].max(strength);
                if definite {
                    def[1] = def[1].max(strength);
                }
            }
            Logic::X => {
                pos[0] = pos[0].max(strength);
                pos[1] = pos[1].max(strength);
            }
        };
        // The node's own charge is definitely present.
        let charge = Strength::from_size(st.network().node(node).size());
        fold(charge, st.node_state(node), true);
        for s in &self.seed_sources {
            fold(s.strength, st.node_state(s.node), s.definite);
        }
        self.out_values.clear();
        self.out_values.push(if def[0] > pos[1] {
            Logic::H
        } else if def[1] > pos[0] {
            Logic::L
        } else {
            Logic::X
        });
    }

    /// Solves the five fixed points and resolves member values into
    /// `out_values` (the general path).
    #[allow(clippy::needless_range_loop)] // `li` indexes several parallel arrays
    fn fixed_point<S: SwitchState>(&mut self, st: &S) {
        let n = self.members.len();
        let net = st.network();
        let resize = |v: &mut Vec<Strength>| {
            v.clear();
            v.resize(n, Strength::NONE);
        };
        resize(&mut self.def_s);
        resize(&mut self.pos[0]);
        resize(&mut self.pos[1]);
        resize(&mut self.defv[0]);
        resize(&mut self.defv[1]);

        // Pass 1: defS — definite presence. Sources: own charge (always
        // definitely present at size strength) and definite input edges.
        let mut def_s = std::mem::take(&mut self.def_s);
        for li in 0..n {
            let node = self.members[li];
            def_s[li] = Strength::from_size(net.node(node).size());
            for s in &self.sources[li] {
                if s.definite {
                    def_s[li] = def_s[li].max(s.strength);
                }
            }
        }
        self.relax(&mut def_s, /*definite_edges_only=*/ true, |_, _| true);

        // Pass 2: pos1 / pos0 — possible presence per value class.
        // A possible signal is blocked at `m` when strictly weaker than
        // the strongest definitely-present signal there.
        for (idx, want) in [(0usize, Logic::H), (1usize, Logic::L)] {
            let mut pos = std::mem::take(&mut self.pos[idx]);
            for li in 0..n {
                let node = self.members[li];
                let old = st.node_state(node);
                if old == want || old == Logic::X {
                    pos[li] = Strength::from_size(net.node(node).size());
                }
                for s in &self.sources[li] {
                    if s.value == want || s.value == Logic::X {
                        pos[li] = pos[li].max(s.strength);
                    }
                }
            }
            self.relax(
                &mut pos,
                /*definite_edges_only=*/ false,
                |str_, from| str_[from as usize] >= def_s[from as usize],
            );
            self.pos[idx] = pos;
        }

        // Pass 3: def1 / def0 — definite winners of a definite value.
        // Propagates through `m` only when nothing possibly stronger
        // exists at `m` (otherwise its onward presence is not certain).
        let (pos1, pos0) = (&self.pos[0], &self.pos[1]);
        for (idx, want) in [(0usize, Logic::H), (1usize, Logic::L)] {
            let mut defv = std::mem::take(&mut self.defv[idx]);
            for li in 0..n {
                let node = self.members[li];
                if st.node_state(node) == want {
                    defv[li] = Strength::from_size(net.node(node).size());
                }
                for s in &self.sources[li] {
                    if s.definite && s.value == want {
                        defv[li] = defv[li].max(s.strength);
                    }
                }
            }
            relax_edges(&self.edges[..n], &mut defv, true, |str_, from| {
                let f = from as usize;
                str_[f] >= pos1[f].max(pos0[f])
            });
            self.defv[idx] = defv;
        }
        self.def_s = def_s;

        // Resolution: 1 iff def1 > pos0; 0 iff def0 > pos1; else X.
        self.out_values.clear();
        for li in 0..n {
            let one = self.defv[0][li] > self.pos[1][li];
            let zero = self.defv[1][li] > self.pos[0][li];
            debug_assert!(!(one && zero), "resolution rule cannot pick both values");
            self.out_values.push(if one {
                Logic::H
            } else if zero {
                Logic::L
            } else {
                Logic::X
            });
        }
    }

    /// Monotone relaxation to the least fixed point of
    /// `s[v] = max(init[v], max over in-edges (u→v): eligible(u) ? min(s[u], drive) : λ)`.
    fn relax<F>(&self, strengths: &mut [Strength], definite_edges_only: bool, eligible: F)
    where
        F: Fn(&[Strength], u32) -> bool,
    {
        relax_edges(
            &self.edges[..strengths.len()],
            strengths,
            definite_edges_only,
            eligible,
        );
    }
}

/// Sweep-to-fixpoint relaxation. Strengths only grow and the lattice is
/// finite, so this terminates; vicinities are small (a handful of nodes
/// in typical circuits), so repeated sweeps beat the bookkeeping cost
/// of a worklist.
fn relax_edges<F>(
    edges: &[Vec<Edge>],
    strengths: &mut [Strength],
    definite_edges_only: bool,
    eligible: F,
) where
    F: Fn(&[Strength], u32) -> bool,
{
    loop {
        let mut changed = false;
        for v in 0..strengths.len() {
            let mut best = strengths[v];
            for e in &edges[v] {
                if definite_edges_only && !e.definite {
                    continue;
                }
                if !eligible(strengths, e.from) {
                    continue;
                }
                best = best.max(strengths[e.from as usize].through(e.drive));
            }
            if best > strengths[v] {
                strengths[v] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Per-lane strengths as a thermometer code over the lattice ranks.
///
/// `ge[r]` holds the mask of lanes whose strength rank is at least `r`
/// (see [`Strength::rank`]); `ge[0]` is unused and always zero so that
/// plane-wise comparisons can sweep all [`PLANES`] words uniformly.
/// Strength comparison, attenuation (`min` with a drive rank), and
/// `max`-merge all become a handful of bitwise plane operations, which
/// is what lets one relaxation sweep settle up to 64 fault machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ranks {
    ge: [u64; PLANES],
}

impl Ranks {
    const EMPTY: Ranks = Ranks { ge: [0; PLANES] };

    /// Raises the lanes in `mask` to at least `rank` (a `max` with a
    /// uniform strength).
    #[inline]
    fn raise(&mut self, mask: u64, rank: usize) {
        for r in 1..=rank {
            self.ge[r] |= mask;
        }
    }

    /// The rank every lane of `lanes` holds, if they agree (and
    /// `lanes` is not empty).
    #[inline]
    fn uniform_rank(&self, lanes: u64) -> Option<usize> {
        let rank = self.ge.iter().rposition(|&g| g & lanes == lanes)?;
        let above = self.ge.get(rank + 1).map_or(0, |&g| g & lanes);
        (lanes != 0 && rank > 0 && above == 0).then_some(rank)
    }

    /// Mask of lanes where `self`'s strength is strictly greater than
    /// `other`'s: some plane up to `top` (above which both are empty)
    /// is set in `self` but not in `other`.
    #[inline]
    fn gt(&self, other: &Ranks, top: usize) -> u64 {
        let mut acc = 0u64;
        for r in 1..=top {
            acc |= self.ge[r] & !other.ge[r];
        }
        acc
    }

    /// Mask of lanes where `a` or `b` is strictly greater than `other`
    /// (the strength of `max(a, b)` against `other`), up to `top`.
    #[inline]
    fn either_gt(a: &Ranks, b: &Ranks, other: &Ranks, top: usize) -> u64 {
        let mut acc = 0u64;
        for r in 1..=top {
            acc |= (a.ge[r] | b.ge[r]) & !other.ge[r];
        }
        acc
    }

    /// Merges `min(src, rank max_rank)` into `self` for the lanes in
    /// `mask` (attenuation through a drive followed by `max`). Returns
    /// whether any plane changed.
    #[inline]
    fn merge_through(&mut self, src: &Ranks, max_rank: usize, mask: u64) -> bool {
        let mut changed = 0u64;
        for r in 1..=max_rank {
            let add = src.ge[r] & mask & !self.ge[r];
            self.ge[r] |= add;
            changed |= add;
        }
        changed != 0
    }
}

/// A channel edge into a packed member from another member, with the
/// lanes in which it carries a signal: the transistor may conduct there
/// and both ends belong to the lane's vicinity.
#[derive(Clone, Copy, Debug)]
struct PackedEdge {
    /// Local index of the node the signal comes *from*.
    from: u32,
    /// Rank of the transistor's drive strength: a signal passing it is
    /// capped there.
    rank: u32,
    /// Lanes in which the transistor may conduct.
    may: u64,
    /// Lanes in which it definitely conducts (a subset of `may`).
    definite: u64,
}

/// A boundary signal entering a packed member from a node that is an
/// input in the lanes where the signal may pass. The far end may be a
/// member in the other lanes: a stuck node is a source only where it is
/// stuck.
#[derive(Clone, Copy, Debug)]
struct PackedSource {
    /// Strength after attenuation by the boundary transistor.
    strength: Strength,
    /// The input node's per-lane value in the lanes where the boundary
    /// transistor may conduct, and no value (an inactive lane) in the
    /// rest.
    value: PackedLogic,
    /// Lanes in which it definitely conducts.
    definite: u64,
}

/// The result of solving one vicinity for up to 64 fault machines with
/// [`PackedScratch::solve_group_packed`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedOutcome {
    /// The storage nodes of the union of the kept lanes' vicinities, in
    /// discovery order.
    pub members: Vec<NodeId>,
    /// The kept lanes whose vicinity holds each member (parallel to
    /// `members`): lane `l`'s vicinity is the members whose mask has
    /// bit `l`, in the same order.
    pub member_lanes: Vec<u64>,
    /// The per-lane steady-state value of each member (parallel to
    /// `members`; only the bits of its `member_lanes` are meaningful).
    pub values: Vec<PackedLogic>,
    /// The lanes actually solved by this pass.
    pub lanes: u64,
    /// Lanes evicted by the order rule (see [`PackedScratch`]): the
    /// union scan found some member of theirs in an order their own
    /// scan would not. Re-solve these from the same seed, through
    /// another packed pass or the scalar path.
    pub evicted: u64,
}

/// Reusable scratch buffers for the bit-parallel (PPSFP-style) group
/// solver: the packed sibling of [`Scratch`].
///
/// One packed pass settles a vicinity for every active lane (fault
/// machine) at once, over the union of the lanes' vicinities. The scan
/// gives each member the mask of lanes whose vicinity holds it, and
/// each edge and boundary source the lanes in which it may and
/// definitely conducts; a node that is an input in some lanes is a
/// source in those and may be a member in the rest. A lane's fixed
/// point crosses only edges that conduct in it between its own
/// members, so it sees exactly its scalar vicinity.
///
/// Membership and order rule: a member's lane mask is fixed when the
/// scan first finds it, from a member of those lanes through a
/// transistor that may conduct in them, and the scan evicts any lane
/// that later reaches an already-found member through another edge.
/// So every kept lane's members, read in the union's discovery order,
/// are its scalar scan's members in its scalar order, which is what
/// keeps its writes and wake-ups in scalar order. Tree-shaped
/// vicinities (a bitline and the cells different lanes select) evict
/// nothing; a lane evicted by the rule re-solves from the same seed.
#[derive(Clone, Debug)]
pub struct PackedScratch {
    node_epoch: Vec<u32>,
    node_local: Vec<u32>,
    current_epoch: u32,
    /// Members of the current group, in discovery order.
    pub(crate) members: Vec<NodeId>,
    /// Per member, the lanes whose vicinity holds it (as found; the
    /// kept lanes of it are `member_lanes[i] & cur`).
    pub(crate) member_lanes: Vec<u64>,
    edges: Vec<Vec<PackedEdge>>,
    sources: Vec<Vec<PackedSource>>,
    /// Strength planes for the five fixed-point passes.
    def_s: Vec<Ranks>,
    /// Per member, its defS rank if every kept lane of it has the same
    /// (else 0).
    def_rank: Vec<usize>,
    pos: [Vec<Ranks>; 2],
    defv: [Vec<Ranks>; 2],
    /// Members' values before the solve, in their own lanes only.
    old_values: Vec<PackedLogic>,
    /// Resolved per-lane values, parallel to `members`.
    pub(crate) out_values: Vec<PackedLogic>,
    /// Lanes kept by the current extraction.
    pub(crate) cur: u64,
    /// Lanes evicted by the current extraction.
    pub(crate) evicted: u64,
}

impl PackedScratch {
    /// Creates packed scratch buffers for a network of `num_nodes`
    /// nodes.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        PackedScratch {
            node_epoch: vec![0; num_nodes],
            node_local: vec![0; num_nodes],
            current_epoch: 0,
            members: Vec::new(),
            member_lanes: Vec::new(),
            edges: Vec::new(),
            sources: Vec::new(),
            def_s: Vec::new(),
            def_rank: Vec::new(),
            pos: [Vec::new(), Vec::new()],
            defv: [Vec::new(), Vec::new()],
            old_values: Vec::new(),
            out_values: Vec::new(),
            cur: 0,
            evicted: 0,
        }
    }

    /// Extracts and solves the vicinity of `seed` for the machines in
    /// `active`, returning an owned outcome. Up to 64 machines settle
    /// in one pass; machines the order rule evicts (see
    /// [`PackedOutcome::evicted`]) must be re-solved from the same
    /// seed. At least one lane is always kept.
    ///
    /// This is the allocating convenience wrapper around the
    /// zero-allocation internals used by the
    /// [`PackedEngine`](crate::PackedEngine).
    ///
    /// # Panics
    ///
    /// Panics if `active` is empty, and (in debug builds) if `seed` is
    /// input-classified in any active lane.
    pub fn solve_group_packed<P: PackedState>(
        &mut self,
        st: &P,
        seed: NodeId,
        active: u64,
    ) -> PackedOutcome {
        let (kept, evicted) = self.solve(st, seed, active);
        PackedOutcome {
            members: self.members.clone(),
            member_lanes: self.member_lanes.iter().map(|&l| l & kept).collect(),
            values: self.out_values.clone(),
            lanes: kept,
            evicted,
        }
    }

    /// Zero-allocation packed solve; members, their lane masks and
    /// values stay borrowable from scratch storage until the next call.
    /// Returns `(kept, evicted)` lane masks; `kept` is never empty.
    pub(crate) fn solve<P: PackedState>(
        &mut self,
        st: &P,
        seed: NodeId,
        active: u64,
    ) -> (u64, u64) {
        self.extract(st, seed, active);
        if self.members.len() == 1 {
            self.single_node(st);
        } else {
            self.fixed_point(st);
        }
        (self.cur, self.evicted)
    }

    /// Test-only entry to the general packed path: the same extraction,
    /// then the five fixed points even for a single node, for the
    /// differential test of the closed form. Returns `(kept, evicted)`.
    #[cfg(test)]
    pub(crate) fn solve_general<P: PackedState>(
        &mut self,
        st: &P,
        seed: NodeId,
        active: u64,
    ) -> (u64, u64) {
        self.extract(st, seed, active);
        self.fixed_point(st);
        (self.cur, self.evicted)
    }

    /// Scans the union vicinity of `seed` over `active`. Should the
    /// order rule evict every lane, the lowest lane alone is scanned
    /// again: one lane's scan is its scalar scan, so it always keeps it.
    fn extract<P: PackedState>(&mut self, st: &P, seed: NodeId, active: u64) {
        assert!(active != 0, "packed solve needs at least one active lane");
        debug_assert_eq!(
            active & st.is_input_lanes(seed),
            0,
            "vicinity seeds must be storage nodes in every active lane"
        );
        self.scan(st, seed, active);
        if self.cur == 0 {
            let lowest = active & active.wrapping_neg();
            self.scan(st, seed, lowest);
            self.evicted = active & !lowest;
        }
    }

    /// Breadth-first scan of the union of the `active` lanes' vicinities
    /// from `seed`, building each member's lane mask, in-edges and
    /// boundary sources as it goes; lanes that break the order rule are
    /// evicted. Every channel transistor of a member is read from that
    /// member, so each edge between members is seen from both ends: the
    /// second sighting is where a lane that reaches an already-found
    /// member shows up.
    fn scan<P: PackedState>(&mut self, st: &P, seed: NodeId, active: u64) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.node_epoch.fill(0);
            self.current_epoch = 1;
        }
        self.members.clear();
        self.member_lanes.clear();
        let mut cur = active;
        self.evicted = 0;
        self.mark(seed, active);
        let net = st.network();
        let mut head = 0;
        while head < self.members.len() {
            let li = head;
            head += 1;
            let m = self.members[li];
            // The kept lanes in which `m` is a member.
            let mut own = self.member_lanes[li] & cur;
            for &t in net.channel_transistors(m) {
                let pc = st.conduction(t);
                let may = pc.may_conduct() & own;
                if may == 0 {
                    continue;
                }
                let tr = net.transistor(t);
                let other = tr.other_end(m);
                if other == m {
                    continue; // self-loop carries no signal
                }
                let inp = st.is_input_lanes(other) & may;
                if inp != 0 {
                    self.sources[li].push(PackedSource {
                        strength: Strength::INPUT.through(tr.strength),
                        value: st.node_state(other).masked(inp),
                        definite: pc.closed & inp,
                    });
                }
                let mem = may & !inp;
                if mem == 0 {
                    continue;
                }
                let from = if self.node_epoch[other.index()] == self.current_epoch {
                    let lj = self.node_local[other.index()];
                    // Lanes reaching a member found without them: its
                    // place in the union order is not theirs.
                    let late = mem & !self.member_lanes[lj as usize];
                    self.evicted |= late;
                    cur &= !late;
                    own &= !late;
                    lj
                } else {
                    self.mark(other, mem)
                };
                self.edges[li].push(PackedEdge {
                    from,
                    rank: Strength::from_drive(tr.strength).rank() as u32,
                    may: mem,
                    definite: pc.closed & mem,
                });
            }
        }
        self.cur = cur;
    }

    /// Appends `n` as a member of `lanes`, with empty edge and source
    /// lists, and returns its local index.
    #[inline]
    fn mark(&mut self, n: NodeId, lanes: u64) -> u32 {
        let li = self.members.len();
        let local = u32::try_from(li).expect("group too large");
        self.node_epoch[n.index()] = self.current_epoch;
        self.node_local[n.index()] = local;
        self.members.push(n);
        self.member_lanes.push(lanes);
        if li < self.edges.len() {
            self.edges[li].clear();
            self.sources[li].clear();
        } else {
            self.edges.push(Vec::new());
            self.sources.push(Vec::new());
        }
        local
    }

    /// The closed-form steady state of a one-node vicinity for every
    /// kept lane: the packed twin of [`Scratch`]'s single-node solve.
    /// The signals are the node's own charge and its boundary sources,
    /// each source under its per-lane may-conduct and definite masks. A
    /// lane resolves to 1 iff its strongest definite 1 is stronger than
    /// every possible 0 there (and to 0 symmetrically), so one walk over
    /// the signals from the strongest down decides every lane; no
    /// relaxation runs.
    fn single_node<P: PackedState>(&mut self, st: &P) {
        let lanes = self.cur;
        let node = self.members[0];
        let node_value = st.node_state(node);
        let sources = &mut self.sources[0];
        // The node's own charge is definitely present in every lane.
        let charge = Strength::from_size(st.network().node(node).size());
        let mut charge_left = true;
        sources.sort_unstable_by_key(|s| std::cmp::Reverse(s.strength));
        // Lanes with a possible 1 / 0 at a strength above the current one.
        let (mut above1, mut above0) = (0u64, 0u64);
        let (mut one, mut zero) = (0u64, 0u64);
        let mut i = 0;
        while charge_left || i < sources.len() {
            let level = match sources.get(i) {
                Some(s) if !charge_left || s.strength >= charge => s.strength,
                _ => charge,
            };
            // Possible and definite 1s and 0s at this strength.
            let (mut pos1, mut pos0, mut def1, mut def0) = (0u64, 0u64, 0u64, 0u64);
            while let Some(s) = sources.get(i).filter(|s| s.strength == level) {
                let v = s.value;
                pos1 |= v.h;
                pos0 |= v.l;
                def1 |= v.exactly_h() & s.definite;
                def0 |= v.exactly_l() & s.definite;
                i += 1;
            }
            if charge_left && level == charge {
                let v = node_value;
                pos1 |= v.h;
                pos0 |= v.l;
                def1 |= v.exactly_h();
                def0 |= v.exactly_l();
                charge_left = false;
            }
            one |= def1 & !(above0 | pos0);
            zero |= def0 & !(above1 | pos1);
            above1 |= pos1;
            above0 |= pos0;
        }
        let (one, zero) = (one & lanes, zero & lanes);
        debug_assert_eq!(one & zero, 0, "resolution rule cannot pick both values");
        self.out_values.clear();
        self.out_values.push(PackedLogic {
            h: lanes & !zero,
            l: lanes & !one,
        });
    }

    /// Solves the five fixed points for every kept lane at once and
    /// resolves per-lane member values into `out_values`.
    ///
    /// Every pass runs on thermometer [`Ranks`] planes: a member's
    /// initial signals are raised only in its own lanes, and a signal
    /// crosses an edge only in the lanes where the edge carries one, so
    /// each lane relaxes over its own vicinity and nothing else.
    #[allow(clippy::needless_range_loop)] // `li` indexes several parallel arrays
    fn fixed_point<P: PackedState>(&mut self, st: &P) {
        let n = self.members.len();
        let net = st.network();
        let lanes = self.cur;
        let [p1, p0] = &mut self.pos;
        let [d1, d0] = &mut self.defv;
        for v in [p1, p0, d1, d0] {
            v.clear();
            v.resize(n, Ranks::EMPTY);
        }
        // The strengths of this vicinity, ranked densely: every strength
        // the passes compute is a max or min of its charges, sources and
        // drives, so an order-preserving relabelling changes no
        // comparison, and the planes shrink to the levels in use.
        let size_rank = |li: usize| Strength::from_size(net.node(self.members[li]).size()).rank();
        let mut used = 0u32;
        for li in 0..n {
            used |= 1 << size_rank(li);
            for s in &self.sources[li] {
                used |= 1 << s.strength.rank();
            }
            for e in &self.edges[li] {
                used |= 1 << e.rank;
            }
        }
        let mut level = [0usize; PLANES];
        let mut top = 0;
        for (r, l) in level.iter_mut().enumerate().skip(1) {
            if used >> r & 1 != 0 {
                top += 1;
                *l = top;
            }
        }
        let size_level = |li: usize| level[size_rank(li)];
        // Each member's value in its own lanes, read once.
        self.old_values.clear();
        for li in 0..n {
            let own = self.member_lanes[li];
            self.old_values
                .push(st.node_state(self.members[li]).masked(own));
        }
        let source_level = |s: &PackedSource| level[s.strength.rank()];

        // Pass 1: defS — definite presence: the member's own charge
        // and its definite sources, along definite edges. `def_rank`
        // keeps a member's defS level where all its kept lanes agree on
        // it (0 where they do not), so the pass 2 test reads one plane
        // there. When every kept lane sees the same definite structure
        // (the common case) one relaxation over levels serves them all.
        let agree = |mask: u64| mask & lanes == 0 || mask & lanes == lanes;
        let uniform = (0..n).all(|li| {
            self.member_lanes[li] & lanes == lanes
                && self.sources[li].iter().all(|s| agree(s.definite))
                && self.edges[li].iter().all(|e| agree(e.definite))
        });
        let mut def_s = std::mem::take(&mut self.def_s);
        self.def_rank.clear();
        if uniform {
            for li in 0..n {
                let rank = self.sources[li]
                    .iter()
                    .filter(|s| s.definite & lanes != 0)
                    .map(source_level)
                    .fold(size_level(li), usize::max);
                self.def_rank.push(rank);
            }
            relax_ranks(&self.edges[..n], &mut self.def_rank, lanes, &level);
        } else {
            def_s.clear();
            def_s.resize(n, Ranks::EMPTY);
            for li in 0..n {
                def_s[li].raise(self.member_lanes[li] & lanes, size_level(li));
                for s in &self.sources[li] {
                    def_s[li].raise(s.definite & lanes, source_level(s));
                }
            }
            let relax = PackedRelax {
                edges: &self.edges[..n],
                level: &level,
                lanes,
            };
            relax.run(&mut def_s, true, |_, _| lanes);
            for li in 0..n {
                let rank = def_s[li].uniform_rank(self.member_lanes[li] & lanes);
                self.def_rank.push(rank.unwrap_or(0));
            }
        }
        let def_rank = &self.def_rank;
        let relax = PackedRelax {
            edges: &self.edges[..n],
            level: &level,
            lanes,
        };

        // Pass 2: pos1 / pos0 — possible presence per value class.
        // `admits(want)` on the two-plane encoding is just the plane
        // bit: `h` admits H, `l` admits L. A possible signal is blocked
        // at a node in the lanes where it is strictly weaker than the
        // strongest definitely-present signal there.
        for (idx, want_h) in [(0usize, true), (1usize, false)] {
            let mut pos = std::mem::take(&mut self.pos[idx]);
            for li in 0..n {
                let old = self.old_values[li];
                let admit = if want_h { old.h } else { old.l };
                pos[li].raise(admit & lanes, size_level(li));
                for s in &self.sources[li] {
                    let adm = if want_h { s.value.h } else { s.value.l };
                    pos[li].raise(adm & lanes, source_level(s));
                }
            }
            relax.run(&mut pos, false, |ranks, from| {
                let f = from as usize;
                match def_rank[f] {
                    0 => !def_s[f].gt(&ranks[f], top),
                    d => ranks[f].ge[d],
                }
            });
            self.pos[idx] = pos;
        }

        // Pass 3: def1 / def0 — definite winners of a definite value.
        // Propagates through a node only in the lanes where nothing
        // possibly stronger exists there.
        let (pos1, pos0) = {
            let (a, b) = self.pos.split_at(1);
            (&a[0], &b[0])
        };
        for (idx, want_h) in [(0usize, true), (1usize, false)] {
            let mut defv = std::mem::take(&mut self.defv[idx]);
            for li in 0..n {
                let old = self.old_values[li];
                let exact = if want_h {
                    old.exactly_h()
                } else {
                    old.exactly_l()
                };
                defv[li].raise(exact & lanes, size_level(li));
                for s in &self.sources[li] {
                    let exact = if want_h {
                        s.value.exactly_h()
                    } else {
                        s.value.exactly_l()
                    };
                    defv[li].raise(exact & s.definite & lanes, source_level(s));
                }
            }
            relax.run(&mut defv, true, |ranks, from| {
                let f = from as usize;
                !Ranks::either_gt(&pos1[f], &pos0[f], &ranks[f], top)
            });
            self.defv[idx] = defv;
        }
        self.def_s = def_s;

        // Resolution per lane: 1 iff def1 > pos0; 0 iff def0 > pos1.
        self.out_values.clear();
        for li in 0..n {
            let own = self.member_lanes[li] & lanes;
            let one = self.defv[0][li].gt(&self.pos[1][li], top) & own;
            let zero = self.defv[1][li].gt(&self.pos[0][li], top) & own;
            debug_assert_eq!(one & zero, 0, "resolution rule cannot pick both values");
            self.out_values.push(PackedLogic {
                h: own & !zero,
                l: own & !one,
            });
        }
    }
}

/// The scalar defS relaxation of a packed vicinity whose kept lanes
/// (`lanes`) agree on every definite edge: [`relax_edges`] over
/// strength levels (`level` maps an edge's drive rank to its level).
fn relax_ranks(edges: &[Vec<PackedEdge>], ranks: &mut [usize], lanes: u64, level: &[usize]) {
    loop {
        let mut changed = false;
        for v in 0..ranks.len() {
            let mut best = ranks[v];
            for e in &edges[v] {
                if e.definite & lanes != 0 {
                    best = best.max(ranks[e.from as usize].min(level[e.rank as usize]));
                }
            }
            if best > ranks[v] {
                ranks[v] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Packed sweep-to-fixpoint relaxation over a vicinity's edges: the
/// per-lane analogue of [`relax_edges`], on strength levels (`level`
/// maps an edge's drive rank to its level) among the kept `lanes`.
struct PackedRelax<'a> {
    edges: &'a [Vec<PackedEdge>],
    level: &'a [usize],
    lanes: u64,
}

impl PackedRelax<'_> {
    /// Relaxes `ranks` to its least fixed point. An edge carries a
    /// signal in its `definite` lanes (or `may` lanes, unless
    /// `definite_edges_only`), and `eligible` returns the mask of lanes
    /// in which the upstream node may propagate; strengths only grow
    /// per lane and the lattice is finite, so this terminates at the
    /// same least fixed point the scalar relaxation reaches lane by
    /// lane.
    fn run<F>(&self, ranks: &mut [Ranks], definite_edges_only: bool, eligible: F)
    where
        F: Fn(&[Ranks], u32) -> u64,
    {
        loop {
            let mut changed = false;
            for v in 0..ranks.len() {
                for e in &self.edges[v] {
                    let carries = if definite_edges_only {
                        e.definite
                    } else {
                        e.may
                    } & self.lanes;
                    if carries == 0 {
                        continue;
                    }
                    let elig = eligible(ranks, e.from) & carries;
                    if elig == 0 {
                        continue;
                    }
                    let src = ranks[e.from as usize];
                    if ranks[v].merge_through(&src, self.level[e.rank as usize], elig) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DenseState;
    use fmossim_netlist::{Drive, Network, Size, TransistorType};

    /// Solve the group containing `seed` and return (members, values).
    fn run(net: &Network, st: &DenseState<'_>, seed: NodeId) -> GroupOutcome {
        let mut scr = Scratch::new(net.num_nodes(), net.num_transistors());
        scr.solve_group(st, seed, false)
    }

    fn value_of(out: &GroupOutcome, n: NodeId) -> Logic {
        let i = out
            .members
            .iter()
            .position(|&m| m == n)
            .expect("node in group");
        out.values[i]
    }

    #[test]
    fn nmos_inverter_both_ways() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);

        let mut st = DenseState::new(&net);
        // A = 1 → pulldown wins over weak pullup.
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::L);
        // A = 0 → only the pullup drives.
        st.force(a, Logic::L);
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::H);
        // A = X → the pulldown may fight the pullup: X.
        st.force(a, Logic::X);
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::X);
    }

    #[test]
    fn charge_sharing_big_node_wins() {
        let mut net = Network::new();
        let clk = net.add_input("CLK", Logic::H);
        let bus = net.add_storage("BUS", Size::S2);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, bus, s);
        let mut st = DenseState::new(&net);
        st.force(bus, Logic::H);
        st.force(s, Logic::L);
        let out = run(&net, &st, s);
        assert_eq!(value_of(&out, bus), Logic::H);
        assert_eq!(value_of(&out, s), Logic::H);
    }

    #[test]
    fn charge_sharing_equal_sizes_gives_x() {
        let mut net = Network::new();
        let clk = net.add_input("CLK", Logic::H);
        let a = net.add_storage("A1", Size::S1);
        let b = net.add_storage("B1", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
        let mut st = DenseState::new(&net);
        st.force(a, Logic::H);
        st.force(b, Logic::L);
        let out = run(&net, &st, a);
        assert_eq!(value_of(&out, a), Logic::X);
        assert_eq!(value_of(&out, b), Logic::X);
    }

    #[test]
    fn isolated_node_keeps_charge() {
        let mut net = Network::new();
        let clk = net.add_input("CLK", Logic::L);
        let a = net.add_storage("A1", Size::S1);
        let b = net.add_storage("B1", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
        let mut st = DenseState::new(&net);
        st.force(a, Logic::H);
        let out = run(&net, &st, a);
        // CLK=0 isolates A: group is {A} alone, charge retained.
        assert_eq!(out.members.len(), 1);
        assert_eq!(value_of(&out, a), Logic::H);
    }

    #[test]
    fn short_circuit_through_pass_gates_gives_x() {
        // Two strong inputs of opposite value connected through
        // conducting transistors to a middle node: X.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let clk = net.add_input("CLK", Logic::H);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, vdd, mid);
        net.add_transistor(TransistorType::N, Drive::D2, clk, mid, gnd);
        let st = DenseState::new(&net);
        assert_eq!(value_of(&run(&net, &st, mid), mid), Logic::X);
    }

    #[test]
    fn ratioed_nand_pulls_low_through_series_stack() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let b = net.add_input("B", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, mid);
        net.add_transistor(TransistorType::N, Drive::D2, b, mid, gnd);
        let mut st = DenseState::new(&net);
        let o = run(&net, &st, out);
        assert_eq!(value_of(&o, out), Logic::L);
        assert_eq!(value_of(&o, mid), Logic::L);
        // B low: output pulls high through the pullup; mid charges high
        // through the series transistor.
        st.force(b, Logic::L);
        let o = run(&net, &st, out);
        assert_eq!(value_of(&o, out), Logic::H);
        assert_eq!(value_of(&o, mid), Logic::H);
    }

    #[test]
    fn precharged_bus_discharge_depends_on_cell_value() {
        // 3T-DRAM read path: RBL(κ2,H) -t_rs(closed)- mid -t_cell(gate=S)- Gnd
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let rs = net.add_input("RS", Logic::H);
        let cell = net.add_storage("CELL", Size::S1);
        let rbl = net.add_storage("RBL", Size::S2);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, rs, rbl, mid);
        net.add_transistor(TransistorType::N, Drive::D2, cell, mid, gnd);

        let mut st = DenseState::new(&net);
        st.force(rbl, Logic::H);
        st.force(cell, Logic::H); // cell stores 1 → bus discharges
        let o = run(&net, &st, rbl);
        assert_eq!(value_of(&o, rbl), Logic::L);

        st.force(rbl, Logic::H);
        st.force(cell, Logic::L); // cell stores 0 → bus keeps precharge
        st.force(mid, Logic::L);
        let o = run(&net, &st, rbl);
        assert_eq!(value_of(&o, rbl), Logic::H);

        st.force(rbl, Logic::H);
        st.force(cell, Logic::X); // unknown cell → bus may discharge
        let o = run(&net, &st, rbl);
        assert_eq!(value_of(&o, rbl), Logic::X);
    }

    #[test]
    fn x_input_keeps_definite_when_harmless() {
        // A node driven high through a closed transistor is 1 even if an
        // unrelated X-gated transistor merely *might* connect it to
        // another high source.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let vdd2 = net.add_input("Vdd2", Logic::H);
        let en = net.add_input("EN", Logic::H);
        let maybe = net.add_input("MAYBE", Logic::X);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, maybe, vdd2, out);
        let st = DenseState::new(&net);
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::H);
    }

    #[test]
    fn x_gated_path_to_opposite_rail_gives_x() {
        // As above but the uncertain path leads to ground: the node may
        // or may not be shorted low → X.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let en = net.add_input("EN", Logic::H);
        let maybe = net.add_input("MAYBE", Logic::X);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, maybe, out, gnd);
        let st = DenseState::new(&net);
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::X);
    }

    #[test]
    fn weak_charge_does_not_corrupt_strong_drive() {
        // A driven node connected through a closed pass gate to a stale
        // charge of opposite value: drive wins, charge node follows.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let en = net.add_input("EN", Logic::H);
        let clk = net.add_input("CLK", Logic::H);
        let a = net.add_storage("A1", Size::S1);
        let b = net.add_storage("B1", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, a);
        net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
        let mut st = DenseState::new(&net);
        st.force(b, Logic::L);
        let o = run(&net, &st, a);
        assert_eq!(value_of(&o, a), Logic::H);
        assert_eq!(value_of(&o, b), Logic::H);
    }

    #[test]
    fn static_locality_extracts_whole_component() {
        let mut net = Network::new();
        let clk = net.add_input("CLK", Logic::L); // open transistor
        let a = net.add_storage("A1", Size::S1);
        let b = net.add_storage("B1", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
        let st = DenseState::new(&net);
        let mut scr = Scratch::new(net.num_nodes(), net.num_transistors());
        scr.extract(&st, a, false);
        assert_eq!(
            scr.members.len(),
            1,
            "dynamic locality stops at open transistor"
        );
        scr.extract(&st, a, true);
        assert_eq!(
            scr.members.len(),
            2,
            "static locality spans the DC component"
        );
    }

    #[test]
    fn static_locality_same_values_as_dynamic() {
        // The static reference must not change results, only group sizes.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        let far = net.add_storage("FAR", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        // `far` is connected to OUT through an open transistor.
        let off = net.add_input("OFF", Logic::L);
        net.add_transistor(TransistorType::N, Drive::D2, off, out, far);
        let mut st = DenseState::new(&net);
        st.force(far, Logic::H);
        let mut scr = Scratch::new(net.num_nodes(), net.num_transistors());
        let dynamic = scr.solve_group(&st, out, false);
        let static_ = scr.solve_group(&st, out, true);
        assert_eq!(value_of(&dynamic, out), Logic::L);
        assert_eq!(value_of(&static_, out), Logic::L);
        // In static mode `far` is a member but keeps its charge.
        assert_eq!(value_of(&static_, far), Logic::H);
    }

    #[test]
    fn boundary_inputs_are_reported() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let en = net.add_input("EN", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, out);
        let st = DenseState::new(&net);
        let mut scr = Scratch::new(net.num_nodes(), net.num_transistors());
        scr.extract(&st, out, false);
        assert_eq!(scr.boundary_inputs, vec![vdd]);
        assert_eq!(scr.incident.len(), 1);
        assert!(scr.in_group(out));
        assert!(!scr.in_group(vdd));
    }

    #[test]
    fn fault_strength_short_overrides_functional_driver() {
        // A γ7 "fault transistor" shorting a driven-high node to ground
        // wins against the γ2 functional driver — the paper's bridge
        // fault injection mechanism.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let en = net.add_input("EN", Logic::H);
        let fault_en = net.add_input("FAULT", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, out);
        net.add_transistor(TransistorType::N, Drive::FAULT, fault_en, out, gnd);
        let st = DenseState::new(&net);
        assert_eq!(value_of(&run(&net, &st, out), out), Logic::L);
    }

    // ---- bit-parallel (packed) solver ----

    use crate::state::{PackedDenseState, PackedState};
    use std::collections::HashMap;

    /// Runs the packed solver to completion for every lane in `active`:
    /// evicted lanes re-enter from the same seed until none remain.
    /// Returns the per-(node, lane) values and the number of passes.
    fn packed_solve_all(
        net: &Network,
        st: &PackedDenseState<'_>,
        seed: NodeId,
        active: u64,
    ) -> (HashMap<(NodeId, u32), Logic>, u32) {
        let mut scr = PackedScratch::new(net.num_nodes());
        let mut out = HashMap::new();
        let mut pending = active;
        let mut passes = 0;
        while pending != 0 {
            let o = scr.solve_group_packed(st, seed, pending);
            passes += 1;
            assert_eq!(o.lanes & o.evicted, 0);
            assert_eq!(o.lanes | o.evicted, pending);
            for (mi, &m) in o.members.iter().enumerate() {
                let mut lanes = o.member_lanes[mi];
                while lanes != 0 {
                    let lane = lanes.trailing_zeros();
                    lanes &= lanes - 1;
                    let prev = out.insert((m, lane), o.values[mi].get(lane).unwrap());
                    assert!(prev.is_none(), "each lane solved exactly once per node");
                }
            }
            pending = o.evicted;
            assert!(passes <= 64, "eviction must make progress");
        }
        (out, passes)
    }

    /// Differential check: per-lane forces applied to a broadcast packed
    /// state must settle to exactly the per-lane scalar solution (same
    /// member sets, same values).
    fn diff_check(net: &Network, seed: NodeId, lane_forces: &[Vec<(NodeId, Logic)>]) {
        let base = DenseState::new(net);
        let mut packed =
            PackedDenseState::broadcast(&base, u32::try_from(lane_forces.len()).unwrap());
        for (lane, forces) in lane_forces.iter().enumerate() {
            for &(n, v) in forces {
                packed.force_lane(n, u32::try_from(lane).unwrap(), v);
            }
        }
        let (got, _passes) = packed_solve_all(net, &packed, seed, packed.lanes());
        for (lane, forces) in lane_forces.iter().enumerate() {
            let lane = u32::try_from(lane).unwrap();
            let mut st = DenseState::new(net);
            for &(n, v) in forces {
                st.force(n, v);
            }
            let mut scr = Scratch::new(net.num_nodes(), net.num_transistors());
            let o = scr.solve_group(&st, seed, false);
            for (i, &m) in o.members.iter().enumerate() {
                assert_eq!(
                    got.get(&(m, lane)).copied(),
                    Some(o.values[i]),
                    "lane {lane} node {i}"
                );
            }
            let solved = got.keys().filter(|&&(_, l)| l == lane).count();
            assert_eq!(solved, o.members.len(), "lane {lane} member set");
        }
    }

    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    #[test]
    fn packed_identical_lanes_solve_in_one_pass() {
        let (net, _a, out) = inverter();
        let st = DenseState::new(&net);
        let packed = PackedDenseState::broadcast(&st, 64);
        let (got, passes) = packed_solve_all(&net, &packed, out, packed.lanes());
        assert_eq!(passes, 1);
        for lane in 0..64 {
            assert_eq!(got.get(&(out, lane)).copied(), Some(Logic::L));
        }
    }

    #[test]
    fn packed_inverter_per_lane_gate_values_share_one_pass() {
        // The pulldown gate differs per lane (H / L / X), so conduction
        // classes diverge, but only at a boundary transistor of a
        // one-node vicinity: all lanes settle in one pass, each
        // bit-identical to the scalar solve.
        let (net, a, out) = inverter();
        diff_check(
            &net,
            out,
            &[
                vec![(a, Logic::H)],
                vec![(a, Logic::L)],
                vec![(a, Logic::X)],
            ],
        );
        // Count the passes explicitly: three conduction classes, one
        // pass.
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 3);
        packed.force_lane(a, 1, Logic::L);
        packed.force_lane(a, 2, Logic::X);
        let (_, passes) = packed_solve_all(&net, &packed, out, packed.lanes());
        assert_eq!(passes, 1);
    }

    #[test]
    fn packed_charge_sharing_per_lane_initial_values() {
        let mut net = Network::new();
        let clk = net.add_input("CLK", Logic::H);
        let bus = net.add_storage("BUS", Size::S2);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, bus, s);
        // Conduction is lane-uniform (CLK identical), so all four lanes
        // settle in one pass despite different charge states.
        diff_check(
            &net,
            s,
            &[
                vec![(bus, Logic::H), (s, Logic::L)],
                vec![(bus, Logic::L), (s, Logic::H)],
                vec![(bus, Logic::H), (s, Logic::H)],
                vec![(bus, Logic::X), (s, Logic::L)],
            ],
        );
    }

    #[test]
    fn packed_ratioed_nand_mixed_lane_inputs() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let b = net.add_input("B", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, mid);
        net.add_transistor(TransistorType::N, Drive::D2, b, mid, gnd);
        diff_check(
            &net,
            out,
            &[
                vec![],
                vec![(b, Logic::L)],
                vec![(a, Logic::L)],
                vec![(a, Logic::X), (b, Logic::H)],
                vec![(b, Logic::X)],
            ],
        );
    }

    #[test]
    fn packed_forced_input_lane_acts_as_boundary() {
        // vdd -(en)- a -(clk)- b, all gates high. Lane 1 forces b to a
        // stuck-low *input*: b is a member in lane 0 only, and lane 1
        // sees it as a γ2-strength L source fighting the γ2 H drive at
        // a → X, in the same pass.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let en = net.add_input("EN", Logic::H);
        let clk = net.add_input("CLK", Logic::H);
        let a = net.add_storage("A1", Size::S1);
        let b = net.add_storage("B1", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, a);
        net.add_transistor(TransistorType::N, Drive::D2, clk, a, b);
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 2);
        packed.force_input_lane(b, 1, Logic::L);
        let (got, passes) = packed_solve_all(&net, &packed, a, packed.lanes());
        assert_eq!(passes, 1);
        assert_eq!(got.get(&(a, 0)).copied(), Some(Logic::H));
        assert_eq!(got.get(&(b, 0)).copied(), Some(Logic::H));
        assert_eq!(got.get(&(a, 1)).copied(), Some(Logic::X));
        assert_eq!(got.get(&(b, 1)).copied(), None, "b is an input in lane 1");
    }

    #[test]
    fn packed_forced_conduction_lane_shares_the_pass() {
        // Vdd -t1- mid -t2- Gnd with both gates high: X in the fault-free
        // lane. Lane 1 forces t2 stuck-open, leaving only the pullup: H.
        // t2 leads to an input, so the lanes share one pass.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let clk = net.add_input("CLK", Logic::H);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, vdd, mid);
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, clk, mid, gnd);
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 2);
        packed.force_conduction_lane(t2, 1, fmossim_netlist::Conduction::Open);
        let (got, passes) = packed_solve_all(&net, &packed, mid, packed.lanes());
        assert_eq!(passes, 1);
        assert_eq!(got.get(&(mid, 0)).copied(), Some(Logic::X));
        assert_eq!(got.get(&(mid, 1)).copied(), Some(Logic::H));
    }

    #[test]
    fn ranks_thermometer_matches_strength_order() {
        let mut all = vec![Strength::NONE];
        for k in 1..=7 {
            all.push(Strength::from_size(Size::new(k).unwrap()));
        }
        for g in 1..=7 {
            all.push(Strength::from_drive(Drive::new(g).unwrap()));
        }
        all.push(Strength::INPUT);
        for &sa in &all {
            for &sb in &all {
                let mut ra = Ranks::EMPTY;
                ra.raise(0b1, sa.rank());
                let mut rb = Ranks::EMPTY;
                rb.raise(0b1, sb.rank());
                assert_eq!(ra.gt(&rb, PLANES - 1) & 0b1 != 0, sa > sb, "{sa} > {sb}");
            }
        }
    }

    #[test]
    fn ranks_merge_through_is_attenuated_max() {
        let strengths: Vec<Strength> = {
            let mut v = vec![Strength::NONE, Strength::INPUT];
            for k in 1..=7 {
                v.push(Strength::from_size(Size::new(k).unwrap()));
            }
            for g in 1..=7 {
                v.push(Strength::from_drive(Drive::new(g).unwrap()));
            }
            v
        };
        for &src in &strengths {
            for &dst in &strengths {
                for d in [Drive::D1, Drive::D2, Drive::FAULT] {
                    let mut rs = Ranks::EMPTY;
                    rs.raise(0b1, src.rank());
                    let mut rd = Ranks::EMPTY;
                    rd.raise(0b1, dst.rank());
                    let changed = rd.merge_through(&rs, Strength::from_drive(d).rank(), 0b1);
                    let expect = dst.max(src.through(d));
                    for r in 1..PLANES {
                        assert_eq!(
                            rd.ge[r] & 0b1 != 0,
                            r <= expect.rank(),
                            "{src} through {d} into {dst}, plane {r}"
                        );
                    }
                    assert_eq!(changed, expect > dst);
                }
            }
        }
    }
}
