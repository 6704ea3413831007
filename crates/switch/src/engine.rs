//! The event-driven unit-delay scheduler.
//!
//! A *settle* drains a queue of perturbed nodes in rounds: every round
//! extracts the vicinity of each pending node, solves its steady state,
//! applies the new node values, and schedules the channel ends of every
//! transistor whose conduction state was changed by the round for the
//! *next* round — the unit-delay model of MOSSIM II. Settling ends when
//! a round produces no new perturbations.
//!
//! If the network oscillates (e.g. a ring oscillator, or a fault turning
//! a gate into one), the round count exceeds
//! [`EngineConfig::max_rounds`] and the engine enters *X-damping* mode:
//! from then on a node that would change state moves to the least upper
//! bound of old and new value instead. States then move only towards
//! `X`, which bounds the remaining work and leaves the oscillating set
//! at `X` — the MOSSIM II treatment of unstable networks.

use crate::solve::{PackedScratch, Scratch};
use crate::state::{LaneView, PackedLogic, PackedState, SwitchState};
use fmossim_netlist::{Logic, Network, NodeId, TransistorId, TransistorType};
use fmossim_telemetry::{Counter, Histogram, LocalHistogram, Registry};

/// Vicinity partitioning discipline; see the DAC-85 paper's §4
/// discussion of dynamic vs. static locality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LocalityMode {
    /// Bound vicinities by conduction state (MOSSIM II / FMOSSIM):
    /// source and drain of an open transistor are electrically isolated.
    #[default]
    Dynamic,
    /// Bound vicinities only by DC-connected components, as earlier
    /// switch-level simulators did. Functionally identical results,
    /// larger groups; kept as the reference that the solver proptest
    /// (`static_locality_matches_dynamic`) and the kernel tests hold
    /// dynamic vicinity bounding to.
    Static,
}

/// Tunables for the [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Rounds after which oscillation damping (forcing changing nodes
    /// towards `X`) begins.
    pub max_rounds: usize,
    /// Vicinity partitioning discipline.
    pub locality: LocalityMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 400,
            locality: LocalityMode::Dynamic,
        }
    }
}

/// Outcome of one [`Engine::settle`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SettleReport {
    /// Number of unit-delay rounds executed.
    pub rounds: usize,
    /// Number of vicinities extracted and solved.
    pub groups_solved: usize,
    /// Number of node state changes applied.
    pub nodes_changed: usize,
    /// True iff oscillation damping was engaged (some nodes were forced
    /// to `X` to terminate).
    pub oscillation_damped: bool,
}

impl SettleReport {
    /// Merges the counters of two reports (used when a simulation phase
    /// settles in several steps).
    #[must_use]
    pub fn merged(self, other: SettleReport) -> SettleReport {
        SettleReport {
            rounds: self.rounds + other.rounds,
            groups_solved: self.groups_solved + other.groups_solved,
            nodes_changed: self.nodes_changed + other.nodes_changed,
            oscillation_damped: self.oscillation_damped || other.oscillation_damped,
        }
    }
}

/// A solved vicinity, passed to the observer of
/// [`Engine::settle_observed`].
///
/// The concurrent fault simulator uses this to compute the *support* of
/// each good-circuit event — the set of nodes at which a divergence
/// record or fault attachment means a faulty circuit must re-simulate
/// this event privately.
#[derive(Clone, Copy, Debug)]
pub struct GroupView<'a> {
    /// Storage nodes of the vicinity.
    pub members: &'a [NodeId],
    /// All transistors incident on the vicinity (conducting or not —
    /// a divergence on any of their gates can change the vicinity's
    /// boundary in a faulty circuit).
    pub incident_transistors: &'a [TransistorId],
    /// Input nodes feeding the vicinity through channel connections.
    pub boundary_inputs: &'a [NodeId],
    /// State changes applied by this solve: `(node, old, new)`.
    pub changed: &'a [(NodeId, Logic, Logic)],
}

impl GroupView<'_> {
    /// Iterates over the gate nodes of all incident transistors.
    pub fn incident_gates<'n>(
        &self,
        net: &'n Network,
    ) -> impl Iterator<Item = NodeId> + use<'_, 'n> {
        self.incident_transistors
            .iter()
            .map(move |&t| net.transistor(t).gate)
    }
}

/// A vicinity solved on its own by [`Engine::solve_vicinity`]: its
/// members and their steady-state values, read from the engine's
/// solver scratch.
#[derive(Clone, Copy, Debug)]
pub struct SolvedVicinity<'a> {
    scratch: &'a Scratch,
}

impl SolvedVicinity<'_> {
    /// The storage nodes of the vicinity, in discovery order (the seed
    /// first).
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.scratch.members
    }

    /// The steady-state value of `n`, or `None` if `n` is not a member.
    #[must_use]
    pub fn value_of(&self, n: NodeId) -> Option<Logic> {
        self.scratch.member_value(n)
    }
}

/// Telemetry of one [`Engine`]. Settles accumulate into the plain
/// `local_*` fields (no atomics on the per-group hot path) and
/// [`EngineMetrics::flush`] folds them into the shared registry handles;
/// the core simulator flushes once per pattern. `active` is false for an
/// unattached engine, which then skips even the local bucketing.
#[derive(Clone, Debug, Default)]
struct EngineMetrics {
    active: bool,
    /// `switch.settles` — settle calls that did work (≥ 1 round).
    settles: Counter,
    /// `switch.settle.rounds` — unit-delay rounds executed.
    rounds: Counter,
    /// `switch.vicinity.solves` — vicinities extracted and solved.
    vicinity_solves: Counter,
    /// `switch.nodes_changed` — node state changes applied.
    nodes_changed: Counter,
    /// `switch.oscillation.damped` — settles that engaged X-damping.
    oscillation_damped: Counter,
    /// `switch.solve_group.size` — storage-node count per solved group.
    group_size: Histogram,
    local_settles: u64,
    local_rounds: u64,
    local_vicinity_solves: u64,
    local_nodes_changed: u64,
    local_oscillation_damped: u64,
    local_group_size: LocalHistogram,
}

impl EngineMetrics {
    fn attach(registry: &Registry) -> Self {
        EngineMetrics {
            active: registry.is_active(),
            settles: registry.counter("switch.settles"),
            rounds: registry.counter("switch.settle.rounds"),
            vicinity_solves: registry.counter("switch.vicinity.solves"),
            nodes_changed: registry.counter("switch.nodes_changed"),
            oscillation_damped: registry.counter("switch.oscillation.damped"),
            group_size: registry.histogram("switch.solve_group.size"),
            ..EngineMetrics::default()
        }
    }

    fn flush(&mut self) {
        if !self.active {
            return;
        }
        self.settles.add(self.local_settles);
        self.rounds.add(self.local_rounds);
        self.vicinity_solves.add(self.local_vicinity_solves);
        self.nodes_changed.add(self.local_nodes_changed);
        self.oscillation_damped.add(self.local_oscillation_damped);
        self.local_settles = 0;
        self.local_rounds = 0;
        self.local_vicinity_solves = 0;
        self.local_nodes_changed = 0;
        self.local_oscillation_damped = 0;
        self.group_size.merge_local(&mut self.local_group_size);
    }
}

/// The unit-delay event scheduler. Owns the perturbation queues and the
/// solver scratch; generic over the [`SwitchState`] being simulated so
/// the same engine drives good, concurrent-faulty and serial-faulty
/// circuits.
#[derive(Clone, Debug)]
pub struct Engine {
    scratch: Scratch,
    /// Nodes to process this round.
    queue: Vec<NodeId>,
    /// Nodes scheduled for the next round.
    next_queue: Vec<NodeId>,
    /// Per-node flag: node is in `next_queue`.
    queued: Vec<bool>,
    /// Per-node stamp of the round in which the node was last solved.
    solved_round: Vec<u64>,
    round_id: u64,
    changed_buf: Vec<(NodeId, Logic, Logic)>,
    config: EngineConfig,
    metrics: EngineMetrics,
}

impl Engine {
    /// Creates an engine sized for `net`, with default configuration.
    #[must_use]
    pub fn new(net: &Network) -> Self {
        Engine::with_config(net, EngineConfig::default())
    }

    /// Creates an engine sized for `net` with an explicit configuration.
    #[must_use]
    pub fn with_config(net: &Network, config: EngineConfig) -> Self {
        Engine {
            scratch: Scratch::new(net.num_nodes(), net.num_transistors()),
            queue: Vec::new(),
            next_queue: Vec::new(),
            queued: vec![false; net.num_nodes()],
            solved_round: vec![0; net.num_nodes()],
            round_id: 0,
            changed_buf: Vec::new(),
            config,
            metrics: EngineMetrics::default(),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Publishes this engine's activity (`switch.*` metrics) into
    /// `registry`. Handles are minted once here; until attached (or
    /// when `registry` is null) the instrumentation is a no-op.
    ///
    /// Settle activity is accumulated locally (no shared-atomic traffic
    /// per solve group) and published by [`Engine::flush_metrics`] —
    /// the core simulators flush once per pattern. Callers driving the
    /// engine directly must flush before reading the registry.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = EngineMetrics::attach(registry);
    }

    /// Folds locally accumulated settle activity into the attached
    /// registry (a no-op for an unattached engine). Cheap — a handful
    /// of atomic adds — but not meant for the per-settle hot path.
    pub fn flush_metrics(&mut self) {
        self.metrics.flush();
    }

    /// True iff perturbations are pending (a settle would do work).
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.next_queue.is_empty()
    }

    /// Discards every pending perturbation. Used by tape replay: the
    /// perturbations a recorded settle would have drained (e.g. the
    /// initial all-storage seeding) are covered by the tape, so a
    /// replaying simulator clears them instead of settling them.
    pub fn clear_pending(&mut self) {
        for &n in &self.next_queue {
            self.queued[n.index()] = false;
        }
        self.next_queue.clear();
    }

    /// Extracts and solves the vicinity of `seed` in `st` under this
    /// engine's locality mode, and applies nothing: the
    /// zero-allocation solve a settle makes per group, on its own. The
    /// result borrows the engine's solver scratch until the next solve.
    /// Pending perturbations are left alone, and no `switch.*` metric
    /// counts the solve: its caller counts it as its own work.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `seed` is input-classified under
    /// `st`; vicinity seeds must be storage nodes.
    pub fn solve_vicinity<S: SwitchState>(&mut self, st: &S, seed: NodeId) -> SolvedVicinity<'_> {
        let static_locality = self.config.locality == LocalityMode::Static;
        self.scratch.solve(st, seed, static_locality);
        SolvedVicinity {
            scratch: &self.scratch,
        }
    }

    /// Schedules node `n` for (re-)evaluation at the next settle.
    /// Input-classified nodes are filtered out at processing time, so
    /// perturbing them is harmless.
    #[inline]
    pub fn perturb(&mut self, n: NodeId) {
        Self::push(&mut self.next_queue, &mut self.queued, n);
    }

    /// Schedules every storage node — used to initialize a simulation.
    pub fn perturb_all_storage<S: SwitchState>(&mut self, st: &S) {
        let ids: Vec<NodeId> = st
            .network()
            .node_ids()
            .filter(|&n| !st.is_input(n))
            .collect();
        for n in ids {
            self.perturb(n);
        }
    }

    /// Changes the state of input node `n` to `v` and schedules all
    /// consequences: channel neighbours reachable through possibly
    /// conducting transistors, and the channel ends of every transistor
    /// gated by `n` whose conduction state changes.
    ///
    /// Does nothing if the input already has value `v`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not input-classified under `st`.
    pub fn apply_input<S: SwitchState>(&mut self, st: &mut S, n: NodeId, v: Logic) {
        assert!(st.is_input(n), "apply_input requires an input node");
        let old = st.node_state(n);
        if old == v {
            return;
        }
        st.set_node_state(n, v);
        self.wake_neighbours(st, n, old, v);
    }

    /// Schedules the consequences of node `n` having changed `old → new`
    /// by external action (input application or fault planting).
    pub fn wake_neighbours<S: SwitchState>(&mut self, st: &S, n: NodeId, old: Logic, new: Logic) {
        let net = st.network();
        for &t in net.gated_transistors(n) {
            let tr = net.transistor(t);
            if tr.ttype.conduction(old) != tr.ttype.conduction(new) {
                Self::push(&mut self.next_queue, &mut self.queued, tr.source);
                Self::push(&mut self.next_queue, &mut self.queued, tr.drain);
            }
        }
        for &t in net.channel_transistors(n) {
            if st.conduction(t).may_conduct() {
                let other = net.transistor(t).other_end(n);
                Self::push(&mut self.next_queue, &mut self.queued, other);
            }
        }
    }

    /// Drains all pending perturbations, solving vicinities round by
    /// round until the network is stable. Equivalent to
    /// [`Engine::settle_observed`] with a no-op observer.
    pub fn settle<S: SwitchState>(&mut self, st: &mut S) -> SettleReport {
        self.settle_observed(st, |_| {})
    }

    /// Drains all pending perturbations, invoking `observer` once per
    /// solved vicinity with the group's members, incident transistors,
    /// boundary inputs and applied changes.
    pub fn settle_observed<S, F>(&mut self, st: &mut S, mut observer: F) -> SettleReport
    where
        S: SwitchState,
        F: FnMut(&GroupView<'_>),
    {
        let mut report = SettleReport::default();
        let static_locality = self.config.locality == LocalityMode::Static;
        while !self.next_queue.is_empty() {
            report.rounds += 1;
            let x_damp = report.rounds > self.config.max_rounds;
            report.oscillation_damped |= x_damp && !self.next_queue.is_empty();
            self.round_id += 1;
            std::mem::swap(&mut self.queue, &mut self.next_queue);
            // `queued` flags travel with the nodes into `queue`; clear
            // them as nodes are consumed so re-perturbation in this
            // round lands in `next_queue`.
            for qi in 0..self.queue.len() {
                let seed = self.queue[qi];
                self.queued[seed.index()] = false;
            }
            for qi in 0..self.queue.len() {
                let seed = self.queue[qi];
                if st.is_input(seed) {
                    continue; // inputs hold their externally set value
                }
                if self.solved_round[seed.index()] == self.round_id {
                    continue; // already solved as part of an earlier group
                }
                self.scratch.extract(st, seed, static_locality);
                self.scratch.steady_state(st);
                let (members, values) = (&self.scratch.members, &self.scratch.out_values);
                report.groups_solved += 1;
                if self.metrics.active {
                    self.metrics.local_group_size.observe(members.len() as u64);
                }
                self.changed_buf.clear();
                for (i, &m) in members.iter().enumerate() {
                    self.solved_round[m.index()] = self.round_id;
                    let old = st.node_state(m);
                    let mut new = values[i];
                    if x_damp {
                        new = old.lub(new);
                    }
                    if new != old {
                        st.set_node_state(m, new);
                        self.changed_buf.push((m, old, new));
                    }
                }
                report.nodes_changed += self.changed_buf.len();
                observer(&GroupView {
                    members,
                    incident_transistors: &self.scratch.incident,
                    boundary_inputs: &self.scratch.boundary_inputs,
                    changed: &self.changed_buf,
                });
                // Schedule gate-driven consequences for the next round.
                let net = st.network();
                for ci in 0..self.changed_buf.len() {
                    let (c, old, new) = self.changed_buf[ci];
                    for &t in net.gated_transistors(c) {
                        let tr = net.transistor(t);
                        if tr.ttype.conduction(old) != tr.ttype.conduction(new) {
                            Self::push(&mut self.next_queue, &mut self.queued, tr.source);
                            Self::push(&mut self.next_queue, &mut self.queued, tr.drain);
                        }
                    }
                }
            }
            self.queue.clear();
        }
        if report.rounds > 0 {
            self.metrics.local_settles += 1;
            self.metrics.local_rounds += report.rounds as u64;
            self.metrics.local_vicinity_solves += report.groups_solved as u64;
            self.metrics.local_nodes_changed += report.nodes_changed as u64;
            self.metrics.local_oscillation_damped += u64::from(report.oscillation_damped);
        }
        report
    }

    #[inline]
    fn push(queue: &mut Vec<NodeId>, queued: &mut [bool], n: NodeId) {
        if !queued[n.index()] {
            queued[n.index()] = true;
            queue.push(n);
        }
    }
}

/// Outcome of one [`PackedEngine::settle`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedSettleReport {
    /// Number of unit-delay rounds executed.
    pub rounds: usize,
    /// Number of vicinities solved, counted per lane: a solve keeping
    /// `k` lanes counts `k`, so this is the scalar engine's
    /// `groups_solved` summed over the lanes' machines, whatever they
    /// share. The shared passes are the `switch.*` lane metrics.
    pub groups_solved: usize,
    /// Number of per-lane node state changes applied.
    pub nodes_changed: usize,
    /// Mask of lanes in which oscillation damping was engaged.
    pub damped_lanes: u64,
}

impl PackedSettleReport {
    /// True iff any lane needed X-damping to terminate.
    #[must_use]
    pub fn oscillation_damped(self) -> bool {
        self.damped_lanes != 0
    }
}

/// Telemetry of one [`PackedEngine`], following the same
/// local-accumulate / flush-per-pattern discipline as [`EngineMetrics`].
///
/// Besides its own lane metrics, the packed engine feeds the scalar
/// engine's per-vicinity metrics once per kept lane, so
/// `switch.vicinity.solves`, `switch.nodes_changed` and
/// `switch.solve_group.size` read the same on the packed and scalar
/// paths. `switch.settles` and `switch.settle.rounds` count engine
/// calls: one packed settle of a whole chunk counts once.
#[derive(Clone, Debug, Default)]
struct PackedEngineMetrics {
    active: bool,
    /// `switch.settles` — settle calls that did work (≥ 1 round).
    settles: Counter,
    /// `switch.settle.rounds` — unit-delay rounds executed.
    rounds: Counter,
    /// `switch.packed_solves` — packed solves covering ≥ 2 lanes.
    packed_solves: Counter,
    /// `switch.scalar_fallbacks` — solves degraded to a single lane
    /// (support divergence left nothing to share).
    scalar_fallbacks: Counter,
    /// `switch.lane.occupancy` — lanes per packed solve.
    occupancy: Histogram,
    /// `switch.lane.evictions` — lanes a packed scan evicted by the
    /// order rule.
    evictions: Counter,
    /// `switch.vicinity.solves` — one per kept lane.
    vicinity_solves: Counter,
    /// `switch.nodes_changed` — per-lane node state changes.
    nodes_changed: Counter,
    /// `switch.solve_group.size` — one observation per kept lane.
    group_size: Histogram,
    local_settles: u64,
    local_rounds: u64,
    local_packed: u64,
    local_fallbacks: u64,
    local_occupancy: LocalHistogram,
    local_evictions: u64,
    local_vicinity_solves: u64,
    local_nodes_changed: u64,
    local_group_size: LocalHistogram,
}

impl PackedEngineMetrics {
    fn attach(registry: &Registry) -> Self {
        PackedEngineMetrics {
            active: registry.is_active(),
            settles: registry.counter("switch.settles"),
            rounds: registry.counter("switch.settle.rounds"),
            packed_solves: registry.counter("switch.packed_solves"),
            scalar_fallbacks: registry.counter("switch.scalar_fallbacks"),
            occupancy: registry.histogram("switch.lane.occupancy"),
            evictions: registry.counter("switch.lane.evictions"),
            vicinity_solves: registry.counter("switch.vicinity.solves"),
            nodes_changed: registry.counter("switch.nodes_changed"),
            group_size: registry.histogram("switch.solve_group.size"),
            ..PackedEngineMetrics::default()
        }
    }

    /// Accounts one solve that kept `lanes` lanes and changed
    /// `changed` per-lane node states.
    #[inline]
    fn solved(&mut self, lanes: u64, changed: usize) {
        if !self.active {
            return;
        }
        self.local_occupancy.observe(lanes);
        if lanes >= 2 {
            self.local_packed += 1;
        } else {
            self.local_fallbacks += 1;
        }
        self.local_vicinity_solves += lanes;
        self.local_nodes_changed += changed as u64;
    }

    /// Observes each kept lane's own vicinity size: the members of the
    /// solved union whose lane mask holds that lane.
    fn group_sizes(&mut self, kept: u64, member_lanes: &[u64]) {
        if !self.active {
            return;
        }
        if member_lanes.iter().all(|&l| l & kept == kept) {
            self.local_group_size
                .observe_n(member_lanes.len() as u64, u64::from(kept.count_ones()));
            return;
        }
        let mut m = kept;
        while m != 0 {
            let bit = m & m.wrapping_neg();
            m &= m - 1;
            let size = member_lanes.iter().filter(|&&l| l & bit != 0).count();
            self.local_group_size.observe(size as u64);
        }
    }

    fn flush(&mut self) {
        if !self.active {
            return;
        }
        self.settles.add(self.local_settles);
        self.rounds.add(self.local_rounds);
        self.packed_solves.add(self.local_packed);
        self.scalar_fallbacks.add(self.local_fallbacks);
        self.evictions.add(self.local_evictions);
        self.vicinity_solves.add(self.local_vicinity_solves);
        self.nodes_changed.add(self.local_nodes_changed);
        self.local_settles = 0;
        self.local_rounds = 0;
        self.local_packed = 0;
        self.local_fallbacks = 0;
        self.local_evictions = 0;
        self.local_vicinity_solves = 0;
        self.local_nodes_changed = 0;
        self.occupancy.merge_local(&mut self.local_occupancy);
        self.group_size.merge_local(&mut self.local_group_size);
    }
}

/// The bit-parallel sibling of [`Engine`]: drains per-lane perturbations
/// in unit-delay rounds, settling up to 64 fault machines per vicinity
/// solve through [`PackedScratch`].
///
/// The scheduling discipline matches the scalar engine round for round
/// *and seed for seed*. The scalar engine writes a solved group's values
/// at once, so a later group of the same round sees them: the order in
/// which a machine's seeds are taken matters, and every lane must take
/// its seeds in its own scalar order. So the worklist is a sequence of
/// `(node, lanes)` entries in which each lane's entries appear in the
/// order its scalar engine would queue them:
///
/// * the first round takes the externally perturbed nodes in ascending
///   node order (the scalar concurrent path perturbs each circuit's
///   sorted seed set);
/// * a gate-driven wake-up for some lanes joins the node's pending entry
///   only for lanes that have queued nothing since that entry, and
///   starts a new entry for the rest;
/// * every active lane of an entry is solved in one pass over the union
///   of the lanes' vicinities ([`PackedScratch`]), and writes, solved
///   marks and wake-ups use only the lanes each member belongs to, in
///   the union's discovery order, which is each kept lane's scalar
///   order;
/// * lanes the union scan found out of their own order (the order rule)
///   re-solve from the same seed before the next entry is taken.
///
/// A per-node pending mask plays the role of the scalar queued flag, a
/// per-node `(round, lanes)` stamp plays the role of `solved_round`, and
/// wake-ups propagate per changed lane (any value change flips an N/P
/// conduction class; depletion gates never wake). Each lane therefore
/// settles exactly as its scalar schedule would, phase by phase — the
/// bit-identity the equivalence tests assert.
#[derive(Clone, Debug)]
pub struct PackedEngine {
    scratch: PackedScratch,
    /// Scalar solver for degenerate (single-lane) solves: plane
    /// operations cost the same at one active lane as at sixty-four,
    /// so routing them through the scalar fixed point keeps the packed
    /// path competitive when occupancy is low.
    scalar: Scratch,
    /// `(node, lanes)` entries to process this round, in order.
    queue: Vec<(NodeId, u64)>,
    /// `(node, lanes)` entries scheduled for the next round.
    next_queue: Vec<(NodeId, u64)>,
    /// Per-node lanes scheduled for the next round; nonzero iff the
    /// node has an entry in `next_queue`.
    pending: Vec<u64>,
    /// Per-node index of the node's latest entry in `next_queue`
    /// (meaningful while `pending` is nonzero).
    last_entry: Vec<u32>,
    /// Per lane: one past the index of the lane's latest entry in
    /// `next_queue` (0: none yet this round).
    lane_tail: [u32; 64],
    /// Per-node lanes already solved in the round stamped below.
    solved_mask: Vec<u64>,
    solved_round: Vec<u64>,
    round_id: u64,
    config: EngineConfig,
    metrics: PackedEngineMetrics,
    /// Every solve's seed and kept lanes, in order, for the tests that
    /// hold each lane to its scalar solve order.
    #[cfg(test)]
    solves: Vec<(NodeId, u64)>,
}

impl PackedEngine {
    /// Creates a packed engine sized for `net`, with default
    /// configuration.
    #[must_use]
    pub fn new(net: &Network) -> Self {
        PackedEngine::with_config(net, EngineConfig::default())
    }

    /// Creates a packed engine sized for `net` with an explicit
    /// configuration. The packed path always uses dynamic locality;
    /// callers wanting [`LocalityMode::Static`] must use the scalar
    /// engine.
    #[must_use]
    pub fn with_config(net: &Network, config: EngineConfig) -> Self {
        PackedEngine {
            scratch: PackedScratch::new(net.num_nodes()),
            scalar: Scratch::new(net.num_nodes(), net.num_transistors()),
            queue: Vec::new(),
            next_queue: Vec::new(),
            pending: vec![0; net.num_nodes()],
            last_entry: vec![0; net.num_nodes()],
            lane_tail: [0; 64],
            solved_mask: vec![0; net.num_nodes()],
            solved_round: vec![0; net.num_nodes()],
            round_id: 0,
            config,
            metrics: PackedEngineMetrics::default(),
            #[cfg(test)]
            solves: Vec::new(),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Publishes this engine's activity (`switch.packed_solves`,
    /// `switch.scalar_fallbacks`, `switch.lane.occupancy`,
    /// `switch.lane.evictions`, its settle
    /// calls and rounds, and per kept lane `switch.vicinity.solves`,
    /// `switch.nodes_changed` and `switch.solve_group.size`) into
    /// `registry`; see [`Engine::attach_metrics`] for the discipline.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = PackedEngineMetrics::attach(registry);
    }

    /// Folds locally accumulated activity into the attached registry.
    pub fn flush_metrics(&mut self) {
        self.metrics.flush();
    }

    /// True iff perturbations are pending in any lane.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.next_queue.is_empty()
    }

    /// Schedules node `n` for (re-)evaluation in the given lanes at the
    /// next settle. The perturbed nodes form a set: the settle's first
    /// round takes them in ascending node order, whatever the order of
    /// the calls. Input-classified lanes are filtered out at processing
    /// time, so perturbing them is harmless.
    #[inline]
    pub fn perturb(&mut self, n: NodeId, lanes: u64) {
        if lanes == 0 {
            return;
        }
        let i = n.index();
        if self.pending[i] == 0 {
            self.last_entry[i] = u32::try_from(self.next_queue.len()).expect("queue fits u32");
            self.next_queue.push((n, lanes));
        } else {
            self.next_queue[self.last_entry[i] as usize].1 |= lanes;
        }
        self.pending[i] |= lanes;
    }

    /// Drains all pending perturbations across every lane, solving
    /// packed vicinities round by round until all machines are stable.
    pub fn settle<P: PackedState>(&mut self, st: &mut P) -> PackedSettleReport {
        let mut report = PackedSettleReport::default();
        let all_lanes = st.lanes();
        // First round: ascending node order, one entry per node.
        self.next_queue.sort_unstable_by_key(|&(n, _)| n);
        while !self.next_queue.is_empty() {
            report.rounds += 1;
            let x_damp = report.rounds > self.config.max_rounds;
            self.round_id += 1;
            for &(n, lanes) in &self.next_queue {
                self.pending[n.index()] = 0;
                if x_damp {
                    report.damped_lanes |= lanes & all_lanes;
                }
            }
            self.lane_tail = [0; 64];
            std::mem::swap(&mut self.queue, &mut self.next_queue);
            for qi in 0..self.queue.len() {
                let (seed, lanes) = self.queue[qi];
                let mut m = lanes & all_lanes & !st.is_input_lanes(seed);
                if self.solved_round[seed.index()] == self.round_id {
                    m &= !self.solved_mask[seed.index()];
                }
                while m != 0 {
                    if m & (m - 1) == 0 {
                        // One active lane: the packed fixed point would
                        // run full-width plane operations for it; the
                        // scalar solver computes the identical result
                        // cheaper.
                        #[cfg(test)]
                        self.solves.push((seed, m));
                        self.solve_lane_scalar(st, seed, m, x_damp, &mut report);
                        break;
                    }
                    let (kept, evicted) = self.scratch.solve(st, seed, m);
                    #[cfg(test)]
                    self.solves.push((seed, kept));
                    self.metrics.local_evictions += u64::from(evicted.count_ones());
                    self.apply_packed(st, kept, x_damp, &mut report);
                    // Lanes evicted by the order rule re-solve from the
                    // same seed before the next entry, preserving each
                    // lane's scalar order.
                    m = evicted;
                }
            }
            self.queue.clear();
        }
        if report.rounds > 0 {
            self.metrics.local_settles += 1;
            self.metrics.local_rounds += report.rounds as u64;
        }
        report
    }

    /// Writes one packed solve's kept lanes back: round bookkeeping,
    /// damping, state changes and gate-driven wake-ups.
    fn apply_packed<P: PackedState>(
        &mut self,
        st: &mut P,
        kept: u64,
        x_damp: bool,
        report: &mut PackedSettleReport,
    ) {
        report.groups_solved += kept.count_ones() as usize;
        let changed_before = report.nodes_changed;
        for i in 0..self.scratch.members.len() {
            // Only the kept lanes whose vicinity holds this member.
            let own = self.scratch.member_lanes[i] & kept;
            if own == 0 {
                continue;
            }
            let member = self.scratch.members[i];
            if self.solved_round[member.index()] == self.round_id {
                self.solved_mask[member.index()] |= own;
            } else {
                self.solved_round[member.index()] = self.round_id;
                self.solved_mask[member.index()] = own;
            }
            let old = st.node_state(member).masked(own);
            let mut new = self.scratch.out_values[i];
            if x_damp {
                new = old.lub(new);
            }
            let ch = old.diff_mask(new) & own;
            if ch == 0 {
                continue;
            }
            st.set_node_state(member, ch, new);
            report.nodes_changed += ch.count_ones() as usize;
            // Gate-driven wake-ups for the next round: every value
            // change flips an N/P conduction class, and depletion gates
            // never change class.
            let net = st.network();
            for &t in net.gated_transistors(member) {
                let tr = net.transistor(t);
                if tr.ttype == TransistorType::D {
                    continue;
                }
                self.perturb_next(tr.source, ch);
                self.perturb_next(tr.drain, ch);
            }
        }
        self.metrics.solved(
            u64::from(kept.count_ones()),
            report.nodes_changed - changed_before,
        );
        self.metrics.group_sizes(kept, &self.scratch.member_lanes);
    }

    /// Solves `seed`'s vicinity for exactly one lane through the scalar
    /// solver, with the same round bookkeeping, damping and wake-ups as
    /// the packed branch. It reads only its own lane
    /// ([`PackedState::lane_state`] and its siblings), not whole packed
    /// words. Bit-identical to a one-lane packed solve (the equivalence
    /// tests pin the two solvers to each other), so the dispatch is
    /// invisible in the results — only `switch.scalar_fallbacks` sees
    /// it.
    fn solve_lane_scalar<P: PackedState>(
        &mut self,
        st: &mut P,
        seed: NodeId,
        bit: u64,
        x_damp: bool,
        report: &mut PackedSettleReport,
    ) {
        let lane = bit.trailing_zeros();
        {
            let view = LaneView { st: &*st, lane };
            self.scalar.extract(&view, seed, false);
            self.scalar.steady_state(&view);
        }
        report.groups_solved += 1;
        let changed_before = report.nodes_changed;
        for i in 0..self.scalar.members.len() {
            let member = self.scalar.members[i];
            if self.solved_round[member.index()] == self.round_id {
                self.solved_mask[member.index()] |= bit;
            } else {
                self.solved_round[member.index()] = self.round_id;
                self.solved_mask[member.index()] = bit;
            }
            let old = st.lane_state(member, lane);
            let mut new = self.scalar.out_values[i];
            if x_damp {
                new = old.lub(new);
            }
            if new == old {
                continue;
            }
            let mut pv = PackedLogic::default();
            pv.set(lane, new);
            st.set_node_state(member, bit, pv);
            report.nodes_changed += 1;
            let net = st.network();
            for &t in net.gated_transistors(member) {
                let tr = net.transistor(t);
                if tr.ttype == TransistorType::D {
                    continue;
                }
                self.perturb_next(tr.source, bit);
                self.perturb_next(tr.drain, bit);
            }
        }
        self.metrics
            .solved(1, report.nodes_changed - changed_before);
        if self.metrics.active {
            let size = self.scalar.members.len() as u64;
            self.metrics.local_group_size.observe(size);
        }
    }

    /// Queues a wake-up of `n` in `lanes` for the next round, keeping
    /// each lane's entries in its scalar push order: lanes already
    /// pending at `n` are skipped (the scalar queued flag); a new lane
    /// joins `n`'s latest entry only if it has queued nothing after it,
    /// else it starts a new entry at the end.
    #[inline]
    fn perturb_next(&mut self, n: NodeId, lanes: u64) {
        let i = n.index();
        let mut rest = lanes & !self.pending[i];
        if rest == 0 {
            return;
        }
        self.pending[i] |= rest;
        if self.pending[i] != rest {
            let j = self.last_entry[i];
            let mut join = 0;
            let mut m = rest;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lane_tail[lane] <= j {
                    join |= 1 << lane;
                    self.lane_tail[lane] = j + 1;
                }
            }
            self.next_queue[j as usize].1 |= join;
            rest &= !join;
            if rest == 0 {
                return;
            }
        }
        let k = u32::try_from(self.next_queue.len()).expect("queue fits u32");
        self.next_queue.push((n, rest));
        self.last_entry[i] = k;
        let mut m = rest;
        while m != 0 {
            self.lane_tail[m.trailing_zeros() as usize] = k + 1;
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DenseState;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn cmos_inverter(
        net: &mut Network,
        name: &str,
        input: NodeId,
        vdd: NodeId,
        gnd: NodeId,
    ) -> NodeId {
        let out = net.add_storage(name, Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, input, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, input, out, gnd);
        out
    }

    fn rails(net: &mut Network) -> (NodeId, NodeId) {
        (
            net.add_input("Vdd", Logic::H),
            net.add_input("Gnd", Logic::L),
        )
    }

    #[test]
    fn inverter_chain_settles_in_order() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let x1 = cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let x2 = cmos_inverter(&mut net, "X2", x1, vdd, gnd);
        let x3 = cmos_inverter(&mut net, "X3", x2, vdd, gnd);

        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb_all_storage(&st);
        let rep = eng.settle(&mut st);
        assert!(!rep.oscillation_damped);
        assert_eq!(st.node_state(x1), Logic::H);
        assert_eq!(st.node_state(x2), Logic::L);
        assert_eq!(st.node_state(x3), Logic::H);

        // Flip the input: changes ripple through, one gate per round.
        let rep0 = eng.settle(&mut st); // no pending work
        assert_eq!(rep0.rounds, 0);
        eng.apply_input(&mut st, a, Logic::H);
        let rep = eng.settle(&mut st);
        assert_eq!(st.node_state(x1), Logic::L);
        assert_eq!(st.node_state(x2), Logic::H);
        assert_eq!(st.node_state(x3), Logic::L);
        assert!(rep.rounds >= 3, "three gate delays, got {}", rep.rounds);
    }

    #[test]
    fn apply_input_same_value_is_noop() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.apply_input(&mut st, a, Logic::L);
        assert!(!eng.has_pending());
    }

    #[test]
    fn ring_oscillator_is_damped_to_x() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        // Three inverters in a ring.
        let pre: Vec<NodeId> = (0..3)
            .map(|i| net.add_storage(format!("R{i}"), Size::S1))
            .collect();
        for i in 0..3 {
            let inp = pre[i];
            let out = pre[(i + 1) % 3];
            net.add_transistor(TransistorType::P, Drive::D2, inp, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
        }
        let mut st = DenseState::new(&net);
        // Seed a definite state so it genuinely oscillates.
        st.force(pre[0], Logic::L);
        st.force(pre[1], Logic::H);
        st.force(pre[2], Logic::L);
        let mut eng = Engine::with_config(
            &net,
            EngineConfig {
                max_rounds: 50,
                ..EngineConfig::default()
            },
        );
        for &n in &pre {
            eng.perturb(n);
        }
        let rep = eng.settle(&mut st);
        assert!(rep.oscillation_damped);
        for &n in &pre {
            assert_eq!(st.node_state(n), Logic::X, "ring node forced to X");
        }
    }

    #[test]
    fn dynamic_latch_holds_value_across_clock() {
        // Pass transistor into an inverter: classic dynamic latch.
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let d = net.add_input("D", Logic::H);
        let clk = net.add_input("CLK", Logic::H);
        let store = net.add_storage("STORE", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, d, store);
        let q = cmos_inverter(&mut net, "Q", store, vdd, gnd);

        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb_all_storage(&st);
        eng.settle(&mut st);
        assert_eq!(st.node_state(store), Logic::H);
        assert_eq!(st.node_state(q), Logic::L);

        // Close the latch, then change D: stored value must persist.
        eng.apply_input(&mut st, clk, Logic::L);
        eng.settle(&mut st);
        eng.apply_input(&mut st, d, Logic::L);
        eng.settle(&mut st);
        assert_eq!(st.node_state(store), Logic::H, "charge retained");
        assert_eq!(st.node_state(q), Logic::L);

        // Reopen: new value flows in.
        eng.apply_input(&mut st, clk, Logic::H);
        eng.settle(&mut st);
        assert_eq!(st.node_state(store), Logic::L);
        assert_eq!(st.node_state(q), Logic::H);
    }

    #[test]
    fn solve_vicinity_applies_nothing_and_leaves_pending_work() {
        // `X1` drives `S` through a pass transistor gated by `G`.
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let g = net.add_input("G", Logic::H);
        let x1 = cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, g, x1, s);
        let st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb(s);
        let solved = eng.solve_vicinity(&st, s);
        assert_eq!(solved.members(), &[s, x1], "the seed first");
        assert_eq!(solved.value_of(x1), Some(Logic::H));
        assert_eq!(solved.value_of(s), Some(Logic::H));
        assert_eq!(solved.value_of(a), None, "inputs are not members");
        assert_eq!(st.node_state(s), Logic::X, "nothing applied");
        assert!(eng.has_pending(), "pending work left alone");
        let rep = eng.settle(&mut DenseState::new(&net));
        assert_eq!(rep.groups_solved, 1);
    }

    #[test]
    fn observer_sees_groups_and_changes() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let x1 = cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb(x1);
        let mut seen_members = Vec::new();
        let mut seen_changes = Vec::new();
        eng.settle_observed(&mut st, |g| {
            seen_members.extend_from_slice(g.members);
            seen_changes.extend_from_slice(g.changed);
            assert!(!g.boundary_inputs.is_empty());
            assert_eq!(g.incident_gates(&net).count(), g.incident_transistors.len());
        });
        assert_eq!(seen_members, vec![x1]);
        assert_eq!(seen_changes, vec![(x1, Logic::X, Logic::H)]);
    }

    #[test]
    fn static_and_dynamic_locality_agree_on_results() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::H);
        let x1 = cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let x2 = cmos_inverter(&mut net, "X2", b, vdd, gnd);
        // A pass gate (open for now) between the two inverter outputs.
        let en = net.add_input("EN", Logic::L);
        net.add_transistor(TransistorType::N, Drive::D2, en, x1, x2);

        for locality in [LocalityMode::Dynamic, LocalityMode::Static] {
            let mut st = DenseState::new(&net);
            let mut eng = Engine::with_config(
                &net,
                EngineConfig {
                    locality,
                    ..EngineConfig::default()
                },
            );
            eng.perturb_all_storage(&st);
            eng.settle(&mut st);
            assert_eq!(st.node_state(x1), Logic::H, "{locality:?}");
            assert_eq!(st.node_state(x2), Logic::L, "{locality:?}");
        }
    }

    use crate::state::{PackedDenseState, PackedState};

    /// Settles a packed broadcast of `lane_forces.len()` lanes and the
    /// corresponding per-lane scalar engines, asserting bit-identical
    /// final states, per-lane damping flags and solve counts, and that
    /// each lane solves the same seeds in the same order as its scalar
    /// engine (so its wake-ups came in scalar order).
    fn packed_vs_scalar_settle(
        net: &Network,
        lane_forces: &[Vec<(NodeId, Logic)>],
        max_rounds: usize,
    ) -> PackedSettleReport {
        let cfg = EngineConfig {
            max_rounds,
            ..EngineConfig::default()
        };
        let base = DenseState::new(net);
        let mut packed =
            PackedDenseState::broadcast(&base, u32::try_from(lane_forces.len()).unwrap());
        for (lane, forces) in lane_forces.iter().enumerate() {
            for &(n, v) in forces {
                packed.force_lane(n, u32::try_from(lane).unwrap(), v);
            }
        }
        let mut peng = PackedEngine::with_config(net, cfg);
        for n in net.node_ids() {
            peng.perturb(n, packed.lanes() & !packed.is_input_lanes(n));
        }
        let prep = peng.settle(&mut packed);
        let mut scalar_groups = 0;
        for (lane, forces) in lane_forces.iter().enumerate() {
            let lane = u32::try_from(lane).unwrap();
            let mut st = DenseState::new(net);
            for &(n, v) in forces {
                st.force(n, v);
            }
            let mut eng = Engine::with_config(net, cfg);
            eng.perturb_all_storage(&st);
            let mut seeds = Vec::new();
            let rep = eng.settle_observed(&mut st, |g| seeds.push(g.members[0]));
            scalar_groups += rep.groups_solved;
            let lane_seeds: Vec<NodeId> = peng
                .solves
                .iter()
                .filter(|&&(_, kept)| kept & (1 << lane) != 0)
                .map(|&(seed, _)| seed)
                .collect();
            assert_eq!(lane_seeds, seeds, "lane {lane} solves in scalar order");
            for n in net.node_ids() {
                if st.is_input(n) {
                    continue;
                }
                assert_eq!(
                    packed.lane_value(n, lane),
                    st.node_state(n),
                    "lane {lane}, node {}",
                    n.index()
                );
            }
            assert_eq!(
                prep.damped_lanes & (1 << lane) != 0,
                rep.oscillation_damped,
                "lane {lane} damping"
            );
        }
        assert_eq!(prep.groups_solved, scalar_groups, "per-lane solves");
        prep
    }

    #[test]
    fn packed_engine_matches_scalar_on_inverter_chain() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let x1 = cmos_inverter(&mut net, "X1", a, vdd, gnd);
        let x2 = cmos_inverter(&mut net, "X2", x1, vdd, gnd);
        cmos_inverter(&mut net, "X3", x2, vdd, gnd);
        packed_vs_scalar_settle(
            &net,
            &[
                vec![],
                vec![(a, Logic::H)],
                vec![(a, Logic::X)],
                vec![(a, Logic::H), (x1, Logic::H)],
            ],
            400,
        );
    }

    #[test]
    fn packed_engine_matches_scalar_on_dynamic_latch() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let d = net.add_input("D", Logic::H);
        let clk = net.add_input("CLK", Logic::H);
        let store = net.add_storage("STORE", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, clk, d, store);
        cmos_inverter(&mut net, "Q", store, vdd, gnd);
        packed_vs_scalar_settle(
            &net,
            &[
                vec![],
                vec![(clk, Logic::L), (store, Logic::H)],
                vec![(clk, Logic::L), (store, Logic::L)],
                vec![(d, Logic::L)],
                vec![(clk, Logic::X)],
            ],
            400,
        );
    }

    #[test]
    fn packed_engine_damps_oscillating_lanes_only() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let pre: Vec<NodeId> = (0..3)
            .map(|i| net.add_storage(format!("R{i}"), Size::S1))
            .collect();
        for i in 0..3 {
            let inp = pre[i];
            let out = pre[(i + 1) % 3];
            net.add_transistor(TransistorType::P, Drive::D2, inp, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
        }
        // Lane 0 seeds a definite oscillation; lane 1 starts all-X and
        // settles immediately. Only lane 0 must be damped.
        packed_vs_scalar_settle(
            &net,
            &[
                vec![(pre[0], Logic::L), (pre[1], Logic::H), (pre[2], Logic::L)],
                vec![],
            ],
            50,
        );
    }

    #[test]
    fn packed_engine_respects_forced_input_lanes() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::H);
        let out = cmos_inverter(&mut net, "OUT", a, vdd, gnd);
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 2);
        // Lane 1: OUT is stuck-at-H (input-classified with value H).
        packed.force_input_lane(out, 1, Logic::H);
        let mut peng = PackedEngine::new(&net);
        for n in net.node_ids() {
            peng.perturb(n, packed.lanes() & !packed.is_input_lanes(n));
        }
        let rep = peng.settle(&mut packed);
        assert_eq!(rep.damped_lanes, 0);
        assert_eq!(packed.lane_value(out, 0), Logic::L);
        assert_eq!(packed.lane_value(out, 1), Logic::H, "stuck lane holds");
    }

    /// A 3T-DRAM read column whose lanes select different rows: the
    /// lanes' vicinities at the bitline differ in members but share one
    /// pass, and each lane writes and wakes only its own members (the
    /// bitline's sense inverter, the selected row's MID), as its scalar
    /// engine does.
    #[test]
    fn packed_engine_matches_scalar_on_ram_column_lanes() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let rbl = net.add_storage("RBL", Size::S2);
        let mut lanes = Vec::new();
        for r in 0..4 {
            let rs = net.add_input(format!("RS{r}"), Logic::L);
            let cell = net.add_storage(format!("CELL{r}"), Size::S1);
            let mid = net.add_storage(format!("MID{r}"), Size::S1);
            net.add_transistor(TransistorType::N, Drive::D2, rs, rbl, mid);
            net.add_transistor(TransistorType::N, Drive::D2, cell, mid, gnd);
            let value = [Logic::H, Logic::L, Logic::X, Logic::H][r];
            lanes.push(vec![(rbl, Logic::H), (rs, Logic::H), (cell, value)]);
        }
        lanes.push(vec![(rbl, Logic::H)]);
        cmos_inverter(&mut net, "SENSE", rbl, vdd, gnd);
        let rep = packed_vs_scalar_settle(&net, &lanes, 400);
        assert_eq!(rep.damped_lanes, 0);
    }

    /// S is driven from Vdd and reaches X through T1 and Y through T2;
    /// X and Y are linked, and each gates an inverter. Lane 0 conducts
    /// both T1 and T2, lane 1 only T2, so lane 1's own scan finds Y
    /// before X while the union scan finds X first: the order rule
    /// evicts lane 1 from the union pass. Its re-solve wakes Y's
    /// inverter before X's, as its scalar engine does, and every solve
    /// of the settle follows the scalar order lane by lane.
    #[test]
    fn order_evicted_lane_settles_wake_up_for_wake_up() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let en = net.add_input("EN", Logic::H);
        let g1 = net.add_input("G1", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let x = net.add_storage("X", Size::S1);
        let y = net.add_storage("Y", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, en, vdd, s);
        net.add_transistor(TransistorType::N, Drive::D2, g1, s, x);
        net.add_transistor(TransistorType::N, Drive::D2, en, s, y);
        net.add_transistor(TransistorType::N, Drive::D2, en, x, y);
        let ox = cmos_inverter(&mut net, "OX", x, vdd, gnd);
        let oy = cmos_inverter(&mut net, "OY", y, vdd, gnd);
        // OX and OY share a pass gate Y controls, so the order in which
        // a lane's round solves them decides what each one sees.
        net.add_transistor(TransistorType::N, Drive::D1, y, ox, oy);
        let rep = packed_vs_scalar_settle(&net, &[vec![], vec![(g1, Logic::L)]], 400);
        assert_eq!(rep.damped_lanes, 0);
        let mut peng = PackedEngine::new(&net);
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 2);
        packed.force_lane(g1, 1, Logic::L);
        let registry = Registry::new();
        peng.attach_metrics(&registry);
        peng.perturb(s, 0b11);
        peng.settle(&mut packed);
        peng.flush_metrics();
        assert_eq!(peng.solves[..2], [(s, 0b01), (s, 0b10)], "lane 1 evicted");
        let counters = registry.snapshot().counters;
        assert_eq!(counters["switch.lane.evictions"], 1);
        let first = |lane: u64| {
            peng.solves[2..]
                .iter()
                .find(|&&(n, l)| l & lane != 0 && (n == ox || n == oy))
                .map(|&(n, _)| n)
        };
        assert_eq!(first(0b01), Some(ox), "lane 0 wakes X's inverter first");
        assert_eq!(first(0b10), Some(oy), "lane 1 wakes Y's inverter first");
    }

    #[test]
    fn packed_engine_metrics_count_solves_and_occupancy() {
        let mut net = Network::new();
        let (vdd, gnd) = rails(&mut net);
        let a = net.add_input("A", Logic::L);
        let out = cmos_inverter(&mut net, "OUT", a, vdd, gnd);
        let base = DenseState::new(&net);
        let mut packed = PackedDenseState::broadcast(&base, 4);
        let registry = Registry::new();
        let mut peng = PackedEngine::new(&net);
        peng.attach_metrics(&registry);
        peng.perturb(out, packed.lanes());
        peng.settle(&mut packed);
        peng.flush_metrics();
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("switch.packed_solves").copied(), Some(1));
        assert_eq!(
            snap.counters.get("switch.scalar_fallbacks").copied(),
            Some(0)
        );
        let occ = snap
            .histograms
            .get("switch.lane.occupancy")
            .expect("occupancy histogram");
        assert_eq!(occ.count, 1);
        assert_eq!(occ.sum, 4, "one solve covering all four lanes");
        // The per-vicinity metrics count per lane, as four scalar
        // settles would: four one-node solves, each changing OUT.
        assert_eq!(snap.counters.get("switch.settles").copied(), Some(1));
        assert_eq!(
            snap.counters.get("switch.vicinity.solves").copied(),
            Some(4)
        );
        assert_eq!(snap.counters.get("switch.nodes_changed").copied(), Some(4));
        let sizes = &snap.histograms["switch.solve_group.size"];
        assert_eq!((sizes.count, sizes.sum), (4, 4));
    }

    #[test]
    fn settle_report_merge() {
        let a = SettleReport {
            rounds: 1,
            groups_solved: 2,
            nodes_changed: 3,
            oscillation_damped: false,
        };
        let b = SettleReport {
            rounds: 4,
            groups_solved: 5,
            nodes_changed: 6,
            oscillation_damped: true,
        };
        let m = a.merged(b);
        assert_eq!(m.rounds, 5);
        assert_eq!(m.groups_solved, 7);
        assert_eq!(m.nodes_changed, 9);
        assert!(m.oscillation_damped);
    }
}
