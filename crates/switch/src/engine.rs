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
use crate::state::{PackedLogic, PackedState, SwitchState};
use fmossim_netlist::{Conduction, Logic, Network, NodeId, TransistorId, TransistorType};
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
    /// larger groups; used by the locality ablation benchmark.
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

    /// Resets the engine to the state [`Engine::with_config`] would
    /// produce for `net`, keeping every buffer allocation that already
    /// suffices — the cheap path for drivers that build many
    /// short-lived simulators over the same network (a batched parallel
    /// run rebuilds every shard simulator at every batch boundary). For a same-sized network no allocation happens; a
    /// differently-sized one re-fits the buffers. Metrics detach:
    /// re-attach after recycling if the new owner is instrumented.
    pub fn recycle(&mut self, net: &Network, config: EngineConfig) {
        self.scratch.fit(net.num_nodes(), net.num_transistors());
        self.queue.clear();
        self.next_queue.clear();
        self.queued.clear();
        self.queued.resize(net.num_nodes(), false);
        self.solved_round.clear();
        self.solved_round.resize(net.num_nodes(), 0);
        self.round_id = 0;
        self.changed_buf.clear();
        self.config = config;
        self.metrics = EngineMetrics::default();
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
    /// Number of packed vicinity solves (each covering 1–64 lanes).
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
#[derive(Clone, Debug, Default)]
struct PackedEngineMetrics {
    active: bool,
    /// `switch.packed_solves` — packed solves covering ≥ 2 lanes.
    packed_solves: Counter,
    /// `switch.scalar_fallbacks` — solves degraded to a single lane
    /// (support divergence left nothing to share).
    scalar_fallbacks: Counter,
    /// `switch.lane.occupancy` — lanes per packed solve.
    occupancy: Histogram,
    local_packed: u64,
    local_fallbacks: u64,
    local_occupancy: LocalHistogram,
}

impl PackedEngineMetrics {
    fn attach(registry: &Registry) -> Self {
        PackedEngineMetrics {
            active: registry.is_active(),
            packed_solves: registry.counter("switch.packed_solves"),
            scalar_fallbacks: registry.counter("switch.scalar_fallbacks"),
            occupancy: registry.histogram("switch.lane.occupancy"),
            ..PackedEngineMetrics::default()
        }
    }

    fn flush(&mut self) {
        if !self.active {
            return;
        }
        self.packed_solves.add(self.local_packed);
        self.scalar_fallbacks.add(self.local_fallbacks);
        self.local_packed = 0;
        self.local_fallbacks = 0;
        self.occupancy.merge_local(&mut self.local_occupancy);
    }
}

/// The bit-parallel sibling of [`Engine`]: drains per-lane perturbations
/// in unit-delay rounds, settling up to 64 fault machines per vicinity
/// solve through [`PackedScratch`].
///
/// The scheduling discipline matches the scalar engine round for round:
/// a per-node pending mask plays the role of the scalar queued flag, a
/// per-node `(round, lanes)` stamp plays the role of `solved_round`, and
/// gate-driven wake-ups propagate per changed lane (any value change
/// flips an N/P conduction class; depletion gates never wake). Lanes
/// evicted by a mid-extraction support divergence re-enter the worklist
/// from the same seed in the same round, so each lane settles exactly
/// as its scalar schedule would — the bit-identity the equivalence
/// tests assert.
#[derive(Clone, Debug)]
pub struct PackedEngine {
    scratch: PackedScratch,
    /// Scalar solver for degenerate (single-lane) solves: plane
    /// operations cost the same at one active lane as at sixty-four,
    /// so routing them through the scalar fixed point keeps the packed
    /// path competitive when occupancy is low.
    scalar: Scratch,
    /// Nodes to process this round.
    queue: Vec<NodeId>,
    /// Nodes scheduled for the next round.
    next_queue: Vec<NodeId>,
    /// Per-node lanes scheduled for the next round; nonzero iff the
    /// node is in `next_queue`.
    pending: Vec<u64>,
    /// Per-node lanes awaiting processing in the current round.
    todo: Vec<u64>,
    /// Per-node lanes already solved in the round stamped below.
    solved_mask: Vec<u64>,
    solved_round: Vec<u64>,
    round_id: u64,
    config: EngineConfig,
    metrics: PackedEngineMetrics,
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
            scratch: PackedScratch::new(net.num_nodes(), net.num_transistors()),
            scalar: Scratch::new(net.num_nodes(), net.num_transistors()),
            queue: Vec::new(),
            next_queue: Vec::new(),
            pending: vec![0; net.num_nodes()],
            todo: vec![0; net.num_nodes()],
            solved_mask: vec![0; net.num_nodes()],
            solved_round: vec![0; net.num_nodes()],
            round_id: 0,
            config,
            metrics: PackedEngineMetrics::default(),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Publishes this engine's activity (`switch.packed_solves`,
    /// `switch.scalar_fallbacks`, `switch.lane.occupancy`) into
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

    /// Discards every pending perturbation in every lane.
    pub fn clear_pending(&mut self) {
        for &n in &self.next_queue {
            self.pending[n.index()] = 0;
        }
        self.next_queue.clear();
    }

    /// Schedules node `n` for (re-)evaluation in the given lanes at the
    /// next settle. Input-classified lanes are filtered out at
    /// processing time, so perturbing them is harmless.
    #[inline]
    pub fn perturb(&mut self, n: NodeId, lanes: u64) {
        if lanes == 0 {
            return;
        }
        let e = &mut self.pending[n.index()];
        if *e == 0 {
            self.next_queue.push(n);
        }
        *e |= lanes;
    }

    /// Drains all pending perturbations across every lane, solving
    /// packed vicinities round by round until all machines are stable.
    pub fn settle<P: PackedState>(&mut self, st: &mut P) -> PackedSettleReport {
        let mut report = PackedSettleReport::default();
        let all_lanes = st.lanes();
        while !self.next_queue.is_empty() {
            report.rounds += 1;
            let x_damp = report.rounds > self.config.max_rounds;
            if x_damp {
                for &n in &self.next_queue {
                    report.damped_lanes |= self.pending[n.index()] & all_lanes;
                }
            }
            self.round_id += 1;
            for qi in 0..self.next_queue.len() {
                let n = self.next_queue[qi];
                self.todo[n.index()] = self.pending[n.index()];
                self.pending[n.index()] = 0;
            }
            std::mem::swap(&mut self.queue, &mut self.next_queue);
            let mut qi = 0;
            while qi < self.queue.len() {
                let seed = self.queue[qi];
                qi += 1;
                let mut m = self.todo[seed.index()];
                self.todo[seed.index()] = 0;
                m &= all_lanes & !st.is_input_lanes(seed);
                if self.solved_round[seed.index()] == self.round_id {
                    m &= !self.solved_mask[seed.index()];
                }
                if m == 0 {
                    continue;
                }
                if m & (m - 1) == 0 {
                    // One active lane: the packed fixed point would run
                    // full-width plane operations for it; the scalar
                    // solver computes the identical result cheaper.
                    self.solve_lane_scalar(st, seed, m, x_damp, &mut report);
                    continue;
                }
                let (kept, evicted) = self.scratch.solve(st, seed, m);
                if evicted != 0 {
                    // Diverged lanes re-extract from the same seed in the
                    // same round, preserving each lane's scalar schedule.
                    self.todo[seed.index()] |= evicted;
                    self.queue.push(seed);
                }
                report.groups_solved += 1;
                if self.metrics.active {
                    let occ = u64::from(kept.count_ones());
                    self.metrics.local_occupancy.observe(occ);
                    if occ >= 2 {
                        self.metrics.local_packed += 1;
                    } else {
                        self.metrics.local_fallbacks += 1;
                    }
                }
                for i in 0..self.scratch.members.len() {
                    let member = self.scratch.members[i];
                    if self.solved_round[member.index()] == self.round_id {
                        self.solved_mask[member.index()] |= kept;
                    } else {
                        self.solved_round[member.index()] = self.round_id;
                        self.solved_mask[member.index()] = kept;
                    }
                    let old = st.node_state(member).masked(kept);
                    let mut new = self.scratch.out_values[i];
                    if x_damp {
                        new = old.lub(new);
                    }
                    let ch = old.diff_mask(new) & kept;
                    if ch == 0 {
                        continue;
                    }
                    st.set_node_state(member, ch, new);
                    report.nodes_changed += ch.count_ones() as usize;
                    // Gate-driven wake-ups for the next round: every
                    // value change flips an N/P conduction class, and
                    // depletion gates never change class.
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
            }
            self.queue.clear();
        }
        report
    }

    /// Solves `seed`'s vicinity for exactly one lane through the scalar
    /// solver, with the same round bookkeeping, damping and wake-ups as
    /// the packed branch. Bit-identical to a one-lane packed solve (the
    /// equivalence tests pin the two solvers to each other), so the
    /// dispatch is invisible in the results — only
    /// `switch.scalar_fallbacks` sees it.
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
        if self.metrics.active {
            self.metrics.local_occupancy.observe(1);
            self.metrics.local_fallbacks += 1;
        }
        for i in 0..self.scalar.members.len() {
            let member = self.scalar.members[i];
            if self.solved_round[member.index()] == self.round_id {
                self.solved_mask[member.index()] |= bit;
            } else {
                self.solved_round[member.index()] = self.round_id;
                self.solved_mask[member.index()] = bit;
            }
            let old = st
                .node_state(member)
                .get(lane)
                .expect("chunk lane holds a value");
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
    }

    #[inline]
    fn perturb_next(&mut self, n: NodeId, lanes: u64) {
        let e = &mut self.pending[n.index()];
        if *e == 0 {
            self.next_queue.push(n);
        }
        *e |= lanes;
    }
}

/// A single lane of a [`PackedState`] exposed as a read-only scalar
/// [`SwitchState`] — the adapter behind the packed engine's
/// degenerate-solve fast path. The solver only reads; writes go through
/// the packed state directly with a one-bit lane mask.
struct LaneView<'a, P> {
    st: &'a P,
    lane: u32,
}

impl<P: PackedState> SwitchState for LaneView<'_, P> {
    fn network(&self) -> &Network {
        self.st.network()
    }

    fn node_state(&self, n: NodeId) -> Logic {
        self.st
            .node_state(n)
            .get(self.lane)
            .expect("chunk lane holds a value")
    }

    fn set_node_state(&mut self, _n: NodeId, _v: Logic) {
        unreachable!("LaneView is the solver's read-only view");
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.st.is_input_lanes(n) & (1 << self.lane) != 0
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        let pc = self.st.conduction(t);
        let bit = 1 << self.lane;
        if pc.closed & bit != 0 {
            Conduction::Closed
        } else if pc.maybe & bit != 0 {
            Conduction::Maybe
        } else {
            Conduction::Open
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
    /// final states and per-lane damping flags.
    fn packed_vs_scalar_settle(
        net: &Network,
        lane_forces: &[Vec<(NodeId, Logic)>],
        max_rounds: usize,
    ) {
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
        for (lane, forces) in lane_forces.iter().enumerate() {
            let lane = u32::try_from(lane).unwrap();
            let mut st = DenseState::new(net);
            for &(n, v) in forces {
                st.force(n, v);
            }
            let mut eng = Engine::with_config(net, cfg);
            eng.perturb_all_storage(&st);
            let rep = eng.settle(&mut st);
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
