//! The concurrent fault simulator — FMOSSIM's core algorithm (§4 of the
//! paper).
//!
//! One dense state holds the good circuit; each faulty circuit exists
//! only as divergence records (`<circuit, state>` per node) plus the
//! structural overrides implementing its fault. Every simulated phase:
//!
//! 1. applies the input changes to the good circuit (inputs broadcast
//!    to all circuits);
//! 2. settles the good circuit, and for every vicinity solved computes
//!    its *support* — members, gates of incident transistors, boundary
//!    inputs. Circuits with a record or fault attachment in the support
//!    are *triggered* (with the exceptions below): the good-circuit
//!    event may play out differently for them, so they receive private
//!    events. Before the good values are lost, the pre-change values of
//!    any changed node are copied into the triggered circuits' records
//!    (*old-value preservation*), keeping each faulty circuit's view
//!    consistent with its own history;
//! 3. settles each triggered faulty circuit over an overlay view
//!    (records else good state) — in circuit-id order on the scalar
//!    path, up to 64 at a time grouped by shared seeds on the packed
//!    default, with identical results. Writes maintain the records;
//!    writing the good circuit's value removes the record
//!    (convergence);
//! 4. at strobe phases compares observed outputs: any divergence
//!    detects the fault, which is dropped — its records are reclaimed
//!    and it is never simulated again.
//!
//! Triggering has one special case: an input change can matter to a
//! faulty circuit even when the good circuit shows no activity at all —
//! a channel transistor of the input that is open in the good circuit
//! may conduct in a faulty one (divergent or stuck gate). Step 1
//! therefore also scans the open channel transistors of each changed
//! input and triggers circuits diverging at their gates or attached at
//! their ends.
//!
//! # Where triggering departs from the paper
//!
//! The paper triggers a faulty circuit whenever its fault site lies
//! anywhere in a vicinity's support. This simulator attaches a stuck
//! transistor only at the vicinity's *members* (its storage channel
//! ends; a transistor whose end merely gates an incident transistor
//! touches no member, so the vicinity is the good circuit's) and a
//! stuck node anywhere in the support, and decides each hit when it
//! happens:
//!
//! * A stuck node that is a member triggers its circuit, unless it is
//!   the vicinity's only member: that trigger would do nothing, since
//!   preservation exempts forced nodes and the engine skips a seed
//!   that is an input of the faulty view.
//! * Any other hit is skipped iff the circuit has no divergence record
//!   and either its site agrees with the good circuit at that group
//!   (every stuck transistor forced to the conduction the good circuit
//!   gives it, or the stuck node forced to the good value), or the
//!   *trigger-time solve* re-derives the good group: one solve from the
//!   first member, in the circuit's own view of the good state, returns
//!   exactly the group's members, each at the value the good circuit
//!   gives it after the group. The solve is skipped in a phase whose
//!   recorded settle was damped.
//!
//! The phase body triggers from each recorded group before applying its
//! changes, in the engine's solve order, so both tests read the good
//! state the group was solved from. A record-free circuit that passes
//! either one would re-derive the good result, which puts it in the
//! same position as a circuit whose fault lies outside the support,
//! whatever seeds it already has pending; when the site's effect
//! changes, the good circuit solves the site's neighbours again and the
//! circuit is decided there afresh. The solve's member test matters: a
//! fault that splits or merges the vicinity has its circuit's own
//! schedule solve the pieces at other points of the round, where a
//! floating node can race. The live path records its good settle into
//! a [`SettleTape`], rewinds the good state to the phase start and
//! runs the same phase body as tape replay, so there is one trigger
//! path.
//!
//! A skipped circuit keeps the good circuit's values there, as
//! [`SerialSim`](crate::SerialSim) would give it. The paper's rule
//! re-solved it from its preserved old values instead, where a charge
//! race could leave a record the serial oracle does not see; so the
//! records a run leaves can differ from the paper rule's, while the
//! detections of every pinned workload are unchanged. The work
//! counters fall: each trigger-time solve counts as a faulty group and
//! in `core.trigger.solves` (`core.trigger.cleared` counts the hits it
//! cleared), `core.settles.redundant` counts the settles still spent on
//! circuits that begin and end the phase without a record, and
//! `core.settles.redundant.stuck_node` those of them whose circuit has
//! a stuck node.

use crate::arena::{CircuitId, Csr, EventQueue, PhaseMarks, TriggerSet};
use crate::overlay::{FaultyView, Overrides, RecordFreeView};
use crate::packed::{PackedBucketView, PackedLanes, SeedRun};
use crate::pattern::{Pattern, Phase};
use crate::records::StateLists;
use crate::report::{Detection, DetectionPolicy, PatternStats, RunReport};
use crate::tape::{GoodTape, PhaseSource, PhaseTape, TapeLeader};
use fmossim_faults::{Fault, FaultEffect, FaultId};
use fmossim_netlist::{Logic, Network, NodeId};
use fmossim_switch::{
    DenseState, Engine, EngineConfig, LocalityMode, SettleTape, SwitchState, TapeGroup,
};
use fmossim_telemetry::{Counter, Gauge, Registry};
use std::time::Instant;

/// Telemetry of one [`ConcurrentSim`] (`core.*` metrics); defaulted
/// handles are no-ops. The per-settle quantities accumulate into the
/// plain `local_*` fields — one plain integer add per circuit settle
/// instead of shared-atomic traffic — and [`CoreMetrics::flush`] folds
/// them into the handles once per pattern. The per-detection handles
/// (`detections`, `faults_dropped`, `faults_live`) stay direct: they
/// fire at most once per fault.
#[derive(Clone, Debug, Default)]
struct CoreMetrics {
    /// `core.events_scheduled` — private events delivered to faulty
    /// circuits (deduplicated seeds per circuit settle).
    events_scheduled: Counter,
    /// `core.circuit.settles` — faulty-circuit settles executed.
    circuit_settles: Counter,
    /// `core.faulty.groups` — vicinities solved inside faulty circuits.
    faulty_groups: Counter,
    /// `core.settles.redundant` — faulty-circuit settles of circuits
    /// with no record at the start of the phase and none after the
    /// settle: they re-derived the good circuit.
    settles_redundant: Counter,
    /// `core.settles.redundant.stuck_node` — the redundant settles
    /// whose circuit has a stuck node.
    settles_redundant_stuck_node: Counter,
    /// `core.trigger.solves` — vicinities solved at trigger time for a
    /// record-free circuit whose fault site disagrees with the good
    /// circuit (each also counts in `core.faulty.groups`).
    trigger_solves: Counter,
    /// `core.trigger.cleared` — the fault-site hits those solves
    /// cleared: the circuit re-derived the good result and was not
    /// triggered.
    trigger_cleared: Counter,
    /// `core.good.groups` — vicinities solved in the live good machine
    /// (zero under tape replay; see `core.tape.replayed_groups`).
    good_groups: Counter,
    /// `core.tape.replayed_groups` — recorded good-machine groups
    /// applied from a [`GoodTape`] instead of being re-solved.
    replayed_groups: Counter,
    /// `core.detections` — faults detected (once each).
    detections: Counter,
    /// `core.faults_dropped` — faulty circuits dropped (detection or
    /// external [`ConcurrentSim::drop_fault`]).
    faults_dropped: Counter,
    /// `core.faults_live` — live (undetected, undropped) faulty
    /// circuits at the last update; merged shard registries sum to the
    /// fleet-wide live count.
    faults_live: Gauge,
    /// `switch.scalar_fallbacks` — under packing, circuit settles routed
    /// through the scalar engine because their seed bucket held a single
    /// circuit. Same metric name as the packed engine's in-settle
    /// fallback counter: both mean "work packing could not share".
    scalar_fallbacks: Counter,
    /// `core.phase.*_seconds` — wall time of each [`Step`] of the
    /// phase loop, indexed by the step.
    step_seconds: [Gauge; 4],
    local_events_scheduled: u64,
    local_circuit_settles: u64,
    local_faulty_groups: u64,
    local_settles_redundant: u64,
    local_settles_redundant_stuck_node: u64,
    local_trigger_solves: u64,
    local_trigger_cleared: u64,
    local_good_groups: u64,
    local_replayed_groups: u64,
    local_scalar_fallbacks: u64,
    local_step_seconds: [f64; 4],
    /// Start of the running step-timer lap (`None` outside a phase).
    lap_start: Option<Instant>,
}

/// The four timed steps of a simulated phase. Each is timed once per
/// phase (never per vicinity) and published as a
/// `core.phase.*_seconds` gauge.
#[derive(Clone, Copy)]
enum Step {
    /// Input application and the live good settle or tape apply,
    /// triggering included.
    Good,
    /// The private-event queue drain plus lane scheduling.
    Drain,
    /// Every faulty settle, with the packed scatter and the
    /// convergence sweep.
    Faulty,
    /// Strobe comparison, detection and drop.
    Strobe,
}

/// The gauge of each [`Step`], in declaration order.
const STEP_GAUGES: [&str; 4] = [
    "core.phase.good_seconds",
    "core.phase.drain_seconds",
    "core.phase.faulty_seconds",
    "core.phase.strobe_seconds",
];

impl CoreMetrics {
    fn attach(registry: &Registry) -> Self {
        CoreMetrics {
            events_scheduled: registry.counter("core.events_scheduled"),
            circuit_settles: registry.counter("core.circuit.settles"),
            faulty_groups: registry.counter("core.faulty.groups"),
            settles_redundant: registry.counter("core.settles.redundant"),
            settles_redundant_stuck_node: registry.counter("core.settles.redundant.stuck_node"),
            trigger_solves: registry.counter("core.trigger.solves"),
            trigger_cleared: registry.counter("core.trigger.cleared"),
            good_groups: registry.counter("core.good.groups"),
            replayed_groups: registry.counter("core.tape.replayed_groups"),
            detections: registry.counter("core.detections"),
            faults_dropped: registry.counter("core.faults_dropped"),
            faults_live: registry.gauge("core.faults_live"),
            scalar_fallbacks: registry.counter("switch.scalar_fallbacks"),
            step_seconds: STEP_GAUGES.map(|name| registry.gauge(name)),
            ..CoreMetrics::default()
        }
    }

    /// Starts a phase's step-timer laps.
    fn start_lap(&mut self) {
        self.lap_start = Some(Instant::now());
    }

    /// Charges the time since the previous lap to `step` and starts
    /// the next lap.
    fn lap(&mut self, step: Step) {
        let now = Instant::now();
        if let Some(start) = self.lap_start.replace(now) {
            self.local_step_seconds[step as usize] += now.duration_since(start).as_secs_f64();
        }
    }

    /// Counts one settle of a circuit (`ov`) that began the phase
    /// record-free (`started_clean`) and has `live` records after it.
    fn note_settle_outcome(&mut self, started_clean: bool, live: usize, ov: &Overrides) {
        if started_clean && live == 0 {
            self.local_settles_redundant += 1;
            self.local_settles_redundant_stuck_node += u64::from(!ov.forced_nodes.is_empty());
        }
    }

    fn flush(&mut self) {
        self.events_scheduled.add(self.local_events_scheduled);
        self.circuit_settles.add(self.local_circuit_settles);
        self.faulty_groups.add(self.local_faulty_groups);
        self.settles_redundant.add(self.local_settles_redundant);
        self.settles_redundant_stuck_node
            .add(self.local_settles_redundant_stuck_node);
        self.trigger_solves.add(self.local_trigger_solves);
        self.trigger_cleared.add(self.local_trigger_cleared);
        self.good_groups.add(self.local_good_groups);
        self.replayed_groups.add(self.local_replayed_groups);
        self.scalar_fallbacks.add(self.local_scalar_fallbacks);
        for (gauge, secs) in self.step_seconds.iter().zip(&mut self.local_step_seconds) {
            gauge.add(std::mem::take(secs));
        }
        self.local_events_scheduled = 0;
        self.local_circuit_settles = 0;
        self.local_faulty_groups = 0;
        self.local_settles_redundant = 0;
        self.local_settles_redundant_stuck_node = 0;
        self.local_trigger_solves = 0;
        self.local_trigger_cleared = 0;
        self.local_good_groups = 0;
        self.local_replayed_groups = 0;
        self.local_scalar_fallbacks = 0;
    }
}

/// Trigger-time dormancy: true iff a hit of circuit `c` at a fault site
/// may be skipped — the circuit has no divergence record, and it would
/// re-derive the good result there (`re_derives`, asked last: its site
/// agrees with the good circuit, or its own solve of the vicinity
/// re-derives the good group). Such a circuit holds the good circuit's
/// values at every node it does not force.
fn is_dormant(records: &StateLists, c: u32, re_derives: impl FnOnce() -> bool) -> bool {
    records.live_count(c) == 0 && re_derives()
}

/// The trigger-time solve: true iff a record-free circuit with
/// overrides `ov`, solving group `g` in its own view of `good` (the
/// state the group was solved from), re-derives the good result. One
/// solve from the first member must return exactly the group's members
/// (the fault neither splits nor merges the vicinity), each at the
/// value the good circuit gives it after the group: its `changed`
/// entry, else its current value. The circuit must not force the
/// first member.
fn re_derives_group(
    engine: &mut Engine,
    net: &Network,
    good: &[Logic],
    ov: &Overrides,
    g: TapeGroup<'_>,
) -> bool {
    let view = RecordFreeView::new(net, good, ov);
    let solved = engine.solve_vicinity(&view, g.members[0]);
    if solved.members().len() != g.members.len() {
        return false;
    }
    // With the sizes equal, every good member being solved makes the
    // two sets equal. The changed members must come out at their new
    // values (each differs from its current one), and no other member
    // may move.
    let mut moved = 0;
    for &m in g.members {
        match solved.value_of(m) {
            Some(v) => moved += usize::from(v != good[m.index()]),
            None => return false,
        }
    }
    moved == g.changed.len()
        && g.changed
            .iter()
            .all(|&(n, _, new)| solved.value_of(n) == Some(new))
}

/// True iff every stuck transistor of a circuit (`ov`) is forced to the
/// conduction the good circuit gives it in `good`.
fn transistors_agree(good: &DenseState<'_>, ov: &Overrides) -> bool {
    ov.forced_transistors
        .iter()
        .all(|&(t, cond)| good.conduction(t) == cond)
}

/// Configuration of the concurrent simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConcurrentConfig {
    /// Scheduler configuration (oscillation cap, locality mode).
    pub engine: EngineConfig,
    /// What counts as a detection.
    pub policy: DetectionPolicy,
    /// Drop faulty circuits once detected (the paper's behaviour).
    /// With this off every circuit is simulated for the whole sequence,
    /// which is what a campaign's `RunControl::drop_detected = false`
    /// sets.
    pub drop_on_detect: bool,
    /// Bit-parallel (PPSFP-style) faulty-circuit settling: the
    /// triggered circuits of each phase are grouped by shared seeds and
    /// settled up to 64 at a time through one pass of bitwise plane
    /// operations ([`fmossim_switch::PackedEngine`]), each lane
    /// perturbed with its own seed set and taking its seeds in its own
    /// scalar order. States, detections and the per-circuit work
    /// counters (`faulty_groups`, `circuit_settles`,
    /// `core.events_scheduled`) are identical to the scalar path after
    /// every phase; only the `switch.*` lane metrics see the shared
    /// passes. Ignored (scalar path used) under [`LocalityMode::Static`],
    /// which the packed engine does not implement. On in
    /// [`ConcurrentConfig::paper`]; `false` gives the scalar path, which
    /// the `paper_figures` ladder uses for its wall-time ratios.
    pub packing: bool,
}

impl ConcurrentConfig {
    /// The paper's algorithm as run by default: dynamic locality, drop
    /// on detect, any-difference detection, packed lanes.
    #[must_use]
    pub fn paper() -> Self {
        ConcurrentConfig {
            drop_on_detect: true,
            packing: true,
            ..ConcurrentConfig::default()
        }
    }
}

/// The concurrent switch-level fault simulator.
///
/// # Example
///
/// ```
/// use fmossim_netlist::{Network, Logic, Size, Drive, TransistorType};
/// use fmossim_faults::{Fault, FaultUniverse};
/// use fmossim_core::{ConcurrentSim, ConcurrentConfig, Pattern, Phase};
///
/// // An inverter whose output we observe.
/// let mut net = Network::new();
/// let vdd = net.add_input("Vdd", Logic::H);
/// let gnd = net.add_input("Gnd", Logic::L);
/// let a = net.add_input("A", Logic::L);
/// let out = net.add_storage("OUT", Size::S1);
/// net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
/// net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
///
/// let universe = FaultUniverse::stuck_nodes(&net);
/// let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
/// let patterns = vec![
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
/// ];
/// let report = sim.run(&patterns, &[out]);
/// assert_eq!(report.detected(), 2); // OUT stuck-at-0 and stuck-at-1
/// ```
pub struct ConcurrentSim<'n> {
    net: &'n Network,
    good: DenseState<'n>,
    engine: Engine,
    records: StateLists,
    /// Per circuit: the fault(s) it carries (singletons for the
    /// paper's experiments; multi-fault circuits supported).
    fault_sets: Vec<Vec<Fault>>,
    /// Per circuit id (0 unused): structural overrides.
    overrides: Vec<Overrides>,
    /// Per node (CSR row): circuits whose stuck node is this node,
    /// triggered wherever it lies in a support (at a member, unless it
    /// is the only one; outside the members, not while dormant);
    /// ascending and unique within each row.
    attach_nodes: Csr<u32>,
    /// Per node (CSR row): circuits with a stuck transistor whose
    /// storage channel end is this node, triggered only where it is a
    /// vicinity member, and not while dormant; ascending and unique
    /// within each row.
    attach_transistors: Csr<u32>,
    /// Per node (CSR row): circuits forcing this node, with the forced
    /// value (needed for strobe comparison — forced nodes carry no
    /// records).
    forced_at: Csr<(u32, Logic)>,
    /// Per circuit id: dropped after detection.
    dropped: Vec<bool>,
    /// Per circuit id: already counted as detected (relevant when
    /// `drop_on_detect` is off).
    detected_once: Vec<bool>,
    live: usize,
    /// Pending private events, drained in `(circuit, node)` order every
    /// settle step (see [`EventQueue`] for the drain-order invariant).
    queue: EventQueue,
    detections: Vec<Detection>,
    config: ConcurrentConfig,
    /// Scratch: circuits triggered by the current group.
    triggered: TriggerSet,
    /// The circuits the current phase has triggered, with their
    /// phase-start cleanliness.
    marks: PhaseMarks,
    /// The live path's record of the current phase's good settle,
    /// reused every phase.
    phase_tape: SettleTape,
    /// Scratch: the phase-start values of the inputs the live path
    /// changed, for the rewind.
    input_undo: Vec<(NodeId, Logic)>,
    /// Scratch: the `(circuit, value)` entries strobed at one output —
    /// a snapshot so detections can drop circuits mid-iteration.
    strobe_scratch: Vec<(u32, Logic)>,
    /// The bit-parallel lane machinery; present iff
    /// [`ConcurrentConfig::packing`] is on (and locality is dynamic).
    packed: Option<Box<PackedLanes>>,
    metrics: CoreMetrics,
}

impl<'n> ConcurrentSim<'n> {
    /// Creates a simulator for single faults on `net`. Fault `k`
    /// becomes circuit `k + 1`; all circuits start at the reset state
    /// (inputs at declared defaults, storage at `X`) with their faults
    /// active.
    #[must_use]
    pub fn new(net: &'n Network, faults: &[Fault], config: ConcurrentConfig) -> Self {
        ConcurrentSim::new_multi(net, faults.iter().map(|&f| vec![f]).collect(), config)
    }

    /// Creates a simulator where each circuit carries a *set* of
    /// simultaneous faults — double-fault and fault-masking studies.
    /// Set `k` becomes circuit `k + 1`; its [`Detection`] reports
    /// `FaultId(k)`.
    #[must_use]
    pub fn new_multi(
        net: &'n Network,
        fault_sets: Vec<Vec<Fault>>,
        config: ConcurrentConfig,
    ) -> Self {
        let good = DenseState::new(net);
        let mut engine = Engine::with_config(net, config.engine);
        engine.perturb_all_storage(&good);
        let packed = (config.packing && config.engine.locality == LocalityMode::Dynamic)
            .then(|| Box::new(PackedLanes::new(net, config.engine)));
        let n_sets = fault_sets.len();
        let mut overrides = vec![Overrides::default(); n_sets + 1];
        let mut queue = EventQueue::default();
        // The structural tables, flattened: (node, entry) pairs sorted
        // by node, then CSR-compacted. `attach_*` rows must be ascending
        // and unique; `forced_at` rows keep their per-circuit push
        // order (circuit-ascending by construction of the loop).
        let mut node_pairs = Vec::new();
        let mut transistor_pairs = Vec::new();
        let mut forced_pairs = Vec::new();
        for (k, set) in fault_sets.iter().enumerate() {
            let circ = u32::try_from(k + 1).expect("too many faults");
            overrides[circ as usize] = Overrides::from_effects(set.iter().map(Fault::effect));
            for fault in set {
                if let FaultEffect::ForceNode { node, value } = fault.effect() {
                    forced_pairs.push((
                        u32::try_from(node.index()).expect("node fits u32"),
                        (circ, value),
                    ));
                }
                let pairs = match fault.effect() {
                    FaultEffect::ForceNode { .. } => &mut node_pairs,
                    FaultEffect::ForceTransistor { .. } => &mut transistor_pairs,
                };
                for n in fault.footprint(net) {
                    pairs.push((u32::try_from(n.index()).expect("node fits u32"), circ));
                }
                for s in fault.initial_seeds(net) {
                    queue.schedule(CircuitId(circ), s);
                }
            }
        }
        for pairs in [&mut node_pairs, &mut transistor_pairs] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        // Stable by node: entries at one node stay in push order.
        forced_pairs.sort_by_key(|&(n, _)| n);
        ConcurrentSim {
            net,
            good,
            engine,
            records: StateLists::new(net.num_nodes(), n_sets),
            fault_sets,
            overrides,
            attach_nodes: Csr::new(net.num_nodes(), &node_pairs),
            attach_transistors: Csr::new(net.num_nodes(), &transistor_pairs),
            forced_at: Csr::new(net.num_nodes(), &forced_pairs),
            dropped: vec![false; n_sets + 1],
            detected_once: vec![false; n_sets + 1],
            live: n_sets,
            queue,
            detections: Vec::new(),
            config,
            triggered: TriggerSet::new(n_sets + 1),
            marks: PhaseMarks::new(n_sets + 1),
            phase_tape: SettleTape::default(),
            input_undo: Vec::new(),
            strobe_scratch: Vec::new(),
            packed,
            metrics: CoreMetrics::default(),
        }
    }

    /// Publishes this simulator's activity into `registry`: the
    /// `core.*` metrics (events scheduled, circuit settles, detections,
    /// live faults, tape replay hits) plus the owned engine's
    /// `switch.*` metrics. Until attached (or when `registry` is null)
    /// the instrumentation is a no-op. Fault-parallel drivers attach a
    /// per-shard [`Registry::fork`] and merge at report time.
    ///
    /// Per-settle activity is accumulated locally and folded into the
    /// registry at every pattern boundary (both live and replayed
    /// paths); callers stepping individual phases via
    /// [`ConcurrentSim::step_phase`] call
    /// [`ConcurrentSim::flush_metrics`] before reading the registry.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = CoreMetrics::attach(registry);
        self.metrics.faults_live.set(self.live as f64);
        self.engine.attach_metrics(registry);
        if let Some(packed) = &mut self.packed {
            packed.engine.attach_metrics(registry);
        }
    }

    /// Folds locally accumulated settle activity (this simulator's and
    /// its engine's) into the attached registry. Runs automatically at
    /// every pattern boundary; needed explicitly only when stepping
    /// phases by hand.
    pub fn flush_metrics(&mut self) {
        self.metrics.flush();
        self.engine.flush_metrics();
        if let Some(packed) = &mut self.packed {
            packed.engine.flush_metrics();
        }
    }

    /// The fault sets being simulated, in circuit order (singleton
    /// sets when constructed via [`ConcurrentSim::new`]).
    #[must_use]
    pub fn fault_sets(&self) -> &[Vec<Fault>] {
        &self.fault_sets
    }

    /// Number of faulty circuits not yet detected-and-dropped.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// The good circuit's current state of node `n`.
    #[must_use]
    pub fn good_state(&self, n: NodeId) -> Logic {
        self.good.node_state(n)
    }

    /// The current state of node `n` in the faulty circuit of fault
    /// `f` (forced value, else divergence record, else good state).
    #[must_use]
    pub fn fault_state(&self, f: FaultId, n: NodeId) -> Logic {
        let circ = u32::try_from(f.index() + 1).expect("fault id in range");
        if let Some(v) = self.overrides[circ as usize].forced_value(n) {
            return v;
        }
        self.records
            .get(n, circ)
            .unwrap_or_else(|| self.good.node_state(n))
    }

    /// Drops the faulty circuit of `f` without recording a detection,
    /// reclaiming its records — the external counterpart of the
    /// drop-on-detect rule. A sharded driver (or any coordinator that
    /// learns about a fault from outside this simulator, e.g. a
    /// cross-shard equivalence oracle) uses this to stop paying for a
    /// circuit it no longer needs. Returns `false` if the fault is out
    /// of range or already dropped.
    pub fn drop_fault(&mut self, f: FaultId) -> bool {
        let circ = f.index() + 1;
        if circ > self.fault_sets.len() || self.dropped[circ] {
            return false;
        }
        self.drop_circuit(u32::try_from(circ).expect("circuit id fits"));
        true
    }

    /// All detections so far, in occurrence order.
    #[must_use]
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Total number of live divergence records (a measure of how
    /// different the faulty circuits currently are from the good one).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Every `(fault, output_index, good, faulty)` divergence currently
    /// visible on `outputs`, across all live circuits, in ascending
    /// circuit order per output. This is the raw material of strobe
    /// comparison, exposed for harnesses that need more than the
    /// built-in detection logic — e.g. building a fault dictionary.
    #[must_use]
    pub fn output_divergences(&self, outputs: &[NodeId]) -> Vec<(FaultId, usize, Logic, Logic)> {
        let mut v = Vec::new();
        for (oi, &out) in outputs.iter().enumerate() {
            let goodv = self.good.node_state(out);
            for (circ, val) in self.records.circuits_at(out) {
                if !self.dropped[circ as usize] {
                    v.push((FaultId(circ - 1), oi, goodv, val));
                }
            }
            for &(circ, val) in self.forced_at.row(out.index()) {
                if !self.dropped[circ as usize] && val != goodv {
                    v.push((FaultId(circ - 1), oi, goodv, val));
                }
            }
        }
        v
    }

    /// Runs a pattern sequence, observing `outputs` at every strobe
    /// phase. Returns per-pattern statistics and all detections made
    /// during this run. May be called repeatedly to continue a
    /// simulation with further sequences.
    pub fn run(&mut self, patterns: &[Pattern], outputs: &[NodeId]) -> RunReport {
        self.run_patterns(patterns, |sim, pi, pattern| {
            Some(sim.live_pattern(pattern, outputs, pi, None))
        })
        .expect("a live run reads no tape")
    }

    /// Runs a pattern sequence live, as [`ConcurrentSim::run`] does,
    /// and leads a [`TapeStream`](crate::TapeStream): each phase's good
    /// settle is published to the stream's followers before this
    /// simulator's own phase body runs on it. The run ends the stream
    /// when it returns or unwinds (`leader` is dropped).
    ///
    /// Followers replay from reset, so this simulator's good machine
    /// must still be at reset (a fresh simulator).
    pub fn run_leading(
        &mut self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        leader: TapeLeader,
    ) -> RunReport {
        self.run_patterns(patterns, |sim, pi, pattern| {
            Some(sim.live_pattern(pattern, outputs, pi, Some(&leader)))
        })
        .expect("a live run reads no tape")
    }

    /// Steps every pattern through `step` and gathers the run's report;
    /// `None` as soon as a step returns `None`.
    fn run_patterns(
        &mut self,
        patterns: &[Pattern],
        mut step: impl FnMut(&mut Self, usize, &Pattern) -> Option<PatternStats>,
    ) -> Option<RunReport> {
        let t0 = Instant::now();
        let detections_before = self.detections.len();
        let mut report = RunReport {
            num_faults: self.fault_sets.len(),
            ..RunReport::default()
        };
        for (pi, pattern) in patterns.iter().enumerate() {
            report.patterns.push(step(self, pi, pattern)?);
        }
        report.detections = self.detections[detections_before..].to_vec();
        report.total_seconds = t0.elapsed().as_secs_f64();
        Some(report)
    }

    /// Simulates one pattern (all its phases) and returns its stats.
    pub fn step_pattern(
        &mut self,
        pattern: &Pattern,
        outputs: &[NodeId],
        pattern_idx: usize,
    ) -> PatternStats {
        self.live_pattern(pattern, outputs, pattern_idx, None)
    }

    /// [`ConcurrentSim::step_pattern`], publishing each phase's good
    /// settle to `leader` when there is one.
    fn live_pattern(
        &mut self,
        pattern: &Pattern,
        outputs: &[NodeId],
        pattern_idx: usize,
        leader: Option<&TapeLeader>,
    ) -> PatternStats {
        let t0 = Instant::now();
        let mut stats = PatternStats {
            live_before: self.live,
            ..PatternStats::default()
        };
        for (phi, phase) in pattern.phases.iter().enumerate() {
            self.live_phase(phase, outputs, pattern_idx, phi, &mut stats, leader);
        }
        self.flush_metrics();
        stats.seconds = t0.elapsed().as_secs_f64();
        stats
    }

    /// Simulates one phase: input application, good settle with
    /// triggering, faulty settles, optional strobe. Exposed so that
    /// harnesses (and the equivalence tests) can inspect circuit states
    /// between phases; most callers want [`ConcurrentSim::run`].
    pub fn step_phase(
        &mut self,
        phase: &Phase,
        outputs: &[NodeId],
        pattern_idx: usize,
        phase_idx: usize,
        stats: &mut PatternStats,
    ) {
        self.live_phase(phase, outputs, pattern_idx, phase_idx, stats, None);
    }

    /// [`ConcurrentSim::step_phase`], publishing the good settle to
    /// `leader` (when there is one) before the phase body runs.
    fn live_phase(
        &mut self,
        phase: &Phase,
        outputs: &[NodeId],
        pattern_idx: usize,
        phase_idx: usize,
        stats: &mut PatternStats,
        leader: Option<&TapeLeader>,
    ) {
        self.metrics.start_lap();
        let mut tape = std::mem::take(&mut self.phase_tape);
        self.record_good_phase(phase, &mut tape);
        if let Some(leader) = leader {
            leader.publish(&tape);
        }
        self.metrics.local_good_groups += tape.num_groups() as u64;
        self.phase_body(phase, &tape, outputs, pattern_idx, phase_idx, stats);
        self.phase_tape = tape;
    }

    /// The live path's good settle: applies the phase's inputs, settles
    /// the good circuit into `tape`, then rewinds the good state to the
    /// phase start, so that [`ConcurrentSim::phase_body`] replays the
    /// phase exactly as it replays a recorded [`GoodTape`]. Triggering
    /// needs no look-ahead; the rewind keeps one trigger path for live
    /// and replayed runs. The input change/skip test here (`old != v`,
    /// the one [`Engine::apply_input`] makes) is the body's test on the
    /// same values, so both see the same changes.
    fn record_good_phase(&mut self, phase: &Phase, tape: &mut SettleTape) {
        tape.clear();
        self.input_undo.clear();
        for &(n, v) in &phase.inputs {
            let old = self.good.node_state(n);
            if old != v {
                self.input_undo.push((n, old));
                self.engine.apply_input(&mut self.good, n, v);
            }
        }
        let net = self.net;
        let rep = self
            .engine
            .settle_observed(&mut self.good, |g| tape.push_group(net, g));
        tape.finish(&rep);
        for &(n, old, _new) in tape.changes().iter().rev() {
            self.good.force(n, old);
        }
        for &(n, old) in self.input_undo.iter().rev() {
            self.good.force(n, old);
        }
    }

    /// One phase from its phase-start good state and its good settle
    /// `settle` — the body shared by the live path and tape replay:
    /// applies the inputs (with the open-channel trigger special case),
    /// triggers from each recorded group and applies its changes,
    /// settles the triggered faulty circuits and strobes.
    fn phase_body(
        &mut self,
        phase: &Phase,
        settle: &SettleTape,
        outputs: &[NodeId],
        pattern_idx: usize,
        phase_idx: usize,
        stats: &mut PatternStats,
    ) {
        self.marks.begin();

        // 1. Input changes (with the open-channel trigger special case).
        for &(n, v) in &phase.inputs {
            if self.good.node_state(n) == v {
                continue;
            }
            self.trigger_input_change(n);
            self.good.force(n, v);
        }

        // 2. The good settle, in the engine's solve order: per group,
        // trigger from its support while the good state is the one the
        // group was solved from, then apply its changes.
        // A damped settle's changes are not its solves' values, so no
        // trigger-time solve can match them.
        let solvable = !settle.damped();
        for g in settle.groups() {
            self.trigger_group(g, solvable, stats);
            for &(node, _old, new) in g.changed {
                self.good.force(node, new);
            }
        }
        stats.good_groups += settle.num_groups();
        stats.damped |= settle.damped();
        self.metrics.lap(Step::Good);

        // 3. Faulty circuits.
        self.settle_triggered(stats);

        // 4. Strobe: compare observed outputs, detect and drop.
        if phase.strobe {
            self.observe(outputs, pattern_idx, phase_idx, stats);
            self.metrics.lap(Step::Strobe);
        }
    }

    /// Triggers the faulty circuits one good group can affect and queues
    /// their private events: circuits with a divergence record anywhere
    /// in the group's support or a stuck node at a member (unless that
    /// node is the whole vicinity), and circuits with a stuck transistor
    /// at a member or a stuck node in the rest of the support unless the
    /// hit is dormant ([`is_dormant`]: the stuck transistors at the good
    /// conduction, the stuck node at the good value, or, when `solvable`,
    /// a trigger-time solve that re-derives the good result). Must run
    /// before the group's changes are applied to the good state. The
    /// triggered circuits' records receive the pre-change values of every
    /// changed node (old-value preservation), and the group's members
    /// become their pending private-event seeds.
    fn trigger_group(&mut self, g: TapeGroup<'_>, solvable: bool, stats: &mut PatternStats) {
        let net = self.net;
        let ConcurrentSim {
            good,
            engine,
            records,
            overrides,
            attach_nodes,
            attach_transistors,
            marks,
            queue,
            dropped,
            triggered,
            metrics,
            ..
        } = self;
        triggered.begin();
        for &s in g.members.iter().chain(g.support_rest) {
            records.for_circuits_at(s, |c| {
                if !dropped[c as usize] {
                    triggered.insert(c);
                }
            });
        }
        // A stuck node that is the whole vicinity is an input of its
        // circuit: preservation exempts it and its seed is skipped, so
        // the trigger would do nothing, at a member or, gating one of
        // the vicinity's own transistors, in the rest of the support.
        let lone = match g.members {
            [m] => Some(*m),
            _ => None,
        };
        if lone.is_none() {
            for &m in g.members {
                for &c in attach_nodes.row(m.index()) {
                    if !dropped[c as usize] {
                        triggered.insert(c);
                    }
                }
            }
        }
        // Each trigger-time solve is a vicinity solved for a faulty
        // circuit, so it counts as a faulty group. A circuit forcing the
        // first member has an input there: its partition differs, and
        // there is nothing to solve.
        let mut solve_clears = |c: u32, triggered: &mut TriggerSet| {
            let ov = &overrides[c as usize];
            if !solvable || ov.forced_value(g.members[0]).is_some() {
                return false;
            }
            stats.faulty_groups += 1;
            metrics.local_faulty_groups += 1;
            metrics.local_trigger_solves += 1;
            let cleared = re_derives_group(engine, net, good.states(), ov, g);
            if cleared {
                metrics.local_trigger_cleared += 1;
                triggered.clear_hit(c);
            }
            cleared
        };
        for &m in g.members {
            for &c in attach_transistors.row(m.index()) {
                if !dropped[c as usize]
                    && !triggered.decided(c)
                    && !is_dormant(records, c, || {
                        transistors_agree(good, &overrides[c as usize])
                            || solve_clears(c, triggered)
                    })
                {
                    triggered.insert(c);
                }
            }
        }
        for &s in g.support_rest.iter().filter(|&&s| Some(s) != lone) {
            for &c in attach_nodes.row(s.index()) {
                if !dropped[c as usize]
                    && !triggered.decided(c)
                    && !is_dormant(records, c, || {
                        overrides[c as usize].forced_value(s) == Some(good.node_state(s))
                            || solve_clears(c, triggered)
                    })
                {
                    triggered.insert(c);
                }
            }
        }
        for &c in triggered.circuits() {
            marks.note_start(c, records.live_count(c) == 0);
            // Old-value preservation: the triggered circuit must still
            // see the pre-change state until it re-settles. A circuit's
            // forced nodes are exempt — their values are fixed by the
            // fault and the records could never be cleaned up (the
            // engine never solves forced nodes).
            let forced = &overrides[c as usize];
            for &(node, old, _new) in g.changed {
                if forced.forced_value(node).is_some() {
                    continue;
                }
                if records.get(node, c).is_none() {
                    records.set(node, c, old);
                }
            }
            for &m in g.members {
                queue.schedule(CircuitId(c), m);
            }
        }
    }

    /// Settles every triggered faulty circuit — step 3 of the phase
    /// loop, shared between the live and replayed good-machine paths.
    ///
    /// The scalar path works in circuit-id order; the packed path
    /// regroups circuits by identical seed sets first. Circuits never
    /// interact during this step (each settles its own records against
    /// the read-only good state), so the order does not affect any
    /// result bit.
    fn settle_triggered(&mut self, stats: &mut PatternStats) {
        if self.packed.is_some() {
            self.settle_triggered_packed(stats);
            return;
        }
        // Drain the flat queue: one sort yields ascending circuit runs
        // with sorted, deduplicated seed nodes — the same schedule the
        // per-circuit map produced, with no per-circuit allocation.
        // Dropped circuits are skipped here (dropping removes records,
        // not queue entries).
        let events = self.queue.take_sorted();
        self.metrics.lap(Step::Drain);
        let mut i = 0;
        while i < events.len() {
            let circ = events[i].0;
            let mut j = i + 1;
            while j < events.len() && events[j].0 == circ {
                j += 1;
            }
            if !self.dropped[circ.index()] {
                self.settle_circuit_scalar(circ.get(), &events[i..j], stats, false);
            }
            i = j;
        }
        self.queue.restore(events);
        self.metrics.lap(Step::Faulty);
    }

    /// The packed lane scheduler: drains the pending private events,
    /// splits the triggered circuits by seed sharing, and settles the
    /// sharing ones in chunks of up to 64 lanes through the packed
    /// engine, each lane perturbed with its own (sorted, deduplicated)
    /// seed set. Lanes are independent inside the engine — pending,
    /// solved and damping masks and the queue order are all per-lane —
    /// so a lane's seed-by-seed schedule is exactly its scalar schedule
    /// no matter what the other lanes do; lanes whose vicinity
    /// structure diverges mid-solve are re-solved in place.
    ///
    /// Bit-sharing happens wherever two lanes' propagation fronts meet
    /// at the same group in the same round, and the first round is the
    /// predictor: circuits woken at a common node (a shared bitline, a
    /// bus) start aligned, while a circuit whose every seed is private
    /// to it — no other triggered circuit was woken there — propagates
    /// in its own region and would only pay the packed machinery's
    /// per-chunk overhead. The split routes the latter (and any phase
    /// that triggers a single circuit) through the scalar engine,
    /// counted as `switch.scalar_fallbacks`. The sharing circuits are
    /// chunked in order of their seed sets, not their ids, so circuits
    /// woken at the same nodes share a chunk even when their fault ids
    /// are far apart. Both paths are bit-identical, so the split and
    /// the chunking are pure scheduling.
    fn settle_triggered_packed(&mut self, stats: &mut PatternStats) {
        // One sorted drain of the flat queue yields the batch directly:
        // ascending circuit runs (the lane→circuit map the packed view
        // binary-searches) whose seed slices are already sorted and
        // deduplicated in the event buffer — no per-circuit Vec.
        let events = self.queue.take_sorted();
        let lanes = self.packed.as_mut().expect("packed path active");
        let mut batch = std::mem::take(&mut lanes.batch);
        let mut shared = std::mem::take(&mut lanes.shared);
        let mut solo = std::mem::take(&mut lanes.solo);
        batch.clear();
        shared.clear();
        solo.clear();
        let mut i = 0;
        while i < events.len() {
            let circ = events[i].0;
            let mut j = i + 1;
            while j < events.len() && events[j].0 == circ {
                j += 1;
            }
            if !self.dropped[circ.index()] {
                batch.push(SeedRun {
                    circ: circ.get(),
                    start: u32::try_from(i).expect("event index fits u32"),
                    end: u32::try_from(j).expect("event index fits u32"),
                });
            }
            i = j;
        }
        {
            let lanes = self.packed.as_mut().expect("packed path active");
            lanes.seed_gen = lanes.seed_gen.wrapping_add(1);
            if lanes.seed_gen == 0 {
                lanes.seed_epoch.fill(0);
                lanes.seed_gen = 1;
            }
            for run in &batch {
                for &(_, s) in &events[run.range()] {
                    let i = s.index();
                    if lanes.seed_epoch[i] != lanes.seed_gen {
                        lanes.seed_epoch[i] = lanes.seed_gen;
                        lanes.seed_count[i] = 0;
                    }
                    lanes.seed_count[i] += 1;
                }
            }
            for run in batch.drain(..) {
                let shares = events[run.range()]
                    .iter()
                    .any(|&(_, s)| lanes.seed_count[s.index()] >= 2);
                if shares {
                    shared.push(run);
                } else {
                    solo.push(run);
                }
            }
        }
        // Seed-grouped chunks: order the sharing circuits by their seed
        // sets, so circuits woken at the same nodes land in the same
        // chunk whatever their ids, then restore ascending circuit ids
        // inside each chunk (the lane order the packed view
        // binary-searches).
        shared.sort_unstable_by(|a, b| {
            let seeds = |r: &SeedRun| events[r.range()].iter().map(|&(_, s)| s);
            seeds(a).cmp(seeds(b)).then(a.circ.cmp(&b.circ))
        });
        self.metrics.lap(Step::Drain);
        for chunk in shared.chunks_mut(64) {
            chunk.sort_unstable_by_key(|run| run.circ);
            if chunk.len() == 1 {
                let run = chunk[0];
                self.settle_circuit_scalar(run.circ, &events[run.range()], stats, true);
            } else {
                self.settle_chunk_packed(&events, chunk, stats);
            }
        }
        for &run in &solo {
            self.settle_circuit_scalar(run.circ, &events[run.range()], stats, true);
        }
        let lanes = self.packed.as_mut().expect("packed path active");
        lanes.batch = batch;
        lanes.shared = shared;
        lanes.solo = solo;
        self.queue.restore(events);
        self.metrics.lap(Step::Faulty);
    }

    /// Settles one faulty circuit through the scalar engine (the
    /// original concurrent path; under packing, the singleton-bucket
    /// fallback).
    fn settle_circuit_scalar(
        &mut self,
        circ: u32,
        seeds: &[(CircuitId, NodeId)],
        stats: &mut PatternStats,
        fallback: bool,
    ) {
        let net = self.net;
        let ConcurrentSim {
            good,
            engine,
            records,
            overrides,
            marks,
            metrics,
            ..
        } = self;
        metrics.local_events_scheduled += seeds.len() as u64;
        let started_clean = marks.started_clean(circ, records.live_count(circ) == 0);
        let rep = {
            let mut view =
                FaultyView::new(net, good.states(), records, circ, &overrides[circ as usize]);
            for &(_, s) in seeds {
                engine.perturb(s);
            }
            engine.settle(&mut view)
        };
        // Convergence sweep: when the *good* circuit moved to the
        // value this circuit already held, the settle saw no
        // change and left the record in place — now equal to the
        // good state. Seeds cover every node the good circuit
        // changed (that is what triggered us), so sweeping them
        // restores the records-iff-divergent invariant.
        for &(_, s) in seeds {
            if records.get(s, circ) == Some(good.node_state(s)) {
                records.remove(s, circ);
            }
        }
        stats.faulty_groups += rep.groups_solved;
        stats.circuit_settles += 1;
        stats.damped |= rep.oscillation_damped;
        metrics.local_faulty_groups += rep.groups_solved as u64;
        metrics.local_circuit_settles += 1;
        metrics.note_settle_outcome(
            started_clean,
            records.live_count(circ),
            &overrides[circ as usize],
        );
        if fallback {
            metrics.local_scalar_fallbacks += rep.groups_solved as u64;
        }
    }

    /// Settles a chunk of 2–64 circuits through the packed engine —
    /// lane `i` perturbed with `chunk[i]`'s seeds — then scatters the
    /// dirty lanes back into the record lists and runs the per-lane
    /// convergence sweep.
    fn settle_chunk_packed(
        &mut self,
        events: &[(CircuitId, NodeId)],
        chunk: &[SeedRun],
        stats: &mut PatternStats,
    ) {
        let net = self.net;
        let ConcurrentSim {
            good,
            records,
            overrides,
            packed,
            marks,
            metrics,
            ..
        } = self;
        let PackedLanes {
            engine,
            scratch,
            lane_circs,
            ..
        } = &mut **packed.as_mut().expect("packed path active");
        lane_circs.clear();
        lane_circs.extend(chunk.iter().map(|run| run.circ));
        // Lanes whose circuit began the phase record-free, read before
        // the scatter writes their records.
        let mut started_clean = 0u64;
        for (lane, run) in chunk.iter().enumerate() {
            if marks.started_clean(run.circ, records.live_count(run.circ) == 0) {
                started_clean |= 1u64 << lane;
            }
        }
        let rep = {
            let mut view =
                PackedBucketView::new(net, good.states(), records, lane_circs, overrides, scratch);
            for (lane, run) in chunk.iter().enumerate() {
                let seeds = &events[run.range()];
                metrics.local_events_scheduled += seeds.len() as u64;
                let bit = 1u64 << lane;
                for &(_, s) in seeds {
                    engine.perturb(s, bit);
                }
            }
            engine.settle(&mut view)
        };
        scratch.scatter(good.states(), records, lane_circs);
        // Per-lane convergence sweep, as in the scalar path.
        for (lane, run) in chunk.iter().enumerate() {
            for &(_, s) in &events[run.range()] {
                if records.get(s, run.circ) == Some(good.node_state(s)) {
                    records.remove(s, run.circ);
                }
            }
            metrics.note_settle_outcome(
                started_clean & (1u64 << lane) != 0,
                records.live_count(run.circ),
                &overrides[run.circ as usize],
            );
        }
        // `groups_solved` counts per lane, so both work counters stay
        // per circuit, as on the scalar path.
        stats.faulty_groups += rep.groups_solved;
        stats.circuit_settles += chunk.len();
        stats.damped |= rep.oscillation_damped();
        metrics.local_faulty_groups += rep.groups_solved as u64;
        metrics.local_circuit_settles += chunk.len() as u64;
    }

    /// Runs a pattern sequence against a recorded good-machine
    /// [`GoodTape`] instead of re-settling the good circuit — the
    /// replay half of the record/replay split. Triggered faults,
    /// old-value preservation and private events are re-derived from
    /// the tape's solved groups, so the result (detections, drops,
    /// per-pattern counters) is bit-identical to [`ConcurrentSim::run`]
    /// over the same patterns; only the good-machine solver work is
    /// saved.
    ///
    /// The tape must have been recorded over the same network and the
    /// same patterns from reset ([`GoodTape::record`]), and this
    /// simulator's good machine must still be at reset (a fresh
    /// simulator).
    ///
    /// # Panics
    ///
    /// Panics if the tape's shape (network node count, pattern and
    /// phase counts) does not match `patterns`.
    pub fn run_replayed(
        &mut self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        tape: &GoodTape,
    ) -> RunReport {
        assert!(
            tape.matches(self.net.num_nodes(), patterns),
            "good tape does not match the pattern sequence \
             (tape: {} nodes, {} patterns; run: {} nodes, {} patterns)",
            tape.num_nodes(),
            tape.num_patterns(),
            self.net.num_nodes(),
            patterns.len(),
        );
        self.run_replayed_from(patterns, outputs, &mut tape.reader())
            .expect("a matching tape holds every phase")
    }

    /// Runs a pattern sequence replaying the good machine's phases from
    /// `source`, as [`ConcurrentSim::run_replayed`] replays a whole
    /// tape: one phase per pattern phase, in sequence order, recorded
    /// over the same network and patterns from reset. Returns `None`
    /// if the source ends early (a [`TapeStream`](crate::TapeStream)
    /// whose leader stopped); the simulator is then mid-sequence and of
    /// no further use.
    pub fn run_replayed_from(
        &mut self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        source: &mut impl PhaseSource,
    ) -> Option<RunReport> {
        self.run_patterns(patterns, |sim, pi, pattern| {
            sim.replay_pattern(pattern, source, outputs, pi)
        })
    }

    /// Simulates one pattern against its recorded phase tapes
    /// (the replay counterpart of [`ConcurrentSim::step_pattern`]).
    ///
    /// # Panics
    ///
    /// Panics if `phase_tapes` has a different phase count than
    /// `pattern`.
    pub fn step_pattern_replayed(
        &mut self,
        pattern: &Pattern,
        phase_tapes: &[PhaseTape],
        outputs: &[NodeId],
        pattern_idx: usize,
    ) -> PatternStats {
        assert_eq!(
            pattern.phases.len(),
            phase_tapes.len(),
            "phase tape count mismatch"
        );
        self.replay_pattern(pattern, &mut phase_tapes.iter(), outputs, pattern_idx)
            .expect("one tape per phase")
    }

    /// One pattern of the replay path, its phases read from `source`;
    /// `None` if the source ends first.
    fn replay_pattern(
        &mut self,
        pattern: &Pattern,
        source: &mut impl PhaseSource,
        outputs: &[NodeId],
        pattern_idx: usize,
    ) -> Option<PatternStats> {
        // Pending good-machine perturbations (the constructor's
        // all-storage seeding, on a fresh simulator) are covered by the
        // tape: discard them so they cannot leak into the first faulty
        // settle. Between replayed patterns the queue is always empty,
        // so this is free thereafter.
        self.engine.clear_pending();
        let t0 = Instant::now();
        let mut stats = PatternStats {
            live_before: self.live,
            ..PatternStats::default()
        };
        for (phi, phase) in pattern.phases.iter().enumerate() {
            let settle = source.next_phase()?;
            // The recorded settle replaces the good settle; everything
            // else is the live path's phase body.
            self.metrics.start_lap();
            self.metrics.local_replayed_groups += settle.num_groups() as u64;
            self.phase_body(phase, settle, outputs, pattern_idx, phi, &mut stats);
        }
        self.flush_metrics();
        stats.seconds = t0.elapsed().as_secs_f64();
        Some(stats)
    }

    /// The special-case triggering for an input about to change: faulty
    /// circuits in which an open channel transistor of the input may
    /// conduct need a private event even though the good circuit shows
    /// no activity there — those diverging at its gate, those with a
    /// stuck node at the gate or either channel end, and those with a
    /// stuck transistor at the far end unless they are dormant with
    /// every stuck transistor at the good conduction. No vicinity is
    /// solved here, so there is no trigger-time solve.
    fn trigger_input_change(&mut self, n: NodeId) {
        let net = self.net;
        let ConcurrentSim {
            good,
            records,
            overrides,
            attach_nodes,
            attach_transistors,
            marks,
            dropped,
            triggered,
            queue,
            ..
        } = self;
        for &t in net.channel_transistors(n) {
            if good.conduction(t).may_conduct() {
                continue; // good settle will solve and trigger normally
            }
            let tr = net.transistor(t);
            let other = tr.other_end(n);
            triggered.begin();
            records.for_circuits_at(tr.gate, |c| {
                if !dropped[c as usize] {
                    triggered.insert(c);
                }
            });
            for s in [tr.gate, other, n] {
                for &c in attach_nodes.row(s.index()) {
                    if !dropped[c as usize] {
                        triggered.insert(c);
                    }
                }
            }
            // A stuck transistor's footprint holds no input, so `n`
            // has none.
            for &c in attach_transistors.row(other.index()) {
                if !dropped[c as usize]
                    && !is_dormant(records, c, || {
                        transistors_agree(good, &overrides[c as usize])
                    })
                {
                    triggered.insert(c);
                }
            }
            for &c in triggered.circuits() {
                marks.note_start(c, records.live_count(c) == 0);
                queue.schedule(CircuitId(c), other);
            }
        }
    }

    /// Compares observed outputs between good and every diverging
    /// circuit; detections are recorded and (by default) the circuits
    /// dropped.
    fn observe(
        &mut self,
        outputs: &[NodeId],
        pattern_idx: usize,
        phase_idx: usize,
        stats: &mut PatternStats,
    ) {
        // The per-output record and forced lists are snapshotted into a
        // reusable scratch buffer (detections drop circuits, mutating
        // the record store mid-iteration) — the allocation-free
        // equivalent of cloning each list.
        let mut strobe = std::mem::take(&mut self.strobe_scratch);
        for &out in outputs {
            let goodv = self.good.node_state(out);
            strobe.clear();
            self.records.for_records_at(out, |c, v| strobe.push((c, v)));
            for &(circ, val) in &strobe {
                self.maybe_detect(circ, goodv, val, pattern_idx, phase_idx, stats);
            }
            strobe.clear();
            strobe.extend_from_slice(self.forced_at.row(out.index()));
            for &(circ, val) in &strobe {
                if val != goodv {
                    self.maybe_detect(circ, goodv, val, pattern_idx, phase_idx, stats);
                }
            }
        }
        self.strobe_scratch = strobe;
    }

    fn maybe_detect(
        &mut self,
        circ: u32,
        goodv: Logic,
        faultyv: Logic,
        pattern_idx: usize,
        phase_idx: usize,
        stats: &mut PatternStats,
    ) {
        if self.dropped[circ as usize] || self.detected_once[circ as usize] {
            return;
        }
        debug_assert_ne!(goodv, faultyv, "divergence records imply difference");
        let definite = goodv.is_definite() && faultyv.is_definite();
        let counts = match self.config.policy {
            DetectionPolicy::AnyDifference => true,
            DetectionPolicy::DefiniteOnly => definite,
        };
        if !counts {
            return;
        }
        self.detected_once[circ as usize] = true;
        self.detections.push(Detection {
            fault: FaultId(circ - 1),
            pattern: pattern_idx,
            phase: phase_idx,
            good: goodv,
            faulty: faultyv,
        });
        stats.detected += 1;
        self.metrics.detections.inc();
        if self.config.drop_on_detect {
            self.drop_circuit(circ);
        }
    }

    fn drop_circuit(&mut self, circ: u32) {
        debug_assert!(!self.dropped[circ as usize]);
        self.dropped[circ as usize] = true;
        self.live -= 1;
        self.records.drop_circuit(circ);
        // Queued events for the circuit (if any) are skipped at drain:
        // the flat queue needs no removal here.
        self.metrics.faults_dropped.inc();
        self.metrics.faults_live.set(self.live as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_faults::FaultUniverse;
    use fmossim_netlist::{Drive, Size, TransistorId, TransistorType};

    /// CMOS inverter with observable output; two node faults.
    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    fn toggle_patterns(a: NodeId) -> Vec<Pattern> {
        vec![
            Pattern::labelled(vec![Phase::strobe(vec![(a, Logic::L)])], "A=0"),
            Pattern::labelled(vec![Phase::strobe(vec![(a, Logic::H)])], "A=1"),
        ]
    }

    #[test]
    fn detects_output_stuck_faults() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        assert_eq!(universe.len(), 2);
        let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
        let report = sim.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detected(), 2, "both stuck faults detected");
        assert_eq!(sim.live(), 0);
        // OUT stuck-at-0: detected when good OUT is 1 (first pattern).
        // OUT stuck-at-1: detected when good OUT is 0 (second pattern).
        let by_fault: Vec<usize> = report.patterns_to_detect();
        assert_eq!(by_fault, vec![1, 2]);
    }

    #[test]
    fn transistor_stuck_faults_detected() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_transistors(&net);
        assert_eq!(universe.len(), 4);
        let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
        let report = sim.run(&toggle_patterns(a), &[out]);
        // Pull-up stuck-open: OUT floats (keeps old charge) when A=0 —
        // from reset that charge is X, so with AnyDifference it is
        // detected. Pull-up stuck-closed: fights the pull-down when
        // A=1 → X difference. Same for the pull-down pair.
        assert_eq!(report.detected(), 4);
    }

    #[test]
    fn undetectable_fault_survives() {
        // A fault on a node that never influences the observed output.
        let (mut net, a, out) = inverter();
        let gnd = net.find_node("Gnd").expect("exists");
        let dead = net.add_storage("DEAD", Size::S1);
        let en = net.add_input("EN", Logic::L);
        net.add_transistor(TransistorType::N, Drive::D2, en, dead, gnd);
        let faults = vec![Fault::NodeStuck {
            node: dead,
            value: Logic::H,
        }];
        let mut sim = ConcurrentSim::new(&net, &faults, ConcurrentConfig::paper());
        let report = sim.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detected(), 0);
        assert_eq!(sim.live(), 1);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn fault_state_reads_overlay() {
        let (net, a, out) = inverter();
        let faults = vec![Fault::NodeStuck {
            node: out,
            value: Logic::H,
        }];
        let mut sim = ConcurrentSim::new(
            &net,
            &faults,
            ConcurrentConfig {
                drop_on_detect: false,
                ..ConcurrentConfig::default()
            },
        );
        let patterns = toggle_patterns(a);
        sim.run(&patterns, &[out]);
        // After A=1, good OUT is 0 but the faulty circuit holds 1.
        assert_eq!(sim.good_state(out), Logic::L);
        assert_eq!(sim.fault_state(FaultId(0), out), Logic::H);
    }

    #[test]
    fn no_drop_keeps_simulating_but_counts_once() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let mut sim = ConcurrentSim::new(
            &net,
            universe.faults(),
            ConcurrentConfig {
                drop_on_detect: false,
                ..ConcurrentConfig::default()
            },
        );
        // Toggle repeatedly: each fault is detectable many times but
        // must be counted once.
        let mut patterns = Vec::new();
        for _ in 0..4 {
            patterns.extend(toggle_patterns(a));
        }
        let report = sim.run(&patterns, &[out]);
        assert_eq!(report.detected(), 2);
        assert_eq!(sim.live(), 2, "nothing dropped");
    }

    #[test]
    fn definite_only_policy_ignores_x_differences() {
        let (net, a, out) = inverter();
        // Pull-down stuck-open: when A=1 the output floats at its old
        // charge; right after reset that is X → only a potential
        // detection.
        let t_n = net
            .transistors()
            .find(|(_, t)| t.ttype == TransistorType::N)
            .map(|(id, _)| id)
            .expect("n transistor exists");
        let faults = vec![Fault::TransistorStuckOpen(t_n)];
        let patterns = vec![Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])])];

        let mut strict = ConcurrentSim::new(
            &net,
            &faults,
            ConcurrentConfig {
                policy: DetectionPolicy::DefiniteOnly,
                drop_on_detect: true,
                ..ConcurrentConfig::default()
            },
        );
        let report = strict.run(&patterns, &[out]);
        assert_eq!(report.detected(), 0, "X difference not definite");

        let mut loose = ConcurrentSim::new(&net, &faults, ConcurrentConfig::paper());
        let report = loose.run(&patterns, &[out]);
        assert_eq!(report.detected(), 1, "X difference counts by default");
        assert!(report.detections[0].is_potential());
    }

    #[test]
    fn bridge_fault_through_injection() {
        // Two independent inverters; bridge their outputs. Driving them
        // to opposite values makes the short visible.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::H);
        let out_a = net.add_storage("OA", Size::S1);
        let out_b = net.add_storage("OB", Size::S1);
        for (inp, out) in [(a, out_a), (b, out_b)] {
            net.add_transistor(TransistorType::P, Drive::D2, inp, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
        }
        let bridge = fmossim_faults::inject::insert_bridge(&mut net, out_a, out_b, "oa-ob");
        let mut sim = ConcurrentSim::new(&net, &[bridge], ConcurrentConfig::paper());
        let patterns = vec![Pattern::new(vec![Phase::strobe(vec![
            (a, Logic::L),
            (b, Logic::H),
        ])])];
        let report = sim.run(&patterns, &[out_a, out_b]);
        // Good: OA=1, OB=0. Bridged: both X (equal-strength fight).
        assert_eq!(report.detected(), 1);
        assert!(report.detections[0].is_potential());
    }

    #[test]
    fn multi_fault_circuits_combine_effects() {
        let (net, a, out) = inverter();
        let t_n = net
            .transistors()
            .find(|(_, t)| t.ttype == TransistorType::N)
            .map(|(id, _)| id)
            .expect("pulldown exists");
        let sa1 = Fault::NodeStuck {
            node: out,
            value: Logic::H,
        };
        let open = Fault::TransistorStuckOpen(t_n);
        // Three circuits: each single fault, and both together.
        let mut sim = ConcurrentSim::new_multi(
            &net,
            vec![vec![sa1], vec![open], vec![sa1, open]],
            ConcurrentConfig {
                drop_on_detect: false,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(sim.fault_sets().len(), 3);
        assert_eq!(sim.fault_sets()[2].len(), 2);
        let patterns = toggle_patterns(a);
        let report = sim.run(&patterns, &[out]);
        // After A=1 (good OUT = 0):
        //   sa1 alone:   OUT forced 1      -> definite detection
        //   open alone:  OUT floats old H… (charge from A=0 phase) -> 1
        //   both:        the node force dominates -> 1
        assert_eq!(sim.fault_state(FaultId(0), out), Logic::H);
        assert_eq!(sim.fault_state(FaultId(2), out), Logic::H);
        // All three circuits detected (each differs from good at A=1).
        assert_eq!(report.detected(), 3);
        // The combined circuit behaves like the dominating node fault:
        // detected at the same pattern with the same values.
        let by_fault: Vec<Option<&Detection>> = (0..3)
            .map(|k| report.detections.iter().find(|d| d.fault == FaultId(k)))
            .collect();
        let d_sa1 = by_fault[0].expect("sa1 detected");
        let d_both = by_fault[2].expect("combined detected");
        assert_eq!(
            (d_sa1.pattern, d_sa1.faulty),
            (d_both.pattern, d_both.faulty)
        );
    }

    /// The simulator is `Send`: shard drivers move one `ConcurrentSim`
    /// per worker thread (the shared `&Network` is `Sync`). Compile-time
    /// assertion — if a non-`Send` field is ever introduced, this stops
    /// building.
    #[test]
    fn concurrent_sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ConcurrentSim<'static>>();
        assert_send::<crate::report::RunReport>();
    }

    #[test]
    fn external_drop_fault_hook() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
        assert_eq!(sim.live(), 2);
        assert!(sim.drop_fault(FaultId(0)), "live fault drops");
        assert!(!sim.drop_fault(FaultId(0)), "double drop refused");
        assert!(!sim.drop_fault(FaultId(99)), "out of range refused");
        assert_eq!(sim.live(), 1);
        // The dropped circuit is never simulated or detected again.
        let report = sim.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detected(), 1);
        assert_eq!(report.detections[0].fault, FaultId(1));
        assert_eq!(sim.live(), 0);
    }

    /// Replay against a recorded tape must match recompute bit for bit
    /// (the workspace-level `replay_equivalence` suite covers the
    /// benchmark circuits; this is the smallest instance).
    #[test]
    fn replayed_run_matches_recomputed() {
        let (net, a, out) = inverter();
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        let patterns = toggle_patterns(a);
        let config = ConcurrentConfig::paper();

        let mut live = ConcurrentSim::new(&net, universe.faults(), config);
        let live_report = live.run(&patterns, &[out]);

        let tape = crate::tape::GoodTape::record(&net, &patterns, config.engine);
        let mut replay = ConcurrentSim::new(&net, universe.faults(), config);
        let replay_report = replay.run_replayed(&patterns, &[out], &tape);

        assert_eq!(replay_report.detections, live_report.detections);
        assert_eq!(replay.live(), live.live());
        assert_eq!(replay.record_count(), live.record_count());
        for (r, l) in replay_report.patterns.iter().zip(&live_report.patterns) {
            assert_eq!(r.detected, l.detected);
            assert_eq!(r.live_before, l.live_before);
            assert_eq!(r.good_groups, l.good_groups);
            assert_eq!(r.faulty_groups, l.faulty_groups);
            assert_eq!(r.circuit_settles, l.circuit_settles);
            assert_eq!(r.damped, l.damped);
        }
    }

    /// Driving replay pattern by pattern through the public step API
    /// on a fresh simulator must match the live step API — in
    /// particular, the constructor's pending all-storage perturbation
    /// must not leak into the first faulty settle.
    #[test]
    fn step_level_replay_matches_live_steps() {
        let (net, a, out) = inverter();
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        let patterns = toggle_patterns(a);
        let config = ConcurrentConfig::paper();
        let tape = crate::tape::GoodTape::record(&net, &patterns, config.engine);

        let mut live = ConcurrentSim::new(&net, universe.faults(), config);
        let mut replay = ConcurrentSim::new(&net, universe.faults(), config);
        for (pi, pattern) in patterns.iter().enumerate() {
            let l = live.step_pattern(pattern, &[out], pi);
            let r = replay.step_pattern_replayed(pattern, tape.pattern(pi), &[out], pi);
            assert_eq!(
                (
                    r.detected,
                    r.live_before,
                    r.faulty_groups,
                    r.circuit_settles
                ),
                (
                    l.detected,
                    l.live_before,
                    l.faulty_groups,
                    l.circuit_settles
                ),
                "pattern {pi}"
            );
        }
        assert_eq!(replay.detections(), live.detections());
        assert_eq!(replay.record_count(), live.record_count());
    }

    #[test]
    #[should_panic(expected = "good tape does not match")]
    fn replay_rejects_mismatched_tape() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let patterns = toggle_patterns(a);
        let tape =
            crate::tape::GoodTape::record(&net, &patterns[..1], ConcurrentConfig::paper().engine);
        let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
        let _ = sim.run_replayed(&patterns, &[out], &tape);
    }

    #[test]
    fn record_count_shrinks_after_drop() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let mut sim = ConcurrentSim::new(&net, universe.faults(), ConcurrentConfig::paper());
        let report = sim.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detected(), 2);
        assert_eq!(sim.record_count(), 0, "all records reclaimed");
    }

    /// Two inverters, `A → X → OUT`, with a spare pull-up on `X` gated
    /// by `G` (held high, so open) and a second pull-down on `OUT` gated
    /// by `B`. Toggling `B` while `A` is low re-solves `OUT`'s vicinity:
    /// `X` gates two of its incident transistors without changing, and
    /// `OUT` stays low. Returns the network, the inputs `A`, `B`, the
    /// nodes `X`, `OUT`, and the transistors (spare pull-up on `X`,
    /// `OUT`'s pull-up, `OUT`'s pull-down gated by `X`).
    fn gated_pair() -> (Network, [NodeId; 4], [TransistorId; 3]) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let g = net.add_input("G", Logic::H);
        let x = net.add_storage("X", Size::S1);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, x);
        net.add_transistor(TransistorType::N, Drive::D2, a, x, gnd);
        let spare = net.add_transistor(TransistorType::P, Drive::D2, g, vdd, x);
        let pull_up = net.add_transistor(TransistorType::P, Drive::D2, x, vdd, out);
        let pull_down = net.add_transistor(TransistorType::N, Drive::D2, x, out, gnd);
        net.add_transistor(TransistorType::N, Drive::D2, b, out, gnd);
        (net, [a, b, x, out], [spare, pull_up, pull_down])
    }

    /// Reset with `A` low, then `B` high, `B` low, and finally `A`
    /// high (which moves `X` and with it `OUT`).
    fn gated_pair_patterns(a: NodeId, b: NodeId) -> Vec<Pattern> {
        [
            (Logic::L, Logic::L),
            (Logic::L, Logic::H),
            (Logic::L, Logic::L),
            (Logic::H, Logic::L),
        ]
        .into_iter()
        .map(|(va, vb)| Pattern::new(vec![Phase::strobe(vec![(a, va), (b, vb)])]))
        .collect()
    }

    /// Steps every fault through `patterns` (no dropping) on the scalar
    /// and the packed path and holds each fault's strobed values to
    /// `SerialSim`'s after every pattern. Returns the scalar path's
    /// per-pattern `[circuit_settles, faulty_groups]` (the packed
    /// path's are asserted equal) and its detections.
    fn settles_checked_against_serial(
        net: &Network,
        faults: &[Fault],
        patterns: &[Pattern],
        observed: &[NodeId],
    ) -> (Vec<[usize; 2]>, Vec<Detection>) {
        let serial = crate::SerialSim::new(
            net,
            crate::SerialConfig {
                stop_at_detection: false,
                ..crate::SerialConfig::paper()
            },
        )
        .run(faults, patterns, observed);
        let mut runs = Vec::new();
        for packing in [false, true] {
            let config = ConcurrentConfig {
                drop_on_detect: false,
                packing,
                ..ConcurrentConfig::paper()
            };
            let mut sim = ConcurrentSim::new(net, faults, config);
            let mut work = Vec::new();
            for (pi, pattern) in patterns.iter().enumerate() {
                let stats = sim.step_pattern(pattern, observed, pi);
                work.push([stats.circuit_settles, stats.faulty_groups]);
                for (k, outcome) in serial.outcomes.iter().enumerate() {
                    let f = FaultId(u32::try_from(k).unwrap());
                    let concurrent: Vec<Logic> =
                        observed.iter().map(|&o| sim.fault_state(f, o)).collect();
                    assert_eq!(
                        concurrent, outcome.strobes[pi][0],
                        "fault {k} pattern {pi} packing {packing}"
                    );
                }
            }
            for d in sim.detections() {
                let serial_d = serial.outcomes[d.fault.index()].detection;
                assert_eq!(serial_d.map(|s| s.pattern), Some(d.pattern), "{d:?}");
            }
            runs.push((work, sim.detections().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "packed and scalar paths agree");
        runs.swap_remove(0)
    }

    /// The circuit settles per pattern of `work`.
    fn settles(work: &[[usize; 2]]) -> Vec<usize> {
        work.iter().map(|w| w[0]).collect()
    }

    #[test]
    fn stuck_transistor_gating_the_vicinity_is_not_settled() {
        let (net, [a, b, x, out], [spare, ..]) = gated_pair();
        let patterns = gated_pair_patterns(a, b);
        // The spare pull-up stuck closed joins the real pull-up: X is
        // high in both circuits, so the fault never agrees with the good
        // circuit (closed against its open) but X carries no record.
        // Toggling B solves OUT, whose support holds X only as a gate.
        let closed = [Fault::TransistorStuckClosed(spare)];
        let (work, _) = settles_checked_against_serial(&net, &closed, &patterns, &[x, out]);
        assert_eq!(&settles(&work)[1..3], &[0, 0], "B toggles: {work:?}");
        // A stuck node at X only gates OUT's vicinity: forced high, as
        // the good circuit has it, it is not settled either; forced low
        // it disagrees and is.
        for (value, expected) in [(Logic::H, [0, 0]), (Logic::L, [1, 1])] {
            let node = [Fault::NodeStuck { node: x, value }];
            let (work, _) = settles_checked_against_serial(&net, &node, &patterns, &[x, out]);
            assert_eq!(
                &settles(&work)[1..3],
                &expected,
                "X stuck at {value}: {work:?}"
            );
        }
    }

    #[test]
    fn dormant_stuck_transistors_cost_no_settle_while_their_gate_is_quiet() {
        let (net, [a, b, x, out], [_, pull_up, pull_down]) = gated_pair();
        // With X high, OUT's pull-up is open and its pull-down closed in
        // the good circuit: stuck open and stuck closed agree with it.
        // Toggling B solves OUT, a channel end of both.
        let faults = [
            Fault::TransistorStuckOpen(pull_up),
            Fault::TransistorStuckClosed(pull_down),
        ];
        let patterns = gated_pair_patterns(a, b);
        let (work, _) = settles_checked_against_serial(&net, &faults, &patterns, &[x, out]);
        assert_eq!(&settles(&work)[1..3], &[0, 0], "B toggles: {work:?}");
    }

    #[test]
    fn dormant_stuck_transistors_wake_when_their_gate_moves() {
        let (net, [a, b, x, out], [_, pull_up, pull_down]) = gated_pair();
        let faults = [
            Fault::TransistorStuckOpen(pull_up),
            Fault::TransistorStuckClosed(pull_down),
        ];
        let patterns = gated_pair_patterns(a, b);
        let (work, detections) =
            settles_checked_against_serial(&net, &faults, &patterns, &[x, out]);
        // A rises, X falls: OUT's pull-up should now conduct. Stuck
        // open, OUT keeps its low charge; stuck closed, the pull-down
        // fights the pull-up to X. Both are settled and detected there.
        assert_eq!(settles(&work)[3], 2, "{work:?}");
        let at: Vec<(FaultId, usize)> = detections.iter().map(|d| (d.fault, d.pattern)).collect();
        assert_eq!(at, vec![(FaultId(0), 3), (FaultId(1), 3)]);
    }

    /// A falling `A` reaches `Y` twice in one phase: at once through
    /// the pull-down `R` it gates, and one inverter later through the
    /// pull-down `T`, gated by `N1 = !A`. `Y` (a depletion load) drives
    /// `Z = !Y`, which glitches low while `Y` is briefly high, and `Z`
    /// gates the pull-down `T2` of `Q` (another depletion load).
    /// Returns the network, the input `A`, the nodes `Y`, `Z`, `Q`, and
    /// the transistors `T`, `T2`.
    fn late_gate() -> (Network, NodeId, [NodeId; 3], [TransistorId; 2]) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let y = net.add_storage("Y", Size::S1);
        let n1 = net.add_storage("N1", Size::S1);
        let z = net.add_storage("Z", Size::S1);
        let q = net.add_storage("Q", Size::S1);
        // R before the inverter: the first round solves `Y` while `N1`
        // still holds its old value.
        net.add_transistor(TransistorType::N, Drive::D2, a, y, gnd);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, n1);
        net.add_transistor(TransistorType::N, Drive::D2, a, n1, gnd);
        net.add_transistor(TransistorType::D, Drive::D1, y, vdd, y);
        let t = net.add_transistor(TransistorType::N, Drive::D2, n1, y, gnd);
        net.add_transistor(TransistorType::P, Drive::D2, y, vdd, z);
        net.add_transistor(TransistorType::N, Drive::D2, y, z, gnd);
        net.add_transistor(TransistorType::D, Drive::D1, q, vdd, q);
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, z, q, gnd);
        (net, a, [y, z, q], [t, t2])
    }

    /// `A` high, low, high, low, one strobed phase each.
    fn late_gate_patterns(a: NodeId) -> Vec<Pattern> {
        [Logic::H, Logic::L, Logic::H, Logic::L]
            .into_iter()
            .map(|v| Pattern::new(vec![Phase::strobe(vec![(a, v)])]))
            .collect()
    }

    #[test]
    fn stuck_transistor_is_skipped_until_its_gate_moves_late_in_the_phase() {
        let (net, a, [y, z, q], [t, _]) = late_gate();
        // `T` stuck open agrees with the good circuit (open) when `A`
        // falls and the first round solves `Y` (`N1` is still low), and
        // disagrees when `N1` rises and `Y` is solved again.
        let faults = [Fault::TransistorStuckOpen(t)];
        let patterns = late_gate_patterns(a);
        let (work, detections) =
            settles_checked_against_serial(&net, &faults, &patterns, &[y, z, q]);
        // Triggered first by the late solve of `Y`, which changes `Y`
        // back to low: the trigger-time solve (one faulty group) shows
        // the circuit keeping `Y` high. It is then triggered through its
        // record at `Y` by `Z` and `Q`: the circuit keeps `Y` high, `Z`
        // low and `Q` high, so its settle solves the three without a
        // change. A trigger at the first solve of `Y` would have
        // preserved `Y`'s low value, and the settle would have
        // re-derived the glitch.
        assert_eq!(work[1], [1, 4], "{work:?}");
        let at: Vec<(FaultId, usize)> = detections.iter().map(|d| (d.fault, d.pattern)).collect();
        assert_eq!(at, vec![(FaultId(0), 1)]);
    }

    #[test]
    fn gate_that_moves_and_moves_back_in_one_phase_still_triggers() {
        let (net, a, [y, z, q], [_, t2]) = late_gate();
        // `T2` stuck closed agrees with the good circuit whenever `Z`
        // is high, which it is at every phase boundary; it disagrees
        // during `Z`'s glitch, when the good circuit solves `Q` with
        // `T2` open.
        let faults = [Fault::TransistorStuckClosed(t2)];
        let patterns = late_gate_patterns(a);
        let (work, detections) =
            settles_checked_against_serial(&net, &faults, &patterns, &[y, z, q]);
        // Pattern 0 is the reset settle of every fault.
        assert_eq!(settles(&work), [1, 1, 0, 1], "{work:?}");
        assert!(detections.is_empty(), "the glitch never reaches a strobe");
    }

    #[test]
    fn stuck_transistor_gated_by_an_input_changing_with_its_channel_input() {
        // `S` is charged from the input `N` through `T`, gated by the
        // input `G`, and cleared through a pull-down gated by `C`. The
        // last pattern changes `N` and `G` in one phase, `N` first.
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let n = net.add_input("N", Logic::L);
        let g = net.add_input("G", Logic::L);
        let c = net.add_input("C", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, g, n, s);
        net.add_transistor(TransistorType::N, Drive::D2, c, s, gnd);
        let phase = |vn, vg, vc| Pattern::new(vec![Phase::strobe(vec![(n, vn), (g, vg), (c, vc)])]);
        let patterns = [
            phase(Logic::L, Logic::L, Logic::H),
            phase(Logic::L, Logic::L, Logic::L),
            phase(Logic::H, Logic::H, Logic::L),
        ];
        // When `N` rises, `T` is open in the good circuit as its stuck
        // open fault has it, so the open-channel special case skips the
        // circuit; `G` then rises, the good circuit solves `S` through
        // the closed `T`, and the circuit is triggered there: `S` keeps
        // its low charge.
        let open = [Fault::TransistorStuckOpen(t)];
        let (work, detections) = settles_checked_against_serial(&net, &open, &patterns, &[s]);
        assert_eq!(settles(&work), [1, 0, 1], "{work:?}");
        let at: Vec<(FaultId, usize)> = detections.iter().map(|d| (d.fault, d.pattern)).collect();
        assert_eq!(at, vec![(FaultId(0), 2)]);
        // Stuck closed disagrees at `N` already and is triggered there;
        // `G` closing `T` in the good circuit too ends the divergence.
        let closed = [Fault::TransistorStuckClosed(t)];
        let (work, detections) = settles_checked_against_serial(&net, &closed, &patterns, &[s]);
        assert_eq!(settles(&work)[2], 1, "{work:?}");
        assert!(detections.is_empty());
    }

    #[test]
    fn stuck_open_pull_up_beside_a_conducting_one_costs_no_settle() {
        // `OUT` is pulled up by two `p` transistors in parallel, both
        // gated by `A`, and pulled down by an `n` one.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let out = net.add_storage("OUT", Size::S1);
        let p1 = net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        let patterns: Vec<Pattern> = [Logic::H, Logic::L, Logic::H, Logic::L]
            .into_iter()
            .map(|v| Pattern::new(vec![Phase::strobe(vec![(a, v)])]))
            .collect();
        // When `A` falls, the good circuit solves `OUT` with `P1`
        // closed, so `P1` stuck open disagrees with it; the circuit's
        // own solve pulls `OUT` high through the other pull-up, as the
        // good circuit does, and clears the hit. When `A` rises, `P1`
        // is open in both circuits.
        let faults = [Fault::TransistorStuckOpen(p1)];
        let (work, detections) = settles_checked_against_serial(&net, &faults, &patterns, &[out]);
        // Pattern 0 is the reset settle; each fall costs one
        // trigger-time solve and no settle.
        assert_eq!(work[1..], [[0, 1], [0, 0], [0, 1]], "{work:?}");
        assert!(detections.is_empty());
    }

    #[test]
    fn record_free_circuit_triggered_earlier_in_the_phase_skips_an_agreeing_hit() {
        // `S` is charged from the input `N` through `T`, gated by the
        // input `G`, and cleared through a pull-down gated by `C`; `S`
        // drives the inverter `Y` (a depletion load).
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let n = net.add_input("N", Logic::L);
        let g = net.add_input("G", Logic::L);
        let c = net.add_input("C", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let y = net.add_storage("Y", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, g, n, s);
        net.add_transistor(TransistorType::N, Drive::D2, c, s, gnd);
        net.add_transistor(TransistorType::D, Drive::D1, y, vdd, y);
        net.add_transistor(TransistorType::N, Drive::D2, s, y, gnd);
        let phase = |vn, vg, vc| Pattern::new(vec![Phase::strobe(vec![(n, vn), (g, vg), (c, vc)])]);
        let patterns = [
            phase(Logic::L, Logic::L, Logic::H),
            phase(Logic::L, Logic::L, Logic::L),
            phase(Logic::H, Logic::H, Logic::L),
        ];
        // `T` stuck closed: when `N` rises, `T` is open in the good
        // circuit, so the open-channel special case triggers the
        // record-free circuit with a seed at `S` and no record. `G` then
        // rises and the good circuit solves `S` through the closed `T`,
        // high: the site agrees there and the hit is skipped, so `S`
        // keeps no preserved low value. The settle solves `S` once,
        // without a change, and does not re-trace `Y`'s fall.
        let closed = [Fault::TransistorStuckClosed(t)];
        let (work, detections) = settles_checked_against_serial(&net, &closed, &patterns, &[s, y]);
        assert_eq!(work[2], [1, 1], "{work:?}");
        assert!(detections.is_empty());
    }

    #[test]
    fn stuck_node_that_is_the_whole_vicinity_costs_no_settle() {
        // The CMOS inverter, and an nMOS one whose depletion load is
        // gated by `OUT` itself, so that `OUT` is also in the rest of
        // its own vicinity's support.
        let (cmos, a, out) = inverter();
        let mut nmos = Network::new();
        let vdd = nmos.add_input("Vdd", Logic::H);
        let gnd = nmos.add_input("Gnd", Logic::L);
        assert_eq!(nmos.add_input("A", Logic::L), a);
        assert_eq!(nmos.add_storage("OUT", Size::S1), out);
        nmos.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        nmos.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        let patterns: Vec<Pattern> = [Logic::L, Logic::H, Logic::L]
            .into_iter()
            .map(|v| Pattern::new(vec![Phase::strobe(vec![(a, v)])]))
            .collect();
        // Each toggle of `A` solves `OUT` alone. In the faulty circuit
        // `OUT` is an input: nothing to preserve and nothing to solve.
        for net in [&cmos, &nmos] {
            for value in [Logic::L, Logic::H] {
                let faults = [Fault::NodeStuck { node: out, value }];
                let (work, _) = settles_checked_against_serial(net, &faults, &patterns, &[out]);
                assert_eq!(settles(&work), [1, 0, 0], "OUT stuck at {value}: {work:?}");
            }
        }
    }

    /// A random netlist of the fuzz suite (`seed=254` there) whose
    /// transistor `t5`, gated by `Vdd`, joins `S1` and `S3` into one
    /// vicinity. Stuck open, it splits that vicinity in its circuit.
    const SPLIT_VICINITY_NETLIST: &str = "\
input Vdd 1
input Gnd 0
input I0 0
input I1 0
node S0
node S1
node S2
node S3
node S4
node S5
node S6
d Gnd Vdd S2 strength 1
d S3 S0 S5 strength 1
n Vdd I1 S6
p Gnd S5 S6
n S4 S3 S5
n Vdd S1 S3
n S4 I1 S1
n S5 S6 S4
";

    #[test]
    fn a_fault_that_splits_the_vicinity_is_triggered() {
        let net = fmossim_netlist::parse_netlist(SPLIT_VICINITY_NETLIST).expect("netlist parses");
        let node = |name: &str| net.find_node(name).expect("node exists");
        let (i0, i1, s1) = (node("I0"), node("I1"), node("S1"));
        let patterns: Vec<Pattern> = [
            (Logic::L, Logic::X),
            (Logic::X, Logic::H),
            (Logic::L, Logic::H),
            (Logic::L, Logic::L),
            (Logic::L, Logic::H),
            (Logic::L, Logic::L),
        ]
        .into_iter()
        .map(|(v0, v1)| Pattern::new(vec![Phase::strobe(vec![(i0, v0), (i1, v1)])]))
        .collect();
        let t5 = net
            .transistors()
            .nth(5)
            .map(|(id, _)| id)
            .expect("t5 exists");
        // The good circuit solves `S1` and `S3` as one group; the
        // circuit's own solve from `S1` leaves `S3` out. Were the hit
        // cleared on values alone, the circuit would miss the solve of
        // `S1` its own schedule makes, and strobe `S1` at 0 where
        // `SerialSim` reads 1.
        let faults = [Fault::TransistorStuckOpen(t5)];
        settles_checked_against_serial(&net, &faults, &patterns, &[s1]);
    }

    /// Runs the same workload scalar and packed and asserts detections,
    /// drops and the final record population are bit-identical.
    fn assert_packed_matches_scalar(
        net: &Network,
        faults: &[Fault],
        patterns: &[Pattern],
        outputs: &[NodeId],
        base: ConcurrentConfig,
    ) {
        let mut scalar = ConcurrentSim::new(net, faults, base);
        let s_rep = scalar.run(patterns, outputs);
        let packed_cfg = ConcurrentConfig {
            packing: true,
            ..base
        };
        let mut packed = ConcurrentSim::new(net, faults, packed_cfg);
        let p_rep = packed.run(patterns, outputs);
        assert_eq!(p_rep.detections, s_rep.detections);
        assert_eq!(packed.live(), scalar.live());
        assert_eq!(packed.record_count(), scalar.record_count());
        for k in 0..faults.len() {
            let f = FaultId(u32::try_from(k).unwrap());
            for (n, _) in net.nodes() {
                assert_eq!(
                    packed.fault_state(f, n),
                    scalar.fault_state(f, n),
                    "fault {k} node {n:?}"
                );
            }
        }
        for (p, s) in p_rep.patterns.iter().zip(&s_rep.patterns) {
            assert_eq!(p.detected, s.detected);
            assert_eq!(p.live_before, s.live_before);
            assert_eq!(p.faulty_groups, s.faulty_groups);
            assert_eq!(p.circuit_settles, s.circuit_settles);
            assert_eq!(p.damped, s.damped);
        }
    }

    #[test]
    fn packed_matches_scalar_on_inverter_stuck_faults() {
        let (net, a, out) = inverter();
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        let mut patterns = toggle_patterns(a);
        patterns.extend(toggle_patterns(a));
        for drop_on_detect in [true, false] {
            assert_packed_matches_scalar(
                &net,
                universe.faults(),
                &patterns,
                &[out],
                ConcurrentConfig {
                    drop_on_detect,
                    ..ConcurrentConfig::default()
                },
            );
        }
    }

    #[test]
    fn packed_falls_back_to_scalar_under_static_locality() {
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_nodes(&net);
        let config = ConcurrentConfig {
            engine: EngineConfig {
                locality: LocalityMode::Static,
                ..EngineConfig::default()
            },
            ..ConcurrentConfig::paper()
        };
        let mut sim = ConcurrentSim::new(&net, universe.faults(), config);
        assert!(sim.packed.is_none(), "static locality disables packing");
        let report = sim.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detected(), 2);
    }

    #[test]
    fn packed_chunks_split_buckets_beyond_64_lanes() {
        // 80 circuits carrying the same stuck-at fault: one bucket,
        // two chunks (64 + 16). All are detected identically.
        let (net, a, out) = inverter();
        let fault = Fault::NodeStuck {
            node: out,
            value: Logic::H,
        };
        let sets: Vec<Vec<Fault>> = (0..80).map(|_| vec![fault]).collect();
        let mut sim = ConcurrentSim::new_multi(&net, sets.clone(), ConcurrentConfig::paper());
        let report = sim.run(&toggle_patterns(a), &[out]);
        let scalar_cfg = ConcurrentConfig {
            packing: false,
            ..ConcurrentConfig::paper()
        };
        let mut scalar = ConcurrentSim::new_multi(&net, sets, scalar_cfg);
        let s_report = scalar.run(&toggle_patterns(a), &[out]);
        assert_eq!(report.detections, s_report.detections);
        assert_eq!(report.detected(), 80);
    }

    #[test]
    fn packed_emits_lane_metrics() {
        // Transistor faults: their seeds are ordinary storage nodes, so
        // the shared seed bucket actually reaches the packed solver
        // (stuck-node faults on OUT would leave every seed
        // input-classified in every lane).
        let (net, a, out) = inverter();
        let universe = FaultUniverse::stuck_transistors(&net);
        let registry = Registry::new();
        let config = ConcurrentConfig {
            packing: true,
            drop_on_detect: false,
            ..ConcurrentConfig::default()
        };
        let mut sim = ConcurrentSim::new(&net, universe.faults(), config);
        sim.attach_metrics(&registry);
        let _ = sim.run(&toggle_patterns(a), &[out]);
        let snap = registry.snapshot();
        let packed = snap.counters.get("switch.packed_solves").copied();
        assert!(
            packed.unwrap_or(0) > 0,
            "multi-lane buckets reach the packed solver: {snap:?}"
        );
        let occ = snap
            .histograms
            .get("switch.lane.occupancy")
            .expect("occupancy histogram minted");
        assert!(occ.count > 0, "occupancy observed per packed solve");
    }
}
