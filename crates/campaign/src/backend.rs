//! The execution-strategy seam: one [`CampaignBackend`] trait that the
//! serial, concurrent, and fault-parallel simulators implement behind
//! adapter types, selected by the [`Backend`] enum.
//!
//! The adapters translate one campaign workload into each simulator's
//! native execution order (pattern-major, fault-major, shard-major),
//! honour the shared
//! [`RunControl`] options through one [`StopRule`], and stream
//! [`SimEvent`]s — so callers swap strategies without touching their
//! setup code, and custom strategies slot in behind the same trait.

use crate::event::SimEvent;
use fmossim_core::{
    ConcurrentConfig, ConcurrentSim, Detection, DetectionPolicy, Pattern, PatternStats, RunReport,
    SerialConfig, SerialSim,
};
use fmossim_faults::{FaultId, FaultUniverse};
use fmossim_netlist::{Network, NodeId};
use fmossim_par::{ParallelConfig, ParallelRun, ParallelSim};
use fmossim_telemetry::Registry;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Parent-universe coverage bookkeeping for a collapsed workload.
///
/// When the campaign collapses the fault universe into structural
/// equivalence classes, backends grade only the representatives — but
/// the coverage fraction a user targets with
/// [`RunControl::stop_at_coverage`] is over the *parent* universe the
/// report describes. These weights let a backend evaluate mid-run
/// coverage in parent terms: each representative's detection counts
/// for its whole equivalence class.
#[derive(Clone, Copy, Debug)]
pub struct CoverageWeights<'a> {
    /// Per workload fault (indexed by its [`FaultId`]), the size of
    /// its equivalence class in the parent universe (≥ 1).
    pub class_sizes: &'a [u32],
    /// The parent universe's fault count — the coverage denominator.
    /// Equals `class_sizes.iter().sum()`.
    pub total_faults: usize,
}

/// The workload a campaign grades: one network, one fault universe,
/// one pattern sequence, one set of observed outputs.
///
/// ```
/// use fmossim_campaign::Workload;
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// let ram = Ram::new(4, 4);
/// let universe = FaultUniverse::stuck_nodes(ram.network());
/// let seq = TestSequence::full(&ram);
/// let w = Workload {
///     net: ram.network(),
///     universe: &universe,
///     patterns: seq.patterns(),
///     outputs: ram.observed_outputs(),
///     coverage: None,
/// };
/// assert_eq!(w.universe.len(), universe.len());
/// assert_eq!(w.coverage_denominator(), universe.len());
/// assert_eq!(w.detection_weight(0), 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Workload<'a> {
    /// The circuit under test.
    pub net: &'a Network,
    /// The faults to grade.
    pub universe: &'a FaultUniverse,
    /// The stimulus, already truncated to any pattern limit.
    pub patterns: &'a [Pattern],
    /// The observed output nodes (strobe comparison points).
    pub outputs: &'a [NodeId],
    /// Parent-universe weights when `universe` is a collapsed set of
    /// representatives; `None` when it already is the full set.
    pub coverage: Option<CoverageWeights<'a>>,
}

impl Workload<'_> {
    /// The fault count coverage fractions are evaluated over: the
    /// parent universe under collapse, the workload universe otherwise.
    #[must_use]
    pub fn coverage_denominator(&self) -> usize {
        self.coverage
            .map_or(self.universe.len(), |c| c.total_faults)
    }

    /// How many parent-universe faults a detection of workload fault
    /// `k` accounts for: its equivalence-class size, or 1 without
    /// collapse.
    #[must_use]
    pub fn detection_weight(&self, k: usize) -> usize {
        self.coverage.map_or(1, |c| c.class_sizes[k] as usize)
    }
}

/// Backend-independent run-control options.
///
/// ```
/// let control = fmossim_campaign::RunControl::default();
/// assert!(control.drop_detected);
/// assert_eq!(control.stop_at_coverage, None);
/// assert_eq!(control.pattern_limit, None);
/// assert!(control.collapse);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunControl {
    /// Stop once detected/total coverage reaches this fraction.
    /// Each backend stops at its work-item granularity: the serial
    /// backend per fault, the concurrent backend per pattern, the
    /// parallel backend once before any shard runs and then at each
    /// shard completion.
    pub stop_at_coverage: Option<f64>,
    /// Simulate at most this many patterns (applied by the campaign
    /// before the backend runs).
    pub pattern_limit: Option<usize>,
    /// Stop spending time on a fault once it is detected — the paper's
    /// drop-on-detect rule (concurrent/parallel) and the serial
    /// baseline's stop-at-first-detection. Disable for full-trace runs.
    pub drop_detected: bool,
    /// Collapse the fault universe into structural equivalence classes
    /// before the backend runs and fan detections back out at report
    /// time (default `true`; see
    /// [`Campaign::collapse`](crate::Campaign::collapse)). Applied by
    /// the campaign driver, not the backends: a backend always sees
    /// the (already collapsed) workload universe.
    pub collapse: bool,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl {
            stop_at_coverage: None,
            pattern_limit: None,
            drop_detected: true,
            collapse: true,
        }
    }
}

impl RunControl {
    /// The coverage target expressed as a detection count over
    /// `num_faults`, if a (finite) target is set. A NaN target is
    /// ignored rather than silently becoming "stop immediately".
    ///
    /// ```
    /// use fmossim_campaign::RunControl;
    ///
    /// let mut control = RunControl::default();
    /// assert_eq!(control.detection_target(100), None);
    /// control.stop_at_coverage = Some(0.905);
    /// assert_eq!(control.detection_target(100), Some(91), "ceil");
    /// control.stop_at_coverage = Some(f64::NAN);
    /// assert_eq!(control.detection_target(100), None);
    /// ```
    #[must_use]
    pub fn detection_target(&self, num_faults: usize) -> Option<usize> {
        self.stop_at_coverage
            .filter(|c| !c.is_nan())
            .map(|c| (c.clamp(0.0, 1.0) * num_faults as f64).ceil() as usize)
    }
}

/// What a backend hands back to the campaign: the merged [`RunReport`]
/// plus backend-specific metadata for the campaign report.
///
/// ```
/// use fmossim_campaign::BackendRun;
///
/// // Custom backends fill only what they measure; the rest defaults.
/// let run = BackendRun {
///     jobs: Some(4),
///     ..BackendRun::default()
/// };
/// assert_eq!(run.run.detected(), 0);
/// assert!(!run.stopped_early && !run.cancelled);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendRun {
    /// The measurements, in the common report format.
    pub run: RunReport,
    /// True iff the run stopped early because the coverage target was
    /// reached.
    pub stopped_early: bool,
    /// Resolved worker count (parallel backend).
    pub jobs: Option<usize>,
    /// Number of shards in the plan (parallel backend).
    pub shards: Option<usize>,
    /// The longest single shard's wall-clock seconds — the plan's
    /// critical path (parallel backend).
    pub max_shard_seconds: Option<f64>,
    /// Wall-clock seconds of the good-circuit-only reference
    /// simulation (serial backend).
    pub good_seconds: Option<f64>,
    /// The paper's serial-time estimate: Σ over faults of
    /// patterns-to-detect × average good-circuit pattern time (serial
    /// backend).
    pub serial_estimate_seconds: Option<f64>,
    /// Wall-clock seconds of a good-tape record pass run before the
    /// shards start (when more than one shard ran): 0 on the parallel
    /// backend, whose leader shard settles the good circuit itself.
    pub tape_record_seconds: Option<f64>,
    /// Good-machine vicinities on the tape — the solver work each
    /// replaying shard skipped (when more than one shard ran).
    pub tape_groups: Option<usize>,
    /// The most tape bytes held at once (when more than one shard
    /// ran).
    pub tape_peak_bytes: Option<usize>,
    /// Seconds replaying shards spent waiting for the tape, summed
    /// (when more than one shard ran).
    pub tape_wait_seconds: Option<f64>,
    /// True iff the run was cut short by a cooperative cancel (see
    /// [`Campaign::cancel_token`](crate::Campaign::cancel_token)).
    pub cancelled: bool,
}

/// An execution strategy a [`Campaign`](crate::Campaign) can run on.
///
/// The built-in strategies are selected with [`Backend`]; custom
/// implementations (a distributed runner, an instrumentation shim)
/// plug in via
/// [`Campaign::backend_impl`](crate::Campaign::backend_impl):
///
/// ```
/// use fmossim_campaign::{BackendRun, Campaign, CampaignBackend, RunControl, SimEvent, Workload};
/// use fmossim_circuits::Ram;
/// use fmossim_core::{ConcurrentConfig, ConcurrentSim};
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// /// A minimal single-simulator strategy.
/// struct Inline;
///
/// impl CampaignBackend for Inline {
///     fn name(&self) -> String {
///         "inline".into()
///     }
///     fn run(
///         &mut self,
///         w: &Workload<'_>,
///         _control: &RunControl,
///         _emit: &mut dyn FnMut(SimEvent),
///     ) -> BackendRun {
///         let mut sim =
///             ConcurrentSim::new(w.net, w.universe.faults(), ConcurrentConfig::paper());
///         BackendRun {
///             run: sim.run(w.patterns, w.outputs),
///             ..BackendRun::default()
///         }
///     }
/// }
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let report = Campaign::new(ram.network())
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .backend_impl(Box::new(Inline))
///     .run();
/// assert_eq!(report.backend, "inline");
/// assert!(report.detected() > 0);
/// ```
pub trait CampaignBackend {
    /// Short strategy name for reports ("serial", "concurrent", …).
    fn name(&self) -> String;

    /// Hands the backend the campaign's telemetry [`Registry`] before
    /// [`run`](CampaignBackend::run). Built-in backends clone the
    /// handle and attach it (or per-shard forks of it) to their
    /// simulators; the default implementation ignores it, so custom
    /// backends without instrumentation need no change.
    fn attach_telemetry(&mut self, _registry: &Registry) {}

    /// Hands the backend the campaign's cancel token before
    /// [`run`](CampaignBackend::run). Built-in backends poll it at
    /// their work-item boundary (pattern / fault / shard) and
    /// return early with [`BackendRun::cancelled`] set; the default
    /// implementation ignores it, so custom backends that cannot stop
    /// mid-run need no change (their campaigns simply run to
    /// completion).
    fn attach_cancel(&mut self, _token: &Arc<AtomicBool>) {}

    /// Grades the workload, streaming [`SimEvent`]s through `emit` and
    /// honouring `control`.
    fn run(
        &mut self,
        workload: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun;
}

/// Selects one of the built-in execution strategies for a campaign.
///
/// ```
/// use fmossim_campaign::{Backend, DetectionPolicy, SerialConfig};
///
/// let backend = Backend::Serial(SerialConfig::paper());
/// assert_eq!(backend.name(), "serial");
/// assert_eq!(backend.policy(), DetectionPolicy::AnyDifference);
/// assert_eq!(backend.into_impl().name(), "serial");
/// ```
///
/// All built-in strategies grade the same workload and (for race-free fault classes
/// under [`DetectionPolicy::DefiniteOnly`]) produce identical
/// detection sets; they differ purely in execution: the concurrent
/// algorithm shares one good circuit across all faults, the serial
/// baseline simulates each fault privately, and the parallel strategy
/// shards the concurrent algorithm across worker threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    /// The paper's serial baseline ([`SerialSim`]), fault by fault.
    Serial(SerialConfig),
    /// The paper's concurrent algorithm ([`ConcurrentSim`]).
    Concurrent(ConcurrentConfig),
    /// Fault-parallel sharded execution ([`ParallelSim`]) — use
    /// [`Jobs::Auto`](fmossim_par::Jobs::Auto) in the config to size
    /// the pool from the workload. The shard plan changes wall-clock
    /// time, never the verdicts:
    ///
    /// ```
    /// use fmossim_campaign::{Backend, Campaign, ParallelConfig};
    /// use fmossim_circuits::Ram;
    /// use fmossim_faults::FaultUniverse;
    /// use fmossim_testgen::TestSequence;
    ///
    /// let ram = Ram::new(4, 4);
    /// let seq = TestSequence::full(&ram);
    /// let run = |config: ParallelConfig| Campaign::new(ram.network())
    ///     .faults(FaultUniverse::stuck_nodes(ram.network()))
    ///     .patterns(seq.patterns())
    ///     .outputs(ram.observed_outputs())
    ///     .backend(Backend::Parallel(config))
    ///     .run();
    /// let oversharded = run(ParallelConfig {
    ///     shards: Some(4),
    ///     ..ParallelConfig::paper(2)
    /// });
    /// let one_shard = run(ParallelConfig::paper(1));
    /// assert_eq!(oversharded.detections(), one_shard.detections());
    /// assert_eq!((oversharded.shards, one_shard.shards), (Some(4), Some(1)));
    /// ```
    Parallel(ParallelConfig),
}

impl Backend {
    /// The strategy name as it appears in reports and on the CLI.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Serial(_) => "serial",
            Backend::Concurrent(_) => "concurrent",
            Backend::Parallel(_) => "parallel",
        }
    }

    /// The configured detection policy (echoed into reports).
    #[must_use]
    pub fn policy(&self) -> DetectionPolicy {
        match self {
            Backend::Serial(c) => c.policy,
            Backend::Concurrent(c) => c.policy,
            Backend::Parallel(c) => c.sim.policy,
        }
    }

    /// Whether bit-parallel fault packing
    /// ([`ConcurrentConfig::packing`]) is configured, for the backends
    /// built on the concurrent simulator; `None` for the serial
    /// baseline, which has no packed path (echoed into reports).
    #[must_use]
    pub fn packing(&self) -> Option<bool> {
        match self {
            Backend::Serial(_) => None,
            Backend::Concurrent(c) => Some(c.packing),
            Backend::Parallel(c) => Some(c.sim.packing),
        }
    }

    /// Builds the adapter implementing this strategy.
    #[must_use]
    pub fn into_impl(self) -> Box<dyn CampaignBackend> {
        match self {
            Backend::Serial(config) => Box::new(SerialAdapter {
                config,
                cancel: no_cancel(),
            }),
            Backend::Concurrent(config) => Box::new(ConcurrentAdapter {
                config,
                telemetry: Registry::null(),
                cancel: no_cancel(),
            }),
            Backend::Parallel(config) => Box::new(ParallelAdapter {
                config,
                telemetry: Registry::null(),
                cancel: no_cancel(),
            }),
        }
    }
}

/// A fresh, never-set cancel token — the default until
/// [`CampaignBackend::attach_cancel`] replaces it.
pub(crate) fn no_cancel() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// The one stop rule of the built-in backends, applied at each
/// backend's own work-item boundary: pattern, fault, or shard (the
/// parallel backend also checks once before its first shard).
///
/// It streams every work item's detections as [`SimEvent::Detected`]
/// (plus [`SimEvent::FaultDropped`] under drop-on-detect), counts them
/// in parent-universe terms — a collapsed representative counts for
/// its whole class — and answers whether to stop: on a cancel request
/// first, then on a reached [`RunControl::stop_at_coverage`] target.
/// [`StopRule::finish`] carries why the run stopped into its
/// [`BackendRun`].
///
/// ```
/// use fmossim_campaign::{RunControl, StopRule, Workload};
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let ram = Ram::new(4, 4);
/// let universe = FaultUniverse::stuck_nodes(ram.network());
/// let seq = TestSequence::full(&ram);
/// let w = Workload {
///     net: ram.network(),
///     universe: &universe,
///     patterns: seq.patterns(),
///     outputs: ram.observed_outputs(),
///     coverage: None,
/// };
/// let control = RunControl { stop_at_coverage: Some(0.0), ..RunControl::default() };
/// let cancel = Arc::new(AtomicBool::new(false));
/// let mut stop = StopRule::new(&w, &control, &[&cancel]);
/// assert!(stop.check().is_break(), "a zero target is reached at once");
/// cancel.store(true, Ordering::Relaxed);
/// assert!(stop.check().is_break());
/// let run = stop.finish(Default::default());
/// assert!(run.stopped_early && run.cancelled);
/// ```
pub struct StopRule<'a> {
    workload: Workload<'a>,
    target: Option<usize>,
    drop_detected: bool,
    cancel: Vec<Arc<AtomicBool>>,
    detected: usize,
    stopped_early: bool,
    cancelled: bool,
}

impl<'a> StopRule<'a> {
    /// The rule for grading `w` under `control`; setting any of the
    /// `cancel` tokens requests a cancel.
    #[must_use]
    pub fn new(w: &Workload<'a>, control: &RunControl, cancel: &[&Arc<AtomicBool>]) -> Self {
        StopRule {
            workload: *w,
            target: control.detection_target(w.coverage_denominator()),
            drop_detected: control.drop_detected,
            cancel: cancel.iter().map(|&t| Arc::clone(t)).collect(),
            detected: 0,
            stopped_early: false,
            cancelled: false,
        }
    }

    /// Streams one work item's `detections` and counts them toward the
    /// coverage target.
    pub fn detected(&mut self, detections: &[Detection], emit: &mut dyn FnMut(SimEvent)) {
        for d in detections {
            emit(SimEvent::Detected {
                fault: d.fault,
                pattern: d.pattern,
                phase: d.phase,
                potential: d.is_potential(),
            });
            if self.drop_detected {
                emit(SimEvent::FaultDropped { fault: d.fault });
            }
            self.detected += self.workload.detection_weight(d.fault.index());
        }
    }

    /// Whether a cancel was requested (one relaxed load per token:
    /// cancellation needs no ordering beyond "seen eventually at the
    /// next work-item boundary"). `true` marks the run cancelled.
    pub fn cancel_requested(&mut self) -> bool {
        self.cancelled |= self.cancel.iter().any(|t| t.load(Ordering::Relaxed));
        self.cancelled
    }

    /// Whether the detections so far reach the coverage target. `true`
    /// marks the run stopped early.
    pub fn target_reached(&mut self) -> bool {
        self.stopped_early |= self.target.is_some_and(|t| self.detected >= t);
        self.stopped_early
    }

    /// The check at a work-item boundary: break on a cancel request,
    /// else on a reached coverage target.
    pub fn check(&mut self) -> ControlFlow<()> {
        if self.cancel_requested() || self.target_reached() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// `run` with the stop flags this rule recorded.
    #[must_use]
    pub fn finish(self, run: RunReport) -> BackendRun {
        BackendRun {
            run,
            stopped_early: self.stopped_early,
            cancelled: self.cancelled,
            ..BackendRun::default()
        }
    }
}

/// Adapter driving [`ConcurrentSim`] pattern by pattern.
struct ConcurrentAdapter {
    config: ConcurrentConfig,
    telemetry: Registry,
    cancel: Arc<AtomicBool>,
}

impl CampaignBackend for ConcurrentAdapter {
    fn name(&self) -> String {
        "concurrent".into()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    fn attach_cancel(&mut self, token: &Arc<AtomicBool>) {
        self.cancel = Arc::clone(token);
    }

    fn run(
        &mut self,
        w: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        let t0 = Instant::now();
        let config = ConcurrentConfig {
            drop_on_detect: control.drop_detected,
            ..self.config
        };
        let mut sim = ConcurrentSim::new(w.net, w.universe.faults(), config);
        sim.attach_metrics(&self.telemetry);
        let mut stop = StopRule::new(w, control, &[&self.cancel]);
        let mut run = RunReport {
            num_faults: w.universe.len(),
            ..RunReport::default()
        };
        for (pi, pattern) in w.patterns.iter().enumerate() {
            if stop.check().is_break() {
                break;
            }
            emit(SimEvent::PatternStart {
                pattern: pi,
                live: sim.live(),
            });
            let before = sim.detections().len();
            let stats = sim.step_pattern(pattern, w.outputs, pi);
            stop.detected(&sim.detections()[before..], emit);
            run.patterns.push(stats);
            emit(SimEvent::PatternDone {
                pattern: pi,
                detected_so_far: sim.detections().len(),
                seconds: stats.seconds,
            });
        }
        run.detections = sim.detections().to_vec();
        // Canonical order: the simulator emits same-strobe detections
        // in output-node order; the report format promises
        // (pattern, phase, fault).
        run.detections
            .sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        run.total_seconds = t0.elapsed().as_secs_f64();
        stop.finish(run)
    }
}

/// Adapter driving [`SerialSim`] fault by fault.
struct SerialAdapter {
    config: SerialConfig,
    cancel: Arc<AtomicBool>,
}

impl CampaignBackend for SerialAdapter {
    fn name(&self) -> String {
        "serial".into()
    }

    fn attach_cancel(&mut self, token: &Arc<AtomicBool>) {
        self.cancel = Arc::clone(token);
    }

    fn run(
        &mut self,
        w: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        let config = SerialConfig {
            stop_at_detection: control.drop_detected,
            ..self.config
        };
        let sim = SerialSim::new(w.net, config);
        let good = sim.observe_good(w.patterns, w.outputs);
        let t0 = Instant::now();
        let mut stop = StopRule::new(w, control, &[&self.cancel]);
        let mut run = RunReport {
            num_faults: w.universe.len(),
            patterns: vec![PatternStats::default(); w.patterns.len()],
            ..RunReport::default()
        };
        let mut estimate = 0.0;
        for (k, &fault) in w.universe.faults().iter().enumerate() {
            if stop.check().is_break() {
                break;
            }
            let id = FaultId(u32::try_from(k).expect("fault id fits"));
            let outcome = sim.run_fault(id, fault, w.patterns, w.outputs, &good);
            let charged = outcome
                .detection
                .map_or(w.patterns.len(), |d| d.pattern + 1);
            estimate += charged as f64 * good.avg_pattern_seconds();
            if let Some(d) = outcome.detection {
                stop.detected(&[d], emit);
                run.patterns[d.pattern].detected += 1;
                run.detections.push(d);
            }
        }
        // Canonical detection order, as the parallel merge produces:
        // fault-major emission order is an execution detail.
        run.detections
            .sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        run.total_seconds = t0.elapsed().as_secs_f64();
        BackendRun {
            good_seconds: Some(good.total_seconds),
            serial_estimate_seconds: Some(estimate),
            ..stop.finish(run)
        }
    }
}

/// Adapter driving [`ParallelSim`] shard by shard.
struct ParallelAdapter {
    config: ParallelConfig,
    telemetry: Registry,
    cancel: Arc<AtomicBool>,
}

impl CampaignBackend for ParallelAdapter {
    fn name(&self) -> String {
        "parallel".into()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    fn attach_cancel(&mut self, token: &Arc<AtomicBool>) {
        self.cancel = Arc::clone(token);
    }

    fn run(
        &mut self,
        w: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        let mut config = self.config;
        config.sim.drop_on_detect = control.drop_detected;
        let mut sim = ParallelSim::new(w.net, w.universe.clone(), config);
        sim.attach_metrics(&self.telemetry);
        let mut stop = StopRule::new(w, control, &[&self.cancel]);
        // A pre-set cancel or an already reached target simulates
        // nothing; after that the rule is checked at each shard
        // completion.
        let run = if stop.check().is_break() {
            ParallelRun {
                report: RunReport {
                    num_faults: w.universe.len(),
                    ..RunReport::default()
                },
                ..ParallelRun::default()
            }
        } else {
            sim.run_streaming(w.patterns, w.outputs, |o, report| {
                stop.detected(&report.detections, emit);
                emit(SimEvent::ShardDone {
                    shard: o.shard,
                    faults: o.faults,
                    detected: o.detected,
                    seconds: o.seconds,
                });
                stop.check()
            })
        };
        BackendRun {
            jobs: Some(sim.workers()),
            shards: Some(sim.plan().num_shards()),
            max_shard_seconds: Some(run.shard_seconds.iter().copied().fold(0.0, f64::max)),
            tape_record_seconds: run.tape.map(|t| t.record_seconds),
            tape_groups: run.tape.map(|t| t.groups),
            tape_peak_bytes: run.tape.map(|t| t.heap_bytes),
            tape_wait_seconds: run.tape.map(|t| t.wait_seconds),
            ..stop.finish(run.report)
        }
    }
}
