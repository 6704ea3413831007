//! The campaign builder — the single entry point over every execution
//! strategy.

use crate::backend::{
    no_cancel, Backend, BackendRun, CampaignBackend, CoverageWeights, RunControl, Workload,
};
use crate::event::SimEvent;
use crate::report::{CampaignReport, CollapseStats, ControlEcho, StopReason};
use fmossim_core::{ConcurrentConfig, Detection, Pattern};
use fmossim_faults::{CollapseClasses, FaultId, FaultUniverse};
use fmossim_netlist::{Network, NodeId};
use fmossim_telemetry::Registry;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// A fault-simulation campaign: one workload (network, faults,
/// patterns, outputs), one execution strategy, shared run-control
/// options, and an optional streaming observer.
///
/// Built fluently and consumed by [`Campaign::run`]:
///
/// ```
/// use fmossim_circuits::Ram;
/// use fmossim_testgen::TestSequence;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_campaign::{Backend, Campaign, ConcurrentConfig};
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let report = Campaign::new(ram.network())
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .backend(Backend::Concurrent(ConcurrentConfig::paper()))
///     .run();
/// assert!(report.detected() > 0);
/// ```
///
/// Swapping strategies is one line — `Backend::Serial(..)`,
/// `Backend::Parallel(..)` — with the workload, run control, reporting
/// and observers unchanged.
///
/// `'n` is the network's lifetime; `'o` bounds captured observer and
/// custom-backend state.
pub struct Campaign<'n, 'o> {
    net: &'n Network,
    universe: FaultUniverse,
    patterns: Vec<Pattern>,
    outputs: Vec<NodeId>,
    backend: Backend,
    custom: Option<Box<dyn CampaignBackend + 'o>>,
    control: RunControl,
    observer: Option<Box<dyn FnMut(SimEvent) + 'o>>,
    telemetry: Registry,
    cancel: Arc<AtomicBool>,
}

impl<'n, 'o> Campaign<'n, 'o> {
    /// Starts a campaign on `net` with an empty workload, the paper's
    /// concurrent backend and static fault collapsing on.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        Campaign {
            net,
            universe: FaultUniverse::new(),
            patterns: Vec::new(),
            outputs: Vec::new(),
            backend: Backend::Concurrent(ConcurrentConfig::paper()),
            custom: None,
            control: RunControl::default(),
            observer: None,
            telemetry: Registry::null(),
            cancel: no_cancel(),
        }
    }

    /// Sets the fault universe to grade.
    #[must_use]
    pub fn faults(mut self, universe: FaultUniverse) -> Self {
        self.universe = universe;
        self
    }

    /// Sets the stimulus patterns (cloned; sliced further by
    /// [`Campaign::pattern_limit`]).
    #[must_use]
    pub fn patterns(mut self, patterns: &[Pattern]) -> Self {
        self.patterns = patterns.to_vec();
        self
    }

    /// Sets the observed output nodes compared at every strobe.
    #[must_use]
    pub fn outputs(mut self, outputs: &[NodeId]) -> Self {
        self.outputs = outputs.to_vec();
        self
    }

    /// Selects the execution strategy (default: the paper's concurrent
    /// simulator).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self.custom = None;
        self
    }

    /// Plugs in a custom [`CampaignBackend`] implementation — the seam
    /// for strategies beyond the built-in three (autotuned sharding,
    /// remote execution). Overrides [`Campaign::backend`].
    #[must_use]
    pub fn backend_impl(mut self, backend: Box<dyn CampaignBackend + 'o>) -> Self {
        self.custom = Some(backend);
        self
    }

    /// Stops the run once coverage (detected / total faults) reaches
    /// `target` (clamped to `[0, 1]`). Backends stop at their work-item
    /// granularity: the concurrent backend between patterns, the serial
    /// backend between faults, the parallel backend once before any
    /// shard runs and then at each shard completion.
    ///
    /// ```
    /// use fmossim_campaign::{Campaign, StopReason};
    /// use fmossim_circuits::Ram;
    /// use fmossim_faults::FaultUniverse;
    /// use fmossim_testgen::TestSequence;
    ///
    /// let ram = Ram::new(4, 4);
    /// let seq = TestSequence::full(&ram);
    /// let report = Campaign::new(ram.network())
    ///     .faults(FaultUniverse::stuck_nodes(ram.network()))
    ///     .patterns(seq.patterns())
    ///     .outputs(ram.observed_outputs())
    ///     .stop_at_coverage(0.5)
    ///     .run();
    /// assert!(report.coverage() >= 0.5);
    /// assert_eq!(report.stop, StopReason::CoverageReached);
    /// ```
    #[must_use]
    pub fn stop_at_coverage(mut self, target: f64) -> Self {
        self.control.stop_at_coverage = Some(target);
        self
    }

    /// Simulates at most the first `n` patterns.
    #[must_use]
    pub fn pattern_limit(mut self, n: usize) -> Self {
        self.control.pattern_limit = Some(n);
        self
    }

    /// Whether to stop spending time on a fault once it is detected
    /// (default `true` — the paper's drop-on-detect rule). Disable for
    /// full-sequence grading of every fault.
    #[must_use]
    pub fn drop_detected(mut self, drop: bool) -> Self {
        self.control.drop_detected = drop;
        self
    }

    /// Whether to collapse the fault universe into structural
    /// equivalence classes before the backend runs (ERASER-style
    /// static fault collapsing, [`CollapseClasses::analyze`]; default
    /// `true`). The backend grades only one representative per class;
    /// at report time every representative's detections fan back out
    /// to all class members, so the report — detection set,
    /// per-pattern counts, live counts, `num_faults` — is
    /// bit-identical to an uncollapsed run, just cheaper to produce.
    /// [`CampaignReport::collapse`] records the class statistics.
    /// `collapse(false)` grades every fault of the universe: the
    /// `paper_figures` ladder needs that to report the paper's work
    /// counts, and tests use it as the plain-path reference.
    ///
    /// Work-item telemetry stays in collapsed terms: `jobs` /
    /// `shards` and the `metrics` snapshot describe the
    /// work actually done, on representatives. Combining with
    /// [`Campaign::stop_at_coverage`] is fine: backends evaluate the
    /// target in parent-universe terms (each representative's
    /// detection weighted by its equivalence-class size, over the
    /// parent fault count), so a collapsed run reaches the target at
    /// the same pattern as the uncollapsed run it reproduces.
    ///
    /// ```
    /// use fmossim_campaign::Campaign;
    /// use fmossim_circuits::Ram;
    /// use fmossim_faults::FaultUniverse;
    /// use fmossim_testgen::TestSequence;
    ///
    /// let ram = Ram::new(4, 4);
    /// let seq = TestSequence::full(&ram);
    /// let universe = FaultUniverse::stuck_nodes(ram.network());
    /// let run = |collapse: bool| {
    ///     Campaign::new(ram.network())
    ///         .faults(universe.clone())
    ///         .patterns(seq.patterns())
    ///         .outputs(ram.observed_outputs())
    ///         .collapse(collapse)
    ///         .run()
    /// };
    /// let (collapsed, plain) = (run(true), run(false));
    /// assert_eq!(collapsed.detections(), plain.detections());
    /// let stats = collapsed.collapse.expect("collapse ran");
    /// assert!(stats.simulated_faults <= stats.total_faults);
    /// assert_eq!(plain.collapse, None);
    /// ```
    #[must_use]
    pub fn collapse(mut self, collapse: bool) -> Self {
        self.control.collapse = collapse;
        self
    }

    /// The campaign's cooperative cancel token. Setting it to `true`
    /// (from any thread) makes the backend stop at its next work-item
    /// boundary — the concurrent backend between patterns, the serial
    /// backend between faults, the parallel backend before its first
    /// shard and then at each shard completion. A cancelled run still
    /// returns a complete, parseable report covering the work done so
    /// far, with [`CampaignReport::cancelled`] set and
    /// [`StopReason::Cancelled`].
    ///
    /// The token is a plain `Arc<AtomicBool>` — cheap to clone, cheap
    /// to poll, and shareable before [`Campaign::run`] consumes the
    /// builder:
    ///
    /// ```
    /// use fmossim_campaign::{Campaign, StopReason};
    /// use fmossim_circuits::Ram;
    /// use fmossim_faults::FaultUniverse;
    /// use fmossim_testgen::TestSequence;
    /// use std::sync::atomic::Ordering;
    ///
    /// let ram = Ram::new(4, 4);
    /// let seq = TestSequence::full(&ram);
    /// let campaign = Campaign::new(ram.network())
    ///     .faults(FaultUniverse::stuck_nodes(ram.network()))
    ///     .patterns(seq.patterns())
    ///     .outputs(ram.observed_outputs());
    /// let token = campaign.cancel_token();
    /// token.store(true, Ordering::Relaxed); // cancel before it starts
    /// let report = campaign.run();
    /// assert!(report.cancelled);
    /// assert_eq!(report.stop, StopReason::Cancelled);
    /// ```
    #[must_use]
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Registers a streaming observer receiving [`SimEvent`]s while
    /// the backend runs. See [`SimEvent`](crate::SimEvent) for which
    /// events each backend emits.
    #[must_use]
    pub fn on_event(mut self, observer: impl FnMut(SimEvent) + 'o) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Attaches a telemetry [`Registry`]: the backend and every
    /// simulator underneath it record into `registry` (per-shard forks
    /// are merged back at report time), and the final
    /// [`CampaignReport::metrics`] snapshot is taken from it. The
    /// default is the free [`Registry::null`], which records nothing.
    ///
    /// ```
    /// use fmossim_campaign::Campaign;
    /// use fmossim_circuits::Ram;
    /// use fmossim_faults::FaultUniverse;
    /// use fmossim_telemetry::Registry;
    /// use fmossim_testgen::TestSequence;
    ///
    /// let ram = Ram::new(4, 4);
    /// let seq = TestSequence::full(&ram);
    /// let registry = Registry::new();
    /// let report = Campaign::new(ram.network())
    ///     .faults(FaultUniverse::stuck_nodes(ram.network()))
    ///     .patterns(seq.patterns())
    ///     .outputs(ram.observed_outputs())
    ///     .with_telemetry(&registry)
    ///     .run();
    /// let snap = registry.snapshot();
    /// // Work counters count what was graded, one representative per
    /// // collapse class; the report speaks full-universe terms. This
    /// // workload detects every fault, so the simulator detected every
    /// // representative.
    /// let stats = report.collapse.expect("collapsing is the default");
    /// assert_eq!(report.detected(), stats.total_faults);
    /// assert_eq!(snap.counters["core.detections"], stats.simulated_faults as u64);
    /// assert_eq!(report.metrics, snap);
    /// ```
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Runs the campaign and returns the wrapped report.
    #[must_use]
    pub fn run(self) -> CampaignReport {
        let t0 = Instant::now();
        let cut = self
            .control
            .pattern_limit
            .map_or(self.patterns.len(), |n| n.min(self.patterns.len()));
        let limited = cut < self.patterns.len();
        // Static fault collapsing runs before the backend ever sees
        // the universe: the workload carries only class
        // representatives, and detections fan back out below.
        let classes = self.control.collapse.then(|| {
            let mut assigned: Vec<NodeId> = self.patterns[..cut]
                .iter()
                .flat_map(|p| &p.phases)
                .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
                .collect();
            assigned.sort_unstable();
            assigned.dedup();
            let t = Instant::now();
            let classes =
                CollapseClasses::analyze(self.net, &self.universe, &self.outputs, &assigned);
            self.telemetry
                .gauge("faults.collapse.seconds")
                .add(t.elapsed().as_secs_f64());
            self.telemetry
                .counter("faults.collapsed_classes")
                .add(classes.num_collapsed_classes() as u64);
            classes
        });
        let collapsed = classes
            .as_ref()
            .map(|c| c.collapsed_universe(&self.universe));
        // Under collapse, backends evaluate any mid-run coverage target
        // in parent-universe terms: each representative's detection
        // weighs as much as its whole equivalence class, so a collapsed
        // run stops at the same pattern as the uncollapsed run it
        // reproduces.
        let class_sizes: Vec<u32> = classes.as_ref().map_or_else(Vec::new, |c| {
            (0..c.num_representatives())
                .map(|k| {
                    u32::try_from(
                        c.members_of(FaultId(u32::try_from(k).expect("rep fits u32")))
                            .len(),
                    )
                    .expect("class size fits u32")
                })
                .collect()
        });
        let workload = Workload {
            net: self.net,
            universe: collapsed.as_ref().unwrap_or(&self.universe),
            patterns: &self.patterns[..cut],
            outputs: &self.outputs,
            coverage: classes.as_ref().map(|_| CoverageWeights {
                class_sizes: &class_sizes,
                total_faults: self.universe.len(),
            }),
        };
        // A custom backend's policy is invisible to the campaign; echo
        // `None` rather than the unused built-in default.
        let policy = if self.custom.is_some() {
            None
        } else {
            Some(self.backend.policy())
        };
        let packing = if self.custom.is_some() {
            None
        } else {
            self.backend.packing()
        };
        let mut backend: Box<dyn CampaignBackend + 'o> = match self.custom {
            Some(custom) => custom,
            None => self.backend.into_impl(),
        };
        backend.attach_telemetry(&self.telemetry);
        backend.attach_cancel(&self.cancel);
        let mut observer = self.observer;
        // With collapsing on, the observer sees parent-universe
        // events: detections and drops fan out to every class member,
        // and live and running detection counts are re-expressed over
        // the parent universe. `ShardDone` stays a work item: it
        // counts the representatives the shard graded.
        let total_faults = self.universe.len();
        let classes_ref = classes.as_ref();
        let mut dropped_members = 0usize;
        let mut fanned_detected = 0usize;
        let mut emit = move |e: SimEvent| {
            let Some(obs) = observer.as_mut() else { return };
            let Some(classes) = classes_ref else {
                obs(e);
                return;
            };
            match e {
                SimEvent::Detected {
                    fault,
                    pattern,
                    phase,
                    potential,
                } => {
                    for &m in classes.members_of(fault) {
                        fanned_detected += 1;
                        obs(SimEvent::Detected {
                            fault: m,
                            pattern,
                            phase,
                            potential,
                        });
                    }
                }
                SimEvent::FaultDropped { fault } => {
                    for &m in classes.members_of(fault) {
                        dropped_members += 1;
                        obs(SimEvent::FaultDropped { fault: m });
                    }
                }
                SimEvent::PatternStart { pattern, .. } => {
                    obs(SimEvent::PatternStart {
                        pattern,
                        live: total_faults - dropped_members,
                    });
                }
                SimEvent::PatternDone {
                    pattern, seconds, ..
                } => {
                    obs(SimEvent::PatternDone {
                        pattern,
                        detected_so_far: fanned_detected,
                        seconds,
                    });
                }
                other => obs(other),
            }
        };
        let BackendRun {
            mut run,
            stopped_early,
            jobs,
            shards,
            max_shard_seconds,
            good_seconds,
            serial_estimate_seconds,
            tape_record_seconds,
            tape_groups,
            cancelled,
        } = backend.run(&workload, &self.control, &mut emit);
        let run_seconds = t0.elapsed().as_secs_f64();
        self.telemetry
            .gauge("campaign.run.seconds")
            .add(run_seconds);
        emit(SimEvent::Span {
            name: "campaign.run",
            seconds: run_seconds,
        });
        // Fan the representatives' results back out: the report speaks
        // parent-universe terms even though the backend graded only
        // class representatives.
        if let Some(classes) = &classes {
            let reps = classes.num_representatives();
            let mut fanned: Vec<Detection> = Vec::with_capacity(run.detections.len());
            for d in &run.detections {
                for &m in classes.members_of(d.fault) {
                    fanned.push(Detection { fault: m, ..*d });
                }
            }
            fanned.sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
            let mut per_pattern = vec![0usize; run.patterns.len()];
            for d in &fanned {
                if let Some(n) = per_pattern.get_mut(d.pattern) {
                    *n += 1;
                }
            }
            // Backends that track per-pattern live counts do so in
            // collapsed terms; re-express them over the parent
            // universe. The serial baseline reports no live counts
            // (all zero) — those stay untouched.
            let tracked = reps > 0 && run.patterns.first().is_some_and(|s| s.live_before == reps);
            let mut detected_before = 0usize;
            for (stats, &detected) in run.patterns.iter_mut().zip(&per_pattern) {
                stats.detected = detected;
                if tracked {
                    stats.live_before = if self.control.drop_detected {
                        total_faults - detected_before
                    } else {
                        total_faults
                    };
                }
                detected_before += detected;
            }
            run.detections = fanned;
            run.num_faults = total_faults;
        }
        let stop = if cancelled {
            StopReason::Cancelled
        } else if stopped_early {
            StopReason::CoverageReached
        } else if limited {
            StopReason::PatternLimit
        } else {
            StopReason::Completed
        };
        CampaignReport {
            backend: backend.name(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            patterns_total: cut,
            stop,
            cancelled,
            control: ControlEcho {
                stop_at_coverage: self.control.stop_at_coverage,
                pattern_limit: self.control.pattern_limit,
                drop_detected: self.control.drop_detected,
                policy,
                packing,
                collapse: self.control.collapse.then_some(true),
            },
            collapse: classes.as_ref().map(|c| CollapseStats {
                total_faults: c.total_faults(),
                simulated_faults: c.num_representatives(),
                classes: c.num_collapsed_classes(),
            }),
            jobs,
            shards,
            max_shard_seconds,
            good_seconds,
            serial_estimate_seconds,
            tape_record_seconds,
            tape_groups,
            metrics: self.telemetry.snapshot(),
            run,
        }
    }
}
