//! The adaptive batch-rebalancing backend: `record → replay-into-shards
//! → merge → re-plan`, batch after batch.
//!
//! The one-shot parallel backend plans its shards once, from a *static*
//! per-fault cost proxy, and lives with the plan as detected faults
//! drop out unevenly. This backend instead splits the pattern sequence
//! into batches and, between batches,
//!
//! 1. **drops detected faults** from the surviving universe (under
//!    [`RunControl::drop_detected`]),
//! 2. **re-plans shards from measured shard times** — each batch's
//!    per-shard wall-clock seconds are folded into an EWMA per-fault
//!    cost model ([`fmossim_par::CostModel`]) that drives a weighted
//!    LPT re-partition ([`fmossim_par::ShardPlan::build_weighted`]),
//!    and
//! 3. **re-sizes the pool** via the feedback extension of
//!    [`Jobs::Auto`] ([`Jobs::refine`]) as the surviving workload
//!    shrinks.
//!
//! The good machine is carried across batches by one
//! [`TapeRecorder`]; each batch's tape replays into the current
//! shards' simulators, and surviving fault state migrates between
//! differently-partitioned shards as
//! [`FaultSnapshot`](fmossim_core::FaultSnapshot)s
//! ([`ConcurrentSim::export_fault`](fmossim_core::ConcurrentSim::export_fault)
//! / [`resume_at`](fmossim_core::ConcurrentSim::resume_at)). Each batch
//! runs through the shard executor ([`fmossim_par::run_shards`]); the
//! coverage target and cancel token are checked between batches, so a
//! batch is this backend's stop granularity. Detection sets
//! are **bit-identical** to [`Backend::Parallel`](crate::Backend) for
//! every batch size (`tests/adaptive_equivalence.rs` asserts it) —
//! re-planning moves time around, never results.

use crate::backend::{no_cancel, BackendRun, CampaignBackend, RunControl, StopRule, Workload};
use crate::event::SimEvent;
use fmossim_core::{ConcurrentConfig, PatternStats, RunReport, TapeRecorder};
use fmossim_faults::FaultId;
use fmossim_par::{
    run_shards, ArenaPool, CostModel, Jobs, ResumePoint, ScopedPool, ShardPlan, ShardResult,
    ShardStrategy, ShardWork, DEFAULT_COST_ALPHA,
};
use fmossim_telemetry::Registry;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Default patterns per batch when none is configured: small enough to
/// re-plan while the detection curve is still falling, large enough to
/// amortise the per-batch shard rebuild.
pub const DEFAULT_BATCH_PATTERNS: usize = 16;

/// Configuration of the adaptive batch-rebalancing backend
/// ([`Backend::Adaptive`](crate::Backend::Adaptive)).
///
/// ```
/// use fmossim_campaign::AdaptiveConfig;
/// use fmossim_par::Jobs;
///
/// let config = AdaptiveConfig::paper(8); // 8-pattern batches
/// assert_eq!(config.batch, 8);
/// assert_eq!(config.jobs, Jobs::Auto);
/// assert!(config.rebalance);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Patterns per batch; `0` means the whole sequence in one batch
    /// (degenerating to a tape-backed parallel run with no
    /// re-planning opportunity).
    pub batch: usize,
    /// Worker selection. [`Jobs::Auto`] additionally enables the
    /// between-batch pool feedback ([`Jobs::refine`]); a fixed count
    /// is honoured for every batch.
    pub jobs: Jobs,
    /// Shards per batch; `None` means one per (current) worker.
    pub shards: Option<usize>,
    /// How the *first* batch is planned, before any measurement
    /// exists. Re-planned batches always use measured-cost LPT.
    pub initial_strategy: ShardStrategy,
    /// Whether to re-plan shards from measured times between batches
    /// (default `true`). With `false` the initial plan is frozen —
    /// detected faults still drop out, but nothing is re-balanced.
    /// This is the A/B baseline `scaling_par --backend adaptive`
    /// measures against.
    pub rebalance: bool,
    /// EWMA smoothing factor for the measured cost model, in `(0, 1]`.
    pub alpha: f64,
    /// Recycle shard-simulator arenas across batch boundaries through
    /// an [`fmossim_par::ArenaPool`] (default `true`). Every batch
    /// rebuilds one simulator per shard; without reuse each rebuild
    /// reallocates the engine's solver scratch, the divergence-record
    /// store, the structural tables and the event queue. Reuse is
    /// bit-invisible — `false` restores the allocate-per-shard
    /// behaviour for allocator A/B measurements (`allocstats`).
    pub reuse_arenas: bool,
    /// Configuration forwarded to every shard's
    /// [`ConcurrentSim`](fmossim_core::ConcurrentSim).
    pub sim: ConcurrentConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            batch: DEFAULT_BATCH_PATTERNS,
            jobs: Jobs::Auto,
            shards: None,
            initial_strategy: ShardStrategy::CostEstimated,
            rebalance: true,
            alpha: DEFAULT_COST_ALPHA,
            reuse_arenas: true,
            sim: ConcurrentConfig::default(),
        }
    }
}

impl AdaptiveConfig {
    /// The paper's simulator configuration with `batch` patterns per
    /// batch (`0` = one batch) and autotuned, feedback-resized workers.
    #[must_use]
    pub fn paper(batch: usize) -> Self {
        AdaptiveConfig {
            batch,
            sim: ConcurrentConfig::paper(),
            ..AdaptiveConfig::default()
        }
    }
}

/// Telemetry for one completed batch of an adaptive run, carried in
/// [`BackendRun::batches`] and the
/// [`CampaignReport`](crate::CampaignReport) JSON artifact.
///
/// ```
/// let t = fmossim_campaign::BatchTelemetry {
///     first_pattern: 16,
///     patterns: 16,
///     live_before: 40,
///     detected: 12,
///     workers: 2,
///     shards: 2,
///     moved_faults: 7,
///     max_shard_seconds: 0.05,
///     mean_shard_seconds: 0.04,
///     imbalance: 1.25,
///     tape_record_seconds: 0.002,
///     tape_groups: 96,
/// };
/// assert!((t.imbalance - t.max_shard_seconds / t.mean_shard_seconds).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchTelemetry {
    /// Global index of the batch's first pattern.
    pub first_pattern: usize,
    /// Patterns in the batch.
    pub patterns: usize,
    /// Faults live when the batch started.
    pub live_before: usize,
    /// Faults detected during the batch.
    pub detected: usize,
    /// Workers the batch ran on (after any pool feedback).
    pub workers: usize,
    /// Shards in the batch's plan.
    pub shards: usize,
    /// Rebalance delta: surviving faults whose shard assignment
    /// changed relative to the previous batch's plan (`0` for the
    /// first batch and for frozen plans).
    pub moved_faults: usize,
    /// The batch's longest single shard, in seconds (its critical
    /// path).
    pub max_shard_seconds: f64,
    /// Mean shard seconds of the batch.
    pub mean_shard_seconds: f64,
    /// The load-imbalance ratio `max_shard_seconds /
    /// mean_shard_seconds` (`1.0` = perfectly balanced; `>= 1`
    /// always). This is the quantity re-planning exists to shrink.
    pub imbalance: f64,
    /// Seconds spent recording this batch's good tape.
    pub tape_record_seconds: f64,
    /// Good-machine vicinities on this batch's tape.
    pub tape_groups: usize,
}

/// The adaptive batch-rebalancing [`CampaignBackend`]: it runs the
/// `record → replay-into-shards → merge → re-plan` loop, batch after
/// batch. Normally reached via
/// [`Backend::Adaptive`](crate::Backend::Adaptive); constructible
/// directly for use with
/// [`Campaign::backend_impl`](crate::Campaign::backend_impl).
///
/// ```
/// use fmossim_campaign::{AdaptiveBackend, AdaptiveConfig, Backend, Campaign};
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let run = |campaign: Campaign| campaign
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .run();
/// let adaptive = run(Campaign::new(ram.network())
///     .backend(Backend::Adaptive(AdaptiveConfig::paper(8))));
/// let parallel = run(Campaign::new(ram.network())
///     .backend(Backend::Parallel(fmossim_par::ParallelConfig::auto())));
/// // Batching and re-planning never change the verdicts.
/// assert_eq!(adaptive.detections(), parallel.detections());
/// assert!(!adaptive.batches.is_empty());
/// # let _ = AdaptiveBackend::new(AdaptiveConfig::paper(8));
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveBackend {
    config: AdaptiveConfig,
    telemetry: Registry,
    cancel: Arc<AtomicBool>,
}

impl AdaptiveBackend {
    /// Creates the backend from its configuration.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveBackend {
            config,
            telemetry: Registry::null(),
            cancel: no_cancel(),
        }
    }
}

/// Shard index per fault id, for the rebalance-delta count.
fn assignment(plan: &ShardPlan, num_faults: usize) -> Vec<Option<usize>> {
    let mut map = vec![None; num_faults];
    for (s, ids) in plan.shards().enumerate() {
        for &id in ids {
            map[id.index()] = Some(s);
        }
    }
    map
}

impl CampaignBackend for AdaptiveBackend {
    fn name(&self) -> String {
        "adaptive".into()
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
        let m_batches = self.telemetry.counter("campaign.batches");
        let m_imbalance = self.telemetry.gauge("campaign.batch.imbalance");
        let m_replan = self.telemetry.gauge("campaign.replan.seconds");
        let m_moved = self.telemetry.counter("campaign.moved_faults");
        let cfg = &self.config;
        let n = w.universe.len();
        let total_patterns = w.patterns.len();
        let batch_size = if cfg.batch == 0 {
            total_patterns.max(1)
        } else {
            cfg.batch
        };
        let sim = ConcurrentConfig {
            drop_on_detect: control.drop_detected,
            ..cfg.sim
        };

        let resolved = cfg.jobs.resolve(w.net, w.universe);
        let mut cost = CostModel::with_alpha(w.net, w.universe, cfg.alpha);
        let mut survivors: Vec<FaultId> = w.universe.iter().map(|(id, _)| id).collect();
        // Pool feedback compares like with like: the *static* cost of
        // the survivors against the static cost of the whole universe.
        // (The EWMA model drifts toward measured-seconds units, so its
        // totals must not be mixed with this pre-observation total —
        // `Jobs::refine` requires one consistent unit.)
        let static_costs: Vec<f64> = w
            .universe
            .iter()
            .map(|(_, f)| fmossim_par::fault_cost(w.net, &f) as f64)
            .collect();
        let initial_cost: f64 = static_costs.iter().sum();
        let mut workers = resolved;
        let mut plan = ShardPlan::build(
            w.net,
            w.universe,
            cfg.shards.unwrap_or(resolved).max(1),
            cfg.initial_strategy,
        );
        let mut recorder = TapeRecorder::new(w.net, sim.engine);
        let arenas = cfg.reuse_arenas.then(ArenaPool::new);
        let mut resume: Option<ResumePoint<'_>> = None;
        let mut moved_faults = 0usize; // churn that produced the *current* plan

        // The stop target is evaluated in parent-universe terms when
        // the workload is collapsed (each representative's detection
        // weighted by its class size); telemetry below stays in
        // workload terms.
        let mut stop = StopRule::new(w, control, &[&self.cancel]);
        let mut detected_total = 0usize;
        let mut pattern_stats: Vec<PatternStats> = Vec::new();
        let mut detections = Vec::new();
        let mut batches: Vec<BatchTelemetry> = Vec::new();
        let (mut tape_seconds, mut tape_groups) = (0.0, 0usize);
        let mut max_shard_seconds = 0.0f64;

        let mut first = 0usize;
        while first < total_patterns {
            if stop.cancel_requested() {
                break;
            }
            if survivors.is_empty() {
                // Every fault detected and dropped: the remaining
                // patterns would be all-idle shards. Keep the report's
                // per-pattern shape and stop simulating.
                pattern_stats.resize(total_patterns, PatternStats::default());
                break;
            }
            let batch = &w.patterns[first..(first + batch_size).min(total_patterns)];
            let tape = recorder.record(batch);
            tape_seconds += tape.record_seconds();
            tape_groups += tape.num_groups();
            let live_before = survivors.len();

            let work = ShardWork {
                first_pattern: first,
                tape: Some(&tape),
                resume: resume.as_ref(),
                arenas: arenas.as_ref(),
                export_survivors: first + batch.len() < total_patterns,
                ..ShardWork::new(w.net, w.universe, &plan, batch, w.outputs, sim)
            };
            let mut results: Vec<ShardResult> = Vec::with_capacity(plan.num_shards());
            run_shards(
                &ScopedPool::new(workers),
                Arc::new(work),
                &self.telemetry,
                |r| {
                    results.push(r);
                    ControlFlow::Continue(())
                },
            );
            results.sort_unstable_by_key(|r| r.shard);
            let shard_seconds: Vec<f64> = results.iter().map(|r| r.report.total_seconds).collect();

            // Stream events in shard order (deterministic, unlike the
            // one-shot parallel backend's completion order).
            let mut batch_detected = 0usize;
            for r in &results {
                stop.detected(&r.report.detections, emit);
                batch_detected += r.report.detected();
                emit(SimEvent::ShardDone {
                    shard: r.shard,
                    faults: r.faults,
                    detected: r.report.detected(),
                    seconds: r.report.total_seconds,
                });
            }
            detected_total += batch_detected;

            let shards_run = shard_seconds.len();
            let max_s = shard_seconds.iter().copied().fold(0.0f64, f64::max);
            let mean_s = if shards_run == 0 {
                0.0
            } else {
                shard_seconds.iter().sum::<f64>() / shards_run as f64
            };
            let imbalance = if mean_s > 0.0 { max_s / mean_s } else { 1.0 };
            max_shard_seconds = max_shard_seconds.max(max_s);
            batches.push(BatchTelemetry {
                first_pattern: first,
                patterns: batch.len(),
                live_before,
                detected: batch_detected,
                workers,
                shards: shards_run,
                moved_faults,
                max_shard_seconds: max_s,
                mean_shard_seconds: mean_s,
                imbalance,
                tape_record_seconds: tape.record_seconds(),
                tape_groups: tape.num_groups(),
            });
            emit(SimEvent::BatchDone {
                batch: batches.len() - 1,
                first_pattern: first,
                patterns: batch.len(),
                shards: shards_run,
                detected_so_far: detected_total,
                imbalance,
            });
            m_batches.inc();
            m_imbalance.add(imbalance);

            let mut survivors_out = Vec::new();
            let merged = RunReport::merge(results.into_iter().map(|r| {
                survivors_out.extend(r.survivors);
                r.report
            }));
            pattern_stats.extend(merged.patterns);
            detections.extend(merged.detections);

            first += batch.len();
            if first >= total_patterns || stop.target_reached() {
                break;
            }

            // Batch boundary: feed measurements back, carry the good
            // machine and the surviving fault states, and re-plan.
            let replan_t0 = Instant::now();
            cost.observe(&plan, &shard_seconds);
            let mut snapshots = vec![None; n];
            survivors.clear();
            for (id, snap) in survivors_out {
                snapshots[id.index()] = Some(snap);
                survivors.push(id);
            }
            survivors.sort_unstable_by_key(|id: &FaultId| id.index());
            resume = Some(ResumePoint {
                good: recorder.good_state().clone(),
                snapshots,
            });
            let surviving_static: f64 = survivors.iter().map(|id| static_costs[id.index()]).sum();
            workers = cfg.jobs.refine(resolved, initial_cost, surviving_static);
            if cfg.rebalance {
                let prev = assignment(&plan, n);
                plan = ShardPlan::build_weighted(
                    &survivors,
                    cfg.shards.unwrap_or(workers).max(1),
                    |id| cost.estimate(id),
                );
                let next = assignment(&plan, n);
                moved_faults = survivors
                    .iter()
                    .filter(|id| prev[id.index()].is_some() && prev[id.index()] != next[id.index()])
                    .count();
            } else {
                let mut alive = vec![false; n];
                for &id in &survivors {
                    alive[id.index()] = true;
                }
                plan = plan.retain(|id| alive[id.index()]);
                moved_faults = 0;
            }
            let replan_seconds = replan_t0.elapsed().as_secs_f64();
            m_replan.add(replan_seconds);
            m_moved.add(moved_faults as u64);
            emit(SimEvent::Span {
                name: "campaign.replan",
                seconds: replan_seconds,
            });
        }

        let mut run = RunReport {
            patterns: pattern_stats,
            detections,
            num_faults: n,
            total_seconds: t0.elapsed().as_secs_f64(),
        };
        // Canonical order, exactly as the one-shot merge produces.
        run.detections
            .sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        let shards0 = batches.first().map(|b| b.shards);
        BackendRun {
            jobs: Some(resolved),
            shards: shards0,
            max_shard_seconds: Some(max_shard_seconds),
            tape_record_seconds: Some(tape_seconds),
            tape_groups: Some(tape_groups),
            batches,
            ..stop.finish(run)
        }
    }
}
