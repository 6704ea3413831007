//! The fault-parallel driver: one loop for every offline sharded run.
//! It plans the shards, records the good tape and runs every shard's
//! [`ConcurrentSim`](fmossim_core::ConcurrentSim) through the shard
//! executor ([`run_shards`](crate::run_shards)) on a
//! [`ScopedPool`](crate::ScopedPool) — once for the whole sequence
//! ([`ParallelConfig::batch`] `== 0`), or batch after batch, carrying
//! the survivors and re-planning in between (see [`crate::batch`]'s
//! module docs).

use crate::batch::{BatchTelemetry, Carry};
use crate::exec::{run_shards, ScopedPool, ShardResult, ShardWork};
use crate::jobs::Jobs;
use crate::plan::{ShardPlan, ShardStrategy};
use fmossim_core::{ConcurrentConfig, GoodTape, Pattern, PatternStats, RunReport};
use fmossim_faults::FaultUniverse;
use fmossim_netlist::{Network, NodeId};
use fmossim_telemetry::Registry;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the parallel driver.
///
/// ```
/// use fmossim_par::{Jobs, ParallelConfig, ShardStrategy};
///
/// // 8-pattern batches on an autotuned pool, planned by cost first.
/// let config = ParallelConfig {
///     batch: 8,
///     strategy: ShardStrategy::CostEstimated,
///     ..ParallelConfig::auto()
/// };
/// assert_eq!(config.jobs, Jobs::Auto);
/// assert!(config.rebalance, "batches re-plan from measured times by default");
/// assert_eq!(ParallelConfig::default().batch, 0, "one batch: the whole sequence");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads: a fixed count, or [`Jobs::Auto`] to size the
    /// pool from the universe's estimated fault cost (and, in a batched
    /// run, to shrink it between batches as faults are detected —
    /// [`Jobs::refine`]). Workers beyond the number of (non-empty)
    /// shards are not spawned.
    pub jobs: Jobs,
    /// How the universe is partitioned (for the first batch; re-planned
    /// batches use measured-cost LPT).
    pub strategy: ShardStrategy,
    /// Number of shards; `None` means one per worker. Oversharding
    /// (`shards > jobs`) turns the pool into a load balancer: workers
    /// pull the next shard when they finish, smoothing out uneven
    /// shard costs.
    pub shards: Option<usize>,
    /// Patterns per batch; `0` (the default) runs the whole sequence
    /// as one batch. Between batches the detected faults leave the
    /// plan, the survivors' state is carried over as snapshots, and the
    /// stop checks of [`ParallelSim::run_observed`] get a batch
    /// boundary — so the batch size moves where a coverage stop lands,
    /// never which faults a completed run detects.
    pub batch: usize,
    /// Re-plan the survivors from measured shard times between batches
    /// (default `true`). With `false` the first plan is frozen:
    /// detected faults still drop out, but nothing is re-balanced.
    /// Ignored by one-batch runs.
    pub rebalance: bool,
    /// Record the good machine once and replay the shared [`GoodTape`]
    /// in every shard, instead of re-settling the good circuit per
    /// shard (default `true`). Replay is bit-identical to recompute —
    /// this knob exists for A/B measurement (`scaling_par --replay
    /// off`) and as an escape hatch. With a single shard the tape is
    /// skipped either way: recording would cost an extra good pass
    /// without saving one. Batched runs always record and replay one
    /// tape per batch — it carries the good machine across boundaries.
    pub reuse_good_tape: bool,
    /// Configuration forwarded to every shard's [`ConcurrentSim`](fmossim_core::ConcurrentSim)
    /// (detection policy, per-shard drop-on-detect, packing).
    pub sim: ConcurrentConfig,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: Jobs::default(),
            strategy: ShardStrategy::default(),
            shards: None,
            batch: 0,
            rebalance: true,
            reuse_good_tape: true,
            sim: ConcurrentConfig::default(),
        }
    }
}

impl ParallelConfig {
    /// The paper's simulator configuration on `jobs` workers.
    #[must_use]
    pub fn paper(jobs: usize) -> Self {
        ParallelConfig {
            jobs: Jobs::Fixed(jobs),
            sim: ConcurrentConfig::paper(),
            ..ParallelConfig::default()
        }
    }

    /// The paper's simulator configuration with autotuned workers.
    #[must_use]
    pub fn auto() -> Self {
        ParallelConfig {
            jobs: Jobs::Auto,
            sim: ConcurrentConfig::paper(),
            ..ParallelConfig::default()
        }
    }
}

/// Summary of one completed shard, streamed to the observer of
/// [`ParallelSim::run_streaming`] as workers finish.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardOutcome {
    /// Shard index in the [`ShardPlan`].
    pub shard: usize,
    /// Faults the shard graded.
    pub faults: usize,
    /// Faults the shard detected.
    pub detected: usize,
    /// The shard's own wall-clock seconds.
    pub seconds: f64,
}

/// One step of a [`ParallelSim::run_observed`] run, handed to its
/// observer on the calling thread. Every step may stop the run by
/// returning [`ControlFlow::Break`].
#[derive(Clone, Copy, Debug)]
pub enum RunStep<'a> {
    /// A batch is about to start. A `Break` here skips it and every
    /// later batch. A one-batch run has exactly one.
    BatchStart,
    /// A shard finished; `report` is its (globally relabelled) report.
    /// A `Break` here skips the batch's unstarted shards and every
    /// later batch.
    Shard {
        /// The shard's summary.
        outcome: &'a ShardOutcome,
        /// The shard's report.
        report: &'a RunReport,
    },
    /// A batch closed, after all of its shard steps (batched runs
    /// only). A `Break` here skips every later batch.
    BatchDone {
        /// The batch's measurements.
        telemetry: &'a BatchTelemetry,
        /// Seconds spent re-planning the survivors for this batch
        /// (`0.0` for the first batch).
        replan_seconds: f64,
    },
}

/// Measurements of the good-machine tape a parallel run recorded and
/// replayed (absent when recompute mode was used — a single shard or
/// [`ParallelConfig::reuse_good_tape`] off). A batched run sums its
/// per-batch tapes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TapeStats {
    /// Wall-clock seconds of the record pass(es).
    pub record_seconds: f64,
    /// Good-machine vicinities recorded (work each shard skipped).
    pub groups: usize,
    /// Shards that replayed the tape.
    pub replayed_shards: usize,
    /// Approximate tape heap footprint in bytes (the largest batch's).
    pub heap_bytes: usize,
}

/// Everything a parallel run produces: the merged report, per-shard
/// timing, and the tape measurements when record/replay was used.
#[derive(Clone, Debug, Default)]
pub struct ParallelRun {
    /// The merged, canonically-ordered report (see
    /// [`fmossim_core::RunReport::merge`]).
    pub report: RunReport,
    /// Each shard's own wall-clock seconds, indexed by shard (`0.0`
    /// for shards skipped after an early stop); a batched run lists
    /// every batch's shards in turn.
    pub shard_seconds: Vec<f64>,
    /// Good-tape measurements, when the good machine was recorded once
    /// and replayed per shard.
    pub tape: Option<TapeStats>,
    /// The good tape a one-batch run replayed (recorded here or
    /// injected via [`ParallelSim::inject_good_tape`]) — the extraction
    /// seam a caching layer deposits into. `None` in recompute mode and
    /// for batched runs, whose tapes each cover one batch.
    pub good_tape: Option<Arc<GoodTape>>,
}

/// Fault-parallel concurrent simulation: the fault universe is split
/// into shards ([`ShardPlan`]), each shard is graded by its own
/// [`ConcurrentSim`](fmossim_core::ConcurrentSim) (faulty circuits dropped on detection as usual),
/// and the per-shard [`RunReport`]s are folded into one
/// ([`RunReport::merge`]) whose detections and coverage are identical
/// to a one-shard run — sharding and batching change wall-clock time,
/// never results. By default the good machine is recorded once per run
/// ([`GoodTape`]) and replayed in every shard, so only one shard-count-
/// independent good pass is paid; see
/// [`ParallelConfig::reuse_good_tape`].
///
/// # Example
///
/// ```
/// use fmossim_netlist::{Network, Logic, Size, Drive, TransistorType};
/// use fmossim_faults::FaultUniverse;
/// use fmossim_core::{Pattern, Phase};
/// use fmossim_par::{ParallelConfig, ParallelSim};
///
/// let mut net = Network::new();
/// let vdd = net.add_input("Vdd", Logic::H);
/// let gnd = net.add_input("Gnd", Logic::L);
/// let a = net.add_input("A", Logic::L);
/// let out = net.add_storage("OUT", Size::S1);
/// net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
/// net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
///
/// let universe = FaultUniverse::stuck_nodes(&net);
/// let sim = ParallelSim::new(&net, universe, ParallelConfig::paper(2));
/// let patterns = vec![
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
///     Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
/// ];
/// let report = sim.run(&patterns, &[out]);
/// assert_eq!(report.detected(), 2);
/// assert_eq!(report.coverage(), 1.0);
/// ```
pub struct ParallelSim<'n> {
    net: &'n Network,
    universe: FaultUniverse,
    plan: ShardPlan,
    config: ParallelConfig,
    /// `config.jobs` resolved against the universe at planning time.
    workers: usize,
    /// Telemetry sink (null by default): each shard gets a
    /// [`Registry::fork`], merged back on the calling thread as the
    /// shard completes.
    telemetry: Registry,
    /// A pre-recorded good tape to replay instead of recording one —
    /// see [`ParallelSim::inject_good_tape`].
    injected_tape: Option<Arc<GoodTape>>,
}

impl<'n> ParallelSim<'n> {
    /// Plans shards for `universe` and prepares the driver. The
    /// universe is owned: shard workers index into it concurrently.
    /// [`Jobs::Auto`] is resolved here, against this universe.
    #[must_use]
    pub fn new(net: &'n Network, universe: FaultUniverse, config: ParallelConfig) -> Self {
        let workers = config.jobs.resolve(net, &universe);
        let k = config.shards.unwrap_or(workers).max(1);
        let plan = ShardPlan::build(net, &universe, k, config.strategy);
        ParallelSim {
            net,
            universe,
            plan,
            config,
            workers,
            telemetry: Registry::null(),
            injected_tape: None,
        }
    }

    /// Injects a pre-recorded [`GoodTape`] (e.g. from a cross-run
    /// cache): every shard replays it instead of this run recording
    /// one, and the reported [`TapeStats::record_seconds`] is `0.0` —
    /// the record pass was paid elsewhere. Unlike a freshly recorded
    /// tape, an injected tape is replayed even by a single-shard plan
    /// (replay is free; recording is what needs amortising).
    ///
    /// The tape must describe this network and stimulus
    /// ([`GoodTape::matches`]); a tape of the wrong shape is ignored
    /// and the run falls back to its normal record-or-recompute
    /// behaviour. Batched runs ignore it too: each batch records its
    /// own tape.
    pub fn inject_good_tape(&mut self, tape: Arc<GoodTape>) {
        self.injected_tape = Some(tape);
    }

    /// Publishes this driver's activity into `registry`: `par.*`
    /// metrics (shard seconds, queue wait, merge time), the tape's
    /// `core.tape.*` record measurements, and — via a per-shard
    /// [`Registry::fork`] merged at completion — every shard
    /// simulator's `core.*` / `switch.*` metrics.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    /// The (first batch's) shard plan.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The fault universe being graded.
    #[must_use]
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The resolved worker count ([`Jobs::Auto`] already applied);
    /// the pool never spawns more threads than non-empty shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the pattern sequence over every shard and merges the
    /// per-shard reports. `total_seconds` is the measured wall-clock
    /// time of the whole parallel run; per-pattern `seconds` are
    /// aggregate CPU seconds across shards.
    #[must_use]
    pub fn run(&self, patterns: &[Pattern], outputs: &[NodeId]) -> RunReport {
        self.run_with_shard_times(patterns, outputs).0
    }

    /// Like [`ParallelSim::run`], additionally returning each shard's
    /// own wall-clock seconds (indexed by shard). The maximum entry is
    /// the run's critical path: `reference_seconds / max_shard_seconds`
    /// is the speedup an unconstrained machine would reach with this
    /// plan, independent of how many cores the measuring host has —
    /// the quantity `scaling_par` reports as `ideal_speedup`.
    #[must_use]
    pub fn run_with_shard_times(
        &self,
        patterns: &[Pattern],
        outputs: &[NodeId],
    ) -> (RunReport, Vec<f64>) {
        let run = self.run_streaming(patterns, outputs, |_, _| ControlFlow::Continue(()));
        (run.report, run.shard_seconds)
    }

    /// [`ParallelSim::run_observed`] with an observer of the shard
    /// steps only: `on_shard` receives each shard's [`ShardOutcome`]
    /// and its (globally relabelled) [`RunReport`] as the shard
    /// completes — the streaming seam for progress and early stopping.
    pub fn run_streaming(
        &self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        mut on_shard: impl FnMut(&ShardOutcome, &RunReport) -> ControlFlow<()>,
    ) -> ParallelRun {
        self.run_observed(patterns, outputs, |step| match step {
            RunStep::Shard { outcome, report } => on_shard(outcome, report),
            RunStep::BatchStart | RunStep::BatchDone { .. } => ControlFlow::Continue(()),
        })
    }

    /// Runs the shards batch by batch ([`ParallelConfig::batch`]),
    /// invoking `on_step` from the calling thread at each
    /// [`RunStep`]: the start of every batch, every shard completion,
    /// and the close of every batch of a batched run.
    ///
    /// A [`ControlFlow::Break`] stops the run: shards already running
    /// finish and are included, shards and batches never started are
    /// skipped — the merged report then covers only what ran, while
    /// `num_faults` still counts the whole universe (skipped faults are
    /// simply unsimulated, like undetected faults). A batch cut short
    /// by a shard's `Break` still closes with its
    /// [`RunStep::BatchDone`].
    ///
    /// With more than one worker, completion order — and therefore the
    /// order of a batch's shard steps — is scheduling-dependent; the
    /// merged report is canonically ordered regardless.
    ///
    /// A one-batch run records the good machine once (on the calling
    /// thread, before the pool starts) when
    /// [`ParallelConfig::reuse_good_tape`] is on and the plan has more
    /// than one shard, and every shard replays the shared
    /// [`GoodTape`]. A batched run records one tape per batch, carries
    /// the survivors' state across each boundary, and re-plans
    /// ([`ParallelConfig::rebalance`]) from the measured shard times.
    ///
    /// # Panics
    ///
    /// A shard that panics stops the queue like a `Break`; its panic is
    /// re-raised here once the shards already running have finished.
    pub fn run_observed(
        &self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        mut on_step: impl FnMut(RunStep<'_>) -> ControlFlow<()>,
    ) -> ParallelRun {
        let t0 = Instant::now();
        let total = patterns.len();
        let num_faults = self.universe.len();
        let mut carry = (self.config.batch > 0).then(|| {
            Carry::new(
                self.net,
                &self.universe,
                &self.plan,
                self.workers,
                self.config.sim,
            )
        });
        let mut run = ParallelRun::default();
        let mut first = 0;
        loop {
            if on_step(RunStep::BatchStart).is_break() {
                break;
            }
            let replan_seconds = match &mut carry {
                Some(c) if c.live == 0 => {
                    // Every fault detected and dropped: the rest would
                    // be all-idle shards. Keep the report's per-pattern
                    // shape and stop simulating.
                    run.report.patterns.resize(total, PatternStats::default());
                    break;
                }
                Some(c) if first > 0 => c.replan(&self.config, num_faults),
                _ => 0.0,
            };
            let batch_t0 = Instant::now();
            let end = match self.config.batch {
                0 => total,
                n => (first + n).min(total),
            };
            let batch = &patterns[first..end];
            let (tape, injected) = match &mut carry {
                None => self.whole_run_tape(patterns),
                Some(c) => (Some(Arc::new(c.recorder.record(batch))), false),
            };
            let (plan, workers) = carry
                .as_ref()
                .map_or((&self.plan, self.workers), |c| (&c.plan, c.workers));
            if let (Some(t), false) = (&tape, injected) {
                self.telemetry
                    .gauge("core.tape.record_seconds")
                    .add(t.record_seconds());
                self.telemetry
                    .counter("core.tape.groups")
                    .add(t.num_groups() as u64);
            }

            let work = ShardWork {
                first_pattern: first,
                tape: tape.as_deref(),
                resume: carry.as_ref().and_then(|c| c.resume.as_ref()),
                arenas: carry.as_ref().map(|c| &c.arenas),
                export_survivors: carry.is_some() && end < total,
                ..ShardWork::new(
                    self.net,
                    &self.universe,
                    plan,
                    batch,
                    outputs,
                    self.config.sim,
                )
            };
            let mut stopped = false;
            let mut results: Vec<ShardResult> = Vec::with_capacity(plan.num_shards());
            run_shards(
                &ScopedPool::new(workers),
                Arc::new(work),
                &self.telemetry,
                |r| {
                    self.telemetry
                        .gauge("par.queue.wait_seconds")
                        .add((r.started - batch_t0).as_secs_f64());
                    let outcome = ShardOutcome {
                        shard: r.shard,
                        faults: r.faults,
                        detected: r.report.detected(),
                        seconds: r.report.total_seconds,
                    };
                    let flow = on_step(RunStep::Shard {
                        outcome: &outcome,
                        report: &r.report,
                    });
                    stopped |= flow.is_break();
                    results.push(r);
                    flow
                },
            );

            // Merge in shard order for reproducible statistics;
            // detection order is canonicalised by `merge` regardless.
            let merge_t0 = Instant::now();
            results.sort_unstable_by_key(|r| r.shard);
            let mut shard_seconds = vec![0.0; plan.num_shards()];
            for r in &results {
                shard_seconds[r.shard] = r.report.total_seconds;
            }
            let shards_run = results.len();
            let mut survivors = Vec::new();
            let merged = RunReport::merge(results.into_iter().map(|r| {
                survivors.extend(r.survivors);
                r.report
            }));
            self.telemetry
                .gauge("par.merge.seconds")
                .add(merge_t0.elapsed().as_secs_f64());
            if let Some(t) = &tape {
                let stats = run.tape.get_or_insert_with(TapeStats::default);
                if !injected {
                    stats.record_seconds += t.record_seconds();
                }
                stats.groups += t.num_groups();
                stats.replayed_shards += shards_run;
                stats.heap_bytes = stats.heap_bytes.max(t.heap_bytes());
            }
            if let Some(c) = &mut carry {
                let max = shard_seconds.iter().copied().fold(0.0f64, f64::max);
                let mean = if shards_run == 0 {
                    0.0
                } else {
                    shard_seconds.iter().sum::<f64>() / shards_run as f64
                };
                let telemetry = BatchTelemetry {
                    first_pattern: first,
                    patterns: batch.len(),
                    live_before: c.live,
                    detected: merged.detected(),
                    workers,
                    shards: shards_run,
                    moved_faults: c.moved_faults,
                    max_shard_seconds: max,
                    mean_shard_seconds: mean,
                    imbalance: if mean > 0.0 { max / mean } else { 1.0 },
                    tape_record_seconds: tape.as_ref().map_or(0.0, |t| t.record_seconds()),
                    tape_groups: tape.as_ref().map_or(0, |t| t.num_groups()),
                };
                c.close(survivors, shard_seconds.clone());
                stopped |= on_step(RunStep::BatchDone {
                    telemetry: &telemetry,
                    replan_seconds,
                })
                .is_break();
            } else {
                run.good_tape = tape;
            }
            run.shard_seconds.extend(shard_seconds);
            run.report.patterns.extend(merged.patterns);
            // Batches cover ascending pattern ranges, so appending
            // keeps the canonical (pattern, phase, fault) order.
            run.report.detections.extend(merged.detections);
            first = end;
            if stopped || carry.is_none() || first >= total {
                break;
            }
        }
        run.report.num_faults = num_faults;
        run.report.total_seconds = t0.elapsed().as_secs_f64();
        run
    }

    /// A one-batch run's tape: the injected one if it matches `patterns`
    /// (flagged `true`), else a fresh recording when tape reuse is on
    /// and more than one shard can share it, else none.
    fn whole_run_tape(&self, patterns: &[Pattern]) -> (Option<Arc<GoodTape>>, bool) {
        let injected = self
            .injected_tape
            .as_ref()
            .filter(|t| t.matches(self.net.num_nodes(), patterns))
            .cloned();
        if injected.is_some() {
            return (injected, true);
        }
        let record = self.config.reuse_good_tape && self.plan.num_shards() > 1;
        let tape =
            record.then(|| Arc::new(GoodTape::record(self.net, patterns, self.config.sim.engine)));
        (tape, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardStrategy;
    use fmossim_core::{ConcurrentSim, Phase, RunReport};
    use fmossim_faults::{Fault, FaultId};
    use fmossim_netlist::{Drive, Logic, Size, TransistorType};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn two_inverters() -> (Network, Vec<NodeId>, Vec<Pattern>) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let mut outs = Vec::new();
        for (name, inp) in [("OA", a), ("OB", b)] {
            let out = net.add_storage(name, Size::S1);
            net.add_transistor(TransistorType::P, Drive::D2, inp, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
            outs.push(out);
        }
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L), (b, Logic::L)])]),
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::H), (b, Logic::H)])]),
        ];
        (net, outs, patterns)
    }

    fn detection_key(report: &RunReport) -> Vec<(usize, usize, usize)> {
        report
            .detections
            .iter()
            .map(|d| (d.pattern, d.phase, d.fault.index()))
            .collect()
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let single = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(1))
            .run(&patterns, &outs);
        for jobs in [2, 3, 4] {
            for strategy in ShardStrategy::ALL {
                let config = ParallelConfig {
                    strategy,
                    ..ParallelConfig::paper(jobs)
                };
                let multi = ParallelSim::new(&net, universe.clone(), config).run(&patterns, &outs);
                assert_eq!(detection_key(&multi), detection_key(&single), "{strategy}");
                assert_eq!(multi.num_faults, single.num_faults);
                assert_eq!(multi.coverage(), single.coverage());
            }
        }
    }

    #[test]
    fn oversharding_pulls_from_the_queue() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let config = ParallelConfig {
            shards: Some(4),
            ..ParallelConfig::paper(2)
        };
        let sim = ParallelSim::new(&net, universe, config);
        assert_eq!(sim.plan().num_shards(), 4);
        let report = sim.run(&patterns, &outs);
        assert_eq!(report.detected(), 4);
        assert_eq!(report.coverage(), 1.0);
    }

    #[test]
    fn empty_universe_runs_clean() {
        let (net, outs, patterns) = two_inverters();
        let sim = ParallelSim::new(&net, FaultUniverse::new(), ParallelConfig::paper(4));
        let report = sim.run(&patterns, &outs);
        assert_eq!(report.num_faults, 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn streaming_reports_every_shard_once() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let config = ParallelConfig {
            shards: Some(3),
            ..ParallelConfig::paper(2)
        };
        let sim = ParallelSim::new(&net, universe, config);
        let mut seen = Vec::new();
        let run = sim.run_streaming(&patterns, &outs, |o, rep| {
            assert_eq!(o.detected, rep.detected());
            assert_eq!(o.faults, sim.plan().shard(o.shard).len());
            seen.push(o.shard);
            std::ops::ControlFlow::Continue(())
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "each shard observed exactly once");
        assert_eq!(run.shard_seconds.len(), 3);
        assert_eq!(run.report.detected(), 4);
        let tape = run.tape.expect("multi-shard run records a tape");
        assert_eq!(tape.replayed_shards, 3);
        assert!(tape.groups > 0);
        assert!(tape.heap_bytes > 0);
    }

    #[test]
    fn streaming_break_stops_the_queue() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let n = universe.len();
        // One worker, one shard per fault: breaking after the first
        // completed shard must leave the rest unsimulated.
        let config = ParallelConfig {
            shards: Some(n),
            ..ParallelConfig::paper(1)
        };
        let sim = ParallelSim::new(&net, universe, config);
        let mut completed = 0;
        let run = sim.run_streaming(&patterns, &outs, |_, _| {
            completed += 1;
            std::ops::ControlFlow::Break(())
        });
        assert_eq!(completed, 1);
        assert_eq!(run.report.detected(), 1, "only the first shard's fault");
        assert_eq!(run.report.num_faults, n, "universe size unchanged");
        assert_eq!(run.shard_seconds.iter().filter(|&&t| t > 0.0).count(), 1);
        let tape = run.tape.expect("tape recorded before the early stop");
        assert_eq!(tape.replayed_shards, 1, "only one shard consumed it");
    }

    /// The tape is a pure execution detail: replay and recompute runs
    /// are bit-identical (detections, counters), and single-shard runs
    /// skip the tape entirely.
    #[test]
    fn replay_matches_recompute_and_single_shard_skips_tape() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let run_with = |reuse: bool, jobs: usize| {
            let config = ParallelConfig {
                reuse_good_tape: reuse,
                ..ParallelConfig::paper(jobs)
            };
            ParallelSim::new(&net, universe.clone(), config).run_streaming(
                &patterns,
                &outs,
                |_, _| ControlFlow::Continue(()),
            )
        };
        let recompute = run_with(false, 3);
        assert!(recompute.tape.is_none(), "recompute mode records no tape");
        let replay = run_with(true, 3);
        assert!(replay.tape.is_some());
        assert_eq!(replay.report.detections, recompute.report.detections);
        for (r, l) in replay
            .report
            .patterns
            .iter()
            .zip(&recompute.report.patterns)
        {
            assert_eq!(
                (r.detected, r.live_before, r.good_groups, r.faulty_groups),
                (l.detected, l.live_before, l.good_groups, l.faulty_groups)
            );
        }
        let single = run_with(true, 1);
        assert!(single.tape.is_none(), "one shard has nothing to amortise");
        assert_eq!(single.report.detections, recompute.report.detections);
    }

    /// An injected tape is replayed (even by a single-shard plan),
    /// reports a zero-cost record pass, and never changes results; a
    /// wrong-shape tape is ignored.
    #[test]
    fn injected_tape_replays_without_recording() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let baseline = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(2))
            .run(&patterns, &outs);
        let tape = Arc::new(GoodTape::record(
            &net,
            &patterns,
            ConcurrentConfig::paper().engine,
        ));
        let mut sim = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(1));
        sim.inject_good_tape(Arc::clone(&tape));
        let run = sim.run_streaming(&patterns, &outs, |_, _| ControlFlow::Continue(()));
        let stats = run.tape.expect("injected tape replays even at one shard");
        assert_eq!(stats.record_seconds, 0.0, "record pass was paid elsewhere");
        assert!(run.good_tape.is_some(), "tape re-exported for caching");
        assert_eq!(run.report.detections, baseline.detections);

        // A tape of the wrong shape (here: empty) is ignored; the
        // single-shard run falls back to recompute mode.
        let mut sim = ParallelSim::new(&net, universe, ParallelConfig::paper(1));
        sim.inject_good_tape(Arc::new(GoodTape::default()));
        let run = sim.run_streaming(&patterns, &outs, |_, _| ControlFlow::Continue(()));
        assert!(run.tape.is_none(), "mismatched tape not replayed");
        assert_eq!(run.report.detections, baseline.detections);
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("string panic")).to_string(),
        }
    }

    /// A panicking shard stops the queue and its own panic re-raises
    /// from `run_streaming` once the shards already running are done —
    /// not a generic "scoped thread panicked" — and a clean run
    /// afterwards is unaffected.
    #[test]
    fn shard_panic_reraises_on_the_calling_thread() {
        let (net, outs, patterns) = two_inverters();
        let bad = Fault::NodeStuck {
            node: NodeId::from_index(1 << 30),
            value: Logic::H,
        };
        let alone = catch_unwind(AssertUnwindSafe(|| {
            ConcurrentSim::new(&net, &[bad], ConcurrentConfig::paper()).run(&patterns, &outs)
        }));
        let expected = panic_message(alone.expect_err("an out-of-range node panics"));

        let mut faults = FaultUniverse::stuck_nodes(&net).faults().to_vec();
        faults.push(bad);
        let config = ParallelConfig {
            shards: Some(4),
            strategy: ShardStrategy::RoundRobin,
            ..ParallelConfig::paper(2)
        };
        let registry = Registry::new();
        let mut sim = ParallelSim::new(&net, FaultUniverse::from_faults(faults), config);
        sim.attach_metrics(&registry);
        assert_eq!((sim.workers(), sim.plan().num_shards()), (2, 4));
        let mut seen = 0u64;
        let run = catch_unwind(AssertUnwindSafe(|| {
            sim.run_streaming(&patterns, &outs, |_, _| {
                seen += 1;
                ControlFlow::Continue(())
            })
        }));
        let payload = run.expect_err("the shard panic propagates");
        assert_eq!(panic_message(payload), expected);
        assert!(seen < 4, "the panicking shard never completed");
        assert_eq!(
            registry.snapshot().counters.get("par.shards").copied(),
            Some(seen).filter(|&n| n > 0),
            "only shards handed to the callback merged their metrics"
        );

        let clean = ParallelSim::new(&net, FaultUniverse::stuck_nodes(&net), config);
        assert_eq!(clean.run(&patterns, &outs).detected(), 4);
    }

    #[test]
    fn auto_jobs_resolves_and_runs() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim = ParallelSim::new(&net, universe, ParallelConfig::auto());
        assert!(sim.workers() >= 1);
        let report = sim.run(&patterns, &outs);
        assert_eq!(report.detected(), 4);
    }

    #[test]
    fn detections_carry_global_ids() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let n = universe.len();
        let config = ParallelConfig {
            strategy: ShardStrategy::Contiguous,
            ..ParallelConfig::paper(2)
        };
        let report = ParallelSim::new(&net, universe, config).run(&patterns, &outs);
        let mut ids: Vec<usize> = report.detections.iter().map(|d| d.fault.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.detected(), "no duplicate fault ids");
        assert!(ids.iter().all(|&i| i < n), "ids are parent-universe ids");
        // Contiguous sharding would produce colliding *local* ids in
        // every shard; globals must cover the high shard too.
        assert!(ids.iter().any(|&i| i >= n / 2), "high shard represented");
        let _ = FaultId(0);
    }
}
