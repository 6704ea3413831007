//! The fault-parallel driver: one one-shot run for every offline
//! sharded grade. It plans the shards, streams the good tape from shard
//! 0 to the others when more than one shard shares it, runs every
//! shard's
//! [`ConcurrentSim`](fmossim_core::ConcurrentSim) through the shard
//! executor ([`run_shards`](crate::run_shards)) on a
//! [`ScopedPool`](crate::ScopedPool), and merges the shard reports.

use crate::exec::{run_shards, ScopedPool, ShardResult, ShardTape, ShardWork};
use crate::jobs::Jobs;
use crate::plan::ShardPlan;
use fmossim_core::{ConcurrentConfig, Pattern, RunReport, TapeStream};
use fmossim_faults::FaultUniverse;
use fmossim_netlist::{Network, NodeId};
use fmossim_telemetry::Registry;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the parallel driver.
///
/// ```
/// use fmossim_par::{Jobs, ParallelConfig};
///
/// // Two workers pulling eight shards from the queue.
/// let config = ParallelConfig {
///     shards: Some(8),
///     ..ParallelConfig::paper(2)
/// };
/// assert_eq!(config.jobs, Jobs::Fixed(2));
/// assert_eq!(ParallelConfig::auto().shards, None, "one shard per worker");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads: a fixed count, or [`Jobs::Auto`] to size the
    /// pool from the universe's estimated fault cost. Workers beyond
    /// the number of (non-empty) shards are not spawned.
    pub jobs: Jobs,
    /// Number of shards; `None` means one per worker. Oversharding
    /// (`shards > jobs`) turns the pool into a load balancer: workers
    /// pull the next shard when they finish, smoothing out uneven
    /// shard costs.
    pub shards: Option<usize>,
    /// Configuration forwarded to every shard's [`ConcurrentSim`](fmossim_core::ConcurrentSim)
    /// (detection policy, per-shard drop-on-detect, packing).
    pub sim: ConcurrentConfig,
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

/// Measurements of the good-machine tape a parallel run streamed from
/// its leader shard to the followers (absent for a run of a single
/// shard, which settles the good circuit itself).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TapeStats {
    /// Wall-clock seconds of a serial record pass before the shards
    /// start: always 0, since the leader settles the good circuit
    /// inside its own shard. Only `perfbench`'s `par.serial_frac`
    /// still reads it (ROADMAP item 8 deletes it).
    pub record_seconds: f64,
    /// Good-machine vicinities the leader published (work each
    /// follower skipped).
    pub groups: usize,
    /// Followers that replayed the whole stream.
    pub replayed_shards: usize,
    /// The most tape bytes the stream held at once.
    pub heap_bytes: usize,
    /// Seconds followers spent blocked waiting for the leader, summed.
    pub wait_seconds: f64,
}

/// Everything a parallel run produces: the merged report, per-shard
/// timing, and the tape measurements when record/replay was used.
#[derive(Clone, Debug, Default)]
pub struct ParallelRun {
    /// The merged, canonically-ordered report (see
    /// [`fmossim_core::RunReport::merge`]).
    pub report: RunReport,
    /// Each shard's own wall-clock seconds, indexed by shard (`0.0`
    /// for shards skipped after an early stop).
    pub shard_seconds: Vec<f64>,
    /// Good-tape measurements, when shard 0 streamed the good machine
    /// to the other shards.
    pub tape: Option<TapeStats>,
}

/// Fault-parallel concurrent simulation: the fault universe is split
/// into shards ([`ShardPlan`]), each shard is graded by its own
/// [`ConcurrentSim`](fmossim_core::ConcurrentSim) (faulty circuits dropped on detection as usual),
/// and the per-shard [`RunReport`]s are folded into one
/// ([`RunReport::merge`]) whose detections and coverage are identical
/// to a one-shard run — sharding changes wall-clock time, never
/// results. Whenever more than one shard runs, shard 0 settles the
/// good machine live and streams each phase ([`TapeStream`]) to the
/// other shards, which replay it, so only one
/// shard-count-independent good pass is paid.
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
}

impl<'n> ParallelSim<'n> {
    /// Plans shards for `universe` and prepares the driver. The
    /// universe is owned: shard workers index into it concurrently.
    /// [`Jobs::Auto`] is resolved here, against this universe.
    #[must_use]
    pub fn new(net: &'n Network, universe: FaultUniverse, config: ParallelConfig) -> Self {
        let workers = config.jobs.resolve(net, &universe);
        let k = config.shards.unwrap_or(workers).max(1);
        let plan = ShardPlan::build(&universe, k);
        ParallelSim {
            net,
            universe,
            plan,
            config,
            workers,
            telemetry: Registry::null(),
        }
    }

    /// Publishes this driver's activity into `registry`: `par.*`
    /// metrics (shard seconds, queue wait, merge time), the tape
    /// stream's `core.tape.*` measurements, and — via a per-shard
    /// [`Registry::fork`] merged at completion — every shard
    /// simulator's `core.*` / `switch.*` metrics.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    /// The shard plan.
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
        self.run_streaming(patterns, outputs, |_, _| ControlFlow::Continue(()))
            .report
    }

    /// Runs every shard over the whole sequence, invoking `on_shard`
    /// from the calling thread as each shard completes, with its
    /// [`ShardOutcome`] and its (globally relabelled) [`RunReport`] —
    /// the streaming seam for progress and early stopping.
    ///
    /// A [`ControlFlow::Break`] stops the run: shards already running
    /// finish and are included, shards never started are skipped — the
    /// merged report then covers only what ran, while `num_faults`
    /// still counts the whole universe (skipped faults are simply
    /// unsimulated, like undetected faults).
    ///
    /// With more than one worker, completion order — and therefore the
    /// order of the `on_shard` calls — is scheduling-dependent; the
    /// merged report is canonically ordered regardless.
    ///
    /// When the plan has more than one shard, shard 0 leads: it is
    /// started first, settles the good machine live and publishes each
    /// phase into a [`TapeStream`] before running its own faults on it.
    /// Every other shard follows, replaying the published phases and
    /// waiting when it catches up with the leader; a phase is freed
    /// once every follower has read it. A single shard settles the good
    /// circuit itself with no stream.
    ///
    /// # Panics
    ///
    /// A shard that panics stops the queue like a `Break`; its panic is
    /// re-raised here once the shards already running have finished.
    /// Followers of a leader that panicked stop when they reach the
    /// last phase it published and count as skipped.
    pub fn run_streaming(
        &self,
        patterns: &[Pattern],
        outputs: &[NodeId],
        mut on_shard: impl FnMut(&ShardOutcome, &RunReport) -> ControlFlow<()>,
    ) -> ParallelRun {
        let t0 = Instant::now();
        let shards = self.plan.num_shards();
        let stream = (shards > 1).then(|| TapeStream::new(shards - 1));
        let work = ShardWork {
            tape: stream.as_ref().map(ShardTape::Stream),
            ..ShardWork::new(
                self.net,
                &self.universe,
                &self.plan,
                patterns,
                outputs,
                self.config.sim,
            )
        };
        let mut results: Vec<ShardResult> = Vec::with_capacity(shards);
        let pool_t0 = Instant::now();
        run_shards(
            &ScopedPool::new(self.workers),
            Arc::new(work),
            &self.telemetry,
            |r| {
                self.telemetry
                    .gauge("par.queue.wait_seconds")
                    .add((r.started - pool_t0).as_secs_f64());
                let outcome = ShardOutcome {
                    shard: r.shard,
                    faults: r.faults,
                    detected: r.report.detected(),
                    seconds: r.report.total_seconds,
                };
                let flow = on_shard(&outcome, &r.report);
                results.push(r);
                flow
            },
        );

        // Merge in shard order for reproducible statistics;
        // detection order is canonicalised by `merge` regardless.
        let merge_t0 = Instant::now();
        results.sort_unstable_by_key(|r| r.shard);
        let mut shard_seconds = vec![0.0; shards];
        for r in &results {
            shard_seconds[r.shard] = r.report.total_seconds;
        }
        let tape = stream.map(|stream| {
            let s = stream.stats();
            let tape = TapeStats {
                record_seconds: 0.0,
                groups: s.groups,
                replayed_shards: results.iter().filter(|r| r.shard != 0).count(),
                heap_bytes: s.peak_bytes,
                wait_seconds: s.wait_seconds,
            };
            let gauges = [
                ("core.tape.record_seconds", tape.record_seconds),
                ("core.tape.wait_seconds", tape.wait_seconds),
                ("core.tape.peak_bytes", tape.heap_bytes as f64),
            ];
            for (name, value) in gauges {
                self.telemetry.gauge(name).add(value);
            }
            self.telemetry
                .counter("core.tape.groups")
                .add(tape.groups as u64);
            tape
        });
        let mut report = RunReport::merge(results.into_iter().map(|r| r.report));
        self.telemetry
            .gauge("par.merge.seconds")
            .add(merge_t0.elapsed().as_secs_f64());
        report.num_faults = self.universe.len();
        report.total_seconds = t0.elapsed().as_secs_f64();
        ParallelRun {
            report,
            shard_seconds,
            tape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let multi = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(jobs))
                .run(&patterns, &outs);
            assert_eq!(detection_key(&multi), detection_key(&single), "jobs={jobs}");
            assert_eq!(multi.num_faults, single.num_faults);
            assert_eq!(multi.coverage(), single.coverage());
        }
    }

    /// Oversharding pulls shards from the queue; on a led run the
    /// followers that start after the leader has moved on read the
    /// phases the stream retained for them.
    #[test]
    fn oversharding_pulls_from_the_queue() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let single = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(1))
            .run(&patterns, &outs);
        let config = ParallelConfig {
            shards: Some(4),
            ..ParallelConfig::paper(2)
        };
        let sim = ParallelSim::new(&net, universe, config);
        assert_eq!(sim.plan().num_shards(), 4);
        let run = sim.run_streaming(&patterns, &outs, |_, _| ControlFlow::Continue(()));
        assert_eq!(run.report.detected(), 4);
        assert_eq!(run.report.coverage(), 1.0);
        assert_eq!(detection_key(&run.report), detection_key(&single));
        let tape = run.tape.expect("a led run");
        assert_eq!(tape.replayed_shards, 3);
        let whole =
            fmossim_core::GoodTape::record(&net, &patterns, ConcurrentConfig::paper().engine);
        assert_eq!(tape.groups, whole.num_groups());
        assert!(0 < tape.heap_bytes && tape.heap_bytes <= whole.heap_bytes());
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
        let tape = run.tape.expect("multi-shard run streams a tape");
        assert_eq!(tape.replayed_shards, 2, "every follower replayed it");
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
        let tape = run.tape.expect("the leader streamed the tape");
        assert_eq!(tape.replayed_shards, 0, "the run stopped after the leader");
        let single = ParallelSim::new(&net, sim.universe().clone(), ParallelConfig::paper(1))
            .run(&patterns, &outs);
        let first: Vec<_> = detection_key(&single)
            .into_iter()
            .filter(|&(_, _, f)| sim.plan().shard(0).iter().any(|id| id.index() == f))
            .collect();
        assert_eq!(detection_key(&run.report), first, "the leader's faults");
    }

    /// One worker runs the shards in line: the leader runs to the end
    /// first, the stream keeps every phase until the followers read it,
    /// and no follower ever waits.
    #[test]
    fn in_line_leader_runs_first_and_the_stream_keeps_every_phase() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let single = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(1))
            .run(&patterns, &outs);
        let config = ParallelConfig {
            shards: Some(3),
            ..ParallelConfig::paper(1)
        };
        let mut order = Vec::new();
        let run =
            ParallelSim::new(&net, universe, config).run_streaming(&patterns, &outs, |o, _| {
                order.push(o.shard);
                ControlFlow::Continue(())
            });
        assert_eq!(order, vec![0, 1, 2], "the leader completes first");
        assert_eq!(detection_key(&run.report), detection_key(&single));
        let tape = run.tape.expect("a led run");
        let whole =
            fmossim_core::GoodTape::record(&net, &patterns, ConcurrentConfig::paper().engine);
        assert_eq!(tape.replayed_shards, 2);
        assert_eq!(tape.heap_bytes, whole.heap_bytes(), "every phase held");
        assert_eq!(tape.wait_seconds, 0.0, "the followers never waited");
    }

    /// The tape is a pure execution detail: a replayed run is
    /// bit-identical (detections, counters) to the same plan run
    /// through the executor without a tape, and single-shard runs skip
    /// the tape entirely.
    #[test]
    fn replay_matches_recompute_and_single_shard_skips_tape() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim_with =
            |jobs: usize| ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(jobs));
        let run = |sim: &ParallelSim<'_>| {
            sim.run_streaming(&patterns, &outs, |_, _| ControlFlow::Continue(()))
        };
        let sim = sim_with(3);
        let replay = run(&sim);
        assert!(replay.tape.is_some());
        let work = ShardWork::new(
            &net,
            &universe,
            sim.plan(),
            &patterns,
            &outs,
            ConcurrentConfig::paper(),
        );
        assert!(
            work.tape.is_none(),
            "recompute: every shard settles the good circuit"
        );
        let mut results = Vec::new();
        run_shards(
            &ScopedPool::new(3),
            Arc::new(work),
            &Registry::null(),
            |r| {
                results.push(r);
                ControlFlow::Continue(())
            },
        );
        results.sort_unstable_by_key(|r| r.shard);
        let recompute = RunReport::merge(results.into_iter().map(|r| r.report));
        assert_eq!(replay.report.detections, recompute.detections);
        for (r, l) in replay.report.patterns.iter().zip(&recompute.patterns) {
            assert_eq!(
                (r.detected, r.live_before, r.good_groups, r.faulty_groups),
                (l.detected, l.live_before, l.good_groups, l.faulty_groups)
            );
        }
        let single = run(&sim_with(1));
        assert!(single.tape.is_none(), "one shard has nothing to amortise");
        assert_eq!(single.report.detections, recompute.detections);
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

    /// A panic in the leader (shard 0) ends its stream: the leader's
    /// own panic re-raises, the followers waiting on it return as
    /// skipped instead of hanging or panicking a second time, and a
    /// clean run afterwards matches a single shard.
    #[test]
    fn leader_panic_reraises_and_its_followers_skip() {
        let (net, outs, patterns) = two_inverters();
        let bad = Fault::NodeStuck {
            node: NodeId::from_index(1 << 30),
            value: Logic::H,
        };
        let alone = catch_unwind(AssertUnwindSafe(|| {
            ConcurrentSim::new(&net, &[bad], ConcurrentConfig::paper()).run(&patterns, &outs)
        }));
        let expected = panic_message(alone.expect_err("an out-of-range node panics"));

        let mut faults = vec![bad];
        faults.extend_from_slice(FaultUniverse::stuck_nodes(&net).faults());
        let config = ParallelConfig {
            shards: Some(4),
            ..ParallelConfig::paper(2)
        };
        let registry = Registry::new();
        let mut sim = ParallelSim::new(&net, FaultUniverse::from_faults(faults), config);
        sim.attach_metrics(&registry);
        assert!(sim.plan().shard(0).contains(&FaultId(0)), "the leader's");
        let mut seen = 0u64;
        let run = catch_unwind(AssertUnwindSafe(|| {
            sim.run_streaming(&patterns, &outs, |_, _| {
                seen += 1;
                ControlFlow::Continue(())
            })
        }));
        let payload = run.expect_err("the leader's panic propagates");
        assert_eq!(panic_message(payload), expected);
        assert_eq!(seen, 0, "no follower completed without its leader");
        assert_eq!(registry.snapshot().counters.get("par.shards"), None);

        let universe = FaultUniverse::stuck_nodes(&net);
        let single = ParallelSim::new(&net, universe.clone(), ParallelConfig::paper(1))
            .run(&patterns, &outs);
        let clean = ParallelSim::new(&net, universe, config).run(&patterns, &outs);
        assert_eq!(detection_key(&clean), detection_key(&single));
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
        let sim = ParallelSim::new(&net, universe, ParallelConfig::paper(2));
        // Shard 1's local ids start at 0 like shard 0's; its global ids
        // do not, so an unrelabelled detection would collide.
        assert!(sim.plan().shard(1).iter().all(|id| id.index() > 0));
        let report = sim.run(&patterns, &outs);
        let mut ids: Vec<usize> = report.detections.iter().map(|d| d.fault.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.detected(), "no duplicate fault ids");
        assert_eq!(ids, (0..n).collect::<Vec<_>>(), "every parent-universe id");
    }
}
