//! The shard executor: the one way shards of a fault universe run on a
//! pool. It has two callers: the offline driver
//! ([`ParallelSim::run_streaming`](crate::ParallelSim::run_streaming))
//! and the server's served backend (`fmossim-serve`, whose tasks are
//! `'static` on its shared pool).
//!
//! [`run_shards`] owns both halves of fault-parallel execution. The
//! *per-shard body* builds a [`ConcurrentSim`] over the shard's faults,
//! runs it over the whole sequence (replaying the good tape when the
//! work carries one), relabels detections to parent-universe fault ids,
//! and publishes `par.*` metrics into a per-shard [`Registry::fork`].
//! The *completion loop* runs on the calling thread: it merges each fork and
//! hands each [`ShardResult`] to a callback whose
//! [`ControlFlow::Break`] stops the queue — shards not yet picked up are
//! skipped, shards already running finish. A shard that panics stops
//! the queue the same way; once the running shards are done, the panic
//! is re-raised on the calling thread.
//!
//! Where the shard tasks run is a [`ShardPool`]: [`ScopedPool`] (scoped
//! threads over borrowed data, offline) or the server's shared pool
//! (owned `'static` tasks). The pool trait is parameterised by the
//! task lifetime, so each pool accepts exactly the borrows it can keep
//! alive.

use crate::plan::ShardPlan;
use fmossim_core::{ConcurrentConfig, ConcurrentSim, GoodTape, Pattern, RunReport};
use fmossim_faults::FaultUniverse;
use fmossim_netlist::{Network, NodeId};
use fmossim_telemetry::Registry;
use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// One unit of pool work: runs one shard (or skips it) and returns its
/// outcome to the completion loop.
pub type ShardTask<'t, R> = Box<dyn FnOnce() -> R + Send + 't>;

/// Where shard tasks run. `'t` is the lifetime every task may borrow
/// for: scoped pools accept borrowed tasks, a long-lived shared pool
/// only `'static` ones.
pub trait ShardPool<'t> {
    /// Runs every task once and hands each return value to `done` on
    /// the calling thread, in completion order. Returns once every task
    /// has run. Tasks must not panic (the executor's tasks catch their
    /// own panics).
    fn run<R: Send + 't>(&self, tasks: Vec<ShardTask<'t, R>>, done: &mut dyn FnMut(R));
}

/// Scoped `std::thread` workers pulling tasks off a shared queue — the
/// offline pool. With one worker or one task it runs the tasks in line
/// on the calling thread, each one's result handled before the next
/// starts (so a `Break` after shard 0 skips every later shard).
#[derive(Clone, Copy, Debug)]
pub struct ScopedPool {
    workers: usize,
}

impl ScopedPool {
    /// A pool of up to `workers` threads (at least one); no more threads
    /// are spawned than there are tasks.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ScopedPool {
            workers: workers.max(1),
        }
    }
}

impl<'t> ShardPool<'t> for ScopedPool {
    fn run<R: Send + 't>(&self, tasks: Vec<ShardTask<'t, R>>, done: &mut dyn FnMut(R)) {
        let workers = self.workers.min(tasks.len());
        if workers <= 1 {
            for task in tasks {
                done(task());
            }
            return;
        }
        let queue = Mutex::new(tasks.into_iter());
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (queue, tx) = (&queue, tx.clone());
                scope.spawn(move || loop {
                    let next = queue.lock().expect("shard queue poisoned").next();
                    let Some(task) = next else { break };
                    if tx.send(task()).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for result in rx {
                done(result);
            }
        });
    }
}

/// One run of shard work, borrowed from wherever the caller keeps it.
#[derive(Clone, Copy)]
pub struct ShardWork<'a> {
    /// The circuit under test.
    pub net: &'a Network,
    /// The universe `plan` indexes into (parent-universe fault ids).
    pub universe: &'a FaultUniverse,
    /// The shards to run.
    pub plan: &'a ShardPlan,
    /// The pattern sequence.
    pub patterns: &'a [Pattern],
    /// The observed outputs.
    pub outputs: &'a [NodeId],
    /// The recorded good machine, replayed by every shard; `None`
    /// re-settles the good circuit per shard.
    pub tape: Option<&'a GoodTape>,
    /// Every shard simulator's configuration.
    pub sim: ConcurrentConfig,
}

impl<'a> ShardWork<'a> {
    /// A run of `plan` without a tape; set one with struct-update
    /// syntax.
    #[must_use]
    pub fn new(
        net: &'a Network,
        universe: &'a FaultUniverse,
        plan: &'a ShardPlan,
        patterns: &'a [Pattern],
        outputs: &'a [NodeId],
        sim: ConcurrentConfig,
    ) -> Self {
        ShardWork {
            net,
            universe,
            plan,
            patterns,
            outputs,
            tape: None,
            sim,
        }
    }
}

/// A handle the shard tasks share: the work itself plus an external
/// cancel check. Offline callers pass a [`ShardWork`] directly; an
/// owning type (the server's per-job state) lends one out instead.
pub trait ShardJob: Send + Sync {
    /// The work to run.
    fn work(&self) -> ShardWork<'_>;

    /// Checked at pick-up beside the executor's own stop: `true` skips
    /// the shard. Defaults to never.
    fn cancelled(&self) -> bool {
        false
    }
}

impl ShardJob for ShardWork<'_> {
    fn work(&self) -> ShardWork<'_> {
        *self
    }
}

/// One finished shard.
#[derive(Debug)]
pub struct ShardResult {
    /// Shard index in the plan.
    pub shard: usize,
    /// Faults the shard graded.
    pub faults: usize,
    /// When a worker picked the shard up.
    pub started: Instant,
    /// The shard's report, detections relabelled to parent-universe ids.
    pub report: RunReport,
}

type Outcome = Result<Option<(ShardResult, Registry)>, Box<dyn Any + Send>>;

/// Runs every shard of `job` on `pool`, calling `on_shard` on this
/// thread as each one completes (see the module docs). Per-shard
/// metrics are merged into `telemetry` before `on_shard` sees the shard.
///
/// # Panics
///
/// Re-raises the first shard panic after the shards running at that
/// moment have finished.
pub fn run_shards<'t, J, P>(
    pool: &P,
    job: Arc<J>,
    telemetry: &Registry,
    mut on_shard: impl FnMut(ShardResult) -> ControlFlow<()>,
) where
    J: ShardJob + 't,
    P: ShardPool<'t>,
{
    let stop = Arc::new(AtomicBool::new(false));
    let tasks: Vec<ShardTask<'t, Outcome>> = (0..job.work().plan.num_shards())
        .map(|s| {
            let (job, stop, fork) = (Arc::clone(&job), Arc::clone(&stop), telemetry.fork());
            Box::new(move || -> Outcome {
                if stop.load(Ordering::Relaxed) || job.cancelled() {
                    return Ok(None);
                }
                match catch_unwind(AssertUnwindSafe(|| run_shard(&job.work(), s, &fork))) {
                    Ok(result) => Ok(Some((result, fork))),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        Err(payload)
                    }
                }
            }) as ShardTask<'t, Outcome>
        })
        .collect();
    let mut panic = None;
    pool.run(tasks, &mut |outcome| match outcome {
        Ok(Some((result, fork))) if panic.is_none() => {
            telemetry.merge(&fork);
            if on_shard(result).is_break() {
                stop.store(true, Ordering::Relaxed);
            }
        }
        Ok(_) => {}
        Err(payload) => {
            panic.get_or_insert(payload);
        }
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// The per-shard body (see the module docs).
fn run_shard(w: &ShardWork<'_>, s: usize, metrics: &Registry) -> ShardResult {
    let started = Instant::now();
    let ids = w.plan.shard(s);
    let universe = w.universe.subset(ids);
    let mut sim = ConcurrentSim::new(w.net, universe.faults(), w.sim);
    sim.attach_metrics(metrics);
    let mut report = match w.tape {
        Some(tape) => sim.run_replayed(w.patterns, w.outputs, tape),
        None => sim.run(w.patterns, w.outputs),
    };
    report.relabel_faults(|local| ids[local.index()]);
    metrics.counter("par.shards").inc();
    metrics.gauge("par.shard.seconds").add(report.total_seconds);
    ShardResult {
        shard: s,
        faults: ids.len(),
        started,
        report,
    }
}
