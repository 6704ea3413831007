//! [`ServedBackend`] — the campaign backend the server runs jobs on.
//!
//! [`fmossim_par::ParallelSim`] runs its shards on *scoped* threads
//! borrowing the caller's network, so every campaign would bring its
//! own pool — and four concurrent submissions on a four-core box would
//! fight over sixteen threads. The served backend instead runs the same
//! shard executor ([`fmossim_par::run_shards`]) on the server's one
//! [`SharedPool`]: the shard tasks own their inputs (an
//! [`Arc<JobSpec>`] plus the job's plan and tape), and the pool's
//! round-robin queues interleave all in-flight campaigns over a fixed
//! worker count.
//!
//! Results match the parallel backend, but the tape is kept whole: the
//! tape cache needs every phase, so the good machine is recorded once
//! on the coordinator thread (or the job's [`TapeSlot`] hands in a
//! cached tape and the record pass is skipped — then
//! `tape_record_seconds == 0`), and every shard follows the whole tape
//! ([`ShardTape::Whole`]) over its fault subset instead of a leader
//! shard's stream. The merged detection set is bit-identical to an
//! offline single-machine run of the same workload. Coverage targets stop the run at shard granularity
//! ([`StopRule`]); a cancel also skips the job's still-queued shards at
//! pick-up. A shard that panics fails the campaign: the executor
//! re-raises the panic on the coordinator once the job's running
//! shards are done.
//!
//! The server fixes the simulation configuration for every job —
//! [`ConcurrentConfig::paper`] with
//! [`DetectionPolicy::DefiniteOnly`] — so reports are comparable
//! across jobs and the tape cache key (which does not include the
//! configuration) stays sound.

use crate::pool::SharedPool;
use crate::proto::JobSpec;
use fmossim_campaign::{BackendRun, CampaignBackend, RunControl, SimEvent, StopRule, Workload};
use fmossim_core::{ConcurrentConfig, DetectionPolicy, GoodTape, RunReport};
use fmossim_faults::FaultUniverse;
use fmossim_par::{run_shards, ShardJob, ShardPlan, ShardTape, ShardWork};
use fmossim_telemetry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A served job's good tape, shared between the coordinator and its
/// [`ServedBackend`]: it holds the cached tape (if any) when the run
/// starts, and, when it ends, the tape the run recorded (if it
/// recorded one) — the one the coordinator puts into the
/// [`TapeCache`](crate::TapeCache). A run that replayed the cached
/// tape leaves the slot empty.
pub type TapeSlot = Arc<Mutex<Option<Arc<GoodTape>>>>;

/// The one simulation configuration every served campaign runs under.
///
/// [`DetectionPolicy::DefiniteOnly`] keeps detection sets identical
/// across execution strategies (potential detections are the one
/// place serial and concurrent execution can disagree), which is what
/// makes server results comparable to offline runs — and to each
/// other across shard-count choices.
#[must_use]
pub fn served_config() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    }
}

/// The pool-backed campaign backend (see the module docs).
pub struct ServedBackend {
    spec: Arc<JobSpec>,
    pool: Arc<SharedPool>,
    job: u64,
    /// The job's own token (set by `DELETE /campaigns/{id}`).
    job_cancel: Arc<AtomicBool>,
    /// The hosting campaign's token
    /// ([`Campaign::cancel_token`](fmossim_campaign::Campaign::cancel_token)),
    /// handed over in [`CampaignBackend::attach_cancel`]. Either token
    /// cancels.
    campaign_cancel: Arc<AtomicBool>,
    tape: TapeSlot,
    telemetry: Registry,
}

impl ServedBackend {
    /// A backend running `spec` as pool job `job`, cancellable via
    /// `cancel` (the job-table token) in addition to the campaign's
    /// own token. The run replays the tape in `tape` when its shape
    /// matches the job, records one otherwise, and leaves the tape it
    /// replayed in `tape`.
    #[must_use]
    pub fn new(
        spec: Arc<JobSpec>,
        pool: Arc<SharedPool>,
        job: u64,
        cancel: Arc<AtomicBool>,
        tape: TapeSlot,
    ) -> ServedBackend {
        ServedBackend {
            spec,
            pool,
            job,
            job_cancel: cancel,
            campaign_cancel: Arc::new(AtomicBool::new(false)),
            tape,
            telemetry: Registry::null(),
        }
    }
}

/// What one served campaign's shard tasks share: owned inputs (so the
/// tasks are `'static`) and both cancel tokens, checked at pick-up.
struct ServedShards {
    spec: Arc<JobSpec>,
    universe: FaultUniverse,
    plan: ShardPlan,
    tape: Arc<GoodTape>,
    config: ConcurrentConfig,
    cancel: [Arc<AtomicBool>; 2],
}

impl ShardJob for ServedShards {
    fn work(&self) -> ShardWork<'_> {
        ShardWork {
            tape: Some(ShardTape::Whole(&self.tape)),
            ..ShardWork::new(
                &self.spec.net,
                &self.universe,
                &self.plan,
                &self.spec.patterns,
                &self.spec.outputs,
                self.config,
            )
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.iter().any(|t| t.load(Ordering::Relaxed))
    }
}

impl CampaignBackend for ServedBackend {
    fn name(&self) -> String {
        "served".into()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    fn attach_cancel(&mut self, token: &Arc<AtomicBool>) {
        self.campaign_cancel = Arc::clone(token);
    }

    fn run(
        &mut self,
        w: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        // The workload the campaign hands us borrows from the same
        // `JobSpec` the coordinator built the campaign from — except
        // the universe, which the campaign may have collapsed to class
        // representatives. The shard tasks need owned (`'static`)
        // inputs, so they share the spec's Arc and one owned copy of
        // the workload universe. Pattern limits are applied by the
        // campaign driver before the backend runs.
        let spec = &self.spec;
        let config = ConcurrentConfig {
            drop_on_detect: control.drop_detected,
            ..served_config()
        };

        // Tape: replay the cached tape when its shape matches,
        // otherwise pay the record pass once here on the coordinator
        // thread. `tape_record_seconds == 0` is the cache-hit signature
        // in the report.
        let cached = self
            .tape
            .lock()
            .expect("tape slot poisoned")
            .take()
            .filter(|t| t.matches(spec.net.num_nodes(), &spec.patterns));
        let (tape, record_seconds) = match cached {
            Some(tape) => (tape, 0.0),
            None => {
                let t0 = Instant::now();
                let tape = Arc::new(GoodTape::record(&spec.net, &spec.patterns, config.engine));
                *self.tape.lock().expect("tape slot poisoned") = Some(Arc::clone(&tape));
                (tape, t0.elapsed().as_secs_f64())
            }
        };

        let shards = ServedShards {
            spec: Arc::clone(spec),
            universe: w.universe.clone(),
            plan: ShardPlan::build(w.universe, spec.shards.max(1)),
            tape: Arc::clone(&tape),
            config,
            cancel: [
                Arc::clone(&self.job_cancel),
                Arc::clone(&self.campaign_cancel),
            ],
        };
        let n_shards = shards.plan.num_shards();

        let run_t0 = Instant::now();
        let mut stop = StopRule::new(w, control, &[&self.job_cancel, &self.campaign_cancel]);
        let mut reports = Vec::with_capacity(n_shards);
        let mut max_shard_seconds = 0.0f64;
        run_shards(
            &self.pool.job(self.job),
            Arc::new(shards),
            &self.telemetry,
            |r| {
                stop.detected(&r.report.detections, emit);
                emit(SimEvent::ShardDone {
                    shard: r.shard,
                    faults: r.faults,
                    detected: r.report.detected(),
                    seconds: r.report.total_seconds,
                });
                max_shard_seconds = max_shard_seconds.max(r.report.total_seconds);
                reports.push(r.report);
                stop.check()
            },
        );
        // A cancel that only skipped queued shards still marks the run.
        stop.cancel_requested();

        let mut run = RunReport::merge(reports);
        run.num_faults = w.universe.len();
        run.total_seconds = run_t0.elapsed().as_secs_f64();
        BackendRun {
            jobs: Some(self.pool.workers()),
            shards: Some(n_shards),
            max_shard_seconds: Some(max_shard_seconds),
            tape_record_seconds: Some(record_seconds),
            tape_groups: Some(tape.num_groups()),
            // The whole tape is held, and no shard waits for it.
            tape_peak_bytes: Some(tape.heap_bytes()),
            tape_wait_seconds: Some(0.0),
            ..stop.finish(run)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_campaign::{Backend, Campaign, ParallelConfig, StopReason};
    use fmossim_circuits::Ram;
    use fmossim_core::stimulus_content_hash;
    use fmossim_faults::FaultUniverse;
    use fmossim_testgen::TestSequence;

    fn spec(shards: usize) -> JobSpec {
        let ram = Ram::new(4, 4);
        let seq = TestSequence::full(&ram);
        JobSpec {
            name: "ram4x4".into(),
            net: ram.network().clone(),
            universe: FaultUniverse::stuck_nodes(ram.network()),
            patterns: seq.patterns().to_vec(),
            outputs: ram.observed_outputs().to_vec(),
            shards,
            stop_at_coverage: None,
        }
    }

    fn run_served(
        spec: &Arc<JobSpec>,
        pool: &Arc<SharedPool>,
        slot: &TapeSlot,
    ) -> fmossim_campaign::CampaignReport {
        let cancel = Arc::new(AtomicBool::new(false));
        let backend = ServedBackend::new(
            Arc::clone(spec),
            Arc::clone(pool),
            spec.cache_key().0,
            cancel,
            Arc::clone(slot),
        );
        Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .run()
    }

    /// A slot holding `tape` on entry.
    fn slot_with(tape: Arc<GoodTape>) -> TapeSlot {
        Arc::new(Mutex::new(Some(tape)))
    }

    #[test]
    fn matches_the_offline_parallel_backend_bit_for_bit() {
        let spec = Arc::new(spec(5));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let slot: TapeSlot = TapeSlot::default();
        let served = run_served(&spec, &pool, &slot);
        assert_eq!(served.backend, "served");
        assert_eq!(served.shards, Some(5));
        assert_eq!(served.jobs, Some(2));
        assert!(served.tape_record_seconds.unwrap() > 0.0, "cold: recorded");
        assert_eq!(served.stop, StopReason::Completed);

        // Offline reference under the same (DefiniteOnly) policy.
        let mut config = ParallelConfig::paper(2);
        config.sim = served_config();
        let offline = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend(Backend::Parallel(config))
            .run();
        assert!(offline.detected() > 0);
        assert_eq!(served.run.detections, offline.run.detections);

        // The exported tape is the job's real tape, cacheable by key.
        let tape = slot.lock().unwrap().clone().expect("tape deposited");
        assert_eq!(tape.num_patterns(), spec.patterns.len());
        let _ = stimulus_content_hash(&spec.patterns);

        // Warm run: inject the tape back — no record pass, same set,
        // and nothing left in the slot for the cache to re-insert.
        let warm_slot = slot_with(tape);
        let warm = run_served(&spec, &pool, &warm_slot);
        assert_eq!(warm.tape_record_seconds, Some(0.0), "cache-hit signature");
        assert_eq!(warm.run.detections, offline.run.detections);
        assert!(
            warm_slot.lock().unwrap().is_none(),
            "a hit deposits nothing"
        );
    }

    #[test]
    fn collapsed_jobs_match_uncollapsed_ones() {
        let spec = Arc::new(spec(4));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let collapsed = run_served(&spec, &pool, &TapeSlot::default());
        let cancel = Arc::new(AtomicBool::new(false));
        let backend = ServedBackend::new(
            Arc::clone(&spec),
            Arc::clone(&pool),
            9,
            cancel,
            TapeSlot::default(),
        );
        let plain = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .collapse(false)
            .run();
        assert_eq!(collapsed.run.detections, plain.run.detections);
        assert_eq!(collapsed.run.num_faults, spec.universe.len());
        assert_eq!(plain.collapse, None);
        let stats = collapsed.collapse.expect("collapsing is the default");
        assert_eq!(stats.total_faults, spec.universe.len());
        assert!(stats.simulated_faults <= stats.total_faults);
    }

    /// Coverage targets stop served runs early — including collapsed
    /// ones, where the target is evaluated over the parent universe —
    /// and a coverage stop is not a cancellation, even though it skips
    /// still-queued shards through the same pool mechanism.
    #[test]
    fn coverage_target_stops_served_runs_without_cancelling() {
        let spec = Arc::new(spec(8));
        // One worker: shards complete strictly one at a time, so a low
        // target reliably leaves later shards queued when it trips.
        let pool = Arc::new(SharedPool::new(1, &Registry::null()));
        for collapse in [false, true] {
            let cancel = Arc::new(AtomicBool::new(false));
            let backend = ServedBackend::new(
                Arc::clone(&spec),
                Arc::clone(&pool),
                21,
                cancel,
                TapeSlot::default(),
            );
            let report = Campaign::new(&spec.net)
                .faults(spec.universe.clone())
                .patterns(&spec.patterns)
                .outputs(&spec.outputs)
                .backend_impl(Box::new(backend))
                .collapse(collapse)
                .stop_at_coverage(0.25)
                .run();
            assert_eq!(
                report.stop,
                StopReason::CoverageReached,
                "collapse={collapse}"
            );
            assert!(!report.cancelled, "collapse={collapse}: stop is not cancel");
            assert!(
                report.coverage() >= 0.25,
                "collapse={collapse}: parent-universe coverage {} missed the target",
                report.coverage()
            );
        }
    }

    #[test]
    fn wrong_shape_injected_tape_is_ignored() {
        let spec = Arc::new(spec(3));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let cold = run_served(&spec, &pool, &TapeSlot::default());
        let stale = Arc::new(GoodTape::default());
        let guarded = run_served(&spec, &pool, &slot_with(stale));
        assert!(
            guarded.tape_record_seconds.unwrap() > 0.0,
            "fell back to recording"
        );
        assert_eq!(guarded.run.detections, cold.run.detections);
    }

    #[test]
    fn job_token_cancels_through_the_pool_queue() {
        let spec = Arc::new(spec(8));
        // One worker: shards run strictly one at a time.
        let pool = Arc::new(SharedPool::new(1, &Registry::null()));
        let cancel = Arc::new(AtomicBool::new(false));
        let backend = ServedBackend::new(
            Arc::clone(&spec),
            Arc::clone(&pool),
            1,
            Arc::clone(&cancel),
            TapeSlot::default(),
        );
        let report = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .on_event(move |e| {
                if matches!(e, SimEvent::ShardDone { .. }) {
                    // First completed shard: cancel via the *job*
                    // token, as DELETE /campaigns/{id} would.
                    cancel.store(true, Ordering::Relaxed);
                }
            })
            .run();
        assert!(report.cancelled);
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(
            report.detected() < spec.universe.len(),
            "later shards were skipped"
        );
    }
}
