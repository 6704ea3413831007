//! Batched-parallel equivalence: a campaign that runs the pattern
//! sequence in batches (`ParallelConfig::batch > 0`) — dropping
//! detected faults, migrating surviving fault state across
//! re-partitioned shards, and re-planning from measured shard times
//! between batches — must be **bit-identical** to the one-shot parallel
//! run: same canonical detection sequence, same fault count, same
//! coverage, for every batch size and worker count, with re-planning on
//! or frozen.
//!
//! This is the load-bearing invariant of batched runs
//! (`docs/ARCHITECTURE.md` § replay bit-identity): re-planning moves
//! time around, never results.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, Jobs, ParallelConfig, SimEvent,
};
use fmossim::circuits::Ram;
use fmossim::concurrent::Pattern;
use fmossim::faults::FaultUniverse;
use fmossim::netlist::{Network, NodeId};
use fmossim::par::ShardStrategy;
use fmossim::testgen::TestSequence;

const SEED: u64 = 850_715;

/// Detection set in canonical order plus the strategy-independent
/// totals. (Per-pattern solver counters are *not* compared: a
/// batched run re-records the good machine per batch, so
/// `good_groups` legitimately differs with the shard count per batch.)
fn fingerprint(r: &CampaignReport) -> (Vec<String>, usize, usize) {
    let detections = r
        .detections()
        .iter()
        .map(fmossim::concurrent::Detection::canonical_key)
        .collect();
    (detections, r.run.num_faults, r.detected())
}

/// Faults the backend actually graded: the collapse-class
/// representatives, or the whole universe on the plain path.
fn graded_faults(r: &CampaignReport) -> usize {
    r.collapse.map_or(r.run.num_faults, |c| c.simulated_faults)
}

fn parallel_reference(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
    jobs: usize,
) -> CampaignReport {
    Campaign::new(net)
        .faults(universe.clone())
        .patterns(patterns)
        .outputs(outputs)
        .backend(Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(jobs),
            sim: ConcurrentConfig::paper(),
            ..ParallelConfig::default()
        }))
        .run()
}

fn run_batched(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
    jobs: usize,
    batch: usize,
    rebalance: bool,
) -> CampaignReport {
    Campaign::new(net)
        .faults(universe.clone())
        .patterns(patterns)
        .outputs(outputs)
        .backend(Backend::Parallel(batched(
            batch,
            ParallelConfig {
                jobs: Jobs::Fixed(jobs),
                rebalance,
                ..ParallelConfig::auto()
            },
        )))
        .run()
}

/// `config` in `batch`-pattern batches, its first batch planned by
/// estimated cost.
fn batched(batch: usize, config: ParallelConfig) -> ParallelConfig {
    ParallelConfig {
        batch,
        strategy: ShardStrategy::CostEstimated,
        ..config
    }
}

/// The issue's matrix: batch sizes {1, 4, all} × worker counts, with
/// re-planning both on and frozen, against the one-shot parallel
/// reference.
fn assert_batched_equivalence(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) {
    for jobs in [2usize, 4] {
        let reference = parallel_reference(net, universe, patterns, outputs, jobs);
        assert!(reference.detected() > 0, "workload must detect something");
        for batch in [
            1usize,
            4,
            patterns.len(), /* the whole sequence at once */
        ] {
            for rebalance in [true, false] {
                let report = run_batched(net, universe, patterns, outputs, jobs, batch, rebalance);
                assert_eq!(
                    fingerprint(&report),
                    fingerprint(&reference),
                    "jobs={jobs} batch={batch} rebalance={rebalance}: \
                     batched run diverged from one-shot parallel"
                );
                assert_eq!(report.backend, "parallel");
                let expected_batches = if batch == patterns.len() {
                    1
                } else {
                    patterns.len().div_ceil(batch).min(
                        // Batches stop early once every fault is
                        // detected and dropped.
                        report.batches.len(),
                    )
                };
                assert_eq!(report.batches.len(), expected_batches);
                // Per-batch telemetry must account for every pattern
                // simulated and every detection made. It counts graded
                // faults (collapse-class representatives), and every
                // fault of these workloads is detected, so the batches
                // detect exactly the graded workload.
                let batch_patterns: usize = report.batches.iter().map(|b| b.patterns).sum();
                assert!(batch_patterns <= patterns.len());
                assert_eq!(report.detected(), report.run.num_faults, "fully detected");
                let batch_detected: usize = report.batches.iter().map(|b| b.detected).sum();
                assert_eq!(batch_detected, graded_faults(&report));
                assert!(report.batches.iter().all(|b| b.imbalance >= 1.0));
            }
        }
    }
}

#[test]
fn ram4x4_adaptive_is_bit_identical() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    assert_batched_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

#[test]
fn ram64_adaptive_is_bit_identical() {
    // The paper's RAM64 on its march sequence; the universe is sampled
    // (seeded, reproducible) to keep the debug-mode matrix quick.
    let ram = Ram::new(8, 8);
    let universe = FaultUniverse::stuck_nodes(ram.network()).sample(48, SEED);
    let seq = TestSequence::march_only(&ram);
    assert_batched_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

/// `drop_detected(false)` keeps detected circuits simulating across
/// batch boundaries (their snapshots carry the detected-once flag);
/// the detection set must still match the parallel backend's.
#[test]
fn adaptive_without_dropping_matches_parallel() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let run = |backend: Backend| {
        Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(backend)
            .drop_detected(false)
            .run()
    };
    let reference = run(Backend::Parallel(ParallelConfig {
        jobs: Jobs::Fixed(3),
        sim: ConcurrentConfig::paper(),
        ..ParallelConfig::default()
    }));
    let report = run(Backend::Parallel(batched(
        4,
        ParallelConfig {
            jobs: Jobs::Fixed(3),
            ..ParallelConfig::auto()
        },
    )));
    assert_eq!(fingerprint(&report), fingerprint(&reference));
    // Nothing dropped: every batch still grades the full workload.
    let graded = graded_faults(&report);
    assert!(report.batches.iter().all(|b| b.live_before == graded));
}

/// Pool feedback compares static cost against static cost: with
/// `Jobs::Auto` and nothing dropped, the worker count must stay at its
/// initial resolution for every batch. (Regression guard: feeding the
/// EWMA model's measured-seconds totals into `Jobs::refine` against
/// the static initial total made `Auto` pools collapse to one worker
/// after a few batches on multi-core hosts.)
#[test]
fn auto_pool_does_not_shrink_without_detections() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let report = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(Backend::Parallel(batched(4, ParallelConfig::auto())))
        .drop_detected(false)
        .run();
    let first = report.batches.first().expect("at least one batch");
    assert!(
        report.batches.iter().all(|b| b.workers == first.workers),
        "workers drifted without any workload change: {:?}",
        report.batches.iter().map(|b| b.workers).collect::<Vec<_>>()
    );
}

/// Coverage targets stop a batched run at a shard or batch boundary,
/// and the observer sees every shard's events plus one `BatchDone` per
/// batch.
#[test]
fn adaptive_run_control_and_events() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let mut batch_events = Vec::new();
    let mut shard_events = 0usize;
    let mut detected_events = 0usize;
    let report = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(Backend::Parallel(batched(
            4,
            ParallelConfig {
                jobs: Jobs::Fixed(2),
                ..ParallelConfig::auto()
            },
        )))
        .stop_at_coverage(0.5)
        .on_event(|e| match e {
            SimEvent::BatchDone {
                batch,
                detected_so_far,
                ..
            } => batch_events.push((batch, detected_so_far)),
            SimEvent::ShardDone { .. } => shard_events += 1,
            SimEvent::Detected { .. } => detected_events += 1,
            _ => {}
        })
        .run();
    assert_eq!(batch_events.len(), report.batches.len());
    assert_eq!(detected_events, report.detected());
    assert!(shard_events >= report.batches.len());
    assert!(
        report.coverage() >= 0.5,
        "target honoured: {}",
        report.coverage()
    );
    assert_eq!(
        batch_events.last().expect("at least one batch").1,
        report.detected()
    );
    // The initial strategy is echoed through telemetry: batch counts
    // and shard counts are concrete.
    assert!(report.batches.iter().all(|b| b.shards >= 1));
    let _ = ShardStrategy::ALL; // re-exported alongside the batching API
}
