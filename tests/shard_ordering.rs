//! Out-of-order shard completion under `run_streaming`: the streaming
//! pool reports shards in scheduling-dependent completion order, and
//! everything downstream — fault relabelling, the canonical merge,
//! the campaign's config echo — must be invariant to it. These tests
//! oversubscribe the pool (more shards than workers, several workers
//! racing) so completion order genuinely scrambles, then pin the
//! invariants the parallel backend relies on.
//!
//! (The satellite issue asked for a targeted test and a fix for any
//! ordering bug it flushed out; the invariants below all held —
//! `run_shard` relabels before streaming and the driver sorts by
//! shard index before merging — so this file is the lock, not a fix.)

use fmossim::campaign::{Backend, Campaign, ConcurrentConfig, Jobs, ParallelConfig, SimEvent};
use fmossim::circuits::RegisterFile;
use fmossim::concurrent::Detection;
use fmossim::faults::FaultUniverse;
use fmossim::par::{ParallelConfig as ParConfig, ParallelSim};
use fmossim::testgen::zoo::regfile_sequence;
use std::collections::HashSet;
use std::ops::ControlFlow;

fn workload() -> (RegisterFile, Vec<fmossim::concurrent::Pattern>) {
    let rf = RegisterFile::new(4, 2);
    let patterns = regfile_sequence(&rf);
    (rf, patterns)
}

/// Every report streamed from `run_streaming` must already carry
/// *parent-universe* fault ids confined to its own shard, and the
/// canonical concatenation of the streamed per-shard detections must
/// equal the merged report exactly — whatever order the pool finished
/// in.
#[test]
fn streamed_reports_are_relabelled_and_merge_canonically() {
    let (rf, patterns) = workload();
    let universe = FaultUniverse::stuck_nodes(rf.network());
    let config = ParConfig {
        jobs: Jobs::Fixed(3),
        shards: Some(7), // oversharded: workers pull from the queue
        sim: ConcurrentConfig::paper(),
    };
    let sim = ParallelSim::new(rf.network(), universe.clone(), config);
    let mut streamed: Vec<Detection> = Vec::new();
    let mut completion_order = Vec::new();
    let run = sim.run_streaming(&patterns, rf.observed_outputs(), |o, rep| {
        let shard_ids: HashSet<usize> = sim
            .plan()
            .shard(o.shard)
            .iter()
            .map(|f| f.index())
            .collect();
        for d in &rep.detections {
            assert!(
                shard_ids.contains(&d.fault.index()),
                "shard {}: detection carries id {} outside the shard — relabelling \
                 must happen before streaming",
                o.shard,
                d.fault.index()
            );
        }
        assert_eq!(o.detected, rep.detected());
        streamed.extend(rep.detections.iter().copied());
        completion_order.push(o.shard);
        ControlFlow::Continue(())
    });
    assert_eq!(completion_order.len(), 7, "every shard observed once");
    // Canonicalise the completion-ordered stream: it must equal the
    // merged report bit for bit.
    streamed.sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
    assert_eq!(streamed, run.report.detections);
    assert_eq!(run.report.num_faults, universe.len());
    // And the merged detections must match a single-shard reference.
    let reference = ParallelSim::new(
        rf.network(),
        universe,
        ParConfig {
            jobs: Jobs::Fixed(1),
            sim: ConcurrentConfig::paper(),
            ..ParConfig::default()
        },
    )
    .run(&patterns, rf.observed_outputs());
    assert_eq!(run.report.detections, reference.detections);
}

/// The campaign's config echo (resolved jobs, planned shards) and the
/// canonical report survive an early stop: breaking the queue after
/// the coverage target still echoes the *plan*, counts the whole
/// universe, and keeps the detections canonical.
#[test]
fn config_echo_is_order_independent_under_early_stop() {
    let (rf, patterns) = workload();
    let universe = FaultUniverse::stuck_nodes(rf.network());
    let mut shard_events = Vec::new();
    let report = Campaign::new(rf.network())
        .faults(universe.clone())
        .patterns(&patterns)
        .outputs(rf.observed_outputs())
        .backend(Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(2),
            shards: Some(6),
            sim: ConcurrentConfig::paper(),
        }))
        .stop_at_coverage(0.25)
        .on_event(|e| {
            if let SimEvent::ShardDone { shard, .. } = e {
                shard_events.push(shard);
            }
        })
        .run();
    // Echo reflects the plan, not the completion schedule.
    assert_eq!(report.jobs, Some(2));
    assert_eq!(report.shards, Some(6));
    assert_eq!(report.run.num_faults, universe.len());
    assert!(report.coverage() >= 0.25, "target honoured");
    // Events arrived in *some* completion order; each at most once.
    let unique: HashSet<_> = shard_events.iter().collect();
    assert_eq!(unique.len(), shard_events.len(), "no shard reported twice");
    // Whatever subset of shards ran, the report is canonical.
    let keys: Vec<_> = report
        .detections()
        .iter()
        .map(|d| (d.pattern, d.phase, d.fault.index()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "early-stopped report stays canonical");
}

/// Ten repetitions of an oversubscribed pool produce ten identical
/// reports (modulo measured seconds): completion-order nondeterminism
/// must never leak into results. (One repetition can get lucky; ten
/// racing three workers over seven shards reliably explore different
/// interleavings.)
#[test]
fn repeated_racing_runs_are_bit_identical() {
    let (rf, patterns) = workload();
    let universe = FaultUniverse::stuck_nodes(rf.network());
    let run = || {
        Campaign::new(rf.network())
            .faults(universe.clone())
            .patterns(&patterns)
            .outputs(rf.observed_outputs())
            .backend(Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(3),
                shards: Some(7),
                sim: ConcurrentConfig::paper(),
            }))
            .run()
    };
    let reference = run();
    let ref_counters: Vec<_> = reference
        .run
        .patterns
        .iter()
        .map(|p| (p.detected, p.live_before, p.good_groups, p.faulty_groups))
        .collect();
    for rep in 0..9 {
        let again = run();
        assert_eq!(
            again.detections(),
            reference.detections(),
            "repetition {rep}: detections drifted with completion order"
        );
        let counters: Vec<_> = again
            .run
            .patterns
            .iter()
            .map(|p| (p.detected, p.live_before, p.good_groups, p.faulty_groups))
            .collect();
        assert_eq!(counters, ref_counters, "repetition {rep}: counters drifted");
    }
}
