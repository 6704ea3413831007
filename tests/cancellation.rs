//! Cooperative cancellation, per backend: the cancel token stops every
//! built-in backend at its work-item boundary (pattern / fault / shard
//! / batch), the report says so (`cancelled` + `StopReason::Cancelled`)
//! and still covers the work done before the stop, and the JSON
//! artifact round-trips the flag.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, Jobs, ParallelConfig, SerialConfig,
    ShardStrategy, SimEvent, StopReason,
};
use fmossim::circuits::Ram;
use fmossim::faults::FaultUniverse;
use fmossim::testgen::TestSequence;
use std::sync::atomic::Ordering;

fn workload() -> (Ram, TestSequence) {
    let ram = Ram::new(4, 4);
    let seq = TestSequence::full(&ram);
    (ram, seq)
}

fn campaign<'n, 'o>(ram: &'n Ram, seq: &TestSequence, backend: Backend) -> Campaign<'n, 'o> {
    Campaign::new(ram.network())
        .faults(FaultUniverse::stuck_nodes(ram.network()))
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(backend)
}

fn all_backends() -> [Backend; 4] {
    [
        Backend::Serial(SerialConfig::paper()),
        Backend::Concurrent(ConcurrentConfig::paper()),
        Backend::Parallel(ParallelConfig::paper(2)),
        Backend::Parallel(batched(4)),
    ]
}

/// The parallel backend in `batch`-pattern batches on an autotuned
/// pool, its first batch planned by estimated cost.
fn batched(batch: usize) -> ParallelConfig {
    ParallelConfig {
        batch,
        strategy: ShardStrategy::CostEstimated,
        ..ParallelConfig::auto()
    }
}

/// A token set before `run()` stops every backend at its *first*
/// boundary check; the report is still complete and parseable.
#[test]
fn pre_set_token_cancels_every_backend() {
    let (ram, seq) = workload();
    for backend in all_backends() {
        let c = campaign(&ram, &seq, backend);
        let token = c.cancel_token();
        token.store(true, Ordering::Relaxed);
        let report = c.run();
        assert!(report.cancelled, "{}", report.backend);
        assert_eq!(report.stop, StopReason::Cancelled, "{}", report.backend);
        // Round-trip the artifact with the flag set.
        let back = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }
}

/// Concurrent backend: cancelling after the first `PatternDone` stops
/// between patterns — exactly one pattern is simulated.
#[test]
fn concurrent_cancels_between_patterns() {
    let (ram, seq) = workload();
    let total = seq.patterns().len();
    assert!(total > 1);
    let c = campaign(&ram, &seq, Backend::Concurrent(ConcurrentConfig::paper()));
    let token = c.cancel_token();
    let report = c
        .on_event(move |e| {
            if matches!(e, SimEvent::PatternDone { .. }) {
                token.store(true, Ordering::Relaxed);
            }
        })
        .run();
    assert!(report.cancelled);
    assert_eq!(report.stop, StopReason::Cancelled);
    assert_eq!(report.run.patterns.len(), 1, "stopped after one pattern");
    assert_eq!(report.patterns_total, total, "offered patterns unchanged");
}

/// Serial backend: cancelling on the first detection stops between
/// faults — fewer faults are graded than the universe holds.
#[test]
fn serial_cancels_between_faults() {
    let (ram, seq) = workload();
    let c = campaign(&ram, &seq, Backend::Serial(SerialConfig::paper()));
    let full = campaign(&ram, &seq, Backend::Serial(SerialConfig::paper())).run();
    assert!(full.detected() > 1, "workload detects more than one fault");
    let token = c.cancel_token();
    let report = c
        .on_event(move |e| {
            if matches!(e, SimEvent::Detected { .. }) {
                token.store(true, Ordering::Relaxed);
            }
        })
        .run();
    assert!(report.cancelled);
    assert_eq!(report.stop, StopReason::Cancelled);
    assert!(
        report.detected() < full.detected(),
        "stopped before grading the whole universe ({} vs {})",
        report.detected(),
        full.detected()
    );
}

/// Parallel backend: cancelling on the first `ShardDone` stops the
/// shard queue — with one worker and many shards, exactly one shard
/// completes.
#[test]
fn parallel_cancels_between_shards() {
    let (ram, seq) = workload();
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let n_shards = 8.min(universe.len());
    assert!(n_shards > 1);
    let config = ParallelConfig {
        shards: Some(n_shards),
        jobs: Jobs::Fixed(1),
        ..ParallelConfig::paper(1)
    };
    let c = campaign(&ram, &seq, Backend::Parallel(config));
    let token = c.cancel_token();
    let mut shards_done = 0usize;
    let report = {
        let counter = &mut shards_done;
        c.on_event(move |e| {
            if matches!(e, SimEvent::ShardDone { .. }) {
                *counter += 1;
                token.store(true, Ordering::Relaxed);
            }
        })
        .run()
    };
    assert!(report.cancelled);
    assert_eq!(report.stop, StopReason::Cancelled);
    assert_eq!(shards_done, 1, "queue stopped after the first shard");
}

/// Batched parallel run: cancelling on the first `BatchDone` stops
/// between batches — one batch of patterns is simulated, no more.
#[test]
fn adaptive_cancels_between_batches() {
    let (ram, seq) = workload();
    let batch = 4usize;
    let total = seq.patterns().len();
    assert!(total > batch);
    let c = campaign(&ram, &seq, Backend::Parallel(batched(batch)));
    let token = c.cancel_token();
    let report = c
        .on_event(move |e| {
            if matches!(e, SimEvent::BatchDone { .. }) {
                token.store(true, Ordering::Relaxed);
            }
        })
        .run();
    assert!(report.cancelled);
    assert_eq!(report.stop, StopReason::Cancelled);
    assert_eq!(report.batches.len(), 1, "stopped after one batch");
    assert_eq!(report.run.patterns.len(), batch);
}
