//! The unified campaign API, end to end: one workload graded through
//! every backend must yield identical detection sets; run control and
//! observers behave as documented; the JSON artifact round-trips.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, ParallelConfig,
    SerialConfig, SimEvent, StopReason,
};
use fmossim::circuits::{Ram, RippleAdder};
use fmossim::concurrent::{Pattern, Phase};
use fmossim::faults::FaultUniverse;
use fmossim::netlist::{Network, NodeId};
use fmossim::testgen::TestSequence;

/// The three backends with a common detection policy.
///
/// Backend equivalence is asserted under [`DetectionPolicy::DefiniteOnly`]:
/// definite (0 vs 1) divergences are forced by the logic and arrive at
/// the same strobe in every simulator, while first *potential* (`X`)
/// detections can legitimately differ between event schedules (see
/// `tests/ram_equivalence.rs`).
fn backends() -> [Backend; 3] {
    let policy = DetectionPolicy::DefiniteOnly;
    [
        Backend::Serial(SerialConfig {
            policy,
            ..SerialConfig::paper()
        }),
        Backend::Concurrent(ConcurrentConfig {
            policy,
            ..ConcurrentConfig::paper()
        }),
        Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(3),
            sim: ConcurrentConfig {
                policy,
                ..ConcurrentConfig::paper()
            },
            ..ParallelConfig::default()
        }),
    ]
}

fn detection_set(report: &CampaignReport) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<_> = report
        .detections()
        .iter()
        .map(|d| (d.fault.index(), d.pattern, d.phase))
        .collect();
    v.sort_unstable();
    v
}

fn assert_backend_equivalence(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) {
    let mut reports = Vec::new();
    for backend in backends() {
        let name = backend.name();
        let report = Campaign::new(net)
            .faults(universe.clone())
            .patterns(patterns)
            .outputs(outputs)
            .backend(backend)
            .run();
        assert_eq!(report.backend, name);
        assert_eq!(report.run.num_faults, universe.len());
        assert!(report.detected() > 0, "{name}: workload detects something");
        reports.push((name, report));
    }
    let (ref_name, reference) = &reports[0];
    for (name, report) in &reports[1..] {
        assert_eq!(
            detection_set(report),
            detection_set(reference),
            "{name} vs {ref_name}: detection sets diverged"
        );
    }
}

#[test]
fn backends_agree_on_ram4x4() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    assert_backend_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

#[test]
fn backends_agree_on_adder() {
    let adder = RippleAdder::new(3);
    let universe = FaultUniverse::stuck_nodes(adder.network());
    let cases: Vec<(u64, u64, bool)> = (0..8).flat_map(|a| [(a, 7 - a, false)]).collect();
    let patterns: Vec<Pattern> = cases
        .iter()
        .map(|&(a, b, cin)| Pattern::new(vec![Phase::strobe(adder.operand_assignments(a, b, cin))]))
        .collect();
    assert_backend_equivalence(
        adder.network(),
        &universe,
        &patterns,
        &adder.observed_outputs(),
    );
}

#[test]
fn report_json_roundtrips_from_real_runs() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    for backend in backends() {
        let report = Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(backend)
            .run();
        let text = report.to_json();
        let back = CampaignReport::from_json(&text).expect("artifact parses");
        assert_eq!(report, back, "{}: JSON round-trip", report.backend);
        assert_eq!(text, back.to_json(), "serialisation is deterministic");
    }
}

#[test]
fn observer_streams_consistent_events() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let mut detected_events = 0usize;
    let mut dropped_events = 0usize;
    let mut pattern_starts = 0usize;
    let mut pattern_dones = 0usize;
    let mut spans = 0usize;
    let report = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .on_event(|e| match e {
            SimEvent::Detected { .. } => detected_events += 1,
            SimEvent::FaultDropped { .. } => dropped_events += 1,
            SimEvent::PatternStart { .. } => pattern_starts += 1,
            SimEvent::PatternDone { .. } => pattern_dones += 1,
            SimEvent::Span { name, .. } => {
                assert_eq!(name, "campaign.run", "the only span is the run's");
                spans += 1;
            }
            SimEvent::ShardDone { .. } => panic!("concurrent backend has no shards"),
        })
        .run();
    assert_eq!(detected_events, report.detected());
    assert_eq!(dropped_events, report.detected(), "drop-on-detect is on");
    assert_eq!(pattern_starts, seq.len());
    assert_eq!(pattern_dones, seq.len());
    assert_eq!(spans, 1, "one campaign.run span per run");
}

#[test]
fn parallel_observer_sees_every_shard() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let mut shards_seen = Vec::new();
    let mut shard_detected = 0usize;
    let report = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(Backend::Parallel(ParallelConfig::paper(4)))
        .on_event(|e| {
            if let SimEvent::ShardDone {
                shard, detected, ..
            } = e
            {
                shards_seen.push(shard);
                shard_detected += detected;
            }
        })
        .run();
    shards_seen.sort_unstable();
    assert_eq!(shards_seen, vec![0, 1, 2, 3]);
    // Shards grade collapse-class representatives; every fault of this
    // workload is detected, so the shards detect every one of them.
    assert_eq!(report.detected(), report.run.num_faults, "fully detected");
    let graded = report
        .collapse
        .map_or(report.run.num_faults, |c| c.simulated_faults);
    assert_eq!(shard_detected, graded);
    assert_eq!(report.shards, Some(4));
    assert!(report.max_shard_seconds.expect("critical path") > 0.0);
}

#[test]
fn stop_at_coverage_cuts_the_run_short() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let full = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .run();
    assert_eq!(full.stop, StopReason::Completed);
    assert_eq!(full.coverage(), 1.0, "the march fully tests the RAM");

    let early = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .stop_at_coverage(0.5)
        .run();
    assert_eq!(early.stop, StopReason::CoverageReached);
    assert!(early.coverage() >= 0.5);
    assert!(
        early.run.patterns.len() < seq.len(),
        "the coverage target saves patterns: {} of {}",
        early.run.patterns.len(),
        seq.len()
    );
}

/// The parallel backend's stop granularity: one check before any
/// shard runs, then one at each shard completion. With one worker and
/// one shard per fault the shards run in plan order, so a target of
/// `k` faults stops the run right after the first shard whose
/// detections bring the total to `k` — exactly that many `ShardDone`
/// events — and a zero target simulates nothing.
#[test]
fn parallel_stops_at_the_first_shard_reaching_the_target() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let n = universe.len();
    let config = ParallelConfig {
        jobs: Jobs::Fixed(1),
        shards: Some(n),
        ..ParallelConfig::paper(1)
    };
    // Cut the sequence so that some shards detect nothing.
    let run = |target: Option<f64>| {
        let mut shard_detected = Vec::new();
        let mut campaign = Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .collapse(false)
            .pattern_limit(6)
            .backend(Backend::Parallel(config));
        if let Some(t) = target {
            campaign = campaign.stop_at_coverage(t);
        }
        let report = campaign
            .on_event(|e| {
                if let SimEvent::ShardDone {
                    shard, detected, ..
                } = e
                {
                    assert_eq!(shard, shard_detected.len(), "plan order on one worker");
                    shard_detected.push(detected);
                }
            })
            .run();
        (report, shard_detected)
    };
    let (full, per_shard) = run(None);
    assert_eq!(per_shard.len(), n, "one shard per fault");
    assert!(
        per_shard.contains(&0) && full.detected() > 4,
        "some shards detect nothing, enough detect something: {per_shard:?}"
    );

    let k = 4;
    // `ceil((k - 0.5) / n * n) == k`, free of float round-up.
    let (early, seen) = run(Some((k as f64 - 0.5) / n as f64));
    let mut total = 0;
    let stop_after = 1 + per_shard
        .iter()
        .position(|&d| {
            total += d;
            total >= k
        })
        .expect("the full run reaches k");
    assert_eq!(early.stop, StopReason::CoverageReached);
    assert_eq!(seen.len(), stop_after, "exactly that many ShardDone events");
    assert_eq!(seen, per_shard[..stop_after]);
    assert_eq!(early.detected(), k);

    let (none, seen) = run(Some(0.0));
    assert_eq!(none.stop, StopReason::CoverageReached);
    assert!(seen.is_empty(), "a zero target runs no shard");
    assert_eq!(none.detected(), 0);
}

#[test]
fn pattern_limit_truncates_the_sequence() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let report = Campaign::new(ram.network())
        .faults(universe)
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .pattern_limit(7)
        .run();
    assert_eq!(report.stop, StopReason::PatternLimit);
    assert_eq!(report.patterns_total, 7);
    assert_eq!(report.run.patterns.len(), 7);
    assert!(report.detections().iter().all(|d| d.pattern < 7));
}

/// With dropping off, the concurrent and parallel backends grade every
/// fault over the whole sequence and agree on the detections.
#[test]
fn drop_detected_off_grades_the_whole_sequence() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let run = |backend: Backend| {
        let mut dropped = 0usize;
        let report = Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(backend)
            .drop_detected(false)
            .on_event(|e| {
                if matches!(e, SimEvent::FaultDropped { .. }) {
                    dropped += 1;
                }
            })
            .run();
        assert_eq!(dropped, 0, "no drop events when dropping is off");
        assert_eq!(report.detected(), universe.len(), "coverage unchanged");
        assert!(!report.control.drop_detected);
        assert!(
            report
                .run
                .patterns
                .iter()
                .all(|p| p.live_before == universe.len()),
            "nothing dropped: every pattern grades the whole universe"
        );
        report
    };
    let concurrent = run(Backend::Concurrent(ConcurrentConfig::paper()));
    let parallel = run(Backend::Parallel(ParallelConfig::paper(3)));
    assert_eq!(parallel.detections(), concurrent.detections());
}

#[test]
fn serial_backend_reports_reference_timing() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let report = Campaign::new(ram.network())
        .faults(universe)
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(Backend::Serial(SerialConfig::paper()))
        .run();
    assert!(report.good_seconds.expect("good-only reference") > 0.0);
    assert!(report.serial_estimate_seconds.expect("paper estimator") > 0.0);
    assert!(report.jobs.is_none(), "serial backend has no worker pool");
}
