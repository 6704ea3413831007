//! The end-to-end telemetry layer, across backends: every observer
//! stream obeys its backend's documented event grammar and ends with
//! the `campaign.run` span, and the merged counters of a fault-parallel
//! run are invariant under the shard count — sharding changes
//! wall-clock time, never what was simulated.

use std::collections::BTreeMap;

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, ParallelConfig,
    Registry, SerialConfig, ShardStrategy, SimEvent,
};
use fmossim::faults::FaultUniverse;
use fmossim::testgen::zoo::build_zoo;

/// Backend equivalence (and therefore cross-K counter equality) holds
/// under definite-only detection; see `tests/campaign_api.rs`.
const POLICY: DetectionPolicy = DetectionPolicy::DefiniteOnly;

fn concurrent_config() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: POLICY,
        ..ConcurrentConfig::paper()
    }
}

fn run_with_events(circuit: &str, backend: Backend) -> (CampaignReport, Vec<SimEvent>) {
    let w = build_zoo(circuit).expect("zoo member");
    let mut events = Vec::new();
    let report = Campaign::new(&w.net)
        .faults(FaultUniverse::stuck_nodes(&w.net))
        .patterns(&w.patterns)
        .outputs(&w.outputs)
        .backend(backend)
        .on_event(|e| events.push(e))
        .run();
    (report, events)
}

/// Guarantees every backend makes: the stream ends with exactly one
/// `campaign.run` span, and `Detected` / `FaultDropped` counts match
/// the report (drop-on-detect is the default).
fn assert_common_grammar(report: &CampaignReport, events: &[SimEvent]) {
    let run_spans = events
        .iter()
        .filter(|e| matches!(e, SimEvent::Span { name, .. } if *name == "campaign.run"))
        .count();
    assert_eq!(run_spans, 1, "{}: one campaign.run span", report.backend);
    assert!(
        matches!(
            events.last(),
            Some(SimEvent::Span {
                name: "campaign.run",
                seconds,
            }) if *seconds > 0.0
        ),
        "{}: stream ends with the campaign.run span",
        report.backend
    );
    let detected = events
        .iter()
        .filter(|e| matches!(e, SimEvent::Detected { .. }))
        .count();
    let dropped = events
        .iter()
        .filter(|e| matches!(e, SimEvent::FaultDropped { .. }))
        .count();
    assert_eq!(detected, report.detected(), "{}: Detected", report.backend);
    assert_eq!(
        dropped,
        report.detected(),
        "{}: FaultDropped",
        report.backend
    );
}

#[test]
fn concurrent_events_are_pattern_bracketed() {
    let (report, events) = run_with_events("regfile4x4", Backend::Concurrent(concurrent_config()));
    assert_common_grammar(&report, &events);
    // PatternStart(p) < Detected{pattern: p} < PatternDone(p), patterns
    // in order, detections only inside their own pattern's bracket.
    let mut open: Option<usize> = None;
    let mut next_pattern = 0usize;
    for e in &events {
        match *e {
            SimEvent::PatternStart { pattern, .. } => {
                assert_eq!(open, None, "pattern {pattern} started inside another");
                assert_eq!(pattern, next_pattern, "patterns start in order");
                open = Some(pattern);
            }
            SimEvent::PatternDone { pattern, .. } => {
                assert_eq!(open, Some(pattern), "PatternDone closes the open pattern");
                open = None;
                next_pattern = pattern + 1;
            }
            SimEvent::Detected { pattern, .. } => {
                assert_eq!(
                    open,
                    Some(pattern),
                    "a detection is bracketed by its own pattern's Start/Done"
                );
            }
            SimEvent::FaultDropped { .. } => {
                assert!(open.is_some(), "drops happen inside a pattern bracket");
            }
            SimEvent::Span { name, .. } => {
                assert_eq!(name, "campaign.run", "concurrent backend has no re-plans");
            }
            SimEvent::ShardDone { .. } | SimEvent::BatchDone { .. } => {
                panic!("concurrent backend emits no shard/batch events")
            }
        }
    }
    assert_eq!(open, None, "every pattern bracket was closed");
    assert_eq!(
        next_pattern, report.patterns_total,
        "every pattern streamed"
    );
}

#[test]
fn serial_events_are_fault_major() {
    let (report, events) = run_with_events(
        "regfile4x4",
        Backend::Serial(SerialConfig {
            policy: POLICY,
            ..SerialConfig::paper()
        }),
    );
    assert_common_grammar(&report, &events);
    // Fault-major: per-pattern and shard/batch events would be
    // meaningless, so the vocabulary is Detected/FaultDropped + span.
    for e in &events {
        assert!(
            matches!(
                e,
                SimEvent::Detected { .. } | SimEvent::FaultDropped { .. } | SimEvent::Span { .. }
            ),
            "serial backend emitted {e:?}"
        );
    }
}

#[test]
fn parallel_events_cover_every_shard() {
    let shards = 3;
    let (report, events) = run_with_events(
        "regfile4x4",
        Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(shards),
            sim: concurrent_config(),
            ..ParallelConfig::default()
        }),
    );
    assert_common_grammar(&report, &events);
    let mut shards_seen: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            SimEvent::ShardDone { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    shards_seen.sort_unstable();
    assert_eq!(shards_seen, (0..shards).collect::<Vec<_>>());
    let shard_detected: usize = events
        .iter()
        .filter_map(|e| match e {
            SimEvent::ShardDone { detected, .. } => Some(*detected),
            _ => None,
        })
        .sum();
    assert_eq!(shard_detected, report.detected());
}

#[test]
fn adaptive_events_close_batches_in_order() {
    let (report, events) = run_with_events(
        "regfile4x4",
        Backend::Parallel(ParallelConfig {
            batch: 4,
            jobs: Jobs::Fixed(2),
            strategy: ShardStrategy::CostEstimated,
            sim: concurrent_config(),
            ..ParallelConfig::default()
        }),
    );
    assert_common_grammar(&report, &events);
    // Batches close in order; every detection since the previous
    // BatchDone falls inside the closing batch's pattern range, so
    // Detected < BatchDone holds batch by batch.
    let mut next_batch = 0usize;
    let mut last_detected_so_far = 0usize;
    let mut pending_detections: Vec<usize> = Vec::new();
    for e in &events {
        match *e {
            SimEvent::Detected { pattern, .. } => pending_detections.push(pattern),
            SimEvent::BatchDone {
                batch,
                first_pattern,
                patterns,
                detected_so_far,
                ..
            } => {
                assert_eq!(batch, next_batch, "batches close in order");
                next_batch += 1;
                assert!(
                    detected_so_far >= last_detected_so_far,
                    "detected_so_far is monotone"
                );
                last_detected_so_far = detected_so_far;
                for &p in &pending_detections {
                    assert!(
                        (first_pattern..first_pattern + patterns).contains(&p),
                        "detection at pattern {p} precedes its batch \
                         [{first_pattern}, {})",
                        first_pattern + patterns
                    );
                }
                pending_detections.clear();
            }
            SimEvent::Span { name, .. } => {
                assert!(
                    name == "campaign.run" || name == "campaign.replan",
                    "unexpected span {name:?}"
                );
            }
            _ => {}
        }
    }
    assert!(
        pending_detections.is_empty(),
        "no detection outside a batch"
    );
    assert_eq!(next_batch, report.batches.len(), "every batch streamed");
    assert_eq!(last_detected_so_far, report.detected());
}

/// The counters that count *simulation decisions* — how many circuit
/// settles, private events, faulty-circuit groups, detections — must
/// not depend on how the fault list is sharded. Excluded by design:
/// gauges (timing-shaped), `core.good.groups` / `core.tape.*` (one
/// shard recomputes the good machine, many shards replay a tape),
/// `switch.*` (counts good-machine solver work, which moves into the
/// tape recorder when sharded) and `par.*` (counts the shards
/// themselves).
const K_INVARIANT_COUNTERS: [&str; 5] = [
    "core.circuit.settles",
    "core.detections",
    "core.events_scheduled",
    "core.faulty.groups",
    "core.faults_dropped",
];

#[test]
fn merged_counters_are_shard_count_invariant() {
    for circuit in ["regfile4x4", "pla6"] {
        let w = build_zoo(circuit).expect("zoo member");
        let universe = FaultUniverse::stuck_nodes(&w.net);
        let mut baseline: Option<(usize, BTreeMap<String, u64>)> = None;
        for k in [1usize, 2, 4] {
            let registry = Registry::new();
            let report = Campaign::new(&w.net)
                .faults(universe.clone())
                .patterns(&w.patterns)
                .outputs(&w.outputs)
                .backend(Backend::Parallel(ParallelConfig {
                    jobs: Jobs::Fixed(k),
                    sim: concurrent_config(),
                    ..ParallelConfig::default()
                }))
                .with_telemetry(&registry)
                .run();
            let snapshot = registry.snapshot();
            assert_eq!(
                report.metrics, snapshot,
                "{circuit} K={k}: the report embeds the registry snapshot"
            );
            assert_eq!(
                snapshot.counters["core.detections"],
                report.detected() as u64,
                "{circuit} K={k}"
            );
            assert_eq!(
                snapshot.counters["par.shards"], k as u64,
                "{circuit} K={k}: one par.shards tick per shard"
            );
            let invariant: BTreeMap<String, u64> = K_INVARIANT_COUNTERS
                .iter()
                .map(|&name| {
                    let v = *snapshot
                        .counters
                        .get(name)
                        .unwrap_or_else(|| panic!("{circuit} K={k}: counter {name} missing"));
                    (name.to_string(), v)
                })
                .collect();
            assert!(
                invariant["core.circuit.settles"] > 0,
                "{circuit} K={k}: workload does work"
            );
            match &baseline {
                None => baseline = Some((k, invariant)),
                Some((k0, expected)) => {
                    assert_eq!(
                        &invariant, expected,
                        "{circuit}: merged counters diverged between K={k0} and K={k}"
                    );
                }
            }
        }
    }
}
