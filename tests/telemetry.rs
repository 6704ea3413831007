//! The end-to-end telemetry layer, across backends: every observer
//! stream obeys its backend's documented event grammar and ends with
//! the `campaign.run` span, and the merged counters of a fault-parallel
//! run are invariant under the shard count — sharding changes
//! wall-clock time, never what was simulated — and export as
//! lint-clean Prometheus text.

use std::collections::BTreeMap;

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, MetricsSnapshot,
    ParallelConfig, Registry, SerialConfig, SimEvent,
};
use fmossim::faults::{CollapseClasses, FaultUniverse};
use fmossim::netlist::NodeId;
use fmossim::testgen::zoo::{build_zoo, ZooWorkload};

/// Backend equivalence (and therefore cross-K counter equality) holds
/// under definite-only detection; see `tests/campaign_api.rs`.
const POLICY: DetectionPolicy = DetectionPolicy::DefiniteOnly;

fn concurrent_config() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: POLICY,
        ..ConcurrentConfig::paper()
    }
}

/// The detections the simulator itself made on a default (collapsed)
/// run of `w`'s stuck-node universe: one per detected collapse-class
/// representative, each its class's lowest-indexed member. Work-item
/// telemetry (`ShardDone`, `core.*` counters) counts these.
fn representative_detections(w: &ZooWorkload, report: &CampaignReport) -> usize {
    let universe = FaultUniverse::stuck_nodes(&w.net);
    let mut assigned: Vec<NodeId> = w
        .patterns
        .iter()
        .flat_map(|p| &p.phases)
        .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
        .collect();
    assigned.sort_unstable();
    assigned.dedup();
    let classes = CollapseClasses::analyze(&w.net, &universe, &w.outputs, &assigned);
    assert_eq!(
        report.collapse.map(|c| c.simulated_faults),
        Some(classes.num_representatives()),
        "the campaign graded these classes"
    );
    report
        .detections()
        .iter()
        .filter(|d| classes.representative_of(d.fault) == d.fault)
        .count()
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
                assert_eq!(name, "campaign.run", "the only span is the run's");
            }
            SimEvent::ShardDone { .. } => {
                panic!("concurrent backend emits no shard events")
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
    // Fault-major: per-pattern and shard events would be
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
    // Shards grade collapse-class representatives.
    let w = build_zoo("regfile4x4").expect("zoo member");
    assert_eq!(shard_detected, representative_detections(&w, &report));
}

/// The counters that count *simulation decisions* — how many circuit
/// settles, private events, faulty-circuit groups, detections — must
/// not depend on how the fault list is sharded. Excluded by design:
/// gauges (timing-shaped), `core.tape.*` (zero on one shard; many
/// shards stream a tape, with the identities asserted below beside
/// `core.good.groups`), `switch.*` (packed-lane counts depend on which
/// circuits share a shard) and `par.*` (counts the shards
/// themselves).
const K_INVARIANT_COUNTERS: [&str; 9] = [
    "core.circuit.settles",
    "core.detections",
    "core.events_scheduled",
    "core.faulty.groups",
    "core.faults_dropped",
    "core.settles.redundant",
    "core.settles.redundant.stuck_node",
    "core.trigger.cleared",
    "core.trigger.solves",
];

#[test]
fn merged_counters_are_shard_count_invariant() {
    for circuit in ["regfile4x4", "pla6"] {
        let w = build_zoo(circuit).expect("zoo member");
        let universe = FaultUniverse::stuck_nodes(&w.net);
        let mut baseline: Option<(usize, BTreeMap<String, u64>)> = None;
        let mut good_groups = 0;
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
                representative_detections(&w, &report) as u64,
                "{circuit} K={k}"
            );
            assert_eq!(
                snapshot.counters["par.shards"], k as u64,
                "{circuit} K={k}: one par.shards tick per shard"
            );
            // The Prometheus export — what `faultsim --metrics` writes —
            // is lint-clean and carries samples from every layer.
            let text = snapshot.to_prometheus();
            MetricsSnapshot::lint_prometheus(&text).unwrap_or_else(|(line, why)| {
                panic!("{circuit} K={k}: prometheus lint failed at line {line}: {why}")
            });
            for layer in ["switch", "core", "par", "campaign"] {
                let prefix = format!("fmossim_{layer}_");
                assert!(
                    text.lines().any(|l| l.starts_with(&prefix)),
                    "{circuit} K={k}: no {prefix}* sample"
                );
            }
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
            // The tape shrinks good-machine work: one shard settles the
            // good circuit itself; with K >= 2 shards the leader settles
            // it and streams it, and the K - 1 followers replay the
            // stream instead of settling it again.
            let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
            if k == 1 {
                good_groups = counter("core.good.groups");
                assert!(good_groups > 0, "{circuit}: the good machine does work");
                assert_eq!(counter("core.tape.groups"), 0, "{circuit}: no tape at K=1");
            } else {
                assert_eq!(counter("core.good.groups"), good_groups, "{circuit} K={k}");
                assert_eq!(counter("core.tape.groups"), good_groups, "{circuit} K={k}");
                assert_eq!(
                    counter("core.tape.replayed_groups"),
                    (k as u64 - 1) * good_groups,
                    "{circuit} K={k}"
                );
            }
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

/// The `core.phase.*` split: each of the four steps of the phase loop
/// is published on concurrent and parallel runs, non-negative, and
/// together they fit inside the time the simulators ran — the
/// campaign's wall time on the concurrent backend, the summed shard
/// seconds (`par.shard.seconds`) on the parallel one, whose shards run
/// side by side.
#[test]
fn phase_split_gauges_cover_the_run() {
    const PHASES: [&str; 4] = [
        "core.phase.good_seconds",
        "core.phase.drain_seconds",
        "core.phase.faulty_seconds",
        "core.phase.strobe_seconds",
    ];
    let w = build_zoo("regfile4x4").expect("zoo member");
    let parallel = Backend::Parallel(ParallelConfig {
        jobs: Jobs::Fixed(2),
        sim: concurrent_config(),
        ..ParallelConfig::default()
    });
    for backend in [Backend::Concurrent(concurrent_config()), parallel] {
        let registry = Registry::new();
        let report = Campaign::new(&w.net)
            .faults(FaultUniverse::stuck_nodes(&w.net))
            .patterns(&w.patterns)
            .outputs(&w.outputs)
            .backend(backend)
            .with_telemetry(&registry)
            .run();
        let snap = registry.snapshot();
        let mut sum = 0.0;
        for name in PHASES {
            let secs = *snap
                .gauges
                .get(name)
                .unwrap_or_else(|| panic!("{}: gauge {name} missing", report.backend));
            assert!(secs >= 0.0, "{}: {name} = {secs}", report.backend);
            sum += secs;
        }
        assert!(sum > 0.0, "{}: the phases took time", report.backend);
        let ran = snap
            .gauges
            .get("par.shard.seconds")
            .copied()
            .unwrap_or(report.wall_seconds);
        assert!(
            sum <= ran,
            "{}: phase split {sum} s exceeds the {ran} s the simulators ran",
            report.backend
        );
        let text = snap.to_prometheus();
        assert!(
            text.lines().any(|l| l.starts_with("fmossim_core_phase_")),
            "{}: phase gauges export",
            report.backend
        );
    }
}
