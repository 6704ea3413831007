//! Differential conformance for `Campaign::collapse` combined with
//! `Campaign::stop_at_coverage`: backends evaluate the coverage
//! target in *parent-universe* terms (each representative's detection
//! weighted by its equivalence-class size, over the parent fault
//! count), so a collapsed run must stop at exactly the same pattern
//! as the uncollapsed run it mirrors — the combination used to be
//! rejected by the CLI and silently mis-evaluated (over
//! representatives) through the builder API and the server.
//!
//! Also locks the satellite audit of `Jobs::Auto` under collapse: the
//! resolved worker count echoed in the report is sized from the
//! *collapsed* universe — the workload the backend actually grades —
//! because the campaign collapses before any backend sees it.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, ParallelConfig,
    StopReason,
};
use fmossim::concurrent::Pattern;
use fmossim::faults::{CollapseClasses, FaultUniverse};
use fmossim::netlist::{Network, NodeId};
use fmossim::testgen::zoo::build_zoo;

fn sim() -> ConcurrentConfig {
    // DefiniteOnly keeps detection sets schedule-independent, which is
    // what makes "stops at the same pattern" a well-posed claim.
    ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    }
}

fn run(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
    backend: Backend,
    collapse: bool,
    target: f64,
) -> CampaignReport {
    Campaign::new(net)
        .faults(universe.clone())
        .patterns(patterns)
        .outputs(outputs)
        .backend(backend)
        .collapse(collapse)
        .stop_at_coverage(target)
        .run()
}

/// Pattern-granularity stop (concurrent backend): the collapsed run
/// must simulate exactly as many patterns as the uncollapsed one
/// before the target trips, and both must report the stop.
#[test]
fn concurrent_collapsed_run_stops_at_the_same_pattern() {
    let w = build_zoo("ram4x4").expect("zoo member");
    let universe = FaultUniverse::stuck_nodes(&w.net);
    for target in [0.25, 0.5, 0.75] {
        let backend = Backend::Concurrent(sim());
        let plain = run(
            &w.net,
            &universe,
            &w.patterns,
            &w.outputs,
            backend,
            false,
            target,
        );
        let collapsed = run(
            &w.net,
            &universe,
            &w.patterns,
            &w.outputs,
            backend,
            true,
            target,
        );
        assert_eq!(
            plain.stop,
            StopReason::CoverageReached,
            "target {target}: the target must be reachable for the comparison to bite"
        );
        assert_eq!(
            collapsed.stop,
            StopReason::CoverageReached,
            "target {target}"
        );
        assert_eq!(
            collapsed.run.patterns.len(),
            plain.run.patterns.len(),
            "target {target}: collapsed run stopped at a different pattern"
        );
        // The fanned-out report must clear the target over the full
        // universe — not merely over representatives.
        assert!(collapsed.coverage() >= target, "target {target}");
        assert_eq!(
            collapsed.run.detections, plain.run.detections,
            "target {target}"
        );
    }
}

/// The parallel backend stops at shard granularity; shard shapes
/// differ between a collapsed and an uncollapsed universe, so pattern
/// parity is not defined here — but the target semantics are: the
/// collapsed run must stop early with parent-universe coverage at or
/// above the target, not merely representative coverage.
#[test]
fn parallel_collapsed_run_honours_the_parent_universe_target() {
    let w = build_zoo("ram4x4").expect("zoo member");
    let universe = FaultUniverse::stuck_nodes(&w.net);
    let backend = Backend::Parallel(ParallelConfig {
        jobs: Jobs::Fixed(2),
        sim: sim(),
        ..ParallelConfig::default()
    });
    let collapsed = run(
        &w.net,
        &universe,
        &w.patterns,
        &w.outputs,
        backend,
        true,
        0.5,
    );
    assert_eq!(collapsed.stop, StopReason::CoverageReached);
    assert!(!collapsed.cancelled);
    assert!(
        collapsed.coverage() >= 0.5,
        "parent-universe coverage {} missed the 0.5 target",
        collapsed.coverage()
    );
}

/// `Jobs::Auto` pool sizing under collapse: the campaign collapses the
/// universe *before* the backend resolves its worker count, so the
/// echoed `jobs` must match a resolution over the collapsed
/// representatives — not the parent universe.
#[test]
fn auto_jobs_resolve_over_the_collapsed_universe() {
    let w = build_zoo("ram4x4").expect("zoo member");
    let universe = FaultUniverse::stuck_nodes(&w.net);
    let backend = Backend::Parallel(ParallelConfig {
        jobs: Jobs::Auto,
        sim: sim(),
        ..ParallelConfig::default()
    });
    let report = Campaign::new(&w.net)
        .faults(universe.clone())
        .patterns(&w.patterns)
        .outputs(&w.outputs)
        .backend(backend)
        .run();

    // Reproduce the collapse the campaign performs (same inputs).
    let mut assigned: Vec<NodeId> = w
        .patterns
        .iter()
        .flat_map(|p| &p.phases)
        .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
        .collect();
    assigned.sort_unstable();
    assigned.dedup();
    let classes = CollapseClasses::analyze(&w.net, &universe, &w.outputs, &assigned);
    let collapsed = classes.collapsed_universe(&universe);
    assert!(
        collapsed.len() < universe.len(),
        "workload must actually collapse for this test to bite"
    );
    assert_eq!(
        report.jobs,
        Some(Jobs::Auto.resolve(&w.net, &collapsed)),
        "auto-sized pool must be resolved from the collapsed universe"
    );
}
