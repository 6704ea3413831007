//! Report-level edge cases of campaign fault collapsing: the fan-out
//! that reconstructs a full-universe report from a collapsed run must
//! stay consistent when there is nothing to collapse, when a dropped
//! representative stands for a whole class, and when a cooperative
//! cancel cuts the campaign mid-flight. (The happy-path differential
//! matrix lives in `tests/collapse_equivalence.rs`; the golden JSON
//! fixture in `tests/report_snapshots.rs`.)

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, SimEvent, StopReason,
};
use fmossim::circuits::Ram;
use fmossim::faults::{CollapseClasses, FaultId, FaultUniverse};
use fmossim::netlist::NodeId;
use fmossim::testgen::TestSequence;
use std::sync::atomic::Ordering;

/// The shared workload: the 4×4 RAM over the paper sequence, with the
/// mixed universe whose transistor faults give the series rule
/// something to pair.
fn workload() -> (Ram, TestSequence, FaultUniverse) {
    let ram = Ram::new(4, 4);
    let seq = TestSequence::full(&ram);
    let universe = FaultUniverse::stuck_nodes(ram.network())
        .union(FaultUniverse::stuck_transistors(ram.network()));
    (ram, seq, universe)
}

/// The class structure the campaign will compute for this workload —
/// the same analysis call, so the tests can reason about specific
/// classes.
fn classes_for(ram: &Ram, seq: &TestSequence, universe: &FaultUniverse) -> CollapseClasses {
    let mut assigned: Vec<NodeId> = seq
        .patterns()
        .iter()
        .flat_map(|p| &p.phases)
        .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
        .collect();
    assigned.sort_unstable();
    assigned.dedup();
    CollapseClasses::analyze(ram.network(), universe, ram.observed_outputs(), &assigned)
}

fn campaign<'a>(ram: &'a Ram, seq: &'a TestSequence, universe: &FaultUniverse) -> Campaign<'a, 'a> {
    Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(Backend::Concurrent(ConcurrentConfig::paper()))
}

/// The fan-out's internal bookkeeping must always reconcile, whatever
/// cut the run short: every per-pattern `detected` sums to the
/// detection list, and the live count steps down by exactly the
/// detections fanned out before it (`drop_detected` is on by
/// default).
fn assert_consistent(report: &CampaignReport, universe: &FaultUniverse) {
    assert_eq!(report.run.num_faults, universe.len());
    let per_pattern: usize = report.run.patterns.iter().map(|p| p.detected).sum();
    assert_eq!(
        per_pattern,
        report.detections().len(),
        "per-pattern detected counts must sum to the detection list"
    );
    let mut seen = 0usize;
    for (i, p) in report.run.patterns.iter().enumerate() {
        assert_eq!(
            p.live_before,
            universe.len() - seen,
            "pattern {i}: live count out of step with fanned detections"
        );
        seen += p.detected;
    }
    for d in report.detections() {
        assert!(
            (d.fault.index()) < universe.len(),
            "detection names a fault outside the parent universe"
        );
    }
}

/// When the universe has nothing to collapse (every class a
/// singleton), collapsing must be a pure pass-through: the same
/// report as the plain run, plus collapse statistics that say so.
#[test]
fn identity_classes_are_a_pure_pass_through() {
    let (ram, seq, full) = workload();
    // Find a pair of faults the analysis cannot relate; scanning from
    // the front keeps the choice deterministic and the assert below
    // guards it against future rule additions.
    let classes = classes_for(&ram, &seq, &full);
    let mut singletons: Vec<FaultId> = Vec::new();
    for k in 0..classes.num_representatives() {
        let members = classes.members_of(FaultId(u32::try_from(k).expect("fits")));
        if members.len() == 1 {
            singletons.push(members[0]);
        }
        if singletons.len() == 2 {
            break;
        }
    }
    let universe = full.subset(&singletons);
    let classes = classes_for(&ram, &seq, &universe);
    assert_eq!(
        classes.num_collapsed_classes(),
        0,
        "chosen pair must analyse to the identity"
    );

    let plain = campaign(&ram, &seq, &universe).collapse(false).run();
    let collapsed = campaign(&ram, &seq, &universe).run();
    assert_eq!(collapsed.run.detections, plain.run.detections);
    assert_eq!(collapsed.run.num_faults, plain.run.num_faults);
    let stats = collapsed
        .collapse
        .expect("stats are archived even when empty");
    assert_eq!(
        (stats.total_faults, stats.simulated_faults, stats.classes),
        (universe.len(), universe.len(), 0),
        "identity collapse simulates everything and collapses nothing"
    );
    assert_consistent(&collapsed, &universe);
}

/// A detected-and-dropped representative stands for its whole class:
/// every member must appear in the fanned report exactly once, at the
/// representative's pattern and phase, and the live count must drop by
/// the full class size.
#[test]
fn dropped_representative_fans_detection_to_every_member() {
    let (ram, seq, universe) = workload();
    let classes = classes_for(&ram, &seq, &universe);
    assert!(
        classes.num_collapsed_classes() > 0,
        "workload must have a real class to exercise"
    );
    let report = campaign(&ram, &seq, &universe).run();
    assert_consistent(&report, &universe);

    let site_of = |f: FaultId| -> Vec<(usize, usize)> {
        report
            .detections()
            .iter()
            .filter(|d| d.fault == f)
            .map(|d| (d.pattern, d.phase))
            .collect()
    };
    let mut multi_member_detections = 0usize;
    for k in 0..classes.num_representatives() {
        let members = classes.members_of(FaultId(u32::try_from(k).expect("fits")));
        let rep_sites = site_of(members[0]);
        assert!(rep_sites.len() <= 1, "drop-on-detect allows one detection");
        for &m in members {
            assert_eq!(
                site_of(m),
                rep_sites,
                "class member {m:?} must mirror its representative {:?}",
                members[0]
            );
        }
        if members.len() > 1 && !rep_sites.is_empty() {
            multi_member_detections += members.len();
        }
    }
    assert!(
        multi_member_detections > 0,
        "at least one multi-member class must be detected for the fan-out to matter"
    );
}

/// A cooperative cancel after the first pattern leaves a consistent
/// fanned report: partial detections, full-universe fault count,
/// per-pattern counters that still reconcile, and the collapse
/// statistics intact.
#[test]
fn cancellation_keeps_fanned_counts_consistent() {
    let (ram, seq, universe) = workload();
    let total = seq.patterns().len();
    let c = campaign(&ram, &seq, &universe);
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
    let stats = report.collapse.expect("cancelled reports keep the stats");
    assert_eq!(stats.total_faults, universe.len());
    assert!(stats.simulated_faults < stats.total_faults);
    assert_consistent(&report, &universe);

    // The detections that did land before the cancel are fanned out
    // exactly like a full run's would be: a prefix of the uncancelled
    // collapsed report.
    let full = campaign(&ram, &seq, &universe).run();
    let prefix: Vec<_> = full
        .detections()
        .iter()
        .filter(|d| d.pattern == 0)
        .collect();
    let got: Vec<_> = report.detections().iter().collect();
    assert_eq!(got, prefix, "cancelled run's detections are a clean prefix");
}
