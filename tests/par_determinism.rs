//! Shard determinism: fault-parallel simulation is a pure throughput
//! lever. For every shard count and strategy, a `Campaign` on the
//! parallel backend must produce exactly the detection set (fault,
//! pattern, phase, values) and coverage of the same campaign on the
//! concurrent backend — on the paper's RAM benchmark and on the
//! ALU-section adder.

use fmossim::campaign::{Backend, Campaign, CampaignReport, Jobs};
use fmossim::circuits::{Ram, RippleAdder};
use fmossim::concurrent::{ConcurrentConfig, ConcurrentSim, Pattern, Phase};
use fmossim::faults::FaultUniverse;
use fmossim::netlist::{Network, NodeId};
use fmossim::par::{ParallelConfig, ParallelSim, ShardStrategy};
use fmossim::testgen::TestSequence;

/// Canonical view of a report's detections: one tuple per detected
/// fault, sorted — independent of emission order.
fn detection_set(report: &CampaignReport) -> Vec<(usize, usize, usize, String)> {
    let mut v: Vec<_> = report
        .detections()
        .iter()
        .map(|d| {
            (
                d.fault.index(),
                d.pattern,
                d.phase,
                format!("{}->{}", d.good, d.faulty),
            )
        })
        .collect();
    v.sort();
    v
}

/// The property: for K ∈ {1, 2, 4, 7} shards × all strategies, the
/// parallel-backend campaign equals the concurrent-backend reference.
fn assert_shard_invariance(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) {
    let campaign = |backend: Backend| {
        Campaign::new(net)
            .faults(universe.clone())
            .patterns(patterns)
            .outputs(outputs)
            .backend(backend)
            .run()
    };
    let reference = campaign(Backend::Concurrent(ConcurrentConfig::paper()));
    let expected = detection_set(&reference);
    assert!(reference.detected() > 0, "workload must detect something");

    for k in [1usize, 2, 4, 7] {
        for strategy in ShardStrategy::ALL {
            let config = ParallelConfig {
                jobs: Jobs::Fixed(k),
                strategy,
                sim: ConcurrentConfig::paper(),
                ..ParallelConfig::default()
            };
            let report = campaign(Backend::Parallel(config));
            assert_eq!(
                detection_set(&report),
                expected,
                "K={k} strategy={strategy}: detection set diverged"
            );
            assert_eq!(report.run.num_faults, reference.run.num_faults);
            assert!(
                (report.coverage() - reference.coverage()).abs() < 1e-12,
                "K={k} strategy={strategy}: coverage diverged"
            );
            assert_eq!(report.jobs, Some(k), "resolved worker count reported");
        }
    }
}

#[test]
fn ram_detections_invariant_under_sharding() {
    // 4×4 keeps the 36-run sweep fast while exercising the full RAM
    // control/march sequence; the 8×8 acceptance run is CI's
    // campaign smoke (`faultsim --jobs 1` against `--jobs 4`).
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    assert_shard_invariance(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

#[test]
fn adder_detections_invariant_under_sharding() {
    let adder = RippleAdder::new(3);
    let universe = FaultUniverse::stuck_nodes(adder.network()).union(
        FaultUniverse::stuck_transistors(adder.network()).without_redundant(adder.network()),
    );
    let cases: Vec<(u64, u64, bool)> = (0..8)
        .flat_map(|a| [(a, 7 - a, false), (a, a ^ 0b101, true)])
        .collect();
    let patterns: Vec<Pattern> = cases
        .iter()
        .map(|&(a, b, cin)| {
            Pattern::labelled(
                vec![Phase::strobe(adder.operand_assignments(a, b, cin))],
                format!("{a}+{b}+{}", u8::from(cin)),
            )
        })
        .collect();
    assert_shard_invariance(
        adder.network(),
        &universe,
        &patterns,
        &adder.observed_outputs(),
    );
}

/// `Jobs::Auto` is a sizing decision, never a results decision: the
/// autotuned campaign matches the fixed-size reference exactly.
#[test]
fn auto_jobs_detections_match_fixed() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let campaign = |backend: Backend| {
        Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(backend)
            .run()
    };
    let fixed = campaign(Backend::Parallel(ParallelConfig::paper(2)));
    let auto = campaign(Backend::Parallel(ParallelConfig::auto()));
    assert_eq!(detection_set(&auto), detection_set(&fixed));
    assert!(auto.jobs.expect("parallel backend reports jobs") >= 1);
}

/// Oversharding (more shards than workers, pulled from the queue) must
/// also leave results untouched — exercised through the raw
/// `ParallelSim` API, which stays public beneath the campaign layer.
#[test]
fn oversharded_pool_detections_invariant() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    let outputs = ram.observed_outputs();

    let mut reference_sim =
        ConcurrentSim::new(ram.network(), universe.faults(), ConcurrentConfig::paper());
    let reference = reference_sim.run(seq.patterns(), outputs);

    let config = ParallelConfig {
        jobs: Jobs::Fixed(3),
        shards: Some(11),
        strategy: ShardStrategy::CostEstimated,
        sim: ConcurrentConfig::paper(),
    };
    let sim = ParallelSim::new(ram.network(), universe, config);
    assert_eq!(sim.plan().num_shards(), 11);
    let report = sim.run(seq.patterns(), outputs);

    let key = |detections: &[fmossim::concurrent::Detection]| {
        let mut v: Vec<_> = detections
            .iter()
            .map(|d| (d.fault.index(), d.pattern, d.phase))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(key(&report.detections), key(&reference.detections));
}
