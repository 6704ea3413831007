//! Shard determinism: fault-parallel simulation is a pure throughput
//! lever. For every shard count and strategy, a `Campaign` on the
//! parallel backend must produce exactly the detection set (fault,
//! pattern, phase, values) and coverage of the same campaign on the
//! concurrent backend — on the paper's RAM benchmark and on the
//! ALU-section adder. On the circuit zoo, the led run (shard 0 streams
//! the good tape to the other shards) matches a single shard however
//! the followers are scheduled, and the leader publishes exactly the
//! tape a record pass would.

use fmossim::campaign::{Backend, Campaign, CampaignReport, Jobs};
use fmossim::circuits::{Ram, RippleAdder};
use fmossim::concurrent::{
    ConcurrentConfig, ConcurrentSim, GoodTape, Pattern, Phase, PhaseSource, TapeStream,
};
use fmossim::faults::FaultUniverse;
use fmossim::netlist::{Network, NodeId};
use fmossim::par::{ParallelConfig, ParallelSim, ShardStrategy};
use fmossim::testgen::zoo::{build_zoo, ZOO, ZOO_SEED};
use fmossim::testgen::TestSequence;
use std::ops::ControlFlow;

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

fn detection_keys(detections: &[fmossim::concurrent::Detection]) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<_> = detections
        .iter()
        .map(|d| (d.fault.index(), d.pattern, d.phase))
        .collect();
    v.sort_unstable();
    v
}

/// Every zoo member, scalar and packed: the phases a leader publishes
/// while running live are, field by field, the phases
/// `GoodTape::record` records (members, the rest of the support,
/// changes, damping, rounds), and the leader's own detections are a
/// plain live run's. The stream has one follower that reads only once
/// the leader is done, so it keeps every phase.
#[test]
fn the_leader_publishes_the_recorded_tape() {
    for (name, _) in ZOO {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_nodes(&w.net).sample(24, ZOO_SEED);
        for packing in [false, true] {
            let config = ConcurrentConfig {
                packing,
                ..ConcurrentConfig::paper()
            };
            let stream = TapeStream::new(1);
            let led = ConcurrentSim::new(&w.net, universe.faults(), config).run_leading(
                &w.patterns,
                &w.outputs,
                stream.lead(),
            );
            let live =
                ConcurrentSim::new(&w.net, universe.faults(), config).run(&w.patterns, &w.outputs);
            assert_eq!(led.detections, live.detections, "{name} packing={packing}");

            let recorded = GoodTape::record(&w.net, &w.patterns, config.engine);
            let (mut published, mut expected) = (stream.reader(), recorded.reader());
            let mut phase = 0;
            while let Some(want) = expected.next_phase() {
                let got = published
                    .next_phase()
                    .unwrap_or_else(|| panic!("{name}: phase {phase} not published"));
                let at = format!("{name} packing={packing} phase {phase}");
                assert_eq!(got.num_groups(), want.num_groups(), "{at}");
                for (g, h) in got.groups().zip(want.groups()) {
                    assert_eq!(g.members, h.members, "{at}");
                    assert_eq!(g.support_rest, h.support_rest, "{at}");
                    assert_eq!(g.changed, h.changed, "{at}");
                }
                assert_eq!(got.changes(), want.changes(), "{at}");
                assert_eq!(
                    (got.damped(), got.rounds()),
                    (want.damped(), want.rounds()),
                    "{at}"
                );
                phase += 1;
            }
            assert!(published.next_phase().is_none(), "{name}: extra phases");
            assert_eq!(stream.stats().groups, recorded.num_groups(), "{name}");
            assert_eq!(stream.stats().peak_bytes, recorded.heap_bytes(), "{name}");
        }
    }
}

/// Led runs on the zoo against a single shard: one worker running
/// three shards in line (the leader first, the stream keeping every
/// phase for the followers), and four shards on two workers (late
/// followers reading retained phases).
#[test]
fn led_runs_match_a_single_shard_on_the_zoo() {
    for (name, _) in ZOO {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_nodes(&w.net).sample(24, ZOO_SEED);
        let single = ParallelSim::new(&w.net, universe.clone(), ParallelConfig::paper(1))
            .run(&w.patterns, &w.outputs);
        let whole = GoodTape::record(&w.net, &w.patterns, ConcurrentConfig::paper().engine);
        for (jobs, shards) in [(1, 3), (2, 4)] {
            let config = ParallelConfig {
                shards: Some(shards),
                ..ParallelConfig::paper(jobs)
            };
            let run = ParallelSim::new(&w.net, universe.clone(), config).run_streaming(
                &w.patterns,
                &w.outputs,
                |_, _| ControlFlow::Continue(()),
            );
            let at = format!("{name} jobs={jobs} shards={shards}");
            assert_eq!(
                detection_keys(&run.report.detections),
                detection_keys(&single.detections),
                "{at}"
            );
            let tape = run.tape.expect("a led run");
            assert_eq!(tape.replayed_shards, shards - 1, "{at}");
            assert_eq!(tape.groups, whole.num_groups(), "{at}");
            assert_eq!(tape.record_seconds, 0.0, "{at}");
            assert!(tape.heap_bytes <= whole.heap_bytes(), "{at}");
            if jobs == 1 {
                assert_eq!(tape.heap_bytes, whole.heap_bytes(), "{at}: all kept");
                assert_eq!(tape.wait_seconds, 0.0, "{at}: nobody waits");
            }
        }
    }
}
