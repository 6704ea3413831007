//! Record/replay equivalence: a parallel campaign that replays the
//! recorded good-machine tape must be **bit-identical** to the same
//! shard plan run through the shard executor without a tape, where
//! every shard re-settles the good circuit — same detection sequence
//! (canonical order), same per-pattern counters, same coverage —
//! across shard counts and the benchmark circuits.
//! A property test over random small netlists (offline proptest shim)
//! covers topologies the fixtures do not.

use fmossim::campaign::{Backend, Campaign, CampaignReport};
use fmossim::circuits::{Ram, RippleAdder};
use fmossim::concurrent::{ConcurrentConfig, ConcurrentSim, GoodTape, Pattern, Phase, RunReport};
use fmossim::faults::FaultUniverse;
use fmossim::netlist::{Drive, Logic, Network, NodeId, Size, TransistorType};
use fmossim::par::{
    run_shards, Jobs, ParallelConfig, ParallelSim, ScopedPool, ShardPlan, ShardWork,
};
use fmossim::telemetry::Registry;
use fmossim::testgen::TestSequence;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::Arc;

const SEED: u64 = 850_715;

/// Everything of a report that must not depend on the execution
/// strategy: detections in their canonical emitted order, the fault
/// count, and the per-pattern counters (everything but wall time).
fn fingerprint(r: &RunReport) -> (Vec<String>, usize, Vec<String>) {
    let detections = r
        .detections
        .iter()
        .map(fmossim::concurrent::Detection::canonical_key)
        .collect();
    let patterns = r
        .patterns
        .iter()
        .map(|p| {
            format!(
                "d{} l{} g{} f{} c{} o{}",
                p.detected,
                p.live_before,
                p.good_groups,
                p.faulty_groups,
                p.circuit_settles,
                p.damped
            )
        })
        .collect();
    (detections, r.num_faults, patterns)
}

fn run_campaign(
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
        // The reference recomputes the plan over the full universe, and
        // per-pattern `faulty_groups` count graded faults: grade them
        // all here too.
        .collapse(false)
        .run()
}

/// `plan` run through the shard executor without a tape — every shard
/// settles the good circuit itself — merged in shard order, as the
/// parallel driver merges.
fn recompute(
    net: &Network,
    universe: &FaultUniverse,
    plan: &ShardPlan,
    patterns: &[Pattern],
    outputs: &[NodeId],
    sim: ConcurrentConfig,
) -> RunReport {
    let work = ShardWork::new(net, universe, plan, patterns, outputs, sim);
    assert!(work.tape.is_none());
    let mut results = Vec::new();
    run_shards(
        &ScopedPool::new(plan.num_shards()),
        Arc::new(work),
        &Registry::null(),
        |r| {
            results.push(r);
            ControlFlow::Continue(())
        },
    );
    results.sort_unstable_by_key(|r| r.shard);
    let mut report = RunReport::merge(results.into_iter().map(|r| r.report));
    report.num_faults = universe.len();
    report
}

/// The property: for K ∈ {1, 2, 4}, the campaign equals the same plan recomputed without a tape, bit for
/// bit, and records a tape iff it has more than one shard.
fn assert_replay_equivalence(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) {
    for k in [1usize, 2, 4] {
        let replay = run_campaign(net, universe, patterns, outputs, k);
        let shards = replay.shards.expect("parallel backend reports shards");
        // The plan `Jobs::Fixed(k)` gives the campaign: k shards.
        let plan = ShardPlan::build(universe, k);
        assert_eq!(plan.num_shards(), shards);
        let reference = recompute(
            net,
            universe,
            &plan,
            patterns,
            outputs,
            ConcurrentConfig::paper(),
        );
        assert_eq!(
            fingerprint(&replay.run),
            fingerprint(&reference),
            "K={k}: replay diverged from recompute"
        );
        assert_eq!(
            replay.tape_record_seconds.is_some(),
            shards > 1,
            "K={k}: tape recorded iff it amortises"
        );
    }
}

#[test]
fn ram4x4_replay_is_bit_identical() {
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::full(&ram);
    assert_replay_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

#[test]
fn ram64_replay_is_bit_identical() {
    // The paper's RAM64 on its march sequence; the universe is sampled
    // to keep the debug-mode sweep quick (sampling is seeded —
    // same faults every run).
    let ram = Ram::new(8, 8);
    let universe = FaultUniverse::stuck_nodes(ram.network()).sample(48, SEED);
    let seq = TestSequence::march_only(&ram);
    let reference = run_campaign(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
        2,
    );
    assert!(reference.detected() > 0, "workload must detect something");
    assert_replay_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
}

#[test]
fn adder_replay_is_bit_identical() {
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
    assert_replay_equivalence(
        adder.network(),
        &universe,
        &patterns,
        &adder.observed_outputs(),
    );
}

// ---------------------------------------------------------------------
// Property test: random small netlists.
// ---------------------------------------------------------------------

struct RandomCase {
    net: Network,
    outputs: Vec<NodeId>,
    patterns: Vec<Pattern>,
}

/// Random switch network + stimulus, in the style of the core fuzz
/// suite: nMOS-biased transistors over a handful of storage nodes,
/// with occasional X stimulus. Replay equality needs no race or
/// oscillation filtering — both sides run the *same* algorithm, so the
/// comparison is exact even on pathological circuits.
fn random_case(seed: u64) -> RandomCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.add_input("Vdd", Logic::H);
    net.add_input("Gnd", Logic::L);
    let num_inputs = rng.gen_range(1..=3);
    let inputs: Vec<NodeId> = (0..num_inputs)
        .map(|i| net.add_input(format!("I{i}"), Logic::L))
        .collect();
    let num_storage = rng.gen_range(2..=6);
    let storage: Vec<NodeId> = (0..num_storage)
        .map(|i| {
            let size = if rng.gen_bool(0.25) {
                Size::S2
            } else {
                Size::S1
            };
            net.add_storage(format!("S{i}"), size)
        })
        .collect();
    let all: Vec<NodeId> = net.node_ids().collect();
    for _ in 0..rng.gen_range(3..=12) {
        let ttype = match rng.gen_range(0..6) {
            0 => TransistorType::P,
            1 => TransistorType::D,
            _ => TransistorType::N,
        };
        let strength = if ttype == TransistorType::D {
            Drive::D1
        } else {
            Drive::D2
        };
        let gate = all[rng.gen_range(0..all.len())];
        let source = all[rng.gen_range(0..all.len())];
        let drain = storage[rng.gen_range(0..storage.len())];
        if source == drain {
            continue;
        }
        net.add_transistor(ttype, strength, gate, source, drain);
    }
    let outputs = vec![storage[rng.gen_range(0..storage.len())]];
    let num_patterns = rng.gen_range(2..=5);
    let mut patterns = Vec::with_capacity(num_patterns);
    for _ in 0..num_patterns {
        let mut assignments: Vec<(NodeId, Logic)> = Vec::new();
        for &n in &inputs {
            if !rng.gen_bool(0.8) {
                continue;
            }
            let v = match rng.gen_range(0..8) {
                0 => Logic::X,
                k if k % 2 == 0 => Logic::L,
                _ => Logic::H,
            };
            assignments.push((n, v));
        }
        patterns.push(Pattern::new(vec![Phase::strobe(assignments)]));
    }
    RandomCase {
        net,
        outputs,
        patterns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Driver-level check on random netlists: a replayed `ParallelSim`
    /// run and a recompute run produce identical detection sequences
    /// and counters, and a raw `ConcurrentSim::run_replayed` against a
    /// fresh tape matches `ConcurrentSim::run`.
    #[test]
    fn random_netlists_replay_bit_identical(seed in 0u64..10_000) {
        let case = random_case(seed);
        let universe = FaultUniverse::stuck_nodes(&case.net)
            .union(FaultUniverse::stuck_transistors(&case.net))
            .sample(10, seed);
        prop_assume!(!universe.faults().is_empty());

        // Raw simulator comparison.
        let config = ConcurrentConfig::paper();
        let mut live = ConcurrentSim::new(&case.net, universe.faults(), config);
        let live_report = live.run(&case.patterns, &case.outputs);
        let tape = GoodTape::record(&case.net, &case.patterns, config.engine);
        let mut replayed = ConcurrentSim::new(&case.net, universe.faults(), config);
        let replay_report = replayed.run_replayed(&case.patterns, &case.outputs, &tape);
        prop_assert_eq!(&replay_report.detections, &live_report.detections,
            "seed={} raw replay detections diverged", seed);
        prop_assert_eq!(replayed.live(), live.live());
        prop_assert_eq!(replayed.record_count(), live.record_count());
        for (r, l) in replay_report.patterns.iter().zip(&live_report.patterns) {
            prop_assert_eq!(
                (r.detected, r.live_before, r.good_groups, r.faulty_groups,
                 r.circuit_settles, r.damped),
                (l.detected, l.live_before, l.good_groups, l.faulty_groups,
                 l.circuit_settles, l.damped),
                "seed={} pattern counters diverged", seed);
        }

        // Driver-level comparison at two shards.
        let pconfig = ParallelConfig {
            jobs: Jobs::Fixed(2),
            sim: config,
            ..ParallelConfig::default()
        };
        let sim = ParallelSim::new(&case.net, universe.clone(), pconfig);
        let replay = sim.run(&case.patterns, &case.outputs);
        let reference =
            recompute(&case.net, &universe, sim.plan(), &case.patterns, &case.outputs, config);
        prop_assert_eq!(&replay.detections, &reference.detections,
            "seed={} sharded replay detections diverged", seed);
    }
}
