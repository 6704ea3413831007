//! Differential conformance over the benchmark circuit zoo: **every**
//! zoo workload (including the seeded random netlists) graded by
//! **every** backend — the parallel one both one-shot and batched — at
//! worker counts K ∈ {1, 2, 4} must produce
//! bit-identical canonical detection sets under
//! `DetectionPolicy::DefiniteOnly` — the policy under which detection
//! is provably schedule-independent (definite 0-vs-1 divergences are
//! forced by the logic; see `tests/campaign_api.rs` for the X-timing
//! caveat this sidesteps).
//!
//! This mirrors `tests/adaptive_equivalence.rs`, widened from one RAM
//! to the whole zoo: the conformance bed every circuit added later
//! must pass before `evalsuite` will measure it.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, ParallelConfig,
    SerialConfig, ShardStrategy,
};
use fmossim::faults::FaultUniverse;
use fmossim::testgen::zoo::{build_zoo, ZOO, ZOO_SEED};
use fmossim::testgen::{RandomNetSpec, RandomNetlist};

/// Debug-mode budget: seeded universe sample and pattern cap per
/// workload. Sampling is deterministic, so every backend grades the
/// same faults.
const FAULT_SAMPLE: usize = 16;
const PATTERN_CAP: usize = 48;

/// Canonical detection sequence — the cross-backend invariant.
fn fingerprint(r: &CampaignReport) -> Vec<String> {
    r.detections()
        .iter()
        .map(fmossim::concurrent::Detection::canonical_key)
        .collect()
}

/// serial + concurrent ± packing + {parallel, batched} × K ∈ {1, 2, 4},
/// with the packed (bit-parallel) evaluation path joining the matrix on
/// the concurrent and parallel-k2 rows — fingerprint conformance is
/// exactly the invariant the packed lanes must uphold.
fn all_backends() -> Vec<(String, Backend)> {
    let policy = DetectionPolicy::DefiniteOnly;
    let sim = ConcurrentConfig {
        policy,
        ..ConcurrentConfig::paper()
    };
    let packed = ConcurrentConfig {
        packing: true,
        ..sim
    };
    let mut backends: Vec<(String, Backend)> = vec![
        (
            "serial".into(),
            Backend::Serial(SerialConfig {
                policy,
                ..SerialConfig::paper()
            }),
        ),
        ("concurrent".into(), Backend::Concurrent(sim)),
        ("concurrent-packed".into(), Backend::Concurrent(packed)),
    ];
    for k in [1usize, 2, 4] {
        backends.push((
            format!("parallel-k{k}"),
            Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(k),
                sim,
                ..ParallelConfig::default()
            }),
        ));
        backends.push((
            format!("batched-k{k}"),
            Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(k),
                batch: 8,
                strategy: ShardStrategy::CostEstimated,
                sim,
                ..ParallelConfig::default()
            }),
        ));
    }
    backends.push((
        "parallel-k2-packed".into(),
        Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(2),
            sim: packed,
            ..ParallelConfig::default()
        }),
    ));
    backends
}

fn assert_conformance(
    name: &str,
    net: &fmossim::netlist::Network,
    universe: &FaultUniverse,
    patterns: &[fmossim::concurrent::Pattern],
    outputs: &[fmossim::netlist::NodeId],
) {
    let mut reference: Option<(String, Vec<String>)> = None;
    for (label, backend) in all_backends() {
        let report = Campaign::new(net)
            .faults(universe.clone())
            .patterns(patterns)
            .outputs(outputs)
            .backend(backend)
            .pattern_limit(PATTERN_CAP)
            .run();
        assert_eq!(report.run.num_faults, universe.len(), "{name}/{label}");
        let fp = fingerprint(&report);
        match &reference {
            None => {
                assert!(
                    report.detected() > 0,
                    "{name}/{label}: workload must detect something"
                );
                reference = Some((label, fp));
            }
            Some((ref_label, ref_fp)) => {
                assert_eq!(
                    &fp, ref_fp,
                    "{name}: {label} diverged from {ref_label} — zoo conformance broken"
                );
            }
        }
    }
}

/// The full matrix over every registry member. One test per member
/// would be nicer granularity, but the registry is data — the assert
/// messages carry the member name instead.
#[test]
fn every_zoo_member_is_backend_invariant() {
    for (name, _) in ZOO {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_nodes(&w.net).sample(FAULT_SAMPLE, ZOO_SEED);
        assert_conformance(name, &w.net, &universe, &w.patterns, &w.outputs);
    }
}

/// Random netlists beyond the two registry seeds: freshly generated
/// shapes must pass the same matrix (the generator's acyclic,
/// always-driven construction is what makes this hold — see
/// `fmossim_testgen::RandomNetlist`).
#[test]
fn extra_random_netlists_are_backend_invariant() {
    for seed in [7u64, 1_234, 98_765] {
        let rn = RandomNetlist::generate(RandomNetSpec {
            seed,
            inputs: 5,
            gates: 24,
            max_fanin: 3,
        });
        let universe = FaultUniverse::stuck_nodes(rn.network()).sample(FAULT_SAMPLE, seed);
        let patterns = rn.patterns(12, seed ^ 0xF00D);
        assert_conformance(
            &format!("randnet-{seed}"),
            rn.network(),
            &universe,
            &patterns,
            rn.observed_outputs(),
        );
    }
}

/// The stuck-transistor class on the combinational members (the
/// paper's §5 validation class; the sequential members' transistor
/// faults can enable charge races, which the stuck-node matrix above
/// deliberately avoids).
#[test]
fn combinational_members_conform_on_transistor_faults() {
    for name in ["adder8", "alu4", "rand-small"] {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_transistors(&w.net)
            .without_redundant(&w.net)
            .sample(FAULT_SAMPLE, ZOO_SEED);
        assert_conformance(name, &w.net, &universe, &w.patterns, &w.outputs);
    }
}
