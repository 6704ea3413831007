//! Differential conformance for campaign-level fault collapsing
//! (`Campaign::collapse`): a collapsed campaign — static equivalence
//! classes simulated one representative each, detections fanned back
//! out at report time — must be
//! **bit-identical** to the uncollapsed campaign it replaces. Same
//! detection set, same live (undetected) set, same per-fault first
//! detection `(pattern, phase)`, same per-pattern `detected` /
//! `live_before` counters, across the whole zoo and every
//! concurrent-family backend under `DetectionPolicy::DefiniteOnly`
//! (the policy under which detection is provably
//! schedule-independent; see `tests/campaign_api.rs`).
//!
//! The full universes run un-sampled: seeded sampling keeps either
//! member of a structural pair independently, which dissolves exactly
//! the equivalence classes this suite exists to exercise.
//!
//! A property test over random netlists (offline proptest shim) then
//! checks the collapsing rules at their root: every member of a
//! computed class, simulated *individually* and uncollapsed, detects
//! at exactly the pattern/phase set of its representative.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, ParallelConfig,
    ShardStrategy,
};
use fmossim::concurrent::Pattern;
use fmossim::faults::{CollapseClasses, FaultId, FaultUniverse};
use fmossim::netlist::{Network, NodeId};
use fmossim::testgen::zoo::{build_zoo, ZOO};
use fmossim::testgen::{RandomNetSpec, RandomNetlist};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Debug-mode pattern budget per workload; the universes themselves
/// are never cut (see the module docs).
const PATTERN_CAP: usize = 24;

/// The concurrent-family matrix: collapsing routes through the
/// campaign's universe/fan-out seam identically for all of them, but
/// sharding and lane packing each interact with the collapsed
/// universe differently enough to earn a row.
fn backend_for(label: &str) -> Backend {
    let sim = ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    };
    match label {
        "concurrent" => Backend::Concurrent(sim),
        "packed" => Backend::Concurrent(ConcurrentConfig {
            packing: true,
            ..sim
        }),
        "parallel-k2" => Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(2),
            sim,
            ..ParallelConfig::default()
        }),
        "batched-k2" => Backend::Parallel(ParallelConfig {
            jobs: Jobs::Fixed(2),
            batch: 8,
            strategy: ShardStrategy::CostEstimated,
            sim,
            ..ParallelConfig::default()
        }),
        other => panic!("unknown backend label {other}"),
    }
}

const BACKENDS: [&str; 4] = ["concurrent", "packed", "parallel-k2", "batched-k2"];

fn run_campaign(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
    label: &str,
    collapse: bool,
) -> CampaignReport {
    Campaign::new(net)
        .faults(universe.clone())
        .patterns(patterns)
        .outputs(outputs)
        .backend(backend_for(label))
        .collapse(collapse)
        .pattern_limit(PATTERN_CAP)
        .run()
}

/// Per-fault first detection site — the strongest per-fault
/// observable a campaign report exposes.
fn detection_table(r: &CampaignReport) -> BTreeMap<u32, (usize, usize)> {
    let mut table = BTreeMap::new();
    for d in r.detections() {
        table.entry(d.fault.0).or_insert((d.pattern, d.phase));
    }
    table
}

/// The canonical detection multiset (sorted keys): order-insensitive,
/// content-exact.
fn canonical(r: &CampaignReport) -> Vec<String> {
    let mut keys: Vec<String> = r
        .detections()
        .iter()
        .map(fmossim::concurrent::Detection::canonical_key)
        .collect();
    keys.sort_unstable();
    keys
}

fn assert_collapse_equivalence(
    name: &str,
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) {
    for label in BACKENDS {
        let plain = run_campaign(net, universe, patterns, outputs, label, false);
        let collapsed = run_campaign(net, universe, patterns, outputs, label, true);

        // The report must describe the *full* universe either way.
        assert_eq!(
            collapsed.run.num_faults,
            universe.len(),
            "{name}/{label}: collapsed report must count parent faults"
        );
        assert!(
            plain.collapse.is_none(),
            "{name}/{label}: an uncollapsed report must not carry collapse stats"
        );
        let cstats = collapsed
            .collapse
            .unwrap_or_else(|| panic!("{name}/{label}: collapsed report archives class stats"));
        assert_eq!(cstats.total_faults, universe.len(), "{name}/{label}");
        assert!(
            cstats.simulated_faults <= cstats.total_faults,
            "{name}/{label}: representatives cannot outnumber faults"
        );

        // Detection set, per-fault detection site, live set.
        assert_eq!(
            canonical(&collapsed),
            canonical(&plain),
            "{name}/{label}: detection sets diverged"
        );
        assert_eq!(
            detection_table(&collapsed),
            detection_table(&plain),
            "{name}/{label}: per-fault detection sites diverged"
        );
        let live = |r: &CampaignReport| -> BTreeSet<u32> {
            let detected: BTreeSet<u32> = r.detections().iter().map(|d| d.fault.0).collect();
            (0..u32::try_from(universe.len()).expect("universe fits"))
                .filter(|k| !detected.contains(k))
                .collect()
        };
        assert_eq!(
            live(&collapsed),
            live(&plain),
            "{name}/{label}: live (undetected) sets diverged"
        );

        // Per-pattern statistics: the fan-out rewrite must restore the
        // exact uncollapsed trajectory, not merely the final totals.
        assert_eq!(
            collapsed.run.patterns.len(),
            plain.run.patterns.len(),
            "{name}/{label}: pattern counts diverged"
        );
        for (i, (c, p)) in collapsed
            .run
            .patterns
            .iter()
            .zip(&plain.run.patterns)
            .enumerate()
        {
            assert_eq!(
                (c.detected, c.live_before),
                (p.detected, p.live_before),
                "{name}/{label}: pattern {i} counters diverged"
            );
        }
    }
}

/// The full matrix over every registry member, full stuck-node
/// universes.
#[test]
fn every_zoo_member_collapses_bit_identically() {
    for (name, _) in ZOO {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_nodes(&w.net);
        assert_collapse_equivalence(name, &w.net, &universe, &w.patterns, &w.outputs);
    }
}

/// The stuck-transistor class on the combinational members — the
/// series stuck-open rule (R2) only fires on transistor faults, so
/// this is where the structural pairs actually live. (The sequential
/// members' transistor faults can enable charge races that break
/// cross-run determinism independent of collapsing; the combinational
/// subset is race-free, as in `tests/zoo_equivalence.rs`.)
#[test]
fn combinational_members_collapse_transistor_faults_bit_identically() {
    for name in ["adder8", "alu4", "rand-small", "rand-wide"] {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_transistors(&w.net).without_redundant(&w.net);
        assert_collapse_equivalence(name, &w.net, &universe, &w.patterns, &w.outputs);
    }
}

// ---------------------------------------------------------------------
// Property test: the collapsing rules themselves, at the root.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random netlist and its full mixed fault universe, every
    /// member of every computed equivalence class — simulated
    /// *individually*, in a one-fault uncollapsed campaign — detects
    /// at exactly the (pattern, phase) sequence of its class
    /// representative. This is collapsing's soundness claim with no
    /// fan-out machinery in the loop at all.
    #[test]
    fn class_members_detect_exactly_like_their_representative(seed in 0u64..10_000) {
        let rn = RandomNetlist::generate(RandomNetSpec::small(seed));
        let net = rn.network();
        let universe = FaultUniverse::stuck_nodes(net)
            .union(FaultUniverse::stuck_transistors(net));
        let patterns = rn.patterns(8, seed ^ 0xBEEF);
        let outputs = rn.observed_outputs();

        let mut assigned: Vec<NodeId> = patterns
            .iter()
            .flat_map(|p| &p.phases)
            .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
            .collect();
        assigned.sort_unstable();
        assigned.dedup();
        let classes = CollapseClasses::analyze(net, &universe, outputs, &assigned);
        prop_assume!(classes.num_collapsed_classes() > 0);

        // One-fault campaigns have no cross-fault interaction by
        // construction, so per-member detection sequences are the pure
        // behaviour of that fault.
        let solo = |fault: FaultId| -> Vec<(usize, usize)> {
            let one = universe.subset(&[fault]);
            run_campaign(net, &one, &patterns, outputs, "concurrent", false)
                .detections()
                .iter()
                .map(|d| (d.pattern, d.phase))
                .collect()
        };
        for k in 0..classes.num_representatives() {
            let members = classes.members_of(FaultId(u32::try_from(k).expect("fits")));
            if members.len() < 2 {
                continue;
            }
            let reference = solo(members[0]);
            for &m in &members[1..] {
                prop_assert_eq!(
                    &solo(m),
                    &reference,
                    "seed {}: fault {:?} diverged from representative {:?}",
                    seed,
                    m,
                    members[0]
                );
            }
        }
    }
}
