//! Lane equivalence: the bit-parallel packed evaluation path (the
//! `ConcurrentConfig::paper` default) must be **bit-identical** to the
//! scalar concurrent path (`packing: false`) after **every phase** —
//! same per-fault node states, record population, live set and
//! detections, and the same per-circuit work (`faulty_groups`,
//! `circuit_settles`, `core.events_scheduled`,
//! `core.settles.redundant`, `core.settles.redundant.stuck_node`) and
//! the same per-vicinity `switch.*` metrics (`switch.vicinity.solves`,
//! `switch.nodes_changed`, `switch.solve_group.size`). The packed engine
//! promises each lane takes its seeds in its own scalar order
//! (per-lane pending/solved/damping masks, per-lane queue order,
//! structure-divergence eviction re-solved in place), so the comparison
//! is exact even on pathological circuits — no race or oscillation
//! filtering needed, both sides run the *same* per-lane algorithm.
//! An end-of-run comparison alone is not enough: a lane can diverge
//! mid-run and heal before the last pattern (the `ram64` regression).
//!
//! A property test over random small netlists (offline proptest shim)
//! covers charge-sharing, ratioed-fight and oscillating topologies the
//! zoo fixtures do not; `tests/zoo_equivalence.rs` carries the packed
//! default and a scalar row through the cross-backend campaign matrix.

use fmossim::concurrent::{
    ConcurrentConfig, ConcurrentSim, Pattern, PatternStats, Phase, RunReport,
};
use fmossim::faults::{Fault, FaultId, FaultUniverse};
use fmossim::netlist::{Drive, Logic, Network, NodeId, Size, TransistorType};
use fmossim::telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-circuit work counters of one phase: what [`PatternStats`]
/// reports plus the registry's `core.*` work counters.
fn phase_work(stats: &PatternStats, reg: &Registry) -> [u64; 11] {
    let snap = reg.snapshot();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    [
        stats.detected as u64,
        stats.good_groups as u64,
        stats.faulty_groups as u64,
        stats.circuit_settles as u64,
        c("core.events_scheduled"),
        c("core.circuit.settles"),
        c("core.faulty.groups"),
        c("core.settles.redundant"),
        c("core.settles.redundant.stuck_node"),
        c("core.trigger.solves"),
        c("core.trigger.cleared"),
    ]
}

/// The per-vicinity `switch.*` metrics of one phase: vicinity solves,
/// node changes, and the solve-group size histogram's count and sum.
/// The packed engine feeds them once per kept lane, so they read the
/// same as the scalar engine's.
fn switch_work(reg: &Registry) -> [u64; 4] {
    let snap = reg.snapshot();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let sizes = snap.histograms.get("switch.solve_group.size");
    [
        c("switch.vicinity.solves"),
        c("switch.nodes_changed"),
        sizes.map_or(0, |h| h.count),
        sizes.map_or(0, |h| h.sum),
    ]
}

/// Runs the same workload scalar (`packing: false`) and packed (the
/// default) and asserts they are identical **after every phase**: each
/// fault's state at every node, the record population, the live set,
/// the detections and the per-circuit work counters (`faulty_groups`
/// and `circuit_settles` from the phase stats; `core.events_scheduled`,
/// `core.circuit.settles`, `core.faulty.groups`,
/// `core.settles.redundant`, `core.settles.redundant.stuck_node`,
/// `core.trigger.solves` and `core.trigger.cleared` from the registry).
/// Then it runs both end to end and compares the reports. Returns the
/// scalar report and the number of multi-lane packed solves.
fn assert_lane_equivalence(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) -> (RunReport, u64) {
    let packed_cfg = ConcurrentConfig::paper();
    assert!(packed_cfg.packing, "the paper config packs by default");
    let scalar_cfg = ConcurrentConfig {
        packing: false,
        ..packed_cfg
    };
    let mut scalar = ConcurrentSim::new(net, universe.faults(), scalar_cfg);
    let mut packed = ConcurrentSim::new(net, universe.faults(), packed_cfg);
    let mut packed_solves = 0;
    for (pi, pattern) in patterns.iter().enumerate() {
        for (phi, phase) in pattern.phases.iter().enumerate() {
            let (s_reg, p_reg) = (Registry::new(), Registry::new());
            scalar.attach_metrics(&s_reg);
            packed.attach_metrics(&p_reg);
            let (mut s_stats, mut p_stats) = (PatternStats::default(), PatternStats::default());
            scalar.step_phase(phase, outputs, pi, phi, &mut s_stats);
            packed.step_phase(phase, outputs, pi, phi, &mut p_stats);
            scalar.flush_metrics();
            packed.flush_metrics();
            let at = format!("pattern {pi} phase {phi}");
            for k in 0..u32::try_from(universe.len()).expect("universe fits") {
                let f = FaultId(k);
                for n in net.node_ids() {
                    assert_eq!(
                        packed.fault_state(f, n),
                        scalar.fault_state(f, n),
                        "{at}: fault {k} diverged at node {} ({n:?})",
                        net.node(n).name,
                    );
                }
            }
            assert_eq!(
                packed.record_count(),
                scalar.record_count(),
                "{at}: record population diverged"
            );
            assert_eq!(packed.live(), scalar.live(), "{at}: live sets diverged");
            assert_eq!(
                packed.detections(),
                scalar.detections(),
                "{at}: detections diverged"
            );
            assert_eq!(
                phase_work(&p_stats, &p_reg),
                phase_work(&s_stats, &s_reg),
                "{at}: work counters diverged \
                 [detected, good, faulty groups, settles, events, settles, groups, \
                 redundant, redundant stuck-node, trigger solves, trigger cleared]"
            );
            assert_eq!(
                switch_work(&p_reg),
                switch_work(&s_reg),
                "{at}: switch metrics diverged \
                 [vicinity solves, nodes changed, group-size count, group-size sum]"
            );
            assert_eq!(p_stats.damped, s_stats.damped, "{at}: damping diverged");
            packed_solves += p_reg
                .snapshot()
                .counters
                .get("switch.packed_solves")
                .copied()
                .unwrap_or(0);
        }
    }

    // End of run, through `run` with registries attached: the same
    // reports, counter for counter, and the same `switch.*` work.
    let (s_reg, p_reg) = (Registry::new(), Registry::new());
    let mut scalar = ConcurrentSim::new(net, universe.faults(), scalar_cfg);
    scalar.attach_metrics(&s_reg);
    let s_rep = scalar.run(patterns, outputs);
    let mut packed = ConcurrentSim::new(net, universe.faults(), packed_cfg);
    packed.attach_metrics(&p_reg);
    let p_rep = packed.run(patterns, outputs);
    assert_eq!(
        switch_work(&p_reg),
        switch_work(&s_reg),
        "whole run: switch metrics diverged"
    );
    assert!(switch_work(&s_reg)[0] > 0, "the run solves vicinities");
    assert_eq!(p_rep.detections, s_rep.detections, "detections diverged");
    assert_eq!(packed.live(), scalar.live(), "live sets diverged");
    assert_eq!(
        packed.record_count(),
        scalar.record_count(),
        "record population diverged"
    );
    for (p, s) in p_rep.patterns.iter().zip(&s_rep.patterns) {
        assert_eq!(
            (
                p.detected,
                p.live_before,
                p.good_groups,
                p.faulty_groups,
                p.circuit_settles,
                p.damped
            ),
            (
                s.detected,
                s.live_before,
                s.good_groups,
                s.faulty_groups,
                s.circuit_settles,
                s.damped
            ),
            "pattern counters diverged"
        );
    }
    (s_rep, packed_solves)
}

// ---------------------------------------------------------------------
// Deterministic fixtures: the shapes packing targets.
// ---------------------------------------------------------------------

#[test]
fn ram_lanes_match_scalar_bit_for_bit() {
    use fmossim::circuits::Ram;
    use fmossim::testgen::TestSequence;
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::march_only(&ram);
    let (s_rep, packed_solves) = assert_lane_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
    assert!(
        s_rep.detections.len() > universe.len() / 2,
        "workload must exercise the fault machinery"
    );
    assert!(packed_solves > 0, "workload must share lanes");
}

#[test]
fn transistor_fault_lanes_match_scalar() {
    use fmossim::circuits::RippleAdder;
    let adder = RippleAdder::new(2);
    let universe =
        FaultUniverse::stuck_transistors(adder.network()).without_redundant(adder.network());
    let patterns: Vec<Pattern> = (0..4u64)
        .map(|a| {
            Pattern::new(vec![Phase::strobe(adder.operand_assignments(
                a,
                3 - a,
                false,
            ))])
        })
        .collect();
    assert_lane_equivalence(
        adder.network(),
        &universe,
        &patterns,
        &adder.observed_outputs(),
    );
}

/// Regression: on `ram64`, with `AT3` and `AT4` stuck-at-0 packed into
/// one chunk, the `AT4` lane used to read `WBL0 = H` after pattern 5
/// phase 0 where its scalar settle (and a one-fault simulator) reads
/// `L`; the wrong state spread to `S7_0` and `M7_0` and healed only
/// later, so an end-of-run comparison missed it.
#[test]
fn ram64_address_pair_lanes_match_scalar_every_phase() {
    use fmossim::testgen::zoo::build_zoo;
    let w = build_zoo("ram64").expect("zoo member");
    let stuck0 = |name: &str| Fault::NodeStuck {
        node: w.net.find_node(name).expect("address line exists"),
        value: Logic::L,
    };
    let universe = FaultUniverse::from_faults(vec![stuck0("AT3"), stuck0("AT4")]);
    let (_, packed_solves) = assert_lane_equivalence(&w.net, &universe, &w.patterns, &w.outputs);
    assert!(packed_solves > 0, "the pair must share lanes");
}

/// Every zoo member, on a seeded sample of its stuck-node and
/// stuck-transistor universe and the head of its stimulus: the packed
/// default and the scalar path agree phase by phase, work counters
/// included.
#[test]
fn every_zoo_member_packs_bit_identically_per_phase() {
    use fmossim::testgen::zoo::{build_zoo, ZOO, ZOO_SEED};
    let mut packed_solves = 0;
    for (name, _) in ZOO {
        let w = build_zoo(name).expect(name);
        let universe = FaultUniverse::stuck_nodes(&w.net)
            .union(FaultUniverse::stuck_transistors(&w.net))
            .sample(48, ZOO_SEED);
        let patterns = &w.patterns[..w.patterns.len().min(32)];
        packed_solves += assert_lane_equivalence(&w.net, &universe, patterns, &w.outputs).1;
    }
    assert!(packed_solves > 0, "the zoo must share lanes");
}

// ---------------------------------------------------------------------
// Property test: random small netlists and fault universes.
// ---------------------------------------------------------------------

struct RandomCase {
    net: Network,
    outputs: Vec<NodeId>,
    patterns: Vec<Pattern>,
}

/// Random switch network + stimulus in the style of the replay
/// equivalence suite: nMOS-biased transistors over a handful of
/// storage nodes, occasional depletion loads and X stimulus — dense
/// enough that faulty circuits overlap, which is the packed lanes'
/// interesting regime.
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

    /// The property: on a random netlist with a random mixed
    /// stuck-node + stuck-transistor universe, the packed and scalar
    /// concurrent simulators agree on every detection, every record,
    /// and every per-fault node state.
    #[test]
    fn random_netlists_settle_bit_identically(seed in 0u64..10_000) {
        let case = random_case(seed);
        let universe = FaultUniverse::stuck_nodes(&case.net)
            .union(FaultUniverse::stuck_transistors(&case.net))
            .sample(12, seed);
        prop_assume!(!universe.faults().is_empty());
        assert_lane_equivalence(&case.net, &universe, &case.patterns, &case.outputs);
    }
}
