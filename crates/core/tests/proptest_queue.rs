//! Property tests for the flat event queue's drain-order invariant
//! (see `crates/core/src/arena.rs`): the deterministic schedule —
//! ascending circuit runs, each with sorted, deduplicated seed nodes —
//! is a pure function of the *scheduled set*, never of insertion
//! order or construction history.
//!
//! The queue itself is crate-private, so the properties are asserted
//! through the public simulator API over random netlists:
//!
//! 1. **Replay determinism** — two simulators over the identical
//!    workload agree bit for bit at every pattern boundary: per-pattern
//!    statistics, every circuit's state on every node, detections,
//!    record counts. One side steps patterns by hand, the other uses
//!    [`ConcurrentSim::run`], so the convenience wrapper is locked to
//!    the stepping loop at the same time.
//!
//! Oscillating (X-damped) cases are *not* skipped: damping is only
//! schedule-dependent across *different* schedulers, and both sides of
//! the property run the same one — determinism must hold regardless.

use fmossim_core::{ConcurrentConfig, ConcurrentSim, Pattern, Phase};
use fmossim_faults::{FaultId, FaultUniverse};
use fmossim_netlist::{Drive, Logic, Network, NodeId, Size, TransistorType};
use proptest::prelude::*;

/// A random-netlist blueprint: everything is generated as plain data
/// so proptest can shrink failing cases structurally.
#[derive(Clone, Debug)]
struct CaseSpec {
    num_inputs: usize,
    /// Per-storage-node: use the larger capacitance class?
    storage: Vec<bool>,
    /// `(kind, gate, source, drain)` — indices are reduced modulo the
    /// relevant node-list length when the network is built.
    transistors: Vec<(u8, usize, usize, usize)>,
    /// Per-pattern, per-input drive selector: `0` is `X`, other values
    /// below 6 alternate `L`/`H`, and 6+ leaves the input alone.
    patterns: Vec<Vec<u8>>,
    output: usize,
}

fn arb_case() -> impl Strategy<Value = CaseSpec> {
    (
        1usize..=3,
        prop::collection::vec(any::<bool>(), 2..=6),
        prop::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 3..=14),
        prop::collection::vec(prop::collection::vec(0u8..12, 3), 2..=5),
        0usize..64,
    )
        .prop_map(
            |(num_inputs, storage, transistors, patterns, output)| CaseSpec {
                num_inputs,
                storage,
                transistors,
                patterns,
                output,
            },
        )
}

struct Case {
    net: Network,
    patterns: Vec<Pattern>,
    outputs: Vec<NodeId>,
}

/// Deterministically realises a blueprint as a network + workload
/// (same shape as the seeded fuzz generator in `fuzz_equivalence.rs`,
/// biased towards n-type like real nMOS).
fn build(spec: &CaseSpec) -> Case {
    let mut net = Network::new();
    net.add_input("Vdd", Logic::H);
    net.add_input("Gnd", Logic::L);
    let inputs: Vec<NodeId> = (0..spec.num_inputs)
        .map(|i| net.add_input(format!("I{i}"), Logic::L))
        .collect();
    let storage: Vec<NodeId> = spec
        .storage
        .iter()
        .enumerate()
        .map(|(i, &big)| net.add_storage(format!("S{i}"), if big { Size::S2 } else { Size::S1 }))
        .collect();
    let all: Vec<NodeId> = net.node_ids().collect();
    for &(kind, gate, source, drain) in &spec.transistors {
        let ttype = match kind {
            0 => TransistorType::P,
            1 => TransistorType::D,
            _ => TransistorType::N,
        };
        let strength = if ttype == TransistorType::D {
            Drive::D1
        } else {
            Drive::D2
        };
        let gate = all[gate % all.len()];
        let source = all[source % all.len()];
        let drain = storage[drain % storage.len()];
        if source != drain {
            net.add_transistor(ttype, strength, gate, source, drain);
        }
    }
    let patterns = spec
        .patterns
        .iter()
        .map(|row| {
            let assignments: Vec<(NodeId, Logic)> = inputs
                .iter()
                .zip(row)
                .filter_map(|(&n, &v)| {
                    let logic = match v {
                        0 => Logic::X,
                        k if k >= 6 => return None,
                        k if k % 2 == 0 => Logic::L,
                        _ => Logic::H,
                    };
                    Some((n, logic))
                })
                .collect();
            Pattern::new(vec![Phase::strobe(assignments)])
        })
        .collect();
    let outputs = vec![storage[spec.output % storage.len()]];
    Case {
        net,
        patterns,
        outputs,
    }
}

/// Every observable of a simulator at a pattern boundary: each
/// circuit's value on each node. Any schedule divergence whatsoever
/// ends up visible here (or in the counters asserted alongside).
fn fingerprint(sim: &ConcurrentSim, net: &Network, num_faults: usize) -> Vec<Vec<Logic>> {
    (0..num_faults)
        .map(|k| {
            let f = FaultId(u32::try_from(k).expect("fault id fits"));
            net.node_ids().map(|n| sim.fault_state(f, n)).collect()
        })
        .collect()
}

fn config() -> ConcurrentConfig {
    // Keep drop-on-detect active: dropping reclaims records mid-run,
    // which is exactly the kind of history the recycling property must
    // show to be invisible. The default packed lanes are part of the
    // arena, so recycling must not show through them either.
    ConcurrentConfig::paper()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay determinism: hand-stepped and `run()`-driven simulators
    /// over the same workload are bit-identical at every boundary.
    #[test]
    fn identical_workloads_replay_bit_identical(spec in arb_case()) {
        let case = build(&spec);
        let universe = FaultUniverse::stuck_nodes(&case.net);
        let faults = universe.faults();
        prop_assume!(!faults.is_empty());

        let mut stepped = ConcurrentSim::new(&case.net, faults, config());
        let mut driven = ConcurrentSim::new(&case.net, faults, config());

        let mut stepped_stats = Vec::new();
        for (pi, p) in case.patterns.iter().enumerate() {
            let mut s = stepped.step_pattern(p, &case.outputs, pi);
            s.seconds = 0.0;
            stepped_stats.push(s);
        }
        let report = driven.run(&case.patterns, &case.outputs);
        let driven_stats: Vec<_> = report
            .patterns
            .iter()
            .map(|s| {
                let mut s = *s;
                s.seconds = 0.0;
                s
            })
            .collect();

        prop_assert_eq!(stepped_stats, driven_stats, "per-pattern stats diverged");
        prop_assert_eq!(stepped.detections(), driven.detections());
        prop_assert_eq!(stepped.live(), driven.live());
        prop_assert_eq!(stepped.record_count(), driven.record_count());
        prop_assert_eq!(
            fingerprint(&stepped, &case.net, faults.len()),
            fingerprint(&driven, &case.net, faults.len()),
            "full circuit state diverged"
        );
    }
}
