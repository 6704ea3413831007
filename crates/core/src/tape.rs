//! The good-machine tape: record the fault-free circuit's activity
//! once, replay it in every shard.
//!
//! FMOSSIM's concurrent algorithm derives all faulty-circuit work from
//! the good machine's solved vicinities (triggering, old-value
//! preservation, private events). That activity is *fault-independent*:
//! the good circuit's settle is identical no matter which fault shard
//! is being graded. A [`GoodTape`] captures it — per pattern, per
//! phase, one [`SettleTape`] of solved groups — so that a replaying
//! [`ConcurrentSim`](crate::ConcurrentSim) re-derives triggered faults
//! and private events from the log instead of re-settling the good
//! circuit. This removes the dominant serial fraction of fault-parallel
//! runs: `K` shards pay for one good-machine pass instead of `K`.
//!
//! ```text
//!            record (once)                   replay (per shard)
//!   ┌──────────────────────────┐    ┌────────────────────────────────┐
//!   │ GoodTape::record         │    │ ConcurrentSim::run_replayed    │
//!   │   good settle            │    │   read tape groups             │
//!   │   └─ solved groups ──────┼──▶ │   ├─ trigger shard's faults    │
//!   │      (support, changes)  │    │   ├─ preserve old values       │
//!   │                          │    │   └─ apply recorded changes    │
//!   └──────────────────────────┘    │   settle faulty circuits only  │
//!                                   └────────────────────────────────┘
//! ```
//!
//! Replay is **bit-identical** to recompute: the triggered sets,
//! preserved old values, private event seeds and final good state are
//! derived from the tape exactly as the live settle derived them, so
//! detection sets and canonical report order never change.
//!
//! Terminology: a *tape* is a replay log of solver activity; a *trace*
//! ([`fmossim_switch::Trace`]) is a waveform. The serial baseline's
//! good-output log is [`GoodObservations`](crate::GoodObservations).

use crate::pattern::Pattern;
use fmossim_netlist::Network;
use fmossim_switch::{DenseState, Engine, EngineConfig, SettleTape};
use std::time::Instant;

/// The good machine's recorded activity for one simulation phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTape {
    /// The solved vicinities of the phase's good settle, in solve
    /// order.
    pub settle: SettleTape,
}

/// The good machine's recorded activity for a pattern sequence,
/// produced by [`GoodTape::record`] and consumed by
/// [`ConcurrentSim::run_replayed`](crate::ConcurrentSim::run_replayed).
///
/// A tape is positional: it must be replayed against the *same*
/// network and the same pattern sequence, by a simulator whose good
/// machine is at reset, where recording started.
#[derive(Clone, Debug, Default)]
pub struct GoodTape {
    /// Node count of the network the tape was recorded on (shape
    /// check).
    num_nodes: usize,
    /// `phases[pattern][phase]`, parallel to the recorded patterns.
    phases: Vec<Vec<PhaseTape>>,
    /// Wall-clock seconds the record pass took.
    record_seconds: f64,
}

impl GoodTape {
    /// Records the good machine from reset (inputs at declared
    /// defaults, storage at `X`, the initial all-storage perturbation
    /// pending — exactly how a fresh simulator starts) through
    /// `patterns`.
    #[must_use]
    pub fn record(net: &Network, patterns: &[Pattern], config: EngineConfig) -> Self {
        let t0 = Instant::now();
        let mut good = DenseState::new(net);
        let mut engine = Engine::with_config(net, config);
        engine.perturb_all_storage(&good);
        let mut phases = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            let mut phase_tapes = Vec::with_capacity(pattern.phases.len());
            for phase in &pattern.phases {
                // `apply_input` skips unchanged inputs by the same
                // `old == v` test the replaying simulator makes, so
                // record and replay agree on the change decisions
                // without a second copy of them here.
                for &(n, v) in &phase.inputs {
                    engine.apply_input(&mut good, n, v);
                }
                let mut settle = SettleTape::default();
                let rep = engine.settle_observed(&mut good, |g| settle.push_group(net, g));
                settle.finish(&rep);
                phase_tapes.push(PhaseTape { settle });
            }
            phases.push(phase_tapes);
        }
        GoodTape {
            num_nodes: net.num_nodes(),
            phases,
            record_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Node count of the network the tape was recorded on.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of recorded patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.phases.len()
    }

    /// The recorded phase tapes of pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pattern(&self, p: usize) -> &[PhaseTape] {
        &self.phases[p]
    }

    /// Total solved good-machine vicinities across the whole tape.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .map(|ph| ph.settle.num_groups())
            .sum()
    }

    /// Wall-clock seconds of the record pass.
    #[must_use]
    pub fn record_seconds(&self) -> f64 {
        self.record_seconds
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .map(|ph| ph.settle.heap_bytes())
            .sum()
    }

    /// True iff the tape's shape matches `patterns` on a network with
    /// `num_nodes` nodes — the precondition of replay.
    #[must_use]
    pub fn matches(&self, num_nodes: usize, patterns: &[Pattern]) -> bool {
        self.num_nodes == num_nodes
            && self.phases.len() == patterns.len()
            && self
                .phases
                .iter()
                .zip(patterns)
                .all(|(ph, p)| ph.len() == p.phases.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Phase;
    use fmossim_netlist::{Drive, Logic, NodeId, Size, TransistorType};

    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    #[test]
    fn tape_shape_matches_patterns() {
        let (net, a, out) = inverter();
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
            Pattern::new(vec![
                Phase::apply(vec![(a, Logic::H)]),
                Phase::strobe(vec![(a, Logic::L)]),
            ]),
        ];
        let tape = GoodTape::record(&net, &patterns, EngineConfig::default());
        assert_eq!(tape.num_patterns(), 2);
        assert_eq!(tape.pattern(0).len(), 1);
        assert_eq!(tape.pattern(1).len(), 2);
        assert!(tape.matches(net.num_nodes(), &patterns));
        assert!(!tape.matches(net.num_nodes() + 1, &patterns));
        assert!(!tape.matches(net.num_nodes(), &patterns[..1]));
        assert!(tape.num_groups() > 0, "initial settle solves OUT");
        assert!(tape.record_seconds() >= 0.0);
        assert!(tape.heap_bytes() > 0);
        let _ = out;
    }

    #[test]
    fn recorded_changes_track_good_values() {
        let (net, a, out) = inverter();
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
        ];
        let tape = GoodTape::record(&net, &patterns, EngineConfig::default());
        // Pattern 0: OUT settles X -> H. Pattern 1: OUT flips H -> L.
        let all: Vec<(NodeId, Logic, Logic)> = (0..tape.num_patterns())
            .flat_map(|p| tape.pattern(p))
            .flat_map(|ph| {
                ph.settle
                    .groups()
                    .flat_map(|g| g.changed.to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            all,
            vec![(out, Logic::X, Logic::H), (out, Logic::H, Logic::L)]
        );
    }
}
