//! Settle tapes: compact logs of the solved vicinities of one settle,
//! replayable without re-running the solver.
//!
//! The concurrent fault simulator derives *all* faulty-circuit work
//! from the good machine's activity: which vicinities were solved,
//! what their support was, which node values changed. A [`SettleTape`]
//! captures exactly that — one entry per solved group, in solve
//! order — so a consumer can re-derive triggering and state deltas
//! without paying for the solver again. Recording piggybacks on the
//! existing [`Engine::settle_observed`](crate::Engine::settle_observed)
//! observer:
//!
//! ```
//! use fmossim_netlist::{Network, Logic, Size, Drive, TransistorType};
//! use fmossim_switch::{DenseState, Engine, SettleTape};
//!
//! let mut net = Network::new();
//! let vdd = net.add_input("Vdd", Logic::H);
//! let gnd = net.add_input("Gnd", Logic::L);
//! let a = net.add_input("A", Logic::L);
//! let out = net.add_storage("OUT", Size::S1);
//! net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
//! net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
//!
//! let mut st = DenseState::new(&net);
//! let mut eng = Engine::new(&net);
//! eng.perturb_all_storage(&st);
//! let mut tape = SettleTape::default();
//! let rep = eng.settle_observed(&mut st, |g| tape.push_group(&net, g));
//! tape.finish(&rep);
//! assert_eq!(tape.num_groups(), rep.groups_solved);
//! let g = tape.group(0);
//! assert_eq!(g.members, &[out]);
//! assert_eq!(g.changed, &[(out, Logic::X, Logic::H)]);
//! ```
//!
//! Terminology note: a *tape* is a replay log of solver activity; a
//! *trace* ([`Trace`](crate::Trace)) is a waveform of node values over
//! time. The two serve different masters — tapes feed re-execution,
//! traces feed waveform viewers.

use crate::engine::{GroupView, SettleReport};
use fmossim_netlist::{Logic, Network, NodeId};

/// One solved vicinity, read back from a [`SettleTape`].
///
/// `members` and `support_rest` together form the group's *support*:
/// the set of nodes at which a divergence record or fault attachment
/// means a faulty circuit must re-simulate this event privately
/// (members, gates of incident transistors, boundary inputs).
#[derive(Clone, Copy, Debug)]
pub struct TapeGroup<'a> {
    /// Storage nodes of the vicinity.
    pub members: &'a [NodeId],
    /// The rest of the support: gates of incident transistors and
    /// boundary inputs (a gate may be a member too; may contain
    /// duplicates — consumers dedup, exactly as with a live
    /// [`GroupView`]).
    pub support_rest: &'a [NodeId],
    /// State changes this solve applied: `(node, old, new)`.
    pub changed: &'a [(NodeId, Logic, Logic)],
}

/// Span of one group in the tape's flat arrays (end offsets; the start
/// is the previous group's end).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct GroupSpan {
    members_end: u32,
    support_end: u32,
    changed_end: u32,
}

/// A replayable log of one settle: every solved vicinity in solve
/// order, with its support and applied state changes, stored in flat
/// arrays (three `Vec`s plus one span per group — no per-group
/// allocation). Equality compares every recorded field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SettleTape {
    members: Vec<NodeId>,
    support_rest: Vec<NodeId>,
    changed: Vec<(NodeId, Logic, Logic)>,
    spans: Vec<GroupSpan>,
    /// True iff the recorded settle engaged oscillation damping.
    damped: bool,
    /// Unit-delay rounds the recorded settle executed.
    rounds: usize,
}

impl SettleTape {
    /// Appends one solved group from a live observer callback.
    /// `net` is needed to resolve incident transistors to their gates.
    pub fn push_group(&mut self, net: &Network, g: &GroupView<'_>) {
        self.members.extend_from_slice(g.members);
        self.support_rest.extend(g.incident_gates(net));
        self.support_rest.extend_from_slice(g.boundary_inputs);
        self.changed.extend_from_slice(g.changed);
        self.spans.push(GroupSpan {
            members_end: u32::try_from(self.members.len()).expect("tape members fit u32"),
            support_end: u32::try_from(self.support_rest.len()).expect("tape support fits u32"),
            changed_end: u32::try_from(self.changed.len()).expect("tape changes fit u32"),
        });
    }

    /// Empties the tape for the next settle, keeping every allocation
    /// (a simulator records each live phase into one reused tape).
    pub fn clear(&mut self) {
        self.members.clear();
        self.support_rest.clear();
        self.changed.clear();
        self.spans.clear();
        self.damped = false;
        self.rounds = 0;
    }

    /// Stamps the settle-level outcome (damping, round count) once the
    /// settle completes.
    pub fn finish(&mut self, report: &SettleReport) {
        self.damped = report.oscillation_damped;
        self.rounds = report.rounds;
    }

    /// Number of recorded groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.spans.len()
    }

    /// True iff the settle recorded no groups (nothing was perturbed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// True iff the recorded settle engaged oscillation damping.
    #[must_use]
    pub fn damped(&self) -> bool {
        self.damped
    }

    /// Unit-delay rounds the recorded settle executed.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The `i`-th recorded group, in solve order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_groups()`.
    #[must_use]
    pub fn group(&self, i: usize) -> TapeGroup<'_> {
        let start = if i == 0 {
            GroupSpan::default()
        } else {
            self.spans[i - 1]
        };
        let end = self.spans[i];
        TapeGroup {
            members: &self.members[start.members_end as usize..end.members_end as usize],
            support_rest: &self.support_rest[start.support_end as usize..end.support_end as usize],
            changed: &self.changed[start.changed_end as usize..end.changed_end as usize],
        }
    }

    /// Every state change of the settle, `(node, old, new)`, in the
    /// order the groups applied them.
    #[must_use]
    pub fn changes(&self) -> &[(NodeId, Logic, Logic)] {
        &self.changed
    }

    /// Iterates over the recorded groups in solve order.
    pub fn groups(&self) -> impl Iterator<Item = TapeGroup<'_>> {
        (0..self.num_groups()).map(|i| self.group(i))
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<NodeId>()
            + self.support_rest.len() * std::mem::size_of::<NodeId>()
            + self.changed.len() * std::mem::size_of::<(NodeId, Logic, Logic)>()
            + self.spans.len() * std::mem::size_of::<GroupSpan>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DenseState;
    use crate::Engine;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn inverter_chain() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let mut outs = Vec::new();
        let mut prev = a;
        for i in 0..3 {
            let out = net.add_storage(format!("X{i}"), Size::S1);
            net.add_transistor(TransistorType::P, Drive::D2, prev, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, prev, out, gnd);
            outs.push(out);
            prev = out;
        }
        (net, outs)
    }

    #[test]
    fn tape_mirrors_observer() {
        let (net, _) = inverter_chain();
        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb_all_storage(&st);
        let mut tape = SettleTape::default();
        let mut live_members = Vec::new();
        let mut live_changed = Vec::new();
        let rep = eng.settle_observed(&mut st, |g| {
            live_members.extend_from_slice(g.members);
            live_changed.extend_from_slice(g.changed);
            tape.push_group(&net, g);
        });
        tape.finish(&rep);
        assert_eq!(tape.num_groups(), rep.groups_solved);
        assert!(!tape.damped());
        assert_eq!(tape.rounds(), rep.rounds);
        let tape_members: Vec<NodeId> = tape.groups().flat_map(|g| g.members.to_vec()).collect();
        let tape_changed: Vec<(NodeId, Logic, Logic)> =
            tape.groups().flat_map(|g| g.changed.to_vec()).collect();
        assert_eq!(tape_members, live_members);
        assert_eq!(tape_changed, live_changed);
        // Each group's support carries the incident gates and boundary
        // inputs: an inverter's output group sees its driving gate.
        assert!(tape.groups().all(|g| !g.support_rest.is_empty()));
        assert!(tape.heap_bytes() > 0);
    }

    #[test]
    fn cleared_tape_records_afresh() {
        let (net, outs) = inverter_chain();
        let mut st = DenseState::new(&net);
        let mut eng = Engine::new(&net);
        eng.perturb_all_storage(&st);
        let mut tape = SettleTape::default();
        let rep = eng.settle_observed(&mut st, |g| tape.push_group(&net, g));
        tape.finish(&rep);
        let flat: Vec<(NodeId, Logic, Logic)> =
            tape.groups().flat_map(|g| g.changed.to_vec()).collect();
        assert_eq!(tape.changes(), flat.as_slice());
        assert_eq!(tape.changes().len(), outs.len(), "each stage settles once");
        tape.clear();
        assert!(tape.is_empty());
        assert!(tape.changes().is_empty());
        assert_eq!((tape.rounds(), tape.damped()), (0, false));
    }

    #[test]
    fn empty_tape_reads_clean() {
        let tape = SettleTape::default();
        assert!(tape.is_empty());
        assert_eq!(tape.num_groups(), 0);
        assert_eq!(tape.groups().count(), 0);
        assert!(!tape.damped());
    }
}
