//! Per-circuit state views: the faulty-circuit overlay and the serial
//! simulator's mutated-copy view.

use crate::records::StateLists;
use fmossim_faults::FaultEffect;
use fmossim_netlist::{Conduction, Logic, Network, NodeId, TransistorId};
use fmossim_switch::{DenseState, SwitchState};

/// The structural overrides implementing one faulty circuit. The
/// paper's experiments use single faults (one entry), but the lists
/// support multiple simultaneous faults per circuit — double-fault and
/// fault-masking studies need nothing further.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Overrides {
    /// Nodes forced to behave as inputs with fixed values.
    pub forced_nodes: Vec<(NodeId, Logic)>,
    /// Transistors forced to fixed conduction states.
    pub forced_transistors: Vec<(TransistorId, Conduction)>,
}

impl Overrides {
    /// Builds the override set for a single fault effect.
    #[must_use]
    pub fn from_effect(effect: FaultEffect) -> Self {
        Overrides::from_effects([effect])
    }

    /// Builds the override set for several simultaneous fault effects.
    /// Later `ForceNode` entries on the same node shadow earlier ones;
    /// same for transistors.
    #[must_use]
    pub fn from_effects(effects: impl IntoIterator<Item = FaultEffect>) -> Self {
        let mut ov = Overrides::default();
        for e in effects {
            match e {
                FaultEffect::ForceNode { node, value } => {
                    if let Some(slot) = ov.forced_nodes.iter_mut().find(|(n, _)| *n == node) {
                        slot.1 = value;
                    } else {
                        ov.forced_nodes.push((node, value));
                    }
                }
                FaultEffect::ForceTransistor { t, cond } => {
                    if let Some(slot) = ov.forced_transistors.iter_mut().find(|(tt, _)| *tt == t) {
                        slot.1 = cond;
                    } else {
                        ov.forced_transistors.push((t, cond));
                    }
                }
            }
        }
        ov
    }

    /// The forced value of `n`, if this circuit forces it.
    #[inline]
    #[must_use]
    pub fn forced_value(&self, n: NodeId) -> Option<Logic> {
        self.forced_nodes
            .iter()
            .find(|(fn_, _)| *fn_ == n)
            .map(|&(_, v)| v)
    }

    /// The forced conduction of `t`, if this circuit forces it.
    #[inline]
    #[must_use]
    pub fn forced_conduction(&self, t: TransistorId) -> Option<Conduction> {
        self.forced_transistors
            .iter()
            .find(|(ft, _)| *ft == t)
            .map(|&(_, c)| c)
    }

    /// True iff no overrides are present (the good circuit).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forced_nodes.is_empty() && self.forced_transistors.is_empty()
    }
}

/// A faulty circuit's state in the concurrent simulator: divergence
/// records overlaid on the good circuit's dense state, plus the fault's
/// structural overrides.
///
/// Reads fall back to the good circuit (a node without a record has the
/// good circuit's state); writes maintain the record lists — writing a
/// value equal to the good circuit's removes the record (the circuit
/// *converged* at that node).
pub struct FaultyView<'a, 'n> {
    net: &'n Network,
    good: &'a [Logic],
    records: &'a mut StateLists,
    circuit: u32,
    ov: &'a Overrides,
}

impl<'a, 'n> FaultyView<'a, 'n> {
    /// Creates the view of circuit `circuit` (`>= 1`).
    pub fn new(
        net: &'n Network,
        good: &'a [Logic],
        records: &'a mut StateLists,
        circuit: u32,
        ov: &'a Overrides,
    ) -> Self {
        debug_assert!(circuit >= 1, "circuit 0 is the good circuit");
        FaultyView {
            net,
            good,
            records,
            circuit,
            ov,
        }
    }
}

impl SwitchState for FaultyView<'_, '_> {
    fn network(&self) -> &Network {
        self.net
    }

    fn node_state(&self, n: NodeId) -> Logic {
        if let Some(v) = self.ov.forced_value(n) {
            return v;
        }
        self.records
            .get(n, self.circuit)
            .unwrap_or(self.good[n.index()])
    }

    fn set_node_state(&mut self, n: NodeId, v: Logic) {
        if v == self.good[n.index()] {
            self.records.remove(n, self.circuit);
        } else {
            self.records.set(n, self.circuit, v);
        }
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.ov.forced_value(n).is_some() || self.net.node(n).is_input()
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        if let Some(cond) = self.ov.forced_conduction(t) {
            return cond;
        }
        let tr = self.net.transistor(t);
        tr.ttype.conduction(self.node_state(tr.gate))
    }
}

/// A record-free faulty circuit's state, read only: the good circuit's
/// dense state under one circuit's overrides. The trigger-time solve
/// reads a good group's vicinity through it, so that no record is
/// written for a circuit the solve shows to re-derive the good result.
pub(crate) struct RecordFreeView<'a, 'n> {
    net: &'n Network,
    good: &'a [Logic],
    ov: &'a Overrides,
}

impl<'a, 'n> RecordFreeView<'a, 'n> {
    /// Creates the view of a circuit with overrides `ov` and no record.
    pub(crate) fn new(net: &'n Network, good: &'a [Logic], ov: &'a Overrides) -> Self {
        RecordFreeView { net, good, ov }
    }
}

impl SwitchState for RecordFreeView<'_, '_> {
    fn network(&self) -> &Network {
        self.net
    }

    fn node_state(&self, n: NodeId) -> Logic {
        self.ov.forced_value(n).unwrap_or(self.good[n.index()])
    }

    fn set_node_state(&mut self, _n: NodeId, _v: Logic) {
        unreachable!("RecordFreeView is the trigger-time solve's read-only view");
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.ov.forced_value(n).is_some() || self.net.node(n).is_input()
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        if let Some(cond) = self.ov.forced_conduction(t) {
            return cond;
        }
        let tr = self.net.transistor(t);
        tr.ttype.conduction(self.node_state(tr.gate))
    }
}

/// A faulty circuit's state in the *serial* simulator: a private dense
/// state plus the fault's overrides. Used by the serial baseline and by
/// the concurrent-vs-serial equivalence tests.
#[derive(Clone, Debug)]
pub struct SerialState<'n> {
    dense: DenseState<'n>,
    ov: Overrides,
}

impl<'n> SerialState<'n> {
    /// Creates a reset-state serial view with the given overrides.
    #[must_use]
    pub fn new(net: &'n Network, ov: Overrides) -> Self {
        SerialState {
            dense: DenseState::new(net),
            ov,
        }
    }

    /// The overrides in effect.
    #[must_use]
    pub fn overrides(&self) -> &Overrides {
        &self.ov
    }
}

impl SwitchState for SerialState<'_> {
    fn network(&self) -> &Network {
        self.dense.network()
    }

    fn node_state(&self, n: NodeId) -> Logic {
        if let Some(v) = self.ov.forced_value(n) {
            return v;
        }
        self.dense.node_state(n)
    }

    fn set_node_state(&mut self, n: NodeId, v: Logic) {
        self.dense.set_node_state(n, v);
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.ov.forced_value(n).is_some() || self.dense.is_input(n)
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        if let Some(cond) = self.ov.forced_conduction(t) {
            return cond;
        }
        let tr = self.network().transistor(t);
        tr.ttype.conduction(self.node_state(tr.gate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn tiny() -> (Network, NodeId, NodeId, TransistorId) {
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        (net, a, s, t)
    }

    #[test]
    fn view_reads_good_until_diverged() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::H];
        let mut recs = StateLists::new(3, 2);
        let ov = Overrides::default();
        let mut view = FaultyView::new(&net, &good, &mut recs, 1, &ov);
        assert_eq!(view.node_state(s), Logic::H, "falls back to good");
        view.set_node_state(s, Logic::L);
        assert_eq!(view.node_state(s), Logic::L, "record wins");
        // Converging removes the record.
        view.set_node_state(s, Logic::H);
        assert!(recs.is_empty());
    }

    #[test]
    fn forced_node_acts_as_input() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::H];
        let mut recs = StateLists::new(3, 2);
        let ov = Overrides::from_effect(FaultEffect::ForceNode {
            node: s,
            value: Logic::L,
        });
        let view = FaultyView::new(&net, &good, &mut recs, 1, &ov);
        assert!(view.is_input(s));
        assert_eq!(view.node_state(s), Logic::L);
    }

    #[test]
    fn forced_transistor_ignores_gate() {
        let (net, a, _, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::H];
        let mut recs = StateLists::new(3, 2);
        let ov = Overrides::from_effect(FaultEffect::ForceTransistor {
            t,
            cond: Conduction::Open,
        });
        let view = FaultyView::new(&net, &good, &mut recs, 1, &ov);
        // Gate A is high (transistor would conduct) but the fault holds
        // it open.
        assert_eq!(view.node_state(a), Logic::H);
        assert_eq!(view.conduction(t), Conduction::Open);
    }

    #[test]
    fn conduction_uses_divergent_gate_value() {
        let (net, a, _, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::H];
        let mut recs = StateLists::new(3, 2);
        // Circuit 1 diverges on the gate: A is low there. (A is an input
        // node; record-on-input is how fault-control flips are stored.)
        recs.set(a, 1, Logic::L);
        let ov = Overrides::default();
        let view = FaultyView::new(&net, &good, &mut recs, 1, &ov);
        assert_eq!(view.conduction(t), Conduction::Open);
    }

    #[test]
    fn record_free_view_is_good_state_under_overrides() {
        let (net, a, s, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::H];
        let ov = Overrides::from_effects([
            FaultEffect::ForceNode {
                node: a,
                value: Logic::L,
            },
            FaultEffect::ForceTransistor {
                t,
                cond: Conduction::Closed,
            },
        ]);
        let view = RecordFreeView::new(&net, &good, &ov);
        assert_eq!(view.node_state(s), Logic::H, "good state elsewhere");
        assert_eq!(view.node_state(a), Logic::L, "forced value wins");
        assert!(view.is_input(a) && !view.is_input(s));
        assert_eq!(view.conduction(t), Conduction::Closed, "forced conduction");
        let plain = Overrides::default();
        let view = RecordFreeView::new(&net, &good, &plain);
        assert_eq!(view.conduction(t), Conduction::Closed, "gate A is high");
    }

    #[test]
    fn serial_state_overrides() {
        let (net, a, s, t) = tiny();
        let ov = Overrides::from_effect(FaultEffect::ForceNode {
            node: s,
            value: Logic::H,
        });
        let mut st = SerialState::new(&net, ov.clone());
        assert!(st.is_input(s));
        assert_eq!(st.node_state(s), Logic::H);
        assert_eq!(st.overrides(), &ov);
        // Normal nodes behave normally.
        assert_eq!(st.node_state(a), Logic::H);
        st.set_node_state(s, Logic::L); // write lands in dense but the
        assert_eq!(st.node_state(s), Logic::H); // override still wins
        let _ = t;
    }
}
