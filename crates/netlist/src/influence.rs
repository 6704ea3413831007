//! Channel-graph influence analysis: reachability closures over the
//! static transistor graph, used by the fault-collapsing rules in
//! `fmossim-faults`.
//!
//! All three helpers operate on the *static* graph — a transistor
//! contributes its edges whether or not it conducts — so every closure
//! is a sound superset of anything a dynamic (conduction-dependent)
//! analysis could find, for any circuit derived from the network by
//! forcing node values or transistor conduction states.

use crate::ids::{NodeId, TransistorId};
use crate::network::Network;

/// The *observable region*: every node whose state can influence at
/// least one of `outputs`: the backward cone of the outputs under the
/// switch-level interaction edges — the predecessors of a node are its
/// channel neighbours (charge and drive flow through a channel in
/// either direction) and the gates of its incident channel transistors
/// (a node's state switches the transistors it gates). A fault all of
/// whose effect terminals lie outside this region can never change an
/// observed value and is therefore undetectable by any stimulus.
///
/// Inputs enter the region but are not expanded through: an input's
/// state is externally pinned, so nothing propagates across it —
/// expanding through Vdd/Gnd would otherwise pull the whole chip into
/// every region.
#[must_use]
pub fn observable_region(net: &Network, outputs: &[NodeId]) -> Vec<bool> {
    let mut marked = vec![false; net.num_nodes()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &o in outputs {
        if !marked[o.index()] {
            marked[o.index()] = true;
            stack.push(o);
        }
    }
    while let Some(v) = stack.pop() {
        for &t in net.channel_transistors(v) {
            let tr = net.transistor(t);
            for p in [tr.other_end(v), tr.gate] {
                if !marked[p.index()] {
                    marked[p.index()] = true;
                    if !net.node(p).is_input() {
                        stack.push(p);
                    }
                }
            }
        }
    }
    marked
}

/// The channel-connected component of `start`: every storage node
/// reachable from it through channel edges alone, with input nodes as
/// boundaries (they terminate the walk and are not included). This is
/// the unit of charge sharing — a vicinity can only ever be a subset of
/// one channel-connected component plus its boundary inputs.
///
/// Returns the component in ascending node order; `start` itself is
/// included when it is a storage node, and the result is empty when
/// `start` is an input.
#[must_use]
pub fn channel_component(net: &Network, start: NodeId) -> Vec<NodeId> {
    if net.node(start).is_input() {
        return Vec::new();
    }
    let mut seen = vec![false; net.num_nodes()];
    seen[start.index()] = true;
    let mut stack = vec![start];
    let mut component = vec![start];
    while let Some(v) = stack.pop() {
        for &t in net.channel_transistors(v) {
            let other = net.transistor(t).other_end(v);
            if !seen[other.index()] && !net.node(other).is_input() {
                seen[other.index()] = true;
                component.push(other);
                stack.push(other);
            }
        }
    }
    component.sort_unstable();
    component
}

/// All transistors gated by `n` whose conduction actually depends on
/// the gate state — i.e. the non-depletion devices. Depletion (`d`)
/// transistors conduct unconditionally, so a node that gates only
/// depletion devices has no gate-side influence at all.
pub fn gate_relevant_transistors<'a>(
    net: &'a Network,
    n: NodeId,
) -> impl Iterator<Item = TransistorId> + 'a {
    net.gated_transistors(n)
        .iter()
        .copied()
        .filter(move |&t| net.transistor(t).ttype != crate::ttype::TransistorType::D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic;
    use crate::strength::{Drive, Size};
    use crate::ttype::TransistorType;

    /// Two independent nMOS inverters: A→OA, B→OB.
    fn two_inverters() -> (Network, [NodeId; 4]) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let oa = net.add_storage("OA", Size::S1);
        let ob = net.add_storage("OB", Size::S1);
        for (inp, out) in [(a, oa), (b, ob)] {
            net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
        }
        (net, [a, b, oa, ob])
    }

    #[test]
    fn cone_follows_gate_fanout() {
        // OA additionally gates a pulldown on OB: OA's state can now
        // reach OB, so OB's backward cone includes OA (and its input),
        // while OA's own cone still excludes OB.
        let (mut net, [a, _, oa, ob]) = two_inverters();
        let gnd = net.find_node("Gnd").expect("exists");
        net.add_transistor(TransistorType::N, Drive::D2, oa, ob, gnd);
        let region = observable_region(&net, &[ob]);
        assert!(region[oa.index()], "gate of an incident transistor");
        assert!(region[a.index()], "closure continues through OA");
        assert!(!observable_region(&net, &[oa])[ob.index()], "backward only");
    }

    #[test]
    fn observable_region_stops_at_unobserved_islands() {
        let (net, [a, b, oa, ob]) = two_inverters();
        let region = observable_region(&net, &[oa]);
        assert!(region[oa.index()] && region[a.index()]);
        assert!(!region[ob.index()] && !region[b.index()]);
    }

    #[test]
    fn channel_component_bounded_by_inputs() {
        // nand-style series chain: OUT –a– MID –b– Gnd.
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        let mid = net.add_storage("MID", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, mid);
        net.add_transistor(TransistorType::N, Drive::D2, b, mid, gnd);
        assert_eq!(channel_component(&net, out), vec![out, mid]);
        assert_eq!(channel_component(&net, mid), vec![out, mid]);
        assert!(channel_component(&net, gnd).is_empty(), "inputs: empty");
    }
}
