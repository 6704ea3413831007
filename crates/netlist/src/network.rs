//! The switch-level network: nodes, transistors, and adjacency.

use crate::{Drive, Logic, NetlistError, NodeId, Size, TransistorId, TransistorType};
use std::collections::HashMap;

/// Classification of a node.
///
/// An *input* node provides a strong signal to the network, like a
/// voltage source; its state is not affected by the actions of the
/// network. A *storage* node's state is determined by the operation of
/// the network and is held (as charge) when the node is isolated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Externally driven node (Vdd, Gnd, clocks, data inputs). Carries
    /// the initial/default value the simulator applies at reset.
    Input(Logic),
    /// Network-driven charge-storage node with a capacitance class.
    Storage(Size),
}

/// A node of the network (immutable description, not simulation state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The node's class (input with default value, or storage with size).
    pub class: NodeClass,
    /// The node's unique name.
    pub name: String,
}

impl Node {
    /// True iff the node is an input node.
    #[inline]
    #[must_use]
    pub fn is_input(&self) -> bool {
        matches!(self.class, NodeClass::Input(_))
    }

    /// The storage size; input nodes report κ1 (never consulted, since
    /// inputs source at strength ω).
    #[inline]
    #[must_use]
    pub fn size(&self) -> Size {
        match self.class {
            NodeClass::Input(_) => Size::S1,
            NodeClass::Storage(s) => s,
        }
    }
}

/// A transistor: a symmetric, bidirectional switch between `source` and
/// `drain`, controlled by the state of `gate`.
///
/// No distinction is made between source and drain; the names merely
/// label the two channel terminals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transistor {
    /// Device type (n/p/d) determining gate behaviour.
    pub ttype: TransistorType,
    /// Conductance class for ratioed-logic resolution.
    pub strength: Drive,
    /// The controlling node.
    pub gate: NodeId,
    /// One channel terminal.
    pub source: NodeId,
    /// The other channel terminal.
    pub drain: NodeId,
}

impl Transistor {
    /// Given one channel terminal, returns the opposite one.
    ///
    /// # Panics
    ///
    /// Panics if `n` is neither `source` nor `drain`.
    #[inline]
    #[must_use]
    pub fn other_end(&self, n: NodeId) -> NodeId {
        if n == self.source {
            self.drain
        } else if n == self.drain {
            self.source
        } else {
            panic!("{n} is not a channel terminal of this transistor");
        }
    }

    /// True iff `n` is one of the two channel terminals.
    #[inline]
    #[must_use]
    pub fn connects(&self, n: NodeId) -> bool {
        n == self.source || n == self.drain
    }
}

/// A switch-level network: a set of nodes connected by transistors,
/// with adjacency indexes maintained incrementally.
///
/// The network is append-only: nodes and transistors can be added but
/// not removed, so `NodeId`/`TransistorId` values stay valid for the
/// lifetime of the network. Fault simulators never mutate the network
/// structurally — faults are expressed as per-circuit *overrides*
/// layered on top (see the `fmossim-faults` crate), mirroring the
/// paper's fault-injection method.
#[derive(Clone, Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
    transistors: Vec<Transistor>,
    names: HashMap<String, NodeId>,
    /// Per node: transistors having this node as a channel terminal.
    channel_adj: Vec<Vec<TransistorId>>,
    /// Per node: transistors gated by this node.
    gate_adj: Vec<Vec<TransistorId>>,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input node with a default (reset) value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already taken or is not a valid node name
    /// (use [`Network::try_add_node`] for a fallible version).
    pub fn add_input(&mut self, name: impl Into<String>, default: Logic) -> NodeId {
        self.try_add_node(name.into(), NodeClass::Input(default))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a storage node of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already taken or is not a valid node name.
    pub fn add_storage(&mut self, name: impl Into<String>, size: Size) -> NodeId {
        self.try_add_node(name.into(), NodeClass::Storage(size))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a node, failing on invalid or duplicate names. A valid name
    /// is non-empty and contains no whitespace and no `;` (which starts
    /// a comment in the text formats), so every network writes out as
    /// a netlist that parses back.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNodeName`] for an invalid name and
    /// [`NetlistError::DuplicateNode`] if a node of this name already
    /// exists.
    pub fn try_add_node(&mut self, name: String, class: NodeClass) -> Result<NodeId, NetlistError> {
        if name.is_empty() || name.contains(|c: char| c.is_whitespace() || c == ';') {
            return Err(NetlistError::InvalidNodeName(name));
        }
        if self.names.contains_key(&name) {
            return Err(NetlistError::DuplicateNode(name));
        }
        let id = NodeId::from_index(self.nodes.len());
        self.names.insert(name.clone(), id);
        self.nodes.push(Node { class, name });
        self.channel_adj.push(Vec::new());
        self.gate_adj.push(Vec::new());
        Ok(id)
    }

    /// Adds a transistor and updates adjacency.
    ///
    /// # Panics
    ///
    /// Panics if any of the three node ids is out of range for this
    /// network.
    pub fn add_transistor(
        &mut self,
        ttype: TransistorType,
        strength: Drive,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
    ) -> TransistorId {
        for n in [gate, source, drain] {
            assert!(n.index() < self.nodes.len(), "node {n} out of range");
        }
        let id = TransistorId::from_index(self.transistors.len());
        self.transistors.push(Transistor {
            ttype,
            strength,
            gate,
            source,
            drain,
        });
        self.channel_adj[source.index()].push(id);
        if drain != source {
            self.channel_adj[drain.index()].push(id);
        }
        self.gate_adj[gate.index()].push(id);
        id
    }

    /// Number of nodes (inputs + storage).
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of transistors.
    #[inline]
    #[must_use]
    pub fn num_transistors(&self) -> usize {
        self.transistors.len()
    }

    /// The node description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The transistor description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn transistor(&self, id: TransistorId) -> &Transistor {
        &self.transistors[id.index()]
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Transistors whose channel (source or drain) touches `n`.
    #[inline]
    #[must_use]
    pub fn channel_transistors(&self, n: NodeId) -> &[TransistorId] {
        &self.channel_adj[n.index()]
    }

    /// Transistors gated by `n`.
    #[inline]
    #[must_use]
    pub fn gated_transistors(&self, n: NodeId) -> &[TransistorId] {
        &self.gate_adj[n.index()]
    }

    /// Iterates over all node ids in creation order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over all transistor ids in creation order.
    pub fn transistor_ids(&self) -> impl ExactSizeIterator<Item = TransistorId> + '_ {
        (0..self.transistors.len()).map(TransistorId::from_index)
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over `(id, transistor)` pairs.
    pub fn transistors(&self) -> impl ExactSizeIterator<Item = (TransistorId, &Transistor)> + '_ {
        self.transistors
            .iter()
            .enumerate()
            .map(|(i, t)| (TransistorId::from_index(i), t))
    }

    /// Iterates over the ids of all input nodes.
    pub fn input_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.is_input()).map(|(id, _)| id)
    }

    /// Iterates over the ids of all storage nodes.
    pub fn storage_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| !n.is_input())
            .map(|(id, _)| id)
    }

    /// Structural sanity checks beyond what construction enforces:
    /// every node reachable, no transistor gated by itself in a way that
    /// cannot settle, etc. Currently validates:
    ///
    /// * at least one input node exists (a network with no inputs can
    ///   never be driven);
    /// * no transistor has `source == drain == gate` (meaningless);
    /// * every storage node is channel-connected to at least one
    ///   transistor (isolated storage nodes are almost always netlist
    ///   bugs).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if !self.nodes.iter().any(Node::is_input) {
            return Err(NetlistError::NoInputs);
        }
        for (id, t) in self.transistors() {
            if t.source == t.drain && t.gate == t.source {
                return Err(NetlistError::DegenerateTransistor(id));
            }
        }
        for (id, node) in self.nodes() {
            if !node.is_input()
                && self.channel_adj[id.index()].is_empty()
                && self.gate_adj[id.index()].is_empty()
            {
                return Err(NetlistError::IsolatedNode(node.name.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::X);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    #[test]
    fn build_and_query() {
        let (net, a, out) = inverter();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_transistors(), 2);
        assert_eq!(net.find_node("OUT"), Some(out));
        assert_eq!(net.find_node("nope"), None);
        assert!(net.node(a).is_input());
        assert!(!net.node(out).is_input());
        // OUT touches both transistors via channel; A gates one.
        assert_eq!(net.channel_transistors(out).len(), 2);
        assert_eq!(net.gated_transistors(a).len(), 1);
        // The depletion load is gated by OUT itself.
        assert_eq!(net.gated_transistors(out).len(), 1);
        assert_eq!(net.input_ids().count(), 3);
        assert_eq!(net.storage_ids().count(), 1);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut net = Network::new();
        net.add_input("A", Logic::X);
        let err = net
            .try_add_node("A".into(), NodeClass::Storage(Size::S1))
            .unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateNode(n) if n == "A"));
    }

    #[test]
    fn other_end_and_connects() {
        let (net, _, out) = inverter();
        let t = net.transistor(TransistorId::from_index(1));
        let gnd = net.find_node("Gnd").unwrap();
        assert_eq!(t.other_end(out), gnd);
        assert_eq!(t.other_end(gnd), out);
        assert!(t.connects(out));
        assert!(!t.connects(net.find_node("Vdd").unwrap()));
    }

    #[test]
    #[should_panic(expected = "not a channel terminal")]
    fn other_end_panics_for_gate() {
        let (net, a, _) = inverter();
        let t = net.transistor(TransistorId::from_index(1));
        let _ = t.other_end(a); // `a` is the gate, not a terminal
    }

    #[test]
    fn validate_catches_no_inputs() {
        let mut net = Network::new();
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, s, s, s);
        assert!(matches!(net.validate(), Err(NetlistError::NoInputs)));
    }

    #[test]
    fn validate_catches_isolated_storage() {
        let mut net = Network::new();
        net.add_input("Vdd", Logic::H);
        net.add_storage("orphan", Size::S1);
        assert!(matches!(
            net.validate(),
            Err(NetlistError::IsolatedNode(n)) if n == "orphan"
        ));
    }

    #[test]
    fn validate_catches_degenerate_transistor() {
        let mut net = Network::new();
        net.add_input("Vdd", Logic::H);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, s, s, s);
        assert!(matches!(
            net.validate(),
            Err(NetlistError::DegenerateTransistor(_))
        ));
    }

    #[test]
    fn self_loop_channel_recorded_once() {
        let (net, _, out) = inverter();
        // The depletion load has source == Vdd, drain == OUT; check a
        // true self-loop is not double-counted.
        let mut net = net;
        let t = net.add_transistor(
            TransistorType::N,
            Drive::D2,
            net.find_node("A").unwrap(),
            out,
            out,
        );
        let count = net
            .channel_transistors(out)
            .iter()
            .filter(|&&x| x == t)
            .count();
        assert_eq!(count, 1);
    }
}
