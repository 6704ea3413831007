//! Divergence-record storage: the paper's per-node state lists.
//!
//! FMOSSIM keeps, for every node, a list of records `<i, s_i>` meaning
//! "in circuit `i` this node has state `s_i`", maintained only for
//! circuits whose state differs from the good circuit (§4). We keep the
//! lists sorted by circuit id — the modern equivalent of the paper's
//! sorted lists with shadow pointers — and additionally index, per
//! circuit, the set of nodes it has records on, so that dropping a
//! detected circuit reclaims its records in time proportional to its
//! own divergence, not the network size. That index may hold stale
//! entries (records that converged since); a circuit's index is
//! compacted in place once it holds more than twice the circuit's live
//! records, so it stays proportional to the divergence too.
//!
//! A flat `HashMap<(node, circuit), state>` store was measured against
//! these lists and lost by 4x on a 64-bit RAM and 46x on 1000-gate
//! random logic, so the sorted lists are the only store.

use fmossim_netlist::{Logic, NodeId};

/// Divergence records for all faulty circuits, overlaid on the good
/// circuit's dense state.
#[derive(Clone, Debug)]
pub struct StateLists {
    /// Per node, `(circuit, state)` sorted by circuit.
    per_node: Vec<Vec<(u32, Logic)>>,
    /// Per circuit: nodes this circuit has (or once had) records on.
    /// May contain stale entries (validated on drop); amortises circuit
    /// teardown. Compacted once it exceeds twice the circuit's live
    /// count.
    touched: Vec<Vec<NodeId>>,
    /// Per circuit: number of live records.
    live: Vec<u32>,
    /// Number of live records.
    len: usize,
}

impl StateLists {
    /// Creates empty record storage for `num_nodes` nodes and
    /// `num_circuits` faulty circuits (circuit ids `1..=num_circuits`).
    #[must_use]
    pub fn new(num_nodes: usize, num_circuits: usize) -> Self {
        StateLists {
            per_node: vec![Vec::new(); num_nodes],
            touched: vec![Vec::new(); num_circuits + 1],
            live: vec![0; num_circuits + 1],
            len: 0,
        }
    }

    /// Number of live records across all circuits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of live records of `circuit` (the nodes where it
    /// currently diverges from the good circuit).
    #[inline]
    #[must_use]
    pub fn live_count(&self, circuit: u32) -> usize {
        self.live[circuit as usize] as usize
    }

    /// Length of `circuit`'s node index, stale entries included — at
    /// most twice its live count right after a [`StateLists::set`] that
    /// installs a record, so at most twice its peak live count ever
    /// (diagnostic; the bound is what keeps the index from growing with
    /// every record a long run ever made).
    #[must_use]
    pub fn index_len(&self, circuit: u32) -> usize {
        self.touched[circuit as usize].len()
    }

    /// True iff no circuit diverges anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state of node `n` in circuit `circuit`, if it diverges.
    #[must_use]
    pub fn get(&self, n: NodeId, circuit: u32) -> Option<Logic> {
        let list = &self.per_node[n.index()];
        list.binary_search_by_key(&circuit, |&(c, _)| c)
            .ok()
            .map(|i| list[i].1)
    }

    /// Installs or updates the record for `(n, circuit)`.
    pub fn set(&mut self, n: NodeId, circuit: u32, v: Logic) {
        let list = &mut self.per_node[n.index()];
        match list.binary_search_by_key(&circuit, |&(c, _)| c) {
            Ok(i) => list[i].1 = v, // already touched
            Err(i) => {
                list.insert(i, (circuit, v));
                self.len += 1;
                let c = circuit as usize;
                self.live[c] += 1;
                self.touched[c].push(n);
                if self.touched[c].len() > 2 * self.live[c] as usize {
                    self.compact(circuit);
                }
            }
        }
    }

    /// Rewrites `circuit`'s node index in place to exactly its live
    /// record nodes: sorted, deduplicated, stale entries gone. No
    /// allocation. Runs when at least half the index is stale, so its
    /// cost is amortised over the pushes that made it stale.
    fn compact(&mut self, circuit: u32) {
        let per_node = &self.per_node;
        let nodes = &mut self.touched[circuit as usize];
        nodes.sort_unstable();
        nodes.dedup();
        nodes.retain(|&n| {
            per_node[n.index()]
                .binary_search_by_key(&circuit, |&(c, _)| c)
                .is_ok()
        });
        debug_assert_eq!(nodes.len(), self.live[circuit as usize] as usize);
    }

    /// Removes the record for `(n, circuit)` if present (the circuit's
    /// state converged back to the good circuit's).
    pub fn remove(&mut self, n: NodeId, circuit: u32) {
        let list = &mut self.per_node[n.index()];
        if let Ok(i) = list.binary_search_by_key(&circuit, |&(c, _)| c) {
            list.remove(i);
            self.len -= 1;
            self.live[circuit as usize] -= 1;
        }
    }

    /// The circuits diverging at node `n`, as `(circuit, state)` pairs
    /// in ascending circuit order.
    pub fn circuits_at(&self, n: NodeId) -> Vec<(u32, Logic)> {
        self.per_node[n.index()].clone()
    }

    /// Visits the circuits diverging at `n` without allocating (the
    /// hot trigger path), in ascending circuit order.
    pub fn for_circuits_at(&self, n: NodeId, mut f: impl FnMut(u32)) {
        for &(c, _) in &self.per_node[n.index()] {
            f(c);
        }
    }

    /// Visits the records at `n` as `(circuit, state)` pairs without
    /// allocating (the strobe and the packed-lane gather), in ascending
    /// circuit order.
    pub fn for_records_at(&self, n: NodeId, mut f: impl FnMut(u32, Logic)) {
        for &(c, v) in &self.per_node[n.index()] {
            f(c, v);
        }
    }

    /// Removes every record of `circuit` (fault dropped after
    /// detection). Returns the number of records reclaimed.
    pub fn drop_circuit(&mut self, circuit: u32) -> usize {
        let nodes = std::mem::take(&mut self.touched[circuit as usize]);
        let before = self.len;
        for n in nodes {
            self.remove(n, circuit);
        }
        debug_assert_eq!(self.live[circuit as usize], 0);
        before - self.len
    }

    /// The nodes circuit `circuit` currently diverges on (allocates;
    /// test/diagnostic use).
    #[must_use]
    pub fn nodes_of(&self, circuit: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.touched[circuit as usize]
            .iter()
            .copied()
            .filter(|&n| self.get(n, circuit).is_some())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let mut s = StateLists::new(8, 4);
        assert!(s.is_empty());
        s.set(n(3), 2, Logic::H);
        s.set(n(3), 1, Logic::L);
        s.set(n(5), 2, Logic::X);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(n(3), 2), Some(Logic::H));
        assert_eq!(s.get(n(3), 1), Some(Logic::L));
        assert_eq!(s.get(n(3), 3), None);
        // Update in place does not grow.
        s.set(n(3), 2, Logic::L);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(n(3), 2), Some(Logic::L));
        s.remove(n(3), 2);
        assert_eq!(s.get(n(3), 2), None);
        assert_eq!(s.len(), 2);
        // Removing twice is harmless.
        s.remove(n(3), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn circuits_at_is_sorted() {
        let mut s = StateLists::new(8, 4);
        s.set(n(0), 3, Logic::H);
        s.set(n(0), 1, Logic::L);
        s.set(n(0), 2, Logic::X);
        let got = s.circuits_at(n(0));
        assert_eq!(
            got,
            vec![(1, Logic::L), (2, Logic::X), (3, Logic::H)],
            "sorted by circuit id"
        );
        let mut seen = Vec::new();
        s.for_circuits_at(n(0), |c| seen.push(c));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn drop_circuit_reclaims_only_its_records() {
        let mut s = StateLists::new(8, 4);
        s.set(n(0), 1, Logic::H);
        s.set(n(1), 1, Logic::H);
        s.set(n(1), 2, Logic::L);
        let reclaimed = s.drop_circuit(1);
        assert_eq!(reclaimed, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(n(1), 2), Some(Logic::L));
        assert_eq!(s.get(n(0), 1), None);
    }

    #[test]
    fn drop_circuit_tolerates_stale_touched_entries() {
        let mut s = StateLists::new(8, 4);
        s.set(n(0), 1, Logic::H);
        s.remove(n(0), 1); // converged: touched entry goes stale
        s.set(n(2), 1, Logic::L);
        assert_eq!(s.drop_circuit(1), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn live_counts_follow_set_remove_and_drop() {
        let mut s = StateLists::new(8, 4);
        s.set(n(0), 1, Logic::H);
        s.set(n(0), 1, Logic::L); // update: no new record
        s.set(n(3), 1, Logic::X);
        s.set(n(3), 2, Logic::H);
        assert_eq!(
            (s.live_count(1), s.live_count(2), s.live_count(3)),
            (2, 1, 0)
        );
        s.remove(n(0), 1);
        s.remove(n(0), 1); // absent: no change
        assert_eq!(s.live_count(1), 1);
        s.drop_circuit(2);
        assert_eq!(s.live_count(2), 0);
    }

    #[test]
    fn nodes_of_reports_live_records() {
        let mut s = StateLists::new(8, 4);
        s.set(n(4), 2, Logic::H);
        s.set(n(1), 2, Logic::H);
        s.set(n(1), 2, Logic::L); // update, not duplicate
        s.remove(n(4), 2);
        assert_eq!(s.nodes_of(2), vec![n(1)]);
    }
}
