//! Shard planning: how a fault universe is split across workers.

use fmossim_faults::{FaultId, FaultUniverse};

/// A partition of a [`FaultUniverse`] into shards, each identified by
/// the parent universe's fault ids (ascending within a shard).
///
/// Fault `i` goes to shard `i % k`. This is cheap and usually well
/// balanced, because structurally related faults (the two stuck values
/// of one node, the faults of one memory row) are enumerated adjacently
/// and get dealt to different shards. Empty shards are dropped, so a
/// plan over a small universe may have fewer shards than requested.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: Vec<Vec<FaultId>>,
}

impl ShardPlan {
    /// Deals `universe` round-robin into `k` shards.
    #[must_use]
    pub fn build(universe: &FaultUniverse, k: usize) -> Self {
        let mut shards = universe.split_round_robin(k);
        shards.retain(|s| !s.is_empty());
        ShardPlan { shards }
    }

    /// Number of (non-empty) shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global fault ids of shard `s`, ascending.
    #[must_use]
    pub fn shard(&self, s: usize) -> &[FaultId] {
        &self.shards[s]
    }

    /// Iterates all shards in index order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &[FaultId]> {
        self.shards.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::{Drive, Logic, Network, Size, TransistorType};

    fn chain_net(n: usize) -> Network {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let mut prev = net.add_input("A", Logic::L);
        for i in 0..n {
            let out = net.add_storage(format!("S{i}"), Size::S1);
            net.add_transistor(TransistorType::P, Drive::D2, prev, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, prev, out, gnd);
            prev = out;
        }
        net
    }

    fn assert_partition(plan: &ShardPlan, universe: &FaultUniverse) {
        let mut seen: Vec<FaultId> = plan.shards().flatten().copied().collect();
        seen.sort_unstable_by_key(|id| id.index());
        let all: Vec<FaultId> = universe.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, all, "every fault in exactly one shard");
    }

    #[test]
    fn every_shard_count_partitions_exactly() {
        let net = chain_net(6);
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        for k in [1, 2, 3, 7, universe.len() + 3] {
            let plan = ShardPlan::build(&universe, k);
            assert!(plan.num_shards() <= k.max(1));
            assert!(plan.num_shards() >= 1);
            assert!(plan.shards().all(|s| !s.is_empty()));
            assert_partition(&plan, &universe);
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let net = chain_net(5);
        let universe = FaultUniverse::stuck_nodes(&net);
        let a = ShardPlan::build(&universe, 3);
        let b = ShardPlan::build(&universe, 3);
        let av: Vec<_> = a.shards().collect();
        let bv: Vec<_> = b.shards().collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn empty_universe_yields_no_shards() {
        let plan = ShardPlan::build(&FaultUniverse::new(), 4);
        assert_eq!(plan.num_shards(), 0);
    }
}
