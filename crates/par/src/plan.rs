//! Shard planning: how a fault universe is split across workers.

use fmossim_faults::{Fault, FaultId, FaultUniverse};
use fmossim_netlist::Network;

/// How the fault universe is partitioned into shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Fault `i` goes to shard `i % k`. Cheap and usually well
    /// balanced, because structurally related faults (the two stuck
    /// values of one node, the faults of one memory row) are enumerated
    /// adjacently and get dealt to different shards.
    #[default]
    RoundRobin,
    /// Contiguous id ranges of near-equal length. Maximises locality of
    /// each shard's fault footprints (faults of the same circuit region
    /// share one shard), at the price of correlated detection times.
    Contiguous,
    /// Greedy longest-processing-time assignment using a per-fault cost
    /// estimate (the size of the fault's structural footprint): faults
    /// are placed, most expensive first, onto the currently
    /// least-loaded shard. Deterministic for a given universe.
    CostEstimated,
}

impl ShardStrategy {
    /// All strategies, for sweeps and CLIs.
    pub const ALL: [ShardStrategy; 3] = [
        ShardStrategy::RoundRobin,
        ShardStrategy::Contiguous,
        ShardStrategy::CostEstimated,
    ];

    /// Parses the CLI spelling (`round-robin`, `contiguous`, `cost`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "round-robin" => Some(ShardStrategy::RoundRobin),
            "contiguous" => Some(ShardStrategy::Contiguous),
            "cost" => Some(ShardStrategy::CostEstimated),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::RoundRobin => "round-robin",
            ShardStrategy::Contiguous => "contiguous",
            ShardStrategy::CostEstimated => "cost",
        }
    }
}

impl std::fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The simulation cost proxy for one fault: the size of its structural
/// footprint (nodes whose activity can trigger the faulty circuit),
/// plus one so that even footprint-free faults carry weight.
#[must_use]
pub fn fault_cost(net: &Network, fault: &Fault) -> usize {
    fault.footprint(net).len() + 1
}

/// A partition of a [`FaultUniverse`] into shards, each identified by
/// the parent universe's fault ids (ascending within a shard). Empty
/// shards are dropped, so a plan over a small universe may have fewer
/// shards than requested.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: Vec<Vec<FaultId>>,
    strategy: ShardStrategy,
}

impl ShardPlan {
    /// Plans `k` shards over `universe` with the given strategy.
    /// `net` is consulted only by [`ShardStrategy::CostEstimated`].
    #[must_use]
    pub fn build(
        net: &Network,
        universe: &FaultUniverse,
        k: usize,
        strategy: ShardStrategy,
    ) -> Self {
        let mut shards = match strategy {
            ShardStrategy::RoundRobin => universe.split_round_robin(k),
            ShardStrategy::Contiguous => universe.split_contiguous(k),
            ShardStrategy::CostEstimated => split_by_cost(net, universe, k),
        };
        shards.retain(|s| !s.is_empty());
        ShardPlan { shards, strategy }
    }

    /// Number of (non-empty) shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The strategy that produced this plan.
    #[must_use]
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
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

    /// Plans `k` shards over the given fault ids by greedy LPT over an
    /// arbitrary per-fault weight — the re-planning entry point of
    /// batched runs, where the weights are *measured* (EWMA-smoothed
    /// seconds from [`crate::CostModel`]) rather than the static
    /// footprint estimate [`ShardStrategy::CostEstimated`] uses.
    ///
    /// `ids` may be any subset of a parent universe (e.g. the faults
    /// surviving after a batch); shard members keep those global ids.
    /// Deterministic: faults are placed heaviest first (ties broken by
    /// ascending id) onto the currently lightest shard (ties broken by
    /// lowest shard index); non-finite or negative weights are treated
    /// as zero. The resulting plan reports
    /// [`ShardStrategy::CostEstimated`] as its strategy.
    ///
    /// ```
    /// use fmossim_faults::FaultId;
    /// use fmossim_par::ShardPlan;
    ///
    /// let ids: Vec<FaultId> = (0..5).map(FaultId).collect();
    /// // One heavy fault, four light ones: LPT isolates the heavy one.
    /// let plan = ShardPlan::build_weighted(&ids, 2, |id| {
    ///     if id.index() == 3 { 10.0 } else { 1.0 }
    /// });
    /// assert_eq!(plan.num_shards(), 2);
    /// assert_eq!(plan.shard(0), &[FaultId(3)]);
    /// assert_eq!(plan.shard(1).len(), 4);
    /// ```
    #[must_use]
    pub fn build_weighted(ids: &[FaultId], k: usize, weight: impl Fn(FaultId) -> f64) -> Self {
        let k = k.max(1);
        let sane = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let mut order: Vec<(FaultId, f64)> = ids.iter().map(|&id| (id, sane(weight(id)))).collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights sanitised to finite")
                .then(a.0.index().cmp(&b.0.index()))
        });
        let mut shards = vec![Vec::new(); k];
        let mut loads = vec![0.0f64; k];
        for (id, w) in order {
            let s = (0..k)
                .min_by(|&a, &b| {
                    loads[a]
                        .partial_cmp(&loads[b])
                        .expect("loads are finite")
                        .then(a.cmp(&b))
                })
                .expect("k >= 1");
            shards[s].push(id);
            loads[s] += w;
        }
        for shard in &mut shards {
            shard.sort_unstable_by_key(|id| id.index());
        }
        shards.retain(|s| !s.is_empty());
        ShardPlan {
            shards,
            strategy: ShardStrategy::CostEstimated,
        }
    }

    /// The plan restricted to the fault ids `alive` accepts, preserving
    /// every surviving fault's shard assignment (empty shards are
    /// dropped). This is the *frozen-plan* path of batched execution:
    /// detected faults leave, but nothing is re-balanced — the baseline
    /// batched runs' re-planning is measured against.
    #[must_use]
    pub fn retain(&self, alive: impl Fn(FaultId) -> bool) -> Self {
        let mut shards: Vec<Vec<FaultId>> = self
            .shards
            .iter()
            .map(|s| s.iter().copied().filter(|&id| alive(id)).collect())
            .collect();
        shards.retain(|s: &Vec<FaultId>| !s.is_empty());
        ShardPlan {
            shards,
            strategy: self.strategy,
        }
    }

    /// Estimated cost of every shard (sum of [`fault_cost`] over its
    /// faults) — the quantity [`ShardStrategy::CostEstimated`]
    /// balances. Useful for inspecting plan quality.
    #[must_use]
    pub fn shard_costs(&self, net: &Network, universe: &FaultUniverse) -> Vec<usize> {
        self.shards
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&id| fault_cost(net, &universe.fault(id)))
                    .sum()
            })
            .collect()
    }
}

/// Greedy LPT: faults sorted by descending cost (id-ascending on ties)
/// each go to the currently cheapest shard (lowest index on ties).
fn split_by_cost(net: &Network, universe: &FaultUniverse, k: usize) -> Vec<Vec<FaultId>> {
    let k = k.max(1);
    let mut order: Vec<(FaultId, usize)> = universe
        .iter()
        .map(|(id, f)| (id, fault_cost(net, &f)))
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    let mut shards = vec![Vec::new(); k];
    let mut loads = vec![0usize; k];
    for (id, cost) in order {
        let s = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("k >= 1");
        shards[s].push(id);
        loads[s] += cost;
    }
    for shard in &mut shards {
        shard.sort_unstable_by_key(|id| id.index());
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::{Drive, Logic, Size, TransistorType};

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
    fn every_strategy_partitions_exactly() {
        let net = chain_net(6);
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        for strategy in ShardStrategy::ALL {
            for k in [1, 2, 3, 7, universe.len() + 3] {
                let plan = ShardPlan::build(&net, &universe, k, strategy);
                assert!(plan.num_shards() <= k.max(1));
                assert!(plan.num_shards() >= 1);
                assert!(plan.shards().all(|s| !s.is_empty()));
                assert_partition(&plan, &universe);
            }
        }
    }

    #[test]
    fn cost_estimated_balances_loads() {
        let net = chain_net(8);
        let universe =
            FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        let plan = ShardPlan::build(&net, &universe, 4, ShardStrategy::CostEstimated);
        let costs = plan.shard_costs(&net, &universe);
        assert_eq!(costs.len(), 4);
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        // LPT guarantees the spread is at most one item's cost; our
        // items are small, so the shards end up close.
        let biggest_item = universe
            .iter()
            .map(|(_, f)| fault_cost(&net, &f))
            .max()
            .unwrap();
        assert!(
            max - min <= biggest_item,
            "spread {max}-{min} exceeds one item ({biggest_item})"
        );
    }

    #[test]
    fn plans_are_deterministic() {
        let net = chain_net(5);
        let universe = FaultUniverse::stuck_nodes(&net);
        for strategy in ShardStrategy::ALL {
            let a = ShardPlan::build(&net, &universe, 3, strategy);
            let b = ShardPlan::build(&net, &universe, 3, strategy);
            let av: Vec<_> = a.shards().collect();
            let bv: Vec<_> = b.shards().collect();
            assert_eq!(av, bv);
        }
    }

    #[test]
    fn strategy_parse_roundtrip() {
        for s in ShardStrategy::ALL {
            assert_eq!(ShardStrategy::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(ShardStrategy::parse("bogus"), None);
    }

    #[test]
    fn empty_universe_yields_no_shards() {
        let net = chain_net(1);
        let plan = ShardPlan::build(&net, &FaultUniverse::new(), 4, ShardStrategy::RoundRobin);
        assert_eq!(plan.num_shards(), 0);
    }
}
