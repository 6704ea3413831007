//! Batch-level state for *adaptive* parallel runs: a measured
//! per-fault cost model ([`CostModel`]), the boundary state a batch
//! resumes from ([`ResumePoint`]) and recycled simulator arenas
//! ([`ArenaPool`]). The batches themselves run through the shard
//! executor ([`run_shards`](crate::run_shards)).
//!
//! [`ParallelSim`](crate::ParallelSim) plans once and runs the whole
//! sequence; the adaptive loop (implemented as a campaign backend on
//! top of this module) instead iterates `record → replay-into-shards →
//! merge → re-plan`. Between batches the surviving faults are
//! re-partitioned from *measured* shard times — which is only sound
//! because a faulty circuit's whole mid-sequence state is portable: the
//! good machine is carried by the
//! [`TapeRecorder`](fmossim_core::TapeRecorder), and each fault reduces
//! to a [`FaultSnapshot`] ([`fmossim_core::ConcurrentSim::export_fault`]
//! / [`resume_at`](fmossim_core::ConcurrentSim::resume_at)).

use crate::plan::{fault_cost, ShardPlan};
use fmossim_core::{DenseState, FaultSnapshot, SimArena};
use fmossim_faults::{FaultId, FaultUniverse};
use fmossim_netlist::Network;
use std::sync::Mutex;

/// A bag of recycled [`SimArena`]s shared by the shard workers of
/// consecutive batches ([`ShardWork::arenas`](crate::ShardWork::arenas)).
///
/// Every shard simulator owns an arena — the switch engine (solver
/// scratch, event queues, per-node round stamps), the divergence-record
/// store, the flattened structural tables, the private-event queue and
/// all per-circuit flags, all sized for the network and fault count. A
/// batch driver rebuilds its shard simulators at every batch boundary,
/// so without reuse that whole buffer set is reallocated `shards ×
/// batches` times per run. Shards returning arenas here
/// ([`ArenaPool::put`]) let later shards skip the allocations
/// ([`ArenaPool::take`] + the in-place recycling inside
/// `ConcurrentSim::new_in`); the pool never holds more
/// arenas than the widest batch's shard count. Reuse is bit-invisible:
/// a recycled arena is indistinguishable from a fresh one.
#[derive(Default)]
pub struct ArenaPool {
    arenas: Mutex<Vec<SimArena>>,
}

impl ArenaPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Takes a recycled arena, if any shard has returned one.
    #[must_use]
    pub fn take(&self) -> Option<SimArena> {
        self.arenas.lock().expect("pool poisoned").pop()
    }

    /// Returns an arena for a later simulator build to reuse.
    pub fn put(&self, arena: SimArena) {
        self.arenas.lock().expect("pool poisoned").push(arena);
    }

    /// Arenas currently parked in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arenas.lock().expect("pool poisoned").len()
    }

    /// True iff no arena is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Default EWMA smoothing factor for [`CostModel::observe`]: half new
/// measurement, half history — reactive enough to follow the falling
/// live-fault curve, damped enough to ride out timer noise on short
/// batches.
pub const DEFAULT_COST_ALPHA: f64 = 0.5;

/// Per-fault simulation-cost estimates, seeded from the static
/// footprint proxy ([`fault_cost`]) and refined between batches from
/// measured shard times — the feedback signal the adaptive backend
/// re-plans with.
///
/// A shard's measured seconds are apportioned over its faults in
/// proportion to their current estimates, then folded into each
/// estimate with an exponentially weighted moving average. After the
/// first observation the estimates are in (approximate) seconds; only
/// their *ratios* matter to [`ShardPlan::build_weighted`].
///
/// ```
/// use fmossim_faults::{Fault, FaultId, FaultUniverse};
/// use fmossim_netlist::{Logic, Network, Size};
/// use fmossim_par::{CostModel, ShardPlan};
///
/// let mut net = Network::new();
/// let s = net.add_storage("S", Size::S1);
/// let fault = |v| Fault::NodeStuck { node: s, value: v };
/// let universe = FaultUniverse::from_faults(vec![fault(Logic::L), fault(Logic::H)]);
/// let mut model = CostModel::new(&net, &universe);
/// // Both faults start at the same static estimate...
/// assert_eq!(model.estimate(FaultId(0)), model.estimate(FaultId(1)));
/// // ...until a measured batch shows shard 1 (fault 1) running 3x longer.
/// let plan = ShardPlan::build_weighted(&[FaultId(0), FaultId(1)], 2, |_| 1.0);
/// model.observe(&plan, &[1.0, 3.0]);
/// assert!(model.estimate(FaultId(1)) > model.estimate(FaultId(0)));
/// ```
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Estimate per parent-universe fault id.
    est: Vec<f64>,
    alpha: f64,
}

impl CostModel {
    /// Seeds the model with the static footprint cost of every fault in
    /// `universe`, with the default smoothing factor
    /// ([`DEFAULT_COST_ALPHA`]).
    #[must_use]
    pub fn new(net: &Network, universe: &FaultUniverse) -> Self {
        CostModel::with_alpha(net, universe, DEFAULT_COST_ALPHA)
    }

    /// [`CostModel::new`] with an explicit EWMA factor in `(0, 1]`
    /// (1 = trust only the latest measurement; values are clamped into
    /// that range).
    #[must_use]
    pub fn with_alpha(net: &Network, universe: &FaultUniverse, alpha: f64) -> Self {
        CostModel {
            est: universe
                .iter()
                .map(|(_, f)| fault_cost(net, &f) as f64)
                .collect(),
            alpha: if alpha.is_finite() {
                alpha.clamp(f64::MIN_POSITIVE, 1.0)
            } else {
                DEFAULT_COST_ALPHA
            },
        }
    }

    /// The current estimate for one fault.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the seeding universe.
    #[must_use]
    pub fn estimate(&self, id: FaultId) -> f64 {
        self.est[id.index()]
    }

    /// Summed estimates over a set of fault ids (e.g. the survivors a
    /// re-plan must cover).
    #[must_use]
    pub fn total(&self, ids: &[FaultId]) -> f64 {
        ids.iter().map(|&id| self.estimate(id)).sum()
    }

    /// Folds one batch's measured per-shard seconds into the
    /// estimates. `shard_seconds[s]` is the measured wall-clock time of
    /// `plan.shard(s)`; it is apportioned over the shard's faults in
    /// proportion to their current estimates and EWMA-merged. Shards
    /// with non-positive measurements or all-zero estimates are
    /// skipped (no information).
    pub fn observe(&mut self, plan: &ShardPlan, shard_seconds: &[f64]) {
        for (s, ids) in plan.shards().enumerate() {
            let Some(&secs) = shard_seconds.get(s) else {
                continue;
            };
            if secs <= 0.0 || !secs.is_finite() {
                continue;
            }
            let base: f64 = ids.iter().map(|&id| self.estimate(id)).sum();
            if base <= 0.0 {
                continue;
            }
            let scale = secs / base;
            for &id in ids {
                let measured = self.est[id.index()] * scale;
                let e = &mut self.est[id.index()];
                *e += self.alpha * (measured - *e);
            }
        }
    }
}

/// The state a batch resumes from: the good machine at the batch
/// boundary plus every surviving fault's carried divergence, indexed by
/// parent-universe fault id.
///
/// Produced by the previous batch's
/// [`ShardResult::survivors`](crate::ShardResult::survivors) (folded
/// into the id-indexed table) and the
/// [`TapeRecorder::good_state`](fmossim_core::TapeRecorder::good_state)
/// snapshot taken *before* recording the next batch.
#[derive(Clone, Debug)]
pub struct ResumePoint<'n> {
    /// The good machine's state at the boundary.
    pub good: DenseState<'n>,
    /// `snapshots[id.index()]` for every surviving fault; `None` for
    /// faults that were detected-and-dropped (they must not appear in
    /// the plan).
    pub snapshots: Vec<Option<FaultSnapshot>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_shards, ScopedPool, ShardResult, ShardWork};
    use fmossim_core::{ConcurrentConfig, GoodTape, Pattern, Phase, TapeRecorder};
    use fmossim_netlist::{Drive, Logic, NodeId, Size, TransistorType};
    use fmossim_telemetry::Registry;
    use std::ops::ControlFlow;
    use std::sync::Arc;

    fn two_inverters() -> (Network, Vec<NodeId>, Vec<Pattern>) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let mut outs = Vec::new();
        for (name, inp) in [("OA", a), ("OB", b)] {
            let out = net.add_storage(name, Size::S1);
            net.add_transistor(TransistorType::P, Drive::D2, inp, vdd, out);
            net.add_transistor(TransistorType::N, Drive::D2, inp, out, gnd);
            outs.push(out);
        }
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L), (b, Logic::L)])]),
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::H), (b, Logic::H)])]),
        ];
        (net, outs, patterns)
    }

    /// Two single-pattern batches with a re-partition in between must
    /// reproduce the one-shot parallel detection set, with global
    /// pattern indices.
    #[test]
    fn batched_run_matches_one_shot() {
        let (net, outs, patterns) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let sim = ConcurrentConfig::paper();
        let one_shot = {
            let config = crate::ParallelConfig {
                jobs: crate::Jobs::Fixed(2),
                sim,
                ..crate::ParallelConfig::default()
            };
            crate::ParallelSim::new(&net, universe.clone(), config).run(&patterns, &outs)
        };

        let all: Vec<FaultId> = universe.iter().map(|(id, _)| id).collect();
        let mut recorder = TapeRecorder::new(&net, sim.engine);
        let plan0 = ShardPlan::build_weighted(&all, 2, |_| 1.0);
        let tape0 = recorder.record(&patterns[..1]);
        // Batch 0 parks its arenas in the pool; batch 1 draws them
        // back out — with bit-identical results either way. The parked
        // count is 1 or 2, not exactly 2: a shard that finishes before
        // the other starts donates its arena *within* the batch.
        let pool = ArenaPool::new();
        let batch = |plan: &ShardPlan,
                     resume: Option<&ResumePoint<'_>>,
                     tape: &GoodTape,
                     first: usize,
                     last: bool| {
            let work = ShardWork {
                first_pattern: first,
                tape: Some(tape),
                resume,
                arenas: Some(&pool),
                export_survivors: !last,
                ..ShardWork::new(&net, &universe, plan, &patterns[first..=first], &outs, sim)
            };
            let mut results: Vec<ShardResult> = Vec::new();
            run_shards(
                &ScopedPool::new(2),
                Arc::new(work),
                &Registry::null(),
                |r| {
                    results.push(r);
                    ControlFlow::Continue(())
                },
            );
            results
        };
        let b0 = batch(&plan0, None, &tape0, 0, false);
        let parked = pool.len();
        assert!(
            (1..=2).contains(&parked),
            "shards parked their arenas: {parked}"
        );

        // Boundary: snapshot, drop detected, re-plan the survivors
        // into a deliberately different partition (one shard).
        let good = recorder.good_state().clone();
        let mut snapshots: Vec<Option<FaultSnapshot>> = vec![None; universe.len()];
        let mut alive = Vec::new();
        for (id, snap) in b0.iter().flat_map(|r| &r.survivors) {
            snapshots[id.index()] = Some(snap.clone());
            alive.push(*id);
        }
        assert!(alive.len() < universe.len(), "pattern 0 detects something");
        let resume = ResumePoint { good, snapshots };
        let plan1 = ShardPlan::build_weighted(&alive, 1, |_| 1.0);
        let tape1 = recorder.record(&patterns[1..]);
        let b1 = batch(&plan1, Some(&resume), &tape1, 1, true);
        assert_eq!(pool.len(), parked, "one arena reused, then re-parked");
        assert!(b1[0].survivors.is_empty(), "no export after the last batch");

        let mut detections: Vec<_> = b0
            .iter()
            .chain(&b1)
            .flat_map(|r| r.report.detections.clone())
            .collect();
        detections.sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        assert_eq!(detections, one_shot.detections);
    }

    #[test]
    fn cost_model_feedback_shifts_estimates() {
        let (net, _, _) = two_inverters();
        let universe = FaultUniverse::stuck_nodes(&net);
        let all: Vec<FaultId> = universe.iter().map(|(id, _)| id).collect();
        let mut model = CostModel::with_alpha(&net, &universe, 1.0);
        let before = model.total(&all);
        assert!(before > 0.0);
        let plan = ShardPlan::build_weighted(&all, all.len(), |_| 1.0);
        // Shard k measured at (k+1) seconds: estimates become exactly
        // the measurements under alpha = 1.
        let secs: Vec<f64> = (0..plan.num_shards()).map(|k| (k + 1) as f64).collect();
        model.observe(&plan, &secs);
        for (s, ids) in plan.shards().enumerate() {
            let est: f64 = ids.iter().map(|&id| model.estimate(id)).sum();
            assert!((est - secs[s]).abs() < 1e-9, "shard {s}: {est}");
        }
        // Zero / missing measurements leave estimates untouched.
        let frozen = model.clone();
        model.observe(&plan, &[0.0]);
        for &id in &all {
            assert_eq!(model.estimate(id), frozen.estimate(id));
        }
    }
}
