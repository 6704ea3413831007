//! The packed-lane view: up to 64 faulty circuits overlaid on the good
//! circuit as one [`PackedState`], the bit-parallel sibling of
//! [`FaultyView`](crate::FaultyView).
//!
//! Lane `i` of the view is circuit `circs[i]`: its value at a node is
//! the fault's forced value if any, else its divergence record, else
//! the good circuit's state — exactly the scalar overlay order. Reads
//! gather lazily into a dense two-plane cache (one gather per node per
//! chunk, however often the solver revisits it); writes land in the
//! cache and mark the node dirty, and [`PackedViewScratch::scatter`]
//! folds the dirty lanes back into the record lists after the settle —
//! writing the good circuit's value removes the record (convergence),
//! anything else installs or updates it. Records are never mutated
//! while a settle is in flight, which is what lets the view hold them
//! by shared reference.

use crate::overlay::Overrides;
use crate::records::StateLists;
use fmossim_netlist::{Conduction, Logic, Network, NodeId, TransistorId};
use fmossim_switch::{EngineConfig, PackedConduction, PackedEngine, PackedLogic, PackedState};
use std::cell::RefCell;

/// One triggered circuit's drained seed run: a range into the sorted
/// event buffer of the current settle step (the run's nodes are
/// `events[start..end]`, sorted and unique).
#[derive(Clone, Copy)]
pub(crate) struct SeedRun {
    pub(crate) circ: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl SeedRun {
    #[inline]
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The packed settling machinery: one engine plus the reusable
/// gather/scatter scratch behind [`PackedBucketView`] and the lane
/// scheduler's tables.
pub(crate) struct PackedLanes {
    pub(crate) engine: PackedEngine,
    pub(crate) scratch: PackedViewScratch,
    /// Scratch: the triggered circuits of the current phase as seed
    /// runs into the drained event buffer, chunked into lanes.
    pub(crate) batch: Vec<SeedRun>,
    /// Scratch: the seed-sharing circuits of the batch (packed lanes).
    pub(crate) shared: Vec<SeedRun>,
    /// Scratch: the circuits with fully private seed sets (scalar).
    pub(crate) solo: Vec<SeedRun>,
    /// Scratch: per-node triggered-circuit count, epoch-stamped.
    pub(crate) seed_count: Vec<u32>,
    pub(crate) seed_epoch: Vec<u32>,
    pub(crate) seed_gen: u32,
    /// Scratch: the current chunk's lane → circuit map.
    pub(crate) lane_circs: Vec<u32>,
}

impl PackedLanes {
    pub(crate) fn new(net: &Network, config: EngineConfig) -> Self {
        PackedLanes {
            engine: PackedEngine::with_config(net, config),
            scratch: PackedViewScratch::new(net.num_nodes()),
            batch: Vec::new(),
            shared: Vec::new(),
            solo: Vec::new(),
            seed_count: vec![0; net.num_nodes()],
            seed_epoch: vec![0; net.num_nodes()],
            seed_gen: 0,
            lane_circs: Vec::new(),
        }
    }
}

/// The lane mask for a chunk of `count` circuits (1..=64).
pub(crate) fn lane_mask(count: usize) -> u64 {
    debug_assert!((1..=64).contains(&count));
    if count == 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Lazily gathered node values for one chunk, epoch-stamped so that
/// starting the next chunk is O(1). Interior-mutable because gathering
/// happens on the trait's `&self` read path.
#[derive(Debug)]
struct GatherCache {
    values: Vec<PackedLogic>,
    loaded: Vec<u32>,
    epoch: u32,
}

/// Reusable storage behind [`PackedBucketView`], owned by the simulator
/// so that per-chunk setup allocates nothing in the steady state.
#[derive(Debug)]
pub(crate) struct PackedViewScratch {
    cache: RefCell<GatherCache>,
    /// Per node: lanes written during the current settle.
    dirty_mask: Vec<u64>,
    /// Nodes with a nonzero dirty mask, in first-write order.
    dirty: Vec<NodeId>,
    /// This chunk's stuck-node lanes: `(node, lanes, values)`, sorted
    /// by node with one merged entry per node.
    forced_nodes: Vec<(NodeId, u64, PackedLogic)>,
    /// This chunk's forced-conduction lanes, sorted by transistor
    /// (several entries per transistor when lanes force different
    /// classes).
    forced_trans: Vec<(TransistorId, u64, Conduction)>,
}

impl PackedViewScratch {
    pub(crate) fn new(num_nodes: usize) -> Self {
        PackedViewScratch {
            cache: RefCell::new(GatherCache {
                values: vec![PackedLogic::default(); num_nodes],
                loaded: vec![0; num_nodes],
                epoch: 0,
            }),
            dirty_mask: vec![0; num_nodes],
            dirty: Vec::new(),
            forced_nodes: Vec::new(),
            forced_trans: Vec::new(),
        }
    }

    /// Rebuilds the per-lane fault override tables for a new chunk and
    /// invalidates the gather cache.
    fn begin_chunk(&mut self, circs: &[u32], overrides: &[Overrides]) {
        debug_assert!(self.dirty.is_empty(), "previous chunk not scattered");
        let cache = self.cache.get_mut();
        cache.epoch = cache.epoch.wrapping_add(1);
        if cache.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so clear them.
            cache.loaded.fill(0);
            cache.epoch = 1;
        }
        self.forced_nodes.clear();
        self.forced_trans.clear();
        for (lane, &circ) in circs.iter().enumerate() {
            let bit = 1u64 << lane;
            let ov = &overrides[circ as usize];
            for &(n, v) in &ov.forced_nodes {
                let mut pv = PackedLogic::default();
                pv.set(u32::try_from(lane).expect("lane fits"), v);
                self.forced_nodes.push((n, bit, pv));
            }
            for &(t, c) in &ov.forced_transistors {
                self.forced_trans.push((t, bit, c));
            }
        }
        self.forced_nodes.sort_unstable_by_key(|&(n, _, _)| n);
        // Merge same-node entries so lookups are a single binary search.
        let mut w = 0;
        for r in 0..self.forced_nodes.len() {
            if w > 0 && self.forced_nodes[w - 1].0 == self.forced_nodes[r].0 {
                let (_, mask, pv) = self.forced_nodes[r];
                self.forced_nodes[w - 1].1 |= mask;
                let merged = &mut self.forced_nodes[w - 1].2;
                merged.overlay(pv, mask);
            } else {
                self.forced_nodes[w] = self.forced_nodes[r];
                w += 1;
            }
        }
        self.forced_nodes.truncate(w);
        self.forced_trans.sort_unstable_by_key(|&(t, m, _)| (t, m));
    }

    /// Folds every dirty lane back into the record lists: a value equal
    /// to the good circuit's removes the record (the lane converged),
    /// anything else installs or updates it. Leaves the scratch clean
    /// for the next chunk.
    pub(crate) fn scatter(&mut self, good: &[Logic], records: &mut StateLists, circs: &[u32]) {
        let cache = self.cache.get_mut();
        for &n in &self.dirty {
            let i = n.index();
            let mut m = self.dirty_mask[i];
            self.dirty_mask[i] = 0;
            let v = cache.values[i];
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let circ = circs[lane as usize];
                let val = v.get(lane).expect("written lane holds a value");
                if val == good[i] {
                    records.remove(n, circ);
                } else {
                    records.set(n, circ, val);
                }
            }
        }
        self.dirty.clear();
    }
}

/// Up to 64 faulty circuits as one [`PackedState`]. Construction wires
/// the chunk's fault overrides into the scratch tables; the settle then
/// runs entirely against the gather cache, and the caller scatters the
/// dirty lanes back into the records afterwards.
pub(crate) struct PackedBucketView<'a, 'n> {
    net: &'n Network,
    good: &'a [Logic],
    records: &'a StateLists,
    /// Lane `i` is circuit `circs[i]`; ascending, so a record's circuit
    /// id maps to its lane by binary search.
    circs: &'a [u32],
    lanes: u64,
    scratch: &'a mut PackedViewScratch,
}

impl<'a, 'n> PackedBucketView<'a, 'n> {
    pub(crate) fn new(
        net: &'n Network,
        good: &'a [Logic],
        records: &'a StateLists,
        circs: &'a [u32],
        overrides: &[Overrides],
        scratch: &'a mut PackedViewScratch,
    ) -> Self {
        debug_assert!(circs.windows(2).all(|w| w[0] < w[1]), "lanes ascend");
        scratch.begin_chunk(circs, overrides);
        PackedBucketView {
            net,
            good,
            records,
            circs,
            lanes: lane_mask(circs.len()),
            scratch,
        }
    }

    /// Lanes of this chunk's stuck-node fault on `n`, if any.
    fn forced_node_lanes(&self, n: NodeId) -> u64 {
        self.scratch
            .forced_nodes
            .binary_search_by_key(&n, |&(fn_, _, _)| fn_)
            .map(|i| self.scratch.forced_nodes[i].1)
            .unwrap_or(0)
    }
}

impl PackedState for PackedBucketView<'_, '_> {
    fn network(&self) -> &Network {
        self.net
    }

    fn lanes(&self) -> u64 {
        self.lanes
    }

    fn node_state(&self, n: NodeId) -> PackedLogic {
        let i = n.index();
        let mut cache = self.scratch.cache.borrow_mut();
        let GatherCache {
            values,
            loaded,
            epoch,
        } = &mut *cache;
        if loaded[i] != *epoch {
            loaded[i] = *epoch;
            // Overlay order bottom-up: good, then records, then forced —
            // the scalar FaultyView's forced → record → good priority.
            let mut v = PackedLogic::splat(self.good[i], self.lanes);
            self.records.for_records_at(n, |c, rv| {
                if let Ok(lane) = self.circs.binary_search(&c) {
                    v.set(u32::try_from(lane).expect("lane fits"), rv);
                }
            });
            if let Ok(fi) = self
                .scratch
                .forced_nodes
                .binary_search_by_key(&n, |&(fn_, _, _)| fn_)
            {
                let (_, mask, fv) = self.scratch.forced_nodes[fi];
                v.overlay(fv, mask);
            }
            values[i] = v;
        }
        values[i]
    }

    fn set_node_state(&mut self, n: NodeId, lanes: u64, v: PackedLogic) {
        // Load before overlaying, or a later first read would gather
        // from the records and clobber this write.
        let _ = self.node_state(n);
        let i = n.index();
        self.scratch.cache.get_mut().values[i].overlay(v, lanes);
        let dm = &mut self.scratch.dirty_mask[i];
        if *dm == 0 {
            self.scratch.dirty.push(n);
        }
        *dm |= lanes;
    }

    fn is_input_lanes(&self, n: NodeId) -> u64 {
        let base = if self.net.node(n).is_input() {
            self.lanes
        } else {
            0
        };
        base | self.forced_node_lanes(n)
    }

    fn conduction(&self, t: TransistorId) -> PackedConduction {
        let tr = self.net.transistor(t);
        let mut pc = PackedConduction::from_gate(tr.ttype, self.node_state(tr.gate), self.lanes);
        let ft = &self.scratch.forced_trans;
        let start = ft.partition_point(|&(ftt, _, _)| ftt < t);
        for &(ftt, mask, c) in &ft[start..] {
            if ftt != t {
                break;
            }
            pc.closed &= !mask;
            pc.maybe &= !mask;
            match c {
                Conduction::Closed => pc.closed |= mask,
                Conduction::Maybe => pc.maybe |= mask,
                Conduction::Open => {}
            }
        }
        pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_faults::FaultEffect;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn tiny() -> (Network, NodeId, NodeId, TransistorId) {
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        let _ = gnd;
        (net, a, s, t)
    }

    #[test]
    fn gather_layers_good_records_and_forces() {
        let (net, a, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 8);
        recs.set(s, 3, Logic::L); // lane 1 diverges at S
        recs.set(s, 7, Logic::H); // not in this chunk: invisible
        let overrides = vec![
            Overrides::default(),
            Overrides::default(),
            Overrides::default(),
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceNode {
                node: s,
                value: Logic::H,
            }),
        ];
        let circs = [2u32, 3, 4];
        let mut scratch = PackedViewScratch::new(3);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        let vs = view.node_state(s);
        assert_eq!(vs.get(0), Some(Logic::X), "circuit 2: good value");
        assert_eq!(vs.get(1), Some(Logic::L), "circuit 3: its record");
        assert_eq!(vs.get(2), Some(Logic::H), "circuit 4: forced value");
        assert_eq!(view.is_input_lanes(s), 0b100, "forced lane is an input");
        assert_eq!(view.is_input_lanes(a), 0b111, "netlist inputs everywhere");
    }

    #[test]
    fn writes_scatter_back_as_records_or_convergence() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 4);
        recs.set(s, 1, Logic::L);
        let overrides = vec![Overrides::default(); 4];
        let circs = [1u32, 2];
        let mut scratch = PackedViewScratch::new(3);
        {
            let mut view =
                PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
            // Lane 0 (circuit 1) converges to good X; lane 1 (circuit 2)
            // diverges to H.
            let mut v = PackedLogic::default();
            v.set(0, Logic::X);
            v.set(1, Logic::H);
            view.set_node_state(s, 0b11, v);
            // The write is visible through the view immediately.
            assert_eq!(view.node_state(s).get(0), Some(Logic::X));
        }
        scratch.scatter(&good, &mut recs, &circs);
        assert_eq!(recs.get(s, 1), None, "converged record removed");
        assert_eq!(recs.get(s, 2), Some(Logic::H), "divergence recorded");
    }

    #[test]
    fn forced_transistor_lanes_override_gate() {
        let (net, _, _, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let recs = StateLists::new(3, 4);
        let overrides = vec![
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceTransistor {
                t,
                cond: Conduction::Open,
            }),
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceTransistor {
                t,
                cond: Conduction::Maybe,
            }),
        ];
        let circs = [1u32, 2, 3];
        let mut scratch = PackedViewScratch::new(3);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        let pc = view.conduction(t);
        // Gate A is H: the N device conducts except where forced.
        assert_eq!(pc.closed, 0b010, "lane 0 forced open, lane 2 forced maybe");
        assert_eq!(pc.maybe, 0b100);
    }

    #[test]
    fn second_chunk_invalidates_gather_cache() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 4);
        let overrides = vec![Overrides::default(); 4];
        let mut scratch = PackedViewScratch::new(3);
        let circs = [1u32];
        {
            let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
            assert_eq!(view.node_state(s).get(0), Some(Logic::X));
        }
        scratch.scatter(&good, &mut recs, &circs);
        recs.set(s, 1, Logic::H);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        assert_eq!(
            view.node_state(s).get(0),
            Some(Logic::H),
            "new chunk re-gathers from the updated records"
        );
    }
}
