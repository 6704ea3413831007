//! The packed-lane view: up to 64 faulty circuits overlaid on the good
//! circuit as one [`PackedState`], the bit-parallel sibling of
//! [`FaultyView`](crate::FaultyView).
//!
//! Lane `i` of the view is circuit `circs[i]`: its value at a node is
//! the fault's forced value if any, else its divergence record, else
//! the good circuit's state — exactly the scalar overlay order. Reads
//! gather lazily into a dense two-plane cache (one gather per node per
//! chunk, however often the solver revisits it); a gather maps each
//! record's circuit to its lane through a per-circuit table stamped
//! with the chunk's epoch, so it costs one lookup per record. A
//! one-lane read (the engine's one-lane solves) gathers nothing: it
//! reads the cache if the node is loaded, else that lane's forced
//! value, record or good value. Writes land in the cache and mark the
//! node dirty, and [`PackedViewScratch::scatter`] folds the dirty lanes
//! back into the record lists after the settle — writing the good
//! circuit's value removes the record (convergence), anything else
//! installs or updates it. Records are never mutated while a settle is
//! in flight, which is what lets the view hold them by shared
//! reference.

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
    /// Lane machinery for `net` and circuit ids below `num_circuits`.
    pub(crate) fn new(net: &Network, config: EngineConfig, num_circuits: usize) -> Self {
        PackedLanes {
            engine: PackedEngine::with_config(net, config),
            scratch: PackedViewScratch::new(net.num_nodes(), num_circuits),
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

/// Where a circuit sits in the current chunk: its lane, valid iff
/// `epoch` is the gather cache's.
#[derive(Clone, Copy, Debug, Default)]
struct LaneSlot {
    epoch: u32,
    lane: u32,
}

/// Reusable storage behind [`PackedBucketView`], owned by the simulator
/// so that per-chunk setup allocates nothing in the steady state.
#[derive(Debug)]
pub(crate) struct PackedViewScratch {
    cache: RefCell<GatherCache>,
    /// Per circuit id: its lane in the current chunk, stamped with the
    /// cache's epoch (sized once, for every circuit).
    lane_of: Vec<LaneSlot>,
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
    pub(crate) fn new(num_nodes: usize, num_circuits: usize) -> Self {
        PackedViewScratch {
            cache: RefCell::new(GatherCache {
                values: vec![PackedLogic::default(); num_nodes],
                loaded: vec![0; num_nodes],
                epoch: 0,
            }),
            lane_of: vec![LaneSlot::default(); num_circuits],
            dirty_mask: vec![0; num_nodes],
            dirty: Vec::new(),
            forced_nodes: Vec::new(),
            forced_trans: Vec::new(),
        }
    }

    /// Rebuilds the circuit → lane table and the per-lane fault
    /// override tables for a new chunk, and invalidates the gather
    /// cache.
    fn begin_chunk(&mut self, circs: &[u32], overrides: &[Overrides]) {
        debug_assert!(self.dirty.is_empty(), "previous chunk not scattered");
        let cache = self.cache.get_mut();
        cache.epoch = cache.epoch.wrapping_add(1);
        if cache.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so clear them.
            cache.loaded.fill(0);
            self.lane_of.fill(LaneSlot::default());
            cache.epoch = 1;
        }
        self.forced_nodes.clear();
        self.forced_trans.clear();
        for (lane, &circ) in circs.iter().enumerate() {
            let lane = u32::try_from(lane).expect("lane fits");
            self.lane_of[circ as usize] = LaneSlot {
                epoch: cache.epoch,
                lane,
            };
            let bit = 1u64 << lane;
            let ov = &overrides[circ as usize];
            for &(n, v) in &ov.forced_nodes {
                let mut pv = PackedLogic::default();
                pv.set(lane, v);
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
    /// Lane `i` is circuit `circs[i]`.
    circs: &'a [u32],
    /// Every circuit's overrides, indexed by circuit id: a one-lane
    /// read takes its lane's own.
    overrides: &'a [Overrides],
    lanes: u64,
    scratch: &'a mut PackedViewScratch,
}

impl<'a, 'n> PackedBucketView<'a, 'n> {
    pub(crate) fn new(
        net: &'n Network,
        good: &'a [Logic],
        records: &'a StateLists,
        circs: &'a [u32],
        overrides: &'a [Overrides],
        scratch: &'a mut PackedViewScratch,
    ) -> Self {
        scratch.begin_chunk(circs, overrides);
        PackedBucketView {
            net,
            good,
            records,
            circs,
            overrides,
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
            let lane_of = &self.scratch.lane_of;
            self.records.for_records_at(n, |c, rv| {
                let slot = lane_of[c as usize];
                if slot.epoch == *epoch {
                    v.set(slot.lane, rv);
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

    fn lane_state(&self, n: NodeId, lane: u32) -> Logic {
        let i = n.index();
        {
            let cache = self.scratch.cache.borrow();
            if cache.loaded[i] == cache.epoch {
                return cache.values[i].get(lane).expect("chunk lane holds a value");
            }
        }
        let circ = self.circs[lane as usize];
        if let Some(v) = self.overrides[circ as usize].forced_value(n) {
            return v;
        }
        self.records.get(n, circ).unwrap_or(self.good[i])
    }

    fn lane_conduction(&self, t: TransistorId, lane: u32) -> Conduction {
        let circ = self.circs[lane as usize];
        if let Some(c) = self.overrides[circ as usize].forced_conduction(t) {
            return c;
        }
        let tr = self.net.transistor(t);
        tr.ttype.conduction(self.lane_state(tr.gate, lane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::FaultyView;
    use fmossim_faults::FaultEffect;
    use fmossim_netlist::{Drive, Size, TransistorType};
    use fmossim_switch::SwitchState;

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
        let mut scratch = PackedViewScratch::new(3, 8);
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
        let mut scratch = PackedViewScratch::new(3, 8);
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
        let mut scratch = PackedViewScratch::new(3, 8);
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
        let mut scratch = PackedViewScratch::new(3, 8);
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

    /// A small network with records, stuck nodes and stuck transistors
    /// over circuits 1..=9: `A` is an input; `S1` gates a P pull-up to
    /// `S2`, `S2` an N pass device to `S3`.
    fn mixed() -> (Network, Vec<Logic>, StateLists, Vec<Overrides>) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let s1 = net.add_storage("S1", Size::S1);
        let s2 = net.add_storage("S2", Size::S1);
        let s3 = net.add_storage("S3", Size::S2);
        net.add_transistor(TransistorType::N, Drive::D2, a, s1, gnd);
        let t1 = net.add_transistor(TransistorType::P, Drive::D2, s1, vdd, s2);
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, s2, s2, s3);
        net.add_transistor(TransistorType::D, Drive::D1, s3, vdd, s3);
        let good = vec![Logic::H, Logic::L, Logic::H, Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(6, 9);
        for (n, circ, v) in [
            (s1, 1, Logic::H),
            (s1, 3, Logic::X),
            (s1, 5, Logic::H),
            (s1, 9, Logic::X),
            (s2, 2, Logic::L),
            (s2, 4, Logic::X),
            (s2, 6, Logic::H),
            (s2, 8, Logic::L),
            (s3, 1, Logic::L),
            (s3, 7, Logic::H),
            (s3, 8, Logic::H),
            (s3, 9, Logic::L),
        ] {
            recs.set(n, circ, v);
        }
        let mut overrides = vec![Overrides::default(); 10];
        overrides[2] = Overrides::from_effect(FaultEffect::ForceNode {
            node: s1,
            value: Logic::H,
        });
        overrides[4] = Overrides::from_effect(FaultEffect::ForceTransistor {
            t: t1,
            cond: Conduction::Open,
        });
        overrides[5] = Overrides::from_effect(FaultEffect::ForceTransistor {
            t: t2,
            cond: Conduction::Maybe,
        });
        overrides[6] = Overrides::from_effect(FaultEffect::ForceNode {
            node: s2,
            value: Logic::L,
        });
        overrides[8] = Overrides::from_effect(FaultEffect::ForceNode {
            node: s3,
            value: Logic::X,
        });
        (net, good, recs, overrides)
    }

    /// Gathers every node of a chunk and checks each lane against the
    /// scalar overlay of its circuit.
    fn assert_gather_matches_scalar(
        net: &Network,
        good: &[Logic],
        recs: &StateLists,
        overrides: &[Overrides],
        circs: &[u32],
        scratch: &mut PackedViewScratch,
    ) {
        let mut scalar_recs = recs.clone();
        let view = PackedBucketView::new(net, good, recs, circs, overrides, scratch);
        for n in net.node_ids() {
            let packed = view.node_state(n);
            for (lane, &circ) in circs.iter().enumerate() {
                let fv =
                    FaultyView::new(net, good, &mut scalar_recs, circ, &overrides[circ as usize]);
                let lane = u32::try_from(lane).unwrap();
                assert_eq!(
                    packed.get(lane),
                    Some(fv.node_state(n)),
                    "circuit {circ} (lane {lane}) at {n:?}"
                );
            }
        }
    }

    #[test]
    fn gather_maps_interleaved_records_to_lanes() {
        let (net, good, mut recs, overrides) = mixed();
        let mut scratch = PackedViewScratch::new(net.num_nodes(), overrides.len());
        // Records of circuits below (1), between (4, 6, 8) and above (9)
        // the chunk's ids sit at the same nodes as the chunk's own.
        for circs in [[2u32, 3, 5, 7], [1, 4, 6, 8]] {
            assert_gather_matches_scalar(&net, &good, &recs, &overrides, &circs, &mut scratch);
            scratch.scatter(&good, &mut recs, &circs);
        }
        // Across an epoch wrap: the wrapped epoch restarts at the first
        // chunk's stamp, so stale lane slots must have been cleared.
        scratch.cache.get_mut().epoch = u32::MAX;
        let circs = [1u32, 3, 9];
        assert_gather_matches_scalar(&net, &good, &recs, &overrides, &circs, &mut scratch);
        assert_eq!(scratch.cache.get_mut().epoch, 1, "the epoch wrapped");
    }

    #[test]
    fn one_lane_reads_equal_that_lane_of_the_packed_reads() {
        let (net, good, recs, overrides) = mixed();
        let circs = [1u32, 2, 4, 5, 6, 8, 9];
        let mut scratch = PackedViewScratch::new(net.num_nodes(), overrides.len());
        let mut view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        let lanes = u32::try_from(circs.len()).unwrap();
        // Each lane's one-lane reads, packed back into words.
        let one_lane = |view: &PackedBucketView<'_, '_>| {
            let states: Vec<PackedLogic> = net
                .node_ids()
                .map(|n| {
                    let mut v = PackedLogic::default();
                    for l in 0..lanes {
                        v.set(l, view.lane_state(n, l));
                    }
                    v
                })
                .collect();
            let conds: Vec<PackedConduction> = net
                .transistor_ids()
                .map(|t| {
                    let mut pc = PackedConduction::default();
                    for l in 0..lanes {
                        match view.lane_conduction(t, l) {
                            Conduction::Closed => pc.closed |= 1 << l,
                            Conduction::Maybe => pc.maybe |= 1 << l,
                            Conduction::Open => {}
                        }
                    }
                    pc
                })
                .collect();
            (states, conds)
        };
        let packed = |view: &PackedBucketView<'_, '_>| {
            let states: Vec<PackedLogic> = net.node_ids().map(|n| view.node_state(n)).collect();
            let conds: Vec<PackedConduction> =
                net.transistor_ids().map(|t| view.conduction(t)).collect();
            (states, conds)
        };
        // Unloaded: read one lane first, then the packed words.
        let unloaded = one_lane(&view);
        assert_eq!(unloaded, packed(&view), "unloaded nodes");
        assert_eq!(one_lane(&view), packed(&view), "loaded nodes");
        // Written: every storage node, in lanes that are not forced there.
        for n in net.node_ids().filter(|&n| !net.node(n).is_input()) {
            let writable = view.lanes() & !view.is_input_lanes(n);
            let old = view.node_state(n);
            let flipped = PackedLogic { h: old.l, l: old.h };
            view.set_node_state(n, writable & 0b1010101, flipped);
        }
        let written = one_lane(&view);
        assert_eq!(written, packed(&view), "written nodes");
        assert_ne!(written.0, unloaded.0, "the writes changed some lanes");
    }
}
