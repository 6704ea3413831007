//! Typed-index arenas and the flat deterministic event queue — the
//! hot-path data layout of the concurrent simulator.
//!
//! Three pieces live here:
//!
//! * [`CircuitId`] — the typed index of a faulty circuit (circuit 0 is
//!   the good machine). Alongside `NodeId` and `FaultId` it completes
//!   the slot-map idiom: every hot-path container is a contiguous array
//!   indexed by one of the three newtypes, never a map keyed by raw
//!   integers.
//! * [`Csr`] — a compressed-sparse-row table replacing `Vec<Vec<T>>`
//!   for the per-node attachment and forced-value tables: one `offsets`
//!   array plus one contiguous `data` array, so a table costs two
//!   allocations instead of one per node.
//! * [`EventQueue`] — the flat private-event queue. Triggering appends
//!   `(circuit, node)` pairs in arbitrary order; the drain sorts the
//!   buffer once (`sort_unstable` on the pair, i.e. a stable
//!   `(circuit, node)` total order) and deduplicates, which *is* the
//!   deterministic schedule: circuits settle in ascending id order,
//!   each with its seed nodes sorted and deduplicated. No `BinaryHeap`,
//!   no per-circuit allocation, and the drain order is a pure function
//!   of the scheduled set — `crates/core/tests/proptest_queue.rs`
//!   locks this invariant over random netlists.

use fmossim_faults::FaultId;
use fmossim_netlist::NodeId;

/// The typed index of a simulated circuit: 0 is the good machine,
/// `k + 1` the faulty circuit carrying fault set `k` (so
/// `CircuitId::from_fault(FaultId(k)).get() == k + 1`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct CircuitId(pub u32);

impl CircuitId {
    /// The circuit of fault (set) `f`.
    #[inline]
    #[must_use]
    pub fn from_fault(f: FaultId) -> CircuitId {
        CircuitId(f.0 + 1)
    }

    /// The fault (set) this circuit carries; `None` for the good
    /// machine (circuit 0).
    #[inline]
    #[must_use]
    pub fn fault(self) -> Option<FaultId> {
        self.0.checked_sub(1).map(FaultId)
    }

    /// The raw circuit number.
    #[inline]
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// The circuit number as a container index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compressed-sparse-row table: `row(i)` is a contiguous slice, all
/// rows share one `data` allocation. Entries can be removed in place
/// ([`Csr::remove`]); a row keeps its start and shrinks from the end.
#[derive(Clone, Debug)]
pub(crate) struct Csr<T> {
    /// `n_rows + 1` offsets into `data`: where each row was built.
    offsets: Vec<u32>,
    /// Per row, one past its last live entry in `data`.
    ends: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Builds the table for `n_rows` rows from `(row, value)` pairs
    /// sorted by row index (ties keep their order).
    pub(crate) fn new(n_rows: usize, pairs: &[(u32, T)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "pairs sorted");
        let mut offsets = Vec::with_capacity(n_rows + 1);
        let mut data = Vec::with_capacity(pairs.len());
        let mut next = 0usize;
        for row in 0..n_rows as u32 {
            offsets.push(u32::try_from(data.len()).expect("csr fits u32"));
            while next < pairs.len() && pairs[next].0 == row {
                data.push(pairs[next].1);
                next += 1;
            }
        }
        offsets.push(u32::try_from(data.len()).expect("csr fits u32"));
        debug_assert_eq!(next, pairs.len(), "row indices within n_rows");
        let ends = offsets[1..].to_vec();
        Csr {
            offsets,
            ends,
            data,
        }
    }

    /// The entries of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] as usize..self.ends[i] as usize]
    }

    /// Removes the first entry of row `i` equal to `value`, if any,
    /// keeping the rest of the row in order.
    pub(crate) fn remove(&mut self, i: usize, value: T)
    where
        T: PartialEq,
    {
        let (start, end) = (self.offsets[i] as usize, self.ends[i] as usize);
        if let Some(k) = self.data[start..end].iter().position(|&v| v == value) {
            self.data.copy_within(start + k + 1..end, start + k);
            self.ends[i] -= 1;
        }
    }
}

/// The flat private-event queue: scheduled `(circuit, node)` events,
/// unsorted until drained. See the module docs for the drain-order
/// invariant.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventQueue {
    events: Vec<(CircuitId, NodeId)>,
}

impl EventQueue {
    /// Schedules a private event: `node` changed for circuit `circ`.
    /// Duplicates are fine — the drain deduplicates.
    #[inline]
    pub(crate) fn schedule(&mut self, circ: CircuitId, node: NodeId) {
        self.events.push((circ, node));
    }

    /// Takes the scheduled events out as one buffer, sorted by
    /// `(circuit, node)` and deduplicated — ascending circuit runs,
    /// each run's nodes sorted and unique. Return the buffer with
    /// [`EventQueue::restore`] so its allocation is reused.
    pub(crate) fn take_sorted(&mut self) -> Vec<(CircuitId, NodeId)> {
        let mut events = std::mem::take(&mut self.events);
        events.sort_unstable();
        events.dedup();
        events
    }

    /// Returns a drained buffer, keeping its capacity for the next
    /// phase.
    pub(crate) fn restore(&mut self, mut buf: Vec<(CircuitId, NodeId)>) {
        buf.clear();
        self.events = buf;
    }
}

/// The circuits triggered by one good-machine event, deduplicated as
/// they are found: an epoch-stamped per-circuit mark admits each
/// circuit once per event, so triggering is linear in the scan with no
/// sort. Circuits come out in discovery order; nothing downstream
/// depends on it (the event queue is sorted at drain, and old-value
/// preservation writes each circuit's own records). A second stamp
/// remembers the circuits whose trigger-time solve cleared them at
/// this event, so a circuit hit at several fault sites of one event is
/// solved once.
#[derive(Clone, Debug)]
pub(crate) struct TriggerSet {
    circuits: Vec<u32>,
    /// Per circuit id: the epoch of the event that last admitted it.
    mark: Vec<u32>,
    /// Per circuit id: the epoch of the event that last cleared it.
    cleared: Vec<u32>,
    epoch: u32,
}

impl TriggerSet {
    /// An empty set over circuit ids `0..n_circuits`.
    pub(crate) fn new(n_circuits: usize) -> Self {
        TriggerSet {
            circuits: Vec::new(),
            mark: vec![0; n_circuits],
            cleared: vec![0; n_circuits],
            epoch: 0,
        }
    }

    /// Empties the set for the next event.
    #[inline]
    pub(crate) fn begin(&mut self) {
        self.circuits.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: clear the stamps and restart at 1.
            self.mark.fill(0);
            self.cleared.fill(0);
            self.epoch = 1;
        }
    }

    /// Notes that this event's trigger-time solve cleared circuit `c`.
    #[inline]
    pub(crate) fn clear_hit(&mut self, c: u32) {
        self.cleared[c as usize] = self.epoch;
    }

    /// True iff this event has admitted circuit `c` or cleared it: no
    /// further fault-site hit of `c` needs a decision.
    #[inline]
    pub(crate) fn decided(&self, c: u32) -> bool {
        self.mark[c as usize] == self.epoch || self.cleared[c as usize] == self.epoch
    }

    /// Adds circuit `c` unless this event already has it.
    #[inline]
    pub(crate) fn insert(&mut self, c: u32) {
        let m = &mut self.mark[c as usize];
        if *m != self.epoch {
            *m = self.epoch;
            self.circuits.push(c);
        }
    }

    /// The circuits admitted since [`TriggerSet::begin`], in discovery
    /// order.
    #[inline]
    pub(crate) fn circuits(&self) -> &[u32] {
        &self.circuits
    }
}

/// Phase-scoped per-circuit marks, epoch-stamped like [`TriggerSet`]
/// so starting a phase is O(1). A circuit is noted the first time the
/// phase triggers it, with whether it had no divergence record then:
/// the flag is the "before" half of `core.settles.redundant`.
#[derive(Clone, Debug)]
pub(crate) struct PhaseMarks {
    epoch: u32,
    /// Per circuit: the epoch of the phase that noted it, and whether
    /// it was record-free then.
    start: Vec<(u32, bool)>,
}

impl PhaseMarks {
    /// Marks over circuit ids `0..n_circuits`, none noted.
    pub(crate) fn new(n_circuits: usize) -> Self {
        PhaseMarks {
            epoch: 0,
            start: vec![(0, false); n_circuits],
        }
    }

    /// Starts a new phase: every mark of the previous one expires.
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.start.fill((0, false));
            self.epoch = 1;
        }
    }

    /// Notes whether circuit `c` is record-free, unless this phase
    /// already noted it.
    #[inline]
    pub(crate) fn note_start(&mut self, c: u32, clean: bool) {
        let slot = &mut self.start[c as usize];
        if slot.0 != self.epoch {
            *slot = (self.epoch, clean);
        }
    }

    /// Whether circuit `c` began the phase record-free: its noted
    /// flag, or `clean_now` when the phase has not written its records
    /// (then its current record count is the phase-start count).
    #[inline]
    pub(crate) fn started_clean(&self, c: u32, clean_now: bool) -> bool {
        match self.start[c as usize] {
            (epoch, clean) if epoch == self.epoch => clean,
            _ => clean_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn queue_drains_sorted_and_deduplicated() {
        let mut q = EventQueue::default();
        q.schedule(CircuitId(3), n(5));
        q.schedule(CircuitId(1), n(9));
        q.schedule(CircuitId(3), n(2));
        q.schedule(CircuitId(1), n(9)); // duplicate
        q.schedule(CircuitId(2), n(0));
        let drained = q.take_sorted();
        assert_eq!(
            drained,
            vec![
                (CircuitId(1), n(9)),
                (CircuitId(2), n(0)),
                (CircuitId(3), n(2)),
                (CircuitId(3), n(5)),
            ],
            "ascending circuit runs, nodes sorted and unique within each"
        );
        q.restore(drained);
        let empty = q.take_sorted();
        assert!(empty.is_empty(), "restore clears the buffer");
    }

    #[test]
    fn queue_drain_order_is_schedule_order_independent() {
        let pairs = [
            (CircuitId(2), n(1)),
            (CircuitId(1), n(3)),
            (CircuitId(1), n(1)),
            (CircuitId(2), n(4)),
        ];
        let mut a = EventQueue::default();
        for &(c, node) in &pairs {
            a.schedule(c, node);
        }
        let mut b = EventQueue::default();
        for &(c, node) in pairs.iter().rev() {
            b.schedule(c, node);
            b.schedule(c, node); // and duplicated
        }
        assert_eq!(a.take_sorted(), b.take_sorted());
    }

    #[test]
    fn trigger_set_admits_each_circuit_once_per_event() {
        let mut set = TriggerSet::new(6);
        set.begin();
        for c in [4, 1, 4, 2, 1] {
            set.insert(c);
        }
        assert_eq!(set.circuits(), &[4, 1, 2], "deduplicated, discovery order");
        set.begin();
        assert!(set.circuits().is_empty(), "a new event starts empty");
        set.insert(1);
        assert_eq!(set.circuits(), &[1], "marks of the last event expire");
        // Epoch wraparound clears the stamps instead of aliasing.
        set.epoch = u32::MAX;
        set.mark[3] = 1;
        set.begin();
        set.insert(3);
        assert_eq!(set.circuits(), &[3]);
    }

    #[test]
    fn trigger_set_remembers_cleared_circuits_for_one_event() {
        let mut set = TriggerSet::new(4);
        set.begin();
        set.insert(1);
        set.clear_hit(2);
        assert!(set.decided(1) && set.decided(2) && !set.decided(3));
        assert_eq!(set.circuits(), &[1], "a cleared circuit is not admitted");
        set.begin();
        assert!(!set.decided(1) && !set.decided(2), "both stamps expire");
        // Epoch wraparound clears both stamps instead of aliasing.
        set.epoch = u32::MAX;
        set.cleared[3] = 1;
        set.begin();
        assert!(!set.decided(3));
    }

    #[test]
    fn phase_marks_expire_with_the_phase() {
        let mut marks = PhaseMarks::new(3);
        marks.begin();
        marks.note_start(1, true);
        marks.note_start(1, false); // the first note of a phase wins
        assert!(
            marks.started_clean(1, false),
            "noted flag, not the current one"
        );
        assert!(!marks.started_clean(2, false), "unnoted: the current flag");
        assert!(marks.started_clean(2, true), "unnoted: the current flag");
        marks.begin();
        assert!(!marks.started_clean(1, false), "noted flags expire");
        // Epoch wraparound clears the notes instead of aliasing.
        marks.epoch = u32::MAX;
        marks.start[2] = (1, true);
        marks.begin();
        assert!(!marks.started_clean(2, false));
    }

    #[test]
    fn csr_rows_match_pairs() {
        let csr = Csr::new(4, &[(0, 7u32), (0, 8), (2, 1)]);
        assert_eq!(csr.row(0), &[7, 8]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[1]);
        assert_eq!(csr.row(3), &[] as &[u32]);
        let csr = Csr::new(2, &[(1, 9)]);
        assert_eq!(csr.row(0), &[] as &[u32]);
        assert_eq!(csr.row(1), &[9]);
    }

    #[test]
    fn csr_remove_keeps_rows_in_order() {
        let mut csr = Csr::new(3, &[(0, 1u32), (0, 2), (0, 3), (1, 2), (2, 5)]);
        csr.remove(0, 2);
        assert_eq!(csr.row(0), &[1, 3]);
        assert_eq!(csr.row(1), &[2], "other rows untouched");
        csr.remove(0, 9);
        assert_eq!(csr.row(0), &[1, 3], "absent value: no-op");
        csr.remove(0, 3);
        csr.remove(0, 1);
        csr.remove(2, 5);
        assert_eq!(csr.row(0), &[] as &[u32]);
        assert_eq!(csr.row(1), &[2]);
        assert_eq!(csr.row(2), &[] as &[u32]);
    }

    #[test]
    fn circuit_ids_round_trip_fault_ids() {
        let c = CircuitId::from_fault(FaultId(4));
        assert_eq!(c.get(), 5);
        assert_eq!(c.index(), 5);
        assert_eq!(c.fault(), Some(FaultId(4)));
        assert_eq!(CircuitId(0).fault(), None, "good machine carries none");
    }
}
