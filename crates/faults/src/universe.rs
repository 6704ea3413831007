//! Fault-universe enumeration and random sampling.

use crate::inject::{is_fault_control, is_fault_device};
use crate::{Fault, FaultId};
use fmossim_netlist::{Logic, Network, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An ordered collection of faults to simulate. Fault `k` of the
/// universe becomes circuit `k + 1` in the simulators (circuit 0 is the
/// good circuit).
///
/// # Example
///
/// ```
/// use fmossim_netlist::{Network, Logic, Size, Drive, TransistorType};
/// use fmossim_faults::FaultUniverse;
///
/// let mut net = Network::new();
/// let gnd = net.add_input("Gnd", Logic::L);
/// let a = net.add_input("A", Logic::L);
/// let s = net.add_storage("S", Size::S1);
/// net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
/// let u = FaultUniverse::stuck_nodes(&net);
/// assert_eq!(u.len(), 2); // S stuck-at-0 and stuck-at-1
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// An empty universe.
    #[must_use]
    pub fn new() -> Self {
        FaultUniverse::default()
    }

    /// Builds the universe from an explicit list.
    #[must_use]
    pub fn from_faults(faults: Vec<Fault>) -> Self {
        FaultUniverse { faults }
    }

    /// Every storage node stuck-at-0 and stuck-at-1 — the paper's
    /// primary fault class. Fault-control nodes and input nodes are
    /// excluded (inputs are externally driven; stuck inputs can be
    /// modelled by driving the test sequence differently).
    #[must_use]
    pub fn stuck_nodes(net: &Network) -> Self {
        let mut faults = Vec::new();
        for (id, node) in net.nodes() {
            if node.is_input() || is_fault_control(net, id) {
                continue;
            }
            faults.push(Fault::NodeStuck {
                node: id,
                value: Logic::L,
            });
            faults.push(Fault::NodeStuck {
                node: id,
                value: Logic::H,
            });
        }
        FaultUniverse { faults }
    }

    /// Every functional transistor stuck-open and stuck-closed (fault
    /// devices excluded) — the paper's §5 validation class.
    #[must_use]
    pub fn stuck_transistors(net: &Network) -> Self {
        let mut faults = Vec::new();
        for (id, _) in net.transistors() {
            if is_fault_device(net, id) {
                continue;
            }
            faults.push(Fault::TransistorStuckOpen(id));
            faults.push(Fault::TransistorStuckClosed(id));
        }
        FaultUniverse { faults }
    }

    /// Bridge-short faults for pre-inserted bridges with the given
    /// control nodes (see [`crate::inject::insert_bridge`]).
    #[must_use]
    pub fn bridges(controls: impl IntoIterator<Item = NodeId>) -> Self {
        FaultUniverse {
            faults: controls
                .into_iter()
                .map(|control| Fault::BridgeShort { control })
                .collect(),
        }
    }

    /// Line-open faults for pre-inserted breakable segments with the
    /// given control nodes (see [`crate::inject::breakable_segment`]).
    #[must_use]
    pub fn opens(controls: impl IntoIterator<Item = NodeId>) -> Self {
        FaultUniverse {
            faults: controls
                .into_iter()
                .map(|control| Fault::LineOpen { control })
                .collect(),
        }
    }

    /// Number of faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True iff the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault list, in circuit-id order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The fault with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fault(&self, id: FaultId) -> Fault {
        self.faults[id.index()]
    }

    /// Iterates `(id, fault)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (FaultId, Fault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (FaultId(u32::try_from(i).expect("universe too large")), f))
    }

    /// Concatenates two universes.
    #[must_use]
    pub fn union(mut self, other: FaultUniverse) -> Self {
        self.faults.extend(other.faults);
        self
    }

    /// Draws a reproducible random sample of `k` faults (all faults if
    /// `k >= len`), preserving no particular order beyond the seeded
    /// shuffle. Used for the paper's Figure 3 fault-sampling sweep.
    #[must_use]
    pub fn sample(&self, k: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut faults = self.faults.clone();
        faults.shuffle(&mut rng);
        faults.truncate(k);
        FaultUniverse { faults }
    }

    /// The sub-universe containing exactly the given fault ids of
    /// `self`, in the given order. Building shard universes for
    /// fault-parallel simulation is the intended use: each shard keeps
    /// the id list to map its local circuit numbers back to ids in the
    /// parent universe.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    #[must_use]
    pub fn subset(&self, ids: &[FaultId]) -> Self {
        FaultUniverse {
            faults: ids.iter().map(|&id| self.fault(id)).collect(),
        }
    }

    /// Partitions the universe's fault ids into `k` shards by dealing
    /// them out round-robin (fault `i` goes to shard `i % k`). Always
    /// returns exactly `max(k, 1)` shards; trailing shards may be empty
    /// when the universe is smaller than `k`. Within a shard, ids are
    /// ascending.
    #[must_use]
    pub fn split_round_robin(&self, k: usize) -> Vec<Vec<FaultId>> {
        let k = k.max(1);
        let mut shards = vec![Vec::new(); k];
        for (id, _) in self.iter() {
            shards[id.index() % k].push(id);
        }
        shards
    }

    /// Removes faults that are provably equivalent to the fault-free
    /// circuit and therefore undetectable by construction:
    ///
    /// * stuck-*closed* on a d-type (depletion) transistor — the device
    ///   always conducts anyway;
    /// * any stuck fault on a transistor whose source and drain are the
    ///   same node (a capacitor connection conducts into itself).
    ///
    /// This is the cheap structural slice of fault collapsing; it keeps
    /// coverage figures honest without simulating no-op circuits.
    #[must_use]
    pub fn without_redundant(self, net: &Network) -> Self {
        use fmossim_netlist::TransistorType;
        let faults = self
            .faults
            .into_iter()
            .filter(|f| match *f {
                Fault::TransistorStuckClosed(t) => {
                    let tr = net.transistor(t);
                    tr.ttype != TransistorType::D && tr.source != tr.drain
                }
                Fault::TransistorStuckOpen(t) => {
                    let tr = net.transistor(t);
                    tr.source != tr.drain
                }
                _ => true,
            })
            .collect();
        FaultUniverse { faults }
    }
}

impl FromIterator<Fault> for FaultUniverse {
    fn from_iter<T: IntoIterator<Item = Fault>>(iter: T) -> Self {
        FaultUniverse {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultUniverse {
    fn extend<T: IntoIterator<Item = Fault>>(&mut self, iter: T) {
        self.faults.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{breakable_segment, insert_bridge};
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn net_with_faults() -> (Network, Fault, Fault) {
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let s = net.add_storage("S", Size::S1);
        let w = net.add_storage("W", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        let br = insert_bridge(&mut net, s, gnd, "sg");
        let op = breakable_segment(&mut net, s, w, "sw");
        (net, br, op)
    }

    #[test]
    fn stuck_nodes_skips_inputs_and_controls() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_nodes(&net);
        // Only S and W are storage; 2 faults each.
        assert_eq!(u.len(), 4);
        for (_, f) in u.iter() {
            match f {
                Fault::NodeStuck { node, .. } => {
                    assert!(!net.node(node).is_input());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn stuck_transistors_skips_fault_devices() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_transistors(&net);
        // 3 transistors exist but 2 are fault devices → 1 × 2 faults.
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn bridges_and_opens_builders() {
        let (net, br, op) = net_with_faults();
        let (Fault::BridgeShort { control: cb }, Fault::LineOpen { control: co }) = (br, op) else {
            panic!("wrong variants");
        };
        let u = FaultUniverse::bridges([cb]).union(FaultUniverse::opens([co]));
        assert_eq!(u.len(), 2);
        assert_eq!(u.fault(FaultId(0)), br);
        assert_eq!(u.fault(FaultId(1)), op);
        let _ = net;
    }

    #[test]
    fn sample_is_reproducible_and_bounded() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        let s1 = u.sample(3, 42);
        let s2 = u.sample(3, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 3);
        let all = u.sample(1000, 7);
        assert_eq!(all.len(), u.len());
        // Different seeds give different selections (overwhelmingly).
        let s3 = u.sample(3, 43);
        assert!(s1 != s3 || u.len() <= 3);
    }

    #[test]
    fn without_redundant_drops_depletion_stuck_closed() {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let a = net.add_input("A", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        // Depletion load (self-connected gate) + functional pulldown.
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, vdd);
        let u = FaultUniverse::stuck_transistors(&net).without_redundant(&net);
        // Load: only stuck-open survives; pulldown: both.
        assert_eq!(u.len(), 3);
        assert!(u
            .faults()
            .iter()
            .all(|f| !matches!(f, Fault::TransistorStuckClosed(t)
                if net.transistor(*t).ttype == TransistorType::D)));
    }

    #[test]
    fn without_redundant_keeps_node_faults() {
        let (net, _, _) = {
            let (n, b, o) = net_with_faults();
            (n, b, o)
        };
        let u = FaultUniverse::stuck_nodes(&net).clone();
        let before = u.len();
        assert_eq!(u.without_redundant(&net).len(), before);
    }

    #[test]
    fn subset_preserves_order_and_faults() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_nodes(&net);
        let ids = [FaultId(3), FaultId(0), FaultId(2)];
        let sub = u.subset(&ids);
        assert_eq!(sub.len(), 3);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(sub.fault(FaultId(u32::try_from(k).unwrap())), u.fault(id));
        }
    }

    #[test]
    fn splits_partition_the_universe() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_nodes(&net).union(FaultUniverse::stuck_transistors(&net));
        for k in [1, 2, 3, u.len(), u.len() + 5] {
            let shards = u.split_round_robin(k);
            assert_eq!(shards.len(), k);
            let mut seen: Vec<FaultId> = shards.iter().flatten().copied().collect();
            seen.sort_unstable_by_key(|id| id.index());
            let all: Vec<FaultId> = u.iter().map(|(id, _)| id).collect();
            assert_eq!(seen, all, "k={k}: shards partition the ids");
            for shard in &shards {
                assert!(
                    shard.windows(2).all(|w| w[0].index() < w[1].index()),
                    "ids ascending within a shard"
                );
            }
        }
    }

    #[test]
    fn split_shard_sizes_are_balanced() {
        let (net, _, _) = net_with_faults();
        let u = FaultUniverse::stuck_nodes(&net); // 4 faults
        let sizes: Vec<usize> = u.split_round_robin(3).iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // k=0 is clamped to one shard, k > len leaves empties.
        assert_eq!(u.split_round_robin(0).len(), 1);
        assert_eq!(
            u.split_round_robin(9)
                .iter()
                .filter(|s| s.is_empty())
                .count(),
            5
        );
    }

    #[test]
    fn from_iterator_and_extend() {
        let (net, br, _) = net_with_faults();
        let mut u: FaultUniverse = std::iter::once(br).collect();
        u.extend(FaultUniverse::stuck_nodes(&net).faults().iter().copied());
        assert_eq!(u.len(), 5);
        assert!(!u.is_empty());
        assert!(FaultUniverse::new().is_empty());
    }
}
