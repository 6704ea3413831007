//! Static fault collapsing: equivalence analysis over the channel graph.
//!
//! ERASER-style fault simulators cut their work by never simulating
//! faults that are *provably equivalent* — guaranteed to produce the
//! same detection set as some representative under every stimulus that
//! the analysis was told about. [`CollapseClasses::analyze`] partitions
//! a [`FaultUniverse`] into such classes using purely structural rules
//! over the switch-level network; the simulator then runs only the
//! class representatives and fans each representative's detections back
//! out to every member at report time.
//!
//! The contract is *strict*: two faults land in one class only when
//! their faulty circuits have identical observed trajectories at every
//! declared output under every stimulus that assigns only the declared
//! stimulus inputs. Dominance-style collapsing (member detected ⇒
//! representative detected, but not vice versa) is deliberately not
//! performed — the repository's differential tests require fanned-out
//! reports to be bit-identical to uncollapsed runs.
//!
//! # Rules
//!
//! All rules are proved against the switch-level model of the DAC-85
//! paper (strength lattice λ < κ* < γ* < ω, ternary conduction). A node
//! is *pinned* when it is an input that no stimulus phase assigns and
//! whose default value is definite (Vdd, Gnd, tied-off controls): its
//! value is a constant of every circuit whose fault does not target it.
//!
//! 1. **Parallel twins** — two transistors with the same type, strength,
//!    gate and (unordered) channel terminals are exchanged by a network
//!    automorphism that fixes every node, so their stuck-open faults are
//!    equivalent, as are their stuck-closed faults. Source–drain
//!    symmetry of the switch model is what makes the unordered key
//!    correct.
//! 2. **Series same-gate stuck-open** — for a chain `u –t1– m –t2– w`
//!    where `t1`/`t2` share type, strength and gate, the interior node
//!    `m` has no other channel connections, is unobserved, and gates
//!    only depletion devices, and *both* outer nodes are pinned inputs:
//!    opening either transistor leaves `m` a dead-end stub hanging off a
//!    pinned rail, so `StuckOpen(t1) ≡ StuckOpen(t2)`.
//! 3. **Stuck node behind a dominant driver** — see
//!    [`CollapseClasses::analyze`]'s implementation notes; this is the
//!    workhorse for inverter/buffer chains: a stuck input of a
//!    restoring stage is equivalent to the corresponding stuck value of
//!    its output node.
//! 4. **Never detected** — faults whose effect is a no-op (depletion
//!    stuck-closed, self-looped channel, a forced conduction the pinned
//!    gate already forces, a forced node value the pin already holds)
//!    or whose effect terminals lie outside the observable region of
//!    the declared outputs all share one class: their detection sets
//!    are empty.
//!
//! Faults that fit no rule stay in singleton classes; collapsing is
//! always sound to skip and the identity partition is a valid result.

use crate::{Fault, FaultEffect, FaultId, FaultUniverse};
use fmossim_netlist::influence::{channel_component, gate_relevant_transistors, observable_region};
use fmossim_netlist::{
    Conduction, Drive, Logic, Network, NodeClass, NodeId, TransistorId, TransistorType,
};
use std::collections::HashMap;

/// Union–find over universe indices; attaching the larger root under
/// the smaller keeps every class root at its minimum member, which the
/// representative choice relies on.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..u32::try_from(n).expect("universe too large")).collect(),
        }
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let gp = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = gp;
            i = gp;
        }
        i
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// The result of static fault collapsing: a partition of a parent
/// [`FaultUniverse`] into equivalence classes, each represented by its
/// lowest-indexed member.
///
/// The *collapsed universe* is the subset of representatives in
/// ascending parent order; collapsed fault `k` corresponds to parent
/// fault [`CollapseClasses::representatives`]`[k]`, and its detections
/// fan out to [`CollapseClasses::members_of`]`(FaultId(k))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollapseClasses {
    /// Parent index → parent index of its class representative.
    rep_of: Vec<u32>,
    /// Representatives in ascending parent order (dense collapsed ids).
    reps: Vec<FaultId>,
    /// Class members (ascending, representative first), parallel to
    /// `reps`.
    members: Vec<Vec<FaultId>>,
}

impl CollapseClasses {
    /// The identity partition: every fault its own representative.
    /// Running the collapsed universe is then exactly running the
    /// parent universe.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let reps: Vec<FaultId> = (0..u32::try_from(n).expect("universe too large"))
            .map(FaultId)
            .collect();
        CollapseClasses {
            rep_of: reps.iter().map(|r| r.0).collect(),
            members: reps.iter().map(|&r| vec![r]).collect(),
            reps,
        }
    }

    /// Number of faults in the parent universe.
    #[must_use]
    pub fn total_faults(&self) -> usize {
        self.rep_of.len()
    }

    /// Number of classes — the number of faults actually simulated.
    #[must_use]
    pub fn num_representatives(&self) -> usize {
        self.reps.len()
    }

    /// Number of non-trivial (multi-member) classes.
    #[must_use]
    pub fn num_collapsed_classes(&self) -> usize {
        self.members.iter().filter(|m| m.len() > 1).count()
    }

    /// The representatives in ascending parent order. Passing this list
    /// to [`FaultUniverse::subset`] builds the collapsed universe.
    #[must_use]
    pub fn representatives(&self) -> &[FaultId] {
        &self.reps
    }

    /// The parent-universe members of the class whose representative is
    /// collapsed fault `collapsed` (a dense id *in the collapsed
    /// universe*). Always non-empty; the representative itself comes
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `collapsed` is out of range.
    #[must_use]
    pub fn members_of(&self, collapsed: FaultId) -> &[FaultId] {
        &self.members[collapsed.index()]
    }

    /// The class representative (a parent-universe id) of parent fault
    /// `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    #[must_use]
    pub fn representative_of(&self, parent: FaultId) -> FaultId {
        FaultId(self.rep_of[parent.index()])
    }

    /// Builds the collapsed universe (the representatives of `parent`,
    /// in ascending parent order).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not the universe this partition was
    /// computed for (length mismatch).
    #[must_use]
    pub fn collapsed_universe(&self, parent: &FaultUniverse) -> FaultUniverse {
        assert_eq!(parent.len(), self.total_faults(), "universe mismatch");
        parent.subset(&self.reps)
    }

    /// Computes the equivalence partition of `universe` over `net`.
    ///
    /// `outputs` are the observed nodes (detection happens only there);
    /// `assigned_inputs` are the input nodes some stimulus phase may
    /// assign. Every other input is treated as pinned at its default
    /// value — the rails the structural rules lean on. Passing a
    /// superset of the truly assigned inputs is always sound (it only
    /// weakens the analysis); passing outputs or assigned inputs that
    /// the stimulus does not use is likewise sound.
    ///
    /// The dominant-driver rule (rule 3 of the module docs) fires for a
    /// storage node `z` *all* of whose channel transistors lead to
    /// pinned rails, with a candidate transistor `t` gated by a storage
    /// node `a`, when:
    ///
    /// * **dominance** — every other channel transistor of `z` that can
    ///   ever conduct either pulls to `t`'s rail value or is strictly
    ///   weaker than `t`, so whenever `t` conducts, `z` resolves to
    ///   `t`'s rail value definitely (`z`'s component is `{z}` alone,
    ///   so no charge-sharing partner can interfere, and `z`'s own κ
    ///   charge is below every γ drive);
    /// * **containment** — `a` is unobserved, gates nothing but `t` and
    ///   depletion devices, and every other storage node in `a`'s
    ///   channel-connected component is unobserved and gates only
    ///   depletion devices, so forcing `a` diverges nothing observable
    ///   except through `t`.
    ///
    /// Then `NodeStuck(a, g)` — `g` the gate value that makes `t`
    /// conduct — is equivalent to `NodeStuck(z, rail(t))`: both hold
    /// `z` at `rail(t)` (at ω vs. dominant γ strength, which nothing
    /// can distinguish since `z`'s group has no other storage member),
    /// and the circuits' divergent regions are unobservable. When `t`
    /// is the *only* gated channel transistor of `z` (a restoring
    /// inverter), the opposite stuck value of `a` likewise pins `z` at
    /// the always-on pull value, giving the second class.
    #[must_use]
    pub fn analyze(
        net: &Network,
        universe: &FaultUniverse,
        outputs: &[NodeId],
        assigned_inputs: &[NodeId],
    ) -> Self {
        let n = universe.len();
        let mut dsu = Dsu::new(n);

        // First-occurrence index per distinct fault; duplicates union
        // into their first occurrence immediately so every later rule
        // can work with one index per fault.
        let mut first: HashMap<Fault, u32> = HashMap::new();
        for (id, f) in universe.iter() {
            match first.entry(f) {
                std::collections::hash_map::Entry::Occupied(e) => dsu.union(*e.get(), id.0),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id.0);
                }
            }
        }

        let mut assigned = vec![false; net.num_nodes()];
        for &a in assigned_inputs {
            assigned[a.index()] = true;
        }
        let pinned: Vec<Option<Logic>> = net
            .nodes()
            .map(|(id, node)| match node.class {
                NodeClass::Input(v) if !assigned[id.index()] && v != Logic::X => Some(v),
                _ => None,
            })
            .collect();
        let mut observed = vec![false; net.num_nodes()];
        for &o in outputs {
            observed[o.index()] = true;
        }
        let region = observable_region(net, outputs);

        let mut union_faults = |a: Fault, b: Fault| {
            if let (Some(&i), Some(&j)) = (first.get(&a), first.get(&b)) {
                dsu.union(i, j);
            }
        };

        // Rule 1: parallel twins.
        let mut twins: HashMap<(TransistorType, Drive, NodeId, NodeId, NodeId), TransistorId> =
            HashMap::new();
        for (tid, tr) in net.transistors() {
            let (lo, hi) = if tr.source <= tr.drain {
                (tr.source, tr.drain)
            } else {
                (tr.drain, tr.source)
            };
            match twins.entry((tr.ttype, tr.strength, tr.gate, lo, hi)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let twin = *e.get();
                    union_faults(
                        Fault::TransistorStuckOpen(twin),
                        Fault::TransistorStuckOpen(tid),
                    );
                    union_faults(
                        Fault::TransistorStuckClosed(twin),
                        Fault::TransistorStuckClosed(tid),
                    );
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(tid);
                }
            }
        }

        // Rule 2: series same-gate stuck-open with pinned outer rails.
        for (mid, node) in net.nodes() {
            if node.is_input()
                || observed[mid.index()]
                || net.channel_transistors(mid).len() != 2
                || gate_relevant_transistors(net, mid).next().is_some()
            {
                continue;
            }
            let (t1, t2) = (
                net.channel_transistors(mid)[0],
                net.channel_transistors(mid)[1],
            );
            let (a, b) = (net.transistor(t1), net.transistor(t2));
            if t1 == t2
                || a.source == a.drain
                || b.source == b.drain
                || a.ttype != b.ttype
                || a.strength != b.strength
                || a.gate != b.gate
            {
                continue;
            }
            let (u, w) = (a.other_end(mid), b.other_end(mid));
            if pinned[u.index()].is_some() && pinned[w.index()].is_some() {
                union_faults(
                    Fault::TransistorStuckOpen(t1),
                    Fault::TransistorStuckOpen(t2),
                );
            }
        }

        // Rule 3: stuck node behind a dominant driver.
        #[derive(Clone, Copy, PartialEq)]
        enum Pull {
            /// Always conducting (depletion, or gate pinned closed).
            Load,
            /// Never conducting (gate pinned open) — ignore entirely.
            Dead,
            /// Conduction varies with an unpinned gate.
            Gated,
        }
        for (z, znode) in net.nodes() {
            if znode.is_input() {
                continue;
            }
            let ch = net.channel_transistors(z);
            if ch.is_empty()
                || !ch
                    .iter()
                    .all(|&t| pinned[net.transistor(t).other_end(z).index()].is_some())
            {
                continue;
            }
            let classify = |t: TransistorId| -> Pull {
                let tr = net.transistor(t);
                if tr.ttype == TransistorType::D {
                    return Pull::Load;
                }
                match pinned[tr.gate.index()] {
                    Some(v) => match tr.ttype.conduction(v) {
                        Conduction::Closed => Pull::Load,
                        Conduction::Open => Pull::Dead,
                        Conduction::Maybe => Pull::Gated,
                    },
                    None => Pull::Gated,
                }
            };
            let rail = |t: TransistorId| pinned[net.transistor(t).other_end(z).index()];
            let gated: Vec<TransistorId> = ch
                .iter()
                .copied()
                .filter(|&t| classify(t) == Pull::Gated)
                .collect();
            let loads: Vec<TransistorId> = ch
                .iter()
                .copied()
                .filter(|&t| classify(t) == Pull::Load)
                .collect();
            for &t in &gated {
                let tr = net.transistor(t);
                let a = tr.gate;
                // Containment: a storage, unobserved, that gates only t and
                // depletion devices; a's whole component contained.
                if net.node(a).is_input()
                    || a == z
                    || observed[a.index()]
                    || gate_relevant_transistors(net, a).any(|g| g != t)
                    || channel_component(net, a).iter().any(|&c| {
                        c != a
                            && (observed[c.index()]
                                || gate_relevant_transistors(net, c).next().is_some())
                    })
                {
                    continue;
                }
                // Dominance of t over every other live pull of z.
                let r_t = rail(t).expect("all rails pinned");
                let dominant = ch.iter().all(|&o| {
                    o == t
                        || classify(o) == Pull::Dead
                        || rail(o) == Some(r_t)
                        || net.transistor(o).strength < tr.strength
                });
                if !dominant {
                    continue;
                }
                let g = match tr.ttype {
                    TransistorType::N => Logic::H,
                    TransistorType::P => Logic::L,
                    TransistorType::D => continue, // classified Load above
                };
                union_faults(
                    Fault::NodeStuck { node: a, value: g },
                    Fault::NodeStuck {
                        node: z,
                        value: r_t,
                    },
                );
                // Restoring-inverter special case: t is the only gated
                // pull, so the opposite stuck value of a leaves z held
                // at the (unanimous) load value.
                let v_load = loads.first().and_then(|&l| rail(l));
                if gated.len() == 1 && !loads.is_empty() && loads.iter().all(|&l| rail(l) == v_load)
                {
                    if let Some(v_load) = v_load {
                        let not_g = if g == Logic::H { Logic::L } else { Logic::H };
                        union_faults(
                            Fault::NodeStuck {
                                node: a,
                                value: not_g,
                            },
                            Fault::NodeStuck {
                                node: z,
                                value: v_load,
                            },
                        );
                    }
                }
            }
        }

        // Rule 4: never-detected faults form one class.
        let mut nullish: Option<u32> = None;
        for (id, f) in universe.iter() {
            if first.get(&f) != Some(&id.0) {
                continue; // duplicates already follow their first copy
            }
            let noop = match f.effect() {
                FaultEffect::ForceTransistor { t, cond } => {
                    let tr = net.transistor(t);
                    tr.source == tr.drain
                        || (tr.ttype == TransistorType::D && cond == Conduction::Closed)
                        || pinned[tr.gate.index()].is_some_and(|v| tr.ttype.conduction(v) == cond)
                }
                FaultEffect::ForceNode { node, value } => pinned[node.index()] == Some(value),
            };
            let unobservable = match f.effect() {
                FaultEffect::ForceNode { node, .. } => !region[node.index()],
                FaultEffect::ForceTransistor { t, .. } => {
                    let tr = net.transistor(t);
                    !region[tr.source.index()] && !region[tr.drain.index()]
                }
            };
            if noop || unobservable {
                match nullish {
                    Some(root) => dsu.union(root, id.0),
                    None => nullish = Some(id.0),
                }
            }
        }

        // Normalise: representative = minimum index of each class
        // (guaranteed by the union direction), classes in ascending
        // representative order.
        let mut rep_of = vec![0u32; n];
        let mut by_rep: HashMap<u32, Vec<FaultId>> = HashMap::new();
        for i in 0..n {
            let i = u32::try_from(i).expect("checked by Dsu::new");
            let r = dsu.find(i);
            rep_of[i as usize] = r;
            by_rep.entry(r).or_default().push(FaultId(i));
        }
        let mut reps: Vec<FaultId> = by_rep.keys().copied().map(FaultId).collect();
        reps.sort_unstable();
        let members = reps
            .iter()
            .map(|r| by_rep.remove(&r.0).expect("collected above"))
            .collect();
        CollapseClasses {
            rep_of,
            reps,
            members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::Size;

    /// nMOS inverter: depletion load + enhancement pulldown.
    fn add_inv(net: &mut Network, a: NodeId, name: &str) -> NodeId {
        let vdd = net.find_node("Vdd").expect("rail");
        let gnd = net.find_node("Gnd").expect("rail");
        let out = net.add_storage(name, Size::S1);
        net.add_transistor(TransistorType::D, Drive::D1, out, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        out
    }

    fn rails() -> Network {
        let mut net = Network::new();
        net.add_input("Vdd", Logic::H);
        net.add_input("Gnd", Logic::L);
        net
    }

    fn class_of(cc: &CollapseClasses, u: &FaultUniverse, f: Fault) -> Vec<Fault> {
        let (id, _) = u.iter().find(|&(_, g)| g == f).expect("fault in universe");
        let rep = cc.representative_of(id);
        let k = cc
            .representatives()
            .iter()
            .position(|&r| r == rep)
            .expect("rep listed");
        cc.members_of(FaultId(u32::try_from(k).unwrap()))
            .iter()
            .map(|&m| u.fault(m))
            .collect()
    }

    #[test]
    fn identity_partition_is_trivial() {
        let cc = CollapseClasses::identity(3);
        assert_eq!(cc.total_faults(), 3);
        assert_eq!(cc.num_representatives(), 3);
        assert_eq!(cc.num_collapsed_classes(), 0);
        assert_eq!(cc.representative_of(FaultId(2)), FaultId(2));
        assert_eq!(cc.members_of(FaultId(1)), &[FaultId(1)]);
    }

    #[test]
    fn duplicates_collapse_to_first_occurrence() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let out = add_inv(&mut net, a, "OUT");
        let f = Fault::NodeStuck {
            node: out,
            value: Logic::L,
        };
        let u = FaultUniverse::from_faults(vec![f, f, f]);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a]);
        assert_eq!(cc.num_representatives(), 1);
        assert_eq!(cc.representatives(), &[FaultId(0)]);
        assert_eq!(
            cc.members_of(FaultId(0)),
            &[FaultId(0), FaultId(1), FaultId(2)]
        );
        assert_eq!(cc.collapsed_universe(&u).len(), 1);
    }

    #[test]
    fn parallel_twins_collapse_by_kind() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let out = add_inv(&mut net, a, "OUT");
        let gnd = net.find_node("Gnd").expect("rail");
        // A second, identical pulldown in parallel (same unordered
        // terminals, written swapped to exercise source–drain symmetry).
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, a, gnd, out);
        let t1 = net
            .transistors()
            .find(|(_, tr)| tr.ttype == TransistorType::N && tr.source == out)
            .map(|(id, _)| id)
            .expect("original pulldown");
        let u = FaultUniverse::stuck_transistors(&net);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a]);
        let opens = class_of(&cc, &u, Fault::TransistorStuckOpen(t1));
        assert!(opens.contains(&Fault::TransistorStuckOpen(t2)));
        assert!(!opens.contains(&Fault::TransistorStuckClosed(t2)));
        let closed = class_of(&cc, &u, Fault::TransistorStuckClosed(t1));
        assert!(closed.contains(&Fault::TransistorStuckClosed(t2)));
    }

    #[test]
    fn series_same_gate_stuck_open_collapses_with_pinned_rails() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let out = add_inv(&mut net, a, "OUT");
        // Pinned-rail series pair: Vdd –t1– MID –t2– Gnd, both gated by
        // the (storage) inverter output so the gate is not pinned.
        let vdd = net.find_node("Vdd").expect("rail");
        let gnd = net.find_node("Gnd").expect("rail");
        let mid = net.add_storage("MID", Size::S1);
        let t1 = net.add_transistor(TransistorType::N, Drive::D2, out, vdd, mid);
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, out, mid, gnd);
        let u = FaultUniverse::stuck_transistors(&net);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a]);
        let opens = class_of(&cc, &u, Fault::TransistorStuckOpen(t1));
        assert!(opens.contains(&Fault::TransistorStuckOpen(t2)));
        // Stuck-closed is NOT equivalent (t1 closed shorts Vdd→MID,
        // t2 closed shorts MID→Gnd — different surviving pull paths).
        let closed = class_of(&cc, &u, Fault::TransistorStuckClosed(t1));
        assert!(!closed.contains(&Fault::TransistorStuckClosed(t2)));
    }

    #[test]
    fn series_rule_requires_pinned_outer_nodes() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let b = net.add_input("B", Logic::L);
        let out = add_inv(&mut net, a, "OUT");
        let gnd = net.find_node("Gnd").expect("rail");
        // Classic nand chain: OUT –t1– MID –t2– Gnd with distinct gates
        // (no collapse: different gates), and a same-gate chain whose
        // outer node OUT is storage (no collapse: κ-charge asymmetry).
        let mid = net.add_storage("MID", Size::S1);
        let t1 = net.add_transistor(TransistorType::N, Drive::D2, b, out, mid);
        let t2 = net.add_transistor(TransistorType::N, Drive::D2, b, mid, gnd);
        let u = FaultUniverse::stuck_transistors(&net);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a, b]);
        let opens = class_of(&cc, &u, Fault::TransistorStuckOpen(t1));
        assert!(!opens.contains(&Fault::TransistorStuckOpen(t2)));
    }

    #[test]
    fn inverter_input_stuck_collapses_onto_output_stuck() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let x = add_inv(&mut net, a, "X");
        let out = add_inv(&mut net, x, "OUT");
        let u = FaultUniverse::stuck_nodes(&net);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a]);
        // X stuck-at-1 turns the second pulldown on → OUT stuck-at-0;
        // X stuck-at-0 leaves only the load → OUT stuck-at-1.
        let c = class_of(
            &cc,
            &u,
            Fault::NodeStuck {
                node: x,
                value: Logic::H,
            },
        );
        assert!(c.contains(&Fault::NodeStuck {
            node: out,
            value: Logic::L
        }));
        let c = class_of(
            &cc,
            &u,
            Fault::NodeStuck {
                node: x,
                value: Logic::L,
            },
        );
        assert!(c.contains(&Fault::NodeStuck {
            node: out,
            value: Logic::H
        }));
        assert_eq!(cc.num_collapsed_classes(), 2);
        assert_eq!(cc.num_representatives(), 2);
    }

    #[test]
    fn observed_or_fanned_out_drivers_do_not_collapse() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let x = add_inv(&mut net, a, "X");
        let out = add_inv(&mut net, x, "OUT");
        let out2 = add_inv(&mut net, x, "OUT2");
        let u = FaultUniverse::stuck_nodes(&net);
        // X observed directly: forcing X is visible, forcing OUT is not
        // equivalent.
        let cc = CollapseClasses::analyze(&net, &u, &[out, x], &[a]);
        let c = class_of(
            &cc,
            &u,
            Fault::NodeStuck {
                node: x,
                value: Logic::H,
            },
        );
        assert_eq!(c.len(), 1);
        // X fanning out to two gates: a stuck X diverges both stages.
        let cc = CollapseClasses::analyze(&net, &u, &[out, out2], &[a]);
        let c = class_of(
            &cc,
            &u,
            Fault::NodeStuck {
                node: x,
                value: Logic::H,
            },
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn never_detected_faults_share_one_class() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let out = add_inv(&mut net, a, "OUT");
        // An unobserved island: B drives ISLAND, nothing reads it.
        let b = net.add_input("B", Logic::L);
        let island = add_inv(&mut net, b, "ISLAND");
        let load = net
            .transistors()
            .find(|(_, tr)| tr.ttype == TransistorType::D && tr.gate == out)
            .map(|(id, _)| id)
            .expect("OUT's load");
        let u = FaultUniverse::stuck_transistors(&net).union(FaultUniverse::stuck_nodes(&net));
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a, b]);
        // Depletion stuck-closed is a no-op; island faults are outside
        // the observable region; all land in one class.
        let c = class_of(&cc, &u, Fault::TransistorStuckClosed(load));
        assert!(c.contains(&Fault::NodeStuck {
            node: island,
            value: Logic::H
        }));
        assert!(c.contains(&Fault::NodeStuck {
            node: island,
            value: Logic::L
        }));
        // The load stuck-open is a real, detectable fault.
        let c = class_of(&cc, &u, Fault::TransistorStuckOpen(load));
        assert!(!c.contains(&Fault::TransistorStuckClosed(load)));
    }

    #[test]
    fn assigned_inputs_disable_pinning() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let x = add_inv(&mut net, a, "X");
        let out = add_inv(&mut net, x, "OUT");
        let u = FaultUniverse::stuck_nodes(&net);
        // If the stimulus may drive Vdd/Gnd, nothing is pinned and the
        // dominant-driver rule must not fire: X's stuck faults stay
        // singletons (they are observable, so rule 4 leaves them too).
        let vdd = net.find_node("Vdd").expect("rail");
        let gnd = net.find_node("Gnd").expect("rail");
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a, vdd, gnd]);
        for value in [Logic::L, Logic::H] {
            let c = class_of(&cc, &u, Fault::NodeStuck { node: x, value });
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn representatives_build_a_consistent_collapsed_universe() {
        let mut net = rails();
        let a = net.add_input("A", Logic::L);
        let x = add_inv(&mut net, a, "X");
        let out = add_inv(&mut net, x, "OUT");
        let u = FaultUniverse::stuck_nodes(&net);
        let cc = CollapseClasses::analyze(&net, &u, &[out], &[a]);
        let collapsed = cc.collapsed_universe(&u);
        assert_eq!(collapsed.len(), cc.num_representatives());
        for (k, &rep) in cc.representatives().iter().enumerate() {
            let kid = FaultId(u32::try_from(k).unwrap());
            assert_eq!(collapsed.fault(kid), u.fault(rep));
            let members = cc.members_of(kid);
            assert_eq!(members[0], rep, "representative leads its class");
            for &m in members {
                assert_eq!(cc.representative_of(m), rep);
            }
            assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
        }
        // Every parent fault appears in exactly one class.
        let total: usize = (0..cc.num_representatives())
            .map(|k| cc.members_of(FaultId(u32::try_from(k).unwrap())).len())
            .sum();
        assert_eq!(total, u.len());
    }
}
