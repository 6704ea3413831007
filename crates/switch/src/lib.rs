//! Switch-level logic simulation (the MOSSIM II substrate of FMOSSIM).
//!
//! This crate computes the behaviour of a switch-level network
//! ([`fmossim_netlist::Network`]) for each change in network inputs by
//! repeatedly computing the *steady-state response* of the network until
//! a stable state is reached (Bryant, IEEE ToC 1984; Bryant & Schuster,
//! DAC 1985 §4).
//!
//! The key abstractions:
//!
//! * [`SwitchState`] — a read/write view of node states. The good
//!   circuit uses a dense vector ([`DenseState`]); fault simulators
//!   layer per-circuit overrides and divergence records on top without
//!   copying the network.
//! * [`Engine`] — the event-driven unit-delay scheduler: perturbed
//!   nodes are grouped into *vicinities* (sets of storage nodes
//!   connected by paths of possibly-conducting transistors that do not
//!   pass through input nodes), each vicinity's steady state is solved,
//!   and nodes whose state changed retrigger the transistors they gate.
//! * [`LogicSim`] — a convenient wrapper owning a [`DenseState`] plus an
//!   [`Engine`] for plain (fault-free) simulation.
//! * [`PackedState`] / [`PackedEngine`] — the bit-parallel (PPSFP-style)
//!   path: up to 64 fault machines encoded across two `u64` planes per
//!   node ([`PackedLogic`]) settle together in one pass of bitwise
//!   plane operations over the union of their vicinities, each member
//!   and edge carrying the lanes it belongs to; a lane whose members
//!   the union scan finds out of that lane's own order re-solves.
//!
//! # The steady-state solver
//!
//! For each vicinity the solver computes monotone fixed points over the
//! strength lattice λ < κ1 < … < κ7 < γ1 < … < γ7 < ω (see
//! [`fmossim_netlist::Strength`]):
//!
//! * `defS[n]` — strength of the strongest signal *definitely present*
//!   at `n` (only definitely-conducting transistors propagate it).
//! * `pos1[n]`, `pos0[n]` — strongest signal *possibly present* at `n`
//!   carrying value {1,X} / {0,X} (X-state transistors also propagate;
//!   blocked at an intermediate node `m` when strictly weaker than
//!   `defS[m]`).
//! * `def1[n]`, `def0[n]` — strongest signal *definitely present and
//!   definitely carrying* value 1 / 0 (definite conduction from definite
//!   sources; propagates through `m` only when nothing possibly stronger
//!   exists at `m`).
//!
//! A node resolves to **1** iff `def1 > pos0`, to **0** iff
//! `def0 > pos1`, and to **X** otherwise. On networks whose transistor
//! states and source values are all definite this is exactly Bryant's
//! "strongest signal wins, conflicting ties give X" rule, reproducing
//! charge sharing by node size, ratioed logic by transistor strength,
//! bidirectional pass transistors and precharged buses. When X states
//! are present the rule is a sound (never wrongly definite),
//! slightly conservative approximation of the ternary extension.
//!
//! ## One-node vicinities
//!
//! Most vicinities are a single storage node whose conducting channel
//! neighbours are all inputs (over 96% of the faulty-circuit solves on
//! random logic). Such a group has no edges inside it, so every
//! relaxation above is a no-op and the steady state has a closed form:
//! with `c` the node's own charge (its size strength, carrying its old
//! value) and one source per conducting transistor to an input (the
//! input strength attenuated by the transistor, carrying the input's
//! value),
//!
//! * `pos1` / `pos0` is the strongest of `c` and the sources whose value
//!   is in {1,X} / {0,X};
//! * `def1` / `def0` is the strongest of `c` (if the old value is 1 / 0)
//!   and the *definitely* conducting sources of value 1 / 0;
//!
//! and the resolution rule applies unchanged. `defS` only gates
//! propagation along edges, so it is not computed. Extraction saves the
//! seed's conducting input edges as it scans them; when the scan marks
//! no storage neighbour, both solvers skip the per-member edge lists and
//! fold those sources straight-line — the packed solver walking them
//! strongest-first under per-lane conduction masks for all kept lanes,
//! after the same scan as the general path. The incident transistors and boundary inputs that
//! triggering and the good tape read are reported exactly as before.
//! Differential tests hold both closed forms bit-identical to the
//! general fixed points.
//!
//! # Example
//!
//! ```
//! use fmossim_netlist::{Network, Logic, TransistorType, Drive, Size};
//! use fmossim_switch::LogicSim;
//!
//! // CMOS inverter.
//! let mut net = Network::new();
//! let vdd = net.add_input("Vdd", Logic::H);
//! let gnd = net.add_input("Gnd", Logic::L);
//! let a = net.add_input("A", Logic::L);
//! let out = net.add_storage("OUT", Size::S1);
//! net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
//! net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
//!
//! let mut sim = LogicSim::new(&net);
//! sim.settle();
//! assert_eq!(sim.get(out), Logic::H);
//! sim.set_input(a, Logic::H);
//! sim.settle();
//! assert_eq!(sim.get(out), Logic::L);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
#[cfg(test)]
mod kernel_tests;
mod sim;
mod solve;
mod state;
mod tape;
mod trace;

pub use engine::{
    Engine, EngineConfig, GroupView, LocalityMode, PackedEngine, PackedSettleReport, SettleReport,
    SolvedVicinity,
};
pub use sim::LogicSim;
pub use solve::{GroupOutcome, PackedOutcome, PackedScratch, Scratch};
pub use state::{
    DenseState, PackedConduction, PackedDenseState, PackedLogic, PackedState, SwitchState,
};
pub use tape::{SettleTape, TapeGroup};
pub use trace::Trace;
