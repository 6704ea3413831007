//! Worker-count selection: a fixed count, or one sized from the
//! universe's estimated fault cost ([`Jobs::Auto`]).

use crate::plan::fault_cost;
use fmossim_faults::FaultUniverse;
use fmossim_netlist::Network;

/// Estimated shard cost (sum of [`fault_cost`] over the shard's faults)
/// that justifies dedicating one worker to it. Below this threshold the
/// per-shard overhead — a thread, a simulator build and a walk of the
/// good tape, plus the copy of every phase the leader of any run of
/// more than one shard publishes — outweighs the fault-grading work,
/// so [`Jobs::Auto`]
/// allocates fewer workers than the hardware offers.
pub const AUTO_COST_PER_WORKER: usize = 64;

/// How many worker threads a parallel run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Jobs {
    /// Pick the worker count from the workload: one worker per
    /// [`AUTO_COST_PER_WORKER`] units of estimated fault cost, clamped
    /// to the machine's available parallelism. Small universes stay on
    /// one thread (no pool overhead); large ones use the whole machine.
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    Fixed(usize),
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::Fixed(1)
    }
}

impl Jobs {
    /// Parses the CLI spelling: `auto` or a positive integer.
    #[must_use]
    pub fn parse(s: &str) -> Option<Jobs> {
        if s == "auto" {
            Some(Jobs::Auto)
        } else {
            s.parse::<usize>().ok().filter(|&n| n > 0).map(Jobs::Fixed)
        }
    }

    /// Resolves to a concrete worker count for `universe` on `net`.
    /// `Fixed(n)` yields `max(n, 1)`; `Auto` applies the cost heuristic
    /// against [`available_parallelism`](std::thread::available_parallelism).
    #[must_use]
    pub fn resolve(self, net: &Network, universe: &FaultUniverse) -> usize {
        match self {
            Jobs::Fixed(n) => n.max(1),
            Jobs::Auto => {
                let hw =
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
                let total_cost: usize = universe.iter().map(|(_, f)| fault_cost(net, &f)).sum();
                (total_cost / AUTO_COST_PER_WORKER).clamp(1, hw)
            }
        }
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Jobs::Auto => f.write_str("auto"),
            Jobs::Fixed(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_netlist::{Drive, Logic, Size, TransistorType};

    fn small_net() -> Network {
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let s = net.add_storage("S", Size::S1);
        net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        net
    }

    #[test]
    fn parse_spellings() {
        assert_eq!(Jobs::parse("auto"), Some(Jobs::Auto));
        assert_eq!(Jobs::parse("4"), Some(Jobs::Fixed(4)));
        assert_eq!(Jobs::parse("0"), None);
        assert_eq!(Jobs::parse("-1"), None);
        assert_eq!(Jobs::parse("many"), None);
        assert_eq!(Jobs::Auto.to_string(), "auto");
        assert_eq!(Jobs::Fixed(7).to_string(), "7");
    }

    #[test]
    fn fixed_resolves_to_at_least_one() {
        let net = small_net();
        let u = FaultUniverse::stuck_nodes(&net);
        assert_eq!(Jobs::Fixed(0).resolve(&net, &u), 1);
        assert_eq!(Jobs::Fixed(5).resolve(&net, &u), 5);
    }

    #[test]
    fn auto_keeps_tiny_universes_on_one_thread() {
        let net = small_net();
        let u = FaultUniverse::stuck_nodes(&net);
        // Two faults with footprints of a couple of nodes: far below
        // the per-worker cost threshold.
        assert_eq!(Jobs::Auto.resolve(&net, &u), 1);
    }

    #[test]
    fn auto_never_exceeds_hardware_parallelism() {
        let net = small_net();
        // A synthetic universe heavy enough to ask for many workers.
        let fault = fmossim_faults::Fault::NodeStuck {
            node: net.find_node("S").expect("exists"),
            value: Logic::L,
        };
        let u = FaultUniverse::from_faults(vec![fault; 100_000]);
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let resolved = Jobs::Auto.resolve(&net, &u);
        assert!(resolved >= 1 && resolved <= hw, "resolved {resolved}");
    }
}
