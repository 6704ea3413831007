//! Shared benchmark harness for reproducing the paper's evaluation.
//!
//! One binary regenerates the paper's evaluation (Bryant & Schuster,
//! DAC 1985, §5) from the ladder in [`figures`]:
//!
//! | Paper item | Ladder rung | What `paper_figures` prints |
//! |------------|-------------|-----------------------------|
//! | Table 1    | — | transistor state vs. gate state |
//! | Figure 1   | `ram64-seq1` | RAM64, sequence 1: work counts, concurrent:good, serial-estimate:concurrent, head share, tail:good |
//! | Figure 2   | `ram64-seq2` | RAM64, sequence 2: the same, plus detections after the first 7 patterns |
//! | §5 validation | `ram64-mix` | sequence 1 over stuck nodes, bridges and stuck transistors |
//! | Figure 3   | `ram256` | RAM256: the full universe plus a 6-step fault-count sweep, slope ratio and linearity |
//! | §5 scaling | `ram1024` | RAM1024: the full universe |
//!
//! Every ratio is printed in solved vicinities (exact, pinned by
//! `tests/paper_counts.rs`) next to the paper's value and the
//! wall-clock ratio (host-dependent, not gated). `--csv` adds the
//! per-pattern curves of Figures 1 and 2.
//!
//! Two more binaries are gates rather than figures: `allocstats`
//! asserts the steady-state concurrent loop makes zero heap
//! allocations, and `telemetry_overhead` asserts an active registry
//! costs under 3% patterns/second.
//!
//! The repository's benchmark with gated end-to-end metrics is
//! `perfbench/`, not this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fmossim_circuits::Ram;
use fmossim_faults::{Fault, FaultUniverse};
use std::str::FromStr;

pub mod figures;

/// The random seed used everywhere (the paper's publication date).
pub const SEED: u64 = 850_715;

/// Builds a RAM with bridge-fault devices inserted on every adjacent
/// bit-line pair, returning the circuit and the bridge faults.
#[must_use]
pub fn ram_with_bridges(rows: usize, cols: usize) -> (Ram, Vec<Fault>) {
    let mut ram = Ram::new(rows, cols);
    let pairs = ram.adjacent_bitline_pairs();
    let bridges = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| {
            fmossim_faults::inject::insert_bridge(ram.network_mut(), a, b, &format!("bl{i}"))
        })
        .collect();
    (ram, bridges)
}

/// The paper's fault universe for a RAM: "single storage nodes
/// stuck-at-zero, single storage nodes stuck-at-one, and single pairs
/// of adjacent bit lines shorted together".
#[must_use]
pub fn paper_universe(ram: &Ram, bridges: Vec<Fault>) -> FaultUniverse {
    FaultUniverse::stuck_nodes(ram.network()).union(FaultUniverse::from_faults(bridges))
}

/// The paper's §5 validation universe: stuck-open and stuck-closed
/// transistors.
#[must_use]
pub fn transistor_universe(ram: &Ram) -> FaultUniverse {
    FaultUniverse::stuck_transistors(ram.network())
}

/// The command line of one bench binary, checked against the flags
/// that binary accepts.
#[derive(Debug)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Reads `std::env::args`. `switches` take no value, `options` take
    /// one. An unknown flag, or an option without its value, prints an
    /// error naming it and exits with status 2. Call it first in
    /// `main`, before any work.
    #[must_use]
    pub fn from_env(switches: &[&str], options: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), switches, options).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`Flags::from_env`] over an explicit argument list (without the
    /// program name), returning the error instead of exiting.
    fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        options: &[&str],
    ) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                given.push((arg, None));
            } else if options.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("`{arg}` needs a value"))?;
                given.push((arg, Some(value)));
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(Self(given))
    }

    /// True if switch `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| flag == name)
    }

    /// The value of option `name` (the last one if repeated), or `None`
    /// if it was not given. A value that does not parse as `T` exits
    /// like [`Flags::from_env`], naming the option.
    #[must_use]
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.0
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.as_deref())
            .map(|v| parse_value(name, v))
    }
}

fn parse_value<T: FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("invalid value `{value}` for `{name}`")))
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_universe_has_expected_classes() {
        let (ram, bridges) = ram_with_bridges(4, 4);
        let n_bridges = bridges.len();
        assert_eq!(n_bridges, 2 * 4 - 1);
        let u = paper_universe(&ram, bridges);
        // 2 faults per storage node plus the bridges.
        let storage = ram.stats().storage;
        assert_eq!(u.len(), 2 * storage + n_bridges);
    }

    #[test]
    fn transistor_universe_excludes_fault_devices() {
        let (ram, _bridges) = ram_with_bridges(4, 4);
        let u = transistor_universe(&ram);
        // Each functional transistor twice; bridge devices excluded.
        let functional = ram.stats().transistors - (2 * 4 - 1);
        assert_eq!(u.len(), 2 * functional);
    }

    #[test]
    fn helpers() {
        let parse = |args: &[&str]| {
            Flags::parse(
                args.iter().map(|a| (*a).to_string()),
                &["--csv"],
                &["--faults"],
            )
        };
        let flags = parse(&["--faults", "7", "--csv", "--faults", "9"]).expect("known flags");
        assert!(flags.has("--csv"));
        assert_eq!(flags.value::<usize>("--faults"), Some(9), "last one wins");
        assert_eq!(parse(&[]).expect("empty").value::<usize>("--faults"), None);
        assert!(parse(&["--bogus"]).unwrap_err().contains("`--bogus`"));
        assert!(parse(&["--faults"]).unwrap_err().contains("`--faults`"));
        assert!(parse(&["7"]).is_err(), "no positional arguments");
    }
}
