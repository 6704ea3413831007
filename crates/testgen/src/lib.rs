//! Test-pattern generation for the FMOSSIM benchmark circuits.
//!
//! Reconstructs the paper's test sequences (§5):
//!
//! * **Sequence 1** ([`TestSequence::full`]) — "7 patterns to test the
//!   control and peripheral logic, 40 patterns to perform a marching
//!   test of the row select logic, 40 patterns to perform a marching
//!   test of the column select and bit line logic, and 320 patterns to
//!   perform a marching test of the memory array" (counts for the 8×8
//!   RAM64; scale with the array for other sizes — 1447 for RAM256).
//! * **Sequence 2** ([`TestSequence::march_only`]) — "the same as
//!   before, except that the patterns to test the row and column logic
//!   were omitted, leaving a total of 327 patterns".
//!
//! Each pattern is a memory operation expressed as **six input
//! settings** ("each pattern here actually represents a sequence of 6
//! input settings to cycle the clocks"): set pins and raise PHI1,
//! drop PHI1, raise PHI2, drop PHI2, idle, observe. Every phase is a
//! strobe — the output pin is monitored continuously, matching the
//! paper's "any time the simulation of a faulty circuit produces a
//! result on the output data pin different than the good circuit".
//!
//! The marching test is the 5·N march of Winegarden & Pannell's
//! "Paragons for Memory Test" (the paper's reference \[10\]):
//! `↑(w0); ↑(r0,w1); ↑(r1,w0)` — 1 + 2 + 2 operations per cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Beyond the RAM sequences, the crate hosts the **benchmark circuit
//! zoo** ([`zoo`]: named, ready-to-run workloads over every
//! `fmossim-circuits` generator) and a **seeded random-netlist
//! generator** ([`RandomNetlist`]: valid, always-settling acyclic
//! logic of configurable size and fan-in) — the workload spread the
//! CLI and the differential conformance tests run on.

mod netgen;
mod ops;
mod random;
mod sequence;
pub mod zoo;

pub use netgen::{max_transistors_per_gate, RandomNetSpec, RandomNetlist};
pub use ops::RamOps;
pub use random::random_ops;
pub use sequence::{Section, TestSequence};
pub use zoo::{build_zoo, zoo_names, ZooWorkload, ZOO, ZOO_SEED};
