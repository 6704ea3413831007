//! FMOSSIM core: the concurrent switch-level fault simulator.
//!
//! Rust reproduction of the system evaluated in Bryant & Schuster,
//! *Performance Evaluation of FMOSSIM, a Concurrent Switch-Level Fault
//! Simulator*, DAC 1985. This crate implements the paper's primary
//! contribution:
//!
//! * [`ConcurrentSim`] — simulates the good circuit plus an arbitrary
//!   number of faulty circuits at once. The good circuit is simulated
//!   in its entirety; faulty circuits exist only as per-node divergence
//!   records and are selectively re-simulated where and when their
//!   behaviour can differ (see the module docs of
//!   [`concurrent`](crate::ConcurrentSim) for the algorithm).
//! * [`SerialSim`] — the baseline the paper compares against: each
//!   faulty circuit simulated separately until it produces an output
//!   different from the good circuit; plus the paper's estimator for
//!   serial time (patterns-to-detect × average good-circuit time).
//! * [`Pattern`]/[`Phase`] — stimulus description (a paper "pattern" is
//!   six input settings cycling the clocks).
//! * [`RunReport`]/[`Detection`] — the measurements behind the paper's
//!   figures: per-pattern time, cumulative detections, coverage.
//!
//! The simulators are generic over fault types via
//! [`fmossim_faults::Fault`]; node stuck-at, transistor stuck-open/
//! closed, bridge shorts and line opens all reduce to per-circuit
//! overrides of the shared network — no structural mutation anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod concurrent;
mod dictionary;
mod overlay;
mod packed;
mod pattern;
mod records;
mod report;
mod serial;
mod tape;

pub use arena::CircuitId;
pub use concurrent::{ConcurrentConfig, ConcurrentSim};
pub use dictionary::{FaultDictionary, Syndrome};
pub use overlay::{FaultyView, Overrides, SerialState};
pub use pattern::{stimulus_content_hash, Pattern, Phase};
pub use records::StateLists;
pub use report::{Detection, DetectionPolicy, PatternStats, RunReport};
pub use serial::{GoodObservations, SerialConfig, SerialOutcome, SerialReport, SerialSim};
pub use tape::{GoodTape, PhaseSource, PhaseTape, StreamStats, TapeLeader, TapeReader, TapeStream};
