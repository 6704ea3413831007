//! # FMOSSIM — a concurrent switch-level fault simulator
//!
//! Rust reproduction of Bryant & Schuster, *Performance Evaluation of
//! FMOSSIM, a Concurrent Switch-Level Fault Simulator*, DAC 1985.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`campaign`] — **the front door**: the [`campaign::Campaign`]
//!   builder runs one fault-grading workload on any execution strategy
//!   (serial / concurrent / fault-parallel) behind one
//!   [`campaign::Backend`] seam, with streaming
//!   [`campaign::SimEvent`] observers, run control (coverage targets,
//!   pattern limits), and a JSON-serialisable
//!   [`campaign::CampaignReport`].
//! * [`netlist`] — the switch-level network model (nodes, transistors,
//!   strengths, text netlist format).
//! * [`sim`] — the switch-level logic simulator (MOSSIM II equivalent):
//!   steady-state solver, vicinities, event-driven unit-delay loop.
//! * [`faults`] — fault models, fault-universe enumeration, sampling.
//! * [`concurrent`] — the concurrent fault simulator (the paper's
//!   contribution) and the serial baseline; use these directly for
//!   phase-level control, [`campaign`] for whole runs.
//! * [`circuits`] — circuit generators: cell library and the paper's
//!   RAM64/RAM256 dynamic-RAM benchmark circuits.
//! * [`testgen`] — test-pattern generation: clock phases, marching
//!   memory tests, the paper's exact test sequences.
//! * [`par`] — fault-parallel execution: sharded fault universes on a
//!   `std::thread` worker pool ([`par::ParallelSim`]), with merged
//!   reports identical to single-threaded runs; worker counts can be
//!   autotuned from the workload ([`par::Jobs::Auto`]), and the good
//!   machine is settled once per run, by shard 0, which streams it
//!   ([`concurrent::TapeStream`]) to the other shards to replay
//!   instead of re-simulate.
//! * [`telemetry`] — hierarchical counters/gauges/histograms
//!   ([`telemetry::Registry`]) recorded by every layer above, merged
//!   across shards, snapshotted into
//!   [`campaign::CampaignReport::metrics`], and exportable as
//!   Prometheus text or JSON; attach one with
//!   [`campaign::Campaign::with_telemetry`] or the CLI's
//!   `--metrics <path>` flag.
//!
//! Beyond the paper: fault dictionaries and diagnosis
//! ([`concurrent::FaultDictionary`]), multi-fault circuits
//! ([`concurrent::ConcurrentSim::new_multi`]), VCD waveform export
//! ([`sim::Trace`]), Berkeley `.sim` import ([`netlist::parse_sim`]),
//! and a CLI (`cargo run --bin fmossim -- --help`).
//!
//! ## Quickstart
//!
//! ```
//! use fmossim::circuits::Ram;
//! use fmossim::testgen::TestSequence;
//! use fmossim::faults::FaultUniverse;
//! use fmossim::campaign::{Backend, Campaign, ConcurrentConfig};
//!
//! // The paper's RAM64 is Ram::new(8, 8); a 4x4 keeps the doctest fast.
//! let ram = Ram::new(4, 4);
//! let seq = TestSequence::full(&ram);
//! let report = Campaign::new(ram.network())
//!     .faults(FaultUniverse::stuck_nodes(ram.network()))
//!     .patterns(seq.patterns())
//!     .outputs(ram.observed_outputs())
//!     .backend(Backend::Concurrent(ConcurrentConfig::paper()))
//!     .run();
//! assert!(report.detected() > 0);
//! println!("{}", report.to_json()); // the stable campaign artifact
//! ```
//!
//! Switching the same campaign to the serial baseline or a
//! fault-parallel pool is one `backend(..)` line; see
//! [`campaign`] for run control and streaming observers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fmossim_campaign as campaign;
pub use fmossim_circuits as circuits;
pub use fmossim_core as concurrent;
pub use fmossim_faults as faults;
pub use fmossim_netlist as netlist;
pub use fmossim_par as par;
pub use fmossim_serve as serve;
pub use fmossim_switch as sim;
pub use fmossim_telemetry as telemetry;
pub use fmossim_testgen as testgen;
