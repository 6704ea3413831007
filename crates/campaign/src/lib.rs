//! Unified fault-simulation campaigns: one builder + one backend seam
//! over every execution strategy in the workspace.
//!
//! The paper's whole point is comparing execution strategies on the
//! same workload — concurrent against serial, and (beyond the paper)
//! fault-parallel sharding. This crate makes that comparison a
//! one-line change instead of three unrelated APIs:
//!
//! ```
//! use fmossim_circuits::Ram;
//! use fmossim_telemetry::Registry;
//! use fmossim_testgen::TestSequence;
//! use fmossim_faults::FaultUniverse;
//! use fmossim_campaign::{Backend, Campaign, ParallelConfig, SimEvent};
//!
//! let ram = Ram::new(4, 4);
//! let seq = TestSequence::full(&ram);
//! // The telemetry registry collects hierarchical metrics from every
//! // layer (switch solver, concurrent core, shards, campaign) …
//! let registry = Registry::new();
//! let mut spans = Vec::new();
//! let report = Campaign::new(ram.network())
//!     .faults(FaultUniverse::stuck_nodes(ram.network()))
//!     .patterns(seq.patterns())
//!     .outputs(ram.observed_outputs())
//!     // paper sim config + Jobs::Auto: pool sized from the workload
//!     .backend(Backend::Parallel(ParallelConfig::auto()))
//!     .stop_at_coverage(0.95)
//!     .with_telemetry(&registry)
//!     // … and the observer streams events, including timed spans.
//!     .on_event(|e| {
//!         if let SimEvent::Span { name, seconds } = e {
//!             spans.push((name, seconds));
//!         }
//!     })
//!     .run();
//! assert!(report.coverage() >= 0.95);
//! assert_eq!(spans.last().map(|s| s.0), Some("campaign.run"));
//! let snapshot = registry.snapshot(); // also embedded in the report
//! assert_eq!(report.metrics, snapshot);
//! assert!(snapshot.counters["core.detections"] > 0);
//! let prom = snapshot.to_prometheus(); // exposition text format
//! let artifact = report.to_json(); // stable, hand-rolled format
//! # let _ = (prom, artifact);
//! ```
//!
//! * [`Campaign`] — the builder: workload (`faults`/`patterns`/
//!   `outputs`), strategy ([`Campaign::backend`]), run control
//!   ([`stop_at_coverage`](Campaign::stop_at_coverage),
//!   [`pattern_limit`](Campaign::pattern_limit),
//!   [`drop_detected`](Campaign::drop_detected)), streaming observer
//!   ([`on_event`](Campaign::on_event)), telemetry registry
//!   ([`with_telemetry`](Campaign::with_telemetry)).
//! * [`Backend`] — selects serial / concurrent / parallel (one-shot or
//!   in pattern batches, [`ParallelConfig::batch`]);
//!   [`CampaignBackend`] is the trait the adapters implement, open for
//!   custom strategies via [`Campaign::backend_impl`].
//! * [`SimEvent`] — the streaming observer vocabulary:
//!   [`PatternStart`](SimEvent::PatternStart) /
//!   [`PatternDone`](SimEvent::PatternDone) (concurrent),
//!   [`Detected`](SimEvent::Detected) /
//!   [`FaultDropped`](SimEvent::FaultDropped) (every backend),
//!   [`ShardDone`](SimEvent::ShardDone) (parallel),
//!   [`BatchDone`](SimEvent::BatchDone) (batched parallel), and
//!   [`Span`](SimEvent::Span) (timed sections; every run ends with a
//!   `"campaign.run"` span).
//! * [`CampaignReport`] — one artifact for every backend, wrapping the
//!   common [`fmossim_core::RunReport`] with campaign metadata, the
//!   telemetry snapshot ([`CampaignReport::metrics`]) and a
//!   stable JSON form ([`CampaignReport::to_json`] /
//!   [`CampaignReport::from_json`], no external deps).
//! * [`universe_from_spec`] — the CLI's textual fault-universe specs,
//!   shared with examples and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod campaign;
mod event;
pub mod json;
mod report;
mod spec;

pub use backend::{
    Backend, BackendRun, CampaignBackend, CoverageWeights, RunControl, StopRule, TapeSlot, Workload,
};
pub use campaign::Campaign;
pub use event::SimEvent;
pub use report::{CampaignReport, CollapseStats, ControlEcho, StopReason};
pub use spec::{universe_from_spec, UNIVERSE_SPECS};

// Re-export the per-backend configuration types so campaign call sites
// need only this crate (plus circuits/testgen for the workload).
pub use fmossim_core::{ConcurrentConfig, DetectionPolicy, SerialConfig};
pub use fmossim_par::{BatchTelemetry, Jobs, ParallelConfig, ShardStrategy};
// Re-export the telemetry vocabulary the campaign API speaks
// ([`Campaign::with_telemetry`], [`CampaignReport::metrics`]).
pub use fmossim_telemetry::{MetricsSnapshot, Registry};
