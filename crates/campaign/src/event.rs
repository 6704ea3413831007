//! Streaming campaign events, delivered to the observer registered
//! with [`Campaign::on_event`](crate::Campaign::on_event) while the
//! backend runs.
//!
//! Which events a backend emits follows its execution order:
//!
//! * [`Backend::Concurrent`](crate::Backend::Concurrent) is
//!   pattern-major — it streams [`SimEvent::PatternStart`] /
//!   [`SimEvent::PatternDone`] around each pattern, with
//!   [`SimEvent::Detected`] / [`SimEvent::FaultDropped`] in between.
//! * [`Backend::Serial`](crate::Backend::Serial) is fault-major — it
//!   streams `Detected` / `FaultDropped` per fault as each private
//!   simulation finishes (pattern events would be meaningless).
//! * [`Backend::Parallel`](crate::Backend::Parallel) streams one
//!   [`SimEvent::ShardDone`] per completed shard (in completion order,
//!   which is scheduling-dependent across worker threads) with the
//!   shard's `Detected` / `FaultDropped` events just before it.
//!
//! Every backend's stream ends with one `Span { name: "campaign.run" }`
//! carrying the whole run's wall-clock seconds.

use fmossim_faults::FaultId;

/// One streaming event from a running campaign.
///
/// ```
/// use fmossim_campaign::{Campaign, SimEvent};
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let mut drops = 0;
/// let report = Campaign::new(ram.network())
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .on_event(|e| {
///         if let SimEvent::FaultDropped { .. } = e {
///             drops += 1;
///         }
///     })
///     .run();
/// assert_eq!(drops, report.detected(), "drop-on-detect is the default");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEvent {
    /// A pattern is about to be simulated (concurrent backend).
    PatternStart {
        /// Zero-based pattern index.
        pattern: usize,
        /// Faulty circuits still live when the pattern starts.
        live: usize,
    },
    /// A pattern finished (concurrent backend).
    PatternDone {
        /// Zero-based pattern index.
        pattern: usize,
        /// Total detections so far in this run.
        detected_so_far: usize,
        /// Wall-clock seconds this pattern took.
        seconds: f64,
    },
    /// A fault was detected.
    Detected {
        /// The detected fault (parent-universe id).
        fault: FaultId,
        /// Pattern index of the detecting strobe.
        pattern: usize,
        /// Phase index within the pattern.
        phase: usize,
        /// True iff the difference involved an `X` (potential
        /// detection).
        potential: bool,
    },
    /// A faulty circuit was dropped and will not be simulated again —
    /// follows `Detected` when
    /// [`drop_detected`](crate::Campaign::drop_detected) is on.
    FaultDropped {
        /// The dropped fault (parent-universe id).
        fault: FaultId,
    },
    /// A shard completed (parallel backend, in scheduling-dependent
    /// completion order).
    ShardDone {
        /// Shard index in the plan.
        shard: usize,
        /// Faults the shard graded.
        faults: usize,
        /// Faults the shard detected.
        detected: usize,
        /// The shard's own wall-clock seconds.
        seconds: f64,
    },
    /// A named timed section finished — the span-tracing hook. Every
    /// campaign run ends with one `"campaign.run"` span covering the
    /// whole backend run.
    Span {
        /// Dotted span name, matching the telemetry metric catalogue
        /// (e.g. `"campaign.run"`).
        name: &'static str,
        /// The span's wall-clock duration in seconds.
        seconds: f64,
    },
}
