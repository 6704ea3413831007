//! The campaign-level report: the common [`RunReport`] measurements
//! wrapped with campaign metadata (backend, wall time, config echo),
//! serialisable to a stable JSON artifact with hand-rolled
//! [`to_json`](CampaignReport::to_json) /
//! [`from_json`](CampaignReport::from_json) (no external deps).

use crate::json::{obj, parse, Value};
use fmossim_core::{Detection, DetectionPolicy, PatternStats, RunReport};
use fmossim_faults::FaultId;
use fmossim_netlist::Logic;
use fmossim_telemetry::{HistogramSnapshot, MetricsSnapshot};

/// Why a campaign stopped.
///
/// ```
/// use fmossim_campaign::StopReason;
///
/// assert_eq!(StopReason::default(), StopReason::Completed);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// The whole pattern sequence was simulated.
    #[default]
    Completed,
    /// The coverage target was reached and the run cut short.
    CoverageReached,
    /// The pattern limit truncated the sequence.
    PatternLimit,
    /// The campaign's cancel token was set and the backend stopped at
    /// its next work-item boundary (see
    /// [`Campaign::cancel_token`](crate::Campaign::cancel_token)).
    Cancelled,
}

impl StopReason {
    fn as_str(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::CoverageReached => "coverage-reached",
            StopReason::PatternLimit => "pattern-limit",
            StopReason::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(StopReason::Completed),
            "coverage-reached" => Some(StopReason::CoverageReached),
            "pattern-limit" => Some(StopReason::PatternLimit),
            "cancelled" => Some(StopReason::Cancelled),
            _ => None,
        }
    }
}

/// Echo of the run-control options and detection policy a campaign ran
/// with, so an archived report is self-describing.
///
/// ```
/// use fmossim_campaign::{Campaign, StopReason};
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let report = Campaign::new(ram.network())
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .pattern_limit(3)
///     .drop_detected(false)
///     .run();
/// assert_eq!(report.control.pattern_limit, Some(3));
/// assert!(!report.control.drop_detected);
/// assert_eq!(report.stop, StopReason::PatternLimit);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ControlEcho {
    /// The coverage target, if one was set.
    pub stop_at_coverage: Option<f64>,
    /// The pattern limit, if one was set.
    pub pattern_limit: Option<usize>,
    /// Whether detected faults were dropped.
    pub drop_detected: bool,
    /// The detection policy in force — `None` for custom
    /// [`backend_impl`](crate::Campaign::backend_impl) strategies,
    /// whose policy the campaign cannot see.
    pub policy: Option<DetectionPolicy>,
    /// Whether bit-parallel fault packing was configured — `None` for
    /// the serial baseline (no packed path) and for custom strategies.
    /// A lenient version-3 addition: absent parses as `None`.
    pub packing: Option<bool>,
    /// `Some(true)` iff static fault collapsing ran (see
    /// [`Campaign::collapse`](crate::Campaign::collapse)). A lenient
    /// version-3 addition: the key is omitted — and parses as `None` —
    /// when collapsing was off, so pre-collapse documents are
    /// byte-identical to new ones.
    pub collapse: Option<bool>,
}

/// Fault-collapsing statistics of a campaign that ran with
/// [`Campaign::collapse`](crate::Campaign::collapse) — the top-level
/// `collapse` block of the JSON artifact, present only when collapsing
/// ran.
///
/// ```
/// let s = fmossim_campaign::CollapseStats {
///     total_faults: 100,
///     simulated_faults: 80,
///     classes: 12,
/// };
/// assert!(s.simulated_faults <= s.total_faults);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollapseStats {
    /// Faults in the parent universe (what the report's `run` block
    /// and coverage are expressed over).
    pub total_faults: usize,
    /// Class representatives actually simulated.
    pub simulated_faults: usize,
    /// Non-trivial (multi-member) equivalence classes found.
    pub classes: usize,
}

fn policy_str(p: DetectionPolicy) -> &'static str {
    match p {
        DetectionPolicy::AnyDifference => "any-difference",
        DetectionPolicy::DefiniteOnly => "definite-only",
    }
}

fn policy_parse(s: &str) -> Option<DetectionPolicy> {
    match s {
        "any-difference" => Some(DetectionPolicy::AnyDifference),
        "definite-only" => Some(DetectionPolicy::DefiniteOnly),
        _ => None,
    }
}

/// Serialises a telemetry snapshot as the report's `metrics` block.
fn metrics_to_value(m: &MetricsSnapshot) -> Value {
    let counters = Value::Obj(
        m.counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
            .collect(),
    );
    let gauges = Value::Obj(
        m.gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Num(v)))
            .collect(),
    );
    let histograms = Value::Obj(
        m.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    obj([
                        (
                            "buckets",
                            Value::Arr(h.buckets.iter().map(|&b| Value::Num(b as f64)).collect()),
                        ),
                        ("count", Value::Num(h.count as f64)),
                        ("sum", Value::Num(h.sum as f64)),
                    ]),
                )
            })
            .collect(),
    );
    obj([
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Parses the `metrics` block.
fn metrics_from_value(val: &Value) -> Result<MetricsSnapshot, String> {
    if !matches!(val, Value::Obj(_)) {
        return Err("bad metrics".into());
    }
    let mut snap = MetricsSnapshot::default();
    let section = |name: &str| -> Result<Vec<(&String, &Value)>, String> {
        match val.get(name) {
            None => Ok(Vec::new()),
            Some(Value::Obj(m)) => Ok(m.iter().collect()),
            Some(_) => Err(format!("bad metrics.{name}")),
        }
    };
    for (k, v) in section("counters")? {
        let n = v.as_usize().ok_or(format!("bad metrics counter `{k}`"))?;
        snap.counters.insert(k.clone(), n as u64);
    }
    for (k, v) in section("gauges")? {
        let n = v.as_f64().ok_or(format!("bad metrics gauge `{k}`"))?;
        snap.gauges.insert(k.clone(), n);
    }
    for (k, v) in section("histograms")? {
        let hcount = |name: &str| {
            v.get(name)
                .and_then(Value::as_usize)
                .map(|n| n as u64)
                .ok_or(format!("bad metrics histogram `{k}` {name}"))
        };
        let buckets = v
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or(format!("bad metrics histogram `{k}` buckets"))?
            .iter()
            .map(|b| {
                b.as_usize()
                    .map(|n| n as u64)
                    .ok_or(format!("bad metrics histogram `{k}` bucket"))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        snap.histograms.insert(
            k.clone(),
            HistogramSnapshot {
                buckets,
                count: hcount("count")?,
                sum: hcount("sum")?,
            },
        );
    }
    Ok(snap)
}

/// The result of [`Campaign::run`](crate::Campaign::run): one stable
/// artifact covering every backend, so benches, the CLI, and archived
/// runs all speak the same format.
///
/// ```
/// use fmossim_campaign::{Campaign, CampaignReport};
/// use fmossim_circuits::Ram;
/// use fmossim_faults::FaultUniverse;
/// use fmossim_testgen::TestSequence;
///
/// let ram = Ram::new(4, 4);
/// let seq = TestSequence::full(&ram);
/// let report = Campaign::new(ram.network())
///     .faults(FaultUniverse::stuck_nodes(ram.network()))
///     .patterns(seq.patterns())
///     .outputs(ram.observed_outputs())
///     .run();
/// assert_eq!(report.detected(), report.detections().len());
/// assert!(report.coverage() > 0.0);
/// // The JSON artifact round-trips exactly.
/// let back = CampaignReport::from_json(&report.to_json()).unwrap();
/// assert_eq!(back, report);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Strategy name ("serial", "concurrent", "parallel", or a custom
    /// backend's name).
    pub backend: String,
    /// Wall-clock seconds of the whole campaign (backend setup
    /// included).
    pub wall_seconds: f64,
    /// Patterns offered to the backend (after any pattern limit).
    pub patterns_total: usize,
    /// Why the campaign stopped.
    pub stop: StopReason,
    /// True iff the run was cut short by a cooperative cancel
    /// ([`Campaign::cancel_token`](crate::Campaign::cancel_token)); the
    /// report then covers the work done before the stop. A lenient
    /// version-3 addition: documents written before cancellation
    /// existed parse as `false`.
    pub cancelled: bool,
    /// Echo of the run-control configuration.
    pub control: ControlEcho,
    /// Resolved worker count (parallel backend only).
    pub jobs: Option<usize>,
    /// Shards in the plan (parallel backend only).
    pub shards: Option<usize>,
    /// Critical path: the longest single shard's seconds (parallel
    /// backend only).
    pub max_shard_seconds: Option<f64>,
    /// Good-circuit-only reference seconds (serial backend only).
    pub good_seconds: Option<f64>,
    /// The paper's serial-time estimate (serial backend only).
    pub serial_estimate_seconds: Option<f64>,
    /// Seconds of a good-tape record pass run before the shards start,
    /// when a tape was used: 0 on the parallel backend, whose leader
    /// shard streams the tape; on the served backend the record pass
    /// of a cache miss, 0 on a hit.
    pub tape_record_seconds: Option<f64>,
    /// Good-machine vicinities on the tape — the per-shard solver work
    /// replay skipped (when a tape was used).
    pub tape_groups: Option<usize>,
    /// The most tape bytes held at once: the stream's peak on the
    /// parallel backend, the whole tape on the served one. The key is
    /// omitted when `None` (a lenient version-3 addition).
    pub tape_peak_bytes: Option<usize>,
    /// Seconds replaying shards spent waiting for the tape, summed
    /// over shards. The key is omitted when `None` (a lenient
    /// version-3 addition).
    pub tape_wait_seconds: Option<f64>,
    /// Fault-collapsing statistics, present iff the campaign ran with
    /// [`Campaign::collapse`](crate::Campaign::collapse). The JSON key
    /// is omitted entirely when `None` (a lenient version-3 addition),
    /// so reports of uncollapsed runs are byte-identical to
    /// pre-collapse documents.
    pub collapse: Option<CollapseStats>,
    /// Snapshot of the campaign's telemetry registry at the end of the
    /// run — every `switch.*` / `core.*` / `par.*` / `campaign.*`
    /// metric recorded under
    /// [`Campaign::with_telemetry`](crate::Campaign::with_telemetry).
    /// Empty when no registry was attached (the default) and for
    /// documents written before schema version 3.
    pub metrics: MetricsSnapshot,
    /// The measurements, in the common per-pattern report format.
    pub run: RunReport,
}

impl CampaignReport {
    /// Number of faults detected.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.run.detected()
    }

    /// Fault coverage in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.run.coverage()
    }

    /// All detections, canonically ordered by `(pattern, phase,
    /// fault)`.
    #[must_use]
    pub fn detections(&self) -> &[Detection] {
        &self.run.detections
    }

    /// The schema version [`CampaignReport::to_json`] writes.
    ///
    /// [`CampaignReport::from_json`] reads this version only. Keys
    /// added within it parse leniently when absent: the `cancelled`
    /// flag (as `false`), the `packing` and `collapse` echoes, the
    /// `collapse` block and the `tape_peak_bytes` / `tape_wait_seconds`
    /// measurements (as `None`). Keys it does not know are ignored —
    /// among them the `batches` array that documents of the
    /// since-deleted batched parallel runs carry. The golden fixtures
    /// under `tests/fixtures/` pin the byte-exact format per backend.
    pub const JSON_VERSION: usize = 3;

    /// Serialises to the stable JSON artifact format (compact, one
    /// line, deterministic key order).
    ///
    /// ```
    /// # use fmossim_campaign::{Campaign, CampaignReport};
    /// # use fmossim_circuits::Ram;
    /// # use fmossim_faults::FaultUniverse;
    /// # use fmossim_testgen::TestSequence;
    /// # let ram = Ram::new(4, 4);
    /// # let seq = TestSequence::full(&ram);
    /// # let report = Campaign::new(ram.network())
    /// #     .faults(FaultUniverse::stuck_nodes(ram.network()))
    /// #     .patterns(seq.patterns())
    /// #     .outputs(ram.observed_outputs())
    /// #     .pattern_limit(2)
    /// #     .run();
    /// let text = report.to_json();
    /// assert!(text.starts_with("{\"backend\":"));
    /// assert!(text.contains("\"format\":\"fmossim-campaign-report\""));
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let opt_num = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        let opt_count = |v: Option<usize>| v.map_or(Value::Null, |n| Value::Num(n as f64));
        let detections: Vec<Value> = self
            .run
            .detections
            .iter()
            .map(|d| {
                obj([
                    ("fault", Value::Num(f64::from(d.fault.0))),
                    ("pattern", Value::Num(d.pattern as f64)),
                    ("phase", Value::Num(d.phase as f64)),
                    ("good", Value::Str(d.good.to_string())),
                    ("faulty", Value::Str(d.faulty.to_string())),
                ])
            })
            .collect();
        let patterns: Vec<Value> = self
            .run
            .patterns
            .iter()
            .map(|p| {
                obj([
                    ("seconds", Value::Num(p.seconds)),
                    ("detected", Value::Num(p.detected as f64)),
                    ("live_before", Value::Num(p.live_before as f64)),
                    ("good_groups", Value::Num(p.good_groups as f64)),
                    ("faulty_groups", Value::Num(p.faulty_groups as f64)),
                    ("circuit_settles", Value::Num(p.circuit_settles as f64)),
                    ("damped", Value::Bool(p.damped)),
                ])
            })
            .collect();
        // The `collapse` keys (control echo and the top-level stats
        // block) are omitted entirely — not serialised as null — when
        // collapsing was off, so reports of uncollapsed runs are
        // byte-identical to pre-collapse documents and the golden
        // fixtures stay frozen.
        let mut control_pairs = vec![
            ("stop_at_coverage", opt_num(self.control.stop_at_coverage)),
            ("pattern_limit", opt_count(self.control.pattern_limit)),
            ("drop_detected", Value::Bool(self.control.drop_detected)),
            (
                "policy",
                self.control
                    .policy
                    .map_or(Value::Null, |p| Value::Str(policy_str(p).into())),
            ),
            (
                "packing",
                self.control.packing.map_or(Value::Null, Value::Bool),
            ),
        ];
        if let Some(c) = self.control.collapse {
            control_pairs.push(("collapse", Value::Bool(c)));
        }
        let mut pairs = vec![
            ("format", Value::Str("fmossim-campaign-report".into())),
            ("version", Value::Num(Self::JSON_VERSION as f64)),
            ("backend", Value::Str(self.backend.clone())),
            ("wall_seconds", Value::Num(self.wall_seconds)),
            ("patterns_total", Value::Num(self.patterns_total as f64)),
            ("stop", Value::Str(self.stop.as_str().into())),
            ("cancelled", Value::Bool(self.cancelled)),
            ("control", obj(control_pairs)),
            ("jobs", opt_count(self.jobs)),
            ("shards", opt_count(self.shards)),
            ("max_shard_seconds", opt_num(self.max_shard_seconds)),
            ("good_seconds", opt_num(self.good_seconds)),
            (
                "serial_estimate_seconds",
                opt_num(self.serial_estimate_seconds),
            ),
            ("tape_record_seconds", opt_num(self.tape_record_seconds)),
            ("tape_groups", opt_count(self.tape_groups)),
            ("metrics", metrics_to_value(&self.metrics)),
            (
                "run",
                obj([
                    ("num_faults", Value::Num(self.run.num_faults as f64)),
                    ("total_seconds", Value::Num(self.run.total_seconds)),
                    ("detections", Value::Arr(detections)),
                    ("patterns", Value::Arr(patterns)),
                ]),
            ),
        ];
        if let Some(bytes) = self.tape_peak_bytes {
            pairs.push(("tape_peak_bytes", Value::Num(bytes as f64)));
        }
        if let Some(secs) = self.tape_wait_seconds {
            pairs.push(("tape_wait_seconds", Value::Num(secs)));
        }
        if let Some(c) = &self.collapse {
            pairs.push((
                "collapse",
                obj([
                    ("total_faults", Value::Num(c.total_faults as f64)),
                    ("simulated_faults", Value::Num(c.simulated_faults as f64)),
                    ("classes", Value::Num(c.classes as f64)),
                ]),
            ));
        }
        obj(pairs).to_string()
    }

    /// Parses a report back from its JSON artifact.
    ///
    /// ```
    /// use fmossim_campaign::CampaignReport;
    ///
    /// assert!(CampaignReport::from_json("{}").is_err(), "foreign document");
    /// assert!(CampaignReport::from_json("not json").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<CampaignReport, String> {
        let v = parse(text)?;
        if v.get("format").and_then(Value::as_str) != Some("fmossim-campaign-report") {
            return Err("not a fmossim-campaign-report document".into());
        }
        // Unknown keys (an archived `batches` array) are ignored.
        match v.get("version").and_then(Value::as_usize) {
            Some(Self::JSON_VERSION) => {}
            Some(other) => return Err(format!("unsupported report version {other}")),
            None => return Err("missing report version".into()),
        }
        let field = |name: &str| v.get(name).ok_or(format!("missing field `{name}`"));
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or(format!("field `{name}` is not a number"))
        };
        let count = |name: &str| {
            field(name)?
                .as_usize()
                .ok_or(format!("field `{name}` is not a count"))
        };
        let opt_num = |name: &str| -> Result<Option<f64>, String> {
            let val = field(name)?;
            if val.is_null() {
                Ok(None)
            } else {
                Ok(Some(
                    val.as_f64()
                        .ok_or(format!("field `{name}` is not a number"))?,
                ))
            }
        };
        let opt_count = |name: &str| -> Result<Option<usize>, String> {
            let val = field(name)?;
            if val.is_null() {
                Ok(None)
            } else {
                Ok(Some(
                    val.as_usize()
                        .ok_or(format!("field `{name}` is not a count"))?,
                ))
            }
        };

        let control = field("control")?;
        let control = ControlEcho {
            stop_at_coverage: match control.get("stop_at_coverage") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_f64().ok_or("bad stop_at_coverage")?),
            },
            pattern_limit: match control.get("pattern_limit") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_usize().ok_or("bad pattern_limit")?),
            },
            drop_detected: control
                .get("drop_detected")
                .and_then(Value::as_bool)
                .ok_or("bad drop_detected")?,
            policy: match control.get("policy") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_str().and_then(policy_parse).ok_or("bad policy")?),
            },
            // Absent in pre-packing version-3 documents: a lenient
            // addition, like the metrics block.
            packing: match control.get("packing") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_bool().ok_or("bad packing")?),
            },
            // Absent in pre-collapse documents and whenever collapsing
            // was off (omitted, never null).
            collapse: match control.get("collapse") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_bool().ok_or("bad control collapse")?),
            },
        };

        let run_v = field("run")?;
        let run_count = |name: &str| {
            run_v
                .get(name)
                .and_then(Value::as_usize)
                .ok_or(format!("bad run.{name}"))
        };
        let logic = |val: Option<&Value>, name: &str| {
            val.and_then(Value::as_str)
                .and_then(|s| s.chars().next())
                .and_then(Logic::from_char)
                .ok_or(format!("bad detection {name}"))
        };
        let mut detections = Vec::new();
        for d in run_v
            .get("detections")
            .and_then(Value::as_arr)
            .ok_or("bad run.detections")?
        {
            detections.push(Detection {
                fault: FaultId(
                    u32::try_from(
                        d.get("fault")
                            .and_then(Value::as_usize)
                            .ok_or("bad fault")?,
                    )
                    .map_err(|_| "fault id out of range")?,
                ),
                pattern: d
                    .get("pattern")
                    .and_then(Value::as_usize)
                    .ok_or("bad pattern")?,
                phase: d
                    .get("phase")
                    .and_then(Value::as_usize)
                    .ok_or("bad phase")?,
                good: logic(d.get("good"), "good")?,
                faulty: logic(d.get("faulty"), "faulty")?,
            });
        }
        let mut patterns = Vec::new();
        for p in run_v
            .get("patterns")
            .and_then(Value::as_arr)
            .ok_or("bad run.patterns")?
        {
            let pcount = |name: &str| {
                p.get(name)
                    .and_then(Value::as_usize)
                    .ok_or(format!("bad pattern stat {name}"))
            };
            patterns.push(PatternStats {
                seconds: p
                    .get("seconds")
                    .and_then(Value::as_f64)
                    .ok_or("bad pattern seconds")?,
                detected: pcount("detected")?,
                live_before: pcount("live_before")?,
                good_groups: pcount("good_groups")?,
                faulty_groups: pcount("faulty_groups")?,
                circuit_settles: pcount("circuit_settles")?,
                damped: p
                    .get("damped")
                    .and_then(Value::as_bool)
                    .ok_or("bad pattern damped")?,
            });
        }
        let run = RunReport {
            patterns,
            detections,
            num_faults: run_count("num_faults")?,
            total_seconds: run_v
                .get("total_seconds")
                .and_then(Value::as_f64)
                .ok_or("bad run.total_seconds")?,
        };

        Ok(CampaignReport {
            backend: field("backend")?.as_str().ok_or("bad backend")?.to_string(),
            wall_seconds: num("wall_seconds")?,
            patterns_total: count("patterns_total")?,
            stop: field("stop")?
                .as_str()
                .and_then(StopReason::parse)
                .ok_or("bad stop reason")?,
            // A lenient version-3 addition: absent in documents written
            // before cooperative cancellation existed.
            cancelled: match v.get("cancelled") {
                None | Some(Value::Null) => false,
                Some(val) => val.as_bool().ok_or("bad cancelled")?,
            },
            control,
            jobs: opt_count("jobs")?,
            shards: opt_count("shards")?,
            max_shard_seconds: opt_num("max_shard_seconds")?,
            good_seconds: opt_num("good_seconds")?,
            serial_estimate_seconds: opt_num("serial_estimate_seconds")?,
            tape_record_seconds: opt_num("tape_record_seconds")?,
            tape_groups: opt_count("tape_groups")?,
            // Omitted when absent, and in documents written before the
            // tape was streamed.
            tape_peak_bytes: match v.get("tape_peak_bytes") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_usize().ok_or("bad tape_peak_bytes")?),
            },
            tape_wait_seconds: match v.get("tape_wait_seconds") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_f64().ok_or("bad tape_wait_seconds")?),
            },
            // Absent in pre-collapse documents and in every
            // uncollapsed run (the key is omitted, never null).
            collapse: match v.get("collapse") {
                None | Some(Value::Null) => None,
                Some(val) => {
                    let ccount = |name: &str| {
                        val.get(name)
                            .and_then(Value::as_usize)
                            .ok_or(format!("bad collapse {name}"))
                    };
                    Some(CollapseStats {
                        total_faults: ccount("total_faults")?,
                        simulated_faults: ccount("simulated_faults")?,
                        classes: ccount("classes")?,
                    })
                }
            },
            metrics: metrics_from_value(field("metrics")?)?,
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            backend: "parallel".into(),
            wall_seconds: 1.25,
            patterns_total: 3,
            stop: StopReason::CoverageReached,
            cancelled: false,
            control: ControlEcho {
                stop_at_coverage: Some(0.9),
                pattern_limit: None,
                drop_detected: true,
                policy: Some(DetectionPolicy::AnyDifference),
                packing: Some(false),
                collapse: None,
            },
            collapse: None,
            jobs: Some(4),
            shards: Some(8),
            max_shard_seconds: Some(0.5),
            good_seconds: None,
            serial_estimate_seconds: None,
            tape_record_seconds: Some(0.0625),
            tape_groups: Some(40),
            tape_peak_bytes: Some(4096),
            tape_wait_seconds: Some(0.125),
            metrics: {
                let mut m = MetricsSnapshot::default();
                m.counters.insert("core.detections".into(), 2);
                m.gauges.insert("par.shard.seconds".into(), 0.375);
                m.histograms.insert(
                    "switch.solve_group.size".into(),
                    HistogramSnapshot {
                        buckets: vec![1, 2],
                        count: 3,
                        sum: 9,
                    },
                );
                m
            },
            run: RunReport {
                patterns: vec![
                    PatternStats {
                        seconds: 0.25,
                        detected: 2,
                        live_before: 10,
                        good_groups: 7,
                        faulty_groups: 21,
                        circuit_settles: 5,
                        damped: false,
                    },
                    PatternStats {
                        seconds: 0.125,
                        detected: 0,
                        live_before: 8,
                        good_groups: 7,
                        faulty_groups: 3,
                        circuit_settles: 1,
                        damped: true,
                    },
                ],
                detections: vec![
                    Detection {
                        fault: FaultId(3),
                        pattern: 0,
                        phase: 5,
                        good: Logic::H,
                        faulty: Logic::L,
                    },
                    Detection {
                        fault: FaultId(7),
                        pattern: 0,
                        phase: 5,
                        good: Logic::L,
                        faulty: Logic::X,
                    },
                ],
                num_faults: 10,
                total_seconds: 0.375,
            },
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let report = sample_report();
        let text = report.to_json();
        let back = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(report, back);
        // Serialisation is deterministic.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn convenience_accessors() {
        let report = sample_report();
        assert_eq!(report.detected(), 2);
        assert!((report.coverage() - 0.2).abs() < 1e-12);
        assert_eq!(report.detections()[1].fault, FaultId(7));
        assert!(report.detections()[1].is_potential());
    }

    /// Documents written while batched parallel runs existed carry a
    /// `batches` key. The writer no longer emits it, and the reader
    /// ignores it like any unknown key.
    #[test]
    fn parses_pre_adaptive_documents() {
        let report = sample_report();
        let text = report.to_json();
        assert!(!text.contains("batches"), "key no longer written: {text}");
        let archived = text.replace(
            ",\"metrics\":",
            ",\"batches\":[{\"first_pattern\":0,\"imbalance\":2}],\"metrics\":",
        );
        assert!(archived.contains("batches"), "key really added: {archived}");
        assert_eq!(
            CampaignReport::from_json(&archived).expect("archived key ignored"),
            report
        );
    }

    /// Documents written before cooperative cancellation carry no
    /// `cancelled` key; parsing must default it to `false`, and the
    /// "cancelled" stop reason must round-trip.
    #[test]
    fn parses_pre_cancellation_documents() {
        let text = sample_report()
            .to_json()
            .replace(",\"cancelled\":false", "");
        assert!(!text.contains("cancelled"), "key really removed: {text}");
        let back = CampaignReport::from_json(&text).expect("lenient parse");
        assert!(!back.cancelled);

        let mut report = sample_report();
        report.cancelled = true;
        report.stop = StopReason::Cancelled;
        let back = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    /// Documents written before the bit-parallel packing knob carry no
    /// `packing` key; parsing must default it to `None`, and explicit
    /// values must round-trip.
    #[test]
    fn parses_pre_packing_documents() {
        let text = sample_report().to_json().replace(",\"packing\":false", "");
        assert!(!text.contains("packing"), "key really removed: {text}");
        let back = CampaignReport::from_json(&text).expect("lenient parse");
        assert_eq!(back.control.packing, None);

        let mut report = sample_report();
        report.control.packing = Some(true);
        let back = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    /// Pre-collapse documents carry no `collapse` keys at all — and
    /// neither do uncollapsed runs, whose artifacts must stay
    /// byte-identical to pre-collapse ones. Explicit values must
    /// round-trip.
    #[test]
    fn parses_pre_collapse_documents() {
        // Omission, not null: an uncollapsed report simply has no
        // `collapse` key anywhere.
        let text = sample_report().to_json();
        assert!(!text.contains("collapse"), "keys really absent: {text}");
        let back = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(back.control.collapse, None);
        assert_eq!(back.collapse, None);

        let mut report = sample_report();
        report.control.collapse = Some(true);
        report.collapse = Some(CollapseStats {
            total_faults: 10,
            simulated_faults: 7,
            classes: 2,
        });
        let text = report.to_json();
        assert!(text.contains("\"collapse\":true"), "echo written: {text}");
        assert!(
            text.contains("\"simulated_faults\":7"),
            "stats written: {text}"
        );
        let back = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(CampaignReport::from_json("{}").is_err());
        assert!(CampaignReport::from_json("[1,2]").is_err());
        assert!(CampaignReport::from_json("not json").is_err());
        // An emptied backend name is still a well-formed document...
        let mangled = sample_report().to_json().replace("parallel", "");
        assert!(CampaignReport::from_json(&mangled).is_ok());
        // ...but a missing required field must fail,
        let missing = sample_report()
            .to_json()
            .replace("\"wall_seconds\"", "\"renamed\"");
        assert!(CampaignReport::from_json(&missing).is_err());
        // ...as must a missing metrics block,
        let report = sample_report();
        let metrics_block = format!(",\"metrics\":{}", metrics_to_value(&report.metrics));
        let no_metrics = report.to_json().replace(&metrics_block, "");
        assert!(!no_metrics.contains("metrics"), "key really removed");
        assert!(CampaignReport::from_json(&no_metrics).is_err());
        // ...and any format version but 3: the retired 1 and 2 as much
        // as an unknown 4.
        for version in [1, 2, 4] {
            let other = sample_report()
                .to_json()
                .replace("\"version\":3", &format!("\"version\":{version}"));
            let err = CampaignReport::from_json(&other).expect_err("other version");
            assert_eq!(err, format!("unsupported report version {version}"));
        }
    }
}
