//! The fault-grading benchmark: workloads run through the public
//! API of the fmossim crates, an untraced mode that reports the
//! end-to-end metrics, and a traced mode that times calls into each
//! layer and reports the per-layer metrics. See `README.md` in this
//! directory for the workloads, the metric map, and how to read the
//! self-time table.

pub mod batch;
pub mod host;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use fmossim_campaign::json::{self, Value};
use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports in untraced mode, in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("grade_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports in traced mode, in
/// `BENCHMARK.json` order: `(name, unit)`. A layer a workload does not
/// reach reports `0`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("testgen.build_s", "s"),
    ("faults.universe_s", "s"),
    ("switch.good_s", "s"),
    ("switch.good_groups", "count"),
    ("switch.ns_per_group", "ns"),
    ("core.run_s", "s"),
    ("core.faulty_groups", "count"),
    ("core.circuit_settles", "count"),
    ("core.events_scheduled", "count"),
    ("core.ns_per_faulty_group", "ns"),
    ("core.over_good", "ratio"),
    ("core.serial_est_ratio", "ratio"),
    ("core.head_frac", "fraction"),
    ("core.mean_live", "count"),
    ("core.records_peak", "count"),
    ("tape.replay_s", "s"),
    ("tape.saved_frac", "fraction"),
    ("tape.heap_mb", "MB"),
    ("par.wall_s", "s"),
    ("par.shard_s.max", "s"),
    ("par.imbalance", "ratio"),
    ("par.efficiency", "fraction"),
    ("par.serial_frac", "fraction"),
    ("par.queue_wait_s", "s"),
    ("par.merge_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.report_json_s", "s"),
    ("campaign.report_bytes", "bytes"),
    ("serve.submit_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.campaign_s", "s"),
    ("serve.fetch_s", "s"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.pool_depth_max", "count"),
    ("serve.gen_late_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_frac", "fraction"),
    ("trace.grade_s", "s"),
];

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = [batch::NAME, "serve-mix"];

/// A pinned correctness reference: detection count and fingerprint
/// ([`stats::fingerprint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Faults detected.
    pub detected: usize,
    /// FNV-1a over the canonical detection keys.
    pub fnv1a: u64,
}

impl Pin {
    /// True iff `(detected, fnv1a)` matches; reports a mismatch on
    /// stderr.
    #[must_use]
    pub fn check(&self, what: &str, got: (usize, u64)) -> bool {
        let ok = got == (self.detected, self.fnv1a);
        if !ok {
            eprintln!(
                "perfbench: {what}: detections {} / fnv1a {:016x}, pinned {} / {:016x}",
                got.0, got.1, self.detected, self.fnv1a
            );
        }
        ok
    }
}

/// The serve-mix pins: the warm `ram64` result, the two frozen
/// request rates, the latency limit, and how the rates were measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServePins {
    /// The served `ram64` campaign's result.
    pub ram64: Pin,
    /// Light-load request rate, per second.
    pub rate_r1: f64,
    /// Heavy-load request rate, per second.
    pub rate_r2: f64,
    /// The latency limit a request must meet, seconds.
    pub slo_s: f64,
    /// Closed-loop clients of the capacity measurement the rates were
    /// derived from (`--calibrate`).
    pub calibration_clients: usize,
}

/// Every pinned value, as checked in to `pins.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pins {
    /// `rand4k-par2`.
    pub rand4k: Pin,
    /// `serve-mix`.
    pub serve: ServePins,
}

/// The checked-in pins.
pub const PINS_JSON: &str = include_str!("../pins.json");

fn pin_of(v: Option<&Value>, what: &str) -> Result<Pin, String> {
    let v = v.ok_or_else(|| format!("pins: missing {what}"))?;
    let detected = v
        .get("detected")
        .and_then(Value::as_usize)
        .ok_or_else(|| format!("pins: {what}.detected"))?;
    let fnv1a = v
        .get("fnv1a")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("pins: {what}.fnv1a must be a hex string"))?;
    Ok(Pin { detected, fnv1a })
}

/// Parses a pins document (the format of `pins.json`).
///
/// # Errors
///
/// Names the first missing or malformed field.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let v = json::parse(text).map_err(|e| format!("pins: {e}"))?;
    let serve = v.get("serve-mix").ok_or("pins: missing serve-mix")?;
    let num = |key: &str| {
        serve
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("pins: serve-mix.{key}"))
    };
    Ok(Pins {
        rand4k: pin_of(v.get(batch::NAME), batch::NAME)?,
        serve: ServePins {
            ram64: pin_of(serve.get("ram64"), "serve-mix.ram64")?,
            rate_r1: num("rate_r1_per_s")?,
            rate_r2: num("rate_r2_per_s")?,
            slo_s: num("slo_s")?,
            calibration_clients: serve
                .get("calibration_clients")
                .and_then(Value::as_usize)
                .ok_or("pins: serve-mix.calibration_clients")?,
        },
    })
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human note (sample counts, bases); not part of the result line.
    pub note: String,
}

/// Per-layer samples collected over traced rounds, reported as medians,
/// and totals or fastest samples over a whole run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The note of each metric set whole by [`Layers::total`] or
    /// [`Layers::fastest`].
    whole: BTreeMap<&'static str, String>,
}

impl Layers {
    /// Adds one sample of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets `name` to a total over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] or already has a value.
    pub fn total(&mut self, name: &'static str, value: f64) {
        self.set(name, value, "total over the run".into());
    }

    /// Sets `name` to the smallest of `values`, as the untraced run
    /// reports `grade_s` ([`stats::min`]); nothing when `values` is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] or already has a value.
    pub fn fastest(&mut self, name: &'static str, values: &[f64]) {
        if let Some(v) = stats::min(values) {
            self.set(name, v, format!("fastest of {}", values.len()));
        }
    }

    fn set(&mut self, name: &'static str, value: f64, note: String) {
        assert!(!self.samples.contains_key(name), "{name} set twice");
        self.push(name, value);
        self.whole.insert(name, note);
    }

    /// Every [`PER_LAYER`] metric: its total or fastest sample, the
    /// median of its samples, or `0` for a layer this workload did not
    /// reach.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples = self.samples.get(name).map_or(&[][..], Vec::as_slice);
                Metric {
                    name: name.to_string(),
                    value: stats::median(samples).unwrap_or(0.0),
                    unit,
                    note: if samples.is_empty() {
                        "not on this workload's path".into()
                    } else if let Some(note) = self.whole.get(name) {
                        note.clone()
                    } else {
                        format!("median of {}", samples.len())
                    },
                }
            })
            .collect()
    }
}

/// A traced run's spans and its `(track, name)` list.
pub type Trace = (Vec<trace::Span>, Vec<(u32, String)>);

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Graded campaigns or requests whose results were checked.
    pub attempted: usize,
    /// Of those, how many failed, were refused, or mismatched a pin.
    pub failed: usize,
    /// The metrics of the result line (end-to-end untraced, per-layer
    /// traced), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further figures printed for people but not in the result line.
    pub extra: Vec<Metric>,
    /// Simulation workers actually used.
    pub workers: usize,
    /// Shards per campaign actually used.
    pub shards: usize,
    /// The traced run's spans and track names.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// `failed / attempted` (`1` when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Builds the end-to-end metric list in [`END_TO_END`] order from
/// `(grade_s, cpu_s, setup_s)` plus the process's peak RSS, with notes.
#[must_use]
pub fn end_to_end(values: [(f64, String); 3]) -> Vec<Metric> {
    let [grade, cpu, setup] = values;
    let rss = (host::peak_rss_mb(), "VmHWM of this process".to_string());
    [grade, cpu, setup, rss]
        .into_iter()
        .zip(END_TO_END)
        .map(|((value, note), (name, unit))| Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_pins_parse() {
        let pins = parse_pins(PINS_JSON).unwrap();
        assert!(pins.serve.rate_r1 < pins.serve.rate_r2);
        assert!(pins.serve.slo_s > 0.0);
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_crate_prints() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v = json::parse(&doc).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn layers_report_every_metric_with_zero_for_unreached() {
        let mut l = Layers::default();
        l.push("core.run_s", 2.0);
        l.push("core.run_s", 4.0);
        l.push("core.run_s", 3.0);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("core.run_s"), 3.0);
        assert_eq!(get("serve.submit_s"), 0.0);
    }

    #[test]
    fn totals_are_reported_as_such() {
        let mut l = Layers::default();
        l.total("core.faulty_groups", 7.0);
        l.push("core.run_s", 1.0);
        let m = l.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        assert_eq!(get("core.faulty_groups").value, 7.0);
        assert_eq!(get("core.faulty_groups").note, "total over the run");
        assert_eq!(get("core.run_s").note, "median of 1");
    }

    #[test]
    fn fastest_reports_the_smallest_sample() {
        let mut l = Layers::default();
        l.fastest("trace.grade_s", &[2.0, 1.5, 3.0]);
        l.fastest("serve.fetch_s", &[]);
        let m = l.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        assert_eq!(get("trace.grade_s").value, 1.5);
        assert_eq!(get("trace.grade_s").note, "fastest of 3");
        assert_eq!(get("serve.fetch_s").note, "not on this workload's path");
    }
}
