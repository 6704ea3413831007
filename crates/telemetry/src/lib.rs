//! Hierarchical metrics for the FMOSSIM stack: typed counter / gauge /
//! histogram handles behind a [`Registry`], with Prometheus text-format
//! and JSON exporters. Dependency-free, consistent with the workspace's
//! offline-shims policy.
//!
//! The paper's entire contribution is *performance evaluation* — events
//! per pattern, fraction of time in the good machine, fault-list
//! activity — so the simulator layers publish their activity here:
//! `switch.*` (settles, vicinity solves, solve-group sizes),
//! `core.*` (events scheduled, detections, live faults, tape replay),
//! `par.*` (per-shard seconds, queue wait, merge time) and
//! `campaign.*` (run time). Metric names are
//! dot-hierarchical; the Prometheus exporter mangles them to
//! `fmossim_switch_settles`-style identifiers.
//!
//! # Null registries
//!
//! A [`Registry`] is either *active* ([`Registry::new`]) or *null*
//! ([`Registry::null`], also [`Registry::default`]). Handles minted
//! from a null registry are no-ops whose hot-path cost is one branch on
//! an `Option` — instrumented code never checks whether telemetry is
//! enabled, it just calls [`Counter::inc`]. Handles from an active
//! registry update shared atomics, so they are safe (and cheap) to use
//! from worker threads.
//!
//! # Per-shard registries
//!
//! Fault-parallel drivers give every shard its own [`Registry::fork`]
//! and fold the children back with [`Registry::merge`] at report time:
//! counters and histograms add, gauges accumulate by summation (the
//! exported gauges are additive quantities — seconds, moved faults —
//! or last-write ratios where one writer exists).
//!
//! # Example
//!
//! ```
//! use fmossim_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let settles = registry.counter("switch.settles");
//! let sizes = registry.histogram("switch.solve_group.size");
//! settles.inc();
//! sizes.observe(3);
//! let text = registry.to_prometheus();
//! assert!(text.contains("# TYPE fmossim_switch_settles counter"));
//! assert!(text.contains("fmossim_switch_settles 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bucket bounds of every [`Histogram`]: powers of two from 1 to
/// 2^15, plus the implicit `+Inf` overflow bucket. Fixed bounds keep
/// merged histograms well-defined without per-metric configuration.
pub const BUCKET_BOUNDS: [u64; 16] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

#[derive(Debug, Default)]
struct HistogramCell {
    /// Per-bucket (not cumulative) observation counts;
    /// `buckets[BUCKET_BOUNDS.len()]` is the `+Inf` overflow bucket.
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell; a defaulted handle is a no-op
/// (same as one minted from a null [`Registry`]).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A floating-point quantity that can be set or accumulated — seconds
/// of work, live-fault levels, imbalance ratios.
///
/// Cloning shares the underlying cell; a defaulted handle is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `v` to the gauge (compare-and-swap loop; gauges are not on
    /// the per-event hot path).
    #[inline]
    pub fn add(&self, v: f64) {
        if let Some(cell) = &self.0 {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The current value (0.0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A distribution of integer observations over the fixed
/// [`BUCKET_BOUNDS`] power-of-two buckets.
///
/// Cloning shares the underlying cell; a defaulted handle is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cell) = &self.0 {
            let slot = BUCKET_BOUNDS.partition_point(|&le| le < v);
            cell.buckets[slot].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The number of observations (0 for a no-op handle).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.count.load(Ordering::Relaxed))
    }

    /// Whether observations land anywhere (`false` for a no-op handle).
    /// Hot loops that accumulate into a [`LocalHistogram`] check this
    /// once to skip the bucketing work entirely when telemetry is off.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Drains a [`LocalHistogram`] into this histogram: every non-empty
    /// local bucket becomes one atomic add (plus count and sum), and the
    /// local accumulator is reset. With a no-op handle the local data is
    /// discarded — the accumulator is still reset so batching code needs
    /// no active/null branch.
    pub fn merge_local(&self, local: &mut LocalHistogram) {
        if let Some(cell) = &self.0 {
            if local.count > 0 {
                for (slot, &n) in local.buckets.iter().enumerate() {
                    if n > 0 {
                        cell.buckets[slot].fetch_add(n, Ordering::Relaxed);
                    }
                }
                cell.count.fetch_add(local.count, Ordering::Relaxed);
                cell.sum.fetch_add(local.sum, Ordering::Relaxed);
            }
        }
        *local = LocalHistogram::default();
    }
}

/// A thread-local, atomics-free histogram accumulator over the same
/// [`BUCKET_BOUNDS`] as [`Histogram`].
///
/// Per-event shared-atomic traffic is the dominant telemetry cost on
/// hot paths (the switch engine observes one solve-group size per
/// vicinity — hundreds of thousands per campaign). Instrumented code
/// that owns its metrics exclusively observes into a `LocalHistogram`
/// (three plain integer updates) and folds the batch into the shared
/// [`Histogram`] at a coarse boundary via [`Histogram::merge_local`];
/// the merged result is identical to observing each value directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
}

impl LocalHistogram {
    /// Records one observation of `v` (no atomics).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let slot = BUCKET_BOUNDS.partition_point(|&le| le < v);
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Records `n` observations of `v` at the cost of one.
    #[inline]
    pub fn observe_n(&mut self, v: u64, n: u64) {
        let slot = BUCKET_BOUNDS.partition_point(|&le| le < v);
        self.buckets[slot] += n;
        self.count += n;
        self.sum += v * n;
    }

    /// The number of observations accumulated since the last merge.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug, Default)]
struct Inner {
    slots: Mutex<BTreeMap<String, Slot>>,
}

/// A hierarchical metric registry.
///
/// Minting a handle ([`Registry::counter`] / [`gauge`](Registry::gauge)
/// / [`histogram`](Registry::histogram)) takes a lock once; the handle
/// itself is lock-free afterwards. Instrumented code should mint
/// handles at attach time, not per event. A *null* registry
/// ([`Registry::null`], the [`Default`]) mints no-op handles — the
/// compiled-in "telemetry off" path.
///
/// `Registry` is `Clone` (clones share the same metric store) and
/// `Send + Sync`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An active registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A null registry: every minted handle is a no-op. This is also
    /// the [`Default`].
    #[must_use]
    pub fn null() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// A new *empty* registry of the same kind: active if `self` is
    /// active, null otherwise. Fault-parallel drivers fork one child
    /// per shard and [`merge`](Registry::merge) them back.
    #[must_use]
    pub fn fork(&self) -> Registry {
        if self.is_active() {
            Registry::new()
        } else {
            Registry::null()
        }
    }

    /// Mints (or re-fetches) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut slots = inner.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(cell) => Counter(Some(Arc::clone(cell))),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Mints (or re-fetches) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let mut slots = inner.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))));
        match slot {
            Slot::Gauge(cell) => Gauge(Some(Arc::clone(cell))),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Mints (or re-fetches) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram(None);
        };
        let mut slots = inner.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCell::default())));
        match slot {
            Slot::Histogram(cell) => Histogram(Some(Arc::clone(cell))),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A point-in-time copy of every metric. Null registries snapshot
    /// to the empty (default) snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let slots = inner.slots.lock().expect("registry lock");
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(cell) => {
                    snap.counters
                        .insert(name.clone(), cell.load(Ordering::Relaxed));
                }
                Slot::Gauge(cell) => {
                    snap.gauges
                        .insert(name.clone(), f64::from_bits(cell.load(Ordering::Relaxed)));
                }
                Slot::Histogram(cell) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            buckets: cell
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: cell.count.load(Ordering::Relaxed),
                            sum: cell.sum.load(Ordering::Relaxed),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Folds another registry's current values into this one:
    /// counters, histograms and gauges all add. No-op when either side
    /// is null.
    pub fn merge(&self, other: &Registry) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds a snapshot's values into this registry (the merge
    /// primitive [`Registry::merge`] is built on). No-op when `self`
    /// is null.
    pub fn merge_snapshot(&self, snap: &MetricsSnapshot) {
        if !self.is_active() {
            return;
        }
        for (name, &v) in &snap.counters {
            self.counter(name).add(v);
        }
        for (name, &v) in &snap.gauges {
            self.gauge(name).add(v);
        }
        for (name, hist) in &snap.histograms {
            let handle = self.histogram(name);
            if let Some(cell) = &handle.0 {
                for (slot, &n) in hist.buckets.iter().enumerate() {
                    if slot < cell.buckets.len() {
                        cell.buckets[slot].fetch_add(n, Ordering::Relaxed);
                    }
                }
                cell.count.fetch_add(hist.count, Ordering::Relaxed);
                cell.sum.fetch_add(hist.sum, Ordering::Relaxed);
            }
        }
    }

    /// Prometheus text exposition of the current values
    /// ([`MetricsSnapshot::to_prometheus`]).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// JSON rendering of the current values
    /// ([`MetricsSnapshot::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One histogram's state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (not cumulative) counts; the entry after the last
    /// [`BUCKET_BOUNDS`] bound is the `+Inf` overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time copy of a [`Registry`]: plain sorted maps, suitable
/// for embedding in a report, comparing in tests, or exporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by hierarchical name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by hierarchical name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by hierarchical name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Mangles a hierarchical metric name into a Prometheus identifier:
/// `switch.solve_group.size` → `fmossim_switch_solve_group_size`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("fmossim_");
    for ch in name.chars() {
        match ch {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => out.push(ch),
            _ => out.push('_'),
        }
    }
    out
}

/// Formats an f64 for Prometheus/JSON output: finite values via Rust's
/// shortest round-trip `Display`, non-finite clamped to 0 (neither
/// format transports NaN).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl MetricsSnapshot {
    /// Whether no metric was ever registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# TYPE` line per metric, histograms expanded to cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, &v) in &self.gauges {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", fmt_f64(v));
        }
        for (name, hist) in &self.histograms {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            let mut cumulative = 0u64;
            for (slot, &le) in BUCKET_BOUNDS.iter().enumerate() {
                cumulative += hist.buckets.get(slot).copied().unwrap_or(0);
                let _ = writeln!(out, "{p}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{p}_sum {}", hist.sum);
            let _ = writeln!(out, "{p}_count {}", hist.count);
        }
        out
    }

    /// Renders the snapshot as compact JSON with sorted keys:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`. The
    /// rendering is deterministic for a given snapshot.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut out = String::from("{\"counters\":{");
        out.push_str(
            &self
                .counters
                .iter()
                .map(|(k, v)| format!("{}:{v}", quote(k)))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"gauges\":{");
        out.push_str(
            &self
                .gauges
                .iter()
                .map(|(k, &v)| format!("{}:{}", quote(k), fmt_f64(v)))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"histograms\":{");
        out.push_str(
            &self
                .histograms
                .iter()
                .map(|(k, h)| {
                    format!(
                        "{}:{{\"buckets\":[{}],\"count\":{},\"sum\":{}}}",
                        quote(k),
                        h.buckets
                            .iter()
                            .map(u64::to_string)
                            .collect::<Vec<_>>()
                            .join(","),
                        h.count,
                        h.sum
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("}}");
        out
    }

    /// Lints a Prometheus text-format document: every `# TYPE` line
    /// well-formed with a known type, no duplicate `# TYPE` names, and
    /// every sample line `name{labels} value` parseable with its base
    /// name declared by a preceding `# TYPE`.
    ///
    /// # Errors
    ///
    /// Returns `(line_number, message)` for the first violation.
    pub fn lint_prometheus(text: &str) -> Result<(), (usize, String)> {
        fn valid_name(s: &str) -> bool {
            !s.is_empty()
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        let mut declared: BTreeMap<&str, &str> = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err((lineno, format!("malformed TYPE line: `{line}`")));
                };
                if !valid_name(name) {
                    return Err((lineno, format!("invalid metric name `{name}`")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err((lineno, format!("unknown metric type `{kind}`")));
                }
                if declared.insert(name, kind).is_some() {
                    return Err((lineno, format!("duplicate TYPE for `{name}`")));
                }
                continue;
            }
            if line.starts_with('#') {
                continue; // other comments (HELP etc.) are free-form
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| (lineno, format!("sample without value: `{line}`")))?;
            if value.parse::<f64>().is_err() {
                return Err((lineno, format!("unparseable sample value `{value}`")));
            }
            let name = series.split('{').next().unwrap_or(series);
            if !valid_name(name) {
                return Err((lineno, format!("invalid sample name `{name}`")));
            }
            if series.contains('{') && !series.ends_with('}') {
                return Err((lineno, format!("unterminated label set: `{series}`")));
            }
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|base| declared.contains_key(base))
                .unwrap_or(name);
            if !declared.contains_key(base) {
                return Err((lineno, format!("sample `{name}` has no TYPE declaration")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_registry_is_free_and_silent() {
        let registry = Registry::null();
        assert!(!registry.is_active());
        let c = registry.counter("switch.settles");
        let g = registry.gauge("par.shard.seconds");
        let h = registry.histogram("switch.solve_group.size");
        c.add(5);
        g.add(1.5);
        h.observe(7);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(registry.snapshot().is_empty());
        assert_eq!(registry.to_prometheus(), "");
    }

    #[test]
    fn local_histogram_merges_like_direct_observation() {
        let direct = Registry::new();
        let batched = Registry::new();
        let dh = direct.histogram("switch.solve_group.size");
        let bh = batched.histogram("switch.solve_group.size");
        let mut local = LocalHistogram::default();
        let values = [0, 1, 2, 3, 3, 64, 40_000, 40_000];
        for &v in &values {
            dh.observe(v);
            local.observe(v);
        }
        assert_eq!(local.count(), values.len() as u64);
        bh.merge_local(&mut local);
        assert_eq!(local, LocalHistogram::default());
        assert_eq!(direct.snapshot(), batched.snapshot());
        // A second, empty merge changes nothing.
        bh.merge_local(&mut local);
        assert_eq!(direct.snapshot(), batched.snapshot());
        // A null handle discards but still resets.
        let null = Histogram::default();
        assert!(!null.is_active());
        local.observe(9);
        null.merge_local(&mut local);
        assert_eq!(local, LocalHistogram::default());
    }

    #[test]
    fn observe_n_is_n_observations() {
        let mut one_by_one = LocalHistogram::default();
        let mut at_once = LocalHistogram::default();
        for (v, n) in [(1, 3), (5, 1), (40_000, 2), (7, 0)] {
            for _ in 0..n {
                one_by_one.observe(v);
            }
            at_once.observe_n(v, n);
        }
        assert_eq!(one_by_one, at_once);
    }

    #[test]
    fn handles_share_cells_and_accumulate() {
        let registry = Registry::new();
        let a = registry.counter("core.events_scheduled");
        let b = registry.counter("core.events_scheduled");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g = registry.gauge("campaign.run.seconds");
        g.add(0.25);
        g.add(0.25);
        assert_eq!(g.get(), 0.5);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let registry = Registry::new();
        let _ = registry.gauge("x");
        let _ = registry.counter("x");
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let registry = Registry::new();
        let h = registry.histogram("switch.solve_group.size");
        h.observe(1); // le=1
        h.observe(2); // le=2
        h.observe(3); // le=4
        h.observe(40_000); // +Inf
        let snap = registry.snapshot();
        let hist = &snap.histograms["switch.solve_group.size"];
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 40_006);
        assert_eq!(hist.buckets[0], 1);
        assert_eq!(hist.buckets[1], 1);
        assert_eq!(hist.buckets[2], 1);
        assert_eq!(hist.buckets[BUCKET_BOUNDS.len()], 1);
    }

    #[test]
    fn fork_and_merge_sums_everything() {
        let parent = Registry::new();
        parent.counter("core.detections").add(1);
        let child = parent.fork();
        assert!(child.is_active());
        child.counter("core.detections").add(2);
        child.gauge("par.shard.seconds").add(0.5);
        child.histogram("switch.solve_group.size").observe(4);
        parent.merge(&child);
        let snap = parent.snapshot();
        assert_eq!(snap.counters["core.detections"], 3);
        assert_eq!(snap.gauges["par.shard.seconds"], 0.5);
        assert_eq!(snap.histograms["switch.solve_group.size"].count, 1);
        // Null parents fork null children and ignore merges.
        let null = Registry::null();
        assert!(!null.fork().is_active());
        null.merge(&parent);
        assert!(null.snapshot().is_empty());
    }

    #[test]
    fn prometheus_export_lints_clean() {
        let registry = Registry::new();
        registry.counter("switch.settles").add(42);
        registry.gauge("par.shard.seconds").set(1.25);
        let h = registry.histogram("switch.solve_group.size");
        h.observe(2);
        h.observe(9);
        let text = registry.to_prometheus();
        MetricsSnapshot::lint_prometheus(&text).expect("own export lints clean");
        assert!(text.contains("# TYPE fmossim_switch_settles counter"));
        assert!(text.contains("fmossim_par_shard_seconds 1.25"));
        assert!(text.contains("fmossim_switch_solve_group_size_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fmossim_switch_solve_group_size_sum 11"));
    }

    #[test]
    fn linter_rejects_malformed_documents() {
        let cases = [
            "# TYPE fmossim_x counter\n# TYPE fmossim_x counter\nfmossim_x 1\n",
            "# TYPE fmossim_x wombat\n",
            "fmossim_y 1\n",
            "# TYPE fmossim_x counter\nfmossim_x notanumber\n",
            "# TYPE 9bad counter\n",
        ];
        for text in cases {
            assert!(
                MetricsSnapshot::lint_prometheus(text).is_err(),
                "should reject: {text:?}"
            );
        }
    }

    #[test]
    fn json_export_is_deterministic() {
        let registry = Registry::new();
        registry.counter("b.two").add(2);
        registry.counter("a.one").add(1);
        registry.gauge("g").set(0.5);
        let json = registry.to_json();
        assert_eq!(json, registry.to_json());
        assert!(json.starts_with("{\"counters\":{\"a.one\":1,\"b.two\":2}"));
        assert!(json.contains("\"gauges\":{\"g\":0.5}"));
    }

    #[test]
    fn snapshot_merge_matches_registry_merge() {
        let a = Registry::new();
        a.counter("c").add(1);
        let snap = a.snapshot();
        let b = Registry::new();
        b.merge_snapshot(&snap);
        b.merge_snapshot(&snap);
        assert_eq!(b.snapshot().counters["c"], 2);
    }
}
