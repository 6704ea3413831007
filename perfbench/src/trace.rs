//! In-memory span recording for the traced run, the self-time
//! table, and the Chrome trace-event export.
//!
//! A span is a named interval on a *track* (one per thread of
//! interest: track 0 is the benchmark's main thread, shard and request
//! lanes get their own). A span's *self time* is its duration minus the
//! part of it covered by its children on the same track; work a span
//! hands to other tracks (shards, request lanes) shows up on those
//! tracks instead, so on any one track the self times add up to the
//! time its root spans cover.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's main-thread track.
pub const MAIN: u32 = 0;

/// One recorded interval, in seconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, seconds since [`Tracer::new`].
    pub start: f64,
    /// End, seconds since [`Tracer::new`] (`NaN` while open).
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Track (thread lane) the span ran on.
    pub track: u32,
    /// Request the span belongs to, when it serves one.
    pub req: Option<u64>,
}

impl Span {
    /// `end - start`.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer started.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The tracer-clock time of `at`.
    #[must_use]
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<usize>,
        track: u32,
        req: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            track,
            req,
        });
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, track: u32) -> usize {
        let now = self.now();
        self.record(name, (now, f64::NAN), parent, track, None)
    }

    /// Closes span `id` now.
    pub fn close(&self, id: usize) {
        let now = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = now;
    }

    /// Runs `f` inside a span on the main track; `f` gets the span's
    /// index to parent its own spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, MAIN);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Every span's self time: its duration minus the union of its
/// same-track children's intervals, clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].track == s.track {
                children[p].push((s.start.max(spans[p].start), s.end.min(spans[p].end)));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Sum of the self times of every span on `track`.
#[must_use]
pub fn track_self_sum(spans: &[Span], track: u32) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.track == track)
        .map(|(_, t)| t)
        .sum()
}

/// One row of the self-time table: all spans of one name on one kind
/// of track (main thread or lanes).
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// True for the main thread's track.
    pub main: bool,
    /// Spans aggregated.
    pub count: usize,
    /// Summed durations.
    pub total: f64,
    /// Summed self times.
    pub self_time: f64,
}

/// Aggregates spans by `(main track?, name)`, main track first, then
/// by descending self time.
#[must_use]
pub fn table(spans: &[Span]) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let main = s.track == MAIN;
        match rows.iter_mut().find(|r| r.name == s.name && r.main == main) {
            Some(r) => {
                r.count += 1;
                r.total += s.duration();
                r.self_time += t;
            }
            None => rows.push(Row {
                name: s.name,
                main,
                count: 1,
                total: s.duration(),
                self_time: t,
            }),
        }
    }
    rows.sort_by(|a, b| {
        b.main
            .cmp(&a.main)
            .then(b.self_time.total_cmp(&a.self_time))
    });
    rows
}

/// Renders the self-time table as text, percentages of `wall`.
#[must_use]
pub fn render_table(rows: &[Row], wall: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<26} {:>7} {:>11} {:>11} {:>7}",
        "track", "span", "count", "total_s", "self_s", "self%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6} {:<26} {:>7} {:>11.6} {:>11.6} {:>6.2}%",
            if r.main { "main" } else { "lanes" },
            r.name,
            r.count,
            r.total,
            r.self_time,
            100.0 * r.self_time / wall
        );
    }
    out
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete (`"X"`) event per span, in microseconds,
/// `tid` = track, with `track_names` as thread-name metadata.
#[must_use]
pub fn chrome_json(spans: &[Span], track_names: &[(u32, String)]) -> String {
    let mut events: Vec<String> = track_names
        .iter()
        .map(|(tid, name)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            )
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let mut args = format!("\"id\":{i}");
        if let Some(p) = s.parent {
            let _ = write!(args, ",\"parent\":{p}");
        }
        if let Some(r) = s.req {
            let _ = write!(args, ",\"req\":{r}");
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.track,
            s.start * 1e6,
            s.duration() * 1e6,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, track: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            track,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_same_track_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None, MAIN),
            span("a", 1.0, 4.0, Some(0), MAIN),
            // Overlaps `a`: the union, not the sum, is subtracted.
            span("b", 3.0, 5.0, Some(0), MAIN),
            // On another track: never subtracted from the parent.
            span("shard", 0.0, 9.0, Some(0), 1),
            span("leaf", 1.5, 2.0, Some(1), MAIN),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 6.0).abs() < 1e-12, "10 - |[1,5]|, got {}", t[0]);
        assert!((t[1] - 2.5).abs() < 1e-12);
        assert!((t[2] - 2.0).abs() < 1e-12);
        assert!((t[3] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn nested_self_times_sum_to_root_durations() {
        let spans = vec![
            span("setup", 0.0, 2.0, None, MAIN),
            span("build", 0.5, 1.5, Some(0), MAIN),
            span("run", 2.0, 9.5, None, MAIN),
            span("pattern", 2.5, 9.0, Some(2), MAIN),
            span("shard", 3.0, 9.0, Some(2), 1),
        ];
        assert!((track_self_sum(&spans, MAIN) - 9.5).abs() < 1e-12);
        assert!((track_self_sum(&spans, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn table_aggregates_by_name_and_track() {
        let spans = vec![
            span("core.pattern", 0.0, 1.0, None, MAIN),
            span("core.pattern", 1.0, 3.0, None, MAIN),
            span("par.shard", 0.0, 2.0, None, 2),
        ];
        let rows = table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].name, rows[0].count, rows[0].main),
            ("core.pattern", 2, true)
        );
        assert!((rows[0].self_time - 3.0).abs() < 1e-12);
        assert!(!rows[1].main);
        assert!(render_table(&rows, 3.0).contains("100.00%"));
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tr = Tracer::new();
        tr.span("outer", None, |id| {
            tr.span("inner", Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let json = chrome_json(&spans, &[(MAIN, "main".into())]);
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"thread_name\""));
    }
}
