//! The job table: one entry per submitted campaign, carrying its
//! lifecycle state, cancel token, rendered status document, and the
//! SSE event backlog.
//!
//! Every job's stream of [`SimEvent`]s is rendered to SSE frames
//! *once* (by the coordinator thread, via [`crate::proto::sse_event`]) and
//! appended to a per-job backlog; any number of `GET
//! /campaigns/{id}/events` readers replay the backlog from the start
//! and then block on the job's condvar for more — a late subscriber
//! sees the identical stream a prompt one did. The backlog is capped
//! at [`MAX_EVENT_FRAMES`] frames ([`Detected`](SimEvent::Detected)
//! events scale with the universe); overflow drops *sim* frames,
//! counts them, and reports the count in the terminal `done` frame.
//! The first drop also appends one synthetic `frames_dropped` frame,
//! so readers see the gap *in-stream* at the point it opens instead
//! of only discovering it from the terminal count. Lifecycle
//! (`status`/`done`/`error`) frames and the gap marker are never
//! dropped.
//!
//! A job's terminal status document — the v3 report included — is
//! rendered once, when the job ends, and the report itself is dropped.
//! The [`JobTable`] keeps a bounded window of finished jobs
//! ([`MAX_FINISHED_JOBS`], [`MAX_FINISHED_BYTES`]).

use crate::proto::sse_event;
use fmossim_campaign::json::{obj, Value};
use fmossim_campaign::{CampaignReport, SimEvent};
use fmossim_telemetry::{Counter, Gauge, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Cap on buffered SSE frames per job (see the module docs).
pub const MAX_EVENT_FRAMES: usize = 8192;

/// Most finished jobs the [`JobTable`] retains.
pub const MAX_FINISHED_JOBS: usize = 32;

/// Most bytes the [`JobTable`] retains over its finished jobs, each
/// job counting its rendered status document plus its SSE backlog
/// text.
pub const MAX_FINISHED_BYTES: usize = 8 << 20;

/// A job's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, coordinator not yet running the campaign.
    Queued,
    /// The campaign is running (or waiting for pool slots).
    Running,
    /// Finished normally; the report is available.
    Done,
    /// Finished early after a cooperative cancel; the partial report
    /// is available.
    Cancelled,
    /// The coordinator failed; `error` says why.
    Failed,
}

impl JobStatus {
    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }

    /// True once the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

/// Formats a job id for the wire (`job-7`).
#[must_use]
pub fn format_job_id(id: u64) -> String {
    format!("job-{id}")
}

/// Parses a wire job id (`job-7` → `7`).
#[must_use]
pub fn parse_job_id(s: &str) -> Option<u64> {
    s.strip_prefix("job-")?.parse().ok()
}

struct JobState {
    status: JobStatus,
    cache_hit: Option<bool>,
    error: Option<String>,
    /// The terminal status document, rendered once when the job ends.
    doc: Option<Arc<str>>,
    frames: Vec<Arc<str>>,
    /// Text bytes of `frames`.
    frame_bytes: usize,
    dropped: usize,
}

impl JobState {
    fn push_frame(&mut self, frame: &str) {
        self.frame_bytes += frame.len();
        self.frames.push(Arc::from(frame));
    }
}

/// One submitted campaign (see the module docs).
///
/// A job ends through [`JobTable::finish`] or [`JobTable::fail`],
/// which render its terminal status document once and enter it into
/// the table's window of finished jobs.
pub struct Job {
    /// Numeric id (`format_job_id` for the wire form).
    pub id: u64,
    /// Display name from the submission.
    pub name: String,
    /// The cooperative cancel token, shared with the running backend.
    pub cancel: Arc<AtomicBool>,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl Job {
    fn new(id: u64, name: String) -> Arc<Job> {
        let job = Arc::new(Job {
            id,
            name,
            cancel: Arc::new(AtomicBool::new(false)),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                cache_hit: None,
                error: None,
                doc: None,
                frames: Vec::new(),
                frame_bytes: 0,
                dropped: 0,
            }),
            cond: Condvar::new(),
        });
        job.push_status_frame(JobStatus::Queued, None);
        job
    }

    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().expect("job state poisoned")
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.lock().status
    }

    /// Whether the run reused a cached tape (`None` until known).
    #[must_use]
    pub fn cache_hit(&self) -> Option<bool> {
        self.lock().cache_hit
    }

    /// Requests a cooperative cancel. The running backend observes the
    /// token at its next work-item boundary; a queued job cancels
    /// before simulating anything.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Marks the job running and records the cache-lookup outcome.
    pub fn set_running(&self, cache_hit: bool) {
        {
            let mut st = self.lock();
            st.status = JobStatus::Running;
            st.cache_hit = Some(cache_hit);
        }
        self.push_status_frame(JobStatus::Running, Some(cache_hit));
    }

    /// Appends one simulation event to the SSE backlog (dropped, and
    /// counted, past [`MAX_EVENT_FRAMES`]). The first drop appends a
    /// synthetic `frames_dropped` marker — cap-exempt, like lifecycle
    /// frames — so the stream shows where the gap opens; the terminal
    /// `done` frame carries the final count.
    pub fn push_event(&self, e: &SimEvent) {
        let (event, data) = sse_event(e);
        let frame = crate::http::sse_frame(event, &data);
        let mut st = self.lock();
        if st.frames.len() >= MAX_EVENT_FRAMES {
            st.dropped += 1;
            if st.dropped == 1 {
                let data = obj([
                    ("cap", Value::Num(MAX_EVENT_FRAMES as f64)),
                    ("id", Value::Str(format_job_id(self.id))),
                ]);
                st.push_frame(&crate::http::sse_frame("frames_dropped", &data.to_string()));
                drop(st);
                self.cond.notify_all();
            }
            return;
        }
        st.push_frame(&frame);
        drop(st);
        self.cond.notify_all();
    }

    /// Ends the job with its report — [`JobStatus::Cancelled`] when
    /// the report says so, [`JobStatus::Done`] otherwise — and returns
    /// its retained bytes.
    fn finish(&self, report: CampaignReport) -> usize {
        let status = if report.cancelled {
            JobStatus::Cancelled
        } else {
            JobStatus::Done
        };
        let (detected, coverage) = (report.detected(), report.coverage());
        let report = report.to_json();
        let st = self.lock();
        let data = obj([
            ("coverage", Value::Num(coverage)),
            ("detected", Value::Num(detected as f64)),
            ("dropped_frames", Value::Num(st.dropped as f64)),
            ("id", Value::Str(format_job_id(self.id))),
            ("status", Value::Str(status.as_str().to_string())),
        ]);
        self.end(st, status, "done", &data.to_string(), &report)
    }

    /// Ends the job as [`JobStatus::Failed`] and returns its retained
    /// bytes.
    fn fail(&self, error: String) -> usize {
        let data = obj([
            ("error", Value::Str(error.clone())),
            ("id", Value::Str(format_job_id(self.id))),
        ]);
        let mut st = self.lock();
        st.error = Some(error);
        self.end(st, JobStatus::Failed, "error", &data.to_string(), "null")
    }

    /// Moves the job to terminal `status` in one critical section —
    /// a reader never sees the status without the terminal frame —
    /// and renders its status document around `report` once. Returns
    /// the retained bytes: the document plus the backlog text.
    fn end(
        &self,
        mut st: MutexGuard<'_, JobState>,
        status: JobStatus,
        event: &str,
        data: &str,
        report: &str,
    ) -> usize {
        st.status = status;
        st.push_frame(&crate::http::sse_frame(event, data));
        let doc: Arc<str> = Arc::from(self.render(&st, report));
        let bytes = doc.len() + st.frame_bytes;
        st.doc = Some(doc);
        drop(st);
        self.cond.notify_all();
        bytes
    }

    /// Lifecycle frames ignore the cap — they are few and load-bearing.
    fn push_status_frame(&self, status: JobStatus, cache_hit: Option<bool>) {
        let mut pairs = vec![
            ("id", Value::Str(format_job_id(self.id))),
            ("status", Value::Str(status.as_str().to_string())),
        ];
        if let Some(hit) = cache_hit {
            pairs.push(("cache_hit", Value::Bool(hit)));
        }
        let frame = crate::http::sse_frame("status", &obj(pairs).to_string());
        self.lock().push_frame(&frame);
        self.cond.notify_all();
    }

    /// Blocks until there are frames past `cursor` or the job is
    /// terminal; returns the new frames and whether the stream is
    /// complete (terminal *and* fully delivered).
    #[must_use]
    pub fn wait_frames(&self, cursor: usize) -> (Vec<Arc<str>>, bool) {
        let mut st = self.lock();
        while st.frames.len() <= cursor && !st.status.is_terminal() {
            st = self.cond.wait(st).expect("job state poisoned");
        }
        let new = st.frames[cursor.min(st.frames.len())..].to_vec();
        let complete = st.status.is_terminal();
        (new, complete)
    }

    /// The status document for `GET /campaigns/{id}`: id, name,
    /// status, cache outcome, error, and — once terminal — the full
    /// v3 report embedded under `"report"`. A terminal job's document
    /// was rendered when it ended.
    #[must_use]
    pub fn status_json(&self) -> String {
        let st = self.lock();
        match &st.doc {
            Some(doc) => {
                let doc = Arc::clone(doc);
                drop(st);
                doc.to_string()
            }
            None => self.render(&st, "null"),
        }
    }

    /// Renders the status document with `report`, JSON text, spliced
    /// in under `"report"`. The keys come out in sorted order, as
    /// [`Value`] writes an object's, so the text is the one the parsed
    /// report would render to.
    fn render(&self, st: &JobState, report: &str) -> String {
        let fields = obj([
            ("cache_hit", st.cache_hit.map_or(Value::Null, Value::Bool)),
            (
                "error",
                st.error
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            ),
            ("id", Value::Str(format_job_id(self.id))),
            ("name", Value::Str(self.name.clone())),
        ])
        .to_string();
        let status = Value::Str(st.status.as_str().to_string()).to_string();
        // `report` and `status` sort after every key of `fields`.
        let fields = fields.strip_suffix('}').expect("an object ends in '}'");
        format!("{fields},\"report\":{report},\"status\":{status}}}")
    }

    /// The one-line summary used by `GET /campaigns` listings.
    #[must_use]
    pub fn summary_json(&self) -> Value {
        let st = self.lock();
        obj([
            ("id", Value::Str(format_job_id(self.id))),
            ("name", Value::Str(self.name.clone())),
            ("status", Value::Str(st.status.as_str().to_string())),
            ("cache_hit", st.cache_hit.map_or(Value::Null, Value::Bool)),
        ])
    }
}

struct Table {
    jobs: BTreeMap<u64, Arc<Job>>,
    /// The next id to issue; every id in `1..next` was issued.
    next: u64,
    /// The retained finished jobs, earliest finished first, with their
    /// retained bytes.
    finished: VecDeque<(u64, usize)>,
    finished_bytes: usize,
}

/// The server's id-ordered registry of jobs.
///
/// Queued and running jobs are always held. Finished jobs are held in
/// a window of at most [`MAX_FINISHED_JOBS`] jobs and
/// [`MAX_FINISHED_BYTES`] retained bytes: when a job ends, the jobs
/// that finished earliest are evicted until both bounds hold (a job
/// whose own bytes exceed the byte bound is evicted as it ends). An
/// SSE reader already attached to an evicted job holds it until its
/// stream ends. The table remembers which ids it issued, so the server
/// can tell an evicted job ([`JobTable::evicted`], `410`) from one
/// that never existed (`404`).
///
/// It publishes the `serve.jobs.evicted` counter and the
/// `serve.jobs.retained` and `serve.jobs.retained_bytes` gauges.
pub struct JobTable {
    table: Mutex<Table>,
    evicted: Counter,
    retained: Gauge,
    retained_bytes: Gauge,
}

impl JobTable {
    /// An empty table publishing its metrics into `registry`; ids
    /// start at `job-1`.
    #[must_use]
    pub fn new(registry: &Registry) -> JobTable {
        JobTable {
            table: Mutex::new(Table {
                jobs: BTreeMap::new(),
                next: 1,
                finished: VecDeque::new(),
                finished_bytes: 0,
            }),
            evicted: registry.counter("serve.jobs.evicted"),
            retained: registry.gauge("serve.jobs.retained"),
            retained_bytes: registry.gauge("serve.jobs.retained_bytes"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("job table poisoned")
    }

    /// Creates and registers a fresh [`JobStatus::Queued`] job.
    pub fn create(&self, name: String) -> Arc<Job> {
        let mut table = self.lock();
        let id = table.next;
        table.next += 1;
        let job = Job::new(id, name);
        table.jobs.insert(id, Arc::clone(&job));
        job
    }

    /// Looks up a held job by numeric id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.lock().jobs.get(&id).cloned()
    }

    /// True iff the table issued `id` and has since evicted its job.
    #[must_use]
    pub fn evicted(&self, id: u64) -> bool {
        let table = self.lock();
        (1..table.next).contains(&id) && !table.jobs.contains_key(&id)
    }

    /// Summaries of every held job, in id order.
    #[must_use]
    pub fn summaries(&self) -> Vec<Value> {
        self.lock()
            .jobs
            .values()
            .map(|j| j.summary_json())
            .collect()
    }

    /// Ends `job` with its report ([`JobStatus::Cancelled`] when the
    /// report says so, [`JobStatus::Done`] otherwise): renders its
    /// status document, drops the report, and enters the job into the
    /// window of finished jobs.
    pub fn finish(&self, job: &Job, report: CampaignReport) {
        let bytes = job.finish(report);
        self.retire(job.id, bytes);
    }

    /// Ends `job` as [`JobStatus::Failed`] and enters it into the
    /// window of finished jobs.
    pub fn fail(&self, job: &Job, error: String) {
        let bytes = job.fail(error);
        self.retire(job.id, bytes);
    }

    /// Adds a job that just ended to the window, then evicts the
    /// earliest-finished jobs until both bounds hold.
    fn retire(&self, id: u64, bytes: usize) {
        let mut table = self.lock();
        table.finished.push_back((id, bytes));
        table.finished_bytes += bytes;
        while table.finished.len() > MAX_FINISHED_JOBS || table.finished_bytes > MAX_FINISHED_BYTES
        {
            let (old, old_bytes) = table.finished.pop_front().expect("a bound is exceeded");
            table.finished_bytes -= old_bytes;
            table.jobs.remove(&old);
            self.evicted.inc();
        }
        self.retained.set(table.finished.len() as f64);
        self.retained_bytes.set(table.finished_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_campaign::json::parse;
    use fmossim_campaign::StopReason;
    use fmossim_core::Detection;
    use fmossim_faults::FaultId;
    use fmossim_netlist::Logic;

    fn report(cancelled: bool) -> CampaignReport {
        let mut r = CampaignReport {
            backend: "served".into(),
            ..CampaignReport::default()
        };
        r.cancelled = cancelled;
        if cancelled {
            r.stop = StopReason::Cancelled;
        }
        r
    }

    #[test]
    fn ids_round_trip_the_wire_form() {
        assert_eq!(format_job_id(7), "job-7");
        assert_eq!(parse_job_id("job-7"), Some(7));
        assert_eq!(parse_job_id("7"), None);
        assert_eq!(parse_job_id("job-x"), None);
    }

    #[test]
    fn lifecycle_frames_bracket_the_stream() {
        let table = JobTable::new(&Registry::null());
        let job = table.create("ram4x4".into());
        assert_eq!(job.status(), JobStatus::Queued);
        job.set_running(true);
        job.push_event(&SimEvent::Span {
            name: "campaign.run",
            seconds: 0.5,
        });
        table.finish(&job, report(false));
        assert_eq!(job.status(), JobStatus::Done);

        let (frames, complete) = job.wait_frames(0);
        assert!(complete);
        let all: String = frames.iter().map(|f| f.as_ref()).collect();
        assert!(
            all.starts_with("event: status\ndata: {\"id\":\"job-1\",\"status\":\"queued\"}\n\n")
        );
        assert!(all.contains("\"status\":\"running\""));
        assert!(all.contains("\"cache_hit\":true"));
        assert!(all.contains("event: span\n"));
        assert!(all.contains("event: done\n"));
        assert!(all.contains("\"dropped_frames\":0"));

        // A later cursor sees only the tail.
        let (tail, complete) = job.wait_frames(frames.len() - 1);
        assert!(complete);
        assert_eq!(tail.len(), 1);
        assert!(tail[0].starts_with("event: done\n"));
    }

    #[test]
    fn backlog_caps_sim_frames_but_never_lifecycle_frames() {
        let table = JobTable::new(&Registry::null());
        let job = table.create("x".into());
        job.set_running(false);
        for i in 0..(MAX_EVENT_FRAMES + 10) {
            job.push_event(&SimEvent::PatternStart {
                pattern: i,
                live: 0,
            });
        }
        table.finish(&job, report(false));
        let (frames, complete) = job.wait_frames(0);
        assert!(complete);
        assert_eq!(
            frames.len(),
            MAX_EVENT_FRAMES + 2,
            "cap plus gap marker plus done frame"
        );
        let done = frames.last().unwrap();
        assert!(done.contains("\"dropped_frames\":12"), "{done}");
    }

    /// The first dropped frame leaves an in-stream `frames_dropped`
    /// marker exactly where the gap opens — once, no matter how many
    /// frames fall into the gap — and a stream that never overflows
    /// carries no marker.
    #[test]
    fn a_gap_marker_frame_flags_the_first_drop() {
        let table = JobTable::new(&Registry::null());
        let job = table.create("x".into());
        job.set_running(false);
        let push = |i: usize| {
            job.push_event(&SimEvent::PatternStart {
                pattern: i,
                live: 0,
            });
        };
        // Fill to the cap exactly: two lifecycle frames are already in
        // the backlog, so MAX - 2 sim events land and none drop.
        for i in 0..(MAX_EVENT_FRAMES - 2) {
            push(i);
        }
        let (frames, _) = job.wait_frames(0);
        assert_eq!(frames.len(), MAX_EVENT_FRAMES);
        assert!(
            !frames
                .iter()
                .any(|f| f.starts_with("event: frames_dropped")),
            "no marker before the first drop"
        );

        // The next event is the first casualty: it is dropped and the
        // marker takes its place in the stream.
        push(MAX_EVENT_FRAMES);
        let (frames, _) = job.wait_frames(MAX_EVENT_FRAMES);
        assert_eq!(frames.len(), 1);
        assert!(
            frames[0].starts_with("event: frames_dropped\n"),
            "{}",
            frames[0]
        );
        assert!(frames[0].contains("\"cap\":8192"), "{}", frames[0]);
        assert!(frames[0].contains("\"id\":\"job-1\""), "{}", frames[0]);

        // Further drops are counted but leave no additional markers.
        for i in 0..5 {
            push(MAX_EVENT_FRAMES + 1 + i);
        }
        table.finish(&job, report(false));
        let (frames, complete) = job.wait_frames(0);
        assert!(complete);
        let markers = frames
            .iter()
            .filter(|f| f.starts_with("event: frames_dropped"))
            .count();
        assert_eq!(markers, 1, "the marker is emitted once");
        assert!(
            frames.last().unwrap().contains("\"dropped_frames\":6"),
            "{}",
            frames.last().unwrap()
        );
    }

    #[test]
    fn status_json_embeds_the_report_once_terminal() {
        let table = JobTable::new(&Registry::null());
        let job = table.create("ram4x4".into());
        let doc = parse(&job.status_json()).unwrap();
        assert!(doc.get("report").unwrap().is_null());
        assert!(doc.get("cache_hit").unwrap().is_null());

        job.set_running(false);
        table.finish(&job, report(true));
        assert_eq!(job.status(), JobStatus::Cancelled);
        let doc = parse(&job.status_json()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        let embedded = doc.get("report").unwrap();
        assert_eq!(
            embedded.get("cancelled").unwrap().as_bool(),
            Some(true),
            "v3 report embedded verbatim"
        );
    }

    #[test]
    fn failed_jobs_carry_the_error() {
        let table = JobTable::new(&Registry::null());
        let job = table.create("x".into());
        table.fail(&job, "boom".into());
        assert_eq!(job.status(), JobStatus::Failed);
        let doc = parse(&job.status_json()).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("boom"));
        let (frames, complete) = job.wait_frames(0);
        assert!(complete);
        assert!(frames.last().unwrap().starts_with("event: error\n"));
    }

    /// A done report of `detections` definite detections.
    fn report_with(detections: usize) -> CampaignReport {
        let mut r = report(false);
        r.run.num_faults = detections;
        r.run.detections = (0..detections)
            .map(|i| Detection {
                fault: FaultId(u32::try_from(i).unwrap()),
                pattern: i % 407,
                phase: i % 3,
                good: Logic::H,
                faulty: Logic::L,
            })
            .collect();
        r
    }

    /// Ids `1..=n`, each held or evicted as `held` says.
    fn assert_held(table: &JobTable, n: u64, held: impl Fn(u64) -> bool) {
        for id in 1..=n {
            assert_eq!(table.get(id).is_some(), held(id), "job-{id}");
            assert_eq!(table.evicted(id), !held(id), "job-{id}");
        }
    }

    /// A flood of finished jobs keeps the newest `MAX_FINISHED_JOBS`
    /// of them, in the order they *finished* (here the reverse of the
    /// id order), and publishes the window's metrics.
    #[test]
    fn a_flood_keeps_the_latest_finished_jobs_within_both_bounds() {
        let registry = Registry::new();
        let table = JobTable::new(&registry);
        let n = MAX_FINISHED_JOBS + 8;
        let jobs: Vec<Arc<Job>> = (0..n).map(|i| table.create(format!("j{i}"))).collect();
        for job in jobs.iter().rev() {
            table.finish(job, report(false));
        }
        // The highest 8 ids finished first, so they went first.
        let kept = MAX_FINISHED_JOBS as u64;
        assert_held(&table, n as u64, |id| id <= kept);
        assert_eq!(table.summaries().len(), MAX_FINISHED_JOBS);
        assert_eq!(registry.counter("serve.jobs.evicted").get(), 8);
        assert_eq!(
            registry.gauge("serve.jobs.retained").get(),
            MAX_FINISHED_JOBS as f64
        );
        let bytes: usize = jobs[..MAX_FINISHED_JOBS]
            .iter()
            .map(|j| {
                let st = j.lock();
                st.doc.as_ref().unwrap().len() + st.frame_bytes
            })
            .sum();
        assert!(bytes <= MAX_FINISHED_BYTES);
        assert_eq!(
            registry.gauge("serve.jobs.retained_bytes").get(),
            bytes as f64
        );
        // An id never issued is not an evicted one.
        assert!(!table.evicted(0));
        assert!(!table.evicted(n as u64 + 1));
    }

    /// Reports of about 1 MiB each hit the byte bound long before the
    /// count bound; a job whose own bytes exceed the bound is evicted
    /// as it ends.
    #[test]
    fn the_byte_bound_evicts_large_reports() {
        let registry = Registry::new();
        let table = JobTable::new(&registry);
        let large = report_with(20_000);
        for i in 0..12 {
            let job = table.create(format!("large{i}"));
            table.finish(&job, large.clone());
        }
        let retained = registry.gauge("serve.jobs.retained").get() as u64;
        assert!((1..12).contains(&retained), "{retained} retained");
        let bytes = registry.gauge("serve.jobs.retained_bytes").get();
        assert!(bytes <= MAX_FINISHED_BYTES as f64, "{bytes} bytes retained");
        assert!(
            bytes > (MAX_FINISHED_BYTES / 2) as f64,
            "{bytes} bytes retained"
        );
        assert_held(&table, 12, |id| id > 12 - retained);
        assert_eq!(registry.counter("serve.jobs.evicted").get(), 12 - retained);

        let huge = table.create("huge".into());
        table.fail(&huge, "x".repeat(MAX_FINISHED_BYTES));
        assert!(table.evicted(huge.id), "over the bound on its own");
        assert_eq!(huge.status(), JobStatus::Failed);
        assert_eq!(registry.gauge("serve.jobs.retained_bytes").get(), 0.0);
    }

    #[test]
    fn queued_and_running_jobs_survive_a_flood() {
        let table = JobTable::new(&Registry::null());
        let queued = table.create("queued".into());
        let running = table.create("running".into());
        running.set_running(false);
        for i in 0..(MAX_FINISHED_JOBS + 8) {
            let job = table.create(format!("flood{i}"));
            table.finish(&job, report(false));
        }
        assert!(table.get(queued.id).is_some());
        assert!(table.get(running.id).is_some());
        assert_eq!(table.summaries().len(), MAX_FINISHED_JOBS + 2);

        // Once it ends, a survivor joins the window like any job.
        table.finish(&running, report(false));
        assert!(table.get(running.id).is_some());
        assert!(table.get(queued.id).is_some());
        assert_eq!(table.summaries().len(), MAX_FINISHED_JOBS + 1);
    }

    /// The document a terminal job renders once, with the report text
    /// spliced in, is byte-identical to rendering the parsed report
    /// inside the status object — for a done, a cancelled and a failed
    /// job.
    #[test]
    fn the_spliced_document_matches_the_parsed_rendering() {
        use fmossim_campaign::Campaign;
        use fmossim_circuits::Ram;
        use fmossim_faults::FaultUniverse;
        use fmossim_testgen::TestSequence;

        let ram = Ram::new(2, 2);
        let done = Campaign::new(ram.network())
            .faults(FaultUniverse::stuck_nodes(ram.network()))
            .patterns(TestSequence::full(&ram).patterns())
            .outputs(ram.observed_outputs())
            .run();
        assert!(done.detected() > 0 && done.collapse.is_some());
        let mut cancelled = done.clone();
        cancelled.cancelled = true;
        cancelled.stop = StopReason::Cancelled;

        let table = JobTable::new(&Registry::null());
        let reference = |job: &Job, expected: Option<&CampaignReport>| {
            let st = job.lock();
            obj([
                ("id", Value::Str(format_job_id(job.id))),
                ("name", Value::Str(job.name.clone())),
                ("status", Value::Str(st.status.as_str().to_string())),
                ("cache_hit", st.cache_hit.map_or(Value::Null, Value::Bool)),
                ("error", st.error.clone().map_or(Value::Null, Value::Str)),
                (
                    "report",
                    expected.map_or(Value::Null, |e| parse(&e.to_json()).unwrap()),
                ),
            ])
            .to_string()
        };
        for expected in [done, cancelled] {
            let job = table.create("ram2x2 \"quoted\"".into());
            job.set_running(true);
            table.finish(&job, expected.clone());
            assert_eq!(job.status_json(), reference(&job, Some(&expected)));
        }
        let failed = table.create("x".into());
        table.fail(&failed, "boom\nline two".into());
        assert_eq!(failed.status_json(), reference(&failed, None));
        // A live document renders the same way.
        let live = table.create("live".into());
        assert_eq!(live.status_json(), reference(&live, None));
    }
}
