//! The campaign server: a `std::net` accept loop, the HTTP routes,
//! and the per-job coordinator threads gluing the job table, worker
//! pool, and tape cache together.
//!
//! # Endpoints
//!
//! | Method   | Path                     | Purpose |
//! |----------|--------------------------|---------|
//! | `POST`   | `/campaigns`             | Submit a campaign (JSON body, see [`proto`](crate::proto)); `202` with the job id. |
//! | `GET`    | `/campaigns`             | List the held jobs (id, name, status, cache outcome). |
//! | `GET`    | `/campaigns/{id}`        | Status document; embeds the v3 report once terminal. |
//! | `GET`    | `/campaigns/{id}/events` | SSE stream of the job's lifecycle + simulation events. |
//! | `DELETE` | `/campaigns/{id}`        | Cooperative cancel. |
//! | `GET`    | `/metrics`               | Prometheus text: server counters merged with every finished job's telemetry. |
//! | `GET`    | `/healthz`               | Liveness probe. |
//!
//! The three `/campaigns/{id}` routes answer `410 Gone` for a job the
//! [`JobTable`] has evicted from its window of finished jobs, and
//! `404` for an id it never issued.
//!
//! # Threading model
//!
//! One OS thread per connection (requests are short except SSE, which
//! parks its thread on the job's condvar), one lightweight
//! *coordinator* thread per job, and exactly `workers` simulation
//! threads in the [`SharedPool`]. Coordinators never occupy pool
//! workers — they record the good tape, enqueue per-shard tasks, and
//! collect results — so total simulation CPU stays bounded no matter
//! how many campaigns are in flight.

use crate::backend::{ServedBackend, TapeSlot};
use crate::cache::TapeCache;
use crate::http::{
    finish_chunked, parse_request, write_chunk, write_event_stream_head, write_response, Request,
    Response,
};
use crate::job::{format_job_id, parse_job_id, Job, JobTable};
use crate::pool::SharedPool;
use crate::proto::{parse_submission, JobSpec, DEFAULT_SHARDS};
use fmossim_campaign::json::{obj, Value};
use fmossim_campaign::Campaign;
use fmossim_telemetry::Registry;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Simulation worker threads in the shared pool.
    pub workers: usize,
    /// Good-tape cache budget in bytes.
    pub cache_bytes: usize,
    /// Shard count for submissions that do not set `shards`.
    pub default_shards: usize,
    /// Read and write timeout of every accepted socket: a client that
    /// stalls mid-request for this long gets a `408` and its
    /// connection closes; an idle keep-alive connection closes
    /// quietly. It bounds each stall, not a request's total time.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    /// Loopback on a free port, two workers, a 64 MiB tape cache,
    /// 30 s socket timeouts.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_bytes: 64 << 20,
            default_shards: DEFAULT_SHARDS,
            io_timeout: Duration::from_secs(30),
        }
    }
}

pub(crate) struct ServerState {
    pool: Arc<SharedPool>,
    jobs: JobTable,
    cache: TapeCache,
    /// Server counters plus every finished job's merged telemetry —
    /// the `/metrics` source of truth.
    registry: Registry,
    default_shards: usize,
}

/// The bound, not-yet-serving campaign server.
///
/// ```no_run
/// use fmossim_serve::{Server, ServerConfig};
///
/// let server = Server::bind(&ServerConfig::default()).unwrap();
/// println!("listening on {}", server.local_addr().unwrap());
/// server.run().unwrap(); // serves forever
/// ```
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    io_timeout: Duration,
}

impl Server {
    /// Binds the listener and builds the shared state (pool, job
    /// table, tape cache, metrics registry).
    ///
    /// # Errors
    ///
    /// Propagates the bind error; rejects a zero `io_timeout`.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        if config.io_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "io_timeout must be positive",
            ));
        }
        let registry = Registry::new();
        let state = Arc::new(ServerState {
            pool: Arc::new(SharedPool::new(config.workers, &registry)),
            jobs: JobTable::new(&registry),
            cache: TapeCache::new(config.cache_bytes, &registry),
            registry,
            default_shards: config.default_shards.clamp(1, crate::proto::MAX_SHARDS),
        });
        Ok(Server {
            listener: TcpListener::bind(&config.addr)?,
            state,
            io_timeout: config.io_timeout,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until the process exits (one thread per
    /// connection).
    ///
    /// # Errors
    ///
    /// Returns only the accept loop's fatal errors; per-connection
    /// errors close that connection.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Both halves of a connection share the socket, and so its
            // timeouts. A socket that refuses them is not served.
            if stream.set_read_timeout(Some(self.io_timeout)).is_err()
                || stream.set_write_timeout(Some(self.io_timeout)).is_err()
            {
                continue;
            }
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match parse_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(req)) => req,
            Err(e) => {
                let _ = write_response(&mut writer, &Response::from_error(&e));
                return;
            }
        };
        // SSE takes over the connection; everything else is
        // request/response with keep-alive.
        let mut resp = match sse_target(&req) {
            Some(id) => match lookup(state, id) {
                Ok(job) => {
                    let _ = stream_events(&job, &mut writer);
                    return;
                }
                Err(resp) => resp,
            },
            None => route(state, &req),
        };
        resp.keep_alive &= req.keep_alive;
        if write_response(&mut writer, &resp).is_err() || !resp.keep_alive {
            return;
        }
    }
}

/// Path segments, query string stripped.
fn segments(target: &str) -> Vec<&str> {
    let path = target.split('?').next().unwrap_or(target);
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// The job id of a `GET /campaigns/{id}/events` request.
fn sse_target(req: &Request) -> Option<&str> {
    match (req.method.as_str(), segments(&req.target).as_slice()) {
        ("GET", ["campaigns", id, "events"]) => Some(id),
        _ => None,
    }
}

fn route(state: &Arc<ServerState>, req: &Request) -> Response {
    let segs = segments(&req.target);
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"ok\":true}".into()),
        ("GET", ["metrics"]) => Response::text(200, state.registry.to_prometheus()),
        ("POST", ["campaigns"]) => submit(state, req),
        ("GET", ["campaigns"]) => {
            let doc = obj([("jobs", Value::Arr(state.jobs.summaries()))]);
            Response::json(200, doc.to_string())
        }
        ("GET", ["campaigns", id]) => match lookup(state, id) {
            Ok(job) => Response::json(200, job.status_json()),
            Err(resp) => resp,
        },
        ("DELETE", ["campaigns", id]) => match lookup(state, id) {
            Ok(job) => {
                job.request_cancel();
                state.registry.counter("serve.jobs.cancel_requests").inc();
                let doc = obj([
                    ("cancelling", Value::Bool(!job.status().is_terminal())),
                    ("id", Value::Str(format_job_id(job.id))),
                    ("status", Value::Str(job.status().as_str().to_string())),
                ]);
                Response::json(200, doc.to_string())
            }
            Err(resp) => resp,
        },
        (_, ["healthz" | "metrics"]) | (_, ["campaigns", ..]) => {
            let mut resp = Response::text(405, "method not allowed\n".into());
            resp.keep_alive = true;
            resp
        }
        _ => not_found("no such resource"),
    }
}

fn not_found(detail: &str) -> Response {
    Response::text(404, format!("{detail}\n"))
}

/// A held job, or `410` for an evicted one and `404` for an id the
/// table never issued.
fn lookup(state: &ServerState, id: &str) -> Result<Arc<Job>, Response> {
    let id = parse_job_id(id).ok_or_else(|| not_found("no such campaign"))?;
    state.jobs.get(id).ok_or_else(|| {
        if state.jobs.evicted(id) {
            Response::text(
                410,
                "campaign evicted from the finished-job window\n".into(),
            )
        } else {
            not_found("no such campaign")
        }
    })
}

fn submit(state: &Arc<ServerState>, req: &Request) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::from_error(&e),
    };
    let spec = match parse_submission(body, state.default_shards) {
        Ok(spec) => spec,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    let job = state.jobs.create(spec.name.clone());
    state.registry.counter("serve.jobs.accepted").inc();
    // One coordinator thread per job: it owns the campaign run end to
    // end, while all simulation happens on the shared pool.
    // (Failure to spawn would leak a forever-Queued job, so fail it.)
    let spawned = {
        let state = Arc::clone(state);
        let job = Arc::clone(&job);
        std::thread::Builder::new()
            .name(format!("serve-coord-{}", job.id))
            .spawn(move || run_job(&state, &job, spec))
    };
    if let Err(e) = spawned {
        state.jobs.fail(&job, format!("spawn coordinator: {e}"));
        state.registry.counter("serve.jobs.failed").inc();
        return Response::text(500, "cannot start job\n".into());
    }
    let doc = obj([
        ("id", Value::Str(format_job_id(job.id))),
        ("status", Value::Str("queued".into())),
    ]);
    Response::json(202, doc.to_string())
}

/// The per-job coordinator: cache lookup, campaign run on the served
/// backend, cache fill, terminal bookkeeping.
fn run_job(state: &Arc<ServerState>, job: &Arc<Job>, spec: JobSpec) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let key = spec.cache_key();
        let cached = state.cache.get(key);
        job.set_running(cached.is_some());

        let spec = Arc::new(spec);
        let slot: TapeSlot = Arc::new(Mutex::new(cached));
        let job_registry = Registry::new();
        let backend = ServedBackend::new(
            Arc::clone(&spec),
            Arc::clone(&state.pool),
            job.id,
            Arc::clone(&job.cancel),
            Arc::clone(&slot),
        );
        let observer_job = Arc::clone(job);
        let mut campaign = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .with_telemetry(&job_registry)
            .on_event(move |e| observer_job.push_event(&e));
        if let Some(target) = spec.stop_at_coverage {
            campaign = campaign.stop_at_coverage(target);
        }
        let report = campaign.run();

        // The slot holds a tape only when the run recorded one (a
        // cancelled run's tape is complete too: recording happens
        // before simulation). A hit leaves it empty, so the recency
        // `get` set stands.
        if let Some(tape) = slot.lock().expect("tape slot poisoned").take() {
            state.cache.insert(key, tape);
        }

        // Fold the job's sim telemetry into the server registry so
        // `/metrics` carries the per-layer counters alongside the
        // `serve.*` ones.
        state.registry.merge(&job_registry);
        report
    }));
    match outcome {
        Ok(report) => {
            let counter = if report.cancelled {
                "serve.jobs.cancelled"
            } else {
                "serve.jobs.completed"
            };
            state.registry.counter(counter).inc();
            state.jobs.finish(job, report);
        }
        Err(_) => {
            state.registry.counter("serve.jobs.failed").inc();
            state
                .jobs
                .fail(job, "internal error while running the campaign".into());
        }
    }
}

/// Streams a job's SSE frames: full backlog replay, then live frames
/// until the job is terminal, then a clean chunked terminator.
fn stream_events(job: &Arc<Job>, w: &mut BufWriter<TcpStream>) -> io::Result<()> {
    write_event_stream_head(w)?;
    let mut cursor = 0usize;
    loop {
        let (frames, complete) = job.wait_frames(cursor);
        for frame in &frames {
            write_chunk(w, frame.as_bytes())?;
        }
        cursor += frames.len();
        w.flush()?;
        if complete && frames.is_empty() {
            break;
        }
        if complete {
            // Terminal: one more pass collects nothing and exits.
            continue;
        }
    }
    finish_chunked(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{request, sse_events};
    use crate::job::{JobStatus, MAX_FINISHED_JOBS};
    use fmossim_campaign::{CampaignReport, SimEvent};
    use fmossim_circuits::Ram;
    use fmossim_faults::{Fault, FaultUniverse};
    use fmossim_netlist::{Logic, NodeId};
    use fmossim_testgen::TestSequence;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const BOUND: Duration = Duration::from_secs(60);

    fn state(workers: usize) -> Arc<ServerState> {
        let registry = Registry::new();
        Arc::new(ServerState {
            pool: Arc::new(SharedPool::new(workers, &registry)),
            jobs: JobTable::new(&registry),
            cache: TapeCache::new(64 << 20, &registry),
            registry,
            default_shards: DEFAULT_SHARDS,
        })
    }

    /// A 4-shard RAM 4x4 job. A `poisoned` universe also holds a fault
    /// on a node the network does not have, which panics the shard
    /// that grades it.
    fn spec(poisoned: bool) -> JobSpec {
        let ram = Ram::new(4, 4);
        let mut faults = FaultUniverse::stuck_nodes(ram.network()).faults().to_vec();
        if poisoned {
            faults.push(Fault::NodeStuck {
                node: NodeId::from_index(1 << 30),
                value: Logic::H,
            });
        }
        JobSpec {
            name: "ram4x4".into(),
            net: ram.network().clone(),
            universe: FaultUniverse::from_faults(faults),
            patterns: TestSequence::full(&ram).patterns().to_vec(),
            outputs: ram.observed_outputs().to_vec(),
            shards: 4,
            stop_at_coverage: None,
        }
    }

    /// Starts one job on its own coordinator thread, as `submit`
    /// does; the receiver hears when it ends.
    fn start_job(state: &Arc<ServerState>, spec: JobSpec) -> (Arc<Job>, mpsc::Receiver<()>) {
        let job = state.jobs.create(spec.name.clone());
        let (tx, rx) = mpsc::channel();
        let (state, coordinated) = (Arc::clone(state), Arc::clone(&job));
        std::thread::spawn(move || {
            run_job(&state, &coordinated, spec);
            let _ = tx.send(());
        });
        (job, rx)
    }

    /// Runs one job as `submit` does and waits at most [`BOUND`] for
    /// it to end.
    fn run_bounded(state: &Arc<ServerState>, spec: JobSpec) -> Arc<Job> {
        let (job, ended) = start_job(state, spec);
        ended
            .recv_timeout(BOUND)
            .unwrap_or_else(|_| panic!("job hung for {BOUND:?}"));
        job
    }

    /// Polls `cond` until it holds, for at most [`BOUND`].
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + BOUND;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// True iff `n` tasks submitted to `pool` run at the same time,
    /// i.e. the pool has at least `n` live workers.
    fn runs_at_once(pool: &SharedPool, n: usize) -> bool {
        let arrived = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            let (arrived, tx) = (Arc::clone(&arrived), tx.clone());
            pool.submit(0, move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let _ = tx.send(arrived.load(Ordering::SeqCst) >= n);
            });
        }
        (0..n).all(|_| rx.recv_timeout(BOUND) == Ok(true))
    }

    /// A shard that panics fails its job instead of completing it with
    /// that shard's faults ungraded (2 workers) or hanging (1 worker),
    /// and the pool keeps every worker: the next job completes.
    #[test]
    fn a_panicking_shard_fails_its_job_and_the_pool_keeps_its_workers() {
        for workers in [1, 2] {
            let state = state(workers);
            let failed = run_bounded(&state, spec(true));
            assert_eq!(failed.status(), JobStatus::Failed, "{workers} worker(s)");
            assert!(
                runs_at_once(&state.pool, workers),
                "{workers} worker(s): the pool lost a worker"
            );
            let next = run_bounded(&state, spec(false));
            assert_eq!(next.status(), JobStatus::Done, "{workers} worker(s)");
            let counters = state.registry.snapshot().counters;
            assert_eq!(counters.get("serve.jobs.failed"), Some(&1));
            assert_eq!(counters.get("serve.jobs.completed"), Some(&1));
        }
    }

    /// A cache hit does not put its tape back: the LRU order is the
    /// one `get` set, even when another job used the cache while the
    /// hit was running.
    #[test]
    fn a_cache_hit_leaves_the_lru_order_as_get_set_it() {
        let state = state(1);
        let key = spec(false).cache_key();
        assert_eq!(run_bounded(&state, spec(false)).cache_hit(), Some(false));
        let other = (1, 1);
        state
            .cache
            .insert(other, state.cache.get(key).expect("recorded"));
        assert_eq!(state.cache.keys(), [key, other]);

        // Hold the only worker so the hit's shards wait in the queue.
        let (release, held) = mpsc::channel::<()>();
        state.pool.submit(0, move || {
            let _ = held.recv_timeout(BOUND);
        });
        let (job, ended) = start_job(&state, spec(false));
        wait_until("the hit to start", || job.status() == JobStatus::Running);
        assert_eq!(job.cache_hit(), Some(true));
        assert_eq!(state.cache.keys(), [other, key], "the hit's get");
        assert!(state.cache.get(other).is_some());
        release.send(()).unwrap();
        ended.recv_timeout(BOUND).expect("the hit ended");
        assert_eq!(job.status(), JobStatus::Done);
        assert_eq!(state.cache.keys(), [key, other], "the later get stands");
    }

    /// Over real sockets: a reader attached to a job's event stream
    /// gets the whole stream though the job is evicted meanwhile; the
    /// evicted id then answers `410` on every job route, and an id
    /// never issued `404`.
    #[test]
    fn evicted_jobs_answer_gone_and_attached_readers_finish() {
        let server = Server::bind(&ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let state = Arc::clone(&server.state);
        std::thread::spawn(move || server.run());

        let job = state.jobs.create("first".into());
        let reader = std::thread::spawn(move || sse_events(addr, "/campaigns/job-1/events"));
        // The table, this test, and the reader's connection hold it.
        wait_until("the reader to attach", || Arc::strong_count(&job) >= 3);
        job.set_running(false);
        job.push_event(&SimEvent::PatternStart {
            pattern: 0,
            live: 1,
        });
        state.jobs.finish(&job, CampaignReport::default());
        for i in 0..MAX_FINISHED_JOBS {
            let flood = state.jobs.create(format!("flood{i}"));
            state.jobs.finish(&flood, CampaignReport::default());
        }
        assert!(state.jobs.evicted(job.id));

        let events = reader.join().unwrap().expect("stream");
        let names: Vec<&str> = events.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(names, ["status", "status", "pattern_start", "done"]);

        let status = |method: &str, path: &str| request(addr, method, path, None).unwrap().status;
        for (method, path) in [
            ("GET", "/campaigns/job-1"),
            ("DELETE", "/campaigns/job-1"),
            ("GET", "/campaigns/job-1/events"),
        ] {
            assert_eq!(status(method, path), 410, "{method} {path}");
            let unissued = path.replace("job-1", "job-99");
            assert_eq!(status(method, &unissued), 404, "{method} {unissued}");
        }
        assert_eq!(status("GET", "/campaigns/job-0"), 404);
        let last = format!("/campaigns/job-{}", MAX_FINISHED_JOBS + 1);
        assert_eq!(status("GET", &last), 200);

        let listing = request(addr, "GET", "/campaigns", None).unwrap();
        let listing = fmossim_campaign::json::parse(listing.body_str().unwrap()).unwrap();
        let listed = listing.get("jobs").and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), MAX_FINISHED_JOBS);
        let metrics = request(addr, "GET", "/metrics", None).unwrap();
        let metrics = metrics.body_str().unwrap();
        assert!(
            metrics.contains("\nfmossim_serve_jobs_evicted 1\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("\nfmossim_serve_jobs_retained 32\n"),
            "{metrics}"
        );
    }
}
