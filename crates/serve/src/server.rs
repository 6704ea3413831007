//! The campaign server: a `std::net` accept loop, the HTTP routes,
//! and the per-job coordinator threads gluing the job table, worker
//! pool, and tape cache together.
//!
//! # Endpoints
//!
//! | Method   | Path                     | Purpose |
//! |----------|--------------------------|---------|
//! | `POST`   | `/campaigns`             | Submit a campaign (JSON body, see [`proto`](crate::proto)); `202` with the job id. |
//! | `GET`    | `/campaigns`             | List all jobs (id, name, status, cache outcome). |
//! | `GET`    | `/campaigns/{id}`        | Status document; embeds the v3 report once terminal. |
//! | `GET`    | `/campaigns/{id}/events` | SSE stream of the job's lifecycle + simulation events. |
//! | `DELETE` | `/campaigns/{id}`        | Cooperative cancel. |
//! | `GET`    | `/metrics`               | Prometheus text: server counters merged with every finished job's telemetry. |
//! | `GET`    | `/healthz`               | Liveness probe. |
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
}

impl Default for ServerConfig {
    /// Loopback on a free port, two workers, a 64 MiB tape cache.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_bytes: 64 << 20,
            default_shards: DEFAULT_SHARDS,
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
}

impl Server {
    /// Binds the listener and builds the shared state (pool, job
    /// table, tape cache, metrics registry).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let registry = Registry::new();
        let state = Arc::new(ServerState {
            pool: Arc::new(SharedPool::new(config.workers, &registry)),
            jobs: JobTable::new(),
            cache: TapeCache::new(config.cache_bytes, &registry),
            registry,
            default_shards: config.default_shards.clamp(1, crate::proto::MAX_SHARDS),
        });
        Ok(Server {
            listener: TcpListener::bind(&config.addr)?,
            state,
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
        if let Some(job) = sse_target(state, &req) {
            let _ = stream_events(&job, &mut writer);
            return;
        }
        let mut resp = route(state, &req);
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

fn sse_target(state: &ServerState, req: &Request) -> Option<Arc<Job>> {
    match (req.method.as_str(), segments(&req.target).as_slice()) {
        ("GET", ["campaigns", id, "events"]) => state.jobs.get(parse_job_id(id)?),
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
        // `GET /campaigns/{id}/events` is intercepted before routing;
        // reaching it here means the job id did not resolve.
        ("GET", ["campaigns", _, "events"]) => not_found("no such campaign"),
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

fn lookup(state: &ServerState, id: &str) -> Result<Arc<Job>, Response> {
    parse_job_id(id)
        .and_then(|id| state.jobs.get(id))
        .ok_or_else(|| not_found("no such campaign"))
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
        job.fail(format!("spawn coordinator: {e}"));
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

        // Cache the tape only from complete runs; a cancelled run's
        // tape is fine too (recording happens before simulation), but
        // never overwrite on a hit — `insert` refreshing recency via
        // `get` already happened.
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
            job.finish(report);
        }
        Err(_) => {
            state.registry.counter("serve.jobs.failed").inc();
            job.fail("internal error while running the campaign".into());
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
    use crate::job::JobStatus;
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
            jobs: JobTable::new(),
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

    /// Runs one job on its own coordinator thread, as `submit` does,
    /// and waits at most [`BOUND`] for it to end.
    fn run_bounded(state: &Arc<ServerState>, spec: JobSpec) -> Arc<Job> {
        let job = state.jobs.create(spec.name.clone());
        let (tx, rx) = mpsc::channel();
        let (state, coordinated) = (Arc::clone(state), Arc::clone(&job));
        std::thread::spawn(move || {
            run_job(&state, &coordinated, spec);
            let _ = tx.send(());
        });
        rx.recv_timeout(BOUND)
            .unwrap_or_else(|_| panic!("job hung for {BOUND:?}"));
        job
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
}
