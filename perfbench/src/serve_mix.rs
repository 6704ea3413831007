//! `serve-mix`: an in-process campaign server on two workers, fed in
//! open loop by one client thread at two fixed rates.
//!
//! Three of every four requests grade the zoo's `ram64`, which hits
//! the good-tape cache after the warm-up request. Every fourth carries
//! an inline `.snl` random netlist (the `RandomNetSpec::wide` shape,
//! a fresh seed drawn from `--seed` per request), which misses the
//! cache and pays parse and record. Requests are sent at fixed
//! intervals whatever the server's state; each is timed from the
//! moment it was due, so a stall also delays every request behind it,
//! and the generator's own lateness is reported.

use crate::stats::{self, SplitMix64};
use crate::trace::{self, Span, Tracer, MAIN};
use crate::{end_to_end, host, Layers, Metric, Outcome, ServePins};
use fmossim_campaign::json::{self, obj, Value};
use fmossim_campaign::{Backend, Campaign, CampaignReport};
use fmossim_core::{Detection, Pattern};
use fmossim_faults::{FaultId, FaultUniverse};
use fmossim_netlist::{write_netlist, Logic};
use fmossim_serve::proto::patterns_to_json;
use fmossim_serve::{request, served_config, sse_events, Server, ServerConfig};
use fmossim_telemetry::prometheus_name;
use fmossim_testgen::{RandomNetSpec, RandomNetlist};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulation workers of the server's shared pool.
pub const WORKERS: usize = 2;
/// Shards per submitted campaign.
pub const SHARDS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// One request in this many carries an inline netlist.
pub const INLINE_EVERY: usize = 4;
/// Random vectors per inline netlist.
pub const INLINE_PATTERNS: usize = 32;
/// How long the run waits for in-flight requests after the last send
/// before counting the rest as failed.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// First track of the request lanes in the trace.
pub const LANE_TRACK: u32 = 100;

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The netlist seed of an inline request; `None` for `ram64`.
    pub inline_seed: Option<u64>,
    /// The `POST /campaigns` body.
    pub body: String,
}

/// An inline request's circuit and stimulus, rebuilt from its seed.
fn inline_parts(seed: u64) -> (RandomNetlist, Vec<Pattern>) {
    let rn = RandomNetlist::generate(RandomNetSpec::wide(seed));
    let patterns = rn.patterns(INLINE_PATTERNS, seed ^ 2);
    (rn, patterns)
}

/// The request stream of `seed`: `n` requests, every
/// [`INLINE_EVERY`]th inline, the rest `ram64`.
#[must_use]
pub fn requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            if i % INLINE_EVERY != INLINE_EVERY - 1 {
                return Request {
                    inline_seed: None,
                    body: format!("{{\"circuit\":\"ram64\",\"shards\":{SHARDS}}}"),
                };
            }
            let s = rng.next_u64();
            let (rn, patterns) = inline_parts(s);
            let net = rn.network();
            let outputs = rn
                .observed_outputs()
                .iter()
                .map(|&o| Value::Str(net.node(o).name.clone()))
                .collect();
            let body = obj([
                ("name", Value::Str(format!("inline-{i}"))),
                ("netlist", Value::Str(write_netlist(net))),
                ("outputs", Value::Arr(outputs)),
                ("patterns", patterns_to_json(net, &patterns)),
                ("shards", Value::Num(SHARDS as f64)),
            ]);
            Request {
                inline_seed: Some(s),
                body: body.to_string(),
            }
        })
        .collect()
}

/// Due times, seconds from the start: `rates[k]` requests per second
/// at fixed intervals during phase `k`, each phase `phase_s` long.
/// Returns `(due, phase)` pairs in send order.
#[must_use]
pub fn schedule(rates: [f64; 2], phase_s: f64) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let n = (rate * phase_s).floor() as usize;
        out.extend((0..n).map(|i| (k as f64 * phase_s + i as f64 / rate, k)));
    }
    out
}

/// The open-loop generator: calls `send(i, due)` for each due time
/// (seconds after `start`) as soon as it is reached, never waiting for
/// earlier requests to finish. Returns how late each send started.
pub fn open_loop(start: Instant, dues: &[f64], mut send: impl FnMut(usize, Instant)) -> Vec<f64> {
    dues.iter()
        .enumerate()
        .map(|(i, &d)| {
            let due = start + Duration::from_secs_f64(d);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due).as_secs_f64();
            send(i, due);
            late
        })
        .collect()
}

/// Submits a campaign; returns its job id.
fn submit(addr: SocketAddr, body: &str) -> Result<String, String> {
    let resp = request(addr, "POST", "/campaigns", Some(body)).map_err(|e| e.to_string())?;
    if resp.status != 202 {
        return Err(format!("POST /campaigns answered {}", resp.status));
    }
    let doc = json::parse(resp.body_str().map_err(|e| e.to_string())?)?;
    doc.get("id")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "no job id".into())
}

/// Timestamps of one request's life after its submission.
struct Finish {
    /// The SSE stream ended: the job is terminal.
    waited: Instant,
    /// The status document (with the report) was fetched.
    fetched: Instant,
    /// The process's CPU seconds at `fetched`.
    cpu_fetched: f64,
    /// The status document.
    doc: String,
}

/// Waits for job `id` on its event stream, then fetches its status
/// document.
fn await_job(addr: SocketAddr, id: &str) -> Result<Finish, String> {
    sse_events(addr, &format!("/campaigns/{id}/events")).map_err(|e| e.to_string())?;
    let waited = Instant::now();
    let resp =
        request(addr, "GET", &format!("/campaigns/{id}"), None).map_err(|e| e.to_string())?;
    let fetched = Instant::now();
    let cpu_fetched = host::cpu_seconds();
    if resp.status != 200 {
        return Err(format!("GET /campaigns/{id} answered {}", resp.status));
    }
    Ok(Finish {
        waited,
        fetched,
        cpu_fetched,
        doc: resp.body_str().map_err(|e| e.to_string())?.to_string(),
    })
}

/// What the checks need from a served report.
struct Served {
    detections: Vec<Detection>,
    num_faults: usize,
    /// The embedded report document.
    report: Value,
}

/// The fingerprint of detections over an unpermuted universe.
fn fingerprint(detections: &[Detection], num_faults: usize) -> (usize, u64) {
    let canon: Vec<u32> = (0..u32::try_from(num_faults).expect("fits u32")).collect();
    stats::fingerprint(detections, &canon)
}

impl Served {
    fn fingerprint(&self) -> (usize, u64) {
        fingerprint(&self.detections, self.num_faults)
    }
}

/// Reads the report of a terminal status document, if the job is
/// done. Parses the document once and takes the detections from it:
/// the full [`CampaignReport::from_json`] would parse the report a
/// second time.
fn served(doc: &str) -> Result<Served, String> {
    let v = json::parse(doc)?;
    let status = v.get("status").and_then(Value::as_str).unwrap_or("?");
    if status != "done" {
        return Err(format!("job ended {status}"));
    }
    let Value::Obj(mut top) = v else {
        return Err("status document is not an object".into());
    };
    let report = top.remove("report").ok_or("no report")?;
    let run = report.get("run").ok_or("no run")?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_usize).ok_or(format!("bad {k}"));
    let logic = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .and_then(|s| s.chars().next())
            .and_then(Logic::from_char)
            .ok_or(format!("bad {k}"))
    };
    let detections = run
        .get("detections")
        .and_then(Value::as_arr)
        .ok_or("bad detections")?
        .iter()
        .map(|d| {
            Ok(Detection {
                fault: FaultId(u32::try_from(num(d, "fault")?).map_err(|e| e.to_string())?),
                pattern: num(d, "pattern")?,
                phase: num(d, "phase")?,
                good: logic(d, "good")?,
                faulty: logic(d, "faulty")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Served {
        detections,
        num_faults: num(run, "num_faults")?,
        report,
    })
}

/// True iff a status document says the job is done.
fn is_done(doc: &str) -> bool {
    doc.contains("\"status\":\"done\"")
}

/// The raw text of a status document's detection list.
fn detections_text(doc: &str) -> Option<&str> {
    let key = "\"detections\":[";
    let start = doc.find(key)? + key.len();
    let len = doc[start..].find(']')?;
    Some(&doc[start..start + len])
}

/// The number following the first `key` in `doc`.
fn number_after(doc: &str, key: &str) -> Option<f64> {
    let rest = &doc[doc.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Binds a server on [`WORKERS`] workers, starts its accept loop, and
/// grades one `ram64` campaign on it so the tape cache is warm. Returns
/// the address and whether the warm-up result matched its pin. The
/// accept loop serves until the process exits.
fn start_server(pins: &ServePins) -> Result<(SocketAddr, bool), String> {
    let server = Server::bind(&ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    let id = submit(
        addr,
        &format!("{{\"circuit\":\"ram64\",\"shards\":{SHARDS}}}"),
    )?;
    let warm = served(&await_job(addr, &id)?.doc)?;
    Ok((
        addr,
        pins.ram64.check("serve-mix warm-up", warm.fingerprint()),
    ))
}

/// Reports whose JSON round trip the traced run times.
const ROUND_TRIPS: usize = 3;

/// One request's record.
struct Sent {
    phase: usize,
    due: Instant,
    sent: Instant,
    /// The process's CPU seconds at `sent`.
    cpu_sent: f64,
    submitted: Instant,
    lane: u32,
    finish: Result<Finish, String>,
}

/// Smallest-free-index lanes, so concurrent requests draw on separate
/// trace tracks without one track per request.
#[derive(Default)]
struct Lanes(Mutex<Vec<bool>>);

impl Lanes {
    fn take(&self) -> u32 {
        let mut busy = self.0.lock().expect("lanes poisoned");
        let k = busy.iter().position(|b| !b).unwrap_or(busy.len());
        if k == busy.len() {
            busy.push(true);
        } else {
            busy[k] = true;
        }
        u32::try_from(k).expect("lane fits u32")
    }

    fn release(&self, k: u32) {
        self.0.lock().expect("lanes poisoned")[k as usize] = false;
    }
}

/// Reads the metric `name` (a registry name such as
/// `serve.cache.hits`) from Prometheus text; `None` when the text does
/// not carry it.
fn prom(text: &str, name: &str) -> Option<f64> {
    let name = prometheus_name(name);
    text.lines()
        .find_map(|l| l.strip_prefix(name.as_str())?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Like [`prom`], but a missing metric is an error.
fn prom_req(text: &str, name: &str) -> Result<f64, String> {
    prom(text, name).ok_or_else(|| format!("/metrics carries no {name}"))
}

/// Runs `serve-mix` for `seconds` (half at each pinned rate); with
/// `traced`, also samples the pool depth and returns spans and the
/// per-layer metrics instead of the end-to-end ones.
///
/// # Errors
///
/// Fails when the server cannot be set up, or, traced, when its
/// `/metrics` lacks a metric the run reads.
pub fn run(seed: u64, seconds: f64, pins: &ServePins, traced: bool) -> Result<Outcome, String> {
    let tr = Tracer::new();
    let phase_s = seconds / 2.0;
    let plan = schedule([pins.rate_r1, pins.rate_r2], phase_s);

    // Set-up: generate the request stream, bind, warm the cache.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    let mut reqs = Vec::new();
    let mut warm_failed = 0;
    let mut layer = Layers::default();
    let setup_span = tr.open("setup", None, MAIN);
    for _ in 0..SETUP_REPS {
        let t0 = tr.now();
        reqs = tr.span("serve.requests", Some(setup_span), |_| {
            requests(seed, plan.len())
        });
        layer.push("testgen.build_s", tr.now() - t0);
        let (addr, warm_ok) = tr.span("serve.start", Some(setup_span), |_| start_server(pins))?;
        setups.push(tr.now() - t0);
        warm_failed += usize::from(!warm_ok);
        live = Some(addr);
    }
    let addr = live.expect("at least one set-up");
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = traced.then(|| {
        let stop = Arc::clone(&stop_sampler);
        std::thread::spawn(move || -> Result<f64, String> {
            let mut depth_max: f64 = 0.0;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(text) = request(addr, "GET", "/metrics", None)
                    .and_then(|r| r.body_str().map(str::to_string))
                {
                    depth_max = depth_max.max(prom_req(&text, "serve.pool.depth")?);
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            Ok(depth_max)
        })
    });
    tr.close(setup_span);

    // Measurement: the open loop over both phases, then the drain.
    let lanes = Arc::new(Lanes::default());
    let (tx, rx) = mpsc::channel::<(usize, Sent)>();
    let mut waiters = Vec::with_capacity(plan.len());
    let dues: Vec<f64> = plan.iter().map(|&(d, _)| d).collect();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut refused = 0usize;
    // The phase now being generated and its span.
    let mut current = (0, tr.open("serve.phase.r1", None, MAIN));
    let lateness = open_loop(start, &dues, |i, due| {
        if plan[i].1 != current.0 {
            tr.close(current.1);
            current = (plan[i].1, tr.open("serve.phase.r2", None, MAIN));
        }
        let sent = Instant::now();
        let cpu_sent = host::cpu_seconds();
        let id = tr.span("serve.submit", Some(current.1), |_| {
            submit(addr, &reqs[i].body)
        });
        let submitted = Instant::now();
        let id = match id {
            Ok(id) => id,
            Err(e) => {
                eprintln!("perfbench: request {i} refused: {e}");
                refused += 1;
                return;
            }
        };
        let (tx, lanes) = (tx.clone(), Arc::clone(&lanes));
        let phase = plan[i].1;
        waiters.push(std::thread::spawn(move || {
            let lane = lanes.take();
            let finish = await_job(addr, &id);
            lanes.release(lane);
            let _ = tx.send((
                i,
                Sent {
                    phase,
                    due,
                    sent,
                    cpu_sent,
                    submitted,
                    lane,
                    finish,
                },
            ));
        }));
    });
    tr.close(current.1);
    drop(tx);
    let drain_span = tr.open("serve.drain", None, MAIN);
    let deadline = Instant::now() + DRAIN_LIMIT;
    let mut sent: Vec<(usize, Sent)> = Vec::with_capacity(plan.len());
    while sent.len() + refused < plan.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(s) => sent.push(s),
            Err(_) => break,
        }
    }
    let cpu = host::cpu_seconds() - cpu0;
    tr.close(drain_span);
    let timed_out = plan.len() - refused - sent.len();
    let depth_max = tr.span("serve.join", None, |_| {
        if timed_out == 0 {
            for w in waiters {
                let _ = w.join();
            }
        }
        stop_sampler.store(true, Ordering::Relaxed);
        sampler
            .map(|h| h.join().unwrap_or_else(|_| Err("sampler panicked".into())))
            .transpose()
    })?;
    sent.sort_by_key(|&(i, _)| i);

    // Verification (untimed): every report against its reference.
    let verify_span = tr.open("verify", None, MAIN);
    let mut failed = warm_failed + refused + timed_out;
    let mut latency: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Latency and process CPU (send to fetch) of each completed `ram64`
    // request.
    let mut cached: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut slo_miss = refused + timed_out;
    let mut reports_ok = 0usize;
    let mut checked_round_trips = 0usize;
    // A fully parsed ram64 detection list that matched the pin. The
    // server writes keys in sorted order, so a later ram64 report with
    // byte-identical list text has the same detections; only reports
    // that differ pay the (slow) full parse.
    let mut ram64_known: Option<String> = None;
    let parse = |i: usize, doc: &str| {
        served(doc)
            .map_err(|e| eprintln!("perfbench: request {i}: {e}"))
            .ok()
    };
    for (i, s) in &sent {
        let ok = s.finish.as_ref().is_ok_and(|f| match reqs[*i].inline_seed {
            None => {
                let text = detections_text(&f.doc);
                if text.is_some() && text == ram64_known.as_deref() && is_done(&f.doc) {
                    return true;
                }
                let ok = parse(*i, &f.doc).is_some_and(|r| {
                    pins.ram64
                        .check(&format!("request {i} (ram64)"), r.fingerprint())
                });
                if ok {
                    ram64_known = text.map(str::to_string);
                }
                ok
            }
            Some(seed) => parse(*i, &f.doc).is_some_and(|r| {
                let (rn, patterns) = inline_parts(seed);
                let reference = Campaign::new(rn.network())
                    .faults(FaultUniverse::stuck_nodes(rn.network()))
                    .patterns(&patterns)
                    .outputs(rn.observed_outputs())
                    .backend(Backend::Concurrent(served_config()))
                    .run();
                let want = fingerprint(reference.detections(), reference.run.num_faults);
                if r.fingerprint() != want {
                    eprintln!(
                        "perfbench: request {i} (inline) diverged from its offline reference"
                    );
                }
                r.fingerprint() == want
            }),
        });
        if let Err(e) = &s.finish {
            eprintln!("perfbench: request {i}: {e}");
        }
        if let (true, Ok(f)) = (traced && checked_round_trips < ROUND_TRIPS, &s.finish) {
            checked_round_trips += 1;
            let t0 = Instant::now();
            let round_trip = served(&f.doc).and_then(|r| {
                let text = r.report.to_string();
                let back = CampaignReport::from_json(&text)?.to_json();
                Ok((text.len(), back == text))
            });
            layer.push("campaign.report_json_s", t0.elapsed().as_secs_f64());
            if let Ok((bytes, _)) = round_trip {
                layer.push("campaign.report_bytes", bytes as f64);
            }
            if !matches!(round_trip, Ok((_, true))) {
                eprintln!("perfbench: request {i}: report JSON does not round-trip");
                failed += 1;
            }
        }
        let Ok(f) = &s.finish else {
            failed += 1;
            slo_miss += 1;
            continue;
        };
        let lat = f.fetched.duration_since(s.due).as_secs_f64();
        latency[s.phase].push(lat);
        if reqs[*i].inline_seed.is_none() {
            cached.0.push(lat);
            cached.1.push(f.cpu_fetched - s.cpu_sent);
        }
        if !ok {
            failed += 1;
        }
        if !ok || lat > pins.slo_s {
            slo_miss += 1;
        }
        if let (true, Some(wall)) = (ok, number_after(&f.doc, "\"wall_seconds\":")) {
            reports_ok += 1;
            layer.push(
                "serve.submit_s",
                s.submitted.duration_since(s.sent).as_secs_f64(),
            );
            let wait = f.waited.duration_since(s.submitted).as_secs_f64();
            layer.push("serve.queue_s", wait - wall);
            layer.push("serve.campaign_s", wall);
            layer.push(
                "serve.fetch_s",
                f.fetched.duration_since(f.waited).as_secs_f64(),
            );
            // A cache miss pays the good circuit's record pass; its
            // report carries the pass's time and group count (a hit
            // reports 0 s).
            let record = number_after(&f.doc, "\"tape_record_seconds\":").unwrap_or(0.0);
            let groups = number_after(&f.doc, "\"tape_groups\":").unwrap_or(0.0);
            if record > 0.0 && groups > 0.0 {
                layer.push("switch.good_s", record);
                layer.push("switch.good_groups", groups);
                layer.push("switch.ns_per_group", record * 1e9 / groups);
            }
        }
    }
    tr.close(verify_span);

    // The warm-up requests are graded and checked too.
    let attempted = SETUP_REPS + plan.len();
    let completed = latency[0].len() + latency[1].len();
    // The fastest cached `ram64` request of either rate is one that
    // found the server idle: a served campaign without queueing (see
    // `stats::min`).
    let grade = stats::min(&cached.0).ok_or("no ram64 request completed")?;
    let late_max = lateness.iter().copied().fold(0.0, f64::max);
    let mut out = Outcome {
        attempted,
        failed,
        workers: WORKERS,
        shards: SHARDS,
        ..Outcome::default()
    };
    let fmt_tail = |v: &[f64]| {
        stats::tail(v).map_or((0.0, format!("n={} (< 11 samples)", v.len())), |t| {
            (
                t.value,
                format!("p{:.1}, n={}, {} beyond", 100.0 * t.quantile, t.n, t.beyond),
            )
        })
    };
    for (k, label) in ["r1", "r2"].iter().enumerate() {
        let rate = [pins.rate_r1, pins.rate_r2][k];
        let v = &latency[k];
        out.extra.push(Metric {
            name: format!("lat_p50_s.{label}"),
            value: stats::median(v).unwrap_or(0.0),
            unit: "s",
            note: format!("{rate:.3} req/s, n={}", v.len()),
        });
        let (value, note) = fmt_tail(v);
        out.extra.push(Metric {
            name: format!("lat_tail_s.{label}"),
            value,
            unit: "s",
            note,
        });
    }
    out.extra.push(Metric {
        name: "slo_miss_frac".into(),
        value: slo_miss as f64 / plan.len() as f64,
        unit: "fraction",
        note: format!(
            "{slo_miss} of {} failed or over {} s",
            plan.len(),
            pins.slo_s
        ),
    });
    out.extra.push(Metric {
        name: "failed_frac".into(),
        value: out.failed_frac(),
        unit: "fraction",
        note: format!("{failed} of {attempted} requests, warm-ups included"),
    });
    out.extra.push(Metric {
        name: "cpu_per_request_s".into(),
        value: cpu / completed.max(1) as f64,
        unit: "s",
        note: format!("process CPU over the measurement / {completed} completed requests"),
    });
    out.extra.push(Metric {
        name: "gen_late_max_s".into(),
        value: late_max,
        unit: "s",
        note: format!("median {:.6} s", stats::median(&lateness).unwrap_or(0.0)),
    });

    if !traced {
        out.metrics = end_to_end([
            (
                grade,
                format!(
                    "fastest latency of {} completed ram64 requests",
                    cached.0.len()
                ),
            ),
            (
                stats::min(&cached.1).expect("a completed ram64 request"),
                format!(
                    "fastest process CPU, send to fetch, of {} completed ram64 requests",
                    cached.1.len()
                ),
            ),
            (
                stats::median(&setups).expect("one set-up"),
                format!("median of {SETUP_REPS} set-ups"),
            ),
        ]);
        return Ok(out);
    }

    // Traced: the server's counters, totals over every job it ran.
    let text = tr.span("serve.metrics", None, |_| {
        request(addr, "GET", "/metrics", None)
            .map_err(|e| e.to_string())
            .and_then(|r| r.body_str().map(str::to_string).map_err(|e| e.to_string()))
    })?;
    let hits = prom_req(&text, "serve.cache.hits")?;
    let misses = prom_req(&text, "serve.cache.misses")?;
    out.extra.push(Metric {
        name: "cache_lookups".into(),
        value: hits + misses,
        unit: "count",
        note: format!("{hits} hits, {misses} misses, {reports_ok} verified reports"),
    });
    layer.push("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    layer.push("serve.pool_depth_max", depth_max.unwrap_or(0.0));
    layer.push("serve.gen_late_s", late_max);
    for (metric, name) in [
        ("core.faulty_groups", "core.faulty.groups"),
        ("core.circuit_settles", "core.circuit.settles"),
        ("core.events_scheduled", "core.events_scheduled"),
    ] {
        layer.total(metric, prom_req(&text, name)?);
    }
    layer.fastest("trace.grade_s", &cached.0);

    // The request lanes, rebuilt from each waiter's timestamps.
    let at = |t: Instant| tr.at(t);
    let mut lanes_used = 0;
    for (i, s) in &sent {
        let Ok(f) = &s.finish else { continue };
        let track = LANE_TRACK + s.lane;
        lanes_used = lanes_used.max(s.lane + 1);
        let req = Some(*i as u64);
        let p = tr.record(
            "serve.await",
            (at(s.submitted), at(f.fetched)),
            None,
            track,
            req,
        );
        tr.record(
            "serve.wait",
            (at(s.submitted), at(f.waited)),
            Some(p),
            track,
            req,
        );
        tr.record(
            "serve.fetch",
            (at(f.waited), at(f.fetched)),
            Some(p),
            track,
            req,
        );
    }
    let wall = tr.now();
    let spans: Vec<Span> = tr.spans();
    layer.push("trace.wall_s", wall);
    layer.push(
        "trace.self_sum_frac",
        trace::track_self_sum(&spans, MAIN) / wall,
    );
    out.metrics = layer.metrics();
    let mut tracks = vec![(MAIN, "main (set-up, generator)".to_string())];
    tracks.extend((0..lanes_used).map(|k| (LANE_TRACK + k, format!("request lane {k}"))));
    out.trace = Some((spans, tracks));
    Ok(out)
}

/// Closed-loop capacity probe: `clients` threads each submit the
/// request mix back to back for `seconds`; returns completed requests
/// per second. Used to choose the two frozen rates in `pins.json`.
///
/// # Errors
///
/// Fails when the server cannot be set up.
pub fn capacity(seed: u64, seconds: f64, clients: usize, pins: &ServePins) -> Result<f64, String> {
    let reqs = Arc::new(requests(seed, 64));
    let (addr, _) = start_server(pins)?;
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let reqs = Arc::clone(&reqs);
            std::thread::spawn(move || {
                let mut done = 0usize;
                let mut k = c;
                while start.elapsed() < limit {
                    let ok = submit(addr, &reqs[k % reqs.len()].body)
                        .and_then(|id| await_job(addr, &id))
                        .is_ok();
                    done += usize::from(ok);
                    k += clients;
                }
                done
            })
        })
        .collect();
    let done: usize = handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    Ok(done as f64 / start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_by_rate() {
        let s = schedule([2.0, 4.0], 1.5);
        assert_eq!(s.len(), 3 + 6);
        assert_eq!(s[..3], [(0.0, 0), (0.5, 0), (1.0, 0)]);
        assert_eq!(s[3], (1.5, 1));
        assert!((s[4].0 - 1.75).abs() < 1e-12);
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        // Four requests 10 ms apart; the first send stalls 35 ms, so
        // the next three start late, and a latency measured from the
        // due time carries that stall.
        let dues = [0.0, 0.010, 0.020, 0.030];
        let start = Instant::now();
        let mut from_due = Vec::new();
        let late = open_loop(start, &dues, |i, due| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(35));
            }
            from_due.push(Instant::now().duration_since(due).as_secs_f64());
        });
        assert_eq!(late.len(), 4);
        assert!(late[0] < 0.005, "the first send is on time: {late:?}");
        assert!(
            late[1] >= 0.020 && late[2] >= 0.010 && late[3] >= 0.0,
            "{late:?}"
        );
        assert!(
            late[1] > late[2] && late[2] > late[3],
            "lateness decays: {late:?}"
        );
        assert!(
            from_due[0] >= 0.035,
            "the stalled request is timed from due"
        );
        for (l, d) in late.iter().zip(&from_due).skip(1) {
            assert!(d >= l, "latency from due includes the send's lateness");
        }
    }

    #[test]
    fn open_loop_sends_on_schedule_when_idle() {
        let dues = [0.0, 0.005, 0.010];
        let start = Instant::now();
        let mut at = Vec::new();
        let late = open_loop(start, &dues, |_, _| at.push(start.elapsed().as_secs_f64()));
        for (t, d) in at.iter().zip(dues) {
            assert!(*t >= d, "never early");
        }
        assert!(late.iter().all(|&l| l < 0.005), "{late:?}");
    }

    #[test]
    fn request_mix_is_seeded() {
        let a = requests(5, 8);
        let b = requests(5, 8);
        let inline: Vec<usize> = (0..8).filter(|&i| a[i].inline_seed.is_some()).collect();
        assert_eq!(inline, [3, 7]);
        assert_eq!(a[3].body, b[3].body);
        assert_ne!(a[3].body, requests(6, 8)[3].body);
        assert_ne!(
            a[3].body, a[7].body,
            "each inline request is a fresh netlist"
        );
        assert!(a[0].body.contains("ram64"));
    }

    #[test]
    fn lanes_reuse_the_smallest_free_index() {
        let l = Lanes::default();
        assert_eq!((l.take(), l.take(), l.take()), (0, 1, 2));
        l.release(1);
        assert_eq!(l.take(), 1);
    }

    #[test]
    fn prometheus_values_are_read_by_exact_name() {
        let text = "# TYPE fmossim_a_b counter\nfmossim_a_b 3\nfmossim_a_bc 9\n";
        assert_eq!(prom(text, "a.b"), Some(3.0));
        assert_eq!(prom(text, "a.bc"), Some(9.0));
        assert_eq!(prom(text, "a.b.c"), None, "a missing metric is not 0");
        assert!(prom_req(text, "zz").is_err());
    }
}
