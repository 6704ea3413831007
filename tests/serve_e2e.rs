//! End-to-end tests of the campaign server over real sockets: a
//! served campaign's detection set is bit-identical to the offline
//! runner's, a repeat submission hits the good-tape cache and skips
//! the record pass, concurrent campaigns share one bounded worker
//! pool correctly, `DELETE` cancels cooperatively, and `/metrics`
//! emits lint-clean Prometheus text.

use fmossim::campaign::{
    universe_from_spec, Backend, Campaign, CampaignReport, ConcurrentConfig, Jobs, ParallelConfig,
};
use fmossim::serve::{request, served_config, sse_events, Server, ServerConfig};
use fmossim::telemetry::MetricsSnapshot;
use fmossim::testgen::zoo::build_zoo;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Binds a server on a free port and serves it from a detached
/// thread (the thread lives until the test process exits).
fn start_server(workers: usize) -> SocketAddr {
    let server = Server::bind(&ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    addr
}

/// Submits a zoo circuit and returns the job id.
fn submit(addr: SocketAddr, circuit: &str, shards: usize) -> String {
    let body = format!("{{\"circuit\":\"{circuit}\",\"shards\":{shards}}}");
    let resp = request(addr, "POST", "/campaigns", Some(&body)).expect("POST /campaigns");
    assert_eq!(resp.status, 202, "{}", resp.body_str().unwrap_or("?"));
    let doc = fmossim::campaign::json::parse(resp.body_str().expect("utf8")).expect("json");
    doc.get("id")
        .and_then(fmossim::campaign::json::Value::as_str)
        .expect("id")
        .to_string()
}

/// Polls the status endpoint until the job is terminal, then returns
/// the parsed status document.
fn wait_terminal(addr: SocketAddr, id: &str) -> fmossim::campaign::json::Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = request(addr, "GET", &format!("/campaigns/{id}"), None).expect("GET status");
        assert_eq!(resp.status, 200);
        let doc = fmossim::campaign::json::parse(resp.body_str().expect("utf8")).expect("json");
        let status = doc
            .get("status")
            .and_then(fmossim::campaign::json::Value::as_str)
            .expect("status")
            .to_string();
        if matches!(status.as_str(), "done" | "cancelled" | "failed") {
            return doc;
        }
        assert!(Instant::now() < deadline, "{id} stuck in {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts the embedded v3 report from a terminal status document.
fn report_of(doc: &fmossim::campaign::json::Value) -> CampaignReport {
    let report = doc.get("report").expect("terminal doc embeds the report");
    CampaignReport::from_json(&report.to_string()).expect("report parses")
}

/// The offline reference: the same workload on the offline parallel
/// backend under the server's fixed engine configuration.
fn offline_reference(circuit: &str, shards: usize) -> CampaignReport {
    let zoo = build_zoo(circuit).expect("zoo circuit");
    let universe = universe_from_spec(&zoo.net, "stuck-nodes").expect("universe");
    Campaign::new(&zoo.net)
        .faults(universe)
        .patterns(&zoo.patterns)
        .outputs(&zoo.outputs)
        .backend(Backend::Parallel(ParallelConfig {
            sim: served_config(),
            jobs: Jobs::Fixed(2),
            shards: Some(shards),
        }))
        .run()
}

#[test]
fn served_detections_match_offline_and_repeats_hit_the_tape_cache() {
    let addr = start_server(2);
    let offline = offline_reference("ram4x4", 4);

    // Cold submission: full run including the tape record pass.
    let id = submit(addr, "ram4x4", 4);
    let doc = wait_terminal(addr, &id);
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(doc.get("cache_hit").and_then(|v| v.as_bool()), Some(false));
    let cold = report_of(&doc);
    assert_eq!(
        cold.run.detections, offline.run.detections,
        "served detection set must be bit-identical to the offline campaign"
    );
    assert!(
        cold.tape_record_seconds.unwrap_or(0.0) > 0.0,
        "cold runs record"
    );

    // Warm submissions: same circuit + stimulus → cached tape, no
    // record pass, identical results, every time.
    for repeat in 1..=3 {
        let id = submit(addr, "ram4x4", 4);
        let doc = wait_terminal(addr, &id);
        assert_eq!(
            doc.get("cache_hit").and_then(|v| v.as_bool()),
            Some(true),
            "repeat {repeat}"
        );
        let warm = report_of(&doc);
        assert_eq!(
            warm.run.detections, offline.run.detections,
            "repeat {repeat}: served detections diverged from offline"
        );
        assert_eq!(
            warm.tape_record_seconds,
            Some(0.0),
            "repeat {repeat}: a cache hit skips the good-machine record pass"
        );
    }

    // The cache counters crossed the wire into /metrics.
    let metrics = request(addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().expect("utf8");
    MetricsSnapshot::lint_prometheus(text)
        .unwrap_or_else(|(line, why)| panic!("metrics lint failed at line {line}: {why}"));
    assert!(text.contains("fmossim_serve_cache_hits 3"), "{text}");
    assert!(text.contains("fmossim_serve_cache_misses 1"), "{text}");
}

#[test]
fn concurrent_campaigns_share_a_small_pool_correctly() {
    // 2 workers, 4 campaigns x 4 shards = 16 shard tasks: combined
    // demand far exceeds the pool, so fairness and isolation both
    // matter. Distinct circuits make cross-job mixups visible.
    let addr = start_server(2);
    let circuits = ["ram4x4", "regfile4x4", "adder8", "counter6"];
    let ids: Vec<String> = circuits.iter().map(|c| submit(addr, c, 4)).collect();

    // Consume every job's SSE stream concurrently while they run.
    let streams: Vec<_> = ids
        .iter()
        .map(|id| {
            let path = format!("/campaigns/{id}/events");
            std::thread::spawn(move || sse_events(addr, &path).expect("sse"))
        })
        .collect();
    let events: Vec<Vec<(String, String)>> = streams
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    for ((id, circuit), events) in ids.iter().zip(&circuits).zip(&events) {
        let doc = wait_terminal(addr, id);
        assert_eq!(
            doc.get("status").and_then(|v| v.as_str()),
            Some("done"),
            "{id} ({circuit})"
        );
        let served = report_of(&doc);
        let offline = offline_reference(circuit, 4);
        assert_eq!(
            served.run.detections, offline.run.detections,
            "{circuit} detections diverged under pool contention"
        );
        // Every stream saw the full lifecycle: queued, running, done.
        let names: Vec<&str> = events.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(names.first(), Some(&"status"), "{circuit}");
        assert_eq!(names.last(), Some(&"done"), "{circuit}");
        assert!(
            names.contains(&"shard_done"),
            "{circuit} stream carried no shard progress: {names:?}"
        );
    }
}

#[test]
fn delete_cancels_a_running_campaign() {
    // One worker and many shards keep the job running long enough for
    // the cancel to land at a shard boundary.
    let addr = start_server(1);
    let id = submit(addr, "ram64", 8);
    let resp = request(addr, "DELETE", &format!("/campaigns/{id}"), None).expect("DELETE");
    assert_eq!(resp.status, 200);

    let doc = wait_terminal(addr, &id);
    assert_eq!(
        doc.get("status").and_then(|v| v.as_str()),
        Some("cancelled")
    );
    let report = report_of(&doc);
    assert!(report.cancelled);
    assert_eq!(report.stop, fmossim::campaign::StopReason::Cancelled);

    // Cancelling an unknown job is a clean 404; cancelling a finished
    // job is a no-op that reports the terminal status.
    let missing = request(addr, "DELETE", "/campaigns/job-99", None).expect("DELETE missing");
    assert_eq!(missing.status, 404);
    let again = request(addr, "DELETE", &format!("/campaigns/{id}"), None).expect("DELETE again");
    assert_eq!(again.status, 200);
    let doc = fmossim::campaign::json::parse(again.body_str().expect("utf8")).expect("json");
    assert_eq!(doc.get("cancelling").and_then(|v| v.as_bool()), Some(false));
}

/// Submissions carry `stop_at_coverage`. Every served job runs
/// collapsed (the campaign default), so the target is evaluated over
/// the parent fault universe. The stopped job finishes as `done` (not
/// cancelled) with coverage at or above the target.
#[test]
fn submissions_take_coverage_targets_even_when_collapsed() {
    let addr = start_server(1);
    let body = "{\"circuit\":\"ram4x4\",\"shards\":8,\"stop_at_coverage\":0.25}";
    let resp = request(addr, "POST", "/campaigns", Some(body)).expect("POST /campaigns");
    assert_eq!(resp.status, 202, "{}", resp.body_str().unwrap_or("?"));
    let doc = fmossim::campaign::json::parse(resp.body_str().expect("utf8")).expect("json");
    let id = doc
        .get("id")
        .and_then(fmossim::campaign::json::Value::as_str)
        .expect("id")
        .to_string();
    let doc = wait_terminal(addr, &id);
    assert_eq!(
        doc.get("status").and_then(|v| v.as_str()),
        Some("done"),
        "a coverage stop is not a cancellation"
    );
    let report = report_of(&doc);
    assert_eq!(report.control.collapse, Some(true), "served jobs collapse");
    assert!(report.collapse.is_some(), "class statistics archived");
    assert_eq!(report.stop, fmossim::campaign::StopReason::CoverageReached);
    assert!(!report.cancelled);
    assert!(
        report.coverage() >= 0.25,
        "coverage {} missed the target",
        report.coverage()
    );
    assert_eq!(
        report.control.stop_at_coverage,
        Some(0.25),
        "the target is echoed in the control block"
    );
}

#[test]
fn bad_requests_get_structured_errors() {
    let addr = start_server(1);
    let resp = request(addr, "POST", "/campaigns", Some("{\"circuit\":\"nope\"}"))
        .expect("POST bad circuit");
    assert_eq!(resp.status, 400);
    assert!(resp
        .body_str()
        .expect("utf8")
        .contains("unknown zoo circuit"));

    let resp = request(addr, "GET", "/campaigns/job-42", None).expect("GET missing");
    assert_eq!(resp.status, 404);

    let resp = request(addr, "PATCH", "/campaigns", None).expect("PATCH");
    assert_eq!(resp.status, 405);

    let resp = request(addr, "GET", "/healthz", None).expect("GET healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str().expect("utf8"), "{\"ok\":true}");
}

/// The fixed served engine configuration matches the documented
/// contract: the paper's engine with definite-only detections.
#[test]
fn served_config_is_paper_with_definite_only() {
    let cfg = served_config();
    let paper = ConcurrentConfig::paper();
    assert_eq!(cfg.engine, paper.engine);
    assert_eq!(
        cfg.policy,
        fmossim::concurrent::DetectionPolicy::DefiniteOnly
    );
}

/// A client that sends half a request line and stalls is answered
/// `408` and disconnected once the socket's read timeout passes, so
/// its connection thread exits; the server keeps serving the next
/// client, with every route (and so every shared lock) still working.
#[test]
fn a_stalled_client_times_out_and_the_next_is_served() {
    use std::io::{Read, Write};
    let server = Server::bind(&ServerConfig {
        workers: 1,
        io_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());

    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("client timeout");
    stalled
        .write_all(b"GET /heal")
        .expect("half a request line");
    let t0 = Instant::now();
    let mut answer = String::new();
    stalled
        .read_to_string(&mut answer)
        .expect("the server closes the connection");
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
    assert!(
        t0.elapsed() >= Duration::from_millis(150),
        "{:?}",
        t0.elapsed()
    );

    for path in ["/healthz", "/campaigns", "/metrics"] {
        let resp = request(addr, "GET", path, None).expect(path);
        assert_eq!(resp.status, 200, "{path}");
    }
}
