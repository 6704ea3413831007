//! Workload-level checks: the pinned fingerprint agrees with another
//! backend, smoke-sized runs catch a wrong pin, traced runs account for
//! their wall time, and the binary prints the result line.

use fmossim_campaign::{Backend, ConcurrentConfig};
use fmossim_perfbench::batch::{self, Scale};
use fmossim_perfbench::trace::{self, MAIN};
use fmossim_perfbench::{parse_pins, serve_mix, stats, Outcome, Pin, PINS_JSON};
use std::process::Command;

/// The fingerprint of the batch workload at `scale` graded on `backend`.
fn reference(scale: Scale, seed: u64, backend: Backend) -> Pin {
    let inputs = batch::inputs(scale, seed);
    let report = batch::campaign(&inputs).backend(backend).run();
    let (detected, fnv1a) = stats::fingerprint(&report.run.detections, &inputs.canon);
    Pin { detected, fnv1a }
}

fn wrong(pin: Pin) -> Pin {
    Pin {
        fnv1a: pin.fnv1a ^ 1,
        ..pin
    }
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// Top-level self times on the main track add up to the traced wall
/// time within 5%.
fn assert_self_times_cover_wall(out: &Outcome) {
    let (spans, _) = out.trace.as_ref().expect("traced run keeps its spans");
    let wall = metric(out, "trace.wall_s");
    let sum = trace::track_self_sum(spans, MAIN);
    assert!(
        (sum / wall - 1.0).abs() < 0.05,
        "self times sum to {sum} s of {wall} s"
    );
}

#[test]
fn rand4k_pin_equals_a_one_thread_concurrent_run() {
    let pins = parse_pins(PINS_JSON).unwrap();
    let one = reference(
        Scale::Full,
        12,
        Backend::Concurrent(ConcurrentConfig::paper()),
    );
    assert_eq!(one, pins.rand4k);
}

#[test]
fn smoke_batch_runs_check_every_campaign() {
    // Pinned from seed 1's order; checked under seed 2's.
    let pin = reference(Scale::Smoke, 1, batch::backend());
    let ok = batch::run(Scale::Smoke, 2, 0.0, &pin);
    assert!(ok.attempted >= 2 && ok.failed == 0, "{ok:?}");
    assert!(metric(&ok, "grade_s") > 0.0 && metric(&ok, "setup_s") > 0.0);
    let bad = batch::run(Scale::Smoke, 2, 0.0, &wrong(pin));
    assert_eq!(
        bad.failed, bad.attempted,
        "a wrong pin fails every campaign"
    );
}

#[test]
fn smoke_traced_run_accounts_for_wall_time() {
    let pin = reference(Scale::Smoke, 1, batch::backend());
    let out = batch::run_traced(Scale::Smoke, 3, 0.0, &pin);
    assert_eq!(out.failed, 0, "{:?}", out.extra);
    assert_self_times_cover_wall(&out);
    for name in [
        "switch.good_s",
        "core.run_s",
        "tape.replay_s",
        "par.wall_s",
        "campaign.self_s",
    ] {
        assert!(metric(&out, name) > 0.0, "{name}");
    }
    assert_eq!(metric(&out, "serve.submit_s"), 0.0, "no serve layer here");
    let (spans, tracks) = out.trace.as_ref().unwrap();
    let shard_tracks = tracks.iter().filter(|(t, _)| *t != MAIN).count();
    assert_eq!(shard_tracks, 2, "one track per shard");
    assert!(spans
        .iter()
        .any(|s| s.name == "par.shard" && s.track != MAIN));
}

#[test]
fn smoke_serve_mix_checks_every_request() {
    let pins = parse_pins(PINS_JSON).unwrap().serve;
    let out = serve_mix::run(5, 2.0, &pins, true).unwrap();
    assert!(out.attempted > serve_mix::SETUP_REPS);
    assert_eq!(out.failed, 0, "{:?}", out.extra);
    assert_self_times_cover_wall(&out);
    // Every layer the served requests reach reports a measured value.
    for name in [
        "testgen.build_s",
        "serve.campaign_s",
        "serve.cache_hit_ratio",
        "switch.good_s",
        "switch.good_groups",
        "core.faulty_groups",
        "campaign.report_json_s",
    ] {
        assert!(metric(&out, name) > 0.0, "{name}");
    }

    let mut bad = pins;
    bad.ram64 = wrong(pins.ram64);
    let out = serve_mix::run(5, 2.0, &bad, false).unwrap();
    assert!(out.failed > 0, "a wrong ram64 pin fails its requests");
}

#[test]
fn binary_prints_the_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_fmossim-perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            batch::NAME,
            "--seed",
            "4",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let last = fmossim_campaign::json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct").and_then(|v| v.as_bool()), Some(true));
    let metrics = last.get("metrics").unwrap();
    for (name, unit) in fmossim_perfbench::END_TO_END {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        assert!(m.get("value").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }
}
