//! Golden-report snapshots: one real campaign per backend, archived
//! as a checked-in JSON fixture under `tests/fixtures/`, locking the
//! version-3 `CampaignReport` schema (including the v3 `metrics`
//! block). The previous generation's `report_v2_*.json` fixtures stay
//! checked in as lenient-parse coverage for archived artifacts.
//!
//! Each fixture is checked three ways:
//!
//! 1. **Byte-exactness** — `to_json(from_json(fixture)) == fixture`:
//!    the serialised format (key order, number formatting, null
//!    spelling) cannot drift without the diff showing up here.
//! 2. **Schema shape** — the version tag and the backend-specific
//!    keys are literally present in the document.
//! 3. **Reproduction** — a fresh run of the identical workload equals
//!    the fixture after timing fields are zeroed; everything
//!    deterministic (detections, counters, plan echo) must match bit
//!    for bit.
//!
//! Regenerate with `UPDATE_FIXTURES=1 cargo test --test
//! report_snapshots` after an *intentional* schema change.

use fmossim::campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, Jobs, ParallelConfig, Registry,
    SerialConfig,
};
use fmossim::circuits::Ram;
use fmossim::faults::FaultUniverse;
use fmossim::testgen::TestSequence;
use std::path::PathBuf;

/// The simulator configuration the fixtures were recorded with: the
/// scalar path (`"packing": false` in their `control` block, no
/// packed-lane `switch.*` rows in their metrics).
fn scalar() -> ConcurrentConfig {
    ConcurrentConfig {
        packing: false,
        ..ConcurrentConfig::paper()
    }
}

/// The built-in backends, in fixture order.
fn fixture_backends() -> [(&'static str, Backend); 3] {
    [
        ("serial", Backend::Serial(SerialConfig::paper())),
        ("concurrent", Backend::Concurrent(scalar())),
        (
            "parallel",
            Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(2),
                sim: scalar(),
                ..ParallelConfig::default()
            }),
        ),
    ]
}

/// The fixtures' common workload: the 4×4 RAM over the full paper
/// sequence, every stuck-node fault, with an active telemetry
/// registry attached so the fixtures lock the v3 `metrics` block. The
/// plain fixtures grade the whole universe (`collapse(false)`): their
/// work counters and plan echo predate collapsing by default.
fn run_fixture_campaign(backend: Backend) -> CampaignReport {
    let ram = Ram::new(4, 4);
    let seq = TestSequence::full(&ram);
    Campaign::new(ram.network())
        .faults(FaultUniverse::stuck_nodes(ram.network()))
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        .backend(backend)
        .collapse(false)
        .with_telemetry(&Registry::new())
        .run()
}

fn fixture_path(version: usize, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("report_v{version}_{name}.json"))
}

/// Zeroes every measured-time field, leaving only deterministic
/// content. Counters and histograms (groups, settles, detections,
/// the metrics block) are *not* normalised — they must
/// reproduce exactly. Metrics *gauges* are all zeroed: every exported
/// gauge is timing-shaped (seconds, imbalance ratios) or tracks the
/// timing-independent-but-path-dependent live count.
fn normalize(r: &mut CampaignReport) {
    r.wall_seconds = 0.0;
    r.max_shard_seconds = r.max_shard_seconds.map(|_| 0.0);
    r.good_seconds = r.good_seconds.map(|_| 0.0);
    r.serial_estimate_seconds = r.serial_estimate_seconds.map(|_| 0.0);
    r.tape_record_seconds = r.tape_record_seconds.map(|_| 0.0);
    // How much of the streamed tape is held at once, and how long the
    // followers wait, depend on how far the leader runs ahead.
    r.tape_peak_bytes = r.tape_peak_bytes.map(|_| 0);
    r.tape_wait_seconds = r.tape_wait_seconds.map(|_| 0.0);
    r.run.total_seconds = 0.0;
    for p in &mut r.run.patterns {
        p.seconds = 0.0;
    }
    for g in r.metrics.gauges.values_mut() {
        *g = 0.0;
    }
}

#[test]
fn fixtures_lock_the_v3_schema() {
    let update = std::env::var_os("UPDATE_FIXTURES").is_some();
    for (name, backend) in fixture_backends() {
        let path = fixture_path(3, name);
        if update {
            let report = run_fixture_campaign(backend);
            std::fs::create_dir_all(path.parent().expect("fixture dir"))
                .expect("create fixtures dir");
            std::fs::write(&path, report.to_json() + "\n").expect("write fixture");
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with UPDATE_FIXTURES=1",
                path.display()
            )
        });
        let text = text.trim_end();

        // 1. Byte-exact round-trip: parsing and re-serialising the
        // archive reproduces it exactly, so key order, number
        // formatting and null spelling are all pinned.
        let parsed = CampaignReport::from_json(text)
            .unwrap_or_else(|e| panic!("{name}: fixture does not parse: {e}"));
        assert_eq!(
            parsed.to_json(),
            text,
            "{name}: serialisation drifted from the checked-in fixture"
        );

        // 2. Schema shape: the literal keys the v3 format promises.
        assert!(text.contains("\"version\":3"), "{name}: not a v3 document");
        assert!(text.contains("\"format\":\"fmossim-campaign-report\""));
        assert!(
            !text.contains("\"batches\""),
            "{name}: the batches key is no longer written"
        );
        assert!(text.contains("\"control\":"));
        assert!(text.contains("\"metrics\":"), "{name}: metrics key missing");
        assert_eq!(parsed.backend, backend.name());
        match name {
            "serial" => {
                assert!(parsed.good_seconds.is_some());
                assert!(parsed.serial_estimate_seconds.is_some());
            }
            "concurrent" => {
                assert!(
                    parsed.metrics.counters["core.detections"] > 0,
                    "{name}: instrumented backend locks non-empty counters"
                );
                assert!(
                    parsed.metrics.histograms["switch.solve_group.size"].count > 0,
                    "{name}: the solve-group histogram is archived"
                );
            }
            "parallel" => {
                assert_eq!(parsed.jobs, Some(2));
                assert_eq!(parsed.shards, Some(2));
                assert_eq!(parsed.tape_record_seconds, Some(0.0), "no record pass");
                assert!(parsed.tape_peak_bytes.is_some(), "tape peak echoed");
                assert_eq!(parsed.metrics.counters["par.shards"], 2);
            }
            _ => {}
        }

        // 3. Reproduction: a fresh run of the same workload matches
        // the archive exactly once measured times (and the
        // timing-shaped metrics gauges) are zeroed.
        let mut fresh = run_fixture_campaign(backend);
        let mut archived = parsed;
        normalize(&mut fresh);
        normalize(&mut archived);
        assert_eq!(
            fresh.to_json(),
            archived.to_json(),
            "{name}: fresh run diverged from the archived report"
        );
    }
}

/// The collapsed-campaign fixture: the same v3 schema with the two
/// collapse keys present (`control.collapse` and the top-level
/// `collapse` statistics block), as every default campaign writes
/// them. Kept separate from the three plain fixtures, which must stay
/// byte-identical — an uncollapsed report never emits either key.
#[test]
fn collapsed_fixture_locks_the_schema() {
    let run = || {
        let ram = Ram::new(4, 4);
        let seq = TestSequence::full(&ram);
        Campaign::new(ram.network())
            .faults(
                FaultUniverse::stuck_nodes(ram.network())
                    .union(FaultUniverse::stuck_transistors(ram.network())),
            )
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(Backend::Concurrent(scalar()))
            .with_telemetry(&Registry::new())
            .run()
    };
    let path = fixture_path(3, "collapsed");
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures dir");
        std::fs::write(&path, run().to_json() + "\n").expect("write fixture");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_FIXTURES=1",
            path.display()
        )
    });
    let text = text.trim_end();

    // 1. Byte-exact round-trip.
    let parsed =
        CampaignReport::from_json(text).unwrap_or_else(|e| panic!("fixture does not parse: {e}"));
    assert_eq!(
        parsed.to_json(),
        text,
        "collapsed: serialisation drifted from the checked-in fixture"
    );

    // 2. Schema shape: still v3, with both collapse keys.
    assert!(text.contains("\"version\":3"), "still a v3 document");
    assert!(text.contains("\"collapse\":true"), "control echo present");
    assert!(
        text.contains("\"collapse\":{\"classes\":"),
        "statistics block present"
    );
    let stats = parsed.collapse.expect("statistics parse");
    assert!(
        stats.simulated_faults < stats.total_faults && stats.classes > 0,
        "the fixture workload must actually collapse something"
    );
    assert_eq!(parsed.control.collapse, Some(true));
    assert!(
        parsed.metrics.counters["faults.collapsed_classes"] > 0,
        "the collapse telemetry counter is archived"
    );

    // 3. Reproduction: deterministic content matches a fresh run.
    let mut fresh = run();
    let mut archived = parsed;
    normalize(&mut fresh);
    normalize(&mut archived);
    assert_eq!(
        fresh.to_json(),
        archived.to_json(),
        "collapsed: fresh run diverged from the archived report"
    );
}

/// The previous generation's archived v2 fixtures still parse through
/// the lenient reader: no `metrics` key means an empty snapshot, and
/// everything deterministic still reproduces against a fresh
/// (untelemetered) run of the same workload.
#[test]
fn v2_fixtures_still_parse() {
    let ram = Ram::new(4, 4);
    let seq = TestSequence::full(&ram);
    for (name, backend) in fixture_backends() {
        let path = fixture_path(2, name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing archived v2 fixture {}: {e}", path.display()));
        let archived = CampaignReport::from_json(text.trim_end())
            .unwrap_or_else(|e| panic!("{name}: v2 fixture does not parse: {e}"));
        assert!(
            archived.metrics.counters.is_empty()
                && archived.metrics.gauges.is_empty()
                && archived.metrics.histograms.is_empty(),
            "{name}: pre-telemetry document reads as an empty snapshot"
        );
        // No telemetry attached: the fresh report's metrics block is
        // empty too, so whole-struct equality holds after normalize.
        // The archives predate collapsing, so the fresh run grades the
        // whole universe.
        let mut fresh = Campaign::new(ram.network())
            .faults(FaultUniverse::stuck_nodes(ram.network()))
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(backend)
            .collapse(false)
            .run();
        let mut archived = archived;
        normalize(&mut fresh);
        normalize(&mut archived);
        // The packing echo postdates the v2 archives: they parse as
        // `None`, while a fresh instrumented backend echoes its knob.
        assert_eq!(archived.control.packing, None);
        fresh.control.packing = None;
        // So do the streamed tape's peak and wait.
        assert_eq!(
            (archived.tape_peak_bytes, archived.tape_wait_seconds),
            (None, None)
        );
        fresh.tape_peak_bytes = None;
        fresh.tape_wait_seconds = None;
        assert_eq!(archived.backend, name);
        assert_eq!(
            fresh, archived,
            "{name}: fresh run diverged from the archived v2 report"
        );
    }
}

/// The v3 writer round-trips value-exactly through its own parser on
/// every backend's real output (fixture-independent, so this also
/// covers hosts where the fixtures were regenerated).
#[test]
fn real_runs_roundtrip_value_exactly() {
    for (name, backend) in fixture_backends() {
        let report = run_fixture_campaign(backend);
        let text = report.to_json();
        let back = CampaignReport::from_json(&text)
            .unwrap_or_else(|e| panic!("{name}: round-trip parse failed: {e}"));
        assert_eq!(back, report, "{name}: round-trip changed the report");
        assert_eq!(back.to_json(), text, "{name}: re-serialisation drifted");
    }
}

/// Version-1 documents still parse — the v3 reader keeps the lenient
/// v1 path alive for archived artifacts.
#[test]
fn v1_documents_still_parse() {
    let report = run_fixture_campaign(Backend::Concurrent(ConcurrentConfig::paper()));
    let v1 = report.to_json().replace("\"version\":3", "\"version\":1");
    let back = CampaignReport::from_json(&v1).expect("v1 document parses");
    assert_eq!(back.run.detections, report.run.detections);
    assert_eq!(
        back.metrics, report.metrics,
        "the metrics block parses even in an old-version document"
    );
}
