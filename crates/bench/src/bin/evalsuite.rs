//! The paper-style evaluation suite over the benchmark circuit zoo:
//! every zoo circuit × every backend (serial / concurrent / parallel,
//! the last one-shot and batched) × every worker count, one campaign
//! each, one JSON
//! artifact (`BENCH_suite.json`).
//!
//! The source paper argues FMOSSIM's worth by relating simulation cost
//! to concurrent fault-list activity across a spread of MOS circuits;
//! this binary is that methodology for the reproduction. Per run it
//! records the paper's shape metrics — patterns per second, the
//! good-machine fraction of solver work, mean concurrent fault-list
//! activity (live faulty circuits per pattern), mean faulty vicinities
//! per pattern — plus the re-planner's per-batch imbalance for the
//! batched rows, and it **asserts cross-backend conformance**: the
//! canonical detection set of every run of a circuit must be
//! bit-identical (the suite aborts otherwise), with the shared
//! fingerprint archived per circuit.
//!
//! Usage:
//! `evalsuite [--smoke] [--circuit name] [--jobs-list 2,4]
//!            [--sample N] [--pattern-limit N] [--batch N]
//!            [--metrics <path>]`
//!
//! `evalsuite --packing [--smoke] [--circuit name] [--sample N]
//! [--reps N]` runs the bit-parallel packing A/B instead (the
//! `BENCH_packed.json` artifact): per zoo circuit, the concurrent
//! backend with `ConcurrentConfig::packing` off and on, median wall
//! time over `--reps` repetitions each. Detections must be
//! bit-identical (the suite aborts otherwise); the packed row archives
//! the lane statistics (`switch.packed_solves`,
//! `switch.scalar_fallbacks`, mean lanes per packed solve) next to the
//! patterns-per-second ratio. The win scales with fault *density* —
//! lanes share work where two machines' propagation fronts meet, so
//! members whose patterns trigger many faulty circuits in the same
//! region at once (the RAMs, the PLA) pack many lanes per solve,
//! while sparse universes mostly fall back to the scalar path and
//! break even. `--sample` defaults much higher here (192) than in the
//! main suite: lane occupancy *is* the mechanism under test, and it
//! rises with the number of live fault machines per circuit region.
//!
//! `evalsuite --collapse [--smoke] [--circuit name] [--reps N]` runs
//! the fault-collapsing A/B instead (the `BENCH_collapse.json`
//! artifact): per zoo circuit, the concurrent backend over the **full**
//! stuck-node ∪ stuck-transistor universe with campaign-level
//! collapsing (static equivalence classes) off and on, median wall time over `--reps` repetitions each.
//! Detections must be bit-identical (the suite aborts otherwise) — the
//! collapsed run fans every representative's detections back out to
//! its class, so the FNV fingerprint doubles as the end-to-end proof
//! that fan-out reconstructs the uncollapsed result. No `--sample`
//! here: sampling would break up the structural pairs (parallel twins,
//! series stuck-opens, dominated drivers) that collapsing exists to
//! find, understating the reduction. Each row archives the class
//! statistics (`total_faults`, `simulated_faults`, `classes`) and the
//! patterns-per-second ratio.
//!
//! `evalsuite --serve [--circuit name] [--requests N]` runs the
//! server A/B instead (the `BENCH_serve.json` artifact): N campaigns
//! of one zoo circuit served concurrently by an in-process
//! `fmossim-serve` instance (first submission warms the good-tape
//! cache, the rest hit it) against the same N campaigns run
//! sequentially offline, each paying its own record pass. Both sides
//! must grade identically; the row archives wall times and the
//! measured cache-hit rate. The pool is sized from the host
//! (`hardware_threads` is archived with the row): on a few-core host
//! the served side cannot beat sequential wall time — its measured
//! win is the seven retired record passes (`tape_record_seconds`)
//! and request multiplexing, while wall-time speedup needs real
//! cores to spend the freed cycles on.
//!
//! Every campaign runs with a fresh telemetry registry; each run's row
//! embeds the registry's counter snapshot (`metrics`), and `--metrics
//! <path>` additionally writes the whole suite's merged registry as
//! one Prometheus text-format snapshot — the artifact CI lints and
//! uploads.
//!
//! All campaigns run under `DetectionPolicy::DefiniteOnly` — the
//! policy under which detection sets are provably schedule-independent
//! (see `tests/campaign_api.rs`) — so equality across backends is a
//! hard invariant, not a statistical one. `--smoke` shrinks every
//! workload (few faults, few patterns) for CI; the archived
//! `BENCH_suite.json` is a full run.

use fmossim_bench::{arg_flag, arg_value, stats};
use fmossim_campaign::{
    Backend, Campaign, CampaignReport, ConcurrentConfig, DetectionPolicy, Jobs, MetricsSnapshot,
    ParallelConfig, Registry, SerialConfig, ShardStrategy,
};
use fmossim_faults::FaultUniverse;
use fmossim_testgen::zoo::{build_zoo, ZooWorkload, ZOO, ZOO_SEED};

/// One campaign's row in the suite.
struct Run {
    backend: &'static str,
    jobs: Option<usize>,
    wall_seconds: f64,
    patterns_per_second: f64,
    cpu_seconds: f64,
    /// Good-machine share of solver work:
    /// `good_groups / (good_groups + faulty_groups)`. `None` for
    /// serial, which has no vicinity counters.
    good_fraction: Option<f64>,
    /// Mean live faulty circuits per pattern — the paper's
    /// "concurrent fault-list activity".
    mean_live: Option<f64>,
    /// Mean faulty vicinities solved per pattern.
    mean_faulty_groups: Option<f64>,
    /// Mean per-batch imbalance ratio (batched rows only).
    mean_batch_imbalance: Option<f64>,
    detected: usize,
    fingerprint: u64,
    /// The run's telemetry registry snapshot (every campaign runs with
    /// a fresh registry; counters are archived per run).
    metrics: MetricsSnapshot,
}

/// FNV-1a over the canonical detection sequence: two runs share the
/// fingerprint iff their detection sets are bit-identical.
fn detection_fingerprint(r: &CampaignReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for d in r.detections() {
        eat(d.canonical_key().as_bytes());
        eat(b";");
    }
    h
}

fn measure(report: &CampaignReport, jobs: Option<usize>, backend: &'static str) -> Run {
    let cpu: f64 = report.run.patterns.iter().map(|p| p.seconds).sum();
    let good_groups: usize = report.run.patterns.iter().map(|p| p.good_groups).sum();
    let faulty_groups: usize = report.run.patterns.iter().map(|p| p.faulty_groups).sum();
    let has_counters = good_groups + faulty_groups > 0;
    let mean_batch_imbalance = (!report.batches.is_empty())
        .then(|| stats::mean(report.batches.iter().map(|b| b.imbalance)));
    Run {
        backend,
        jobs,
        wall_seconds: report.wall_seconds,
        patterns_per_second: report.patterns_total as f64
            / report.wall_seconds.max(f64::MIN_POSITIVE),
        cpu_seconds: cpu,
        good_fraction: has_counters
            .then(|| stats::fraction(good_groups as f64, (good_groups + faulty_groups) as f64)),
        mean_live: has_counters
            .then(|| stats::mean(report.run.patterns.iter().map(|p| p.live_before as f64))),
        mean_faulty_groups: has_counters
            .then(|| stats::mean(report.run.patterns.iter().map(|p| p.faulty_groups as f64))),
        mean_batch_imbalance,
        detected: report.detected(),
        fingerprint: detection_fingerprint(report),
        metrics: report.metrics.clone(),
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.4}"))
}

fn fmt_run(r: &Run) -> String {
    // Counters only: they are deterministic measurements; the
    // registry's gauges/histograms are timing-shaped and live in the
    // merged --metrics snapshot instead.
    let counters: Vec<String> = r
        .metrics
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "      {{\"backend\": \"{}\", \"jobs\": {}, \"wall_seconds\": {:.4}, \
         \"patterns_per_second\": {:.2}, \"cpu_seconds\": {:.4}, \
         \"good_fraction\": {}, \"mean_live\": {}, \"mean_faulty_groups\": {}, \
         \"mean_batch_imbalance\": {}, \"detected\": {}, \
         \"detections_fnv1a\": \"{:016x}\",\n       \"metrics\": {{{}}}}}",
        r.backend,
        r.jobs.map_or("null".into(), |j| j.to_string()),
        r.wall_seconds,
        r.patterns_per_second,
        r.cpu_seconds,
        fmt_opt(r.good_fraction),
        fmt_opt(r.mean_live),
        fmt_opt(r.mean_faulty_groups),
        fmt_opt(r.mean_batch_imbalance),
        r.detected,
        r.fingerprint,
        counters.join(", "),
    )
}

fn main() {
    if arg_flag("--serve") {
        serve_ab();
        return;
    }
    if arg_flag("--packing") {
        packing_ab();
        return;
    }
    if arg_flag("--collapse") {
        collapse_ab();
        return;
    }
    let smoke = arg_flag("--smoke");
    let only = arg_value("--circuit");
    let jobs_list: Vec<usize> = arg_value("--jobs-list")
        .unwrap_or_else(|| if smoke { "2".into() } else { "2,4".into() })
        .split(',')
        .map(|s| s.trim().parse().expect("--jobs-list takes numbers"))
        .collect();
    // Universe caps keep the serial baseline tractable on the big
    // members; sampling is seeded, so the suite is reproducible.
    let sample: usize = arg_value("--sample")
        .map(|s| s.parse().expect("--sample takes a number"))
        .unwrap_or(if smoke { 12 } else { 48 });
    let pattern_limit: Option<usize> = arg_value("--pattern-limit")
        .map(|s| s.parse().expect("--pattern-limit takes a number"))
        .or(if smoke { Some(24) } else { None });
    let batch: usize = arg_value("--batch")
        .map(|s| s.parse().expect("--batch takes a number"))
        .unwrap_or(if smoke { 8 } else { 16 });

    let metrics_path = arg_value("--metrics");
    let policy = DetectionPolicy::DefiniteOnly;
    let sim = ConcurrentConfig {
        policy,
        ..ConcurrentConfig::paper()
    };

    // The whole suite's telemetry, merged run by run, for the
    // `--metrics` Prometheus snapshot.
    let suite_registry = Registry::new();
    let mut circuit_rows = Vec::new();
    for (name, _) in ZOO {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let w: ZooWorkload = build_zoo(name).expect("registry member builds");
        let full_universe = FaultUniverse::stuck_nodes(&w.net);
        let (universe, sampled) = if full_universe.len() > sample {
            (full_universe.sample(sample, ZOO_SEED), true)
        } else {
            (full_universe, false)
        };
        let campaign = |backend: Backend| -> CampaignReport {
            // Fresh registry per run: each row's snapshot stands alone,
            // and the suite registry accumulates the merged total.
            let registry = Registry::new();
            let mut c = Campaign::new(&w.net)
                .faults(universe.clone())
                .patterns(&w.patterns)
                .outputs(&w.outputs)
                .backend(backend)
                .with_telemetry(&registry);
            if let Some(n) = pattern_limit {
                c = c.pattern_limit(n);
            }
            let report = c.run();
            suite_registry.merge(&registry);
            report
        };

        let mut runs = Vec::new();
        runs.push(measure(
            &campaign(Backend::Serial(SerialConfig {
                policy,
                ..SerialConfig::paper()
            })),
            None,
            "serial",
        ));
        runs.push(measure(
            &campaign(Backend::Concurrent(sim)),
            None,
            "concurrent",
        ));
        for &jobs in &jobs_list {
            runs.push(measure(
                &campaign(Backend::Parallel(ParallelConfig {
                    jobs: Jobs::Fixed(jobs),
                    sim,
                    ..ParallelConfig::default()
                })),
                Some(jobs),
                "parallel",
            ));
            runs.push(measure(
                &campaign(Backend::Parallel(ParallelConfig {
                    jobs: Jobs::Fixed(jobs),
                    strategy: ShardStrategy::CostEstimated,
                    batch,
                    sim,
                    ..ParallelConfig::default()
                })),
                Some(jobs),
                "batched",
            ));
        }

        // The conformance gate: every run of this circuit must grade
        // identically — backends and worker counts move time, never
        // results.
        let reference = &runs[0];
        for r in &runs[1..] {
            assert_eq!(
                (r.detected, r.fingerprint),
                (reference.detected, reference.fingerprint),
                "{name}: {} (jobs {:?}) diverged from {} — cross-backend parity broken",
                r.backend,
                r.jobs,
                reference.backend,
            );
        }

        let stats = w.stats();
        let patterns_used = pattern_limit.map_or(w.patterns.len(), |n| n.min(w.patterns.len()));
        eprintln!(
            "{name}: {} faults{} x {} patterns, {} runs, {} detected — parity ok",
            universe.len(),
            if sampled { " (sampled)" } else { "" },
            patterns_used,
            runs.len(),
            reference.detected,
        );
        circuit_rows.push(format!(
            "    {{\"name\": \"{name}\", \"description\": \"{}\",\n     \
             \"nodes\": {}, \"transistors\": {}, \"storage\": {}, \
             \"faults\": {}, \"sampled\": {}, \"patterns\": {},\n     \
             \"detected\": {}, \"coverage\": {:.4},\n     \"runs\": [\n{}\n    ]}}",
            w.description,
            stats.nodes,
            stats.transistors,
            stats.storage,
            universe.len(),
            sampled,
            patterns_used,
            reference.detected,
            reference.detected as f64 / universe.len().max(1) as f64,
            runs.iter().map(fmt_run).collect::<Vec<_>>().join(",\n"),
        ));
    }
    assert!(
        !circuit_rows.is_empty(),
        "--circuit filtered everything out (see fmossim_testgen::zoo::ZOO)"
    );

    println!("{{");
    println!("  \"format\": \"fmossim-evalsuite\",");
    println!("  \"version\": 1,");
    println!("  \"smoke\": {smoke},");
    println!("  \"policy\": \"definite-only\",");
    println!("  \"sample_cap\": {sample},");
    println!(
        "  \"pattern_limit\": {},",
        pattern_limit.map_or("null".into(), |n| n.to_string())
    );
    println!("  \"jobs_list\": [{}],", {
        let s: Vec<String> = jobs_list.iter().map(ToString::to_string).collect();
        s.join(", ")
    });
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("  \"circuits\": [");
    println!("{}", circuit_rows.join(",\n"));
    println!("  ]");
    println!("}}");

    if let Some(path) = metrics_path {
        let snap = suite_registry.snapshot();
        let text = snap.to_prometheus();
        MetricsSnapshot::lint_prometheus(&text).unwrap_or_else(|(line, msg)| {
            panic!("exporter produced bad text (line {line}): {msg}")
        });
        std::fs::write(&path, &text).expect("writable --metrics path");
        eprintln!(
            "metrics: merged {} counter(s), {} gauge(s), {} histogram(s) -> {path}",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len(),
        );
    }
}

/// The `--packing` A/B: per zoo circuit, the concurrent backend with
/// the bit-parallel packed path off and on, `--reps` repetitions each
/// (median wall time), with bit-identical detections as the hard gate.
/// Emits the `BENCH_packed.json` document on stdout.
fn packing_ab() {
    let smoke = arg_flag("--smoke");
    let only = arg_value("--circuit");
    let reps: usize = arg_value("--reps")
        .map(|s| s.parse().expect("--reps takes a number"))
        .unwrap_or(if smoke { 2 } else { 5 });
    assert!(reps >= 1, "--reps needs at least one repetition");
    // Much higher default cap than the main suite: packing wins by
    // settling many simultaneously-triggered fault machines per bitwise
    // pass, so the fault population is the independent variable here —
    // on the big RAMs, occupancy (and the packed win) grows with it.
    let sample: usize = arg_value("--sample")
        .map(|s| s.parse().expect("--sample takes a number"))
        .unwrap_or(if smoke { 12 } else { 192 });
    let pattern_limit: Option<usize> = arg_value("--pattern-limit")
        .map(|s| s.parse().expect("--pattern-limit takes a number"))
        .or(if smoke { Some(24) } else { None });
    let policy = DetectionPolicy::DefiniteOnly;

    let mut circuit_rows = Vec::new();
    for (name, _) in ZOO {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let w: ZooWorkload = build_zoo(name).expect("registry member builds");
        let full_universe = FaultUniverse::stuck_nodes(&w.net);
        let (universe, sampled) = if full_universe.len() > sample {
            (full_universe.sample(sample, ZOO_SEED), true)
        } else {
            (full_universe, false)
        };
        let run_once = |packing: bool| -> CampaignReport {
            let registry = Registry::new();
            let mut c = Campaign::new(&w.net)
                .faults(universe.clone())
                .patterns(&w.patterns)
                .outputs(&w.outputs)
                .backend(Backend::Concurrent(ConcurrentConfig {
                    policy,
                    packing,
                    ..ConcurrentConfig::paper()
                }))
                .with_telemetry(&registry);
            if let Some(n) = pattern_limit {
                c = c.pattern_limit(n);
            }
            c.run()
        };

        let scalar_reps: Vec<CampaignReport> = (0..reps).map(|_| run_once(false)).collect();
        let packed_reps: Vec<CampaignReport> = (0..reps).map(|_| run_once(true)).collect();
        let reference = detection_fingerprint(&scalar_reps[0]);
        let detected = scalar_reps[0].detected();
        for r in scalar_reps.iter().chain(&packed_reps) {
            assert_eq!(
                (r.detected(), detection_fingerprint(r)),
                (detected, reference),
                "{name}: packed/scalar parity broken"
            );
        }
        let scalar = stats::median_by(scalar_reps, |r| r.wall_seconds);
        let packed = stats::median_by(packed_reps, |r| r.wall_seconds);

        let pps =
            |r: &CampaignReport| r.patterns_total as f64 / r.wall_seconds.max(f64::MIN_POSITIVE);
        let counter = |r: &CampaignReport, k: &str| r.metrics.counters.get(k).copied().unwrap_or(0);
        let packed_solves = counter(&packed, "switch.packed_solves");
        let scalar_fallbacks = counter(&packed, "switch.scalar_fallbacks");
        let occupancy = packed.metrics.histograms.get("switch.lane.occupancy");
        let mean_lanes = occupancy
            .filter(|h| h.count > 0)
            .map(|h| h.sum as f64 / h.count as f64);
        let mean_faulty_groups =
            stats::mean(scalar.run.patterns.iter().map(|p| p.faulty_groups as f64));
        let speedup = pps(&packed) / pps(&scalar).max(f64::MIN_POSITIVE);
        eprintln!(
            "{name}: {} faults x {} patterns — scalar {:.2} pat/s, packed {:.2} pat/s \
             ({speedup:.2}x, {packed_solves} packed solves, mean lanes {}) — parity ok",
            universe.len(),
            scalar.patterns_total,
            pps(&scalar),
            pps(&packed),
            fmt_opt(mean_lanes),
        );
        circuit_rows.push(format!(
            "    {{\"name\": \"{name}\", \"faults\": {}, \"sampled\": {sampled}, \
             \"patterns\": {}, \"detected\": {detected}, \
             \"detections_fnv1a\": \"{reference:016x}\", \
             \"mean_faulty_groups\": {mean_faulty_groups:.4},\n     \
             \"scalar\": {{\"wall_seconds\": {:.4}, \"patterns_per_second\": {:.2}}},\n     \
             \"packed\": {{\"wall_seconds\": {:.4}, \"patterns_per_second\": {:.2}, \
             \"packed_solves\": {packed_solves}, \"scalar_fallbacks\": {scalar_fallbacks}, \
             \"mean_lane_occupancy\": {}}},\n     \
             \"packed_speedup\": {speedup:.4}}}",
            universe.len(),
            scalar.patterns_total,
            scalar.wall_seconds,
            pps(&scalar),
            packed.wall_seconds,
            pps(&packed),
            fmt_opt(mean_lanes),
        ));
    }
    assert!(
        !circuit_rows.is_empty(),
        "--circuit filtered everything out (see fmossim_testgen::zoo::ZOO)"
    );

    println!("{{");
    println!("  \"format\": \"fmossim-evalsuite-packing\",");
    println!("  \"version\": 1,");
    println!("  \"smoke\": {smoke},");
    println!("  \"policy\": \"definite-only\",");
    println!("  \"sample_cap\": {sample},");
    println!("  \"reps\": {reps},");
    println!(
        "  \"pattern_limit\": {},",
        pattern_limit.map_or("null".into(), |n| n.to_string())
    );
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("  \"circuits\": [");
    println!("{}", circuit_rows.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// The `--collapse` A/B: per zoo circuit, the concurrent backend over
/// the full stuck-node ∪ stuck-transistor universe with campaign-level
/// fault collapsing off and on, `--reps` repetitions each (median wall
/// time), with bit-identical detections as the hard gate. Emits the
/// `BENCH_collapse.json` document on stdout.
fn collapse_ab() {
    let smoke = arg_flag("--smoke");
    let only = arg_value("--circuit");
    let reps: usize = arg_value("--reps")
        .map(|s| s.parse().expect("--reps takes a number"))
        .unwrap_or(if smoke { 1 } else { 3 });
    assert!(reps >= 1, "--reps needs at least one repetition");
    // Deliberately no --sample: seeded sampling keeps either member of
    // a structural pair with independent probability, so almost every
    // equivalence class collapses to a singleton and the measured
    // reduction evaporates. The full universe is the honest workload.
    let pattern_limit: Option<usize> = arg_value("--pattern-limit")
        .map(|s| s.parse().expect("--pattern-limit takes a number"))
        .or(if smoke { Some(16) } else { None });
    let policy = DetectionPolicy::DefiniteOnly;

    let mut circuit_rows = Vec::new();
    for (name, _) in ZOO {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let w: ZooWorkload = build_zoo(name).expect("registry member builds");
        let universe =
            FaultUniverse::stuck_nodes(&w.net).union(FaultUniverse::stuck_transistors(&w.net));
        let run_once = |collapse: bool| -> CampaignReport {
            let registry = Registry::new();
            let mut c = Campaign::new(&w.net)
                .faults(universe.clone())
                .patterns(&w.patterns)
                .outputs(&w.outputs)
                .backend(Backend::Concurrent(ConcurrentConfig {
                    policy,
                    ..ConcurrentConfig::paper()
                }))
                .collapse(collapse)
                .with_telemetry(&registry);
            if let Some(n) = pattern_limit {
                c = c.pattern_limit(n);
            }
            c.run()
        };

        let plain_reps: Vec<CampaignReport> = (0..reps).map(|_| run_once(false)).collect();
        let collapsed_reps: Vec<CampaignReport> = (0..reps).map(|_| run_once(true)).collect();
        // The hard gate: a collapsed campaign must grade exactly like
        // the plain one — same detections, same coverage, same faults.
        let reference = detection_fingerprint(&plain_reps[0]);
        let detected = plain_reps[0].detected();
        for r in plain_reps.iter().chain(&collapsed_reps) {
            assert_eq!(
                (r.run.num_faults, r.detected(), detection_fingerprint(r)),
                (universe.len(), detected, reference),
                "{name}: collapsed/plain parity broken"
            );
        }
        let plain = stats::median_by(plain_reps, |r| r.wall_seconds);
        let collapsed = stats::median_by(collapsed_reps, |r| r.wall_seconds);
        let cstats = collapsed
            .collapse
            .expect("a collapsed campaign archives its class statistics");
        assert!(
            cstats.simulated_faults < cstats.total_faults,
            "{name}: collapsing found no reduction ({} of {} faults simulated)",
            cstats.simulated_faults,
            cstats.total_faults,
        );

        let pps =
            |r: &CampaignReport| r.patterns_total as f64 / r.wall_seconds.max(f64::MIN_POSITIVE);
        let reduction = cstats.simulated_faults as f64 / cstats.total_faults as f64;
        let speedup = pps(&collapsed) / pps(&plain).max(f64::MIN_POSITIVE);
        eprintln!(
            "{name}: {} -> {} faults ({} classes), {} patterns — plain {:.2} pat/s, \
             collapsed {:.2} pat/s ({speedup:.2}x) — parity ok",
            cstats.total_faults,
            cstats.simulated_faults,
            cstats.classes,
            plain.patterns_total,
            pps(&plain),
            pps(&collapsed),
        );
        circuit_rows.push(format!(
            "    {{\"name\": \"{name}\", \"faults\": {}, \"patterns\": {}, \
             \"detected\": {detected}, \"detections_fnv1a\": \"{reference:016x}\",\n     \
             \"plain\": {{\"wall_seconds\": {:.4}, \"patterns_per_second\": {:.2}}},\n     \
             \"collapsed\": {{\"wall_seconds\": {:.4}, \"patterns_per_second\": {:.2}, \
             \"total_faults\": {}, \"simulated_faults\": {}, \"classes\": {}}},\n     \
             \"fault_reduction\": {reduction:.4}, \"collapse_speedup\": {speedup:.4}}}",
            universe.len(),
            plain.patterns_total,
            plain.wall_seconds,
            pps(&plain),
            collapsed.wall_seconds,
            pps(&collapsed),
            cstats.total_faults,
            cstats.simulated_faults,
            cstats.classes,
        ));
    }
    assert!(
        !circuit_rows.is_empty(),
        "--circuit filtered everything out (see fmossim_testgen::zoo::ZOO)"
    );

    println!("{{");
    println!("  \"format\": \"fmossim-evalsuite-collapse\",");
    println!("  \"version\": 1,");
    println!("  \"smoke\": {smoke},");
    println!("  \"policy\": \"definite-only\",");
    println!("  \"universe\": \"all\",");
    println!("  \"reps\": {reps},");
    println!(
        "  \"pattern_limit\": {},",
        pattern_limit.map_or("null".into(), |n| n.to_string())
    );
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("  \"circuits\": [");
    println!("{}", circuit_rows.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// The `--serve` A/B: N campaigns of one zoo circuit, served
/// concurrently with a warm good-tape cache versus run sequentially
/// offline with a per-run record pass. Emits the `BENCH_serve.json`
/// document on stdout and asserts served/offline grading parity.
fn serve_ab() {
    use fmossim_campaign::json;
    use fmossim_serve::{request, served_config, Server, ServerConfig};
    use std::time::{Duration, Instant};

    let circuit = arg_value("--circuit").unwrap_or_else(|| "ram4x4".into());
    let requests: usize = arg_value("--requests")
        .map(|s| s.parse().expect("--requests takes a number"))
        .unwrap_or(8);
    assert!(requests >= 2, "--requests needs at least a warmup + one");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = threads.min(4);
    // One shard per worker: every extra shard replays the whole tape
    // once more, so over-sharding only inflates CPU on a small host.
    let shards = workers;

    // B side: the same N campaigns back to back, offline — the
    // workflow the server replaces. Every run records its own tape.
    let w = build_zoo(&circuit).expect("zoo circuit");
    let universe = FaultUniverse::stuck_nodes(&w.net);
    let offline_one = || -> CampaignReport {
        Campaign::new(&w.net)
            .faults(universe.clone())
            .patterns(&w.patterns)
            .outputs(&w.outputs)
            .backend(Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(workers),
                sim: served_config(),
                shards: Some(shards),
                ..ParallelConfig::default()
            }))
            .run()
    };
    let offline_start = Instant::now();
    let offline_reports: Vec<CampaignReport> = (0..requests).map(|_| offline_one()).collect();
    let offline_wall = offline_start.elapsed().as_secs_f64();
    let reference = detection_fingerprint(&offline_reports[0]);
    let detected = offline_reports[0].detected();
    let offline_record: f64 = offline_reports
        .iter()
        .map(|r| r.tape_record_seconds.unwrap_or(0.0))
        .sum();

    // A side: an in-process server. The first submission warms the
    // tape cache; the remaining N-1 are issued concurrently and all
    // replay the cached tape.
    let server = Server::bind(&ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());

    let submit = |circuit: &str| -> String {
        let body = format!("{{\"circuit\":\"{circuit}\",\"shards\":{shards}}}");
        let resp = request(addr, "POST", "/campaigns", Some(&body)).expect("POST /campaigns");
        assert_eq!(resp.status, 202, "{}", resp.body_str().unwrap_or("?"));
        json::parse(resp.body_str().expect("utf8"))
            .expect("json")
            .get("id")
            .and_then(json::Value::as_str)
            .expect("id")
            .to_string()
    };
    let wait = |id: &str| -> json::Value {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let resp = request(addr, "GET", &format!("/campaigns/{id}"), None).expect("GET status");
            let doc = json::parse(resp.body_str().expect("utf8")).expect("json");
            let status = doc
                .get("status")
                .and_then(json::Value::as_str)
                .unwrap_or("?");
            if matches!(status, "done" | "cancelled" | "failed") {
                assert_eq!(status, "done", "{id} ended {status}");
                return doc;
            }
            assert!(Instant::now() < deadline, "{id} stuck");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let report_of = |doc: &json::Value| -> CampaignReport {
        CampaignReport::from_json(&doc.get("report").expect("report").to_string())
            .expect("report parses")
    };

    let served_start = Instant::now();
    let warm_doc = wait(&submit(&circuit));
    let warmup_seconds = served_start.elapsed().as_secs_f64();
    let ids: Vec<String> = (0..requests - 1).map(|_| submit(&circuit)).collect();
    let served_reports: Vec<CampaignReport> = {
        let mut reports = vec![report_of(&warm_doc)];
        reports.extend(ids.iter().map(|id| report_of(&wait(id))));
        reports
    };
    let served_wall = served_start.elapsed().as_secs_f64();

    // Grading parity is the hard gate, exactly as in the main suite.
    for (i, r) in served_reports.iter().enumerate() {
        assert_eq!(
            (r.detected(), detection_fingerprint(r)),
            (detected, reference),
            "served request {i} diverged from the offline reference"
        );
    }
    let warm_hits = served_reports[1..]
        .iter()
        .filter(|r| r.tape_record_seconds == Some(0.0))
        .count();

    let metrics = request(addr, "GET", "/metrics", None).expect("GET /metrics");
    let text = metrics.body_str().expect("utf8");
    MetricsSnapshot::lint_prometheus(text)
        .unwrap_or_else(|(line, msg)| panic!("/metrics lint failed (line {line}): {msg}"));
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let hits = counter("fmossim_serve_cache_hits");
    let misses = counter("fmossim_serve_cache_misses");

    eprintln!(
        "{circuit}: {requests} campaigns — served {served_wall:.3}s \
         (warmup {warmup_seconds:.3}s, {warm_hits} warm replays, cache {hits} hit / {misses} miss) \
         vs offline {offline_wall:.3}s ({offline_record:.3}s re-recording tapes) — parity ok"
    );
    println!("{{");
    println!("  \"format\": \"fmossim-evalsuite-serve\",");
    println!("  \"version\": 1,");
    println!("  \"circuit\": \"{circuit}\",");
    println!("  \"requests\": {requests},");
    println!("  \"hardware_threads\": {threads},");
    println!("  \"workers\": {workers},");
    println!("  \"shards\": {shards},");
    println!("  \"detected\": {detected},");
    println!("  \"detections_fnv1a\": \"{reference:016x}\",");
    println!(
        "  \"offline\": {{\"wall_seconds\": {offline_wall:.4}, \
         \"tape_record_seconds\": {offline_record:.4}}},"
    );
    println!(
        "  \"served\": {{\"wall_seconds\": {served_wall:.4}, \
         \"warmup_seconds\": {warmup_seconds:.4}, \"warm_replays\": {warm_hits}, \
         \"cache_hits\": {hits}, \"cache_misses\": {misses}, \
         \"cache_hit_rate\": {:.4}}},",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    println!(
        "  \"served_speedup\": {:.4}",
        offline_wall / served_wall.max(f64::MIN_POSITIVE)
    );
    println!("}}");
}
