//! Telemetry instrumentation overhead: the same campaign with an
//! active registry vs. the null registry, on one zoo circuit.
//!
//! The telemetry layer is wired through the hot paths of every layer
//! (engine settles, concurrent event scheduling, shard loops), so its
//! cost budget is explicit: **< 3% patterns/second regression** with a
//! registry attached. This binary measures it — each repetition runs
//! the modes in ABBA order (null, active, active, null) so linear
//! machine drift cancels out of the per-rep ratio, the budget is
//! asserted on the median ratio — and prints one JSON document.
//!
//! Usage: `telemetry_overhead [--circuit ram64] [--reps 5] [--sample N]`
//!
//! Both modes must also grade identically (telemetry never changes
//! results); the binary asserts detection equality per repetition.

use fmossim_bench::Flags;
use fmossim_campaign::{Backend, Campaign, CampaignReport, ConcurrentConfig, Registry};
use fmossim_faults::FaultUniverse;
use fmossim_testgen::zoo::{build_zoo, ZOO_SEED};

/// The budget asserted on the median patterns/second ratio.
const MAX_REGRESSION: f64 = 0.03;

fn main() {
    let flags = Flags::from_env(&[], &["--circuit", "--reps", "--sample"]);
    let circuit: String = flags.value("--circuit").unwrap_or_else(|| "ram64".into());
    let reps = flags.value("--reps").unwrap_or(5).max(1);
    let sample: Option<usize> = flags.value("--sample");
    let w = build_zoo(&circuit).expect("zoo member (see `fmossim zoo`)");
    let mut universe = FaultUniverse::stuck_nodes(&w.net);
    if let Some(k) = sample {
        universe = universe.sample(k, ZOO_SEED);
    }

    let run = |registry: &Registry| -> CampaignReport {
        Campaign::new(&w.net)
            .faults(universe.clone())
            .patterns(&w.patterns)
            .outputs(&w.outputs)
            .backend(Backend::Concurrent(ConcurrentConfig::paper()))
            .with_telemetry(registry)
            .run()
    };
    let pps = |r: &CampaignReport| r.patterns_total as f64 / r.wall_seconds.max(f64::MIN_POSITIVE);

    // One warmup (page cache, allocator), then ABBA per repetition:
    // null, active, active, null. Averaging the two runs of each mode
    // cancels linear machine drift out of the per-rep ratio, which the
    // raw interleaved ordering does not.
    let warmup = run(&Registry::null());
    let mut rep_pps = Vec::with_capacity(reps);
    for rep in 0..reps {
        let n1 = run(&Registry::null());
        let a1 = run(&Registry::new());
        let a2 = run(&Registry::new());
        let n2 = run(&Registry::null());
        for r in [&n1, &a1, &a2, &n2] {
            assert_eq!(
                r.detections(),
                warmup.detections(),
                "rep {rep}: telemetry changed the detection set"
            );
        }
        assert!(
            n1.metrics.counters.is_empty() && n2.metrics.counters.is_empty(),
            "null registry must record nothing"
        );
        assert!(
            !a1.metrics.counters.is_empty(),
            "active registry must record"
        );
        assert_eq!(
            a1.metrics.counters, a2.metrics.counters,
            "rep {rep}: counters must be run-to-run deterministic"
        );
        let null_pps = (pps(&n1) + pps(&n2)) / 2.0;
        let active_pps = (pps(&a1) + pps(&a2)) / 2.0;
        rep_pps.push((null_pps, active_pps));
        eprintln!(
            "rep {rep}: null {null_pps:.1} patterns/s, active {active_pps:.1} patterns/s \
             (ratio {:.3})",
            active_pps / null_pps.max(f64::MIN_POSITIVE)
        );
    }

    // The rep with the median active/null ratio (the upper one of an
    // even count) is the representative measurement; report its
    // absolute rates alongside.
    rep_pps.sort_by(|(n1, a1), (n2, a2)| {
        (a1 / n1.max(f64::MIN_POSITIVE)).total_cmp(&(a2 / n2.max(f64::MIN_POSITIVE)))
    });
    let (null_median, active_median) = rep_pps[reps / 2];
    let regression = 1.0 - active_median / null_median.max(f64::MIN_POSITIVE);

    println!("{{");
    println!("  \"format\": \"fmossim-telemetry-overhead\",");
    println!("  \"version\": 1,");
    println!("  \"circuit\": \"{circuit}\",");
    println!("  \"faults\": {},", universe.len());
    println!("  \"patterns\": {},", w.patterns.len());
    println!("  \"reps\": {reps},");
    println!("  \"null_patterns_per_second\": {null_median:.2},");
    println!("  \"active_patterns_per_second\": {active_median:.2},");
    println!("  \"regression\": {regression:.4},");
    println!("  \"budget\": {MAX_REGRESSION}");
    println!("}}");

    assert!(
        regression < MAX_REGRESSION,
        "telemetry overhead {:.2}% exceeds the {:.0}% budget \
         (null {null_median:.1} vs active {active_median:.1} patterns/s)",
        regression * 100.0,
        MAX_REGRESSION * 100.0,
    );
    eprintln!(
        "telemetry overhead {:.2}% — within the {:.0}% budget",
        regression * 100.0,
        MAX_REGRESSION * 100.0
    );
}
