//! Fault-parallel scaling sweep: wall-clock speedup vs. worker count,
//! with a record/replay A/B over the good-machine tape.
//!
//! Runs the paper's RAM workload (stuck nodes + bit-line bridges over
//! the full marching sequence) through [`fmossim_par::ParallelSim`] at
//! increasing `--jobs`, and emits one JSON document with wall-clock
//! seconds, aggregate CPU seconds, speedup relative to one job, the
//! (job-count-invariant) coverage — and, per point, the *good-machine
//! fraction*: how much of the total work went into simulating the
//! fault-free circuit. With the tape (`replay on`) that fraction is one
//! record pass regardless of the shard count; without it (`replay
//! off`) every shard re-settles the good circuit, so the fraction
//! grows with K. The JSON is the artifact the ROADMAP scaling work
//! tracks over time (`BENCH_replay.json`).
//!
//! Usage:
//! `scaling_par [--dim 8] [--jobs-list 1,2,4,8] [--strategy round-robin]
//!              [--sample K] [--replay on|off|ab] [--batch N]`
//!
//! `--replay ab` (the default) measures both modes per point and
//! asserts their detection sets are bit-identical. Wall-clock speedup
//! saturates at the machine's hardware parallelism (reported as
//! `hardware_threads`); the good-machine fraction does not — it is a
//! work ratio, not a wall-clock ratio.
//!
//! `--batch N` (N > 0) switches to the batch-rebalancing A/B: per job
//! count it runs the parallel backend in N-pattern batches in both
//! modes — re-planning shards from measured times between batches
//! (`rebalanced`) vs. the same batched loop with the initial cost-LPT
//! plan frozen (`static`) — and asserts both detection sets are
//! bit-identical to the one-shot run. Batch 0 runs the identical plan in both modes
//! (nothing has been measured yet) and is excluded from both
//! aggregates.
//!
//! The headline `*_imbalance` is the mean over rebalanced batches of
//! each batch's ratio `max_shard_seconds / mean_shard_seconds`
//! (1.0 = perfectly balanced): plan quality at each re-planning point,
//! every batch an equal observation — the quantity the re-planner
//! controls. The `*_weighted_imbalance` companion is
//! `Σ max / Σ mean` over the same batches; it is dominated by the few
//! burst batches whose max is a *single* fault's intrinsic cost (the
//! RAM march activates individual faults for milliseconds while the
//! rest idle), which no partition can split, so it is reported but not
//! gated on. Both are medians over `--reps 5` repetitions — late
//! batches run in microseconds and a single measurement is
//! noise-limited. The JSON is the `BENCH_adaptive.json` artifact; at
//! K ≥ 2 the rebalanced ratio must undercut the static one.

use fmossim_bench::{arg_value, paper_universe, ram_with_bridges, stats, SEED};
use fmossim_campaign::{Backend, Campaign, CampaignReport};
use fmossim_core::{ConcurrentConfig, GoodTape};
use fmossim_par::{Jobs, ParallelConfig, ShardStrategy};
use fmossim_testgen::TestSequence;

/// One replay mode's measurements at one job count.
struct ModePoint {
    wall_seconds: f64,
    cpu_seconds: f64,
    /// Seconds of the one-time tape record pass (`None` when the tape
    /// was not used: replay off, or a single shard).
    tape_record_seconds: Option<f64>,
    /// Good-machine seconds / total work seconds for this mode.
    good_fraction: f64,
    detected: usize,
}

struct Point {
    jobs: usize,
    shards: usize,
    /// Critical path of the plan, measured uncontended (shards run
    /// back to back on one thread): the longest single shard.
    max_shard_seconds: f64,
    replay_on: Option<ModePoint>,
    replay_off: Option<ModePoint>,
    coverage: f64,
}

fn fmt_mode(p: &Option<ModePoint>) -> String {
    match p {
        None => "null".into(),
        Some(m) => format!(
            "{{\"wall_seconds\": {:.4}, \"cpu_seconds\": {:.4}, \
             \"tape_record_seconds\": {}, \"good_fraction\": {:.4}, \
             \"detected\": {}}}",
            m.wall_seconds,
            m.cpu_seconds,
            m.tape_record_seconds
                .map_or("null".into(), |s| format!("{s:.4}")),
            m.good_fraction,
            m.detected,
        ),
    }
}

fn main() {
    let dim: usize = arg_value("--dim")
        .map(|s| s.parse().expect("--dim takes a number"))
        .unwrap_or(8);
    let jobs_list: Vec<usize> = arg_value("--jobs-list")
        .unwrap_or_else(|| "1,2,4,8".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--jobs-list takes numbers"))
        .collect();
    let strategy = match arg_value("--strategy") {
        None => ShardStrategy::default(),
        Some(s) => ShardStrategy::parse(&s).expect("round-robin|contiguous|cost"),
    };
    if let Some(batch) = arg_value("--batch") {
        let batch: usize = batch.parse().expect("--batch takes a number");
        assert!(
            batch > 0,
            "--batch needs N > 0: a single whole-sequence batch has no rebalanced batches to \
             compare"
        );
        assert!(
            arg_value("--replay").is_none(),
            "--replay does not apply to --batch (the batch loop is tape-based)"
        );
        // The A/B defaults to the strongest static baseline (cost-LPT);
        // an explicit --strategy overrides it.
        let initial = match arg_value("--strategy") {
            None => ShardStrategy::CostEstimated,
            Some(_) => strategy,
        };
        rebalance_ab(dim, &jobs_list, batch, initial);
        return;
    }
    let replay_mode = arg_value("--replay").unwrap_or_else(|| "ab".into());
    let (run_on, run_off) = match replay_mode.as_str() {
        "on" => (true, false),
        "off" => (false, true),
        "ab" => (true, true),
        other => panic!("--replay takes on|off|ab, not `{other}`"),
    };

    let (ram, bridges) = ram_with_bridges(dim, dim);
    let mut universe = paper_universe(&ram, bridges);
    if let Some(k) = arg_value("--sample") {
        let k: usize = k.parse().expect("--sample takes a number");
        universe = universe.sample(k, SEED);
    }
    let seq = TestSequence::full(&ram);
    let outputs = ram.observed_outputs();

    // One pure good-machine pass: the unit of the good-fraction
    // estimate for recompute mode (each shard embeds one such pass).
    let good_pass_seconds = GoodTape::record(
        ram.network(),
        seq.patterns(),
        ConcurrentConfig::paper().engine,
    )
    .record_seconds();

    let campaign = |config: ParallelConfig| {
        Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(outputs)
            .backend(Backend::Parallel(config))
            .reuse_good_tape(config.reuse_good_tape)
            .run()
    };
    let cpu_of = |r: &CampaignReport| -> f64 { r.run.patterns.iter().map(|p| p.seconds).sum() };
    let mode_point = |r: &CampaignReport| -> ModePoint {
        let cpu = cpu_of(r);
        let shards = r.shards.expect("parallel backend reports shards") as f64;
        // Replay: the good machine ran once (the record pass), on top
        // of the shards' faulty-only CPU. Recompute: every shard's CPU
        // already embeds one good pass.
        let (good_seconds, total_work) = match r.tape_record_seconds {
            Some(record) => (record, cpu + record),
            None => (shards * good_pass_seconds, cpu),
        };
        ModePoint {
            wall_seconds: r.run.total_seconds,
            cpu_seconds: cpu,
            tape_record_seconds: r.tape_record_seconds,
            good_fraction: stats::fraction(good_seconds, total_work),
            detected: r.detected(),
        }
    };

    let points: Vec<Point> = jobs_list
        .iter()
        .map(|&jobs| {
            let config = ParallelConfig {
                jobs: Jobs::Fixed(jobs),
                strategy,
                sim: ConcurrentConfig::paper(),
                ..ParallelConfig::default()
            };
            let on = run_on.then(|| campaign(config));
            let off = run_off.then(|| {
                campaign(ParallelConfig {
                    reuse_good_tape: false,
                    ..config
                })
            });
            let primary = on.as_ref().or(off.as_ref()).expect("one mode runs");
            let shards = primary.shards.expect("parallel backend reports shards");
            if let (Some(a), Some(b)) = (&on, &off) {
                assert_eq!(
                    a.detections(),
                    b.detections(),
                    "jobs={jobs}: replay must be bit-identical to recompute"
                );
            }
            // Re-run the same plan on one thread: shard times free of
            // scheduling contention, for the machine-independent
            // critical-path metric.
            let sequential = campaign(ParallelConfig {
                jobs: Jobs::Fixed(1),
                shards: Some(shards),
                ..config
            });
            assert_eq!(sequential.detected(), primary.detected());
            Point {
                jobs,
                shards,
                max_shard_seconds: sequential
                    .max_shard_seconds
                    .expect("parallel backend reports the critical path"),
                coverage: primary.coverage(),
                replay_on: on.as_ref().map(&mode_point),
                replay_off: off.as_ref().map(&mode_point),
            }
        })
        .collect();

    let wall_of = |p: &Point| -> f64 {
        p.replay_on
            .as_ref()
            .or(p.replay_off.as_ref())
            .expect("one mode ran")
            .wall_seconds
    };
    let base = points
        .iter()
        .find(|p| p.jobs == 1)
        .map_or_else(|| wall_of(&points[0]), wall_of);
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"jobs\": {}, \"shards\": {}, \"speedup\": {:.3}, \
                 \"max_shard_seconds\": {:.4}, \"ideal_speedup\": {:.3}, \
                 \"coverage\": {:.4}, \"replay_on\": {}, \"replay_off\": {}}}",
                p.jobs,
                p.shards,
                base / wall_of(p),
                p.max_shard_seconds,
                base / p.max_shard_seconds,
                p.coverage,
                fmt_mode(&p.replay_on),
                fmt_mode(&p.replay_off),
            )
        })
        .collect();
    println!("{{");
    println!("  \"circuit\": \"RAM{} ({})\",", dim * dim, ram.stats());
    println!("  \"faults\": {},", universe.len());
    println!("  \"patterns\": {},", seq.len());
    println!("  \"strategy\": \"{strategy}\",");
    println!("  \"replay\": \"{replay_mode}\",");
    println!("  \"good_pass_seconds\": {good_pass_seconds:.4},");
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");

    // Sanity: neither sharding nor the tape may change the verdicts,
    // and at K >= 2 the tape must shrink the good-machine fraction.
    let baseline = points.first().expect("at least one job count");
    let detected_of = |p: &Point| {
        p.replay_on
            .as_ref()
            .or(p.replay_off.as_ref())
            .expect("one mode ran")
            .detected
    };
    for p in &points[1..] {
        assert_eq!(
            detected_of(p),
            detected_of(baseline),
            "jobs={} changed the detection count",
            p.jobs
        );
    }
    for p in &points {
        if let (Some(a), Some(b)) = (&p.replay_on, &p.replay_off) {
            if p.shards >= 2 {
                assert!(
                    a.good_fraction < b.good_fraction,
                    "jobs={}: replay-on good fraction {:.4} must undercut \
                     replay-off {:.4}",
                    p.jobs,
                    a.good_fraction,
                    b.good_fraction
                );
            }
        }
    }
}

/// One batched mode's aggregate measurements at one job count.
struct BatchedMode {
    /// Mean over the rebalanced batches of each batch's imbalance
    /// ratio `max_shard_seconds / mean_shard_seconds` (1.0 = every
    /// plan perfectly balanced) — plan quality at each re-planning
    /// point, every batch an equal observation.
    imbalance: f64,
    /// `Σ max_shard_seconds / Σ mean_shard_seconds` over the same
    /// batches: the seconds-weighted companion, dominated by the few
    /// heavy early batches.
    weighted_imbalance: f64,
    batches: usize,
    moved_faults: usize,
    cpu_seconds: f64,
}

/// The batch-rebalancing A/B (`--batch N`): measured-cost re-planning
/// vs. the frozen initial plan (both planned with `strategy` for batch
/// 0), both bit-identical to the one-shot parallel run.
fn rebalance_ab(dim: usize, jobs_list: &[usize], batch: usize, strategy: ShardStrategy) {
    let (ram, bridges) = ram_with_bridges(dim, dim);
    let mut universe = paper_universe(&ram, bridges);
    if let Some(k) = arg_value("--sample") {
        let k: usize = k.parse().expect("--sample takes a number");
        universe = universe.sample(k, SEED);
    }
    let seq = TestSequence::full(&ram);
    let outputs = ram.observed_outputs();

    let campaign = |backend: Backend| {
        Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(seq.patterns())
            .outputs(outputs)
            .backend(backend)
            .run()
    };
    let reps: usize = arg_value("--reps")
        .map(|s| s.parse().expect("--reps takes a number"))
        .unwrap_or(5)
        .max(1);
    let mode = |r: &CampaignReport| -> BatchedMode {
        // Batch 0 runs the identical initial plan in both modes (no
        // measurement exists yet to re-plan from); the before/after
        // comparison is over the batches a rebalance could have
        // touched, so it is excluded from both aggregates.
        assert!(
            r.batches.len() >= 2,
            "the A/B needs at least one rebalanced batch; lower --batch \
             (got {} batch(es) of {batch} patterns)",
            r.batches.len()
        );
        let rebalanced = &r.batches[1..];
        let max_sum: f64 = rebalanced.iter().map(|b| b.max_shard_seconds).sum();
        let mean_sum: f64 = rebalanced.iter().map(|b| b.mean_shard_seconds).sum();
        BatchedMode {
            imbalance: stats::mean(rebalanced.iter().map(|b| b.imbalance)),
            weighted_imbalance: stats::imbalance(max_sum, mean_sum),
            batches: r.batches.len(),
            moved_faults: r.batches.iter().map(|b| b.moved_faults).sum(),
            cpu_seconds: r.run.patterns.iter().map(|p| p.seconds).sum(),
        }
    };
    let median = |modes: Vec<BatchedMode>| stats::median_by(modes, |m| m.imbalance);

    let rows: Vec<String> = jobs_list
        .iter()
        .map(|&jobs| {
            let one_shot = ParallelConfig {
                jobs: Jobs::Fixed(jobs),
                strategy,
                sim: ConcurrentConfig::paper(),
                ..ParallelConfig::default()
            };
            let reference = campaign(Backend::Parallel(one_shot));
            let config = ParallelConfig { batch, ..one_shot };
            let measure = |backend_config: ParallelConfig| -> BatchedMode {
                median(
                    (0..reps)
                        .map(|_| {
                            let report = campaign(Backend::Parallel(backend_config));
                            assert_eq!(
                                report.detections(),
                                reference.detections(),
                                "jobs={jobs} rebalance={}: batching changed the detection set",
                                backend_config.rebalance
                            );
                            mode(&report)
                        })
                        .collect(),
                )
            };
            let re = measure(config);
            let st = measure(ParallelConfig {
                rebalance: false,
                ..config
            });
            // The acceptance gate: at K >= 2 measured-cost re-planning
            // must beat the frozen static plan.
            if jobs >= 2 {
                assert!(
                    re.imbalance < st.imbalance,
                    "jobs={jobs}: rebalanced imbalance {:.4} must undercut static {:.4}",
                    re.imbalance,
                    st.imbalance
                );
            }
            format!(
                "    {{\"jobs\": {jobs}, \"batches\": {}, \
                 \"static_imbalance\": {:.4}, \"rebalanced_imbalance\": {:.4}, \
                 \"static_weighted_imbalance\": {:.4}, \
                 \"rebalanced_weighted_imbalance\": {:.4}, \
                 \"moved_faults\": {}, \"static_cpu_seconds\": {:.4}, \
                 \"rebalanced_cpu_seconds\": {:.4}, \"coverage\": {:.4}}}",
                re.batches,
                st.imbalance,
                re.imbalance,
                st.weighted_imbalance,
                re.weighted_imbalance,
                re.moved_faults,
                st.cpu_seconds,
                re.cpu_seconds,
                reference.coverage(),
            )
        })
        .collect();
    println!("{{");
    println!("  \"circuit\": \"RAM{} ({})\",", dim * dim, ram.stats());
    println!("  \"faults\": {},", universe.len());
    println!("  \"patterns\": {},", seq.len());
    println!("  \"batch\": {batch},");
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
