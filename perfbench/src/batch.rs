//! The batch workload `rand4k-par2`: random logic, graded on the
//! parallel backend, which records the good-circuit tape once and
//! replays it in two shards on two workers.
//!
//! The circuit and stimulus are fixed, so the pinned detection count
//! and fingerprint hold for every seed; `--seed` permutes the order of
//! the fault universe, which moves faults between circuits' record
//! lists and between shards.

use crate::stats::{self, SplitMix64};
use crate::trace::{self, Tracer, MAIN};
use crate::{end_to_end, host, Layers, Metric, Outcome, Pin};
use fmossim_campaign::{
    Backend, BackendRun, Campaign, CampaignBackend, CampaignReport, ConcurrentConfig,
    ParallelConfig, RunControl, SimEvent, Workload,
};
use fmossim_core::{ConcurrentSim, GoodTape, Pattern, RunReport};
use fmossim_faults::FaultUniverse;
use fmossim_netlist::{Network, NodeId};
use fmossim_par::ParallelSim;
use fmossim_telemetry::Registry;
use fmossim_testgen::{RandomNetSpec, RandomNetlist};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::time::Instant;

/// The workload's name.
pub const NAME: &str = "rand4k-par2";
/// Seed of the netlist (the paper's publication date, as everywhere in
/// the repository).
pub const NETLIST_SEED: u64 = 850_715;
/// Seed of the input vectors.
pub const VECTOR_SEED: u64 = 850_716;
/// Simulation workers, and shards per campaign.
pub const WORKERS: usize = 2;
/// Set-up repetitions per traced round.
pub const SETUP_REPS: usize = 21;

/// Workload size: the real one, or a smoke size for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// A seconds-long stand-in with the same structure.
    Smoke,
}

/// A built circuit with its stimulus.
pub struct Circuit {
    /// The network.
    pub net: Network,
    /// Observed outputs.
    pub outputs: Vec<NodeId>,
    /// The stimulus.
    pub patterns: Vec<Pattern>,
    /// Patterns counted as the sequence's head for `core.head_frac`.
    pub head: usize,
}

/// A workload's complete inputs.
pub struct Inputs {
    /// Circuit and stimulus.
    pub circuit: Circuit,
    /// The fault universe, in seeded order.
    pub universe: FaultUniverse,
    /// `canon[k]`: the unpermuted index of fault `k`.
    pub canon: Vec<u32>,
}

/// The campaign backend the workload grades on.
#[must_use]
pub fn backend() -> Backend {
    Backend::Parallel(ParallelConfig::paper(WORKERS))
}

/// Builds the circuit and its stimulus: a 1000-gate random netlist and
/// 96 random vectors at full scale.
#[must_use]
pub fn build_circuit(scale: Scale) -> Circuit {
    let (inputs, gates, vectors) = match scale {
        Scale::Full => (32, 1000, 96),
        Scale::Smoke => (8, 60, 16),
    };
    let rn = RandomNetlist::generate(RandomNetSpec {
        seed: NETLIST_SEED,
        inputs,
        gates,
        max_fanin: 4,
    });
    Circuit {
        patterns: rn.patterns(vectors, VECTOR_SEED),
        head: (vectors / 10).max(1),
        outputs: rn.observed_outputs().to_vec(),
        net: rn.network().clone(),
    }
}

/// Builds the stuck-node and stuck-transistor universe and permutes it
/// by `seed`; returns it with the canonical index of each position.
#[must_use]
pub fn build_universe(c: &Circuit, seed: u64) -> (FaultUniverse, Vec<u32>) {
    let base = FaultUniverse::stuck_nodes(&c.net).union(FaultUniverse::stuck_transistors(&c.net));
    let canon = SplitMix64::new(seed).permutation(base.len());
    let faults = canon.iter().map(|&k| base.faults()[k as usize]).collect();
    (FaultUniverse::from_faults(faults), canon)
}

/// Builds the workload's complete inputs for `seed`.
#[must_use]
pub fn inputs(scale: Scale, seed: u64) -> Inputs {
    let circuit = build_circuit(scale);
    let (universe, canon) = build_universe(&circuit, seed);
    Inputs {
        circuit,
        universe,
        canon,
    }
}

/// A campaign over `inputs`, backend not yet chosen.
pub fn campaign<'n, 'o>(inputs: &'n Inputs) -> Campaign<'n, 'o> {
    let c = &inputs.circuit;
    Campaign::new(&c.net)
        .faults(inputs.universe.clone())
        .patterns(&c.patterns)
        .outputs(&c.outputs)
}

fn check(pin: &Pin, what: &str, inputs: &Inputs, run: &RunReport) -> bool {
    pin.check(what, stats::fingerprint(&run.detections, &inputs.canon))
}

/// The untraced run: grade whole campaigns back to back for `seconds`
/// (at least two), building the inputs afresh before each, checking
/// every result against `pin`, and timing all campaigns but the first.
/// `grade_s` and `cpu_s` are the fastest of the timed campaigns
/// ([`stats::min`]); their medians are printed beside them.
#[must_use]
pub fn run(scale: Scale, seed: u64, seconds: f64, pin: &Pin) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let inputs = inputs(scale, seed);
        setups.push(t0.elapsed().as_secs_f64());
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let report = campaign(&inputs).backend(backend()).run();
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(host::cpu_seconds() - cpu0);
        out.attempted += 1;
        if !check(pin, NAME, &inputs, &report.run) {
            out.failed += 1;
        }
        out.workers = report.jobs.unwrap_or(1);
        out.shards = report.shards.unwrap_or(1);
    }
    // The first campaign runs on cold caches and a fresh heap: it is
    // checked but not timed.
    walls.remove(0);
    cpus.remove(0);
    let n = walls.len();
    out.metrics = end_to_end([
        (
            stats::min(&walls).expect("one campaign"),
            format!("fastest of {n} campaigns"),
        ),
        (
            stats::min(&cpus).expect("one campaign"),
            format!("fastest of {n} campaigns"),
        ),
        (
            stats::median(&setups).expect("one set-up"),
            format!("median of {} set-ups", setups.len()),
        ),
    ]);
    for (name, values) in [("grade_median_s", &walls), ("cpu_median_s", &cpus)] {
        out.extra.push(Metric {
            name: name.into(),
            value: stats::median(values).expect("one campaign"),
            unit: "s",
            note: format!("median of {n} campaigns"),
        });
    }
    out.extra.push(Metric {
        name: "failed_frac".into(),
        value: out.failed_frac(),
        unit: "fraction",
        note: format!("{} of {} campaigns", out.failed, out.attempted),
    });
    out
}

/// A backend wrapper recording the inner backend's `run` as a
/// `campaign.backend` span, so the campaign layer's own time is the
/// campaign span minus it.
struct TimedBackend<'t> {
    inner: Box<dyn CampaignBackend>,
    tracer: &'t Tracer,
    parent: usize,
    seconds: &'t Cell<f64>,
}

impl CampaignBackend for TimedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.inner.attach_telemetry(registry);
    }

    fn attach_cancel(&mut self, token: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.inner.attach_cancel(token);
    }

    fn run(
        &mut self,
        workload: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        let start = self.tracer.now();
        let run = self.inner.run(workload, control, emit);
        let end = self.tracer.now();
        self.tracer.record(
            "campaign.backend",
            (start, end),
            Some(self.parent),
            MAIN,
            None,
        );
        self.seconds.set(end - start);
        run
    }
}

/// Counts checks of one traced round.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Shard `s` of the `par.run` call draws on track `SHARD_TRACK + s`.
pub const SHARD_TRACK: u32 = 1;

/// What every traced round works on.
struct Sweep<'a> {
    scale: Scale,
    seed: u64,
    pin: &'a Pin,
    tr: &'a Tracer,
}

/// One traced round: set-up, then each layer called directly on the
/// workload's inputs — the good machine alone, the concurrent engine
/// pattern by pattern, tape replay, the two-worker parallel driver —
/// then a campaign whose backend call is timed, and its report's JSON
/// round trip. Returns the campaign's wall time.
fn traced_round(sweep: &Sweep<'_>, layers: &mut Layers, checks: &mut Checks) -> f64 {
    let Sweep {
        scale,
        seed,
        pin,
        tr,
    } = *sweep;
    let inputs = tr.span("setup", None, |sp| {
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t0 = tr.now();
            let c = tr.span("testgen.build", Some(sp), |_| build_circuit(scale));
            let t1 = tr.now();
            let (universe, canon) =
                tr.span("faults.universe", Some(sp), |_| build_universe(&c, seed));
            layers.push("testgen.build_s", t1 - t0);
            layers.push("faults.universe_s", tr.now() - t1);
            built = Some(Inputs {
                circuit: c,
                universe,
                canon,
            });
        }
        built.expect("at least one set-up")
    });
    let c = &inputs.circuit;
    let (net, pats, outs) = (&c.net, &c.patterns[..], &c.outputs[..]);
    let faults = inputs.universe.faults();
    let config = ConcurrentConfig::paper();

    // switch: the good circuit alone.
    let tape = tr.span("switch.good", None, |_| {
        GoodTape::record(net, pats, config.engine)
    });
    let good_s = tape.record_seconds();
    layers.push("switch.good_s", good_s);
    layers.push("switch.good_groups", tape.num_groups() as f64);
    layers.push(
        "switch.ns_per_group",
        good_s * 1e9 / tape.num_groups().max(1) as f64,
    );

    // core: the concurrent engine, pattern by pattern.
    let registry = Registry::new();
    let (core, records_peak) = tr.span("core.run", None, |sp| {
        let mut sim = ConcurrentSim::new(net, faults, config);
        sim.attach_metrics(&registry);
        let mut report = RunReport {
            num_faults: faults.len(),
            ..RunReport::default()
        };
        let mut peak = 0usize;
        for (pi, p) in pats.iter().enumerate() {
            let t0 = tr.now();
            let mut stats = sim.step_pattern(p, outs, pi);
            let t1 = tr.now();
            tr.record("core.pattern", (t0, t1), Some(sp), MAIN, None);
            stats.seconds = t1 - t0;
            report.patterns.push(stats);
            peak = peak.max(sim.record_count());
        }
        report.detections = sim.detections().to_vec();
        report.total_seconds = report.patterns.iter().map(|p| p.seconds).sum();
        (report, peak)
    });
    checks.add(check(pin, "core.run", &inputs, &core));
    let run_s = core.total_seconds;
    let sum = |f: fn(&fmossim_core::PatternStats) -> usize| -> f64 {
        core.patterns.iter().map(f).sum::<usize>() as f64
    };
    let faulty_groups = sum(|p| p.faulty_groups);
    layers.push("core.run_s", run_s);
    layers.push("core.faulty_groups", faulty_groups);
    layers.push("core.circuit_settles", sum(|p| p.circuit_settles));
    let snap = registry.snapshot();
    let events = snap
        .counters
        .get("core.events_scheduled")
        .copied()
        .unwrap_or(0);
    layers.push("core.events_scheduled", events as f64);
    layers.push(
        "core.ns_per_faulty_group",
        (run_s - good_s) * 1e9 / faulty_groups.max(1.0),
    );
    layers.push("core.over_good", run_s / good_s);
    let good_per_pattern = good_s / pats.len() as f64;
    let serial_est: f64 = core
        .patterns_to_detect()
        .iter()
        .map(|&p| p as f64 * good_per_pattern)
        .sum();
    layers.push("core.serial_est_ratio", serial_est / run_s);
    layers.push("core.head_frac", core.head_time_fraction(c.head));
    layers.push(
        "core.mean_live",
        stats::mean(
            &core
                .patterns
                .iter()
                .map(|p| p.live_before as f64)
                .collect::<Vec<_>>(),
        ),
    );
    layers.push("core.records_peak", records_peak as f64);

    // core::tape: replay the recorded good machine on the same faults.
    let replay = tr.span("tape.replay", None, |_| {
        ConcurrentSim::new(net, faults, config).run_replayed(pats, outs, &tape)
    });
    checks.add(check(pin, "tape.replay", &inputs, &replay));
    layers.push("tape.replay_s", replay.total_seconds);
    layers.push("tape.saved_frac", 1.0 - replay.total_seconds / run_s);
    layers.push(
        "tape.heap_mb",
        tape.heap_bytes() as f64 / f64::from(1u32 << 20),
    );
    drop(tape);

    // par: record once, replay in two shards on two workers.
    let par_registry = Registry::new();
    let (prun, workers) = tr.span("par.run", None, |sp| {
        let mut sim =
            ParallelSim::new(net, inputs.universe.clone(), ParallelConfig::paper(WORKERS));
        sim.attach_metrics(&par_registry);
        let run = sim.run_streaming(pats, outs, |o, _| {
            let end = tr.now();
            let track = SHARD_TRACK + u32::try_from(o.shard).expect("shard fits u32");
            tr.record("par.shard", (end - o.seconds, end), Some(sp), track, None);
            ControlFlow::Continue(())
        });
        (run, sim.workers())
    });
    checks.add(check(pin, "par.run", &inputs, &prun.report));
    let wall = prun.report.total_seconds;
    let shard_max = prun.shard_seconds.iter().copied().fold(0.0, f64::max);
    let shard_sum: f64 = prun.shard_seconds.iter().sum();
    layers.push("par.wall_s", wall);
    layers.push("par.shard_s.max", shard_max);
    layers.push(
        "par.imbalance",
        shard_max / stats::mean(&prun.shard_seconds).max(f64::MIN_POSITIVE),
    );
    layers.push("par.efficiency", shard_sum / (workers as f64 * wall));
    layers.push(
        "par.serial_frac",
        prun.tape.map_or(0.0, |t| t.record_seconds) / wall,
    );
    let gauges = par_registry.snapshot().gauges;
    let gauge = |n: &str| gauges.get(n).copied().unwrap_or(0.0);
    layers.push("par.queue_wait_s", gauge("par.queue.wait_seconds"));
    layers.push("par.merge_s", gauge("par.merge.seconds"));

    // campaign: the backend's run is timed inside the campaign's span.
    let backend_s = Cell::new(0.0);
    let t0 = tr.now();
    let report = tr.span("campaign.run", None, |sp| {
        campaign(&inputs)
            .backend_impl(Box::new(TimedBackend {
                inner: backend().into_impl(),
                tracer: tr,
                parent: sp,
                seconds: &backend_s,
            }))
            .run()
    });
    let grade_s = tr.now() - t0;
    checks.add(check(pin, "campaign.run", &inputs, &report.run));
    layers.push("campaign.self_s", grade_s - backend_s.get());
    let t0 = tr.now();
    let (bytes, back) = tr.span("campaign.report_json", None, |_| {
        let text = report.to_json();
        (text.len(), CampaignReport::from_json(&text))
    });
    let json_s = tr.now() - t0;
    checks.add(back.as_ref() == Ok(&report));
    layers.push("campaign.report_json_s", json_s);
    layers.push("campaign.report_bytes", bytes as f64);
    grade_s
}

/// The traced run: [`traced_round`]s for about `seconds` (at least
/// one), reporting every per-layer metric as the median over rounds,
/// except `trace.grade_s`, the fastest round's campaign, as untraced.
#[must_use]
pub fn run_traced(scale: Scale, seed: u64, seconds: f64, pin: &Pin) -> Outcome {
    let tr = Tracer::new();
    let sweep = Sweep {
        scale,
        seed,
        pin,
        tr: &tr,
    };
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    // Start another round only while it is expected to end in time.
    let mut rounds = 0;
    let mut grades = Vec::new();
    while rounds == 0 || tr.now() * f64::from(rounds + 1) / f64::from(rounds) <= seconds {
        grades.push(traced_round(&sweep, &mut layers, &mut checks));
        rounds += 1;
    }
    layers.fastest("trace.grade_s", &grades);
    let wall = tr.now();
    let spans = tr.spans();
    layers.push("trace.wall_s", wall);
    layers.push(
        "trace.self_sum_frac",
        trace::track_self_sum(&spans, MAIN) / wall,
    );
    let shards = spans
        .iter()
        .filter(|s| s.name == "par.shard")
        .map(|s| s.track)
        .max()
        .map_or(0, |t| t - SHARD_TRACK + 1);
    let mut tracks = vec![(MAIN, "main".to_string())];
    tracks.extend((0..shards).map(|s| (SHARD_TRACK + s, format!("par shard {s}"))));
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: layers.metrics(),
        extra: vec![Metric {
            name: "rounds".into(),
            value: f64::from(rounds),
            unit: "count",
            note: format!("{} checks, {} failed", checks.attempted, checks.failed),
        }],
        workers: WORKERS,
        shards: WORKERS,
        trace: Some((spans, tracks)),
    }
}
