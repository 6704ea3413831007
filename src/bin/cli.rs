//! `fmossim` — command-line front end to the simulator.
//!
//! ```text
//! fmossim stats    <netlist.snl>
//! fmossim zoo
//! fmossim gen      ram <rows> <cols> | regfile <words> <bits>
//! fmossim stim     ram <rows> <cols> [--march-only]
//! fmossim sim      <netlist.snl> --stim <file> [--watch N1,N2,…]
//! fmossim faultsim <netlist.snl> --stim <file> --outputs N1[,N2…]
//! fmossim faultsim --circuit <zoo-name>
//!                  [--backend serial|concurrent|parallel] [--json]
//!                  [--universe stuck-nodes|stuck-transistors|all]
//!                  [--sample K] [--seed S] [--serial]
//!                  [--stop-at-coverage F] [--pattern-limit N]
//!                  [--jobs N|auto] [--shard-strategy round-robin|contiguous|cost]
//!                  [--metrics <path>[.prom|.json]]
//! ```
//!
//! The stimulus file is line oriented: each non-comment line is one
//! pattern; phases are separated by `;`; a phase is whitespace-
//! separated `NAME=VALUE` input assignments (`0`, `1` or `X`). Every
//! phase is observed (strobed). `#` starts a comment.
//!
//! ```text
//! # cycle the clocks, then read
//! A0=1 WE=1 DIN=1 PHI1=1 ; PHI1=0 ; PHI2=1 ; PHI2=0 ; PHI3=1 ; PHI3=0
//! ```

use fmossim::campaign::{
    universe_from_spec, Backend, Campaign, ConcurrentConfig, Jobs, ParallelConfig, Registry,
    SerialConfig, ShardStrategy,
};
use fmossim::circuits::{Ram, RegisterFile};
use fmossim::concurrent::{Pattern, Phase};
use fmossim::netlist::{parse_netlist, write_netlist, Logic, Network, NetworkStats, NodeId};
use fmossim::sim::LogicSim;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("zoo") => cmd_zoo(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("stim") => cmd_stim(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("faultsim") => cmd_faultsim(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fmossim — concurrent switch-level fault simulator (Bryant & Schuster, DAC 1985)

usage:
  fmossim stats    <netlist.snl>
  fmossim zoo
  fmossim gen      ram <rows> <cols> | regfile <words> <bits>
  fmossim stim     ram <rows> <cols> [--march-only]
  fmossim sim      <netlist.snl> --stim <file> [--watch A,B,...]
  fmossim faultsim <netlist.snl> --stim <file> --outputs A[,B...]
  fmossim faultsim --circuit <zoo-name>
                   [--backend serial|concurrent|parallel] [--json]
                   [--universe stuck-nodes|stuck-transistors|all]
                   [--sample K] [--seed S] [--serial]
                   [--stop-at-coverage F] [--pattern-limit N]
                   [--jobs N|auto] [--shard-strategy round-robin|contiguous|cost]
                   [--metrics <path>[.prom|.json]]
  fmossim serve    [--addr HOST:PORT] [--workers N] [--cache-mb N]
                   [--default-shards N]
  fmossim submit   --addr HOST:PORT --circuit <zoo-name>
  fmossim submit   --addr HOST:PORT <netlist.snl> --stim <file> --outputs A[,B...]
                   [--universe stuck-nodes|stuck-transistors|all]
                   [--shards N] [--name LABEL]
                   [--stop-at-coverage F] [--no-wait] [--json]
  fmossim cancel   --addr HOST:PORT <job-id>

`zoo` lists the benchmark circuit zoo; `faultsim --circuit <name>`
runs a campaign on a zoo member (circuit, stimulus and observed
outputs all built in-process — no netlist or stimulus file needed).

faultsim runs one campaign on the chosen backend: `concurrent` (the
paper's algorithm, default), `serial` (the per-fault baseline), or
`parallel` (fault-parallel shards on a worker pool; implied by
--jobs). Results are identical for every backend and job count.

--jobs N picks the worker count, `auto` sizes the pool from the
workload. The shard
count follows from the resolved workers. With more than one shard,
shard 0 settles the good machine and streams each phase to the other
shards, which replay it behind it; a single shard settles the good
circuit itself, so with --jobs auto on a small workload the tape is
skipped. The post-run `plan:` line echoes what
actually resolved.

The concurrent and parallel backends settle the fault machines woken
at the same nodes together, up to 64 per bitwise pass over two-plane
ternary words (packed lanes). Results and work counters are those of
one-machine-at-a-time settling; the --metrics `switch.packed_solves`
and `switch.lane.occupancy` rows count the shared passes.

Every campaign (faultsim and submit alike) runs static fault
collapsing first: structurally equivalent faults (parallel twins,
series stuck-opens with pinned outer nodes, dominated drivers,
never-detectable faults) are grouped into classes, one representative
per class is simulated, and every detection is fanned back out to the
full class at report time. The reported detections, coverage, and
fault count are those of the full universe; only the simulated work
shrinks, and work counters (--metrics, shard telemetry) count
representatives. --stop-at-coverage is evaluated over the full
universe, so a run stops where grading every fault would have. The
--json artifact's `collapse` block records the class statistics.

--json emits the machine-readable campaign report instead of text;
--stop-at-coverage / --pattern-limit cut the run short; --serial
appends a serial-baseline comparison run.

`serve` starts the long-running campaign server (see docs/SERVER.md):
jobs queue onto one shared worker pool of --workers threads, progress
streams over SSE, and recorded good tapes are cached across
submissions in a --cache-mb byte budget. The bound address is printed
to stdout (--addr defaults to 127.0.0.1:0, a free port). `submit`
posts a campaign — a zoo circuit or a netlist + stimulus file — then
streams its lifecycle events and prints the finished report summary
(--no-wait returns after the job id; --json prints the full status
document). `cancel` requests a cooperative cancel; the job's report
arrives with `cancelled: true` and the detections found so far.

--metrics <path> attaches a telemetry registry to the campaign and
writes its final snapshot to <path> after the run: Prometheus text
exposition format by default (and for a `.prom` suffix), JSON for a
`.json` suffix. The same snapshot is embedded in the --json report's
`metrics` block. Telemetry never changes results; without --metrics
the null registry records nothing.
";

fn load(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let net = parse_netlist(&text).map_err(|e| format!("{path}: {e}"))?;
    net.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(net)
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Rejects any `--` argument of subcommand `cmd` that its lines in
/// [`USAGE`] do not list, so a misspelled flag fails instead of being
/// silently ignored.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let mut known = Vec::new();
    let mut in_cmd = false;
    for line in USAGE.lines() {
        let text = line.trim_start();
        if let Some(rest) = text.strip_prefix("fmossim ") {
            in_cmd = rest.split_whitespace().next() == Some(cmd);
        } else if text.len() == line.len() {
            in_cmd = false; // prose, not a usage continuation line
        }
        if in_cmd {
            known.extend(
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter(|w| w.starts_with("--")),
            );
        }
    }
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(a) => Err(format!(
            "unknown flag `{a}` for `{cmd}` (see `fmossim --help`)"
        )),
        None => Ok(()),
    }
}

fn node_list(net: &Network, spec: &str) -> Result<Vec<NodeId>, String> {
    spec.split(',')
        .map(|name| {
            net.find_node(name.trim())
                .ok_or_else(|| format!("no node named `{name}`"))
        })
        .collect()
}

/// Parses the stimulus format: one pattern per line, phases split by
/// `;`, assignments `NAME=0|1|X`.
fn parse_stim(net: &Network, text: &str) -> Result<Vec<Pattern>, String> {
    let mut patterns = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut phases = Vec::new();
        for chunk in body.split(';') {
            let mut inputs = Vec::new();
            for assign in chunk.split_whitespace() {
                let (name, val) = assign.split_once('=').ok_or_else(|| {
                    format!("stim line {}: `{assign}` is not NAME=VALUE", lineno + 1)
                })?;
                let node = net
                    .find_node(name)
                    .ok_or_else(|| format!("stim line {}: no node `{name}`", lineno + 1))?;
                let v = (val.len() == 1)
                    .then(|| Logic::from_char(val.chars().next().expect("one char")))
                    .flatten()
                    .ok_or_else(|| format!("stim line {}: bad value `{val}`", lineno + 1))?;
                inputs.push((node, v));
            }
            phases.push(Phase::strobe(inputs));
        }
        patterns.push(Pattern::labelled(phases, format!("line {}", lineno + 1)));
    }
    if patterns.is_empty() {
        return Err("stimulus file contains no patterns".into());
    }
    Ok(patterns)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    check_flags("stats", args)?;
    let path = args.first().ok_or("stats needs a netlist path")?;
    let net = load(path)?;
    println!("{}", NetworkStats::of(&net));
    println!("inputs:");
    for id in net.input_ids() {
        let node = net.node(id);
        let class = match node.class {
            fmossim::netlist::NodeClass::Input(v) => v,
            fmossim::netlist::NodeClass::Storage(_) => unreachable!("input_ids yields inputs"),
        };
        println!("  {} (default {})", node.name, class);
    }
    Ok(())
}

/// Lists the benchmark circuit zoo with per-circuit statistics — the
/// registry `faultsim --circuit` runs on.
fn cmd_zoo(args: &[String]) -> Result<(), String> {
    check_flags("zoo", args)?;
    println!(
        "{:<12} {:>11} {:>7} {:>8} {:>8}  description",
        "name", "transistors", "nodes", "patterns", "outputs"
    );
    for (name, _) in fmossim::testgen::ZOO {
        let w = fmossim::testgen::build_zoo(name)?;
        let stats = w.stats();
        println!(
            "{:<12} {:>11} {:>7} {:>8} {:>8}  {}",
            w.name,
            stats.transistors,
            stats.nodes,
            w.patterns.len(),
            w.outputs.len(),
            w.description,
        );
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    check_flags("gen", args)?;
    match args {
        [kind, a, b] if kind == "ram" => {
            let rows: usize = a.parse().map_err(|_| "rows must be a number")?;
            let cols: usize = b.parse().map_err(|_| "cols must be a number")?;
            let ram = Ram::new(rows, cols);
            print!("{}", write_netlist(ram.network()));
            eprintln!("generated RAM{}: {}", rows * cols, ram.stats());
            Ok(())
        }
        [kind, a, b] if kind == "regfile" => {
            let words: usize = a.parse().map_err(|_| "words must be a number")?;
            let bits: usize = b.parse().map_err(|_| "bits must be a number")?;
            let rf = RegisterFile::new(words, bits);
            print!("{}", write_netlist(rf.network()));
            eprintln!("generated register file: {}", rf.stats());
            Ok(())
        }
        _ => Err("gen needs: ram <rows> <cols> | regfile <words> <bits>".into()),
    }
}

/// Emits the paper's test sequence for a generated RAM in the
/// stimulus-file format, so `gen` + `stim` + `faultsim` compose:
///
/// ```text
/// fmossim gen  ram 8 8 > ram64.snl
/// fmossim stim ram 8 8 > ram64.stim
/// fmossim faultsim ram64.snl --stim ram64.stim --outputs DOUT --jobs 4
/// ```
fn cmd_stim(args: &[String]) -> Result<(), String> {
    check_flags("stim", args)?;
    let [kind, a, b, ..] = args else {
        return Err("stim needs: ram <rows> <cols> [--march-only]".into());
    };
    if kind != "ram" {
        return Err(format!("stim supports `ram`, not `{kind}`"));
    }
    let rows: usize = a.parse().map_err(|_| "rows must be a number")?;
    let cols: usize = b.parse().map_err(|_| "cols must be a number")?;
    let ram = Ram::new(rows, cols);
    let seq = if flag(args, "--march-only") {
        fmossim::testgen::TestSequence::march_only(&ram)
    } else {
        fmossim::testgen::TestSequence::full(&ram)
    };
    let net = ram.network();
    for pattern in seq.patterns() {
        let phases: Vec<String> = pattern
            .phases
            .iter()
            .map(|phase| {
                phase
                    .inputs
                    .iter()
                    .map(|&(n, v)| format!("{}={v}", net.node(n).name))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        println!("{} # {}", phases.join(" ; "), pattern.label);
    }
    eprintln!(
        "emitted {} patterns for RAM{} ({} rows x {} cols)",
        seq.len(),
        rows * cols,
        rows,
        cols
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    check_flags("sim", args)?;
    let path = args.first().ok_or("sim needs a netlist path")?;
    let net = load(path)?;
    let stim_path = opt(args, "--stim").ok_or("sim needs --stim <file>")?;
    let stim_text =
        std::fs::read_to_string(stim_path).map_err(|e| format!("cannot read stim: {e}"))?;
    let patterns = parse_stim(&net, &stim_text)?;
    let watch: Vec<NodeId> = match opt(args, "--watch") {
        Some(spec) => node_list(&net, spec)?,
        None => net.storage_ids().collect(),
    };

    let mut sim = LogicSim::new(&net);
    sim.settle();
    println!(
        "pattern,{}",
        watch
            .iter()
            .map(|&n| net.node(n).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    );
    for (pi, pattern) in patterns.iter().enumerate() {
        for phase in &pattern.phases {
            for &(n, v) in &phase.inputs {
                sim.set_input(n, v);
            }
            sim.settle();
        }
        let row: Vec<String> = watch.iter().map(|&n| sim.get(n).to_string()).collect();
        println!("{},{}", pi + 1, row.join(","));
    }
    Ok(())
}

fn cmd_faultsim(args: &[String]) -> Result<(), String> {
    check_flags("faultsim", args)?;
    let (net, patterns, outputs) = if let Some(name) = opt(args, "--circuit") {
        // Zoo mode: the registry supplies circuit, stimulus and
        // observed outputs; the file-based options would be ignored,
        // so mixing the modes is rejected rather than half-honoured.
        // A netlist path is any positional argument — scan past each
        // flag (and its value, for the value-taking ones) so a path
        // is caught in any position, not just the first.
        let mut i = 0;
        while i < args.len() {
            if !args[i].starts_with("--") {
                return Err(format!(
                    "--circuit replaces the netlist path; pass one or the other (got `{}`)",
                    args[i]
                ));
            }
            i += if matches!(args[i].as_str(), "--json" | "--serial") {
                1
            } else {
                2 // value-taking flag: skip its argument too
            };
        }
        for conflicting in ["--stim", "--outputs"] {
            if opt(args, conflicting).is_some() {
                return Err(format!(
                    "{conflicting} has no effect with --circuit: the zoo workload carries \
                     its own stimulus and observed outputs"
                ));
            }
        }
        let w = fmossim::testgen::build_zoo(name)?;
        eprintln!("zoo circuit {}: {}", w.name, w.stats());
        (w.net, w.patterns, w.outputs)
    } else {
        let path = args
            .first()
            .ok_or("faultsim needs a netlist path (or --circuit <zoo-name>; see `fmossim zoo`)")?;
        let net = load(path)?;
        let stim_path = opt(args, "--stim").ok_or("faultsim needs --stim <file>")?;
        let stim_text =
            std::fs::read_to_string(stim_path).map_err(|e| format!("cannot read stim: {e}"))?;
        let patterns = parse_stim(&net, &stim_text)?;
        let outputs = node_list(
            &net,
            opt(args, "--outputs").ok_or("faultsim needs --outputs")?,
        )?;
        (net, patterns, outputs)
    };

    let mut universe = universe_from_spec(&net, opt(args, "--universe").unwrap_or("stuck-nodes"))?;
    let seed: u64 = opt(args, "--seed")
        .map(|s| s.parse().map_err(|_| "--seed takes a number"))
        .transpose()?
        .unwrap_or(fmossim::faults::DEFAULT_SEED);
    if let Some(k) = opt(args, "--sample") {
        let k: usize = k.parse().map_err(|_| "--sample takes a number")?;
        universe = universe.sample(k, seed);
    }
    let jobs = opt(args, "--jobs")
        .map(|s| {
            Jobs::parse(s).ok_or(format!(
                "--jobs takes a positive number or `auto`, not `{s}`"
            ))
        })
        .transpose()?;
    let strategy = match opt(args, "--shard-strategy") {
        None => ShardStrategy::default(),
        Some(spec) => ShardStrategy::parse(spec).ok_or_else(|| {
            format!("unknown shard strategy `{spec}` (round-robin|contiguous|cost)")
        })?,
    };
    // --jobs implies the parallel backend, unless --backend overrides.
    let backend_name = opt(args, "--backend").unwrap_or(if jobs.is_some() {
        "parallel"
    } else {
        "concurrent"
    });
    if backend_name != "parallel" {
        for flag in ["--jobs", "--shard-strategy"] {
            if opt(args, flag).is_some() {
                return Err(format!(
                    "{flag} requires the parallel backend, not `{backend_name}`"
                ));
            }
        }
    }
    if flag(args, "--json") && flag(args, "--serial") {
        return Err(
            "--serial has no place in the --json artifact; run --backend serial --json as its \
             own campaign"
                .into(),
        );
    }
    let backend = match backend_name {
        "serial" => Backend::Serial(SerialConfig::paper()),
        "concurrent" => Backend::Concurrent(ConcurrentConfig::paper()),
        "parallel" => Backend::Parallel(ParallelConfig {
            jobs: jobs.unwrap_or(Jobs::Auto),
            strategy,
            ..ParallelConfig::auto()
        }),
        other => {
            return Err(format!(
                "unknown backend `{other}` (serial|concurrent|parallel)"
            ))
        }
    };
    let pool = match backend {
        Backend::Parallel(c) => format!(" [jobs {}, {strategy}]", c.jobs),
        _ => String::new(),
    };
    eprintln!(
        "{} faults, {} patterns, observing {} output(s), backend {}{}",
        universe.len(),
        patterns.len(),
        outputs.len(),
        backend.name(),
        pool,
    );

    // An attached --metrics registry records; the default null
    // registry is a no-op, so the campaign wiring is unconditional.
    let metrics_path = opt(args, "--metrics");
    let registry = if metrics_path.is_some() {
        Registry::new()
    } else {
        Registry::null()
    };
    let mut campaign = Campaign::new(&net)
        .faults(universe.clone())
        .patterns(&patterns)
        .outputs(&outputs)
        .backend(backend)
        .with_telemetry(&registry);
    if let Some(cov) = opt(args, "--stop-at-coverage") {
        let cov: f64 = cov
            .parse()
            .map_err(|_| "--stop-at-coverage takes a fraction")?;
        if !(0.0..=1.0).contains(&cov) {
            return Err(format!(
                "--stop-at-coverage takes a fraction in [0, 1], not {cov}"
            ));
        }
        campaign = campaign.stop_at_coverage(cov);
    }
    if let Some(n) = opt(args, "--pattern-limit") {
        let n: usize = n.parse().map_err(|_| "--pattern-limit takes a number")?;
        campaign = campaign.pattern_limit(n);
    }
    let report = campaign.run();

    if let Some(path) = metrics_path {
        let text = if path.ends_with(".json") {
            registry.to_json()
        } else {
            registry.to_prometheus()
        };
        std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!(
            "metrics: {} counter(s), {} gauge(s), {} histogram(s) -> {path}",
            report.metrics.counters.len(),
            report.metrics.gauges.len(),
            report.metrics.histograms.len(),
        );
    }

    if flag(args, "--json") {
        println!("{}", report.to_json());
        return Ok(());
    }
    println!(
        "detected {}/{} faults ({:.1}% coverage) in {:.3}s [{}]",
        report.detected(),
        report.run.num_faults,
        report.coverage() * 100.0,
        report.wall_seconds,
        report.backend,
    );
    // Echo what `--jobs auto` actually resolved to — the plan is
    // otherwise invisible to the user. (Resolution order: jobs first,
    // shard count from the resolved workers, tape only when more than
    // one shard exists.)
    if let (Some(jobs), Some(shards)) = (report.jobs, report.shards) {
        let tape = match (report.tape_groups, report.tape_peak_bytes) {
            (Some(groups), Some(peak)) => format!(
                "good tape replayed ({groups} groups streamed, peak {:.1} KiB held, followers waited {:.3}s)",
                peak as f64 / 1024.0,
                report.tape_wait_seconds.unwrap_or(0.0),
            ),
            _ => "good tape skipped (single shard)".to_string(),
        };
        println!(
            "{} plan: {jobs} worker(s) x {shards} shard(s), {tape}",
            report.backend
        );
    }
    for d in report.detections() {
        println!(
            "  pattern {:>4} phase {}: {}{}",
            d.pattern + 1,
            d.phase + 1,
            universe.fault(d.fault).describe(&net),
            if d.is_potential() {
                " (potential, X)"
            } else {
                ""
            }
        );
    }
    let detected: std::collections::HashSet<_> =
        report.detections().iter().map(|d| d.fault).collect();
    let missed: Vec<_> = universe
        .iter()
        .filter(|(id, _)| !detected.contains(id))
        .collect();
    if !missed.is_empty() {
        println!("undetected ({}):", missed.len());
        for (_, f) in missed {
            println!("  {}", f.describe(&net));
        }
    }

    if flag(args, "--serial") {
        let sreport = Campaign::new(&net)
            .faults(universe)
            .patterns(&patterns)
            .outputs(&outputs)
            .backend(Backend::Serial(SerialConfig::paper()))
            .run();
        println!(
            "serial reference: detected {}/{} in {:.3}s ({:.1}x {})",
            sreport.detected(),
            sreport.run.num_faults,
            sreport.wall_seconds,
            sreport.wall_seconds / report.wall_seconds,
            report.backend,
        );
    }
    Ok(())
}

fn resolve_addr(args: &[String]) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    let spec = opt(args, "--addr").ok_or("--addr HOST:PORT is required")?;
    spec.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{spec}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{spec}` resolves to no address"))
}

/// Starts the campaign server and serves until killed. The bound
/// address goes to stdout first so scripts can capture it even when
/// `--addr` leaves the port at 0.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags("serve", args)?;
    use fmossim::serve::{Server, ServerConfig};
    let mut config = ServerConfig::default();
    if let Some(addr) = opt(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(w) = opt(args, "--workers") {
        config.workers = w
            .parse()
            .map_err(|_| format!("--workers takes a number, not `{w}`"))?;
    }
    if let Some(mb) = opt(args, "--cache-mb") {
        let mb: usize = mb
            .parse()
            .map_err(|_| format!("--cache-mb takes a number, not `{mb}`"))?;
        config.cache_bytes = mb << 20;
    }
    if let Some(s) = opt(args, "--default-shards") {
        config.default_shards = s
            .parse()
            .map_err(|_| format!("--default-shards takes a number, not `{s}`"))?;
    }
    let server = Server::bind(&config).map_err(|e| format!("bind `{}`: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}

/// Builds the `POST /campaigns` JSON body from the CLI arguments —
/// either the zoo form or the inline netlist + stimulus form.
fn submission_body(args: &[String]) -> Result<String, String> {
    use fmossim::campaign::json::{obj, Value};
    use fmossim::serve::proto::patterns_to_json;
    let mut fields: Vec<(&str, Value)> = Vec::new();
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0
                    || !args[i - 1].starts_with("--")
                    || args[i - 1] == "--no-wait"
                    || args[i - 1] == "--json")
        })
        .map(|(_, a)| a)
        .collect();
    match (opt(args, "--circuit"), positional.first()) {
        (Some(circuit), None) => fields.push(("circuit", Value::Str(circuit.to_string()))),
        (None, Some(path)) => {
            let net = load(path)?;
            let stim_path = opt(args, "--stim").ok_or("inline submissions need --stim <file>")?;
            let stim = std::fs::read_to_string(stim_path)
                .map_err(|e| format!("cannot read `{stim_path}`: {e}"))?;
            let patterns = parse_stim(&net, &stim)?;
            let outputs = opt(args, "--outputs").ok_or("inline submissions need --outputs")?;
            let output_names: Vec<Value> = node_list(&net, outputs)?
                .into_iter()
                .map(|id| Value::Str(net.node(id).name.clone()))
                .collect();
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            fields.push(("netlist", Value::Str(text)));
            fields.push(("outputs", Value::Arr(output_names)));
            fields.push(("patterns", patterns_to_json(&net, &patterns)));
        }
        (Some(_), Some(_)) => return Err("give --circuit or a netlist file, not both".into()),
        (None, None) => return Err("submit needs --circuit <zoo-name> or a netlist file".into()),
    }
    if let Some(u) = opt(args, "--universe") {
        fields.push(("universe", Value::Str(u.to_string())));
    }
    if let Some(s) = opt(args, "--shards") {
        let shards: usize = s
            .parse()
            .map_err(|_| format!("--shards takes a number, not `{s}`"))?;
        fields.push(("shards", Value::Num(shards as f64)));
    }
    if let Some(cov) = opt(args, "--stop-at-coverage") {
        let target: f64 = cov
            .parse()
            .map_err(|_| "--stop-at-coverage takes a fraction")?;
        if !(0.0..=1.0).contains(&target) {
            return Err(format!(
                "--stop-at-coverage takes a fraction in [0, 1], not {cov}"
            ));
        }
        fields.push(("stop_at_coverage", Value::Num(target)));
    }
    if let Some(name) = opt(args, "--name") {
        fields.push(("name", Value::Str(name.to_string())));
    }
    Ok(obj(fields).to_string())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    check_flags("submit", args)?;
    use fmossim::campaign::json;
    use fmossim::campaign::CampaignReport;
    use fmossim::serve::{request, sse_events};

    let addr = resolve_addr(args)?;
    let body = submission_body(args)?;
    let resp = request(addr, "POST", "/campaigns", Some(&body))
        .map_err(|e| format!("POST /campaigns: {e}"))?;
    let text = resp.body_str().map_err(|e| e.to_string())?;
    if resp.status != 202 {
        return Err(format!(
            "server rejected the submission ({}): {}",
            resp.status,
            text.trim()
        ));
    }
    let doc = json::parse(text)?;
    let id = doc
        .get("id")
        .and_then(json::Value::as_str)
        .ok_or("malformed submission response")?
        .to_string();
    // With --json, stdout carries only the final status document so
    // the command pipes cleanly; progress goes to stderr.
    let json_out = flag(args, "--json");
    let progress = |line: String| {
        if json_out {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    progress(format!("submitted {id}"));
    if flag(args, "--no-wait") {
        return Ok(());
    }

    // Stream lifecycle events until the job is terminal; sim events
    // ride the same stream but only state changes are echoed.
    let events = sse_events(addr, &format!("/campaigns/{id}/events"))
        .map_err(|e| format!("SSE stream: {e}"))?;
    for (event, data) in &events {
        if matches!(event.as_str(), "status" | "done" | "error") {
            progress(format!("[{event}] {data}"));
        }
    }

    let resp = request(addr, "GET", &format!("/campaigns/{id}"), None)
        .map_err(|e| format!("GET /campaigns/{id}: {e}"))?;
    let text = resp.body_str().map_err(|e| e.to_string())?;
    if json_out {
        println!("{text}");
        return Ok(());
    }
    let doc = json::parse(text)?;
    let status = doc
        .get("status")
        .and_then(json::Value::as_str)
        .unwrap_or("unknown");
    if status == "failed" {
        let err = doc
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap_or("unknown error");
        return Err(format!("{id} failed: {err}"));
    }
    let report_value = doc.get("report").ok_or("status document has no report")?;
    let report = CampaignReport::from_json(&report_value.to_string())?;
    let cache_hit = doc.get("cache_hit").and_then(json::Value::as_bool);
    println!(
        "{id} {status}: detected {}/{} faults (coverage {:.1}%) in {:.3}s",
        report.detected(),
        report.run.num_faults,
        report.coverage() * 100.0,
        report.wall_seconds,
    );
    println!(
        "tape cache: {} (record pass {})",
        match cache_hit {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "unknown",
        },
        match report.tape_record_seconds {
            Some(s) => format!("{s:.3}s"),
            None => "none".to_string(),
        },
    );
    Ok(())
}

fn cmd_cancel(args: &[String]) -> Result<(), String> {
    check_flags("cancel", args)?;
    use fmossim::serve::request;
    let addr = resolve_addr(args)?;
    let id = args
        .iter()
        .find(|a| a.starts_with("job-"))
        .ok_or("cancel needs a job id (job-N)")?;
    let resp = request(addr, "DELETE", &format!("/campaigns/{id}"), None)
        .map_err(|e| format!("DELETE /campaigns/{id}: {e}"))?;
    let text = resp.body_str().map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("cancel failed ({}): {}", resp.status, text.trim()));
    }
    println!("{}", text.trim());
    Ok(())
}
