//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, in order: a header, the host/build
//! row, every metric with its unit (and, traced, the self-time table),
//! and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! `BENCHMARK.json` metrics of the mode. Each run also appends its row
//! to `perfbench-out/results.jsonl` and, traced, writes its spans as
//! Chrome trace-event JSON to `perfbench-out/`.
//!
//! `--calibrate --seed <n> --seconds <s>` instead measures the serving
//! capacity closed-loop with the client count recorded in `pins.json`.

use fmossim_perfbench::batch::{self, Scale};
use fmossim_perfbench::{
    host, parse_pins, serve_mix, trace, Metric, Outcome, PINS_JSON, WORKLOADS,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Where results and traces go, relative to the working directory.
const OUT_DIR: &str = "perfbench-out";

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    arg(args, name)
        .ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("bad value for {name}"))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let pins = parse_pins(PINS_JSON)?;
    let seed: u64 = required(&args, "--seed")?;
    let seconds: f64 = required(&args, "--seconds")?;
    if args.iter().any(|a| a == "--calibrate") {
        let clients = pins.serve.calibration_clients;
        let cap = serve_mix::capacity(seed, seconds, clients, &pins.serve)?;
        println!("serve-mix capacity with {clients} closed-loop clients: {cap:.4} req/s");
        println!("40%: {:.4} req/s, 75%: {:.4} req/s", 0.4 * cap, 0.75 * cap);
        return Ok(());
    }
    let workload: String = required(&args, "--workload")?;
    let traced = match required::<u8>(&args, "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }

    let out: Outcome = match (workload == batch::NAME, traced) {
        (true, false) => batch::run(Scale::Full, seed, seconds, &pins.rand4k),
        (true, true) => batch::run_traced(Scale::Full, seed, seconds, &pins.rand4k),
        (false, _) => serve_mix::run(seed, seconds, &pins.serve, traced)?,
    };

    let host_row = format!(
        "{{\"nproc\": {}, \"workers\": {}, \"shards\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        host::nproc(),
        out.workers,
        out.shards,
        host::commit(),
        host::rustc()
    );
    println!(
        "# perfbench {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    );
    println!("# host {host_row}");
    let mut table = String::new();
    for m in out.metrics.iter().chain(&out.extra) {
        let _ = writeln!(
            table,
            "{:<26} {:>18} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    print!("{table}");

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if let Some((spans, tracks)) = &out.trace {
        let wall = out
            .metrics
            .iter()
            .find(|m| m.name == "trace.wall_s")
            .map_or(1.0, |m| m.value);
        println!("# self-time table (wall {wall:.6} s)");
        print!("{}", trace::render_table(&trace::table(spans), wall));
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}-seed{seed}.json"));
        std::fs::write(&path, trace::chrome_json(spans, tracks))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }

    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
    let row = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"host\": {host_row}, \"result\": {result}, \"extra\": {}}}\n",
        metrics_json(&out.extra)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(OUT_DIR).join("results.jsonl"))
        .and_then(|mut f| f.write_all(row.as_bytes()))
        .map_err(|e| format!("{OUT_DIR}/results.jsonl: {e}"))?;
    println!("{result}");
    Ok(())
}
