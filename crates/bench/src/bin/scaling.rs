//! Regenerates the paper's §5 scaling comparison (text, p. 718–719):
//!
//! > "Comparing these results to the time required for RAM64, we see
//! > that both the time to simulate the good circuit alone and the time
//! > for concurrent simulation has scaled up by a factor of 9, while
//! > the time for serial simulation has scaled by a factor of 37. …
//! > concurrent simulation time scales as the size of the circuit times
//! > the number of patterns, assuming the number of faults is
//! > proportional to the circuit size. Serial simulation time, on the
//! > other hand, scales as the product of all three factors."
//!
//! RAM256 totals in the paper: good alone 25.3 min, concurrent 202 min
//! (3.4 h), serial 15 169 min (10.4 days).
//!
//! Usage: `scaling [--sizes 8,16,32]` — sweeping more sizes shows the
//! quadratic (good, concurrent) vs. cubic (serial) growth directly.

use fmossim_bench::{compare_row, good_only_seconds, paper_universe, ram_with_bridges, Flags};
use fmossim_campaign::{Backend, Campaign};
use fmossim_core::ConcurrentConfig;
use fmossim_testgen::TestSequence;

struct Row {
    label: String,
    faults: usize,
    patterns: usize,
    good: f64,
    concurrent: f64,
    serial_est: f64,
    detected: usize,
}

fn measure(dim: usize) -> Row {
    let (ram, bridges) = ram_with_bridges(dim, dim);
    let universe = paper_universe(&ram, bridges);
    let seq = TestSequence::full(&ram);
    let (good_total, good_avg) = good_only_seconds(&ram, seq.patterns());
    let report = Campaign::new(ram.network())
        .faults(universe.clone())
        .patterns(seq.patterns())
        .outputs(ram.observed_outputs())
        // The paper settles one faulty circuit at a time: packed lanes would move its wall-time ratios.
        .backend(Backend::Concurrent(ConcurrentConfig {
            packing: false,
            ..ConcurrentConfig::paper()
        }))
        // The paper grades its whole universe: collapsing would shrink the work measured.
        .collapse(false)
        .run();
    let serial_est: f64 = report
        .run
        .patterns_to_detect()
        .iter()
        .map(|&p| p as f64 * good_avg)
        .sum();
    Row {
        label: format!("RAM{} ({})", dim * dim, ram.stats()),
        faults: universe.len(),
        patterns: seq.len(),
        good: good_total,
        concurrent: report.run.total_seconds,
        serial_est,
        detected: report.detected(),
    }
}

fn main() {
    let flags = Flags::from_env(&[], &["--sizes"]);
    let sizes: Vec<usize> = flags.list("--sizes").unwrap_or_else(|| vec![8, 16]);
    let rows: Vec<Row> = sizes.iter().map(|&d| measure(d)).collect();

    println!("== Scaling: good vs. concurrent vs. serial ==");
    println!("circuit,faults,patterns,good_s,concurrent_s,serial_est_s,detected");
    for r in &rows {
        println!(
            "\"{}\",{},{},{:.4},{:.4},{:.4},{}",
            r.label, r.faults, r.patterns, r.good, r.concurrent, r.serial_est, r.detected
        );
    }
    if rows.len() >= 2 {
        let a = &rows[0];
        let b = &rows[1];
        println!();
        println!(
            "{}",
            compare_row(
                "good-alone scale factor",
                format!("{:.1}x", b.good / a.good),
                "9x"
            )
        );
        println!(
            "{}",
            compare_row(
                "concurrent scale factor",
                format!("{:.1}x", b.concurrent / a.concurrent),
                "9x"
            )
        );
        println!(
            "{}",
            compare_row(
                "serial scale factor",
                format!("{:.1}x", b.serial_est / a.serial_est),
                "37x"
            )
        );
        println!(
            "{}",
            compare_row(
                "serial:concurrent ratio (small)",
                format!("{:.1}x", a.serial_est / a.concurrent),
                "18x (RAM64)"
            )
        );
        println!(
            "{}",
            compare_row(
                "serial:concurrent ratio (large)",
                format!("{:.1}x", b.serial_est / b.concurrent),
                "75x (RAM256: 15169/202)"
            )
        );
        println!(
            "{}",
            compare_row(
                "concurrent tracks good as circuits grow",
                format!(
                    "{:.1}x vs {:.1}x",
                    b.concurrent / a.concurrent,
                    b.good / a.good
                ),
                "both 9x"
            )
        );
    }
}
