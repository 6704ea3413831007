//! Regenerates **Figure 1** of the paper: RAM64, test sequence 1.
//!
//! The paper simulates RAM64 with 428 faults over 407 patterns
//! (7 control + 40 row march + 40 column march + 320 array march) and
//! reports:
//!
//! * the rising curve — cumulative faults detected per pattern;
//! * the falling curve — CPU seconds per pattern, splitting into an
//!   expensive "head" (first 87 patterns, 71% of total time) and a
//!   cheap "tail" (running ~3× the good-circuit-alone speed);
//! * totals: good alone 2.7 min; concurrent 21.9 min; serial
//!   (estimated) 404 min; concurrent/serial performance ratio 18.
//!
//! Usage: `fig1_ram64 [--faults N] [--csv] [--fault-mix] [--measure-serial]`
//!
//! `--fault-mix` adds stuck-open/closed transistor faults to the
//! sampled universe (the paper's §5 validation that their performance
//! characteristics "did not differ significantly from those of node
//! faults"). `--measure-serial` also runs the true serial simulator
//! rather than only the paper's estimator.

use fmossim_bench::{
    compare_row, good_only_seconds, paper_universe, print_figure_csv, ram_with_bridges, seconds_in,
    transistor_universe, Flags, SEED,
};
use fmossim_campaign::{Backend, Campaign, SerialConfig};
use fmossim_core::ConcurrentConfig;
use fmossim_testgen::TestSequence;

fn main() {
    let flags = Flags::from_env(&["--csv", "--fault-mix", "--measure-serial"], &["--faults"]);
    let n_faults = flags.value("--faults").unwrap_or(428);
    let (ram, bridges) = ram_with_bridges(8, 8);
    let mut universe = paper_universe(&ram, bridges);
    if flags.has("--fault-mix") {
        universe = universe.union(transistor_universe(&ram));
    }
    let universe = universe.sample(n_faults, SEED);
    let seq = TestSequence::full(&ram);
    eprintln!(
        "RAM64 ({}), sequence 1 ({} patterns), {} faults",
        ram.stats(),
        seq.len(),
        universe.len()
    );

    let (good_total, good_avg) = good_only_seconds(&ram, seq.patterns());
    let campaign_report = Campaign::new(ram.network())
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
    let report = &campaign_report.run;

    if flags.has("--csv") {
        print_figure_csv(report);
    }

    let head = seq.head_len();
    let tail_patterns = report.patterns.len() - head;
    let tail_secs = seconds_in(report, head..report.patterns.len());
    let tail_per_pattern = tail_secs / tail_patterns as f64;
    let serial_est: f64 = report
        .patterns_to_detect()
        .iter()
        .map(|&p| p as f64 * good_avg)
        .sum();

    println!("== Figure 1: RAM64, test sequence 1 ==");
    println!(
        "{}",
        compare_row(
            "faults detected",
            format!("{}/{}", report.detected(), report.num_faults),
            "428/428 (fully tested)"
        )
    );
    println!(
        "{}",
        compare_row(
            "good circuit alone",
            format!("{good_total:.3} s"),
            "2.7 min"
        )
    );
    println!(
        "{}",
        compare_row(
            "concurrent fault simulation",
            format!("{:.3} s", report.total_seconds),
            "21.9 min"
        )
    );
    println!(
        "{}",
        compare_row(
            "serial (paper estimator)",
            format!("{serial_est:.3} s"),
            "404 min"
        )
    );
    println!(
        "{}",
        compare_row(
            "concurrent : good ratio",
            format!("{:.1}x", report.total_seconds / good_total),
            "8.1x"
        )
    );
    println!(
        "{}",
        compare_row(
            "serial : concurrent ratio",
            format!("{:.1}x", serial_est / report.total_seconds),
            "18x"
        )
    );
    println!(
        "{}",
        compare_row(
            &format!("time in head (first {head} patterns)"),
            format!("{:.0}%", report.head_time_fraction(head) * 100.0),
            "71%"
        )
    );
    println!(
        "{}",
        compare_row(
            "tail sec/pattern : good sec/pattern",
            format!("{:.1}x", tail_per_pattern / good_avg),
            "~3x"
        )
    );

    if flags.has("--measure-serial") {
        let sreport = Campaign::new(ram.network())
            .faults(universe)
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(Backend::Serial(SerialConfig::paper()))
            // The paper grades its whole universe: collapsing would shrink the work measured.
            .collapse(false)
            .run();
        println!(
            "{}",
            compare_row(
                "serial (measured)",
                format!("{:.3} s", sreport.run.total_seconds),
                "(404 min est.)"
            )
        );
        println!(
            "{}",
            compare_row(
                "serial(measured) : concurrent ratio",
                format!("{:.1}x", sreport.run.total_seconds / report.total_seconds),
                "18x"
            )
        );
    }
}
