//! Regenerates **Figure 2** of the paper: RAM64, test sequence 2.
//!
//! Sequence 2 omits the row and column marching tests (327 patterns).
//! "Except for the 65 faults detected during the first seven patterns,
//! all other faults are detected slowly as the marching test of the
//! memory array proceeds, including faults in the address decoding and
//! bus control logic. The time per pattern drops more slowly than
//! before" — total 49 min concurrent vs. 448 min serial, a performance
//! ratio of only 9 (vs. 18 for sequence 1), "due largely to the lack of
//! a tail end effect".
//!
//! Usage: `fig2_ram64 [--faults N] [--csv]`

use fmossim_bench::{
    compare_row, good_only_seconds, paper_universe, print_figure_csv, ram_with_bridges, Flags, SEED,
};
use fmossim_campaign::{Backend, Campaign};
use fmossim_core::ConcurrentConfig;
use fmossim_testgen::TestSequence;

fn main() {
    let flags = Flags::from_env(&["--csv"], &["--faults"]);
    let n_faults = flags.value("--faults").unwrap_or(428);
    let (ram, bridges) = ram_with_bridges(8, 8);
    let universe = paper_universe(&ram, bridges).sample(n_faults, SEED);
    let seq1 = TestSequence::full(&ram);
    let seq2 = TestSequence::march_only(&ram);
    eprintln!(
        "RAM64, sequence 2 ({} patterns vs. {} in sequence 1), {} faults",
        seq2.len(),
        seq1.len(),
        universe.len()
    );

    let concurrent = |patterns: &[fmossim_core::Pattern]| {
        Campaign::new(ram.network())
            .faults(universe.clone())
            .patterns(patterns)
            .outputs(ram.observed_outputs())
            // The paper settles one faulty circuit at a time: packed lanes would move its wall-time ratios.
            .backend(Backend::Concurrent(ConcurrentConfig {
                packing: false,
                ..ConcurrentConfig::paper()
            }))
            // The paper grades its whole universe: collapsing would shrink the work measured.
            .collapse(false)
            .run()
            .run
    };

    // Sequence 2 run.
    let (good2, good2_avg) = good_only_seconds(&ram, seq2.patterns());
    let report2 = concurrent(seq2.patterns());
    if flags.has("--csv") {
        print_figure_csv(&report2);
    }
    let serial2: f64 = report2
        .patterns_to_detect()
        .iter()
        .map(|&p| p as f64 * good2_avg)
        .sum();

    // Sequence 1 reference (for the ratio-of-ratios comparison).
    let (_, good1_avg) = good_only_seconds(&ram, seq1.patterns());
    let report1 = concurrent(seq1.patterns());
    let serial1: f64 = report1
        .patterns_to_detect()
        .iter()
        .map(|&p| p as f64 * good1_avg)
        .sum();
    let ratio1 = serial1 / report1.total_seconds;
    let ratio2 = serial2 / report2.total_seconds;

    let cum = report2.cumulative_detections();
    println!("== Figure 2: RAM64, test sequence 2 (row/column marches omitted) ==");
    println!(
        "{}",
        compare_row("detected in first 7 patterns", format!("{}", cum[6]), "65")
    );
    println!(
        "{}",
        compare_row(
            "faults detected",
            format!("{}/{}", report2.detected(), report2.num_faults),
            "(all eventually)"
        )
    );
    println!(
        "{}",
        compare_row("good circuit alone", format!("{good2:.3} s"), "—")
    );
    println!(
        "{}",
        compare_row(
            "concurrent fault simulation",
            format!("{:.3} s", report2.total_seconds),
            "49 min (vs. 21.9 for seq 1!)"
        )
    );
    println!(
        "{}",
        compare_row(
            "serial (paper estimator)",
            format!("{serial2:.3} s"),
            "448 min"
        )
    );
    println!(
        "{}",
        compare_row(
            "serial : concurrent ratio (seq 2)",
            format!("{ratio2:.1}x"),
            "9x"
        )
    );
    println!(
        "{}",
        compare_row(
            "serial : concurrent ratio (seq 1)",
            format!("{ratio1:.1}x"),
            "18x"
        )
    );
    println!(
        "{}",
        compare_row(
            "seq-1 advantage (ratio1/ratio2)",
            format!("{:.1}x", ratio1 / ratio2),
            "2x"
        )
    );
    println!(
        "{}",
        compare_row(
            "concurrent seq2 : seq1 time",
            format!("{:.2}x", report2.total_seconds / report1.total_seconds),
            "2.2x (49/21.9) despite fewer patterns"
        )
    );
}
