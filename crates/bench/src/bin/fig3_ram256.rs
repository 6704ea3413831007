//! Regenerates **Figure 3** of the paper: RAM256, average time per
//! pattern vs. number of (randomly sampled) faults.
//!
//! The paper sweeps the fault count from 0 to all 1382 single stuck-at
//! and bus-short faults and finds both concurrent and serial simulation
//! time linear in the number of faults, with serial about 85× slower
//! (note Figure 3's serial axis is scaled 100:1). Linearity of the
//! concurrent curve shows "we pay no penalty for the overhead of
//! maintaining the node states as lists that must be searched".
//!
//! Usage: `fig3_ram256 [--steps N] [--measure-serial] [--small]`
//!
//! `--small` runs the sweep on RAM64 instead (quick check).
//! Serial times default to the paper's estimator; `--measure-serial`
//! runs the true serial simulator as well (slow: O(faults × patterns)).

use fmossim_bench::{compare_row, paper_universe, ram_with_bridges, Flags, SEED};
use fmossim_campaign::{Backend, Campaign, SerialConfig};
use fmossim_core::{ConcurrentConfig, SerialSim};
use fmossim_testgen::TestSequence;

fn main() {
    let flags = Flags::from_env(&["--measure-serial", "--small"], &["--steps"]);
    let steps: usize = flags.value("--steps").unwrap_or(6);
    let measure_serial = flags.has("--measure-serial");
    let (rows, cols) = if flags.has("--small") {
        (8, 8)
    } else {
        (16, 16)
    };
    let (ram, bridges) = ram_with_bridges(rows, cols);
    let universe = paper_universe(&ram, bridges);
    let seq = TestSequence::full(&ram);
    let total = universe.len();
    eprintln!(
        "RAM{} ({}), sequence 1 ({} patterns), sweeping 0..={} faults in {} steps",
        rows * cols,
        ram.stats(),
        seq.len(),
        total,
        steps
    );

    let serial_ref = SerialSim::new(ram.network(), SerialConfig::paper());
    let good = serial_ref.observe_good(seq.patterns(), ram.observed_outputs());
    let good_avg = good.avg_pattern_seconds();
    let n_patterns = seq.len() as f64;

    println!("faults,concurrent_sec_per_pattern,serial_est_sec_per_pattern,serial_measured_sec_per_pattern,detected");
    let mut rowstats: Vec<(usize, f64, f64)> = Vec::new();
    for i in 0..=steps {
        let k = total * i / steps;
        let sample = universe.sample(k, SEED + i as u64);
        let report = Campaign::new(ram.network())
            .faults(sample.clone())
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            // The paper settles one faulty circuit at a time: packed lanes would move its wall-time ratios.
            .backend(Backend::Concurrent(ConcurrentConfig {
                packing: false,
                ..ConcurrentConfig::paper()
            }))
            // The paper grades its whole universe: collapsing would shrink the work measured.
            .collapse(false)
            .run()
            .run;
        let conc_pp = report.total_seconds / n_patterns;
        let serial_est: f64 = report
            .patterns_to_detect()
            .iter()
            .map(|&p| p as f64 * good_avg)
            .sum();
        let serial_est_pp = serial_est / n_patterns;
        let measured_pp = if measure_serial {
            let sreport = Campaign::new(ram.network())
                .faults(sample)
                .patterns(seq.patterns())
                .outputs(ram.observed_outputs())
                .backend(Backend::Serial(SerialConfig::paper()))
                // The paper grades its whole universe: collapsing would shrink the work measured.
                .collapse(false)
                .run();
            format!("{:.6}", sreport.run.total_seconds / n_patterns)
        } else {
            String::from("")
        };
        println!(
            "{k},{conc_pp:.6},{serial_est_pp:.6},{measured_pp},{}",
            report.detected()
        );
        rowstats.push((k, conc_pp, serial_est_pp));
    }

    // Linearity + slope-ratio summary over the sweep (skip the 0 point).
    let (k1, c1, s1) = rowstats[1];
    let (kn, cn, sn) = *rowstats.last().expect("at least two steps");
    let conc_slope = (cn - c1) / (kn - k1) as f64;
    let serial_slope = (sn - s1) / (kn - k1) as f64;
    println!();
    println!("== Figure 3 summary ==");
    println!(
        "{}",
        compare_row(
            "serial slope : concurrent slope",
            format!("{:.0}x", serial_slope / conc_slope),
            "~85x (serial axis is 100:1 in the figure)"
        )
    );
    // Linearity check: middle point vs. linear interpolation of ends.
    let mid = rowstats[rowstats.len() / 2];
    let interp = c1 + conc_slope * (mid.0 - k1) as f64;
    println!(
        "{}",
        compare_row(
            "concurrent linearity (mid/interp)",
            format!("{:.2}", mid.1 / interp),
            "1.0 (linear)"
        )
    );
}
