//! Regenerates the paper's evaluation (§5): Table 1, then every rung of
//! the ladder in `fmossim_bench::figures` (Figures 1–3, the transistor
//! fault validation and the RAM scaling), each ratio in solved
//! vicinities beside the wall-clock ratio and the paper's value.
//!
//! Usage: `paper_figures [--csv]`
//!
//! The vicinity counts are exact and pinned by `tests/paper_counts.rs`;
//! the wall-clock ratios depend on the host and are printed only for
//! comparison. `--csv` also prints the per-pattern curves of Figures 1
//! and 2. The whole ladder takes about 10 s in release.

use fmossim_bench::figures::{measure, slope_and_linearity, sweep, Measured, Ratios, LADDER};
use fmossim_bench::Flags;
use fmossim_netlist::{Logic, TransistorType};

/// Figure 3's sweep steps, from no faults to the whole universe.
const SWEEP_STEPS: usize = 6;

fn main() {
    let flags = Flags::from_env(&["--csv"], &[]);
    table1();

    println!();
    println!("== Work in solved vicinities (exact) ==");
    println!(
        "{:<18} {:>6} {:>8} {:>11} {:>13} {:>17} {:>11} {:>9} {:>8}",
        "rung",
        "faults",
        "patterns",
        "good_groups",
        "faulty_groups",
        "serial_est_groups",
        "head_groups",
        "head_pats",
        "detected"
    );
    let measured: Vec<Measured> = LADDER
        .iter()
        .map(|rung| {
            let m = measure(rung);
            let c = &m.counts;
            println!(
                "counts {:<11} {:>6} {:>8} {:>11} {:>13} {:>17} {:>11} {:>9} {:>8}",
                rung.name,
                c.faults,
                c.patterns,
                c.good_groups,
                c.faulty_groups,
                c.serial_est_groups,
                c.head_groups,
                c.head_patterns,
                c.detected
            );
            m
        })
        .collect();

    for (rung, m) in LADDER.iter().zip(&measured) {
        let c = &m.counts;
        println!();
        println!(
            "== {} ({}): RAM{}, {} faults, {} patterns ==",
            rung.name,
            rung.figure,
            rung.dim * rung.dim,
            c.faults,
            c.patterns
        );
        row("", "groups", "wall", "paper");
        let labels = [
            "concurrent : good",
            "serial estimate : concurrent",
            "head share of the work",
            "tail per pattern : good per pattern",
        ];
        let (groups, wall) = (cells(&c.ratios()), cells(&m.wall_ratios()));
        for (i, label) in labels.iter().enumerate() {
            row(label, &groups[i], &wall[i], rung.paper[i]);
        }
        row(
            &format!("detected after {} patterns", c.head_patterns),
            &c.head_detected.to_string(),
            "",
            rung.paper[4],
        );
        row(
            "detected",
            &format!("{}/{}", c.detected, c.faults),
            "",
            &format!(
                "({:.3} s concurrent, {:.3} s good alone)",
                m.wall.concurrent, m.wall.good
            ),
        );
    }

    let work = |m: &Measured| (m.counts.concurrent_groups() as f64, m.wall.concurrent);
    let good = |m: &Measured| (m.counts.good_groups as f64, m.wall.good);
    let serial = |m: &Measured| (m.counts.serial_est_groups as f64, m.wall.serial_est);
    let serial_ratio = |m: &Measured| {
        (
            m.counts.ratios().serial_over_concurrent,
            m.wall_ratios().serial_over_concurrent,
        )
    };
    let (seq1, seq2) = (&measured[0], &measured[1]);
    println!();
    println!("== Sequence 2 against sequence 1 (Figure 2) ==");
    compare(
        "concurrent work, seq 2 : seq 1",
        work(seq2),
        work(seq1),
        "2.2x",
    );
    compare(
        "serial:concurrent, seq 1 : seq 2",
        serial_ratio(seq1),
        serial_ratio(seq2),
        "2x",
    );

    println!();
    println!("== Scaling with RAM size (§5) ==");
    for (small, large, paper) in [(0, 3, ["9x", "9x", "37x"]), (3, 4, ["—"; 3])] {
        let bits = |i: usize| LADDER[i].dim * LADDER[i].dim;
        let step = format!("RAM{} -> RAM{}", bits(small), bits(large));
        let (small, large) = (&measured[small], &measured[large]);
        compare(
            &format!("good alone, {step}"),
            good(large),
            good(small),
            paper[0],
        );
        compare(
            &format!("concurrent, {step}"),
            work(large),
            work(small),
            paper[1],
        );
        compare(
            &format!("serial est., {step}"),
            serial(large),
            serial(small),
            paper[2],
        );
    }

    println!();
    println!("== Figure 3: RAM256 work per pattern against sampled faults ==");
    println!("faults,concurrent_groups,serial_est_groups,concurrent_s,serial_est_s,detected");
    let mut in_groups = Vec::new();
    let mut in_seconds = Vec::new();
    for p in sweep(&LADDER[3], SWEEP_STEPS) {
        let (c, n) = (&p.counts, p.counts.patterns as f64);
        let g = (
            c.concurrent_groups() as f64 / n,
            c.serial_est_groups as f64 / n,
        );
        let w = (p.wall.concurrent / n, p.wall.serial_est / n);
        println!(
            "{},{:.1},{:.1},{:.6},{:.6},{}",
            c.faults, g.0, g.1, w.0, w.1, c.detected
        );
        in_groups.push((c.faults, g.0, g.1));
        in_seconds.push((c.faults, w.0, w.1));
    }
    let (slope_g, linear_g) = slope_and_linearity(&in_groups);
    let (slope_w, linear_w) = slope_and_linearity(&in_seconds);
    row("", "groups", "wall", "paper");
    row(
        "serial slope : concurrent slope",
        &format!("{slope_g:.1}x"),
        &format!("{slope_w:.1}x"),
        "~85x",
    );
    row(
        "concurrent linearity (mid / line)",
        &format!("{linear_g:.3}"),
        &format!("{linear_w:.3}"),
        "1.0",
    );

    if flags.has("--csv") {
        println!();
        println!("rung,pattern,seconds,good_groups,faulty_groups,cumulative_detected,live_before");
        // The first two rungs are Figures 1 and 2.
        for (rung, m) in LADDER.iter().zip(&measured).take(2) {
            let cumulative = m.report.cumulative_detections();
            for (i, p) in m.report.patterns.iter().enumerate() {
                println!(
                    "{},{},{:.6},{},{},{},{}",
                    rung.name,
                    i + 1,
                    p.seconds,
                    p.good_groups,
                    p.faulty_groups,
                    cumulative[i],
                    p.live_before
                );
            }
        }
    }
}

/// One line of a comparison table.
fn row(label: &str, groups: &str, wall: &str, paper: &str) {
    println!("{label:<40} {groups:>10} {wall:>10}   {paper}");
}

/// The four ratios formatted in [`Ratios`] order.
fn cells(r: &Ratios) -> [String; 4] {
    [
        format!("{:.2}x", r.concurrent_over_good),
        format!("{:.2}x", r.serial_over_concurrent),
        format!("{:.1}%", r.head_share * 100.0),
        format!("{:.2}x", r.tail_over_good),
    ]
}

/// Prints `large / small` in groups and in seconds beside the paper.
fn compare(label: &str, large: (f64, f64), small: (f64, f64), paper: &str) {
    row(
        label,
        &format!("{:.2}x", large.0 / small.0),
        &format!("{:.2}x", large.1 / small.1),
        paper,
    );
}

/// Table 1: transistor state as a function of gate node state.
fn table1() {
    println!("== Table 1: transistor state as a function of gate node state ==");
    println!("gate state   n-type   p-type   d-type");
    for gate in [Logic::L, Logic::H, Logic::X] {
        let row: Vec<String> = TransistorType::ALL
            .iter()
            .map(|t| t.conduction(gate).to_string())
            .collect();
        println!(
            "    {}            {}        {}        {}",
            gate, row[0], row[1], row[2]
        );
    }
    println!("(paper: 0 -> 0,1,1   1 -> 1,0,1   X -> X,X,1; asserted exhaustively in");
    println!(" fmossim-netlist::ttype::tests::table_1)");
}
