//! The paper's figures as a fixed ladder of campaigns, counted in
//! vicinity solves.
//!
//! Every rung runs the concurrent simulator the way the paper did: one
//! faulty circuit settled at a time (`packing: false`) over the whole
//! universe (`.collapse(false)`). Work is counted in solved vicinities
//! (`PatternStats::good_groups` / `faulty_groups`). The counts are
//! exact and do not depend on the host, so `tests/paper_counts.rs`
//! pins them. Wall-clock times are measured beside them and are not
//! gated: on these runs of 0.01–5 s they move with the host and with
//! the relative cost of a good and a faulty solve.
//!
//! Both views go through the same arithmetic ([`Ratios`]) and the same
//! serial estimator.

use crate::{paper_universe, ram_with_bridges, transistor_universe, SEED};
use fmossim_campaign::{Backend, Campaign};
use fmossim_circuits::Ram;
use fmossim_core::{ConcurrentConfig, Pattern, RunReport, SerialConfig, SerialSim};
use fmossim_faults::FaultUniverse;
use fmossim_testgen::TestSequence;
use std::ops::Add;

/// The paper's test sequence a rung runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sequence {
    /// Sequence 1: control test, row and column marches, array march.
    One,
    /// Sequence 2: sequence 1 without the row and column marches.
    Two,
}

/// The fault universe a rung draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Universe {
    /// Stuck-at storage nodes plus adjacent bit-line bridges (§5).
    Paper,
    /// [`Universe::Paper`] plus stuck-open and stuck-closed transistors
    /// (the §5 validation that transistor faults behave like node faults).
    Mix,
}

/// One rung of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Short name, the first word of the rung's count row.
    pub name: &'static str,
    /// The paper item the rung reproduces.
    pub figure: &'static str,
    /// The RAM is `dim` x `dim` bits.
    pub dim: usize,
    /// The test sequence.
    pub sequence: Sequence,
    /// The fault universe.
    pub universe: Universe,
    /// Faults sampled from the universe with [`SEED`], or `None` for
    /// the whole universe.
    pub sample: Option<usize>,
    /// The paper's concurrent:good, serial:concurrent, head share and
    /// tail:good (in [`Ratios`] order), then its detections by the end
    /// of the head; "—" where the paper gives none.
    pub paper: [&'static str; 5],
}

/// The ladder, smallest rung first.
pub const LADDER: [Rung; 5] = [
    Rung {
        name: "ram64-seq1",
        figure: "Figure 1",
        dim: 8,
        sequence: Sequence::One,
        universe: Universe::Paper,
        sample: Some(428),
        paper: ["8.1x", "18x", "71%", "~3x", "—"],
    },
    Rung {
        name: "ram64-seq2",
        figure: "Figure 2",
        dim: 8,
        sequence: Sequence::Two,
        universe: Universe::Paper,
        sample: Some(428),
        paper: ["—", "9x", "—", "—", "65"],
    },
    Rung {
        name: "ram64-mix",
        figure: "§5 transistor faults",
        dim: 8,
        sequence: Sequence::One,
        universe: Universe::Mix,
        sample: Some(428),
        paper: ["8.1x", "18x", "71%", "~3x", "—"],
    },
    Rung {
        name: "ram256",
        figure: "Figure 3, §5 scaling",
        dim: 16,
        sequence: Sequence::One,
        universe: Universe::Paper,
        sample: None,
        paper: ["8.0x", "75x", "—", "—", "—"],
    },
    Rung {
        name: "ram1024",
        figure: "§5 scaling",
        dim: 32,
        sequence: Sequence::One,
        universe: Universe::Paper,
        sample: None,
        paper: ["—", "—", "—", "—", "—"],
    },
];

/// A rung's exact work, in solved vicinities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Faults simulated.
    pub faults: usize,
    /// Patterns applied.
    pub patterns: usize,
    /// Vicinities solved for the good circuit.
    pub good_groups: u64,
    /// Vicinities solved across all faulty circuits.
    pub faulty_groups: u64,
    /// The serial estimate: each fault costs the good circuit's groups
    /// up to the pattern that detects it.
    pub serial_est_groups: u64,
    /// Patterns before the array march (the paper's "head").
    pub head_patterns: usize,
    /// Good plus faulty groups in the head.
    pub head_groups: u64,
    /// Faults detected by the end of the head.
    pub head_detected: usize,
    /// Faults detected.
    pub detected: usize,
}

/// A rung's wall-clock times, in seconds: host-dependent, not gated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Wall {
    /// The good circuit simulated alone.
    pub good: f64,
    /// The concurrent fault simulation.
    pub concurrent: f64,
    /// The serial estimate over the good-alone per-pattern times.
    pub serial_est: f64,
    /// The concurrent time spent in the head.
    pub head: f64,
}

/// The paper's four ratios, from either view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratios {
    /// Concurrent work over the good circuit's alone.
    pub concurrent_over_good: f64,
    /// The serial estimate over the concurrent work.
    pub serial_over_concurrent: f64,
    /// The head's share of the concurrent work.
    pub head_share: f64,
    /// Concurrent work per tail pattern over good work per pattern.
    pub tail_over_good: f64,
}

impl Ratios {
    fn new(good: f64, concurrent: f64, serial_est: f64, head: f64, c: &Counts) -> Self {
        let tail_patterns = (c.patterns - c.head_patterns) as f64;
        Ratios {
            concurrent_over_good: concurrent / good,
            serial_over_concurrent: serial_est / concurrent,
            head_share: head / concurrent,
            tail_over_good: ((concurrent - head) / tail_patterns) / (good / c.patterns as f64),
        }
    }
}

impl Counts {
    /// Good plus faulty groups.
    #[must_use]
    pub fn concurrent_groups(&self) -> u64 {
        self.good_groups + self.faulty_groups
    }

    /// The ratios in groups.
    #[must_use]
    pub fn ratios(&self) -> Ratios {
        Ratios::new(
            self.good_groups as f64,
            self.concurrent_groups() as f64,
            self.serial_est_groups as f64,
            self.head_groups as f64,
            self,
        )
    }
}

/// One measured rung (or sweep point).
#[derive(Clone, Debug)]
pub struct Measured {
    /// Exact work counts.
    pub counts: Counts,
    /// Wall-clock times.
    pub wall: Wall,
    /// The concurrent run, for the per-pattern curves.
    pub report: RunReport,
}

impl Measured {
    /// The ratios in seconds.
    #[must_use]
    pub fn wall_ratios(&self) -> Ratios {
        let w = &self.wall;
        Ratios::new(w.good, w.concurrent, w.serial_est, w.head, &self.counts)
    }
}

/// The paper's serial estimator: every fault costs the good circuit's
/// cost up to and including the pattern that detects it (all patterns
/// if it is never detected). `to_detect` is
/// [`RunReport::patterns_to_detect`].
fn serial_estimate<T: Copy + Default + Add<Output = T>>(
    good_per_pattern: &[T],
    to_detect: &[usize],
) -> T {
    let mut cumulative = vec![T::default()];
    for &cost in good_per_pattern {
        cumulative.push(*cumulative.last().expect("starts non-empty") + cost);
    }
    to_detect
        .iter()
        .fold(T::default(), |acc, &p| acc + cumulative[p])
}

/// A rung's circuit, its sequence and the universe it draws from.
struct Setup {
    ram: Ram,
    seq: TestSequence,
    universe: FaultUniverse,
}

fn setup(rung: &Rung) -> Setup {
    let (ram, bridges) = ram_with_bridges(rung.dim, rung.dim);
    let mut universe = paper_universe(&ram, bridges);
    if rung.universe == Universe::Mix {
        universe = universe.union(transistor_universe(&ram));
    }
    let seq = match rung.sequence {
        Sequence::One => TestSequence::full(&ram),
        Sequence::Two => TestSequence::march_only(&ram),
    };
    Setup { ram, seq, universe }
}

/// The one campaign every rung runs: concurrent, one faulty circuit at
/// a time, every fault graded.
fn concurrent(ram: &Ram, faults: FaultUniverse, patterns: &[Pattern]) -> RunReport {
    Campaign::new(ram.network())
        .faults(faults)
        .patterns(patterns)
        .outputs(ram.observed_outputs())
        // The paper settles one faulty circuit at a time.
        .backend(Backend::Concurrent(ConcurrentConfig {
            packing: false,
            ..ConcurrentConfig::paper()
        }))
        // The paper grades its whole universe.
        .collapse(false)
        .run()
        .run
}

fn run(s: &Setup, faults: FaultUniverse) -> Measured {
    let patterns = s.seq.patterns();
    let good = SerialSim::new(s.ram.network(), SerialConfig::paper())
        .observe_good(patterns, s.ram.observed_outputs());
    let report = concurrent(&s.ram, faults, patterns);
    let head = s.seq.head_len();
    let to_detect = report.patterns_to_detect();
    let good_groups: Vec<u64> = report
        .patterns
        .iter()
        .map(|p| p.good_groups as u64)
        .collect();
    let head_patterns = &report.patterns[..head];
    let counts = Counts {
        faults: report.num_faults,
        patterns: report.patterns.len(),
        good_groups: good_groups.iter().sum(),
        faulty_groups: report.patterns.iter().map(|p| p.faulty_groups as u64).sum(),
        serial_est_groups: serial_estimate(&good_groups, &to_detect),
        head_patterns: head,
        head_groups: head_patterns
            .iter()
            .map(|p| (p.good_groups + p.faulty_groups) as u64)
            .sum(),
        head_detected: head_patterns.iter().map(|p| p.detected).sum(),
        detected: report.detected(),
    };
    let wall = Wall {
        good: good.total_seconds,
        concurrent: report.total_seconds,
        serial_est: serial_estimate(&good.pattern_seconds, &to_detect),
        head: head_patterns.iter().map(|p| p.seconds).sum(),
    };
    Measured {
        counts,
        wall,
        report,
    }
}

/// Runs one rung.
#[must_use]
pub fn measure(rung: &Rung) -> Measured {
    let s = setup(rung);
    let faults = match rung.sample {
        Some(k) => s.universe.sample(k, SEED),
        None => s.universe.clone(),
    };
    run(&s, faults)
}

/// Figure 3: runs `rung`'s universe at `steps + 1` evenly spaced fault
/// counts from 0 to all of it, sample `i` drawn with `SEED + i`.
#[must_use]
pub fn sweep(rung: &Rung, steps: usize) -> Vec<Measured> {
    let s = setup(rung);
    let total = s.universe.len();
    (0..=steps)
        .map(|i| run(&s, s.universe.sample(total * i / steps, SEED + i as u64)))
        .collect()
}

/// Figure 3's two shape numbers over sweep points `(faults, concurrent,
/// serial_est)`: the serial slope over the concurrent slope, and the
/// middle point's concurrent cost over the straight line through the
/// first nonzero and the last point (1.0 is linear).
#[must_use]
pub fn slope_and_linearity(points: &[(usize, f64, f64)]) -> (f64, f64) {
    let (k1, c1, s1) = points[1];
    let (kn, cn, sn) = points[points.len() - 1];
    let concurrent_slope = (cn - c1) / (kn - k1) as f64;
    let serial_slope = (sn - s1) / (kn - k1) as f64;
    let (km, cm, _) = points[points.len() / 2];
    let line = c1 + concurrent_slope * (km - k1) as f64;
    (serial_slope / concurrent_slope, cm / line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_estimate_sums_the_good_cost_up_to_detection() {
        // Faults detected at patterns 1 and 3, one never (3 patterns).
        assert_eq!(serial_estimate(&[2u64, 3, 5], &[1, 3, 3]), 2 + 10 + 10);
        assert_eq!(serial_estimate::<u64>(&[], &[]), 0);
    }

    #[test]
    fn a_straight_sweep_is_linear() {
        let points = [
            (0, 1.0, 0.0),
            (1, 2.0, 10.0),
            (2, 3.0, 20.0),
            (3, 4.0, 30.0),
        ];
        assert_eq!(slope_and_linearity(&points), (10.0, 1.0));
    }
}
