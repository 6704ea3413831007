//! The paper's figures in exact work counts.
//!
//! Each test measures one rung of `fmossim_bench::figures::LADDER`
//! through the same `measure` call `paper_figures` makes and asserts
//! every count. Vicinity solves do not depend on the host or on packing,
//! so a change to these numbers is a change to the algorithm's work and
//! belongs in the diff that causes it. The RAM1024 rung (1,508,000 good
//! and 4,003,395 faulty groups, 4,871 of 4,871 detected) takes tens of
//! seconds unoptimized and is only printed by the binary.

use fmossim_bench::figures::{measure, Counts, LADDER};

fn counts(name: &str) -> Counts {
    let rung = LADDER
        .iter()
        .find(|r| r.name == name)
        .expect("rung on the ladder");
    measure(rung).counts
}

#[test]
fn the_ladder_is_the_papers() {
    let names: Vec<&str> = LADDER.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        ["ram64-seq1", "ram64-seq2", "ram64-mix", "ram256", "ram1024"]
    );
}

#[test]
fn figure_1_ram64_sequence_1() {
    let c = counts("ram64-seq1");
    assert_eq!(
        c,
        Counts {
            faults: 428,
            patterns: 407,
            good_groups: 36_612,
            faulty_groups: 79_177,
            serial_est_groups: 5_131_925,
            head_patterns: 87,
            head_groups: 79_898,
            head_detected: 259,
            detected: 428,
        }
    );
    let r = c.ratios();
    assert_eq!(format!("{:.2}", r.concurrent_over_good), "3.16");
    assert_eq!(format!("{:.1}", r.serial_over_concurrent), "44.3");
    assert_eq!(format!("{:.3}", r.head_share), "0.690");
    assert_eq!(format!("{:.2}", r.tail_over_good), "1.25");
}

#[test]
fn figure_2_ram64_sequence_2() {
    assert_eq!(
        counts("ram64-seq2"),
        Counts {
            faults: 428,
            patterns: 327,
            good_groups: 29_574,
            faulty_groups: 140_347,
            serial_est_groups: 5_162_196,
            head_patterns: 7,
            head_groups: 16_346,
            head_detected: 73,
            detected: 428,
        }
    );
}

/// The only rung with stuck transistors, so the only one the
/// member-only attachment and the stuck-transistor dormancy tests move
/// (the stuck-node tests and their trigger-time solves move every
/// rung): under the paper's
/// rule (trigger on any fault site in the support) it solved 277,379
/// faulty groups, 162,900 of them in the head, with the same
/// detections.
#[test]
fn ram64_sequence_1_with_transistor_faults() {
    assert_eq!(
        counts("ram64-mix"),
        Counts {
            faults: 428,
            patterns: 407,
            good_groups: 36_612,
            faulty_groups: 85_642,
            serial_est_groups: 5_559_549,
            head_patterns: 87,
            head_groups: 74_087,
            head_detected: 261,
            detected: 381,
        }
    );
}

#[test]
fn figure_3_ram256_full_universe() {
    assert_eq!(
        counts("ram256"),
        Counts {
            faults: 1_439,
            patterns: 1_447,
            good_groups: 220_198,
            faulty_groups: 567_950,
            serial_est_groups: 135_995_052,
            head_patterns: 167,
            head_groups: 515_609,
            head_detected: 541,
            detected: 1_439,
        }
    );
}
