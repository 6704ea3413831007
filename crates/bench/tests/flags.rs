//! The bench binaries reject what they do not understand: an unknown
//! flag or an option value that does not parse exits nonzero, naming
//! the flag on stderr, before any simulation starts.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit status and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let (code, stderr) = run(bin, args);
    assert_ne!(code, Some(0), "{bin} {args:?} must fail");
    assert!(
        stderr.contains(&format!("`{flag}`")),
        "{bin} {args:?}: stderr must name {flag}: {stderr}"
    );
}

#[test]
fn paper_figures_rejects_an_unknown_flag() {
    assert_rejected(env!("CARGO_BIN_EXE_paper_figures"), &["--bogus"], "--bogus");
}

#[test]
fn paper_figures_rejects_a_deleted_figure_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_paper_figures"),
        &["--faults", "7"],
        "--faults",
    );
}

#[test]
fn allocstats_rejects_a_misspelled_flag() {
    assert_rejected(env!("CARGO_BIN_EXE_allocstats"), &["--dims", "8"], "--dims");
}

#[test]
fn allocstats_rejects_a_value_that_does_not_parse() {
    assert_rejected(
        env!("CARGO_BIN_EXE_allocstats"),
        &["--dim", "eight"],
        "--dim",
    );
}

#[test]
fn allocstats_rejects_a_deleted_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_allocstats"),
        &["--batch", "8"],
        "--batch",
    );
}

#[test]
fn an_option_without_its_value_is_rejected() {
    assert_rejected(env!("CARGO_BIN_EXE_allocstats"), &["--sample"], "--sample");
}
