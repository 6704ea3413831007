//! The CLI rejects `--` flags its usage does not list, naming the
//! flag, instead of silently ignoring them.

use std::process::{Command, Output};

fn fmossim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fmossim"))
        .args(args)
        .output()
        .expect("run fmossim")
}

fn assert_unknown_flag(args: &[&str], flag: &str) {
    let out = fmossim(args);
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before failing");
}

#[test]
fn misspelled_flag_is_an_error() {
    assert_unknown_flag(
        &["faultsim", "--circuit", "ram4x4", "--pakcing", "on"],
        "--pakcing",
    );
    assert_unknown_flag(&["serve", "--worker", "2"], "--worker");
}

#[test]
fn removed_replay_flag_is_an_error() {
    assert_removed_parallel_flag("--replay", "off");
}

/// Parallel runs are one-shot; the batched re-planning flag is gone.
#[test]
fn removed_batch_flag_is_an_error() {
    assert_removed_parallel_flag("--batch", "8");
}

/// Round-robin is the only shard plan; the switch choosing one is gone.
#[test]
fn removed_shard_strategy_flag_is_an_error() {
    assert_removed_parallel_flag("--shard-strategy", "cost");
}

fn assert_removed_parallel_flag(removed: &str, value: &str) {
    assert_unknown_flag(
        &[
            "faultsim",
            "--circuit",
            "ram4x4",
            "--jobs",
            "2",
            removed,
            value,
        ],
        removed,
    );
}

/// Static collapsing always runs; the switch for it is gone from both
/// subcommands that had one.
#[test]
fn removed_collapse_flag_is_an_error() {
    assert_unknown_flag(
        &["faultsim", "--circuit", "ram4x4", "--collapse", "on"],
        "--collapse",
    );
    assert_unknown_flag(
        &[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--circuit",
            "ram4x4",
            "--collapse",
            "on",
        ],
        "--collapse",
    );
}

/// Packed lanes are the concurrent-family default; the switch for them
/// is gone.
#[test]
fn removed_packing_flag_is_an_error() {
    for value in ["on", "off"] {
        assert_unknown_flag(
            &["faultsim", "--circuit", "ram4x4", "--packing", value],
            "--packing",
        );
    }
}

#[test]
fn listed_flags_run() {
    let out = fmossim(&["faultsim", "--circuit", "ram4x4", "--jobs", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("detected "), "{stdout}");
    assert!(
        stdout.contains("parallel plan: 2 worker(s) x 2 shard(s), good tape replayed"),
        "{stdout}"
    );
}
