//! `mage-serve`'s command line: a bad argument, or a fleet-only flag on
//! one shard, is a usage error (one line naming it, then the flag
//! table, on stderr; exit status 2), never a panic, and `--help` prints
//! the table and exits 0. A sharded
//! run replayed under its own recorded placement trace reports that
//! the replay matched.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mage_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mage-serve"))
        .args(args)
        .output()
        .expect("spawn mage-serve")
}

/// A fresh path in the temp dir, private to this process and `name`.
fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mage-serve-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 9] = [
        (&["--runs", "abc"], "--runs"),
        (&["--runs"], "--runs"),
        (&["--bogus"], "--bogus"),
        (&["--suite", "bogus"], "--suite"),
        (&["--fault-plan", "bogus"], "--fault-plan"),
        (&["--shards", "0"], "--shards"),
        (&["--workers", "0"], "--workers"),
        // Fleet-only flags on one shard, before and after `--shards`.
        (
            &["--migrate-after-steps", "4", "--shards", "1"],
            "--migrate-after-steps",
        ),
        (
            &["--shards", "1", "--placement-trace", "unused.txt"],
            "--placement-trace",
        ),
    ];
    for (args, flag) in cases {
        let out = mage_serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: first line `{first}`");
        assert!(stderr.contains("Usage: mage-serve"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran instead of stopping");
    }
}

#[test]
fn a_hex_seed_is_the_decimal_seed_it_spells() {
    // `0xCAFE` is the default the flag table prints; 51,966 is its
    // decimal spelling, so both runs retire the same traces.
    let grading = |seed| {
        let out = mage_serve(&["--suite", "v1", "--runs", "1", "--seed", seed]);
        assert_eq!(out.status.code(), Some(0), "--seed {seed}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        let line = stdout.lines().find(|l| l.starts_with("grading"));
        line.expect("a grading line").to_string()
    };
    assert_eq!(grading("0xCAFE"), grading("51966"));
}

#[test]
fn help_prints_the_flag_table_and_exits_0() {
    let out = mage_serve(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.starts_with("Usage: mage-serve"), "{stdout}");
    assert!(stdout.contains("--fault-plan P"), "{stdout}");
}

#[test]
fn unparsable_placement_trace_is_a_usage_error() {
    let path = temp_path("bad-trace.txt");
    std::fs::write(&path, "not a placement trace\n").expect("write trace");
    let trace = path.to_str().expect("utf-8 temp path");
    let out = mage_serve(&["--shards", "2", "--placement-trace", trace]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains("--placement-trace"), "first line `{first}`");
    assert!(first.contains("bad header"), "first line `{first}`");
    assert!(stderr.contains("Usage: mage-serve"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran instead of stopping");
}

#[test]
fn a_replayed_placement_trace_matches_its_recording() {
    let path = temp_path("replay-trace.txt");
    let trace = path.to_str().expect("utf-8 temp path");
    let args = [
        "--suite",
        "v1",
        "--runs",
        "1",
        "--shards",
        "2",
        "--migrate-after-steps",
        "8",
        "--placement-trace",
        trace,
    ];
    let record = mage_serve(&args);
    let stdout = String::from_utf8_lossy(&record.stdout);
    assert_eq!(record.status.code(), Some(0), "record: {stdout}");
    assert!(stdout.contains("placement: recorded"), "record: {stdout}");
    let replay = mage_serve(&args);
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(0), "replay: {stdout}{stderr}");
    assert!(
        stdout.contains("placement: pinned from"),
        "replay: {stdout}"
    );
    assert!(
        stdout.lines().any(|l| l == "placement: replay matched"),
        "replay: {stdout}"
    );
}
