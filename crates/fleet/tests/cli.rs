//! `mage-serve`'s command line: a bad argument is a usage error (one
//! line naming it, then the flag table, on stderr; exit status 2),
//! never a panic, and `--help` prints the table and exits 0.

use std::process::{Command, Output};

fn mage_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mage-serve"))
        .args(args)
        .output()
        .expect("spawn mage-serve")
}

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: [(&[&str], &str); 7] = [
        (&["--runs", "abc"], "--runs"),
        (&["--runs"], "--runs"),
        (&["--bogus"], "--bogus"),
        (&["--suite", "bogus"], "--suite"),
        (&["--fault-plan", "bogus"], "--fault-plan"),
        (&["--shards", "0"], "--shards"),
        (&["--workers", "0"], "--workers"),
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
fn help_prints_the_flag_table_and_exits_0() {
    let out = mage_serve(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.starts_with("Usage: mage-serve"), "{stdout}");
    assert!(stdout.contains("--fault-plan P"), "{stdout}");
}
