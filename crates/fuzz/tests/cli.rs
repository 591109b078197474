//! `mage-fuzz`'s command line: a flag given a bad value is a usage
//! error that names the flag and the value on its first line, then
//! prints the usage text, and exits 2 before any fuzzing starts.
//! `--help` is not an error: it prints the usage text on stdout and
//! exits 0, as `mage-serve --help` does.

use std::process::Command;

#[test]
fn a_bad_value_is_named_before_the_usage_text() {
    for (flag, value) in [
        ("--batches", "abc"),
        ("--batch-size", "x"),
        ("--seed", "0xZZ"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mage-fuzz"))
            .args([flag, value])
            .output()
            .expect("spawn mage-fuzz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        let mut lines = stderr.lines();
        let named = format!("mage-fuzz: {flag}: invalid value `{value}`");
        assert_eq!(lines.next(), Some(named.as_str()), "{flag}: {stderr}");
        let usage = lines.next().unwrap_or_default();
        assert!(usage.starts_with("usage: mage-fuzz"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: ran instead of stopping");
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mage-fuzz"))
            .arg(flag)
            .output()
            .expect("spawn mage-fuzz");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage: mage-fuzz"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: wrote to stderr");
    }
    // An unknown argument is still a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_mage-fuzz"))
        .arg("--hlep")
        .output()
        .expect("spawn mage-fuzz");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "--hlep: ran instead of stopping");
}
