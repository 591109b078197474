//! `perfbench --workload <solve|serve|serve_faults> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ledger.

use perfbench::workload::{run, Options, Report, Workload};
use perfbench::PINNED_ENV;
use std::process::ExitCode;

/// Stream seed when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Solve,
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad("expected solve, serve or serve_faults"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <solve|serve|serve_faults> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Cleared before any thread exists, so no other thread can be
    // reading the environment.
    for var in PINNED_ENV {
        if let Some(value) = std::env::var_os(var) {
            eprintln!(
                "perfbench: clearing inherited {var}={}",
                value.to_string_lossy()
            );
            std::env::remove_var(var);
        }
    }
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
