//! `mage-fuzz` — coverage-guided differential fuzzing driver.
//!
//! ```text
//! mage-fuzz --smoke [--corpus DIR]      # CI gate: fixed-seed batch + corpus replay
//! mage-fuzz --replay DIR                # replay a corpus directory only
//! mage-fuzz [--batches N] [--batch-size M] [--seed S] [--corpus DIR] [--persist] [--deep]
//! ```
//!
//! `--seed S` is decimal, or hex with a `0x` prefix
//! ([`mage_llm::parse_seed`], the rule every seed flag here shares).
//! `--deep` switches to a harder generation config (deeper expression
//! and statement nesting, more processes and clock domains, longer
//! drive plans) for divergence hunting; the smoke gate and the corpus
//! format always use the default config.
//!
//! `--help` prints the usage on stdout and exits 0.
//!
//! Exit status: `0` all oracles green; `1` any divergence, roundtrip
//! mismatch, or corpus replay failure; `2` usage error.

use mage_fuzz::{corpus, GenConfig, Session, SMOKE_CASES, SMOKE_SEED};
use mage_llm::parse_seed;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    smoke: bool,
    replay_only: bool,
    batches: u64,
    batch_size: usize,
    seed: u64,
    corpus_dir: PathBuf,
    persist: bool,
    deep: bool,
}

const USAGE: &str = "\
usage: mage-fuzz --smoke [--corpus DIR]
       mage-fuzz --replay DIR
       mage-fuzz [--batches N] [--batch-size M] [--seed S] [--corpus DIR] [--persist] [--deep]
";

/// The usage text on stderr after a usage error; exit status 2.
fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The value following `flag`, read with `parse`. A missing or bad
/// value is a usage error: one line naming the flag (and the value),
/// then the usage text.
fn value<T, E>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, ExitCode> {
    let Some(v) = it.next() else {
        eprintln!("mage-fuzz: {flag} requires a value");
        return Err(usage());
    };
    parse(&v).map_err(|_| {
        eprintln!("mage-fuzz: {flag}: invalid value `{v}`");
        usage()
    })
}

/// Parse the command line; `Err` carries the exit status to stop with
/// (0 after `--help`, 2 after a usage error).
fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        smoke: false,
        replay_only: false,
        batches: 5,
        batch_size: 40,
        seed: SMOKE_SEED,
        corpus_dir: PathBuf::from("fuzz/corpus"),
        persist: false,
        deep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--smoke" => args.smoke = true,
            "--replay" => {
                args.replay_only = true;
                args.corpus_dir = value(&mut it, flag, str::parse)?;
            }
            "--corpus" => args.corpus_dir = value(&mut it, flag, str::parse)?,
            "--batches" => args.batches = value(&mut it, flag, str::parse)?,
            "--batch-size" => args.batch_size = value(&mut it, flag, str::parse)?,
            "--seed" => args.seed = value(&mut it, flag, parse_seed)?,
            "--persist" => args.persist = true,
            "--deep" => args.deep = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("mage-fuzz: unknown argument `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

/// Replay every committed corpus entry; returns `(replayed, failed)`.
fn replay_corpus(dir: &Path) -> (usize, usize) {
    let entries = match corpus::load_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("mage-fuzz: cannot read corpus {}: {e}", dir.display());
            return (0, 1);
        }
    };
    let mut failed = 0usize;
    for (path, entry) in &entries {
        if let Err(f) = entry.replay() {
            eprintln!("mage-fuzz: corpus replay FAILED: {}: {f}", path.display());
            failed += 1;
        }
    }
    (entries.len(), failed)
}

fn report_divergences(session: &Session) {
    for d in &session.divergences {
        eprintln!(
            "mage-fuzz: DIVERGENCE seed {:#018x}: {}\n--- minimized reproducer ---\n{}",
            d.seed, d.failure, d.source
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let cfg = if args.deep {
        GenConfig {
            max_procs: 12,
            max_inputs: 7,
            max_clocks: 3,
            max_expr_depth: 6,
            max_stmt_depth: 4,
            steps: 20,
            ..GenConfig::default()
        }
    } else {
        GenConfig::default()
    };

    if args.replay_only {
        let (replayed, failed) = replay_corpus(&args.corpus_dir);
        println!(
            "mage-fuzz --replay: {}/{replayed} corpus entries ok",
            replayed - failed
        );
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.smoke {
        // Fixed seed, no minimization, plus a full corpus replay: the
        // CI merge gate. Deterministic by construction — the summary
        // line (including the coverage map hash) is identical on every
        // run with the same seed.
        let mut session = Session::new(cfg, false);
        let stats = session.run_batch(SMOKE_SEED, 0, SMOKE_CASES);
        let (replayed, replay_failed) = replay_corpus(&args.corpus_dir);
        report_divergences(&session);
        let ok = SMOKE_CASES - session.divergences.len();
        println!(
            "mage-fuzz --smoke: {ok}/{SMOKE_CASES} cases ok, {} divergences, \
             coverage {} features, map {:#018x}, corpus {}/{replayed} replayed ok",
            session.divergences.len(),
            stats.coverage,
            session.coverage.map_hash(),
            replayed - replay_failed,
        );
        return if session.divergences.is_empty() && replay_failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Full mode: minimizing, multi-batch, optional persistence. The
    // summary reports the cumulative kept-entry count per batch — the
    // coverage-growth signal the acceptance criteria ask for.
    let mut session = Session::new(cfg, true);
    let mut kept_per_batch = Vec::with_capacity(args.batches as usize);
    for b in 0..args.batches {
        let stats = session.run_batch(args.seed, b, args.batch_size);
        kept_per_batch.push(stats.kept_total);
        println!(
            "mage-fuzz: batch {b}: {} cases, kept total {}, coverage {} features",
            stats.cases, stats.kept_total, stats.coverage
        );
    }
    if args.persist {
        for entry in &session.kept {
            match corpus::save(&args.corpus_dir, entry) {
                Ok(path) => println!("mage-fuzz: kept {}", path.display()),
                Err(e) => eprintln!("mage-fuzz: cannot persist corpus entry: {e}"),
            }
        }
    }
    report_divergences(&session);
    let growing = kept_per_batch.windows(2).all(|w| w[1] > w[0]);
    println!(
        "mage-fuzz: {} batches x {} cases, {} divergences, coverage {} features, \
         map {:#018x}, kept per batch: {} (strictly increasing: {})",
        args.batches,
        args.batch_size,
        session.divergences.len(),
        session.coverage.len(),
        session.coverage.map_hash(),
        kept_per_batch
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(" -> "),
        if growing { "yes" } else { "no" }
    );
    if session.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
