//! `mage-serve`: drive the full problem registry as a concurrent job
//! stream — on one engine or a sharded fleet — and report throughput,
//! latency, token and batching stats. `mage-serve --help` prints the
//! flag table ([`USAGE`]); a bad argument prints one line naming it,
//! then the table, on stderr and exits with status 2.
//!
//! With `--shards 1` the stream runs on a plain [`ServeEngine`];
//! `--shards N` (N ≥ 2) routes it through a [`FleetEngine`] and adds
//! per-shard and migration report lines. The lines both paths share
//! print through one function, so a sharded run's `sim` and `scores`
//! lines read like one engine's. `--migrate-after-steps` (above 0) and
//! `--placement-trace` act only on a fleet, so on one shard they are
//! usage errors. `--placement-trace` closes the determinism loop from
//! the shell: run once to record, run again to replay pinned. A replay
//! compares the placement trace it re-records with the pinned file's
//! text: it prints `placement: replay matched`, or names the first
//! differing line and exits with status 1. A trace file that exists but
//! does not parse is a usage error.

use mage_core::experiments::unit_seed;
use mage_core::{MageConfig, SolveTrace, SystemKind};
use mage_fleet::{CacheTierStats, FleetEngine, FleetOptions, PlacementTrace};
use mage_llm::{parse_seed, DispatchPolicy, FaultPlan};
use mage_problems::{Problem, SuiteId};
use mage_serve::{synthetic_service_with, JobSpec, ServeEngine, ServeOptions, ServeStats};
use std::process::ExitCode;
use std::str::FromStr;

/// The flag table.
const USAGE: &str = "\
Usage: mage-serve [options]
  --suite v1|v2|all     problem suite to stream        [all]
  --runs N              jobs per problem               [1]
  --workers N           sim pool threads (the scheduler
                        also helps at joins)           [available]
  --max-in-flight N     admission cap (0 = unlimited)  [32]
  --seed S              master seed                    [0xCAFE]
  --budget T            per-agent context token budget [4000]
  --shards N            fleet shards (1 = single engine) [1]
  --migrate-after-steps K  rebalance cadence in fleet rounds (0 = off) [0]
  --placement-trace F   pin placement from F if it exists (the run
                        must re-record it exactly), else record this
                        run's placement into F
                        (--migrate-after-steps above 0 and
                        --placement-trace need --shards 2 or more)
  --fault-plan P        fault plan: name or seed:name  [$MAGE_FAULT_PLAN]
                        (none|canonical|single-transient|burst-rate-limit|
                         one-backend-dead|all-dead|mid-wave-timeout)
  --retries N           engine re-dispatches per request [2]
  --hedge-after-ms MS   hedge threshold (0 = off)      [80]
  --deadline-ms MS      per-job virtual deadline (0 = off) [off]
  --low                 low-temperature config (default high)
  --scalar              disable LLM batching (one call per request)
  --no-grade            skip grading final answers
";

struct Args {
    problems: Vec<&'static Problem>,
    runs: usize,
    workers: usize,
    max_in_flight: usize,
    seed: u64,
    budget: usize,
    shards: usize,
    migrate_after_steps: u64,
    placement_trace: Option<String>,
    fault_plan: FaultPlan,
    retries: u32,
    hedge_after_ms: u64,
    deadline_ms: u64,
    low: bool,
    scalar: bool,
    grade: bool,
}

/// A usage error: one line naming the bad argument, then the flag
/// table, on stderr; exit status 2.
fn usage(problem: &str) -> ExitCode {
    eprintln!("mage-serve: {problem}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The value following `flag`, parsed.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, ExitCode> {
    let v = it
        .next()
        .ok_or_else(|| usage(&format!("{flag} requires a value")))?;
    v.parse()
        .map_err(|_| usage(&format!("{flag}: invalid value `{v}`")))
}

/// Parse the command line; `Err` carries the exit status to stop with
/// (0 after `--help`, 2 after a usage error).
fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        problems: mage_problems::all_problems(),
        runs: 1,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        max_in_flight: 32,
        seed: 0xCAFE,
        budget: 4000,
        shards: 1,
        migrate_after_steps: 0,
        placement_trace: None,
        fault_plan: FaultPlan::from_env(),
        retries: 2,
        hedge_after_ms: 80,
        deadline_ms: 0,
        low: false,
        scalar: false,
        grade: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--suite" => {
                args.problems = match value::<String>(it, &flag)?.as_str() {
                    "v1" => mage_problems::suite(SuiteId::V1Human),
                    "v2" => mage_problems::suite(SuiteId::V2),
                    "all" => mage_problems::all_problems(),
                    other => {
                        return Err(usage(&format!(
                            "--suite: unknown suite `{other}` (v1|v2|all)"
                        )))
                    }
                }
            }
            "--runs" => args.runs = value(it, &flag)?,
            "--workers" => args.workers = value(it, &flag)?,
            "--max-in-flight" => args.max_in_flight = value(it, &flag)?,
            "--seed" => {
                let v: String = value(it, &flag)?;
                args.seed =
                    parse_seed(&v).map_err(|_| usage(&format!("{flag}: invalid value `{v}`")))?;
            }
            "--budget" => args.budget = value(it, &flag)?,
            "--shards" => args.shards = value(it, &flag)?,
            "--migrate-after-steps" => args.migrate_after_steps = value(it, &flag)?,
            "--placement-trace" => args.placement_trace = Some(value(it, &flag)?),
            "--fault-plan" => {
                let v: String = value(it, &flag)?;
                args.fault_plan =
                    FaultPlan::parse(&v).map_err(|e| usage(&format!("--fault-plan: {e}")))?;
            }
            "--retries" => args.retries = value(it, &flag)?,
            "--hedge-after-ms" => args.hedge_after_ms = value(it, &flag)?,
            "--deadline-ms" => args.deadline_ms = value(it, &flag)?,
            "--low" => args.low = true,
            "--scalar" => args.scalar = true,
            "--no-grade" => args.grade = false,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other => return Err(usage(&format!("unknown flag `{other}`"))),
        }
    }
    if args.shards == 0 {
        return Err(usage("--shards must be at least 1"));
    }
    if args.workers == 0 {
        return Err(usage("--workers must be at least 1"));
    }
    if args.shards == 1 && args.migrate_after_steps > 0 {
        return Err(usage("--migrate-after-steps needs --shards 2 or more"));
    }
    if args.shards == 1 && args.placement_trace.is_some() {
        return Err(usage("--placement-trace needs --shards 2 or more"));
    }
    Ok(args)
}

fn grade_traces<'a>(traces: impl Iterator<Item = &'a SolveTrace>) -> (usize, usize, f64) {
    let mut passed = 0usize;
    let mut graded = 0usize;
    let mut score_sum = 0.0f64;
    for trace in traces {
        // A failed job's trace may carry no final candidate at all;
        // it is counted, never graded as a pass.
        if trace.outcome.is_failed() || trace.final_source.is_empty() {
            graded += 1;
            continue;
        }
        let p = mage_problems::by_id(&trace.problem_id).expect("registry problem");
        graded += 1;
        score_sum += trace.final_score;
        if mage_core::experiments::grade(p, &trace.final_source) {
            passed += 1;
        }
    }
    (passed, graded, score_sum)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    let pinned = match pinned_trace(&args) {
        Ok(pinned) => pinned,
        Err(code) => return code,
    };
    let problems = &args.problems;

    let mut config = if args.low {
        MageConfig::low_temperature()
    } else {
        MageConfig::high_temperature()
    }
    .with_system(SystemKind::Mage);
    if args.budget > 0 {
        config = config.with_context_budget(args.budget);
    }

    // The job stream: runs × problems, in (run, problem) order.
    let mut specs: Vec<JobSpec> = Vec::new();
    for run in 0..args.runs {
        for p in problems {
            specs.push(JobSpec {
                problem_id: p.id.to_string(),
                spec: p.spec.to_string(),
                config: config.clone(),
                seed: unit_seed(args.seed, run, p.id),
            });
        }
    }

    let policy = DispatchPolicy {
        hedge_after_ms: if args.hedge_after_ms == 0 {
            None
        } else {
            Some(args.hedge_after_ms)
        },
        ..DispatchPolicy::default()
    };

    let opts = ServeOptions {
        workers: args.workers,
        batch_llm: !args.scalar,
        max_in_flight: args.max_in_flight,
        llm_retry_budget: args.retries,
        deadline_ms: if args.deadline_ms == 0 {
            None
        } else {
            Some(args.deadline_ms)
        },
        ..ServeOptions::default()
    };
    println!(
        "mage-serve: {} jobs ({} problems x {} runs), {} sched, {} workers, batching {}, cap {}{}",
        specs.len(),
        problems.len(),
        args.runs,
        opts.sched,
        opts.workers,
        if opts.batch_llm { "on" } else { "off" },
        if opts.max_in_flight == 0 {
            "unlimited".to_string()
        } else {
            opts.max_in_flight.to_string()
        },
        if args.shards > 1 {
            format!(", {} shards", args.shards)
        } else {
            String::new()
        },
    );
    if !args.fault_plan.is_empty() {
        println!(
            "faults: seed {:#x}, retry budget {}, hedge {}, deadline {}",
            args.fault_plan.seed,
            args.retries,
            if args.hedge_after_ms == 0 {
                "off".to_string()
            } else {
                format!("{}ms", args.hedge_after_ms)
            },
            if args.deadline_ms == 0 {
                "off".to_string()
            } else {
                format!("{}ms", args.deadline_ms)
            },
        );
    }

    if args.shards > 1 {
        run_fleet(&args, pinned, specs, opts, policy)
    } else {
        run_single(&args, specs, opts, policy);
        ExitCode::SUCCESS
    }
}

/// The pinned placement trace of a sharded run: `Ok(None)` without
/// `--placement-trace` or when its file does not exist yet (this run
/// records into it); a file that cannot be read or parsed is a usage
/// error.
fn pinned_trace(args: &Args) -> Result<Option<(PlacementTrace, String)>, ExitCode> {
    let Some(path) = &args.placement_trace else {
        return Ok(None);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(usage(&format!("--placement-trace {path}: {e}"))),
    };
    match PlacementTrace::parse(&text) {
        Ok(trace) => Ok(Some((trace, text))),
        Err(e) => Err(usage(&format!("--placement-trace {path}: {e}"))),
    }
}

/// The first line where a replay's re-recorded trace leaves the pinned
/// text, as `(line number, pinned line, replayed line)`; `None` when
/// the two are identical.
fn first_divergence<'a>(pinned: &'a str, replayed: &'a str) -> Option<(usize, &'a str, &'a str)> {
    if pinned == replayed {
        return None;
    }
    let (a, b): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), replayed.lines().collect());
    let k = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let line = |v: &[&'a str]| v.get(k).copied().unwrap_or("<end>");
    Some((k + 1, line(&a), line(&b)))
}

/// The report lines a single engine and a fleet share: resilience (when
/// anything failed, retried or deferred), dispatch, the three caches,
/// tokens and, unless `--no-grade`, the pass rate over `traces`.
fn print_totals<'a>(
    args: &Args,
    stats: &ServeStats,
    [design, scores, units]: [CacheTierStats; 3],
    traces: impl Iterator<Item = &'a SolveTrace>,
) {
    let failed = stats.jobs_failed;
    if failed > 0 || stats.retries > 0 || stats.rate_limit_defers > 0 {
        println!(
            "resilience  {:>8} retries, {} hedges, {} rate-limit defers, {} failovers, {} jobs failed",
            stats.retries, stats.hedges, stats.rate_limit_defers, stats.failovers, failed
        );
    }
    println!(
        "llm         {:>8} requests in {} dispatch calls ({:.1} avg/batch)",
        stats.llm_requests,
        stats.llm_batch_calls,
        stats.llm_requests as f64 / stats.llm_batch_calls.max(1) as f64
    );
    println!(
        "sim         {:>8} requests   design cache {} hits / {} misses ({:.1}% hit)",
        stats.sim_requests,
        design.hits,
        design.misses,
        100.0 * design.hits as f64 / (design.hits + design.misses).max(1) as f64
    );
    println!(
        "scores      {:>8} shared hits / {} misses / {} collisions",
        scores.hits, scores.misses, scores.collisions
    );
    println!(
        "units       {:>8} delta hits / {} misses / {} collisions",
        units.hits, units.misses, units.collisions
    );
    println!(
        "tokens      {:>8} prompt + {} completion",
        stats.total_usage.prompt, stats.total_usage.completion
    );
    if args.grade {
        let (passed, graded, score_sum) = grade_traces(traces);
        if graded > 0 {
            println!(
                "grading     {:>8.3} pass rate ({passed}/{graded})   mean engine score {:.3}",
                passed as f64 / graded as f64,
                score_sum / graded as f64
            );
        }
    }
}

/// The single-engine path (`--shards 1`).
fn run_single(args: &Args, specs: Vec<JobSpec>, opts: ServeOptions, policy: DispatchPolicy) {
    let service = synthetic_service_with(&specs, args.fault_plan.clone(), policy);
    let mut engine = ServeEngine::new(opts, service);
    for spec in specs {
        engine.push_job(spec);
    }
    engine.run();
    let report = engine.report();

    println!();
    println!(
        "jobs        {:>8} done / {} pushed in {} steps ({} sim waves, {} overlapped)",
        report.done,
        report.jobs,
        report.stats.rounds,
        report.stats.sim_waves,
        report.stats.overlap_steps
    );
    println!(
        "throughput  {:>8.2} jobs/s   wall {:.2}s   latency mean {:.2}s max {:.2}s",
        report.jobs_per_sec, report.wall_s, report.mean_latency_s, report.max_latency_s
    );
    let r = &report;
    let tier = |hits, misses, collisions| CacheTierStats {
        hits,
        misses,
        collisions,
    };
    let caches = [
        tier(r.cache_hits, r.cache_misses, r.cache_collisions),
        tier(r.score_hits, r.score_misses, r.score_collisions),
        tier(r.unit_hits, r.unit_misses, r.unit_collisions),
    ];
    let traces = engine.traces().into_iter().map(|(_, t)| t);
    print_totals(args, &r.stats, caches, traces);
}

/// The sharded path (`--shards N`, N ≥ 2): records the placement
/// into `--placement-trace`, or replays `pinned` and checks that the
/// run re-records it exactly (exit status 1 when it does not).
fn run_fleet(
    args: &Args,
    pinned: Option<(PlacementTrace, String)>,
    specs: Vec<JobSpec>,
    opts: ServeOptions,
    policy: DispatchPolicy,
) -> ExitCode {
    let path = args.placement_trace.as_deref().unwrap_or_default();
    let (pinned, pinned_text) = pinned.unzip();
    if let Some(trace) = &pinned {
        println!(
            "placement: pinned from {path} ({} placements, {} migrations)",
            trace.placements.len(),
            trace.migrations.len()
        );
    }

    let fleet_opts = FleetOptions {
        shards: args.shards,
        serve: opts,
        migrate_after_steps: args.migrate_after_steps,
        pinned,
        ..FleetOptions::default()
    };
    let mut fleet = FleetEngine::synthetic_with(fleet_opts, args.fault_plan.clone(), policy);
    for spec in specs {
        fleet.push_job(spec);
    }
    let report = fleet.run();

    let mut status = ExitCode::SUCCESS;
    let rendered = report.trace.render();
    if let Some(text) = &pinned_text {
        match first_divergence(text, &rendered) {
            None => println!("placement: replay matched"),
            Some((line, want, got)) => {
                eprintln!(
                    "mage-serve: placement replay diverged from {path} at line {line}: \
                     pinned `{want}`, replayed `{got}`"
                );
                status = ExitCode::FAILURE;
            }
        }
    } else if args.placement_trace.is_some() {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("mage-serve: --placement-trace {path}: write failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "placement: recorded {} placements, {} migrations into {path}",
            report.trace.placements.len(),
            report.trace.migrations.len()
        );
    }

    println!();
    println!(
        "fleet       {:>8} done / {} pushed on {} shards in {} rounds",
        report.done,
        report.jobs,
        report.shards.len(),
        report.rounds
    );
    println!(
        "placement   {:>8} placements, {} migrations, {} restarts",
        report.placements, report.migrations, report.restarts
    );
    for (ix, shard) in report.shards.iter().enumerate() {
        println!(
            "  shard {ix}   {:>6} done / {} pushed   {} llm calls   {} sim requests   {} steps",
            shard.done,
            shard.jobs,
            shard.stats.llm_batch_calls,
            shard.stats.sim_requests,
            shard.stats.rounds
        );
    }
    println!(
        "throughput  {:>8.2} jobs/s   wall {:.2}s",
        report.done as f64 / report.wall_s.max(1e-9),
        report.wall_s
    );
    let caches = [report.design_cache, report.score_cache, report.unit_cache];
    let traces = report.traces.iter().map(|(_, t)| t);
    print_totals(args, &report.stats, caches, traces);
    status
}
