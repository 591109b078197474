//! `mage-serve`: drive the full problem registry as a concurrent job
//! stream — on one engine or a sharded fleet — and report throughput,
//! latency, token and batching stats. `mage-serve --help` prints the
//! flag table ([`USAGE`]); a bad argument prints one line naming it,
//! then the table, on stderr and exits with status 2.
//!
//! With `--shards 1` the stream runs on a plain [`ServeEngine`] exactly
//! as before; `--shards N` (N ≥ 2) routes it through a
//! [`FleetEngine`] and adds per-shard, migration and cache-fabric
//! report lines. `--placement-trace` closes the determinism loop from
//! the shell: run once to record, run again to replay pinned.

use mage_core::experiments::unit_seed;
use mage_core::{MageConfig, SolveTrace, SystemKind};
use mage_fleet::{FleetEngine, FleetOptions, PlacementTrace};
use mage_llm::{DispatchPolicy, FaultPlan};
use mage_problems::{Problem, SuiteId};
use mage_serve::{synthetic_service_with, JobSpec, ServeEngine, ServeOptions};
use std::process::ExitCode;
use std::str::FromStr;

/// The flag table.
const USAGE: &str = "\
Usage: mage-serve [options]
  --suite v1|v2|all     problem suite to stream        [all]
  --runs N              jobs per problem               [1]
  --workers N           sim worker threads             [available]
  --max-in-flight N     admission cap (0 = unlimited)  [32]
  --seed S              master seed                    [0xCAFE]
  --budget T            per-agent context token budget [4000]
  --shards N            fleet shards (1 = single engine) [1]
  --migrate-after-steps K  rebalance cadence in fleet rounds (0 = off) [0]
  --placement-trace F   pin placement from F if it exists, else
                        record this run's placement into F
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
            "--seed" => args.seed = value(it, &flag)?,
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
        run_fleet(&args, specs, opts, policy);
    } else {
        run_single(&args, specs, opts, policy);
    }
    ExitCode::SUCCESS
}

/// The classic single-engine path (`--shards 1`), byte-identical in
/// behavior to the pre-fleet binary.
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
    if report.failed > 0 || report.stats.retries > 0 || report.stats.rate_limit_defers > 0 {
        println!(
            "resilience  {:>8} retries, {} hedges, {} rate-limit defers, {} failovers, {} jobs failed",
            report.stats.retries,
            report.stats.hedges,
            report.stats.rate_limit_defers,
            report.stats.failovers,
            report.failed
        );
    }
    println!(
        "throughput  {:>8.2} jobs/s   wall {:.2}s   latency mean {:.2}s max {:.2}s",
        report.jobs_per_sec, report.wall_s, report.mean_latency_s, report.max_latency_s
    );
    println!(
        "llm         {:>8} requests in {} dispatch calls ({:.1} avg/batch)",
        report.stats.llm_requests,
        report.stats.llm_batch_calls,
        report.stats.llm_requests as f64 / report.stats.llm_batch_calls.max(1) as f64
    );
    println!(
        "sim         {:>8} requests   design cache {} hits / {} misses ({:.1}% hit)",
        report.stats.sim_requests,
        report.cache_hits,
        report.cache_misses,
        100.0 * report.cache_hits as f64 / (report.cache_hits + report.cache_misses).max(1) as f64
    );
    println!(
        "scores      {:>8} shared hits / {} misses / {} collisions",
        report.score_hits, report.score_misses, report.score_collisions
    );
    println!(
        "units       {:>8} delta hits / {} misses / {} collisions",
        report.unit_hits, report.unit_misses, report.unit_collisions
    );
    println!(
        "tokens      {:>8} prompt + {} completion",
        report.stats.total_usage.prompt, report.stats.total_usage.completion
    );
    if args.grade {
        let (passed, graded, score_sum) = grade_traces(engine.traces().into_iter().map(|(_, t)| t));
        if graded > 0 {
            println!(
                "grading     {:>8.3} pass rate ({passed}/{graded})   mean engine score {:.3}",
                passed as f64 / graded as f64,
                score_sum / graded as f64
            );
        }
    }
}

/// The sharded path (`--shards N`, N ≥ 2).
fn run_fleet(args: &Args, specs: Vec<JobSpec>, opts: ServeOptions, policy: DispatchPolicy) {
    let pinned = args.placement_trace.as_ref().and_then(|path| {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let trace = PlacementTrace::parse(&text)
                    .unwrap_or_else(|e| panic!("--placement-trace {path}: {e}"));
                println!(
                    "placement: pinned from {path} ({} placements, {} migrations)",
                    trace.placements.len(),
                    trace.migrations.len()
                );
                Some(trace)
            }
            Err(_) => None, // absent: record this run into it below
        }
    });
    let recording = pinned.is_none();

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

    if recording {
        if let Some(path) = &args.placement_trace {
            std::fs::write(path, report.trace.render())
                .unwrap_or_else(|e| panic!("--placement-trace {path}: write failed: {e}"));
            println!(
                "placement: recorded {} placements, {} migrations into {path}",
                report.trace.placements.len(),
                report.trace.migrations.len()
            );
        }
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
    if report.failed > 0 || report.stats.retries > 0 || report.stats.rate_limit_defers > 0 {
        println!(
            "resilience  {:>8} retries, {} hedges, {} rate-limit defers, {} failovers, {} jobs failed",
            report.stats.retries,
            report.stats.hedges,
            report.stats.rate_limit_defers,
            report.stats.failovers,
            report.failed
        );
    }
    println!(
        "throughput  {:>8.2} jobs/s   wall {:.2}s",
        report.done as f64 / report.wall_s.max(1e-9),
        report.wall_s
    );
    println!(
        "llm         {:>8} requests in {} dispatch calls ({:.1} avg/batch)",
        report.stats.llm_requests,
        report.stats.llm_batch_calls,
        report.stats.llm_requests as f64 / report.stats.llm_batch_calls.max(1) as f64
    );
    let f = &report.fabric;
    println!(
        "fabric      design local {} hits / {} misses / {} promoted; global {} hits / {} misses",
        f.design_local.hits,
        f.design_local.misses,
        f.design_local.promotions,
        f.design_global.hits,
        f.design_global.misses
    );
    println!(
        "            scores local {} hits / {} misses / {} promoted; global {} hits / {} misses",
        f.score_local.hits,
        f.score_local.misses,
        f.score_local.promotions,
        f.score_global.hits,
        f.score_global.misses
    );
    println!(
        "            units  local {} hits / {} misses / {} promoted; global {} hits / {} misses",
        f.unit_local.hits,
        f.unit_local.misses,
        f.unit_local.promotions,
        f.unit_global.hits,
        f.unit_global.misses
    );
    println!(
        "tokens      {:>8} prompt + {} completion",
        report.stats.total_usage.prompt, report.stats.total_usage.completion
    );
    if args.grade {
        let (passed, graded, score_sum) = grade_traces(report.traces.iter().map(|(_, t)| t));
        if graded > 0 {
            println!(
                "grading     {:>8.3} pass rate ({passed}/{graded})   mean engine score {:.3}",
                passed as f64 / graded as f64,
                score_sum / graded as f64
            );
        }
    }
}
