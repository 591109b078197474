//! Engine-throughput baseline harness: drive a fixed job stream through
//! `mage-serve` and write `BENCH_engine.json` so future PRs can track
//! the serving-path trajectory alongside `BENCH_sim.json`.
//!
//! Modes measured (interleaved best-of-N, like `bench_sim`):
//!
//! * `serve_wave`   — the wave scheduler with LLM batching on: LLM
//!   batches dispatch while sim waves crunch in the background;
//! * `serve_scalar` — the wave scheduler, batching off (one dispatch
//!   call per request): isolates the batching win in call counts;
//! * `serve_fleet`  — the same stream sharded across `FLEET_SHARDS`
//!   wave engines behind the `mage-fleet` affinity router (rebalancer
//!   on), all sharing one design, score and unit cache;
//! * `solo_loop`    — the pre-serve baseline: one blocking
//!   `Mage::solve` after another, no shared design cache.
//!
//! Besides wall time the JSON records a deterministic `scheduler`
//! section — the wave pass's LLM dispatch calls, productive steps, sim
//! waves launched, and overlapped steps (an LLM batch dispatched while
//! a sim wave was in flight) — next to a `barrier`: the dispatch calls,
//! sim waves and steps of a schedule that resolves every job's k-th
//! request together in step k, counted from each job's solo need
//! sequence (its `SolveJob` driven by hand, no serve code). It asserts
//! in-process: wave dispatch calls ≤ the barrier's on this stream, wave
//! overlap strictly positive, per-job work identical in the wave and
//! scalar passes, and batched calls < requests. The
//! wave, scalar and fleet passes run under an explicit empty fault
//! plan, so the gates do not depend on `$MAGE_FAULT_PLAN`; the empty
//! plan must leave every resilience counter at zero. A `resilience`
//! section re-runs the wave stream under the canonical fault plan and
//! asserts the retry machinery both fires (nonzero retries and
//! rate-limit defers) and absorbs (zero failed jobs). A `fleet` section
//! shards the stream, records per-shard dispatch calls and migration
//! counts, and asserts in-process that the fleet does identical per-job
//! work, that its shared design and score caches count exactly the wave
//! pass's hits and misses, and that a pinned replay of its placement
//! trace is bit-identical. The wave pass's design- and
//! score-cache counters are recorded too, and both caches must report
//! zero key collisions.
//!
//! Usage:
//! `cargo run --release -p mage-bench --bin bench_engine [--smoke] [out.json]`
//!
//! `--smoke` cuts the sampling to one interleaved pass per mode so CI
//! can gate merges on the in-process invariants in a fraction of the
//! wall clock. The job stream itself stays the canonical
//! V1×RUNS_PER_PROBLEM one either way — the wave ≤ barrier
//! dispatch-call invariant is a property of the coalescing join *on
//! that stream* — so the dispatch-economics assertions are identical.

use mage_core::experiments::unit_seed;
use mage_core::solvejob::{execute_sim_with, SolveJob, SolveStep, StepInput};
use mage_core::{Mage, MageConfig, SystemKind, Task};
use mage_fleet::{FleetEngine, FleetOptions, FleetReport, PlacementTrace};
use mage_llm::{DispatchPolicy, FaultPlan, RtlLanguageModel};
use mage_problems::SuiteId;
use mage_serve::{synthetic_service_with, JobSpec, ServeEngine, ServeOptions, ServeStats};
use std::time::Instant;

/// Shards in the fleet mode.
const FLEET_SHARDS: usize = 4;

const RUNS_PER_PROBLEM: usize = 2;
const MASTER_SEED: u64 = 0xBE;
/// Interleaved repetitions per mode; the minimum is reported.
const SAMPLES: usize = 3;

/// CPUs available to the harness; every serve mode runs one sim worker
/// per CPU.
fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn stream_specs() -> Vec<JobSpec> {
    let problems = mage_problems::suite(SuiteId::V1Human);
    let mut specs = Vec::new();
    for run in 0..RUNS_PER_PROBLEM {
        for p in &problems {
            specs.push(JobSpec {
                problem_id: p.id.to_string(),
                spec: p.spec.to_string(),
                config: MageConfig::high_temperature().with_system(SystemKind::Mage),
                seed: unit_seed(MASTER_SEED, run, p.id),
            });
        }
    }
    specs
}

/// One serve pass under an explicit fault plan (ignores
/// `$MAGE_FAULT_PLAN`: the dispatch-economics and resilience gates must
/// hold whatever environment the harness runs in). Returns (seconds,
/// full report).
fn run_serve(plan: FaultPlan, batch_llm: bool) -> (f64, mage_serve::ServeReport) {
    let specs = stream_specs();
    let service = synthetic_service_with(&specs, plan, DispatchPolicy::default());
    let mut engine = ServeEngine::new(
        ServeOptions {
            workers: cpus(),
            batch_llm,
            max_in_flight: 0,
            ..ServeOptions::default()
        },
        service,
    );
    for spec in specs {
        engine.push_job(spec);
    }
    let t = Instant::now();
    engine.run();
    let secs = t.elapsed().as_secs_f64();
    (secs, engine.report())
}

/// The counts of a barrier schedule over an uncapped, fault-free
/// stream: step k advances every job once, then dispatches every LLM
/// request of the step as one call, then runs every sim request of the
/// step as one wave. Job j's k-th request then always lands in step k,
/// so the counts follow from each job's solo need sequence alone — no
/// scheduler involved.
struct Barrier {
    /// Steps with at least one LLM request.
    dispatch_calls: usize,
    /// Steps with at least one sim request.
    sim_waves: usize,
    /// Steps until the last job retires (its final advance included).
    steps: usize,
}

/// Drive each job's `SolveJob` alone — scalar model calls,
/// `mage_core::compile` — recording whether its k-th need is an LLM
/// request, and fold the sequences into [`Barrier`] counts.
fn barrier_counts(specs: &[JobSpec]) -> Barrier {
    let needs: Vec<Vec<bool>> = specs
        .iter()
        .map(|spec| {
            let p = mage_problems::by_id(&spec.problem_id).expect("registry problem");
            let mut model = p.job_model(spec.seed);
            let mut job = SolveJob::new(p.id, p.spec, spec.config.clone());
            let mut input = StepInput::Start;
            let mut is_llm = Vec::new();
            loop {
                input = match job.advance(input) {
                    SolveStep::NeedLlm(req) => {
                        is_llm.push(true);
                        StepInput::Llm(model.dispatch(&req))
                    }
                    SolveStep::NeedSim(req) => {
                        is_llm.push(false);
                        StepInput::Sim(execute_sim_with(&req, mage_core::compile))
                    }
                    SolveStep::Done(_) => break is_llm,
                };
            }
        })
        .collect();
    let depth = needs.iter().map(Vec::len).max().unwrap_or(0);
    let steps_with = |llm: bool| {
        (0..depth)
            .filter(|&k| needs.iter().any(|n| n.get(k) == Some(&llm)))
            .count()
    };
    Barrier {
        dispatch_calls: steps_with(true),
        sim_waves: steps_with(false),
        steps: depth + 1,
    }
}

/// One fleet pass over the canonical stream: `FLEET_SHARDS` wave
/// engines behind the affinity router with the rebalancer on, under
/// the same empty fault plan as the wave pass it is compared with.
/// Passing a recorded trace replays it pinned (the determinism gate).
fn run_fleet(pinned: Option<PlacementTrace>) -> (f64, FleetReport) {
    let specs = stream_specs();
    let mut fleet = FleetEngine::synthetic_with(
        FleetOptions {
            shards: FLEET_SHARDS,
            serve: ServeOptions {
                workers: cpus(),
                batch_llm: true,
                max_in_flight: 0,
                ..ServeOptions::default()
            },
            migrate_after_steps: 8,
            pinned,
            ..FleetOptions::default()
        },
        FaultPlan::none(),
        DispatchPolicy::default(),
    );
    for spec in specs {
        fleet.push_job(spec);
    }
    let t = Instant::now();
    let report = fleet.run();
    (t.elapsed().as_secs_f64(), report)
}

/// The pre-serve baseline: blocking solves in sequence.
fn run_solo() -> f64 {
    let specs = stream_specs();
    let t = Instant::now();
    for spec in &specs {
        let p = mage_problems::by_id(&spec.problem_id).expect("registry problem");
        let mut model = p.job_model(spec.seed);
        let trace = Mage::new(&mut model, spec.config.clone()).solve(&Task {
            id: p.id,
            spec: p.spec,
        });
        std::hint::black_box(trace.final_score);
    }
    t.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    // Smoke mode: one interleaved sample per mode — CI runs the
    // harness for its assertions, not its timings. The job stream is
    // the canonical V1×RUNS_PER_PROBLEM one in both modes: the wave ≤
    // barrier dispatch-call invariant is a property of the coalescing
    // join *on this stream*, so the gate must re-check exactly it.
    let samples = if smoke { 1 } else { SAMPLES };
    let jobs = stream_specs().len();
    let barrier = barrier_counts(&stream_specs());

    // Interleave the modes so load drift hits all equally.
    let (mut wave_s, mut scalar_s, mut solo_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut wave_report: Option<mage_serve::ServeReport> = None;
    let mut scalar_stats: Option<ServeStats> = None;
    let mut fleet_s = f64::INFINITY;
    let mut fleet_report: Option<FleetReport> = None;
    for _ in 0..samples {
        let (s, report) = run_serve(FaultPlan::none(), true);
        wave_s = wave_s.min(s);
        wave_report.get_or_insert(report);
        let (s, report) = run_serve(FaultPlan::none(), false);
        scalar_s = scalar_s.min(s);
        scalar_stats.get_or_insert(report.stats);
        let (s, report) = run_fleet(None);
        fleet_s = fleet_s.min(s);
        fleet_report.get_or_insert(report);
        solo_s = solo_s.min(run_solo());
    }
    let wreport = wave_report.expect("ran");
    let (hits, misses) = (wreport.cache_hits, wreport.cache_misses);
    let (score_hits, score_misses) = (wreport.score_hits, wreport.score_misses);
    let cpus = cpus();
    let wstats = wreport.stats;
    let sstats = scalar_stats.expect("ran");

    // Delta-compilation invariant: the wave pass compiles through the
    // process-unit cache, so the debug loop's re-compiles of edited
    // candidates must reuse cached units.
    assert!(
        wreport.unit_hits > 0,
        "debug-loop re-compiles never reused a cached unit"
    );
    // Cache-keying invariant: distinct inputs never share a 64-bit key
    // on this stream, in the design cache or the score cache.
    assert_eq!(
        (wreport.cache_collisions, wreport.score_collisions),
        (0, 0),
        "design / score cache key collisions"
    );

    // Scheduler invariants, asserted in-process on the registry stream.
    //
    // Identical per-job work whatever the schedule…
    assert_eq!(wstats.llm_requests, sstats.llm_requests);
    assert_eq!(wstats.sim_requests, sstats.sim_requests);
    assert_eq!(wstats.jobs_done, sstats.jobs_done);
    // …the wave scheduler must coalesce at least as well as the
    // barrier (its coalescing join exists for exactly this)…
    assert!(
        wstats.llm_batch_calls <= barrier.dispatch_calls,
        "wave dispatches more LLM calls than the barrier: {} vs {}",
        wstats.llm_batch_calls,
        barrier.dispatch_calls
    );
    // …while actually overlapping sim under LLM…
    assert!(wstats.overlap_steps > 0, "wave mode never overlapped");
    // …and batching must coalesce: strictly fewer LLM calls than
    // requests on a multi-job stream, while scalar is 1:1.
    assert!(
        wstats.llm_batch_calls < wstats.llm_requests,
        "batched mode must coalesce: {} calls vs {} requests",
        wstats.llm_batch_calls,
        wstats.llm_requests
    );
    assert_eq!(sstats.llm_batch_calls, sstats.llm_requests);

    // Resilience invariants: the empty plan leaves every counter at
    // zero (the fault machinery is a strict passthrough when unused);
    // the canonical plan lights the retry and rate-limit paths while
    // failing nothing (every canonical fault is absorbable).
    assert_eq!(wreport.failed, 0, "empty plan failed a job");
    assert_eq!(
        (
            wstats.retries,
            wstats.hedges,
            wstats.rate_limit_defers,
            wstats.failovers,
        ),
        (0, 0, 0, 0),
        "empty plan left nonzero resilience counters"
    );
    let (_, report) = run_serve(FaultPlan::canonical(), true);
    let (faulted, faulted_failed, faulted_jobs) = (report.stats, report.failed, report.jobs);
    assert_eq!(
        faulted_failed, 0,
        "canonical plan must be fully absorbed ({faulted_failed}/{faulted_jobs} jobs failed)"
    );
    assert!(faulted.retries > 0, "canonical plan triggered no retries");
    assert!(
        faulted.rate_limit_defers > 0,
        "canonical plan shed no calls"
    );

    // Fleet invariants: a sharded run does exactly the same per-job
    // work as one engine, retires everything, and its placement record
    // replays bit-identically (same trace re-recorded, same solve
    // traces out) when pinned.
    let fleet = fleet_report.expect("ran");
    assert_eq!(fleet.done, jobs, "fleet dropped a job");
    assert_eq!(fleet.stats.llm_requests, wstats.llm_requests);
    assert_eq!(fleet.stats.sim_requests, wstats.sim_requests);
    assert_eq!(fleet.placements, jobs, "every job placed exactly once");
    let per_shard_calls: Vec<usize> = fleet
        .shards
        .iter()
        .map(|s| s.stats.llm_batch_calls)
        .collect();
    assert_eq!(
        per_shard_calls.iter().sum::<usize>(),
        fleet.stats.llm_batch_calls,
        "per-shard dispatch calls must sum to the aggregate"
    );
    // One cache set serves every shard, and twin requests on different
    // shards take turns on one key lock, so the fleet's design and
    // score caches count exactly what one engine's do.
    let (design, scores) = (fleet.design_cache, fleet.score_cache);
    assert_eq!(
        (design.hits, design.misses, scores.hits, scores.misses),
        (hits, misses, score_hits, score_misses),
        "fleet design / score cache counts differ from the wave pass's"
    );
    let (_, replayed) = run_fleet(Some(fleet.trace.clone()));
    let placement_deterministic = replayed.trace == fleet.trace && replayed.traces == fleet.traces;
    assert!(
        placement_deterministic,
        "pinned replay diverged from the recorded fleet run"
    );

    let line = |name: &str, secs: f64| {
        println!(
            "{name:16} {jobs:4} jobs in {:8.3}s  ({:7.2} jobs/s)",
            secs,
            jobs as f64 / secs
        );
    };
    line("serve_wave", wave_s);
    line("serve_scalar", scalar_s);
    line("serve_fleet", fleet_s);
    line("solo_loop", solo_s);
    println!(
        "fleet ({FLEET_SHARDS} shards): {} migrations, per-shard dispatch calls {:?}, \
         design and score caches as the wave pass's; replay pinned: ok",
        fleet.migrations, per_shard_calls,
    );
    println!(
        "wave llm: {} requests in {} dispatch calls ({:.1} avg, {} overlapped steps); \
         barrier: {} calls; scalar: {} calls; design cache {hits} hits / {misses} misses; \
         score cache {score_hits} hits / {score_misses} misses",
        wstats.llm_requests,
        wstats.llm_batch_calls,
        wstats.llm_requests as f64 / wstats.llm_batch_calls.max(1) as f64,
        wstats.overlap_steps,
        barrier.dispatch_calls,
        sstats.llm_batch_calls,
    );
    println!(
        "canonical faults: {} retries, {} hedges, {} rate-limit defers, {} failovers, \
         0/{faulted_jobs} jobs failed",
        faulted.retries, faulted.hedges, faulted.rate_limit_defers, faulted.failovers,
    );
    println!(
        "delta units: {} hits / {} misses / {} collisions ({:.1}% debug-loop hit rate)",
        wreport.unit_hits,
        wreport.unit_misses,
        wreport.unit_collisions,
        100.0 * wreport.unit_hits as f64 / (wreport.unit_hits + wreport.unit_misses).max(1) as f64,
    );

    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"modes\": {{\n    \
         \"serve_wave\":   {{ \"wall_s\": {wave_s:.6}, \"jobs_per_sec\": {:.3} }},\n    \
         \"serve_scalar\": {{ \"wall_s\": {scalar_s:.6}, \"jobs_per_sec\": {:.3} }},\n    \
         \"solo_loop\":    {{ \"wall_s\": {solo_s:.6}, \"jobs_per_sec\": {:.3} }}\n  }},\n  \
         \"llm_dispatch\": {{\n    \
         \"requests\": {},\n    \"wave_calls\": {},\n    \"barrier_calls\": {},\n    \
         \"scalar_calls\": {},\n    \"avg_wave_batch_size\": {:.2}\n  }},\n  \
         \"scheduler\": {{\n    \
         \"wave\": {{ \"dispatch_calls\": {}, \"steps\": {}, \"sim_waves\": {}, \
         \"overlap_steps\": {} }},\n    \
         \"barrier\": {{ \"dispatch_calls\": {}, \"steps\": {}, \"sim_waves\": {} }},\n    \
         \"delta\": {{ \"unit_hits\": {}, \"unit_misses\": {}, \"unit_collisions\": {}, \
         \"hit_rate\": {:.4} }}\n  }},\n  \
         \"resilience\": {{\n    \
         \"plan\": \"canonical\",\n    \"retries\": {},\n    \"hedges\": {},\n    \
         \"rate_limit_defers\": {},\n    \"failovers\": {},\n    \"jobs_failed\": {}\n  }},\n  \
         \"fleet\": {{\n    \
         \"shards\": {FLEET_SHARDS},\n    \"wall_s\": {fleet_s:.6},\n    \
         \"jobs_per_sec\": {:.3},\n    \"per_shard_dispatch_calls\": {per_shard_calls:?},\n    \
         \"migrations\": {},\n    \"placements\": {},\n    \
         \"placement_deterministic\": {placement_deterministic}\n  }},\n  \
         \"design_cache\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n  \
         \"score_cache\": {{ \"hits\": {score_hits}, \"misses\": {score_misses}, \
         \"collisions\": {} }},\n  \
         \"notes\": \"serve_wave = the wave scheduler with LLM batching on; serve_scalar = \
         the wave scheduler with batching off; solo_loop = sequential Mage::solve without \
         serve. scheduler.barrier counts a schedule that resolves every job's k-th request \
         together in step k, derived from each job's solo need sequence (its SolveJob driven \
         by hand, no serve code): the wave scheduler's coalescing join keeps its dispatch \
         calls <= the barrier's, asserted in-process along with overlap_steps > 0 and identical \
         per-job work in every pass. The serve_wave, serve_scalar and fleet passes \
         run under an explicit empty fault plan. All serve modes use per-job \
         synthetic models and the shared design+score caches. The resilience section drives \
         the same wave stream through the canonical fault plan (every fault kind, all \
         absorbable): counters are asserted zero fault-free and nonzero (with zero failed \
         jobs) under faults. The fleet section shards the same stream across \
         {FLEET_SHARDS} wave engines behind the affinity router (rebalancer on, cadence 8): \
         per-job work is asserted identical to the single engine, and the recorded placement \
         trace is replayed pinned in-process — placement_deterministic means the replay \
         re-recorded the identical trace and produced bit-identical solve traces. The shards \
         share one design, score and unit cache, and the harness asserts that the fleet's \
         design- and score-cache hits and misses equal design_cache and score_cache: twin \
         requests on different shards take turns on one key lock. The scheduler.delta entry \
         records the wave pass's process-unit cache counters: the debug loop re-compiles edited \
         candidates against their parent design, so unchanged processes are served from \
         the unit tier (hit_rate = hits / (hits + misses)); the harness asserts nonzero \
         unit hits. design_cache and score_cache record the wave pass's design- and \
         score-cache counters; the harness asserts 0 key collisions in both. Identical \
         scoring requests in one wave take turns on their key's lock, so the second copy \
         hits at any worker count. Stream = VerilogEval-Human x \
         {RUNS_PER_PROBLEM} runs, high-temperature MAGE config, seed 0xBE. Wall times are \
         interleaved best-of-{samples} minima on {cpus} CPUs (the serve modes run one sim \
         worker per CPU) and are telemetry; the scheduler section's deterministic counts \
         (dispatch calls, sim waves, overlap steps) are the architecture signal. \
         ci/bench-engine.expected pins scheduler.wave, scheduler.barrier, llm_dispatch \
         (all but avg_wave_batch_size, which is requests / wave_calls), resilience, \
         score_cache and design_cache (twin compiles in one wave take turns on their key's \
         lock, as twin scoring requests do). scheduler.delta stays out: two different \
         candidates in one wave that share a process unit can both miss the unit tier. \
         fleet stays out too: its wall time is telemetry and its cache counts are asserted. \
         Regenerate with: cargo run --release -p mage-bench --bin bench_engine\"\n}}\n",
        jobs as f64 / wave_s,
        jobs as f64 / scalar_s,
        jobs as f64 / solo_s,
        wstats.llm_requests,
        wstats.llm_batch_calls,
        barrier.dispatch_calls,
        sstats.llm_batch_calls,
        wstats.llm_requests as f64 / wstats.llm_batch_calls.max(1) as f64,
        wstats.llm_batch_calls,
        wstats.rounds,
        wstats.sim_waves,
        wstats.overlap_steps,
        barrier.dispatch_calls,
        barrier.steps,
        barrier.sim_waves,
        wreport.unit_hits,
        wreport.unit_misses,
        wreport.unit_collisions,
        wreport.unit_hits as f64 / (wreport.unit_hits + wreport.unit_misses).max(1) as f64,
        faulted.retries,
        faulted.hedges,
        faulted.rate_limit_defers,
        faulted.failovers,
        faulted_failed,
        jobs as f64 / fleet_s,
        fleet.migrations,
        fleet.placements,
        wreport.score_collisions,
    );
    std::fs::write(&out_path, json).expect("write baseline");
    println!("wrote {out_path}");
}
