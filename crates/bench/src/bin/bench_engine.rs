//! Engine-throughput baseline harness: drive a fixed job stream through
//! `mage-serve` in four modes and write `BENCH_engine.json` so future
//! PRs can track the serving-path trajectory alongside `BENCH_sim.json`.
//!
//! Modes measured (interleaved best-of-N, like `bench_sim`):
//!
//! * `serve_wave`   — the overlapped wave scheduler (default): LLM
//!   batches dispatch while sim waves crunch in the background;
//! * `serve_bsp`    — the BSP round oracle with LLM batching on: each
//!   round's requests across all jobs coalesce into one dispatch call;
//! * `serve_scalar` — the BSP scheduler, batching off (one dispatch
//!   call per request): isolates the batching win in call counts;
//! * `serve_fleet`  — the same stream sharded across `FLEET_SHARDS`
//!   wave engines behind the `mage-fleet` affinity router (rebalancer
//!   on), with the tiered cache fabric underneath;
//! * `solo_loop`    — the pre-serve baseline: one blocking
//!   `Mage::solve` after another, no shared design cache.
//!
//! Besides wall time the JSON records a deterministic `scheduler`
//! section — per-mode LLM dispatch calls, productive steps, sim waves
//! launched, and overlapped steps (an LLM batch dispatched while a sim
//! wave was in flight) — and asserts the wave invariants in-process:
//! wave dispatch calls ≤ BSP's on the registry stream, wave overlap
//! strictly positive, BSP overlap exactly zero, identical per-job work
//! either way, and batched calls < requests (the PR 2 acceptance
//! invariant). A `resilience` section re-runs the wave stream under the
//! canonical fault plan and asserts the retry machinery both fires
//! (nonzero retries and rate-limit defers) and absorbs (zero failed
//! jobs), while the empty plan leaves every counter at zero. A `fleet`
//! section shards the stream, records per-shard dispatch calls,
//! migration counts and cache-fabric hit rates, and asserts in-process
//! that the fleet does identical per-job work and that a pinned replay
//! of its placement trace is bit-identical.
//!
//! Usage:
//! `cargo run --release -p mage-bench --bin bench_engine [--smoke] [out.json]`
//!
//! `--smoke` cuts the sampling to one interleaved pass per mode so CI
//! can gate merges on the in-process invariants in a fraction of the
//! wall clock. The job stream itself stays the canonical
//! V1×RUNS_PER_PROBLEM one either way — the wave ≤ BSP dispatch-call
//! invariant is a property of the coalescing join *on that stream* —
//! so the dispatch-economics assertions are identical.

use mage_core::experiments::unit_seed;
use mage_core::{Mage, MageConfig, SystemKind, Task};
use mage_fleet::{FleetEngine, FleetOptions, FleetReport, PlacementTrace};
use mage_llm::{DispatchPolicy, FaultPlan, SyntheticModel, SyntheticModelConfig};
use mage_problems::SuiteId;
use mage_serve::{
    synthetic_service, synthetic_service_with, JobSpec, SchedMode, ServeEngine, ServeOptions,
    ServeStats,
};
use std::time::Instant;

/// Shards in the fleet mode.
const FLEET_SHARDS: usize = 4;

const RUNS_PER_PROBLEM: usize = 2;
const MASTER_SEED: u64 = 0xBE;
/// Interleaved repetitions per mode; the minimum is reported.
const SAMPLES: usize = 3;

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

/// One serve pass; returns (seconds, full report).
fn run_serve(sched: SchedMode, batch_llm: bool) -> (f64, mage_serve::ServeReport) {
    let specs = stream_specs();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_llm,
            max_in_flight: 0,
            sched,
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

/// One wave pass under an explicit fault plan (ignores
/// `$MAGE_FAULT_PLAN` — the resilience gate must check both the empty
/// and the canonical plan whatever environment the harness runs in).
/// Returns (stats, jobs failed, jobs pushed).
fn run_faulted(plan: FaultPlan) -> (ServeStats, usize, usize) {
    let specs = stream_specs();
    let service = synthetic_service_with(&specs, plan, DispatchPolicy::default());
    let mut engine = ServeEngine::new(
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_llm: true,
            max_in_flight: 0,
            sched: SchedMode::Wave,
            ..ServeOptions::default()
        },
        service,
    );
    for spec in specs {
        engine.push_job(spec);
    }
    engine.run();
    let report = engine.report();
    (report.stats, report.failed, report.jobs)
}

/// One fleet pass over the canonical stream: `FLEET_SHARDS` wave
/// engines behind the affinity router with the rebalancer on. Passing
/// a recorded trace replays it pinned (the determinism gate).
fn run_fleet(pinned: Option<PlacementTrace>) -> (f64, FleetReport) {
    let specs = stream_specs();
    let mut fleet = FleetEngine::synthetic(FleetOptions {
        shards: FLEET_SHARDS,
        serve: ServeOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_llm: true,
            max_in_flight: 0,
            sched: SchedMode::Wave,
            ..ServeOptions::default()
        },
        migrate_after_steps: 8,
        pinned,
        ..FleetOptions::default()
    });
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
        let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
        model.register(p.id, p.oracle(spec.seed));
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
    // BSP dispatch-call invariant is a property of the coalescing join
    // *on this stream*, so the gate must re-check exactly it.
    let samples = if smoke { 1 } else { SAMPLES };
    // An inherited MAGE_SIM_FUSE=off would strip the fused-plan
    // dispatch tier out of every measured leg.
    std::env::remove_var("MAGE_SIM_FUSE");
    let jobs = stream_specs().len();

    // Interleave the four modes so load drift hits all equally.
    let (mut wave_s, mut bsp_s, mut scalar_s, mut solo_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut wave_report: Option<mage_serve::ServeReport> = None;
    let mut bsp_stats: Option<ServeStats> = None;
    let mut scalar_stats: Option<ServeStats> = None;
    let mut fleet_s = f64::INFINITY;
    let mut fleet_report: Option<FleetReport> = None;
    for _ in 0..samples {
        let (s, report) = run_serve(SchedMode::Wave, true);
        wave_s = wave_s.min(s);
        wave_report.get_or_insert(report);
        let (s, report) = run_serve(SchedMode::Bsp, true);
        bsp_s = bsp_s.min(s);
        bsp_stats.get_or_insert(report.stats);
        let (s, report) = run_serve(SchedMode::Bsp, false);
        scalar_s = scalar_s.min(s);
        scalar_stats.get_or_insert(report.stats);
        let (s, report) = run_fleet(None);
        fleet_s = fleet_s.min(s);
        fleet_report.get_or_insert(report);
        solo_s = solo_s.min(run_solo());
    }
    let wreport = wave_report.expect("ran");
    let (hits, misses) = (wreport.cache_hits, wreport.cache_misses);
    let wstats = wreport.stats;
    let bstats = bsp_stats.expect("ran");
    let sstats = scalar_stats.expect("ran");

    // Delta-compilation invariant: the wave pass compiles through the
    // process-unit cache, so the debug loop's re-compiles of edited
    // candidates must reuse cached units.
    assert!(
        wreport.unit_hits > 0,
        "debug-loop re-compiles never reused a cached unit"
    );

    // Scheduler invariants, asserted in-process on the registry stream.
    //
    // Identical per-job work whatever the schedule…
    assert_eq!(wstats.llm_requests, bstats.llm_requests);
    assert_eq!(wstats.sim_requests, bstats.sim_requests);
    assert_eq!(wstats.jobs_done, bstats.jobs_done);
    // …the wave scheduler must coalesce at least as well as the BSP
    // barrier (its coalescing join exists for exactly this)…
    assert!(
        wstats.llm_batch_calls <= bstats.llm_batch_calls,
        "wave dispatches more LLM calls than BSP: {} vs {}",
        wstats.llm_batch_calls,
        bstats.llm_batch_calls
    );
    // …while actually overlapping sim under LLM (BSP never does)…
    assert!(wstats.overlap_steps > 0, "wave mode never overlapped");
    assert_eq!(bstats.overlap_steps, 0, "BSP rounds cannot overlap");
    // …and batching must coalesce: strictly fewer LLM calls than
    // requests on a multi-job stream, while scalar is 1:1.
    assert!(
        bstats.llm_batch_calls < bstats.llm_requests,
        "batched mode must coalesce: {} calls vs {} requests",
        bstats.llm_batch_calls,
        bstats.llm_requests
    );
    assert_eq!(sstats.llm_batch_calls, sstats.llm_requests);

    // Resilience invariants: the empty plan leaves every counter at
    // zero (the fault machinery is a strict passthrough when unused);
    // the canonical plan lights the retry and rate-limit paths while
    // failing nothing (every canonical fault is absorbable).
    let (clean, clean_failed, _) = run_faulted(FaultPlan::none());
    assert_eq!(clean_failed, 0, "empty plan failed a job");
    assert_eq!(
        (
            clean.retries,
            clean.hedges,
            clean.rate_limit_defers,
            clean.failovers,
        ),
        (0, 0, 0, 0),
        "empty plan left nonzero resilience counters"
    );
    let (faulted, faulted_failed, faulted_jobs) = run_faulted(FaultPlan::canonical());
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
    line("serve_bsp", bsp_s);
    line("serve_scalar", scalar_s);
    line("serve_fleet", fleet_s);
    line("solo_loop", solo_s);
    println!(
        "fleet ({FLEET_SHARDS} shards): {} migrations, per-shard dispatch calls {:?}, \
         design fabric local {}/{} (hit/miss, {} promoted) global {}/{}; replay pinned: ok",
        fleet.migrations,
        per_shard_calls,
        fleet.fabric.design_local.hits,
        fleet.fabric.design_local.misses,
        fleet.fabric.design_local.promotions,
        fleet.fabric.design_global.hits,
        fleet.fabric.design_global.misses,
    );
    println!(
        "wave llm: {} requests in {} dispatch calls ({:.1} avg, {} overlapped steps); \
         bsp: {} calls; scalar: {} calls; cache {hits} hits / {misses} misses",
        wstats.llm_requests,
        wstats.llm_batch_calls,
        wstats.llm_requests as f64 / wstats.llm_batch_calls.max(1) as f64,
        wstats.overlap_steps,
        bstats.llm_batch_calls,
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

    let sched_mode = |stats: &ServeStats| {
        format!(
            "{{ \"dispatch_calls\": {}, \"steps\": {}, \"sim_waves\": {}, \"overlap_steps\": {} }}",
            stats.llm_batch_calls, stats.rounds, stats.sim_waves, stats.overlap_steps
        )
    };
    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"modes\": {{\n    \
         \"serve_wave\":   {{ \"wall_s\": {wave_s:.6}, \"jobs_per_sec\": {:.3} }},\n    \
         \"serve_bsp\":    {{ \"wall_s\": {bsp_s:.6}, \"jobs_per_sec\": {:.3} }},\n    \
         \"serve_scalar\": {{ \"wall_s\": {scalar_s:.6}, \"jobs_per_sec\": {:.3} }},\n    \
         \"solo_loop\":    {{ \"wall_s\": {solo_s:.6}, \"jobs_per_sec\": {:.3} }}\n  }},\n  \
         \"llm_dispatch\": {{\n    \
         \"requests\": {},\n    \"wave_calls\": {},\n    \"bsp_calls\": {},\n    \
         \"scalar_calls\": {},\n    \"avg_wave_batch_size\": {:.2}\n  }},\n  \
         \"scheduler\": {{\n    \
         \"wave\": {},\n    \"bsp\": {},\n    \
         \"delta\": {{ \"unit_hits\": {}, \"unit_misses\": {}, \"unit_collisions\": {}, \
         \"hit_rate\": {:.4} }}\n  }},\n  \
         \"resilience\": {{\n    \
         \"plan\": \"canonical\",\n    \"retries\": {},\n    \"hedges\": {},\n    \
         \"rate_limit_defers\": {},\n    \"failovers\": {},\n    \"jobs_failed\": {}\n  }},\n  \
         \"fleet\": {{\n    \
         \"shards\": {FLEET_SHARDS},\n    \"wall_s\": {fleet_s:.6},\n    \
         \"jobs_per_sec\": {:.3},\n    \"per_shard_dispatch_calls\": {per_shard_calls:?},\n    \
         \"migrations\": {},\n    \"placements\": {},\n    \
         \"placement_deterministic\": {placement_deterministic},\n    \
         \"fabric\": {{ \"design_local_hit_rate\": {:.3}, \"score_local_hit_rate\": {:.3}, \
         \"design_promotions\": {}, \"score_promotions\": {}, \"design_global_hits\": {}, \
         \"score_global_hits\": {} }}\n  }},\n  \
         \"design_cache\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n  \
         \"notes\": \"serve_wave = overlapped wave scheduler (default; coalescing join keeps \
         dispatch calls <= BSP, asserted in-process along with overlap_steps > 0); serve_bsp = \
         the retained BSP round oracle, batching on; serve_scalar = BSP with batching off; \
         solo_loop = sequential Mage::solve without serve. All serve modes use per-job \
         synthetic models and the shared design+score caches. The resilience section drives \
         the same wave stream through the canonical fault plan (every fault kind, all \
         absorbable): counters are asserted zero fault-free and nonzero (with zero failed \
         jobs) under faults. The fleet section shards the same stream across \
         {FLEET_SHARDS} wave engines behind the affinity router (rebalancer on, cadence 8): \
         per-job work is asserted identical to the single engine, and the recorded placement \
         trace is replayed pinned in-process — placement_deterministic means the replay \
         re-recorded the identical trace and produced bit-identical solve traces. Fabric hit \
         rates are telemetry (cross-shard publish timing makes them run-varying); the \
         determinism gate is on traces, never counters. The scheduler.delta entry records \
         the wave pass's process-unit cache counters: the debug loop re-compiles edited \
         candidates against their parent design, so unchanged processes are served from \
         the unit tier (hit_rate = hits / (hits + misses)); the harness asserts nonzero \
         unit hits. Stream = VerilogEval-Human x \
         {RUNS_PER_PROBLEM} runs, high-temperature MAGE config, seed 0xBE. Wall times are \
         interleaved best-of-{samples} minima; this container has a single CPU, so the \
         background sim wave shows no wall gain here — the scheduler section's deterministic \
         counts (dispatch calls, sim waves, overlap steps) are the architecture signal. \
         Regenerate with: cargo run --release -p mage-bench --bin bench_engine\"\n}}\n",
        jobs as f64 / wave_s,
        jobs as f64 / bsp_s,
        jobs as f64 / scalar_s,
        jobs as f64 / solo_s,
        wstats.llm_requests,
        wstats.llm_batch_calls,
        bstats.llm_batch_calls,
        sstats.llm_batch_calls,
        wstats.llm_requests as f64 / wstats.llm_batch_calls.max(1) as f64,
        sched_mode(&wstats),
        sched_mode(&bstats),
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
        fleet.fabric.design_local.hits as f64
            / (fleet.fabric.design_local.hits + fleet.fabric.design_local.misses).max(1) as f64,
        fleet.fabric.score_local.hits as f64
            / (fleet.fabric.score_local.hits + fleet.fabric.score_local.misses).max(1) as f64,
        fleet.fabric.design_local.promotions,
        fleet.fabric.score_local.promotions,
        fleet.fabric.design_global.hits,
        fleet.fabric.score_global.hits,
    );
    std::fs::write(&out_path, json).expect("write baseline");
    println!("wrote {out_path}");
}
