//! Scheduler determinism: serving only interleaves solves, so every
//! served `SolveTrace` must equal the one `Mage::solve` gives for that
//! job alone — whatever the schedule (batched or scalar dispatch),
//! worker count, admission cap, cache warmth, or admission timing.
//! Every grid also checks that its swept schedules really differ.

use mage_core::{Mage, MageConfig, SolveTrace, Task};
use mage_serve::{
    synthetic_service, DesignCache, JobSpec, ScoreCache, ServeEngine, ServeOptions, ServeStats,
    UnitCache,
};
use std::sync::Arc;

const PROBLEMS: [&str; 4] = [
    "prob012_mux4_case",
    "prob029_alu4",
    "prob044_pipeline2",
    "prob010_mux2",
];

fn specs(runs: usize) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for run in 0..runs {
        for (pix, id) in PROBLEMS.iter().enumerate() {
            let p = mage_problems::by_id(id).expect("corpus problem");
            out.push(JobSpec {
                problem_id: p.id.to_string(),
                spec: p.spec.to_string(),
                config: MageConfig::high_temperature(),
                seed: 1000 + (run * PROBLEMS.len() + pix) as u64,
            });
        }
    }
    out
}

/// The reference: each job solved alone by `Mage::solve`.
fn solo(specs: &[JobSpec]) -> Vec<SolveTrace> {
    specs
        .iter()
        .map(|spec| {
            let p = mage_problems::by_id(&spec.problem_id).expect("corpus problem");
            Mage::new(&mut p.job_model(spec.seed), spec.config.clone()).solve(&Task {
                id: p.id,
                spec: p.spec,
            })
        })
        .collect()
}

fn run_stream(
    opts: ServeOptions,
    cache: Option<Arc<DesignCache>>,
) -> (Vec<SolveTrace>, ServeStats) {
    let specs = specs(2);
    let service = synthetic_service(&specs);
    let mut engine = match cache {
        Some(c) => ServeEngine::with_caches(
            opts,
            service,
            c,
            Arc::new(ScoreCache::new()),
            Arc::new(UnitCache::new()),
        ),
        None => ServeEngine::new(opts, service),
    };
    for spec in specs {
        engine.push_job(spec);
    }
    engine.run();
    let traces: Vec<SolveTrace> = engine
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(traces.len(), 8, "all jobs retire");
    (traces, engine.stats().clone())
}

/// The two schedules every grid sweeps: one coalesced LLM batch per
/// dispatch point, and scalar dispatch (one call per request).
const SCHEDULES: [(&str, bool); 2] = [("batched", true), ("scalar", false)];

fn opts(batch_llm: bool, workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        batch_llm,
        max_in_flight: 0,
        ..ServeOptions::default()
    }
}

/// A run really had its schedule: batching coalesced requests into
/// fewer calls, scalar dispatch made one call per request.
fn assert_schedule(batch_llm: bool, stats: &ServeStats) {
    let coalesced = stats.llm_batch_calls < stats.llm_requests;
    assert_eq!(coalesced, batch_llm, "schedule did not apply: {stats:?}");
}

#[test]
fn mode_and_worker_count_do_not_change_results() {
    let base = solo(&specs(2));
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 2, 8] {
            let (got, stats) = run_stream(opts(batch, workers), None);
            assert_eq!(got, base, "traces diverged at {sched}/{workers} workers");
            assert_schedule(batch, &stats);
        }
    }
}

#[test]
fn batching_mode_does_not_change_results() {
    // Uncapped, and capped at three jobs in flight: two schedules.
    let reference = solo(&specs(2));
    let mut rounds = Vec::new();
    for cap in [0usize, 3] {
        for (sched, batch) in SCHEDULES {
            let o = ServeOptions {
                max_in_flight: cap,
                ..opts(batch, 4)
            };
            let (got, stats) = run_stream(o, None);
            assert_eq!(got, reference, "{sched} at cap {cap}");
            assert_schedule(batch, &stats);
            rounds.push(stats.rounds);
        }
    }
    assert_ne!(rounds[0], rounds[2], "the cap did not change the schedule");
}

#[test]
fn admission_cap_does_not_change_results() {
    let reference = solo(&specs(2));
    for (sched, batch) in SCHEDULES {
        let (unlimited, u) = run_stream(opts(batch, 2), None);
        assert_eq!(unlimited, reference, "{sched}: uncapped");
        assert_schedule(batch, &u);
        for cap in [1usize, 3] {
            let (capped, c) = run_stream(
                ServeOptions {
                    max_in_flight: cap,
                    ..opts(batch, 2)
                },
                None,
            );
            assert_eq!(capped, reference, "{sched}: cap {cap} changed traces");
            assert!(c.rounds > u.rounds, "{sched}: cap {cap} added no steps");
        }
    }
}

#[test]
fn warm_design_cache_does_not_leak_across_streams() {
    // Warm a cache with one full stream, then replay the stream through
    // it under the other schedule: every compile hits, nothing changes.
    // (Cross-schedule warmth is the strongest version: hit/miss
    // patterns differ between schedules, results must not.)
    let cache = Arc::new(DesignCache::new());
    let (cold, c) = run_stream(opts(true, 2), Some(Arc::clone(&cache)));
    let misses_after_first = cache.misses();
    let (warm, w) = run_stream(opts(false, 2), Some(Arc::clone(&cache)));
    assert_schedule(true, &c);
    assert_schedule(false, &w);
    assert_eq!(cold, solo(&specs(2)), "the cold stream diverged from solo");
    assert_eq!(warm, cold, "a warm cache must be invisible to results");
    assert_eq!(
        cache.misses(),
        misses_after_first,
        "replaying an identical stream must compile nothing new"
    );
    assert!(cache.hits() > 0);
}

#[test]
fn engine_matches_single_job_solve() {
    // Each schedule must be a pure interleaving: each job's trace
    // equals the one `Mage::solve` produces alone with the same seed.
    let reference = solo(&specs(2));
    for (sched, batch) in SCHEDULES {
        let (all, stats) = run_stream(opts(batch, 4), None);
        assert_schedule(batch, &stats);
        for ((spec, served), solo) in specs(2).into_iter().zip(all).zip(&reference) {
            assert_eq!(
                &served, solo,
                "{}: {} diverged from solo solve",
                sched, spec.problem_id
            );
        }
    }
}

// ---------------------------------------------------------------------
// Full-registry differential: served traces vs solo solves of every
// registered problem, including pause/resume and checkpoint/restore.
// ---------------------------------------------------------------------

fn registry_specs() -> Vec<JobSpec> {
    mage_problems::all_problems()
        .into_iter()
        .enumerate()
        .map(|(ix, p)| JobSpec {
            problem_id: p.id.to_string(),
            spec: p.spec.to_string(),
            config: MageConfig::high_temperature(),
            seed: 0xD1FF + ix as u64,
        })
        .collect()
}

fn run_registry(opts: ServeOptions) -> Vec<SolveTrace> {
    let specs = registry_specs();
    let n = specs.len();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(opts, service);
    for spec in specs {
        engine.push_job(spec);
    }
    engine.run();
    let traces: Vec<SolveTrace> = engine
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(traces.len(), n, "all registry jobs retire");
    traces
}

/// The same registry stream, interrupted mid-run: a few jobs paused and
/// resumed, a few lifted out as checkpoints and restored after the rest
/// drained. Returns traces re-indexed to original job order, and the
/// engine's counters.
fn run_registry_interrupted(opts: ServeOptions) -> (Vec<SolveTrace>, ServeStats) {
    let specs = registry_specs();
    let n = specs.len();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(opts, service);
    for spec in specs {
        engine.push_job(spec);
    }
    for _ in 0..6 {
        engine.step();
    }
    // Interrupt six still-running jobs (fast problems may already have
    // retired after six steps; which ones is schedule-dependent).
    let done: Vec<usize> = engine.traces().into_iter().map(|(id, _)| id).collect();
    let alive: Vec<usize> = (0..n).filter(|id| !done.contains(id)).collect();
    assert!(alive.len() >= 6, "stream drained before the interruptions");
    let paused = [alive[0], alive[2], alive[4]];
    let lifted = [alive[1], alive[3], alive[alive.len() - 1]];
    for &id in &paused {
        engine.pause_job(id);
    }
    let cks: Vec<(usize, mage_serve::JobCheckpoint)> = lifted
        .iter()
        .map(|&id| {
            (
                id,
                engine.checkpoint(id).expect("job is running mid-stream"),
            )
        })
        .collect();
    engine.run(); // drains everyone not paused or parked
    for &id in &paused {
        engine.resume_job(id);
    }
    let restored: Vec<(usize, usize)> = cks
        .into_iter()
        .map(|(orig, ck)| (orig, engine.restore(ck)))
        .collect();
    engine.run();

    let traces: Vec<SolveTrace> = (0..n)
        .map(|id| {
            if lifted.contains(&id) {
                // The parked slot never retired; its trace lives at the
                // restored id.
                let new_id = restored
                    .iter()
                    .find(|(orig, _)| *orig == id)
                    .expect("restored")
                    .1;
                engine.trace(new_id).expect("restored job retired").clone()
            } else {
                engine.trace(id).expect("job retired").clone()
            }
        })
        .collect();
    assert_eq!(traces.len(), n);
    (traces, engine.stats().clone())
}

#[test]
fn full_registry_matches_solo_solves_at_every_worker_count() {
    let reference = solo(&registry_specs());
    for workers in [1usize, 2, 8] {
        let served = run_registry(opts(true, workers));
        assert_eq!(
            served, reference,
            "served traces diverged from the solo solves at {workers} workers"
        );
    }
}

#[test]
fn full_registry_interruptions_are_invisible_in_both_modes() {
    // Both schedules sweep batching, never the cap: a capped stream
    // leaves jobs queued, and a queued job has no checkpoint.
    let reference = solo(&registry_specs());
    for (sched, batch) in SCHEDULES {
        let (got, stats) = run_registry_interrupted(opts(batch, 2));
        assert_schedule(batch, &stats);
        assert_eq!(
            got, reference,
            "{sched}: pause/resume + checkpoint/restore changed a trace"
        );
    }
}

// ---------------------------------------------------------------------
// Streaming admission: jobs arriving mid-run must change nothing.
// ---------------------------------------------------------------------

#[test]
fn jobs_pushed_mid_run_match_the_all_up_front_stream() {
    let base = solo(&specs(2));
    for (sched, batch) in SCHEDULES {
        // Same stream, but only the first job is pushed up front; the
        // rest trickle in one per step, mid-flight, with no barrier in
        // between. Admission order (= push order) is all that matters.
        let specs = specs(2);
        let service = synthetic_service(&specs);
        let mut engine = ServeEngine::new(opts(batch, 2), service);
        let mut pending = specs.into_iter();
        engine.push_job(pending.next().expect("non-empty stream"));
        loop {
            let progress = engine.step();
            let mut pushed = false;
            if let Some(spec) = pending.next() {
                engine.push_job(spec);
                pushed = true;
            }
            if !progress && !pushed {
                break;
            }
        }
        let got: Vec<SolveTrace> = engine
            .traces()
            .into_iter()
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(got, base, "{sched}: streamed admission changed traces");
        assert_schedule(batch, engine.stats());
    }
}

#[test]
fn threaded_intake_submissions_match_the_all_up_front_stream() {
    let base = solo(&specs(2));
    for (sched, batch) in SCHEDULES {
        // Arrival timing moves the threaded run's batches, so the
        // schedule is checked on the all-up-front stream.
        assert_schedule(batch, &run_stream(opts(batch, 2), None).1);

        let specs = specs(2);
        let service = synthetic_service(&specs);
        let mut engine = ServeEngine::new(opts(batch, 2), service);
        let intake = engine.intake();
        let producer = std::thread::spawn(move || {
            for (ix, spec) in specs.into_iter().enumerate() {
                // Sleep past the engine's drain so some submissions
                // land while it is actively stepping and some while it
                // is parked idle on the intake.
                if ix % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                assert!(intake.submit(spec), "intake closed early");
            }
            intake.close();
        });
        engine.run();
        producer.join().expect("producer thread");
        let got: Vec<SolveTrace> = engine
            .traces()
            .into_iter()
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(got, base, "{sched}: threaded intake changed traces");
        assert_eq!(got.len(), 8, "{sched}: run returned before intake drained");
    }
}
