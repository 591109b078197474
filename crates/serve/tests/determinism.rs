//! Scheduler determinism: the same job stream must produce bit-identical
//! `SolveTrace`s whatever the scheduler mode, worker count, batching
//! mode, admission cap, cache warmth, or admission timing — and must
//! match the single-job engine exactly. `SchedMode::Bsp` is the
//! retained oracle; every wave-mode trace is differenced against it.

use mage_core::{Mage, MageConfig, SolveTrace, Task};
use mage_llm::{SyntheticModel, SyntheticModelConfig};
use mage_serve::{
    synthetic_service, DesignCache, JobSpec, SchedMode, ScoreCache, ServeEngine, ServeOptions,
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

fn run_stream(opts: ServeOptions, cache: Option<Arc<DesignCache>>) -> Vec<SolveTrace> {
    let specs = specs(2);
    let service = synthetic_service(&specs);
    let mut engine = match cache {
        Some(c) => ServeEngine::with_fabric(
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
    traces
}

fn opts(sched: SchedMode, workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        batch_llm: true,
        max_in_flight: 0,
        sched,
        ..ServeOptions::default()
    }
}

#[test]
fn mode_and_worker_count_do_not_change_results() {
    // The oracle at one worker…
    let base = run_stream(opts(SchedMode::Bsp, 1), None);
    // …must be matched by every (mode, workers) combination.
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        for workers in [1usize, 2, 8] {
            let got = run_stream(opts(sched, workers), None);
            assert_eq!(got, base, "traces diverged at {sched}/{workers} workers");
        }
    }
}

#[test]
fn batching_mode_does_not_change_results() {
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let batched = run_stream(opts(sched, 4), None);
        let scalar = run_stream(
            ServeOptions {
                batch_llm: false,
                ..opts(sched, 4)
            },
            None,
        );
        assert_eq!(batched, scalar, "{sched}");
    }
}

#[test]
fn admission_cap_does_not_change_results() {
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let unlimited = run_stream(opts(sched, 2), None);
        for cap in [1usize, 3] {
            let capped = run_stream(
                ServeOptions {
                    max_in_flight: cap,
                    ..opts(sched, 2)
                },
                None,
            );
            assert_eq!(capped, unlimited, "{sched}: cap {cap} changed traces");
        }
    }
}

#[test]
fn warm_design_cache_does_not_leak_across_streams() {
    // Warm a cache with one full stream, then replay the stream through
    // it — in the other scheduler mode: every compile hits, nothing
    // changes. (Cross-mode warmth is the strongest version: hit/miss
    // patterns differ between schedules, results must not.)
    let cache = Arc::new(DesignCache::new());
    let cold = run_stream(opts(SchedMode::Bsp, 2), Some(Arc::clone(&cache)));
    let misses_after_first = cache.misses();
    let warm = run_stream(opts(SchedMode::Wave, 2), Some(Arc::clone(&cache)));
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
    // Each scheduler must be a pure interleaving: each job's trace
    // equals the one `Mage::solve` produces alone with the same seed.
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let all = run_stream(opts(sched, 4), None);
        for (spec, served) in specs(2).into_iter().zip(all) {
            let p = mage_problems::by_id(&spec.problem_id).unwrap();
            let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
            model.register(p.id, p.oracle(spec.seed));
            let solo = Mage::new(&mut model, spec.config.clone()).solve(&Task {
                id: p.id,
                spec: p.spec,
            });
            assert_eq!(
                served, solo,
                "{}: {} diverged from solo solve",
                sched, spec.problem_id
            );
        }
    }
}

// ---------------------------------------------------------------------
// Full-registry differential: wave vs the BSP oracle over every
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
/// drained. Returns traces re-indexed to original job order.
fn run_registry_interrupted(opts: ServeOptions) -> Vec<SolveTrace> {
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
    traces
}

#[test]
fn full_registry_wave_matches_bsp_oracle_at_every_worker_count() {
    let oracle = run_registry(opts(SchedMode::Bsp, 1));
    for workers in [1usize, 2, 8] {
        let wave = run_registry(opts(SchedMode::Wave, workers));
        assert_eq!(
            wave, oracle,
            "wave traces diverged from the BSP oracle at {workers} workers"
        );
    }
    // And the oracle itself is worker-count-invariant.
    for workers in [2usize, 8] {
        let bsp = run_registry(opts(SchedMode::Bsp, workers));
        assert_eq!(bsp, oracle, "BSP diverged from itself at {workers} workers");
    }
}

#[test]
fn full_registry_interruptions_are_invisible_in_both_modes() {
    let oracle = run_registry(opts(SchedMode::Bsp, 1));
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let got = run_registry_interrupted(opts(sched, 2));
        assert_eq!(
            got, oracle,
            "{sched}: pause/resume + checkpoint/restore changed a trace"
        );
    }
}

// ---------------------------------------------------------------------
// Streaming admission: jobs arriving mid-run must change nothing.
// ---------------------------------------------------------------------

#[test]
fn jobs_pushed_mid_run_match_the_all_up_front_stream() {
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let base = run_stream(opts(sched, 2), None);

        // Same stream, but only the first job is pushed up front; the
        // rest trickle in one per step, mid-flight, with no barrier in
        // between. Admission order (= push order) is all that matters.
        let specs = specs(2);
        let service = synthetic_service(&specs);
        let mut engine = ServeEngine::new(opts(sched, 2), service);
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
    }
}

#[test]
fn threaded_intake_submissions_match_the_all_up_front_stream() {
    for sched in [SchedMode::Bsp, SchedMode::Wave] {
        let base = run_stream(opts(sched, 2), None);

        let specs = specs(2);
        let service = synthetic_service(&specs);
        let mut engine = ServeEngine::new(opts(sched, 2), service);
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
