//! Engine behaviour: batching economics, pause/resume, checkpointing
//! across engines, memory bounds, productive-step accounting, score
//! sharing, and the shared-model batch surface.

use mage_core::{MageConfig, SolveTrace};
use mage_llm::{
    DebugRequest, JudgeTbRequest, LlmRequest, LlmResponse, ModelOutput, RtlGenRequest,
    RtlLanguageModel, SyntaxFixRequest, SyntheticModel, SyntheticModelConfig, TbGenRequest,
};
use mage_serve::{synthetic_service, JobSpec, LlmService, ServeEngine, ServeOptions, SharedModel};
use mage_tb::Testbench;

const PROBLEMS: [&str; 3] = ["prob012_mux4_case", "prob029_alu4", "prob010_mux2"];

fn specs() -> Vec<JobSpec> {
    PROBLEMS
        .iter()
        .enumerate()
        .flat_map(|(pix, id)| {
            (0..2).map(move |run| {
                let p = mage_problems::by_id(id).expect("corpus problem");
                JobSpec {
                    problem_id: p.id.to_string(),
                    spec: p.spec.to_string(),
                    config: MageConfig::high_temperature(),
                    seed: 7000 + (pix * 2 + run) as u64,
                }
            })
        })
        .collect()
}

fn engine_with(opts: ServeOptions) -> ServeEngine<impl LlmService> {
    let specs = specs();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(opts, service);
    for spec in specs {
        engine.push_job(spec);
    }
    engine
}

#[test]
fn batching_strictly_beats_scalar_dispatch_counts() {
    // Uncapped, and capped at two jobs in flight: two schedules.
    let mut rounds = Vec::new();
    for cap in [0usize, 2] {
        let mut batched = engine_with(ServeOptions {
            workers: 2,
            batch_llm: true,
            max_in_flight: cap,
            ..ServeOptions::default()
        });
        batched.run();
        let b = batched.stats().clone();

        let mut scalar = engine_with(ServeOptions {
            workers: 2,
            batch_llm: false,
            max_in_flight: cap,
            ..ServeOptions::default()
        });
        scalar.run();
        let s = scalar.stats().clone();

        // Same work either way…
        assert_eq!(b.llm_requests, s.llm_requests, "cap {cap}");
        assert_eq!(b.jobs_done, 6, "cap {cap}");
        // …but the batched engine coalesces: strictly fewer dispatch
        // calls than requests (the acceptance criterion), while scalar
        // is 1:1.
        assert!(
            b.llm_batch_calls < b.llm_requests,
            "cap {cap} batched: {} calls for {} requests",
            b.llm_batch_calls,
            b.llm_requests
        );
        assert_eq!(s.llm_batch_calls, s.llm_requests, "cap {cap}");
        rounds.push(b.rounds);
    }
    assert_ne!(rounds[0], rounds[1], "the cap did not change the schedule");
}

#[test]
fn wave_mode_overlaps_sim_under_llm_dispatch() {
    let mut wave = engine_with(ServeOptions {
        workers: 2,
        batch_llm: true,
        max_in_flight: 0,
        ..ServeOptions::default()
    });
    wave.run();
    let w = wave.stats().clone();
    assert!(
        w.overlap_steps > 0,
        "the wave scheduler never overlapped a sim wave with an LLM dispatch"
    );

    let mut scalar = engine_with(ServeOptions {
        workers: 2,
        batch_llm: false,
        max_in_flight: 0,
        ..ServeOptions::default()
    });
    scalar.run();
    let s = scalar.stats().clone();
    assert!(s.llm_batch_calls > w.llm_batch_calls, "schedules coincide");
    // Identical per-job work regardless of schedule.
    assert_eq!(w.llm_requests, s.llm_requests);
    assert_eq!(w.sim_requests, s.sim_requests);
    assert_eq!(w.jobs_done, s.jobs_done);
}

#[test]
fn paused_job_holds_while_others_finish_then_resumes_identically() {
    // Baseline: uninterrupted stream.
    let mut baseline = engine_with(ServeOptions::default());
    baseline.run();
    let expect: Vec<SolveTrace> = baseline
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();

    // Interrupted: pause job 2 after a few rounds, drain the rest,
    // then resume and drain again.
    let mut engine = engine_with(ServeOptions::default());
    for _ in 0..3 {
        engine.step();
    }
    engine.pause_job(2);
    engine.run();
    assert!(engine.trace(2).is_none(), "paused job must not retire");
    assert_eq!(engine.traces().len(), 5, "all others retire");
    engine.resume_job(2);
    engine.run();
    let got: Vec<SolveTrace> = engine
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(got, expect, "pausing mid-solve must not change any trace");
}

#[test]
fn checkpoint_restores_into_a_fresh_engine_bit_identically() {
    let mut baseline = engine_with(ServeOptions::default());
    baseline.run();
    let expect = baseline.trace(1).expect("job 1 retired").clone();

    // Run a few rounds, lift job 1 out mid-solve…
    let mut first = engine_with(ServeOptions::default());
    for _ in 0..4 {
        first.step();
    }
    let ck = first.checkpoint(1).expect("job 1 is running mid-stream");
    first.run();
    assert!(first.trace(1).is_none(), "parked job never retires here");

    // …and finish it in a brand-new engine (fresh service: the model
    // state travels inside the checkpoint).
    let service = synthetic_service(&specs());
    let mut second = ServeEngine::new(ServeOptions::default(), service);
    let new_id = second.restore(ck);
    second.run();
    let got = second.trace(new_id).expect("restored job retires").clone();
    assert_eq!(got, expect, "checkpoint/restore must be invisible");
}

#[test]
fn finished_jobs_release_their_models() {
    let specs = specs();
    let n = specs.len();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(ServeOptions::default(), service);
    for spec in specs {
        engine.push_job(spec);
    }
    engine.run();
    assert_eq!(engine.stats().jobs_done, n);
    assert_eq!(
        engine.service().inner().live_models(),
        0,
        "a drained stream must hold no per-job models"
    );
}

/// A deterministic toy backend whose overridden `generate_batch` counts
/// invocations — proving the scheduler drives the trait's batch
/// surface, not just scalar dispatch in a loop.
struct CountingBatchModel {
    inner: SyntheticModel,
    batch_calls: usize,
    batched_requests: usize,
}

impl RtlLanguageModel for CountingBatchModel {
    fn name(&self) -> &str {
        "counting-batch"
    }
    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
        self.inner.generate_rtl(req)
    }
    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
        self.inner.generate_testbench(req)
    }
    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
        self.inner.judge_testbench(req)
    }
    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
        self.inner.debug_rtl(req)
    }
    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
        self.inner.fix_syntax(req)
    }
    fn generate_batch(&mut self, batch: &[LlmRequest]) -> Vec<LlmResponse> {
        self.batch_calls += 1;
        self.batched_requests += batch.len();
        batch.iter().map(|req| self.dispatch(req)).collect()
    }
}

#[test]
fn shared_model_routes_dispatch_points_through_generate_batch() {
    // One backend knowing every problem serves the whole stream; each
    // dispatch point's coalesced batch is exactly one generate_batch
    // call, uncapped or capped at three jobs in flight.
    let mut rounds = Vec::new();
    for cap in [0usize, 3] {
        let mut inner = SyntheticModel::new(SyntheticModelConfig::default(), 42);
        for id in PROBLEMS {
            let p = mage_problems::by_id(id).unwrap();
            inner.register(p.id, p.oracle(42));
        }
        let service = SharedModel(CountingBatchModel {
            inner,
            batch_calls: 0,
            batched_requests: 0,
        });
        let mut engine = ServeEngine::new(
            ServeOptions {
                workers: 2,
                batch_llm: true,
                max_in_flight: cap,
                ..ServeOptions::default()
            },
            service,
        );
        for spec in specs() {
            engine.push_job(spec);
        }
        engine.run();
        let stats = engine.stats().clone();
        let model = &engine.service().0;
        assert_eq!(stats.jobs_done, 6, "cap {cap}");
        assert_eq!(
            model.batch_calls, stats.llm_batch_calls,
            "cap {cap}: every dispatch call must be one generate_batch invocation"
        );
        assert_eq!(model.batched_requests, stats.llm_requests, "cap {cap}");
        assert!(model.batch_calls < model.batched_requests, "cap {cap}");
        rounds.push(stats.rounds);
    }
    assert_ne!(rounds[0], rounds[1], "the cap did not change the schedule");
}

#[test]
fn idle_steps_are_not_counted_as_rounds() {
    // An engine whose every job is paused can be stepped, but no
    // productive step happened — `rounds` (and dispatch counters)
    // must not move, batched or scalar. Regression: the engine used to
    // count a round even when a step made no progress.
    for (sched, batch_llm) in [("batched", true), ("scalar", false)] {
        let mut engine = engine_with(ServeOptions {
            workers: 1,
            batch_llm,
            max_in_flight: 0,
            ..ServeOptions::default()
        });
        for id in 0..specs().len() {
            engine.pause_job(id);
        }
        let before = engine.stats().clone();
        for _ in 0..3 {
            assert!(!engine.step(), "{sched}: all-paused engine cannot progress");
        }
        assert_eq!(
            engine.stats(),
            &before,
            "{sched}: idle steps must not move any counter"
        );
        // Resume and drain: the stream still finishes normally and now
        // counts its productive steps.
        for id in 0..specs().len() {
            engine.resume_job(id);
        }
        engine.run();
        assert_eq!(engine.stats().jobs_done, 6, "{sched}");
        assert!(engine.stats().rounds > 0, "{sched}");
        // The two schedules really differ: only batching coalesces.
        let s = engine.stats();
        assert_eq!(s.llm_batch_calls < s.llm_requests, batch_llm, "{sched}");
    }
}

#[test]
fn identical_jobs_share_scores_across_the_stream() {
    // Two jobs with the same (problem, seed) generate textually
    // identical benches and candidates — the second one's scoring
    // requests must be answered by the shared ScoreCache.
    let p = mage_problems::by_id("prob010_mux2").expect("corpus problem");
    let specs: Vec<JobSpec> = (0..2)
        .map(|_| JobSpec {
            problem_id: p.id.to_string(),
            spec: p.spec.to_string(),
            config: MageConfig::high_temperature(),
            seed: 4242,
        })
        .collect();
    let service = synthetic_service(&specs);
    let mut engine = ServeEngine::new(ServeOptions::default(), service);
    for spec in specs.clone() {
        engine.push_job(spec);
    }
    engine.run();
    assert_eq!(engine.stats().jobs_done, 2);
    assert!(
        engine.scores().hits() > 0,
        "duplicate jobs shared no scoring outcomes"
    );
    assert_eq!(engine.scores().collisions(), 0);

    // And sharing is invisible: both traces equal the solo solve.
    let solo = {
        mage_core::Mage::new(&mut p.job_model(4242), specs[0].config.clone()).solve(
            &mage_core::Task {
                id: p.id,
                spec: p.spec,
            },
        )
    };
    for (_, trace) in engine.traces() {
        assert_eq!(trace, &solo, "score sharing changed a trace");
    }
}

#[test]
fn wave_checkpoint_carries_a_parked_request() {
    // Find the state where requests sit *parked in the sim queue*
    // between steps (a wave is in flight, so newly arriving sim needs
    // queue behind it), checkpoint every still-running job there —
    // including the parked ones — and prove restore is invisible.
    //
    // Desynchronize the population into three cohorts so the parked
    // state arises: job 0 runs ahead into a background sim wave; job 1
    // (one wave behind) reaches its compile probe while that wave is
    // still in flight — its request parks in `sim_q` — and jobs 2–5
    // (two waves behind) keep an LLM cohort strictly larger than the
    // whole sim side, so the coalescing join holds off and the dispatch
    // keeps the wave un-joined. The schedule is deterministic, so the
    // search below always lands on the same step.
    let mut baseline = engine_with(ServeOptions::default());
    baseline.run();
    let expect: Vec<SolveTrace> = baseline
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();

    let mut first = engine_with(ServeOptions::default());
    for id in 1..6 {
        first.pause_job(id);
    }
    first.step();
    first.step();
    first.resume_job(1);
    first.step();
    for id in 2..6 {
        first.resume_job(id);
    }
    let mut guard = 0;
    while first.queued_wave_work().1 == 0 {
        assert!(
            first.step(),
            "stream drained without ever parking a sim request"
        );
        guard += 1;
        assert!(guard < 200, "no parked sim request after {guard} steps");
    }

    // Checkpoint every unfinished job; at least one carries its parked
    // sim request rather than a resolved input.
    let done: Vec<usize> = first.traces().into_iter().map(|(id, _)| id).collect();
    let cks: Vec<(usize, mage_serve::JobCheckpoint)> = (0..specs().len())
        .filter(|id| !done.contains(id))
        .map(|id| (id, first.checkpoint(id).expect("job is running")))
        .collect();
    assert!(!cks.is_empty());
    assert_eq!(
        first.queued_wave_work(),
        (0, 0),
        "checkpointing every running job must empty the queues"
    );

    let service = synthetic_service(&specs());
    let mut second = ServeEngine::new(ServeOptions::default(), service);
    let restored: Vec<(usize, usize)> = cks
        .into_iter()
        .map(|(orig, ck)| (orig, second.restore(ck)))
        .collect();
    second.run();
    for (orig, new_id) in restored {
        let got = second.trace(new_id).expect("restored job retires");
        assert_eq!(
            got, &expect[orig],
            "checkpoint with parked request must be invisible (job {orig})"
        );
    }
}
