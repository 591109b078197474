//! Chaos suite: seeded fault plans driven through the full serve engine.
//! Faults are deterministic in `(plan seed, request key, attempt)`, so
//! every scenario must produce bit-identical traces across schedules
//! (batched or scalar dispatch) and worker counts — and every
//! *absorbable* plan must produce each job's solo `Mage::solve` trace,
//! because faulted attempts are dropped before the model ever sees
//! them. Total outage must drain gracefully: every job retires with a
//! structured failure, `run` returns, nothing hangs.

use mage_core::{Mage, MageConfig, SolveTrace, Task};
use mage_llm::{DispatchPolicy, FaultPlan, FaultSpec, SyntheticModel, SyntheticModelConfig};
use mage_serve::{
    synthetic_service_with, JobSpec, LlmService, ServeEngine, ServeOptions, ServeReport,
    ServeStats, SYNTHETIC_BACKENDS,
};

const PROBLEMS: [&str; 4] = [
    "prob012_mux4_case",
    "prob029_alu4",
    "prob044_pipeline2",
    "prob010_mux2",
];

fn specs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for run in 0..2 {
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

/// Run the 8-job stream under `plan` and return traces + report.
fn run_chaos(
    plan: FaultPlan,
    policy: DispatchPolicy,
    opts: ServeOptions,
) -> (Vec<SolveTrace>, ServeReport) {
    let specs = specs();
    let n = specs.len();
    let service = synthetic_service_with(&specs, plan, policy);
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
    assert_eq!(traces.len(), n, "all jobs retire, even failed ones");
    (traces, engine.report())
}

/// Each job solved alone by `Mage::solve` — after checking that a
/// fault-free engine run reproduces it with every resilience counter
/// at zero.
fn fault_free_baseline() -> Vec<SolveTrace> {
    let solo: Vec<SolveTrace> = specs()
        .iter()
        .map(|spec| {
            let p = mage_problems::by_id(&spec.problem_id).expect("corpus problem");
            let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
            model.register(p.id, p.oracle(spec.seed));
            Mage::new(&mut model, spec.config.clone()).solve(&Task {
                id: p.id,
                spec: p.spec,
            })
        })
        .collect();
    let (traces, report) = run_chaos(FaultPlan::none(), DispatchPolicy::default(), opts(true, 1));
    assert_eq!(traces, solo, "the fault-free run diverged from solo");
    assert_eq!(report.failed, 0);
    assert_eq!(
        (
            report.stats.retries,
            report.stats.hedges,
            report.stats.rate_limit_defers,
            report.stats.failovers,
        ),
        (0, 0, 0, 0),
        "an empty plan must leave every resilience counter at zero"
    );
    solo
}

// ---------------------------------------------------------------------
// Absorbable plans: traces identical to fault-free, counters light up.
// ---------------------------------------------------------------------

#[test]
fn transient_faults_are_absorbed_and_invisible() {
    let base = fault_free_baseline();
    let plan = FaultPlan::new(9, FaultSpec::single_transient());
    let mut counter_sets = Vec::new();
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 2, 8] {
            let (traces, report) = run_chaos(
                plan.clone(),
                DispatchPolicy::default(),
                opts(batch, workers),
            );
            assert_schedule(batch, &report.stats);
            assert_eq!(
                traces, base,
                "{sched}/{workers}: absorbed transients must not change traces"
            );
            assert!(
                report.stats.retries > 0,
                "{sched}/{workers}: plan never fired"
            );
            assert_eq!(
                report.failed, 0,
                "{sched}/{workers}: transients must be absorbed"
            );
            counter_sets.push((
                report.stats.retries,
                report.stats.hedges,
                report.stats.rate_limit_defers,
                report.stats.failovers,
            ));
        }
    }
    // The retry schedule is a pure function of (seed, key, attempt), so
    // the counters are one value across the whole schedule × worker
    // grid.
    assert!(
        counter_sets.windows(2).all(|w| w[0] == w[1]),
        "resilience counters diverged across the grid: {counter_sets:?}"
    );
}

#[test]
fn rate_limit_bursts_defer_and_recover() {
    let base = fault_free_baseline();
    let plan = FaultPlan::new(5, FaultSpec::burst_rate_limit());
    // Half of all calls shed: give the dispatcher enough attempts that
    // no request exhausts its budget (0.5^8 per dispatch, and the
    // engine re-dispatches twice more on top).
    let policy = DispatchPolicy {
        max_attempts: 8,
        ..DispatchPolicy::default()
    };
    for (sched, batch) in SCHEDULES {
        let (traces, report) = run_chaos(plan.clone(), policy.clone(), opts(batch, 2));
        assert_schedule(batch, &report.stats);
        assert_eq!(traces, base, "{sched}: shed calls must not change traces");
        assert!(
            report.stats.rate_limit_defers > 0,
            "{sched}: no call was shed"
        );
        assert_eq!(report.failed, 0, "{sched}: rate limits must be waited out");
    }
}

#[test]
fn dead_backend_is_routed_around() {
    let base = fault_free_baseline();
    let plan = FaultPlan::new(3, FaultSpec::one_backend_dead());
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 8] {
            let (traces, report) = run_chaos(
                plan.clone(),
                DispatchPolicy::default(),
                opts(batch, workers),
            );
            assert_schedule(batch, &report.stats);
            assert_eq!(
                traces, base,
                "{sched}/{workers}: failover must not change traces"
            );
            assert!(
                report.stats.failovers > 0,
                "{sched}/{workers}: served nothing around the dead backend"
            );
            assert_eq!(
                report.failed, 0,
                "{sched}/{workers}: two live backends suffice"
            );
        }
    }
}

#[test]
fn canonical_plan_is_absorbed_at_default_policy() {
    // The CI mix: every fault kind fires, the default policy absorbs
    // all of it. This is the exact configuration the chaos CI leg runs
    // the whole serve suite under.
    let base = fault_free_baseline();
    let (traces, report) = run_chaos(
        FaultPlan::canonical(),
        DispatchPolicy::default(),
        opts(true, 2),
    );
    assert_eq!(traces, base, "canonical plan must be fully absorbed");
    assert_eq!(report.failed, 0);
    assert!(report.stats.retries > 0);
    assert!(report.stats.rate_limit_defers > 0);
}

// ---------------------------------------------------------------------
// Total outage: graceful drain, no panic, no hang, structured failures.
// ---------------------------------------------------------------------

#[test]
fn total_outage_drains_gracefully() {
    let plan = FaultPlan::new(7, FaultSpec::all_dead(SYNTHETIC_BACKENDS));
    let mut all_traces: Vec<Vec<SolveTrace>> = Vec::new();
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 2, 8] {
            let (traces, report) = run_chaos(
                plan.clone(),
                DispatchPolicy::default(),
                opts(batch, workers),
            );
            assert_schedule(batch, &report.stats);
            assert_eq!(
                report.done, report.jobs,
                "{sched}/{workers}: engine must drain"
            );
            assert_eq!(
                report.failed, report.jobs,
                "{sched}/{workers}: nothing can succeed"
            );
            for t in &traces {
                assert!(
                    t.outcome.is_failed(),
                    "{sched}/{workers}: {} retired without a failure outcome",
                    t.problem_id
                );
            }
            // Zero live backends fast-fails before any attempt is
            // consumed — the drain burns no retry budget.
            assert_eq!(report.stats.retries, 0, "{sched}/{workers}");
            all_traces.push(traces);
        }
    }
    assert!(
        all_traces.windows(2).all(|w| w[0] == w[1]),
        "outage traces (failure reasons included) diverged across the grid"
    );
}

#[test]
fn deadlines_cancel_stuck_work_deterministically() {
    // Heavy 5s timeouts against an 8s virtual deadline: jobs whose
    // requests draw repeated timeouts blow the deadline and finish as
    // structured failures; the rest complete. Which jobs fail is a pure
    // function of the plan seed, so the grid agrees bit-for-bit.
    let plan = FaultPlan::new(11, FaultSpec::mid_wave_timeout());
    let mut all_runs: Vec<(Vec<SolveTrace>, usize)> = Vec::new();
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 2] {
            let (traces, report) = run_chaos(
                plan.clone(),
                DispatchPolicy::default(),
                ServeOptions {
                    deadline_ms: Some(8_000),
                    ..opts(batch, workers)
                },
            );
            assert_schedule(batch, &report.stats);
            assert_eq!(
                report.done, report.jobs,
                "{sched}/{workers}: engine must drain"
            );
            assert!(
                report.failed > 0,
                "{sched}/{workers}: no job tripped an 8s deadline under 5s timeouts"
            );
            assert!(
                report.failed < report.jobs,
                "{sched}/{workers}: deadline killed everything — scenario degenerate"
            );
            all_runs.push((traces, report.failed));
        }
    }
    assert!(
        all_runs.windows(2).all(|w| w[0] == w[1]),
        "deadline failures diverged across the grid"
    );
    let failed_reasons: Vec<&str> = all_runs[0]
        .0
        .iter()
        .filter(|t| t.outcome.is_failed())
        .map(|t| match &t.outcome {
            mage_core::JobOutcome::Failed { reason } => reason.as_str(),
            mage_core::JobOutcome::Completed => unreachable!(),
        })
        .collect();
    assert!(
        failed_reasons
            .iter()
            .all(|r| r.contains("deadline exceeded")),
        "unexpected failure reasons: {failed_reasons:?}"
    );
}

// ---------------------------------------------------------------------
// Checkpoint/restore under faults: retry state and health travel.
// ---------------------------------------------------------------------

#[test]
fn checkpoints_carry_retry_state_and_health() {
    // The canonical plan is absorbable, so the reference is the solo
    // solves. The cap stays 0: a queued job has no checkpoint.
    let plan = FaultPlan::canonical();
    let base = fault_free_baseline();

    for (sched, batch) in SCHEDULES {
        let specs = specs();
        let n = specs.len();
        let service = synthetic_service_with(&specs, plan.clone(), DispatchPolicy::default());
        let mut engine = ServeEngine::new(opts(batch, 2), service);
        for spec in specs {
            engine.push_job(spec);
        }
        for _ in 0..6 {
            engine.step();
        }

        // Lift two still-running jobs out as checkpoints mid-faults.
        let done: Vec<usize> = engine.traces().into_iter().map(|(id, _)| id).collect();
        let alive: Vec<usize> = (0..n).filter(|id| !done.contains(id)).collect();
        assert!(
            alive.len() >= 2,
            "{sched}: stream drained before interruption"
        );
        let lifted = [alive[0], alive[alive.len() - 1]];
        let cks: Vec<(usize, mage_serve::JobCheckpoint)> = lifted
            .iter()
            .map(|&id| (id, engine.checkpoint(id).expect("job running mid-stream")))
            .collect();

        // The retry state is *in* the checkpoint: after six steps under
        // the canonical plan every live job has emitted LLM requests
        // and accrued virtual channel latency.
        for (id, ck) in &cks {
            assert!(
                ck.llm_seq() > 0,
                "{sched}: job {id} checkpointed with no emits"
            );
            assert!(
                ck.llm_virtual_ms() > 0,
                "{sched}: job {id} accrued no virtual latency under canonical faults"
            );
        }

        // Health crossed the dispatcher by now; snapshot it, drain the
        // rest, then restore the lifted jobs and re-import the health —
        // routing state must never change outcomes.
        let snap = engine
            .service()
            .health()
            .expect("faulty service exposes health");
        assert!(
            snap.backends.iter().any(|b| b.calls > 0),
            "{sched}: six steps dispatched nothing"
        );
        engine.run();
        let restored: Vec<(usize, usize)> = cks
            .into_iter()
            .map(|(orig, ck)| {
                let virt = ck.llm_virtual_ms();
                let new_id = engine.restore(ck);
                assert_eq!(
                    engine.job_virtual_ms(new_id),
                    Some(virt),
                    "{sched}: virtual clock lost in restore"
                );
                (orig, new_id)
            })
            .collect();
        engine.service_mut().import_health(snap);
        engine.run();

        let got: Vec<SolveTrace> = (0..n)
            .map(|id| {
                let at = restored
                    .iter()
                    .find(|(orig, _)| *orig == id)
                    .map(|&(_, new_id)| new_id)
                    .unwrap_or(id);
                engine.trace(at).expect("job retired").clone()
            })
            .collect();
        assert_eq!(
            got, base,
            "{sched}: checkpoint/restore under faults changed a trace"
        );
        assert_schedule(batch, engine.stats());
    }
}
