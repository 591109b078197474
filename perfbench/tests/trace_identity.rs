//! Every driver of the benchmark does the same solve work: `Mage::solve`,
//! the traced `solve` driver, and the serve workloads traced and
//! untraced all retire identical per-job traces on a short stream.

use mage_core::experiments::grade;
use mage_llm::FaultPlan;
use perfbench::ledger::{Ledger, LLM_KINDS};
use perfbench::serve::{engine, traced_engine};
use perfbench::stream::Stream;
use perfbench::workload::{
    serve_pass, serve_pass_traced, solve_pass, solve_pass_counted, solve_pass_traced, Pass,
};
use std::sync::Arc;

/// One pass over V2: 67 jobs, every problem once.
fn short_stream() -> Stream {
    Stream::of_runs(&[0])
}

fn passed(stream: &Stream, pass: &Pass) -> usize {
    pass.traces
        .iter()
        .zip(&stream.problems)
        .filter(|(trace, problem)| grade(problem, &trace.final_source))
        .count()
}

fn resilience(pass: &Pass) -> [u64; 4] {
    let (report, _) = pass.serve.as_ref().expect("a serve pass");
    let s = &report.stats;
    [s.retries, s.hedges, s.rate_limit_defers, s.failovers]
}

#[test]
fn every_driver_retires_the_same_traces() {
    let stream = short_stream();
    let reference = solve_pass(&stream);
    let want = reference.digests();
    let want_passed = passed(&stream, &reference);
    assert!(want_passed > 0, "nothing passed its grading bench");

    let ledger = || Arc::new(Ledger::default());
    let (l1, l2, l3) = (ledger(), ledger(), ledger());
    let runs = [
        ("traced solve", solve_pass_traced(&stream, &l1)),
        (
            "serve",
            serve_pass(engine(&stream.specs, FaultPlan::none())),
        ),
        (
            "traced serve",
            serve_pass_traced(traced_engine(&stream.specs, FaultPlan::none(), &l2), &l2),
        ),
        (
            "serve_faults",
            serve_pass(engine(&stream.specs, FaultPlan::canonical())),
        ),
        (
            "traced serve_faults",
            serve_pass_traced(
                traced_engine(&stream.specs, FaultPlan::canonical(), &l3),
                &l3,
            ),
        ),
    ];
    for (name, pass) in &runs {
        assert_eq!(pass.traces.len(), stream.len(), "{name}: jobs retired");
        assert!(
            pass.digests() == want,
            "{name}: traces differ from Mage::solve"
        );
        assert_eq!(passed(&stream, pass), want_passed, "{name}: pass@1 differs");
        assert_eq!(pass.failed(), 0, "{name}: a job failed");
    }

    // The fault-free service never enters the resilience path; the
    // canonical plan does, and the traced wrapper forwards its counters.
    let [_, serve, traced_serve, faults, traced_faults] = &runs;
    assert_eq!(resilience(&serve.1), [0; 4]);
    assert_eq!(resilience(&traced_serve.1), [0; 4]);
    assert!(
        resilience(&faults.1)[0] > 0,
        "canonical plan fired no retries"
    );
    assert_eq!(resilience(&traced_faults.1), resilience(&faults.1));
}

#[test]
fn ledgers_count_every_call() {
    let stream = short_stream();
    let counted = solve_pass_counted(&stream);

    let solve = Arc::new(Ledger::default());
    solve_pass_traced(&stream, &solve);
    let model_calls: u64 = solve.llm.iter().map(|s| s.calls()).sum();
    assert_eq!(model_calls, counted.llm_calls, "traced driver model calls");
    assert_eq!(solve.oracle.calls(), stream.len() as u64);
    assert!(
        solve.advance.calls() > model_calls,
        "advance follows every answer"
    );
    assert!(solve.compile.calls() > 0 && solve.tb.calls() > 0);
    assert!(solve.tb_checks.get() > 0);
    assert_eq!(solve.service.calls(), 0, "solve has no service");

    let served = Arc::new(Ledger::default());
    let pass = serve_pass_traced(
        traced_engine(&stream.specs, FaultPlan::none(), &served),
        &served,
    );
    let (report, _) = pass.serve.as_ref().expect("a serve pass");
    assert_eq!(served.service.calls(), report.stats.llm_batch_calls as u64);
    assert_eq!(
        served.service_requests.get(),
        report.stats.llm_requests as u64
    );
    // Per-job models see exactly the requests `Mage::solve` makes.
    for (ix, (_, kind)) in LLM_KINDS.iter().enumerate() {
        assert_eq!(
            served.llm[ix].calls(),
            solve.llm[ix].calls(),
            "{kind} calls differ between serve and solve"
        );
    }
    assert_eq!(served.oracle.calls(), stream.len() as u64);
    assert!(served.step.calls() > 0);
    assert!(served.step.ms() >= served.service.ms());
}
