//! The `solve` workload's drivers: one job at a time on one thread.

use crate::ledger::{kind_index, Ledger};
use mage_core::{
    compile_pooled, execute_sim_with, Mage, SimOutcome, SimRequest, SolveJob, SolveStep,
    SolveTrace, SolveUnits, StepInput, Task,
};
use mage_llm::{
    DebugRequest, JudgeTbRequest, LlmRequest, LlmResponse, ModelOutput, RtlGenRequest,
    RtlLanguageModel, SyntaxFixRequest, SyntheticModel, SyntheticModelConfig, TbGenRequest,
};
use mage_serve::JobSpec;
use mage_tb::Testbench;
use std::time::{Duration, Instant};

/// A job's seeded synthetic model, registered with its problem oracle —
/// the model the serve service's per-job factory builds.
pub fn model(spec: &JobSpec) -> SyntheticModel {
    let problem = mage_problems::by_id(&spec.problem_id).expect("stream job names a problem");
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
    model.register(problem.id, problem.oracle(spec.seed));
    model
}

/// One job through the paper's per-solve path: build the model, then
/// `Mage::solve`.
pub fn solve(spec: &JobSpec) -> SolveTrace {
    let mut model = model(spec);
    solve_with(&mut model, spec)
}

/// `Mage::solve` of `spec` over an already built model.
pub fn solve_with<M: RtlLanguageModel>(model: &mut M, spec: &JobSpec) -> SolveTrace {
    Mage::new(model, spec.config.clone()).solve(&Task {
        id: &spec.problem_id,
        spec: &spec.spec,
    })
}

/// One job driven through `SolveJob` by hand, making exactly the calls
/// `Mage::solve` makes and timing each into `ledger`: the oracle build,
/// every `advance`, every model `dispatch`, and every
/// `execute_sim_with` over `compile_pooled` with a per-solve
/// `SolveUnits` pool, and the teardown of the finished solve.
pub fn solve_traced(spec: &JobSpec, ledger: &Ledger) -> SolveTrace {
    let problem = mage_problems::by_id(&spec.problem_id).expect("stream job names a problem");
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
    let oracle = ledger.oracle.time(|| problem.oracle(spec.seed));
    model.register(problem.id, oracle);

    let mut job = SolveJob::new(&spec.problem_id, &spec.spec, spec.config.clone());
    let units = SolveUnits::new();
    let mut step = ledger.advance.time(|| job.advance(StepInput::Start));
    loop {
        step = match step {
            SolveStep::NeedLlm(req) => {
                let span = &ledger.llm[kind_index(req.task_kind())];
                let resp = span.time(|| model.dispatch(&req));
                drop(req);
                ledger.advance.time(|| job.advance(StepInput::Llm(resp)))
            }
            SolveStep::NeedSim(req) => {
                let outcome = execute_sim_traced(&req, &units, ledger);
                ledger.advance.time(|| job.advance(StepInput::Sim(outcome)))
            }
            SolveStep::Done(trace) => {
                let trace = *trace;
                // The end of `Mage::solve` and of its caller's scope: the
                // unit pool, then the job, then the model.
                ledger.teardown.time(|| {
                    drop(units);
                    drop(job);
                    drop(model);
                });
                return trace;
            }
        };
    }
}

/// `execute_sim_with` over `compile_pooled`, as `execute_sim_pooled`
/// runs it, with the compile timed inside and the rest charged to the
/// testbench run.
fn execute_sim_traced(req: &SimRequest, units: &SolveUnits, ledger: &Ledger) -> SimOutcome {
    let mut compile_time = Duration::ZERO;
    let start = Instant::now();
    let outcome = execute_sim_with(req, |src| {
        let t = Instant::now();
        let result = compile_pooled(src, req.parent.as_ref(), units);
        compile_time = t.elapsed();
        ledger.compile.record(compile_time);
        match result {
            Ok((design, stats)) => {
                ledger.units_reused.add(stats.reused as u64);
                ledger.units_rebuilt.add(stats.rebuilt as u64);
                Ok(design)
            }
            Err(err) => {
                ledger.compile_errors.add(1);
                Err(err)
            }
        }
    });
    let rest = start.elapsed().saturating_sub(compile_time);
    if req.bench.is_some() && outcome.design.is_ok() {
        ledger.tb.record(rest);
    } else {
        ledger.tb.add_time(rest);
    }
    if let Some(report) = &outcome.report {
        ledger.tb_checks.add(report.total_checks() as u64);
    }
    outcome
}

/// A model that counts the requests it resolves — how the untimed
/// warm-up pass of `solve` learns its model calls per job.
pub struct Counted<M> {
    inner: M,
    calls: u64,
}

impl<M> Counted<M> {
    /// Wrap `inner` with a zero count.
    pub fn new(inner: M) -> Self {
        Counted { inner, calls: 0 }
    }

    /// Requests resolved so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl<M: RtlLanguageModel> RtlLanguageModel for Counted<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
        self.calls += 1;
        self.inner.generate_rtl(req)
    }

    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
        self.calls += 1;
        self.inner.generate_testbench(req)
    }

    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
        self.calls += 1;
        self.inner.judge_testbench(req)
    }

    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
        self.calls += 1;
        self.inner.debug_rtl(req)
    }

    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
        self.calls += 1;
        self.inner.fix_syntax(req)
    }

    fn dispatch(&mut self, req: &LlmRequest) -> LlmResponse {
        self.calls += 1;
        self.inner.dispatch(req)
    }
}
