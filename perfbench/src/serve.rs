//! The serve workloads' drivers: the whole stream through one
//! `ServeEngine`, plain or wrapped in timers.

use crate::ledger::{kind_index, Ledger};
use mage_llm::{
    DebugRequest, DispatchPolicy, FaultPlan, HealthSnapshot, JudgeTbRequest, LlmRequest,
    LlmResponse, ModelOutput, ResilienceCounters, RtlGenRequest, RtlLanguageModel,
    SyntaxFixRequest, SyntheticModel, SyntheticModelConfig, TbGenRequest,
};
use mage_serve::{
    synthetic_service_with, FaultyService, JobId, JobSpec, LlmCall, LlmOutcome, LlmService,
    PerJobModels, SchedMode, ServeEngine, ServeOptions, SyntheticPerJob, SYNTHETIC_BACKENDS,
};
use mage_tb::Testbench;
use std::any::Any;
use std::sync::Arc;

/// Jobs in flight at once: sixteen clients in a closed loop.
pub const CLIENTS: usize = 16;

/// Wave scheduler, one sim worker, batched dispatch, [`CLIENTS`] jobs
/// in flight: the scheduler thread plus one sim-wave thread.
pub fn options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        batch_llm: true,
        max_in_flight: CLIENTS,
        sched: SchedMode::Wave,
        ..ServeOptions::default()
    }
}

/// The engine the untraced serve workloads measure.
pub type Engine = ServeEngine<FaultyService<SyntheticPerJob>>;

/// An engine over the standard synthetic service under an explicit
/// fault `plan`, with the whole stream pushed.
pub fn engine(specs: &[JobSpec], plan: FaultPlan) -> Engine {
    let service = synthetic_service_with(specs, plan, DispatchPolicy::default());
    let mut engine = ServeEngine::new(options(), service);
    for spec in specs {
        engine.push_job(spec.clone());
    }
    engine
}

/// A synthetic model whose `dispatch` is timed into the ledger, split
/// by request kind.
pub struct TimedModel {
    inner: SyntheticModel,
    ledger: Arc<Ledger>,
}

impl RtlLanguageModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
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

    fn dispatch(&mut self, req: &LlmRequest) -> LlmResponse {
        let inner = &mut self.inner;
        self.ledger.llm[kind_index(req.task_kind())].time(|| inner.dispatch(req))
    }
}

/// A forwarding `LlmService` that times every dispatch the engine
/// makes. It forwards every trait method, so the wrapped service's
/// resilience counters, health and per-job state stay visible.
pub struct TracedService<S> {
    inner: S,
    ledger: Arc<Ledger>,
}

impl<S: LlmService> LlmService for TracedService<S> {
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)> {
        self.ledger.service_requests.add(batch.len() as u64);
        let inner = &mut self.inner;
        self.ledger.service.time(|| inner.run_batch(batch))
    }

    fn run_calls(&mut self, calls: Vec<LlmCall>) -> Vec<(JobId, LlmOutcome)> {
        self.ledger.service_requests.add(calls.len() as u64);
        let inner = &mut self.inner;
        self.ledger.service.time(|| inner.run_calls(calls))
    }

    fn resilience(&self) -> ResilienceCounters {
        self.inner.resilience()
    }

    fn health(&self) -> Option<HealthSnapshot> {
        self.inner.health()
    }

    fn import_health(&mut self, snap: HealthSnapshot) {
        self.inner.import_health(snap);
    }

    fn finish_job(&mut self, id: JobId) {
        self.inner.finish_job(id);
    }

    fn export_job(&mut self, id: JobId) -> Option<Box<dyn Any + Send>> {
        self.inner.export_job(id)
    }

    fn import_job(&mut self, id: JobId, state: Box<dyn Any + Send>) {
        self.inner.import_job(id, state);
    }
}

/// The per-job factory of [`traced_engine`]'s models.
type TimedFactory = Box<dyn Fn(JobId) -> TimedModel + Send + Sync>;

/// The engine of a traced serve run.
pub type TracedEngine =
    ServeEngine<TracedService<FaultyService<PerJobModels<TimedModel, TimedFactory>>>>;

/// [`engine`] with timers: the service is assembled exactly as
/// `synthetic_service_with` assembles it (per-job models seeded from
/// the spec, behind a `FaultyService` on `SYNTHETIC_BACKENDS` routes
/// with the default policy), except that each model times its
/// `dispatch` and the factory times `Problem::oracle`; the whole
/// service sits behind a [`TracedService`].
pub fn traced_engine(specs: &[JobSpec], plan: FaultPlan, ledger: &Arc<Ledger>) -> TracedEngine {
    let keyed: Vec<(String, u64)> = specs
        .iter()
        .map(|s| (s.problem_id.clone(), s.seed))
        .collect();
    let factory_ledger = Arc::clone(ledger);
    let factory: TimedFactory = Box::new(move |id: JobId| {
        let (problem_id, seed) = &keyed[id];
        let p = mage_problems::by_id(problem_id).expect("stream job names a problem");
        let mut model = SyntheticModel::new(SyntheticModelConfig::default(), *seed);
        let oracle = factory_ledger.oracle.time(|| p.oracle(*seed));
        model.register(p.id, oracle);
        TimedModel {
            inner: model,
            ledger: Arc::clone(&factory_ledger),
        }
    });
    let faulty = FaultyService::new(
        PerJobModels::new(factory),
        plan,
        SYNTHETIC_BACKENDS,
        DispatchPolicy::default(),
    );
    let service = TracedService {
        inner: faulty,
        ledger: Arc::clone(ledger),
    };
    let mut engine = ServeEngine::new(options(), service);
    for spec in specs {
        engine.push_job(spec.clone());
    }
    engine
}

/// Run an engine to completion through `step()`, timing each step.
pub fn run_traced<S: LlmService>(engine: &mut ServeEngine<S>, ledger: &Ledger) {
    while ledger.step.time(|| engine.step()) {}
}
