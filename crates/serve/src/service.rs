//! LLM dispatch services: how a round's coalesced request batch reaches
//! model backends.

use crate::scheduler::{JobId, JobSpec};
use mage_llm::{
    Attempt, DispatchCall, DispatchError, DispatchPolicy, Dispatcher, FaultPlan, HealthSnapshot,
    LlmRequest, LlmResponse, ResilienceCounters, RtlLanguageModel, SyntheticModel, Transport,
    TransportCall,
};
use std::any::Any;
use std::collections::HashMap;

/// One request of a fault-aware dispatch batch: the request plus the
/// coordinates resilience needs — a per-request fault-key salt and how
/// many dispatches already failed (so a re-dispatch resumes the fault
/// plan's draw sequence instead of replaying it).
#[derive(Debug)]
pub struct LlmCall {
    /// The job the response must route back to.
    pub job: JobId,
    /// The request.
    pub req: LlmRequest,
    /// Fault-key salt (the engine derives it from the job's seed and
    /// per-job request sequence number, so it is scheduler-mode- and
    /// worker-count-invariant, and carried across checkpoints).
    pub salt: u64,
    /// Completed-and-failed dispatches of this same request.
    pub prior_attempts: u32,
}

/// How one [`LlmCall`] resolved.
#[derive(Debug)]
pub enum LlmOutcome {
    /// The request succeeded (possibly after internal retries/hedges).
    Ok {
        /// The response.
        resp: LlmResponse,
        /// Virtual ms of dispatch latency charged to the job.
        latency_ms: u64,
    },
    /// The dispatch failed terminally; the request comes back so the
    /// engine can re-park it (retry budget permitting) or fail the job.
    Failed {
        /// The unanswered request.
        req: LlmRequest,
        /// Why the dispatch gave up.
        error: DispatchError,
        /// Virtual ms burned before giving up.
        latency_ms: u64,
    },
}

/// The scheduler-facing dispatch surface. One call resolves one
/// dispatch point's batch of `(job, request)` pairs; every response
/// comes back **tagged** with the job it answers.
///
/// The tag is what lets the wave scheduler dispatch out-of-round: a
/// batch cut at one dispatch point may mix jobs admitted waves apart,
/// and a batched transport may complete them in any order — the
/// scheduler routes each response to `tag`'s job slot and asserts the
/// task kinds line up, never relying on batch position. (The supplied
/// services answer in order anyway; the contract just doesn't require
/// it.) Every request must be answered exactly once.
///
/// Implementations decide how jobs map to backends:
/// [`PerJobModels`] keeps one independently seeded model per job (full
/// per-job determinism — the default for the synthetic channel);
/// [`SharedModel`] forwards the whole batch to a single backend's
/// [`RtlLanguageModel::generate_batch`] (the real-deployment shape,
/// where batching amortizes one inference pass across jobs).
pub trait LlmService {
    /// Resolve a batch; each response is tagged with the job it answers.
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)>;

    /// Fault-aware dispatch: like [`LlmService::run_batch`] but every
    /// call may come back as a structured failure instead of a
    /// response. The engine drives this surface; the default forwards
    /// to `run_batch` (an infallible service never fails a call and
    /// charges no latency), so plain services need not care.
    fn run_calls(&mut self, calls: Vec<LlmCall>) -> Vec<(JobId, LlmOutcome)> {
        let batch: Vec<(JobId, LlmRequest)> = calls.into_iter().map(|c| (c.job, c.req)).collect();
        self.run_batch(batch)
            .into_iter()
            .map(|(id, resp)| {
                (
                    id,
                    LlmOutcome::Ok {
                        resp,
                        latency_ms: 0,
                    },
                )
            })
            .collect()
    }

    /// Monotone resilience counters (retries, hedges, rate-limit
    /// defers, failovers) accumulated so far. Default: an infallible
    /// service has nothing to count.
    fn resilience(&self) -> ResilienceCounters {
        ResilienceCounters::default()
    }

    /// Per-backend health scores, if this service tracks any.
    fn health(&self) -> Option<HealthSnapshot> {
        None
    }

    /// Adopt health scores exported by another service instance (the
    /// checkpoint/restore path — a restored engine must not treat a
    /// sick backend as pristine). Default: nothing to adopt.
    fn import_health(&mut self, snap: HealthSnapshot) {
        let _ = snap;
    }

    /// A job retired; drop any per-job state so a long stream's memory
    /// stays bounded. Default: nothing to drop.
    fn finish_job(&mut self, id: JobId) {
        let _ = id;
    }

    /// Detach the per-job backend state for a checkpoint (paired with
    /// [`LlmService::import_job`]). Default: stateless, nothing to move.
    fn export_job(&mut self, id: JobId) -> Option<Box<dyn Any + Send>> {
        let _ = id;
        None
    }

    /// Re-attach backend state exported by another (or the same)
    /// service instance. Default: drop it.
    fn import_job(&mut self, id: JobId, state: Box<dyn Any + Send>) {
        let _ = (id, state);
    }
}

/// One model instance per job, created on first use by a factory —
/// mirrors `evaluate_suite`'s per-unit seeding, so every job's stream
/// of completions is independent of what other jobs are co-scheduled
/// (and of worker count). Models of finished jobs are dropped.
pub struct PerJobModels<M, F> {
    factory: F,
    models: HashMap<JobId, M>,
}

impl<M, F: Fn(JobId) -> M> PerJobModels<M, F> {
    /// A service whose `factory` builds the (seeded) model of a job.
    pub fn new(factory: F) -> Self {
        PerJobModels {
            factory,
            models: HashMap::new(),
        }
    }

    /// Models currently held (in-flight jobs only).
    pub fn live_models(&self) -> usize {
        self.models.len()
    }
}

impl<M, F> LlmService for PerJobModels<M, F>
where
    M: RtlLanguageModel + Send + 'static,
    F: Fn(JobId) -> M,
{
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)> {
        batch
            .into_iter()
            .map(|(id, req)| {
                if !self.models.contains_key(&id) {
                    let model = (self.factory)(id);
                    self.models.insert(id, model);
                }
                let resp = self
                    .models
                    .get_mut(&id)
                    .expect("just inserted")
                    .dispatch(&req);
                (id, resp)
            })
            .collect()
    }

    fn finish_job(&mut self, id: JobId) {
        self.models.remove(&id);
    }

    fn export_job(&mut self, id: JobId) -> Option<Box<dyn Any + Send>> {
        self.models
            .remove(&id)
            .map(|m| Box::new(m) as Box<dyn Any + Send>)
    }

    fn import_job(&mut self, id: JobId, state: Box<dyn Any + Send>) {
        match state.downcast::<M>() {
            Ok(model) => {
                self.models.insert(id, *model);
            }
            Err(_) => panic!("imported job state is not this service's model type"),
        }
    }
}

/// The per-job service underlying [`synthetic_service`]. The factory
/// box is `Send + Sync` so the whole service (and an engine holding it)
/// can move onto a cluster shard thread.
pub type SyntheticPerJob =
    PerJobModels<SyntheticModel, Box<dyn Fn(JobId) -> SyntheticModel + Send + Sync>>;

/// Backend routes the synthetic fault transport advertises (matches the
/// `all-dead` plan preset, which scripts three dead backends).
pub const SYNTHETIC_BACKENDS: usize = 3;

/// The standard service for a synthetic-channel job stream: job `id`'s
/// model is [`mage_problems::Problem::job_model`] for `specs[id]`'s
/// problem (looked up in the registry by `specs[id].problem_id`) and
/// seed, the model its solo solve uses, behind a [`FaultyService`]
/// whose plan comes from `MAGE_FAULT_PLAN` (empty ⇒ zero-overhead
/// passthrough). Shared by the `mage-serve` binary, `bench_engine`, and
/// the determinism suite, so they all seed identically.
pub fn synthetic_service(specs: &[JobSpec]) -> FaultyService<SyntheticPerJob> {
    synthetic_service_with(specs, FaultPlan::from_env(), DispatchPolicy::default())
}

/// [`synthetic_service`] with an explicit fault plan and policy (the
/// chaos suite's entry point — no environment variable involved).
pub fn synthetic_service_with(
    specs: &[JobSpec],
    plan: FaultPlan,
    policy: DispatchPolicy,
) -> FaultyService<SyntheticPerJob> {
    let inner = synthetic_per_job(specs);
    FaultyService::new(inner, plan, SYNTHETIC_BACKENDS, policy)
}

/// The bare per-job synthetic service (no fault wrapper).
fn synthetic_per_job(specs: &[JobSpec]) -> SyntheticPerJob {
    let keyed: Vec<(String, u64)> = specs
        .iter()
        .map(|s| (s.problem_id.clone(), s.seed))
        .collect();
    PerJobModels::new(Box::new(move |id: JobId| {
        // A lookup past the spec table means a job this service never
        // knew about is asking for a model — typically a checkpoint
        // restored from a service that did not export model state (see
        // `ServeEngine::restore`). Fail loudly rather than fabricate a
        // model for the wrong problem.
        let (problem_id, seed) = keyed.get(id).unwrap_or_else(|| {
            panic!(
                "job {id} has no spec entry in this synthetic_service \
                 (restored checkpoint without exported model state?)"
            )
        });
        let p = mage_problems::by_id(problem_id).expect("problem registered in the registry");
        p.job_model(*seed)
    }))
}

/// One shared backend serving every job: each round's coalesced batch
/// becomes exactly one [`RtlLanguageModel::generate_batch`] call — the
/// shape of a production deployment where the batch rides one inference
/// pass. Deterministic for a fixed job stream (the round schedule is
/// worker-count-independent), but unlike [`PerJobModels`] a stateful
/// backend entangles co-scheduled jobs at high temperature.
pub struct SharedModel<M>(pub M);

impl<M: RtlLanguageModel> LlmService for SharedModel<M> {
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)> {
        let (ids, reqs): (Vec<JobId>, Vec<LlmRequest>) = batch.into_iter().unzip();
        let responses = self.0.generate_batch(&reqs);
        assert_eq!(
            responses.len(),
            ids.len(),
            "generate_batch returned a short batch"
        );
        ids.into_iter().zip(responses).collect()
    }
}

/// A [`mage_llm::Transport`] whose "model" is an inner [`LlmService`]:
/// the clean subset of each attempted batch rides one `run_batch` call
/// (tags route per-job backend state), while faulted attempts never
/// reach the service at all — the same never-touch-the-model invariant
/// as [`mage_llm::FaultInjectedTransport`], lifted to the serve layer
/// so per-job models keep bit-identical completion streams under any
/// absorbable fault plan.
pub struct ServiceTransport<S> {
    inner: S,
    plan: FaultPlan,
    n_backends: usize,
}

impl<S: LlmService> Transport for ServiceTransport<S> {
    fn name(&self) -> &str {
        "faulty-service"
    }

    fn backends(&self) -> usize {
        self.n_backends
    }

    fn backend_alive(&self, backend: usize) -> bool {
        !self.plan.dead(backend)
    }

    fn send_batch(&mut self, backend: usize, batch: &[TransportCall<'_>]) -> Vec<Attempt> {
        mage_llm::send_under_plan(&self.plan, backend, batch, |clean| {
            let reqs = clean
                .iter()
                .map(|call| (call.tag, call.req.clone()))
                .collect();
            let responses = self.inner.run_batch(reqs);
            assert_eq!(
                responses.len(),
                clean.len(),
                "inner service returned a short batch"
            );
            let mut by_tag: HashMap<JobId, LlmResponse> = responses.into_iter().collect();
            clean
                .iter()
                .map(|call| {
                    by_tag
                        .remove(&call.tag)
                        .expect("inner service answered every tagged job")
                })
                .collect()
        })
    }

    fn hedge_latency_ms(&self, _backend: usize, key: u64, attempt: u32) -> u64 {
        // Backend-independent on purpose: hedge schedules must not vary
        // with health-driven routing (see mage_llm::faults docs).
        self.plan.hedge_latency_ms(key, attempt)
    }
}

/// A fault-tolerant wrapper around any [`LlmService`]: dispatch rides a
/// [`Dispatcher`] (bounded jittered-backoff retries, hedging past the
/// latency threshold, rate-limit batch down-sizing, health-ranked
/// failover) over a [`ServiceTransport`] scripted by a [`FaultPlan`].
///
/// With an empty plan the wrapper is a zero-overhead passthrough —
/// every call is one `run_batch` on the inner service with zero
/// latency, no counters, byte-identical behaviour to no wrapper.
pub struct FaultyService<S> {
    dispatcher: Dispatcher<ServiceTransport<S>>,
}

impl<S: LlmService> FaultyService<S> {
    /// Wrap `inner` behind `plan` on an `n_backends`-route channel.
    pub fn new(inner: S, plan: FaultPlan, n_backends: usize, policy: DispatchPolicy) -> Self {
        FaultyService {
            dispatcher: Dispatcher::new(
                ServiceTransport {
                    inner,
                    plan,
                    n_backends,
                },
                policy,
            ),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.dispatcher.transport().inner
    }

    /// The wrapped service, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.dispatcher.transport_mut().inner
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.dispatcher.transport().plan
    }

    /// The dispatch policy in force.
    pub fn policy(&self) -> &DispatchPolicy {
        self.dispatcher.policy()
    }
}

impl<S: LlmService> LlmService for FaultyService<S> {
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)> {
        // The infallible legacy surface: valid only when dispatch
        // cannot fail terminally (empty plan, or absorbable faults
        // within the policy's attempt budget). A terminal failure here
        // is a contract violation, not a recoverable event.
        let calls = batch
            .into_iter()
            .map(|(job, req)| LlmCall {
                job,
                req,
                salt: 0,
                prior_attempts: 0,
            })
            .collect();
        self.run_calls(calls)
            .into_iter()
            .map(|(id, outcome)| match outcome {
                LlmOutcome::Ok { resp, .. } => (id, resp),
                LlmOutcome::Failed { error, .. } => {
                    panic!("FaultyService::run_batch cannot surface failure ({error})")
                }
            })
            .collect()
    }

    fn run_calls(&mut self, calls: Vec<LlmCall>) -> Vec<(JobId, LlmOutcome)> {
        if self.dispatcher.transport().plan.is_empty() {
            // Zero-overhead passthrough: one inner batch, no latency,
            // no counters — byte-identical to running unwrapped.
            let batch: Vec<(JobId, LlmRequest)> =
                calls.into_iter().map(|c| (c.job, c.req)).collect();
            return self
                .dispatcher
                .transport_mut()
                .inner
                .run_batch(batch)
                .into_iter()
                .map(|(id, resp)| {
                    (
                        id,
                        LlmOutcome::Ok {
                            resp,
                            latency_ms: 0,
                        },
                    )
                })
                .collect();
        }
        let max_attempts = self.dispatcher.policy().max_attempts;
        let dcalls: Vec<DispatchCall<'_>> = calls
            .iter()
            .map(|c| DispatchCall {
                tag: c.job,
                req: &c.req,
                salt: c.salt,
                // Continue the per-request draw sequence across
                // re-dispatches: a deterministic plan must not fail the
                // same request the same way forever.
                base_attempt: c.prior_attempts.saturating_mul(max_attempts),
            })
            .collect();
        let results = self.dispatcher.dispatch_batch(&dcalls);
        drop(dcalls);
        calls
            .into_iter()
            .zip(results)
            .map(|(c, r)| {
                let outcome = match r.result {
                    Ok(resp) => LlmOutcome::Ok {
                        resp,
                        latency_ms: r.latency_ms,
                    },
                    Err(error) => LlmOutcome::Failed {
                        req: c.req,
                        error,
                        latency_ms: r.latency_ms,
                    },
                };
                (c.job, outcome)
            })
            .collect()
    }

    fn finish_job(&mut self, id: JobId) {
        self.inner_mut().finish_job(id);
    }

    fn export_job(&mut self, id: JobId) -> Option<Box<dyn Any + Send>> {
        self.inner_mut().export_job(id)
    }

    fn import_job(&mut self, id: JobId, state: Box<dyn Any + Send>) {
        self.inner_mut().import_job(id, state);
    }

    fn resilience(&self) -> ResilienceCounters {
        self.dispatcher.counters()
    }

    fn health(&self) -> Option<HealthSnapshot> {
        Some(self.dispatcher.health_snapshot())
    }

    fn import_health(&mut self, snap: HealthSnapshot) {
        self.dispatcher.import_health(snap);
    }
}
