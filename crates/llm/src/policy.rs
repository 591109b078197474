//! Dispatch policy: bounded retries with jittered exponential backoff,
//! hedged duplicates past a latency threshold, rate-limit-aware batch
//! down-sizing, and per-backend health scoring driving failover
//! routing.
//!
//! [`Dispatcher`] drives a [`Transport`] attempt by attempt. All timing
//! is **virtual** (milliseconds accounted from the transport's reported
//! latencies plus computed backoff) — no wall clocks, so a dispatch's
//! outcome and its retry schedule are pure functions of the fault plan
//! and the policy, identical at any worker count and scheduler mode.
//!
//! # What may and may not influence an outcome
//!
//! Per-request outcomes (which attempt succeeds, with what latency) are
//! keyed by `(request key, attempt)` draws inside the transport.
//! Backend *routing* — which live backend serves, ranked by health —
//! deliberately cannot influence them: a synthetic transport's draws
//! ignore backend identity, and scripted-dead backends are routed
//! around via [`Transport::backend_alive`] without consuming an
//! attempt. Health scores and quarantine therefore shape only labels,
//! load placement and reports, never results — the determinism
//! acceptance bar of the serve layer rests on this split.

use crate::transport::{Attempt, Transport, TransportCall, TransportError};
use crate::LlmRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Retry and hedge knobs of one dispatcher: the two values callers
/// set. The backoff schedule is fixed: a failed attempt waits 50
/// virtual ms, doubled per retry and capped at 2 s, plus a
/// deterministic jitter draw of up to half that backoff; rate-limit
/// down-sizing never shrinks a batch below one request. Deadlines
/// live one layer up, on the serve engine's per-job virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchPolicy {
    /// Attempts per dispatch before giving up (≥ 1).
    pub max_attempts: u32,
    /// Hedge a duplicate once a successful reply's latency exceeds
    /// this threshold; the faster of the two clocks wins. `None`
    /// disables hedging.
    pub hedge_after_ms: Option<u64>,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy {
            max_attempts: 4,
            hedge_after_ms: Some(80),
        }
    }
}

/// First backoff step, virtual ms (doubles per retry).
const BASE_BACKOFF_MS: u64 = 50;
/// Backoff ceiling, virtual ms.
const MAX_BACKOFF_MS: u64 = 2_000;
/// Jitter fraction: each backoff adds a deterministic draw from
/// `[0, JITTER * backoff]` (decorrelates retry storms).
const JITTER: f64 = 0.5;

/// Per-backend health: exponential moving averages of error rate and
/// latency. Pure reporting/routing state — see the module docs for why
/// it cannot influence outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendHealth {
    /// EMA of the failure indicator (1 = failing every call).
    pub err_ema: f64,
    /// EMA of observed latency, virtual ms.
    pub latency_ema_ms: f64,
    /// Attempts observed.
    pub calls: u64,
}

/// EMA smoothing factor (weight of the newest observation).
const EMA_ALPHA: f64 = 0.2;

impl Default for BackendHealth {
    fn default() -> Self {
        BackendHealth {
            err_ema: 0.0,
            latency_ema_ms: 0.0,
            calls: 0,
        }
    }
}

impl BackendHealth {
    /// Fold one attempt's result in.
    pub fn observe(&mut self, ok: bool, latency_ms: u64) {
        let err = if ok { 0.0 } else { 1.0 };
        if self.calls == 0 {
            self.err_ema = err;
            self.latency_ema_ms = latency_ms as f64;
        } else {
            self.err_ema = EMA_ALPHA * err + (1.0 - EMA_ALPHA) * self.err_ema;
            self.latency_ema_ms =
                EMA_ALPHA * latency_ms as f64 + (1.0 - EMA_ALPHA) * self.latency_ema_ms;
        }
        self.calls += 1;
    }

    /// Routing score: higher is healthier (success-weighted, latency-
    /// discounted). A fresh backend scores 1.0.
    pub fn score(&self) -> f64 {
        (1.0 - self.err_ema) / (1.0 + self.latency_ema_ms / 1_000.0)
    }

    /// A backend observed failing (nearly) every recent call is
    /// quarantined: ranked behind every non-quarantined peer.
    pub fn quarantined(&self) -> bool {
        self.calls >= 3 && self.err_ema > 0.9
    }

    /// Fold another health record for the *same backend* in, weighting
    /// each side's EMAs by its observation count. Either side with zero
    /// calls contributes nothing (a fresh record adopts the other
    /// verbatim), so checkpoint restore into a pristine dispatcher
    /// still round-trips exactly. Merging only ever reshapes routing
    /// scores — by the module contract that cannot change any outcome.
    pub fn merge(&mut self, other: &BackendHealth) {
        if other.calls == 0 {
            return;
        }
        if self.calls == 0 {
            *self = other.clone();
            return;
        }
        let w_self = self.calls as f64;
        let w_other = other.calls as f64;
        let total = w_self + w_other;
        self.err_ema = (self.err_ema * w_self + other.err_ema * w_other) / total;
        self.latency_ema_ms =
            (self.latency_ema_ms * w_self + other.latency_ema_ms * w_other) / total;
        self.calls += other.calls;
    }
}

/// Portable snapshot of a dispatcher's health table — checkpoint
/// freight, so a restored engine does not resume with pristine scores.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Per-backend health, indexed by backend.
    pub backends: Vec<BackendHealth>,
}

impl HealthSnapshot {
    /// Merge another snapshot in, backend by backend (calls-weighted —
    /// see [`BackendHealth::merge`]). Backend counts must match.
    pub fn merge(&mut self, other: &HealthSnapshot) {
        assert_eq!(
            self.backends.len(),
            other.backends.len(),
            "health snapshot backend count mismatch"
        );
        for (h, o) in self.backends.iter_mut().zip(&other.backends) {
            h.merge(o);
        }
    }
}

/// Monotone resilience counters of one dispatcher (and, summed, of one
/// serve run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Failed attempts that were retried (backoff path).
    pub retries: u64,
    /// Hedged duplicates issued for slow successes.
    pub hedges: u64,
    /// Rate-limit shed events honored with a deferred retry.
    pub rate_limit_defers: u64,
    /// Requests that routed around (or retried past) a down backend.
    pub failovers: u64,
}

impl ResilienceCounters {
    /// `true` when every counter is zero (the fault-free invariant).
    pub fn is_zero(&self) -> bool {
        *self == ResilienceCounters::default()
    }

    /// Add `other` in (for merging service counters into run stats).
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.rate_limit_defers += other.rate_limit_defers;
        self.failovers += other.failovers;
    }
}

/// Terminal failure of one dispatched request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The retry budget ran out; `last` is the final attempt's error.
    Exhausted {
        /// Attempts consumed by this dispatch.
        attempts: u32,
        /// The last transport error observed.
        last: TransportError,
    },
    /// No live backend remains to even attempt the request.
    AllBackendsDown,
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "llm retry budget exhausted after {attempts} attempts ({last})"
                )
            }
            DispatchError::AllBackendsDown => f.write_str("all llm backends down"),
        }
    }
}

/// One request for [`Dispatcher::dispatch_batch`].
#[derive(Debug)]
pub struct DispatchCall<'a> {
    /// Caller routing tag, forwarded to the transport verbatim.
    pub tag: usize,
    /// The request.
    pub req: &'a LlmRequest,
    /// Caller-supplied fault-key salt, XORed into the prompt hash so
    /// textually identical requests from different jobs (or different
    /// emission points of one job) draw independent fault streams.
    pub salt: u64,
    /// Attempts already consumed by earlier dispatches of this same
    /// request (a re-dispatching caller passes its count so retries
    /// resume the draw sequence instead of replaying attempt 0 — the
    /// guard against a deterministic plan failing the same request the
    /// same way forever).
    pub base_attempt: u32,
}

/// The result of dispatching one request.
#[derive(Debug)]
pub struct DispatchResult {
    /// The response, or the terminal failure.
    pub result: Result<crate::LlmResponse, DispatchError>,
    /// Attempts consumed by this dispatch.
    pub attempts: u32,
    /// Virtual ms accumulated (latencies + backoff + defers).
    pub latency_ms: u64,
    /// The backend that served the final attempt (0 when none did).
    pub backend: usize,
}

/// Drives a [`Transport`] under a [`DispatchPolicy`]: health-ranked
/// routing, bounded jittered-backoff retries, hedging, rate-limit
/// down-sizing, and fast all-down failure. See the module docs.
#[derive(Debug)]
pub struct Dispatcher<T> {
    transport: T,
    policy: DispatchPolicy,
    health: Vec<BackendHealth>,
    counters: ResilienceCounters,
    /// Rate-limit-adapted batch ceiling (`usize::MAX` = unlimited,
    /// halved on shed, recovered by doubling on clean dispatches).
    preferred_batch: usize,
}

impl<T: Transport> Dispatcher<T> {
    /// A dispatcher over `transport`.
    pub fn new(transport: T, policy: DispatchPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "at least one attempt");
        let n = transport.backends();
        Dispatcher {
            transport,
            policy,
            health: vec![BackendHealth::default(); n],
            counters: ResilienceCounters::default(),
            preferred_batch: usize::MAX,
        }
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The wrapped transport, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The policy in force.
    pub fn policy(&self) -> &DispatchPolicy {
        &self.policy
    }

    /// Monotone resilience counters so far.
    pub fn counters(&self) -> ResilienceCounters {
        self.counters
    }

    /// Current per-backend health.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            backends: self.health.clone(),
        }
    }

    /// Fold a health snapshot in (checkpoint restore, job migration):
    /// scores survive, so a restored engine does not treat a sick
    /// backend as pristine. Importing **merges** calls-weighted rather
    /// than clobbering — a shard with live EMAs that receives a
    /// migrated job keeps its own observations and gains the source
    /// shard's, instead of forgetting everything it learned. A fresh
    /// dispatcher (zero calls everywhere) adopts the snapshot exactly.
    pub fn import_health(&mut self, snap: HealthSnapshot) {
        assert_eq!(
            snap.backends.len(),
            self.health.len(),
            "health snapshot backend count mismatch"
        );
        for (h, s) in self.health.iter_mut().zip(&snap.backends) {
            h.merge(s);
        }
    }

    /// The current rate-limit-adapted batch ceiling.
    pub fn preferred_batch(&self) -> usize {
        self.preferred_batch
    }

    /// The fault key of a request under `salt` (prompt hash XOR salt).
    pub fn fault_key(req: &LlmRequest, salt: u64) -> u64 {
        mage_logic::fnv1a(req.render_prompt().as_bytes()) ^ salt
    }

    /// Live backends in health-rank order (best score first, index as
    /// the tie-break; quarantined backends sink behind healthy peers).
    fn live_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.health.len())
            .filter(|&b| self.transport.backend_alive(b))
            .collect();
        order.sort_by(|&a, &b| {
            let qa = self.health[a].quarantined();
            let qb = self.health[b].quarantined();
            qa.cmp(&qb)
                .then(
                    self.health[b]
                        .score()
                        .partial_cmp(&self.health[a].score())
                        .expect("scores are finite"),
                )
                .then(a.cmp(&b))
        });
        order
    }

    /// Deterministic jitter draw in `[0, JITTER * backoff]`, keyed like
    /// every other per-`(key, attempt)` draw.
    fn jitter_ms(key: u64, attempt: u32, backoff: u64) -> u64 {
        let span = (JITTER * backoff as f64) as u64;
        if span == 0 {
            return 0;
        }
        let mut rng = StdRng::seed_from_u64(key ^ (attempt as u64).rotate_left(32) ^ 0x117E_4A11);
        rng.gen_range(0..=span)
    }

    /// Dispatch a batch; `out[i]` answers `calls[i]`. Requests are
    /// chunked to the rate-limit-adapted ceiling; within a chunk every
    /// still-unresolved request rides one `send_batch` per retry round,
    /// so the clean path stays one pipelined call.
    pub fn dispatch_batch(&mut self, calls: &[DispatchCall<'_>]) -> Vec<DispatchResult> {
        let dead_pool = (0..self.transport.backends()).any(|b| !self.transport.backend_alive(b));
        // Mark scripted-dead backends' health once per dispatch so
        // reports show the outage without flooding the EMA.
        for b in 0..self.transport.backends() {
            if !self.transport.backend_alive(b) {
                self.health[b].observe(false, 1);
            }
        }

        let keys: Vec<u64> = calls
            .iter()
            .map(|c| Self::fault_key(c.req, c.salt))
            .collect();
        let mut results: Vec<Option<DispatchResult>> = (0..calls.len()).map(|_| None).collect();
        let mut saw_rate_limit = false;

        let ixs: Vec<usize> = (0..calls.len()).collect();
        for chunk in ixs.chunks(self.preferred_batch.min(calls.len().max(1))) {
            self.dispatch_chunk(
                calls,
                &keys,
                chunk,
                dead_pool,
                &mut results,
                &mut saw_rate_limit,
            );
        }

        // Adapt the ceiling: shed events halve it (floored at one
        // request), a fully clean dispatch doubles it back toward
        // unlimited.
        if saw_rate_limit {
            let current = self.preferred_batch.min(calls.len().max(1));
            self.preferred_batch = (current / 2).max(1);
        } else if self.preferred_batch != usize::MAX {
            self.preferred_batch = self.preferred_batch.saturating_mul(2);
        }

        results
            .into_iter()
            .map(|r| r.expect("every call resolved"))
            .collect()
    }

    /// Run one chunk to resolution: every still-pending request of the
    /// chunk rides one `send_batch` per retry round.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_chunk(
        &mut self,
        calls: &[DispatchCall<'_>],
        keys: &[u64],
        chunk: &[usize],
        dead_pool: bool,
        results: &mut [Option<DispatchResult>],
        saw_rate_limit: &mut bool,
    ) {
        // Per-request progress within this dispatch.
        struct Pending {
            ix: usize,
            attempt: u32,
            consumed: u32,
            elapsed_ms: u64,
        }
        let mut pending: Vec<Pending> = chunk
            .iter()
            .map(|&ix| Pending {
                ix,
                attempt: calls[ix].base_attempt,
                consumed: 0,
                elapsed_ms: 0,
            })
            .collect();

        while !pending.is_empty() {
            let order = self.live_order();
            let Some(&serving) = order.first() else {
                // No live backend at all: fail everything fast — the
                // graceful-drain path must not burn retry budget or
                // virtual time on a total outage.
                for p in pending.drain(..) {
                    results[p.ix] = Some(DispatchResult {
                        result: Err(DispatchError::AllBackendsDown),
                        attempts: p.consumed,
                        latency_ms: p.elapsed_ms,
                        backend: 0,
                    });
                }
                return;
            };
            let hedge_backend = order.get(1).copied().unwrap_or(serving);

            let batch: Vec<TransportCall<'_>> = pending
                .iter()
                .map(|p| TransportCall {
                    tag: calls[p.ix].tag,
                    key: keys[p.ix],
                    attempt: p.attempt,
                    req: calls[p.ix].req,
                })
                .collect();
            let attempts: Vec<Attempt> = self.transport.send_batch(serving, &batch);
            assert_eq!(attempts.len(), pending.len(), "short transport batch");

            let mut still: Vec<Pending> = Vec::new();
            for (mut p, att) in pending.into_iter().zip(attempts) {
                self.health[serving].observe(att.result.is_ok(), att.latency_ms);
                p.consumed += 1;
                let key = keys[p.ix];
                match att.result {
                    Ok(resp) => {
                        let mut lat = att.latency_ms;
                        if let Some(hedge_after) = self.policy.hedge_after_ms {
                            if lat > hedge_after {
                                // The reply is slow: a duplicate was
                                // hedged on the next-ranked backend and
                                // the faster clock wins. Same response
                                // either way — the duplicate races the
                                // channel, not the model.
                                self.counters.hedges += 1;
                                let dup = hedge_after
                                    + self.transport.hedge_latency_ms(
                                        hedge_backend,
                                        key,
                                        p.attempt,
                                    );
                                lat = lat.min(dup);
                            }
                        }
                        p.elapsed_ms += lat;
                        if dead_pool {
                            self.counters.failovers += 1;
                        }
                        results[p.ix] = Some(DispatchResult {
                            result: Ok(resp),
                            attempts: p.consumed,
                            latency_ms: p.elapsed_ms,
                            backend: serving,
                        });
                        continue;
                    }
                    Err(err) => {
                        p.elapsed_ms += att.latency_ms;
                        match &err {
                            TransportError::RateLimited { retry_after_ms } => {
                                *saw_rate_limit = true;
                                self.counters.rate_limit_defers += 1;
                                // Honor the advertised wait; the shed
                                // itself is the backoff.
                                p.elapsed_ms += retry_after_ms;
                            }
                            TransportError::BackendDown => {
                                self.counters.failovers += 1;
                                self.counters.retries += 1;
                            }
                            _ => {
                                self.counters.retries += 1;
                            }
                        }
                        if p.consumed >= self.policy.max_attempts {
                            results[p.ix] = Some(DispatchResult {
                                result: Err(DispatchError::Exhausted {
                                    attempts: p.consumed,
                                    last: err,
                                }),
                                attempts: p.consumed,
                                latency_ms: p.elapsed_ms,
                                backend: serving,
                            });
                            continue;
                        }
                        if !matches!(err, TransportError::RateLimited { .. }) {
                            let shift = (p.consumed - 1).min(20);
                            let backoff =
                                MAX_BACKOFF_MS.min(BASE_BACKOFF_MS.saturating_mul(1 << shift));
                            p.elapsed_ms += backoff + Self::jitter_ms(key, p.attempt, backoff);
                        }
                        p.attempt += 1;
                        still.push(p);
                    }
                }
            }
            pending = still;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ModelOutput, SamplingParams, TokenUsage};
    use crate::batch::RtlGenCall;
    use crate::faults::{FaultPlan, FaultSpec};
    use crate::transport::FaultInjectedTransport;
    use crate::{Conversation, RtlLanguageModel};
    use std::sync::Arc;

    struct EchoModel;

    impl RtlLanguageModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }
        fn generate_rtl(&mut self, req: &crate::RtlGenRequest<'_>) -> ModelOutput<String> {
            ModelOutput {
                value: format!("// rtl for {}", req.problem_id),
                usage: TokenUsage {
                    prompt: 1,
                    completion: 1,
                },
            }
        }
        fn generate_testbench(
            &mut self,
            _req: &crate::TbGenRequest<'_>,
        ) -> ModelOutput<mage_tb::Testbench> {
            unreachable!()
        }
        fn judge_testbench(&mut self, _req: &crate::JudgeTbRequest<'_>) -> ModelOutput<bool> {
            unreachable!()
        }
        fn debug_rtl(&mut self, _req: &crate::DebugRequest<'_>) -> ModelOutput<String> {
            unreachable!()
        }
        fn fix_syntax(&mut self, _req: &crate::SyntaxFixRequest<'_>) -> ModelOutput<String> {
            unreachable!()
        }
    }

    fn req(id: &str) -> LlmRequest {
        LlmRequest::RtlGen(RtlGenCall {
            problem_id: id.to_string(),
            spec_text: "spec".to_string(),
            testbench_digest: None,
            params: SamplingParams::low(),
            conversation: Arc::new(Conversation::new()),
        })
    }

    fn dispatcher(
        plan: FaultPlan,
        policy: DispatchPolicy,
        backends: usize,
    ) -> Dispatcher<FaultInjectedTransport<EchoModel>> {
        Dispatcher::new(
            FaultInjectedTransport::new(EchoModel, plan, backends),
            policy,
        )
    }

    fn run(
        d: &mut Dispatcher<FaultInjectedTransport<EchoModel>>,
        reqs: &[LlmRequest],
    ) -> Vec<DispatchResult> {
        let calls: Vec<DispatchCall<'_>> = reqs
            .iter()
            .enumerate()
            .map(|(ix, r)| DispatchCall {
                tag: ix,
                req: r,
                salt: ix as u64,
                base_attempt: 0,
            })
            .collect();
        d.dispatch_batch(&calls)
    }

    #[test]
    fn fault_free_dispatch_is_clean_and_counter_free() {
        let mut d = dispatcher(FaultPlan::none(), DispatchPolicy::default(), 2);
        let reqs: Vec<LlmRequest> = (0..6).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert!(out.iter().all(|r| r.result.is_ok()));
        assert!(out.iter().all(|r| r.attempts == 1));
        assert!(d.counters().is_zero(), "{:?}", d.counters());
    }

    #[test]
    fn transient_faults_retry_to_success_with_growing_latency() {
        let plan = FaultPlan::new(21, FaultSpec::single_transient());
        let mut d = dispatcher(plan, DispatchPolicy::default(), 1);
        let reqs: Vec<LlmRequest> = (0..48).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert!(
            out.iter().all(|r| r.result.is_ok()),
            "0.25^4 is rare at n=48"
        );
        let retried = out.iter().filter(|r| r.attempts > 1).count();
        assert!(retried > 0);
        assert!(d.counters().retries > 0);
        // Backoff is charged: a retried request's clock exceeds any
        // single success draw plus the base backoff.
        let max_single = 90 + 1;
        assert!(out
            .iter()
            .filter(|r| r.attempts > 1)
            .all(|r| r.latency_ms > max_single));
    }

    #[test]
    fn exhaustion_is_structured_and_deterministic() {
        let spec = FaultSpec {
            transient: 1.0,
            ..FaultSpec::none()
        };
        let mut d = dispatcher(
            FaultPlan::new(3, spec.clone()),
            DispatchPolicy::default(),
            1,
        );
        let reqs = vec![req("p")];
        let out = run(&mut d, &reqs);
        match &out[0].result {
            Err(DispatchError::Exhausted { attempts, last }) => {
                assert_eq!(*attempts, 4);
                assert_eq!(*last, TransportError::Transient);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // Same plan, fresh dispatcher: bit-identical schedule.
        let mut d2 = dispatcher(FaultPlan::new(3, spec), DispatchPolicy::default(), 1);
        let out2 = run(&mut d2, &reqs);
        assert_eq!(out[0].latency_ms, out2[0].latency_ms);
        assert_eq!(out[0].attempts, out2[0].attempts);
    }

    #[test]
    fn base_attempt_resumes_the_draw_sequence() {
        // A plan that always faults at attempt 0..3 would repeat
        // forever if a re-dispatch replayed attempt 0; base_attempt
        // must advance the stream instead.
        let plan = FaultPlan::new(5, FaultSpec::single_transient());
        let mut d = dispatcher(plan.clone(), DispatchPolicy::default(), 1);
        let r = req("p");
        let first = d.dispatch_batch(&[DispatchCall {
            tag: 0,
            req: &r,
            salt: 9,
            base_attempt: 0,
        }]);
        let resumed = d.dispatch_batch(&[DispatchCall {
            tag: 0,
            req: &r,
            salt: 9,
            base_attempt: 4,
        }]);
        // Different attempt windows ⇒ independent draws; the key check
        // is determinism of each window.
        let mut d2 = dispatcher(plan, DispatchPolicy::default(), 1);
        let resumed2 = d2.dispatch_batch(&[DispatchCall {
            tag: 0,
            req: &r,
            salt: 9,
            base_attempt: 4,
        }]);
        assert_eq!(resumed[0].attempts, resumed2[0].attempts);
        assert_eq!(resumed[0].latency_ms, resumed2[0].latency_ms);
        let _ = first;
    }

    #[test]
    fn rate_limits_defer_and_downsize_batches() {
        let plan = FaultPlan::new(13, FaultSpec::burst_rate_limit());
        // At p=0.5 a 4-attempt budget exhausts ~6% of requests; give
        // the shed storm room so every request eventually lands.
        let policy = DispatchPolicy {
            max_attempts: 12,
            ..DispatchPolicy::default()
        };
        let mut d = dispatcher(plan, policy, 1);
        assert_eq!(d.preferred_batch(), usize::MAX);
        let reqs: Vec<LlmRequest> = (0..32).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert!(out.iter().all(|r| r.result.is_ok()), "shed, not failed");
        assert!(d.counters().rate_limit_defers > 0);
        assert!(
            d.preferred_batch() < 32,
            "shedding must shrink the ceiling: {}",
            d.preferred_batch()
        );
        // Deferred requests are charged the advertised retry-after.
        assert!(out
            .iter()
            .filter(|r| r.attempts > 1)
            .all(|r| r.latency_ms >= 200));
    }

    #[test]
    fn hedging_caps_slow_tail_latency() {
        // Latency range far above the hedge threshold: every success
        // hedges, and the winning clock is min(primary, threshold+dup).
        let spec = FaultSpec {
            latency_ms: (300, 400),
            ..FaultSpec::none()
        };
        let policy = DispatchPolicy {
            hedge_after_ms: Some(100),
            ..DispatchPolicy::default()
        };
        let mut d = dispatcher(FaultPlan::new(17, spec), policy, 2);
        let reqs: Vec<LlmRequest> = (0..8).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert_eq!(d.counters().hedges, 8);
        assert!(out.iter().all(|r| r.latency_ms <= 100 + 400));
    }

    #[test]
    fn dead_backend_fails_over_and_health_reflects_it() {
        let plan = FaultPlan::new(29, FaultSpec::one_backend_dead());
        let mut d = dispatcher(plan, DispatchPolicy::default(), 3);
        let reqs: Vec<LlmRequest> = (0..16).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert!(out.iter().all(|r| r.result.is_ok()));
        assert!(
            out.iter().all(|r| r.backend != 0),
            "dead backend serves nothing"
        );
        assert!(d.counters().failovers >= 16);
        let snap = d.health_snapshot();
        assert!(
            snap.backends[0].score() < snap.backends[1].score(),
            "the outage must show in health"
        );
    }

    #[test]
    fn total_outage_fails_fast_with_all_backends_down() {
        let mut d = dispatcher(
            FaultPlan::new(1, FaultSpec::all_dead(2)),
            DispatchPolicy::default(),
            2,
        );
        let reqs: Vec<LlmRequest> = (0..4).map(|i| req(&format!("p{i}"))).collect();
        let out = run(&mut d, &reqs);
        assert!(out
            .iter()
            .all(|r| r.result == Err(DispatchError::AllBackendsDown)));
        assert!(out.iter().all(|r| r.attempts == 0), "no budget burned");
    }

    #[test]
    fn health_merge_is_calls_weighted() {
        let mut a = BackendHealth {
            err_ema: 0.8,
            latency_ema_ms: 400.0,
            calls: 30,
        };
        let b = BackendHealth {
            err_ema: 0.2,
            latency_ema_ms: 100.0,
            calls: 10,
        };
        a.merge(&b);
        assert_eq!(a.calls, 40);
        assert!((a.err_ema - 0.65).abs() < 1e-9, "{}", a.err_ema);
        assert!((a.latency_ema_ms - 325.0).abs() < 1e-9);
        // Zero-call sides are inert in both directions.
        let mut fresh = BackendHealth::default();
        fresh.merge(&b);
        assert_eq!(fresh, b);
        let mut seen = b.clone();
        seen.merge(&BackendHealth::default());
        assert_eq!(seen, b);
    }

    #[test]
    fn import_health_merges_into_live_emas_instead_of_clobbering() {
        // The migration regression: a shard that watched backend 0 fail
        // imports a snapshot from a shard that saw it healthy. The old
        // clobber semantics would forget the local outage entirely; the
        // merge must land strictly between the two observations.
        let spec = FaultSpec {
            transient: 1.0,
            ..FaultSpec::none()
        };
        let mut d = dispatcher(FaultPlan::new(3, spec), DispatchPolicy::default(), 2);
        let _ = run(&mut d, &[req("p")]);
        let local = d.health_snapshot();
        assert!(local.backends[0].err_ema > 0.5, "local EMAs are live");
        let local_calls = local.backends[0].calls;
        assert!(local_calls > 0);

        let healthy = HealthSnapshot {
            backends: vec![
                BackendHealth {
                    err_ema: 0.0,
                    latency_ema_ms: 40.0,
                    calls: 20,
                },
                BackendHealth::default(),
            ],
        };
        d.import_health(healthy.clone());
        let merged = d.health_snapshot();
        assert!(
            merged.backends[0].err_ema > 0.0
                && merged.backends[0].err_ema < local.backends[0].err_ema,
            "merge must keep both sides: {:?}",
            merged.backends[0]
        );
        assert_eq!(merged.backends[0].calls, local_calls + 20);

        // HealthSnapshot::merge mirrors the dispatcher-level semantics.
        let mut snap = local.clone();
        snap.merge(&healthy);
        assert_eq!(snap, merged);
    }

    #[test]
    fn health_snapshot_round_trips() {
        let plan = FaultPlan::new(21, FaultSpec::single_transient());
        let mut d = dispatcher(plan.clone(), DispatchPolicy::default(), 2);
        let reqs: Vec<LlmRequest> = (0..16).map(|i| req(&format!("p{i}"))).collect();
        let _ = run(&mut d, &reqs);
        let snap = d.health_snapshot();
        assert!(snap.backends.iter().any(|h| h.calls > 0));
        let mut d2 = dispatcher(plan, DispatchPolicy::default(), 2);
        d2.import_health(snap.clone());
        assert_eq!(d2.health_snapshot(), snap);
    }
}
