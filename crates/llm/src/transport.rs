//! The transport seam between dispatch policy and model backends.
//!
//! [`Transport`] is the per-attempt surface a [`crate::Dispatcher`]
//! drives: one `send_batch` is one attempt per request on one backend,
//! returning either the model's response or a [`TransportError`] the
//! policy layer turns into retries, failovers, or structured failure.
//! A production implementation would put an HTTP client here; the
//! repository ships [`FaultInjectedTransport`], which wraps any
//! [`RtlLanguageModel`]'s `generate_batch` behind a deterministic
//! [`FaultPlan`] — every failure scenario replayable without a network.
//!
//! The fault-injected transport's invariant (the one solve-trace
//! determinism rests on): **a faulted attempt never reaches the model.**
//! Garbled replies are corrupted in transit and dropped *before* the
//! model's output is observed, timeouts and rate limits shed the call
//! at the channel — so the backend's completion stream advances exactly
//! once per request, at its final successful attempt, and a stateful
//! model produces the same completions with or without an absorbable
//! fault plan.

use crate::batch::{LlmRequest, LlmResponse};
use crate::faults::{FaultKind, FaultPlan};
use crate::RtlLanguageModel;

/// Why one attempt failed at the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A retryable channel error (connection reset, 5xx, ...).
    Transient,
    /// The attempt exceeded the channel timeout.
    Timeout {
        /// Virtual ms spent before giving up.
        after_ms: u64,
    },
    /// The backend shed load.
    RateLimited {
        /// Server-advertised wait before retrying, virtual ms.
        retry_after_ms: u64,
    },
    /// The reply was corrupted in transit (response dropped unread).
    Garbled,
    /// The backend refused the connection.
    BackendDown,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Transient => f.write_str("transient transport error"),
            TransportError::Timeout { after_ms } => write!(f, "timed out after {after_ms}ms"),
            TransportError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited (retry after {retry_after_ms}ms)")
            }
            TransportError::Garbled => f.write_str("garbled response"),
            TransportError::BackendDown => f.write_str("backend down"),
        }
    }
}

/// One request attempt as the transport sees it.
#[derive(Debug)]
pub struct TransportCall<'a> {
    /// Caller routing tag, opaque to the transport (a serve-layer
    /// transport routes it to per-job backend state; others ignore it).
    pub tag: usize,
    /// The request's fault key (prompt hash salted by the caller) —
    /// with `attempt`, the coordinates of every plan draw.
    pub key: u64,
    /// Attempt number for this request (monotone across retries,
    /// continued across re-dispatches by the caller).
    pub attempt: u32,
    /// The request itself.
    pub req: &'a LlmRequest,
}

/// The outcome of one attempt.
#[derive(Debug)]
pub struct Attempt {
    /// The response, or why the attempt failed.
    pub result: Result<LlmResponse, TransportError>,
    /// Virtual ms the attempt took (success latency, timeout length,
    /// or the fast-fail cost of a refused connection).
    pub latency_ms: u64,
}

/// A multi-route channel to `backends()` model backends: one
/// `send_batch` call is one attempt per given request against one
/// backend. See the module docs for the seam's contract.
pub trait Transport {
    /// Human-readable channel name (for reports).
    fn name(&self) -> &str;

    /// Number of routable backends (≥ 1).
    fn backends(&self) -> usize;

    /// Is `backend` reachable at all? A scripted outage (or a real
    /// transport's tripped circuit breaker) reports `false`; the
    /// dispatcher routes around dead backends and, when none are left,
    /// fails fast with `AllBackendsDown` instead of burning retries.
    fn backend_alive(&self, backend: usize) -> bool;

    /// Attempt each call on `backend`; `out[i]` answers `batch[i]`.
    fn send_batch(&mut self, backend: usize, batch: &[TransportCall<'_>]) -> Vec<Attempt>;

    /// Virtual latency a *hedged duplicate* of `(key, attempt)` would
    /// observe on `backend` — consulted by the dispatcher's hedging
    /// without re-resolving the model (the duplicate races the same
    /// response; only the clock differs).
    fn hedge_latency_ms(&self, backend: usize, key: u64, attempt: u32) -> u64;
}

/// One [`FaultPlan`]-scripted attempt per call of `batch` on
/// `backend` — the fault table every plan-driven transport shares. A
/// scripted-dead backend refuses each call fast (being asked anyway is
/// not an error, e.g. a health probe); a call the plan faults fails
/// with the matching [`TransportError`] and virtual latency; the clean
/// subset goes through **one** `resolve` call, which must answer each
/// call it is given, in order. Faulted attempts never reach `resolve`.
pub fn send_under_plan(
    plan: &FaultPlan,
    backend: usize,
    batch: &[TransportCall<'_>],
    resolve: impl FnOnce(&[&TransportCall<'_>]) -> Vec<LlmResponse>,
) -> Vec<Attempt> {
    let dead = plan.dead(backend);
    let faults: Vec<Option<Attempt>> = batch
        .iter()
        .map(|call| {
            let latency = || plan.latency_ms(call.key, call.attempt);
            let (err, latency_ms) = if dead {
                (TransportError::BackendDown, 1)
            } else {
                match plan.decide(call.key, call.attempt)? {
                    FaultKind::Transient => (TransportError::Transient, latency()),
                    FaultKind::Timeout => (
                        TransportError::Timeout {
                            after_ms: plan.spec.timeout_ms,
                        },
                        plan.spec.timeout_ms,
                    ),
                    FaultKind::RateLimited { retry_after_ms } => {
                        (TransportError::RateLimited { retry_after_ms }, latency())
                    }
                    FaultKind::Garbled => (TransportError::Garbled, latency()),
                    FaultKind::BackendDown => (TransportError::BackendDown, 1),
                }
            };
            Some(Attempt {
                result: Err(err),
                latency_ms,
            })
        })
        .collect();
    let clean: Vec<&TransportCall<'_>> = batch
        .iter()
        .zip(&faults)
        .filter_map(|(call, fault)| fault.is_none().then_some(call))
        .collect();
    let responses = if clean.is_empty() {
        Vec::new()
    } else {
        resolve(&clean)
    };
    assert_eq!(
        responses.len(),
        clean.len(),
        "clean-subset resolution returned a short batch"
    );
    let mut responses = responses.into_iter();
    batch
        .iter()
        .zip(faults)
        .map(|(call, fault)| {
            fault.unwrap_or_else(|| Attempt {
                result: Ok(responses.next().expect("every clean call answered")),
                latency_ms: plan.latency_ms(call.key, call.attempt),
            })
        })
        .collect()
}

/// The synthetic transport: any [`RtlLanguageModel`] behind a
/// [`FaultPlan`]-scripted channel with `n_backends` routes. Clean
/// sub-batches resolve through **one** `generate_batch` call (the
/// pipelined-inference shape); faulted calls never reach the model.
#[derive(Debug)]
pub struct FaultInjectedTransport<M> {
    model: M,
    plan: FaultPlan,
    n_backends: usize,
}

impl<M: RtlLanguageModel> FaultInjectedTransport<M> {
    /// Wrap `model` behind `plan` with `n_backends` routes (≥ 1).
    pub fn new(model: M, plan: FaultPlan, n_backends: usize) -> Self {
        assert!(n_backends >= 1, "at least one backend route");
        FaultInjectedTransport {
            model,
            plan,
            n_backends,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The plan this channel consults.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<M: RtlLanguageModel> Transport for FaultInjectedTransport<M> {
    fn name(&self) -> &str {
        "fault-injected"
    }

    fn backends(&self) -> usize {
        self.n_backends
    }

    fn backend_alive(&self, backend: usize) -> bool {
        !self.plan.dead(backend)
    }

    fn send_batch(&mut self, backend: usize, batch: &[TransportCall<'_>]) -> Vec<Attempt> {
        // The clean subset rides one pipelined generate_batch call, in
        // batch order.
        send_under_plan(&self.plan, backend, batch, |clean| {
            let reqs: Vec<LlmRequest> = clean.iter().map(|call| call.req.clone()).collect();
            self.model.generate_batch(&reqs)
        })
    }

    fn hedge_latency_ms(&self, _backend: usize, key: u64, attempt: u32) -> u64 {
        // Deliberately backend-independent: hedge schedules must not
        // vary with health-driven routing (see faults.rs module docs).
        self.plan.hedge_latency_ms(key, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ModelOutput, RtlGenRequest, SamplingParams, TbGenRequest, TokenUsage};
    use crate::batch::RtlGenCall;
    use crate::faults::FaultSpec;
    use crate::Conversation;
    use std::sync::Arc;

    /// Counts how often the model is actually consulted.
    struct CountingModel {
        batch_calls: usize,
        items: usize,
    }

    impl RtlLanguageModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }
        fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
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
            _req: &TbGenRequest<'_>,
        ) -> ModelOutput<mage_tb::Testbench> {
            unreachable!("tests only send RtlGen")
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
        fn generate_batch(&mut self, batch: &[LlmRequest]) -> Vec<LlmResponse> {
            self.batch_calls += 1;
            self.items += batch.len();
            batch.iter().map(|r| self.dispatch_scalar(r)).collect()
        }
    }

    impl CountingModel {
        fn dispatch_scalar(&mut self, req: &LlmRequest) -> LlmResponse {
            match req {
                LlmRequest::RtlGen(c) => LlmResponse::Rtl(self.generate_rtl(&c.view())),
                _ => unreachable!("tests only send RtlGen"),
            }
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

    fn calls(reqs: &[LlmRequest]) -> Vec<TransportCall<'_>> {
        reqs.iter()
            .enumerate()
            .map(|(ix, r)| TransportCall {
                tag: ix,
                key: ix as u64 * 0x9E37_79B9,
                attempt: 0,
                req: r,
            })
            .collect()
    }

    #[test]
    fn empty_plan_is_one_clean_pipelined_call() {
        let model = CountingModel {
            batch_calls: 0,
            items: 0,
        };
        let mut t = FaultInjectedTransport::new(model, FaultPlan::none(), 2);
        let reqs: Vec<LlmRequest> = (0..5).map(|i| req(&format!("p{i}"))).collect();
        let out = t.send_batch(0, &calls(&reqs));
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|a| a.result.is_ok()));
        assert_eq!(t.model().batch_calls, 1, "one pipelined inner call");
        assert_eq!(t.model().items, 5);
    }

    #[test]
    fn faulted_attempts_never_reach_the_model() {
        // All-garbled plan: the model must see zero traffic.
        let spec = FaultSpec {
            garbled: 1.0,
            ..FaultSpec::none()
        };
        let model = CountingModel {
            batch_calls: 0,
            items: 0,
        };
        let mut t = FaultInjectedTransport::new(model, FaultPlan::new(3, spec), 1);
        let reqs: Vec<LlmRequest> = (0..4).map(|i| req(&format!("p{i}"))).collect();
        let out = t.send_batch(0, &calls(&reqs));
        assert!(out.iter().all(|a| a.result == Err(TransportError::Garbled)));
        assert_eq!(t.model().batch_calls, 0, "garbled replies drop pre-model");
        assert_eq!(t.model().items, 0);
    }

    #[test]
    fn partial_batch_failure_resolves_the_clean_subset_in_one_call() {
        let plan = FaultPlan::new(11, FaultSpec::single_transient());
        let model = CountingModel {
            batch_calls: 0,
            items: 0,
        };
        let mut t = FaultInjectedTransport::new(model, plan.clone(), 1);
        let reqs: Vec<LlmRequest> = (0..64).map(|i| req(&format!("p{i}"))).collect();
        let out = t.send_batch(0, &calls(&reqs));
        let failed = out.iter().filter(|a| a.result.is_err()).count();
        assert!(failed > 0, "0.25 transient over 64 calls should hit");
        assert!(failed < 64, "and miss");
        assert_eq!(t.model().batch_calls, 1);
        assert_eq!(t.model().items, 64 - failed);
        // Replay: bit-identical outcome pattern.
        let model2 = CountingModel {
            batch_calls: 0,
            items: 0,
        };
        let mut t2 = FaultInjectedTransport::new(model2, plan, 1);
        let out2 = t2.send_batch(0, &calls(&reqs));
        for (a, b) in out.iter().zip(&out2) {
            assert_eq!(a.result.is_ok(), b.result.is_ok());
            assert_eq!(a.latency_ms, b.latency_ms);
        }
    }

    #[test]
    fn dead_backend_refuses_everything_fast() {
        let plan = FaultPlan::new(1, FaultSpec::one_backend_dead());
        let model = CountingModel {
            batch_calls: 0,
            items: 0,
        };
        let mut t = FaultInjectedTransport::new(model, plan, 3);
        assert!(!t.backend_alive(0));
        assert!(t.backend_alive(1));
        let reqs = vec![req("p")];
        let out = t.send_batch(0, &calls(&reqs));
        assert_eq!(out[0].result, Err(TransportError::BackendDown));
        assert_eq!(t.model().batch_calls, 0);
    }
}
