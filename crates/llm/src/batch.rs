//! Owned request/response envelopes and the batched dispatch surface.
//!
//! The borrowed request types in [`crate::api`] (e.g. [`RtlGenRequest`])
//! tie every model call to the lifetime of the engine's conversation
//! borrow — fine for a blocking loop, fatal for a scheduler that wants to
//! park a request in a queue, coalesce it with requests from other jobs,
//! and resolve it on a later tick. This module supplies the owned
//! mirrors: an [`LlmRequest`] owns its strings and a snapshot of the
//! requesting agent's [`Conversation`], so it can outlive the engine
//! state that produced it, cross thread boundaries, and sit in a batch.
//!
//! [`RtlLanguageModel::dispatch`] resolves one owned request against the
//! scalar trait methods; [`RtlLanguageModel::generate_batch`] resolves a
//! whole batch (default-implemented as a scalar loop, overridable by
//! backends with a genuinely batched transport — one HTTP call, one
//! forward pass).

use crate::api::{
    Conversation, DebugRequest, JudgeTbRequest, ModelOutput, RtlGenRequest, SamplingParams,
    SyntaxFixRequest, TaskKind, TbGenRequest, TokenUsage,
};
use mage_tb::Testbench;
use std::sync::Arc;

// Conversations are snapshotted behind `Arc`: building a request is an
// Arc bump, and the engine's contexts clone-on-write only when a held
// snapshot would otherwise observe a later mutation.

/// Owned mirror of [`RtlGenRequest`].
#[derive(Debug, Clone)]
pub struct RtlGenCall {
    /// Benchmark problem id.
    pub problem_id: String,
    /// Natural-language specification.
    pub spec_text: String,
    /// Optimized-testbench digest, when one grounds the generation.
    pub testbench_digest: Option<String>,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// Snapshot of the requesting agent's conversation.
    pub conversation: Arc<Conversation>,
}

impl RtlGenCall {
    /// The borrowed view the scalar trait methods consume.
    pub fn view(&self) -> RtlGenRequest<'_> {
        RtlGenRequest {
            problem_id: &self.problem_id,
            spec_text: &self.spec_text,
            testbench_digest: self.testbench_digest.as_deref(),
            params: self.params,
            conversation: self.conversation.as_ref(),
        }
    }
}

/// Owned mirror of [`TbGenRequest`].
#[derive(Debug, Clone)]
pub struct TbGenCall {
    /// Benchmark problem id.
    pub problem_id: String,
    /// Natural-language specification.
    pub spec_text: String,
    /// Regeneration count (0 = first bench).
    pub retry: usize,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// Snapshot of the requesting agent's conversation.
    pub conversation: Arc<Conversation>,
}

impl TbGenCall {
    /// The borrowed view the scalar trait methods consume.
    pub fn view(&self) -> TbGenRequest<'_> {
        TbGenRequest {
            problem_id: &self.problem_id,
            spec_text: &self.spec_text,
            retry: self.retry,
            params: self.params,
            conversation: self.conversation.as_ref(),
        }
    }
}

/// Owned mirror of [`JudgeTbRequest`]. The testbench is shared, not
/// copied — benches can be thousands of steps.
#[derive(Debug, Clone)]
pub struct JudgeTbCall {
    /// Benchmark problem id.
    pub problem_id: String,
    /// Natural-language specification.
    pub spec_text: String,
    /// The testbench under judgment.
    pub testbench: Arc<Testbench>,
    /// Evidence gathered by the engine.
    pub evidence: String,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// Snapshot of the requesting agent's conversation.
    pub conversation: Arc<Conversation>,
}

impl JudgeTbCall {
    /// The borrowed view the scalar trait methods consume.
    pub fn view(&self) -> JudgeTbRequest<'_> {
        JudgeTbRequest {
            problem_id: &self.problem_id,
            spec_text: &self.spec_text,
            testbench: &self.testbench,
            evidence: &self.evidence,
            params: self.params,
            conversation: self.conversation.as_ref(),
        }
    }
}

/// Owned mirror of [`DebugRequest`].
#[derive(Debug, Clone)]
pub struct DebugCall {
    /// Benchmark problem id.
    pub problem_id: String,
    /// The candidate's Verilog source.
    pub candidate_source: String,
    /// Textual simulation feedback.
    pub feedback_text: String,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// Snapshot of the requesting agent's conversation.
    pub conversation: Arc<Conversation>,
}

impl DebugCall {
    /// The borrowed view the scalar trait methods consume.
    pub fn view(&self) -> DebugRequest<'_> {
        DebugRequest {
            problem_id: &self.problem_id,
            candidate_source: &self.candidate_source,
            feedback_text: &self.feedback_text,
            params: self.params,
            conversation: self.conversation.as_ref(),
        }
    }
}

/// Owned mirror of [`SyntaxFixRequest`].
#[derive(Debug, Clone)]
pub struct SyntaxFixCall {
    /// Benchmark problem id.
    pub problem_id: String,
    /// The broken source.
    pub candidate_source: String,
    /// The compiler diagnostic.
    pub error_text: String,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// Snapshot of the requesting agent's conversation.
    pub conversation: Arc<Conversation>,
}

impl SyntaxFixCall {
    /// The borrowed view the scalar trait methods consume.
    pub fn view(&self) -> SyntaxFixRequest<'_> {
        SyntaxFixRequest {
            problem_id: &self.problem_id,
            candidate_source: &self.candidate_source,
            error_text: &self.error_text,
            params: self.params,
            conversation: self.conversation.as_ref(),
        }
    }
}

/// One owned, self-contained model request — the unit a scheduler can
/// queue, batch across jobs and resolve asynchronously.
#[derive(Debug, Clone)]
pub enum LlmRequest {
    /// Generate candidate RTL.
    RtlGen(RtlGenCall),
    /// Generate the optimized testbench.
    TbGen(TbGenCall),
    /// Judge a testbench.
    JudgeTb(JudgeTbCall),
    /// Debug a candidate from textual feedback.
    DebugRtl(DebugCall),
    /// Repair a syntax error.
    FixSyntax(SyntaxFixCall),
}

impl LlmRequest {
    /// The problem this request concerns.
    pub fn problem_id(&self) -> &str {
        match self {
            LlmRequest::RtlGen(c) => &c.problem_id,
            LlmRequest::TbGen(c) => &c.problem_id,
            LlmRequest::JudgeTb(c) => &c.problem_id,
            LlmRequest::DebugRtl(c) => &c.problem_id,
            LlmRequest::FixSyntax(c) => &c.problem_id,
        }
    }

    /// The sub-task this request performs.
    pub fn task_kind(&self) -> TaskKind {
        match self {
            LlmRequest::RtlGen(_) => TaskKind::GenerateRtl,
            LlmRequest::TbGen(_) => TaskKind::GenerateTestbench,
            LlmRequest::JudgeTb(_) => TaskKind::Judge,
            LlmRequest::DebugRtl(_) => TaskKind::DebugRtl,
            LlmRequest::FixSyntax(_) => TaskKind::FixSyntax,
        }
    }

    /// Render the prompt a textual backend would receive (identical to
    /// the borrowed request's rendering).
    pub fn render_prompt(&self) -> String {
        match self {
            LlmRequest::RtlGen(c) => c.view().render_prompt(),
            LlmRequest::TbGen(c) => c.view().render_prompt(),
            LlmRequest::JudgeTb(c) => c.view().render_prompt(),
            LlmRequest::DebugRtl(c) => c.view().render_prompt(),
            LlmRequest::FixSyntax(c) => c.view().render_prompt(),
        }
    }
}

/// The typed result of resolving one [`LlmRequest`]. Variants pair with
/// the request variants one-to-one.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmResponse {
    /// Candidate RTL source.
    Rtl(ModelOutput<String>),
    /// Generated testbench.
    Tb(ModelOutput<Testbench>),
    /// Judge verdict.
    Judge(ModelOutput<bool>),
    /// Debugged RTL source.
    Debug(ModelOutput<String>),
    /// Syntax-repaired source.
    Syntax(ModelOutput<String>),
}

impl LlmResponse {
    /// The sub-task this response answers — the mirror of
    /// [`LlmRequest::task_kind`]. An overlapped scheduler that routes
    /// responses back to jobs by tag (rather than by round position)
    /// uses this to assert each routed response actually answers the
    /// request the job parked: a mismatch means the service permuted or
    /// fabricated tags, and is caught at the router instead of as a
    /// confusing unwrap panic deep inside the job.
    pub fn task_kind(&self) -> TaskKind {
        match self {
            LlmResponse::Rtl(_) => TaskKind::GenerateRtl,
            LlmResponse::Tb(_) => TaskKind::GenerateTestbench,
            LlmResponse::Judge(_) => TaskKind::Judge,
            LlmResponse::Debug(_) => TaskKind::DebugRtl,
            LlmResponse::Syntax(_) => TaskKind::FixSyntax,
        }
    }

    /// Token usage of the call behind this response.
    pub fn usage(&self) -> TokenUsage {
        match self {
            LlmResponse::Rtl(o) | LlmResponse::Debug(o) | LlmResponse::Syntax(o) => o.usage,
            LlmResponse::Tb(o) => o.usage,
            LlmResponse::Judge(o) => o.usage,
        }
    }

    /// Unwrap an RTL-generation response.
    ///
    /// # Panics
    ///
    /// Panics on a variant mismatch — a protocol bug in the caller.
    pub fn into_rtl(self) -> ModelOutput<String> {
        match self {
            LlmResponse::Rtl(o) => o,
            other => panic!("expected Rtl response, got {}", other.variant_name()),
        }
    }

    /// Unwrap a testbench-generation response (panics on mismatch).
    pub fn into_tb(self) -> ModelOutput<Testbench> {
        match self {
            LlmResponse::Tb(o) => o,
            other => panic!("expected Tb response, got {}", other.variant_name()),
        }
    }

    /// Unwrap a judge response (panics on mismatch).
    pub fn into_judge(self) -> ModelOutput<bool> {
        match self {
            LlmResponse::Judge(o) => o,
            other => panic!("expected Judge response, got {}", other.variant_name()),
        }
    }

    /// Unwrap a debug response (panics on mismatch).
    pub fn into_debug(self) -> ModelOutput<String> {
        match self {
            LlmResponse::Debug(o) => o,
            other => panic!("expected Debug response, got {}", other.variant_name()),
        }
    }

    /// Unwrap a syntax-fix response (panics on mismatch).
    pub fn into_syntax(self) -> ModelOutput<String> {
        match self {
            LlmResponse::Syntax(o) => o,
            other => panic!("expected Syntax response, got {}", other.variant_name()),
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            LlmResponse::Rtl(_) => "Rtl",
            LlmResponse::Tb(_) => "Tb",
            LlmResponse::Judge(_) => "Judge",
            LlmResponse::Debug(_) => "Debug",
            LlmResponse::Syntax(_) => "Syntax",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{RtlLanguageModel, SamplingParams};
    use mage_tb::{StepTable, Stimulus};

    /// A deterministic toy backend that records how often each dispatch
    /// surface is hit, to prove the default implementations wire through.
    struct EchoModel {
        scalar_calls: usize,
    }

    impl RtlLanguageModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }
        fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
            self.scalar_calls += 1;
            ModelOutput {
                value: format!("// rtl for {}", req.problem_id),
                usage: TokenUsage {
                    prompt: 1,
                    completion: 2,
                },
            }
        }
        fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
            self.scalar_calls += 1;
            ModelOutput {
                value: Testbench::new(req.problem_id, Stimulus::default(), StepTable::default()),
                usage: TokenUsage::default(),
            }
        }
        fn judge_testbench(&mut self, _req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
            self.scalar_calls += 1;
            ModelOutput {
                value: true,
                usage: TokenUsage::default(),
            }
        }
        fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
            self.scalar_calls += 1;
            ModelOutput {
                value: req.candidate_source.to_string(),
                usage: TokenUsage::default(),
            }
        }
        fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
            self.scalar_calls += 1;
            ModelOutput {
                value: req.candidate_source.to_string(),
                usage: TokenUsage::default(),
            }
        }
    }

    fn rtl_call(id: &str) -> LlmRequest {
        LlmRequest::RtlGen(RtlGenCall {
            problem_id: id.to_string(),
            spec_text: "spec".to_string(),
            testbench_digest: None,
            params: SamplingParams::low(),
            conversation: Arc::new(Conversation::new()),
        })
    }

    #[test]
    fn owned_request_renders_like_borrowed() {
        let call = RtlGenCall {
            problem_id: "p9".into(),
            spec_text: "Build a thing.".into(),
            testbench_digest: Some("digest".into()),
            params: SamplingParams::high(),
            conversation: Arc::new(Conversation::new()),
        };
        let owned = LlmRequest::RtlGen(call.clone()).render_prompt();
        assert_eq!(owned, call.view().render_prompt());
        assert!(owned.contains("p9"));
        assert!(owned.contains("digest"));
    }

    #[test]
    fn default_batch_is_scalar_loop_in_order() {
        let mut m = EchoModel { scalar_calls: 0 };
        let batch = vec![rtl_call("a"), rtl_call("b"), rtl_call("c")];
        let out = m.generate_batch(&batch);
        assert_eq!(m.scalar_calls, 3);
        assert_eq!(out.len(), 3);
        let texts: Vec<String> = out.into_iter().map(|r| r.into_rtl().value).collect();
        assert_eq!(texts, vec!["// rtl for a", "// rtl for b", "// rtl for c"]);
    }

    #[test]
    fn dispatch_pairs_variants() {
        let mut m = EchoModel { scalar_calls: 0 };
        let resp = m.dispatch(&rtl_call("z"));
        assert!(matches!(resp, LlmResponse::Rtl(_)));
        let tb = m.dispatch(&LlmRequest::TbGen(TbGenCall {
            problem_id: "z".into(),
            spec_text: "s".into(),
            retry: 0,
            params: SamplingParams::low(),
            conversation: Arc::new(Conversation::new()),
        }));
        assert!(matches!(tb, LlmResponse::Tb(_)));
    }

    #[test]
    fn response_task_kind_mirrors_request() {
        let mut m = EchoModel { scalar_calls: 0 };
        let req = rtl_call("z");
        let resp = m.dispatch(&req);
        assert_eq!(resp.task_kind(), req.task_kind());
    }

    #[test]
    #[should_panic(expected = "expected Judge response")]
    fn mismatched_unwrap_panics() {
        let mut m = EchoModel { scalar_calls: 0 };
        let resp = m.dispatch(&rtl_call("z"));
        let _ = resp.into_judge();
    }
}
