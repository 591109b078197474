//! The model-facing API: requests, sampling parameters, conversations and
//! token accounting.
//!
//! The paper drives Claude 3.5 Sonnet through LlamaIndex's LLM-agnostic
//! interface; this crate's analogue is the [`RtlLanguageModel`] trait. A
//! production backend would render each request to a prompt (every request
//! type provides `render_prompt`) and parse the completion; the offline
//! reproduction uses [`crate::SyntheticModel`], a calibrated
//! bug-injection channel that answers from each problem's golden design
//! and injects the errors a real model makes.

use mage_tb::Testbench;
use std::sync::Arc;

/// Sampling parameters, matching the paper's experiment configurations
/// (Low: `T = 0, top_p = 0.01`; High: `T = 0.85, top_p = 0.95`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingParams {
    /// Softmax temperature in `[0, 1]`.
    pub temperature: f64,
    /// Nucleus sampling threshold (kept for interface fidelity; the
    /// synthetic channel folds it into the temperature diversity model).
    pub top_p: f64,
}

impl SamplingParams {
    /// The paper's Low-Temperature configuration (T=0, top_p=0.01).
    pub fn low() -> Self {
        SamplingParams {
            temperature: 0.0,
            top_p: 0.01,
        }
    }

    /// The paper's High-Temperature configuration (T=0.85, top_p=0.95).
    pub fn high() -> Self {
        SamplingParams {
            temperature: 0.85,
            top_p: 0.95,
        }
    }
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams::low()
    }
}

/// The kind of sub-task a message belongs to. Context-switching across
/// kinds inside one conversation is what the multi-agent decomposition
/// removes (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Synthesizable RTL generation.
    GenerateRtl,
    /// Non-synthesizable testbench generation.
    GenerateTestbench,
    /// Judging / scoring / deciding.
    Judge,
    /// Functional debugging from waveform feedback.
    DebugRtl,
    /// Syntax repair.
    FixSyntax,
}

/// Message author.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// System prompt.
    System,
    /// The orchestrating engine.
    User,
    /// The model.
    Assistant,
}

/// One message in an agent's conversation history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatMessage {
    /// Author.
    pub role: Role,
    /// Text content.
    pub content: String,
    /// Sub-task this message served.
    pub task: TaskKind,
}

/// Crude token estimate (≈ 4 characters per token), used for context
/// accounting and the cost columns of the experiment reports.
pub fn approx_tokens(text: &str) -> usize {
    text.len().div_ceil(4)
}

/// An agent's conversation history.
///
/// Each MAGE agent owns one `Conversation`; the single-agent ablation
/// shares one conversation across all task kinds, which is exactly what
/// the interference model in the synthetic channel penalizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Conversation {
    messages: Vec<ChatMessage>,
    /// Running total of `approx_tokens` over `messages` — kept in sync
    /// by `push`/`compact_to` so accounting never rescans the
    /// transcript.
    tokens: usize,
    /// Messages elided by compaction (the summary stub at index 0
    /// stands in for them when non-zero).
    elided: usize,
    /// Approximate tokens of the elided messages.
    elided_tokens: usize,
}

impl Conversation {
    /// An empty conversation.
    pub fn new() -> Self {
        Conversation::default()
    }

    /// Append a message.
    pub fn push(&mut self, role: Role, task: TaskKind, content: impl Into<String>) {
        let content = content.into();
        self.tokens += approx_tokens(&content);
        self.messages.push(ChatMessage {
            role,
            content,
            task,
        });
    }

    /// All messages in order.
    pub fn messages(&self) -> &[ChatMessage] {
        &self.messages
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// `true` when no messages have been exchanged.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Number of distinct task kinds present in the history.
    pub fn distinct_tasks(&self) -> usize {
        let mut kinds: Vec<TaskKind> = Vec::new();
        for m in &self.messages {
            if !kinds.contains(&m.task) {
                kinds.push(m.task);
            }
        }
        kinds.len()
    }

    /// Total (approximate) tokens across the history. O(1): the count
    /// is maintained incrementally.
    pub fn total_tokens(&self) -> usize {
        debug_assert_eq!(
            self.tokens,
            self.messages
                .iter()
                .map(|m| approx_tokens(&m.content))
                .sum::<usize>(),
            "token counter out of sync with messages"
        );
        self.tokens
    }

    /// Messages elided by [`Conversation::compact_to`] over the
    /// conversation's lifetime.
    pub fn elided(&self) -> usize {
        self.elided
    }

    /// Bound the history to roughly `budget` tokens by eliding the
    /// oldest messages into a single summary stub, the way a production
    /// agent summarizes an overlong context instead of holding the full
    /// transcript. The two most recent messages (the last exchange) are
    /// always kept, so the effective floor is their size plus the stub.
    ///
    /// Returns the number of messages elided by this call. A no-op when
    /// the history is already within budget.
    pub fn compact_to(&mut self, budget: usize) -> usize {
        if self.total_tokens() <= budget {
            return 0;
        }
        // Peel off any existing stub; it is rebuilt with updated counts.
        let mut task = None;
        if self.elided > 0 && !self.messages.is_empty() {
            let stub = self.messages.remove(0);
            self.tokens -= approx_tokens(&stub.content);
            task = Some(stub.task);
        }
        let mut dropped = 0usize;
        while self.over_budget_without_stub(budget) && self.messages.len() > 2 {
            let m = self.messages.remove(0);
            let t = approx_tokens(&m.content);
            self.tokens -= t;
            task.get_or_insert(m.task);
            dropped += 1;
            self.elided += 1;
            self.elided_tokens += t;
        }
        if self.elided > 0 {
            let content = format!(
                "[context summary: {} earlier messages (~{} tokens) elided]",
                self.elided, self.elided_tokens
            );
            self.tokens += approx_tokens(&content);
            self.messages.insert(
                0,
                ChatMessage {
                    role: Role::System,
                    task: task.expect("at least one message was elided"),
                    content,
                },
            );
        }
        dropped
    }

    /// Would the history still exceed `budget` once the (re-inserted)
    /// summary stub is accounted for? The stub costs ~20 tokens.
    fn over_budget_without_stub(&self, budget: usize) -> bool {
        self.total_tokens() + 20 > budget
    }
}

/// Token usage of one model call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenUsage {
    /// Tokens in the rendered prompt (plus history).
    pub prompt: usize,
    /// Tokens in the completion.
    pub completion: usize,
}

impl TokenUsage {
    /// Prompt + completion.
    pub fn total(&self) -> usize {
        self.prompt + self.completion
    }
}

impl std::ops::Add for TokenUsage {
    type Output = TokenUsage;
    fn add(self, rhs: TokenUsage) -> TokenUsage {
        TokenUsage {
            prompt: self.prompt + rhs.prompt,
            completion: self.completion + rhs.completion,
        }
    }
}

impl std::ops::AddAssign for TokenUsage {
    fn add_assign(&mut self, rhs: TokenUsage) {
        *self = *self + rhs;
    }
}

/// A model result together with its token usage.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOutput<T> {
    /// The produced value.
    pub value: T,
    /// Cost of producing it.
    pub usage: TokenUsage,
}

// ----------------------------------------------------------------------
// Request types
// ----------------------------------------------------------------------

/// Request: generate synthesizable RTL for a problem.
#[derive(Debug, Clone)]
pub struct RtlGenRequest<'a> {
    /// Benchmark problem id.
    pub problem_id: &'a str,
    /// Natural-language specification.
    pub spec_text: &'a str,
    /// A digest of the optimized testbench, when one exists in context
    /// (Step 2 grounding; absent for the vanilla baseline).
    pub testbench_digest: Option<&'a str>,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// The requesting agent's conversation history.
    pub conversation: &'a Conversation,
}

impl RtlGenRequest<'_> {
    /// Render the prompt a textual backend would receive.
    pub fn render_prompt(&self) -> String {
        let mut p = format!(
            "You are an expert Verilog RTL designer.\nProblem: {}\nSpecification:\n{}\n",
            self.problem_id, self.spec_text
        );
        if let Some(tb) = self.testbench_digest {
            p.push_str("Optimized testbench (textual waveform output):\n");
            p.push_str(tb);
            p.push('\n');
        }
        p.push_str("Produce only synthesizable Verilog-2005 for the required module.\n");
        p
    }
}

/// Request: generate the optimized (state-checkpoint) testbench.
#[derive(Debug, Clone)]
pub struct TbGenRequest<'a> {
    /// Benchmark problem id.
    pub problem_id: &'a str,
    /// Natural-language specification.
    pub spec_text: &'a str,
    /// How many times this bench has been regenerated after the judge
    /// rejected it (retries use judge feedback and are more careful).
    pub retry: usize,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// The requesting agent's conversation history.
    pub conversation: &'a Conversation,
}

impl TbGenRequest<'_> {
    /// Render the prompt a textual backend would receive.
    pub fn render_prompt(&self) -> String {
        format!(
            "You are a Verilog verification engineer.\nProblem: {}\nSpecification:\n{}\n\
             Write a testbench that checks all outputs at every clock edge and prints a \
             textual waveform log with state checkpoints.{}\n",
            self.problem_id,
            self.spec_text,
            if self.retry > 0 {
                "\nThe previous testbench was judged incorrect; regenerate it carefully."
            } else {
                ""
            }
        )
    }
}

/// Request: judge whether an optimized testbench itself is correct
/// (paper Step 3).
#[derive(Debug, Clone)]
pub struct JudgeTbRequest<'a> {
    /// Benchmark problem id.
    pub problem_id: &'a str,
    /// Natural-language specification.
    pub spec_text: &'a str,
    /// The testbench under judgment, shared so a judge can run it
    /// without copying it.
    pub testbench: &'a Arc<Testbench>,
    /// Evidence gathered by the engine (e.g. "the initial RTL failed
    /// these checks …").
    pub evidence: &'a str,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// The requesting agent's conversation history.
    pub conversation: &'a Conversation,
}

impl JudgeTbRequest<'_> {
    /// Render the prompt a textual backend would receive.
    pub fn render_prompt(&self) -> String {
        format!(
            "You are a verification judge.\nProblem: {}\nSpecification:\n{}\n\
             Testbench `{}` with {} checks over {} steps.\nEvidence:\n{}\n\
             Answer CORRECT or INCORRECT.\n",
            self.problem_id,
            self.spec_text,
            self.testbench.name,
            self.testbench.total_checks(),
            self.testbench.len(),
            self.evidence
        )
    }
}

/// Request: fix a functionally wrong candidate given waveform feedback.
#[derive(Debug, Clone)]
pub struct DebugRequest<'a> {
    /// Benchmark problem id.
    pub problem_id: &'a str,
    /// The candidate's Verilog source.
    pub candidate_source: &'a str,
    /// The textual feedback: either a pass-rate summary or a
    /// state-checkpoint window (see `mage_tb::textlog`). The synthetic
    /// debugger extracts everything it knows from THIS TEXT, exactly like
    /// an LLM reading the log.
    pub feedback_text: &'a str,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// The requesting agent's conversation history.
    pub conversation: &'a Conversation,
}

impl DebugRequest<'_> {
    /// Render the prompt a textual backend would receive.
    pub fn render_prompt(&self) -> String {
        format!(
            "You are a Verilog debugging specialist.\nProblem: {}\nCandidate RTL:\n{}\n\
             Simulation feedback:\n{}\nReturn the corrected full module.\n",
            self.problem_id, self.candidate_source, self.feedback_text
        )
    }
}

/// Request: repair a syntax error (the `s = 5` repair loop).
#[derive(Debug, Clone)]
pub struct SyntaxFixRequest<'a> {
    /// Benchmark problem id.
    pub problem_id: &'a str,
    /// The broken source.
    pub candidate_source: &'a str,
    /// The compiler diagnostic.
    pub error_text: &'a str,
    /// Sampling parameters.
    pub params: SamplingParams,
    /// The requesting agent's conversation history.
    pub conversation: &'a Conversation,
}

impl SyntaxFixRequest<'_> {
    /// Render the prompt a textual backend would receive.
    pub fn render_prompt(&self) -> String {
        format!(
            "Fix the syntax error.\nProblem: {}\nSource:\n{}\nDiagnostic: {}\n",
            self.problem_id, self.candidate_source, self.error_text
        )
    }
}

/// The LLM-agnostic backend interface of the MAGE engine.
///
/// Implementations: [`crate::SyntheticModel`] (offline, calibrated
/// channel). A networked backend for a real model would implement the
/// same trait by rendering each request's `render_prompt()` and parsing
/// the completion.
pub trait RtlLanguageModel {
    /// Backend name for reports (e.g. `synthetic-claude-3.5-sonnet`).
    fn name(&self) -> &str;

    /// Generate candidate RTL source (may contain syntax errors).
    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String>;

    /// Generate the optimized testbench for a problem.
    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench>;

    /// Judge whether a testbench is itself correct.
    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool>;

    /// Produce a debugged version of a candidate from textual feedback.
    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String>;

    /// Repair a syntax error.
    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String>;

    /// Resolve one owned request against the matching scalar method.
    ///
    /// This is the bridge between the owned envelopes a scheduler queues
    /// ([`crate::LlmRequest`]) and the borrowed request structs the
    /// scalar methods consume; backends normally keep the default.
    fn dispatch(&mut self, req: &crate::LlmRequest) -> crate::LlmResponse {
        use crate::{LlmRequest, LlmResponse};
        match req {
            LlmRequest::RtlGen(c) => LlmResponse::Rtl(self.generate_rtl(&c.view())),
            LlmRequest::TbGen(c) => LlmResponse::Tb(self.generate_testbench(&c.view())),
            LlmRequest::JudgeTb(c) => LlmResponse::Judge(self.judge_testbench(&c.view())),
            LlmRequest::DebugRtl(c) => LlmResponse::Debug(self.debug_rtl(&c.view())),
            LlmRequest::FixSyntax(c) => LlmResponse::Syntax(self.fix_syntax(&c.view())),
        }
    }

    /// Resolve a batch of requests; `out[i]` answers `batch[i]`.
    ///
    /// The default implementation is a scalar loop in batch order, so
    /// every backend gets the batched surface for free. Backends with a
    /// genuinely batched transport (one API call serving the whole
    /// batch, one padded forward pass) override this — the scheduler in
    /// `mage-serve` coalesces pending requests across concurrent jobs
    /// into exactly one `generate_batch` call per dispatch cycle.
    fn generate_batch(&mut self, batch: &[crate::LlmRequest]) -> Vec<crate::LlmResponse> {
        batch.iter().map(|req| self.dispatch(req)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversation_tracks_tasks_and_tokens() {
        let mut c = Conversation::new();
        assert!(c.is_empty());
        c.push(Role::User, TaskKind::GenerateRtl, "a".repeat(40));
        c.push(Role::Assistant, TaskKind::GenerateRtl, "b".repeat(40));
        c.push(Role::User, TaskKind::GenerateTestbench, "c".repeat(40));
        assert_eq!(c.len(), 3);
        assert_eq!(c.distinct_tasks(), 2);
        assert_eq!(c.total_tokens(), 30);
    }

    #[test]
    fn compaction_bounds_tokens_and_keeps_last_exchange() {
        let mut c = Conversation::new();
        for i in 0..40 {
            c.push(
                Role::User,
                TaskKind::DebugRtl,
                format!("prompt {i} {}", "p".repeat(400)),
            );
            c.push(
                Role::Assistant,
                TaskKind::DebugRtl,
                format!("reply {i} {}", "r".repeat(400)),
            );
        }
        let before = c.total_tokens();
        assert!(before > 4000);
        let dropped = c.compact_to(1000);
        assert!(dropped > 0);
        assert!(
            c.total_tokens() <= 1000,
            "over budget: {}",
            c.total_tokens()
        );
        assert_eq!(c.elided(), dropped);
        // The stub heads the history; the newest exchange survives.
        assert!(c.messages()[0].content.contains("context summary"));
        assert!(c.messages().last().unwrap().content.starts_with("reply 39"));
        // Compacting again after more growth keeps exactly one stub.
        for i in 40..60 {
            c.push(
                Role::User,
                TaskKind::DebugRtl,
                format!("prompt {i} {}", "p".repeat(400)),
            );
            c.push(
                Role::Assistant,
                TaskKind::DebugRtl,
                format!("reply {i} {}", "r".repeat(400)),
            );
        }
        c.compact_to(1000);
        assert!(c.total_tokens() <= 1000);
        let stubs = c
            .messages()
            .iter()
            .filter(|m| m.content.contains("context summary"))
            .count();
        assert_eq!(stubs, 1);
        assert!(c.elided() > dropped);
    }

    #[test]
    fn compaction_is_a_noop_within_budget() {
        let mut c = Conversation::new();
        c.push(Role::User, TaskKind::GenerateRtl, "small");
        let before = c.clone();
        assert_eq!(c.compact_to(10_000), 0);
        assert_eq!(c, before);
    }

    #[test]
    fn sampling_presets_match_paper() {
        let low = SamplingParams::low();
        assert_eq!(low.temperature, 0.0);
        assert_eq!(low.top_p, 0.01);
        let high = SamplingParams::high();
        assert_eq!(high.temperature, 0.85);
        assert_eq!(high.top_p, 0.95);
    }

    #[test]
    fn usage_adds() {
        let a = TokenUsage {
            prompt: 10,
            completion: 5,
        };
        let b = TokenUsage {
            prompt: 1,
            completion: 2,
        };
        assert_eq!((a + b).total(), 18);
    }

    #[test]
    fn prompts_render_context() {
        let conv = Conversation::new();
        let req = RtlGenRequest {
            problem_id: "prob001",
            spec_text: "Build an AND gate.",
            testbench_digest: Some("tb digest"),
            params: SamplingParams::high(),
            conversation: &conv,
        };
        let p = req.render_prompt();
        assert!(p.contains("prob001"));
        assert!(p.contains("AND gate"));
        assert!(p.contains("tb digest"));
    }
}
