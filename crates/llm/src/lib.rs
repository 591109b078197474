//! Language-model abstraction and the synthetic bug-injection channel.
//!
//! The MAGE paper drives Claude 3.5 Sonnet through an LLM-agnostic
//! interface; this crate supplies the reproduction's equivalent:
//!
//! * [`RtlLanguageModel`] — the typed backend trait the engine calls
//!   (generate RTL, generate testbench, judge, debug, fix syntax), with
//!   prompt rendering and token accounting on every request type;
//! * [`Conversation`] — per-agent history, whose task-kind mixture feeds
//!   the context-interference model (the mechanism behind the paper's
//!   single-agent vs multi-agent ablation);
//! * [`SyntheticModel`] — the offline backend: a stochastic channel that
//!   takes each problem's golden design and injects semantic mutations
//!   ([`mutate`]) at a rate governed by difficulty, grounding,
//!   interference and temperature, calibrated so the vanilla baseline
//!   lands near the paper's Table III pass rate.
//!
//! # Example
//!
//! ```
//! use mage_llm::{ProblemOracle, RtlLanguageModel, SyntheticModel,
//!                SyntheticModelConfig, RtlGenRequest, SamplingParams, Conversation};
//! use mage_tb::Stimulus;
//!
//! let golden = mage_verilog::parse(
//!     "module top(input a, input b, output y); assign y = a & b; endmodule",
//! ).unwrap();
//! let stim = Stimulus::exhaustive(&[("a".into(), 1), ("b".into(), 1)]);
//! let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 42);
//! model.register("and2", ProblemOracle::new(golden, "top", stim, 0.5));
//!
//! let conv = Conversation::new();
//! let out = model.generate_rtl(&RtlGenRequest {
//!     problem_id: "and2",
//!     spec_text: "Implement a 2-input AND gate.",
//!     testbench_digest: None,
//!     params: SamplingParams::high(),
//!     conversation: &conv,
//! });
//! assert!(out.value.contains("module top"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod batch;
pub mod faults;
pub mod mutate;
pub mod policy;
mod synthetic;
pub mod transport;

pub use api::{
    approx_tokens, ChatMessage, Conversation, DebugRequest, JudgeTbRequest, ModelOutput, Role,
    RtlGenRequest, RtlLanguageModel, SamplingParams, SyntaxFixRequest, TaskKind, TbGenRequest,
    TokenUsage,
};
pub use batch::{
    DebugCall, JudgeTbCall, LlmRequest, LlmResponse, RtlGenCall, SyntaxFixCall, TbGenCall,
};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use policy::{
    BackendHealth, DispatchCall, DispatchError, DispatchPolicy, DispatchResult, Dispatcher,
    HealthSnapshot, ResilienceCounters,
};
pub use synthetic::{
    corrupt_testbench_for_test, parse_feedback, ParsedFeedback, ProblemOracle, SyntheticModel,
    SyntheticModelConfig,
};
pub use transport::{
    send_under_plan, Attempt, FaultInjectedTransport, Transport, TransportCall, TransportError,
};
