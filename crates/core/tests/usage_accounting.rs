//! Token-usage accounting and context-growth bounds for long debug
//! loops (the memory audit behind `mage-serve`'s 100-job streams).

use mage_core::{Mage, MageConfig, Task};
use mage_llm::{
    DebugRequest, JudgeTbRequest, ModelOutput, RtlGenRequest, RtlLanguageModel, SyntaxFixRequest,
    SyntheticModel, TbGenRequest, TokenUsage,
};
use mage_tb::Testbench;

/// A transparent wrapper that sums the usage of every scalar call — the
/// independent ledger `SolveTrace::usage` must reconcile against.
struct Metered {
    inner: SyntheticModel,
    ledger: TokenUsage,
    calls: usize,
}

impl Metered {
    fn tally<T>(&mut self, out: ModelOutput<T>) -> ModelOutput<T> {
        self.ledger += out.usage;
        self.calls += 1;
        out
    }
}

impl RtlLanguageModel for Metered {
    fn name(&self) -> &str {
        "metered"
    }
    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
        let out = self.inner.generate_rtl(req);
        self.tally(out)
    }
    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
        let out = self.inner.generate_testbench(req);
        self.tally(out)
    }
    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
        let out = self.inner.judge_testbench(req);
        self.tally(out)
    }
    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
        let out = self.inner.debug_rtl(req);
        self.tally(out)
    }
    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
        let out = self.inner.fix_syntax(req);
        self.tally(out)
    }
}

fn metered(seed: u64) -> Metered {
    let p = mage_problems::by_id("prob029_alu4").expect("corpus problem");
    Metered {
        inner: p.job_model(seed),
        ledger: TokenUsage::default(),
        calls: 0,
    }
}

fn solve_with(config: MageConfig, seed: u64) -> (Metered, mage_core::SolveTrace) {
    let p = mage_problems::by_id("prob029_alu4").unwrap();
    let mut model = metered(seed);
    let trace = Mage::new(&mut model, config).solve(&Task {
        id: p.id,
        spec: p.spec,
    });
    (model, trace)
}

#[test]
fn trace_usage_reconciles_with_per_call_ledger() {
    for seed in [1u64, 8, 21] {
        let (model, trace) = solve_with(MageConfig::high_temperature(), seed);
        assert!(model.calls > 0);
        assert_eq!(
            trace.usage, model.ledger,
            "trace usage must equal the sum of every model call's usage (seed {seed})"
        );
    }
}

#[test]
fn context_budget_bounds_peak_context() {
    // A long debug loop: many rounds against a hard problem. Unbudgeted
    // conversations grow with every exchange; a budget must cap the
    // peak without breaking usage accounting.
    let long_debug = MageConfig {
        max_debug_rounds: 12,
        ..MageConfig::high_temperature()
    };
    let budget = 800;
    // Runs that solve pre-sampling never grow a context; scan a fixed
    // seed set for one that reaches a long debug loop.
    let mut exercised = 0usize;
    for seed in 0..24u64 {
        let (_, unbounded) = solve_with(long_debug.clone(), seed);
        if unbounded.peak_context_tokens <= budget {
            continue;
        }
        exercised += 1;
        let capped_cfg = MageConfig {
            context_budget: Some(budget),
            ..long_debug.clone()
        };
        let (model, capped) = solve_with(capped_cfg, seed);
        assert!(
            capped.peak_context_tokens <= budget,
            "seed {seed}: capped peak {} over budget",
            capped.peak_context_tokens
        );
        assert!(
            unbounded.peak_context_tokens > capped.peak_context_tokens,
            "seed {seed}: unbudgeted peak {} should exceed capped peak {}",
            unbounded.peak_context_tokens,
            capped.peak_context_tokens
        );
        // Accounting still reconciles under compaction.
        assert_eq!(capped.usage, model.ledger);
        if exercised == 3 {
            break;
        }
    }
    assert!(
        exercised > 0,
        "no seed in 0..24 grew a context past {budget} tokens — weaken the budget"
    );
}
