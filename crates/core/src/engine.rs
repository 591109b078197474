//! The MAGE orchestrator: the five-step workflow of §III-A.
//!
//! ```text
//! Step 1  Testbench agent emits the optimized (state-checkpoint) bench.
//! Step 2  RTL agent emits the initial candidate, grounded on the bench.
//! Step 3  If the candidate fails, the judge decides whether the BENCH is
//!         at fault and has it regenerated (bounded retries).
//! Step 4  High-temperature sampling: c candidates, simulation-scored
//!         (Eq. 2), top-K selected (Eq. 3).
//! Step 5  Checkpoint debugging: per-candidate debug trials, accepted
//!         only when the score does not regress (Eq. 4), until a perfect
//!         score or the round limit.
//! ```
//!
//! The same engine runs every ablation protocol ([`SystemKind`]): the
//! protocols differ only in how agent roles share conversation contexts
//! and in the feedback format their debugger receives.

use crate::config::{MageConfig, SystemKind};
use crate::solvejob::{execute_sim_with, SimRequest};
use crate::units::SolveUnits;
use mage_llm::{
    Conversation, DebugRequest, JudgeTbRequest, ModelOutput, Role, RtlGenRequest, RtlLanguageModel,
    SyntaxFixRequest, TaskKind, TbGenRequest, TokenUsage,
};
use mage_sim::{elaborate, elaborate_with, ChainedUnits, DeltaStats, Design, DesignUnits};
use mage_tb::textlog::{render_checkpoint_window, render_summary};
use mage_tb::{TbReport, Testbench};
use mage_verilog::parse;
use std::collections::HashMap;
use std::sync::Arc;

/// A generation task handed to the engine: the problem id and its
/// natural-language specification. (The benchmark's golden testbench
/// stays with the *evaluation harness* — the engine never sees it.)
#[derive(Debug, Clone)]
pub struct Task<'a> {
    /// Problem id (keys the synthetic model's oracle).
    pub id: &'a str,
    /// Natural-language specification.
    pub spec: &'a str,
}

/// Agent roles; the protocol maps each to a conversation context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AgentRole {
    Testbench,
    Rtl,
    Judge,
    Debug,
}

/// The conversation contexts of one solve, shaped by the protocol.
///
/// Conversations live behind `Arc` so a request snapshot is one
/// refcount bump; [`Contexts::record`] clones-on-write only when a
/// still-held snapshot would otherwise see the mutation.
#[derive(Debug, Clone)]
pub(crate) struct Contexts {
    kind: SystemKind,
    convs: Vec<Arc<Conversation>>,
    /// Per-conversation token budget ([`MageConfig::context_budget`]).
    budget: Option<usize>,
    /// Largest single-conversation token count seen (post-compaction).
    pub(crate) peak_tokens: usize,
}

impl Contexts {
    pub(crate) fn new(kind: SystemKind, budget: Option<usize>) -> Self {
        let n = match kind {
            SystemKind::Vanilla | SystemKind::SingleAgent => 1,
            SystemKind::TwoAgent => 2,
            SystemKind::Mage => 4,
        };
        Contexts {
            kind,
            convs: (0..n).map(|_| Arc::new(Conversation::new())).collect(),
            budget,
            peak_tokens: 0,
        }
    }

    fn index(&self, role: AgentRole) -> usize {
        match self.kind {
            SystemKind::Vanilla | SystemKind::SingleAgent => 0,
            SystemKind::TwoAgent => match role {
                // Generation context vs review context (AIVRIL split).
                AgentRole::Testbench | AgentRole::Rtl => 0,
                AgentRole::Judge | AgentRole::Debug => 1,
            },
            SystemKind::Mage => match role {
                AgentRole::Testbench => 0,
                AgentRole::Rtl => 1,
                AgentRole::Judge => 2,
                AgentRole::Debug => 3,
            },
        }
    }

    pub(crate) fn conv(&self, role: AgentRole) -> &Conversation {
        self.convs[self.index(role)].as_ref()
    }

    /// An `Arc` snapshot of a role's conversation (what owned requests
    /// carry).
    pub(crate) fn conv_arc(&self, role: AgentRole) -> Arc<Conversation> {
        Arc::clone(&self.convs[self.index(role)])
    }

    pub(crate) fn record(&mut self, role: AgentRole, task: TaskKind, prompt: &str, reply: &str) {
        let ix = self.index(role);
        let conv = Arc::make_mut(&mut self.convs[ix]);
        conv.push(Role::User, task, prompt);
        conv.push(Role::Assistant, task, reply);
        if let Some(budget) = self.budget {
            conv.compact_to(budget);
        }
        // Peak of what is actually *held* (post-compaction): the memory
        // bound a budget buys is exactly what this metric verifies.
        self.peak_tokens = self.peak_tokens.max(self.convs[ix].total_tokens());
    }
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Verilog source text.
    pub source: String,
    /// Elaborated design, when the source compiles.
    pub design: Option<Arc<Design>>,
    /// Eq. 2 score against the optimized bench (0 when broken).
    pub score: f64,
    /// The report behind the score, when simulation ran.
    pub report: Option<TbReport>,
}

/// How a solve terminated.
///
/// The blocking loop and a fault-free served run always finish
/// [`JobOutcome::Completed`]; only the fault-tolerant dispatch layer in
/// `mage-serve` produces [`JobOutcome::Failed`] — a job whose LLM
/// retry budget, deadline, or backend pool was exhausted is finished
/// *as a value* (partial trace, structured reason) instead of poisoning
/// the scheduler round it died in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum JobOutcome {
    /// The workflow ran to its normal end.
    #[default]
    Completed,
    /// The solve was cut short by the serving layer.
    Failed {
        /// Human-readable cause (e.g. `"llm retry budget exhausted: ..."`).
        reason: String,
    },
}

impl JobOutcome {
    /// `true` for [`JobOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

/// The full trace of one engine run on one task (feeds every figure).
///
/// `PartialEq` compares every field bit-for-bit — the differential and
/// determinism suites rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveTrace {
    /// Problem id.
    pub problem_id: String,
    /// The final answer source.
    pub final_source: String,
    /// Final Eq. 2 score against the optimized bench.
    pub final_score: f64,
    /// Score of the Step 2 initial candidate (None if it never compiled).
    pub initial_score: Option<f64>,
    /// `true` when the initial candidate already passed (no Step 4/5).
    pub solved_pre_sampling: bool,
    /// Scores of the Step 4 sampled candidates.
    pub sampled_scores: Vec<f64>,
    /// Best sampled score (Fig. 4a's "with sampling" series).
    pub best_sampled_score: Option<f64>,
    /// Mean score of the selected set entering Step 5 (Fig. 4b baseline).
    pub selected_mean_pre_debug: Option<f64>,
    /// Mean score of the selected set after each debug round (Fig. 4b).
    pub round_mean_scores: Vec<f64>,
    /// Testbench regenerations triggered by the judge (Step 3).
    pub tb_regens: usize,
    /// Generations abandoned for unrepairable syntax.
    pub syntax_failures: usize,
    /// Total token usage of the run.
    pub usage: TokenUsage,
    /// Largest per-agent conversation (approximate tokens) held at any
    /// point of the run, after any [`MageConfig::context_budget`]
    /// compaction. The memory-accounting metric of long debug loops.
    pub peak_context_tokens: usize,
    /// How the solve terminated (always `Completed` outside the
    /// fault-tolerant serving layer).
    pub outcome: JobOutcome,
}

/// The MAGE engine, generic over the language-model backend.
///
/// # Example
///
/// ```
/// use mage_core::{Mage, MageConfig, Task};
/// use mage_llm::{ProblemOracle, SyntheticModel, SyntheticModelConfig};
/// use mage_tb::Stimulus;
///
/// let golden = mage_verilog::parse(
///     "module top_module(input a, input b, output y); assign y = a ^ b; endmodule",
/// ).unwrap();
/// let stim = Stimulus::exhaustive(&[("a".into(), 1), ("b".into(), 1)]);
/// let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 7);
/// model.register("xor2", ProblemOracle::new(golden, "top_module", stim, 0.4));
///
/// let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
/// let trace = engine.solve(&Task { id: "xor2", spec: "Implement XOR." });
/// assert!(trace.final_score > 0.9);
/// ```
#[derive(Debug)]
pub struct Mage<'m, M: RtlLanguageModel> {
    model: &'m mut M,
    config: MageConfig,
}

impl<'m, M: RtlLanguageModel> Mage<'m, M> {
    /// Create an engine over a backend.
    pub fn new(model: &'m mut M, config: MageConfig) -> Self {
        Mage { model, config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &MageConfig {
        &self.config
    }

    /// Run the workflow on one task.
    ///
    /// This drives the resumable state machine ([`crate::SolveJob`])
    /// to completion with scalar model calls and an inline simulation
    /// executor — the single-job view of exactly what `mage-serve`
    /// schedules across many jobs. [`Mage::solve_blocking`] keeps the
    /// original straight-line loop as the differential oracle; the two
    /// produce bit-identical traces (see `tests/solvejob_differential.rs`).
    pub fn solve(&mut self, task: &Task<'_>) -> SolveTrace {
        let mut job = crate::solvejob::SolveJob::new(task.id, task.spec, self.config.clone());
        // Solve-lifetime unit pool: sibling candidates of this solve
        // share unchanged process units (see [`SolveUnits`]).
        let units = SolveUnits::new();
        let mut step = job.advance(crate::solvejob::StepInput::Start);
        loop {
            step = match step {
                crate::solvejob::SolveStep::NeedLlm(req) => {
                    let resp = self.model.dispatch(&req);
                    // Release the request's conversation snapshot before
                    // advancing, so the job's contexts stay uniquely
                    // owned and record() never needs a copy-on-write
                    // clone of the transcript.
                    drop(req);
                    job.advance(crate::solvejob::StepInput::Llm(resp))
                }
                crate::solvejob::SolveStep::NeedSim(req) => {
                    let outcome = execute_sim_with(&req, |src| {
                        compile_pooled(src, req.parent.as_ref(), &units).map(|(design, _)| design)
                    });
                    job.advance(crate::solvejob::StepInput::Sim(outcome))
                }
                crate::solvejob::SolveStep::Done(trace) => return *trace,
            };
        }
    }

    /// Run the workflow on one task as one blocking loop.
    ///
    /// This is the pre-state-machine implementation, kept verbatim as
    /// the differential oracle for [`Mage::solve`]: every refactor of
    /// the resumable engine must keep `solve` bit-identical to this.
    pub fn solve_blocking(&mut self, task: &Task<'_>) -> SolveTrace {
        let mut ctx = Contexts::new(self.config.system, self.config.context_budget);
        let mut usage = TokenUsage::default();
        let mut trace = SolveTrace {
            problem_id: task.id.to_string(),
            final_source: String::new(),
            final_score: 0.0,
            initial_score: None,
            solved_pre_sampling: false,
            sampled_scores: Vec::new(),
            best_sampled_score: None,
            selected_mean_pre_debug: None,
            round_mean_scores: Vec::new(),
            tb_regens: 0,
            syntax_failures: 0,
            usage,
            peak_context_tokens: 0,
            outcome: JobOutcome::Completed,
        };

        // --- Vanilla baseline: one pass, nothing else. ---
        if self.config.system == SystemKind::Vanilla {
            let req = RtlGenRequest {
                problem_id: task.id,
                spec_text: task.spec,
                testbench_digest: None,
                params: self.config.sampling,
                conversation: ctx.conv(AgentRole::Rtl),
            };
            let prompt = req.render_prompt();
            let out = self.model.generate_rtl(&req);
            usage += out.usage;
            ctx.record(AgentRole::Rtl, TaskKind::GenerateRtl, &prompt, &out.value);
            trace.final_source = out.value;
            trace.usage = usage;
            trace.peak_context_tokens = ctx.peak_tokens;
            return trace;
        }

        // --- Step 1: optimized testbench. ---
        let mut tb = Arc::new(self.generate_testbench(task, 0, &mut ctx, &mut usage));
        let mut digest = bench_digest(&tb);

        // --- Step 2: initial candidate (with syntax repair). ---
        // Solve-lifetime unit pool: sibling candidates of this solve
        // share unchanged process units (see [`SolveUnits`]).
        let units = SolveUnits::new();
        let mut score_cache: HashMap<u64, Candidate> = HashMap::new();
        let initial = self.generate_candidate(
            task,
            Some(&digest),
            &mut ctx,
            &mut usage,
            &mut trace,
            &units,
        );
        let initial = self.score_candidate(initial, &tb, &mut score_cache, &units);
        trace.initial_score = initial.design.is_some().then_some(initial.score);

        let mut best = initial.clone();
        if best.score >= 1.0 {
            trace.solved_pre_sampling = true;
            return self.finish(trace, best, usage, ctx.peak_tokens);
        }

        // --- Step 3: judge the bench; regenerate when deemed faulty. ---
        for regen in 0..self.config.tb_regen_limit {
            let evidence = best
                .report
                .as_ref()
                .map(render_summary)
                .unwrap_or_else(|| "candidate failed to compile".to_string());
            let req = JudgeTbRequest {
                problem_id: task.id,
                spec_text: task.spec,
                testbench: &tb,
                evidence: &evidence,
                params: self.config.sampling,
                conversation: ctx.conv(AgentRole::Judge),
            };
            let prompt = req.render_prompt();
            let verdict = self.model.judge_testbench(&req);
            usage += verdict.usage;
            ctx.record(
                AgentRole::Judge,
                TaskKind::Judge,
                &prompt,
                if verdict.value {
                    "CORRECT"
                } else {
                    "INCORRECT"
                },
            );
            if verdict.value {
                break;
            }
            trace.tb_regens += 1;
            tb = Arc::new(self.generate_testbench(task, regen + 1, &mut ctx, &mut usage));
            digest = bench_digest(&tb);
            score_cache.clear();
            best = self.score_candidate(strip_scoring(best), &tb, &mut score_cache, &units);
            if best.score >= 1.0 {
                trace.solved_pre_sampling = true;
                trace.initial_score = Some(best.score);
                return self.finish(trace, best, usage, ctx.peak_tokens);
            }
        }

        // --- Step 4: sampling & ranking. ---
        let mut pool: Vec<Candidate> = vec![best.clone()];
        for _ in 0..self.config.candidates {
            let cand = self.generate_candidate(
                task,
                Some(&digest),
                &mut ctx,
                &mut usage,
                &mut trace,
                &units,
            );
            let cand = self.score_candidate(cand, &tb, &mut score_cache, &units);
            trace.sampled_scores.push(cand.score);
            pool.push(cand);
        }
        pool.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        trace.best_sampled_score = pool.first().map(|c| c.score);
        // Deduplicate textually identical candidates so the debug stage
        // works K *distinct* chains (duplicates add nothing under Eq. 4).
        let mut selected: Vec<Candidate> = Vec::new();
        for c in pool {
            if !selected.iter().any(|s| s.source == c.source) {
                selected.push(c);
            }
            if selected.len() == self.config.top_k {
                break;
            }
        }

        if selected.first().map(|c| c.score >= 1.0).unwrap_or(false) {
            let best = selected.swap_remove(0);
            return self.finish(trace, best, usage, ctx.peak_tokens);
        }

        // --- Step 5: debugging with state checkpoints (Eq. 4). ---
        trace.selected_mean_pre_debug =
            Some(selected.iter().map(|c| c.score).sum::<f64>() / selected.len().max(1) as f64);
        for _round in 0..self.config.max_debug_rounds {
            for cand in &mut selected {
                if cand.score >= 1.0 {
                    continue;
                }
                let Some(report) = cand.report.clone() else {
                    continue;
                };
                // MAGE and the single-agent ablation use the checkpoint
                // window; the AIVRIL-style baseline only has pass rates.
                let feedback = match self.config.system {
                    SystemKind::TwoAgent => render_summary(&report),
                    _ => render_checkpoint_window(&report, self.config.window_lw),
                };
                let req = DebugRequest {
                    problem_id: task.id,
                    candidate_source: &cand.source,
                    feedback_text: &feedback,
                    params: self.config.sampling,
                    conversation: ctx.conv(AgentRole::Debug),
                };
                let prompt = req.render_prompt();
                let out = self.model.debug_rtl(&req);
                usage += out.usage;
                ctx.record(AgentRole::Debug, TaskKind::DebugRtl, &prompt, &out.value);
                let trial = self.score_candidate(
                    Candidate {
                        source: out.value,
                        design: None,
                        score: 0.0,
                        report: None,
                    },
                    &tb,
                    &mut score_cache,
                    &units,
                );
                // Accept-or-rollback (Eq. 4): keep the better of the two.
                if trial.score > cand.score {
                    *cand = trial;
                }
            }
            selected.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));
            let mean = selected.iter().map(|c| c.score).sum::<f64>() / selected.len().max(1) as f64;
            trace.round_mean_scores.push(mean);
            if selected.first().map(|c| c.score >= 1.0).unwrap_or(false) {
                break;
            }
        }

        let best = selected.into_iter().next().unwrap_or(best);
        self.finish(trace, best, usage, ctx.peak_tokens)
    }

    fn finish(
        &self,
        mut trace: SolveTrace,
        best: Candidate,
        usage: TokenUsage,
        peak: usize,
    ) -> SolveTrace {
        trace.final_source = best.source;
        trace.final_score = best.score;
        trace.usage = usage;
        trace.peak_context_tokens = peak;
        trace
    }

    // ------------------------------------------------------------------
    // Agent sub-flows
    // ------------------------------------------------------------------

    fn generate_testbench(
        &mut self,
        task: &Task<'_>,
        retry: usize,
        ctx: &mut Contexts,
        usage: &mut TokenUsage,
    ) -> Testbench {
        let req = TbGenRequest {
            problem_id: task.id,
            spec_text: task.spec,
            retry,
            params: self.config.sampling,
            conversation: ctx.conv(AgentRole::Testbench),
        };
        let prompt = req.render_prompt();
        let out: ModelOutput<Testbench> = self.model.generate_testbench(&req);
        *usage += out.usage;
        let reply = bench_digest(&out.value);
        ctx.record(
            AgentRole::Testbench,
            TaskKind::GenerateTestbench,
            &prompt,
            &reply,
        );
        out.value
    }

    /// Generate one candidate with the `s = 5` syntax-repair loop.
    fn generate_candidate(
        &mut self,
        task: &Task<'_>,
        digest: Option<&str>,
        ctx: &mut Contexts,
        usage: &mut TokenUsage,
        trace: &mut SolveTrace,
        units: &SolveUnits,
    ) -> Candidate {
        let req = RtlGenRequest {
            problem_id: task.id,
            spec_text: task.spec,
            testbench_digest: digest,
            params: self.config.sampling,
            conversation: ctx.conv(AgentRole::Rtl),
        };
        let prompt = req.render_prompt();
        let out = self.model.generate_rtl(&req);
        *usage += out.usage;
        ctx.record(AgentRole::Rtl, TaskKind::GenerateRtl, &prompt, &out.value);
        let mut source = out.value;

        for _attempt in 0..self.config.syntax_retries {
            match compile_pooled(&source, None, units).map(|(d, _)| d) {
                Ok(design) => {
                    return Candidate {
                        source,
                        design: Some(design),
                        score: 0.0,
                        report: None,
                    }
                }
                Err(err) => {
                    let req = SyntaxFixRequest {
                        problem_id: task.id,
                        candidate_source: &source,
                        error_text: &err,
                        params: self.config.sampling,
                        conversation: ctx.conv(AgentRole::Rtl),
                    };
                    let prompt = req.render_prompt();
                    let fixed = self.model.fix_syntax(&req);
                    *usage += fixed.usage;
                    ctx.record(AgentRole::Rtl, TaskKind::FixSyntax, &prompt, &fixed.value);
                    source = fixed.value;
                }
            }
        }
        match compile_pooled(&source, None, units).map(|(d, _)| d) {
            Ok(design) => Candidate {
                source,
                design: Some(design),
                score: 0.0,
                report: None,
            },
            Err(_) => {
                trace.syntax_failures += 1;
                Candidate {
                    source,
                    design: None,
                    score: 0.0,
                    report: None,
                }
            }
        }
    }

    /// Judge-agent tooling: simulate and score a candidate (Eq. 2).
    fn score_candidate(
        &self,
        cand: Candidate,
        tb: &Arc<Testbench>,
        cache: &mut HashMap<u64, Candidate>,
        units: &SolveUnits,
    ) -> Candidate {
        let key = mage_logic::fnv1a(cand.source.as_bytes());
        // The hash only picks the slot: a colliding source scores fresh.
        if let Some(hit) = cache.get(&key).filter(|hit| hit.source == cand.source) {
            return hit.clone();
        }
        let req = SimRequest {
            source: cand.source,
            design: cand.design,
            bench: Some(Arc::clone(tb)),
            parent: None,
        };
        let outcome = execute_sim_with(&req, |src| {
            compile_pooled(src, None, units).map(|(design, _)| design)
        });
        let scored = Candidate {
            source: req.source,
            design: outcome.design.ok(),
            score: outcome.score,
            report: outcome.report,
        };
        cache.insert(key, scored.clone());
        scored
    }
}

/// Compile a source from scratch: parse and elaborate, with the module
/// named `top_module` (or the last module) as top; the error string is
/// the parse or elaboration diagnostic. The reference build for grading
/// and tests — candidates compile through [`compile_pooled`], which
/// returns the same design.
pub fn compile(source: &str) -> Result<Arc<Design>, String> {
    let (file, top) = parse_top(source)?;
    elaborate(&file, &top)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Compile a candidate by delta elaboration: every process unit is
/// probed first in `parent` (the design the candidate was derived from —
/// a debug trial names the candidate it rewrote), then in `units` (the
/// unit tier every sibling compile publishes to), and only the misses
/// are elaborated and lowered; fresh units publish back to `units`.
/// Every hit is verified against the unit's canonical text and binding
/// environment, so the design is store-exact against [`compile`] —
/// reuse changes how much is rebuilt, never the result. Returns the
/// per-unit reuse counters alongside the design.
pub fn compile_pooled(
    source: &str,
    parent: Option<&Arc<Design>>,
    units: &SolveUnits,
) -> Result<(Arc<Design>, DeltaStats), String> {
    let (file, top) = parse_top(source)?;
    let built = match parent {
        Some(parent) => {
            let parent = DesignUnits::new(Arc::clone(parent));
            elaborate_with(&file, &top, &ChainedUnits::new(vec![&parent, units]))
        }
        None => elaborate_with(&file, &top, units),
    };
    built
        .map(|(design, stats)| (Arc::new(design), stats))
        .map_err(|e| e.to_string())
}

fn parse_top(source: &str) -> Result<(mage_verilog::SourceFile, String), String> {
    let file = parse(source).map_err(|e| e.to_string())?;
    let top = file
        .module("top_module")
        .map(|m| m.name.clone())
        .or_else(|| file.modules.last().map(|m| m.name.clone()))
        .ok_or_else(|| "no module found".to_string())?;
    Ok((file, top))
}

pub(crate) fn bench_digest(tb: &Testbench) -> String {
    format!(
        "optimized testbench `{}`: {} steps, {} state checkpoints{}",
        tb.name,
        tb.len(),
        tb.total_checks(),
        match tb.clock() {
            None => ", combinational".to_string(),
            Some(c) => format!(", clocked by `{c}`"),
        }
    )
}

pub(crate) fn strip_scoring(c: Candidate) -> Candidate {
    Candidate {
        score: 0.0,
        report: None,
        ..c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_llm::{ProblemOracle, SyntheticModel, SyntheticModelConfig};
    use mage_tb::Stimulus;

    fn fixture_model(difficulty: f64, seed: u64) -> SyntheticModel {
        let golden = parse(
            "module top_module(input [3:0] a, input [3:0] b, output [3:0] y);
               assign y = a & b;
             endmodule",
        )
        .unwrap();
        let stim = Stimulus::exhaustive(&[("a".into(), 4), ("b".into(), 4)]);
        let mut m = SyntheticModel::new(SyntheticModelConfig::default(), seed);
        m.register(
            "and4",
            ProblemOracle::new(golden, "top_module", stim, difficulty),
        );
        m
    }

    #[test]
    fn easy_problem_solves_pre_sampling() {
        let mut model = fixture_model(0.0, 3);
        let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
        let trace = engine.solve(&Task {
            id: "and4",
            spec: "4-bit AND",
        });
        assert_eq!(trace.final_score, 1.0);
        assert!(trace.solved_pre_sampling);
        assert!(trace.usage.total() > 0);
    }

    #[test]
    fn hard_problem_reaches_sampling_and_debugging() {
        let mut sampled_runs = 0usize;
        for seed in 0..8u64 {
            let mut model = fixture_model(3.5, seed);
            let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
            let trace = engine.solve(&Task {
                id: "and4",
                spec: "4-bit AND",
            });
            if trace.solved_pre_sampling {
                continue;
            }
            sampled_runs += 1;
            // Step 4 produced scored candidates.
            assert!(!trace.sampled_scores.is_empty());
            // Debugging rounds were recorded unless sampling hit 1.0.
            assert!(!trace.round_mean_scores.is_empty() || trace.best_sampled_score == Some(1.0));
            // The engine's answer is at least as good as the best sample.
            if let Some(bs) = trace.best_sampled_score {
                assert!(trace.final_score >= bs - 1e-9);
            }
        }
        assert!(
            sampled_runs >= 3,
            "difficulty 3.5 should reach Step 4 in most runs ({sampled_runs}/8)"
        );
    }

    #[test]
    fn vanilla_makes_exactly_one_generation() {
        let mut model = fixture_model(1.0, 5);
        let cfg = MageConfig::low_temperature().with_system(SystemKind::Vanilla);
        let mut engine = Mage::new(&mut model, cfg);
        let trace = engine.solve(&Task {
            id: "and4",
            spec: "4-bit AND",
        });
        assert!(trace.sampled_scores.is_empty());
        assert!(trace.round_mean_scores.is_empty());
        assert_eq!(trace.tb_regens, 0);
        assert!(!trace.final_source.is_empty());
    }

    #[test]
    fn debug_rounds_never_regress() {
        let mut model = fixture_model(2.5, 21);
        let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
        let trace = engine.solve(&Task {
            id: "and4",
            spec: "4-bit AND",
        });
        // Eq. 4 acceptance: mean score per round is non-decreasing.
        for w in trace.round_mean_scores.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "round means regressed: {:?}",
                trace.round_mean_scores
            );
        }
    }

    #[test]
    fn compile_reports_errors() {
        assert!(compile("module m(input a, output y assign y = a; endmodule").is_err());
        assert!(compile("module top_module(input a, output y); assign y = a; endmodule").is_ok());
    }

    #[test]
    fn contexts_follow_protocol() {
        let mage = Contexts::new(SystemKind::Mage, None);
        assert_eq!(mage.convs.len(), 4);
        let single = Contexts::new(SystemKind::SingleAgent, None);
        assert_eq!(single.convs.len(), 1);
        let two = Contexts::new(SystemKind::TwoAgent, None);
        assert_eq!(two.index(AgentRole::Rtl), two.index(AgentRole::Testbench));
        assert_eq!(two.index(AgentRole::Judge), two.index(AgentRole::Debug));
        assert_ne!(two.index(AgentRole::Rtl), two.index(AgentRole::Debug));
    }
}
