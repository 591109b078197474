//! The resumable solve: MAGE's five-step workflow as an explicit state
//! machine.
//!
//! [`Mage::solve`](crate::Mage::solve) runs the workflow as one blocking
//! call — fine for a single evaluation, useless for a server that wants
//! to run hundreds of solves concurrently, coalesce their model calls
//! into batched dispatches, and share simulation work between them. This
//! module inverts the control flow: a [`SolveJob`] owns all per-solve
//! state (conversations, candidate pool, score cache, the partial
//! trace) and exposes one method, [`SolveJob::advance`], which consumes
//! the answer to the previous request and yields the next one:
//!
//! ```text
//!   advance(Start)            -> NeedLlm(request)
//!   advance(Llm(response))    -> NeedSim(candidate)   | NeedLlm(..) | Done(trace)
//!   advance(Sim(outcome))     -> NeedLlm(request)     | NeedSim(..) | Done(trace)
//! ```
//!
//! The driver — [`Mage::solve`](crate::Mage::solve) inline, or the
//! `mage-serve` scheduler across many jobs — owns *when and where* each
//! need is satisfied: LLM requests can be queued and batched
//! ([`mage_llm::RtlLanguageModel::generate_batch`]), simulation requests
//! can run on a thread pool against a shared elaboration cache, and the
//! job itself is a plain value: suspend it by simply holding it,
//! checkpoint it by moving it, resume it by calling `advance` again.
//!
//! Fidelity contract: driven single-threaded with scalar model calls,
//! the state machine reproduces the blocking loop **bit for bit** — the
//! same model-call sequence, the same prompts, the same trace. The
//! differential suite (`tests/solvejob_differential.rs`) enforces this
//! against [`Mage::solve_blocking`](crate::Mage::solve_blocking) for
//! every [`SystemKind`].

use crate::config::{MageConfig, SystemKind};
use crate::engine::{
    bench_digest, strip_scoring, AgentRole, Candidate, Contexts, JobOutcome, SolveTrace,
};
use mage_llm::{
    DebugCall, JudgeTbCall, LlmRequest, LlmResponse, RtlGenCall, SyntaxFixCall, TaskKind,
    TbGenCall, TokenUsage,
};
use mage_sim::Design;
use mage_tb::textlog::{render_checkpoint_window, render_summary};
use mage_tb::{run_testbench, TbReport, Testbench};
use std::collections::HashMap;
use std::sync::Arc;

/// What a [`SolveJob`] needs next.
#[derive(Debug)]
pub enum SolveStep {
    /// Resolve this model request (scalar `dispatch` or as part of a
    /// `generate_batch`) and feed the response back as
    /// [`StepInput::Llm`].
    NeedLlm(LlmRequest),
    /// Execute this simulation work ([`execute_sim_with`], optionally
    /// behind shared caches) and feed the outcome back as
    /// [`StepInput::Sim`].
    NeedSim(SimRequest),
    /// The solve is complete; no further input is accepted.
    Done(Box<SolveTrace>),
}

/// A not-yet-dispatched external effect, parked per job by an
/// overlapped scheduler.
///
/// The BSP round engine resolves every [`SolveStep`] within the round
/// that produced it, so a request never outlives its round. A wave
/// scheduler instead *parks* the request — in an LLM queue waiting for
/// the next dispatch point, or in a sim queue waiting for the worker
/// pool — while other jobs advance. This envelope is that parked state:
/// it owns the request, so the job can be checkpointed mid-queue and
/// the request re-enqueued on restore, and the response (arriving out
/// of round) still routes to the right job by its queue tag.
#[derive(Debug, Clone)]
pub enum PendingWork {
    /// An LLM request awaiting the next dispatch point.
    Llm(LlmRequest),
    /// A simulation request awaiting a worker-pool wave.
    Sim(SimRequest),
}

impl SolveStep {
    /// Convert a yielded step into its parked form, or the finished
    /// trace. The overlapped scheduler calls this right after
    /// [`SolveJob::advance`]: a request goes into a wave queue, a
    /// terminal trace retires the job.
    pub fn into_pending(self) -> Result<PendingWork, Box<SolveTrace>> {
        match self {
            SolveStep::NeedLlm(req) => Ok(PendingWork::Llm(req)),
            SolveStep::NeedSim(req) => Ok(PendingWork::Sim(req)),
            SolveStep::Done(trace) => Err(trace),
        }
    }
}

/// The resolved answer to the previously yielded [`SolveStep`].
#[derive(Debug, Clone)]
pub enum StepInput {
    /// Kick off a fresh job (only valid as the first input).
    Start,
    /// Answer to a [`SolveStep::NeedLlm`].
    Llm(LlmResponse),
    /// Answer to a [`SolveStep::NeedSim`].
    Sim(SimOutcome),
}

/// Simulation work requested by a job: compile `source` and, when
/// `bench` is present, score it (Eq. 2). Fully owned, so it can cross
/// thread boundaries to a worker pool.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Candidate Verilog source.
    pub source: String,
    /// Already-elaborated design, when the job has one (skips the
    /// compile).
    pub design: Option<Arc<Design>>,
    /// Bench to score against; `None` requests a compile only (the
    /// syntax-repair loop's probe).
    pub bench: Option<Arc<Testbench>>,
    /// Parent-design hint for delta compilation: the design this source
    /// was derived from (a debug trial names the candidate it rewrote).
    /// Executors reuse the parent's unchanged compilation units verbatim
    /// ([`crate::compile_pooled`]); the hint never changes the result,
    /// only how much of it is rebuilt.
    pub parent: Option<Arc<Design>>,
}

/// The executor's answer to a [`SimRequest`].
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Compile result: the elaborated design, or the diagnostic fed to
    /// the syntax-repair loop.
    pub design: Result<Arc<Design>, String>,
    /// The report behind the score, when the bench ran.
    pub report: Option<TbReport>,
    /// Eq. 2 score (0.0 when the compile or the simulation failed).
    pub score: f64,
}

/// Execute one simulation request, compiling through `compile_fn`:
/// [`crate::compile_pooled`] over the solve's unit tier in
/// [`crate::Mage::solve`], the shared `DesignCache` in `mage-serve`.
/// `compile_fn` must return exactly what [`crate::compile`] would (a
/// cache of a pure function qualifies); the job's determinism rests on
/// it.
pub fn execute_sim_with(
    req: &SimRequest,
    compile_fn: impl FnOnce(&str) -> Result<Arc<Design>, String>,
) -> SimOutcome {
    let design = match &req.design {
        Some(d) => Ok(Arc::clone(d)),
        None => compile_fn(&req.source),
    };
    let (report, score) = match (&design, &req.bench) {
        (Ok(d), Some(bench)) => match run_testbench(bench, d) {
            Ok(rep) => {
                let s = rep.score();
                (Some(rep), s)
            }
            Err(_) => (None, 0.0),
        },
        _ => (None, 0.0),
    };
    SimOutcome {
        design,
        report,
        score,
    }
}

/// Why a candidate is being generated (what to do once it is scored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenPurpose {
    /// The Step 2 initial candidate.
    Initial,
    /// One Step 4 high-temperature sample.
    Sample,
}

/// What to do with a freshly scored candidate.
#[derive(Debug, Clone, Copy)]
enum ScoreTarget {
    /// Step 2: record the initial score, then judge or finish.
    Initial,
    /// Step 3: the best candidate re-scored against a regenerated bench.
    Rescore {
        /// The retry index of the regenerated bench.
        regen: usize,
    },
    /// Step 4: one sampled candidate joining the pool.
    Sample,
    /// Step 5: a debug trial for `selected[ix]` in `round`.
    Trial { round: usize, ix: usize },
}

/// The control-flow position of a job between `advance` calls.
#[derive(Debug)]
enum Phase {
    /// Created, not yet started.
    Start,
    /// Vanilla baseline: awaiting its single generation.
    VanillaRtl,
    /// Awaiting a testbench (`regen` = retry index).
    TbGen { regen: usize },
    /// Awaiting candidate RTL.
    GenRtl { purpose: GenPurpose },
    /// Awaiting the compile probe of the current source (`fixes` syntax
    /// repairs applied so far).
    GenCompile { purpose: GenPurpose, fixes: usize },
    /// Awaiting a syntax repair.
    GenFix { purpose: GenPurpose, fixes: usize },
    /// Awaiting the judge's verdict on the current bench.
    Judge { regen: usize },
    /// Awaiting the score of `cand`.
    Score {
        target: ScoreTarget,
        cand: Candidate,
    },
    /// Awaiting a debug rewrite of `selected[ix]`.
    DebugLlm { round: usize, ix: usize },
    /// Terminal.
    Finished,
}

/// One MAGE solve as a resumable value. See the module docs for the
/// protocol; see [`crate::Mage::solve`] for the minimal driver.
#[derive(Debug)]
pub struct SolveJob {
    config: MageConfig,
    problem_id: String,
    spec: String,
    ctx: Contexts,
    usage: TokenUsage,
    trace: SolveTrace,
    /// The current optimized bench (shared with emitted requests).
    tb: Option<Arc<Testbench>>,
    /// Digest of the current bench (Step 2 grounding).
    digest: Option<String>,
    /// Per-solve score cache keyed by source hash (a hit must match the
    /// source); cleared on bench regeneration, exactly like the blocking
    /// loop's.
    score_cache: HashMap<u64, Candidate>,
    /// Best candidate so far (Step 2/3).
    best: Option<Candidate>,
    /// Step 4 sampling pool.
    pool: Vec<Candidate>,
    /// Step 5 selected set.
    selected: Vec<Candidate>,
    /// Source under generation/repair.
    gen_source: String,
    /// Prompt of the outstanding LLM request (recorded with its reply).
    pending_prompt: String,
    /// Count of `advance` calls accepted so far — the job's position on
    /// its own timeline. Pure bookkeeping for schedulers (a cluster
    /// rebalancer prefers migrating the job with the most work left);
    /// never read by the state machine itself.
    advances: u64,
    phase: Phase,
}

impl SolveJob {
    /// Create a job for one task. Feed [`StepInput::Start`] to begin.
    pub fn new(problem_id: &str, spec: &str, config: MageConfig) -> Self {
        let ctx = Contexts::new(config.system, config.context_budget);
        let trace = SolveTrace {
            problem_id: problem_id.to_string(),
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
            usage: TokenUsage::default(),
            peak_context_tokens: 0,
            outcome: JobOutcome::Completed,
        };
        SolveJob {
            config,
            problem_id: problem_id.to_string(),
            spec: spec.to_string(),
            ctx,
            usage: TokenUsage::default(),
            trace,
            tb: None,
            digest: None,
            score_cache: HashMap::new(),
            best: None,
            pool: Vec::new(),
            selected: Vec::new(),
            gen_source: String::new(),
            pending_prompt: String::new(),
            advances: 0,
            phase: Phase::Start,
        }
    }

    /// The problem this job solves.
    pub fn problem_id(&self) -> &str {
        &self.problem_id
    }

    /// The job's engine configuration.
    pub fn config(&self) -> &MageConfig {
        &self.config
    }

    /// `true` once [`SolveStep::Done`] has been yielded.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    /// How many [`advance`](Self::advance) calls this job has accepted.
    /// Deterministic at any scheduler boundary — the count depends only
    /// on the job's own input stream, never on placement or timing —
    /// so a cluster can use it to pick migration victims without
    /// perturbing traces.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// A stable label for the job's current control-flow position
    /// (report freight; the `Phase` enum itself stays private).
    pub fn phase_name(&self) -> &'static str {
        match &self.phase {
            Phase::Start => "start",
            Phase::VanillaRtl => "vanilla-rtl",
            Phase::TbGen { .. } => "tb-gen",
            Phase::GenRtl { .. } => "gen-rtl",
            Phase::GenCompile { .. } => "gen-compile",
            Phase::GenFix { .. } => "gen-fix",
            Phase::Judge { .. } => "judge",
            Phase::Score { .. } => "score",
            Phase::DebugLlm { .. } => "debug-llm",
            Phase::Finished => "finished",
        }
    }

    /// Terminate the solve early with [`JobOutcome::Failed`], from any
    /// non-finished phase. The fault-tolerant dispatch layer calls this
    /// when a job's retry budget, deadline, or backend pool is
    /// exhausted: the job finishes *as a value* — the partial trace is
    /// closed out with the best candidate seen so far (possibly none)
    /// and the structured `reason` — so the scheduler retires it like
    /// any completed job instead of panicking or hanging.
    ///
    /// Any outstanding request is abandoned; the job accepts no further
    /// input afterwards.
    ///
    /// # Panics
    ///
    /// Panics when the job already finished (a driver bug: a finished
    /// job cannot fail).
    pub fn fail(&mut self, reason: impl Into<String>) -> Box<SolveTrace> {
        assert!(
            !self.is_finished(),
            "SolveJob::fail on `{}`: job already finished",
            self.problem_id
        );
        self.phase = Phase::Finished;
        // Close the trace out with the best evidence gathered so far,
        // mirroring `finish` — a failed job still reports its partial
        // progress (initial score, sampled scores, usage...).
        let best = self.selected.first().cloned().or_else(|| self.best.clone());
        if let Some(best) = best {
            self.trace.final_source = best.source;
            self.trace.final_score = best.score;
        }
        self.trace.usage = self.usage;
        self.trace.peak_context_tokens = self.ctx.peak_tokens;
        self.trace.outcome = JobOutcome::Failed {
            reason: reason.into(),
        };
        Box::new(self.trace.clone())
    }

    /// The (partial until finished) trace.
    pub fn trace(&self) -> &SolveTrace {
        &self.trace
    }

    /// Feed the answer to the previously yielded step and obtain the
    /// next one. The first call must pass [`StepInput::Start`].
    ///
    /// # Panics
    ///
    /// Panics when `input` does not answer the outstanding step (a
    /// driver bug): e.g. a `Sim` outcome while an LLM request is
    /// pending, `Start` on a running job, or any input after `Done`.
    pub fn advance(&mut self, input: StepInput) -> SolveStep {
        self.advances += 1;
        let phase = std::mem::replace(&mut self.phase, Phase::Finished);
        match (phase, input) {
            (Phase::Start, StepInput::Start) => self.start(),

            (Phase::VanillaRtl, StepInput::Llm(resp)) => {
                let out = resp.into_rtl();
                self.usage += out.usage;
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx
                    .record(AgentRole::Rtl, TaskKind::GenerateRtl, &prompt, &out.value);
                self.trace.final_source = out.value;
                self.trace.usage = self.usage;
                self.trace.peak_context_tokens = self.ctx.peak_tokens;
                self.done()
            }

            (Phase::TbGen { regen }, StepInput::Llm(resp)) => {
                let out = resp.into_tb();
                self.usage += out.usage;
                let digest = bench_digest(&out.value);
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx.record(
                    AgentRole::Testbench,
                    TaskKind::GenerateTestbench,
                    &prompt,
                    &digest,
                );
                self.tb = Some(Arc::new(out.value));
                self.digest = Some(digest);
                if regen == 0 {
                    self.begin_gen(GenPurpose::Initial)
                } else {
                    // Step 3 regenerated the bench: old scores are void.
                    self.score_cache.clear();
                    let cand =
                        strip_scoring(self.best.clone().expect("best exists before a regen"));
                    self.begin_score(cand, ScoreTarget::Rescore { regen })
                }
            }

            (Phase::GenRtl { purpose }, StepInput::Llm(resp)) => {
                let out = resp.into_rtl();
                self.usage += out.usage;
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx
                    .record(AgentRole::Rtl, TaskKind::GenerateRtl, &prompt, &out.value);
                self.gen_source = out.value;
                self.emit_compile_probe(purpose, 0)
            }

            (Phase::GenCompile { purpose, fixes }, StepInput::Sim(outcome)) => {
                match outcome.design {
                    Ok(design) => {
                        let cand = Candidate {
                            source: self.gen_source.clone(),
                            design: Some(design),
                            score: 0.0,
                            report: None,
                        };
                        self.begin_score(cand, Self::gen_target(purpose))
                    }
                    Err(err) if fixes < self.config.syntax_retries => {
                        let req = LlmRequest::FixSyntax(SyntaxFixCall {
                            problem_id: self.problem_id.clone(),
                            candidate_source: self.gen_source.clone(),
                            error_text: err,
                            params: self.config.sampling,
                            conversation: self.ctx.conv_arc(AgentRole::Rtl),
                        });
                        self.phase = Phase::GenFix { purpose, fixes };
                        self.emit_llm(req)
                    }
                    Err(_) => {
                        // The final compile after `s` repairs still fails:
                        // carry the broken source forward unscored.
                        self.trace.syntax_failures += 1;
                        let cand = Candidate {
                            source: self.gen_source.clone(),
                            design: None,
                            score: 0.0,
                            report: None,
                        };
                        self.begin_score(cand, Self::gen_target(purpose))
                    }
                }
            }

            (Phase::GenFix { purpose, fixes }, StepInput::Llm(resp)) => {
                let out = resp.into_syntax();
                self.usage += out.usage;
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx
                    .record(AgentRole::Rtl, TaskKind::FixSyntax, &prompt, &out.value);
                self.gen_source = out.value;
                self.emit_compile_probe(purpose, fixes + 1)
            }

            (Phase::Judge { regen }, StepInput::Llm(resp)) => {
                let verdict = resp.into_judge();
                self.usage += verdict.usage;
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx.record(
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
                    self.begin_sampling()
                } else {
                    self.trace.tb_regens += 1;
                    let req = self.tb_req(regen + 1);
                    self.phase = Phase::TbGen { regen: regen + 1 };
                    self.emit_llm(req)
                }
            }

            (Phase::Score { target, cand }, StepInput::Sim(outcome)) => {
                let scored = Candidate {
                    source: cand.source,
                    design: outcome.design.ok(),
                    score: outcome.score,
                    report: outcome.report,
                };
                self.score_cache
                    .insert(mage_logic::fnv1a(scored.source.as_bytes()), scored.clone());
                self.after_score(scored, target)
            }

            (Phase::DebugLlm { round, ix }, StepInput::Llm(resp)) => {
                let out = resp.into_debug();
                self.usage += out.usage;
                let prompt = std::mem::take(&mut self.pending_prompt);
                self.ctx
                    .record(AgentRole::Debug, TaskKind::DebugRtl, &prompt, &out.value);
                let cand = Candidate {
                    source: out.value,
                    design: None,
                    score: 0.0,
                    report: None,
                };
                self.begin_score(cand, ScoreTarget::Trial { round, ix })
            }

            (phase, input) => panic!(
                "SolveJob protocol violation on `{}`: phase {phase:?} cannot accept {input:?}",
                self.problem_id
            ),
        }
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    fn start(&mut self) -> SolveStep {
        if self.config.system == SystemKind::Vanilla {
            let req = self.rtl_req();
            self.phase = Phase::VanillaRtl;
            return self.emit_llm(req);
        }
        let req = self.tb_req(0);
        self.phase = Phase::TbGen { regen: 0 };
        self.emit_llm(req)
    }

    /// Step 2 / Step 4 entry: request one candidate generation.
    fn begin_gen(&mut self, purpose: GenPurpose) -> SolveStep {
        let req = self.rtl_req();
        self.phase = Phase::GenRtl { purpose };
        self.emit_llm(req)
    }

    /// Probe the current source with a compile-only sim request.
    fn emit_compile_probe(&mut self, purpose: GenPurpose, fixes: usize) -> SolveStep {
        let req = SimRequest {
            source: self.gen_source.clone(),
            design: None,
            bench: None,
            parent: None,
        };
        self.phase = Phase::GenCompile { purpose, fixes };
        SolveStep::NeedSim(req)
    }

    fn gen_target(purpose: GenPurpose) -> ScoreTarget {
        match purpose {
            GenPurpose::Initial => ScoreTarget::Initial,
            GenPurpose::Sample => ScoreTarget::Sample,
        }
    }

    /// Score a candidate (through the per-solve cache) and continue at
    /// `target` once the score is known.
    fn begin_score(&mut self, cand: Candidate, target: ScoreTarget) -> SolveStep {
        let key = mage_logic::fnv1a(cand.source.as_bytes());
        // The hash only picks the slot: a colliding source scores fresh.
        if let Some(hit) = self
            .score_cache
            .get(&key)
            .filter(|hit| hit.source == cand.source)
        {
            let scored = hit.clone();
            return self.after_score(scored, target);
        }
        // A debug trial rewrites `selected[ix]`: that candidate's design
        // is the delta-compilation parent — everything the rewrite left
        // alone compiles by unit reuse.
        let parent = match target {
            ScoreTarget::Trial { ix, .. } => self.selected.get(ix).and_then(|c| c.design.clone()),
            _ => None,
        };
        let req = SimRequest {
            source: cand.source.clone(),
            design: cand.design.clone(),
            bench: Some(Arc::clone(
                self.tb.as_ref().expect("bench exists when scoring"),
            )),
            parent,
        };
        self.phase = Phase::Score { target, cand };
        SolveStep::NeedSim(req)
    }

    fn after_score(&mut self, scored: Candidate, target: ScoreTarget) -> SolveStep {
        match target {
            ScoreTarget::Initial => {
                self.trace.initial_score = scored.design.is_some().then_some(scored.score);
                let solved = scored.score >= 1.0;
                self.best = Some(scored);
                if solved {
                    self.trace.solved_pre_sampling = true;
                    let best = self.best.clone().expect("just set");
                    self.finish(best)
                } else {
                    self.begin_judge(0)
                }
            }
            ScoreTarget::Rescore { regen } => {
                let solved = scored.score >= 1.0;
                let score = scored.score;
                self.best = Some(scored);
                if solved {
                    self.trace.solved_pre_sampling = true;
                    self.trace.initial_score = Some(score);
                    let best = self.best.clone().expect("just set");
                    self.finish(best)
                } else {
                    self.begin_judge(regen)
                }
            }
            ScoreTarget::Sample => {
                self.trace.sampled_scores.push(scored.score);
                self.pool.push(scored);
                if self.trace.sampled_scores.len() < self.config.candidates {
                    self.begin_gen(GenPurpose::Sample)
                } else {
                    self.select_and_debug()
                }
            }
            ScoreTarget::Trial { round, ix } => {
                // Accept-or-rollback (Eq. 4): keep the better of the two.
                if scored.score > self.selected[ix].score {
                    self.selected[ix] = scored;
                }
                self.debug_next(round, ix + 1)
            }
        }
    }

    /// Step 3: ask the judge about the current bench, unless the regen
    /// budget is exhausted.
    fn begin_judge(&mut self, regen: usize) -> SolveStep {
        if regen >= self.config.tb_regen_limit {
            return self.begin_sampling();
        }
        let evidence = self
            .best
            .as_ref()
            .expect("best exists when judging")
            .report
            .as_ref()
            .map(render_summary)
            .unwrap_or_else(|| "candidate failed to compile".to_string());
        let req = LlmRequest::JudgeTb(JudgeTbCall {
            problem_id: self.problem_id.clone(),
            spec_text: self.spec.clone(),
            testbench: Arc::clone(self.tb.as_ref().expect("bench exists when judging")),
            evidence,
            params: self.config.sampling,
            conversation: self.ctx.conv_arc(AgentRole::Judge),
        });
        self.phase = Phase::Judge { regen };
        self.emit_llm(req)
    }

    /// Step 4 entry: seed the pool with the best candidate so far.
    fn begin_sampling(&mut self) -> SolveStep {
        self.pool = vec![self.best.clone().expect("best exists before sampling")];
        if self.config.candidates == 0 {
            self.select_and_debug()
        } else {
            self.begin_gen(GenPurpose::Sample)
        }
    }

    /// Step 4 ranking + dedup + Top-K selection, then into Step 5.
    fn select_and_debug(&mut self) -> SolveStep {
        let mut pool = std::mem::take(&mut self.pool);
        pool.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        self.trace.best_sampled_score = pool.first().map(|c| c.score);
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
            return self.finish(best);
        }
        self.trace.selected_mean_pre_debug =
            Some(selected.iter().map(|c| c.score).sum::<f64>() / selected.len().max(1) as f64);
        self.selected = selected;
        self.debug_next(0, 0)
    }

    /// Step 5: find the next debuggable candidate at or after
    /// `selected[ix]` in `round`, or close the round.
    fn debug_next(&mut self, round: usize, mut ix: usize) -> SolveStep {
        if round >= self.config.max_debug_rounds {
            let best = self
                .selected
                .first()
                .cloned()
                .unwrap_or_else(|| self.best.clone().expect("best exists"));
            return self.finish(best);
        }
        while ix < self.selected.len() {
            let cand = &self.selected[ix];
            if cand.score < 1.0 {
                if let Some(report) = cand.report.clone() {
                    // MAGE and the single-agent ablation use the checkpoint
                    // window; the AIVRIL-style baseline only has pass rates.
                    let feedback = match self.config.system {
                        SystemKind::TwoAgent => render_summary(&report),
                        _ => render_checkpoint_window(&report, self.config.window_lw),
                    };
                    let req = LlmRequest::DebugRtl(DebugCall {
                        problem_id: self.problem_id.clone(),
                        candidate_source: cand.source.clone(),
                        feedback_text: feedback,
                        params: self.config.sampling,
                        conversation: self.ctx.conv_arc(AgentRole::Debug),
                    });
                    self.phase = Phase::DebugLlm { round, ix };
                    return self.emit_llm(req);
                }
            }
            ix += 1;
        }
        self.end_of_round(round)
    }

    fn end_of_round(&mut self, round: usize) -> SolveStep {
        self.selected
            .sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));
        let mean =
            self.selected.iter().map(|c| c.score).sum::<f64>() / self.selected.len().max(1) as f64;
        self.trace.round_mean_scores.push(mean);
        if self
            .selected
            .first()
            .map(|c| c.score >= 1.0)
            .unwrap_or(false)
        {
            let best = self
                .selected
                .first()
                .cloned()
                .expect("non-empty: first() was Some");
            return self.finish(best);
        }
        self.debug_next(round + 1, 0)
    }

    fn finish(&mut self, best: Candidate) -> SolveStep {
        self.trace.final_source = best.source;
        self.trace.final_score = best.score;
        self.trace.usage = self.usage;
        self.trace.peak_context_tokens = self.ctx.peak_tokens;
        self.done()
    }

    fn done(&mut self) -> SolveStep {
        self.phase = Phase::Finished;
        SolveStep::Done(Box::new(self.trace.clone()))
    }

    // ------------------------------------------------------------------
    // Request builders (each snapshots the requesting agent's context)
    // ------------------------------------------------------------------

    fn emit_llm(&mut self, req: LlmRequest) -> SolveStep {
        self.pending_prompt = req.render_prompt();
        SolveStep::NeedLlm(req)
    }

    fn rtl_req(&self) -> LlmRequest {
        LlmRequest::RtlGen(RtlGenCall {
            problem_id: self.problem_id.clone(),
            spec_text: self.spec.clone(),
            testbench_digest: self.digest.clone(),
            params: self.config.sampling,
            conversation: self.ctx.conv_arc(AgentRole::Rtl),
        })
    }

    fn tb_req(&self, retry: usize) -> LlmRequest {
        LlmRequest::TbGen(TbGenCall {
            problem_id: self.problem_id.clone(),
            spec_text: self.spec.clone(),
            retry,
            params: self.config.sampling,
            conversation: self.ctx.conv_arc(AgentRole::Testbench),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::compile;
    use mage_llm::{ProblemOracle, RtlLanguageModel, SyntheticModel, SyntheticModelConfig};
    use mage_tb::Stimulus;
    use mage_verilog::parse;

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

    /// Drive a job to completion with scalar calls, counting steps.
    fn drive(job: &mut SolveJob, model: &mut SyntheticModel) -> (SolveTrace, usize, usize) {
        let (mut llm, mut sim) = (0usize, 0usize);
        let mut step = job.advance(StepInput::Start);
        loop {
            step = match step {
                SolveStep::NeedLlm(req) => {
                    llm += 1;
                    let resp = model.dispatch(&req);
                    job.advance(StepInput::Llm(resp))
                }
                SolveStep::NeedSim(req) => {
                    sim += 1;
                    job.advance(StepInput::Sim(execute_sim_with(&req, compile)))
                }
                SolveStep::Done(trace) => return (*trace, llm, sim),
            };
        }
    }

    #[test]
    fn job_runs_to_completion_and_is_reentrant_safe() {
        let mut model = fixture_model(1.5, 11);
        let mut job = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        assert!(!job.is_finished());
        let (trace, llm, sim) = drive(&mut job, &mut model);
        assert!(job.is_finished());
        assert_eq!(trace.problem_id, "and4");
        assert!(llm >= 2, "at least bench + candidate: {llm}");
        assert!(sim >= 1);
        assert_eq!(job.trace(), &trace);
    }

    #[test]
    fn job_is_suspendable_mid_solve() {
        // Advance a few steps, move the job (checkpoint), finish later:
        // the trace matches an uninterrupted solve with the same seed.
        let mut m1 = fixture_model(2.0, 5);
        let mut j1 = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        let (uninterrupted, _, _) = drive(&mut j1, &mut m1);

        let mut m2 = fixture_model(2.0, 5);
        let mut j2 = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        let mut step = j2.advance(StepInput::Start);
        for _ in 0..3 {
            step = match step {
                SolveStep::NeedLlm(req) => {
                    let resp = m2.dispatch(&req);
                    j2.advance(StepInput::Llm(resp))
                }
                SolveStep::NeedSim(req) => {
                    j2.advance(StepInput::Sim(execute_sim_with(&req, compile)))
                }
                SolveStep::Done(_) => break,
            };
        }
        // "Checkpoint": move the whole job value, then resume.
        let mut resumed: SolveJob = j2;
        let trace = loop {
            step = match step {
                SolveStep::NeedLlm(req) => {
                    let resp = m2.dispatch(&req);
                    resumed.advance(StepInput::Llm(resp))
                }
                SolveStep::NeedSim(req) => {
                    resumed.advance(StepInput::Sim(execute_sim_with(&req, compile)))
                }
                SolveStep::Done(trace) => break *trace,
            };
        };
        assert_eq!(trace, uninterrupted);
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn wrong_input_kind_panics() {
        let mut job = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        let _ = job.advance(StepInput::Sim(SimOutcome {
            design: Err("nope".into()),
            report: None,
            score: 0.0,
        }));
    }

    #[test]
    fn fail_terminates_with_partial_trace() {
        let mut model = fixture_model(2.0, 5);
        let mut job = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        let mut step = job.advance(StepInput::Start);
        for _ in 0..3 {
            step = match step {
                SolveStep::NeedLlm(req) => {
                    let resp = model.dispatch(&req);
                    job.advance(StepInput::Llm(resp))
                }
                SolveStep::NeedSim(req) => {
                    job.advance(StepInput::Sim(execute_sim_with(&req, compile)))
                }
                SolveStep::Done(_) => panic!("fixture should not finish in 3 steps"),
            };
        }
        let trace = job.fail("llm retry budget exhausted");
        assert!(job.is_finished());
        assert_eq!(
            trace.outcome,
            crate::JobOutcome::Failed {
                reason: "llm retry budget exhausted".into()
            }
        );
        // Partial evidence survives: six steps in, tokens were spent.
        assert!(trace.usage.prompt > 0);
        assert_eq!(job.trace(), trace.as_ref());
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn fail_after_finish_panics() {
        let mut model = fixture_model(0.2, 3);
        let mut job = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        let _ = drive(&mut job, &mut model);
        let _ = job.fail("too late");
    }

    #[test]
    fn compile_only_sim_request_skips_scoring() {
        let req = SimRequest {
            source: "module top_module(input a, output y); assign y = a; endmodule".into(),
            design: None,
            bench: None,
            parent: None,
        };
        let out = execute_sim_with(&req, compile);
        assert!(out.design.is_ok());
        assert!(out.report.is_none());
        assert_eq!(out.score, 0.0);
    }

    #[test]
    fn score_cache_hit_must_match_the_source() {
        let mut job = SolveJob::new("and4", "4-bit AND", MageConfig::high_temperature());
        job.tb = Some(Arc::new(Testbench {
            name: "tb".into(),
            clock: None,
            steps: Vec::new(),
        }));
        let probed = "module top_module(input a, output y); assign y = a; endmodule";
        // A different candidate parked under the probed source's key, as
        // a constructed FNV-1a collision would leave it.
        let other = Candidate {
            source: "module top_module(input a, output y); assign y = ~a; endmodule".into(),
            design: None,
            score: 1.0,
            report: None,
        };
        job.score_cache
            .insert(mage_logic::fnv1a(probed.as_bytes()), other);
        let cand = Candidate {
            source: probed.into(),
            design: None,
            score: 0.0,
            report: None,
        };
        assert!(
            matches!(
                job.begin_score(cand, ScoreTarget::Initial),
                SolveStep::NeedSim(_)
            ),
            "a colliding entry must not score the probed candidate"
        );
    }
}
