//! The synthetic language model: a calibrated bug-injection channel.
//!
//! This is the reproduction's offline stand-in for Claude 3.5 Sonnet. The
//! model *knows* the right answer to every benchmark problem (its
//! [`ProblemOracle`] holds the golden design) — the interesting part is
//! the noise: how often, and in what ways, its outputs deviate. Every
//! deviation mechanism corresponds to a claim the paper makes:
//!
//! * **Competence vs difficulty** — mutations per candidate follow a
//!   Poisson law whose rate scales with problem difficulty, calibrated so
//!   the *vanilla* baseline lands near the paper's 72.4% (Table III).
//! * **Grounding** — a testbench digest in the prompt lowers the rate
//!   (Step 1 before Step 2 in the workflow).
//! * **Context interference** — extra task kinds and tokens in the
//!   conversation raise the rate (the single-agent ablation).
//! * **Temperature** — T scales a log-normal diversity multiplier on the
//!   rate: low-T outputs are concentrated (and deterministic per prompt),
//!   high-T outputs are spread — which is exactly what best-of-`n`
//!   selection exploits (§III-B).
//! * **Debug skill** — the debugger only uses the *feedback text*: a
//!   checkpoint window names the failing signal, the differing bits and
//!   the triggering inputs, letting the synthetic debugger restrict
//!   repair to the signal's driver cone and verify the fix; a pass-rate
//!   summary leaves it guessing — and sometimes "fixing" the wrong
//!   statement (Fig. 3).

use crate::api::*;
use crate::mutate::{apply_mutation, enumerate_mutations, sample_mutations, Mutation};
use mage_logic::fnv1a;
use mage_sim::{elaborate, Design};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity, StepTable, Stimulus, Testbench};
use mage_verilog::ast::{Item, LValue, Module, SourceFile, Stmt};
use mage_verilog::visit::AssignRef;
use mage_verilog::{analysis, parse, print_file};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Tunable behaviour of the synthetic channel. One knob per claimed
/// effect; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticModelConfig {
    /// Expected mutations per candidate at difficulty 1.0, no grounding,
    /// clean context. Calibrates the vanilla baseline.
    pub base_bug_rate: f64,
    /// Multiplier (< 1) applied when the prompt carries a testbench
    /// digest.
    pub grounding_factor: f64,
    /// Rate increase per extra distinct task kind in the conversation.
    pub interference_per_task: f64,
    /// Rate increase per 1000 conversation tokens.
    pub interference_per_kilotoken: f64,
    /// Log-normal σ per unit temperature (diversity of candidate quality).
    pub temperature_diversity: f64,
    /// Probability the emitted source carries a syntax error.
    pub syntax_error_rate: f64,
    /// Probability a syntax-repair request succeeds.
    pub syntax_fix_success: f64,
    /// Probability a fresh testbench is corrupted (wrong expectations).
    pub tb_error_rate: f64,
    /// Same, after a judge rejection (retries are more careful).
    pub tb_error_rate_retry: f64,
    /// Probability a generated bench checks only sparsely (weak bench).
    pub tb_weak_rate: f64,
    /// Probability the judge classifies a testbench correctly.
    pub judge_accuracy: f64,
    /// Probability of localizing the bug site given a checkpoint window.
    pub locate_prob_checkpoint: f64,
    /// Probability of localizing given only a pass-rate summary.
    pub locate_prob_summary: f64,
    /// Probability a summary-guided "fix" mutates a wrong site (Fig. 3's
    /// wrong debug action).
    pub wrong_fix_prob_summary: f64,
    /// Same under checkpoint feedback (rare).
    pub wrong_fix_prob_checkpoint: f64,
    /// Probability a correctly-localized repair is actually right (an
    /// LLM can point at the right statement and still rewrite it wrong).
    pub repair_skill: f64,
    /// Per-unit-difficulty rate of *persistent miscomprehension*: for
    /// each (problem, run) one latent draw decides whether the model has
    /// genuinely understood the spec (`P = exp(-rate × difficulty ×
    /// interference)`). A model that has not understood keeps making the
    /// same conceptual error: its candidates carry double the mutation
    /// rate and its debug trials never land on the real fix. This is the
    /// mechanism behind the hard tail of the benchmark — retries cannot
    /// wash it out, unlike i.i.d. sampling noise.
    pub miscomprehension_rate: f64,
}

impl Default for SyntheticModelConfig {
    fn default() -> Self {
        SyntheticModelConfig {
            base_bug_rate: 0.22,
            grounding_factor: 0.72,
            interference_per_task: 2.2,
            interference_per_kilotoken: 0.01,
            temperature_diversity: 0.7,
            syntax_error_rate: 0.06,
            syntax_fix_success: 0.9,
            tb_error_rate: 0.10,
            tb_error_rate_retry: 0.04,
            tb_weak_rate: 0.02,
            judge_accuracy: 0.9,
            locate_prob_checkpoint: 0.85,
            locate_prob_summary: 0.3,
            wrong_fix_prob_summary: 0.35,
            wrong_fix_prob_checkpoint: 0.05,
            repair_skill: 0.65,
            miscomprehension_rate: 0.16,
        }
    }
}

/// Everything the synthetic model "knows" about one benchmark problem.
#[derive(Debug, Clone)]
pub struct ProblemOracle {
    /// The golden source (top module last, submodules before it),
    /// shared by every oracle of the problem.
    pub golden: Arc<SourceFile>,
    /// Top module name.
    pub top: String,
    /// Elaborated golden design.
    pub golden_design: Arc<Design>,
    /// The problem's stimulus schedule.
    pub stimulus: Stimulus,
    /// Difficulty ≥ 0; scales the bug rate.
    pub difficulty: f64,
}

impl ProblemOracle {
    /// Build an oracle, elaborating the golden source.
    ///
    /// # Panics
    ///
    /// Panics if the golden source does not elaborate — oracle designs
    /// are library-internal and must be correct.
    pub fn new(golden: SourceFile, top: &str, stimulus: Stimulus, difficulty: f64) -> Self {
        let golden_design =
            Arc::new(elaborate(&golden, top).expect("golden design must elaborate"));
        ProblemOracle {
            golden: Arc::new(golden),
            top: top.to_string(),
            golden_design,
            stimulus,
            difficulty,
        }
    }

    /// The golden top module.
    pub fn top_module(&self) -> &Module {
        self.golden.module(&self.top).expect("top module exists")
    }
}

/// The synthetic backend. See the module docs.
#[derive(Debug, Clone)]
pub struct SyntheticModel {
    name: String,
    config: SyntheticModelConfig,
    /// Shared: every call takes a refcount on its problem's oracle
    /// instead of copying the golden AST and stimulus.
    oracles: HashMap<String, Arc<ProblemOracle>>,
    rng: StdRng,
    seed: u64,
    /// corrupted-source hash → clean source (syntax-repair memory).
    syntax_memory: HashMap<u64, String>,
}

impl SyntheticModel {
    /// Create a model with the given config and master seed.
    pub fn new(config: SyntheticModelConfig, seed: u64) -> Self {
        SyntheticModel {
            name: "synthetic-claude-3.5-sonnet-2024-10-22".to_string(),
            config,
            oracles: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            syntax_memory: HashMap::new(),
        }
    }

    /// Register a problem oracle.
    pub fn register(&mut self, problem_id: impl Into<String>, oracle: ProblemOracle) {
        self.oracles.insert(problem_id.into(), Arc::new(oracle));
    }

    /// Access the registered oracle for a problem.
    pub fn oracle(&self, problem_id: &str) -> Option<&ProblemOracle> {
        self.oracles.get(problem_id).map(Arc::as_ref)
    }

    /// Current configuration.
    pub fn config(&self) -> &SyntheticModelConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Error-rate model
    // ------------------------------------------------------------------

    /// The context-interference multiplier for a conversation (§II-A):
    /// `1 + α·(task kinds − 1) + β·(tokens/1000)`.
    pub fn interference(&self, conversation: &Conversation) -> f64 {
        let tasks = conversation.distinct_tasks().saturating_sub(1) as f64;
        let kilotokens = conversation.total_tokens() as f64 / 1000.0;
        1.0 + self.config.interference_per_task * tasks
            + self.config.interference_per_kilotoken * kilotokens
    }

    fn effective_rate(&self, difficulty: f64, grounded: bool, conversation: &Conversation) -> f64 {
        let mut rate = self.config.base_bug_rate * difficulty;
        if grounded {
            rate *= self.config.grounding_factor;
        }
        rate * self.interference(conversation)
    }

    /// RNG for one call: deterministic per (prompt, conversation) at
    /// (near-)zero temperature — greedy decoding repeats the same
    /// completion only when the *entire context* repeats; a growing
    /// history changes the effective prompt. Drawn from the master
    /// stream otherwise.
    fn call_rng(&mut self, prompt: &str, conversation: &Conversation, temperature: f64) -> StdRng {
        if temperature < 0.05 {
            let mut h = fnv1a(prompt.as_bytes());
            for m in conversation.messages() {
                h ^= fnv1a(m.content.as_bytes()).rotate_left(17);
            }
            StdRng::seed_from_u64(self.seed ^ h)
        } else {
            StdRng::seed_from_u64(self.rng.gen())
        }
    }

    fn poisson<R: Rng>(lambda: f64, rng: &mut R) -> usize {
        // Knuth's method; λ here is small (< ~8).
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l || k > 64 {
                return k;
            }
            k += 1;
        }
    }

    /// Approximate standard normal (Irwin–Hall with 12 uniforms).
    fn std_normal<R: Rng>(rng: &mut R) -> f64 {
        (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
    }

    /// The persistent comprehension draw for a problem: one latent
    /// uniform per (model seed, problem), compared against a threshold
    /// that interference lowers. The same draw gates generation and
    /// debugging, so a misunderstood spec fails *consistently* within a
    /// run.
    fn comprehends(&self, problem_id: &str, difficulty: f64, interference: f64) -> bool {
        let mut rng = StdRng::seed_from_u64(self.seed ^ fnv1a(problem_id.as_bytes()) ^ 0xC0C0_C0C0);
        let u: f64 = rng.gen();
        u < (-self.config.miscomprehension_rate * difficulty * interference).exp()
    }

    fn usage_for(prompt: &str, completion: &str) -> TokenUsage {
        TokenUsage {
            prompt: approx_tokens(prompt),
            completion: approx_tokens(completion),
        }
    }

    // ------------------------------------------------------------------
    // Text corruption (syntax errors)
    // ------------------------------------------------------------------

    fn corrupt_syntax<R: Rng>(&mut self, clean: &str, rng: &mut R) -> String {
        let forms: &[fn(&str, &mut R) -> String] = &[
            |s, r| {
                // Drop a random semicolon.
                let spots: Vec<usize> = s
                    .char_indices()
                    .filter(|(_, c)| *c == ';')
                    .map(|(i, _)| i)
                    .collect();
                if spots.is_empty() {
                    return s.to_string();
                }
                let at = spots[r.gen_range(0..spots.len())];
                format!("{}{}", &s[..at], &s[at + 1..])
            },
            |s, _| s.replacen("endmodule", "endmodul", 1),
            |s, _| s.replacen(" begin", "", 1),
        ];
        // Try random forms until one actually damages the text (some
        // forms are no-ops on small modules).
        let mut corrupted = clean.to_string();
        for _ in 0..8 {
            let f = forms[rng.gen_range(0..forms.len())];
            let c = f(clean, rng);
            if c != clean && mage_verilog::parse(&c).is_err() {
                corrupted = c;
                break;
            }
        }
        if corrupted == clean {
            // Guaranteed damage: truncate the trailing `endmodule`.
            corrupted = clean.trim_end().trim_end_matches("endmodule").to_string();
        }
        self.syntax_memory
            .insert(fnv1a(corrupted.as_bytes()), clean.to_string());
        corrupted
    }
}

// ----------------------------------------------------------------------
// Feedback-text parsing (the debugger reads ONLY the log text)
// ----------------------------------------------------------------------

/// What the debugger managed to extract from feedback text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFeedback {
    /// The failing output named in the log, if any.
    pub signal: Option<String>,
    /// Bit positions that differ between got and expected at the first
    /// mismatch (only a checkpoint window exposes these).
    pub differing_bits: Vec<usize>,
    /// `true` when the text is a state-checkpoint window rather than a
    /// bare pass-rate summary.
    pub has_checkpoints: bool,
}

/// Parse a feedback log the way an LLM would read it: extract the failing
/// signal from either log form, and got/expected bit differences from a
/// checkpoint window.
pub fn parse_feedback(text: &str) -> ParsedFeedback {
    let has_checkpoints =
        text.contains("State checkpoints in window") || text.contains("First mismatch at time");
    // Signal from "Got <sig>=<bits>" (checkpoint) or "Output '<sig>' has"
    // (summary).
    let mut signal = None;
    let mut differing_bits = Vec::new();
    if let Some(pos) = text.find("Got ") {
        let rest = &text[pos + 4..];
        if let Some(eq) = rest.find('=') {
            signal = Some(rest[..eq].trim().to_string());
            // got bits up to whitespace; expected bits after "Expected <sig>=".
            let got_bits: String = rest[eq + 1..]
                .chars()
                .take_while(|c| matches!(c, '0' | '1' | 'x' | 'z'))
                .collect();
            if let Some(epos) = rest.find("Expected ") {
                let erest = &rest[epos + 9..];
                if let Some(eeq) = erest.find('=') {
                    let exp_bits: String = erest[eeq + 1..]
                        .chars()
                        .take_while(|c| matches!(c, '0' | '1' | 'x' | 'z'))
                        .collect();
                    if got_bits.len() == exp_bits.len() {
                        // Strings are MSB-first.
                        let w = got_bits.len();
                        for (i, (g, e)) in got_bits.chars().zip(exp_bits.chars()).enumerate() {
                            if g != e {
                                differing_bits.push(w - 1 - i);
                            }
                        }
                    }
                }
            }
        }
    } else if let Some(pos) = text.find("Output '") {
        let rest = &text[pos + 8..];
        if let Some(q) = rest.find('\'') {
            signal = Some(rest[..q].to_string());
        }
    }
    ParsedFeedback {
        signal,
        differing_bits,
        has_checkpoints,
    }
}

// ----------------------------------------------------------------------
// Trait implementation
// ----------------------------------------------------------------------

impl RtlLanguageModel for SyntheticModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
        let prompt = req.render_prompt();
        let Some(oracle) = self.oracles.get(req.problem_id).cloned() else {
            let text = format!("// unknown problem `{}`\n", req.problem_id);
            return ModelOutput {
                usage: Self::usage_for(&prompt, &text),
                value: text,
            };
        };
        let mut rng = self.call_rng(&prompt, req.conversation, req.params.temperature);
        let mut rate = self.effective_rate(
            oracle.difficulty,
            req.testbench_digest.is_some(),
            req.conversation,
        );
        if !self.comprehends(
            req.problem_id,
            oracle.difficulty,
            self.interference(req.conversation),
        ) {
            rate *= 2.0; // guessing, not designing
        }
        // Temperature spreads candidate quality log-normally.
        let sigma = req.params.temperature * self.config.temperature_diversity;
        let lambda = rate * (sigma * Self::std_normal(&mut rng) - sigma * sigma / 2.0).exp();
        let k = Self::poisson(lambda, &mut rng);

        let mut file = SourceFile::clone(&oracle.golden);
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == oracle.top)
            .expect("top module present");
        for mutation in sample_mutations(&file.modules[top_ix], k, &mut rng) {
            apply_mutation(&mut file.modules[top_ix], &mutation);
        }
        let mut text = print_file(&file);
        if rng.gen::<f64>() < self.config.syntax_error_rate * self.interference(req.conversation) {
            text = self.corrupt_syntax(&text, &mut rng);
        }
        ModelOutput {
            usage: Self::usage_for(&prompt, &text),
            value: text,
        }
    }

    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
        let prompt = req.render_prompt();
        let Some(oracle) = self.oracles.get(req.problem_id).cloned() else {
            let tb = Testbench::new(
                format!("{}-unknown", req.problem_id),
                Stimulus::default(),
                StepTable::default(),
            );
            return ModelOutput {
                usage: Self::usage_for(&prompt, "endtb"),
                value: tb,
            };
        };
        let mut rng = self.call_rng(&prompt, req.conversation, req.params.temperature);
        let density = if rng.gen::<f64>() < self.config.tb_weak_rate && req.retry == 0 {
            CheckDensity::EveryN(3)
        } else {
            CheckDensity::EveryStep
        };
        let mut tb = synthesize_testbench(
            format!("{}-tb", req.problem_id),
            &oracle.golden_design,
            &oracle.stimulus,
            density,
        );
        let err_rate = if req.retry == 0 {
            self.config.tb_error_rate
        } else {
            self.config.tb_error_rate_retry
        } * self.interference(req.conversation);
        if rng.gen::<f64>() < err_rate {
            corrupt_testbench(&mut tb, &mut rng);
        }
        let digest = format!("testbench `{}` ({} checks)", tb.name, tb.total_checks());
        ModelOutput {
            usage: Self::usage_for(&prompt, &digest),
            value: tb,
        }
    }

    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
        let prompt = req.render_prompt();
        let Some(oracle) = self.oracles.get(req.problem_id).cloned() else {
            return ModelOutput {
                usage: Self::usage_for(&prompt, "INCORRECT"),
                value: false,
            };
        };
        // Ground truth: a correct bench is one the golden design passes.
        let truth = run_testbench(req.testbench, &oracle.golden_design)
            .map(|r| r.passed())
            .unwrap_or(false);
        let mut rng = self.call_rng(&prompt, req.conversation, req.params.temperature);
        let verdict = if rng.gen::<f64>() < self.config.judge_accuracy {
            truth
        } else {
            !truth
        };
        ModelOutput {
            usage: Self::usage_for(&prompt, if verdict { "CORRECT" } else { "INCORRECT" }),
            value: verdict,
        }
    }

    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
        let prompt = req.render_prompt();
        let unchanged = |s: &str| ModelOutput {
            usage: Self::usage_for(&prompt, s),
            value: s.to_string(),
        };
        let Some(oracle) = self.oracles.get(req.problem_id).cloned() else {
            return unchanged(req.candidate_source);
        };
        let Ok(mut file) = parse(req.candidate_source) else {
            return unchanged(req.candidate_source);
        };
        let Some(top_ix) = file.modules.iter().position(|m| m.name == oracle.top) else {
            return unchanged(req.candidate_source);
        };

        let feedback = parse_feedback(req.feedback_text);
        let mut rng = self.call_rng(&prompt, req.conversation, req.params.temperature);
        // A polluted context degrades debugging skill the same way it
        // degrades generation (the single-agent ablation's mechanism).
        let interference = self.interference(req.conversation);
        let (locate_prob, wrong_fix_prob) = if feedback.has_checkpoints {
            (
                self.config.locate_prob_checkpoint / interference,
                (self.config.wrong_fix_prob_checkpoint * interference).min(0.9),
            )
        } else {
            (
                self.config.locate_prob_summary / interference,
                (self.config.wrong_fix_prob_summary * interference).min(0.9),
            )
        };

        // Candidate repair sites: all assignments, optionally narrowed to
        // the failing signal's driver cone (what the log names), and — if
        // the window exposed differing bits — to statements writing those
        // bits.
        let module = &file.modules[top_ix];
        let mut sites: Vec<AssignRef> = Vec::new();
        mage_verilog::visit::for_each_assignment(module, |site, _, _| sites.push(site));
        // Edge-flip bugs live on always items; include them as sites too.
        let always_items: Vec<usize> = module
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, Item::Always { .. }))
            .map(|(i, _)| i)
            .collect();

        let localized = rng.gen::<f64>() < locate_prob;
        if localized {
            if let Some(signal) = &feedback.signal {
                let cone = analysis::driving_statements(&file, module, signal);
                let filtered: Vec<AssignRef> =
                    sites.iter().filter(|s| cone.contains(s)).cloned().collect();
                if !filtered.is_empty() {
                    sites = filtered;
                }
                // Bit-level narrowing from the checkpoint window.
                if !feedback.differing_bits.is_empty() {
                    let bitwise: Vec<AssignRef> = sites
                        .iter()
                        .filter(|s| assign_writes_bits(module, s, &feedback.differing_bits))
                        .cloned()
                        .collect();
                    if !bitwise.is_empty() {
                        sites = bitwise;
                    }
                }
            }
        }
        if sites.is_empty() && always_items.is_empty() {
            return unchanged(req.candidate_source);
        }

        // The fix: align the chosen site with the golden module. When the
        // site was never mutated this is a no-op — which is exactly how
        // an unlucky (non-localized) debug trial fails to help.
        let golden_top = oracle.top_module();
        let understood = self.comprehends(req.problem_id, oracle.difficulty, interference);
        let wrong_fix = !understood || rng.gen::<f64>() < wrong_fix_prob;
        let module = &mut file.modules[top_ix];
        if wrong_fix {
            // Misguided "fix": mutate a random site (Fig. 3's failure).
            let muts = enumerate_mutations(module);
            if !muts.is_empty() {
                let m: &Mutation = &muts[rng.gen_range(0..muts.len())];
                apply_mutation(module, m);
            }
        } else {
            // Pick a repair site. Checkpoint feedback lets the agent
            // *verify* a hypothesis against the failing vector, so a
            // clean (no-op) site is discarded and another tried — a
            // pass-rate summary permits exactly one blind attempt.
            let attempts = if feedback.has_checkpoints { 3 } else { 1 };
            let mut repaired = false;
            for _ in 0..attempts {
                if !sites.is_empty() {
                    let ix = rng.gen_range(0..sites.len());
                    let site = sites.remove(ix);
                    if revert_site_to_golden(module, golden_top, &site) {
                        repaired = true;
                        break;
                    }
                } else if !always_items.is_empty() {
                    let ix = always_items[rng.gen_range(0..always_items.len())];
                    if revert_always_sensitivity(module, golden_top, ix) {
                        repaired = true;
                        break;
                    }
                    break;
                } else {
                    break;
                }
            }
            // Even a correctly-localized fix can be rewritten wrong.
            if repaired && rng.gen::<f64>() > self.config.repair_skill {
                let muts = enumerate_mutations(module);
                if !muts.is_empty() {
                    let m: &Mutation = &muts[rng.gen_range(0..muts.len())];
                    apply_mutation(module, m);
                }
            }
        }
        let text = print_file(&file);
        ModelOutput {
            usage: Self::usage_for(&prompt, &text),
            value: text,
        }
    }

    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
        let prompt = req.render_prompt();
        let key = fnv1a(req.candidate_source.as_bytes());
        let mut rng = self.call_rng(&prompt, req.conversation, req.params.temperature);
        let value = match self.syntax_memory.get(&key) {
            Some(clean) if rng.gen::<f64>() < self.config.syntax_fix_success => clean.clone(),
            _ => {
                // Last-ditch "fix": try appending endmodule, else return
                // the source unchanged (the repair loop will retry).
                let patched = format!("{}\nendmodule\n", req.candidate_source);
                if mage_verilog::parse(&patched).is_ok() {
                    patched
                } else {
                    req.candidate_source.to_string()
                }
            }
        };
        ModelOutput {
            usage: Self::usage_for(&prompt, &value),
            value,
        }
    }
}

/// Does the assignment at `site` write any of `bits` of its target (via a
/// constant bit-select lvalue)? Whole-signal writes match every bit.
fn assign_writes_bits(module: &Module, site: &AssignRef, bits: &[usize]) -> bool {
    let lv: Option<&LValue> = match site {
        AssignRef::Item(i) => match module.items.get(*i) {
            Some(Item::Assign { lhs, .. }) => Some(lhs),
            _ => None,
        },
        AssignRef::Stmt(path) => match mage_verilog::visit::stmt_at(module, path) {
            Some(Stmt::Blocking { lhs, .. }) | Some(Stmt::NonBlocking { lhs, .. }) => Some(lhs),
            _ => None,
        },
    };
    match lv {
        Some(LValue::Bit(_, mage_verilog::ast::Expr::Literal { value, .. })) => value
            .to_u64()
            .map(|v| bits.contains(&(v as usize)))
            .unwrap_or(true),
        _ => true,
    }
}

/// Replace the assignment at `site` in `module` with the structurally
/// aligned assignment of `golden`. Returns `true` when the replacement
/// changed anything.
fn revert_site_to_golden(module: &mut Module, golden: &Module, site: &AssignRef) -> bool {
    match site {
        AssignRef::Item(i) => {
            let (Some(Item::Assign { lhs, rhs }), Some(Item::Assign { lhs: gl, rhs: gr })) = (
                module.items.get(*i).cloned().map(Some).unwrap_or(None),
                golden.items.get(*i),
            ) else {
                return false;
            };
            let changed = &lhs != gl || &rhs != gr;
            module.items[*i] = Item::Assign {
                lhs: gl.clone(),
                rhs: gr.clone(),
            };
            changed
        }
        AssignRef::Stmt(path) => {
            let Some(gstmt) = mage_verilog::visit::stmt_at(golden, path).cloned() else {
                return false;
            };
            let Some(stmt) = mage_verilog::visit::stmt_at_mut(module, path) else {
                return false;
            };
            let changed = *stmt != gstmt;
            *stmt = gstmt;
            changed
        }
    }
}

/// Copy the golden sensitivity list onto the always item at `ix`.
fn revert_always_sensitivity(module: &mut Module, golden: &Module, ix: usize) -> bool {
    let (Some(Item::Always { sens, .. }), Some(Item::Always { sens: gsens, .. })) =
        (module.items.get_mut(ix), golden.items.get(ix))
    else {
        return false;
    };
    let changed = sens != gsens;
    *sens = gsens.clone();
    changed
}

/// Corrupt a testbench so the golden design no longer passes it: flip a
/// low bit of the expected value on one to three random checks.
fn corrupt_testbench<R: Rng>(tb: &mut Testbench, rng: &mut R) {
    let total = tb.total_checks();
    if total == 0 {
        return;
    }
    let n = rng.gen_range(1..=3usize.min(total));
    // Distinct targets: flipping the same check twice would silently
    // restore it and leave the bench uncorrupted.
    let mut targets: Vec<usize> = Vec::with_capacity(n);
    while targets.len() < n {
        let t = rng.gen_range(0..total);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    for target in targets {
        let expected = tb.expected_mut(target);
        let bit = expected.bit(0);
        expected.set_bit(0, bit.not());
    }
}

/// Expose for tests: corrupt a bench deterministically.
#[doc(hidden)]
pub fn corrupt_testbench_for_test(tb: &mut Testbench, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    corrupt_testbench(tb, &mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_oracle(difficulty: f64) -> ProblemOracle {
        let golden = parse(
            "module top(input a, input b, output y);
               assign y = a ^ b;
             endmodule",
        )
        .unwrap();
        let stim = Stimulus::exhaustive(&[("a".into(), 1), ("b".into(), 1)]);
        ProblemOracle::new(golden, "top", stim, difficulty)
    }

    fn model_with(difficulty: f64, seed: u64) -> SyntheticModel {
        let mut m = SyntheticModel::new(SyntheticModelConfig::default(), seed);
        m.register("p1", xor_oracle(difficulty));
        m
    }

    #[test]
    fn zero_difficulty_is_always_golden() {
        let mut m = model_with(0.0, 1);
        // Disable syntax noise for this check.
        m.config.syntax_error_rate = 0.0;
        let conv = Conversation::new();
        for _ in 0..20 {
            let out = m.generate_rtl(&RtlGenRequest {
                problem_id: "p1",
                spec_text: "xor",
                testbench_digest: None,
                params: SamplingParams::high(),
                conversation: &conv,
            });
            let file = parse(&out.value).expect("clean syntax");
            assert_eq!(file, *m.oracle("p1").unwrap().golden);
        }
    }

    #[test]
    fn low_temperature_is_prompt_deterministic() {
        let mut m = model_with(2.0, 9);
        let conv = Conversation::new();
        let req = RtlGenRequest {
            problem_id: "p1",
            spec_text: "xor",
            testbench_digest: None,
            params: SamplingParams::low(),
            conversation: &conv,
        };
        let a = m.generate_rtl(&req).value;
        let b = m.generate_rtl(&req).value;
        assert_eq!(a, b, "greedy decoding repeats per prompt");
    }

    #[test]
    fn high_temperature_diversifies() {
        let mut m = model_with(2.0, 9);
        m.config.syntax_error_rate = 0.0;
        let conv = Conversation::new();
        let req = RtlGenRequest {
            problem_id: "p1",
            spec_text: "xor",
            testbench_digest: None,
            params: SamplingParams::high(),
            conversation: &conv,
        };
        let outputs: std::collections::HashSet<String> =
            (0..30).map(|_| m.generate_rtl(&req).value).collect();
        assert!(
            outputs.len() > 3,
            "expected diverse outputs, got {}",
            outputs.len()
        );
    }

    #[test]
    fn interference_raises_rate() {
        let m = model_with(1.0, 1);
        let clean = Conversation::new();
        let mut mixed = Conversation::new();
        mixed.push(Role::User, TaskKind::GenerateRtl, "x".repeat(4000));
        mixed.push(Role::User, TaskKind::GenerateTestbench, "y".repeat(4000));
        mixed.push(Role::User, TaskKind::DebugRtl, "z".repeat(4000));
        assert!(m.interference(&mixed) > m.interference(&clean));
        assert_eq!(m.interference(&clean), 1.0);
    }

    #[test]
    fn grounding_lowers_rate() {
        let m = model_with(1.0, 1);
        let conv = Conversation::new();
        let ungrounded = m.effective_rate(1.0, false, &conv);
        let grounded = m.effective_rate(1.0, true, &conv);
        assert!(grounded < ungrounded);
    }

    #[test]
    fn testbench_generation_usually_correct() {
        let mut m = model_with(1.0, 6);
        let conv = Conversation::new();
        let mut correct = 0;
        for i in 0..40 {
            let out = m.generate_testbench(&TbGenRequest {
                problem_id: "p1",
                spec_text: "xor",
                retry: (i % 2) as usize,
                params: SamplingParams::high(),
                conversation: &conv,
            });
            let golden = &m.oracle("p1").unwrap().golden_design;
            if run_testbench(&Arc::new(out.value), golden)
                .map(|r| r.passed())
                .unwrap_or(false)
            {
                correct += 1;
            }
        }
        assert!(
            correct >= 30,
            "most benches should be correct, got {correct}/40"
        );
        assert!(correct < 40, "some benches should be corrupted");
    }

    #[test]
    fn judge_mostly_detects_corruption() {
        let mut m = model_with(1.0, 5);
        let conv = Conversation::new();
        let oracle = m.oracle("p1").unwrap().clone();
        let good = synthesize_testbench(
            "t",
            &oracle.golden_design,
            &oracle.stimulus,
            CheckDensity::EveryStep,
        );
        let mut bad = good.clone();
        corrupt_testbench_for_test(&mut bad, 11);
        let (good, bad) = (Arc::new(good), Arc::new(bad));
        let mut good_votes = 0;
        let mut bad_votes = 0;
        for _ in 0..30 {
            let g = m.judge_testbench(&JudgeTbRequest {
                problem_id: "p1",
                spec_text: "xor",
                testbench: &good,
                evidence: "",
                params: SamplingParams::high(),
                conversation: &conv,
            });
            let b = m.judge_testbench(&JudgeTbRequest {
                problem_id: "p1",
                spec_text: "xor",
                testbench: &bad,
                evidence: "",
                params: SamplingParams::high(),
                conversation: &conv,
            });
            good_votes += g.value as usize;
            bad_votes += b.value as usize;
        }
        assert!(
            good_votes >= 24,
            "good bench judged correct: {good_votes}/30"
        );
        assert!(bad_votes <= 6, "bad bench judged correct: {bad_votes}/30");
    }

    #[test]
    fn feedback_parsing_extracts_signal_and_bits() {
        let text = "First mismatch at time 50:\nInputs: c=1, d=1\n\
                    Got mux_in=1000 (8), Expected mux_in=1001 (9).\n\
                    State checkpoints in window (L_W = 5):\n";
        let f = parse_feedback(text);
        assert_eq!(f.signal.as_deref(), Some("mux_in"));
        assert_eq!(f.differing_bits, vec![0]);
        assert!(f.has_checkpoints);

        let summary = "Output 'mux_in' has 11 mismatches. First mismatch occurred at time 50.";
        let f2 = parse_feedback(summary);
        assert_eq!(f2.signal.as_deref(), Some("mux_in"));
        assert!(f2.differing_bits.is_empty());
        assert!(!f2.has_checkpoints);
    }

    #[test]
    fn syntax_corruption_and_repair_cycle() {
        let mut m = model_with(1.0, 2);
        m.config.syntax_error_rate = 1.0; // always corrupt
        let conv = Conversation::new();
        let out = m.generate_rtl(&RtlGenRequest {
            problem_id: "p1",
            spec_text: "xor",
            testbench_digest: None,
            params: SamplingParams::high(),
            conversation: &conv,
        });
        assert!(
            mage_verilog::parse(&out.value).is_err(),
            "must be corrupted"
        );
        // Repair loop (s = 5).
        let mut src = out.value;
        let mut fixed = false;
        for _ in 0..5 {
            let err = match mage_verilog::parse(&src) {
                Ok(_) => {
                    fixed = true;
                    break;
                }
                Err(e) => e.to_string(),
            };
            src = m
                .fix_syntax(&SyntaxFixRequest {
                    problem_id: "p1",
                    candidate_source: &src,
                    error_text: &err,
                    params: SamplingParams::high(),
                    conversation: &conv,
                })
                .value;
        }
        if !fixed {
            fixed = mage_verilog::parse(&src).is_ok();
        }
        assert!(fixed, "syntax repair loop should converge");
    }
}
