//! Evaluation harness and the per-table / per-figure experiment drivers.
//!
//! Grading protocol: the engine's final answer is compiled and run
//! against the *benchmark* testbench — synthesized from the problem's
//! golden design with a fixed stimulus seed the engine never sees
//! (mirroring how VerilogEval grades against its reference bench).

use crate::config::{MageConfig, SystemKind};
use crate::engine::{compile, Mage, SolveTrace, Task};
use crate::metrics::{mean, pass_at_k, Summary};
use mage_llm::{SyntheticModel, SyntheticModelConfig, TokenUsage};
use mage_problems::{suite, Problem, SuiteId};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity, Testbench};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Stimulus seed of the grading benches (never used for engine-side
/// stimulus).
pub const GRADE_STIM_SEED: u64 = 0x0D0C_5EED;

/// Options of one suite evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Which benchmark suite.
    pub suite: SuiteId,
    /// Engine configuration (system protocol + sampling).
    pub engine: MageConfig,
    /// Synthetic-channel configuration.
    pub model: SyntheticModelConfig,
    /// Evaluation runs `n` per problem (the paper uses 1 at Low-T and 20
    /// at High-T).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
}

impl EvalOptions {
    /// The paper's High-Temperature evaluation (n = 20) of a system.
    pub fn high(suite: SuiteId, system: SystemKind) -> Self {
        EvalOptions {
            suite,
            engine: MageConfig::high_temperature().with_system(system),
            model: SyntheticModelConfig::default(),
            runs: 20,
            seed: 0xCAFE,
        }
    }

    /// The paper's Low-Temperature evaluation (n = 1) of a system.
    pub fn low(suite: SuiteId, system: SystemKind) -> Self {
        EvalOptions {
            suite,
            engine: MageConfig::low_temperature().with_system(system),
            model: SyntheticModelConfig::default(),
            runs: 1,
            seed: 0xCAFE,
        }
    }

    /// Reduce run count (for quick tests and CI).
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Change the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-problem evaluation outcome.
#[derive(Debug, Clone)]
pub struct ProblemEval {
    /// Problem id.
    pub id: String,
    /// Runs executed.
    pub runs: usize,
    /// Runs whose final answer passed the grading bench (`c_p`).
    pub passing: usize,
    /// Eq. 7 pass@1.
    pub pass_at_1: f64,
    /// Traces of every run (figure harnesses mine these).
    pub traces: Vec<SolveTrace>,
}

/// Whole-suite evaluation outcome.
#[derive(Debug, Clone)]
pub struct SuiteEval {
    /// Which suite.
    pub suite: SuiteId,
    /// Which protocol.
    pub system: SystemKind,
    /// Sampling temperature used.
    pub temperature: f64,
    /// Per-problem results in id order.
    pub problems: Vec<ProblemEval>,
    /// Suite pass@1: the mean of per-problem Eq. 7 values.
    pub pass_at_1: f64,
    /// Total token usage across all runs.
    pub usage: TokenUsage,
}

/// Build a problem's grading bench (benchmark-side, fixed seed, and
/// substantially more thorough than anything the agents see).
pub fn grading_bench(problem: &Problem) -> Testbench {
    let oracle = problem.oracle(GRADE_STIM_SEED);
    let stim = problem.grading_stimulus(GRADE_STIM_SEED);
    synthesize_testbench(
        format!("{}-golden", problem.id),
        &oracle.golden_design,
        &stim,
        CheckDensity::EveryStep,
    )
}

/// Process-wide grading-bench cache: one synthesis per problem, shared
/// by every `(problem, run)` evaluation unit and every grade call.
static GRADING_BENCH_CACHE: OnceLock<Mutex<HashMap<String, Arc<Testbench>>>> = OnceLock::new();

/// The cached grading bench of a problem. The bench is a pure function
/// of the problem (the stimulus seed is the fixed [`GRADE_STIM_SEED`]),
/// so caching cannot change any result — it only removes the per-run
/// re-synthesis the serial evaluator paid.
pub fn grading_bench_shared(problem: &Problem) -> Arc<Testbench> {
    let cache = GRADING_BENCH_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache
        .lock()
        .expect("grading cache poisoned")
        .get(problem.id)
    {
        return Arc::clone(hit);
    }
    // Synthesize outside the lock: benches are thousands of simulated
    // steps, and parallel eval units would serialize on a held lock.
    let bench = Arc::new(grading_bench(problem));
    Arc::clone(
        cache
            .lock()
            .expect("grading cache poisoned")
            .entry(problem.id.to_string())
            .or_insert(bench),
    )
}

/// Grade a final answer against the benchmark bench.
pub fn grade(problem: &Problem, source: &str) -> bool {
    let Ok(design) = compile(source) else {
        return false;
    };
    let bench = grading_bench_shared(problem);
    run_testbench(&bench, &design)
        .map(|r| r.passed())
        .unwrap_or(false)
}

/// The deterministic seed of one `(run, problem)` evaluation unit.
///
/// Each run's seed derives from the master seed exactly as the serial
/// evaluator derived it, decorrelated per problem with a stable FNV-1a
/// hash of the problem id. Because every unit owns its model and RNG,
/// scores and pass@k are **bit-identical** however the units are
/// scheduled — the parallel evaluation below matches a serial
/// `(run, problem)` loop result-for-result.
///
/// Public because the `mage-serve` and `bench_engine` job streams seed
/// their per-job models with the *same* scheme, keeping cross-harness
/// results comparable unit-for-unit.
pub fn unit_seed(master: u64, run: usize, problem_id: &str) -> u64 {
    let run_seed = master.wrapping_add(run as u64).wrapping_mul(0x9E37_79B9);
    run_seed ^ mage_logic::fnv1a(problem_id.as_bytes())
}

/// Evaluate one suite under the given options.
///
/// The `(run, problem)` grid is evaluated in parallel (one independent
/// engine + synthetic model per unit, each with a derived seed); results
/// are folded back in deterministic `(run, problem)` order. Set
/// `RAYON_NUM_THREADS=1` to force serial execution — scores are
/// identical either way.
pub fn evaluate_suite(opts: &EvalOptions) -> SuiteEval {
    use rayon::prelude::*;

    let problems = suite(opts.suite);
    let mut evals: Vec<ProblemEval> = problems
        .iter()
        .map(|p| ProblemEval {
            id: p.id.to_string(),
            runs: opts.runs,
            passing: 0,
            pass_at_1: 0.0,
            traces: Vec::new(),
        })
        .collect();

    let units: Vec<(usize, usize)> = (0..opts.runs)
        .flat_map(|run| (0..problems.len()).map(move |pix| (run, pix)))
        .collect();
    let results: Vec<(usize, SolveTrace, bool)> = units
        .into_par_iter()
        .map(|(run, pix)| {
            let p = &problems[pix];
            let seed = unit_seed(opts.seed, run, p.id);
            let mut model = SyntheticModel::new(opts.model.clone(), seed);
            model.register(p.id, p.oracle(seed));
            let mut engine = Mage::new(&mut model, opts.engine.clone());
            let trace = engine.solve(&Task {
                id: p.id,
                spec: p.spec,
            });
            let passed = grade(p, &trace.final_source);
            (pix, trace, passed)
        })
        .collect();

    let mut usage = TokenUsage::default();
    for (pix, trace, passed) in results {
        usage += trace.usage;
        if passed {
            evals[pix].passing += 1;
        }
        evals[pix].traces.push(trace);
    }

    for e in &mut evals {
        e.pass_at_1 = pass_at_k(e.runs, e.passing, 1);
    }
    let pass_at_1 = mean(&evals.iter().map(|e| e.pass_at_1).collect::<Vec<_>>());
    SuiteEval {
        suite: opts.suite,
        system: opts.engine.system,
        temperature: opts.engine.sampling.temperature,
        problems: evals,
        pass_at_1,
        usage,
    }
}

// ----------------------------------------------------------------------
// Table I — temperature configurations
// ----------------------------------------------------------------------

/// Table I result: MAGE pass rates under both temperature configs on
/// both suites.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// High-T on V1-Human.
    pub high_v1: f64,
    /// High-T on V2.
    pub high_v2: f64,
    /// Low-T on V1-Human.
    pub low_v1: f64,
    /// Low-T on V2.
    pub low_v2: f64,
}

/// Regenerate Table I. `runs_high` scales the n = 20 evaluation (use a
/// smaller value for quick runs).
pub fn table1(runs_high: usize, seed: u64) -> Table1 {
    let h1 = evaluate_suite(
        &EvalOptions::high(SuiteId::V1Human, SystemKind::Mage)
            .with_runs(runs_high)
            .with_seed(seed),
    );
    let h2 = evaluate_suite(
        &EvalOptions::high(SuiteId::V2, SystemKind::Mage)
            .with_runs(runs_high)
            .with_seed(seed),
    );
    let l1 = evaluate_suite(&EvalOptions::low(SuiteId::V1Human, SystemKind::Mage).with_seed(seed));
    let l2 = evaluate_suite(&EvalOptions::low(SuiteId::V2, SystemKind::Mage).with_seed(seed));
    Table1 {
        high_v1: h1.pass_at_1,
        high_v2: h2.pass_at_1,
        low_v1: l1.pass_at_1,
        low_v2: l2.pass_at_1,
    }
}

// ----------------------------------------------------------------------
// Table II — systems comparison
// ----------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// System label.
    pub system: String,
    /// Open or closed source (reporting flavor only).
    pub open_source: bool,
    /// Pass@1 on V1-Human (None = not evaluated, as in the paper).
    pub v1: Option<f64>,
    /// Pass@1 on V2.
    pub v2: Option<f64>,
}

/// Table II result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in presentation order (baselines first, MAGE last).
    pub rows: Vec<Table2Row>,
}

/// Regenerate Table II: every re-implementable protocol baseline under
/// the identical synthetic channel, best temperature config per system.
pub fn table2(runs_high: usize, seed: u64) -> Table2 {
    let eval_both = |system: SystemKind| -> (f64, f64) {
        let hi1 = evaluate_suite(
            &EvalOptions::high(SuiteId::V1Human, system)
                .with_runs(runs_high)
                .with_seed(seed),
        );
        let lo1 = evaluate_suite(&EvalOptions::low(SuiteId::V1Human, system).with_seed(seed));
        let hi2 = evaluate_suite(
            &EvalOptions::high(SuiteId::V2, system)
                .with_runs(runs_high)
                .with_seed(seed),
        );
        let lo2 = evaluate_suite(&EvalOptions::low(SuiteId::V2, system).with_seed(seed));
        (
            hi1.pass_at_1.max(lo1.pass_at_1),
            hi2.pass_at_1.max(lo2.pass_at_1),
        )
    };
    let (van1, van2) = eval_both(SystemKind::Vanilla);
    let (two1, two2) = eval_both(SystemKind::TwoAgent);
    let (single1, single2) = eval_both(SystemKind::SingleAgent);
    let (mage1, mage2) = eval_both(SystemKind::Mage);
    Table2 {
        rows: vec![
            Table2Row {
                system: "Vanilla (synthetic Claude 3.5 Sonnet)".into(),
                open_source: true,
                v1: Some(van1),
                v2: Some(van2),
            },
            Table2Row {
                system: "AIVRIL-style two-agent".into(),
                open_source: false,
                v1: Some(two1),
                v2: Some(two2),
            },
            Table2Row {
                system: "Single-agent (merged contexts)".into(),
                open_source: true,
                v1: Some(single1),
                v2: Some(single2),
            },
            Table2Row {
                system: "MAGE (ours)".into(),
                open_source: true,
                v1: Some(mage1),
                v2: Some(mage2),
            },
        ],
    }
}

// ----------------------------------------------------------------------
// Table III — agent ablation
// ----------------------------------------------------------------------

/// Table III result: Low-T pass rates of the three configurations on V2.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Vanilla one-pass.
    pub vanilla: f64,
    /// Single shared-context agent.
    pub single_agent: f64,
    /// Full multi-agent MAGE.
    pub multi_agent: f64,
}

/// Regenerate Table III (Low-Temperature setting, per the paper).
/// `runs` extends the paper's n = 1 to reduce variance when desired.
pub fn table3(runs: usize, seed: u64) -> Table3 {
    let ev = |system| {
        evaluate_suite(
            &EvalOptions::low(SuiteId::V2, system)
                .with_runs(runs)
                .with_seed(seed),
        )
        .pass_at_1
    };
    Table3 {
        vanilla: ev(SystemKind::Vanilla),
        single_agent: ev(SystemKind::SingleAgent),
        multi_agent: ev(SystemKind::Mage),
    }
}

// ----------------------------------------------------------------------
// Fig. 2 — normalized mismatch of best candidate, Low-T vs High-T
// ----------------------------------------------------------------------

/// Per-problem data point of Fig. 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Problem id.
    pub id: String,
    /// Normalized mismatch (1 − best score) of the Low-T best candidate.
    pub low_t: f64,
    /// Normalized mismatch of the High-T best candidate (pooled over the
    /// evaluation runs).
    pub high_t: f64,
}

/// Fig. 2 result.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Problems that reached Step 4 with residual mismatches.
    pub points: Vec<Fig2Point>,
}

/// Regenerate Fig. 2's distribution data from two suite evaluations.
pub fn fig2(runs_high: usize, seed: u64) -> Fig2 {
    let low = evaluate_suite(&EvalOptions::low(SuiteId::V2, SystemKind::Mage).with_seed(seed));
    let high = evaluate_suite(
        &EvalOptions::high(SuiteId::V2, SystemKind::Mage)
            .with_runs(runs_high)
            .with_seed(seed),
    );
    let mut points = Vec::new();
    for (lo, hi) in low.problems.iter().zip(high.problems.iter()) {
        let best = |traces: &[SolveTrace]| -> Option<f64> {
            let scores: Vec<f64> = traces
                .iter()
                .filter(|t| !t.solved_pre_sampling)
                .filter_map(|t| t.best_sampled_score)
                .collect();
            scores.iter().cloned().fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            })
        };
        let (Some(lo_best), Some(hi_best)) = (best(&lo.traces), best(&hi.traces)) else {
            continue;
        };
        // The paper excludes problems with zero mismatch in both configs.
        if lo_best >= 1.0 && hi_best >= 1.0 {
            continue;
        }
        points.push(Fig2Point {
            id: lo.id.clone(),
            low_t: 1.0 - lo_best,
            high_t: 1.0 - hi_best,
        });
    }
    Fig2 { points }
}

impl Fig2 {
    /// Five-number summaries of the two series.
    pub fn summaries(&self) -> (Summary, Summary) {
        let low: Vec<f64> = self.points.iter().map(|p| p.low_t).collect();
        let high: Vec<f64> = self.points.iter().map(|p| p.high_t).collect();
        (Summary::of(&low), Summary::of(&high))
    }

    /// Fraction of problems where the High-T best candidate has strictly
    /// lower mismatch.
    pub fn high_wins_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.high_t < p.low_t).count() as f64 / self.points.len() as f64
    }
}

// ----------------------------------------------------------------------
// Fig. 4 — sampling and debugging score improvements
// ----------------------------------------------------------------------

/// Fig. 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Initial-candidate scores (problems entering Step 4).
    pub without_sampling: Vec<f64>,
    /// Best sampled score for the same runs.
    pub with_sampling: Vec<f64>,
    /// Mean score of the selected set after each debug round, averaged
    /// over runs (index = round).
    pub round_means: Vec<f64>,
    /// Mean score entering the debug stage.
    pub initial_debug_mean: f64,
}

/// Regenerate Fig. 4 from a High-T MAGE evaluation of V2.
pub fn fig4(runs_high: usize, seed: u64) -> Fig4 {
    let eval = evaluate_suite(
        &EvalOptions::high(SuiteId::V2, SystemKind::Mage)
            .with_runs(runs_high)
            .with_seed(seed),
    );
    let mut without = Vec::new();
    let mut with_s = Vec::new();
    let mut per_round: Vec<Vec<f64>> = Vec::new();
    let mut entering = Vec::new();
    for p in &eval.problems {
        for t in &p.traces {
            if t.solved_pre_sampling {
                continue;
            }
            if let (Some(init), Some(best)) = (t.initial_score, t.best_sampled_score) {
                without.push(init);
                with_s.push(best);
            }
            if !t.round_mean_scores.is_empty() {
                if let Some(pre) = t.selected_mean_pre_debug {
                    entering.push(pre);
                }
                for (r, s) in t.round_mean_scores.iter().enumerate() {
                    if per_round.len() <= r {
                        per_round.resize(r + 1, Vec::new());
                    }
                    per_round[r].push(*s);
                }
            }
        }
    }
    Fig4 {
        without_sampling: without,
        with_sampling: with_s,
        round_means: per_round.iter().map(|v| mean(v)).collect(),
        initial_debug_mean: mean(&entering),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grading_bench_accepts_golden() {
        let p = mage_problems::by_id("prob001_and2").unwrap();
        assert!(grade(p, p.golden));
        assert!(!grade(
            p,
            "module top_module(input a, input b, output y); assign y = a | b; endmodule"
        ));
        assert!(!grade(p, "not even verilog"));
    }

    #[test]
    fn grading_bench_is_synthesized_once_per_problem() {
        // NB: the cache is process-global and sibling tests insert into
        // it concurrently, so assert only on this problem's entry.
        let p = mage_problems::by_id("prob010_mux2").unwrap();
        let first = grading_bench_shared(p);
        // Repeat grades and bench fetches reuse the same allocation.
        assert!(grade(p, p.golden));
        assert!(grade(p, p.golden));
        let again = grading_bench_shared(p);
        assert!(Arc::ptr_eq(&first, &again), "bench must be cached");
        // And the cached bench equals a fresh synthesis (purity).
        assert_eq!(*first, grading_bench(p));
    }

    #[test]
    fn tiny_evaluation_runs_end_to_end() {
        // 1 run over V1 at low temperature, vanilla protocol: fast.
        let opts = EvalOptions::low(SuiteId::V1Human, SystemKind::Vanilla).with_seed(1);
        let eval = evaluate_suite(&opts);
        assert_eq!(
            eval.problems.len(),
            mage_problems::suite(SuiteId::V1Human).len()
        );
        assert!(eval.pass_at_1 > 0.2, "vanilla should solve some problems");
        assert!(eval.pass_at_1 < 1.0, "vanilla must not be perfect");
        assert!(eval.usage.total() > 0);
    }

    #[test]
    fn evaluation_is_schedule_deterministic() {
        // Every (run, problem) unit is independently seeded, so two
        // evaluations — whatever the thread interleaving — must agree
        // bit-for-bit on scores, pass counts and token usage.
        let opts = EvalOptions::low(SuiteId::V1Human, SystemKind::Mage)
            .with_runs(2)
            .with_seed(11);
        let a = evaluate_suite(&opts);
        let b = evaluate_suite(&opts);
        assert_eq!(a.pass_at_1, b.pass_at_1);
        assert_eq!(a.usage.total(), b.usage.total());
        for (pa, pb) in a.problems.iter().zip(b.problems.iter()) {
            assert_eq!(pa.passing, pb.passing, "{}", pa.id);
            let fa: Vec<f64> = pa.traces.iter().map(|t| t.final_score).collect();
            let fb: Vec<f64> = pb.traces.iter().map(|t| t.final_score).collect();
            assert_eq!(fa, fb, "{}", pa.id);
        }
    }

    #[test]
    fn mage_beats_vanilla_on_small_sample() {
        let van =
            evaluate_suite(&EvalOptions::low(SuiteId::V1Human, SystemKind::Vanilla).with_seed(7));
        let mage =
            evaluate_suite(&EvalOptions::low(SuiteId::V1Human, SystemKind::Mage).with_seed(7));
        assert!(
            mage.pass_at_1 > van.pass_at_1,
            "MAGE {:.3} must beat vanilla {:.3}",
            mage.pass_at_1,
            van.pass_at_1
        );
    }
}
