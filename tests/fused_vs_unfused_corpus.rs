//! Corpus-wide plan differential test: every benchmark problem's golden
//! design — and single-edit mutants of each — is driven through its own
//! stimulus on every executor over the *same* design, plan dispatch on
//! (the default, the superinstruction/cascade path) held against the
//! four-state interpreter ([`ExecMode::FourState`]) and the tree-walker,
//! and the runs are asserted *store-exact* after every poke.
//!
//! Plan-invalidation and eligibility-loss cases ride along: a delta
//! rebuild must drop every cascade plan whose closure contains the
//! rebuilt unit (and report it through `DeltaStats`), and
//! a process whose inputs go to `X` mid-run must fall off its plan
//! (run four-state, store-exact) and climb back on when the unknown
//! clears.

use mage::llm::mutate::{apply_mutation, sample_mutations};
use mage::logic::LogicVec;
use mage::problems::all_problems;
use mage::sim::lockstep::{structurally_exact, Lockstep};
use mage::sim::{elaborate, elaborate_with, Design, DesignUnits, EvalCounts, ExecMode, Simulator};
use mage::tb::Stimulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Drive one design through `stim` on every executor in lockstep,
/// comparing the full store after every operation, and return the
/// planned simulator's final counters. An agreed fault ends the run.
fn plan_counts(design: &Arc<Design>, stim: &Stimulus, label: &str) -> EvalCounts {
    let mut ls = Lockstep::new(design);
    ls.drive(stim.clock(), stim.steps())
        .unwrap_or_else(|d| panic!("{label}: {d}"));
    assert_eq!(
        ls.sim(ExecMode::FourState).eval_counts().two_state_evals,
        0,
        "{label}: the four-state reference must never dispatch a plan"
    );
    let counts = ls.sim(ExecMode::Compiled).eval_counts();
    assert!(
        counts.plan_steps <= counts.plan_unfused_steps,
        "{label}: a fused op can never cover less than one instruction"
    );
    counts
}

#[test]
fn full_corpus_fused_is_store_exact_against_unfused() {
    let mut corpus_plan_evals = 0u64;
    for p in all_problems() {
        let oracle = p.oracle(0xF05E);
        let counts = plan_counts(&oracle.golden_design, &oracle.stimulus, p.id);
        corpus_plan_evals += counts.two_state_evals;
    }
    // The corpus is dominated by narrow kernels: plans must actually
    // carry the runs, not vacuously match.
    assert!(
        corpus_plan_evals > 0,
        "no plan dispatch anywhere in the corpus"
    );
}

#[test]
fn full_corpus_single_edit_mutants_fused_exact() {
    for (pi, p) in all_problems().iter().enumerate() {
        let oracle = p.oracle(0xF05E);
        let mut rng = StdRng::seed_from_u64(0xF15ED ^ ((pi as u64) << 8));
        let mut file = (*oracle.golden).clone();
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == oracle.top)
            .expect("top module present");
        for m in sample_mutations(&file.modules[top_ix].clone(), 1, &mut rng) {
            apply_mutation(&mut file.modules[top_ix], &m);
        }
        // Mutations keep the source parseable; elaboration can still
        // fail (e.g. a select pushed out of range) — skip those, the
        // delta suite covers error parity.
        let Ok(scratch) = elaborate(&file, &oracle.top) else {
            continue;
        };
        let scratch = Arc::new(scratch);
        plan_counts(&scratch, &oracle.stimulus, &format!("{} (mutant)", p.id));
        // The delta-built twin carries the parent's reused plans
        // verbatim plus freshly built ones — it must behave identically
        // to its scratch build under fused dispatch (the
        // plan-invalidation path: rebuilt units drop and rebuild every
        // cascade containing them).
        let parent = DesignUnits::new(Arc::clone(&oracle.golden_design));
        let Ok((delta, stats)) = elaborate_with(&file, &oracle.top, &parent) else {
            continue;
        };
        let delta = Arc::new(delta);
        structurally_exact(&scratch, &delta).unwrap_or_else(|d| {
            panic!(
                "{}: delta-built plans/cascades diverged from scratch: {d}",
                p.id
            )
        });
        if stats.rebuilt == 0 {
            assert_eq!(
                stats.plan_invalidations, 0,
                "{}: nothing rebuilt, nothing to invalidate",
                p.id
            );
        }
        let label = format!("{} (mutant, delta)", p.id);
        plan_counts(&delta, &oracle.stimulus, &label);
    }
}

#[test]
fn rebuilt_unit_drops_every_cascade_plan_containing_it() {
    // `x` feeds `w` (comb) and `q` (seq): the `assign x` root's cascade
    // contains the `assign w` process. Editing `w`'s process rebuilds
    // one unit and must drop every cascade whose closure contains it —
    // both roots' plans here — while the untouched `x` unit is reused.
    const BASE: &str = "module top(input clk, input a, input b, output reg q, output w);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         always @(posedge clk) q <= x;\n\
         endmodule\n";
    let edited_src = BASE.replace("x | a", "x ^ a");
    let base = mage::verilog::parse(BASE).expect("base parses");
    let edited = mage::verilog::parse(&edited_src).expect("edit parses");
    let parent = Arc::new(elaborate(&base, "top").expect("base elaborates"));
    assert!(
        !parent.compiled().cascades.is_empty(),
        "the x→w chain must form at least one cascade"
    );
    let provider = DesignUnits::new(Arc::clone(&parent));
    let (delta, stats) = elaborate_with(&edited, "top", &provider).expect("delta elaborates");
    let delta = Arc::new(delta);
    assert!(stats.reused >= 1, "the untouched `assign x` unit reuses");
    assert!(stats.rebuilt >= 1, "the edited `assign w` unit rebuilds");
    assert!(
        stats.plan_invalidations >= 2,
        "every cascade containing the rebuilt unit must drop its plan \
         (x-root and w-root both contain it), got {stats:?}"
    );
    // The rebuilt plans are exactly a scratch build's.
    let scratch = Arc::new(elaborate(&edited, "top").expect("edit elaborates"));
    structurally_exact(&scratch, &delta)
        .unwrap_or_else(|d| panic!("rebuilt cascades must equal a from-scratch compile's: {d}"));
    let stim = Stimulus::clocked(
        "clk",
        (0..4u64).map(|i| {
            [
                ("a", LogicVec::from_bool(i & 1 != 0)),
                ("b", LogicVec::from_bool(i & 2 != 0)),
            ]
        }),
    );
    plan_counts(&delta, &stim, "invalidation");
}

#[test]
fn mid_run_eligibility_loss_bails_and_recovers_exactly() {
    // An `X` poked into a cascade's read set must knock every affected
    // process off its plan (the whole-cascade definedness gate fails,
    // the per-process dispatch gate fails, four-state values propagate
    // the unknown), with the store still exact against the four-state
    // reference — and plan dispatch must resume once the unknown
    // clears.
    const SRC: &str = "module top(input a, input b, output w, output v);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         assign v = x ^ b;\n\
         endmodule\n";
    let file = mage::verilog::parse(SRC).expect("parses");
    let design = Arc::new(elaborate(&file, "top").expect("elaborates"));
    let mut ls = Lockstep::new(&design);
    assert_eq!(ls.op("boot settle", Simulator::settle), Ok(Ok(())));
    // Poke on every executor; the planned simulator's counters after it.
    let mut poke = |name: &str, v: LogicVec, at: &str| {
        assert_eq!(ls.op(at, |s| s.poke(name, v.clone())), Ok(Ok(())));
        ls.sim(ExecMode::Compiled).eval_counts()
    };
    // Defined phase: the cascade runs its plans.
    poke("a", LogicVec::from_bool(true), "a1");
    let defined = poke("b", LogicVec::from_bool(true), "b1");
    assert!(
        defined.two_state_evals > 0,
        "defined inputs must dispatch plans"
    );
    // X phase: with `a` unknown and `b` held at 1, the unknown reaches
    // every read set (`x = a&1 = X`, so `w` and `v` read `X` too) — the
    // cascade gate and every per-process dispatch gate fail, everything
    // runs four-state, and the store stays exact. (Recovery is
    // per-process: a member whose own reads clear runs its plan again
    // on its own, which is why `b` must stay high here — `b=0` would
    // force `x` to a defined 0 and legitimately put `v` back on its
    // plan.)
    let during_x = poke("a", LogicVec::all_x(1), "aX");
    assert_eq!(
        during_x.two_state_evals, defined.two_state_evals,
        "an undefined read set must not dispatch plans"
    );
    assert!(
        during_x.comb_evals > defined.comb_evals,
        "the X pokes must have evaluated something (four-state)"
    );
    // Recovery: defined inputs again, plan dispatch resumes.
    poke("a", LogicVec::from_bool(false), "a0");
    let recovered = poke("b", LogicVec::from_bool(true), "b1");
    assert!(
        recovered.two_state_evals > during_x.two_state_evals,
        "plan dispatch must resume once the unknown clears"
    );
}
