//! Corpus-wide plan differential test: every benchmark problem's golden
//! design — and single-edit mutants of each — is driven through its own
//! stimulus on two simulators over the *same* design, one with plan
//! dispatch on (the default, the superinstruction/cascade path) and one
//! with it off ([`ExecMode::FourState`], the four-state interpreter),
//! and the two runs are asserted *store-exact* after every poke.
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
use mage::sim::{elaborate, elaborate_with, Design, DesignUnits, ExecMode, Simulator};
use mage::tb::Stimulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Drive one design through `stim` on a simulator with plans and a
/// four-state one in lockstep, comparing the full store after every
/// poke. Returns the planned simulator's final counters. Stops
/// (without failing) at the first simulation fault, after asserting
/// both runs report it identically.
fn lockstep_fused(design: &Arc<Design>, stim: &Stimulus, label: &str) -> mage::sim::EvalCounts {
    let mut fused = Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
    let mut plain = Simulator::with_mode(Arc::clone(design), ExecMode::FourState);
    let ra = fused.settle();
    let rb = plain.settle();
    assert_eq!(ra, rb, "{label}: settle diverged");
    compare_stores(design, &mut fused, &mut plain, label, "boot");
    if ra.is_ok() {
        let mut ok = true;
        let poke_both =
            |name: &str, v: LogicVec, a: &mut Simulator, b: &mut Simulator, at: &str| {
                let ra = a.poke(name, v.clone());
                let rb = b.poke(name, v);
                assert_eq!(ra, rb, "{label}: poke {name} at {at} diverged");
                compare_stores(design, a, b, label, at);
                ra.is_ok()
            };
        if let Some(clk) = stim.clock() {
            ok = poke_both(
                clk,
                LogicVec::from_bool(false),
                &mut fused,
                &mut plain,
                "clk boot",
            );
        }
        for (i, step) in stim.steps().enumerate() {
            if !ok {
                break;
            }
            for (name, v) in step {
                ok = poke_both(
                    name,
                    v.clone(),
                    &mut fused,
                    &mut plain,
                    &format!("step {i}"),
                );
                if !ok {
                    break;
                }
            }
            if let Some(clk) = stim.clock() {
                if ok {
                    ok = poke_both(
                        clk,
                        LogicVec::from_bool(true),
                        &mut fused,
                        &mut plain,
                        &format!("step {i} rise"),
                    );
                }
                if ok {
                    ok = poke_both(
                        clk,
                        LogicVec::from_bool(false),
                        &mut fused,
                        &mut plain,
                        &format!("step {i} fall"),
                    );
                }
            }
            if !ok {
                break;
            }
            let ra = fused.settle();
            let rb = plain.settle();
            assert_eq!(ra, rb, "{label}: settle at step {i} diverged");
            compare_stores(design, &mut fused, &mut plain, label, &format!("step {i}"));
            ok = ra.is_ok();
        }
    }
    let counts = fused.eval_counts();
    let plain_counts = plain.eval_counts();
    assert_eq!(
        plain_counts.two_state_evals, 0,
        "{label}: the four-state reference must never dispatch a plan"
    );
    assert!(
        counts.plan_steps <= counts.plan_unfused_steps,
        "{label}: a fused op can never cover less than one instruction"
    );
    counts
}

fn compare_stores(design: &Design, a: &mut Simulator, b: &mut Simulator, label: &str, at: &str) {
    for decl in &design.signals {
        let id = design.signal(&decl.name).expect("name resolves");
        let (va, vb) = (a.peek(id).clone(), b.peek(id));
        assert!(
            va.case_eq(vb),
            "{label} at {at}: signal `{}` diverged\n  plans:      {}\n  four-state: {}",
            decl.name,
            va.to_binary_string(),
            vb.to_binary_string(),
        );
    }
}

#[test]
fn full_corpus_fused_is_store_exact_against_unfused() {
    let mut corpus_plan_evals = 0u64;
    for p in all_problems() {
        let oracle = p.oracle(0xF05E);
        let counts = lockstep_fused(&oracle.golden_design, &oracle.stimulus, p.id);
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
        lockstep_fused(&scratch, &oracle.stimulus, &format!("{} (mutant)", p.id));
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
        assert_eq!(
            format!("{:?}", scratch.compiled()),
            format!("{:?}", delta.compiled()),
            "{}: delta-built plans/cascades diverged from scratch",
            p.id
        );
        if stats.rebuilt == 0 {
            assert_eq!(
                stats.plan_invalidations, 0,
                "{}: nothing rebuilt, nothing to invalidate",
                p.id
            );
        }
        let label = format!("{} (mutant, delta)", p.id);
        lockstep_fused(&delta, &oracle.stimulus, &label);
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
    assert_eq!(
        format!("{:?}", scratch.compiled()),
        format!("{:?}", delta.compiled()),
        "rebuilt cascades must equal a from-scratch compile's"
    );
    let stim = Stimulus::clocked(
        "clk",
        (0..4u64).map(|i| {
            [
                ("a", LogicVec::from_bool(i & 1 != 0)),
                ("b", LogicVec::from_bool(i & 2 != 0)),
            ]
        }),
    );
    lockstep_fused(&delta, &stim, "invalidation");
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
    let mut fused = Simulator::with_mode(Arc::clone(&design), ExecMode::Compiled);
    let mut plain = Simulator::with_mode(Arc::clone(&design), ExecMode::FourState);
    let design_ref = Arc::clone(&design);
    let poke_both =
        move |name: &str, v: LogicVec, a: &mut Simulator, b: &mut Simulator, at: &str| {
            a.poke(name, v.clone()).expect("poke");
            b.poke(name, v).expect("poke");
            compare_stores(&design_ref, a, b, "eligibility", at);
        };
    fused.settle().expect("settle");
    plain.settle().expect("settle");
    // Defined phase: the cascade runs its plans.
    poke_both("a", LogicVec::from_bool(true), &mut fused, &mut plain, "a1");
    poke_both("b", LogicVec::from_bool(true), &mut fused, &mut plain, "b1");
    let defined = fused.eval_counts();
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
    poke_both("a", LogicVec::all_x(1), &mut fused, &mut plain, "aX");
    let during_x = fused.eval_counts();
    assert_eq!(
        during_x.two_state_evals, defined.two_state_evals,
        "an undefined read set must not dispatch plans"
    );
    assert!(
        during_x.comb_evals > defined.comb_evals,
        "the X pokes must have evaluated something (four-state)"
    );
    // Recovery: defined inputs again, plan dispatch resumes.
    poke_both(
        "a",
        LogicVec::from_bool(false),
        &mut fused,
        &mut plain,
        "a0",
    );
    poke_both("b", LogicVec::from_bool(true), &mut fused, &mut plain, "b1");
    let recovered = fused.eval_counts();
    assert!(
        recovered.two_state_evals > during_x.two_state_evals,
        "plan dispatch must resume once the unknown clears"
    );
}
