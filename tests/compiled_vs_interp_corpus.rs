//! Corpus-wide differential test: every benchmark problem — and mutated
//! candidates of each — runs through the bytecode interpreter (in its
//! default and four-state configurations) and the legacy
//! tree-walking oracle in lockstep, asserting bit-identical stores
//! (every signal, four-state exact) after every poke.
//!
//! This is the guarantee that lets the compiled executor replace the
//! tree-walker as the default grading path: on the full corpus the two
//! are observationally indistinguishable, including simulation faults.

use mage::llm::mutate::{apply_mutation, sample_mutations};
use mage::logic::LogicVec;
use mage::problems::all_problems;
use mage::sim::{elaborate, Design, ExecMode, SimError, Simulator};
use mage::tb::Stimulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Drive the legacy oracle and the compiled executor's default and
/// four-state configurations through `stim` in testbench order
/// (drives, then a full clock cycle for clocked designs), comparing
/// the full store after every poke. Stops (without failing) at the
/// first simulation fault, after asserting every executor reports the
/// same fault.
fn lockstep(design: &Arc<Design>, stim: &Stimulus, label: &str) {
    let compiled = || Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
    let mut four = compiled();
    four.set_two_state(false);
    let mut fasts = [(compiled(), "compiled"), (four, "four-state")];
    let mut slow = Simulator::with_mode(Arc::clone(design), ExecMode::Legacy);
    // Apply one operation everywhere, comparing every store; `true`
    // while the simulators are fault-free.
    let mut step = |at: &str, op: &dyn Fn(&mut Simulator) -> Result<(), SimError>| -> bool {
        let rs = op(&mut slow);
        for (fast, exec) in &mut fasts {
            assert_eq!(op(fast), rs, "{label} [{exec}]: {at} diverged");
            compare_stores(design, fast, &mut slow, &format!("{label} [{exec}]"), at);
        }
        rs.is_ok()
    };
    if !step("boot settle", &|s| s.settle()) {
        return;
    }
    let clk = stim.clock.as_deref().unwrap_or_default();
    let low = |s: &mut Simulator| s.poke(clk, LogicVec::from_bool(false));
    let high = |s: &mut Simulator| s.poke(clk, LogicVec::from_bool(true));
    if stim.clock.is_some() && !step("clk boot", &low) {
        return;
    }
    for (i, drives) in stim.steps.iter().enumerate() {
        for (name, v) in drives {
            let poke = |s: &mut Simulator| s.poke(name, v.clone());
            if !step(&format!("poke {name} at step {i}"), &poke) {
                return;
            }
        }
        if stim.clock.is_some()
            && !(step(&format!("step {i} rise"), &high) && step(&format!("step {i} fall"), &low))
        {
            return;
        }
        // Interleaved settle: the wheel drains its (empty) pending-event
        // regions while the oracle re-evaluates every comb process — the
        // stores must agree either way, corpus-wide.
        if !step(&format!("settle at step {i}"), &|s| s.settle()) {
            return;
        }
    }
}

fn compare_stores(
    design: &Design,
    fast: &mut Simulator,
    slow: &mut Simulator,
    label: &str,
    at: &str,
) {
    for decl in &design.signals {
        let id = design.signal(&decl.name).expect("name resolves");
        let (f, s) = (fast.peek(id).clone(), slow.peek(id));
        assert!(
            f.case_eq(s),
            "{label} at {at}: signal `{}` diverged\n  compiled: {}\n  legacy:   {}",
            decl.name,
            f.to_binary_string(),
            s.to_binary_string(),
        );
    }
}

#[test]
fn full_corpus_golden_designs_match() {
    for p in all_problems() {
        let oracle = p.oracle(0xD1FF);
        lockstep(&oracle.golden_design, &oracle.stimulus, p.id);
    }
}

#[test]
fn full_corpus_mutated_candidates_match() {
    for (pi, p) in all_problems().iter().enumerate() {
        let oracle = p.oracle(0xD1FF);
        for k in 1..=2usize {
            let mut rng = StdRng::seed_from_u64(0x0BAD_C0DE ^ (pi as u64) << 8 ^ k as u64);
            let mut file = oracle.golden.clone();
            let top_ix = file
                .modules
                .iter()
                .position(|m| m.name == oracle.top)
                .expect("top module present");
            for m in sample_mutations(&file.modules[top_ix].clone(), k, &mut rng) {
                apply_mutation(&mut file.modules[top_ix], &m);
            }
            // Mutations keep the source parseable; elaboration can still
            // fail (e.g. a select pushed out of a parameterized range) —
            // such candidates never reach the simulator in the pipeline.
            let Ok(design) = elaborate(&file, &oracle.top) else {
                continue;
            };
            lockstep(
                &Arc::new(design),
                &oracle.stimulus,
                &format!("{} (k={k})", p.id),
            );
        }
    }
}
