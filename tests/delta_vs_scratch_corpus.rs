//! Corpus-wide delta-compilation differential test: every benchmark
//! problem's golden design — and single-edit mutants of each — is built
//! twice, from scratch ([`mage::sim::elaborate`], the reference build)
//! and by delta elaboration against a parent design
//! ([`mage::sim::elaborate_with`] over [`mage::sim::DesignUnits`]), and
//! the two builds are asserted *store-exact*: structurally identical
//! (processes, signals, bytecode, fanout index) and bit-identical under
//! simulation on all three executors (bytecode four-state, bytecode
//! with plans, legacy tree-walker) after every poke of
//! the problem's own stimulus.
//!
//! This is the guarantee that lets the serve/fleet layers reuse cached
//! process units verbatim: a delta-built design is indistinguishable
//! from a from-scratch build, so unit reuse can never change a score.
//! Fingerprint-collision and binding-change cases ride along, proving
//! the full-verify-on-hit discipline rebuilds instead of serving the
//! wrong unit.

use mage::llm::mutate::{apply_mutation, sample_mutations};
use mage::logic::LogicVec;
use mage::problems::all_problems;
use mage::sim::{
    elaborate, elaborate_delta, elaborate_with, Design, DesignUnits, ExecMode, Simulator,
};
use mage::tb::Stimulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The three executors every delta build must match its scratch twin
/// on: `(mode, two_state, label)`.
const EXECUTORS: [(ExecMode, bool, &str); 3] = [
    (ExecMode::Compiled, false, "compiled"),
    (ExecMode::Compiled, true, "compiled+2s"),
    (ExecMode::Legacy, false, "legacy"),
];

/// Assert the delta build is structurally identical to the scratch
/// build: same signals, same interpreter processes, same bytecode, same
/// fanout/trigger index. This is the "store-exact" contract at the
/// artifact level — the simulation sweep below re-proves it at runtime.
fn assert_structurally_exact(scratch: &Design, delta: &Design, label: &str) {
    assert_eq!(
        format!("{:?}", scratch.signals),
        format!("{:?}", delta.signals),
        "{label}: signal tables diverged"
    );
    assert_eq!(
        scratch.processes, delta.processes,
        "{label}: interpreter processes diverged"
    );
    assert_eq!(
        format!("{:?}", scratch.compiled()),
        format!("{:?}", delta.compiled()),
        "{label}: compiled artifacts diverged"
    );
}

/// Drive the scratch and delta designs through `stim` in lockstep on
/// one executor, comparing the full store after every poke. Stops
/// (without failing) at the first simulation fault, after asserting
/// both builds report the same fault.
fn lockstep_one(scratch: &Arc<Design>, delta: &Arc<Design>, stim: &Stimulus, label: &str) {
    for (mode, two_state, exec) in EXECUTORS {
        let label = format!("{label} [{exec}]");
        let mut a = Simulator::with_mode(Arc::clone(scratch), mode);
        let mut b = Simulator::with_mode(Arc::clone(delta), mode);
        for sim in [&mut a, &mut b] {
            sim.set_two_state(two_state);
        }
        let ra = a.settle();
        let rb = b.settle();
        assert_eq!(ra, rb, "{label}: settle diverged");
        compare_stores(scratch, &mut a, &mut b, &label, "boot");
        if ra.is_err() {
            continue;
        }
        let mut ok = true;
        let poke_both =
            |name: &str, v: LogicVec, a: &mut Simulator, b: &mut Simulator, at: &str| {
                let ra = a.poke(name, v.clone());
                let rb = b.poke(name, v);
                assert_eq!(ra, rb, "{label}: poke {name} at {at} diverged");
                compare_stores(scratch, a, b, &label, at);
                ra.is_ok()
            };
        if let Some(clk) = &stim.clock {
            ok = poke_both(clk, LogicVec::from_bool(false), &mut a, &mut b, "clk boot");
        }
        for (i, step) in stim.steps.iter().enumerate() {
            if !ok {
                break;
            }
            for (name, v) in step {
                ok = poke_both(name, v.clone(), &mut a, &mut b, &format!("step {i}"));
                if !ok {
                    break;
                }
            }
            if let Some(clk) = &stim.clock {
                if ok {
                    ok = poke_both(
                        clk,
                        LogicVec::from_bool(true),
                        &mut a,
                        &mut b,
                        &format!("step {i} rise"),
                    );
                }
                if ok {
                    ok = poke_both(
                        clk,
                        LogicVec::from_bool(false),
                        &mut a,
                        &mut b,
                        &format!("step {i} fall"),
                    );
                }
            }
            if !ok {
                break;
            }
            let ra = a.settle();
            let rb = b.settle();
            assert_eq!(ra, rb, "{label}: settle at step {i} diverged");
            compare_stores(scratch, &mut a, &mut b, &label, &format!("step {i} settle"));
            ok = ra.is_ok();
        }
    }
}

fn compare_stores(design: &Design, a: &mut Simulator, b: &mut Simulator, label: &str, at: &str) {
    for decl in &design.signals {
        let id = design.signal(&decl.name).expect("name resolves");
        let (va, vb) = (a.peek(id).clone(), b.peek(id));
        assert!(
            va.case_eq(vb),
            "{label} at {at}: signal `{}` diverged\n  scratch: {}\n  delta:   {}",
            decl.name,
            va.to_binary_string(),
            vb.to_binary_string(),
        );
    }
}

#[test]
fn full_corpus_golden_self_delta_reuses_everything() {
    // Rebuilding a design against itself as parent must reuse every
    // unit and still be store-exact — the degenerate delta.
    for p in all_problems() {
        let oracle = p.oracle(0xD1FF);
        let parent = DesignUnits::new(Arc::clone(&oracle.golden_design));
        let (delta, stats) =
            elaborate_with(&oracle.golden, &oracle.top, &parent).expect("golden re-elaborates");
        assert_eq!(
            stats.rebuilt, 0,
            "{}: self-delta rebuilt {} units",
            p.id, stats.rebuilt
        );
        assert_eq!(stats.reused, delta.processes.len(), "{}: reuse count", p.id);
        let delta = Arc::new(delta);
        assert_structurally_exact(&oracle.golden_design, &delta, p.id);
        lockstep_one(&oracle.golden_design, &delta, &oracle.stimulus, p.id);
    }
}

#[test]
fn full_corpus_single_edit_mutants_are_store_exact() {
    // A single-edit mutant delta-built against the unedited golden must
    // equal its own from-scratch build exactly — on every problem, on
    // all three executors.
    for (pi, p) in all_problems().iter().enumerate() {
        let oracle = p.oracle(0xD1FF);
        let mut rng = StdRng::seed_from_u64(0xDE17A ^ ((pi as u64) << 8));
        let mut file = oracle.golden.clone();
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == oracle.top)
            .expect("top module present");
        for m in sample_mutations(&file.modules[top_ix].clone(), 1, &mut rng) {
            apply_mutation(&mut file.modules[top_ix], &m);
        }
        // Mutations keep the source parseable; elaboration can still
        // fail (e.g. a select pushed out of range) — delta elaboration
        // must fail identically.
        let parent = DesignUnits::new(Arc::clone(&oracle.golden_design));
        let scratch = elaborate(&file, &oracle.top);
        let delta = elaborate_with(&file, &oracle.top, &parent);
        match (scratch, delta) {
            (Ok(scratch), Ok((delta, stats))) => {
                assert_eq!(
                    stats.reused + stats.rebuilt,
                    delta.processes.len(),
                    "{}: unit accounting",
                    p.id
                );
                let (scratch, delta) = (Arc::new(scratch), Arc::new(delta));
                let label = format!("{} (mutant)", p.id);
                assert_structurally_exact(&scratch, &delta, &label);
                lockstep_one(&scratch, &delta, &oracle.stimulus, &label);
            }
            (Err(es), Err(ed)) => assert_eq!(es, ed, "{}: error divergence", p.id),
            (s, d) => panic!(
                "{}: scratch and delta disagree on elaborability: scratch {:?}, delta {:?}",
                p.id,
                s.map(|_| ()),
                d.map(|_| ())
            ),
        }
    }
}

#[test]
fn fingerprint_collisions_never_serve_the_wrong_unit() {
    // Degenerate hasher: every item fingerprint and binding hash is the
    // same constant, so every parent lookup is a key hit that must be
    // rejected by full text/env verification and rebuilt. The result
    // must still match the honest from-scratch build.
    fn collide(_: &str) -> u64 {
        0x42
    }
    for p in all_problems().iter().take(8) {
        let oracle = p.oracle(0xD1FF);
        let (parent, _) = elaborate_delta(&oracle.golden, &oracle.top, None, collide)
            .expect("golden elaborates under the colliding hasher");
        let parent = Arc::new(parent);
        // A *different* source (the first other problem) probed against
        // this parent: every key collides, nothing may be served.
        let mut rng = StdRng::seed_from_u64(0xC0111DE ^ p.id.len() as u64);
        let mut file = oracle.golden.clone();
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == oracle.top)
            .expect("top module present");
        for m in sample_mutations(&file.modules[top_ix].clone(), 1, &mut rng) {
            apply_mutation(&mut file.modules[top_ix], &m);
        }
        let provider = DesignUnits::new(Arc::clone(&parent));
        let (Ok(scratch), Ok((delta, _))) = (
            elaborate(&file, &oracle.top),
            elaborate_delta(&file, &oracle.top, Some(&provider), collide),
        ) else {
            continue;
        };
        let label = format!("{} (collision)", p.id);
        assert_structurally_exact(&scratch, &delta, &label);
        lockstep_one(
            &Arc::new(scratch),
            &Arc::new(delta),
            &oracle.stimulus,
            &label,
        );
    }
}

#[test]
fn binding_change_rebuilds_and_stays_exact() {
    // Widening a wire leaves dependent items' fingerprints untouched
    // (their text is unchanged) but changes their resolved binding —
    // the parent's units must not be served, and the delta build must
    // still equal scratch on all executors.
    const BASE: &str = "module top(input clk, input a, input b, output reg q, output w);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         always @(posedge clk) q <= x;\n\
         endmodule\n";
    let widened = BASE.replace("wire x", "wire [1:0] x");
    let base = mage::verilog::parse(BASE).expect("base parses");
    let edited = mage::verilog::parse(&widened).expect("edit parses");
    let parent = Arc::new(elaborate(&base, "top").expect("base elaborates"));
    let provider = DesignUnits::new(Arc::clone(&parent));
    let scratch = Arc::new(elaborate(&edited, "top").expect("edit elaborates"));
    let (delta, stats) = elaborate_with(&edited, "top", &provider).expect("delta elaborates");
    let delta = Arc::new(delta);
    assert!(
        stats.rebuilt >= 3,
        "every reader of the widened wire must rebuild, got {stats:?}"
    );
    assert_structurally_exact(&scratch, &delta, "binding change");
    let stim = Stimulus::clocked(
        "clk",
        (0..4u64)
            .map(|i| {
                vec![
                    ("a".to_string(), LogicVec::from_bool(i & 1 != 0)),
                    ("b".to_string(), LogicVec::from_bool(i & 2 != 0)),
                ]
            })
            .collect(),
    );
    lockstep_one(&scratch, &delta, &stim, "binding change");
}
