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
use mage::sim::lockstep::{structurally_exact, Lockstep};
use mage::sim::{elaborate, elaborate_delta, elaborate_with, Design, DesignUnits};
use mage::tb::Stimulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Assert the delta build is store-exact against its scratch twin: the
/// same artifact (signals, interpreter processes, bytecode, fanout
/// index), then bit-identical on every executor after every operation
/// of `stim`, run in testbench order. An agreed fault ends the run.
fn assert_store_exact(scratch: &Arc<Design>, delta: &Arc<Design>, stim: &Stimulus, label: &str) {
    structurally_exact(scratch, delta).unwrap_or_else(|d| panic!("{label}: {d}"));
    Lockstep::twins(scratch, delta)
        .and_then(|mut ls| ls.drive(stim.clock(), stim.steps()))
        .unwrap_or_else(|d| panic!("{label}: {d}"));
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
        assert_store_exact(
            &oracle.golden_design,
            &Arc::new(delta),
            &oracle.stimulus,
            p.id,
        );
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
                assert_store_exact(&scratch, &delta, &oracle.stimulus, &label);
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
        let mut file = (*oracle.golden).clone();
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
        assert_store_exact(
            &Arc::new(scratch),
            &Arc::new(delta),
            &oracle.stimulus,
            &format!("{} (collision)", p.id),
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
    assert!(
        stats.rebuilt >= 3,
        "every reader of the widened wire must rebuild, got {stats:?}"
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
    assert_store_exact(&scratch, &Arc::new(delta), &stim, "binding change");
}
