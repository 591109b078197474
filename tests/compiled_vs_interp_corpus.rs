//! Corpus-wide differential test: every benchmark problem — and mutated
//! candidates of each — runs through the bytecode interpreter (in its
//! default and four-state configurations) and the legacy
//! tree-walking oracle in lockstep (`mage::sim::lockstep`), asserting
//! bit-identical stores (every signal, four-state exact) after every
//! poke.
//!
//! This is the guarantee that lets the compiled executor replace the
//! tree-walker as the default grading path: on the full corpus the two
//! are observationally indistinguishable, including simulation faults.

use mage::llm::mutate::{apply_mutation, sample_mutations};
use mage::problems::all_problems;
use mage::sim::elaborate;
use mage::sim::lockstep::Lockstep;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn full_corpus_golden_designs_match() {
    for p in all_problems() {
        let oracle = p.oracle(0xD1FF);
        let stim = &oracle.stimulus;
        Lockstep::new(&oracle.golden_design)
            .drive(stim.clock(), stim.steps())
            .unwrap_or_else(|d| panic!("{}: {d}", p.id));
    }
}

#[test]
fn full_corpus_mutated_candidates_match() {
    for (pi, p) in all_problems().iter().enumerate() {
        let oracle = p.oracle(0xD1FF);
        for k in 1..=2usize {
            let mut rng = StdRng::seed_from_u64(0x0BAD_C0DE ^ (pi as u64) << 8 ^ k as u64);
            let mut file = (*oracle.golden).clone();
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
            let stim = &oracle.stimulus;
            Lockstep::new(&Arc::new(design))
                .drive(stim.clock(), stim.steps())
                .unwrap_or_else(|d| panic!("{} (k={k}): {d}", p.id));
        }
    }
}
