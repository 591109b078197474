//! Property tests over the mutation engine: every enumerated mutation of
//! every corpus golden module must apply cleanly, keep the module
//! syntactically valid and elaborable, and the mutated candidate must be
//! scoreable by the full testbench pipeline.

use mage_llm::mutate::{apply_mutation, enumerate_mutations, sample_mutations, site_exists};
use mage_problems::all_problems;
use mage_sim::elaborate;
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity};
use mage_verilog::{parse_module, print_file, print_module};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn every_corpus_mutation_applies_and_stays_compilable() {
    for p in all_problems() {
        let file = p.golden_file();
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == p.top)
            .expect("top module");
        let module = &file.modules[top_ix];
        for mu in enumerate_mutations(module) {
            assert!(site_exists(module, &mu), "{}: stale site {mu:?}", p.id);
            let mut mutated_file = file.clone();
            assert!(
                apply_mutation(&mut mutated_file.modules[top_ix], &mu),
                "{}: failed to apply {mu:?}",
                p.id
            );
            let printed = print_file(&mutated_file);
            let reparsed = mage_verilog::parse(&printed)
                .unwrap_or_else(|e| panic!("{}: {mu:?} broke syntax: {e}\n{printed}", p.id));
            // Elaboration may legitimately fail for some mutations (e.g.
            // a select pushed out of range is impossible by construction,
            // but width-changing swaps can break instances) — what it
            // must never do is panic.
            let _ = elaborate(&reparsed, p.top);
        }
    }
}

#[test]
fn mutated_candidates_are_scoreable() {
    // For a sample of problems, apply random mutations and confirm the
    // full scoring pipeline yields a score in [0, 1].
    let mut rng = StdRng::seed_from_u64(0x5C0);
    for p in all_problems().into_iter().step_by(5) {
        let oracle = p.oracle(3);
        let tb = Arc::new(synthesize_testbench(
            p.id,
            &oracle.golden_design,
            &oracle.stimulus,
            CheckDensity::EveryStep,
        ));
        for k in 1..=3usize {
            let mut file = p.golden_file();
            let top_ix = file
                .modules
                .iter()
                .position(|m| m.name == p.top)
                .expect("top module");
            for mu in sample_mutations(&file.modules[top_ix].clone(), k, &mut rng) {
                apply_mutation(&mut file.modules[top_ix], &mu);
            }
            let Ok(design) = elaborate(&file, p.top) else {
                continue; // legitimately broken candidate
            };
            let Ok(report) = run_testbench(&tb, &Arc::new(design)) else {
                continue;
            };
            let s = report.score();
            assert!((0.0..=1.0).contains(&s), "{}: score {s} out of range", p.id);
        }
    }
}

// Strategy: pick a (problem index, mutation index, second mutation) to
// exercise mutation composition from a reproducible space.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutation_composition_never_panics(
        problem_ix in 0usize..60,
        seed in any::<u64>(),
        count in 1usize..5,
    ) {
        let all = all_problems();
        let p = all[problem_ix % all.len()];
        let mut file = p.golden_file();
        let top_ix = file
            .modules
            .iter()
            .position(|m| m.name == p.top)
            .expect("top module");
        let mut rng = StdRng::seed_from_u64(seed);
        for mu in sample_mutations(&file.modules[top_ix].clone(), count, &mut rng) {
            // Stale sites (invalidated by earlier mutations) must be
            // rejected gracefully, never panic.
            let _ = apply_mutation(&mut file.modules[top_ix], &mu);
        }
        let printed = print_module(&file.modules[top_ix]);
        prop_assert!(parse_module(&printed).is_ok(), "syntax broke:\n{printed}");
    }

    #[test]
    fn single_mutation_usually_changes_behavior(problem_ix in 0usize..60, seed in any::<u64>()) {
        // A semantic mutation should usually change simulated behaviour;
        // verify the *pipeline* classifies each candidate consistently:
        // identical AST => identical score.
        let all = all_problems();
        let p = all[problem_ix % all.len()];
        let oracle = p.oracle(1);
        let tb = Arc::new(synthesize_testbench(
            p.id,
            &oracle.golden_design,
            &oracle.stimulus,
            CheckDensity::EveryStep,
        ));
        let mut file = p.golden_file();
        let top_ix = file.modules.iter().position(|m| m.name == p.top).expect("top");
        let mut rng = StdRng::seed_from_u64(seed);
        let muts = sample_mutations(&file.modules[top_ix].clone(), 1, &mut rng);
        prop_assume!(!muts.is_empty());
        apply_mutation(&mut file.modules[top_ix], &muts[0]);
        if let Ok(d) = elaborate(&file, p.top) {
            let d = Arc::new(d);
            if let (Ok(r1), Ok(r2)) = (run_testbench(&tb, &d), run_testbench(&tb, &d)) {
                prop_assert_eq!(r1.records(), r2.records(), "scoring must be deterministic");
            }
        }
    }
}
