//! Engine workflow invariants, checked across protocols and seeds.

use mage::core::{compile, Mage, MageConfig, SystemKind, Task};
use mage::llm::{RtlLanguageModel, SyntheticModel, SyntheticModelConfig};
use mage::problems::by_id;

fn trace_for(system: SystemKind, difficulty_id: &str, seed: u64) -> mage::core::SolveTrace {
    let p = by_id(difficulty_id).expect("corpus problem");
    let mut model = p.job_model(seed);
    let mut engine = Mage::new(
        &mut model,
        MageConfig::high_temperature().with_system(system),
    );
    engine.solve(&Task {
        id: p.id,
        spec: p.spec,
    })
}

#[test]
fn final_never_worse_than_best_sample() {
    for seed in 0..6u64 {
        let t = trace_for(SystemKind::Mage, "prob029_alu4", seed);
        if let Some(best) = t.best_sampled_score {
            assert!(
                t.final_score >= best - 1e-9,
                "seed {seed}: final {:.3} < best sample {:.3}",
                t.final_score,
                best
            );
        }
    }
}

#[test]
fn round_means_monotone_under_rollback() {
    for seed in 0..6u64 {
        for system in [
            SystemKind::Mage,
            SystemKind::SingleAgent,
            SystemKind::TwoAgent,
        ] {
            let t = trace_for(system, "prob062_fsm_seq101", seed);
            for w in t.round_mean_scores.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{system}: rollback violated, rounds {:?}",
                    t.round_mean_scores
                );
            }
        }
    }
}

#[test]
fn vanilla_spends_fewest_tokens() {
    // Protocol cost ordering: the one-pass baseline must be the cheapest,
    // the full multi-agent workflow the most expensive, on a problem that
    // is not solved pre-sampling.
    let mut costs = Vec::new();
    for system in [SystemKind::Vanilla, SystemKind::Mage] {
        let t = trace_for(system, "prob065_fsm_lock", 4);
        costs.push((system, t.usage.total()));
    }
    assert!(
        costs[0].1 < costs[1].1,
        "vanilla must be cheaper: {costs:?}"
    );
}

#[test]
fn unknown_problem_degrades_gracefully() {
    // The channel knows nothing about this id; the engine must finish
    // with an (unparseable) answer rather than panic, and grading fails.
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 1);
    let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
    let t = engine.solve(&Task {
        id: "prob999_not_registered",
        spec: "does not exist",
    });
    assert!(compile(&t.final_source).is_err());
    assert_eq!(t.final_score, 0.0);
}

#[test]
fn model_reports_name_and_interface() {
    let model = SyntheticModel::new(SyntheticModelConfig::default(), 0);
    assert!(model.name().contains("synthetic"));
}
