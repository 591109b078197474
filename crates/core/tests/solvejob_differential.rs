//! Engine-refactor fidelity: the resumable state machine behind
//! [`Mage::solve`] must reproduce the pre-refactor blocking loop
//! ([`Mage::solve_blocking`]) **bit for bit** — same model-call
//! sequence, same prompts, same RNG consumption, same trace — for every
//! ablation protocol and both temperature configurations.
//!
//! The blocking loop is kept verbatim as the legacy path, so this suite
//! is a true differential oracle, not a golden-file snapshot.

use mage_core::{Mage, MageConfig, SolveTrace, SystemKind, Task};

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Vanilla,
    SystemKind::SingleAgent,
    SystemKind::TwoAgent,
    SystemKind::Mage,
];

/// Run both paths on one (problem, config, seed) cell with independent,
/// identically seeded models, and return the two traces.
fn both_paths(problem_id: &str, config: &MageConfig, seed: u64) -> (SolveTrace, SolveTrace) {
    let p = mage_problems::by_id(problem_id).expect("corpus problem");
    let task = Task {
        id: p.id,
        spec: p.spec,
    };

    let machine = Mage::new(&mut p.job_model(seed), config.clone()).solve(&task);
    let blocking = Mage::new(&mut p.job_model(seed), config.clone()).solve_blocking(&task);

    (machine, blocking)
}

#[test]
fn every_system_kind_matches_blocking_high_temperature() {
    // High temperature exercises the master RNG stream, so any drift in
    // call *order* (not just content) breaks equality.
    for &system in &SYSTEMS {
        for seed in [1u64, 7, 23] {
            let cfg = MageConfig::high_temperature().with_system(system);
            let (machine, blocking) = both_paths("prob012_mux4_case", &cfg, seed);
            assert_eq!(
                machine, blocking,
                "state machine diverged from blocking loop: {system:?} seed {seed}"
            );
        }
    }
}

#[test]
fn every_system_kind_matches_blocking_low_temperature() {
    for &system in &SYSTEMS {
        let cfg = MageConfig::low_temperature().with_system(system);
        let (machine, blocking) = both_paths("prob012_mux4_case", &cfg, 3);
        assert_eq!(machine, blocking, "{system:?} diverged at low temperature");
    }
}

#[test]
fn hard_problems_match_through_sampling_and_debugging() {
    // Higher-difficulty problems reach Step 4/5, covering the sampling
    // pool, dedup/selection and the accept-or-rollback debug loop.
    for problem in ["prob029_alu4", "prob044_pipeline2"] {
        for seed in [2u64, 9] {
            let cfg = MageConfig::high_temperature();
            let (machine, blocking) = both_paths(problem, &cfg, seed);
            assert_eq!(machine, blocking, "{problem} seed {seed}");
        }
    }
}

#[test]
fn context_budget_matches_blocking() {
    // Compaction mutates conversations mid-run; both paths must compact
    // identically or prompts (and thus the synthetic channel) drift.
    let cfg = MageConfig::high_temperature().with_context_budget(600);
    for seed in [4u64, 13] {
        let (machine, blocking) = both_paths("prob029_alu4", &cfg, seed);
        assert_eq!(machine, blocking, "budgeted run diverged at seed {seed}");
        assert!(machine.peak_context_tokens <= 600);
    }
}

#[test]
fn degenerate_configs_match() {
    // Corner configurations hit the state machine's edge transitions:
    // no judging, no sampling, no debugging.
    let base = MageConfig::high_temperature();
    let corners = [
        MageConfig {
            tb_regen_limit: 0,
            ..base.clone()
        },
        MageConfig {
            candidates: 0,
            ..base.clone()
        },
        MageConfig {
            max_debug_rounds: 0,
            ..base.clone()
        },
        MageConfig {
            candidates: 0,
            max_debug_rounds: 0,
            tb_regen_limit: 0,
            ..base.clone()
        },
    ];
    for (i, cfg) in corners.iter().enumerate() {
        let (machine, blocking) = both_paths("prob012_mux4_case", cfg, 5);
        assert_eq!(machine, blocking, "corner config #{i} diverged");
    }
}
