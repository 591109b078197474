//! Shared helpers for the MAGE benchmark harnesses.
//!
//! Each bench target regenerates one table or figure of the paper: it
//! prints the reproduced artifact once (with paper-reported values beside
//! the measured ones), then lets Criterion measure a representative
//! kernel so `cargo bench` also yields meaningful timing data.

use mage_core::experiments::{evaluate_suite, EvalOptions};
use mage_core::{Mage, MageConfig, SystemKind, Task};
use mage_problems::SuiteId;

/// Evaluation runs used by the bench harnesses for the n = 20 configs.
/// Scaled down so `cargo bench` completes in minutes; the examples run
/// the full protocol.
pub const BENCH_RUNS_HIGH: usize = 6;

/// Evaluation runs for the Low-T (paper n = 1) configs; a few extra runs
/// reduce seed variance in the printed tables.
pub const BENCH_RUNS_LOW: usize = 4;

/// Master seed of every bench harness.
pub const BENCH_SEED: u64 = 0xBE;

/// One full MAGE solve of a mid-difficulty problem — the kernel measured
/// by most bench targets.
pub fn solve_one_kernel(seed: u64) -> f64 {
    let p = mage_problems::by_id("prob012_mux4_case").expect("corpus problem");
    let mut model = p.job_model(seed);
    let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
    engine
        .solve(&Task {
            id: p.id,
            spec: p.spec,
        })
        .final_score
}

/// A small suite evaluation (first few problems) used as a heavier
/// kernel in the table benches.
pub fn mini_suite_kernel(seed: u64) -> f64 {
    evaluate_suite(
        &EvalOptions::low(SuiteId::V1Human, SystemKind::Mage)
            .with_runs(1)
            .with_seed(seed),
    )
    .pass_at_1
}
