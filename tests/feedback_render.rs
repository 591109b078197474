//! Pins the feedback text: the three renderings of a bench run, its
//! score and its verdict, over a fixed probe of failing and passing runs.
//!
//! The debug agent reads only this text, and `tokens_per_job` counts it,
//! so a report or schedule change must leave it byte-identical. The probe
//! is every V2 problem's agent bench at seed 1, at both check densities,
//! run against twelve seeded mutants of the golden design (`k % 3`
//! mutations for mutant `k`); the constant fingerprints every run's
//! renderings in order.

use std::fmt::Write as _;
use std::sync::Arc;

use mage::core::compile;
use mage::llm::mutate::{apply_mutation, sample_mutations};
use mage::logic::fnv1a;
use mage::problems::{suite, SuiteId};
use mage::tb::textlog::{render_checkpoint_window, render_full_log, render_summary};
use mage::tb::{run_testbench, synthesize_testbench, CheckDensity};
use mage::verilog::print_file;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MUTANTS: u64 = 12;

/// `(digest, runs, failing runs)` of the probe.
fn probe() -> (u64, usize, usize) {
    let mut digests: Vec<u8> = Vec::new();
    let (mut runs, mut failing) = (0, 0);
    for problem in suite(SuiteId::V2) {
        let oracle = problem.oracle(1);
        let stimulus = problem.stimulus(1);
        for density in [CheckDensity::EveryStep, CheckDensity::EveryN(3)] {
            let tb = Arc::new(synthesize_testbench(
                problem.id,
                &oracle.golden_design,
                &stimulus,
                density,
            ));
            for k in 0..MUTANTS {
                let mut file = oracle.golden.clone();
                let top = file
                    .modules
                    .iter()
                    .position(|m| m.name == oracle.top)
                    .expect("top module present");
                let mut rng = StdRng::seed_from_u64(k);
                for m in sample_mutations(&file.modules[top], (k % 3) as usize, &mut rng) {
                    apply_mutation(&mut file.modules[top], &m);
                }
                let mut text = String::new();
                match compile(&print_file(&file)).map(|d| run_testbench(&tb, &d)) {
                    Err(e) => writeln!(text, "compile error: {e}").unwrap(),
                    Ok(Err(e)) => writeln!(text, "bench error: {e}").unwrap(),
                    Ok(Ok(report)) => {
                        runs += 1;
                        failing += usize::from(!report.passed());
                        text.push_str(&render_summary(&report));
                        text.push_str(&render_checkpoint_window(&report, 5));
                        text.push_str(&render_full_log(&report));
                        let score = report.score().to_bits();
                        writeln!(text, "score={score:016x} passed={}", report.passed()).unwrap();
                    }
                }
                digests.extend_from_slice(&fnv1a(text.as_bytes()).to_le_bytes());
            }
        }
    }
    (fnv1a(&digests), runs, failing)
}

#[test]
fn feedback_renders_match_pinned_hash() {
    let (digest, runs, failing) = probe();
    assert_eq!((runs, failing), (1606, 849), "probe shape");
    assert_eq!(
        digest, 0xdcda_82e7_df39_1186,
        "feedback digest {digest:#018x}"
    );
}
