//! Cross-crate integration tests: the full MAGE pipeline from natural
//! language spec to graded Verilog, spanning every workspace crate.

use mage::core::experiments::{evaluate_suite, grade, EvalOptions};
use mage::core::{compile, Mage, MageConfig, SystemKind, Task};
use mage::llm::{SyntheticModel, SyntheticModelConfig};
use mage::problems::{by_id, suite, SuiteId};
use mage::tb::{run_testbench, synthesize_testbench, CheckDensity};
use std::sync::Arc;

#[test]
fn solve_and_grade_one_problem_end_to_end() {
    let problem = by_id("prob022_fulladd").expect("corpus problem");
    let seed = 0xE2E;
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), seed);
    model.register(problem.id, problem.oracle(seed));
    let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
    let trace = engine.solve(&Task {
        id: problem.id,
        spec: problem.spec,
    });
    assert!(trace.final_score > 0.9, "full adder should be solved");
    assert!(grade(problem, &trace.final_source), "grading must concur");
    assert!(trace.usage.total() > 0, "token accounting must be live");
}

#[test]
fn engine_is_deterministic_given_seed() {
    let problem = by_id("prob029_alu4").expect("corpus problem");
    let solve = || {
        let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 0xD7);
        model.register(problem.id, problem.oracle(0xD7));
        let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
        engine
            .solve(&Task {
                id: problem.id,
                spec: problem.spec,
            })
            .final_source
    };
    assert_eq!(solve(), solve(), "same seed, same run");
}

#[test]
fn final_sources_always_target_the_right_module() {
    // Whatever the engine produces must either fail to compile or expose
    // the problem's interface.
    for id in ["prob010_mux2", "prob040_dff", "prob070_ripple4"] {
        let problem = by_id(id).expect("corpus problem");
        let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 5);
        model.register(problem.id, problem.oracle(5));
        let mut engine = Mage::new(&mut model, MageConfig::low_temperature());
        let trace = engine.solve(&Task {
            id: problem.id,
            spec: problem.spec,
        });
        if let Ok(design) = compile(&trace.final_source) {
            let oracle = problem.oracle(5);
            assert_eq!(
                design.input_ports(),
                oracle.golden_design.input_ports(),
                "{id}: inputs"
            );
            assert_eq!(
                design.output_ports(),
                oracle.golden_design.output_ports(),
                "{id}: outputs"
            );
        }
    }
}

#[test]
fn ablation_ordering_holds_on_a_seed_batch() {
    // The paper's headline ordering (Table III): vanilla < single < multi.
    // One seed batch with a few runs is enough to see the ordering.
    let runs = 2;
    let ev = |system| {
        evaluate_suite(
            &EvalOptions::low(SuiteId::V2, system)
                .with_runs(runs)
                .with_seed(0x0B5),
        )
        .pass_at_1
    };
    let vanilla = ev(SystemKind::Vanilla);
    let single = ev(SystemKind::SingleAgent);
    let multi = ev(SystemKind::Mage);
    assert!(
        vanilla < single && single <= multi,
        "ordering violated: vanilla {vanilla:.3}, single {single:.3}, multi {multi:.3}"
    );
}

#[test]
fn graded_bench_rejects_subtle_bugs() {
    // The benchmark bench must catch a one-term bug that a short random
    // bench might miss.
    let problem = by_id("prob093_ece241_2014_q3").expect("corpus problem");
    let buggy = "module top_module(input c, input d, output reg [3:0] mux_in);
      always @(*) begin
        mux_in[0] = (~c & d) | (c & ~d);
        mux_in[1] = 1'b0;
        mux_in[2] = (~c & ~d) | (c & ~d);
        mux_in[3] = c & d;
      end
    endmodule";
    assert!(!grade(problem, buggy));
    assert!(grade(problem, problem.golden));
}

#[test]
fn every_problem_solves_under_zero_noise() {
    // With a perfectly competent channel the engine must solve the whole
    // corpus: any failure is an engine/substrate bug, not model noise.
    let cfg = SyntheticModelConfig {
        base_bug_rate: 0.0,
        syntax_error_rate: 0.0,
        tb_error_rate: 0.0,
        tb_error_rate_retry: 0.0,
        tb_weak_rate: 0.0,
        miscomprehension_rate: 0.0,
        ..SyntheticModelConfig::default()
    };
    for problem in suite(SuiteId::V2) {
        let mut model = SyntheticModel::new(cfg.clone(), 9);
        model.register(problem.id, problem.oracle(9));
        let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
        let trace = engine.solve(&Task {
            id: problem.id,
            spec: problem.spec,
        });
        assert!(
            grade(problem, &trace.final_source),
            "{} failed under a zero-noise channel",
            problem.id
        );
    }
}

#[test]
fn checkpoint_bench_catches_wrong_edge_bugs() {
    // Regression: checks sampled mid-cycle make EdgeFlip observable.
    let problem = by_id("prob040_dff").expect("corpus problem");
    let oracle = problem.oracle(3);
    let tb = Arc::new(synthesize_testbench(
        problem.id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    let flipped = compile(
        "module top_module(input clk, input rst, input d, output reg q);
           always @(negedge clk) begin
             if (rst) q <= 1'b0;
             else q <= d;
           end
         endmodule",
    )
    .expect("compiles");
    let report = run_testbench(&tb, &flipped).expect("interface matches");
    assert!(!report.passed(), "negedge bug must be observable");
}
