//! Quickstart: run the full MAGE workflow on one benchmark problem and
//! print the engine's narrative — the optimized testbench, the sampled
//! candidate scores, the debug rounds, and the final Verilog.
//!
//! ```text
//! cargo run --release --example quickstart [problem_id]
//! ```

use mage::core::experiments::grading_bench_shared;
use mage::core::{compile, Mage, MageConfig, Task};
use mage::llm::{SyntheticModel, SyntheticModelConfig};
use mage::problems::by_id;
use mage::tb::run_testbench;
use mage::tb::textlog::render_full_log;

fn main() {
    let id = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "prob093_ece241_2014_q3".to_string());
    let problem = by_id(&id).unwrap_or_else(|| {
        eprintln!("unknown problem `{id}`; available:");
        for p in mage::problems::all_problems() {
            eprintln!("  {}", p.id);
        }
        std::process::exit(1);
    });

    println!("=== MAGE quickstart: {} ===", problem.id);
    println!("Spec: {}\n", problem.spec);

    let seed = 0xC0FFEE;
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), seed);
    model.register(problem.id, problem.oracle(seed));

    let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
    let trace = engine.solve(&Task {
        id: problem.id,
        spec: problem.spec,
    });

    println!("--- engine trace ---");
    println!("initial candidate score: {:?}", trace.initial_score);
    println!("solved before sampling:  {}", trace.solved_pre_sampling);
    println!("sampled scores:          {:?}", trace.sampled_scores);
    println!("debug round means:       {:?}", trace.round_mean_scores);
    println!("testbench regenerations: {}", trace.tb_regens);
    println!(
        "token usage:             {} prompt + {} completion",
        trace.usage.prompt, trace.usage.completion
    );
    println!(
        "\n--- final RTL (score {:.3}) ---\n{}",
        trace.final_score, trace.final_source
    );

    // Grade the answer against the benchmark's reference bench, like the
    // evaluation harness does.
    let grading = grading_bench_shared(problem);
    match compile(&trace.final_source) {
        Ok(design) => {
            let report = run_testbench(&grading, &design).expect("interface matches");
            println!("--- grading vs benchmark testbench ---");
            println!(
                "{} ({} checks, score {:.3})",
                if report.passed() { "PASSED" } else { "FAILED" },
                report.total_checks(),
                report.score()
            );
            if !report.passed() {
                println!("\n{}", render_full_log(&report));
            }
        }
        Err(e) => println!("final source does not compile: {e}"),
    }
}
