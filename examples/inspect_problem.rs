//! Inspect one benchmark problem: its spec, golden RTL, interface,
//! synthesized checkpoint testbench, and the WF-TextLog of the golden
//! design running against it — a tour of the substrate underneath MAGE.
//!
//! ```text
//! cargo run --release --example inspect_problem [problem_id]
//! ```

use mage::problems::by_id;
use mage::sim::Simulator;
use mage::tb::textlog::render_full_log;
use mage::tb::{run_testbench, synthesize_testbench, CheckDensity};
use std::sync::Arc;

fn main() {
    let id = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "prob056_lfsr4".to_string());
    let problem = by_id(&id).unwrap_or_else(|| {
        eprintln!("unknown problem `{id}`");
        std::process::exit(1);
    });

    println!(
        "=== {} (difficulty {:.1}, {:?}) ===",
        problem.id, problem.difficulty, problem.category
    );
    println!("\n--- specification ---\n{}", problem.spec);
    println!("\n--- golden RTL ---\n{}", problem.golden);

    let oracle = problem.oracle(1);
    let design = &oracle.golden_design;
    println!("--- elaborated interface ---");
    for (n, w) in design.input_ports() {
        println!("  input  [{:>2} bits] {n}", w);
    }
    for (n, w) in design.output_ports() {
        println!("  output [{:>2} bits] {n}", w);
    }
    println!(
        "  {} signals, {} processes after flattening",
        design.signals.len(),
        design.processes.len()
    );

    let tb = Arc::new(synthesize_testbench(
        problem.id,
        design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    println!(
        "\n--- synthesized checkpoint testbench: {} steps, {} checkpoints ---",
        tb.len(),
        tb.total_checks()
    );

    let report = run_testbench(&tb, design).expect("golden matches its own interface");
    let log = render_full_log(&report);
    // Print the head of the log only; full logs can run to hundreds of lines.
    for line in log.lines().take(24) {
        println!("{line}");
    }
    println!(
        "  … ({} checkpoints total, score {:.3})",
        report.total_checks(),
        report.score()
    );

    // A peek at raw simulation too.
    let mut sim = Simulator::new(Arc::clone(design));
    sim.settle().expect("golden settles");
    println!(
        "\nall signals start at X: {}",
        design.signals.iter().all(|s| {
            sim.peek_by_name(&s.name)
                .map(|v| v.has_unknown())
                .unwrap_or(false)
        })
    );
}
