//! Micro-benchmarks of the substrate kernels: parsing, elaboration,
//! simulation, scoring and mutation — the operations every MAGE
//! experiment is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use mage_llm::mutate::{enumerate_mutations, sample_mutations};
use mage_problems::by_id;
use mage_sim::{elaborate, ExecMode, Simulator};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const ALU_SRC: &str = include_str!("alu_kernel.v");

fn run(c: &mut Criterion) {
    c.bench_function("parse_alu_module", |b| {
        b.iter(|| std::hint::black_box(mage_verilog::parse(ALU_SRC).expect("parses")))
    });

    let file = mage_verilog::parse(ALU_SRC).expect("parses");
    c.bench_function("elaborate_alu", |b| {
        b.iter(|| std::hint::black_box(elaborate(&file, "top_module").expect("elaborates")))
    });

    let design = Arc::new(elaborate(&file, "top_module").expect("elaborates"));
    c.bench_function("simulate_alu_256_vectors", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(Arc::clone(&design));
            sim.settle().expect("settles");
            for i in 0..256u64 {
                sim.poke("a", mage_logic::LogicVec::from_u64(4, i & 0xF))
                    .unwrap();
                sim.poke("b", mage_logic::LogicVec::from_u64(4, (i >> 4) & 0xF))
                    .unwrap();
                sim.poke("op", mage_logic::LogicVec::from_u64(3, i % 8))
                    .unwrap();
                std::hint::black_box(sim.peek_by_name("r"));
            }
        })
    });

    // Full combinational settle of an already-built simulator: the
    // fixpoint loop with every comb process re-evaluated once.
    c.bench_function("sim_settle", |b| {
        let mut sim = Simulator::new(Arc::clone(&design));
        sim.settle().expect("settles");
        b.iter(|| sim.settle().expect("settles"))
    });

    // Compile once, execute many: one simulator (bytecode compiled at
    // construction) reused across the whole vector sweep — the shape of
    // the grading loop's inner kernel.
    c.bench_function("compile_once_run_many", |b| {
        let mut sim = Simulator::new(Arc::clone(&design));
        sim.settle().expect("settles");
        b.iter(|| {
            for i in 0..256u64 {
                sim.poke("a", mage_logic::LogicVec::from_u64(4, i & 0xF))
                    .unwrap();
                sim.poke("b", mage_logic::LogicVec::from_u64(4, (i >> 4) & 0xF))
                    .unwrap();
                sim.poke("op", mage_logic::LogicVec::from_u64(3, i % 8))
                    .unwrap();
                std::hint::black_box(sim.peek_by_name("r"));
            }
        })
    });

    // The same sweep on the legacy tree-walking oracle, so the
    // compiled-vs-interpreted ratio is visible straight from the bench
    // listing.
    c.bench_function("compile_once_run_many_legacy_oracle", |b| {
        let mut sim = Simulator::with_mode(Arc::clone(&design), ExecMode::Legacy);
        sim.settle().expect("settles");
        b.iter(|| {
            for i in 0..256u64 {
                sim.poke("a", mage_logic::LogicVec::from_u64(4, i & 0xF))
                    .unwrap();
                sim.poke("b", mage_logic::LogicVec::from_u64(4, (i >> 4) & 0xF))
                    .unwrap();
                sim.poke("op", mage_logic::LogicVec::from_u64(3, i % 8))
                    .unwrap();
                std::hint::black_box(sim.peek_by_name("r"));
            }
        })
    });

    let p = by_id("prob029_alu4").expect("registered");
    let oracle = p.oracle(1);
    let tb = Arc::new(synthesize_testbench(
        p.id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    c.bench_function("score_candidate_vs_bench", |b| {
        b.iter(|| std::hint::black_box(run_testbench(&tb, &oracle.golden_design).expect("runs")))
    });

    let module = file.module("top_module").expect("top").clone();
    c.bench_function("enumerate_mutations_alu", |b| {
        b.iter(|| std::hint::black_box(enumerate_mutations(&module)))
    });

    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("sample_and_apply_mutations", |b| {
        b.iter(|| {
            let mut m = module.clone();
            for mu in sample_mutations(&m, 3, &mut rng) {
                mage_llm::mutate::apply_mutation(&mut m, &mu);
            }
            std::hint::black_box(mage_verilog::print_module(&m))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = run
}
criterion_main!(benches);
