//! Simulator perf baseline harness: measures the grading-loop kernels
//! under both executors and writes a machine-readable `BENCH_sim.json`
//! so future PRs can track the perf trajectory.
//!
//! Measured kernels:
//!
//! * `solve_one_kernel` / `mini_suite_kernel` — the end-to-end MAGE
//!   kernels every table/figure harness is built from;
//! * `sim_poke_sweep` — 256 input vectors through the ALU design with
//!   one (compile-once) simulator;
//! * `sim_settle` — a settle on an already-settled simulator (the event
//!   wheel drains an empty pending set; the legacy scheduler
//!   re-evaluates every comb process);
//! * `sim_dualclk_sweep` / `sim_handshake_sweep` — multi-clock kernels:
//!   two domains clocked at different rates / drifting phases.
//!
//! Each kernel runs under the bytecode executor + event-wheel scheduler
//! (`compiled`) and the legacy tree-walker + scan worklist (`legacy`,
//! the pre-bytecode baseline that shipped in the seed); the reported
//! `speedup` is legacy/compiled. The end-to-end kernels switch
//! executors via the `MAGE_SIM_EXEC` environment hook.
//!
//! Besides wall time, the harness records **scheduler work counts**
//! (process evaluations, edge probes, plan hits/fallbacks and plan
//! opcode counts per step/edge, from `Simulator::eval_counts`) into a
//! `scheduler` section, and asserts the acceptance invariants
//! in-process: zero evaluations to re-settle a settled design, strictly
//! fewer edge probes than the legacy scheduler on mixed-edge clocks,
//! plan (two-state) evaluations > 0 on every defined (driven) kernel
//! with zero fallbacks in the fully-defined steady state and strictly
//! fewer plan opcodes retired than the source instructions they cover,
//! and zero two-state counters on the legacy executor. Each kernel
//! also runs a `four_state` leg on `ExecMode::FourState`:
//! that demand-driven wheel (no cascades) must evaluate no more
//! processes than the legacy scheduler nor than the default leg's
//! cascades, and must keep the default leg's sequential/edge schedule.
//! Deterministic counts — unlike wall time on this noisy shared box, a
//! scheduling regression here is unambiguous.
//!
//! Usage:
//! `cargo run --release -p mage-bench --bin bench_sim [--smoke] [out.json]`
//!
//! `--smoke` caps the wall-clock sampling at one round per kernel so CI
//! can run the harness — and gate merges on its invariant assertions —
//! in seconds; the deterministic scheduler counts are identical either
//! way (only the noisy ms numbers lose precision).

use mage_bench::{mini_suite_kernel, solve_one_kernel};
use mage_logic::LogicVec;
use mage_sim::{elaborate, elaborate_with, Design, DesignUnits, EvalCounts, ExecMode, Simulator};
use std::sync::Arc;
use std::time::Instant;

const ALU_SRC: &str = include_str!("../../benches/alu_kernel.v");
const DUALCLK_SRC: &str = include_str!("../../benches/dualclk_kernel.v");
const HANDSHAKE_SRC: &str = include_str!("../../benches/handshake_kernel.v");

/// Best-of-`samples` seconds per call (after one warm-up). The minimum
/// is the noise-robust estimator for CPU-bound kernels on a shared box —
/// background load only ever adds time.
fn time_min(samples: usize, f: &mut dyn FnMut()) -> f64 {
    f();
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measure two alternatives interleaved (A B A B …) so load drift hits
/// both equally.
fn time_pair(
    rounds: usize,
    samples: usize,
    a: &mut dyn FnMut(),
    b: &mut dyn FnMut(),
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        best_a = best_a.min(time_min(samples, a));
        best_b = best_b.min(time_min(samples, b));
    }
    (best_a, best_b)
}

struct Entry {
    name: &'static str,
    compiled_s: f64,
    legacy_s: f64,
}

fn parse_design(src: &str) -> Arc<Design> {
    let file = mage_verilog::parse(src).expect("parses");
    Arc::new(elaborate(&file, "top_module").expect("elaborates"))
}

fn v(w: usize, x: u64) -> LogicVec {
    LogicVec::from_u64(w, x)
}

/// Boot `sim` for the dual-clock kernel (reset released, clocks low).
fn boot_dualclk(mut sim: Simulator) -> Simulator {
    sim.settle().expect("settles");
    sim.poke_many([
        ("rst", v(1, 1)),
        ("clka", v(1, 0)),
        ("clkb", v(1, 0)),
        ("da", v(8, 3)),
        ("db", v(8, 5)),
    ])
    .expect("boot drives");
    sim.poke("rst", v(1, 0)).expect("release reset");
    sim
}

/// One dual-clock sweep: `cycles` full cycles of clka, clkb at 1/4 rate.
/// Returns the number of signal edges driven.
fn dualclk_sweep(sim: &mut Simulator, cycles: u64) -> u64 {
    let mut edges = 0u64;
    for i in 0..cycles {
        sim.poke("clka", v(1, 1)).unwrap();
        sim.poke("clka", v(1, 0)).unwrap();
        edges += 2;
        if i % 4 == 0 {
            sim.poke("clkb", v(1, 1)).unwrap();
            sim.poke("clkb", v(1, 0)).unwrap();
            edges += 2;
        }
    }
    edges
}

/// Boot `sim` for the handshake kernel.
fn boot_handshake(mut sim: Simulator) -> Simulator {
    sim.settle().expect("settles");
    sim.poke_many([
        ("rst", v(1, 1)),
        ("clka", v(1, 0)),
        ("clkb", v(1, 0)),
        ("req", v(1, 0)),
        ("data", v(8, 0xA5)),
    ])
    .expect("boot drives");
    sim.poke("rst", v(1, 0)).expect("release reset");
    sim
}

/// One handshake sweep: request toggles every 3 cycles, clocks at
/// drifting phases. Returns the number of signal edges driven.
fn handshake_sweep(sim: &mut Simulator, cycles: u64) -> u64 {
    let mut edges = 0u64;
    for i in 0..cycles {
        sim.poke("req", v(1, (i / 3) & 1)).unwrap();
        sim.poke("clka", v(1, 1)).unwrap();
        sim.poke("clkb", v(1, 1)).unwrap();
        sim.poke("clka", v(1, 0)).unwrap();
        sim.poke("clkb", v(1, 0)).unwrap();
        edges += 4;
    }
    edges
}

/// Scheduler work counts of one kernel run under one mode.
struct WorkCounts {
    counts: EvalCounts,
    /// Normalizer (edges driven or settle calls).
    per: u64,
}

fn json_counts(w: &WorkCounts) -> String {
    let per = w.per.max(1) as f64;
    format!(
        "{{ \"evals\": {}, \"edge_probes\": {}, \"two_state_evals\": {}, \"two_state_fallbacks\": {}, \"plan_steps\": {}, \"plan_unfused_steps\": {}, \"evals_per_step\": {:.4}, \"probes_per_step\": {:.4} }}",
        w.counts.total_evals(),
        w.counts.edge_probes,
        w.counts.two_state_evals,
        w.counts.two_state_fallbacks,
        w.counts.plan_steps,
        w.counts.plan_unfused_steps,
        w.counts.total_evals() as f64 / per,
        w.counts.edge_probes as f64 / per,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    // Smoke mode: one interleaved round, minimal samples — CI runs the
    // harness for its assertions, not its timings.
    let prof = |rounds: usize, samples: usize| -> (usize, usize) {
        if smoke {
            (1, 1)
        } else {
            (rounds, samples)
        }
    };
    let mut entries: Vec<Entry> = Vec::new();

    // --- End-to-end kernels, executor switched via MAGE_SIM_EXEC. ---
    // set_var is process-global: the kernels run it serially between
    // samples, while no worker threads are alive.
    let with_mode = |legacy: bool, f: &mut dyn FnMut()| {
        if legacy {
            std::env::set_var("MAGE_SIM_EXEC", "legacy");
        } else {
            std::env::remove_var("MAGE_SIM_EXEC");
        }
        f();
        std::env::remove_var("MAGE_SIM_EXEC");
    };
    let (solve_rounds, solve_samples) = prof(4, 6);
    let (solve_compiled, solve_legacy) = time_pair(
        solve_rounds,
        solve_samples,
        &mut || {
            with_mode(false, &mut || {
                std::hint::black_box(solve_one_kernel(7));
            })
        },
        &mut || {
            with_mode(true, &mut || {
                std::hint::black_box(solve_one_kernel(7));
            })
        },
    );
    let (mini_rounds, mini_samples) = prof(3, 2);
    let (mini_compiled, mini_legacy) = time_pair(
        mini_rounds,
        mini_samples,
        &mut || {
            with_mode(false, &mut || {
                std::hint::black_box(mini_suite_kernel(7));
            })
        },
        &mut || {
            with_mode(true, &mut || {
                std::hint::black_box(mini_suite_kernel(7));
            })
        },
    );
    entries.push(Entry {
        name: "solve_one_kernel",
        compiled_s: solve_compiled,
        legacy_s: solve_legacy,
    });
    entries.push(Entry {
        name: "mini_suite_kernel",
        compiled_s: mini_compiled,
        legacy_s: mini_legacy,
    });

    // --- Simulator micro-kernels, executor chosen explicitly. ---
    let alu = parse_design(ALU_SRC);
    let sweep_of = |mode: ExecMode| {
        let mut sim = Simulator::with_mode(Arc::clone(&alu), mode);
        sim.settle().expect("settles");
        move || {
            for i in 0..256u64 {
                sim.poke("a", v(4, i & 0xF)).unwrap();
                sim.poke("b", v(4, (i >> 4) & 0xF)).unwrap();
                sim.poke("op", v(3, i % 8)).unwrap();
                std::hint::black_box(sim.peek_by_name("r"));
            }
        }
    };
    let (sweep_rounds, sweep_samples) = prof(5, 20);
    let (sweep_c, sweep_l) = time_pair(
        sweep_rounds,
        sweep_samples,
        &mut sweep_of(ExecMode::Compiled),
        &mut sweep_of(ExecMode::Legacy),
    );
    entries.push(Entry {
        name: "sim_poke_sweep",
        compiled_s: sweep_c,
        legacy_s: sweep_l,
    });
    let settle_of = |mode: ExecMode| {
        let mut sim = Simulator::with_mode(Arc::clone(&alu), mode);
        sim.settle().expect("settles");
        move || sim.settle().expect("settles")
    };
    let (settle_rounds, settle_samples) = prof(5, 200);
    let (settle_c, settle_l) = time_pair(
        settle_rounds,
        settle_samples,
        &mut settle_of(ExecMode::Compiled),
        &mut settle_of(ExecMode::Legacy),
    );
    entries.push(Entry {
        name: "sim_settle",
        compiled_s: settle_c,
        legacy_s: settle_l,
    });

    // --- Multi-clock kernels. ---
    let dualclk = parse_design(DUALCLK_SRC);
    let dual_of = |mode: ExecMode| {
        let mut sim = boot_dualclk(Simulator::with_mode(Arc::clone(&dualclk), mode));
        move || {
            dualclk_sweep(&mut sim, 64);
        }
    };
    let (dual_rounds, dual_samples) = prof(5, 20);
    let (dual_c, dual_l) = time_pair(
        dual_rounds,
        dual_samples,
        &mut dual_of(ExecMode::Compiled),
        &mut dual_of(ExecMode::Legacy),
    );
    entries.push(Entry {
        name: "sim_dualclk_sweep",
        compiled_s: dual_c,
        legacy_s: dual_l,
    });
    let handshake = parse_design(HANDSHAKE_SRC);
    let hs_of = |mode: ExecMode| {
        let mut sim = boot_handshake(Simulator::with_mode(Arc::clone(&handshake), mode));
        move || {
            handshake_sweep(&mut sim, 64);
        }
    };
    let (hs_rounds, hs_samples) = prof(5, 20);
    let (hs_c, hs_l) = time_pair(
        hs_rounds,
        hs_samples,
        &mut hs_of(ExecMode::Compiled),
        &mut hs_of(ExecMode::Legacy),
    );
    entries.push(Entry {
        name: "sim_handshake_sweep",
        compiled_s: hs_c,
        legacy_s: hs_l,
    });

    // --- Scheduler work counts (deterministic; the perf trajectory's
    //     scheduling signal, immune to wall-clock noise). ---
    let count_of = |mode: ExecMode, kernel: &str| -> WorkCounts {
        let sim_of = |design: &Arc<Design>| Simulator::with_mode(Arc::clone(design), mode);
        match kernel {
            "sim_poke_sweep" => {
                let mut sim = sim_of(&alu);
                sim.settle().expect("settles");
                // Define every input before counting so the sweep
                // measures the fully-defined steady state (the boot-X
                // fallbacks are the warm-up, not the kernel).
                sim.poke_many([
                    ("a", v(4, 0)),
                    ("b", v(4, 0)),
                    ("op", v(3, 0)),
                    ("clk", v(1, 0)),
                ])
                .expect("boot drives");
                sim.reset_eval_counts();
                let vectors = 256u64;
                for i in 0..vectors {
                    sim.poke("a", v(4, i & 0xF)).unwrap();
                    sim.poke("b", v(4, (i >> 4) & 0xF)).unwrap();
                    sim.poke("op", v(3, i % 8)).unwrap();
                    std::hint::black_box(sim.peek_by_name("r"));
                }
                WorkCounts {
                    counts: sim.eval_counts(),
                    per: vectors,
                }
            }
            "sim_settle" => {
                let mut sim = sim_of(&alu);
                sim.settle().expect("settles");
                sim.reset_eval_counts();
                let calls = 100u64;
                for _ in 0..calls {
                    sim.settle().expect("settles");
                }
                WorkCounts {
                    counts: sim.eval_counts(),
                    per: calls,
                }
            }
            "sim_dualclk_sweep" => {
                let mut sim = boot_dualclk(sim_of(&dualclk));
                sim.reset_eval_counts();
                let edges = dualclk_sweep(&mut sim, 64);
                WorkCounts {
                    counts: sim.eval_counts(),
                    per: edges,
                }
            }
            "sim_handshake_sweep" => {
                let mut sim = boot_handshake(sim_of(&handshake));
                sim.reset_eval_counts();
                let edges = handshake_sweep(&mut sim, 64);
                WorkCounts {
                    counts: sim.eval_counts(),
                    per: edges,
                }
            }
            other => unreachable!("unknown counted kernel {other}"),
        }
    };
    let counted = [
        "sim_poke_sweep",
        "sim_settle",
        "sim_dualclk_sweep",
        "sim_handshake_sweep",
    ];
    let mut sched_json = String::from("  \"scheduler\": {\n");
    for kernel in counted.iter() {
        let wheel = count_of(ExecMode::Compiled, kernel);
        let legacy = count_of(ExecMode::Legacy, kernel);
        // Third leg: the same compiled kernel on the four-state loop
        // (plan dispatch off).
        let four_state = count_of(ExecMode::FourState, kernel);
        // Acceptance invariants: the demand-driven wheel (the four-state
        // leg — cascades deliberately straight-line every member,
        // trading a few redundant evals for fewer dispatches, so the
        // eval bound belongs to the leg without them) never evaluates
        // more than the legacy scheduler, probes no more processes, and
        // re-settles a settled design for free.
        assert!(
            four_state.counts.total_evals() <= legacy.counts.total_evals(),
            "{kernel}: wheel evals {} > legacy {}",
            four_state.counts.total_evals(),
            legacy.counts.total_evals()
        );
        assert!(
            wheel.counts.edge_probes <= legacy.counts.edge_probes,
            "{kernel}: wheel probes {} > legacy {}",
            wheel.counts.edge_probes,
            legacy.counts.edge_probes
        );
        // Plans and cascades only change combinational dispatch: the
        // sequential schedule and per-edge trigger economics are
        // identical on both compiled legs.
        assert_eq!(
            (wheel.counts.seq_evals, wheel.counts.edge_probes),
            (four_state.counts.seq_evals, four_state.counts.edge_probes),
            "{kernel}: plans disturbed the sequential/edge schedule"
        );
        // Straight-line cascades may add member evals the demand queue
        // would have skipped (pure re-evaluation, never less work than
        // the fixpoint needs) — but never the other way around.
        assert!(
            wheel.counts.total_evals() >= four_state.counts.total_evals(),
            "{kernel}: the cascades skipped work the demand queue ran"
        );
        if matches!(*kernel, "sim_dualclk_sweep" | "sim_handshake_sweep") {
            // Clocked kernels: per-edge lists must probe *strictly*
            // fewer processes than the full sensitivity scan (the scan
            // pays on both edge directions, the lists only on matches).
            assert!(
                wheel.counts.edge_probes < legacy.counts.edge_probes,
                "{kernel}: per-edge dispatch advantage lost (wheel {} vs legacy {})",
                wheel.counts.edge_probes,
                legacy.counts.edge_probes
            );
        }
        if *kernel == "sim_settle" {
            assert_eq!(
                wheel.counts.total_evals(),
                0,
                "a settled wheel must re-settle with zero evaluations"
            );
            assert!(
                legacy.counts.total_evals() > 0,
                "the legacy scheduler re-evaluates per settle"
            );
        } else {
            // Every driven kernel counts from a fully-defined booted
            // state: its evaluations must run plans, with zero
            // fallbacks, and the plan opcodes retired must be
            // *strictly* fewer than the bytecode instructions they
            // cover — the fusion win, independent of wall clock.
            assert!(
                wheel.counts.two_state_evals > 0,
                "{kernel}: defined kernel never ran a plan"
            );
            assert_eq!(
                wheel.counts.two_state_fallbacks, 0,
                "{kernel}: fully-defined steady state must not fall back"
            );
            assert!(
                wheel.counts.plan_steps < wheel.counts.plan_unfused_steps,
                "{kernel}: fusion retired no fewer dispatches ({} plan steps vs {} source)",
                wheel.counts.plan_steps,
                wheel.counts.plan_unfused_steps
            );
        }
        // The legacy tree-walker has no plans at all.
        assert_eq!(legacy.counts.two_state_evals, 0);
        assert_eq!(legacy.counts.two_state_fallbacks, 0);
        assert_eq!(legacy.counts.plan_steps, 0);
        println!(
            "{:24} wheel {:>7.3} evals/step {:>7.3} probes/step   legacy {:>7.3} evals/step {:>7.3} probes/step   plans {:>6}/{:<6} plan/source steps",
            kernel,
            wheel.counts.total_evals() as f64 / wheel.per.max(1) as f64,
            wheel.counts.edge_probes as f64 / wheel.per.max(1) as f64,
            legacy.counts.total_evals() as f64 / legacy.per.max(1) as f64,
            legacy.counts.edge_probes as f64 / legacy.per.max(1) as f64,
            wheel.counts.plan_steps,
            wheel.counts.plan_unfused_steps,
        );
        // Always a trailing comma: the "delta" subsection follows.
        sched_json.push_str(&format!(
            "    \"{}\": {{ \"steps\": {}, \"wheel\": {}, \"legacy\": {}, \"four_state\": {} }},\n",
            kernel,
            wheel.per,
            json_counts(&wheel),
            json_counts(&legacy),
            json_counts(&four_state),
        ));
    }
    // --- Delta-compilation counters: per-kernel unit-cache reuse. A
    //     re-elaboration against the unchanged parent must reuse every
    //     unit; a single-process edit must rebuild exactly that unit —
    //     both deterministic, asserted in-process on every run. ---
    let delta_kernels: [(&str, &str, &str, &str); 3] = [
        (
            "alu_kernel",
            ALU_SRC,
            "assign zero = r == 4'd0;",
            "assign zero = r != 4'd0;",
        ),
        (
            "dualclk_kernel",
            DUALCLK_SRC,
            "assign mixa = qa ^ da;",
            "assign mixa = qa & da;",
        ),
        (
            "handshake_kernel",
            HANDSHAKE_SRC,
            "assign busy = reqa & ~ack;",
            "assign busy = reqa | ~ack;",
        ),
    ];
    sched_json.push_str("    \"delta\": {\n");
    for (i, (name, src, from, to)) in delta_kernels.iter().enumerate() {
        let parent = parse_design(src);
        let units = parent.processes.len();
        let provider = DesignUnits::new(Arc::clone(&parent));
        // Unchanged source: full reuse.
        let file = mage_verilog::parse(src).expect("kernel parses");
        let (_, same) = elaborate_with(&file, "top_module", &provider).expect("re-elaborates");
        assert_eq!(
            (same.reused, same.rebuilt),
            (units, 0),
            "{name}: unchanged source must reuse every unit"
        );
        // One edited process: rebuild exactly the edited unit; every
        // other unit is served from the parent.
        let edited_src = src.replace(from, to);
        assert_ne!(*src, edited_src, "{name}: edit must change the source");
        let edited = mage_verilog::parse(&edited_src).expect("edited kernel parses");
        let (design, edit) = elaborate_with(&edited, "top_module", &provider).expect("elaborates");
        assert_eq!(
            (edit.reused, edit.rebuilt),
            (units - 1, 1),
            "{name}: a single-process edit must rebuild exactly one unit"
        );
        // The rebuilt design is store-exact against a scratch build.
        let scratch = elaborate(&edited, "top_module").expect("scratch elaborates");
        assert_eq!(
            design.processes, scratch.processes,
            "{name}: delta build diverged from scratch"
        );
        println!(
            "{:24} delta: {} units, single edit reused {} rebuilt {}",
            name, units, edit.reused, edit.rebuilt
        );
        sched_json.push_str(&format!(
            "      \"{}\": {{ \"units\": {}, \"reused\": {}, \"rebuilt\": {} }}{}\n",
            name,
            units,
            edit.reused,
            edit.rebuilt,
            if i + 1 == delta_kernels.len() {
                ""
            } else {
                ","
            }
        ));
    }
    sched_json.push_str("    }\n");
    sched_json.push_str("  },\n");

    // --- Report. ---
    let mut json = String::from("{\n  \"kernels\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = e.legacy_s / e.compiled_s;
        println!(
            "{:32} compiled {:>10.3} ms   legacy {:>10.3} ms   speedup {:>5.2}x",
            e.name,
            e.compiled_s * 1e3,
            e.legacy_s * 1e3,
            speedup
        );
        json.push_str(&format!(
            "    \"{}\": {{ \"compiled_ms\": {:.6}, \"legacy_ms\": {:.6}, \"speedup\": {:.3} }}{}\n",
            e.name,
            e.compiled_s * 1e3,
            e.legacy_s * 1e3,
            speedup,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&sched_json);
    json.push_str(
        "  \"notes\": \"legacy = the seed's tree-walking evaluator with the scan-based \
         worklist scheduler (MAGE_SIM_EXEC=legacy); compiled = width-annotated bytecode \
         executor on the two-region event wheel; speedup = legacy_ms / compiled_ms. \
         The seed tree itself shipped without Cargo manifests and could not build or run, \
         so legacy_ms is the closest runnable baseline — it already includes the shared \
         optimizations (inline small-vector LogicVec, word-parallel compares, dense \
         dependency tables, batched pokes, direct testbench synthesis, once-per-Design \
         bytecode compilation), meaning the recorded speedups understate the gain over \
         the actual seed. mini_suite_kernel additionally parallelizes across \
         (problem, run) units, which a single-core container cannot show. The scheduler \
         section records deterministic work counts per step (settle call, poke vector \
         or driven edge): evals = process body executions, edge_probes = processes \
         examined for edge sensitivity, two_state_evals / two_state_fallbacks = \
         executions completed on a process's evaluation plan (the two-state executor: \
         fused opcodes over aval words) vs four-state runs of processes with a plan \
         (X in the read set, or a mid-run bail), plan_steps / plan_unfused_steps = plan \
         opcodes retired vs the bytecode instructions they cover. Each kernel also \
         records a `four_state` leg (the identical kernel on ExecMode::FourState, \
         the same bytecode and wheel with plan dispatch off). The harness \
         asserts four_state-wheel <= legacy on evals and wheel <= legacy on probes \
         (cascades straight-line every member in static topo order, trading a few \
         redundant member evals for fewer dispatches, so the eval bound belongs to \
         the demand-driven four_state leg), exactly zero evals to re-settle a settled \
         design, two_state_evals > 0 with zero fallbacks on every driven kernel \
         (booted fully defined), zero plan counters under the legacy executor, which \
         has no plans, plan_steps strictly below plan_unfused_steps on every driven \
         kernel, wheel >= four_state on evals (cascades never skip demand-queue work), \
         and an identical sequential/edge schedule on the wheel and four_state legs. \
         The scheduler.delta subsection records \
         per-kernel unit-cache counters for delta re-elaboration against an unchanged \
         parent design: units = process count, reused/rebuilt = units served from the \
         parent vs recompiled after a single-process edit (asserted to be exactly \
         units-1 / 1). Regenerate with: \
         cargo run --release -p mage-bench --bin bench_sim (add --smoke to cap \
         sampling for CI)\"\n}\n",
    );
    std::fs::write(&out_path, json).expect("write baseline");
    println!("wrote {out_path}");
}
