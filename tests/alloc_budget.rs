//! Allocation budgets for the bench layers on `prob029_alu4`, whose
//! exhaustive stimulus has 2,048 steps and whose bench has 4,096 checks,
//! and for the compile front end.
//!
//! A port-indexed stimulus or bench allocates per port, not per step, so
//! building one stays far below one allocation per step. The lexer's
//! span tokens hold no text, so a parse allocates per AST node and per
//! name it keeps, not per token. A `for` loop whose step repeats a value
//! stops unrolling at the repeat instead of at the unroll limit, and
//! nested loops stop at the per-process unroll budget. A counting
//! global allocator (this test binary only) counts each thread's
//! allocations, so tests running in parallel do not see each other's.

use mage::problems::by_id;
use mage::tb::{run_testbench, synthesize_testbench, CheckDensity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every allocation on the calling
/// thread.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell`, which needs no
// allocation and is skipped once the thread has torn it down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn alu4_bench_layers_stay_within_their_allocation_budgets() {
    let problem = by_id("prob029_alu4").expect("registered");
    // Warm the process-wide caches: the parsed golden and its design,
    // whose bytecode compiles on the first simulation.
    let design = problem.golden_design();
    let warm = synthesize_testbench(
        "warm",
        &design,
        &problem.stimulus(1),
        CheckDensity::EveryStep,
    );
    run_testbench(&Arc::new(warm), &design).expect("golden matches its interface");

    let (stimulus, stim_allocs) = allocations(|| problem.stimulus(1));
    assert_eq!(stimulus.len(), 2048);
    let (tb, synth_allocs) = allocations(|| {
        synthesize_testbench(problem.id, &design, &stimulus, CheckDensity::EveryStep)
    });
    assert_eq!(tb.total_checks(), 4096);
    let tb = Arc::new(tb);
    let (report, run_allocs) = allocations(|| run_testbench(&tb, &design));
    assert!(report.expect("golden matches its interface").passed());

    let counts = format!("stimulus {stim_allocs}, synthesis {synth_allocs}, run {run_allocs}");
    assert!(stim_allocs < 100, "{counts}");
    // Synthesis and a run simulate; their budgets are the default
    // executor's. The tree-walking reference allocates per evaluation.
    if !legacy_executor() {
        assert!(synth_allocs < 100, "{counts}");
        assert!(run_allocs <= 37, "{counts}");
    }
}

#[test]
fn front_end_stays_within_its_allocation_budgets() {
    let golden = by_id("prob029_alu4").expect("registered").golden;
    let (file, parse_allocs) = allocations(|| mage::verilog::parse(golden));
    file.expect("the golden parses");
    assert!(parse_allocs <= 130, "parse {parse_allocs}");

    // A debug candidate whose step never moves `i` (`~0 + 1` is 0), and
    // a twin whose step cycles through 0 and 1.
    let popcount = by_id("prob031_popcount8").expect("registered").golden;
    for step in ["i = ~i + 1", "i = 1 - i"] {
        let stuck = popcount.replacen("i = i + 1", step, 1);
        assert_ne!(stuck, popcount);
        let (design, compile_allocs) = allocations(|| mage::core::compile(&stuck));
        let err = design.expect_err("the loop never ends");
        assert_eq!(err, "for-loop unroll limit exceeded: for (i = …)");
        assert!(compile_allocs < 1000, "{step}: compile {compile_allocs}");
    }
}

#[test]
fn nested_loops_stop_at_the_unroll_budget() {
    // Three nested loops of 4,096 iterations, each within the per-loop
    // limit, would unroll 2^36 copies of the body. The per-process
    // budget stops them after 16,384.
    let cube = "module top(input [7:0] a, output reg [15:0] y);
           integer i, j, k;
           always @(*) begin
             y = 16'd0;
             for (i = 0; i < 4096; i = i + 1)
               for (j = 0; j < 4096; j = j + 1)
                 for (k = 0; k < 4096; k = k + 1) y = y + a;
           end
         endmodule";
    let (design, compile_allocs) = allocations(|| mage::core::compile(cube));
    let err = design.expect_err("the budget stops the unroll");
    assert_eq!(err, "for-loop unroll limit exceeded: for (k = …)");
    assert!(compile_allocs <= 34_000, "compile {compile_allocs}");
}

/// `true` when `MAGE_SIM_EXEC` selects the tree-walking reference for
/// every `Simulator::new`.
fn legacy_executor() -> bool {
    std::env::var("MAGE_SIM_EXEC").is_ok_and(|v| v.eq_ignore_ascii_case("legacy"))
}
