//! Two-state (plan) differential suite.
//!
//! The compiled executor runs a process's evaluation plan whenever its
//! read set is fully defined, falling back to the four-state path when
//! an `X`/`Z` appears (or a runtime hazard — division by zero, an
//! out-of-range dynamic bit select — bails out mid-run). These tests
//! hold that machinery to the store-exactness contract against
//! **both** retained references:
//!
//! * the four-state compiled path ([`ExecMode::FourState`] — same
//!   bytecode, same wheel, no plans), and
//! * the legacy tree-walker with the scan worklist
//!   ([`ExecMode::Legacy`]);
//!
//! and pin the `EvalCounts` hit/fallback accounting: X-boot runs
//! four-state, defined steady state runs plans, an injected `X` falls
//! back, and a re-driven defined value recovers.
//!
//! The proptest at the bottom is the corpus version: a single `X`/`Z`
//! bit injected at a random input/step of an otherwise-defined corpus
//! run, all three executors in lockstep, every signal compared
//! four-state exact after every poke.

use mage_logic::{LogicBit, LogicVec};
use mage_sim::lockstep::Lockstep;
use mage_sim::{elaborate, Design, ExecMode, Simulator};
use proptest::prelude::*;
use std::sync::Arc;

fn design_of(src: &str) -> Arc<Design> {
    let file = mage_verilog::parse(src).unwrap();
    let top = file.modules.last().unwrap().name.clone();
    Arc::new(elaborate(&file, &top).unwrap())
}

fn v(w: usize, x: u64) -> LogicVec {
    LogicVec::from_u64(w, x)
}

/// The executor under test; the lockstep set holds it against the
/// four-state compiled path and the tree-walker.
const PLANS: ExecMode = ExecMode::Compiled;

/// Poke `name` on every executor in lockstep; they must agree,
/// store-exact, and succeed.
fn poke(ls: &mut Lockstep, name: &str, value: LogicVec, at: &str) {
    ls.op(at, |s| s.poke(name, value.clone())).unwrap().unwrap();
}

const ALU_SRC: &str = "module top(input clk, input rst, input [3:0] a, input [3:0] b,
                              input [2:0] op, output reg [3:0] r, output zero,
                              output reg [7:0] acc);
      always @(*) begin
        case (op)
          3'd0: r = a + b;
          3'd1: r = a - b;
          3'd2: r = a & b;
          3'd3: r = a | b;
          default: r = a ^ b;
        endcase
      end
      assign zero = r == 4'd0;
      always @(posedge clk)
        if (rst) acc <= 8'd0; else acc <= acc + {4'b0000, r};
    endmodule";

/// Boot the ALU: reset released, clock low, all data inputs defined.
fn booted_alu(design: &Arc<Design>) -> Simulator {
    let mut sim = Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
    sim.settle().unwrap();
    sim.poke_many([
        ("clk", v(1, 0)),
        ("rst", v(1, 1)),
        ("a", v(4, 3)),
        ("b", v(4, 5)),
        ("op", v(3, 0)),
    ])
    .unwrap();
    sim.poke("clk", v(1, 1)).unwrap(); // reset edge: acc ← 0
    sim.poke("clk", v(1, 0)).unwrap();
    sim.poke("rst", v(1, 0)).unwrap();
    sim
}

#[test]
fn x_boot_runs_four_state_then_defined_inputs_go_two_state() {
    let design = design_of(ALU_SRC);
    let mut sim = Simulator::with_mode(Arc::clone(&design), ExecMode::Compiled);
    sim.settle().unwrap();
    let boot = sim.eval_counts();
    assert_eq!(
        boot.two_state_evals, 0,
        "all-X boot must not take the two-state path"
    );
    assert!(
        boot.two_state_fallbacks > 0,
        "boot evals of eligible processes count as fallbacks"
    );
    // Define every input and wash the boot X out of `acc`: from here
    // on, every evaluation is two-state.
    let mut sim = booted_alu(&design);
    sim.reset_eval_counts();
    for i in 0..8u64 {
        sim.poke("a", v(4, i)).unwrap();
        sim.poke("clk", v(1, 1)).unwrap();
        sim.poke("clk", v(1, 0)).unwrap();
    }
    let c = sim.eval_counts();
    assert!(c.two_state_evals > 0, "defined kernel must hit two-state");
    assert_eq!(c.two_state_fallbacks, 0, "no X anywhere → no fallbacks");
    assert_eq!(
        c.two_state_evals,
        c.total_evals(),
        "every eval of this all-eligible, fully defined design is a hit"
    );
}

#[test]
fn two_state_disabled_counts_nothing() {
    let design = design_of(ALU_SRC);
    let mut sim = Simulator::with_mode(Arc::clone(&design), ExecMode::FourState);
    sim.settle().unwrap();
    sim.poke_many([
        ("clk", v(1, 0)),
        ("rst", v(1, 0)),
        ("a", v(4, 3)),
        ("b", v(4, 5)),
        ("op", v(3, 0)),
    ])
    .unwrap();
    let c = sim.eval_counts();
    assert!(c.total_evals() > 0);
    assert_eq!(c.two_state_evals, 0);
    assert_eq!(c.two_state_fallbacks, 0, "disabled ≠ fallback");
    // Legacy mode likewise never touches the counters.
    let mut l = Simulator::with_mode(design, ExecMode::Legacy);
    l.settle().unwrap();
    l.poke("a", v(4, 1)).unwrap();
    assert_eq!(l.eval_counts().two_state_evals, 0);
    assert_eq!(l.eval_counts().two_state_fallbacks, 0);
}

#[test]
fn x_injection_falls_back_and_recovers() {
    let design = design_of("module top(input a, input b, output y); assign y = a & b; endmodule");
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    poke(&mut ls, "a", v(1, 1), "define a");
    poke(&mut ls, "b", v(1, 1), "define b");
    ls.sim(PLANS).reset_eval_counts();

    // Inject: X on `a` forces the single AND process four-state.
    poke(&mut ls, "a", LogicVec::all_x(1), "inject X");
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(c.two_state_evals, 0);
    assert_eq!(c.two_state_fallbacks, 1, "X read set → fallback");
    assert!(ls.sim(PLANS).peek_by_name("y").unwrap().has_unknown());

    // Recover: a defined re-drive goes straight back to two-state.
    poke(&mut ls, "a", v(1, 0), "recover a");
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(c.two_state_evals, 1, "defined re-drive recovers");
    assert_eq!(c.two_state_fallbacks, 1);
    assert_eq!(ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(), Some(0));
}

#[test]
fn z_injection_is_as_unknown_as_x() {
    let design = design_of("module top(input [3:0] a, output [3:0] y); assign y = ~a; endmodule");
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    poke(&mut ls, "a", v(4, 5), "define");
    ls.sim(PLANS).reset_eval_counts();
    let mut z = v(4, 5);
    z.set_bit(2, LogicBit::Z);
    poke(&mut ls, "a", z, "inject Z");
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(c.two_state_evals, 0, "Z gates the fast path like X");
    assert_eq!(c.two_state_fallbacks, 1);
    poke(&mut ls, "a", v(4, 5), "recover");
    assert_eq!(ls.sim(PLANS).eval_counts().two_state_evals, 1);
}

#[test]
fn division_by_zero_bails_out_mid_run() {
    // Defined inputs, X-producing op: the plan run must bail (counted
    // as a fallback), rewind, and match both references' X.
    let design = design_of(
        "module top(input [3:0] a, input [3:0] b, output [3:0] q, output [3:0] m);
           assign q = a / b;
           assign m = a % b;
         endmodule",
    );
    assert!(
        design
            .compiled()
            .procs
            .iter()
            .all(|p| p.plan.as_ref().is_some_and(|plan| plan.can_bail)),
        "division and modulo run on plans that can bail"
    );
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    poke(&mut ls, "a", v(4, 12), "define a");
    poke(&mut ls, "b", v(4, 3), "define b");
    assert_eq!(ls.sim(PLANS).peek_by_name("q").unwrap().to_u64(), Some(4));
    let defined_hits = ls.sim(PLANS).eval_counts().two_state_evals;
    assert!(defined_hits > 0, "nonzero divisor runs the plans");

    ls.sim(PLANS).reset_eval_counts();
    poke(&mut ls, "b", v(4, 0), "zero divisor");
    let c = ls.sim(PLANS).eval_counts();
    assert!(
        c.two_state_fallbacks > 0,
        "division by zero must bail out of the plan run"
    );
    assert_eq!(c.two_state_evals, 0);
    assert!(ls.sim(PLANS).peek_by_name("q").unwrap().is_all_x());
    assert!(ls.sim(PLANS).peek_by_name("m").unwrap().is_all_x());

    // Recovery: a nonzero divisor runs the plans again.
    poke(&mut ls, "b", v(4, 5), "recover divisor");
    assert!(ls.sim(PLANS).eval_counts().two_state_evals > 0);
    assert_eq!(ls.sim(PLANS).peek_by_name("q").unwrap().to_u64(), Some(2));
}

#[test]
fn casez_wildcard_labels_stay_two_state() {
    // Wildcard labels are undefined constants used only as case labels:
    // the plan resolves each into a masked compare at build time.
    let design = design_of(
        "module top(input [3:0] r, output reg [1:0] y);
           always @(*) casez (r)
             4'b1???: y = 2'd3;
             4'b01??: y = 2'd2;
             4'b001?: y = 2'd1;
             default: y = 2'd0;
           endcase
         endmodule",
    );
    assert!(
        design.compiled().procs[0].plan.is_some(),
        "wildcard labels keep the process on a plan"
    );
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    ls.sim(PLANS).reset_eval_counts();
    for (r, y) in [(0b1010, 3), (0b0110, 2), (0b0010, 1), (0b0001, 0)] {
        poke(&mut ls, "r", v(4, r), "casez sweep");
        assert_eq!(ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(), Some(y));
    }
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(c.two_state_fallbacks, 0);
    assert_eq!(c.two_state_evals, c.total_evals());
    assert!(c.two_state_evals > 0);
}

#[test]
fn undefined_const_in_arithmetic_is_ineligible() {
    // `a + 4'bxx00` uses an undefined constant outside a case label:
    // the process has no plan (never counted as hit *or* fallback) and
    // still propagates X exactly.
    let design = design_of(
        "module top(input [3:0] a, output [3:0] y, output [3:0] w);
           assign y = a + 4'bxx00;
           assign w = a & 4'b1100;
         endmodule",
    );
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    ls.sim(PLANS).reset_eval_counts();
    poke(&mut ls, "a", v(4, 7), "define");
    let c = ls.sim(PLANS).eval_counts();
    assert!(c.total_evals() > 0);
    // The X-adder process has no plan; the masking AND beside it has
    // one and hits.
    assert!(c.two_state_evals > 0, "the clean process still hits");
    assert_eq!(c.two_state_fallbacks, 0);
    assert!(
        c.two_state_evals < c.total_evals(),
        "the tainted process must not be counted two-state"
    );
    assert!(ls.sim(PLANS).peek_by_name("y").unwrap().has_unknown());
    assert_eq!(ls.sim(PLANS).peek_by_name("w").unwrap().to_u64(), Some(4));
}

#[test]
fn undefined_const_store_runs_four_state_every_time() {
    // A process that conditionally stores an undefined constant and
    // re-loads it in the same body has no plan: a plan holds defined
    // words only, so `4'b10x0` outside a case label keeps the process
    // on the four-state loop — never a plan run, never a fallback —
    // store-exact against both references on either branch.
    let design = design_of(
        "module top(input sel, output reg [3:0] t, output reg [3:0] y);
           always @(*) begin
             if (sel) t = 4'b1010; else t = 4'b10x0;
             y = t;
           end
         endmodule",
    );
    assert!(design.compiled().procs[0].plan.is_none());
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    ls.sim(PLANS).reset_eval_counts();
    poke(&mut ls, "sel", v(1, 1), "defined branch");
    assert_eq!(
        ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(),
        Some(0b1010)
    );
    poke(&mut ls, "sel", v(1, 0), "take the X branch");
    assert!(ls.sim(PLANS).peek_by_name("y").unwrap().has_unknown());
    poke(&mut ls, "sel", v(1, 1), "defined again");
    assert_eq!(
        ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(),
        Some(0b1010)
    );
    let c = ls.sim(PLANS).eval_counts();
    assert!(c.total_evals() > 0);
    assert_eq!(
        (c.two_state_evals, c.two_state_fallbacks),
        (0, 0),
        "four-state by construction"
    );
}

#[test]
fn out_of_range_bit_select_bails_rewinds_and_recovers() {
    // `n` is stored before `v[i]` is read: with `i` past `v`'s MSB the
    // plan bails mid-run, and the rewind must restore `n` before the
    // four-state re-run increments it again (a missed rewind would
    // count twice).
    let design = design_of(
        "module top(input clk, input rst, input [3:0] v, input [2:0] i,
                    output reg [3:0] n, output reg y);
           always @(posedge clk)
             if (rst) begin n = 4'd0; y = 1'b0; end
             else begin n = n + 4'd1; y = v[i]; end
         endmodule",
    );
    assert!(
        design.compiled().procs[0]
            .plan
            .as_ref()
            .is_some_and(|plan| plan.can_bail),
        "the dynamic bit select runs on a plan that can bail"
    );
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    poke(&mut ls, "clk", v(1, 0), "clk low");
    poke(&mut ls, "v", v(4, 0b1010), "define v");
    poke(&mut ls, "i", v(3, 1), "in range");
    poke(&mut ls, "rst", v(1, 1), "reset on");
    poke(&mut ls, "clk", v(1, 1), "reset edge");
    poke(&mut ls, "clk", v(1, 0), "fall");
    poke(&mut ls, "rst", v(1, 0), "reset off");
    poke(&mut ls, "clk", v(1, 1), "in-range edge");
    poke(&mut ls, "clk", v(1, 0), "fall");
    assert_eq!(ls.sim(PLANS).peek_by_name("n").unwrap().to_u64(), Some(1));
    assert_eq!(ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(), Some(1));
    ls.sim(PLANS).reset_eval_counts();

    poke(&mut ls, "i", v(3, 5), "out of range");
    poke(&mut ls, "clk", v(1, 1), "bailing edge");
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(
        (c.two_state_evals, c.two_state_fallbacks),
        (0, 1),
        "the plan bails once"
    );
    assert_eq!(
        ls.sim(PLANS).peek_by_name("n").unwrap().to_u64(),
        Some(2),
        "the bailed store was rewound before the re-run"
    );
    assert!(ls.sim(PLANS).peek_by_name("y").unwrap().is_all_x());

    // Recovery: an in-range index runs the plan again.
    poke(&mut ls, "clk", v(1, 0), "fall");
    poke(&mut ls, "i", v(3, 3), "back in range");
    poke(&mut ls, "clk", v(1, 1), "recovered edge");
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!((c.two_state_evals, c.two_state_fallbacks), (1, 1));
    assert_eq!(ls.sim(PLANS).peek_by_name("n").unwrap().to_u64(), Some(3));
    assert_eq!(ls.sim(PLANS).peek_by_name("y").unwrap().to_u64(), Some(1));
}

#[test]
fn sequential_processes_take_the_fast_path_too() {
    let design = design_of(
        "module top(input clk, input rst, output reg [3:0] q);
           always @(posedge clk) begin
             if (rst) q <= 4'd0;
             else q <= q + 4'd1;
           end
         endmodule",
    );
    let mut ls = Lockstep::new(&design);
    ls.op("boot settle", Simulator::settle).unwrap().unwrap();
    poke(&mut ls, "clk", v(1, 0), "clk low");
    poke(&mut ls, "rst", v(1, 1), "reset on");
    poke(&mut ls, "clk", v(1, 1), "reset edge");
    poke(&mut ls, "clk", v(1, 0), "clk low");
    poke(&mut ls, "rst", v(1, 0), "reset off");
    ls.sim(PLANS).reset_eval_counts();
    for _ in 0..4 {
        poke(&mut ls, "clk", v(1, 1), "rise");
        poke(&mut ls, "clk", v(1, 0), "fall");
    }
    let c = ls.sim(PLANS).eval_counts();
    assert_eq!(c.seq_evals, 4);
    assert_eq!(c.two_state_evals, 4, "all four flop evals are two-state");
    assert_eq!(c.two_state_fallbacks, 0);
    assert_eq!(ls.sim(PLANS).peek_by_name("q").unwrap().to_u64(), Some(4));
}

// ----------------------------------------------------------------------
// Corpus proptest: single X/Z injection, three executors in lockstep
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pick a corpus problem, run its stimulus on all three executors,
    /// inject one `X`/`Z` bit into a random input at a random step,
    /// re-drive the defined value two steps later, and hold every
    /// signal store-exact after every poke — fallback and recovery
    /// must be observationally invisible.
    #[test]
    fn corpus_single_xz_injection_store_exact(
        pidx in 0usize..64,
        step_pick in 0usize..1024,
        input_pick in 0usize..16,
        bit_pick in 0usize..256,
        use_z in any::<bool>(),
    ) {
        let problems = mage_problems::all_problems();
        let p = &problems[pidx % problems.len()];
        let oracle = p.oracle(0x75A7E);
        let design = &oracle.golden_design;
        let stim = &oracle.stimulus;
        let mut ls = Lockstep::new(design);
        if ls.op("boot settle", Simulator::settle).unwrap().is_err() {
            return Ok(()); // boot fault: equality already asserted
        }
        // Cap the walked steps so a 1500-step clocked stimulus doesn't
        // dominate the suite; injection lands inside the walked prefix.
        let steps: Vec<_> = stim.steps().take(48).collect();
        if steps.is_empty() {
            return Ok(());
        }
        let inject_at = step_pick % steps.len();
        let inputs = &design.inputs;
        let inject_id = inputs[input_pick % inputs.len()];
        let mut saved: Option<LogicVec> = None;

        if let Some(clk) = stim.clock() {
            let low = |s: &mut Simulator| s.poke(clk, LogicVec::from_bool(false));
            if ls.op("clk boot", low).unwrap().is_err() {
                return Ok(());
            }
        }
        'outer: for (i, step) in steps.iter().enumerate() {
            for (name, value) in step.clone() {
                let poke = |s: &mut Simulator| s.poke(name, value.clone());
                if ls.op(format_args!("step {i}"), poke).unwrap().is_err() {
                    break 'outer;
                }
            }
            if i == inject_at {
                // Flip one bit of the chosen input to X or Z.
                let mut poisoned = ls.sim(PLANS).peek(inject_id).clone();
                let bit = bit_pick % poisoned.width();
                saved = Some(poisoned.clone());
                poisoned.set_bit(bit, if use_z { LogicBit::Z } else { LogicBit::X });
                let inject = |s: &mut Simulator| s.poke_id(inject_id, poisoned.clone());
                if ls.op(format_args!("inject @{i}"), inject).unwrap().is_err() {
                    break 'outer;
                }
            }
            if i == inject_at + 2 {
                if let Some(v) = saved.take() {
                    // Recovery: re-drive the defined pre-injection value
                    // (later stimulus steps may re-drive it anyway; this
                    // guarantees the X window closes even when they
                    // don't).
                    let recover = |s: &mut Simulator| s.poke_id(inject_id, v.clone());
                    if ls.op(format_args!("recover @{i}"), recover).unwrap().is_err() {
                        break 'outer;
                    }
                }
            }
            if let Some(clk) = stim.clock() {
                let rise = |s: &mut Simulator| s.poke(clk, LogicVec::from_bool(true));
                let fall = |s: &mut Simulator| s.poke(clk, LogicVec::from_bool(false));
                if ls.op(format_args!("step {i} rise"), rise).unwrap().is_err()
                    || ls.op(format_args!("step {i} fall"), fall).unwrap().is_err()
                {
                    break 'outer;
                }
            }
        }
        // Plans never run with two-state dispatch off or on the
        // tree-walker, whatever the schedule did.
        let four = ls.sim(ExecMode::FourState).eval_counts();
        prop_assert_eq!(four.two_state_evals, 0);
        prop_assert_eq!(four.two_state_fallbacks, 0);
        prop_assert_eq!(ls.sim(ExecMode::Legacy).eval_counts().two_state_evals, 0);
    }
}
