//! Two-state (plan) differential suite.
//!
//! The compiled executor runs a process's evaluation plan whenever its
//! read set is fully defined, falling back to the four-state path when
//! an `X`/`Z` appears (or a runtime hazard — division by zero, an
//! out-of-range dynamic bit select — bails out mid-run). These tests
//! hold that machinery to the store-exactness contract against
//! **both** retained references:
//!
//! * the four-state compiled path ([`Simulator::set_two_state`]`(false)`
//!   — same bytecode, same wheel, no plans), and
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
use mage_sim::{elaborate, Design, ExecMode, SimError, Simulator};
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

/// Three executors over one design: the default compiled simulator
/// (plans), pure four-state compiled, and the legacy tree-walker.
struct Trio {
    fast: Simulator,
    four: Simulator,
    legacy: Simulator,
}

impl Trio {
    fn new(design: &Arc<Design>) -> Trio {
        let fast = Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
        assert!(fast.two_state(), "compiled default");
        let mut four = Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
        four.set_two_state(false);
        let legacy = Simulator::with_mode(Arc::clone(design), ExecMode::Legacy);
        assert!(!legacy.two_state());
        Trio { fast, four, legacy }
    }

    /// The two reference simulators the default one is held against.
    fn refs(&mut self) -> [(&mut Simulator, &'static str); 2] {
        [(&mut self.four, "four-state"), (&mut self.legacy, "legacy")]
    }

    fn settle(&mut self) -> Result<(), SimError> {
        let rf = self.fast.settle();
        for (other, label) in self.refs() {
            assert_eq!(rf, other.settle(), "settle diverged vs {label}");
        }
        rf
    }

    fn poke(&mut self, name: &str, value: LogicVec, at: &str) -> Result<(), SimError> {
        let rf = self.fast.poke(name, value.clone());
        for (other, label) in self.refs() {
            let ro = other.poke(name, value.clone());
            assert_eq!(rf, ro, "poke {name} at {at} diverged vs {label}");
        }
        self.compare(at);
        rf
    }

    fn poke_id(
        &mut self,
        id: mage_sim::SignalId,
        value: LogicVec,
        at: &str,
    ) -> Result<(), SimError> {
        let rf = self.fast.poke_id(id, value.clone());
        for (other, label) in self.refs() {
            let ro = other.poke_id(id, value.clone());
            assert_eq!(rf, ro, "poke_id at {at} diverged vs {label}");
        }
        self.compare(at);
        rf
    }

    /// Every signal, four-state exact, across all three stores.
    fn compare(&mut self, at: &str) {
        let names: Vec<String> = self
            .fast
            .design()
            .signals
            .iter()
            .map(|s| s.name.clone())
            .collect();
        for name in names {
            let id = self.fast.design().signal(&name).expect("name resolves");
            let f = self.fast.peek(id).clone();
            for (other, label) in self.refs() {
                let o = other.peek(id);
                assert!(
                    f.case_eq(o),
                    "at {at}: signal `{name}` diverged\n  two-state: {}\n  {label}:   {}",
                    f.to_binary_string(),
                    o.to_binary_string(),
                );
            }
        }
    }
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
    let mut sim = Simulator::with_mode(Arc::clone(&design), ExecMode::Compiled);
    sim.set_two_state(false);
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.poke("a", v(1, 1), "define a").unwrap();
    trio.poke("b", v(1, 1), "define b").unwrap();
    trio.fast.reset_eval_counts();

    // Inject: X on `a` forces the single AND process four-state.
    trio.poke("a", LogicVec::all_x(1), "inject X").unwrap();
    let c = trio.fast.eval_counts();
    assert_eq!(c.two_state_evals, 0);
    assert_eq!(c.two_state_fallbacks, 1, "X read set → fallback");
    assert!(trio.fast.peek_by_name("y").unwrap().has_unknown());

    // Recover: a defined re-drive goes straight back to two-state.
    trio.poke("a", v(1, 0), "recover a").unwrap();
    let c = trio.fast.eval_counts();
    assert_eq!(c.two_state_evals, 1, "defined re-drive recovers");
    assert_eq!(c.two_state_fallbacks, 1);
    assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(0));
}

#[test]
fn z_injection_is_as_unknown_as_x() {
    let design = design_of("module top(input [3:0] a, output [3:0] y); assign y = ~a; endmodule");
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.poke("a", v(4, 5), "define").unwrap();
    trio.fast.reset_eval_counts();
    let mut z = v(4, 5);
    z.set_bit(2, LogicBit::Z);
    trio.poke("a", z, "inject Z").unwrap();
    let c = trio.fast.eval_counts();
    assert_eq!(c.two_state_evals, 0, "Z gates the fast path like X");
    assert_eq!(c.two_state_fallbacks, 1);
    trio.poke("a", v(4, 5), "recover").unwrap();
    assert_eq!(trio.fast.eval_counts().two_state_evals, 1);
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.poke("a", v(4, 12), "define a").unwrap();
    trio.poke("b", v(4, 3), "define b").unwrap();
    assert_eq!(trio.fast.peek_by_name("q").unwrap().to_u64(), Some(4));
    let defined_hits = trio.fast.eval_counts().two_state_evals;
    assert!(defined_hits > 0, "nonzero divisor runs the plans");

    trio.fast.reset_eval_counts();
    trio.poke("b", v(4, 0), "zero divisor").unwrap();
    let c = trio.fast.eval_counts();
    assert!(
        c.two_state_fallbacks > 0,
        "division by zero must bail out of the plan run"
    );
    assert_eq!(c.two_state_evals, 0);
    assert!(trio.fast.peek_by_name("q").unwrap().is_all_x());
    assert!(trio.fast.peek_by_name("m").unwrap().is_all_x());

    // Recovery: a nonzero divisor runs the plans again.
    trio.poke("b", v(4, 5), "recover divisor").unwrap();
    assert!(trio.fast.eval_counts().two_state_evals > 0);
    assert_eq!(trio.fast.peek_by_name("q").unwrap().to_u64(), Some(2));
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.fast.reset_eval_counts();
    for (r, y) in [(0b1010, 3), (0b0110, 2), (0b0010, 1), (0b0001, 0)] {
        trio.poke("r", v(4, r), "casez sweep").unwrap();
        assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(y));
    }
    let c = trio.fast.eval_counts();
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.fast.reset_eval_counts();
    trio.poke("a", v(4, 7), "define").unwrap();
    let c = trio.fast.eval_counts();
    assert!(c.total_evals() > 0);
    // The X-adder process has no plan; the masking AND beside it has
    // one and hits.
    assert!(c.two_state_evals > 0, "the clean process still hits");
    assert_eq!(c.two_state_fallbacks, 0);
    assert!(
        c.two_state_evals < c.total_evals(),
        "the tainted process must not be counted two-state"
    );
    assert!(trio.fast.peek_by_name("y").unwrap().has_unknown());
    assert_eq!(trio.fast.peek_by_name("w").unwrap().to_u64(), Some(4));
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.fast.reset_eval_counts();
    trio.poke("sel", v(1, 1), "defined branch").unwrap();
    assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(0b1010));
    trio.poke("sel", v(1, 0), "take the X branch").unwrap();
    assert!(trio.fast.peek_by_name("y").unwrap().has_unknown());
    trio.poke("sel", v(1, 1), "defined again").unwrap();
    assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(0b1010));
    let c = trio.fast.eval_counts();
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.poke("clk", v(1, 0), "clk low").unwrap();
    trio.poke("v", v(4, 0b1010), "define v").unwrap();
    trio.poke("i", v(3, 1), "in range").unwrap();
    trio.poke("rst", v(1, 1), "reset on").unwrap();
    trio.poke("clk", v(1, 1), "reset edge").unwrap();
    trio.poke("clk", v(1, 0), "fall").unwrap();
    trio.poke("rst", v(1, 0), "reset off").unwrap();
    trio.poke("clk", v(1, 1), "in-range edge").unwrap();
    trio.poke("clk", v(1, 0), "fall").unwrap();
    assert_eq!(trio.fast.peek_by_name("n").unwrap().to_u64(), Some(1));
    assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(1));
    trio.fast.reset_eval_counts();

    trio.poke("i", v(3, 5), "out of range").unwrap();
    trio.poke("clk", v(1, 1), "bailing edge").unwrap();
    let c = trio.fast.eval_counts();
    assert_eq!(
        (c.two_state_evals, c.two_state_fallbacks),
        (0, 1),
        "the plan bails once"
    );
    assert_eq!(
        trio.fast.peek_by_name("n").unwrap().to_u64(),
        Some(2),
        "the bailed store was rewound before the re-run"
    );
    assert!(trio.fast.peek_by_name("y").unwrap().is_all_x());

    // Recovery: an in-range index runs the plan again.
    trio.poke("clk", v(1, 0), "fall").unwrap();
    trio.poke("i", v(3, 3), "back in range").unwrap();
    trio.poke("clk", v(1, 1), "recovered edge").unwrap();
    let c = trio.fast.eval_counts();
    assert_eq!((c.two_state_evals, c.two_state_fallbacks), (1, 1));
    assert_eq!(trio.fast.peek_by_name("n").unwrap().to_u64(), Some(3));
    assert_eq!(trio.fast.peek_by_name("y").unwrap().to_u64(), Some(1));
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
    let mut trio = Trio::new(&design);
    trio.settle().unwrap();
    trio.poke("clk", v(1, 0), "clk low").unwrap();
    trio.poke("rst", v(1, 1), "reset on").unwrap();
    trio.poke("clk", v(1, 1), "reset edge").unwrap();
    trio.poke("clk", v(1, 0), "clk low").unwrap();
    trio.poke("rst", v(1, 0), "reset off").unwrap();
    trio.fast.reset_eval_counts();
    for _ in 0..4 {
        trio.poke("clk", v(1, 1), "rise").unwrap();
        trio.poke("clk", v(1, 0), "fall").unwrap();
    }
    let c = trio.fast.eval_counts();
    assert_eq!(c.seq_evals, 4);
    assert_eq!(c.two_state_evals, 4, "all four flop evals are two-state");
    assert_eq!(c.two_state_fallbacks, 0);
    assert_eq!(trio.fast.peek_by_name("q").unwrap().to_u64(), Some(4));
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
        let mut trio = Trio::new(design);
        if trio.settle().is_err() {
            return Ok(()); // boot fault: equality already asserted
        }
        // Cap the walked steps so a 1500-step clocked stimulus doesn't
        // dominate the suite; injection lands inside the walked prefix.
        let steps: Vec<_> = stim.steps.iter().take(48).collect();
        if steps.is_empty() {
            return Ok(());
        }
        let inject_at = step_pick % steps.len();
        let inputs = &design.inputs;
        let inject_id = inputs[input_pick % inputs.len()];
        let mut saved: Option<LogicVec> = None;

        if let Some(clk) = &stim.clock {
            if trio.poke(clk, LogicVec::from_bool(false), "clk boot").is_err() {
                return Ok(());
            }
        }
        'outer: for (i, step) in steps.iter().enumerate() {
            for (name, value) in step.iter() {
                if trio.poke(name, value.clone(), &format!("step {i}")).is_err() {
                    break 'outer;
                }
            }
            if i == inject_at {
                // Flip one bit of the chosen input to X or Z.
                let mut poisoned = trio.fast.peek(inject_id).clone();
                let bit = bit_pick % poisoned.width();
                saved = Some(poisoned.clone());
                poisoned.set_bit(bit, if use_z { LogicBit::Z } else { LogicBit::X });
                if trio.poke_id(inject_id, poisoned, &format!("inject @{i}")).is_err() {
                    break 'outer;
                }
            }
            if i == inject_at + 2 {
                if let Some(v) = saved.take() {
                    // Recovery: re-drive the defined pre-injection value
                    // (later stimulus steps may re-drive it anyway; this
                    // guarantees the X window closes even when they
                    // don't).
                    if trio.poke_id(inject_id, v, &format!("recover @{i}")).is_err() {
                        break 'outer;
                    }
                }
            }
            if let Some(clk) = &stim.clock {
                if trio.poke(clk, LogicVec::from_bool(true), &format!("step {i} rise")).is_err()
                    || trio.poke(clk, LogicVec::from_bool(false), &format!("step {i} fall")).is_err()
                {
                    break 'outer;
                }
            }
        }
        // Plans never run with two-state dispatch off or on the
        // tree-walker, whatever the schedule did.
        prop_assert_eq!(trio.four.eval_counts().two_state_evals, 0);
        prop_assert_eq!(trio.four.eval_counts().two_state_fallbacks, 0);
        prop_assert_eq!(trio.legacy.eval_counts().two_state_evals, 0);
    }
}
