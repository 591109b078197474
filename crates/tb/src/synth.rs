//! Testbench synthesis: derive expected values by simulating a reference
//! design over a stimulus.
//!
//! The paper's Testbench Agent writes an "optimized testbench" whose
//! expected values encode the specification. In this reproduction the
//! specification's behaviour lives in the problem's golden design, so the
//! reference expectations are produced by simulating it (the synthetic
//! Testbench Agent then *corrupts* this ideal bench according to its
//! error model — see `mage-llm`). The same function also builds each
//! problem's benchmark ("golden") testbench.

use crate::steps::StepTable;
use crate::stimulus::Stimulus;
use crate::tb::{lower, run_schedule, Testbench};
use mage_sim::{Design, SignalId};
use std::sync::Arc;

/// How densely the synthesized bench checks outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckDensity {
    /// Check every output at every step — the paper's state-checkpoint
    /// bench.
    EveryStep,
    /// Check every output once every `n` steps (sparser benches used to
    /// stress the debugging ablation).
    EveryN(usize),
}

/// Simulate `reference` over `stim` and build a [`Testbench`] whose
/// expected values are the reference outputs.
///
/// The reference runs on the same step schedule as
/// [`crate::run_testbench`], so every expectation is sampled exactly
/// where a run of the bench will compare it: after the step's drives and
/// rising edge settle. Checks are only emitted for fully-defined
/// reference outputs: a golden model that outputs `X` at some step
/// (before reset, say) produces no check there, matching how benchmark
/// testbenches avoid pre-reset comparisons. A reference that faults
/// mid-stimulus keeps its steps but gets no checks from the fault on;
/// so does a stimulus that names something the reference does not take
/// as an input, from the first step that names it.
///
/// The bench shares `stim`'s drive table; synthesis builds only the
/// checks.
pub fn synthesize_testbench(
    name: impl Into<String>,
    reference: &Arc<Design>,
    stim: &Stimulus,
    density: CheckDensity,
) -> Testbench {
    // Each reference output, with its check port once it has one: an
    // output becomes a port the first time it is checked.
    let mut outputs: Vec<(SignalId, Option<usize>)> =
        reference.outputs.iter().map(|&id| (id, None)).collect();
    let mut checks = StepTable::with_capacity(stim.len(), stim.len() * outputs.len());
    let lowered = lower(reference, stim, None);
    run_schedule(reference, &lowered.schedule, |i, sim| {
        let keep = match density {
            CheckDensity::EveryStep => true,
            CheckDensity::EveryN(n) => n != 0 && (i + 1) % n == 0,
        };
        if let Some(sim) = sim.filter(|_| keep) {
            for (id, port) in &mut outputs {
                let got = sim.peek(*id);
                if got.is_fully_defined() {
                    let port = *port.get_or_insert_with(|| checks.port(&reference.decl(*id).name));
                    checks.push(port, got.clone());
                }
            }
        }
        checks.end_step();
    });
    Testbench::new(name, stim.clone(), checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tb::run_testbench;
    use mage_logic::LogicVec;
    use mage_sim::elaborate;

    fn design(src: &str, top: &str) -> Arc<mage_sim::Design> {
        let file = mage_verilog::parse(src).unwrap();
        Arc::new(elaborate(&file, top).unwrap())
    }

    #[test]
    fn golden_passes_its_own_bench() {
        let d = design(
            "module top(input [1:0] a, input [1:0] b, output [2:0] s); assign s = a + b; endmodule",
            "top",
        );
        let stim = Stimulus::exhaustive(&[("a".into(), 2), ("b".into(), 2)]);
        let tb = Arc::new(synthesize_testbench(
            "adder",
            &d,
            &stim,
            CheckDensity::EveryStep,
        ));
        assert_eq!(tb.total_checks(), 16);
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        assert_eq!(report.score(), 1.0);
    }

    #[test]
    fn buggy_dut_fails_synthesized_bench() {
        let golden = design(
            "module top(input [1:0] a, input [1:0] b, output [2:0] s); assign s = a + b; endmodule",
            "top",
        );
        let buggy = design(
            "module top(input [1:0] a, input [1:0] b, output [2:0] s); assign s = a - b; endmodule",
            "top",
        );
        let stim = Stimulus::exhaustive(&[("a".into(), 2), ("b".into(), 2)]);
        let tb = Arc::new(synthesize_testbench(
            "adder",
            &golden,
            &stim,
            CheckDensity::EveryStep,
        ));
        let report = run_testbench(&tb, &buggy).unwrap();
        assert!(!report.passed());
        assert!(report.score() < 1.0);
        assert!(report.score() > 0.0, "a-b agrees with a+b when b = 0");
    }

    #[test]
    fn pre_reset_x_produces_no_checks() {
        let d = design(
            "module top(input clk, input rst, input d, output reg q);
               always @(posedge clk) if (rst) q <= 1'b0; else q <= d;
             endmodule",
            "top",
        );
        // Step 0 leaves `d` undriven (X) with reset low, so q captures X
        // at the first edge.
        let stim = Stimulus::clocked(
            "clk",
            [
                vec![("rst", LogicVec::from_u64(1, 0))],
                vec![("rst", LogicVec::from_u64(1, 1))],
                vec![
                    ("rst", LogicVec::from_u64(1, 0)),
                    ("d", LogicVec::from_u64(1, 1)),
                ],
            ],
        );
        let tb = Arc::new(synthesize_testbench(
            "dff",
            &d,
            &stim,
            CheckDensity::EveryStep,
        ));
        assert_eq!(
            tb.checks().entries(0).len(),
            0,
            "X output must not be checked"
        );
        assert_eq!(tb.checks().entries(1).len(), 1);
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
    }

    #[test]
    fn faulting_reference_checks_only_before_the_fault() {
        // The oscillator loops once `a` goes 1 at step 1; driving it back
        // to 0 at step 2 does not revive the run.
        let d = design(
            "module top(input a, output y); assign y = a ? ~y : 1'b0; endmodule",
            "top",
        );
        let stim = Stimulus::combinational([0, 1, 0].map(|a| [("a", LogicVec::from_u64(1, a))]));
        let tb = Arc::new(synthesize_testbench(
            "osc",
            &d,
            &stim,
            CheckDensity::EveryStep,
        ));
        let checks: Vec<usize> = tb.steps().map(|(_, checks)| checks.len()).collect();
        assert_eq!(checks, [1, 0, 0], "every step keeps its drives");
        assert_eq!(tb.checks().entries(0)[0].1, LogicVec::from_u64(1, 0));
    }

    #[test]
    fn unknown_stimulus_input_checks_only_before_its_step() {
        // Step 1 names an input the reference lacks: the run faults
        // there, as a by-name batch would, and the bench keeps every
        // step's drives.
        let d = design(
            "module top(input a, output y); assign y = a; endmodule",
            "top",
        );
        let drive = |name, v| [(name, LogicVec::from_u64(1, v))];
        let stim = Stimulus::combinational([drive("a", 0), drive("phantom", 1), drive("a", 0)]);
        let tb = synthesize_testbench("phantom", &d, &stim, CheckDensity::EveryStep);
        let checks: Vec<usize> = tb.steps().map(|(_, checks)| checks.len()).collect();
        assert_eq!(checks, [1, 0, 0]);
        assert_eq!(tb.stimulus(), &stim);
    }

    #[test]
    fn sparse_density_reduces_checks() {
        let d = design(
            "module top(input [1:0] a, output [1:0] y); assign y = ~a; endmodule",
            "top",
        );
        let stim = Stimulus::exhaustive(&[("a".into(), 2)]);
        let every = synthesize_testbench("t", &d, &stim, CheckDensity::EveryStep);
        let sparse = synthesize_testbench("t", &d, &stim, CheckDensity::EveryN(2));
        assert_eq!(every.total_checks(), 4);
        assert_eq!(sparse.total_checks(), 2);
    }

    #[test]
    fn a_synthesized_bench_shares_its_stimulus_drives() {
        let d = design(
            "module top(input [1:0] a, output [1:0] y); assign y = ~a; endmodule",
            "top",
        );
        let stim = Stimulus::exhaustive(&[("a".into(), 2)]);
        let tb = synthesize_testbench("t", &d, &stim, CheckDensity::EveryStep);
        assert!(Arc::ptr_eq(
            tb.stimulus().shared_drives(),
            stim.shared_drives()
        ));
        assert_eq!(tb.checks().ports(), ["y"]);
    }

    #[test]
    fn outputs_become_check_ports_in_first_use_order() {
        // `q` is X until the first edge after reset; `n` is defined from
        // the start, so it is the first port checked.
        let d = design(
            "module top(input clk, input rst, output reg q, output n);
               assign n = ~rst;
               always @(posedge clk) if (rst) q <= 1'b1;
             endmodule",
            "top",
        );
        let stim = Stimulus::clocked(
            "clk",
            [0, 1, 0].map(|r| [("rst", LogicVec::from_u64(1, r))]),
        );
        let tb = synthesize_testbench("t", &d, &stim, CheckDensity::EveryStep);
        assert_eq!(tb.checks().ports(), ["n", "q"]);
        let named: Vec<Vec<&str>> = tb
            .steps()
            .map(|(_, checks)| checks.map(|(name, _)| name).collect())
            .collect();
        assert_eq!(named, [vec!["n"], vec!["q", "n"], vec!["q", "n"]]);
    }
}
