//! The structured testbench and the one schedule every bench runs on.

use crate::report::{CheckRecord, TbReport};
use crate::stimulus::Drive;
use mage_logic::LogicVec;
use mage_sim::{Design, SimError, Simulator};
use std::fmt;
use std::sync::Arc;

/// Simulated time units per testbench step (one clock cycle or one
/// combinational apply-settle-check).
pub const TIME_PER_STEP: u64 = 10;

/// An output check within a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Check {
    /// Output signal name.
    pub signal: String,
    /// Expected value (compared with case equality at the DUT width).
    pub expected: LogicVec,
}

/// One testbench step: drives, then (for clocked benches) a rising edge
/// of [`Testbench::clock`], then checks against the settled outputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TbStep {
    /// Inputs applied at the start of the step.
    pub drives: Vec<Drive>,
    /// Checks evaluated at the end of the step.
    pub checks: Vec<Check>,
}

/// A structured testbench: the essential content of the paper's
/// "optimized testbench with textual waveform output".
///
/// The paper's Step 1 generates Verilog testbenches that print a
/// state-checkpoint log; this reproduction represents the same artifact
/// as data (stimulus schedule + per-step expected values) and renders the
/// textual log from the run records (see [`crate::textlog`]). See
/// `DESIGN.md` for why this substitution is behaviour-preserving.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Testbench {
    /// Descriptive name (usually the problem id).
    pub name: String,
    /// Clock input cycled once per step (`None` = combinational bench).
    pub clock: Option<String>,
    /// Steps in order.
    pub steps: Vec<TbStep>,
}

impl Testbench {
    /// Total number of checks across all steps.
    pub fn total_checks(&self) -> usize {
        self.steps.iter().map(|s| s.checks.len()).sum()
    }
}

/// Why a testbench run could not produce a normal report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TbError {
    /// The DUT interface is missing signals the bench drives or checks.
    InterfaceMismatch {
        /// The missing signal names.
        missing: Vec<String>,
    },
}

impl fmt::Display for TbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbError::InterfaceMismatch { missing } => {
                write!(f, "DUT interface mismatch, missing: {}", missing.join(", "))
            }
        }
    }
}

impl std::error::Error for TbError {}

/// Run `tb` against `design` and produce the per-check report.
///
/// The bench runs on the one step schedule that also synthesizes benches
/// ([`crate::synthesize_testbench`]): each step batches its drives
/// through [`Simulator::poke_many`] while the clock is low, raises the
/// clock (or settles, for a combinational bench), and samples the checks
/// there — before the falling half-cycle, which is what makes wrong-edge
/// bugs observable. Process bytecode is compiled once per [`Design`], so
/// repeated runs against the same design (the grading loop) skip
/// recompilation entirely.
///
/// Simulation faults (combinational loops, edge cascades) do not abort
/// the report: the offending step and all later checks are recorded as
/// mismatches with all-`X` observations and the fault is noted on the
/// report, so scoring (Eq. 2) stays well-defined for broken candidates.
///
/// # Errors
///
/// [`TbError::InterfaceMismatch`] when the DUT lacks the clock, a driven
/// input or a checked output — the candidate declared a wrong port list.
pub fn run_testbench(tb: &Testbench, design: &Arc<Design>) -> Result<TbReport, TbError> {
    check_interface(tb, design)?;
    // One record per check, sized exactly: the report shares this buffer
    // for as long as it lives, so growth slack would stay allocated.
    let mut records: Vec<CheckRecord> = Vec::with_capacity(tb.total_checks());
    let mut inputs_now: Vec<Drive> = Vec::new();
    // Shared per-step snapshot: checks of one step all point at the same
    // drive list (rebuilt only when drives actually change).
    let mut inputs_snapshot: Arc<Vec<Drive>> = Arc::new(Vec::new());
    let drives = tb.steps.iter().map(|s| s.drives.as_slice());
    let fault = run_schedule(design, tb.clock.as_deref(), drives, |i, mut sim| {
        let step = &tb.steps[i];
        if sim.is_some() {
            // Track the full input picture for the log snapshot.
            for (n, v) in &step.drives {
                if let Some(slot) = inputs_now.iter_mut().find(|(en, _)| en == n) {
                    slot.1 = v.clone();
                } else {
                    inputs_now.push((n.clone(), v.clone()));
                }
            }
            if !step.drives.is_empty() {
                inputs_snapshot = Arc::new(inputs_now.clone());
            }
        }
        for check in &step.checks {
            let got = sim
                .as_deref_mut()
                .and_then(|sim| sim.peek_by_name(&check.signal).cloned())
                .unwrap_or_else(|| LogicVec::all_x(check.expected.width()));
            records.push(CheckRecord {
                time: (i as u64 + 1) * TIME_PER_STEP,
                step: i,
                signal: check.signal.clone(),
                pass: sim.is_some() && got.case_eq(&check.expected),
                got,
                expected: check.expected.clone(),
                inputs: Arc::clone(&inputs_snapshot),
            });
        }
    });
    Ok(TbReport::new(
        tb.name.clone(),
        records,
        fault.map(|e| e.to_string()),
    ))
}

/// Every name the bench cycles, drives or checks must be a port of the
/// right direction; the missing ones are reported in first-use order.
fn check_interface(tb: &Testbench, design: &Design) -> Result<(), TbError> {
    let inputs: Vec<String> = design.input_ports().into_iter().map(|(n, _)| n).collect();
    let outputs: Vec<String> = design.output_ports().into_iter().map(|(n, _)| n).collect();
    let mut missing: Vec<String> = Vec::new();
    let mut require = |ports: &[String], name: &str| {
        if !ports.iter().any(|p| p == name) && !missing.iter().any(|m| m == name) {
            missing.push(name.to_string());
        }
    };
    if let Some(clk) = &tb.clock {
        require(&inputs, clk);
    }
    for step in &tb.steps {
        for (name, _) in &step.drives {
            require(&inputs, name);
        }
        for check in &step.checks {
            require(&outputs, &check.signal);
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(TbError::InterfaceMismatch { missing })
    }
}

/// The bench schedule: grading ([`run_testbench`]), bench synthesis
/// ([`crate::synthesize_testbench`]) and the synthetic judge all run
/// through this one loop, each with its own sampler.
///
/// Boot settles the design and drives `clock` low, so its first rise is
/// a real posedge. Each step then drives its inputs, raises the clock (a
/// combinational bench settles instead), calls `sample(step, Some(sim))`
/// on the settled outputs, and lowers the clock. The first fault latches:
/// from then on `sample` gets `None` and the simulator is left alone.
/// Returns that fault, including one on the last falling half-cycle.
pub(crate) fn run_schedule<'s>(
    design: &Arc<Design>,
    clock: Option<&str>,
    steps: impl IntoIterator<Item = &'s [Drive]>,
    mut sample: impl FnMut(usize, Option<&mut Simulator>),
) -> Option<SimError> {
    let mut sim = Simulator::new(Arc::clone(design));
    let mut fault = boot(&mut sim, clock).err();
    for (i, drives) in steps.into_iter().enumerate() {
        if fault.is_none() {
            fault = rise(&mut sim, clock, drives).err();
        }
        sample(i, fault.is_none().then_some(&mut sim));
        if let (None, Some(clk)) = (&fault, clock) {
            fault = sim.poke(clk, LogicVec::from_bool(false)).err();
        }
    }
    fault
}

fn boot(sim: &mut Simulator, clock: Option<&str>) -> Result<(), SimError> {
    sim.settle()?;
    match clock {
        Some(clk) => sim.poke(clk, LogicVec::from_bool(false)),
        None => Ok(()),
    }
}

fn rise(sim: &mut Simulator, clock: Option<&str>, drives: &[Drive]) -> Result<(), SimError> {
    // Batched: stores update first, edges fire once, fanout settles once
    // — instead of a full re-settle per driven input.
    sim.poke_many(drives.iter().map(|(n, v)| (n.as_str(), v.clone())))?;
    match clock {
        Some(clk) => sim.poke(clk, LogicVec::from_bool(true)),
        // Edge-free drives defer their combinational flush; settle so a
        // propagation fault surfaces here as the step's error instead of
        // silently freezing the sampled outputs.
        None => sim.settle(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::elaborate;

    fn design(src: &str, top: &str) -> Arc<Design> {
        let file = mage_verilog::parse(src).unwrap();
        Arc::new(elaborate(&file, top).unwrap())
    }

    fn v(w: usize, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn passing_combinational_bench() {
        let d = design(
            "module top(input a, input b, output y); assign y = a ^ b; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "xor".into(),
            clock: None,
            steps: (0..4u64)
                .map(|p| TbStep {
                    drives: vec![("a".into(), v(1, p & 1)), ("b".into(), v(1, p >> 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, (p & 1) ^ (p >> 1)),
                    }],
                })
                .collect(),
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        assert_eq!(report.total_checks(), 4);
        assert_eq!(report.mismatches(), 0);
        assert_eq!(report.score(), 1.0);
    }

    #[test]
    fn failing_bench_finds_first_mismatch() {
        // DUT implements AND but bench expects OR.
        let d = design(
            "module top(input a, input b, output y); assign y = a & b; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "or".into(),
            clock: None,
            steps: (0..4u64)
                .map(|p| TbStep {
                    drives: vec![("a".into(), v(1, p & 1)), ("b".into(), v(1, p >> 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, (p & 1) | (p >> 1)),
                    }],
                })
                .collect(),
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(!report.passed());
        assert_eq!(report.mismatches(), 2); // patterns 01 and 10
        let fm = report.first_mismatch().unwrap();
        assert_eq!(fm.step, 1);
        assert_eq!(fm.time, 20);
        assert!((report.score() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clocked_bench_counts() {
        let d = design(
            "module top(input clk, input rst, output reg [3:0] q);
               always @(posedge clk) if (rst) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
            "top",
        );
        let mut steps = vec![TbStep {
            drives: vec![("rst".into(), v(1, 1))],
            checks: vec![Check {
                signal: "q".into(),
                expected: v(4, 0),
            }],
        }];
        for i in 1..=5u64 {
            steps.push(TbStep {
                drives: vec![("rst".into(), v(1, 0))],
                checks: vec![Check {
                    signal: "q".into(),
                    expected: v(4, i),
                }],
            });
        }
        let tb = Testbench {
            name: "counter".into(),
            clock: Some("clk".into()),
            steps,
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatch());
    }

    #[test]
    fn interface_mismatch_detected() {
        let d = design(
            "module top(input a, output y); assign y = a; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "bad".into(),
            clock: None,
            steps: vec![TbStep {
                drives: vec![("nonexistent".into(), v(1, 0))],
                checks: vec![],
            }],
        };
        let err = run_testbench(&tb, &d).unwrap_err();
        assert!(matches!(err, TbError::InterfaceMismatch { .. }));
    }

    #[test]
    fn sim_fault_scores_remaining_as_mismatches() {
        // Oscillator fires when a goes 1 at step 1.
        let d = design(
            "module top(input a, output y); assign y = a ? ~y : 1'b0; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "osc".into(),
            clock: None,
            steps: vec![
                TbStep {
                    drives: vec![("a".into(), v(1, 0))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 0),
                    }],
                },
                TbStep {
                    drives: vec![("a".into(), v(1, 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 0),
                    }],
                },
            ],
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.sim_fault().is_some());
        assert_eq!(report.mismatches(), 1);
        assert_eq!(report.total_checks(), 2);
        assert!(!report.passed());
    }

    #[test]
    fn multi_clock_missing_clock_is_interface_mismatch() {
        let d = design(
            "module top(input clk, output reg q); always @(posedge clk) q <= ~q; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "badclk".into(),
            clock: Some("clk_phantom".into()),
            steps: vec![TbStep::default()],
        };
        let err = run_testbench(&tb, &d).unwrap_err();
        match err {
            TbError::InterfaceMismatch { missing } => {
                assert_eq!(missing, vec!["clk_phantom".to_string()]);
            }
        }
    }

    #[test]
    fn inputs_snapshot_accumulates() {
        let d = design(
            "module top(input a, input b, output y); assign y = a & b; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "snap".into(),
            clock: None,
            steps: vec![
                TbStep {
                    drives: vec![("a".into(), v(1, 1)), ("b".into(), v(1, 0))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 0),
                    }],
                },
                TbStep {
                    // only b changes; a must persist in the snapshot
                    drives: vec![("b".into(), v(1, 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 1),
                    }],
                },
            ],
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        let rec = &report.records()[1];
        assert_eq!(rec.inputs.len(), 2);
    }
}
