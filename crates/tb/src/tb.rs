//! The structured testbench and its runner.

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

/// One testbench step: drives, then (for clocked benches) a clock cycle,
/// then checks against settled outputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TbStep {
    /// Inputs applied at the start of the step.
    pub drives: Vec<Drive>,
    /// Checks evaluated at the end of the step.
    pub checks: Vec<Check>,
    /// Clocks cycled this step (rise together after the drives, fall
    /// together after the checks). Empty means "use the bench-level
    /// [`Testbench::clock`]" — the single-clock schedule format is the
    /// degenerate case. Multi-clock designs list any subset per step,
    /// so domains can tick at different rates or simultaneously.
    pub clocks: Vec<String>,
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
    /// Default clock input toggled once per step, if sequential. Steps
    /// with a non-empty [`TbStep::clocks`] override it.
    pub clock: Option<String>,
    /// Steps in order.
    pub steps: Vec<TbStep>,
}

impl Testbench {
    /// Total number of checks across all steps.
    pub fn total_checks(&self) -> usize {
        self.steps.iter().map(|s| s.checks.len()).sum()
    }

    /// Iterate over all `(step_index, check)` pairs.
    pub fn checks(&self) -> impl Iterator<Item = (usize, &Check)> {
        self.steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.checks.iter().map(move |c| (i, c)))
    }

    /// The clocks cycled by `step`: its own set, or the bench-level
    /// default when the step declares none.
    pub fn step_clocks<'a>(&'a self, step: &'a TbStep) -> Vec<&'a str> {
        if !step.clocks.is_empty() {
            step.clocks.iter().map(String::as_str).collect()
        } else {
            self.clock.as_deref().into_iter().collect()
        }
    }

    /// Every clock the bench ever cycles (bench default plus per-step
    /// sets), first-use order, deduplicated. These are driven low at
    /// boot so the first rise of each is a real posedge.
    pub fn all_clocks(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        if let Some(clk) = self.clock.as_deref() {
            out.push(clk);
        }
        for step in &self.steps {
            for clk in &step.clocks {
                if !out.contains(&clk.as_str()) {
                    out.push(clk);
                }
            }
        }
        out
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
/// The driver path rides the simulator's event wheel: each step batches
/// its drives through [`Simulator::poke_many`] (one edge wave + one
/// fanout settle per step), clock edges dispatch through the per-edge
/// trigger lists computed at elaboration, and the process bytecode is
/// compiled once per [`Design`] — repeated runs against the same design
/// (the grading loop) skip recompilation entirely.
///
/// Simulation faults (combinational loops, edge cascades) do not abort
/// the report: the offending step and all later checks are recorded as
/// mismatches with all-`X` observations and the fault is noted on the
/// report, so scoring (Eq. 2) stays well-defined for broken candidates.
///
/// # Errors
///
/// [`TbError::InterfaceMismatch`] when the DUT lacks driven inputs or
/// checked outputs — the candidate declared a wrong port list.
pub fn run_testbench(tb: &Testbench, design: &Arc<Design>) -> Result<TbReport, TbError> {
    run_testbench_with_counts(tb, design).map(|(report, _)| report)
}

/// [`run_testbench`], also returning the simulator's scheduler work
/// counters for the run ([`mage_sim::EvalCounts`]: process evaluations
/// and edge probes). The perf harness divides these by the step count
/// to track events-per-step across scheduler changes; the report is
/// bit-identical to [`run_testbench`]'s.
///
/// # Errors
///
/// As [`run_testbench`].
pub fn run_testbench_with_counts(
    tb: &Testbench,
    design: &Arc<Design>,
) -> Result<(TbReport, mage_sim::EvalCounts), TbError> {
    // Interface validation.
    let mut missing: Vec<String> = Vec::new();
    let input_names: Vec<String> = design.input_ports().into_iter().map(|(n, _)| n).collect();
    let output_names: Vec<String> = design.output_ports().into_iter().map(|(n, _)| n).collect();
    for clk in tb.all_clocks() {
        if !input_names.iter().any(|n| n == clk) && !missing.iter().any(|m| m == clk) {
            missing.push(clk.to_string());
        }
    }
    for step in &tb.steps {
        for (name, _) in &step.drives {
            if !input_names.contains(name) && !missing.contains(name) {
                missing.push(name.clone());
            }
        }
        for check in &step.checks {
            if !output_names.contains(&check.signal) && !missing.contains(&check.signal) {
                missing.push(check.signal.clone());
            }
        }
    }
    if !missing.is_empty() {
        return Err(TbError::InterfaceMismatch { missing });
    }

    let mut sim = Simulator::new(Arc::clone(design));
    // One record per check, sized exactly: the report shares this buffer
    // for as long as it lives, so growth slack would stay allocated.
    let mut records: Vec<CheckRecord> = Vec::with_capacity(tb.total_checks());
    let mut sim_fault: Option<String> = None;

    let mut boot = || -> Result<(), SimError> {
        sim.settle()?;
        // Every clock the bench will ever cycle starts low, so each
        // domain's first rise is a real posedge.
        sim.poke_many(
            tb.all_clocks()
                .into_iter()
                .map(|clk| (clk, LogicVec::from_bool(false))),
        )?;
        Ok(())
    };
    if let Err(e) = boot() {
        sim_fault = Some(e.to_string());
    }

    let mut inputs_now: Vec<Drive> = Vec::new();
    // Shared per-step snapshot: checks of one step all point at the same
    // drive list (rebuilt only when drives actually change).
    let mut inputs_snapshot: Arc<Vec<Drive>> = Arc::new(Vec::new());
    for (i, step) in tb.steps.iter().enumerate() {
        let time = (i as u64 + 1) * TIME_PER_STEP;
        if sim_fault.is_none() {
            // Drive inputs while the clock is low, raise the clock, and
            // sample checkpoints after the rising edge settles (the
            // falling half-cycle completes after the checks, as a real
            // checkpoint testbench does). Sampling here — not after the
            // full cycle — is what makes wrong-edge bugs observable.
            let r = exec_step_rise(&mut sim, &tb.step_clocks(step), &step.drives);
            match r {
                Ok(()) => {
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
                Err(e) => sim_fault = Some(e.to_string()),
            }
        }
        for check in &step.checks {
            let got = if sim_fault.is_none() {
                sim.peek_by_name(&check.signal)
                    .cloned()
                    .unwrap_or_else(|| LogicVec::all_x(check.expected.width()))
            } else {
                LogicVec::all_x(check.expected.width())
            };
            let pass = sim_fault.is_none() && got.case_eq(&check.expected);
            records.push(CheckRecord {
                time,
                step: i,
                signal: check.signal.clone(),
                got,
                expected: check.expected.clone(),
                pass,
                inputs: Arc::clone(&inputs_snapshot),
            });
        }
        // Complete the clock cycle(s) after the checkpoints are sampled.
        // (Run even after the last step: a fault on the falling
        // half-cycle must still surface as `sim_fault`.)
        if sim_fault.is_none() {
            let clocks = tb.step_clocks(step);
            if !clocks.is_empty() {
                let r = sim.poke_many(
                    clocks
                        .into_iter()
                        .map(|clk| (clk, LogicVec::from_bool(false))),
                );
                if let Err(e) = r {
                    sim_fault = Some(e.to_string());
                }
            }
        }
    }

    Ok((
        TbReport::new(tb.name.clone(), records, sim_fault),
        sim.eval_counts(),
    ))
}

fn exec_step_rise(sim: &mut Simulator, clocks: &[&str], drives: &[Drive]) -> Result<(), SimError> {
    // Batched: stores update first, edges fire once, fanout settles once
    // — instead of a full re-settle per driven input.
    sim.poke_many(drives.iter().map(|(n, v)| (n.as_str(), v.clone())))?;
    if clocks.is_empty() {
        // Edge-free drives defer their combinational flush; settle so a
        // propagation fault surfaces here as the step's error instead
        // of silently freezing the checkpoint reads.
        sim.settle()?;
        sim.advance(TIME_PER_STEP);
    } else {
        // All of the step's clocks rise in one batch: simultaneous
        // edges trigger every listed domain in a single wave.
        sim.advance(TIME_PER_STEP / 2);
        sim.poke_many(clocks.iter().map(|clk| (*clk, LogicVec::from_bool(true))))?;
        sim.advance(TIME_PER_STEP / 2);
    }
    Ok(())
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
                    clocks: vec![],
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
                    clocks: vec![],
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
            clocks: vec![],
        }];
        for i in 1..=5u64 {
            steps.push(TbStep {
                drives: vec![("rst".into(), v(1, 0))],
                checks: vec![Check {
                    signal: "q".into(),
                    expected: v(4, i),
                }],
                clocks: vec![],
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
                clocks: vec![],
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
                    clocks: vec![],
                },
                TbStep {
                    drives: vec![("a".into(), v(1, 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 0),
                    }],
                    clocks: vec![],
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
    fn multi_clock_bench_independent_domains() {
        // Two clock domains at different rates against the dual-clock
        // bench kernel: clka ticks every step, clkb every other step.
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../bench/benches/dualclk_kernel.v"
        ))
        .unwrap();
        let d = design(&src, "top_module");
        let step = |clocks: &[&str], drives: Vec<Drive>, checks: Vec<(&str, usize, u64)>| TbStep {
            drives,
            checks: checks
                .into_iter()
                .map(|(s, w, x)| Check {
                    signal: s.into(),
                    expected: v(w, x),
                })
                .collect(),
            clocks: clocks.iter().map(|c| c.to_string()).collect(),
        };
        let tb = Testbench {
            name: "dualclk".into(),
            clock: None,
            steps: vec![
                // Reset both domains (simultaneous edges in one step).
                step(
                    &["clka", "clkb"],
                    vec![("rst".into(), v(1, 1))],
                    vec![("qa", 8, 0), ("qb", 16, 0)],
                ),
                // clka only: qa accumulates da, qb holds.
                step(
                    &["clka"],
                    vec![
                        ("rst".into(), v(1, 0)),
                        ("da".into(), v(8, 5)),
                        ("db".into(), v(8, 9)),
                    ],
                    vec![("qa", 8, 5), ("qb", 16, 0), ("mixa", 8, 0)],
                ),
                // Both clocks: qa += da again, qb += db for the first time.
                step(
                    &["clka", "clkb"],
                    vec![],
                    vec![("qa", 8, 10), ("qb", 16, 9), ("mixa", 8, 15)],
                ),
                // clkb only: qa holds, qb advances.
                step(&["clkb"], vec![], vec![("qa", 8, 10), ("qb", 16, 18)]),
            ],
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatch());
        assert!(report.sim_fault().is_none());
    }

    #[test]
    fn multi_clock_bench_mixes_default_and_per_step_sets() {
        // Handshake kernel: per-step clock sets override the bench-level
        // default (clka); steps with an empty set fall back to it.
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../bench/benches/handshake_kernel.v"
        ))
        .unwrap();
        let d = design(&src, "top_module");
        let tb = Testbench {
            name: "handshake".into(),
            clock: Some("clka".into()),
            steps: vec![
                TbStep {
                    drives: vec![
                        ("rst".into(), v(1, 1)),
                        ("req".into(), v(1, 0)),
                        ("data".into(), v(8, 0)),
                    ],
                    checks: vec![Check {
                        signal: "ack".into(),
                        expected: v(1, 0),
                    }],
                    clocks: vec!["clka".into(), "clkb".into()],
                },
                // Default clock (clka) syncs the request into domain A.
                TbStep {
                    drives: vec![
                        ("rst".into(), v(1, 0)),
                        ("req".into(), v(1, 1)),
                        ("data".into(), v(8, 0xA5)),
                    ],
                    checks: vec![Check {
                        signal: "busy".into(),
                        expected: v(1, 1),
                    }],
                    clocks: vec![],
                },
                // Domain B acknowledges and captures on its own edge.
                TbStep {
                    drives: vec![],
                    checks: vec![
                        Check {
                            signal: "ack".into(),
                            expected: v(1, 1),
                        },
                        Check {
                            signal: "captured".into(),
                            expected: v(8, 0xA5),
                        },
                        Check {
                            signal: "busy".into(),
                            expected: v(1, 0),
                        },
                    ],
                    clocks: vec!["clkb".into()],
                },
            ],
        };
        assert_eq!(tb.all_clocks(), vec!["clka", "clkb"]);
        assert_eq!(tb.step_clocks(&tb.steps[1]), vec!["clka"]);
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatch());
    }

    #[test]
    fn multi_clock_missing_clock_is_interface_mismatch() {
        let d = design(
            "module top(input clk, output reg q); always @(posedge clk) q <= ~q; endmodule",
            "top",
        );
        let tb = Testbench {
            name: "badclk".into(),
            clock: Some("clk".into()),
            steps: vec![TbStep {
                drives: vec![],
                checks: vec![],
                clocks: vec!["clk".into(), "clk_phantom".into()],
            }],
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
                    clocks: vec![],
                },
                TbStep {
                    // only b changes; a must persist in the snapshot
                    drives: vec![("b".into(), v(1, 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: v(1, 1),
                    }],
                    clocks: vec![],
                },
            ],
        };
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        let rec = &report.records()[1];
        assert_eq!(rec.inputs.len(), 2);
    }
}
