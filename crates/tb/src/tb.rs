//! The structured testbench and the one schedule every bench runs on.

use crate::report::{Observed, TbReport};
use crate::stimulus::Drive;
use mage_logic::LogicVec;
use mage_sim::{Design, SignalId, SimError, Simulator};
use std::fmt;
use std::sync::Arc;

/// Simulated time units per testbench step (one clock cycle or one
/// combinational apply-settle-check).
pub const TIME_PER_STEP: u64 = 10;

/// Simulated time at which step `step`'s checks are sampled.
pub(crate) fn time_of(step: usize) -> u64 {
    (step as u64 + 1) * TIME_PER_STEP
}

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
/// textual log from the run records (see [`crate::textlog`]). The
/// substitution preserves behaviour: a run samples the same checkpoints
/// a printing bench would, and the log lines are rendered from them.
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

/// Run `tb` against `design` and produce its compact report.
///
/// The bench is first lowered against the design in one pass that is
/// also the interface check: the clock and every driven input resolve
/// to input ids and every checked output to an output id, through the
/// design's name index. The lowered bench then runs on the one step
/// schedule that also synthesizes benches
/// ([`crate::synthesize_testbench`]): each step batches its drives
/// through [`Simulator::poke_many_ids`] while the clock is low, raises
/// the clock (or settles, for a combinational bench), and samples the
/// checks there by id — before the falling half-cycle, which is what
/// makes wrong-edge bugs observable. Process bytecode is compiled once
/// per [`Design`], so repeated runs against the same design (the
/// grading loop) skip recompilation entirely.
///
/// The report keeps only what the bench cannot reproduce: the observed
/// value of each check that differs from its expectation, the mismatch
/// count, and where a fault stopped sampling. [`TbReport::records`]
/// rebuilds the full per-check records from that and the bench.
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
/// Each missing name is reported once, in first-use order.
pub fn run_testbench(tb: &Arc<Testbench>, design: &Arc<Design>) -> Result<TbReport, TbError> {
    let steps = tb.steps.iter().map(|s| (&s.drives[..], &s.checks[..]));
    let (schedule, outputs, missing) = lower(design, tb.clock.as_deref(), steps);
    if !missing.is_empty() {
        return Err(TbError::InterfaceMismatch { missing });
    }
    let mut observed = Observed::default();
    let mut next = 0;
    let fault = run_schedule(design, &schedule, tb.steps.len(), |i, sim| {
        let checks = &tb.steps[i].checks;
        let ids = &outputs[next..next + checks.len()];
        next += checks.len();
        match sim {
            Some(sim) => {
                for (k, (check, &id)) in checks.iter().zip(ids).enumerate() {
                    observed.sample(i, k, check, sim.peek(id));
                }
            }
            None => observed.unsampled(i, checks.len()),
        }
    });
    Ok(TbReport::from_run(
        Arc::clone(tb),
        observed,
        fault.map(|e| e.to_string()),
    ))
}

/// A schedule lowered against one design: the clock and every step's
/// drives resolved to signal ids.
pub(crate) struct Schedule {
    clock: Option<SignalId>,
    /// Every step's drives in order: step `i` drives
    /// `drives[bounds[i]..bounds[i + 1]]`.
    drives: Vec<(SignalId, LogicVec)>,
    bounds: Vec<usize>,
    /// Why lowering stopped before the last step: the step after the
    /// lowered ones (or the boot, for the clock) names an input the
    /// design lacks, and faults with this error instead of running.
    unresolved: Option<SimError>,
}

impl Schedule {
    /// Step `i`'s drives, or the fault that stops the run there: every
    /// step past the lowered ones runs into `unresolved`.
    fn step(&self, i: usize) -> Result<&[(SignalId, LogicVec)], SimError> {
        match (self.bounds.get(i), self.bounds.get(i + 1)) {
            (Some(&lo), Some(&hi)) => Ok(&self.drives[lo..hi]),
            _ => self.unresolved.clone().map_or(Ok(&[]), Err),
        }
    }
}

/// Lower a bench's clock and `(drives, checks)` steps against `design`
/// in one pass: the clock and driven names resolve among its inputs,
/// checked names among its outputs. Returns the schedule, every check's
/// output id in check order, and each name the design lacks once, in
/// first-use order — the interface check.
///
/// The schedule stops at the first step that drives a missing name (at
/// the first step, for a missing clock): that step and every later one
/// fault with [`SimError::UnknownInput`] instead of running, as a
/// by-name batch would have.
pub(crate) fn lower<'b>(
    design: &Design,
    clock: Option<&str>,
    steps: impl ExactSizeIterator<Item = (&'b [Drive], &'b [Check])>,
) -> (Schedule, Vec<SignalId>, Vec<String>) {
    let port = |name: &str, ports: &[SignalId]| design.signal(name).filter(|id| ports.contains(id));
    let mut missing: Vec<String> = Vec::new();
    let mut miss = |name: &str| {
        if !missing.iter().any(|m| m == name) {
            missing.push(name.to_string());
        }
    };
    let mut bounds = Vec::with_capacity(steps.len() + 1);
    bounds.push(0);
    let mut schedule = Schedule {
        clock: clock.and_then(|clk| port(clk, &design.inputs)),
        drives: Vec::new(),
        bounds,
        unresolved: None,
    };
    if let (Some(clk), None) = (clock, schedule.clock) {
        miss(clk);
        schedule.unresolved = Some(SimError::UnknownInput(clk.to_string()));
    }
    let mut outputs = Vec::new();
    for (drives, checks) in steps {
        for (name, value) in drives {
            match port(name, &design.inputs) {
                Some(id) if schedule.unresolved.is_none() => {
                    schedule.drives.push((id, value.clone()));
                }
                Some(_) => {}
                None => {
                    miss(name);
                    let stop = || SimError::UnknownInput(name.clone());
                    schedule.unresolved.get_or_insert_with(stop);
                }
            }
        }
        // A step that names a missing input stays open: its partial
        // drives never run.
        if schedule.unresolved.is_none() {
            schedule.bounds.push(schedule.drives.len());
        }
        for check in checks {
            match port(&check.signal, &design.outputs) {
                Some(id) => outputs.push(id),
                None => miss(&check.signal),
            }
        }
    }
    (schedule, outputs, missing)
}

/// The bench schedule: grading ([`run_testbench`]), bench synthesis
/// ([`crate::synthesize_testbench`]) and the synthetic judge all run
/// through this one loop, each with its own sampler.
///
/// Boot settles the design and drives the clock low, so its first rise
/// is a real posedge. Each of the `steps` steps then drives its inputs,
/// raises the clock (a combinational bench settles instead), calls
/// `sample(step, Some(sim))` on the settled outputs, and lowers the
/// clock. The first fault latches: from then on `sample` gets `None`
/// and the simulator is left alone. Returns that fault, including one
/// on the last falling half-cycle.
pub(crate) fn run_schedule(
    design: &Arc<Design>,
    schedule: &Schedule,
    steps: usize,
    mut sample: impl FnMut(usize, Option<&mut Simulator>),
) -> Option<SimError> {
    let mut sim = Simulator::new(Arc::clone(design));
    let mut fault = boot(&mut sim, schedule.clock).err();
    for i in 0..steps {
        if fault.is_none() {
            fault = schedule
                .step(i)
                .and_then(|drives| rise(&mut sim, schedule.clock, drives))
                .err();
        }
        sample(i, fault.is_none().then_some(&mut sim));
        if let (None, Some(clk)) = (&fault, schedule.clock) {
            fault = sim.poke_id(clk, LogicVec::from_bool(false)).err();
        }
    }
    fault
}

fn boot(sim: &mut Simulator, clock: Option<SignalId>) -> Result<(), SimError> {
    sim.settle()?;
    match clock {
        Some(clk) => sim.poke_id(clk, LogicVec::from_bool(false)),
        None => Ok(()),
    }
}

fn rise(
    sim: &mut Simulator,
    clock: Option<SignalId>,
    drives: &[(SignalId, LogicVec)],
) -> Result<(), SimError> {
    // Batched: stores update first, edges fire once, fanout settles once
    // — instead of a full re-settle per driven input.
    sim.poke_many_ids(drives)?;
    match clock {
        Some(clk) => sim.poke_id(clk, LogicVec::from_bool(true)),
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
        let tb = Arc::new(Testbench {
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
        });
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
        let tb = Arc::new(Testbench {
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
        });
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
        let tb = Arc::new(Testbench {
            name: "counter".into(),
            clock: Some("clk".into()),
            steps,
        });
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatch());
    }

    #[test]
    fn interface_mismatch_detected() {
        let d = design(
            "module top(input a, output y); assign y = a; endmodule",
            "top",
        );
        let tb = Arc::new(Testbench {
            name: "bad".into(),
            clock: None,
            steps: vec![TbStep {
                drives: vec![("nonexistent".into(), v(1, 0))],
                checks: vec![],
            }],
        });
        let err = run_testbench(&tb, &d).unwrap_err();
        assert!(matches!(err, TbError::InterfaceMismatch { .. }));
    }

    #[test]
    fn interface_mismatch_names_each_missing_port_once_in_first_use_order() {
        // `ck` is missing as the clock, then driven and checked; `a` is
        // an input, so checking it is a miss on the output side; `b` is
        // driven on two steps.
        let d = design(
            "module top(input clk, input a, output y); assign y = a; endmodule",
            "top",
        );
        let check = |signal: &str| Check {
            signal: signal.into(),
            expected: v(1, 0),
        };
        let tb = Arc::new(Testbench {
            name: "ports".into(),
            clock: Some("ck".into()),
            steps: vec![
                TbStep {
                    drives: vec![
                        ("a".into(), v(1, 0)),
                        ("ck".into(), v(1, 0)),
                        ("b".into(), v(1, 0)),
                    ],
                    checks: vec![check("a"), check("ck"), check("y")],
                },
                TbStep {
                    drives: vec![("b".into(), v(1, 1)), ("clk".into(), v(1, 0))],
                    checks: vec![check("y"), check("b")],
                },
            ],
        });
        let err = run_testbench(&tb, &d).unwrap_err();
        assert_eq!(
            err,
            TbError::InterfaceMismatch {
                missing: vec!["ck".into(), "b".into(), "a".into()],
            }
        );
    }

    #[test]
    fn sim_fault_scores_remaining_as_mismatches() {
        // Oscillator fires when a goes 1 at step 1.
        let d = design(
            "module top(input a, output y); assign y = a ? ~y : 1'b0; endmodule",
            "top",
        );
        let tb = Arc::new(Testbench {
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
        });
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
        let tb = Arc::new(Testbench {
            name: "badclk".into(),
            clock: Some("clk_phantom".into()),
            steps: vec![TbStep::default()],
        });
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
        let tb = Arc::new(Testbench {
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
        });
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        let rec = &report.records()[1];
        assert_eq!(rec.inputs.len(), 2);
    }
}
