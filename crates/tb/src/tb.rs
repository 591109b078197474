//! The structured testbench and the one schedule every bench runs on.

use crate::report::{Observed, TbReport};
use crate::steps::StepTable;
use crate::stimulus::Stimulus;
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

/// A structured testbench: the essential content of the paper's
/// "optimized testbench with textual waveform output".
///
/// The paper's Step 1 generates Verilog testbenches that print a
/// state-checkpoint log; this reproduction represents the same artifact
/// as data (stimulus schedule + per-step expected values) and renders the
/// textual log from the run records (see [`crate::textlog`]). The
/// substitution preserves behaviour: a run samples the same checkpoints
/// a printing bench would, and the log lines are rendered from them.
///
/// A bench is its [`Stimulus`] plus a port-indexed [`StepTable`] of
/// checks, one step of checks per step of drives: each check is an
/// output port and its expected value (compared with case equality at
/// the DUT width). The stimulus's drive table is shared, not copied: a
/// bench synthesized from a stimulus holds the same `Arc`, so building
/// one allocates only its checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Testbench {
    /// Descriptive name (usually the problem id).
    pub name: String,
    stimulus: Stimulus,
    checks: StepTable,
}

impl Testbench {
    /// A bench that drives `stimulus` and, at each step, checks that
    /// step's entries of `checks`.
    ///
    /// # Panics
    ///
    /// Panics if `checks` and `stimulus` differ in step count.
    pub fn new(name: impl Into<String>, stimulus: Stimulus, checks: StepTable) -> Self {
        assert_eq!(
            checks.len(),
            stimulus.len(),
            "one step of checks per step of drives"
        );
        debug_assert!(checks.in_first_use_order(), "ports out of first-use order");
        Testbench {
            name: name.into(),
            stimulus,
            checks,
        }
    }

    /// A bench from per-step `(drives, checks)` lists of `(name, value)`
    /// pairs, clocked by `clock` when it is a sequential one. Each name
    /// becomes a port the first time a step uses it.
    pub fn from_steps<D, C, S, T>(
        name: impl Into<String>,
        clock: Option<&str>,
        steps: impl IntoIterator<Item = (D, C)>,
    ) -> Self
    where
        D: IntoIterator<Item = (S, LogicVec)>,
        C: IntoIterator<Item = (T, LogicVec)>,
        S: AsRef<str>,
        T: AsRef<str>,
    {
        let (mut drives, mut checks) = (StepTable::default(), StepTable::default());
        for (step_drives, step_checks) in steps {
            drives.push_step(step_drives);
            checks.push_step(step_checks);
        }
        let stimulus = Stimulus::new(clock.map(str::to_string), drives);
        Testbench::new(name, stimulus, checks)
    }

    /// Clock input cycled once per step (`None` = combinational bench).
    pub fn clock(&self) -> Option<&str> {
        self.stimulus.clock()
    }

    /// The drives.
    pub(crate) fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The checks: step `i`'s entries are checked at the end of step `i`.
    pub(crate) fn checks(&self) -> &StepTable {
        &self.checks
    }

    /// Every step's `(drives, checks)` by name, in step order.
    pub fn steps(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            impl ExactSizeIterator<Item = (&str, &LogicVec)> + Clone,
            impl ExactSizeIterator<Item = (&str, &LogicVec)> + Clone,
        ),
    > {
        self.stimulus.steps().zip(self.checks.iter())
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// `true` when the bench has no steps.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Total number of checks across all steps.
    pub fn total_checks(&self) -> usize {
        self.checks.total()
    }

    /// The expected value of check `check`, counting the checks of every
    /// step in order.
    ///
    /// # Panics
    ///
    /// Panics if `check` is not below [`Testbench::total_checks`].
    pub fn expected_mut(&mut self, check: usize) -> &mut LogicVec {
        self.checks.value_mut(check)
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
/// also the interface check: the clock and every driven port resolve
/// to input ids and every checked port to an output id, one
/// design lookup per port. The lowered bench then runs on the one step
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
    let lowered = lower(design, &tb.stimulus, Some(&tb.checks));
    if !lowered.missing.is_empty() {
        return Err(TbError::InterfaceMismatch {
            missing: lowered.missing,
        });
    }
    let outputs = &lowered.outputs;
    let mut observed = Observed::default();
    let fault = run_schedule(design, &lowered.schedule, |i, sim| {
        let checks = tb.checks.entries(i);
        match sim {
            Some(sim) => {
                for (k, (port, expected)) in checks.iter().enumerate() {
                    let id = outputs[*port].expect("every checked port resolved");
                    observed.sample(i, k, expected, sim.peek(id));
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

/// A stimulus lowered against one design: the clock and every drive
/// port resolved to signal ids.
pub(crate) struct Schedule<'s> {
    clock: Option<SignalId>,
    drives: &'s StepTable,
    /// Each drive port's input id, by port index (`None` for a port the
    /// design lacks as an input).
    inputs: Vec<Option<SignalId>>,
    /// The first step that cannot run, because it drives a port the
    /// design lacks (step 0, for a missing clock), and the fault it and
    /// every later step report instead of running.
    stop: Option<(usize, SimError)>,
}

impl Schedule<'_> {
    /// Fill `batch` with step `i`'s drives by id, or return the fault
    /// that stops the run there.
    fn fill(&self, i: usize, batch: &mut Vec<(SignalId, LogicVec)>) -> Result<(), SimError> {
        if let Some((stop, fault)) = &self.stop {
            if i >= *stop {
                return Err(fault.clone());
            }
        }
        batch.clear();
        batch.extend(self.drives.entries(i).iter().map(|(port, value)| {
            let id = self.inputs[*port].expect("steps before the stop drive resolved ports");
            (id, value.clone())
        }));
        Ok(())
    }
}

/// A bench (or a bare stimulus) lowered against one design.
pub(crate) struct Lowered<'s> {
    pub(crate) schedule: Schedule<'s>,
    /// Each check port's output id, by port index (`None` for a port the
    /// design lacks as an output).
    outputs: Vec<Option<SignalId>>,
    /// Each name the design lacks, once, in first-use order — the
    /// interface check.
    missing: Vec<String>,
}

/// Lower `stimulus` and `checks` against `design`: the clock and each
/// drive port resolve among its inputs, each check port among its
/// outputs — one name lookup per port, not per step.
///
/// When a name is missing, one walk over the steps orders the misses by
/// first use (the clock first, then each step's drives before its
/// checks) and finds where the schedule stops: at the first step that
/// drives a missing name (at the first step, for a missing clock). That
/// step and every later one fault with [`SimError::UnknownInput`]
/// instead of running, as a by-name batch would have.
pub(crate) fn lower<'s>(
    design: &Design,
    stimulus: &'s Stimulus,
    checks: Option<&StepTable>,
) -> Lowered<'s> {
    let port = |name: &str, ports: &[SignalId]| design.signal(name).filter(|id| ports.contains(id));
    let drives = stimulus.drives();
    let inputs: Vec<_> = drives
        .ports()
        .iter()
        .map(|n| port(n, &design.inputs))
        .collect();
    let check_ports = checks.map_or(&[][..], StepTable::ports);
    let outputs: Vec<_> = check_ports
        .iter()
        .map(|n| port(n, &design.outputs))
        .collect();
    let clock = stimulus.clock().map(|clk| (clk, port(clk, &design.inputs)));
    let mut lowered = Lowered {
        schedule: Schedule {
            clock: clock.and_then(|(_, id)| id),
            drives,
            inputs,
            stop: None,
        },
        outputs,
        missing: Vec::new(),
    };
    let resolved = clock.is_none_or(|(_, id)| id.is_some())
        && lowered.schedule.inputs.iter().all(Option::is_some)
        && lowered.outputs.iter().all(Option::is_some);
    if resolved {
        return lowered;
    }
    let Lowered {
        schedule,
        outputs,
        missing,
    } = &mut lowered;
    let mut miss = |name: &str| {
        if !missing.iter().any(|m| m == name) {
            missing.push(name.to_string());
        }
    };
    if let Some((clk, None)) = clock {
        miss(clk);
        schedule.stop = Some((0, SimError::UnknownInput(clk.to_string())));
    }
    for i in 0..drives.len() {
        for &(p, _) in drives.entries(i) {
            if schedule.inputs[p].is_none() {
                let name = &drives.ports()[p];
                miss(name);
                let stop = || (i, SimError::UnknownInput(name.clone()));
                schedule.stop.get_or_insert_with(stop);
            }
        }
        for &(p, _) in checks.map_or(&[][..], |checks| checks.entries(i)) {
            if outputs[p].is_none() {
                miss(&check_ports[p]);
            }
        }
    }
    lowered
}

/// The bench schedule: grading ([`run_testbench`]), bench synthesis
/// ([`crate::synthesize_testbench`]) and the synthetic judge all run
/// through this one loop, each with its own sampler.
///
/// Boot settles the design and drives the clock low, so its first rise
/// is a real posedge. Each step of the schedule then drives its inputs,
/// raises the clock (a combinational bench settles instead), calls
/// `sample(step, Some(sim))` on the settled outputs, and lowers the
/// clock. The first fault latches: from then on `sample` gets `None`
/// and the simulator is left alone. Returns that fault, including one
/// on the last falling half-cycle.
pub(crate) fn run_schedule(
    design: &Arc<Design>,
    schedule: &Schedule<'_>,
    mut sample: impl FnMut(usize, Option<&mut Simulator>),
) -> Option<SimError> {
    let mut sim = Simulator::new(Arc::clone(design));
    let mut fault = boot(&mut sim, schedule.clock).err();
    let mut batch = Vec::new();
    for i in 0..schedule.drives.len() {
        if fault.is_none() {
            fault = schedule
                .fill(i, &mut batch)
                .and_then(|()| rise(&mut sim, schedule.clock, &batch))
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

    /// No entries, for a step that drives or checks nothing.
    fn none() -> Vec<(&'static str, LogicVec)> {
        Vec::new()
    }

    #[test]
    fn passing_combinational_bench() {
        let d = design(
            "module top(input a, input b, output y); assign y = a ^ b; endmodule",
            "top",
        );
        let tb = Arc::new(Testbench::from_steps(
            "xor",
            None,
            (0..4u64).map(|p| {
                (
                    [("a", v(1, p & 1)), ("b", v(1, p >> 1))],
                    [("y", v(1, (p & 1) ^ (p >> 1)))],
                )
            }),
        ));
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
        let tb = Arc::new(Testbench::from_steps(
            "or",
            None,
            (0..4u64).map(|p| {
                (
                    [("a", v(1, p & 1)), ("b", v(1, p >> 1))],
                    [("y", v(1, (p & 1) | (p >> 1)))],
                )
            }),
        ));
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
        let tb = Arc::new(Testbench::from_steps(
            "counter",
            Some("clk"),
            (0..=5u64).map(|i| ([("rst", v(1, u64::from(i == 0)))], [("q", v(4, i))])),
        ));
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed(), "{:?}", report.first_mismatch());
    }

    #[test]
    fn interface_mismatch_detected() {
        let d = design(
            "module top(input a, output y); assign y = a; endmodule",
            "top",
        );
        let tb = Arc::new(Testbench::from_steps(
            "bad",
            None,
            [([("nonexistent", v(1, 0))], none())],
        ));
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
        let check = |signal: &'static str| (signal, v(1, 0));
        let tb = Arc::new(Testbench::from_steps(
            "ports",
            Some("ck"),
            [
                (
                    vec![("a", v(1, 0)), ("ck", v(1, 0)), ("b", v(1, 0))],
                    vec![check("a"), check("ck"), check("y")],
                ),
                (
                    vec![("b", v(1, 1)), ("clk", v(1, 0))],
                    vec![check("y"), check("b")],
                ),
            ],
        ));
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
        let tb = Arc::new(Testbench::from_steps(
            "osc",
            None,
            [0, 1].map(|a| ([("a", v(1, a))], [("y", v(1, 0))])),
        ));
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
        let tb = Arc::new(Testbench::from_steps(
            "badclk",
            Some("clk_phantom"),
            [(none(), none())],
        ));
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
        let tb = Arc::new(Testbench::from_steps(
            "snap",
            None,
            [
                (vec![("a", v(1, 1)), ("b", v(1, 0))], [("y", v(1, 0))]),
                // only b changes; a must persist in the snapshot
                (vec![("b", v(1, 1))], [("y", v(1, 1))]),
            ],
        ));
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        let rec = &report.records()[1];
        assert_eq!(rec.inputs.len(), 2);
    }

    #[test]
    fn a_bench_names_each_port_once_and_returns_its_steps() {
        let steps = vec![
            (vec![("a", v(1, 1)), ("b", v(2, 0))], vec![("y", v(1, 0))]),
            (vec![("b", v(2, 3))], vec![("y", v(1, 1)), ("z", v(3, 5))]),
            (vec![], vec![]),
        ];
        let tb = Testbench::from_steps("named", Some("clk"), steps.clone());
        assert_eq!(tb.stimulus().drives().ports(), ["a", "b"]);
        assert_eq!(tb.checks().ports(), ["y", "z"]);
        assert_eq!(
            (tb.len(), tb.total_checks(), tb.clock()),
            (3, 3, Some("clk"))
        );
        fn owned<'a>(
            step: impl Iterator<Item = (&'a str, &'a LogicVec)>,
        ) -> Vec<(&'a str, LogicVec)> {
            step.map(|(name, value)| (name, value.clone())).collect()
        }
        let back: Vec<_> = tb
            .steps()
            .map(|(drives, checks)| (owned(drives), owned(checks)))
            .collect();
        assert_eq!(back, steps);
    }

    #[test]
    fn benches_from_equal_steps_are_equal_until_one_bit_flips() {
        use std::hash::{BuildHasher, RandomState};
        let steps = |y: u64| {
            (0..4u64).map(move |p| ([("a", v(2, p))], [("y", v(2, p ^ y)), ("z", v(1, 1))]))
        };
        let (a, mut b) = (
            Testbench::from_steps("t", None, steps(0)),
            Testbench::from_steps("t", None, steps(0)),
        );
        let hasher = RandomState::new();
        assert_eq!(a, b);
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let bit = b.expected_mut(4).bit(1);
        b.expected_mut(4).set_bit(1, bit.not());
        assert_ne!(a, b);
        assert_ne!(hasher.hash_one(&a), hasher.hash_one(&b));
        assert_eq!(b.checks().step(2).next(), Some(("y", &v(2, 0))));
    }

    #[test]
    #[should_panic(expected = "one step of checks per step of drives")]
    fn checks_must_match_the_stimulus_step_for_step() {
        let stimulus = Stimulus::combinational([[("a", v(1, 0))]]);
        let _ = Testbench::new("short", stimulus, StepTable::default());
    }
}
