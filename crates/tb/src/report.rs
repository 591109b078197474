//! Run reports: compact observations, mismatch scoring (Eq. 2), and the
//! checkpoint window extraction (Eq. 6).

use crate::stimulus::Drive;
use crate::tb::{time_of, Check, Testbench};
use mage_logic::LogicVec;
use std::ops::Range;
use std::sync::Arc;

/// One state-checkpoint observation: a check at a clock edge (or settle
/// point), with the input snapshot that produced it.
///
/// A [`TbReport`] does not store these: [`TbReport::records`],
/// [`TbReport::window`] and [`TbReport::first_mismatch`] rebuild them on
/// demand from the report and its bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRecord {
    /// Simulated time of the check.
    pub time: u64,
    /// Step index in the testbench.
    pub step: usize,
    /// Checked output signal.
    pub signal: String,
    /// Observed DUT value, at the DUT's width (all-`X` at the expected
    /// width once a fault stopped sampling).
    pub got: LogicVec,
    /// Expected value.
    pub expected: LogicVec,
    /// `true` when `got` case-equals `expected`.
    pub pass: bool,
    /// Input snapshot at the step (accumulated drives, frozen at the
    /// last step sampled before a fault). Every check of a step shares
    /// one snapshot.
    pub inputs: Arc<Vec<Drive>>,
}

/// A sampled check whose observed value differs structurally (width
/// included) from its expectation. It may still pass: case equality
/// zero-extends the narrower side.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Deviation {
    /// Step index in the bench.
    step: usize,
    /// Check index within the step.
    check: usize,
    pass: bool,
    got: LogicVec,
}

/// The observations of one run as its sampler collects them.
#[derive(Debug, Default)]
pub(crate) struct Observed {
    deviations: Vec<Deviation>,
    mismatches: usize,
    unsampled: Option<usize>,
}

impl Observed {
    /// Record `check`, the `k`-th of step `step`, observed as `got`.
    pub(crate) fn sample(&mut self, step: usize, k: usize, check: &Check, got: &LogicVec) {
        if *got == check.expected {
            return;
        }
        let pass = got.case_eq(&check.expected);
        self.mismatches += usize::from(!pass);
        self.deviations.push(Deviation {
            step,
            check: k,
            pass,
            got: got.clone(),
        });
    }

    /// Record that a fault left step `step` and its `checks` unsampled.
    pub(crate) fn unsampled(&mut self, step: usize, checks: usize) {
        self.unsampled.get_or_insert(step);
        self.mismatches += checks;
    }
}

/// The result of running a [`crate::Testbench`] against a DUT.
///
/// A report is compact: it holds the bench behind its `Arc`, the
/// mismatch count, the first step a fault left unsampled, the fault
/// text, and the observed value of every sampled check that differs
/// from its expectation. Everything else is implied — a check absent
/// from the deviations observed exactly its expected value, and every
/// check from the first unsampled step on failed with an all-`X`
/// observation. Scores and summaries read the compact data; the
/// per-check [`CheckRecord`]s are rebuilt only when asked for. A clone
/// bumps two refcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbReport {
    bench: Arc<Testbench>,
    mismatches: usize,
    /// First step a fault left unsampled (the step count when none did).
    unsampled: usize,
    sim_fault: Option<String>,
    /// Sorted by `(step, check)`; all before `unsampled`.
    deviations: Arc<[Deviation]>,
}

impl TbReport {
    /// Assemble the report of a run of `bench` (used by the runner).
    pub(crate) fn from_run(
        bench: Arc<Testbench>,
        observed: Observed,
        sim_fault: Option<String>,
    ) -> Self {
        TbReport {
            unsampled: observed.unsampled.unwrap_or(bench.steps.len()),
            bench,
            mismatches: observed.mismatches,
            sim_fault,
            deviations: observed.deviations.into(),
        }
    }

    /// Testbench name this report belongs to.
    pub fn name(&self) -> &str {
        &self.bench.name
    }

    /// All check records in time order, rebuilt from the report.
    pub fn records(&self) -> Vec<CheckRecord> {
        self.records_in(0..self.bench.steps.len())
    }

    /// The simulation fault message, if the run aborted (combinational
    /// loop, edge cascade). Checks after the fault are scored as
    /// mismatches.
    pub fn sim_fault(&self) -> Option<&str> {
        self.sim_fault.as_deref()
    }

    /// Mismatch count `m(r)`.
    pub fn mismatches(&self) -> usize {
        self.mismatches
    }

    /// Total check count `tc(r)`.
    pub fn total_checks(&self) -> usize {
        self.bench.total_checks()
    }

    /// The paper's Eq. 2 score: `s(r) = 1 − m(r)/tc(r)`.
    ///
    /// An empty report scores 0 (a bench with no checks certifies
    /// nothing).
    pub fn score(&self) -> f64 {
        let total = self.total_checks();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.mismatches as f64 / total as f64
    }

    /// `true` when every check passed and the simulation ran clean.
    pub fn passed(&self) -> bool {
        self.sim_fault.is_none() && self.mismatches == 0 && self.total_checks() > 0
    }

    /// The earliest mismatching record — Eq. 5's `t_m`.
    pub fn first_mismatch(&self) -> Option<CheckRecord> {
        let (step, check) = self.failures().next()?;
        self.records_in(step..step + 1).into_iter().nth(check)
    }

    /// Eq. 6: the textual waveform window `W` — every record in steps
    /// `[max(t_m − L_W, 0), t_m]`, where `t_m` is the first mismatching
    /// step. Empty when nothing mismatched.
    pub fn window(&self, lw: usize) -> Vec<CheckRecord> {
        match self.failures().next() {
            // Every record of the mismatching step (all signals checked
            // at t_m), not just the mismatching one.
            Some((tm, _)) => self.records_in(tm.saturating_sub(lw)..tm + 1),
            None => Vec::new(),
        }
    }

    /// Mismatch count for one output signal (used in summary logs).
    pub fn mismatches_for(&self, signal: &str) -> usize {
        self.failing_checks()
            .filter(|(_, check)| check.signal == signal)
            .count()
    }

    /// Signals that have at least one mismatch, in first-failure order.
    pub fn failing_signals(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (_, check) in self.failing_checks() {
            if !out.contains(&check.signal) {
                out.push(check.signal.clone());
            }
        }
        out
    }

    /// Every failing check as `(step, check)` in time order.
    pub(crate) fn failing_checks(&self) -> impl Iterator<Item = (usize, &Check)> {
        let steps = &self.bench.steps;
        self.failures()
            .map(move |(step, check)| (step, &steps[step].checks[check]))
    }

    /// Every failing check as `(step, check index within the step)` in
    /// time order: the failing deviations, then every check from the
    /// first unsampled step on.
    fn failures(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let sampled = self
            .deviations
            .iter()
            .filter(|d| !d.pass)
            .map(|d| (d.step, d.check));
        let unsampled = (self.unsampled..self.bench.steps.len())
            .flat_map(move |step| (0..self.bench.steps[step].checks.len()).map(move |k| (step, k)));
        sampled.chain(unsampled)
    }

    /// Rebuild the records of `steps`, replaying the bench's drives for
    /// the input snapshots.
    fn records_in(&self, steps: Range<usize>) -> Vec<CheckRecord> {
        let bench = &self.bench.steps;
        let mut inputs: Vec<Drive> = Vec::new();
        for step in &bench[..steps.start.min(self.unsampled)] {
            accumulate(&mut inputs, &step.drives);
        }
        let mut snapshot = Arc::new(inputs.clone());
        let first = self.deviations.partition_point(|d| d.step < steps.start);
        let mut deviations = self.deviations[first..].iter().peekable();
        let mut out = Vec::new();
        for i in steps {
            let step = &bench[i];
            if i < self.unsampled && !step.drives.is_empty() {
                accumulate(&mut inputs, &step.drives);
                snapshot = Arc::new(inputs.clone());
            }
            for (k, check) in step.checks.iter().enumerate() {
                let (pass, got) = if i >= self.unsampled {
                    (false, LogicVec::all_x(check.expected.width()))
                } else if let Some(d) = deviations.next_if(|d| (d.step, d.check) == (i, k)) {
                    (d.pass, d.got.clone())
                } else {
                    (true, check.expected.clone())
                };
                out.push(CheckRecord {
                    time: time_of(i),
                    step: i,
                    signal: check.signal.clone(),
                    got,
                    expected: check.expected.clone(),
                    pass,
                    inputs: Arc::clone(&snapshot),
                });
            }
        }
        out
    }
}

/// Apply a step's drives to the running input picture: a driven name
/// keeps its first-drive position and takes the new value.
fn accumulate(inputs: &mut Vec<Drive>, drives: &[Drive]) {
    for (name, value) in drives {
        match inputs.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value.clone(),
            None => inputs.push((name.clone(), value.clone())),
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use crate::tb::{run_testbench, Check, TbStep, Testbench};
    use crate::TbReport;
    use mage_logic::LogicVec;
    use std::sync::Arc;

    /// Run a bench over an identity design whose 4-bit outputs `a`, `b`,
    /// `q` and `y` all follow the input `d`. Step `i` drives `d = i mod
    /// 16` and checks each listed signal against `d` when the check
    /// should pass, and against `d` with bit 0 flipped when it should
    /// fail.
    pub(crate) fn report_of(steps: &[Vec<(&str, bool)>]) -> TbReport {
        let file = mage_verilog::parse(
            "module top(input [3:0] d, output [3:0] a, output [3:0] b,
                        output [3:0] q, output [3:0] y);
               assign a = d; assign b = d; assign q = d; assign y = d;
             endmodule",
        )
        .unwrap();
        let design = Arc::new(mage_sim::elaborate(&file, "top").unwrap());
        let steps = steps
            .iter()
            .enumerate()
            .map(|(i, checks)| {
                let d = i as u64 % 16;
                TbStep {
                    drives: vec![("d".into(), LogicVec::from_u64(4, d))],
                    checks: checks
                        .iter()
                        .map(|&(signal, pass)| Check {
                            signal: signal.into(),
                            expected: LogicVec::from_u64(4, if pass { d } else { d ^ 1 }),
                        })
                        .collect(),
                }
            })
            .collect();
        let tb = Arc::new(Testbench {
            name: "t".into(),
            clock: None,
            steps,
        });
        run_testbench(&tb, &design).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::report_of;
    use super::*;
    use crate::tb::{run_testbench, TbStep};

    /// One check of `signal` per step, passing per `passes`.
    fn one_signal(signal: &str, passes: &[bool]) -> TbReport {
        let steps: Vec<Vec<(&str, bool)>> = passes.iter().map(|&p| vec![(signal, p)]).collect();
        report_of(&steps)
    }

    #[test]
    fn score_is_eq2() {
        let r = one_signal("y", &[true, false, true, false]);
        assert_eq!(r.mismatches(), 2);
        assert_eq!(r.total_checks(), 4);
        assert!((r.score() - 0.5).abs() < 1e-12);
        assert!(!r.passed());
    }

    #[test]
    fn empty_report_scores_zero() {
        let r = report_of(&[]);
        assert_eq!(r.score(), 0.0);
        assert!(!r.passed());
    }

    #[test]
    fn window_spans_lw_steps() {
        let steps: Vec<Vec<(&str, bool)>> = (0..10)
            .map(|step| vec![("a", true), ("b", step != 6)])
            .collect();
        let r = report_of(&steps);
        let w = r.window(2);
        // Steps 4..=6, two signals each.
        assert_eq!(w.len(), 6);
        assert_eq!(w.first().unwrap().step, 4);
        assert_eq!(w.last().unwrap().step, 6);
        assert!(w.iter().any(|r| !r.pass));
    }

    #[test]
    fn window_clamps_at_zero() {
        let r = one_signal("y", &[false, true]);
        let w = r.window(5);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].step, 0);
    }

    #[test]
    fn window_empty_on_pass() {
        let r = one_signal("y", &[true]);
        assert!(r.window(3).is_empty());
    }

    #[test]
    fn failing_signals_ordered() {
        let r = report_of(&[vec![("b", false)], vec![("a", false)], vec![("b", false)]]);
        assert_eq!(r.failing_signals(), vec!["b".to_string(), "a".to_string()]);
        assert_eq!(r.mismatches_for("b"), 2);
    }

    #[test]
    fn clones_share_records() {
        let r = one_signal("y", &[true, false]);
        let c = r.clone();
        assert!(Arc::ptr_eq(&c.bench, &r.bench));
        assert!(Arc::ptr_eq(&c.deviations, &r.deviations));
        assert_eq!(c, r);
    }

    #[test]
    fn only_deviating_checks_are_stored() {
        let r = one_signal("q", &[true, false, true, false, false]);
        let steps: Vec<usize> = r.deviations.iter().map(|d| d.step).collect();
        assert_eq!(steps, [1, 3, 4]);
        let records = r.records();
        assert_eq!(records.len(), 5);
        for rec in &records {
            assert_eq!(rec.got, LogicVec::from_u64(4, rec.step as u64), "{rec:?}");
        }
    }

    #[test]
    fn records_after_a_fault_keep_the_last_snapshot() {
        // The oscillator loops once `a` goes 1 at step 1; the records of
        // steps 1 and 2 keep step 0's inputs and observe all-X.
        let file = mage_verilog::parse(
            "module top(input a, input b, output y, output [2:0] w);
               assign y = a ? ~y : 1'b0; assign w = {3{b}};
             endmodule",
        )
        .unwrap();
        let design = Arc::new(mage_sim::elaborate(&file, "top").unwrap());
        let step = |a: u64, b: u64| TbStep {
            drives: vec![
                ("a".into(), LogicVec::from_u64(1, a)),
                ("b".into(), LogicVec::from_u64(1, b)),
            ],
            checks: vec![
                Check {
                    signal: "y".into(),
                    expected: LogicVec::from_u64(1, 0),
                },
                Check {
                    signal: "w".into(),
                    expected: LogicVec::from_u64(3, 7 * b),
                },
            ],
        };
        let tb = Arc::new(Testbench {
            name: "osc".into(),
            clock: None,
            steps: vec![step(0, 1), step(1, 0), step(0, 0)],
        });
        let report = run_testbench(&tb, &design).unwrap();
        assert!(report.sim_fault().is_some());
        assert_eq!(report.mismatches(), 4);
        let records = report.records();
        assert_eq!(records.len(), 6);
        let before = [
            ("a".to_string(), LogicVec::from_u64(1, 0)),
            ("b".to_string(), LogicVec::from_u64(1, 1)),
        ];
        for rec in &records {
            assert_eq!(*rec.inputs, before, "step {}", rec.step);
            assert_eq!(rec.pass, rec.step == 0);
            if rec.step > 0 {
                assert!(rec.got.is_all_x(), "{rec:?}");
                assert_eq!(rec.got.width(), rec.expected.width());
            }
        }
        assert_eq!(report.first_mismatch().unwrap().step, 1);
        assert_eq!(report.window(0).len(), 2);
        assert_eq!(report.failing_signals(), ["y", "w"]);
    }
}
