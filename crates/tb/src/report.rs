//! Run reports: per-check records, mismatch scoring (Eq. 2), and the
//! checkpoint window extraction (Eq. 6).

use crate::stimulus::Drive;
use mage_logic::LogicVec;
use std::sync::Arc;

/// One state-checkpoint observation: a check at a clock edge (or settle
/// point), with the input snapshot that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRecord {
    /// Simulated time of the check.
    pub time: u64,
    /// Step index in the testbench.
    pub step: usize,
    /// Checked output signal.
    pub signal: String,
    /// Observed DUT value.
    pub got: LogicVec,
    /// Expected value.
    pub expected: LogicVec,
    /// `true` when `got` case-equals `expected`.
    pub pass: bool,
    /// Input snapshot at the step (accumulated drives). Shared: every
    /// check of a step points at the same snapshot, so recording a check
    /// costs a refcount bump instead of cloning the drive list.
    pub inputs: Arc<Vec<Drive>>,
}

/// The result of running a [`crate::Testbench`] against a DUT.
///
/// The records are shared: a clone bumps a refcount instead of copying
/// one record per check, so caches and job hand-offs can pass reports
/// around freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbReport {
    name: String,
    /// An `Arc<Vec>` rather than an `Arc<[_]>`: wrapping the runner's
    /// vector moves it, where converting it to a slice would copy every
    /// record once more.
    records: Arc<Vec<CheckRecord>>,
    sim_fault: Option<String>,
}

impl TbReport {
    /// Assemble a report (used by the runner).
    pub fn new(name: String, records: Vec<CheckRecord>, sim_fault: Option<String>) -> Self {
        TbReport {
            name,
            records: Arc::new(records),
            sim_fault,
        }
    }

    /// Testbench name this report belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All check records in time order.
    pub fn records(&self) -> &[CheckRecord] {
        &self.records
    }

    /// The simulation fault message, if the run aborted (combinational
    /// loop, edge cascade). Checks after the fault are scored as
    /// mismatches.
    pub fn sim_fault(&self) -> Option<&str> {
        self.sim_fault.as_deref()
    }

    /// Mismatch count `m(r)`.
    pub fn mismatches(&self) -> usize {
        self.records.iter().filter(|r| !r.pass).count()
    }

    /// Total check count `tc(r)`.
    pub fn total_checks(&self) -> usize {
        self.records.len()
    }

    /// The paper's Eq. 2 score: `s(r) = 1 − m(r)/tc(r)`.
    ///
    /// An empty report scores 0 (a bench with no checks certifies
    /// nothing).
    pub fn score(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        1.0 - self.mismatches() as f64 / self.total_checks() as f64
    }

    /// `true` when every check passed and the simulation ran clean.
    pub fn passed(&self) -> bool {
        self.sim_fault.is_none() && !self.records.is_empty() && self.records.iter().all(|r| r.pass)
    }

    /// The earliest mismatching record — Eq. 5's `t_m`.
    pub fn first_mismatch(&self) -> Option<&CheckRecord> {
        self.records.iter().find(|r| !r.pass)
    }

    /// Eq. 6: the textual waveform window `W` — every record in steps
    /// `[max(t_m − L_W, 0), t_m]`, where `t_m` is the first mismatching
    /// step. Empty when nothing mismatched.
    pub fn window(&self, lw: usize) -> &[CheckRecord] {
        let Some(first) = self.records.iter().position(|r| !r.pass) else {
            return &[];
        };
        let tm_step = self.records[first].step;
        let lo_step = tm_step.saturating_sub(lw);
        let lo = self
            .records
            .iter()
            .position(|r| r.step >= lo_step)
            .unwrap_or(0);
        // Include every record of the mismatching step (all signals
        // checked at t_m), not just the mismatching one.
        let hi = self
            .records
            .iter()
            .rposition(|r| r.step <= tm_step)
            .map(|i| i + 1)
            .unwrap_or(self.records.len());
        &self.records[lo..hi]
    }

    /// Mismatch count for one output signal (used in summary logs).
    pub fn mismatches_for(&self, signal: &str) -> usize {
        self.records
            .iter()
            .filter(|r| !r.pass && r.signal == signal)
            .count()
    }

    /// Signals that have at least one mismatch, in first-failure order.
    pub fn failing_signals(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in self.records.iter() {
            if !r.pass && !out.contains(&r.signal) {
                out.push(r.signal.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: usize, signal: &str, pass: bool) -> CheckRecord {
        CheckRecord {
            time: (step as u64 + 1) * 10,
            step,
            signal: signal.into(),
            got: LogicVec::from_u64(1, pass as u64),
            expected: LogicVec::from_u64(1, 1),
            pass,
            inputs: Arc::new(vec![]),
        }
    }

    #[test]
    fn score_is_eq2() {
        let r = TbReport::new(
            "t".into(),
            vec![
                rec(0, "y", true),
                rec(1, "y", false),
                rec(2, "y", true),
                rec(3, "y", false),
            ],
            None,
        );
        assert_eq!(r.mismatches(), 2);
        assert_eq!(r.total_checks(), 4);
        assert!((r.score() - 0.5).abs() < 1e-12);
        assert!(!r.passed());
    }

    #[test]
    fn empty_report_scores_zero() {
        let r = TbReport::new("t".into(), vec![], None);
        assert_eq!(r.score(), 0.0);
        assert!(!r.passed());
    }

    #[test]
    fn window_spans_lw_steps() {
        let mut records = Vec::new();
        for step in 0..10 {
            records.push(rec(step, "a", true));
            records.push(rec(step, "b", step != 6));
        }
        let r = TbReport::new("t".into(), records, None);
        let w = r.window(2);
        // Steps 4..=6, two signals each.
        assert_eq!(w.len(), 6);
        assert_eq!(w.first().unwrap().step, 4);
        assert_eq!(w.last().unwrap().step, 6);
        assert!(w.iter().any(|r| !r.pass));
    }

    #[test]
    fn window_clamps_at_zero() {
        let r = TbReport::new(
            "t".into(),
            vec![rec(0, "y", false), rec(1, "y", true)],
            None,
        );
        let w = r.window(5);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].step, 0);
    }

    #[test]
    fn window_empty_on_pass() {
        let r = TbReport::new("t".into(), vec![rec(0, "y", true)], None);
        assert!(r.window(3).is_empty());
    }

    #[test]
    fn failing_signals_ordered() {
        let r = TbReport::new(
            "t".into(),
            vec![rec(0, "b", false), rec(1, "a", false), rec(2, "b", false)],
            None,
        );
        assert_eq!(r.failing_signals(), vec!["b".to_string(), "a".to_string()]);
        assert_eq!(r.mismatches_for("b"), 2);
    }

    #[test]
    fn clones_share_records() {
        let r = TbReport::new(
            "t".into(),
            vec![rec(0, "y", true), rec(1, "y", false)],
            None,
        );
        let c = r.clone();
        assert_eq!(c.records().as_ptr(), r.records().as_ptr());
        assert_eq!(c, r);
    }
}
