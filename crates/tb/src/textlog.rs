//! Textual waveform logs — the LLM-adapted feedback protocol of §II-C.
//!
//! The paper's key debugging insight is that feedback quality determines
//! fix quality. Three renderings of the same run are provided:
//!
//! * [`render_summary`] — the *pass-rate-only* log a conventional golden
//!   testbench prints (Fig. 3b, "log without checkpoint");
//! * [`render_checkpoint_window`] — the state-checkpoint window around
//!   the first mismatch (Fig. 3c, "log with checkpoint");
//! * [`render_full_log`] — the complete WF-TextLog, one line per check.

use crate::report::{CheckRecord, TbReport};
use crate::tb::time_of;
use std::fmt::Write as _;

/// Render the pass-rate-only feedback a golden testbench provides: total
/// mismatch counts per signal and the first failure time, nothing else.
///
/// This is deliberately information-poor — it is the baseline the
/// checkpoint mechanism is evaluated against.
pub fn render_summary(report: &TbReport) -> String {
    let mut out = String::new();
    if let Some(fault) = report.sim_fault() {
        let _ = writeln!(out, "SIMULATION FAULT: {fault}");
    }
    if report.passed() {
        let _ = writeln!(
            out,
            "ALL {} CHECKS PASSED ({})",
            report.total_checks(),
            report.name()
        );
        return out;
    }
    for signal in report.failing_signals() {
        let (step, _) = report
            .failing_checks()
            .find(|&(_, name)| name == signal)
            .expect("failing signal has a mismatch");
        let _ = writeln!(
            out,
            "Output '{signal}' has {} mismatches. First mismatch occurred at time {}.",
            report.mismatches_for(&signal),
            time_of(step)
        );
    }
    let _ = writeln!(
        out,
        "{} of {} checks failed.",
        report.mismatches(),
        report.total_checks()
    );
    out
}

fn render_record_line(out: &mut String, r: &CheckRecord) {
    let inputs = r
        .inputs
        .iter()
        .map(|(n, v)| format!("{n}={}", v.to_display_string()))
        .collect::<Vec<_>>()
        .join(", ");
    let status = if r.pass { "OK      " } else { "MISMATCH" };
    let _ = writeln!(
        out,
        "time={:>4} [{status}] inputs: {inputs} | {}: got={} ({}) expected={} ({})",
        r.time,
        r.signal,
        r.got.to_binary_string(),
        r.got.to_display_string(),
        r.expected.to_binary_string(),
        r.expected.to_display_string(),
    );
}

/// Render the state-checkpoint window (Eq. 6): the `L_W` steps leading up
/// to and including the first mismatch, with input vectors and
/// got/expected values at every checkpoint — the precise, LLM-readable
/// feedback that powers targeted fixes.
pub fn render_checkpoint_window(report: &TbReport, lw: usize) -> String {
    let mut out = String::new();
    if let Some(fault) = report.sim_fault() {
        let _ = writeln!(out, "SIMULATION FAULT: {fault}");
    }
    // The window ends at the first mismatch, so it holds that record.
    let window = report.window(lw);
    let Some(first) = window.iter().find(|r| !r.pass) else {
        let _ = writeln!(out, "No mismatches: all checkpoints passed.");
        return out;
    };
    let inputs = first
        .inputs
        .iter()
        .map(|(n, v)| format!("{n}={}", v.to_display_string()))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "First mismatch at time {}:", first.time);
    let _ = writeln!(out, "Inputs: {inputs}");
    let _ = writeln!(
        out,
        "Got {}={} ({}), Expected {}={} ({}).",
        first.signal,
        first.got.to_binary_string(),
        first.got.to_display_string(),
        first.signal,
        first.expected.to_binary_string(),
        first.expected.to_display_string(),
    );
    let _ = writeln!(out, "State checkpoints in window (L_W = {lw}):");
    for r in &window {
        render_record_line(&mut out, r);
    }
    out
}

/// Render the complete WF-TextLog: one line per checkpoint, pass and fail
/// alike. This is the "waveform in text form" of §II-C that replaces
/// graphical waveform tools.
pub fn render_full_log(report: &TbReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== WF-TextLog: {} ===", report.name());
    if let Some(fault) = report.sim_fault() {
        let _ = writeln!(out, "SIMULATION FAULT: {fault}");
    }
    for r in &report.records() {
        render_record_line(&mut out, r);
    }
    let _ = writeln!(
        out,
        "=== {} mismatches / {} checks (score {:.3}) ===",
        report.mismatches(),
        report.total_checks(),
        report.score()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::testing::report_of;
    use crate::{run_testbench, Testbench};
    use mage_logic::LogicVec;
    use std::sync::Arc;

    fn design(src: &str) -> Arc<mage_sim::Design> {
        let file = mage_verilog::parse(src).unwrap();
        Arc::new(mage_sim::elaborate(&file, "top").unwrap())
    }

    /// `q` follows the 4-bit input `g`; step `i` drives `c = 1`,
    /// `d = i mod 2` and `g = got`, and expects `q = exp`.
    fn report() -> TbReport {
        let d = design(
            "module top(input c, input d, input [3:0] g, output [3:0] q);
               assign q = g;
             endmodule",
        );
        let steps = [(3, 3), (4, 4), (8, 9), (8, 9)]
            .into_iter()
            .enumerate()
            .map(|(step, (got, exp))| {
                (
                    [
                        ("c", LogicVec::from_u64(1, 1)),
                        ("d", LogicVec::from_u64(1, (step % 2) as u64)),
                        ("g", LogicVec::from_u64(4, got)),
                    ],
                    [("q", LogicVec::from_u64(4, exp))],
                )
            });
        let tb = Arc::new(Testbench::from_steps("prob", None, steps));
        run_testbench(&tb, &d).unwrap()
    }

    #[test]
    fn summary_has_counts_and_time_only() {
        let s = render_summary(&report());
        assert!(s.contains("Output 'q' has 2 mismatches"));
        assert!(s.contains("time 30"));
        // Crucially: no input vectors, no expected values.
        assert!(!s.contains("expected="));
        assert!(!s.contains("inputs:"));
    }

    #[test]
    fn checkpoint_window_names_signal_values() {
        let s = render_checkpoint_window(&report(), 1);
        assert!(s.contains("First mismatch at time 30"));
        assert!(s.contains("Inputs: c=1, d=0, g=8"));
        assert!(s.contains("Got q=1000 (8), Expected q=1001 (9)."));
        // Window includes the pre-mismatch checkpoint.
        assert!(s.contains("time=  20"));
        assert!(!s.contains("time=  40"), "window must stop at t_m");
    }

    #[test]
    fn full_log_lists_every_check() {
        let s = render_full_log(&report());
        assert_eq!(s.matches("time=").count(), 4);
        assert!(s.contains("score 0.500"));
    }

    #[test]
    fn passing_report_renders_clean() {
        let r = report_of(&[]);
        assert!(render_checkpoint_window(&r, 3).contains("No mismatches"));
    }

    #[test]
    fn passing_check_on_a_wider_output_renders_the_dut_width() {
        // Case equality zero-extends, so a 4-bit expectation passes
        // against the 8-bit output; the log shows what the DUT drove.
        let d =
            design("module top(input [3:0] a, output [7:0] y); assign y = {4'b0000, a}; endmodule");
        let tb = Arc::new(Testbench::from_steps(
            "wide",
            None,
            [(
                [("a", LogicVec::from_u64(4, 5))],
                [("y", LogicVec::from_u64(4, 5))],
            )],
        ));
        let report = run_testbench(&tb, &d).unwrap();
        assert!(report.passed());
        assert!(render_full_log(&report)
            .contains("time=  10 [OK      ] inputs: a=5 | y: got=00000101 (5) expected=0101 (5)"));
    }
}
