//! Fig. 3 — the state-checkpoint debugging case study on
//! `prob093_ece241_2014_q3`.
//!
//! Reproduces the paper's narrative end to end: a candidate with the
//! dropped `(c & d)` term in `mux_in[0]` is debugged once per trial,
//! either from the pass-rate summary (Fig. 3b) or from the checkpoint
//! window (Fig. 3c), and the one-shot fix rates are measured.

use crate::engine::compile;
use mage_llm::{
    Conversation, DebugRequest, RtlLanguageModel, SamplingParams, SyntheticModel,
    SyntheticModelConfig,
};
use mage_problems::by_id;
use mage_tb::textlog::{render_checkpoint_window, render_summary};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity, Testbench};
use std::sync::Arc;

/// The buggy candidate of the case study: `mux_in[0]` is missing its
/// `(c & d)` term — exactly Fig. 3a.
pub const FIG3_BUGGY: &str = "module top_module(input c, input d, output reg [3:0] mux_in);
  always @(*) begin
    mux_in[0] = (~c & d) | (c & ~d);
    mux_in[1] = 1'b0;
    mux_in[2] = (~c & ~d) | (c & ~d);
    mux_in[3] = c & d;
  end
endmodule";

/// Fig. 3 artifacts.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The pass-rate-only log (Fig. 3b, "without checkpoint").
    pub summary_log: String,
    /// The state-checkpoint window (Fig. 3c, "with checkpoint").
    pub checkpoint_log: String,
    /// One-shot fix rate when debugging from the summary.
    pub summary_fix_rate: f64,
    /// One-shot fix rate when debugging from the checkpoint window.
    pub checkpoint_fix_rate: f64,
    /// Trials per arm.
    pub trials: usize,
}

fn case_bench(seed: u64) -> Testbench {
    let p = by_id("prob093_ece241_2014_q3").expect("case-study problem registered");
    let oracle = p.oracle(seed);
    synthesize_testbench(
        p.id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    )
}

/// Run the case study with `trials` debug attempts per feedback style.
pub fn fig3(trials: usize, seed: u64) -> Fig3 {
    let p = by_id("prob093_ece241_2014_q3").expect("case-study problem registered");
    let tb = Arc::new(case_bench(seed));
    let buggy_design = compile(FIG3_BUGGY).expect("buggy candidate compiles");
    let report = run_testbench(&tb, &buggy_design).expect("interface matches");
    assert!(!report.passed(), "the case-study bug must be observable");

    let summary_log = render_summary(&report);
    let checkpoint_log = render_checkpoint_window(&report, 5);

    let fix_rate = |feedback: &str, arm: u64| -> f64 {
        let mut fixed = 0usize;
        for t in 0..trials {
            let mut model = SyntheticModel::new(
                SyntheticModelConfig::default(),
                seed ^ arm ^ (t as u64) << 8,
            );
            model.register(p.id, p.oracle(seed));
            let conv = Conversation::new();
            let out = model.debug_rtl(&DebugRequest {
                problem_id: p.id,
                candidate_source: FIG3_BUGGY,
                feedback_text: feedback,
                params: SamplingParams::high(),
                conversation: &conv,
            });
            let ok = compile(&out.value)
                .ok()
                .and_then(|d| run_testbench(&tb, &d).ok())
                .map(|r| r.passed())
                .unwrap_or(false);
            fixed += ok as usize;
        }
        fixed as f64 / trials.max(1) as f64
    };

    let summary_fix_rate = fix_rate(&summary_log, 0x5);
    let checkpoint_fix_rate = fix_rate(&checkpoint_log, 0xC);
    Fig3 {
        summary_log,
        checkpoint_log,
        summary_fix_rate,
        checkpoint_fix_rate,
        trials,
    }
}

/// Render the case study like the paper's figure.
pub fn render_fig3(f: &Fig3) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIG 3: RTL Code State Checkpoint case study (Prob093-ece241-2014-q3)"
    );
    let _ = writeln!(
        s,
        "--- (a) RTL module with bug: mux_in[0] missing the (c & d) term ---"
    );
    let _ = writeln!(s, "--- (b) Log WITHOUT checkpoint ---");
    s.push_str(&f.summary_log);
    let _ = writeln!(s, "--- (c) Log WITH checkpoint ---");
    s.push_str(&f.checkpoint_log);
    let _ = writeln!(s, "--- One-shot debug outcome over {} trials ---", f.trials);
    let _ = writeln!(
        s,
        "  debug without checkpoint: {:5.1}% fixed (paper: wrong action, SIMULATION FAILED)",
        f.summary_fix_rate * 100.0
    );
    let _ = writeln!(
        s,
        "  debug with checkpoint:    {:5.1}% fixed (paper: correct action, SIMULATION PASSED)",
        f.checkpoint_fix_rate * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_reproduces_fig3_shape() {
        let f = fig3(40, 0xF163);
        assert!(
            f.checkpoint_fix_rate > f.summary_fix_rate,
            "checkpoint {:.2} must beat summary {:.2}",
            f.checkpoint_fix_rate,
            f.summary_fix_rate
        );
        assert!(f.checkpoint_fix_rate >= 0.3);
        // The logs carry the paper's distinguishing content.
        assert!(f.checkpoint_log.contains("Expected mux_in"));
        assert!(!f.summary_log.contains("Expected mux_in"));
        let rendered = render_fig3(&f);
        assert!(rendered.contains("State Checkpoint case study"));
    }
}
