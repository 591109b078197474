//! Integration test for the paper's central debugging claim: the same
//! debugger, given a state-checkpoint window, fixes bugs far more often
//! than when given a pass-rate summary (Fig. 3) — and the advantage
//! emerges from the information content of the feedback text, not from
//! hard-coded outcomes.

use mage_llm::{
    Conversation, DebugRequest, ProblemOracle, RtlLanguageModel, SamplingParams, SyntheticModel,
    SyntheticModelConfig,
};
use mage_sim::elaborate;
use mage_tb::textlog::{render_checkpoint_window, render_summary};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity, Stimulus};
use mage_verilog::parse;
use std::sync::Arc;

/// The Fig. 3 case study module (Prob093-ece241-2014-q3 style): a 4-to-1
/// mux input decoder where `mux_in[0]` needs three OR terms.
const GOLDEN: &str = "module top(input c, input d, output reg [3:0] mux_in);
  always @(*) begin
    mux_in[0] = (~c & d) | (c & ~d) | (c & d);
    mux_in[1] = 1'b0;
    mux_in[2] = (~c & ~d) | (c & ~d);
    mux_in[3] = c & d;
  end
endmodule";

/// The buggy candidate: the `(c & d)` term of `mux_in[0]` is missing —
/// exactly the bug in the paper's case study.
const BUGGY: &str = "module top(input c, input d, output reg [3:0] mux_in);
  always @(*) begin
    mux_in[0] = (~c & d) | (c & ~d);
    mux_in[1] = 1'b0;
    mux_in[2] = (~c & ~d) | (c & ~d);
    mux_in[3] = c & d;
  end
endmodule";

fn fixture() -> (ProblemOracle, String, String) {
    let golden = parse(GOLDEN).unwrap();
    let stim = Stimulus::exhaustive(&[("c".into(), 1), ("d".into(), 1)]);
    let oracle = ProblemOracle::new(golden, "top", stim.clone(), 1.0);
    let tb = Arc::new(synthesize_testbench(
        "mux",
        &oracle.golden_design,
        &stim,
        CheckDensity::EveryStep,
    ));
    let buggy_design = std::sync::Arc::new(elaborate(&parse(BUGGY).unwrap(), "top").unwrap());
    let report = run_testbench(&tb, &buggy_design).unwrap();
    assert!(!report.passed(), "the buggy candidate must fail");
    let checkpoint = render_checkpoint_window(&report, 5);
    let summary = render_summary(&report);
    (oracle, checkpoint, summary)
}

fn debug_once(oracle: &ProblemOracle, feedback: &str, seed: u64) -> bool {
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), seed);
    model.register("mux", oracle.clone());
    let conv = Conversation::new();
    let out = model.debug_rtl(&DebugRequest {
        problem_id: "mux",
        candidate_source: BUGGY,
        feedback_text: feedback,
        params: SamplingParams::high(),
        conversation: &conv,
    });
    // Did the trial produce a functionally correct module?
    let Ok(file) = parse(&out.value) else {
        return false;
    };
    let Ok(design) = elaborate(&file, "top") else {
        return false;
    };
    let tb = Arc::new(synthesize_testbench(
        "mux",
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    run_testbench(&tb, &std::sync::Arc::new(design))
        .map(|r| r.passed())
        .unwrap_or(false)
}

#[test]
fn checkpoint_feedback_names_the_missing_term() {
    let (_, checkpoint, summary) = fixture();
    // The checkpoint window pinpoints the failing bit pattern…
    assert!(checkpoint.contains("Got mux_in=1000"), "{checkpoint}");
    assert!(checkpoint.contains("Expected mux_in=1001"), "{checkpoint}");
    assert!(checkpoint.contains("c=1, d=1"), "{checkpoint}");
    // …while the summary only counts mismatches.
    assert!(summary.contains("mismatches"));
    assert!(!summary.contains("Expected mux_in"));
}

#[test]
fn checkpoint_debugging_beats_summary_debugging() {
    let (oracle, checkpoint, summary) = fixture();
    let trials = 80u64;
    let ckpt_ok = (0..trials)
        .filter(|&s| debug_once(&oracle, &checkpoint, 1000 + s))
        .count();
    let summ_ok = (0..trials)
        .filter(|&s| debug_once(&oracle, &summary, 2000 + s))
        .count();
    // Checkpoint-guided repair should be reliable; summary-guided repair
    // substantially worse. Calibration defaults put these near 0.8 vs
    // 0.3; the margins below allow for sampling noise at n = 80.
    assert!(
        ckpt_ok as f64 >= 0.35 * trials as f64,
        "checkpoint repair too weak: {ckpt_ok}/{trials}"
    );
    assert!(
        (summ_ok as f64) <= 0.45 * trials as f64,
        "summary repair suspiciously strong: {summ_ok}/{trials}"
    );
    assert!(
        ckpt_ok > summ_ok + (trials / 10) as usize,
        "checkpoint ({ckpt_ok}) must clearly beat summary ({summ_ok})"
    );
}

#[test]
fn iterated_checkpoint_debugging_converges() {
    // The comprehension model makes a small fraction of (problem, seed)
    // pairs persistently unfixable; convergence must hold for the clear
    // majority of seeds.
    let converged = (70..78u64).filter(|&s| iterate_once(s)).count();
    assert!(
        converged >= 5,
        "iterated debugging converged only {converged}/8 seeds"
    );
}

fn iterate_once(seed: u64) -> bool {
    let (oracle, _, _) = fixture();
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), seed);
    model.register("mux", oracle.clone());
    let conv = Conversation::new();
    let tb = Arc::new(synthesize_testbench(
        "mux",
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    let mut source = BUGGY.to_string();
    let mut fixed = false;
    for _round in 0..8 {
        let design = match parse(&source).and_then(|f| {
            elaborate(&f, "top").map_err(|e| mage_verilog::ParseError {
                pos: Default::default(),
                message: e.to_string(),
            })
        }) {
            Ok(d) => std::sync::Arc::new(d),
            Err(_) => break,
        };
        let report = run_testbench(&tb, &design).unwrap();
        if report.passed() {
            fixed = true;
            break;
        }
        let feedback = render_checkpoint_window(&report, 5);
        let out = model.debug_rtl(&DebugRequest {
            problem_id: "mux",
            candidate_source: &source,
            feedback_text: &feedback,
            params: SamplingParams::high(),
            conversation: &conv,
        });
        // Keep the trial only if it does not score worse (the paper's
        // accept-or-rollback rule, Eq. 4).
        let better = parse(&out.value)
            .ok()
            .and_then(|f| elaborate(&f, "top").ok())
            .map(|d| {
                run_testbench(&tb, &std::sync::Arc::new(d))
                    .map(|r| r.score() >= report.score())
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if better {
            source = out.value;
        }
    }
    fixed
}
