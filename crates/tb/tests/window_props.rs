//! Property tests on the report/window machinery (Eqs. 2, 5, 6) over
//! bench runs with a chosen pass pattern.

use mage_logic::LogicVec;
use mage_tb::{run_testbench, Check, TbReport, TbStep, Testbench};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// `q` follows the input `g`; `a` is a bystander input the snapshots
/// carry.
fn identity() -> &'static Arc<mage_sim::Design> {
    static DESIGN: OnceLock<Arc<mage_sim::Design>> = OnceLock::new();
    DESIGN.get_or_init(|| {
        let file = mage_verilog::parse(
            "module top(input [1:0] a, input [3:0] g, output [3:0] q); assign q = g; endmodule",
        )
        .unwrap();
        Arc::new(mage_sim::elaborate(&file, "top").unwrap())
    })
}

/// One check of `q` per step: the DUT drives 5 on a passing step and 6
/// on a failing one, against an expected 5.
fn report_from(passes: &[bool]) -> TbReport {
    let steps = passes
        .iter()
        .enumerate()
        .map(|(step, &pass)| TbStep {
            drives: vec![
                ("a".into(), LogicVec::from_u64(2, step as u64 & 3)),
                ("g".into(), LogicVec::from_u64(4, if pass { 5 } else { 6 })),
            ],
            checks: vec![Check {
                signal: "q".into(),
                expected: LogicVec::from_u64(4, 5),
            }],
        })
        .collect();
    let tb = Arc::new(Testbench {
        name: "prop".into(),
        clock: None,
        steps,
    });
    run_testbench(&tb, identity()).unwrap()
}

proptest! {
    #[test]
    fn score_matches_eq2(passes in proptest::collection::vec(any::<bool>(), 1..200)) {
        let r = report_from(&passes);
        let m = passes.iter().filter(|&&p| !p).count();
        let tc = passes.len();
        prop_assert!((r.score() - (1.0 - m as f64 / tc as f64)).abs() < 1e-12);
        prop_assert_eq!(r.mismatches(), m);
        prop_assert_eq!(r.total_checks(), tc);
        prop_assert_eq!(r.passed(), m == 0);
    }

    #[test]
    fn first_mismatch_is_earliest(passes in proptest::collection::vec(any::<bool>(), 1..200)) {
        let r = report_from(&passes);
        match r.first_mismatch() {
            None => prop_assert!(passes.iter().all(|&p| p)),
            Some(rec) => {
                prop_assert!(!passes[rec.step]);
                prop_assert!(passes[..rec.step].iter().all(|&p| p));
            }
        }
    }

    #[test]
    fn window_bounds_follow_eq6(
        passes in proptest::collection::vec(any::<bool>(), 1..200),
        lw in 0usize..20,
    ) {
        let r = report_from(&passes);
        let w = r.window(lw);
        match r.first_mismatch() {
            None => prop_assert!(w.is_empty()),
            Some(first) => {
                let tm = first.step;
                let lo = tm.saturating_sub(lw);
                prop_assert!(!w.is_empty());
                prop_assert!(w.iter().all(|rec| rec.step >= lo && rec.step <= tm));
                // The window always contains the mismatch itself.
                prop_assert!(w.iter().any(|rec| !rec.pass && rec.step == tm));
                // And is contiguous in the record stream.
                let times: Vec<u64> = w.iter().map(|rec| rec.time).collect();
                let mut sorted = times.clone();
                sorted.sort_unstable();
                prop_assert_eq!(times, sorted);
            }
        }
    }

    #[test]
    fn textlogs_never_panic_and_agree_on_verdict(
        passes in proptest::collection::vec(any::<bool>(), 1..80),
        lw in 1usize..10,
    ) {
        use mage_tb::textlog::{render_checkpoint_window, render_full_log, render_summary};
        let r = report_from(&passes);
        let summary = render_summary(&r);
        let window = render_checkpoint_window(&r, lw);
        let full = render_full_log(&r);
        if r.passed() {
            prop_assert!(summary.contains("PASSED"));
            prop_assert!(window.contains("No mismatches"));
        } else {
            prop_assert!(summary.contains("mismatch"));
            prop_assert!(window.contains("First mismatch at time"));
        }
        prop_assert_eq!(full.matches("time=").count(), passes.len());
    }
}
