//! Pins the bench schedule: every registry problem's synthesized benches
//! hash to fixed constants.
//!
//! Synthesis and grading run one step loop, so a schedule change that
//! moves both together still passes the self-consistency suite (the
//! golden design keeps passing its own bench). These constants catch it:
//! they fingerprint the benches themselves over a canonical rendering
//! (clock, then per step the drives and the checks as `name=binary`).

use std::fmt::Write as _;

use mage::core::experiments::GRADE_STIM_SEED;
use mage::logic::fnv1a;
use mage::problems::{all_problems, Problem};
use mage::tb::{synthesize_testbench, CheckDensity, Stimulus, Testbench};

fn render(tb: &Testbench, out: &mut String) {
    writeln!(out, "clock={}", tb.clock().unwrap_or("-")).unwrap();
    for (drives, checks) in tb.steps() {
        out.push_str("drive");
        for (name, value) in drives {
            write!(out, " {name}={value:b}").unwrap();
        }
        out.push_str(" check");
        for (name, expected) in checks {
            write!(out, " {name}={expected:b}").unwrap();
        }
        out.push('\n');
    }
}

/// The fingerprint of every registry problem's bench over `stimulus`,
/// in registry order.
fn registry_hash(stimulus: impl Fn(&Problem) -> Stimulus, density: CheckDensity) -> u64 {
    let mut text = String::new();
    for problem in all_problems() {
        let golden = problem.golden_design();
        let tb = synthesize_testbench(problem.id, &golden, &stimulus(problem), density);
        render(&tb, &mut text);
    }
    fnv1a(text.as_bytes())
}

type Recipe = fn(&Problem) -> Stimulus;

#[test]
fn synthesized_benches_match_pinned_hashes() {
    // Per stimulus recipe: the hashes at [EveryStep, EveryN(3)].
    let pinned: [(&str, Recipe, [u64; 2]); 3] = [
        (
            "agent seed 1",
            |p| p.stimulus(1),
            [0x669f_770d_536c_1e65, 0x9107_243a_6131_0d98],
        ),
        (
            "agent seed 7919",
            |p| p.stimulus(7919),
            [0x5290_3f4a_2f4e_7271, 0x4804_c16d_d31c_a4b3],
        ),
        (
            "grading",
            |p| p.grading_stimulus(GRADE_STIM_SEED),
            [0x8cd7_9c98_9edf_5758, 0xdd75_cc05_1fdd_9f94],
        ),
    ];
    let densities = [CheckDensity::EveryStep, CheckDensity::EveryN(3)];
    for (label, stimulus, hashes) in pinned {
        for (density, want) in densities.into_iter().zip(hashes) {
            let got = registry_hash(stimulus, density);
            assert_eq!(got, want, "{label}, {density:?}: bench hash {got:#018x}");
        }
    }
}
