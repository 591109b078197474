//! Corpus health: every golden design parses, elaborates, simulates
//! cleanly, and passes its own checkpoint testbench with a meaningful
//! number of checks — plus independent reference-model verification for
//! representative problems (the golden must implement the *spec*, not
//! merely be self-consistent).

use mage_problems::{all_problems, by_id};
use mage_tb::{run_testbench, synthesize_testbench, CheckDensity};
use std::sync::Arc;

#[test]
fn every_golden_passes_its_own_checkpoint_bench() {
    for p in all_problems() {
        let oracle = p.oracle(0xBEEF);
        let tb = Arc::new(synthesize_testbench(
            p.id,
            &oracle.golden_design,
            &oracle.stimulus,
            CheckDensity::EveryStep,
        ));
        assert!(
            tb.total_checks() >= 4,
            "{}: too few checks ({}) — outputs mostly X?",
            p.id,
            tb.total_checks()
        );
        let report =
            run_testbench(&tb, &oracle.golden_design).unwrap_or_else(|e| panic!("{}: {e}", p.id));
        assert!(
            report.passed(),
            "{}: golden fails its own bench: {:?} (fault {:?})",
            p.id,
            report.first_mismatch(),
            report.sim_fault()
        );
        assert_eq!(report.score(), 1.0, "{}", p.id);
    }
}

#[test]
fn every_golden_is_deterministic_across_runs() {
    for p in all_problems() {
        let oracle = p.oracle(7);
        let tb = Arc::new(synthesize_testbench(
            p.id,
            &oracle.golden_design,
            &oracle.stimulus,
            CheckDensity::EveryStep,
        ));
        let r1 = run_testbench(&tb, &oracle.golden_design).unwrap();
        let r2 = run_testbench(&tb, &oracle.golden_design).unwrap();
        assert_eq!(r1.records(), r2.records(), "{}", p.id);
    }
}

// ----------------------------------------------------------------------
// Independent reference models (Rust closures over the stimulus)
// ----------------------------------------------------------------------

/// Check a combinational problem against `f(inputs) -> expected outputs`.
fn check_comb(id: &str, f: impl Fn(&[(String, u64)]) -> Vec<(&'static str, u64)>) {
    let p = by_id(id).unwrap_or_else(|| panic!("unknown problem {id}"));
    let oracle = p.oracle(99);
    let tb = Arc::new(synthesize_testbench(
        id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    let report = run_testbench(&tb, &oracle.golden_design).unwrap();
    for rec in report.records() {
        let inputs: Vec<(String, u64)> = rec
            .inputs
            .iter()
            .map(|(n, v)| (n.clone(), v.to_u64().expect("defined input")))
            .collect();
        for (name, expect) in f(&inputs) {
            if rec.signal == name {
                assert_eq!(
                    rec.got.to_u64(),
                    Some(expect),
                    "{id}: {name} at step {} with {:?}",
                    rec.step,
                    inputs
                );
            }
        }
    }
}

fn input(inputs: &[(String, u64)], name: &str) -> u64 {
    inputs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing input {name}"))
}

#[test]
fn reference_gates() {
    check_comb("prob001_and2", |i| {
        vec![("y", input(i, "a") & input(i, "b"))]
    });
    check_comb("prob002_nor2", |i| {
        vec![("y", !(input(i, "a") | input(i, "b")) & 1)]
    });
    check_comb("prob008_majority3", |i| {
        let (a, b, c) = (input(i, "a"), input(i, "b"), input(i, "c"));
        vec![("y", ((a & b) | (b & c) | (a & c)) & 1)]
    });
}

#[test]
fn reference_mux_and_code() {
    check_comb("prob013_mux4_ternary", |i| {
        let sel = input(i, "sel");
        let v = match sel {
            0 => input(i, "a"),
            1 => input(i, "b"),
            2 => input(i, "c"),
            _ => input(i, "d"),
        };
        vec![("y", v)]
    });
    check_comb("prob016_dec3to8", |i| vec![("y", 1u64 << input(i, "sel"))]);
    check_comb("prob017_prienc4", |i| {
        let v = input(i, "in");
        let pos = if v == 0 {
            0
        } else {
            63 - (v.leading_zeros() as u64)
        };
        vec![("pos", pos), ("valid", (v != 0) as u64)]
    });
    check_comb("prob018_bin2gray", |i| {
        let b = input(i, "bin");
        vec![("gray", b ^ (b >> 1))]
    });
}

#[test]
fn reference_arithmetic() {
    check_comb("prob023_add8", |i| {
        let s = input(i, "a") + input(i, "b") + input(i, "cin");
        vec![("sum", s & 0xFF), ("cout", s >> 8)]
    });
    check_comb("prob024_sub4", |i| {
        let (a, b) = (input(i, "a"), input(i, "b"));
        vec![
            ("diff", a.wrapping_sub(b) & 0xF),
            ("borrow", (a < b) as u64),
        ]
    });
    check_comb("prob029_alu4", |i| {
        let (a, b, op) = (input(i, "a"), input(i, "b"), input(i, "op"));
        let r = match op {
            0 => a.wrapping_add(b),
            1 => a.wrapping_sub(b),
            2 => a & b,
            3 => a | b,
            4 => a ^ b,
            5 => (a < b) as u64,
            6 => a << (b & 3),
            _ => a >> (b & 3),
        } & 0xF;
        vec![("r", r), ("zero", (r == 0) as u64)]
    });
    check_comb("prob031_popcount8", |i| {
        vec![("count", input(i, "in").count_ones() as u64)]
    });
    check_comb("prob032_reverse8", |i| {
        let v = input(i, "in");
        vec![("out", (v.reverse_bits() >> 56) & 0xFF)]
    });
    check_comb("prob033_sat_add4", |i| {
        vec![("y", (input(i, "a") + input(i, "b")).min(15))]
    });
    check_comb("prob034_mul4", |i| {
        vec![("p", input(i, "a") * input(i, "b"))]
    });
    check_comb("prob070_ripple4", |i| {
        let s = input(i, "a") + input(i, "b") + input(i, "cin");
        vec![("sum", s & 0xF), ("cout", s >> 4)]
    });
}

#[test]
fn reference_fig3_mux() {
    check_comb("prob093_ece241_2014_q3", |i| {
        let (c, d) = (input(i, "c"), input(i, "d"));
        let m0 = (c | d) & 1; // f = c OR d for ab=00
        let m2 = (!d) & 1; // f = NOT d for ab=10
        let m3 = c & d; // f = c AND d for ab=11
        vec![("mux_in", m0 | (m2 << 2) | (m3 << 3))]
    });
}

/// Sequential reference: simulate the counter problems step by step.
#[test]
fn reference_counter4_model() {
    let p = by_id("prob030_counter4").unwrap();
    let oracle = p.oracle(5);
    let tb = Arc::new(synthesize_testbench(
        p.id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    let report = run_testbench(&tb, &oracle.golden_design).unwrap();
    let mut model: u64 = u64::MAX; // unknown until reset
    for rec in report.records() {
        let rst = rec
            .inputs
            .iter()
            .find(|(n, _)| n == "rst")
            .and_then(|(_, v)| v.to_u64())
            .unwrap_or(0);
        model = if rst == 1 {
            0
        } else if model == u64::MAX {
            continue;
        } else {
            (model + 1) & 0xF
        };
        assert_eq!(rec.got.to_u64(), Some(model), "step {}", rec.step);
    }
}

#[test]
fn reference_lfsr4_period() {
    // x^4 + x^3 + 1 is maximal: period 15 from a non-zero seed.
    let p = by_id("prob056_lfsr4").unwrap();
    let oracle = p.oracle(5);
    let tb = Arc::new(synthesize_testbench(
        p.id,
        &oracle.golden_design,
        &oracle.stimulus,
        CheckDensity::EveryStep,
    ));
    let report = run_testbench(&tb, &oracle.golden_design).unwrap();
    let states: Vec<u64> = report
        .records()
        .iter()
        .skip_while(|r| {
            r.inputs
                .iter()
                .any(|(n, v)| n == "rst" && v.to_u64() == Some(1))
        })
        .map(|r| r.got.to_u64().unwrap())
        .collect();
    assert!(states.len() > 30);
    // Never reaches the all-zero lock-up state.
    assert!(states.iter().all(|&s| s != 0));
    // Period exactly 15.
    for (i, &s) in states.iter().enumerate() {
        if i + 15 < states.len() {
            assert_eq!(s, states[i + 15], "period must be 15");
        }
    }
}
