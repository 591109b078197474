//! Lockstep differential execution: the one comparator behind every
//! executor-equivalence check.
//!
//! A [`Lockstep`] holds one simulator per executor in [`EXECUTORS`]
//! over a design (or over a scratch build and its delta twin), the
//! reference first. [`Lockstep::op`] applies one operation to every
//! simulator, requires identical results, then compares every signal
//! of every simulator against the reference with `===`
//! ([`LogicVec::case_eq`]). A divergence names the operation, the
//! signal, both labels and both binary values. [`Lockstep::drive`]
//! runs a bench's drives in testbench order through it, and
//! [`structurally_exact`] compares two builds of one design before
//! either is simulated.
//!
//! The `mage-fuzz` oracle and every differential suite (the corpus
//! suites at the workspace root and `tests/{compiled_vs_interp,
//! event_wheel,two_state}.rs` here) check executors through this
//! module, so a comparator fix or a new check reaches all of them at
//! once.

use crate::design::{Design, SignalId};
use crate::error::SimError;
use crate::sim::{ExecMode, Simulator};
use mage_logic::LogicVec;
use std::fmt::Display;
use std::sync::Arc;

/// The executors every design is checked on, `(mode, label)`, the
/// tree-walking reference first.
pub const EXECUTORS: [(ExecMode, &str); 3] = [
    (ExecMode::Legacy, "legacy"),
    (ExecMode::FourState, "four-state"),
    (ExecMode::Compiled, "plans"),
];

/// A set of simulators run in lockstep, the reference first.
#[derive(Debug)]
pub struct Lockstep {
    /// `(simulator, executor, label)`.
    sims: Vec<(Simulator, ExecMode, String)>,
}

impl Lockstep {
    /// Every executor in [`EXECUTORS`] over `design`.
    pub fn new(design: &Arc<Design>) -> Lockstep {
        Lockstep {
            sims: executors(design, "").collect(),
        }
    }

    /// Every executor over a scratch build, then every executor over
    /// its delta twin, labelled `scratch …` and `delta …`.
    ///
    /// # Errors
    ///
    /// Fails when the two signal tables differ: signals are compared by
    /// [`SignalId`], so the twins must share one table.
    pub fn twins(scratch: &Arc<Design>, delta: &Arc<Design>) -> Result<Lockstep, String> {
        if scratch.signals != delta.signals {
            return Err("signal tables differ between scratch and delta".to_string());
        }
        let sims = executors(scratch, "scratch ").chain(executors(delta, "delta "));
        Ok(Lockstep {
            sims: sims.collect(),
        })
    }

    /// The first simulator running `mode`.
    ///
    /// # Panics
    ///
    /// Panics when no simulator runs `mode`.
    pub fn sim(&mut self, mode: ExecMode) -> &mut Simulator {
        let member = self.sims.iter_mut().find(|(_, m, _)| *m == mode);
        &mut member.expect("every executor is in the set").0
    }

    /// Apply `f` to every simulator, reference first, and return the
    /// result they all gave.
    ///
    /// # Errors
    ///
    /// Fails, naming the operation `at`, when a simulator's result or
    /// any of its signals (under `===`) differs from the reference's.
    pub fn op(
        &mut self,
        at: impl Display,
        mut f: impl FnMut(&mut Simulator) -> Result<(), SimError>,
    ) -> Result<Result<(), SimError>, String> {
        let ((reference, _, ref_label), others) = self
            .sims
            .split_first_mut()
            .expect("a lockstep set is never empty");
        let want = f(reference);
        for (sim, _, label) in others {
            let got = f(sim);
            if got != want {
                return Err(format!(
                    "at {at}: results diverged: {ref_label} => {want:?}, {label} => {got:?}"
                ));
            }
            for i in 0..reference.design().signals.len() {
                let id = SignalId(i as u32);
                let (a, b) = (reference.peek(id), sim.peek(id));
                if !a.case_eq(b) {
                    let (a, b) = (a.to_binary_string(), b.to_binary_string());
                    let name = &reference.design().signals[i].name;
                    return Err(format!(
                        "at {at}: signal `{name}` diverged: {ref_label} = {a}, {label} = {b}"
                    ));
                }
            }
        }
        Ok(want)
    }

    /// Drive every simulator in testbench order, comparing after every
    /// operation: a boot settle, the clock low (for a clocked bench),
    /// then per step each drive, the clock's rise and fall, and a
    /// settle. Stops at the first fault the simulators agree on and
    /// returns it.
    ///
    /// # Errors
    ///
    /// The first divergence, as [`Lockstep::op`] reports it.
    pub fn drive<'a>(
        &mut self,
        clock: Option<&str>,
        steps: impl IntoIterator<Item = impl IntoIterator<Item = (&'a str, &'a LogicVec)>>,
    ) -> Result<Option<SimError>, String> {
        let (low, high) = (LogicVec::from_bool(false), LogicVec::from_bool(true));
        macro_rules! step {
            ($at:expr, $f:expr) => {
                if let Err(fault) = self.op($at, $f)? {
                    return Ok(Some(fault));
                }
            };
        }
        step!("boot settle", Simulator::settle);
        if let Some(clk) = clock {
            step!("clock low", |s| s.poke(clk, low.clone()));
        }
        for (i, drives) in steps.into_iter().enumerate() {
            for (port, v) in drives {
                let poke = |s: &mut Simulator| s.poke(port, v.clone());
                step!(format_args!("step {i} poke {port}"), poke);
            }
            if let Some(clk) = clock {
                step!(format_args!("step {i} rise"), |s| s.poke(clk, high.clone()));
                step!(format_args!("step {i} fall"), |s| s.poke(clk, low.clone()));
            }
            step!(format_args!("step {i} settle"), Simulator::settle);
        }
        Ok(None)
    }
}

/// One simulator per executor over `design`, labels prefixed.
fn executors<'d>(
    design: &'d Arc<Design>,
    prefix: &'d str,
) -> impl Iterator<Item = (Simulator, ExecMode, String)> + 'd {
    EXECUTORS.iter().map(move |&(mode, label)| {
        let sim = Simulator::with_mode(Arc::clone(design), mode);
        (sim, mode, format!("{prefix}{label}"))
    })
}

/// Check that two builds of one design are the same artifact: the same
/// signal table, interpreter processes and compiled artifacts
/// (bytecode, plans, fanout index).
///
/// # Errors
///
/// Names the first part that differs.
pub fn structurally_exact(a: &Design, b: &Design) -> Result<(), String> {
    if a.signals != b.signals {
        return Err("signal tables diverged".to_string());
    }
    if a.processes != b.processes {
        return Err("interpreter processes diverged".to_string());
    }
    if format!("{:?}", a.compiled()) != format!("{:?}", b.compiled()) {
        return Err("compiled artifacts diverged".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate;

    fn design_of(src: &str) -> Arc<Design> {
        let file = mage_verilog::parse(src).expect("parses");
        Arc::new(elaborate(&file, "top").expect("elaborates"))
    }

    const AND: &str = "module top(input a, input b, output y); assign y = a & b; endmodule";

    #[test]
    fn a_store_divergence_names_the_op_signal_labels_and_values() {
        // `a & b` and `a & ~b` agree while `b` is `X`, and differ once
        // it is defined.
        let inverted = design_of(&AND.replace("a & b", "a & ~b"));
        let mut ls = Lockstep::twins(&design_of(AND), &inverted).expect("one signal table");
        let (one, zero) = (LogicVec::from_bool(true), LogicVec::from_bool(false));
        let steps = [[("a", &one), ("b", &zero)]];
        let err = ls.drive(None, steps).expect_err("b = 0 tells them apart");
        assert_eq!(
            err,
            "at step 0 poke b: signal `y` diverged: scratch legacy = 0, delta legacy = 1"
        );
    }

    #[test]
    fn a_result_divergence_names_both_results() {
        let mut ls = Lockstep::new(&design_of(AND));
        let mut calls = 0;
        let err = ls
            .op("flaky", |s| {
                calls += 1;
                match calls {
                    2 => Err(SimError::UnknownInput("a".to_string())),
                    _ => s.settle(),
                }
            })
            .expect_err("the second simulator fails alone");
        assert_eq!(
            err,
            "at flaky: results diverged: legacy => Ok(()), four-state => Err(UnknownInput(\"a\"))"
        );
    }

    #[test]
    fn twins_with_different_signal_tables_are_refused() {
        let wider = design_of(&AND.replace("input b", "input [1:0] b"));
        let err = Lockstep::twins(&design_of(AND), &wider).expect_err("b's width differs");
        assert_eq!(err, "signal tables differ between scratch and delta");
        assert_eq!(
            structurally_exact(&design_of(AND), &wider),
            Err("signal tables diverged".to_string())
        );
    }

    #[test]
    fn an_agreed_fault_stops_the_run() {
        // `a = 1` closes a loop that oscillates; were the run to go on,
        // the next step's unknown input would fault differently.
        let design =
            design_of("module top(input a, output y); assign y = a ? ~y : 1'b0; endmodule");
        let (one, zero) = (LogicVec::from_bool(true), LogicVec::from_bool(false));
        let steps = [[("a", &zero)], [("a", &one)], [("nope", &one)]];
        let fault = Lockstep::new(&design).drive(None, steps).expect("agreed");
        assert!(
            matches!(fault, Some(SimError::CombinationalLoop { .. })),
            "{fault:?}"
        );
    }
}
