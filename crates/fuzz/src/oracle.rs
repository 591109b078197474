//! Differential oracles: the checks every fuzz case must survive.
//!
//! Three oracles, mirroring the repo's hand-built differential suites
//! but driven by generated inputs:
//!
//! 1. **Roundtrip** — parse → normalize-print → reparse must be a
//!    fixpoint (identical AST, identical source, identical per-item
//!    fingerprints). This is the contract the delta-compilation cache
//!    keys on.
//! 2. **Lockstep** — the three executors (legacy tree-walker, compiled
//!    four-state, compiled with plans) run the same drive plan and are
//!    compared store-exactly, signal-by-signal via `===`, after *every*
//!    poke.
//! 3. **Delta** — single-edit mutants of the design are built from
//!    scratch and by delta elaboration against the unedited parent;
//!    both builds must agree structurally (signals, processes,
//!    bytecode) or fail with the identical error.
//!
//! All executors are constructed via [`Simulator::with_mode`] with the
//! two-state switch set explicitly, so the verdict is
//! independent of the `MAGE_SIM_EXEC` environment switch, which only
//! [`Simulator::new`] reads.

use crate::gen::{drives_for, GenCase};
use mage_logic::LogicVec;
use mage_sim::{
    coverage, elaborate, elaborate_with, Design, DesignUnits, ExecMode, FuzzCoverage, Simulator,
};
use mage_verilog::ast::SourceFile;
use mage_verilog::{module_fingerprints, parse, print_file};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fuzz-case failure: which oracle tripped, and a human-readable
/// description carrying enough context (executor, signal, poke index)
/// to reproduce by seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The generated/replayed source did not parse.
    Parse(String),
    /// Parse→print→reparse was not a fixpoint.
    Roundtrip(String),
    /// The design did not elaborate (generator validity bug).
    Elab(String),
    /// Two executors disagreed on a signal value, poke result, or fault.
    Lockstep(String),
    /// A delta rebuild disagreed with its from-scratch twin.
    Delta(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Parse(d) => write!(f, "parse: {d}"),
            Failure::Roundtrip(d) => write!(f, "roundtrip: {d}"),
            Failure::Elab(d) => write!(f, "elab: {d}"),
            Failure::Lockstep(d) => write!(f, "lockstep: {d}"),
            Failure::Delta(d) => write!(f, "delta: {d}"),
        }
    }
}

/// Outcome of a passing case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Features this case exercised (static design shape + dynamic
    /// execution features, merged across the compiled executors).
    pub coverage: FuzzCoverage,
    /// Total pokes applied per executor.
    pub pokes: usize,
}

/// The executor stack under test: `(mode, two_state, label)`.
/// Index 0 (the legacy tree-walker) is the comparison reference.
pub const EXECUTORS: [(ExecMode, bool, &str); 3] = [
    (ExecMode::Legacy, false, "legacy"),
    (ExecMode::Compiled, false, "compiled-4s"),
    (ExecMode::Compiled, true, "compiled-2s"),
];

/// Run every oracle on one case: roundtrip, three-executor lockstep on
/// the seed-derived drive plan, then delta-vs-scratch on mutants.
pub fn run_case(case: &GenCase, steps: usize) -> Result<CaseOutcome, Failure> {
    run_source(&case.source, case.seed, steps)
}

/// [`run_case`] for raw source text (corpus replay path): the drive
/// plan is re-derived from the seed against the module's actual ports.
pub fn run_source(source: &str, seed: u64, steps: usize) -> Result<CaseOutcome, Failure> {
    let file = check_roundtrip(source)?;
    let module = file
        .modules
        .last()
        .ok_or_else(|| Failure::Parse("no modules in source".to_string()))?
        .clone();
    let top = module.name.clone();
    let design = Arc::new(
        elaborate(&file, &top).map_err(|e| Failure::Elab(format!("seed {seed:#x}: {e:?}")))?,
    );
    let mut cov = FuzzCoverage::new();
    coverage::design_features(design.compiled(), &mut cov);
    let drives = drives_for(&module, seed, steps);
    let (run_cov, pokes) = lockstep(&design, &drives)?;
    cov.merge(&run_cov);
    check_delta_mutants(&file, &top, &design, seed)?;
    Ok(CaseOutcome {
        coverage: cov,
        pokes,
    })
}

/// Oracle 1: parse `source`, print it, reparse — the printed form must
/// be a fixpoint and the item fingerprints must be stable across it.
pub fn check_roundtrip(source: &str) -> Result<SourceFile, Failure> {
    let f1 = parse(source).map_err(|e| Failure::Parse(format!("{e:?}")))?;
    let printed = print_file(&f1);
    let f2 = parse(&printed)
        .map_err(|e| Failure::Roundtrip(format!("printed form does not reparse: {e:?}")))?;
    if f1 != f2 {
        return Err(Failure::Roundtrip(
            "parse(print(ast)) != ast: printer/parser normal forms disagree".to_string(),
        ));
    }
    let reprinted = print_file(&f2);
    if printed != reprinted {
        return Err(Failure::Roundtrip(
            "print is not idempotent on its own output".to_string(),
        ));
    }
    for (m1, m2) in f1.modules.iter().zip(f2.modules.iter()) {
        let (p1, p2) = (module_fingerprints(m1), module_fingerprints(m2));
        if p1.len() != p2.len()
            || p1
                .iter()
                .zip(p2.iter())
                .any(|(a, b)| a.fingerprint != b.fingerprint)
        {
            return Err(Failure::Roundtrip(format!(
                "item fingerprints unstable across reprint in module `{}`",
                m1.name
            )));
        }
    }
    Ok(f1)
}

/// Oracle 2: all three executors run `drives` in lockstep; the full
/// store is compared via `===` after every poke and every settle. Poke
/// and settle *results* must also agree — a fault on one executor only
/// is a divergence. Returns the merged runtime coverage of the
/// compiled executors and the poke count.
pub fn lockstep(
    design: &Arc<Design>,
    drives: &[Vec<(String, LogicVec)>],
) -> Result<(FuzzCoverage, usize), Failure> {
    let mut sims: Vec<(Simulator, &str)> = EXECUTORS
        .iter()
        .map(|(mode, two_state, label)| {
            let mut sim = Simulator::with_mode(Arc::clone(design), *mode);
            if *mode == ExecMode::Compiled {
                sim.set_two_state(*two_state);
                sim.enable_coverage();
            }
            (sim, *label)
        })
        .collect();
    let mut pokes = 0usize;

    let settle_all = |sims: &mut Vec<(Simulator, &str)>, at: &str| -> Result<bool, Failure> {
        let r0 = sims[0].0.settle();
        for i in 1..sims.len() {
            let ri = sims[i].0.settle();
            if ri != r0 {
                return Err(Failure::Lockstep(format!(
                    "settle at {at}: {} => {:?}, {} => {:?}",
                    sims[0].1, r0, sims[i].1, ri
                )));
            }
        }
        compare_all(design, sims, at)?;
        Ok(r0.is_ok())
    };

    if !settle_all(&mut sims, "boot")? {
        return Ok((drain_coverage(&mut sims), pokes));
    }
    'steps: for (i, step) in drives.iter().enumerate() {
        for (name, v) in step {
            let at = format!("step {i} poke {name}");
            let r0 = sims[0].0.poke(name, v.clone());
            for k in 1..sims.len() {
                let rk = sims[k].0.poke(name, v.clone());
                if rk != r0 {
                    return Err(Failure::Lockstep(format!(
                        "{at}: {} => {:?}, {} => {:?}",
                        sims[0].1, r0, sims[k].1, rk
                    )));
                }
            }
            pokes += 1;
            compare_all(design, &mut sims, &at)?;
            if r0.is_err() {
                // All executors agree on the fault; the case is over.
                break 'steps;
            }
        }
        if !settle_all(&mut sims, &format!("step {i} settle"))? {
            break;
        }
    }
    Ok((drain_coverage(&mut sims), pokes))
}

fn drain_coverage(sims: &mut [(Simulator, &str)]) -> FuzzCoverage {
    let mut cov = FuzzCoverage::new();
    for (sim, _) in sims.iter_mut() {
        if let Some(c) = sim.take_coverage() {
            cov.merge(&c);
        }
    }
    cov
}

/// Compare every signal of every executor against the reference
/// (index 0) with `===`.
fn compare_all(design: &Design, sims: &mut [(Simulator, &str)], at: &str) -> Result<(), Failure> {
    // `peek` needs `&mut` (it may lazily flush deferred pokes), so
    // snapshot each executor's store in turn.
    let mut values: Vec<Vec<LogicVec>> = Vec::with_capacity(sims.len());
    for (sim, _) in sims.iter_mut() {
        values.push(
            design
                .signals
                .iter()
                .map(|decl| {
                    let id = design.signal(&decl.name).expect("declared name resolves");
                    sim.peek(id).clone()
                })
                .collect(),
        );
    }
    for k in 1..sims.len() {
        for (s, decl) in design.signals.iter().enumerate() {
            let (va, vb) = (&values[0][s], &values[k][s]);
            if !va.case_eq(vb) {
                return Err(Failure::Lockstep(format!(
                    "at {at}: signal `{}` diverged: {} = {}, {} = {}",
                    decl.name,
                    sims[0].1,
                    va.to_binary_string(),
                    sims[k].1,
                    vb.to_binary_string()
                )));
            }
        }
    }
    Ok(())
}

/// Oracle 3: single-edit mutants, delta-built against the unedited
/// parent, must equal their own from-scratch builds — structurally and
/// on elaborability.
pub fn check_delta_mutants(
    file: &SourceFile,
    top: &str,
    parent: &Arc<Design>,
    seed: u64,
) -> Result<(), Failure> {
    let Some(top_ix) = file.modules.iter().position(|m| m.name == top) else {
        return Err(Failure::Elab(format!("top `{top}` not in file")));
    };
    let provider = DesignUnits::new(Arc::clone(parent));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00DE_17A0_F055_1135);
    let muts = mage_llm::mutate::sample_mutations(&file.modules[top_ix], 3, &mut rng);
    for (mi, m) in muts.iter().enumerate() {
        let mut edited = file.clone();
        if !mage_llm::mutate::apply_mutation(&mut edited.modules[top_ix], m) {
            continue;
        }
        let scratch = elaborate(&edited, top);
        let delta = elaborate_with(&edited, top, &provider);
        match (scratch, delta) {
            (Ok(scratch), Ok((delta, stats))) => {
                if stats.reused + stats.rebuilt != delta.processes.len() {
                    return Err(Failure::Delta(format!(
                        "mutant {mi} (seed {seed:#x}): unit accounting off: {stats:?} vs {} processes",
                        delta.processes.len()
                    )));
                }
                structurally_exact(&scratch, &delta)
                    .map_err(|d| Failure::Delta(format!("mutant {mi} (seed {seed:#x}): {d}")))?;
            }
            (Err(es), Err(ed)) => {
                if es != ed {
                    return Err(Failure::Delta(format!(
                        "mutant {mi} (seed {seed:#x}): error divergence: scratch {es:?}, delta {ed:?}"
                    )));
                }
            }
            (s, d) => {
                return Err(Failure::Delta(format!(
                    "mutant {mi} (seed {seed:#x}): elaborability divergence: scratch {:?}, delta {:?}",
                    s.map(|_| ()),
                    d.map(|_| ())
                )));
            }
        }
    }
    Ok(())
}

/// Structural store-exactness: same signal table, same interpreter
/// processes, same compiled artifacts (bytecode, plans, fanout index).
fn structurally_exact(scratch: &Design, delta: &Design) -> Result<(), String> {
    if format!("{:?}", scratch.signals) != format!("{:?}", delta.signals) {
        return Err("signal tables diverged".to_string());
    }
    if scratch.processes != delta.processes {
        return Err("interpreter processes diverged".to_string());
    }
    if format!("{:?}", scratch.compiled()) != format!("{:?}", delta.compiled()) {
        return Err("compiled artifacts diverged".to_string());
    }
    Ok(())
}
