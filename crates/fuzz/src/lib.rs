//! Coverage-guided differential fuzzing for the MAGE Verilog stack.
//!
//! The paper's multi-agent loop (MAGE, DAC 2025) trusts the simulator
//! to judge LLM-generated RTL; a silent miscompare between executors
//! would corrupt every downstream agent decision. This crate
//! stress-tests that trust: a seeded grammar-directed generator
//! ([`gen`]) grows random-but-valid Verilog inside the supported
//! subset, and every case must survive three oracles ([`oracle`]) —
//! parse→print→reparse roundtrips, three-executor lockstep simulation
//! with store-exact comparison after every poke, and delta-vs-scratch
//! rebuilds of single-edit mutants.
//!
//! Generation is *coverage-guided*: the simulator exposes a cheap
//! feature map ([`mage_sim::FuzzCoverage`] — bytecode opcode pairs,
//! superinstruction kinds, cascade lengths, two-state bail reasons),
//! and any case that lights up new features is shrunk ([`shrink`]) and
//! persisted as a corpus entry ([`corpus`]) keyed by its generator
//! seed, so the whole corpus replays deterministically.
//!
//! The `mage-fuzz` binary drives it all; `mage-fuzz --smoke` is the CI
//! gate (fixed seed, bounded batch, corpus replay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::CorpusEntry;
pub use gen::{drives_for, generate, GenCase, GenConfig};
pub use mage_sim::FuzzCoverage;
pub use oracle::{run_case, run_source, CaseOutcome, Failure};
pub use shrink::shrink_module;

use mage_verilog::{print_file, SourceFile};

/// The fixed seed `mage-fuzz --smoke` (and CI) runs with.
pub const SMOKE_SEED: u64 = 0x4D41_4745_465A_0001; // "MAGEFZ" + rev

/// Cases per smoke run.
pub const SMOKE_CASES: usize = 200;

/// Derive the per-case seed for `(base, batch, index)` — a SplitMix64
/// finalizer over the packed coordinates, so every case stream is a
/// pure function of the base seed.
pub fn case_seed(base: u64, batch: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(batch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A case that failed an oracle, with its reproducer.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generating seed (regenerates the unshrunk case).
    pub seed: u64,
    /// What tripped.
    pub failure: Failure,
    /// Minimized source still reproducing the same failure class
    /// (falls back to the full source when shrinking is off).
    pub source: String,
}

/// Per-batch accounting, reported in the binary's summary line.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Cases run in this batch.
    pub cases: usize,
    /// Cumulative kept-entry count after this batch.
    pub kept_total: usize,
    /// Cumulative coverage feature count after this batch.
    pub coverage: usize,
}

/// A fuzzing session: cumulative coverage, kept corpus entries, and
/// divergences across batches. Everything is a pure function of the
/// base seed and batch layout.
pub struct Session {
    cfg: GenConfig,
    /// Whether kept entries and divergences are minimized (full-mode
    /// default; off in smoke, which only checks).
    pub minimize: bool,
    /// Cumulative feature map.
    pub coverage: FuzzCoverage,
    /// Corpus entries kept because they hit new features.
    pub kept: Vec<CorpusEntry>,
    /// Oracle failures found so far.
    pub divergences: Vec<Divergence>,
    /// Total cases run.
    pub cases_run: usize,
}

impl Session {
    /// New session over a generation config.
    pub fn new(cfg: GenConfig, minimize: bool) -> Session {
        Session {
            cfg,
            minimize,
            coverage: FuzzCoverage::new(),
            kept: Vec::new(),
            divergences: Vec::new(),
            cases_run: 0,
        }
    }

    /// Run one batch of `count` cases. Seeds come from
    /// [`case_seed`]`(base, batch, 0..count)`.
    pub fn run_batch(&mut self, base: u64, batch: u64, count: usize) -> BatchStats {
        for i in 0..count {
            self.run_one(case_seed(base, batch, i as u64));
        }
        BatchStats {
            cases: count,
            kept_total: self.kept.len(),
            coverage: self.coverage.len(),
        }
    }

    /// Run a single seed: generate, run every oracle, keep the case
    /// (shrunk) if it lit up new coverage, record a divergence if an
    /// oracle tripped.
    pub fn run_one(&mut self, seed: u64) {
        self.cases_run += 1;
        let case = generate(seed, &self.cfg);
        let steps = self.cfg.steps;
        match run_case(&case, steps) {
            Ok(outcome) => {
                let novel = self.coverage.novel_ids(&outcome.coverage);
                if novel.is_empty() {
                    return;
                }
                let source = if self.minimize {
                    let keep = |m: &mage_verilog::ast::Module| -> bool {
                        let src = print_module_file(m);
                        match run_source(&src, seed, steps) {
                            Ok(out) => novel.iter().any(|id| out.coverage.contains(*id)),
                            Err(_) => false,
                        }
                    };
                    print_module_file(&shrink_module(&case.module, &keep))
                } else {
                    case.source.clone()
                };
                self.coverage.merge(&outcome.coverage);
                self.kept.push(CorpusEntry {
                    seed,
                    steps,
                    source,
                });
            }
            Err(failure) => {
                let source = if self.minimize {
                    let want = std::mem::discriminant(&failure);
                    let keep = |m: &mage_verilog::ast::Module| -> bool {
                        match run_source(&print_module_file(m), seed, steps) {
                            Err(f) => std::mem::discriminant(&f) == want,
                            Ok(_) => false,
                        }
                    };
                    // The unshrunk module must reproduce through the
                    // text path for the predicate to be meaningful;
                    // otherwise ship the original source as-is.
                    if keep(&case.module) {
                        print_module_file(&shrink_module(&case.module, &keep))
                    } else {
                        case.source.clone()
                    }
                } else {
                    case.source.clone()
                };
                self.divergences.push(Divergence {
                    seed,
                    failure,
                    source,
                });
            }
        }
    }
}

/// Print a single module as a standalone source file.
fn print_module_file(m: &mage_verilog::ast::Module) -> String {
    print_file(&SourceFile {
        modules: vec![m.clone()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_stable_and_spreads() {
        assert_eq!(case_seed(1, 2, 3), case_seed(1, 2, 3));
        let mut seen = std::collections::BTreeSet::new();
        for b in 0..4u64 {
            for i in 0..64u64 {
                seen.insert(case_seed(SMOKE_SEED, b, i));
            }
        }
        assert_eq!(
            seen.len(),
            4 * 64,
            "no seed collisions in a smoke-sized run"
        );
    }
}
