//! MAGE: a multi-agent engine for automated RTL code generation.
//!
//! This meta-crate re-exports the whole MAGE reproduction workspace, one
//! crate per layer:
//!
//! * [`logic`] — four-state logic vectors;
//! * [`verilog`] — lexer, parser, AST, printer, static analysis;
//! * [`sim`] — elaboration and simulation;
//! * [`tb`] — checkpointed testbenches, scoring and textual logs;
//! * [`llm`] — the model interface and the synthetic channel;
//! * [`problems`] — the VerilogEval-style benchmark suites;
//! * [`core`] — the multi-agent engine, experiments and metrics.
//!
//! # Quickstart
//!
//! ```
//! use mage::core::{Mage, MageConfig, Task};
//!
//! let problem = mage::problems::by_id("prob010_mux2").expect("corpus problem");
//! let mut model = problem.job_model(42);
//! let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
//! let trace = engine.solve(&Task { id: problem.id, spec: problem.spec });
//! assert!(trace.final_score > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mage_core as core;
pub use mage_llm as llm;
pub use mage_logic as logic;
pub use mage_problems as problems;
pub use mage_sim as sim;
pub use mage_tb as tb;
pub use mage_verilog as verilog;
