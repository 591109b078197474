//! Elaboration and four-state simulation for the MAGE Verilog subset.
//!
//! This crate replaces the Icarus Verilog compile-and-simulate loop the
//! MAGE paper uses: [`elaborate`] flattens a parsed design into signals
//! and compiled processes, and [`Simulator`] executes it with
//! combinational-fixpoint and non-blocking-assignment clock semantics,
//! with full `X`/`Z` propagation.
//!
//! Elaboration is *unit-based*: every process is produced as a
//! content-addressed compilation unit keyed by `(item fingerprint,
//! binding hash, ordinal)` — see the [`unit`](mod@unit) module.
//! [`elaborate_with`] probes a [`UnitSource`] (typically the candidate's
//! parent design via [`DesignUnits`], optionally chained over a unit
//! cache tier) and reuses every verified hit verbatim, interpreter form
//! and bytecode both, so a one-process edit rebuilds one unit instead of
//! the whole design. [`elaborate`] is the same pipeline without a provider and
//! stays live as the reference build the delta suites and the fuzz
//! oracle difference against; delta-built designs are store-exact
//! against it by construction (full text + environment verification on
//! every unit hit).
//!
//! The intended cycle-level usage mirrors a Verilog testbench: drive
//! inputs with [`Simulator::poke`] (or a whole step's drives at once
//! with [`Simulator::poke_many`], or [`Simulator::poke_many_ids`] on
//! ids resolved once up front), toggle the clock input, and read
//! outputs with [`Simulator::peek`]. The `mage-tb` crate builds the
//! paper's checkpointed testbench protocol on top of this interface.
//!
//! Process bodies execute on a compile-once bytecode core: every body
//! is lowered ([`compile`]) to a flat width-annotated instruction
//! stream — once per [`Design`], shared by every simulator over it —
//! that the interpreter ([`interp`]) runs over pre-sized register
//! files: a four-state loop over `LogicVec` slots at every width, and
//! a **two-state evaluation plan** ([`plan`]) for streams whose values
//! fit in 64 bits: when a planned process's inputs are fully defined,
//! its plan runs over the aval plane only (Verilator-style), falling
//! back to four-state on demand — an `X`/`Z` on any read runs the
//! four-state loop, and an X-producing hazard mid-run rewinds and
//! re-runs it. Scheduling is event-driven: a two-region event wheel (active
//! combinational events + an NBA commit region) fans each signal
//! change out to exactly the processes whose bytecode reads it, and
//! dispatches clock edges through per-edge trigger lists computed at
//! elaboration — see the [`sim`](Simulator) module docs for the full
//! three-executor stack. The original tree-walking evaluator
//! ([`eval`]/[`exec`]) with its scan-based worklist scheduler remains
//! available as the differential-testing oracle via
//! [`ExecMode::Legacy`] (or the `MAGE_SIM_EXEC=legacy` environment
//! hook); [`Simulator::set_two_state`] reaches the pure four-state
//! reference of the compiled executor.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mage_logic::LogicVec;
//! use mage_sim::{elaborate, Simulator};
//!
//! let file = mage_verilog::parse(
//!     "module counter(input clk, input rst, output reg [3:0] q);
//!        always @(posedge clk) if (rst) q <= 4'd0; else q <= q + 4'd1;
//!      endmodule",
//! ).unwrap();
//! let design = Arc::new(elaborate(&file, "counter")?);
//! let mut sim = Simulator::new(design);
//! sim.settle().unwrap();
//! sim.poke("rst", LogicVec::from_bool(true)).unwrap();
//! sim.poke("clk", LogicVec::from_bool(false)).unwrap();
//! sim.poke("clk", LogicVec::from_bool(true)).unwrap(); // reset edge
//! sim.poke("rst", LogicVec::from_bool(false)).unwrap();
//! for _ in 0..3 {
//!     sim.poke("clk", LogicVec::from_bool(false)).unwrap();
//!     sim.poke("clk", LogicVec::from_bool(true)).unwrap();
//! }
//! assert_eq!(sim.peek_by_name("q").unwrap().to_u64(), Some(3));
//! # Ok::<(), mage_sim::ElabError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod coverage;
mod design;
mod elab;
mod error;
mod eval;
pub mod interp;
pub mod plan;
mod sim;
pub mod unit;

pub use compile::{
    assemble_design, compile_design, compile_process, CompiledDesign, CompiledProcess,
};
pub use coverage::FuzzCoverage;
pub use design::{CExpr, CLValue, CStmt, Design, Process, SignalDecl, SignalId};
pub use elab::{elaborate, elaborate_delta, elaborate_with, fold_const_expr};
pub use error::{ElabError, SimError};
pub use eval::{eval, exec, PendingWrite, Store};
pub use plan::{CascadePlan, EvalPlan, PlanOp};
pub use sim::{EvalCounts, ExecMode, Simulator};
pub use unit::{
    unit_hash, ChainedUnits, DeltaStats, DesignUnits, ProcessUnit, UnitKey, UnitSource, UnitTag,
};
