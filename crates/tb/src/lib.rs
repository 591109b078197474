//! Structured testbenches, state checkpoints, mismatch scoring and
//! textual waveform logs — the verification substrate of the MAGE
//! reproduction (paper §III-C).
//!
//! A [`Testbench`] is the essential content of the paper's "optimized
//! testbench": an input schedule plus per-step expected output values.
//! Running one against an elaborated design yields a [`TbReport`], from
//! which this crate computes the mismatch score `s(r) = 1 − m(r)/tc(r)`
//! (Eq. 2), extracts the waveform window `W` around the first mismatch
//! (Eq. 6) as [`CheckRecord`]s — the *state checkpoints* — and renders
//! the three feedback formats of Fig. 3 (pass-rate summary, checkpoint
//! window, full WF-TextLog).
//!
//! Every bench runs on one schedule, with at most one clock: boot with
//! the clock low; per step drive the inputs, then raise the clock (or
//! settle, for a combinational bench), sample the outputs, and lower the
//! clock; the first simulation fault latches. A run first lowers its
//! bench against the design — every port resolved to a signal id once,
//! which is also the interface check — and then drives and samples by
//! id. [`run_testbench`] compares the checks, and
//! [`synthesize_testbench`] samples a reference design's outputs into
//! expectations on the same loop, so a synthesized bench checks exactly
//! the points a run of it compares.
//!
//! Stimuli and benches share one port-indexed layout, the
//! [`StepTable`]: each port is named once, in a table kept in first-use
//! order, and every step's drives (or checks) are `(port index, value)`
//! entries in one flat array with per-step bounds. A [`Stimulus`] holds
//! its drive table behind an `Arc`, and a [`Testbench`] is that stimulus
//! plus a table of checks — so synthesizing a bench shares the
//! stimulus's drives and builds only the checks, and lowering a bench
//! against a design resolves each port once, not once per step.
//!
//! Reports are compact: a report holds its bench by `Arc` and keeps
//! only the observations that differ from the bench's expectations, so
//! scoring, summaries and clones never touch per-check records. The
//! records of a window or a full log — names and input snapshots
//! included — are rebuilt from the port tables on demand.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mage_tb::{synthesize_testbench, run_testbench, CheckDensity, Stimulus};
//!
//! let file = mage_verilog::parse(
//!     "module top(input a, input b, output y); assign y = a ^ b; endmodule",
//! ).unwrap();
//! let design = Arc::new(mage_sim::elaborate(&file, "top").unwrap());
//! let stim = Stimulus::exhaustive(&[("a".into(), 1), ("b".into(), 1)]);
//! let tb = Arc::new(synthesize_testbench("xor", &design, &stim, CheckDensity::EveryStep));
//! let report = run_testbench(&tb, &design)?;
//! assert!(report.passed());
//! assert_eq!(report.score(), 1.0);
//! # Ok::<(), mage_tb::TbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod steps;
mod stimulus;
mod synth;
mod tb;
pub mod textlog;

pub use report::{CheckRecord, TbReport};
pub use steps::StepTable;
pub use stimulus::{Drive, Stimulus};
pub use synth::{synthesize_testbench, CheckDensity};
pub use tb::{run_testbench, TbError, Testbench, TIME_PER_STEP};
