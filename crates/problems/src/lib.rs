//! VerilogEval-style benchmark problem suites for the MAGE reproduction.
//!
//! Each [`Problem`] carries a natural-language specification, a golden
//! design in the MAGE Verilog subset, a difficulty rating for the
//! synthetic channel, and a stimulus recipe. Two suites mirror the
//! paper's benchmarks: [`SuiteId::V1Human`] and [`SuiteId::V2`]
//! (scaled down from VerilogEval, with the same mixture of categories).
//!
//! # Example
//!
//! ```
//! use mage_problems::{by_id, suite, SuiteId};
//!
//! let v2 = suite(SuiteId::V2);
//! assert!(v2.len() >= 40);
//! let fig3 = by_id("prob093_ece241_2014_q3").expect("the Fig. 3 case study");
//! let oracle = fig3.oracle(42);
//! assert_eq!(oracle.top, "top_module");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod extras;
mod hier;
mod problem;
mod registry;
mod seq;

pub use problem::{Category, Problem, StimSpec};
pub use registry::{all_problems, by_id, suite, SuiteId};
