//! Lexer, parser, AST, pretty-printer and static analysis for the MAGE
//! synthesizable Verilog subset.
//!
//! This crate is the front-end substrate of the MAGE reproduction,
//! standing in for the Icarus Verilog front-end used by the paper. It
//! accepts the synthesizable Verilog-2005 constructs the benchmark
//! problems use and rejects everything else with a positioned
//! [`ParseError`] — exactly the "syntax feedback" the MAGE RTL agents
//! consume in their `s = 5` syntax-repair iterations.
//!
//! # Subset
//!
//! Modules (ANSI or non-ANSI ports), `wire`/`reg` vectors, `assign`,
//! `always @(*)` / `always @(edge …)`, `if`/`case`/`casez`/`for`, module
//! instances with named/ordered connections and parameter overrides, and
//! the full operator set ([`ast::BinaryOp`], [`ast::UnaryOp`]).
//!
//! Deviations from IEEE 1364: no `signed` arithmetic, no
//! `generate`/`function`/`task`/`initial`, no indexed part-selects
//! (`+:`), `casex` parsed as `casez`.
//!
//! # Example
//!
//! ```
//! use mage_verilog::{parse_module, print_module};
//!
//! let m = parse_module(
//!     "module mux(input a, input b, input s, output y);
//!        assign y = s ? b : a;
//!      endmodule",
//! )?;
//! assert_eq!(m.name, "mux");
//! let text = print_module(&m);
//! assert_eq!(parse_module(&text)?, m); // printer round-trips
//! # Ok::<(), mage_verilog::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
mod error;
pub mod fingerprint;
mod lexer;
mod parser;
mod printer;
pub mod token;
pub mod visit;

pub use ast::*;
pub use error::ParseError;
pub use fingerprint::{item_fingerprint, item_print, module_fingerprints, ItemPrint};
pub use lexer::lex;
pub use parser::{parse, parse_module};
pub use printer::{print_expr, print_file, print_item, print_lvalue, print_module, print_stmt};
pub use visit::{AssignRef, ExprPath, StmtPath, StmtStep};
