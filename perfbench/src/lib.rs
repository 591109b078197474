//! End-to-end and per-layer benchmark of the MAGE reproduction.
//!
//! One job set — the V2 suite × 60 runs at the paper's high
//! temperature — ordered by the stream seed into [`stream::BLOCKS`]
//! blocks of [`stream::BLOCK_RUNS`] runs, runs through three workloads:
//!
//! * `solve`: a closed loop of one client calling `Mage::solve`;
//! * `serve`: sixteen clients in one `ServeEngine` per block (wave
//!   scheduler, one sim worker), fault-free service;
//! * `serve_faults`: `serve` under the canonical fault plan.
//!
//! Every job's model is seeded per job, so the three do bit-identical
//! solve work and differ only in the machinery around it. An untraced
//! run reports end-to-end metrics; a traced run reports a per-layer
//! ledger, timed from this crate's own calls into each layer's public
//! functions. See `NOTES.md` for the metric map, why `BENCHMARK.json`
//! lists only `solve` and `serve_faults`, and the baseline facts.

pub mod ledger;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod stream;
pub mod sys;
pub mod workload;

/// Environment switches that change what the program computes or how
/// many threads it uses. A run clears them so an inherited oracle
/// switch cannot silently change what is measured.
pub const PINNED_ENV: [&str; 6] = [
    "MAGE_SIM_EXEC",
    "MAGE_SIM_TWO_STATE",
    "MAGE_SIM_DELTA",
    "MAGE_SIM_FUSE",
    "MAGE_FAULT_PLAN",
    "RAYON_NUM_THREADS",
];
