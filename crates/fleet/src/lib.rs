//! `mage-fleet` — a sharded serve cluster for MAGE job streams.
//!
//! A [`FleetEngine`] runs N [`mage_serve::ServeEngine`] shards, each on
//! its own OS thread, behind a deterministic controller that owns every
//! scheduling decision:
//!
//! - **Affinity routing** — jobs hash to a home shard by problem id, a
//!   deterministic spread of the stream, spilling to the lightest shard
//!   when the home is overloaded.
//! - **Job migration** — hot shards shed work at step boundaries by
//!   checkpointing a job ([`mage_serve::JobCheckpoint`], carrying model
//!   state, retry ledger and a backend-health snapshot) and restoring
//!   it on a cold shard; the same mechanism powers graceful
//!   [`FleetEngine::drain_shard`] / [`FleetEngine::restart_shard`].
//! - **One cache set** — every shard compiles and scores through the
//!   fleet's one design, score and process-unit cache, whose counters
//!   [`FleetReport::design_cache`] and its siblings report once.
//! - **Replayable placement** — every decision lands in a
//!   [`PlacementTrace`]; pin it via [`FleetOptions::pinned`] and the
//!   run replays bit-for-bit.
//!
//! The determinism contract (job traces are placement-invariant; the
//! schedule replays under a pinned trace) is spelled out in the
//! [`fleet`](self) controller module docs — see [`FleetEngine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod service;
mod shard;
mod trace;

pub use fleet::{CacheTierStats, FleetEngine, FleetOptions, FleetReport};
pub use service::{synthetic_shard_service, synthetic_shard_service_with};
pub use shard::JobRoster;
pub use trace::{Migration, Placement, PlacementTrace};
