//! `mage-serve`: a concurrent solve-job engine over the resumable MAGE
//! state machine — many solves in flight, batched LLM dispatch, shared
//! simulation results, deterministic answers.
//!
//! # The state-machine protocol
//!
//! A solve is a [`mage_core::SolveJob`]: a plain value that yields, one
//! at a time, the external effects it needs —
//!
//! ```text
//!   NeedLlm(LlmRequest)  — a model call (owned; queueable; batchable)
//!   NeedSim(SimRequest)  — compile and/or score a candidate
//!   Done(SolveTrace)     — terminal
//! ```
//!
//! — and consumes their answers through `advance(StepInput)`. Because a
//! job never blocks, the [`ServeEngine`] can interleave hundreds of
//! them.
//!
//! # The wave scheduler
//!
//! Jobs live in per-need queues. Each iteration
//! ([`ServeEngine::step`]):
//!
//! 1. *Wave boundary*: drain the streaming [`JobIntake`], re-enqueue
//!    restored checkpoints' parked requests, admit queued jobs up to
//!    `max_in_flight` (job order).
//! 2. *Advance* every job holding a resolved input once; each new need
//!    parks as [`mage_core::PendingWork`] in the LLM or sim queue; jobs
//!    that finish retire with their [`mage_core::SolveTrace`].
//! 3. *Coalesce*: if the in-flight sim wave blocks more jobs than the
//!    LLM queue holds, join it and advance the returning cohort now, so
//!    its requests ride this step's batch.
//! 4. *Launch*: if the sim pool is idle, the whole sim queue leaves as
//!    one **background wave** on the engine's `workers` persistent
//!    threads, spawned at the first launch and parked between waves
//!    (compiling through the shared [`DesignCache`], scoring through
//!    the [`ScoreCache`]). Every join helps: the scheduler thread runs
//!    the wave's unstarted requests itself, then waits only for those
//!    a worker already holds.
//! 5. *Dispatch point*: whenever the LLM queue is non-empty it is cut
//!    as **one** coalesced [`LlmService`] batch — while the sim wave
//!    keeps crunching underneath. Only an empty LLM queue joins the
//!    wave. Sim latency thus hides under LLM latency instead of
//!    alternating with it; [`ServeStats::overlap_steps`] counts how
//!    often that overlap actually happened.
//!
//! # Determinism
//!
//! The *schedule* — which requests coalesce into which batch, and in
//! which order — is a pure function of job states and queue contents,
//! never of thread timing: the scheduler joins its background sim wave
//! only at deterministically chosen points (a coalescing cohort, an
//! empty LLM queue, a checkpoint), never by polling for completion.
//! Outcomes come back by request index, so which thread ran a request
//! is invisible. Serving only
//! interleaves solves, so each served trace has one correct value: the
//! one [`mage_core::Mage::solve`] gives for that job alone, with the
//! same seed. With per-job models ([`PerJobModels`], one independently
//! seeded backend per job) every trace equals that solo solve
//! bit-for-bit, whether the engine runs with 1, 2 or 8 workers, batched
//! or scalar dispatch, and any admission cap. The determinism suite
//! checks exactly this against solo solves.
//!
//! # Streaming admission
//!
//! Jobs are admitted at wave boundaries, so [`ServeEngine::push_job`]
//! is valid mid-run between steps, and [`ServeEngine::intake`] hands
//! out a clonable, thread-safe [`JobIntake`]: submissions land while
//! `run` is blocking and are admitted at the next boundary; an idle
//! engine parks on the intake and `run` returns once it is closed and
//! drained.
//!
//! # Fault tolerance
//!
//! LLM dispatch rides a resilience stack (`mage_llm`): a
//! [`mage_llm::Transport`] carries batched calls to one of several
//! backends, a [`mage_llm::Dispatcher`] wraps it with bounded retries
//! (jittered exponential backoff), hedged duplicates past a latency
//! threshold, rate-limit-aware batch down-sizing, and per-backend
//! health scoring (error/latency EMAs) that routes around sick or
//! scripted-dead backends. The [`FaultyService`] returned by
//! [`synthetic_service`] injects a seeded [`mage_llm::FaultPlan`]
//! (`$MAGE_FAULT_PLAN`, or [`synthetic_service_with`] explicitly):
//! transient errors, timeouts, rate limits, garbled replies and hard
//! backend outages, each decided purely by `(plan seed, request key,
//! attempt)` — never by wall clock or thread timing.
//!
//! Determinism survives the faults. A faulted attempt is dropped
//! *before* the model is consulted, so the per-job model streams
//! advance exactly once per request, and an absorbable plan yields
//! traces bit-identical to the fault-free run — the chaos suite sweeps
//! plans × schedules × worker counts against exactly that invariant. All
//! virtual channel latency (fault draws, backoff, retry-after, hedges)
//! accrues on a per-job virtual clock that [`ServeOptions::deadline_ms`]
//! is checked against.
//!
//! When the dispatcher gives up ([`mage_llm::DispatchError`]), the
//! engine re-parks the request and re-dispatches it up to
//! [`ServeOptions::llm_retry_budget`] times; an exhausted budget, a
//! blown deadline, or a total backend outage finishes the job as a
//! structured [`mage_core::JobOutcome::Failed`] — the engine drains
//! gracefully (every job retires with a complete [`ServeReport`];
//! `run` always returns). [`ServeStats`] counts `retries`, `hedges`,
//! `rate_limit_defers`, `failovers` and `jobs_failed`; checkpoints
//! carry the in-flight retry state (attempt counts, emit sequence,
//! virtual clock) so a restored job resumes its retry schedule
//! bit-exactly.
//!
//! # Cache keying
//!
//! Every cache is one [`CacheTier`]: a hash key, the full input it was
//! derived from verified on every hit, and LRU eviction. The
//! [`DesignCache`] maps `fnv1a(source text) →
//! elaboration result`. Elaboration is a pure function of the source, so
//! a cache entry is valid for every job, ablation and bench; a miss
//! delta-compiles ([`mage_core::compile_pooled`]) against the request's
//! parent design and the [`UnitCache`], which shares unchanged process
//! units between candidates that differ in a few processes. The
//! [`ScoreCache`] extends the same idea to scoring: its key mixes
//! `fnv1a(candidate source)` with a structural fingerprint of the bench
//! (the bench's derived `Hash`, folded a word at a time), and its
//! witness holds the source and the request's `Arc<Testbench>`, so it
//! shares complete scoring outcomes between jobs that generated
//! structurally equal benches without ever rendering one. Scores are
//! pure in `(source, bench)`, so sharing cannot leak state between
//! solves; cached reports are compact and shared, so a hit copies none.
//!
//! # Checkpointing
//!
//! A running job can be [`ServeEngine::checkpoint`]ed — lifted out of
//! the engine as a value (job state + pending input *or* parked
//! request + its model state from the service) — held arbitrarily
//! long, and [`ServeEngine::restore`]d into the same or another engine,
//! resuming mid-solve with bit-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod pool;
mod scheduler;
mod service;
mod wave;

pub use cache::{
    DesignCache, ScoreCache, SourceHasher, DEFAULT_CACHE_CAPACITY, DEFAULT_SCORE_CAPACITY,
};
pub use mage_core::units::{CacheTier, UnitCache, DEFAULT_UNIT_CAPACITY};
pub use scheduler::{
    JobCheckpoint, JobId, JobIntake, JobSpec, SchedMode, ServeEngine, ServeOptions, ServeReport,
    ServeStats,
};
pub use service::{
    synthetic_service, synthetic_service_with, FaultyService, LlmCall, LlmOutcome, LlmService,
    PerJobModels, ServiceTransport, SharedModel, SyntheticPerJob, SYNTHETIC_BACKENDS,
};
