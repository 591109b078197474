//! In-memory timers and counters of a traced run. Every span is taken
//! in this benchmark's own code, around a call into a public function
//! of the layer it names; nothing inside the program is instrumented.

use mage_llm::TaskKind;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Calls into one layer and the wall time spent inside them.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    /// Run `f` as one timed call.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(t.elapsed());
        out
    }

    /// Count one call that took `d`.
    pub fn record(&self, d: Duration) {
        self.calls.fetch_add(1, Relaxed);
        self.add_time(d);
    }

    /// Add time without counting a call.
    pub fn add_time(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).expect("span shorter than 584 years");
        self.nanos.fetch_add(ns, Relaxed);
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Time spent so far, ms.
    pub fn ms(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 / 1e6
    }
}

/// A plain event counter.
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The total.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Model request kinds in report order, with their metric names.
pub const LLM_KINDS: [(TaskKind, &str); 5] = [
    (TaskKind::GenerateTestbench, "tb_gen"),
    (TaskKind::GenerateRtl, "rtl_gen"),
    (TaskKind::Judge, "judge"),
    (TaskKind::DebugRtl, "debug"),
    (TaskKind::FixSyntax, "fix_syntax"),
];

/// Index of `kind` in [`LLM_KINDS`].
pub fn kind_index(kind: TaskKind) -> usize {
    LLM_KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every request kind has a ledger row")
}

/// Every span and counter of one traced run, shared by the threads
/// that record into it.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `Problem::oracle` (model construction).
    pub oracle: Span,
    /// `RtlLanguageModel::dispatch`, one row per [`LLM_KINDS`] entry.
    pub llm: [Span; 5],
    /// `SolveJob::advance`.
    pub advance: Span,
    /// Dropping a finished solve's unit pool, job and model.
    pub teardown: Span,
    /// `compile_pooled` inside `execute_sim_with`.
    pub compile: Span,
    /// Compiles that returned a diagnostic.
    pub compile_errors: Count,
    /// Process units a compile took from its parent or the solve pool.
    pub units_reused: Count,
    /// Process units a compile elaborated and lowered afresh.
    pub units_rebuilt: Count,
    /// `execute_sim_with` minus its compile: the testbench run. Calls
    /// count the requests that ran a bench on a compiled design.
    pub tb: Span,
    /// Checks in the reports those bench runs returned.
    pub tb_checks: Count,
    /// The forwarding `LlmService` wrapper: one call per dispatch.
    pub service: Span,
    /// Requests those dispatches carried.
    pub service_requests: Count,
    /// `ServeEngine::step`.
    pub step: Span,
}
