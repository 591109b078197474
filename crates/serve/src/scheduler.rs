//! The job engine core: slots, admission, LLM dispatch, checkpoints and
//! reports. The wave iteration that [`ServeEngine::step`] runs lives in
//! [`crate::wave`]; see the crate docs for the protocol.

use crate::cache::{DesignCache, ScoreCache};
use crate::service::{LlmCall, LlmOutcome, LlmService};
use crate::wave::WaveState;
use mage_core::solvejob::{
    execute_sim_with, PendingWork, SimOutcome, SimRequest, SolveJob, StepInput,
};
use mage_core::{MageConfig, SolveTrace, UnitCache};
use mage_llm::{DispatchError, LlmRequest, TokenUsage};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifies a job within one [`ServeEngine`] (its index in push
/// order; also the tag the [`LlmService`] echoes on responses).
pub type JobId = usize;

/// Everything needed to start one solve.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Problem id (keys the model's oracle and the trace).
    pub problem_id: String,
    /// Natural-language specification.
    pub spec: String,
    /// Engine configuration for this job.
    pub config: MageConfig,
    /// Per-job model seed (consumed by the service's factory).
    pub seed: u64,
}

/// Which scheduler advances the jobs: the overlapped wave scheduler is
/// the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// The overlapped wave scheduler: per-need queues, LLM batches cut
    /// whenever the LLM queue is non-empty at a dispatch point, and sim
    /// waves draining on the worker pool *concurrently* with LLM
    /// dispatch — sim latency hides under LLM latency.
    #[default]
    Wave,
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("wave")
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Sim worker threads per wave (≥ 1). Results are identical at any
    /// value; this only sets how much simulation runs concurrently.
    pub workers: usize,
    /// Coalesce each dispatch point's LLM requests into one service
    /// batch. When `false`, every request is its own dispatch call (the
    /// scalar baseline `bench_engine` compares against).
    pub batch_llm: bool,
    /// Admission cap: at most this many jobs in flight (0 = unlimited).
    /// Bounds memory on long streams and staggers job start times.
    pub max_in_flight: usize,
    /// Scheduler: the overlapped wave scheduler, the only mode.
    pub sched: SchedMode,
    /// Engine-level retry budget per LLM request: how many *terminal*
    /// dispatch failures (the service already retried internally) are
    /// re-parked and re-dispatched before the job fails with a
    /// structured [`mage_core::JobOutcome::Failed`].
    pub llm_retry_budget: u32,
    /// Per-job virtual-latency deadline: once a job's accumulated LLM
    /// dispatch latency (virtual ms, deterministic) exceeds this, the
    /// job is cancelled with a deadline failure instead of retrying
    /// stuck work forever. `None` disables.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_llm: true,
            max_in_flight: 0,
            sched: SchedMode::default(),
            llm_retry_budget: 2,
            deadline_ms: None,
        }
    }
}

/// Dispatch counters of one engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Productive scheduler steps (wave iterations that admitted,
    /// advanced, dispatched, launched or joined something). A step on
    /// an idle engine — e.g. every job paused — counts zero.
    pub rounds: usize,
    /// Individual LLM requests resolved.
    pub llm_requests: usize,
    /// Dispatch calls made to the [`LlmService`]. With batching on this
    /// is one per dispatch point that had requests — strictly fewer
    /// than `llm_requests` whenever jobs overlap; with batching off the
    /// two counters are equal.
    pub llm_batch_calls: usize,
    /// Simulation requests executed.
    pub sim_requests: usize,
    /// Sim waves launched on the worker pool.
    pub sim_waves: usize,
    /// Steps in which an LLM batch dispatched while a sim wave was
    /// concurrently in flight — the overlap the wave scheduler exists
    /// to create.
    pub overlap_steps: usize,
    /// Jobs retired.
    pub jobs_done: usize,
    /// Jobs that retired with [`mage_core::JobOutcome::Failed`]
    /// (retry budget exhausted, deadline exceeded, or every backend
    /// down) — a subset of `jobs_done`.
    pub jobs_failed: usize,
    /// Token usage summed over retired jobs.
    pub total_usage: TokenUsage,
    /// Failed dispatch attempts the service retried (from the
    /// service's [`LlmService::resilience`] counters; zero under an
    /// empty fault plan).
    pub retries: u64,
    /// Hedged duplicate requests issued for slow successes.
    pub hedges: u64,
    /// Rate-limit sheds honored with a deferred retry.
    pub rate_limit_defers: u64,
    /// Requests that routed around (or retried past) a down backend.
    pub failovers: u64,
}

impl ServeStats {
    /// Fold another engine's counters in — the fleet-level aggregation
    /// over shards. Every field is a sum, including the resilience
    /// counters, so an N-shard aggregate reads like one big engine.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.rounds += other.rounds;
        self.llm_requests += other.llm_requests;
        self.llm_batch_calls += other.llm_batch_calls;
        self.sim_requests += other.sim_requests;
        self.sim_waves += other.sim_waves;
        self.overlap_steps += other.overlap_steps;
        self.jobs_done += other.jobs_done;
        self.jobs_failed += other.jobs_failed;
        self.total_usage += other.total_usage;
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.rate_limit_defers += other.rate_limit_defers;
        self.failovers += other.failovers;
    }
}

/// Aggregated results of an engine run (see [`ServeEngine::report`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Jobs pushed.
    pub jobs: usize,
    /// Jobs retired.
    pub done: usize,
    /// Jobs retired with a failure outcome (subset of `done`).
    pub failed: usize,
    /// Dispatch counters.
    pub stats: ServeStats,
    /// Design-cache hits at report time.
    pub cache_hits: usize,
    /// Design-cache misses at report time.
    pub cache_misses: usize,
    /// Design-cache key collisions at report time.
    pub cache_collisions: usize,
    /// Score-cache hits at report time.
    pub score_hits: usize,
    /// Score-cache misses at report time.
    pub score_misses: usize,
    /// Score-cache key collisions at report time.
    pub score_collisions: usize,
    /// Always 0: scoring has no structural short-circuit. Kept for
    /// readers of this report.
    pub score_shortcircuits: usize,
    /// Unit-cache hits at report time (process units served verbatim to
    /// delta compiles).
    pub unit_hits: usize,
    /// Unit-cache misses at report time.
    pub unit_misses: usize,
    /// Unit-cache key collisions at report time (each forced a rebuild
    /// instead of serving the wrong unit).
    pub unit_collisions: usize,
    /// Wall-clock seconds spent inside [`ServeEngine::run`].
    pub wall_s: f64,
    /// Retired jobs per wall second (0 when nothing ran).
    pub jobs_per_sec: f64,
    /// Mean per-job latency (admission → retirement), seconds.
    pub mean_latency_s: f64,
    /// Slowest per-job latency, seconds.
    pub max_latency_s: f64,
}

pub(crate) enum JobPhase {
    /// Waiting for an admission slot.
    Queued,
    /// In flight.
    Running(Box<SolveJob>),
    /// Lifted out by [`ServeEngine::checkpoint`].
    Parked,
    /// Retired.
    Done(Box<SolveTrace>),
}

pub(crate) struct JobSlot {
    pub(crate) spec: JobSpec,
    pub(crate) phase: JobPhase,
    /// Resolved input awaiting the next advance.
    pub(crate) input: Option<StepInput>,
    /// A request the wave scheduler has parked in a queue (or a
    /// restored checkpoint carried in). `input` and `pending` are
    /// mutually exclusive: a job either holds an answer or awaits one.
    pub(crate) pending: Option<PendingWork>,
    pub(crate) paused: bool,
    /// Start of the current *active* interval; `None` while the clock
    /// is stopped (queued, paused, checkpointed, or restored but not
    /// yet advanced).
    pub(crate) started_at: Option<Instant>,
    /// Active time accrued over completed intervals. The job's latency
    /// is the sum of active intervals only: pausing stops the clock,
    /// resuming (or restoring) restarts it at the next advance, so wall
    /// time spent paused or parked is never charged to the job.
    pub(crate) accrued: Duration,
    pub(crate) latency: Option<Duration>,
    /// LLM requests this job has *emitted* so far (the per-job request
    /// sequence number). Incremented at emit time only — never on a
    /// re-park or restored-checkpoint sweep — so it is identical across
    /// schedules and worker counts, and carries through checkpoints:
    /// the fault-key salt derives from it.
    pub(crate) llm_seq: u64,
    /// Terminal dispatch failures of the *current* request (reset on
    /// success); compared against [`ServeOptions::llm_retry_budget`].
    pub(crate) llm_attempts: u32,
    /// Accumulated virtual LLM dispatch latency, ms — the deterministic
    /// clock [`ServeOptions::deadline_ms`] is checked against.
    pub(crate) llm_virtual_ms: u64,
}

impl JobSlot {
    /// Stop the latency clock, banking the elapsed active interval.
    pub(crate) fn stop_clock(&mut self) {
        if let Some(t) = self.started_at.take() {
            self.accrued += t.elapsed();
        }
    }

    /// Start the latency clock unless already running.
    pub(crate) fn start_clock(&mut self) {
        if self.started_at.is_none() {
            self.started_at = Some(Instant::now());
        }
    }
}

/// A mid-solve job lifted out of an engine: the state machine, its
/// pending input *or* parked request, and the backend state the service
/// held for it. A plain value — hold it, ship it,
/// [`ServeEngine::restore`] it later, into this engine or another.
pub struct JobCheckpoint {
    /// The job's spec (re-used on restore).
    pub spec: JobSpec,
    job: Box<SolveJob>,
    input: Option<StepInput>,
    pending: Option<PendingWork>,
    model_state: Option<Box<dyn std::any::Any + Send>>,
    /// Active time spent before the checkpoint (latency carries over).
    accrued: Duration,
    /// In-flight retry state (see the [`JobSlot`] fields of the same
    /// names): carried so a restored job neither replays fault draws
    /// nor double-charges virtual latency.
    llm_seq: u64,
    llm_attempts: u32,
    llm_virtual_ms: u64,
}

impl JobCheckpoint {
    /// Emitted-request count at checkpoint time.
    pub fn llm_seq(&self) -> u64 {
        self.llm_seq
    }

    /// Terminal dispatch failures of the in-flight request.
    pub fn llm_attempts(&self) -> u32 {
        self.llm_attempts
    }

    /// Virtual LLM latency accumulated before the checkpoint, ms.
    pub fn llm_virtual_ms(&self) -> u64 {
        self.llm_virtual_ms
    }
}

struct IntakeState {
    queue: VecDeque<JobSpec>,
    closed: bool,
}

struct IntakeShared {
    state: Mutex<IntakeState>,
    cv: Condvar,
}

/// A clonable, thread-safe submission handle for streaming admission:
/// jobs submitted here — from any thread, while the engine is mid-run —
/// are admitted at the engine's next wave boundary, in submission order.
///
/// Once an engine has handed out an intake, [`ServeEngine::run`] serves
/// until the intake is [`close`](JobIntake::close)d and drained: when no
/// job can progress it parks on the intake instead of returning, and
/// wakes on the next submission. Idle parked time is not charged to any
/// job's latency (the per-job clocks are stopped).
#[derive(Clone)]
pub struct JobIntake {
    shared: Arc<IntakeShared>,
}

impl JobIntake {
    fn new() -> Self {
        JobIntake {
            shared: Arc::new(IntakeShared {
                state: Mutex::new(IntakeState {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Submit a job for admission at the next wave boundary. Returns
    /// `false` (dropping the spec) if the intake is already closed.
    pub fn submit(&self, spec: JobSpec) -> bool {
        let mut state = self.shared.state.lock().expect("intake poisoned");
        if state.closed {
            return false;
        }
        state.queue.push_back(spec);
        self.shared.cv.notify_all();
        true
    }

    /// Close the intake: no further submissions are accepted, and the
    /// engine's `run` returns once everything already submitted drains.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("intake poisoned");
        state.closed = true;
        self.shared.cv.notify_all();
    }

    fn drain(&self) -> Vec<JobSpec> {
        let mut state = self.shared.state.lock().expect("intake poisoned");
        state.queue.drain(..).collect()
    }

    fn has_queued(&self) -> bool {
        !self
            .shared
            .state
            .lock()
            .expect("intake poisoned")
            .queue
            .is_empty()
    }

    /// Block until a submission arrives (`true`) or the intake closes
    /// with an empty queue (`false`).
    fn wait_for_work(&self) -> bool {
        let mut state = self.shared.state.lock().expect("intake poisoned");
        loop {
            if !state.queue.is_empty() {
                return true;
            }
            if state.closed {
                return false;
            }
            state = self.shared.cv.wait(state).expect("intake poisoned");
        }
    }
}

/// The concurrent solve engine. See the crate docs for the wave
/// protocol and the determinism argument.
pub struct ServeEngine<S: LlmService> {
    pub(crate) opts: ServeOptions,
    pub(crate) service: S,
    pub(crate) cache: Arc<DesignCache>,
    pub(crate) scores: Arc<ScoreCache>,
    pub(crate) units: Arc<UnitCache>,
    pub(crate) jobs: Vec<JobSlot>,
    /// Ids of jobs still queued or running — what a step iterates, so
    /// long streams do not rescan retired slots every step.
    pub(crate) live: Vec<JobId>,
    /// Count of slots currently in `JobPhase::Running`.
    pub(crate) running: usize,
    /// Restored checkpoints and re-parked failures whose request still
    /// needs (re-)enqueueing, swept at the next wave boundary.
    pub(crate) restored: Vec<JobId>,
    pub(crate) wave: WaveState,
    intake: Option<JobIntake>,
    pub(crate) stats: ServeStats,
    wall: Duration,
}

impl<S: LlmService> ServeEngine<S> {
    /// An engine with fresh private caches.
    pub fn new(opts: ServeOptions, service: S) -> Self {
        Self::with_fabric(
            opts,
            service,
            Arc::new(DesignCache::new()),
            Arc::new(ScoreCache::new()),
            Arc::new(UnitCache::new()),
        )
    }

    /// An engine sharing the given cache fabric — designs, scores, and
    /// per-process compilation units — e.g. caches spanning several
    /// engines, tiers over a fleet's global ones, or a warm cache from a
    /// prior stream.
    pub fn with_fabric(
        opts: ServeOptions,
        service: S,
        cache: Arc<DesignCache>,
        scores: Arc<ScoreCache>,
        units: Arc<UnitCache>,
    ) -> Self {
        assert!(opts.workers >= 1, "at least one sim worker");
        ServeEngine {
            opts,
            service,
            cache,
            scores,
            units,
            jobs: Vec::new(),
            live: Vec::new(),
            running: 0,
            restored: Vec::new(),
            wave: WaveState::default(),
            intake: None,
            stats: ServeStats::default(),
            wall: Duration::ZERO,
        }
    }

    /// Queue a job; it is admitted in push order as slots free up. This
    /// is valid at any time — before the first step, or between steps
    /// mid-run (the job is admitted at the next wave boundary). For
    /// cross-thread submission while `run` is blocking, use
    /// [`ServeEngine::intake`].
    pub fn push_job(&mut self, spec: JobSpec) -> JobId {
        let id = self.jobs.len();
        self.jobs.push(JobSlot {
            spec,
            phase: JobPhase::Queued,
            input: None,
            pending: None,
            paused: false,
            started_at: None,
            accrued: Duration::ZERO,
            latency: None,
            llm_seq: 0,
            llm_attempts: 0,
            llm_virtual_ms: 0,
        });
        self.live.push(id);
        id
    }

    /// The streaming-admission handle (created on first call). Clone it
    /// into producer threads; see [`JobIntake`] for the `run` contract.
    pub fn intake(&mut self) -> JobIntake {
        self.intake.get_or_insert_with(JobIntake::new).clone()
    }

    /// The shared design cache.
    pub fn cache(&self) -> &Arc<DesignCache> {
        &self.cache
    }

    /// The shared score cache.
    pub fn scores(&self) -> &Arc<ScoreCache> {
        &self.scores
    }

    /// The shared process-unit cache.
    pub fn units(&self) -> &Arc<UnitCache> {
        &self.units
    }

    /// Requests currently parked in the `(LLM, sim)` wave queues —
    /// observability for callers and tests.
    pub fn queued_wave_work(&self) -> (usize, usize) {
        (self.wave.llm_q.len(), self.wave.sim_q.len())
    }

    /// Dispatch counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The service (e.g. to inspect live model count).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The service, mutably (e.g. to import a health snapshot on
    /// restore).
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    /// Virtual LLM dispatch latency a job has accumulated, ms —
    /// deterministic, and carried across checkpoints.
    pub fn job_virtual_ms(&self, id: JobId) -> Option<u64> {
        self.jobs.get(id).map(|s| s.llm_virtual_ms)
    }

    /// The trace of a retired job.
    pub fn trace(&self, id: JobId) -> Option<&SolveTrace> {
        match &self.jobs.get(id)?.phase {
            JobPhase::Done(trace) => Some(trace),
            _ => None,
        }
    }

    /// Traces of all retired jobs, in job order.
    pub fn traces(&self) -> Vec<(JobId, &SolveTrace)> {
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| match &slot.phase {
                JobPhase::Done(trace) => Some((id, trace.as_ref())),
                _ => None,
            })
            .collect()
    }

    /// Admission-to-retirement latency of a retired job.
    pub fn job_latency(&self, id: JobId) -> Option<Duration> {
        self.jobs.get(id)?.latency
    }

    /// Jobs still queued or running — an engine's load as a cluster
    /// router sees it. Deterministic at any step boundary.
    pub fn live_jobs(&self) -> usize {
        self.live.len()
    }

    /// `(id, advances, phase)` of every job currently in flight, in job
    /// order — the step-boundary export a cluster rebalancer selects
    /// migration victims from. Both the set and each advance count are
    /// pure functions of the schedule, so victim selection driven by
    /// this view is itself deterministic.
    pub fn running_jobs(&self) -> Vec<(JobId, u64, &'static str)> {
        self.live
            .iter()
            .filter_map(|&id| match &self.jobs[id].phase {
                JobPhase::Running(job) => Some((id, job.advances(), job.phase_name())),
                _ => None,
            })
            .collect()
    }

    /// The options this engine runs under.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Pause a job: it keeps its slot and state but is not advanced (a
    /// queued job is also not admitted) until [`ServeEngine::resume_job`].
    /// The latency clock stops — paused wall time is not charged. A
    /// request the job already parked in a wave queue may still be
    /// *resolved* while paused (its answer is held as the job's input);
    /// the job's own state machine does not move.
    pub fn pause_job(&mut self, id: JobId) {
        if let Some(slot) = self.jobs.get_mut(id) {
            slot.paused = true;
            slot.stop_clock();
        }
    }

    /// Resume a paused job. The latency clock restarts when the job
    /// next advances (not here — the engine may not be running yet).
    pub fn resume_job(&mut self, id: JobId) {
        if let Some(slot) = self.jobs.get_mut(id) {
            slot.paused = false;
        }
    }

    /// Lift a running job out of the engine mid-solve. Its slot becomes
    /// `Parked` (never advanced again); the returned checkpoint carries
    /// the state machine, the pending input *or* parked request, and
    /// the model state the service held for the job.
    ///
    /// An in-flight sim wave is joined first (its results route to
    /// their jobs as usual) so the checkpointed job cannot leave an
    /// answer in flight behind it; a request still sitting in a wave
    /// queue travels inside the checkpoint and is re-enqueued on
    /// restore.
    pub fn checkpoint(&mut self, id: JobId) -> Option<JobCheckpoint> {
        // Validate before joining: an invalid request must be a true
        // no-op, not a schedule-changing stall on the sim wave.
        if !matches!(
            self.jobs.get(id).map(|s| &s.phase),
            Some(JobPhase::Running(_))
        ) {
            return None;
        }
        self.join_inflight_wave();
        let slot = self.jobs.get_mut(id)?;
        let JobPhase::Running(job) = std::mem::replace(&mut slot.phase, JobPhase::Parked) else {
            unreachable!("checked above");
        };
        self.live.retain(|&lid| lid != id);
        self.restored.retain(|&lid| lid != id);
        self.wave.llm_q.retain(|&lid| lid != id);
        self.wave.sim_q.retain(|&lid| lid != id);
        self.running -= 1;
        slot.stop_clock();
        let (llm_seq, llm_attempts, llm_virtual_ms) =
            (slot.llm_seq, slot.llm_attempts, slot.llm_virtual_ms);
        Some(JobCheckpoint {
            spec: slot.spec.clone(),
            job,
            input: slot.input.take(),
            pending: slot.pending.take(),
            model_state: self.service.export_job(id),
            accrued: slot.accrued,
            llm_seq,
            llm_attempts,
            llm_virtual_ms,
        })
    }

    /// Insert a checkpointed job (possibly from another engine) as a
    /// new job of this one, resuming exactly where it left off. The
    /// job's latency clock carries over from before the checkpoint.
    ///
    /// A restored job takes an in-flight slot immediately — it must
    /// resume with its exact state, so it is never re-queued. This can
    /// transiently exceed `max_in_flight`; the restored job counts
    /// toward the cap, so further *admissions* stall until the stream
    /// drains back below it. A request the job had parked in a wave
    /// queue at checkpoint time is re-enqueued at the next step.
    ///
    /// Service contract: for a *stateful* per-job service (e.g.
    /// [`crate::PerJobModels`]) the checkpoint must carry the exported
    /// model state — which it does whenever the source engine used the
    /// same service type, since [`LlmService::export_job`] runs at
    /// checkpoint time. Restoring a stateless-service checkpoint (e.g.
    /// from [`crate::SharedModel`]) into a per-job service has no model
    /// state to attach; the target's factory then decides — the
    /// synthetic factory panics rather than seed a wrong model.
    pub fn restore(&mut self, ck: JobCheckpoint) -> JobId {
        let id = self.jobs.len();
        if let Some(state) = ck.model_state {
            self.service.import_job(id, state);
        }
        let has_pending = ck.pending.is_some();
        self.jobs.push(JobSlot {
            spec: ck.spec,
            phase: JobPhase::Running(ck.job),
            input: ck.input,
            pending: ck.pending,
            paused: false,
            // The clock restarts at the job's first advance, not at
            // restore time — the target engine may sit idle arbitrarily
            // long before `run` is called, and that wall time is not
            // the job's latency.
            started_at: None,
            accrued: ck.accrued,
            latency: None,
            llm_seq: ck.llm_seq,
            llm_attempts: ck.llm_attempts,
            llm_virtual_ms: ck.llm_virtual_ms,
        });
        self.live.push(id);
        self.running += 1;
        if has_pending {
            self.restored.push(id);
        }
        id
    }

    pub(crate) fn admission_cap(&self) -> usize {
        if self.opts.max_in_flight == 0 {
            usize::MAX
        } else {
            self.opts.max_in_flight
        }
    }

    /// Pull intake submissions into the job list, in submission order.
    pub(crate) fn drain_intake(&mut self) {
        let Some(intake) = &self.intake else {
            return;
        };
        for spec in intake.drain() {
            self.push_job(spec);
        }
    }

    /// Admission, in job order over the live set. Returns how many jobs
    /// started.
    pub(crate) fn admit(&mut self) -> usize {
        let cap = self.admission_cap();
        let mut admitted = 0;
        for ix in 0..self.live.len() {
            if self.running >= cap {
                break;
            }
            let slot = &mut self.jobs[self.live[ix]];
            if matches!(slot.phase, JobPhase::Queued) && !slot.paused {
                let job = SolveJob::new(
                    &slot.spec.problem_id,
                    &slot.spec.spec,
                    slot.spec.config.clone(),
                );
                slot.phase = JobPhase::Running(Box::new(job));
                slot.input = Some(StepInput::Start);
                slot.start_clock();
                self.running += 1;
                admitted += 1;
            }
        }
        admitted
    }

    /// Retire `ids`: drop them from the live set and release service
    /// state. (The slots were already moved to `Done` by the caller.)
    pub(crate) fn retire(&mut self, retired: Vec<JobId>) {
        if retired.is_empty() {
            return;
        }
        self.running -= retired.len();
        self.live.retain(|id| !retired.contains(id));
        for id in retired {
            self.service.finish_job(id);
        }
    }

    /// Resolve one batch of LLM requests — one coalesced service call,
    /// or scalar calls when batching is off — and route every tagged
    /// outcome: responses to their job's input slot, terminal dispatch
    /// failures to a re-park (retry budget permitting) or a structured
    /// job failure. Deadlines are checked against the job's *virtual*
    /// dispatch clock, so every decision here is deterministic.
    pub(crate) fn dispatch_llm(&mut self, batch: Vec<(JobId, LlmRequest)>) {
        if batch.is_empty() {
            return;
        }
        self.stats.llm_requests += batch.len();
        // Remember what each job asked for, so tag routing can verify
        // the response actually answers it (consumed on use, so a
        // duplicate or unknown tag is caught here).
        let mut expected: std::collections::HashMap<JobId, mage_llm::TaskKind> = batch
            .iter()
            .map(|(id, req)| (*id, req.task_kind()))
            .collect();
        let n = expected.len();
        let calls: Vec<LlmCall> = batch
            .into_iter()
            .map(|(id, req)| {
                let slot = &self.jobs[id];
                LlmCall {
                    job: id,
                    req,
                    // llm_seq was incremented at emit; the salt indexes
                    // the request itself (0-based), so a re-dispatch of
                    // the same request keeps the same salt.
                    salt: fault_salt(slot.spec.seed, slot.llm_seq.saturating_sub(1)),
                    prior_attempts: slot.llm_attempts,
                }
            })
            .collect();
        let mut outcomes = Vec::with_capacity(n);
        if self.opts.batch_llm {
            self.stats.llm_batch_calls += 1;
            outcomes = self.service.run_calls(calls);
        } else {
            for call in calls {
                self.stats.llm_batch_calls += 1;
                outcomes.extend(self.service.run_calls(vec![call]));
            }
        }
        assert_eq!(outcomes.len(), n, "LlmService returned a short batch");
        let mut failed: Vec<(JobId, String)> = Vec::new();
        for (id, outcome) in outcomes {
            let want = expected.remove(&id).unwrap_or_else(|| {
                panic!("LlmService answered unknown or already-answered job {id}")
            });
            match outcome {
                LlmOutcome::Ok { resp, latency_ms } => {
                    assert_eq!(
                        resp.task_kind(),
                        want,
                        "LlmService response for job {id} answers the wrong task"
                    );
                    let slot = &mut self.jobs[id];
                    slot.llm_attempts = 0;
                    slot.llm_virtual_ms += latency_ms;
                    if let Some(deadline) = self.opts.deadline_ms {
                        if slot.llm_virtual_ms > deadline {
                            failed.push((
                                id,
                                format!(
                                    "deadline exceeded: {}ms of virtual LLM latency \
                                     (limit {deadline}ms)",
                                    slot.llm_virtual_ms
                                ),
                            ));
                            continue;
                        }
                    }
                    slot.input = Some(StepInput::Llm(resp));
                }
                LlmOutcome::Failed {
                    req,
                    error,
                    latency_ms,
                } => {
                    let slot = &mut self.jobs[id];
                    slot.llm_virtual_ms += latency_ms;
                    if matches!(error, DispatchError::AllBackendsDown) {
                        // Nothing to retry against — fail the job now
                        // so a total outage drains instead of hanging.
                        failed.push((id, format!("llm dispatch failed: {error}")));
                        continue;
                    }
                    slot.llm_attempts += 1;
                    let over_deadline = self
                        .opts
                        .deadline_ms
                        .is_some_and(|d| slot.llm_virtual_ms > d);
                    if over_deadline {
                        failed.push((
                            id,
                            format!(
                                "deadline exceeded: {}ms of virtual LLM latency after {error}",
                                slot.llm_virtual_ms
                            ),
                        ));
                    } else if slot.llm_attempts > self.opts.llm_retry_budget {
                        failed.push((
                            id,
                            format!(
                                "llm retry budget exhausted after {} dispatches: {error}",
                                slot.llm_attempts
                            ),
                        ));
                    } else {
                        // Re-park the unanswered request; the restored
                        // sweep re-enqueues it at the next wave
                        // boundary.
                        slot.pending = Some(PendingWork::Llm(req));
                        self.restored.push(id);
                    }
                }
            }
        }
        // Mirror the service's monotone resilience totals into the
        // engine stats (absolute assignment — these are totals).
        let c = self.service.resilience();
        self.stats.retries = c.retries;
        self.stats.hedges = c.hedges;
        self.stats.rate_limit_defers = c.rate_limit_defers;
        self.stats.failovers = c.failovers;
        self.fail_jobs(failed);
    }

    /// Finish `failed` jobs with a structured failure outcome: the
    /// job's partial trace is completed via [`SolveJob::fail`], counted
    /// in `jobs_done`/`jobs_failed`, and the slot retires exactly like
    /// a success — a drained engine's report is complete either way.
    fn fail_jobs(&mut self, failed: Vec<(JobId, String)>) {
        if failed.is_empty() {
            return;
        }
        let mut retired: Vec<JobId> = Vec::new();
        for (id, reason) in failed {
            let slot = &mut self.jobs[id];
            let JobPhase::Running(job) = &mut slot.phase else {
                continue;
            };
            let trace = job.fail(reason);
            self.stats.jobs_done += 1;
            self.stats.jobs_failed += 1;
            self.stats.total_usage += trace.usage;
            slot.stop_clock();
            slot.latency = Some(slot.accrued);
            slot.phase = JobPhase::Done(trace);
            retired.push(id);
        }
        self.retire(retired);
    }

    /// Is there anything a further step could do?
    pub(crate) fn progress_possible(&self) -> bool {
        if !self.wave.llm_q.is_empty()
            || !self.wave.sim_q.is_empty()
            || self.wave.inflight.is_some()
            || !self.restored.is_empty()
        {
            return true;
        }
        if self.intake.as_ref().is_some_and(|i| i.has_queued()) {
            return true;
        }
        let can_advance = self.live.iter().any(|&id| {
            let j = &self.jobs[id];
            !j.paused && matches!(j.phase, JobPhase::Running(_)) && j.input.is_some()
        });
        if can_advance {
            return true;
        }
        let can_admit = self.live.iter().any(|&id| {
            let j = &self.jobs[id];
            !j.paused && matches!(j.phase, JobPhase::Queued)
        });
        can_admit && self.running < self.admission_cap()
    }

    /// Run steps until no further progress is possible (all jobs
    /// retired, parked, or paused), returning the stats. If a streaming
    /// [`ServeEngine::intake`] exists, an idle engine instead parks on
    /// it and resumes on the next submission, returning only once the
    /// intake is closed and drained.
    pub fn run(&mut self) -> &ServeStats {
        let t0 = Instant::now();
        loop {
            while self.step() {}
            match &self.intake {
                Some(intake) if intake.wait_for_work() => continue,
                _ => break,
            }
        }
        self.wall += t0.elapsed();
        &self.stats
    }

    /// Aggregate the engine's counters, cache statistics and latency
    /// distribution into a [`ServeReport`].
    pub fn report(&self) -> ServeReport {
        let latencies: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.latency)
            .map(|d| d.as_secs_f64())
            .collect();
        let wall_s = self.wall.as_secs_f64();
        ServeReport {
            jobs: self.jobs.len(),
            done: self.stats.jobs_done,
            failed: self.stats.jobs_failed,
            stats: self.stats.clone(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_collisions: self.cache.collisions(),
            score_hits: self.scores.hits(),
            score_misses: self.scores.misses(),
            score_collisions: self.scores.collisions(),
            score_shortcircuits: 0,
            unit_hits: self.units.hits(),
            unit_misses: self.units.misses(),
            unit_collisions: self.units.collisions(),
            wall_s,
            jobs_per_sec: if wall_s > 0.0 {
                self.stats.jobs_done as f64 / wall_s
            } else {
                0.0
            },
            mean_latency_s: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max_latency_s: latencies.iter().cloned().fold(0.0, f64::max),
        }
    }
}

impl<S: LlmService> Drop for ServeEngine<S> {
    /// Never leak a background sim wave: a driver that stops stepping
    /// mid-wave (or unwinds out of a step) must not leave a detached
    /// thread crunching a whole sim batch against the shared caches.
    fn drop(&mut self) {
        if let Some(handle) = self.wave.inflight.take() {
            let _ = handle.join();
        }
    }
}

/// The fault-key salt of one job request: a mix of the job's model
/// seed and the request's per-job sequence number. Pure in those two
/// coordinates — so it is identical across schedules and worker counts,
/// and survives checkpoints (both inputs are checkpoint freight) —
/// while decorrelating textually identical prompts emitted by different
/// jobs or at different points of one solve.
pub(crate) fn fault_salt(seed: u64, seq: u64) -> u64 {
    seed.rotate_left(32) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A17_F001
}

/// Run one batch of sim requests on `workers` pool threads, resolving
/// each through the score cache (scoring requests) and the design cache,
/// whose misses delta-compile against the request's parent design and
/// the unit tier. Pure per item, so results are identical at any worker
/// count; outcomes return in input order.
pub(crate) fn run_sim_batch(
    workers: usize,
    cache: &Arc<DesignCache>,
    scores: &Arc<ScoreCache>,
    units: &Arc<UnitCache>,
    batch: Vec<(JobId, SimRequest)>,
) -> Vec<(JobId, SimOutcome)> {
    let cache = Arc::clone(cache);
    let scores = Arc::clone(scores);
    let units = Arc::clone(units);
    rayon::scoped_map(workers, batch, move |(id, req)| {
        let outcome = scores.get_or_run(&req, |req| {
            execute_sim_with(req, |src| {
                cache.get_or_compile(src, req.parent.as_ref(), &units)
            })
        });
        (id, outcome)
    })
}
