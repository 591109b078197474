//! The overlapped wave scheduler: per-need queues and sim waves that
//! drain on the worker pool *while* the foreground thread dispatches
//! LLM batches — sim latency hides under LLM latency instead of
//! alternating with it.
//!
//! # One wave iteration
//!
//! ```text
//!   1. boundary   drain the streaming intake; re-enqueue restored
//!                 checkpoints' parked requests; admit queued jobs
//!   2. advance    every job holding a resolved input advances once
//!                 (job order); new needs park in `llm_q` / `sim_q`
//!   3. coalesce   if the in-flight sim wave blocks more jobs than the
//!                 LLM queue holds, join it and advance the returning
//!                 cohort now, merging its requests into this step's
//!                 batch — racing ahead would cut straggler batches
//!                 the blocked majority can no longer join (wave
//!                 dispatch economics must never be worse than a
//!                 barrier's that dispatches every job's k-th request
//!                 together)
//!   4. launch     if the sim pool is idle and `sim_q` is non-empty,
//!                 the whole queue leaves as one background sim wave
//!   5. dispatch   if `llm_q` is non-empty, cut it as one LLM batch
//!                 (the sim wave keeps crunching underneath — that is
//!                 the overlap); otherwise join the in-flight wave and
//!                 route its outcomes
//! ```
//!
//! # Why this stays deterministic
//!
//! Every decision above is a pure function of job states and queue
//! contents — never of thread timing. The background wave is *joined*
//! only at deterministically chosen points (an empty LLM queue, a
//! checkpoint), not polled for completion; `scoped_map` returns
//! outcomes in input order; and simulation itself is pure. So the
//! schedule — which requests coalesce into which batch, and in which
//! order — is identical at any worker count, and with per-job models
//! every trace is bit-identical to the job's solo `Mage::solve` (the
//! determinism suite sweeps exactly this).

use crate::scheduler::{run_sim_batch, JobId, JobPhase, ServeEngine};
use crate::service::LlmService;
use mage_core::solvejob::{PendingWork, SimOutcome, StepInput};
use std::collections::VecDeque;
use std::thread::JoinHandle;

/// The wave scheduler's queues and in-flight sim work.
#[derive(Default)]
pub(crate) struct WaveState {
    /// Jobs whose parked request awaits the next LLM dispatch point
    /// (FIFO across iterations; job order within one).
    pub(crate) llm_q: VecDeque<JobId>,
    /// Jobs whose parked request awaits the next sim wave.
    pub(crate) sim_q: VecDeque<JobId>,
    /// The background sim wave, if one is crunching.
    pub(crate) inflight: Option<JoinHandle<Vec<(JobId, SimOutcome)>>>,
    /// How many jobs are blocked on `inflight` (its batch size) — the
    /// coalescing heuristic compares this against the LLM queue.
    pub(crate) inflight_count: usize,
}

impl<S: LlmService> ServeEngine<S> {
    /// Execute one wave iteration (see the module docs for the phases).
    /// Returns `true` while a further step could make progress —
    /// `false` means every job is retired, parked or paused, and
    /// nothing is queued or in flight.
    pub fn step(&mut self) -> bool {
        let mut did_work = false;

        // 1. Wave boundary: intake, restored checkpoints, admission.
        self.drain_intake();
        for id in std::mem::take(&mut self.restored) {
            match &self.jobs[id].pending {
                Some(PendingWork::Llm(_)) => self.wave.llm_q.push_back(id),
                Some(PendingWork::Sim(_)) => self.wave.sim_q.push_back(id),
                None => continue,
            }
            did_work = true;
        }
        did_work |= self.admit() > 0;

        // 2. Advance every job holding an input, in job order. New
        //    needs park in the wave queues (the request is stored on
        //    the job's slot so a checkpoint can carry it away).
        let mut retired: Vec<JobId> = Vec::new();
        did_work |= self.advance_ready(&mut retired);

        // 3. Coalescing join: when the in-flight wave blocks more jobs
        //    than the LLM queue holds, racing ahead would cut a small
        //    straggler batch that the blocked majority's next requests
        //    can no longer join — worse dispatch economics than a
        //    barrier for no hiding gain (the wave already overlapped
        //    earlier dispatches). Join it now and advance the returning
        //    cohort immediately, so its requests merge into *this*
        //    step's batch and the next wave launches under this step's
        //    dispatch. The decision reads only queue sizes —
        //    deterministic, never a poll.
        let sim_side = self.wave.inflight_count + self.wave.sim_q.len();
        if self.wave.inflight.is_some() && self.wave.llm_q.len() <= sim_side {
            self.join_inflight_wave();
            self.advance_ready(&mut retired);
            did_work = true;
        }
        self.retire(retired);

        // 4. Launch: an idle pool takes the whole sim queue as one
        //    background wave.
        if self.wave.inflight.is_none() && !self.wave.sim_q.is_empty() {
            let ids = std::mem::take(&mut self.wave.sim_q);
            let batch = self.take_queued(ids, |work| match work {
                PendingWork::Sim(req) => req,
                PendingWork::Llm(_) => unreachable!("sim_q holds only sim requests"),
            });
            self.stats.sim_requests += batch.len();
            self.stats.sim_waves += 1;
            self.wave.inflight_count = batch.len();
            let workers = self.opts.workers;
            let cache = std::sync::Arc::clone(&self.cache);
            let scores = std::sync::Arc::clone(&self.scores);
            let units = std::sync::Arc::clone(&self.units);
            self.wave.inflight = Some(std::thread::spawn(move || {
                run_sim_batch(workers, &cache, &scores, &units, batch)
            }));
            did_work = true;
        }

        // 5. Dispatch point: cut an LLM batch whenever the queue is
        //    non-empty — the in-flight sim wave keeps crunching under
        //    the dispatch (the overlap). Only an empty LLM queue joins
        //    the wave.
        if !self.wave.llm_q.is_empty() {
            let ids = std::mem::take(&mut self.wave.llm_q);
            let batch = self.take_queued(ids, |work| match work {
                PendingWork::Llm(req) => req,
                PendingWork::Sim(_) => unreachable!("llm_q holds only LLM requests"),
            });
            if self.wave.inflight.is_some() {
                self.stats.overlap_steps += 1;
            }
            self.dispatch_llm(batch);
            did_work = true;
        } else if self.join_inflight_wave() {
            did_work = true;
        }

        if did_work {
            self.stats.rounds += 1;
        }
        self.progress_possible()
    }

    /// Advance every unpaused running job holding a resolved input, in
    /// job order, parking each new need in its wave queue and moving
    /// finished jobs to `Done` (collected into `retired` for a single
    /// retire sweep). Returns `true` if anything advanced.
    fn advance_ready(&mut self, retired: &mut Vec<JobId>) -> bool {
        let mut advanced = false;
        for ix in 0..self.live.len() {
            let id = self.live[ix];
            let slot = &mut self.jobs[id];
            if slot.paused {
                continue;
            }
            if !matches!(slot.phase, JobPhase::Running(_)) {
                continue;
            }
            let Some(input) = slot.input.take() else {
                continue;
            };
            slot.start_clock();
            let JobPhase::Running(job) = &mut slot.phase else {
                unreachable!("checked above");
            };
            advanced = true;
            match job.advance(input).into_pending() {
                Ok(work) => {
                    match &work {
                        PendingWork::Llm(_) => {
                            // Emit-time sequence bump (the fault-key
                            // salt's coordinate); a re-park or restored
                            // sweep never bumps.
                            slot.llm_seq += 1;
                            self.wave.llm_q.push_back(id);
                        }
                        PendingWork::Sim(_) => self.wave.sim_q.push_back(id),
                    }
                    slot.pending = Some(work);
                }
                Err(trace) => {
                    self.stats.jobs_done += 1;
                    self.stats.total_usage += trace.usage;
                    slot.stop_clock();
                    slot.latency = Some(slot.accrued);
                    slot.phase = JobPhase::Done(trace);
                    retired.push(id);
                }
            }
        }
        advanced
    }

    /// Pull the parked requests of `ids` off their slots.
    fn take_queued<R>(
        &mut self,
        ids: VecDeque<JobId>,
        unwrap: fn(PendingWork) -> R,
    ) -> Vec<(JobId, R)> {
        ids.into_iter()
            .map(|id| {
                let work = self.jobs[id]
                    .pending
                    .take()
                    .expect("queued job holds its parked request");
                (id, unwrap(work))
            })
            .collect()
    }

    /// Join the background sim wave, if any, routing every outcome to
    /// its job's input slot. Returns `true` if a wave was joined.
    pub(crate) fn join_inflight_wave(&mut self) -> bool {
        let Some(handle) = self.wave.inflight.take() else {
            return false;
        };
        self.wave.inflight_count = 0;
        let outcomes = handle.join().expect("sim wave worker panicked");
        for (id, outcome) in outcomes {
            let slot = &mut self.jobs[id];
            debug_assert!(slot.input.is_none(), "sim wave answered job {id} twice");
            slot.input = Some(StepInput::Sim(outcome));
        }
        true
    }
}
