//! One fleet shard: a [`ServeEngine`] owned by a dedicated OS thread,
//! driven by the controller over a command channel.
//!
//! The shard thread is a plain message loop — it never makes a
//! scheduling decision of its own. Every command is answered with
//! exactly one reply, and the controller's barrier (send `Steps` to
//! every shard, then collect every pulse) is what lets shards crunch
//! their engine steps in parallel while keeping all *decisions* on the
//! controller's deterministic timeline.

use mage_core::SolveTrace;
use mage_llm::HealthSnapshot;
use mage_serve::{JobCheckpoint, JobSpec, LlmService, ServeEngine, ServeReport};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The shared job roster a roster-based service factory reads: local
/// job id → `(problem_id, seed)`. The shard thread appends an entry
/// immediately before every push or restore, so by the time any
/// service factory runs for local job `i`, `get(i)` is populated —
/// this is what lets one shard serve jobs it never saw specs for
/// (migrated checkpoints included) without a pre-sized spec table.
#[derive(Debug, Clone, Default)]
pub struct JobRoster(Arc<Mutex<Vec<(String, u64)>>>);

impl JobRoster {
    /// An empty roster.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(problem_id, seed)` of local job `ix`, when registered.
    pub fn get(&self, ix: usize) -> Option<(String, u64)> {
        self.0.lock().expect("roster poisoned").get(ix).cloned()
    }

    /// Entries registered so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("roster poisoned").len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&self, problem_id: String, seed: u64) {
        self.0
            .lock()
            .expect("roster poisoned")
            .push((problem_id, seed));
    }
}

/// A controller → shard command.
pub(crate) enum ShardCmd {
    /// Queue a job (the shard admits it at its next step boundary).
    Push { fleet_job: usize, spec: JobSpec },
    /// Run one engine step; reply with a [`ShardPulse`].
    Step,
    /// Lift `fleet_job` out (reply `None` if it is not running).
    Checkpoint { fleet_job: usize },
    /// Lift every running job out (the drain path).
    Drain,
    /// Insert a migrated checkpoint, merging `health` first.
    Restore {
        fleet_job: usize,
        ck: Box<JobCheckpoint>,
        health: Option<HealthSnapshot>,
    },
    /// Final collection; the thread replies and exits.
    Finish,
}

/// One running job as the controller sees it at a barrier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunningJob {
    pub fleet_job: usize,
    /// The job's own advance count — its position on its private
    /// timeline, used for deterministic migration-victim selection.
    pub advances: u64,
}

/// A shard's deterministic state snapshot after one `Step`.
#[derive(Debug, Clone)]
pub(crate) struct ShardPulse {
    /// Whether a further step could make progress.
    pub progress: bool,
    /// Jobs still queued or running (the router's load signal).
    pub live: usize,
    /// Jobs currently in flight, in local job order.
    pub running: Vec<RunningJob>,
}

/// A lifted job: the checkpoint plus the source service's health.
pub(crate) struct LiftedJob {
    pub fleet_job: usize,
    pub ck: Box<JobCheckpoint>,
    pub health: Option<HealthSnapshot>,
}

/// Everything a finishing shard hands back.
pub(crate) struct ShardFinal {
    pub report: ServeReport,
    /// Completed traces keyed by *fleet* job id.
    pub traces: Vec<(usize, SolveTrace)>,
    pub health: Option<HealthSnapshot>,
}

/// A shard → controller reply.
pub(crate) enum ShardReply {
    Pulse(ShardPulse),
    Pushed,
    Checkpointed(Option<Box<LiftedJob>>),
    Drained {
        jobs: Vec<LiftedJob>,
        live_after: usize,
    },
    Restored,
    Finished(Box<ShardFinal>),
}

/// The controller-side handle of one shard thread.
pub(crate) struct ShardHandle {
    pub cmd: Sender<ShardCmd>,
    pub reply: Receiver<ShardReply>,
    pub thread: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Send one command and wait for its reply. Panics if the shard
    /// thread died — a shard cannot fail independently in-process.
    pub fn call(&self, cmd: ShardCmd) -> ShardReply {
        self.cmd.send(cmd).expect("shard thread gone");
        self.reply.recv().expect("shard thread gone")
    }

    /// Send without waiting (the barrier path: sends fan out first,
    /// replies are collected afterwards so shards step in parallel).
    pub fn send(&self, cmd: ShardCmd) {
        self.cmd.send(cmd).expect("shard thread gone");
    }

    /// Collect the next reply (the barrier's second half).
    pub fn recv(&self) -> ShardReply {
        self.reply.recv().expect("shard thread gone")
    }

    /// Join the thread (after a `Finish` reply, or at teardown).
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The shard thread's message loop. Owns the engine and the local →
/// fleet id maps; exits when `Finish` arrives or the controller hangs
/// up (dropping the command sender).
pub(crate) fn shard_main<S: LlmService>(
    mut engine: ServeEngine<S>,
    roster: JobRoster,
    rx: Receiver<ShardCmd>,
    tx: Sender<ShardReply>,
) {
    // Local job id → fleet job id (push/restore order), and the live
    // reverse map (entries leave on checkpoint).
    let mut fleet_of: Vec<usize> = Vec::new();
    let mut local_of: HashMap<usize, usize> = HashMap::new();

    let lift = |engine: &mut ServeEngine<S>, fleet_job: usize, local: usize| -> Box<LiftedJob> {
        let ck = engine
            .checkpoint(local)
            .expect("lift called on a non-running job");
        Box::new(LiftedJob {
            fleet_job,
            ck: Box::new(ck),
            health: engine.service().health(),
        })
    };

    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            ShardCmd::Push { fleet_job, spec } => {
                roster.push(spec.problem_id.clone(), spec.seed);
                let local = engine.push_job(spec);
                debug_assert_eq!(local + 1, roster.len(), "roster misaligned");
                assert_eq!(local, fleet_of.len(), "local ids must be dense");
                fleet_of.push(fleet_job);
                local_of.insert(fleet_job, local);
                ShardReply::Pushed
            }
            ShardCmd::Step => {
                let progress = engine.step();
                let running = engine
                    .running_jobs()
                    .into_iter()
                    .map(|(local, advances, _)| RunningJob {
                        fleet_job: fleet_of[local],
                        advances,
                    })
                    .collect();
                ShardReply::Pulse(ShardPulse {
                    progress,
                    live: engine.live_jobs(),
                    running,
                })
            }
            ShardCmd::Checkpoint { fleet_job } => {
                let lifted = local_of.get(&fleet_job).copied().and_then(|local| {
                    if engine.running_jobs().iter().any(|&(l, _, _)| l == local) {
                        local_of.remove(&fleet_job);
                        Some(lift(&mut engine, fleet_job, local))
                    } else {
                        None
                    }
                });
                ShardReply::Checkpointed(lifted)
            }
            ShardCmd::Drain => {
                // Lift every running job, in local-id order (the order
                // is part of the deterministic record).
                let mut jobs = Vec::new();
                for (local, _, _) in engine.running_jobs() {
                    let fleet_job = fleet_of[local];
                    local_of.remove(&fleet_job);
                    jobs.push(*lift(&mut engine, fleet_job, local));
                }
                ShardReply::Drained {
                    jobs,
                    live_after: engine.live_jobs(),
                }
            }
            ShardCmd::Restore {
                fleet_job,
                ck,
                health,
            } => {
                if let Some(h) = health {
                    // Weighted merge: the target keeps its own EMAs and
                    // gains the source shard's (see Dispatcher docs).
                    engine.service_mut().import_health(h);
                }
                roster.push(ck.spec.problem_id.clone(), ck.spec.seed);
                let local = engine.restore(*ck);
                debug_assert_eq!(local + 1, roster.len(), "roster misaligned");
                assert_eq!(local, fleet_of.len(), "local ids must be dense");
                fleet_of.push(fleet_job);
                local_of.insert(fleet_job, local);
                ShardReply::Restored
            }
            ShardCmd::Finish => {
                let traces = engine
                    .traces()
                    .into_iter()
                    .map(|(local, trace)| (fleet_of[local], trace.clone()))
                    .collect();
                let final_ = ShardFinal {
                    report: engine.report(),
                    traces,
                    health: engine.service().health(),
                };
                let _ = tx.send(ShardReply::Finished(Box::new(final_)));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}
