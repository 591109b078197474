//! The four-state cycle/event simulator.
//!
//! # Scheduling
//!
//! The default scheduler is a **two-region event wheel**:
//!
//! * **Active region** — combinational processes with a pending
//!   input-change event. Every signal change (poke, blocking write
//!   inside a sequential body, NBA commit) enqueues exactly the
//!   processes whose compiled bytecode reads that signal
//!   ([`crate::compile::CompiledDesign::comb_readers`]); the region
//!   drains to a fixpoint with net-change detection, so a process that
//!   reads what it writes settles when its output is stable.
//! * **NBA region** — non-blocking writes queued by the sequential
//!   processes an edge triggered. Commits happen as a wave; each
//!   committed transition is classified into the unique posedge/negedge
//!   it makes and dispatched through the per-edge trigger lists
//!   [`Design::triggers`] computed at elaboration — no per-step scan of
//!   any process's sensitivity list. Commit waves cascade (clock
//!   dividers) up to [`CASCADE_LIMIT`] rounds before the active region
//!   runs.
//!
//! Events persist between calls: at time zero every combinational
//! process carries an initial event (the all-`X` evaluation), and
//! [`Simulator::settle`] *drains* pending events rather than
//! re-evaluating the whole design — a settled simulator re-settles in
//! O(1). Pokes drive only the fanout of the signals that actually
//! changed, so toggling one clock of a multi-clock design never touches
//! the other domain.
//!
//! The wheel steps on borrowed state. Each wheel entry point (a poke,
//! a batched poke, a drain) builds one private view in place: shared
//! borrows of the [`Design`] and its [`CompiledDesign`], exclusive
//! borrows of the register files, store, wheel, counters and coverage
//! map. Both regions and the compiled body dispatch run through it. The
//! rule: the wheel path takes no `Arc` clone and moves no `Wheel`. A
//! bench run pokes, drains and peeks a few times per step, so a
//! refcount pair or a struct move there is paid on every step of every
//! bench.
//!
//! # Lazy combinational evaluation
//!
//! Pokes are *lazy*: a drive whose transition fires no edge-triggered
//! process updates the store and enqueues its combinational fanout
//! without draining — the active region flushes at the next observation
//! point ([`Simulator::peek`]/[`Simulator::peek_by_name`], which take
//! `&mut self` for exactly this reason, or [`Simulator::settle`]) or
//! immediately before the next real clock edge (so flops always sample
//! the same settled pre-edge state an eager scheduler would have
//! produced). Poking a step's data drives one by one then reading an
//! output therefore settles the shared fanout once instead of once per
//! drive. Both schedulers implement the identical deferral rule, so the
//! lockstep suites stay store-exact at every observation point.
//!
//! A flush that faults (combinational loop, edge cascade) *latches*:
//! the error is reported by the call that discovered it (or swallowed
//! and latched, when that call was a `peek` — peeks must return a
//! value), and reads freeze at the fault-time store until the next
//! poke or [`Simulator::settle`] clears the latch and re-attempts the
//! pending work. A standing fault re-reports there; driving the input
//! that broke the loop recovers, exactly as under eager evaluation.
//!
//! # The three-executor stack
//!
//! Process bodies execute on one of three executors:
//!
//! 1. **Legacy** ([`ExecMode::Legacy`] / `MAGE_SIM_EXEC=legacy`) — the
//!    pre-wheel scheduler (full-scan edge dispatch + a per-call
//!    worklist seeded after the fact) driving the tree-walking
//!    evaluator: the differential oracle, kept verbatim.
//! 2. **Four-state compiled** — the bytecode interpreter's `LogicVec`
//!    loop on the event wheel, full `X`/`Z` propagation at any width.
//!    Every compiled evaluation that can see an `X`/`Z` runs here, and
//!    so does every evaluation of a process with no plan.
//! 3. **Plans** (the default dispatch inside [`ExecMode::Compiled`]) —
//!    when a process with an evaluation plan ([`crate::plan`]) has a
//!    fully defined read set, its plan runs over bare aval words,
//!    skipping all bval-plane masking/merging (the Verilator
//!    two-state model). The gate is per evaluation: the all-`X` boot
//!    state runs four-state until the first defined store, an `X`/`Z`
//!    poked into a read demotes exactly the processes that read it, and
//!    the two mid-run hazards (an out-of-range dynamic bit select, a
//!    zero divisor) bail, rewind, and re-run four-state — completed
//!    plan runs are store-exact by construction. Plans are on for
//!    every compiled simulator; [`Simulator::set_two_state`] turns
//!    them off per simulator, which is how tests reach the four-state
//!    reference. `EvalCounts::two_state_evals` /
//!    `two_state_fallbacks` account for every evaluation of a process
//!    with a plan.
//!
//! The corpus lockstep suites (`tests/compiled_vs_interp_corpus.rs`,
//! `crates/sim/tests/{event_wheel,two_state}.rs`) hold the default
//! compiled simulator, its four-state reference and the legacy
//! executor store-exact after every poke.

use crate::compile::CompiledDesign;
use crate::design::{Design, Process, SignalId};
use crate::error::SimError;
use crate::eval::{apply_write, exec, PendingWrite, Store};
use crate::interp;
use mage_logic::{LogicBit, LogicVec};
use mage_verilog::ast::Edge;
use std::collections::VecDeque;
use std::sync::Arc;

/// Upper bound on combinational fixpoint iterations per settle.
const SETTLE_LIMIT_FACTOR: usize = 64;
/// Upper bound on NBA-commit → edge-trigger cascade rounds.
const CASCADE_LIMIT: usize = 64;

/// IEEE-1364 edge detection on the LSB of a changing signal.
fn is_edge(edge: Edge, old: LogicBit, new: LogicBit) -> bool {
    let (old, new) = (old.normalized(), new.normalized());
    if old == new {
        return false;
    }
    match edge {
        // posedge: 0→1, 0→X, X→1
        Edge::Pos => old == LogicBit::Zero || new == LogicBit::One,
        // negedge: 1→0, 1→X, X→0
        Edge::Neg => old == LogicBit::One || new == LogicBit::Zero,
    }
}

/// Classify a changing LSB into the unique edge it makes (`None` when
/// the normalized value is unchanged). Under [`is_edge`]'s rules a
/// change is a posedge or a negedge, never both, so the wheel can
/// dispatch one per-edge trigger list per transition.
fn edge_kind(old: LogicBit, new: LogicBit) -> Option<Edge> {
    let (old, new) = (old.normalized(), new.normalized());
    if old == new {
        None
    } else if old == LogicBit::Zero || new == LogicBit::One {
        Some(Edge::Pos)
    } else {
        Some(Edge::Neg)
    }
}

/// Scheduler work counters of one simulator instance (cumulative; see
/// [`Simulator::eval_counts`]). The perf harness records these per
/// step/edge to make scheduling regressions visible next to wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Combinational process body executions.
    pub comb_evals: u64,
    /// Sequential (edge-triggered) process body executions.
    pub seq_evals: u64,
    /// Processes examined for edge sensitivity on a signal change. The
    /// legacy scheduler scans every process sensitized to the signal in
    /// either direction; the wheel indexes the matching per-edge trigger
    /// list, so every probe it pays for is an actual trigger.
    pub edge_probes: u64,
    /// Process body executions completed on a plan (two-state, over
    /// bare aval words) — a subset of `comb_evals + seq_evals`. Zero in
    /// legacy mode and after [`Simulator::set_two_state`]`(false)`.
    pub two_state_evals: u64,
    /// Executions of processes with a plan that ran four-state anyway:
    /// an `X`/`Z` in the read set at dispatch (including the all-`X`
    /// boot state) or a mid-run bail (an out-of-range dynamic bit
    /// select, a zero divisor). `two_state_evals` growing while this
    /// stays flat is the defined-steady-state signature; the proptest
    /// suite uses the pair to assert fallback *and* recovery.
    pub two_state_fallbacks: u64,
    /// Plan opcodes retired across all `two_state_evals`.
    pub plan_steps: u64,
    /// Source bytecode instructions those plan opcodes covered.
    /// `plan_steps < plan_unfused_steps` is the fusion win in dispatch
    /// economics, independent of wall clock.
    pub plan_unfused_steps: u64,
    /// Cascade plans this simulator's design dropped in its delta
    /// rebuild ([`crate::CompiledDesign::invalidated_plans`], seeded at
    /// construction; 0 for scratch-compiled designs and in legacy
    /// mode). [`Simulator::reset_eval_counts`] clears the seed along
    /// with the runtime counters.
    pub plan_invalidations: u64,
}

impl EvalCounts {
    /// Total process body executions (both kinds).
    pub fn total_evals(&self) -> u64 {
        self.comb_evals + self.seq_evals
    }
}

/// An instance of a design being simulated.
///
/// The simulator owns a value store (one [`LogicVec`] per signal, all `X`
/// at time zero, like an event-driven simulator's un-reset state),
/// executes edge-triggered processes with non-blocking-assignment
/// semantics, and settles combinational processes to a fixpoint after
/// every disturbance (see the module docs for the event wheel).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mage_logic::LogicVec;
/// use mage_sim::{elaborate, Simulator};
///
/// let file = mage_verilog::parse(
///     "module top(input a, input b, output y); assign y = a & b; endmodule",
/// ).unwrap();
/// let design = Arc::new(elaborate(&file, "top")?);
/// let mut sim = Simulator::new(design);
/// sim.settle().unwrap();
/// sim.poke("a", LogicVec::from_bool(true)).unwrap();
/// sim.poke("b", LogicVec::from_bool(true)).unwrap();
/// assert_eq!(sim.peek_by_name("y").unwrap().to_u64(), Some(1));
/// # Ok::<(), mage_sim::ElabError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The design; compiled mode runs its bytecode
    /// ([`Design::compiled`], built once per design and shared by every
    /// simulator over it). Legacy mode never asks for the bytecode, so
    /// the oracle does not pay for (or depend on) the lowering.
    design: Arc<Design>,
    /// Per-process register files, reused across executions.
    regs: Vec<interp::RegFile>,
    store: Store,
    mode: ExecMode,
    /// Plan dispatch enable (compiled mode; on by default, off after
    /// [`Simulator::set_two_state`]`(false)` — the hook the
    /// differential suites use to hold the plans against the
    /// four-state reference).
    two_state: bool,
    /// Wheel scheduler state (the default path).
    wheel: Wheel,
    /// Oracle scheduler state (`ExecMode::Legacy` only).
    legacy: Option<Box<LegacySched>>,
    /// Latched propagation fault from a deferred flush (see the module
    /// docs): peeks freeze the store under it; the next poke or
    /// `settle` clears it and re-attempts the pending work.
    fault: Option<SimError>,
    counts: EvalCounts,
    /// Fuzz-coverage sink ([`crate::coverage`]): `None` (the default)
    /// costs one branch per body execution; the `mage-fuzz` lockstep
    /// oracles enable it to record dynamic behavior features (execution
    /// outcomes, bail reasons, cascade dispatches).
    coverage: Option<Box<crate::FuzzCoverage>>,
}

/// The two-region event wheel. `active`/`triggered` carry pending
/// events between calls; the remaining buffers are pooled scratch,
/// empty (or all-`false`/`None`) between drains.
#[derive(Debug, Clone, Default)]
struct Wheel {
    /// Active region: comb processes with a pending input-change event.
    active: VecDeque<usize>,
    in_active: Vec<bool>,
    /// Seq processes triggered by a not-yet-drained edge.
    triggered: Vec<usize>,
    in_triggered: Vec<bool>,
    /// NBA-region scratch.
    nba: Vec<PendingWrite>,
    changed: Vec<SignalId>,
    /// Pre-commit LSB snapshots (all-`None` between waves).
    olds: Vec<Option<LogicBit>>,
    /// Net-change snapshot of a comb run's write set.
    before: Vec<LogicVec>,
    scratch: Vec<SignalId>,
}

impl Wheel {
    /// Enqueue the comb fanout of a changed signal on the active region.
    #[inline]
    fn comb_fanout(&mut self, compiled: &CompiledDesign, sig: SignalId) {
        for &p in compiled.comb_readers(sig) {
            let p = p as usize;
            if !self.in_active[p] {
                self.in_active[p] = true;
                self.active.push_back(p);
            }
        }
    }

    /// Classify a transition and enqueue its per-edge trigger list.
    #[inline]
    fn edge_triggers(
        &mut self,
        design: &Design,
        counts: &mut EvalCounts,
        sig: SignalId,
        old_bit: LogicBit,
        new_bit: LogicBit,
    ) {
        classify_edge_triggers(
            design,
            counts,
            &mut self.in_triggered,
            &mut self.triggered,
            sig,
            old_bit,
            new_bit,
        );
    }
}

/// Classify a transition into its unique edge and enqueue the per-edge
/// trigger list on `out` (deduped through `in_triggered`). One body for
/// both enqueue sites — poke-driven edges and NBA-commit-driven edges
/// must never drift in classification or probe accounting.
#[inline]
fn classify_edge_triggers(
    design: &Design,
    counts: &mut EvalCounts,
    in_triggered: &mut [bool],
    out: &mut Vec<usize>,
    sig: SignalId,
    old_bit: LogicBit,
    new_bit: LogicBit,
) {
    if let Some(edge) = edge_kind(old_bit, new_bit) {
        let list = design.triggers(edge, sig);
        counts.edge_probes += list.len() as u64;
        for &p in list {
            let p = p as usize;
            if !in_triggered[p] {
                in_triggered[p] = true;
                out.push(p);
            }
        }
    }
}

/// The pre-wheel scheduler, kept verbatim as the differential oracle:
/// dense dependency tables scanned per change, with the comb worklist
/// seeded from the accumulated change list after each disturbance.
#[derive(Debug, Clone)]
struct LegacySched {
    /// signal index -> comb process indices reading it
    comb_deps: Vec<Vec<usize>>,
    /// signal index -> seq process indices with an edge on it
    edge_deps: Vec<Vec<usize>>,
    /// Pooled worklist scratch — pokes arrive thousands of times per
    /// grading run, so the settle loop must not allocate per call.
    wl: Worklist,
    /// `true` once the time-zero events have run (first settle or first
    /// propagating poke). Until then a poke settles *every* comb
    /// process, matching the wheel's pending time-zero events — Verilog
    /// time-zero semantics, and what keeps the two schedulers
    /// store-exact when a caller pokes before the first `settle`.
    booted: bool,
    /// Signals changed by deferred (edge-free) pokes, not yet settled —
    /// the legacy mirror of the wheel's pending active region.
    pending: Vec<SignalId>,
}

impl LegacySched {
    fn build(design: &Design) -> Self {
        // Dense dependency tables indexed by `SignalId::index()`, deduped
        // with a per-process stamp.
        let nsig = design.signals.len();
        let mut comb_deps: Vec<Vec<usize>> = vec![Vec::new(); nsig];
        let mut edge_deps: Vec<Vec<usize>> = vec![Vec::new(); nsig];
        let mut stamp: Vec<usize> = vec![usize::MAX; nsig];
        for (i, p) in design.processes.iter().enumerate() {
            match p {
                Process::Comb { reads, .. } => {
                    for &r in reads {
                        if stamp[r.index()] != i {
                            stamp[r.index()] = i;
                            comb_deps[r.index()].push(i);
                        }
                    }
                }
                Process::Seq { edges, .. } => {
                    for &(_, s) in edges {
                        if stamp[s.index()] != i {
                            stamp[s.index()] = i;
                            edge_deps[s.index()].push(i);
                        }
                    }
                }
            }
        }
        LegacySched {
            comb_deps,
            edge_deps,
            wl: Worklist::default(),
            booted: false,
            pending: Vec::new(),
        }
    }
}

/// Reusable scratch buffers of the legacy settle/cascade loops. All
/// buffers are empty (or all-false) between calls.
#[derive(Debug, Clone, Default)]
struct Worklist {
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
    before: Vec<LogicVec>,
    nba: Vec<PendingWrite>,
    scratch: Vec<SignalId>,
    init: Vec<usize>,
    /// Cascade dedup flags (all-false between calls).
    in_triggered: Vec<bool>,
    /// Cascade pre-commit LSB snapshots (all-`None` between calls).
    olds: Vec<Option<LogicBit>>,
}

/// Which executor (and scheduler) runs process bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile-once bytecode interpreter scheduled by the two-region
    /// event wheel (the default).
    #[default]
    Compiled,
    /// Legacy tree-walking interpreter with the scan-based worklist
    /// scheduler, kept as the differential-testing oracle.
    Legacy,
}

impl Simulator {
    /// Create a simulator with every signal at `X`, using the
    /// bytecode executor (or the legacy tree-walker when the
    /// `MAGE_SIM_EXEC=legacy` environment variable is set — the hook the
    /// perf harness uses to measure the pre-bytecode baseline
    /// end-to-end).
    ///
    /// Call [`Simulator::settle`] before reading combinational outputs.
    pub fn new(design: Arc<Design>) -> Self {
        let mode = match std::env::var("MAGE_SIM_EXEC") {
            Ok(v) if v.eq_ignore_ascii_case("legacy") => ExecMode::Legacy,
            _ => ExecMode::Compiled,
        };
        Self::with_mode(design, mode)
    }

    /// Create a simulator with an explicit executor choice.
    pub fn with_mode(design: Arc<Design>, mode: ExecMode) -> Self {
        let store: Store = design
            .signals
            .iter()
            .map(|s| LogicVec::all_x(s.width))
            .collect();
        let nproc = design.processes.len();
        let (regs, legacy) = match mode {
            ExecMode::Compiled => {
                let regs = design
                    .compiled()
                    .procs
                    .iter()
                    .map(interp::RegFile::for_process)
                    .collect();
                (regs, None)
            }
            ExecMode::Legacy => (Vec::new(), Some(Box::new(LegacySched::build(&design)))),
        };
        let mut wheel = Wheel::default();
        if mode == ExecMode::Compiled {
            wheel.in_active = vec![false; nproc];
            wheel.in_triggered = vec![false; nproc];
            wheel.olds = vec![None; design.signals.len()];
            // Time-zero events: every comb process evaluates once, in
            // design order (matching the oracle's full first settle).
            for (i, p) in design.processes.iter().enumerate() {
                if matches!(p, Process::Comb { .. }) {
                    wheel.in_active[i] = true;
                    wheel.active.push_back(i);
                }
            }
        }
        let mut counts = EvalCounts::default();
        if mode == ExecMode::Compiled {
            // Surface the design's delta-rebuild plan drops: 0 for
            // scratch compiles, the cascade-invalidation count for
            // delta-assembled designs.
            counts.plan_invalidations = design.compiled().invalidated_plans as u64;
        }
        Simulator {
            design,
            regs,
            store,
            mode,
            two_state: mode == ExecMode::Compiled,
            wheel,
            legacy,
            fault: None,
            counts,
            coverage: None,
        }
    }

    /// Start recording dynamic coverage features ([`crate::coverage`])
    /// into an owned [`crate::FuzzCoverage`] map. Idempotent; the map
    /// accumulates until [`Simulator::take_coverage`].
    pub fn enable_coverage(&mut self) {
        if self.coverage.is_none() {
            self.coverage = Some(Box::default());
        }
    }

    /// The coverage map recorded so far, if enabled.
    pub fn coverage(&self) -> Option<&crate::FuzzCoverage> {
        self.coverage.as_deref()
    }

    /// Detach and return the recorded coverage map (recording stops).
    pub fn take_coverage(&mut self) -> Option<crate::FuzzCoverage> {
        self.coverage.take().map(|b| *b)
    }

    /// Whether plan (two-state) dispatch is enabled.
    pub fn two_state(&self) -> bool {
        self.two_state
    }

    /// Enable or disable plan (two-state) dispatch (compiled mode only;
    /// a no-op on the legacy executor). Turning it off forces every
    /// process through the four-state interpreter — the differential
    /// suites use this to lockstep the plans against pure four-state
    /// execution on the same executor. Call it before booting the
    /// simulator when counts must match a fresh run.
    pub fn set_two_state(&mut self, on: bool) {
        self.two_state = on && self.mode == ExecMode::Compiled;
    }

    /// The design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Cumulative scheduler work counters since construction (or the
    /// last [`Simulator::reset_eval_counts`]).
    pub fn eval_counts(&self) -> EvalCounts {
        self.counts
    }

    /// Zero the scheduler work counters.
    pub fn reset_eval_counts(&mut self) {
        self.counts = EvalCounts::default();
    }

    /// Run process `pi`'s body on the tree-walker (the legacy executor;
    /// the wheel runs bytecode through its own view's dispatch).
    fn run_body(&mut self, pi: usize, nba: &mut Vec<PendingWrite>, changed: &mut Vec<SignalId>) {
        let design = self.design.clone();
        let body = match &design.processes[pi] {
            Process::Comb { body, .. } => body,
            Process::Seq { body, .. } => body,
        };
        exec(&design, &mut self.store, body, nba, changed);
    }

    /// Read the current value of a signal, flushing any deferred
    /// combinational work first (the lazy-poke observation point — see
    /// the module docs). A flush fault latches rather than surfacing
    /// here; the fault-time store is returned, frozen, until a later
    /// poke or [`Simulator::settle`] re-attempts and reports the error.
    pub fn peek(&mut self, id: SignalId) -> &LogicVec {
        self.flush_for_read();
        &self.store[id.index()]
    }

    /// Read a signal by hierarchical name (flushes like
    /// [`Simulator::peek`]).
    pub fn peek_by_name(&mut self, name: &str) -> Option<&LogicVec> {
        let id = self.design.signal(name)?;
        Some(self.peek(id))
    }

    /// Flush deferred combinational work before a read. Under a latched
    /// fault the store stays frozen (re-draining a faulted region would
    /// churn it per read); a fresh fault latches silently.
    fn flush_for_read(&mut self) {
        if self.fault.is_some() {
            return;
        }
        if let Err(e) = self.flush_pending() {
            self.fault = Some(e);
        }
    }

    /// Drain whatever the lazy pokes deferred on the current scheduler.
    fn flush_pending(&mut self) -> Result<(), SimError> {
        match self.mode {
            ExecMode::Compiled => self.drain(),
            ExecMode::Legacy => {
                let mut sched = self.take_legacy();
                let pending = std::mem::take(&mut sched.pending);
                let r = if pending.is_empty() && sched.booted {
                    Ok(())
                } else {
                    self.settle_from(&mut sched, pending)
                };
                self.legacy = Some(sched);
                r
            }
        }
    }

    /// Drive a top-level input by name and propagate the change (edges
    /// first, then combinational settle).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownInput`] if `name` is not a top-level input;
    /// propagation errors as in [`Simulator::settle`].
    pub fn poke(&mut self, name: &str, value: LogicVec) -> Result<(), SimError> {
        let id = self
            .design
            .signal(name)
            .ok_or_else(|| SimError::UnknownInput(name.to_string()))?;
        self.poke_id(id, value)
    }

    /// Drive several top-level inputs by name at once: resolves the
    /// names, then runs [`Simulator::poke_many_ids`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownInput`] if any name is not a top-level input
    /// (the batch then changes nothing, not even a latched fault);
    /// propagation errors as in [`Simulator::settle`].
    pub fn poke_many<'d>(
        &mut self,
        drives: impl IntoIterator<Item = (&'d str, LogicVec)>,
    ) -> Result<(), SimError> {
        let resolved = Self::resolve_drives(&self.design, drives)?;
        self.poke_many_ids(&resolved)
    }

    /// Drive several top-level inputs at once, then propagate: all
    /// stores update first, every edge those updates produce triggers
    /// once, and the combinational fanout settles a single time.
    ///
    /// This is the testbench fast path — poking a step's drives one by
    /// one re-settles the entire fanout per input, multiplying process
    /// activations by the drive count. Simultaneous edges on several
    /// clocks trigger both domains in one wave. Drives apply in order:
    /// a later drive of the same signal transitions from the earlier
    /// drive's value.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownInput`] if any id is not a top-level input —
    /// the ids are validated up front, so a failed batch changes
    /// nothing, not even a latched fault (both schedulers agree on
    /// this, which the lockstep suites depend on); propagation errors
    /// as in [`Simulator::settle`].
    pub fn poke_many_ids(&mut self, drives: &[(SignalId, LogicVec)]) -> Result<(), SimError> {
        for (id, _) in drives {
            self.check_input(*id)?;
        }
        self.fault = None;
        match self.mode {
            ExecMode::Compiled => self.poke_many_wheel(drives),
            ExecMode::Legacy => self.poke_many_legacy(drives),
        }
    }

    /// Drive a top-level input by id (testbenches use this for clocks).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownInput`] if `id` is not a top-level input of
    /// this design (an output, an internal signal, or an index past its
    /// signals) — checked first, so a rejected poke changes nothing,
    /// not even a latched fault; propagation errors as in
    /// [`Simulator::settle`].
    pub fn poke_id(&mut self, id: SignalId, value: LogicVec) -> Result<(), SimError> {
        self.check_input(id)?;
        self.fault = None;
        match self.mode {
            ExecMode::Compiled => self.poke_id_wheel(id, value),
            ExecMode::Legacy => self.poke_id_legacy(id, value),
        }
    }

    /// [`SimError::UnknownInput`] unless `id` is a top-level input, named
    /// after the signal (or `#index` for an index past the signals).
    fn check_input(&self, id: SignalId) -> Result<(), SimError> {
        if self.design.inputs.contains(&id) {
            return Ok(());
        }
        let name = self.design.signals.get(id.index()).map(|d| d.name.clone());
        Err(SimError::UnknownInput(
            name.unwrap_or_else(|| format!("#{}", id.index())),
        ))
    }

    /// Propagate pending events to a fixpoint.
    ///
    /// On the wheel this *drains* the pending-event regions: the first
    /// call after construction evaluates every combinational process
    /// (the time-zero events); once settled, further calls with no
    /// intervening changes are O(1). The legacy oracle re-evaluates every
    /// combinational process on each call — the stores agree either way,
    /// because re-evaluating a settled process cannot change it.
    ///
    /// # Errors
    ///
    /// [`SimError::CombinationalLoop`] when no fixpoint is reached — a
    /// real failure mode for mutated candidates, which the judge agent
    /// scores as zero. `settle` also clears a latched fault and
    /// re-attempts the pending work, so a standing fault re-reports and
    /// a cleared one settles.
    pub fn settle(&mut self) -> Result<(), SimError> {
        self.fault = None;
        let r = match self.mode {
            ExecMode::Compiled => self.drain(),
            ExecMode::Legacy => self.settle_legacy(),
        };
        self.latch(r)
    }

    /// Latch a propagation error so subsequent pokes fail fast and
    /// peeks freeze the store until the next [`Simulator::settle`].
    fn latch(&mut self, r: Result<(), SimError>) -> Result<(), SimError> {
        if let Err(e) = &r {
            self.fault = Some(e.clone());
        }
        r
    }

    // ------------------------------------------------------------------
    // Event-wheel scheduler (ExecMode::Compiled)
    // ------------------------------------------------------------------

    /// Borrow the wheel scheduler's view of this simulator (compiled
    /// mode only): field borrows, built in place per entry point.
    fn wheel_view(&mut self) -> WheelView<'_> {
        WheelView {
            design: &self.design,
            compiled: self.design.compiled(),
            regs: &mut self.regs,
            store: &mut self.store,
            wheel: &mut self.wheel,
            counts: &mut self.counts,
            coverage: self.coverage.as_deref_mut(),
            two_state: self.two_state,
        }
    }

    fn poke_id_wheel(&mut self, id: SignalId, value: LogicVec) -> Result<(), SimError> {
        let r = self.wheel_view().poke(id, value);
        self.latch(r)
    }

    fn poke_many_wheel(&mut self, drives: &[(SignalId, LogicVec)]) -> Result<(), SimError> {
        let r = self.wheel_view().poke_many(drives);
        self.latch(r)
    }

    /// Resolve a drive batch by name up front, so an unknown name fails
    /// the whole batch before any store is touched.
    fn resolve_drives<'d>(
        design: &Design,
        drives: impl IntoIterator<Item = (&'d str, LogicVec)>,
    ) -> Result<Vec<(SignalId, LogicVec)>, SimError> {
        drives
            .into_iter()
            .map(|(name, value)| {
                design
                    .signal(name)
                    .filter(|id| design.inputs.contains(id))
                    .map(|id| (id, value))
                    .ok_or_else(|| SimError::UnknownInput(name.to_string()))
            })
            .collect()
    }

    /// Drain both wheel regions (see [`WheelView::drain`]).
    fn drain(&mut self) -> Result<(), SimError> {
        self.wheel_view().drain()
    }
}

/// The wheel scheduler's view of one [`Simulator`]: shared borrows of
/// the design and its bytecode, exclusive borrows of the state the
/// regions mutate. `poke_id_wheel`, `poke_many_wheel` and `drain` build
/// it in place from disjoint field borrows, and both regions and the
/// compiled body dispatch run through it — so the wheel path takes no
/// `Arc` clone and never moves the `Wheel` out of its simulator.
struct WheelView<'s> {
    design: &'s Design,
    compiled: &'s CompiledDesign,
    regs: &'s mut [interp::RegFile],
    store: &'s mut Store,
    wheel: &'s mut Wheel,
    counts: &'s mut EvalCounts,
    coverage: Option<&'s mut crate::FuzzCoverage>,
    two_state: bool,
}

impl WheelView<'_> {
    /// Does a `old_bit → new_bit` transition on `id` fire at least one
    /// edge-triggered process? This is the lazy-poke deferral rule —
    /// the legacy scheduler defers on the same condition, so the two
    /// always agree on what defers.
    fn transition_fires(&self, id: SignalId, old_bit: LogicBit, new_bit: LogicBit) -> bool {
        edge_kind(old_bit, new_bit).is_some_and(|e| !self.design.triggers(e, id).is_empty())
    }

    /// Drive one signal: store it, enqueue its comb fanout and edge
    /// triggers, and drain only if an edge fired.
    fn poke(&mut self, id: SignalId, value: LogicVec) -> Result<(), SimError> {
        let value = value.resized(self.design.width(id));
        let old = &self.store[id.index()];
        if old.case_eq(&value) {
            return Ok(());
        }
        let old_bit = old.get(0).unwrap_or(LogicBit::X);
        let new_bit = value.get(0).unwrap_or(LogicBit::X);
        let fires = self.transition_fires(id, old_bit, new_bit);
        if fires {
            // Flops must sample the settled pre-edge state: flush the
            // deferred combinational work before the edge dispatches.
            self.drain()?;
        }
        self.store[id.index()] = value;
        self.wheel.comb_fanout(self.compiled, id);
        self.wheel
            .edge_triggers(self.design, self.counts, id, old_bit, new_bit);
        if !fires {
            // No edge fired: leave the comb fanout pending for the next
            // observation point (peek / settle / real edge).
            return Ok(());
        }
        self.drain()
    }

    /// Would applying `drives` in order fire any edge-triggered
    /// process? Sequential-application semantics: a drive transitions
    /// from the latest earlier drive of the same signal in the batch,
    /// or from the store when there is none.
    fn batch_fires(&self, drives: &[(SignalId, LogicVec)]) -> bool {
        drives.iter().enumerate().any(|(k, (id, value))| {
            let width = self.design.width(*id);
            let value = value.resized(width);
            let earlier = drives[..k].iter().rev().find(|(prev, _)| prev == id);
            let redriven;
            let old = match earlier {
                Some((_, prev)) => {
                    redriven = prev.resized(width);
                    &redriven
                }
                None => &self.store[id.index()],
            };
            if old.case_eq(&value) {
                return false;
            }
            let old_bit = old.get(0).unwrap_or(LogicBit::X);
            let new_bit = value.get(0).unwrap_or(LogicBit::X);
            self.transition_fires(*id, old_bit, new_bit)
        })
    }

    /// Drive a batch (see [`Simulator::poke_many_ids`]): every store and
    /// enqueue, then one drain if any drive fired an edge.
    fn poke_many(&mut self, drives: &[(SignalId, LogicVec)]) -> Result<(), SimError> {
        let fires = self.batch_fires(drives);
        if fires {
            // Pre-edge flush, as in `poke`.
            self.drain()?;
        }
        let mut any_changed = false;
        for &(id, ref value) in drives {
            let value = value.resized(self.design.width(id));
            let old = &self.store[id.index()];
            if old.case_eq(&value) {
                continue;
            }
            let old_bit = old.get(0).unwrap_or(LogicBit::X);
            let new_bit = value.get(0).unwrap_or(LogicBit::X);
            self.store[id.index()] = value;
            self.wheel.comb_fanout(self.compiled, id);
            self.wheel
                .edge_triggers(self.design, self.counts, id, old_bit, new_bit);
            any_changed = true;
        }
        if !any_changed || !fires {
            // A no-op batch does not propagate; an edge-free one defers
            // its comb fanout to the next observation point.
            return Ok(());
        }
        self.drain()
    }

    /// Run process `pi`'s bytecode (its plan or the four-state loop, as
    /// the gates allow) and account for the outcome.
    fn run_body(&mut self, pi: usize, nba: &mut Vec<PendingWrite>, changed: &mut Vec<SignalId>) {
        let outcome = interp::execute(
            &self.compiled.procs[pi],
            &mut self.regs[pi],
            self.store,
            nba,
            changed,
            self.two_state,
        );
        match outcome {
            interp::ExecOutcome::Plan { ops, src } => {
                self.counts.two_state_evals += 1;
                self.counts.plan_steps += ops as u64;
                self.counts.plan_unfused_steps += src as u64;
            }
            interp::ExecOutcome::Fallback { .. } => self.counts.two_state_fallbacks += 1,
            interp::ExecOutcome::FourState => {}
        }
        if let Some(cov) = self.coverage.as_deref_mut() {
            let comb = matches!(self.design.processes[pi], Process::Comb { .. });
            cov.record(crate::coverage::outcome_feature(outcome, comb));
        }
    }

    /// Drain both wheel regions: the NBA region first (edge cascades,
    /// which only pokes and commits can extend), then the active region
    /// to a combinational fixpoint. Pending events *survive* a fault —
    /// the faulting work stays queued, so a later `settle` re-attempts
    /// it and keeps reporting the fault until the design state changes
    /// (mirroring the oracle, whose full re-evaluation re-detects a
    /// standing fault; a faulted simulator's exact post-fault store is
    /// outside the differential contract, and the pipeline abandons
    /// faulted candidates at the first error).
    fn drain(&mut self) -> Result<(), SimError> {
        self.nba_region()?;
        self.active_region()
    }

    /// Run the NBA region: execute triggered sequential processes,
    /// commit their non-blocking writes as a wave, and follow any edges
    /// those commits produce (clock dividers), up to [`CASCADE_LIMIT`]
    /// waves. Blocking writes and commits enqueue comb fanout on the
    /// active region as they land.
    fn nba_region(&mut self) -> Result<(), SimError> {
        if self.wheel.triggered.is_empty() {
            return Ok(());
        }
        // Trigger dedup flags re-arm per wave (a divider's process may
        // legitimately run once per wave).
        for &pi in &self.wheel.triggered {
            self.wheel.in_triggered[pi] = false;
        }
        let mut triggered = std::mem::take(&mut self.wheel.triggered);
        let mut rounds = 0usize;
        while !triggered.is_empty() {
            rounds += 1;
            if rounds > CASCADE_LIMIT {
                self.wheel.triggered = triggered;
                return Err(SimError::EdgeCascade { rounds });
            }
            let mut nba = std::mem::take(&mut self.wheel.nba);
            let mut changed = std::mem::take(&mut self.wheel.changed);
            for pi in triggered.drain(..) {
                self.counts.seq_evals += 1;
                changed.clear();
                // Blocking writes inside sequential bodies write
                // through (standard Verilog); their fanout becomes
                // active events immediately.
                self.run_body(pi, &mut nba, &mut changed);
                for &sig in &changed {
                    self.wheel.comb_fanout(self.compiled, sig);
                }
            }
            // Commit the wave, detecting new edges against pre-commit
            // LSB snapshots.
            changed.clear();
            let wheel = &mut *self.wheel;
            for w in &nba {
                let slot = &mut wheel.olds[w.signal.index()];
                if slot.is_none() {
                    *slot = Some(self.store[w.signal.index()].get(0).unwrap_or(LogicBit::X));
                }
            }
            for w in &nba {
                apply_write(self.store, w.signal, w.lsb, w.width, &w.value, &mut changed);
            }
            for &sig in &changed {
                let old_bit = wheel.olds[sig.index()].unwrap_or(LogicBit::X);
                let new_bit = self.store[sig.index()].get(0).unwrap_or(LogicBit::X);
                wheel.comb_fanout(self.compiled, sig);
                classify_edge_triggers(
                    self.design,
                    self.counts,
                    &mut wheel.in_triggered,
                    &mut triggered,
                    sig,
                    old_bit,
                    new_bit,
                );
            }
            for &pi in &triggered {
                wheel.in_triggered[pi] = false;
            }
            for w in &nba {
                wheel.olds[w.signal.index()] = None;
            }
            nba.clear();
            changed.clear();
            wheel.nba = nba;
            wheel.changed = changed;
        }
        // Hand the (drained) trigger list back to the pool so the next
        // edge reuses its capacity.
        self.wheel.triggered = triggered;
        Ok(())
    }

    /// Drain the active region: evaluate pending combinational processes
    /// to a fixpoint, enqueueing the fanout of *net* output changes.
    fn active_region(&mut self) -> Result<(), SimError> {
        if self.wheel.active.is_empty() {
            return Ok(());
        }
        let compiled = self.compiled;
        let limit = SETTLE_LIMIT_FACTOR * self.design.processes.len().max(4) + 64;
        let mut iterations = 0usize;
        while let Some(pi) = self.wheel.active.pop_front() {
            self.wheel.in_active[pi] = false;
            iterations += 1;
            if iterations > limit {
                // Keep the unevaluated event pending: a standing fault
                // must re-report on the next drain, not vanish with the
                // popped entry.
                self.wheel.in_active[pi] = true;
                self.wheel.active.push_front(pi);
                return Err(SimError::CombinationalLoop { iterations });
            }
            // Cascade fusion: when this event's process roots a fused
            // combinational cascade and the cascade's whole read set is
            // defined, run every member's plan straight through in
            // static topological order — one pass instead of N wheel
            // enqueues. No write snapshots and no fanout: the cascade
            // closure contains *every* combinational reader of every
            // member write by construction (else the cascade would not
            // have been built), members already run in dependency
            // order, and comb writes never edge-trigger in this model.
            // Stale queued members simply re-run as no-ops when popped
            // (pure functions at a fixpoint). A gate failure (an `X`/`Z`
            // anywhere in the read closure) falls through to the
            // ordinary per-process path, which dispatches four-state —
            // and the cascade resumes as soon as the unknown clears.
            if self.two_state {
                if let Some(ci) = compiled.cascade_of[pi] {
                    let cascade = &compiled.cascades[ci as usize];
                    if cascade
                        .reads
                        .iter()
                        .all(|s| self.store[s.index()].is_fully_defined())
                    {
                        let (nba, scratch) = (&mut self.wheel.nba, &mut self.wheel.scratch);
                        nba.clear();
                        for &m in &cascade.procs {
                            let m = m as usize;
                            self.counts.comb_evals += 1;
                            self.counts.two_state_evals += 1;
                            let plan = compiled.procs[m]
                                .plan
                                .as_ref()
                                .expect("cascade members have plans");
                            scratch.clear();
                            let (ops, src) = crate::plan::execute_plan(
                                plan,
                                &mut self.regs[m].aregs,
                                self.store,
                                nba,
                                scratch,
                            )
                            .expect("cascade members cannot bail");
                            self.counts.plan_steps += ops as u64;
                            self.counts.plan_unfused_steps += src as u64;
                            // Cascade members are NBA- and bail-free by
                            // construction (`EvalPlan::has_nba` and
                            // `can_bail` gate membership).
                            debug_assert!(nba.is_empty());
                        }
                        scratch.clear();
                        if let Some(cov) = self.coverage.as_deref_mut() {
                            cov.record(crate::coverage::cascade_fire_feature(cascade.procs.len()));
                        }
                        continue;
                    }
                }
            }
            self.counts.comb_evals += 1;
            let writes = &compiled.procs[pi].writes;
            // Snapshot the write set so a process that reads what it
            // writes (an accumulation chain) only reports *net* changes;
            // intermediate blocking-write glitches must not re-trigger it.
            self.wheel.before.clear();
            self.wheel
                .before
                .extend(writes.iter().map(|id| self.store[id.index()].clone()));
            let mut nba = std::mem::take(&mut self.wheel.nba);
            let mut scratch = std::mem::take(&mut self.wheel.scratch);
            nba.clear();
            scratch.clear();
            self.run_body(pi, &mut nba, &mut scratch);
            // NBAs inside comb always blocks commit immediately at the
            // end of the process (simplified @* semantics).
            for w in &nba {
                apply_write(self.store, w.signal, w.lsb, w.width, &w.value, &mut scratch);
            }
            nba.clear();
            scratch.clear();
            self.wheel.nba = nba;
            self.wheel.scratch = scratch;
            // Sequential processes must not be edge-triggered by
            // combinational glitches in this model; only real pokes and
            // NBA commits produce edges. (Clock gating through logic is
            // outside the benchmark subset.)
            for (k, id) in writes.iter().enumerate() {
                if self.store[id.index()].case_eq(&self.wheel.before[k]) {
                    continue;
                }
                self.wheel.comb_fanout(compiled, *id);
            }
            self.wheel.before.clear();
        }
        Ok(())
    }
}

impl Simulator {
    // ------------------------------------------------------------------
    // Legacy scheduler (ExecMode::Legacy, the differential oracle)
    // ------------------------------------------------------------------

    fn take_legacy(&mut self) -> Box<LegacySched> {
        self.legacy.take().expect("legacy scheduler present")
    }

    fn poke_id_legacy(&mut self, id: SignalId, value: LogicVec) -> Result<(), SimError> {
        let width = self.design.width(id);
        let value = value.resized(width);
        let old = self.store[id.index()].clone();
        if old.case_eq(&value) {
            return Ok(());
        }

        // 1. Edge-triggered processes sampling the pre-NBA world. The
        //    scan runs before the store write (and before the deferral
        //    decision) so probe accounting matches the eager scheduler.
        let old_bit = old.get(0).unwrap_or(LogicBit::X);
        let new_bit = value.get(0).unwrap_or(LogicBit::X);
        let mut sched = self.take_legacy();
        let mut triggered: Vec<usize> = Vec::new();
        for &pi in &sched.edge_deps[id.index()] {
            self.counts.edge_probes += 1;
            if let Process::Seq { edges, .. } = &self.design.processes[pi] {
                if edges
                    .iter()
                    .any(|&(e, s)| s == id && is_edge(e, old_bit, new_bit))
                {
                    triggered.push(pi);
                }
            }
        }
        if triggered.is_empty() {
            // Edge-free drive: defer the combinational settle to the
            // next observation point (the wheel does the same).
            self.store[id.index()] = value;
            sched.pending.push(id);
            self.legacy = Some(sched);
            return Ok(());
        }
        // 2. Flops sample the settled pre-edge state: flush deferred
        //    work before the clock value lands in the store.
        let pending = std::mem::take(&mut sched.pending);
        let mut r = if pending.is_empty() && sched.booted {
            Ok(())
        } else {
            self.settle_from(&mut sched, pending)
        };
        if r.is_ok() {
            self.store[id.index()] = value;
            let mut changed = vec![id];
            r = self
                .run_seq_cascade(&mut sched, triggered, &mut changed)
                // 3. Combinational settle from everything that moved.
                .and_then(|()| self.settle_from(&mut sched, changed));
        }
        self.legacy = Some(sched);
        self.latch(r)
    }

    fn poke_many_legacy(&mut self, drives: &[(SignalId, LogicVec)]) -> Result<(), SimError> {
        let mut sched = self.take_legacy();
        // Pass 1 — no store writes yet: collect the change set and the
        // triggered processes with sequential-application semantics (an
        // overlay tracks same-signal re-drives), counting edge probes
        // exactly as the eager application loop did.
        let mut overlay: std::collections::HashMap<usize, LogicVec> =
            std::collections::HashMap::new();
        let mut changed: Vec<SignalId> = Vec::new();
        let mut triggered: Vec<usize> = Vec::new();
        for &(id, ref value) in drives {
            let width = self.design.width(id);
            let value = value.resized(width);
            let old = overlay.get(&id.index()).unwrap_or(&self.store[id.index()]);
            if old.case_eq(&value) {
                continue;
            }
            let old_bit = old.get(0).unwrap_or(LogicBit::X);
            let new_bit = value.get(0).unwrap_or(LogicBit::X);
            for &pi in &sched.edge_deps[id.index()] {
                self.counts.edge_probes += 1;
                if let Process::Seq { edges, .. } = &self.design.processes[pi] {
                    if edges
                        .iter()
                        .any(|&(e, s)| s == id && is_edge(e, old_bit, new_bit))
                        && !triggered.contains(&pi)
                    {
                        triggered.push(pi);
                    }
                }
            }
            changed.push(id);
            overlay.insert(id.index(), value);
        }
        if changed.is_empty() {
            self.legacy = Some(sched);
            return Ok(());
        }
        if triggered.is_empty() {
            // Edge-free batch: apply the stores and defer the settle.
            for (idx, value) in overlay {
                self.store[idx] = value;
            }
            sched.pending.extend(changed);
            self.legacy = Some(sched);
            return Ok(());
        }
        // Edge batch: flush deferred work pre-edge, then apply and
        // propagate exactly as the eager scheduler did.
        let pending = std::mem::take(&mut sched.pending);
        let mut r = if pending.is_empty() && sched.booted {
            Ok(())
        } else {
            self.settle_from(&mut sched, pending)
        };
        if r.is_ok() {
            for (idx, value) in overlay {
                self.store[idx] = value;
            }
            r = self
                .run_seq_cascade(&mut sched, triggered, &mut changed)
                .and_then(|()| self.settle_from(&mut sched, changed));
        }
        self.legacy = Some(sched);
        self.latch(r)
    }

    /// Run triggered sequential processes, commit their non-blocking
    /// writes, and follow any edges those commits produce (clock
    /// dividers), up to [`CASCADE_LIMIT`] rounds.
    fn run_seq_cascade(
        &mut self,
        sched: &mut LegacySched,
        mut triggered: Vec<usize>,
        changed: &mut Vec<SignalId>,
    ) -> Result<(), SimError> {
        if triggered.is_empty() {
            return Ok(());
        }
        let design = self.design.clone();
        let mut rounds = 0usize;
        // Dense dedup of the next round's trigger list and pre-commit
        // LSB snapshots — both pooled, since this runs per poke.
        sched.wl.in_triggered.resize(design.processes.len(), false);
        sched.wl.olds.resize(design.signals.len(), None);
        while !triggered.is_empty() {
            rounds += 1;
            if rounds > CASCADE_LIMIT {
                return Err(SimError::EdgeCascade { rounds });
            }
            let mut nba: Vec<PendingWrite> = Vec::new();
            for pi in triggered.drain(..) {
                // Blocking writes inside sequential bodies write
                // through (standard Verilog), tracked in `changed`.
                self.counts.seq_evals += 1;
                self.run_body(pi, &mut nba, changed);
            }
            // Commit NBAs, detecting new edges.
            let mut nba_changed: Vec<SignalId> = Vec::new();
            for w in &nba {
                let slot = &mut sched.wl.olds[w.signal.index()];
                if slot.is_none() {
                    *slot = Some(self.store[w.signal.index()].get(0).unwrap_or(LogicBit::X));
                }
            }
            for w in &nba {
                apply_write(
                    &mut self.store,
                    w.signal,
                    w.lsb,
                    w.width,
                    &w.value,
                    &mut nba_changed,
                );
            }
            for &sig in &nba_changed {
                let old_bit = sched.wl.olds[sig.index()].unwrap_or(LogicBit::X);
                let new_bit = self.store[sig.index()].get(0).unwrap_or(LogicBit::X);
                for &pi in &sched.edge_deps[sig.index()] {
                    self.counts.edge_probes += 1;
                    if let Process::Seq { edges, .. } = &design.processes[pi] {
                        if edges
                            .iter()
                            .any(|&(e, s)| s == sig && is_edge(e, old_bit, new_bit))
                            && !sched.wl.in_triggered[pi]
                        {
                            sched.wl.in_triggered[pi] = true;
                            triggered.push(pi);
                        }
                    }
                }
            }
            for &pi in &triggered {
                sched.wl.in_triggered[pi] = false;
            }
            for w in &nba {
                sched.wl.olds[w.signal.index()] = None;
            }
            changed.extend(nba_changed);
        }
        // Buffers are all-false/all-None again (maintained per round).
        Ok(())
    }

    /// Evaluate every combinational process (the legacy full settle).
    /// The full re-evaluation subsumes any deferred poke fanout, so the
    /// pending list clears here.
    fn settle_legacy(&mut self) -> Result<(), SimError> {
        let mut sched = self.take_legacy();
        sched.pending.clear();
        let r = self.run_all_combs_legacy(&mut sched);
        self.legacy = Some(sched);
        r
    }

    /// Run every comb process through the legacy worklist (the full
    /// settle), marking the time-zero events as serviced on success.
    fn run_all_combs_legacy(&mut self, sched: &mut LegacySched) -> Result<(), SimError> {
        let all: Vec<usize> = (0..self.design.processes.len())
            .filter(|&i| matches!(self.design.processes[i], Process::Comb { .. }))
            .collect();
        let r = self.run_comb_worklist(sched, &all);
        if r.is_ok() {
            sched.booted = true;
        }
        r
    }

    /// Settle starting from the processes sensitive to `changed` signals.
    fn settle_from(
        &mut self,
        sched: &mut LegacySched,
        changed: Vec<SignalId>,
    ) -> Result<(), SimError> {
        if !sched.booted {
            // The time-zero events never ran: every comb process is
            // still pending (the wheel's active region holds them all,
            // in design order, with the poked fanout a deduped subset)
            // — evaluate everything, exactly as the wheel drains.
            return self.run_all_combs_legacy(sched);
        }
        let mut init = std::mem::take(&mut sched.wl.init);
        init.clear();
        sched.wl.in_queue.resize(self.design.processes.len(), false);
        for sig in changed {
            for &p in &sched.comb_deps[sig.index()] {
                if !sched.wl.in_queue[p] {
                    sched.wl.in_queue[p] = true;
                    init.push(p);
                }
            }
        }
        for &p in &init {
            sched.wl.in_queue[p] = false;
        }
        let r = self.run_comb_worklist(sched, &init);
        sched.wl.init = init;
        r
    }

    fn run_comb_worklist(
        &mut self,
        sched: &mut LegacySched,
        init: &[usize],
    ) -> Result<(), SimError> {
        let design = self.design.clone();
        sched.wl.queue.clear();
        sched.wl.queue.extend(init.iter().copied());
        sched.wl.in_queue.resize(design.processes.len(), false);
        for &p in init {
            sched.wl.in_queue[p] = true;
        }
        let limit = SETTLE_LIMIT_FACTOR * design.processes.len().max(4) + 64;
        let mut iterations = 0usize;
        let mut result = Ok(());
        while let Some(pi) = sched.wl.queue.pop_front() {
            sched.wl.in_queue[pi] = false;
            iterations += 1;
            if iterations > limit {
                result = Err(SimError::CombinationalLoop { iterations });
                break;
            }
            let Process::Comb { writes, .. } = &design.processes[pi] else {
                continue;
            };
            self.counts.comb_evals += 1;
            // Snapshot the write set so a process that reads what it
            // writes (an accumulation chain) only reports *net* changes;
            // intermediate blocking-write glitches must not re-trigger it.
            sched.wl.before.clear();
            sched
                .wl
                .before
                .extend(writes.iter().map(|id| self.store[id.index()].clone()));
            let mut nba = std::mem::take(&mut sched.wl.nba);
            let mut scratch = std::mem::take(&mut sched.wl.scratch);
            nba.clear();
            scratch.clear();
            self.run_body(pi, &mut nba, &mut scratch);
            // NBAs inside comb always blocks commit immediately at the end
            // of the process (simplified @* semantics).
            for w in &nba {
                apply_write(
                    &mut self.store,
                    w.signal,
                    w.lsb,
                    w.width,
                    &w.value,
                    &mut scratch,
                );
            }
            sched.wl.nba = nba;
            sched.wl.scratch = scratch;
            // Sequential processes must not be edge-triggered by
            // combinational glitches in this model; only real pokes and
            // NBA commits produce edges. (Clock gating through logic is
            // outside the benchmark subset.)
            for (id, old) in writes.iter().zip(sched.wl.before.iter()) {
                if self.store[id.index()].case_eq(old) {
                    continue;
                }
                for &p in &sched.comb_deps[id.index()] {
                    if !sched.wl.in_queue[p] {
                        sched.wl.in_queue[p] = true;
                        sched.wl.queue.push_back(p);
                    }
                }
            }
        }
        // Restore the all-false/empty invariant before pooling the
        // buffers (the error path leaves entries queued).
        sched.wl.before.clear();
        for p in sched.wl.queue.drain(..) {
            sched.wl.in_queue[p] = false;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;

    fn sim_of(src: &str) -> Simulator {
        let file = mage_verilog::parse(src).unwrap();
        let top = file.modules.last().unwrap().name.clone();
        let design = Arc::new(elaborate(&file, &top).unwrap());
        let mut s = Simulator::new(design);
        s.settle().unwrap();
        s
    }

    fn v(w: usize, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn and_gate_truth_table() {
        let mut s = sim_of("module top(input a, input b, output y); assign y = a & b; endmodule");
        for (a, b, y) in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)] {
            s.poke("a", v(1, a)).unwrap();
            s.poke("b", v(1, b)).unwrap();
            assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(y));
        }
    }

    #[test]
    fn outputs_x_before_drive() {
        let mut s = sim_of("module top(input a, output y); assign y = ~a; endmodule");
        assert!(s.peek_by_name("y").unwrap().is_all_x());
    }

    #[test]
    fn adder_with_carry_capture() {
        let mut s = sim_of(
            "module top(input [3:0] a, input [3:0] b, output [4:0] s);
               assign s = a + b;
             endmodule",
        );
        s.poke("a", v(4, 9)).unwrap();
        s.poke("b", v(4, 9)).unwrap();
        // Context width 5 captures the carry.
        assert_eq!(s.peek_by_name("s").unwrap().to_u64(), Some(18));
    }

    #[test]
    fn concat_lvalue_splits_sum() {
        let mut s = sim_of(
            "module top(input [3:0] a, input [3:0] b, output cout, output [3:0] sum);
               assign {cout, sum} = a + b;
             endmodule",
        );
        s.poke("a", v(4, 12)).unwrap();
        s.poke("b", v(4, 7)).unwrap();
        assert_eq!(s.peek_by_name("sum").unwrap().to_u64(), Some(3));
        assert_eq!(s.peek_by_name("cout").unwrap().to_u64(), Some(1));
    }

    #[test]
    fn comb_always_with_case() {
        let mut s = sim_of(
            "module top(input [1:0] sel, input [3:0] a, input [3:0] b, input [3:0] c, output reg [3:0] y);
               always @(*) case (sel)
                 2'b00: y = a;
                 2'b01: y = b;
                 default: y = c;
               endcase
             endmodule",
        );
        s.poke("a", v(4, 1)).unwrap();
        s.poke("b", v(4, 2)).unwrap();
        s.poke("c", v(4, 3)).unwrap();
        s.poke("sel", v(2, 0)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(1));
        s.poke("sel", v(2, 1)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(2));
        s.poke("sel", v(2, 3)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(3));
    }

    #[test]
    fn dff_samples_on_posedge_only() {
        let mut s = sim_of(
            "module top(input clk, input d, output reg q);
               always @(posedge clk) q <= d;
             endmodule",
        );
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("d", v(1, 1)).unwrap();
        assert!(s.peek_by_name("q").unwrap().is_all_x(), "q X before clock");
        s.poke("clk", v(1, 1)).unwrap(); // posedge
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(1));
        s.poke("d", v(1, 0)).unwrap(); // no edge: q holds
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(1));
        s.poke("clk", v(1, 0)).unwrap(); // negedge: q holds
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(1));
        s.poke("clk", v(1, 1)).unwrap(); // posedge samples new d
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn nba_swap_is_simultaneous() {
        let mut s = sim_of(
            "module top(input clk, input [7:0] init_a, output reg [7:0] a, output reg [7:0] b);
               always @(posedge clk) begin
                 a <= b;
                 b <= a;
               end
             endmodule",
        );
        // Force initial values through input-independent paths: poke via
        // clocked capture is impossible here, so initialize by hand.
        let ida = s.design().signal("a").unwrap();
        let idb = s.design().signal("b").unwrap();
        s.store[ida.index()] = v(8, 1);
        s.store[idb.index()] = v(8, 2);
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("clk", v(1, 1)).unwrap();
        assert_eq!(s.peek(ida).to_u64(), Some(2), "a takes old b");
        assert_eq!(s.peek(idb).to_u64(), Some(1), "b takes old a");
    }

    #[test]
    fn async_reset_dominates() {
        let mut s = sim_of(
            "module top(input clk, input rst, input d, output reg q);
               always @(posedge clk or posedge rst)
                 if (rst) q <= 1'b0; else q <= d;
             endmodule",
        );
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("d", v(1, 1)).unwrap();
        s.poke("rst", v(1, 1)).unwrap(); // async reset without clock
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(0));
        s.poke("rst", v(1, 0)).unwrap();
        s.poke("clk", v(1, 1)).unwrap();
        assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(1));
    }

    #[test]
    fn counter_counts() {
        let mut s = sim_of(
            "module top(input clk, input rst, output reg [3:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 4'd0;
                 else q <= q + 4'd1;
               end
             endmodule",
        );
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("rst", v(1, 1)).unwrap();
        s.poke("clk", v(1, 1)).unwrap();
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("rst", v(1, 0)).unwrap();
        for expect in 1..=5u64 {
            s.poke("clk", v(1, 1)).unwrap();
            s.poke("clk", v(1, 0)).unwrap();
            assert_eq!(s.peek_by_name("q").unwrap().to_u64(), Some(expect % 16));
        }
    }

    #[test]
    fn hierarchy_flattens_and_works() {
        let mut s = sim_of(
            "module fa(input a, input b, input cin, output s, output cout);
               assign s = a ^ b ^ cin;
               assign cout = (a & b) | (cin & (a ^ b));
             endmodule
             module top(input [1:0] x, input [1:0] y, output [2:0] sum);
               wire c0;
               fa f0 (.a(x[0]), .b(y[0]), .cin(1'b0), .s(sum[0]), .cout(c0));
               fa f1 (.a(x[1]), .b(y[1]), .cin(c0), .s(sum[1]), .cout(sum[2]));
             endmodule",
        );
        for x in 0..4u64 {
            for y in 0..4u64 {
                s.poke("x", v(2, x)).unwrap();
                s.poke("y", v(2, y)).unwrap();
                assert_eq!(
                    s.peek_by_name("sum").unwrap().to_u64(),
                    Some(x + y),
                    "{x}+{y}"
                );
            }
        }
    }

    #[test]
    fn parameter_override_changes_width() {
        let mut s = sim_of(
            "module w #(parameter N = 4)(input [N-1:0] a, output [N-1:0] y);
               assign y = ~a;
             endmodule
             module top(input [7:0] a, output [7:0] y);
               w #(.N(8)) u (.a(a), .y(y));
             endmodule",
        );
        s.poke("a", v(8, 0x0F)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0xF0));
    }

    #[test]
    fn for_loop_reverses_bits() {
        let mut s = sim_of(
            "module top(input [7:0] a, output reg [7:0] y);
               integer i;
               always @(*) for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];
             endmodule",
        );
        s.poke("a", v(8, 0b1101_0010)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0b0100_1011));
    }

    #[test]
    fn combinational_loop_detected() {
        let file = mage_verilog::parse(
            "module top(input a, output y);
               assign y = a ? ~y : 1'b0; // rings when a = 1
             endmodule",
        )
        .unwrap();
        let design = Arc::new(elaborate(&file, "top").unwrap());
        let mut s = Simulator::new(design);
        s.settle().unwrap(); // all-X fixpoint settles fine
        s.poke("a", v(1, 0)).unwrap(); // y settles to a defined 0
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0));
        // Now y = ~y oscillates between defined values: must error, not
        // hang. The poke itself defers (`a` fires no edge), so the loop
        // surfaces at the flush.
        let r = s.poke("a", v(1, 1)).and_then(|()| s.settle());
        assert!(matches!(r, Err(SimError::CombinationalLoop { .. })));
        // A peek under the latched fault freezes instead of churning…
        let _ = s.peek_by_name("y");
        // …a standing fault re-reports on the next settle…
        assert!(matches!(
            s.settle(),
            Err(SimError::CombinationalLoop { .. })
        ));
        // …and driving the loop-breaking input recovers.
        s.poke("a", v(1, 0)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn clock_divider_cascade() {
        let mut s = sim_of(
            "module top(input clk, input rst, output reg c0, output reg c1);
               always @(posedge clk or posedge rst)
                 if (rst) c0 <= 1'b0; else c0 <= ~c0;
               always @(posedge c0 or posedge rst)
                 if (rst) c1 <= 1'b0; else c1 <= ~c1;
             endmodule",
        );
        s.poke("clk", v(1, 0)).unwrap();
        s.poke("rst", v(1, 1)).unwrap();
        s.poke("rst", v(1, 0)).unwrap();
        let mut c1_seq = Vec::new();
        for _ in 0..8 {
            s.poke("clk", v(1, 1)).unwrap();
            s.poke("clk", v(1, 0)).unwrap();
            c1_seq.push(s.peek_by_name("c1").unwrap().to_u64().unwrap());
        }
        // c0 toggles each cycle: 1,0,1,0…; c1 toggles on c0 rising.
        assert_eq!(c1_seq, vec![1, 1, 0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn part_select_lvalue_and_rvalue() {
        let mut s = sim_of(
            "module top(input [7:0] a, output reg [7:0] y);
               always @(*) begin
                 y = 8'h00;
                 y[3:0] = a[7:4];
               end
             endmodule",
        );
        s.poke("a", v(8, 0xA5)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0x0A));
    }

    #[test]
    fn dynamic_bit_select_write() {
        let mut s = sim_of(
            "module top(input [2:0] idx, output reg [7:0] y);
               always @(*) begin
                 y = 8'h00;
                 y[idx] = 1'b1;
               end
             endmodule",
        );
        for i in 0..8u64 {
            s.poke("idx", v(3, i)).unwrap();
            assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(1 << i));
        }
    }

    #[test]
    fn x_propagates_through_arith_not_through_masks() {
        let mut s = sim_of(
            "module top(input [3:0] a, output [3:0] add_y, output [3:0] and_y);
               assign add_y = a + 4'd1;
               assign and_y = a & 4'h0;
             endmodule",
        );
        // `a` is still X.
        assert!(s.peek_by_name("add_y").unwrap().is_all_x());
        assert!(s.peek_by_name("and_y").unwrap().is_all_zero());
        s.poke("a", v(4, 3)).unwrap();
        assert_eq!(s.peek_by_name("add_y").unwrap().to_u64(), Some(4));
    }

    #[test]
    fn shift_ops() {
        let mut s = sim_of(
            "module top(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r);
               assign l = a << n;
               assign r = a >> n;
             endmodule",
        );
        s.poke("a", v(8, 0b0001_1000)).unwrap();
        s.poke("n", v(3, 2)).unwrap();
        assert_eq!(s.peek_by_name("l").unwrap().to_u64(), Some(0b0110_0000));
        assert_eq!(s.peek_by_name("r").unwrap().to_u64(), Some(0b0000_0110));
    }

    #[test]
    fn casez_wildcard_priority() {
        let mut s = sim_of(
            "module top(input [3:0] r, output reg [1:0] y);
               always @(*) casez (r)
                 4'b1???: y = 2'd3;
                 4'b01??: y = 2'd2;
                 4'b001?: y = 2'd1;
                 default: y = 2'd0;
               endcase
             endmodule",
        );
        s.poke("r", v(4, 0b1010)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(3));
        s.poke("r", v(4, 0b0110)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(2));
        s.poke("r", v(4, 0b0010)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(1));
        s.poke("r", v(4, 0b0001)).unwrap();
        assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn poke_rejects_non_inputs() {
        let mut s = sim_of("module top(input a, output y); assign y = a; endmodule");
        assert!(matches!(
            s.poke("y", v(1, 0)),
            Err(SimError::UnknownInput(_))
        ));
        assert!(matches!(
            s.poke("zz", v(1, 0)),
            Err(SimError::UnknownInput(_))
        ));
    }

    #[test]
    fn poke_id_rejects_non_inputs() {
        let parse =
            |src: &str| Arc::new(elaborate(&mage_verilog::parse(src).unwrap(), "top").unwrap());
        let small = "module top(input a, output y); assign y = ~a; endmodule";
        let large = parse(
            "module top(input a, input b, input c, output y, output z);
               assign y = a & b; assign z = b | c;
             endmodule",
        );
        let foreign = large.signal("z").unwrap();
        for mode in [ExecMode::Compiled, ExecMode::Legacy] {
            let mut s = Simulator::with_mode(parse(small), mode);
            s.settle().unwrap();
            s.poke("a", v(1, 0)).unwrap();
            let y = s.design().signal("y").unwrap();
            assert_eq!(s.peek(y).to_u64(), Some(1), "{mode:?}");
            let before = s.store.clone();
            // An output: rejected by name, and its logic still drives it.
            let r = s.poke_id(y, v(1, 0));
            assert!(
                matches!(&r, Err(SimError::UnknownInput(n)) if n == "y"),
                "{mode:?}: {r:?}"
            );
            assert_eq!(s.store, before, "{mode:?}: a rejected poke writes nothing");
            // An id from a larger design, out of this one's range.
            assert!(foreign.index() >= s.design().signals.len());
            let r = s.poke_id(foreign, v(1, 1));
            assert!(
                matches!(&r, Err(SimError::UnknownInput(_))),
                "{mode:?}: {r:?}"
            );
            assert_eq!(s.store, before, "{mode:?}");
            assert_eq!(s.peek(y).to_u64(), Some(1), "{mode:?}");
        }
    }

    #[test]
    fn rejected_pokes_keep_a_latched_fault() {
        let src = "module top(input a, output y, output z);
                     assign y = a ? ~y : 1'b0; // rings when a = 1
                     assign z = ~a;
                   endmodule";
        for mode in [ExecMode::Compiled, ExecMode::Legacy] {
            let design = Arc::new(elaborate(&mage_verilog::parse(src).unwrap(), "top").unwrap());
            let z = design.signal("z").unwrap();
            let mut s = Simulator::with_mode(design, mode);
            s.poke("a", v(1, 0)).unwrap();
            s.settle().unwrap();
            let r = s.poke("a", v(1, 1)).and_then(|()| s.settle());
            assert!(matches!(r, Err(SimError::CombinationalLoop { .. })));
            let before = s.store.clone();
            // Every entry point rejects an output before touching the
            // latch, so the frozen store stays frozen.
            let rejected = [
                s.poke("z", v(1, 0)),
                s.poke_id(z, v(1, 0)),
                s.poke_many([("a", v(1, 0)), ("z", v(1, 0))]),
                s.poke_many_ids(&[(z, v(1, 0))]),
            ];
            for r in rejected {
                assert!(
                    matches!(&r, Err(SimError::UnknownInput(n)) if n == "z"),
                    "{mode:?}: {r:?}"
                );
            }
            assert!(s.fault.is_some(), "{mode:?}: the fault stays latched");
            assert_eq!(s.store, before, "{mode:?}");
            assert!(matches!(
                s.settle(),
                Err(SimError::CombinationalLoop { .. })
            ));
        }
    }

    #[test]
    fn settled_wheel_resettles_without_work() {
        // Wheel-specific invariant: pin the executor explicitly so the
        // test still checks the wheel when CI exports
        // MAGE_SIM_EXEC=legacy to run everything else on the oracle.
        let mut s = {
            let file =
                mage_verilog::parse("module top(input a, output y); assign y = ~a; endmodule")
                    .unwrap();
            let design = Arc::new(elaborate(&file, "top").unwrap());
            let mut s = Simulator::with_mode(design, ExecMode::Compiled);
            s.settle().unwrap();
            s
        };
        s.poke("a", v(1, 1)).unwrap();
        s.settle().unwrap(); // flush the deferred poke fanout
        s.reset_eval_counts();
        for _ in 0..10 {
            s.settle().unwrap();
        }
        assert_eq!(
            s.eval_counts().total_evals(),
            0,
            "a settled wheel has no pending events"
        );
        // The oracle re-evaluates per call by design.
        let mut l = {
            let file =
                mage_verilog::parse("module top(input a, output y); assign y = ~a; endmodule")
                    .unwrap();
            let design = Arc::new(elaborate(&file, "top").unwrap());
            Simulator::with_mode(design, ExecMode::Legacy)
        };
        l.settle().unwrap();
        l.reset_eval_counts();
        l.settle().unwrap();
        assert!(l.eval_counts().comb_evals > 0);
    }

    #[test]
    fn lazy_pokes_settle_once_at_observation() {
        // Per-drive settles of a poke-heavy step collapse into one flush
        // at the observation point — on both schedulers.
        let src = "module top(input [7:0] a, input [7:0] b, input [7:0] c, output [7:0] y);
                     assign y = a + b + c;
                   endmodule";
        for mode in [ExecMode::Compiled, ExecMode::Legacy] {
            let file = mage_verilog::parse(src).unwrap();
            let design = Arc::new(elaborate(&file, "top").unwrap());
            let mut s = Simulator::with_mode(design, mode);
            s.settle().unwrap();
            s.reset_eval_counts();
            s.poke("a", v(8, 1)).unwrap();
            s.poke("b", v(8, 2)).unwrap();
            s.poke("c", v(8, 3)).unwrap();
            assert_eq!(
                s.eval_counts().comb_evals,
                0,
                "edge-free pokes defer ({mode:?})"
            );
            assert_eq!(s.peek_by_name("y").unwrap().to_u64(), Some(6));
            assert_eq!(
                s.eval_counts().comb_evals,
                1,
                "one settle serves three drives ({mode:?})"
            );
        }
    }

    #[test]
    fn untouched_clock_domain_stays_idle() {
        let mut s = sim_of(
            "module top(input clka, input clkb, input rst, output reg [3:0] qa, output reg [3:0] qb);
               always @(posedge clka) if (rst) qa <= 4'd0; else qa <= qa + 4'd1;
               always @(posedge clkb) if (rst) qb <= 4'd0; else qb <= qb + 4'd1;
             endmodule",
        );
        s.poke("rst", v(1, 1)).unwrap();
        s.poke("clka", v(1, 0)).unwrap();
        s.poke("clkb", v(1, 0)).unwrap();
        s.poke("clka", v(1, 1)).unwrap();
        s.poke("clkb", v(1, 1)).unwrap();
        s.poke("clka", v(1, 0)).unwrap();
        s.poke("clkb", v(1, 0)).unwrap();
        s.poke("rst", v(1, 0)).unwrap();
        s.reset_eval_counts();
        // Toggle only domain A: domain B's process never runs.
        for _ in 0..4 {
            s.poke("clka", v(1, 1)).unwrap();
            s.poke("clka", v(1, 0)).unwrap();
        }
        let c = s.eval_counts();
        assert_eq!(c.seq_evals, 4, "only domain A's flop runs (posedges)");
        assert_eq!(s.peek_by_name("qa").unwrap().to_u64(), Some(4));
        assert_eq!(s.peek_by_name("qb").unwrap().to_u64(), Some(0));
    }
}
