//! One benchmark run of one workload: an untimed warm-up window, timed
//! windows over the stream's blocks, grading, and the metrics they
//! yield.

use crate::ledger::{Count, Ledger, Span, LLM_KINDS};
use crate::serve;
use crate::solve::{self, Counted};
use crate::stats::{median, quantile};
use crate::stream::{Stream, TraceDigest, BLOCKS, BLOCK_RUNS};
use crate::sys::{peak_rss_mb, process_cpu, thread_cpu};
use mage_core::experiments::{grade, grading_bench};
use mage_core::SolveTrace;
use mage_llm::FaultPlan;
use mage_problems::{suite, SuiteId};
use mage_serve::{LlmService, ServeEngine, ServeReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run drives the stream through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Mage::solve`, one job after another on one thread.
    Solve,
    /// One `ServeEngine` per window, fault-free service.
    Serve,
    /// One `ServeEngine` per window under the canonical fault plan.
    ServeFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Solve, Workload::Serve, Workload::ServeFaults];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solve => "solve",
            Workload::Serve => "serve",
            Workload::ServeFaults => "serve_faults",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The service's fault plan; `None` for `solve`, which has no service.
    pub fn plan(self) -> Option<FaultPlan> {
        match self {
            Workload::Solve => None,
            Workload::Serve => Some(FaultPlan::none()),
            Workload::ServeFaults => Some(FaultPlan::canonical()),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Measuring time; windows repeat while another one fits.
    pub seconds: f64,
    /// Per-layer ledger (`true`) or end-to-end metrics (`false`).
    pub trace: bool,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched its block's first window and every check
    /// held.
    pub correct: bool,
    /// Jobs run in measured windows.
    pub attempted: u64,
    /// Of those, jobs that finished as `JobOutcome::Failed`.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// One pass over a stream.
pub struct Pass {
    /// Finished traces, in job order.
    pub traces: Vec<SolveTrace>,
    /// Per-job latency, ms, in job order.
    pub latencies_ms: Vec<f64>,
    /// Per-job CPU time of the solving thread, ms, in job order;
    /// `solve` only (serve jobs share the engine's two threads).
    pub job_cpu_ms: Vec<f64>,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Process CPU time of the pass, all threads.
    pub cpu: Duration,
    /// Model round trips (`solve`: requests; serve: dispatch calls);
    /// zero where the pass did not count them.
    pub llm_calls: u64,
    /// The engine's report and per-job virtual LLM latency (serve).
    pub serve: Option<(ServeReport, Vec<f64>)>,
}

impl Pass {
    /// Per-job digests, in job order.
    pub fn digests(&self) -> Vec<TraceDigest> {
        self.traces.iter().map(TraceDigest::of).collect()
    }

    /// Jobs that finished as `JobOutcome::Failed`.
    pub fn failed(&self) -> u64 {
        self.traces.iter().filter(|t| t.outcome.is_failed()).count() as u64
    }

    /// Tokens over every job.
    pub fn tokens(&self) -> u64 {
        self.traces.iter().map(|t| t.usage.total() as u64).sum()
    }

    /// Jobs the pass ran.
    pub fn jobs(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Retired jobs per second.
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs() as f64 / self.wall.as_secs_f64()
    }
}

/// `solve` pass: build each job's model and call `Mage::solve`.
pub fn solve_pass(stream: &Stream) -> Pass {
    timed_solve_pass(stream, solve::solve)
}

/// `solve` pass that also counts the model requests.
pub fn solve_pass_counted(stream: &Stream) -> Pass {
    let mut calls = 0;
    let mut pass = timed_solve_pass(stream, |spec| {
        let mut model = Counted::new(solve::model(spec));
        let trace = solve::solve_with(&mut model, spec);
        calls += model.calls();
        trace
    });
    pass.llm_calls = calls;
    pass
}

/// `solve` pass through the traced driver.
pub fn solve_pass_traced(stream: &Stream, ledger: &Ledger) -> Pass {
    timed_solve_pass(stream, |spec| solve::solve_traced(spec, ledger))
}

fn timed_solve_pass(
    stream: &Stream,
    mut solve_one: impl FnMut(&mage_serve::JobSpec) -> SolveTrace,
) -> Pass {
    let mut traces = Vec::with_capacity(stream.len());
    let mut latencies_ms = Vec::with_capacity(stream.len());
    let mut job_cpu_ms = Vec::with_capacity(stream.len());
    let cpu0 = process_cpu();
    let start = Instant::now();
    for spec in &stream.specs {
        let c = thread_cpu();
        let t = Instant::now();
        traces.push(solve_one(spec));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        job_cpu_ms.push((thread_cpu() - c).as_secs_f64() * 1e3);
    }
    let wall = start.elapsed();
    Pass {
        traces,
        latencies_ms,
        job_cpu_ms,
        wall,
        cpu: process_cpu() - cpu0,
        llm_calls: 0,
        serve: None,
    }
}

/// Serve pass: run a built engine, holding its whole stream, to
/// completion.
pub fn serve_pass(mut engine: serve::Engine) -> Pass {
    let cpu0 = process_cpu();
    let start = Instant::now();
    engine.run();
    serve_facts(&engine, start.elapsed(), process_cpu() - cpu0)
}

/// Serve pass through `step()` with every step timed.
pub fn serve_pass_traced(mut engine: serve::TracedEngine, ledger: &Ledger) -> Pass {
    let cpu0 = process_cpu();
    let start = Instant::now();
    serve::run_traced(&mut engine, ledger);
    serve_facts(&engine, start.elapsed(), process_cpu() - cpu0)
}

fn serve_facts<S: LlmService>(engine: &ServeEngine<S>, wall: Duration, cpu: Duration) -> Pass {
    let report = engine.report();
    assert_eq!(
        report.done, report.jobs,
        "engine stopped with jobs unretired"
    );
    let traces: Vec<SolveTrace> = engine
        .traces()
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect();
    let ids = 0..report.jobs;
    let latencies_ms = ids
        .clone()
        .map(|id| engine.job_latency(id).expect("retired job").as_secs_f64() * 1e3)
        .collect();
    let virtual_ms = ids
        .map(|id| engine.job_virtual_ms(id).expect("retired job") as f64)
        .collect();
    Pass {
        traces,
        latencies_ms,
        job_cpu_ms: Vec::new(),
        wall,
        cpu,
        llm_calls: report.stats.llm_batch_calls as u64,
        serve: Some((report, virtual_ms)),
    }
}

/// What one window needs: the registry, the grading benches and its
/// block of the stream; for serve workloads also the service and the
/// engine with every job of the block pushed.
struct Setup {
    stream: Stream,
    engine: Option<serve::Engine>,
}

impl Setup {
    fn new(workload: Workload, seed: u64, block: usize) -> Self {
        // One fresh synthesis of every grading bench: the work `grade`'s
        // process-wide bench cache does once per process.
        for problem in suite(SuiteId::V2) {
            std::hint::black_box(grading_bench(problem));
        }
        let stream = Stream::block(seed, block);
        let engine = workload
            .plan()
            .map(|plan| serve::engine(&stream.specs, plan));
        Setup { stream, engine }
    }

    /// The set-up's untraced pass; `count` also counts `solve`'s model
    /// requests.
    fn run(self, count: bool) -> (Stream, Pass) {
        let pass = match self.engine {
            Some(engine) => serve_pass(engine),
            None if count => solve_pass_counted(&self.stream),
            None => solve_pass(&self.stream),
        };
        (self.stream, pass)
    }
}

/// The best a block did over a run's windows: its fastest window's
/// wall time, its lowest window CPU time, and per job the lowest
/// latency (and for `solve` the lowest CPU time) any of its windows
/// gave that job. Every window of a block does bit-identical work, and
/// contention from the shared host only ever slows a job down, so these
/// minima are the steadiest estimate of the program's own speed.
struct Best {
    wall: Duration,
    cpu: Duration,
    latencies_ms: Vec<f64>,
    job_cpu_ms: Vec<f64>,
}

impl Best {
    fn of(pass: &Pass) -> Self {
        Best {
            wall: pass.wall,
            cpu: pass.cpu,
            latencies_ms: pass.latencies_ms.clone(),
            job_cpu_ms: pass.job_cpu_ms.clone(),
        }
    }

    fn absorb(&mut self, pass: &Pass) {
        self.wall = self.wall.min(pass.wall);
        self.cpu = self.cpu.min(pass.cpu);
        lower(&mut self.latencies_ms, &pass.latencies_ms);
        lower(&mut self.job_cpu_ms, &pass.job_cpu_ms);
    }
}

/// Lower each value of `best` to the matching value of `new`.
fn lower(best: &mut [f64], new: &[f64]) {
    for (b, n) in best.iter_mut().zip(new) {
        *b = b.min(*n);
    }
}

/// A run's measured windows, kept as each block's [`Best`] (passes are
/// dropped once absorbed, so the bookkeeping does not grow the peak
/// resident set) and a few totals.
struct Windows {
    best: Vec<Option<Best>>,
    jobs_per_s: Vec<f64>,
    jobs: usize,
    wall: Duration,
}

impl Windows {
    fn new() -> Self {
        Windows {
            best: (0..BLOCKS).map(|_| None).collect(),
            jobs_per_s: Vec::new(),
            jobs: 0,
            wall: Duration::ZERO,
        }
    }

    fn add(&mut self, block: usize, pass: &Pass) {
        self.jobs_per_s.push(pass.jobs_per_s());
        self.jobs += pass.jobs();
        self.wall += pass.wall;
        match &mut self.best[block] {
            Some(best) => best.absorb(pass),
            slot @ None => *slot = Some(Best::of(pass)),
        }
    }

    /// Each block's best, in block order.
    fn blocks(&self) -> impl Iterator<Item = &Best> + '_ {
        self.best
            .iter()
            .map(|b| b.as_ref().expect("every block ran at least once"))
    }

    /// The blocks' fastest windows, summed, s.
    fn best_wall_s(&self) -> f64 {
        self.blocks().map(|b| b.wall.as_secs_f64()).sum()
    }

    /// Every job's lowest latency, ms, block by block.
    fn latencies_ms(&self) -> Vec<f64> {
        self.blocks()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect()
    }
}

/// Checks every measured window must meet, accumulated. A block's first
/// window sets the digests its later windows must repeat.
struct Checks {
    workload: Workload,
    reference: Vec<Option<Vec<TraceDigest>>>,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn new(workload: Workload) -> Self {
        Checks {
            workload,
            reference: vec![None; BLOCKS],
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// `true` until `block` has had a measured window.
    fn first(&self, block: usize) -> bool {
        self.reference[block].is_none()
    }

    /// Record a measured window of `block` and check it.
    fn measured(&mut self, block: usize, pass: &Pass, what: &str) {
        self.attempted += pass.jobs() as u64;
        self.failed += pass.failed();
        self.check(pass.failed() == 0, || {
            format!("{what}: {} jobs failed", pass.failed())
        });
        let digests = pass.digests();
        match &self.reference[block] {
            Some(reference) => {
                let same = &digests == reference;
                self.check(same, || {
                    format!("{what}: answers differ from the block's first window")
                });
            }
            None => self.reference[block] = Some(digests),
        }
        if let Some((report, _)) = &pass.serve {
            let s = &report.stats;
            let resilience = s.retries + s.hedges + s.rate_limit_defers + s.failovers;
            match self.workload {
                Workload::ServeFaults => self.check(s.retries > 0, || {
                    format!("{what}: the canonical plan triggered no retries")
                }),
                _ => self.check(resilience == 0, || {
                    format!("{what}: fault-free service counted {resilience} resilience events")
                }),
            }
        }
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(why());
        }
    }

    fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.problems.iter().map(|p| format!("CHECK FAILED: {p}"))
    }
}

/// The answers of each block's first window: graded against the golden
/// benches and counted.
#[derive(Default)]
struct Answers {
    jobs: usize,
    passed: usize,
    tokens: u64,
    llm_calls: u64,
}

impl Answers {
    fn add(&mut self, stream: &Stream, pass: &Pass) {
        self.jobs += pass.traces.len();
        self.passed += pass
            .traces
            .iter()
            .zip(&stream.problems)
            .filter(|(trace, problem)| grade(problem, &trace.final_source))
            .count();
        self.tokens += pass.tokens();
        self.llm_calls += pass.llm_calls;
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Call `window(i)` for `i = 0, 1, …` while another call still fits in
/// `seconds` (judged by the longest call so far), and at least
/// `at_least` times.
fn repeat_within(seconds: f64, at_least: usize, mut window: impl FnMut(usize)) {
    let started = Instant::now();
    let mut longest = 0.0f64;
    for i in 0.. {
        let t = Instant::now();
        window(i);
        longest = longest.max(t.elapsed().as_secs_f64());
        if i + 1 >= at_least && started.elapsed().as_secs_f64() + longest > seconds {
            return;
        }
    }
}

/// The untimed warm-up: one window of the first block.
fn warm_up(opts: &Options) {
    drop(Setup::new(opts.workload, opts.seed, 0).run(false));
}

fn run_untraced(opts: &Options) -> Report {
    let w = opts.workload;
    warm_up(opts);
    let mut checks = Checks::new(w);
    let mut answers = Answers::default();
    let mut setup_s = Vec::new();
    let mut windows = Windows::new();
    repeat_within(opts.seconds, BLOCKS, |i| {
        let block = i % BLOCKS;
        let t = Instant::now();
        let setup = Setup::new(w, opts.seed, block);
        setup_s.push(t.elapsed().as_secs_f64());
        let first = checks.first(block);
        let (stream, pass) = setup.run(first);
        checks.measured(block, &pass, &format!("window {i} (block {block})"));
        if first {
            answers.add(&stream, &pass);
        }
        windows.add(block, &pass);
    });

    // Time metrics come from the minima of `Best`. `solve` runs one job
    // at a time, so its busy time and CPU are sums over its jobs; serve
    // jobs overlap, so serve's are each block's fastest and lowest
    // window.
    let latencies = windows.latencies_ms();
    let jobs = latencies.len() as f64;
    let (busy_s, cpu_ms) = match w {
        Workload::Solve => (
            latencies.iter().sum::<f64>() / 1e3,
            windows.blocks().flat_map(|b| &b.job_cpu_ms).sum::<f64>(),
        ),
        Workload::Serve | Workload::ServeFaults => (
            windows.best_wall_s(),
            windows
                .blocks()
                .map(|b| b.cpu.as_secs_f64() * 1e3)
                .sum::<f64>(),
        ),
    };
    let n = answers.jobs as f64;
    checks.check(answers.passed > 0, || {
        "no answer passed its grading bench".into()
    });
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("jobs_per_s", jobs / busy_s, "1/s"),
        metric("job_ms_p50", quantile(&latencies, 0.5), "ms"),
        metric("job_ms_p99", quantile(&latencies, 0.99), "ms"),
        metric("cpu_ms_per_job", cpu_ms / jobs, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("pass_at_1", answers.passed as f64 / n, "ratio"),
        metric("tokens_per_job", answers.tokens as f64 / n, "tokens"),
        metric("llm_calls_per_job", answers.llm_calls as f64 / n, "calls"),
    ];

    let each: Vec<String> = windows
        .jobs_per_s
        .iter()
        .map(|j| format!("{j:.0}"))
        .collect();
    let deciles: Vec<String> = (1..=9)
        .map(|d| format!("{:.3}", quantile(&latencies, f64::from(d) / 10.0)))
        .collect();
    let mut lines = header(opts);
    lines.extend([
        format!(
            "windows: {} (blocks in turn), jobs/s {}; time metrics from per-job minima \
             over each block's windows, latency percentiles over {} jobs",
            windows.jobs_per_s.len(),
            each.join(" "),
            latencies.len(),
        ),
        format!(
            "job_ms deciles: {}; p98 {:.3}, max {:.3}",
            deciles.join(" "),
            quantile(&latencies, 0.98),
            quantile(&latencies, 1.0)
        ),
        format!("latency by problem: {}", heaviest(&windows, opts.seed)),
        format!(
            "set-up: median of {} (one per window); grading: {}/{} answers pass \
             their golden bench",
            setup_s.len(),
            answers.passed,
            answers.jobs
        ),
    ]);
    lines.extend(checks.lines());
    Report {
        correct: checks.correct,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        lines,
    }
}

/// The three problems with the largest share of summed per-job minimum
/// latency (every block lists V2 in the same order).
fn heaviest(windows: &Windows, seed: u64) -> String {
    let problems = Stream::block(seed, 0).problems;
    let mut by_problem: Vec<(&str, f64)> = Vec::new();
    for best in windows.blocks() {
        for (problem, ms) in problems.iter().zip(&best.latencies_ms) {
            match by_problem.iter_mut().find(|(id, _)| *id == problem.id) {
                Some((_, sum)) => *sum += ms,
                None => by_problem.push((problem.id, *ms)),
            }
        }
    }
    let total: f64 = by_problem.iter().map(|(_, ms)| ms).sum();
    by_problem.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = by_problem
        .iter()
        .take(3)
        .map(|(id, ms)| format!("{id} {:.1}%", ms / total * 100.0))
        .collect();
    top.join(", ")
}

fn run_traced(opts: &Options) -> Report {
    let w = opts.workload;
    warm_up(opts);
    let mut checks = Checks::new(w);

    // Untraced and traced windows of each block alternate, so the
    // overhead compares windows measured under the same conditions.
    let ledger = Arc::new(Ledger::default());
    let mut plain = Windows::new();
    let mut traced = Windows::new();
    // The traced serve windows' reports and per-job virtual latencies.
    let mut reports: Vec<ServeReport> = Vec::new();
    let mut virtual_ms: Vec<f64> = Vec::new();
    repeat_within(opts.seconds, BLOCKS, |i| {
        let block = i % BLOCKS;
        let (stream, pass) = Setup::new(w, opts.seed, block).run(false);
        checks.measured(
            block,
            &pass,
            &format!("untraced window {i} (block {block})"),
        );
        plain.add(block, &pass);
        let mut pass = match w.plan() {
            None => solve_pass_traced(&stream, &ledger),
            Some(plan) => {
                serve_pass_traced(serve::traced_engine(&stream.specs, plan, &ledger), &ledger)
            }
        };
        checks.measured(block, &pass, &format!("traced window {i} (block {block})"));
        traced.add(block, &pass);
        if let Some((report, v)) = pass.serve.take() {
            reports.push(report);
            virtual_ms.extend(v);
        }
    });

    let jobs = traced.jobs as f64;
    let wall_ms = traced.wall.as_secs_f64() * 1e3;
    let overhead = traced.best_wall_s() / plain.best_wall_s() - 1.0;

    let l = &ledger;
    let calls = |s: &Span| s.calls() as f64 / jobs;
    let ms = |s: &Span| s.ms() / jobs;
    let count = |c: &Count| c.get() as f64 / jobs;
    // A serve counter summed over the traced windows (0 for `solve`).
    let served =
        |f: fn(&ServeReport) -> u64| -> f64 { reports.iter().map(|r| f(r) as f64).sum() };
    let hit_ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    let virtual_q = |q| {
        if virtual_ms.is_empty() {
            0.0
        } else {
            quantile(&virtual_ms, q)
        }
    };

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push(metric(name, value, unit));
    put("problems.oracle.ms", ms(&l.oracle), "ms/job");
    for ((_, kind), span) in LLM_KINDS.iter().zip(&l.llm) {
        put(&format!("llm.{kind}.calls"), calls(span), "calls/job");
        put(&format!("llm.{kind}.ms"), ms(span), "ms/job");
    }
    put("core.advance.calls", calls(&l.advance), "calls/job");
    put("core.advance.ms", ms(&l.advance), "ms/job");
    put("core.teardown.ms", ms(&l.teardown), "ms/job");
    put("sim.compile.calls", calls(&l.compile), "calls/job");
    put("sim.compile.ms", ms(&l.compile), "ms/job");
    put("sim.compile.errors", count(&l.compile_errors), "errors/job");
    put("sim.units_reused", count(&l.units_reused), "units/job");
    put("sim.units_rebuilt", count(&l.units_rebuilt), "units/job");
    put("tb.run.calls", calls(&l.tb), "calls/job");
    put("tb.run.ms", ms(&l.tb), "ms/job");
    put("tb.run.checks", count(&l.tb_checks), "checks/job");
    put("llm.service.calls", calls(&l.service), "calls/job");
    put(
        "llm.service.requests",
        count(&l.service_requests),
        "requests/job",
    );
    put("llm.service.ms", ms(&l.service), "ms/job");
    let batch = l.service_requests.get() as f64 / (l.service.calls() as f64).max(1.0);
    put("llm.batch_size", batch, "requests/call");
    put(
        "llm.retries",
        served(|r| r.stats.retries) / jobs,
        "retries/job",
    );
    put(
        "llm.hedges",
        served(|r| r.stats.hedges) / jobs,
        "hedges/job",
    );
    let defers = served(|r| r.stats.rate_limit_defers) / jobs;
    put("llm.rate_limit_defers", defers, "defers/job");
    let failovers = served(|r| r.stats.failovers) / jobs;
    put("llm.failovers", failovers, "failovers/job");
    put("llm.virtual_ms_p50", virtual_q(0.5), "ms");
    put("llm.virtual_ms_p99", virtual_q(0.99), "ms");
    put("serve.step.calls", calls(&l.step), "calls/job");
    put("serve.step.ms", ms(&l.step), "ms/job");
    // Step time not spent inside the service: advancing jobs, queueing
    // and waiting on the sim wave.
    put("serve.sched.ms", ms(&l.step) - ms(&l.service), "ms/job");
    let sim_requests = served(|r| r.stats.sim_requests as u64) / jobs;
    put("serve.sim.requests", sim_requests, "requests/job");
    let waves = served(|r| r.stats.sim_waves as u64) / jobs;
    put("serve.sim.waves", waves, "waves/job");
    let overlap = served(|r| r.stats.overlap_steps as u64) / jobs;
    put("serve.overlap_steps", overlap, "steps/job");
    let design = hit_ratio(
        served(|r| r.cache_hits as u64),
        served(|r| r.cache_misses as u64),
    );
    put("serve.design_cache.hit_ratio", design, "ratio");
    let score = hit_ratio(
        served(|r| r.score_hits as u64),
        served(|r| r.score_misses as u64),
    );
    put("serve.score_cache.hit_ratio", score, "ratio");
    let unit = hit_ratio(
        served(|r| r.unit_hits as u64),
        served(|r| r.unit_misses as u64),
    );
    put("serve.unit_cache.hit_ratio", unit, "ratio");
    let shortcircuits = served(|r| r.score_shortcircuits as u64) / jobs;
    put(
        "serve.score_cache.shortcircuits",
        shortcircuits,
        "count/job",
    );

    // The named layers: for `solve` the disjoint spans of the traced
    // driver; for serve every step (service time included).
    let named_ms = match w {
        Workload::Solve => {
            l.oracle.ms()
                + l.llm.iter().map(|s| s.ms()).sum::<f64>()
                + l.advance.ms()
                + l.teardown.ms()
                + l.compile.ms()
                + l.tb.ms()
        }
        Workload::Serve | Workload::ServeFaults => l.step.ms(),
    };
    let coverage = named_ms / wall_ms;
    put("trace.coverage", coverage, "share");
    put("trace.overhead", overhead, "share");

    let mut lines = header(opts);
    lines.push(format!(
        "traced: {} windows, {jobs} jobs, {wall_ms:.1} ms wall, each after an untraced \
         window of the same block",
        traced.jobs_per_s.len(),
    ));
    lines.push(format!(
        "trace: named layers cover {:.1}% of traced wall; tracing overhead {:+.1}% \
         (fastest windows per block, traced vs untraced)",
        coverage * 100.0,
        overhead * 100.0,
    ));
    for metric in m.iter().filter(|m| m.unit == "ms/job") {
        lines.push(format!(
            "  {:<24} {:>9.4} ms/job {:>6.1}% of traced wall",
            metric.name,
            metric.value,
            metric.value * jobs / wall_ms * 100.0
        ));
    }
    lines.extend(checks.lines());
    Report {
        correct: checks.correct,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
        lines,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: value + 0.0,
        unit,
    }
}

fn header(opts: &Options) -> Vec<String> {
    vec![format!(
        "perfbench {} seed {} trace {}: V2 x {BLOCK_RUNS} runs x {BLOCKS} blocks = {} jobs; \
         threads: {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        BLOCKS * Stream::block(opts.seed, 0).len(),
        match opts.workload {
            Workload::Solve => "1 (one client)",
            _ => "2 (scheduler + one sim wave), 16 clients in flight",
        }
    )]
}
