//! The job stream every workload runs, and the per-job digest that
//! proves two workloads did the same solve work.

use mage_core::experiments::unit_seed;
use mage_core::{MageConfig, SolveTrace};
use mage_problems::{suite, Problem, SuiteId};
use mage_serve::JobSpec;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Runs of the V2 suite in one block: 67 problems × 15 runs = 1,005
/// jobs, so a window (one block) holds more than 1,000 jobs and the
/// p99 of its per-job latencies has ten jobs beyond it.
pub const BLOCK_RUNS: usize = 15;

/// Blocks in the stream. One: every window reruns the same 1,005 jobs,
/// so a 50 s run gives each `solve` job about forty samples and
/// `serve_faults` about seventeen windows to take minima over. With
/// four blocks of distinct jobs `serve_faults` got three or four
/// windows per block, too few to outlast a contention episode.
pub const BLOCKS: usize = 1;

/// Runs in the stream.
pub const RUNS: usize = BLOCKS * BLOCK_RUNS;

/// The master seed of every job's `unit_seed`. The job set is the same
/// for every stream seed, which only orders it (see [`run_order`]): a
/// 15-run block's solve time varies by up to a quarter with its jobs'
/// draws, so seed-dependent jobs would make seeds measure different
/// work rather than the program's noise.
pub const JOB_SEED: u64 = 1;

/// A slice of the job stream: V2 passes for the given runs, run-major,
/// each job seeded with `unit_seed(JOB_SEED, run, problem)` and
/// configured with the paper's high-temperature MAGE protocol.
#[derive(Debug, Clone)]
pub struct Stream {
    /// One spec per job, in job order (what the program receives).
    pub specs: Vec<JobSpec>,
    /// The registry problem of each job (for grading).
    pub problems: Vec<&'static Problem>,
}

impl Stream {
    /// V2 passes for `runs`, in that order.
    pub fn of_runs(runs: &[usize]) -> Self {
        let v2 = suite(SuiteId::V2);
        let mut specs = Vec::with_capacity(runs.len() * v2.len());
        let mut problems = Vec::with_capacity(runs.len() * v2.len());
        for &run in runs {
            for &p in &v2 {
                specs.push(JobSpec {
                    problem_id: p.id.to_string(),
                    spec: p.spec.to_string(),
                    config: MageConfig::high_temperature(),
                    seed: unit_seed(JOB_SEED, run, p.id),
                });
                problems.push(p);
            }
        }
        Stream { specs, problems }
    }

    /// Block `block` (of [`BLOCKS`]) of `seed`'s stream: the next
    /// [`BLOCK_RUNS`] runs of [`run_order`]`(seed)`.
    pub fn block(seed: u64, block: usize) -> Self {
        let order = run_order(seed);
        Stream::of_runs(&order[block * BLOCK_RUNS..(block + 1) * BLOCK_RUNS])
    }

    /// Jobs in the stream.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` for an empty stream.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Runs `0..RUNS` in `seed`'s order: a Fisher–Yates shuffle drawn from
/// SplitMix64. The seed decides which runs share a block (and so an
/// engine) and in which order they arrive.
pub fn run_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..RUNS).collect();
    let mut state = seed;
    for i in (1..RUNS).rev() {
        let j = splitmix64(&mut state) % (i as u64 + 1);
        order.swap(i, usize::try_from(j).expect("index below RUNS"));
    }
    order
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What two runs of one job must agree on: the final answer, its score,
/// the token usage, and whether the job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceDigest {
    source_hash: u64,
    score_bits: u64,
    prompt_tokens: usize,
    completion_tokens: usize,
    failed: bool,
}

impl TraceDigest {
    /// Digest one finished solve.
    pub fn of(trace: &SolveTrace) -> Self {
        let mut h = DefaultHasher::new();
        trace.final_source.hash(&mut h);
        TraceDigest {
            source_hash: h.finish(),
            score_bits: trace.final_score.to_bits(),
            prompt_tokens: trace.usage.prompt,
            completion_tokens: trace.usage.completion,
            failed: trace.outcome.is_failed(),
        }
    }

    /// `true` when the job finished as `JobOutcome::Failed`.
    pub fn failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_orders_the_same_runs() {
        let mut a = run_order(1);
        let b = run_order(7919);
        assert_ne!(a, b, "seeds order the runs differently");
        assert_eq!(a, run_order(1), "a seed repeats its order");
        a.sort_unstable();
        assert_eq!(a, (0..RUNS).collect::<Vec<_>>());
    }
}
