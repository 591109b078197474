//! Roster-based synthetic services for fleet shards.
//!
//! A plain [`synthetic_service`](mage_serve::synthetic_service) seeds
//! job `i`'s model from a spec table frozen at construction — which
//! cannot work on a shard, because a shard may later *receive* a
//! migrated job it never saw a spec for. The fleet variant reads a live
//! [`JobRoster`] instead: the shard thread registers `(problem_id,
//! seed)` under the local job id immediately before every push or
//! restore, so the factory always finds its entry.
//!
//! Seeding is identical to the single-engine service — each job's
//! model is its problem's [`mage_problems::Problem::job_model`] for the
//! job's own spec seed — which is the root of the fleet determinism
//! contract: a job's model (and hence its trace) does not depend on
//! which shard runs it.

use crate::shard::JobRoster;
use mage_llm::{DispatchPolicy, FaultPlan};
use mage_serve::{FaultyService, JobId, PerJobModels, SyntheticPerJob, SYNTHETIC_BACKENDS};

/// A shard's synthetic service: plan from `MAGE_FAULT_PLAN`, default
/// dispatch policy. Mirrors [`mage_serve::synthetic_service`] exactly
/// except that specs are read from the live roster.
pub fn synthetic_shard_service(roster: &JobRoster) -> FaultyService<SyntheticPerJob> {
    synthetic_shard_service_with(roster, FaultPlan::from_env(), DispatchPolicy::default())
}

/// [`synthetic_shard_service`] with an explicit fault plan and policy.
pub fn synthetic_shard_service_with(
    roster: &JobRoster,
    plan: FaultPlan,
    policy: DispatchPolicy,
) -> FaultyService<SyntheticPerJob> {
    let roster = roster.clone();
    let inner: SyntheticPerJob = PerJobModels::new(Box::new(move |id: JobId| {
        let (problem_id, seed) = roster.get(id).unwrap_or_else(|| {
            panic!("job {id} is not on this shard's roster (restore without registration?)")
        });
        let p = mage_problems::by_id(&problem_id).expect("problem registered in the registry");
        p.job_model(seed)
    }));
    FaultyService::new(inner, plan, SYNTHETIC_BACKENDS, policy)
}
