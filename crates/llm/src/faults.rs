//! Deterministic, seeded fault plans for the synthetic transport.
//!
//! A [`FaultPlan`] scripts what the network between the engine and a
//! model backend does to each call: nothing, a transient error, a
//! timeout, a rate limit with a retry-after, a garbled (corrupted in
//! transit) reply, or a hard backend-down. Every failure scenario is
//! replayable in CI without a network, and — the load-bearing property —
//! **the plan is a pure function of `(seed, request key, attempt)`**:
//!
//! * It holds no mutable state, so consulting it from differently
//!   ordered batches (batched vs scalar dispatch, capped vs uncapped
//!   admission, 1 vs 8 workers) yields the same per-request outcome
//!   sequence.
//! * It is keyed by the request (a hash of the rendered prompt, salted
//!   by the job) and the attempt number — never by backend identity,
//!   health scores, or global call order, so retry schedules are
//!   bit-identical across schedules.
//! * Backend-down comes in two flavours: a *drawn* [`FaultKind::BackendDown`]
//!   (a per-call blip, backend-independent like every other draw) and
//!   the *scripted* [`FaultSpec::dead_backends`] set (a static outage
//!   the dispatcher routes around, or drains against when total).
//!
//! A faulted call never reaches the model: the synthetic transport
//! resolves a request against its backend exactly once, at the final
//! successful attempt — so a stateful per-job model's completion stream
//! advances identically with or without an absorbable fault plan, and
//! solve traces stay bit-identical to the fault-free run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted call outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A retryable transport error (connection reset, 5xx, ...).
    Transient,
    /// The call exceeded the channel's timeout.
    Timeout,
    /// The backend shed load; retry after the advertised delay.
    RateLimited {
        /// Server-advertised wait before retrying, virtual ms.
        retry_after_ms: u64,
    },
    /// The reply arrived corrupted in transit (dropped before the
    /// model's output is observed — the model is never consulted).
    Garbled,
    /// The backend refused the connection for this call.
    BackendDown,
}

/// Fault probabilities and channel timings — the shape of a plan,
/// independent of its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability of [`FaultKind::Transient`] per attempt.
    pub transient: f64,
    /// Probability of [`FaultKind::Timeout`] per attempt.
    pub timeout: f64,
    /// Probability of [`FaultKind::RateLimited`] per attempt.
    pub rate_limit: f64,
    /// Probability of [`FaultKind::Garbled`] per attempt.
    pub garbled: f64,
    /// Probability of a drawn [`FaultKind::BackendDown`] per attempt.
    pub backend_down: f64,
    /// Retry-after advertised by rate limits, virtual ms.
    pub retry_after_ms: u64,
    /// Successful-call latency range `[lo, hi]`, virtual ms.
    pub latency_ms: (u64, u64),
    /// Latency charged by a timeout, virtual ms.
    pub timeout_ms: u64,
    /// Statically dead backends (scripted outage): the transport
    /// reports them unreachable for the whole run.
    pub dead_backends: Vec<usize>,
}

impl FaultSpec {
    /// No faults at all (the identity channel).
    pub fn none() -> Self {
        FaultSpec {
            transient: 0.0,
            timeout: 0.0,
            rate_limit: 0.0,
            garbled: 0.0,
            backend_down: 0.0,
            retry_after_ms: 0,
            latency_ms: (50, 50),
            timeout_ms: 0,
            dead_backends: Vec::new(),
        }
    }

    /// The canonical CI mix: every fault kind occurs, every one is
    /// absorbable by the default retry policy (no dead backends, low
    /// enough rates that bounded retries recover), so a canonical-plan
    /// run produces traces identical to the fault-free run while
    /// exercising every resilience path.
    pub fn canonical() -> Self {
        FaultSpec {
            transient: 0.10,
            timeout: 0.03,
            rate_limit: 0.06,
            garbled: 0.03,
            backend_down: 0.02,
            retry_after_ms: 120,
            latency_ms: (40, 90),
            timeout_ms: 400,
            dead_backends: Vec::new(),
        }
    }

    /// Only transient errors, at a rate retries trivially absorb.
    pub fn single_transient() -> Self {
        FaultSpec {
            transient: 0.25,
            ..FaultSpec::none()
        }
    }

    /// A rate-limit burst: half of all calls are shed.
    pub fn burst_rate_limit() -> Self {
        FaultSpec {
            rate_limit: 0.5,
            retry_after_ms: 200,
            ..FaultSpec::none()
        }
    }

    /// Backend 0 is hard-down; a light canonical mix rides along.
    pub fn one_backend_dead() -> Self {
        FaultSpec {
            transient: 0.05,
            dead_backends: vec![0],
            ..FaultSpec::none()
        }
    }

    /// Every backend of an `n`-backend pool is hard-down — the graceful
    /// drain scenario.
    pub fn all_dead(n: usize) -> Self {
        FaultSpec {
            dead_backends: (0..n).collect(),
            ..FaultSpec::none()
        }
    }

    /// Heavy timeouts with a punishing per-timeout latency — pair with
    /// a per-job deadline to exercise stuck-work cancellation.
    pub fn mid_wave_timeout() -> Self {
        FaultSpec {
            timeout: 0.45,
            timeout_ms: 5_000,
            ..FaultSpec::none()
        }
    }

    fn fault_mass(&self) -> f64 {
        self.transient + self.timeout + self.rate_limit + self.garbled + self.backend_down
    }
}

/// A seeded fault plan: [`FaultSpec`] probabilities realized through a
/// per-`(seed, key, attempt)` RNG. Stateless — see the module docs for
/// why that is the determinism keystone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan seed (same seed + same spec ⇒ same outcome for every
    /// `(key, attempt)`).
    pub seed: u64,
    /// Fault probabilities and timings.
    pub spec: FaultSpec,
}

/// Draw-domain separators so the outcome, latency, hedge and jitter
/// streams of one `(key, attempt)` are independent.
const SALT_DECIDE: u64 = 0xD5C1_DE00;
const SALT_LATENCY: u64 = 0x1A7E_0C11;
const SALT_HEDGE: u64 = 0x4ED6_ED01;

/// SplitMix64-style finalizer over the combined draw coordinates.
fn mix(seed: u64, key: u64, attempt: u32, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.rotate_left(17))
        .wrapping_add((attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: no faults, fixed latency. [`FaultPlan::is_empty`]
    /// holds, so wrappers take their zero-overhead passthrough path.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            spec: FaultSpec::none(),
        }
    }

    /// A seeded plan over a spec.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan { seed, spec }
    }

    /// The canonical CI plan at its conventional seed.
    pub fn canonical() -> Self {
        FaultPlan::new(0xFA17, FaultSpec::canonical())
    }

    /// `true` when the plan can never produce a fault (wrappers then
    /// behave byte-identically to no wrapper at all).
    pub fn is_empty(&self) -> bool {
        self.spec.fault_mass() == 0.0 && self.spec.dead_backends.is_empty()
    }

    /// Is `backend` scripted dead for the whole run?
    pub fn dead(&self, backend: usize) -> bool {
        self.spec.dead_backends.contains(&backend)
    }

    /// The scripted fault of `(key, attempt)`, or `None` for a clean
    /// call. Pure: same plan, same arguments, same answer — regardless
    /// of which backend serves, in which batch, on which scheduler.
    pub fn decide(&self, key: u64, attempt: u32) -> Option<FaultKind> {
        if self.spec.fault_mass() == 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, key, attempt, SALT_DECIDE));
        let draw: f64 = rng.gen();
        let s = &self.spec;
        let mut edge = s.transient;
        if draw < edge {
            return Some(FaultKind::Transient);
        }
        edge += s.timeout;
        if draw < edge {
            return Some(FaultKind::Timeout);
        }
        edge += s.rate_limit;
        if draw < edge {
            return Some(FaultKind::RateLimited {
                retry_after_ms: s.retry_after_ms,
            });
        }
        edge += s.garbled;
        if draw < edge {
            return Some(FaultKind::Garbled);
        }
        edge += s.backend_down;
        if draw < edge {
            return Some(FaultKind::BackendDown);
        }
        None
    }

    /// Virtual latency of `(key, attempt)`, drawn uniformly from the
    /// spec's range. Backend-independent by construction.
    pub fn latency_ms(&self, key: u64, attempt: u32) -> u64 {
        let (lo, hi) = self.spec.latency_ms;
        if lo >= hi {
            return lo;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, key, attempt, SALT_LATENCY));
        rng.gen_range(lo..=hi)
    }

    /// Virtual latency of a *hedged duplicate* of `(key, attempt)` — an
    /// independent draw from the same range, and deliberately not a
    /// function of the hedging backend (so hedge schedules stay
    /// identical however health routing evolved).
    pub fn hedge_latency_ms(&self, key: u64, attempt: u32) -> u64 {
        let (lo, hi) = self.spec.latency_ms;
        if lo >= hi {
            return lo;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, key, attempt, SALT_HEDGE));
        rng.gen_range(lo..=hi)
    }

    /// Parse a `--fault-plan` flag / `MAGE_FAULT_PLAN` value.
    ///
    /// Accepted forms: a bare spec name (`canonical`, conventional
    /// seed) or `<seed>:<spec>` with the seed in decimal or `0x` hex.
    /// Spec names: `none`, `canonical`, `single-transient`,
    /// `burst-rate-limit`, `one-backend-dead`, `all-dead` (three dead
    /// backends), `mid-wave-timeout`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, name) = match s.split_once(':') {
            Some((seed, name)) => {
                let seed = if let Some(hex) = seed.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    seed.parse()
                }
                .map_err(|_| format!("bad fault-plan seed `{seed}`"))?;
                (seed, name)
            }
            None => (0xFA17, s),
        };
        let spec = match name {
            "none" => FaultSpec::none(),
            "canonical" => FaultSpec::canonical(),
            "single-transient" => FaultSpec::single_transient(),
            "burst-rate-limit" => FaultSpec::burst_rate_limit(),
            "one-backend-dead" => FaultSpec::one_backend_dead(),
            "all-dead" => FaultSpec::all_dead(3),
            "mid-wave-timeout" => FaultSpec::mid_wave_timeout(),
            other => return Err(format!("unknown fault-plan spec `{other}`")),
        };
        Ok(FaultPlan::new(seed, spec))
    }

    /// The plan named by the `MAGE_FAULT_PLAN` environment variable, or
    /// the empty plan when unset/empty. Panics on an unparseable value
    /// (a misspelled CI hook should fail loudly, not silently run
    /// fault-free).
    pub fn from_env() -> FaultPlan {
        match std::env::var("MAGE_FAULT_PLAN") {
            Ok(v) if !v.is_empty() => {
                FaultPlan::parse(&v).unwrap_or_else(|e| panic!("MAGE_FAULT_PLAN: {e}"))
            }
            _ => FaultPlan::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let plan = FaultPlan::canonical();
        for key in [1u64, 0xDEAD_BEEF, u64::MAX] {
            for attempt in 0..8 {
                assert_eq!(plan.decide(key, attempt), plan.decide(key, attempt));
                assert_eq!(plan.latency_ms(key, attempt), plan.latency_ms(key, attempt));
            }
        }
        let other = FaultPlan::new(0xFA18, FaultSpec::canonical());
        let differs = (0..256u64).any(|k| plan.decide(k, 0) != other.decide(k, 0));
        assert!(differs, "seed must steer the outcome stream");
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for key in 0..64u64 {
            assert_eq!(plan.decide(key, 0), None);
        }
        assert!(!FaultPlan::canonical().is_empty());
        assert!(!FaultPlan::new(1, FaultSpec::all_dead(2)).is_empty());
    }

    #[test]
    fn canonical_rates_are_roughly_calibrated() {
        let plan = FaultPlan::canonical();
        let n = 4000u64;
        let faults = (0..n).filter(|&k| plan.decide(k, 0).is_some()).count();
        let rate = faults as f64 / n as f64;
        // Spec mass is 0.24; allow generous sampling slack.
        assert!((0.18..0.30).contains(&rate), "fault rate {rate}");
    }

    #[test]
    fn latency_respects_range_and_hedge_is_independent() {
        let plan = FaultPlan::canonical();
        let (lo, hi) = plan.spec.latency_ms;
        let mut hedge_differs = false;
        for key in 0..512u64 {
            let l = plan.latency_ms(key, 0);
            let h = plan.hedge_latency_ms(key, 0);
            assert!((lo..=hi).contains(&l));
            assert!((lo..=hi).contains(&h));
            hedge_differs |= l != h;
        }
        assert!(hedge_differs, "hedge draws must be a separate stream");
    }

    #[test]
    fn dead_backends_are_scripted_statically() {
        let plan = FaultPlan::new(7, FaultSpec::one_backend_dead());
        assert!(plan.dead(0));
        assert!(!plan.dead(1));
        let drain = FaultPlan::new(7, FaultSpec::all_dead(3));
        assert!((0..3).all(|b| drain.dead(b)));
        assert!(!drain.dead(3));
    }

    #[test]
    fn parse_round_trips_names_and_seeds() {
        assert_eq!(
            FaultPlan::parse("canonical").unwrap(),
            FaultPlan::canonical()
        );
        let p = FaultPlan::parse("0xBEEF:single-transient").unwrap();
        assert_eq!(p.seed, 0xBEEF);
        assert_eq!(p.spec, FaultSpec::single_transient());
        let q = FaultPlan::parse("42:burst-rate-limit").unwrap();
        assert_eq!(q.seed, 42);
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("xyz:canonical").is_err());
    }
}
