//! The shared result caches: elaborations ([`DesignCache`]), scoring
//! outcomes ([`ScoreCache`]), and per-process compilation units
//! ([`UnitCache`]). Each is one [`CacheTier`] keyed by a 64-bit hash and
//! witnessed by the full text it was hashed from; the tier alone owns
//! verify-on-hit, LRU eviction, parent tiering and the hit / miss /
//! collision / promotion counters (see [`mage_core::units`]). The two
//! wrappers here only choose the key and witness and say what to compute
//! on a miss; their counters are the tier's (through `Deref`).
//!
//! # Tiered fabric
//!
//! Every cache can be built `tiered`: a small local tier backed by a
//! shared global parent. A local miss consults the parent before
//! computing; a parent hit is **promoted** into the local tier, and
//! every fresh computation is published to the parent so sibling tiers
//! can reuse it. Entries are schedule-independent facts (pure functions
//! of their key text), so the fabric can only change *where* work
//! happens, never *what* any lookup returns — tiering is invisible to
//! traces by construction.

use mage_core::solvejob::{SimOutcome, SimRequest};
use mage_core::{compile_pooled, CacheTier, UnitCache};
use mage_sim::Design;
use mage_tb::Testbench;
use std::fmt::Write;
use std::ops::Deref;
use std::sync::Arc;

/// Default entry bound: comfortably above any one round's working set,
/// small enough that a day-long stream cannot grow without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Hash function keying the design and score caches. Injectable so
/// tests can force distinct inputs onto one key and exercise the
/// collision path.
pub type SourceHasher = fn(&str) -> u64;

fn fnv1a_source(source: &str) -> u64 {
    mage_logic::fnv1a(source.as_bytes())
}

/// The tier behind a [`DesignCache`]: candidate source text to its
/// elaboration result.
type DesignTier = CacheTier<u64, str, Result<Arc<Design>, String>>;

/// A bounded map from candidate source text to its elaboration result,
/// shared by every job (and every engine) holding the same
/// `Arc<DesignCache>`.
///
/// Keying: `fnv1a(source bytes)` over the *full* source text, with the
/// text itself as the witness — a colliding lookup falls through to a
/// real compile instead of returning the wrong design. Elaboration is a
/// pure function of that text, so entries are schedule-independent facts
/// — sharing them across jobs cannot leak state between solves, and
/// evicting one only costs a recompile (the determinism suite verifies
/// warmth changes nothing). Both successes (`Arc<Design>`) and failures
/// (the diagnostic string fed to the syntax-repair loop) are cached; the
/// syntax loop re-probes the same broken source often. LRU eviction
/// keeps the hot grading benches and re-probed syntax-repair sources
/// resident through a stream of unique high-temperature candidates.
pub struct DesignCache {
    tier: Arc<DesignTier>,
    hasher: SourceHasher,
}

impl Default for DesignCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl Deref for DesignCache {
    type Target = DesignTier;

    fn deref(&self) -> &DesignTier {
        &self.tier
    }
}

impl DesignCache {
    /// An empty cache with the [default capacity](DEFAULT_CACHE_CAPACITY).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, fnv1a_source)
    }

    /// An empty cache with an explicit key hasher. The production hasher
    /// is FNV-1a over the full source; tests inject degenerate hashers
    /// to force key collisions.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: SourceHasher) -> Self {
        DesignCache {
            tier: Arc::new(CacheTier::with_capacity(capacity)),
            hasher,
        }
    }

    /// A local tier bounded to `capacity` entries over `parent`'s,
    /// keyed by the parent's hasher: local misses consult the parent
    /// (promoting hits locally) and fresh compiles are published to it.
    pub fn tiered(capacity: usize, parent: &DesignCache) -> Self {
        DesignCache {
            tier: Arc::new(CacheTier::tiered(capacity, Arc::clone(&parent.tier))),
            hasher: parent.hasher,
        }
    }

    /// Look up `source`, compiling it on a miss with
    /// [`compile_pooled`]: unchanged process units come from `parent`
    /// (the design the source was derived from) and from the shared
    /// unit tier `units`, and fresh units publish to `units`. The hints
    /// never change the cached result — a delta-built design is
    /// store-exact against a from-scratch compile.
    pub fn get_or_compile(
        &self,
        source: &str,
        parent: Option<&Arc<Design>>,
        units: &UnitCache,
    ) -> Result<Arc<Design>, String> {
        self.tier
            .get_or_insert_with((self.hasher)(source), source, || {
                compile_pooled(source, parent, units).map(|(design, _)| design)
            })
    }
}

/// Default [`ScoreCache`] entry bound. Scored outcomes carry full
/// reports (one record per bench step), so the bound sits below the
/// design cache's.
pub const DEFAULT_SCORE_CAPACITY: usize = 4096;

/// The tier behind a [`ScoreCache`]: score identity text to outcome.
type ScoreTier = CacheTier<u64, str, SimOutcome>;

/// The identity text a scored outcome is keyed under and verified
/// against: candidate source and the bench's full structural rendering,
/// NUL-joined (Verilog source never contains NUL, so the pair cannot
/// alias across the boundary). Two benches share scores iff their
/// renderings are identical.
fn score_identity(source: &str, tb: &Testbench) -> String {
    let mut identity = String::with_capacity(source.len() + 64);
    identity.push_str(source);
    identity.push('\0');
    write!(identity, "{tb:?}").expect("formatting into a String cannot fail");
    identity
}

/// A bounded map from `(candidate source, bench content)` to the full
/// scoring outcome, shared across jobs exactly like [`DesignCache`].
///
/// Scores could not ride the design cache: a score depends on the
/// *bench* the job generated, and benches are per-job artifacts. But
/// they are still pure — [`mage_tb::run_testbench`] is a deterministic
/// function of `(bench, design)`, and the design is a pure function of
/// the source — so two jobs that generated *textually identical*
/// benches for the same candidate source must observe the same report
/// and score. This cache shares exactly those: the key is
/// `fnv1a(source ++ NUL ++ bench text)` with that full identity text as
/// the witness, so a colliding lookup falls through to a real
/// simulation.
///
/// Compile-only probes (no bench) are never cached here — the design
/// cache already covers them.
pub struct ScoreCache {
    tier: Arc<ScoreTier>,
    hasher: SourceHasher,
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SCORE_CAPACITY)
    }
}

impl Deref for ScoreCache {
    type Target = ScoreTier;

    fn deref(&self) -> &ScoreTier {
        &self.tier
    }
}

impl ScoreCache {
    /// An empty cache with the [default capacity](DEFAULT_SCORE_CAPACITY).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, fnv1a_source)
    }

    /// An empty cache with an explicit hasher over the score identity
    /// text; tests inject degenerate hashers to force key collisions.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: SourceHasher) -> Self {
        ScoreCache {
            tier: Arc::new(CacheTier::with_capacity(capacity)),
            hasher,
        }
    }

    /// A local tier bounded to `capacity` entries over `parent`'s, keyed
    /// by the parent's hasher — the scoring side of the tiered fabric
    /// (see the module docs).
    pub fn tiered(capacity: usize, parent: &ScoreCache) -> Self {
        ScoreCache {
            tier: Arc::new(CacheTier::tiered(capacity, Arc::clone(&parent.tier))),
            hasher: parent.hasher,
        }
    }

    /// Resolve `req` through the cache: a scoring request whose
    /// `(source, bench)` identity was seen before returns the cached
    /// outcome; anything else runs `execute` (and, for scoring
    /// requests, caches the result).
    pub fn get_or_run(
        &self,
        req: &SimRequest,
        execute: impl FnOnce(&SimRequest) -> SimOutcome,
    ) -> SimOutcome {
        let Some(bench) = &req.bench else {
            // Compile-only probe: the design cache's territory.
            return execute(req);
        };
        let identity = score_identity(&req.source, bench);
        self.tier
            .get_or_insert_with((self.hasher)(&identity), &identity, || execute(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_core::compile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const GOOD: &str = "module top_module(input a, output y); assign y = a; endmodule";
    const BAD: &str = "module top_module(input a, output y assign y = a; endmodule";

    fn src(name: &str) -> String {
        format!("module {name}(input a, output y); assign y = a; endmodule")
    }

    /// A compile through `cache` with no parent and a throwaway unit tier.
    fn compile_in(cache: &DesignCache, source: &str) -> Result<Arc<Design>, String> {
        cache.get_or_compile(source, None, &UnitCache::new())
    }

    #[test]
    fn caches_successes_and_failures() {
        let cache = DesignCache::new();
        let d1 = compile_in(&cache, GOOD).expect("elaborates");
        let d2 = compile_in(&cache, GOOD).expect("elaborates");
        assert!(Arc::ptr_eq(&d1, &d2), "second lookup must reuse the design");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let e1 = compile_in(&cache, BAD).unwrap_err();
        let e2 = compile_in(&cache, BAD).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.collisions(), 0);
    }

    #[test]
    fn cached_result_matches_direct_compile() {
        let cache = DesignCache::new();
        assert_eq!(compile_in(&cache, GOOD).is_ok(), compile(GOOD).is_ok());
        assert_eq!(
            compile_in(&cache, BAD).unwrap_err(),
            compile(BAD).unwrap_err()
        );
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = DesignCache::with_capacity(2);
        let (a, b, c) = (src("m_a"), src("m_b"), src("m_c"));
        compile_in(&cache, &a).unwrap();
        compile_in(&cache, &b).unwrap();
        assert_eq!(cache.len(), 2);
        compile_in(&cache, &c).unwrap(); // evicts a
        assert_eq!(cache.len(), 2);
        // b and c still hit; a recompiles (a miss), with identical result.
        let misses = cache.misses();
        compile_in(&cache, &b).unwrap();
        compile_in(&cache, &c).unwrap();
        assert_eq!(cache.misses(), misses);
        let again = compile_in(&cache, &a).unwrap();
        assert_eq!(cache.misses(), misses + 1);
        // The recompile is a fresh but equivalent elaboration.
        assert!(!Arc::ptr_eq(&again, &compile_in(&cache, &b).unwrap()));
        assert!(compile(&a).is_ok());
    }

    #[test]
    fn lru_evicts_least_recently_used_not_oldest_insert() {
        let cache = DesignCache::with_capacity(2);
        let (a, b, c) = (src("m_a"), src("m_b"), src("m_c"));
        compile_in(&cache, &a).unwrap(); // oldest insert…
        compile_in(&cache, &b).unwrap();
        compile_in(&cache, &a).unwrap(); // …but most recently used
        compile_in(&cache, &c).unwrap(); // evicts b, not a
        let misses = cache.misses();
        compile_in(&cache, &a).unwrap();
        assert_eq!(cache.misses(), misses, "promoted entry must survive");
        compile_in(&cache, &b).unwrap();
        assert_eq!(cache.misses(), misses + 1, "unpromoted entry evicted");
    }

    /// Degenerate hasher mapping every input to one key.
    fn collide_all(_: &str) -> u64 {
        42
    }

    #[test]
    fn colliding_sources_both_get_correct_designs() {
        let cache = DesignCache::with_capacity_and_hasher(8, collide_all);
        let (a, b) = (src("m_a"), src("m_b"));
        let da = compile_in(&cache, &a).expect("a elaborates");
        assert_eq!(da.top, "m_a");
        // Same key, different source: must NOT be served `m_a`'s design.
        let db = compile_in(&cache, &b).expect("b elaborates");
        assert_eq!(db.top, "m_b", "collision must not serve the wrong design");
        assert_eq!(cache.collisions(), 1);
        // And probing back is again correct (the slot now holds `m_b`).
        let da2 = compile_in(&cache, &a).expect("a elaborates");
        assert_eq!(da2.top, "m_a");
        assert_eq!(cache.collisions(), 2);
        assert_eq!(cache.len(), 1, "one slot thrashes; correctness holds");
    }

    #[test]
    fn colliding_failure_does_not_poison_success() {
        let cache = DesignCache::with_capacity_and_hasher(8, collide_all);
        assert!(compile_in(&cache, BAD).is_err());
        // A different (valid) source on the same key compiles cleanly.
        assert!(compile_in(&cache, GOOD).is_ok());
    }

    #[test]
    fn hit_promotes_entry_under_unique_candidate_stream() {
        let cache = DesignCache::with_capacity(4);
        let hot = src("hot_bench");
        compile_in(&cache, &hot).unwrap();
        // Stream of unique candidates, with the hot entry re-probed
        // between arrivals (the grading-bench access pattern). Under
        // FIFO eviction the hot entry would be flushed as the oldest
        // insert; LRU promotion keeps it resident throughout.
        for i in 0..32 {
            compile_in(&cache, &src(&format!("cand_{i}"))).unwrap();
            let misses = cache.misses();
            compile_in(&cache, &hot).unwrap();
            assert_eq!(
                cache.misses(),
                misses,
                "hot entry evicted after unique candidate #{i}"
            );
        }
        assert!(cache.hits() >= 32);
    }

    fn bench(name: &str, steps: usize) -> Arc<Testbench> {
        Arc::new(Testbench {
            name: name.to_string(),
            clock: None,
            steps: (0..steps).map(|_| Default::default()).collect(),
        })
    }

    fn score_req(source: &str, bench: Option<Arc<Testbench>>) -> SimRequest {
        SimRequest {
            source: source.to_string(),
            design: None,
            bench,
            parent: None,
        }
    }

    fn fake_outcome(score: f64) -> SimOutcome {
        SimOutcome {
            design: Err("stub".into()),
            report: None,
            score,
        }
    }

    #[test]
    fn identical_source_and_bench_share_one_simulation() {
        let cache = ScoreCache::new();
        let runs = AtomicUsize::new(0);
        let req = score_req(GOOD, Some(bench("tb", 2)));
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.75)
        };
        let a = cache.get_or_run(&req, run);
        let b = cache.get_or_run(&req, run);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "second lookup must hit");
        assert_eq!(a.score, b.score);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn different_bench_text_does_not_share_scores() {
        let cache = ScoreCache::new();
        let runs = AtomicUsize::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.5)
        };
        cache.get_or_run(&score_req(GOOD, Some(bench("tb", 2))), run);
        cache.get_or_run(&score_req(GOOD, Some(bench("tb", 3))), run);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "a structurally different bench must score fresh"
        );
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn compile_only_probes_bypass_the_score_cache() {
        let cache = ScoreCache::new();
        let runs = AtomicUsize::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.0)
        };
        cache.get_or_run(&score_req(GOOD, None), run);
        cache.get_or_run(&score_req(GOOD, None), run);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert!(cache.is_empty(), "probes must not occupy score slots");
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn colliding_score_identities_both_run_fresh() {
        let cache = ScoreCache::with_capacity_and_hasher(8, collide_all);
        let tb = bench("tb", 1);
        let a = cache.get_or_run(&score_req(&src("m_a"), Some(Arc::clone(&tb))), |_| {
            fake_outcome(0.25)
        });
        // Same key, different identity: must NOT serve m_a's outcome.
        let b = cache.get_or_run(&score_req(&src("m_b"), Some(Arc::clone(&tb))), |_| {
            fake_outcome(0.75)
        });
        assert_eq!(a.score, 0.25);
        assert_eq!(b.score, 0.75, "collision must not serve the wrong score");
        assert_eq!(cache.collisions(), 1);
        assert_eq!(cache.len(), 1, "one slot thrashes; correctness holds");
    }

    #[test]
    fn score_lru_promotes_on_hit() {
        let cache = ScoreCache::with_capacity(2);
        let tb = bench("tb", 1);
        let req = |name: &str| score_req(&src(name), Some(Arc::clone(&tb)));
        cache.get_or_run(&req("m_a"), |_| fake_outcome(0.1)); // oldest insert…
        cache.get_or_run(&req("m_b"), |_| fake_outcome(0.2));
        cache.get_or_run(&req("m_a"), |_| fake_outcome(9.9)); // …but recently hit
        cache.get_or_run(&req("m_c"), |_| fake_outcome(0.3)); // evicts m_b
        let misses = cache.misses();
        let a = cache.get_or_run(&req("m_a"), |_| fake_outcome(9.9));
        assert_eq!(cache.misses(), misses, "promoted entry must survive");
        assert_eq!(a.score, 0.1, "hit returns the original outcome");
        cache.get_or_run(&req("m_b"), |_| fake_outcome(0.2));
        assert_eq!(cache.misses(), misses + 1, "unpromoted entry evicted");
    }

    #[test]
    fn tiered_design_miss_promotes_from_global() {
        let global = DesignCache::with_capacity(64);
        let shard_a = DesignCache::tiered(8, &global);
        let shard_b = DesignCache::tiered(8, &global);
        let s = src("m_shared");
        // Shard A compiles once and publishes to the global tier.
        compile_in(&shard_a, &s).unwrap();
        assert_eq!(shard_a.misses(), 1);
        assert_eq!(shard_a.promotions(), 0);
        assert_eq!(global.len(), 1);
        // Shard B misses locally but promotes from global — no compile
        // (observable: global counts a hit, B counts a promotion).
        compile_in(&shard_b, &s).unwrap();
        assert_eq!(shard_b.misses(), 1);
        assert_eq!(shard_b.promotions(), 1);
        assert_eq!(global.hits(), 1);
        // Now resident locally: the next lookup never leaves shard B.
        let global_ticks = global.hits() + global.misses();
        compile_in(&shard_b, &s).unwrap();
        assert_eq!(shard_b.hits(), 1);
        assert_eq!(global.hits() + global.misses(), global_ticks);
    }

    #[test]
    fn tiered_design_survives_local_eviction_via_global() {
        let global = DesignCache::with_capacity(64);
        let local = DesignCache::tiered(2, &global);
        let keep = src("m_keep");
        compile_in(&local, &keep).unwrap();
        // Flush the local tier with fresh sources.
        for i in 0..4 {
            compile_in(&local, &src(&format!("m_f{i}"))).unwrap();
        }
        // Locally evicted, globally retained: promotion, not recompile.
        let promos = local.promotions();
        let d = compile_in(&local, &keep).unwrap();
        assert_eq!(d.top, "m_keep");
        assert_eq!(local.promotions(), promos + 1);
        assert_eq!(global.len(), 5);
    }

    #[test]
    fn tiered_design_collision_in_global_falls_through() {
        // A local tier shares its parent's hasher; a colliding global
        // tier must never serve the wrong design — the local tier
        // compiles fresh instead.
        let global = DesignCache::with_capacity_and_hasher(8, |_| 42);
        let local = DesignCache::tiered(8, &global);
        let (a, b) = (src("m_a"), src("m_b"));
        compile_in(&local, &a).unwrap();
        let db = compile_in(&local, &b).expect("b elaborates");
        assert_eq!(db.top, "m_b", "global collision must not cross-serve");
        assert_eq!(local.promotions(), 0);
        assert!(global.collisions() >= 1);
    }

    #[test]
    fn tiered_scores_share_across_locals() {
        let global = ScoreCache::with_capacity(64);
        let shard_a = ScoreCache::tiered(8, &global);
        let shard_b = ScoreCache::tiered(8, &global);
        let runs = AtomicUsize::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.6)
        };
        let req = score_req(GOOD, Some(bench("tb", 2)));
        let a = shard_a.get_or_run(&req, run);
        let b = shard_b.get_or_run(&req, run);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one simulation total");
        assert_eq!(a.score, b.score);
        assert_eq!(shard_b.promotions(), 1);
        assert_eq!(global.hits(), 1);
        // Compile-only probes stay out of every tier.
        shard_a.get_or_run(&score_req(GOOD, None), run);
        assert_eq!(global.len(), 1);
    }

    const DELTA_BASE: &str =
        "module top_module(input clk, input a, input b, output reg q, output w);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         always @(posedge clk) q <= x;\n\
         endmodule\n";

    #[test]
    fn unit_cache_fills_on_miss_and_serves_sibling_compiles() {
        let units = UnitCache::new();
        let cache = DesignCache::new();
        let d1 = cache
            .get_or_compile(DELTA_BASE, None, &units)
            .expect("elaborates");
        // Every unit was rebuilt and published.
        assert_eq!(units.len(), d1.processes.len());
        assert_eq!(units.hits(), 0);
        assert!(units.misses() >= d1.processes.len());
        // A one-process edit on a *distinct source*: the design cache
        // misses, the unit cache serves everything unchanged.
        let edited = DELTA_BASE.replace("x | a", "x ^ a");
        let d2 = cache
            .get_or_compile(&edited, None, &units)
            .expect("elaborates");
        assert_eq!(units.hits(), d1.processes.len() - 1);
        // The delta-built design is store-exact vs from-scratch.
        let scratch = compile(&edited).unwrap();
        assert_eq!(d2.processes, scratch.processes);
        assert_eq!(
            format!("{:?}", d2.compiled().procs),
            format!("{:?}", scratch.compiled().procs),
        );
    }

    #[test]
    fn unit_cache_parent_hint_beats_cold_units() {
        let cache = DesignCache::new();
        let parent = compile_in(&cache, DELTA_BASE).expect("elaborates");
        let units = UnitCache::new();
        let edited = DELTA_BASE.replace("x | a", "x ^ a");
        // Cold unit cache, but the parent hint serves everything
        // unchanged; fresh units (the edit) publish to the cache.
        let d = cache
            .get_or_compile(&edited, Some(&parent), &units)
            .expect("elaborates");
        let scratch = compile(&edited).unwrap();
        assert_eq!(d.processes, scratch.processes);
        assert_eq!(units.len(), 1, "only the edited unit is published");
    }

    #[test]
    fn tiered_units_promote_from_global() {
        let global = Arc::new(UnitCache::with_capacity(1024));
        let shard_a = UnitCache::tiered(64, Arc::clone(&global));
        let shard_b = UnitCache::tiered(64, Arc::clone(&global));
        DesignCache::new()
            .get_or_compile(DELTA_BASE, None, &shard_a)
            .unwrap();
        assert!(!global.is_empty(), "fresh units published upward");
        // Shard B never compiled this source: its local tier misses,
        // the global tier serves, and each hit promotes locally.
        let d = DesignCache::new()
            .get_or_compile(DELTA_BASE, None, &shard_b)
            .unwrap();
        assert_eq!(shard_b.promotions(), d.processes.len());
        assert_eq!(shard_b.len(), d.processes.len());
    }

    #[test]
    fn unit_cache_lru_promotes_on_hit() {
        let units = UnitCache::with_capacity(2);
        let cache = DesignCache::with_capacity(1); // thrash designs
        let small = "module top_module(input a, output y); assign y = a; endmodule";
        cache.get_or_compile(small, None, &units).unwrap();
        assert_eq!(units.len(), 1);
        // Each source below holds one distinct process, so every compile
        // publishes a new unit: fill the unit tier to capacity.
        let other = "module top_module(input a, output y); assign y = ~a; endmodule";
        let third = "module top_module(input a, output y); assign y = a & a; endmodule";
        cache.get_or_compile(other, None, &units).unwrap();
        assert_eq!(units.len(), 2);
        // Touch the first unit (hit promotes it), then insert a third:
        // the second (least recently used) is evicted, not the first.
        cache.get_or_compile(small, None, &units).unwrap();
        let hits = units.hits();
        assert!(hits >= 1, "re-compile must hit the cached unit");
        cache.get_or_compile(third, None, &units).unwrap();
        assert_eq!(units.len(), 2);
        cache.get_or_compile(small, None, &units).unwrap();
        assert!(units.hits() > hits, "promoted unit must survive");
    }
}
