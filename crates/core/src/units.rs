//! Verified cache tiers, and the process-unit tier every delta compile
//! reuses units through.
//!
//! Every cache a candidate passes through is one [`CacheTier`]: the solo
//! engine's per-solve unit pool ([`SolveUnits`]), and `mage-serve`'s
//! design, score and unit caches with the fleet's local/global fabric
//! over them. A tier maps a hash key to a value and stores, beside each
//! value, the full *witness* the key was hashed from (candidate source,
//! source plus bench text, or a [`UnitTag`]). The tier alone owns the
//! caching rule:
//!
//! * a key hit serves its value only when the stored witness equals the
//!   probed one — a 64-bit hash alone would let two colliding inputs
//!   serve each other's design, score or bytecode. A mismatch counts a
//!   collision and falls through as a miss;
//! * a hit refreshes the entry's recency; an insert at capacity evicts
//!   the least-recently-used entry;
//! * a tier may sit over a shared parent tier: a local miss probes the
//!   parent and promotes its hit locally, and freshly computed values
//!   publish up to the parent, so sibling tiers reuse each other's work;
//! * each tier counts its hits, misses, collisions and promotions.
//!
//! Cached values are pure functions of their witness, so sharing,
//! evicting or promoting them changes *where* work happens, never what a
//! lookup returns. Lock discipline: a tier only ever holds its own mutex
//! (parent probes happen outside the local lock), so tiers cannot
//! deadlock however many share one parent.
//!
//! [`UnitCache`] is the tier of compiled process units, probed by item
//! fingerprint *before* a module item's body is elaborated (see
//! `crates/sim/src/elab.rs`): a process identical to one any earlier
//! candidate built skips the elaboration walk and the lowering both. The
//! solo engine keeps one per solve ([`SolveUnits`], fed to
//! [`crate::compile_pooled`]); serve keeps one per shard over a fleet
//! global one.

use mage_sim::{ProcessUnit, UnitKey, UnitSource, UnitTag};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One bounded, verified, optionally parented cache tier (see the
/// module docs). `K` is the hash key, `Q` the witness as probed (stored
/// as `Q::Owned`), `V` the cached value.
pub struct CacheTier<K, Q: ?Sized + ToOwned, V> {
    slots: Mutex<Slots<K, Q::Owned, V>>,
    /// Entry bound (0 = unbounded).
    capacity: usize,
    /// Shared tier consulted on local misses and published to.
    parent: Option<Arc<Self>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    collisions: AtomicUsize,
    promotions: AtomicUsize,
}

struct Slots<K, W, V> {
    map: HashMap<K, Slot<W, V>>,
    /// Monotonic recency clock; bumped on every probe and store.
    tick: u64,
}

struct Slot<W, V> {
    witness: W,
    value: V,
    /// Recency stamp for LRU eviction.
    stamp: u64,
}

impl<K, W, V> Slots<K, W, V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl<K: Copy + Eq + Hash, Q: ?Sized + PartialEq + ToOwned, V: Clone> CacheTier<K, Q, V> {
    /// An empty tier bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        CacheTier {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            parent: None,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            collisions: AtomicUsize::new(0),
            promotions: AtomicUsize::new(0),
        }
    }

    /// An empty local tier bounded to `capacity` entries over the
    /// shared `parent` tier.
    pub fn tiered(capacity: usize, parent: Arc<Self>) -> Self {
        CacheTier {
            parent: Some(parent),
            ..Self::with_capacity(capacity)
        }
    }

    /// The value cached for `witness` under `key`: this tier's entry,
    /// else the parent's (promoted into this tier). `None` when neither
    /// holds it.
    pub(crate) fn get(&self, key: K, witness: &Q) -> Option<V> {
        if let Some(value) = self.probe(key, witness) {
            return Some(value);
        }
        let value = self.parent.as_ref()?.probe(key, witness)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.store(key, witness, value.clone());
        Some(value)
    }

    /// Publish a freshly computed `value` for `witness`: into the parent
    /// tier, so sibling tiers can promote it, and into this one. Moves
    /// no counter — the lookup that missed already counted.
    pub(crate) fn insert(&self, key: K, witness: &Q, value: V) {
        if let Some(parent) = &self.parent {
            parent.store(key, witness, value.clone());
        }
        self.store(key, witness, value);
    }

    /// The value cached for `witness` under `key` — in this tier, else
    /// promoted from the parent's — or `compute`d on a miss and
    /// published to both. `compute` runs outside every lock, so two
    /// callers racing on one new witness may both compute; the values
    /// are equal and the tier keeps the first.
    pub fn get_or_insert_with(&self, key: K, witness: &Q, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(key, witness) {
            return value;
        }
        let value = compute();
        self.insert(key, witness, value.clone());
        value
    }

    /// Probe this tier alone: a verified hit refreshes the entry's
    /// recency; a key held by a different witness counts a collision
    /// and misses.
    fn probe(&self, key: K, witness: &Q) -> Option<V> {
        let mut slots = self.lock();
        let stamp = slots.next_tick();
        if let Some(slot) = slots.map.get_mut(&key) {
            if slot.witness.borrow() == witness {
                slot.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(slot.value.clone());
            }
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store `value` in this tier alone, evicting the least-recently-used
    /// entry at capacity.
    fn store(&self, key: K, witness: &Q, value: V) {
        let mut slots = self.lock();
        let stamp = slots.next_tick();
        match slots.map.get_mut(&key) {
            // A racing insert of the same witness: the first value stays.
            Some(slot) if slot.witness.borrow() == witness => slot.stamp = stamp,
            // A colliding witness: the most recent one keeps the slot, so
            // the side the stream is probing now stays warm.
            Some(slot) => {
                *slot = Slot {
                    witness: witness.to_owned(),
                    value,
                    stamp,
                }
            }
            None => {
                // A linear min-stamp scan: eviction runs only on an
                // at-capacity insert, where the adjacent compile or
                // simulation dwarfs it.
                if self.capacity > 0 && slots.map.len() >= self.capacity {
                    let oldest = slots
                        .map
                        .iter()
                        .min_by_key(|(_, slot)| slot.stamp)
                        .map(|(&key, _)| key);
                    if let Some(oldest) = oldest {
                        slots.map.remove(&oldest);
                    }
                }
                let slot = Slot {
                    witness: witness.to_owned(),
                    value,
                    stamp,
                };
                slots.map.insert(key, slot);
            }
        }
    }
}

impl<K, Q: ?Sized + ToOwned, V> CacheTier<K, Q, V> {
    fn lock(&self) -> MutexGuard<'_, Slots<K, Q::Owned, V>> {
        self.slots.lock().expect("cache tier poisoned")
    }

    /// Entries held by this tier.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when this tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered by this tier.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups this tier could not answer itself (promotions included).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups whose key held a *different* witness; each fell through
    /// as a miss instead of serving the wrong value.
    pub fn collisions(&self) -> usize {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Misses answered by the parent tier (a subset of
    /// [`misses`](Self::misses)); always 0 without a parent.
    pub fn promotions(&self) -> usize {
        self.promotions.load(Ordering::Relaxed)
    }
}

/// Default [`UnitCache`] entry bound: units are per-process (a design
/// holds several), so the bound sits well above the design cache's.
pub const DEFAULT_UNIT_CAPACITY: usize = 32768;

/// The process-unit tier: compiled units keyed by [`UnitKey`], witnessed
/// by their full [`UnitTag`] (canonical item text and resolved binding
/// environment), so a fingerprint collision rebuilds instead of serving
/// the wrong bytecode.
pub type UnitCache = CacheTier<UnitKey, UnitTag, ProcessUnit>;

/// The solo engine's unit pool: one [`UnitCache`] per solve. Every
/// process elaborated for any candidate of the solve is published here
/// and served, verified, to later sibling compiles.
pub type SolveUnits = UnitCache;

impl UnitCache {
    /// An empty tier with the [default capacity](DEFAULT_UNIT_CAPACITY).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_UNIT_CAPACITY)
    }
}

impl Default for UnitCache {
    fn default() -> Self {
        Self::new()
    }
}

impl UnitSource for UnitCache {
    fn lookup(&self, tag: &UnitTag) -> Option<ProcessUnit> {
        self.get(tag.key, tag)
    }

    fn publish(&self, tag: &UnitTag, unit: ProcessUnit) {
        self.insert(tag.key, tag, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compile, compile_pooled};

    type Tier = CacheTier<u64, str, u32>;

    #[test]
    fn colliding_key_with_different_identity_misses() {
        let tier = Tier::with_capacity(8);
        tier.insert(7, "a", 1);
        assert_eq!(tier.get(7, "b"), None, "a mismatched witness must miss");
        assert_eq!((tier.hits(), tier.misses(), tier.collisions()), (0, 1, 1));
        // The most recent witness takes the slot; the old one now misses.
        tier.insert(7, "b", 2);
        assert_eq!(tier.get(7, "b"), Some(2));
        assert_eq!(tier.get(7, "a"), None);
        assert_eq!((tier.hits(), tier.collisions(), tier.len()), (1, 2, 1));

        // The same guard holds in the parent: no promotion on mismatch.
        let global = Arc::new(Tier::with_capacity(8));
        global.insert(7, "x", 9);
        let local = Tier::tiered(8, Arc::clone(&global));
        assert_eq!(local.get_or_insert_with(7, "y", || 3), 3);
        assert_eq!((global.collisions(), local.promotions()), (1, 0));
        assert_eq!(global.get(7, "y"), Some(3), "fresh value published up");
    }

    #[test]
    fn lru_evicts_least_recently_used_and_hits_promote() {
        let tier = Tier::with_capacity(2);
        tier.insert(1, "a", 1); // oldest insert…
        tier.insert(2, "b", 2);
        assert_eq!(tier.get(1, "a"), Some(1)); // …but most recently used
        tier.insert(3, "c", 3); // evicts b, not a
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.get(1, "a"), Some(1), "promoted entry survives");
        assert_eq!(tier.get(2, "b"), None, "least recently used evicted");
        // A hot entry re-probed between unique arrivals is never evicted.
        for key in 10..40 {
            tier.insert(key, "unique", 0);
            assert_eq!(tier.get(1, "a"), Some(1), "hot entry evicted at {key}");
        }
        assert_eq!((tier.hits(), tier.misses()), (32, 1));
    }

    #[test]
    fn parent_tier_promotes_hits_and_receives_fresh_values() {
        let global = Arc::new(Tier::with_capacity(64));
        let a = Tier::tiered(1, Arc::clone(&global));
        let b = Tier::tiered(8, Arc::clone(&global));
        assert_eq!(a.get_or_insert_with(1, "x", || 5), 5);
        assert_eq!((a.misses(), global.misses(), global.len()), (1, 1, 1));
        // B misses locally, promotes from the global tier, computes nothing.
        assert_eq!(b.get_or_insert_with(1, "x", || unreachable!()), 5);
        assert_eq!((b.misses(), b.promotions(), global.hits()), (1, 1, 1));
        // Now resident in B: the next lookup never leaves it.
        assert_eq!(b.get(1, "x"), Some(5));
        assert_eq!((b.hits(), global.hits() + global.misses()), (1, 2));
        // Evicted from A's one-slot tier, still promoted back from global.
        a.insert(2, "y", 6);
        assert_eq!(a.get(1, "x"), Some(5));
        assert_eq!((a.promotions(), global.len()), (1, 2));
    }

    #[test]
    fn racing_insert_keeps_the_first_value() {
        let tier = Tier::with_capacity(8);
        tier.insert(1, "a", 1);
        tier.insert(1, "a", 2);
        assert_eq!(tier.get(1, "a"), Some(1));
        assert_eq!(tier.get_or_insert_with(1, "a", || unreachable!()), 1);
        assert_eq!((tier.len(), tier.hits(), tier.misses()), (1, 2, 0));
    }

    const BASE: &str = "module top_module(input clk, input a, input b, \
                        output reg q, output w);\n\
                        wire x;\n\
                        assign x = a & b;\n\
                        assign w = x | a;\n\
                        always @(posedge clk) q <= x;\n\
                        endmodule\n";

    #[test]
    fn sibling_candidates_reuse_pooled_units() {
        let units = SolveUnits::new();
        let (d1, s1) = compile_pooled(BASE, None, &units).expect("elaborates");
        assert_eq!(s1.rebuilt, d1.processes.len(), "cold pool builds all");
        assert_eq!(units.len(), d1.processes.len(), "fresh units pooled");
        // A sibling differing in one process: every other unit is served
        // from the pool, elaboration walk skipped.
        let sibling = BASE.replace("x | a", "x ^ a");
        let (d2, s2) = compile_pooled(&sibling, None, &units).expect("elaborates");
        assert_eq!(s2.reused, d1.processes.len() - 1);
        assert_eq!(s2.rebuilt, 1);
        assert_eq!(units.hits(), d1.processes.len() - 1);
        // Pooled compiles are store-exact against from-scratch.
        let scratch = compile(&sibling).expect("elaborates");
        assert_eq!(d2.processes, scratch.processes);
        assert_eq!(
            format!("{:?}", d2.compiled()),
            format!("{:?}", scratch.compiled()),
        );
    }

    #[test]
    fn parent_hint_chains_ahead_of_the_pool() {
        let units = SolveUnits::new();
        let (parent, _) = compile_pooled(BASE, None, &units).expect("elaborates");
        let edited = BASE.replace("x | a", "x ^ a");
        // Parent-first chaining: unchanged units come from the parent
        // design without probing the pool; the edit rebuilds and
        // publishes.
        let (before, probes) = (units.len(), units.hits() + units.misses());
        let (d, stats) = compile_pooled(&edited, Some(&parent), &units).expect("elaborates");
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(units.hits() + units.misses(), probes + 1);
        assert!(units.len() > before, "fresh unit published to the pool");
        let scratch = compile(&edited).expect("elaborates");
        assert_eq!(d.processes, scratch.processes);
    }
}
