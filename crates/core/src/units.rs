//! Verified cache tiers, and the process-unit tier every delta compile
//! reuses units through.
//!
//! Every cache a candidate passes through is one [`CacheTier`]: the solo
//! engine's per-solve unit pool ([`SolveUnits`]), and `mage-serve`'s
//! design, score and unit caches, which every shard of a fleet shares. A
//! tier maps a hash key to a value and stores, beside each value, the
//! full *witness* the key was derived from (candidate source, source
//! plus bench, or a [`UnitTag`]). The tier alone owns the caching rule:
//!
//! * a key hit serves its value only when the stored witness equals the
//!   probed one — a 64-bit hash alone would let two colliding inputs
//!   serve each other's design, score or bytecode. A mismatch counts a
//!   collision and falls through as a miss;
//! * a hit refreshes the entry's recency; an insert at capacity evicts
//!   the least-recently-used entry, popped from a stamp-ordered index in
//!   O(log n);
//! * each tier counts its hits, misses and collisions.
//!
//! Cached values are pure functions of their witness, so sharing or
//! evicting them changes *where* work happens, never what a lookup
//! returns.
//!
//! [`UnitCache`] is the tier of compiled process units, probed by item
//! fingerprint *before* a module item's body is elaborated (see
//! `crates/sim/src/elab.rs`): a process identical to one any earlier
//! candidate built skips the elaboration walk and the lowering both. The
//! solo engine keeps one per solve ([`SolveUnits`], fed to
//! [`crate::compile_pooled`]); serve keeps one per engine, and a fleet
//! hands one to every shard.

use mage_sim::{ProcessUnit, UnitKey, UnitSource, UnitTag};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One bounded, verified cache tier (see the module docs). `K` is the
/// hash key, `Q` the witness as probed (stored as `Q::Owned`), `V` the
/// cached value.
pub struct CacheTier<K, Q: ?Sized + ToOwned, V> {
    slots: Mutex<Slots<K, Q::Owned, V>>,
    /// Entry bound (0 = unbounded).
    capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    collisions: AtomicUsize,
}

struct Slots<K, W, V> {
    map: HashMap<K, Slot<W, V>>,
    /// Every entry's key by its recency stamp, oldest first: eviction
    /// pops the first entry in O(log n) instead of scanning the map.
    order: BTreeMap<u64, K>,
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

impl<W, V> Slot<W, V> {
    /// Move this slot (held under `key`) to `stamp` in the recency
    /// index `order`.
    fn restamp<K>(&mut self, key: K, stamp: u64, order: &mut BTreeMap<u64, K>) {
        order.remove(&self.stamp);
        order.insert(stamp, key);
        self.stamp = stamp;
    }
}

impl<K: Copy + Eq + Hash, Q: ?Sized + PartialEq + ToOwned, V: Clone> CacheTier<K, Q, V> {
    /// An empty tier bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        CacheTier {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            collisions: AtomicUsize::new(0),
        }
    }

    /// The value cached for `witness` under `key`, or `compute`d on a
    /// miss and stored. `compute` runs outside the lock, so two callers
    /// racing on one new witness may both compute; the values are equal
    /// and the tier keeps the first.
    pub fn get_or_insert_with(&self, key: K, witness: &Q, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(key, witness) {
            return value;
        }
        let value = compute();
        self.insert(key, witness, value.clone());
        value
    }

    /// The value cached for `witness` under `key`: a verified hit
    /// refreshes the entry's recency; a key held by a different witness
    /// counts a collision and misses.
    pub(crate) fn get(&self, key: K, witness: &Q) -> Option<V> {
        let mut guard = self.lock();
        let slots = &mut *guard;
        let stamp = slots.next_tick();
        if let Some(slot) = slots.map.get_mut(&key) {
            if slot.witness.borrow() == witness {
                slot.restamp(key, stamp, &mut slots.order);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(slot.value.clone());
            }
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a freshly computed `value` for `witness`, evicting the
    /// least-recently-used entry at capacity. Moves no counter — the
    /// lookup that missed already counted.
    pub(crate) fn insert(&self, key: K, witness: &Q, value: V) {
        let mut guard = self.lock();
        let slots = &mut *guard;
        let stamp = slots.next_tick();
        match slots.map.get_mut(&key) {
            Some(slot) => {
                // A colliding witness: the most recent one keeps the
                // slot, so the side the stream is probing now stays
                // warm. A racing insert of the same witness keeps the
                // first value.
                if slot.witness.borrow() != witness {
                    slot.witness = witness.to_owned();
                    slot.value = value;
                }
                slot.restamp(key, stamp, &mut slots.order);
            }
            None => {
                if self.capacity > 0 && slots.map.len() >= self.capacity {
                    if let Some((_, oldest)) = slots.order.pop_first() {
                        slots.map.remove(&oldest);
                    }
                }
                let slot = Slot {
                    witness: witness.to_owned(),
                    value,
                    stamp,
                };
                slots.map.insert(key, slot);
                slots.order.insert(stamp, key);
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

    /// Lookups this tier could not answer.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups whose key held a *different* witness; each fell through
    /// as a miss instead of serving the wrong value.
    pub fn collisions(&self) -> usize {
        self.collisions.load(Ordering::Relaxed)
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
    fn lru_order_matches_a_naive_model() {
        // A fixed pseudo-random stream of probes and inserts over more
        // keys than the tier holds; the model is a Vec in recency order
        // (least recent first), evicting from the front.
        const CAPACITY: usize = 4;
        let tier = Tier::with_capacity(CAPACITY);
        let mut model: Vec<u64> = Vec::new();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for op in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = rng % 11;
            let witness = key.to_string();
            let held = model.iter().position(|&k| k == key);
            if let Some(at) = held {
                model.remove(at);
                model.push(key);
            }
            if rng & 0x100 == 0 {
                let got = tier.get(key, &witness);
                assert_eq!(got.is_some(), held.is_some(), "probe {op} of key {key}");
                assert_eq!(got.is_some_and(|v| v == key as u32), held.is_some());
            } else {
                tier.insert(key, &witness, key as u32);
                if held.is_none() {
                    if model.len() == CAPACITY {
                        model.remove(0);
                    }
                    model.push(key);
                }
            }
            assert_eq!(tier.len(), model.len(), "after op {op}");
        }
        assert_eq!(tier.collisions(), 0);
        assert!(tier.hits() > 0 && tier.misses() > 0);
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
