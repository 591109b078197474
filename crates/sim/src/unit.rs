//! Content-addressed per-process compilation units.
//!
//! The debug loop edits designs, it does not rewrite them: a candidate
//! usually differs from its parent by one process body. This module gives
//! every elaborated process a *content address* so an elaboration armed
//! with a [`UnitSource`] (the parent design, a unit cache tier, or a
//! chain of both) can reuse each unchanged process — interpreter form
//! *and* lowered bytecode — verbatim, and rebuild only what the edit
//! touched.
//!
//! A unit's identity is its [`UnitKey`]:
//!
//! * `fingerprint` — hash of the module item's canonical printed form
//!   ([`mage_verilog::fingerprint`]), insensitive to whitespace/comments;
//! * `binding` — hash of the *resolved signal binding*: the instantiating
//!   module's full environment (prefix, every in-scope signal with its
//!   global [`SignalId`](crate::SignalId), width, LSB index and kind, and
//!   every folded parameter). Two textually identical items bound to
//!   different signals — sibling instances, shifted id spaces — get
//!   different keys;
//! * `ordinal` — occurrence counter disambiguating textually identical
//!   items under the same binding.
//!
//! Hashes are advisory. Every [`UnitTag`] carries the canonical item text
//! and the canonical environment string, and every [`UnitSource`] MUST
//! verify both on a key hit before serving a unit — a 64-bit fingerprint
//! collision must cause a rebuild, never a wrong design. The injectable
//! hasher on [`crate::elaborate_delta`] exists so tests can force such
//! collisions.

use crate::compile::CompiledProcess;
use crate::design::{Design, Process};
use std::collections::HashMap;
use std::sync::Arc;

/// Content address of one compilation unit. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// Fingerprint of the item's canonical printed form.
    pub fingerprint: u64,
    /// Hash of the resolved signal binding (instantiation environment).
    pub binding: u64,
    /// Occurrence index among same-`(fingerprint, binding)` units.
    pub ordinal: u32,
}

/// A unit's full identity: key plus the verification witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitTag {
    /// The content address.
    pub key: UnitKey,
    /// Canonical printed item text (`mage_verilog::print_item`).
    pub text: Arc<str>,
    /// Canonical environment string the `binding` hash was taken over.
    pub env: Arc<str>,
}

/// One process, elaborated and lowered, ready for verbatim reuse.
#[derive(Debug, Clone)]
pub struct ProcessUnit {
    /// The interpreter form ([`Design::processes`] entry).
    pub process: Process,
    /// The lowered bytecode ([`crate::CompiledDesign::procs`] entry).
    pub compiled: CompiledProcess,
}

/// Counters for one delta elaboration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Units served verbatim from the provider.
    pub reused: usize,
    /// Units elaborated and lowered from scratch.
    pub rebuilt: usize,
    /// Fused cascade plans dropped because their closure contains a
    /// rebuilt unit: a rebuilt unit invalidates every evaluation plan
    /// whose cascade contains it, and this delta rebuild rebuilt those
    /// plans from the fresh unit set. 0 when no provider was probed.
    pub plan_invalidations: usize,
}

impl DeltaStats {
    /// Total units the elaboration produced.
    pub fn total(&self) -> usize {
        self.reused + self.rebuilt
    }
}

/// A supplier of previously compiled units.
///
/// Implementations MUST verify `tag.text` and `tag.env` against the
/// stored unit before serving it; the key alone is advisory (see module
/// docs). `publish` is called once per freshly built unit after a delta
/// elaboration succeeds, and defaults to a no-op for read-only sources.
pub trait UnitSource {
    /// A verified unit for `tag`, or `None` (miss or collision).
    fn lookup(&self, tag: &UnitTag) -> Option<ProcessUnit>;
    /// Offer a freshly built unit for future lookups.
    fn publish(&self, _tag: &UnitTag, _unit: ProcessUnit) {}
}

/// The parent-design provider: serves units straight out of an already
/// elaborated [`Design`] — the common case in the debug loop, where the
/// candidate names its parent and everything but the edited process hits.
pub struct DesignUnits {
    parent: Arc<Design>,
    index: HashMap<UnitKey, u32>,
}

impl DesignUnits {
    /// Index `parent`'s unit tags. Designs assembled without tags (e.g.
    /// hand-built in tests) yield an empty index — every lookup misses.
    pub fn new(parent: Arc<Design>) -> Self {
        let index = parent
            .units()
            .iter()
            .enumerate()
            .map(|(i, t)| (t.key, i as u32))
            .collect();
        DesignUnits { parent, index }
    }
}

impl UnitSource for DesignUnits {
    fn lookup(&self, tag: &UnitTag) -> Option<ProcessUnit> {
        let &i = self.index.get(&tag.key)?;
        let i = i as usize;
        let stored = &self.parent.units()[i];
        // Full verification: identical canonical text AND identical
        // resolved binding, or the hit is a collision and must rebuild.
        if *stored.text != *tag.text || *stored.env != *tag.env {
            return None;
        }
        Some(ProcessUnit {
            process: self.parent.processes[i].clone(),
            compiled: self.parent.compiled().procs[i].clone(),
        })
    }
}

/// Probe several sources in order; publish to all of them.
///
/// Candidate compiles chain the parent design (fastest, exact) in front
/// of a unit cache tier; [`DesignUnits::publish`] is a no-op, so fresh
/// units land only in the writable tiers.
pub struct ChainedUnits<'a> {
    sources: Vec<&'a dyn UnitSource>,
}

impl<'a> ChainedUnits<'a> {
    /// Chain `sources`, probed first-to-last.
    pub fn new(sources: Vec<&'a dyn UnitSource>) -> Self {
        ChainedUnits { sources }
    }
}

impl UnitSource for ChainedUnits<'_> {
    fn lookup(&self, tag: &UnitTag) -> Option<ProcessUnit> {
        self.sources.iter().find_map(|s| s.lookup(tag))
    }
    fn publish(&self, tag: &UnitTag, unit: ProcessUnit) {
        for s in &self.sources {
            s.publish(tag, unit.clone());
        }
    }
}

/// The default unit hasher: FNV-1a over the canonical string.
pub fn unit_hash(s: &str) -> u64 {
    mage_logic::fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elaborate, elaborate_delta, elaborate_with};

    const BASE: &str = "module top(input clk, input a, input b, output reg q, output w);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         always @(posedge clk) q <= x;\n\
         endmodule\n";

    fn design_of(src: &str) -> Arc<Design> {
        let file = mage_verilog::parse(src).unwrap();
        Arc::new(crate::elaborate(&file, "top").unwrap())
    }

    #[test]
    fn identical_source_reuses_every_unit() {
        let parent = design_of(BASE);
        let total = parent.processes.len();
        let provider = DesignUnits::new(parent.clone());
        let file = mage_verilog::parse(BASE).unwrap();
        let (delta, stats) = elaborate_with(&file, "top", &provider).unwrap();
        assert_eq!(stats.reused, total);
        assert_eq!(stats.rebuilt, 0);
        assert_eq!(delta.processes, parent.processes);
        assert_eq!(
            format!("{:?}", delta.compiled().procs),
            format!("{:?}", parent.compiled().procs),
        );
    }

    #[test]
    fn single_edit_rebuilds_only_the_edited_unit() {
        let parent = design_of(BASE);
        let total = parent.processes.len();
        let provider = DesignUnits::new(parent.clone());
        let edited = BASE.replace("x | a", "x ^ a");
        let file = mage_verilog::parse(&edited).unwrap();
        let (delta, stats) = elaborate_with(&file, "top", &provider).unwrap();
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.reused, total - 1);
        // Store-exact against from-scratch.
        let scratch = elaborate(&file, "top").unwrap();
        assert_eq!(delta.processes, scratch.processes);
        assert_eq!(
            format!("{:?}", delta.compiled().procs),
            format!("{:?}", scratch.compiled().procs),
        );
        assert_eq!(
            format!("{:?}", delta.compiled().comb_readers),
            format!("{:?}", scratch.compiled().comb_readers),
        );
    }

    #[test]
    fn whitespace_only_change_is_a_full_reuse() {
        let parent = design_of(BASE);
        let messy = BASE.replace("assign x = a & b;", "assign   x=a&b; // comment");
        let provider = DesignUnits::new(parent.clone());
        let file = mage_verilog::parse(&messy).unwrap();
        let (_, stats) = elaborate_with(&file, "top", &provider).unwrap();
        assert_eq!(stats.rebuilt, 0);
        assert_eq!(stats.reused, parent.processes.len());
    }

    #[test]
    fn fingerprint_collision_forces_a_rebuild() {
        // A degenerate hasher maps every item and environment to the
        // same key; only the full text/env verification stands between a
        // collision and serving the wrong unit.
        fn collide(_: &str) -> u64 {
            0x42
        }
        let file = mage_verilog::parse(BASE).unwrap();
        let (parent, _) = elaborate_delta(&file, "top", None, collide).unwrap();
        let parent = Arc::new(parent);
        let total = parent.processes.len();
        let edited = BASE.replace("x | a", "x ^ a");
        let efile = mage_verilog::parse(&edited).unwrap();
        let provider = DesignUnits::new(parent.clone());
        let (delta, stats) = elaborate_delta(&efile, "top", Some(&provider), collide).unwrap();
        // The edited item collides with a parent key but fails text
        // verification: it must rebuild, and the design must match a
        // from-scratch build exactly.
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(stats.reused, total - 1);
        let scratch = elaborate(&efile, "top").unwrap();
        assert_eq!(delta.processes, scratch.processes);
    }

    #[test]
    fn renamed_signal_rebuilds_affected_units() {
        let parent = design_of(BASE);
        let provider = DesignUnits::new(parent.clone());
        // Renaming `x` changes the canonical text of every unit reading
        // it AND the binding environment of the whole module.
        let renamed = BASE.replace('x', "y");
        let file = mage_verilog::parse(&renamed).unwrap();
        let (_, stats) = elaborate_with(&file, "top", &provider).unwrap();
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.rebuilt, parent.processes.len());
    }

    #[test]
    fn changed_width_rebuilds_despite_identical_text() {
        let wide = BASE.replace("wire x;", "wire [1:0] x;");
        let parent = design_of(&wide);
        let provider = DesignUnits::new(parent.clone());
        // Same item text everywhere except the declaration — but the
        // width change shifts the binding environment, so nothing the
        // width could affect is reused blindly.
        let file = mage_verilog::parse(BASE).unwrap();
        let (delta, stats) = elaborate_with(&file, "top", &provider).unwrap();
        assert_eq!(stats.reused, 0);
        assert!(stats.rebuilt > 0);
        let scratch = elaborate(&file, "top").unwrap();
        assert_eq!(delta.processes, scratch.processes);
    }
}
