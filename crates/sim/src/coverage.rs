//! Fuzz-coverage feature map: a cheap, deterministic fingerprint of
//! *which executor behaviors a design exercised*.
//!
//! The `mage-fuzz` harness guides generation with this map: every
//! generated design contributes a set of 64-bit feature ids — static
//! features read off the compiled artifact ([`design_features`]:
//! bytecode opcode pairs, superinstruction kinds, cascade lengths,
//! process shapes) and dynamic features recorded by the [`crate::Simulator`]
//! while the lockstep oracles run (execution outcomes including
//! plan bail reasons, cascade dispatches). An input that hits a
//! feature no earlier input hit is *novel* and becomes a corpus entry.
//!
//! The map is deliberately tiny and allocation-light: a sorted set of
//! hashed ids, recorded only when a simulator has coverage enabled
//! ([`crate::Simulator::enable_coverage`] — the default is off, so the
//! grading hot paths never pay for it). Everything is deterministic:
//! ids are pure FNV-1a hashes of domain-tagged payloads and the set
//! iterates in sorted order, so the same case stream always produces
//! the same [`FuzzCoverage::map_hash`].

use crate::compile::{CompiledDesign, Instr};
use crate::interp::{BailReason, ExecOutcome};
use crate::plan::PlanOp;
use std::collections::BTreeSet;

/// Feature domains (the high tag byte of every feature id).
const D_OPCODE_PAIR: u64 = 1;
const D_PLAN_OP: u64 = 2;
const D_CASCADE_LEN: u64 = 3;
const D_OUTCOME: u64 = 4;
const D_SHAPE: u64 = 5;
const D_CASCADE_FIRE: u64 = 6;

/// Mix a domain tag and payload into a feature id (FNV-1a over the
/// 16 bytes, so ids are stable across platforms and runs).
fn feat(domain: u64, payload: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in domain
        .to_le_bytes()
        .into_iter()
        .chain(payload.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A set of observed coverage features.
///
/// Backed by a `BTreeSet` so iteration — and therefore
/// [`FuzzCoverage::map_hash`] — is deterministic for a given feature
/// set, independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzCoverage {
    seen: BTreeSet<u64>,
}

impl FuzzCoverage {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one feature id. Returns `true` when it was new.
    pub fn record(&mut self, id: u64) -> bool {
        self.seen.insert(id)
    }

    /// Whether `id` has been recorded.
    pub fn contains(&self, id: u64) -> bool {
        self.seen.contains(&id)
    }

    /// Merge every feature of `other` into `self`, returning how many
    /// were new.
    pub fn merge(&mut self, other: &FuzzCoverage) -> usize {
        let before = self.seen.len();
        self.seen.extend(other.seen.iter().copied());
        self.seen.len() - before
    }

    /// How many of `other`'s features are *not* in `self` (novelty
    /// probe without mutation).
    pub fn novelty(&self, other: &FuzzCoverage) -> usize {
        other
            .seen
            .iter()
            .filter(|id| !self.seen.contains(id))
            .count()
    }

    /// Features in `other` missing from `self`, in sorted order.
    pub fn novel_ids(&self, other: &FuzzCoverage) -> Vec<u64> {
        other
            .seen
            .iter()
            .copied()
            .filter(|id| !self.seen.contains(id))
            .collect()
    }

    /// Number of distinct features recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// The recorded feature ids in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.seen.iter().copied()
    }

    /// Order-independent digest of the whole map (FNV-1a over the
    /// sorted id stream) — the determinism handle: two runs with the
    /// same case stream must report the same hash.
    pub fn map_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in &self.seen {
            for b in id.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// Small integer tag of one bytecode instruction: the variant, sub-tagged
/// by operator flavor where the variant carries one. Two instructions
/// with the same tag dispatch through the same interpreter arm.
pub fn instr_tag(i: &Instr) -> u64 {
    match i {
        Instr::Const { .. } => 0x000,
        Instr::Load { .. } => 0x001,
        Instr::Copy { .. } => 0x002,
        Instr::Slice { .. } => 0x003,
        Instr::Not { .. } => 0x004,
        Instr::Bin { op, .. } => 0x010 + *op as u64,
        Instr::Shift { left, .. } => 0x020 + *left as u64,
        Instr::LogicBin { and, .. } => 0x022 + *and as u64,
        Instr::Reduce { op, .. } => 0x030 + *op as u64,
        Instr::Cmp { op, .. } => 0x040 + *op as u64,
        Instr::Select { .. } => 0x050,
        Instr::Concat { .. } => 0x051,
        Instr::Repl { .. } => 0x052,
        Instr::BitSelSig { .. } => 0x053,
        Instr::ReadSlice { .. } => 0x054,
        Instr::Jump { .. } => 0x055,
        Instr::JumpIfNotTrue { .. } => 0x056,
        Instr::JumpIfMatch { .. } => 0x057,
        Instr::Store { .. } => 0x058,
        Instr::StoreBitDyn { .. } => 0x059,
    }
}

/// Small integer tag of one fused-plan opcode (variant + operator
/// flavor, mirroring [`instr_tag`]).
pub fn plan_op_tag(op: &PlanOp) -> u64 {
    match op {
        PlanOp::Const { .. } => 0x100,
        PlanOp::Load { .. } => 0x101,
        PlanOp::MaskMove { .. } => 0x102,
        PlanOp::Not { .. } => 0x103,
        PlanOp::Bin { op, .. } => 0x110 + *op as u64,
        PlanOp::LoadBin { op, .. } => 0x120 + *op as u64,
        PlanOp::LoadBinStore { op, .. } => 0x130 + *op as u64,
        PlanOp::BinStore { op, .. } => 0x140 + *op as u64,
        PlanOp::LoadStore { .. } => 0x150,
        PlanOp::ConstStore { .. } => 0x151,
        PlanOp::Shift { .. } => 0x152,
        PlanOp::LogicBin { .. } => 0x153,
        PlanOp::Reduce { op, .. } => 0x160 + *op as u64,
        PlanOp::Cmp { op, .. } => 0x170 + *op as u64,
        PlanOp::CmpBranch { op, .. } => 0x180 + *op as u64,
        PlanOp::Select { .. } => 0x190,
        PlanOp::Concat { .. } => 0x191,
        PlanOp::Repl { .. } => 0x192,
        PlanOp::Jump { .. } => 0x193,
        PlanOp::BranchIfZero { .. } => 0x194,
        PlanOp::BranchIfEq { .. } => 0x195,
        PlanOp::Store { .. } => 0x196,
        PlanOp::StoreWhole { .. } => 0x197,
        PlanOp::StoreBitDyn { .. } => 0x198,
        PlanOp::DivMod { modulo, .. } => 0x199 + *modulo as u64,
        PlanOp::BitSel { .. } => 0x19b,
        PlanOp::BranchIfMasked { .. } => 0x19c,
    }
}

/// Feature id of an adjacent bytecode opcode pair.
pub fn opcode_pair_feature(a: u64, b: u64) -> u64 {
    feat(D_OPCODE_PAIR, (a << 16) | b)
}

/// Feature id of one superinstruction kind appearing in a plan.
pub fn plan_op_feature(tag: u64) -> u64 {
    feat(D_PLAN_OP, tag)
}

/// Feature id of a fused-cascade length (exact up to 8 members, then
/// bucketed by power of two so arbitrarily long cascades cannot grow
/// the map without bound).
pub fn cascade_len_feature(len: usize) -> u64 {
    let bucket = if len <= 8 {
        len as u64
    } else {
        8 + (usize::BITS - len.leading_zeros()) as u64
    };
    feat(D_CASCADE_LEN, bucket)
}

/// Feature id of a fused-cascade *dispatch* of the given length (the
/// runtime counterpart of [`cascade_len_feature`]: a cascade that
/// exists but never fires contributes the static feature only).
pub fn cascade_fire_feature(len: usize) -> u64 {
    let bucket = if len <= 8 {
        len as u64
    } else {
        8 + (usize::BITS - len.leading_zeros()) as u64
    };
    feat(D_CASCADE_FIRE, bucket)
}

/// Feature id of one process-body execution outcome. `comb` is the
/// scheduling region; the outcome distinguishes a completed plan run,
/// four-state by construction, and the two bail flavors
/// ([`BailReason`]) — the plan path's failure modes are exactly what
/// differential fuzzing wants to keep exercising.
pub fn outcome_feature(outcome: ExecOutcome, comb: bool) -> u64 {
    let code: u64 = match outcome {
        ExecOutcome::Plan { .. } => 1,
        ExecOutcome::FourState => 2,
        ExecOutcome::Fallback {
            reason: BailReason::DispatchUndef,
        } => 3,
        ExecOutcome::Fallback {
            reason: BailReason::MidRun,
        } => 4,
    };
    feat(D_OUTCOME, (code << 1) | comb as u64)
}

/// Feature id of one compiled process's shape (narrow/has-plan/
/// plan-can-bail flags).
pub fn shape_feature(narrow: bool, has_plan: bool, can_bail: bool) -> u64 {
    feat(
        D_SHAPE,
        narrow as u64 | (has_plan as u64) << 1 | (can_bail as u64) << 2,
    )
}

/// Record every *static* feature of a compiled design: adjacent opcode
/// pairs of each instruction stream (plus a start-of-stream pair), the
/// superinstruction kinds of every fused plan, cascade lengths, and
/// per-process shape flags. Pure and cheap — one pass over the
/// artifact, no simulation.
pub fn design_features(compiled: &CompiledDesign, cov: &mut FuzzCoverage) {
    for proc in &compiled.procs {
        cov.record(shape_feature(
            proc.narrow,
            proc.plan.is_some(),
            proc.plan.as_ref().is_some_and(|p| p.can_bail),
        ));
        let mut prev = u64::MAX >> 16; // start-of-stream sentinel
        for i in &proc.code {
            let tag = instr_tag(i);
            cov.record(opcode_pair_feature(prev, tag));
            prev = tag;
        }
        if let Some(plan) = &proc.plan {
            for op in &plan.ops {
                cov.record(plan_op_feature(plan_op_tag(op)));
            }
        }
    }
    for cascade in &compiled.cascades {
        cov.record(cascade_len_feature(cascade.procs.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merge_novelty() {
        let mut a = FuzzCoverage::new();
        assert!(a.record(1));
        assert!(!a.record(1));
        assert!(a.record(2));
        let mut b = FuzzCoverage::new();
        b.record(2);
        b.record(3);
        assert_eq!(a.novelty(&b), 1);
        assert_eq!(a.novel_ids(&b), vec![3]);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.novelty(&b), 0);
    }

    #[test]
    fn map_hash_is_insertion_order_independent() {
        let mut a = FuzzCoverage::new();
        let mut b = FuzzCoverage::new();
        for id in [5u64, 9, 1, 3] {
            a.record(id);
        }
        for id in [3u64, 1, 9, 5] {
            b.record(id);
        }
        assert_eq!(a.map_hash(), b.map_hash());
        assert_ne!(a.map_hash(), FuzzCoverage::new().map_hash());
    }

    #[test]
    fn feature_domains_do_not_collide_on_small_payloads() {
        let ids = [
            opcode_pair_feature(1, 2),
            plan_op_feature(0x110),
            cascade_len_feature(3),
            cascade_fire_feature(3),
            shape_feature(true, false, true),
        ];
        let set: BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn cascade_buckets_saturate() {
        assert_ne!(cascade_len_feature(2), cascade_len_feature(3));
        assert_eq!(cascade_len_feature(20), cascade_len_feature(25));
        assert_ne!(cascade_len_feature(9), cascade_len_feature(300));
    }
}
