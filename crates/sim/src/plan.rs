//! Evaluation plans: the two-state executor. Every defined evaluation
//! of a narrow process runs its plan.
//!
//! [`build_plan`] takes every narrow (≤ 64-bit) instruction stream
//! whose undefined constants appear only as case labels, in three
//! layers:
//!
//! 1. **Superinstruction fusion** — the common instruction sequences of
//!    the corpus (load-op-store, compare-branch, mask-shift-merge, wire
//!    moves) fuse into single [`PlanOp`] opcodes executed without
//!    intermediate dispatch, and every constant-pool and width
//!    indirection is pre-resolved into the opcode itself.
//! 2. **Process coalescing** — the resulting [`EvalPlan`] is one
//!    straight-line program over registers pre-bound to bare `u64`
//!    aval slots: no per-instruction width checks, no four-state plane
//!    bookkeeping, no SSA file indirection beyond the slot array the
//!    simulator owns for each planned process.
//! 3. **Cascade fusion** — [`build_cascades`] uses the per-process
//!    read/write sets to compute a static topological order over each
//!    bail-free combinational closure, so one signal change runs one
//!    [`CascadePlan`] straight through instead of N event-wheel
//!    enqueues with per-process write-set snapshots.
//!
//! Every value a plan holds is defined: the dispatch gate admits a run
//! only when the process's read set is fully defined, a plan stores
//! only the defined words it computes, and a case label with `?`/`z`
//! (or `x`) bits is resolved at build time into a masked compare, or
//! into no branch at all when it can never match a defined selector.
//! Three operations can still yield an `X` from defined operands: a
//! dynamic bit select with an out-of-range index, and a division or
//! modulo by zero. Their opcodes *bail*: the run stops, and
//! [`crate::interp::execute`] rewinds every store to the write-set
//! snapshot it took at dispatch and re-runs the four-state loop. A plan
//! that can bail ([`EvalPlan::can_bail`]) never joins a cascade. A
//! stream no plan can take — wider than 64 bits, an undefined constant
//! used outside a case label, a statically out-of-range part select —
//! runs the four-state loop every time.
//!
//! Plans are built unconditionally at compile time (they are cheap and
//! deterministic, so delta-built designs stay structurally exact
//! against scratch builds); only *dispatch* is gated, per simulator, by
//! [`crate::Simulator::set_two_state`], whose off position runs every
//! evaluation on the four-state loop. A completed plan run is
//! store-exact against both references, the four-state loop and the
//! tree-walker, which the lockstep suites,
//! `tests/fused_vs_unfused_corpus.rs` and the fuzz oracle verify.
//!
//! Under delta rebuilds, plans invalidate structurally: per-process
//! plans travel inside their content-addressed unit, and cascade plans
//! are rebuilt wholesale by [`crate::assemble_design`] — a rebuilt
//! unit therefore drops every cascade plan whose closure contains it,
//! counted in [`CompiledDesign::invalidated_plans`](crate::CompiledDesign)
//! and surfaced through `DeltaStats`/`EvalCounts` as
//! `plan_invalidations`.

use crate::compile::{BinOp, CmpOp, CompiledProcess, Instr, ReduceOp, Slot};
use crate::design::{Design, Process, SignalId};
use crate::eval::{apply_write, PendingWrite, Store};
use mage_logic::LogicVec;
use mage_verilog::ast::CaseKind;

/// One fused-plan opcode.
///
/// Semantically each variant is one or more [`Instr`]s of a narrow
/// stream with every indirection resolved at build time: constants are
/// inline words, widths are inline masks, and the fused variants
/// (`LoadBinStore`, `CmpBranch`, `MaskMove` chains, …) retire a whole
/// source sequence in a single dispatch. All value slots are bare
/// `u64` aval words holding defined values — a plan never touches the
/// bval plane.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// `dst = val` (constant pre-resolved from the pool).
    Const {
        /// Destination slot.
        dst: Slot,
        /// Pre-masked constant value.
        val: u64,
    },
    /// `dst = (store[sig].aval >> shift) & mask` — whole-signal loads
    /// (`shift == 0`) and statically in-bounds part selects share one
    /// opcode.
    Load {
        /// Destination slot.
        dst: Slot,
        /// Source signal.
        sig: SignalId,
        /// LSB offset into the signal.
        shift: u32,
        /// Destination width mask.
        mask: u64,
    },
    /// `dst = (src >> shift) & mask` — the mask-shift-merge opcode:
    /// `Copy` (`shift == 0`), `Slice`, and fused `Copy`/`Slice` chains
    /// all collapse here.
    MaskMove {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Composed shift amount.
        shift: u32,
        /// Composed width mask.
        mask: u64,
    },
    /// `dst = !a & mask`.
    Not {
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
        /// Destination width mask.
        mask: u64,
    },
    /// `dst = a <op> b` (no div/mod: those are [`PlanOp::DivMod`]).
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Shared operand/result width mask.
        mask: u64,
    },
    /// Fused `Load; Load; Bin`: `dst = store[a] <op> store[b]`.
    LoadBin {
        /// Operator.
        op: BinOp,
        /// Destination slot.
        dst: Slot,
        /// Left source signal.
        a: SignalId,
        /// Right source signal.
        b: SignalId,
        /// Shared width mask.
        mask: u64,
    },
    /// Fused `Load; Load; Bin; Store`: one dispatch for a whole
    /// `assign y = a <op> b` process body.
    LoadBinStore {
        /// Operator.
        op: BinOp,
        /// Left source signal.
        a: SignalId,
        /// Right source signal.
        b: SignalId,
        /// Target signal.
        sig: SignalId,
        /// Store width.
        width: u32,
        /// Shared width mask.
        mask: u64,
    },
    /// Fused `Bin; Store`: `store[sig] = a <op> b`.
    BinStore {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Target signal.
        sig: SignalId,
        /// Store width.
        width: u32,
        /// Shared width mask.
        mask: u64,
    },
    /// Fused `Load; Store`: a wire alias, one dispatch.
    LoadStore {
        /// Source signal.
        a: SignalId,
        /// Target signal.
        sig: SignalId,
        /// Store width.
        width: u32,
        /// Width mask.
        mask: u64,
    },
    /// Fused `Const; Store`: a constant driver, one dispatch.
    ConstStore {
        /// Pre-masked constant value.
        val: u64,
        /// Target signal.
        sig: SignalId,
        /// Store width.
        width: u32,
    },
    /// `dst = a << amt` / `a >> amt` with the out-of-range amount
    /// producing zero.
    Shift {
        /// `true` = left shift.
        left: bool,
        /// Destination slot.
        dst: Slot,
        /// Value slot.
        a: Slot,
        /// Amount slot.
        amt: Slot,
        /// Destination width.
        w: u32,
        /// Destination width mask.
        mask: u64,
    },
    /// `dst = a && b` / `a || b` on word truth values.
    LogicBin {
        /// `true` = AND.
        and: bool,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Reduction (or logical not) of `a` into `dst`.
    Reduce {
        /// Reduction flavor.
        op: ReduceOp,
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
        /// Operand width mask.
        amask: u64,
    },
    /// Comparison of `a` and `b` into `dst` (two-state: case equality
    /// is word equality).
    Cmp {
        /// Comparison flavor.
        op: CmpOp,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Fused `Cmp; JumpIfNotTrue`: branch to `target` when the
    /// comparison is **false**.
    CmpBranch {
        /// Comparison flavor.
        op: CmpOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Branch target (plan op index).
        target: u32,
    },
    /// `dst = c ? t : f` (condition is a defined word).
    Select {
        /// Destination slot.
        dst: Slot,
        /// Condition slot.
        c: Slot,
        /// Then-branch slot.
        t: Slot,
        /// Else-branch slot.
        f: Slot,
        /// Destination width mask.
        mask: u64,
    },
    /// `dst = a / b` or `a % b`; bails on a zero divisor.
    DivMod {
        /// `true` = `%`.
        modulo: bool,
        /// Destination slot.
        dst: Slot,
        /// Dividend slot.
        a: Slot,
        /// Divisor slot.
        b: Slot,
        /// Shared operand/result width mask.
        mask: u64,
    },
    /// Dynamic bit select from the store: `dst = store[sig][idx]`;
    /// bails on an out-of-range index.
    BitSel {
        /// Destination slot.
        dst: Slot,
        /// Source signal.
        sig: SignalId,
        /// Index slot.
        idx: Slot,
        /// Declared LSB rebase of the signal.
        lsb_index: i64,
    },
    /// Concatenation of `(slot, lsb offset)` parts into `dst`.
    Concat {
        /// Destination slot.
        dst: Slot,
        /// `(part slot, LSB offset)` pairs.
        parts: Vec<(Slot, u32)>,
    },
    /// Replication: `n` copies of `src` at stride `w`.
    Repl {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Copy count.
        n: u32,
        /// Source width (stride).
        w: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target plan op index.
        target: u32,
    },
    /// Branch to `target` when `cond` is zero (two-state
    /// `JumpIfNotTrue`).
    BranchIfZero {
        /// Condition slot.
        cond: Slot,
        /// Target plan op index.
        target: u32,
    },
    /// Branch to `target` when `a == b` (case dispatch on a defined
    /// label: both case flavors reduce to word equality).
    BranchIfEq {
        /// Selector slot.
        a: Slot,
        /// Label slot.
        b: Slot,
        /// Target plan op index.
        target: u32,
    },
    /// Fused `Const; JumpIfMatch` on a label with `?`/`z` bits: branch
    /// to `target` when `a & mask == val` (the wildcard bits are
    /// outside `mask`).
    BranchIfMasked {
        /// Selector slot.
        a: Slot,
        /// The label's defined bits.
        val: u64,
        /// The label's defined positions.
        mask: u64,
        /// Target plan op index.
        target: u32,
    },
    /// General store (partial slices and non-blocking writes).
    Store {
        /// Target signal.
        sig: SignalId,
        /// Value slot.
        src: Slot,
        /// Physical LSB offset.
        lsb: i64,
        /// Slice width.
        width: u32,
        /// `<=` vs `=`.
        nonblocking: bool,
    },
    /// Whole-signal blocking store with the plane-compare fast path.
    StoreWhole {
        /// Target signal.
        sig: SignalId,
        /// Value slot.
        src: Slot,
        /// Signal width.
        width: u32,
    },
    /// Dynamic single-bit store; out-of-range indices write nothing.
    StoreBitDyn {
        /// Target signal.
        sig: SignalId,
        /// Index slot.
        idx: Slot,
        /// Declared LSB rebase.
        lsb_index: i64,
        /// 1-bit value slot.
        src: Slot,
        /// `<=` vs `=`.
        nonblocking: bool,
    },
}

/// One narrow process coalesced into a straight-line fused program.
/// Built once per [`CompiledProcess`] by [`build_plan`]; executed by
/// [`execute_plan`] over the simulator's bare `u64` slot file.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    /// The fused opcode stream.
    pub ops: Vec<PlanOp>,
    /// Per-op count of the source instructions it covers (`> 1` for
    /// fused opcodes). A case label resolved away at build time has no
    /// op and counts nothing.
    pub src_counts: Vec<u32>,
    /// Length of the source instruction stream.
    pub source_len: usize,
    /// `true` when any store is non-blocking (such processes are
    /// excluded from comb cascades, whose members commit nothing).
    pub has_nba: bool,
    /// `true` when an op can bail ([`PlanOp::BitSel`],
    /// [`PlanOp::DivMod`]): the plan is dispatched after a write-set
    /// snapshot and never joins a cascade.
    pub can_bail: bool,
}

/// A fused combinational cascade: the transitive closure of one root
/// process over processes with bail-free plans, in static topological
/// order. When the root's input changes and
/// [`reads`](CascadePlan::reads) are fully defined, the scheduler runs
/// every member's [`EvalPlan`] straight through — one plan run instead
/// of N wheel enqueues, with no per-process write-set snapshots (the
/// closure covers all combinational fanout by construction, and comb
/// writes never edge-trigger in this model).
#[derive(Debug, Clone, PartialEq)]
pub struct CascadePlan {
    /// Member process indices in dependency (topological) order.
    pub procs: Vec<u32>,
    /// Deduped union of every member's read set — the whole-cascade
    /// plan dispatch gate: all defined at entry implies all defined
    /// throughout (members store only defined values, and
    /// partially-written signals appear here too).
    pub reads: Vec<SignalId>,
}

/// Upper bound on cascade membership (keeps plan construction linear
/// on pathological fan-out designs).
const CASCADE_MEMBER_LIMIT: usize = 64;

/// Build the straight-line [`EvalPlan`] of a narrow process (an empty
/// body gets an empty plan), or `None` when the stream is wider than
/// 64 bits, uses an undefined constant other than as a case label, or
/// has a statically out-of-range part select. Fusion windows never
/// span a jump target, so control flow is preserved exactly.
pub fn build_plan(design: &Design, proc: &CompiledProcess) -> Option<EvalPlan> {
    if !proc.narrow {
        return None;
    }
    let code = &proc.code;
    let n = code.len();
    let masks: Vec<u64> = proc
        .slot_widths
        .iter()
        .map(|&w| if w == 64 { u64::MAX } else { (1u64 << w) - 1 })
        .collect();
    let consts: Vec<(u64, u64)> = proc.consts.iter().map(LogicVec::planes_u64).collect();
    let undef = |k: &u16| consts[*k as usize].1 != 0;
    // Slot use counts (slots are SSA: one writer each; fusion consumes
    // an intermediate only when this is its sole use) and jump-target
    // map (fused windows must not contain an interior target).
    let mut uses = vec![0u32; proc.slot_widths.len()];
    let mut is_target = vec![false; n + 1];
    for i in code {
        let mut u = |s: &Slot| uses[*s as usize] += 1;
        match i {
            Instr::Const { .. } | Instr::Load { .. } | Instr::ReadSlice { .. } => {}
            Instr::Copy { src, .. } | Instr::Slice { src, .. } | Instr::Repl { src, .. } => u(src),
            Instr::Not { a, .. } | Instr::Reduce { a, .. } => u(a),
            Instr::Bin { a, b, .. } | Instr::LogicBin { a, b, .. } | Instr::Cmp { a, b, .. } => {
                u(a);
                u(b);
            }
            Instr::Shift { a, amt, .. } => {
                u(a);
                u(amt);
            }
            Instr::Select { c, t, f, .. } => {
                u(c);
                u(t);
                u(f);
            }
            Instr::Concat { parts, .. } => parts.iter().for_each(|(s, _)| uses[*s as usize] += 1),
            Instr::BitSelSig { idx, .. } => u(idx),
            Instr::Jump { target } => is_target[*target] = true,
            Instr::JumpIfNotTrue { cond, target } => {
                u(cond);
                is_target[*target] = true;
            }
            Instr::JumpIfMatch {
                sel, label, target, ..
            } => {
                u(sel);
                u(label);
                is_target[*target] = true;
            }
            Instr::Store { src, .. } => u(src),
            Instr::StoreBitDyn { idx, src, .. } => {
                u(idx);
                u(src);
            }
        }
    }
    // Plan registers hold defined words only: an undefined constant is
    // admitted solely as a case label (`Const` feeding the adjacent
    // `JumpIfMatch` and nothing else, fused below), and a part select
    // must stay inside its signal.
    for (i, instr) in code.iter().enumerate() {
        let ok = match instr {
            Instr::Const { dst, k } if undef(k) => {
                matches!(code.get(i + 1), Some(Instr::JumpIfMatch { label, .. }) if label == dst)
                    && uses[*dst as usize] == 1
                    && !is_target[i + 1]
            }
            Instr::ReadSlice { dst, sig, lsb } => {
                *lsb >= 0 && (*lsb as usize) + proc.slot_widths[*dst as usize] <= design.width(*sig)
            }
            _ => true,
        };
        if !ok {
            return None;
        }
    }
    // A whole-signal blocking store of `src` (the fusable store shape).
    let whole_store = |i: &Instr, src_slot: Slot| -> Option<(SignalId, u32)> {
        match i {
            Instr::Store {
                sig,
                src,
                lsb: 0,
                width,
                nonblocking: false,
            } if *src == src_slot && *width == design.width(*sig) => Some((*sig, *width as u32)),
            _ => None,
        }
    };
    // Interior-of-window jump-target check: ops i+1..i+len must not be
    // branch targets, or the fused op would swallow a landing pad.
    let clear = |from: usize, len: usize| (from + 1..from + len).all(|k| !is_target[k]);

    // Pass 1: choose fusion groups, longest pattern first.
    let mut group = vec![1usize; n];
    let mut i = 0usize;
    while i < n {
        let g = &mut group[i];
        match &code[i..] {
            // undefined case label: Const; JumpIfMatch (checked above) --
            [Instr::Const { k, .. }, ..] if undef(k) => {
                *g = 2;
            }
            // load-op-store: Load; Load; Bin; Store ---------------------
            [Instr::Load { dst: ra, .. }, Instr::Load { dst: rb, .. }, Instr::Bin { op, dst: rd, a, b }, st, ..]
                if clear(i, 4)
                    && !matches!(op, BinOp::Div | BinOp::Mod)
                    && a == ra
                    && b == rb
                    && uses[*ra as usize] == 1
                    && uses[*rb as usize] == 1
                    && uses[*rd as usize] == 1
                    && masks[*ra as usize] == masks[*rd as usize]
                    && masks[*rb as usize] == masks[*rd as usize]
                    && whole_store(st, *rd).is_some() =>
            {
                *g = 4;
            }
            // load-op: Load; Load; Bin ----------------------------------
            [Instr::Load { dst: ra, .. }, Instr::Load { dst: rb, .. }, Instr::Bin { op, dst: rd, a, b }, ..]
                if clear(i, 3)
                    && !matches!(op, BinOp::Div | BinOp::Mod)
                    && a == ra
                    && b == rb
                    && uses[*ra as usize] == 1
                    && uses[*rb as usize] == 1
                    && masks[*ra as usize] == masks[*rd as usize]
                    && masks[*rb as usize] == masks[*rd as usize] =>
            {
                *g = 3;
            }
            // op-store: Bin; Store --------------------------------------
            [Instr::Bin { op, dst: rd, .. }, st, ..]
                if clear(i, 2)
                    && !matches!(op, BinOp::Div | BinOp::Mod)
                    && uses[*rd as usize] == 1
                    && whole_store(st, *rd).is_some() =>
            {
                *g = 2;
            }
            // compare-branch: Cmp; JumpIfNotTrue ------------------------
            [Instr::Cmp { dst: rd, .. }, Instr::JumpIfNotTrue { cond, .. }, ..]
                if clear(i, 2) && cond == rd && uses[*rd as usize] == 1 =>
            {
                *g = 2;
            }
            // mask-shift-merge: (Copy|Slice); (Copy|Slice) --------------
            [first, second, ..]
                if clear(i, 2)
                    && matches!(first, Instr::Copy { .. } | Instr::Slice { .. })
                    && matches!(second, Instr::Copy { .. } | Instr::Slice { .. })
                    && {
                        let d1 = match first {
                            Instr::Copy { dst, .. } | Instr::Slice { dst, .. } => *dst,
                            _ => unreachable!(),
                        };
                        let s2 = match second {
                            Instr::Copy { src, .. } | Instr::Slice { src, .. } => *src,
                            _ => unreachable!(),
                        };
                        d1 == s2 && uses[d1 as usize] == 1
                    } =>
            {
                *g = 2;
            }
            // wire move: Load; Store ------------------------------------
            [Instr::Load { dst: ra, .. }, st, ..]
                if clear(i, 2) && uses[*ra as usize] == 1 && whole_store(st, *ra).is_some() =>
            {
                *g = 2;
            }
            // constant driver: Const; Store -----------------------------
            [Instr::Const { dst: ra, .. }, st, ..]
                if clear(i, 2) && uses[*ra as usize] == 1 && whole_store(st, *ra).is_some() =>
            {
                *g = 2;
            }
            _ => {}
        }
        i += group[i];
    }

    // Pass 2: emit, recording the old→new index map for branch targets.
    let mut new_index = vec![0u32; n + 1];
    let mut ops: Vec<PlanOp> = Vec::new();
    let mut src_counts: Vec<u32> = Vec::new();
    let mut has_nba = false;
    let mut can_bail = false;
    let mut i = 0usize;
    while i < n {
        let g = group[i];
        for (k, ni) in new_index.iter_mut().enumerate().skip(i).take(g) {
            debug_assert!(k == i || !is_target[k]);
            *ni = ops.len() as u32;
        }
        let op = match (g, &code[i..]) {
            (
                2,
                [Instr::Const { k, .. }, Instr::JumpIfMatch {
                    sel, kind, target, ..
                }, ..],
            ) if undef(k) => {
                let (la, lb) = consts[*k as usize];
                // `?`/`z` label bits are casez wildcards; any other
                // undefined bit never equals a defined selector bit.
                let wild = if *kind == CaseKind::Casez {
                    lb & !la
                } else {
                    0
                };
                if lb & !wild != 0 {
                    i += g;
                    continue;
                }
                PlanOp::BranchIfMasked {
                    a: *sel,
                    val: la,
                    mask: masks[*sel as usize] & !wild,
                    target: *target as u32,
                }
            }
            (
                4,
                [Instr::Load { sig: sa, .. }, Instr::Load { sig: sb, .. }, Instr::Bin { op, dst: rd, .. }, st, ..],
            ) => {
                let (sig, width) = whole_store(st, *rd).expect("pattern checked");
                PlanOp::LoadBinStore {
                    op: *op,
                    a: *sa,
                    b: *sb,
                    sig,
                    width,
                    mask: masks[*rd as usize],
                }
            }
            (
                3,
                [Instr::Load { sig: sa, .. }, Instr::Load { sig: sb, .. }, Instr::Bin { op, dst: rd, .. }, ..],
            ) => PlanOp::LoadBin {
                op: *op,
                dst: *rd,
                a: *sa,
                b: *sb,
                mask: masks[*rd as usize],
            },
            (2, [Instr::Bin { op, dst: rd, a, b }, st, ..]) => {
                let (sig, width) = whole_store(st, *rd).expect("pattern checked");
                PlanOp::BinStore {
                    op: *op,
                    a: *a,
                    b: *b,
                    sig,
                    width,
                    mask: masks[*rd as usize],
                }
            }
            (2, [Instr::Cmp { op, a, b, .. }, Instr::JumpIfNotTrue { target, .. }, ..]) => {
                PlanOp::CmpBranch {
                    op: *op,
                    a: *a,
                    b: *b,
                    target: *target as u32, // remapped below
                }
            }
            (2, [first, second, ..])
                if matches!(first, Instr::Copy { .. } | Instr::Slice { .. })
                    && matches!(second, Instr::Copy { .. } | Instr::Slice { .. }) =>
            {
                let (s1, l1, d1) = move_parts(first);
                let (_, l2, d2) = move_parts(second);
                PlanOp::MaskMove {
                    dst: d2,
                    src: s1,
                    shift: (l1 + l2) as u32,
                    mask: (masks[d1 as usize] >> l2) & masks[d2 as usize],
                }
            }
            (2, [Instr::Load { dst: ra, sig }, st, ..]) => {
                let (out, width) = whole_store(st, *ra).expect("pattern checked");
                PlanOp::LoadStore {
                    a: *sig,
                    sig: out,
                    width,
                    mask: masks[*ra as usize],
                }
            }
            (2, [Instr::Const { dst: ra, k }, st, ..]) => {
                let (sig, width) = whole_store(st, *ra).expect("pattern checked");
                PlanOp::ConstStore {
                    val: consts[*k as usize].0,
                    sig,
                    width,
                }
            }
            (1, [instr, ..]) => match instr {
                Instr::Const { dst, k } => PlanOp::Const {
                    dst: *dst,
                    val: consts[*k as usize].0,
                },
                Instr::Load { dst, sig } => PlanOp::Load {
                    dst: *dst,
                    sig: *sig,
                    shift: 0,
                    mask: masks[*dst as usize],
                },
                Instr::ReadSlice { dst, sig, lsb } => PlanOp::Load {
                    dst: *dst,
                    sig: *sig,
                    // Statically in bounds (checked above).
                    shift: *lsb as u32,
                    mask: masks[*dst as usize],
                },
                Instr::Copy { dst, src } => PlanOp::MaskMove {
                    dst: *dst,
                    src: *src,
                    shift: 0,
                    mask: masks[*dst as usize],
                },
                Instr::Slice { dst, src, lsb } => PlanOp::MaskMove {
                    dst: *dst,
                    src: *src,
                    shift: *lsb as u32,
                    mask: masks[*dst as usize],
                },
                Instr::Not { dst, a } => PlanOp::Not {
                    dst: *dst,
                    a: *a,
                    mask: masks[*dst as usize],
                },
                Instr::Bin {
                    op: op @ (BinOp::Div | BinOp::Mod),
                    dst,
                    a,
                    b,
                } => {
                    can_bail = true;
                    PlanOp::DivMod {
                        modulo: *op == BinOp::Mod,
                        dst: *dst,
                        a: *a,
                        b: *b,
                        mask: masks[*dst as usize],
                    }
                }
                Instr::Bin { op, dst, a, b } => PlanOp::Bin {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    b: *b,
                    mask: masks[*dst as usize],
                },
                Instr::Shift { left, dst, a, amt } => PlanOp::Shift {
                    left: *left,
                    dst: *dst,
                    a: *a,
                    amt: *amt,
                    w: proc.slot_widths[*dst as usize] as u32,
                    mask: masks[*dst as usize],
                },
                Instr::LogicBin { and, dst, a, b } => PlanOp::LogicBin {
                    and: *and,
                    dst: *dst,
                    a: *a,
                    b: *b,
                },
                Instr::Reduce { op, dst, a } => PlanOp::Reduce {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    amask: masks[*a as usize],
                },
                Instr::Cmp { op, dst, a, b } => PlanOp::Cmp {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    b: *b,
                },
                Instr::Select { dst, c, t, f } => PlanOp::Select {
                    dst: *dst,
                    c: *c,
                    t: *t,
                    f: *f,
                    mask: masks[*dst as usize],
                },
                Instr::Concat { dst, parts } => PlanOp::Concat {
                    dst: *dst,
                    parts: parts.iter().map(|(s, o)| (*s, *o as u32)).collect(),
                },
                Instr::Repl { dst, src, n } => PlanOp::Repl {
                    dst: *dst,
                    src: *src,
                    n: *n as u32,
                    w: proc.slot_widths[*src as usize] as u32,
                },
                Instr::BitSelSig {
                    dst,
                    sig,
                    idx,
                    lsb_index,
                } => {
                    can_bail = true;
                    PlanOp::BitSel {
                        dst: *dst,
                        sig: *sig,
                        idx: *idx,
                        lsb_index: *lsb_index,
                    }
                }
                Instr::Jump { target } => PlanOp::Jump {
                    target: *target as u32,
                },
                Instr::JumpIfNotTrue { cond, target } => PlanOp::BranchIfZero {
                    cond: *cond,
                    target: *target as u32,
                },
                Instr::JumpIfMatch {
                    sel, label, target, ..
                } => PlanOp::BranchIfEq {
                    a: *sel,
                    b: *label,
                    target: *target as u32,
                },
                Instr::Store {
                    sig,
                    src,
                    lsb,
                    width,
                    nonblocking,
                } => {
                    has_nba |= *nonblocking;
                    if *lsb == 0 && !*nonblocking && *width == design.width(*sig) {
                        PlanOp::StoreWhole {
                            sig: *sig,
                            src: *src,
                            width: *width as u32,
                        }
                    } else {
                        PlanOp::Store {
                            sig: *sig,
                            src: *src,
                            lsb: *lsb,
                            width: *width as u32,
                            nonblocking: *nonblocking,
                        }
                    }
                }
                Instr::StoreBitDyn {
                    sig,
                    idx,
                    lsb_index,
                    src,
                    nonblocking,
                } => {
                    has_nba |= *nonblocking;
                    PlanOp::StoreBitDyn {
                        sig: *sig,
                        idx: *idx,
                        lsb_index: *lsb_index,
                        src: *src,
                        nonblocking: *nonblocking,
                    }
                }
            },
            _ => unreachable!("group lengths cover all shapes"),
        };
        ops.push(op);
        src_counts.push(g as u32);
        i += g;
    }
    new_index[n] = ops.len() as u32;
    // Pass 3: remap branch targets from source indices to op indices.
    for op in &mut ops {
        match op {
            PlanOp::Jump { target }
            | PlanOp::BranchIfZero { target, .. }
            | PlanOp::BranchIfEq { target, .. }
            | PlanOp::BranchIfMasked { target, .. }
            | PlanOp::CmpBranch { target, .. } => *target = new_index[*target as usize],
            _ => {}
        }
    }
    Some(EvalPlan {
        ops,
        src_counts,
        source_len: n,
        has_nba,
        can_bail,
    })
}

/// Source/shift/destination of a `Copy`/`Slice` move instruction.
fn move_parts(i: &Instr) -> (Slot, usize, Slot) {
    match i {
        Instr::Copy { dst, src } => (*src, 0, *dst),
        Instr::Slice { dst, src, lsb } => (*src, *lsb, *dst),
        _ => unreachable!("move_parts on non-move"),
    }
}

/// Build the per-root cascade plans of a design: for every eligible
/// combinational process, the transitive closure of comb readers of
/// its writes, when every member's plan is bail-free and NBA-free, and
/// the closure is acyclic and within `CASCADE_MEMBER_LIMIT`. Returns the plans and
/// the per-process root index (`cascade_of[p]` names the plan the
/// scheduler runs when `p` pops off the active region).
pub fn build_cascades(
    design: &Design,
    procs: &[CompiledProcess],
    comb_readers: &[Vec<u32>],
) -> (Vec<CascadePlan>, Vec<Option<u32>>) {
    let n = procs.len();
    let mut cascade_of: Vec<Option<u32>> = vec![None; n];
    let mut cascades: Vec<CascadePlan> = Vec::new();
    let eligible: Vec<bool> = (0..n)
        .map(|i| {
            matches!(design.processes[i], Process::Comb { .. })
                && procs[i]
                    .plan
                    .as_ref()
                    .is_some_and(|p| !p.has_nba && !p.can_bail)
        })
        .collect();
    let mut in_members = vec![false; n];
    let mut read_stamp = vec![false; design.signals.len()];
    for root in 0..n {
        if !eligible[root] {
            continue;
        }
        // BFS closure over comb readers of member-written signals.
        let mut members: Vec<u32> = vec![root as u32];
        in_members[root] = true;
        let mut head = 0usize;
        let mut ok = true;
        while head < members.len() {
            let q = members[head] as usize;
            head += 1;
            for &w in &procs[q].writes {
                for &r in &comb_readers[w.index()] {
                    let r = r as usize;
                    if in_members[r] {
                        continue;
                    }
                    if !eligible[r] || members.len() >= CASCADE_MEMBER_LIMIT {
                        ok = false;
                        break;
                    }
                    in_members[r] = true;
                    members.push(r as u32);
                }
                if !ok {
                    break;
                }
            }
            if !ok {
                break;
            }
        }
        let order = if ok {
            topo_order(procs, &members)
        } else {
            None
        };
        if let Some(order) = order {
            // Union read set in topo order (first-use, deduped).
            let mut reads: Vec<SignalId> = Vec::new();
            for &m in &order {
                for &s in &procs[m as usize].reads {
                    if !read_stamp[s.index()] {
                        read_stamp[s.index()] = true;
                        reads.push(s);
                    }
                }
            }
            for s in &reads {
                read_stamp[s.index()] = false;
            }
            cascade_of[root] = Some(cascades.len() as u32);
            cascades.push(CascadePlan {
                procs: order,
                reads,
            });
        }
        for &m in &members {
            in_members[m as usize] = false;
        }
    }
    (cascades, cascade_of)
}

/// Topological order of `members` under the dataflow relation
/// `q → r` iff `r` reads a signal `q` writes, or `None` when the
/// subgraph is cyclic (including self-reading accumulators, which the
/// event wheel's net-change fixpoint must keep handling). Kahn's
/// algorithm with min-index selection keeps the order deterministic.
fn topo_order(procs: &[CompiledProcess], members: &[u32]) -> Option<Vec<u32>> {
    let m = members.len();
    // Dense member-local adjacency (m is capped and small).
    let mut indeg = vec![0u32; m];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (qi, &q) in members.iter().enumerate() {
        for (ri, &r) in members.iter().enumerate() {
            let depends = procs[r as usize]
                .reads
                .iter()
                .any(|s| procs[q as usize].writes.contains(s));
            if depends {
                if qi == ri {
                    return None; // self-reading: cyclic
                }
                edges.push((qi, ri));
                indeg[ri] += 1;
            }
        }
    }
    let mut order: Vec<u32> = Vec::with_capacity(m);
    let mut done = vec![false; m];
    for _ in 0..m {
        let next = (0..m).find(|&i| !done[i] && indeg[i] == 0)?;
        done[next] = true;
        order.push(members[next]);
        for &(q, r) in &edges {
            if q == next {
                indeg[r] -= 1;
            }
        }
    }
    Some(order)
}

/// Execute one [`EvalPlan`] over bare `u64` aval slots. The caller
/// must have verified the read set is fully defined; a completed run
/// stores exactly what the four-state loop would. Returns the retired
/// `(plan ops, source instructions covered)` pair feeding
/// `EvalCounts::plan_steps` / `plan_unfused_steps`, or `None` when an
/// op bailed (only when [`EvalPlan::can_bail`]): the stores made so far
/// are partial, and the caller must rewind them and re-run the
/// four-state loop.
pub fn execute_plan(
    plan: &EvalPlan,
    regs: &mut [u64],
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
) -> Option<(u32, u32)> {
    let mut pc = 0usize;
    let (mut retired, mut src_retired) = (0u32, 0u32);
    while pc < plan.ops.len() {
        retired += 1;
        src_retired += plan.src_counts[pc];
        match &plan.ops[pc] {
            PlanOp::Const { dst, val } => regs[*dst as usize] = *val,
            PlanOp::Load {
                dst,
                sig,
                shift,
                mask,
            } => {
                let (a, _) = store[sig.index()].planes_u64();
                regs[*dst as usize] = (a >> shift) & mask;
            }
            PlanOp::MaskMove {
                dst,
                src,
                shift,
                mask,
            } => {
                regs[*dst as usize] = (regs[*src as usize] >> shift) & mask;
            }
            PlanOp::Not { dst, a, mask } => {
                regs[*dst as usize] = !regs[*a as usize] & mask;
            }
            PlanOp::Bin {
                op,
                dst,
                a,
                b,
                mask,
            } => {
                regs[*dst as usize] = bin_val(*op, regs[*a as usize], regs[*b as usize], *mask);
            }
            PlanOp::LoadBin {
                op,
                dst,
                a,
                b,
                mask,
            } => {
                let x = store[a.index()].planes_u64().0 & mask;
                let y = store[b.index()].planes_u64().0 & mask;
                regs[*dst as usize] = bin_val(*op, x, y, *mask);
            }
            PlanOp::LoadBinStore {
                op,
                a,
                b,
                sig,
                width,
                mask,
            } => {
                let x = store[a.index()].planes_u64().0 & mask;
                let y = store[b.index()].planes_u64().0 & mask;
                let r = bin_val(*op, x, y, *mask);
                store_whole(store, changed, *sig, r, *width as usize);
            }
            PlanOp::BinStore {
                op,
                a,
                b,
                sig,
                width,
                mask,
            } => {
                let r = bin_val(*op, regs[*a as usize], regs[*b as usize], *mask);
                store_whole(store, changed, *sig, r, *width as usize);
            }
            PlanOp::LoadStore {
                a,
                sig,
                width,
                mask,
            } => {
                let v = store[a.index()].planes_u64().0 & mask;
                store_whole(store, changed, *sig, v, *width as usize);
            }
            PlanOp::ConstStore { val, sig, width } => {
                store_whole(store, changed, *sig, *val, *width as usize);
            }
            PlanOp::Shift {
                left,
                dst,
                a,
                amt,
                w,
                mask,
            } => {
                let v = regs[*a as usize];
                let n = regs[*amt as usize];
                regs[*dst as usize] = if n >= *w as u64 {
                    0
                } else if *left {
                    (v << n) & mask
                } else {
                    v >> n
                };
            }
            PlanOp::LogicBin { and, dst, a, b } => {
                let ta = regs[*a as usize] != 0;
                let tb = regs[*b as usize] != 0;
                regs[*dst as usize] = (if *and { ta && tb } else { ta || tb }) as u64;
            }
            PlanOp::Reduce { op, dst, a, amask } => {
                let v = regs[*a as usize];
                regs[*dst as usize] = match op {
                    ReduceOp::And => (v == *amask) as u64,
                    ReduceOp::Nand => (v != *amask) as u64,
                    ReduceOp::Or => (v != 0) as u64,
                    ReduceOp::Nor => (v == 0) as u64,
                    ReduceOp::Xor => (v.count_ones() & 1) as u64,
                    ReduceOp::Xnor => (1 - (v.count_ones() & 1)) as u64,
                    ReduceOp::LogicNot => (v == 0) as u64,
                };
            }
            PlanOp::Cmp { op, dst, a, b } => {
                regs[*dst as usize] = cmp_val(*op, regs[*a as usize], regs[*b as usize]) as u64;
            }
            PlanOp::CmpBranch { op, a, b, target } => {
                if !cmp_val(*op, regs[*a as usize], regs[*b as usize]) {
                    pc = *target as usize;
                    continue;
                }
            }
            PlanOp::Select { dst, c, t, f, mask } => {
                let r = if regs[*c as usize] != 0 {
                    regs[*t as usize]
                } else {
                    regs[*f as usize]
                };
                regs[*dst as usize] = r & mask;
            }
            PlanOp::DivMod {
                modulo,
                dst,
                a,
                b,
                mask,
            } => {
                let (x, y) = (regs[*a as usize], regs[*b as usize]);
                if y == 0 {
                    return None; // division by zero yields X
                }
                regs[*dst as usize] = (if *modulo { x % y } else { x / y }) & mask;
            }
            PlanOp::BitSel {
                dst,
                sig,
                idx,
                lsb_index,
            } => {
                let value = &store[sig.index()];
                let phys = regs[*idx as usize] as i64 - lsb_index;
                if phys < 0 || phys as usize >= value.width() {
                    return None; // an out-of-range read yields X
                }
                regs[*dst as usize] = (value.planes_u64().0 >> phys) & 1;
            }
            PlanOp::Concat { dst, parts } => {
                let mut acc = 0u64;
                for (slot, offset) in parts {
                    acc |= regs[*slot as usize] << offset;
                }
                regs[*dst as usize] = acc;
            }
            PlanOp::Repl { dst, src, n, w } => {
                let v = regs[*src as usize];
                let mut acc = 0u64;
                for k in 0..*n {
                    acc |= v << (k * w);
                }
                regs[*dst as usize] = acc;
            }
            PlanOp::Jump { target } => {
                pc = *target as usize;
                continue;
            }
            PlanOp::BranchIfZero { cond, target } => {
                if regs[*cond as usize] == 0 {
                    pc = *target as usize;
                    continue;
                }
            }
            PlanOp::BranchIfEq { a, b, target } => {
                if regs[*a as usize] == regs[*b as usize] {
                    pc = *target as usize;
                    continue;
                }
            }
            PlanOp::BranchIfMasked {
                a,
                val,
                mask,
                target,
            } => {
                if regs[*a as usize] & mask == *val {
                    pc = *target as usize;
                    continue;
                }
            }
            PlanOp::StoreWhole { sig, src, width } => {
                store_whole(store, changed, *sig, regs[*src as usize], *width as usize);
            }
            PlanOp::Store {
                sig,
                src,
                lsb,
                width,
                nonblocking,
            } => {
                let va = regs[*src as usize];
                let width = *width as usize;
                if *nonblocking {
                    nba.push(PendingWrite {
                        signal: *sig,
                        lsb: *lsb,
                        width,
                        value: LogicVec::from_planes_u64(width, va, 0),
                    });
                } else {
                    let cur = &mut store[sig.index()];
                    if *lsb == 0 && width == cur.width() {
                        if cur.planes_u64() != (va, 0) {
                            *cur = LogicVec::from_planes_u64(width, va, 0);
                            changed.push(*sig);
                        }
                    } else {
                        let value = LogicVec::from_planes_u64(width, va, 0);
                        apply_write(store, *sig, *lsb, width, &value, changed);
                    }
                }
            }
            PlanOp::StoreBitDyn {
                sig,
                idx,
                lsb_index,
                src,
                nonblocking,
            } => {
                let ia = regs[*idx as usize];
                let width = store[sig.index()].width();
                let phys = ia as i64 - lsb_index;
                if phys >= 0 && (phys as usize) < width {
                    let value = LogicVec::from_planes_u64(1, regs[*src as usize], 0);
                    if *nonblocking {
                        nba.push(PendingWrite {
                            signal: *sig,
                            lsb: phys,
                            width: 1,
                            value,
                        });
                    } else {
                        apply_write(store, *sig, phys, 1, &value, changed);
                    }
                }
            }
        }
        pc += 1;
    }
    Some((retired, src_retired))
}

/// Two-state binary operator on defined words.
#[inline]
fn bin_val(op: BinOp, x: u64, y: u64, mask: u64) -> u64 {
    match op {
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Xnor => !(x ^ y) & mask,
        BinOp::Add => x.wrapping_add(y) & mask,
        BinOp::Sub => x.wrapping_sub(y) & mask,
        BinOp::Mul => x.wrapping_mul(y) & mask,
        BinOp::Div | BinOp::Mod => unreachable!("div/mod run as PlanOp::DivMod"),
    }
}

/// Two-state comparison on defined words (case equality is equality).
#[inline]
fn cmp_val(op: CmpOp, x: u64, y: u64) -> bool {
    match op {
        CmpOp::Eq | CmpOp::CaseEq => x == y,
        CmpOp::Neq | CmpOp::CaseNeq => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// Whole-signal blocking store with the plane-compare fast path (the
/// shape every fused store uses; `width` is the full signal width by
/// construction).
#[inline]
fn store_whole(
    store: &mut Store,
    changed: &mut Vec<SignalId>,
    sig: SignalId,
    val: u64,
    width: usize,
) {
    let cur = &mut store[sig.index()];
    debug_assert_eq!(width, cur.width());
    if cur.planes_u64() != (val, 0) {
        *cur = LogicVec::from_planes_u64(width, val, 0);
        changed.push(sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use std::sync::Arc;

    fn design_of(src: &str) -> Arc<Design> {
        let file = mage_verilog::parse(src).unwrap();
        let top = file.modules.last().unwrap().name.clone();
        Arc::new(elaborate(&file, &top).unwrap())
    }

    #[test]
    fn assign_fuses_to_one_op() {
        let d = design_of("module top(input a, input b, output y); assign y = a & b; endmodule");
        let cd = d.compiled();
        let p = cd
            .procs
            .iter()
            .find(|p| p.plan.is_some())
            .expect("planned assign");
        let plan = p.plan.as_ref().expect("plan built");
        // Load; Load; Bin; Store → one LoadBinStore.
        assert_eq!(plan.source_len, 4);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(plan.ops[0], PlanOp::LoadBinStore { .. }));
        assert_eq!(plan.src_counts, vec![4]);
    }

    #[test]
    fn comb_chain_builds_a_topo_cascade() {
        let d = design_of(
            "module top(input a, input b, output w, output v);
               wire x;
               assign x = a & b;
               assign w = x | a;
               assign v = w ^ b;
             endmodule",
        );
        let cd = d.compiled();
        // The root driving `x` cascades through all three assigns.
        let root = cd
            .cascade_of
            .iter()
            .flatten()
            .map(|&c| &cd.cascades[c as usize])
            .find(|c| c.procs.len() == 3)
            .expect("three-member cascade");
        // Topological: x before w before v.
        let pos = |pi: u32| root.procs.iter().position(|&p| p == pi).unwrap();
        let writes_of = |pi: u32| &cd.procs[pi as usize].writes;
        let x = d.signal("x").unwrap();
        let w = d.signal("w").unwrap();
        let xi = root
            .procs
            .iter()
            .copied()
            .find(|&p| writes_of(p).contains(&x))
            .unwrap();
        let wi = root
            .procs
            .iter()
            .copied()
            .find(|&p| writes_of(p).contains(&w))
            .unwrap();
        assert!(pos(xi) < pos(wi), "x must evaluate before w");
    }

    #[test]
    fn self_reading_process_gets_no_cascade() {
        // `y = y | a` is a self-reading comb loop the wheel's net-change
        // fixpoint handles; a straight-line plan cannot.
        let d = design_of("module top(input a, output y); assign y = y | a; endmodule");
        let cd = d.compiled();
        assert!(cd.cascades.is_empty());
        assert!(cd.cascade_of.iter().all(Option::is_none));
    }

    #[test]
    fn bail_able_member_joins_no_cascade() {
        // `y = x[i]` can bail (an out-of-range index reads X), so its
        // plan runs alone behind a write-set snapshot: it is in no
        // cascade, and neither is the root whose closure contains it.
        let d = design_of(
            "module top(input [3:0] a, input [2:0] i, output w);
               wire [3:0] x;
               wire y;
               assign x = a ^ 4'd5;
               assign y = x[i];
               assign w = ~y;
             endmodule",
        );
        let cd = d.compiled();
        let writer = |name: &str| {
            let sig = d.signal(name).unwrap();
            cd.procs
                .iter()
                .position(|p| p.writes.contains(&sig))
                .unwrap()
        };
        let (root, middle, tail) = (writer("x"), writer("y"), writer("w"));
        let plan = cd.procs[middle].plan.as_ref().expect("planned");
        assert!(plan.can_bail);
        assert!(cd
            .cascades
            .iter()
            .all(|c| !c.procs.contains(&(middle as u32))));
        assert_eq!(cd.cascade_of[middle], None);
        assert_eq!(
            cd.cascade_of[root], None,
            "its closure holds the bail-able member"
        );
        assert!(
            cd.cascade_of[tail].is_some(),
            "the bail-free tail still cascades"
        );
    }

    #[test]
    fn branch_targets_survive_fusion() {
        // An if/else over defined constants: compare-branch fusion must
        // remap the jump targets onto the fused op stream.
        let d = design_of(
            "module top(input [3:0] a, input [3:0] b, output reg [3:0] y);
               always @(*) if (a == b) y = a + 4'd1; else y = b - 4'd2;
             endmodule",
        );
        let cd = d.compiled();
        let p = cd.procs.iter().find(|p| p.plan.is_some()).expect("planned");
        let plan = p.plan.as_ref().expect("plan built");
        assert!(plan.ops.len() < plan.source_len, "fusion fired");
        // Every branch target must land inside (or exactly at the end
        // of) the op stream.
        for op in &plan.ops {
            if let PlanOp::Jump { target }
            | PlanOp::BranchIfZero { target, .. }
            | PlanOp::BranchIfEq { target, .. }
            | PlanOp::CmpBranch { target, .. } = op
            {
                assert!(*target as usize <= plan.ops.len());
            }
        }
    }
}
