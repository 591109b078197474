//! Bytecode interpretation: executes [`CompiledProcess`] streams over a
//! pre-sized register file.
//!
//! This is the compile-once, execute-many counterpart of the
//! tree-walking [`crate::eval`] path. All widths were resolved by
//! [`crate::compile`]; execution is a flat `pc` loop in which
//!
//! * every operator writes into its destination slot **in place**
//!   (`set_add`, `set_and`, `assign_resized`, …) — for the ≤ 64-bit
//!   widths that dominate the benchmark corpus the whole loop runs
//!   without a single heap allocation;
//! * stores go through the same slice-precise `apply_write` as the
//!   legacy path, so change detection and non-blocking commit order are
//!   identical (the tree-walker stays alive as the differential-testing
//!   oracle — see `tests/compiled_vs_interp.rs`).
//!
//! # One interpreter loop plus plans
//!
//! `execute_wide` is the one interpreter loop: four-state, `LogicVec`
//! slots, any width. Every evaluation that can see an `X`/`Z` runs
//! here. Every other evaluation runs the process's
//! [`crate::plan::EvalPlan`], the two-state executor: fused opcodes
//! over bare `u64` aval registers (the steady-state hot path of
//! defined kernels).
//!
//! Dispatch happens in [`execute`]: a process with a plan runs it
//! whenever its read set is fully defined
//! ([`CompiledProcess::reads_fully_defined`]), so the all-`X` boot
//! state runs four-state until the first defined values arrive, and
//! any poked `X`/`Z` demotes exactly the processes that read it until
//! it clears. A plan that can bail (an out-of-range dynamic bit
//! select, a zero divisor) runs behind a write-set snapshot; a bail
//! rewinds the partial run and re-runs `execute_wide`. A process with
//! no plan runs `execute_wide` every time.
//!
//! The register file for each process is owned by the [`crate::Simulator`]
//! and reused across executions, so steady-state simulation performs no
//! per-activation setup beyond the `pc` loop itself.
//!
//! Change reporting is what feeds the event wheel: blocking stores go
//! through `apply_write` (or a plan's whole-signal fast path), which
//! records a signal in `changed` only when the stored value
//! actually moved — the scheduler turns exactly those entries into
//! fanout events, so a store of an unchanged value schedules nothing.

use crate::compile::{BinOp, CmpOp, CompiledProcess, Instr, ReduceOp, Slot};
use crate::design::SignalId;
use crate::eval::{apply_write, PendingWrite, Store};
use mage_logic::{LogicBit, LogicVec, Truth};
use mage_verilog::ast::CaseKind;

/// Split the register file at `dst`: slots are SSA (every destination is
/// allocated after all of its operands), so `&mut regs[dst]` plus shared
/// access to all lower slots covers every instruction without moves or
/// clones.
#[inline]
fn dst_srcs(regs: &mut [LogicVec], dst: Slot) -> (&mut LogicVec, &[LogicVec]) {
    let (lo, hi) = regs.split_at_mut(dst as usize);
    (&mut hi[0], lo)
}

/// Write `bit` into `dst` as a 1-bit value zero-extended to `dst`'s
/// width (the shape of every reduction/comparison/logical result).
#[inline]
fn set_bit_result(dst: &mut LogicVec, bit: LogicBit) {
    dst.fill(LogicBit::Zero);
    dst.set_bit(0, bit);
}

/// Register file of one process. Slot contents are don't-care between
/// runs: every use is dominated by a definition.
#[derive(Debug, Clone)]
pub struct RegFile {
    /// `LogicVec` per slot: the four-state loop's file (every process).
    regs: Vec<LogicVec>,
    /// aval word per slot (processes with a [`CompiledProcess::plan`]
    /// only, else empty): plan runs touch no bval storage at all.
    pub(crate) aregs: Vec<u64>,
    /// Plane pairs of `proc.writes`, captured before a run of a plan
    /// that can bail.
    snap: Vec<(u64, u64)>,
}

impl RegFile {
    /// The matching register file for a compiled process.
    pub fn for_process(proc: &CompiledProcess) -> RegFile {
        let slots = proc.slot_widths.len();
        RegFile {
            regs: proc.slot_widths.iter().map(|&w| LogicVec::new(w)).collect(),
            aregs: if proc.plan.is_some() {
                vec![0; slots]
            } else {
                Vec::new()
            },
            snap: Vec::new(),
        }
    }
}

/// Which execution path serviced an [`execute`] call (feeds the
/// scheduler's `two_state_evals`/`two_state_fallbacks` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The process's [`crate::plan::EvalPlan`] ran to completion: `ops`
    /// plan opcodes retired, covering `src` source instructions. Feeds
    /// `two_state_evals`/`plan_steps`/`plan_unfused_steps`.
    Plan {
        /// Plan opcodes retired.
        ops: u32,
        /// Source instructions those opcodes covered.
        src: u32,
    },
    /// The process has a plan but ran four-state this time: an `X`/`Z`
    /// in its read set at dispatch, or a mid-run bail (an out-of-range
    /// dynamic bit select, a zero divisor). `reason` says which flavor
    /// — the fuzz coverage map treats the two as distinct behaviors to
    /// keep exercising.
    Fallback {
        /// Why the plan run did not complete.
        reason: BailReason,
    },
    /// The four-state loop by construction: the process has no plan
    /// (wider than 64 bits, an undefined constant outside a case label,
    /// a statically out-of-range part select), or the simulator's
    /// two-state dispatch is off.
    FourState,
}

/// Why a process with a plan ran four-state
/// ([`ExecOutcome::Fallback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BailReason {
    /// An `X`/`Z` in the read set at dispatch (including the all-`X`
    /// boot state): the plan was never started.
    DispatchUndef,
    /// The plan started and bailed mid-run (an out-of-range dynamic bit
    /// select, a zero divisor); every observable effect was rewound
    /// before the four-state re-run.
    MidRun,
}

/// Execute one compiled process body.
///
/// Blocking stores write through to `store` (recording changed signals
/// in `changed`); non-blocking stores queue on `nba` exactly like the
/// tree-walking executor.
///
/// When `two_state` is set and the process has a plan
/// ([`CompiledProcess::plan`]), the plan runs if the read set is fully
/// defined ([`CompiledProcess::reads_fully_defined`] — the all-`X` boot
/// state fails this until the first defined store, so X-boot always
/// runs four-state). A plan that can bail runs behind a snapshot of the
/// write set, and a bail rewinds every observable effect (stores,
/// queued NBAs, change records) before re-running the four-state
/// `LogicVec` loop — a completed plan run is therefore store-exact by
/// construction, which the corpus lockstep suites and
/// `tests/two_state.rs` verify against both retained references.
pub fn execute(
    proc: &CompiledProcess,
    regfile: &mut RegFile,
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
    two_state: bool,
) -> ExecOutcome {
    let plan = match &proc.plan {
        Some(plan) if two_state => plan,
        _ => {
            execute_wide(proc, &mut regfile.regs, store, nba, changed);
            return ExecOutcome::FourState;
        }
    };
    if !proc.reads_fully_defined(store) {
        execute_wide(proc, &mut regfile.regs, store, nba, changed);
        return ExecOutcome::Fallback {
            reason: BailReason::DispatchUndef,
        };
    }
    // Snapshot the write set so a mid-run bail can rewind; a plan with
    // no bail site skips it.
    let snap = &mut regfile.snap;
    if plan.can_bail {
        snap.clear();
        snap.extend(
            proc.writes
                .iter()
                .map(|sig| store[sig.index()].planes_u64()),
        );
    }
    let nba_len = nba.len();
    let changed_len = changed.len();
    if let Some((ops, src)) =
        crate::plan::execute_plan(plan, &mut regfile.aregs, store, nba, changed)
    {
        return ExecOutcome::Plan { ops, src };
    }
    // Bail: rewind the partial run so the four-state re-execution sees
    // exactly the dispatch-time state.
    nba.truncate(nba_len);
    changed.truncate(changed_len);
    for (sig, &(a, b)) in proc.writes.iter().zip(snap.iter()) {
        let cur = &mut store[sig.index()];
        if cur.planes_u64() != (a, b) {
            let width = cur.width();
            *cur = LogicVec::from_planes_u64(width, a, b);
        }
    }
    execute_wide(proc, &mut regfile.regs, store, nba, changed);
    ExecOutcome::Fallback {
        reason: BailReason::MidRun,
    }
}

/// The four-state interpreter: `LogicVec` slots, any width. Runs every
/// evaluation that can see an `X`/`Z` — processes with no plan,
/// planned ones with an unknown in their read set at dispatch, and the
/// re-run after a mid-run bail.
fn execute_wide(
    proc: &CompiledProcess,
    regs: &mut [LogicVec],
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
) {
    debug_assert_eq!(regs.len(), proc.slot_widths.len());
    let mut pc = 0usize;
    while pc < proc.code.len() {
        match &proc.code[pc] {
            Instr::Const { dst, k } => {
                // Pool entries are pre-sized to the slot width.
                regs[*dst as usize].assign_resized(&proc.consts[*k as usize]);
            }
            Instr::Load { dst, sig } => {
                regs[*dst as usize].assign_resized(&store[sig.index()]);
            }
            Instr::Copy { dst, src } => {
                let (d, lo) = dst_srcs(regs, *dst);
                d.assign_resized(&lo[*src as usize]);
            }
            Instr::Slice { dst, src, lsb } => {
                let (d, lo) = dst_srcs(regs, *dst);
                let s = &lo[*src as usize];
                for i in 0..d.width() {
                    d.set_bit(i, s.bit(lsb + i));
                }
            }
            Instr::Not { dst, a } => {
                let (d, lo) = dst_srcs(regs, *dst);
                d.set_not(&lo[*a as usize]);
            }
            Instr::Bin { op, dst, a, b } => {
                let (d, lo) = dst_srcs(regs, *dst);
                let (av, bv) = (&lo[*a as usize], &lo[*b as usize]);
                match op {
                    BinOp::Add => d.set_add(av, bv),
                    BinOp::Sub => d.set_sub(av, bv),
                    BinOp::And => d.set_and(av, bv),
                    BinOp::Or => d.set_or(av, bv),
                    BinOp::Xor => d.set_xor(av, bv),
                    BinOp::Xnor => d.set_xnor(av, bv),
                    // Rare in RTL hot loops; the allocating forms are
                    // inline (no heap) at ≤ 64 bits anyway.
                    BinOp::Mul => d.assign_resized(&av.mul(bv)),
                    BinOp::Div => d.assign_resized(&av.div(bv)),
                    BinOp::Mod => d.assign_resized(&av.rem(bv)),
                }
            }
            Instr::Shift { left, dst, a, amt } => {
                let (d, lo) = dst_srcs(regs, *dst);
                let (av, amtv) = (&lo[*a as usize], &lo[*amt as usize]);
                let r = if *left { av.shl(amtv) } else { av.shr(amtv) };
                d.assign_resized(&r);
            }
            Instr::LogicBin { and, dst, a, b } => {
                let ta = regs[*a as usize].truth();
                let tb = regs[*b as usize].truth();
                let t = if *and { ta.and(tb) } else { ta.or(tb) };
                set_bit_result(&mut regs[*dst as usize], t.to_bit());
            }
            Instr::Reduce { op, dst, a } => {
                let av = &regs[*a as usize];
                let bit = match op {
                    ReduceOp::And => av.reduce_and(),
                    ReduceOp::Or => av.reduce_or(),
                    ReduceOp::Xor => av.reduce_xor(),
                    ReduceOp::Nand => av.reduce_nand(),
                    ReduceOp::Nor => av.reduce_nor(),
                    ReduceOp::Xnor => av.reduce_xnor(),
                    ReduceOp::LogicNot => av.truth().not().to_bit(),
                };
                set_bit_result(&mut regs[*dst as usize], bit);
            }
            Instr::Cmp { op, dst, a, b } => {
                let (av, bv) = (&regs[*a as usize], &regs[*b as usize]);
                let bit = match op {
                    CmpOp::Eq => av.logic_eq(bv),
                    CmpOp::Neq => av.logic_neq(bv),
                    CmpOp::CaseEq => LogicBit::from(av.case_eq(bv)),
                    CmpOp::CaseNeq => LogicBit::from(!av.case_eq(bv)),
                    CmpOp::Lt => av.lt(bv),
                    CmpOp::Le => av.le(bv),
                    CmpOp::Gt => av.gt(bv),
                    CmpOp::Ge => av.ge(bv),
                };
                set_bit_result(&mut regs[*dst as usize], bit);
            }
            Instr::Select { dst, c, t, f } => {
                let (d, lo) = dst_srcs(regs, *dst);
                match lo[*c as usize].truth() {
                    Truth::True => d.assign_resized(&lo[*t as usize]),
                    Truth::False => d.assign_resized(&lo[*f as usize]),
                    Truth::Unknown => {
                        let m = LogicVec::mux(Truth::Unknown, &lo[*t as usize], &lo[*f as usize]);
                        d.assign_resized(&m);
                    }
                }
            }
            Instr::Concat { dst, parts } => {
                let (d, lo) = dst_srcs(regs, *dst);
                for (slot, offset) in parts {
                    d.write_slice(*offset as isize, &lo[*slot as usize]);
                }
            }
            Instr::Repl { dst, src, n } => {
                let (d, lo) = dst_srcs(regs, *dst);
                let s = &lo[*src as usize];
                let w = s.width();
                for k in 0..*n {
                    d.write_slice((k * w) as isize, s);
                }
            }
            Instr::BitSelSig {
                dst,
                sig,
                idx,
                lsb_index,
            } => {
                let bit = match regs[*idx as usize].to_u64() {
                    Some(i) => {
                        let phys = i as i64 - lsb_index;
                        if phys >= 0 {
                            store[sig.index()].get(phys as usize).unwrap_or(LogicBit::X)
                        } else {
                            LogicBit::X
                        }
                    }
                    None => LogicBit::X,
                };
                set_bit_result(&mut regs[*dst as usize], bit);
            }
            Instr::ReadSlice { dst, sig, lsb } => {
                let d = &mut regs[*dst as usize];
                let s = &store[sig.index()];
                for i in 0..d.width() {
                    let src = lsb + i as i64;
                    let bit = if src >= 0 {
                        s.get(src as usize).unwrap_or(LogicBit::X)
                    } else {
                        LogicBit::X
                    };
                    d.set_bit(i, bit);
                }
            }
            Instr::Jump { target } => {
                pc = *target;
                continue;
            }
            Instr::JumpIfNotTrue { cond, target } => {
                if !regs[*cond as usize].truth().is_true() {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpIfMatch {
                sel,
                label,
                kind,
                target,
            } => {
                let (sv, lv) = (&regs[*sel as usize], &regs[*label as usize]);
                let hit = match kind {
                    CaseKind::Case => sv.case_eq(lv),
                    CaseKind::Casez => sv.matches_casez(lv),
                };
                if hit {
                    pc = *target;
                    continue;
                }
            }
            Instr::Store {
                sig,
                src,
                lsb,
                width,
                nonblocking,
            } => {
                let value = &regs[*src as usize];
                if *nonblocking {
                    nba.push(PendingWrite {
                        signal: *sig,
                        lsb: *lsb,
                        width: *width,
                        value: value.clone(),
                    });
                } else {
                    apply_write(store, *sig, *lsb, *width, value, changed);
                }
            }
            Instr::StoreBitDyn {
                sig,
                idx,
                lsb_index,
                src,
                nonblocking,
            } => {
                let valid_phys = match regs[*idx as usize].to_u64() {
                    Some(i) => {
                        let phys = i as i64 - lsb_index;
                        let width = store[sig.index()].width();
                        (phys >= 0 && (phys as usize) < width).then_some(phys)
                    }
                    None => None,
                };
                if let Some(phys) = valid_phys {
                    let value = &regs[*src as usize];
                    if *nonblocking {
                        nba.push(PendingWrite {
                            signal: *sig,
                            lsb: phys,
                            width: 1,
                            value: value.clone(),
                        });
                    } else {
                        apply_write(store, *sig, phys, 1, value, changed);
                    }
                }
            }
        }
        pc += 1;
    }
}
