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
//! # The interpreter stack
//!
//! Three loops share the instruction set, selected per process and per
//! evaluation:
//!
//! * `execute_wide` — `LogicVec` slots, any width (four-state);
//! * `execute_narrow` — raw `(aval, bval)` word pairs when every
//!   value fits in 64 bits (four-state);
//! * `execute_two_state` — narrow **two-state**: pure-value
//!   instructions run over the aval plane with bval known zero,
//!   bailing out (and rewinding) to `execute_narrow` when an `X`/`Z`
//!   or an X-producing hazard appears mid-run.
//!
//! [`CompiledProcess::hazard_free`] streams cannot bail, so they
//! dispatch their fused [`crate::plan::EvalPlan`] over bare `u64`
//! aval registers instead (the steady-state hot path of defined
//! kernels); with fusion switched off on the simulator they run
//! `execute_two_state`, the unfused reference the plans are
//! store-exact against.
//!
//! Dispatch between four-state and two-state happens in [`execute`]:
//! an eligible process takes the two-state path whenever its read set
//! is fully defined ([`CompiledProcess::reads_fully_defined`]), so the
//! all-`X` boot state runs four-state until the first defined values
//! arrive, and any poked `X`/`Z` demotes exactly the processes that
//! read it until it clears.
//!
//! The register file for each process is owned by the [`crate::Simulator`]
//! and reused across executions, so steady-state simulation performs no
//! per-activation setup beyond the `pc` loop itself.
//!
//! Change reporting is what feeds the event wheel: blocking stores go
//! through `apply_write` (or the narrow whole-signal fast path below),
//! which records a signal in `changed` only when the stored value
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

/// Register file of one process: wide processes hold `LogicVec` slots,
/// narrow processes (every width ≤ 64) hold raw plane-word pairs.
#[derive(Debug, Clone)]
pub enum RegFile {
    /// `LogicVec` per slot.
    Wide(Vec<LogicVec>),
    /// Narrow state: `(aval, bval)` per slot, plus the two-state
    /// machinery — the fused plan's aval-plane file and the pooled
    /// pre-run write-set snapshot the bailing two-state path rewinds
    /// from.
    Narrow {
        /// `(aval, bval)` per slot.
        regs: Vec<(u64, u64)>,
        /// aval word per slot (processes with a fused
        /// [`CompiledProcess::plan`] only, else empty): plan runs
        /// touch no bval storage at all.
        aregs: Vec<u64>,
        /// Plane pairs of `proc.writes`, captured before a bail-able
        /// two-state attempt (empty between runs).
        snap: Vec<(u64, u64)>,
    },
}

impl RegFile {
    /// The matching register file for a compiled process.
    pub fn for_process(proc: &CompiledProcess) -> RegFile {
        if proc.narrow {
            RegFile::Narrow {
                regs: proc.make_narrow_regs(),
                aregs: if proc.plan.is_some() {
                    vec![0; proc.slot_widths.len()]
                } else {
                    Vec::new()
                },
                snap: Vec::new(),
            }
        } else {
            RegFile::Wide(proc.make_regs())
        }
    }
}

/// Which execution path serviced an [`execute`] call (feeds the
/// scheduler's `two_state_evals`/`two_state_fallbacks` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The two-state (aval-plane-only) interpreter ran to completion.
    TwoState,
    /// A fused [`crate::plan::EvalPlan`] serviced the evaluation (a
    /// two-state run with superinstruction dispatch): `ops` plan
    /// opcodes retired, covering `src` source instructions — what the
    /// unfused interpreter would have dispatched on the same control
    /// path. Feeds `fused_evals`/`plan_steps`/`plan_unfused_steps`.
    Fused {
        /// Plan opcodes retired.
        ops: u32,
        /// Source instructions those opcodes covered.
        src: u32,
    },
    /// The process is two-state eligible but ran four-state this time:
    /// an `X`/`Z` in its read set at dispatch, or a mid-run bailout
    /// (division by zero, out-of-range read, an unknown appearing on a
    /// re-read of the process's own store writes). `reason` says which
    /// flavor — the fuzz coverage map treats the two as distinct
    /// behaviors to keep exercising.
    Fallback {
        /// Why the two-state attempt did not complete.
        reason: BailReason,
    },
    /// The four-state path by construction (wide process, two-state
    /// disabled, or compile-time ineligible).
    FourState,
}

/// Why a two-state-eligible process ran four-state
/// ([`ExecOutcome::Fallback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BailReason {
    /// An `X`/`Z` in the read set at dispatch (including the all-`X`
    /// boot state): the two-state run was never attempted.
    DispatchUndef,
    /// The run started two-state and bailed mid-stream (division by
    /// zero, out-of-range dynamic read, an unknown re-read of the
    /// process's own store writes); every observable effect was
    /// rewound before the four-state re-run.
    MidRun,
}

/// Execute one compiled process body.
///
/// Blocking stores write through to `store` (recording changed signals
/// in `changed`); non-blocking stores queue on `nba` exactly like the
/// tree-walking executor.
///
/// When `two_state` is set and the process is eligible
/// ([`CompiledProcess::two_state`]), execution first tries the
/// aval-plane-only interpreter: the read set is scanned for definedness
/// ([`CompiledProcess::reads_fully_defined`] — the all-`X` boot state
/// fails this until the first defined store, so X-boot always runs
/// four-state), the write set is snapshotted, and a mid-run bailout
/// rewinds every observable effect (stores, queued NBAs, change
/// records) before re-running the four-state narrow path — a completed
/// two-state run is therefore store-exact by construction, which the
/// corpus lockstep suites and `tests/two_state.rs` verify against both
/// retained oracles.
pub fn execute(
    proc: &CompiledProcess,
    regfile: &mut RegFile,
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
    two_state: bool,
    fuse: bool,
) -> ExecOutcome {
    match regfile {
        RegFile::Narrow { regs, aregs, snap } => {
            if two_state && proc.two_state {
                if proc.reads_fully_defined(store) {
                    // A hazard-free stream has no bail site: with fusion
                    // enabled, dispatch its superinstruction plan — no
                    // snapshot, no bval storage, no rewind path.
                    if fuse {
                        if let Some(plan) = &proc.plan {
                            let (ops, src) =
                                crate::plan::execute_plan(plan, aregs, store, nba, changed);
                            return ExecOutcome::Fused { ops, src };
                        }
                    }
                    // Snapshot the write set so a mid-run bailout can
                    // rewind.
                    snap.clear();
                    snap.extend(
                        proc.writes
                            .iter()
                            .map(|sig| store[sig.index()].planes_u64()),
                    );
                    let nba_len = nba.len();
                    let changed_len = changed.len();
                    if execute_two_state(proc, regs, store, nba, changed) {
                        snap.clear();
                        return ExecOutcome::TwoState;
                    }
                    // Bailout: rewind the partial run so the four-state
                    // re-execution sees exactly the dispatch-time state.
                    nba.truncate(nba_len);
                    changed.truncate(changed_len);
                    for (sig, &(a, b)) in proc.writes.iter().zip(snap.iter()) {
                        let cur = &mut store[sig.index()];
                        if cur.planes_u64() != (a, b) {
                            let width = cur.width();
                            *cur = LogicVec::from_planes_u64(width, a, b);
                        }
                    }
                    snap.clear();
                    execute_narrow(proc, regs, store, nba, changed);
                    return ExecOutcome::Fallback {
                        reason: BailReason::MidRun,
                    };
                }
                execute_narrow(proc, regs, store, nba, changed);
                return ExecOutcome::Fallback {
                    reason: BailReason::DispatchUndef,
                };
            }
            execute_narrow(proc, regs, store, nba, changed);
            ExecOutcome::FourState
        }
        RegFile::Wide(w) => {
            execute_wide(proc, w, store, nba, changed);
            ExecOutcome::FourState
        }
    }
}

/// The `LogicVec`-slot interpreter (processes touching > 64-bit values).
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

// ----------------------------------------------------------------------
// Narrow path: every slot and signal ≤ 64 bits → raw plane-word pairs
// ----------------------------------------------------------------------

/// Truth value of a canonical `(aval, bval)` pair (no masking needed:
/// registers keep bits above their width clear).
#[inline]
fn truth_of(a: u64, b: u64) -> Truth {
    if a & !b != 0 {
        Truth::True
    } else if b != 0 {
        Truth::Unknown
    } else {
        Truth::False
    }
}

/// Encode a [`LogicBit`] as an LSB plane pair.
#[inline]
fn bit_planes(bit: LogicBit) -> (u64, u64) {
    let (a, b) = bit.to_planes();
    (a as u64, b as u64)
}

/// The narrow interpreter: identical semantics to the wide path, word
/// arithmetic only. Mirrors `eval`'s four-state rules bit-exactly — the
/// differential suite drives all three executors against each other.
fn execute_narrow(
    proc: &CompiledProcess,
    regs: &mut [(u64, u64)],
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
) {
    debug_assert_eq!(regs.len(), proc.slot_widths.len());
    let masks = &proc.slot_masks;
    let mut pc = 0usize;
    while pc < proc.code.len() {
        match &proc.code[pc] {
            Instr::Const { dst, k } => {
                // Pool entries are pre-masked to the slot width.
                regs[*dst as usize] = proc.narrow_consts[*k as usize];
            }
            Instr::Load { dst, sig } => {
                let (a, b) = store[sig.index()].planes_u64();
                let m = masks[*dst as usize];
                regs[*dst as usize] = (a & m, b & m);
            }
            Instr::Copy { dst, src } => {
                let (a, b) = regs[*src as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = (a & m, b & m);
            }
            Instr::Slice { dst, src, lsb } => {
                let (a, b) = regs[*src as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = ((a >> lsb) & m, (b >> lsb) & m);
            }
            Instr::Not { dst, a } => {
                let (aa, ab) = regs[*a as usize];
                let m = masks[*dst as usize];
                let na = aa | ab;
                regs[*dst as usize] = ((!na | ab) & m, ab & m);
            }
            Instr::Bin { op, dst, a, b } => {
                let (aa, ax) = regs[*a as usize];
                let (ba, bx) = regs[*b as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = match op {
                    BinOp::And => {
                        let (na, ma2) = (aa | ax, ba | bx);
                        let x = (ax | bx) & na & ma2;
                        let ones = (na & !ax) & (ma2 & !bx);
                        ((ones | x) & m, x & m)
                    }
                    BinOp::Or => {
                        let (na, ma2) = (aa | ax, ba | bx);
                        let one_a = na & !ax;
                        let one_b = ma2 & !bx;
                        let x = (ax | bx) & !one_a & !one_b;
                        ((one_a | one_b | x) & m, x & m)
                    }
                    BinOp::Xor => {
                        let x = ax | bx;
                        ((((aa | ax) ^ (ba | bx)) | x) & m, x & m)
                    }
                    BinOp::Xnor => {
                        let x = ax | bx;
                        let v = (aa | ax) ^ (ba | bx);
                        ((!v | x) & m, x & m)
                    }
                    BinOp::Add => {
                        if ax | bx != 0 {
                            (m, m)
                        } else {
                            (aa.wrapping_add(ba) & m, 0)
                        }
                    }
                    BinOp::Sub => {
                        if ax | bx != 0 {
                            (m, m)
                        } else {
                            (aa.wrapping_sub(ba) & m, 0)
                        }
                    }
                    BinOp::Mul => {
                        if ax | bx != 0 {
                            (m, m)
                        } else {
                            (aa.wrapping_mul(ba) & m, 0)
                        }
                    }
                    BinOp::Div => {
                        if ax | bx != 0 || ba == 0 {
                            (m, m)
                        } else {
                            ((aa / ba) & m, 0)
                        }
                    }
                    BinOp::Mod => {
                        if ax | bx != 0 || ba == 0 {
                            (m, m)
                        } else {
                            ((aa % ba) & m, 0)
                        }
                    }
                };
            }
            Instr::Shift { left, dst, a, amt } => {
                let (aa, ax) = regs[*a as usize];
                let (na, nx) = regs[*amt as usize];
                let m = masks[*dst as usize];
                let w = proc.slot_widths[*dst as usize] as u64;
                regs[*dst as usize] = if nx != 0 {
                    // Unknown amount poisons; an X *value* merely shifts.
                    (m, m)
                } else if na >= w {
                    (0, 0)
                } else if *left {
                    ((aa << na) & m, (ax << na) & m)
                } else {
                    (aa >> na, ax >> na)
                };
            }
            Instr::LogicBin { and, dst, a, b } => {
                let (aa, ax) = regs[*a as usize];
                let (ba, bx) = regs[*b as usize];
                let (ta, tb) = (truth_of(aa, ax), truth_of(ba, bx));
                let t = if *and { ta.and(tb) } else { ta.or(tb) };
                regs[*dst as usize] = bit_planes(t.to_bit());
            }
            Instr::Reduce { op, dst, a } => {
                let (aa, ax) = regs[*a as usize];
                let am = masks[*a as usize];
                let na = aa | ax;
                let bit = match op {
                    ReduceOp::And => {
                        if !na & am != 0 {
                            LogicBit::Zero
                        } else if ax != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::One
                        }
                    }
                    ReduceOp::Nand => {
                        if !na & am != 0 {
                            LogicBit::One
                        } else if ax != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::Zero
                        }
                    }
                    ReduceOp::Or => {
                        if aa & !ax != 0 {
                            LogicBit::One
                        } else if ax != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::Zero
                        }
                    }
                    ReduceOp::Nor => {
                        if aa & !ax != 0 {
                            LogicBit::Zero
                        } else if ax != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::One
                        }
                    }
                    ReduceOp::Xor => {
                        if ax != 0 {
                            LogicBit::X
                        } else if aa.count_ones() & 1 == 1 {
                            LogicBit::One
                        } else {
                            LogicBit::Zero
                        }
                    }
                    ReduceOp::Xnor => {
                        if ax != 0 {
                            LogicBit::X
                        } else if aa.count_ones() & 1 == 1 {
                            LogicBit::Zero
                        } else {
                            LogicBit::One
                        }
                    }
                    ReduceOp::LogicNot => truth_of(aa, ax).not().to_bit(),
                };
                regs[*dst as usize] = bit_planes(bit);
            }
            Instr::Cmp { op, dst, a, b } => {
                let (aa, ax) = regs[*a as usize];
                let (ba, bx) = regs[*b as usize];
                let bit = match op {
                    CmpOp::Eq | CmpOp::Neq => {
                        let defined = !ax & !bx;
                        let eq = if (aa ^ ba) & defined != 0 {
                            LogicBit::Zero
                        } else if ax | bx != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::One
                        };
                        if matches!(op, CmpOp::Eq) {
                            eq
                        } else {
                            eq.not()
                        }
                    }
                    CmpOp::CaseEq => LogicBit::from(aa == ba && ax == bx),
                    CmpOp::CaseNeq => LogicBit::from(!(aa == ba && ax == bx)),
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        if ax | bx != 0 {
                            LogicBit::X
                        } else {
                            LogicBit::from(match op {
                                CmpOp::Lt => aa < ba,
                                CmpOp::Le => aa <= ba,
                                CmpOp::Gt => aa > ba,
                                CmpOp::Ge => aa >= ba,
                                _ => unreachable!(),
                            })
                        }
                    }
                };
                regs[*dst as usize] = bit_planes(bit);
            }
            Instr::Select { dst, c, t, f } => {
                let (ca, cx) = regs[*c as usize];
                let (ta, tx) = regs[*t as usize];
                let (fa, fx) = regs[*f as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = match truth_of(ca, cx) {
                    Truth::True => (ta & m, tx & m),
                    Truth::False => (fa & m, fx & m),
                    Truth::Unknown => {
                        // Per-bit merge of the normalized branches:
                        // agreeing positions keep their value, the rest
                        // go X.
                        let (nt, nf) = (ta | tx, fa | fx);
                        let eq = !((nt ^ nf) | (tx ^ fx));
                        (((nt & eq) | !eq) & m, ((tx & eq) | !eq) & m)
                    }
                };
            }
            Instr::Concat { dst, parts } => {
                let mut acc = (0u64, 0u64);
                for (slot, offset) in parts {
                    let (pa, pb) = regs[*slot as usize];
                    acc.0 |= pa << offset;
                    acc.1 |= pb << offset;
                }
                regs[*dst as usize] = acc;
            }
            Instr::Repl { dst, src, n } => {
                let (pa, pb) = regs[*src as usize];
                let w = proc.slot_widths[*src as usize];
                let mut acc = (0u64, 0u64);
                for k in 0..*n {
                    acc.0 |= pa << (k * w);
                    acc.1 |= pb << (k * w);
                }
                regs[*dst as usize] = acc;
            }
            Instr::BitSelSig {
                dst,
                sig,
                idx,
                lsb_index,
            } => {
                let (ia, ix) = regs[*idx as usize];
                let value = &store[sig.index()];
                let bit = if ix != 0 {
                    LogicBit::X
                } else {
                    let phys = ia as i64 - lsb_index;
                    if phys >= 0 && (phys as usize) < value.width() {
                        let (sa, sb) = value.planes_u64();
                        LogicBit::from_planes((sa >> phys) & 1 == 1, (sb >> phys) & 1 == 1)
                    } else {
                        LogicBit::X
                    }
                };
                regs[*dst as usize] = bit_planes(bit);
            }
            Instr::ReadSlice { dst, sig, lsb } => {
                let value = &store[sig.index()];
                let (sa, sb) = value.planes_u64();
                let w = proc.slot_widths[*dst as usize];
                let m = masks[*dst as usize];
                let sw = value.width() as i64;
                regs[*dst as usize] = if *lsb >= 0 && lsb + (w as i64) <= sw {
                    (((sa >> lsb) & m), ((sb >> lsb) & m))
                } else {
                    // Out-of-range positions read X.
                    let mut acc = (0u64, 0u64);
                    for i in 0..w {
                        let src = lsb + i as i64;
                        let (ba, bb) = if src >= 0 && src < sw {
                            ((sa >> src) & 1, (sb >> src) & 1)
                        } else {
                            (1, 1)
                        };
                        acc.0 |= ba << i;
                        acc.1 |= bb << i;
                    }
                    acc
                };
            }
            Instr::Jump { target } => {
                pc = *target;
                continue;
            }
            Instr::JumpIfNotTrue { cond, target } => {
                let (ca, cx) = regs[*cond as usize];
                if !truth_of(ca, cx).is_true() {
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
                let (sa, sx) = regs[*sel as usize];
                let (la, lx) = regs[*label as usize];
                let hit = match kind {
                    CaseKind::Case => sa == la && sx == lx,
                    CaseKind::Casez => {
                        let wild = lx & !la;
                        ((sa ^ la) | (sx ^ lx)) & !wild == 0
                    }
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
                let (va, vb) = regs[*src as usize];
                if *nonblocking {
                    nba.push(PendingWrite {
                        signal: *sig,
                        lsb: *lsb,
                        width: *width,
                        value: LogicVec::from_planes_u64(*width, va, vb),
                    });
                } else {
                    let cur = &mut store[sig.index()];
                    if *lsb == 0 && *width == cur.width() {
                        // Whole-signal fast path: plane compare, no
                        // LogicVec round-trip on the no-change case.
                        if cur.planes_u64() != (va, vb) {
                            *cur = LogicVec::from_planes_u64(*width, va, vb);
                            changed.push(*sig);
                        }
                    } else {
                        let value = LogicVec::from_planes_u64(*width, va, vb);
                        apply_write(store, *sig, *lsb, *width, &value, changed);
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
                let (ia, ix) = regs[*idx as usize];
                let width = store[sig.index()].width();
                let valid_phys = if ix != 0 {
                    None
                } else {
                    let phys = ia as i64 - lsb_index;
                    (phys >= 0 && (phys as usize) < width).then_some(phys)
                };
                if let Some(phys) = valid_phys {
                    let (va, vb) = regs[*src as usize];
                    let value = LogicVec::from_planes_u64(1, va, vb);
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
}

// ----------------------------------------------------------------------
// Two-state path: fully defined inputs → aval-plane-only execution
// ----------------------------------------------------------------------

/// The two-state interpreter (Verilator's execution model): pure-value
/// instructions run over the aval plane alone with the bval plane known
/// zero, skipping every four-state masking/merging formula of
/// [`execute_narrow`].
///
/// Exactness is maintained by a three-part contract with
/// [`crate::compile::two_state_eligible`]:
///
/// * **untainted slots hold `bval == 0`** — every pure-aval writer
///   stores a zero bval, defined constants are pre-masked, and store
///   reads bail on any unknown, so the induction never breaks;
/// * **tainted slots (undefined constants and their plane-exact
///   closure) hold exact four-state pairs** — `Const`, `Copy`,
///   `Slice`, `Select`, `Concat` and `Repl` copy both planes, and the
///   eligibility analysis guarantees tainted values only ever reach
///   plane-exact consumers (case dispatch, case equality, stores);
/// * **X-producing operations bail out** (`return false`) before
///   computing a wrong value: division/modulo by zero, out-of-range or
///   unknown-index reads, and any store read whose bval plane is
///   non-zero (the process re-reading an `X` it just stored).
///
/// `false` means the caller must rewind (writes snapshot, `nba`,
/// `changed`) and re-run [`execute_narrow`]; `true` means the stores
/// performed are bit-identical to what the four-state path would have
/// produced.
fn execute_two_state(
    proc: &CompiledProcess,
    regs: &mut [(u64, u64)],
    store: &mut Store,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
) -> bool {
    debug_assert_eq!(regs.len(), proc.slot_widths.len());
    let masks = &proc.slot_masks;
    let mut pc = 0usize;
    while pc < proc.code.len() {
        match &proc.code[pc] {
            Instr::Const { dst, k } => {
                // Full pair: undefined constants (casez labels) keep
                // their planes for the plane-exact consumers.
                regs[*dst as usize] = proc.narrow_consts[*k as usize];
            }
            Instr::Load { dst, sig } => {
                let v = &store[sig.index()];
                if v.undef_mask_u64() != 0 {
                    return false;
                }
                let (a, _) = v.planes_u64();
                regs[*dst as usize] = (a & masks[*dst as usize], 0);
            }
            Instr::Copy { dst, src } => {
                let (a, b) = regs[*src as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = (a & m, b & m);
            }
            Instr::Slice { dst, src, lsb } => {
                let (a, b) = regs[*src as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = ((a >> lsb) & m, (b >> lsb) & m);
            }
            Instr::Not { dst, a } => {
                let v = regs[*a as usize].0;
                regs[*dst as usize] = (!v & masks[*dst as usize], 0);
            }
            Instr::Bin { op, dst, a, b } => {
                let x = regs[*a as usize].0;
                let y = regs[*b as usize].0;
                let m = masks[*dst as usize];
                let r = match op {
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Xnor => !(x ^ y) & m,
                    BinOp::Add => x.wrapping_add(y) & m,
                    BinOp::Sub => x.wrapping_sub(y) & m,
                    BinOp::Mul => x.wrapping_mul(y) & m,
                    BinOp::Div => {
                        if y == 0 {
                            return false;
                        }
                        (x / y) & m
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            return false;
                        }
                        (x % y) & m
                    }
                };
                regs[*dst as usize] = (r, 0);
            }
            Instr::Shift { left, dst, a, amt } => {
                let v = regs[*a as usize].0;
                let n = regs[*amt as usize].0;
                let w = proc.slot_widths[*dst as usize] as u64;
                let r = if n >= w {
                    0
                } else if *left {
                    (v << n) & masks[*dst as usize]
                } else {
                    v >> n
                };
                regs[*dst as usize] = (r, 0);
            }
            Instr::LogicBin { and, dst, a, b } => {
                let ta = regs[*a as usize].0 != 0;
                let tb = regs[*b as usize].0 != 0;
                let r = if *and { ta && tb } else { ta || tb };
                regs[*dst as usize] = (r as u64, 0);
            }
            Instr::Reduce { op, dst, a } => {
                let v = regs[*a as usize].0;
                let am = masks[*a as usize];
                let bit = match op {
                    ReduceOp::And => v == am,
                    ReduceOp::Nand => v != am,
                    ReduceOp::Or => v != 0,
                    ReduceOp::Nor => v == 0,
                    ReduceOp::Xor => v.count_ones() & 1 == 1,
                    ReduceOp::Xnor => v.count_ones() & 1 == 0,
                    ReduceOp::LogicNot => v == 0,
                };
                regs[*dst as usize] = (bit as u64, 0);
            }
            Instr::Cmp { op, dst, a, b } => {
                let (aa, ax) = regs[*a as usize];
                let (ba, bx) = regs[*b as usize];
                let bit = match op {
                    // Defined operands (compile-enforced): aval compares
                    // are exact.
                    CmpOp::Eq => aa == ba,
                    CmpOp::Neq => aa != ba,
                    // Plane-exact (tainted operands allowed).
                    CmpOp::CaseEq => aa == ba && ax == bx,
                    CmpOp::CaseNeq => !(aa == ba && ax == bx),
                    CmpOp::Lt => aa < ba,
                    CmpOp::Le => aa <= ba,
                    CmpOp::Gt => aa > ba,
                    CmpOp::Ge => aa >= ba,
                };
                regs[*dst as usize] = (bit as u64, 0);
            }
            Instr::Select { dst, c, t, f } => {
                // Plane-exact: an undefined-constant condition merges
                // exactly as the four-state path would.
                let (ca, cx) = regs[*c as usize];
                let (ta, tx) = regs[*t as usize];
                let (fa, fx) = regs[*f as usize];
                let m = masks[*dst as usize];
                regs[*dst as usize] = if ca & !cx != 0 {
                    (ta & m, tx & m)
                } else if cx == 0 {
                    (fa & m, fx & m)
                } else {
                    let (nt, nf) = (ta | tx, fa | fx);
                    let eq = !((nt ^ nf) | (tx ^ fx));
                    (((nt & eq) | !eq) & m, ((tx & eq) | !eq) & m)
                };
            }
            Instr::Concat { dst, parts } => {
                let mut acc = (0u64, 0u64);
                for (slot, offset) in parts {
                    let (pa, pb) = regs[*slot as usize];
                    acc.0 |= pa << offset;
                    acc.1 |= pb << offset;
                }
                regs[*dst as usize] = acc;
            }
            Instr::Repl { dst, src, n } => {
                let (pa, pb) = regs[*src as usize];
                let w = proc.slot_widths[*src as usize];
                let mut acc = (0u64, 0u64);
                for k in 0..*n {
                    acc.0 |= pa << (k * w);
                    acc.1 |= pb << (k * w);
                }
                regs[*dst as usize] = acc;
            }
            Instr::BitSelSig {
                dst,
                sig,
                idx,
                lsb_index,
            } => {
                let (ia, ix) = regs[*idx as usize];
                if ix != 0 {
                    // Unknown index (an undefined-constant expression):
                    // the result would be X.
                    return false;
                }
                let value = &store[sig.index()];
                let phys = ia as i64 - lsb_index;
                if phys < 0 || phys as usize >= value.width() {
                    // Out-of-range reads X.
                    return false;
                }
                let (sa, sb) = value.planes_u64();
                if (sb >> phys) & 1 != 0 {
                    return false;
                }
                regs[*dst as usize] = ((sa >> phys) & 1, 0);
            }
            Instr::ReadSlice { dst, sig, lsb } => {
                let value = &store[sig.index()];
                let w = proc.slot_widths[*dst as usize];
                let m = masks[*dst as usize];
                let sw = value.width() as i64;
                if *lsb < 0 || lsb + (w as i64) > sw {
                    // Out-of-range positions read X.
                    return false;
                }
                let (sa, sb) = value.planes_u64();
                if (sb >> lsb) & m != 0 {
                    return false;
                }
                regs[*dst as usize] = ((sa >> lsb) & m, 0);
            }
            Instr::Jump { target } => {
                pc = *target;
                continue;
            }
            Instr::JumpIfNotTrue { cond, target } => {
                // Plane-exact truth: definitely-true iff a defined 1
                // bit exists (ca & !cx != 0) — same cost as the pure
                // two-state test, correct for tainted conditions too.
                let (ca, cx) = regs[*cond as usize];
                if ca & !cx == 0 {
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
                let (sa, sx) = regs[*sel as usize];
                let (la, lx) = regs[*label as usize];
                let hit = match kind {
                    CaseKind::Case => sa == la && sx == lx,
                    CaseKind::Casez => {
                        let wild = lx & !la;
                        ((sa ^ la) | (sx ^ lx)) & !wild == 0
                    }
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
                // Plane-exact (a stored undefined constant must land as
                // X/Z in the store, poisoning downstream read gates).
                let (va, vb) = regs[*src as usize];
                if *nonblocking {
                    nba.push(PendingWrite {
                        signal: *sig,
                        lsb: *lsb,
                        width: *width,
                        value: LogicVec::from_planes_u64(*width, va, vb),
                    });
                } else {
                    let cur = &mut store[sig.index()];
                    if *lsb == 0 && *width == cur.width() {
                        if cur.planes_u64() != (va, vb) {
                            *cur = LogicVec::from_planes_u64(*width, va, vb);
                            changed.push(*sig);
                        }
                    } else {
                        let value = LogicVec::from_planes_u64(*width, va, vb);
                        apply_write(store, *sig, *lsb, *width, &value, changed);
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
                let (ia, ix) = regs[*idx as usize];
                let width = store[sig.index()].width();
                let valid_phys = if ix != 0 {
                    None
                } else {
                    let phys = ia as i64 - lsb_index;
                    (phys >= 0 && (phys as usize) < width).then_some(phys)
                };
                if let Some(phys) = valid_phys {
                    let (va, vb) = regs[*src as usize];
                    let value = LogicVec::from_planes_u64(1, va, vb);
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
    true
}
