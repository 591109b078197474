//! Bytecode compilation: [`CStmt`]/[`CExpr`] trees → flat instruction
//! streams.
//!
//! The tree-walking interpreter in [`crate::eval`] recomputes every
//! context-determined width (`e.width(design)`) at every node on every
//! execution. This module performs that width resolution **once**, at
//! compile time, lowering each process body into a linear [`Instr`]
//! stream over a dense register file of pre-sized slots:
//!
//! * every expression node is assigned a fresh slot whose width is the
//!   node's fully-resolved context width, so the interpreter never asks
//!   for a width at runtime and can use the in-place `LogicVec`
//!   operators (`set_add`, `set_and`, …) that write into the pre-sized
//!   slot without allocating;
//! * constants are resized into a per-process constant pool at compile
//!   time (the tree-walker re-resizes them on every execution);
//! * `if`/`case` lower to conditional jumps; `case` label widths (the
//!   max over selector and every label) are folded once instead of per
//!   execution.
//!
//! # Width-resolution rules
//!
//! The lowering reproduces `eval`'s simplified context-determined
//! semantics exactly — the differential test in
//! `tests/compiled_vs_interp.rs` holds the two executions bit-identical
//! over the whole problem corpus:
//!
//! * arithmetic/bitwise nodes evaluate both operands at
//!   `w = max(ctx, lhs_w, rhs_w)` and truncate the result to `ctx`;
//! * shifts evaluate the value at `max(ctx, lhs_w)` and the amount at
//!   its self-determined width;
//! * comparisons/logical/reduction nodes are self-determined and
//!   produce a 1-bit result zero-extended to `ctx`;
//! * concatenation/replication/selects are self-determined, then
//!   adjusted to `ctx`.
//!
//! One deliberate deviation: the tree-walker evaluates only the taken
//! branch of a ternary when the condition is defined; the bytecode
//! evaluates both branches and then selects ([`Instr::Select`]).
//! Expressions are side-effect-free, so results are identical — the
//! compiled form trades a superset of (cheap, straight-line) work for
//! never duplicating branch code.

use crate::design::{CExpr, CLValue, CStmt, Design, Process, SignalId};
use crate::plan::{build_cascades, build_plan, CascadePlan, EvalPlan};
use mage_logic::LogicVec;
use mage_verilog::ast::{BinaryOp, CaseKind, UnaryOp};
use std::collections::HashMap;

/// Register-file slot index.
pub type Slot = u16;

/// Reduction flavor of [`Instr::Reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `&a`
    And,
    /// `|a`
    Or,
    /// `^a`
    Xor,
    /// `~&a`
    Nand,
    /// `~|a`
    Nor,
    /// `~^a`
    Xnor,
    /// `!a` (logical not of the whole vector's truth value)
    LogicNot,
}

/// Comparison flavor of [`Instr::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `===`
    CaseEq,
    /// `!==`
    CaseNeq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One bytecode instruction.
///
/// `dst`/`a`/`b`/… are register-file slots; the slot's width (fixed at
/// compile time, see [`CompiledProcess::slot_widths`]) is the
/// instruction's resolved result width. Stores address the simulation
/// value store by [`SignalId`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = consts[k]` (already sized to `dst`'s width).
    Const {
        /// Destination slot.
        dst: Slot,
        /// Constant-pool index.
        k: u16,
    },
    /// `dst = store[sig]` resized to `dst`'s width.
    Load {
        /// Destination slot.
        dst: Slot,
        /// Source signal.
        sig: SignalId,
    },
    /// `dst = src` resized to `dst`'s width.
    Copy {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `dst = src[lsb +: dst.width]` (register slice, in-bounds by
    /// construction).
    Slice {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// LSB offset into `src`.
        lsb: usize,
    },
    /// `dst = ~a` (bitwise).
    Not {
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
    },
    /// `dst = a <op> b` for width-preserving binary operators. Operands
    /// and destination share one width.
    Bin {
        /// Operator (arithmetic/bitwise subset only).
        op: BinOp,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// `dst = a << amt` / `dst = a >> amt` (amount self-determined).
    Shift {
        /// `true` = left shift.
        left: bool,
        /// Destination slot (same width as `a`).
        dst: Slot,
        /// Value slot.
        a: Slot,
        /// Amount slot.
        amt: Slot,
    },
    /// `dst = a && b` / `dst = a || b` on vector truth values.
    LogicBin {
        /// `true` = AND, `false` = OR.
        and: bool,
        /// Destination slot (1-bit result zero-extended).
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Reduction (or logical-not) of `a` into the LSB of `dst`.
    Reduce {
        /// Reduction flavor.
        op: ReduceOp,
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
    },
    /// Comparison of `a` and `b` into the LSB of `dst`.
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
    /// Four-state ternary: `dst = c ? t : f` (both branches already
    /// evaluated; an unknown select merges bitwise).
    Select {
        /// Destination slot.
        dst: Slot,
        /// Condition slot.
        c: Slot,
        /// Then-branch slot.
        t: Slot,
        /// Else-branch slot.
        f: Slot,
    },
    /// Concatenation: copy each `(slot, lsb_offset)` part into `dst`.
    /// Parts tile `dst` exactly.
    Concat {
        /// Destination slot.
        dst: Slot,
        /// `(part slot, LSB offset in dst)` pairs.
        parts: Vec<(Slot, usize)>,
    },
    /// Replication: `dst = {n{src}}` with `n` copies at stride
    /// `src.width`.
    Repl {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Copy count.
        n: usize,
    },
    /// Dynamic bit select from the store: `dst = store[sig][idx]`,
    /// `X` when the index is unknown or out of range.
    BitSelSig {
        /// Destination slot.
        dst: Slot,
        /// Source signal.
        sig: SignalId,
        /// Index slot.
        idx: Slot,
        /// Declared LSB rebase of the signal.
        lsb_index: i64,
    },
    /// Constant part select from the store:
    /// `dst = store[sig][lsb +: dst.width]`, out-of-range bits `X`.
    ReadSlice {
        /// Destination slot.
        dst: Slot,
        /// Source signal.
        sig: SignalId,
        /// Physical LSB offset.
        lsb: i64,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Jump when `cond`'s truth value is not definitely true.
    JumpIfNotTrue {
        /// Condition slot.
        cond: Slot,
        /// Target instruction index.
        target: usize,
    },
    /// Jump when `sel` matches `label` under `kind` (case dispatch).
    JumpIfMatch {
        /// Selector slot.
        sel: Slot,
        /// Label slot (same width as `sel`).
        label: Slot,
        /// `case` (exact four-state) vs `casez` (wildcards).
        kind: CaseKind,
        /// Target instruction index.
        target: usize,
    },
    /// Write `src` to `width` bits of `sig` at static offset `lsb`.
    Store {
        /// Target signal.
        sig: SignalId,
        /// Value slot (already sized to `width`).
        src: Slot,
        /// Physical LSB offset.
        lsb: i64,
        /// Slice width.
        width: usize,
        /// `<=` vs `=`.
        nonblocking: bool,
    },
    /// Write the 1-bit `src` to `sig` at the runtime index in `idx`;
    /// unknown/out-of-range indices write nothing.
    StoreBitDyn {
        /// Target signal.
        sig: SignalId,
        /// Index slot.
        idx: Slot,
        /// Declared LSB rebase of the signal.
        lsb_index: i64,
        /// 1-bit value slot.
        src: Slot,
        /// `<=` vs `=`.
        nonblocking: bool,
    },
}

/// Width-preserving binary operators of [`Instr::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^`
    Xnor,
}

/// One process body lowered to bytecode.
#[derive(Debug, Clone)]
pub struct CompiledProcess {
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// Width of every register-file slot.
    pub slot_widths: Vec<usize>,
    /// Constant pool, each entry pre-sized to its use width.
    pub consts: Vec<LogicVec>,
    /// Signals the instruction stream can read (every `Load`,
    /// `BitSelSig` and `ReadSlice` source, deduped, in first-use order).
    /// Derived from the executable artifact rather than the AST, this is
    /// the precise sensitivity set the event wheel fans out on.
    pub reads: Vec<SignalId>,
    /// Signals the instruction stream can write (every `Store` and
    /// `StoreBitDyn` target, deduped, in first-use order). The wheel
    /// snapshots exactly these before a combinational run to detect
    /// *net* output changes.
    pub writes: Vec<SignalId>,
    /// `true` when every slot and every touched signal fits in 64 bits:
    /// the precondition of a [`plan`](CompiledProcess::plan), whose
    /// registers are bare `u64` words. The four-state loop uses
    /// `LogicVec` slots at every width.
    pub narrow: bool,
    /// The process's evaluation plan ([`build_plan`]): built for every
    /// narrow stream whose undefined constants appear only as case
    /// labels and whose part selects are statically in bounds, else
    /// `None`. A process with a plan runs it whenever its read set is
    /// fully defined and the four-state loop otherwise; a process
    /// without one always runs the four-state loop. Built
    /// unconditionally at compile time — dispatch, not construction, is
    /// chosen per simulator by its [`crate::ExecMode`], so delta-reused
    /// units carry their plans verbatim.
    pub plan: Option<EvalPlan>,
}

impl CompiledProcess {
    /// `true` when every signal in `reads` is fully defined in `store`
    /// — the dispatch gate of a plan. The read set is derived from the
    /// executable artifact (every `Load`, `BitSelSig` and `ReadSlice`
    /// source), so it can never under-approximate the definedness a
    /// plan run depends on at entry; values this process *writes*
    /// mid-run stay defined, because a plan stores only the defined
    /// words it computes.
    #[inline]
    pub fn reads_fully_defined(&self, store: &[LogicVec]) -> bool {
        self.reads
            .iter()
            .all(|sig| store[sig.index()].is_fully_defined())
    }
}

/// Every process of a design, compiled.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// Per-process bytecode, indexed like `design.processes`.
    pub procs: Vec<CompiledProcess>,
    /// Combinational fanout: `comb_readers[s]` lists the *combinational*
    /// process indices whose bytecode reads signal `s` (ascending, from
    /// the per-process [`CompiledProcess::reads`] sets). A signal-change
    /// event enqueues exactly these processes on the wheel's active
    /// region.
    pub comb_readers: Vec<Vec<u32>>,
    /// Fused combinational cascades ([`crate::plan::build_cascades`]):
    /// one per eligible comb root (every member's plan bail-free and
    /// NBA-free), in topological order.
    pub cascades: Vec<CascadePlan>,
    /// Per-process cascade root index into `cascades` (`None` for
    /// processes without a fused cascade). The wheel's active region
    /// runs `cascades[cascade_of[p]]` straight through instead of
    /// evaluating `p` and enqueueing its fanout.
    pub cascade_of: Vec<Option<u32>>,
}

impl CompiledDesign {
    /// Combinational processes sensitive to `sig`.
    #[inline]
    pub fn comb_readers(&self, sig: SignalId) -> &[u32] {
        &self.comb_readers[sig.index()]
    }
}

/// Compile every process body of `design`.
pub fn compile_design(design: &Design) -> CompiledDesign {
    assemble_design(design, Vec::new())
}

/// Assemble a [`CompiledDesign`] from per-process units: `prebuilt[i]`,
/// when present, is installed verbatim for process `i` (delta elaboration
/// reuses the parent's bytecode there); every other process is lowered
/// from scratch. The `comb_readers` fanout index is always rebuilt —
/// it is a cheap O(total reads) pass, and rebuilding it wholesale keeps
/// it exactly what a from-scratch compile would produce.
pub fn assemble_design(
    design: &Design,
    mut prebuilt: Vec<Option<CompiledProcess>>,
) -> CompiledDesign {
    let procs: Vec<CompiledProcess> = design
        .processes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if let Some(slot) = prebuilt.get_mut(i) {
                if let Some(c) = slot.take() {
                    return c;
                }
            }
            let body = match p {
                Process::Comb { body, .. } => body,
                Process::Seq { body, .. } => body,
            };
            compile_process(design, body)
        })
        .collect();
    let mut comb_readers: Vec<Vec<u32>> = vec![Vec::new(); design.signals.len()];
    for (i, (proc_, p)) in procs.iter().zip(&design.processes).enumerate() {
        if matches!(p, Process::Comb { .. }) {
            for &sig in &proc_.reads {
                comb_readers[sig.index()].push(i as u32);
            }
        }
    }
    // Cascade plans are always rebuilt wholesale from the assembled
    // process set (like `comb_readers`), so a delta build's cascades are
    // exactly a scratch build's.
    let (cascades, cascade_of) = build_cascades(design, &procs, &comb_readers);
    CompiledDesign {
        procs,
        comb_readers,
        cascades,
        cascade_of,
    }
}

/// Compile one process body.
pub fn compile_process(design: &Design, body: &CStmt) -> CompiledProcess {
    let mut c = Compiler {
        design,
        code: Vec::new(),
        slot_widths: Vec::new(),
        consts: Vec::new(),
        const_index: HashMap::new(),
    };
    c.stmt(body);
    let sig_width = |sig: &SignalId| design.width(*sig);
    let narrow = c.slot_widths.iter().all(|&w| w <= 64)
        && c.code.iter().all(|i| match i {
            Instr::Load { sig, .. }
            | Instr::BitSelSig { sig, .. }
            | Instr::ReadSlice { sig, .. }
            | Instr::Store { sig, .. }
            | Instr::StoreBitDyn { sig, .. } => sig_width(sig) <= 64,
            _ => true,
        });
    let (reads, writes) = touch_sets(&c.code, design.signals.len());
    let mut cp = CompiledProcess {
        code: c.code,
        slot_widths: c.slot_widths,
        consts: c.consts,
        reads,
        writes,
        narrow,
        plan: None,
    };
    cp.plan = build_plan(design, &cp);
    cp
}

/// Extract the deduped (read, written) signal sets of an instruction
/// stream, in first-use order. Every store-reading instruction flavor is
/// covered, so the read set can never under-approximate the signals a
/// run depends on (the property precise event fanout needs).
fn touch_sets(code: &[Instr], nsig: usize) -> (Vec<SignalId>, Vec<SignalId>) {
    let mut reads: Vec<SignalId> = Vec::new();
    let mut writes: Vec<SignalId> = Vec::new();
    let mut read_stamp = vec![false; nsig];
    let mut write_stamp = vec![false; nsig];
    let mark = |sig: &SignalId, set: &mut Vec<SignalId>, stamp: &mut Vec<bool>| {
        if !stamp[sig.index()] {
            stamp[sig.index()] = true;
            set.push(*sig);
        }
    };
    for i in code {
        match i {
            Instr::Load { sig, .. }
            | Instr::BitSelSig { sig, .. }
            | Instr::ReadSlice { sig, .. } => mark(sig, &mut reads, &mut read_stamp),
            Instr::Store { sig, .. } | Instr::StoreBitDyn { sig, .. } => {
                mark(sig, &mut writes, &mut write_stamp)
            }
            _ => {}
        }
    }
    (reads, writes)
}

struct Compiler<'a> {
    design: &'a Design,
    code: Vec<Instr>,
    slot_widths: Vec<usize>,
    consts: Vec<LogicVec>,
    /// (binary string, width) → constant-pool index, to dedup the pool.
    const_index: HashMap<(String, usize), u16>,
}

impl<'a> Compiler<'a> {
    fn alloc(&mut self, width: usize) -> Slot {
        let ix = self.slot_widths.len();
        assert!(ix < u16::MAX as usize, "register file overflow");
        self.slot_widths.push(width.max(1));
        ix as Slot
    }

    fn konst(&mut self, v: LogicVec) -> u16 {
        let key = (v.to_binary_string(), v.width());
        if let Some(&k) = self.const_index.get(&key) {
            return k;
        }
        let k = self.consts.len();
        assert!(k < u16::MAX as usize, "constant pool overflow");
        self.consts.push(v);
        self.const_index.insert(key, k as u16);
        k as u16
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch(&mut self, at: usize, target_: usize) {
        match &mut self.code[at] {
            Instr::Jump { target }
            | Instr::JumpIfNotTrue { target, .. }
            | Instr::JumpIfMatch { target, .. } => *target = target_,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Narrow/widen `src` (width `from`) to `to`, emitting a `Copy` only
    /// when the widths differ.
    fn adjust(&mut self, src: Slot, from: usize, to: usize) -> Slot {
        if from == to {
            return src;
        }
        let dst = self.alloc(to);
        self.emit(Instr::Copy { dst, src });
        dst
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Compile `e` with context width `ctx`; the returned slot's width is
    /// exactly `max(ctx, 1)` — except for constant part selects, which
    /// keep their self-determined width when it exceeds `ctx`, mirroring
    /// `eval`.
    fn expr(&mut self, e: &CExpr, ctx: usize) -> Slot {
        let cw = ctx.max(1);
        match e {
            CExpr::Const(v) => {
                let dst = self.alloc(cw);
                let k = self.konst(v.resized(cw));
                self.emit(Instr::Const { dst, k });
                dst
            }
            CExpr::Sig(id) => {
                let dst = self.alloc(cw);
                self.emit(Instr::Load { dst, sig: *id });
                dst
            }
            CExpr::Unary(op, a) => {
                let self_w = a.width(self.design);
                match op {
                    UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus => {
                        let w = ctx.max(self_w).max(1);
                        let av = self.expr(a, w);
                        let r = match op {
                            UnaryOp::Not => {
                                let dst = self.alloc(w);
                                self.emit(Instr::Not { dst, a: av });
                                dst
                            }
                            UnaryOp::Neg => {
                                // -a == 0 - a at the operating width.
                                let zero = self.alloc(w);
                                let k = self.konst(LogicVec::new(w));
                                self.emit(Instr::Const { dst: zero, k });
                                let dst = self.alloc(w);
                                self.emit(Instr::Bin {
                                    op: BinOp::Sub,
                                    dst,
                                    a: zero,
                                    b: av,
                                });
                                dst
                            }
                            UnaryOp::Plus => av,
                            _ => unreachable!(),
                        };
                        self.adjust(r, w, cw)
                    }
                    UnaryOp::LogicNot => self.reduce(a, self_w, ReduceOp::LogicNot, cw),
                    UnaryOp::ReduceAnd => self.reduce(a, self_w, ReduceOp::And, cw),
                    UnaryOp::ReduceOr => self.reduce(a, self_w, ReduceOp::Or, cw),
                    UnaryOp::ReduceXor => self.reduce(a, self_w, ReduceOp::Xor, cw),
                    UnaryOp::ReduceNand => self.reduce(a, self_w, ReduceOp::Nand, cw),
                    UnaryOp::ReduceNor => self.reduce(a, self_w, ReduceOp::Nor, cw),
                    UnaryOp::ReduceXnor => self.reduce(a, self_w, ReduceOp::Xnor, cw),
                }
            }
            CExpr::Binary(op, l, r) => {
                let (lw, rw) = (l.width(self.design), r.width(self.design));
                match op {
                    BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::Div
                    | BinaryOp::Mod
                    | BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor
                    | BinaryOp::Xnor => {
                        let w = ctx.max(lw).max(rw).max(1);
                        let a = self.expr(l, w);
                        let b = self.expr(r, w);
                        let dst = self.alloc(w);
                        let bop = match op {
                            BinaryOp::Add => BinOp::Add,
                            BinaryOp::Sub => BinOp::Sub,
                            BinaryOp::Mul => BinOp::Mul,
                            BinaryOp::Div => BinOp::Div,
                            BinaryOp::Mod => BinOp::Mod,
                            BinaryOp::And => BinOp::And,
                            BinaryOp::Or => BinOp::Or,
                            BinaryOp::Xor => BinOp::Xor,
                            BinaryOp::Xnor => BinOp::Xnor,
                            _ => unreachable!(),
                        };
                        self.emit(Instr::Bin { op: bop, dst, a, b });
                        self.adjust(dst, w, cw)
                    }
                    BinaryOp::Shl | BinaryOp::Shr => {
                        let w = ctx.max(lw).max(1);
                        let a = self.expr(l, w);
                        let amt = self.expr(r, rw);
                        let dst = self.alloc(w);
                        self.emit(Instr::Shift {
                            left: matches!(op, BinaryOp::Shl),
                            dst,
                            a,
                            amt,
                        });
                        self.adjust(dst, w, cw)
                    }
                    BinaryOp::LogicAnd | BinaryOp::LogicOr => {
                        let a = self.expr(l, lw);
                        let b = self.expr(r, rw);
                        let dst = self.alloc(cw);
                        self.emit(Instr::LogicBin {
                            and: matches!(op, BinaryOp::LogicAnd),
                            dst,
                            a,
                            b,
                        });
                        dst
                    }
                    BinaryOp::Eq
                    | BinaryOp::Neq
                    | BinaryOp::CaseEq
                    | BinaryOp::CaseNeq
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge => {
                        let w = lw.max(rw);
                        let a = self.expr(l, w);
                        let b = self.expr(r, w);
                        let dst = self.alloc(cw);
                        let cop = match op {
                            BinaryOp::Eq => CmpOp::Eq,
                            BinaryOp::Neq => CmpOp::Neq,
                            BinaryOp::CaseEq => CmpOp::CaseEq,
                            BinaryOp::CaseNeq => CmpOp::CaseNeq,
                            BinaryOp::Lt => CmpOp::Lt,
                            BinaryOp::Le => CmpOp::Le,
                            BinaryOp::Gt => CmpOp::Gt,
                            BinaryOp::Ge => CmpOp::Ge,
                            _ => unreachable!(),
                        };
                        self.emit(Instr::Cmp { op: cop, dst, a, b });
                        dst
                    }
                }
            }
            CExpr::Ternary(c, t, f) => {
                let w = ctx
                    .max(t.width(self.design))
                    .max(f.width(self.design))
                    .max(1);
                let ts = self.expr(t, w);
                let fs = self.expr(f, w);
                let cs = self.expr(c, c.width(self.design));
                let dst = self.alloc(cw);
                self.emit(Instr::Select {
                    dst,
                    c: cs,
                    t: ts,
                    f: fs,
                });
                dst
            }
            CExpr::Concat(parts) => {
                let widths: Vec<usize> = parts.iter().map(|p| p.width(self.design)).collect();
                let total: usize = widths.iter().sum();
                let slots: Vec<Slot> = parts
                    .iter()
                    .zip(&widths)
                    .map(|(p, &w)| self.expr(p, w))
                    .collect();
                // MSB-first in source order: the first part takes the top
                // bits.
                let mut offset = total;
                let placed: Vec<(Slot, usize)> = slots
                    .iter()
                    .zip(&widths)
                    .map(|(&s, &w)| {
                        offset -= w;
                        (s, offset)
                    })
                    .collect();
                let dst = self.alloc(total);
                self.emit(Instr::Concat { dst, parts: placed });
                self.adjust(dst, total.max(1), cw)
            }
            CExpr::Repl(n, v) => {
                let vw = v.width(self.design);
                let src = self.expr(v, vw);
                let total = n * vw;
                let dst = self.alloc(total);
                self.emit(Instr::Repl { dst, src, n: *n });
                self.adjust(dst, total.max(1), cw)
            }
            CExpr::BitSel(id, idx) => {
                let iw = idx.width(self.design);
                let is = self.expr(idx, iw);
                let dst = self.alloc(cw);
                self.emit(Instr::BitSelSig {
                    dst,
                    sig: *id,
                    idx: is,
                    lsb_index: self.design.decl(*id).lsb_index,
                });
                dst
            }
            CExpr::PartSel(id, lsb, width) => {
                // `eval` resizes to max(ctx, width): the self-determined
                // width survives a narrower context.
                let dst = self.alloc(*width);
                self.emit(Instr::ReadSlice {
                    dst,
                    sig: *id,
                    lsb: *lsb,
                });
                self.adjust(dst, *width, cw.max(*width))
            }
        }
    }

    /// Lower a reduction (or `!`) of `a` evaluated at its self width.
    fn reduce(&mut self, a: &CExpr, self_w: usize, op: ReduceOp, cw: usize) -> Slot {
        let av = self.expr(a, self_w);
        let dst = self.alloc(cw);
        self.emit(Instr::Reduce { op, dst, a: av });
        dst
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            CStmt::Nop => {}
            CStmt::If(cond, then_s, else_s) => {
                let cs = self.expr(cond, cond.width(self.design));
                let jfalse = self.emit(Instr::JumpIfNotTrue {
                    cond: cs,
                    target: 0,
                });
                self.stmt(then_s);
                if let Some(e) = else_s {
                    let jend = self.emit(Instr::Jump { target: 0 });
                    let else_at = self.here();
                    self.patch(jfalse, else_at);
                    self.stmt(e);
                    let end = self.here();
                    self.patch(jend, end);
                } else {
                    let end = self.here();
                    self.patch(jfalse, end);
                }
            }
            CStmt::Case {
                kind,
                sel,
                arms,
                default,
            } => {
                // Width folded once: max over selector and every label.
                let mut w = sel.width(self.design);
                for (labels, _) in arms {
                    for l in labels {
                        w = w.max(l.width(self.design));
                    }
                }
                let ss = self.expr(sel, w);
                // Evaluate all labels up front (pure), then dispatch.
                let mut tests: Vec<(usize, usize)> = Vec::new(); // (jump ix, arm ix)
                for (ai, (labels, _)) in arms.iter().enumerate() {
                    for l in labels {
                        let ls = self.expr(l, w);
                        let j = self.emit(Instr::JumpIfMatch {
                            sel: ss,
                            label: ls,
                            kind: *kind,
                            target: 0,
                        });
                        tests.push((j, ai));
                    }
                }
                let jdefault = self.emit(Instr::Jump { target: 0 });
                let mut arm_starts: Vec<usize> = Vec::with_capacity(arms.len());
                let mut arm_end_jumps: Vec<usize> = Vec::with_capacity(arms.len());
                for (_, body) in arms {
                    arm_starts.push(self.here());
                    self.stmt(body);
                    arm_end_jumps.push(self.emit(Instr::Jump { target: 0 }));
                }
                let default_at = self.here();
                self.patch(jdefault, default_at);
                if let Some(d) = default {
                    self.stmt(d);
                }
                let end = self.here();
                for (j, ai) in tests {
                    self.patch(j, arm_starts[ai]);
                }
                for j in arm_end_jumps {
                    self.patch(j, end);
                }
            }
            CStmt::Assign {
                lv,
                rhs,
                nonblocking,
            } => {
                let total = lv.width(self.design);
                let rw = rhs.width(self.design);
                let vs = self.expr(rhs, total.max(rw));
                let vw = self.slot_widths[vs as usize];
                let value = self.adjust(vs, vw, total.max(1));
                // Pre-evaluate dynamic lvalue indices (the tree-walker
                // resolves every slice before applying any write).
                let slices = self.lvalue_slices(lv);
                // Distribute MSB-first: the first slice takes the top
                // bits.
                let mut hi = total;
                for slice in slices {
                    match slice {
                        LvSlice::Static { sig, lsb, width } => {
                            let lo = hi - width;
                            hi = lo;
                            let src = self.slice_of(value, total, lo, width);
                            self.emit(Instr::Store {
                                sig,
                                src,
                                lsb,
                                width,
                                nonblocking: *nonblocking,
                            });
                        }
                        LvSlice::DynBit {
                            sig,
                            idx,
                            lsb_index,
                        } => {
                            let lo = hi - 1;
                            hi = lo;
                            let src = self.slice_of(value, total, lo, 1);
                            self.emit(Instr::StoreBitDyn {
                                sig,
                                idx,
                                lsb_index,
                                src,
                                nonblocking: *nonblocking,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Extract `width` bits of `value` (width `total`) at `lo` — the
    /// whole slot passes through untouched.
    fn slice_of(&mut self, value: Slot, total: usize, lo: usize, width: usize) -> Slot {
        if lo == 0 && width == total {
            return value;
        }
        let dst = self.alloc(width);
        self.emit(Instr::Slice {
            dst,
            src: value,
            lsb: lo,
        });
        dst
    }

    /// Flatten an lvalue into slices MSB-first, pre-compiling dynamic
    /// index expressions.
    fn lvalue_slices(&mut self, lv: &CLValue) -> Vec<LvSlice> {
        match lv {
            CLValue::Whole(id) => vec![LvSlice::Static {
                sig: *id,
                lsb: 0,
                width: self.design.width(*id),
            }],
            CLValue::BitSel(id, idx) => {
                let iw = idx.width(self.design);
                let is = self.expr(idx, iw);
                vec![LvSlice::DynBit {
                    sig: *id,
                    idx: is,
                    lsb_index: self.design.decl(*id).lsb_index,
                }]
            }
            CLValue::PartSel(id, lsb, width) => vec![LvSlice::Static {
                sig: *id,
                lsb: *lsb,
                width: *width,
            }],
            CLValue::Concat(parts) => parts.iter().flat_map(|p| self.lvalue_slices(p)).collect(),
        }
    }
}

/// One resolved lvalue slice.
enum LvSlice {
    /// Static offset and width.
    Static {
        sig: SignalId,
        lsb: i64,
        width: usize,
    },
    /// Dynamic single-bit target (index in a slot).
    DynBit {
        sig: SignalId,
        idx: Slot,
        lsb_index: i64,
    },
}
