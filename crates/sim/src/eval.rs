//! Expression evaluation and statement execution over a value store.
//!
//! Width semantics follow a simplified form of Verilog's
//! context-determined rules: the assignment target's width is pushed down
//! through arithmetic/bitwise/ternary operators (so `{c, s} = a + b`
//! keeps its carry), while comparisons, shifts amounts, concatenations
//! and selects are self-determined.

use crate::design::{CExpr, CLValue, CStmt, Design, SignalId};
use mage_logic::{LogicVec, Truth};
use mage_verilog::ast::{BinaryOp, CaseKind, UnaryOp};

/// The simulation value store: one [`LogicVec`] per signal.
pub type Store = Vec<LogicVec>;

/// A pending non-blocking write: `width` bits of `value` into `signal`
/// starting at physical bit `lsb`.
#[derive(Debug, Clone)]
pub struct PendingWrite {
    /// Target signal.
    pub signal: SignalId,
    /// Physical LSB offset of the slice.
    pub lsb: i64,
    /// Slice width.
    pub width: usize,
    /// Value (already sized to `width`).
    pub value: LogicVec,
}

/// Evaluate `e` against `store` with context width `ctx` (callers pass
/// `e.width(design)` for self-determined positions).
pub fn eval(design: &Design, store: &Store, e: &CExpr, ctx: usize) -> LogicVec {
    match e {
        CExpr::Const(v) => v.resized(ctx.max(1)),
        CExpr::Sig(id) => store[id.index()].resized(ctx.max(1)),
        CExpr::Unary(op, a) => {
            let self_w = a.width(design);
            match op {
                UnaryOp::Not => eval(design, store, a, ctx.max(self_w))
                    .bit_not()
                    .resized(ctx),
                UnaryOp::Neg => eval(design, store, a, ctx.max(self_w)).neg().resized(ctx),
                UnaryOp::Plus => eval(design, store, a, ctx.max(self_w)).resized(ctx),
                UnaryOp::LogicNot => {
                    let v = eval(design, store, a, self_w);
                    LogicVec::from_bit(v.truth().not().to_bit()).resized(ctx)
                }
                UnaryOp::ReduceAnd => bit_result(eval(design, store, a, self_w).reduce_and(), ctx),
                UnaryOp::ReduceOr => bit_result(eval(design, store, a, self_w).reduce_or(), ctx),
                UnaryOp::ReduceXor => bit_result(eval(design, store, a, self_w).reduce_xor(), ctx),
                UnaryOp::ReduceNand => {
                    bit_result(eval(design, store, a, self_w).reduce_nand(), ctx)
                }
                UnaryOp::ReduceNor => bit_result(eval(design, store, a, self_w).reduce_nor(), ctx),
                UnaryOp::ReduceXnor => {
                    bit_result(eval(design, store, a, self_w).reduce_xnor(), ctx)
                }
            }
        }
        CExpr::Binary(op, l, r) => match op {
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Mod
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Xnor => {
                let w = ctx.max(l.width(design)).max(r.width(design));
                let a = eval(design, store, l, w);
                let b = eval(design, store, r, w);
                let v = match op {
                    BinaryOp::Add => a.add(&b),
                    BinaryOp::Sub => a.sub(&b),
                    BinaryOp::Mul => a.mul(&b),
                    BinaryOp::Div => a.div(&b),
                    BinaryOp::Mod => a.rem(&b),
                    BinaryOp::And => a.bit_and(&b),
                    BinaryOp::Or => a.bit_or(&b),
                    BinaryOp::Xor => a.bit_xor(&b),
                    BinaryOp::Xnor => a.bit_xnor(&b),
                    _ => unreachable!(),
                };
                v.resized(ctx.max(1))
            }
            BinaryOp::Shl | BinaryOp::Shr => {
                let w = ctx.max(l.width(design));
                let a = eval(design, store, l, w);
                let amt = eval(design, store, r, r.width(design));
                let v = match op {
                    BinaryOp::Shl => a.shl(&amt),
                    BinaryOp::Shr => a.shr(&amt),
                    _ => unreachable!(),
                };
                v.resized(ctx.max(1))
            }
            BinaryOp::LogicAnd | BinaryOp::LogicOr => {
                let a = eval(design, store, l, l.width(design)).truth();
                let b = eval(design, store, r, r.width(design)).truth();
                let t = match op {
                    BinaryOp::LogicAnd => a.and(b),
                    BinaryOp::LogicOr => a.or(b),
                    _ => unreachable!(),
                };
                bit_result(t.to_bit(), ctx)
            }
            BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::CaseEq
            | BinaryOp::CaseNeq
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let w = l.width(design).max(r.width(design));
                let a = eval(design, store, l, w);
                let b = eval(design, store, r, w);
                let bit = match op {
                    BinaryOp::Eq => a.logic_eq(&b),
                    BinaryOp::Neq => a.logic_neq(&b),
                    BinaryOp::CaseEq => mage_logic::LogicBit::from(a.case_eq(&b)),
                    BinaryOp::CaseNeq => mage_logic::LogicBit::from(!a.case_eq(&b)),
                    BinaryOp::Lt => a.lt(&b),
                    BinaryOp::Le => a.le(&b),
                    BinaryOp::Gt => a.gt(&b),
                    BinaryOp::Ge => a.ge(&b),
                    _ => unreachable!(),
                };
                bit_result(bit, ctx)
            }
        },
        CExpr::Ternary(c, t, f) => {
            let cond = eval(design, store, c, c.width(design)).truth();
            let w = ctx.max(t.width(design)).max(f.width(design));
            match cond {
                Truth::True => eval(design, store, t, w).resized(ctx.max(1)),
                Truth::False => eval(design, store, f, w).resized(ctx.max(1)),
                Truth::Unknown => {
                    let a = eval(design, store, t, w);
                    let b = eval(design, store, f, w);
                    LogicVec::mux(Truth::Unknown, &a, &b).resized(ctx.max(1))
                }
            }
        }
        CExpr::Concat(parts) => {
            let vals: Vec<LogicVec> = parts
                .iter()
                .map(|p| eval(design, store, p, p.width(design)))
                .collect();
            let refs: Vec<&LogicVec> = vals.iter().collect();
            LogicVec::concat_msb_first(&refs).resized(ctx.max(1))
        }
        CExpr::Repl(n, v) => {
            let val = eval(design, store, v, v.width(design));
            val.replicate(*n).resized(ctx.max(1))
        }
        CExpr::BitSel(id, idx) => {
            let idx_v = eval(design, store, idx, idx.width(design));
            let decl = design.decl(*id);
            let bit = match idx_v.to_u64() {
                Some(i) => {
                    let phys = i as i64 - decl.lsb_index;
                    if phys >= 0 {
                        store[id.index()]
                            .get(phys as usize)
                            .unwrap_or(mage_logic::LogicBit::X)
                    } else {
                        mage_logic::LogicBit::X
                    }
                }
                None => mage_logic::LogicBit::X,
            };
            bit_result(bit, ctx)
        }
        CExpr::PartSel(id, lsb, width) => store[id.index()]
            .slice(*lsb as isize, *width)
            .resized(ctx.max(*width)),
    }
}

fn bit_result(bit: mage_logic::LogicBit, ctx: usize) -> LogicVec {
    LogicVec::from_bit(bit).resized(ctx.max(1))
}

/// Resolve an lvalue into concrete slice writes, MSB-first, evaluating
/// dynamic indices against the current store. Unknown or out-of-range
/// dynamic indices yield no write for that slice (matching event-driven
/// simulator behaviour).
fn resolve_lvalue(
    design: &Design,
    store: &Store,
    lv: &CLValue,
) -> Vec<(SignalId, i64, usize, bool)> {
    // (signal, phys_lsb, width, valid)
    match lv {
        CLValue::Whole(id) => vec![(*id, 0, design.width(*id), true)],
        CLValue::BitSel(id, idx) => {
            let idx_v = eval(design, store, idx, idx.width(design));
            let decl = design.decl(*id);
            match idx_v.to_u64() {
                Some(i) => {
                    let phys = i as i64 - decl.lsb_index;
                    let valid = phys >= 0 && (phys as usize) < decl.width;
                    vec![(*id, phys, 1, valid)]
                }
                None => vec![(*id, 0, 1, false)],
            }
        }
        CLValue::PartSel(id, lsb, width) => vec![(*id, *lsb, *width, true)],
        CLValue::Concat(parts) => parts
            .iter()
            .flat_map(|p| resolve_lvalue(design, store, p))
            .collect(),
    }
}

/// Execute one statement.
///
/// Blocking assignments write through to `store` immediately and append
/// the written signal to `changed`; non-blocking assignments are resolved
/// now but queued on `nba` for a later commit.
pub fn exec(
    design: &Design,
    store: &mut Store,
    stmt: &CStmt,
    nba: &mut Vec<PendingWrite>,
    changed: &mut Vec<SignalId>,
) {
    match stmt {
        CStmt::Block(stmts) => {
            for s in stmts {
                exec(design, store, s, nba, changed);
            }
        }
        CStmt::If(cond, then_s, else_s) => {
            let c = eval(design, store, cond, cond.width(design)).truth();
            if c.is_true() {
                exec(design, store, then_s, nba, changed);
            } else if let Some(e) = else_s {
                exec(design, store, e, nba, changed);
            }
        }
        CStmt::Case {
            kind,
            sel,
            arms,
            default,
        } => {
            let mut w = sel.width(design);
            for (labels, _) in arms {
                for l in labels {
                    w = w.max(l.width(design));
                }
            }
            let sv = eval(design, store, sel, w);
            for (labels, body) in arms {
                let hit = labels.iter().any(|l| {
                    let lv = eval(design, store, l, w);
                    match kind {
                        CaseKind::Case => sv.case_eq(&lv),
                        CaseKind::Casez => sv.matches_casez(&lv),
                    }
                });
                if hit {
                    exec(design, store, body, nba, changed);
                    return;
                }
            }
            if let Some(d) = default {
                exec(design, store, d, nba, changed);
            }
        }
        CStmt::Assign {
            lv,
            rhs,
            nonblocking,
        } => {
            let total = lv.width(design);
            let value = eval(design, store, rhs, total.max(rhs.width(design))).resized(total);
            let slices = resolve_lvalue(design, store, lv);
            // Distribute MSB-first: the first slice takes the top bits.
            let mut hi = total as i64;
            for (sig, lsb, width, valid) in slices {
                let lo = hi - width as i64;
                let slice_v = value.slice(lo as isize, width);
                hi = lo;
                if !valid {
                    continue;
                }
                if *nonblocking {
                    nba.push(PendingWrite {
                        signal: sig,
                        lsb,
                        width,
                        value: slice_v,
                    });
                } else {
                    apply_write(store, sig, lsb, width, &slice_v, changed);
                }
            }
        }
        CStmt::Nop => {}
    }
}

/// Apply one slice write to the store, recording a change when the stored
/// value actually differs.
///
/// Writes in place and compares only the affected slice — a 1-bit write
/// to a wide signal touches one bit, instead of cloning the whole vector
/// and case-comparing every word (the pre-bytecode behaviour).
pub fn apply_write(
    store: &mut Store,
    sig: SignalId,
    lsb: i64,
    width: usize,
    value: &LogicVec,
    changed: &mut Vec<SignalId>,
) {
    let cur = &mut store[sig.index()];
    let wrote = if value.width() == width {
        cur.write_slice_changed(lsb as isize, value)
    } else {
        cur.write_slice_changed(lsb as isize, &value.resized(width))
    };
    if wrote {
        changed.push(sig);
    }
}
