//! The semantic mutation engine: the error vocabulary of the synthetic
//! channel.
//!
//! Each [`MutationKind`] models a bug class that LLM-generated RTL
//! exhibits in practice (and that VerilogEval failures show): swapped
//! operators, dropped OR-terms (the paper's Fig. 3 case), inverted
//! conditions, off-by-one selects, blocking/non-blocking confusion,
//! wrong clock edges, and perturbed constants. Mutations are *semantic*:
//! the result still parses, so a candidate's failure shows up in
//! simulation rather than in the compiler.

use mage_logic::LogicVec;
use mage_verilog::ast::*;
use mage_verilog::visit::{
    expr_at, expr_at_mut, for_each_stmt, for_each_subexpr, stmt_at, stmt_at_mut, stmt_top_exprs,
    stmt_top_exprs_mut, ExprPath, StmtPath,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// The owner of a mutable expression slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SiteOwner {
    /// An `assign` item (slot 0 is the RHS).
    Item(usize),
    /// A statement (slots per [`stmt_top_exprs`]).
    Stmt(StmtPath),
}

/// Where a mutation applies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MutationSite {
    /// A sub-expression: owner, top-expression slot, path within it.
    Expr {
        /// Item or statement owning the expression.
        owner: SiteOwner,
        /// Index into the owner's top expressions.
        slot: usize,
        /// Path to the node inside the slot expression.
        path: ExprPath,
    },
    /// A whole statement (blocking/non-blocking swap).
    Stmt(StmtPath),
    /// A module item (sensitivity edge flip on an `always`).
    Item(usize),
}

/// The bug classes the channel can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationKind {
    /// Swap a binary operator for its classic confusion partner.
    OperatorSwap(BinaryOp),
    /// Wrap an expression in `~` (or unwrap an existing `~`).
    ToggleNot,
    /// Drop one side of an `|`/`&`/`^` chain (keeps the other side).
    DropTerm {
        /// `true` keeps the left operand, dropping the right.
        keep_lhs: bool,
    },
    /// Flip one bit of a literal.
    ConstFlip {
        /// Which bit to flip.
        bit: usize,
    },
    /// Replace an identifier with another same-width signal.
    SignalSwap(String),
    /// Shift a bit-select / part-select index by ±1 (kept in range).
    IndexShift {
        /// +1 or −1.
        delta: i64,
    },
    /// Swap the arms of a ternary.
    TernarySwap,
    /// Swap blocking ↔ non-blocking assignment.
    BlockingSwap,
    /// Flip a `posedge` ↔ `negedge` in the sensitivity list.
    EdgeFlip {
        /// Which event in the list.
        event: usize,
    },
}

/// A fully-specified, applicable mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// Where.
    pub site: MutationSite,
    /// What.
    pub kind: MutationKind,
}

/// Widths of declared signals (needs constant-foldable ranges, which the
/// benchmark golden modules guarantee).
fn signal_widths(m: &Module) -> BTreeMap<String, usize> {
    let mut consts: std::collections::HashMap<String, LogicVec> = std::collections::HashMap::new();
    for p in &m.params {
        if let Some(v) = mage_sim::fold_const_expr(&p.default, &consts) {
            consts.insert(p.name.clone(), v);
        }
    }
    let range_width = |r: &Option<Range>| -> Option<usize> {
        match r {
            None => Some(1),
            Some(r) => {
                let msb = mage_sim::fold_const_expr(&r.msb, &consts)?.to_u64()?;
                let lsb = mage_sim::fold_const_expr(&r.lsb, &consts)?.to_u64()?;
                (msb >= lsb).then(|| (msb - lsb + 1) as usize)
            }
        }
    };
    let mut out = BTreeMap::new();
    for p in &m.ports {
        if let Some(w) = range_width(&p.range) {
            out.insert(p.name.clone(), w);
        }
    }
    for item in &m.items {
        if let Item::Net { range, names, .. } = item {
            if let Some(w) = range_width(range) {
                for n in names {
                    out.insert(n.clone(), w);
                }
            }
        }
    }
    out
}

/// Enumerate every applicable mutation of `module`.
///
/// The list is deterministic for a given module, so sampling from it with
/// a seeded RNG is reproducible.
pub fn enumerate_mutations(module: &Module) -> Vec<Mutation> {
    let widths = signal_widths(module);
    let inputs: Vec<&str> = module
        .ports
        .iter()
        .filter(|p| p.dir == Direction::Input)
        .map(|p| p.name.as_str())
        .collect();
    let mut out = Vec::new();

    // Expression sites in assign items.
    for (i, item) in module.items.iter().enumerate() {
        if let Item::Assign { rhs, .. } = item {
            collect_expr_mutations(rhs, &SiteOwner::Item(i), 0, &widths, &inputs, &mut out);
        }
        if let Item::Always {
            sens: Sensitivity::Edges(events),
            ..
        } = item
        {
            for (e, _) in events.iter().enumerate() {
                out.push(Mutation {
                    site: MutationSite::Item(i),
                    kind: MutationKind::EdgeFlip { event: e },
                });
            }
        }
    }

    // Statement sites.
    for_each_stmt(module, |path, stmt| {
        match stmt {
            Stmt::Blocking { .. } | Stmt::NonBlocking { .. } => {
                out.push(Mutation {
                    site: MutationSite::Stmt(path.clone()),
                    kind: MutationKind::BlockingSwap,
                });
            }
            _ => {}
        }
        for (slot, top) in stmt_top_exprs(stmt).into_iter().enumerate() {
            collect_expr_mutations(
                top,
                &SiteOwner::Stmt(path.clone()),
                slot,
                &widths,
                &inputs,
                &mut out,
            );
        }
    });
    out
}

fn collect_expr_mutations(
    root: &Expr,
    owner: &SiteOwner,
    slot: usize,
    widths: &BTreeMap<String, usize>,
    inputs: &[&str],
    out: &mut Vec<Mutation>,
) {
    for_each_subexpr(root, |path, e| {
        let site = || MutationSite::Expr {
            owner: owner.clone(),
            slot,
            path: path.clone(),
        };
        match e {
            Expr::Binary { op, .. } => {
                if let Some(partner) = swap_partner(*op) {
                    out.push(Mutation {
                        site: site(),
                        kind: MutationKind::OperatorSwap(partner),
                    });
                }
                if matches!(op, BinaryOp::Or | BinaryOp::And | BinaryOp::Xor) {
                    out.push(Mutation {
                        site: site(),
                        kind: MutationKind::DropTerm { keep_lhs: true },
                    });
                    out.push(Mutation {
                        site: site(),
                        kind: MutationKind::DropTerm { keep_lhs: false },
                    });
                }
            }
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => out.push(Mutation {
                site: site(),
                kind: MutationKind::ToggleNot,
            }),
            Expr::Ident(name) => {
                out.push(Mutation {
                    site: site(),
                    kind: MutationKind::ToggleNot,
                });
                // Same-width partner swap (prefer inputs: the classic
                // "read the wrong signal" bug).
                if let Some(w) = widths.get(name) {
                    for (other, ow) in widths {
                        if other != name && ow == w && inputs.contains(&other.as_str()) {
                            out.push(Mutation {
                                site: site(),
                                kind: MutationKind::SignalSwap(other.clone()),
                            });
                        }
                    }
                }
            }
            Expr::Literal { value, .. } if value.width() <= 8 => {
                for bit in 0..value.width() {
                    out.push(Mutation {
                        site: site(),
                        kind: MutationKind::ConstFlip { bit },
                    });
                }
            }
            Expr::Literal { .. } => {}
            Expr::Ternary { .. } => out.push(Mutation {
                site: site(),
                kind: MutationKind::TernarySwap,
            }),
            Expr::Bit { base, index } => {
                // Only shift constant indices, and keep them in range.
                if let Expr::Literal { value, .. } = &**index {
                    if let (Some(idx), Some(w)) = (value.to_u64(), widths.get(base)) {
                        if idx + 1 < *w as u64 {
                            out.push(Mutation {
                                site: site(),
                                kind: MutationKind::IndexShift { delta: 1 },
                            });
                        }
                        if idx > 0 {
                            out.push(Mutation {
                                site: site(),
                                kind: MutationKind::IndexShift { delta: -1 },
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    });
}

/// The classic confusion partner for a binary operator.
fn swap_partner(op: BinaryOp) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match op {
        And => Or,
        Or => And,
        Xor => Xnor,
        Xnor => Xor,
        Add => Sub,
        Sub => Add,
        Eq => Neq,
        Neq => Eq,
        Lt => Le,
        Le => Lt,
        Gt => Ge,
        Ge => Gt,
        Shl => Shr,
        Shr => Shl,
        LogicAnd => LogicOr,
        LogicOr => LogicAnd,
        Mul | Div | Mod | CaseEq | CaseNeq => return None,
    })
}

/// Apply `m` to `module`. Returns `false` (leaving the module untouched)
/// when the site no longer exists — callers sample fresh mutations
/// against the current structure, so this indicates a stale mutation.
pub fn apply_mutation(module: &mut Module, m: &Mutation) -> bool {
    match (&m.site, &m.kind) {
        (MutationSite::Item(i), MutationKind::EdgeFlip { event }) => {
            let Some(Item::Always {
                sens: Sensitivity::Edges(events),
                ..
            }) = module.items.get_mut(*i)
            else {
                return false;
            };
            let Some(ev) = events.get_mut(*event) else {
                return false;
            };
            ev.edge = match ev.edge {
                Edge::Pos => Edge::Neg,
                Edge::Neg => Edge::Pos,
            };
            true
        }
        (MutationSite::Stmt(path), MutationKind::BlockingSwap) => {
            let Some(stmt) = stmt_at_mut(module, path) else {
                return false;
            };
            let swapped = match std::mem::replace(stmt, Stmt::Empty) {
                Stmt::Blocking { lhs, rhs } => Stmt::NonBlocking { lhs, rhs },
                Stmt::NonBlocking { lhs, rhs } => Stmt::Blocking { lhs, rhs },
                other => {
                    *stmt = other;
                    return false;
                }
            };
            *stmt = swapped;
            true
        }
        (MutationSite::Expr { owner, slot, path }, kind) => {
            let Some(target) = expr_slot_mut(module, owner, *slot) else {
                return false;
            };
            let Some(node) = expr_at_mut(target, path) else {
                return false;
            };
            mutate_expr_node(node, kind)
        }
        _ => false,
    }
}

fn expr_slot_mut<'a>(
    module: &'a mut Module,
    owner: &SiteOwner,
    slot: usize,
) -> Option<&'a mut Expr> {
    match owner {
        SiteOwner::Item(i) => match module.items.get_mut(*i) {
            Some(Item::Assign { rhs, .. }) if slot == 0 => Some(rhs),
            _ => None,
        },
        SiteOwner::Stmt(path) => {
            let stmt = stmt_at_mut(module, path)?;
            stmt_top_exprs_mut(stmt).into_iter().nth(slot)
        }
    }
}

/// Read-only access to an expression slot (used by the debugger's
/// site-inspection logic).
pub fn expr_slot<'a>(module: &'a Module, owner: &SiteOwner, slot: usize) -> Option<&'a Expr> {
    match owner {
        SiteOwner::Item(i) => match module.items.get(*i) {
            Some(Item::Assign { rhs, .. }) if slot == 0 => Some(rhs),
            _ => None,
        },
        SiteOwner::Stmt(path) => {
            let stmt = stmt_at(module, path)?;
            stmt_top_exprs(stmt).into_iter().nth(slot)
        }
    }
}

fn mutate_expr_node(node: &mut Expr, kind: &MutationKind) -> bool {
    match kind {
        MutationKind::OperatorSwap(new_op) => {
            if let Expr::Binary { op, .. } = node {
                *op = *new_op;
                true
            } else {
                false
            }
        }
        MutationKind::ToggleNot => {
            let current = std::mem::replace(node, Expr::number(0));
            *node = match current {
                Expr::Unary {
                    op: UnaryOp::Not,
                    operand,
                } => *operand,
                other => Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(other),
                },
            };
            true
        }
        MutationKind::DropTerm { keep_lhs } => {
            let current = std::mem::replace(node, Expr::number(0));
            match current {
                Expr::Binary { lhs, rhs, .. } => {
                    *node = if *keep_lhs { *lhs } else { *rhs };
                    true
                }
                other => {
                    *node = other;
                    false
                }
            }
        }
        MutationKind::ConstFlip { bit } => {
            if let Expr::Literal { value, .. } = node {
                if *bit < value.width() {
                    let b = value.bit(*bit);
                    value.set_bit(*bit, b.not());
                    return true;
                }
            }
            false
        }
        MutationKind::SignalSwap(other) => {
            if let Expr::Ident(name) = node {
                *name = other.clone();
                true
            } else {
                false
            }
        }
        MutationKind::IndexShift { delta } => {
            if let Expr::Bit { index, .. } = node {
                if let Expr::Literal { value, .. } = &mut **index {
                    if let Some(v) = value.to_u64() {
                        let nv = (v as i64 + delta).max(0) as u64;
                        *value = LogicVec::from_u64(value.width(), nv);
                        return true;
                    }
                }
            }
            false
        }
        MutationKind::TernarySwap => {
            if let Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } = node
            {
                std::mem::swap(then_expr, else_expr);
                true
            } else {
                false
            }
        }
        _ => false,
    }
}

/// Signals written by the statement/item a mutation site lives in, used
/// to relate a bug site to the output cone it can disturb.
pub fn site_written_signals(module: &Module, site: &MutationSite) -> Vec<String> {
    let owner: Option<SiteOwner> = match site {
        MutationSite::Expr { owner, .. } => Some(owner.clone()),
        MutationSite::Stmt(p) => Some(SiteOwner::Stmt(p.clone())),
        MutationSite::Item(i) => Some(SiteOwner::Item(*i)),
    };
    match owner {
        Some(SiteOwner::Item(i)) => match module.items.get(i) {
            Some(Item::Assign { lhs, .. }) => {
                lhs.target_names().iter().map(|s| s.to_string()).collect()
            }
            Some(Item::Always { body, .. }) => {
                // Edge flips affect everything the always block writes.
                let mut out = Vec::new();
                collect_stmt_writes(body, &mut out);
                out
            }
            _ => Vec::new(),
        },
        Some(SiteOwner::Stmt(path)) => match stmt_at(module, &path) {
            Some(Stmt::Blocking { lhs, .. }) | Some(Stmt::NonBlocking { lhs, .. }) => {
                lhs.target_names().iter().map(|s| s.to_string()).collect()
            }
            // Condition/selector sites: every write under the statement.
            Some(other) => {
                let mut out = Vec::new();
                collect_stmt_writes(other, &mut out);
                out
            }
            None => Vec::new(),
        },
        None => Vec::new(),
    }
}

fn collect_stmt_writes(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(ss) => ss.iter().for_each(|c| collect_stmt_writes(c, out)),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_stmt_writes(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt_writes(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for a in arms {
                collect_stmt_writes(&a.body, out);
            }
            if let Some(d) = default {
                collect_stmt_writes(d, out);
            }
        }
        Stmt::For { body, .. } => collect_stmt_writes(body, out),
        Stmt::Blocking { lhs, .. } | Stmt::NonBlocking { lhs, .. } => {
            for t in lhs.target_names() {
                if !out.iter().any(|x| x == t) {
                    out.push(t.to_string());
                }
            }
        }
        Stmt::Empty => {}
    }
}

/// Sample `count` distinct mutations from the module's mutation space.
///
/// Returns fewer when the space is smaller than `count`.
pub fn sample_mutations<R: Rng>(module: &Module, count: usize, rng: &mut R) -> Vec<Mutation> {
    let mut all = enumerate_mutations(module);
    all.shuffle(rng);
    all.truncate(count);
    all
}

/// `true` when the mutation site still denotes the same expression shape
/// in `module` (used to validate staleness).
pub fn site_exists(module: &Module, m: &Mutation) -> bool {
    match &m.site {
        MutationSite::Item(i) => matches!(
            module.items.get(*i),
            Some(Item::Always {
                sens: Sensitivity::Edges(_),
                ..
            })
        ),
        MutationSite::Stmt(p) => stmt_at(module, p).is_some(),
        MutationSite::Expr { owner, slot, path } => expr_slot(module, owner, *slot)
            .and_then(|e| expr_at(e, path))
            .is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_verilog::parse_module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mux_module() -> Module {
        parse_module(
            "module mux(input c, input d, output reg [3:0] mux_in);
               always @(*) begin
                 mux_in[0] = (~c & d) | (c & ~d) | (c & d);
                 mux_in[1] = 1'b0;
                 mux_in[2] = (~c & ~d) | (c & ~d);
                 mux_in[3] = c & d;
               end
             endmodule",
        )
        .unwrap()
    }

    #[test]
    fn enumeration_is_deterministic_and_rich() {
        let m = mux_module();
        let a = enumerate_mutations(&m);
        let b = enumerate_mutations(&m);
        assert_eq!(a, b);
        assert!(
            a.len() > 30,
            "expected a rich mutation space, got {}",
            a.len()
        );
        assert!(a
            .iter()
            .any(|mu| matches!(mu.kind, MutationKind::DropTerm { .. })));
        assert!(a
            .iter()
            .any(|mu| matches!(mu.kind, MutationKind::OperatorSwap(_))));
    }

    #[test]
    fn apply_changes_structure() {
        let m = mux_module();
        let all = enumerate_mutations(&m);
        let mut changed = 0usize;
        for mu in &all {
            let mut c = m.clone();
            if apply_mutation(&mut c, mu) && c != m {
                changed += 1;
            }
        }
        // Every enumerated mutation must apply and visibly change the AST.
        assert_eq!(changed, all.len());
    }

    #[test]
    fn drop_term_reproduces_fig3_bug() {
        let mut m = mux_module();
        // Find the DropTerm on the top-level Or of mux_in[0]'s rhs.
        let target = enumerate_mutations(&m)
            .into_iter()
            .find(|mu| {
                matches!(&mu.kind, MutationKind::DropTerm { keep_lhs: true })
                    && matches!(
                        &mu.site,
                        MutationSite::Expr { path, .. } if path.0.is_empty()
                    )
            })
            .expect("top-level drop exists");
        assert!(apply_mutation(&mut m, &target));
        let printed = mage_verilog::print_module(&m);
        // The (c & d) term is gone from mux_in[0].
        assert!(printed.contains("mux_in[0] = ~c & d | c & ~d;"));
    }

    #[test]
    fn blocking_swap_roundtrips() {
        let mut m = parse_module(
            "module d(input clk, input x, output reg q);
               always @(posedge clk) q <= x;
             endmodule",
        )
        .unwrap();
        let mu = enumerate_mutations(&m)
            .into_iter()
            .find(|mu| matches!(mu.kind, MutationKind::BlockingSwap))
            .unwrap();
        let orig = m.clone();
        assert!(apply_mutation(&mut m, &mu));
        assert_ne!(m, orig);
        assert!(apply_mutation(&mut m, &mu));
        assert_eq!(m, orig, "double swap restores");
    }

    #[test]
    fn edge_flip_changes_sensitivity() {
        let mut m = parse_module(
            "module d(input clk, input x, output reg q);
               always @(posedge clk) q <= x;
             endmodule",
        )
        .unwrap();
        let mu = enumerate_mutations(&m)
            .into_iter()
            .find(|mu| matches!(mu.kind, MutationKind::EdgeFlip { .. }))
            .unwrap();
        assert!(apply_mutation(&mut m, &mu));
        let Item::Always {
            sens: Sensitivity::Edges(e),
            ..
        } = &m.items[0]
        else {
            panic!()
        };
        assert_eq!(e[0].edge, Edge::Neg);
    }

    #[test]
    fn index_shift_stays_in_range() {
        let m = parse_module(
            "module s(input [3:0] a, output y);
               assign y = a[0] ^ a[3];
             endmodule",
        )
        .unwrap();
        for mu in enumerate_mutations(&m) {
            if let MutationKind::IndexShift { delta } = mu.kind {
                let mut c = m.clone();
                assert!(apply_mutation(&mut c, &mu));
                // All indices remain within [0, 3].
                let printed = mage_verilog::print_module(&c);
                assert!(!printed.contains("a[4]"), "delta {delta}: {printed}");
            }
        }
    }

    #[test]
    fn site_written_signals_identifies_targets() {
        let m = mux_module();
        let all = enumerate_mutations(&m);
        let drop = all
            .iter()
            .find(|mu| matches!(mu.kind, MutationKind::DropTerm { .. }))
            .unwrap();
        let written = site_written_signals(&m, &drop.site);
        assert_eq!(written, vec!["mux_in".to_string()]);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let m = mux_module();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(
            sample_mutations(&m, 3, &mut r1),
            sample_mutations(&m, 3, &mut r2)
        );
    }

    #[test]
    fn mutated_module_still_parses() {
        let m = mux_module();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let mut c = m.clone();
            for mu in sample_mutations(&c, 2, &mut rng) {
                apply_mutation(&mut c, &mu);
            }
            let printed = mage_verilog::print_module(&c);
            assert!(
                mage_verilog::parse_module(&printed).is_ok(),
                "mutation broke syntax:\n{printed}"
            );
        }
    }
}
