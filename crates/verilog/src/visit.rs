//! Structural addressing and traversal of the AST.
//!
//! Because the AST carries no node ids, tools address nodes with
//! *structural paths*: a [`StmtPath`] walks from a module item into nested
//! statements, and an [`ExprPath`] walks from an expression root into its
//! sub-expressions. The mutation engine in `mage-llm` and the driver-cone
//! analysis in [`crate::analysis`] are both built on these helpers.

use crate::ast::*;

/// One navigation step into a compound statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtStep {
    /// Into statement `i` of a `begin … end` block.
    Block(usize),
    /// Into the then-branch of an `if`.
    Then,
    /// Into the else-branch of an `if`.
    Else,
    /// Into the body of case arm `i`.
    Arm(usize),
    /// Into the `default:` body of a case.
    Default,
    /// Into the body of a `for`.
    ForBody,
}

/// Path from a module to one of its statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StmtPath {
    /// Index into [`Module::items`] (must be an `always` item).
    pub item: usize,
    /// Steps from the always-body root to the statement.
    pub steps: Vec<StmtStep>,
}

/// Path from an expression root to a sub-expression (child indices).
///
/// Child numbering: `Unary.operand = 0`; `Binary.lhs = 0, rhs = 1`;
/// `Ternary.cond = 0, then = 1, else = 2`; `Concat[i] = i`;
/// `Repl.count = 0, value = 1`; `Bit.index = 0`; `Part.msb = 0, lsb = 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ExprPath(pub Vec<usize>);

/// Reference to an assignment anywhere in a module: either a continuous
/// `assign` item or a procedural assignment statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AssignRef {
    /// `assign` item at [`Module::items`] index.
    Item(usize),
    /// Procedural assignment at a statement path.
    Stmt(StmtPath),
}

// ----------------------------------------------------------------------
// Statement traversal
// ----------------------------------------------------------------------

/// Visit every statement in every `always` body, pre-order, with its path.
pub fn for_each_stmt<'a>(m: &'a Module, mut f: impl FnMut(&StmtPath, &'a Stmt)) {
    for (i, item) in m.items.iter().enumerate() {
        if let Item::Always { body, .. } = item {
            let mut path = StmtPath {
                item: i,
                steps: Vec::new(),
            };
            walk_stmt(body, &mut path, &mut f);
        }
    }
}

fn walk_stmt<'a>(s: &'a Stmt, path: &mut StmtPath, f: &mut impl FnMut(&StmtPath, &'a Stmt)) {
    f(path, s);
    match s {
        Stmt::Block(stmts) => {
            for (i, c) in stmts.iter().enumerate() {
                path.steps.push(StmtStep::Block(i));
                walk_stmt(c, path, f);
                path.steps.pop();
            }
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            path.steps.push(StmtStep::Then);
            walk_stmt(then_branch, path, f);
            path.steps.pop();
            if let Some(e) = else_branch {
                path.steps.push(StmtStep::Else);
                walk_stmt(e, path, f);
                path.steps.pop();
            }
        }
        Stmt::Case { arms, default, .. } => {
            for (i, arm) in arms.iter().enumerate() {
                path.steps.push(StmtStep::Arm(i));
                walk_stmt(&arm.body, path, f);
                path.steps.pop();
            }
            if let Some(d) = default {
                path.steps.push(StmtStep::Default);
                walk_stmt(d, path, f);
                path.steps.pop();
            }
        }
        Stmt::For { body, .. } => {
            path.steps.push(StmtStep::ForBody);
            walk_stmt(body, path, f);
            path.steps.pop();
        }
        _ => {}
    }
}

/// Look up the statement at `path`, if the path is valid.
pub fn stmt_at<'a>(m: &'a Module, path: &StmtPath) -> Option<&'a Stmt> {
    let Item::Always { body, .. } = m.items.get(path.item)? else {
        return None;
    };
    let mut cur = body;
    for step in &path.steps {
        cur = step_into(cur, *step)?;
    }
    Some(cur)
}

/// Mutable version of [`stmt_at`].
pub fn stmt_at_mut<'a>(m: &'a mut Module, path: &StmtPath) -> Option<&'a mut Stmt> {
    let Item::Always { body, .. } = m.items.get_mut(path.item)? else {
        return None;
    };
    let mut cur = body;
    for step in &path.steps {
        cur = step_into_mut(cur, *step)?;
    }
    Some(cur)
}

fn step_into(s: &Stmt, step: StmtStep) -> Option<&Stmt> {
    match (s, step) {
        (Stmt::Block(ss), StmtStep::Block(i)) => ss.get(i),
        (Stmt::If { then_branch, .. }, StmtStep::Then) => Some(then_branch),
        (Stmt::If { else_branch, .. }, StmtStep::Else) => else_branch.as_deref(),
        (Stmt::Case { arms, .. }, StmtStep::Arm(i)) => arms.get(i).map(|a| &a.body),
        (Stmt::Case { default, .. }, StmtStep::Default) => default.as_deref(),
        (Stmt::For { body, .. }, StmtStep::ForBody) => Some(body),
        _ => None,
    }
}

fn step_into_mut(s: &mut Stmt, step: StmtStep) -> Option<&mut Stmt> {
    match (s, step) {
        (Stmt::Block(ss), StmtStep::Block(i)) => ss.get_mut(i),
        (Stmt::If { then_branch, .. }, StmtStep::Then) => Some(then_branch),
        (Stmt::If { else_branch, .. }, StmtStep::Else) => else_branch.as_deref_mut(),
        (Stmt::Case { arms, .. }, StmtStep::Arm(i)) => arms.get_mut(i).map(|a| &mut a.body),
        (Stmt::Case { default, .. }, StmtStep::Default) => default.as_deref_mut(),
        (Stmt::For { body, .. }, StmtStep::ForBody) => Some(body),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Item enumeration
// ----------------------------------------------------------------------

/// Visit every module item with its [`Module::items`] index, in order.
///
/// The index doubles as the item's structural address (the same numbering
/// [`StmtPath::item`] and [`AssignRef::Item`] use), so callers can pair
/// per-item facts — e.g. [`crate::fingerprint`] hashes — with positions.
pub fn for_each_item<'a>(m: &'a Module, mut f: impl FnMut(usize, &'a Item)) {
    for (i, item) in m.items.iter().enumerate() {
        f(i, item);
    }
}

// ----------------------------------------------------------------------
// Assignment enumeration
// ----------------------------------------------------------------------

/// Visit every assignment in the module: continuous `assign` items and
/// procedural (non)blocking assignment statements.
pub fn for_each_assignment<'a>(m: &'a Module, mut f: impl FnMut(AssignRef, &'a LValue, &'a Expr)) {
    for (i, item) in m.items.iter().enumerate() {
        if let Item::Assign { lhs, rhs } = item {
            f(AssignRef::Item(i), lhs, rhs);
        }
    }
    for_each_stmt(m, |path, stmt| match stmt {
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            f(AssignRef::Stmt(path.clone()), lhs, rhs);
        }
        _ => {}
    });
}

// ----------------------------------------------------------------------
// Expression slots and paths
// ----------------------------------------------------------------------

/// The top-level expressions owned directly by a statement (not those of
/// nested statements): assignment right-hand sides and lvalue indices,
/// `if` conditions, case selectors and labels, `for` bounds.
pub fn stmt_top_exprs(s: &Stmt) -> Vec<&Expr> {
    let mut v = Vec::new();
    match s {
        Stmt::If { cond, .. } => v.push(cond),
        Stmt::Case { expr, arms, .. } => {
            v.push(expr);
            for arm in arms {
                v.extend(arm.labels.iter());
            }
        }
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            v.push(rhs);
            collect_lvalue_exprs(lhs, &mut v);
        }
        Stmt::For {
            init, cond, step, ..
        } => {
            v.push(init);
            v.push(cond);
            v.push(step);
        }
        Stmt::Block(_) | Stmt::Empty => {}
    }
    v
}

/// Mutable version of [`stmt_top_exprs`].
pub fn stmt_top_exprs_mut(s: &mut Stmt) -> Vec<&mut Expr> {
    let mut v: Vec<&mut Expr> = Vec::new();
    match s {
        Stmt::If { cond, .. } => v.push(cond),
        Stmt::Case { expr, arms, .. } => {
            v.push(expr);
            for arm in arms {
                v.extend(arm.labels.iter_mut());
            }
        }
        Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
            v.push(rhs);
            collect_lvalue_exprs_mut(lhs, &mut v);
        }
        Stmt::For {
            init, cond, step, ..
        } => {
            v.push(init);
            v.push(cond);
            v.push(step);
        }
        Stmt::Block(_) | Stmt::Empty => {}
    }
    v
}

fn collect_lvalue_exprs<'a>(l: &'a LValue, out: &mut Vec<&'a Expr>) {
    match l {
        LValue::Ident(_) => {}
        LValue::Bit(_, i) => out.push(i),
        LValue::Part(_, m, l2) => {
            out.push(m);
            out.push(l2);
        }
        LValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_exprs(p, out);
            }
        }
    }
}

fn collect_lvalue_exprs_mut<'a>(l: &'a mut LValue, out: &mut Vec<&'a mut Expr>) {
    match l {
        LValue::Ident(_) => {}
        LValue::Bit(_, i) => out.push(i),
        LValue::Part(_, m, l2) => {
            out.push(m);
            out.push(l2);
        }
        LValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_exprs_mut(p, out);
            }
        }
    }
}

/// Number of direct children of an expression node.
pub fn expr_child_count(e: &Expr) -> usize {
    match e {
        Expr::Literal { .. } | Expr::Ident(_) => 0,
        Expr::Unary { .. } | Expr::Bit { .. } => 1,
        Expr::Binary { .. } | Expr::Repl { .. } | Expr::Part { .. } => 2,
        Expr::Ternary { .. } => 3,
        Expr::Concat(parts) => parts.len(),
    }
}

/// The `i`-th direct child of an expression node.
pub fn expr_child(e: &Expr, i: usize) -> Option<&Expr> {
    match (e, i) {
        (Expr::Unary { operand, .. }, 0) => Some(operand),
        (Expr::Binary { lhs, .. }, 0) => Some(lhs),
        (Expr::Binary { rhs, .. }, 1) => Some(rhs),
        (Expr::Ternary { cond, .. }, 0) => Some(cond),
        (Expr::Ternary { then_expr, .. }, 1) => Some(then_expr),
        (Expr::Ternary { else_expr, .. }, 2) => Some(else_expr),
        (Expr::Concat(parts), i) => parts.get(i),
        (Expr::Repl { count, .. }, 0) => Some(count),
        (Expr::Repl { value, .. }, 1) => Some(value),
        (Expr::Bit { index, .. }, 0) => Some(index),
        (Expr::Part { msb, .. }, 0) => Some(msb),
        (Expr::Part { lsb, .. }, 1) => Some(lsb),
        _ => None,
    }
}

/// Mutable version of [`expr_child`].
pub fn expr_child_mut(e: &mut Expr, i: usize) -> Option<&mut Expr> {
    match (e, i) {
        (Expr::Unary { operand, .. }, 0) => Some(operand),
        (Expr::Binary { lhs, .. }, 0) => Some(lhs),
        (Expr::Binary { rhs, .. }, 1) => Some(rhs),
        (Expr::Ternary { cond, .. }, 0) => Some(cond),
        (Expr::Ternary { then_expr, .. }, 1) => Some(then_expr),
        (Expr::Ternary { else_expr, .. }, 2) => Some(else_expr),
        (Expr::Concat(parts), i) => parts.get_mut(i),
        (Expr::Repl { count, .. }, 0) => Some(count),
        (Expr::Repl { value, .. }, 1) => Some(value),
        (Expr::Bit { index, .. }, 0) => Some(index),
        (Expr::Part { msb, .. }, 0) => Some(msb),
        (Expr::Part { lsb, .. }, 1) => Some(lsb),
        _ => None,
    }
}

/// Resolve an [`ExprPath`] from a root expression.
pub fn expr_at<'a>(root: &'a Expr, path: &ExprPath) -> Option<&'a Expr> {
    let mut cur = root;
    for &i in &path.0 {
        cur = expr_child(cur, i)?;
    }
    Some(cur)
}

/// Mutable version of [`expr_at`].
pub fn expr_at_mut<'a>(root: &'a mut Expr, path: &ExprPath) -> Option<&'a mut Expr> {
    let mut cur = root;
    for &i in &path.0 {
        cur = expr_child_mut(cur, i)?;
    }
    Some(cur)
}

/// Visit every node of an expression tree pre-order with its path.
pub fn for_each_subexpr<'a>(root: &'a Expr, mut f: impl FnMut(&ExprPath, &'a Expr)) {
    let mut path = ExprPath::default();
    walk_expr(root, &mut path, &mut f);
}

fn walk_expr<'a>(e: &'a Expr, path: &mut ExprPath, f: &mut impl FnMut(&ExprPath, &'a Expr)) {
    f(path, e);
    for i in 0..expr_child_count(e) {
        path.0.push(i);
        walk_expr(expr_child(e, i).expect("child in range"), path, f);
        path.0.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn sample() -> Module {
        parse_module(
            "module s(input clk, input rst, input [1:0] a, output reg [1:0] q);
               always @(posedge clk) begin
                 if (rst) q <= 2'b00;
                 else case (a)
                   2'b01: q <= a + 2'b01;
                   default: q <= a;
                 endcase
               end
             endmodule",
        )
        .unwrap()
    }

    #[test]
    fn visits_all_statements() {
        let m = sample();
        let mut kinds = Vec::new();
        for_each_stmt(&m, |_, s| {
            kinds.push(std::mem::discriminant(s));
        });
        // block, if, nonblocking(then), case, nonblocking(arm), nonblocking(default)
        assert_eq!(kinds.len(), 6);
    }

    #[test]
    fn paths_resolve_back() {
        let m = sample();
        let mut collected: Vec<(StmtPath, Stmt)> = Vec::new();
        for_each_stmt(&m, |p, s| collected.push((p.clone(), s.clone())));
        for (p, s) in &collected {
            assert_eq!(stmt_at(&m, p), Some(s));
        }
    }

    #[test]
    fn mutable_path_edits_stick() {
        let mut m = sample();
        let mut target: Option<StmtPath> = None;
        for_each_stmt(&m, |p, s| {
            if matches!(s, Stmt::NonBlocking { .. }) && target.is_none() {
                target = Some(p.clone());
            }
        });
        let path = target.unwrap();
        *stmt_at_mut(&mut m, &path).unwrap() = Stmt::Empty;
        assert_eq!(stmt_at(&m, &path), Some(&Stmt::Empty));
    }

    #[test]
    fn enumerates_assignments() {
        let m = sample();
        let mut count = 0;
        for_each_assignment(&m, |_, _, _| count += 1);
        assert_eq!(count, 3);
    }

    #[test]
    fn expr_paths_roundtrip() {
        let m = sample();
        let mut refs = Vec::new();
        for_each_assignment(&m, |_, _, rhs| refs.push(rhs));
        let rhs = refs[1]; // a + 2'b01
        let mut nodes = Vec::new();
        for_each_subexpr(rhs, |p, e| nodes.push((p.clone(), e.clone())));
        assert_eq!(nodes.len(), 3);
        for (p, e) in &nodes {
            assert_eq!(expr_at(rhs, p), Some(e));
        }
    }

    #[test]
    fn stmt_top_exprs_cover_slots() {
        let m = sample();
        let mut seen_if_cond = false;
        for_each_stmt(&m, |_, s| {
            if let Stmt::If { .. } = s {
                let tops = stmt_top_exprs(s);
                assert_eq!(tops.len(), 1);
                seen_if_cond = true;
            }
            if let Stmt::Case { .. } = s {
                let tops = stmt_top_exprs(s);
                // selector + 1 label
                assert_eq!(tops.len(), 2);
            }
        });
        assert!(seen_if_cond);
    }
}
