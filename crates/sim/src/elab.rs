//! Elaboration: parsed AST → flattened [`Design`], unit by unit.
//!
//! Elaboration resolves parameters to constants, unrolls `for` loops,
//! flattens the instance hierarchy with dot-separated name prefixes, and
//! compiles statements into the interpreter form in [`crate::design`].
//!
//! A `for` loop unrolls statically: each iteration compiles the body
//! with the loop variable folded as a constant, under the borrowed
//! module scope and one constant map per loop, updated in place. A loop
//! that would run more than 4,096 iterations fails with
//! [`ElabError::LoopLimit`]. So does a loop whose step gives a value the
//! variable already held: condition, body and step are pure functions
//! of that value, so the loop would cycle until the limit and fail there
//! with the same error. It fails at the first repeat instead, without
//! unrolling the rest. An error in the body or in folding the step
//! comes first, as it would have at the limit. Nested loops multiply,
//! so one process (one `always` item) may unroll at most 16,384 body
//! copies in all, inner loops included, and fails with the same error
//! at the copy past that. The budget is per process, not per design: a
//! delta build reuses units without unrolling them, so a design-wide
//! count would accept there what the scratch build rejects.
//!
//! Every process is produced as a content-addressed *compilation unit*
//! ([`crate::unit`]): signal declaration always runs in full (global
//! [`SignalId`] numbering is dense over the whole design), but per-item
//! process compilation first probes an optional [`UnitSource`] keyed by
//! `(item fingerprint, binding hash, ordinal)` and reuses verified hits
//! verbatim — [`elaborate_delta`] rebuilds only what an edit touched.
//! [`elaborate`] is the same pipeline without a provider (everything
//! rebuilt from scratch), retained as the delta oracle.

use crate::compile::{assemble_design, CompiledProcess};
use crate::design::{CExpr, CLValue, CStmt, Design, Process, SignalDecl, SignalId};
use crate::error::ElabError;
use crate::unit::{unit_hash, DeltaStats, ProcessUnit, UnitKey, UnitSource, UnitTag};
use mage_logic::LogicVec;
use mage_verilog::ast::*;
use mage_verilog::print_expr;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Maximum static iterations of a single `for` loop.
const LOOP_LIMIT: usize = 4096;
/// Maximum loop-body copies one process may unroll, inner loops
/// included: room for a full-length loop and nested ones three times
/// its size, so nested loops cannot multiply past it.
const UNROLL_BUDGET: usize = 4 * LOOP_LIMIT;
/// Maximum instance nesting depth.
const DEPTH_LIMIT: usize = 64;

/// Elaborate `top` (and everything it instantiates) from `file`.
///
/// # Errors
///
/// Returns [`ElabError`] for undeclared signals, non-constant contexts,
/// bad ranges/selects, bad connections, or unroll/recursion limits. These
/// errors form part of the MAGE feedback loop: a candidate that parses
/// but fails elaboration is reported back to the generating agent.
///
/// # Example
///
/// ```
/// let file = mage_verilog::parse(
///     "module top(input a, input b, output y); assign y = a ^ b; endmodule",
/// ).unwrap();
/// let design = mage_sim::elaborate(&file, "top")?;
/// assert_eq!(design.inputs.len(), 2);
/// assert_eq!(design.outputs.len(), 1);
/// # Ok::<(), mage_sim::ElabError>(())
/// ```
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, ElabError> {
    elaborate_delta(file, top, None, unit_hash).map(|(design, _)| design)
}

/// Delta elaboration: like [`elaborate`], but probe `provider` for every
/// process unit and reuse verified hits verbatim (interpreter form and
/// bytecode), rebuilding only missed units; the fanout and trigger
/// indexes and the cascades are rebuilt wholesale. The compiled
/// bytecode is assembled eagerly and pre-seeded, and freshly built units
/// are published back to the provider. Returns the design together with
/// reuse counters.
///
/// The result is *store-exact* against [`elaborate`]: a provider hit is
/// only served after the unit's canonical item text and full binding
/// environment verify equal, so a delta-built design is structurally
/// identical to a from-scratch build of the same source.
///
/// # Errors
///
/// Exactly the [`ElabError`] cases of [`elaborate`].
pub fn elaborate_with(
    file: &SourceFile,
    top: &str,
    provider: &dyn UnitSource,
) -> Result<(Design, DeltaStats), ElabError> {
    elaborate_delta(file, top, Some(provider), unit_hash)
}

/// [`elaborate_with`] with an injectable unit hasher — the hook the
/// collision suite uses to force fingerprint collisions and prove the
/// full-verify discipline rebuilds instead of serving the wrong unit.
/// `hasher` replaces FNV-1a for both item fingerprints and binding
/// hashes. With `provider = None` this is plain [`elaborate`] (every
/// unit rebuilt), still tagging the design so it can serve as a parent.
///
/// # Errors
///
/// Exactly the [`ElabError`] cases of [`elaborate`].
pub fn elaborate_delta(
    file: &SourceFile,
    top: &str,
    provider: Option<&dyn UnitSource>,
    hasher: fn(&str) -> u64,
) -> Result<(Design, DeltaStats), ElabError> {
    let module = file
        .module(top)
        .ok_or_else(|| ElabError::UnknownModule(top.to_string()))?;
    let mut e = Elaborator {
        file,
        signals: Vec::new(),
        by_name: HashMap::new(),
        processes: Vec::new(),
        provider,
        hasher,
        tags: Vec::new(),
        prebuilt: Vec::new(),
        ordinals: HashMap::new(),
        stats: DeltaStats::default(),
        unrolled: Cell::new(0),
    };
    let (scope, _env) = e.instantiate(module, "", &HashMap::new(), &HashMap::new(), 0)?;
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for p in &module.ports {
        let id = scope[&p.name];
        match p.dir {
            Direction::Input => inputs.push(id),
            Direction::Output => outputs.push(id),
        }
    }
    let mut stats = e.stats;
    let prebuilt = e.prebuilt;
    let tags = e.tags;
    let mut design = Design::new(top.to_string(), e.signals, inputs, outputs, e.processes);
    design.set_units(tags);
    if let Some(provider) = provider {
        // Which processes were rebuilt (provider misses)?
        let fresh: Vec<bool> = prebuilt.iter().map(Option::is_none).collect();
        let compiled = Arc::new(assemble_design(&design, prebuilt));
        // Cascades are rebuilt wholesale from the assembled units, so
        // every cascade whose closure holds a rebuilt unit is a plan the
        // parent had that this rebuild dropped.
        stats.plan_invalidations = compiled
            .cascades
            .iter()
            .filter(|c| c.procs.iter().any(|&p| fresh[p as usize]))
            .count();
        for (i, tag) in design.units().iter().enumerate() {
            if fresh[i] {
                provider.publish(
                    tag,
                    ProcessUnit {
                        process: design.processes[i].clone(),
                        compiled: compiled.procs[i].clone(),
                    },
                );
            }
        }
        design.preseed_compiled(compiled);
    }
    Ok((design, stats))
}

type Scope = HashMap<String, SignalId>;
type Consts = HashMap<String, LogicVec>;

struct Elaborator<'a> {
    file: &'a SourceFile,
    signals: Vec<SignalDecl>,
    by_name: HashMap<String, SignalId>,
    processes: Vec<Process>,
    /// Unit provider to probe before compiling each item; `None` forces
    /// a full rebuild (the oracle path).
    provider: Option<&'a dyn UnitSource>,
    /// Hasher for item fingerprints and binding hashes (injectable for
    /// collision tests; [`unit_hash`] in production).
    hasher: fn(&str) -> u64,
    /// Per-process unit tags, aligned with `processes`.
    tags: Vec<UnitTag>,
    /// Per-process reused bytecode, aligned with `processes` (`None` =
    /// compile from scratch during assembly).
    prebuilt: Vec<Option<CompiledProcess>>,
    /// Occurrence counters per `(fingerprint, binding)`.
    ordinals: HashMap<(u64, u64), u32>,
    stats: DeltaStats,
    /// Loop-body copies the current process has unrolled, against
    /// [`UNROLL_BUDGET`].
    unrolled: Cell<usize>,
}

/// Per-module compile context, borrowed: a `for` unroll compiles its
/// body under the same scope and its own constant map.
struct ModuleCtx<'a> {
    module: &'a Module,
    scope: &'a Scope,
    consts: &'a Consts,
}

impl<'a> Elaborator<'a> {
    /// Instantiate `module` under `prefix` with parameter overrides
    /// already folded into `overrides`. Returns the local scope and the
    /// canonical binding-environment string (see [`crate::unit`]).
    fn instantiate(
        &mut self,
        module: &'a Module,
        prefix: &str,
        overrides: &Consts,
        aliases: &HashMap<String, SignalId>,
        depth: usize,
    ) -> Result<(Scope, Arc<str>), ElabError> {
        if depth > DEPTH_LIMIT {
            return Err(ElabError::RecursionLimit(module.name.clone()));
        }
        // 1. Parameter environment: defaults in order (earlier params may
        //    appear in later defaults), overridden where requested.
        let mut consts: Consts = HashMap::new();
        for p in &module.params {
            let v = match overrides.get(&p.name) {
                Some(v) if !p.local => v.clone(),
                _ => fold_const(&p.default, &consts).map_err(|_| {
                    ElabError::NotConstant(format!(
                        "default of parameter `{}` in `{}`",
                        p.name, module.name
                    ))
                })?,
            };
            consts.insert(p.name.clone(), v);
        }

        // 2. Declare signals: ports, then body nets. Ports whose parent
        //    connection is a plain same-width identifier are *aliased* to
        //    the parent signal, so clock/reset edges propagate into
        //    instances without indirection.
        let mut scope: Scope = HashMap::new();
        for port in &module.ports {
            let width = self.range_width(port.range.as_ref(), &consts)?;
            let lsb = self.range_lsb(port.range.as_ref(), &consts)?;
            if let Some(&parent) = aliases.get(&port.name) {
                let decl = &mut self.signals[parent.index()];
                if decl.width == width && decl.lsb_index == lsb {
                    if port.kind == NetKind::Reg {
                        decl.kind = NetKind::Reg;
                    }
                    scope.insert(port.name.clone(), parent);
                    continue;
                }
            }
            self.declare(prefix, &port.name, width, lsb, port.kind, &mut scope)?;
        }
        for item in &module.items {
            if let Item::Net { kind, range, names } = item {
                let width = self.range_width(range.as_ref(), &consts)?;
                let lsb = self.range_lsb(range.as_ref(), &consts)?;
                for n in names {
                    if let Some(&existing) = scope.get(n) {
                        // Non-ANSI style `output y; reg y;` re-declaration:
                        // accept if widths agree, upgrading the kind.
                        let decl = &mut self.signals[existing.index()];
                        if decl.width == width {
                            if *kind == NetKind::Reg {
                                decl.kind = NetKind::Reg;
                            }
                            continue;
                        }
                        return Err(ElabError::DuplicateSignal(format!("{prefix}{n}")));
                    }
                    self.declare(prefix, n, width, lsb, *kind, &mut scope)?;
                }
            }
        }

        let ctx = ModuleCtx {
            module,
            scope: &scope,
            consts: &consts,
        };

        // Canonical binding environment: everything item compilation can
        // consult — the instantiation prefix, the module name, every
        // in-scope signal with its *global* id and declaration, and
        // every folded parameter. Two items with equal canonical text
        // and equal environments compile to identical processes, which
        // is exactly the reuse contract of `crate::unit`. (Captured here,
        // before phase 3: child instances may still upgrade a signal's
        // wire/reg kind, but that happens at the same pipeline point in
        // every elaboration and process compilation never reads kinds.)
        let env: Arc<str> = {
            let mut sigs: Vec<String> = ctx
                .scope
                .iter()
                .map(|(n, id)| {
                    let d = &self.signals[id.index()];
                    format!("{n}={}w{}l{}k{:?}", id.0, d.width, d.lsb_index, d.kind)
                })
                .collect();
            sigs.sort_unstable();
            let mut folded: Vec<String> = ctx
                .consts
                .iter()
                .map(|(n, v)| format!("{n}={v:?}"))
                .collect();
            folded.sort_unstable();
            format!(
                "m={};p={prefix};s=[{}];c=[{}]",
                ctx.module.name,
                sigs.join(" "),
                folded.join(" ")
            )
            .into()
        };
        let binding = (self.hasher)(&env);

        // 3. Compile items, one content-addressed unit per process.
        for item in &module.items {
            match item {
                Item::Net { .. } | Item::Param(_) => {}
                Item::Assign { lhs, rhs } => {
                    let tag = self.tag_for(item, &env, binding);
                    if self.try_reuse(&tag) {
                        continue;
                    }
                    let lv = self.compile_lvalue(&ctx, lhs)?;
                    let rhs = self.compile_expr(&ctx, rhs)?;
                    let body = CStmt::Assign {
                        lv,
                        rhs,
                        nonblocking: false,
                    };
                    let mut reads = Vec::new();
                    collect_reads(&body, &mut reads);
                    let mut writes = Vec::new();
                    collect_writes(&body, &mut writes);
                    self.push_fresh(
                        tag,
                        Process::Comb {
                            reads,
                            writes,
                            body,
                        },
                    );
                }
                Item::Always { sens, body } => {
                    let tag = self.tag_for(item, &env, binding);
                    if self.try_reuse(&tag) {
                        continue;
                    }
                    self.unrolled.set(0);
                    let cbody = self.compile_stmt(&ctx, body)?;
                    let process = match sens {
                        Sensitivity::Comb => {
                            let mut reads = Vec::new();
                            collect_reads(&cbody, &mut reads);
                            let mut writes = Vec::new();
                            collect_writes(&cbody, &mut writes);
                            Process::Comb {
                                reads,
                                writes,
                                body: cbody,
                            }
                        }
                        Sensitivity::Edges(events) => {
                            // Dedup repeated events (`@(posedge clk or
                            // posedge clk)`) here so the per-edge trigger
                            // lists built by `Design::new` — and every
                            // scheduler scanning these edges — see each
                            // sensitivity once.
                            let mut edges: Vec<(Edge, SignalId)> = Vec::new();
                            for ev in events {
                                let id = self.resolve_signal(&ctx, &ev.signal)?;
                                if !edges.contains(&(ev.edge, id)) {
                                    edges.push((ev.edge, id));
                                }
                            }
                            Process::Seq { edges, body: cbody }
                        }
                    };
                    self.push_fresh(tag, process);
                }
                Item::Instance {
                    module: def_name,
                    name,
                    params,
                    conns,
                } => {
                    let text: Arc<str> = mage_verilog::print_item(item).into();
                    let fp = (self.hasher)(&text);
                    self.compile_instance(
                        &ctx, prefix, def_name, name, params, conns, depth, &text, fp, &env,
                    )?;
                }
            }
        }
        Ok((scope, env))
    }

    /// Content-address one item under the current binding environment.
    fn tag_for(&mut self, item: &Item, env: &Arc<str>, binding: u64) -> UnitTag {
        let text: Arc<str> = mage_verilog::print_item(item).into();
        let fingerprint = (self.hasher)(&text);
        let key = self.next_key(fingerprint, binding);
        UnitTag {
            key,
            text,
            env: env.clone(),
        }
    }

    fn next_key(&mut self, fingerprint: u64, binding: u64) -> UnitKey {
        let c = self.ordinals.entry((fingerprint, binding)).or_insert(0);
        let ordinal = *c;
        *c += 1;
        UnitKey {
            fingerprint,
            binding,
            ordinal,
        }
    }

    /// Probe the provider for `tag`; on a verified hit, install the unit
    /// verbatim and report `true`.
    fn try_reuse(&mut self, tag: &UnitTag) -> bool {
        let Some(provider) = self.provider else {
            return false;
        };
        let Some(unit) = provider.lookup(tag) else {
            return false;
        };
        self.processes.push(unit.process);
        self.tags.push(tag.clone());
        self.prebuilt.push(Some(unit.compiled));
        self.stats.reused += 1;
        true
    }

    /// Record a freshly compiled process unit.
    fn push_fresh(&mut self, tag: UnitTag, process: Process) {
        self.processes.push(process);
        self.tags.push(tag);
        self.prebuilt.push(None);
        self.stats.rebuilt += 1;
    }

    fn declare(
        &mut self,
        prefix: &str,
        name: &str,
        width: usize,
        lsb_index: i64,
        kind: NetKind,
        scope: &mut Scope,
    ) -> Result<SignalId, ElabError> {
        let full = format!("{prefix}{name}");
        if scope.contains_key(name) {
            return Err(ElabError::DuplicateSignal(full));
        }
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalDecl {
            name: full.clone(),
            width,
            lsb_index,
            kind,
        });
        self.by_name.insert(full, id);
        scope.insert(name.to_string(), id);
        Ok(id)
    }

    fn range_width(&self, range: Option<&Range>, consts: &Consts) -> Result<usize, ElabError> {
        let Some(r) = range else { return Ok(1) };
        let msb = self.const_i64(&r.msb, consts)?;
        let lsb = self.const_i64(&r.lsb, consts)?;
        if msb < lsb {
            return Err(ElabError::BadRange(format!("[{msb}:{lsb}]")));
        }
        let w = (msb - lsb + 1) as usize;
        if w == 0 || w > 4096 {
            return Err(ElabError::BadRange(format!("[{msb}:{lsb}]")));
        }
        Ok(w)
    }

    fn range_lsb(&self, range: Option<&Range>, consts: &Consts) -> Result<i64, ElabError> {
        match range {
            Some(r) => self.const_i64(&r.lsb, consts),
            None => Ok(0),
        }
    }

    fn const_i64(&self, e: &Expr, consts: &Consts) -> Result<i64, ElabError> {
        let v = fold_const(e, consts)
            .map_err(|_| ElabError::NotConstant(mage_verilog::print_expr(e)))?;
        v.to_u64()
            .map(|u| u as i64)
            .ok_or_else(|| ElabError::NotConstant(mage_verilog::print_expr(e)))
    }

    fn resolve_signal(&self, ctx: &ModuleCtx<'_>, name: &str) -> Result<SignalId, ElabError> {
        ctx.scope
            .get(name)
            .copied()
            .ok_or_else(|| ElabError::UndeclaredSignal {
                module: ctx.module.name.clone(),
                name: name.to_string(),
            })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn compile_expr(&self, ctx: &ModuleCtx<'_>, e: &Expr) -> Result<CExpr, ElabError> {
        Ok(match e {
            Expr::Literal { value, .. } => CExpr::Const(value.clone()),
            Expr::Ident(n) => match ctx.consts.get(n) {
                Some(v) => CExpr::Const(v.clone()),
                None => CExpr::Sig(self.resolve_signal(ctx, n)?),
            },
            Expr::Unary { op, operand } => {
                CExpr::Unary(*op, Box::new(self.compile_expr(ctx, operand)?))
            }
            Expr::Binary { op, lhs, rhs } => CExpr::Binary(
                *op,
                Box::new(self.compile_expr(ctx, lhs)?),
                Box::new(self.compile_expr(ctx, rhs)?),
            ),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => CExpr::Ternary(
                Box::new(self.compile_expr(ctx, cond)?),
                Box::new(self.compile_expr(ctx, then_expr)?),
                Box::new(self.compile_expr(ctx, else_expr)?),
            ),
            Expr::Concat(parts) => CExpr::Concat(
                parts
                    .iter()
                    .map(|p| self.compile_expr(ctx, p))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Repl { count, value } => {
                let n = self.const_i64(count, ctx.consts)?;
                if n <= 0 || n > 4096 {
                    return Err(ElabError::BadRange(format!("replication count {n}")));
                }
                CExpr::Repl(n as usize, Box::new(self.compile_expr(ctx, value)?))
            }
            Expr::Bit { base, index } => {
                // Selecting a bit of a parameter constant.
                if let Some(v) = ctx.consts.get(base) {
                    let idx = self.const_i64(index, ctx.consts)?;
                    let bit = if idx >= 0 {
                        v.get(idx as usize).unwrap_or(mage_logic::LogicBit::X)
                    } else {
                        mage_logic::LogicBit::X
                    };
                    return Ok(CExpr::Const(LogicVec::from_bit(bit)));
                }
                let id = self.resolve_signal(ctx, base)?;
                CExpr::BitSel(id, Box::new(self.compile_expr(ctx, index)?))
            }
            Expr::Part { base, msb, lsb } => {
                let id = self.resolve_signal(ctx, base)?;
                let decl = &self.signals[id.index()];
                let msb_v = self.const_i64(msb, ctx.consts)?;
                let lsb_v = self.const_i64(lsb, ctx.consts)?;
                if msb_v < lsb_v {
                    return Err(ElabError::BadRange(format!("{base}[{msb_v}:{lsb_v}]")));
                }
                let phys = lsb_v - decl.lsb_index;
                let width = (msb_v - lsb_v + 1) as usize;
                if phys < 0 || (phys as usize) + width > decl.width {
                    return Err(ElabError::BadSelect(format!("{base}[{msb_v}:{lsb_v}]")));
                }
                CExpr::PartSel(id, phys, width)
            }
        })
    }

    fn compile_lvalue(&self, ctx: &ModuleCtx<'_>, l: &LValue) -> Result<CLValue, ElabError> {
        Ok(match l {
            LValue::Ident(n) => CLValue::Whole(self.resolve_signal(ctx, n)?),
            LValue::Bit(n, idx) => {
                let id = self.resolve_signal(ctx, n)?;
                CLValue::BitSel(id, self.compile_expr(ctx, idx)?)
            }
            LValue::Part(n, msb, lsb) => {
                let id = self.resolve_signal(ctx, n)?;
                let decl = &self.signals[id.index()];
                let msb_v = self.const_i64(msb, ctx.consts)?;
                let lsb_v = self.const_i64(lsb, ctx.consts)?;
                if msb_v < lsb_v {
                    return Err(ElabError::BadRange(format!("{n}[{msb_v}:{lsb_v}]")));
                }
                let phys = lsb_v - decl.lsb_index;
                let width = (msb_v - lsb_v + 1) as usize;
                if phys < 0 || (phys as usize) + width > decl.width {
                    return Err(ElabError::BadSelect(format!("{n}[{msb_v}:{lsb_v}]")));
                }
                CLValue::PartSel(id, phys, width)
            }
            LValue::Concat(parts) => CLValue::Concat(
                parts
                    .iter()
                    .map(|p| self.compile_lvalue(ctx, p))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn compile_stmt(&self, ctx: &ModuleCtx<'_>, s: &Stmt) -> Result<CStmt, ElabError> {
        Ok(match s {
            Stmt::Block(stmts) => CStmt::Block(
                stmts
                    .iter()
                    .map(|st| self.compile_stmt(ctx, st))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => CStmt::If(
                self.compile_expr(ctx, cond)?,
                Box::new(self.compile_stmt(ctx, then_branch)?),
                match else_branch {
                    Some(e) => Some(Box::new(self.compile_stmt(ctx, e)?)),
                    None => None,
                },
            ),
            Stmt::Case {
                kind,
                expr,
                arms,
                default,
            } => {
                let sel = self.compile_expr(ctx, expr)?;
                let mut carms = Vec::with_capacity(arms.len());
                for arm in arms {
                    let labels = arm
                        .labels
                        .iter()
                        .map(|l| self.compile_expr(ctx, l))
                        .collect::<Result<_, _>>()?;
                    carms.push((labels, self.compile_stmt(ctx, &arm.body)?));
                }
                CStmt::Case {
                    kind: *kind,
                    sel,
                    arms: carms,
                    default: match default {
                        Some(d) => Some(Box::new(self.compile_stmt(ctx, d)?)),
                        None => None,
                    },
                }
            }
            Stmt::Blocking { lhs, rhs } => CStmt::Assign {
                lv: self.compile_lvalue(ctx, lhs)?,
                rhs: self.compile_expr(ctx, rhs)?,
                nonblocking: false,
            },
            Stmt::NonBlocking { lhs, rhs } => CStmt::Assign {
                lv: self.compile_lvalue(ctx, lhs)?,
                rhs: self.compile_expr(ctx, rhs)?,
                nonblocking: true,
            },
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => self.unroll(ctx, var, init, cond, step, body)?,
            Stmt::Empty => CStmt::Nop,
        })
    }

    /// Statically unroll `for (var = init; cond; var = step) body`, with
    /// `var` folded as a constant in each copy of `body`.
    ///
    /// The scope is borrowed and the constant map cloned once, then
    /// updated in place per iteration. Condition, body and step are pure
    /// functions of `var`'s value, so the first time the step gives a
    /// value `var` already held, the loop is proven to cycle until it
    /// reaches [`LOOP_LIMIT`]; it fails there with the error that limit
    /// gives, without unrolling the rest.
    fn unroll(
        &self,
        ctx: &ModuleCtx<'_>,
        var: &str,
        init: &Expr,
        cond: &Expr,
        step: &Expr,
        body: &Stmt,
    ) -> Result<CStmt, ElabError> {
        let not_constant =
            |what: &str, e: &Expr| ElabError::NotConstant(format!("{what} {}", print_expr(e)));
        let mut consts = ctx.consts.clone();
        let v = fold_const(init, &consts).map_err(|_| not_constant("for-init", init))?;
        let mut held = HashSet::new();
        held.insert(v.clone());
        consts.insert(var.to_string(), v);
        let mut unrolled = Vec::new();
        loop {
            let c = fold_const(cond, &consts).map_err(|_| not_constant("for-cond", cond))?;
            if !c.truth().is_true() {
                break;
            }
            let copies = self.unrolled.get() + 1;
            if copies > UNROLL_BUDGET {
                return Err(ElabError::LoopLimit(format!("for ({var} = …)")));
            }
            self.unrolled.set(copies);
            let iter_ctx = ModuleCtx {
                module: ctx.module,
                scope: ctx.scope,
                consts: &consts,
            };
            unrolled.push(self.compile_stmt(&iter_ctx, body)?);
            let v = fold_const(step, &consts).map_err(|_| not_constant("for-step", step))?;
            if unrolled.len() > LOOP_LIMIT || !held.insert(v.clone()) {
                return Err(ElabError::LoopLimit(format!("for ({var} = …)")));
            }
            *consts.get_mut(var).expect("loop variable bound") = v;
        }
        Ok(CStmt::Block(unrolled))
    }

    // ------------------------------------------------------------------
    // Instances
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn compile_instance(
        &mut self,
        ctx: &ModuleCtx<'_>,
        prefix: &str,
        def_name: &str,
        inst_name: &str,
        params: &[(String, Expr)],
        conns: &Connections,
        depth: usize,
        item_text: &Arc<str>,
        item_fp: u64,
        env: &Arc<str>,
    ) -> Result<(), ElabError> {
        let def = self
            .file
            .module(def_name)
            .ok_or_else(|| ElabError::UnknownModule(def_name.to_string()))?;
        let mut overrides: Consts = HashMap::new();
        for (pname, pexpr) in params {
            if !def.params.iter().any(|p| p.name == *pname && !p.local) {
                return Err(ElabError::BadConnection(format!(
                    "module `{def_name}` has no parameter `{pname}`"
                )));
            }
            let v = fold_const(pexpr, ctx.consts)
                .map_err(|_| ElabError::NotConstant(format!("override of parameter `{pname}`")))?;
            overrides.insert(pname.clone(), v);
        }
        // Propose aliases for ports connected to plain identifiers.
        let mut aliases: HashMap<String, SignalId> = HashMap::new();
        let conn_pairs: Vec<(&Port, Option<&Expr>)> = match conns {
            Connections::Named(named) => {
                let mut v = Vec::new();
                for (pname, expr) in named {
                    let port = def.port(pname).ok_or_else(|| {
                        ElabError::BadConnection(format!(
                            "module `{def_name}` has no port `{pname}`"
                        ))
                    })?;
                    v.push((port, expr.as_ref()));
                }
                v
            }
            Connections::Ordered(exprs) => {
                if exprs.len() > def.ports.len() {
                    return Err(ElabError::BadConnection(format!(
                        "too many connections for `{def_name}`"
                    )));
                }
                def.ports.iter().zip(exprs.iter().map(Some)).collect()
            }
        };
        for (port, conn) in &conn_pairs {
            if let Some(Expr::Ident(n)) = conn {
                if !ctx.consts.contains_key(n) {
                    if let Some(&parent) = ctx.scope.get(n) {
                        aliases.insert(port.name.clone(), parent);
                    }
                }
            }
        }
        let child_prefix = format!("{prefix}{inst_name}.");
        let (child_scope, child_env) =
            self.instantiate(def, &child_prefix, &overrides, &aliases, depth + 1)?;

        // Bind connections. Binding processes are keyed by the instance
        // item's fingerprint under the *joint* environment: a port
        // binding reads parent signals and writes child ports (or vice
        // versa), so both sides must match for reuse to be sound.
        let bind_env: Arc<str> = format!("{env}\u{1}{child_env}").into();
        let bind_hash = (self.hasher)(&bind_env);
        for (port, conn) in conn_pairs {
            let Some(conn) = conn else { continue };
            let port_id = child_scope[&port.name];
            // Aliased ports are wired by construction.
            if let Some(&proposed) = aliases.get(&port.name) {
                if proposed == port_id {
                    continue;
                }
            }
            let key = self.next_key(item_fp, bind_hash);
            let tag = UnitTag {
                key,
                text: item_text.clone(),
                env: bind_env.clone(),
            };
            if self.try_reuse(&tag) {
                continue;
            }
            match port.dir {
                Direction::Input => {
                    let rhs = self.compile_expr(ctx, conn)?;
                    let body = CStmt::Assign {
                        lv: CLValue::Whole(port_id),
                        rhs,
                        nonblocking: false,
                    };
                    let mut reads = Vec::new();
                    collect_reads(&body, &mut reads);
                    let mut writes = Vec::new();
                    collect_writes(&body, &mut writes);
                    self.push_fresh(
                        tag,
                        Process::Comb {
                            reads,
                            writes,
                            body,
                        },
                    );
                }
                Direction::Output => {
                    let lval = expr_as_lvalue(conn).ok_or_else(|| {
                        ElabError::BadConnection(format!(
                            "output port `{}` connected to a non-lvalue",
                            port.name
                        ))
                    })?;
                    let lv = self.compile_lvalue(ctx, &lval)?;
                    let body = CStmt::Assign {
                        lv,
                        rhs: CExpr::Sig(port_id),
                        nonblocking: false,
                    };
                    let mut reads = vec![port_id];
                    collect_reads(&body, &mut reads);
                    let mut writes = Vec::new();
                    collect_writes(&body, &mut writes);
                    self.push_fresh(
                        tag,
                        Process::Comb {
                            reads,
                            writes,
                            body,
                        },
                    );
                }
            }
        }
        Ok(())
    }
}

/// Convert a connection expression to an lvalue when possible.
fn expr_as_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Ident(n.clone())),
        Expr::Bit { base, index } => Some(LValue::Bit(base.clone(), (**index).clone())),
        Expr::Part { base, msb, lsb } => {
            Some(LValue::Part(base.clone(), (**msb).clone(), (**lsb).clone()))
        }
        Expr::Concat(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                out.push(expr_as_lvalue(p)?);
            }
            Some(LValue::Concat(out))
        }
        _ => None,
    }
}

/// Collect the signals a compiled statement reads (for combinational
/// sensitivity). Written signals are *not* excluded: a comb process that
/// reads what it writes is a combinational loop and will be caught at
/// simulation time.
pub(crate) fn collect_reads(s: &CStmt, out: &mut Vec<SignalId>) {
    fn expr(e: &CExpr, out: &mut Vec<SignalId>) {
        match e {
            CExpr::Const(_) => {}
            CExpr::Sig(id) => out.push(*id),
            CExpr::Unary(_, a) => expr(a, out),
            CExpr::Binary(_, a, b) => {
                expr(a, out);
                expr(b, out);
            }
            CExpr::Ternary(c, t, f) => {
                expr(c, out);
                expr(t, out);
                expr(f, out);
            }
            CExpr::Concat(parts) => parts.iter().for_each(|p| expr(p, out)),
            CExpr::Repl(_, v) => expr(v, out),
            CExpr::BitSel(id, idx) => {
                out.push(*id);
                expr(idx, out);
            }
            CExpr::PartSel(id, _, _) => out.push(*id),
        }
    }
    fn lval_indices(l: &CLValue, out: &mut Vec<SignalId>) {
        match l {
            CLValue::Whole(_) | CLValue::PartSel(..) => {}
            CLValue::BitSel(_, idx) => expr(idx, out),
            CLValue::Concat(parts) => parts.iter().for_each(|p| lval_indices(p, out)),
        }
    }
    match s {
        CStmt::Block(stmts) => stmts.iter().for_each(|c| collect_reads(c, out)),
        CStmt::If(c, t, e) => {
            expr(c, out);
            collect_reads(t, out);
            if let Some(e) = e {
                collect_reads(e, out);
            }
        }
        CStmt::Case {
            sel, arms, default, ..
        } => {
            expr(sel, out);
            for (labels, body) in arms {
                labels.iter().for_each(|l| expr(l, out));
                collect_reads(body, out);
            }
            if let Some(d) = default {
                collect_reads(d, out);
            }
        }
        CStmt::Assign { lv, rhs, .. } => {
            expr(rhs, out);
            lval_indices(lv, out);
        }
        CStmt::Nop => {}
    }
}

/// Collect the signals a compiled statement can write.
pub(crate) fn collect_writes(s: &CStmt, out: &mut Vec<SignalId>) {
    fn lval(l: &CLValue, out: &mut Vec<SignalId>) {
        match l {
            CLValue::Whole(id) | CLValue::BitSel(id, _) | CLValue::PartSel(id, _, _) => {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
            CLValue::Concat(parts) => parts.iter().for_each(|p| lval(p, out)),
        }
    }
    match s {
        CStmt::Block(stmts) => stmts.iter().for_each(|c| collect_writes(c, out)),
        CStmt::If(_, t, e) => {
            collect_writes(t, out);
            if let Some(e) = e {
                collect_writes(e, out);
            }
        }
        CStmt::Case { arms, default, .. } => {
            for (_, body) in arms {
                collect_writes(body, out);
            }
            if let Some(d) = default {
                collect_writes(d, out);
            }
        }
        CStmt::Assign { lv, .. } => lval(lv, out),
        CStmt::Nop => {}
    }
}

/// Fold a constant expression over a parameter environment.
///
/// Every identifier must resolve in `consts`; `None` otherwise. Exposed
/// for tools (like the mutation engine) that need widths of declared
/// signals without a full elaboration.
pub fn fold_const_expr(e: &Expr, consts: &HashMap<String, LogicVec>) -> Option<LogicVec> {
    fold_const(e, consts).ok()
}

/// Internal fallible fold used by elaboration error paths.
pub(crate) fn fold_const(e: &Expr, consts: &Consts) -> Result<LogicVec, ()> {
    use mage_logic::{LogicBit, Truth};
    Ok(match e {
        Expr::Literal { value, .. } => value.clone(),
        Expr::Ident(n) => consts.get(n).cloned().ok_or(())?,
        Expr::Unary { op, operand } => {
            let v = fold_const(operand, consts)?;
            match op {
                UnaryOp::Not => v.bit_not(),
                UnaryOp::Neg => v.neg(),
                UnaryOp::Plus => v,
                UnaryOp::LogicNot => LogicVec::from_bit(v.truth().not().to_bit()),
                UnaryOp::ReduceAnd => LogicVec::from_bit(v.reduce_and()),
                UnaryOp::ReduceOr => LogicVec::from_bit(v.reduce_or()),
                UnaryOp::ReduceXor => LogicVec::from_bit(v.reduce_xor()),
                UnaryOp::ReduceNand => LogicVec::from_bit(v.reduce_nand()),
                UnaryOp::ReduceNor => LogicVec::from_bit(v.reduce_nor()),
                UnaryOp::ReduceXnor => LogicVec::from_bit(v.reduce_xnor()),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = fold_const(lhs, consts)?;
            let b = fold_const(rhs, consts)?;
            match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Div => a.div(&b),
                BinaryOp::Mod => a.rem(&b),
                BinaryOp::And => a.bit_and(&b),
                BinaryOp::Or => a.bit_or(&b),
                BinaryOp::Xor => a.bit_xor(&b),
                BinaryOp::Xnor => a.bit_xnor(&b),
                BinaryOp::LogicAnd => LogicVec::from_bit(a.truth().and(b.truth()).to_bit()),
                BinaryOp::LogicOr => LogicVec::from_bit(a.truth().or(b.truth()).to_bit()),
                BinaryOp::Eq => LogicVec::from_bit(a.logic_eq(&b)),
                BinaryOp::Neq => LogicVec::from_bit(a.logic_neq(&b)),
                BinaryOp::CaseEq => LogicVec::from_bit(LogicBit::from(a.case_eq(&b))),
                BinaryOp::CaseNeq => LogicVec::from_bit(LogicBit::from(!a.case_eq(&b))),
                BinaryOp::Lt => LogicVec::from_bit(a.lt(&b)),
                BinaryOp::Le => LogicVec::from_bit(a.le(&b)),
                BinaryOp::Gt => LogicVec::from_bit(a.gt(&b)),
                BinaryOp::Ge => LogicVec::from_bit(a.ge(&b)),
                BinaryOp::Shl => a.shl(&b),
                BinaryOp::Shr => a.shr(&b),
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let c = fold_const(cond, consts)?.truth();
            match c {
                Truth::True => fold_const(then_expr, consts)?,
                Truth::False => fold_const(else_expr, consts)?,
                Truth::Unknown => LogicVec::mux(
                    Truth::Unknown,
                    &fold_const(then_expr, consts)?,
                    &fold_const(else_expr, consts)?,
                ),
            }
        }
        Expr::Concat(parts) => {
            let vals: Vec<LogicVec> = parts
                .iter()
                .map(|p| fold_const(p, consts))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&LogicVec> = vals.iter().collect();
            LogicVec::concat_msb_first(&refs)
        }
        Expr::Repl { count, value } => {
            let n = fold_const(count, consts)?.to_u64().ok_or(())? as usize;
            if n == 0 || n > 4096 {
                return Err(());
            }
            fold_const(value, consts)?.replicate(n)
        }
        Expr::Bit { base, index } => {
            let v = consts.get(base).ok_or(())?;
            let i = fold_const(index, consts)?.to_u64().ok_or(())? as usize;
            LogicVec::from_bit(v.get(i).unwrap_or(LogicBit::X))
        }
        Expr::Part { base, msb, lsb } => {
            let v = consts.get(base).ok_or(())?;
            let m = fold_const(msb, consts)?.to_u64().ok_or(())? as i64;
            let l = fold_const(lsb, consts)?.to_u64().ok_or(())? as i64;
            if m < l {
                return Err(());
            }
            v.slice(l as isize, (m - l + 1) as usize)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elaborate one module whose comb block runs `for (i = 0; cond; i =
    /// step) body` over an 8-bit input `a` and a 16-bit output `y`.
    fn elaborate_loop(cond: &str, step: &str, body: &str) -> Result<Design, ElabError> {
        let src = format!(
            "module top(input [7:0] a, output reg [15:0] y);
               integer i;
               always @(*) begin
                 y = 16'd0;
                 for (i = 0; {cond}; i = {step}) {body}
               end
             endmodule"
        );
        elaborate(&mage_verilog::parse(&src).expect("parses"), "top")
    }

    /// The unrolled copies of the loop body in `design`'s comb process.
    fn unrolled_len(design: &Design) -> usize {
        let Process::Comb {
            body: CStmt::Block(stmts),
            ..
        } = &design.processes[0]
        else {
            panic!("one comb block")
        };
        let CStmt::Block(copies) = &stmts[1] else {
            panic!("the unrolled loop")
        };
        copies.len()
    }

    const LIMIT_TEXT: &str = "for-loop unroll limit exceeded: for (i = …)";

    #[test]
    fn a_step_that_repeats_a_value_hits_the_unroll_limit() {
        // `~0 + 1` is 0 again, `i = i` never moves, and `1 - i` cycles
        // through 0 and 1: each loop would run forever.
        for step in ["~i + 1", "i", "1 - i"] {
            let err = elaborate_loop("i < 8", step, "y = y + a;").unwrap_err();
            assert_eq!(
                err,
                ElabError::LoopLimit("for (i = …)".to_string()),
                "{step}"
            );
            assert_eq!(err.to_string(), LIMIT_TEXT, "{step}");
        }
    }

    #[test]
    fn the_unroll_limit_counts_iterations() {
        let design = elaborate_loop("i < 4096", "i + 1", "y = y + a;").expect("at the limit");
        assert_eq!(unrolled_len(&design), LOOP_LIMIT);
        let err = elaborate_loop("i < 4097", "i + 1", "y = y + a;").unwrap_err();
        assert_eq!(err.to_string(), LIMIT_TEXT);
    }

    #[test]
    fn nested_loops_share_one_unroll_budget_per_process() {
        // 4,096 outer copies plus 3 × 4,096 inner ones fill the budget.
        let inner = |n: u32| format!("for (j = 0; j < {n}; j = j + 1) y = y + a;");
        elaborate_loop("i < 4096", "i + 1", &inner(3)).expect("16,384 copies");
        let err = elaborate_loop("i < 4096", "i + 1", &inner(4)).unwrap_err();
        assert_eq!(err, ElabError::LoopLimit("for (j = …)".to_string()));
        // The budget is per process: two processes unroll 24,576 copies.
        let block = |y: &str| {
            format!("always @(*) for (i = 0; i < 4096; i = i + 1) for (j = 0; j < 2; j = j + 1) {y} = {y} + a;")
        };
        let src = format!(
            "module top(input [7:0] a, output reg [15:0] y, output reg [15:0] z);
               integer i, j; {} {} endmodule",
            block("y"),
            block("z")
        );
        elaborate(&mage_verilog::parse(&src).expect("parses"), "top").expect("12,288 each");
    }

    #[test]
    fn a_body_error_wins_over_the_unroll_limit() {
        // `1 - i` cycles through 0 and 1, but `y[17:16]` at `i = 1` is
        // out of range before the step repeats a value.
        let err = elaborate_loop("i < 8", "1 - i", "y[i * 16 + 1:i * 16] = a[1:0];").unwrap_err();
        assert_eq!(err, ElabError::BadSelect("y[17:16]".to_string()));
        // The same body under a counting loop fails at the same copy.
        let err = elaborate_loop("i < 8", "i + 1", "y[i * 16 + 1:i * 16] = a[1:0];").unwrap_err();
        assert_eq!(err, ElabError::BadSelect("y[17:16]".to_string()));
    }
}
