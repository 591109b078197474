//! Recursive-descent parser for the MAGE Verilog subset.
//!
//! The parser walks the lexer's span tokens by index: peeking and
//! bumping copy a `Copy` token, and only the identifiers and numbers the
//! AST keeps are sliced out of the source. Every recursion, and every
//! node a binary operator chain stacks onto its left operand, counts
//! against one depth budget, [`MAX_DEPTH`], so no input can nest the
//! parser, or any later walk of its AST, deeper than that.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Keyword, Pos, Punct, Token, TokenKind};
use mage_logic::parse_literal;

/// The deepest nesting [`parse`] accepts, counted as one level per
/// statement, per expression (so per parenthesis, concatenation, select
/// index and ternary branch), per unary operator, per `{…}` lvalue and
/// per binary operator stacked onto a left operand. Deeper input is a
/// [`ParseError`] at the token where the count went over.
///
/// It is sized for a 2 MiB thread, the stack of serve's sim-wave thread
/// and of the rayon workers: parsing, elaborating, simulating and
/// dropping a design nested this deep fits there even unoptimized, where
/// frames are largest. Unoptimized, the first shapes to overflow such a
/// stack, nested `begin` and nested `for`, do so at about 230 levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete source file (one or more modules).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered. The error message and
/// position are what the MAGE syntax-repair loop feeds back to the RTL
/// agent. Input nested deeper than [`MAX_DEPTH`] is an error too.
///
/// # Example
///
/// ```
/// let src = "module top(input a, input b, output y); assign y = a & b; endmodule";
/// let file = mage_verilog::parse(src)?;
/// assert_eq!(file.modules[0].name, "top");
/// # Ok::<(), mage_verilog::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<SourceFile, ParseError> {
    parse_measured(source).map(|(file, _)| file)
}

/// How deep `source` nests, counted as [`MAX_DEPTH`] counts: the peak a
/// successful [`parse`] reached.
///
/// # Errors
///
/// Fails exactly when [`parse`] fails.
pub fn nesting_depth(source: &str) -> Result<usize, ParseError> {
    parse_measured(source).map(|(_, peak)| peak)
}

fn parse_measured(source: &str) -> Result<(SourceFile, usize), ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        src: source,
        tokens,
        at: 0,
        depth: 0,
        peak: 0,
    };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    if modules.is_empty() {
        return Err(ParseError::new(Pos { line: 1, col: 1 }, "no module found"));
    }
    Ok((SourceFile { modules }, p.peak))
}

/// Parse a single module from source that contains exactly one.
///
/// # Errors
///
/// Fails like [`parse`], or when the file holds zero or multiple modules.
pub fn parse_module(source: &str) -> Result<Module, ParseError> {
    let file = parse(source)?;
    if file.modules.len() != 1 {
        return Err(ParseError::new(
            Pos { line: 1, col: 1 },
            format!("expected exactly one module, found {}", file.modules.len()),
        ));
    }
    Ok(file.modules.into_iter().next().expect("checked length"))
}

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token>,
    at: usize,
    /// Current nesting, counted against [`MAX_DEPTH`].
    depth: usize,
    /// Deepest `depth` reached.
    peak: usize,
}

impl<'s> Parser<'s> {
    // ------------------------------------------------------------------
    // Token helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> TokenKind {
        self.tokens[self.at].kind
    }

    fn is_punct(&self, p: Punct) -> bool {
        self.peek() == TokenKind::Punct(p)
    }

    /// Where the current token starts. Computed from its offset, so call
    /// it only to build an error.
    fn pos(&self) -> Pos {
        self.tokens[self.at].pos(self.src)
    }

    fn at_eof(&self) -> bool {
        self.peek() == TokenKind::Eof
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.at];
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{}`", k.as_str())))
        }
    }

    /// The current identifier's text, borrowed from the source.
    fn ident(&mut self) -> Result<&'s str, ParseError> {
        if self.peek() == TokenKind::Ident {
            Ok(self.bump().text(self.src))
        } else {
            Err(self.unexpected("identifier"))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        self.ident().map(str::to_string)
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        let found = self.tokens[self.at].describe(self.src);
        ParseError::new(self.pos(), format!("expected {wanted}, found {found}"))
    }

    /// Enter one level of nesting: an error at the current token if that
    /// goes over [`MAX_DEPTH`]. The caller steps `depth` back down once
    /// the level is parsed; an error ends the parse, so it need not.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::new(
                self.pos(),
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Module structure
    // ------------------------------------------------------------------

    fn module(&mut self) -> Result<Module, ParseError> {
        self.expect_keyword(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            self.param_list(&mut params)?;
            self.expect_punct(Punct::RParen)?;
        }
        let mut ports: Vec<Port> = Vec::new();
        let mut port_order: Vec<String> = Vec::new();
        let mut non_ansi = false;
        if self.eat_punct(Punct::LParen) && !self.eat_punct(Punct::RParen) {
            // ANSI if a direction keyword appears, else non-ANSI names.
            if matches!(
                self.peek(),
                TokenKind::Keyword(Keyword::Input)
                    | TokenKind::Keyword(Keyword::Output)
                    | TokenKind::Keyword(Keyword::Inout)
            ) {
                self.ansi_ports(&mut ports)?;
            } else {
                non_ansi = true;
                loop {
                    port_order.push(self.expect_ident()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;

        let mut items = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Endmodule) {
                break;
            }
            if self.at_eof() {
                return Err(self.unexpected("`endmodule`"));
            }
            self.item(&mut items, &mut params, non_ansi.then_some(&mut ports))?;
        }

        if non_ansi {
            // Reorder collected port declarations to the header order.
            let mut ordered = Vec::with_capacity(port_order.len());
            for n in &port_order {
                let Some(ix) = ports.iter().position(|p| &p.name == n) else {
                    return Err(ParseError::new(
                        Pos { line: 1, col: 1 },
                        format!("port `{n}` listed in header but never declared"),
                    ));
                };
                ordered.push(ports[ix].clone());
            }
            ports = ordered;
        }

        Ok(Module {
            name,
            params,
            ports,
            items,
        })
    }

    fn param_list(&mut self, params: &mut Vec<Param>) -> Result<(), ParseError> {
        loop {
            self.expect_keyword(Keyword::Parameter)?;
            // Optional (ignored) range on the parameter.
            if self.is_punct(Punct::LBracket) {
                self.range()?;
            }
            loop {
                let name = self.expect_ident()?;
                self.expect_punct(Punct::Eq)?;
                let default = self.expr()?;
                params.push(Param {
                    name,
                    default,
                    local: false,
                });
                if !self.eat_punct(Punct::Comma) {
                    return Ok(());
                }
                // `parameter A = 1, parameter B = 2` or `, B = 2`.
                if matches!(self.peek(), TokenKind::Keyword(Keyword::Parameter)) {
                    break;
                }
            }
        }
    }

    fn ansi_ports(&mut self, ports: &mut Vec<Port>) -> Result<(), ParseError> {
        let mut dir = Direction::Input;
        let mut kind = NetKind::Wire;
        let mut range: Option<Range> = None;
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Input) => {
                    self.bump();
                    dir = Direction::Input;
                    kind = NetKind::Wire;
                    range = None;
                    self.port_type(&mut kind, &mut range)?;
                }
                TokenKind::Keyword(Keyword::Output) => {
                    self.bump();
                    dir = Direction::Output;
                    kind = NetKind::Wire;
                    range = None;
                    self.port_type(&mut kind, &mut range)?;
                }
                TokenKind::Keyword(Keyword::Inout) => {
                    return Err(ParseError::new(
                        self.pos(),
                        "`inout` ports are outside the MAGE subset",
                    ));
                }
                _ => {}
            }
            let name = self.expect_ident()?;
            ports.push(Port {
                dir,
                kind,
                name,
                range: range.clone(),
            });
            if !self.eat_punct(Punct::Comma) {
                return Ok(());
            }
        }
    }

    fn port_type(
        &mut self,
        kind: &mut NetKind,
        range: &mut Option<Range>,
    ) -> Result<(), ParseError> {
        if self.eat_keyword(Keyword::Wire) {
            *kind = NetKind::Wire;
        } else if self.eat_keyword(Keyword::Reg) {
            *kind = NetKind::Reg;
        }
        if self.eat_keyword(Keyword::Signed) {
            return Err(ParseError::new(
                self.pos(),
                "`signed` is outside the MAGE subset",
            ));
        }
        if self.is_punct(Punct::LBracket) {
            *range = Some(self.range()?);
        }
        Ok(())
    }

    fn range(&mut self) -> Result<Range, ParseError> {
        self.expect_punct(Punct::LBracket)?;
        let msb = self.expr()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.expr()?;
        self.expect_punct(Punct::RBracket)?;
        Ok(Range { msb, lsb })
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn item(
        &mut self,
        items: &mut Vec<Item>,
        params: &mut Vec<Param>,
        mut non_ansi_ports: Option<&mut Vec<Port>>,
    ) -> Result<(), ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Input) | TokenKind::Keyword(Keyword::Output) => {
                let dir = if self.eat_keyword(Keyword::Input) {
                    Direction::Input
                } else {
                    self.bump();
                    Direction::Output
                };
                let mut kind = NetKind::Wire;
                let mut range = None;
                self.port_type(&mut kind, &mut range)?;
                loop {
                    let name = self.expect_ident()?;
                    match non_ansi_ports.as_deref_mut() {
                        Some(ports) => ports.push(Port {
                            dir,
                            kind,
                            name,
                            range: range.clone(),
                        }),
                        None => {
                            return Err(ParseError::new(
                                self.pos(),
                                "port declaration in body of ANSI-style module",
                            ))
                        }
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
            }
            TokenKind::Keyword(Keyword::Wire) | TokenKind::Keyword(Keyword::Reg) => {
                let kind = if self.eat_keyword(Keyword::Wire) {
                    NetKind::Wire
                } else {
                    self.bump();
                    NetKind::Reg
                };
                if self.eat_keyword(Keyword::Signed) {
                    return Err(ParseError::new(
                        self.pos(),
                        "`signed` is outside the MAGE subset",
                    ));
                }
                let range = if self.is_punct(Punct::LBracket) {
                    Some(self.range()?)
                } else {
                    None
                };
                let mut names = Vec::new();
                let mut init_assigns: Vec<Item> = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    // `wire x = expr;` sugar -> decl + assign.
                    if self.eat_punct(Punct::Eq) {
                        let rhs = self.expr()?;
                        if kind != NetKind::Wire {
                            return Err(ParseError::new(
                                self.pos(),
                                "reg initializers are outside the MAGE subset",
                            ));
                        }
                        init_assigns.push(Item::Assign {
                            lhs: LValue::Ident(name.clone()),
                            rhs,
                        });
                    }
                    names.push(name);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                items.push(Item::Net { kind, range, names });
                items.extend(init_assigns);
            }
            TokenKind::Keyword(Keyword::Integer) | TokenKind::Keyword(Keyword::Genvar) => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    names.push(self.expect_ident()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                items.push(Item::Net {
                    kind: NetKind::Reg,
                    range: Some(Range {
                        msb: Expr::number(31),
                        lsb: Expr::number(0),
                    }),
                    names,
                });
            }
            TokenKind::Keyword(Keyword::Parameter) | TokenKind::Keyword(Keyword::Localparam) => {
                let local = matches!(self.peek(), TokenKind::Keyword(Keyword::Localparam));
                self.bump();
                if self.is_punct(Punct::LBracket) {
                    self.range()?;
                }
                loop {
                    let name = self.expect_ident()?;
                    self.expect_punct(Punct::Eq)?;
                    let default = self.expr()?;
                    let p = Param {
                        name,
                        default,
                        local,
                    };
                    items.push(Item::Param(p.clone()));
                    params.push(p);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
            }
            TokenKind::Keyword(Keyword::Assign) => {
                self.bump();
                loop {
                    let lhs = self.lvalue()?;
                    self.expect_punct(Punct::Eq)?;
                    let rhs = self.expr()?;
                    items.push(Item::Assign { lhs, rhs });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
            }
            TokenKind::Keyword(Keyword::Always) => {
                self.bump();
                let sens = self.sensitivity()?;
                let body = self.stmt()?;
                items.push(Item::Always { sens, body });
            }
            TokenKind::Ident => {
                let module = self.expect_ident()?;
                let mut overrides = Vec::new();
                if self.eat_punct(Punct::Hash) {
                    self.expect_punct(Punct::LParen)?;
                    loop {
                        if self.eat_punct(Punct::Dot) {
                            let pname = self.expect_ident()?;
                            self.expect_punct(Punct::LParen)?;
                            let value = self.expr()?;
                            self.expect_punct(Punct::RParen)?;
                            overrides.push((pname, value));
                        } else {
                            return Err(ParseError::new(
                                self.pos(),
                                "positional parameter overrides are outside the MAGE subset",
                            ));
                        }
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                }
                let name = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                let conns = if self.is_punct(Punct::Dot) {
                    let mut named = Vec::new();
                    loop {
                        self.expect_punct(Punct::Dot)?;
                        let port = self.expect_ident()?;
                        self.expect_punct(Punct::LParen)?;
                        let expr = if self.is_punct(Punct::RParen) {
                            None
                        } else {
                            Some(self.expr()?)
                        };
                        self.expect_punct(Punct::RParen)?;
                        named.push((port, expr));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    Connections::Named(named)
                } else if self.is_punct(Punct::RParen) {
                    Connections::Ordered(Vec::new())
                } else {
                    let mut exprs = Vec::new();
                    loop {
                        exprs.push(self.expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    Connections::Ordered(exprs)
                };
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                items.push(Item::Instance {
                    module,
                    name,
                    params: overrides,
                    conns,
                });
            }
            TokenKind::Keyword(
                k @ (Keyword::Initial | Keyword::Generate | Keyword::Function | Keyword::Task),
            ) => {
                return Err(ParseError::new(
                    self.pos(),
                    format!("`{}` blocks are outside the MAGE subset", k.as_str()),
                ));
            }
            _ => return Err(self.unexpected("module item")),
        }
        Ok(())
    }

    fn sensitivity(&mut self) -> Result<Sensitivity, ParseError> {
        self.expect_punct(Punct::At)?;
        if self.eat_punct(Punct::Star) {
            return Ok(Sensitivity::Comb);
        }
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::Star) {
            self.expect_punct(Punct::RParen)?;
            return Ok(Sensitivity::Comb);
        }
        let mut edges = Vec::new();
        let mut plain = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Posedge) {
                edges.push(EdgeEvent {
                    edge: Edge::Pos,
                    signal: self.expect_ident()?,
                });
            } else if self.eat_keyword(Keyword::Negedge) {
                edges.push(EdgeEvent {
                    edge: Edge::Neg,
                    signal: self.expect_ident()?,
                });
            } else {
                plain.push(self.expect_ident()?);
            }
            if self.eat_punct(Punct::Comma) || self.eat_keyword(Keyword::Or) {
                continue;
            }
            break;
        }
        self.expect_punct(Punct::RParen)?;
        match (edges.is_empty(), plain.is_empty()) {
            (true, false) => Ok(Sensitivity::Comb), // old-style @(a or b)
            (false, true) => Ok(Sensitivity::Edges(edges)),
            (false, false) => Err(ParseError::new(
                self.pos(),
                "mixed edge and level sensitivity is outside the MAGE subset",
            )),
            (true, true) => Err(self.unexpected("sensitivity event")),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    // Each construct that recurses has a function of its own, so one
    // level of nesting costs only the frames on its path, not the locals
    // of every construct: frames are largest in unoptimized builds, and
    // `MAX_DEPTH` is sized there.

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.descend()?;
        let stmt = match self.peek() {
            TokenKind::Keyword(Keyword::Begin) => self.block()?,
            TokenKind::Keyword(Keyword::If) => self.if_stmt()?,
            TokenKind::Keyword(k @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                self.case_stmt(k)?
            }
            TokenKind::Keyword(Keyword::For) => self.for_stmt()?,
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Stmt::Empty
            }
            _ => self.assignment()?,
        };
        self.depth -= 1;
        Ok(stmt)
    }

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.bump();
        // Optional block label `begin : name`.
        if self.eat_punct(Punct::Colon) {
            self.ident()?;
        }
        let mut stmts = Vec::new();
        while !self.eat_keyword(Keyword::End) {
            if self.at_eof() {
                return Err(self.unexpected("`end`"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::Block(stmts))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let else_branch = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn case_stmt(&mut self, k: Keyword) -> Result<Stmt, ParseError> {
        self.bump();
        // `casex` is treated as `casez` (documented subset deviation).
        let kind = if k == Keyword::Case {
            CaseKind::Case
        } else {
            CaseKind::Casez
        };
        self.expect_punct(Punct::LParen)?;
        let expr = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let mut arms = Vec::new();
        let mut default = None;
        loop {
            if self.eat_keyword(Keyword::Endcase) {
                break;
            }
            if self.at_eof() {
                return Err(self.unexpected("`endcase`"));
            }
            if self.eat_keyword(Keyword::Default) {
                self.eat_punct(Punct::Colon);
                default = Some(Box::new(self.stmt()?));
                continue;
            }
            let mut labels = vec![self.expr()?];
            while self.eat_punct(Punct::Comma) {
                labels.push(self.expr()?);
            }
            self.expect_punct(Punct::Colon)?;
            let body = self.stmt()?;
            arms.push(CaseArm { labels, body });
        }
        Ok(Stmt::Case {
            kind,
            expr,
            arms,
            default,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect_punct(Punct::LParen)?;
        let var = self.expect_ident()?;
        self.expect_punct(Punct::Eq)?;
        let init = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        if self.ident()? != var {
            return Err(ParseError::new(
                self.pos(),
                "for-loop step must assign the loop variable",
            ));
        }
        self.expect_punct(Punct::Eq)?;
        let step = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        })
    }

    fn assignment(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.lvalue()?;
        let nonblocking = if self.eat_punct(Punct::Le) {
            true
        } else if self.eat_punct(Punct::Eq) {
            false
        } else {
            return Err(self.unexpected("`=` or `<=`"));
        };
        let rhs = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(if nonblocking {
            Stmt::NonBlocking { lhs, rhs }
        } else {
            Stmt::Blocking { lhs, rhs }
        })
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        self.descend()?;
        let lvalue = if self.is_punct(Punct::LBrace) {
            self.lvalue_concat()?
        } else {
            self.lvalue_select()?
        };
        self.depth -= 1;
        Ok(lvalue)
    }

    fn lvalue_concat(&mut self) -> Result<LValue, ParseError> {
        self.bump();
        let mut parts = Vec::new();
        loop {
            parts.push(self.lvalue()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(LValue::Concat(parts))
    }

    fn lvalue_select(&mut self) -> Result<LValue, ParseError> {
        let name = self.expect_ident()?;
        if self.eat_punct(Punct::LBracket) {
            let first = self.expr()?;
            if self.eat_punct(Punct::Colon) {
                let lsb = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                Ok(LValue::Part(name, first, lsb))
            } else {
                self.expect_punct(Punct::RBracket)?;
                Ok(LValue::Bit(name, first))
            }
        } else {
            Ok(LValue::Ident(name))
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let cond = self.binary(1)?;
        let expr = if self.eat_punct(Punct::Question) {
            self.ternary_branches(cond)?
        } else {
            cond
        };
        self.depth -= 1;
        Ok(expr)
    }

    fn ternary_branches(&mut self, cond: Expr) -> Result<Expr, ParseError> {
        let then_expr = Box::new(self.ternary()?);
        self.expect_punct(Punct::Colon)?;
        let else_expr = Box::new(self.ternary()?);
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then_expr,
            else_expr,
        })
    }

    fn binary_op(&self) -> Option<BinaryOp> {
        let TokenKind::Punct(p) = self.peek() else {
            return None;
        };
        Some(match p {
            Punct::Plus => BinaryOp::Add,
            Punct::Minus => BinaryOp::Sub,
            Punct::Star => BinaryOp::Mul,
            Punct::Slash => BinaryOp::Div,
            Punct::Percent => BinaryOp::Mod,
            Punct::Amp => BinaryOp::And,
            Punct::Pipe => BinaryOp::Or,
            Punct::Caret => BinaryOp::Xor,
            Punct::TildeCaret | Punct::CaretTilde => BinaryOp::Xnor,
            Punct::AmpAmp => BinaryOp::LogicAnd,
            Punct::PipePipe => BinaryOp::LogicOr,
            Punct::EqEq => BinaryOp::Eq,
            Punct::Neq => BinaryOp::Neq,
            Punct::CaseEq => BinaryOp::CaseEq,
            Punct::CaseNeq => BinaryOp::CaseNeq,
            Punct::Lt => BinaryOp::Lt,
            Punct::Le => BinaryOp::Le,
            Punct::Gt => BinaryOp::Gt,
            Punct::Ge => BinaryOp::Ge,
            Punct::Shl | Punct::AShl => BinaryOp::Shl,
            Punct::Shr | Punct::AShr => BinaryOp::Shr,
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        let depth = self.depth;
        while let Some(op) = self.binary_op() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            // Each node this loop builds is one level deeper than `lhs`.
            self.descend()?;
            self.bump();
            // All subset binary operators are left-associative.
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            TokenKind::Punct(Punct::Tilde) => UnaryOp::Not,
            TokenKind::Punct(Punct::Bang) => UnaryOp::LogicNot,
            TokenKind::Punct(Punct::Minus) => UnaryOp::Neg,
            TokenKind::Punct(Punct::Plus) => UnaryOp::Plus,
            TokenKind::Punct(Punct::Amp) => UnaryOp::ReduceAnd,
            TokenKind::Punct(Punct::Pipe) => UnaryOp::ReduceOr,
            TokenKind::Punct(Punct::Caret) => UnaryOp::ReduceXor,
            TokenKind::Punct(Punct::TildeAmp) => UnaryOp::ReduceNand,
            TokenKind::Punct(Punct::TildePipe) => UnaryOp::ReduceNor,
            TokenKind::Punct(Punct::TildeCaret | Punct::CaretTilde) => UnaryOp::ReduceXnor,
            _ => return self.primary(),
        };
        self.descend()?;
        self.bump();
        let operand = Box::new(self.unary()?);
        self.depth -= 1;
        Ok(Expr::Unary { op, operand })
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Number => self.literal(),
            TokenKind::Ident => self.name_or_select(),
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Punct(Punct::LBrace) => self.concat(),
            _ => Err(self.unexpected("expression")),
        }
    }

    fn literal(&mut self) -> Result<Expr, ParseError> {
        let text = self.bump().text(self.src);
        let lit = parse_literal(text).map_err(|e| ParseError::new(self.pos(), e.to_string()))?;
        Ok(Expr::Literal {
            value: lit.value,
            form: if lit.sized {
                LiteralForm::Sized
            } else {
                LiteralForm::Unsized
            },
        })
    }

    fn name_or_select(&mut self) -> Result<Expr, ParseError> {
        let name = self.expect_ident()?;
        if !self.eat_punct(Punct::LBracket) {
            return Ok(Expr::Ident(name));
        }
        let first = self.expr()?;
        if self.eat_punct(Punct::Colon) {
            let lsb = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            Ok(Expr::Part {
                base: name,
                msb: Box::new(first),
                lsb: Box::new(lsb),
            })
        } else if matches!(
            self.peek(),
            TokenKind::Punct(Punct::PlusColon | Punct::MinusColon)
        ) {
            Err(ParseError::new(
                self.pos(),
                "indexed part-selects are outside the MAGE subset",
            ))
        } else {
            self.expect_punct(Punct::RBracket)?;
            Ok(Expr::Bit {
                base: name,
                index: Box::new(first),
            })
        }
    }

    /// A concatenation `{a, …}` or a replication `{n{v, …}}`.
    fn concat(&mut self) -> Result<Expr, ParseError> {
        self.bump();
        let first = self.expr()?;
        if self.is_punct(Punct::LBrace) {
            // Replication {n{v, …}} — the inner braces hold a list.
            self.bump();
            let mut inner = vec![self.expr()?];
            while self.eat_punct(Punct::Comma) {
                inner.push(self.expr()?);
            }
            self.expect_punct(Punct::RBrace)?;
            self.expect_punct(Punct::RBrace)?;
            let value = if inner.len() == 1 {
                inner.into_iter().next().expect("one element")
            } else {
                Expr::Concat(inner)
            };
            return Ok(Expr::Repl {
                count: Box::new(first),
                value: Box::new(value),
            });
        }
        let mut parts = vec![first];
        while self.eat_punct(Punct::Comma) {
            parts.push(self.expr()?);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Expr::Concat(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_module() {
        let m =
            parse_module("module top(input a, input b, output y);\n assign y = a & b;\nendmodule")
                .unwrap();
        assert_eq!(m.name, "top");
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.items.len(), 1);
        assert!(matches!(m.items[0], Item::Assign { .. }));
    }

    #[test]
    fn parses_vector_ports_with_inherited_direction() {
        let m = parse_module(
            "module top(input [3:0] a, b, output reg [7:0] y); always @(*) y = {a, b}; endmodule",
        )
        .unwrap();
        assert_eq!(m.ports[1].name, "b");
        assert_eq!(m.ports[1].dir, Direction::Input);
        assert!(m.ports[1].range.is_some());
        assert_eq!(m.ports[2].kind, NetKind::Reg);
    }

    #[test]
    fn parses_non_ansi_ports() {
        let m = parse_module(
            "module top(a, y);\ninput [1:0] a;\noutput y;\nassign y = a[0];\nendmodule",
        )
        .unwrap();
        assert_eq!(m.ports[0].name, "a");
        assert_eq!(m.ports[0].dir, Direction::Input);
        assert_eq!(m.ports[1].dir, Direction::Output);
    }

    #[test]
    fn parses_always_ff_with_reset() {
        let m = parse_module(
            "module d(input clk, input rst, input d, output reg q);
               always @(posedge clk or negedge rst)
                 if (!rst) q <= 1'b0; else q <= d;
             endmodule",
        )
        .unwrap();
        let Item::Always { sens, body } = &m.items[0] else {
            panic!("expected always")
        };
        let Sensitivity::Edges(e) = sens else {
            panic!("expected edges")
        };
        assert_eq!(e.len(), 2);
        assert_eq!(e[1].edge, Edge::Neg);
        assert!(matches!(body, Stmt::If { .. }));
    }

    #[test]
    fn old_style_sensitivity_is_comb() {
        let m = parse_module(
            "module c(input a, input b, output reg y); always @(a or b) y = a | b; endmodule",
        )
        .unwrap();
        let Item::Always { sens, .. } = &m.items[0] else {
            panic!()
        };
        assert_eq!(*sens, Sensitivity::Comb);
    }

    #[test]
    fn parses_case_with_default_and_multi_labels() {
        let m = parse_module(
            "module c(input [1:0] s, output reg y);
               always @(*) case (s)
                 2'b00, 2'b11: y = 1'b1;
                 2'b01: y = 1'b0;
                 default: y = 1'bx;
               endcase
             endmodule",
        )
        .unwrap();
        let Item::Always { body, .. } = &m.items[0] else {
            panic!()
        };
        let Stmt::Case { arms, default, .. } = body else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].labels.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn parses_for_loop() {
        let m = parse_module(
            "module f(input [7:0] a, output reg [7:0] y);
               integer i;
               always @(*) begin
                 for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];
               end
             endmodule",
        )
        .unwrap();
        assert_eq!(m.items.len(), 2);
    }

    #[test]
    fn parses_instance_named_and_ordered() {
        let f = parse(
            "module half(input a, input b, output s, output c);
               assign s = a ^ b; assign c = a & b;
             endmodule
             module top(input x, input y, output s, output c);
               half h0 (.a(x), .b(y), .s(s), .c(c));
             endmodule",
        )
        .unwrap();
        assert_eq!(f.modules.len(), 2);
        let Item::Instance { conns, .. } = &f.modules[1].items[0] else {
            panic!()
        };
        assert!(matches!(conns, Connections::Named(n) if n.len() == 4));
    }

    #[test]
    fn parses_parameter_override() {
        let f = parse(
            "module w #(parameter N = 4)(input [N-1:0] a, output [N-1:0] y);
               assign y = ~a;
             endmodule
             module top(input [7:0] a, output [7:0] y);
               w #(.N(8)) u (.a(a), .y(y));
             endmodule",
        )
        .unwrap();
        let Item::Instance { params, .. } = &f.modules[1].items[0] else {
            panic!()
        };
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].0, "N");
    }

    #[test]
    fn precedence_binds_correctly() {
        let m = parse_module(
            "module p(input a, input b, input c, output y); assign y = a | b & c; endmodule",
        )
        .unwrap();
        let Item::Assign { rhs, .. } = &m.items[0] else {
            panic!()
        };
        // | is looser than &, so the top node is Or.
        let Expr::Binary { op, rhs: r, .. } = rhs else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Or);
        assert!(matches!(
            **r,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn ternary_is_right_associative() {
        let m = parse_module(
            "module t(input a, input b, output y); assign y = a ? b : a ? 1'b0 : 1'b1; endmodule",
        )
        .unwrap();
        let Item::Assign { rhs, .. } = &m.items[0] else {
            panic!()
        };
        let Expr::Ternary { else_expr, .. } = rhs else {
            panic!()
        };
        assert!(matches!(**else_expr, Expr::Ternary { .. }));
    }

    #[test]
    fn replication_and_concat() {
        let m = parse_module(
            "module r(input [1:0] a, output [7:0] y); assign y = {2{a, 2'b01}}; endmodule",
        )
        .unwrap();
        let Item::Assign { rhs, .. } = &m.items[0] else {
            panic!()
        };
        let Expr::Repl { value, .. } = rhs else {
            panic!("expected replication")
        };
        assert!(matches!(**value, Expr::Concat(_)));
    }

    #[test]
    fn lvalue_concat_and_part() {
        let m = parse_module(
            "module l(input [3:0] a, output [1:0] hi, output c);
               assign {c, hi} = a[3:1];
             endmodule",
        )
        .unwrap();
        let Item::Assign { lhs, .. } = &m.items[0] else {
            panic!()
        };
        assert!(matches!(lhs, LValue::Concat(p) if p.len() == 2));
    }

    #[test]
    fn rejects_out_of_subset() {
        assert!(parse_module("module m(inout a); endmodule").is_err());
        assert!(parse_module("module m(input a); initial a = 0; endmodule").is_err());
        assert!(parse_module(
            "module m(input signed [3:0] a, output y); assign y = a[0]; endmodule"
        )
        .is_err());
        assert!(
            parse_module("module m(input a, output y); assign y = a[1+:2]; endmodule").is_err()
        );
    }

    #[test]
    fn error_carries_position() {
        let err = parse_module("module m(input a output y); endmodule").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn nonblocking_vs_le_disambiguation() {
        let m = parse_module(
            "module d(input clk, input [3:0] a, output reg q);
               always @(posedge clk) q <= a <= 4'd5;
             endmodule",
        )
        .unwrap();
        let Item::Always { body, .. } = &m.items[0] else {
            panic!()
        };
        let Stmt::NonBlocking { rhs, .. } = body else {
            panic!("expected nonblocking assign")
        };
        assert!(matches!(
            rhs,
            Expr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
    }

    #[test]
    fn casex_maps_to_casez() {
        let m = parse_module(
            "module c(input [1:0] s, output reg y);
               always @(*) casex (s) 2'b1?: y = 1; default: y = 0; endcase
             endmodule",
        )
        .unwrap();
        let Item::Always { body, .. } = &m.items[0] else {
            panic!()
        };
        assert!(matches!(
            body,
            Stmt::Case {
                kind: CaseKind::Casez,
                ..
            }
        ));
    }
}
