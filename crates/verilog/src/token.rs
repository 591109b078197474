//! Tokens produced by the lexer.
//!
//! A [`Token`] is a `Copy` kind plus the byte [`Span`] it covers in the
//! source; it owns no text. The parser slices an identifier's or a
//! number's text out of the source only where the AST keeps it, and a
//! [`Pos`] (line and column) is computed from a span's start offset only
//! when an error reports it.

use std::fmt;

/// A source position (1-based line and column).
///
/// Columns count bytes, so a multi-byte character before the position
/// advances the column by its UTF-8 length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// The position of byte `offset` of `source`: one line per `\n`
    /// before it, and the column counted in bytes from the line start.
    pub fn of(source: &str, offset: usize) -> Pos {
        let before = &source.as_bytes()[..offset];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let lines = before.iter().filter(|&&b| b == b'\n').count();
        Pos {
            line: saturate(lines + 1),
            col: saturate(offset - line_start + 1),
        }
    }
}

fn saturate(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A byte range `start..end` of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Offset of the first byte.
    pub start: usize,
    /// Offset one past the last byte.
    pub end: usize,
}

/// Lexical token kinds. None carries text: an identifier's or a number's
/// text is its token's span of the source ([`Token::text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or escaped identifier.
    Ident,
    /// Number literal (e.g. `8'hFF`, `42`).
    Number,
    /// Keyword (reserved word).
    Keyword(Keyword),
    /// Operator or punctuation.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// A token: its kind and the span of source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it lies in the source.
    pub span: Span,
}

impl Token {
    /// The token's text in `source`, the text it was lexed from. An
    /// escaped identifier's text leaves out its leading backslash.
    pub fn text(self, source: &str) -> &str {
        let text = &source[self.span.start..self.span.end];
        match self.kind {
            TokenKind::Ident => text.strip_prefix('\\').unwrap_or(text),
            _ => text,
        }
    }

    /// Where the token starts in `source`.
    pub fn pos(self, source: &str) -> Pos {
        Pos::of(source, self.span.start)
    }

    /// How an error message names the token: `identifier `x``,
    /// `number `4'd1``, `keyword `end``, `` `;` `` or `end of input`.
    pub fn describe(self, source: &str) -> String {
        match self.kind {
            TokenKind::Ident => format!("identifier `{}`", self.text(source)),
            TokenKind::Number => format!("number `{}`", self.text(source)),
            TokenKind::Keyword(k) => format!("keyword `{k}`"),
            TokenKind::Punct(p) => format!("`{p}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Reserved words recognized by the subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($variant),+
        }

        impl Keyword {
            /// Look up a keyword from its source text.
            // Inherent, fallible lookup; `FromStr` would force a
            // `Result` error type the lexer has no use for.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The keyword's source text.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text),+
                }
            }
        }
    };
}

keywords! {
    Module => "module",
    Endmodule => "endmodule",
    Input => "input",
    Output => "output",
    Inout => "inout",
    Wire => "wire",
    Reg => "reg",
    Integer => "integer",
    Assign => "assign",
    Always => "always",
    Posedge => "posedge",
    Negedge => "negedge",
    Or => "or",
    If => "if",
    Else => "else",
    Case => "case",
    Casez => "casez",
    Casex => "casex",
    Endcase => "endcase",
    Default => "default",
    Begin => "begin",
    End => "end",
    For => "for",
    Parameter => "parameter",
    Localparam => "localparam",
    Initial => "initial",
    Generate => "generate",
    Endgenerate => "endgenerate",
    Genvar => "genvar",
    Function => "function",
    Endfunction => "endfunction",
    Task => "task",
    Endtask => "endtask",
    Signed => "signed",
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

macro_rules! puncts {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Operators and punctuation of the subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Punct {
            $($variant),+
        }

        impl Punct {
            /// The punctuation's source text.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Punct::$variant => $text),+
                }
            }
        }
    };
}

puncts! {
    AShl => "<<<",
    AShr => ">>>",
    CaseEq => "===",
    CaseNeq => "!==",
    TildeCaret => "~^",
    CaretTilde => "^~",
    TildeAmp => "~&",
    TildePipe => "~|",
    Shl => "<<",
    Shr => ">>",
    Le => "<=",
    Ge => ">=",
    EqEq => "==",
    Neq => "!=",
    AmpAmp => "&&",
    PipePipe => "||",
    PlusColon => "+:",
    MinusColon => "-:",
    LParen => "(",
    RParen => ")",
    LBracket => "[",
    RBracket => "]",
    LBrace => "{",
    RBrace => "}",
    Comma => ",",
    Semi => ";",
    Colon => ":",
    Question => "?",
    At => "@",
    Hash => "#",
    Dot => ".",
    Eq => "=",
    Plus => "+",
    Minus => "-",
    Star => "*",
    Slash => "/",
    Percent => "%",
    Amp => "&",
    Pipe => "|",
    Caret => "^",
    Tilde => "~",
    Bang => "!",
    Lt => "<",
    Gt => ">",
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}
