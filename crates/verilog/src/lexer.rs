//! Hand-written lexer for the Verilog subset.
//!
//! The lexer produces span tokens ([`Token`]): a `Copy` kind plus the
//! byte range it covers. It copies no text and tracks no line or column;
//! an error computes its [`Pos`] from the offset where it occurred.

use crate::error::ParseError;
use crate::token::{Keyword, Pos, Punct, Span, Token, TokenKind};

/// Tokenize Verilog source text.
///
/// Comments (`//` and `/* */`) and whitespace are skipped. The token stream
/// always ends with a single [`TokenKind::Eof`], whose span is empty and
/// sits at the end of the source.
///
/// # Errors
///
/// Returns [`ParseError`] on unterminated block comments, malformed based
/// numbers, or characters outside the subset's alphabet.
pub fn lex(source: &str) -> Result<Vec<Token>, ParseError> {
    Lexer {
        src: source,
        bytes: source.as_bytes(),
        at: 0,
        tokens: Vec::with_capacity(source.len() / 4 + 1),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    at: usize,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.at + 1).copied()
    }

    /// Advance past every byte from the current one on that satisfies
    /// `keep`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&keep) {
            self.at += 1;
        }
    }

    fn error(&self, offset: usize, message: impl Into<String>) -> ParseError {
        ParseError::new(Pos::of(self.src, offset), message)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span {
                start,
                end: self.at,
            },
        });
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        loop {
            self.skip_trivia()?;
            let start = self.at;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            if c.is_ascii_alphabetic() || c == b'_' || c == b'\\' {
                self.lex_ident(start);
            } else if c.is_ascii_digit() || c == b'\'' {
                self.lex_number(start)?;
            } else {
                self.lex_punct(start)?;
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.at += 1,
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_while(|c| c != b'\n'),
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.at;
                    match self.src[start + 2..].find("*/") {
                        Some(len) => self.at = start + 2 + len + 2,
                        None => return Err(self.error(start, "unterminated block comment")),
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self, start: usize) {
        if self.peek() == Some(b'\\') {
            // Escaped identifier: backslash to next whitespace.
            self.at += 1;
            self.skip_while(|c| !c.is_ascii_whitespace());
            self.push(TokenKind::Ident, start);
            return;
        }
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$');
        let kind = match Keyword::from_str(&self.src[start..self.at]) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident,
        };
        self.push(kind, start);
    }

    fn lex_number(&mut self, start: usize) -> Result<(), ParseError> {
        // Leading decimal digits (the size, or a plain number).
        self.skip_while(|c| c.is_ascii_digit() || c == b'_');
        // Based part?
        if self.peek() == Some(b'\'') {
            self.at += 1;
            // Base character.
            match self.peek() {
                Some(b) if matches!(b.to_ascii_lowercase(), b'b' | b'o' | b'd' | b'h') => {
                    self.at += 1;
                }
                _ => return Err(self.error(self.at, "expected number base after `'`")),
            }
            // Digits (hex digits, x, z, ?, _).
            let digit_start = self.at;
            self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'?');
            if self.at == digit_start {
                return Err(self.error(self.at, "missing digits after base"));
            }
        }
        self.push(TokenKind::Number, start);
        Ok(())
    }

    /// One byte-dispatch `match` per token, longest operator first
    /// (maximal munch).
    fn lex_punct(&mut self, start: usize) -> Result<(), ParseError> {
        let next = |n: usize| self.bytes.get(start + n).copied();
        let (punct, len) = match self.bytes[start] {
            b'<' => match (next(1), next(2)) {
                (Some(b'<'), Some(b'<')) => (Punct::AShl, 3),
                (Some(b'<'), _) => (Punct::Shl, 2),
                (Some(b'='), _) => (Punct::Le, 2),
                _ => (Punct::Lt, 1),
            },
            b'>' => match (next(1), next(2)) {
                (Some(b'>'), Some(b'>')) => (Punct::AShr, 3),
                (Some(b'>'), _) => (Punct::Shr, 2),
                (Some(b'='), _) => (Punct::Ge, 2),
                _ => (Punct::Gt, 1),
            },
            b'=' => match (next(1), next(2)) {
                (Some(b'='), Some(b'=')) => (Punct::CaseEq, 3),
                (Some(b'='), _) => (Punct::EqEq, 2),
                _ => (Punct::Eq, 1),
            },
            b'!' => match (next(1), next(2)) {
                (Some(b'='), Some(b'=')) => (Punct::CaseNeq, 3),
                (Some(b'='), _) => (Punct::Neq, 2),
                _ => (Punct::Bang, 1),
            },
            b'~' => match next(1) {
                Some(b'^') => (Punct::TildeCaret, 2),
                Some(b'&') => (Punct::TildeAmp, 2),
                Some(b'|') => (Punct::TildePipe, 2),
                _ => (Punct::Tilde, 1),
            },
            b'^' if next(1) == Some(b'~') => (Punct::CaretTilde, 2),
            b'&' if next(1) == Some(b'&') => (Punct::AmpAmp, 2),
            b'|' if next(1) == Some(b'|') => (Punct::PipePipe, 2),
            b'+' if next(1) == Some(b':') => (Punct::PlusColon, 2),
            b'-' if next(1) == Some(b':') => (Punct::MinusColon, 2),
            b'^' => (Punct::Caret, 1),
            b'&' => (Punct::Amp, 1),
            b'|' => (Punct::Pipe, 1),
            b'+' => (Punct::Plus, 1),
            b'-' => (Punct::Minus, 1),
            b'(' => (Punct::LParen, 1),
            b')' => (Punct::RParen, 1),
            b'[' => (Punct::LBracket, 1),
            b']' => (Punct::RBracket, 1),
            b'{' => (Punct::LBrace, 1),
            b'}' => (Punct::RBrace, 1),
            b',' => (Punct::Comma, 1),
            b';' => (Punct::Semi, 1),
            b':' => (Punct::Colon, 1),
            b'?' => (Punct::Question, 1),
            b'@' => (Punct::At, 1),
            b'#' => (Punct::Hash, 1),
            b'.' => (Punct::Dot, 1),
            b'*' => (Punct::Star, 1),
            b'/' => (Punct::Slash, 1),
            b'%' => (Punct::Percent, 1),
            _ => {
                let c = self.src[start..].chars().next().unwrap_or('?');
                return Err(self.error(start, format!("unexpected character `{c}`")));
            }
        };
        self.at += len;
        self.push(TokenKind::Punct(punct), start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token's kind and text.
    fn tokens(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn lexes_module_header() {
        let k = tokens("module top(input a, output b);");
        assert_eq!(k[0], (TokenKind::Keyword(Keyword::Module), "module"));
        assert_eq!(k[1], (TokenKind::Ident, "top"));
        assert_eq!(k[2], (TokenKind::Punct(Punct::LParen), "("));
        assert_eq!(k[3], (TokenKind::Keyword(Keyword::Input), "input"));
        assert!(matches!(k.last(), Some((TokenKind::Eof, ""))));
    }

    #[test]
    fn lexes_numbers() {
        let k = tokens("8'hFF 42 4'b1x0z 'd15 12'd95");
        assert_eq!(k[0], (TokenKind::Number, "8'hFF"));
        assert_eq!(k[1], (TokenKind::Number, "42"));
        assert_eq!(k[2], (TokenKind::Number, "4'b1x0z"));
        assert_eq!(k[3], (TokenKind::Number, "'d15"));
        assert_eq!(k[4], (TokenKind::Number, "12'd95"));
    }

    #[test]
    fn maximal_munch_operators() {
        let k = tokens("a <= b <<< c === d");
        assert_eq!(k[1], (TokenKind::Punct(Punct::Le), "<="));
        assert_eq!(k[3], (TokenKind::Punct(Punct::AShl), "<<<"));
        assert_eq!(k[5], (TokenKind::Punct(Punct::CaseEq), "==="));
    }

    #[test]
    fn skips_comments() {
        let k = tokens("a // line comment\n /* block\n comment */ b");
        assert_eq!(k.len(), 3); // a, b, eof
        assert_eq!(k[0], (TokenKind::Ident, "a"));
        assert_eq!(k[1], (TokenKind::Ident, "b"));
    }

    #[test]
    fn tracks_positions() {
        let src = "a\n  b";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].pos(src).line, 1);
        assert_eq!(toks[1].pos(src).line, 2);
        assert_eq!(toks[1].pos(src).col, 3);
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn dollar_in_identifier() {
        let k = tokens("sig$tmp");
        assert_eq!(k[0], (TokenKind::Ident, "sig$tmp"));
    }

    #[test]
    fn bad_base_errors() {
        assert!(lex("4'q1").is_err());
        assert!(lex("4'").is_err());
    }
}
