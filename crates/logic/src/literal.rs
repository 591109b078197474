//! Parsing of Verilog number literals into [`LogicVec`] values.

use crate::{LogicBit, LogicVec};
use std::error::Error;
use std::fmt;

/// Default width Verilog gives an unsized literal such as `42`.
pub const UNSIZED_LITERAL_WIDTH: usize = 32;

/// A parsed Verilog number literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedLiteral {
    /// The literal's value at its declared (or default 32-bit) width.
    pub value: LogicVec,
    /// Whether the source spelled an explicit width (`8'hFF` vs `42`).
    pub sized: bool,
}

/// Error produced by [`parse_literal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralError {
    message: String,
}

impl LiteralError {
    fn new(message: impl Into<String>) -> Self {
        LiteralError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LiteralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid verilog literal: {}", self.message)
    }
}

impl Error for LiteralError {}

/// Parse a Verilog number literal.
///
/// Supported forms (underscores allowed everywhere digits are):
///
/// * unsized decimal: `42` (32 bits)
/// * sized binary/octal/decimal/hex: `4'b10x0`, `6'o77`, `12'd95`, `8'hFF`
/// * unsized based: `'b101`, `'hFF` (32 bits)
/// * `x`/`z` digits in binary, octal and hex bases (`8'hxz` etc.)
///
/// # Errors
///
/// Returns [`LiteralError`] on malformed input, zero width, or digits
/// invalid for the base.
///
/// A literal of at most 64 bits is read in one pass over its digits
/// into one plane pair, without allocating unless the text holds
/// whitespace; a wider binary, octal or hex literal is built bit by bit.
///
/// # Example
///
/// ```
/// use mage_logic::parse_literal;
///
/// let lit = parse_literal("8'hA5")?;
/// assert_eq!(lit.value.width(), 8);
/// assert_eq!(lit.value.to_u64(), Some(0xA5));
/// assert!(lit.sized);
/// # Ok::<(), mage_logic::LiteralError>(())
/// ```
pub fn parse_literal(text: &str) -> Result<ParsedLiteral, LiteralError> {
    if text.contains(char::is_whitespace) {
        // Whitespace may sit anywhere in a literal (`8 'h F F`); a lexed
        // token holds none, so only this rare form allocates.
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        return parse_compact(&compact, text);
    }
    parse_compact(text, text)
}

/// [`parse_literal`] on `s`, the literal `text` without whitespace.
fn parse_compact(s: &str, text: &str) -> Result<ParsedLiteral, LiteralError> {
    if s.is_empty() {
        return Err(LiteralError::new("empty literal"));
    }
    let Some(tick) = s.find('\'') else {
        // Plain decimal, 32 bits.
        return Ok(ParsedLiteral {
            value: LogicVec::from_u128(UNSIZED_LITERAL_WIDTH, decimal(s, text)?),
            sized: false,
        });
    };
    let (width_part, rest) = (&s[..tick], &s[tick + 1..]);
    let (sized, width) = if width_part.is_empty() {
        (false, UNSIZED_LITERAL_WIDTH)
    } else {
        let w: usize = width_part
            .parse()
            .map_err(|_| LiteralError::new(format!("bad width in `{text}`")))?;
        if w == 0 {
            return Err(LiteralError::new("zero-width literal"));
        }
        (true, w)
    };
    let mut chars = rest.chars();
    let base = chars
        .next()
        .ok_or_else(|| LiteralError::new(format!("missing base in `{text}`")))?
        .to_ascii_lowercase();
    let digits = chars.as_str();
    if digit_chars(digits).next().is_none() {
        return Err(LiteralError::new(format!("missing digits in `{text}`")));
    }
    let bits_per = match base {
        'b' => 1,
        'o' => 3,
        'h' => 4,
        'd' => {
            let mut it = digit_chars(digits);
            let value = match (it.next().map(|c| c.to_ascii_lowercase()), it.next()) {
                (Some('x'), None) => LogicVec::all_x(width),
                (Some('z'), None) => LogicVec::all_z(width),
                _ => LogicVec::from_u128(width, decimal(digits, text)?),
            };
            return Ok(ParsedLiteral { value, sized });
        }
        _ => return Err(LiteralError::new(format!("bad base `{base}` in `{text}`"))),
    };
    let value = if width <= 64 {
        based_word(digits, bits_per, width, text)?
    } else {
        based_bits(digits, bits_per, width, text)?
    };
    Ok(ParsedLiteral { value, sized })
}

/// The digit characters of `s`: everything but `_`.
fn digit_chars(s: &str) -> impl DoubleEndedIterator<Item = char> + '_ {
    s.chars().filter(|&c| c != '_')
}

/// The value of a decimal digit string (underscores skipped), as
/// `u128`'s `FromStr` reads it.
fn decimal(digits: &str, text: &str) -> Result<u128, LiteralError> {
    let mut value = Some(0u128);
    let mut any = false;
    for c in digit_chars(digits) {
        let Some(d) = c.to_digit(10) else {
            return Err(LiteralError::new(format!("bad decimal `{text}`")));
        };
        value = value.and_then(|v| v.checked_mul(10)?.checked_add(d.into()));
        any = true;
    }
    if !any {
        return Err(LiteralError::new(format!("bad decimal `{text}`")));
    }
    value.ok_or_else(|| LiteralError::new(format!("decimal overflow `{text}`")))
}

/// The planes of one binary, octal or hex digit: `x` is all-`X`, `z`
/// and `?` all-`Z`; `None` for a digit invalid in the base.
fn digit_planes(c: char, bits_per: u32) -> Option<(u64, u64)> {
    let all = (1u64 << bits_per) - 1;
    match c.to_ascii_lowercase() {
        'x' => Some((all, all)),
        'z' | '?' => Some((0, all)),
        _ => c.to_digit(1 << bits_per).map(|d| (d.into(), 0)),
    }
}

/// A binary, octal or hex literal of at most 64 bits, accumulated in
/// one plane pair. Digits past the top of the word drop off, which
/// truncates to the declared width; below the declared width the
/// value extends with its top digit when that is `X`/`Z`, else with
/// zeros.
fn based_word(
    digits: &str,
    bits_per: u32,
    width: usize,
    text: &str,
) -> Result<LogicVec, LiteralError> {
    let (mut a, mut b) = (0u64, 0u64);
    let mut ext = None;
    let mut nbits = 0u32;
    let mut bad = None;
    for c in digit_chars(digits) {
        let Some((da, db)) = digit_planes(c, bits_per) else {
            // The rightmost bad digit is the one reported.
            bad = Some(c);
            continue;
        };
        // An unknown digit is uniform, so its low bit is its top bit.
        ext.get_or_insert(if db == 0 {
            (0, 0)
        } else {
            (0u64.wrapping_sub(da & 1), u64::MAX)
        });
        a = (a << bits_per) | da;
        b = (b << bits_per) | db;
        nbits = nbits.saturating_add(bits_per);
    }
    if let Some(c) = bad {
        return Err(LiteralError::new(format!("bad digit `{c}` in `{text}`")));
    }
    if let (Some((ea, eb)), Some(fill)) = (ext, u64::MAX.checked_shl(nbits)) {
        a |= ea & fill;
        b |= eb & fill;
    }
    Ok(LogicVec::from_planes_u64(width, a, b))
}

/// A binary, octal or hex literal wider than 64 bits, built bit by bit.
fn based_bits(
    digits: &str,
    bits_per: u32,
    width: usize,
    text: &str,
) -> Result<LogicVec, LiteralError> {
    // Build LSB-first bit list from the MSB-first digit string.
    let mut bits: Vec<LogicBit> = Vec::with_capacity(width);
    for c in digit_chars(digits).rev() {
        let (da, db) = digit_planes(c, bits_per)
            .ok_or_else(|| LiteralError::new(format!("bad digit `{c}` in `{text}`")))?;
        for k in 0..bits_per {
            bits.push(LogicBit::from_planes(
                (da >> k) & 1 == 1,
                (db >> k) & 1 == 1,
            ));
        }
    }
    // Resize to declared width: truncate or extend. Verilog extends
    // with the top bit when it is X/Z, else with zeros.
    let top = *bits.last().expect("non-empty digits");
    let ext = if top.is_unknown() {
        top
    } else {
        LogicBit::Zero
    };
    bits.resize(width.max(bits.len()), ext);
    bits.truncate(width);
    Ok(LogicVec::from_bits_lsb_first(bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_decimal_is_32_bits() {
        let l = parse_literal("42").unwrap();
        assert_eq!(l.value.width(), 32);
        assert_eq!(l.value.to_u64(), Some(42));
        assert!(!l.sized);
    }

    #[test]
    fn sized_hex() {
        let l = parse_literal("8'hA5").unwrap();
        assert_eq!(l.value.width(), 8);
        assert_eq!(l.value.to_u64(), Some(0xA5));
        assert!(l.sized);
    }

    #[test]
    fn sized_binary_with_x() {
        let l = parse_literal("4'b1x0z").unwrap();
        assert_eq!(l.value.bit(3), LogicBit::One);
        assert_eq!(l.value.bit(2), LogicBit::X);
        assert_eq!(l.value.bit(1), LogicBit::Zero);
        assert_eq!(l.value.bit(0), LogicBit::Z);
    }

    #[test]
    fn sized_decimal() {
        let l = parse_literal("12'd95").unwrap();
        assert_eq!(l.value.width(), 12);
        assert_eq!(l.value.to_u64(), Some(95));
    }

    #[test]
    fn octal() {
        let l = parse_literal("6'o77").unwrap();
        assert_eq!(l.value.to_u64(), Some(0o77));
    }

    #[test]
    fn unsized_based() {
        let l = parse_literal("'b101").unwrap();
        assert_eq!(l.value.width(), 32);
        assert_eq!(l.value.to_u64(), Some(5));
        assert!(!l.sized);
    }

    #[test]
    fn underscores_ignored() {
        let l = parse_literal("16'b1010_1010_1010_1010").unwrap();
        assert_eq!(l.value.to_u64(), Some(0xAAAA));
    }

    #[test]
    fn width_truncates() {
        let l = parse_literal("4'hFF").unwrap();
        assert_eq!(l.value.to_u64(), Some(0xF));
    }

    #[test]
    fn x_extension_to_declared_width() {
        let l = parse_literal("8'bx").unwrap();
        assert!(l.value.is_all_x());
        let l = parse_literal("8'dx").unwrap();
        assert!(l.value.is_all_x());
        let l = parse_literal("8'hz").unwrap();
        assert!(l.value.iter().all(|b| b == LogicBit::Z));
    }

    #[test]
    fn zero_extension_to_declared_width() {
        let l = parse_literal("8'b1").unwrap();
        assert_eq!(l.value.to_u64(), Some(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_literal("").is_err());
        assert!(parse_literal("8'q12").is_err());
        assert!(parse_literal("8'b2").is_err());
        assert!(parse_literal("0'b1").is_err());
        assert!(parse_literal("abc").is_err());
        assert!(parse_literal("8'").is_err());
        assert!(parse_literal("8'h").is_err());
    }
}
