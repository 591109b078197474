//! The scalar four-state logic bit.

use std::fmt;

/// A single four-state logic bit.
///
/// The four states are the IEEE-1364 value set: strong `0`, strong `1`,
/// unknown `X`, and high-impedance `Z`. For every operator in this crate a
/// `Z` *input* behaves like `X` (as it does when a net with no driver is read
/// inside an expression).
///
/// # Example
///
/// ```
/// use mage_logic::LogicBit;
///
/// assert_eq!(LogicBit::Zero.and(LogicBit::X), LogicBit::Zero);
/// assert_eq!(LogicBit::One.or(LogicBit::X), LogicBit::One);
/// assert_eq!(LogicBit::One.xor(LogicBit::X), LogicBit::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogicBit {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl LogicBit {
    /// Encode as the `(aval, bval)` bit pair used by [`crate::LogicVec`].
    #[inline]
    pub fn to_planes(self) -> (bool, bool) {
        match self {
            LogicBit::Zero => (false, false),
            LogicBit::One => (true, false),
            LogicBit::Z => (false, true),
            LogicBit::X => (true, true),
        }
    }

    /// Decode from the `(aval, bval)` bit pair.
    #[inline]
    pub fn from_planes(aval: bool, bval: bool) -> Self {
        match (aval, bval) {
            (false, false) => LogicBit::Zero,
            (true, false) => LogicBit::One,
            (false, true) => LogicBit::Z,
            (true, true) => LogicBit::X,
        }
    }

    /// `true` when the bit is `X` or `Z`.
    #[inline]
    pub fn is_unknown(self) -> bool {
        matches!(self, LogicBit::X | LogicBit::Z)
    }

    /// `true` when the bit is exactly `0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == LogicBit::Zero
    }

    /// Verilog `&` on scalar bits; `Z` inputs behave as `X`.
    pub fn and(self, rhs: LogicBit) -> LogicBit {
        match (self.normalized(), rhs.normalized()) {
            (LogicBit::Zero, _) | (_, LogicBit::Zero) => LogicBit::Zero,
            (LogicBit::One, LogicBit::One) => LogicBit::One,
            _ => LogicBit::X,
        }
    }

    /// Verilog `|` on scalar bits; `Z` inputs behave as `X`.
    pub fn or(self, rhs: LogicBit) -> LogicBit {
        match (self.normalized(), rhs.normalized()) {
            (LogicBit::One, _) | (_, LogicBit::One) => LogicBit::One,
            (LogicBit::Zero, LogicBit::Zero) => LogicBit::Zero,
            _ => LogicBit::X,
        }
    }

    /// Verilog `^` on scalar bits; any unknown input yields `X`.
    pub fn xor(self, rhs: LogicBit) -> LogicBit {
        match (self.normalized(), rhs.normalized()) {
            (LogicBit::X, _) | (_, LogicBit::X) => LogicBit::X,
            (a, b) if a == b => LogicBit::Zero,
            _ => LogicBit::One,
        }
    }

    /// Verilog `~` on a scalar bit; unknown inputs yield `X`.
    // Inherent `not` predates the clippy lint and matches the Verilog
    // operator vocabulary of the sibling methods (`and`, `or`, `xor`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> LogicBit {
        match self.normalized() {
            LogicBit::Zero => LogicBit::One,
            LogicBit::One => LogicBit::Zero,
            _ => LogicBit::X,
        }
    }

    /// Collapse `Z` to `X` (the behaviour of a `Z` read in an expression).
    #[inline]
    pub fn normalized(self) -> LogicBit {
        if self == LogicBit::Z {
            LogicBit::X
        } else {
            self
        }
    }

    /// The character used in Verilog binary literals: `0`, `1`, `x`, `z`.
    pub fn to_char(self) -> char {
        match self {
            LogicBit::Zero => '0',
            LogicBit::One => '1',
            LogicBit::X => 'x',
            LogicBit::Z => 'z',
        }
    }

    /// Parse from a Verilog binary-literal character (case-insensitive).
    ///
    /// Returns `None` for characters outside `0`, `1`, `x`, `z`, `?`
    /// (`?` is an alias for `z` as in `casez` patterns).
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_lowercase() {
            '0' => Some(LogicBit::Zero),
            '1' => Some(LogicBit::One),
            'x' => Some(LogicBit::X),
            'z' | '?' => Some(LogicBit::Z),
            _ => None,
        }
    }
}

impl From<bool> for LogicBit {
    fn from(b: bool) -> Self {
        if b {
            LogicBit::One
        } else {
            LogicBit::Zero
        }
    }
}

impl fmt::Display for LogicBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [LogicBit; 4] = [LogicBit::Zero, LogicBit::One, LogicBit::X, LogicBit::Z];

    #[test]
    fn and_truth_table() {
        assert_eq!(LogicBit::Zero.and(LogicBit::X), LogicBit::Zero);
        assert_eq!(LogicBit::X.and(LogicBit::Zero), LogicBit::Zero);
        assert_eq!(LogicBit::One.and(LogicBit::One), LogicBit::One);
        assert_eq!(LogicBit::One.and(LogicBit::X), LogicBit::X);
        assert_eq!(LogicBit::Z.and(LogicBit::One), LogicBit::X);
        assert_eq!(LogicBit::X.and(LogicBit::X), LogicBit::X);
    }

    #[test]
    fn or_truth_table() {
        assert_eq!(LogicBit::One.or(LogicBit::X), LogicBit::One);
        assert_eq!(LogicBit::X.or(LogicBit::One), LogicBit::One);
        assert_eq!(LogicBit::Zero.or(LogicBit::Zero), LogicBit::Zero);
        assert_eq!(LogicBit::Zero.or(LogicBit::X), LogicBit::X);
        assert_eq!(LogicBit::Z.or(LogicBit::Zero), LogicBit::X);
    }

    #[test]
    fn xor_truth_table() {
        assert_eq!(LogicBit::One.xor(LogicBit::Zero), LogicBit::One);
        assert_eq!(LogicBit::One.xor(LogicBit::One), LogicBit::Zero);
        assert_eq!(LogicBit::One.xor(LogicBit::X), LogicBit::X);
        assert_eq!(LogicBit::Z.xor(LogicBit::Zero), LogicBit::X);
    }

    #[test]
    fn not_truth_table() {
        assert_eq!(LogicBit::Zero.not(), LogicBit::One);
        assert_eq!(LogicBit::One.not(), LogicBit::Zero);
        assert_eq!(LogicBit::X.not(), LogicBit::X);
        assert_eq!(LogicBit::Z.not(), LogicBit::X);
    }

    #[test]
    fn and_or_commutative() {
        for &a in &ALL {
            for &b in &ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn planes_roundtrip() {
        for &b in &ALL {
            let (a, bv) = b.to_planes();
            assert_eq!(LogicBit::from_planes(a, bv), b);
        }
    }

    #[test]
    fn char_roundtrip() {
        for &b in &ALL {
            assert_eq!(LogicBit::from_char(b.to_char()), Some(b));
        }
        assert_eq!(LogicBit::from_char('?'), Some(LogicBit::Z));
        assert_eq!(LogicBit::from_char('q'), None);
    }

    #[test]
    fn bool_conversion() {
        assert_eq!(LogicBit::from(true), LogicBit::One);
        assert_eq!(LogicBit::from(false), LogicBit::Zero);
    }
}
