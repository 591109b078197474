//! Three-valued truthiness of Verilog expressions.

use crate::LogicBit;
use std::fmt;

/// The truth value of a Verilog expression used in a boolean context
/// (`if`, `&&`, `?:` selector, …).
///
/// # Example
///
/// ```
/// use mage_logic::{LogicVec, Truth};
///
/// assert_eq!(LogicVec::from_u64(4, 3).truth(), Truth::True);
/// assert_eq!(LogicVec::from_u64(4, 0).truth(), Truth::False);
/// assert_eq!(LogicVec::all_x(4).truth(), Truth::Unknown);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// Definitely non-zero.
    True,
    /// Definitely zero.
    False,
    /// Cannot be decided because of `X`/`Z` bits.
    Unknown,
}

impl Truth {
    /// Convert to the scalar logic bit Verilog produces for `&&`-style
    /// operators: `1`, `0`, or `X`.
    pub fn to_bit(self) -> LogicBit {
        match self {
            Truth::True => LogicBit::One,
            Truth::False => LogicBit::Zero,
            Truth::Unknown => LogicBit::X,
        }
    }

    /// `true` only when definitely true.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    /// Verilog `&&`.
    pub fn and(self, rhs: Truth) -> Truth {
        match (self, rhs) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Verilog `||`.
    pub fn or(self, rhs: Truth) -> Truth {
        match (self, rhs) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Verilog `!`.
    // Inherent `not` matches the Verilog operator vocabulary of the
    // sibling methods (`and`, `or`), like `LogicBit::not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Self {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_circuit_dominates_unknown() {
        assert_eq!(Truth::False.and(Truth::Unknown), Truth::False);
        assert_eq!(Truth::Unknown.and(Truth::False), Truth::False);
        assert_eq!(Truth::True.or(Truth::Unknown), Truth::True);
        assert_eq!(Truth::Unknown.or(Truth::True), Truth::True);
    }

    #[test]
    fn unknown_propagates_otherwise() {
        assert_eq!(Truth::True.and(Truth::Unknown), Truth::Unknown);
        assert_eq!(Truth::False.or(Truth::Unknown), Truth::Unknown);
        assert_eq!(Truth::Unknown.not(), Truth::Unknown);
    }

    #[test]
    fn to_bit_mapping() {
        assert_eq!(Truth::True.to_bit(), LogicBit::One);
        assert_eq!(Truth::False.to_bit(), LogicBit::Zero);
        assert_eq!(Truth::Unknown.to_bit(), LogicBit::X);
    }
}
