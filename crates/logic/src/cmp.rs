//! Relational and equality operators on [`LogicVec`].

use crate::{LogicBit, LogicVec};
use std::cmp::Ordering;

impl LogicVec {
    /// Verilog logical equality `==`.
    ///
    /// Returns `0` if any pair of *defined* bits differs, `X` if the defined
    /// bits agree but either side has unknowns, `1` when fully defined and
    /// equal. Operands are zero-extended to equal widths first.
    pub fn logic_eq(&self, rhs: &LogicVec) -> LogicBit {
        // Word-parallel over the zero-extended planes, no clones.
        let (aa, ab) = (self.aval(), self.bval());
        let (ba, bb) = (rhs.aval(), rhs.bval());
        let n = aa.len().max(ba.len());
        let mut unknown = false;
        for i in 0..n {
            let (wa, xa) = (word(aa, i), word(ab, i));
            let (wb, xb) = (word(ba, i), word(bb, i));
            let defined = !xa & !xb;
            if (wa ^ wb) & defined != 0 {
                return LogicBit::Zero;
            }
            if (xa | xb) != 0 {
                unknown = true;
            }
        }
        if unknown {
            LogicBit::X
        } else {
            LogicBit::One
        }
    }

    /// Verilog logical inequality `!=`.
    pub fn logic_neq(&self, rhs: &LogicVec) -> LogicBit {
        self.logic_eq(rhs).not()
    }

    /// Verilog case equality `===`: exact four-state match (a plain `bool`).
    ///
    /// Operands are zero-extended to equal widths first, so
    /// `2'b01 === 4'b0001`.
    #[inline]
    pub fn case_eq(&self, rhs: &LogicVec) -> bool {
        match (self.inline_planes(), rhs.inline_planes()) {
            // Bits above `width` are zero, so two inline values compare
            // zero-extended as one plane pair at any widths — the hottest
            // path in grading loops.
            (Some(l), Some(r)) => l == r,
            _ => self.case_eq_words(rhs),
        }
    }

    /// [`LogicVec::case_eq`] when either side is a heap value.
    fn case_eq_words(&self, rhs: &LogicVec) -> bool {
        if self.width() == rhs.width() {
            // Canonical storage (top bits masked) makes this a plain
            // plane compare.
            return self.aval() == rhs.aval() && self.bval() == rhs.bval();
        }
        // Zero-extended compare: shared words equal, excess words zero.
        let (long, short) = if self.width() >= rhs.width() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let (la, lb) = (long.aval(), long.bval());
        let (sa, sb) = (short.aval(), short.bval());
        let n = sa.len();
        la[..n] == sa[..]
            && lb[..n] == sb[..]
            && la[n..].iter().all(|&w| w == 0)
            && lb[n..].iter().all(|&w| w == 0)
    }

    /// Unsigned comparison used by `<`, `<=`, `>`, `>=`.
    ///
    /// `None` when either operand has unknown bits (the operator result is
    /// then `X`).
    pub fn compare_unsigned(&self, rhs: &LogicVec) -> Option<Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let (aa, ba) = (self.aval(), rhs.aval());
        let n = aa.len().max(ba.len());
        for i in (0..n).rev() {
            match word(aa, i).cmp(&word(ba, i)) {
                Ordering::Equal => continue,
                other => return Some(other),
            }
        }
        Some(Ordering::Equal)
    }

    /// Verilog `<`.
    pub fn lt(&self, rhs: &LogicVec) -> LogicBit {
        match self.compare_unsigned(rhs) {
            Some(o) => LogicBit::from(o == Ordering::Less),
            None => LogicBit::X,
        }
    }

    /// Verilog `<=` (relational, not assignment).
    pub fn le(&self, rhs: &LogicVec) -> LogicBit {
        match self.compare_unsigned(rhs) {
            Some(o) => LogicBit::from(o != Ordering::Greater),
            None => LogicBit::X,
        }
    }

    /// Verilog `>`.
    pub fn gt(&self, rhs: &LogicVec) -> LogicBit {
        match self.compare_unsigned(rhs) {
            Some(o) => LogicBit::from(o == Ordering::Greater),
            None => LogicBit::X,
        }
    }

    /// Verilog `>=`.
    pub fn ge(&self, rhs: &LogicVec) -> LogicBit {
        match self.compare_unsigned(rhs) {
            Some(o) => LogicBit::from(o != Ordering::Less),
            None => LogicBit::X,
        }
    }

    /// `casez` pattern match: `Z`/`?` bits in `pattern` are wildcards.
    ///
    /// `X` bits in the selector that meet non-wildcard pattern bits make the
    /// match fail (conservative, like simulation of a fully-driven selector).
    pub fn matches_casez(&self, pattern: &LogicVec) -> bool {
        // Word-parallel: Z pattern bits (a=0, b=1) are wildcards; every
        // other position must match four-state exactly.
        let (sa, sb) = (self.aval(), self.bval());
        let (pa, pb) = (pattern.aval(), pattern.bval());
        let n = sa.len().max(pa.len());
        for i in 0..n {
            let (wsa, wsb) = (word(sa, i), word(sb, i));
            let (wpa, wpb) = (word(pa, i), word(pb, i));
            let wild = wpb & !wpa;
            if ((wsa ^ wpa) | (wsb ^ wpb)) & !wild != 0 {
                return false;
            }
        }
        true
    }
}

/// The `i`-th plane word of a zero-extended vector.
#[inline]
fn word(plane: &[u64], i: usize) -> u64 {
    plane.get(i).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(width: usize, val: u64) -> LogicVec {
        LogicVec::from_u64(width, val)
    }

    #[test]
    fn logic_eq_defined() {
        assert_eq!(v(4, 5).logic_eq(&v(4, 5)), LogicBit::One);
        assert_eq!(v(4, 5).logic_eq(&v(4, 6)), LogicBit::Zero);
        assert_eq!(v(4, 5).logic_neq(&v(4, 6)), LogicBit::One);
    }

    #[test]
    fn logic_eq_width_extension() {
        assert_eq!(v(2, 1).logic_eq(&v(8, 1)), LogicBit::One);
        assert_eq!(v(2, 1).logic_eq(&v(8, 5)), LogicBit::Zero);
    }

    #[test]
    fn logic_eq_unknowns() {
        let mut a = v(4, 0b0101);
        a.set_bit(3, LogicBit::X);
        // Defined bits equal -> X.
        let b = v(4, 0b0101);
        assert_eq!(a.logic_eq(&b), LogicBit::X);
        // Defined bits differ -> definite 0 even with X present.
        let c = v(4, 0b0110);
        assert_eq!(a.logic_eq(&c), LogicBit::Zero);
    }

    #[test]
    fn case_eq_exact() {
        let mut a = v(4, 0b0101);
        a.set_bit(3, LogicBit::X);
        let mut b = v(4, 0b0101);
        assert!(!a.case_eq(&b));
        b.set_bit(3, LogicBit::X);
        assert!(a.case_eq(&b));
        assert!(v(2, 1).case_eq(&v(4, 1)));
    }

    #[test]
    fn relational_defined() {
        assert_eq!(v(8, 3).lt(&v(8, 5)), LogicBit::One);
        assert_eq!(v(8, 5).lt(&v(8, 3)), LogicBit::Zero);
        assert_eq!(v(8, 5).le(&v(8, 5)), LogicBit::One);
        assert_eq!(v(8, 5).gt(&v(8, 3)), LogicBit::One);
        assert_eq!(v(8, 5).ge(&v(8, 6)), LogicBit::Zero);
    }

    #[test]
    fn relational_wide() {
        let big = LogicVec::from_u128(100, 1u128 << 70);
        let small = LogicVec::from_u64(100, u64::MAX);
        assert_eq!(big.gt(&small), LogicBit::One);
        assert_eq!(small.lt(&big), LogicBit::One);
    }

    #[test]
    fn relational_unknown_is_x() {
        assert_eq!(v(4, 3).lt(&LogicVec::all_x(4)), LogicBit::X);
        assert_eq!(LogicVec::all_x(4).ge(&v(4, 3)), LogicBit::X);
    }

    #[test]
    fn casez_wildcards() {
        let sel = v(4, 0b0100);
        let pat = LogicVec::from_binary_str("01??").unwrap();
        assert!(sel.matches_casez(&pat));
        assert!(v(4, 0b0111).matches_casez(&pat));
        assert!(!v(4, 0b1100).matches_casez(&pat));
    }
}
