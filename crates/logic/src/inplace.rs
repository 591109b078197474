//! In-place operator variants on [`LogicVec`].
//!
//! The bytecode interpreter in `mage-sim` executes over a register file
//! of pre-sized slots. These methods let it write operator results
//! directly into a destination slot — no temporary vector, and (for heap
//! vectors) no reallocation — instead of allocating a fresh result at
//! every instruction. For inline (≤ 64-bit) vectors the normal operators
//! are already allocation-free; the in-place forms additionally avoid
//! them for wide vectors and make slot writes change-detecting.
//!
//! All `set_*` binary forms require both operands and the destination to
//! share one width (the compiler resolves widths once, so the interpreter
//! always satisfies this); `assign_resized` and
//! [`LogicVec::write_slice_changed`] handle the width-adjusting moves.

use crate::{LogicBit, LogicVec};

impl LogicVec {
    /// Overwrite `self` with `src` resized to `self`'s width (LSBs kept,
    /// zero-extended when growing). Width and storage of `self` are
    /// unchanged.
    #[inline]
    pub fn assign_resized(&mut self, src: &LogicVec) {
        let mask = crate::top_word_mask(self.width());
        match (self.inline_planes_mut(), src.inline_planes()) {
            (Some((a, b)), Some((sa, sb))) => {
                *a = sa & mask;
                *b = sb & mask;
            }
            _ => self.assign_resized_words(src),
        }
    }

    /// [`LogicVec::assign_resized`] when either side is a heap value.
    fn assign_resized_words(&mut self, src: &LogicVec) {
        {
            let (sa, sb) = (src.aval(), src.bval());
            let (oa, ob) = self.planes_mut();
            let n = oa.len().min(sa.len());
            oa[..n].copy_from_slice(&sa[..n]);
            ob[..n].copy_from_slice(&sb[..n]);
            for i in n..oa.len() {
                oa[i] = 0;
                ob[i] = 0;
            }
        }
        self.mask_top();
    }

    /// Set every bit of `self` to `fill` in place.
    pub fn fill(&mut self, fill: LogicBit) {
        let (fa, fb) = fill.to_planes();
        let mask = crate::top_word_mask(self.width());
        let (a, b) = self.planes_mut();
        let n = a.len();
        for i in 0..n {
            let m = if i + 1 == n { mask } else { u64::MAX };
            a[i] = if fa { m } else { 0 };
            b[i] = if fb { m } else { 0 };
        }
    }

    /// `self = a & b` (Verilog bitwise AND, X-propagating).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_and(&mut self, a: &LogicVec, b: &LogicVec) {
        debug_assert_eq!(a.width(), b.width());
        debug_assert_eq!(a.width(), self.width());
        let (aa, ab) = (a.aval(), a.bval());
        let (ba, bb) = (b.aval(), b.bval());
        let (oa, ob) = self.planes_mut();
        for i in 0..oa.len() {
            // Normalize Z to X on the fly: plane pairs become
            // 0 = (0,0), 1 = (1,0), X = (1,1).
            let (na, nx) = (aa[i] | ab[i], ab[i]);
            let (ma, mx) = (ba[i] | bb[i], bb[i]);
            let zero_a = !na;
            let zero_b = !ma;
            let any_x = nx | mx;
            let x = any_x & !zero_a & !zero_b;
            let ones = (na & !nx) & (ma & !mx);
            oa[i] = ones | x;
            ob[i] = x;
        }
        self.mask_top();
    }

    /// `self = a | b` (Verilog bitwise OR, X-propagating).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_or(&mut self, a: &LogicVec, b: &LogicVec) {
        debug_assert_eq!(a.width(), b.width());
        debug_assert_eq!(a.width(), self.width());
        let (aa, ab) = (a.aval(), a.bval());
        let (ba, bb) = (b.aval(), b.bval());
        let (oa, ob) = self.planes_mut();
        for i in 0..oa.len() {
            let (na, nx) = (aa[i] | ab[i], ab[i]);
            let (ma, mx) = (ba[i] | bb[i], bb[i]);
            let one_a = na & !nx;
            let one_b = ma & !mx;
            let any_x = nx | mx;
            let x = any_x & !one_a & !one_b;
            oa[i] = one_a | one_b | x;
            ob[i] = x;
        }
        self.mask_top();
    }

    /// `self = a ^ b` (Verilog bitwise XOR, X-propagating).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_xor(&mut self, a: &LogicVec, b: &LogicVec) {
        debug_assert_eq!(a.width(), b.width());
        debug_assert_eq!(a.width(), self.width());
        let (aa, ab) = (a.aval(), a.bval());
        let (ba, bb) = (b.aval(), b.bval());
        let (oa, ob) = self.planes_mut();
        for i in 0..oa.len() {
            let (na, nx) = (aa[i] | ab[i], ab[i]);
            let (ma, mx) = (ba[i] | bb[i], bb[i]);
            let x = nx | mx;
            oa[i] = (na ^ ma) | x;
            ob[i] = x;
        }
        self.mask_top();
    }

    /// `self = a ~^ b` (Verilog bitwise XNOR, X-propagating).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_xnor(&mut self, a: &LogicVec, b: &LogicVec) {
        self.set_xor(a, b);
        self.negate_defined();
    }

    /// `self = ~a` (Verilog bitwise NOT, X-propagating).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a` and `self` share one width.
    pub fn set_not(&mut self, a: &LogicVec) {
        debug_assert_eq!(a.width(), self.width());
        let (aa, ab) = (a.aval(), a.bval());
        let (oa, ob) = self.planes_mut();
        for i in 0..oa.len() {
            let (na, nx) = (aa[i] | ab[i], ab[i]);
            oa[i] = !na | nx;
            ob[i] = nx;
        }
        self.mask_top();
    }

    /// Invert the defined bits of `self` in place (helper for XNOR).
    fn negate_defined(&mut self) {
        let (oa, ob) = self.planes_mut();
        for i in 0..oa.len() {
            oa[i] = !oa[i] | ob[i];
        }
        self.mask_top();
    }

    /// `self = a + b` (wrapping at `self`'s width, all-X on unknown
    /// input).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_add(&mut self, a: &LogicVec, b: &LogicVec) {
        debug_assert_eq!(a.width(), b.width());
        debug_assert_eq!(a.width(), self.width());
        if a.has_unknown() || b.has_unknown() {
            self.fill(LogicBit::X);
            return;
        }
        let (aa, ba) = (a.aval(), b.aval());
        let (oa, ob) = self.planes_mut();
        let mut carry = 0u64;
        for i in 0..oa.len() {
            let (s1, c1) = aa[i].overflowing_add(ba[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            oa[i] = s2;
            ob[i] = 0;
            carry = (c1 as u64) + (c2 as u64);
        }
        self.mask_top();
    }

    /// `self = a - b` (wrapping at `self`'s width, all-X on unknown
    /// input).
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `a`, `b` and `self` share one width.
    pub fn set_sub(&mut self, a: &LogicVec, b: &LogicVec) {
        debug_assert_eq!(a.width(), b.width());
        debug_assert_eq!(a.width(), self.width());
        if a.has_unknown() || b.has_unknown() {
            self.fill(LogicBit::X);
            return;
        }
        let (aa, ba) = (a.aval(), b.aval());
        let (oa, ob) = self.planes_mut();
        let mut borrow = 0u64;
        for i in 0..oa.len() {
            let (d1, b1) = aa[i].overflowing_sub(ba[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            oa[i] = d2;
            ob[i] = 0;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.mask_top();
    }
}

#[cfg(test)]
mod tests {
    use crate::{LogicBit, LogicVec};

    fn v(w: usize, x: u64) -> LogicVec {
        LogicVec::from_u64(w, x)
    }

    #[test]
    fn set_ops_match_allocating_ops() {
        for w in [1usize, 7, 64, 65, 100] {
            let a = LogicVec::from_u128(w, 0xDEAD_BEEF_CAFE_F00D_1234u128).resized(w);
            let mut b = LogicVec::from_u128(w, 0x1111_2222_3333_4444_5555u128).resized(w);
            if w > 2 {
                b.set_bit(1, LogicBit::X);
                b.set_bit(2, LogicBit::Z);
            }
            let mut dst = LogicVec::new(w);
            dst.set_and(&a, &b);
            assert!(dst.case_eq(&a.bit_and(&b)), "and w={w}");
            dst.set_or(&a, &b);
            assert!(dst.case_eq(&a.bit_or(&b)), "or w={w}");
            dst.set_xor(&a, &b);
            assert!(dst.case_eq(&a.bit_xor(&b)), "xor w={w}");
            dst.set_xnor(&a, &b);
            assert!(dst.case_eq(&a.bit_xnor(&b)), "xnor w={w}");
            dst.set_not(&b);
            assert!(dst.case_eq(&b.bit_not()), "not w={w}");
            dst.set_add(&a, &b);
            assert!(dst.case_eq(&a.add(&b)), "add w={w}");
            dst.set_sub(&a, &b);
            assert!(dst.case_eq(&a.sub(&b)), "sub w={w}");
        }
    }

    #[test]
    fn assign_resized_extends_and_truncates() {
        let src = v(8, 0xA5);
        let mut wide = LogicVec::all_x(12);
        wide.assign_resized(&src);
        assert_eq!(wide.to_u64(), Some(0xA5));
        let mut narrow = LogicVec::all_x(4);
        narrow.assign_resized(&src);
        assert_eq!(narrow.to_u64(), Some(0x5));
        let mut heap = LogicVec::all_x(100);
        heap.assign_resized(&src);
        assert_eq!(heap.to_u64(), Some(0xA5));
        let mut small = LogicVec::all_x(8);
        small.assign_resized(&heap);
        assert_eq!(small.to_u64(), Some(0xA5));
    }

    #[test]
    fn write_slice_changed_detects_changes() {
        let mut t = v(8, 0b1010_0000);
        assert!(!t.write_slice_changed(5, &v(3, 0b101)), "same bits");
        assert!(t.write_slice_changed(0, &v(2, 0b11)));
        assert_eq!(t.to_u64(), Some(0b1010_0011));
        // Whole-width fast path.
        let mut t = v(8, 0x55);
        assert!(!t.write_slice_changed(0, &v(8, 0x55)));
        assert!(t.write_slice_changed(0, &v(8, 0x56)));
        assert_eq!(t.to_u64(), Some(0x56));
        // Clipping.
        let mut t = v(4, 0);
        assert!(t.write_slice_changed(3, &v(3, 0b111)));
        assert_eq!(t.to_u64(), Some(0b1000));
    }

    #[test]
    fn fill_matches_filled() {
        for w in [1usize, 64, 65, 130] {
            for bit in [LogicBit::Zero, LogicBit::One, LogicBit::X, LogicBit::Z] {
                let mut t = LogicVec::new(w);
                t.fill(bit);
                assert!(t.case_eq(&LogicVec::filled(w, bit)), "w={w} {bit:?}");
            }
        }
    }
}
