//! Four-state logic values for Verilog simulation.
//!
//! This crate implements the value substrate of the MAGE reproduction: the
//! IEEE-1364 four-state logic domain (`0`, `1`, `X`, `Z`) over
//! arbitrary-width bit vectors, together with every operator the
//! synthesizable subset in `mage-verilog` can produce.
//!
//! The central type is [`LogicVec`], an arbitrary-width vector stored in the
//! classic *aval/bval* two-plane encoding (the same encoding the VPI uses):
//! for each bit, `(aval, bval)` decodes as `(0,0) = 0`, `(1,0) = 1`,
//! `(0,1) = Z`, `(1,1) = X`. This makes bitwise operators word-parallel and
//! keeps X-propagation cheap.
//!
//! A vector is stored inline, as one `(aval, bval)` word pair, if and only
//! if its width is at most 64, and the bits above its width are zero in
//! both planes. The operations a simulation step calls on every drive,
//! edge, commit and check (`case_eq`, `bit`, `get`, `resized`, `from_u64`,
//! `from_bool`, `assign_resized`, `write_slice_changed`) rely on that
//! invariant: their `#[inline]` word paths read and write the pair
//! directly, so callers in other crates inline them without LTO. On the
//! step path the per-word slice views serve only heap values and the
//! four-state operators; constructors and readers off it (`filled`,
//! `set_bit`, `slice`, `to_u64`, …) use them at every width.
//!
//! # Semantics
//!
//! * Bitwise operators follow the Verilog truth tables (`0 & X = 0`,
//!   `1 | X = 1`, `X ^ v = X`, …); `Z` inputs behave as `X`.
//! * Arithmetic (`+ - * / %`), shifts by an unknown amount, and relational
//!   operators produce all-`X` results when any operand bit is unknown,
//!   matching event-driven simulators such as Icarus Verilog.
//! * Logical equality `==` returns `0` when any *defined* bits differ, `X`
//!   when the defined bits agree but unknowns remain, `1` otherwise.
//! * All arithmetic is **unsigned**: the MAGE benchmark subset declares
//!   no signed values, so signed semantics are left out.
//!
//! # Example
//!
//! ```
//! use mage_logic::{LogicVec, LogicBit};
//!
//! let a = LogicVec::from_u64(8, 0x0F);
//! let b = LogicVec::from_u64(8, 0x01);
//! let sum = a.add(&b);
//! assert_eq!(sum.to_u64(), Some(0x10));
//!
//! let x = LogicVec::all_x(8);
//! assert!(a.add(&x).is_all_x());
//! assert_eq!(a.bit_and(&x).bit(4), LogicBit::Zero); // 0 & X = 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bit;
mod cmp;
mod fmt;
mod inplace;
mod literal;
mod ops;
mod truth;
mod vec;

pub use bit::LogicBit;
pub use literal::{parse_literal, LiteralError, ParsedLiteral};
pub use truth::Truth;
pub use vec::LogicVec;

/// FNV-1a hash of a byte string.
///
/// Stable across runs and platforms (unlike `DefaultHasher`), which is
/// why the workspace uses it everywhere a hash feeds a deterministic
/// seed or index: synthetic-model seeding, per-problem stimulus seeds,
/// the evaluation grid's unit seeds, and `mage-sim`'s signal-name index.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Number of 64-bit words needed to store `width` bits.
pub(crate) fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Mask selecting the valid bits of the top storage word for `width`.
#[inline]
pub(crate) fn top_word_mask(width: usize) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}
