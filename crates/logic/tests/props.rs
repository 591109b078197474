//! Property-based tests: LogicVec operators against u128 reference
//! semantics on fully-defined values, plus structural invariants.

use mage_logic::{LogicBit, LogicVec, Truth};
use proptest::prelude::*;

/// A width in the range the benchmark subset uses heavily.
fn widths() -> impl Strategy<Value = usize> {
    1usize..=96
}

/// A fully-defined vector together with its u128 reference value.
fn defined_vec() -> impl Strategy<Value = (usize, u128)> {
    widths().prop_flat_map(|w| {
        let mask = if w >= 128 {
            u128::MAX
        } else {
            (1u128 << w) - 1
        };
        (Just(w), any::<u128>().prop_map(move |v| v & mask))
    })
}

/// An arbitrary four-state vector.
fn any_vec() -> impl Strategy<Value = LogicVec> {
    widths().prop_flat_map(|w| {
        proptest::collection::vec(
            prop_oneof![
                Just(LogicBit::Zero),
                Just(LogicBit::One),
                Just(LogicBit::X),
                Just(LogicBit::Z)
            ],
            w,
        )
        .prop_map(LogicVec::from_bits_lsb_first)
    })
}

fn mask(w: usize) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #[test]
    fn add_matches_u128((w, a) in defined_vec(), b in any::<u128>()) {
        let b = b & mask(w);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        let expect = a.wrapping_add(b) & mask(w);
        prop_assert_eq!(va.add(&vb).to_u128(), Some(expect));
    }

    #[test]
    fn sub_add_roundtrip((w, a) in defined_vec(), b in any::<u128>()) {
        let b = b & mask(w);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        let back = va.add(&vb).sub(&vb);
        prop_assert_eq!(back.to_u128(), Some(a));
    }

    #[test]
    fn mul_matches_u128((w, a) in defined_vec(), b in any::<u128>()) {
        let b = b & mask(w);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        let expect = a.wrapping_mul(b) & mask(w);
        prop_assert_eq!(va.mul(&vb).to_u128(), Some(expect));
    }

    #[test]
    fn div_rem_reconstruct((w, a) in defined_vec(), b in 1u128..=u64::MAX as u128) {
        let b = (b & mask(w)).max(1);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        let q = va.div(&vb).to_u128().unwrap();
        let r = va.rem(&vb).to_u128().unwrap();
        prop_assert_eq!(q, a / b);
        prop_assert_eq!(r, a % b);
        prop_assert_eq!((q * b + r) & mask(w), a);
    }

    #[test]
    fn bitwise_matches_u128((w, a) in defined_vec(), b in any::<u128>()) {
        let b = b & mask(w);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        prop_assert_eq!(va.bit_and(&vb).to_u128(), Some(a & b));
        prop_assert_eq!(va.bit_or(&vb).to_u128(), Some(a | b));
        prop_assert_eq!(va.bit_xor(&vb).to_u128(), Some(a ^ b));
        prop_assert_eq!(va.bit_not().to_u128(), Some(!a & mask(w)));
    }

    #[test]
    fn demorgan_holds_on_four_state(a in any_vec(), bits in proptest::collection::vec(0u8..4, 1..96)) {
        // ~(a & b) === ~a | ~b for equal widths, bit-exact including X/Z
        // normalization. (Mixed widths legitimately break De Morgan in
        // Verilog because ~ happens before zero-extension.)
        let b = LogicVec::from_bits_lsb_first(
            bits.into_iter()
                .cycle()
                .take(a.width())
                .map(|k| match k {
                    0 => LogicBit::Zero,
                    1 => LogicBit::One,
                    2 => LogicBit::X,
                    _ => LogicBit::Z,
                }),
        );
        let lhs = a.bit_and(&b).bit_not();
        let rhs = a.bit_not().bit_or(&b.bit_not());
        prop_assert!(lhs.case_eq(&rhs));
    }

    #[test]
    fn xor_self_is_zero_when_defined((w, a) in defined_vec()) {
        let v = LogicVec::from_u128(w, a);
        prop_assert!(v.bit_xor(&v).is_all_zero());
    }

    #[test]
    fn shifts_match_u128((w, a) in defined_vec(), amt in 0usize..130) {
        let v = LogicVec::from_u128(w, a);
        let expect_l = if amt >= 128 { 0 } else { (a << amt) & mask(w) };
        let expect_r = if amt >= 128 { 0 } else { (a & mask(w)) >> amt };
        prop_assert_eq!(v.shl_const(amt).to_u128(), Some(expect_l));
        prop_assert_eq!(v.shr_const(amt).to_u128(), Some(expect_r));
    }

    #[test]
    fn comparisons_match_u128((w, a) in defined_vec(), b in any::<u128>()) {
        let b = b & mask(w);
        let va = LogicVec::from_u128(w, a);
        let vb = LogicVec::from_u128(w, b);
        prop_assert_eq!(va.lt(&vb), LogicBit::from(a < b));
        prop_assert_eq!(va.le(&vb), LogicBit::from(a <= b));
        prop_assert_eq!(va.gt(&vb), LogicBit::from(a > b));
        prop_assert_eq!(va.ge(&vb), LogicBit::from(a >= b));
        prop_assert_eq!(va.logic_eq(&vb), LogicBit::from(a == b));
    }

    #[test]
    fn concat_slice_roundtrip(a in any_vec(), b in any_vec()) {
        let c = LogicVec::concat_msb_first(&[&a, &b]);
        prop_assert_eq!(c.width(), a.width() + b.width());
        let b_back = c.slice(0, b.width());
        let a_back = c.slice(b.width() as isize, a.width());
        prop_assert!(a_back.case_eq(&a));
        prop_assert!(b_back.case_eq(&b));
    }

    #[test]
    fn replicate_width_and_content(a in any_vec(), n in 1usize..5) {
        let r = a.replicate(n);
        prop_assert_eq!(r.width(), a.width() * n);
        for k in 0..n {
            prop_assert!(r.slice((k * a.width()) as isize, a.width()).case_eq(&a));
        }
    }

    #[test]
    fn binary_string_roundtrip(a in any_vec()) {
        let s = a.to_binary_string();
        let back = LogicVec::from_binary_str(&s).unwrap();
        prop_assert!(back.case_eq(&a));
    }

    #[test]
    fn display_parses_as_literal(a in any_vec()) {
        let lit = mage_logic::parse_literal(&a.to_string()).unwrap();
        prop_assert!(lit.value.case_eq(&a));
        prop_assert!(lit.sized);
    }

    #[test]
    fn resize_preserves_low_bits(a in any_vec(), grow in 1usize..70) {
        let grown = a.resized(a.width() + grow);
        for i in 0..a.width() {
            prop_assert_eq!(grown.bit(i), a.bit(i));
        }
        for i in a.width()..grown.width() {
            prop_assert_eq!(grown.bit(i), LogicBit::Zero);
        }
        let back = grown.resized(a.width());
        prop_assert!(back.case_eq(&a));
    }

    #[test]
    fn truth_matches_reference(a in any_vec()) {
        let any_one = a.iter().any(|b| b == LogicBit::One);
        let any_unknown = a.iter().any(|b| b.is_unknown());
        let expect = if any_one {
            Truth::True
        } else if any_unknown {
            Truth::Unknown
        } else {
            Truth::False
        };
        prop_assert_eq!(a.truth(), expect);
    }

    #[test]
    fn mux_unknown_select_merges(a in any_vec(), b in any_vec()) {
        let m = LogicVec::mux(Truth::Unknown, &a, &b);
        let w = a.width().max(b.width());
        let (ra, rb) = (a.resized(w), b.resized(w));
        for i in 0..w {
            let (ba, bb) = (ra.bit(i).normalized(), rb.bit(i).normalized());
            if ba == bb {
                prop_assert_eq!(m.bit(i), ba);
            } else {
                prop_assert_eq!(m.bit(i), LogicBit::X);
            }
        }
    }
}

/// The text of a based literal's digits: `picks` index the base's digit
/// alphabet (with `x`, `z` and `?` in either case) and, past its end,
/// an underscore or a space.
fn based_digits(base: char, picks: &[u8]) -> String {
    let alphabet = match base {
        'b' => "01xXzZ?",
        'o' => "01234567xXzZ?",
        _ => "0123456789abcdefABCDEFxXzZ?",
    };
    let alphabet: Vec<char> = alphabet.chars().chain(['_', ' ']).collect();
    let mut text: String = picks
        .iter()
        .map(|&p| alphabet[p as usize % alphabet.len()])
        .collect();
    // Lead with a digit, so the literal has one.
    text.insert(0, alphabet[picks[0] as usize % (alphabet.len() - 2)]);
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn narrow_literals_match_their_wide_twins(
        width in 1usize..=64,
        base in prop_oneof![Just('b'), Just('o'), Just('h'), Just('B'), Just('H')],
        picks in proptest::collection::vec(any::<u8>(), 1..=40),
    ) {
        // A literal of at most 64 bits is read in words; the same digits
        // 64 bits wider take the bit-by-bit path. Narrowed back, the two
        // values are equal: truncation keeps the low bits, and both
        // extend with the same top digit.
        let digits = based_digits(base.to_ascii_lowercase(), &picks);
        let narrow = mage_logic::parse_literal(&format!("{width}'{base}{digits}")).unwrap();
        let wide = mage_logic::parse_literal(&format!("{}'{base}{digits}", width + 64)).unwrap();
        prop_assert_eq!(narrow.value.width(), width);
        prop_assert!(!wide.value.is_inline());
        prop_assert_eq!(narrow.value, wide.value.resized(width));
        // A bad digit fails both the same way: the rightmost one is named.
        let bad = format!("{digits}g{digits}8");
        let narrow_text = format!("{width}'b{bad}");
        let wide_text = format!("{}'b{bad}", width + 64);
        let narrow_err = mage_logic::parse_literal(&narrow_text).unwrap_err().to_string();
        let wide_err = mage_logic::parse_literal(&wide_text).unwrap_err().to_string();
        prop_assert_eq!(narrow_err.replace(&narrow_text, ""), wide_err.replace(&wide_text, ""));
    }
}
