//! Property tests for the inline-vs-heap `LogicVec` representations.
//!
//! Widths ≤ 64 store their planes inline (no heap); wider vectors spill
//! to word vectors. These properties hammer the boundary: every
//! operation must behave identically whichever representation its
//! operands or result land in, and resizing across the boundary must be
//! lossless in both directions.

use mage_logic::{LogicBit, LogicVec};
use proptest::prelude::*;

/// Widths clustered tightly around the inline/heap boundary, plus the
/// extremes.
fn boundary_widths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        56usize..=72,
        Just(127usize),
        Just(128usize),
        Just(129usize),
    ]
}

fn any_vec_of(w: usize) -> impl Strategy<Value = LogicVec> {
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
}

fn boundary_vec() -> impl Strategy<Value = LogicVec> {
    boundary_widths().prop_flat_map(any_vec_of)
}

proptest! {
    #[test]
    fn repr_is_a_function_of_width(v in boundary_vec()) {
        prop_assert_eq!(v.is_inline(), v.width() <= 64);
        // Clones and resizes keep the invariant.
        prop_assert_eq!(v.clone().is_inline(), v.is_inline());
        let grown = v.resized(v.width() + 1);
        prop_assert_eq!(grown.is_inline(), grown.width() <= 64);
    }

    #[test]
    fn resize_across_boundary_roundtrips(v in any_vec_of(64)) {
        // Inline → heap → inline must be lossless.
        let heap = v.resized(65);
        prop_assert!(!heap.is_inline());
        prop_assert_eq!(heap.bit(64), LogicBit::Zero);
        let back = heap.resized(64);
        prop_assert!(back.is_inline());
        prop_assert!(back.case_eq(&v));
        // And through a much wider detour.
        let far = v.resized(200).resized(64);
        prop_assert!(far.case_eq(&v));
    }

    #[test]
    fn ops_agree_across_mixed_reprs(a in any_vec_of(60), b in any_vec_of(70)) {
        // A mixed-width op extends the inline operand into heap territory;
        // the result must equal the both-heap evaluation.
        let a_wide = a.resized(70);
        prop_assert!(a.bit_and(&b).case_eq(&a_wide.bit_and(&b)));
        prop_assert!(a.bit_or(&b).case_eq(&a_wide.bit_or(&b)));
        prop_assert!(a.bit_xor(&b).case_eq(&a_wide.bit_xor(&b)));
        prop_assert!(a.add(&b).case_eq(&a_wide.add(&b)));
        prop_assert!(a.sub(&b).case_eq(&a_wide.sub(&b)));
        prop_assert_eq!(a.logic_eq(&b), a_wide.logic_eq(&b));
        prop_assert_eq!(a.lt(&b), a_wide.lt(&b));
        prop_assert_eq!(a.case_eq(&b), a_wide.case_eq(&b));
    }

    #[test]
    fn inplace_ops_agree_across_boundary(w in 60usize..70, bits in proptest::collection::vec(0u8..4, 70)) {
        let decode = |k: &u8| match k {
            0 => LogicBit::Zero,
            1 => LogicBit::One,
            2 => LogicBit::X,
            _ => LogicBit::Z,
        };
        let a = LogicVec::from_bits_lsb_first(bits.iter().take(w).map(decode));
        let b = LogicVec::from_bits_lsb_first(bits.iter().rev().take(w).map(decode));
        let mut dst = LogicVec::new(w);
        dst.set_and(&a, &b);
        prop_assert!(dst.case_eq(&a.bit_and(&b)));
        dst.set_xor(&a, &b);
        prop_assert!(dst.case_eq(&a.bit_xor(&b)));
        dst.set_add(&a, &b);
        prop_assert!(dst.case_eq(&a.add(&b)));
        dst.set_not(&a);
        prop_assert!(dst.case_eq(&a.bit_not()));
    }

    #[test]
    fn concat_and_slice_across_boundary(a in any_vec_of(40), b in any_vec_of(40)) {
        // 40 + 40 = 80: two inline parts concatenate into a heap vector.
        let c = LogicVec::concat_msb_first(&[&a, &b]);
        prop_assert!(!c.is_inline());
        prop_assert!(c.slice(0, 40).case_eq(&b));
        prop_assert!(c.slice(40, 40).case_eq(&a));
        let back = c.slice(0, 80);
        prop_assert!(back.case_eq(&c));
    }

    #[test]
    fn write_slice_changed_across_boundary(base in boundary_vec(), patch in any_vec_of(17)) {
        let mut target = base.clone();
        let lsb = (base.width() / 2) as isize;
        let changed = target.write_slice_changed(lsb, &patch);
        // Reference: clone-and-compare semantics.
        let mut reference = base.clone();
        reference.write_slice(lsb, &patch);
        prop_assert!(target.case_eq(&reference));
        prop_assert_eq!(changed, !reference.case_eq(&base));
        // Re-applying the same patch is now a no-op.
        prop_assert!(!target.write_slice_changed(lsb, &patch));
    }

    #[test]
    fn u64_u128_conversions_respect_repr(x in any::<u64>()) {
        for w in [64usize, 65, 128] {
            let v = LogicVec::from_u64(w, x);
            prop_assert_eq!(v.is_inline(), w <= 64);
            prop_assert_eq!(v.to_u64(), Some(x));
            let wide = LogicVec::from_u128(w.max(65), (x as u128) << 1);
            prop_assert_eq!(wide.to_u128(), Some((x as u128) << 1));
        }
    }
}

// ----------------------------------------------------------------------
// Word paths against the heap path
// ----------------------------------------------------------------------
//
// The step-path operations (`case_eq`, `bit`/`get`, `resized`,
// `from_u64`/`from_bool`, `assign_resized`, `write_slice_changed`) read
// and write an inline value's plane pair directly. Every executor
// commits through them, so the lockstep suites cannot see a bug here
// that all executors share. Each property checks the word path against
// a `Vec<LogicBit>` model and against the value's heap twin: the same
// value widened by 64 bits, which runs the slice-view path, and narrowed
// back where the result is a value. Expected values are built from the
// model with `from_bits_lsb_first` and compared with the derived `==`,
// never read back through `bit`/`get`.

/// One bit of a four-state model.
fn any_bit() -> impl Strategy<Value = LogicBit> {
    prop_oneof![
        Just(LogicBit::Zero),
        Just(LogicBit::One),
        Just(LogicBit::X),
        Just(LogicBit::Z)
    ]
}

/// A model of 1..=64 bits: an inline value.
fn inline_model() -> impl Strategy<Value = Vec<LogicBit>> {
    proptest::collection::vec(any_bit(), 1..=64)
}

/// A model of either representation: inline three times in four,
/// heap (65..=192 bits) otherwise.
fn any_model() -> impl Strategy<Value = Vec<LogicBit>> {
    prop_oneof![
        inline_model(),
        inline_model(),
        inline_model(),
        proptest::collection::vec(any_bit(), 65..=192),
    ]
}

/// The value a model describes.
fn value(model: &[LogicBit]) -> LogicVec {
    LogicVec::from_bits_lsb_first(model.iter().copied())
}

/// The model resized to `width`: truncated, or zero-extended.
fn resized_model(model: &[LogicBit], width: usize) -> Vec<LogicBit> {
    let mut out = model.to_vec();
    out.resize(width, LogicBit::Zero);
    out
}

/// The heap twin of `v`: the same bits, 64 zero bits wider.
fn heap_twin(v: &LogicVec) -> LogicVec {
    let twin = v.resized(v.width() + 64);
    assert!(!twin.is_inline());
    twin
}

/// A bit other than `b`.
fn other_bit(b: LogicBit, k: u8) -> LogicBit {
    let all = [LogicBit::Zero, LogicBit::One, LogicBit::X, LogicBit::Z];
    let rest: Vec<LogicBit> = all.into_iter().filter(|&o| o != b).collect();
    rest[k as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn word_case_eq_matches_model_and_heap_twin(
        a in inline_model(),
        b in any_model(),
        pos in any::<u16>(),
        k in any::<u8>(),
    ) {
        // Compare `a` with an unrelated value, with itself zero-extended
        // to `b`'s width, and with that extension one bit off.
        let n = a.len().max(b.len());
        let same = resized_model(&a, n);
        let mut near = same.clone();
        let p = pos as usize % n;
        near[p] = other_bit(near[p], k);
        let va = value(&a);
        for rhs in [b, same, near] {
            let expected = resized_model(&a, n) == resized_model(&rhs, n);
            let vr = value(&rhs);
            prop_assert_eq!(va.case_eq(&vr), expected);
            prop_assert_eq!(vr.case_eq(&va), expected);
            prop_assert_eq!(va.case_eq(&heap_twin(&vr)), expected);
            prop_assert_eq!(heap_twin(&va).case_eq(&vr), expected);
            prop_assert_eq!(heap_twin(&va).case_eq(&heap_twin(&vr)), expected);
        }
    }

    #[test]
    fn word_bit_and_get_match_model_and_heap_twin(m in any_model()) {
        let v = value(&m);
        let twin = heap_twin(&v);
        for i in 0..m.len() + 70 {
            prop_assert_eq!(v.get(i), m.get(i).copied());
            let twin_bit = if i < v.width() + 64 {
                Some(m.get(i).copied().unwrap_or(LogicBit::Zero))
            } else {
                None
            };
            prop_assert_eq!(twin.get(i), twin_bit);
            if i < m.len() {
                prop_assert_eq!(v.bit(i), m[i]);
                prop_assert_eq!(twin.bit(i), m[i]);
            }
        }
    }

    #[test]
    fn word_resized_matches_model_and_heap_twin(m in any_model(), to in 1usize..=200) {
        // Every direction: inline to inline, across 64 up and down, and
        // heap to heap.
        let v = value(&m);
        let expected = value(&resized_model(&m, to));
        let got = v.resized(to);
        prop_assert_eq!(got.is_inline(), to <= 64);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&heap_twin(&v).resized(to), &expected);
        // Across 64 and back again is lossless up to the narrower width.
        let there_and_back = v.resized(to).resized(m.len());
        let kept = resized_model(&resized_model(&m, to), m.len());
        prop_assert_eq!(there_and_back, value(&kept));
    }

    #[test]
    fn word_from_u64_matches_model(x in any::<u64>(), width in 1usize..=130, b in any::<bool>()) {
        let bits: Vec<LogicBit> = (0..width)
            .map(|i| LogicBit::from(i < 64 && (x >> i) & 1 == 1))
            .collect();
        let v = LogicVec::from_u64(width, x);
        prop_assert_eq!(v.is_inline(), width <= 64);
        prop_assert_eq!(&v, &value(&bits));
        // The heap twin holds the same number, narrowed back.
        prop_assert_eq!(&heap_twin(&v).resized(width), &v);
        prop_assert_eq!(LogicVec::from_bool(b), value(&[LogicBit::from(b)]));
    }

    #[test]
    fn word_assign_resized_matches_model_and_heap_twin(dst in any_model(), src in any_model()) {
        let expected = value(&resized_model(&src, dst.len()));
        let vsrc = value(&src);
        for s in [vsrc.clone(), heap_twin(&vsrc)] {
            let mut d = value(&dst);
            let was_inline = d.is_inline();
            d.assign_resized(&s);
            prop_assert_eq!(d.is_inline(), was_inline);
            prop_assert_eq!(&d, &expected);
            // A heap destination, narrowed back.
            let mut twin = heap_twin(&value(&dst));
            twin.assign_resized(&s);
            prop_assert_eq!(&twin.resized(dst.len()), &expected);
        }
    }

    #[test]
    fn word_write_slice_changed_matches_model_and_heap_twin(
        dst in inline_model(),
        val in any_model(),
        offset in any::<u16>(),
    ) {
        // `lsb` from wholly left of the destination to past its end.
        let span = dst.len() + val.len() + 16;
        let lsb = (offset as usize % span) as isize - val.len() as isize - 8;
        let mut model = dst.clone();
        for (i, &bit) in val.iter().enumerate() {
            let d = lsb + i as isize;
            if d >= 0 && (d as usize) < model.len() {
                model[d as usize] = bit;
            }
        }
        let expected = value(&model);
        let before = value(&dst);
        let vval = value(&val);
        let mut got = before.clone();
        let changed = got.write_slice_changed(lsb, &vval);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(changed, expected != before);
        let mut plain = before.clone();
        plain.write_slice(lsb, &vval);
        prop_assert_eq!(&plain, &expected);
        // The heap twin takes the same window; narrowed back, it holds
        // the same value.
        let mut twin = heap_twin(&before);
        twin.write_slice_changed(lsb, &vval);
        prop_assert_eq!(&twin.resized(dst.len()), &expected);
    }
}
