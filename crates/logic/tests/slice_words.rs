//! Differential tests for the word-parallel `slice` / `write_slice` /
//! `write_slice_changed` against an independent bit-by-bit reference,
//! across word-boundary widths, negative offsets and out-of-range
//! windows. The reference works on a `Vec<LogicBit>` model and never
//! reads a `LogicVec` bit by bit, so it stays independent of the
//! `bit`/`get` word paths.

use mage_logic::{LogicBit, LogicVec};
use proptest::prelude::*;

/// The naive per-bit semantics `slice` must preserve, on the model of
/// the sliced vector.
fn slice_reference(v: &[LogicBit], lsb: isize, width: usize) -> LogicVec {
    LogicVec::from_bits_lsb_first((0..width).map(|i| {
        let src = lsb + i as isize;
        if src >= 0 {
            v.get(src as usize).copied().unwrap_or(LogicBit::X)
        } else {
            LogicBit::X
        }
    }))
}

/// The naive per-bit semantics `write_slice` must preserve, on the
/// models of the destination and the written value.
fn write_slice_reference(dst: &[LogicBit], lsb: isize, value: &[LogicBit]) -> LogicVec {
    let mut out = dst.to_vec();
    for (i, &bit) in value.iter().enumerate() {
        match lsb.checked_add(i as isize) {
            Some(d) if d >= 0 && (d as usize) < out.len() => out[d as usize] = bit,
            _ => {}
        }
    }
    LogicVec::from_bits_lsb_first(out)
}

/// The bits of a four-state pattern of the given width from a byte
/// seed, LSB first.
fn patterned_bits(width: usize, seed: u8) -> Vec<LogicBit> {
    (0..width)
        .map(
            |i| match (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed as u64) >> 62 {
                0 => LogicBit::Zero,
                1 => LogicBit::One,
                2 => LogicBit::X,
                _ => LogicBit::Z,
            },
        )
        .collect()
}

/// A four-state vector of the given width from a byte seed.
fn patterned(width: usize, seed: u8) -> LogicVec {
    LogicVec::from_bits_lsb_first(patterned_bits(width, seed))
}

/// `write_slice_changed` must equal the reference, report a change
/// exactly when the stored value differs, and agree with `write_slice`.
fn check_write_slice_changed(dst: &[LogicBit], lsb: isize, value: &[LogicBit]) {
    let before = LogicVec::from_bits_lsb_first(dst.iter().copied());
    let val = LogicVec::from_bits_lsb_first(value.iter().copied());
    let expected = write_slice_reference(dst, lsb, value);
    let what = format!("dwidth={}, vwidth={}, lsb={lsb}", dst.len(), value.len());
    let mut fast = before.clone();
    let changed = fast.write_slice_changed(lsb, &val);
    assert_eq!(fast, expected, "write_slice_changed({what})");
    assert_eq!(
        changed,
        expected != before,
        "flag of write_slice_changed({what})"
    );
    let mut plain = before.clone();
    plain.write_slice(lsb, &val);
    assert_eq!(plain, expected, "write_slice({what})");
    // Writing the same window again stores nothing new.
    assert!(!fast.write_slice_changed(lsb, &val), "rewrite({what})");
}

#[test]
fn slice_matches_reference_on_boundaries() {
    for &width in &[1usize, 7, 63, 64, 65, 127, 128, 129, 200] {
        let v = patterned(width, width as u8);
        for &lsb in &[
            -130isize, -65, -64, -63, -1, 0, 1, 31, 63, 64, 65, 100, 200, 260,
        ] {
            for &w in &[1usize, 2, 63, 64, 65, 128, 130] {
                let fast = v.slice(lsb, w);
                let slow = slice_reference(&patterned_bits(width, width as u8), lsb, w);
                assert_eq!(fast, slow, "slice(width={width}, lsb={lsb}, w={w})");
            }
        }
    }
}

#[test]
fn write_slice_matches_reference_on_boundaries() {
    for &dwidth in &[1usize, 63, 64, 65, 127, 128, 129, 200] {
        let dst = patterned(dwidth, 3);
        for &vwidth in &[1usize, 7, 64, 65, 128] {
            let val = patterned(vwidth, 11);
            for &lsb in &[
                -130isize, -65, -64, -63, -1, 0, 1, 32, 63, 64, 65, 127, 199, 250,
            ] {
                let mut fast = dst.clone();
                fast.write_slice(lsb, &val);
                let slow = write_slice_reference(
                    &patterned_bits(dwidth, 3),
                    lsb,
                    &patterned_bits(vwidth, 11),
                );
                assert_eq!(
                    fast, slow,
                    "write_slice(dwidth={dwidth}, vwidth={vwidth}, lsb={lsb})"
                );
            }
        }
    }
}

#[test]
fn write_slice_changed_matches_reference_on_boundaries() {
    // Inline and heap destinations and values, and windows that start
    // left of the destination, inside it and past its end, out to the
    // extreme offsets, where no offset arithmetic may overflow.
    for &dwidth in &[1usize, 2, 31, 63, 64, 65, 127, 128, 129, 200] {
        for &vwidth in &[1usize, 7, 32, 63, 64, 65, 128] {
            for &lsb in &[
                isize::MIN,
                isize::MIN + 1,
                -200,
                -129,
                -65,
                -64,
                -63,
                -8,
                -1,
                0,
                1,
                7,
                32,
                56,
                63,
                64,
                65,
                127,
                128,
                199,
                200,
                250,
                isize::MAX - 1,
                isize::MAX,
            ] {
                for seed in [0u8, 5] {
                    let dst = patterned_bits(dwidth, seed);
                    check_write_slice_changed(&dst, lsb, &patterned_bits(vwidth, seed ^ 0x5A));
                    // A window that rewrites what is already there.
                    let same: Vec<LogicBit> = (0..vwidth)
                        .map(|i| match lsb.checked_add(i as isize) {
                            Some(d) if d >= 0 && (d as usize) < dwidth => dst[d as usize],
                            _ => LogicBit::One,
                        })
                        .collect();
                    check_write_slice_changed(&dst, lsb, &same);
                }
            }
        }
    }
}

/// A width for a `write_slice_changed` operand: inline half the time,
/// heap the other half.
fn operand_width() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=64, 65usize..=200]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_slice_changed_matches_reference_prop(
        dwidth in operand_width(),
        vwidth in operand_width(),
        seed in any::<u8>(),
        offset in any::<u16>(),
        flip in any::<u16>(),
    ) {
        // `lsb` spans every placement: wholly left of the destination,
        // straddling bit 0, inside, straddling the top and past the end.
        let span = dwidth + vwidth + 16;
        let lsb = (offset as usize % span) as isize - vwidth as isize - 8;
        let dst = patterned_bits(dwidth, seed);
        // The written value agrees with the destination except at one
        // bit, so a changed flag is neither always true nor always false.
        // Each flip moves one plane: `Zero`→`Z` and `X`→`One` only bval,
        // `Z`→`X` and `One`→`Zero` only aval.
        let mut value: Vec<LogicBit> = (0..vwidth)
            .map(|i| {
                let d = lsb + i as isize;
                if d >= 0 && (d as usize) < dwidth {
                    dst[d as usize]
                } else {
                    LogicBit::Z
                }
            })
            .collect();
        let k = flip as usize % (vwidth + 1);
        if k < vwidth {
            value[k] = match value[k] {
                LogicBit::Zero => LogicBit::Z,
                LogicBit::Z => LogicBit::X,
                LogicBit::X => LogicBit::One,
                LogicBit::One => LogicBit::Zero,
            };
        }
        check_write_slice_changed(&dst, lsb, &value);
    }
}

proptest! {
    #[test]
    fn slice_matches_reference_prop(
        width in 1usize..260,
        seed in any::<u8>(),
        lsb in -300isize..300,
        w in 1usize..200,
    ) {
        let v = patterned(width, seed);
        prop_assert_eq!(v.slice(lsb, w), slice_reference(&patterned_bits(width, seed), lsb, w));
    }

    #[test]
    fn write_slice_matches_reference_prop(
        dwidth in 1usize..260,
        vwidth in 1usize..200,
        seed in any::<u8>(),
        lsb in -300isize..300,
    ) {
        let dst = patterned(dwidth, seed);
        let val = patterned(vwidth, seed.wrapping_add(31));
        let mut fast = dst.clone();
        fast.write_slice(lsb, &val);
        let expected = write_slice_reference(
            &patterned_bits(dwidth, seed),
            lsb,
            &patterned_bits(vwidth, seed.wrapping_add(31)),
        );
        prop_assert_eq!(fast, expected);
    }

    #[test]
    fn roundtrip_write_then_slice(
        dwidth in 1usize..200,
        vwidth in 1usize..64,
        lsb in 0isize..200,
        seed in any::<u8>(),
    ) {
        // Any in-range window written then read back is identity.
        prop_assume!((lsb as usize) + vwidth <= dwidth);
        let mut dst = patterned(dwidth, seed);
        let val = patterned(vwidth, seed.wrapping_mul(7).wrapping_add(1));
        dst.write_slice(lsb, &val);
        prop_assert_eq!(dst.slice(lsb, vwidth), val);
    }
}
