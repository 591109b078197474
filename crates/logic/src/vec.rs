//! Arbitrary-width four-state logic vectors.

use crate::{top_word_mask, words_for, LogicBit, Truth};

/// An arbitrary-width four-state logic vector.
///
/// Bits are indexed LSB-first (`bit(0)` is the least significant bit), the
/// way a Verilog `[width-1:0]` vector is. Storage uses the two-plane
/// *aval/bval* encoding described in the crate docs, so bitwise operators run
/// word-parallel.
///
/// Most operators live in the sibling modules and are exposed as inherent
/// methods: [`LogicVec::bit_and`], [`LogicVec::add`], [`LogicVec::logic_eq`],
/// and so on.
///
/// # Example
///
/// ```
/// use mage_logic::{LogicVec, LogicBit};
///
/// let v = LogicVec::from_u64(4, 0b1010);
/// assert_eq!(v.bit(1), LogicBit::One);
/// assert_eq!(v.bit(0), LogicBit::Zero);
/// assert_eq!(v.to_binary_string(), "1010");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: usize,
    repr: Repr,
}

/// Storage behind a [`LogicVec`].
///
/// Widths up to 64 bits — the overwhelmingly common case in the benchmark
/// corpus — live inline as a single aval/bval word pair, so cloning,
/// operator evaluation and interpreter slot writes do **zero** heap
/// allocation. Wider vectors spill to heap word vectors.
///
/// The variant is a pure function of `width` (`Small` iff `width <= 64`),
/// so the derived `PartialEq`/`Hash` remain canonical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline single-word planes (`width <= 64`).
    Small {
        /// "a" plane: 1-bits of the value (X and 1 both set this plane).
        aval: u64,
        /// "b" plane: unknown-ness (X and Z set this plane).
        bval: u64,
    },
    /// Heap word vectors (`width > 64`), lengths `words_for(width)`.
    Heap {
        /// "a" plane words, LSB word first.
        aval: Vec<u64>,
        /// "b" plane words, LSB word first.
        bval: Vec<u64>,
    },
}

impl LogicVec {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// An all-zero vector of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "LogicVec width must be non-zero");
        let repr = if width <= 64 {
            Repr::Small { aval: 0, bval: 0 }
        } else {
            let n = words_for(width);
            Repr::Heap {
                aval: vec![0; n],
                bval: vec![0; n],
            }
        };
        LogicVec { width, repr }
    }

    /// `true` when the value is stored inline (width ≤ 64, no heap).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// A vector with every bit set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn filled(width: usize, fill: LogicBit) -> Self {
        let mut v = Self::new(width);
        let (fa, fb) = fill.to_planes();
        let mask = top_word_mask(width);
        let (a, b) = v.planes_mut();
        let n = a.len();
        for i in 0..n {
            let m = if i + 1 == n { mask } else { u64::MAX };
            if fa {
                a[i] = m;
            }
            if fb {
                b[i] = m;
            }
        }
        v
    }

    /// An all-`X` vector of `width` bits (the value of an uninitialized reg).
    pub fn all_x(width: usize) -> Self {
        Self::filled(width, LogicBit::X)
    }

    /// An all-`Z` vector of `width` bits (the value of an undriven net).
    pub fn all_z(width: usize) -> Self {
        Self::filled(width, LogicBit::Z)
    }

    /// An all-ones vector of `width` bits.
    pub fn all_ones(width: usize) -> Self {
        Self::filled(width, LogicBit::One)
    }

    /// Build from the low `width` bits of `value` (zero-extended above 64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut v = Self::new(width);
        v.planes_mut().0[0] = value;
        v.mask_top();
        v
    }

    /// Build from the low `width` bits of `value` (zero-extended above 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_u128(width: usize, value: u128) -> Self {
        let mut v = Self::new(width);
        {
            let (a, _) = v.planes_mut();
            a[0] = value as u64;
            if a.len() > 1 {
                a[1] = (value >> 64) as u64;
            }
        }
        v.mask_top();
        v
    }

    /// A 1-bit vector holding `0` or `1`.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(1, b as u64)
    }

    /// Build an inline (≤ 64-bit) vector directly from its aval/bval
    /// plane words (bits above `width` are masked off). This is the
    /// bridge out of `mage-sim`'s two-state registers.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn from_planes_u64(width: usize, aval: u64, bval: u64) -> Self {
        assert!(
            width > 0 && width <= 64,
            "from_planes_u64 width must be in 1..=64"
        );
        let mask = top_word_mask(width);
        LogicVec {
            width,
            repr: Repr::Small {
                aval: aval & mask,
                bval: bval & mask,
            },
        }
    }

    /// The aval/bval plane words of an inline (≤ 64-bit) vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 64 bits.
    #[inline]
    pub fn planes_u64(&self) -> (u64, u64) {
        match &self.repr {
            Repr::Small { aval, bval } => (*aval, *bval),
            Repr::Heap { .. } => panic!("planes_u64 on a wide vector"),
        }
    }

    /// A 1-bit vector holding the given bit.
    pub fn from_bit(bit: LogicBit) -> Self {
        Self::filled(1, bit)
    }

    /// Build from bits given LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no bits.
    pub fn from_bits_lsb_first<I: IntoIterator<Item = LogicBit>>(bits: I) -> Self {
        let bits: Vec<LogicBit> = bits.into_iter().collect();
        assert!(!bits.is_empty(), "LogicVec needs at least one bit");
        let mut v = Self::new(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            v.set_bit(i, b);
        }
        v
    }

    /// Build from a binary string written MSB-first, e.g. `"10x0"`.
    ///
    /// Underscores are ignored. Returns `None` on invalid characters or an
    /// empty string.
    pub fn from_binary_str(s: &str) -> Option<Self> {
        let bits: Option<Vec<LogicBit>> = s
            .chars()
            .filter(|&c| c != '_')
            .map(LogicBit::from_char)
            .collect();
        let mut bits = bits?;
        if bits.is_empty() {
            return None;
        }
        bits.reverse(); // now LSB-first
        Some(Self::from_bits_lsb_first(bits))
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Width in bits. Always non-zero.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bit at LSB-first position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[inline]
    pub fn bit(&self, index: usize) -> LogicBit {
        assert!(index < self.width, "bit index {index} out of range");
        let w = index / 64;
        let b = index % 64;
        LogicBit::from_planes(
            (self.aval()[w] >> b) & 1 == 1,
            (self.bval()[w] >> b) & 1 == 1,
        )
    }

    /// The bit at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<LogicBit> {
        if index < self.width {
            Some(self.bit(index))
        } else {
            None
        }
    }

    /// Set the bit at LSB-first position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: usize, bit: LogicBit) {
        assert!(index < self.width, "bit index {index} out of range");
        let w = index / 64;
        let m = 1u64 << (index % 64);
        let (ba, bb) = bit.to_planes();
        let (a, b) = self.planes_mut();
        if ba {
            a[w] |= m;
        } else {
            a[w] &= !m;
        }
        if bb {
            b[w] |= m;
        } else {
            b[w] &= !m;
        }
    }

    /// Iterate over bits LSB-first.
    pub fn iter(&self) -> impl Iterator<Item = LogicBit> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }

    /// `true` when no bit is `X` or `Z`.
    ///
    /// Plane-level: a single word compare for inline vectors, a word
    /// scan for heap ones — this is the per-signal gate the simulator's
    /// two-state fast path checks before every dispatch, so it never
    /// walks bits.
    #[inline]
    pub fn is_fully_defined(&self) -> bool {
        match &self.repr {
            Repr::Small { bval, .. } => *bval == 0,
            Repr::Heap { bval, .. } => bval.iter().all(|&w| w == 0),
        }
    }

    /// The unknown-ness (`bval`) plane of a narrow vector as a single
    /// word: bit `i` is set iff bit `i` of the value is `X` or `Z`.
    ///
    /// Plane-level definedness query for the two-state interpreter —
    /// reading one plane skips the aval fetch that [`LogicVec::planes_u64`]
    /// pays for.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 64 bits.
    #[inline]
    pub fn undef_mask_u64(&self) -> u64 {
        match &self.repr {
            Repr::Small { bval, .. } => *bval,
            Repr::Heap { .. } => panic!("undef_mask_u64 on a wide vector"),
        }
    }

    /// `true` when at least one bit is `X` or `Z`.
    #[inline]
    pub fn has_unknown(&self) -> bool {
        !self.is_fully_defined()
    }

    /// `true` when every bit is `X`.
    pub fn is_all_x(&self) -> bool {
        self.iter().all(|b| b == LogicBit::X)
    }

    /// `true` when every bit is `0`.
    pub fn is_all_zero(&self) -> bool {
        self.is_fully_defined() && self.aval().iter().all(|&w| w == 0)
    }

    /// The value as `u64` when fully defined; `None` otherwise.
    ///
    /// Widths above 64 are accepted when the high bits are zero; if a defined
    /// bit above position 63 is set this returns `None`.
    pub fn to_u64(&self) -> Option<u64> {
        self.to_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as `u128` when fully defined; `None` otherwise.
    ///
    /// Widths above 128 are accepted when the high bits are zero; if a
    /// defined bit above position 127 is set this returns `None`.
    pub fn to_u128(&self) -> Option<u128> {
        if !self.is_fully_defined() {
            return None;
        }
        let a = self.aval();
        let mut v: u128 = a[0] as u128;
        if a.len() > 1 {
            v |= (a[1] as u128) << 64;
        }
        if a.iter().skip(2).any(|&w| w != 0) {
            return None;
        }
        Some(v)
    }

    /// Verilog truthiness of the vector.
    ///
    /// `True` when any bit is a definite `1`; `Unknown` when no bit is `1`
    /// but some bit is `X`/`Z`; `False` otherwise.
    pub fn truth(&self) -> Truth {
        let (a, b) = (self.aval(), self.bval());
        let mut any_unknown = false;
        for i in 0..a.len() {
            let definite_one = a[i] & !b[i];
            if definite_one != 0 {
                return Truth::True;
            }
            if b[i] != 0 {
                any_unknown = true;
            }
        }
        if any_unknown {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// Render MSB-first as a binary string, e.g. `"1x0z"`.
    pub fn to_binary_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| self.bit(i).to_char())
            .collect()
    }

    /// Render as an unsigned decimal string, or the binary string prefixed
    /// with `0b` when the value contains unknowns or exceeds 128 bits.
    pub fn to_display_string(&self) -> String {
        match self.to_u128() {
            Some(v) => format!("{v}"),
            None => format!("0b{}", self.to_binary_string()),
        }
    }

    // ------------------------------------------------------------------
    // Width adjustment / structure
    // ------------------------------------------------------------------

    /// Copy resized to `new_width`: zero-extended when growing, truncated
    /// (keeping the LSBs) when shrinking.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero.
    pub fn resized(&self, new_width: usize) -> Self {
        assert!(new_width > 0, "LogicVec width must be non-zero");
        if new_width == self.width {
            return self.clone();
        }
        let mut out = Self::new(new_width);
        {
            let (sa, sb) = (self.aval(), self.bval());
            let (oa, ob) = out.planes_mut();
            let n = oa.len().min(sa.len());
            oa[..n].copy_from_slice(&sa[..n]);
            ob[..n].copy_from_slice(&sb[..n]);
        }
        out.mask_top();
        out
    }

    /// Concatenate MSB-first, exactly like Verilog `{a, b, c}` where `a`
    /// supplies the most significant bits.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_msb_first(parts: &[&LogicVec]) -> Self {
        assert!(!parts.is_empty(), "concat of zero parts");
        let total: usize = parts.iter().map(|p| p.width).sum();
        let mut out = Self::new(total);
        let mut pos = 0usize;
        for part in parts.iter().rev() {
            for i in 0..part.width {
                out.set_bit(pos + i, part.bit(i));
            }
            pos += part.width;
        }
        out
    }

    /// Verilog replication `{n{self}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicate(&self, n: usize) -> Self {
        assert!(n > 0, "replication count must be non-zero");
        let refs: Vec<&LogicVec> = std::iter::repeat_n(self, n).collect();
        Self::concat_msb_first(&refs)
    }

    /// Extract `width` bits starting at LSB-first offset `lsb`.
    ///
    /// Bits that fall outside the vector read as `X`, matching Verilog
    /// out-of-range part-select semantics. Runs word-parallel: each
    /// output word is gathered with two shifts per plane, so wide-vector
    /// part-selects cost `O(width/64)` instead of `O(width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn slice(&self, lsb: isize, width: usize) -> Self {
        assert!(width > 0, "slice width must be non-zero");
        let mut out = Self::new(width);
        {
            let nbits = self.width;
            let (sa, sb) = (self.aval(), self.bval());
            let (oa, ob) = out.planes_mut();
            for w in 0..oa.len() {
                let start = lsb + (w as isize) * 64;
                let (abits, valid) = extract_word(sa, nbits, start);
                let (bbits, _) = extract_word(sb, nbits, start);
                // Out-of-range bits read X, i.e. both planes set.
                oa[w] = abits | !valid;
                ob[w] = bbits | !valid;
            }
        }
        out.mask_top();
        out
    }

    /// Dynamic bit-select `self[index]`: a 1-bit result, `X` when the index
    /// is unknown or out of range.
    pub fn bit_select(&self, index: &LogicVec) -> LogicVec {
        match index.to_u64() {
            Some(i) if (i as usize) < self.width => Self::from_bit(self.bit(i as usize)),
            _ => Self::from_bit(LogicBit::X),
        }
    }

    /// Overwrite `width` bits starting at `lsb` with bits from `value`
    /// (LSB-aligned). Bits outside the target range are ignored, matching a
    /// Verilog out-of-range indexed store. Word-parallel, like
    /// [`LogicVec::slice`]: each touched destination word is merged with
    /// one gather + mask per plane.
    pub fn write_slice(&mut self, lsb: isize, value: &LogicVec) {
        let dwidth = self.width;
        let vbits = value.width;
        let (va, vb) = (value.aval(), value.bval());
        let (da, db) = self.planes_mut();
        for w in 0..da.len() {
            // The value bit that lands at bit 0 of destination word `w`.
            let start = (w as isize) * 64 - lsb;
            let (abits, mut valid) = extract_word(va, vbits, start);
            let (bbits, _) = extract_word(vb, vbits, start);
            if (w + 1) * 64 > dwidth {
                valid &= top_word_mask(dwidth);
            }
            if valid == 0 {
                continue;
            }
            da[w] = (da[w] & !valid) | (abits & valid);
            db[w] = (db[w] & !valid) | (bbits & valid);
        }
    }

    /// Collapse all `Z` bits to `X` (expression-input normalization).
    pub fn normalized(&self) -> Self {
        let mut out = self.clone();
        let (a, b) = out.planes_mut();
        for i in 0..a.len() {
            // Z is (a=0,b=1) -> becomes X (a=1,b=1).
            a[i] |= b[i];
        }
        out
    }

    /// Count of bits equal to definite `1`.
    pub fn count_ones(&self) -> u32 {
        let (a, b) = (self.aval(), self.bval());
        (0..a.len()).map(|i| (a[i] & !b[i]).count_ones()).sum()
    }

    // ------------------------------------------------------------------
    // Internals shared with operator modules
    // ------------------------------------------------------------------

    pub(crate) fn aval(&self) -> &[u64] {
        match &self.repr {
            Repr::Small { aval, .. } => std::slice::from_ref(aval),
            Repr::Heap { aval, .. } => aval,
        }
    }

    pub(crate) fn bval(&self) -> &[u64] {
        match &self.repr {
            Repr::Small { bval, .. } => std::slice::from_ref(bval),
            Repr::Heap { bval, .. } => bval,
        }
    }

    pub(crate) fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.repr {
            Repr::Small { aval, bval } => (std::slice::from_mut(aval), std::slice::from_mut(bval)),
            Repr::Heap { aval, bval } => (aval, bval),
        }
    }

    /// Clear storage bits above `width` to keep the encoding canonical.
    pub(crate) fn mask_top(&mut self) {
        let mask = top_word_mask(self.width);
        let (a, b) = self.planes_mut();
        if let Some(last) = a.last_mut() {
            *last &= mask;
        }
        if let Some(last) = b.last_mut() {
            *last &= mask;
        }
    }
}

/// Gather 64 bits of a plane (`words`, `nbits` significant bits)
/// starting at bit offset `start` (may be negative). Returns the
/// gathered bits (zeroed outside validity) and the mask of gathered
/// positions that landed inside `[0, nbits)` — the word-parallel
/// primitive behind [`LogicVec::slice`] and [`LogicVec::write_slice`].
fn extract_word(words: &[u64], nbits: usize, start: isize) -> (u64, u64) {
    let lo = (-start).clamp(0, 64) as usize;
    let hi = (nbits as isize - start).clamp(0, 64) as usize;
    if hi <= lo {
        return (0, 0);
    }
    let valid = mask_range(lo, hi);
    let bits = if start >= 0 {
        let s = start as usize;
        let w0 = s / 64;
        let sh = s % 64;
        let mut v = words.get(w0).copied().unwrap_or(0) >> sh;
        if sh > 0 {
            v |= words.get(w0 + 1).copied().unwrap_or(0) << (64 - sh);
        }
        v
    } else {
        // `start` in [-63, -1]: the gather begins left of the plane
        // (starts further left were rejected by the validity check).
        words[0] << ((-start) as usize)
    };
    (bits & valid, valid)
}

/// Ones at bit positions `[lo, hi)`; requires `lo < hi <= 64`.
fn mask_range(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo < hi && hi <= 64);
    let span = hi - lo;
    if span == 64 {
        u64::MAX
    } else {
        ((1u64 << span) - 1) << lo
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> Self {
        LogicVec::from_bool(b)
    }
}

impl From<LogicBit> for LogicVec {
    fn from(b: LogicBit) -> Self {
        LogicVec::from_bit(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_read() {
        let v = LogicVec::from_u64(8, 0xA5);
        assert_eq!(v.width(), 8);
        assert_eq!(v.to_u64(), Some(0xA5));
        assert_eq!(v.bit(0), LogicBit::One);
        assert_eq!(v.bit(1), LogicBit::Zero);
        assert_eq!(v.bit(7), LogicBit::One);
    }

    #[test]
    fn from_u64_truncates_to_width() {
        let v = LogicVec::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn wide_values_roundtrip() {
        let v = LogicVec::from_u128(100, 0x0123_4567_89AB_CDEF_0011_2233u128);
        assert_eq!(v.to_u128(), Some(0x0123_4567_89AB_CDEF_0011_2233u128));
    }

    #[test]
    fn all_x_is_unknown() {
        let v = LogicVec::all_x(9);
        assert!(v.has_unknown());
        assert!(v.is_all_x());
        assert_eq!(v.to_u64(), None);
        assert_eq!(v.truth(), Truth::Unknown);
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::from_u64(4, 0).truth(), Truth::False);
        assert_eq!(LogicVec::from_u64(4, 2).truth(), Truth::True);
        // 1 in a defined position dominates X elsewhere.
        let mut v = LogicVec::all_x(4);
        v.set_bit(2, LogicBit::One);
        assert_eq!(v.truth(), Truth::True);
        // 0s and an X -> unknown.
        let mut v = LogicVec::new(4);
        v.set_bit(0, LogicBit::X);
        assert_eq!(v.truth(), Truth::Unknown);
    }

    #[test]
    fn binary_string_roundtrip() {
        let v = LogicVec::from_binary_str("1x0z_01").unwrap();
        assert_eq!(v.width(), 6);
        assert_eq!(v.to_binary_string(), "1x0z01");
        assert_eq!(v.bit(0), LogicBit::One);
        assert_eq!(v.bit(5), LogicBit::One);
        assert_eq!(v.bit(2), LogicBit::Z);
    }

    #[test]
    fn from_binary_rejects_bad_chars() {
        assert!(LogicVec::from_binary_str("10q").is_none());
        assert!(LogicVec::from_binary_str("").is_none());
        assert!(LogicVec::from_binary_str("___").is_none());
    }

    #[test]
    fn resize_zero_extends_and_truncates() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.resized(8).to_u64(), Some(0b0000_1010));
        assert_eq!(v.resized(2).to_u64(), Some(0b10));
        assert_eq!(v.resized(8).width(), 8);
    }

    #[test]
    fn resize_crossing_word_boundary() {
        let v = LogicVec::all_ones(64);
        let grown = v.resized(65);
        assert_eq!(grown.bit(64), LogicBit::Zero);
        assert_eq!(grown.bit(63), LogicBit::One);
        let shrunk = grown.resized(64);
        assert_eq!(shrunk.to_u64(), Some(u64::MAX));
    }

    #[test]
    fn concat_orders_msb_first() {
        let a = LogicVec::from_u64(4, 0xA);
        let b = LogicVec::from_u64(4, 0x5);
        let c = LogicVec::concat_msb_first(&[&a, &b]);
        assert_eq!(c.width(), 8);
        assert_eq!(c.to_u64(), Some(0xA5));
    }

    #[test]
    fn replicate_repeats_pattern() {
        let v = LogicVec::from_u64(2, 0b10);
        let r = v.replicate(3);
        assert_eq!(r.width(), 6);
        assert_eq!(r.to_u64(), Some(0b101010));
    }

    #[test]
    fn slice_in_range_and_out_of_range() {
        let v = LogicVec::from_u64(8, 0b1100_1010);
        assert_eq!(v.slice(1, 3).to_u64(), Some(0b101));
        // Out of range reads X.
        let s = v.slice(6, 4);
        assert_eq!(s.bit(0), LogicBit::One);
        assert_eq!(s.bit(1), LogicBit::One);
        assert_eq!(s.bit(2), LogicBit::X);
        assert_eq!(s.bit(3), LogicBit::X);
        // Negative base.
        let s = v.slice(-2, 3);
        assert_eq!(s.bit(0), LogicBit::X);
        assert_eq!(s.bit(1), LogicBit::X);
        assert_eq!(s.bit(2), LogicBit::Zero);
    }

    #[test]
    fn bit_select_dynamic() {
        let v = LogicVec::from_u64(8, 0b0000_0100);
        let idx = LogicVec::from_u64(3, 2);
        assert_eq!(v.bit_select(&idx).bit(0), LogicBit::One);
        let oob = LogicVec::from_u64(8, 200);
        assert_eq!(v.bit_select(&oob).bit(0), LogicBit::X);
        let unk = LogicVec::all_x(3);
        assert_eq!(v.bit_select(&unk).bit(0), LogicBit::X);
    }

    #[test]
    fn write_slice_clips() {
        let mut v = LogicVec::new(8);
        v.write_slice(6, &LogicVec::from_u64(4, 0xF));
        assert_eq!(v.to_u64(), Some(0b1100_0000));
        v.write_slice(-1, &LogicVec::from_u64(2, 0b11));
        assert_eq!(v.bit(0), LogicBit::One);
    }

    #[test]
    fn normalize_z_to_x() {
        let v = LogicVec::all_z(4).normalized();
        assert!(v.is_all_x());
    }

    #[test]
    fn count_ones_ignores_x() {
        let mut v = LogicVec::from_u64(8, 0b1111);
        v.set_bit(0, LogicBit::X);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "width must be non-zero")]
    fn zero_width_panics() {
        let _ = LogicVec::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_bit_panics() {
        let v = LogicVec::new(4);
        let _ = v.bit(4);
    }
}
