//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim implements
//! the strategy/runner subset the MAGE property tests use: strategies as
//! pure generators over a deterministic RNG, the [`proptest!`] macro, the
//! `prop_assert*` family and [`prop_oneof!`]. **No shrinking** — a failing
//! case reports its case index and per-test seed so it can be replayed by
//! rerunning the (deterministic) test.
//!
//! Supported surface:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `prop_recursive`,
//!   `boxed`;
//! * integer range strategies (`1usize..=96`, `0u64..1000`, …),
//!   [`any`]`::<T>()`, [`Just`], strategy tuples;
//! * [`collection::vec`], [`option::of`], [`sample::select`];
//! * [`proptest!`] with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`].

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

pub mod test_runner {
    //! Configuration and the deterministic per-test RNG.

    pub use rand::rngs::StdRng as TestRng;

    /// Runner configuration (the subset the workspace uses).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required per test.
        pub cases: u32,
        /// Give-up threshold for `prop_assume!` rejections.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_global_rejects: 4096,
            }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }
}

use test_runner::TestRng;

/// Why a test case did not succeed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried.
    Reject(String),
    /// An assertion failed; the test fails.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    /// An input rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

// ----------------------------------------------------------------------
// Strategy core
// ----------------------------------------------------------------------

/// A value generator. Unlike real proptest there is no value tree and no
/// shrinking: a strategy is a pure function of the RNG stream.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` derives
    /// from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Recursive strategies: `self` is the leaf; `f` builds one level
    /// from the strategy for the level below. `depth` bounds nesting;
    /// `desired_size`/`expected_branch_size` are accepted for API
    /// compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // Each level: half leaf, half one more layer of structure, so
            // generation terminates with geometrically-bounded size.
            cur = Union::new(vec![leaf.clone(), f(cur).boxed()]).boxed();
        }
        cur
    }

    /// Type-erase into a clonable, shareable strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Clonable type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn StrategyObj<Value = T>>);

/// Object-safe strategy surface backing [`BoxedStrategy`].
trait StrategyObj {
    type Value;
    fn generate_obj(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> StrategyObj for S {
    type Value = S::Value;
    fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_obj(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice among same-valued strategies (backs [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the (non-empty) arm list.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        use rand::Rng;
        let ix = rng.gen_range(0..self.arms.len());
        self.arms[ix].generate(rng)
    }
}

// ----------------------------------------------------------------------
// Primitive strategies
// ----------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i64, isize);

impl Strategy for Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        use rand::Rng;
        assert!(self.start < self.end, "empty range");
        let span = self.end - self.start;
        if span <= u64::MAX as u128 {
            self.start + rng.gen_range(0..span as u64) as u128
        } else {
            // Wide spans: rejection-free folding is fine for tests.
            self.start + rng.gen::<u128>() % span
        }
    }
}

impl Strategy for RangeInclusive<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        use rand::Rng;
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u128::MAX {
            rng.gen::<u128>()
        } else if span < u64::MAX as u128 {
            lo + rng.gen_range(0..=span as u64) as u128
        } else {
            lo + rng.gen::<u128>() % (span + 1)
        }
    }
}

impl Strategy for &str {
    type Value = String;

    /// String-pattern strategy: the subset `[<class>]{m,n}` of proptest's
    /// regex strategies (a single character class with a repetition
    /// count), which is all the workspace uses.
    fn generate(&self, rng: &mut TestRng) -> String {
        use rand::Rng;
        let (class, min, max) = parse_char_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern strategy: {self:?}"));
        let len = rng.gen_range(min..=max);
        (0..len)
            .map(|_| class[rng.gen_range(0..class.len())])
            .collect()
    }
}

/// Parse `[<chars-and-ranges>]{m,n}` into (alphabet, m, n).
fn parse_char_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (class_src, rest) = rest.split_at(close);
    let rest = rest.strip_prefix(']')?;
    let rest = rest.strip_prefix('{')?;
    let rest = rest.strip_suffix('}')?;
    let (m, n) = match rest.split_once(',') {
        Some((m, n)) => (m.trim().parse().ok()?, n.trim().parse().ok()?),
        None => {
            let k = rest.trim().parse().ok()?;
            (k, k)
        }
    };
    let chars: Vec<char> = class_src.chars().collect();
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            for c in lo..=hi {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    Some((alphabet, m, n))
}

/// Full-domain strategy for `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full-domain strategy for `T`, proptest-style.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_via_rand {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                use rand::Rng;
                rng.gen()
            }
        }
    )*};
}
impl_arbitrary_via_rand!(bool, u8, u16, u32, u64, u128, usize);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

// ----------------------------------------------------------------------
// Collection / option / sample strategies
// ----------------------------------------------------------------------

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Sizes accepted by [`vec()`]: a fixed `usize` or a range.
    pub trait IntoSizeRange {
        /// Lower and inclusive upper bound.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }
    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }
    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// `Vec` strategy with element strategy `element` and size `size`.
    // Shadows `std::vec!` in doc-link resolution; harmless.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = if self.min == self.max {
                self.min
            } else {
                rng.gen_range(self.min..=self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{Strategy, TestRng};

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            use rand::Rng;
            if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod sample {
    //! Sampling from fixed collections.

    use super::{Strategy, TestRng};

    /// Uniformly select one element of `items`.
    pub fn select<T: Clone + 'static>(items: &'static [T]) -> Select<T> {
        assert!(!items.is_empty(), "select from empty slice");
        Select { items }
    }

    /// The strategy returned by [`select`].
    pub struct Select<T: 'static> {
        items: &'static [T],
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::Rng;
            self.items[rng.gen_range(0..self.items.len())].clone()
        }
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Drives one `proptest!`-declared test: repeatedly generates inputs via
/// `case` until `config.cases` successes, panicking on the first failure.
/// Used by the macro expansion; not part of the public proptest API.
#[doc(hidden)]
pub fn run_proptest(
    test_name: &str,
    config: &test_runner::ProptestConfig,
    case: impl Fn(&mut TestRng) -> TestCaseResult,
) {
    use rand::SeedableRng;
    // Deterministic per-test seed: tests are reproducible run to run.
    let seed = fnv1a(test_name.as_bytes());
    let mut rng = TestRng::seed_from_u64(seed);
    let mut successes = 0u32;
    let mut rejects = 0u32;
    let mut case_ix = 0u64;
    while successes < config.cases {
        case_ix += 1;
        match case(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "proptest `{test_name}`: too many prop_assume! rejections \
                         ({rejects}) after {successes} successful cases"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{test_name}` failed at case {case_ix} (seed {seed:#x}): {msg}");
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The proptest prelude: everything the test files import.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, Strategy, TestCaseError,
    };
}

// ----------------------------------------------------------------------
// Macros
// ----------------------------------------------------------------------

/// Declare property tests, proptest-style.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_proptest(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                |__proptest_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                    let __proptest_out: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    __proptest_out
                },
            );
        }
    )*};
}

/// Uniform choice among strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Reject the current inputs; the case is regenerated and not counted.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(w in 1usize..=96, v in 5u64..10) {
            prop_assert!((1..=96).contains(&w));
            prop_assert!((5..10).contains(&v));
        }

        #[test]
        fn map_and_flat_map_compose(v in evens(), (len, fill) in (1usize..5).prop_flat_map(|n| (Just(n), 0u8..10))) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!((1..5).contains(&len));
            prop_assert!(fill < 10);
        }

        #[test]
        fn oneof_and_vec(bits in crate::collection::vec(prop_oneof![Just(0u8), Just(1u8)], 1..20)) {
            prop_assert!(!bits.is_empty());
            prop_assert!(bits.iter().all(|&b| b <= 1));
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u32..100) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u8..16)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        use rand::SeedableRng;
        let mut rng = crate::test_runner::TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 4, "depth bound violated: {t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failures_panic() {
        proptest! {
            #[allow(unused)]
            fn always_fails(v in 0u32..10) {
                prop_assert!(v > 100, "v was {}", v);
            }
        }
        always_fails();
    }
}
