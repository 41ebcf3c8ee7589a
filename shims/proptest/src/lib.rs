//! Offline API-compatible subset of the `proptest` crate.
//!
//! Implements the surface this workspace exercises: the [`proptest!`]
//! family of macros, [`strategy::Strategy`] with `prop_map`, ranges /
//! tuples / [`strategy::Just`] / [`prop_oneof!`] unions as strategies,
//! [`arbitrary::any`], `prop::collection::{vec, btree_set}`, and a
//! character-class pattern strategy for `&str`.
//!
//! Differences from the real crate, by design: cases are generated from a
//! deterministic per-test RNG (seeded from the test's module path and
//! case index) instead of an entropy source, and failing inputs are
//! reported but **not shrunk**. Both keep runs reproducible in hermetic
//! environments with no persisted regression files.

#![forbid(unsafe_code)]

pub mod test_runner {
    use rand::{RngCore, SeedableRng};

    /// Deterministic per-test-case generator.
    pub struct TestRng(rand::rngs::SmallRng);

    impl TestRng {
        /// RNG for case number `case` of the named test. Distinct tests
        /// and distinct cases get independent, reproducible streams.
        pub fn for_case(test_name: &str, case: u32) -> TestRng {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let seed = h.wrapping_add((u64::from(case) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            TestRng(rand::rngs::SmallRng::seed_from_u64(seed))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Why a generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// The input was rejected by `prop_assume!`; retry with new input.
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// Build a rejection.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration; only `cases` is interpreted.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Upper bound on `prop_assume!` rejections before the runner gives
    /// up (mirrors the real crate's global reject limit).
    pub const MAX_REJECTS: u32 = 4096;
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(self))
        }
    }

    /// Object-safe mirror of [`Strategy`], used for type erasure.
    #[doc(hidden)]
    pub trait ObjectStrategy<V> {
        fn generate_obj(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> ObjectStrategy<S::Value> for S {
        fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(std::rc::Rc<dyn ObjectStrategy<V>>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> BoxedStrategy<V> {
            BoxedStrategy(std::rc::Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_obj(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between erased strategies (built by [`prop_oneof!`]).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over non-empty `options`.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A.0);
    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);

    /// `&str` as a character-class pattern strategy (e.g.
    /// `"[a-z][a-z0-9-]{0,10}"`). Supports literal characters, `[...]`
    /// classes with ranges, and the `{n}` / `{n,m}` / `*` / `+` / `?`
    /// quantifiers — the regex subset this workspace uses.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for atom in crate::string::parse_pattern(self) {
                let reps = rng.gen_range(atom.min..=atom.max);
                for _ in 0..reps {
                    let i = rng.gen_range(0..atom.choices.len());
                    out.push(atom.choices[i]);
                }
            }
            out
        }
    }
}

pub mod string {
    /// One pattern element: a set of candidate characters plus a
    /// repetition range.
    pub(crate) struct Atom {
        pub choices: Vec<char>,
        pub min: usize,
        pub max: usize,
    }

    /// Unbounded quantifiers (`*`, `+`) are capped at this many reps.
    const UNBOUNDED_CAP: usize = 8;

    pub(crate) fn parse_pattern(pattern: &str) -> Vec<Atom> {
        let cs: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            let choices = match cs[i] {
                '[' => {
                    i += 1;
                    let mut set = Vec::new();
                    while i < cs.len() && cs[i] != ']' {
                        if i + 2 < cs.len() && cs[i + 1] == '-' && cs[i + 2] != ']' {
                            let (lo, hi) = (cs[i], cs[i + 2]);
                            assert!(lo <= hi, "bad char range in pattern {pattern:?}");
                            set.extend(lo..=hi);
                            i += 3;
                        } else {
                            set.push(cs[i]);
                            i += 1;
                        }
                    }
                    assert!(i < cs.len(), "unterminated [class] in pattern {pattern:?}");
                    i += 1; // consume ']'
                    set
                }
                '\\' => {
                    assert!(i + 1 < cs.len(), "dangling escape in pattern {pattern:?}");
                    i += 2;
                    vec![cs[i - 1]]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            assert!(!choices.is_empty(), "empty [class] in pattern {pattern:?}");
            let (min, max) = if i < cs.len() {
                match cs[i] {
                    '{' => {
                        let close = cs[i..]
                            .iter()
                            .position(|&c| c == '}')
                            .expect("unterminated {quantifier}")
                            + i;
                        let body: String = cs[i + 1..close].iter().collect();
                        i = close + 1;
                        match body.split_once(',') {
                            Some((lo, hi)) => (
                                lo.trim().parse().expect("bad quantifier"),
                                hi.trim().parse().expect("bad quantifier"),
                            ),
                            None => {
                                let n = body.trim().parse().expect("bad quantifier");
                                (n, n)
                            }
                        }
                    }
                    '*' => {
                        i += 1;
                        (0, UNBOUNDED_CAP)
                    }
                    '+' => {
                        i += 1;
                        (1, UNBOUNDED_CAP)
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            assert!(min <= max, "inverted quantifier in pattern {pattern:?}");
            atoms.push(Atom { choices, min, max });
        }
        atoms
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw one value from the canonical distribution.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (full range for integers).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `Vec`s of `elem` values with length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            // Duplicates don't grow the set; cap the attempts so narrow
            // element domains still terminate (possibly under target,
            // like the real crate after its rejection budget).
            for _ in 0..target.saturating_mul(16).max(16) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.elem.generate(rng));
            }
            out
        }
    }

    /// `BTreeSet`s of `elem` values with target size drawn from `size`.
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// item becomes a test running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$attr:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __case: u32 = 0;
                let mut __rejects: u32 = 0;
                while __case < __config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case.wrapping_add(__rejects.wrapping_mul(0x4000_0000)),
                    );
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            let _ = $body;
                            ::std::result::Result::Ok(())
                        })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => __case += 1,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(__why),
                        ) => {
                            __rejects += 1;
                            assert!(
                                __rejects < $crate::test_runner::MAX_REJECTS,
                                "proptest: too many inputs rejected by prop_assume! ({__why})",
                            );
                        }
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(__msg),
                        ) => {
                            panic!("proptest case {__case} failed: {__msg}");
                        }
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a property test, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` == `{:?}`", __l, __r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{:?}` == `{:?}`: {}",
                    __l,
                    __r,
                    format!($($fmt)+),
                ),
            ));
        }
    }};
}

/// Reject the current input (retried with a fresh one) when `cond` is
/// false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn pattern_strategy_matches_class_shape() {
        let mut rng = TestRng::for_case("pattern", 0);
        for case in 0..200u32 {
            let mut rng2 = TestRng::for_case("pattern", case);
            let s: String = "[a-z][a-z0-9-]{0,10}[a-z0-9]".generate(&mut rng2);
            assert!(s.len() >= 2 && s.len() <= 12, "bad len {}", s.len());
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            let last = s.chars().last().unwrap();
            assert!(last.is_ascii_lowercase() || last.is_ascii_digit());
        }
        let t: String = "ab\\[c?[xy]{2}z*".generate(&mut rng);
        assert!(t.starts_with("ab"));
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = prop::collection::vec((0u32..100, any::<bool>()), 1..20);
        let a = strat.generate(&mut TestRng::for_case("det", 3));
        let b = strat.generate(&mut TestRng::for_case("det", 3));
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < 20);
    }

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop_oneof![
            Just(1u8).prop_map(|x| x * 2),
            (10u8..20).prop_map(|x| x + 1),
        ];
        for case in 0..50 {
            let v = strat.generate(&mut TestRng::for_case("oneof", case));
            assert!(v == 2 || (11..21).contains(&v), "unexpected {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_end_to_end(x in 0u32..50, mut v in prop::collection::vec(any::<u8>(), 0..5)) {
            prop_assume!(x != 13);
            v.push(x as u8);
            prop_assert!(x < 50, "x was {}", x);
            prop_assert_eq!(v.last().copied(), Some(x as u8));
        }

        #[test]
        fn btree_set_respects_target(s in prop::collection::btree_set(any::<u32>(), 2..10)) {
            prop_assert!(s.len() >= 2 && s.len() < 10);
        }
    }
}
