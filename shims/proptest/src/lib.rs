//! Offline stand-in for `proptest` (see `shims/bytes` for why).
//!
//! A deterministic random-testing harness covering the surface `fedra`'s
//! property tests use: the `proptest!`/`prop_assert!`/`prop_oneof!` macros,
//! `Strategy` with `prop_map`, `any::<T>()`, `Just`, numeric-range and
//! tuple strategies, and `collection::vec`. Unlike real proptest there is
//! no shrinking: a failing case reports its inputs (via the assertion
//! message) and the case number, which is reproducible because every case
//! derives its RNG seed from the case index alone.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Execution config, case RNG and failure type.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-case random source.
    pub type TestRng = StdRng;

    /// Harness configuration.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(message: String) -> Self {
            TestCaseError(message)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic RNG for case number `case`.
    pub fn rng_for_case(case: u64) -> TestRng {
        StdRng::seed_from_u64(0x5EED_0000_0000_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (needed by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn gen_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn gen_value(&self, rng: &mut TestRng) -> V {
            self.0.gen_value(rng)
        }
    }

    /// Uniform choice among alternatives (the `prop_oneof!` backend).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics on an empty option list.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn gen_value(&self, rng: &mut TestRng) -> V {
            let idx = rng.random_range(0..self.options.len());
            self.options[idx].gen_value(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.random()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Raw bit patterns: exercises NaN, infinities and subnormals,
            // which is exactly what wire-codec fuzzing wants.
            f64::from_bits(rng.next_u64())
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// See [`super::any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn gen_value(&self, rng: &mut TestRng) -> f64 {
            rng.random_range(self.start..self.end)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn gen_value(&self, rng: &mut TestRng) -> f32 {
            rng.random_range(self.start..self.end)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.start..self.end)
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Pattern strategies (`".{0,120}"`) degrade to "printable ASCII string
    /// up to 120 chars" — the tests only need arbitrary well-formed
    /// strings, not full regex support.
    impl Strategy for &str {
        type Value = String;
        fn gen_value(&self, rng: &mut TestRng) -> String {
            let len = rng.random_range(0..121usize);
            (0..len)
                .map(|_| rng.random_range(32u32..127) as u8 as char)
                .collect()
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s of `element`-generated values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                rng.random_range(self.size.start..self.size.end)
            };
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub use strategy::Arbitrary;

/// The canonical strategy for `T` (raw bit patterns / uniform values).
pub fn any<T: Arbitrary>() -> strategy::Any<T> {
    strategy::Any::default()
}

/// Defines property-test functions: each `fn name(pat in strategy, ...)`
/// body runs for `Config::cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::rng_for_case(__case as u64);
                    $(let $pat =
                        $crate::strategy::Strategy::gen_value(&($strat), &mut __rng);)+
                    // A body may end in its own `return`.
                    #[allow(unreachable_code)]
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice among the listed strategies (all must generate the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($arg)+),
            ));
        }
    };
}

/// Fails the current case unless both sides compare equal.
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
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` == `{:?}`: {}", __l, __r, format!($($arg)+)),
            ));
        }
    }};
}

/// Skips the current case (counted as a pass) unless the precondition
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use super::strategy::{Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use super::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use super::{any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.0f64..2.0, n in 3usize..9) {
            prop_assert!((1.0..2.0).contains(&x));
            prop_assert!((3..9).contains(&n), "n = {}", n);
        }

        #[test]
        fn tuples_and_maps_compose((a, b) in (0u32..10, 10u32..20).prop_map(|(x, y)| (y, x))) {
            prop_assert!(a >= 10);
            prop_assert_eq!(b / 10, 0);
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assume!(v != 2);
            prop_assert!(v == 1 || v == 3 || v == 4);
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn string_patterns_generate_strings(s in ".{0,120}") {
            prop_assert!(s.len() <= 120);
            return Ok(());
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::test_runner::rng_for_case(7);
        let mut b = crate::test_runner::rng_for_case(7);
        let s = crate::any::<u64>();
        assert_eq!(s.gen_value(&mut a), s.gen_value(&mut b));
    }
}
