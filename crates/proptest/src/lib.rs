//! An offline, in-tree stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, providing the subset of its API this workspace uses.
//!
//! The build environment has no network access and no registry cache, so
//! the real crate cannot be fetched. This stub keeps the property-test
//! suites compiling and *running* with the same semantics — deterministic
//! pseudo-random generation over strategies, a configurable case count,
//! assumption-based rejection — minus shrinking: a failing case reports its
//! case index and seed instead of a minimized input.
//!
//! Supported surface:
//!
//! - [`proptest!`] with an optional `#![proptest_config(...)]` header;
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`], [`prop_oneof!`];
//! - [`strategy::Strategy`] with `prop_map`, [`strategy::Just`], ranges
//!   over the primitive numeric types, tuples, and weighted unions;
//! - [`collection::vec`] with a fixed size or a size range;
//! - [`arbitrary::any`] for primitive integers and `bool`.

pub mod test_runner {
    /// Runner configuration (`cases` is the only knob the stub honours).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // The real default is 256; 64 keeps offline CI fast while still
            // exercising a meaningful sample.
            Config { cases: 64 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    /// Deterministic splitmix64-based generator seeding each case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator for the given case seed.
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)` (`bound` > 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A value generator. The stub generates eagerly and never shrinks.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn pick(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn pick(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn pick(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.pick(rng))
        }
    }

    /// A type-erased strategy (used by [`crate::prop_oneof!`]).
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        f: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            (self.f)(rng)
        }
    }

    /// Erases a strategy's type.
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        BoxedStrategy {
            f: Rc::new(move |rng| s.pick(rng)),
        }
    }

    /// A weighted union of strategies over one value type.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// A union drawing each arm with probability proportional to its
        /// weight.
        pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            let mut roll = rng.below(self.total);
            for (w, s) in &self.arms {
                if roll < *w as u64 {
                    return s.pick(rng);
                }
                roll -= *w as u64;
            }
            self.arms.last().expect("non-empty union").1.pick(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128 - self.start as i128).max(1) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn pick(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:tt $S:ident),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn pick(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.pick(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Anything usable as a `vec` size: a fixed length or a half-open
    /// range of lengths.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            let span = (self.end - self.start).max(1) as u64;
            self.start + rng.below(span) as usize
        }
    }

    /// A strategy generating `Vec`s of `element` with the given size.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates vectors of values drawn from `element`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.draw_len(rng);
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical strategy for `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Strategy generating any `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, ...)`
/// becomes a standard test that draws `cases` deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with $cfg; $($rest)*);
    };
    (@with $cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg = $cfg;
                let mut done: u32 = 0;
                let mut attempt: u64 = 0;
                while done < cfg.cases {
                    attempt += 1;
                    if attempt > cfg.cases as u64 * 20 {
                        panic!("property '{}' rejected too many cases (prop_assume too strict)", stringify!($name));
                    }
                    let mut rng = $crate::test_runner::TestRng::from_seed(attempt);
                    $(let $arg = $crate::strategy::Strategy::pick(&$strat, &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body; Ok(()) })();
                    match outcome {
                        Ok(()) => done += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => continue,
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("property '{}' failed on case {} (seed {}): {}",
                                   stringify!($name), done, attempt, msg);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with <$crate::test_runner::Config as ::std::default::Default>::default(); $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l == r, "{:?} != {:?}", l, r);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l == r, "{:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Rejects the current case (draws a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// A strategy choosing among several strategies, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}
