//! Offline stand-in for the `proptest` crate.
//!
//! Re-implements the subset of the proptest API this workspace's property
//! tests use — the [`proptest!`] macro, [`Strategy`] with `prop_map`, range
//! and tuple strategies, `prop::collection::vec`, and the
//! `prop_assert*`/`prop_assume!` macros — as a deterministic random-case
//! runner. Each test function derives its RNG seed from its own name, so
//! runs are reproducible without a persisted failure database; there is no
//! shrinking (a failing case reports its inputs via the assertion message
//! and case index instead).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration: the subset of `proptest::test_runner::Config`
/// used by this workspace.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped, not failed.
    Reject(String),
    /// A `prop_assert*!` failed.
    Fail(String),
}

impl TestCaseError {
    /// `true` for assumption rejections.
    pub fn is_reject(&self) -> bool {
        matches!(self, TestCaseError::Reject(_))
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Deterministic per-test RNG.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from a test name (FNV-1a over the bytes), so every test gets a
    /// stable, distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn unit_f64(&mut self) -> f64 {
        self.0.gen::<f64>()
    }
}

/// A generator of random values — the proptest `Strategy` trait, minus
/// shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 strategy range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer strategy range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_range_strategy!(u64, usize, u32, i64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// The `prop::` namespace (`prop::collection::vec` etc.).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Lengths accepted by [`vec()`]: a fixed size or a size range.
        pub trait SizeRange {
            /// Draws a concrete length.
            fn pick(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn pick(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for Range<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                self.clone().generate(rng)
            }
        }

        /// A strategy yielding `Vec`s of values from `element`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, len)` — `len` may be a fixed
        /// `usize` or a `Range<usize>`.
        pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Re-export location matching `proptest::test_runner`.
pub mod test_runner {
    pub use crate::{ProptestConfig, TestCaseError, TestRng};
}

/// Property-test assertion: fails the current case (with its inputs shown
/// in the panic message) without aborting the whole process on the spot.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{}` == `{}` ({:?} vs {:?})",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, $($fmt)*);
    }};
}

/// Skips the current case when its random inputs don't meet a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// The proptest entry macro: wraps `fn name(arg in strategy, ...) { body }`
/// items into `#[test]` functions that run `cases` random cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err(e) if e.is_reject() => continue,
                    ::std::result::Result::Err(e) => {
                        panic!("proptest case {case} of {}: {e}", stringify!($name))
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        let s = prop::collection::vec(-1.0..1.0f64, 4);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in -3.0..5.0f64, n in 1usize..9, s in 2u64..4) {
            prop_assert!((-3.0..5.0).contains(&x));
            prop_assert!((1..9).contains(&n));
            prop_assert!((2..4).contains(&s));
        }

        #[test]
        fn vec_and_map_compose(v in prop::collection::vec(0.0..1.0f64, 2..7).prop_map(|v| v.len())) {
            prop_assert!((2..7).contains(&v));
        }

        #[test]
        fn tuples_and_assume((a, b) in (0u64..10, 0u64..10)) {
            prop_assume!(a != b);
            prop_assert!(a + b < 20);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
