//! std-only stand-in for the part of `proptest` 1.x that `tests/` uses (integer
//! ranges, tuples, `any::<u64 | u8 | bool>()`, `collection::vec`, `prop_map`,
//! `with_cases`, `prop_assert!`, `prop_assert_eq!`, `TestCaseError`), so the
//! root workspace resolves with no registry.  Unlike the published crate: values
//! come from splitmix64 seeded by the test's name and the case index, so every
//! run sees the same inputs; no shrinking; no regression file.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestCaseError};
}

/// splitmix64.
pub struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: i128, hi: i128) -> i128 {
        assert!(lo <= hi, "cannot sample an empty range");
        lo + (u128::from(self.next_u64()) % (hi - lo + 1) as u128) as i128
    }
}

/// What a property returns early with when a `prop_assert!` fails.
#[derive(Debug)]
pub struct TestCaseError(#[doc(hidden)] pub String);

pub struct ProptestConfig(u32);

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig(cases)
    }
}

pub trait Strategy: Sized {
    type Value: Debug;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
    fn prop_map<O: Debug>(self, f: impl Fn(Self::Value) -> O) -> impl Strategy<Value = O> {
        Generator(move |rng: &mut TestRng| f(self.generate(rng)))
    }
}

/// A closure as a strategy: what `prop_map`, `any` and `collection::vec` return.
struct Generator<F>(F);

impl<V: Debug, F: Fn(&mut TestRng) -> V> Strategy for Generator<F> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.uniform(self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.uniform(*self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}
int_strategies!(u8, u32, u64, usize, i64);

macro_rules! tuple_strategies {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! { (A.0, B.1) (A.0, B.1, C.2) (A.0, B.1, C.2, D.3) }

/// A type `any` draws uniformly over all its values, from 64 random bits.
pub trait Arbitrary: Debug {
    fn from_bits(bits: u64) -> Self;
}

macro_rules! arbitrary {
    ($($t:ty: $from_bits:expr),*) => {$(
        impl Arbitrary for $t {
            fn from_bits(bits: u64) -> $t { $from_bits(bits) }
        }
    )*};
}
arbitrary!(u64: |x: u64| x, u8: |x: u64| (x >> 56) as u8, bool: |x: u64| x >> 63 == 1);

pub fn any<T: Arbitrary>() -> impl Strategy<Value = T> {
    Generator(|rng: &mut TestRng| T::from_bits(rng.next_u64()))
}

pub mod collection {
    use super::{Generator, Range, Strategy, TestRng};

    /// Vectors of `item` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(item: S, size: Range<usize>) -> impl Strategy<Value = Vec<S::Value>> {
        Generator(move |rng: &mut TestRng| {
            let len = size.generate(rng);
            (0..len).map(|_| item.generate(rng)).collect()
        })
    }
}

/// The loop behind `proptest!`.  Case `i` of `test` draws from a seed that is a
/// function of `(test, i)` alone; a failure, returned by a `prop_assert!` or
/// panicking out of the property, reports the case, the seed and the arguments.
#[doc(hidden)]
pub fn run_cases<P: FnOnce() -> Result<(), TestCaseError>>(
    test: &str,
    ProptestConfig(cases): ProptestConfig,
    draw: impl Fn(&mut TestRng) -> (String, P),
) {
    // FNV-1a over the name; one splitmix step decorrelates adjacent cases.
    let base = test.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = TestRng(base ^ u64::from(case)).next_u64();
        let (arguments, property) = draw(&mut TestRng(seed));
        let at = format!("{test}: case {case} of {cases}, seed {seed:#018x}, {arguments}");
        let failure = match catch_unwind(AssertUnwindSafe(property)) {
            Ok(Ok(())) => continue,
            Ok(Err(TestCaseError(message))) => message,
            Err(_) => "the property panicked (its message is above)".to_string(),
        };
        panic!("{failure}\n{at}");
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(concat!(module_path!(), "::", stringify!($name)), $config, |rng| {
                $(let $arg = $crate::Strategy::generate(&$strategy, rng);)+
                let arguments = format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                // Spelled out: the tests import `pdm::Result`.
                (arguments, move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })
            });
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { $crate::prop_assert!($cond, "{} is false", stringify!($cond)) };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { $crate::prop_assert_eq!($left, $right, "") };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format_args!($($fmt)+), left, right
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::{prelude::*, run_cases, TestRng};

    fn extremes<S: Strategy>(s: S, key: impl Fn(S::Value) -> usize) -> (usize, usize) {
        let rng = &mut TestRng(1);
        let draws = (0..4000).map(|_| key(s.generate(rng)));
        draws.fold((usize::MAX, 0), |(lo, hi), x| (lo.min(x), hi.max(x)))
    }

    #[test]
    fn ranges_and_vec_lengths_reach_both_bounds_and_nothing_else() {
        assert_eq!(extremes(0u64..=80, |x| x as usize), (0, 80));
        assert_eq!(extremes(1usize..=4, |x| x), (1, 4));
        let bytes = prop::collection::vec(any::<u8>(), 0..4);
        assert_eq!(extremes(bytes, |v| v.len()), (0, 3));
    }

    #[test]
    fn inputs_are_a_function_of_the_test_name_and_the_case_index() {
        let inputs_of = |test: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            run_cases(test, ProptestConfig::with_cases(8), |rng| {
                seen.borrow_mut().push(rng.next_u64());
                (String::new(), || Ok(()))
            });
            seen.into_inner()
        };
        assert_eq!(inputs_of("a::b"), inputs_of("a::b"));
        assert_ne!(inputs_of("a::b"), inputs_of("a::c"));
    }

    /// The `CountLedger::agree` pattern of `tests/sort_engine.rs`.
    fn never_81(x: u64) -> Result<(), TestCaseError> {
        prop_assert_eq!(x, 81, "x was {}", x);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        fn always_fails(x in 0u64..=80, flags in prop::collection::vec(any::<bool>(), 2..3)) {
            prop_assert!(flags.len() == 2);
            never_81(x)?;
        }
    }

    #[test]
    fn a_failing_case_reports_its_seed_and_its_arguments() {
        let panic = std::panic::catch_unwind(always_fails).unwrap_err();
        let message = panic.downcast_ref::<String>().unwrap();
        let parts = ["x was ", "case 0 of 3, seed 0x", "; flags = ["];
        assert!(parts.iter().all(|part| message.contains(part)), "{message}");
    }
}
