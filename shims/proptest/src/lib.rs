//! Minimal, dependency-free drop-in for the [`proptest`] property-testing
//! crate, covering exactly the API subset this workspace's tests use.
//!
//! The workspace builds in offline environments where crates.io is not
//! reachable, so the real proptest cannot be vendored. Differences from the
//! real crate, by design:
//!
//! * **No shrinking.** A failing case panics with the seed and case index;
//!   cases are fully deterministic (seeded from the test's name), so a
//!   failure reproduces by just re-running the test.
//! * **No environment.** The shim reads no environment variable, so
//!   `PROPTEST_CASES` has no effect: a property runs exactly the
//!   `ProptestConfig::cases` it names, on the same inputs every run.
//! * **Uniform `prop_oneof!`.** Arm weights are not supported (the tests
//!   here never use them).
//! * **`generate` instead of value trees.** Strategies are plain generator
//!   objects over a splitmix64 stream.
//!
//! Supported surface: `proptest!` (with `#![proptest_config(..)]`),
//! `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`, `Strategy::prop_map`,
//! `Just`, `any::<T>()`, integer range strategies, tuple strategies, and
//! `proptest::collection::vec`.
//!
//! [`proptest`]: https://docs.rs/proptest

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// expands to a plain `fn name()` that generates `config.cases` inputs and
/// runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)+
                let run = || $body;
                if let Err(e) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest case {case}/{} of `{}` failed (deterministic; rerun reproduces)",
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

/// Assertion macro alias (no shrinking, so a plain assert suffices).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assertion macro alias (no shrinking, so a plain assert suffices).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (3u8..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (1u64..=8).generate(&mut rng);
            assert!((1..=8).contains(&w));
            let u = (0usize..5).generate(&mut rng);
            assert!(u < 5);
        }
    }

    #[test]
    fn prop_map_and_tuples() {
        let mut rng = TestRng::deterministic("map");
        let s = (0u8..4, 10u8..12).prop_map(|(a, b)| (b, a));
        for _ in 0..100 {
            let (b, a) = s.generate(&mut rng);
            assert!(a < 4 && (10..12).contains(&b));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::deterministic("oneof");
        let s = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::deterministic("vec");
        let s = crate::collection::vec(any::<u8>(), 2..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let gen = || {
            let mut rng = TestRng::deterministic("det");
            crate::collection::vec(0u64..1000, 5..6).generate(&mut rng)
        };
        assert_eq!(gen(), gen());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u8..10, v in crate::collection::vec(0u8..3, 1..4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(v.iter().filter(|&&b| b > 2).count(), 0);
        }
    }
}
