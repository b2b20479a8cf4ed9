//! A deterministic stand-in for the part of `proptest` this workspace's
//! property tests use, so that they build with no registry.
//!
//! What differs from the published crate: there is no shrinking and no
//! persistence of failures. Case `i` of a test draws its inputs from a
//! generator seeded with `fnv1a(test path) ^ i`, so every run of a test
//! sees the same inputs on every machine, and a failure report (test
//! path, case index, the inputs) is enough to reproduce it.
//!
//! Covered: `proptest!` with `ProptestConfig::with_cases`,
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`, weighted
//! `prop_oneof!`, `any` for the integer types, `bool` and
//! `prop::sample::Index`, half-open integer and float ranges, `&str`
//! patterns (literals, character classes, `\PC`, `{m,n}`/`{n}`/`*`),
//! `Just`, tuples, `Vec`s of strategies, `prop::collection::vec`,
//! `prop::option::of`, `prop_map`/`prop_flat_map`/`prop_recursive` and
//! `boxed`.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod sample;
pub mod strategy;
mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

/// Declares `#[test]` functions whose arguments are drawn from strategies:
/// `fn name(a in strategy_a, b in strategy_b) { body }`. The body may use
/// the `prop_assert*` macros and `return Ok(())`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@tests ($config) $($rest)*);
    };
    (@tests ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strategy,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@tests ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "{}: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                format_args!($($fmt)+), stringify!($left), stringify!($right), left, right
            ),
        }
    };
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "values are equal")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left != *right,
                "{}: `{}` != `{}`\n  both: {:?}",
                format_args!($($fmt)+), stringify!($left), stringify!($right), left
            ),
        }
    };
}

/// One of several strategies of the same value type, chosen per case with
/// the given weights (`3 => a, 1 => b`) or uniformly (`a, b`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strategy),+)
    };
}
