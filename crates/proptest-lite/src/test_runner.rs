//! Configuration, the per-case generator and the loop that runs the cases.

use crate::strategy::Strategy;
use excovery_rng::{Rng, StdRng};
use std::fmt;

/// How many cases each test of a `proptest!` block runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a case failed; what `prop_assert*` return.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The generator the strategies of one case draw from.
pub struct TestRng(StdRng);

impl TestRng {
    pub(crate) fn for_case(test_path: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_path.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        Self(StdRng::seed_from_u64(h ^ u64::from(case)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (the high bits of one draw, scaled); 0 for `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.0.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `low..=high`.
    pub fn between(&mut self, low: usize, high: usize) -> usize {
        low + self.below((high - low) as u64 + 1) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen()
    }
}

/// Names the case whose body panicked (a plain `assert!` or `expect`),
/// since a panic carries no `TestCaseError` to attach the inputs to.
struct CaseOnPanic<'a>(&'a str, u32);

impl Drop for CaseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("proptest-lite: {} panicked in case {}", self.0, self.1);
        }
    }
}

/// Runs `config.cases` cases of one test; panics on the first that fails,
/// reporting the inputs (drawn again from the same seed).
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    test_path: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    for case in 0..config.cases {
        let guard = CaseOnPanic(test_path, case);
        let outcome = test(strategy.generate(&mut TestRng::for_case(test_path, case)));
        drop(guard);
        if let Err(e) = outcome {
            let inputs = strategy.generate(&mut TestRng::for_case(test_path, case));
            panic!("{test_path}: case {case} failed: {e}\ninputs: {inputs:#?}");
        }
    }
}
