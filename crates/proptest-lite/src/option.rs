//! `prop::option::of`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

pub struct OptionStrategy<S>(S);

/// `None` in one case of four, otherwise `Some` of a value from `inner`.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy(inner)
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (rng.below(4) != 0).then(|| self.0.generate(rng))
    }
}
