//! `prop::collection::vec`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Inclusive bounds on a collection's length.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        Self {
            min: exact,
            max: exact,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A `Vec` whose length is drawn from `size` and whose elements are drawn
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.between(self.size.min, self.size.max);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
