//! `prop::sample::Index`.

use crate::arbitrary::Arbitrary;
use crate::test_runner::TestRng;

/// A position in a collection whose length is not known when the inputs
/// are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Index(u64);

impl Index {
    /// The position in a collection of `len` elements; `len` must not be 0.
    pub fn index(&self, len: usize) -> usize {
        assert!(len > 0, "Index::index on an empty collection");
        (self.0 % len as u64) as usize
    }
}

impl Arbitrary for Index {
    fn arbitrary(rng: &mut TestRng) -> Self {
        Self(rng.next_u64())
    }
}
