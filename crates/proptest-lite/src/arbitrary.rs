//! `any::<T>()`: the whole domain of a type.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::marker::PhantomData;

/// A type with a canonical "anything goes" strategy.
pub trait Arbitrary: Debug {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.below(2) == 1
    }
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        /// One case in eight is a boundary value, the rest are uniform.
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                const EDGES: [$t; 4] = [0, 1, <$t>::MIN, <$t>::MAX];
                if rng.below(8) == 0 {
                    EDGES[rng.below(4) as usize]
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

ints!(u8, u16, u32, u64, i32, i64);
