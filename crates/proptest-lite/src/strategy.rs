//! The `Strategy` trait, its combinators, and the strategies that plain
//! values are: ranges, `&str` patterns, tuples and `Vec`s of strategies.

use crate::string::Pattern;
use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// A recipe for drawing values of one type.
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map(self, f)
    }

    /// Draws a value, then draws from the strategy `f` makes of it.
    fn prop_flat_map<T: Strategy, F: Fn(Self::Value) -> T>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap(self, f)
    }

    /// `self` is the leaf; `recurse` builds one more level from the
    /// strategy of the levels below it. At most `depth` levels are nested;
    /// the size hints of the published crate are accepted and unused
    /// (collection sizes inside `recurse` bound the width).
    fn prop_recursive<T, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        T: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> T,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            level = Union::new(vec![(1, leaf.clone()), (2, recurse(level).boxed())]).boxed();
        }
        level
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A strategy behind a pointer: what makes differently built strategies of
/// one value type interchangeable.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }

    fn boxed(self) -> BoxedStrategy<T> {
        self
    }
}

pub struct Map<S, F>(S, F);

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.1)(self.0.generate(rng))
    }
}

pub struct FlatMap<S, F>(S, F);

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.1)(self.0.generate(rng)).generate(rng)
    }
}

/// Always the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// What `prop_oneof!` builds: one of the alternatives, by weight.
pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

impl<T> Union<T> {
    pub fn new(alternatives: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(
            alternatives.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs an alternative with a positive weight"
        );
        Self(alternatives)
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.0.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.below(total);
        for (weight, strategy) in &self.0 {
            if pick < u64::from(*weight) {
                return strategy.generate(rng);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("pick is below the sum of the weights")
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        // Rounding can land on the excluded bound.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

/// A pattern in the small regular-expression subset described in the
/// crate documentation; panics on anything outside it.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        Pattern::parse(self).generate(rng)
    }
}

/// One value from each element's strategy, in order.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

macro_rules! tuples {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}
