//! Offline stand-in for `rand` 0.8, and the definition of a random stream
//! for this repository.
//!
//! Every golden digest, `BENCH_netsim.json` row and blessed results table
//! of the repository was produced with exactly these algorithms (they are
//! specified in `.claude/skills/verify/SKILL.md`), not with the published
//! crate's ChaCha12 `StdRng`. Changing any of them moves every pinned
//! value; the benchmark's `selfcheck` refuses to time anything when they
//! do.
//!
//! * [`rngs::StdRng`] is PCG-XSH-RS 64/32. `seed_from_u64(k)` sets
//!   `state = splitmix64(k)`, `inc = k | 1`. A step advances first
//!   (`state = state * 6364136223846793005 + inc`) and then outputs
//!   `(((s >> 22) ^ s) >> ((s >> 61) + 22)) as u32`. `next_u64` is two
//!   `next_u32`s, low word first. `from_seed` reads the first 8 bytes
//!   little-endian and calls `seed_from_u64`.
//! * `gen::<f64>()` is `(next_u64() >> 11) as f64 * 2^-53`.
//! * Integer `gen_range` is the modulo of ONE `next_u64` (the modulo bias
//!   is part of the stream); an inclusive span is `high - low + 1`, and a
//!   span that wraps to 0 returns the raw `next_u64`.
//! * Float `gen_range` returns the midpoint `(low + high) / 2` and
//!   consumes NO stream values (the blessed platform-diversity results
//!   rely on zero clock drift).
//! * `gen_bool(p)` is `gen::<f64>() < p`; `shuffle` is the descending
//!   Fisher–Yates via `gen_range(0..i + 1)`; `choose_multiple` is Floyd's
//!   algorithm in rand 0.8's order-randomising form.
//! * The provided `SeedableRng::seed_from_u64` (any generator other than
//!   `StdRng`) keeps rand_core 0.6's PCG32 byte filler.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be created from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// rand_core 0.6's filler: a PCG32 stream expands `state` into the
    /// seed bytes, four at a time.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let span = (high.wrapping_sub(low) as u64).wrapping_add(1);
                let x = rng.next_u64();
                if span == 0 {
                    return x as $t;
                }
                low.wrapping_add((x % span) as $t)
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, _rng: &mut R) -> f64 {
        (self.start + self.end) / 2.0
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, _rng: &mut R) -> f64 {
        (self.start() + self.end()) / 2.0
    }
}

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// PCG-XSH-RS 64/32 (see the crate documentation).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
        inc: u64,
    }

    fn splitmix64(k: u64) -> u64 {
        let mut z = k.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(self.inc);
            let s = self.state;
            (((s >> 22) ^ s) >> ((s >> 61) + 22)) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let low = u64::from(self.next_u32());
            let high = u64::from(self.next_u32());
            (high << 32) | low
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut first = [0u8; 8];
            first.copy_from_slice(&seed[..8]);
            Self::seed_from_u64(u64::from_le_bytes(first))
        }

        fn seed_from_u64(k: u64) -> Self {
            Self {
                state: splitmix64(k),
                inc: k | 1,
            }
        }
    }

    pub mod mock {
        use super::super::RngCore;

        /// Returns `initial`, `initial + increment`, … from `next_u64`.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct StepRng {
            v: u64,
            a: u64,
        }

        impl StepRng {
            pub fn new(initial: u64, increment: u64) -> Self {
                Self {
                    v: initial,
                    a: increment,
                }
            }
        }

        impl RngCore for StepRng {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }

            fn next_u64(&mut self) -> u64 {
                let out = self.v;
                self.v = self.v.wrapping_add(self.a);
                out
            }
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        type Item;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct elements (all of them when the slice is
        /// shorter), in random order.
        fn choose_multiple<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_multiple<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            let amount = amount.min(self.len());
            let mut indices: Vec<usize> = Vec::with_capacity(amount);
            for j in self.len() - amount..self.len() {
                let t = rng.gen_range(0..=j);
                match indices.iter().position(|&x| x == t) {
                    Some(pos) => indices.insert(pos, j),
                    None => indices.push(t),
                }
            }
            indices
                .into_iter()
                .map(|i| &self[i])
                .collect::<Vec<_>>()
                .into_iter()
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::mock::StepRng;
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// The stream that reproduces `golden_outcomes` and `BENCH_netsim.json`;
    /// the benchmark's `selfcheck` repeats this pin before timing anything.
    #[test]
    fn first_16_outputs_of_seed_1() {
        const SEED_1_FIRST_16: [u32; 16] = [
            1938234732, 2936923417, 1986630524, 217192590, 3471879574, 709059067, 2998672916,
            232411887, 463471075, 1815433497, 2898125177, 3235061255, 4278747799, 745515711,
            2036528685, 1998724623,
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let got: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_eq!(got, SEED_1_FIRST_16);
    }

    #[test]
    fn integer_ranges_take_one_draw_and_keep_the_modulo() {
        let mut rng = StepRng::new(10, 1);
        assert_eq!(rng.gen_range(0..7u64), 3);
        assert_eq!(rng.gen_range(-2..=2i64), -1); // 11 % 5 = 1
        assert_eq!(rng.gen_range(0..=u64::MAX), 12);
        assert_eq!(rng.next_u64(), 13);
    }

    #[test]
    fn float_ranges_return_the_midpoint_and_draw_nothing() {
        let mut rng = StepRng::new(5, 1);
        assert_eq!(rng.gen_range(-4.0..=4.0), 0.0);
        assert_eq!(rng.gen_range(1.0..2.0), 1.5);
        assert_eq!(rng.next_u64(), 5);
    }

    #[test]
    fn max_step_rng_yields_almost_one() {
        let mut rng = StepRng::new(u64::MAX, 0);
        let x: f64 = rng.gen();
        assert!(x < 1.0 && x > 0.999_999);
        assert!(!rng.gen_bool(0.999_999));
    }

    #[test]
    fn shuffle_and_choose_multiple_are_permutations_and_repeat() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);

        let mut rng = StdRng::seed_from_u64(3);
        let picks: Vec<u32> = sorted.choose_multiple(&mut rng, 5).copied().collect();
        let mut unique = picks.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5);
        assert_eq!(sorted.choose_multiple(&mut rng, 99).count(), 50);
    }

    #[test]
    fn from_seed_reads_the_first_eight_bytes() {
        let mut seed = [0u8; 32];
        seed[0] = 7;
        seed[31] = 0xff;
        assert_eq!(StdRng::from_seed(seed), StdRng::seed_from_u64(7));
    }
}
