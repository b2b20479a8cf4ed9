//! Seeded, stream-splittable randomness: the seed derivation of
//! [`excovery_rng`], under the path the simulator's users know it by.

pub use excovery_rng::{derive_rng, derive_rng_indexed, derive_seed, derive_seed_indexed};
