//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The standard library's default hasher is SipHash with a per-process
//! random key — robust against adversarial keys, but measurably slow on
//! the packet hot path (one hash per link crossing for load lookup, per
//! flood duplicate check, per agent dispatch) and randomly seeded, so map
//! iteration order varies between processes. Simulator keys are small
//! trusted integers (node ids, ports, packet ids), so we use a
//! multiply-rotate hash instead: a few cycles per key, and fully
//! deterministic, which keeps any future map iteration reproducible — the
//! platform property ExCovery requires (§IV-C1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate hasher (the FxHash construction) over 64-bit words.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier close to 2^64 / φ, spreading entropy across all bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(v: impl std::hash::Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((7u64, 3u16)), hash_of((7u64, 3u16)));
    }

    #[test]
    fn spreads_small_keys() {
        // Ports and node ids are tiny sequential integers; the hash must
        // not collide them onto the same buckets wholesale.
        let hashes: HashSet<u64> = (0u16..1000).map(hash_of).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        assert_eq!(hash_of("hello world"), hash_of("hello world"));
        assert_ne!(hash_of("hello world"), hash_of("hello worlc"));
    }

    #[test]
    fn maps_work_end_to_end() {
        let mut m: FastHashMap<(u64, u16), u32> = FastHashMap::default();
        for i in 0..100u64 {
            m.insert((i, i as u16), i as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(42, 42)), Some(&42));
    }
}
