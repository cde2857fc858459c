//! Fast, non-cryptographic hashing for the simulators' hot-path maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is DoS-resistant but costs
//! tens of cycles per lookup — a real tax when the detailed model touches
//! several maps per simulated instruction. The keys here are small integers
//! derived from simulated state (cache line numbers, sequence numbers), not
//! attacker-controlled input, so the FxHash multiply-xor scheme used by the
//! Rust compiler itself is the right trade. Hand-rolled because the
//! container vendors its dependencies (no `rustc-hash` on crates.io access).
//!
//! Swapping the hasher changes nothing observable: `HashMap` semantics are
//! hasher-independent, and no simulator iterates a map in hash order.

#![expect(
    clippy::disallowed_types,
    reason = "defines the FxHashMap/FxHashSet aliases; hasher is deterministic and no map order escapes"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiply constant (from Firefox / rustc-hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: rotate, xor, multiply per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            #[expect(
                clippy::expect_used,
                reason = "chunks_exact(8) yields exactly 8-byte slices; try_into cannot fail"
            )]
            self.add_to_hash(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        m.remove(&640);
        assert_eq!(m.get(&640), None);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn hashes_differ_across_nearby_keys() {
        use std::hash::Hash;
        let hash_of = |k: u64| {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        // Not a quality suite — just a guard against a degenerate
        // implementation mapping consecutive line addresses together.
        let hashes: FxHashSet<u64> = (0..4096u64).map(|i| hash_of(i * 64)).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn partial_words_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 4]);
        assert_ne!(a.finish(), c.finish());
    }
}
