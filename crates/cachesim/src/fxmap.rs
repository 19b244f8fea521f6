//! Fast, non-cryptographic hashing for the simulator's hot hash maps
//! (address → slot, address → rank key). The simulator performs several
//! map operations per cache access, and the standard library's SipHash
//! dominates the profile; this multiply-xor hasher (the rustc "Fx"
//! construction) is ~5x cheaper and perfectly adequate for u64 line
//! addresses. Not DoS-resistant — do not use for untrusted keys.
//!
//! The residency index of the arrays that keep an address map (all but
//! `SetAssociative`, which compares the addresses of one set instead)
//! deliberately stays `FxHashMap` (std's hashbrown with this hasher)
//! rather than a hand-rolled open-addressing table:
//! a prototype `u64 → u32` table with linear probing + backward-shift
//! deletion — and a second version with hashbrown-style control bytes —
//! both measured ~3x slower than hashbrown on the miss-path churn mix
//! (missed get + remove + insert), because backward-shift deletion
//! re-touches a chain of random bucket lines per delete while
//! hashbrown's tombstone writes touch one. Explicit software prefetch
//! of the probed slot range fared no better — see the lookup-prefetch
//! note in `array/set_assoc.rs` for that negative result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher specialized for small keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 7919, i as u32);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 7919)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        let mut buckets = vec![0u32; 64];
        for i in 0..64_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets[(h.finish() % 64) as usize] += 1;
        }
        let min = *buckets.iter().min().unwrap();
        let max = *buckets.iter().max().unwrap();
        assert!(min > 700 && max < 1300, "min {min} max {max}");
    }

    #[test]
    fn byte_writes_are_consistent() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
    }
}
