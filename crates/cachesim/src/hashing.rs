//! Hash functions for cache indexing.
//!
//! Section III-B of the paper notes that good hash indexing "spreads out
//! accesses" and is a precondition for the uniformity assumption of the
//! analytical framework; the evaluated system uses "an XOR-based
//! indexing" and cites H3 hashing for set-associative arrays.
//!
//! [`LineHash`] is the mixer every hashed array uses (a seeded
//! splitmix64-style finalizer, statistically indistinguishable from a
//! random function for this purpose); [`ModuloIndex`] is the un-hashed
//! indexing of a conventional cache, which Figure 6's direct-mapped
//! array uses.

/// A 64-bit → 64-bit hash function suitable for cache indexing.
pub trait IndexHash: Send {
    /// Hash a line address into a 64-bit value; callers reduce it to a
    /// set index with a modulo or bit-mask.
    fn hash(&self, addr: u64) -> u64;
}

/// Seeded splitmix64 finalizer: the default "good random hash" of the
/// simulator. Distinct seeds give (practically) independent functions,
/// which skew-associative arrays and zcaches rely on.
#[derive(Clone, Debug)]
pub struct LineHash {
    seed: u64,
}

impl LineHash {
    /// Create a hash function from a seed. Seed 0 is remapped internally
    /// so that it still produces a non-trivial function.
    pub fn new(seed: u64) -> Self {
        LineHash {
            seed: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x1234_5678_9ABC_DEF0),
        }
    }
}

impl IndexHash for LineHash {
    #[inline]
    fn hash(&self, addr: u64) -> u64 {
        let mut z = addr.wrapping_add(self.seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The identity "hash": set index is the low address bits. This is the
/// un-hashed indexing of a conventional cache, kept for the
/// direct-mapped/conflict-miss experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuloIndex;

impl IndexHash for ModuloIndex {
    #[inline]
    fn hash(&self, addr: u64) -> u64 {
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chi-square-ish sanity check: hashing sequential addresses into 64
    /// buckets should give a roughly uniform distribution.
    fn bucket_spread<H: IndexHash>(h: &H, n: u64, buckets: usize) -> (usize, usize) {
        let mut counts = vec![0usize; buckets];
        for a in 0..n {
            counts[(h.hash(a) % buckets as u64) as usize] += 1;
        }
        (*counts.iter().min().unwrap(), *counts.iter().max().unwrap())
    }

    #[test]
    fn line_hash_spreads_sequential_addresses() {
        let h = LineHash::new(42);
        let (min, max) = bucket_spread(&h, 64 * 1000, 64);
        // Expected 1000 per bucket; allow generous slack.
        assert!(min > 800 && max < 1200, "min={min} max={max}");
    }

    #[test]
    fn distinct_seeds_give_distinct_functions() {
        let h1 = LineHash::new(1);
        let h2 = LineHash::new(2);
        let same = (0..1000).filter(|&a| h1.hash(a) == h2.hash(a)).count();
        assert!(same < 5);
    }

    #[test]
    fn modulo_index_is_identity() {
        assert_eq!(ModuloIndex.hash(12345), 12345);
    }
}
