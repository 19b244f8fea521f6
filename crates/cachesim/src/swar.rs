//! SWAR (SIMD-within-a-register) argmax over packed 16-bit lanes.
//!
//! The byte-lane replacement path (DESIGN.md §10) reduces victim
//! selection for hardware-futility rankings to an integer argmax: each
//! candidate contributes a raw futility numerator `≤ 255`, optionally
//! scaled by a feedback shift `≤ 7`, so every value fits in 15 bits.
//! [`argmax_u15`] finds the first maximum over such values four lanes
//! at a time in plain `u64` arithmetic — no platform intrinsics, no
//! `unsafe` — and is pinned bit-exact to the scalar strict-`>` first-max
//! loop the schemes used before (ties resolve to the lowest index).
//!
//! Two passes over the packed words:
//!
//! 1. a vertical per-lane running max (borrow-trick unsigned lane
//!    compare, valid because bit 15 of every lane is clear), folded
//!    horizontally at the end;
//! 2. a first-lane-equal-to-max scan using the classic zero-lane detect
//!    `(x - 0x0001…) & !x & 0x8000…`, whose *lowest* set bit always
//!    marks a true zero lane even though borrows may corrupt higher
//!    lanes.

/// Lanes per packed `u64` word.
const LANES: usize = 4;
/// Per-lane sign/borrow bit: bit 15 of each 16-bit lane.
const HI: u64 = 0x8000_8000_8000_8000;
/// The constant 1 in every lane.
const ONES: u64 = 0x0001_0001_0001_0001;

/// Pack up to four 16-bit values into one word, low lane first;
/// missing lanes are zero (zero never raises a max and pass 2 never
/// scans padding, so padding is inert).
#[inline]
fn pack(chunk: &[u16]) -> u64 {
    let mut w = 0u64;
    for (i, &v) in chunk.iter().enumerate() {
        w |= (v as u64) << (16 * i);
    }
    w
}

/// Per-lane unsigned max of two packed words whose lanes are all
/// `< 0x8000`. `(x | HI) - y` cannot borrow across lanes (each lane's
/// minuend has bit 15 set, its subtrahend does not), and leaves bit 15
/// set exactly when `x_lane >= y_lane`; the bit is then smeared into a
/// full-lane select mask.
#[inline]
fn lane_max(x: u64, y: u64) -> u64 {
    let ge = ((x | HI).wrapping_sub(y)) & HI;
    let mask = ge | ge.wrapping_sub(ge >> 15);
    (x & mask) | (y & !mask)
}

/// Reference implementation: index of the maximum, first index on ties
/// — the strict-`>` scan every scheme's scalar victim loop uses. The
/// SWAR path is pinned bit-exact against this.
pub fn argmax_u15_scalar(vals: &[u16]) -> usize {
    let mut best = 0usize;
    for (i, &v) in vals.iter().enumerate().skip(1) {
        if v > vals[best] {
            best = i;
        }
    }
    best
}

/// Index of the maximum value, first index on ties, computed four
/// lanes at a time. Values must fit in 15 bits (`< 0x8000`); the
/// byte-lane contract (`raw ≤ 255`, shift `≤ 7`, so `≤ 32640`)
/// guarantees this at every call site and a debug assertion enforces
/// it.
///
/// # Panics
/// Panics if `vals` is empty.
pub fn argmax_u15(vals: &[u16]) -> usize {
    assert!(!vals.is_empty(), "argmax of empty slice");
    debug_assert!(vals.iter().all(|&v| v < 0x8000), "argmax_u15 lane overflow");
    // Pass 1: vertical per-lane running max, then a horizontal fold.
    let mut acc = 0u64;
    let mut chunks = vals.chunks_exact(LANES);
    for chunk in &mut chunks {
        acc = lane_max(acc, pack(chunk));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        acc = lane_max(acc, pack(rem));
    }
    let mut max = 0u16;
    for lane in 0..LANES {
        max = max.max((acc >> (16 * lane)) as u16);
    }
    // Pass 2: first lane equal to the max. XOR against the broadcast
    // max makes the target lanes zero; the zero-lane detect's lowest
    // set bit is reliable (no borrow has propagated past a zero lane
    // from below — lower nonzero lanes never generate one), so
    // `trailing_zeros` lands exactly on the first occurrence.
    let target = (max as u64).wrapping_mul(ONES);
    let mut base = 0usize;
    let mut chunks = vals.chunks_exact(LANES);
    for chunk in &mut chunks {
        let diff = pack(chunk) ^ target;
        let zero = diff.wrapping_sub(ONES) & !diff & HI;
        if zero != 0 {
            return base + zero.trailing_zeros() as usize / 16;
        }
        base += LANES;
    }
    // The tail is scanned scalar so zero padding can never match a
    // zero max.
    for (i, &v) in chunks.remainder().iter().enumerate() {
        if v == max {
            return base + i;
        }
    }
    unreachable!("maximum vanished between passes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        assert_eq!(argmax_u15(&[0]), 0);
        assert_eq!(argmax_u15(&[0x7FFF]), 0);
    }

    #[test]
    fn all_equal_ties_break_to_first() {
        for len in 1..=19 {
            let vals = vec![7u16; len];
            assert_eq!(argmax_u15(&vals), 0, "len {len}");
            assert_eq!(argmax_u15_scalar(&vals), 0, "len {len}");
        }
    }

    #[test]
    fn max_found_in_every_position() {
        // The max placed at each index of each length up to several
        // words, over a tie-free base, lands exactly there.
        for len in 1..=21 {
            for pos in 0..len {
                let mut vals = vec![3u16; len];
                vals[pos] = 9;
                assert_eq!(argmax_u15(&vals), pos, "len {len} pos {pos}");
            }
        }
    }

    #[test]
    fn duplicate_max_picks_first_across_word_boundaries() {
        // Duplicated maxima in the same word, adjacent words, and
        // first-word-vs-tail must all resolve to the earlier index.
        for (a, b) in [(0, 2), (1, 4), (3, 5), (2, 9), (6, 11), (0, 11)] {
            let mut vals = vec![1u16; 12];
            vals[a] = 500;
            vals[b] = 500;
            assert_eq!(argmax_u15(&vals), a, "dup at {a},{b}");
        }
    }

    #[test]
    fn zero_max_does_not_match_padding() {
        // All-zero input of a non-multiple-of-4 length: the answer must
        // be index 0, not a phantom padding lane.
        assert_eq!(argmax_u15(&[0, 0, 0, 0, 0]), 0);
        assert_eq!(argmax_u15(&[0, 0, 0]), 0);
    }

    #[test]
    fn matches_scalar_on_pseudorandom_streams() {
        // Deterministic LCG sweep over many lengths and value ranges;
        // narrow ranges force heavy ties.
        let mut x = 0x9E3779B97F4A7C15u64;
        for &range in &[2u64, 5, 256, 0x8000] {
            for len in 1..=40 {
                let mut vals = Vec::with_capacity(len);
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    vals.push(((x >> 33) % range) as u16);
                }
                assert_eq!(
                    argmax_u15(&vals),
                    argmax_u15_scalar(&vals),
                    "range {range} len {len} vals {vals:?}"
                );
            }
        }
    }

    #[test]
    fn boundary_values_survive_the_borrow_trick() {
        // 0x7FFF is the largest legal lane; make sure the compare and
        // the equality detect both handle it.
        assert_eq!(argmax_u15(&[0x7FFE, 0x7FFF, 0x7FFF, 0, 1]), 1);
        assert_eq!(argmax_u15(&[0x7FFF, 0, 0, 0, 0x7FFF]), 0);
    }
}
