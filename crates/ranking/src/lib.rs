#![warn(missing_docs)]

//! Futility-ranking schemes for the Futility Scaling reproduction.
//!
//! A futility ranking assigns every cache line a normalized rank
//! `f ∈ (0, 1]` within its partition — "the uselessness of cache lines
//! within each partition is strictly ordered by a specific futility
//! ranking scheme" (paper, Section III-A). Provided rankings:
//!
//! * [`ExactLru`] — exact least-recently-used ranks: prefix counts over
//!   per-line last-access stamps (a bitmap and a Fenwick tree per pool,
//!   see `recency`).
//! * [`CoarseLru`] — the paper's practical hardware ranking (§V-A):
//!   8-bit per-partition timestamps bumped every `size/16` accesses;
//!   futility is the modular timestamp distance. [`CoarseLru::new`]
//!   adds an exact shadow rank (the same recency index as `ExactLru`)
//!   so measured associativity stays precise;
//!   [`CoarseLru::without_exact_shadow`] is the bare tag map
//!   (`"coarse-lru-bare"`), the hardware behaviour alone.
//! * [`Lfu`] — least-frequently-used (access counts, LRU tiebreak),
//!   ranked by an order-statistic treap, like OPT and Random.
//! * [`Opt`] — Belady's OPT: ranks by time-to-next-reference, consuming
//!   the `next_use` annotations produced by
//!   [`Trace::annotate_next_use`](cachesim::trace::Trace::annotate_next_use).
//! * [`RandomRanking`] — futility is a stable per-line hash; the
//!   futility-blind floor every real ranking must beat.
//! * [`Rrip`] — RRIP-style 2-bit re-reference prediction (an extension
//!   beyond the paper), with the same exact recency shadow as
//!   [`CoarseLru`] for measurement.
//!
//! # Example
//!
//! ```
//! use cachesim::{FutilityRanking, PartitionId, AccessMeta};
//! use ranking::ExactLru;
//!
//! let mut r = ExactLru::new();
//! r.reset(1);
//! let p = PartitionId(0);
//! r.on_insert(p, 0xA, 1, AccessMeta::default());
//! r.on_insert(p, 0xB, 2, AccessMeta::default());
//! assert_eq!(r.max_futility_line(p), Some(0xA)); // oldest line
//! ```

mod coarse_lru;
mod exact_lru;
mod lfu;
mod opt;
mod pool;
mod random;
mod recency;
mod rrip;

pub use coarse_lru::CoarseLru;
pub use exact_lru::ExactLru;
pub use lfu::Lfu;
pub use opt::Opt;
pub use random::RandomRanking;
pub use rrip::Rrip;

use cachesim::FutilityRanking;

/// Names of the canonical rankings enumerated by experiment sweeps.
/// [`by_name`] also resolves `"coarse-lru-bare"`, the shadow-less
/// [`CoarseLru`]: it picks the same victims as `"coarse-lru"`, so
/// sweeping it as a separate scheme would double-count.
pub const ALL_RANKINGS: [&str; 6] = ["lru", "coarse-lru", "lfu", "opt", "random", "rrip"];

/// Construct a ranking by name: one of [`ALL_RANKINGS`] or
/// `"coarse-lru-bare"`. Every ranking the engine factories build
/// (`engine_for` and `sharded_engine_for` in fs-bench) reports a name
/// that resolves back to its own configuration. Returns `None` for
/// unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn FutilityRanking>> {
    match name {
        "lru" => Some(Box::new(ExactLru::new())),
        "coarse-lru" => Some(Box::new(CoarseLru::new())),
        "coarse-lru-bare" => Some(Box::new(CoarseLru::without_exact_shadow())),
        "lfu" => Some(Box::new(Lfu::new())),
        "opt" => Some(Box::new(Opt::new())),
        "random" => Some(Box::new(RandomRanking::new(0xFACE))),
        "rrip" => Some(Box::new(Rrip::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::{AccessMeta, PartitionId, SnapshotWriter};

    const POOLS: usize = 3;

    /// Drive `r` through a seeded stream of inserts, hits, evictions
    /// and retags over three pools, with strictly increasing times and
    /// varying next-use hints, calling `check(r, pool)` after each
    /// eviction. Every pool keeps at least one line once filled.
    fn mixed_stream(
        r: &mut dyn FutilityRanking,
        mut check: impl FnMut(&dyn FutilityRanking, PartitionId),
    ) {
        r.reset(POOLS);
        // The tracked lines, as (addr, pool).
        let mut resident: Vec<(u64, PartitionId)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for time in 1..=6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (x >> 33) as usize;
            let meta = AccessMeta::with_next_use(time + (x >> 50));
            let part = PartitionId((pick % POOLS) as u16);
            match (x >> 20) % 8 {
                0..=2 if resident.len() < 300 => {
                    let addr = time << 8 | part.0 as u64;
                    r.on_insert(part, addr, time, meta);
                    resident.push((addr, part));
                }
                3..=5 if !resident.is_empty() => {
                    let (addr, pool) = resident[pick % resident.len()];
                    r.on_hit(pool, addr, time, meta);
                }
                6 if resident.len() > 2 * POOLS => {
                    let (addr, pool) = resident.swap_remove(pick % resident.len());
                    if r.pool_len(pool) > 1 {
                        r.on_evict(pool, addr);
                        check(&*r, pool);
                    } else {
                        resident.push((addr, pool));
                    }
                }
                7 if !resident.is_empty() => {
                    let i = pick % resident.len();
                    let (addr, from) = resident[i];
                    if from != part && r.pool_len(from) > 1 {
                        r.on_retag(from, part, addr);
                        resident[i].1 = part;
                    }
                }
                _ => {}
            }
        }
        for p in 0..POOLS as u16 {
            check(&*r, PartitionId(p));
        }
    }

    fn snapshot_of(r: &dyn FutilityRanking) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        r.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn by_name_covers_all_rankings() {
        for name in ALL_RANKINGS.into_iter().chain(["coarse-lru-bare"]) {
            let r = by_name(name).unwrap_or_else(|| panic!("missing ranking {name}"));
            assert_eq!(r.name(), name);
        }
        assert!(by_name("belady9000").is_none());
        // Every ranking the engine factories build (`engine_for` and
        // `sharded_engine_for` in fs-bench) reports a name that
        // rebuilds its own configuration: after the same op stream the
        // rebuilt ranking saves identical snapshot bytes. Tools that
        // rebuild an engine's ranking from `name()` rely on this.
        let built: [Box<dyn FutilityRanking>; 7] = [
            Box::new(ExactLru::new()),
            Box::new(CoarseLru::new()),
            Box::new(CoarseLru::without_exact_shadow()),
            Box::new(Lfu::new()),
            Box::new(Opt::new()),
            Box::new(RandomRanking::new(0xFACE)),
            Box::new(Rrip::new()),
        ];
        for mut r in built {
            let name = r.name();
            let mut twin = by_name(name).unwrap_or_else(|| panic!("{name} does not resolve"));
            mixed_stream(r.as_mut(), |_, _| {});
            mixed_stream(twin.as_mut(), |_, _| {});
            assert!(snapshot_of(&*r) == snapshot_of(&*twin), "{name}");
        }
        // A shadow on every pool is the full shadow, and rebuilds as one;
        // a shadow on some pools only reports a name `by_name` rejects,
        // since rebuilding it as either shadow would change its state.
        let mut all_pools = CoarseLru::with_shadow_pools(POOLS);
        let mut twin = by_name("coarse-lru").unwrap();
        mixed_stream(&mut all_pools, |_, _| {});
        mixed_stream(twin.as_mut(), |_, _| {});
        assert_eq!(all_pools.name(), "coarse-lru");
        assert!(snapshot_of(&all_pools) == snapshot_of(&*twin));
        let mut partial = CoarseLru::with_shadow_pools(POOLS - 1);
        partial.reset(POOLS);
        assert_eq!(partial.name(), "coarse-lru-partial-shadow");
        assert!(by_name(partial.name()).is_none());
    }

    /// The line `max_futility_line` returns is its pool's most futile,
    /// so its exact rank is 1.0 in every ranking that answers the query
    /// (the engine's fully-associative path records it without asking).
    #[test]
    fn max_futility_line_has_true_futility_one() {
        let rankings: [Box<dyn FutilityRanking>; 7] = [
            Box::new(ExactLru::new()),
            Box::new(CoarseLru::new()),
            Box::new(Lfu::new()),
            Box::new(Opt::new()),
            Box::new(RandomRanking::new(0xFACE)),
            Box::new(Rrip::new()),
            cachesim::naive_lru(),
        ];
        for mut r in rankings {
            let name = r.name();
            let mut checked = 0;
            mixed_stream(r.as_mut(), |r, pool| {
                let line = r
                    .max_futility_line(pool)
                    .unwrap_or_else(|| panic!("{name}: no most futile line in {pool:?}"));
                assert_eq!(
                    r.true_futility(pool, line),
                    1.0,
                    "{name}: {line:#x} in {pool:?}"
                );
                checked += 1;
            });
            assert!(checked > 100, "{name}: only {checked} checks");
        }
    }
}
