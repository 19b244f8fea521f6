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
//!   futility is the modular timestamp distance. Optionally carries an
//!   exact shadow rank (the same recency index as `ExactLru`) so
//!   measured associativity stays precise.
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
//! * [`BucketCoarseLru`] / [`BucketRrip`] — shadow-free bucket backends
//!   for the two coarse rankings: identical futility values, O(1)
//!   ranking ops, counting-prefix `true_futility` (see `bucketed`).
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

mod bucketed;
mod coarse_lru;
mod exact_lru;
mod lfu;
mod opt;
mod pool;
mod random;
mod recency;
mod rrip;

pub use bucketed::{BucketCoarseLru, BucketRrip};
pub use coarse_lru::CoarseLru;
pub use exact_lru::ExactLru;
pub use lfu::Lfu;
pub use opt::Opt;
pub use random::RandomRanking;
pub use rrip::Rrip;

use cachesim::FutilityRanking;

/// Names of the canonical rankings enumerated by experiment sweeps.
/// The bucket backends (`"coarse-lru-bucket"`, `"rrip-bucket"`) are
/// additionally constructible via [`by_name`] but are not listed here:
/// they produce the same futility values as their treap counterparts,
/// so sweeping them as separate schemes would double-count.
pub const ALL_RANKINGS: [&str; 6] = ["lru", "coarse-lru", "lfu", "opt", "random", "rrip"];

/// Construct a ranking by name (`"lru"`, `"coarse-lru"`, `"lfu"`,
/// `"opt"`, `"random"`, `"rrip"`, `"coarse-lru-bucket"`,
/// `"rrip-bucket"`). Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn FutilityRanking>> {
    match name {
        "lru" => Some(Box::new(ExactLru::new())),
        "coarse-lru" => Some(Box::new(CoarseLru::new())),
        "coarse-lru-bucket" => Some(Box::new(BucketCoarseLru::new())),
        "lfu" => Some(Box::new(Lfu::new())),
        "opt" => Some(Box::new(Opt::new())),
        "random" => Some(Box::new(RandomRanking::new(0xFACE))),
        "rrip" => Some(Box::new(Rrip::new())),
        "rrip-bucket" => Some(Box::new(BucketRrip::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_covers_all_rankings() {
        for name in ALL_RANKINGS {
            let r = by_name(name).unwrap_or_else(|| panic!("missing ranking {name}"));
            assert_eq!(r.name(), name);
        }
        for name in ["coarse-lru-bucket", "rrip-bucket"] {
            let r = by_name(name).unwrap_or_else(|| panic!("missing ranking {name}"));
            assert_eq!(r.name(), name);
        }
        assert!(by_name("belady9000").is_none());
    }
}
