#![warn(missing_docs)]

//! Cache-simulation substrate for the Futility Scaling reproduction.
//!
//! This crate implements the cache model of Section III-A of the paper
//! (*Futility Scaling: High-Associativity Cache Partitioning*, MICRO 2014):
//! a cache is a **cache array** that provides a list of `R` replacement
//! candidates on every eviction, a **futility ranking** that maintains a
//! strict total order of the uselessness of lines within each partition,
//! and a **replacement policy** (here: a [`PartitionScheme`]) that picks
//! the victim from the candidate list based on futility and partitioning
//! requirements.
//!
//! The three components are composed by [`PartitionedCache`], the
//! trace-driven simulation engine. Concrete futility rankings live in the
//! `ranking` crate, the Futility Scaling schemes in `futility-core`, and
//! the baseline schemes (PF, Vantage, PriSM, …) in `baselines`.
//!
//! # Example
//!
//! ```
//! use cachesim::{PartitionedCache, PartitionId, AccessMeta};
//! use cachesim::array::SetAssociative;
//!
//! // A 64-set, 16-way cache (1024 lines) with hashed indexing.
//! let array = SetAssociative::new(64, 16, cachesim::hashing::LineHash::new(1));
//! let ranking = cachesim::naive_lru(); // trivial built-in ranking for demos
//! let scheme = cachesim::evict_max_futility(); // unpartitioned policy
//! let mut cache = PartitionedCache::new(Box::new(array), ranking, scheme, 1);
//! let out = cache.access(PartitionId(0), 0x40, AccessMeta::default());
//! assert!(!out.is_hit());
//! ```

pub mod array;
pub mod engine;
pub mod fxmap;
pub mod hashing;
pub mod ids;
pub mod ostree;
pub mod prng;
pub mod ranking_api;
pub mod recorder;
pub mod scheme_api;
pub mod sharded;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod umon;

pub use engine::{AccessBlock, AccessOutcome, Engine, EngineCore, Eviction, PartitionedCache};
pub use ids::{AccessMeta, Occupant, PartitionId, SlotId, NO_NEXT_USE};
pub use ranking_api::{FutilityRanking, HitRecord, HitRunAgg};
pub use recorder::{Sample, TimeSeriesRecorder};
pub use scheme_api::{Candidate, PartitionScheme, PartitionState, Probe, VictimDecision};
pub use sharded::{shard_of, ShardedEngine};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::CacheStats;
pub use trace::{Access, Trace};

use ranking_api::NaiveLru;
use scheme_api::EvictMaxFutility;

/// A trivially simple exact-LRU futility ranking, suitable for doc
/// examples and smoke tests. Real experiments use the `ranking` crate.
pub fn naive_lru() -> Box<dyn FutilityRanking> {
    Box::new(NaiveLru::new())
}

/// The unpartitioned replacement policy: always evict the candidate with
/// the largest futility. This is what a non-partitioned cache does
/// (Section III-B: "the replacement policy is always able to choose the
/// least useful candidate").
pub fn evict_max_futility() -> Box<dyn PartitionScheme> {
    Box::new(EvictMaxFutility)
}
