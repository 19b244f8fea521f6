#![warn(missing_docs)]

//! # futility-scaling
//!
//! A from-scratch Rust reproduction of *"Futility Scaling:
//! High-Associativity Cache Partitioning"* (Ruisheng Wang and Lizhong
//! Chen, MICRO 2014): the Futility Scaling enforcement scheme, the
//! baselines it is compared against (Partitioning-First, CQVP, PriSM,
//! Vantage, the FullAssoc ideal), the cache-array and futility-ranking
//! substrate they all run on, synthetic SPEC-like workloads, and a
//! QoS-enabled CMP timing simulator.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `cachesim` | cache arrays, engine, trait definitions |
//! | [`rankings`] | `ranking` | LRU / coarse-LRU / LFU / OPT / random futility |
//! | [`fs`] | `futility-core` | analytic + feedback Futility Scaling |
//! | [`schemes`] | `baselines` | PF, CQVP, PriSM, Vantage, FullAssoc |
//! | [`spec_workloads`] | `workloads` | synthetic SPEC-like traces, drivers |
//! | [`qos`] | `simqos` | CMP timing model, allocation policies |
//! | [`tenants`] | `tenancy` | QoS builder, utility allocator, closed loop |
//! | [`reports`] | `analysis` | CDFs, summaries, tables |
//!
//! # Quickstart
//!
//! ```
//! use futility_scaling::prelude::*;
//!
//! // A 1MB, 16-way hashed cache split 3:1 between two partitions,
//! // enforced by feedback-based Futility Scaling over coarse LRU.
//! let mut cache = PartitionedCache::new(
//!     Box::new(SetAssociative::with_lines(16_384, 16, LineHash::new(1))),
//!     Box::new(CoarseLru::new()),
//!     Box::new(FsFeedback::default_config()),
//!     2,
//! );
//! cache.set_targets(&[12_288, 4_096]);
//! for i in 0..150_000u64 {
//!     let part = PartitionId((i % 2) as u16);
//!     let addr = (i * 37) % 40_000 + part.index() as u64 * 1_000_000;
//!     cache.access(part, addr, AccessMeta::default());
//! }
//! let s = cache.state();
//! assert!((s.actual[0] as f64 / 12_288.0 - 1.0).abs() < 0.08);
//! ```

pub use analysis as reports;
pub use baselines as schemes;
pub use cachesim as sim;
pub use futility_core as fs;
pub use ranking as rankings;
pub use simqos as qos;
pub use tenancy as tenants;
pub use workloads as spec_workloads;

/// The most common imports for working with the library.
pub mod prelude {
    pub use baselines::{Cqvp, FullAssocIdeal, Pf, Prism, Vantage, WayPartitioned};
    pub use cachesim::array::{
        FullyAssociative, RandomCandidates, SetAssociative, SkewAssociative, ZCache,
    };
    pub use cachesim::hashing::{LineHash, ModuloIndex};
    pub use cachesim::{
        AccessBlock, AccessMeta, AccessOutcome, Candidate, Engine, EngineCore, FutilityRanking,
        PartitionId, PartitionScheme, PartitionState, PartitionedCache, ShardedEngine, Trace,
        VictimDecision,
    };
    pub use futility_core::{FeedbackConfig, FsAnalytic, FsFeedback};
    pub use ranking::{CoarseLru, ExactLru, Lfu, Opt, RandomRanking, Rrip};
    pub use simqos::{System, SystemConfig, Thread};
    pub use tenancy::{QosBuilder, TenancyDriver, TenantSpec, UmonConfig, UtilityAllocator};
    pub use workloads::{benchmark, BenchmarkProfile, InterleavedDriver, RateControlledDriver};
}
