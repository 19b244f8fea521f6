//! Shared helpers for the experiment binaries that regenerate every
//! figure and table of the paper (see DESIGN.md §4 for the index).
//!
//! Each figure has its own binary (`cargo run --release -p fs-bench
//! --bin figN`); all binaries accept `--quick` to run a shortened
//! version suitable for smoke testing, print the paper's expected
//! series next to the measured ones, and drop a CSV under `results/`.

use cachesim::array::CacheArray;
use cachesim::array::{
    FullyAssociative, RandomCandidates, SetAssociative, SkewAssociative, ZCache,
};
use cachesim::hashing::LineHash;
use cachesim::scheme_api::EvictMaxFutility;
use cachesim::{Engine, EngineCore, FutilityRanking, PartitionScheme, ShardedEngine};
use futility_core::{FeedbackConfig, FsFeedback};
use ranking::{BucketCoarseLru, BucketRrip, CoarseLru, ExactLru, Lfu, Opt, RandomRanking, Rrip};
use std::path::{Path, PathBuf};

pub mod checkpoint;
pub mod experiments;
pub mod runner;
pub mod timing;

/// Cache line size used throughout (Table II).
pub const LINE_BYTES: usize = 64;

/// How much to shrink an experiment relative to the paper's full
/// configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration.
    Full,
    /// Traces shortened 8× — minutes, not hours (`--quick`).
    Quick,
    /// Traces *and* cache sizes shrunk 64× — seconds even in debug
    /// builds; drives every code path but not the paper's anchors
    /// (`--smoke`, used by the integration tests).
    Smoke,
}

impl Scale {
    /// Parse `--quick` / `--smoke` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--smoke") {
            Scale::Smoke
        } else if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scale an access/insertion count.
    pub fn accesses(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 8).max(1),
            Scale::Smoke => (full / 64).max(1),
        }
    }

    /// Scale a cache size in lines (kept a multiple of 64 so 16-way
    /// arrays always get whole sets).
    pub fn lines(self, full: usize) -> usize {
        match self {
            Scale::Full | Scale::Quick => full,
            Scale::Smoke => (full / 64).max(64),
        }
    }
}

/// Parse `--jobs N` from the process arguments; defaults to the number
/// of available cores.
pub fn cli_jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--jobs" {
            return args
                .get(i + 1)
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("--jobs needs a positive integer"));
        }
        if let Some(n) = a.strip_prefix("--jobs=") {
            return n.parse().expect("--jobs needs a positive integer");
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Convert a capacity in KB to lines.
pub fn lines_of_kb(kb: usize) -> usize {
    kb * 1024 / LINE_BYTES
}

/// Whether `--quick` was passed (shortened traces for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Scale a trace length down by 8x in quick mode.
pub fn scaled(len: usize) -> usize {
    if quick_mode() {
        len / 8
    } else {
        len
    }
}

/// The paper's L2 array: 16-way set-associative with hashed (XOR-style)
/// indexing.
pub fn l2_array(lines: usize, seed: u64) -> Box<dyn CacheArray> {
    Box::new(SetAssociative::with_lines(lines, 16, LineHash::new(seed)))
}

/// The Section IV analytical substrate: a random-candidates cache.
pub fn random_array(lines: usize, r: usize, seed: u64) -> Box<dyn CacheArray> {
    Box::new(RandomCandidates::new(lines, r, seed))
}

/// A fully-associative array (FullAssoc ideal / Figure 6).
pub fn fa_array(lines: usize) -> Box<dyn CacheArray> {
    Box::new(FullyAssociative::new(lines))
}

/// Construct any enforcement scheme evaluated in Section VIII by name:
/// `"fs-feedback"`, `"pf"`, `"cqvp"`, `"prism"`, `"vantage"`,
/// `"full-assoc"`, `"unpartitioned"`.
///
/// # Panics
/// Panics on unknown names (these binaries are the only callers).
pub fn scheme(name: &str) -> Box<dyn PartitionScheme> {
    if name == "fs-feedback" {
        return Box::new(FsFeedback::new(FeedbackConfig::default()));
    }
    baselines::by_name(name).unwrap_or_else(|| panic!("unknown scheme {name}"))
}

/// Construct a futility ranking by name (see [`ranking::by_name`]).
///
/// # Panics
/// Panics on unknown names.
pub fn futility_ranking(name: &str) -> Box<dyn FutilityRanking> {
    ranking::by_name(name).unwrap_or_else(|| panic!("unknown ranking {name}"))
}

/// Build an engine for one benchmark-grid cell, monomorphized over the
/// array × ranking × scheme combination (120 concrete [`EngineCore`]s
/// behind one object-safe [`Engine`]). The array geometry matches
/// `bench_engine`'s grid: 16 candidate ways per array kind at the given
/// line count. The scheme dimension is devirtualized for the two fast
/// lanes the paper's experiments hammer — `"fs-feedback"` and
/// `"unpartitioned"` — whose byte-lane capability checks and
/// `notify_insert`/`notify_evict` hooks then inline to constants on the
/// batched miss path; the remaining baselines stay trait objects to
/// bound the instantiation count (DESIGN.md §10).
///
/// The coarse rankings map to their treap-free bucket backends
/// ([`BucketCoarseLru`] / [`BucketRrip`], DESIGN.md §14), which produce
/// identical futility values and therefore identical outcomes. The
/// exception is the compositions that evict through
/// `max_futility_line` — the `"full-assoc"` scheme and the
/// `"fully-assoc"` array — which need the exact-shadow tie-order
/// semantics only the treap backends provide. The bucket rankings' own
/// names (`"coarse-lru-bucket"` / `"rrip-bucket"`) always resolve to
/// the bucket backends.
///
/// Unknown ranking names fall back to the fully boxed
/// [`PartitionedCache`](cachesim::PartitionedCache) composition;
/// unknown array names panic (the experiment binaries are the only
/// callers).
pub fn engine_for(
    array: &str,
    ranking_name: &str,
    scheme_name: &str,
    lines: usize,
    seed: u64,
    partitions: usize,
) -> Box<dyn Engine> {
    // Compositions whose evictions go through `max_futility_line` keep
    // the treap backends: its tie order is exact-shadow-defined there,
    // and the bucket backends' documented tie-order deviation would
    // change victims (tests/bucket_vs_treap.rs pins the complement).
    let evicts_by_max_line = scheme_name == "full-assoc" || array == "fully-assoc";
    macro_rules! with_scheme {
        ($arr:expr, $rank:expr) => {
            match scheme_name {
                "unpartitioned" => {
                    Box::new(EngineCore::new($arr, $rank, EvictMaxFutility, partitions))
                        as Box<dyn Engine>
                }
                "fs-feedback" => Box::new(EngineCore::new(
                    $arr,
                    $rank,
                    FsFeedback::new(FeedbackConfig::default()),
                    partitions,
                )),
                _ => Box::new(EngineCore::new(
                    $arr,
                    $rank,
                    scheme(scheme_name),
                    partitions,
                )),
            }
        };
    }
    macro_rules! with_ranking {
        ($arr:expr) => {
            match ranking_name {
                "lru" => with_scheme!($arr, ExactLru::new()),
                "coarse-lru" if evicts_by_max_line => with_scheme!($arr, CoarseLru::new()),
                "coarse-lru" | "coarse-lru-bucket" => with_scheme!($arr, BucketCoarseLru::new()),
                "lfu" => with_scheme!($arr, Lfu::new()),
                "opt" => with_scheme!($arr, Opt::new()),
                "random" => with_scheme!($arr, RandomRanking::new(0xFACE)),
                "rrip" if evicts_by_max_line => with_scheme!($arr, Rrip::new()),
                "rrip" | "rrip-bucket" => with_scheme!($arr, BucketRrip::new()),
                other => Box::new(EngineCore::new(
                    Box::new($arr) as Box<dyn CacheArray>,
                    futility_ranking(other),
                    scheme(scheme_name),
                    partitions,
                )),
            }
        };
    }
    match array {
        "set-assoc" => with_ranking!(SetAssociative::with_lines(lines, 16, LineHash::new(seed))),
        "skew-assoc" => with_ranking!(SkewAssociative::new(lines / 16, 16, seed)),
        "zcache" => with_ranking!(ZCache::new(lines / 4, 4, 16, seed)),
        "rand-cands" => with_ranking!(RandomCandidates::new(lines, 16, seed)),
        "fully-assoc" => with_ranking!(FullyAssociative::new(lines)),
        other => panic!("unknown array {other}"),
    }
}

/// Build a [`ShardedEngine`] for a scale-out sweep cell: `shards`
/// monomorphized cores (16-way set-associative array, coarse-LRU
/// ranking *without* the exact-rank shadow — at ≥1M lines the
/// per-pool shadow treaps would dominate memory and time, the bucket
/// lists measured slower than the bare tag map (EXPERIMENTS.md), and
/// the sharded sweeps read miss rates and MADs, not exact AEF), each
/// over `total_lines / shards` lines. The scheme dimension keeps the
/// `engine_for` fast lanes: `"fs-feedback"` and `"unpartitioned"` are
/// scheme-concrete (byte-lane victim selection folds to constants),
/// baselines stay boxed.
///
/// Per-shard array seeds derive from `seed` via
/// [`seed_for`](cachesim::prng::seed_for) keyed by shard index, the
/// same discipline as the experiment runner, so results never depend
/// on worker scheduling.
///
/// # Panics
/// Panics if `total_lines` is not divisible into 16-way shard arrays
/// or the scheme name is unknown.
pub fn sharded_engine_for(
    scheme_name: &str,
    total_lines: usize,
    shards: usize,
    partitions: usize,
    seed: u64,
) -> ShardedEngine {
    assert!(shards > 0, "need at least one shard");
    assert_eq!(
        total_lines % (shards * 16),
        0,
        "total_lines must split into whole 16-way shard arrays"
    );
    let lines = total_lines / shards;
    ShardedEngine::new(shards, partitions, |i| {
        let shard_seed = cachesim::prng::seed_for("shard", seed ^ (i as u64) << 32);
        let arr = SetAssociative::with_lines(lines, 16, LineHash::new(shard_seed));
        match scheme_name {
            "fs-feedback" => Box::new(EngineCore::new(
                arr,
                CoarseLru::without_exact_shadow(),
                FsFeedback::new(FeedbackConfig::default()),
                partitions,
            )) as Box<dyn Engine>,
            "unpartitioned" => Box::new(EngineCore::new(
                arr,
                CoarseLru::without_exact_shadow(),
                EvictMaxFutility,
                partitions,
            )),
            _ => Box::new(EngineCore::new(
                Box::new(arr) as Box<dyn CacheArray>,
                Box::new(CoarseLru::without_exact_shadow()) as Box<dyn FutilityRanking>,
                scheme(scheme_name),
                partitions,
            )),
        }
    })
}

/// Directory where binaries drop CSV series; created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Save a CSV series under `results/<name>.csv` (best effort: prints a
/// warning instead of failing the experiment on I/O errors).
pub fn save_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    save_csv_in(&results_dir(), name, header, rows);
}

/// Save a CSV series under `<dir>/<name>.csv` (best effort).
pub fn save_csv_in(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(f) => {
            if let Err(e) = analysis::write_csv(f, header, rows) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: failed to create {}: {e}", path.display()),
    }
}

/// Format a float with 3 decimals, rendering NaN as "-".
pub fn fmt3(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_conversion() {
        assert_eq!(lines_of_kb(512), 8192);
        assert_eq!(lines_of_kb(8192), 131_072);
    }

    #[test]
    fn scheme_factory_covers_fs_and_baselines() {
        for name in [
            "fs-feedback",
            "pf",
            "cqvp",
            "prism",
            "vantage",
            "full-assoc",
            "unpartitioned",
        ] {
            assert_eq!(scheme(name).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn scheme_factory_rejects_unknown() {
        let _ = scheme("lottery");
    }

    #[test]
    fn fmt3_renders_nan_as_dash() {
        assert_eq!(fmt3(f64::NAN), "-");
        assert_eq!(fmt3(0.25), "0.250");
    }

    #[test]
    fn engine_for_matches_boxed_composition() {
        use cachesim::{AccessBlock, AccessMeta, PartitionId, PartitionedCache};
        let set_assoc = || SetAssociative::with_lines(256, 16, LineHash::new(9));
        // One cell per scheme arm of the factory: boxed baseline,
        // concrete fs-feedback and concrete unpartitioned (the latter
        // two exercising the monomorphized byte lane where the ranking
        // supports it). The coarse cells are deliberately cross-backend:
        // `engine_for` hands them the bucket backends while the boxed
        // reference composition uses the treap rankings — identical
        // futility values must yield identical outcomes. The `treap`
        // cells build the treap cores `engine_for` keeps for
        // `max_futility_line` compositions.
        for (arr, rank, sch) in [
            ("set-assoc", "lru", "pf"),
            ("zcache", "rrip", "fs-feedback"),
            ("rand-cands", "coarse-lru", "fs-feedback"),
            ("set-assoc", "coarse-lru", "unpartitioned"),
            ("set-assoc", "coarse-lru treap", "fs-feedback"),
            ("set-assoc", "rrip treap", "unpartitioned"),
            ("zcache", "rrip-bucket", "fs-feedback"),
        ] {
            let mut mono: Box<dyn Engine> = match (rank, sch) {
                ("coarse-lru treap", "fs-feedback") => Box::new(EngineCore::new(
                    set_assoc(),
                    CoarseLru::new(),
                    FsFeedback::default_config(),
                    2,
                )),
                ("rrip treap", "unpartitioned") => Box::new(EngineCore::new(
                    set_assoc(),
                    Rrip::new(),
                    EvictMaxFutility,
                    2,
                )),
                _ => engine_for(arr, rank, sch, 256, 9, 2),
            };
            let array: Box<dyn CacheArray> = match arr {
                "set-assoc" => l2_array(256, 9),
                "rand-cands" => Box::new(RandomCandidates::new(256, 16, 9)),
                _ => Box::new(ZCache::new(64, 4, 16, 9)),
            };
            // The boxed reference always uses the canonical treap
            // ranking of the family.
            let boxed_rank = rank.trim_end_matches(" treap").trim_end_matches("-bucket");
            let mut boxed =
                PartitionedCache::new(array, futility_ranking(boxed_rank), scheme(sch), 2);
            let mut block = AccessBlock::new();
            let mut x = 3u64;
            for _ in 0..4000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                block.push(
                    PartitionId((x % 2) as u16),
                    (x >> 33) % 512,
                    AccessMeta::default(),
                );
            }
            let hits = mono.access_batch(&block);
            for i in 0..block.len() {
                boxed.access(block.parts()[i], block.addrs()[i], block.metas()[i]);
            }
            assert_eq!(hits, boxed.stats().total_hits(), "{arr}/{rank}/{sch}");
            assert_eq!(
                mono.stats().total_misses(),
                boxed.stats().total_misses(),
                "{arr}/{rank}/{sch}"
            );
            assert_eq!(
                mono.state().actual,
                boxed.state().actual,
                "{arr}/{rank}/{sch}"
            );
        }
    }
}
