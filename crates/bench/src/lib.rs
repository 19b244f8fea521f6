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
use cachesim::{Engine, EngineCore, FutilityRanking, PartitionScheme, ShardedEngine};
use futility_core::{FeedbackConfig, FsFeedback};
use ranking::{CoarseLru, ExactLru};
use std::path::{Path, PathBuf};

pub mod checkpoint;
pub mod experiments;
pub mod runner;

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

/// Build an engine for one benchmark-grid cell, with 16 candidate ways
/// per array kind at the given line count. The two rankings perfbench's
/// cells run, `"lru"` and `"coarse-lru"`, are monomorphized over each
/// array: 20 concrete [`EngineCore`]s behind one object-safe
/// [`Engine`]. The scheme dimension is devirtualized for
/// `"fs-feedback"`, whose victim scan and `notify_insert`/`notify_evict`
/// hooks then inline into the batched miss path; every other scheme
/// stays a trait object (DESIGN.md §10).
///
/// `"coarse-lru"` is one coarse LRU with an optional exact shadow. It
/// runs bare ([`CoarseLru::without_exact_shadow`], reporting the name
/// `"coarse-lru-bare"`) on every array except `"fully-assoc"`: both
/// configurations compute the same tag arithmetic, so victims are
/// identical and only the eviction futilities the statistics record
/// turn coarse. The fully-associative array evicts through
/// `max_futility_line`, which only the shadow answers, so it keeps
/// [`CoarseLru::new`]. The figures build their rankings boxed through
/// [`futility_ranking`], where `"coarse-lru"` keeps the shadow.
///
/// Every other ranking name builds the fully boxed
/// [`PartitionedCache`](cachesim::PartitionedCache) composition the
/// figures run, with the ranking from [`futility_ranking`].
///
/// # Panics
/// Panics on unknown array, ranking or scheme names.
pub fn engine_for(
    array: &str,
    ranking_name: &str,
    scheme_name: &str,
    lines: usize,
    seed: u64,
    partitions: usize,
) -> Box<dyn Engine> {
    let coarse_lru = || {
        if array == "fully-assoc" {
            CoarseLru::new()
        } else {
            CoarseLru::without_exact_shadow()
        }
    };
    macro_rules! with_scheme {
        ($arr:expr, $rank:expr) => {
            match scheme_name {
                "fs-feedback" => Box::new(EngineCore::new(
                    $arr,
                    $rank,
                    FsFeedback::new(FeedbackConfig::default()),
                    partitions,
                )) as Box<dyn Engine>,
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
                "coarse-lru" => with_scheme!($arr, coarse_lru()),
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

/// Build a [`ShardedEngine`] for a scale-out sweep cell: `shards` cores
/// (16-way set-associative array, the bare coarse LRU of
/// [`engine_for`]'s fast lane, `"coarse-lru-bare"`: the sharded sweeps
/// read miss rates and MADs, not exact AEF), each over
/// `total_lines / shards` lines. As in [`engine_for`], `"fs-feedback"`
/// is one monomorphized core (its victim scan inlines into the miss
/// path) and every other scheme stays boxed.
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
        // One cell per array arm, both ranking arms and both scheme
        // lanes of the factory (concrete fs-feedback, boxed baselines
        // including unpartitioned), plus one ranking that takes the
        // fully boxed fallback. The coarse-lru cells are deliberately
        // cross-configuration except on fully-assoc: `engine_for` hands
        // them the bare tag map while the boxed reference keeps the
        // exact shadow — identical tag arithmetic must yield identical
        // outcomes. The `shadowed` cell builds the shadowed core
        // directly.
        for (arr, rank, sch) in [
            ("set-assoc", "lru", "pf"),
            ("zcache", "lru", "fs-feedback"),
            ("set-assoc", "lru", "unpartitioned"),
            ("rand-cands", "coarse-lru", "fs-feedback"),
            ("set-assoc", "coarse-lru", "unpartitioned"),
            ("zcache", "coarse-lru", "prism"),
            ("skew-assoc", "coarse-lru", "fs-feedback"),
            ("fully-assoc", "coarse-lru", "fs-feedback"),
            ("set-assoc", "lfu", "vantage"),
            ("set-assoc", "coarse-lru shadowed", "fs-feedback"),
        ] {
            let mut mono: Box<dyn Engine> = match rank {
                "coarse-lru shadowed" => Box::new(EngineCore::new(
                    set_assoc(),
                    CoarseLru::new(),
                    FsFeedback::default_config(),
                    2,
                )),
                _ => engine_for(arr, rank, sch, 256, 9, 2),
            };
            let array: Box<dyn CacheArray> = match arr {
                "set-assoc" => l2_array(256, 9),
                "skew-assoc" => Box::new(SkewAssociative::new(16, 16, 9)),
                "zcache" => Box::new(ZCache::new(64, 4, 16, 9)),
                "rand-cands" => random_array(256, 16, 9),
                _ => fa_array(256),
            };
            // The boxed reference always keeps the exact shadow.
            let boxed_rank = rank.trim_end_matches(" shadowed");
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
            // Where both sides run the same ranking configuration, the
            // whole engine state must match byte for byte.
            if mono.ranking().name() == boxed.ranking().name() {
                assert!(mono.snapshot() == boxed.snapshot(), "{arr}/{rank}/{sch}");
            }
        }
    }
}
