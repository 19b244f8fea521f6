//! Checkpoint/resume replay proofs: a snapshot taken between accesses
//! is a *complete* description of the simulation. For every array ×
//! ranking × scheme combination, running K accesses, snapshotting, and
//! continuing for M more must be observably identical to restoring the
//! snapshot into a freshly built engine and feeding it the same M
//! accesses — the same outcome sequence, statistics, partition state,
//! recorder samples, and (the strongest form) the same final snapshot
//! bytes. The property test adds arbitrary checkpoint positions, a
//! mid-stream statistics reset (the warmup boundary, which checkpoints
//! may straddle on either side) and a batched-replay arm.

use futility_scaling::prelude::*;
use testkit::{check, int_range, tk_assert, tk_assert_eq, vec_of, CaseResult};

const PARTS: usize = 3;
const ARRAYS: usize = 5;
const RANKINGS: usize = 9;
const SCHEMES: usize = 7;

/// Mirror of the batch-equivalence grid, extended with way-partitioning
/// (scheme index 6), which is only meaningful on the set-associative
/// array (index 0) whose slot layout is `set * ways + way`.
fn build(array_idx: usize, ranking_idx: usize, scheme_idx: usize, seed: u64) -> PartitionedCache {
    let array: Box<dyn cachesim::array::CacheArray> = match array_idx {
        0 => Box::new(SetAssociative::new(8, 4, LineHash::new(seed))),
        1 => Box::new(SkewAssociative::new(8, 4, seed)),
        2 => Box::new(ZCache::new(8, 4, 8, seed)),
        3 => Box::new(RandomCandidates::new(32, 4, seed)),
        _ => Box::new(FullyAssociative::new(32)),
    };
    // 0..6 the sweep registry, 6 the naive shadow reference, 7..9 the
    // bucket backends with their own FSSN sections (DESIGN.md §14).
    let ranking: Box<dyn FutilityRanking> = match ranking_idx {
        i if i < 6 => ranking::by_name(ranking::ALL_RANKINGS[i]).unwrap(),
        6 => cachesim::naive_lru(),
        7 => ranking::by_name("coarse-lru-bucket").unwrap(),
        _ => ranking::by_name("rrip-bucket").unwrap(),
    };
    let scheme: Box<dyn PartitionScheme> = match scheme_idx {
        0 => cachesim::evict_max_futility(),
        1 => Box::new(Pf),
        2 => Box::new(Cqvp),
        3 => Box::new(FsFeedback::default_config()),
        4 => Box::new(Vantage::default_config()),
        5 => Box::new(Prism::default_config()),
        _ => Box::new(WayPartitioned::new(4)),
    };
    let mut cache = PartitionedCache::new(array, ranking, scheme, PARTS);
    cache.set_targets(&[16, 10, 6]);
    cache
}

fn stream(seed: u64, n: usize) -> Vec<(PartitionId, u64, AccessMeta)> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let part = PartitionId(((x >> 16) % PARTS as u64) as u16);
            // Bounded universe with cross-partition overlap so foreign
            // hits occur and the rankings keep recycling state.
            let base = (x >> 33) % 160;
            let addr = if base.is_multiple_of(5) {
                base
            } else {
                base + part.0 as u64 * 1_000
            };
            (part, addr, AccessMeta::default())
        })
        .collect()
}

fn feed(cache: &mut PartitionedCache, accesses: &[(PartitionId, u64, AccessMeta)]) {
    for &(p, a, m) in accesses {
        cache.access(p, a, m);
    }
}

/// Every grid combination: run K, snapshot, run M — the resumed engine
/// must match outcome-for-outcome and byte-for-byte, with a live
/// recorder on both sides.
#[test]
fn snapshot_resume_replays_every_combination() {
    const K: usize = 800;
    const M: usize = 500;
    let mut failures = Vec::new();
    for array_idx in 0..ARRAYS {
        for ranking_idx in 0..RANKINGS {
            for scheme_idx in 0..SCHEMES {
                if scheme_idx == 6 && array_idx != 0 {
                    continue; // way-partitioning needs set*ways+way slots
                }
                let accesses = stream(0xFEED ^ (array_idx * 64 + ranking_idx * 8) as u64, K + M);
                let name = format!("array {array_idx}/ranking {ranking_idx}/scheme {scheme_idx}");

                let mut full = build(array_idx, ranking_idx, scheme_idx, 7);
                full.attach_timeseries(32, 64);
                feed(&mut full, &accesses[..K]);
                let snap = full.snapshot();
                let suffix: Vec<AccessOutcome> = accesses[K..]
                    .iter()
                    .map(|&(p, a, m)| full.access(p, a, m))
                    .collect();

                let mut resumed = build(array_idx, ranking_idx, scheme_idx, 7);
                resumed.attach_timeseries(32, 64);
                if let Err(e) = resumed.restore(&snap) {
                    failures.push(format!("{name}: restore failed: {e}"));
                    continue;
                }
                let replayed: Vec<AccessOutcome> = accesses[K..]
                    .iter()
                    .map(|&(p, a, m)| resumed.access(p, a, m))
                    .collect();

                if suffix != replayed {
                    failures.push(format!("{name}: outcome sequences diverge"));
                    continue;
                }
                if full.state().actual != resumed.state().actual {
                    failures.push(format!("{name}: occupancies diverge"));
                    continue;
                }
                if full.timeseries().unwrap().rows() != resumed.timeseries().unwrap().rows() {
                    failures.push(format!("{name}: recorder rows diverge"));
                    continue;
                }
                if full.snapshot() != resumed.snapshot() {
                    failures.push(format!("{name}: final snapshot bytes diverge"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "resume replay diverged:\n{}",
        failures.join("\n")
    );
}

/// Generated case: an access stream, percentage positions for the
/// checkpoint and the warmup reset (so checkpoints land on either side
/// of the reset), a block-size schedule for the batched arm, and one
/// grid combination.
type ResumeCase = (
    (Vec<(u16, u64)>, usize, usize),
    (usize, usize, usize),
    Vec<usize>,
);

fn prop_resume_matches_uninterrupted(
    ((raw, k_pct, w_pct), (array_idx, ranking_idx, scheme_idx), block_sizes): &ResumeCase,
) -> CaseResult {
    let scheme_idx = if *scheme_idx == 6 && *array_idx != 0 {
        0 // way-partitioning only fits the set-associative layout
    } else {
        *scheme_idx
    };
    let accesses: Vec<(PartitionId, u64, AccessMeta)> = raw
        .iter()
        .map(|&(p, base)| {
            let part = PartitionId(p % PARTS as u16);
            let addr = if base.is_multiple_of(5) {
                base
            } else {
                base + part.0 as u64 * 1_000
            };
            (part, addr, AccessMeta::default())
        })
        .collect();
    let k = accesses.len() * k_pct / 100;
    let warmup = accesses.len() * w_pct / 100;

    // Uninterrupted reference: reset stats at `warmup`, snapshot at `k`.
    let mut full = build(*array_idx, *ranking_idx, scheme_idx, 7);
    full.attach_timeseries(16, 32);
    let mut snap = None;
    for (i, &(p, a, m)) in accesses.iter().enumerate() {
        if i == warmup {
            full.stats_mut().reset();
        }
        if i == k {
            snap = Some(full.snapshot());
        }
        full.access(p, a, m);
    }
    if warmup == accesses.len() {
        full.stats_mut().reset();
    }
    let snap = snap.unwrap_or_else(|| full.snapshot());

    // Scalar resume arm: restore, then replay the tail (including the
    // reset when the checkpoint straddles it).
    let mut resumed = build(*array_idx, *ranking_idx, scheme_idx, 7);
    resumed.attach_timeseries(16, 32);
    resumed
        .restore(&snap)
        .map_err(|e| testkit::Failure::fail(format!("restore failed: {e}")))?;
    for (i, &(p, a, m)) in accesses.iter().enumerate().skip(k) {
        if i == warmup {
            resumed.stats_mut().reset();
        }
        resumed.access(p, a, m);
    }
    // A trailing reset (warmup == len) precedes the fallback snapshot in
    // the reference arm, so it only belongs to the tail when k < len.
    if warmup == accesses.len() && k < accesses.len() {
        resumed.stats_mut().reset();
    }
    tk_assert_eq!(full.snapshot(), resumed.snapshot());

    // Batched resume arm: the tail replayed through `access_batch` in
    // arbitrary blocks must land on the same bytes (no reset inside a
    // block: the engine flushes deferred hits only at block ends).
    let mut batched = build(*array_idx, *ranking_idx, scheme_idx, 7);
    batched.attach_timeseries(16, 32);
    batched
        .restore(&snap)
        .map_err(|e| testkit::Failure::fail(format!("restore failed: {e}")))?;
    let mut block = AccessBlock::new();
    let mut sizes = block_sizes.iter().cycle();
    let mut i = k;
    while i < accesses.len() {
        if i == warmup {
            batched.stats_mut().reset();
        }
        let mut take = (*sizes.next().unwrap()).clamp(1, accesses.len() - i);
        // Blocks never straddle the reset point.
        if i < warmup {
            take = take.min(warmup - i);
        }
        block.clear();
        for &(p, a, m) in &accesses[i..i + take] {
            block.push(p, a, m);
        }
        batched.access_batch(&block);
        i += take;
    }
    if warmup == accesses.len() && k < accesses.len() {
        batched.stats_mut().reset();
    }
    tk_assert_eq!(full.snapshot(), batched.snapshot());
    tk_assert!(
        full.timeseries().unwrap().rows() == batched.timeseries().unwrap().rows(),
        "batched-resume recorder rows diverge"
    );
    Ok(())
}

#[test]
fn resume_replay_property() {
    check(
        "resume_replay_property",
        &(
            (
                vec_of(
                    (int_range(0u16..PARTS as u16 * 3), int_range(0u64..160)),
                    40..400,
                ),
                int_range(0usize..101),
                int_range(0usize..101),
            ),
            (
                int_range(0usize..ARRAYS),
                int_range(0usize..RANKINGS),
                int_range(0usize..SCHEMES),
            ),
            vec_of(int_range(1usize..24), 1..6),
        ),
        prop_resume_matches_uninterrupted,
    );
}

/// The pinned straddling case: checkpoint strictly before the warmup
/// reset, so the resumed engine replays the reset itself.
#[test]
fn checkpoint_before_warmup_reset_replays() {
    let raw: Vec<(u16, u64)> = (0..200u64)
        .map(|i| ((i % 9) as u16, (i * 13) % 160))
        .collect();
    let case: ResumeCase = ((raw, 25, 75), (3, 0, 3), vec![7]);
    prop_resume_matches_uninterrupted(&case).unwrap();
}

/// Sharded arm: a `ShardedEngine::snapshot()` (the versioned container
/// of per-shard images) is a complete description of the whole sharded
/// simulation. Run K blocks, snapshot, continue for M more — the
/// restored replica must match hit-for-hit, with identical merged
/// statistics, merged recorder rows, and final snapshot bytes.
#[test]
fn sharded_snapshot_resume_replays() {
    const SHARDS: usize = 4;
    const SH_PARTS: usize = 4;
    let build_sharded = || {
        let mut e = fs_bench::sharded_engine_for("fs-feedback", 1024, SHARDS, SH_PARTS, 0xBEEF);
        e.attach_timeseries(64, 256);
        e
    };
    let block_of = |seed: u64, n: usize| {
        let mut b = AccessBlock::new();
        let mut x = seed | 1;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(
                PartitionId(((x >> 16) % SH_PARTS as u64) as u16),
                (x >> 33) % 4_096,
                AccessMeta::default(),
            );
        }
        b
    };

    let mut donor = build_sharded();
    for k in 0..6u64 {
        donor.access_batch(&block_of(k * 7 + 1, 700));
    }
    let snap = donor.snapshot();

    let mut resumed = build_sharded();
    resumed.restore(&snap).expect("restore sharded snapshot");

    for m in 0..4u64 {
        let b = block_of(m * 11 + 100, 500);
        assert_eq!(
            donor.access_batch(&b),
            resumed.access_batch(&b),
            "block {m}"
        );
    }
    let (ds, rs) = (donor.merged_stats(), resumed.merged_stats());
    assert_eq!(ds.total_hits(), rs.total_hits());
    assert_eq!(ds.total_misses(), rs.total_misses());
    for p in 0..SH_PARTS {
        let id = PartitionId(p as u16);
        assert_eq!(ds.size_mad(id).to_bits(), rs.size_mad(id).to_bits());
    }
    assert_eq!(donor.merged_recorder_rows(), resumed.merged_recorder_rows());
    assert_eq!(donor.snapshot(), resumed.snapshot());

    // Composition checks: wrong shard count and wrong partition count
    // both fail descriptively, and never panic.
    let err = fs_bench::sharded_engine_for("fs-feedback", 1024, 2, SH_PARTS, 0xBEEF)
        .restore(&snap)
        .expect_err("shard-count mismatch must be rejected");
    assert!(format!("{err}").contains("shards"), "{err}");
    let err = fs_bench::sharded_engine_for("fs-feedback", 1024, SHARDS, 8, 0xBEEF)
        .restore(&snap)
        .expect_err("partition-count mismatch must be rejected");
    assert!(format!("{err}").contains("partitions"), "{err}");
}

/// A snapshot of the bucket coarse LRU must not restore into the
/// shadow-less scalar one the sharded engine uses, nor the reverse.
#[test]
fn coarse_lru_backend_mismatch_is_rejected() {
    fn engine(ranking: impl FutilityRanking + 'static) -> Box<dyn Engine> {
        Box::new(EngineCore::new(
            SetAssociative::with_lines(256, 16, LineHash::new(0xBEEF)),
            ranking,
            FsFeedback::default_config(),
            PARTS,
        ))
    }
    let bucket = || engine(ranking::BucketCoarseLru::new());
    let scalar = || engine(ranking::CoarseLru::without_exact_shadow());
    for (mut donor, mut other) in [(bucket(), scalar()), (scalar(), bucket())] {
        for (part, addr, meta) in stream(0xFEED, 2_000) {
            donor.access(part, addr, meta);
        }
        let err = other
            .restore(&donor.snapshot())
            .expect_err("backend mismatch must be rejected");
        assert!(
            matches!(err, cachesim::SnapshotError::Mismatch { .. }),
            "{err}"
        );
    }
}
