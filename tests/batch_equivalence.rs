//! The batched access pipeline is an implementation detail: feeding a
//! stream through `access_batch` (in arbitrarily sized blocks) must be
//! observably identical to feeding it access by access — the same
//! `AccessOutcome` sequence, statistics, partition state and recorder
//! samples — for every array × ranking × scheme combination, including
//! blocks that straddle a mid-stream statistics reset (the warmup
//! boundary of `InterleavedDriver`).

use futility_scaling::prelude::*;
use testkit::{check, int_range, tk_assert, tk_assert_eq, vec_of, CaseResult};

const PARTS: usize = 3;

const ARRAYS: usize = 5;
const RANKINGS: usize = 8;
const SCHEMES: usize = 6;

fn build(array_idx: usize, ranking_idx: usize, scheme_idx: usize, seed: u64) -> PartitionedCache {
    let array: Box<dyn cachesim::array::CacheArray> = match array_idx {
        0 => Box::new(SetAssociative::new(8, 4, LineHash::new(seed))),
        1 => Box::new(SkewAssociative::new(8, 4, seed)),
        2 => Box::new(ZCache::new(8, 4, 8, seed)),
        3 => Box::new(RandomCandidates::new(32, 4, seed)),
        _ => Box::new(FullyAssociative::new(32)),
    };
    // Indices 0..6 are the sweep registry, 6 the naive shadow reference,
    // 7 the bare coarse LRU of `engine_for`'s fast lane (DESIGN.md §14).
    let ranking: Box<dyn FutilityRanking> = match ranking_idx {
        i if i < 6 => ranking::by_name(ranking::ALL_RANKINGS[i]).unwrap(),
        6 => cachesim::naive_lru(),
        _ => ranking::by_name("coarse-lru-bare").unwrap(),
    };
    let scheme: Box<dyn PartitionScheme> = match scheme_idx {
        0 => cachesim::evict_max_futility(),
        1 => Box::new(Pf),
        2 => Box::new(Cqvp),
        3 => Box::new(FsFeedback::default_config()),
        4 => Box::new(Vantage::default_config()),
        _ => Box::new(Prism::default_config()),
    };
    // The fully-associative array needs a ranking with max_futility_line;
    // NaiveLru and the registry rankings all provide it (see
    // `composable`).
    let mut cache = PartitionedCache::new(array, ranking, scheme, PARTS);
    cache.set_targets(&[16, 10, 6]);
    cache
}

/// Whether the grid builds this array × ranking pair: the bare coarse
/// LRU answers no `max_futility_line`, so it cannot evict from the
/// fully-associative array (`fs_bench::engine_for` never pairs them).
fn composable(array_idx: usize, ranking_idx: usize) -> bool {
    !(array_idx == 4 && ranking_idx == 7)
}

/// Generated case: an access stream, a block-size schedule (cycled over
/// the stream, so block boundaries land at arbitrary offsets) and one
/// array × ranking × scheme combination.
type BatchCase = ((Vec<(u16, u64)>, Vec<usize>), (usize, usize, usize));

fn prop_batch_matches_scalar(
    ((accesses, block_sizes), (array_idx, ranking_idx, scheme_idx)): &BatchCase,
) -> CaseResult {
    if !composable(*array_idx, *ranking_idx) {
        return Ok(());
    }
    let mut scalar = build(*array_idx, *ranking_idx, *scheme_idx, 7);
    let mut batched = build(*array_idx, *ranking_idx, *scheme_idx, 7);

    let stream: Vec<(PartitionId, u64, AccessMeta)> = accesses
        .iter()
        .map(|&(p, base)| {
            let part = PartitionId(p % PARTS as u16);
            // Per-partition namespaces with some cross-partition overlap
            // (every 5th address is shared) so foreign hits occur.
            let addr = if base % 5 == 0 {
                base
            } else {
                base + part.0 as u64 * 1_000
            };
            (part, addr, AccessMeta::default())
        })
        .collect();

    let expect: Vec<AccessOutcome> = stream
        .iter()
        .map(|&(p, a, m)| scalar.access(p, a, m))
        .collect();

    let mut got = Vec::new();
    let mut block = AccessBlock::new();
    let mut hits = 0u64;
    let mut bs = block_sizes.iter().cycle();
    let mut i = 0usize;
    while i < stream.len() {
        let take = (*bs.next().unwrap()).clamp(1, stream.len() - i);
        block.clear();
        for &(p, a, m) in &stream[i..i + take] {
            block.push(p, a, m);
        }
        hits += batched.access_batch_into(&block, &mut got);
        i += take;
    }

    tk_assert_eq!(got.len(), expect.len());
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        if g != e {
            return Err(testkit::Failure::fail(format!(
                "outcome {i} diverged: batched {g:?} vs scalar {e:?}"
            )));
        }
    }
    tk_assert_eq!(hits, expect.iter().filter(|o| o.is_hit()).count() as u64);
    tk_assert_eq!(batched.time(), scalar.time());
    tk_assert_eq!(batched.state().actual, scalar.state().actual);
    let (sa, sb) = (scalar.stats(), batched.stats());
    tk_assert_eq!(sa.total_hits(), sb.total_hits());
    tk_assert_eq!(sa.total_misses(), sb.total_misses());
    for p in 0..PARTS as u16 {
        let (pa, pb) = (sa.partition(PartitionId(p)), sb.partition(PartitionId(p)));
        tk_assert_eq!(pa.hits, pb.hits);
        tk_assert_eq!(pa.misses, pb.misses);
        tk_assert_eq!(pa.evictions, pb.evictions);
        tk_assert!((pa.evict_futility_sum - pb.evict_futility_sum).abs() < 1e-12);
    }
    Ok(())
}

#[test]
fn batch_matches_scalar_across_grid() {
    check(
        "batch_matches_scalar_across_grid",
        &(
            (
                vec_of((int_range(0u16..3), int_range(0u64..120)), 1..800),
                vec_of(int_range(1usize..97), 1..8),
            ),
            (
                int_range(0usize..ARRAYS),
                int_range(0usize..RANKINGS),
                int_range(0usize..SCHEMES),
            ),
        ),
        prop_batch_matches_scalar,
    );
}

/// A mid-stream `stats_mut().reset()` (the warmup boundary) interacts
/// with batching exactly as with scalar feeding when the driver flushes
/// at the reset point — post-reset statistics must match a scalar
/// replay that resets at the same access index.
#[test]
fn batch_straddles_warmup_reset() {
    for (array_idx, ranking_idx, scheme_idx) in [
        (0, 0, 3),
        (1, 6, 1),
        (2, 1, 4),
        (3, 5, 5),
        (4, 2, 0),
        (0, 7, 3),
        (2, 7, 5),
    ] {
        let mut scalar = build(array_idx, ranking_idx, scheme_idx, 7);
        let mut batched = build(array_idx, ranking_idx, scheme_idx, 7);
        let stream: Vec<(PartitionId, u64)> = (0..1000u64)
            .map(|i| {
                (
                    PartitionId((i % PARTS as u64) as u16),
                    (i * 23) % 90 + (i % PARTS as u64) * 1_000,
                )
            })
            .collect();
        let reset_at = 487usize; // mid-block for every power-of-two block size

        for (i, &(p, a)) in stream.iter().enumerate() {
            scalar.access(p, a, AccessMeta::default());
            if i + 1 == reset_at {
                scalar.stats_mut().reset();
            }
        }

        let mut block = AccessBlock::new();
        for seg in [&stream[..reset_at], &stream[reset_at..]] {
            for chunk in seg.chunks(64) {
                block.clear();
                for &(p, a) in chunk {
                    block.push(p, a, AccessMeta::default());
                }
                batched.access_batch(&block);
            }
            if seg.len() == reset_at {
                batched.stats_mut().reset();
            }
        }

        assert_eq!(batched.time(), scalar.time());
        assert_eq!(batched.state().actual, scalar.state().actual);
        assert_eq!(batched.stats().total_hits(), scalar.stats().total_hits());
        assert_eq!(
            batched.stats().total_misses(),
            scalar.stats().total_misses()
        );
    }
}

/// Drive `stream` through a scalar and a batched engine of the given
/// grid cell (blocks of 64, so block tails land mid-run) and require
/// identical outcomes and statistics.
fn assert_streams_match(
    array_idx: usize,
    ranking_idx: usize,
    scheme_idx: usize,
    stream: &[(PartitionId, u64)],
) {
    if !composable(array_idx, ranking_idx) {
        return;
    }
    let ctx = format!("cell {array_idx}/{ranking_idx}/{scheme_idx}");
    let mut scalar = build(array_idx, ranking_idx, scheme_idx, 7);
    let mut batched = build(array_idx, ranking_idx, scheme_idx, 7);
    let expect: Vec<AccessOutcome> = stream
        .iter()
        .map(|&(p, a)| scalar.access(p, a, AccessMeta::default()))
        .collect();
    let mut got = Vec::new();
    let mut block = AccessBlock::new();
    for chunk in stream.chunks(64) {
        block.clear();
        for &(p, a) in chunk {
            block.push(p, a, AccessMeta::default());
        }
        batched.access_batch_into(&block, &mut got);
    }
    assert_eq!(got, expect, "{ctx}");
    assert_eq!(batched.time(), scalar.time(), "{ctx}");
    assert_eq!(batched.state().actual, scalar.state().actual, "{ctx}");
    for p in 0..PARTS as u16 {
        let (pa, pb) = (
            scalar.stats().partition(PartitionId(p)),
            batched.stats().partition(PartitionId(p)),
        );
        assert_eq!(pa.hits, pb.hits, "{ctx}");
        assert_eq!(pa.misses, pb.misses, "{ctx}");
        assert_eq!(pa.evictions, pb.evictions, "{ctx}");
        assert!(
            (pa.evict_futility_sum - pb.evict_futility_sum).abs() < 1e-12,
            "{ctx}"
        );
    }
}

/// Miss-dominated blocks over the full grid: an address universe far
/// larger than the 32-line caches keeps the miss path and its victim
/// pick engaged for essentially every access.
#[test]
fn miss_dominated_blocks_match_scalar_across_grid() {
    for array_idx in 0..ARRAYS {
        for ranking_idx in 0..RANKINGS {
            for scheme_idx in 0..SCHEMES {
                let stream: Vec<(PartitionId, u64)> = (0..400u64)
                    .map(|i| {
                        let p = PartitionId((i % PARTS as u64) as u16);
                        (p, (i * 97) % 4096 + p.0 as u64 * 10_000)
                    })
                    .collect();
                assert_streams_match(array_idx, ranking_idx, scheme_idx, &stream);
            }
        }
    }
}

/// Alternating hit/miss blocks over the full grid: eight accesses to a
/// small resident set, then eight churn accesses, so every block
/// boundary flips between deferring a hit run and flushing it before a
/// miss (including runs cut short by an intervening miss).
#[test]
fn alternating_hit_miss_blocks_match_scalar_across_grid() {
    for array_idx in 0..ARRAYS {
        for ranking_idx in 0..RANKINGS {
            for scheme_idx in 0..SCHEMES {
                let stream: Vec<(PartitionId, u64)> = (0..400u64)
                    .map(|i| {
                        let p = PartitionId((i % PARTS as u64) as u16);
                        let addr = if (i / 8) % 2 == 0 {
                            (i % 8) + p.0 as u64 * 1_000
                        } else {
                            (i * 131) % 4096 + 20_000 + p.0 as u64 * 10_000
                        };
                        (p, addr)
                    })
                    .collect();
                assert_streams_match(array_idx, ranking_idx, scheme_idx, &stream);
            }
        }
    }
}

/// With a recorder attached the batch path must produce the identical
/// sample stream (it falls back to scalar feeding internally so the
/// recorder observes every access).
#[test]
fn batch_preserves_recorder_samples() {
    let mut scalar = build(1, 0, 3, 7);
    let mut batched = build(1, 0, 3, 7);
    scalar.attach_timeseries(16, 1 << 12);
    batched.attach_timeseries(16, 1 << 12);

    let mut block = AccessBlock::new();
    for i in 0..2_000u64 {
        let p = PartitionId((i % PARTS as u64) as u16);
        let addr = (i * 37) % 120 + p.0 as u64 * 1_000;
        scalar.access(p, addr, AccessMeta::default());
        block.push(p, addr, AccessMeta::default());
        if block.len() == 97 {
            batched.access_batch(&block);
            block.clear();
        }
    }
    batched.access_batch(&block);

    let (ts_a, ts_b) = (
        scalar.timeseries().expect("recorder attached"),
        batched.timeseries().expect("recorder attached"),
    );
    assert_eq!(ts_a.len(), ts_b.len());
    for (a, b) in ts_a.samples().zip(ts_b.samples()) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.series, b.series);
        assert_eq!(a.part, b.part);
        // Bitwise comparison so NaN samples (e.g. AEF before any
        // eviction) compare equal to themselves.
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "sample diverged: {a:?} vs {b:?}"
        );
    }
}

/// The `InterleavedDriver` (now feeding blocks) must produce the same
/// statistics as a hand-rolled scalar round-robin replay with the same
/// warmup-reset rule.
#[test]
fn interleaved_driver_batched_matches_scalar_replay() {
    let traces: Vec<Trace> = (0..PARTS as u64)
        .map(|p| Trace::from_addrs((0..700u64).map(|i| (i * 13) % (60 + p * 20) + p * 1_000), 1))
        .collect();
    let warmup_fraction = 0.37;

    let mut driven = build(0, 0, 3, 7);
    InterleavedDriver::new(traces.clone()).run(&mut driven, warmup_fraction);

    // Scalar reference: the pre-batching driver loop.
    let mut scalar = build(0, 0, 3, 7);
    let mut cursors: Vec<(Vec<u64>, Vec<u64>, usize)> = traces
        .into_iter()
        .map(|t| {
            let next_use = t.annotate_next_use();
            let addrs: Vec<u64> = t.accesses.iter().map(|a| a.addr).collect();
            (addrs, next_use, 0usize)
        })
        .collect();
    let total: usize = cursors.iter().map(|c| c.0.len()).sum();
    let warmup = (total as f64 * warmup_fraction) as usize;
    let mut fed = 0usize;
    let mut reset_done = false;
    while cursors.iter().any(|c| c.2 < c.0.len()) {
        for (i, cur) in cursors.iter_mut().enumerate() {
            if cur.2 < cur.0.len() {
                let meta = AccessMeta::with_next_use(cur.1[cur.2]);
                scalar.access(PartitionId(i as u16), cur.0[cur.2], meta);
                cur.2 += 1;
                fed += 1;
            }
        }
        if !reset_done && fed >= warmup {
            scalar.stats_mut().reset();
            reset_done = true;
        }
    }

    assert_eq!(driven.time(), scalar.time());
    assert_eq!(driven.state().actual, scalar.state().actual);
    assert_eq!(driven.stats().total_hits(), scalar.stats().total_hits());
    assert_eq!(driven.stats().total_misses(), scalar.stats().total_misses());
    for p in 0..PARTS as u16 {
        let (pa, pb) = (
            scalar.stats().partition(PartitionId(p)),
            driven.stats().partition(PartitionId(p)),
        );
        assert_eq!(pa.hits, pb.hits);
        assert_eq!(pa.misses, pb.misses);
        assert_eq!(pa.evictions, pb.evictions);
    }
}
