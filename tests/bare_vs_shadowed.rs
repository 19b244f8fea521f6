//! The bare coarse LRU contract (DESIGN.md §14): the shadow-less
//! `coarse-lru-bare` computes the same timestamp tags as the shadowed
//! `coarse-lru`, so every composition that selects victims through
//! candidate futility must replay identically across the two: the same
//! hit/miss sequence, the same victim lines, the same occupancies and
//! the same hit/miss/eviction statistics.
//!
//! The one difference is `true_futility`: the bare map answers with the
//! coarse timestamp estimate, where the shadow gives the exact rank.
//! That rank feeds only *observability*: the `Eviction::futility` field
//! of miss outcomes, the AEF statistic and its recorder series, and the
//! eviction-futility histogram. It never picks victims. The bare map
//! answers no `max_futility_line`, so the fully-associative array,
//! which evicts through it, is absent from the replay grid (and
//! `fs_bench::engine_for` keeps the shadow there).

use futility_scaling::prelude::*;
use testkit::{check, int_range, vec_of, CaseResult};

const PARTS: usize = 3;
/// Arrays that evict through candidate futility. `FullyAssociative`
/// (index 4 of the batch grid) evicts through `max_futility_line` and
/// is deliberately absent.
const ARRAYS: usize = 4;
const SCHEMES: usize = 6;

fn build(array_idx: usize, ranking_name: &str, scheme_idx: usize, seed: u64) -> PartitionedCache {
    let array: Box<dyn cachesim::array::CacheArray> = match array_idx {
        0 => Box::new(SetAssociative::new(8, 4, LineHash::new(seed))),
        1 => Box::new(SkewAssociative::new(8, 4, seed)),
        2 => Box::new(ZCache::new(8, 4, 8, seed)),
        _ => Box::new(RandomCandidates::new(32, 4, seed)),
    };
    let scheme: Box<dyn PartitionScheme> = match scheme_idx {
        0 => cachesim::evict_max_futility(),
        1 => Box::new(Pf),
        2 => Box::new(Cqvp),
        3 => Box::new(FsFeedback::default_config()),
        4 => Box::new(Vantage::default_config()),
        _ => Box::new(Prism::default_config()),
    };
    let mut cache = PartitionedCache::new(
        array,
        ranking::by_name(ranking_name).unwrap(),
        scheme,
        PARTS,
    );
    cache.set_targets(&[16, 10, 6]);
    cache
}

/// Outcome equality modulo the one documented difference: the
/// `Eviction::futility` observability field may differ (exact shadow
/// rank vs coarse estimate); everything decision-relevant — hit vs
/// miss, whether an eviction happened, and *which line* from *which
/// pool* was evicted — must be identical.
fn outcomes_agree(a: &AccessOutcome, b: &AccessOutcome) -> bool {
    match (a, b) {
        (AccessOutcome::Hit, AccessOutcome::Hit) => true,
        (AccessOutcome::Miss { evicted: ea }, AccessOutcome::Miss { evicted: eb }) => {
            match (ea, eb) {
                (None, None) => true,
                (Some(x), Some(y)) => x.addr == y.addr && x.part == y.part,
                _ => false,
            }
        }
        _ => false,
    }
}

/// Replay `stream` through a shadowed and a bare build of the same
/// cell and require agreement on everything decision-relevant.
fn assert_configs_agree(
    array_idx: usize,
    scheme_idx: usize,
    stream: &[(PartitionId, u64)],
) -> Result<(), String> {
    let ctx = format!("cell {array_idx}/{scheme_idx}");
    let mut shadowed = build(array_idx, "coarse-lru", scheme_idx, 7);
    let mut bare = build(array_idx, "coarse-lru-bare", scheme_idx, 7);
    for (i, &(p, a)) in stream.iter().enumerate() {
        let os = shadowed.access(p, a, AccessMeta::default());
        let ob = bare.access(p, a, AccessMeta::default());
        if !outcomes_agree(&os, &ob) {
            return Err(format!("{ctx}: access {i} diverged: {os:?} vs {ob:?}"));
        }
    }
    if shadowed.time() != bare.time() {
        return Err(format!("{ctx}: times diverge"));
    }
    if shadowed.state().actual != bare.state().actual {
        return Err(format!("{ctx}: occupancies diverge"));
    }
    let (ss, sb) = (shadowed.stats(), bare.stats());
    if ss.total_hits() != sb.total_hits() || ss.total_misses() != sb.total_misses() {
        return Err(format!("{ctx}: hit/miss totals diverge"));
    }
    for p in 0..PARTS as u16 {
        let (pa, pb) = (ss.partition(PartitionId(p)), sb.partition(PartitionId(p)));
        if (pa.hits, pa.misses, pa.evictions) != (pb.hits, pb.misses, pb.evictions) {
            return Err(format!("{ctx}: partition {p} statistics diverge"));
        }
    }
    Ok(())
}

/// Churn-heavy deterministic stream: the universe is ~10× the cache so
/// victim selection runs on most accesses, with periodic re-touches so
/// futility classes mix.
fn churn_stream(seed: u64, n: usize) -> Vec<(PartitionId, u64)> {
    (0..n as u64)
        .map(|i| {
            let p = PartitionId(((i ^ seed) % PARTS as u64) as u16);
            let addr = if i % 7 < 2 {
                (i * 13) % 24 + p.0 as u64 * 1_000 // resident re-touches
            } else {
                (i * 97 + seed) % 360 + 10_000 + p.0 as u64 * 10_000
            };
            (p, addr)
        })
        .collect()
}

/// Every futility-selecting cell of the grid: the bare map must replay
/// the shadowed ranking's decisions exactly.
#[test]
fn bare_replays_shadowed_across_grid() {
    let mut failures = Vec::new();
    for array_idx in 0..ARRAYS {
        for scheme_idx in 0..SCHEMES {
            let stream = churn_stream((array_idx * 8 + scheme_idx) as u64, 2_500);
            if let Err(e) = assert_configs_agree(array_idx, scheme_idx, &stream) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Generated case: an access stream plus one grid cell.
type AbCase = (Vec<(u16, u64)>, (usize, usize));

fn prop_bare_matches_shadowed((raw, (array_idx, scheme_idx)): &AbCase) -> CaseResult {
    let stream: Vec<(PartitionId, u64)> = raw
        .iter()
        .map(|&(p, base)| {
            let part = PartitionId(p % PARTS as u16);
            // Shared addresses every 5th base so foreign hits (and the
            // retag machinery of Vantage/PriSM) engage.
            let addr = if base % 5 == 0 {
                base
            } else {
                base + part.0 as u64 * 1_000
            };
            (part, addr)
        })
        .collect();
    assert_configs_agree(*array_idx, *scheme_idx, &stream).map_err(testkit::Failure::fail)
}

#[test]
fn bare_matches_shadowed_property() {
    check(
        "bare_matches_shadowed_property",
        &(
            vec_of((int_range(0u16..9), int_range(0u64..200)), 50..900),
            (int_range(0usize..ARRAYS), int_range(0usize..SCHEMES)),
        ),
        prop_bare_matches_shadowed,
    );
}

/// Recorder agreement: with identical decisions, every recorded series
/// except `aef` (interval mean eviction futility — fed by the differing
/// `true_futility`) must match bit-for-bit across the two. The `aef`
/// series must still be *present* on both sides, so the exclusion below
/// stays principled rather than silently widening.
#[test]
fn recorder_rows_match_except_aef() {
    for (array_idx, scheme_idx) in [(0, 3), (2, 0)] {
        let ctx = format!("cell {array_idx}/{scheme_idx}");
        let mut shadowed = build(array_idx, "coarse-lru", scheme_idx, 7);
        let mut bare = build(array_idx, "coarse-lru-bare", scheme_idx, 7);
        shadowed.attach_timeseries(32, 1 << 12);
        bare.attach_timeseries(32, 1 << 12);
        for (p, a) in churn_stream(11, 3_000) {
            shadowed.access(p, a, AccessMeta::default());
            bare.access(p, a, AccessMeta::default());
        }
        let (ta, tb) = (
            shadowed.timeseries().expect("recorder attached"),
            bare.timeseries().expect("recorder attached"),
        );
        assert_eq!(ta.len(), tb.len(), "{ctx}: sample counts diverge");
        let mut saw_aef = false;
        for (a, b) in ta.samples().zip(tb.samples()) {
            assert_eq!(
                (a.time, a.series, a.part),
                (b.time, b.series, b.part),
                "{ctx}"
            );
            if a.series == "aef" {
                saw_aef = true;
                continue;
            }
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{ctx}: sample diverged: {a:?} vs {b:?}"
            );
        }
        assert!(saw_aef, "{ctx}: no aef samples — exclusion is vacuous");
    }
}
