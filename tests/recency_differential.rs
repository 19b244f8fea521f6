//! `ExactLru` (stamp-ordered recency index) against `NaiveLru` (an
//! order-statistic treap per pool), the reference exact-LRU ranking,
//! driven through whole engines: Vantage on a set-associative array
//! (retags), feedback FS on random candidates, and feedback FS on a
//! fully-associative array (the most-futile-line query). Each runs the
//! scalar and the batched pipeline, and the `ExactLru` engine is
//! snapshotted and restored into a fresh engine halfway. Every outcome,
//! every eviction's futility bits, and the rank pools' snapshot bytes
//! must be equal.

use cachesim::ranking_api::NaiveLru;
use cachesim::SnapshotWriter;
use futility_scaling::prelude::*;

const PARTS: usize = 3;
const LINES: usize = 768;
const ACCESSES: usize = 24_000;
const BLOCK: usize = 512;

fn build(composition: &str, ranking: Box<dyn FutilityRanking>) -> PartitionedCache {
    let (array, scheme): (
        Box<dyn cachesim::array::CacheArray>,
        Box<dyn PartitionScheme>,
    ) = match composition {
        "set-assoc x vantage" => (
            Box::new(SetAssociative::with_lines(LINES, 16, LineHash::new(5))),
            Box::new(Vantage::default_config()),
        ),
        "rand-cands x fs-feedback" => (
            Box::new(RandomCandidates::new(LINES, 16, 5)),
            Box::new(FsFeedback::default_config()),
        ),
        "fully-assoc x fs-feedback" => (
            Box::new(FullyAssociative::new(LINES)),
            Box::new(FsFeedback::default_config()),
        ),
        other => panic!("unknown composition {other}"),
    };
    let mut cache = PartitionedCache::new(array, ranking, scheme, PARTS);
    cache.set_targets(&[384, 256, 128]);
    cache
}

/// Skewed traffic over twice the cache: each partition re-references a
/// hot set, streams through a cold one, and now and then touches another
/// partition's lines (a foreign hit, which Vantage may retag).
fn traffic() -> Vec<(PartitionId, u64)> {
    let mut block = Vec::with_capacity(ACCESSES);
    let mut x = 0x00DD_BA11_u64;
    for _ in 0..ACCESSES {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let part = ((x >> 20) % PARTS as u64) as usize;
        let owner = if (x >> 8).is_multiple_of(16) {
            (part + 1) % PARTS
        } else {
            part
        };
        let span = if (x >> 12).is_multiple_of(4) {
            1_200
        } else {
            160
        };
        let addr = ((owner as u64) << 32) | ((x >> 33) % span);
        block.push((PartitionId(part as u16), addr));
    }
    block
}

/// One outcome as exact bits: `(hit, evicted addr, evicted pool,
/// eviction futility bits)`.
type Bits = (bool, Option<(u64, u16, u64)>);

fn bits(out: &AccessOutcome) -> Bits {
    match out {
        AccessOutcome::Hit => (true, None),
        AccessOutcome::Miss { evicted } => (
            false,
            evicted.map(|e| (e.addr, e.part.0, e.futility.to_bits())),
        ),
    }
}

/// The ranking's section body (pool count and sorted pairs), without
/// its name: `exact-lru` and `naive-lru` write the same layout.
fn rank_pools(cache: &PartitionedCache) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    cache.ranking().save_state(&mut w);
    let bytes = w.finish();
    // Header (16 bytes), the name's u32 length and 9 bytes, then the
    // body length and body, then the 8-byte checksum.
    assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 9);
    bytes[29..bytes.len() - 8].to_vec()
}

fn run(cache: &mut PartitionedCache, accesses: &[(PartitionId, u64)], batched: bool) -> Vec<Bits> {
    let meta = AccessMeta::default();
    let mut outs = Vec::new();
    if batched {
        let mut block = AccessBlock::with_capacity(BLOCK);
        for chunk in accesses.chunks(BLOCK) {
            block.clear();
            for &(part, addr) in chunk {
                block.push(part, addr, meta);
            }
            cache.access_batch_into(&block, &mut outs);
        }
        outs.iter().map(bits).collect()
    } else {
        accesses
            .iter()
            .map(|&(part, addr)| bits(&cache.access(part, addr, meta)))
            .collect()
    }
}

#[test]
fn exact_lru_matches_naive_lru_across_a_restore() {
    let accesses = traffic();
    let (first, second) = accesses.split_at(ACCESSES / 2);
    for composition in [
        "set-assoc x vantage",
        "rand-cands x fs-feedback",
        "fully-assoc x fs-feedback",
    ] {
        for batched in [false, true] {
            let case = format!("{composition}, batched {batched}");
            let mut naive = build(composition, Box::new(NaiveLru::new()));
            let mut exact = build(composition, Box::new(ExactLru::new()));
            let want = run(&mut naive, first, batched);
            let got = run(&mut exact, first, batched);
            assert_eq!(got, want, "{case}: first half");
            assert_eq!(
                rank_pools(&exact),
                rank_pools(&naive),
                "{case}: pools at the split"
            );

            let snap = exact.snapshot();
            let mut resumed = build(composition, Box::new(ExactLru::new()));
            resumed.restore(&snap).expect("own snapshot restores");
            assert_eq!(resumed.snapshot(), snap, "{case}: restore is lossless");

            let want = run(&mut naive, second, batched);
            let got = run(&mut resumed, second, batched);
            let evictions = want.iter().filter(|b| b.1.is_some()).count();
            assert!(evictions > 1_000, "{case}: only {evictions} evictions");
            assert_eq!(got, want, "{case}: second half");
            assert_eq!(
                rank_pools(&resumed),
                rank_pools(&naive),
                "{case}: pools at the end"
            );
            let stamps = |c: &PartitionedCache| {
                (0..PARTS + 1)
                    .map(|p| c.ranking().pool_len(PartitionId(p as u16)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(stamps(&resumed), stamps(&naive), "{case}: pool sizes");
        }
    }
}
