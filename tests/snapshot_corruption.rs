//! Snapshot decoding is total: *any* damaged input — truncated at an
//! arbitrary offset, any single bit flipped, or a format-version bump —
//! must make `restore` return a descriptive [`SnapshotError`], never
//! panic, and never silently accept the state. Failures replay exactly
//! via `TESTKIT_SEED` (the harness prints the seed with the shrunk
//! counterexample).

use futility_scaling::prelude::*;
use testkit::{check, int_range, tk_assert, CaseResult};

const PARTS: usize = 3;

fn build(combo: usize, seed: u64) -> PartitionedCache {
    let array: Box<dyn cachesim::array::CacheArray> = match combo % 3 {
        0 => Box::new(SetAssociative::new(8, 4, LineHash::new(seed))),
        1 => Box::new(ZCache::new(8, 4, 8, seed)),
        _ => Box::new(RandomCandidates::new(32, 4, seed)),
    };
    let ranking: Box<dyn FutilityRanking> =
        ranking::by_name(ranking::ALL_RANKINGS[combo % 6]).unwrap();
    let scheme: Box<dyn PartitionScheme> = match combo % 4 {
        0 => Box::new(FsFeedback::default_config()),
        1 => Box::new(Vantage::default_config()),
        2 => Box::new(Prism::default_config()),
        _ => cachesim::evict_max_futility(),
    };
    let mut cache = PartitionedCache::new(array, ranking, scheme, PARTS);
    cache.set_targets(&[16, 10, 6]);
    cache
}

fn driven_snapshot(combo: usize) -> (PartitionedCache, Vec<u8>) {
    let mut cache = build(combo, 7);
    let mut x = 0x5EED_u64 | 1;
    for _ in 0..400 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let part = PartitionId(((x >> 16) % PARTS as u64) as u16);
        cache.access(part, (x >> 33) % 160, AccessMeta::default());
    }
    let snap = cache.snapshot();
    (cache, snap)
}

/// Generated case: a composition, a damage kind, and where to damage.
type CorruptionCase = ((usize, usize), (usize, usize));

fn prop_damaged_snapshot_is_rejected(
    ((combo, kind), (offset, bit)): &CorruptionCase,
) -> CaseResult {
    let (mut cache, snap) = driven_snapshot(*combo);
    let mut bad = snap.clone();
    match kind % 3 {
        0 => bad.truncate(offset % snap.len()),
        1 => bad[offset % snap.len()] ^= 1 << (bit % 8),
        _ => {
            // Unsupported future format version in the header.
            bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        }
    }
    let err = match cache.restore(&bad) {
        Err(e) => e,
        Ok(()) => {
            return Err(testkit::Failure::fail(format!(
                "damaged snapshot accepted (kind {kind}, offset {offset}, bit {bit})"
            )))
        }
    };
    tk_assert!(
        !err.to_string().is_empty(),
        "error must describe the damage"
    );
    // A rejected restore leaves the engine officially unspecified, but
    // the *pristine* bytes must still restore into a fresh engine: the
    // failure is a property of the input, not lingering reader state.
    let mut fresh = build(*combo, 7);
    fresh
        .restore(&snap)
        .map_err(|e| testkit::Failure::fail(format!("pristine snapshot rejected: {e}")))?;
    Ok(())
}

#[test]
fn damaged_snapshots_are_rejected_without_panicking() {
    check(
        "damaged_snapshots_rejected",
        &(
            (int_range(0usize..24), int_range(0usize..3)),
            (int_range(0usize..1 << 20), int_range(0usize..8)),
        ),
        prop_damaged_snapshot_is_rejected,
    );
}

/// The same totality holds one container up: a checkpoint file (driver
/// state + embedded engine image) rejects truncation and bit flips
/// through `fs_bench::checkpoint::load`.
#[test]
fn damaged_checkpoint_files_are_rejected() {
    use cachesim::Trace;
    use workloads::RateControlledDriver;

    let composition = || {
        let cache = PartitionedCache::new(
            Box::new(RandomCandidates::new(128, 8, 3)),
            cachesim::naive_lru(),
            cachesim::evict_max_futility(),
            2,
        );
        let traces = vec![
            Trace::from_addrs((0..20_000u64).map(|i| i % 500), 1),
            Trace::from_addrs((0..20_000u64).map(|i| (1 << 20) | (i % 300)), 1),
        ];
        (cache, RateControlledDriver::new(traces, vec![0.5, 0.5], 9))
    };
    let (mut cache, mut driver) = composition();
    driver.run(&mut cache, 2_000);
    let file = fs_bench::checkpoint::save("exp", "p", &driver, &cache, 2_000);

    check(
        "damaged_checkpoints_rejected",
        &(
            (int_range(0usize..2), int_range(0usize..1 << 20)),
            int_range(0usize..8),
        ),
        |&((kind, offset), bit)| {
            let mut bad = file.clone();
            match kind {
                0 => bad.truncate(offset % file.len()),
                _ => bad[offset % file.len()] ^= 1 << (bit % 8),
            }
            let (mut cache2, mut driver2) = composition();
            match fs_bench::checkpoint::load(&bad, "exp", "p", &mut driver2, &mut cache2) {
                Err(e) => {
                    tk_assert!(!e.to_string().is_empty());
                    Ok(())
                }
                Ok(_) => Err(testkit::Failure::fail(format!(
                    "damaged checkpoint accepted (kind {kind}, offset {offset}, bit {bit})"
                ))),
            }
        },
    );

    // And the pristine container still round-trips.
    let (mut cache2, mut driver2) = composition();
    let done = fs_bench::checkpoint::load(&file, "exp", "p", &mut driver2, &mut cache2).unwrap();
    assert_eq!(done, 2_000);
    assert_eq!(cache.snapshot(), cache2.snapshot());
}

/// Rank pools: `(key, addr)` pairs, one list per pool.
type Pools = Vec<Vec<(u64, u64)>>;

/// Rank pools encoded in the section layout of each ranking that stores
/// them, with every other field at a valid value. The pairs are written
/// as given, sorted or not.
fn crafted_section(name: &str, pools: &[Vec<(u64, u64)>]) -> Vec<u8> {
    use cachesim::SnapshotWriter;
    fn pairs(w: &mut SnapshotWriter, pool: &[(u64, u64)]) {
        w.usize(pool.len());
        for &(key, addr) in pool {
            w.u64(key);
            w.u64(addr);
        }
    }
    fn sorted_addrs(pool: &[(u64, u64)]) -> Vec<u64> {
        let mut addrs: Vec<u64> = pool.iter().map(|&(_, a)| a).collect();
        addrs.sort_unstable();
        addrs
    }
    let mut w = SnapshotWriter::new();
    let section = match name {
        "lru" => "exact-lru",
        "random" => "random-ranking",
        other => other,
    };
    w.begin(section);
    if name == "random" {
        w.u64(0xFACE);
    }
    w.usize(pools.len());
    for pool in pools {
        match name {
            "lru" | "opt" | "random" | "naive-lru" => pairs(&mut w, pool),
            "lfu" => {
                pairs(&mut w, pool);
                let addrs = sorted_addrs(pool);
                w.usize(addrs.len());
                for a in addrs {
                    w.u64(a);
                    w.u64(1);
                }
            }
            "coarse-lru" => {
                w.u8(0);
                w.u64(0);
                let addrs = sorted_addrs(pool);
                w.usize(addrs.len());
                for a in addrs {
                    w.u64(a);
                    w.u8(0);
                }
                w.bool(true);
                pairs(&mut w, pool);
            }
            "rrip" => {
                w.u64(0);
                w.u64(0);
                let addrs = sorted_addrs(pool);
                w.usize(addrs.len());
                for a in addrs {
                    w.u64(a);
                    w.u32(0);
                    w.u64(0);
                }
                pairs(&mut w, pool);
            }
            other => panic!("no crafted layout for {other}"),
        }
    }
    w.end();
    w.finish()
}

/// Every ranking that stores rank pools, fresh with two pools.
fn rank_pool_rankings() -> Vec<Box<dyn FutilityRanking>> {
    let mut all: Vec<Box<dyn FutilityRanking>> =
        ["lru", "coarse-lru", "lfu", "opt", "random", "rrip"]
            .into_iter()
            .map(|n| ranking::by_name(n).unwrap())
            .collect();
    all.push(cachesim::naive_lru());
    for r in &mut all {
        r.reset(2);
    }
    all
}

/// Crafted rank pools in a correctly checksummed snapshot fail with a
/// typed error, never a panic or a hang: pairs out of order, a repeated
/// pair, one address in two pools (a line holds one array slot), or a
/// pool count the engine does not have. Valid pools load, answer
/// queries, and save back to the same bytes.
#[test]
fn crafted_rank_pools_are_rejected_with_typed_errors() {
    use cachesim::{SnapshotError, SnapshotReader, SnapshotWriter};
    let bad: [(&str, Pools, bool); 4] = [
        (
            "unsorted pairs",
            vec![vec![(5, 0xB), (3, 0xA)], vec![]],
            false,
        ),
        (
            "repeated pair",
            vec![vec![(3, 0xA), (3, 0xA)], vec![]],
            false,
        ),
        (
            "address in two pools",
            vec![vec![(3, 0xA)], vec![(4, 0xA)]],
            false,
        ),
        (
            "three pools for two",
            vec![vec![(3, 0xA)], vec![], vec![]],
            true,
        ),
    ];
    for mut r in rank_pool_rankings() {
        let name = r.name();
        for (what, pools, mismatch) in &bad {
            let bytes = crafted_section(name, pools);
            let mut reader = SnapshotReader::open(&bytes).unwrap();
            match r.load_state(&mut reader) {
                Err(SnapshotError::Mismatch { .. }) if *mismatch => {}
                Err(SnapshotError::Corrupt { .. }) if !*mismatch => {}
                other => panic!("{name}, {what}: expected a typed rejection, got {other:?}"),
            }
        }
        let good = vec![vec![(3, 0xA), (5, 0xB)], vec![(4, 0xC)]];
        let bytes = crafted_section(name, &good);
        let mut fresh = rank_pool_rankings()
            .into_iter()
            .find(|x| x.name() == name)
            .unwrap();
        let mut reader = SnapshotReader::open(&bytes).unwrap();
        fresh
            .load_state(&mut reader)
            .unwrap_or_else(|e| panic!("{name}: valid pools rejected: {e}"));
        reader.finish().unwrap();
        assert_eq!(fresh.pool_len(PartitionId(0)), 2, "{name}");
        assert_eq!(fresh.pool_len(PartitionId(1)), 1, "{name}");
        assert_eq!(fresh.max_futility_line(PartitionId(1)), Some(0xC), "{name}");
        assert_eq!(fresh.true_futility(PartitionId(1), 0xC), 1.0, "{name}");
        let mut w = SnapshotWriter::new();
        fresh.save_state(&mut w);
        assert_eq!(
            w.finish(),
            bytes,
            "{name}: canonical pools must save back unchanged"
        );
    }
}

/// Format version 1 stored treap arenas and version 2 a recorder
/// spilled-row counter; this build reads only its own version and says
/// which.
#[test]
fn version_one_snapshots_are_unsupported() {
    use cachesim::snapshot::FORMAT_VERSION;
    use cachesim::SnapshotError;
    assert_eq!(FORMAT_VERSION, 3);
    for old in [1u32, 2] {
        for combo in 0..6 {
            let (mut cache, mut snap) = driven_snapshot(combo);
            snap[4..8].copy_from_slice(&old.to_le_bytes());
            match cache.restore(&snap) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (old, 3));
                }
                other => panic!(
                    "version {old}, combo {combo}: expected UnsupportedVersion, got {other:?}"
                ),
            }
        }
    }
}

/// Occupied slots as (slot, address, partition).
type Lines = Vec<(usize, u64, u16)>;

/// A `"set-assoc"` section for an 8 × 2 array holding `slots`, every
/// other slot empty.
fn crafted_set_assoc(slots: &[(usize, u64, u16)]) -> Vec<u8> {
    use cachesim::SnapshotWriter;
    let mut w = SnapshotWriter::new();
    w.begin("set-assoc");
    w.usize(8);
    w.usize(2);
    w.begin("slots");
    w.usize(16);
    for slot in 0..16 {
        match slots.iter().find(|&&(s, _, _)| s == slot) {
            Some(&(_, addr, part)) => {
                w.u8(1);
                w.u64(addr);
                w.u16(part);
            }
            None => w.u8(0),
        }
    }
    w.end();
    w.end();
    w.finish()
}

/// A set-associative array finds a line by comparing the addresses of
/// the line's own set, so a correctly checksummed section with a line
/// in another set's slot, or one address twice in a set, fails with
/// `Corrupt` instead of loading lines no lookup finds. A valid section
/// loads and saves back unchanged; the same address in an occupied and
/// an emptied slot is not a repeat.
#[test]
fn crafted_set_assoc_slots_are_rejected_with_typed_errors() {
    use cachesim::array::CacheArray;
    use cachesim::{SnapshotError, SnapshotReader, SnapshotWriter};
    // Modulo indexing over 8 sets: address a belongs to set a % 8,
    // whose slots are 2(a % 8) and 2(a % 8) + 1.
    let bad: [(&str, Lines); 3] = [
        ("address of set 1 in a slot of set 0", vec![(0, 9, 0)]),
        (
            "address of set 3 in a slot of set 4",
            vec![(6, 3, 0), (9, 11, 1)],
        ),
        ("one address twice in set 2", vec![(4, 10, 0), (5, 10, 1)]),
    ];
    for (what, slots) in &bad {
        let bytes = crafted_set_assoc(slots);
        let mut array = SetAssociative::new(8, 2, ModuloIndex);
        let mut reader = SnapshotReader::open(&bytes).unwrap();
        match array.load_state(&mut reader) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
    let good = crafted_set_assoc(&[(0, 8, 0), (1, 16, 1), (5, 10, 2), (15, 7, 3)]);
    let mut array = SetAssociative::new(8, 2, ModuloIndex);
    let mut reader = SnapshotReader::open(&good).unwrap();
    array.load_state(&mut reader).unwrap();
    reader.finish().unwrap();
    assert_eq!(array.occupied(), 4);
    assert_eq!(array.lookup(16), Some(1));
    assert_eq!(array.lookup(7), Some(15));
    assert_eq!(array.lookup(9), None);
    let mut w = SnapshotWriter::new();
    array.save_state(&mut w);
    assert_eq!(w.finish(), good, "a valid section must save back unchanged");
    // Evict 10 from slot 5 (its address stays there, unoccupied) and
    // install 10 into slot 4: the section now holds 10 once.
    array.evict(5);
    array.install(4, 10, PartitionId(2));
    let mut w = SnapshotWriter::new();
    array.save_state(&mut w);
    let moved = w.finish();
    assert_eq!(
        moved,
        crafted_set_assoc(&[(0, 8, 0), (1, 16, 1), (4, 10, 2), (15, 7, 3)])
    );
    let mut fresh = SetAssociative::new(8, 2, ModuloIndex);
    fresh
        .load_state(&mut SnapshotReader::open(&moved).unwrap())
        .unwrap();
    assert_eq!(fresh.lookup(10), Some(4));
}
