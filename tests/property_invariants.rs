//! Property-based tests (testkit) of the core data-structure and
//! engine invariants, cross-checked against reference models.
//!
//! Each property is a plain function from a generated value to
//! [`testkit::CaseResult`], so pinned regression inputs (found by
//! earlier shrinking runs) replay as ordinary named unit tests below.
//! To reproduce a reported failure case, re-run with the seed from the
//! panic message: `TESTKIT_SEED=0x... cargo test -q <test_name>`.

use cachesim::ostree::OsTreap;
use futility_scaling::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use testkit::{check, int_range, set_of, tk_assert, tk_assert_eq, vec_of, CaseResult, Failure};

/// The order-statistic treap agrees with a BTreeSet reference model
/// under arbitrary insert/remove/rank/select sequences.
fn prop_ostree_matches_btreeset(ops: &[(u8, u64)]) -> CaseResult {
    let mut treap: OsTreap<(u64, u64)> = OsTreap::new(42);
    let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
    for &(op, k) in ops {
        let key = (k, 0u64);
        match op {
            0 => tk_assert_eq!(treap.insert(key), model.insert(key)),
            1 => tk_assert_eq!(treap.remove(&key), model.remove(&key)),
            2 => {
                let expect = model.range(..key).count();
                tk_assert_eq!(treap.rank(&key), expect);
            }
            _ => {
                let r = (k as usize) % (model.len() + 1);
                tk_assert_eq!(treap.select(r), model.iter().nth(r));
            }
        }
        tk_assert_eq!(treap.len(), model.len());
        tk_assert_eq!(treap.min(), model.iter().next());
        tk_assert_eq!(treap.max(), model.iter().next_back());
    }
    Ok(())
}

#[test]
fn ostree_matches_btreeset() {
    check(
        "ostree_matches_btreeset",
        &vec_of((int_range(0u8..4), int_range(0u64..200)), 1..400),
        |ops| prop_ostree_matches_btreeset(ops),
    );
}

/// Engine invariants hold for any access sequence, scheme and array:
/// occupancy equals the sum of partition sizes, resident lines are
/// findable, hits + misses equals accesses.
fn prop_engine_invariants_hold(
    (accesses, scheme_idx, array_idx): &(Vec<(u16, u64)>, usize, usize),
) -> CaseResult {
    let scheme: Box<dyn PartitionScheme> = match scheme_idx {
        0 => Box::new(Pf),
        1 => Box::new(FsFeedback::default_config()),
        2 => Box::new(Cqvp),
        _ => Box::new(Vantage::default_config()),
    };
    let array: Box<dyn cachesim::array::CacheArray> = match array_idx {
        0 => Box::new(SetAssociative::new(8, 4, LineHash::new(1))),
        1 => Box::new(RandomCandidates::new(32, 4, 2)),
        _ => Box::new(SkewAssociative::new(8, 4, 3)),
    };
    let mut cache = PartitionedCache::new(array, Box::new(ExactLru::new()), scheme, 3);
    let mut resident: HashSet<u64> = HashSet::new();
    let mut n = 0u64;
    for &(p, base) in accesses {
        let part = PartitionId(p);
        let addr = base + (p as u64) * 1_000; // per-partition namespaces
        let out = cache.access(part, addr, AccessMeta::default());
        n += 1;
        if out.is_hit() {
            tk_assert!(resident.contains(&addr), "hit on non-resident line");
        } else {
            if let Some(ev) = out.eviction() {
                tk_assert!(resident.remove(&ev.addr), "evicted a ghost line");
                tk_assert!(ev.futility >= 0.0 && ev.futility <= 1.0);
            }
            resident.insert(addr);
        }
        // Cross-check engine state against the model.
        let state = cache.state();
        tk_assert_eq!(state.actual.iter().sum::<usize>(), cache.array().occupied());
        tk_assert_eq!(cache.array().occupied(), resident.len());
    }
    let stats = cache.stats();
    tk_assert_eq!(stats.total_hits() + stats.total_misses(), n);
    for &addr in &resident {
        tk_assert!(cache.array().lookup(addr).is_some(), "resident line lost");
    }
    Ok(())
}

#[test]
fn engine_invariants_hold() {
    check(
        "engine_invariants_hold",
        &(
            vec_of((int_range(0u16..3), int_range(0u64..120)), 1..800),
            int_range(0usize..4),
            int_range(0usize..3),
        ),
        prop_engine_invariants_hold,
    );
}

/// Every ranking reports futility in [0, 1] for tracked lines —
/// strictly positive for the exact rankings, while the coarse
/// hardware approximations (coarse-lru, rrip) may report 0 for
/// lines tagged in the current timestamp bucket — and its
/// most-futile line indeed has the maximum futility.
fn prop_ranking_futility_is_normalized((name_idx, lines): &(usize, HashSet<u64>)) -> CaseResult {
    let name = ranking::ALL_RANKINGS[*name_idx];
    let exact = matches!(name, "lru" | "lfu" | "opt" | "random");
    let mut r = ranking::by_name(name).expect("ranking exists");
    r.reset(1);
    let p = PartitionId(0);
    for (t, &addr) in lines.iter().enumerate() {
        r.on_insert(p, addr, t as u64 + 1, AccessMeta::with_next_use(addr * 3));
    }
    tk_assert_eq!(r.pool_len(p), lines.len());
    let mut max_f = 0.0f64;
    for &addr in lines {
        let f = r.futility(p, addr);
        tk_assert!(
            (0.0..=1.0).contains(&f) && (!exact || f > 0.0),
            "futility {f} out of range for {name}"
        );
        max_f = max_f.max(f);
    }
    if let Some(top) = r.max_futility_line(p) {
        tk_assert!(lines.contains(&top));
        tk_assert!((r.futility(p, top) - max_f).abs() < 1e-9);
    }
    // Untracked lines report zero.
    tk_assert_eq!(r.futility(p, 10_000), 0.0);
    Ok(())
}

#[test]
fn ranking_futility_is_normalized() {
    check(
        "ranking_futility_is_normalized",
        &(int_range(0usize..6), set_of(int_range(0u64..500), 1..60)),
        prop_ranking_futility_is_normalized,
    );
}

/// Pinned proptest counterexample: the coarse-lru ranking with a pool
/// whose newest timestamp bucket once broke the max-futility agreement.
#[test]
fn ranking_futility_regression_coarse_timestamp_bucket() {
    let lines: HashSet<u64> = [
        18, 1, 152, 473, 3, 14, 5, 13, 20, 436, 11, 46, 9, 4, 12, 435, 238, 151, 16, 10, 19, 15, 6,
        0, 7, 17, 101, 497, 2, 130, 123, 8,
    ]
    .into_iter()
    .collect();
    assert_case_holds(prop_ranking_futility_is_normalized(&(1, lines)));
}

/// The analytic solver's scaling factors reproduce the requested
/// insertion fractions for random feasible configurations.
fn prop_scaling_solver_satisfies_balance((raw, sizes_raw): &(Vec<u32>, Vec<u32>)) -> CaseResult {
    let n = raw.len().min(sizes_raw.len());
    let tot_i: u32 = raw[..n].iter().sum();
    let tot_s: u32 = sizes_raw[..n].iter().sum();
    let insertions: Vec<f64> = raw[..n].iter().map(|&x| x as f64 / tot_i as f64).collect();
    let sizes: Vec<f64> = sizes_raw[..n]
        .iter()
        .map(|&x| x as f64 / tot_s as f64)
        .collect();
    // Skip draws the (subset-generalized) feasibility bound rejects.
    use futility_core::scaling::ScalingError;
    let alphas = match futility_core::scaling::solve_scaling_factors(&insertions, &sizes, 16) {
        Ok(a) => a,
        Err(ScalingError::Infeasible { .. }) => return Err(Failure::Reject),
        Err(e) => return Err(Failure::fail(format!("must solve: {e}"))),
    };
    let e = futility_core::scaling::eviction_fractions(&sizes, &alphas, 16);
    for (ei, ii) in e.iter().zip(&insertions) {
        tk_assert!((ei - ii).abs() < 1e-3, "E {ei} vs I {ii}");
    }
    let min = alphas.iter().cloned().fold(f64::INFINITY, f64::min);
    tk_assert!((min - 1.0).abs() < 1e-9, "normalized to min 1");
    Ok(())
}

#[test]
fn scaling_solver_satisfies_balance() {
    check(
        "scaling_solver_satisfies_balance",
        &(
            vec_of(int_range(1u32..20), 2..5),
            vec_of(int_range(1u32..20), 2..5),
        ),
        prop_scaling_solver_satisfies_balance,
    );
}

/// Pinned proptest counterexample: a dominant-insertion partition
/// (I = 13/15) with the smallest size share once made the solver blow
/// past the balance tolerance instead of reporting infeasibility.
#[test]
fn scaling_solver_regression_dominant_insertion_share() {
    assert_case_holds(prop_scaling_solver_satisfies_balance(&(
        vec![13, 1, 1],
        vec![1, 3, 5],
    )));
}

/// Trace next-use annotation is self-consistent: the annotated
/// index always points at the next occurrence of the same address.
fn prop_next_use_annotation_is_consistent(addrs: &[u64]) -> CaseResult {
    let trace = Trace::from_addrs(addrs.iter().copied(), 1);
    let next = trace.annotate_next_use();
    for (i, &nu) in next.iter().enumerate() {
        if nu == cachesim::NO_NEXT_USE {
            tk_assert!(
                !addrs[i + 1..].contains(&addrs[i]),
                "claimed dead but reused"
            );
        } else {
            let j = nu as usize;
            tk_assert!(j > i);
            tk_assert_eq!(addrs[j], addrs[i]);
            tk_assert!(!addrs[i + 1..j].contains(&addrs[i]), "skipped a use");
        }
    }
    Ok(())
}

#[test]
fn next_use_annotation_is_consistent() {
    check(
        "next_use_annotation_is_consistent",
        &vec_of(int_range(0u64..30), 1..200),
        |addrs| prop_next_use_annotation_is_consistent(addrs),
    );
}

/// Belady optimality in miniature: on a fully-associative cache of
/// any size, the OPT ranking never yields fewer hits than LRU for
/// the same trace.
fn prop_opt_dominates_lru_on_fully_associative((addrs, cap): &(Vec<u64>, usize)) -> CaseResult {
    let trace = Trace::from_addrs(addrs.iter().copied(), 1);
    let hits = |ranking: Box<dyn cachesim::FutilityRanking>| -> u64 {
        let mut cache = PartitionedCache::new(
            Box::new(FullyAssociative::new(*cap)),
            ranking,
            cachesim::evict_max_futility(),
            1,
        );
        for (a, nu) in trace.iter_with_next_use() {
            cache.access(PartitionId(0), a.addr, AccessMeta::with_next_use(nu));
        }
        cache.stats().total_hits()
    };
    let opt_hits = hits(Box::new(Opt::new()));
    let lru_hits = hits(Box::new(ExactLru::new()));
    tk_assert!(
        opt_hits >= lru_hits,
        "OPT {opt_hits} must dominate LRU {lru_hits} at capacity {cap}"
    );
    Ok(())
}

#[test]
fn opt_dominates_lru_on_fully_associative() {
    check(
        "opt_dominates_lru_on_fully_associative",
        &(vec_of(int_range(0u64..40), 50..400), int_range(2usize..16)),
        prop_opt_dominates_lru_on_fully_associative,
    );
}

/// `futility_batch` must be bitwise identical to per-candidate scalar
/// `futility` for every ranking (the engine routes all miss-path
/// futility through the batch API, so any divergence would silently
/// change victim selection). Pools are populated by a random
/// insert/hit/evict/retag history; probes mix resident and untracked
/// lines; the batch runs twice to check scratch-buffer reuse.
/// (ranking index, op history as `(op, pool, addr)`, probes as
/// `(pool, addr)`) — the generated input for the batch-vs-scalar
/// property below.
type BatchCase = (usize, Vec<(u8, u16, u64)>, Vec<(u16, u64)>);

fn prop_futility_batch_matches_scalar((name_idx, ops, probes): &BatchCase) -> CaseResult {
    const POOLS: usize = 3;
    // Index 6 is the cachesim-internal reference ranking; 0..6 are the
    // ranking crate's implementations.
    let (name, mut r): (&str, Box<dyn cachesim::FutilityRanking>) = if *name_idx == 6 {
        ("naive-lru", cachesim::naive_lru())
    } else {
        let n = ranking::ALL_RANKINGS[*name_idx];
        (n, ranking::by_name(n).expect("ranking exists"))
    };
    r.reset(POOLS);

    // Replay a valid history: each address lives in at most one pool at
    // a time, exactly as the engine guarantees.
    let mut home: std::collections::HashMap<u64, PartitionId> = std::collections::HashMap::new();
    let mut time = 0u64;
    for &(op, p_raw, addr) in ops {
        time += 1;
        let p = PartitionId(p_raw % POOLS as u16);
        let meta = AccessMeta::with_next_use(time * 7 + addr);
        match (op % 4, home.get(&addr).copied()) {
            (0, None) => {
                r.on_insert(p, addr, time, meta);
                home.insert(addr, p);
            }
            (1, Some(cur)) => r.on_hit(cur, addr, time, meta),
            (2, Some(cur)) => {
                r.on_evict(cur, addr);
                home.remove(&addr);
            }
            (3, Some(cur)) if cur != p => {
                r.on_retag(cur, p, addr);
                home.insert(addr, p);
            }
            _ => {}
        }
    }

    // Candidates as the engine would build them: resident lines carry
    // their true pool, untracked probes an arbitrary one.
    let cands: Vec<Candidate> = probes
        .iter()
        .enumerate()
        .map(|(i, &(p_raw, addr))| Candidate {
            slot: i as u32,
            addr,
            part: home
                .get(&addr)
                .copied()
                .unwrap_or(PartitionId(p_raw % POOLS as u16)),
            futility: 0.0,
        })
        .collect();
    let expected: Vec<f64> = cands.iter().map(|c| r.futility(c.part, c.addr)).collect();

    for round in 0..2 {
        let mut batch = cands.clone();
        r.futility_batch(&mut batch);
        for (c, &want) in batch.iter().zip(&expected) {
            tk_assert!(
                c.futility.to_bits() == want.to_bits(),
                "{name} round {round}: batch {} != scalar {} for addr {} pool {:?}",
                c.futility,
                want,
                c.addr,
                c.part
            );
        }
    }
    Ok(())
}

#[test]
fn futility_batch_matches_scalar() {
    check(
        "futility_batch_matches_scalar",
        &(
            int_range(0usize..7),
            vec_of(
                (int_range(0u8..4), int_range(0u16..4), int_range(0u64..90)),
                1..300,
            ),
            vec_of((int_range(0u16..4), int_range(0u64..120)), 1..24),
        ),
        prop_futility_batch_matches_scalar,
    );
}

/// One step driving a set-associative array: `((op, addr), (pick,
/// part))`. `pick` chooses among the slots of the address's set that
/// the op applies to.
type ArrayStep = ((u8, u64), (u8, u16));

/// The tag-compare `SetAssociative` agrees with a model that keeps the
/// slots and an address → slot map, as the arrays with an address map
/// do, under random install / evict / retag sequences at 1, 4 and 16
/// ways and 4 or 3 sets (the array indexes a power-of-two set count by
/// mask, any other by modulo). Installs take any empty slot of the set,
/// so an address often comes back beside a stale copy of itself in a
/// slot it was evicted from. After every step `lookup_occupant`,
/// `lookup`, `occupant`, `occupied` and the step address's candidates
/// (order and first empty slot) match the model; a save → load into a
/// fresh array mid-stream saves the same bytes and carries on in the
/// fresh array.
fn prop_set_assoc_matches_map_model(
    ((ways_idx, sets), seed, steps): &((usize, usize), u64, Vec<ArrayStep>),
) -> CaseResult {
    use cachesim::array::CacheArray;
    use cachesim::hashing::IndexHash;
    use cachesim::{Occupant, SlotId, SnapshotReader, SnapshotWriter};
    let (sets, ways) = (*sets, [1, 4, 16][*ways_idx]);
    let universe = (sets * ways * 2) as u64;
    let hash = LineHash::new(*seed);
    let build = || SetAssociative::new(sets, ways, LineHash::new(*seed));
    let mut array = build();
    let mut model: Vec<Option<Occupant>> = vec![None; sets * ways];
    let mut map: HashMap<u64, usize> = HashMap::new();
    for &((op, raw_addr), (pick, part)) in steps {
        let addr = raw_addr % universe;
        let part = PartitionId(part);
        let set = (hash.hash(addr) % sets as u64) as usize;
        let set_slots = set * ways..(set + 1) * ways;
        let held: Vec<usize> = set_slots.clone().filter(|&s| model[s].is_some()).collect();
        let empty: Vec<usize> = set_slots.clone().filter(|&s| model[s].is_none()).collect();
        match op % 8 {
            0..=2 if !map.contains_key(&addr) && !empty.is_empty() => {
                let slot = empty[pick as usize % empty.len()];
                array.install(slot as SlotId, addr, part);
                model[slot] = Some(Occupant { addr, part });
                map.insert(addr, slot);
            }
            3 | 4 if !held.is_empty() => {
                let slot = held[pick as usize % held.len()];
                array.evict(slot as SlotId);
                let occ = model[slot].take().expect("held slot");
                map.remove(&occ.addr);
            }
            5 if !held.is_empty() => {
                let slot = held[pick as usize % held.len()];
                array.retag(slot as SlotId, part);
                model[slot] = Some(Occupant {
                    part,
                    ..model[slot].expect("held slot")
                });
            }
            6 => {
                let mut w = SnapshotWriter::new();
                array.save_state(&mut w);
                let bytes = w.finish();
                let mut fresh = build();
                let mut r = SnapshotReader::open(&bytes)
                    .map_err(|e| Failure::fail(format!("open: {e}")))?;
                fresh
                    .load_state(&mut r)
                    .map_err(|e| Failure::fail(format!("own snapshot rejected: {e}")))?;
                r.finish()
                    .map_err(|e| Failure::fail(format!("trailing bytes: {e}")))?;
                let mut w = SnapshotWriter::new();
                fresh.save_state(&mut w);
                tk_assert!(w.finish() == bytes, "reloaded array saves other bytes");
                array = fresh;
            }
            _ => {}
        }

        let occupied = model.iter().filter(|o| o.is_some()).count();
        tk_assert_eq!(array.occupied(), occupied);
        for (slot, want) in model.iter().enumerate() {
            let got = array.occupant(slot as SlotId);
            tk_assert!(got == *want, "slot {slot}: {got:?} != {want:?}");
        }
        for a in 0..universe {
            let want = map
                .get(&a)
                .map(|&slot| (slot as SlotId, model[slot].expect("mapped slot")));
            let got = array.lookup_occupant(a);
            tk_assert!(got == want, "address {a}: {got:?} != {want:?}");
            tk_assert_eq!(array.lookup(a), want.map(|(slot, _)| slot));
        }
        let mut slots = Vec::new();
        array.candidate_slots(addr, &mut slots);
        let want_slots: Vec<SlotId> = set_slots.clone().map(|s| s as SlotId).collect();
        tk_assert_eq!(slots, want_slots);
        let mut cands = Vec::new();
        let first_empty = array.fill_candidates(addr, &mut cands);
        match set_slots.clone().find(|&s| model[s].is_none()) {
            Some(slot) => tk_assert_eq!(first_empty, Some(slot as SlotId)),
            None => {
                tk_assert_eq!(first_empty, None);
                let got: Vec<(SlotId, Occupant)> = cands
                    .iter()
                    .map(|c| {
                        let occ = Occupant {
                            addr: c.addr,
                            part: c.part,
                        };
                        (c.slot, occ)
                    })
                    .collect();
                let want: Vec<(SlotId, Occupant)> = set_slots
                    .clone()
                    .map(|s| (s as SlotId, model[s].expect("full set")))
                    .collect();
                tk_assert_eq!(got, want);
            }
        }
    }
    Ok(())
}

#[test]
fn set_assoc_matches_map_model() {
    check(
        "set_assoc_matches_map_model",
        &(
            (int_range(0usize..3), int_range(3usize..5)),
            int_range(0u64..1_000),
            vec_of(
                (
                    (int_range(0u8..8), int_range(0u64..1 << 20)),
                    (int_range(0u8..16), int_range(0u16..4)),
                ),
                1..200,
            ),
        ),
        prop_set_assoc_matches_map_model,
    );
}

/// Pinned: an address evicted from one slot and re-installed into
/// another slot of its set leaves a stale copy behind; lookups must
/// find only the live one, across a snapshot, at 4 ways and direct
/// mapped (where the re-install reuses the stale slot).
#[test]
fn set_assoc_reinstall_beside_stale_copy() {
    for ways_idx in [0, 1] {
        let steps = vec![
            ((0, 7), (0, 0)), // install 7 into the set's first empty slot
            ((3, 7), (0, 0)), // evict it: the slot keeps 7 as a stale copy
            ((0, 7), (1, 1)), // install 7 again: the second empty slot
            ((5, 7), (0, 2)), // retag the live copy
            ((6, 7), (0, 0)), // save -> load into a fresh array
            ((3, 7), (0, 0)), // evict the live copy
            ((7, 7), (0, 0)), // lookups only
        ];
        assert_case_holds(prop_set_assoc_matches_map_model(&((ways_idx, 4), 0, steps)));
    }
}

/// A pinned case passes if the property holds or the case is rejected
/// by its precondition (e.g. the solver now reports infeasibility where
/// it once mis-solved) — only a property violation fails.
fn assert_case_holds(result: CaseResult) {
    if let Err(Failure::Fail(msg)) = result {
        panic!("pinned regression case failed: {msg}");
    }
}
