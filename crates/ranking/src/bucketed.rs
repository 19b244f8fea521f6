//! Bucket-backed coarse rankings: the treap-free fast lane
//! (DESIGN.md §14).
//!
//! [`BucketCoarseLru`] and [`BucketRrip`] produce the *same futility
//! values* as their exact-shadowed counterparts [`CoarseLru`] and
//! [`Rrip`] — same 8-bit timestamp distances, same aged RRPVs, same
//! byte-lane numerators, bit for bit — but store lines in a
//! [`BucketPool`](cachesim::bucketrank::BucketPool) keyed by the coarse
//! value instead of carrying an exact shadow rank. Every miss-path
//! ranking operation (insert, evict, hit touch, retag) becomes an O(1)
//! counter-and-list move, and the per-eviction `true_futility` rank —
//! previously an O(log n) shadow-treap descent, the single hottest
//! block of the churn profile — becomes a two-level counting-prefix sum
//! over at most three 16-lane SWAR row sums.
//!
//! **Documented deviation (measurement only):** without the exact
//! shadow, `true_futility` is the *count-based* rank
//! `|{lines with coarse value ≤ mine}| / M` — lines sharing a bucket
//! share a rank, where the shadow broke ties by exact access time (and
//! `Rrip`'s shadow ranked by *recency*, not RRPV, an intentionally
//! different measurement). Victim selection never consults
//! `true_futility`, so replacement decisions, hit/miss outcomes,
//! occupancies and snapshot replay are bit-identical to the shadowed
//! backends; only the AEF-family statistics (eviction futility sums,
//! the recorder's `aef` series) read differently, exactly as
//! `CoarseLru::without_exact_shadow` already does. The pinning test is
//! `tests/bucket_vs_treap.rs`.
//!
//! Both rankings carry opt-in **op counters**
//! ([`FutilityRanking::set_op_probes`]): inserts, removes, hit touches,
//! retags, rank and byte-lane queries, surfaced per recorder interval
//! through [`FutilityRanking::telemetry`] so `trace_dynamics` can
//! attribute miss-path time to ranking operations. Disabled (the
//! default) they cost one predictable branch per operation.

use cachesim::bucketrank::BucketPool;
use cachesim::fxmap::FxHashMap;
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, Probe,
    SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::cell::Cell;

#[cfg(doc)]
use crate::{CoarseLru, Rrip};

/// Timestamp buckets per partition "generation" (`K = size/16`),
/// mirroring `CoarseLru`.
const BUCKETS_PER_SIZE: u64 = 16;
/// Maximum RRPV of the 2-bit configuration, mirroring `Rrip`.
const MAX_RRPV: u32 = 3;
/// Bucket index holding RRIP's saturated (RRPV = 3) lines.
const SAT: usize = 4;

/// Probe series emitted by [`OpCounters::telemetry`], in order.
const OP_SERIES: [&str; 6] = [
    "rank_inserts",
    "rank_removes",
    "rank_hits",
    "rank_retags",
    "rank_queries",
    "rank_byte_queries",
];

/// Opt-in ranking op counters (interior-mutable so `&self` query paths
/// can count themselves). `prev` holds the last telemetry snapshot so
/// probes report per-interval deltas.
#[derive(Debug, Default)]
struct OpCounters {
    enabled: bool,
    counts: [Cell<u64>; 6],
    prev: Cell<[u64; 6]>,
}

/// Indices into [`OpCounters::counts`] / [`OP_SERIES`].
const OP_INSERT: usize = 0;
const OP_REMOVE: usize = 1;
const OP_HIT: usize = 2;
const OP_RETAG: usize = 3;
const OP_RANK: usize = 4;
const OP_BYTES: usize = 5;

impl OpCounters {
    #[inline]
    fn add(&self, op: usize, n: u64) {
        if self.enabled {
            let c = &self.counts[op];
            c.set(c.get() + n);
        }
    }

    fn snapshot(&self) -> [u64; 6] {
        [
            self.counts[0].get(),
            self.counts[1].get(),
            self.counts[2].get(),
            self.counts[3].get(),
            self.counts[4].get(),
            self.counts[5].get(),
        ]
    }

    fn reset(&mut self) {
        for c in &self.counts {
            c.set(0);
        }
        self.prev.set([0; 6]);
    }

    fn telemetry(&self, out: &mut Vec<Probe>) {
        if !self.enabled {
            return;
        }
        let cur = self.snapshot();
        let prev = self.prev.get();
        for (i, name) in OP_SERIES.into_iter().enumerate() {
            out.push(Probe::global(name, (cur[i] - prev[i]) as f64));
        }
        self.prev.set(cur);
    }

    fn save(&self, w: &mut SnapshotWriter) {
        w.bool(self.enabled);
        for v in self.snapshot() {
            w.u64(v);
        }
        for v in self.prev.get() {
            w.u64(v);
        }
    }

    fn load(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let enabled = r.bool()?;
        if enabled != self.enabled {
            return Err(SnapshotError::mismatch(
                "snapshot and ranking disagree on op-probe configuration",
            ));
        }
        for c in &self.counts {
            c.set(r.u64()?);
        }
        let mut prev = [0u64; 6];
        for p in prev.iter_mut() {
            *p = r.u64()?;
        }
        self.prev.set(prev);
        Ok(())
    }
}

/// Serialize a pool's buckets as `(non-empty count, then per non-empty
/// bucket: index, length, addresses in list order)`. List order is part
/// of the contract: re-appending on load reproduces identical bytes on
/// re-save.
fn save_buckets(w: &mut SnapshotWriter, buckets: &BucketPool, nbuckets: usize) {
    let nonempty = (0..nbuckets).filter(|&b| buckets.count(b) > 0).count();
    w.usize(nonempty);
    for b in 0..nbuckets {
        let cnt = buckets.count(b);
        if cnt == 0 {
            continue;
        }
        w.u8(b as u8);
        w.usize(cnt as usize);
        buckets.for_each(b, |addr| w.u64(addr));
    }
}

/// Rebuild a pool's buckets and index map from [`save_buckets`] bytes;
/// `value` derives the map entry from the slab index and bucket.
fn load_buckets<V>(
    r: &mut SnapshotReader,
    buckets: &mut BucketPool,
    map: &mut FxHashMap<u64, V>,
    what: &str,
    mut value: impl FnMut(u32, u8) -> V,
) -> Result<(), SnapshotError> {
    let nonempty = r.seq_len(10)?;
    let mut prev_b: Option<u16> = None;
    for _ in 0..nonempty {
        let b = r.u8()?;
        if prev_b.is_some_and(|p| p >= b as u16) {
            return Err(SnapshotError::corrupt(format!(
                "{what} buckets are not strictly sorted"
            )));
        }
        prev_b = Some(b as u16);
        let cnt = r.seq_len(8)?;
        if cnt == 0 {
            return Err(SnapshotError::corrupt(format!(
                "{what} snapshot lists an empty bucket as non-empty"
            )));
        }
        for _ in 0..cnt {
            let addr = r.u64()?;
            let idx = buckets.insert(addr, b as usize);
            if map.insert(addr, value(idx, b)).is_some() {
                return Err(SnapshotError::corrupt(format!(
                    "{what} snapshot repeats line {addr:#x}"
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coarse-grain timestamp LRU on buckets
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CoarseBucketPool {
    /// 8-bit current timestamp.
    current_ts: u8,
    /// Accesses since the last timestamp bump.
    accesses: u64,
    /// Per-line `(bucket node, timestamp tag)`; the tag *is* the bucket.
    map: FxHashMap<u64, (u32, u8)>,
    buckets: BucketPool,
}

impl CoarseBucketPool {
    fn tick(&mut self) {
        self.accesses += 1;
        // K = 1/16 of this partition's (current) size, at least 1 —
        // identical to `CoarseLru`.
        let k = (self.map.len() as u64 / BUCKETS_PER_SIZE).max(1);
        if self.accesses >= k {
            self.accesses = 0;
            self.current_ts = self.current_ts.wrapping_add(1);
        }
    }

    /// Tag `addr` with the current timestamp: a map write plus one O(1)
    /// bucket move (to the tail — touch order within a bucket is
    /// deterministic and observable, see the module docs).
    fn place(&mut self, addr: u64) {
        let ts = self.current_ts;
        match self.map.get_mut(&addr) {
            Some(slot) => {
                let (idx, old) = *slot;
                self.buckets.move_to_tail(idx, old as usize, ts as usize);
                *slot = (idx, ts);
            }
            None => {
                let idx = self.buckets.insert(addr, ts as usize);
                self.map.insert(addr, (idx, ts));
            }
        }
    }

    fn touch(&mut self, addr: u64) {
        self.place(addr);
        self.tick();
    }

    fn distance(&self, addr: u64) -> Option<u8> {
        let &(_, tag) = self.map.get(&addr)?;
        Some(self.current_ts.wrapping_sub(tag))
    }
}

/// Coarse-grain timestamp LRU on the two-level bucket structure:
/// futility values identical to [`CoarseLru`], every ranking op O(1),
/// `true_futility` a counting-prefix rank (no exact shadow — see the
/// module docs for the documented measurement deviation).
#[derive(Debug, Default)]
pub struct BucketCoarseLru {
    pools: Vec<CoarseBucketPool>,
    agg: HitRunAgg,
    ops: OpCounters,
}

impl BucketCoarseLru {
    /// An empty ranking; pools are sized on `reset`.
    pub fn new() -> Self {
        BucketCoarseLru::default()
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut CoarseBucketPool {
        let idx = part.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, CoarseBucketPool::default);
        }
        &mut self.pools[idx]
    }

    /// The raw 8-bit timestamp distance of a line (what the hardware
    /// computes before scaling), or `None` if untracked.
    pub fn timestamp_distance(&self, part: PartitionId, addr: u64) -> Option<u8> {
        self.pools.get(part.index())?.distance(addr)
    }
}

impl FutilityRanking for BucketCoarseLru {
    fn name(&self) -> &'static str {
        "coarse-lru-bucket"
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools).map(|_| CoarseBucketPool::default()).collect();
        self.ops.reset();
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, _time: u64, _meta: AccessMeta) {
        self.ops.add(OP_INSERT, 1);
        self.pool_mut(part).touch(addr);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, _time: u64, _meta: AccessMeta) {
        self.ops.add(OP_HIT, 1);
        self.pool_mut(part).touch(addr);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.pool_mut(PartitionId(max as u16));
        }
        self.ops.add(OP_HIT, hits.len() as u64);
        let BucketCoarseLru { pools, agg, .. } = self;
        // The tick half is replicated per record, exactly as the scalar
        // path: `current_ts` can bump mid-run and the tag must capture
        // it at hit time. The tag write + bucket move is last-writer-
        // wins, so it runs once per distinct line, at the position of
        // the line's final record — leaving map, counts and in-bucket
        // order bit-identical to the scalar replay.
        agg.for_each_record_tagged(hits, |h, is_last| {
            let pool = &mut pools[h.part.index()];
            if is_last {
                pool.place(h.addr);
            }
            pool.tick();
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.ops.add(OP_REMOVE, 1);
        let pool = self.pool_mut(part);
        if let Some((idx, tag)) = pool.map.remove(&addr) {
            pool.buckets.remove(idx, tag as usize);
        }
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        // Preserve the line's age: re-tag it in the destination pool at
        // the same timestamp distance it had in the source pool.
        let dist = {
            let pool = self.pool_mut(from);
            match pool.map.remove(&addr) {
                Some((idx, tag)) => {
                    pool.buckets.remove(idx, tag as usize);
                    pool.current_ts.wrapping_sub(tag)
                }
                None => return,
            }
        };
        self.ops.add(OP_RETAG, 1);
        let pool = self.pool_mut(to);
        let new_tag = pool.current_ts.wrapping_sub(dist);
        let idx = pool.buckets.insert(addr, new_tag as usize);
        pool.map.insert(addr, (idx, new_tag));
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        match self.timestamp_distance(part, addr) {
            Some(d) => d as f64 / 256.0,
            None => 0.0,
        }
    }

    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        // One map probe and a wrapping subtraction per candidate —
        // the same fused loop (and identical values) as `CoarseLru`.
        for c in cands {
            c.futility = match self.pools.get(c.part.index()) {
                Some(p) => match p.map.get(&c.addr) {
                    Some(&(_, tag)) => p.current_ts.wrapping_sub(tag) as f64 / 256.0,
                    None => 0.0,
                },
                None => 0.0,
            };
        }
    }

    fn futility_bytes(&mut self, cands: &[Candidate], out: &mut Vec<u16>) -> bool {
        // Identical numerators to `CoarseLru`: distance ≤ 255, D = 256.
        self.ops.add(OP_BYTES, cands.len() as u64);
        out.clear();
        for c in cands {
            out.push(match self.pools.get(c.part.index()) {
                Some(p) => match p.map.get(&c.addr) {
                    Some(&(_, tag)) => p.current_ts.wrapping_sub(tag) as u16,
                    None => 0,
                },
                None => 0,
            });
        }
        true
    }

    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        // Count-based rank: lines at distance ≤ d occupy the circular
        // tag range [ts − d, ts]; the two-level prefix sum answers in
        // O(16) with no pointer chasing (the treap shadow's descent was
        // the hottest block of the churn miss profile).
        self.ops.add(OP_RANK, 1);
        let pool = match self.pools.get(part.index()) {
            Some(p) => p,
            None => return 0.0,
        };
        let d = match pool.distance(addr) {
            Some(d) => d,
            None => return 0.0,
        };
        let m = pool.buckets.len();
        debug_assert!(m > 0);
        let le = pool
            .buckets
            .circular_sum(pool.current_ts.wrapping_sub(d), pool.current_ts);
        le as f64 / m as f64
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        // Most distant non-empty bucket, scanning tags circularly from
        // ts + 1 (distance 255) downward; within the bucket, the head
        // is the least recently touched line. Under 8-bit wrap aliasing
        // this is the hardware's notion of "oldest", which is the
        // documented tie-order deviation from the exact shadow.
        let pool = self.pools.get(part.index())?;
        let b = pool
            .buckets
            .first_occupied_from(pool.current_ts.wrapping_add(1))?;
        pool.buckets.head_addr(b as usize)
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.map.len())
    }

    fn set_op_probes(&mut self, enabled: bool) {
        self.ops.enabled = enabled;
    }

    fn telemetry(&self, out: &mut Vec<Probe>) {
        self.ops.telemetry(out);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("coarse-lru-bucket");
        self.ops.save(w);
        w.usize(self.pools.len());
        for pool in &self.pools {
            w.u8(pool.current_ts);
            w.u64(pool.accesses);
            save_buckets(w, &pool.buckets, cachesim::bucketrank::BUCKETS);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("coarse-lru-bucket")?;
        self.ops.load(r)?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        for pool in &mut self.pools {
            *pool = CoarseBucketPool::default();
            pool.current_ts = r.u8()?;
            pool.accesses = r.u64()?;
            load_buckets(
                r,
                &mut pool.buckets,
                &mut pool.map,
                "coarse-lru-bucket",
                |idx, b| (idx, b),
            )?;
        }
        r.end()
    }
}

// ---------------------------------------------------------------------------
// RRIP on buckets
// ---------------------------------------------------------------------------

/// RRIP lines are keyed by *birth generation* `birth = tag generation −
/// tagged RRPV` (wrapping — a fresh insert at generation 0 has birth
/// `−2 (mod 2⁶⁴)`, which preserves all arithmetic below because
/// `2⁶⁴ ≡ 0 (mod 4)`). A line's effective RRPV is `min(g − birth, 3)`,
/// so aging needs no per-line work at all: unsaturated lines
/// (`g − birth ≤ 2`) live in the bucket of their birth residue mod 4 —
/// at most three residues are unsaturated at once — and everything
/// older lives in [`SAT`], fed by the generation bump's O(1) splice of
/// the residue class that just aged out. Storing `birth` (not the
/// bucket index) in the map is what keeps the splice free of per-line
/// map updates: the physical bucket is recomputed from `birth` on
/// every probe, and stays correct when a drained residue is later
/// reused for newborn lines.
#[inline]
fn rrip_eff(generation: u64, birth: u64) -> u32 {
    generation.wrapping_sub(birth).min(MAX_RRPV as u64) as u32
}

/// The physical bucket of a line with the given birth.
#[inline]
fn rrip_bucket(generation: u64, birth: u64) -> usize {
    if generation.wrapping_sub(birth) >= MAX_RRPV as u64 {
        SAT
    } else {
        (birth % 4) as usize
    }
}

/// The bucket holding effective-RRPV class `e` at generation `g`.
#[inline]
fn rrip_class_bucket(generation: u64, e: u32) -> usize {
    if e >= MAX_RRPV {
        SAT
    } else {
        (generation.wrapping_sub(e as u64) % 4) as usize
    }
}

#[derive(Debug, Default)]
struct RripBucketPool {
    /// Current generation; lines age one RRPV per elapsed generation.
    generation: u64,
    /// Accesses since the last generation bump.
    accesses: u64,
    /// Per-line `(bucket node, wrapping birth generation)`.
    map: FxHashMap<u64, (u32, u64)>,
    buckets: BucketPool,
}

impl RripBucketPool {
    fn tick(&mut self) {
        self.accesses += 1;
        if self.accesses >= self.map.len().max(1) as u64 {
            self.accesses = 0;
            self.generation += 1;
            // Births `generation − 3` just aged to RRPV 3: splice that
            // whole residue class into the saturated bucket in O(1).
            let stale = ((self.generation % 4) as usize + 1) % 4;
            self.buckets.merge_into(stale, SAT);
        }
    }

    fn place(&mut self, addr: u64, birth: u64) {
        let g = self.generation;
        match self.map.get_mut(&addr) {
            Some(slot) => {
                let (idx, old_birth) = *slot;
                self.buckets
                    .move_to_tail(idx, rrip_bucket(g, old_birth), rrip_bucket(g, birth));
                *slot = (idx, birth);
            }
            None => {
                let idx = self.buckets.insert(addr, rrip_bucket(g, birth));
                self.map.insert(addr, (idx, birth));
            }
        }
    }

    fn effective_rrpv(&self, addr: u64) -> Option<u32> {
        let &(_, birth) = self.map.get(&addr)?;
        Some(rrip_eff(self.generation, birth))
    }
}

/// RRIP (2-bit RRPV) on the bucket structure: aged-RRPV values
/// identical to [`Rrip`], generation aging an O(1) bucket splice,
/// `true_futility` a 4-counter rank over RRPV classes (no recency
/// shadow — the documented measurement deviation, see module docs).
#[derive(Debug, Default)]
pub struct BucketRrip {
    pools: Vec<RripBucketPool>,
    agg: HitRunAgg,
    ops: OpCounters,
}

impl BucketRrip {
    /// An empty ranking; pools are sized on `reset` (seedless).
    pub fn new() -> Self {
        BucketRrip::default()
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut RripBucketPool {
        let idx = part.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, RripBucketPool::default);
        }
        &mut self.pools[idx]
    }

    /// The effective (aged) RRPV of a line, for inspection and tests.
    pub fn rrpv(&self, part: PartitionId, addr: u64) -> Option<u32> {
        self.pools.get(part.index())?.effective_rrpv(addr)
    }
}

impl FutilityRanking for BucketRrip {
    fn name(&self) -> &'static str {
        "rrip-bucket"
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools).map(|_| RripBucketPool::default()).collect();
        self.ops.reset();
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, _time: u64, _meta: AccessMeta) {
        self.ops.add(OP_INSERT, 1);
        let pool = self.pool_mut(part);
        // Long re-reference prediction on insertion (SRRIP).
        let birth = pool.generation.wrapping_sub((MAX_RRPV - 1) as u64);
        pool.place(addr, birth);
        pool.tick();
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, _time: u64, _meta: AccessMeta) {
        self.ops.add(OP_HIT, 1);
        let pool = self.pool_mut(part);
        // Immediate re-reference prediction on a hit.
        let birth = pool.generation;
        pool.place(addr, birth);
        pool.tick();
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.pool_mut(PartitionId(max as u16));
        }
        self.ops.add(OP_HIT, hits.len() as u64);
        let BucketRrip { pools, agg, .. } = self;
        // Per-record ticks (generations can bump — and splice — mid
        // run), last-writer-wins placement per distinct line; see the
        // coarse variant for why this matches the scalar replay.
        agg.for_each_record_tagged(hits, |h, is_last| {
            let pool = &mut pools[h.part.index()];
            if is_last {
                let birth = pool.generation;
                pool.place(h.addr, birth);
            }
            pool.tick();
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.ops.add(OP_REMOVE, 1);
        let pool = self.pool_mut(part);
        if let Some((idx, birth)) = pool.map.remove(&addr) {
            pool.buckets
                .remove(idx, rrip_bucket(pool.generation, birth));
        }
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        // Preserve the line's aged RRPV across the pool move, exactly
        // as the reference implementation re-tags `(eff, dest gen)`.
        let eff = {
            let pool = self.pool_mut(from);
            match pool.map.remove(&addr) {
                Some((idx, birth)) => {
                    pool.buckets
                        .remove(idx, rrip_bucket(pool.generation, birth));
                    rrip_eff(pool.generation, birth)
                }
                None => return,
            }
        };
        self.ops.add(OP_RETAG, 1);
        let pool = self.pool_mut(to);
        // A saturated line stays saturated: birth `dest gen − 3` keeps
        // `g − birth ≥ 3` forever.
        let birth = pool.generation.wrapping_sub(eff as u64);
        pool.place(addr, birth);
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        match self
            .pools
            .get(part.index())
            .and_then(|p| p.effective_rrpv(addr))
        {
            Some(r) => (r as f64 + 1.0) / (MAX_RRPV as f64 + 1.0),
            None => 0.0,
        }
    }

    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        for c in cands {
            c.futility = match self
                .pools
                .get(c.part.index())
                .and_then(|p| p.effective_rrpv(c.addr))
            {
                Some(r) => (r as f64 + 1.0) / (MAX_RRPV as f64 + 1.0),
                None => 0.0,
            };
        }
    }

    fn futility_bytes(&mut self, cands: &[Candidate], out: &mut Vec<u16>) -> bool {
        // Identical numerators to `Rrip`: aged RRPV + 1 ≤ 4, D = 4.
        self.ops.add(OP_BYTES, cands.len() as u64);
        out.clear();
        for c in cands {
            out.push(
                match self
                    .pools
                    .get(c.part.index())
                    .and_then(|p| p.effective_rrpv(c.addr))
                {
                    Some(r) => (r + 1) as u16,
                    None => 0,
                },
            );
        }
        true
    }

    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        // Count-based rank over the four RRPV classes: futility =
        // (M − |lines with a strictly higher aged RRPV|) / M.
        self.ops.add(OP_RANK, 1);
        let pool = match self.pools.get(part.index()) {
            Some(p) => p,
            None => return 0.0,
        };
        let eff = match pool.effective_rrpv(addr) {
            Some(e) => e,
            None => return 0.0,
        };
        let m = pool.buckets.len();
        debug_assert!(m > 0);
        let mut gt = 0u64;
        for e in (eff + 1)..=MAX_RRPV {
            gt += pool.buckets.count(rrip_class_bucket(pool.generation, e)) as u64;
        }
        (m as u64 - gt) as f64 / m as f64
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        // Highest aged-RRPV class first; within a class, the head is
        // the line least recently placed there (saturated lines keep
        // splice order). This ranks by RRPV — `Rrip`'s exact shadow
        // ranks by recency — part of the documented deviation.
        let pool = self.pools.get(part.index())?;
        for e in (0..=MAX_RRPV).rev() {
            if let Some(addr) = pool
                .buckets
                .head_addr(rrip_class_bucket(pool.generation, e))
            {
                return Some(addr);
            }
        }
        None
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.map.len())
    }

    fn set_op_probes(&mut self, enabled: bool) {
        self.ops.enabled = enabled;
    }

    fn telemetry(&self, out: &mut Vec<Probe>) {
        self.ops.telemetry(out);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("rrip-bucket");
        self.ops.save(w);
        w.usize(self.pools.len());
        for pool in &self.pools {
            w.u64(pool.generation);
            w.u64(pool.accesses);
            save_buckets(w, &pool.buckets, SAT + 1);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("rrip-bucket")?;
        self.ops.load(r)?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        for pool in &mut self.pools {
            *pool = RripBucketPool::default();
            pool.generation = r.u64()?;
            pool.accesses = r.u64()?;
            let g = pool.generation;
            // Births are recovered from the bucket: residue buckets
            // pin `g − birth` to their residue distance (≤ 2 in any
            // valid snapshot), saturated lines re-birth at `g − 3` —
            // behaviourally lossless, since only `min(g − birth, 3)`
            // is ever observable once a line saturates.
            load_buckets(
                r,
                &mut pool.buckets,
                &mut pool.map,
                "rrip-bucket",
                |idx, b| {
                    let birth = if b as usize == SAT {
                        g.wrapping_sub(MAX_RRPV as u64)
                    } else {
                        g.wrapping_sub((g % 4 + 4 - b as u64) % 4)
                    };
                    (idx, birth)
                },
            )?;
            // The residue class that aged out at the last bump must be
            // empty — anything there would silently never age.
            let stale = ((pool.generation % 4) as usize + 1) % 4;
            if pool.buckets.count(stale) != 0 {
                return Err(SnapshotError::corrupt(
                    "rrip-bucket snapshot populates the drained residue class",
                ));
            }
        }
        r.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoarseLru, Rrip};

    const META: AccessMeta = AccessMeta {
        next_use: cachesim::NO_NEXT_USE,
    };

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// Drive two rankings through an identical pseudorandom op
    /// sequence (inserts, hits, evicts, retags over 2 pools) and hand
    /// each op to `check` afterwards.
    fn drive(
        steps: usize,
        seed: u64,
        a: &mut dyn FutilityRanking,
        b: &mut dyn FutilityRanking,
        mut check: impl FnMut(&dyn FutilityRanking, &dyn FutilityRanking, &[Vec<u64>]),
    ) {
        a.reset(2);
        b.reset(2);
        let mut rng = Lcg(seed);
        let mut live: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut next_addr = 0u64;
        for t in 0..steps as u64 {
            let p = (rng.next() % 2) as usize;
            let part = PartitionId(p as u16);
            match rng.next() % 8 {
                0..=2 => {
                    next_addr += 1;
                    a.on_insert(part, next_addr, t, META);
                    b.on_insert(part, next_addr, t, META);
                    live[p].push(next_addr);
                }
                3..=5 if !live[p].is_empty() => {
                    let addr = live[p][(rng.next() as usize) % live[p].len()];
                    a.on_hit(part, addr, t, META);
                    b.on_hit(part, addr, t, META);
                }
                6 if !live[p].is_empty() => {
                    let i = (rng.next() as usize) % live[p].len();
                    let addr = live[p].swap_remove(i);
                    a.on_evict(part, addr);
                    b.on_evict(part, addr);
                }
                7 if !live[p].is_empty() => {
                    let i = (rng.next() as usize) % live[p].len();
                    let addr = live[p].swap_remove(i);
                    let q = 1 - p;
                    a.on_retag(part, PartitionId(q as u16), addr);
                    b.on_retag(part, PartitionId(q as u16), addr);
                    live[q].push(addr);
                }
                _ => {}
            }
            if t % 61 == 0 {
                check(a, b, &live);
            }
        }
        check(a, b, &live);
    }

    #[test]
    fn coarse_bucket_matches_treap_futility_values_exactly() {
        let mut treap = CoarseLru::new();
        let mut bucket = BucketCoarseLru::new();
        drive(4000, 0xC0A2, &mut treap, &mut bucket, |a, b, live| {
            for (p, addrs) in live.iter().enumerate() {
                let part = PartitionId(p as u16);
                assert_eq!(a.pool_len(part), b.pool_len(part));
                for &addr in addrs {
                    // The coarse estimate (and therefore every victim
                    // decision) must be bit-identical.
                    assert_eq!(a.futility(part, addr), b.futility(part, addr), "{addr}");
                }
            }
        });
        // Byte-lane numerators agree too.
        let cands: Vec<Candidate> = (1..=40)
            .map(|addr| Candidate {
                part: PartitionId(0),
                addr,
                slot: 0,
                futility: 0.0,
            })
            .collect();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        assert!(treap.futility_bytes(&cands, &mut out_a));
        assert!(bucket.futility_bytes(&cands, &mut out_b));
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn rrip_bucket_matches_treap_rrpv_values_exactly() {
        let mut treap = Rrip::new();
        let mut bucket = BucketRrip::new();
        drive(4000, 0x4219, &mut treap, &mut bucket, |a, b, live| {
            for (p, addrs) in live.iter().enumerate() {
                let part = PartitionId(p as u16);
                assert_eq!(a.pool_len(part), b.pool_len(part));
                for &addr in addrs {
                    assert_eq!(a.futility(part, addr), b.futility(part, addr), "{addr}");
                }
            }
        });
        let cands: Vec<Candidate> = (1..=40)
            .map(|addr| Candidate {
                part: PartitionId(1),
                addr,
                slot: 0,
                futility: 0.0,
            })
            .collect();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        assert!(treap.futility_bytes(&cands, &mut out_a));
        assert!(bucket.futility_bytes(&cands, &mut out_b));
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn rrip_helper_rrpv_tracks_reference() {
        // Focused aging check: the residue-class arithmetic must agree
        // with the reference implementation's per-line saturating math
        // across many generation bumps.
        let p = PartitionId(0);
        let mut treap = Rrip::new();
        let mut bucket = BucketRrip::new();
        treap.reset(1);
        bucket.reset(1);
        for a in 0..16u64 {
            treap.on_insert(p, a, a, META);
            bucket.on_insert(p, a, a, META);
        }
        for t in 0..500u64 {
            let addr = t % 5;
            treap.on_hit(p, addr, 100 + t, META);
            bucket.on_hit(p, addr, 100 + t, META);
            for a in 0..16u64 {
                assert_eq!(treap.rrpv(p, a), bucket.rrpv(p, a), "line {a} at t {t}");
            }
        }
    }

    #[test]
    fn coarse_true_futility_is_the_counting_rank() {
        let p = PartitionId(0);
        let mut r = BucketCoarseLru::new();
        r.reset(1);
        for (t, a) in (0..64u64).map(|i| (i, i + 100)) {
            r.on_insert(p, a, t, META);
        }
        // Oracle: rank by distance over all tracked lines.
        let dists: Vec<(u64, u8)> = (100..164)
            .map(|a| (a, r.timestamp_distance(p, a).unwrap()))
            .collect();
        let m = dists.len() as f64;
        for &(a, d) in &dists {
            let le = dists.iter().filter(|&&(_, d2)| d2 <= d).count() as f64;
            assert_eq!(r.true_futility(p, a), le / m, "line {a} distance {d}");
        }
        // The most futile line per the counting rank has futility 1.
        let top = r.max_futility_line(p).unwrap();
        assert_eq!(r.true_futility(p, top), 1.0);
        let dmax = dists.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(r.timestamp_distance(p, top), Some(dmax));
    }

    #[test]
    fn rrip_true_futility_is_the_counting_rank() {
        let p = PartitionId(0);
        let mut r = BucketRrip::new();
        r.reset(1);
        for a in 0..64u64 {
            r.on_insert(p, a, a, META);
        }
        for t in 0..200u64 {
            r.on_hit(p, t % 8, 100 + t, META);
        }
        let effs: Vec<(u64, u32)> = (0..64).map(|a| (a, r.rrpv(p, a).unwrap())).collect();
        let m = effs.len() as f64;
        for &(a, e) in &effs {
            let gt = effs.iter().filter(|&&(_, e2)| e2 > e).count() as f64;
            assert_eq!(r.true_futility(p, a), (m - gt) / m, "line {a} rrpv {e}");
        }
        let top = r.max_futility_line(p).unwrap();
        let emax = effs.iter().map(|&(_, e)| e).max().unwrap();
        assert_eq!(r.rrpv(p, top), Some(emax));
    }

    #[test]
    fn hit_batch_state_is_byte_identical_to_scalar_replay() {
        for which in ["coarse", "rrip"] {
            let (mut scalar, mut batched): (Box<dyn FutilityRanking>, Box<dyn FutilityRanking>) =
                if which == "coarse" {
                    (
                        Box::new(BucketCoarseLru::new()),
                        Box::new(BucketCoarseLru::new()),
                    )
                } else {
                    (Box::new(BucketRrip::new()), Box::new(BucketRrip::new()))
                };
            scalar.reset(2);
            batched.reset(2);
            let mut hits = Vec::new();
            // 40 lines, then a run with heavy re-hits (slot ↔ addr
            // binding fixed, as the engine guarantees).
            for slot in 0..40u32 {
                let part = PartitionId((slot % 2) as u16);
                let addr = 500 + slot as u64;
                scalar.on_insert(part, addr, slot as u64, META);
                batched.on_insert(part, addr, slot as u64, META);
            }
            let mut rng = Lcg(0xBA7C4 + if which == "coarse" { 0 } else { 1 });
            for t in 0..300u64 {
                let slot = (rng.next() % 40) as u32;
                hits.push(HitRecord {
                    part: PartitionId((slot % 2) as u16),
                    addr: 500 + slot as u64,
                    slot,
                    time: 1000 + t,
                    meta: META,
                });
            }
            for h in &hits {
                scalar.on_hit(h.part, h.addr, h.time, h.meta);
            }
            batched.on_hit_batch(&hits);
            // Snapshot bytes capture maps, counts, and in-bucket list
            // order — the strongest equality there is.
            let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
            scalar.save_state(&mut wa);
            batched.save_state(&mut wb);
            assert_eq!(wa.finish(), wb.finish(), "{which}");
        }
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable_and_resumable() {
        for which in ["coarse", "rrip"] {
            let mut orig: Box<dyn FutilityRanking> = if which == "coarse" {
                Box::new(BucketCoarseLru::new())
            } else {
                Box::new(BucketRrip::new())
            };
            orig.reset(2);
            let mut rng = Lcg(0x5AFE + if which == "coarse" { 0 } else { 1 });
            for t in 0..600u64 {
                let part = PartitionId((rng.next() % 2) as u16);
                let addr = rng.next() % 90;
                match rng.next() % 3 {
                    0 => orig.on_insert(part, addr, t, META),
                    1 => orig.on_hit(part, addr, t, META),
                    _ => orig.on_evict(part, addr),
                }
            }
            let mut w = SnapshotWriter::new();
            orig.save_state(&mut w);
            let bytes = w.finish();

            let mut back: Box<dyn FutilityRanking> = if which == "coarse" {
                Box::new(BucketCoarseLru::new())
            } else {
                Box::new(BucketRrip::new())
            };
            back.reset(2);
            let mut r = SnapshotReader::open(&bytes).unwrap();
            back.load_state(&mut r).unwrap();
            r.finish().unwrap();

            // Byte-stable: an immediate re-save is identical.
            let mut w2 = SnapshotWriter::new();
            back.save_state(&mut w2);
            assert_eq!(bytes, w2.finish(), "{which} re-save");

            // Resumable: identical continuations stay identical.
            for t in 600..900u64 {
                let part = PartitionId((t % 2) as u16);
                let addr = t % 90;
                orig.on_hit(part, addr, t, META);
                back.on_hit(part, addr, t, META);
                assert_eq!(
                    orig.futility(part, addr),
                    back.futility(part, addr),
                    "{which}"
                );
                assert_eq!(
                    orig.max_futility_line(part),
                    back.max_futility_line(part),
                    "{which}"
                );
            }
        }
    }

    #[test]
    fn pool_count_mismatch_is_rejected() {
        let mut orig = BucketCoarseLru::new();
        orig.reset(3);
        let mut w = SnapshotWriter::new();
        orig.save_state(&mut w);
        let bytes = w.finish();
        let mut back = BucketCoarseLru::new();
        back.reset(2);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            back.load_state(&mut r),
            Err(SnapshotError::Mismatch { .. })
        ));
    }

    #[test]
    fn op_probes_report_interval_deltas() {
        let p = PartitionId(0);
        let mut r = BucketCoarseLru::new();
        r.reset(1);
        r.set_op_probes(true);
        for a in 0..10u64 {
            r.on_insert(p, a, a, META);
        }
        r.on_hit(p, 3, 20, META);
        r.on_evict(p, 4);
        let _ = r.true_futility(p, 3);
        let mut probes = Vec::new();
        r.telemetry(&mut probes);
        fn get(probes: &[Probe], name: &str) -> f64 {
            probes
                .iter()
                .find(|pr| pr.name == name)
                .map(|pr| pr.value)
                .unwrap()
        }
        assert_eq!(get(&probes, "rank_inserts"), 10.0);
        assert_eq!(get(&probes, "rank_hits"), 1.0);
        assert_eq!(get(&probes, "rank_removes"), 1.0);
        assert_eq!(get(&probes, "rank_queries"), 1.0);
        assert_eq!(get(&probes, "rank_retags"), 0.0);
        // The next interval reports only new work.
        probes.clear();
        r.telemetry(&mut probes);
        assert_eq!(get(&probes, "rank_inserts"), 0.0);

        // Disabled rankings emit nothing and count nothing.
        let mut quiet = BucketCoarseLru::new();
        quiet.reset(1);
        quiet.on_insert(p, 1, 1, META);
        let mut none = Vec::new();
        quiet.telemetry(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn retag_preserves_distance_and_rrpv() {
        let p = PartitionId(0);
        let q = PartitionId(1);
        let mut c = BucketCoarseLru::new();
        c.reset(2);
        for (t, a) in (0..64u64).map(|i| (i, i)) {
            c.on_insert(p, a, t, META);
        }
        let d_before = c.timestamp_distance(p, 0).unwrap();
        c.on_retag(p, q, 0);
        assert_eq!(c.timestamp_distance(q, 0), Some(d_before));
        assert_eq!(c.pool_len(q), 1);
        // Retagging an untracked line is a no-op.
        c.on_retag(p, q, 9999);
        assert_eq!(c.pool_len(q), 1);

        let mut r = BucketRrip::new();
        r.reset(2);
        for a in 0..16u64 {
            r.on_insert(p, 100 + a, a, META);
        }
        r.on_insert(p, 5, 20, META);
        r.on_retag(p, q, 5);
        assert_eq!(r.pool_len(p), 16);
        assert_eq!(r.rrpv(q, 5), Some(MAX_RRPV - 1));
        r.on_evict(q, 5);
        assert_eq!(r.pool_len(q), 0);
        assert_eq!(r.futility(q, 5), 0.0);
    }
}
