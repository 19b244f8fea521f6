//! The futility-ranking interface (Section III-A).
//!
//! A futility ranking "maintains a strict total order of the uselessness
//! of cache lines within each partition". A line ranked `r`-th in a
//! partition of `M` lines has futility `f = r / M ∈ (0, 1]`; the line
//! with `f = 1` is the most useless one and is what a fully-associative
//! cache would evict.
//!
//! Concrete rankings (exact LRU, coarse-grain timestamp LRU, LFU, OPT,
//! Random) live in the `ranking` crate; this module only defines the
//! trait plus a minimal exact-LRU used by doc examples and smoke tests.

use crate::fxmap::FxHashMap;
use crate::ids::{AccessMeta, PartitionId, SlotId};
use crate::ostree::OsTreap;
use crate::scheme_api::{Candidate, Probe};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// One resident-line hit, as queued by the engine's batched access
/// pipeline for a deferred bulk [`FutilityRanking::on_hit_batch`] call.
/// `time` is the engine time at which the hit occurred (already
/// advanced past earlier accesses of the same batch).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HitRecord {
    /// Pool the line belongs to (after any foreign-hit retag).
    pub part: PartitionId,
    /// Line address.
    pub addr: u64,
    /// Slot the line occupies. A run contains no evictions, installs or
    /// retags, so the slot ↔ address ↔ pool binding is stable across
    /// the whole run — which is what lets [`HitRunAgg`] use the slot as
    /// a dense dedup index.
    pub slot: SlotId,
    /// Engine time of the hit.
    pub time: u64,
    /// Per-access metadata (next-use for OPT).
    pub meta: AccessMeta,
}

/// Per-slot aggregation scratch for [`FutilityRanking::on_hit_batch`]
/// overrides: collapses a hit run to one callback per *distinct line*.
///
/// Within a run the slot ↔ address binding is fixed (see
/// [`HitRecord::slot`]), so slots index a dense epoch-stamped table —
/// no hashing, no clearing between runs, and no allocation once the
/// tables have grown to the array's slot count.
///
/// Rankings whose per-hit update is a treap upsert use this to skip the
/// intermediate upserts of re-hit lines: an [`OsTreap`]'s observable
/// behaviour is a function of its current key set alone, so applying
/// only the *final* key per line yields the same ranking state as
/// replaying every intermediate key — while doing the expensive
/// `remove + insert` once per distinct line instead of once per hit.
#[derive(Debug, Default)]
pub struct HitRunAgg {
    /// `stamp[slot] == epoch` iff the slot was seen this run.
    stamp: Vec<u64>,
    /// Hits of this run landing on the slot (valid when stamped).
    count: Vec<u32>,
    /// Index into the run of the slot's last record (valid when stamped).
    last: Vec<u32>,
    /// Distinct slots of this run, in first-appearance order.
    touched: Vec<SlotId>,
    epoch: u64,
}

impl HitRunAgg {
    /// An empty scratch; tables grow on first use.
    pub fn new() -> Self {
        HitRunAgg::default()
    }

    /// Invoke `f(last_record, hits_on_that_line)` once per distinct slot
    /// in `hits`, in first-appearance order. `last_record` is the run's
    /// final record for that slot and `hits_on_that_line` how many of
    /// the run's records landed on it.
    pub fn for_each_line(&mut self, hits: &[HitRecord], mut f: impl FnMut(&HitRecord, u32)) {
        self.epoch += 1;
        self.touched.clear();
        for (i, h) in hits.iter().enumerate() {
            let s = h.slot as usize;
            if s >= self.stamp.len() {
                // Settles at the array's slot count: allocation-free
                // once the cache has been warmed.
                self.stamp.resize(s + 1, 0);
                self.count.resize(s + 1, 0);
                self.last.resize(s + 1, 0);
            }
            if self.stamp[s] == self.epoch {
                self.count[s] += 1;
            } else {
                self.stamp[s] = self.epoch;
                self.count[s] = 1;
                self.touched.push(h.slot);
            }
            self.last[s] = i as u32;
        }
        for &slot in &self.touched {
            let s = slot as usize;
            f(&hits[self.last[s] as usize], self.count[s]);
        }
    }

    /// Invoke `f(record, is_last)` for **every** record of `hits`, in
    /// run order, where `is_last` is true iff the record is its line's
    /// final record of the run.
    ///
    /// This is the dedup shape for rankings that replicate a cheap
    /// per-record half (timestamp/generation ticks, which may observe
    /// every access) but whose per-line state is a *last-writer-wins*
    /// overwrite: the expensive part (a map write, a recency restamp)
    /// runs once per distinct line, exactly at the position the scalar
    /// replay would leave it, so the final per-line
    /// state *and* any observable touch order match the scalar path bit
    /// for bit — and per-line updates land in time order, which an
    /// append-only recency index needs.
    pub fn for_each_record_tagged(
        &mut self,
        hits: &[HitRecord],
        mut f: impl FnMut(&HitRecord, bool),
    ) {
        for h in hits {
            let s = h.slot as usize;
            if s >= self.stamp.len() {
                // Kept in lockstep with `for_each_line`'s tables (a
                // shorter `last` there would otherwise truncate ours).
                self.stamp.resize(s + 1, 0);
                self.count.resize(s + 1, 0);
                self.last.resize(s + 1, 0);
            }
        }
        for (i, h) in hits.iter().enumerate() {
            self.last[h.slot as usize] = i as u32;
        }
        for (i, h) in hits.iter().enumerate() {
            f(h, self.last[h.slot as usize] == i as u32);
        }
    }
}

/// Per-partition futility bookkeeping driven by the simulation engine.
///
/// All methods take the *pool* the line belongs to; pools `0..N` are the
/// application partitions and higher pools are scheme-internal (e.g.
/// Vantage's unmanaged region).
pub trait FutilityRanking: Send {
    /// Short identifier, e.g. `"lru"`, `"opt"`, `"coarse-lru"`.
    fn name(&self) -> &'static str;

    /// (Re)initialize for `pools` pools, dropping all state.
    fn reset(&mut self, pools: usize);

    /// A new line `addr` was inserted into `part` at engine time `time`.
    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta);

    /// Line `addr` in `part` was hit at engine time `time`.
    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta);

    /// Apply a run of hits in one call. Must be observably identical to
    /// calling [`on_hit`](Self::on_hit) once per record *in order* —
    /// the default does exactly that. The engine's batched pipeline
    /// accumulates consecutive simple hits and flushes them here before
    /// anything that could depend on ranking state (a miss, a foreign
    /// hit, the end of the batch), so rankings may override this to
    /// amortize per-call overhead across the run.
    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        for h in hits {
            self.on_hit(h.part, h.addr, h.time, h.meta);
        }
    }

    /// Whether hits change any state of this ranking. Rankings whose
    /// [`on_hit`](Self::on_hit) is a no-op (stable random ranks)
    /// return `false`, letting the engine's batched pipeline skip
    /// collecting [`HitRecord`]s altogether. Must be constant for the
    /// lifetime of the ranking.
    fn wants_hit_records(&self) -> bool {
        true
    }

    /// Line `addr` was evicted from `part`.
    fn on_evict(&mut self, part: PartitionId, addr: u64);

    /// Line `addr` migrated from pool `from` to pool `to` without leaving
    /// the cache (used by demotion-based schemes such as Vantage).
    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64);

    /// The futility of `addr` within `part`, in `[0, 1]`, as seen by the
    /// replacement scheme. For approximate rankings (coarse-grain
    /// timestamps) this is the approximation the hardware would compute.
    fn futility(&self, part: PartitionId, addr: u64) -> f64;

    /// Fill `futility` for a whole eviction candidate set in one call.
    ///
    /// Semantically identical to calling [`futility`](Self::futility)
    /// per candidate — the default does exactly that — but rankings
    /// override it to amortize work across the `R` candidates: exact
    /// rankings overlap all candidates' lookups (interleaved treap
    /// descents, or every map probe ahead of the prefix counts), coarse
    /// rankings collapse the per-call `Option` chains into a tight
    /// loop. Implementations must produce bitwise-identical
    /// values to the scalar path; `&mut self` only licenses reuse of
    /// internal scratch buffers, never observable state changes.
    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        for c in cands {
            c.futility = self.futility(c.part, c.addr);
        }
    }

    /// Raw integer futility numerators in place of `f64` futilities
    /// (a byte lane). Nothing in the workspace calls or overrides it:
    /// every miss on a candidate array takes
    /// [`futility_batch`](Self::futility_batch). It remains only
    /// because perfbench's `Timed` wrapper forwards it; the default
    /// answers `false`, "no byte lane".
    fn futility_bytes(&mut self, _cands: &[Candidate], _out: &mut Vec<u16>) -> bool {
        false
    }

    /// Whether [`futility`](Self::futility) already equals
    /// [`true_futility`](Self::true_futility) (no approximation). Exact
    /// rankings return `true`, letting the engine reuse the victim's
    /// candidate futility for eviction stats instead of paying a second
    /// ranked lookup.
    fn futility_is_exact(&self) -> bool {
        false
    }

    /// The *exact* normalized rank of `addr` within `part`, used for
    /// measuring associativity distributions. Defaults to
    /// [`futility`](Self::futility); approximate rankings may override it
    /// with a precise shadow rank.
    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        self.futility(part, addr)
    }

    /// The globally most-futile line of `part`, if the ranking can answer
    /// that (needed only by the fully-associative array). That line's
    /// [`true_futility`](Self::true_futility) is exactly 1.0, so the
    /// engine records it without asking.
    fn max_futility_line(&self, part: PartitionId) -> Option<u64>;

    /// Number of lines currently tracked in `part`.
    fn pool_len(&self, part: PartitionId) -> usize;

    /// Enable (or disable) ranking-internal operation counters. No
    /// ranking in the workspace keeps such counters and nothing in the
    /// workspace calls this; it remains only because perfbench's
    /// `Timed` wrapper forwards it, and perfbench's traced
    /// `ranking.*.calls` layers count the same trait calls from
    /// outside. Removing it needs a change to that wrapper.
    fn set_op_probes(&mut self, _enabled: bool) {}

    /// Push ranking-level telemetry probes. No ranking in the workspace
    /// overrides this empty default and nothing in the workspace calls
    /// it; like [`set_op_probes`](Self::set_op_probes), it remains only
    /// because perfbench's `Timed` wrapper forwards it.
    fn telemetry(&self, _out: &mut Vec<Probe>) {}

    /// Serialize all ranking state — pool contents, timestamps, shadow
    /// structures, internal RNG streams — for checkpointing, such that a
    /// restored ranking continues bit-identically (DESIGN.md §11).
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restore state saved by [`save_state`](Self::save_state) into a
    /// ranking of the same kind.
    ///
    /// # Errors
    /// [`SnapshotError`] on decode failure or configuration mismatch.
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError>;
}

/// Boxed rankings forward every method the engine calls (including
/// overridden defaults), so a generic
/// [`EngineCore`](crate::engine::EngineCore) instantiated with
/// `Box<dyn FutilityRanking>` behaves exactly like one instantiated
/// with the concrete ranking.
impl<T: FutilityRanking + ?Sized> FutilityRanking for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn reset(&mut self, pools: usize) {
        (**self).reset(pools)
    }
    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta) {
        (**self).on_insert(part, addr, time, meta)
    }
    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta) {
        (**self).on_hit(part, addr, time, meta)
    }
    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        (**self).on_hit_batch(hits)
    }
    fn wants_hit_records(&self) -> bool {
        (**self).wants_hit_records()
    }
    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        (**self).on_evict(part, addr)
    }
    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        (**self).on_retag(from, to, addr)
    }
    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        (**self).futility(part, addr)
    }
    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        (**self).futility_batch(cands)
    }
    fn futility_is_exact(&self) -> bool {
        (**self).futility_is_exact()
    }
    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        (**self).true_futility(part, addr)
    }
    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        (**self).max_futility_line(part)
    }
    fn pool_len(&self, part: PartitionId) -> usize {
        (**self).pool_len(part)
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        (**self).save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        (**self).load_state(r)
    }
}

/// Minimal exact-LRU ranking built directly on [`OsTreap`]; used by doc
/// examples and as the reference model the differential tests compare
/// against. It overrides none of the trait's batch hooks, so it runs
/// the plain scalar path. The `ranking` crate's `ExactLru` is the
/// fast equivalent.
#[derive(Debug, Default)]
pub struct NaiveLru {
    pools: Vec<Pool>,
}

#[derive(Debug)]
struct Pool {
    by_time: OsTreap<(u64, u64)>,
    last: FxHashMap<u64, u64>,
}

impl NaiveLru {
    /// Create an empty ranking; pools are sized on
    /// [`reset`](FutilityRanking::reset).
    pub fn new() -> Self {
        NaiveLru::default()
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut Pool {
        let idx = part.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, Pool::default);
        }
        &mut self.pools[idx]
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            by_time: OsTreap::new(0xACE5),
            last: FxHashMap::default(),
        }
    }
}

impl FutilityRanking for NaiveLru {
    fn name(&self) -> &'static str {
        "naive-lru"
    }

    fn reset(&mut self, pools: usize) {
        self.pools.clear();
        self.pools.resize_with(pools, Pool::default);
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        let pool = self.pool_mut(part);
        pool.by_time.insert((time, addr));
        pool.last.insert(addr, time);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        let pool = self.pool_mut(part);
        if let Some(old) = pool.last.insert(addr, time) {
            pool.by_time.remove(&(old, addr));
        }
        pool.by_time.insert((time, addr));
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        let pool = self.pool_mut(part);
        if let Some(old) = pool.last.remove(&addr) {
            pool.by_time.remove(&(old, addr));
        }
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        let time = {
            let pool = self.pool_mut(from);
            match pool.last.remove(&addr) {
                Some(t) => {
                    pool.by_time.remove(&(t, addr));
                    t
                }
                None => return,
            }
        };
        let pool = self.pool_mut(to);
        pool.by_time.insert((time, addr));
        pool.last.insert(addr, time);
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        let pool = match self.pools.get(part.index()) {
            Some(p) => p,
            None => return 0.0,
        };
        let time = match pool.last.get(&addr) {
            Some(&t) => t,
            None => return 0.0,
        };
        let m = pool.by_time.len();
        if m == 0 {
            return 0.0;
        }
        // rank = number of lines touched longer ago than this one.
        let rank = pool.by_time.rank(&(time, addr));
        (m - rank) as f64 / m as f64
    }

    fn futility_is_exact(&self) -> bool {
        true
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        self.pools
            .get(part.index())
            .and_then(|p| p.by_time.min())
            .map(|&(_, addr)| addr)
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.by_time.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // Each pool as its sorted `(time, addr)` pairs: ranks depend only
        // on the key set, so the treap's shape is not part of the state.
        w.begin("naive-lru");
        w.usize(self.pools.len());
        for pool in &self.pools {
            let mut pairs: Vec<(u64, u64)> = pool.last.iter().map(|(&a, &t)| (t, a)).collect();
            pairs.sort_unstable();
            w.usize(pairs.len());
            for (time, addr) in pairs {
                w.u64(time);
                w.u64(addr);
            }
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("naive-lru")?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} naive-lru rank pools, engine has {}",
                self.pools.len()
            )));
        }
        let mut pools = Vec::with_capacity(n);
        let mut seen = FxHashMap::default();
        for _ in 0..n {
            let mut pool = Pool::default();
            let len = r.seq_len(16)?;
            let mut prev = None;
            for _ in 0..len {
                let key = (r.u64()?, r.u64()?);
                if prev.is_some_and(|p| p >= key) {
                    return Err(SnapshotError::corrupt(
                        "naive-lru rank pool pairs are not strictly increasing",
                    ));
                }
                prev = Some(key);
                let (time, addr) = key;
                // A line holds one array slot: one pool, one key.
                if seen.insert(addr, ()).is_some() {
                    return Err(SnapshotError::corrupt(format!(
                        "naive-lru rank pools hold address {addr:#x} twice"
                    )));
                }
                pool.by_time.insert(key);
                pool.last.insert(addr, time);
            }
            pools.push(pool);
        }
        r.end()?;
        self.pools = pools;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PartitionId = PartitionId(0);

    #[test]
    fn oldest_line_has_futility_one() {
        let mut r = NaiveLru::new();
        r.reset(1);
        r.on_insert(P, 10, 0, AccessMeta::default());
        r.on_insert(P, 11, 1, AccessMeta::default());
        r.on_insert(P, 12, 2, AccessMeta::default());
        assert!((r.futility(P, 10) - 1.0).abs() < 1e-12);
        assert!((r.futility(P, 12) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_futility_line(P), Some(10));
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut r = NaiveLru::new();
        r.reset(1);
        r.on_insert(P, 10, 0, AccessMeta::default());
        r.on_insert(P, 11, 1, AccessMeta::default());
        r.on_hit(P, 10, 2, AccessMeta::default());
        assert_eq!(r.max_futility_line(P), Some(11));
        assert!((r.futility(P, 11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evict_removes_line() {
        let mut r = NaiveLru::new();
        r.reset(1);
        r.on_insert(P, 10, 0, AccessMeta::default());
        r.on_evict(P, 10);
        assert_eq!(r.pool_len(P), 0);
        assert_eq!(r.futility(P, 10), 0.0);
    }

    #[test]
    fn hit_run_agg_collapses_to_last_record_per_slot() {
        let mut agg = HitRunAgg::new();
        let rec = |slot: SlotId, time: u64| HitRecord {
            part: P,
            addr: 100 + slot as u64,
            slot,
            time,
            meta: AccessMeta::default(),
        };
        let hits = [rec(3, 1), rec(7, 2), rec(3, 3), rec(3, 4), rec(1, 5)];
        let mut seen = Vec::new();
        agg.for_each_line(&hits, |h, n| seen.push((h.slot, h.time, n)));
        assert_eq!(seen, vec![(3, 4, 3), (7, 2, 1), (1, 5, 1)]);
        // Epoch stamping: the next run must not see stale counts.
        let hits2 = [rec(3, 9)];
        seen.clear();
        agg.for_each_line(&hits2, |h, n| seen.push((h.slot, h.time, n)));
        assert_eq!(seen, vec![(3, 9, 1)]);
    }

    #[test]
    fn tagged_iteration_marks_exactly_the_last_records() {
        let mut agg = HitRunAgg::new();
        let rec = |slot: SlotId, time: u64| HitRecord {
            part: P,
            addr: 100 + slot as u64,
            slot,
            time,
            meta: AccessMeta::default(),
        };
        let hits = [rec(3, 1), rec(7, 2), rec(3, 3), rec(3, 4), rec(1, 5)];
        let mut seen = Vec::new();
        agg.for_each_record_tagged(&hits, |h, last| seen.push((h.time, last)));
        assert_eq!(
            seen,
            vec![(1, false), (2, true), (3, false), (4, true), (5, true)]
        );
        // Interleaving with `for_each_line` keeps both iterators sound
        // (shared tables, lockstep growth).
        let hits2 = [rec(9, 8), rec(3, 9)];
        seen.clear();
        agg.for_each_record_tagged(&hits2, |h, last| seen.push((h.time, last)));
        assert_eq!(seen, vec![(8, true), (9, true)]);
        let mut lines = Vec::new();
        agg.for_each_line(&hits, |h, n| lines.push((h.slot, n)));
        assert_eq!(lines, vec![(3, 3), (7, 1), (1, 1)]);
    }

    #[test]
    fn retag_moves_line_between_pools() {
        let mut r = NaiveLru::new();
        r.reset(2);
        let q = PartitionId(1);
        r.on_insert(P, 10, 0, AccessMeta::default());
        r.on_retag(P, q, 10);
        assert_eq!(r.pool_len(P), 0);
        assert_eq!(r.pool_len(q), 1);
        assert_eq!(r.max_futility_line(q), Some(10));
    }
}
