//! Coarse-grain timestamp-based LRU — the paper's practical hardware
//! futility ranking (Section V-A).
//!
//! Every partition has an 8-bit current-timestamp counter incremented
//! once per `K` accesses to that partition, with `K = size/16`. Each
//! line is tagged with its partition's timestamp at insert/hit time, and
//! its futility is the unsigned 8-bit distance
//! `f_ts = (CurrentTS − line_ts) mod 256`, normalized here to
//! `f = f_ts / 256` so schemes can treat all rankings uniformly (the
//! scaled comparison is identical because normalization is monotone).
//!
//! An optional *exact shadow* (on by default) maintains precise ranks so
//! that measured associativity CDFs use true futility, as the paper's
//! evaluation does; the shadow never influences replacement decisions.
//! It is the same stamp-ordered recency index as `ExactLru`'s. Without
//! it (`"coarse-lru-bare"`) the ranking is the bare tag map: the same
//! victims, coarse eviction futilities, and no `max_futility_line`.

use crate::pool::read_shadow_pool;
use crate::recency::RecencyRank;
use cachesim::fxmap::FxHashMap;
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

/// Number of timestamp buckets per partition "generation" (`K = size/16`).
const BUCKETS_PER_SIZE: u64 = 16;

#[derive(Debug, Default)]
struct CoarsePool {
    /// 8-bit current timestamp.
    current_ts: u8,
    /// Accesses since the last timestamp bump.
    accesses: u64,
    /// Per-line timestamp tags.
    tags: FxHashMap<u64, u8>,
}

impl CoarsePool {
    fn tick(&mut self) {
        self.accesses += 1;
        // K = 1/16 of this partition's (current) size, at least 1.
        let k = (self.tags.len() as u64 / BUCKETS_PER_SIZE).max(1);
        if self.accesses >= k {
            self.accesses = 0;
            self.current_ts = self.current_ts.wrapping_add(1);
        }
    }
}

/// Coarse-grain timestamp-based LRU ranking.
#[derive(Debug)]
pub struct CoarseLru {
    pools: Vec<CoarsePool>,
    /// Only pools below this index carry the exact shadow.
    shadow_limit: usize,
    /// Exact shadow ranks (keyed by last-access time) of pools
    /// `0..shadow.pools()`.
    shadow: RecencyRank,
    agg: HitRunAgg,
}

impl CoarseLru {
    /// With exact shadow ranks for measurement (the configuration used
    /// by all experiments).
    pub fn new() -> Self {
        CoarseLru::with_shadow_pools(usize::MAX)
    }

    /// Exact shadow ranks only for pools `0..k` (cheaper when only some
    /// partitions' associativity statistics are reported); the
    /// remaining pools fall back to the coarse estimate. While some pool
    /// lacks the shadow, the ranking reports the name
    /// `"coarse-lru-partial-shadow"`, which [`crate::by_name`] does not
    /// resolve (it cannot tell `k`); with `k` at least the pool count it
    /// is `"coarse-lru"`.
    pub fn with_shadow_pools(k: usize) -> Self {
        CoarseLru {
            pools: Vec::new(),
            shadow_limit: k,
            shadow: RecencyRank::default(),
            agg: HitRunAgg::new(),
        }
    }

    /// Without the exact shadow: pure hardware behaviour, cheapest
    /// simulation. `true_futility` falls back to the coarse estimate,
    /// `max_futility_line` answers `None`, and the ranking reports the
    /// name `"coarse-lru-bare"`.
    pub fn without_exact_shadow() -> Self {
        CoarseLru::with_shadow_pools(0)
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut CoarsePool {
        let idx = part.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, CoarsePool::default);
            self.shadow.ensure((idx + 1).min(self.shadow_limit));
        }
        &mut self.pools[idx]
    }

    /// Tag (and shadow-stamp) a line at insert or hit time.
    fn touch(&mut self, part: PartitionId, addr: u64, time: u64) {
        let pool = self.pool_mut(part);
        pool.tags.insert(addr, pool.current_ts);
        pool.tick();
        if part.index() < self.shadow.pools() {
            self.shadow.touch(part.index(), addr, time);
        }
    }

    /// The raw 8-bit timestamp distance of a line (what the hardware
    /// computes before scaling), or `None` if untracked.
    pub fn timestamp_distance(&self, part: PartitionId, addr: u64) -> Option<u8> {
        let pool = self.pools.get(part.index())?;
        let tag = *pool.tags.get(&addr)?;
        Some(pool.current_ts.wrapping_sub(tag))
    }
}

impl Default for CoarseLru {
    fn default() -> Self {
        CoarseLru::new()
    }
}

impl FutilityRanking for CoarseLru {
    fn name(&self) -> &'static str {
        if self.shadow_limit == 0 {
            "coarse-lru-bare"
        } else if self.shadow_limit < self.pools.len() {
            "coarse-lru-partial-shadow"
        } else {
            "coarse-lru"
        }
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools).map(|_| CoarsePool::default()).collect();
        self.shadow.reset(pools.min(self.shadow_limit));
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.touch(part, addr, time);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.touch(part, addr, time);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.pool_mut(PartitionId(max as u16));
        }
        let CoarseLru {
            pools, shadow, agg, ..
        } = self;
        let shadowed = shadow.pools();
        // The 8-bit timestamp tag + tick half is replicated per record,
        // exactly as the scalar path: `current_ts` can bump mid-run and
        // the tag must capture it at hit time. The exact shadow depends
        // only on each line's final last-access time, so it is stamped
        // once per line, at its last record, in time order.
        agg.for_each_record_tagged(hits, |h, last| {
            let idx = h.part.index();
            let pool = &mut pools[idx];
            pool.tags.insert(h.addr, pool.current_ts);
            pool.tick();
            if last && idx < shadowed {
                shadow.touch(idx, h.addr, h.time);
            }
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.pool_mut(part).tags.remove(&addr);
        self.shadow.remove(part.index(), addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        // Preserve the line's age: re-tag it in the destination pool at
        // the same timestamp distance it had in the source pool.
        let dist = {
            let pool = self.pool_mut(from);
            let tag = match pool.tags.remove(&addr) {
                Some(t) => t,
                None => return,
            };
            pool.current_ts.wrapping_sub(tag)
        };
        let pool = self.pool_mut(to);
        let new_tag = pool.current_ts.wrapping_sub(dist);
        pool.tags.insert(addr, new_tag);
        // The shadow keeps the line's last-access time; a line leaving
        // the shadowed pools leaves the shadow.
        if to.index() < self.shadow.pools() {
            self.shadow.retag(from.index(), to.index(), addr);
        } else {
            self.shadow.remove(from.index(), addr);
        }
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        match self.timestamp_distance(part, addr) {
            Some(d) => d as f64 / 256.0,
            None => 0.0,
        }
    }

    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        // The hardware estimate is a map probe plus one wrapping
        // subtraction per candidate; fusing the loop here skips the
        // per-candidate virtual call and `Option` plumbing of the
        // scalar path while computing the identical value.
        for c in cands {
            c.futility = match self.pools.get(c.part.index()) {
                Some(p) => match p.tags.get(&c.addr) {
                    Some(&tag) => p.current_ts.wrapping_sub(tag) as f64 / 256.0,
                    None => 0.0,
                },
                None => 0.0,
            };
        }
    }

    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        if part.index() < self.shadow.pools() {
            self.shadow.futility(part.index(), addr)
        } else {
            self.futility(part, addr)
        }
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        // Only answerable exactly with the shadow; the hardware scheme
        // never needs this query (it is used by the FullAssoc ideal).
        self.shadow.most_futile(part.index())
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.tags.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("coarse-lru");
        w.usize(self.pools.len());
        for (i, pool) in self.pools.iter().enumerate() {
            w.u8(pool.current_ts);
            w.u64(pool.accesses);
            // Tags in sorted address order so identical states always
            // serialize to identical bytes.
            let mut tags: Vec<(u64, u8)> = pool.tags.iter().map(|(&a, &t)| (a, t)).collect();
            tags.sort_unstable();
            w.usize(tags.len());
            for (addr, tag) in tags {
                w.u64(addr);
                w.u8(tag);
            }
            let shadowed = i < self.shadow.pools();
            w.bool(shadowed);
            if shadowed {
                self.shadow.save_pool(i, w);
            }
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("coarse-lru")?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        let mut shadow_pools = Vec::with_capacity(self.shadow.pools());
        for (i, pool) in self.pools.iter_mut().enumerate() {
            pool.current_ts = r.u8()?;
            pool.accesses = r.u64()?;
            let len = r.seq_len(9)?;
            pool.tags = FxHashMap::default();
            pool.tags.reserve(len);
            let mut prev: Option<u64> = None;
            for _ in 0..len {
                let addr = r.u64()?;
                if prev.is_some_and(|p| p >= addr) {
                    return Err(SnapshotError::corrupt(
                        "coarse-lru tags are not strictly sorted",
                    ));
                }
                prev = Some(addr);
                let tag = r.u8()?;
                pool.tags.insert(addr, tag);
            }
            if r.bool()? != (i < self.shadow.pools()) {
                return Err(SnapshotError::mismatch(
                    "snapshot and engine disagree on the coarse-lru exact shadow",
                ));
            }
            if i < self.shadow.pools() {
                shadow_pools.push(read_shadow_pool(r, "coarse-lru shadow", i, &pool.tags)?);
            }
        }
        self.shadow.restore(&shadow_pools, "coarse-lru shadow")?;
        r.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PartitionId = PartitionId(0);
    const META: AccessMeta = AccessMeta {
        next_use: cachesim::NO_NEXT_USE,
    };

    #[test]
    fn timestamp_advances_every_k_accesses() {
        let mut r = CoarseLru::new();
        r.reset(1);
        // Insert 32 lines: with size < 16, K = 1 so ts advances fast.
        for (t, a) in (0..32u64).map(|i| (i + 1, i + 100)) {
            r.on_insert(P, a, t, META);
        }
        // First line should have a larger distance than the last.
        let d_first = r.timestamp_distance(P, 100).unwrap();
        let d_last = r.timestamp_distance(P, 131).unwrap();
        assert!(d_first > d_last, "{d_first} vs {d_last}");
        assert!(r.futility(P, 100) > r.futility(P, 131));
    }

    #[test]
    fn hit_resets_distance() {
        let mut r = CoarseLru::new();
        r.reset(1);
        for (t, a) in (0..40u64).map(|i| (i + 1, i)) {
            r.on_insert(P, a, t, META);
        }
        let before = r.timestamp_distance(P, 0).unwrap();
        r.on_hit(P, 0, 100, META);
        // The hit tags the line with the current timestamp; the counter
        // may tick once immediately afterwards, so distance is 0 or 1.
        let after = r.timestamp_distance(P, 0).unwrap();
        assert!(after <= 1, "distance after hit was {after}");
        assert!(after < before);
    }

    #[test]
    fn shadow_gives_exact_true_futility() {
        let mut r = CoarseLru::new();
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        r.on_insert(P, 2, 2, META);
        r.on_insert(P, 3, 3, META);
        assert!((r.true_futility(P, 1) - 1.0).abs() < 1e-12);
        assert!((r.true_futility(P, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_futility_line(P), Some(1));
    }

    #[test]
    fn without_shadow_true_equals_coarse() {
        let mut r = CoarseLru::without_exact_shadow();
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        assert_eq!(r.true_futility(P, 1), r.futility(P, 1));
        assert_eq!(r.max_futility_line(P), None);
        assert_eq!(r.name(), "coarse-lru-bare");
        assert_eq!(CoarseLru::new().name(), "coarse-lru");
    }

    #[test]
    fn retag_preserves_distance() {
        let mut r = CoarseLru::new();
        r.reset(2);
        let q = PartitionId(1);
        for (t, a) in (0..64u64).map(|i| (i + 1, i)) {
            r.on_insert(P, a, t, META);
        }
        let d_before = r.timestamp_distance(P, 0).unwrap();
        r.on_retag(P, q, 0);
        let d_after = r.timestamp_distance(q, 0).unwrap();
        assert_eq!(d_before, d_after);
        assert_eq!(r.pool_len(q), 1);
    }

    #[test]
    fn eviction_forgets_line() {
        let mut r = CoarseLru::new();
        r.reset(1);
        r.on_insert(P, 9, 1, META);
        r.on_evict(P, 9);
        assert_eq!(r.timestamp_distance(P, 9), None);
        assert_eq!(r.futility(P, 9), 0.0);
        assert_eq!(r.pool_len(P), 0);
    }
}
