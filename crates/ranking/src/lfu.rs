//! Least-frequently-used futility ranking: lines are ranked by access
//! frequency ("their access frequencies", §III-A), with LRU as the
//! tiebreaker among equally-hot lines.

use crate::pool::{batch_over_pools, check_disjoint, TreapPool};
use cachesim::fxmap::FxHashMap;
use cachesim::ostree::RankQuery;
use cachesim::snapshot::{read_u64_map, write_u64_map};
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

/// Bits of the composite key reserved for the recency tiebreak.
const TIME_BITS: u32 = 44;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;
/// Saturation point for access counts so the packed key cannot overflow.
const MAX_COUNT: u64 = (1 << (64 - TIME_BITS)) - 1;

/// LFU ranking; the coldest (least-accessed, least-recent) line of a
/// partition has futility 1.
#[derive(Debug, Default)]
pub struct Lfu {
    pools: Vec<TreapPool<false>>,
    counts: Vec<FxHashMap<u64, u64>>,
    scratch: Vec<RankQuery<(u64, u64)>>,
    agg: HitRunAgg,
}

impl Lfu {
    /// Create an empty ranking (pools sized on `reset`).
    pub fn new() -> Self {
        Lfu::default()
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.pools.len() {
            let n = self.pools.len();
            self.pools
                .extend((n..=idx).map(|i| TreapPool::new(0x1F0 + i as u64)));
            self.counts.resize_with(idx + 1, FxHashMap::default);
        }
    }

    fn key(count: u64, time: u64) -> u64 {
        (count.min(MAX_COUNT) << TIME_BITS) | (time & TIME_MASK)
    }

    /// Current access count of a tracked line.
    pub fn count_of(&self, part: PartitionId, addr: u64) -> Option<u64> {
        self.counts.get(part.index())?.get(&addr).copied()
    }
}

impl FutilityRanking for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools)
            .map(|i| TreapPool::new(0x1F0 + i as u64))
            .collect();
        self.counts = (0..pools).map(|_| FxHashMap::default()).collect();
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.ensure(part.index());
        self.counts[part.index()].insert(addr, 1);
        self.pools[part.index()].upsert(addr, Self::key(1, time));
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.ensure(part.index());
        let count = self.counts[part.index()]
            .entry(addr)
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let key = Self::key(*count, time);
        self.pools[part.index()].upsert(addr, key);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        // A line hit k times in the run ends with count += k and the
        // key built from its final count and last hit time; every
        // intermediate treap upsert is overwritten, so the count map
        // is bumped once and the treap updated once per distinct line.
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.ensure(max);
        }
        let Lfu {
            pools, counts, agg, ..
        } = self;
        agg.for_each_line(hits, |h, n| {
            let idx = h.part.index();
            let count = counts[idx]
                .entry(h.addr)
                .and_modify(|c| *c += n as u64)
                .or_insert(n as u64);
            pools[idx].upsert(h.addr, Self::key(*count, h.time));
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.ensure(part.index());
        self.counts[part.index()].remove(&addr);
        self.pools[part.index()].remove(addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        self.ensure(from.index().max(to.index()));
        if let Some(key) = self.pools[from.index()].remove(addr) {
            let count = self.counts[from.index()].remove(&addr).unwrap_or(1);
            self.counts[to.index()].insert(addr, count);
            self.pools[to.index()].upsert(addr, key);
        }
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        self.pools
            .get(part.index())
            .map_or(0.0, |p| p.futility(addr))
    }

    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        batch_over_pools(&self.pools, &mut self.scratch, cands);
    }

    fn futility_is_exact(&self) -> bool {
        true
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        self.pools.get(part.index()).and_then(|p| p.most_futile())
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("lfu");
        w.usize(self.pools.len());
        for (pool, counts) in self.pools.iter().zip(&self.counts) {
            pool.save_state(w);
            write_u64_map(w, counts);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("lfu")?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        self.counts.resize_with(n, FxHashMap::default);
        for (pool, counts) in self.pools.iter_mut().zip(&mut self.counts) {
            pool.load_state(r, "lfu")?;
            *counts = read_u64_map(r)?;
            if counts.len() != pool.len() || counts.keys().any(|&a| pool.key_of(a).is_none()) {
                return Err(SnapshotError::corrupt(format!(
                    "lfu counts do not cover exactly the pool's {} lines",
                    pool.len()
                )));
            }
        }
        check_disjoint(self.pools.iter().flat_map(|p| p.addrs()), "lfu")?;
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
    fn cold_line_is_most_futile() {
        let mut r = Lfu::new();
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        r.on_insert(P, 2, 2, META);
        r.on_hit(P, 1, 3, META);
        r.on_hit(P, 1, 4, META);
        assert_eq!(r.max_futility_line(P), Some(2));
        assert!((r.futility(P, 2) - 1.0).abs() < 1e-12);
        assert_eq!(r.count_of(P, 1), Some(3));
    }

    #[test]
    fn recency_breaks_frequency_ties() {
        let mut r = Lfu::new();
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        r.on_insert(P, 2, 2, META);
        // Both have count 1; line 1 is older, so more futile.
        assert_eq!(r.max_futility_line(P), Some(1));
    }

    #[test]
    fn eviction_clears_count() {
        let mut r = Lfu::new();
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        r.on_hit(P, 1, 2, META);
        r.on_evict(P, 1);
        assert_eq!(r.count_of(P, 1), None);
        assert_eq!(r.pool_len(P), 0);
    }

    #[test]
    fn retag_carries_count_over() {
        let mut r = Lfu::new();
        r.reset(2);
        let q = PartitionId(1);
        r.on_insert(P, 1, 1, META);
        r.on_hit(P, 1, 2, META);
        r.on_retag(P, q, 1);
        assert_eq!(r.count_of(q, 1), Some(2));
        assert_eq!(r.pool_len(P), 0);
        assert_eq!(r.pool_len(q), 1);
    }
}
