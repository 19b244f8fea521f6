//! Belady's OPT futility ranking: lines are ranked by the time of their
//! next reference ("the time to their next references", §III-A); the
//! line re-referenced farthest in the future is the most futile. The
//! paper uses OPT to isolate partitioning-scheme effects from ranking
//! artifacts (Figures 2, 4–7) and to expose the performance headroom of
//! high associativity (Figure 6a).

use crate::pool::{batch_over_pools, load_pools, save_pools, RankQuery, TreapPool};
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

/// OPT (Belady) ranking. Requires accesses annotated with `next_use`
/// metadata (see [`Trace::annotate_next_use`](cachesim::trace::Trace::annotate_next_use));
/// lines never referenced again carry [`NO_NEXT_USE`](cachesim::NO_NEXT_USE)
/// and are the first to go.
#[derive(Debug, Default)]
pub struct Opt {
    pools: Vec<TreapPool<true>>,
    scratch: Vec<RankQuery>,
    agg: HitRunAgg,
}

impl Opt {
    /// Create an empty ranking (pools sized on `reset`).
    pub fn new() -> Self {
        Opt::default()
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut TreapPool<true> {
        let idx = part.index();
        if idx >= self.pools.len() {
            let n = self.pools.len();
            self.pools
                .extend((n..=idx).map(|i| TreapPool::new(0x0B75 + i as u64)));
        }
        &mut self.pools[idx]
    }
}

impl FutilityRanking for Opt {
    fn name(&self) -> &'static str {
        "opt"
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools)
            .map(|i| TreapPool::new(0x0B75 + i as u64))
            .collect();
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, _time: u64, meta: AccessMeta) {
        self.pool_mut(part).upsert(addr, meta.next_use);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, _time: u64, meta: AccessMeta) {
        self.pool_mut(part).upsert(addr, meta.next_use);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        // Only each line's final next-use annotation determines the
        // treap's key set; intermediate upserts of re-hit lines are
        // overwritten and can be skipped.
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.pool_mut(PartitionId(max as u16));
        }
        let Opt { pools, agg, .. } = self;
        agg.for_each_line(hits, |h, _| {
            pools[h.part.index()].upsert(h.addr, h.meta.next_use)
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.pool_mut(part).remove(addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        if let Some(key) = self.pool_mut(from).remove(addr) {
            self.pool_mut(to).upsert(addr, key);
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
        save_pools("opt", &self.pools, w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        load_pools("opt", &mut self.pools, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::NO_NEXT_USE;

    const P: PartitionId = PartitionId(0);

    fn meta(next: u64) -> AccessMeta {
        AccessMeta::with_next_use(next)
    }

    #[test]
    fn farthest_next_use_is_most_futile() {
        let mut r = Opt::new();
        r.reset(1);
        r.on_insert(P, 1, 0, meta(10));
        r.on_insert(P, 2, 1, meta(5));
        r.on_insert(P, 3, 2, meta(100));
        assert_eq!(r.max_futility_line(P), Some(3));
        assert!((r.futility(P, 3) - 1.0).abs() < 1e-12);
        assert!((r.futility(P, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dead_lines_outrank_everything() {
        let mut r = Opt::new();
        r.reset(1);
        r.on_insert(P, 1, 0, meta(1_000_000));
        r.on_insert(P, 2, 1, meta(NO_NEXT_USE));
        assert_eq!(r.max_futility_line(P), Some(2));
    }

    #[test]
    fn hit_updates_next_use() {
        let mut r = Opt::new();
        r.reset(1);
        r.on_insert(P, 1, 0, meta(50));
        r.on_insert(P, 2, 1, meta(60));
        // Line 1 is re-referenced; its next use is now far away.
        r.on_hit(P, 1, 2, meta(500));
        assert_eq!(r.max_futility_line(P), Some(1));
    }

    #[test]
    fn matches_belady_on_tiny_trace() {
        // Cache of 2 lines, trace: A B A C B. Belady evicts B when C
        // arrives? No: at C's miss, A's next use is index 4? Let's
        // compute: accesses A(0) B(1) A(2) C(3) B(4). At time 3 the
        // cache holds A (next use: none after 2) and B (next use 4).
        // OPT evicts the line used farthest in future: A (never again).
        let mut r = Opt::new();
        r.reset(1);
        r.on_insert(P, 0xA, 0, meta(2));
        r.on_insert(P, 0xB, 1, meta(4));
        r.on_hit(P, 0xA, 2, meta(NO_NEXT_USE));
        assert_eq!(r.max_futility_line(P), Some(0xA));
    }
}
