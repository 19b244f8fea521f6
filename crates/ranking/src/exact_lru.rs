//! Exact least-recently-used futility ranking.

use crate::recency::RecencyRank;
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

/// Exact LRU: lines are ranked by last-access time; the least recently
/// used line of a partition has futility 1. Ranks are prefix counts
/// over last-access stamps (see `recency`).
#[derive(Debug, Default)]
pub struct ExactLru {
    rank: RecencyRank,
    agg: HitRunAgg,
}

impl ExactLru {
    /// Create an empty ranking (pools sized on `reset`).
    pub fn new() -> Self {
        ExactLru::default()
    }
}

impl FutilityRanking for ExactLru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn reset(&mut self, pools: usize) {
        self.rank.reset(pools);
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.rank.ensure(part.index() + 1);
        self.rank.touch(part.index(), addr, time);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        self.rank.ensure(part.index() + 1);
        self.rank.touch(part.index(), addr, time);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        // Ranks depend only on each line's final last-access time, so a
        // line hit k times in the run is restamped once, at its last
        // record. Those records come in run (time) order, which keeps
        // every restamp on the in-order fast path.
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.rank.ensure(max + 1);
        }
        let ExactLru { rank, agg } = self;
        agg.for_each_record_tagged(hits, |h, last| {
            if last {
                rank.touch(h.part.index(), h.addr, h.time);
            }
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.rank.remove(part.index(), addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        self.rank.ensure(from.index().max(to.index()) + 1);
        self.rank.retag(from.index(), to.index(), addr);
    }

    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        self.rank.futility(part.index(), addr)
    }

    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        self.rank.futility_batch(cands);
    }

    fn futility_is_exact(&self) -> bool {
        true
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        self.rank.most_futile(part.index())
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.rank.len(part.index())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("exact-lru");
        self.rank.save_state(w);
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("exact-lru")?;
        self.rank.load_state(r, "exact-lru")?;
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
    fn futility_orders_by_recency() {
        let mut r = ExactLru::new();
        r.reset(1);
        for (t, a) in [(1u64, 10u64), (2, 11), (3, 12), (4, 13)] {
            r.on_insert(P, a, t, META);
        }
        assert!((r.futility(P, 10) - 1.0).abs() < 1e-12);
        assert!((r.futility(P, 13) - 0.25).abs() < 1e-12);
        // Hit the oldest line; it becomes the freshest.
        r.on_hit(P, 10, 5, META);
        assert!((r.futility(P, 10) - 0.25).abs() < 1e-12);
        assert_eq!(r.max_futility_line(P), Some(11));
    }

    #[test]
    fn pools_are_independent() {
        let mut r = ExactLru::new();
        r.reset(2);
        r.on_insert(PartitionId(0), 1, 1, META);
        r.on_insert(PartitionId(1), 2, 2, META);
        assert!((r.futility(PartitionId(0), 1) - 1.0).abs() < 1e-12);
        assert!((r.futility(PartitionId(1), 2) - 1.0).abs() < 1e-12);
        assert_eq!(r.pool_len(PartitionId(0)), 1);
    }

    #[test]
    fn retag_preserves_global_age_ordering() {
        let mut r = ExactLru::new();
        r.reset(2);
        let (a, b) = (PartitionId(0), PartitionId(1));
        r.on_insert(a, 1, 1, META);
        r.on_insert(b, 2, 2, META);
        r.on_retag(a, b, 1);
        // Line 1 is older than line 2, so it is most futile in pool b.
        assert_eq!(r.max_futility_line(b), Some(1));
        assert_eq!(r.pool_len(a), 0);
    }
}
