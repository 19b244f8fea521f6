//! Random futility ranking: every line gets a stable pseudo-random rank.
//!
//! This is the futility-blind floor — under it, "cache lines with
//! different futility have the same probability of being evicted" and
//! the associativity CDF degenerates to the diagonal `F(x) = x`
//! (AEF = 0.5), exactly the worst case the paper derives for PF with
//! `N ≥ R` (Section III-C).

use crate::pool::{batch_over_pools, check_disjoint, RankQuery, TreapPool};
use cachesim::hashing::{IndexHash, LineHash};
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, PartitionId, SnapshotError, SnapshotReader,
    SnapshotWriter,
};

/// Random ranking with a deterministic per-line hash.
#[derive(Debug)]
pub struct RandomRanking {
    pools: Vec<TreapPool<true>>,
    hash: LineHash,
    seed: u64,
    scratch: Vec<RankQuery>,
}

impl RandomRanking {
    /// Create a ranking whose per-line ranks derive from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomRanking {
            pools: Vec::new(),
            hash: LineHash::new(seed),
            seed,
            scratch: Vec::new(),
        }
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.pools.len() {
            let n = self.pools.len();
            let seed = self.seed;
            self.pools
                .extend((n..=idx).map(|i| TreapPool::new(seed ^ (0xABCD + i as u64))));
        }
    }
}

impl FutilityRanking for RandomRanking {
    fn name(&self) -> &'static str {
        "random"
    }

    fn reset(&mut self, pools: usize) {
        let seed = self.seed;
        self.pools = (0..pools)
            .map(|i| TreapPool::new(seed ^ (0xABCD + i as u64)))
            .collect();
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, _time: u64, _meta: AccessMeta) {
        self.ensure(part.index());
        let key = self.hash.hash(addr);
        self.pools[part.index()].upsert(addr, key);
    }

    fn on_hit(&mut self, _part: PartitionId, _addr: u64, _time: u64, _meta: AccessMeta) {
        // Ranks are stable: hits do not change them.
    }

    fn on_hit_batch(&mut self, _hits: &[HitRecord]) {
        // Ranks are stable: a whole run of hits changes nothing.
    }

    fn wants_hit_records(&self) -> bool {
        false
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.ensure(part.index());
        self.pools[part.index()].remove(addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        self.ensure(from.index().max(to.index()));
        if let Some(key) = self.pools[from.index()].remove(addr) {
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
        w.begin("random-ranking");
        w.u64(self.seed);
        w.usize(self.pools.len());
        for p in &self.pools {
            p.save_state(w);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("random-ranking")?;
        let seed = r.u64()?;
        if seed != self.seed {
            return Err(SnapshotError::mismatch(format!(
                "snapshot random ranking uses seed {seed:#x}, engine uses {:#x}",
                self.seed
            )));
        }
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        for p in &mut self.pools {
            p.load_state(r, "random-ranking")?;
        }
        check_disjoint(self.pools.iter().flat_map(|p| p.addrs()), "random-ranking")?;
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
    fn ranks_are_stable_across_hits() {
        let mut r = RandomRanking::new(1);
        r.reset(1);
        r.on_insert(P, 1, 1, META);
        r.on_insert(P, 2, 2, META);
        let before = r.futility(P, 1);
        r.on_hit(P, 1, 3, META);
        assert_eq!(r.futility(P, 1), before);
    }

    #[test]
    fn ranks_are_deterministic_per_seed() {
        let mut a = RandomRanking::new(9);
        let mut b = RandomRanking::new(9);
        a.reset(1);
        b.reset(1);
        for addr in 0..10u64 {
            a.on_insert(P, addr, addr, META);
            b.on_insert(P, addr, addr, META);
        }
        for addr in 0..10u64 {
            assert_eq!(a.futility(P, addr), b.futility(P, addr));
        }
        assert_eq!(a.max_futility_line(P), b.max_futility_line(P));
    }

    #[test]
    fn normalized_ranks_span_unit_interval() {
        let mut r = RandomRanking::new(3);
        r.reset(1);
        for addr in 0..100u64 {
            r.on_insert(P, addr, addr, META);
        }
        let max = (0..100u64).map(|a| r.futility(P, a)).fold(0.0f64, f64::max);
        let min = (0..100u64).map(|a| r.futility(P, a)).fold(1.0f64, f64::min);
        assert!((max - 1.0).abs() < 1e-12);
        assert!((min - 0.01).abs() < 1e-12);
    }
}
