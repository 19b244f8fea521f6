//! RRIP-style futility ranking (an extension beyond the paper's three
//! rankings): lines carry an M-bit re-reference prediction value (RRPV).
//! Insertions predict a *long* re-reference interval (RRPV = max−1),
//! hits promote to *immediate* (RRPV = 0), and lines age by one RRPV
//! per pool "generation" (one generation = `size` accesses), which
//! approximates SRRIP's pressure-driven aging in a trace simulator.
//!
//! The futility a scheme sees is the coarse `RRPV / max` estimate —
//! like the paper's coarse timestamp LRU, RRIP is a cheap hardware
//! approximation, and Futility Scaling composes with it unchanged.
//! Measured associativity (`true_futility`, `max_futility_line`) reads
//! an exact recency shadow, the same stamp-ordered index as
//! `ExactLru`'s; it never influences replacement.

use crate::pool::read_shadow_pool;
use crate::recency::RecencyRank;
use cachesim::fxmap::FxHashMap;
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, HitRunAgg, PartitionId, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

/// Maximum RRPV for the default 2-bit configuration.
const MAX_RRPV: u32 = 3;

#[derive(Debug, Default)]
struct RripPool {
    /// Per-line `(rrpv at tag time, generation at tag time)`.
    tags: FxHashMap<u64, (u32, u64)>,
    /// Current generation; lines age one RRPV per elapsed generation.
    generation: u64,
    /// Accesses since the last generation bump.
    accesses: u64,
}

impl RripPool {
    fn tick(&mut self) {
        self.accesses += 1;
        if self.accesses >= self.tags.len().max(1) as u64 {
            self.accesses = 0;
            self.generation += 1;
        }
    }

    fn effective_rrpv(&self, addr: u64) -> Option<u32> {
        let &(rrpv, gen) = self.tags.get(&addr)?;
        let aged = rrpv as u64 + (self.generation - gen);
        Some(aged.min(MAX_RRPV as u64) as u32)
    }
}

/// RRIP-style ranking with a 2-bit RRPV per line.
#[derive(Debug, Default)]
pub struct Rrip {
    pools: Vec<RripPool>,
    /// Exact shadow ranks (keyed by last-access time) for measurement,
    /// one pool per RRIP pool.
    shadow: RecencyRank,
    agg: HitRunAgg,
}

impl Rrip {
    /// Create an empty ranking (pools sized on `reset`).
    pub fn new() -> Self {
        Rrip::default()
    }

    fn pool_mut(&mut self, part: PartitionId) -> &mut RripPool {
        let idx = part.index();
        if idx >= self.pools.len() {
            self.pools.resize_with(idx + 1, RripPool::default);
            self.shadow.ensure(idx + 1);
        }
        &mut self.pools[idx]
    }

    /// The effective (aged) RRPV of a line, for inspection and tests.
    pub fn rrpv(&self, part: PartitionId, addr: u64) -> Option<u32> {
        self.pools.get(part.index())?.effective_rrpv(addr)
    }
}

impl FutilityRanking for Rrip {
    fn name(&self) -> &'static str {
        "rrip"
    }

    fn reset(&mut self, pools: usize) {
        self.pools = (0..pools).map(|_| RripPool::default()).collect();
        self.shadow.reset(pools);
    }

    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        let pool = self.pool_mut(part);
        let gen = pool.generation;
        // Long re-reference prediction on insertion (SRRIP).
        pool.tags.insert(addr, (MAX_RRPV - 1, gen));
        pool.tick();
        self.shadow.touch(part.index(), addr, time);
    }

    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, _meta: AccessMeta) {
        let pool = self.pool_mut(part);
        let gen = pool.generation;
        // Immediate re-reference prediction on a hit.
        pool.tags.insert(addr, (0, gen));
        pool.tick();
        self.shadow.touch(part.index(), addr, time);
    }

    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        if let Some(max) = hits.iter().map(|h| h.part.index()).max() {
            self.pool_mut(PartitionId(max as u16));
        }
        let Rrip { pools, shadow, agg } = self;
        // The cheap tag + tick half is replicated per record, exactly
        // as the scalar path: `generation` can advance mid-run and the
        // tag must capture it at hit time. The measurement shadow
        // depends only on each line's final hit time, so it is stamped
        // once per line, at its last record, in time order.
        agg.for_each_record_tagged(hits, |h, last| {
            let pool = &mut pools[h.part.index()];
            let gen = pool.generation;
            pool.tags.insert(h.addr, (0, gen));
            pool.tick();
            if last {
                shadow.touch(h.part.index(), h.addr, h.time);
            }
        });
    }

    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.pool_mut(part).tags.remove(&addr);
        self.shadow.remove(part.index(), addr);
    }

    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        let rrpv = {
            let pool = self.pool_mut(from);
            let rrpv = match pool.effective_rrpv(addr) {
                Some(r) => r,
                None => return,
            };
            pool.tags.remove(&addr);
            rrpv
        };
        let pool = self.pool_mut(to);
        let gen = pool.generation;
        pool.tags.insert(addr, (rrpv, gen));
        self.shadow.retag(from.index(), to.index(), addr);
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
        // Aged RRPV lookup fused into one loop: map probe, saturating
        // generation aging, one division — identical to the scalar
        // value without the per-candidate virtual call.
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
        // futility = (rrpv + 1) / (MAX_RRPV + 1) exactly, so the aged
        // RRPV plus one is the raw numerator (≤ MAX_RRPV + 1 = 4) under
        // denominator D = 4; untracked lines report 0. Same lookup
        // structure as `futility_batch`, minus the f64 conversion.
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
        self.shadow.futility(part.index(), addr)
    }

    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        self.shadow.most_futile(part.index())
    }

    fn pool_len(&self, part: PartitionId) -> usize {
        self.pools.get(part.index()).map_or(0, |p| p.tags.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("rrip");
        w.usize(self.pools.len());
        for (i, pool) in self.pools.iter().enumerate() {
            w.u64(pool.generation);
            w.u64(pool.accesses);
            let mut tags: Vec<(u64, u32, u64)> = pool
                .tags
                .iter()
                .map(|(&a, &(rrpv, gen))| (a, rrpv, gen))
                .collect();
            tags.sort_unstable();
            w.usize(tags.len());
            for (addr, rrpv, gen) in tags {
                w.u64(addr);
                w.u32(rrpv);
                w.u64(gen);
            }
            self.shadow.save_pool(i, w);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("rrip")?;
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} ranking pools, engine has {}",
                self.pools.len()
            )));
        }
        let mut shadow_pools = Vec::with_capacity(n);
        for (i, pool) in self.pools.iter_mut().enumerate() {
            pool.generation = r.u64()?;
            pool.accesses = r.u64()?;
            let len = r.seq_len(20)?;
            pool.tags = FxHashMap::default();
            pool.tags.reserve(len);
            let mut prev: Option<u64> = None;
            for _ in 0..len {
                let addr = r.u64()?;
                if prev.is_some_and(|p| p >= addr) {
                    return Err(SnapshotError::corrupt("rrip tags are not strictly sorted"));
                }
                prev = Some(addr);
                let rrpv = r.u32()?;
                let gen = r.u64()?;
                if rrpv > MAX_RRPV || gen > pool.generation {
                    return Err(SnapshotError::corrupt(format!(
                        "rrip tag out of range: rrpv {rrpv}, generation {gen}"
                    )));
                }
                pool.tags.insert(addr, (rrpv, gen));
            }
            shadow_pools.push(read_shadow_pool(r, "rrip shadow", i, &pool.tags)?);
        }
        self.shadow.restore(&shadow_pools, "rrip shadow")?;
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
    fn insertion_predicts_long_hit_predicts_immediate() {
        let mut r = Rrip::new();
        r.reset(1);
        // A realistic pool so one access does not advance a generation.
        for a in 0..32u64 {
            r.on_insert(P, 100 + a, a, META);
        }
        r.on_insert(P, 1, 50, META);
        assert_eq!(r.rrpv(P, 1), Some(MAX_RRPV - 1));
        r.on_hit(P, 1, 51, META);
        // At most one generation can have elapsed during the hit.
        assert!(r.rrpv(P, 1) <= Some(1));
        assert!(r.futility(P, 1) <= 0.5);
    }

    #[test]
    fn lines_age_across_generations() {
        let mut r = Rrip::new();
        r.reset(1);
        // A fixed 16-line pool: generations advance every 16 accesses.
        for a in 0..16u64 {
            r.on_insert(P, a, a, META);
        }
        r.on_hit(P, 1, 20, META); // rrpv 0
        for t in 0..200u64 {
            r.on_hit(P, 2 + (t % 8), 30 + t, META); // churn other lines
        }
        // Line 1 aged back to the maximum RRPV.
        assert_eq!(r.rrpv(P, 1), Some(MAX_RRPV));
        assert!((r.futility(P, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hot_lines_outrank_cold_in_futility() {
        let mut r = Rrip::new();
        r.reset(1);
        for a in 0..64u64 {
            r.on_insert(P, a, a, META);
        }
        for t in 0..1000u64 {
            r.on_hit(P, t % 8, 100 + t, META); // lines 0..8 stay hot
        }
        assert!(r.futility(P, 3) < r.futility(P, 60));
        // The shadow still gives exact recency-based measurement ranks:
        // line 10 was inserted early and never touched again.
        assert!(r.true_futility(P, 10) > 0.5);
        assert_eq!(r.pool_len(P), 64);
    }

    #[test]
    fn evict_and_retag_bookkeeping() {
        let mut r = Rrip::new();
        r.reset(2);
        let q = PartitionId(1);
        for a in 0..16u64 {
            r.on_insert(P, 100 + a, a, META);
        }
        r.on_insert(P, 5, 20, META);
        r.on_retag(P, q, 5);
        assert_eq!(r.pool_len(P), 16);
        assert_eq!(r.rrpv(q, 5), Some(MAX_RRPV - 1));
        r.on_evict(q, 5);
        assert_eq!(r.pool_len(q), 0);
        assert_eq!(r.futility(q, 5), 0.0);
    }
}
