//! Trace drivers: functional (non-timing) ways of replaying one or many
//! traces through any [`Engine`] (the boxed `PartitionedCache` or a
//! monomorphized `EngineCore`).
//!
//! * [`InterleavedDriver`] replays N traces round-robin, one access per
//!   thread per turn — the paper's setup for the homogeneous Figure 2
//!   workloads. It feeds the engine in struct-of-arrays blocks through
//!   [`Engine::access_batch`], which software-pipelines the hit-path
//!   lookups; replay order and results are identical to per-access
//!   feeding.
//! * [`RateControlledDriver`] reproduces Section IV's methodology: "the
//!   insertion rate of each partition is controlled by adjusting the
//!   speed of the trace feeding (i.e., the probability of next insertion
//!   that belongs to Partition i is equal to the pre-configured
//!   insertion rate I_i)."

use cachesim::prng::Prng;
use cachesim::{
    AccessBlock, AccessMeta, Engine, PartitionId, SnapshotError, SnapshotReader, SnapshotWriter,
    Trace,
};

/// One thread's replay cursor.
struct Cursor {
    trace: Trace,
    next_use: Vec<u64>,
    pos: usize,
}

impl Cursor {
    fn new(trace: Trace) -> Self {
        let next_use = trace.annotate_next_use();
        Cursor {
            trace,
            next_use,
            pos: 0,
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.trace.len()
    }

    fn step<E: Engine + ?Sized>(&mut self, part: PartitionId, cache: &mut E) -> bool {
        match self.next_access() {
            Some((addr, meta)) => cache.access(part, addr, meta).is_hit(),
            None => false,
        }
    }

    fn next_access(&mut self) -> Option<(u64, AccessMeta)> {
        if self.done() {
            return None;
        }
        let a = self.trace.accesses[self.pos];
        let meta = AccessMeta::with_next_use(self.next_use[self.pos]);
        self.pos += 1;
        Some((a.addr, meta))
    }
}

/// Round-robin replay of one trace per partition.
pub struct InterleavedDriver {
    cursors: Vec<Cursor>,
}

impl InterleavedDriver {
    /// Build a driver; trace `i` is replayed as partition `i`.
    pub fn new(traces: Vec<Trace>) -> Self {
        InterleavedDriver {
            cursors: traces.into_iter().map(Cursor::new).collect(),
        }
    }

    /// How many accesses the driver queues before handing the engine a
    /// block. Large enough to amortize the per-batch dispatch, small
    /// enough that the block stays resident in L1/L2.
    const BLOCK: usize = 256;

    /// Replay all traces round-robin to completion, feeding the engine
    /// in blocks of [`Self::BLOCK`] accesses (the batched pipeline is
    /// observably identical to per-access feeding). If
    /// `warmup_fraction > 0`, statistics are reset once that fraction of
    /// the total accesses has been replayed; the reset lands on exactly
    /// the same round boundary as scalar feeding, so blocks straddling
    /// the warmup point are flushed early rather than split.
    pub fn run<E: Engine + ?Sized>(&mut self, cache: &mut E, warmup_fraction: f64) {
        let total: usize = self.cursors.iter().map(|c| c.trace.len()).sum();
        let warmup = (total as f64 * warmup_fraction.clamp(0.0, 1.0)) as usize;
        let mut fed = 0usize;
        let mut reset_done = warmup == 0;
        let mut block = AccessBlock::with_capacity(Self::BLOCK + self.cursors.len());
        while self.cursors.iter().any(|c| !c.done()) {
            for (i, cur) in self.cursors.iter_mut().enumerate() {
                if let Some((addr, meta)) = cur.next_access() {
                    block.push(PartitionId(i as u16), addr, meta);
                    fed += 1;
                }
            }
            // Only flush at round boundaries: when the block is full, or
            // when the warmup reset must observe the accesses fed so far.
            let reset_now = !reset_done && fed >= warmup;
            if block.len() >= Self::BLOCK || reset_now {
                cache.access_batch(&block);
                block.clear();
            }
            if reset_now {
                cache.stats_mut().reset();
                reset_done = true;
            }
        }
        cache.access_batch(&block);
    }
}

/// Insertion-rate-controlled replay (Section IV methodology).
pub struct RateControlledDriver {
    cursors: Vec<Cursor>,
    rates: Vec<f64>,
    rng: Prng,
}

impl RateControlledDriver {
    /// Build a driver with per-partition insertion-rate fractions
    /// `rates` (must sum to ~1).
    ///
    /// # Panics
    /// Panics if lengths differ or rates don't sum to 1 (±1e-6).
    pub fn new(traces: Vec<Trace>, rates: Vec<f64>, seed: u64) -> Self {
        assert_eq!(traces.len(), rates.len());
        let sum: f64 = rates.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "insertion rates must sum to 1, got {sum}"
        );
        RateControlledDriver {
            cursors: traces.into_iter().map(Cursor::new).collect(),
            rates,
            rng: Prng::seed_from_u64(seed),
        }
    }

    /// Serialize the driver's replay state — per-trace cursor positions
    /// and the sampling PRNG — into an open snapshot. The traces
    /// themselves are *not* serialized: they are part of the experiment
    /// configuration and must be rebuilt identically before a
    /// [`load_state`](Self::load_state).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("rate-driver");
        w.usize(self.cursors.len());
        for c in &self.cursors {
            w.usize(c.pos);
        }
        for s in self.rng.state() {
            w.u64(s);
        }
        w.end();
    }

    /// Restore replay state saved by [`save_state`](Self::save_state)
    /// into a driver rebuilt with the same traces and rates.
    ///
    /// # Errors
    /// Fails with [`SnapshotError::Mismatch`] if the trace count
    /// differs, and [`SnapshotError::Corrupt`] if a cursor position
    /// lies beyond its trace.
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("rate-driver")?;
        let n = r.usize()?;
        if n != self.cursors.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot drives {n} traces, driver has {}",
                self.cursors.len()
            )));
        }
        for c in &mut self.cursors {
            let pos = r.usize()?;
            if pos > c.trace.len() {
                return Err(SnapshotError::corrupt(format!(
                    "cursor position {pos} beyond trace of {} accesses",
                    c.trace.len()
                )));
            }
            c.pos = pos;
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64()?;
        }
        self.rng = Prng::from_state(rng_state);
        r.end()
    }

    /// Drive the cache until `insertions` misses have been inserted (or
    /// some trace is exhausted). Each insertion belongs to partition `i`
    /// with probability `rates[i]`: the driver advances the chosen
    /// partition's trace until it produces a miss, processing any hits
    /// along the way. Returns the number of insertions actually driven.
    ///
    /// This driver is inherently scalar: whether the chosen trace keeps
    /// advancing depends on each access's hit/miss outcome, so accesses
    /// cannot be queued into blocks ahead of the engine's answers.
    pub fn run<E: Engine + ?Sized>(&mut self, cache: &mut E, insertions: u64) -> u64 {
        let mut driven = 0u64;
        'outer: while driven < insertions {
            // Sample the partition of the next insertion.
            let x = self.rng.next_f64();
            let mut acc = 0.0;
            let mut part = self.cursors.len() - 1;
            for (i, &r) in self.rates.iter().enumerate() {
                acc += r;
                if x < acc {
                    part = i;
                    break;
                }
            }
            // Feed that partition's trace until it misses.
            loop {
                if self.cursors[part].done() {
                    break 'outer;
                }
                let hit = self.cursors[part].step(PartitionId(part as u16), cache);
                if !hit {
                    driven += 1;
                    break;
                }
            }
        }
        driven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::array::RandomCandidates;
    use cachesim::PartitionedCache;

    fn cache(lines: usize, parts: usize) -> PartitionedCache {
        PartitionedCache::new(
            Box::new(RandomCandidates::new(lines, 8, 7)),
            cachesim::naive_lru(),
            cachesim::evict_max_futility(),
            parts,
        )
    }

    #[test]
    fn interleaved_driver_replays_everything() {
        let t0 = Trace::from_addrs(0..100u64, 1);
        let t1 = Trace::from_addrs(1000..1100u64, 1);
        let mut c = cache(64, 2);
        InterleavedDriver::new(vec![t0, t1]).run(&mut c, 0.0);
        let s = c.stats();
        assert_eq!(
            s.partition(PartitionId(0)).accesses() + s.partition(PartitionId(1)).accesses(),
            200
        );
    }

    #[test]
    fn warmup_resets_statistics() {
        let t0 = Trace::from_addrs((0..400u64).map(|i| i % 32), 1);
        let mut c = cache(64, 1);
        InterleavedDriver::new(vec![t0]).run(&mut c, 0.5);
        let s = c.stats().partition(PartitionId(0));
        // After warmup the 32-line working set is resident: all hits.
        assert!(s.accesses() <= 220, "stats were reset: {}", s.accesses());
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn rate_controlled_insertions_follow_rates() {
        // Two streaming traces (every access misses) with a 0.8/0.2
        // split: insertions should land roughly 4:1.
        let t0 = Trace::from_addrs(0..20_000u64, 1);
        let t1 = Trace::from_addrs(1_000_000..1_020_000u64, 1);
        let mut c = cache(256, 2);
        let mut d = RateControlledDriver::new(vec![t0, t1], vec![0.8, 0.2], 11);
        let driven = d.run(&mut c, 10_000);
        assert_eq!(driven, 10_000);
        let s = c.state();
        let frac0 = s.insertions[0] as f64 / (s.insertions[0] + s.insertions[1]) as f64;
        assert!((frac0 - 0.8).abs() < 0.02, "insertion fraction {frac0}");
    }

    #[test]
    fn rate_controlled_stops_on_exhaustion() {
        let t0 = Trace::from_addrs(0..50u64, 1);
        let t1 = Trace::from_addrs(1000..1050u64, 1);
        let mut c = cache(32, 2);
        let mut d = RateControlledDriver::new(vec![t0, t1], vec![0.5, 0.5], 3);
        let driven = d.run(&mut c, 1_000_000);
        assert!(driven <= 100);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_rates() {
        let _ = RateControlledDriver::new(vec![Trace::new(), Trace::new()], vec![0.5, 0.6], 1);
    }

    #[test]
    fn driver_checkpoint_resumes_bit_identically() {
        let traces = || {
            vec![
                Trace::from_addrs((0..50_000u64).map(|i| i % 700), 1),
                Trace::from_addrs((0..50_000u64).map(|i| 1_000_000 + i % 300), 1),
            ]
        };
        // Uninterrupted run: 3000 + 2000 insertions.
        let mut c_full = cache(512, 2);
        let mut d_full = RateControlledDriver::new(traces(), vec![0.7, 0.3], 42);
        assert_eq!(d_full.run(&mut c_full, 3_000), 3_000);
        // Checkpoint engine + driver at the 3000-insertion mark.
        let engine_snap = c_full.snapshot();
        let mut w = SnapshotWriter::new();
        d_full.save_state(&mut w);
        let driver_snap = w.finish();
        d_full.run(&mut c_full, 2_000);

        // Resume into freshly built equivalents.
        let mut c_res = cache(512, 2);
        let mut d_res = RateControlledDriver::new(traces(), vec![0.7, 0.3], 42);
        c_res.restore(&engine_snap).unwrap();
        let mut r = SnapshotReader::open(&driver_snap).unwrap();
        d_res.load_state(&mut r).unwrap();
        r.finish().unwrap();
        d_res.run(&mut c_res, 2_000);

        assert_eq!(c_full.snapshot(), c_res.snapshot());

        // A driver rebuilt with a different trace count must refuse.
        let mut d_bad =
            RateControlledDriver::new(vec![Trace::from_addrs(0..10u64, 1)], vec![1.0], 42);
        let mut r = SnapshotReader::open(&driver_snap).unwrap();
        assert!(d_bad.load_state(&mut r).is_err());
    }
}
