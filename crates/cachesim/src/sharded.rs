//! Scale-out sharding: hash-partition the address space across N
//! independent engines and merge their results deterministically.
//!
//! A [`ShardedEngine`] wraps `N` shard engines (each a full
//! [`Engine`](crate::Engine): array + ranking + scheme + stats +
//! optional recorder, typically built over `1/N` of the total line
//! count). Every access is routed to the shard owning its address via
//! a fixed SplitMix64-mixed hash ([`shard_of`]); a block handed to
//! [`access_batch`](ShardedEngine::access_batch) is first split into
//! per-shard sub-blocks **preserving per-shard program order**, then
//! the sub-blocks run either sequentially or on a scoped worker pool
//! (`set_jobs`), reusing the same discipline as the experiment runner
//! (`fs_bench::runner`): work is keyed by shard index, never by worker
//! identity, so every observable result — merged statistics, merged
//! recorder rows, per-shard snapshot bytes — is byte-identical for any
//! job count and for any shard completion order.
//!
//! Why this is sound: shards own disjoint address sets, and no engine
//! state is shared between shards, so the only cross-shard operation
//! is the *merge*, which always folds shards in index order
//! ([`merged_stats`](ShardedEngine::merged_stats),
//! [`merged_recorder_rows`](ShardedEngine::merged_recorder_rows),
//! [`snapshot`](ShardedEngine::snapshot)). The pinning test is
//! `tests/sharded_determinism.rs`; the contract table lives in
//! DESIGN.md §12.
//!
//! Partition targets are global: [`set_targets`](ShardedEngine::set_targets)
//! divides each partition's line target across the shards (remainder
//! to the lowest-indexed shards), so each shard's enforcement scheme
//! sees only its shard-local `ActualSize` signal — the noisy-feedback
//! regime the sharded sweeps stress.

use crate::engine::{AccessBlock, AccessOutcome, Engine};
use crate::ids::{AccessMeta, PartitionId};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::CacheStats;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// A worker-pool job: one shard, its sub-block, and its result slot.
type ShardJob<'a> = (&'a mut Box<dyn Engine>, &'a AccessBlock, &'a mut u64);

/// The pool's shared state: the job list plus the slot holding the
/// first captured panic payload (both under one mutex, so "first" is
/// well defined).
type PoolQueue<'a, 'b> = Mutex<(VecDeque<ShardJob<'a>>, &'b mut Option<PanicPayload>)>;
type PanicPayload = Box<dyn std::any::Any + Send>;

/// The shard owning `addr` among `num_shards` shards: a SplitMix64
/// finalizer over the address, reduced modulo the shard count. Fixed
/// (independent of job count, shard engine composition, or access
/// order) so a trace splits identically everywhere.
///
/// # Panics
/// Panics (in debug builds) if `num_shards == 0`.
#[inline]
pub fn shard_of(num_shards: usize, addr: u64) -> usize {
    debug_assert!(num_shards > 0, "need at least one shard");
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % num_shards as u64) as usize
}

/// CSV header matching [`ShardedEngine::merged_recorder_rows`].
pub const MERGED_TS_HEADER: [&str; 5] = ["shard", "time", "series", "part", "value"];

/// N independent shard engines behind one access interface, with
/// deterministic shard-keyed merging of every observable output. See
/// the [module docs](self) for the determinism contract.
pub struct ShardedEngine {
    shards: Vec<Box<dyn Engine>>,
    partitions: usize,
    jobs: usize,
    /// Per-shard splitter scratch, reused across batches so the
    /// steady-state shard loop stays allocation-free
    /// (`tests/no_alloc_hot_path.rs`, sharded arm).
    blocks: Vec<AccessBlock>,
    /// Scratch for [`set_targets`](Self::set_targets)' per-shard
    /// division, reused so online re-solve loops pushing fresh targets
    /// every epoch stay allocation-free (re-solve arm of
    /// `tests/no_alloc_hot_path.rs`).
    target_scratch: Vec<usize>,
}

impl ShardedEngine {
    /// Build a sharded engine from a factory called once per shard
    /// index, in order. Each shard must be configured with the same
    /// partition count; targets default to whatever the factory's
    /// engines carry — call [`set_targets`](Self::set_targets) with the
    /// *global* targets to divide them across shards.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or a shard disagrees on the
    /// partition count.
    pub fn new(
        num_shards: usize,
        partitions: usize,
        mut factory: impl FnMut(usize) -> Box<dyn Engine>,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let shards: Vec<Box<dyn Engine>> = (0..num_shards).map(&mut factory).collect();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(
                s.partitions(),
                partitions,
                "shard {i} has {} partitions, expected {partitions}",
                s.partitions()
            );
        }
        ShardedEngine {
            shards,
            partitions,
            jobs: 1,
            blocks: (0..num_shards).map(|_| AccessBlock::new()).collect(),
            target_scratch: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of application partitions (same on every shard).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Worker threads used per batch (1 = run shards sequentially).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Set the worker count for [`access_batch`](Self::access_batch).
    /// Results are byte-identical for any value; only wall-clock
    /// changes. Clamped to `[1, num_shards]`.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.clamp(1, self.shards.len());
    }

    /// The shard owning `addr`.
    #[inline]
    pub fn route(&self, addr: u64) -> usize {
        shard_of(self.shards.len(), addr)
    }

    /// Shard `i`, for inspection.
    pub fn shard(&self, i: usize) -> &dyn Engine {
        self.shards[i].as_ref()
    }

    /// Mutable shard `i` (e.g. to attach a recorder or reset stats).
    /// Mutating a shard directly is outside the determinism contract —
    /// do it identically on every replica you intend to compare.
    pub fn shard_mut(&mut self, i: usize) -> &mut dyn Engine {
        self.shards[i].as_mut()
    }

    /// Set *global* per-partition targets (lines): each partition's
    /// target is divided evenly across shards, remainder going to the
    /// lowest-indexed shards, so the shard totals reconstruct the
    /// global target exactly.
    ///
    /// # Panics
    /// Panics if `targets` is longer than the partition count.
    pub fn set_targets(&mut self, targets: &[usize]) {
        assert!(targets.len() <= self.partitions, "too many targets");
        let s = self.shards.len();
        let per = &mut self.target_scratch;
        per.clear();
        per.resize(targets.len(), 0);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for (d, &t) in per.iter_mut().zip(targets) {
                *d = t / s + usize::from(i < t % s);
            }
            shard.set_targets(per);
        }
    }

    /// Total accesses processed across all shards.
    pub fn accesses(&self) -> u64 {
        self.shards.iter().map(|s| s.time()).sum()
    }

    /// Split `block` into the per-shard scratch sub-blocks, preserving
    /// per-shard program order (the splitter walks the block once, in
    /// order; each access is appended to exactly one shard's
    /// sub-block). Exposed for tests and drivers that apply sub-blocks
    /// manually; [`access_batch`](Self::access_batch) does this
    /// internally.
    pub fn split(&mut self, block: &AccessBlock) -> &[AccessBlock] {
        for b in &mut self.blocks {
            b.clear();
        }
        let n = self.shards.len();
        let (parts, addrs, metas) = (block.parts(), block.addrs(), block.metas());
        for i in 0..block.len() {
            self.blocks[shard_of(n, addrs[i])].push(parts[i], addrs[i], metas[i]);
        }
        &self.blocks
    }

    /// Process one access by routing it to its owning shard.
    pub fn access(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
        let s = self.route(addr);
        self.shards[s].access(part, addr, meta)
    }

    /// Process a block of accesses: split by shard, then drive each
    /// shard's sub-block through its batched pipeline — sequentially
    /// with `jobs() == 1`, otherwise on a scoped worker pool. Returns
    /// the total hit count. Observably identical for any job count.
    pub fn access_batch(&mut self, block: &AccessBlock) -> u64 {
        self.split(block);
        if self.jobs <= 1 || self.shards.len() == 1 {
            let mut hits = 0u64;
            for (shard, sub) in self.shards.iter_mut().zip(&self.blocks) {
                if !sub.is_empty() {
                    hits += shard.access_batch(sub);
                }
            }
            return hits;
        }
        self.run_parallel()
    }

    /// Worker-pool execution of the already-split sub-blocks: workers
    /// pop `(shard, sub-block, result slot)` jobs from a shared queue,
    /// exactly like the experiment runner — results land in per-shard
    /// slots, so completion order is unobservable.
    ///
    /// Panic discipline: a shard panicking mid-batch must surface its
    /// *own* payload to the caller. Each job runs under `catch_unwind`;
    /// the first captured payload wins (stored under the job-queue
    /// mutex, so "first" is well defined), the queue is drained so
    /// sibling workers stop cleanly, and the payload is re-raised on
    /// the caller's thread after the scope joins. Without this, the
    /// scoped-thread join aborts the process / replaces the message
    /// with an opaque "a scoped thread panicked" (and a worker dying
    /// while queue-locked would poison siblings into a bare "shard
    /// queue" panic) — masking the root cause. Pinned by
    /// `worker_panic_surfaces_original_message`.
    fn run_parallel(&mut self) -> u64 {
        let jobs = self.jobs;
        let mut hit_slots = vec![0u64; self.shards.len()];
        let mut first_panic = None;
        {
            let queue: PoolQueue = Mutex::new((
                self.shards
                    .iter_mut()
                    .zip(&self.blocks)
                    .zip(hit_slots.iter_mut())
                    .filter(|((_, sub), _)| !sub.is_empty())
                    .map(|((e, b), h)| (e, b, h))
                    .collect(),
                &mut first_panic,
            ));
            // A panicking job never holds the queue lock, but stay
            // poison-tolerant anyway: the queue is a plain job list,
            // consistent under any interleaving.
            let pop = || {
                queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
                    .pop_front()
            };
            std::thread::scope(|s| {
                for _ in 0..jobs {
                    s.spawn(|| {
                        while let Some((engine, sub, hits)) = pop() {
                            match panic::catch_unwind(AssertUnwindSafe(|| engine.access_batch(sub)))
                            {
                                Ok(h) => *hits = h,
                                Err(payload) => {
                                    let mut q = queue
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    q.0.clear();
                                    if q.1.is_none() {
                                        *q.1 = Some(payload);
                                    }
                                    return;
                                }
                            }
                        }
                    });
                }
            });
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        hit_slots.iter().sum()
    }

    /// Merged statistics: a fresh [`CacheStats`] with every shard's
    /// counters folded in, in shard-index order. The merge is a pure
    /// read (shards are unchanged) and allocates; call it at
    /// measurement boundaries, not in the hot loop. The result is a
    /// read-only aggregate — feeding new samples into it is
    /// unsupported.
    pub fn merged_stats(&self) -> CacheStats {
        let pools = self.shards[0].stats().partitions().len();
        let mut merged = CacheStats::new(pools);
        for shard in &self.shards {
            merged.merge_from(shard.stats());
        }
        merged
    }

    /// Reset every shard's statistics (e.g. at the warmup boundary).
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.stats_mut().reset();
        }
    }

    /// Disable (or re-enable) deviation sampling on every shard, for
    /// pure-throughput measurement.
    pub fn set_sample_deviation(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.stats_mut().sample_deviation = on;
        }
    }

    /// Attach a [`TimeSeriesRecorder`](crate::TimeSeriesRecorder) to
    /// every shard (cadence in shard-local accesses).
    pub fn attach_timeseries(&mut self, cadence: u64, capacity: usize) {
        for shard in &mut self.shards {
            shard.attach_timeseries(cadence, capacity);
        }
    }

    /// Merged flight-recorder rows, shard-keyed: each shard's retained
    /// time-series rows (`time,series,part,value`) prefixed with the
    /// shard index and concatenated in shard order (header:
    /// [`MERGED_TS_HEADER`]). Shards without a
    /// [`TimeSeriesRecorder`](crate::TimeSeriesRecorder) contribute
    /// nothing. Byte-identical for any job count.
    pub fn merged_recorder_rows(&self) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(ts) = shard.timeseries() {
                for mut row in ts.rows() {
                    let mut full = Vec::with_capacity(row.len() + 1);
                    full.push(i.to_string());
                    full.append(&mut row);
                    out.push(full);
                }
            }
        }
        out
    }

    /// Serialize the whole sharded engine: a versioned `FSSN` container
    /// holding the shard count, partition count and every shard's own
    /// [`snapshot`](crate::EngineCore::snapshot) image as an opaque
    /// checksummed section, in shard order.
    ///
    /// Must be called between batches (every shard's deferred state is
    /// flushed at batch boundaries).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin("sharded");
        w.usize(self.shards.len());
        w.usize(self.partitions);
        w.end();
        for shard in &self.shards {
            w.begin("shard-image");
            w.bytes(&shard.snapshot());
            w.end();
        }
        w.finish()
    }

    /// Restore a [`snapshot`](Self::snapshot) into this engine. The
    /// shard count, partition count and every shard's composition must
    /// match. All shard images are decoded from the container before
    /// any shard is touched; per-shard restores then apply in order
    /// (each one commit-at-end, per the [`EngineCore::restore`]
    /// contract).
    ///
    /// [`EngineCore::restore`]: crate::EngineCore::restore
    ///
    /// # Errors
    /// Fails without panicking on truncated, corrupted or mismatched
    /// input. On error the engine state is unspecified; discard it.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.begin("sharded")?;
        let shards = r.usize()?;
        if shards != self.shards.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {shards} shards, engine has {}",
                self.shards.len()
            )));
        }
        let partitions = r.usize()?;
        if partitions != self.partitions {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {partitions} partitions, engine has {}",
                self.partitions
            )));
        }
        r.end()?;
        let mut images = Vec::with_capacity(shards);
        for _ in 0..shards {
            r.begin("shard-image")?;
            images.push(r.bytes()?);
            r.end()?;
        }
        r.finish()?;
        for (shard, image) in self.shards.iter_mut().zip(images) {
            shard.restore(image)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::RandomCandidates;
    use crate::PartitionedCache;

    fn shard_factory(i: usize) -> Box<dyn Engine> {
        Box::new(PartitionedCache::new(
            Box::new(RandomCandidates::new(64, 8, 100 + i as u64)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            2,
        ))
    }

    fn block(n: usize, seed: u64) -> AccessBlock {
        let mut b = AccessBlock::with_capacity(n);
        let mut x = seed | 1;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(
                PartitionId((x % 2) as u16),
                (x >> 30) % 400,
                AccessMeta::default(),
            );
        }
        b
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for addr in 0..1000u64 {
            let s = shard_of(4, addr);
            assert!(s < 4);
            assert_eq!(s, shard_of(4, addr), "routing must be a function");
        }
        // All shards receive traffic under any reasonable hash.
        let mut seen = [false; 4];
        for addr in 0..64u64 {
            seen[shard_of(4, addr)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        assert_eq!(shard_of(1, 12345), 0);
    }

    #[test]
    fn split_preserves_per_shard_order_and_loses_nothing() {
        let mut e = ShardedEngine::new(4, 2, shard_factory);
        let b = block(500, 9);
        let subs = e.split(&b);
        assert_eq!(subs.iter().map(|s| s.len()).sum::<usize>(), 500);
        // Each sub-block must be the in-order subsequence of the block
        // owned by that shard.
        for (s, sub) in subs.iter().enumerate() {
            let expect: Vec<u64> = b
                .addrs()
                .iter()
                .copied()
                .filter(|&a| shard_of(4, a) == s)
                .collect();
            assert_eq!(sub.addrs(), expect.as_slice(), "shard {s}");
        }
    }

    #[test]
    fn merged_stats_match_scalar_routing() {
        // Batched sharded execution must agree with routing each access
        // scalar-style through the same shard compositions.
        let mut batched = ShardedEngine::new(3, 2, shard_factory);
        let mut scalar: Vec<PartitionedCache> = (0..3)
            .map(|i| {
                PartitionedCache::new(
                    Box::new(RandomCandidates::new(64, 8, 100 + i as u64)),
                    crate::naive_lru(),
                    crate::evict_max_futility(),
                    2,
                )
            })
            .collect();
        let b = block(3000, 5);
        let hits = batched.access_batch(&b);
        let mut scalar_hits = 0u64;
        for i in 0..b.len() {
            let s = shard_of(3, b.addrs()[i]);
            scalar_hits += u64::from(
                scalar[s]
                    .access(b.parts()[i], b.addrs()[i], b.metas()[i])
                    .is_hit(),
            );
        }
        assert_eq!(hits, scalar_hits);
        let merged = batched.merged_stats();
        let total_hits: u64 = scalar.iter().map(|c| c.stats().total_hits()).sum();
        let total_misses: u64 = scalar.iter().map(|c| c.stats().total_misses()).sum();
        assert_eq!(merged.total_hits(), total_hits);
        assert_eq!(merged.total_misses(), total_misses);
        assert_eq!(batched.accesses(), 3000);
    }

    #[test]
    fn job_count_does_not_change_results() {
        let mut a = ShardedEngine::new(4, 2, shard_factory);
        let mut b = ShardedEngine::new(4, 2, shard_factory);
        a.set_jobs(1);
        b.set_jobs(4);
        for round in 0..6u64 {
            let blk = block(700, round * 13 + 1);
            assert_eq!(a.access_batch(&blk), b.access_batch(&blk));
        }
        assert_eq!(a.snapshot(), b.snapshot());
        let (sa, sb) = (a.merged_stats(), b.merged_stats());
        assert_eq!(sa.total_hits(), sb.total_hits());
        assert_eq!(sa.total_misses(), sb.total_misses());
    }

    #[test]
    fn global_targets_divide_across_shards() {
        let mut e = ShardedEngine::new(4, 2, shard_factory);
        e.set_targets(&[33, 19]);
        let t0: usize = (0..4).map(|i| e.shard(i).state().targets[0]).sum();
        let t1: usize = (0..4).map(|i| e.shard(i).state().targets[1]).sum();
        assert_eq!(t0, 33);
        assert_eq!(t1, 19);
        // Remainder goes to the lowest-indexed shards.
        assert_eq!(e.shard(0).state().targets[0], 9);
        assert_eq!(e.shard(3).state().targets[0], 8);
    }

    /// An engine that panics on its first batch, delegating everything
    /// else — the fault-injection vehicle for the worker-pool panic
    /// contract.
    struct PanicOnBatch {
        inner: Box<dyn Engine>,
        msg: &'static str,
    }

    impl Engine for PanicOnBatch {
        fn access(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
            self.inner.access(part, addr, meta)
        }
        fn access_batch(&mut self, _block: &AccessBlock) -> u64 {
            panic!("{}", self.msg)
        }
        fn access_batch_into(
            &mut self,
            block: &AccessBlock,
            outcomes: &mut Vec<AccessOutcome>,
        ) -> u64 {
            self.inner.access_batch_into(block, outcomes)
        }
        fn set_targets(&mut self, targets: &[usize]) {
            self.inner.set_targets(targets)
        }
        fn partitions(&self) -> usize {
            self.inner.partitions()
        }
        fn stats(&self) -> &CacheStats {
            self.inner.stats()
        }
        fn stats_mut(&mut self) -> &mut CacheStats {
            self.inner.stats_mut()
        }
        fn state(&self) -> &crate::scheme_api::PartitionState {
            self.inner.state()
        }
        fn time(&self) -> u64 {
            self.inner.time()
        }
        fn array(&self) -> &dyn crate::array::CacheArray {
            self.inner.array()
        }
        fn ranking(&self) -> &dyn crate::ranking_api::FutilityRanking {
            self.inner.ranking()
        }
        fn scheme(&self) -> &dyn crate::scheme_api::PartitionScheme {
            self.inner.scheme()
        }
        fn snapshot(&self) -> Vec<u8> {
            self.inner.snapshot()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
            self.inner.restore(bytes)
        }
        fn attach_timeseries(&mut self, cadence: u64, capacity: usize) {
            self.inner.attach_timeseries(cadence, capacity)
        }
        fn timeseries(&self) -> Option<&crate::TimeSeriesRecorder> {
            self.inner.timeseries()
        }
        fn timeseries_mut(&mut self) -> Option<&mut crate::TimeSeriesRecorder> {
            self.inner.timeseries_mut()
        }
    }

    #[test]
    fn worker_panic_surfaces_original_message() {
        // Regression: a panicking shard worker used to take the whole
        // pool down with an opaque secondary panic (scoped-join
        // "a scoped thread panicked" / poisoned "shard queue"),
        // masking the root cause. The pool must re-raise the *first
        // worker's own payload* on the calling thread.
        const MSG: &str = "injected shard failure: shard 2 ate a bad line";
        let mut e = ShardedEngine::new(4, 2, |i| {
            if i == 2 {
                Box::new(PanicOnBatch {
                    inner: shard_factory(i),
                    msg: MSG,
                })
            } else {
                shard_factory(i)
            }
        });
        e.set_jobs(4);
        let blk = block(2000, 21); // large enough to hit every shard
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.access_batch(&blk);
        }))
        .expect_err("injected panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string payload>".into());
        assert_eq!(msg, MSG, "original panic payload must surface verbatim");
    }

    #[test]
    fn snapshot_roundtrip_and_mismatch() {
        let mut donor = ShardedEngine::new(2, 2, shard_factory);
        donor.access_batch(&block(900, 3));
        let snap = donor.snapshot();

        let mut resumed = ShardedEngine::new(2, 2, shard_factory);
        resumed.restore(&snap).unwrap();
        let cont = block(400, 77);
        assert_eq!(donor.access_batch(&cont), resumed.access_batch(&cont));
        assert_eq!(donor.snapshot(), resumed.snapshot());

        let err = ShardedEngine::new(3, 2, shard_factory)
            .restore(&snap)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
    }
}
