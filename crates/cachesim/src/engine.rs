//! The trace-driven simulation engine composing a cache array, a
//! futility ranking and a partitioning scheme into one partitioned
//! shared cache.
//!
//! The engine is generic: [`EngineCore<A, R, S>`] is monomorphized over
//! its three components, so `fs_bench::engine_for` can build fully
//! inlined, devirtualized cores for the grid that `perfbench` and the
//! sharded engines drive. The boxed composition survives as the
//! [`PartitionedCache`] type alias — `EngineCore` over `Box<dyn …>`
//! components — which is what the figure experiments and most tests
//! build.
//!
//! Accesses enter either one at a time ([`EngineCore::access`]) or in
//! blocks ([`EngineCore::access_batch`]): the batched pipeline applies
//! runs of consecutive hits through one bulk
//! [`on_hit_batch`](crate::ranking_api::FutilityRanking::on_hit_batch)
//! ranking call, which treap-backed rankings deduplicate per line.
//! A miss on a candidate array has one replacement path: the ranking
//! fills every candidate's `f64` futility
//! ([`futility_batch`](crate::ranking_api::FutilityRanking::futility_batch))
//! and the scheme picks the victim from them
//! ([`victim_into`](crate::scheme_api::PartitionScheme::victim_into)).
//! The two entry points are bit-for-bit equivalent.

use crate::array::CacheArray;
use crate::ids::{AccessMeta, PartitionId, SlotId};
use crate::ranking_api::{FutilityRanking, HitRecord};
use crate::recorder::{RecordCtx, TimeSeriesRecorder};
use crate::scheme_api::{Candidate, PartitionScheme, PartitionState, VictimDecision};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::CacheStats;

/// A line evicted during an access, reported back to the driver.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Eviction {
    /// Evicted line address.
    pub addr: u64,
    /// Pool the line belonged to at eviction time.
    pub part: PartitionId,
    /// True (exact-rank) futility of the line at eviction time.
    pub futility: f64,
}

/// Result of one cache access.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line missed and was installed, evicting `evicted` (or nothing
    /// while the cache still had free space).
    Miss {
        /// The victim, if an eviction was necessary.
        evicted: Option<Eviction>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// The eviction triggered by this access, if any.
    pub fn eviction(&self) -> Option<Eviction> {
        match self {
            AccessOutcome::Miss { evicted } => *evicted,
            AccessOutcome::Hit => None,
        }
    }
}

/// A struct-of-arrays block of accesses, the unit the batched drivers
/// hand to [`EngineCore::access_batch`]. Reuse one block across flushes
/// ([`clear`](Self::clear) keeps the capacity) to keep the driver loop
/// allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AccessBlock {
    parts: Vec<PartitionId>,
    addrs: Vec<u64>,
    metas: Vec<AccessMeta>,
}

impl AccessBlock {
    /// An empty block.
    pub fn new() -> Self {
        AccessBlock::default()
    }

    /// An empty block with room for `cap` accesses per flush.
    pub fn with_capacity(cap: usize) -> Self {
        AccessBlock {
            parts: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            metas: Vec::with_capacity(cap),
        }
    }

    /// Append one access.
    #[inline]
    pub fn push(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) {
        self.parts.push(part);
        self.addrs.push(addr);
        self.metas.push(meta);
    }

    /// Number of queued accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Drop the queued accesses, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.parts.clear();
        self.addrs.clear();
        self.metas.clear();
    }

    /// The partition of each queued access.
    pub fn parts(&self) -> &[PartitionId] {
        &self.parts
    }

    /// The line address of each queued access.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The metadata of each queued access.
    pub fn metas(&self) -> &[AccessMeta] {
        &self.metas
    }
}

/// A partitioned shared cache: array + futility ranking + scheme,
/// monomorphized over the three component types.
///
/// Most callers want the boxed composition [`PartitionedCache`]; the
/// generic form exists so hot component combinations can be compiled
/// into dedicated, fully inlined cores (built e.g. by
/// `fs_bench::engine_for`) that the [`Engine`] trait then dispatches to
/// with one virtual call per *batch* instead of several per access.
///
/// # Example
///
/// Feed accesses in blocks through the batched pipeline (the
/// recommended driver entry point — bit-for-bit identical to per-access
/// [`access`](Self::access), but software-pipelined):
///
/// ```
/// use cachesim::{AccessBlock, PartitionedCache, PartitionId, AccessMeta};
/// use cachesim::array::RandomCandidates;
///
/// let array = RandomCandidates::new(256, 16, 42);
/// let mut cache = PartitionedCache::new(
///     Box::new(array),
///     cachesim::naive_lru(),
///     cachesim::evict_max_futility(),
///     2,
/// );
/// cache.set_targets(&[128, 128]);
/// let mut block = AccessBlock::with_capacity(512);
/// for addr in 0..512u64 {
///     block.push(PartitionId((addr % 2) as u16), addr, AccessMeta::default());
/// }
/// let hits = cache.access_batch(&block);
/// assert_eq!(hits, 0);
/// assert_eq!(cache.stats().total_misses(), 512);
/// ```
pub struct EngineCore<A, R, S> {
    array: A,
    ranking: R,
    scheme: S,
    state: PartitionState,
    stats: CacheStats,
    time: u64,
    partitions: usize,
    cands: Vec<Candidate>,
    decision: VictimDecision,
    /// Deferred consecutive-hit run of the batched pipeline, flushed
    /// into one `on_hit_batch` ranking call at run boundaries.
    hit_run: Vec<HitRecord>,
    /// Optional flight recorder, ticked after every access. `None` (the
    /// default) costs one branch per access and zero allocations.
    recorder: Option<Box<TimeSeriesRecorder>>,
}

/// The classic boxed composition: an [`EngineCore`] whose components
/// are trait objects. All pre-batching code built against
/// `PartitionedCache` keeps compiling unchanged; it now doubles as the
/// compatibility wrapper around the generic core.
pub type PartitionedCache =
    EngineCore<Box<dyn CacheArray>, Box<dyn FutilityRanking>, Box<dyn PartitionScheme>>;

impl<A: CacheArray, R: FutilityRanking, S: PartitionScheme> EngineCore<A, R, S> {
    /// Compose a cache with `partitions` application partitions. Targets
    /// default to an equal share of the array; adjust with
    /// [`set_targets`](Self::set_targets).
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn new(array: A, mut ranking: R, mut scheme: S, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let pools = partitions + scheme.extra_pools();
        ranking.reset(pools);
        let total = array.num_slots();
        let mut state = PartitionState::new(pools, total);
        let share = total / partitions;
        for t in state.targets.iter_mut().take(partitions) {
            *t = share;
        }
        scheme.configure(&state);
        let mut stats = CacheStats::new(pools);
        // Only application partitions take deviation samples (scheme
        // pools have no meaningful targets); seed the incremental
        // accounting with the starting occupancy of zero.
        stats.sampled_parts = partitions;
        for (i, &t) in state.targets.iter().enumerate().take(partitions) {
            stats.update_occupancy(i, 0, t);
        }
        EngineCore {
            stats,
            array,
            ranking,
            scheme,
            state,
            time: 0,
            partitions,
            cands: Vec::with_capacity(64),
            decision: VictimDecision::default(),
            hit_run: Vec::new(),
            recorder: None,
        }
    }

    /// Set per-partition targets (lines). Slices shorter than the
    /// partition count leave the remaining targets unchanged.
    ///
    /// # Panics
    /// Panics if `targets` is longer than the partition count.
    pub fn set_targets(&mut self, targets: &[usize]) {
        assert!(targets.len() <= self.partitions);
        self.state.targets[..targets.len()].copy_from_slice(targets);
        for i in 0..targets.len() {
            self.stats
                .update_occupancy(i, self.state.actual[i], self.state.targets[i]);
        }
        self.scheme.configure(&self.state);
    }

    /// Number of application partitions (excluding scheme pools).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Simulation statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (e.g. to `reset()` after warmup or to disable
    /// deviation sampling for throughput runs).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Current sizing state (targets, actual sizes, counters).
    pub fn state(&self) -> &PartitionState {
        &self.state
    }

    /// The futility ranking (for inspection).
    pub fn ranking(&self) -> &dyn FutilityRanking {
        &self.ranking
    }

    /// The scheme (for inspection).
    pub fn scheme(&self) -> &dyn PartitionScheme {
        &self.scheme
    }

    /// The array (for inspection).
    pub fn array(&self) -> &dyn CacheArray {
        &self.array
    }

    /// Engine time: number of accesses processed so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Attach a [`TimeSeriesRecorder`] sampling every `cadence` accesses
    /// into a ring of at most `capacity` samples, ticked after every
    /// access; replaces (and drops) any previously attached recorder.
    pub fn attach_timeseries(&mut self, cadence: u64, capacity: usize) {
        self.recorder = Some(Box::new(TimeSeriesRecorder::new(cadence, capacity)));
    }

    /// The attached [`TimeSeriesRecorder`], if any.
    pub fn timeseries(&self) -> Option<&TimeSeriesRecorder> {
        self.recorder.as_deref()
    }

    /// Mutable access to the attached [`TimeSeriesRecorder`], if any
    /// (e.g. to clear its retained samples).
    pub fn timeseries_mut(&mut self) -> Option<&mut TimeSeriesRecorder> {
        self.recorder.as_deref_mut()
    }

    /// Process one access from `part` to line `addr`.
    pub fn access(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
        let outcome = self.access_inner(part, addr, meta);
        if self.recorder.is_some() {
            self.record_tick();
        }
        outcome
    }

    /// Process a block of accesses through the software-pipelined batch
    /// path, returning the number of hits. Observably identical to
    /// calling [`access`](Self::access) per element — same outcomes,
    /// statistics, component state and recorder samples — but runs of
    /// consecutive hits are applied through one bulk ranking call that
    /// treap-backed rankings collapse to one update per distinct line.
    pub fn access_batch(&mut self, block: &AccessBlock) -> u64 {
        self.batch_impl::<false>(block, &mut Vec::new())
    }

    /// [`access_batch`](Self::access_batch), additionally appending
    /// every access's [`AccessOutcome`] to `outcomes` (in access order).
    pub fn access_batch_into(
        &mut self,
        block: &AccessBlock,
        outcomes: &mut Vec<AccessOutcome>,
    ) -> u64 {
        self.batch_impl::<true>(block, outcomes)
    }

    fn batch_impl<const RECORD: bool>(
        &mut self,
        block: &AccessBlock,
        outcomes: &mut Vec<AccessOutcome>,
    ) -> u64 {
        let (parts, addrs, metas) = (&block.parts[..], &block.addrs[..], &block.metas[..]);
        let n = addrs.len();
        if RECORD {
            outcomes.reserve(n);
        }
        // A recorder observes the engine after every access, so the
        // batch must not defer anything; fall back to the scalar path.
        if self.recorder.is_some() {
            let mut hits = 0u64;
            for i in 0..n {
                let out = self.access(parts[i], addrs[i], metas[i]);
                hits += u64::from(out.is_hit());
                if RECORD {
                    outcomes.push(out);
                }
            }
            return hits;
        }
        let mut hits = 0u64;
        // Rankings that ignore hits (stable random ranks) skip the
        // record collection entirely; the deferred-run machinery then
        // costs nothing on the hit path. Checked once per batch.
        let collect_hits = self.ranking.wants_hit_records();
        for i in 0..n {
            let (part, addr, meta) = (parts[i], addrs[i], metas[i]);
            debug_assert!(part.index() < self.partitions, "foreign pool access");
            self.time += 1;
            match self.array.lookup_occupant(addr) {
                Some((slot, occ)) if occ.part == part => {
                    // Simple hit: queue the ranking update; the stats
                    // and scheme notification commute with it (neither
                    // reads ranking state), so they apply immediately.
                    if collect_hits {
                        self.hit_run.push(HitRecord {
                            part,
                            addr,
                            slot,
                            time: self.time,
                            meta,
                        });
                    }
                    self.scheme.notify_hit(part);
                    self.stats.record_hit(part);
                    hits += 1;
                    if RECORD {
                        outcomes.push(AccessOutcome::Hit);
                    }
                }
                Some((slot, occ)) => {
                    // Foreign hit: the scheme may retag, which touches
                    // ranking and array state — flush the deferred run
                    // first, then take the exact scalar path.
                    self.flush_hit_run();
                    let mut pool = occ.part;
                    if let Some(dest) = self.scheme.on_foreign_hit(pool, part) {
                        self.apply_retag(slot, pool, dest, addr);
                        pool = dest;
                    }
                    self.ranking.on_hit(pool, addr, self.time, meta);
                    self.scheme.notify_hit(pool);
                    self.stats.record_hit(part);
                    hits += 1;
                    if RECORD {
                        outcomes.push(AccessOutcome::Hit);
                    }
                }
                None => {
                    // Replacement decisions read ranking state: the
                    // deferred hits must land first.
                    self.flush_hit_run();
                    let out = self.miss_path(part, addr, meta);
                    if RECORD {
                        outcomes.push(out);
                    }
                }
            }
        }
        self.flush_hit_run();
        hits
    }

    /// Apply the deferred hit run. Long runs go through one bulk
    /// ranking call (which treap-backed rankings deduplicate per
    /// line); short runs replay through scalar `on_hit` — on
    /// miss-heavy traces nearly every run has a single record, and
    /// the bulk call's dedup scratch costs more than it saves there.
    /// The two paths are observably identical by the `on_hit_batch`
    /// contract.
    #[inline]
    fn flush_hit_run(&mut self) {
        const BULK_THRESHOLD: usize = 4;
        if self.hit_run.is_empty() {
            return;
        }
        if self.hit_run.len() < BULK_THRESHOLD {
            for h in &self.hit_run {
                self.ranking.on_hit(h.part, h.addr, h.time, h.meta);
            }
        } else {
            self.ranking.on_hit_batch(&self.hit_run);
        }
        self.hit_run.clear();
    }

    /// The recorder tick, split out so the no-recorder hot path stays
    /// small.
    fn record_tick(&mut self) {
        let recorder = self.recorder.as_mut().expect("caller checked");
        recorder.record(&RecordCtx {
            time: self.time,
            partitions: self.partitions,
            state: &self.state,
            stats: &self.stats,
            scheme: &self.scheme,
        });
    }

    #[inline]
    fn access_inner(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
        debug_assert!(part.index() < self.partitions, "foreign pool access");
        self.time += 1;
        if let Some((slot, occ)) = self.array.lookup_occupant(addr) {
            let mut pool = occ.part;
            if pool != part {
                if let Some(dest) = self.scheme.on_foreign_hit(pool, part) {
                    self.apply_retag(slot, pool, dest, addr);
                    pool = dest;
                }
            }
            self.ranking.on_hit(pool, addr, self.time, meta);
            self.scheme.notify_hit(pool);
            self.stats.record_hit(part);
            return AccessOutcome::Hit;
        }
        self.miss_path(part, addr, meta)
    }

    /// The replacement path shared by the scalar and batched pipelines:
    /// record the miss, pick (and evict) a victim, install the line.
    fn miss_path(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
        self.stats.record_miss(part);
        let dest_pool = self.scheme.insertion_pool(part);

        if self.array.is_fully_associative() {
            return self.miss_fully_associative(part, dest_pool, addr, meta);
        }

        // One pass over the candidate walk: an empty slot short-circuits
        // (no eviction necessary), otherwise the occupants come back as
        // ready-made candidates.
        self.cands.clear();
        if let Some(free) = self.array.fill_candidates(addr, &mut self.cands) {
            self.install(free, dest_pool, addr, meta);
            return AccessOutcome::Miss { evicted: None };
        }
        debug_assert!(!self.cands.is_empty(), "array returned no candidates");

        self.ranking.futility_batch(&mut self.cands);

        // The decision buffer lives on the cache so Vantage's retag list
        // reuses its allocation; taken out for the duration of the retag
        // loop to keep the borrows disjoint.
        let mut decision = std::mem::take(&mut self.decision);
        self.scheme
            .victim_into(part, &self.cands, &self.state, &mut decision);
        debug_assert!(decision.victim < self.cands.len());

        for &(idx, to) in &decision.retags {
            let c = self.cands[idx];
            if c.part != to {
                self.apply_retag(c.slot, c.part, to, c.addr);
                self.cands[idx].part = to;
            }
        }

        let victim = self.cands[decision.victim];
        // An exact ranking's candidate futility *is* the true futility,
        // so it can be reused for eviction stats unless a retag just
        // invalidated it.
        let futility = if decision.retags.is_empty() && self.ranking.futility_is_exact() {
            victim.futility
        } else {
            self.ranking.true_futility(victim.part, victim.addr)
        };
        self.evict(victim.slot, victim.part, victim.addr, futility);
        self.install(victim.slot, dest_pool, addr, meta);
        self.decision = decision;
        AccessOutcome::Miss {
            evicted: Some(Eviction {
                addr: victim.addr,
                part: victim.part,
                futility,
            }),
        }
    }

    fn miss_fully_associative(
        &mut self,
        part: PartitionId,
        dest_pool: PartitionId,
        addr: u64,
        meta: AccessMeta,
    ) -> AccessOutcome {
        self.cands.clear();
        if let Some(free) = self.array.fill_candidates(addr, &mut self.cands) {
            self.install(free, dest_pool, addr, meta);
            return AccessOutcome::Miss { evicted: None };
        }
        let victim_pool = self.scheme.victim_partition_fully_assoc(part, &self.state);
        let victim_addr = self.ranking.max_futility_line(victim_pool).expect(
            "fully-associative eviction from empty pool: ranking must support max_futility_line",
        );
        let slot = self
            .array
            .lookup(victim_addr)
            .expect("ranking/array out of sync");
        // The pool's most futile line ranks last: its exact futility is
        // 1.0 by definition, so there is nothing to look up.
        self.evict(slot, victim_pool, victim_addr, 1.0);
        self.install(slot, dest_pool, addr, meta);
        AccessOutcome::Miss {
            evicted: Some(Eviction {
                addr: victim_addr,
                part: victim_pool,
                futility: 1.0,
            }),
        }
    }

    /// Fold the occupancy change of `pool` into the incremental
    /// deviation accounting (only application partitions are sampled).
    #[inline]
    fn occupancy_changed(&mut self, pool: PartitionId) {
        let idx = pool.index();
        if idx < self.partitions {
            self.stats
                .update_occupancy(idx, self.state.actual[idx], self.state.targets[idx]);
        }
    }

    fn apply_retag(&mut self, slot: SlotId, from: PartitionId, to: PartitionId, addr: u64) {
        debug_assert_eq!(
            self.array.occupant(slot).map(|o| (o.addr, o.part)),
            Some((addr, from)),
            "retag occupant mismatch"
        );
        // A retag out of an application partition into a scheme pool is
        // the moment the line stops serving its partition: record its
        // futility as an (associativity-relevant) departure, exactly as
        // an eviction would be recorded.
        if from.index() < self.partitions && to.index() >= self.partitions {
            let f = self.ranking.true_futility(from, addr);
            self.stats.record_eviction(from, f);
        }
        self.array.retag(slot, to);
        self.ranking.on_retag(from, to, addr);
        self.state.actual[from.index()] -= 1;
        self.state.actual[to.index()] += 1;
        self.occupancy_changed(from);
        self.occupancy_changed(to);
    }

    fn evict(&mut self, slot: SlotId, pool: PartitionId, addr: u64, futility: f64) {
        // Departures of application-partition lines are recorded here;
        // scheme-pool departures were already recorded at demotion time.
        if pool.index() < self.partitions {
            self.stats.record_eviction(pool, futility);
        }
        self.ranking.on_evict(pool, addr);
        self.array.evict(slot);
        self.state.actual[pool.index()] -= 1;
        self.state.evictions[pool.index()] += 1;
        self.occupancy_changed(pool);
        self.scheme.notify_evict(pool, &self.state);
        self.stats
            .sample_deviation_tick(&self.state.actual[..self.partitions], &self.state.targets);
    }

    fn install(&mut self, slot: SlotId, pool: PartitionId, addr: u64, meta: AccessMeta) {
        self.array.install(slot, addr, pool);
        self.ranking.on_insert(pool, addr, self.time, meta);
        self.state.actual[pool.index()] += 1;
        self.state.insertions[pool.index()] += 1;
        self.occupancy_changed(pool);
        self.scheme.notify_insert(pool, &self.state);
    }

    /// Serialize the full engine state — time, sizing state, stats and
    /// every component (array, ranking, scheme, recorder) — into the
    /// versioned, checksummed snapshot format. A snapshot taken between
    /// accesses captures everything the simulation depends on: an engine
    /// built with the same composition that [`restore`](Self::restore)s
    /// it replays the remaining trace bit-for-bit.
    ///
    /// Must be called between accesses (never mid-batch); the deferred
    /// hit run is always flushed at batch boundaries, so this holds for
    /// every caller outside the engine itself.
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(self.hit_run.is_empty(), "snapshot taken mid-batch");
        let mut w = SnapshotWriter::new();
        w.begin("engine");
        w.u64(self.time);
        w.usize(self.partitions);
        w.usize(self.state.targets.len());
        w.usize(self.state.total_slots);
        w.end();
        w.begin("sizing");
        for &t in &self.state.targets {
            w.usize(t);
        }
        for &a in &self.state.actual {
            w.usize(a);
        }
        for &i in &self.state.insertions {
            w.u64(i);
        }
        for &e in &self.state.evictions {
            w.u64(e);
        }
        w.end();
        self.stats.save_state(&mut w);
        w.begin("array");
        w.str(self.array.name());
        w.usize(self.array.num_slots());
        w.end();
        self.array.save_state(&mut w);
        w.begin("ranking");
        w.str(self.ranking.name());
        w.end();
        self.ranking.save_state(&mut w);
        w.begin("scheme");
        w.str(self.scheme.name());
        w.end();
        self.scheme.save_state(&mut w);
        w.begin("recorder");
        w.bool(self.recorder.is_some());
        w.end();
        if let Some(rec) = &self.recorder {
            rec.save_state(&mut w);
        }
        w.finish()
    }

    /// Restore a [`snapshot`](Self::snapshot) into this engine. The
    /// engine must have been built with the same composition — same
    /// component names and geometry, same partition count, and a
    /// recorder attached iff one was attached at snapshot time —
    /// otherwise the restore fails with [`SnapshotError::Mismatch`].
    ///
    /// # Errors
    /// Fails (without panicking) on truncated, corrupted or
    /// incompatible input. On error the engine state is unspecified;
    /// discard the engine rather than continuing to use it.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.begin("engine")?;
        let time = r.u64()?;
        let partitions = r.usize()?;
        if partitions != self.partitions {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {} partitions, engine has {}",
                partitions, self.partitions
            )));
        }
        let pools = r.usize()?;
        if pools != self.state.targets.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {} pools, engine has {}",
                pools,
                self.state.targets.len()
            )));
        }
        let total_slots = r.usize()?;
        if total_slots != self.state.total_slots {
            return Err(SnapshotError::mismatch(format!(
                "snapshot cache has {} slots, engine has {}",
                total_slots, self.state.total_slots
            )));
        }
        r.end()?;
        r.begin("sizing")?;
        let mut targets = Vec::with_capacity(pools);
        let mut actual = Vec::with_capacity(pools);
        let mut insertions = Vec::with_capacity(pools);
        let mut evictions = Vec::with_capacity(pools);
        for _ in 0..pools {
            targets.push(r.usize()?);
        }
        for _ in 0..pools {
            actual.push(r.usize()?);
        }
        for _ in 0..pools {
            insertions.push(r.u64()?);
        }
        for _ in 0..pools {
            evictions.push(r.u64()?);
        }
        r.end()?;
        self.stats.load_state(&mut r)?;
        r.begin("array")?;
        let array_name = r.str()?;
        if array_name != self.array.name() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot array is {:?}, engine array is {:?}",
                array_name,
                self.array.name()
            )));
        }
        let num_slots = r.usize()?;
        if num_slots != self.array.num_slots() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot array has {} slots, engine array has {}",
                num_slots,
                self.array.num_slots()
            )));
        }
        r.end()?;
        self.array.load_state(&mut r)?;
        r.begin("ranking")?;
        let ranking_name = r.str()?;
        if ranking_name != self.ranking.name() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot ranking is {:?}, engine ranking is {:?}",
                ranking_name,
                self.ranking.name()
            )));
        }
        r.end()?;
        self.ranking.load_state(&mut r)?;
        r.begin("scheme")?;
        let scheme_name = r.str()?;
        if scheme_name != self.scheme.name() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot scheme is {:?}, engine scheme is {:?}",
                scheme_name,
                self.scheme.name()
            )));
        }
        r.end()?;
        self.scheme.load_state(&mut r)?;
        r.begin("recorder")?;
        let has_recorder = r.bool()?;
        r.end()?;
        match (&mut self.recorder, has_recorder) {
            (Some(rec), true) => rec.load_state(&mut r)?,
            (None, false) => {}
            (Some(_), false) => {
                return Err(SnapshotError::mismatch(
                    "engine has a recorder attached but the snapshot has none",
                ));
            }
            (None, true) => {
                return Err(SnapshotError::mismatch(
                    "snapshot has a recorder but the engine has none attached",
                ));
            }
        }
        r.finish()?;
        self.time = time;
        self.state.targets = targets;
        self.state.actual = actual;
        self.state.insertions = insertions;
        self.state.evictions = evictions;
        // Per-access scratch never carries state across accesses; clear
        // it so a restore into a mid-lifetime engine leaves nothing
        // stale behind.
        self.cands.clear();
        self.hit_run.clear();
        self.decision = VictimDecision::default();
        Ok(())
    }
}

/// Object-safe engine interface: what drivers and benches need, one
/// virtual call per operation (and per *batch*, not per access, on the
/// batched path). `fs_bench::engine_for` returns monomorphized
/// [`EngineCore`]s behind this trait for the hot grid combinations and
/// falls back to the boxed [`PartitionedCache`] otherwise.
pub trait Engine: Send {
    /// Process one access (see [`EngineCore::access`]).
    fn access(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome;
    /// Process a block of accesses, returning the hit count (see
    /// [`EngineCore::access_batch`]).
    fn access_batch(&mut self, block: &AccessBlock) -> u64;
    /// Batched processing that also reports per-access outcomes (see
    /// [`EngineCore::access_batch_into`]).
    fn access_batch_into(&mut self, block: &AccessBlock, outcomes: &mut Vec<AccessOutcome>) -> u64;
    /// Set per-partition targets (see [`EngineCore::set_targets`]).
    fn set_targets(&mut self, targets: &[usize]);
    /// Number of application partitions.
    fn partitions(&self) -> usize;
    /// Simulation statistics.
    fn stats(&self) -> &CacheStats;
    /// Mutable statistics.
    fn stats_mut(&mut self) -> &mut CacheStats;
    /// Current sizing state.
    fn state(&self) -> &PartitionState;
    /// Engine time.
    fn time(&self) -> u64;
    /// The array (for inspection).
    fn array(&self) -> &dyn CacheArray;
    /// The ranking (for inspection).
    fn ranking(&self) -> &dyn FutilityRanking;
    /// The scheme (for inspection).
    fn scheme(&self) -> &dyn PartitionScheme;
    /// Serialize the full engine state (see [`EngineCore::snapshot`]).
    fn snapshot(&self) -> Vec<u8>;
    /// Restore a snapshot taken from the same composition (see
    /// [`EngineCore::restore`]).
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
    /// Attach a [`TimeSeriesRecorder`] (see
    /// [`EngineCore::attach_timeseries`]).
    fn attach_timeseries(&mut self, cadence: u64, capacity: usize);
    /// The attached [`TimeSeriesRecorder`], if any.
    fn timeseries(&self) -> Option<&TimeSeriesRecorder>;
    /// Mutable access to the attached [`TimeSeriesRecorder`], if any
    /// (e.g. to clear its retained samples).
    fn timeseries_mut(&mut self) -> Option<&mut TimeSeriesRecorder>;
}

impl<A: CacheArray, R: FutilityRanking, S: PartitionScheme> Engine for EngineCore<A, R, S> {
    fn access(&mut self, part: PartitionId, addr: u64, meta: AccessMeta) -> AccessOutcome {
        EngineCore::access(self, part, addr, meta)
    }
    fn access_batch(&mut self, block: &AccessBlock) -> u64 {
        EngineCore::access_batch(self, block)
    }
    fn access_batch_into(&mut self, block: &AccessBlock, outcomes: &mut Vec<AccessOutcome>) -> u64 {
        EngineCore::access_batch_into(self, block, outcomes)
    }
    fn set_targets(&mut self, targets: &[usize]) {
        EngineCore::set_targets(self, targets)
    }
    fn partitions(&self) -> usize {
        EngineCore::partitions(self)
    }
    fn stats(&self) -> &CacheStats {
        EngineCore::stats(self)
    }
    fn stats_mut(&mut self) -> &mut CacheStats {
        EngineCore::stats_mut(self)
    }
    fn state(&self) -> &PartitionState {
        EngineCore::state(self)
    }
    fn time(&self) -> u64 {
        EngineCore::time(self)
    }
    fn array(&self) -> &dyn CacheArray {
        EngineCore::array(self)
    }
    fn ranking(&self) -> &dyn FutilityRanking {
        EngineCore::ranking(self)
    }
    fn scheme(&self) -> &dyn PartitionScheme {
        EngineCore::scheme(self)
    }
    fn snapshot(&self) -> Vec<u8> {
        EngineCore::snapshot(self)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        EngineCore::restore(self, bytes)
    }
    fn attach_timeseries(&mut self, cadence: u64, capacity: usize) {
        EngineCore::attach_timeseries(self, cadence, capacity)
    }
    fn timeseries(&self) -> Option<&TimeSeriesRecorder> {
        EngineCore::timeseries(self)
    }
    fn timeseries_mut(&mut self) -> Option<&mut TimeSeriesRecorder> {
        EngineCore::timeseries_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{FullyAssociative, RandomCandidates, SetAssociative};
    use crate::hashing::LineHash;

    fn small_cache(partitions: usize) -> PartitionedCache {
        PartitionedCache::new(
            Box::new(RandomCandidates::new(64, 8, 1)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            partitions,
        )
    }

    #[test]
    fn second_access_hits() {
        let mut c = small_cache(1);
        let p = PartitionId(0);
        assert!(!c.access(p, 42, AccessMeta::default()).is_hit());
        assert!(c.access(p, 42, AccessMeta::default()).is_hit());
        assert_eq!(c.stats().partition(p).hits, 1);
        assert_eq!(c.stats().partition(p).misses, 1);
    }

    #[test]
    fn no_eviction_until_full() {
        let mut c = small_cache(1);
        let p = PartitionId(0);
        for addr in 0..64u64 {
            let out = c.access(p, addr, AccessMeta::default());
            assert_eq!(out, AccessOutcome::Miss { evicted: None });
        }
        let out = c.access(p, 1000, AccessMeta::default());
        assert!(out.eviction().is_some(), "full cache must evict");
        assert_eq!(c.array().occupied(), 64);
    }

    #[test]
    fn actual_sizes_track_occupancy() {
        let mut c = small_cache(2);
        for addr in 0..32u64 {
            c.access(PartitionId(0), addr, AccessMeta::default());
        }
        for addr in 100..116u64 {
            c.access(PartitionId(1), addr, AccessMeta::default());
        }
        assert_eq!(c.state().actual[0], 32);
        assert_eq!(c.state().actual[1], 16);
        assert_eq!(c.state().actual.iter().sum::<usize>(), c.array().occupied());
    }

    #[test]
    fn unpartitioned_lru_evicts_oldest_uniform_candidates() {
        // With max-futility eviction on a full candidate list of the
        // whole cache (R == slots), the engine behaves as exact LRU.
        let mut c = PartitionedCache::new(
            Box::new(RandomCandidates::new(4, 4, 2)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            1,
        );
        let p = PartitionId(0);
        for addr in 0..4u64 {
            c.access(p, addr, AccessMeta::default());
        }
        let out = c.access(p, 99, AccessMeta::default());
        assert_eq!(out.eviction().unwrap().addr, 0, "oldest line evicted");
        assert!((out.eviction().unwrap().futility - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_associative_path_evicts_most_futile() {
        let mut c = PartitionedCache::new(
            Box::new(FullyAssociative::new(4)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            1,
        );
        let p = PartitionId(0);
        for addr in 0..4u64 {
            c.access(p, addr, AccessMeta::default());
        }
        // Touch line 0 so line 1 becomes oldest.
        c.access(p, 0, AccessMeta::default());
        let out = c.access(p, 50, AccessMeta::default());
        assert_eq!(out.eviction().unwrap().addr, 1);
    }

    #[test]
    fn set_associative_composition_smoke() {
        let mut c = PartitionedCache::new(
            Box::new(SetAssociative::new(8, 4, LineHash::new(1))),
            crate::naive_lru(),
            crate::evict_max_futility(),
            2,
        );
        for i in 0..1000u64 {
            let p = PartitionId((i % 2) as u16);
            // Working set of 20 lines fits in the 32-line cache, so the
            // steady state must produce hits.
            c.access(p, i % 20, AccessMeta::default());
        }
        assert_eq!(c.array().occupied(), 20);
        assert!(c.stats().total_hits() > 0);
    }

    #[test]
    fn set_targets_validates_and_applies() {
        let mut c = small_cache(2);
        c.set_targets(&[48, 16]);
        assert_eq!(c.state().targets[0], 48);
        assert_eq!(c.state().targets[1], 16);
    }

    #[test]
    fn attached_timeseries_tracks_live_occupancy() {
        let mut c = small_cache(2);
        c.attach_timeseries(16, 4096);
        for i in 0..400u64 {
            c.access(PartitionId((i % 2) as u16), i, AccessMeta::default());
        }
        let ts = c.timeseries().expect("recorder attached");
        assert!(!ts.is_empty());
        // The newest occupancy samples must match the live state.
        for part in [PartitionId(0), PartitionId(1)] {
            let last = ts
                .samples()
                .rfind(|s| s.series == "occupancy" && s.part == Some(part))
                .unwrap();
            // The last tick was at time 400 (a multiple of 16 would be
            // 400? 400/16 = 25, yes) — occupancy then equals now since
            // no accesses followed.
            assert_eq!(last.time, 400);
            assert_eq!(last.value, c.state().actual[part.index()] as f64);
        }
    }

    #[test]
    fn eviction_futility_recorded_in_stats() {
        let mut c = small_cache(1);
        let p = PartitionId(0);
        for addr in 0..200u64 {
            c.access(p, addr, AccessMeta::default());
        }
        let stats = c.stats().partition(p);
        assert_eq!(stats.evictions, 200 - 64);
        assert!(stats.aef() > 0.5, "LRU + R=8 should beat random eviction");
    }

    #[test]
    fn batch_matches_scalar_on_mixed_traffic() {
        // A quick inline spot check; the full cross-product equivalence
        // property lives in tests/batch_equivalence.rs.
        let mut scalar = small_cache(2);
        let mut batched = small_cache(2);
        let mut block = AccessBlock::with_capacity(256);
        let mut x = 7u64;
        for _ in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            block.push(
                PartitionId((x % 2) as u16),
                (x >> 32) % 96,
                AccessMeta::default(),
            );
        }
        let mut expect = Vec::new();
        for i in 0..block.len() {
            expect.push(scalar.access(block.parts()[i], block.addrs()[i], block.metas()[i]));
        }
        let mut got = Vec::new();
        let hits = batched.access_batch_into(&block, &mut got);
        assert_eq!(got, expect);
        assert_eq!(hits, expect.iter().filter(|o| o.is_hit()).count() as u64);
        assert_eq!(batched.stats().total_hits(), scalar.stats().total_hits());
        assert_eq!(batched.time(), scalar.time());
    }

    #[test]
    fn monomorphized_core_matches_boxed_compat_wrapper() {
        // The same composition through the generic core and through the
        // boxed alias must agree access for access.
        let mut mono = EngineCore::new(
            RandomCandidates::new(64, 8, 1),
            crate::ranking_api::NaiveLru::new(),
            crate::scheme_api::EvictMaxFutility,
            2,
        );
        let mut boxed = small_cache(2);
        let mut block = AccessBlock::new();
        for i in 0..500u64 {
            block.push(
                PartitionId((i % 2) as u16),
                (i * 37) % 90,
                AccessMeta::default(),
            );
        }
        let mono_hits = mono.access_batch(&block);
        let mut expect = Vec::new();
        boxed.access_batch_into(&block, &mut expect);
        assert_eq!(
            mono_hits,
            expect.iter().filter(|o| o.is_hit()).count() as u64
        );
        assert_eq!(mono.stats().total_misses(), boxed.stats().total_misses());
        assert_eq!(mono.state().actual, boxed.state().actual);
        // And through the object-safe dispatch trait.
        let mut dyn_eng: Box<dyn Engine> = Box::new(EngineCore::new(
            RandomCandidates::new(64, 8, 1),
            crate::ranking_api::NaiveLru::new(),
            crate::scheme_api::EvictMaxFutility,
            2,
        ));
        assert_eq!(dyn_eng.access_batch(&block), mono_hits);
        assert_eq!(dyn_eng.stats().total_hits(), mono.stats().total_hits());
    }

    fn drive(c: &mut PartitionedCache, seed: u64, n: u64) -> Vec<AccessOutcome> {
        let mut x = seed | 1;
        let mut out = Vec::new();
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            out.push(c.access(
                PartitionId((x % 2) as u16),
                (x >> 33) % 150,
                AccessMeta::default(),
            ));
        }
        out
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let mut original = small_cache(2);
        original.set_targets(&[40, 24]);
        original.attach_timeseries(16, 64);
        drive(&mut original, 11, 700);
        let snap = original.snapshot();

        let mut resumed = small_cache(2);
        resumed.attach_timeseries(16, 64);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.time(), original.time());
        assert_eq!(resumed.state().actual, original.state().actual);
        assert_eq!(resumed.state().targets, original.state().targets);

        // The continuation must match access for access, and the final
        // serialized states must be byte-identical.
        let a = drive(&mut original, 99, 500);
        let b = drive(&mut resumed, 99, 500);
        assert_eq!(a, b);
        assert_eq!(original.snapshot(), resumed.snapshot());
        let (ta, tb) = (
            original.timeseries().unwrap(),
            resumed.timeseries().unwrap(),
        );
        assert_eq!(ta.rows(), tb.rows());
    }

    #[test]
    fn restore_rejects_mismatched_composition() {
        let mut donor = small_cache(2);
        drive(&mut donor, 3, 100);
        let snap = donor.snapshot();

        // Wrong partition count.
        let err = small_cache(3).restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        // Wrong geometry.
        let mut wrong_geom = PartitionedCache::new(
            Box::new(RandomCandidates::new(128, 8, 1)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            2,
        );
        let err = wrong_geom.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        // Wrong array type.
        let mut wrong_array = PartitionedCache::new(
            Box::new(FullyAssociative::new(64)),
            crate::naive_lru(),
            crate::evict_max_futility(),
            2,
        );
        let err = wrong_array.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        // Recorder attached on the engine but absent from the snapshot.
        let mut with_rec = small_cache(2);
        with_rec.attach_timeseries(16, 64);
        let err = with_rec.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
    }
}
