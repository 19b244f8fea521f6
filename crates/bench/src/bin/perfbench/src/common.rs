//! Plumbing shared by the workloads: run settings, pre-generated
//! traffic, sample statistics, memory readings, checks and results.

use cachesim::prng::Prng;
use cachesim::{AccessBlock, AccessMeta, Engine, PartitionId, PartitionState, ShardedEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use workloads::MultiZipf;

/// Accesses per engine call: every workload drives the engine in
/// closed-loop batches of this size (smoke runs use smaller ones).
pub const BATCH: usize = 4096;

/// Worker threads of the sharded workloads: the two cores of the
/// machine the benchmark was sized on.
pub const JOBS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const REPS: usize = 3;

/// Construction seed of every engine. The workload seed reaches the
/// engine only through the traffic it generates.
pub const ENGINE_SEED: u64 = 7;

/// Settings of one workload run.
#[derive(Copy, Clone, Debug)]
pub struct Config {
    /// Workload seed: the same seed gives the same traffic.
    pub seed: u64,
    /// Length of the timed region, split across set-ups and cells.
    pub seconds: f64,
    /// Tiny geometry that drives every path in a fraction of a second.
    pub smoke: bool,
}

/// A traffic stream derived from the workload seed and a stream name.
pub fn rng(cfg: &Config, stream: &str, index: u64) -> Prng {
    let base = cachesim::prng::seed_for(stream, cfg.seed);
    Prng::seed_from_u64(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Pre-generated traffic, replayed in batches. Kept as two flat arrays
/// (10 bytes per access) instead of ready-made blocks with their unused
/// per-access metadata, which nearly halves the largest traces.
#[derive(Default)]
pub struct Traffic {
    parts: Vec<PartitionId>,
    addrs: Vec<u64>,
}

impl Traffic {
    pub fn with_capacity(n: usize) -> Self {
        Traffic {
            parts: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        }
    }

    /// `n` accesses drawn from `gen`.
    pub fn zipf(gen: &MultiZipf, n: usize, rng: &mut Prng) -> Self {
        let mut t = Traffic::with_capacity(n);
        for _ in 0..n {
            let (part, addr) = gen.sample(rng);
            t.push(part, addr);
        }
        t
    }

    pub fn push(&mut self, part: PartitionId, addr: u64) {
        self.parts.push(part);
        self.addrs.push(addr);
    }

    pub fn clear(&mut self) {
        self.parts.clear();
        self.addrs.clear();
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Start offsets of the batches of `batch` accesses.
    pub fn batches(&self, batch: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        (0..self.len()).step_by(batch)
    }

    /// Load the batch starting at `at` into `block`.
    pub fn load(&self, at: usize, batch: usize, block: &mut AccessBlock) {
        block.clear();
        let end = (at + batch).min(self.len());
        for i in at..end {
            block.push(self.parts[i], self.addrs[i], AccessMeta::default());
        }
    }
}

/// Feed `traffic` to a single engine in batches (set-up and reference
/// passes; nothing is timed per batch).
pub fn feed(eng: &mut dyn Engine, traffic: &Traffic, batch: usize, block: &mut AccessBlock) {
    for at in traffic.batches(batch) {
        traffic.load(at, batch, block);
        eng.access_batch(block);
    }
}

/// Feed `traffic` to a sharded engine, returning the seconds spent
/// inside the engine (block assembly excluded).
pub fn feed_sharded(eng: &mut ShardedEngine, traffic: &Traffic, block: &mut AccessBlock) -> f64 {
    let mut secs = 0.0;
    for at in traffic.batches(BATCH) {
        traffic.load(at, BATCH, block);
        let t = Instant::now();
        eng.access_batch(block);
        secs += t.elapsed().as_secs_f64();
    }
    secs
}

/// Reference time of one [`HostSpeed`] step at the host's nominal speed
/// (the median on the machine the benchmark was sized on).
const NOMINAL_STEP_NS: f64 = 26.0;

/// The host's current speed, from a reference kernel that belongs to
/// the benchmark, not the engine: a dependent walk around a random
/// cycle through 4 MiB, which lives in the shared last-level cache.
///
/// On a shared host the engine's speed swings by tens of percent, and at
/// times several-fold, as neighbours load the shared cache and memory.
/// The walk slows down with it, about one for one; walks that stay in
/// the core's private L2 do not. Reporting host times at nominal speed
/// (see [`HostClock`]) cuts the run-to-run spread by up to three times,
/// while a change to the engine still moves only the engine's times.
pub struct HostSpeed {
    next: Vec<u32>,
}

impl HostSpeed {
    const STEPS: usize = 1 << 16;

    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot.
        let mut next: Vec<u32> = (0..1u32 << 20).collect();
        let mut r = Prng::seed_from_u64(0x5EED);
        for i in (1..next.len()).rev() {
            let j = r.gen_range(0..i);
            next.swap(i, j);
        }
        HostSpeed { next }
    }

    fn walk(&self, steps: usize) {
        let mut i = 0u32;
        for _ in 0..steps {
            i = self.next[i as usize];
        }
        std::hint::black_box(i);
    }

    /// Nominal over current time of the walk: 1.0 at nominal speed,
    /// 0.8 when the host runs 20% slow.
    pub fn factor(&self) -> f64 {
        // One lap around the cycle first, so the timed steps find it in
        // the cache whatever the engine evicted. (Warming only the timed
        // steps leaves them in the core's private L2, and the walk then
        // stops tracking the engine.)
        self.walk(self.next.len());
        let t = Instant::now();
        self.walk(Self::STEPS);
        NOMINAL_STEP_NS * Self::STEPS as f64 / (t.elapsed().as_secs_f64() * 1e9)
    }
}

/// Seconds of engine time between host-speed measurements. Each costs
/// about 30 ms. The host's speed can change several-fold within a
/// second: measuring every 0.1 s rather than every 0.2 s cut the A/A
/// spread of `tenancy` by a third and left `sharded` unchanged.
const REMEASURE_S: f64 = 0.1;

/// Host times at nominal host speed. Every interval recorded (a batch
/// or a set-up) is scaled by the mean of the [`HostSpeed`] factors
/// measured just before and just after it, so the scaled times are read
/// once recording is done.
pub struct HostClock {
    speed: HostSpeed,
    /// Every factor measured, in order.
    factors: Vec<f64>,
    /// Every interval recorded: the index of the last factor measured
    /// before it, and its raw seconds.
    intervals: Vec<(usize, f64)>,
    since: f64,
    /// Raw seconds of every interval recorded.
    pub raw_s: f64,
}

impl HostClock {
    pub fn new() -> Self {
        let speed = HostSpeed::new();
        let first = speed.factor();
        HostClock {
            speed,
            factors: vec![first],
            intervals: Vec::new(),
            since: 0.0,
            raw_s: 0.0,
        }
    }

    /// Measure the host's speed now.
    pub fn remeasure(&mut self) {
        self.factors.push(self.speed.factor());
        self.since = 0.0;
    }

    /// Record an interval of `secs` raw seconds; returns its id for
    /// [`HostClock::scaled`]. Consecutive calls give consecutive ids.
    pub fn record(&mut self, secs: f64) -> usize {
        self.intervals.push((self.factors.len() - 1, secs));
        self.raw_s += secs;
        self.since += secs;
        if self.since >= REMEASURE_S {
            self.remeasure();
        }
        self.intervals.len() - 1
    }

    /// The id the next recorded interval will get.
    pub fn next_id(&self) -> usize {
        self.intervals.len()
    }

    /// Seconds of interval `id` at nominal host speed.
    pub fn scaled(&self, id: usize) -> f64 {
        let (before, secs) = self.intervals[id];
        let after = self
            .factors
            .get(before + 1)
            .unwrap_or(&self.factors[before]);
        secs * 0.5 * (self.factors[before] + after)
    }

    /// Nominal seconds of the consecutive intervals `ids`.
    pub fn scaled_sum(&self, ids: Range<usize>) -> f64 {
        ids.map(|id| self.scaled(id)).sum()
    }

    /// Median factor of the run: 1.0 = nominal speed.
    pub fn median_factor(&self) -> f64 {
        median(&self.factors)
    }
}

/// Size deviation from target, sampled at batch boundaries: the mean of
/// |actual − target| over application partitions and samples, in lines.
#[derive(Default)]
pub struct Mad {
    sum: f64,
    n: u64,
}

impl Mad {
    pub fn sample(&mut self, state: &PartitionState, partitions: usize) {
        for i in 0..partitions {
            self.sum += state.oversize(i).unsigned_abs() as f64;
        }
        self.n += partitions as u64;
    }

    pub fn sample_sharded(&mut self, eng: &ShardedEngine) {
        for s in 0..eng.num_shards() {
            self.sample(eng.shard(s).state(), eng.partitions());
        }
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }
}

/// What must agree between two runs of the same traffic: hit and miss
/// totals and the occupancy of every pool (of every shard).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub hits: u64,
    pub misses: u64,
    pub occupancy: Vec<usize>,
}

impl Fingerprint {
    pub fn of(eng: &dyn Engine) -> Self {
        Fingerprint {
            hits: eng.stats().total_hits(),
            misses: eng.stats().total_misses(),
            occupancy: eng.state().actual.clone(),
        }
    }

    pub fn of_sharded(eng: &ShardedEngine) -> Self {
        let mut fp = Fingerprint {
            hits: 0,
            misses: 0,
            occupancy: Vec::new(),
        };
        for s in 0..eng.num_shards() {
            let shard = Fingerprint::of(eng.shard(s));
            fp.hits += shard.hits;
            fp.misses += shard.misses;
            fp.occupancy.extend(shard.occupancy);
        }
        fp
    }

    pub fn miss_ratio(&self) -> f64 {
        self.misses as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Correctness checks of a run, counted against those attempted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of one workload run: the metrics of its mode, extra
/// numbers printed beside them, and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
    pub checks: Checks,
}

/// Timed region of the untraced workloads, shared by their end-to-end
/// metrics. Intervals are [`HostClock`] ids, read at nominal host speed.
#[derive(Default)]
pub struct Timing {
    /// Every timed engine call, grouped by cell (the sharded workloads
    /// have one group).
    pub batches: Vec<Vec<usize>>,
    /// Every set-up: the intervals it was timed in.
    pub setups: Vec<Range<usize>>,
    /// Memory of the first set-up's engines at the end of its timed
    /// region, in bytes: the live heap they hold (see [`heap_held`]),
    /// and the resident-set growth since before their construction.
    /// Later set-ups reuse memory the allocator kept, so only the first
    /// shows the resident set the engines take.
    pub heap: u64,
    pub rss: u64,
}

impl Timing {
    /// Record the memory of the first set-up's `engines`, dropping
    /// them; `rss_before` is the resident set before their construction.
    pub fn memory<T>(&mut self, rss_before: u64, engines: T) {
        self.rss = rss_bytes().saturating_sub(rss_before);
        self.heap = heap_held(engines);
    }

    /// `batch_us_p50`, `batch_us_p99`, `setup_s` and `engine_heap_mib`,
    /// plus the sample count, host speed and RSS growth printed beside
    /// them.
    ///
    /// The median is taken per group and combined by geomean, like the
    /// cells' rates. The tail is measured relative to each group's
    /// median and pooled over every batch of the run: a slow cell runs
    /// too few batches for a 99th percentile of its own, and the pooled
    /// one always has at least ten samples beyond it.
    pub fn metrics(&self, clock: &HostClock, out: &mut Outcome) {
        let mut medians = Vec::new();
        let mut relative = Vec::new();
        for group in &self.batches {
            let us: Vec<f64> = group.iter().map(|&id| clock.scaled(id) * 1e6).collect();
            let m = median(&us);
            medians.push(m);
            relative.extend(us.iter().map(|b| b / m));
        }
        relative.sort_by(f64::total_cmp);
        let p50 = geomean(&medians);
        let setups: Vec<f64> = self
            .setups
            .iter()
            .map(|ids| clock.scaled_sum(ids.clone()))
            .collect();
        out.metrics.push(metric("batch_us_p50", p50, "us"));
        out.metrics.push(metric(
            "batch_us_p99",
            p50 * percentile(&relative, 99.0),
            "us",
        ));
        out.metrics.push(metric("setup_s", median(&setups), "s"));
        out.metrics
            .push(metric("engine_heap_mib", self.heap as f64 / MIB, "MiB"));
        out.info
            .push(metric("batch_samples", relative.len() as f64, "count"));
        out.info
            .push(metric("host_speed", clock.median_factor(), "ratio"));
        out.info
            .push(metric("engine_rss_mib", self.rss as f64 / MIB, "MiB"));
    }
}

/// Drop `owner` and return the live heap that frees, in bytes: exactly
/// what it held, whatever the benchmark's own bookkeeping allocated
/// meanwhile.
pub fn heap_held<T>(owner: T) -> u64 {
    let live = heap_bytes();
    drop(owner);
    live.saturating_sub(heap_bytes())
}

/// Bytes currently allocated through the global allocator.
fn heap_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed) as u64
}

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes. The heap the engines
/// hold repeats to a few KiB for a seed, where the resident set depends on
/// which thread's arena served an allocation and on which freed pages
/// went back to the kernel. The engines' hot paths allocate nothing,
/// so the count costs the timed region nothing.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract for `alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract for `alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract for `dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract for `realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status (Linux only)");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb * 1024
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
