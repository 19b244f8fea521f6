//! The sharded workloads. `sharded` drives a million-line
//! `ShardedEngine` with per-partition Zipf traffic and checks its miss
//! ratio against the Che/Fagin oracle; `tenancy` runs the multi-tenant
//! closed loop of the `tenancy_storm` experiment, whose re-solved
//! targets move every epoch, so allocation writes sit beside cache
//! reads.

use crate::common::{
    feed_sharded, heap_held, median, metric, rng, rss_bytes, Checks, Config, Fingerprint,
    HostClock, Mad, Outcome, Timing, Traffic, BATCH, ENGINE_SEED, JOBS, REPS,
};
use crate::layers::{self, ShardedTotals, TenancyTotals, TraceTotals};
use crate::timed::{calibrate, now_ns, Ledger, Span, Timed};
use cachesim::array::SetAssociative;
use cachesim::hashing::LineHash;
use cachesim::prng::seed_for;
use cachesim::{AccessBlock, EngineCore, PartitionId, ShardedEngine};
use futility_core::{FeedbackConfig, FsFeedback};
use ranking::CoarseLru;
use std::ops::Range;
use std::time::Instant;
use tenancy::{QosBuilder, TenancyDriver, TenantSpec, UmonConfig, UtilityAllocator};
use workloads::{MultiZipf, PartitionPopulation};

/// Zipf exponent of every `sharded` partition population.
const ALPHA: f64 = 0.8;
/// `sharded` items per partition, as a multiple of its target.
const FOOTPRINT_X: usize = 4;
/// |measured − oracle| miss ratio allowed on `sharded`; the repository's
/// sharded sweep gates fs-feedback cells on the same tolerance.
pub const ORACLE_TOL: f64 = 0.035;
/// Timed `sharded` passes per set-up at the least, so a run times at
/// least nine passes however slow the host.
const MIN_PASSES: usize = 3;
/// Batches per kept span batch of the traced runs, which sample about
/// 0.45 spans per access over 4.2M (`sharded`) and 10.5M (`tenancy`)
/// accesses. Odd, so both the sequential and the parallel batches keep
/// spans.
const SHARDED_SPAN_STRIDE: u64 = 9;
const TENANCY_SPAN_STRIDE: u64 = 21;

/// The traced twin of `fs_bench::sharded_engine_for("fs-feedback", ..)`:
/// the same shard recipe (16-way set-associative array seeded per
/// shard, coarse LRU without the exact shadow, feedback FS), with each
/// component wrapped in [`Timed`].
pub fn traced_sharded(
    total_lines: usize,
    shards: usize,
    partitions: usize,
    seed: u64,
    ledger: &Ledger,
) -> ShardedEngine {
    let lines = total_lines / shards;
    ShardedEngine::new(shards, partitions, |i| {
        let shard_seed = seed_for("shard", seed ^ (i as u64) << 32);
        let stream = 3 * i as u64;
        Box::new(EngineCore::new(
            Timed::new(
                SetAssociative::with_lines(lines, 16, LineHash::new(shard_seed)),
                ledger,
                stream + 1,
            ),
            Timed::new(CoarseLru::without_exact_shadow(), ledger, stream + 2),
            Timed::new(
                FsFeedback::new(FeedbackConfig::default()),
                ledger,
                stream + 3,
            ),
            partitions,
        ))
    })
}

/// Sharded batches under trace. Every batch gets a duplicate `split`
/// call, timed (`sharded.split`). Even batches then run their
/// sub-blocks shard by shard on this thread, each call timed
/// (`sharded.shard_compute`); odd batches go through `access_batch` on
/// the worker pool, timed whole, and what that wall holds for the
/// workers beyond split and compute is `sharded.wait`. Both paths give
/// identical results: the engine's outputs never depend on its job
/// count.
pub struct ShardedTrace {
    ledger: Ledger,
    next: u64,
    subs: Vec<AccessBlock>,
    pub totals: ShardedTotals,
}

impl ShardedTrace {
    pub fn new(ledger: &Ledger) -> Self {
        ShardedTrace {
            ledger: ledger.clone(),
            next: 0,
            subs: Vec::new(),
            totals: ShardedTotals::default(),
        }
    }

    /// Keep a span belonging to the next batch.
    fn span(&self, name: &'static str, start: u64, end: u64) {
        self.ledger.span(Span {
            name,
            start,
            end,
            batch: self.next,
        });
    }

    pub fn batch(&mut self, eng: &mut ShardedEngine, block: &AccessBlock) {
        let parallel = self.next % 2 == 1;
        self.ledger.begin_batch(self.next, parallel);
        let start = now_ns();
        let subs = eng.split(block);
        let end = now_ns();
        let largest = subs.iter().map(AccessBlock::len).max().unwrap_or(0);
        let t = &mut self.totals;
        t.imbalance += largest as f64 - block.len() as f64 / subs.len() as f64;
        t.batches += 1;
        t.split_ns += end - start;
        if !parallel {
            self.subs.resize_with(subs.len(), AccessBlock::new);
            for (dst, src) in self.subs.iter_mut().zip(subs) {
                dst.clear();
                for i in 0..src.len() {
                    dst.push(src.parts()[i], src.addrs()[i], src.metas()[i]);
                }
            }
        }
        self.span("sharded.split", start, end);
        if parallel {
            let t0 = now_ns();
            eng.access_batch(block);
            let t1 = now_ns();
            self.span("sharded.parallel", t0, t1);
            let t = &mut self.totals;
            t.par_wall_ns += t1 - t0;
            t.par_split_ns += end - start;
            t.par_accesses += block.len() as u64;
        } else {
            for (i, sub) in self.subs.iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let t0 = now_ns();
                eng.shard_mut(i).access_batch(sub);
                let t1 = now_ns();
                self.ledger.span(Span {
                    name: "sharded.shard_compute",
                    start: t0,
                    end: t1,
                    batch: self.next,
                });
                self.totals.seq_compute_ns += t1 - t0;
            }
            self.totals.seq_accesses += block.len() as u64;
        }
        self.next += 1;
    }
}

/// Geometry of a sharded engine.
#[derive(Copy, Clone, Debug)]
struct Geometry {
    lines: usize,
    shards: usize,
    partitions: usize,
}

pub fn run_sharded(cfg: &Config, traced: bool) -> Outcome {
    let g = if cfg.smoke {
        Geometry {
            lines: 1 << 13,
            shards: 4,
            partitions: 16,
        }
    } else {
        Geometry {
            lines: 1 << 20,
            shards: 8,
            partitions: 128,
        }
    };
    let per_part = g.lines / g.partitions;
    let items = FOOTPRINT_X * per_part;
    let gen = MultiZipf::uniform_mix(g.partitions, items, ALPHA);
    let mut r = rng(cfg, "perfbench/sharded", 0);
    let warm = Traffic::zipf(&gen, 3 * g.lines, &mut r);
    let measured = Traffic::zipf(&gen, 4 * g.lines, &mut r);
    let oracle = analysis::ZipfOracle::new(items, ALPHA).miss_rate(per_part);
    let build = || {
        let mut e = fs_bench::sharded_engine_for(
            "fs-feedback",
            g.lines,
            g.shards,
            g.partitions,
            ENGINE_SEED,
        );
        e.set_jobs(JOBS);
        e
    };
    let mut block = AccessBlock::with_capacity(BATCH);
    let mut checks = Checks::default();
    let mut out = Outcome::default();

    // One pass over the measured traffic: the clock ids of its batches,
    // its raw seconds in the engine, and the size deviation sampled
    // after every batch.
    let pass = |eng: &mut ShardedEngine, block: &mut AccessBlock, clock: &mut HostClock| {
        let mut mad = Mad::default();
        let raw_before = clock.raw_s;
        let start = clock.next_id();
        for at in measured.batches(BATCH) {
            measured.load(at, BATCH, block);
            let t = Instant::now();
            eng.access_batch(block);
            clock.record(t.elapsed().as_secs_f64());
            mad.sample_sharded(eng);
        }
        (start..clock.next_id(), clock.raw_s - raw_before, mad.mean())
    };
    let oracle_check = |checks: &mut Checks, before: &Fingerprint, after: &Fingerprint| {
        let accesses = (after.hits + after.misses) - (before.hits + before.misses);
        let miss = (after.misses - before.misses) as f64 / accesses.max(1) as f64;
        let err = (miss - oracle).abs();
        checks.check(err <= ORACLE_TOL, || {
            format!("oracle error {err:.4} (measured {miss:.4}, oracle {oracle:.4}) > {ORACLE_TOL}")
        });
        err
    };

    if traced {
        let cal = calibrate();
        let mut reference = build();
        feed_sharded(&mut reference, &warm, &mut block);
        let before = Fingerprint::of_sharded(&reference);
        let (_, untraced_s, _) = pass(&mut reference, &mut block, &mut HostClock::new());
        let expect = Fingerprint::of_sharded(&reference);
        drop(reference);
        oracle_check(&mut checks, &before, &expect);

        let ledger = Ledger::new(SHARDED_SPAN_STRIDE);
        let mut eng = traced_sharded(g.lines, g.shards, g.partitions, ENGINE_SEED, &ledger);
        eng.set_jobs(JOBS);
        feed_sharded(&mut eng, &warm, &mut block);
        ledger.set_tracing(true);
        let mut trace = ShardedTrace::new(&ledger);
        let mut traced_ns = 0;
        for at in measured.batches(BATCH) {
            measured.load(at, BATCH, &mut block);
            let t0 = now_ns();
            trace.batch(&mut eng, &block);
            traced_ns += now_ns() - t0;
        }
        ledger.set_tracing(false);
        checks.check(Fingerprint::of_sharded(&eng) == expect, || {
            "traced run diverged from untraced".to_string()
        });
        drop(eng);
        let totals = TraceTotals {
            accesses: measured.len() as u64,
            seq_accesses: trace.totals.seq_accesses,
            seq_engine_ns: trace.totals.seq_compute_ns,
            untraced_wall_s: untraced_s,
            traced_wall_s: traced_ns as f64 * 1e-9,
            sharded: trace.totals,
            ..TraceTotals::default()
        };
        return layers::finish("sharded", ledger.take(), &cal, &totals, checks);
    }

    let mut timing = Timing::default();
    let mut clock = HostClock::new();
    let mut passes = Vec::new();
    let mut first: Option<(Fingerprint, f64, f64)> = None;
    let budget = cfg.seconds / REPS as f64;
    let rss_before = rss_bytes();
    for rep in 0..REPS {
        clock.remeasure();
        let t0 = Instant::now();
        let mut eng = build();
        let built = t0.elapsed().as_secs_f64();
        let setup = built + feed_sharded(&mut eng, &warm, &mut block);
        let id = clock.record(setup);
        timing.setups.push(id..id + 1);
        clock.remeasure();
        let before = Fingerprint::of_sharded(&eng);
        let mut spent = 0.0;
        let mut k = 0;
        // Start another pass only if it would end nearer the budget than
        // stopping now does.
        while k < MIN_PASSES || spent + 0.5 * spent / (k as f64) < budget {
            let (ids, raw, mad) = pass(&mut eng, &mut block, &mut clock);
            spent += raw;
            passes.push(ids);
            if k == 0 {
                let after = Fingerprint::of_sharded(&eng);
                match &first {
                    None => {
                        let err = oracle_check(&mut checks, &before, &after);
                        first = Some((after, mad, err));
                    }
                    Some((f0, _, _)) => checks.check(*f0 == after, || {
                        format!("set-up {rep} diverged from set-up 0")
                    }),
                }
            }
            k += 1;
        }
        if rep == 0 {
            timing.memory(rss_before, eng);
        }
    }
    clock.remeasure();
    let (fp, mad, err) = first.expect("at least one set-up ran");
    let rates: Vec<f64> = passes
        .iter()
        .map(|ids| measured.len() as f64 / clock.scaled_sum(ids.clone()))
        .collect();
    out.metrics
        .push(metric("accesses_per_s", median(&rates), "1/s"));
    timing.batches = vec![passes.into_iter().flatten().collect()];
    timing.metrics(&clock, &mut out);
    out.metrics
        .push(metric("miss_ratio", fp.miss_ratio(), "ratio"));
    out.metrics.push(metric("size_mad_lines", mad, "lines"));
    out.info.push(metric("oracle_err", err, "ratio"));
    out.info.push(metric("passes", rates.len() as f64, "count"));
    out.checks = checks;
    out
}

/// The `tenancy_storm` roster: name, Zipf exponent, footprint as a
/// multiple of the cache (×100) and initial traffic weight.
const TENANTS: [(&str, f64, usize, f64); 6] = [
    ("frontend", 1.1, 100, 3.0),
    ("api", 0.9, 75, 2.0),
    ("batch", 0.7, 150, 1.5),
    ("analytics", 1.0, 100, 1.0),
    ("logging", 0.6, 200, 0.75),
    ("best-effort", 0.8, 125, 0.75),
];

/// One storm op applied to the traffic generator before a phase.
enum StormOp {
    /// Step tenant `.0`'s traffic weight to `.1` (0 = departure).
    Weight(usize, f64),
    /// Drift tenant `.0`'s popularity head by `.1` thousandths of its
    /// population.
    Drift(usize, usize),
}

/// The `tenancy_storm` schedule: baseline, load-step, departure,
/// arrival and drift.
const PHASES: [&[StormOp]; 5] = [
    &[],
    &[StormOp::Weight(0, 9.0)],
    &[StormOp::Weight(2, 0.0)],
    &[StormOp::Weight(2, 4.5)],
    &[StormOp::Drift(1, 500), StormOp::Drift(3, 333)],
];

/// The `tenancy_storm` QoS: explicit shares for four tenants, with
/// floors, caps, priorities and SLOs mixed across the roster.
fn qos(lines: usize) -> tenancy::CompiledQos {
    QosBuilder::new()
        .tenant(
            TenantSpec::named(TENANTS[0].0)
                .share(0.30)
                .min_lines(lines / 8)
                .priority(4.0)
                .slo_miss_ratio(0.75),
        )
        .tenant(
            TenantSpec::named(TENANTS[1].0)
                .share(0.20)
                .priority(2.0)
                .slo_miss_ratio(0.85),
        )
        .tenant(
            TenantSpec::named(TENANTS[2].0)
                .share(0.15)
                .max_lines(lines / 2),
        )
        .tenant(TenantSpec::named(TENANTS[3].0).share(0.15))
        .tenant(
            TenantSpec::named(TENANTS[4].0)
                .max_lines(lines / 4)
                .slo_miss_ratio(0.98),
        )
        .tenant(TenantSpec::named(TENANTS[5].0))
        .compile(lines)
        .expect("storm QoS compiles")
}

fn allocator(lines: usize) -> UtilityAllocator {
    UtilityAllocator::new(
        qos(lines),
        lines / 64,
        UmonConfig {
            sets: 64,
            ways: 16,
            sampling: 1,
        },
    )
}

/// Warm-up and the five phases' traffic, storm ops applied in order.
fn storm_traffic(cfg: &Config, lines: usize) -> (Traffic, Vec<Traffic>) {
    let pops: Vec<PartitionPopulation> = TENANTS
        .iter()
        .map(|&(_, alpha, footprint_pct, weight)| PartitionPopulation {
            items: lines * footprint_pct / 100,
            alpha,
            weight,
        })
        .collect();
    let mut gen = MultiZipf::new(&pops);
    let mut r = rng(cfg, "perfbench/tenancy", 0);
    let warm = Traffic::zipf(&gen, 2 * lines, &mut r);
    let mut phases = Vec::new();
    for ops in PHASES {
        for op in ops {
            match *op {
                StormOp::Weight(t, w) => gen.set_weight(PartitionId(t as u16), w),
                StormOp::Drift(t, milli) => {
                    let items = gen.items(PartitionId(t as u16));
                    gen.set_drift(PartitionId(t as u16), items * milli / 1000);
                }
            }
        }
        phases.push(Traffic::zipf(&gen, 8 * lines, &mut r));
    }
    (warm, phases)
}

/// `TenancyDriver::feed` replayed step by step so the allocator's calls
/// can be timed from outside: the same epoch split, the same observe /
/// resolve / `set_targets` order.
struct Replay {
    cadence: u64,
    fed_in_epoch: u64,
    staging: AccessBlock,
    trace: ShardedTrace,
    totals: TenancyTotals,
    targets: Vec<Vec<usize>>,
}

impl Replay {
    fn feed(&mut self, eng: &mut ShardedEngine, alloc: &mut UtilityAllocator, block: &AccessBlock) {
        let (parts, addrs, metas) = (block.parts(), block.addrs(), block.metas());
        let mut off = 0usize;
        while off < block.len() {
            let room = (self.cadence - self.fed_in_epoch) as usize;
            let take = room.min(block.len() - off);
            let t0 = now_ns();
            for i in off..off + take {
                alloc.observe(parts[i].0 as usize, addrs[i]);
            }
            let t1 = now_ns();
            self.trace.span("tenancy.observe", t0, t1);
            self.totals.observe_ns += t1 - t0;
            if off == 0 && take == block.len() {
                self.trace.batch(eng, block);
            } else {
                self.staging.clear();
                for i in off..off + take {
                    self.staging.push(parts[i], addrs[i], metas[i]);
                }
                self.trace.batch(eng, &self.staging);
            }
            off += take;
            self.fed_in_epoch += take as u64;
            if self.fed_in_epoch == self.cadence {
                let t0 = now_ns();
                let targets = alloc.resolve();
                let t1 = now_ns();
                eng.set_targets(targets);
                let t2 = now_ns();
                self.trace.span("tenancy.resolve", t0, t1);
                self.trace.span("tenancy.set_targets", t1, t2);
                self.totals.resolve_ns += t1 - t0;
                self.totals.set_targets_ns += t2 - t1;
                self.totals.resolves += 1;
                self.targets.push(targets.to_vec());
                self.fed_in_epoch = 0;
            }
        }
    }
}

pub fn run_tenancy(cfg: &Config, traced: bool) -> Outcome {
    let (lines, shards) = if cfg.smoke {
        (1 << 12, 4)
    } else {
        (1 << 18, 8)
    };
    let cadence = (lines / 2) as u64;
    let (warm, phases) = storm_traffic(cfg, lines);
    let timed_accesses: usize = phases.iter().map(Traffic::len).sum();
    let mut block = AccessBlock::with_capacity(BATCH);
    let mut checks = Checks::default();

    // One untraced repetition: a fresh driver, warmed, then the five
    // phases with every feed timed.
    struct Rep {
        /// Clock ids of the set-up and of every phase `feed`.
        setup: Range<usize>,
        batches: Range<usize>,
        /// Raw seconds in `feed` over the phases.
        raw_s: f64,
        mad: f64,
        slo_violations: usize,
        fingerprint: Fingerprint,
        targets: Vec<Vec<usize>>,
        /// The driver's live heap at the end, and the resident-set
        /// growth since before its construction, in bytes.
        heap: u64,
        rss: u64,
    }
    let run_rep = |block: &mut AccessBlock, clock: &mut HostClock| -> Rep {
        let rss_before = rss_bytes();
        clock.remeasure();
        let t0 = Instant::now();
        let mut eng =
            fs_bench::sharded_engine_for("fs-feedback", lines, shards, TENANTS.len(), ENGINE_SEED);
        eng.set_jobs(JOBS);
        let mut driver = TenancyDriver::new(eng, allocator(lines), cadence);
        driver.record_events(true);
        let mut setup_s = t0.elapsed().as_secs_f64();
        for at in warm.batches(BATCH) {
            warm.load(at, BATCH, block);
            let t = Instant::now();
            driver.feed(block);
            setup_s += t.elapsed().as_secs_f64();
        }
        let setup = clock.record(setup_s);
        clock.remeasure();
        let raw_before = clock.raw_s;
        let mut mad = Mad::default();
        let mut slo_violations = 0;
        let qos = driver.allocator().qos().clone();
        for phase in &phases {
            let before = driver.engine().merged_stats();
            for at in phase.batches(BATCH) {
                phase.load(at, BATCH, block);
                let t = Instant::now();
                driver.feed(block);
                clock.record(t.elapsed().as_secs_f64());
                mad.sample_sharded(driver.engine());
            }
            let after = driver.engine().merged_stats();
            for t in 0..TENANTS.len() {
                let (b, a) = (&before.partitions()[t], &after.partitions()[t]);
                let accesses = a.accesses() - b.accesses();
                let miss = (a.misses - b.misses) as f64 / accesses.max(1) as f64;
                slo_violations += usize::from(qos.slo_miss_ratio(t).is_some_and(|s| miss > s));
            }
        }
        Rep {
            setup: setup..setup + 1,
            batches: setup + 1..clock.next_id(),
            raw_s: clock.raw_s - raw_before,
            mad: mad.mean(),
            slo_violations,
            fingerprint: Fingerprint::of_sharded(driver.engine()),
            targets: driver.events().iter().map(|e| e.targets.clone()).collect(),
            rss: rss_bytes().saturating_sub(rss_before),
            heap: heap_held(driver),
        }
    };

    if traced {
        let cal = calibrate();
        let reference = run_rep(&mut block, &mut HostClock::new());
        let ledger = Ledger::new(TENANCY_SPAN_STRIDE);
        let mut eng = traced_sharded(lines, shards, TENANTS.len(), ENGINE_SEED, &ledger);
        eng.set_jobs(JOBS);
        let mut alloc = allocator(lines);
        eng.set_targets(alloc.targets());
        let mut replay = Replay {
            cadence,
            fed_in_epoch: 0,
            staging: AccessBlock::new(),
            trace: ShardedTrace::new(&ledger),
            totals: TenancyTotals::default(),
            targets: Vec::new(),
        };
        for at in warm.batches(BATCH) {
            warm.load(at, BATCH, &mut block);
            replay.feed(&mut eng, &mut alloc, &block);
        }
        // Only the phases count; the warm-up went through the same
        // replay so the allocator sees identical history.
        replay.trace.totals = ShardedTotals::default();
        replay.totals = TenancyTotals::default();
        ledger.set_tracing(true);
        let mut traced_ns = 0;
        for phase in &phases {
            for at in phase.batches(BATCH) {
                phase.load(at, BATCH, &mut block);
                let t0 = now_ns();
                replay.feed(&mut eng, &mut alloc, &block);
                traced_ns += now_ns() - t0;
            }
        }
        ledger.set_tracing(false);
        checks.check(replay.targets == reference.targets, || {
            "traced replay re-solved a different targets trajectory".to_string()
        });
        checks.check(
            Fingerprint::of_sharded(&eng) == reference.fingerprint,
            || "traced replay diverged from untraced".to_string(),
        );
        drop(eng);
        let totals = TraceTotals {
            accesses: timed_accesses as u64,
            seq_accesses: replay.trace.totals.seq_accesses,
            seq_engine_ns: replay.trace.totals.seq_compute_ns,
            untraced_wall_s: reference.raw_s,
            traced_wall_s: traced_ns as f64 * 1e-9,
            sharded: replay.trace.totals,
            tenancy: replay.totals,
            ..TraceTotals::default()
        };
        return layers::finish("tenancy", ledger.take(), &cal, &totals, checks);
    }

    let mut timing = Timing::default();
    let mut clock = HostClock::new();
    let mut batches = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < REPS || clock.raw_s < cfg.seconds {
        let rep = run_rep(&mut block, &mut clock);
        if reps.is_empty() {
            (timing.heap, timing.rss) = (rep.heap, rep.rss);
        }
        timing.setups.push(rep.setup.clone());
        batches.extend(rep.batches.clone());
        if let Some(r0) = reps.first() {
            let same = r0.targets == rep.targets && r0.fingerprint == rep.fingerprint;
            checks.check(same, || {
                format!("repetition {} diverged from repetition 0", reps.len())
            });
        }
        reps.push(rep);
    }
    clock.remeasure();
    let r0 = &reps[0];
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| timed_accesses as f64 / clock.scaled_sum(r.batches.clone()))
        .collect();
    let mut out = Outcome::default();
    out.metrics
        .push(metric("accesses_per_s", median(&rates), "1/s"));
    timing.batches = vec![batches];
    timing.metrics(&clock, &mut out);
    out.metrics
        .push(metric("miss_ratio", r0.fingerprint.miss_ratio(), "ratio"));
    out.metrics.push(metric("size_mad_lines", r0.mad, "lines"));
    out.info
        .push(metric("slo_violations", r0.slo_violations as f64, "count"));
    out.info
        .push(metric("resolves", r0.targets.len() as f64, "count"));
    out.info
        .push(metric("repetitions", reps.len() as f64, "count"));
    out.checks = checks;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_sharded_twin_is_identical_to_sharded_engine_for() {
        let cfg = Config {
            seed: 5,
            seconds: 0.0,
            smoke: true,
        };
        let (lines, shards, parts) = (1 << 12, 4, 8);
        let gen = MultiZipf::uniform_mix(parts, 4 * lines / parts, ALPHA);
        let traffic = Traffic::zipf(&gen, 3 * lines, &mut rng(&cfg, "test", 0));
        let ledger = Ledger::default();
        let mut reference = fs_bench::sharded_engine_for("fs-feedback", lines, shards, parts, 11);
        let mut twin = traced_sharded(lines, shards, parts, 11, &ledger);
        twin.set_jobs(JOBS);
        ledger.set_tracing(true);
        let mut block = AccessBlock::new();
        feed_sharded(&mut reference, &traffic, &mut block);
        let mut trace = ShardedTrace::new(&ledger);
        for at in traffic.batches(BATCH) {
            traffic.load(at, BATCH, &mut block);
            trace.batch(&mut twin, &block);
        }
        assert_eq!(
            Fingerprint::of_sharded(&reference),
            Fingerprint::of_sharded(&twin)
        );
        assert!(reference.snapshot() == twin.snapshot());
    }
}
