//! The replacement hot path must not allocate once the cache is warm:
//! candidate buffers are reused, the treap arena recycles freed nodes
//! through its free-list, and the per-line hash maps stop growing once
//! the bounded address universe has been seen. A counting global
//! allocator drives the check — after a warm-up pass, a full second
//! pass over the trace must perform zero heap allocations for every
//! ranking × scheme combination on the default set-associative array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's share of `ALLOCS`. A single-shot count of
    /// single-threaded code reads it, because the test harness's own
    /// threads (reporting a finished test) can allocate at any moment.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // A const-initialised `Cell` has no destructor, so this cannot fail
    // even while the thread is being torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use cachesim::array::SetAssociative;
use cachesim::hashing::LineHash;
use cachesim::prng::{seed_for, Prng};
use cachesim::{AccessBlock, AccessMeta, Engine, EngineCore, PartitionId, PartitionedCache, Trace};
use futility_core::FsFeedback;
use ranking::CoarseLru;

const PARTS: usize = 4;
const LINES: usize = 512;
const ACCESSES: usize = 20_000;

/// The counter is process-wide and tests run on parallel threads, so
/// each test holds this lock while it counts (even once poisoned).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Eviction-heavy trace over a bounded universe (~4× the cache), so the
/// steady state both misses constantly and revisits every address.
fn workload() -> (Vec<u16>, Vec<u64>, Vec<u64>) {
    let mut rng = Prng::seed_from_u64(seed_for("no_alloc_hot_path", 0));
    let mut parts = Vec::with_capacity(ACCESSES);
    let mut addrs = Vec::with_capacity(ACCESSES);
    for _ in 0..ACCESSES {
        let p: u16 = rng.gen_range(0..PARTS as u16);
        parts.push(p);
        addrs.push(p as u64 * 1_000_000 + rng.gen_range(0..LINES as u64));
    }
    let trace = Trace::from_addrs(addrs.iter().copied(), 1);
    let next_use = trace.annotate_next_use();
    (parts, addrs, next_use)
}

fn drive(cache: &mut PartitionedCache, wl: &(Vec<u16>, Vec<u64>, Vec<u64>)) {
    for i in 0..wl.1.len() {
        cache.access(
            PartitionId(wl.0[i]),
            wl.1[i],
            AccessMeta::with_next_use(wl.2[i]),
        );
    }
}

#[test]
fn warm_cache_access_never_allocates() {
    let _serial = serial();
    let wl = workload();
    let rankings = [
        "lru",
        "coarse-lru",
        "coarse-lru-bare",
        "lfu",
        "random",
        "rrip",
        "opt",
    ];
    let schemes = [
        "unpartitioned",
        "pf",
        "cqvp",
        "fs-feedback",
        "vantage",
        "prism",
    ];
    let mut failures = Vec::new();
    for ranking in rankings {
        for scheme in schemes {
            let mut cache = PartitionedCache::new(
                fs_bench::l2_array(LINES, 7),
                fs_bench::futility_ranking(ranking),
                fs_bench::scheme(scheme),
                PARTS,
            );
            cache.stats_mut().sample_deviation = false;
            // Warm up until two consecutive full passes allocate
            // nothing: the first pass fills the cache; later ones let
            // scratch buffers and the treap arenas reach their
            // high-water marks (feedback schemes keep shifting pool
            // occupancies for a few intervals, and an arena Vec only
            // grows when a new high-water mark crosses a capacity
            // boundary). A path that allocates per access can never
            // produce two clean passes, so the check stays strict.
            let mut consecutive_clean = 0;
            for _ in 0..10 {
                let before = ALLOCS.load(Ordering::Relaxed);
                drive(&mut cache, &wl);
                if ALLOCS.load(Ordering::Relaxed) == before {
                    consecutive_clean += 1;
                    if consecutive_clean == 2 {
                        break;
                    }
                } else {
                    consecutive_clean = 0;
                }
            }
            if consecutive_clean < 2 {
                failures.push(format!("{ranking}/{scheme}: never reached steady state"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm hot path allocated:\n{}",
        failures.join("\n")
    );
}

/// The batched pipeline must be as allocation-free as the scalar path
/// once warm: the deferred hit-run buffer and the candidate scratch
/// reach their high-water marks during warmup and are reused from then
/// on. Checked on `fs_bench::engine_for`'s engines: monomorphized cores
/// for `lru` and `coarse-lru` (the engines perfbench times), the boxed
/// composition the figures run for every other ranking.
#[test]
fn warm_batched_access_never_allocates() {
    let _serial = serial();
    let wl = workload();
    let mut block = AccessBlock::with_capacity(wl.1.len());
    for i in 0..wl.1.len() {
        block.push(
            PartitionId(wl.0[i]),
            wl.1[i],
            AccessMeta::with_next_use(wl.2[i]),
        );
    }
    let rankings = ["lru", "coarse-lru", "lfu", "random", "rrip", "opt"];
    let schemes = [
        "unpartitioned",
        "pf",
        "cqvp",
        "fs-feedback",
        "vantage",
        "prism",
    ];
    let mut failures = Vec::new();
    for ranking in rankings {
        for scheme in schemes {
            let mut cache = fs_bench::engine_for("set-assoc", ranking, scheme, LINES, 7, PARTS);
            cache.stats_mut().sample_deviation = false;
            // Same two-consecutive-clean-passes protocol as the scalar
            // test; each pass feeds the whole trace as one block, the
            // worst case for the deferred hit-run buffer.
            let mut consecutive_clean = 0;
            for _ in 0..10 {
                let before = ALLOCS.load(Ordering::Relaxed);
                cache.access_batch(&block);
                if ALLOCS.load(Ordering::Relaxed) == before {
                    consecutive_clean += 1;
                    if consecutive_clean == 2 {
                        break;
                    }
                } else {
                    consecutive_clean = 0;
                }
            }
            if consecutive_clean < 2 {
                failures.push(format!("{ranking}/{scheme}: never reached steady state"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm batched hot path allocated:\n{}",
        failures.join("\n")
    );
}

/// The batched *miss* path must reuse its scratch too: an
/// overwhelming-miss trace (universe 64× the cache, so nearly every
/// access misses) must reach the same two-consecutive-clean-passes
/// steady state. Cells are chosen to cover the engine's candidate and
/// decision buffers under the coarse rankings (coarse-lru / rrip) and
/// an exact one, with fs-feedback's victim scan and the unpartitioned
/// argmax. The `coarse-lru` and `lru` cells run `engine_for`'s
/// monomorphized cores; the `rrip` cells run the boxed composition the
/// figures run. `engine_for` runs `coarse-lru` bare on this array, so
/// the shadowed core, built directly, keeps the coarse LRU's exact
/// shadow covered.
#[test]
fn warm_batched_miss_runs_never_allocate() {
    let _serial = serial();
    let mut rng = Prng::seed_from_u64(seed_for("no_alloc_miss_runs", 0));
    let mut block = AccessBlock::with_capacity(ACCESSES);
    for _ in 0..ACCESSES {
        let p: u16 = rng.gen_range(0..PARTS as u16);
        let addr = p as u64 * 10_000_000 + rng.gen_range(0..64 * LINES as u64);
        block.push(PartitionId(p), addr, AccessMeta::default());
    }
    let mut failures = Vec::new();
    for (ranking, scheme) in [
        ("coarse-lru", "fs-feedback"),
        ("rrip", "unpartitioned"),
        ("coarse-lru", "unpartitioned"),
        ("rrip", "fs-feedback"),
        ("coarse-lru shadowed", "fs-feedback"),
        ("lru", "fs-feedback"),
    ] {
        let mut cache: Box<dyn Engine> = match ranking {
            "coarse-lru shadowed" => Box::new(EngineCore::new(
                SetAssociative::with_lines(LINES, 16, LineHash::new(7)),
                CoarseLru::new(),
                FsFeedback::default_config(),
                PARTS,
            )),
            _ => fs_bench::engine_for("set-assoc", ranking, scheme, LINES, 7, PARTS),
        };
        cache.stats_mut().sample_deviation = false;
        let mut consecutive_clean = 0;
        for _ in 0..10 {
            let before = ALLOCS.load(Ordering::Relaxed);
            cache.access_batch(&block);
            if ALLOCS.load(Ordering::Relaxed) == before {
                consecutive_clean += 1;
                if consecutive_clean == 2 {
                    break;
                }
            } else {
                consecutive_clean = 0;
            }
        }
        if consecutive_clean < 2 {
            failures.push(format!("{ranking}/{scheme}: never reached steady state"));
        }
    }
    assert!(
        failures.is_empty(),
        "warm batched miss path allocated:\n{}",
        failures.join("\n")
    );
}

/// Checkpointing must not disturb the warm hot path: `snapshot()` is a
/// read-only observer (its own output buffer is allocated off the
/// access path), so every access pass *between* snapshots stays
/// allocation-free. After a `restore()` the rebuilt structures re-reach
/// their high-water marks within the usual warmup protocol and the path
/// is allocation-free again — checkpoint/resume cannot make a steady
/// state leak.
#[test]
fn warm_access_between_checkpoints_never_allocates() {
    let _serial = serial();
    let wl = workload();
    for (ranking, scheme) in [("lru", "fs-feedback"), ("rrip", "vantage")] {
        let mut cache = PartitionedCache::new(
            fs_bench::l2_array(LINES, 7),
            fs_bench::futility_ranking(ranking),
            fs_bench::scheme(scheme),
            PARTS,
        );
        cache.stats_mut().sample_deviation = false;
        let warm = |cache: &mut PartitionedCache| {
            let mut consecutive_clean = 0;
            for _ in 0..10 {
                let before = ALLOCS.load(Ordering::Relaxed);
                drive(cache, &wl);
                if ALLOCS.load(Ordering::Relaxed) == before {
                    consecutive_clean += 1;
                    if consecutive_clean == 2 {
                        return true;
                    }
                } else {
                    consecutive_clean = 0;
                }
            }
            false
        };
        assert!(
            warm(&mut cache),
            "{ranking}/{scheme}: never reached steady state"
        );

        // Checkpoint-enabled steady state: after each snapshot the
        // engine must still produce allocation-free passes under the
        // same two-consecutive-clean-passes protocol (rare late
        // high-water-mark growth is tolerated exactly as in the plain
        // tests above — a snapshot takes `&self` and cannot cause it).
        let mut snap = Vec::new();
        for round in 0..3 {
            snap = cache.snapshot();
            assert!(
                warm(&mut cache),
                "{ranking}/{scheme}: no steady state after checkpoint {round}"
            );
        }

        // Restoring rebuilds component state (allocating is fine there);
        // the access path must return to allocation-free afterwards.
        cache.restore(&snap).expect("round-trip restore");
        assert!(
            warm(&mut cache),
            "{ranking}/{scheme}: no steady state after restore"
        );
    }
}

/// The tenancy closed loop must be as allocation-free as the raw
/// sharded path once warm (DESIGN.md §13): `Umon::observe` walks
/// fixed-size shadow stacks, the re-solve writes into the allocator's
/// preallocated curve/scratch/target buffers, the driver's staging
/// block for epoch-straddling sub-ranges reaches its high-water mark
/// during warmup, and `set_targets` reuses the engine's per-shard
/// division scratch. With event recording off (the default), whole
/// passes — including every mid-block re-solve they contain — must
/// allocate nothing.
#[test]
fn warm_tenancy_loop_with_resolves_never_allocates() {
    let _serial = serial();
    use tenancy::{QosBuilder, TenancyDriver, TenantSpec, UmonConfig, UtilityAllocator};

    const TENANTS: usize = 3;
    let qos = QosBuilder::new()
        .tenant(TenantSpec::named("a").share(0.4).min_lines(LINES / 8))
        .tenant(TenantSpec::named("b").max_lines(LINES / 2))
        .tenant(TenantSpec::named("c").priority(2.0))
        .compile(LINES)
        .unwrap();
    let alloc = UtilityAllocator::new(qos, LINES / 32, UmonConfig::default());
    let engine = fs_bench::sharded_engine_for("fs-feedback", LINES, 4, TENANTS, 7);
    // Cadence 777 with 512-access blocks: every epoch boundary lands
    // mid-block, so each pass exercises the staging split path and
    // several full re-solves.
    let mut driver = TenancyDriver::new(engine, alloc, 777);
    driver.engine_mut().set_sample_deviation(false);

    let mut rng = Prng::seed_from_u64(seed_for("no_alloc_tenancy", 0));
    let mut blocks = Vec::new();
    let mut cur = AccessBlock::new();
    for _ in 0..ACCESSES {
        let t = rng.gen_range(0..TENANTS as u64) as u16;
        // Tenant 0 reuses a tiny hot set; the others roam wider, so
        // the re-solves keep moving capacity while the loop runs.
        let addr = ((t as u64) << 40) | rng.gen_range(0..40 + 600 * t as u64);
        cur.push(PartitionId(t), addr, AccessMeta::default());
        if cur.len() == 512 {
            blocks.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        blocks.push(cur);
    }

    let mut consecutive_clean = 0;
    for _ in 0..10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for b in &blocks {
            driver.feed(b);
        }
        if ALLOCS.load(Ordering::Relaxed) == before {
            consecutive_clean += 1;
            if consecutive_clean == 2 {
                break;
            }
        } else {
            consecutive_clean = 0;
        }
    }
    assert!(
        driver.epochs() >= 25,
        "re-solves must be active during the counted passes, got {}",
        driver.epochs()
    );
    assert!(
        consecutive_clean >= 2,
        "warm tenancy loop allocated (never reached steady state)"
    );
}

#[test]
fn stats_construction_is_cheap_and_histogram_lazy() {
    let _serial = serial();
    // Constructing stats for many partitions must be O(partitions)
    // small allocations — not 1000-bin futility histograms per
    // partition. With the histogram opt-in left off, even recording
    // evictions must not allocate the bins.
    let before = thread_allocs();
    let mut stats = cachesim::CacheStats::new(64);
    let after_new = thread_allocs();
    assert!(
        after_new - before <= 8,
        "CacheStats::new(64) did {} allocations — histogram no longer lazy?",
        after_new - before
    );
    stats.record_eviction(PartitionId(3), 0.5);
    let after_evict = thread_allocs();
    assert_eq!(
        after_evict, after_new,
        "record_eviction allocated without futility_histogram opt-in"
    );
    // Opting in allocates the bins exactly once, on first use.
    stats.futility_histogram = true;
    stats.record_eviction(PartitionId(3), 0.5);
    assert!(
        thread_allocs() > after_evict,
        "opt-in first eviction must allocate the histogram"
    );
    let after_first = thread_allocs();
    stats.record_eviction(PartitionId(3), 0.9);
    assert_eq!(
        thread_allocs(),
        after_first,
        "later evictions reuse the allocated histogram"
    );
}

/// The sharded sequential path (jobs = 1) must be as allocation-free
/// as a single core once warm (DESIGN.md §12): the splitter reuses its
/// per-shard scratch blocks after they reach capacity, and each shard
/// is the same monomorphized core the batched test above checks. Only
/// the merge (`merged_stats` / `merged_recorder_rows`) may allocate,
/// so it stays outside the counted region.
#[test]
fn warm_sharded_split_loop_never_allocates() {
    let _serial = serial();

    const SHARDS: usize = 4;
    let wl = workload();
    let mut blocks = Vec::new();
    let mut cur = AccessBlock::new();
    for i in 0..ACCESSES {
        cur.push(PartitionId(wl.0[i]), wl.1[i], AccessMeta::default());
        if cur.len() == 512 {
            blocks.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        blocks.push(cur);
    }

    let mut engine = fs_bench::sharded_engine_for("fs-feedback", LINES, SHARDS, PARTS, 7);
    engine.set_sample_deviation(false);
    let mut consecutive_clean = 0;
    for _ in 0..10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for b in &blocks {
            engine.access_batch(b);
        }
        if ALLOCS.load(Ordering::Relaxed) == before {
            consecutive_clean += 1;
            if consecutive_clean == 2 {
                break;
            }
        } else {
            consecutive_clean = 0;
        }
    }
    assert!(
        consecutive_clean >= 2,
        "warm sharded split loop allocated (never reached steady state)"
    );
}
