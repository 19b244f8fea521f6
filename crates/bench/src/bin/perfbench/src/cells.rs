//! The single-engine workloads, `churn` and `resident`: six grid cells
//! built by `fs_bench::engine_for` at the paper's L2 geometry, each fed
//! the same seeded traffic, one closed-loop batch at a time.
//!
//! The cells cover both victim-selection paths (byte lane with a SWAR
//! argmax, and `f64` futilities), bucket and treap ranks, three
//! candidate walks, Vantage retags and the fully-associative
//! `max_futility_line` path.

use crate::common::{
    feed, geomean, median, metric, rng, rss_bytes, Checks, Config, Fingerprint, HostClock, Mad,
    Outcome, Timing, Traffic, BATCH, ENGINE_SEED, REPS,
};
use crate::layers::{self, TraceTotals, CELL_NAMES};
use crate::timed::{calibrate, now_ns, Ledger, Span, Timed};
use cachesim::array::{CacheArray, ZCache};
use cachesim::{AccessBlock, Engine, EngineCore, PartitionId};
use std::ops::Range;
use std::time::Instant;

/// One grid cell: array × ranking × scheme.
#[derive(Copy, Clone, Debug)]
pub struct Cell {
    pub name: &'static str,
    pub array: &'static str,
    pub ranking: &'static str,
    pub scheme: &'static str,
}

pub const CELLS: [Cell; 6] = [
    Cell {
        name: CELL_NAMES[0],
        array: "set-assoc",
        ranking: "coarse-lru",
        scheme: "fs-feedback",
    },
    Cell {
        name: CELL_NAMES[1],
        array: "zcache",
        ranking: "coarse-lru",
        scheme: "fs-feedback",
    },
    Cell {
        name: CELL_NAMES[2],
        array: "rand-cands",
        ranking: "lru",
        scheme: "fs-feedback",
    },
    Cell {
        name: CELL_NAMES[3],
        array: "set-assoc",
        ranking: "lru",
        scheme: "vantage",
    },
    Cell {
        name: CELL_NAMES[4],
        array: "set-assoc",
        ranking: "coarse-lru",
        scheme: "prism",
    },
    Cell {
        name: CELL_NAMES[5],
        array: "fully-assoc",
        ranking: "coarse-lru",
        scheme: "fs-feedback",
    },
];

/// Passes of every cell whose simulated results are compared and
/// reported; timed passes continue beyond them while time remains.
const FIXED_PASSES: usize = 2;
/// Passes of the traced run (and of its untraced reference).
const TRACE_PASSES: usize = 4;

/// Cache geometry and traffic sizes.
#[derive(Copy, Clone, Debug)]
pub struct Geometry {
    pub lines: usize,
    pub partitions: usize,
    /// Accesses per pass.
    pub pass: usize,
    pub batch: usize,
}

impl Geometry {
    /// The paper's L2: 131,072 lines, 16 candidates, 32 partitions.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Geometry {
                lines: 512,
                partitions: 4,
                pass: 1024,
                batch: 256,
            }
        } else {
            Geometry {
                lines: 1 << 17,
                partitions: 32,
                pass: 1 << 16,
                batch: BATCH,
            }
        }
    }

    fn share(&self) -> usize {
        self.lines / self.partitions
    }
}

/// Which of the two single-engine workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Footprint 4× each partition's share: the miss path, miss ratio
    /// ≈ 0.75.
    Churn,
    /// Footprint half of each share: all hits once warm.
    Resident,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Churn => "churn",
            Kind::Resident => "resident",
        }
    }

    /// Batches per kept span batch of the traced run: `churn` samples
    /// about 0.7 spans per access, `resident` 0.13, over 1.6M accesses.
    fn span_stride(self) -> u64 {
        match self {
            Kind::Churn => 5,
            Kind::Resident => 1,
        }
    }

    /// Distinct lines each partition references.
    fn footprint(self, g: &Geometry) -> usize {
        match self {
            Kind::Churn => 4 * g.share(),
            Kind::Resident => g.share() / 2,
        }
    }

    /// Warm-up traffic: churn fills the cache with twice its size in
    /// uniform accesses; resident touches every line of its footprint
    /// once.
    fn warm(self, g: &Geometry, cfg: &Config) -> Traffic {
        let fp = self.footprint(g);
        let mut t = Traffic::with_capacity(2 * g.lines);
        match self {
            Kind::Churn => {
                let mut r = rng(cfg, "perfbench/churn/warm", 0);
                for _ in 0..2 * g.lines {
                    let p = r.gen_range(0..g.partitions);
                    t.push(PartitionId(p as u16), addr(p, r.gen_range(0..fp)));
                }
            }
            Kind::Resident => {
                for item in 0..fp {
                    for p in 0..g.partitions {
                        t.push(PartitionId(p as u16), addr(p, item));
                    }
                }
            }
        }
        t
    }

    /// Pass `k`: uniform accesses over every partition's footprint.
    fn pass(self, g: &Geometry, cfg: &Config, k: usize, out: &mut Traffic) {
        let fp = self.footprint(g);
        let mut r = rng(cfg, &format!("perfbench/{}/pass", self.name()), k as u64);
        out.clear();
        for _ in 0..g.pass {
            let p = r.gen_range(0..g.partitions);
            out.push(PartitionId(p as u16), addr(p, r.gen_range(0..fp)));
        }
    }
}

fn addr(part: usize, item: usize) -> u64 {
    (part as u64) << 32 | item as u64
}

impl Cell {
    pub fn build(&self, g: &Geometry) -> Box<dyn Engine> {
        fs_bench::engine_for(
            self.array,
            self.ranking,
            self.scheme,
            g.lines,
            ENGINE_SEED,
            g.partitions,
        )
    }
}

/// An array by the name an engine reports, at `engine_for`'s geometry.
fn array_named(name: &str, lines: usize) -> Box<dyn CacheArray> {
    match name {
        "set-assoc" => fs_bench::l2_array(lines, ENGINE_SEED),
        "zcache" => Box::new(ZCache::new(lines / 4, 4, 16, ENGINE_SEED)),
        "rand-cands" => fs_bench::random_array(lines, 16, ENGINE_SEED),
        "fully-assoc" => fs_bench::fa_array(lines),
        other => panic!("no traced builder for array {other}"),
    }
}

/// The traced twin of `reference`: its components rebuilt by the names
/// it reports, so the twin follows `engine_for`'s backend choices, each
/// wrapped in [`Timed`].
pub fn traced_twin(reference: &dyn Engine, g: &Geometry, ledger: &Ledger) -> Box<dyn Engine> {
    Box::new(EngineCore::new(
        Timed::new(array_named(reference.array().name(), g.lines), ledger, 1),
        Timed::new(
            fs_bench::futility_ranking(reference.ranking().name()),
            ledger,
            2,
        ),
        Timed::new(fs_bench::scheme(reference.scheme().name()), ledger, 3),
        g.partitions,
    ))
}

pub fn run(kind: Kind, cfg: &Config, traced: bool) -> Outcome {
    let g = Geometry::new(cfg.smoke);
    if traced {
        run_traced(kind, &g, cfg)
    } else {
        run_untraced(kind, &g, cfg)
    }
}

/// What rep 0 of a cell leaves for the fidelity metrics and the
/// repetition checks.
struct CellResult {
    fingerprint: Fingerprint,
    mad: f64,
}

/// Seconds a cell runs before the next cell takes its turn. Rotating
/// through the cells spreads each one's passes over the whole run, so
/// a slow spell on the host falls on every cell alike rather than on
/// whichever ran through it; a turn costs the incoming cell a cache
/// refill of about 1% of the slot.
const SLOT_S: f64 = 0.25;

/// Untraced: [`REPS`] set-ups of all six cells, each followed by an
/// equal share of the timed region, taken in turns of [`SLOT_S`].
fn run_untraced(kind: Kind, g: &Geometry, cfg: &Config) -> Outcome {
    let warm = kind.warm(g, cfg);
    let mut pass = Traffic::with_capacity(g.pass);
    let mut block = AccessBlock::with_capacity(g.batch);
    let mut clock = HostClock::new();
    // Per cell: the clock ids of every timed batch, and of each pass.
    let mut timing = Timing {
        batches: vec![Vec::new(); CELLS.len()],
        ..Timing::default()
    };
    let mut passes: Vec<Vec<Range<usize>>> = vec![Vec::new(); CELLS.len()];
    let mut first: Vec<Option<CellResult>> = CELLS.iter().map(|_| None).collect();
    let mut checks = Checks::default();
    let budget = cfg.seconds / REPS as f64;
    let rss_before = rss_bytes();
    for rep in 0..REPS {
        let mut engines = Vec::with_capacity(CELLS.len());
        clock.remeasure();
        let setup_start = clock.next_id();
        for cell in CELLS {
            let t0 = Instant::now();
            let mut eng = cell.build(g);
            feed(eng.as_mut(), &warm, g.batch, &mut block);
            clock.record(t0.elapsed().as_secs_f64());
            engines.push(eng);
        }
        timing.setups.push(setup_start..clock.next_id());
        clock.remeasure();

        let start = clock.raw_s;
        let mut done = vec![0usize; CELLS.len()];
        let mut mads: Vec<Mad> = CELLS.iter().map(|_| Mad::default()).collect();
        let over = |clock: &HostClock, done: &[usize]| {
            clock.raw_s - start >= budget && done.iter().all(|&d| d >= FIXED_PASSES)
        };
        while !over(&clock, &done) {
            for (ci, eng) in engines.iter_mut().enumerate() {
                if over(&clock, &done) {
                    break;
                }
                let turn_end = (clock.raw_s + SLOT_S).min(start + budget);
                while done[ci] < FIXED_PASSES || clock.raw_s < turn_end {
                    let k = done[ci];
                    kind.pass(g, cfg, k, &mut pass);
                    let pass_start = clock.next_id();
                    for at in pass.batches(g.batch) {
                        pass.load(at, g.batch, &mut block);
                        let t = Instant::now();
                        eng.access_batch(&block);
                        let id = clock.record(t.elapsed().as_secs_f64());
                        timing.batches[ci].push(id);
                        if k < FIXED_PASSES {
                            mads[ci].sample(eng.state(), g.partitions);
                        }
                    }
                    passes[ci].push(pass_start..clock.next_id());
                    done[ci] += 1;
                    if done[ci] == FIXED_PASSES {
                        let fingerprint = Fingerprint::of(eng.as_ref());
                        match &first[ci] {
                            None => {
                                first[ci] = Some(CellResult {
                                    fingerprint,
                                    mad: mads[ci].mean(),
                                })
                            }
                            Some(r0) => checks.check(r0.fingerprint == fingerprint, || {
                                format!("{}: set-up {rep} diverged from set-up 0", CELLS[ci].name)
                            }),
                        }
                    }
                }
            }
        }
        if rep == 0 {
            timing.memory(rss_before, engines);
        }
    }

    clock.remeasure();
    let mut out = Outcome::default();
    let cell_rates: Vec<f64> = passes
        .iter()
        .map(|p| {
            let rates: Vec<f64> = p
                .iter()
                .map(|ids| g.pass as f64 / clock.scaled_sum(ids.clone()))
                .collect();
            median(&rates)
        })
        .collect();
    out.metrics
        .push(metric("accesses_per_s", geomean(&cell_rates), "1/s"));
    for ((cell, &rate), batches) in CELLS.iter().zip(&cell_rates).zip(&timing.batches) {
        out.info.push(metric(
            format!("cell.{}.accesses_per_s", cell.name),
            rate,
            "1/s",
        ));
        out.info.push(metric(
            format!("cell.{}.batch_samples", cell.name),
            batches.len() as f64,
            "count",
        ));
    }
    timing.metrics(&clock, &mut out);
    let results: Vec<&CellResult> = first.iter().flatten().collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for r in &results {
        hits += r.fingerprint.hits;
        misses += r.fingerprint.misses;
    }
    out.metrics.push(metric(
        "miss_ratio",
        misses as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    out.metrics.push(metric(
        "size_mad_lines",
        results.iter().map(|r| r.mad).sum::<f64>() / results.len() as f64,
        "lines",
    ));
    out.checks = checks;
    out
}

fn run_traced(kind: Kind, g: &Geometry, cfg: &Config) -> Outcome {
    let warm = kind.warm(g, cfg);
    let mut pass = Traffic::with_capacity(g.pass);
    let mut block = AccessBlock::with_capacity(g.batch);
    let cal = calibrate();
    let ledger = Ledger::new(kind.span_stride());
    let mut totals = TraceTotals::default();
    let mut checks = Checks::default();
    let mut batch_id = 0u64;
    for cell in CELLS {
        let mut reference = cell.build(g);
        feed(reference.as_mut(), &warm, g.batch, &mut block);
        let mut untraced_s = 0.0;
        for k in 0..TRACE_PASSES {
            kind.pass(g, cfg, k, &mut pass);
            for at in pass.batches(g.batch) {
                pass.load(at, g.batch, &mut block);
                let t = Instant::now();
                reference.access_batch(&block);
                untraced_s += t.elapsed().as_secs_f64();
            }
        }
        let expect = Fingerprint::of(reference.as_ref());
        let mut twin = traced_twin(reference.as_ref(), g, &ledger);
        drop(reference);

        feed(twin.as_mut(), &warm, g.batch, &mut block);
        ledger.set_tracing(true);
        let mut traced_ns = 0u64;
        for k in 0..TRACE_PASSES {
            kind.pass(g, cfg, k, &mut pass);
            for at in pass.batches(g.batch) {
                pass.load(at, g.batch, &mut block);
                ledger.begin_batch(batch_id, false);
                let start = now_ns();
                twin.access_batch(&block);
                let end = now_ns();
                ledger.span(Span {
                    name: "engine.batch",
                    start,
                    end,
                    batch: batch_id,
                });
                traced_ns += end - start;
                batch_id += 1;
            }
        }
        ledger.set_tracing(false);
        checks.check(Fingerprint::of(twin.as_ref()) == expect, || {
            format!("{}: traced run diverged from untraced", cell.name)
        });
        drop(twin);

        let accesses = (TRACE_PASSES * g.pass) as u64;
        totals.accesses += accesses;
        totals.seq_accesses += accesses;
        totals.seq_engine_ns += traced_ns;
        totals.untraced_wall_s += untraced_s;
        totals.traced_wall_s += traced_ns as f64 * 1e-9;
        totals.cells.push((cell.name, accesses as f64 / untraced_s));
    }
    layers::finish(kind.name(), ledger.take(), &cal, &totals, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_twin_is_identical_to_engine_for_in_every_cell() {
        // Pins the backend choice too: the bucket vs treap coarse LRU
        // shows in the ranking name and the snapshot bytes, including
        // fa-coarse-fs, where engine_for keeps the treap.
        let g = Geometry {
            lines: 256,
            partitions: 4,
            pass: 2048,
            batch: 128,
        };
        let cfg = Config {
            seed: 3,
            seconds: 0.0,
            smoke: true,
        };
        let mut block = AccessBlock::new();
        let mut traffic = Traffic::default();
        Kind::Churn.pass(&g, &cfg, 0, &mut traffic);
        for cell in CELLS {
            let ledger = Ledger::default();
            let mut reference = cell.build(&g);
            let mut twin = traced_twin(reference.as_ref(), &g, &ledger);
            ledger.set_tracing(true);
            feed(reference.as_mut(), &traffic, g.batch, &mut block);
            feed(twin.as_mut(), &traffic, g.batch, &mut block);
            assert_eq!(
                reference.ranking().name(),
                twin.ranking().name(),
                "{}",
                cell.name
            );
            assert_eq!(
                Fingerprint::of(reference.as_ref()),
                Fingerprint::of(twin.as_ref()),
                "{}",
                cell.name
            );
            assert!(reference.snapshot() == twin.snapshot(), "{}", cell.name);
        }
    }
}
