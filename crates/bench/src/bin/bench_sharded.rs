//! Scale-out sweep: million-line caches with hundreds of partitions on
//! hash-partitioned shards, validated by the analytic Che/Fagin
//! miss-rate oracle (`analysis::ZipfOracle`) instead of golden CSVs —
//! at this scale exact goldens can't exist.
//!
//! Every cell drives disjoint per-partition Zipf(α=0.8) populations
//! (footprint 4× the cache) through a `ShardedEngine`, then compares
//! the shard-merged measured miss rate against the closed-form oracle
//! for one partition's population at its target size. FS-feedback
//! cells are *gated* on agreement within [`ORACLE_TOL`]; Vantage/PriSM
//! cells are reported (their enforcement drift is part of the result).
//! Convergence (mean MAD of per-partition size deviation) rides along
//! in the same CSV, with the compare-geometry cells additionally
//! recording per-shard flight-recorder streams.
//!
//! Outputs: `results/sharded_validation.csv` (miss rates, oracle
//! errors, MADs) and `results/sharded_timeseries.csv` (merged recorder
//! rows), byte-identical for any `--jobs N` (ci.sh cmp-gates this).
//! Throughput is perfbench's `sharded` workload.
//!
//! Usage:
//!   bench_sharded [--smoke|--quick] [--jobs N]

use cachesim::engine::AccessBlock;
use cachesim::prng::{seed_for, Prng};
use cachesim::PartitionId;
use fs_bench::Scale;
use workloads::MultiZipf;

/// Zipf exponent of every per-partition population.
const ALPHA: f64 = 0.8;
/// Items per partition, as a multiple of its line target.
const FOOTPRINT_X: usize = 4;
/// Gate: |measured − oracle| for FS-feedback cells. The slack covers
/// what the oracle idealizes away — 16-way set-associative coarse-LRU
/// is not exact fully-associative LRU, FS enforces targets by scaled
/// futility rather than a hard boundary, and hash-sharding splits each
/// population into S renormalized subsamples. Measured errors sit
/// around 0.01–0.02 (EXPERIMENTS.md); 0.035 is ~2× headroom.
const ORACLE_TOL: f64 = 0.035;
/// Schemes recorded at the compare geometry (convergence comparison).
const COMPARE_SCHEMES: [&str; 3] = ["fs-feedback", "vantage", "prism"];

/// One sweep cell. `record` attaches per-shard flight recorders (and
/// therefore takes the scalar per-shard path).
struct Cell {
    parts: usize,
    shards: usize,
    scheme: &'static str,
    record: bool,
}

/// Total cache lines at each scale. Full is the headline ≥1M-line
/// geometry; smoke shrinks 64× like every other bench so ci.sh can
/// afford the oracle + determinism gates.
fn total_lines(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1 << 20,
        Scale::Quick => 1 << 18,
        Scale::Smoke => 1 << 14,
    }
}

/// The sweep grid: a shard-scaling sweep at the base partition count,
/// a partition sweep at the base shard count, and the recorded
/// scheme-comparison cells at the compare geometry.
fn grid(scale: Scale) -> Vec<Cell> {
    let (base_parts, part_sweep, shard_sweep, base_shards): (usize, Vec<usize>, Vec<usize>, usize) =
        match scale {
            Scale::Full | Scale::Quick => (128, vec![256, 512], vec![1, 2, 4, 8, 16], 8),
            Scale::Smoke => (16, vec![32], vec![1, 2, 4], 4),
        };
    let mut cells = Vec::new();
    for s in shard_sweep {
        cells.push(Cell {
            parts: base_parts,
            shards: s,
            scheme: "fs-feedback",
            record: false,
        });
    }
    for p in part_sweep {
        cells.push(Cell {
            parts: p,
            shards: base_shards,
            scheme: "fs-feedback",
            record: false,
        });
    }
    for scheme in COMPARE_SCHEMES {
        cells.push(Cell {
            parts: base_parts,
            shards: base_shards,
            scheme,
            record: true,
        });
    }
    cells
}

/// Deterministic measured-trace length: enough accesses that the
/// binomial error of the measured miss rate is well under the oracle
/// tolerance even at smoke scale.
fn measured_accesses(lines: usize) -> usize {
    (4 * lines).max(1 << 18)
}

/// Pre-generate `n` accesses as ready-to-feed blocks.
fn generate_blocks(gen: &MultiZipf, n: usize, rng: &mut Prng) -> Vec<AccessBlock> {
    const BLOCK: usize = 1 << 16;
    let mut blocks = Vec::with_capacity(n.div_ceil(BLOCK));
    let mut left = n;
    while left > 0 {
        let take = left.min(BLOCK);
        let mut b = AccessBlock::with_capacity(take);
        gen.fill(&mut b, take, rng);
        blocks.push(b);
        left -= take;
    }
    blocks
}

struct CellResult {
    miss_measured: f64,
    miss_oracle: f64,
    mad_mean: f64,
    accesses: usize,
    ts_rows: Vec<Vec<String>>,
}

fn run_cell(cell: &Cell, lines: usize, jobs: usize, index: u64) -> CellResult {
    let per_part = lines / cell.parts;
    let items = FOOTPRINT_X * per_part;
    let measured = measured_accesses(lines);
    let warm = 3 * lines;

    let mut eng = fs_bench::sharded_engine_for(
        cell.scheme,
        lines,
        cell.shards,
        cell.parts,
        seed_for("bench_sharded", index),
    );
    eng.set_jobs(jobs);
    if cell.record {
        // A handful of ticks per shard in the measurement window; the
        // ring keeps the tail, the merge keys rows by shard.
        let cadence = (measured / cell.shards / 8).max(1) as u64;
        eng.attach_timeseries(cadence, 2048);
    }

    let gen = MultiZipf::uniform_mix(cell.parts, items, ALPHA);
    let mut rng = Prng::seed_from_u64(seed_for("bench_sharded_trace", index));

    // Warmup: cold fill + feedback settle, streamed.
    for b in generate_blocks(&gen, warm, &mut rng) {
        eng.access_batch(&b);
    }
    eng.reset_stats();

    for b in generate_blocks(&gen, measured, &mut rng) {
        eng.access_batch(&b);
    }
    let stats = eng.merged_stats();
    let ts_rows = eng.merged_recorder_rows();
    let total = stats.total_hits() + stats.total_misses();
    let miss_measured = stats.total_misses() as f64 / total.max(1) as f64;
    let mad_sum: f64 = (0..cell.parts)
        .map(|p| stats.size_mad(PartitionId(p as u16)))
        .filter(|m| m.is_finite())
        .sum();
    let mad_mean = mad_sum / cell.parts as f64;

    let miss_oracle = analysis::ZipfOracle::new(items, ALPHA).miss_rate(per_part);
    CellResult {
        miss_measured,
        miss_oracle,
        mad_mean,
        accesses: measured,
        ts_rows,
    }
}

fn fmt6(x: f64) -> String {
    if x.is_nan() {
        "nan".into()
    } else {
        format!("{x:.6}")
    }
}

fn main() {
    let scale = Scale::from_args();
    let jobs = fs_bench::cli_jobs();
    let lines = total_lines(scale);
    let cells = grid(scale);

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut ts_csv: Vec<Vec<String>> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for (i, cell) in cells.iter().enumerate() {
        let r = run_cell(cell, lines, jobs, i as u64);
        let err = (r.miss_measured - r.miss_oracle).abs();
        println!(
            "{:>9} lines {:>3} parts {:>2} shards {:12} rec={} miss {:.4} oracle {:.4} |err| {:.4} mad {:7.2}",
            lines,
            cell.parts,
            cell.shards,
            cell.scheme,
            u8::from(cell.record),
            r.miss_measured,
            r.miss_oracle,
            err,
            r.mad_mean
        );
        if cell.scheme == "fs-feedback" && err > ORACLE_TOL {
            gate_failures.push(format!(
                "{} parts={} shards={}: |{:.4} - {:.4}| = {:.4} > {ORACLE_TOL}",
                cell.scheme, cell.parts, cell.shards, r.miss_measured, r.miss_oracle, err
            ));
        }
        csv_rows.push(vec![
            lines.to_string(),
            cell.parts.to_string(),
            cell.shards.to_string(),
            cell.scheme.to_string(),
            u8::from(cell.record).to_string(),
            r.accesses.to_string(),
            fmt6(r.miss_measured),
            fmt6(r.miss_oracle),
            fmt6(err),
            fmt6(ORACLE_TOL),
            fmt6(r.mad_mean),
        ]);
        for mut row in r.ts_rows {
            let mut full = vec![cell.scheme.to_string(), cell.shards.to_string()];
            full.append(&mut row);
            ts_csv.push(full);
        }
    }

    fs_bench::save_csv(
        "sharded_validation",
        &[
            "lines",
            "partitions",
            "shards",
            "scheme",
            "record",
            "accesses",
            "miss_measured",
            "miss_oracle",
            "abs_err",
            "tolerance",
            "mad_mean",
        ],
        &csv_rows,
    );
    fs_bench::save_csv(
        "sharded_timeseries",
        &[
            "scheme", "shards", "shard", "time", "series", "part", "value",
        ],
        &ts_csv,
    );

    if !gate_failures.is_empty() {
        eprintln!("ORACLE GATE FAILED ({} cells):", gate_failures.len());
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("oracle gate OK: every fs-feedback cell within {ORACLE_TOL}");
}
