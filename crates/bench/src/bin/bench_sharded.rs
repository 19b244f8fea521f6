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
//! Outputs are split by determinism:
//! * `results/sharded_validation.csv` + `results/sharded_timeseries.csv`
//!   — miss rates, oracle errors, MADs, merged recorder rows. No
//!   timing. Byte-identical for any `--jobs N` (ci.sh cmp-gates this).
//! * `BENCH_sharded.json` — accesses/sec per cell, geomean, shard
//!   scaling. Timing only; regression-gated via `--validate --against`.
//!
//! Usage:
//!   bench_sharded [--smoke|--quick] [--jobs N] [--out FILE]
//!   bench_sharded --validate FILE [--against BASE]

use cachesim::engine::AccessBlock;
use cachesim::prng::{seed_for, Prng};
use cachesim::PartitionId;
use fs_bench::Scale;
use std::time::Instant;
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
/// therefore takes the scalar per-shard path — its timing is reported
/// but the shard-scaling numbers come from the unrecorded cells).
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

/// Pre-generate `n` accesses as ready-to-feed blocks (generation cost
/// excluded from timing).
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
    aps: f64,
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

    // Warmup: cold fill + feedback settle, streamed (not timed).
    for b in generate_blocks(&gen, warm, &mut rng) {
        eng.access_batch(&b);
    }
    eng.reset_stats();

    // Measured pass: stats + first timing sample.
    let blocks = generate_blocks(&gen, measured, &mut rng);
    let t0 = Instant::now();
    for b in &blocks {
        eng.access_batch(b);
    }
    let mut aps = measured as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Everything deterministic is read *now*, before the extra timing
    // pass pollutes counters and recorder rings.
    let stats = eng.merged_stats();
    let ts_rows = eng.merged_recorder_rows();
    let total = stats.total_hits() + stats.total_misses();
    let miss_measured = stats.total_misses() as f64 / total.max(1) as f64;
    let mad_sum: f64 = (0..cell.parts)
        .map(|p| stats.size_mad(PartitionId(p as u16)))
        .filter(|m| m.is_finite())
        .sum();
    let mad_mean = mad_sum / cell.parts as f64;

    // Second timed pass, best-of like bench_engine: throughput noise on
    // a shared machine is one-sided.
    let t0 = Instant::now();
    for b in &blocks {
        eng.access_batch(b);
    }
    aps = aps.max(measured as f64 / t0.elapsed().as_secs_f64().max(1e-9));

    let miss_oracle = analysis::ZipfOracle::new(items, ALPHA).miss_rate(per_part);
    CellResult {
        miss_measured,
        miss_oracle,
        mad_mean,
        accesses: measured,
        aps,
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

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
        Scale::Smoke => "smoke",
    }
}

fn cli_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn sweep() {
    let scale = Scale::from_args();
    let jobs = fs_bench::cli_jobs();
    let lines = total_lines(scale);
    let cells = grid(scale);

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut ts_csv: Vec<Vec<String>> = Vec::new();
    let mut json_cells = String::new();
    let mut log_sum = 0.0f64;
    let mut gate_failures: Vec<String> = Vec::new();
    let mut shard_aps: Vec<(usize, f64)> = Vec::new();

    for (i, cell) in cells.iter().enumerate() {
        let r = run_cell(cell, lines, jobs, i as u64);
        let err = (r.miss_measured - r.miss_oracle).abs();
        println!(
            "{:>9} lines {:>3} parts {:>2} shards {:12} rec={} miss {:.4} oracle {:.4} |err| {:.4} mad {:7.2} {:>12.0} acc/s",
            lines,
            cell.parts,
            cell.shards,
            cell.scheme,
            u8::from(cell.record),
            r.miss_measured,
            r.miss_oracle,
            err,
            r.mad_mean,
            r.aps
        );
        if cell.scheme == "fs-feedback" && err > ORACLE_TOL {
            gate_failures.push(format!(
                "{} parts={} shards={}: |{:.4} - {:.4}| = {:.4} > {ORACLE_TOL}",
                cell.scheme, cell.parts, cell.shards, r.miss_measured, r.miss_oracle, err
            ));
        }
        // Shard-scaling summary draws only on the shard sweep proper
        // (base partition count, no recorder).
        if cell.scheme == "fs-feedback" && !cell.record && cell.parts == cells[0].parts {
            shard_aps.push((cell.shards, r.aps));
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
        if i > 0 {
            json_cells.push_str(",\n");
        }
        json_cells.push_str(&format!(
            "    {{\"lines\":{lines},\"partitions\":{},\"shards\":{},\"scheme\":\"{}\",\"record\":{},\"accesses_per_sec\":{:.1}}}",
            cell.parts,
            cell.shards,
            cell.scheme,
            cell.record,
            r.aps
        ));
        log_sum += r.aps.ln();
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

    // Shard-scaling summary over the unrecorded fs-feedback sweep: the
    // ratio of each shard count's throughput to the 1-shard cell.
    let base = shard_aps
        .iter()
        .find(|&&(s, _)| s == 1)
        .map(|&(_, a)| a)
        .unwrap_or(f64::NAN);
    let mut scaling = String::new();
    for &(s, a) in &shard_aps {
        if s == 1 {
            continue;
        }
        if !scaling.is_empty() {
            scaling.push_str(",\n");
        }
        scaling.push_str(&format!(
            "    {{\"shards\":{s},\"speedup_vs_1\":{:.3}}}",
            a / base
        ));
        println!("scaling: {s} shards {:.2}x vs 1 shard", a / base);
    }

    let geomean = (log_sum / cells.len() as f64).exp();
    let json = format!(
        "{{\n  \"bench\": \"bench_sharded\",\n  \"scale\": \"{}\",\n  \"lines\": {},\n  \"jobs\": {},\n  \"cells\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ],\n  \"geomean_accesses_per_sec\": {:.1}\n}}\n",
        scale_name(scale),
        lines,
        jobs,
        json_cells,
        scaling,
        geomean
    );
    let out = cli_value("--out").unwrap_or_else(|| "BENCH_sharded.json".into());
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "\n{} cells, geomean {geomean:.0} accesses/sec -> {out}",
        cells.len()
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

/// Dependency-free validation of an emitted file: a cell for every
/// grid point of the file's scale, and a finite positive geomean.
fn validate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let scale = match text.split("\"scale\": \"").nth(1).and_then(|s| {
        let end = s.find('"')?;
        Some(&s[..end])
    }) {
        Some("full") => Scale::Full,
        Some("quick") => Scale::Quick,
        Some("smoke") => Scale::Smoke,
        other => {
            eprintln!("{path} INVALID: unknown scale {other:?}");
            std::process::exit(1);
        }
    };
    let lines = total_lines(scale);
    let mut missing = 0usize;
    let cells = grid(scale);
    for cell in &cells {
        let needle = format!(
            "{{\"lines\":{lines},\"partitions\":{},\"shards\":{},\"scheme\":\"{}\",\"record\":{},\"accesses_per_sec\":",
            cell.parts, cell.shards, cell.scheme, cell.record
        );
        if !text.contains(&needle) {
            eprintln!(
                "missing cell: parts={} shards={} scheme={} record={}",
                cell.parts, cell.shards, cell.scheme, cell.record
            );
            missing += 1;
        }
    }
    let geomean = parse_geomean(&text);
    match (missing, geomean) {
        (0, Some(g)) if g.is_finite() && g > 0.0 => {
            println!(
                "{path} OK: {} cells, geomean {g:.0} accesses/sec",
                cells.len()
            );
        }
        (m, g) => {
            eprintln!("{path} INVALID: {m} missing cells, geomean {g:?}");
            std::process::exit(1);
        }
    }
}

fn parse_geomean(text: &str) -> Option<f64> {
    text.split("\"geomean_accesses_per_sec\":")
        .nth(1)
        .and_then(|s| {
            let end = s.find('}')?;
            s[..end].trim().parse::<f64>().ok()
        })
}

/// Regression gate vs a committed baseline at the same scale: fail on
/// a geomean drop of more than 10%. Deliberately loose (single-shot
/// timing), same rationale as `bench_engine`.
fn compare_against(current: &str, baseline: &str) {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let (cur_text, base_text) = (read(current), read(baseline));
    let scale_of = |text: &str| {
        text.split("\"scale\": \"")
            .nth(1)
            .and_then(|s| Some(s[..s.find('"')?].to_string()))
    };
    if scale_of(&cur_text) != scale_of(&base_text) {
        eprintln!("scale mismatch between {current} and {baseline}");
        std::process::exit(1);
    }
    let cur = parse_geomean(&cur_text).unwrap_or_else(|| panic!("{current}: no geomean"));
    let base = parse_geomean(&base_text).unwrap_or_else(|| panic!("{baseline}: no geomean"));
    let ratio = cur / base;
    println!(
        "{current} geomean {cur:.0} vs {baseline} geomean {base:.0} ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
    if !ratio.is_finite() || ratio < 0.90 {
        eprintln!("REGRESSION: geomean dropped more than 10% vs the committed baseline");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).expect("--validate needs a file path");
        validate(path);
        if let Some(baseline) = cli_value("--against") {
            compare_against(path, &baseline);
        }
        return;
    }
    sweep();
}
