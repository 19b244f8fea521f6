//! End-to-end engine throughput over the full workload × array ×
//! ranking × scheme grid: fixed deterministic traces, one cell per
//! combination, accesses/sec per cell plus a geomean, emitted as
//! machine-readable `BENCH_engine.json` so the perf trajectory is
//! tracked from PR to PR.
//!
//! Two workloads bracket the engine's two hot paths:
//! * `churn` — per-partition footprint 4× the cache, so the steady
//!   state is eviction-heavy (the miss/replacement path dominates);
//! * `resident` — total footprint half the cache, so after the cold
//!   fill every access hits (the lookup/hit path dominates, as in the
//!   Fig 6/7 sweeps).
//!
//! Usage:
//!   bench_engine [--smoke|--quick] [--out FILE] [--filter SUBSTR]
//!   bench_engine --validate FILE                  # check an emitted file
//!   bench_engine --validate FILE --against BASE   # + fail on >10% geomean drop
//!
//! `--filter` restricts measurement to cells whose
//! `workload/array/ranking/scheme` quad contains the substring — for
//! quick one-component comparisons; a filtered file will not pass
//! `--validate`.
//!
//! `ci.sh` runs the smoke version and then `--validate`s the emitted
//! file: it must parse, contain a cell for every grid point, and carry a
//! finite positive geomean (printed in the CI log).

use cachesim::prng::{seed_for, Prng};
use cachesim::{AccessMeta, Engine, PartitionId, Trace};
use fs_bench::Scale;
use std::time::Instant;

const ARRAYS: [&str; 5] = [
    "set-assoc",
    "skew-assoc",
    "zcache",
    "rand-cands",
    "fully-assoc",
];
const SCHEMES: [&str; 6] = [
    "unpartitioned",
    "pf",
    "cqvp",
    "fs-feedback",
    "vantage",
    "prism",
];
const WORKLOADS: [&str; 2] = ["churn", "resident"];
const PARTS: usize = 4;
/// Cache size in lines at full scale (256KB of 64B lines).
const FULL_LINES: usize = 4096;
/// Trace length at full scale.
const FULL_ACCESSES: usize = 100_000;
/// Minimum timed accesses per cell (short traces are repeated so the
/// smoke measurement is not pure timer noise).
const MIN_TIMED: usize = 20_000;

/// A partition-interleaved workload over per-partition address
/// namespaces, annotated with next-use for OPT. `churn` draws each
/// partition's addresses from a universe as large as the whole cache
/// (4× total footprint → eviction-heavy); `resident` draws from 1/8th
/// of it (total footprint half the cache → all hits once warm).
struct Workload {
    parts: Vec<PartitionId>,
    addrs: Vec<u64>,
    metas: Vec<AccessMeta>,
}

impl Workload {
    fn generate(kind: &str, accesses: usize, lines: usize) -> Workload {
        let (seed_idx, universe) = match kind {
            "churn" => (0, lines as u64),
            "resident" => (1, (lines as u64 / 8).max(1)),
            other => panic!("unknown workload {other}"),
        };
        let mut rng = Prng::seed_from_u64(seed_for("bench_engine", seed_idx));
        let mut parts = Vec::with_capacity(accesses);
        let mut addrs = Vec::with_capacity(accesses);
        for _ in 0..accesses {
            let p: u16 = rng.gen_range(0..PARTS as u16);
            parts.push(PartitionId(p));
            addrs.push(p as u64 * 1_000_000 + rng.gen_range(0..universe));
        }
        let trace = Trace::from_addrs(addrs.iter().copied(), 1);
        let metas = trace
            .annotate_next_use()
            .into_iter()
            .map(AccessMeta::with_next_use)
            .collect();
        Workload {
            parts,
            addrs,
            metas,
        }
    }

    /// One full pass through the trace via the batched pipeline (one
    /// virtual call per pass; lookups software-pipelined inside).
    fn drive(&self, cache: &mut dyn Engine) {
        cache.access_batch_slices(&self.parts, &self.addrs, &self.metas);
    }
}

fn measure_cell(array: &str, ranking: &str, scheme: &str, lines: usize, wl: &Workload) -> f64 {
    // Monomorphized core for this array × ranking combination.
    let mut cache = fs_bench::engine_for(array, ranking, scheme, lines, 7, PARTS);
    cache.stats_mut().sample_deviation = false;
    // Warm up: fill the cache and size every internal structure.
    wl.drive(cache.as_mut());
    // Time each pass separately and report the best rate: throughput
    // noise on a shared machine is one-sided (competing load only slows
    // a pass down), so max-of-passes estimates the engine's capability
    // far more stably than the mean — which keeps the `--against`
    // regression gate from tripping on background load.
    let reps = MIN_TIMED.div_ceil(wl.addrs.len()).max(1);
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        wl.drive(cache.as_mut());
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max(wl.addrs.len() as f64 / dt);
    }
    best
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

fn run_grid() {
    let scale = Scale::from_args();
    let filter = cli_value("--filter");
    let lines = scale.lines(FULL_LINES);
    let accesses = scale.accesses(FULL_ACCESSES);

    let mut cells = String::new();
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for workload in WORKLOADS {
        let wl = Workload::generate(workload, accesses, lines);
        for array in ARRAYS {
            for ranking in ranking::ALL_RANKINGS {
                for scheme in SCHEMES {
                    if let Some(f) = &filter {
                        if !format!("{workload}/{array}/{ranking}/{scheme}").contains(f.as_str()) {
                            continue;
                        }
                    }
                    let aps = measure_cell(array, ranking, scheme, lines, &wl);
                    if n > 0 {
                        cells.push_str(",\n");
                    }
                    cells.push_str(&format!(
                        "    {{\"workload\":\"{workload}\",\"array\":\"{array}\",\"ranking\":\"{ranking}\",\"scheme\":\"{scheme}\",\"accesses_per_sec\":{aps:.1}}}"
                    ));
                    log_sum += aps.ln();
                    n += 1;
                    println!("{workload:8} {array:12} {ranking:11} {scheme:14} {aps:>12.0} acc/s");
                }
            }
        }
    }
    let geomean = (log_sum / n as f64).exp();
    let json = format!(
        "{{\n  \"bench\": \"bench_engine\",\n  \"scale\": \"{}\",\n  \"lines\": {},\n  \"partitions\": {},\n  \"trace_accesses\": {},\n  \"cells\": [\n{}\n  ],\n  \"geomean_accesses_per_sec\": {:.1}\n}}\n",
        scale_name(scale),
        lines,
        PARTS,
        accesses,
        cells,
        geomean
    );
    let out = cli_value("--out").unwrap_or_else(|| "BENCH_engine.json".into());
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\n{n} cells, geomean {geomean:.0} accesses/sec -> {out}");
}

/// Dependency-free validation of an emitted file: every grid point has a
/// cell and the geomean parses to a finite positive number.
fn validate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut missing = 0usize;
    for workload in WORKLOADS {
        for array in ARRAYS {
            for ranking in ranking::ALL_RANKINGS {
                for scheme in SCHEMES {
                    let needle = format!(
                        "{{\"workload\":\"{workload}\",\"array\":\"{array}\",\"ranking\":\"{ranking}\",\"scheme\":\"{scheme}\",\"accesses_per_sec\":"
                    );
                    if !text.contains(&needle) {
                        eprintln!("missing cell: {workload} × {array} × {ranking} × {scheme}");
                        missing += 1;
                    }
                }
            }
        }
    }
    let geomean = text
        .split("\"geomean_accesses_per_sec\":")
        .nth(1)
        .and_then(|s| {
            let end = s.find('}')?;
            s[..end].trim().parse::<f64>().ok()
        });
    match (missing, geomean) {
        (0, Some(g)) if g.is_finite() && g > 0.0 => {
            println!(
                "{path} OK: {} cells, geomean {g:.0} accesses/sec",
                WORKLOADS.len() * ARRAYS.len() * ranking::ALL_RANKINGS.len() * SCHEMES.len()
            );
            // Per-workload halves, so churn (miss-path) and resident
            // (hit-path) throughput are visible separately in the CI
            // log — a win on one half cannot mask the other.
            for (workload, g, n) in half_geomeans(&text) {
                println!("  {workload:8} half: {n} cells, geomean {g:.0} accesses/sec");
            }
        }
        (m, g) => {
            eprintln!("{path} INVALID: {m} missing cells, geomean {g:?}");
            std::process::exit(1);
        }
    }
}

/// Per-workload-half geomeans recovered from an emitted file's cells
/// without a JSON parser: every cell carries its workload tag and rate
/// in one object, so splitting on the cell prefix yields one
/// `(workload, accesses_per_sec)` pair per segment. Returns
/// `(workload, geomean, cell_count)` per workload, in `WORKLOADS`
/// order.
fn half_geomeans(text: &str) -> Vec<(&'static str, f64, usize)> {
    let mut acc: Vec<(&'static str, f64, usize)> =
        WORKLOADS.iter().map(|w| (*w, 0.0f64, 0usize)).collect();
    for seg in text.split("{\"workload\":\"").skip(1) {
        let Some((workload, rest)) = seg.split_once('"') else {
            continue;
        };
        let Some(aps) = rest.split("\"accesses_per_sec\":").nth(1).and_then(|s| {
            let end = s.find('}')?;
            s[..end].trim().parse::<f64>().ok()
        }) else {
            continue;
        };
        for slot in acc.iter_mut() {
            if slot.0 == workload {
                slot.1 += aps.ln();
                slot.2 += 1;
            }
        }
    }
    for slot in acc.iter_mut() {
        slot.1 = if slot.2 > 0 {
            (slot.1 / slot.2 as f64).exp()
        } else {
            f64::NAN
        };
    }
    acc
}

/// Extract `"geomean_accesses_per_sec": <f64>` and `"scale": "<name>"`
/// from an emitted file without a JSON parser.
fn parse_summary(path: &str) -> (f64, String) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let geomean = text
        .split("\"geomean_accesses_per_sec\":")
        .nth(1)
        .and_then(|s| {
            let end = s.find('}')?;
            s[..end].trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("{path}: no parsable geomean"));
    let scale = text
        .split("\"scale\": \"")
        .nth(1)
        .and_then(|s| Some(s[..s.find('"')?].to_string()))
        .unwrap_or_else(|| panic!("{path}: no scale field"));
    (geomean, scale)
}

/// Regression gate: compare a freshly emitted file against a committed
/// baseline at the same scale; fail (exit 1) if the overall geomean —
/// or either per-workload half — dropped by more than 10%. Gating the
/// churn and resident halves separately keeps a large win on one half
/// from masking a regression on the other. A single-shot run is noisier
/// than perfbench's repeated runs (`perfbench --aa N`), so the
/// tolerance is deliberately loose — this catches "accidentally made
/// the engine 2× slower", not 3% drifts.
fn compare_against(current: &str, baseline: &str) {
    let (cur, cur_scale) = parse_summary(current);
    let (base, base_scale) = parse_summary(baseline);
    if cur_scale != base_scale {
        eprintln!("scale mismatch: {current}={cur_scale}, {baseline}={base_scale}");
        std::process::exit(1);
    }
    let ratio = cur / base;
    println!(
        "{current} geomean {cur:.0} vs {baseline} geomean {base:.0} ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
    let mut regressed = !ratio.is_finite() || ratio < 0.90;
    let cur_text =
        std::fs::read_to_string(current).unwrap_or_else(|e| panic!("read {current}: {e}"));
    let base_text =
        std::fs::read_to_string(baseline).unwrap_or_else(|e| panic!("read {baseline}: {e}"));
    for ((workload, c, cn), (_, b, bn)) in half_geomeans(&cur_text)
        .into_iter()
        .zip(half_geomeans(&base_text))
    {
        if cn == 0 || bn == 0 {
            continue; // filtered halves carry no signal; the overall gate stands
        }
        let r = c / b;
        println!(
            "  {workload:8} half: {c:.0} vs {b:.0} ({:+.1}%)",
            (r - 1.0) * 100.0
        );
        if !r.is_finite() || r < 0.90 {
            eprintln!("REGRESSION: {workload}-half geomean dropped more than 10%");
            regressed = true;
        }
    }
    if regressed {
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
    run_grid();
}
