//! `perfbench`: one benchmark for host throughput and model fidelity.
//!
//! Four workloads drive the simulator through its public API
//! (`fs_bench::engine_for`, `fs_bench::sharded_engine_for`,
//! `tenancy::TenancyDriver`) with one closed-loop client: the next
//! batch of 4096 accesses is sent only after the previous one returns,
//! with at most two threads. Traffic is generated from `--seed`; the
//! engines see only the generated accesses.
//!
//! * `churn` — six grid cells at the paper's L2 geometry with a 4×
//!   footprint: the miss path.
//! * `resident` — the same cells with a footprint of half the cache:
//!   probe, hit update and stats only.
//! * `sharded` — a million-line, 8-shard, 128-partition engine on Zipf
//!   traffic: split, dispatch and join, DRAM-bound.
//! * `tenancy` — the multi-tenant closed loop of `tenancy_storm`.
//!
//! Untraced runs report the end-to-end metrics; a separate traced run
//! wraps every engine component in a timing wrapper and reports the
//! per-layer metrics, writing its spans to
//! `target/perfbench/<workload>.spans.csv`. See README.md.
//!
//! Usage:
//!   perfbench [--seed N] [--seconds S] [--out FILE]   all workloads, untraced
//!   perfbench --traced [--seed N] [--out FILE]        all workloads, traced
//!   perfbench --aa N [--seed N] [--seconds S]         N runs each: median, IQR
//!   perfbench --smoke                                 tiny geometry, every path
//!   perfbench --workload W --seed N --seconds S --trace 0|1
//!
//! The last form runs one workload in this process and ends its output
//! with one JSON line; the other forms run each workload in a child
//! process of that form, one after another.

mod cells;
mod common;
mod layers;
mod sharded;
mod timed;

use common::{Config, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in suite order.
pub const WORKLOADS: [&str; 4] = ["churn", "resident", "sharded", "tenancy"];

/// The end-to-end metrics every untraced run reports, in order.
pub const END_TO_END: [&str; 7] = [
    "accesses_per_s",
    "batch_us_p50",
    "batch_us_p99",
    "setup_s",
    "engine_heap_mib",
    "miss_ratio",
    "size_mad_lines",
];

/// Timed seconds per workload unless `--seconds` says otherwise: the
/// four-workload suite then takes about 70 s on two cores.
/// BENCHMARK.json asks for longer runs, which are steadier.
const DEFAULT_SECONDS: u64 = 10;

/// Run one workload in this process.
pub fn run_workload(workload: &str, cfg: &Config, traced: bool) -> Outcome {
    match workload {
        "churn" => cells::run(cells::Kind::Churn, cfg, traced),
        "resident" => cells::run(cells::Kind::Resident, cfg, traced),
        "sharded" => sharded::run_sharded(cfg, traced),
        "tenancy" => sharded::run_tenancy(cfg, traced),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
    aa: Option<usize>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from("target/perfbench/results.json"),
        aa: None,
        smoke: false,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w: String = value(&flag, it.next())?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value(&flag, it.next())?,
            "--seconds" => {
                a.seconds = value(&flag, it.next())?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => match value::<u8>(&flag, it.next())? {
                0 => a.traced = false,
                1 => a.traced = true,
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--traced" => a.traced = true,
            "--out" => a.out = PathBuf::from(value::<String>(&flag, it.next())?),
            "--aa" => {
                let n: usize = value(&flag, it.next())?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs".into());
                }
                a.aa = Some(n);
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return if smoke(true) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(w) = &args.workload {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds as f64,
            smoke: false,
        };
        let out = checked(w, &cfg, args.traced);
        print_outcome(w, &out);
        println!("{}", result_json(&out));
        return ExitCode::SUCCESS;
    }
    match args.aa {
        Some(n) => aa(&args, n),
        None => suite(&args),
    }
}

/// Run one workload and add the check that every metric it reports is
/// a finite number.
fn checked(workload: &str, cfg: &Config, traced: bool) -> Outcome {
    let mut out = run_workload(workload, cfg, traced);
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    out.checks
        .check(bad.is_empty(), || format!("metrics not finite: {bad:?}"));
    out
}

fn print_outcome(workload: &str, out: &Outcome) {
    for m in out.metrics.iter().chain(&out.info) {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{workload} checks_attempted {} count", out.checks.attempted);
    println!("{workload} check_failures {} count", out.checks.failed);
    for f in &out.checks.failures {
        eprintln!("{workload}: check failed: {f}");
    }
}

/// The one-line result: correctness, checks and the mode's metrics.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a non-finite value already failed a check.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        metrics.join(", ")
    )
}

/// One `workload metric value unit` line read back from a child.
struct Line {
    name: String,
    value: f64,
    unit: String,
}

/// Run `workload` in a child process and collect its printed lines.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Vec<Line>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = Vec::new();
    for line in text.lines() {
        if let [w, name, value, unit] = line.split(' ').collect::<Vec<_>>()[..] {
            if w == workload {
                lines.push(Line {
                    name: name.to_string(),
                    value: value
                        .parse()
                        .map_err(|_| format!("{workload}: bad value in {line:?}"))?,
                    unit: unit.to_string(),
                });
            }
        }
    }
    Ok(lines)
}

fn suite(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut json = Vec::new();
    for w in WORKLOADS {
        match child(w, args.seed, args.seconds, args.traced) {
            Ok(lines) => {
                let failed = lines
                    .iter()
                    .find(|m| m.name == "check_failures")
                    .map_or(1.0, |m| m.value);
                ok &= failed == 0.0;
                for m in &lines {
                    println!("{w} {} {} {}", m.name, m.value, m.unit);
                }
                let fields: Vec<String> = lines
                    .iter()
                    .map(|m| {
                        format!(
                            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                            m.name, m.value, m.unit
                        )
                    })
                    .collect();
                json.push(format!("\"{w}\": {{{}}}", fields.join(", ")));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ok = false;
            }
        }
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"traced\": {}, \"workloads\": {{{}}}}}\n",
        args.seed,
        args.seconds,
        args.traced,
        json.join(", ")
    );
    if let Some(dir) = args.out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&args.out, doc) {
        eprintln!("perfbench: write {}: {e}", args.out.display());
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: `n` runs of every workload with seeds `seed..seed+n`, reporting
/// each metric's median and quartiles and the quartile spread as a
/// share of the median — the numbers the regression bounds come from.
fn aa(args: &Args, n: usize) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<9} {:<32} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "median", "q1", "q3", "iqr/med"
    );
    for w in WORKLOADS {
        let mut runs: Vec<Vec<Line>> = Vec::new();
        for i in 0..n as u64 {
            match child(w, args.seed + i, args.seconds, args.traced) {
                Ok(m) => runs.push(m),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ok = false;
                }
            }
        }
        let Some(first) = runs.first() else { continue };
        for m in first {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            let [q1, med, q3] = common::quartiles(&values);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!(
                "{w:<9} {:<32} {med:>16.6} {q1:>16.6} {q3:>16.6} {:>7.2}%",
                m.name,
                spread * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced and traced, at tiny geometry in this
/// process. Passes when every check passes and every run reports
/// exactly its mode's metrics.
fn smoke(print: bool) -> bool {
    let cfg = Config {
        seed: 1,
        seconds: 0.0,
        smoke: true,
    };
    let per_layer = layers::listing();
    let mut ok = true;
    for w in WORKLOADS {
        for traced in [false, true] {
            let out = checked(w, &cfg, traced);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let expect: Vec<&str> = if traced {
                per_layer.iter().map(|m| m.name.as_str()).collect()
            } else {
                END_TO_END.to_vec()
            };
            if names != expect {
                eprintln!("{w}: metrics {names:?}, expected {expect:?}");
                ok = false;
            }
            if print {
                print_outcome(w, &out);
            }
            ok &= out.checks.failed == 0;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `key` string of every entry listed under `section` of
    /// BENCHMARK.json.
    fn benchmark_field(section: &str, key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split(&format!("\"{key}\":"))
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted value").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        assert_eq!(benchmark_field("workloads", "name"), WORKLOADS);
        // Every workload reports these metrics in this order (the smoke
        // test checks that), so one untraced run shows their units.
        let cfg = Config {
            seed: 1,
            seconds: 0.0,
            smoke: true,
        };
        let untraced = run_workload("resident", &cfg, false).metrics;
        for (section, metrics) in [("end_to_end", untraced), ("per_layer", layers::listing())] {
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let listed: Vec<(String, String)> = benchmark_field(section, "name")
                .into_iter()
                .zip(benchmark_field(section, "unit"))
                .collect();
            assert_eq!(reported, listed, "{section}");
        }
    }

    #[test]
    fn smoke_runs_every_workload_without_check_failures() {
        assert!(smoke(false));
    }

    #[test]
    fn argument_errors_are_reported() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--bogus").is_err());
        let a = parse("--workload churn --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("churn"), 9, 10, true)
        );
    }
}
