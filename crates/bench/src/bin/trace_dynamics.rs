//! Render the *temporal* behavior behind the paper's summary figures,
//! using the cachesim flight recorder:
//!
//! * `fs-walk` — the Figure-5 random walk: Partition 1's occupancy
//!   deviation from target under analytic FS at I1 = 0.1 and I1 = 0.5.
//! * `feedback` — the Figure-8 controller: feedback-FS shift-width /
//!   scaling-factor trajectories while holding an asymmetric 70/30
//!   split under equal insertion pressure.
//! * `vantage` — Vantage's aperture and `fmax`-calibration dynamics
//!   plus the forced-eviction rate on the same asymmetric split.
//!
//! Each scenario writes its full time series (long format, plus a
//! scenario column) into `results/trace_dynamics.csv` and prints ASCII
//! strip charts of the headline series. Deterministic for a given
//! scale: seeds derive from `seed_for("trace_dynamics", index)`.
//!
//! Usage: trace_dynamics [--smoke|--quick]

use cachesim::prng::{seed_for, SplitMix64};
use cachesim::{PartitionId, PartitionedCache, Sample};
use fs_bench::Scale;
use futility_core::scaling::alpha_two_partitions;
use futility_core::{FsAnalytic, FsFeedback};
use workloads::{benchmark, RateControlledDriver};

const R: usize = 16;

struct Scenario {
    name: String,
    samples: Vec<Sample>,
    csv_rows: Vec<Vec<String>>,
}

/// Build the two-thread mcf substrate of Section IV, run `warmup`
/// insertions, reset stats, attach the recorder and run `insertions`
/// more. Returns the recorded samples + CSV rows.
fn run_recorded(
    name: &str,
    mut cache: PartitionedCache,
    rates: Vec<f64>,
    warmup: u64,
    insertions: u64,
    seed: u64,
) -> Scenario {
    let mut sm = SplitMix64::new(seed);
    let mcf = benchmark("mcf").expect("profile");
    let trace_len = ((warmup + insertions) as usize) * 5;
    let traces: Vec<_> = (0..rates.len())
        .map(|i| mcf.generate_with_base(trace_len, sm.next_u64(), (i as u64) << 40))
        .collect();
    let mut driver = RateControlledDriver::new(traces, rates, sm.next_u64());
    driver.run(&mut cache, warmup);
    cache.stats_mut().reset();
    cache.attach_timeseries((insertions / 256).max(1), 1 << 16);
    driver.run(&mut cache, insertions);
    let ts = cache.timeseries().expect("recorder attached");
    Scenario {
        name: name.to_string(),
        samples: ts.samples().copied().collect(),
        csv_rows: ts.rows(),
    }
}

fn fs_walk(scale: Scale, index: &mut u64) -> Vec<Scenario> {
    let lines = scale.lines(fs_bench::lines_of_kb(2048));
    let insertions = scale.accesses(150_000) as u64;
    let warmup = (lines * 22) as u64;
    [0.1f64, 0.5]
        .iter()
        .map(|&i1| {
            let seed = seed_for("trace_dynamics", next_index(index));
            let mut sm = SplitMix64::new(seed);
            let a2 = alpha_two_partitions(i1, 0.5, R).expect("feasible");
            let mut cache = PartitionedCache::new(
                fs_bench::random_array(lines, R, sm.next_u64()),
                fs_bench::futility_ranking("lru"),
                Box::new(FsAnalytic::with_alphas(vec![1.0, a2])),
                2,
            );
            cache.set_targets(&[lines / 2, lines / 2]);
            run_recorded(
                &format!("fs-walk(I1={i1})"),
                cache,
                vec![i1, 1.0 - i1],
                warmup,
                insertions,
                sm.next_u64(),
            )
        })
        .collect()
}

fn feedback(scale: Scale, index: &mut u64) -> Vec<Scenario> {
    let lines = scale.lines(fs_bench::lines_of_kb(2048));
    let insertions = scale.accesses(100_000) as u64;
    let warmup = (lines * 8) as u64;
    let seed = seed_for("trace_dynamics", next_index(index));
    let mut sm = SplitMix64::new(seed);
    let mut cache = PartitionedCache::new(
        fs_bench::random_array(lines, R, sm.next_u64()),
        fs_bench::futility_ranking("coarse-lru"),
        Box::new(FsFeedback::default_config()),
        2,
    );
    let t0 = lines * 7 / 10;
    cache.set_targets(&[t0, lines - t0]);
    vec![run_recorded(
        "feedback(l=16,da=2)",
        cache,
        vec![0.5, 0.5],
        warmup,
        insertions,
        sm.next_u64(),
    )]
}

fn vantage(scale: Scale, index: &mut u64) -> Vec<Scenario> {
    let lines = scale.lines(fs_bench::lines_of_kb(2048));
    let insertions = scale.accesses(100_000) as u64;
    let warmup = (lines * 8) as u64;
    let seed = seed_for("trace_dynamics", next_index(index));
    let mut sm = SplitMix64::new(seed);
    let mut cache = PartitionedCache::new(
        fs_bench::random_array(lines, R, sm.next_u64()),
        fs_bench::futility_ranking("lru"),
        fs_bench::scheme("vantage"),
        2,
    );
    let t0 = lines * 7 / 10;
    cache.set_targets(&[t0, lines - t0]);
    vec![run_recorded(
        "vantage(70/30)",
        cache,
        vec![0.5, 0.5],
        warmup,
        insertions,
        sm.next_u64(),
    )]
}

fn next_index(index: &mut u64) -> u64 {
    let i = *index;
    *index += 1;
    i
}

/// Values of one `(series, part)` over time, in sample order.
fn series_of(samples: &[Sample], series: &str, part: Option<u16>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.series == series && s.part == part.map(PartitionId))
        .map(|s| s.value)
        .collect()
}

/// One-line ASCII strip chart: values bucketed to at most 72 columns,
/// levels mapped onto a 10-character ramp between the series min/max.
fn strip(values: &[f64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "(no data)".into();
    }
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let cols = finite.len().min(72);
    let per = (finite.len() as f64 / cols as f64).ceil() as usize;
    let mut out = String::with_capacity(cols);
    for chunk in finite.chunks(per) {
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let t = if max > min {
            (mean - min) / (max - min)
        } else {
            0.5
        };
        let lvl = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
        out.push(RAMP[lvl] as char);
    }
    out
}

fn mean_abs(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().map(|v| v.abs()).sum::<f64>() / finite.len() as f64
    }
}

fn show(label: &str, values: &[f64]) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    println!(
        "  {label:<22} [{min:>9.2}, {max:>9.2}]  |{}|",
        strip(values)
    );
}

fn main() {
    let scale = Scale::from_args();
    let mut index = 0u64;
    let mut scenarios = Vec::new();
    scenarios.extend(fs_walk(scale, &mut index));
    scenarios.extend(feedback(scale, &mut index));
    scenarios.extend(vantage(scale, &mut index));

    // One combined long-format CSV, scenario column first.
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .flat_map(|sc| {
            sc.csv_rows.iter().map(|r| {
                let mut row = Vec::with_capacity(r.len() + 1);
                row.push(sc.name.clone());
                row.extend(r.iter().cloned());
                row
            })
        })
        .collect();
    fs_bench::save_csv(
        "trace_dynamics",
        &["scenario", "time", "series", "part", "value"],
        &rows,
    );
    println!(
        "trace_dynamics: {} scenarios, {} samples -> results/trace_dynamics.csv\n",
        scenarios.len(),
        rows.len()
    );

    // Figure-5 walk: the deviation of Partition 1 under both splits.
    println!("## Figure-5-style deviation walk (P1 occupancy - target, lines)");
    let mut walk_mads = Vec::new();
    for sc in scenarios.iter().filter(|s| s.name.starts_with("fs-walk")) {
        let dev = series_of(&sc.samples, "deviation", Some(0));
        walk_mads.push((sc.name.clone(), mean_abs(&dev)));
        show(&sc.name, &dev);
    }
    for (name, mad) in &walk_mads {
        println!("  sampled MAD {name}: {mad:.1} lines");
    }
    println!();

    // Figure-8 controller: shift widths and the partition they steer.
    println!("## Feedback controller trajectories (Algorithm 2)");
    for sc in scenarios.iter().filter(|s| s.name.starts_with("feedback")) {
        for p in [0u16, 1] {
            show(
                &format!("shift_width P{}", p + 1),
                &series_of(&sc.samples, "shift_width", Some(p)),
            );
        }
        show(
            "deviation P2",
            &series_of(&sc.samples, "deviation", Some(1)),
        );
    }
    println!();

    // Vantage: apertures, calibration and forced evictions.
    println!("## Vantage aperture / calibration dynamics");
    for sc in scenarios.iter().filter(|s| s.name.starts_with("vantage")) {
        for p in [0u16, 1] {
            show(
                &format!("aperture P{}", p + 1),
                &series_of(&sc.samples, "aperture", Some(p)),
            );
        }
        show("fmax P1", &series_of(&sc.samples, "fmax", Some(0)));
        show(
            "forced_evict_rate",
            &series_of(&sc.samples, "forced_eviction_rate", None),
        );
        show(
            "unmanaged occupancy",
            &series_of(&sc.samples, "unmanaged_occupancy", None),
        );
    }
}
