//! The per-layer metrics of a traced run, assembled from the ledger and
//! the spans the workloads time around their calls into the engine.

use crate::common::{metric, Checks, Metric, Outcome};
use crate::timed::{Calibration, Extra, Layer, LedgerData, Span, LAYERS};
use std::io::Write;
use std::path::PathBuf;

/// The six single-engine cells, by name (see `cells`).
pub const CELL_NAMES: [&str; 6] = [
    "sa-coarse-fs",
    "zc-coarse-fs",
    "rc-lru-fs",
    "sa-lru-vantage",
    "sa-coarse-prism",
    "fa-coarse-fs",
];

/// Spans timed around the sharded engine (see `sharded::ShardedTrace`).
#[derive(Debug, Default)]
pub struct ShardedTotals {
    /// Duplicate `split` calls, every batch.
    pub split_ns: u64,
    /// Sequential batches: per-shard `access_batch` calls, summed.
    pub seq_compute_ns: u64,
    pub seq_accesses: u64,
    /// Parallel batches: `access_batch` wall and its duplicate split.
    pub par_wall_ns: u64,
    pub par_split_ns: u64,
    pub par_accesses: u64,
    /// Σ over batches of (largest sub-block − mean sub-block), accesses.
    pub imbalance: f64,
    pub batches: u64,
}

/// Spans timed around the allocator (see `sharded::replay_tenancy`).
#[derive(Debug, Default)]
pub struct TenancyTotals {
    pub observe_ns: u64,
    pub resolve_ns: u64,
    pub resolves: u64,
    pub set_targets_ns: u64,
}

/// Everything a traced run measured outside the wrappers.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Accesses in the traced region.
    pub accesses: u64,
    /// Accesses of sequential engine batches, and those batches' wall
    /// time: the base of every component's self time.
    pub seq_accesses: u64,
    pub seq_engine_ns: u64,
    /// The same fixed work untraced and traced, for `trace.overhead`.
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Untraced accesses/s of each single-engine cell.
    pub cells: Vec<(&'static str, f64)>,
    pub sharded: ShardedTotals,
    pub tenancy: TenancyTotals,
}

fn per(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

/// Every per-layer metric, in reporting order, with its unit (and a
/// value of 0).
pub fn listing() -> Vec<Metric> {
    per_layer(
        &LedgerData::default(),
        &Calibration {
            read_ns: 0.0,
            pair_ns: 0.0,
        },
        &TraceTotals::default(),
    )
}

/// Assemble the per-layer metrics. A layer a workload never calls
/// reports zero.
pub fn per_layer(data: &LedgerData, cal: &Calibration, t: &TraceTotals) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut attributed = 0.0;
    let mut timer_ns = 0.0;
    for layer in LAYERS {
        let l = data.layer(layer);
        let calls = (l.calls[0] + l.calls[1]) as f64;
        // Self time of the layer in sequential batches: sampled spans
        // less the timer's own reading, scaled up to every call.
        let est = if l.sampled[0] == 0 {
            0.0
        } else {
            (l.sampled_ns[0] as f64 - l.sampled[0] as f64 * cal.read_ns) * l.calls[0] as f64
                / l.sampled[0] as f64
        };
        attributed += est;
        timer_ns += l.sampled[0] as f64 * cal.pair_ns;
        out.push(metric(
            format!("{}.calls", layer.name()),
            per(calls, t.accesses),
            "calls/access",
        ));
        out.push(metric(
            format!("{}.ns", layer.name()),
            per(est, t.seq_accesses),
            "ns/access",
        ));
    }
    out.push(metric(
        "engine.self.ns",
        per(
            t.seq_engine_ns as f64 - attributed - timer_ns,
            t.seq_accesses,
        ),
        "ns/access",
    ));
    let fills = data.layer(Layer::ArrayFill).calls;
    out.push(metric(
        "array.fill.cands_per_miss",
        per(data.extra(Extra::FillCands) as f64, fills[0] + fills[1]),
        "count",
    ));
    let byte = data.extra(Extra::ByteLane);
    out.push(metric(
        "ranking.futility.byte_lane_frac",
        per(byte as f64, byte + data.extra(Extra::F64Lane)),
        "ratio",
    ));
    let victims = data.layer(Layer::SchemeVictim).calls;
    out.push(metric(
        "scheme.victim.retags_per_miss",
        per(data.extra(Extra::Retags) as f64, victims[0] + victims[1]),
        "count",
    ));

    let s = &t.sharded;
    let compute_per_access = per(s.seq_compute_ns as f64, s.seq_accesses);
    out.push(metric(
        "sharded.split.ns",
        per(s.split_ns as f64, t.accesses),
        "ns/access",
    ));
    out.push(metric(
        "sharded.shard_compute.ns",
        compute_per_access,
        "ns/access",
    ));
    // Thread time the parallel batches paid beyond their work: every
    // worker is held for the batch's wall, and only the split and the
    // shards' compute are work.
    let idle = crate::common::JOBS as f64 * s.par_wall_ns as f64
        - s.par_split_ns as f64
        - compute_per_access * s.par_accesses as f64;
    out.push(metric(
        "sharded.wait.ns",
        per(idle, s.par_accesses),
        "ns/access",
    ));
    out.push(metric(
        "sharded.imbalance",
        per(s.imbalance, s.batches),
        "count",
    ));

    let n = &t.tenancy;
    out.push(metric(
        "tenancy.observe.ns",
        per(n.observe_ns as f64, t.accesses),
        "ns/access",
    ));
    out.push(metric(
        "tenancy.resolve.ns",
        per(n.resolve_ns as f64, t.accesses),
        "ns/access",
    ));
    out.push(metric(
        "tenancy.resolve.calls",
        per(n.resolves as f64, t.accesses),
        "calls/access",
    ));
    out.push(metric(
        "tenancy.set_targets.ns",
        per(n.set_targets_ns as f64, t.accesses),
        "ns/access",
    ));

    for name in CELL_NAMES {
        let rate = t
            .cells
            .iter()
            .find(|(c, _)| *c == name)
            .map_or(0.0, |&(_, r)| r);
        out.push(metric(format!("cell.{name}.accesses_per_s"), rate, "1/s"));
    }
    let overhead = if t.untraced_wall_s > 0.0 {
        t.traced_wall_s / t.untraced_wall_s
    } else {
        0.0
    };
    out.push(metric("trace.overhead", overhead, "ratio"));
    out
}

/// Close a traced run: write its spans to
/// `target/perfbench/<workload>.spans.csv` and assemble its metrics.
pub fn finish(
    workload: &str,
    mut data: LedgerData,
    cal: &Calibration,
    totals: &TraceTotals,
    checks: Checks,
) -> Outcome {
    let spans = std::mem::take(&mut data.spans);
    let info = vec![
        metric("timer.read_ns", cal.read_ns, "ns"),
        metric("timer.pair_ns", cal.pair_ns, "ns"),
        metric("spans_kept", spans.len() as f64, "count"),
    ];
    let spans_path = PathBuf::from("target/perfbench").join(format!("{workload}.spans.csv"));
    if let Err(e) = write_spans(&spans_path, spans) {
        eprintln!("warning: could not write {}: {e}", spans_path.display());
    }
    Outcome {
        metrics: per_layer(&data, cal, totals),
        info,
        checks,
    }
}

fn write_spans(path: &PathBuf, mut spans: Vec<Span>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    spans.sort_by_key(|s| (s.start, s.end));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,start_ns,end_ns,batch")?;
    for s in &spans {
        writeln!(w, "{},{},{},{}", s.name, s.start, s.end, s.batch)?;
    }
    w.flush()
}
