//! The flight recorder: opt-in time-series observability for
//! [`PartitionedCache`](crate::PartitionedCache).
//!
//! The paper's sizing claims are temporal — Figure 5's MAD describes a
//! random walk around target, Algorithm 2 is a feedback controller,
//! Vantage's apertures move with size error — but end-of-run scalars
//! cannot show any of that. A [`TimeSeriesRecorder`] attached to the
//! engine is ticked after every access and samples on an access-count
//! cadence, capturing per-partition occupancy/target/deviation,
//! interval hit/miss/eviction counts, the interval AEF, and whatever
//! scheme-specific probes the scheme pushes through
//! [`PartitionScheme::telemetry`].
//!
//! Cost model: with no recorder attached the engine pays one branch per
//! access and allocates nothing (see `tests/no_alloc_hot_path.rs`); with
//! a recorder attached, off-cadence accesses pay one extra modulo, and
//! sampling ticks do O(partitions + probes) work against a bounded ring
//! buffer.

use crate::ids::PartitionId;
use crate::scheme_api::{PartitionScheme, PartitionState, Probe};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::CacheStats;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Everything the recorder may inspect on a tick: engine time, the
/// sizing state, accumulated statistics and the scheme (for telemetry
/// probes). Borrows are read-only; a recorder observes, never steers.
pub(crate) struct RecordCtx<'a> {
    /// Engine time (accesses processed so far, including this one).
    pub time: u64,
    /// Number of application partitions (scheme pools excluded — their
    /// dynamics surface through scheme telemetry probes instead).
    pub partitions: usize,
    /// Live sizing state (targets, actual sizes, cumulative counters).
    pub state: &'a PartitionState,
    /// Accumulated statistics, including the reset generation.
    pub stats: &'a CacheStats,
    /// The partitioning scheme, for [`PartitionScheme::telemetry`].
    pub scheme: &'a dyn PartitionScheme,
}

/// One recorded time-series sample in long format: at `time`, series
/// `series` (for `part`, if per-partition) had value `value`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Sample {
    /// Engine time of the sampling tick.
    pub time: u64,
    /// Series name (standard engine series or a scheme probe name).
    pub series: &'static str,
    /// Partition the sample belongs to; `None` for cache-global series.
    pub part: Option<PartitionId>,
    /// Sampled value. NaN encodes "undefined this interval" (e.g. the
    /// AEF of an interval with no evictions).
    pub value: f64,
}

/// Per-partition counter snapshot from the previous sampling tick, so
/// each tick reports interval deltas rather than cumulative totals.
#[derive(Copy, Clone, Debug, Default)]
struct IntervalBase {
    hits: u64,
    misses: u64,
    evictions: u64,
    futility_sum: f64,
}

/// The standard engine series emitted per partition on every sampling
/// tick, in emission order. `occupancy`/`target`/`deviation` are
/// instantaneous; `hits`/`misses`/`evictions`/`aef` cover the interval
/// since the previous tick.
pub const STANDARD_SERIES: [&str; 7] = [
    "occupancy",
    "target",
    "deviation",
    "hits",
    "misses",
    "evictions",
    "aef",
];

/// Ring-buffered sampling recorder: every `cadence` accesses, emit the
/// [`STANDARD_SERIES`] for each application partition plus the scheme's
/// telemetry probes, into a bounded ring of [`Sample`]s (oldest samples
/// drop first once `capacity` is reached).
///
/// A [`CacheStats::reset`] between ticks (e.g. the post-warmup reset of
/// the figure drivers) is detected through the stats generation counter;
/// the recorder then rebaselines its interval snapshots to zero instead
/// of underflowing the counter deltas, so recording may span a warmup
/// boundary.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    cadence: u64,
    capacity: usize,
    samples: VecDeque<Sample>,
    dropped: u64,
    prev: Vec<IntervalBase>,
    prev_generation: u64,
    /// Scratch buffer handed to `PartitionScheme::telemetry`.
    probes: Vec<Probe>,
}

impl TimeSeriesRecorder {
    /// A recorder sampling every `cadence` accesses, retaining at most
    /// `capacity` samples (oldest dropped first).
    ///
    /// # Panics
    /// Panics if `cadence` or `capacity` is zero.
    pub fn new(cadence: u64, capacity: usize) -> Self {
        assert!(cadence > 0, "cadence must be positive");
        assert!(capacity > 0, "capacity must be positive");
        TimeSeriesRecorder {
            cadence,
            capacity,
            samples: VecDeque::new(),
            dropped: 0,
            prev: Vec::new(),
            prev_generation: 0,
            probes: Vec::new(),
        }
    }

    /// Sampling cadence in accesses.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl DoubleEndedIterator<Item = &Sample> + ExactSizeIterator {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted from the ring because `capacity` was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all retained samples (baselines are kept, so subsequent
    /// interval deltas remain correct).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.dropped = 0;
    }

    /// The retained samples as long-format CSV rows
    /// (`time,series,part,value`; `part` is `-` for global series).
    /// Formatting is locale-free and deterministic: integers print
    /// without a fraction, everything else with six decimals, NaN as
    /// `nan`.
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.samples
            .iter()
            .map(|s| {
                vec![
                    s.time.to_string(),
                    s.series.to_string(),
                    s.part.map_or_else(|| "-".to_string(), |p| p.0.to_string()),
                    fmt_value(s.value),
                ]
            })
            .collect()
    }

    fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }
}

/// Re-intern a series name decoded from a snapshot as the
/// `&'static str` that [`Sample`] requires. Standard engine series
/// resolve to the [`STANDARD_SERIES`] constants; scheme probe names go
/// through a process-global registry that leaks one allocation per
/// distinct name (bounded by the set of probe names schemes define, so
/// effectively constant).
fn intern_series(name: &str) -> &'static str {
    if let Some(&s) = STANDARD_SERIES.iter().find(|&&s| s == name) {
        return s;
    }
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut extra = EXTRA.lock().expect("series name registry poisoned");
    if let Some(&s) = extra.iter().find(|&&s| s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    extra.push(leaked);
    leaked
}

/// Deterministic value formatting for the time-series CSV.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

impl TimeSeriesRecorder {
    /// Observe the cache after one access; samples only when `ctx.time`
    /// is a multiple of the cadence.
    pub(crate) fn record(&mut self, ctx: &RecordCtx<'_>) {
        if !ctx.time.is_multiple_of(self.cadence) {
            return;
        }
        if self.prev.len() < ctx.partitions {
            self.prev.resize(ctx.partitions, IntervalBase::default());
        }
        if ctx.stats.generation() != self.prev_generation {
            // The stats were reset since the last tick (e.g. at the end
            // of warmup): cumulative counters restarted from zero, so
            // the interval baselines must too.
            self.prev_generation = ctx.stats.generation();
            self.prev.fill(IntervalBase::default());
        }
        for i in 0..ctx.partitions {
            let part = PartitionId(i as u16);
            let ps = ctx.stats.partition(part);
            let base = self.prev[i];
            let occupancy = ctx.state.actual[i] as f64;
            let target = ctx.state.targets[i] as f64;
            let evictions = ps.evictions - base.evictions;
            let aef = if evictions == 0 {
                f64::NAN
            } else {
                (ps.evict_futility_sum - base.futility_sum) / evictions as f64
            };
            let values = [
                occupancy,
                target,
                occupancy - target,
                (ps.hits - base.hits) as f64,
                (ps.misses - base.misses) as f64,
                evictions as f64,
                aef,
            ];
            for (series, value) in STANDARD_SERIES.into_iter().zip(values) {
                self.push(Sample {
                    time: ctx.time,
                    series,
                    part: Some(part),
                    value,
                });
            }
            self.prev[i] = IntervalBase {
                hits: ps.hits,
                misses: ps.misses,
                evictions: ps.evictions,
                futility_sum: ps.evict_futility_sum,
            };
        }
        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        ctx.scheme.telemetry(ctx.state, &mut probes);
        for p in &probes {
            self.push(Sample {
                time: ctx.time,
                series: p.name,
                part: p.part,
                value: p.value,
            });
        }
        self.probes = probes;
    }

    /// Serialize the recorder's state (configuration, ring, interval
    /// baselines and counters) for checkpointing.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("timeseries-recorder");
        w.u64(self.cadence);
        w.usize(self.capacity);
        w.u64(self.dropped);
        w.u64(self.prev_generation);
        w.usize(self.prev.len());
        for b in &self.prev {
            w.u64(b.hits);
            w.u64(b.misses);
            w.u64(b.evictions);
            w.f64(b.futility_sum);
        }
        w.usize(self.samples.len());
        for s in &self.samples {
            w.u64(s.time);
            w.str(s.series);
            match s.part {
                Some(p) => {
                    w.u8(1);
                    w.u16(p.0);
                }
                None => w.u8(0),
            }
            w.f64(s.value);
        }
        w.end();
    }

    /// Restore state saved by [`save_state`](Self::save_state); fails on
    /// decode errors or a cadence/capacity mismatch.
    pub(crate) fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("timeseries-recorder")?;
        let (cadence, capacity) = (r.u64()?, r.usize()?);
        if cadence != self.cadence || capacity != self.capacity {
            return Err(SnapshotError::mismatch(format!(
                "recorder is cadence={} capacity={}, snapshot is cadence={cadence} capacity={capacity}",
                self.cadence, self.capacity
            )));
        }
        let dropped = r.u64()?;
        let prev_generation = r.u64()?;
        let prev_len = r.seq_len(32)?;
        let mut prev = Vec::with_capacity(prev_len);
        for _ in 0..prev_len {
            prev.push(IntervalBase {
                hits: r.u64()?,
                misses: r.u64()?,
                evictions: r.u64()?,
                futility_sum: r.f64()?,
            });
        }
        let n = r.seq_len(18)?;
        if n > capacity {
            return Err(SnapshotError::corrupt(format!(
                "ring holds {n} samples but capacity is {capacity}"
            )));
        }
        let mut samples = VecDeque::with_capacity(n);
        for _ in 0..n {
            let time = r.u64()?;
            let series = intern_series(r.str()?);
            let part = match r.u8()? {
                0 => None,
                1 => Some(PartitionId(r.u16()?)),
                tag => {
                    return Err(SnapshotError::corrupt(format!(
                        "invalid sample partition tag {tag}"
                    )))
                }
            };
            let value = r.f64()?;
            samples.push_back(Sample {
                time,
                series,
                part,
                value,
            });
        }
        r.end()?;
        self.samples = samples;
        self.dropped = dropped;
        self.prev = prev;
        self.prev_generation = prev_generation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme_api::EvictMaxFutility;

    fn ctx<'a>(
        time: u64,
        state: &'a PartitionState,
        stats: &'a CacheStats,
        scheme: &'a dyn PartitionScheme,
    ) -> RecordCtx<'a> {
        RecordCtx {
            time,
            partitions: state.pools(),
            state,
            stats,
            scheme,
        }
    }

    #[test]
    fn samples_only_on_cadence() {
        let scheme = EvictMaxFutility;
        let state = PartitionState::new(1, 8);
        let stats = CacheStats::new(1);
        let mut rec = TimeSeriesRecorder::new(10, 1000);
        for t in 1..=25 {
            rec.record(&ctx(t, &state, &stats, &scheme));
        }
        // Ticks at t = 10 and t = 20 only, 7 standard series each.
        assert_eq!(rec.len(), 2 * STANDARD_SERIES.len());
        let times: Vec<u64> = rec.samples().map(|s| s.time).collect();
        assert!(times[..7].iter().all(|&t| t == 10));
        assert!(times[7..].iter().all(|&t| t == 20));
    }

    #[test]
    fn interval_deltas_not_cumulative() {
        let scheme = EvictMaxFutility;
        let mut state = PartitionState::new(1, 8);
        state.targets[0] = 4;
        let mut stats = CacheStats::new(1);
        let mut rec = TimeSeriesRecorder::new(1, 1000);

        stats.record_miss(PartitionId(0));
        stats.record_eviction(PartitionId(0), 0.5);
        state.actual[0] = 3;
        rec.record(&ctx(1, &state, &stats, &scheme));
        stats.record_miss(PartitionId(0));
        stats.record_miss(PartitionId(0));
        rec.record(&ctx(2, &state, &stats, &scheme));

        let misses: Vec<f64> = rec
            .samples()
            .filter(|s| s.series == "misses")
            .map(|s| s.value)
            .collect();
        assert_eq!(misses, vec![1.0, 2.0]);
        let aef: Vec<f64> = rec
            .samples()
            .filter(|s| s.series == "aef")
            .map(|s| s.value)
            .collect();
        assert_eq!(aef[0], 0.5);
        assert!(aef[1].is_nan(), "no evictions in the second interval");
        let dev: Vec<f64> = rec
            .samples()
            .filter(|s| s.series == "deviation")
            .map(|s| s.value)
            .collect();
        assert_eq!(dev, vec![-1.0, -1.0]);
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let scheme = EvictMaxFutility;
        let state = PartitionState::new(1, 8);
        let stats = CacheStats::new(1);
        let mut rec = TimeSeriesRecorder::new(1, 10);
        for t in 1..=5 {
            rec.record(&ctx(t, &state, &stats, &scheme));
        }
        assert_eq!(rec.len(), 10);
        assert_eq!(rec.dropped(), 5 * STANDARD_SERIES.len() as u64 - 10);
        // The ring keeps the newest samples.
        assert!(rec.samples().all(|s| s.time >= 4));
    }

    #[test]
    fn stats_reset_rebaselines_instead_of_underflowing() {
        let scheme = EvictMaxFutility;
        let state = PartitionState::new(1, 8);
        let mut stats = CacheStats::new(1);
        let mut rec = TimeSeriesRecorder::new(1, 1000);

        for _ in 0..5 {
            stats.record_miss(PartitionId(0));
        }
        rec.record(&ctx(1, &state, &stats, &scheme));
        stats.reset(); // warmup boundary
        stats.record_miss(PartitionId(0));
        rec.record(&ctx(2, &state, &stats, &scheme));

        let misses: Vec<f64> = rec
            .samples()
            .filter(|s| s.series == "misses")
            .map(|s| s.value)
            .collect();
        assert_eq!(misses, vec![5.0, 1.0]);
    }

    #[test]
    fn csv_value_formatting_is_deterministic() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(-17.0), "-17");
        assert_eq!(fmt_value(0.5), "0.500000");
        assert_eq!(fmt_value(f64::NAN), "nan");
    }

    #[test]
    fn overflow_drops_exactly_the_oldest_and_keeps_a_contiguous_suffix() {
        let scheme = EvictMaxFutility;
        let state = PartitionState::new(1, 8);
        let stats = CacheStats::new(1);
        // Capacity deliberately not a multiple of the per-tick sample
        // count, so the ring boundary cuts through a tick.
        let cap = 23;
        let mut rec = TimeSeriesRecorder::new(1, cap);
        let mut unbounded = TimeSeriesRecorder::new(1, 1_000_000);
        let ticks = 9u64;
        for t in 1..=ticks {
            rec.record(&ctx(t, &state, &stats, &scheme));
            unbounded.record(&ctx(t, &state, &stats, &scheme));
        }
        let total = ticks * STANDARD_SERIES.len() as u64;
        assert_eq!(rec.len(), cap);
        assert_eq!(
            rec.dropped(),
            total - cap as u64,
            "dropped() must count exactly the evicted samples"
        );
        assert_eq!(unbounded.dropped(), 0);
        // The retained samples are exactly the newest `cap` samples of
        // the unbounded recording, in emission order.
        // Bit-level sample identity (NaN-valued series like a division
        // by zero `aef` compare equal by bits, not by `==`).
        let key = |s: &Sample| (s.time, s.series, s.part, s.value.to_bits());
        let suffix: Vec<_> = unbounded
            .samples()
            .skip((total - cap as u64) as usize)
            .map(key)
            .collect();
        let kept: Vec<_> = rec.samples().map(key).collect();
        assert_eq!(kept, suffix, "ring must keep a contiguous suffix");
        assert_eq!(
            rec.rows(),
            unbounded.rows()[(total - cap as u64) as usize..]
        );
    }

    #[test]
    fn snapshot_round_trip_restores_ring_baselines_and_counters() {
        let scheme = EvictMaxFutility;
        let mut state = PartitionState::new(1, 8);
        state.targets[0] = 4;
        let mut stats = CacheStats::new(1);
        let mut rec = TimeSeriesRecorder::new(2, 9);
        for t in 1..=12 {
            if t % 3 == 0 {
                stats.record_miss(PartitionId(0));
            }
            state.actual[0] = (t % 5) as usize;
            rec.record(&ctx(t, &state, &stats, &scheme));
        }
        let mut w = SnapshotWriter::new();
        rec.save_state(&mut w);
        let bytes = w.finish();

        let mut back = TimeSeriesRecorder::new(2, 9);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        back.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.dropped(), rec.dropped());
        assert_eq!(back.rows(), rec.rows());
        // Continuation must be identical: same future ticks, same deltas.
        for t in 13..=20 {
            stats.record_miss(PartitionId(0));
            state.actual[0] = (t % 5) as usize;
            rec.record(&ctx(t, &state, &stats, &scheme));
            back.record(&ctx(t, &state, &stats, &scheme));
        }
        assert_eq!(back.rows(), rec.rows());
        assert_eq!(back.dropped(), rec.dropped());

        // A geometry mismatch is rejected, not silently misloaded.
        let mut wrong = TimeSeriesRecorder::new(5, 9);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            wrong.load_state(&mut r),
            Err(SnapshotError::Mismatch { .. })
        ));
    }
}
