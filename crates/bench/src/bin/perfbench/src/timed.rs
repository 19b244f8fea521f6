//! Per-layer tracing from outside the engine.
//!
//! [`Timed`] wraps one engine component — a [`CacheArray`], a
//! [`FutilityRanking`] or a [`PartitionScheme`] — and forwards every
//! trait method, defaulted ones included, so the wrapped composition
//! simulates exactly what the bare one does. Each forwarded call that
//! does simulation work is counted into the [`Layer`] it belongs to,
//! and a random one in sixteen is timed as a span. Counters are plain
//! `Cell`s owned by the wrapper and are flushed into the shared
//! [`Ledger`] when the wrapper is dropped, together with its spans.
//!
//! Sampling uses a per-wrapper PRNG rather than a modulo counter: the
//! engine alternates some calls with a fixed period (a byte-lane query
//! followed by its `f64` fallback, an insert followed by an evict), and
//! a counter whose period divides that pattern samples only one side.

use cachesim::array::CacheArray;
use cachesim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use cachesim::{
    AccessMeta, Candidate, FutilityRanking, HitRecord, Occupant, PartitionId, PartitionScheme,
    PartitionState, Probe, SlotId, VictimDecision,
};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sampled spans kept in memory per ledger; counters cover every call
/// whether or not its span was kept. Workloads pick a span stride that
/// keeps their spans under it.
pub const SPAN_CAP: usize = 1 << 18;

/// Batch-id bit marking a batch whose shards run on worker threads.
/// Layer times are attributed from batches without it only, where the
/// components run one at a time on the calling thread.
pub const PARALLEL: u64 = 1 << 63;

/// The component layers a [`Timed`] wrapper attributes calls to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    ArrayProbe,
    ArrayFill,
    ArrayEvict,
    ArrayInstall,
    ArrayRetag,
    RankingHit,
    RankingInsert,
    RankingEvict,
    RankingRetag,
    RankingFutility,
    RankingTrueFutility,
    RankingMaxLine,
    SchemeVictim,
    SchemeNotify,
}

/// Every layer, in reporting order.
pub const LAYERS: [Layer; 14] = [
    Layer::ArrayProbe,
    Layer::ArrayFill,
    Layer::ArrayEvict,
    Layer::ArrayInstall,
    Layer::ArrayRetag,
    Layer::RankingHit,
    Layer::RankingInsert,
    Layer::RankingEvict,
    Layer::RankingRetag,
    Layer::RankingFutility,
    Layer::RankingTrueFutility,
    Layer::RankingMaxLine,
    Layer::SchemeVictim,
    Layer::SchemeNotify,
];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ArrayProbe => "array.probe",
            Layer::ArrayFill => "array.fill",
            Layer::ArrayEvict => "array.evict",
            Layer::ArrayInstall => "array.install",
            Layer::ArrayRetag => "array.retag",
            Layer::RankingHit => "ranking.hit",
            Layer::RankingInsert => "ranking.insert",
            Layer::RankingEvict => "ranking.evict",
            Layer::RankingRetag => "ranking.retag",
            Layer::RankingFutility => "ranking.futility",
            Layer::RankingTrueFutility => "ranking.true_futility",
            Layer::RankingMaxLine => "ranking.max_line",
            Layer::SchemeVictim => "scheme.victim",
            Layer::SchemeNotify => "scheme.notify",
        }
    }
}

/// Outcome counters kept beside the call counts, for the layers' ratio
/// metrics.
#[derive(Copy, Clone, Debug)]
pub enum Extra {
    /// Candidates handed back by `fill_candidates`.
    FillCands,
    /// `futility_bytes` calls answered on the byte lane.
    ByteLane,
    /// `futility_batch` calls (the `f64` path).
    F64Lane,
    /// Retags requested by victim decisions.
    Retags,
}

const N_LAYERS: usize = LAYERS.len();
const N_EXTRA: usize = 4;

/// Nanoseconds on a clock shared by every thread of this process.
///
/// On x86-64 this reads the time-stamp counter. `Instant::now` costs
/// about 45 ns per read on the machine the benchmark was sized on,
/// and inside a traced engine its span cost exceeded the calibrated
/// one so far that the engine's residual self time went negative; the
/// counter reads in about 17 ns, touches no memory and does not wait
/// for earlier loads.
pub fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let (base, ns_per_tick) = *tsc_scale();
        // SAFETY: `rdtsc` is part of the x86-64 baseline and only reads
        // the time-stamp counter; it accesses no memory.
        let ticks = unsafe { std::arch::x86_64::_rdtsc() };
        (ticks.wrapping_sub(base) as f64 * ns_per_tick) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The counter value at the epoch and its period in ns, measured once
/// against `Instant` over 20 ms.
#[cfg(target_arch = "x86_64")]
fn tsc_scale() -> &'static (u64, f64) {
    static SCALE: OnceLock<(u64, f64)> = OnceLock::new();
    SCALE.get_or_init(|| {
        // SAFETY: as in `now_ns`.
        let read = || unsafe { std::arch::x86_64::_rdtsc() };
        let t0 = Instant::now();
        let c0 = read();
        while t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let c1 = read();
        let ns = t0.elapsed().as_nanos() as f64;
        (c0, ns / c1.wrapping_sub(c0).max(1) as f64)
    })
}

/// One timed interval: its name, start and end (ns since the process
/// epoch) and the batch it belongs to.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub batch: u64,
}

/// Per-layer totals, split by batch kind (index 0 sequential, 1
/// parallel).
#[derive(Copy, Clone, Debug, Default)]
pub struct LayerTotals {
    pub calls: [u64; 2],
    pub sampled: [u64; 2],
    pub sampled_ns: [u64; 2],
}

/// Everything the wrappers of one run flushed.
#[derive(Debug, Default)]
pub struct LedgerData {
    pub layers: [LayerTotals; N_LAYERS],
    pub extra: [u64; N_EXTRA],
    pub spans: Vec<Span>,
}

impl LedgerData {
    /// Totals of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer as usize]
    }

    /// Value of an outcome counter.
    pub fn extra(&self, e: Extra) -> u64 {
        self.extra[e as usize]
    }
}

struct Shared {
    tracing: AtomicBool,
    batch: AtomicU64,
    span_stride: u64,
    spans_left: AtomicUsize,
    data: Mutex<LedgerData>,
}

/// The sink of one traced run: the tracing switch, the current batch id
/// and the flushed counters and spans.
#[derive(Clone)]
pub struct Ledger(Arc<Shared>);

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new(1)
    }
}

impl Ledger {
    /// A ledger keeping the spans of every `span_stride`-th batch (an
    /// odd stride keeps both kinds of the alternating sharded batches).
    pub fn new(span_stride: u64) -> Self {
        Ledger(Arc::new(Shared {
            tracing: AtomicBool::new(false),
            batch: AtomicU64::new(0),
            span_stride,
            spans_left: AtomicUsize::new(SPAN_CAP),
            data: Mutex::new(LedgerData::default()),
        }))
    }

    /// Turn counting on (the timed region) or off (set-up and warm-up).
    pub fn set_tracing(&self, on: bool) {
        self.0.tracing.store(on, Relaxed);
    }

    /// Label the calls that follow with batch `id`.
    pub fn begin_batch(&self, id: u64, parallel: bool) {
        let tag = if parallel { PARALLEL } else { 0 };
        self.0.batch.store(id | tag, Relaxed);
    }

    /// Keep `span` if its batch is kept and the span budget allows.
    pub fn span(&self, span: Span) {
        if self.reserve_span(span.batch) {
            self.lock().spans.push(span);
        }
    }

    /// Take everything flushed so far. Drop the wrapped components first.
    pub fn take(&self) -> LedgerData {
        std::mem::take(&mut *self.lock())
    }

    fn reserve_span(&self, batch: u64) -> bool {
        batch.is_multiple_of(self.0.span_stride)
            && self
                .0
                .spans_left
                .fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1))
                .is_ok()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerData> {
        self.0
            .data
            .lock()
            .expect("ledger lock poisoned by a panicking shard")
    }
}

#[derive(Default)]
struct Acc {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

/// The counting and sampling state of one wrapper.
struct Recorder {
    ledger: Ledger,
    acc: [[Acc; N_LAYERS]; 2],
    extra: [Cell<u64>; N_EXTRA],
    rng: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    fn new(ledger: &Ledger, stream: u64) -> Self {
        Recorder {
            ledger: ledger.clone(),
            acc: Default::default(),
            extra: Default::default(),
            rng: Cell::new(cachesim::prng::SplitMix64::new(stream).next_u64() | 1),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Whether to time the next call: one in 16, from an xorshift64*
    /// stream's top bits.
    fn sample(&self) -> bool {
        let mut x = self.rng.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 60 == 0
    }

    #[inline]
    fn call<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let shared = &self.ledger.0;
        if !shared.tracing.load(Relaxed) {
            return f();
        }
        let batch = shared.batch.load(Relaxed);
        let acc = &self.acc[usize::from(batch & PARALLEL != 0)][layer as usize];
        bump(&acc.calls, 1);
        if !self.sample() {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        bump(&acc.sampled, 1);
        bump(&acc.sampled_ns, end - start);
        let batch = batch & !PARALLEL;
        if self.ledger.reserve_span(batch) {
            self.spans.borrow_mut().push(Span {
                name: layer.name(),
                start,
                end,
                batch,
            });
        }
        out
    }

    fn extra(&self, e: Extra, n: u64) {
        if self.ledger.0.tracing.load(Relaxed) {
            bump(&self.extra[e as usize], n);
        }
    }

    fn flush(&self) {
        let mut data = self.ledger.lock();
        for (phase, accs) in self.acc.iter().enumerate() {
            for (total, acc) in data.layers.iter_mut().zip(accs) {
                total.calls[phase] += acc.calls.take();
                total.sampled[phase] += acc.sampled.take();
                total.sampled_ns[phase] += acc.sampled_ns.take();
            }
        }
        for (total, e) in data.extra.iter_mut().zip(&self.extra) {
            *total += e.take();
        }
        data.spans.append(&mut self.spans.borrow_mut());
    }
}

/// A component wrapped for tracing; see the [module docs](self).
pub struct Timed<T> {
    inner: T,
    rec: Recorder,
}

impl<T> Timed<T> {
    /// Wrap `inner`, flushing into `ledger`; `stream` seeds the sampler
    /// (give every wrapper of a run its own).
    pub fn new(inner: T, ledger: &Ledger, stream: u64) -> Self {
        Timed {
            inner,
            rec: Recorder::new(ledger, stream),
        }
    }
}

impl<T> Drop for Timed<T> {
    fn drop(&mut self) {
        self.rec.flush();
    }
}

impl<T: CacheArray> CacheArray for Timed<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_slots(&self) -> usize {
        self.inner.num_slots()
    }
    fn candidates_per_eviction(&self) -> usize {
        self.inner.candidates_per_eviction()
    }
    fn lookup(&self, addr: u64) -> Option<SlotId> {
        self.rec.call(Layer::ArrayProbe, || self.inner.lookup(addr))
    }
    fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        self.rec
            .call(Layer::ArrayProbe, || self.inner.occupant(slot))
    }
    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>) {
        let before = out.len();
        self.rec
            .call(Layer::ArrayFill, || self.inner.candidate_slots(addr, out));
        self.rec
            .extra(Extra::FillCands, (out.len() - before) as u64);
    }
    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        let before = out.len();
        let free = self
            .rec
            .call(Layer::ArrayFill, || self.inner.fill_candidates(addr, out));
        self.rec
            .extra(Extra::FillCands, (out.len() - before) as u64);
        free
    }
    fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        self.rec
            .call(Layer::ArrayProbe, || self.inner.lookup_occupant(addr))
    }
    fn prefetch_lookup(&self, addr: u64) {
        self.inner.prefetch_lookup(addr)
    }
    fn wants_lookup_prefetch(&self) -> bool {
        self.inner.wants_lookup_prefetch()
    }
    fn evict(&mut self, slot: SlotId) {
        self.rec.call(Layer::ArrayEvict, || self.inner.evict(slot))
    }
    fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId) {
        self.rec
            .call(Layer::ArrayInstall, || self.inner.install(slot, addr, part))
    }
    fn retag(&mut self, slot: SlotId, part: PartitionId) {
        self.rec
            .call(Layer::ArrayRetag, || self.inner.retag(slot, part))
    }
    fn is_fully_associative(&self) -> bool {
        self.inner.is_fully_associative()
    }
    fn occupied(&self) -> usize {
        self.inner.occupied()
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

impl<T: FutilityRanking> FutilityRanking for Timed<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self, pools: usize) {
        self.inner.reset(pools)
    }
    fn on_insert(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta) {
        self.rec.call(Layer::RankingInsert, || {
            self.inner.on_insert(part, addr, time, meta)
        })
    }
    fn on_hit(&mut self, part: PartitionId, addr: u64, time: u64, meta: AccessMeta) {
        self.rec.call(Layer::RankingHit, || {
            self.inner.on_hit(part, addr, time, meta)
        })
    }
    fn on_hit_batch(&mut self, hits: &[HitRecord]) {
        self.rec
            .call(Layer::RankingHit, || self.inner.on_hit_batch(hits))
    }
    fn wants_hit_records(&self) -> bool {
        self.inner.wants_hit_records()
    }
    fn on_evict(&mut self, part: PartitionId, addr: u64) {
        self.rec
            .call(Layer::RankingEvict, || self.inner.on_evict(part, addr))
    }
    fn on_retag(&mut self, from: PartitionId, to: PartitionId, addr: u64) {
        self.rec
            .call(Layer::RankingRetag, || self.inner.on_retag(from, to, addr))
    }
    fn futility(&self, part: PartitionId, addr: u64) -> f64 {
        self.rec
            .call(Layer::RankingFutility, || self.inner.futility(part, addr))
    }
    fn futility_batch(&mut self, cands: &mut [Candidate]) {
        self.rec.extra(Extra::F64Lane, 1);
        self.rec
            .call(Layer::RankingFutility, || self.inner.futility_batch(cands))
    }
    fn futility_bytes(&mut self, cands: &[Candidate], out: &mut Vec<u16>) -> bool {
        let lane = self.rec.call(Layer::RankingFutility, || {
            self.inner.futility_bytes(cands, out)
        });
        self.rec.extra(Extra::ByteLane, u64::from(lane));
        lane
    }
    fn futility_is_exact(&self) -> bool {
        self.inner.futility_is_exact()
    }
    fn true_futility(&self, part: PartitionId, addr: u64) -> f64 {
        self.rec.call(Layer::RankingTrueFutility, || {
            self.inner.true_futility(part, addr)
        })
    }
    fn max_futility_line(&self, part: PartitionId) -> Option<u64> {
        self.rec
            .call(Layer::RankingMaxLine, || self.inner.max_futility_line(part))
    }
    fn pool_len(&self, part: PartitionId) -> usize {
        self.inner.pool_len(part)
    }
    fn set_op_probes(&mut self, enabled: bool) {
        self.inner.set_op_probes(enabled)
    }
    fn telemetry(&self, out: &mut Vec<Probe>) {
        self.inner.telemetry(out)
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

impl<T: PartitionScheme> PartitionScheme for Timed<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn extra_pools(&self) -> usize {
        self.inner.extra_pools()
    }
    fn configure(&mut self, state: &PartitionState) {
        self.inner.configure(state)
    }
    fn victim(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
    ) -> VictimDecision {
        let d = self.rec.call(Layer::SchemeVictim, || {
            self.inner.victim(incoming, cands, state)
        });
        self.rec.extra(Extra::Retags, d.retags.len() as u64);
        d
    }
    fn victim_into(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
        out: &mut VictimDecision,
    ) {
        self.rec.call(Layer::SchemeVictim, || {
            self.inner.victim_into(incoming, cands, state, out)
        });
        self.rec.extra(Extra::Retags, out.retags.len() as u64);
    }
    fn victim_partition_fully_assoc(
        &mut self,
        incoming: PartitionId,
        state: &PartitionState,
    ) -> PartitionId {
        self.rec.call(Layer::SchemeVictim, || {
            self.inner.victim_partition_fully_assoc(incoming, state)
        })
    }
    fn notify_insert(&mut self, part: PartitionId, state: &PartitionState) {
        self.rec.call(Layer::SchemeNotify, || {
            self.inner.notify_insert(part, state)
        })
    }
    fn notify_evict(&mut self, part: PartitionId, state: &PartitionState) {
        self.rec
            .call(Layer::SchemeNotify, || self.inner.notify_evict(part, state))
    }
    fn notify_hit(&mut self, part: PartitionId) {
        self.rec
            .call(Layer::SchemeNotify, || self.inner.notify_hit(part))
    }
    fn insertion_pool(&self, incoming: PartitionId) -> PartitionId {
        self.rec
            .call(Layer::SchemeNotify, || self.inner.insertion_pool(incoming))
    }
    fn on_foreign_hit(
        &mut self,
        line_pool: PartitionId,
        accessor: PartitionId,
    ) -> Option<PartitionId> {
        self.rec.call(Layer::SchemeNotify, || {
            self.inner.on_foreign_hit(line_pool, accessor)
        })
    }
    fn wants_exact_ranking(&self) -> bool {
        self.inner.wants_exact_ranking()
    }
    fn wants_futility_bytes(&self) -> bool {
        self.inner.wants_futility_bytes()
    }
    fn victim_from_bytes(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        raw: &[u16],
        state: &PartitionState,
    ) -> usize {
        self.rec.call(Layer::SchemeVictim, || {
            self.inner.victim_from_bytes(incoming, cands, raw, state)
        })
    }
    fn telemetry(&self, state: &PartitionState, out: &mut Vec<Probe>) {
        self.inner.telemetry(state, out)
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// The cost of the timer itself, measured on this host and subtracted
/// from every sampled span.
#[derive(Copy, Clone, Debug)]
pub struct Calibration {
    /// Median reading of an empty span (two back-to-back clock reads).
    pub read_ns: f64,
    /// Wall time one empty span adds to its caller.
    pub pair_ns: f64,
}

/// Measure the timer on this host.
pub fn calibrate() -> Calibration {
    const N: usize = 50_000;
    let mut reads = Vec::with_capacity(N);
    let t0 = now_ns();
    for _ in 0..N {
        let a = now_ns();
        let b = now_ns();
        reads.push(std::hint::black_box(b - a));
    }
    let pair_ns = (now_ns() - t0) as f64 / N as f64;
    reads.sort_unstable();
    Calibration {
        read_ns: reads[N / 2] as f64,
        pair_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranking::ExactLru;

    #[test]
    fn alternating_methods_are_both_sampled() {
        // Insert and evict alternate with period two, as the engine's
        // miss path alternates them; a one-in-sixteen modulo counter
        // would time only one of the two.
        let ledger = Ledger::default();
        let mut r = Timed::new(ExactLru::new(), &ledger, 7);
        r.reset(1);
        ledger.set_tracing(true);
        let p = PartitionId(0);
        for i in 0..3200u64 {
            r.on_insert(p, i, i, AccessMeta::default());
            r.on_evict(p, i);
        }
        drop(r);
        let data = ledger.take();
        for layer in [Layer::RankingInsert, Layer::RankingEvict] {
            let t = data.layer(layer);
            assert_eq!(t.calls[0], 3200, "{}", layer.name());
            assert!(
                (100..=300).contains(&t.sampled[0]),
                "{} sampled {} of 3200",
                layer.name(),
                t.sampled[0]
            );
        }
    }

    #[test]
    fn nothing_is_counted_while_tracing_is_off() {
        let ledger = Ledger::default();
        let mut r = Timed::new(ExactLru::new(), &ledger, 1);
        r.reset(1);
        r.on_insert(PartitionId(0), 1, 1, AccessMeta::default());
        drop(r);
        let data = ledger.take();
        assert_eq!(data.layer(Layer::RankingInsert).calls, [0, 0]);
        assert!(data.spans.is_empty());
    }
}
