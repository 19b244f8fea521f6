//! The partitioning-scheme interface: the "replacement policy" component
//! of the paper's cache model, responsible for identifying the victim
//! among the `R` replacement candidates while enforcing partition sizes.

use crate::ids::PartitionId;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::SlotId;

/// One replacement candidate as presented to a scheme: the physical
/// slot, the occupant line, its partition and its (unscaled) futility.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Physical slot holding the line.
    pub slot: SlotId,
    /// Line address.
    pub addr: u64,
    /// Partition (pool) the line currently belongs to.
    pub part: PartitionId,
    /// Unscaled futility in `[0, 1]` as reported by the futility ranking.
    pub futility: f64,
}

/// One scheme-specific telemetry sample pushed through
/// [`PartitionScheme::telemetry`]: a named series, optionally tied to a
/// pool, with the probe's current value. Collected by an attached
/// [`TimeSeriesRecorder`](crate::recorder::TimeSeriesRecorder)
/// alongside the engine's standard per-partition series.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Probe {
    /// Series name, e.g. `"alpha"`, `"aperture"`, `"shift_width"`.
    pub name: &'static str,
    /// Pool the value belongs to, or `None` for cache-global probes.
    pub part: Option<PartitionId>,
    /// Current value of the probed quantity.
    pub value: f64,
}

impl Probe {
    /// A per-pool probe.
    pub fn per_part(name: &'static str, part: PartitionId, value: f64) -> Self {
        Probe {
            name,
            part: Some(part),
            value,
        }
    }

    /// A cache-global probe.
    pub fn global(name: &'static str, value: f64) -> Self {
        Probe {
            name,
            part: None,
            value,
        }
    }
}

/// Sizing state the engine maintains on behalf of every scheme.
#[derive(Clone, Debug, Default)]
pub struct PartitionState {
    /// Target number of lines per pool (`N^T_i`). Pools beyond the
    /// application partitions (scheme-internal pools) have target 0.
    pub targets: Vec<usize>,
    /// Actual number of lines per pool (`N^A_i`).
    pub actual: Vec<usize>,
    /// Cumulative insertions per pool (`N^I_i`, never reset).
    pub insertions: Vec<u64>,
    /// Cumulative evictions per pool (`N^E_i`, never reset).
    pub evictions: Vec<u64>,
    /// Total line slots in the cache.
    pub total_slots: usize,
}

impl PartitionState {
    /// Initialize for `pools` pools over a cache of `total_slots` lines.
    pub fn new(pools: usize, total_slots: usize) -> Self {
        PartitionState {
            targets: vec![0; pools],
            actual: vec![0; pools],
            insertions: vec![0; pools],
            evictions: vec![0; pools],
            total_slots,
        }
    }

    /// Number of pools tracked.
    pub fn pools(&self) -> usize {
        self.actual.len()
    }

    /// Signed size error of pool `i`: `actual − target` in lines.
    /// Positive means oversized.
    pub fn oversize(&self, i: usize) -> i64 {
        self.actual[i] as i64 - self.targets[i] as i64
    }

    /// The pool, among the partitions of the given candidates, whose
    /// actual size most exceeds its target (ties broken by first
    /// occurrence). Returns `None` for an empty slice.
    pub fn most_oversized_of<'a, I>(&self, parts: I) -> Option<PartitionId>
    where
        I: IntoIterator<Item = &'a PartitionId>,
    {
        let mut best: Option<(i64, PartitionId)> = None;
        for &p in parts {
            let over = self.oversize(p.index());
            match best {
                Some((b, _)) if b >= over => {}
                _ => best = Some((over, p)),
            }
        }
        best.map(|(_, p)| p)
    }

    /// The most oversized pool among all application partitions
    /// (`0..targets.len()` pools with a nonzero target or any line).
    pub fn most_oversized_overall(&self) -> PartitionId {
        let mut best = (i64::MIN, 0usize);
        for i in 0..self.pools() {
            let over = self.oversize(i);
            if over > best.0 {
                best = (over, i);
            }
        }
        PartitionId(best.1 as u16)
    }
}

/// The victim choice returned by a scheme, plus any candidate retags
/// (pool migrations) the engine must apply *before* the eviction.
///
/// Retags implement Vantage-style demotions: `(candidate_index,
/// new_pool)` pairs. The victim index refers to the original candidate
/// list; a retagged candidate may also be the victim.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VictimDecision {
    /// Index into the candidate slice of the line to evict.
    pub victim: usize,
    /// Candidate retags to apply: `(candidate index, destination pool)`.
    pub retags: Vec<(usize, PartitionId)>,
}

impl VictimDecision {
    /// Evict candidate `victim`, no retags.
    pub fn evict(victim: usize) -> Self {
        VictimDecision {
            victim,
            retags: Vec::new(),
        }
    }
}

/// A cache-partitioning enforcement scheme (replacement policy).
///
/// Implementations: Futility Scaling (analytic and feedback-based) in
/// `futility-core`; Partitioning-First, CQVP, PriSM, Vantage, the
/// idealized FullAssoc and the unpartitioned policy in `baselines`.
pub trait PartitionScheme: Send {
    /// Short identifier, e.g. `"fs-feedback"`, `"pf"`, `"vantage"`.
    fn name(&self) -> &'static str;

    /// Number of scheme-internal pools needed beyond the application
    /// partitions (e.g. 1 for Vantage's unmanaged region).
    fn extra_pools(&self) -> usize {
        0
    }

    /// Called once by the engine after pools/targets are configured and
    /// whenever targets change.
    fn configure(&mut self, _state: &PartitionState) {}

    /// Choose the victim among `cands` for an incoming line of partition
    /// `incoming`. `cands` is never empty.
    fn victim(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
    ) -> VictimDecision;

    /// Allocation-free variant used by the engine's hot path: write the
    /// decision into a caller-owned buffer. Schemes that emit retags
    /// (Vantage) override this to reuse `out.retags`; for everything
    /// else the default delegates to [`PartitionScheme::victim`], whose
    /// empty `retags` vector costs nothing to move in.
    fn victim_into(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
        out: &mut VictimDecision,
    ) {
        *out = self.victim(incoming, cands, state);
    }

    /// On a fully-associative array there is no candidate list; the
    /// scheme instead names the partition to evict from, and the engine
    /// asks the ranking for that partition's most futile line. The
    /// default picks the most oversized pool, which is exactly the
    /// paper's idealized *FullAssoc* scheme.
    fn victim_partition_fully_assoc(
        &mut self,
        _incoming: PartitionId,
        state: &PartitionState,
    ) -> PartitionId {
        state.most_oversized_overall()
    }

    /// A line of `part` was inserted (counters in `state` are already
    /// updated).
    fn notify_insert(&mut self, _part: PartitionId, _state: &PartitionState) {}

    /// A line of `part` was evicted (counters in `state` are already
    /// updated).
    fn notify_evict(&mut self, _part: PartitionId, _state: &PartitionState) {}

    /// A line of `part` was hit.
    fn notify_hit(&mut self, _part: PartitionId) {}

    /// Scheme-specific pool assignment for a newly inserted line.
    /// Defaults to the requesting partition; Vantage could use this to
    /// insert into the managed region explicitly.
    fn insertion_pool(&self, incoming: PartitionId) -> PartitionId {
        incoming
    }

    /// Called when partition `accessor` hits a line currently tagged to
    /// a *different* pool `line_pool`. Returning `Some(dest)` retags the
    /// line to `dest` before the hit is processed (Vantage uses this to
    /// promote demoted lines out of the unmanaged region on a hit).
    fn on_foreign_hit(
        &mut self,
        _line_pool: PartitionId,
        _accessor: PartitionId,
    ) -> Option<PartitionId> {
        None
    }

    /// Whether the scheme needs an exact ranking. Nothing in the
    /// workspace overrides or calls it; it remains only because
    /// perfbench's `Timed` wrapper forwards it, and goes with the next
    /// change to that wrapper.
    fn wants_exact_ranking(&self) -> bool {
        false
    }

    /// Whether the scheme picks victims from raw futility numerators
    /// (a byte lane). Nothing in the workspace calls or overrides it:
    /// every miss on a candidate array takes
    /// [`victim_into`](Self::victim_into). It remains only because
    /// perfbench's `Timed` wrapper forwards it.
    fn wants_futility_bytes(&self) -> bool {
        false
    }

    /// Victim selection from raw futility numerators (a byte lane).
    /// Nothing in the workspace calls or overrides it; it remains only
    /// because perfbench's `Timed` wrapper forwards it.
    fn victim_from_bytes(
        &mut self,
        _incoming: PartitionId,
        _cands: &[Candidate],
        _raw: &[u16],
        _state: &PartitionState,
    ) -> usize {
        unreachable!("victim_from_bytes called on a scheme without byte-lane support")
    }

    /// Push the scheme's current internal control variables (scaling
    /// factors, apertures, shift widths, fallback rates, …) into `out`
    /// for an attached
    /// [`TimeSeriesRecorder`](crate::recorder::TimeSeriesRecorder).
    /// Called only on recorder sampling ticks — never on the
    /// recorder-disabled path — so implementations may do modest
    /// per-call work, but must not assume any particular cadence. The
    /// default emits nothing.
    fn telemetry(&self, _state: &PartitionState, _out: &mut Vec<Probe>) {}

    /// Serialize the scheme's internal control state (feedback
    /// registers, apertures, probabilities, RNG streams, …) for
    /// checkpointing. Stateless schemes keep the default, which writes
    /// an empty named section so restore still verifies scheme identity.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("stateless-scheme");
        w.end();
    }

    /// Restore state saved by [`save_state`](Self::save_state) into a
    /// scheme of the same kind and configuration.
    ///
    /// # Errors
    /// [`SnapshotError`] on decode failure or configuration mismatch.
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("stateless-scheme")?;
        r.end()
    }
}

/// Boxed schemes forward every method the engine calls (including
/// overridden defaults), so a generic
/// [`EngineCore`](crate::engine::EngineCore) instantiated with
/// `Box<dyn PartitionScheme>` behaves exactly like one instantiated
/// with the concrete scheme.
impl<T: PartitionScheme + ?Sized> PartitionScheme for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn extra_pools(&self) -> usize {
        (**self).extra_pools()
    }
    fn configure(&mut self, state: &PartitionState) {
        (**self).configure(state)
    }
    fn victim(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
    ) -> VictimDecision {
        (**self).victim(incoming, cands, state)
    }
    fn victim_into(
        &mut self,
        incoming: PartitionId,
        cands: &[Candidate],
        state: &PartitionState,
        out: &mut VictimDecision,
    ) {
        (**self).victim_into(incoming, cands, state, out)
    }
    fn victim_partition_fully_assoc(
        &mut self,
        incoming: PartitionId,
        state: &PartitionState,
    ) -> PartitionId {
        (**self).victim_partition_fully_assoc(incoming, state)
    }
    fn notify_insert(&mut self, part: PartitionId, state: &PartitionState) {
        (**self).notify_insert(part, state)
    }
    fn notify_evict(&mut self, part: PartitionId, state: &PartitionState) {
        (**self).notify_evict(part, state)
    }
    fn notify_hit(&mut self, part: PartitionId) {
        (**self).notify_hit(part)
    }
    fn insertion_pool(&self, incoming: PartitionId) -> PartitionId {
        (**self).insertion_pool(incoming)
    }
    fn on_foreign_hit(
        &mut self,
        line_pool: PartitionId,
        accessor: PartitionId,
    ) -> Option<PartitionId> {
        (**self).on_foreign_hit(line_pool, accessor)
    }
    fn telemetry(&self, state: &PartitionState, out: &mut Vec<Probe>) {
        (**self).telemetry(state, out)
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        (**self).save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        (**self).load_state(r)
    }
}

/// The unpartitioned replacement policy: evict the candidate with the
/// largest futility, ignoring partitions entirely.
#[derive(Copy, Clone, Debug, Default)]
pub struct EvictMaxFutility;

/// Index of the maximum-futility candidate (first on ties).
pub fn argmax_futility(cands: &[Candidate]) -> usize {
    let mut best = 0usize;
    for (i, c) in cands.iter().enumerate().skip(1) {
        if c.futility > cands[best].futility {
            best = i;
        }
    }
    best
}

impl PartitionScheme for EvictMaxFutility {
    fn name(&self) -> &'static str {
        "unpartitioned"
    }

    fn victim(
        &mut self,
        _incoming: PartitionId,
        cands: &[Candidate],
        _state: &PartitionState,
    ) -> VictimDecision {
        VictimDecision::evict(argmax_futility(cands))
    }

    fn victim_partition_fully_assoc(
        &mut self,
        incoming: PartitionId,
        _state: &PartitionState,
    ) -> PartitionId {
        incoming
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(slot: SlotId, part: u16, fut: f64) -> Candidate {
        Candidate {
            slot,
            addr: slot as u64 + 100,
            part: PartitionId(part),
            futility: fut,
        }
    }

    #[test]
    fn argmax_picks_largest_futility() {
        let cands = [cand(0, 0, 0.2), cand(1, 1, 0.9), cand(2, 0, 0.5)];
        assert_eq!(argmax_futility(&cands), 1);
    }

    #[test]
    fn argmax_breaks_ties_by_first() {
        let cands = [cand(0, 0, 0.9), cand(1, 1, 0.9)];
        assert_eq!(argmax_futility(&cands), 0);
    }

    #[test]
    fn state_oversize_math() {
        let mut s = PartitionState::new(2, 100);
        s.targets = vec![50, 50];
        s.actual = vec![60, 40];
        assert_eq!(s.oversize(0), 10);
        assert_eq!(s.oversize(1), -10);
        assert_eq!(s.most_oversized_overall(), PartitionId(0));
    }

    #[test]
    fn most_oversized_of_candidate_parts() {
        let mut s = PartitionState::new(3, 100);
        s.targets = vec![30, 30, 40];
        s.actual = vec![25, 45, 30];
        let parts = [PartitionId(0), PartitionId(2)];
        // Partition 1 is most oversized overall but is not a candidate.
        assert_eq!(
            s.most_oversized_of(parts.iter()),
            Some(PartitionId(0)),
            "P0 (-5) beats P2 (-10)"
        );
    }

    #[test]
    fn unpartitioned_scheme_evicts_max() {
        let mut s = EvictMaxFutility;
        let state = PartitionState::new(1, 4);
        let cands = [cand(0, 0, 0.1), cand(1, 0, 0.7)];
        assert_eq!(
            s.victim(PartitionId(0), &cands, &state),
            VictimDecision::evict(1)
        );
    }
}
