//! Feedback-based Futility Scaling — the practical hardware design of
//! Section V.
//!
//! Per-partition registers (§V-B): 16-bit `ActualSize`/`TargetSize`
//! (kept in [`PartitionState`] by the engine), a 4-bit
//! `InsertionCounter`, a 4-bit `EvictionCounter` and a 3-bit saturating
//! `ScalingShiftWidth`. Algorithm 2: whenever either counter reaches the
//! interval length `l` (default 16), the shift width is incremented if
//! the partition is oversized *and* growing (`N_I ≥ N_E` and
//! `N_A > N_T`), decremented if undersized *and* shrinking, and both
//! counters reset. The scaled futility of a candidate is
//! `futility × ratio^shift_width` (with the default `ratio = 2` this is
//! the paper's left-shift by `ScalingShiftWidth` bits). The factors
//! `ratio^s` for every register value `s` are computed once, when the
//! scheme is built, so a victim scan indexes a table.

use cachesim::{
    Candidate, PartitionId, PartitionScheme, PartitionState, Probe, SnapshotError, SnapshotReader,
    SnapshotWriter, VictimDecision,
};

/// Maximum value of the 3-bit saturating shift-width register.
pub const MAX_SHIFT_WIDTH: u8 = 7;

/// Tunables of the feedback controller (Figure 8 sweeps these).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FeedbackConfig {
    /// Interval length `l`: counters trigger an adjustment when either
    /// reaches this many events. Paper default: 16.
    pub interval: u32,
    /// Changing ratio `Δα` applied per adjustment. Paper default: 2
    /// (a bit shift in hardware).
    pub ratio: f64,
    /// Saturation level of the shift-width register. Paper default: 7
    /// (3-bit register, max scale `2^7 = 128`).
    pub max_shift: u8,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            interval: 16,
            ratio: 2.0,
            max_shift: MAX_SHIFT_WIDTH,
        }
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct Registers {
    insertion_counter: u32,
    eviction_counter: u32,
    shift_width: u8,
}

/// The feedback-based FS scheme.
///
/// # Example
/// ```
/// use futility_core::{FsFeedback, FeedbackConfig};
/// let fs = FsFeedback::new(FeedbackConfig { interval: 32, ..Default::default() });
/// assert_eq!(fs.config().interval, 32);
/// ```
#[derive(Clone, Debug)]
pub struct FsFeedback {
    config: FeedbackConfig,
    regs: Vec<Registers>,
    /// `alpha_of_shift[s] == ratio.powi(s)` for `s` in `0..=max_shift`.
    /// Derived from `config`, so not snapshotted.
    alpha_of_shift: Vec<f64>,
}

impl FsFeedback {
    /// Create a controller with the given tunables.
    ///
    /// # Panics
    /// Panics if `interval == 0` or `ratio <= 1.0`.
    pub fn new(config: FeedbackConfig) -> Self {
        assert!(config.interval > 0, "interval must be positive");
        assert!(config.ratio > 1.0, "changing ratio must exceed 1");
        FsFeedback {
            config,
            regs: Vec::new(),
            alpha_of_shift: (0..=config.max_shift)
                .map(|s| config.ratio.powi(i32::from(s)))
                .collect(),
        }
    }

    /// The paper's default configuration (`l = 16`, `Δα = 2`, 3-bit
    /// shift register).
    pub fn default_config() -> Self {
        FsFeedback::new(FeedbackConfig::default())
    }

    /// The controller tunables.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// Current shift width of a partition (register inspection).
    pub fn shift_width(&self, part: PartitionId) -> u8 {
        self.regs.get(part.index()).map_or(0, |r| r.shift_width)
    }

    /// Current scaling factor `ratio^shift_width` of a partition.
    pub fn alpha(&self, part: PartitionId) -> f64 {
        self.alpha_of_shift[usize::from(self.shift_width(part))]
    }

    fn ensure(&mut self, pools: usize) {
        if self.regs.len() < pools {
            self.regs.resize_with(pools, Registers::default);
        }
    }

    /// Algorithm 2's adjustment step, run when either counter reaches
    /// the interval length.
    fn maybe_adjust(&mut self, part: PartitionId, state: &PartitionState) {
        let idx = part.index();
        let l = self.config.interval;
        let r = &self.regs[idx];
        if r.insertion_counter < l && r.eviction_counter < l {
            return;
        }
        let growing = r.insertion_counter >= r.eviction_counter;
        let shrinking = r.insertion_counter <= r.eviction_counter;
        let oversized = state.actual[idx] > state.targets[idx];
        let undersized = state.actual[idx] < state.targets[idx];
        let r = &mut self.regs[idx];
        if growing && oversized {
            r.shift_width = (r.shift_width + 1).min(self.config.max_shift);
        } else if shrinking && undersized {
            r.shift_width = r.shift_width.saturating_sub(1);
        }
        r.insertion_counter = 0;
        r.eviction_counter = 0;
    }
}

impl PartitionScheme for FsFeedback {
    fn name(&self) -> &'static str {
        "fs-feedback"
    }

    fn configure(&mut self, state: &PartitionState) {
        self.ensure(state.pools());
    }

    fn victim(
        &mut self,
        _incoming: PartitionId,
        cands: &[Candidate],
        _state: &PartitionState,
    ) -> VictimDecision {
        let mut best = 0usize;
        let mut best_scaled = f64::NEG_INFINITY;
        for (i, c) in cands.iter().enumerate() {
            let shift = self.regs.get(c.part.index()).map_or(0, |r| r.shift_width);
            let scaled = c.futility * self.alpha_of_shift[usize::from(shift)];
            if scaled > best_scaled {
                best_scaled = scaled;
                best = i;
            }
        }
        VictimDecision::evict(best)
    }

    fn notify_insert(&mut self, part: PartitionId, state: &PartitionState) {
        self.ensure(state.pools());
        self.regs[part.index()].insertion_counter += 1;
        self.maybe_adjust(part, state);
    }

    fn notify_evict(&mut self, part: PartitionId, state: &PartitionState) {
        self.ensure(state.pools());
        self.regs[part.index()].eviction_counter += 1;
        self.maybe_adjust(part, state);
    }

    fn telemetry(&self, state: &PartitionState, out: &mut Vec<Probe>) {
        for i in 0..state.pools().min(self.regs.len()) {
            let part = PartitionId(i as u16);
            out.push(Probe::per_part(
                "shift_width",
                part,
                self.shift_width(part) as f64,
            ));
            out.push(Probe::per_part("alpha", part, self.alpha(part)));
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("fs-feedback");
        w.u32(self.config.interval);
        w.f64(self.config.ratio);
        w.u8(self.config.max_shift);
        w.usize(self.regs.len());
        for r in &self.regs {
            w.u32(r.insertion_counter);
            w.u32(r.eviction_counter);
            w.u8(r.shift_width);
        }
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("fs-feedback")?;
        let interval = r.u32()?;
        let ratio = r.f64()?;
        let max_shift = r.u8()?;
        if interval != self.config.interval
            || ratio.to_bits() != self.config.ratio.to_bits()
            || max_shift != self.config.max_shift
        {
            return Err(SnapshotError::mismatch(format!(
                "snapshot feedback config (l={interval}, ratio={ratio}, max_shift={max_shift}) \
                 differs from engine config (l={}, ratio={}, max_shift={})",
                self.config.interval, self.config.ratio, self.config.max_shift
            )));
        }
        let n = r.usize()?;
        if n != self.regs.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} feedback registers, engine has {}",
                self.regs.len()
            )));
        }
        for reg in &mut self.regs {
            reg.insertion_counter = r.u32()?;
            reg.eviction_counter = r.u32()?;
            // Checked before it is stored: `alpha` indexes its table by it.
            let shift_width = r.u8()?;
            if shift_width > self.config.max_shift {
                return Err(SnapshotError::corrupt(format!(
                    "shift width {} exceeds the {}-level register",
                    shift_width, self.config.max_shift
                )));
            }
            reg.shift_width = shift_width;
        }
        r.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::SlotId;

    fn cand(slot: SlotId, part: u16, fut: f64) -> Candidate {
        Candidate {
            slot,
            addr: slot as u64,
            part: PartitionId(part),
            futility: fut,
        }
    }

    fn state_with(actual: Vec<usize>, targets: Vec<usize>) -> PartitionState {
        let mut s = PartitionState::new(actual.len(), actual.iter().sum());
        s.actual = actual;
        s.targets = targets;
        s
    }

    #[test]
    fn oversized_growing_partition_gets_scaled_up() {
        let mut fs = FsFeedback::default_config();
        let state = state_with(vec![120, 80], vec![100, 100]);
        fs.configure(&state);
        // 16 insertions to partition 0, no evictions: oversize + growth.
        for _ in 0..16 {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 1);
        assert!((fs.alpha(PartitionId(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn undersized_shrinking_partition_gets_scaled_down() {
        let mut fs = FsFeedback::default_config();
        let over = state_with(vec![120, 80], vec![100, 100]);
        fs.configure(&over);
        for _ in 0..32 {
            fs.notify_insert(PartitionId(0), &over);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 2);
        // Now the partition is undersized and shrinking: unwind.
        let under = state_with(vec![90, 110], vec![100, 100]);
        for _ in 0..16 {
            fs.notify_evict(PartitionId(0), &under);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 1);
    }

    #[test]
    fn transient_resizing_does_not_overscale() {
        // §V-A: "if a partition has a tendency to shrink its size, FS
        // stops increasing the scaling factor even if its current actual
        // size is still above its target".
        let mut fs = FsFeedback::default_config();
        let state = state_with(vec![120, 80], vec![100, 100]);
        fs.configure(&state);
        // 16 evictions, 0 insertions: oversized but clearly shrinking.
        for _ in 0..16 {
            fs.notify_evict(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 0);
    }

    #[test]
    fn shift_width_saturates_at_max() {
        let mut fs = FsFeedback::default_config();
        let state = state_with(vec![200, 0], vec![100, 100]);
        fs.configure(&state);
        for _ in 0..(16 * 20) {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), MAX_SHIFT_WIDTH);
        assert!((fs.alpha(PartitionId(0)) - 128.0).abs() < 1e-9);
    }

    #[test]
    fn victim_uses_shifted_futility() {
        let mut fs = FsFeedback::default_config();
        let state = state_with(vec![120, 80], vec![100, 100]);
        fs.configure(&state);
        for _ in 0..32 {
            fs.notify_insert(PartitionId(1), &state); // P1 undersized? no: actual 80 < 100 target, no adjust
        }
        // Manually scale P0 up by driving its counters.
        for _ in 0..32 {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 2); // α = 4
        let cands = [cand(0, 0, 0.3), cand(1, 1, 0.9)];
        // P0's 0.3 × 4 = 1.2 beats P1's 0.9.
        assert_eq!(fs.victim(PartitionId(1), &cands, &state).victim, 0);
    }

    #[test]
    fn counters_reset_after_adjustment() {
        let mut fs = FsFeedback::default_config();
        let state = state_with(vec![120], vec![100]);
        fs.configure(&state);
        for _ in 0..15 {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 0, "not yet at interval");
        fs.notify_insert(PartitionId(0), &state);
        assert_eq!(fs.shift_width(PartitionId(0)), 1, "adjusted at l = 16");
        // A fresh interval begins: 15 more events change nothing.
        for _ in 0..15 {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert_eq!(fs.shift_width(PartitionId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn rejects_ratio_of_one() {
        let _ = FsFeedback::new(FeedbackConfig {
            ratio: 1.0,
            ..Default::default()
        });
    }

    #[test]
    fn custom_ratio_scales_geometrically() {
        let mut fs = FsFeedback::new(FeedbackConfig {
            ratio: 4.0,
            ..Default::default()
        });
        let state = state_with(vec![120], vec![100]);
        fs.configure(&state);
        for _ in 0..16 {
            fs.notify_insert(PartitionId(0), &state);
        }
        assert!((fs.alpha(PartitionId(0)) - 4.0).abs() < 1e-12);
    }

    /// Changing ratios of Figure 8's sweep.
    const RATIOS: [f64; 5] = [1.25, 1.5, 2.0, 4.0, 8.0];
    /// Saturation levels of the shift register: below, at and above
    /// the 7 of the paper's 3-bit register.
    const MAX_SHIFTS: [u8; 3] = [3, 7, 10];
    /// Partitions with registers; candidates may also come from the
    /// pool after them, which has none (scale 1).
    const POOLS: u16 = 4;

    /// Generated case: (ratio index, max-shift index), register events
    /// (partition, 1 for a step up or 0 for a step down) and candidates
    /// (partition, futility in eighths).
    type VictimCase = ((usize, usize), Vec<(u16, u8)>, Vec<(u16, u16)>);

    /// The victim is the first candidate of largest `futility ×
    /// ratio^shift`, and `alpha` is that power, bit for bit, for every
    /// ratio of Figure 8's sweep, every register width and any register
    /// state. Futilities in eighths force ties, within a partition and
    /// across scales (0.5 × 1.25 = 0.625 × 1), so the tie order is
    /// checked too.
    fn prop_victim_is_first_max_of_scaled_futility(
        ((ratio_idx, shift_idx), events, cands): &VictimCase,
    ) -> testkit::CaseResult {
        let (ratio, max_shift) = (RATIOS[*ratio_idx], MAX_SHIFTS[*shift_idx]);
        let mut fs = FsFeedback::new(FeedbackConfig {
            interval: 1,
            ratio,
            max_shift,
        });
        let pools = usize::from(POOLS);
        // Every pool oversized (a step up on each insertion) or
        // undersized (a step down on each eviction).
        let over = state_with(vec![2; pools], vec![1; pools]);
        let under = state_with(vec![0; pools], vec![1; pools]);
        fs.configure(&over);
        for &(part, up) in events {
            if up == 1 {
                fs.notify_insert(PartitionId(part), &over);
            } else {
                fs.notify_evict(PartitionId(part), &under);
            }
        }
        for p in 0..=POOLS {
            let part = PartitionId(p);
            let shift = fs.shift_width(part);
            testkit::tk_assert!(shift <= max_shift);
            testkit::tk_assert_eq!(
                fs.alpha(part).to_bits(),
                ratio.powi(i32::from(shift)).to_bits()
            );
        }
        let cands: Vec<Candidate> = cands
            .iter()
            .enumerate()
            .map(|(i, &(part, eighths))| cand(i as SlotId, part, f64::from(eighths) / 8.0))
            .collect();
        let mut expect = 0usize;
        let mut best = f64::NEG_INFINITY;
        for (i, c) in cands.iter().enumerate() {
            let scaled = c.futility * ratio.powi(i32::from(fs.shift_width(c.part)));
            if scaled > best {
                best = scaled;
                expect = i;
            }
        }
        let decision = fs.victim(PartitionId(0), &cands, &over);
        testkit::tk_assert_eq!(decision, VictimDecision::evict(expect));
        Ok(())
    }

    #[test]
    fn victim_is_first_max_of_scaled_futility() {
        use testkit::{check, int_range, vec_of};
        check(
            "feedback_victim_is_first_max_of_scaled_futility",
            &(
                (
                    int_range(0usize..RATIOS.len()),
                    int_range(0usize..MAX_SHIFTS.len()),
                ),
                vec_of((int_range(0u16..POOLS), int_range(0u8..2)), 0..120),
                vec_of((int_range(0u16..POOLS + 1), int_range(0u16..9)), 1..24),
            ),
            prop_victim_is_first_max_of_scaled_futility,
        );
    }
}
