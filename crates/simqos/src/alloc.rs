//! Allocation policies: the software component that translates QoS
//! objectives into per-partition line targets (Section II-A). The
//! enforcement schemes under study receive these targets via
//! [`PartitionedCache::set_targets`](cachesim::PartitionedCache::set_targets).
//!
//! * [`equal_share`] — Communist: divide the cache evenly.
//! * [`static_qos`] — Elitist: guarantee each *subject* thread a fixed
//!   number of lines, split the remainder among background threads
//!   (Figure 7's policy).
//! * [`ucp_allocate`] + [`lru_miss_curve`] — Utilitarian: utility-based
//!   cache partitioning driven by Mattson stack-distance miss curves
//!   (an extension beyond the paper's static policy).

use cachesim::fxmap::FxHashMap;
use cachesim::ostree::OsTreap;
use cachesim::umon::Umon;
use cachesim::Trace;
use std::collections::HashMap;

/// Divide `total` lines evenly among `n` partitions; the first
/// `total % n` partitions get one extra line.
///
/// # Panics
/// Panics if `n == 0`.
pub fn equal_share(total: usize, n: usize) -> Vec<usize> {
    assert!(n > 0);
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Figure 7's allocation: `subjects` threads each get
/// `lines_per_subject`; the remaining lines are divided equally among
/// `backgrounds` threads. Subject targets come first in the returned
/// vector.
///
/// # Panics
/// Panics if the subject guarantees exceed the cache or if
/// `backgrounds == 0` while lines remain.
pub fn static_qos(
    total: usize,
    subjects: usize,
    lines_per_subject: usize,
    backgrounds: usize,
) -> Vec<usize> {
    let guaranteed = subjects * lines_per_subject;
    assert!(guaranteed <= total, "subject guarantees exceed the cache");
    let mut targets = vec![lines_per_subject; subjects];
    if backgrounds > 0 {
        targets.extend(equal_share(total - guaranteed, backgrounds));
    } else {
        assert_eq!(
            guaranteed, total,
            "leftover lines with no background threads"
        );
    }
    targets
}

/// Mattson stack-distance profiling: compute the LRU miss *ratio* of a
/// trace at each capacity in `capacities` (lines), in one pass.
///
/// A reuse at stack distance `d` hits in any LRU cache with at least
/// `d + 1` lines; cold references miss everywhere.
pub fn lru_miss_curve(trace: &Trace, capacities: &[usize]) -> Vec<f64> {
    // Order-statistic set of resident lines keyed by last access time:
    // the stack distance of a reuse is the number of lines accessed
    // more recently, i.e. len − rank − 1.
    let mut stack: OsTreap<(u64, u64)> = OsTreap::new(0x3A77);
    let mut last: FxHashMap<u64, u64> = FxHashMap::default();
    let mut dist_hist: HashMap<usize, u64> = HashMap::new();
    let mut cold = 0u64;
    for (time, a) in trace.accesses.iter().enumerate() {
        let time = time as u64;
        match last.insert(a.addr, time) {
            Some(prev) => {
                let rank = stack.rank(&(prev, a.addr));
                let d = stack.len() - rank - 1;
                *dist_hist.entry(d).or_insert(0) += 1;
                stack.remove(&(prev, a.addr));
            }
            None => cold += 1,
        }
        stack.insert((time, a.addr));
    }
    let total = trace.len() as u64;
    capacities
        .iter()
        .map(|&c| {
            if total == 0 {
                return 0.0;
            }
            // Misses: cold + reuses at distance >= capacity.
            let far: u64 = dist_hist
                .iter()
                .filter(|(&d, _)| d >= c)
                .map(|(_, &n)| n)
                .sum();
            (cold + far) as f64 / total as f64
        })
        .collect()
}

/// Utility-based cache partitioning (UCP-style greedy): given each
/// thread's hit counts at multiples of `granularity` lines, assign
/// `blocks` blocks of `granularity` lines to maximize total marginal
/// hits. `hits[i][k]` is thread `i`'s hit count with `k` blocks
/// (`hits[i][0] == 0` blocks). Returns per-thread block counts, which
/// sum to `blocks` for finite curves.
///
/// This is [`ucp_allocate_bounded_into`] with unit weights and
/// `0..=blocks` bounds.
///
/// # Panics
/// Panics if `hits` is empty or the curves are shorter than
/// `blocks + 1` entries.
pub fn ucp_allocate(hits: &[Vec<f64>], blocks: usize) -> Vec<usize> {
    let n = hits.len();
    let mut alloc = Vec::with_capacity(n);
    ucp_allocate_bounded_into(
        hits,
        &vec![1.0; n],
        &vec![0; n],
        &vec![blocks; n],
        blocks,
        &mut alloc,
    );
    alloc
}

/// Resample a monitor's shadow-way hit curve onto allocation blocks of
/// `granularity` lines: `out[k]` is the (linearly interpolated) hit
/// count the monitored thread would capture with `k` blocks of cache,
/// for `k` in `0..=total_lines / granularity`.
///
/// `ways_scratch` receives the raw way-indexed curve
/// ([`Umon::hit_curve_into`]); both buffers are cleared and refilled,
/// so a caller that reuses them keeps the whole resample off the heap
/// — the contract the per-epoch re-solve loops of online allocators
/// rely on (`tests/no_alloc_hot_path.rs`, re-solve arm).
///
/// # Panics
/// Panics if `granularity` is zero or larger than the cache.
pub fn resample_umon_curve_into(
    m: &Umon,
    total_lines: usize,
    granularity: usize,
    ways_scratch: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    assert!(granularity > 0 && granularity <= total_lines);
    let blocks = total_lines / granularity;
    m.hit_curve_into(ways_scratch);
    let ways = m.ways() as f64;
    out.clear();
    out.reserve(blocks + 1);
    for k in 0..=blocks {
        // Block k corresponds to this fraction of the cache, i.e. this
        // (fractional) shadow-way depth.
        let depth = k as f64 * granularity as f64 / total_lines as f64 * ways;
        let lo = depth.floor() as usize;
        let frac = depth - lo as f64;
        out.push(if lo + 1 >= ways_scratch.len() {
            *ways_scratch.last().expect("curve is non-empty")
        } else {
            ways_scratch[lo] * (1.0 - frac) + ways_scratch[lo + 1] * frac
        });
    }
}

/// Weighted, bounded UCP hill-climb: assign `blocks` blocks starting
/// from each thread's `min_blocks`, giving one block at a time to the
/// thread with the best *priority-weighted* marginal hit gain
/// (`weights[i] * (hits[i][k+1] - hits[i][k])`), never exceeding
/// `max_blocks`. First thread wins ties, for deterministic allocations.
/// Writes the per-thread block counts into `alloc_out` (cleared first;
/// allocation-free once it has capacity).
///
/// If every thread is capped before `blocks` are placed, the leftover
/// blocks stay unassigned — the returned counts then sum to less than
/// `blocks`. Callers that need full coverage must validate
/// `sum(max_blocks) >= blocks` up front (the QoS compiler does).
///
/// # Panics
/// Panics if the slice lengths disagree, a curve is shorter than
/// `blocks + 1` entries, a weight is not positive and finite, or
/// `min_blocks` exceeds `max_blocks` / oversubscribes `blocks`.
pub fn ucp_allocate_bounded_into(
    hits: &[Vec<f64>],
    weights: &[f64],
    min_blocks: &[usize],
    max_blocks: &[usize],
    blocks: usize,
    alloc_out: &mut Vec<usize>,
) {
    let n = hits.len();
    assert!(n > 0, "need at least one thread");
    assert!(weights.len() == n && min_blocks.len() == n && max_blocks.len() == n);
    for i in 0..n {
        assert!(
            hits[i].len() > blocks,
            "each hit curve needs blocks+1 entries (got {} for {blocks} blocks)",
            hits[i].len()
        );
        assert!(
            weights[i] > 0.0 && weights[i].is_finite(),
            "weights must be positive and finite"
        );
        assert!(min_blocks[i] <= max_blocks[i], "min exceeds max");
    }
    let floor: usize = min_blocks.iter().sum();
    assert!(
        floor <= blocks,
        "minimum guarantees oversubscribe the cache"
    );
    alloc_out.clear();
    alloc_out.extend_from_slice(min_blocks);
    for _ in 0..blocks - floor {
        let mut best = usize::MAX;
        let mut best_gain = f64::NEG_INFINITY;
        for i in 0..n {
            if alloc_out[i] >= max_blocks[i] {
                continue;
            }
            let gain = weights[i] * (hits[i][alloc_out[i] + 1] - hits[i][alloc_out[i]]);
            if gain > best_gain {
                best_gain = gain;
                best = i;
            }
        }
        if best == usize::MAX {
            break; // everyone capped: leave the rest unassigned
        }
        alloc_out[best] += 1;
    }
}

/// Convert online UMON measurements into UCP line targets: each
/// monitor's hit curve (indexed by shadow ways) is resampled onto
/// `total_lines / granularity` allocation blocks
/// ([`resample_umon_curve_into`]) and handed to the greedy
/// [`ucp_allocate`]; the result is per-thread line targets summing to
/// `total_lines`.
///
/// # Panics
/// Panics if `umons` is empty or `granularity` is zero or larger than
/// the cache.
pub fn ucp_from_umons(umons: &[Umon], total_lines: usize, granularity: usize) -> Vec<usize> {
    assert!(!umons.is_empty());
    let blocks = total_lines / granularity;
    let mut scratch = Vec::new();
    let curves: Vec<Vec<f64>> = umons
        .iter()
        .map(|m| {
            let mut c = Vec::with_capacity(blocks + 1);
            resample_umon_curve_into(m, total_lines, granularity, &mut scratch, &mut c);
            c
        })
        .collect();
    let alloc = ucp_allocate(&curves, blocks);
    let mut targets: Vec<usize> = alloc.iter().map(|&b| b * granularity).collect();
    // Hand any rounding remainder to the first thread.
    let spare = total_lines - targets.iter().sum::<usize>();
    targets[0] += spare;
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_share_distributes_remainder() {
        assert_eq!(equal_share(10, 3), vec![4, 3, 3]);
        assert_eq!(equal_share(9, 3), vec![3, 3, 3]);
    }

    #[test]
    fn static_qos_matches_figure7_shape() {
        // 8MB / 64B = 131072 lines, 4 subjects at 4096 lines each.
        let t = static_qos(131_072, 4, 4_096, 28);
        assert_eq!(t.len(), 32);
        assert!(t[..4].iter().all(|&x| x == 4_096));
        let back: usize = t[4..].iter().sum();
        assert_eq!(back, 131_072 - 4 * 4_096);
        assert!(t[4..].iter().all(|&x| x == back / 28 || x == back / 28 + 1));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn static_qos_rejects_oversubscription() {
        let _ = static_qos(100, 10, 50, 2);
    }

    #[test]
    fn miss_curve_of_cyclic_sweep_is_a_cliff() {
        // Cyclic sweep over 32 lines: LRU gets zero hits below 32 lines
        // and (after the cold pass) full hits at >= 32.
        let addrs: Vec<u64> = (0..3200u64).map(|i| i % 32).collect();
        let t = Trace::from_addrs(addrs, 1);
        let curve = lru_miss_curve(&t, &[16, 31, 32, 64]);
        assert!((curve[0] - 1.0).abs() < 1e-9, "thrash below WSS: {curve:?}");
        assert!((curve[1] - 1.0).abs() < 1e-9);
        assert!(curve[2] < 0.02, "fits at 32: {curve:?}");
        assert!(curve[3] < 0.02);
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        let t = workloads_like_trace();
        let caps: Vec<usize> = (0..10).map(|k| k * 8).collect();
        let curve = lru_miss_curve(&t, &caps);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{curve:?}");
        }
    }

    fn workloads_like_trace() -> Trace {
        // Mixture of a hot loop and a stream.
        let mut addrs = Vec::new();
        for i in 0..2000u64 {
            addrs.push(i % 16);
            addrs.push(1000 + i); // stream
        }
        Trace::from_addrs(addrs, 1)
    }

    #[test]
    fn ucp_gives_blocks_to_the_thread_that_uses_them() {
        // Thread 0 gains 10 hits per block up to 3 blocks; thread 1
        // gains 1 per block.
        let h0 = vec![0.0, 10.0, 20.0, 30.0, 30.0, 30.0];
        let h1 = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let alloc = ucp_allocate(&[h0, h1], 5);
        assert_eq!(alloc, vec![3, 2]);
    }

    #[test]
    fn umon_driven_targets_track_utility() {
        use cachesim::umon::Umon;
        // Thread 0 reuses a small hot set; thread 1 streams.
        let mut m0 = Umon::new(32, 16, 1);
        let mut m1 = Umon::new(32, 16, 1);
        for r in 0..20_000u64 {
            m0.observe(r % 64); // ~2 hot lines per sampled set
            m1.observe(1_000_000 + r);
        }
        let targets = ucp_from_umons(&[m0, m1], 8_192, 512);
        assert_eq!(targets.iter().sum::<usize>(), 8_192);
        assert!(
            targets[0] > targets[1],
            "the reuser earns the capacity: {targets:?}"
        );
    }

    #[test]
    fn umon_targets_cover_whole_cache_with_rounding() {
        use cachesim::umon::Umon;
        let mut m = Umon::new(8, 16, 1);
        for r in 0..1_000u64 {
            m.observe(r % 64);
        }
        let targets = ucp_from_umons(&[m.clone(), m], 10_000, 333);
        assert_eq!(targets.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn ucp_total_allocation_matches_budget() {
        let flat = vec![vec![0.0; 9]; 4];
        let alloc = ucp_allocate(&flat, 8);
        assert_eq!(alloc.iter().sum::<usize>(), 8);
    }

    #[test]
    fn bounded_ucp_matches_plain_ucp_without_bounds() {
        let h0 = vec![0.0, 10.0, 20.0, 30.0, 30.0, 30.0];
        let h1 = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let mut out = Vec::new();
        ucp_allocate_bounded_into(
            &[h0.clone(), h1.clone()],
            &[1.0, 1.0],
            &[0, 0],
            &[5, 5],
            5,
            &mut out,
        );
        assert_eq!(out, ucp_allocate(&[h0, h1], 5));
    }

    #[test]
    fn bounded_ucp_respects_floors_caps_and_weights() {
        // Thread 2's weight of 100 makes its tiny gains (100 × 1) beat
        // everyone's raw gains, but its cap stops it at 3 blocks; the
        // rest flows to thread 0 (gain 10) until its cap of 2, thread 1
        // keeps its guaranteed floor and takes the final block.
        let h0 = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let h1 = vec![0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0];
        let h2 = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        ucp_allocate_bounded_into(
            &[h0, h1, h2],
            &[1.0, 1.0, 100.0],
            &[0, 1, 0],
            &[2, 6, 3],
            6,
            &mut out,
        );
        assert_eq!(out, vec![2, 1, 3]);
        assert_eq!(out.iter().sum::<usize>(), 6);
    }

    #[test]
    fn bounded_ucp_leaves_blocks_unassigned_when_everyone_caps() {
        let flat = vec![vec![0.0; 9]; 2];
        let mut out = Vec::new();
        ucp_allocate_bounded_into(&flat, &[1.0, 1.0], &[0, 0], &[2, 3], 8, &mut out);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn resample_into_is_reusable_and_matches_ucp_from_umons_path() {
        use cachesim::umon::Umon;
        let mut m = Umon::new(8, 16, 1);
        for r in 0..5_000u64 {
            m.observe(r % 40);
        }
        let mut scratch = Vec::with_capacity(17);
        let mut out = Vec::with_capacity(17);
        resample_umon_curve_into(&m, 8_192, 512, &mut scratch, &mut out);
        assert_eq!(out.len(), 17);
        assert!((out[0] - 0.0).abs() < 1e-12);
        // Monotone non-decreasing, like any cumulative hit curve.
        for w in out.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{out:?}");
        }
        // Refill reuses the buffers.
        let (p1, p2) = (scratch.as_ptr(), out.as_ptr());
        resample_umon_curve_into(&m, 8_192, 512, &mut scratch, &mut out);
        assert_eq!((p1, p2), (scratch.as_ptr(), out.as_ptr()));
    }
}

#[cfg(test)]
mod workload_behaviour_tests {
    use super::*;
    use workloads::benchmark;

    /// Cross-check the synthetic profiles against their published
    /// capacity behaviour using Mattson miss curves (the anchors the
    /// Figure 6/7 substitutions rely on).
    #[test]
    fn profiles_have_expected_capacity_behaviour() {
        let curve = |name: &str| {
            let t = benchmark(name).expect("profile").generate(150_000, 9);
            // 128KB, 256KB, 1MB, 4MB in lines.
            lru_miss_curve(&t, &[2_048, 4_096, 16_384, 65_536])
        };
        let gromacs = curve("gromacs");
        let lbm = curve("lbm");
        let mcf = curve("mcf");
        // gromacs: real pressure at 128-256KB, comfortable at 1MB+.
        assert!(gromacs[1] > 0.02, "gromacs must miss at 256KB: {gromacs:?}");
        assert!(
            gromacs[2] < gromacs[0] * 0.8,
            "gromacs eases by 1MB: {gromacs:?}"
        );
        // lbm streams: high miss ratio at every size.
        assert!(lbm[3] > 0.5, "lbm misses everywhere: {lbm:?}");
        // mcf keeps missing even at 4MB (its region exceeds it).
        assert!(mcf[3] > 0.05, "mcf pressures 4MB: {mcf:?}");
        // And every curve is monotone non-increasing.
        for c in [&gromacs, &lbm, &mcf] {
            for w in c.windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
        }
    }

    /// The Figure 7 premise: lbm inserts far more aggressively than
    /// gromacs (it is the bully), yet gromacs is the one that benefits
    /// from capacity.
    #[test]
    fn lbm_is_the_bully() {
        let miss_at_256kb = |name: &str| {
            let t = benchmark(name).expect("profile").generate(100_000, 3);
            lru_miss_curve(&t, &[4_096])[0]
        };
        let lbm = miss_at_256kb("lbm");
        let gromacs = miss_at_256kb("gromacs");
        assert!(
            lbm > gromacs * 3.0,
            "lbm miss {lbm:.3} should dwarf gromacs {gromacs:.3}"
        );
    }
}
