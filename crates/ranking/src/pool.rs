//! Shared per-partition order-statistic pool behind the LFU, OPT and
//! Random rankings (whose keys arrive in no particular order), the
//! tests' reference for the exact-LRU recency index, and the canonical
//! rank-pool snapshot codec both use.

use cachesim::fxmap::FxHashMap;
use cachesim::ostree::{OsTreap, RankQuery};
use cachesim::{Candidate, SnapshotError, SnapshotReader, SnapshotWriter};

/// One partition's worth of ranking state: an order-statistic treap over
/// `(key, addr)` pairs plus an address → key map.
///
/// `HIGH_IS_FUTILE` selects the futility orientation:
/// * `true` — the largest key is the most futile line (e.g. OPT, where
///   the key is the next-use time).
/// * `false` — the smallest key is the most futile line (e.g. LRU,
///   where the key is the last-access time).
#[derive(Debug)]
pub(crate) struct TreapPool<const HIGH_IS_FUTILE: bool> {
    treap: OsTreap<(u64, u64)>,
    keys: FxHashMap<u64, u64>,
}

impl<const HIGH_IS_FUTILE: bool> TreapPool<HIGH_IS_FUTILE> {
    pub(crate) fn new(seed: u64) -> Self {
        TreapPool {
            treap: OsTreap::new(seed),
            keys: FxHashMap::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.treap.len()
    }

    /// Insert or re-key a line.
    pub(crate) fn upsert(&mut self, addr: u64, key: u64) {
        if let Some(old) = self.keys.insert(addr, key) {
            self.treap.remove(&(old, addr));
        }
        self.treap.insert((key, addr));
    }

    /// Remove a line; returns its key if it was present.
    pub(crate) fn remove(&mut self, addr: u64) -> Option<u64> {
        let old = self.keys.remove(&addr)?;
        self.treap.remove(&(old, addr));
        Some(old)
    }

    /// The stored key for `addr`.
    pub(crate) fn key_of(&self, addr: u64) -> Option<u64> {
        self.keys.get(&addr).copied()
    }

    /// Normalized futility of `addr` in `(0, 1]`; 0.0 for untracked
    /// lines or empty pools.
    pub(crate) fn futility(&self, addr: u64) -> f64 {
        let key = match self.keys.get(&addr) {
            Some(&k) => k,
            None => return 0.0,
        };
        let m = self.treap.len();
        if m == 0 {
            return 0.0;
        }
        let rank = self.treap.rank(&(key, addr));
        if HIGH_IS_FUTILE {
            (rank + 1) as f64 / m as f64
        } else {
            (m - rank) as f64 / m as f64
        }
    }

    /// Serialize the pool as its sorted `(key, addr)` pairs: ranks
    /// depend only on the key set, so the treap's shape, priorities and
    /// free list are not part of the state.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter) {
        let mut pairs: Vec<(u64, u64)> = self.keys.iter().map(|(&a, &k)| (k, a)).collect();
        pairs.sort_unstable();
        write_pairs(w, pairs.len(), pairs.into_iter());
    }

    /// Restore a pool serialized by [`save_state`](Self::save_state),
    /// rebuilding the treap by insertion.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapshotReader,
        what: &str,
    ) -> Result<(), SnapshotError> {
        let pairs = read_pairs(r, what)?;
        self.treap.clear();
        self.keys = FxHashMap::default();
        self.keys.reserve(pairs.len());
        for (key, addr) in pairs {
            if self.keys.insert(addr, key).is_some() {
                return Err(SnapshotError::corrupt(format!(
                    "{what} rank pool holds address {addr:#x} twice"
                )));
            }
            self.treap.insert((key, addr));
        }
        Ok(())
    }

    /// The tracked addresses.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.keys().copied()
    }

    /// The most futile line, if any.
    pub(crate) fn most_futile(&self) -> Option<u64> {
        let entry = if HIGH_IS_FUTILE {
            self.treap.max()
        } else {
            self.treap.min()
        };
        entry.map(|&(_, addr)| addr)
    }
}

/// Write one rank pool canonically: its length, then its `(key, addr)`
/// pairs in increasing order. `pairs` must yield exactly `len` pairs.
pub(crate) fn write_pairs(
    w: &mut SnapshotWriter,
    len: usize,
    pairs: impl Iterator<Item = (u64, u64)>,
) {
    w.usize(len);
    let mut written = 0;
    for (key, addr) in pairs {
        w.u64(key);
        w.u64(addr);
        written += 1;
    }
    debug_assert_eq!(written, len, "rank pool length disagrees with its pairs");
}

/// Read one rank pool written by [`write_pairs`].
///
/// # Errors
/// [`SnapshotError::Corrupt`] unless the pairs are strictly increasing
/// (which also rules out a repeated pair).
pub(crate) fn read_pairs(
    r: &mut SnapshotReader,
    what: &str,
) -> Result<Vec<(u64, u64)>, SnapshotError> {
    let len = r.seq_len(16)?;
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(len);
    for _ in 0..len {
        let pair = (r.u64()?, r.u64()?);
        if pairs.last().is_some_and(|&prev| prev >= pair) {
            return Err(SnapshotError::corrupt(format!(
                "{what} rank pool pairs are not strictly increasing"
            )));
        }
        pairs.push(pair);
    }
    Ok(pairs)
}

/// Reject rank pools that hold one address twice, in one pool or in
/// two: a line holds one array slot, so it lives in at most one pool.
pub(crate) fn check_disjoint(
    addrs: impl Iterator<Item = u64>,
    what: &str,
) -> Result<(), SnapshotError> {
    let mut addrs: Vec<u64> = addrs.collect();
    addrs.sort_unstable();
    match addrs.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(SnapshotError::corrupt(format!(
            "{what} rank pools hold address {:#x} twice",
            w[0]
        ))),
        None => Ok(()),
    }
}

/// Read the exact shadow of a coarse ranking's pool `pool` and check
/// that it tracks exactly the lines the pool has tags for.
pub(crate) fn read_shadow_pool<V>(
    r: &mut SnapshotReader,
    what: &str,
    pool: usize,
    tags: &FxHashMap<u64, V>,
) -> Result<Vec<(u64, u64)>, SnapshotError> {
    let pairs = read_pairs(r, what)?;
    if pairs.len() != tags.len() || pairs.iter().any(|(_, addr)| !tags.contains_key(addr)) {
        return Err(SnapshotError::corrupt(format!(
            "{what} of pool {pool} does not track exactly the pool's lines"
        )));
    }
    Ok(pairs)
}

/// Shared `save_state` for rankings whose whole state is one
/// [`TreapPool`] per pool: one named section holding the pool count and
/// each pool in order.
pub(crate) fn save_pools<const HIGH_IS_FUTILE: bool>(
    name: &str,
    pools: &[TreapPool<HIGH_IS_FUTILE>],
    w: &mut SnapshotWriter,
) {
    w.begin(name);
    w.usize(pools.len());
    for p in pools {
        p.save_state(w);
    }
    w.end();
}

/// Counterpart of [`save_pools`]: the engine composition fixes the pool
/// count, so a count mismatch is a composition mismatch, not corruption.
pub(crate) fn load_pools<const HIGH_IS_FUTILE: bool>(
    name: &str,
    pools: &mut [TreapPool<HIGH_IS_FUTILE>],
    r: &mut SnapshotReader,
) -> Result<(), SnapshotError> {
    r.begin(name)?;
    let n = r.usize()?;
    if n != pools.len() {
        return Err(SnapshotError::mismatch(format!(
            "snapshot has {n} {name} rank pools, engine has {}",
            pools.len()
        )));
    }
    for p in pools.iter_mut() {
        p.load_state(r, name)?;
    }
    check_disjoint(pools.iter().flat_map(|p| p.addrs()), name)?;
    r.end()
}

/// How many rank walks `batch_over_pools` keeps in flight at once.
/// Covers a full 16-way candidate list in one round; the lane arrays
/// live on the stack either way.
const LANES: usize = 16;

/// Shared `futility_batch` driver for rankings backed by one
/// [`TreapPool`] per pool: build one rank query per tracked candidate,
/// then resolve them with *interleaved* treap descents — every lane is
/// an independent root-to-leaf walk (often in a different pool's
/// treap), advanced one level per round via [`OsTreap::walk_step`]. A
/// rank descent is memory-latency-bound (one dependent node load per
/// level), so up to [`LANES`] interleaved walks keep that many loads
/// in flight instead of serializing one full descent per candidate.
/// Ranks only depend on (treap contents, key), so the futilities are
/// bitwise-identical to the scalar path. Untracked candidates get
/// futility 0.0, same as the scalar path.
///
/// `scratch` is caller-owned so the per-access hot path never
/// allocates once it has warmed up.
pub(crate) fn batch_over_pools<const HIGH_IS_FUTILE: bool>(
    pools: &[TreapPool<HIGH_IS_FUTILE>],
    scratch: &mut Vec<RankQuery<(u64, u64)>>,
    cands: &mut [Candidate],
) {
    scratch.clear();
    for (i, c) in cands.iter_mut().enumerate() {
        match pools.get(c.part.index()).and_then(|p| p.key_of(c.addr)) {
            Some(key) => scratch.push(RankQuery {
                pool: c.part.index() as u32,
                key: (key, c.addr),
                tag: i as u32,
                rank: 0,
            }),
            None => c.futility = 0.0,
        }
    }
    for chunk in scratch.chunks_mut(LANES) {
        let k = chunk.len();
        // Placeholder-init the lane arrays from lane 0, then overwrite
        // the `k` live lanes; lanes `k..LANES` are never read.
        let first = &pools[chunk[0].pool as usize].treap;
        let mut treaps = [first; LANES];
        let mut cur = [first.walk_start(); LANES];
        for (i, q) in chunk.iter().enumerate() {
            let tr = &pools[q.pool as usize].treap;
            treaps[i] = tr;
            cur[i] = tr.walk_start();
        }
        let mut live = true;
        while live {
            live = false;
            for ((tr, c), q) in treaps[..k].iter().zip(&mut cur[..k]).zip(chunk.iter()) {
                live |= tr.walk_step(c, &q.key);
            }
        }
        for (q, c) in chunk.iter_mut().zip(cur.iter()) {
            q.rank = c.rank();
        }
    }
    for q in scratch.iter() {
        // `key_of` hit above, so the pool's treap is non-empty.
        let m = pools[q.pool as usize].len();
        let rank = q.rank as usize;
        cands[q.tag as usize].futility = if HIGH_IS_FUTILE {
            (rank + 1) as f64 / m as f64
        } else {
            (m - rank) as f64 / m as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_key_futile_orientation() {
        let mut p: TreapPool<false> = TreapPool::new(1);
        p.upsert(10, 100);
        p.upsert(11, 200);
        assert!((p.futility(10) - 1.0).abs() < 1e-12);
        assert!((p.futility(11) - 0.5).abs() < 1e-12);
        assert_eq!(p.most_futile(), Some(10));
    }

    #[test]
    fn high_key_futile_orientation() {
        let mut p: TreapPool<true> = TreapPool::new(2);
        p.upsert(10, 100);
        p.upsert(11, 200);
        assert!((p.futility(11) - 1.0).abs() < 1e-12);
        assert_eq!(p.most_futile(), Some(11));
    }

    #[test]
    fn upsert_rekeys_in_place() {
        let mut p: TreapPool<false> = TreapPool::new(3);
        p.upsert(10, 100);
        p.upsert(11, 200);
        p.upsert(10, 300); // refresh line 10
        assert_eq!(p.len(), 2);
        assert_eq!(p.most_futile(), Some(11));
        assert_eq!(p.key_of(10), Some(300));
    }

    #[test]
    fn remove_untracked_is_none() {
        let mut p: TreapPool<false> = TreapPool::new(4);
        assert_eq!(p.remove(77), None);
        p.upsert(77, 1);
        assert_eq!(p.remove(77), Some(1));
        assert_eq!(p.len(), 0);
    }
}
