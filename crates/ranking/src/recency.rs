//! Exact recency ranks as prefix counts over last-access stamps.
//!
//! Exact LRU ranks a line by its last-access time within its pool. The
//! engine's access times are unique and increasing, and a retag keeps a
//! line's time, so every tracked line can hold one *stamp*, handed out
//! in increasing `(time, addr)` order across all pools of a ranking. A
//! line's rank is then a prefix count: the number of its pool's stamps
//! below its own. Each pool answers that from a bitmap over the stamp
//! space plus a Fenwick tree over the bitmap's 64-bit words, in
//! `O(log(stamps / 64))` over flat arrays. This is the stack-distance
//! technique of Bennett & Kruskal (1975) and Almási et al. (2002).
//!
//! * A hit or an insert appends one stamp, an eviction clears one bit,
//!   and a retag moves one bit between two pools.
//! * When the stamp space fills, the live stamps are renumbered densely
//!   in one sequential pass ([`RecencyRank::compact`]). The space
//!   doubles only when more than half of it is live, so a warm cache
//!   compacts without allocating.
//! * A key not larger than the newest one takes an exact slow path that
//!   restamps every line in sorted order. Engine traffic never sends
//!   one; unit tests and hand-driven rankings may.
//!
//! Ranks depend only on each pool's key set, so they equal the
//! order-statistic treap's (`TreapPool<false>`, the tests' reference)
//! bit for bit, and a snapshot stores each pool as its sorted
//! `(time, addr)` pairs.

use crate::pool::{check_disjoint, read_pairs, write_pairs};
use cachesim::fxmap::FxHashMap;
use cachesim::{Candidate, SnapshotError, SnapshotReader, SnapshotWriter};

/// Smallest stamp space, in stamps (a multiple of 64).
const MIN_STAMPS: usize = 4096;

/// `futility_batch` marker for a candidate the map does not track.
const NO_STAMP: u32 = u32::MAX;

/// One pool's stamps: a bitmap plus a Fenwick tree of word popcounts.
#[derive(Debug)]
struct StampPool {
    /// Bit `s` is set iff stamp `s` belongs to a line of this pool.
    bits: Vec<u64>,
    /// Fenwick tree over `bits`' popcounts, 1-based (`tree[0]` unused).
    tree: Vec<u32>,
    len: usize,
}

impl StampPool {
    fn with_words(words: usize) -> Self {
        StampPool {
            bits: vec![0; words],
            tree: vec![0; words + 1],
            len: 0,
        }
    }

    #[inline]
    fn has(&self, s: u32) -> bool {
        self.bits
            .get(s as usize / 64)
            .is_some_and(|w| w >> (s % 64) & 1 != 0)
    }

    #[inline]
    fn set(&mut self, s: u32) {
        let w = s as usize / 64;
        debug_assert!(!self.has(s), "stamp {s} set twice");
        self.bits[w] |= 1 << (s % 64);
        self.add(w, 1);
        self.len += 1;
    }

    #[inline]
    fn clear(&mut self, s: u32) {
        let w = s as usize / 64;
        debug_assert!(self.has(s), "stamp {s} cleared but not set");
        self.bits[w] &= !(1 << (s % 64));
        self.add(w, u32::MAX);
        self.len -= 1;
    }

    /// Add `delta` (wrapping, so `u32::MAX` subtracts one) to word `w`'s
    /// count.
    #[inline]
    fn add(&mut self, w: usize, delta: u32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of this pool's stamps below `s`.
    #[inline]
    fn below(&self, s: u32) -> u32 {
        let w = s as usize / 64;
        let mut n = (self.bits[w] & ((1u64 << (s % 64)) - 1)).count_ones();
        let mut i = w;
        while i > 0 {
            n += self.tree[i];
            i &= i - 1;
        }
        n
    }

    /// Exact-LRU futility of stamp `s`, which must belong to this pool:
    /// the share of the pool at or above it, so the oldest line reads 1.
    #[inline]
    fn futility(&self, s: u32) -> f64 {
        let m = self.len;
        (m - self.below(s) as usize) as f64 / m as f64
    }

    /// The lowest stamp of the pool (its least recently used line).
    fn first(&self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        // Fenwick descent to the first word whose prefix count is 1.
        let words = self.bits.len();
        let mut pos = 0;
        let mut step = 1usize << (usize::BITS - 1 - words.leading_zeros());
        while step > 0 {
            if pos + step <= words && self.tree[pos + step] == 0 {
                pos += step;
            }
            step >>= 1;
        }
        Some((pos * 64) as u32 + self.bits[pos].trailing_zeros())
    }

    /// The pool's stamps in increasing order.
    fn stamps(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    (w * 64) as u32 + b
                })
            })
        })
    }

    /// Recompute the Fenwick tree from `bits` in linear time.
    fn rebuild_tree(&mut self) {
        let n = self.bits.len();
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(self.bits.iter().map(|w| w.count_ones()));
        for i in 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                self.tree[j] += self.tree[i];
            }
        }
    }
}

/// Exact recency ranks for a set of pools: one stamp per tracked line,
/// one address → stamp map for all pools (an address lives in at most
/// one pool, since it holds one array slot), and per-pool bitmaps over
/// the shared stamp space.
#[derive(Debug)]
pub(crate) struct RecencyRank {
    pools: Vec<StampPool>,
    /// Stamp of every tracked line.
    stamp_of: FxHashMap<u64, u32>,
    /// `(time, addr)` of every stamp handed out since the last
    /// renumbering, in stamp order and strictly increasing; entries of
    /// departed lines stay until the next compaction.
    keys: Vec<(u64, u64)>,
    /// Size of the stamp space (a multiple of 64; 0 before any pool
    /// exists). `keys.len()` never exceeds it.
    cap: usize,
    /// Smallest stamp space (tests shrink it to force compactions).
    min_stamps: usize,
    /// Compaction scratch: the union of all pools' words, and the
    /// number of live stamps below each word (the old → new table).
    live: Vec<u64>,
    base: Vec<u32>,
    /// `futility_batch` scratch: each candidate's stamp.
    batch: Vec<u32>,
}

impl Default for RecencyRank {
    fn default() -> Self {
        RecencyRank {
            pools: Vec::new(),
            stamp_of: FxHashMap::default(),
            keys: Vec::new(),
            cap: 0,
            min_stamps: MIN_STAMPS,
            live: Vec::new(),
            base: Vec::new(),
            batch: Vec::new(),
        }
    }
}

impl RecencyRank {
    /// A ranking over `pools` empty pools whose stamp space starts at
    /// (and never shrinks below) `min_stamps`.
    #[cfg(test)]
    fn with_min_stamps(pools: usize, min_stamps: usize) -> Self {
        let mut r = RecencyRank {
            min_stamps,
            ..RecencyRank::default()
        };
        r.ensure(pools);
        r
    }

    /// Drop every line and size for `pools` pools.
    pub(crate) fn reset(&mut self, pools: usize) {
        *self = RecencyRank {
            min_stamps: self.min_stamps,
            ..RecencyRank::default()
        };
        self.ensure(pools);
    }

    /// Grow to at least `pools` pools.
    pub(crate) fn ensure(&mut self, pools: usize) {
        if pools <= self.pools.len() {
            return;
        }
        if self.cap == 0 {
            self.set_cap(self.min_stamps);
        }
        let words = self.cap / 64;
        self.pools
            .resize_with(pools, || StampPool::with_words(words));
    }

    /// Number of pools.
    pub(crate) fn pools(&self) -> usize {
        self.pools.len()
    }

    /// Lines tracked in `pool`.
    pub(crate) fn len(&self, pool: usize) -> usize {
        self.pools.get(pool).map_or(0, |p| p.len)
    }

    /// Line `addr` was inserted into or hit in `pool` at `time`. If the
    /// line is tracked in another pool it moves to `pool`.
    pub(crate) fn touch(&mut self, pool: usize, addr: u64, time: u64) {
        let key = (time, addr);
        if self.keys.last().is_some_and(|&newest| key <= newest) {
            return self.restamp(pool, key);
        }
        if self.keys.len() == self.cap {
            self.compact();
        }
        let s = self.keys.len() as u32;
        self.keys.push(key);
        if let Some(old) = self.stamp_of.insert(addr, s) {
            self.unlink(pool, old);
        }
        self.pools[pool].set(s);
    }

    /// Remove `addr` if `pool` tracks it; returns whether it did.
    pub(crate) fn remove(&mut self, pool: usize, addr: u64) -> bool {
        let Some(s) = self.stamp_of.remove(&addr) else {
            return false;
        };
        match self.pools.get_mut(pool) {
            Some(p) if p.has(s) => {
                p.clear(s);
                true
            }
            _ => {
                self.stamp_of.insert(addr, s);
                false
            }
        }
    }

    /// Move `addr` from `from` to `to`, keeping its stamp (its time);
    /// returns whether `from` tracked it.
    pub(crate) fn retag(&mut self, from: usize, to: usize, addr: u64) -> bool {
        match self.stamp_of.get(&addr) {
            Some(&s) if self.pools.get(from).is_some_and(|p| p.has(s)) => {
                self.pools[from].clear(s);
                self.pools[to].set(s);
                true
            }
            _ => false,
        }
    }

    /// Exact-LRU futility of `addr` in `pool`, in `(0, 1]`; 0.0 when
    /// `pool` does not track it.
    pub(crate) fn futility(&self, pool: usize, addr: u64) -> f64 {
        match (self.pools.get(pool), self.stamp_of.get(&addr)) {
            (Some(p), Some(&s)) if p.has(s) => p.futility(s),
            _ => 0.0,
        }
    }

    /// [`futility`](Self::futility) for a whole candidate list. All map
    /// probes go first, so their cache misses overlap instead of each
    /// one stalling its rank sum.
    pub(crate) fn futility_batch(&mut self, cands: &mut [Candidate]) {
        let RecencyRank {
            pools,
            stamp_of,
            batch,
            ..
        } = self;
        batch.clear();
        batch.extend(
            cands
                .iter()
                .map(|c| stamp_of.get(&c.addr).copied().unwrap_or(NO_STAMP)),
        );
        for (c, &s) in cands.iter_mut().zip(batch.iter()) {
            c.futility = match pools.get(c.part.index()) {
                Some(p) if p.has(s) => p.futility(s),
                _ => 0.0,
            };
        }
    }

    /// The least recently used line of `pool`.
    pub(crate) fn most_futile(&self, pool: usize) -> Option<u64> {
        let s = self.pools.get(pool)?.first()?;
        Some(self.keys[s as usize].1)
    }

    /// Write `pool` as its sorted `(time, addr)` pairs.
    pub(crate) fn save_pool(&self, pool: usize, w: &mut SnapshotWriter) {
        let p = &self.pools[pool];
        write_pairs(w, p.len, p.stamps().map(|s| self.keys[s as usize]));
    }

    /// Write the pool count and every pool ([`save_pool`](Self::save_pool)).
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.pools.len());
        for pool in 0..self.pools.len() {
            self.save_pool(pool, w);
        }
    }

    /// Counterpart of [`save_state`](Self::save_state). The engine
    /// composition fixes the pool count, so a different count is a
    /// mismatch, not corruption.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapshotReader,
        what: &str,
    ) -> Result<(), SnapshotError> {
        let n = r.usize()?;
        if n != self.pools.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {n} {what} rank pools, engine has {}",
                self.pools.len()
            )));
        }
        let pools = (0..n)
            .map(|_| read_pairs(r, what))
            .collect::<Result<Vec<_>, _>>()?;
        self.restore(&pools, what)
    }

    /// Replace every pool with the given `(time, addr)` pairs, one list
    /// per pool.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if one address appears twice, in one
    /// pool or in two: a line holds one array slot.
    pub(crate) fn restore(
        &mut self,
        pools: &[Vec<(u64, u64)>],
        what: &str,
    ) -> Result<(), SnapshotError> {
        debug_assert_eq!(pools.len(), self.pools.len());
        check_disjoint(pools.iter().flatten().map(|&(_, addr)| addr), what)?;
        let mut lines: Vec<((u64, u64), usize)> = pools
            .iter()
            .enumerate()
            .flat_map(|(p, pairs)| pairs.iter().map(move |&key| (key, p)))
            .collect();
        lines.sort_unstable();
        self.rebuild(&lines);
        Ok(())
    }

    /// Clear `s` from the pool holding it (`hint` first).
    fn unlink(&mut self, hint: usize, s: u32) {
        let owner = if self.pools[hint].has(s) {
            hint
        } else {
            self.pools
                .iter()
                .position(|p| p.has(s))
                .expect("every mapped stamp belongs to a pool")
        };
        self.pools[owner].clear(s);
    }

    /// Size every table for a stamp space of `cap` stamps.
    fn set_cap(&mut self, cap: usize) {
        debug_assert!(cap.is_multiple_of(64) && cap >= self.keys.len());
        assert!(cap <= u32::MAX as usize, "stamp space exceeds u32");
        self.cap = cap;
        let words = cap / 64;
        for p in &mut self.pools {
            p.bits.resize(words, 0);
            p.rebuild_tree();
        }
        self.live.resize(words, 0);
        self.base.resize(words, 0);
        self.keys.reserve_exact(cap - self.keys.len());
    }

    /// Renumber the live stamps densely, in order, in one sequential
    /// pass over the keys, each pool's words and the map's values; then
    /// double the stamp space if more than half of it is live.
    fn compact(&mut self) {
        let words = self.keys.len().div_ceil(64);
        let mut total = 0u32;
        for w in 0..words {
            let live = self.pools.iter().fold(0, |acc, p| acc | p.bits[w]);
            self.live[w] = live;
            self.base[w] = total;
            total += live.count_ones();
        }
        let (live, base) = (&self.live, &self.base);
        let renumber = |s: u32| {
            let w = s as usize / 64;
            base[w] + (live[w] & ((1u64 << (s % 64)) - 1)).count_ones()
        };
        let mut dst = 0;
        for (w, &word) in live[..words].iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let s = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.keys[dst] = self.keys[s];
                dst += 1;
            }
        }
        self.keys.truncate(dst);
        for p in &mut self.pools {
            // New stamps never exceed old ones, so each word is read
            // before any renumbered bit lands in it.
            for w in 0..words {
                let mut rest = std::mem::take(&mut p.bits[w]);
                while rest != 0 {
                    let ns = renumber((w * 64) as u32 + rest.trailing_zeros());
                    rest &= rest - 1;
                    p.bits[ns as usize / 64] |= 1 << (ns % 64);
                }
            }
            p.rebuild_tree();
        }
        for s in self.stamp_of.values_mut() {
            *s = renumber(*s);
        }
        let mut cap = self.cap;
        while 2 * dst > cap {
            cap *= 2;
        }
        if cap != self.cap {
            self.set_cap(cap);
        }
    }

    /// The exact slow path for a key not larger than the newest: list
    /// every line in stamp order, put the new key at its sorted place,
    /// and stamp everything afresh. `O(lines × pools)`.
    #[cold]
    fn restamp(&mut self, pool: usize, key: (u64, u64)) {
        if let Some(old) = self.stamp_of.remove(&key.1) {
            self.unlink(pool, old);
        }
        let mut lines: Vec<((u64, u64), usize)> = Vec::with_capacity(self.stamp_of.len() + 1);
        for (s, &k) in self.keys.iter().enumerate() {
            if let Some(p) = self.pools.iter().position(|p| p.has(s as u32)) {
                lines.push((k, p));
            }
        }
        let at = lines.partition_point(|&(k, _)| k < key);
        lines.insert(at, (key, pool));
        self.rebuild(&lines);
    }

    /// Stamp `lines` (sorted by key) densely from 0, keeping the stamp
    /// space at least half free.
    fn rebuild(&mut self, lines: &[((u64, u64), usize)]) {
        debug_assert!(lines.windows(2).all(|w| w[0].0 < w[1].0));
        let mut cap = self.cap.max(self.min_stamps);
        while 2 * lines.len() > cap {
            cap *= 2;
        }
        self.keys.clear();
        self.stamp_of.clear();
        for p in &mut self.pools {
            p.bits.iter_mut().for_each(|w| *w = 0);
            p.len = 0;
        }
        self.set_cap(cap);
        for (s, &(key, pool)) in lines.iter().enumerate() {
            self.keys.push(key);
            self.stamp_of.insert(key.1, s as u32);
            let p = &mut self.pools[pool];
            p.bits[s / 64] |= 1 << (s % 64);
            p.len += 1;
        }
        for p in &mut self.pools {
            p.rebuild_tree();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::TreapPool;
    use cachesim::PartitionId;
    use testkit::{check, int_range, vec_of, CaseResult, Failure};

    /// `tk_assert_eq!` with a context message.
    macro_rules! same {
        ($got:expr, $want:expr, $($ctx:tt)+) => {{
            let (got, want) = ($got, $want);
            if got != want {
                return Err(Failure::fail(format!(
                    "{}: {got:?} vs {want:?}",
                    format!($($ctx)+)
                )));
            }
        }};
    }

    const POOLS: usize = 3;
    const ADDRS: u64 = 24;

    fn ser(f: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        f(&mut w);
        w.finish()
    }

    fn reference_bytes(reference: &[TreapPool<false>]) -> Vec<u8> {
        ser(|w| {
            w.usize(reference.len());
            for p in reference {
                p.save_state(w);
            }
        })
    }

    /// Every query `RecencyRank` answers must equal the treap's.
    fn agrees(rank: &mut RecencyRank, reference: &[TreapPool<false>], step: usize) -> CaseResult {
        let mut cands = Vec::new();
        for (p, tp) in reference.iter().enumerate() {
            same!(rank.len(p), tp.len(), "len of pool {p} at step {step}");
            same!(
                rank.most_futile(p),
                tp.most_futile(),
                "most futile of pool {p} at step {step}"
            );
            for addr in 0..ADDRS {
                same!(
                    rank.futility(p, addr).to_bits(),
                    tp.futility(addr).to_bits(),
                    "futility of {addr} in pool {p} at step {step}"
                );
                cands.push(Candidate {
                    slot: 0,
                    addr,
                    part: PartitionId(p as u16),
                    futility: -1.0,
                });
            }
        }
        rank.futility_batch(&mut cands);
        for c in &cands {
            same!(
                c.futility.to_bits(),
                reference[c.part.index()].futility(c.addr).to_bits(),
                "batched futility of {} in pool {} at step {step}",
                c.addr,
                c.part.index()
            );
        }
        Ok(())
    }

    /// One generated step: `((kind, addr), (pool, jitter))`.
    type Op = ((u8, u64), (usize, u64));

    /// Drive both structures with the same ops: in-order touches, now
    /// and then an equal or earlier key, evictions and retags (some
    /// aimed at the wrong pool, which both must ignore). The stamp space
    /// is 64, so a run crosses many compactions; every 50 steps the
    /// ranking continues from a save → load round trip.
    fn prop_matches_treap(ops: &[Op]) -> CaseResult {
        let mut rank = RecencyRank::with_min_stamps(POOLS, 64);
        let mut reference: Vec<TreapPool<false>> =
            (0..POOLS).map(|i| TreapPool::new(i as u64)).collect();
        let mut owner: Vec<Option<usize>> = vec![None; ADDRS as usize];
        let mut t = 1_000u64;
        for (step, &((kind, addr), (pool, jitter))) in ops.iter().enumerate() {
            let home = owner[addr as usize];
            match kind {
                0..=45 => {
                    let time = if kind == 45 {
                        t.saturating_sub(jitter * 3)
                    } else {
                        t += 1 + jitter;
                        t
                    };
                    let p = home.unwrap_or(pool);
                    rank.touch(p, addr, time);
                    reference[p].upsert(addr, time);
                    owner[addr as usize] = Some(p);
                }
                46..=53 => {
                    let removed = rank.remove(pool, addr);
                    same!(
                        removed,
                        reference[pool].remove(addr).is_some(),
                        "remove of {addr} at step {step}"
                    );
                    if removed {
                        owner[addr as usize] = None;
                    }
                }
                _ => {
                    let from = match home {
                        Some(h) if jitter % 2 == 0 => h,
                        _ => (pool + 1) % POOLS,
                    };
                    let moved = rank.retag(from, pool, addr);
                    let expected = match reference[from].remove(addr) {
                        Some(key) => {
                            reference[pool].upsert(addr, key);
                            true
                        }
                        None => false,
                    };
                    same!(moved, expected, "retag of {addr} at step {step}");
                    if moved {
                        owner[addr as usize] = Some(pool);
                    }
                }
            }
            agrees(&mut rank, &reference, step)?;
            let bytes = ser(|w| rank.save_state(w));
            same!(
                &bytes,
                &reference_bytes(&reference),
                "snapshot at step {step}"
            );
            let mut back = RecencyRank::with_min_stamps(POOLS, 64);
            let mut r = SnapshotReader::open(&bytes).expect("own snapshot opens");
            back.load_state(&mut r, "test")
                .map_err(|e| Failure::fail(format!("reload at step {step}: {e}")))?;
            agrees(&mut back, &reference, step)?;
            if step % 50 == 49 {
                rank = back;
            }
        }
        Ok(())
    }

    #[test]
    fn ranks_match_the_treap_reference() {
        check(
            "recency_matches_treap",
            &vec_of(
                (
                    (int_range(0u8..64), int_range(0u64..ADDRS)),
                    (int_range(0usize..POOLS), int_range(0u64..4)),
                ),
                1..400,
            ),
            |ops: &Vec<Op>| prop_matches_treap(ops),
        );
    }

    #[test]
    fn warm_compaction_renumbers_densely_without_growing() {
        let mut rank = RecencyRank::with_min_stamps(2, 64);
        for t in 0..1_000u64 {
            let addr = t % 20;
            rank.touch((addr % 2) as usize, addr, t);
        }
        // 20 live lines never fill half of the 64 stamps: the space
        // stays put and every compaction left the keys dense.
        assert_eq!(rank.cap, 64);
        assert!(rank.keys.len() <= 64);
        assert_eq!(rank.stamp_of.len(), 20);
        // Lines 0, 2, ..., 18 were last touched at 980, 982, ..., 998.
        assert_eq!(rank.most_futile(0), Some(0));
        assert_eq!(rank.futility(0, 0), 1.0);
        assert_eq!(rank.futility(0, 18), 0.1);
        assert_eq!(rank.futility(1, 18), 0.0);
    }

    #[test]
    fn stamp_space_doubles_when_more_than_half_is_live() {
        let mut rank = RecencyRank::with_min_stamps(1, 64);
        for t in 0..200u64 {
            rank.touch(0, t % 40, t);
        }
        assert_eq!(rank.cap, 128);
        assert_eq!(rank.len(0), 40);
        assert_eq!(rank.most_futile(0), Some(0));
    }

    #[test]
    fn earlier_keys_take_the_exact_slow_path() {
        let mut rank = RecencyRank::with_min_stamps(2, 64);
        rank.touch(0, 10, 100);
        rank.touch(1, 11, 200);
        rank.touch(0, 12, 300);
        // An earlier time lands between the two pool-0 lines.
        rank.touch(0, 13, 150);
        assert_eq!(rank.most_futile(0), Some(10));
        assert_eq!(rank.futility(0, 13), 2.0 / 3.0);
        // An equal time orders by address; re-touching a line with its
        // own key changes nothing.
        rank.touch(0, 9, 100);
        assert_eq!(rank.most_futile(0), Some(9));
        rank.touch(0, 12, 300);
        assert_eq!(rank.futility(0, 12), 0.25);
        assert_eq!(rank.len(0), 4);
        assert_eq!(rank.futility(1, 11), 1.0);
    }

    #[test]
    fn restore_rejects_an_address_in_two_pools() {
        let mut rank = RecencyRank::with_min_stamps(2, 64);
        let err = rank
            .restore(&[vec![(1, 7)], vec![(2, 7)]], "test")
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        let err = rank
            .restore(&[vec![(1, 7), (2, 7)], vec![]], "test")
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        rank.restore(&[vec![(1, 7)], vec![(2, 8)]], "test").unwrap();
        assert_eq!(rank.most_futile(1), Some(8));
    }
}
