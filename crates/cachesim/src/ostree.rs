//! An order-statistic treap: a balanced search tree with subtree-size
//! augmentation, giving `O(log n)` insert, remove, rank and select.
//!
//! Exact futility is an *order-statistic* problem (the paper defines a
//! line's futility as its rank normalized to `[0,1]`). The treap backs
//! the rankings whose keys arrive in no particular order (LFU, OPT,
//! random) and the reference exact-LRU rankings the tests compare
//! against; keys are `(ordering value, line address)` pairs, ranks are
//! counts of strictly smaller keys. Exact LRU itself, whose keys are
//! increasing access times, ranks by prefix counts over stamps instead
//! (the `ranking` crate's recency index).
//!
//! The implementation is an arena-backed treap with deterministic
//! priorities drawn from an internal xorshift stream, so simulations are
//! reproducible. Snapshots store a pool's sorted keys, not the arena:
//! ranks do not depend on the tree's shape.

const NIL: u32 = u32::MAX;

/// One rank lookup in a [`OsTreap::rank_many`] batch.
///
/// `pool` and `tag` are caller-owned routing fields the treap ignores:
/// the derived `Ord` sorts by `(pool, key, tag, rank)`, so a single
/// `sort_unstable` over a mixed-pool batch both groups queries by pool
/// and puts each group in the key order `rank_many` requires. `tag`
/// typically indexes back into the caller's candidate array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankQuery<K> {
    /// Caller-side group id (sorted first; not interpreted here).
    pub pool: u32,
    /// The key whose rank is requested.
    pub key: K,
    /// Caller-side routing tag (e.g. candidate index).
    pub tag: u32,
    /// Output: number of stored keys strictly smaller than `key`.
    pub rank: u32,
}

/// State of one resumable rank walk (see [`OsTreap::walk_step`]).
///
/// Advancing a rank descent one level at a time lets a caller keep
/// several independent walks in flight at once; the descents are
/// memory-latency-bound, so interleaving their node loads overlaps
/// what would otherwise be serial dependency chains.
#[derive(Clone, Copy, Debug)]
pub struct WalkCursor {
    t: u32,
    acc: u32,
}

impl WalkCursor {
    /// Rank accumulated so far; final once [`OsTreap::walk_step`]
    /// returns `false`.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.acc
    }
}

#[derive(Clone, Debug)]
/// 32 bytes for the common `K = (u64, u64)` — two nodes per cache line.
/// Priorities are the high 32 bits of an xorshift64* draw; a collision
/// only costs a deterministic tie-break in `merge`, never correctness,
/// and rank queries are independent of tree shape anyway.
///
/// The order-statistic augmentation is the *left subtree's* size, not
/// the node's own subtree size: a rank descent then needs exactly one
/// load per level (the node itself) instead of a second dependent load
/// of the left child's size — the walk is memory-latency-bound, so this
/// halves its critical path. Structural updates thread the current
/// subtree's total size down the recursion where they need it.
struct Node<K> {
    key: K,
    prio: u32,
    left: u32,
    right: u32,
    left_size: u32,
}

/// Order-statistic treap over unique keys.
///
/// # Example
///
/// ```
/// use cachesim::ostree::OsTreap;
/// let mut t = OsTreap::new(7);
/// t.insert((5, 0));
/// t.insert((1, 0));
/// t.insert((9, 0));
/// assert_eq!(t.rank(&(5, 0)), 1); // one key smaller than (5,0)
/// assert_eq!(*t.select(2).unwrap(), (9, 0));
/// assert!(t.remove(&(1, 0)));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct OsTreap<K> {
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    root: u32,
    rng: u64,
    /// Number of live keys (subtree totals are not stored per node).
    count: u32,
}

impl<K: Ord + Clone> OsTreap<K> {
    /// Create an empty treap; `seed` drives the deterministic priority
    /// stream (any value works, including 0).
    pub fn new(seed: u64) -> Self {
        OsTreap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: seed | 1,
            count: 0,
        }
    }

    /// Number of keys currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the treap holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Unchecked arena access for the descent-heavy hot paths.
    ///
    /// SAFETY invariant: every non-NIL index stored in `root`, a node's
    /// `left`/`right`, or `free` was produced by `alloc`, so it is
    /// `< nodes.len()`; the arena never shrinks except in [`clear`],
    /// which resets `root` and `free` along with it. Debug builds keep
    /// the bounds check as an assertion.
    #[inline(always)]
    fn node(&self, t: u32) -> &Node<K> {
        debug_assert!((t as usize) < self.nodes.len());
        unsafe { self.nodes.get_unchecked(t as usize) }
    }

    /// See [`node`](Self::node) for the safety invariant.
    #[inline(always)]
    fn node_mut(&mut self, t: u32) -> &mut Node<K> {
        debug_assert!((t as usize) < self.nodes.len());
        unsafe { self.nodes.get_unchecked_mut(t as usize) }
    }

    #[inline]
    fn next_prio(&mut self) -> u32 {
        // xorshift64*, keeping the (well-mixed) high half.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }

    fn alloc(&mut self, key: K) -> u32 {
        let prio = self.next_prio();
        let node = Node {
            key,
            prio,
            left: NIL,
            right: NIL,
            left_size: 0,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Rotate the left child of `t` up; returns the new subtree root.
    /// `left_size` fields must be correct on entry (including the newly
    /// inserted node, when called from `insert_rec`).
    #[inline]
    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.node(t).left;
        let lr = self.node(l).right;
        // New left subtree of `t` is `l`'s old right subtree, whose size
        // is `size(l) − 1 − left_size(l)` with `size(l) = left_size(t)`.
        let new_ls_t = self.node(t).left_size - 1 - self.node(l).left_size;
        let tn = self.node_mut(t);
        tn.left = lr;
        tn.left_size = new_ls_t;
        self.node_mut(l).right = t;
        l
    }

    /// Rotate the right child of `t` up; returns the new subtree root.
    #[inline]
    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.node(t).right;
        let rl = self.node(r).left;
        self.node_mut(t).right = rl;
        // `t` becomes `r`'s left subtree: its size is `t`'s old left
        // subtree plus `t` itself plus `r`'s old left subtree.
        let new_ls_r = self.node(t).left_size + 1 + self.node(r).left_size;
        let rn = self.node_mut(r);
        rn.left = t;
        rn.left_size = new_ls_r;
        r
    }

    /// Merge two treaps where every key of `a` precedes every key of
    /// `b`; `size_a` is the total size of `a` (threaded down because
    /// nodes only store left-subtree sizes).
    fn merge(&mut self, a: u32, size_a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).prio > self.node(b).prio {
            let ar = self.node(a).right;
            let size_ar = size_a - 1 - self.node(a).left_size;
            let m = self.merge(ar, size_ar, b);
            self.node_mut(a).right = m;
            a
        } else {
            let bl = self.node(b).left;
            let m = self.merge(a, size_a, bl);
            let bn = self.node_mut(b);
            bn.left = m;
            bn.left_size += size_a;
            b
        }
    }

    /// Insert a key. Returns `false` (and leaves the treap unchanged) if
    /// the key is already present.
    ///
    /// Single descent with rotations on the way back up. The resulting
    /// shape is identical to a split/merge insert: a treap's shape is
    /// uniquely determined by its (key, priority) set, and the priority
    /// is drawn exactly when the key turns out to be absent.
    pub fn insert(&mut self, key: K) -> bool {
        let (root, inserted) = self.insert_rec(self.root, key);
        self.root = root;
        self.count += inserted as u32;
        inserted
    }

    fn insert_rec(&mut self, t: u32, key: K) -> (u32, bool) {
        if t == NIL {
            return (self.alloc(key), true);
        }
        match key.cmp(&self.node(t).key) {
            std::cmp::Ordering::Equal => (t, false),
            std::cmp::Ordering::Less => {
                let left = self.node(t).left;
                let (child, inserted) = self.insert_rec(left, key);
                self.node_mut(t).left = child;
                if !inserted {
                    return (t, false);
                }
                self.node_mut(t).left_size += 1;
                if self.node(child).prio > self.node(t).prio {
                    (self.rotate_right(t), true)
                } else {
                    (t, true)
                }
            }
            std::cmp::Ordering::Greater => {
                let right = self.node(t).right;
                let (child, inserted) = self.insert_rec(right, key);
                self.node_mut(t).right = child;
                if !inserted {
                    return (t, false);
                }
                if self.node(child).prio > self.node(t).prio {
                    (self.rotate_left(t), true)
                } else {
                    (t, true)
                }
            }
        }
    }

    /// Remove a key. Returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let root_size = self.count;
        let (root, removed) = self.remove_rec(self.root, root_size, key);
        self.root = root;
        self.count -= removed as u32;
        removed
    }

    fn remove_rec(&mut self, t: u32, size_t: u32, key: &K) -> (u32, bool) {
        if t == NIL {
            return (NIL, false);
        }
        match key.cmp(&self.node(t).key) {
            std::cmp::Ordering::Less => {
                let (left, ls) = {
                    let nd = self.node(t);
                    (nd.left, nd.left_size)
                };
                let (child, removed) = self.remove_rec(left, ls, key);
                let tn = self.node_mut(t);
                tn.left = child;
                tn.left_size -= removed as u32;
                (t, removed)
            }
            std::cmp::Ordering::Greater => {
                let (right, rs) = {
                    let nd = self.node(t);
                    (nd.right, size_t - 1 - nd.left_size)
                };
                let (child, removed) = self.remove_rec(right, rs, key);
                self.node_mut(t).right = child;
                (t, removed)
            }
            std::cmp::Ordering::Equal => {
                let (l, r, ls) = {
                    let nd = self.node(t);
                    (nd.left, nd.right, nd.left_size)
                };
                let m = self.merge(l, ls, r);
                self.free.push(t);
                (m, true)
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let mut t = self.root;
        while t != NIL {
            let nd = self.node(t);
            match key.cmp(&nd.key) {
                std::cmp::Ordering::Less => t = nd.left,
                std::cmp::Ordering::Greater => t = nd.right,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Number of stored keys strictly smaller than `key` (the key itself
    /// need not be present).
    pub fn rank(&self, key: &K) -> usize {
        self.rank_walk(self.root, 0, key) as usize
    }

    /// Shared descent loop for scalar rank lookups, starting at subtree
    /// `t` with `base` keys already known to be smaller.
    ///
    /// Written branch-free on the descent direction: the left-or-right
    /// choice of a balanced search tree is data-dependent and
    /// mispredicts roughly every other level, so both children are
    /// selected by conditional moves instead. The left child's size is
    /// loaded unconditionally — one extra predictable load beats a
    /// pipeline flush per level.
    #[inline]
    fn rank_walk(&self, mut t: u32, mut acc: u32, key: &K) -> u32 {
        while t != NIL {
            let nd = self.node(t);
            let smaller = nd.key < *key;
            acc += if smaller { 1 + nd.left_size } else { 0 };
            t = if smaller { nd.right } else { nd.left };
        }
        acc
    }

    /// Start a resumable rank walk from the root (see [`WalkCursor`]).
    #[inline]
    pub fn walk_start(&self) -> WalkCursor {
        WalkCursor {
            t: self.root,
            acc: 0,
        }
    }

    /// Advance a rank walk one level; returns `false` once the walk has
    /// fallen off the tree and [`WalkCursor::rank`] is final.
    ///
    /// Same branch-free descent step as [`rank`](Self::rank), exposed
    /// one level at a time so a caller can interleave several
    /// independent walks (possibly over different treaps): each level
    /// costs one dependent node load, so `W` interleaved walks keep `W`
    /// loads in flight instead of serializing full descents.
    #[inline]
    pub fn walk_step(&self, c: &mut WalkCursor, key: &K) -> bool {
        if c.t == NIL {
            return false;
        }
        let nd = self.node(c.t);
        let smaller = nd.key < *key;
        c.acc += if smaller { 1 + nd.left_size } else { 0 };
        c.t = if smaller { nd.right } else { nd.left };
        true
    }

    /// Batched [`rank`](Self::rank): answer every query in one shared
    /// descent instead of one root-to-leaf walk per key.
    ///
    /// Queries must be sorted by `key` within the slice (`pool`/`tag`
    /// are ignored here — sort the whole [`RankQuery`] and pass each
    /// pool's sub-slice). Each tree node is visited at most once per
    /// contiguous query range, so a batch of `R` nearby keys costs
    /// roughly one descent plus `O(R)` partitioning rather than `R`
    /// full descents.
    pub fn rank_many(&self, queries: &mut [RankQuery<K>]) {
        debug_assert!(queries.windows(2).all(|w| w[0].key <= w[1].key));
        if queries.is_empty() {
            return;
        }
        self.rank_range(self.root, 0, queries);
    }

    fn rank_range(&self, mut t: u32, mut base: u32, mut queries: &mut [RankQuery<K>]) {
        loop {
            if let [q] = queries {
                // Singleton: finish with the scalar walk — same tight
                // loop as `rank`, resumed from the shared prefix.
                q.rank = self.rank_walk(t, base, &q.key);
                return;
            }
            if t == NIL {
                for q in queries {
                    q.rank = base;
                }
                return;
            }
            let nd = self.node(t);
            let (left, right, left_size) = (nd.left, nd.right, nd.left_size);
            // Queries with key <= node key have rank determined entirely
            // by the left subtree (strictly-smaller count semantics: the
            // node itself is not smaller than an equal key).
            let split = queries.partition_point(|q| q.key <= nd.key);
            let (lo, hi) = queries.split_at_mut(split);
            if hi.is_empty() {
                t = left;
                queries = lo;
                continue;
            }
            if !lo.is_empty() {
                self.rank_range(left, base, lo);
            }
            t = right;
            base += 1 + left_size;
            queries = hi;
        }
    }

    /// The key with exactly `rank` smaller keys (0-based), or `None` if
    /// out of range.
    pub fn select(&self, rank: usize) -> Option<&K> {
        if rank >= self.len() {
            return None;
        }
        let mut t = self.root;
        let mut rank = rank as u32;
        loop {
            let nd = self.node(t);
            let ls = nd.left_size;
            if rank < ls {
                t = nd.left;
            } else if rank == ls {
                return Some(&nd.key);
            } else {
                rank -= ls + 1;
                t = nd.right;
            }
        }
    }

    /// Smallest key, if any.
    pub fn min(&self) -> Option<&K> {
        self.select(0)
    }

    /// Largest key, if any.
    pub fn max(&self) -> Option<&K> {
        self.len().checked_sub(1).and_then(|r| self.select(r))
    }

    /// Remove all keys.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.count = 0;
    }
}

impl<K: Ord + Clone> Default for OsTreap<K> {
    fn default() -> Self {
        OsTreap::new(0x5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_rank_select_roundtrip() {
        let mut t = OsTreap::new(1);
        for k in [50u64, 20, 80, 10, 30, 70, 90] {
            assert!(t.insert((k, 0u64)));
        }
        assert_eq!(t.len(), 7);
        assert_eq!(t.rank(&(10, 0)), 0);
        assert_eq!(t.rank(&(50, 0)), 3);
        assert_eq!(t.rank(&(95, 0)), 7);
        assert_eq!(*t.select(0).unwrap(), (10, 0));
        assert_eq!(*t.select(6).unwrap(), (90, 0));
        assert!(t.select(7).is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = OsTreap::new(2);
        assert!(t.insert((1, 1)));
        assert!(!t.insert((1, 1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t: OsTreap<(u64, u64)> = OsTreap::new(3);
        t.insert((5, 5));
        assert!(!t.remove(&(6, 6)));
        assert!(t.remove(&(5, 5)));
        assert!(t.is_empty());
    }

    #[test]
    fn min_max_track_extremes() {
        let mut t = OsTreap::new(4);
        assert!(t.min().is_none());
        for k in [(3u64, 0u64), (1, 0), (2, 0)] {
            t.insert(k);
        }
        assert_eq!(*t.min().unwrap(), (1, 0));
        assert_eq!(*t.max().unwrap(), (3, 0));
        t.remove(&(3, 0));
        assert_eq!(*t.max().unwrap(), (2, 0));
    }

    #[test]
    fn arena_reuses_freed_nodes() {
        let mut t = OsTreap::new(5);
        for i in 0..100u64 {
            t.insert((i, 0u64));
        }
        for i in 0..100u64 {
            t.remove(&(i, 0));
        }
        let cap = t.nodes.len();
        for i in 100..200u64 {
            t.insert((i, 0));
        }
        assert_eq!(t.nodes.len(), cap, "freed slots should be reused");
    }

    #[test]
    fn rank_many_matches_scalar_rank() {
        let mut t = OsTreap::new(9);
        let mut x = 0x9E37_79B9u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..300 {
            t.insert((rng() % 1000, rng() % 4));
        }
        // Query a mix of present and absent keys, including duplicates.
        let mut queries: Vec<RankQuery<(u64, u64)>> = (0..64)
            .map(|i| RankQuery {
                pool: 0,
                key: (rng() % 1100, rng() % 4),
                tag: i,
                rank: u32::MAX,
            })
            .collect();
        queries.sort_unstable();
        t.rank_many(&mut queries);
        for q in &queries {
            assert_eq!(
                q.rank as usize,
                t.rank(&q.key),
                "batched rank mismatch for {:?}",
                q.key
            );
        }
        // Empty treap: every rank is 0.
        let empty: OsTreap<(u64, u64)> = OsTreap::new(1);
        let mut qs = queries.clone();
        empty.rank_many(&mut qs);
        assert!(qs.iter().all(|q| q.rank == 0));
    }

    /// Differential test against a sorted Vec reference model.
    #[test]
    fn matches_reference_model_under_random_ops() {
        let mut t = OsTreap::new(6);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x1234_5678u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..5000 {
            let k = (rng() % 500, 0u64);
            match rng() % 3 {
                0 => {
                    let inserted = t.insert(k);
                    let model_has = model.binary_search(&k).is_ok();
                    assert_eq!(inserted, !model_has);
                    if inserted {
                        let pos = model.binary_search(&k).unwrap_err();
                        model.insert(pos, k);
                    }
                }
                1 => {
                    let removed = t.remove(&k);
                    match model.binary_search(&k) {
                        Ok(pos) => {
                            assert!(removed);
                            model.remove(pos);
                        }
                        Err(_) => assert!(!removed),
                    }
                }
                _ => {
                    let expect = match model.binary_search(&k) {
                        Ok(p) | Err(p) => p,
                    };
                    assert_eq!(t.rank(&k), expect);
                }
            }
            assert_eq!(t.len(), model.len());
        }
        for (i, k) in model.iter().enumerate() {
            assert_eq!(t.select(i), Some(k));
        }
    }
}
