//! A zcache-style array (Sanchez & Kozyrakis, MICRO 2010): W ways with
//! independent hash functions, but the candidate list is *expanded*
//! beyond W by walking the rehash positions of the current candidates,
//! yielding R > W replacement candidates at the cost of relocating a
//! short chain of lines on each eviction. The FS paper cites zcache both
//! as the origin of the generalized associativity framework (candidates
//! per eviction, associativity distributions) and as an array for which
//! the uniformity assumption holds well.

use super::{CacheArray, SlotTable};
use crate::hashing::{IndexHash, LineHash};
use crate::ids::{Occupant, PartitionId, SlotId};
use crate::scheme_api::Candidate;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Per-candidate expansion record: how the walk reached this slot.
#[derive(Copy, Clone, Debug)]
struct WalkNode {
    slot: SlotId,
    /// Index (into the walk) of the candidate whose occupant can move
    /// into `slot`; `usize::MAX` for the level-0 home positions.
    parent: usize,
}

/// A zcache `Z(ways, R)`: candidate walks stop once `R` candidates have
/// been gathered (or the frontier is exhausted).
pub struct ZCache {
    table: SlotTable,
    sets: usize,
    r: usize,
    hashes: Vec<LineHash>,
    walk: Vec<WalkNode>,
}

impl ZCache {
    /// Create a zcache with `sets` rows per way, `ways` ways and `r`
    /// candidates per eviction.
    ///
    /// # Panics
    /// Panics if `sets == 0`, `ways < 2` or `r < ways`.
    pub fn new(sets: usize, ways: usize, r: usize, seed: u64) -> Self {
        assert!(sets > 0 && ways >= 2 && r >= ways);
        let hashes = (0..ways)
            .map(|w| LineHash::new(seed ^ (w as u64 + 1).wrapping_mul(0xA2C9)))
            .collect();
        ZCache {
            table: SlotTable::new(sets * ways),
            sets,
            r,
            hashes,
            walk: Vec::new(),
        }
    }

    #[inline]
    fn way_slot(&self, way: usize, addr: u64) -> SlotId {
        (way * self.sets + (self.hashes[way].hash(addr) % self.sets as u64) as usize) as SlotId
    }

    #[inline]
    fn way_of(&self, slot: SlotId) -> usize {
        slot as usize / self.sets
    }

    /// BFS over rehash positions into `self.walk`. Level 0: home
    /// positions of `addr`; deeper levels: rehash positions of the
    /// occupants found along the way. `install` replays the recorded
    /// walk to relocate the chain, so both candidate entry points must
    /// build it identically.
    fn build_walk(&mut self, addr: u64) {
        self.walk.clear();
        for w in 0..self.hashes.len() {
            let slot = self.way_slot(w, addr);
            if !self.walk.iter().any(|n| n.slot == slot) {
                self.walk.push(WalkNode {
                    slot,
                    parent: usize::MAX,
                });
            }
        }
        let mut frontier = 0usize;
        while self.walk.len() < self.r && frontier < self.walk.len() {
            let node = self.walk[frontier];
            if let Some(occ) = self.table.occupant(node.slot) {
                let home_way = self.way_of(node.slot);
                for w in 0..self.hashes.len() {
                    if w == home_way {
                        continue;
                    }
                    let slot = self.way_slot(w, occ.addr);
                    if !self.walk.iter().any(|n| n.slot == slot) {
                        self.walk.push(WalkNode {
                            slot,
                            parent: frontier,
                        });
                        if self.walk.len() >= self.r {
                            break;
                        }
                    }
                }
            }
            frontier += 1;
        }
    }
}

impl CacheArray for ZCache {
    fn name(&self) -> &'static str {
        "zcache"
    }

    fn num_slots(&self) -> usize {
        self.table.len()
    }

    fn candidates_per_eviction(&self) -> usize {
        self.r
    }

    fn lookup(&self, addr: u64) -> Option<SlotId> {
        self.table.lookup(addr)
    }

    fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        self.table.occupant(slot)
    }

    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>) {
        self.build_walk(addr);
        out.extend(self.walk.iter().map(|n| n.slot));
    }

    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        // The full walk must be recorded even when an empty slot cuts
        // the scan short: `install` relocates along it.
        self.build_walk(addr);
        for i in 0..self.walk.len() {
            let slot = self.walk[i].slot;
            match self.table.occupant(slot) {
                Some(occ) => out.push(Candidate {
                    slot,
                    addr: occ.addr,
                    part: occ.part,
                    futility: 0.0,
                }),
                None => return Some(slot),
            }
        }
        None
    }

    fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        self.table.lookup_occupant(addr)
    }

    fn evict(&mut self, slot: SlotId) {
        self.table.evict(slot);
    }

    fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId) {
        // Find the victim in the recorded walk and relocate the chain:
        // parent occupants slide down into their child slots; the
        // incoming line lands in the freed level-0 slot.
        let mut idx = self
            .walk
            .iter()
            .position(|n| n.slot == slot)
            .unwrap_or(usize::MAX);
        let mut hole = slot;
        while idx != usize::MAX {
            let node = self.walk[idx];
            if node.parent == usize::MAX {
                break;
            }
            let parent = self.walk[node.parent];
            self.table.relocate(parent.slot, hole);
            hole = parent.slot;
            idx = node.parent;
        }
        debug_assert!(
            (0..self.hashes.len()).any(|w| self.way_slot(w, addr) == hole),
            "relocation chain must end at a home position of the incoming line"
        );
        self.table.install(hole, addr, part);
        self.walk.clear();
    }

    fn retag(&mut self, slot: SlotId, part: PartitionId) {
        self.table.retag(slot, part);
    }

    fn occupied(&self) -> usize {
        self.table.occupied()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // `walk` is per-miss scratch (engine snapshots happen between
        // accesses, never mid-miss), so only the table is state.
        w.begin("zcache");
        w.usize(self.sets);
        w.usize(self.hashes.len());
        w.usize(self.r);
        self.table.save_state(w);
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("zcache")?;
        let (sets, ways, cands) = (r.usize()?, r.usize()?, r.usize()?);
        if sets != self.sets || ways != self.hashes.len() || cands != self.r {
            return Err(SnapshotError::mismatch(format!(
                "array is Z(sets={}, ways={}, R={}), snapshot is Z(sets={sets}, ways={ways}, R={cands})",
                self.sets,
                self.hashes.len(),
                self.r
            )));
        }
        self.table.load_state(r)?;
        r.end()?;
        self.walk.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_reaches_r_candidates_when_populated() {
        let mut z = ZCache::new(64, 4, 16, 5);
        // Fill the cache so expansions have occupants to walk through.
        let mut out = Vec::new();
        for addr in 0..(64 * 4) as u64 {
            out.clear();
            z.candidate_slots(addr, &mut out);
            if let Some(&s) = out.iter().find(|&&s| z.occupant(s).is_none()) {
                z.install(s, addr, PartitionId(0));
            }
        }
        out.clear();
        z.candidate_slots(99_999, &mut out);
        assert_eq!(out.len(), 16, "walk should expand to R candidates");
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len(), "candidates must be distinct");
    }

    #[test]
    fn relocation_chain_preserves_residency() {
        let mut z = ZCache::new(32, 4, 12, 6);
        let mut out = Vec::new();
        let mut resident = Vec::new();
        for addr in 0..200u64 {
            out.clear();
            z.candidate_slots(addr, &mut out);
            if let Some(&s) = out.iter().find(|&&s| z.occupant(s).is_none()) {
                z.install(s, addr, PartitionId(0));
                resident.push(addr);
            } else {
                // Evict the deepest candidate to exercise relocation.
                let victim_slot = *out.last().unwrap();
                let victim_addr = z.occupant(victim_slot).unwrap().addr;
                z.evict(victim_slot);
                z.install(victim_slot, addr, PartitionId(0));
                resident.retain(|&a| a != victim_addr);
                resident.push(addr);
            }
            // Every resident line must still be findable.
            for &a in &resident {
                let slot = z.lookup(a).expect("resident line lost");
                assert_eq!(z.occupant(slot).unwrap().addr, a);
            }
        }
        assert_eq!(z.occupied(), resident.len());
    }

    #[test]
    fn level0_eviction_installs_in_place() {
        let mut z = ZCache::new(16, 2, 4, 7);
        let mut out = Vec::new();
        z.candidate_slots(1, &mut out);
        let s = out[0];
        z.install(s, 1, PartitionId(0));
        // Re-walk for a line colliding at the same home position and
        // evict the level-0 candidate: no relocation needed.
        out.clear();
        z.candidate_slots(1, &mut out);
        z.evict(s);
        z.install(s, 1, PartitionId(0));
        assert_eq!(z.lookup(1), Some(s));
    }
}
