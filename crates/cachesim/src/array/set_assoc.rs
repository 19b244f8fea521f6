//! Conventional set-associative cache array with pluggable indexing.

use super::{read_slots, write_slots, CacheArray};
use crate::hashing::IndexHash;
use crate::ids::{Occupant, PartitionId, SlotId};
use crate::scheme_api::Candidate;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// A `sets × ways` set-associative array. Slot `set * ways + way`.
///
/// With `ways = 1` this is a direct-mapped cache (one replacement
/// candidate, the paper's worst-case baseline in Figure 6).
///
/// A lookup works like a tag match: it indexes the address's set and
/// compares the set's line addresses, which sit side by side (a 16-way
/// set's are 128 bytes). No address map exists, so evict, install and
/// retag are plain slot writes. Every occupied slot holds an address of
/// its own set, and no set holds an address twice; `load_state` rejects
/// snapshots that break either.
pub struct SetAssociative {
    /// Line address of each slot. An evicted slot keeps its last
    /// address; `parts` says whether the slot holds it.
    addrs: Vec<u64>,
    /// Partition of each slot's line, `None` for an empty slot.
    parts: Vec<Option<PartitionId>>,
    occupied: usize,
    sets: usize,
    ways: usize,
    hash: Box<dyn IndexHash>,
}

impl SetAssociative {
    /// Create an array with `sets` sets of `ways` ways, indexed by
    /// `hash(addr) % sets`.
    ///
    /// # Panics
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn new<H: IndexHash + 'static>(sets: usize, ways: usize, hash: H) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be nonzero");
        SetAssociative {
            addrs: vec![0; sets * ways],
            parts: vec![None; sets * ways],
            occupied: 0,
            sets,
            ways,
            hash: Box::new(hash),
        }
    }

    /// Build an array of `total_lines` lines with the given way count
    /// (helper for "a 512KB 16-way cache" style configuration).
    ///
    /// # Panics
    /// Panics if `total_lines` is not a multiple of `ways`.
    pub fn with_lines<H: IndexHash + 'static>(total_lines: usize, ways: usize, hash: H) -> Self {
        assert_eq!(
            total_lines % ways,
            0,
            "total_lines {total_lines} not a multiple of ways {ways}"
        );
        SetAssociative::new(total_lines / ways, ways, hash)
    }

    /// `hash(addr) % sets`. Every hit computes it, so a power-of-two
    /// set count takes the mask, which equals the modulo there and
    /// spares a 64-bit division (measurably faster on cache-resident
    /// hits, EXPERIMENTS.md "Set-associative lookups by tag compare").
    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        let h = self.hash.hash(addr);
        let set = if self.sets.is_power_of_two() {
            h & (self.sets as u64 - 1)
        } else {
            h % self.sets as u64
        };
        set as usize
    }

    /// The slot holding `addr`: compare the addresses of its set.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let base = self.set_of(addr) * self.ways;
        let addrs = &self.addrs[base..base + self.ways];
        let parts = &self.parts[base..base + self.ways];
        addrs
            .iter()
            .zip(parts)
            .position(|(&a, part)| a == addr && part.is_some())
            .map(|way| base + way)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

impl CacheArray for SetAssociative {
    fn name(&self) -> &'static str {
        "set-assoc"
    }

    fn num_slots(&self) -> usize {
        self.addrs.len()
    }

    fn candidates_per_eviction(&self) -> usize {
        self.ways
    }

    fn lookup(&self, addr: u64) -> Option<SlotId> {
        self.find(addr).map(|slot| slot as SlotId)
    }

    fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        let slot = slot as usize;
        self.parts[slot].map(|part| Occupant {
            addr: self.addrs[slot],
            part,
        })
    }

    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>) {
        let set = self.set_of(addr);
        let base = (set * self.ways) as SlotId;
        out.extend(base..base + self.ways as SlotId);
    }

    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        let base = self.set_of(addr) * self.ways;
        for slot in base..base + self.ways {
            match self.parts[slot] {
                Some(part) => out.push(Candidate {
                    slot: slot as SlotId,
                    addr: self.addrs[slot],
                    part,
                    futility: 0.0,
                }),
                None => return Some(slot as SlotId),
            }
        }
        None
    }

    fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        let slot = self.find(addr)?;
        let part = self.parts[slot]?;
        Some((slot as SlotId, Occupant { addr, part }))
    }

    // No lookup prefetch. The probed set is a pure function of the
    // address, so prefetching the set's addresses ahead of the compare
    // is possible — but it was measured *slower* than not prefetching
    // when the lookup still went through an address map: the hint
    // computes the index hash (a virtual `IndexHash` call plus a
    // `% sets` division) that the probe then computes again, which
    // costs more than the latency it hides, because the out-of-order
    // core already overlaps the independent lookups of neighbouring
    // accesses. The tag compare has not been measured with a prefetch.

    fn evict(&mut self, slot: SlotId) {
        self.parts[slot as usize]
            .take()
            .expect("evict from empty slot");
        self.occupied -= 1;
    }

    fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId) {
        let slot = slot as usize;
        debug_assert_eq!(slot / self.ways, self.set_of(addr));
        debug_assert!(self.find(addr).is_none(), "{addr:#x} already resident");
        assert!(
            self.parts[slot].is_none(),
            "install into occupied slot {slot}"
        );
        self.addrs[slot] = addr;
        self.parts[slot] = Some(part);
        self.occupied += 1;
    }

    fn retag(&mut self, slot: SlotId, part: PartitionId) {
        let held = self.parts[slot as usize]
            .as_mut()
            .expect("retag empty slot");
        *held = part;
    }

    fn occupied(&self) -> usize {
        self.occupied
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("set-assoc");
        w.usize(self.sets);
        w.usize(self.ways);
        write_slots(w, (0..self.addrs.len()).map(|s| self.occupant(s as SlotId)));
        w.end();
    }

    /// Restore the slots, rejecting with `Corrupt` an occupied slot
    /// whose address indexes another set, and an address held twice in
    /// one set: lookups compare only the addresses of the address's own
    /// set, so either would go unseen.
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("set-assoc")?;
        let (sets, ways) = (r.usize()?, r.usize()?);
        if sets != self.sets || ways != self.ways {
            return Err(SnapshotError::mismatch(format!(
                "array is {}x{} (sets x ways), snapshot is {sets}x{ways}",
                self.sets, self.ways
            )));
        }
        let n = self.addrs.len();
        let mut addrs = vec![0u64; n];
        let mut parts: Vec<Option<PartitionId>> = vec![None; n];
        let mut occupied = 0usize;
        read_slots(r, n, |slot, occ| {
            let Some(occ) = occ else { return Ok(()) };
            let (slot, set) = (slot as usize, slot as usize / self.ways);
            let home = self.set_of(occ.addr);
            if home != set {
                return Err(SnapshotError::corrupt(format!(
                    "slot {slot} of set {set} holds {:#x}, which indexes set {home}",
                    occ.addr
                )));
            }
            addrs[slot] = occ.addr;
            parts[slot] = Some(occ.part);
            occupied += 1;
            Ok(())
        })?;
        let mut held = Vec::with_capacity(self.ways);
        for set in 0..self.sets {
            let ways = set * self.ways..(set + 1) * self.ways;
            held.clear();
            held.extend(ways.filter(|&s| parts[s].is_some()).map(|s| addrs[s]));
            held.sort_unstable();
            if let Some(pair) = held.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(SnapshotError::corrupt(format!(
                    "set {set} holds {:#x} twice",
                    pair[0]
                )));
            }
        }
        r.end()?;
        self.addrs = addrs;
        self.parts = parts;
        self.occupied = occupied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{LineHash, ModuloIndex};

    #[test]
    fn candidates_are_the_whole_set() {
        let mut a = SetAssociative::new(4, 2, ModuloIndex);
        let mut out = Vec::new();
        a.candidate_slots(5, &mut out); // set 1 with modulo indexing
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn install_then_lookup_then_evict() {
        let mut a = SetAssociative::new(4, 2, ModuloIndex);
        let mut out = Vec::new();
        a.candidate_slots(9, &mut out); // set 1
        let slot = out[0];
        a.install(slot, 9, PartitionId(0));
        assert_eq!(a.lookup(9), Some(slot));
        assert_eq!(a.occupied(), 1);
        a.evict(slot);
        assert_eq!(a.lookup(9), None);
    }

    #[test]
    fn direct_mapped_has_one_candidate() {
        let mut a = SetAssociative::with_lines(64, 1, LineHash::new(3));
        assert_eq!(a.candidates_per_eviction(), 1);
        let mut out = Vec::new();
        a.candidate_slots(1234, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn with_lines_builds_right_geometry() {
        let a = SetAssociative::with_lines(8192, 16, LineHash::new(0));
        assert_eq!(a.sets(), 512);
        assert_eq!(a.ways(), 16);
        assert_eq!(a.num_slots(), 8192);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn with_lines_rejects_bad_geometry() {
        let _ = SetAssociative::with_lines(100, 16, LineHash::new(0));
    }
}
