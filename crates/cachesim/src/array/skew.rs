//! Skew-associative array: W ways, each indexed by an independent hash
//! function, so the candidate set of an address is spread across the
//! cache instead of being confined to one set. Referenced by the paper
//! as a "cache with good hash indexing" for which the uniformity
//! assumption is statistically close.

use super::{CacheArray, SlotTable};
use crate::hashing::{IndexHash, LineHash};
use crate::ids::{Occupant, PartitionId, SlotId};
use crate::scheme_api::Candidate;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// A W-way skew-associative array of `sets * ways` lines; way `w` of
/// address `a` lives at slot `w * sets + h_w(a) % sets`.
pub struct SkewAssociative {
    table: SlotTable,
    sets: usize,
    hashes: Vec<LineHash>,
}

impl SkewAssociative {
    /// Create an array with `sets` rows per way and `ways` ways; hash
    /// functions are derived deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(sets > 0 && ways > 0);
        let hashes = (0..ways)
            .map(|w| LineHash::new(seed ^ (w as u64 + 1).wrapping_mul(0xD1B5)))
            .collect();
        SkewAssociative {
            table: SlotTable::new(sets * ways),
            sets,
            hashes,
        }
    }

    #[inline]
    fn way_slot(&self, way: usize, addr: u64) -> SlotId {
        (way * self.sets + (self.hashes[way].hash(addr) % self.sets as u64) as usize) as SlotId
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.hashes.len()
    }
}

impl CacheArray for SkewAssociative {
    fn name(&self) -> &'static str {
        "skew-assoc"
    }

    fn num_slots(&self) -> usize {
        self.table.len()
    }

    fn candidates_per_eviction(&self) -> usize {
        self.hashes.len()
    }

    fn lookup(&self, addr: u64) -> Option<SlotId> {
        self.table.lookup(addr)
    }

    fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        self.table.occupant(slot)
    }

    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>) {
        for w in 0..self.hashes.len() {
            out.push(self.way_slot(w, addr));
        }
    }

    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        for w in 0..self.hashes.len() {
            let slot = self.way_slot(w, addr);
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
        debug_assert!(
            (0..self.hashes.len()).any(|w| self.way_slot(w, addr) == slot),
            "slot {slot} is not a home position of {addr:#x}"
        );
        self.table.install(slot, addr, part);
    }

    fn retag(&mut self, slot: SlotId, part: PartitionId) {
        self.table.retag(slot, part);
    }

    fn occupied(&self) -> usize {
        self.table.occupied()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.begin("skew-assoc");
        w.usize(self.sets);
        w.usize(self.hashes.len());
        self.table.save_state(w);
        w.end();
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.begin("skew-assoc")?;
        let (sets, ways) = (r.usize()?, r.usize()?);
        if sets != self.sets || ways != self.hashes.len() {
            return Err(SnapshotError::mismatch(format!(
                "array is {}x{} (sets x ways), snapshot is {sets}x{ways}",
                self.sets,
                self.hashes.len()
            )));
        }
        self.table.load_state(r)?;
        r.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_span_ways() {
        let mut a = SkewAssociative::new(16, 4, 7);
        let mut out = Vec::new();
        a.candidate_slots(123, &mut out);
        assert_eq!(out.len(), 4);
        for (w, &s) in out.iter().enumerate() {
            let way = s as usize / 16;
            assert_eq!(way, w, "candidate {s} should live in way {w}");
        }
    }

    #[test]
    fn install_and_lookup_roundtrip() {
        let mut a = SkewAssociative::new(8, 2, 9);
        let mut out = Vec::new();
        a.candidate_slots(55, &mut out);
        a.install(out[1], 55, PartitionId(2));
        assert_eq!(a.lookup(55), Some(out[1]));
        assert_eq!(a.occupant(out[1]).unwrap().part, PartitionId(2));
    }

    #[test]
    fn different_addresses_rarely_fully_collide() {
        let mut a = SkewAssociative::new(64, 4, 11);
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        a.candidate_slots(1, &mut c1);
        a.candidate_slots(2, &mut c2);
        assert_ne!(c1, c2, "independent hashes should separate addresses");
    }
}
