//! Cache arrays: the component that "implements associative lookups and
//! provides a list of replacement candidates on each eviction"
//! (Section III-A).
//!
//! Implementations:
//! * [`SetAssociative`] — conventional W-way set-associative array with
//!   pluggable index hashing (R = W); covers the paper's 16-way hashed
//!   L2 and, with `ways = 1`, the direct-mapped caches of Figure 6. It
//!   finds a line the way hardware does, by comparing the addresses of
//!   one set, and keeps no address map.
//! * [`RandomCandidates`] — the idealized array of Section IV whose R
//!   candidates are drawn independently and uniformly from the whole
//!   cache (the *uniformity assumption* holds by construction).
//! * [`FullyAssociative`] — every line is a candidate; used for the
//!   FullAssoc upper bound and Figure 6.
//! * [`SkewAssociative`] — W ways with independent hash functions.
//! * [`ZCache`] — zcache-style array: W ways, candidate expansion by
//!   walking rehash positions, relocation on install (gives R > W).
//!
//! A line of the last four can sit in any of W independent positions,
//! or anywhere, so they find it through the shared slot table's address
//! map. Every array writes its slots as the same `"slots"` snapshot
//! section.

mod fully_assoc;
mod random_cands;
mod set_assoc;
mod skew;
mod zcache;

pub use fully_assoc::FullyAssociative;
pub use random_cands::RandomCandidates;
pub use set_assoc::SetAssociative;
pub use skew::SkewAssociative;
pub use zcache::ZCache;

use crate::ids::{Occupant, PartitionId, SlotId};
use crate::scheme_api::Candidate;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// A physical cache array. All addresses are line addresses.
///
/// The engine drives arrays as follows: on a miss it calls
/// [`candidate_slots`](CacheArray::candidate_slots); if a returned slot
/// is empty the incoming line is installed there, otherwise the scheme
/// picks a victim among the occupied candidates, the engine calls
/// [`evict`](CacheArray::evict) on the victim slot and then
/// [`install`](CacheArray::install) with that slot. Arrays that relocate
/// lines internally (zcache) may move other lines during `install`, but
/// must keep `lookup` consistent.
pub trait CacheArray: Send {
    /// Short identifier, e.g. `"set-assoc"`, `"rand-cands"`.
    fn name(&self) -> &'static str;

    /// Total number of line slots.
    fn num_slots(&self) -> usize;

    /// Nominal number of replacement candidates per eviction (`R`).
    fn candidates_per_eviction(&self) -> usize;

    /// Find the slot currently holding `addr`, if cached.
    fn lookup(&self, addr: u64) -> Option<SlotId>;

    /// Occupant of a slot, or `None` if the slot is empty.
    fn occupant(&self, slot: SlotId) -> Option<Occupant>;

    /// Append the replacement-candidate slots for inserting `addr` into
    /// `out` (cleared by the caller). May include empty slots; must
    /// return at least one slot unless the array reports itself as
    /// fully associative.
    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>);

    /// Single-pass miss-path candidate walk: either the first *empty*
    /// candidate slot in candidate order (`Some(slot)` — the incoming
    /// line installs there, `out` may hold a partial prefix), or `None`
    /// with one [`Candidate`] per occupied candidate slot appended to
    /// `out` (futility left 0.0 for the ranking to fill). Must offer
    /// exactly the slots [`candidate_slots`](Self::candidate_slots)
    /// would, in the same order — including any internal RNG draws — so
    /// replacement decisions are identical on both paths.
    ///
    /// The default delegates to `candidate_slots` plus per-slot
    /// [`occupant`](Self::occupant) calls and allocates a temporary
    /// slot list; concrete arrays override it with a fused walk that
    /// touches each slot once and never allocates.
    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        let mut slots = Vec::with_capacity(self.candidates_per_eviction());
        self.candidate_slots(addr, &mut slots);
        for slot in slots {
            match self.occupant(slot) {
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

    /// Fused [`lookup`](Self::lookup) + [`occupant`](Self::occupant):
    /// the hit path needs both, and resolving them in one virtual call
    /// halves its dispatch cost.
    fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        let slot = self.lookup(addr)?;
        let occ = self.occupant(slot)?;
        Some((slot, occ))
    }

    /// Hint that [`lookup_occupant`](Self::lookup_occupant) for `addr`
    /// is coming soon. Purely a performance hint that must not change
    /// observable state. No array overrides this no-op default and
    /// nothing in the workspace calls it; it remains only because
    /// perfbench's `Timed` wrapper forwards it.
    fn prefetch_lookup(&self, _addr: u64) {}

    /// Whether [`prefetch_lookup`](Self::prefetch_lookup) does anything
    /// for this array. No array overrides it and nothing in the
    /// workspace calls it; it remains only because perfbench's `Timed`
    /// wrapper forwards it.
    fn wants_lookup_prefetch(&self) -> bool {
        false
    }

    /// Remove the occupant of `slot`.
    ///
    /// # Panics
    /// May panic if the slot is empty.
    fn evict(&mut self, slot: SlotId);

    /// Install `addr` (tagged with `part`) using `slot`, which must be
    /// empty. Relocating arrays may instead place `addr` elsewhere and
    /// shuffle resident lines into `slot`.
    fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId);

    /// Change the partition tag of the line in `slot`.
    ///
    /// # Panics
    /// May panic if the slot is empty.
    fn retag(&mut self, slot: SlotId, part: PartitionId);

    /// Whether this array is fully associative (no candidate list; the
    /// engine asks the ranking for victims instead).
    fn is_fully_associative(&self) -> bool {
        false
    }

    /// Number of occupied slots.
    fn occupied(&self) -> usize;

    /// Serialize the array's dynamic state (occupancy, free-slot order,
    /// internal RNG) for checkpointing. Geometry and hash configuration
    /// are *not* serialized: restore targets an identically-constructed
    /// array (DESIGN.md §11).
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restore state saved by [`save_state`](Self::save_state) into an
    /// identically-configured array.
    ///
    /// # Errors
    /// [`SnapshotError`] on decode failure or a geometry mismatch.
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError>;
}

/// Boxed arrays forward every method the engine calls (including
/// overridden defaults), so a generic
/// [`EngineCore`](crate::engine::EngineCore) instantiated with
/// `Box<dyn CacheArray>` behaves exactly like one instantiated with the
/// concrete array.
impl<T: CacheArray + ?Sized> CacheArray for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn num_slots(&self) -> usize {
        (**self).num_slots()
    }
    fn candidates_per_eviction(&self) -> usize {
        (**self).candidates_per_eviction()
    }
    fn lookup(&self, addr: u64) -> Option<SlotId> {
        (**self).lookup(addr)
    }
    fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        (**self).occupant(slot)
    }
    fn candidate_slots(&mut self, addr: u64, out: &mut Vec<SlotId>) {
        (**self).candidate_slots(addr, out)
    }
    fn fill_candidates(&mut self, addr: u64, out: &mut Vec<Candidate>) -> Option<SlotId> {
        (**self).fill_candidates(addr, out)
    }
    fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        (**self).lookup_occupant(addr)
    }
    fn evict(&mut self, slot: SlotId) {
        (**self).evict(slot)
    }
    fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId) {
        (**self).install(slot, addr, part)
    }
    fn retag(&mut self, slot: SlotId, part: PartitionId) {
        (**self).retag(slot, part)
    }
    fn is_fully_associative(&self) -> bool {
        (**self).is_fully_associative()
    }
    fn occupied(&self) -> usize {
        (**self).occupied()
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        (**self).save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        (**self).load_state(r)
    }
}

/// Slot storage with an address map, shared by the arrays whose lines
/// can sit in W independent positions or anywhere (skew-assoc, zcache,
/// rand-cands, fully-assoc): no single set holds a line's possible
/// slots, so a lookup goes through the map. The residency index is an
/// [`FxHashMap`](crate::fxmap::FxHashMap) pre-sized for the slot count,
/// so the warm hot path never grows it. (A hand-rolled open-addressing
/// table was measured ~3x slower on the miss path's remove/insert churn
/// — see the `fxmap` module docs.) [`SetAssociative`] keeps its own
/// slots and compares one set's addresses instead.
#[derive(Clone, Debug)]
pub(crate) struct SlotTable {
    slots: Vec<Option<Occupant>>,
    map: crate::fxmap::FxHashMap<u64, SlotId>,
    occupied: usize,
}

impl SlotTable {
    pub(crate) fn new(n: usize) -> Self {
        let mut map = crate::fxmap::FxHashMap::default();
        map.reserve(n);
        SlotTable {
            slots: vec![None; n],
            map,
            occupied: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        self.occupied
    }

    #[inline]
    pub(crate) fn lookup(&self, addr: u64) -> Option<SlotId> {
        self.map.get(&addr).copied()
    }

    #[inline]
    pub(crate) fn occupant(&self, slot: SlotId) -> Option<Occupant> {
        self.slots[slot as usize]
    }

    #[inline]
    pub(crate) fn lookup_occupant(&self, addr: u64) -> Option<(SlotId, Occupant)> {
        let slot = *self.map.get(&addr)?;
        self.slots[slot as usize].map(|occ| (slot, occ))
    }

    pub(crate) fn evict(&mut self, slot: SlotId) {
        let occ = self.slots[slot as usize]
            .take()
            .expect("evict from empty slot");
        self.map.remove(&occ.addr);
        self.occupied -= 1;
    }

    pub(crate) fn install(&mut self, slot: SlotId, addr: u64, part: PartitionId) {
        assert!(
            self.slots[slot as usize].is_none(),
            "install into occupied slot {slot}"
        );
        self.slots[slot as usize] = Some(Occupant { addr, part });
        self.map.insert(addr, slot);
        self.occupied += 1;
    }

    pub(crate) fn retag(&mut self, slot: SlotId, part: PartitionId) {
        let occ = self.slots[slot as usize]
            .as_mut()
            .expect("retag empty slot");
        occ.part = part;
    }

    /// Serialize the slot contents. The residency map and occupancy
    /// counter are derived state and are rebuilt on load.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter) {
        write_slots(w, self.slots.iter().copied());
    }

    /// Restore slot contents saved by [`save_state`](Self::save_state)
    /// into a table of the same size, rebuilding the residency map.
    pub(crate) fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let n = self.slots.len();
        let mut slots: Vec<Option<Occupant>> = Vec::with_capacity(n);
        let mut map = crate::fxmap::FxHashMap::default();
        map.reserve(n);
        let mut occupied = 0usize;
        read_slots(r, n, |slot, occ| {
            if let Some(occ) = occ {
                if map.insert(occ.addr, slot).is_some() {
                    return Err(SnapshotError::corrupt(format!(
                        "duplicate address {:#x} in slot table",
                        occ.addr
                    )));
                }
                occupied += 1;
            }
            slots.push(occ);
            Ok(())
        })?;
        self.slots = slots;
        self.map = map;
        self.occupied = occupied;
        Ok(())
    }

    /// Move the occupant of `from` into the empty slot `to`.
    pub(crate) fn relocate(&mut self, from: SlotId, to: SlotId) {
        assert!(self.slots[to as usize].is_none(), "relocate into occupied");
        let occ = self.slots[from as usize]
            .take()
            .expect("relocate from empty");
        self.map.insert(occ.addr, to);
        self.slots[to as usize] = Some(occ);
    }
}

/// Write the `"slots"` snapshot section every array uses: the slot
/// count, then each slot in slot order as `0` (empty) or `1`, its line
/// address and its partition.
pub(crate) fn write_slots(
    w: &mut SnapshotWriter,
    slots: impl ExactSizeIterator<Item = Option<Occupant>>,
) {
    w.begin("slots");
    w.usize(slots.len());
    for slot in slots {
        match slot {
            Some(occ) => {
                w.u8(1);
                w.u64(occ.addr);
                w.u16(occ.part.0);
            }
            None => w.u8(0),
        }
    }
    w.end();
}

/// Read a `"slots"` section written by [`write_slots`] into an array of
/// `n` slots, handing each slot's occupant to `visit` in slot order; an
/// error from `visit` ends the read.
pub(crate) fn read_slots(
    r: &mut SnapshotReader,
    n: usize,
    mut visit: impl FnMut(SlotId, Option<Occupant>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    r.begin("slots")?;
    let len = r.seq_len(1)?;
    if len != n {
        return Err(SnapshotError::mismatch(format!(
            "array holds {n} slots, snapshot has {len}"
        )));
    }
    for slot in 0..n {
        let occ = match r.u8()? {
            0 => None,
            1 => Some(Occupant {
                addr: r.u64()?,
                part: PartitionId(r.u16()?),
            }),
            tag => {
                return Err(SnapshotError::corrupt(format!(
                    "invalid slot occupancy tag {tag}"
                )))
            }
        };
        visit(slot as SlotId, occ)?;
    }
    r.end()
}

/// Decode a free-slot list (u64 length + u32 entries) written next to a
/// [`SlotTable`], validating it against the freshly-restored table:
/// every entry must reference an empty in-range slot, appear once, and
/// together with the occupied slots cover the whole array.
pub(crate) fn read_free_list(
    r: &mut SnapshotReader,
    table: &SlotTable,
) -> Result<Vec<SlotId>, SnapshotError> {
    let len = r.seq_len(4)?;
    if len + table.occupied() != table.len() {
        return Err(SnapshotError::corrupt(format!(
            "free list ({len}) + occupied ({}) does not cover {} slots",
            table.occupied(),
            table.len()
        )));
    }
    let mut free = Vec::with_capacity(len);
    let mut seen = vec![false; table.len()];
    for _ in 0..len {
        let slot = r.u32()?;
        let idx = slot as usize;
        if idx >= table.len() {
            return Err(SnapshotError::corrupt(format!(
                "free-list slot {slot} out of range"
            )));
        }
        if table.occupant(slot).is_some() {
            return Err(SnapshotError::corrupt(format!(
                "free-list slot {slot} is occupied"
            )));
        }
        if seen[idx] {
            return Err(SnapshotError::corrupt(format!(
                "free-list slot {slot} listed twice"
            )));
        }
        seen[idx] = true;
        free.push(slot);
    }
    Ok(free)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_install_lookup_evict() {
        let mut t = SlotTable::new(4);
        t.install(2, 99, PartitionId(1));
        assert_eq!(t.lookup(99), Some(2));
        assert_eq!(t.occupant(2).unwrap().part, PartitionId(1));
        assert_eq!(t.occupied(), 1);
        t.retag(2, PartitionId(3));
        assert_eq!(t.occupant(2).unwrap().part, PartitionId(3));
        t.evict(2);
        assert_eq!(t.lookup(99), None);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn slot_table_relocate_moves_mapping() {
        let mut t = SlotTable::new(4);
        t.install(0, 7, PartitionId(0));
        t.relocate(0, 3);
        assert_eq!(t.lookup(7), Some(3));
        assert!(t.occupant(0).is_none());
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    #[should_panic(expected = "install into occupied")]
    fn double_install_panics() {
        let mut t = SlotTable::new(2);
        t.install(0, 1, PartitionId(0));
        t.install(0, 2, PartitionId(0));
    }
}
