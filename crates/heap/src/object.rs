//! The object model and object table.
//!
//! The simulated machine carries no data, so the semantic state of every
//! object (its reference fields, liveness, written bit) lives in an
//! [`ObjectTable`] on the Rust side, while its *location* (virtual address,
//! size, space) determines the memory traffic its uses generate.

use hemu_types::{Addr, ByteSize, WORD};
use std::fmt;

/// Size of an object header in bytes (status word + type information
/// block pointer, as in Jikes RVM).
pub const HEADER_SIZE: u32 = 16;

/// Objects at least this big go to the large object space (the 8 KiB MMTk
/// LOS threshold).
pub const LARGE_THRESHOLD: u32 = 8 * 1024;

/// A stable handle to a managed object.
///
/// The id survives copying collections — the garbage collector updates the
/// object's address, not its identity — which is exactly the indirection a
/// real VM's object-to-forwarding map provides during a moving collection.
/// Ids are generation-tagged: a handle to a collected object never aliases
/// a later object that reuses the same table slot, so stale handles are
/// reliably detected instead of silently corrupting an unrelated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub(crate) u64);

impl ObjectId {
    pub(crate) fn new(index: u32, generation: u32) -> Self {
        ObjectId((generation as u64) << 32 | index as u64)
    }

    pub(crate) fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Raw value (for diagnostics and adapter layers).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from [`ObjectId::raw`]. For adapter layers that
    /// store ids as plain integers; the id must have come from this heap.
    pub fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}v{}", self.index(), self.generation())
    }
}

/// Which space an object currently resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// The boot image.
    Boot,
    /// The copying nursery.
    Nursery,
    /// KG-W's DRAM observer space.
    Observer,
    /// Mark-region mature space on DRAM.
    MatureDram,
    /// Mark-region mature space on PCM.
    MaturePcm,
    /// Large object space on DRAM.
    LargeDram,
    /// Large object space on PCM.
    LargePcm,
}

impl SpaceKind {
    /// Young spaces are collected at every minor collection.
    pub fn is_young(self) -> bool {
        matches!(self, SpaceKind::Nursery | SpaceKind::Observer)
    }

    /// Spaces whose storage is on the emulated PCM socket under a hybrid
    /// plan.
    pub fn is_pcm_side(self) -> bool {
        matches!(self, SpaceKind::MaturePcm | SpaceKind::LargePcm)
    }

    /// Large-object spaces (non-moving, page granular).
    pub fn is_large(self) -> bool {
        matches!(self, SpaceKind::LargeDram | SpaceKind::LargePcm)
    }

    /// The provenance space tag for writes targeting this space.
    pub fn tag(self) -> hemu_types::SpaceTag {
        use hemu_types::SpaceTag;
        match self {
            SpaceKind::Nursery => SpaceTag::Nursery,
            SpaceKind::Observer => SpaceTag::Observer,
            SpaceKind::MatureDram => SpaceTag::MatureDram,
            SpaceKind::MaturePcm => SpaceTag::MaturePcm,
            SpaceKind::LargeDram | SpaceKind::LargePcm => SpaceTag::Large,
            SpaceKind::Boot => SpaceTag::Other,
        }
    }
}

/// Everything the runtime knows about one object.
///
/// A small `Copy` record: the object's reference fields live in the
/// [`ObjectTable`]'s slab (see [`ObjectTable::refs`]), so creating and
/// freeing a record never touches the host allocator.
#[derive(Debug, Clone, Copy)]
pub struct ObjectInfo {
    /// Current virtual address of the header.
    pub addr: Addr,
    /// Address of the object's one-byte GC mark slot in a metadata space,
    /// assigned on promotion into a mature or large space; [`Addr::NULL`]
    /// until then (metadata chunks never start at address 0).
    pub meta: Addr,
    /// Total size in bytes (header + reference slots + data payload).
    pub size: u32,
    /// First entry of the object's reference fields in the table's slab.
    refs_at: u32,
    /// Number of reference slots.
    pub ref_count: u16,
    /// Space the object currently lives in.
    pub space: SpaceKind,
    /// Set when the mutator writes the object while it is being observed
    /// (KG-W write monitoring), or while it lives in PCM large space.
    pub written: bool,
    /// Mark state for tracing collections.
    pub marked: bool,
    /// Set when the object is registered in a remembered set (write
    /// barrier dedup).
    pub logged: bool,
    /// `true` while the table slot holds a live object; cleared when the
    /// collector frees it.
    pub alive: bool,
}

// The table scans these records on every collection; keep them to half a
// host cache line.
const _: () = assert!(std::mem::size_of::<ObjectInfo>() <= 32);

impl ObjectInfo {
    /// Creates a fresh object record at `addr` in `space`.
    pub fn fresh(addr: Addr, size: u32, ref_count: usize, space: SpaceKind) -> Self {
        ObjectInfo {
            addr,
            meta: Addr::NULL,
            size,
            refs_at: 0,
            ref_count: ref_count as u16,
            space,
            written: false,
            marked: false,
            logged: false,
            alive: true,
        }
    }

    /// Address of reference slot `i` (slots follow the header).
    pub fn ref_slot_addr(&self, i: usize) -> Addr {
        self.addr
            .offset(HEADER_SIZE as u64 + (i as u64) * WORD as u64)
    }

    /// Address of the data payload (after header and reference slots).
    pub fn data_addr(&self) -> Addr {
        self.addr
            .offset(HEADER_SIZE as u64 + self.ref_count as u64 * WORD as u64)
    }

    /// Size of the data payload in bytes.
    pub fn data_size(&self) -> u32 {
        self.size - HEADER_SIZE - self.ref_count as u32 * WORD as u32
    }
}

/// Computes the total size of an object with `ref_count` reference slots
/// and `data_bytes` of scalar payload, rounded up to word alignment.
pub fn object_size(ref_count: usize, data_bytes: usize) -> u32 {
    let raw = HEADER_SIZE as usize + ref_count * WORD + data_bytes;
    ((raw + WORD - 1) / WORD * WORD) as u32
}

/// The table of all live objects, with generation-tagged slot recycling.
///
/// Records sit in one flat vector and every object's reference fields in
/// one slab; freed slab ranges are recycled by length, apart from slot
/// ids, so inserting and removing an object do no host allocation once
/// the vectors have grown.
/// The table also keeps the *young list*: the ids of nursery-born objects
/// that are still young, which is all a minor collection needs to sweep.
#[derive(Debug, Default)]
pub struct ObjectTable {
    slots: Vec<ObjectInfo>,
    generations: Vec<u32>,
    free: Vec<u32>,
    /// Reference fields of every object, each object's a contiguous range.
    refs: Vec<Option<ObjectId>>,
    /// `free_refs[n]`: starts of released `n`-entry slab ranges.
    free_refs: Vec<Vec<u32>>,
    /// Nursery-born objects not yet promoted out of the young spaces.
    young: Vec<ObjectId>,
    live_count: usize,
    live_bytes: u64,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new object and returns its id.
    pub fn insert(&mut self, mut info: ObjectInfo) -> ObjectId {
        debug_assert!(info.alive);
        self.live_count += 1;
        self.live_bytes += info.size as u64;
        info.refs_at = self.alloc_refs(info.ref_count as usize);
        let id = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = info;
            ObjectId::new(idx, self.generations[idx as usize])
        } else {
            self.slots.push(info);
            self.generations.push(0);
            ObjectId::new(self.slots.len() as u32 - 1, 0)
        };
        if info.space.is_young() {
            self.young.push(id);
        }
        id
    }

    /// Hands out a cleared slab range of `n` reference fields.
    fn alloc_refs(&mut self, n: usize) -> u32 {
        if n == 0 {
            return 0;
        }
        if let Some(at) = self.free_refs.get_mut(n).and_then(Vec::pop) {
            self.refs[at as usize..at as usize + n].fill(None);
            return at;
        }
        let at = self.refs.len();
        self.refs.resize(at + n, None);
        u32::try_from(at).expect("reference slab exceeds u32 entries")
    }

    /// Removes a dead object, making its slot and its slab range reusable.
    ///
    /// # Panics
    ///
    /// Panics if the object is already dead.
    pub fn remove(&mut self, id: ObjectId) {
        let idx = id.index();
        assert_eq!(
            self.generations[idx],
            id.generation(),
            "remove of stale handle {id}"
        );
        let slot = &mut self.slots[idx];
        assert!(slot.alive, "double free of {id}");
        slot.alive = false;
        let (n, at) = (slot.ref_count as usize, slot.refs_at);
        self.live_count -= 1;
        self.live_bytes -= slot.size as u64;
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx as u32);
        if n > 0 {
            if self.free_refs.len() <= n {
                self.free_refs.resize_with(n + 1, Vec::new);
            }
            self.free_refs[n].push(at);
        }
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the object is dead (use-after-free in the workload or
    /// collector).
    #[inline]
    pub fn get(&self, id: ObjectId) -> &ObjectInfo {
        debug_assert!(self.is_live(id), "use of dead or stale object {id}");
        &self.slots[id.index()]
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the object is dead.
    #[inline]
    pub fn get_mut(&mut self, id: ObjectId) -> &mut ObjectInfo {
        debug_assert!(self.is_live(id), "use of dead or stale object {id}");
        &mut self.slots[id.index()]
    }

    /// The reference fields of an object.
    #[inline]
    pub fn refs(&self, id: ObjectId) -> &[Option<ObjectId>] {
        let info = self.get(id);
        let at = info.refs_at as usize;
        &self.refs[at..at + info.ref_count as usize]
    }

    /// Mutable access to the reference fields of an object.
    #[inline]
    pub fn refs_mut(&mut self, id: ObjectId) -> &mut [Option<ObjectId>] {
        let info = *self.get(id);
        let at = info.refs_at as usize;
        &mut self.refs[at..at + info.ref_count as usize]
    }

    /// Returns `true` if `id` currently names a live object (stale handles
    /// from a previous occupant of the slot report dead).
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.slots.get(id.index()).map(|s| s.alive).unwrap_or(false)
            && self.generations[id.index()] == id.generation()
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Total bytes of live objects.
    pub fn live_bytes(&self) -> ByteSize {
        ByteSize::new(self.live_bytes)
    }

    /// Iterates over the ids of all live objects.
    pub fn iter_live(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| ObjectId::new(i as u32, self.generations[i]))
    }

    /// Removes every young object `dead` selects, then forgets the objects
    /// that are no longer young ([`ObjectTable::prune_young`]).
    ///
    /// The dead go in ascending slot order, the order a sweep over
    /// [`ObjectTable::iter_live`] would free them in, so the free list and
    /// every later slot assignment match a whole-table sweep.
    pub fn sweep_young(&mut self, mut dead: impl FnMut(&ObjectInfo) -> bool) {
        let mut doomed: Vec<ObjectId> = self
            .young
            .iter()
            .copied()
            .filter(|id| dead(&self.slots[id.index()]))
            .collect();
        doomed.sort_unstable_by_key(|id| id.index());
        for id in doomed {
            self.remove(id);
        }
        self.prune_young();
    }

    /// Drops dead objects and objects promoted out of the young spaces from
    /// the young list. Collections call it once they have moved objects.
    pub fn prune_young(&mut self) {
        let mut young = std::mem::take(&mut self.young);
        young.retain(|&id| self.is_live(id) && self.slots[id.index()].space.is_young());
        self.young = young;
    }

    /// Number of table slots, live or free.
    #[cfg(test)]
    pub(crate) fn slots_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(size: u32, refs: usize) -> ObjectInfo {
        ObjectInfo::fresh(Addr::new(0x1000), size, refs, SpaceKind::Nursery)
    }

    #[test]
    fn object_size_is_word_aligned_and_includes_header() {
        assert_eq!(object_size(0, 0), 16);
        assert_eq!(object_size(2, 0), 32);
        assert_eq!(object_size(0, 1), 24);
        assert_eq!(object_size(1, 9), 40);
        assert_eq!(object_size(0, 8) % WORD as u32, 0);
    }

    #[test]
    fn slot_addresses_follow_header_then_refs() {
        let o = obj(object_size(2, 8), 2);
        assert_eq!(o.ref_slot_addr(0), Addr::new(0x1010));
        assert_eq!(o.ref_slot_addr(1), Addr::new(0x1018));
        assert_eq!(o.data_addr(), Addr::new(0x1020));
        assert_eq!(o.data_size(), 8);
    }

    #[test]
    fn insert_remove_recycles_slots() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        let b = t.insert(obj(16, 0));
        assert_ne!(a, b);
        t.remove(a);
        assert!(!t.is_live(a));
        let c = t.insert(obj(16, 0));
        assert_eq!(c.index(), a.index(), "slot is recycled");
        assert_ne!(c, a, "but the generation tag differs");
        assert!(!t.is_live(a), "stale handle stays dead");
        assert!(t.is_live(c));
        assert_eq!(t.slots_len(), 2);
    }

    #[test]
    fn live_accounting_tracks_bytes() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(100, 0));
        let _b = t.insert(obj(28, 0));
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.live_bytes().bytes(), 128);
        t.remove(a);
        assert_eq!(t.live_bytes().bytes(), 28);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn double_remove_panics() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        t.remove(a);
        t.remove(a);
    }

    #[test]
    fn iter_live_skips_dead() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        let b = t.insert(obj(16, 0));
        t.remove(a);
        let live: Vec<_> = t.iter_live().collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn slab_ranges_are_recycled_by_length_and_cleared() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(32, 2));
        let x = t.insert(obj(16, 0));
        t.refs_mut(a)[1] = Some(x);
        t.remove(a);
        let b = t.insert(obj(40, 3));
        let c = t.insert(obj(32, 2));
        assert_eq!(t.refs(b), &[None; 3]);
        assert_eq!(
            t.refs(c),
            &[None, None],
            "a reused range comes back cleared"
        );
        assert_eq!(t.refs.len(), 5, "c reuses a's two entries");
    }

    #[test]
    fn sweep_young_frees_in_slot_order_and_forgets_promoted_objects() {
        let mut t = ObjectTable::new();
        let (_a, _b, c) = (
            t.insert(obj(16, 0)),
            t.insert(obj(16, 0)),
            t.insert(obj(16, 0)),
        );
        t.get_mut(c).marked = true;
        t.sweep_young(|i| !i.marked);
        t.get_mut(c).marked = false;
        // Slots 0 and 1 were freed in that order, so 1 is reused first and
        // the young list now runs c (slot 2), d (slot 1), e (slot 0).
        let d = t.insert(obj(16, 0));
        let e = t.insert(obj(16, 0));
        assert_eq!((d.index(), e.index()), (1, 0));
        t.sweep_young(|_| true);
        // Freed in ascending slot order, whatever the list order: slot 2
        // is on top of the free list.
        assert_eq!(t.insert(obj(16, 0)).index(), 2);

        // A promoted object leaves the young list and survives later
        // young sweeps.
        let f = t.insert(obj(16, 0));
        t.get_mut(f).space = SpaceKind::MaturePcm;
        t.prune_young();
        t.sweep_young(|_| true);
        assert!(t.is_live(f));
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn space_kind_predicates() {
        assert!(SpaceKind::Nursery.is_young());
        assert!(SpaceKind::Observer.is_young());
        assert!(!SpaceKind::MaturePcm.is_young());
        assert!(SpaceKind::MaturePcm.is_pcm_side());
        assert!(!SpaceKind::MatureDram.is_pcm_side());
        assert!(SpaceKind::LargePcm.is_large());
    }
}
