//! A segment: the per-class record arena, now multi-versioned.
//!
//! The object-slicing model stores the slices of all objects of one class in
//! that class's segment, which is what makes same-class slices cluster on the
//! same pages (the locality property Table 1 of the paper relies on).
//!
//! Each slot holds a [`VersionChain`] ordered by write stamp. A mutation
//! never overwrites the current fields in place — it pushes a new version
//! stamped by the mutating batch (a *late* one, stamped below the newest
//! version, also carries its change into the newer versions; see
//! [`Segment::modify`]); a delete pushes a *tombstone* (a version with no
//! fields). Readers resolve a slot against an epoch: the newest
//! version whose stamp is ≤ the epoch. Page accounting tracks only the
//! **current** (latest) version — superseded versions are pure history
//! awaiting [`Segment::gc`], which prunes everything unreachable from the GC
//! watermark and only then recycles fully-dead slots.

use crate::page::PageSet;
use crate::payload::Payload;

/// Fixed per-record header overhead charged to the record's page
/// (slot pointer + length + oid back-pointer, as a real slotted page would).
pub(crate) const RECORD_OVERHEAD: usize = 16;

/// A stamp-sorted version chain: the newest version inline, older ones
/// spilled into a newest-first list of boxed versions behind one pointer,
/// which is `None` until a second version exists and again once
/// [`VersionChain::gc`] or [`VersionChain::pop`] bring the chain back to
/// one version. A value that was written once costs exactly one version and
/// no allocation; each superseded version is one box.
///
/// The visibility rule is the one every MVCC reader in the system applies:
/// at epoch `e` the newest version stamped ≤ `e` is visible — the first
/// one a newest-first walk finds. The store's record slots and the object
/// model's membership use this one type.
pub struct VersionChain<T> {
    head_stamp: u64,
    head: T,
    /// Superseded versions, newest first, every stamp ≤ `head_stamp`.
    older: Spill<T>,
}

/// The superseded part of a [`VersionChain`]: its newest version, if any.
type Spill<T> = Option<Box<Older<T>>>;

/// One superseded version and the next older one.
struct Older<T> {
    stamp: u64,
    value: T,
    next: Spill<T>,
}

impl<T> VersionChain<T> {
    /// A chain holding one version.
    pub fn new(stamp: u64, value: T) -> Self {
        VersionChain { head_stamp: stamp, head: value, older: None }
    }

    /// The newest version.
    pub fn current(&self) -> &T {
        &self.head
    }

    /// The newest version's stamp.
    pub fn current_stamp(&self) -> u64 {
        self.head_stamp
    }

    /// The spilled versions, newest first.
    fn spilled(&self) -> impl Iterator<Item = &Older<T>> {
        std::iter::successors(self.older.as_deref(), |node| node.next.as_deref())
    }

    /// The version visible at `epoch`: the newest one stamped ≤ `epoch`.
    /// `None` if every version is newer than the epoch.
    pub fn visible_at(&self, epoch: u64) -> Option<&T> {
        if self.head_stamp <= epoch {
            return Some(&self.head);
        }
        self.spilled().find(|node| node.stamp <= epoch).map(|node| &node.value)
    }

    /// Resolve against an optional pinned epoch (`None` = latest).
    pub fn at(&self, epoch: Option<u64>) -> Option<&T> {
        match epoch {
            Some(e) => self.visible_at(e),
            None => Some(&self.head),
        }
    }

    /// Superseded (non-current) versions in the chain.
    pub fn history_len(&self) -> usize {
        self.spilled().count()
    }

    /// Boxes the spill holds: one per superseded version, 0 while the
    /// chain holds one version.
    pub fn spill_capacity(&self) -> usize {
        self.history_len()
    }

    /// Bytes the spill's boxes hold (the versions' own heap blocks aside).
    pub fn spill_bytes(&self) -> usize {
        self.history_len() * std::mem::size_of::<Older<T>>()
    }

    /// Every version with its stamp, newest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        std::iter::once((self.head_stamp, &self.head))
            .chain(self.spilled().map(|node| (node.stamp, &node.value)))
    }

    /// The link a version stamped `stamp` goes in below the head: after
    /// every spilled version stamped above it, so the version there, if
    /// any, is the one visible at `stamp`.
    fn link_at(&mut self, stamp: u64) -> &mut Spill<T> {
        let mut link = &mut self.older;
        while link.as_ref().is_some_and(|node| node.stamp > stamp) {
            link = &mut link.as_mut().expect("checked above").next;
        }
        link
    }

    /// Split the chain around a late version stamped `stamp`: the version
    /// visible at `stamp` (`None` if every version is newer) and the
    /// versions newer than it, oldest first. A late edit starts from the
    /// first (or, if there is none, from the oldest newer version), carries
    /// into the newer ones, and is then [`push`](Self::push)ed.
    pub fn split_late(&mut self, stamp: u64) -> (Option<&T>, Vec<&mut T>) {
        let VersionChain { head_stamp, head, older } = self;
        if *head_stamp <= stamp {
            return (Some(head), Vec::new());
        }
        let mut newer = vec![head];
        let mut below = None;
        let mut link = older.as_deref_mut();
        while let Some(node) = link {
            if node.stamp <= stamp {
                below = Some(&node.value);
                break;
            }
            newer.push(&mut node.value);
            link = node.next.as_deref_mut();
        }
        newer.reverse();
        (below, newer)
    }

    /// Install a version keeping the chain stamp-sorted. Concurrent tickets
    /// can finish out of stamp order, so a late-arriving lower stamp is
    /// spliced into place below the newest, in one box. A version pushed at
    /// an existing version's stamp replaces that version: the later of two
    /// versions with one stamp wins at every epoch, so no reader could ever
    /// see the earlier one. That is what a second write to a record within
    /// one write batch does, and it spills nothing.
    pub fn push(&mut self, stamp: u64, value: T) {
        if stamp == self.head_stamp {
            self.head = value;
        } else if stamp > self.head_stamp {
            let value = std::mem::replace(&mut self.head, value);
            let stamp = std::mem::replace(&mut self.head_stamp, stamp);
            self.older = Some(Box::new(Older { stamp, value, next: self.older.take() }));
        } else {
            match self.link_at(stamp) {
                Some(node) if node.stamp == stamp => node.value = value,
                link => *link = Some(Box::new(Older { stamp, value, next: link.take() })),
            }
        }
    }

    /// Drop the newest version, making the next newest current, and return
    /// it. `None` when the chain holds one version: a chain is never empty,
    /// so the caller discards it whole.
    pub fn pop(&mut self) -> Option<T> {
        let Older { stamp, value, next } = *self.older.take()?;
        self.older = next;
        self.head_stamp = stamp;
        Some(std::mem::replace(&mut self.head, value))
    }

    /// Drop every version older than the one visible at `watermark` — no
    /// reader at the watermark or later can reach them — which frees the
    /// spill once the chain is back to one version. Returns the number
    /// dropped.
    pub fn gc(&mut self, watermark: u64) -> usize {
        if self.head_stamp <= watermark {
            return free_spill(self.older.take());
        }
        let mut link = &mut self.older;
        while let Some(node) = link {
            if node.stamp <= watermark {
                return free_spill(node.next.take());
            }
            link = &mut node.next;
        }
        0
    }
}

/// Free a spill one box at a time (a long chain must not recurse), and
/// count its versions.
fn free_spill<T>(mut spill: Spill<T>) -> usize {
    let mut freed = 0;
    while let Some(mut node) = spill {
        spill = node.next.take();
        freed += 1;
    }
    freed
}

impl<T> Drop for VersionChain<T> {
    fn drop(&mut self) {
        free_spill(self.older.take());
    }
}

impl<T: Clone> Clone for VersionChain<T> {
    fn clone(&self) -> Self {
        let mut chain = VersionChain::new(self.head_stamp, self.head.clone());
        let mut tail = &mut chain.older;
        for node in self.spilled() {
            let copy = Older { stamp: node.stamp, value: node.value.clone(), next: None };
            tail = &mut tail.insert(Box::new(copy)).next;
        }
        chain
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for VersionChain<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A record's fields in one version: an exact boxed slice, `None` for a
/// tombstone.
type Fields<P> = Option<Box<[P]>>;

/// A record slot: its version chain (`None` fields = tombstone: the record
/// is deleted at and after that stamp) plus page accounting for the
/// current version only.
#[derive(Debug, Clone)]
pub(crate) struct Record<P> {
    pub chain: VersionChain<Fields<P>>,
    pub page: u32,
    pub bytes: u32,
}

impl<P> Record<P> {
    fn new(stamp: u64, fields: Vec<P>, page: u32, bytes: usize) -> Self {
        let fields = Some(fields.into_boxed_slice());
        Record { chain: VersionChain::new(stamp, fields), page, bytes: bytes as u32 }
    }

    /// The latest version's fields; `None` when the record is currently a
    /// tombstone.
    pub fn current(&self) -> Option<&[P]> {
        self.chain.current().as_deref()
    }

    /// Resolve against an optional pinned epoch (`None` = latest): the
    /// fields of the newest version stamped ≤ the epoch. `None` if the
    /// record did not exist yet or was deleted at that epoch.
    pub fn fields_at(&self, epoch: Option<u64>) -> Option<&[P]> {
        self.chain.at(epoch).and_then(Option::as_deref)
    }
}

impl<P: Payload> Record<P> {
    /// Install a late write: a write stamped `stamp`, older than the newest
    /// version, set field `idx` to `value`. That field is set in the
    /// version visible at `stamp` (or, for a record created after `stamp`,
    /// in its first version), which is spliced in at `stamp`, and carried
    /// into every newer version, oldest first, until a newer version changed
    /// that field itself or is a tombstone: the newer stamp wins a field
    /// both wrote, and a field only the late write set is never lost — even
    /// when the newest version already holds the same value.
    fn install_late(&mut self, stamp: u64, idx: usize, value: P) {
        let (below, newer) = self.chain.split_late(stamp);
        let below = below.and_then(Option::as_deref);
        let first_newer = newer.first().and_then(|fields| fields.as_deref());
        let mut spliced: Box<[P]> = below.or(first_newer).map(Box::from).unwrap_or_default();
        put_field(&mut spliced, idx, &value);
        // The field as the version below the next newer one held it; `None`
        // when that version is a tombstone or there is none.
        let mut prev = below.map(|fields| fields.get(idx).cloned());
        for version in newer {
            let Some(fields) = version else { break };
            let own = fields.get(idx).cloned();
            if prev.is_some_and(|prev| prev != own) {
                break;
            }
            put_field(fields, idx, &value);
            prev = Some(own);
        }
        self.chain.push(stamp, Some(spliced));
    }
}

/// Set field `idx` of `fields` to `value`, appending it one past the end
/// (the box is regrown exactly); an index further out is skipped (the
/// version predates the fields between).
fn put_field<P: Clone>(fields: &mut Box<[P]>, idx: usize, value: &P) {
    if idx < fields.len() {
        fields[idx] = value.clone();
    } else if idx == fields.len() {
        let mut grown = std::mem::take(fields).into_vec();
        grown.reserve_exact(1);
        grown.push(value.clone());
        *fields = grown.into_boxed_slice();
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Segment<P> {
    pub name: String,
    slots: Vec<Option<Record<P>>>,
    free: Vec<u32>,
    pub pages: PageSet,
}

pub(crate) fn record_bytes<P: Payload>(fields: &[P]) -> usize {
    RECORD_OVERHEAD + fields.iter().map(|f| f.byte_size()).sum::<usize>()
}

impl<P: Payload> Segment<P> {
    pub fn new(name: String) -> Self {
        Segment { name, slots: Vec::new(), free: Vec::new(), pages: PageSet::default() }
    }

    /// Insert a record as a single version stamped `stamp`; returns
    /// (slot, page). Only slots reclaimed by [`Segment::gc`] are reused —
    /// a tombstoned slot still carries history some pinned reader needs.
    pub fn insert(&mut self, fields: Vec<P>, page_size: usize, stamp: u64) -> (u32, u32) {
        let bytes = record_bytes(&fields);
        let page = self.pages.place(bytes, page_size);
        let record = Record::new(stamp, fields, page, bytes);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(record);
                slot
            }
            None => {
                self.slots.push(Some(record));
                (self.slots.len() - 1) as u32
            }
        };
        (slot, page)
    }

    /// Re-create a record in a *specific* slot (snapshot decode). The slot
    /// must currently be empty; the record starts as a single version with
    /// the bootstrap stamp 0, visible at every epoch.
    pub fn restore(&mut self, slot: u32, fields: Vec<P>, page_size: usize) {
        let bytes = record_bytes(&fields);
        let page = self.pages.place(bytes, page_size);
        while self.slots.len() <= slot as usize {
            // Padding holes are genuinely free slots and must be reusable.
            self.free.push(self.slots.len() as u32);
            self.slots.push(None);
        }
        debug_assert!(self.slots[slot as usize].is_none(), "restore over live record");
        self.free.retain(|s| *s != slot);
        self.slots[slot as usize] = Some(Record::new(0, fields, page, bytes));
    }

    /// Raw access to a slot's record (version chain included).
    pub fn record(&self, slot: u32) -> Option<&Record<P>> {
        self.slots.get(slot as usize).and_then(|r| r.as_ref())
    }

    /// The fields visible at `epoch` (`None` = latest) for a slot.
    pub fn fields_at(&self, slot: u32, epoch: Option<u64>) -> Option<&[P]> {
        self.record(slot).and_then(|r| r.fields_at(epoch))
    }

    /// Apply a one-field write as a **new version** stamped `stamp`: the
    /// current fields are cloned, `f` sets one field of the clone and
    /// returns its index, and on `Ok` the result is pushed onto the chain
    /// as an exact box — an `f` that grows the fields should reserve
    /// exactly, or boxing them reallocates (page accounting follows the new
    /// current size — shrink in place, grow in place, or relocate).
    ///
    /// A write whose stamp is older than the newest version (concurrent
    /// tickets finish out of stamp order) is a *late write*: see
    /// `Record::install_late` for where the field it set lands.
    ///
    /// Returns `None` when the slot is unknown or currently deleted;
    /// `Some(Err(e))` passes through `f`'s error with **no version pushed**.
    /// On success the payload is `(the index written, page, moved)`.
    pub fn modify<E>(
        &mut self,
        slot: u32,
        stamp: u64,
        page_size: usize,
        f: impl FnOnce(&mut Vec<P>) -> Result<usize, E>,
    ) -> Option<Result<(usize, u32, bool), E>> {
        let record = self.slots.get_mut(slot as usize)?.as_mut()?;
        let mut fields = record.current()?.to_vec();
        let written = match f(&mut fields) {
            Ok(idx) => idx,
            Err(e) => return Some(Err(e)),
        };
        if stamp >= record.chain.current_stamp() {
            record.chain.push(stamp, Some(fields.into_boxed_slice()));
        } else {
            record.install_late(stamp, written, fields.swap_remove(written));
        }
        let new_bytes = record.current().map_or(0, |f| record_bytes(f));
        let old_bytes = record.bytes as usize;
        let old_page = record.page;
        let (page, moved) = if new_bytes == old_bytes {
            (old_page, false)
        } else if new_bytes < old_bytes {
            self.pages.shrink(old_page, old_bytes - new_bytes);
            (old_page, false)
        } else if self.pages.try_grow(old_page, new_bytes - old_bytes, page_size) {
            (old_page, false)
        } else {
            // Relocate: release old space, place at a fresh page.
            self.pages.release(old_page, old_bytes);
            let new_page = self.pages.place(new_bytes, page_size);
            (new_page, true)
        };
        let record = self.slots[slot as usize].as_mut().unwrap();
        record.page = page;
        record.bytes = new_bytes as u32;
        Some(Ok((written, page, moved)))
    }

    /// Delete a record by pushing a tombstone stamped `stamp`, returning a
    /// clone of the fields it superseded. The page charge is released but
    /// the slot is **not** recycled — pinned readers may still resolve the
    /// live history; [`Segment::gc`] reclaims the slot once unreachable.
    pub fn free(&mut self, slot: u32, stamp: u64) -> Option<Vec<P>> {
        let record = self.slots.get_mut(slot as usize)?.as_mut()?;
        let fields = record.current()?.to_vec();
        record.chain.push(stamp, None);
        let page = record.page;
        let bytes = record.bytes as usize;
        record.page = 0;
        record.bytes = 0;
        self.pages.release(page, bytes);
        Some(fields)
    }

    /// Prune version history unreachable from `watermark`: for every slot,
    /// drop all versions older than the one visible at the watermark, and
    /// recycle slots whose only surviving version is a tombstone. Returns
    /// the number of version entries reclaimed.
    pub fn gc(&mut self, watermark: u64) -> u64 {
        let mut reclaimed = 0u64;
        for i in 0..self.slots.len() {
            let Some(record) = self.slots[i].as_mut() else { continue };
            reclaimed += record.chain.gc(watermark) as u64;
            // A slot whose entire surviving chain is a single tombstone
            // visible at the watermark is dead to every possible reader.
            if record.chain.history_len() == 0
                && record.current().is_none()
                && record.chain.current_stamp() <= watermark
            {
                reclaimed += 1;
                self.slots[i] = None;
                self.free.push(i as u32);
            }
        }
        reclaimed
    }

    /// Superseded (non-current) version entries across the segment.
    pub fn version_backlog(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|r| {
                let hist = r.chain.history_len() as u64;
                // A slot currently tombstoned carries the tombstone itself
                // as reclaimable backlog too.
                if r.current().is_none() { hist + 1 } else { hist }
            })
            .sum()
    }

    /// Iterate `(slot, fields)` pairs visible at `epoch` (`None` = latest)
    /// in slot order (page-clustered for append-mostly workloads).
    pub fn iter_at(&self, epoch: Option<u64>) -> impl Iterator<Item = (u32, &[P])> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, r)| {
                r.as_ref().and_then(|rec| rec.fields_at(epoch)).map(|f| (i as u32, f))
            })
    }

    /// Iterate `(slot, record)` pairs whose slot is occupied (live or
    /// tombstoned) — raw chain access for snapshot encoding and scrubbing.
    pub fn iter_records(&self) -> impl Iterator<Item = (u32, &Record<P>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|rec| (i as u32, rec)))
    }

    /// Number of records live at the latest epoch.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().filter(|r| r.current().is_some()).count()
    }

    /// Bytes the segment's records hold in memory, as `(chains, fields)`:
    /// the slot table (each record's inline head, page charge and spill
    /// pointer) plus every spilled older version's box, and the boxed
    /// fields of all versions. What a payload owns beyond its inline `P` is
    /// not counted.
    pub fn resident_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let mut chains = self.slots.capacity() * size_of::<Option<Record<P>>>()
            + self.free.capacity() * size_of::<u32>();
        let mut fields = 0;
        for record in self.slots.iter().flatten() {
            chains += record.chain.spill_bytes();
            for (_, version) in record.chain.iter() {
                fields += version.as_ref().map_or(0, |f| f.len() * size_of::<P>());
            }
        }
        (chains, fields)
    }

    /// Highest slot index ever used (for snapshot encoding).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::SimplePayload as SP;

    const PS: usize = 128;

    fn set_field(seg: &mut Segment<SP>, slot: u32, stamp: u64, idx: usize, v: SP) {
        seg.modify(slot, stamp, PS, |fields| {
            fields[idx] = v;
            Ok::<_, ()>(idx)
        })
        .unwrap()
        .unwrap();
    }

    #[test]
    fn insert_get_free_roundtrip() {
        let mut seg: Segment<SP> = Segment::new("Person".into());
        let (slot, _page) = seg.insert(vec![SP::Int(1), SP::Str("ann".into())], PS, 1);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.fields_at(slot, None).unwrap()[1], SP::Str("ann".into()));
        let fields = seg.free(slot, 2).unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(seg.len(), 0);
        assert!(seg.fields_at(slot, None).is_none(), "deleted at latest");
        assert!(seg.fields_at(slot, Some(1)).is_some(), "still visible at epoch 1");
    }

    #[test]
    fn freed_slots_are_recycled_after_gc() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let (_b, _) = seg.insert(vec![SP::Int(2)], PS, 2);
        seg.free(a, 3);
        // Before GC the tombstoned slot still holds history for pinned
        // readers — a fresh insert must not reuse it.
        let (c, _) = seg.insert(vec![SP::Int(3)], PS, 4);
        assert_ne!(c, a, "tombstoned slot must not be reused before gc");
        let reclaimed = seg.gc(4);
        assert!(reclaimed >= 1);
        let (d, _) = seg.insert(vec![SP::Int(4)], PS, 5);
        assert_eq!(d, a, "slot recycled once history is unreachable");
    }

    #[test]
    fn restore_rebuilds_exact_slot() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let fields = seg.free(a, 2).unwrap();
        seg.gc(2);
        seg.restore(a, fields, PS);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(1));
        // Restored records are visible at every epoch (bootstrap stamp 0).
        assert_eq!(seg.fields_at(a, Some(0)).unwrap()[0], SP::Int(1));
        // The free list no longer offers slot `a`.
        let (b, _) = seg.insert(vec![SP::Int(2)], PS, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn growth_past_page_capacity_relocates() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        // Several records nearly filling page 0 (each 16 + 9 = 25 bytes).
        let (a, p0) = seg.insert(vec![SP::Int(1)], PS, 1);
        for _ in 0..3 {
            seg.insert(vec![SP::Int(0)], PS, 1);
        }
        assert_eq!(seg.pages.page_count(), 1);
        // Grow record a by a large string → must move to a fresh page.
        let (_, p_new, moved) = seg
            .modify(a, 2, PS, |fields| {
                fields.push(SP::Str("x".repeat(120)));
                Ok::<_, ()>(fields.len() - 1)
            })
            .unwrap()
            .unwrap();
        assert!(moved);
        assert_ne!(p_new, p0);
    }

    #[test]
    fn shrink_stays_in_place() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, p0) = seg.insert(vec![SP::Str("x".repeat(50))], PS, 1);
        let (_, p, moved) = seg
            .modify(a, 2, PS, |fields| {
                fields[0] = SP::Int(1);
                Ok::<_, ()>(0)
            })
            .unwrap()
            .unwrap();
        assert!(!moved);
        assert_eq!(p, p0);
    }

    #[test]
    fn iter_skips_freed() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let (_b, _) = seg.insert(vec![SP::Int(2)], PS, 2);
        seg.free(a, 3);
        let live: Vec<u32> = seg.iter_at(None).map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
        // But the pre-delete epoch still sees both.
        let pinned: Vec<u32> = seg.iter_at(Some(2)).map(|(s, _)| s).collect();
        assert_eq!(pinned, vec![0, 1]);
    }

    #[test]
    fn epoch_reads_are_repeatable_across_overwrites() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(10)], PS, 1);
        set_field(&mut seg, a, 5, 0, SP::Int(50));
        set_field(&mut seg, a, 9, 0, SP::Int(90));
        assert_eq!(seg.fields_at(a, Some(1)).unwrap()[0], SP::Int(10));
        assert_eq!(seg.fields_at(a, Some(4)).unwrap()[0], SP::Int(10));
        assert_eq!(seg.fields_at(a, Some(5)).unwrap()[0], SP::Int(50));
        assert_eq!(seg.fields_at(a, Some(8)).unwrap()[0], SP::Int(50));
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(90));
        assert!(seg.fields_at(a, Some(0)).is_none(), "not yet inserted at epoch 0");
    }

    #[test]
    fn failed_modify_pushes_no_version() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        let r = seg.modify(a, 2, PS, |_| Err::<usize, &str>("nope")).unwrap();
        assert!(r.is_err());
        assert_eq!(seg.record(a).unwrap().chain.history_len(), 0);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(1));
    }

    #[test]
    fn gc_prunes_superseded_versions() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        set_field(&mut seg, a, 2, 0, SP::Int(2));
        set_field(&mut seg, a, 3, 0, SP::Int(3));
        assert_eq!(seg.version_backlog(), 2);
        // Watermark 2: the version at stamp 2 is still visible to a pinned
        // reader; only the stamp-1 original is unreachable.
        assert_eq!(seg.gc(2), 1);
        assert_eq!(seg.fields_at(a, Some(2)).unwrap()[0], SP::Int(2));
        assert_eq!(seg.gc(3), 1);
        assert_eq!(seg.version_backlog(), 0);
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(3));
    }

    #[test]
    fn page_accounting_tracks_current_version_only() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Str("x".repeat(40))], PS, 1);
        let before = seg.pages.bytes_used();
        set_field(&mut seg, a, 2, 0, SP::Int(1));
        assert!(
            seg.pages.bytes_used() < before,
            "history bytes are not page-charged: {} vs {}",
            seg.pages.bytes_used(),
            before
        );
        seg.free(a, 3);
        assert_eq!(seg.pages.bytes_used(), 0);
    }

    #[test]
    fn a_late_write_reaches_newer_versions_unless_they_rewrote_its_field() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(0), SP::Int(0)], PS, 1);
        set_field(&mut seg, a, 5, 1, SP::Int(50));
        // Stamp 3 lands after stamp 5: its field reaches the newest version,
        // and the newer write is not visible at 3.
        set_field(&mut seg, a, 3, 0, SP::Int(30));
        assert_eq!(seg.fields_at(a, None).unwrap(), &vec![SP::Int(30), SP::Int(50)]);
        assert_eq!(seg.fields_at(a, Some(3)).unwrap(), &vec![SP::Int(30), SP::Int(0)]);
        assert_eq!(seg.fields_at(a, Some(2)).unwrap(), &vec![SP::Int(0), SP::Int(0)]);
        // A field both wrote keeps the newer stamp's value.
        set_field(&mut seg, a, 4, 1, SP::Int(40));
        assert_eq!(seg.fields_at(a, Some(4)).unwrap(), &vec![SP::Int(30), SP::Int(40)]);
        assert_eq!(seg.fields_at(a, None).unwrap(), &vec![SP::Int(30), SP::Int(50)]);
    }

    #[test]
    fn a_late_write_of_the_newest_value_still_reaches_readers_between() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(0)], PS, 1);
        set_field(&mut seg, a, 5, 0, SP::Int(7));
        // Stamp 3 writes the value stamp 5 already holds: a reader pinned at
        // 4 must see it, not the stamp-1 original.
        set_field(&mut seg, a, 3, 0, SP::Int(7));
        assert_eq!(seg.fields_at(a, Some(4)).unwrap(), &vec![SP::Int(7)]);
        assert_eq!(seg.fields_at(a, Some(2)).unwrap(), &vec![SP::Int(0)]);
        assert_eq!(seg.fields_at(a, None).unwrap(), &vec![SP::Int(7)]);
    }

    /// The version chain as it was before the inline head: every version
    /// in one stamp-sorted `Vec`, oldest first, with its own page set. The
    /// oracle [`chains_match_the_vec_reference`] runs [`Segment`] against.
    mod reference {
        use super::*;

        #[derive(Debug, Default)]
        pub struct RefRecord {
            pub versions: Vec<(u64, Option<Vec<SP>>)>,
            pub page: u32,
            pub bytes: usize,
        }

        impl RefRecord {
            fn current(&self) -> Option<&Vec<SP>> {
                self.versions.last().and_then(|(_, f)| f.as_ref())
            }

            pub fn fields_at(&self, epoch: Option<u64>) -> Option<&[SP]> {
                match epoch {
                    None => self.current().map(Vec::as_slice),
                    Some(e) => {
                        self.versions.iter().rev().find(|(s, _)| *s <= e).and_then(|(_, f)| f.as_deref())
                    }
                }
            }

            /// A version at an existing version's stamp replaces it.
            fn push(&mut self, stamp: u64, fields: Option<Vec<SP>>) {
                let at = self.versions.partition_point(|(s, _)| *s <= stamp);
                match at.checked_sub(1).map(|below| &mut self.versions[below]) {
                    Some((s, version)) if *s == stamp => *version = fields,
                    _ => self.versions.insert(at, (stamp, fields)),
                }
            }
        }

        fn put(fields: &mut Vec<SP>, i: usize, value: &SP) {
            match i.cmp(&fields.len()) {
                std::cmp::Ordering::Less => fields[i] = value.clone(),
                std::cmp::Ordering::Equal => fields.push(value.clone()),
                std::cmp::Ordering::Greater => {}
            }
        }

        #[derive(Debug, Default)]
        pub struct RefSegment {
            pub slots: Vec<Option<RefRecord>>,
            free: Vec<u32>,
            pub pages: PageSet,
        }

        impl RefSegment {
            pub fn insert(&mut self, fields: Vec<SP>, stamp: u64) -> (u32, u32) {
                let bytes = record_bytes(&fields);
                let page = self.pages.place(bytes, PS);
                let record = RefRecord { versions: vec![(stamp, Some(fields))], page, bytes };
                match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize] = Some(record);
                        (slot, page)
                    }
                    None => {
                        self.slots.push(Some(record));
                        ((self.slots.len() - 1) as u32, page)
                    }
                }
            }

            pub fn modify(&mut self, slot: u32, stamp: u64, i: usize, value: SP) -> Option<(u32, bool)> {
                let record = self.slots.get_mut(slot as usize)?.as_mut()?;
                let mut fields = record.current()?.clone();
                put(&mut fields, i, &value);
                let newest = record.versions.last().unwrap().0;
                if stamp >= newest {
                    record.push(stamp, Some(fields));
                } else {
                    // A late write: splice it onto the version visible at its
                    // stamp, then walk the field it set up the newer versions
                    // until one of them rewrote that field.
                    let at = record.versions.partition_point(|(s, _)| *s <= stamp);
                    let base = record.versions[..at].last().and_then(|(_, f)| f.clone());
                    let mut spliced = base.unwrap_or_else(|| record.versions[at].1.clone().unwrap());
                    put(&mut spliced, i, &value);
                    let versions = &mut record.versions;
                    // Version `k` stops the walk if it is a tombstone or
                    // differs at `i` from a live predecessor.
                    let stops = |k: usize| {
                        match (k.checked_sub(1).and_then(|j| versions[j].1.as_ref()), &versions[k].1) {
                            (_, None) => true,
                            (Some(prev), Some(f)) => prev.get(i) != f.get(i),
                            (None, Some(_)) => false,
                        }
                    };
                    let stop = (at..versions.len()).find(|k| stops(*k)).unwrap_or(versions.len());
                    for (_, version) in &mut versions[at..stop] {
                        put(version.as_mut().unwrap(), i, &value);
                    }
                    record.push(stamp, Some(spliced));
                }
                let new = record.current().map_or(0, |f| record_bytes(f));
                let (old, old_page) = (record.bytes, record.page);
                let (page, moved) = if new <= old {
                    self.pages.shrink(old_page, old - new);
                    (old_page, false)
                } else if self.pages.try_grow(old_page, new - old, PS) {
                    (old_page, false)
                } else {
                    self.pages.release(old_page, old);
                    (self.pages.place(new, PS), true)
                };
                let record = self.slots[slot as usize].as_mut().unwrap();
                (record.page, record.bytes) = (page, new);
                Some((page, moved))
            }

            pub fn free(&mut self, slot: u32, stamp: u64) -> Option<Vec<SP>> {
                let record = self.slots.get_mut(slot as usize)?.as_mut()?;
                let fields = record.current()?.clone();
                record.push(stamp, None);
                self.pages.release(record.page, record.bytes);
                (record.page, record.bytes) = (0, 0);
                Some(fields)
            }

            pub fn gc(&mut self, watermark: u64) -> u64 {
                let mut reclaimed = 0;
                for i in 0..self.slots.len() {
                    let Some(record) = self.slots[i].as_mut() else { continue };
                    if let Some(keep) = record.versions.iter().rposition(|(s, _)| *s <= watermark) {
                        record.versions.drain(..keep);
                        reclaimed += keep as u64;
                    }
                    if let [(stamp, None)] = record.versions[..] {
                        if stamp <= watermark {
                            reclaimed += 1;
                            self.slots[i] = None;
                            self.free.push(i as u32);
                        }
                    }
                }
                reclaimed
            }

            pub fn version_backlog(&self) -> u64 {
                let superseded = |r: &RefRecord| r.versions.len() - usize::from(r.current().is_some());
                self.slots.iter().flatten().map(|r| superseded(r) as u64).sum()
            }
        }
    }

    #[derive(Debug, Clone)]
    enum ChainOp {
        Insert(u8),
        /// Slot pick, how far behind the clock the stamp is (0 = in order),
        /// which of the two fields, and its new value: a string of that
        /// length grows the record.
        Modify(usize, u64, usize, u8),
        Free(usize, u64),
        /// How far behind the clock the watermark is.
        Gc(u64),
    }

    fn chain_op() -> impl Strategy<Value = ChainOp> {
        let modify = || {
            (any::<usize>(), 0u64..4, 0usize..2, 0u8..=255)
                .prop_map(|(s, b, i, v)| ChainOp::Modify(s, b, i, v))
        };
        prop_oneof![
            (0u8..=255).prop_map(ChainOp::Insert),
            modify(),
            modify(),
            (any::<usize>(), 0u64..3).prop_map(|(s, b)| ChainOp::Free(s, b)),
            (0u64..6).prop_map(ChainOp::Gc),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Random interleavings of insert, modify (stragglers included),
        /// free and GC leave the inline-head chain answering exactly as
        /// the plain `Vec` of versions: the fields at every epoch and at the
        /// latest, the version backlog, each record's page charge and the
        /// page set — through inline → spilled → inline transitions.
        #[test]
        fn chains_match_the_vec_reference(ops in proptest::collection::vec(chain_op(), 1..60)) {
            let mut seg: Segment<SP> = Segment::new("s".into());
            let mut model = reference::RefSegment::default();
            let mut clock = 1u64;
            let occupied = |model: &reference::RefSegment, pick: usize| {
                let slots: Vec<u32> = (0..model.slots.len() as u32)
                    .filter(|s| model.slots[*s as usize].is_some())
                    .collect();
                (!slots.is_empty()).then(|| slots[pick % slots.len()])
            };
            for op in ops {
                clock += 1;
                match op {
                    ChainOp::Insert(v) => {
                        let fields = vec![SP::Int(v as i64), SP::Int(0)];
                        prop_assert_eq!(seg.insert(fields.clone(), PS, clock), model.insert(fields, clock));
                    }
                    ChainOp::Modify(pick, behind, i, v) => {
                        let Some(slot) = occupied(&model, pick) else { continue };
                        let stamp = clock.saturating_sub(behind);
                        let field = if v % 3 == 0 { SP::Str("x".repeat(v as usize / 2)) } else { SP::Int(v as i64) };
                        let ours = seg.modify(slot, stamp, PS, |f| {
                            f[i] = field.clone();
                            Ok::<_, ()>(i)
                        });
                        let theirs = model.modify(slot, stamp, i, field);
                        prop_assert_eq!(ours.map(|r| r.map(|(_, page, moved)| (page, moved)).unwrap()), theirs);
                    }
                    ChainOp::Free(pick, behind) => {
                        let Some(slot) = occupied(&model, pick) else { continue };
                        let stamp = clock.saturating_sub(behind);
                        prop_assert_eq!(seg.free(slot, stamp), model.free(slot, stamp));
                    }
                    ChainOp::Gc(behind) => {
                        let watermark = clock.saturating_sub(behind);
                        prop_assert_eq!(seg.gc(watermark), model.gc(watermark));
                    }
                }
                prop_assert_eq!(seg.version_backlog(), model.version_backlog());
                prop_assert_eq!(format!("{:?}", seg.pages), format!("{:?}", model.pages));
                prop_assert_eq!(seg.slot_capacity(), model.slots.len());
                for (slot, theirs) in model.slots.iter().enumerate() {
                    let ours = seg.record(slot as u32);
                    prop_assert_eq!(ours.is_some(), theirs.is_some(), "slot {} occupancy", slot);
                    let (Some(ours), Some(theirs)) = (ours, theirs) else { continue };
                    prop_assert_eq!((ours.page, ours.bytes as usize), (theirs.page, theirs.bytes));
                    prop_assert_eq!(ours.chain.history_len() + 1, theirs.versions.len());
                    prop_assert_eq!(ours.fields_at(None), theirs.fields_at(None));
                    for epoch in 0..=clock + 1 {
                        prop_assert_eq!(
                            ours.fields_at(Some(epoch)), theirs.fields_at(Some(epoch)),
                            "slot {} at epoch {}", slot, epoch
                        );
                    }
                }
            }
        }
    }

    /// A record slot holds its newest version's stamp, a boxed-fields
    /// pointer, the spill pointer and the page charge, whatever the
    /// payload.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_record_slot_costs_at_most_48_bytes() {
        type Payload32 = [u64; 4];
        let slot = std::mem::size_of::<Option<Record<Payload32>>>();
        println!("record slot: {slot} B");
        assert!(slot <= 48, "a record slot is {slot} B");
    }

    /// Two writes of one record in one batch share its stamp: the second
    /// replaces the first, at the head or spliced below it, and nothing
    /// spills.
    #[test]
    fn a_second_version_at_one_stamp_replaces_the_first() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(0), SP::Int(0)], PS, 3);
        set_field(&mut seg, a, 3, 0, SP::Int(30));
        set_field(&mut seg, a, 3, 1, SP::Int(31));
        assert_eq!(seg.version_backlog(), 0);
        assert_eq!(seg.fields_at(a, Some(3)).unwrap(), &vec![SP::Int(30), SP::Int(31)]);
        assert!(seg.fields_at(a, Some(2)).is_none());
        set_field(&mut seg, a, 5, 0, SP::Int(50));
        // A late write at the stamp below the head replaces that version
        // and is carried into the head.
        set_field(&mut seg, a, 3, 1, SP::Int(32));
        assert_eq!(seg.version_backlog(), 1);
        assert_eq!(seg.fields_at(a, Some(4)).unwrap(), &vec![SP::Int(30), SP::Int(32)]);
        assert_eq!(seg.fields_at(a, None).unwrap(), &vec![SP::Int(50), SP::Int(32)]);
        // A delete in the batch that created a record leaves its tombstone
        // alone, which GC reclaims with the slot.
        let (b, _) = seg.insert(vec![SP::Int(1)], PS, 7);
        seg.free(b, 7);
        assert_eq!(seg.record(b).unwrap().chain.history_len(), 0);
        assert!(seg.fields_at(b, Some(7)).is_none());
        assert_eq!(seg.gc(7), 2, "a's stamp-3 version and b's slot");
    }

    #[test]
    fn one_version_holds_no_spill_and_gc_gives_the_spill_back() {
        let mut seg: Segment<SP> = Segment::new("s".into());
        let (a, _) = seg.insert(vec![SP::Int(1)], PS, 1);
        assert_eq!(seg.record(a).unwrap().chain.spill_capacity(), 0);
        set_field(&mut seg, a, 2, 0, SP::Int(2));
        set_field(&mut seg, a, 3, 0, SP::Int(3));
        assert!(seg.record(a).unwrap().chain.spill_capacity() >= 2);
        seg.gc(3);
        assert_eq!(seg.record(a).unwrap().chain.spill_capacity(), 0, "back to inline");
        set_field(&mut seg, a, 4, 0, SP::Int(4));
        let chain = &mut seg.slots[a as usize].as_mut().unwrap().chain;
        assert!(chain.pop().is_some());
        assert_eq!(seg.record(a).unwrap().chain.spill_capacity(), 0, "a pop frees it too");
        assert_eq!(seg.fields_at(a, None).unwrap()[0], SP::Int(3));
    }
}
