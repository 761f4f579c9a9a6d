//! Multi-version concurrency control: the epoch clock, write tickets,
//! read pins, and the thread-local epoch threading that gives the store
//! snapshot visibility without changing any call signature above it.
//!
//! Every record mutation is stamped with a **write stamp** drawn from one
//! monotone [`EpochClock`] shared by a store and all of its shared forks.
//! A batch of mutations that must become visible atomically (a
//! `WriteSession` operation, an evolution) registers a [`WriteTicket`]
//! before its first mutation: while the ticket is open, the clock's
//! *stable* epoch stalls just below the ticket's stamp, so no reader can
//! pin an epoch that would observe a half-installed batch. Unbatched
//! ("solo") mutations take a plain stamp with no ticket — they are
//! single-record and need no all-or-none window.
//!
//! Readers call [`EpochClock::pin`] (via `SliceStore::pin_read`) to hold a
//! [`ReadPin`] on the current stable epoch. Everything the pinning session
//! reads resolves against that epoch, for as long as the pin lives —
//! repeatable reads across concurrent write batches and evolution
//! swap-ins. [`EpochClock::gc_watermark`] is the oldest epoch any current
//! or future reader can observe; version-chain entries superseded at the
//! watermark are reclaimable.
//!
//! The epoch a store operation resolves against travels in **thread-local
//! state**, not in arguments: [`ReadEpochGuard`] pins the calling thread's
//! reads to an epoch, [`WriteStampGuard`] routes the calling thread's
//! mutations to a ticket's stamp. Both are RAII and nest (the previous
//! value is restored on drop), which lets the session layer thread epochs
//! through the object model and algebra without touching their signatures.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

thread_local! {
    static READ_EPOCH: Cell<Option<u64>> = const { Cell::new(None) };
    static WRITE_STAMP: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The epoch the current thread's store reads resolve against, if pinned.
/// `None` means "latest committed version". Public so layers above the
/// store (the object model's membership map, extent caches) can resolve
/// their own versioned state against the same ambient epoch.
pub fn current_read_epoch() -> Option<u64> {
    READ_EPOCH.with(|c| c.get())
}

/// The write stamp the current thread's store mutations install under, if
/// a batch guard is active. `None` means the mutation is solo-stamped.
pub fn current_write_stamp() -> Option<u64> {
    WRITE_STAMP.with(|c| c.get())
}

/// RAII guard pinning the current thread's store reads to one epoch.
/// Nested guards shadow and restore the previous epoch on drop.
#[derive(Debug)]
pub struct ReadEpochGuard {
    prev: Option<u64>,
}

impl ReadEpochGuard {
    /// Pin this thread's reads to `epoch` until the guard drops.
    pub fn new(epoch: u64) -> Self {
        let prev = READ_EPOCH.with(|c| c.replace(Some(epoch)));
        ReadEpochGuard { prev }
    }
}

impl Drop for ReadEpochGuard {
    fn drop(&mut self) {
        READ_EPOCH.with(|c| c.set(self.prev));
    }
}

/// RAII guard routing the current thread's store mutations to one write
/// stamp (a [`WriteTicket`]'s). Nested guards shadow and restore.
#[derive(Debug)]
pub struct WriteStampGuard {
    prev: Option<u64>,
}

impl WriteStampGuard {
    /// Stamp this thread's mutations with `stamp` until the guard drops.
    pub fn new(stamp: u64) -> Self {
        let prev = WRITE_STAMP.with(|c| c.replace(Some(stamp)));
        WriteStampGuard { prev }
    }
}

impl Drop for WriteStampGuard {
    fn drop(&mut self) {
        WRITE_STAMP.with(|c| c.set(self.prev));
    }
}

/// The shared monotone stamp source for one store family (a store plus
/// every shared fork of it).
#[derive(Debug)]
pub struct EpochClock {
    /// Next stamp to hand out. Stamps start at 1; stamp 0 is reserved for
    /// bootstrap/restored records, visible at every epoch.
    next: AtomicU64,
    /// Stamps of write tickets whose batches are still installing.
    inflight: Mutex<BTreeSet<u64>>,
    /// Multiset of epochs held by live [`ReadPin`]s.
    pinned: Mutex<BTreeMap<u64, usize>>,
}

impl Default for EpochClock {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochClock {
    /// A fresh clock: stable epoch 0, first stamp 1.
    pub fn new() -> Self {
        EpochClock {
            next: AtomicU64::new(1),
            inflight: Mutex::new(BTreeSet::new()),
            pinned: Mutex::new(BTreeMap::new()),
        }
    }

    /// Take a stamp for a single unbatched mutation. The stamp is
    /// immediately below the stable frontier once taken (no all-or-none
    /// window is provided — use [`EpochClock::begin_write`] for batches).
    pub fn solo_stamp(&self) -> u64 {
        self.next.fetch_add(1, Ordering::AcqRel)
    }

    /// The newest epoch at which every stamped version is fully
    /// installed: just below the oldest in-flight ticket, or just below
    /// the next unissued stamp when no ticket is open.
    pub fn stable(&self) -> u64 {
        let inflight = self.inflight.lock();
        match inflight.iter().next() {
            Some(&oldest) => oldest - 1,
            None => self.next.load(Ordering::Acquire) - 1,
        }
    }

    /// Register a write batch. Mutations made under the returned ticket's
    /// stamp become visible atomically when the ticket drops (or
    /// [`WriteTicket::end`] is called): until then the stable epoch stays
    /// below the stamp, so no reader pins an epoch that sees a partial
    /// batch.
    pub fn begin_write(self: &Arc<Self>) -> WriteTicket {
        let mut inflight = self.inflight.lock();
        let stamp = self.next.fetch_add(1, Ordering::AcqRel);
        inflight.insert(stamp);
        WriteTicket { clock: Arc::clone(self), stamp }
    }

    /// Pin the current stable epoch for repeatable reads. The pin holds
    /// the GC watermark at or below the pinned epoch until dropped.
    pub fn pin(self: &Arc<Self>) -> ReadPin {
        // Hold the pin table across the stable() computation so a
        // concurrent `gc_watermark` cannot slip between reading the
        // frontier and registering the pin.
        let mut pinned = self.pinned.lock();
        let epoch = self.stable_locked();
        *pinned.entry(epoch).or_insert(0) += 1;
        drop(pinned);
        ReadPin { clock: Arc::clone(self), epoch }
    }

    /// `stable()` without taking the pin table (caller holds it).
    fn stable_locked(&self) -> u64 {
        let inflight = self.inflight.lock();
        match inflight.iter().next() {
            Some(&oldest) => oldest - 1,
            None => self.next.load(Ordering::Acquire) - 1,
        }
    }

    /// The oldest epoch any live or future reader can resolve against:
    /// versions superseded at this epoch are unreachable and reclaimable.
    pub fn gc_watermark(&self) -> u64 {
        let pinned = self.pinned.lock();
        let stable = self.stable_locked();
        match pinned.keys().next() {
            Some(&oldest_pin) => oldest_pin.min(stable),
            None => stable,
        }
    }

    /// Number of distinct epochs currently held by read pins.
    pub fn pinned_epochs(&self) -> usize {
        self.pinned.lock().len()
    }

    fn end_write(&self, stamp: u64) {
        self.inflight.lock().remove(&stamp);
    }

    fn unpin(&self, epoch: u64) {
        let mut pinned = self.pinned.lock();
        if let Some(n) = pinned.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                pinned.remove(&epoch);
            }
        }
    }
}

/// An open write batch: holds the stable frontier below its stamp until
/// dropped, making everything installed under the stamp visible at once.
#[derive(Debug)]
pub struct WriteTicket {
    clock: Arc<EpochClock>,
    stamp: u64,
}

impl WriteTicket {
    /// The stamp every mutation of this batch installs under.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Publish the batch: equivalent to dropping the ticket.
    pub fn end(self) {}
}

impl Drop for WriteTicket {
    fn drop(&mut self) {
        self.clock.end_write(self.stamp);
    }
}

/// A pinned read epoch. While alive, versions visible at the epoch are
/// protected from garbage collection.
#[derive(Debug)]
pub struct ReadPin {
    clock: Arc<EpochClock>,
    epoch: u64,
}

impl ReadPin {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for ReadPin {
    fn drop(&mut self) {
        self.clock.unpin(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_stalls_below_open_tickets() {
        let clock = Arc::new(EpochClock::new());
        assert_eq!(clock.stable(), 0);
        let s1 = clock.solo_stamp();
        assert_eq!(s1, 1);
        assert_eq!(clock.stable(), 1, "solo stamps are immediately stable");

        let ticket = clock.begin_write();
        assert_eq!(ticket.stamp(), 2);
        assert_eq!(clock.stable(), 1, "open ticket holds the frontier");
        // Later solo stamps do not advance stability past the ticket.
        let s3 = clock.solo_stamp();
        assert_eq!(s3, 3);
        assert_eq!(clock.stable(), 1);
        ticket.end();
        assert_eq!(clock.stable(), 3, "frontier catches up once the batch publishes");
    }

    #[test]
    fn pins_hold_the_gc_watermark() {
        let clock = Arc::new(EpochClock::new());
        for _ in 0..5 {
            clock.solo_stamp();
        }
        let pin = clock.pin();
        assert_eq!(pin.epoch(), 5);
        for _ in 0..5 {
            clock.solo_stamp();
        }
        assert_eq!(clock.stable(), 10);
        assert_eq!(clock.gc_watermark(), 5, "pin holds the watermark");
        assert_eq!(clock.pinned_epochs(), 1);
        drop(pin);
        assert_eq!(clock.gc_watermark(), 10);
        assert_eq!(clock.pinned_epochs(), 0);
    }

    #[test]
    fn pins_never_observe_an_open_batch() {
        let clock = Arc::new(EpochClock::new());
        let ticket = clock.begin_write();
        let pin = clock.pin();
        assert!(pin.epoch() < ticket.stamp());
        ticket.end();
        let pin2 = clock.pin();
        assert!(pin2.epoch() >= 1);
    }

    #[test]
    fn thread_local_guards_nest_and_restore() {
        assert_eq!(current_read_epoch(), None);
        {
            let _outer = ReadEpochGuard::new(7);
            assert_eq!(current_read_epoch(), Some(7));
            {
                let _inner = ReadEpochGuard::new(3);
                assert_eq!(current_read_epoch(), Some(3));
            }
            assert_eq!(current_read_epoch(), Some(7));
        }
        assert_eq!(current_read_epoch(), None);

        assert_eq!(current_write_stamp(), None);
        {
            let _g = WriteStampGuard::new(42);
            assert_eq!(current_write_stamp(), Some(42));
        }
        assert_eq!(current_write_stamp(), None);
    }

    #[test]
    fn watermark_is_min_of_pins_and_stable() {
        let clock = Arc::new(EpochClock::new());
        clock.solo_stamp();
        let old = clock.pin(); // epoch 1
        clock.solo_stamp();
        clock.solo_stamp();
        let newer = clock.pin(); // epoch 3
        assert_eq!(clock.gc_watermark(), 1);
        drop(old);
        assert_eq!(clock.gc_watermark(), 3);
        drop(newer);
        assert_eq!(clock.gc_watermark(), 3);
    }
}
