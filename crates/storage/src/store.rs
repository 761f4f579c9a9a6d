//! The store: lock-striped multi-versioned segments + per-stripe buffer
//! pools + counters.
//!
//! Segments (one per class in the object model) are partitioned across
//! `StoreConfig::write_stripes` lock stripes keyed by `SegmentId % N`, so
//! record operations on different class segments proceed concurrently from
//! `&self`. Cross-stripe operations (totals, snapshot encoding, GC)
//! acquire stripes in canonical (index) order, which keeps them
//! deadlock-free against any set of single-stripe writers.
//!
//! Every mutation installs a new record version stamped by the shared
//! [`EpochClock`]; reads resolve against the calling thread's pinned epoch
//! (see [`crate::mvcc`]) or the latest version when unpinned. The store's
//! contents live behind an `Arc` so [`SliceStore::fork_shared`] is a
//! handle clone: the control plane's fork copies nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tse_telemetry::Telemetry;

use crate::buffer::{BufferPool, PageKey};
use crate::error::{StorageError, StorageResult};
use crate::failpoint::FailpointRegistry;
use crate::mvcc::{current_read_epoch, current_write_stamp, EpochClock, ReadPin};
use crate::payload::Payload;
use crate::segment::Segment;
use crate::stats::StoreStats;

/// Identifies a segment (one per class in the object model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

/// Identifies a record: a slot within a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Segment holding the record.
    pub segment: SegmentId,
    /// Slot index inside the segment.
    pub slot: u32,
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Simulated page size in bytes.
    pub page_size: usize,
    /// Buffer pool capacity in pages (each stripe gets a pool of this
    /// capacity, so single-segment locality measurements are unaffected by
    /// the stripe count).
    pub buffer_pages: usize,
    /// Number of lock stripes the segments are partitioned across
    /// (clamped to ≥ 1). A runtime tuning knob — not persisted in
    /// snapshots; restored stores use the decoding process's value. The
    /// default adapts to the host: `available_parallelism`, clamped to
    /// [1, 64].
    pub write_stripes: usize,
    /// WAL size (bytes) past which a durable system checkpoints in its
    /// next exclusive section, bounding the log and recovery time. A
    /// runtime knob, not persisted; 0 disables auto-checkpointing.
    pub wal_autocheckpoint_bytes: u64,
    /// Bounded retry-with-backoff policy for transient durable-path I/O
    /// faults (WAL append/fsync, snapshot and manifest writes, scrub
    /// reads). Retries always run *before* a write is acknowledged. A
    /// runtime knob, not persisted.
    pub retry: crate::fault::RetryPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: 4096,
            buffer_pages: 256,
            write_stripes: default_write_stripes(),
            wal_autocheckpoint_bytes: 4 * 1024 * 1024,
            retry: crate::fault::RetryPolicy::default(),
        }
    }
}

/// Stripe-count default: one stripe per hardware thread, clamped to
/// [1, 64]. More stripes than threads buys nothing (writers can't run
/// concurrently anyway); the cap bounds per-store memory on huge hosts.
fn default_write_stripes() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8).clamp(1, 64)
}

#[derive(Debug, Default)]
struct AtomicStats {
    record_reads: AtomicU64,
    record_writes: AtomicU64,
    page_hits: AtomicU64,
    page_misses: AtomicU64,
    records_allocated: AtomicU64,
    records_freed: AtomicU64,
    record_moves: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            record_reads: self.record_reads.load(Ordering::Relaxed),
            record_writes: self.record_writes.load(Ordering::Relaxed),
            page_hits: self.page_hits.load(Ordering::Relaxed),
            page_misses: self.page_misses.load(Ordering::Relaxed),
            records_allocated: self.records_allocated.load(Ordering::Relaxed),
            records_freed: self.records_freed.load(Ordering::Relaxed),
            record_moves: self.record_moves.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.record_reads.store(0, Ordering::Relaxed);
        self.record_writes.store(0, Ordering::Relaxed);
        self.page_hits.store(0, Ordering::Relaxed);
        self.page_misses.store(0, Ordering::Relaxed);
        self.records_allocated.store(0, Ordering::Relaxed);
        self.records_freed.store(0, Ordering::Relaxed);
        self.record_moves.store(0, Ordering::Relaxed);
    }
}

/// One lock stripe: the segments whose id hashes here, plus this stripe's
/// own buffer pool (a shared pool would re-serialize every page touch).
#[derive(Debug)]
struct Stripe<P: Payload> {
    segments: RwLock<BTreeMap<u32, Segment<P>>>,
    buffer: Mutex<BufferPool>,
}

impl<P: Payload> Stripe<P> {
    fn new(buffer_pages: usize) -> Self {
        Stripe {
            segments: RwLock::new(BTreeMap::new()),
            buffer: Mutex::new(BufferPool::new(buffer_pages)),
        }
    }

    /// Contention-aware write acquisition: the uncontended fast path takes
    /// no telemetry lock at all; a failed `try_write` counts one
    /// `stripe.conflicts` and times the blocking acquisition into
    /// `lock.stripe_wait_ns`.
    fn write_segments(
        &self,
        telemetry: &Telemetry,
    ) -> RwLockWriteGuard<'_, BTreeMap<u32, Segment<P>>> {
        match self.segments.try_write() {
            Some(guard) => guard,
            None => {
                telemetry.incr("stripe.conflicts", 1);
                let begun = Instant::now();
                let guard = self.segments.write();
                telemetry
                    .observe_ns("lock.stripe_wait_ns", (begun.elapsed().as_nanos() as u64).max(1));
                guard
            }
        }
    }
}

/// The shared contents of a store family: everything except the per-handle
/// failpoint/telemetry attachments. `SliceStore::fork_shared` clones the
/// `Arc` around this, so a live system and its evolution fork share the
/// same stripes — nothing is copied, and version stamps keep pinned readers
/// on their epoch.
#[derive(Debug)]
struct StoreInner<P: Payload> {
    config: StoreConfig,
    stripes: Vec<Stripe<P>>,
    next_segment: AtomicU32,
    stats: AtomicStats,
    /// The stamp source shared by every handle of this store family.
    clock: Arc<EpochClock>,
    /// Superseded version entries awaiting GC, maintained incrementally by
    /// the mutation paths and recomputed authoritatively by `gc`.
    superseded: AtomicU64,
}

/// The paged record store. Generic over the field payload type.
///
/// All record and segment operations take `&self`: reads go through stripe
/// read locks, mutations through stripe write locks, and counters are
/// atomics — so independent writers on different class segments run in
/// parallel with no outer `&mut` required.
#[derive(Debug)]
pub struct SliceStore<P: Payload> {
    inner: Arc<StoreInner<P>>,
    failpoints: FailpointRegistry,
    telemetry: Telemetry,
}

impl<P: Payload> Default for SliceStore<P> {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl<P: Payload> SliceStore<P> {
    /// Create an empty store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        let n = config.write_stripes.max(1);
        SliceStore {
            inner: Arc::new(StoreInner {
                config,
                stripes: (0..n).map(|_| Stripe::new(config.buffer_pages)).collect(),
                next_segment: AtomicU32::new(0),
                stats: AtomicStats::default(),
                clock: Arc::new(EpochClock::new()),
                superseded: AtomicU64::new(0),
            }),
            failpoints: FailpointRegistry::new(),
            telemetry: Telemetry::new(),
        }
    }

    /// The configuration this store was created with.
    pub fn config(&self) -> StoreConfig {
        self.inner.config
    }

    /// Number of lock stripes actually in use.
    pub fn stripe_count(&self) -> usize {
        self.inner.stripes.len()
    }

    /// The MVCC stamp clock shared by this store family. Sessions pin read
    /// epochs and write batches register tickets here.
    pub fn clock(&self) -> &Arc<EpochClock> {
        &self.inner.clock
    }

    /// Pin the current stable epoch for repeatable reads (shorthand for
    /// `store.clock().pin()`).
    pub fn pin_read(&self) -> ReadPin {
        self.inner.clock.pin()
    }

    /// The fault-injection registry consulted by this store's mutation
    /// paths (site `storage.insert`). The handle is cheap to clone and
    /// shared — arming it from a test affects this store immediately.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.failpoints
    }

    /// Replace the registry (used to share one registry between a store,
    /// the durable layer, and the evolution pipeline of one system).
    pub fn set_failpoints(&mut self, failpoints: FailpointRegistry) {
        self.failpoints = failpoints;
    }

    /// Attach the owning system's telemetry domain so stripe contention
    /// surfaces as `stripe.conflicts` / `lock.stripe_wait_ns` and MVCC
    /// reclamation as `mvcc.gc_reclaimed` / `mvcc.versions`. Registers
    /// the metrics immediately (at zero / empty) so snapshots always carry
    /// them.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.incr("stripe.conflicts", 0);
        telemetry.incr("mvcc.gc_reclaimed", 0);
        telemetry.set_gauge("mvcc.versions", self.inner.superseded.load(Ordering::Relaxed));
        telemetry.set_gauge("store.write_stripes", self.inner.stripes.len() as u64);
        self.telemetry = telemetry;
    }

    fn stripe(&self, seg: SegmentId) -> &Stripe<P> {
        &self.inner.stripes[seg.0 as usize % self.inner.stripes.len()]
    }

    /// The stamp for one mutation: the ambient batch ticket's stamp when a
    /// `WriteStampGuard` is active on this thread, else a fresh solo stamp
    /// (immediately stable — single-record mutations need no all-or-none
    /// window).
    fn mutation_stamp(&self) -> u64 {
        current_write_stamp().unwrap_or_else(|| self.inner.clock.solo_stamp())
    }

    fn superseded_add(&self, n: u64) {
        self.inner.superseded.fetch_add(n, Ordering::Relaxed);
    }

    // ----- segments -------------------------------------------------------

    /// Create a new segment (a per-class record arena).
    pub fn create_segment(&self, name: &str) -> SegmentId {
        let id = SegmentId(self.inner.next_segment.fetch_add(1, Ordering::AcqRel));
        self.stripe(id)
            .write_segments(&self.telemetry)
            .insert(id.0, Segment::new(name.to_string()));
        id
    }

    /// Drop a segment and everything in it.
    pub fn drop_segment(&self, seg: SegmentId) -> StorageResult<()> {
        let stripe = self.stripe(seg);
        let removed = stripe.write_segments(&self.telemetry).remove(&seg.0);
        if removed.is_none() {
            return Err(StorageError::UnknownSegment(seg.0));
        }
        stripe.buffer.lock().evict_segment(seg.0);
        Ok(())
    }

    /// Name the segment was created with.
    pub fn segment_name(&self, seg: SegmentId) -> StorageResult<String> {
        self.with_segment(seg, |s| s.name.clone())
    }

    /// Number of records live at the latest epoch in a segment.
    pub fn segment_len(&self, seg: SegmentId) -> StorageResult<usize> {
        self.with_segment(seg, |s| s.len())
    }

    /// All live segment ids with their names, in id order.
    pub fn segments(&self) -> Vec<(SegmentId, String)> {
        let mut out = Vec::new();
        for stripe in &self.inner.stripes {
            let guard = stripe.segments.read();
            out.extend(guard.iter().map(|(id, seg)| (SegmentId(*id), seg.name.clone())));
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn with_segment<R>(
        &self,
        seg: SegmentId,
        f: impl FnOnce(&Segment<P>) -> R,
    ) -> StorageResult<R> {
        let guard = self.stripe(seg).segments.read();
        let segment = guard.get(&seg.0).ok_or(StorageError::UnknownSegment(seg.0))?;
        Ok(f(segment))
    }

    fn with_segment_mut<R>(
        &self,
        seg: SegmentId,
        f: impl FnOnce(&mut Segment<P>) -> R,
    ) -> StorageResult<R> {
        let mut guard = self.stripe(seg).write_segments(&self.telemetry);
        let segment = guard.get_mut(&seg.0).ok_or(StorageError::UnknownSegment(seg.0))?;
        Ok(f(segment))
    }

    // ----- records --------------------------------------------------------

    /// Insert a record into a segment. Failpoint site: `storage.insert`
    /// (fires *before* the record is allocated, so an injected failure
    /// leaves no half-inserted state).
    pub fn insert(&self, seg: SegmentId, fields: Vec<P>) -> StorageResult<RecordId> {
        self.failpoints.check("storage.insert")?;
        let page_size = self.inner.config.page_size;
        let stamp = self.mutation_stamp();
        let (slot, page) = self.with_segment_mut(seg, |s| s.insert(fields, page_size, stamp))?;
        self.inner.stats.records_allocated.fetch_add(1, Ordering::Relaxed);
        self.touch_page(seg, page);
        Ok(RecordId { segment: seg, slot })
    }

    /// Delete a record by installing a tombstone version, returning the
    /// fields it superseded. Pinned readers keep resolving the record's
    /// history; the slot is reclaimed by [`SliceStore::gc`] once no epoch
    /// can reach it.
    pub fn free(&self, rec: RecordId) -> StorageResult<Vec<P>> {
        let stamp = self.mutation_stamp();
        let fields = self
            .with_segment_mut(rec.segment, |s| s.free(rec.slot, stamp))?
            .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })?;
        self.inner.stats.records_freed.fetch_add(1, Ordering::Relaxed);
        // The superseded live version plus the tombstone itself are both
        // reclaimable once the watermark passes the tombstone.
        self.superseded_add(2);
        Ok(fields)
    }

    /// Read a whole record at the calling thread's pinned epoch — latest
    /// when unpinned (counts one record read and one page touch).
    pub fn read(&self, rec: RecordId) -> StorageResult<Vec<P>> {
        let epoch = current_read_epoch();
        let (fields, page) = self.with_segment(rec.segment, |s| {
            s.record(rec.slot).and_then(|r| r.fields_at(epoch).map(|f| (f.to_vec(), r.page)))
        })?
        .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })?;
        self.inner.stats.record_reads.fetch_add(1, Ordering::Relaxed);
        self.touch_page(rec.segment, page);
        Ok(fields)
    }

    /// Read one field of a record at the calling thread's pinned epoch: a
    /// [`ReadCursor`] pass of one read.
    pub fn read_field(&self, rec: RecordId, idx: usize) -> StorageResult<P> {
        self.cursor().read_field(rec, idx)
    }

    /// A read cursor at the calling thread's pinned epoch (latest when
    /// unpinned), for a pass of field reads that takes its locks once per
    /// stripe run instead of once per read.
    pub fn cursor(&self) -> ReadCursor<'_, P> {
        ReadCursor {
            store: self,
            epoch: current_read_epoch(),
            stripe: 0,
            guard: None,
            touches: [(0, 0); TOUCH_BATCH],
            pending: 0,
        }
    }

    /// Number of fields in a record at the calling thread's pinned epoch
    /// (no page touch; catalog metadata).
    pub fn field_count(&self, rec: RecordId) -> StorageResult<usize> {
        let epoch = current_read_epoch();
        self.with_segment(rec.segment, |s| s.fields_at(rec.slot, epoch).map(|f| f.len()))?
            .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })
    }

    /// Overwrite one field of a record. Installs a new version — readers
    /// pinned to earlier epochs keep seeing the old value.
    pub fn write_field(&self, rec: RecordId, idx: usize, value: P) -> StorageResult<()> {
        let page_size = self.inner.config.page_size;
        let stamp = self.mutation_stamp();
        let outcome = self.with_segment_mut(rec.segment, |segment| {
            segment.modify(rec.slot, stamp, page_size, move |fields| {
                let len = fields.len();
                let slot =
                    fields.get_mut(idx).ok_or(StorageError::FieldOutOfBounds { index: idx, len })?;
                *slot = value;
                Ok::<_, StorageError>(idx)
            })
        })?;
        let (_, page, moved) = outcome
            .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })??;
        self.inner.stats.record_writes.fetch_add(1, Ordering::Relaxed);
        if moved {
            self.inner.stats.record_moves.fetch_add(1, Ordering::Relaxed);
        }
        self.superseded_add(1);
        self.touch_page(rec.segment, page);
        Ok(())
    }

    /// Append a field to a record (dynamic restructuring: a slice acquiring
    /// storage for a newly added stored attribute). Installs a new version.
    pub fn append_field(&self, rec: RecordId, value: P) -> StorageResult<usize> {
        let page_size = self.inner.config.page_size;
        let stamp = self.mutation_stamp();
        let outcome = self.with_segment_mut(rec.segment, |segment| {
            segment.modify(rec.slot, stamp, page_size, move |fields| {
                fields.reserve_exact(1);
                fields.push(value);
                Ok::<_, StorageError>(fields.len() - 1)
            })
        })?;
        let (new_idx, page, moved) = outcome
            .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })??;
        self.inner.stats.record_writes.fetch_add(1, Ordering::Relaxed);
        if moved {
            self.inner.stats.record_moves.fetch_add(1, Ordering::Relaxed);
        }
        self.superseded_add(1);
        self.touch_page(rec.segment, page);
        Ok(new_idx)
    }

    /// Scan the records of a segment visible at the calling thread's
    /// pinned epoch in slot (≈ page) order, invoking `f` for each. Counts
    /// one record read + page touch per record. The stripe read lock is
    /// held across the whole scan, so `f` must not call back into this
    /// store.
    pub fn scan<F: FnMut(RecordId, &[P])>(&self, seg: SegmentId, mut f: F) -> StorageResult<()> {
        let epoch = current_read_epoch();
        let guard = self.stripe(seg).segments.read();
        let segment = guard.get(&seg.0).ok_or(StorageError::UnknownSegment(seg.0))?;
        let mut touches: Vec<PageKey> = Vec::new();
        for (slot, record) in segment.iter_records() {
            let Some(fields) = record.fields_at(epoch) else { continue };
            touches.push((seg.0, record.page));
            f(RecordId { segment: seg, slot }, fields);
        }
        drop(guard);
        self.inner.stats.record_reads.fetch_add(touches.len() as u64, Ordering::Relaxed);
        self.replay_touches(self.stripe(seg), &touches);
        Ok(())
    }

    fn touch_page(&self, seg: SegmentId, page: u32) {
        self.replay_touches(self.stripe(seg), &[(seg.0, page)]);
    }

    /// Touch `pages` of one stripe's buffer pool in order, under one lock,
    /// and count the hits and misses.
    fn replay_touches(&self, stripe: &Stripe<P>, pages: &[PageKey]) {
        let mut pool = stripe.buffer.lock();
        let hits = pages.iter().filter(|key| pool.touch(**key)).count() as u64;
        drop(pool);
        let stats = &self.inner.stats;
        if hits > 0 {
            stats.page_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if hits < pages.len() as u64 {
            stats.page_misses.fetch_add(pages.len() as u64 - hits, Ordering::Relaxed);
        }
    }

    // ----- forking --------------------------------------------------------

    /// A **copy-free fork**: a new handle onto the *same* store contents
    /// (same `Arc`), with this handle's failpoint registry and telemetry
    /// attached. Nothing is copied, and a write through the fork is a write
    /// to the shared contents: the control plane's evolution fork writes
    /// nothing here, and a failed change just drops the handle.
    pub fn fork_shared(&self) -> Self {
        SliceStore {
            inner: Arc::clone(&self.inner),
            failpoints: self.failpoints.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Whether two handles share the same store contents (true for
    /// [`SliceStore::fork_shared`] pairs).
    pub fn shares_contents_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    // ----- garbage collection --------------------------------------------

    /// Prune version history unreachable from `watermark` (normally
    /// `store.clock().gc_watermark()`): superseded versions older than the
    /// watermark-visible one are dropped, and slots whose surviving chain
    /// is a single watermark-visible tombstone are recycled. Stripes are
    /// locked one at a time, so GC never stalls the whole store. Returns
    /// the number of version entries reclaimed and refreshes the
    /// `mvcc.gc_reclaimed` counter and `mvcc.versions` gauge.
    pub fn gc(&self, watermark: u64) -> u64 {
        let mut reclaimed = 0u64;
        for stripe in &self.inner.stripes {
            let mut guard = stripe.write_segments(&self.telemetry);
            for segment in guard.values_mut() {
                reclaimed += segment.gc(watermark);
            }
        }
        // Recompute the backlog authoritatively (the mutation paths only
        // ever add to the estimate).
        let backlog = self.version_backlog();
        self.inner.superseded.store(backlog, Ordering::Relaxed);
        self.telemetry.incr("mvcc.gc_reclaimed", reclaimed);
        self.telemetry.set_gauge("mvcc.versions", backlog);
        reclaimed
    }

    /// Superseded version entries currently awaiting GC (incrementally
    /// maintained estimate; exact right after a [`SliceStore::gc`]).
    pub fn superseded_versions(&self) -> u64 {
        self.inner.superseded.load(Ordering::Relaxed)
    }

    /// Bytes the records of every segment hold in memory, as `(chains,
    /// fields)` (see `Segment::resident_bytes`). A diagnostic: it walks
    /// every record.
    pub fn resident_bytes(&self) -> (usize, usize) {
        let mut total = (0, 0);
        for stripe in &self.inner.stripes {
            for segment in stripe.segments.read().values() {
                let (chains, fields) = segment.resident_bytes();
                total = (total.0 + chains, total.1 + fields);
            }
        }
        total
    }

    /// Count superseded version entries by scanning every segment.
    pub fn version_backlog(&self) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.segments.read().values().map(|seg| seg.version_backlog()).sum::<u64>())
            .sum()
    }

    // ----- stats ----------------------------------------------------------

    /// Snapshot of the access counters. Each counter is loaded atomically;
    /// the snapshot as a whole is coherent for a quiescent store and
    /// monotone under concurrent readers (every counter is add-only), so
    /// `&self` reads from parallel threads never observe values going
    /// backwards.
    pub fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }

    /// Zero all access counters (does not evict the buffer pools).
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    /// Every stripe's resident pages as `(segment, page)`, least recently
    /// used first: a probe for tests that compare two read paths' effect on
    /// the pools.
    #[doc(hidden)]
    pub fn resident_pages(&self) -> Vec<Vec<(u32, u32)>> {
        self.inner.stripes.iter().map(|s| s.buffer.lock().lru_order().collect()).collect()
    }

    /// Evict every stripe's buffer pool (cold-cache measurements).
    pub fn clear_buffer(&self) {
        for stripe in &self.inner.stripes {
            stripe.buffer.lock().clear();
        }
    }

    /// Total bytes used across all segments.
    pub fn total_bytes(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.segments.read().values().map(|seg| seg.pages.bytes_used()).sum::<usize>())
            .sum()
    }
}

/// Page touches a [`ReadCursor`] defers before it flushes them.
const TOUCH_BATCH: usize = 16;

/// A pass of field reads over a [`SliceStore`], at the epoch pinned when
/// the cursor was made.
///
/// The cursor holds at most one stripe's segment read guard, and takes a
/// new one only when a read lands on another stripe. It defers the reads'
/// page touches and record-read count, and flushes them when the stripe
/// changes, when its batch of pending touches is full, and when it drops: the
/// segment guard is released first, then the stripe's buffer pool is locked
/// once and the touches are replayed in the order they were made — the same
/// hits and misses, per stripe, as one `read_field` per record. A cursor
/// of one read allocates nothing.
///
/// While a guard is held, a writer on that stripe waits, so nothing may
/// write to the store between two reads of one cursor (and a thread must
/// not take a second cursor on a stripe it is reading: a recursive read can
/// deadlock behind a queued writer).
pub struct ReadCursor<'s, P: Payload> {
    store: &'s SliceStore<P>,
    epoch: Option<u64>,
    /// The stripe `guard` and the pending touches belong to.
    stripe: usize,
    guard: Option<RwLockReadGuard<'s, BTreeMap<u32, Segment<P>>>>,
    /// Deferred touches, one per read since the last flush.
    touches: [PageKey; TOUCH_BATCH],
    pending: usize,
}

impl<P: Payload> ReadCursor<'_, P> {
    /// The epoch the cursor reads at (`None` = latest).
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Read one field of a record (counts one record read and one page
    /// touch, both deferred).
    pub fn read_field(&mut self, rec: RecordId, idx: usize) -> StorageResult<P> {
        let store = self.store;
        let stripe = rec.segment.0 as usize % store.inner.stripes.len();
        if stripe != self.stripe || self.pending == TOUCH_BATCH {
            self.flush();
            self.stripe = stripe;
        }
        let guard = self.guard.get_or_insert_with(|| store.inner.stripes[stripe].segments.read());
        let segment = guard.get(&rec.segment.0).ok_or(StorageError::UnknownSegment(rec.segment.0))?;
        let (fields, page) = segment
            .record(rec.slot)
            .and_then(|r| r.fields_at(self.epoch).map(|f| (f, r.page)))
            .ok_or(StorageError::UnknownRecord { segment: rec.segment.0, slot: rec.slot })?;
        self.touches[self.pending] = (rec.segment.0, page);
        self.pending += 1;
        fields.get(idx).cloned().ok_or(StorageError::FieldOutOfBounds { index: idx, len: fields.len() })
    }

    /// Release the segment guard, then replay the pending touches into
    /// their stripe's buffer pool and publish the deferred counts.
    fn flush(&mut self) {
        self.guard = None;
        if self.pending == 0 {
            return;
        }
        let store = self.store;
        store.inner.stats.record_reads.fetch_add(self.pending as u64, Ordering::Relaxed);
        store.replay_touches(&store.inner.stripes[self.stripe], &self.touches[..self.pending]);
        self.pending = 0;
    }
}

impl<P: Payload> Drop for ReadCursor<'_, P> {
    fn drop(&mut self) {
        self.flush();
    }
}

// Snapshot support needs access to internals; see `snapshot.rs`.
impl<P: Payload> SliceStore<P> {
    /// Run `f` over the dense segment-slot view (index = segment id, `None`
    /// for dropped/never-created holes), with every stripe read-locked in
    /// canonical order for a consistent image.
    pub(crate) fn with_segment_slots<R>(&self, f: impl FnOnce(&[Option<&Segment<P>>]) -> R) -> R {
        let guards: Vec<_> = self.inner.stripes.iter().map(|s| s.segments.read()).collect();
        let n = self.inner.next_segment.load(Ordering::Acquire) as usize;
        let slots: Vec<Option<&Segment<P>>> =
            (0..n).map(|i| guards[i % guards.len()].get(&(i as u32))).collect();
        f(&slots)
    }

    pub(crate) fn rebuild(config: StoreConfig, segments: Vec<Option<Segment<P>>>) -> Self {
        let store = Self::new(config);
        store.inner.next_segment.store(segments.len() as u32, Ordering::Release);
        for (i, seg) in segments.into_iter().enumerate() {
            if let Some(seg) = seg {
                store.stripe(SegmentId(i as u32)).segments.write().insert(i as u32, seg);
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::ReadEpochGuard;
    use crate::payload::SimplePayload as SP;

    fn store() -> SliceStore<SP> {
        SliceStore::new(StoreConfig {
            page_size: 128,
            buffer_pages: 4,
            write_stripes: 4,
            ..StoreConfig::default()
        })
    }

    #[test]
    fn insert_read_write_field() {
        let st = store();
        let seg = st.create_segment("Person");
        let rec = st.insert(seg, vec![SP::Str("ann".into()), SP::Int(31)]).unwrap();
        assert_eq!(st.read_field(rec, 0).unwrap(), SP::Str("ann".into()));
        st.write_field(rec, 1, SP::Int(32)).unwrap();
        assert_eq!(st.read(rec).unwrap(), vec![SP::Str("ann".into()), SP::Int(32)]);
        assert_eq!(st.segment_len(seg).unwrap(), 1);
    }

    #[test]
    fn append_field_supports_dynamic_restructuring() {
        let st = store();
        let seg = st.create_segment("Student");
        let rec = st.insert(seg, vec![SP::Int(1)]).unwrap();
        let idx = st.append_field(rec, SP::Str("registered".into())).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(st.field_count(rec).unwrap(), 2);
        assert_eq!(st.read_field(rec, 1).unwrap(), SP::Str("registered".into()));
    }

    #[test]
    fn unknown_ids_error() {
        let st = store();
        let seg = st.create_segment("s");
        let rec = st.insert(seg, vec![SP::Int(1)]).unwrap();
        assert!(st.read(RecordId { segment: SegmentId(9), slot: 0 }).is_err());
        assert!(st.read(RecordId { segment: seg, slot: 99 }).is_err());
        assert!(st.read_field(rec, 5).is_err());
        st.free(rec).unwrap();
        assert!(st.read(rec).is_err(), "deleted at latest");
        assert!(st.free(rec).is_err(), "double free rejected");
        assert!(st.write_field(rec, 0, SP::Int(2)).is_err(), "write to deleted rejected");
    }

    #[test]
    fn scan_visits_all_live_records() {
        let st = store();
        let seg = st.create_segment("s");
        let a = st.insert(seg, vec![SP::Int(1)]).unwrap();
        st.insert(seg, vec![SP::Int(2)]).unwrap();
        st.insert(seg, vec![SP::Int(3)]).unwrap();
        st.free(a).unwrap();
        let mut seen = Vec::new();
        st.scan(seg, |_, fields| seen.push(fields[0].clone())).unwrap();
        assert_eq!(seen, vec![SP::Int(2), SP::Int(3)]);
    }

    #[test]
    fn clustered_scan_touches_few_pages() {
        let st = SliceStore::<SP>::new(StoreConfig {
            page_size: 4096,
            buffer_pages: 64,
            ..StoreConfig::default()
        });
        let seg = st.create_segment("clustered");
        for i in 0..200 {
            st.insert(seg, vec![SP::Int(i)]).unwrap();
        }
        st.reset_stats();
        st.clear_buffer();
        st.scan(seg, |_, _| {}).unwrap();
        let stats = st.stats();
        assert_eq!(stats.record_reads, 200);
        // 200 records * 25 bytes ≈ 5000 bytes → 2 pages → 2 misses.
        assert!(stats.page_misses <= 3, "expected ≤3 cold pages, got {}", stats.page_misses);
        assert!(stats.page_hits >= 190);
    }

    /// Every touch of every stripe's pool, in order, with its outcome.
    fn pool_logs(st: &SliceStore<SP>) -> Vec<Vec<(PageKey, bool)>> {
        st.inner.stripes.iter().map(|s| s.buffer.lock().log.clone()).collect()
    }

    /// Two identical stores: three segments over two stripes, records big
    /// enough that a segment spans several pages, a pool of two pages per
    /// stripe, and some records rewritten (one grown by a field), deleted
    /// or inserted after `pin` was taken.
    fn twin_store() -> (SliceStore<SP>, Vec<RecordId>, ReadPin) {
        let st = SliceStore::<SP>::new(StoreConfig {
            page_size: 128,
            buffer_pages: 2,
            write_stripes: 2,
            ..StoreConfig::default()
        });
        let segs: Vec<SegmentId> = (0..3).map(|i| st.create_segment(&format!("s{i}"))).collect();
        let mut recs = Vec::new();
        for i in 0..24 {
            let fields = vec![SP::Int(i), SP::Str(format!("record {i}"))];
            recs.push(st.insert(segs[i as usize % 3], fields).unwrap());
        }
        let pin = st.pin_read();
        st.write_field(recs[4], 0, SP::Int(-4)).unwrap();
        st.append_field(recs[5], SP::Int(55)).unwrap();
        st.free(recs[6]).unwrap();
        recs.push(st.insert(segs[1], vec![SP::Int(99)]).unwrap());
        recs.push(RecordId { segment: segs[2], slot: 77 });
        recs.push(RecordId { segment: SegmentId(9), slot: 0 });
        st.reset_stats();
        (st, recs, pin)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// Reads through cursors of any length return what one
        /// `read_field` per read returns, error for error, and leave the
        /// same record-read and page counts and the same hit/miss sequence
        /// in every stripe's pool — at the latest epoch and pinned.
        #[test]
        fn cursor_reads_match_one_read_field_per_read(
            passes in proptest::collection::vec(
                proptest::collection::vec((0usize..64, 0usize..3), 0..80), 1..6),
            pinned in proptest::prelude::any::<bool>(),
        ) {
            let (by_cursor, recs, pin) = twin_store();
            let (one_by_one, _, pin_twin) = twin_store();
            let _at = pinned.then(|| ReadEpochGuard::new(pin.epoch()));
            let _twin_pin = pin_twin;
            for pass in &passes {
                let mut cursor = by_cursor.cursor();
                for &(r, idx) in pass {
                    let rec = recs[r % recs.len()];
                    proptest::prop_assert_eq!(
                        cursor.read_field(rec, idx),
                        one_by_one.read_field(rec, idx),
                        "{:?} field {}", rec, idx
                    );
                }
            }
            proptest::prop_assert_eq!(by_cursor.stats(), one_by_one.stats());
            proptest::prop_assert_eq!(pool_logs(&by_cursor), pool_logs(&one_by_one));
        }
    }

    #[test]
    fn a_cursor_defers_its_touches_to_one_flush_per_stripe_run() {
        let (st, recs, _pin) = twin_store();
        let before = pool_logs(&st);
        let mut cursor = st.cursor();
        for rec in recs[12..24].iter().filter(|r| r.segment.0 % 2 == 0) {
            cursor.read_field(*rec, 0).unwrap();
        }
        assert_eq!(st.stats().record_reads, 0, "nothing published mid-run");
        assert_eq!(pool_logs(&st), before, "no page touched mid-run");
        drop(cursor);
        assert_eq!(st.stats().record_reads, 8);
        assert_eq!(st.stats().page_touches(), 8);
    }

    #[test]
    fn drop_segment_frees_and_invalidates() {
        let st = store();
        let seg = st.create_segment("s");
        let rec = st.insert(seg, vec![SP::Int(1)]).unwrap();
        st.drop_segment(seg).unwrap();
        assert!(st.read(rec).is_err());
        assert!(st.drop_segment(seg).is_err());
        // Ids are not recycled: a new segment gets a fresh id.
        let seg2 = st.create_segment("s2");
        assert_ne!(seg.0, seg2.0);
    }

    #[test]
    fn total_bytes_tracks_content() {
        let st = store();
        let seg = st.create_segment("s");
        assert_eq!(st.total_bytes(), 0);
        st.insert(seg, vec![SP::Int(1)]).unwrap();
        let b1 = st.total_bytes();
        assert!(b1 > 0);
        st.insert(seg, vec![SP::Str("hello".into())]).unwrap();
        assert!(st.total_bytes() > b1);
    }

    #[test]
    fn single_stripe_store_still_works() {
        let st = SliceStore::<SP>::new(StoreConfig {
            page_size: 128,
            buffer_pages: 4,
            write_stripes: 1,
            ..StoreConfig::default()
        });
        let a = st.create_segment("a");
        let b = st.create_segment("b");
        let ra = st.insert(a, vec![SP::Int(1)]).unwrap();
        let rb = st.insert(b, vec![SP::Int(2)]).unwrap();
        assert_eq!(st.read_field(ra, 0).unwrap(), SP::Int(1));
        assert_eq!(st.read_field(rb, 0).unwrap(), SP::Int(2));
    }

    #[test]
    fn zero_stripes_clamps_to_one() {
        let st = SliceStore::<SP>::new(StoreConfig {
            page_size: 128,
            buffer_pages: 4,
            write_stripes: 0,
            ..StoreConfig::default()
        });
        assert_eq!(st.stripe_count(), 1);
        let seg = st.create_segment("s");
        st.insert(seg, vec![SP::Int(1)]).unwrap();
    }

    #[test]
    fn concurrent_inserts_on_disjoint_segments_lose_nothing() {
        let st = std::sync::Arc::new(store());
        let segs: Vec<SegmentId> =
            (0..4).map(|i| st.create_segment(&format!("c{i}"))).collect();
        std::thread::scope(|scope| {
            for &seg in &segs {
                let st = std::sync::Arc::clone(&st);
                scope.spawn(move || {
                    for i in 0..500 {
                        st.insert(seg, vec![SP::Int(i)]).unwrap();
                    }
                });
            }
        });
        for &seg in &segs {
            assert_eq!(st.segment_len(seg).unwrap(), 500);
        }
        assert_eq!(st.stats().records_allocated, 2000);
    }

    #[test]
    fn pinned_epoch_reads_are_repeatable() {
        let st = store();
        let seg = st.create_segment("s");
        let rec = st.insert(seg, vec![SP::Int(1)]).unwrap();
        let victim = st.insert(seg, vec![SP::Int(2)]).unwrap();
        let pin = st.pin_read();
        st.write_field(rec, 0, SP::Int(99)).unwrap();
        st.free(victim).unwrap();
        let late = st.insert(seg, vec![SP::Int(3)]).unwrap();
        {
            let _g = ReadEpochGuard::new(pin.epoch());
            assert_eq!(st.read_field(rec, 0).unwrap(), SP::Int(1), "pre-write value");
            assert_eq!(st.read(victim).unwrap(), vec![SP::Int(2)], "deleted record still visible");
            assert!(st.read(late).is_err(), "post-pin insert invisible");
            let mut seen = Vec::new();
            st.scan(seg, |_, f| seen.push(f[0].clone())).unwrap();
            assert_eq!(seen, vec![SP::Int(1), SP::Int(2)]);
        }
        // Unpinned reads see the latest state.
        assert_eq!(st.read_field(rec, 0).unwrap(), SP::Int(99));
        assert!(st.read(victim).is_err());
        assert_eq!(st.read(late).unwrap(), vec![SP::Int(3)]);
    }

    #[test]
    fn write_tickets_make_batches_all_or_none_for_new_pins() {
        let st = store();
        let seg = st.create_segment("s");
        let a = st.insert(seg, vec![SP::Int(1)]).unwrap();
        let b = st.insert(seg, vec![SP::Int(2)]).unwrap();
        let ticket = st.clock().begin_write();
        {
            let _g = crate::mvcc::WriteStampGuard::new(ticket.stamp());
            st.write_field(a, 0, SP::Int(10)).unwrap();
            // A pin taken mid-batch sees *neither* write.
            let pin = st.pin_read();
            let _r = ReadEpochGuard::new(pin.epoch());
            assert_eq!(st.read_field(a, 0).unwrap(), SP::Int(1));
            drop(_r);
            st.write_field(b, 0, SP::Int(20)).unwrap();
        }
        ticket.end();
        let pin = st.pin_read();
        let _r = ReadEpochGuard::new(pin.epoch());
        assert_eq!(st.read_field(a, 0).unwrap(), SP::Int(10));
        assert_eq!(st.read_field(b, 0).unwrap(), SP::Int(20));
    }

    #[test]
    fn fork_shared_is_a_handle_onto_the_same_contents() {
        let st = store();
        let seg = st.create_segment("s");
        let rec = st.insert(seg, vec![SP::Int(1)]).unwrap();
        let fork = st.fork_shared();
        assert!(st.shares_contents_with(&fork));
        fork.write_field(rec, 0, SP::Int(2)).unwrap();
        assert_eq!(st.read_field(rec, 0).unwrap(), SP::Int(2), "mutation visible via original");
        assert!(!st.shares_contents_with(&store()));
    }

    #[test]
    fn gc_reclaims_superseded_versions_once_unpinned() {
        let st = store();
        let seg = st.create_segment("s");
        let rec = st.insert(seg, vec![SP::Int(0)]).unwrap();
        let pin = st.pin_read();
        for i in 1..=10 {
            st.write_field(rec, 0, SP::Int(i)).unwrap();
        }
        let victim = st.insert(seg, vec![SP::Int(100)]).unwrap();
        st.free(victim).unwrap();
        assert!(st.superseded_versions() >= 10);
        // The pin protects everything visible at its epoch.
        let early = st.gc(st.clock().gc_watermark());
        {
            let _g = ReadEpochGuard::new(pin.epoch());
            assert_eq!(st.read_field(rec, 0).unwrap(), SP::Int(0), "pinned view survives GC");
        }
        drop(pin);
        let late = st.gc(st.clock().gc_watermark());
        assert!(late > 0, "superseded versions reclaimed after unpin (early={early}, late={late})");
        assert_eq!(st.version_backlog(), 0);
        assert_eq!(st.read_field(rec, 0).unwrap(), SP::Int(10));
    }
}
