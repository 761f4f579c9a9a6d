//! Control-plane / data-plane split: a concurrently shareable TSE system
//! with **epoch-published cores**.
//!
//! The paper's promise is *transparency* — users keep working while the
//! schema evolves underneath them. A `RwLock<TseSystem>` breaks that
//! promise under load: every `evolve` holds the exclusive lock through all
//! four phases (translate / classify / view_regen / swap_in), so readers
//! stall for the whole evolution. [`SharedSystem`] restores it by splitting
//! the system into two planes:
//!
//! * **Data plane** — [`ReadSession`]s and [`WriteSession`]s pin the
//!   current epoch's immutable [`MetaSnapshot`], which owns the
//!   `Arc<TseSystem>` it was captured from (its *core*: schema, view
//!   schemas, update policy and a handle onto the one shared store). A read
//!   resolves names against its snapshot and reads records through the
//!   snapshot's core, taking no lock of this module. Writes
//!   (`create`/`set`/…) hold the swap latch shared and run through the
//!   newest core, with the record traffic sharded across the store's
//!   per-segment lock stripes — so write batches on different class
//!   segments proceed concurrently instead of serializing through the
//!   control mutex.
//! * **Control plane** — schema changes serialize through one mutex.
//!
//! **Structural changes.** Every change of the control plane — an evolve,
//! a class definition, a view creation, a constraint — runs one path,
//! **fork → apply → swap** ([`SharedSystem::logged`]): under the control
//! mutex and with writers quiesced by the swap latch, `fork_with` forks the
//! newest core ([`TseSystem::fork_shared`]: a handful of `Arc` clones and
//! the prover's move, whatever the data volume), opens one MVCC write
//! ticket and applies the change to the private fork (the evolve pipeline,
//! or [`apply_record`], the routine recovery redoes a frame with); readers
//! keep using the published cores meanwhile. `swap_in` then ends the
//! ticket, captures the fork as the next epoch and replaces the `meta`
//! pointer — the one exclusive section, timed as `evolve.exclusive_ns`.
//! A failed change drops its fork and publishes nothing: readers never
//! observe a torn epoch. The classifier's prover is the one part the fork
//! *takes* rather than shares: no reader touches it and changes are
//! serialized, so it moves into the fork and is published with it (a
//! failed fork drops it, and the next classification re-derives it).
//! [`SharedSystem::prover`] therefore waits for the control mutex.
//!
//! Epoch lifecycle: epoch *n*'s snapshot and core are immutable once
//! published (the object model mutates through `&self`, so the newest core
//! takes writes; no older one does). Sessions opened at epoch *n* keep
//! reading through core *n* after *n+1* is published, and core *n* lives as
//! long as one of them does. That is safe because TSE evolution is
//! capacity-augmenting — the global schema only ever grows, so class ids
//! resolved under an old epoch remain valid in every newer core, and every
//! core shares one store.
//!
//! **MVCC — repeatable reads.** Metadata pinning alone would leave record
//! reads at read-committed: a session would see whatever the store held at
//! each `get`. Every [`ReadSession`] therefore also holds a [`ReadPin`] on
//! the store's [`EpochClock`](tse_storage::EpochClock), which every core
//! shares: all of its `get`/`extent`/`select_where`/`invoke` calls resolve
//! record versions and object membership at the pinned epoch, for the
//! session's whole lifetime — true snapshot isolation for readers. Write batches ([`WriteSession`]
//! ops, structural changes) run under a `WriteTicket`, so a session opened
//! mid-batch observes none of it and one opened after observes all of it;
//! writers never block on readers, they just stamp new versions.
//! Superseded versions are reclaimed by [`SharedSystem::gc_now`] (or
//! opportunistically when sessions drop) once the oldest pin advances past
//! them (`mvcc.*` telemetry).
//!
//! Three rules keep every core's caches right:
//!
//! 1. **A read goes through its session's own core.** `ReadSession::read`
//!    derefs its snapshot and takes no lock and no `Arc` clone. The class
//!    ids its epoch resolved live in that core's schema by construction.
//! 2. **A write goes through the newest core.** A data write holds the
//!    latch shared and then `meta` shared for the op. A fork copies the
//!    oid allocator and the extent cache's mutation clocks by value, so a
//!    write through an older core would hand out oids the newer one
//!    already gave, and the newer core's clocks would miss it. GC,
//!    checkpoints, healing, `describe_view`, `prover` and `failpoints` use
//!    the newest core too.
//! 3. **A session pins while it holds `meta` shared** (open and
//!    `refresh`). A swap-in takes `meta` exclusive, so it falls wholly
//!    before the pin or wholly after the load; every write through core
//!    *n+1* begins after the swap, so none is visible to a session whose
//!    snapshot is epoch *n*. That is why core *n*'s extent cache and
//!    mutation clocks stay valid for every session pinned to it.
//!
//! Lock taxonomy (acquisition order, coarse → fine):
//! 1. `control` mutex — serializes schema changes and durability
//!    (`lock.control_wait_ns`).
//! 2. `latch` RwLock — the swap latch. Data writes hold it shared for the
//!    duration of one operation; fork → apply → swap and checkpoints hold
//!    it exclusive to quiesce writers (`lock.write_wait_ns` measures the
//!    data-plane wait on latch + meta).
//! 3. `meta` RwLock — the one pointer to current state. Shared for a
//!    pointer copy (session open, `refresh`, the control plane's newest
//!    core) and for a data write's op; exclusive only for the swap-in's
//!    pointer replace, which holds the latch exclusive and so never waits
//!    behind a write.
//! 4. store stripes — acquired inside the object model, per segment, in
//!    canonical index order for cross-stripe operations
//!    (`lock.stripe_wait_ns`, `stripe.conflicts`).
//!
//! Readers take none of them; data writers acquire `latch` before `meta`
//! and stripes last, so the order is acyclic and deadlock-free.
//!
//! Durability threads through **both** planes: [`SharedSystem::open`]
//! recovers from a snapshot + WAL directory, after which every mutation is
//! redo-logged as a typed frame ([`crate::walcodec`]) — no entry point
//! bypasses the log, and every frame of either plane goes through one
//! group-commit log. A structural change appends its frame and applies
//! its fork while the frame is flushed, and publishes only once the frame
//! is durable, holding the swap latch exclusive so a clean-failure
//! truncation can never clip a concurrent data frame; it commits the frame
//! after the swap publishes the new epoch, and truncates it when the change
//! fails cleanly. Data writes through a [`WriteSession`] apply under the
//! latch shared, then append their frame through the group-commit WAL
//! *while still holding the latch* (a checkpoint can therefore never land
//! between apply and append) and are acknowledged only once their batch is
//! fsync'd. The WAL mutex is the innermost lock of the whole system: it is
//! only ever taken after latch/meta/stripes, never before.
//!
//! When the WAL outgrows `StoreConfig::wal_autocheckpoint_bytes`, the next
//! mutation that can take the control plane exclusively runs a checkpoint
//! automatically (`durable.autocheckpoints` counts them).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use tse_algebra::UpdatePolicy;
use tse_object_model::{ClassId, Database, ModelError, ModelResult, Oid, Schema, Value};
use tse_storage::{
    FailpointRegistry, ReadEpochGuard, ReadPin, ScrubReport, StoreConfig, WriteStampGuard,
    WriteTicket,
};
use tse_telemetry::{OpHandle, Telemetry};
use tse_view::{ViewId, ViewManager, ViewSchema};

use crate::change::{parse_change, SchemaChange};
use crate::durable::{apply_record, note_fault, DurableState, LogHandle};
use crate::health::SystemHealth;
use crate::system::{EvolutionReport, TseSystem};
use crate::walcodec::{ViewMode, WalRecord};

/// One epoch: the core it was captured from (schema, views, policy and a
/// handle onto the shared store) and the view-local name tables resolved
/// against it. Published atomically by the control plane; never mutated
/// afterwards.
pub struct MetaSnapshot {
    epoch: u64,
    core: Arc<TseSystem>,
    /// View-local class names of this epoch, one table per view indexed by
    /// its (dense) id, each built the first time the view resolves a name;
    /// a resolve takes no lock. A local name is a view's rename or the
    /// class's global name, and `Schema::rename_class` can change the
    /// latter, so the tables belong to the epoch and not to the (immutable,
    /// epoch-spanning) `ViewSchema`.
    names: Box<[OnceLock<HashMap<String, ClassId>>]>,
}

impl MetaSnapshot {
    fn capture(epoch: u64, core: Arc<TseSystem>) -> Self {
        let names = (0..core.views().view_count()).map(|_| OnceLock::new()).collect();
        MetaSnapshot { epoch, core, names }
    }

    /// The epoch this snapshot was published at (1 = initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global schema as of this epoch.
    pub fn schema(&self) -> &Schema {
        self.core.db().schema()
    }

    /// The view registry as of this epoch.
    pub fn views(&self) -> &ViewManager {
        self.core.views()
    }

    /// The update-propagation policy as of this epoch.
    pub fn policy(&self) -> &UpdatePolicy {
        self.core.policy()
    }

    /// The current version of a view family as of this epoch.
    pub fn current_view(&self, family: &str) -> ModelResult<&ViewSchema> {
        self.views().current(family)
    }

    /// A specific registered view version.
    pub fn view(&self, id: ViewId) -> ModelResult<&ViewSchema> {
        self.views().view(id)
    }

    /// Resolve a view-local class name against this epoch's schema: one
    /// lookup in the view's name table. A name the table does not hold
    /// (or a table that cannot be built) goes through
    /// [`ViewSchema::lookup_in`], which owns the error cases.
    pub fn resolve(&self, view: ViewId, class_local: &str) -> ModelResult<ClassId> {
        let slot = self.names.get(view.0 as usize);
        if let Some(class) = slot.and_then(OnceLock::get).and_then(|t| t.get(class_local)) {
            return Ok(*class);
        }
        let schema = self.views().view(view)?;
        if let Some(slot) = slot.filter(|slot| slot.get().is_none()) {
            if let Ok(table) = self.name_table(schema) {
                let _ = slot.set(table);
            }
        }
        schema.lookup_in(self.schema(), class_local)
    }

    /// Every name `view` resolves, in [`ViewSchema::lookup_in`]'s order of
    /// precedence: renames first, then the global names of the classes the
    /// view does not rename; the first holder of a name keeps it.
    fn name_table(&self, view: &ViewSchema) -> ModelResult<HashMap<String, ClassId>> {
        let mut table = HashMap::with_capacity(view.classes.len());
        for (class, local) in &view.renames {
            table.entry(local.clone()).or_insert(*class);
        }
        for class in &view.classes {
            if !view.renames.contains_key(class) {
                table.entry(self.schema().class(*class)?.name.clone()).or_insert(*class);
            }
        }
        Ok(table)
    }
}

/// State owned by the control plane: the optional durable (WAL + snapshot)
/// backing. Guarded by the control mutex, so schema changes and WAL
/// appends are serialized as one unit.
struct ControlState {
    durable: Option<DurableState>,
}

struct SharedInner {
    control: Mutex<ControlState>,
    /// Swap latch: data writes hold it shared, fork → apply → swap and
    /// checkpoints hold it exclusive, so the control plane can quiesce
    /// writers wholesale while stripes separate writers from each other.
    latch: RwLock<()>,
    /// The published epoch, the one pointer to current state.
    meta: RwLock<Arc<MetaSnapshot>>,
    telemetry: Telemetry,
    /// The data-plane operations' metrics, resolved in `telemetry` once.
    ops: ops::Ops,
    /// The handle `control.durable` appends through, reachable without the
    /// control mutex: the data plane appends its frames, checks health
    /// before every write and asks whether a checkpoint is due through it.
    /// `None` on in-memory systems — they have no durable path to fault.
    log: Option<LogHandle>,
}

/// Refuse writes while degraded (see [`LogHandle::check_writable`]).
fn check_writable(inner: &SharedInner) -> ModelResult<()> {
    inner.log.as_ref().map_or(Ok(()), |log| log.check_writable(&inner.telemetry))
}

impl SharedInner {
    /// The newest epoch, for the control plane and GC (rule 2).
    fn current(&self) -> Arc<MetaSnapshot> {
        Arc::clone(&self.meta.read())
    }

    /// The newest epoch with an MVCC pin taken while `meta` is held, so no
    /// swap-in falls between the two (rule 3).
    fn pin_current(&self) -> (Arc<MetaSnapshot>, ReadPin) {
        let meta = self.meta.read();
        let pin = meta.core.db().store().clock().pin();
        (Arc::clone(&meta), pin)
    }

    /// One GC pass through the newest core.
    fn gc(&self) -> u64 {
        let current = self.current();
        let db = current.core.db();
        db.gc(db.store().clock().gc_watermark())
    }
}

/// A concurrently shareable TSE system: clone handles freely and use them
/// from any thread. Reads go through [`SharedSystem::session`]; writes and
/// schema changes serialize through the control plane. See the module docs
/// for the full concurrency model.
#[derive(Clone)]
pub struct SharedSystem {
    inner: Arc<SharedInner>,
}

/// A data-plane handle pinned to one epoch's [`MetaSnapshot`]. All methods
/// take `&self`; names resolve against the pinned snapshot and records are
/// read through its core, with no lock of the system taken. Sessions are
/// cheap — open one per thread, or one per batch of operations, and
/// [`ReadSession::refresh`] to observe a newer epoch.
pub struct ReadSession {
    inner: Arc<SharedInner>,
    meta: Arc<MetaSnapshot>,
    /// MVCC pin: every record/membership read of this session resolves at
    /// this epoch — repeatable reads across concurrent write batches and
    /// evolution swap-ins. `Option` only so `Drop` can release it before
    /// the post-drop bookkeeping; always `Some` while the session is live.
    pin: Option<ReadPin>,
    /// Trace id minted at open; every operation on this session runs under
    /// it, so all its journal records share one trace.
    trace: u64,
}

/// A data-plane **write** handle pinned to one epoch's [`MetaSnapshot`],
/// mirroring [`ReadSession`]. Names resolve against the pinned snapshot;
/// each mutation holds the swap latch shared and runs through the newest
/// core, with the record traffic sharded across the store's per-segment
/// lock stripes — concurrent `WriteSession`s on different class segments
/// do not serialize. Open one per writer thread (or batch)
/// via [`SharedSystem::writer`]; [`WriteSession::refresh`] re-pins to the
/// newest epoch after an evolution.
pub struct WriteSession {
    inner: Arc<SharedInner>,
    meta: Arc<MetaSnapshot>,
    /// Trace id minted at open; see [`ReadSession::trace`].
    trace: u64,
}

/// A changed fork waiting for its frame to be durable: what the change
/// returned, the changed core, and the write ticket its versions are
/// stamped under.
struct Forked<T> {
    out: T,
    system: TseSystem,
    ticket: WriteTicket,
}

impl Default for SharedSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedSystem {
    /// A fresh in-memory shared system with default storage configuration.
    pub fn new() -> Self {
        Self::from_system(TseSystem::new())
    }

    /// Wrap an existing single-threaded system (e.g. one built with the
    /// plain [`TseSystem`] API) for concurrent sharing. Publishes epoch 1.
    pub fn from_system(system: TseSystem) -> Self {
        Self::assemble(system, None)
    }

    /// Open (or create) a durable shared system in `dir`: recover the
    /// newest valid snapshot, redo the WAL tail, truncate any torn frame.
    /// From then on the control plane owns the WAL and **every** mutation —
    /// class definitions, view creations, constraints, schema changes
    /// through either evolve entry point, and data writes through
    /// [`WriteSession`]s — is write-ahead logged as a typed redo frame.
    /// `TseSystem::builder(dir).open()` is the same call with a
    /// non-default [`StoreConfig`].
    pub fn open(dir: &Path) -> ModelResult<SharedSystem> {
        Self::open_impl(dir, StoreConfig::default())
    }

    pub(crate) fn open_impl(dir: &Path, config: StoreConfig) -> ModelResult<SharedSystem> {
        let (system, state) = DurableState::open(dir, config)?;
        Ok(Self::assemble(system, Some(state)))
    }

    fn assemble(system: TseSystem, durable: Option<DurableState>) -> Self {
        let telemetry = system.telemetry().clone();
        let meta = Arc::new(MetaSnapshot::capture(1, Arc::new(system)));
        telemetry.set_gauge("epoch", 1);
        let log = durable.as_ref().map(|d| d.log().clone());
        let ops = ops::Ops::resolve(&telemetry);
        SharedSystem {
            inner: Arc::new(SharedInner {
                control: Mutex::new(ControlState { durable }),
                latch: RwLock::new(()),
                meta: RwLock::new(meta),
                telemetry,
                ops,
                log,
            }),
        }
    }

    /// Open a data-plane read session pinned to the current epoch — both
    /// the metadata snapshot *and* an MVCC read epoch on the store clock,
    /// so every read the session performs is repeatable for its lifetime.
    /// Mints a `read_session` trace id that stamps every journal record
    /// the session's operations emit.
    pub fn session(&self) -> ReadSession {
        let trace = self.inner.telemetry.mint_trace("read_session");
        let (meta, pin) = self.inner.pin_current();
        let pinned = meta.core.db().store().clock().pinned_epochs();
        self.inner.telemetry.set_gauge("mvcc.pinned_epochs", pinned as u64);
        ReadSession { inner: self.inner.clone(), meta, pin: Some(pin), trace }
    }

    /// Open a data-plane write session pinned to the current epoch.
    ///
    /// Mirrors [`SharedSystem::session`]: names resolve against the pinned
    /// snapshot, and each mutation runs through the newest core with the
    /// record traffic sharded across the store's per-segment lock stripes
    /// — so writers on different class segments proceed concurrently.
    /// Schema changes still quiesce all write sessions via the swap latch.
    pub fn writer(&self) -> WriteSession {
        let trace = self.inner.telemetry.mint_trace("write_session");
        WriteSession { inner: self.inner.clone(), meta: self.inner.current(), trace }
    }

    /// The current epoch (bumped by every published structural change).
    pub fn epoch(&self) -> u64 {
        self.inner.meta.read().epoch
    }

    /// The telemetry domain shared by every layer of this system.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.clone()
    }

    /// The shared fault-injection registry.
    pub fn failpoints(&self) -> FailpointRegistry {
        self.inner.current().core.failpoints().clone()
    }

    /// A copy of the live system's subsumption prover (diagnostics and the
    /// differential tests: it must equal a from-scratch saturation of the
    /// published schema). An evolve moves the prover into its fork, so this
    /// takes the control mutex and waits for a running evolve to swap it
    /// back instead of copying the empty slot it left.
    pub fn prover(&self) -> tse_classifier::Subsumption {
        let _ctl = self.lock_control();
        self.inner.current().core.prover().clone()
    }

    /// Number of write stripes of the live store (bench/topology sizing
    /// aid).
    pub fn store_stripes(&self) -> usize {
        self.inner.current().core.db().store().stripe_count()
    }

    /// Render a view (classes and local names) for humans — the client
    /// API's `describe`. Resolves against the newest core so any view
    /// version ever published can be rendered.
    pub fn describe_view(&self, view: ViewId) -> ModelResult<String> {
        let current = self.inner.current();
        Ok(current.core.view(view)?.render(current.core.db()))
    }

    /// The client backoff hint (milliseconds) carried in
    /// `Unavailable` backpressure, derived from the store's retry policy.
    /// Zero on in-memory systems (no durable path to degrade).
    pub fn backoff_hint_ms(&self) -> u64 {
        self.inner.log.as_ref().map_or(0, LogHandle::retry_after_ms)
    }

    /// Run one MVCC garbage-collection pass now: reclaim record versions,
    /// tombstoned slots, and dead object entries superseded below the
    /// clock's GC watermark (the oldest epoch any live or future
    /// [`ReadSession`] can observe). Returns the number of versions and
    /// entries reclaimed; `mvcc.gc_reclaimed` / `mvcc.versions` telemetry
    /// is updated as a side effect. Safe to call concurrently with readers
    /// and writers — GC only touches state no pin can reach.
    pub fn gc_now(&self) -> u64 {
        self.inner.gc()
    }

    // ----- lock plumbing ---------------------------------------------------

    fn lock_control(&self) -> parking_lot::MutexGuard<'_, ControlState> {
        let started = Instant::now();
        let guard = self.inner.control.lock();
        self.inner
            .telemetry
            .observe_ns("lock.control_wait_ns", (started.elapsed().as_nanos() as u64).max(1));
        guard
    }

    // ----- control plane: schema changes -----------------------------------

    /// Apply a schema change to a view family with **fork → apply → swap**:
    /// the whole Figure 6 pipeline (translate, classify, view regeneration)
    /// runs against a private fork while readers keep using the published
    /// cores; only the final pointer swap publishing the new epoch is
    /// exclusive, and `evolve.exclusive_ns` records exactly that window.
    /// On error the fork is dropped and no epoch is published.
    ///
    /// On a durable system the change is rendered back to command text
    /// ([`SchemaChange::render`], guaranteed to re-parse to an equal
    /// change) and write-ahead logged exactly like
    /// [`SharedSystem::evolve_cmd`] — structural durability holds from
    /// every entry point. A change whose names cannot be rendered is
    /// rejected before anything is logged or applied.
    pub fn evolve(&self, family: &str, change: &SchemaChange) -> ModelResult<EvolutionReport> {
        self.evolve_as(family, change, || change.render())
    }

    /// Parse and apply a textual schema-change command. On a durable
    /// system the command is appended to the WAL and fsync'd while the
    /// fork evolves, the swap publishes the new epoch only once the frame
    /// is durable, and a cleanly failed change truncates its frame — so
    /// the log never replays an epoch that was not published (simulated
    /// crashes keep the frame, to be decided by redo at the next open).
    pub fn evolve_cmd(&self, family: &str, command: &str) -> ModelResult<EvolutionReport> {
        let change = parse_change(command)?;
        self.evolve_as(family, &change, || Ok(command.to_string()))
    }

    /// Evolve under the write-ahead protocol; `command` is the text the
    /// WAL frame carries, asked for on durable systems only.
    fn evolve_as(
        &self,
        family: &str,
        change: &SchemaChange,
        command: impl FnOnce() -> ModelResult<String>,
    ) -> ModelResult<EvolutionReport> {
        let _trace = self.inner.telemetry.ensure_trace("evolve");
        let out = self.logged(
            || Ok(WalRecord::Evolve { family: family.to_string(), command: command()? }),
            |fork| fork.evolve_fork(family, change),
        );
        if out.is_ok() {
            maybe_autocheckpoint(&self.inner, None);
        }
        out
    }

    /// Every structural change, once: fork → apply → swap under the
    /// write-ahead protocol. Under the control mutex, with writers quiesced
    /// by the swap latch, append the change's frame and run `change` on a
    /// fork ([`SharedSystem::fork_with`]) while the frame is flushed; only
    /// once the frame is durable does [`SharedSystem::swap_in`] publish the
    /// fork. Commit the frame when the change succeeds, truncate it away
    /// when the change fails cleanly, and leave it to redo at the next open
    /// when the change crashed, poisoning the log so nothing is appended
    /// after it until then. When the flush itself fails, the fork is
    /// dropped unpublished and the flush's error returned. The latch is
    /// taken before the frame is logged so that the truncation can never
    /// clip a concurrent data frame. In-memory systems fork, apply and swap.
    fn logged<T>(
        &self,
        record: impl FnOnce() -> ModelResult<WalRecord>,
        change: impl FnOnce(&mut TseSystem) -> ModelResult<T>,
    ) -> ModelResult<T> {
        check_writable(&self.inner)?;
        let mut ctl = self.lock_control();
        let _latch = self.inner.latch.write();
        let prepare = || self.fork_with(change);
        let Some(durable) = ctl.durable.as_mut() else {
            return prepare().map(|forked| self.swap_in(forked));
        };
        let (mark, prepared) = durable.log_during(&self.inner.telemetry, &record()?, prepare)?;
        let out = prepared.map(|forked| self.swap_in(forked));
        match &out {
            Ok(_) => durable.log_commit(mark),
            Err(e) if is_crash(e) => durable.log_crash(&self.inner.telemetry, e),
            Err(_) => durable.log_abort(mark)?,
        }
        out
    }

    /// Run a change on a private fork of the newest core, publishing
    /// nothing. Caller holds the control mutex and the swap latch
    /// exclusively ([`SharedSystem::logged`]).
    fn fork_with<T>(
        &self,
        change: impl FnOnce(&mut TseSystem) -> ModelResult<T>,
    ) -> ModelResult<Forked<T>> {
        // Writers are quiesced for the whole fork→swap window: the swap
        // latch drains in-flight write batches (each holds it shared for
        // one operation), so the fork sees every batch completely or not
        // at all, and nothing written after the fork can be lost at swap.
        // Readers are unaffected — they never touch the latch.
        //
        // The fork is **copy-free**: it shares the store contents and
        // object map with every published core (MVCC version chains keep
        // pinned readers on their epoch), so its cost does not scale
        // with data volume, and it takes the newest core's prover (which
        // the control mutex we hold keeps from anyone else) instead of
        // copying it, so it does not scale with the schema. Everything the
        // change installs is stamped under one write ticket: no reader
        // can pin an epoch that sees a half-applied change. A change
        // adds capacity and moves no data, so a failed run leaves nothing
        // in the shared store: dropping the fork undoes it.
        let mut system = self.inner.current().core.fork_shared();
        let ticket = system.db().store().clock().begin_write();
        let out = {
            let _stamp = WriteStampGuard::new(ticket.stamp());
            change(&mut system)
        }
        .inspect_err(|e| note_fault(&self.inner.telemetry, e))?;
        // Nothing is warmed for the swap: the fork carries the newest
        // core's extent cache and its schema's fact cache, a new view
        // class derives its first extent from its source's entry, and the
        // classifier resolved the new classes' types on the way in.
        Ok(Forked { out, system, ticket })
    }

    /// Publish a changed fork: its versions, then the next epoch. Runs
    /// once the change's frame is durable.
    fn swap_in<T>(&self, forked: Forked<T>) -> T {
        let Forked { out, system, ticket } = forked;
        // Publish the change's versions before the epoch: sessions opened
        // after the swap must pin an epoch that already includes
        // everything the change installed. (A change is capacity-
        // augmenting, so a session pinning between here and the swap sees
        // the new record versions under the old core — harmless, the old
        // schema simply doesn't name the new capacity.)
        ticket.end();

        // Capture the next epoch *outside* the exclusive section, then
        // swap the one pointer.
        let epoch = self.inner.meta.read().epoch + 1;
        let next = Arc::new(MetaSnapshot::capture(epoch, Arc::new(system)));
        let mut meta = self.inner.meta.write();
        let exclusive = Instant::now();
        let old = std::mem::replace(&mut *meta, next);
        drop(meta);
        self.inner
            .telemetry
            .observe_ns("evolve.exclusive_ns", (exclusive.elapsed().as_nanos() as u64).max(1));
        self.inner.telemetry.set_gauge("epoch", epoch);
        // Drop the superseded epoch outside the exclusive section; its
        // core lives on while a session pinned to it does.
        drop(old);
        out
    }

    /// Write a new snapshot generation and empty the WAL (durable systems
    /// only) from the newest core. Readers keep running; data writers are
    /// quiesced via the swap latch so the object map and the record store
    /// are encoded as one consistent image.
    pub fn checkpoint(&self) -> ModelResult<u64> {
        let _trace = self.inner.telemetry.ensure_trace("checkpoint");
        let mut ctl = self.lock_control();
        let durable = ctl
            .durable
            .as_mut()
            .ok_or_else(|| ModelError::Invalid("checkpoint on a non-durable system".into()))?;
        let _latch = self.inner.latch.write();
        durable.checkpoint(&self.inner.current().core)
    }

    /// Current service health: `Healthy`, `Degraded` (read-only), or
    /// `Poisoned` (fail-stop). In-memory systems are always healthy — they
    /// have no durable path to fault.
    pub fn health(&self) -> SystemHealth {
        self.inner.log.as_ref().map_or(SystemHealth::Healthy, LogHandle::health)
    }

    /// Attempt to restore a `Degraded` system to `Healthy` without a
    /// restart: quiesce writers, rotate the WAL, run an emergency
    /// checkpoint (reclaiming log space), and verify the fresh log
    /// completes a durable round-trip append. No-op when already healthy;
    /// refused when poisoned (restart and recover from disk instead).
    pub fn try_heal(&self) -> ModelResult<SystemHealth> {
        let _trace = self.inner.telemetry.ensure_trace("heal");
        let mut ctl = self.lock_control();
        let durable = ctl
            .durable
            .as_mut()
            .ok_or_else(|| ModelError::Invalid("try_heal on a non-durable system".into()))?;
        let _latch = self.inner.latch.write();
        durable.try_heal(&self.inner.current().core)
    }

    /// Run one integrity scrub pass (durable systems only): re-verify every
    /// snapshot generation's CRC — renaming corrupt ones to `*.quarantine`
    /// so recovery never trusts them again — cross-check the MANIFEST, and
    /// scan the WAL up to its committed length. Reads and writes keep
    /// flowing: the scrub serializes only with the control plane (evolve /
    /// checkpoint), never with the data plane.
    pub fn scrub_now(&self) -> ModelResult<ScrubReport> {
        let _trace = self.inner.telemetry.ensure_trace("scrub");
        let ctl = self.lock_control();
        let durable = ctl
            .durable
            .as_ref()
            .ok_or_else(|| ModelError::Invalid("scrub on a non-durable system".into()))?;
        durable.scrub(&self.inner.telemetry)
    }

    /// Start a background scrubber thread running
    /// [`SharedSystem::scrub_now`] every `interval`. The returned handle
    /// stops and joins the thread when dropped (or explicitly via
    /// [`ScrubberHandle::stop`]).
    pub fn start_scrubber(&self, interval: Duration) -> ScrubberHandle {
        let sys = self.clone();
        let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stop_thread = stop.clone();
        let join = std::thread::Builder::new()
            .name("tse-scrubber".into())
            .spawn(move || loop {
                {
                    let (flag, cvar) = &*stop_thread;
                    let mut stopped = flag.lock().unwrap();
                    if !*stopped {
                        stopped = cvar.wait_timeout(stopped, interval).unwrap().0;
                    }
                    if *stopped {
                        return;
                    }
                }
                if sys.scrub_now().is_err() {
                    sys.inner.telemetry.incr("scrub.errors", 1);
                }
            })
            .expect("spawn scrubber thread");
        ScrubberHandle { stop, join: Some(join) }
    }

    /// Newest snapshot generation on disk (durable systems only).
    pub fn generation(&self) -> Option<u64> {
        self.lock_control().durable.as_ref().map(|d| d.generation())
    }

    /// Current WAL size in bytes (durable systems only).
    pub fn wal_len(&self) -> Option<u64> {
        self.lock_control().durable.as_ref().map(|d| d.wal_len())
    }

    // ----- control plane: base schema + views -------------------------------

    /// Log a structural record (class definition, view creation,
    /// constraint) and run it the evolve's way: [`apply_record`] on a fork
    /// — the routine recovery replays it with, so what a live call does and
    /// what a reopen redoes cannot drift — then the swap. `read` takes the
    /// caller's answer (the id the record created) from the changed fork.
    fn structural_logged<R>(
        &self,
        record: WalRecord,
        read: impl FnOnce(&TseSystem) -> ModelResult<R>,
    ) -> ModelResult<R> {
        let frame = record.clone();
        self.logged(move || Ok(frame), |fork| apply_record(fork, record).and_then(|_| read(fork)))
    }

    /// Define a base class (global-schema setup). Publishes a new epoch;
    /// on a durable system the definition is write-ahead logged as a
    /// `DefineClass` frame, so a fresh directory recovers its base schema
    /// from the WAL alone — no seed checkpoint required.
    pub fn define_base_class(
        &self,
        name: &str,
        supers: &[&str],
        props: Vec<tse_object_model::PendingProp>,
    ) -> ModelResult<ClassId> {
        let record = WalRecord::DefineClass {
            name: name.to_string(),
            supers: supers.iter().map(|s| s.to_string()).collect(),
            props,
        };
        self.structural_logged(record, |sys| sys.db().schema().by_name(name))
    }

    /// Log and apply a `CreateView` record; the new version is the family's
    /// current one.
    fn create_view_as(
        &self,
        family: &str,
        class_names: &[&str],
        mode: ViewMode,
    ) -> ModelResult<ViewId> {
        let record = WalRecord::CreateView {
            family: family.to_string(),
            classes: class_names.iter().map(|s| s.to_string()).collect(),
            mode,
        };
        self.structural_logged(record, |sys| sys.views().current(family).map(|v| v.id))
    }

    /// Create a view over the named global classes. Publishes a new epoch;
    /// WAL-logged on durable systems (see
    /// [`SharedSystem::define_base_class`]).
    pub fn create_view(&self, family: &str, class_names: &[&str]) -> ModelResult<ViewId> {
        self.create_view_as(family, class_names, ViewMode::Plain)
    }

    /// Create a type-closed view (see [`TseSystem::create_view_closed`]).
    /// Publishes a new epoch; WAL-logged on durable systems.
    pub fn create_view_closed(&self, family: &str, class_names: &[&str]) -> ModelResult<ViewId> {
        self.create_view_as(family, class_names, ViewMode::Closed)
    }

    /// Create a whole-schema view (see [`TseSystem::create_view_all`]).
    /// Publishes a new epoch; WAL-logged on durable systems.
    pub fn create_view_all(&self, family: &str) -> ModelResult<ViewId> {
        self.create_view_as(family, &[], ViewMode::All)
    }

    /// Attach or clear a class constraint through a view. Publishes a new
    /// epoch (constraints live in the schema readers resolve against);
    /// WAL-logged on durable systems.
    pub fn set_constraint(
        &self,
        view: ViewId,
        class_local: &str,
        expr: Option<&str>,
    ) -> ModelResult<()> {
        let record = WalRecord::SetConstraint {
            view,
            class_local: class_local.to_string(),
            expr: expr.map(str::to_string),
        };
        self.structural_logged(record, |_| Ok(()))
    }
}

/// The data-plane operations, with their `op.<name>` / `latency.<name>`
/// metrics resolved once per system (DESIGN.md §8). Each is observed at one
/// place: [`ReadSession`]'s read scaffold or [`WriteSession`]'s logged
/// write.
mod ops {
    use tse_telemetry::{op_name, OpHandle, Telemetry};

    pub(super) struct Ops {
        pub(super) create: OpHandle,
        pub(super) get: OpHandle,
        pub(super) set: OpHandle,
        pub(super) extent: OpHandle,
        pub(super) select_where: OpHandle,
        pub(super) update_where: OpHandle,
        pub(super) invoke: OpHandle,
        pub(super) add_to: OpHandle,
        pub(super) remove_from: OpHandle,
        pub(super) delete_objects: OpHandle,
    }

    impl Ops {
        pub(super) fn resolve(t: &Telemetry) -> Ops {
            Ops {
                create: t.op(&op_name!("create")),
                get: t.op(&op_name!("get")),
                set: t.op(&op_name!("set")),
                extent: t.op(&op_name!("extent")),
                select_where: t.op(&op_name!("select_where")),
                update_where: t.op(&op_name!("update_where")),
                invoke: t.op(&op_name!("invoke")),
                add_to: t.op(&op_name!("add_to")),
                remove_from: t.op(&op_name!("remove_from")),
                delete_objects: t.op(&op_name!("delete_objects")),
            }
        }
    }
}

/// Did the error originate from a simulated-crash failpoint?
pub(crate) fn is_crash(e: &ModelError) -> bool {
    matches!(e, ModelError::Storage(s) if s.is_crash())
}

/// The histogram of a data write's wait for the swap latch and `meta`: a
/// tracked wait, which every telemetry domain resolves when it is created,
/// so passing it to `finish_op` by name looks nothing up.
const WRITE_WAIT: &str = "lock.write_wait_ns";

/// Handle to a background integrity-scrubber thread started by
/// [`SharedSystem::start_scrubber`]. Dropping the handle stops and joins
/// the thread.
pub struct ScrubberHandle {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ScrubberHandle {
    /// Stop the scrubber and join its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (flag, cvar) = &*self.stop;
        *flag.lock().unwrap() = true;
        cvar.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ScrubberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Checkpoint opportunistically once the WAL outgrows the configured
/// threshold. Runs in whichever mutation path next finds the control plane
/// free — a busy control mutex means an evolve or checkpoint is already in
/// flight, so skipping is always safe (the next write re-checks).
/// `trigger` is the trace of a mutation that has already left its scope.
fn maybe_autocheckpoint(inner: &SharedInner, trigger: Option<u64>) {
    let Some(log) = &inner.log else { return };
    if !log.autocheckpoint_due() {
        return;
    }
    let Some(mut ctl) = inner.control.try_lock() else { return };
    let Some(durable) = ctl.durable.as_mut() else { return };
    // The checkpoint is its own causal unit: a fresh trace linked back to
    // the mutation that tripped the threshold via `follows_from`.
    let _trigger = trigger.map(|trace| inner.telemetry.enter_trace(trace));
    let _trace = inner.telemetry.new_trace("autocheckpoint");
    let _latch = inner.latch.write();
    if !log.autocheckpoint_due() {
        return; // someone checkpointed while we waited for the latch
    }
    // A failure was already counted where it surfaced, inside the
    // checkpoint; the next mutation tries again.
    if durable.checkpoint(&inner.current().core).is_ok() {
        inner.telemetry.incr("durable.autocheckpoints", 1);
    }
}

/// Clone a borrowed assignment slice into the owned pairs a WAL frame
/// carries.
fn own_pairs(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
    pairs.iter().map(|(n, v)| (n.to_string(), v.clone())).collect()
}

/// Superseded-version backlog above which a dropping [`ReadSession`] runs
/// an opportunistic GC pass (its pin may have been the watermark holder).
const GC_BACKLOG_THRESHOLD: u64 = 256;

impl ReadSession {
    /// The metadata snapshot this session is pinned to.
    pub fn meta(&self) -> &MetaSnapshot {
        &self.meta
    }

    /// The epoch this session is pinned to.
    pub fn epoch(&self) -> u64 {
        self.meta.epoch
    }

    /// The MVCC read epoch this session's record and membership reads
    /// resolve at (distinct from the metadata [`ReadSession::epoch`]: this
    /// one counts write batches, not schema publishes).
    pub fn pinned_epoch(&self) -> u64 {
        self.pin.as_ref().map(|p| p.epoch()).expect("pin held while session is live")
    }

    /// Re-pin to the latest published epoch — both the metadata snapshot
    /// and the MVCC read epoch advance; reads before and after `refresh`
    /// may observe different states.
    pub fn refresh(&mut self) {
        let (meta, pin) = self.inner.pin_current();
        self.pin = Some(pin);
        self.meta = meta;
    }

    /// Guard that routes every store/object-model read inside one session
    /// operation to the pinned epoch.
    fn epoch_guard(&self) -> ReadEpochGuard {
        ReadEpochGuard::new(self.pinned_epoch())
    }

    /// Run one data-plane read as the measured operation `op`, the way
    /// [`WriteSession`]'s logged write runs every mutation: in the session's
    /// trace, `class_local` resolved against the pinned snapshot, `read`
    /// at the pinned epoch through the snapshot's core, with no lock taken.
    /// The thread's telemetry context is visited twice: once to enter the
    /// trace, once to count the operation, record its latency and leave the
    /// trace — into the thread's own metric shard.
    fn read<R>(
        &self,
        op: OpHandle,
        view: ViewId,
        class_local: &str,
        read: impl FnOnce(&Database, ClassId) -> ModelResult<R>,
    ) -> ModelResult<R> {
        let scope = self.inner.telemetry.enter_trace(self.trace);
        let started = Instant::now();
        let class = self.meta.resolve(view, class_local)?;
        let _epoch = self.epoch_guard();
        let out = read(self.meta.core.db(), class);
        let dur_ns = started.elapsed().as_nanos() as u64;
        self.inner.telemetry.finish_op(scope, &op, dur_ns, None);
        out
    }

    /// The current version of a view family, as of this session's epoch.
    pub fn current_view(&self, family: &str) -> ModelResult<&ViewSchema> {
        self.meta.current_view(family)
    }

    /// A specific registered view version, as of this session's epoch.
    pub fn view(&self, id: ViewId) -> ModelResult<&ViewSchema> {
        self.meta.view(id)
    }

    /// Read an attribute through a view class.
    pub fn get(&self, view: ViewId, oid: Oid, class_local: &str, attr: &str) -> ModelResult<Value> {
        self.read(self.inner.ops.get, view, class_local, |db, class| db.read_attr(oid, class, attr))
    }

    /// The extent of a view class.
    pub fn extent(&self, view: ViewId, class_local: &str) -> ModelResult<Vec<Oid>> {
        self.read(self.inner.ops.extent, view, class_local, |db, class| {
            Ok(db.extent(class)?.iter().copied().collect())
        })
    }

    /// [`ReadSession::extent`] through `Database::extent_uncached`: the
    /// reference the extent cache is tested against.
    #[doc(hidden)]
    pub fn extent_uncached(&self, view: ViewId, class_local: &str) -> ModelResult<Vec<Oid>> {
        let class = self.meta.resolve(view, class_local)?;
        let _epoch = self.epoch_guard();
        Ok(self.meta.core.db().extent_uncached(class)?.into_iter().collect())
    }

    /// `select from <Class> where <expr>` over a view class.
    pub fn select_where(
        &self,
        view: ViewId,
        class_local: &str,
        expr: &str,
    ) -> ModelResult<Vec<Oid>> {
        self.read(self.inner.ops.select_where, view, class_local, |db, class| {
            let pred = tse_object_model::Predicate::Expr(crate::change::parse_expr(expr)?);
            tse_algebra::select_objects(db, class, pred)
        })
    }

    /// Invoke a property with dynamic dispatch through a view class.
    pub fn invoke(&self, view: ViewId, oid: Oid, class_local: &str, name: &str) -> ModelResult<Value> {
        self.read(self.inner.ops.invoke, view, class_local, |db, class| db.invoke(oid, class, name))
    }

    /// Cumulative storage access counters of the store every core shares
    /// (what the benchmark harness reports: record reads/writes, page
    /// hits/misses).
    pub fn stats(&self) -> tse_storage::StoreStats {
        self.meta.core.db().store_stats()
    }

    /// Total bytes used across all segments of the store every core shares.
    pub fn store_bytes(&self) -> usize {
        self.meta.core.db().store().total_bytes()
    }
}

impl Drop for ReadSession {
    fn drop(&mut self) {
        drop(self.pin.take());
        let store = self.meta.core.db().store();
        self.inner.telemetry.set_gauge("mvcc.pinned_epochs", store.clock().pinned_epochs() as u64);
        // Opportunistic GC: if this was the oldest pin and enough
        // superseded versions have piled up in the shared store, reclaim
        // them now, through the newest core.
        if store.superseded_versions() > GC_BACKLOG_THRESHOLD {
            self.inner.gc();
        }
    }
}

impl WriteSession {
    /// The metadata snapshot this session is pinned to.
    pub fn meta(&self) -> &MetaSnapshot {
        &self.meta
    }

    /// The epoch this session is pinned to.
    pub fn epoch(&self) -> u64 {
        self.meta.epoch
    }

    /// Re-pin to the latest published epoch.
    pub fn refresh(&mut self) {
        self.meta = self.inner.current();
    }

    /// Run one data-plane mutation as the measured operation `name`: swap
    /// latch shared (so fork → apply → swap can quiesce writers), then
    /// `meta` shared, through the newest core (rule 2; the store's
    /// per-segment stripes provide the fine-grained exclusion). No epoch is
    /// published — data writes touch records, not the metadata readers
    /// resolve against.
    ///
    /// On a durable system the mutation's effect frame (built by `record`
    /// from the operation's result) is appended through the group-commit WAL
    /// and the call returns only once the frame's batch is fsync'd. The
    /// append happens **while still holding the latch shared**: a checkpoint
    /// (latch exclusive) can therefore never land between apply and append,
    /// so a snapshot either contains the op or the op's frame survives in
    /// the WAL — never neither. Apply-then-log means a crash between the two
    /// loses only the *unacked* op: every acked write's frame is durable.
    /// That is all that holds today. Replay re-runs the logical op, so a
    /// state-dependent op (a constraint check) can decide differently at
    /// recovery and an acked write can be lost (ROADMAP items 0 and 18).
    ///
    /// A failpoint that fired under `op` is counted in `fault.*` here, for
    /// every operation alike; one that fired under the append is counted by
    /// [`LogHandle::append`], like any frame's.
    ///
    /// Like [`ReadSession`]'s reads, a write visits the thread's telemetry
    /// context twice (enter the trace; record the op and its wait for the
    /// locks, and leave), taking no telemetry lock.
    fn with_data_logged<R>(
        &self,
        name: OpHandle,
        op: impl FnOnce(&TseSystem) -> ModelResult<R>,
        record: impl FnOnce(&R) -> WalRecord,
    ) -> ModelResult<R> {
        let inner = &*self.inner;
        let scope = inner.telemetry.enter_trace(self.trace);
        let started = Instant::now();
        let mut waited = None;
        let out = (|| {
            // Backpressure comes first: while read-only or poisoned, the
            // mutation must not even apply in memory (it could never be
            // made durable).
            check_writable(inner)?;
            let _latch = inner.latch.read();
            let meta = inner.meta.read();
            let sys = &*meta.core;
            waited = Some((WRITE_WAIT, (started.elapsed().as_nanos() as u64).max(1)));
            // One MVCC write ticket per operation: every version the op
            // installs carries the ticket's stamp, and the stable frontier
            // stays below it until this closure returns — a ReadSession
            // opened mid-operation pins an epoch that sees all of the batch
            // or none of it. The ticket outlives the WAL append, so a batch
            // becomes visible only once acked.
            let ticket = sys.db().store().clock().begin_write();
            let out = {
                let _stamp = WriteStampGuard::new(ticket.stamp());
                op(sys)
            }
            .inspect_err(|e| note_fault(&inner.telemetry, e))?;
            if let Some(log) = &inner.log {
                log.append(&inner.telemetry, &record(&out))?;
            }
            Ok(out)
        })();
        let dur_ns = started.elapsed().as_nanos() as u64;
        inner.telemetry.finish_op(scope, &name, dur_ns, waited);
        maybe_autocheckpoint(inner, Some(self.trace));
        out
    }

    /// Create an object through a view class. On a durable system the
    /// effect is redo-logged with the *assigned* oid, so recovery reissues
    /// exactly it.
    pub fn create(
        &self,
        view: ViewId,
        class_local: &str,
        values: &[(&str, Value)],
    ) -> ModelResult<Oid> {
        let class = self.meta.resolve(view, class_local)?;
        let policy = self.meta.policy();
        self.with_data_logged(
            self.inner.ops.create,
            |sys| tse_algebra::create(sys.db(), policy, class, values),
            |oid| WalRecord::Create { class, oid: *oid, values: own_pairs(values) },
        )
    }

    /// Set attributes through a view class.
    pub fn set(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        assignments: &[(&str, Value)],
    ) -> ModelResult<()> {
        let class = self.meta.resolve(view, class_local)?;
        let policy = self.meta.policy();
        self.with_data_logged(
            self.inner.ops.set,
            |sys| tse_algebra::set(sys.db(), policy, &[oid], class, assignments),
            |_| WalRecord::Set {
                class,
                oids: vec![oid],
                assignments: own_pairs(assignments),
                from_update_where: false,
            },
        )
    }

    /// `( select from <Class> where <expr> ) set [assignments]` — the
    /// query-then-update pipeline of §3.3, as one latched operation. The
    /// redo frame carries the **resolved** oid set, not the predicate:
    /// re-evaluating the predicate against a half-replayed store could
    /// match a different set.
    pub fn update_where(
        &self,
        view: ViewId,
        class_local: &str,
        expr: &str,
        assignments: &[(&str, Value)],
    ) -> ModelResult<usize> {
        let class = self.meta.resolve(view, class_local)?;
        let body = crate::change::parse_expr(expr)?;
        let pred = tse_object_model::Predicate::Expr(body);
        let policy = self.meta.policy();
        self.with_data_logged(
            self.inner.ops.update_where,
            |sys| -> ModelResult<Vec<Oid>> {
                let oids = tse_algebra::select_objects(sys.db(), class, pred)?;
                tse_algebra::set(sys.db(), policy, &oids, class, assignments)?;
                Ok(oids)
            },
            |oids| WalRecord::Set {
                class,
                oids: oids.clone(),
                assignments: own_pairs(assignments),
                from_update_where: true,
            },
        )
        .map(|oids| oids.len())
    }

    /// Add existing objects to a view class.
    pub fn add_to(&self, view: ViewId, oids: &[Oid], class_local: &str) -> ModelResult<()> {
        let class = self.meta.resolve(view, class_local)?;
        let policy = self.meta.policy();
        self.with_data_logged(
            self.inner.ops.add_to,
            |sys| tse_algebra::add(sys.db(), policy, oids, class),
            |_| WalRecord::AddTo { class, oids: oids.to_vec() },
        )
    }

    /// Remove objects from a view class.
    pub fn remove_from(&self, view: ViewId, oids: &[Oid], class_local: &str) -> ModelResult<()> {
        let class = self.meta.resolve(view, class_local)?;
        let policy = self.meta.policy();
        self.with_data_logged(
            self.inner.ops.remove_from,
            |sys| tse_algebra::remove(sys.db(), policy, oids, class),
            |_| WalRecord::RemoveFrom { class, oids: oids.to_vec() },
        )
    }

    /// Destroy objects. Slices may span several class segments; the store
    /// frees them stripe by stripe (each acquisition is per-segment), so a
    /// cross-segment delete cannot deadlock against a same-stripe writer.
    pub fn delete_objects(&self, oids: &[Oid]) -> ModelResult<()> {
        self.with_data_logged(
            self.inner.ops.delete_objects,
            |sys| tse_algebra::delete(sys.db(), oids),
            |_| WalRecord::Delete { oids: oids.to_vec() },
        )
    }
}

// The whole point: handles and sessions cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedSystem>();
    assert_send_sync::<ReadSession>();
    assert_send_sync::<WriteSession>();
    assert_send_sync::<MetaSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-view name table answers exactly as `ViewSchema::lookup_in`
    /// does, belongs to the epoch it was built in, and follows a global
    /// `rename_class` into the next epoch.
    #[test]
    fn the_name_table_follows_rename_class_into_the_next_epoch() {
        let mut tse = TseSystem::new();
        let person = tse.define_base_class("Person", &[], vec![]).unwrap();
        let student = tse.define_base_class("Student", &["Person"], vec![]).unwrap();
        tse.create_view("VS", &["Person", "Student"]).unwrap();
        // A view-local rename: the new version shows `Student` as `Pupil`.
        tse.evolve("VS", &parse_change("rename_class Student to Pupil").unwrap()).unwrap();

        let same_as_lookup = |meta: &MetaSnapshot| {
            for view in meta.views().versions("VS").unwrap() {
                let schema = meta.view(*view).unwrap();
                for name in ["Person", "Student", "Pupil", "Human", "Nobody"] {
                    let scanned = schema.lookup_in(meta.schema(), name);
                    // Twice: the first call builds the table, the second hits it.
                    assert_eq!(meta.resolve(*view, name), scanned, "{name} in {view}");
                    assert_eq!(meta.resolve(*view, name), scanned, "{name} in {view}");
                }
            }
        };
        let before = MetaSnapshot::capture(1, Arc::new(tse.fork_shared()));
        same_as_lookup(&before);
        let versions = before.views().versions("VS").unwrap().to_vec();
        let (v1, v2) = (versions[0], versions[1]);
        assert_eq!(before.resolve(v1, "Student"), Ok(student));
        assert_eq!(before.resolve(v2, "Pupil"), Ok(student));
        assert!(before.resolve(v2, "Student").is_err(), "the rename masks the global name");

        tse.db_mut().schema_mut().rename_class(person, "Human").unwrap();
        let after = MetaSnapshot::capture(2, Arc::new(tse));
        same_as_lookup(&after);
        assert_eq!(after.resolve(v1, "Human"), Ok(person));
        assert!(after.resolve(v1, "Person").is_err());
        // The older epoch keeps the names it was published with.
        assert_eq!(before.resolve(v1, "Person"), Ok(person));
        assert!(before.resolve(v1, "Human").is_err());
    }
}
