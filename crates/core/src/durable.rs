//! Crash-safe persistence: the on-disk half of a [`crate::SharedSystem`]
//! opened on a directory — checksummed snapshot generations, a `MANIFEST`
//! pointer, and a write-ahead log of **typed redo records** for every
//! mutation.
//!
//! Every frame — structural, data, the checkpoint marker and the heal
//! probe — is appended through one [`LogHandle`]: the group-commit WAL
//! retries transient faults, and an error that survives its retries drives
//! the health machine and the `fault.*` counters in one place.
//!
//! The durability protocol is write-ahead logical redo:
//!
//! 1. Structural changes (class definitions, view creations, constraints,
//!    and both evolve entry points of [`crate::SharedSystem`]) append their
//!    frame and wait for its fsync **before** publishing the change; an
//!    evolve runs its fork while the frame is flushed. They hold the swap
//!    latch exclusive, so their group of one has no data frame to share
//!    its fsync with.
//! 2. Data-plane writes through [`crate::WriteSession`] append effect
//!    frames (`Create` with the assigned oid, `Set`, `UpdateWhere` with the
//!    resolved oid set, …) after applying, and are acknowledged only once
//!    the frame's group-commit batch is on disk.
//! 3. A change that fails cleanly is dropped with the fork it ran on, and
//!    its WAL frame is truncated away — it never replays.
//! 4. A crash mid-apply leaves the frame in the log and poisons the log,
//!    so no data frame or later change lands after a change the live
//!    system never applied; the next [`crate::SharedSystem::open`] redoes
//!    it against the last snapshot (logical redo).
//! 5. [`crate::SharedSystem::checkpoint`] appends a
//!    [`WalRecord::Checkpoint`] marker, writes a new snapshot generation
//!    crash-atomically, repoints the manifest, and empties the WAL. When
//!    the WAL outgrows `StoreConfig::wal_autocheckpoint_bytes`, the control
//!    plane runs the same routine automatically.
//!
//! Recovery reads the manifest for the newest generation, falls back to
//! older generations when a snapshot fails its CRC, replays the WAL tail,
//! and truncates any torn final frame. A frame that does not decode, or
//! whose change no longer applies, is counted in `recovery.skipped` and
//! left behind. Every outcome is surfaced through the `recovery.*`
//! telemetry counters and a `recovery.complete` journal event.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, Bytes};
use tse_object_model::{ModelError, ModelResult, Value};
use tse_storage::durable::{self, GroupWal, Wal, WalFrame};
use tse_storage::{
    scrub_dir, with_retries, FailpointRegistry, RetryPolicy, ScrubReport, StorageError,
    StoreConfig,
};
use tse_telemetry::Telemetry;

use crate::health::{observe_io_error, HealthMachine, SystemHealth};
use crate::system::TseSystem;
use crate::walcodec::{decode_frame, encode_frame, ViewMode, WalRecord};

fn corrupt(msg: &str) -> ModelError {
    StorageError::Corrupt(msg.to_string()).into()
}

/// Surface a fired failpoint in the `fault.*` counters and the journal, so
/// the observability layer sees every injected fault.
pub(crate) fn note_fault(telemetry: &Telemetry, e: &ModelError) {
    let (site, kind) = match e {
        ModelError::Storage(StorageError::Injected(site)) => (site, "error"),
        ModelError::Storage(StorageError::SimulatedCrash(site)) => (site, "crash"),
        _ => return,
    };
    telemetry.incr("fault.injected", 1);
    if kind == "crash" {
        telemetry.incr("fault.crashes", 1);
    }
    telemetry.event("fault.fired", &[("site", site.as_str().into()), ("kind", kind.into())]);
}

/// An injected fault on the durable path: count it in `fault.*`.
fn noted(telemetry: &Telemetry, e: StorageError) -> ModelError {
    let e = e.into();
    note_fault(telemetry, &e);
    e
}

/// The one way a [`WalRecord`] reaches the log, shared by the control plane
/// ([`DurableState`]) and the data plane ([`crate::WriteSession`]): the
/// group-commit WAL, the health machine its faults drive, and the knobs the
/// store config derives for both. Clones share the log and the machine.
#[derive(Clone)]
pub(crate) struct LogHandle {
    wal: GroupWal,
    health: Arc<HealthMachine>,
    /// Pre-ack retry policy: the WAL's appends retry inside [`GroupWal`],
    /// snapshot and manifest writes in [`DurableState::checkpoint`].
    retry: RetryPolicy,
    /// WAL size that triggers an automatic checkpoint (0 = disabled).
    autocheckpoint_bytes: u64,
}

impl LogHandle {
    /// Append `record` and return its LSN once its group-commit batch is
    /// on disk. Transient faults are retried (and counted in
    /// `fault.retries`) inside [`GroupWal`]; an error that still comes back
    /// has spent its retries and is surfaced here, once, whichever plane
    /// appended.
    pub(crate) fn append(&self, telemetry: &Telemetry, record: &WalRecord) -> ModelResult<u64> {
        self.wal.append(&encode_frame(record)).map_err(|e| self.surfaced(telemetry, e))
    }

    /// [`LogHandle::append`], running `work` on the calling thread while
    /// the frame is fsynced ([`GroupWal::append_overlapped`]).
    pub(crate) fn append_during<R>(
        &self,
        telemetry: &Telemetry,
        record: &WalRecord,
        work: impl FnOnce() -> R,
    ) -> ModelResult<(u64, R)> {
        self.wal
            .append_overlapped(&encode_frame(record), work)
            .map_err(|e| self.surfaced(telemetry, e))
    }

    /// A durable-path write that failed with its retries spent: advance the
    /// health machine (see `crate::health::observe_io_error` for the rules)
    /// and count an injected fault in `fault.*`.
    fn surfaced(&self, telemetry: &Telemetry, e: StorageError) -> ModelError {
        observe_io_error(&self.health, self.wal.is_poisoned(), telemetry, &e);
        noted(telemetry, e)
    }

    /// Current service health.
    pub(crate) fn health(&self) -> SystemHealth {
        self.health.current()
    }

    /// Refuse writes while degraded: reads keep serving from the published
    /// snapshot, writers get typed backpressure instead of a permanent
    /// failure. A *poisoned* log refuses the write here too, before it
    /// applies, with the WAL's own fail-stop error — the better diagnostic,
    /// surfaced verbatim — so the live system never holds a write the log
    /// turned away.
    pub(crate) fn check_writable(&self, telemetry: &Telemetry) -> ModelResult<()> {
        match self.health.current() {
            SystemHealth::Healthy => Ok(()),
            SystemHealth::Degraded { reason } => {
                telemetry.incr("health.rejected_writes", 1);
                Err(ModelError::Unavailable {
                    reason: reason.name().to_string(),
                    retry_after_ms: self.retry_after_ms(),
                })
            }
            SystemHealth::Poisoned => Ok(self.wal.refuse_if_poisoned()?),
        }
    }

    /// The client backoff hint carried in `Unavailable`: the retry policy's
    /// backoff ceiling, at least 1 ms.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        (self.retry.max_backoff_ns / 1_000_000).max(1)
    }

    /// True once the WAL has outgrown the auto-checkpoint threshold.
    pub(crate) fn autocheckpoint_due(&self) -> bool {
        self.autocheckpoint_bytes > 0 && self.wal.len() >= self.autocheckpoint_bytes
    }
}

/// The on-disk half of a durable system: directory, the [`LogHandle`],
/// snapshot generation bookkeeping, and the shared failpoint registry. The
/// [`crate::SharedSystem`] control plane threads the write-ahead protocol
/// around its fork–evolve–swap pipeline with it (and hands a clone of the
/// [`LogHandle`] to its data plane).
pub(crate) struct DurableState {
    dir: PathBuf,
    log: LogHandle,
    /// Newest snapshot generation on disk (0 = none yet).
    generation: u64,
    /// Highest WAL LSN whose change is applied in memory — the LSN the
    /// next snapshot covers. Data frames are folded in at checkpoint time
    /// (writers are quiesced, so the log head covers them all).
    last_lsn: u64,
    failpoints: FailpointRegistry,
}

/// Position of an in-flight WAL frame: its LSN plus the log length from
/// before the append, so an abort can truncate the frame away.
pub(crate) struct WalMark {
    lsn: u64,
    len_before: u64,
}

/// Apply one WAL record to `system`: how recovery redoes every frame, and
/// how [`crate::SharedSystem`] applies a structural change live (one routine,
/// so a live call and its replay cannot differ). `Create` frames force the
/// allocator to reissue the originally assigned oid, so replay reproduces
/// the acked state bit-for-bit. `Ok(false)` is a checkpoint marker.
pub(crate) fn apply_record(system: &mut TseSystem, record: WalRecord) -> ModelResult<bool> {
    fn own(pairs: &[(String, Value)]) -> Vec<(&str, Value)> {
        pairs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect()
    }
    match record {
        WalRecord::Evolve { family, command } => {
            system.evolve_cmd(&family, &command)?;
        }
        WalRecord::Create { class, oid, values } => {
            system.db().set_next_oid(oid.0);
            let got = tse_algebra::create(system.db(), system.policy(), class, &own(&values))?;
            if got != oid {
                return Err(corrupt(&format!(
                    "replayed create assigned oid {} but the log recorded {}",
                    got.0, oid.0
                )));
            }
        }
        WalRecord::Set { class, oids, assignments, .. } => {
            tse_algebra::set(system.db(), system.policy(), &oids, class, &own(&assignments))?;
        }
        WalRecord::AddTo { class, oids } => {
            tse_algebra::add(system.db(), system.policy(), &oids, class)?;
        }
        WalRecord::RemoveFrom { class, oids } => {
            tse_algebra::remove(system.db(), system.policy(), &oids, class)?;
        }
        WalRecord::Delete { oids } => {
            tse_algebra::delete(system.db(), &oids)?;
        }
        WalRecord::Checkpoint => return Ok(false), // marker of an interrupted checkpoint
        WalRecord::DefineClass { name, supers, props } => {
            let supers: Vec<&str> = supers.iter().map(|s| s.as_str()).collect();
            system.define_base_class(&name, &supers, props)?;
        }
        WalRecord::CreateView { family, classes, mode } => {
            let classes: Vec<&str> = classes.iter().map(|s| s.as_str()).collect();
            match mode {
                ViewMode::Plain => system.create_view(&family, &classes)?,
                ViewMode::Closed => system.create_view_closed(&family, &classes)?,
                ViewMode::All => system.create_view_all(&family)?,
            };
        }
        WalRecord::SetConstraint { view, class_local, expr } => {
            system.set_constraint(view, &class_local, expr.as_deref())?;
        }
    }
    Ok(true)
}

/// Highest oid a record references (0 when it references none) — recovery
/// raises the allocator past it so fresh oids never collide with replayed
/// ones, whatever order the frames interleaved in.
fn max_oid(record: &WalRecord) -> u64 {
    match record {
        WalRecord::Create { oid, .. } => oid.0,
        WalRecord::Set { oids, .. }
        | WalRecord::AddTo { oids, .. }
        | WalRecord::RemoveFrom { oids, .. }
        | WalRecord::Delete { oids } => oids.iter().map(|o| o.0).max().unwrap_or(0),
        WalRecord::Evolve { .. }
        | WalRecord::Checkpoint
        | WalRecord::DefineClass { .. }
        | WalRecord::CreateView { .. }
        | WalRecord::SetConstraint { .. } => 0,
    }
}

impl DurableState {
    /// Open (or create) a durable directory: recover the newest valid
    /// snapshot, replay the WAL tail, truncate any torn frame. Returns the
    /// recovered system alongside the on-disk state. A fresh directory gets
    /// no seed snapshot: class definitions and view creations are WAL
    /// frames, so a crash before the first checkpoint recovers by full
    /// replay from an empty system. Runtime store knobs (stripe count,
    /// auto-checkpoint threshold) come from `config`; persisted layout
    /// parameters win over it.
    pub(crate) fn open(dir: &Path, config: StoreConfig) -> ModelResult<(TseSystem, DurableState)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Io(format!("create system dir: {e}")))?;
        let failpoints = FailpointRegistry::new();

        // Candidate generations, best first: the manifest's if it is
        // readable, then every snapshot on disk newest-first. An invalid
        // manifest (torn write that somehow renamed, or bit rot) is not
        // fatal — the scan order recovers the same snapshot.
        let hint = durable::read_manifest(dir).unwrap_or(None);
        let mut candidates: Vec<u64> = hint.into_iter().collect();
        for g in durable::list_snapshot_generations(dir)? {
            if !candidates.contains(&g) {
                candidates.push(g);
            }
        }

        let mut snapshots_skipped = 0u64;
        let mut recovered: Option<(u64, u64, TseSystem)> = None;
        let load = |g: u64| -> ModelResult<(u64, TseSystem)> {
            let (lsn, payload) = durable::read_snapshot_file(dir, g)?;
            Ok((lsn, TseSystem::decode(Bytes::from(payload), config)?))
        };
        for g in candidates {
            match load(g) {
                Ok((lsn, system)) => {
                    recovered = Some((g, lsn, system));
                    break;
                }
                Err(_) => snapshots_skipped += 1,
            }
        }

        // Open the WAL before settling on a snapshot: when *every* snapshot
        // generation is corrupt but the log still starts at LSN 1 (it has
        // never been emptied by a checkpoint), the complete history lives in
        // the log and the system can be rebuilt by full replay alone.
        let (mut wal, wal_recovery) = Wal::open(dir, failpoints.clone())?;

        let mut full_replay = false;
        let fresh = recovered.is_none() && snapshots_skipped == 0;
        let (generation, snap_lsn, mut system) = match recovered {
            Some((g, lsn, s)) => (g, lsn, s),
            None if snapshots_skipped > 0 => {
                if !wal_recovery.frames.first().map(|f| f.lsn == 1).unwrap_or(false) {
                    return Err(corrupt("every snapshot generation is corrupt"));
                }
                // Keep the corrupt generations' numbers reserved so the next
                // checkpoint writes a *new* file instead of clobbering
                // evidence the scrubber may still want to quarantine.
                let g = durable::list_snapshot_generations(dir)?.into_iter().max().unwrap_or(0);
                full_replay = true;
                (g, 0, TseSystem::with_config(config))
            }
            None => (0, 0, TseSystem::with_config(config)),
        };
        system.db_mut().set_failpoints(failpoints.clone());
        let telemetry = system.telemetry().clone();
        // Recovery replay is one causal unit: `recovery.skip` events, the
        // replayed evolves' spans, and `recovery.complete` all share a
        // `recovery` trace in the journal.
        let _trace = telemetry.ensure_trace("recovery");
        wal.ensure_next_lsn(snap_lsn + 1);

        let mut last_lsn = snap_lsn;
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut highest_oid = 0u64;
        for WalFrame { lsn, payload } in wal_recovery.frames {
            if lsn <= snap_lsn {
                continue; // already inside the snapshot
            }
            match decode_frame(&payload).and_then(|record| {
                highest_oid = highest_oid.max(max_oid(&record));
                apply_record(&mut system, record)
            }) {
                Ok(true) => replayed += 1,
                Ok(false) => {} // checkpoint marker: forensic only
                Err(e) => {
                    // Redo of a logged change is deterministic; a failure
                    // here means the frame's change can no longer apply.
                    // Count it and move on rather than refusing to open.
                    skipped += 1;
                    telemetry.event(
                        "recovery.skip",
                        &[("lsn", lsn.into()), ("error", e.to_string().into())],
                    );
                }
            }
            last_lsn = lsn;
        }
        // Whatever order frames interleaved in, fresh allocations must not
        // collide with replayed oids.
        system.db().ensure_next_oid(highest_oid + 1);

        telemetry.incr("recovery.replayed", replayed);
        telemetry.incr("recovery.skipped", skipped);
        telemetry.incr("recovery.torn_bytes", wal_recovery.torn_bytes);
        telemetry.incr("recovery.snapshots_skipped", snapshots_skipped);
        if full_replay {
            telemetry.incr("recovery.full_replay", 1);
        }
        telemetry.event(
            "recovery.complete",
            &[
                ("generation", generation.into()),
                ("replayed", replayed.into()),
                ("skipped", skipped.into()),
                ("torn_bytes", wal_recovery.torn_bytes.into()),
                ("snapshots_skipped", snapshots_skipped.into()),
                ("fresh", fresh.into()),
                ("full_replay", full_replay.into()),
            ],
        );

        let state = DurableState {
            dir: dir.to_path_buf(),
            log: LogHandle {
                wal: GroupWal::new(wal, telemetry, config.retry),
                health: Arc::new(HealthMachine::new()),
                retry: config.retry,
                autocheckpoint_bytes: config.wal_autocheckpoint_bytes,
            },
            generation,
            last_lsn,
            failpoints,
        };
        Ok((system, state))
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn wal_len(&self) -> u64 {
        self.log.wal.len()
    }

    /// The handle every frame is appended through.
    pub(crate) fn log(&self) -> &LogHandle {
        &self.log
    }

    /// Append a structural record (evolve, class definition, view creation,
    /// constraint) through the [`LogHandle`] and run `prepare` while its
    /// frame is flushed; return once the frame is durable, with its mark
    /// for [`DurableState::log_commit`] / [`DurableState::log_abort`] and
    /// what `prepare` returned. `prepare` must leave nothing another client
    /// can see: if the flush fails, its result is dropped and the flush's
    /// own error comes back.
    ///
    /// Callers must hold the exclusion that quiesces concurrent data
    /// appends (the swap latch): the log length read just before the
    /// append is where a later [`DurableState::log_abort`] truncates, which
    /// must not clip acked data frames appended in between.
    pub(crate) fn log_during<P>(
        &self,
        telemetry: &Telemetry,
        record: &WalRecord,
        prepare: impl FnOnce() -> P,
    ) -> ModelResult<(WalMark, P)> {
        let len_before = self.log.wal.len();
        let (lsn, prepared) = self.log.append_during(telemetry, record, prepare)?;
        Ok((WalMark { lsn, len_before }, prepared))
    }

    /// The change applied in memory: the frame's LSN becomes the high-water
    /// mark the next snapshot covers.
    pub(crate) fn log_commit(&mut self, mark: WalMark) {
        self.last_lsn = self.last_lsn.max(mark.lsn);
    }

    /// The change failed cleanly (its fork was dropped): truncate its frame
    /// away so it never replays. A simulated crash must *not* abort — the
    /// frame's fate is decided by redo at recovery, exactly as after a real
    /// mid-apply crash ([`DurableState::log_crash`]).
    pub(crate) fn log_abort(&self, mark: WalMark) -> ModelResult<()> {
        Ok(self.log.wal.truncate_to(mark.len_before)?)
    }

    /// The change crashed mid-apply: keep its frame for redo and fail-stop,
    /// as a crash inside the frame's own append does. The live system never
    /// applied the change, so a data frame or a second change appended
    /// after it would replay against a state the live system never had.
    pub(crate) fn log_crash(&self, telemetry: &Telemetry, crash: &ModelError) {
        self.log.wal.poison();
        self.log.health.poison(&crash.to_string(), telemetry);
    }

    /// Write a new snapshot generation crash-atomically, repoint the
    /// manifest, and empty the WAL. Returns the new generation number.
    ///
    /// A [`WalRecord::Checkpoint`] marker is appended first: its LSN is the
    /// log head (the caller has quiesced writers), so the snapshot covers
    /// every frame — structural *and* data — in the log. On success the
    /// reset wipes the marker; after a crash mid-checkpoint it survives as
    /// forensic evidence and is skipped on replay.
    ///
    /// Failpoint sites: `snapshot.encode`, `durable.snapshot_write`,
    /// `durable.manifest_write`.
    pub(crate) fn checkpoint(&mut self, system: &TseSystem) -> ModelResult<u64> {
        let telemetry = system.telemetry().clone();
        self.failpoints.check("snapshot.encode").map_err(|e| noted(&telemetry, e))?;
        let span = telemetry.span("durable.checkpoint");
        let head = self.log.append(&telemetry, &WalRecord::Checkpoint)?;
        self.last_lsn = self.last_lsn.max(head);
        let payload = system.encode();
        let generation = self.generation + 1;
        with_retries(
            &self.log.retry,
            &self.failpoints,
            |_, _, _| telemetry.incr("fault.retries", 1),
            || {
                durable::write_snapshot_file(
                    &self.dir,
                    generation,
                    self.last_lsn,
                    payload.as_ref(),
                    &self.failpoints,
                )
            },
        )
        .map_err(|e| self.log.surfaced(&telemetry, e))?;
        with_retries(
            &self.log.retry,
            &self.failpoints,
            |_, _, _| telemetry.incr("fault.retries", 1),
            || durable::write_manifest(&self.dir, generation, &self.failpoints),
        )
        .map_err(|e| self.log.surfaced(&telemetry, e))?;
        self.generation = generation;
        self.log.wal.truncate_to(0)?;
        span.record("generation", generation);
        span.record("bytes", payload.remaining());
        span.finish();
        telemetry.incr("durable.checkpoints", 1);
        Ok(generation)
    }

    /// Attempt to restore a `Degraded` system to `Healthy` without a
    /// restart: rotate the WAL (re-opening the file from disk drops the
    /// poisoned in-memory handle; every durable frame is re-read, so no
    /// acked write is lost), run an emergency checkpoint (persists the
    /// in-memory state and empties the log — the cure for `disk_full`),
    /// and verify the fresh log accepts a durable round-trip append.
    ///
    /// No-op when already `Healthy`. Refused when `Poisoned`: the durable
    /// contents of a corrupt store are unknowable, so healing in place
    /// could silently ack lost writes — restart and recover from disk.
    ///
    /// Callers must quiesce writers (control mutex + swap latch).
    /// Failpoint site: `durable.wal_rotate`.
    pub(crate) fn try_heal(&mut self, system: &TseSystem) -> ModelResult<SystemHealth> {
        let telemetry = system.telemetry().clone();
        match self.log.health() {
            SystemHealth::Healthy => return Ok(SystemHealth::Healthy),
            SystemHealth::Poisoned => {
                return Err(ModelError::Invalid(
                    "cannot heal a poisoned system; restart and recover from disk".to_string(),
                ))
            }
            SystemHealth::Degraded { .. } => {}
        }
        let span = telemetry.span("durable.heal");
        self.failpoints.check("durable.wal_rotate").map_err(|e| noted(&telemetry, e))?;
        // Rotation must come before the emergency checkpoint: a poisoned
        // handle refuses the checkpoint's marker append.
        self.log.wal.reopen()?;
        self.checkpoint(system)?;
        // Probe: the healed log must complete one durable append before we
        // declare victory (the frame is truncated away immediately).
        let len = self.log.wal.len();
        self.log.append(&telemetry, &WalRecord::Checkpoint)?;
        self.log.wal.truncate_to(len)?;
        self.log.health.healed(&telemetry);
        telemetry.incr("durable.heals", 1);
        span.finish();
        Ok(self.log.health())
    }

    /// Run one integrity scrub pass over the directory: re-verify every
    /// snapshot generation's CRC (quarantining corrupt ones), cross-check
    /// the MANIFEST, and scan the WAL up to its committed length.
    pub(crate) fn scrub(&self, telemetry: &Telemetry) -> ModelResult<ScrubReport> {
        let wal_len = Some(self.log.wal.len());
        Ok(scrub_dir(&self.dir, &self.failpoints, &self.log.retry, telemetry, wal_len)?)
    }
}
