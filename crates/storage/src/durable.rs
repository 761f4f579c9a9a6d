//! Durable file mechanics: atomic snapshot generations, a CRC32-framed
//! write-ahead log, and the manifest that names the current generation.
//!
//! This module owns the *byte and file* level of crash safety; the policy
//! level (what goes in the WAL, how recovery replays it) lives in
//! `tse-core`'s durable module. On-disk layout of a system directory:
//!
//! ```text
//! <dir>/MANIFEST        "TSEMANI1" | u64 generation | u32 crc(generation)
//! <dir>/snap-<gen>.tse  "TSEDURS2" | u64 wal_lsn | u64 len | u32 crc(wal_lsn‖len‖payload) | payload
//! <dir>/wal.log         frames: u32 len | u32 crc(lsn‖payload) | u64 lsn | payload
//! ```
//!
//! Invariants:
//! * snapshot and manifest files are written via **temp file + fsync +
//!   atomic rename + directory fsync** — a crash leaves either the old or
//!   the new file, never a torn one;
//! * every WAL frame reaches the file through [`GroupWal::append`] or
//!   [`GroupWal::append_overlapped`], which return only once the frame's
//!   group-commit batch is fsync'd;
//! * a torn final WAL frame (crash mid-append) is detected by its length or
//!   CRC and truncated on open — everything before it remains valid. One
//!   parser, [`walk_frames`], reads the frame format, for recovery and the
//!   scrubber alike;
//! * each artifact has exactly one integrity check, at its file framing: a
//!   snapshot generation's header CRC covers its LSN, length and whole
//!   payload (the payload sections nested inside carry no check of their
//!   own), and a WAL frame's CRC covers its LSN and payload. A corrupt
//!   generation is *detected* at read time and the caller can fall back to
//!   an older one.
//!
//! All write paths consult the [`FailpointRegistry`] (sites
//! `durable.snapshot_write`, `durable.manifest_write`, `durable.wal_append`,
//! `durable.wal_fsync`) so crash tests can kill the system at any byte
//! offset of any write.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use tse_telemetry::Telemetry;

use crate::crc::{crc32, Crc32};
use crate::error::{StorageError, StorageResult};
use crate::failpoint::{FailAction, FailpointRegistry};
use crate::fault::{with_retries, RetryPolicy};

const MANIFEST_MAGIC: &[u8; 8] = b"TSEMANI1";
const SNAPSHOT_MAGIC: &[u8; 8] = b"TSEDURS2";

/// Name of the manifest file inside a system directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the write-ahead log inside a system directory.
pub const WAL_FILE: &str = "wal.log";

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

pub(crate) fn sync_dir(dir: &Path) -> StorageResult<()> {
    // Directory fsync makes the rename itself durable (POSIX requires it for
    // the new directory entry to survive a crash).
    let d = File::open(dir).map_err(|e| io_err("open dir for fsync", e))?;
    d.sync_all().map_err(|e| io_err("fsync dir", e))
}

/// Write `bytes` to `path` crash-atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory. The
/// failpoint `site` can turn this into a clean error, a no-op crash, or a
/// torn write (first `keep_bytes` bytes land in the temp file, which is
/// never renamed — exactly what a mid-write power cut leaves).
fn write_atomic(
    path: &Path,
    bytes: &[u8],
    fp: &FailpointRegistry,
    site: &str,
) -> StorageResult<()> {
    let dir = path.parent().ok_or_else(|| StorageError::Io("path has no parent".into()))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    match fp.hit(site) {
        Some(FailAction::Error) => return Err(StorageError::Injected(site.to_string())),
        Some(FailAction::Crash) => return Err(StorageError::SimulatedCrash(site.to_string())),
        Some(FailAction::TornWrite { keep_bytes }) => {
            let keep = keep_bytes.min(bytes.len());
            let mut f = File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
            f.write_all(&bytes[..keep]).map_err(|e| io_err("torn write", e))?;
            f.sync_all().ok();
            return Err(StorageError::SimulatedCrash(site.to_string()));
        }
        // Transient/disk-full injections fail before any byte is written —
        // the target file is untouched, so retrying (transient) or degrading
        // (disk-full) is safe.
        Some(a @ FailAction::TransientError { .. }) | Some(a @ FailAction::DiskFull) => {
            return Err(a.to_error(site));
        }
        None => {}
    }
    let mut f = File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
    f.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
    f.sync_all().map_err(|e| io_err("fsync tmp", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename tmp", e))?;
    sync_dir(dir)
}

// ----- manifest -------------------------------------------------------------

/// Atomically record `generation` as current in `<dir>/MANIFEST`.
pub fn write_manifest(
    dir: &Path,
    generation: u64,
    fp: &FailpointRegistry,
) -> StorageResult<()> {
    let mut buf = Vec::with_capacity(20);
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&generation.to_be_bytes());
    buf.extend_from_slice(&crc32(&generation.to_be_bytes()).to_be_bytes());
    write_atomic(&dir.join(MANIFEST_FILE), &buf, fp, "durable.manifest_write")
}

/// Read the current generation from the manifest. `Ok(None)` when the file
/// does not exist (fresh directory); `Err` when it exists but is invalid —
/// the caller then falls back to scanning snapshot files.
pub fn read_manifest(dir: &Path) -> StorageResult<Option<u64>> {
    let bytes = match fs::read(dir.join(MANIFEST_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read manifest", e)),
    };
    if bytes.len() != 20 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(StorageError::Corrupt("bad manifest".into()));
    }
    let generation = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
    let crc = u32::from_be_bytes(bytes[16..20].try_into().unwrap());
    if crc != crc32(&bytes[8..16]) {
        return Err(StorageError::Corrupt("manifest crc mismatch".into()));
    }
    Ok(Some(generation))
}

// ----- snapshot generations -------------------------------------------------

/// Path of snapshot generation `gen` inside `dir`.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation:016}.tse"))
}

/// All snapshot generations present in `dir`, descending (newest first).
/// Temp files from torn writes are ignored.
pub fn list_snapshot_generations(dir: &Path) -> StorageResult<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("snap-") {
            if let Some(num) = rest.strip_suffix(".tse") {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// Write snapshot generation `generation`: the payload is framed with a
/// length and CRC plus the WAL LSN the snapshot covers, then written
/// atomically. The CRC is the payload's only check. Failpoint site:
/// `durable.snapshot_write`.
pub fn write_snapshot_file(
    dir: &Path,
    generation: u64,
    wal_lsn: u64,
    payload: &[u8],
    fp: &FailpointRegistry,
) -> StorageResult<()> {
    let mut buf = Vec::with_capacity(payload.len() + 28);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&wal_lsn.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    // CRC covers the header fields after the magic plus the payload, so a
    // flipped LSN or length is caught as surely as flipped payload bytes.
    let mut h = Crc32::new();
    h.update(&buf[8..24]);
    h.update(payload);
    buf.extend_from_slice(&h.finalize().to_be_bytes());
    buf.extend_from_slice(payload);
    write_atomic(&snapshot_path(dir, generation), &buf, fp, "durable.snapshot_write")
}

/// Read and validate snapshot generation `generation`; returns the WAL LSN
/// it covers and the raw payload. Any framing or CRC violation is
/// [`StorageError::Corrupt`] — the caller falls back to an older generation.
pub fn read_snapshot_file(dir: &Path, generation: u64) -> StorageResult<(u64, Vec<u8>)> {
    let mut bytes = fs::read(snapshot_path(dir, generation))
        .map_err(|e| io_err("read snapshot", e))?;
    if bytes.len() < 28 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::Corrupt("bad snapshot header".into()));
    }
    let wal_lsn = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
    let len = u64::from_be_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(bytes[24..28].try_into().unwrap());
    let payload = &bytes[28..];
    if payload.len() != len {
        return Err(StorageError::Corrupt(format!(
            "snapshot payload length {} != framed {len}",
            payload.len()
        )));
    }
    let mut h = Crc32::new();
    h.update(&bytes[8..24]);
    h.update(payload);
    if h.finalize() != crc {
        return Err(StorageError::Corrupt("snapshot crc mismatch".into()));
    }
    bytes.drain(..28);
    Ok((wal_lsn, bytes))
}

// ----- write-ahead log ------------------------------------------------------

/// Bytes before a frame's payload: `u32 len | u32 crc | u64 lsn`.
const FRAME_HEADER: usize = 16;

/// One recovered WAL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Log sequence number (strictly increasing across the log).
    pub lsn: u64,
    /// Opaque logical record (the durable system stores evolve commands).
    pub payload: Vec<u8>,
}

/// Where a [`walk_frames`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEnd {
    /// At the end of the bytes: every byte belongs to a valid frame.
    Clean,
    /// At a frame too short for its header or for the payload its header
    /// announces — a crash interrupted an append, or one is in flight.
    Torn,
    /// At a complete frame whose CRC fails: rot, not a tear.
    Corrupt,
}

/// What a walk over a log's bytes found.
#[derive(Debug)]
pub struct FrameWalk {
    /// Every frame with a valid length and CRC, in log order.
    pub frames: Vec<WalFrame>,
    /// Length of the valid prefix: where recovery truncates the log.
    pub valid_len: u64,
    /// Bytes after the valid prefix (0 on a clean log).
    pub torn_bytes: u64,
    /// Why the walk stopped.
    pub end: WalkEnd,
}

/// Walk the frames of a log image from its start and stop at the first one
/// that is incomplete or fails its CRC — everything from there on is
/// suspect. The one parser of the frame format: recovery ([`Wal::open`])
/// and the scrubber both read the log through it.
pub fn walk_frames(bytes: &[u8]) -> FrameWalk {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    let end = loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            break WalkEnd::Clean;
        }
        let Some(header) = rest.get(..FRAME_HEADER) else { break WalkEnd::Torn };
        let payload_len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(header[4..8].try_into().unwrap());
        // lsn ‖ payload, the bytes the CRC covers.
        let Some(body) = rest.get(8..FRAME_HEADER + payload_len) else { break WalkEnd::Torn };
        if crc32(body) != crc {
            break WalkEnd::Corrupt;
        }
        let lsn = u64::from_be_bytes(body[..8].try_into().unwrap());
        frames.push(WalFrame { lsn, payload: body[8..].to_vec() });
        offset += FRAME_HEADER + payload_len;
    };
    FrameWalk { frames, valid_len: offset as u64, torn_bytes: (bytes.len() - offset) as u64, end }
}

/// The append-only, CRC32-framed write-ahead log file.
///
/// Frame layout: `u32 payload_len | u32 crc(lsn ‖ payload) | u64 lsn |
/// payload`. Recovery opens it and hands it to [`GroupWal`], the only way
/// a frame reaches the file.
#[derive(Debug)]
pub struct Wal {
    /// Shared with the group-commit flush leader, which fsyncs it outside
    /// the lock; every write, truncate and seek goes through `&File` too.
    file: Arc<File>,
    dir: PathBuf,
    len: u64,
    next_lsn: u64,
    poisoned: bool,
    failpoints: FailpointRegistry,
}

impl Wal {
    /// Open (or create) the log at `<dir>/wal.log` and walk its frames. A
    /// torn or corrupt tail is truncated at the walk's valid length;
    /// everything before it is returned. Frames are *not* interpreted here.
    pub fn open(dir: &Path, failpoints: FailpointRegistry) -> StorageResult<(Wal, FrameWalk)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))
            .map_err(|e| io_err("open wal", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err("read wal", e))?;
        let walk = walk_frames(&bytes);
        let next_lsn = walk.frames.last().map_or(1, |f| f.lsn + 1);
        let mut wal = Wal {
            file: Arc::new(file),
            dir: dir.to_path_buf(),
            len: bytes.len() as u64,
            next_lsn,
            poisoned: false,
            failpoints,
        };
        if walk.torn_bytes > 0 {
            wal.truncate_to(walk.valid_len)?;
        }
        Ok((wal, walk))
    }

    /// Raise the next LSN to at least `min`. `open` derives its counter
    /// from the surviving frames, so after a checkpoint emptied the log
    /// the counter would restart at 1 — below the snapshot's covered LSN,
    /// making later frames look already-applied. Recovery calls this with
    /// `snapshot_lsn + 1` to keep LSNs monotonic across checkpoints.
    pub fn ensure_next_lsn(&mut self, min: u64) {
        if self.next_lsn < min {
            self.next_lsn = min;
        }
    }

    /// Write one frame **without** fsyncing it; the frame is durable only
    /// once [`GroupWal`]'s leader has fsynced its batch. Returns the
    /// frame's LSN.
    ///
    /// Failpoint site `durable.wal_append` supports torn writes: only the
    /// first `keep_bytes` bytes of the frame reach the file before the
    /// simulated crash, which `open` must then detect and truncate. Crash
    /// and torn-write injections also poison the log, so other threads of a
    /// "dead" process cannot keep appending past the tear.
    fn write_frame(&mut self, payload: &[u8]) -> StorageResult<u64> {
        if self.poisoned {
            return Err(poisoned_err());
        }
        let lsn = self.next_lsn;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        let mut h = Crc32::new();
        h.update(&lsn.to_be_bytes());
        h.update(payload);
        frame.extend_from_slice(&h.finalize().to_be_bytes());
        frame.extend_from_slice(&lsn.to_be_bytes());
        frame.extend_from_slice(payload);

        match self.failpoints.hit("durable.wal_append") {
            Some(FailAction::Error) => {
                // Clean injected failure: nothing reached the file, the log
                // is intact and stays usable.
                return Err(StorageError::Injected("durable.wal_append".into()));
            }
            Some(FailAction::Crash) => {
                self.poisoned = true;
                return Err(StorageError::SimulatedCrash("durable.wal_append".into()));
            }
            Some(FailAction::TornWrite { keep_bytes }) => {
                let keep = keep_bytes.min(frame.len());
                (&*self.file)
                    .write_all(&frame[..keep])
                    .map_err(|e| io_err("torn wal append", e))?;
                self.file.sync_data().ok();
                self.len += keep as u64;
                self.poisoned = true;
                return Err(StorageError::SimulatedCrash("durable.wal_append".into()));
            }
            // Nothing reached the file: the log stays intact and usable, so
            // neither action poisons. Transient is retried by the caller's
            // bounded backoff loop; disk-full degrades the system instead.
            Some(a @ FailAction::TransientError { .. }) | Some(a @ FailAction::DiskFull) => {
                return Err(a.to_error("durable.wal_append"));
            }
            None => {}
        }
        if let Err(e) = (&*self.file).write_all(&frame) {
            // A partial write leaves the tail in an unknown state.
            self.poisoned = true;
            return Err(io_err("wal append", e));
        }
        self.len += frame.len() as u64;
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    fn truncate_to(&mut self, offset: u64) -> StorageResult<()> {
        self.file.set_len(offset).map_err(|e| io_err("truncate wal", e))?;
        self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
        (&*self.file).seek(SeekFrom::End(0)).map_err(|e| io_err("seek wal", e))?;
        self.len = offset;
        Ok(())
    }
}

fn poisoned_err() -> StorageError {
    StorageError::Poisoned("an earlier fsync failed; reopen the log from disk".into())
}

// ----- group commit ---------------------------------------------------------

struct GroupState {
    wal: Wal,
    /// Sequence number of the newest appended (possibly unsynced) frame.
    append_seq: u64,
    /// Every append with sequence ≤ this is on disk.
    flushed_seq: u64,
    /// A leader is fsyncing outside the lock right now.
    syncing: bool,
    /// The newest append the flusher thread was asked to lead a flush for.
    requested: u64,
    /// The error of a flush the flusher thread led and lost, kept for the
    /// append that asked for it (by sequence): the flusher has no caller
    /// to return it to, and the health machine needs the fault itself, not
    /// the generic fail-stop answer a follower gets.
    lost: Option<(u64, StorageError)>,
    /// The last handle dropped: the flusher thread exits.
    closing: bool,
}

struct GroupInner {
    state: Mutex<GroupState>,
    flushed: Condvar,
    /// Wakes the flusher thread: a flush request, or the last handle's drop.
    wake: Condvar,
    failpoints: FailpointRegistry,
    telemetry: Telemetry,
    /// Pre-ack retry policy for transient append/fsync faults.
    policy: RetryPolicy,
}

/// Group-commit wrapper around [`Wal`], shared by concurrent appenders —
/// and the only way a frame reaches the log, for data and structural
/// frames alike.
///
/// [`GroupWal::append`] writes the frame under a short mutex hold, then one
/// appender becomes the *flush leader*: it takes a second reference to the
/// shared file (no new descriptor), releases the lock, and fsyncs the whole
/// batch while followers wait on a condvar (and new appenders keep writing
/// frames for the *next* batch). The fsync happening outside the lock is
/// what makes batches form: with the lock held, appends and fsyncs would
/// interleave 1:1.
///
/// [`GroupWal::append_overlapped`] hands the leader's part to one
/// persistent flusher thread, started on the first such append and stopped
/// when the last handle drops, so the caller's own work runs while its
/// frame is fsynced; both appends then wait in the same leader/follower
/// loop.
///
/// Transient append and fsync faults are retried through
/// [`with_retries`] before anyone is acknowledged, each retry counted in
/// `fault.retries`. Per-flush telemetry: `wal.group_size` (frames per
/// fsync, the batching evidence) and `wal.fsync_ns`; per append,
/// `wal.commit_wait_ns`. A failed fsync poisons the underlying log
/// (`wal.poisoned` counter) and wakes every waiter with
/// [`StorageError::Poisoned`] — except the leader's own caller, who gets
/// the fsync's error.
#[derive(Clone)]
pub struct GroupWal {
    handles: Arc<Handles>,
}

/// What every clone of a [`GroupWal`] shares: the log, and the flusher
/// thread. The thread holds only the log, never a handle, so the last
/// handle's drop — which stops and joins it — never runs on it.
struct Handles {
    inner: Arc<GroupInner>,
    /// Started by the first overlapped append; `None` inside when the
    /// spawn failed, and callers then lead their own flushes.
    flusher: OnceLock<Option<JoinHandle<()>>>,
}

impl Drop for Handles {
    fn drop(&mut self) {
        if let Some(Some(flusher)) = self.flusher.take() {
            self.inner.state.lock().unwrap_or_else(PoisonError::into_inner).closing = true;
            self.inner.wake.notify_all();
            let _ = flusher.join();
        }
    }
}

impl GroupInner {
    /// Wait until append `seq` is on disk: follow the flush in flight, or
    /// lead the next one. The one leader/follower loop, for both appends.
    fn wait_durable<'a>(
        &'a self,
        mut st: MutexGuard<'a, GroupState>,
        seq: u64,
    ) -> StorageResult<()> {
        while st.flushed_seq < seq {
            if st.wal.poisoned {
                return Err(st.lost.take_if(|(s, _)| *s == seq).map_or_else(poisoned_err, |l| l.1));
            }
            if st.syncing {
                // A leader is already flushing (possibly a batch that does
                // not cover us yet) — wait for its verdict.
                st = self.flushed.wait(st).unwrap();
                continue;
            }
            let (guard, result) = self.lead_flush(st);
            st = guard;
            result?;
        }
        Ok(())
    }

    /// Become the flush leader for everything appended so far: fsync it
    /// outside the lock, then hand the verdict to every waiter. The caller
    /// saw no flush in flight.
    fn lead_flush<'a>(
        &'a self,
        mut st: MutexGuard<'a, GroupState>,
    ) -> (MutexGuard<'a, GroupState>, StorageResult<()>) {
        st.syncing = true;
        let target = st.append_seq;
        let batch = target - st.flushed_seq;
        let file = Arc::clone(&st.wal.file);
        drop(st);
        // Transient fsync stalls are retried here, outside the lock, before
        // any waiter of this batch is acknowledged; what still fails
        // poisons the log.
        let result = self.retrying(|| self.fsync_once(&file));
        let mut st = self.state.lock().unwrap();
        st.syncing = false;
        match result {
            Ok(()) => {
                st.flushed_seq = st.flushed_seq.max(target);
                self.telemetry.observe_ns("wal.group_size", batch);
            }
            Err(_) => {
                st.wal.poisoned = true;
                self.telemetry.incr("wal.poisoned", 1);
            }
        }
        self.flushed.notify_all();
        if st.requested > st.flushed_seq {
            // A request that arrived while this batch was in flight.
            self.wake.notify_one();
        }
        (st, result)
    }

    /// The flusher thread: lead a flush for each request, until the last
    /// handle drops.
    fn run_flusher(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.closing {
            let want = st.requested;
            if want > st.flushed_seq && !st.syncing && !st.wal.poisoned {
                let (guard, result) = self.lead_flush(st);
                st = guard;
                if let Err(e) = result {
                    st.lost = Some((want, e));
                }
            } else {
                st = self.wake.wait(st).unwrap();
            }
        }
    }

    /// [`with_retries`] under this log's policy and failpoint clock, every
    /// retry counted in `fault.retries`.
    fn retrying<T>(&self, f: impl FnMut() -> StorageResult<T>) -> StorageResult<T> {
        with_retries(
            &self.policy,
            &self.failpoints,
            |_, _, _| self.telemetry.incr("fault.retries", 1),
            f,
        )
    }

    fn fsync_once(&self, file: &File) -> StorageResult<()> {
        match self.failpoints.hit("durable.wal_fsync") {
            Some(FailAction::Error) => {
                return Err(StorageError::Injected("durable.wal_fsync".into()));
            }
            Some(FailAction::Crash) | Some(FailAction::TornWrite { .. }) => {
                return Err(StorageError::SimulatedCrash("durable.wal_fsync".into()));
            }
            // An injected transient failure is a stall where the fsync
            // never ran: retrying may succeed. Disk-full at fsync leaves the
            // batch's durability unknowable, like any failed fsync.
            Some(a @ FailAction::TransientError { .. }) | Some(a @ FailAction::DiskFull) => {
                return Err(a.to_error("durable.wal_fsync"));
            }
            None => {}
        }
        let begun = Instant::now();
        file.sync_data().map_err(|e| io_err("group wal fsync", e))?;
        self.telemetry.observe_ns("wal.fsync_ns", begun.elapsed().as_nanos() as u64);
        Ok(())
    }
}

impl GroupWal {
    /// Wrap `wal` for group commit. The log's failpoint registry guards the
    /// leader's fsync (site `durable.wal_fsync`); flush telemetry and
    /// retries land in `telemetry`; transient append/fsync faults are
    /// retried per `policy` *before* any caller's append is acknowledged.
    pub fn new(wal: Wal, telemetry: Telemetry, policy: RetryPolicy) -> GroupWal {
        let failpoints = wal.failpoints.clone();
        let inner = Arc::new(GroupInner {
            state: Mutex::new(GroupState {
                wal,
                append_seq: 0,
                flushed_seq: 0,
                syncing: false,
                requested: 0,
                lost: None,
                closing: false,
            }),
            flushed: Condvar::new(),
            wake: Condvar::new(),
            failpoints,
            telemetry,
            policy,
        });
        GroupWal { handles: Arc::new(Handles { inner, flusher: OnceLock::new() }) }
    }

    fn inner(&self) -> &GroupInner {
        &self.handles.inner
    }

    /// Write one frame under the mutex; returns the still-held guard, the
    /// frame's LSN and its append sequence.
    fn write(&self, payload: &[u8]) -> StorageResult<(MutexGuard<'_, GroupState>, u64, u64)> {
        let mut st = self.inner().state.lock().unwrap();
        // Transient append faults are retried under the mutex — nothing has
        // reached the file, and the retry must observe the same log tail.
        let lsn = self.inner().retrying(|| st.wal.write_frame(payload))?;
        st.append_seq += 1;
        let seq = st.append_seq;
        Ok((st, lsn, seq))
    }

    /// Append one frame and return once it is **durable** (its batch has
    /// been fsynced). Returns the frame's LSN.
    pub fn append(&self, payload: &[u8]) -> StorageResult<u64> {
        let begun = Instant::now();
        let (st, lsn, seq) = self.write(payload)?;
        self.inner().wait_durable(st, seq)?;
        // Total time from append to durability ack — lock wait + queueing
        // behind a leader's fsync + our own flush. Attributed to the calling
        // thread so a slow op can cite its commit wait.
        self.observe_commit_wait(begun);
        Ok(lsn)
    }

    /// Append one frame, ask the flusher thread to fsync it, and run `work`
    /// on the calling thread meanwhile; return the frame's LSN and `work`'s
    /// result once the frame is **durable**. When the frame never reached
    /// the log, `work` does not run; when its flush fails, `work`'s result
    /// is dropped and the flush's own error returned. The first call starts
    /// the flusher. `wal.commit_wait_ns` records only the wait after `work`
    /// returned.
    pub fn append_overlapped<R>(
        &self,
        payload: &[u8],
        work: impl FnOnce() -> R,
    ) -> StorageResult<(u64, R)> {
        let inner = self.inner();
        let flusher = self.handles.flusher.get_or_init(|| {
            let inner = Arc::clone(&self.handles.inner);
            std::thread::Builder::new()
                .name("tse-wal-flusher".into())
                .spawn(move || inner.run_flusher())
                .ok()
        });
        let (mut st, lsn, seq) = self.write(payload)?;
        if flusher.is_some() {
            st.requested = seq;
            inner.wake.notify_one();
        }
        drop(st);
        let out = work();
        let waited = Instant::now();
        // When the flusher has not taken this flush — not up yet, or busy
        // with an earlier batch — the caller leads it.
        if let Err(e) = inner.wait_durable(inner.state.lock().unwrap(), seq) {
            drop(out);
            return Err(e);
        }
        self.observe_commit_wait(waited);
        Ok((lsn, out))
    }

    fn observe_commit_wait(&self, since: Instant) {
        self.inner()
            .telemetry
            .observe_ns("wal.commit_wait_ns", (since.elapsed().as_nanos() as u64).max(1));
    }

    /// The log, once no flush is in flight.
    fn quiesced(&self) -> MutexGuard<'_, GroupState> {
        let mut st = self.inner().state.lock().unwrap();
        while st.syncing {
            st = self.inner().flushed.wait(st).unwrap();
        }
        st
    }

    /// Truncate the log back to `offset`: to [`GroupWal::len`] as read
    /// before an append whose logged change failed cleanly (the frame must
    /// not replay), or to 0 once a checkpoint made every frame redundant.
    /// LSNs keep counting — they are never reused. Callers quiesce other
    /// appenders, so nothing acked lies past `offset`.
    pub fn truncate_to(&self, offset: u64) -> StorageResult<()> {
        self.quiesced().wal.truncate_to(offset)
    }

    /// Put the log in fail-stop mode, as a crash inside an append does: every
    /// later append is refused with [`StorageError::Poisoned`] until
    /// [`GroupWal::reopen`]. For a caller whose process "died" after its
    /// frame reached the log, so nothing is appended past a frame the live
    /// process never applied.
    pub fn poison(&self) {
        self.inner().state.lock().unwrap().wal.poisoned = true;
    }

    /// Replace the log handle with one freshly opened from disk, keeping the
    /// LSN floor. This clears a fail-stopped handle; every durable frame is
    /// re-read, so nothing acked is lost.
    pub fn reopen(&self) -> StorageResult<()> {
        let mut st = self.quiesced();
        let (mut fresh, _) = Wal::open(&st.wal.dir, self.inner().failpoints.clone())?;
        fresh.ensure_next_lsn(st.wal.next_lsn);
        st.wal = fresh;
        st.lost = None;
        Ok(())
    }

    /// Current log size in bytes (offset the next frame lands at).
    pub fn len(&self) -> u64 {
        self.inner().state.lock().unwrap().wal.len
    }

    /// True when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the underlying log is in fail-stop mode (a failed fsync or
    /// a torn append).
    pub fn is_poisoned(&self) -> bool {
        self.inner().state.lock().unwrap().wal.poisoned
    }

    /// The error an append would answer once the log is in fail-stop mode,
    /// for a caller that must not apply a write the log is going to refuse.
    pub fn refuse_if_poisoned(&self) -> StorageResult<()> {
        if self.is_poisoned() {
            return Err(poisoned_err());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub_dir;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tse_durable_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A group-commit handle on `<dir>/wal.log` that never retries.
    fn group(dir: &Path, fp: &FailpointRegistry) -> GroupWal {
        let (wal, _) = Wal::open(dir, fp.clone()).unwrap();
        GroupWal::new(wal, Telemetry::new(), RetryPolicy::none())
    }

    /// What recovery finds in `<dir>/wal.log`.
    fn recovered(dir: &Path, fp: &FailpointRegistry) -> FrameWalk {
        Wal::open(dir, fp.clone()).unwrap().1
    }

    #[test]
    fn wal_roundtrip_and_lsn_continuity() {
        let dir = tmpdir("wal_rt");
        let fp = FailpointRegistry::new();
        assert!(recovered(&dir, &fp).frames.is_empty());
        let wal = group(&dir, &fp);
        assert_eq!(wal.append(b"alpha").unwrap(), 1);
        assert_eq!(wal.append(b"beta").unwrap(), 2);
        drop(wal);
        let rec = recovered(&dir, &fp);
        assert_eq!((rec.torn_bytes, rec.end), (0, WalkEnd::Clean));
        assert_eq!(
            rec.frames,
            vec![
                WalFrame { lsn: 1, payload: b"alpha".to_vec() },
                WalFrame { lsn: 2, payload: b"beta".to_vec() },
            ]
        );
        assert_eq!(group(&dir, &fp).append(b"gamma").unwrap(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_append_is_truncated_on_open() {
        let dir = tmpdir("wal_torn");
        let fp = FailpointRegistry::new();
        let mut wal = group(&dir, &fp);
        wal.append(b"keep me").unwrap();
        // Tear the next frame at every offset inside it.
        for keep in 0..(16 + 9) {
            fp.arm("durable.wal_append", 1, FailAction::TornWrite { keep_bytes: keep });
            let err = wal.append(b"lost data").unwrap_err();
            assert!(matches!(err, StorageError::SimulatedCrash(_)));
            drop(wal);
            let rec = recovered(&dir, &fp);
            assert_eq!(rec.frames.len(), 1, "torn frame (keep={keep}) must vanish");
            assert_eq!(rec.frames[0].payload, b"keep me");
            assert_eq!(rec.torn_bytes, keep as u64, "exactly the torn bytes discarded");
            wal = group(&dir, &fp);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_bit_flips_cut_the_log_at_the_corruption() {
        // Every truncation and every single-bit flip of a 4-frame log, read
        // by both readers of the frame format. Recovery keeps exactly the
        // frames before the damage; the scrubber counts the same frames and
        // calls the log corrupt only when the damaged frame is complete; and
        // once recovery has truncated, a scrub is clean.
        let dir = tmpdir("wal_flip");
        let fp = FailpointRegistry::new();
        let payloads: [&[u8]; 4] = [b"first", b"second", b"", b"fourth frame"];
        let wal = group(&dir, &fp);
        for p in payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        let good = fs::read(dir.join(WAL_FILE)).unwrap();
        // Frame k spans `starts[k]..starts[k + 1]`.
        let mut starts = vec![0usize];
        for p in payloads {
            starts.push(starts.last().unwrap() + FRAME_HEADER + p.len());
        }
        assert_eq!(starts[4], good.len());

        let scrub = || scrub_dir(&dir, &fp, &RetryPolicy::none(), &Telemetry::new(), None).unwrap();
        let check = |bad: &[u8], frames: usize, end: WalkEnd, what: &str| {
            fs::write(dir.join(WAL_FILE), bad).unwrap();
            let report = scrub();
            let rec = recovered(&dir, &fp);
            assert_eq!(rec.frames.len(), frames, "{what}: frames recovered");
            assert_eq!(rec.end, end, "{what}: where the walk stopped");
            assert_eq!(rec.valid_len, starts[frames] as u64, "{what}: cut");
            assert_eq!(report.wal_frames, frames as u64, "{what}: frames scrubbed");
            assert_eq!(report.wal_corrupt, end == WalkEnd::Corrupt, "{what}: corrupt");
            let after = scrub();
            assert!(after.clean() && after.wal_torn_bytes == 0, "{what}: scrub after recovery");
            assert_eq!(after.wal_frames, frames as u64, "{what}: frames after recovery");
        };

        for len in 0..=good.len() {
            let frames = starts[1..].iter().filter(|&&e| e <= len).count();
            let end = if starts.contains(&len) { WalkEnd::Clean } else { WalkEnd::Torn };
            check(&good[..len], frames, end, &format!("truncated to {len}"));
        }
        for byte in 0..good.len() {
            let k = starts.iter().rposition(|&s| s <= byte).unwrap();
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                // The damaged frame is complete when the length its (possibly
                // flipped) header announces fits in the bytes that remain.
                let announced =
                    u32::from_be_bytes(bad[starts[k]..starts[k] + 4].try_into().unwrap()) as usize;
                let complete = starts[k] + FRAME_HEADER + announced <= bad.len();
                let end = if complete { WalkEnd::Corrupt } else { WalkEnd::Torn };
                check(&bad, k, end, &format!("bit {bit} of byte {byte} flipped"));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_to_removes_the_last_frame() {
        let dir = tmpdir("wal_trunc");
        let fp = FailpointRegistry::new();
        let wal = group(&dir, &fp);
        wal.append(b"keep").unwrap();
        let before = wal.len();
        wal.append(b"drop").unwrap();
        wal.truncate_to(before).unwrap();
        drop(wal);
        let rec = recovered(&dir, &fp);
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].payload, b"keep");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failure_poisons_the_log() {
        let dir = tmpdir("wal_poison");
        let fp = FailpointRegistry::new();
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let wal = GroupWal::new(wal, telemetry.clone(), RetryPolicy::none());
        wal.append(b"good").unwrap();
        fp.arm("durable.wal_fsync", 1, FailAction::Error);
        assert!(matches!(wal.append(b"doomed").unwrap_err(), StorageError::Injected(_)));
        assert!(wal.is_poisoned());
        assert_eq!(telemetry.snapshot().counter("wal.poisoned"), 1);
        // Fail-stop: every further append refuses without touching the
        // file. Poisoning promises "no further acks", not that the doomed
        // frame is absent (its bytes may sit in the page cache).
        assert!(matches!(wal.append(b"after").unwrap_err(), StorageError::Poisoned(_)));
        // Reopening from disk drops the poisoned handle.
        wal.reopen().unwrap();
        assert!(!wal.is_poisoned());
        drop(wal);
        assert!(recovered(&dir, &fp).frames.iter().any(|f| f.payload == b"good"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_appends_from_many_threads() {
        let dir = tmpdir("wal_group");
        let fp = FailpointRegistry::new();
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let group = GroupWal::new(wal, telemetry.clone(), RetryPolicy::default());
        let (threads, per) = (8usize, 25usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let group = group.clone();
                s.spawn(move || {
                    for i in 0..per {
                        group.append(format!("t{t}i{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        drop(group);
        let rec = recovered(&dir, &fp);
        assert_eq!(rec.frames.len(), threads * per, "every acked append is on disk");
        assert!(rec.frames.iter().map(|f| f.lsn).eq(1..=(threads * per) as u64));
        let snap = telemetry.snapshot();
        let sizes = snap.histograms.get("wal.group_size").expect("group_size recorded");
        assert!(sizes.count >= 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_append_rides_out_transient_fsync_faults() {
        let dir = tmpdir("wal_group_transient");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let policy = RetryPolicy { max_retries: 4, base_backoff_ns: 1000, max_backoff_ns: 8000 };
        let group = GroupWal::new(wal, telemetry.clone(), policy);
        // Three consecutive fsync stalls, then the device recovers: the
        // append must succeed with no poisoning and no lost ack.
        fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 3 });
        group.append(b"survives").unwrap();
        assert!(!group.is_poisoned());
        assert_eq!(telemetry.snapshot().counter("fault.retries"), 3);
        assert_eq!(fp.virtual_slept_ns(), 1000 + 2000 + 4000, "exponential backoff schedule");
        drop(group);
        assert_eq!(recovered(&dir, &fp).frames.len(), 1, "the acked frame is durable");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_transient_fsync_retries_poison_fail_stop() {
        let dir = tmpdir("wal_group_exhaust");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let policy = RetryPolicy { max_retries: 2, base_backoff_ns: 1, max_backoff_ns: 8 };
        let group = GroupWal::new(wal, telemetry.clone(), policy);
        // The stall outlasts the retry budget: the append fails with a
        // transient error and the log is poisoned (the frame is appended
        // but of unknowable durability — fail-stop, never ack).
        fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 10 });
        assert!(matches!(group.append(b"doomed").unwrap_err(), StorageError::Transient(_)));
        assert!(group.is_poisoned());
        assert_eq!(telemetry.snapshot().counter("wal.poisoned"), 1);
        assert_eq!(telemetry.snapshot().counter("fault.retries"), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_append_leaves_log_usable_after_disarm() {
        let dir = tmpdir("wal_disk_full");
        let fp = FailpointRegistry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let group = GroupWal::new(wal, Telemetry::new(), RetryPolicy::default());
        group.append(b"before").unwrap();
        fp.arm("durable.wal_append", 1, FailAction::DiskFull);
        // Disk-full is sticky and not retried: every append fails cleanly
        // with nothing written and no poisoning.
        assert!(matches!(group.append(b"a").unwrap_err(), StorageError::DiskFull(_)));
        assert!(matches!(group.append(b"b").unwrap_err(), StorageError::DiskFull(_)));
        assert!(!group.is_poisoned());
        fp.disarm("durable.wal_append");
        group.append(b"after").unwrap();
        drop(group);
        let rec = recovered(&dir, &fp);
        let payloads: Vec<&[u8]> = rec.frames.iter().map(|f| f.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"before".as_slice(), b"after".as_slice()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_append_rides_out_transient_append_faults() {
        let dir = tmpdir("wal_group_append_transient");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let policy = RetryPolicy { max_retries: 3, base_backoff_ns: 1, max_backoff_ns: 8 };
        let group = GroupWal::new(wal, telemetry.clone(), policy);
        fp.arm("durable.wal_append", 1, FailAction::TransientError { succeed_after: 2 });
        assert_eq!(group.append(b"ok").unwrap(), 1);
        assert!(!group.is_poisoned());
        assert_eq!(telemetry.snapshot().counter("fault.retries"), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_overlapped_append_runs_its_work_while_the_frame_is_flushed() {
        let dir = tmpdir("wal_overlap");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let telemetry = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let policy = RetryPolicy { max_retries: 4, base_backoff_ns: 1, max_backoff_ns: 8 };
        let group = GroupWal::new(wal, telemetry.clone(), policy);
        assert_eq!(group.append(b"plain").unwrap(), 1);
        // The flusher rides out a stall on its own thread; the caller's
        // work result comes back with the durable frame's LSN.
        fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 2 });
        assert_eq!(group.append_overlapped(b"beside", || "worked").unwrap(), (2, "worked"));
        assert_eq!(group.append_overlapped(b"again", || 7).unwrap(), (3, 7));
        assert_eq!(telemetry.snapshot().counter("fault.retries"), 2);
        assert!(!group.is_poisoned());
        drop(group);
        let payloads: Vec<Vec<u8>> =
            recovered(&dir, &fp).frames.into_iter().map(|f| f.payload).collect();
        assert_eq!(payloads, [b"plain".to_vec(), b"beside".to_vec(), b"again".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_overlapped_append_whose_flush_fails_drops_its_work_with_the_fsync_error() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Flag<'a>(&'a AtomicBool);
        impl Drop for Flag<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let dir = tmpdir("wal_overlap_fail");
        let fp = FailpointRegistry::new();
        let group = group(&dir, &fp);
        let dropped = AtomicBool::new(false);
        fp.arm("durable.wal_fsync", 1, FailAction::Error);
        // The fsync's own error, not the fail-stop answer of a follower.
        let err = group.append_overlapped(b"doomed", || Flag(&dropped)).map(|_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Injected(_)), "{err}");
        assert!(dropped.load(Ordering::Relaxed), "the work's result outlived its failed flush");
        assert!(group.is_poisoned());
        let after = group.append_overlapped(b"after", || ()).unwrap_err();
        assert!(matches!(after, StorageError::Poisoned(_)), "{after}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_overlapped_append_that_never_reached_the_log_runs_no_work() {
        let dir = tmpdir("wal_overlap_refused");
        let fp = FailpointRegistry::new();
        let group = group(&dir, &fp);
        fp.arm("durable.wal_append", 1, FailAction::Error);
        let mut ran = false;
        assert!(group.append_overlapped(b"refused", || ran = true).is_err());
        assert!(!ran && !group.is_poisoned());
        assert_eq!(group.append_overlapped(b"kept", || ()).unwrap().0, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = tmpdir("manifest");
        let fp = FailpointRegistry::new();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        write_manifest(&dir, 7, &fp).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(7));
        write_manifest(&dir, 8, &fp).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(8));
        let good = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x01;
            fs::write(dir.join(MANIFEST_FILE), &bad).unwrap();
            assert!(read_manifest(&dir).is_err(), "flip at byte {byte} accepted");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_file_validates_crc_and_lists_generations() {
        let dir = tmpdir("snapfile");
        let fp = FailpointRegistry::new();
        write_snapshot_file(&dir, 1, 10, b"payload one", &fp).unwrap();
        write_snapshot_file(&dir, 2, 20, b"payload two", &fp).unwrap();
        assert_eq!(list_snapshot_generations(&dir).unwrap(), vec![2, 1]);
        let (lsn, payload) = read_snapshot_file(&dir, 2).unwrap();
        assert_eq!((lsn, payload.as_slice()), (20, b"payload two".as_slice()));
        // Corrupt generation 2: every flip of every bit, header included,
        // must be detected.
        let path = snapshot_path(&dir, 2);
        let good = fs::read(&path).unwrap();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                fs::write(&path, &bad).unwrap();
                assert!(
                    read_snapshot_file(&dir, 2).is_err(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
        // A file of the previous format, `TSEDURS1` (same framing), is
        // refused as corrupt, like any other bad generation.
        let mut old = good.clone();
        old[..8].copy_from_slice(b"TSEDURS1");
        fs::write(&path, &old).unwrap();
        let refused = read_snapshot_file(&dir, 2).unwrap_err();
        assert!(matches!(refused, StorageError::Corrupt(_)), "{refused}");
        // Generation 1 is untouched — the fallback read succeeds.
        assert!(read_snapshot_file(&dir, 1).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_write_never_replaces_the_target() {
        let dir = tmpdir("snaptorn");
        let fp = FailpointRegistry::new();
        write_snapshot_file(&dir, 1, 5, b"generation one", &fp).unwrap();
        for keep in [0usize, 1, 8, 20, 27, 30] {
            fp.arm("durable.snapshot_write", 1, FailAction::TornWrite { keep_bytes: keep });
            let err = write_snapshot_file(&dir, 1, 6, b"generation two", &fp).unwrap_err();
            assert!(matches!(err, StorageError::SimulatedCrash(_)));
            let (lsn, payload) = read_snapshot_file(&dir, 1).unwrap();
            assert_eq!((lsn, payload.as_slice()), (5, b"generation one".as_slice()));
        }
        fs::remove_dir_all(&dir).ok();
    }
}
