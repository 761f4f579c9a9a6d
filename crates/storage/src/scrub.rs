//! Online integrity scrubber for a durable system directory.
//!
//! Recovery only discovers a corrupt snapshot generation when it tries to
//! restart from it — possibly weeks after the bytes rotted. The scrubber
//! moves that discovery online: [`scrub_dir`] re-validates the CRC of every
//! snapshot generation, cross-checks the MANIFEST pointer, and walks the WAL
//! frames, all without mutating live state. The one mutation it performs is
//! *quarantine*: a generation whose bytes fail validation is renamed to
//! `snap-<gen>.tse.quarantine` so that recovery's generation scan (which
//! matches only `snap-*.tse`) skips it outright and falls back to an older
//! valid generation instead of wasting a decode attempt — while the bytes
//! stay on disk for forensics.
//!
//! Scrub reads honour the `scrub.read` failpoint and retry transient faults
//! with the caller's [`RetryPolicy`]; a read that stays unreadable is
//! reported but **not** quarantined (an I/O stall is not evidence of
//! corruption).
//!
//! The WAL walk is recovery's own, [`crate::durable::walk_frames`]. It
//! distinguishes a *torn tail* — trailing bytes too short to frame, or a
//! frame that runs into the pre-written zeros past the log's end, normal
//! when a crash interrupted an append or when a live system is appending
//! concurrently — from *interior corruption*: a full-length frame whose CRC
//! fails. Pre-written zeros are a clean end, never counted as torn. The
//! scrubber reports; recovery truncates at the same point.
//! Callers scanning a live directory should bound the walk
//! with `wal_valid_len` (the log length under its lock) so in-flight appends
//! past that point are never misread.
//!
//! Telemetry: counter `scrub.runs` per scrub, `scrub.quarantined` per
//! quarantined generation, events `scrub.quarantined`, `scrub.manifest_stale`
//! and `scrub.wal_corrupt`, and a `scrub.complete` summary event.

use std::fs;
use std::path::Path;

use tse_telemetry::Telemetry;

use crate::durable::{
    list_snapshot_generations, read_manifest, read_snapshot_file, snapshot_path, sync_dir,
    walk_frames, FrameWalk, WalkEnd, WAL_FILE,
};
use crate::error::{StorageError, StorageResult};
use crate::failpoint::FailpointRegistry;
use crate::fault::{with_retries, RetryPolicy};

/// Verdict on one snapshot generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerationStatus {
    /// CRC and framing check out; the generation is a valid recovery target.
    Valid {
        /// WAL LSN the generation covers.
        wal_lsn: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The bytes failed validation; the file was renamed to
    /// `.quarantine` so recovery never considers it again.
    Quarantined {
        /// The validation error that condemned it.
        error: String,
    },
    /// The file could not be read even after retries (I/O, not corruption);
    /// left in place — an unreadable disk is not evidence of rot.
    Unreadable {
        /// The I/O error.
        error: String,
    },
}

/// Everything one scrub pass learned about a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Per-generation verdicts, newest generation first.
    pub generations: Vec<(u64, GenerationStatus)>,
    /// Generations quarantined by this pass.
    pub quarantined: Vec<u64>,
    /// Generation the MANIFEST points at, when it is readable.
    pub manifest_generation: Option<u64>,
    /// False when the MANIFEST is corrupt, or names a generation that is
    /// missing or was quarantined — recovery will fall back to scanning.
    pub manifest_ok: bool,
    /// Complete, CRC-valid WAL frames.
    pub wal_frames: u64,
    /// Trailing bytes of an in-flight or crash-torn append — expected, not
    /// corruption. Pre-written zeros are not counted.
    pub wal_torn_bytes: u64,
    /// True when a *full-length* WAL frame failed its CRC: interior rot,
    /// not a torn tail. Recovery would truncate the log here.
    pub wal_corrupt: bool,
}

impl ScrubReport {
    /// True when nothing alarming was found.
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.manifest_ok && !self.wal_corrupt
    }
}

/// One scrub pass over `dir`. `wal_valid_len` bounds the WAL walk for live
/// directories (pass the log length under its lock); `None` walks the whole
/// file. See the module docs for semantics.
pub fn scrub_dir(
    dir: &Path,
    fp: &FailpointRegistry,
    policy: &RetryPolicy,
    telemetry: &Telemetry,
    wal_valid_len: Option<u64>,
) -> StorageResult<ScrubReport> {
    telemetry.incr("scrub.runs", 1);
    let gens = list_snapshot_generations(dir)?;
    let mut generations = Vec::with_capacity(gens.len());
    let mut quarantined = Vec::new();
    for gen in gens {
        let verdict = scrub_generation(dir, gen, fp, policy, telemetry);
        if matches!(verdict, GenerationStatus::Quarantined { .. }) {
            quarantined.push(gen);
        }
        generations.push((gen, verdict));
    }

    let manifest_generation = read_manifest(dir).ok().flatten();
    let manifest_ok = match read_manifest(dir) {
        Ok(None) => true, // fresh directory: nothing to point at
        Ok(Some(g)) => generations
            .iter()
            .any(|(gen, st)| *gen == g && matches!(st, GenerationStatus::Valid { .. })),
        Err(_) => false,
    };
    if !manifest_ok {
        telemetry.event(
            "scrub.manifest_stale",
            &[("generation", format!("{manifest_generation:?}").into())],
        );
    }

    let wal = scrub_wal(dir, wal_valid_len)?;
    let wal_frames = wal.frames.len() as u64;
    let wal_corrupt = wal.end == WalkEnd::Corrupt;
    if wal_corrupt {
        telemetry.event("scrub.wal_corrupt", &[("valid_frames", wal_frames.into())]);
    }

    let report = ScrubReport {
        generations,
        quarantined,
        manifest_generation,
        manifest_ok,
        wal_frames,
        wal_torn_bytes: wal.torn_bytes,
        wal_corrupt,
    };
    telemetry.event(
        "scrub.complete",
        &[
            ("quarantined", report.quarantined.len().into()),
            ("wal_frames", report.wal_frames.into()),
            ("clean", report.clean().into()),
        ],
    );
    Ok(report)
}

fn scrub_generation(
    dir: &Path,
    gen: u64,
    fp: &FailpointRegistry,
    policy: &RetryPolicy,
    telemetry: &Telemetry,
) -> GenerationStatus {
    let read = with_retries(
        policy,
        fp,
        |_, _, _| telemetry.incr("fault.retries", 1),
        || {
            fp.check("scrub.read")?;
            read_snapshot_file(dir, gen)
        },
    );
    match read {
        Ok((wal_lsn, payload)) => {
            GenerationStatus::Valid { wal_lsn, bytes: payload.len() as u64 }
        }
        Err(StorageError::Corrupt(msg)) => {
            let from = snapshot_path(dir, gen);
            let mut to = from.as_os_str().to_owned();
            to.push(".quarantine");
            // Rename + dir fsync so the quarantine itself survives a crash;
            // if the rename fails the file stays in place and the next
            // scrub (or recovery's own fallback) deals with it.
            let renamed = fs::rename(&from, std::path::PathBuf::from(to))
                .map_err(|e| StorageError::Io(format!("quarantine rename: {e}")))
                .and_then(|()| sync_dir(dir));
            telemetry.incr("scrub.quarantined", 1);
            telemetry.event(
                "scrub.quarantined",
                &[
                    ("generation", gen.into()),
                    ("error", msg.as_str().into()),
                    ("renamed", renamed.is_ok().into()),
                ],
            );
            GenerationStatus::Quarantined { error: msg }
        }
        Err(e) => GenerationStatus::Unreadable { error: e.to_string() },
    }
}

/// Walk the WAL read-only, up to `valid_len` when given.
fn scrub_wal(dir: &Path, valid_len: Option<u64>) -> StorageResult<FrameWalk> {
    let bytes = match fs::read(dir.join(WAL_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StorageError::Io(format!("scrub wal read: {e}"))),
    };
    let bound = valid_len.map(|n| (n as usize).min(bytes.len())).unwrap_or(bytes.len());
    Ok(walk_frames(&bytes[..bound]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{write_manifest, write_snapshot_file, GroupWal, Wal};
    use crate::failpoint::FailAction;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tse_scrub_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn flip_byte(path: &Path, offset: usize) {
        let mut bytes = fs::read(path).unwrap();
        let i = offset.min(bytes.len() - 1);
        bytes[i] ^= 0x5a;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn clean_directory_scrubs_clean() {
        let dir = tmpdir("clean");
        let fp = FailpointRegistry::new();
        let t = Telemetry::new();
        write_snapshot_file(&dir, 1, 5, b"one", &fp).unwrap();
        write_snapshot_file(&dir, 2, 9, b"two", &fp).unwrap();
        write_manifest(&dir, 2, &fp).unwrap();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let wal = GroupWal::new(wal, t.clone(), RetryPolicy::none());
        wal.append(b"frame").unwrap();
        // The file holds pre-written zeros past the frame: a clean tail.
        assert!(fs::metadata(dir.join(WAL_FILE)).unwrap().len() > wal.len());
        let report = scrub_dir(&dir, &fp, &RetryPolicy::none(), &t, None).unwrap();
        assert!(report.clean());
        assert_eq!(report.generations.len(), 2);
        assert_eq!(report.manifest_generation, Some(2));
        assert_eq!(report.wal_frames, 1);
        assert_eq!(report.wal_torn_bytes, 0);
        assert_eq!(t.snapshot().counter("scrub.runs"), 1);
        assert_eq!(t.snapshot().counter("scrub.quarantined"), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_generation_is_quarantined_and_hidden_from_recovery() {
        let dir = tmpdir("quarantine");
        let fp = FailpointRegistry::new();
        let t = Telemetry::new();
        write_snapshot_file(&dir, 1, 5, b"good payload", &fp).unwrap();
        write_snapshot_file(&dir, 2, 9, b"doomed payload", &fp).unwrap();
        write_manifest(&dir, 2, &fp).unwrap();
        flip_byte(&snapshot_path(&dir, 2), 30);
        let report = scrub_dir(&dir, &fp, &RetryPolicy::none(), &t, None).unwrap();
        assert_eq!(report.quarantined, vec![2]);
        assert!(!report.manifest_ok, "manifest points at the quarantined generation");
        assert!(!report.clean());
        // The quarantined file no longer matches the snap-*.tse scan, so
        // recovery falls straight back to generation 1; the bytes survive
        // under the .quarantine name for forensics.
        assert_eq!(list_snapshot_generations(&dir).unwrap(), vec![1]);
        let q = dir.join(format!("snap-{:016}.tse.quarantine", 2u64));
        assert!(q.exists());
        assert_eq!(t.snapshot().counter("scrub.quarantined"), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_scrub_read_faults_are_retried() {
        let dir = tmpdir("retry");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let t = Telemetry::new();
        write_snapshot_file(&dir, 1, 5, b"payload", &fp).unwrap();
        fp.arm("scrub.read", 1, FailAction::TransientError { succeed_after: 2 });
        let policy = RetryPolicy { max_retries: 3, base_backoff_ns: 1, max_backoff_ns: 8 };
        let report = scrub_dir(&dir, &fp, &policy, &t, None).unwrap();
        assert!(matches!(report.generations[0].1, GenerationStatus::Valid { .. }));
        assert!(report.quarantined.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_generation_is_not_quarantined() {
        let dir = tmpdir("unreadable");
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        let t = Telemetry::new();
        write_snapshot_file(&dir, 1, 5, b"payload", &fp).unwrap();
        fp.arm("scrub.read", 1, FailAction::TransientError { succeed_after: u64::MAX });
        let policy = RetryPolicy { max_retries: 2, base_backoff_ns: 1, max_backoff_ns: 8 };
        let report = scrub_dir(&dir, &fp, &policy, &t, None).unwrap();
        assert!(matches!(report.generations[0].1, GenerationStatus::Unreadable { .. }));
        assert!(snapshot_path(&dir, 1).exists(), "file left in place");
        assert_eq!(t.snapshot().counter("scrub.quarantined"), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_interior_rot_vs_torn_tail() {
        let dir = tmpdir("wal_rot");
        let fp = FailpointRegistry::new();
        let t = Telemetry::new();
        let (wal, _) = Wal::open(&dir, fp.clone()).unwrap();
        let wal = GroupWal::new(wal, t.clone(), RetryPolicy::none());
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        let clean_len = wal.len() as usize;
        drop(wal);
        // Append a torn tail by hand to the frames: half a header.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        bytes.truncate(clean_len);
        bytes.extend_from_slice(&[0xAA; 7]);
        fs::write(&wal_path, &bytes).unwrap();
        let report = scrub_dir(&dir, &fp, &RetryPolicy::none(), &t, None).unwrap();
        assert_eq!(report.wal_frames, 2);
        assert_eq!(report.wal_torn_bytes, 7);
        assert!(!report.wal_corrupt, "a torn tail is pending work, not rot");

        // Now flip a byte inside the *first* frame: interior corruption.
        flip_byte(&wal_path, 18);
        let report = scrub_dir(&dir, &fp, &RetryPolicy::none(), &t, None).unwrap();
        assert_eq!(report.wal_frames, 0);
        assert!(report.wal_corrupt);

        // A valid-length bound hides concurrent appends past it.
        fs::write(&wal_path, &bytes[..clean_len]).unwrap();
        let report = scrub_dir(&dir, &fp, &RetryPolicy::none(), &t, Some(21)).unwrap();
        assert_eq!(report.wal_frames, 1, "only the first frame is inside the bound");
        fs::remove_dir_all(&dir).ok();
    }
}
