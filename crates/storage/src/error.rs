//! Error type for the storage layer.

use std::fmt;

/// Result alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the paged store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The referenced segment does not exist (never created or dropped).
    UnknownSegment(u32),
    /// The referenced record slot does not exist or has been freed.
    UnknownRecord {
        /// Segment the record was looked up in.
        segment: u32,
        /// Slot index inside the segment.
        slot: u32,
    },
    /// A field index was out of bounds for the record.
    FieldOutOfBounds {
        /// Requested field index.
        index: usize,
        /// Actual number of fields in the record.
        len: usize,
    },
    /// Snapshot bytes were malformed.
    Corrupt(String),
    /// An operating-system I/O failure in the durable layer.
    Io(String),
    /// The write-ahead log refused an operation because an earlier fsync
    /// failed. After a failed fsync the kernel may have dropped the dirty
    /// pages, so the log's durable contents are unknowable — the only safe
    /// behavior is fail-stop: no further appends, reopen from disk.
    Poisoned(String),
    /// A failpoint fired with [`crate::FailAction::Error`]: a clean,
    /// injected failure the caller is expected to recover from by dropping
    /// what it was building. Carries the site name.
    Injected(String),
    /// A failpoint simulated a process crash at this site. Callers must
    /// propagate it without cleanup — in-memory state is considered torn,
    /// like after a real crash; tests then re-open the system from disk.
    SimulatedCrash(String),
    /// A transient I/O failure (e.g. `EINTR`, a momentary device stall, or
    /// an injected [`crate::FailAction::TransientError`]). Nothing was
    /// written; retrying the same operation may succeed. The retry loop in
    /// [`crate::fault::with_retries`] only retries this kind.
    Transient(String),
    /// The device is out of space (`ENOSPC` or an injected
    /// [`crate::FailAction::DiskFull`]). Retrying without freeing space is
    /// pointless — callers should degrade to read-only and reclaim space
    /// (checkpoint + log reset) before healing.
    DiskFull(String),
}

impl StorageError {
    /// True for [`StorageError::SimulatedCrash`] — callers that normally
    /// clean up use this to leave state torn, as a real crash would.
    pub fn is_crash(&self) -> bool {
        matches!(self, StorageError::SimulatedCrash(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            StorageError::UnknownRecord { segment, slot } => {
                write!(f, "unknown record {segment}:{slot}")
            }
            StorageError::FieldOutOfBounds { index, len } => {
                write!(f, "field index {index} out of bounds (record has {len} fields)")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            StorageError::Io(msg) => write!(f, "durable i/o error: {msg}"),
            StorageError::Poisoned(msg) => write!(f, "wal poisoned: {msg}"),
            StorageError::Injected(site) => write!(f, "injected fault at {site}"),
            StorageError::SimulatedCrash(site) => write!(f, "simulated crash at {site}"),
            StorageError::Transient(msg) => write!(f, "transient i/o error: {msg}"),
            StorageError::DiskFull(msg) => write!(f, "disk full: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(StorageError::UnknownSegment(3).to_string(), "unknown segment 3");
        assert_eq!(
            StorageError::UnknownRecord { segment: 1, slot: 2 }.to_string(),
            "unknown record 1:2"
        );
        assert_eq!(
            StorageError::FieldOutOfBounds { index: 9, len: 2 }.to_string(),
            "field index 9 out of bounds (record has 2 fields)"
        );
        assert!(StorageError::Corrupt("bad magic".into()).to_string().contains("bad magic"));
    }
}
