//! # tse-storage — paged persistent object store
//!
//! The substrate layer of the TSE (Transparent Schema Evolution) system.
//! The original paper (Ra & Rundensteiner, ICDE 1995) builds its prototype on
//! GemStone 3.2, which it uses for "persistent storage, concurrency control,
//! etc.". This crate is the from-scratch replacement for that platform layer:
//!
//! * **Segments** — one per class, so that the *slices* of the object-slicing
//!   object model cluster together on disk. The paper's Table 1 argues that
//!   "slices of the objects of the same attributes tend to cluster and ...
//!   one page access should be sufficient"; segments make that claim
//!   measurable.
//! * **Pages** — fixed-size pages inside a segment. Every record access is
//!   routed through a small LRU buffer pool and counted, so benchmarks can
//!   report logical accesses, buffer hits, and simulated I/O misses.
//! * **Records** — a record is an ordered list of payload fields. The payload
//!   type is generic ([`Payload`]); the object model instantiates it with its
//!   `Value` type.
//! * **MVCC** — every record carries a small version chain stamped by a
//!   shared [`EpochClock`]; readers pin an epoch ([`mvcc`]) and resolve
//!   the version visible at it, so writers install new versions without
//!   ever blocking readers, `fork_shared` makes the control plane's fork a
//!   copy-free handle clone, and `SliceStore::gc` reclaims superseded
//!   versions once the oldest pin advances. There are no store
//!   transactions: a schema change adds capacity and moves no data, so its
//!   fork writes nothing here, and a failed change drops the fork.
//! * **Snapshots** — a hand-rolled binary codec (over [`bytes`]):
//!   [`SliceStore::encode_into`] / [`SliceStore::decode_from`] write and
//!   read an entire store as one section of a snapshot payload, with no
//!   magic or checksum of its own. The payload's one check is the CRC of
//!   the snapshot file that holds it, so torn or bit-rotted bytes are
//!   rejected there instead of mis-decoded.
//! * **Durability** — the [`durable`] module: snapshot generations checked
//!   by one CRC each, written via temp-file + atomic rename + fsync, a
//!   CRC32-framed write-ahead log with torn-tail truncation, and the
//!   manifest naming the current generation.
//! * **Failpoints** — a [`FailpointRegistry`] of deterministic fault
//!   injection sites threaded through mutation and persistence paths, so
//!   crash-recovery tests can kill the system at any point.
//!
//! The store is internally synchronised: segments are partitioned across
//! `StoreConfig::write_stripes` lock stripes (keyed by `SegmentId % N`, each
//! stripe with its own buffer pool), so record operations on different class
//! segments run concurrently from `&self`. Cross-stripe operations —
//! totals, snapshot encoding — acquire stripes in canonical index order,
//! keeping them deadlock-free against single-stripe writers. Stripe
//! contention is observable as `stripe.conflicts` / `lock.stripe_wait_ns`
//! once a telemetry domain is attached via `SliceStore::set_telemetry`.

#![warn(missing_docs)]

mod buffer;
mod crc;
pub mod durable;
mod error;
mod failpoint;
pub mod fault;
pub mod mvcc;
mod page;
pub mod payload;
mod segment;
pub mod scrub;
mod snapshot;
mod stats;
mod store;

pub use crc::{crc32, Crc32};
pub use error::{StorageError, StorageResult};
pub use failpoint::{FailAction, FailpointRegistry};
pub use fault::{with_retries, IoFaultKind, RetryPolicy};
pub use mvcc::{
    current_read_epoch, current_write_stamp, EpochClock, ReadEpochGuard, ReadPin,
    WriteStampGuard, WriteTicket,
};
pub use scrub::{scrub_dir, GenerationStatus, ScrubReport};
pub use segment::VersionChain;
pub use payload::{Payload, SimplePayload};
pub use stats::StoreStats;
pub use store::{ReadCursor, RecordId, SegmentId, SliceStore, StoreConfig};
