//! Failure orderings of an evolve whose WAL frame is fsynced while its
//! fork evolves (DESIGN.md §9, *write-ahead rule*): the fork runs beside the
//! flush, but nothing is published before the frame is durable.
//!
//! - a permanent fsync fault while the fork evolves refuses the evolve with
//!   that fault, poisons the system and publishes nothing;
//! - a clean fork failure while the fsync is in flight truncates the frame
//!   and publishes nothing;
//! - a crash of the fork while the fsync is in flight poisons the log, and
//!   the reopen redoes the durable frame.
//!
//! Each holds live and after a reopen, audited by
//! [`History::check`](tse_workload::history::History::check).

use std::path::{Path, PathBuf};

use tse_core::{SharedSystem, SystemHealth, TseCode, TseSystem};
use tse_object_model::{PropertyDef, Value, ValueType};
use tse_storage::{FailAction, RetryPolicy, StoreConfig};
use tse_view::ViewId;
use tse_workload::history::{History, Op};

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_evolve_flush_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_schema(sys: &SharedSystem) {
    sys.define_base_class(
        "Person",
        &[],
        vec![
            PropertyDef::stored("name", ValueType::Str, Value::Null),
            PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
        ],
    )
    .unwrap();
    sys.define_base_class("Student", &["Person"], vec![]).unwrap();
    sys.create_view("VS", &["Person", "Student"]).unwrap();
}

/// A stall that keeps a frame's fsync in flight for the whole fork: two
/// failed attempts and their backoffs (20 ms, then 40 ms) come before the
/// fsync that lands.
const STALL: FailAction = FailAction::TransientError { succeed_after: 2 };

/// Flushes that have landed: one `wal.group_size` sample each.
fn flushes(sys: &SharedSystem) -> u64 {
    sys.telemetry().snapshot().histograms.get("wal.group_size").map_or(0, |h| h.count)
}

/// A durable system on `dir` whose transient faults back off on the real
/// clock, with the seed schema and two acked creates.
fn open_seeded(dir: &Path) -> (SharedSystem, History) {
    let sys = open(dir);
    seed_schema(&sys);
    let mut history = History::new("VS", "Student", "age", seed_schema);
    for tag in 0..2 {
        let op = Op::Create { tag, values: vec![("name".into(), Value::Str(format!("s{tag}")))] };
        history.issue(&sys.client("VS"), op).unwrap();
    }
    (sys, history)
}

fn open(dir: &Path) -> SharedSystem {
    let retry =
        RetryPolicy { max_retries: 4, base_backoff_ns: 20_000_000, max_backoff_ns: 80_000_000 };
    let config = StoreConfig { retry, ..StoreConfig::default() };
    TseSystem::builder(dir).store_config(config).open().unwrap()
}

fn add_attribute() -> Op {
    Op::Evolve { command: "add_attribute credits: int = 3 to Student".into() }
}

fn versions(sys: &SharedSystem) -> Vec<ViewId> {
    sys.session().meta().views().versions("VS").unwrap().to_vec()
}

/// The store on `dir`, reopened, against `history`.
fn check_after_reopen(dir: &Path, history: &History) -> SharedSystem {
    let sys = open(dir);
    assert_eq!(sys.health(), SystemHealth::Healthy);
    history.check(&sys.client("VS")).unwrap_or_else(|e| panic!("after a reopen: {e}"));
    sys
}

#[test]
fn a_permanent_fsync_fault_while_the_fork_evolves_refuses_it_and_publishes_nothing() {
    let dir = tmpdir("fsync_error");
    let (sys, mut history) = open_seeded(&dir);
    let (epoch, before) = (sys.epoch(), versions(&sys));

    sys.failpoints().arm("durable.wal_fsync", 1, FailAction::Error);
    let err = history.issue(&sys.client("VS"), add_attribute()).unwrap_err();
    // The fsync's own fault, not the fail-stop answer a follower gets: the
    // health machine moved on it.
    assert_eq!(err.code(), TseCode::Internal, "{err}");
    assert!(err.to_string().contains("durable.wal_fsync"), "{err}");
    assert_eq!(sys.health(), SystemHealth::Poisoned);
    assert_eq!(sys.epoch(), epoch, "an epoch published through a failed fsync");
    assert_eq!(versions(&sys), before, "a version published through a failed fsync");
    history.check(&sys.client("VS")).unwrap_or_else(|e| panic!("live: {e}"));
    drop(sys);

    // The frame may have reached the disk: the reopen may redo the change
    // or not, and the history resolves the unacked evolve either way.
    let sys = check_after_reopen(&dir, &history);
    assert!(versions(&sys).len() <= before.len() + 1);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_fork_failure_while_the_fsync_is_in_flight_truncates_the_frame() {
    let dir = tmpdir("classify_error");
    let (sys, mut history) = open_seeded(&dir);
    let (epoch, before, wal_len) = (sys.epoch(), versions(&sys), sys.wal_len());
    let landed = flushes(&sys);

    sys.failpoints().arm("durable.wal_fsync", 1, STALL);
    sys.failpoints().arm("evolve.classify", 1, FailAction::Error);
    let err = history.issue(&sys.client("VS"), add_attribute()).unwrap_err();
    assert!(err.to_string().contains("evolve.classify"), "{err}");
    // The refusal waited for its frame's flush, which rode out the stall,
    // before it cut the frame.
    assert_eq!(flushes(&sys), landed + 1, "the refusal answered before its frame's flush landed");
    assert_eq!(sys.wal_len(), wal_len, "the refused evolve's frame stayed in the log");
    assert_eq!(sys.epoch(), epoch);
    assert_eq!(versions(&sys), before);
    assert_eq!(sys.health(), SystemHealth::Healthy);
    history.check(&sys.client("VS")).unwrap_or_else(|e| panic!("live: {e}"));
    drop(sys);

    let sys = check_after_reopen(&dir, &history);
    assert_eq!(versions(&sys), before, "the reopen replayed a refused evolve");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_of_the_fork_while_the_fsync_is_in_flight_poisons_and_the_reopen_redoes_it() {
    let dir = tmpdir("swap_in_crash");
    let (sys, mut history) = open_seeded(&dir);
    let (epoch, before) = (sys.epoch(), versions(&sys));
    let landed = flushes(&sys);

    sys.failpoints().arm("durable.wal_fsync", 1, STALL);
    sys.failpoints().arm("evolve.swap_in", 1, FailAction::Crash);
    let err = history.issue(&sys.client("VS"), add_attribute()).unwrap_err();
    assert!(err.to_string().contains("evolve.swap_in"), "{err}");
    assert_eq!(flushes(&sys), landed + 1, "the crash answered before its frame's flush landed");
    assert_eq!(sys.health(), SystemHealth::Poisoned);
    assert_eq!(sys.epoch(), epoch);
    assert_eq!(versions(&sys), before);
    let probe = sys.writer().create(before[0], "Student", &[("age", Value::Int(9))]);
    assert!(probe.is_err(), "a write landed behind a change the live system never applied");
    drop(sys);

    let sys = check_after_reopen(&dir, &history);
    assert_eq!(versions(&sys).len(), before.len() + 1, "the reopen did not redo the logged change");
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}
