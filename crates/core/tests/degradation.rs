//! Graceful-degradation tests: typed fault taxonomy, bounded retries,
//! the `Healthy → Degraded → (heal | Poisoned)` state machine, the
//! integrity scrubber's quarantine, and the WAL-only / full-replay
//! recovery fallbacks.

use std::path::{Path, PathBuf};
use std::time::Duration;

use tse_core::{DegradedReason, SharedSystem, SystemHealth};
use tse_object_model::{ModelError, ModelResult, Oid, PropertyDef, Value, ValueType};
use tse_storage::durable::snapshot_path;
use tse_storage::{FailAction, StorageError};
use tse_view::ViewId;

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_degrade_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open a fresh shared durable system with one class, one view, one object.
/// No checkpoint: the base schema lives in the WAL until a test asks for one.
fn seed(dir: &Path) -> (SharedSystem, ViewId, Oid) {
    let shared = SharedSystem::open(dir).unwrap();
    shared
        .define_base_class(
            "Person",
            &[],
            vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
        )
        .unwrap();
    let v1 = shared.create_view("VS", &["Person"]).unwrap();
    let oid = shared.writer().create(v1, "Person", &[("name", "ann".into())]).unwrap();
    (shared, v1, oid)
}

/// Flip one mid-file byte so the snapshot's CRC no longer matches.
fn corrupt(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

fn snapshot_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("snap-") && n.ends_with(".tse"))
        .collect()
}

/// The write a fault schedule is aimed at: a data write, or an evolve,
/// whose frame is structural.
#[derive(Clone, Copy, Debug)]
enum Input {
    Create,
    Evolve,
}

impl Input {
    /// Perform the write; `name` tells it apart from the input's other
    /// writes (an object's name, or the attribute the evolve adds).
    fn write(self, shared: &SharedSystem, v1: ViewId, name: &str) -> ModelResult<()> {
        match self {
            Input::Create => {
                shared.writer().create(v1, "Person", &[("name", name.into())]).map(drop)
            }
            Input::Evolve => shared
                .evolve_cmd("VS", &format!("add_attribute {name}: int = 0 to Person"))
                .map(drop),
        }
    }

    /// Did the write named `name` survive? `oid` is the seeded object.
    fn survived(self, shared: &SharedSystem, v1: ViewId, oid: Oid, name: &str) -> bool {
        let session = shared.session();
        match self {
            Input::Create => session.extent(v1, "Person").unwrap().iter().any(|o| {
                session.get(v1, *o, "Person", "name") == Ok(Value::Str(name.into()))
            }),
            Input::Evolve => {
                let current = session.current_view("VS").unwrap().id;
                session.get(current, oid, "Person", name) == Ok(Value::Int(0))
            }
        }
    }
}

#[test]
fn transient_faults_ride_out_within_the_retry_budget() {
    for input in [Input::Create, Input::Evolve] {
        let dir = tmpdir("transient");
        let (shared, v1, oid) = seed(&dir);
        let fp = shared.failpoints();
        fp.set_virtual_clock(true);
        let retries = || shared.telemetry().counter("fault.retries");

        // Two consecutive fsync stalls, then success: the write is acked on
        // the first try as far as the caller can tell, and health never
        // moves.
        let before = retries();
        fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 2 });
        input.write(&shared, v1, "age").unwrap();
        assert_eq!(retries() - before, 2, "{input:?}");
        assert_eq!(shared.health(), SystemHealth::Healthy);
        fp.disarm("durable.wal_fsync");

        // Same story for a transient append failure.
        let before = retries();
        fp.arm("durable.wal_append", 1, FailAction::TransientError { succeed_after: 1 });
        input.write(&shared, v1, "rank").unwrap();
        assert_eq!(retries() - before, 1, "{input:?}");
        assert_eq!(shared.health(), SystemHealth::Healthy);
        fp.disarm("durable.wal_append");
        drop(shared);

        // Both rode-out writes were really acked: they survive a reopen.
        let shared = SharedSystem::open(&dir).unwrap();
        for name in ["age", "rank"] {
            assert!(input.survived(&shared, v1, oid, name), "{input:?} {name}");
        }
    }
}

#[test]
fn backoff_schedule_is_deterministic_on_the_virtual_clock() {
    let dir = tmpdir("backoff");
    let (shared, v1, _oid) = seed(&dir);
    let fp = shared.failpoints();
    fp.set_virtual_clock(true);
    let retries_before = shared.telemetry().counter("fault.retries");
    assert_eq!(fp.virtual_slept_ns(), 0);

    // Three fsync failures → three retries sleeping 1 ms, 2 ms, 4 ms with
    // the default policy (base 1 ms, doubling). The virtual clock records
    // exactly what production would have slept, with zero real delay.
    fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 3 });
    shared.writer().create(v1, "Person", &[("name", "dee".into())]).unwrap();
    assert_eq!(shared.telemetry().counter("fault.retries") - retries_before, 3);
    assert_eq!(fp.virtual_slept_ns(), 7_000_000);
    assert_eq!(shared.health(), SystemHealth::Healthy);
}

#[test]
fn disk_full_degrades_to_read_only_and_heals() {
    let dir = tmpdir("disk_full");
    let (shared, v1, oid) = seed(&dir);
    let fp = shared.failpoints();

    // ENOSPC is never retried: the write fails once and the system drops to
    // read-only with the root cause recorded.
    fp.arm("durable.wal_append", 1, FailAction::DiskFull);
    let err = shared.writer().create(v1, "Person", &[("name", "eve".into())]).unwrap_err();
    assert!(err.to_string().contains("disk-full"), "{err}");
    assert_eq!(
        shared.health(),
        SystemHealth::Degraded { reason: DegradedReason::DiskFull }
    );

    // Writers now get typed backpressure without touching the WAL…
    match shared.writer().create(v1, "Person", &[("name", "fay".into())]).unwrap_err() {
        ModelError::Unavailable { reason, retry_after_ms } => {
            assert_eq!(reason, "disk_full");
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected Unavailable, got {other}"),
    }
    assert!(shared.telemetry().counter("health.rejected_writes") >= 1);

    // …and so does evolve, which is also a write.
    assert!(matches!(
        shared.evolve_cmd("VS", "add_attribute age: int = 0 to Person").unwrap_err(),
        ModelError::Unavailable { .. }
    ));

    // Reads keep serving throughout.
    let session = shared.session();
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));

    // Space reclaimed (failpoint disarmed) → heal: rotate the log, emergency
    // checkpoint, verify a round-trip append, and reopen for writes.
    fp.disarm("durable.wal_append");
    assert_eq!(shared.try_heal().unwrap(), SystemHealth::Healthy);
    assert_eq!(shared.health(), SystemHealth::Healthy);
    assert!(shared.telemetry().counter("durable.heals") >= 1);
    let gil = shared.writer().create(v1, "Person", &[("name", "gil".into())]).unwrap();

    // The whole episode is journaled.
    let journal = shared.telemetry().journal_lines();
    assert!(journal.contains("health.transition"), "missing health.transition event");
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.health(), SystemHealth::Healthy);
    let session = shared.session();
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));
    assert_eq!(session.get(v1, gil, "Person", "name").unwrap(), Value::Str("gil".into()));
}

#[test]
fn exhausted_retries_degrade_and_heal() {
    for input in [Input::Create, Input::Evolve] {
        let dir = tmpdir("exhausted");
        let (shared, v1, oid) = seed(&dir);
        let fp = shared.failpoints();
        fp.set_virtual_clock(true);

        // A stall that outlasts the whole retry budget: the write fails, the
        // group-commit log fail-stops (the fsync verdict is unknowable), and
        // health degrades with `retries_exhausted` as the root cause.
        fp.arm("durable.wal_fsync", 1, FailAction::TransientError { succeed_after: 100 });
        let err = input.write(&shared, v1, "hal").unwrap_err();
        assert!(err.to_string().contains("transient"), "{input:?}: {err}");
        let telemetry = shared.telemetry();
        assert!(telemetry.counter("fault.retries") >= 4, "{input:?}: budget spent before failing");
        assert_eq!(telemetry.counter("wal.poisoned"), 1, "{input:?}");
        assert_eq!(
            shared.health(),
            SystemHealth::Degraded { reason: DegradedReason::RetriesExhausted }
        );
        assert!(matches!(
            input.write(&shared, v1, "ivy").unwrap_err(),
            ModelError::Unavailable { .. }
        ));

        // Healing replaces the poisoned log with a freshly opened one, so the
        // same process resumes writing without a restart.
        fp.disarm("durable.wal_fsync");
        assert_eq!(shared.try_heal().unwrap(), SystemHealth::Healthy);
        input.write(&shared, v1, "jan").unwrap();
        drop(shared);

        let shared = SharedSystem::open(&dir).unwrap();
        assert!(input.survived(&shared, v1, oid, "jan"), "{input:?}");
    }
}

#[test]
fn permanent_fsync_fault_poisons_and_refuses_heal() {
    let dir = tmpdir("poison");
    let (shared, v1, oid) = seed(&dir);
    let fp = shared.failpoints();

    // A non-transient fsync failure: the log's durable contents are
    // unknowable, so the system fail-stops rather than degrade-and-heal.
    fp.arm("durable.wal_fsync", 1, FailAction::Error);
    assert!(shared.writer().create(v1, "Person", &[("name", "kim".into())]).is_err());
    assert_eq!(shared.health(), SystemHealth::Poisoned);

    // Healing in place is refused — it could silently ack lost writes.
    let err = shared.try_heal().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    assert_eq!(shared.health(), SystemHealth::Poisoned);

    // Writes surface the log's own fail-stop diagnostic, not Unavailable
    // backpressure (there is no retry_after that would help).
    let err = shared.writer().create(v1, "Person", &[("name", "lou".into())]).unwrap_err();
    assert!(err.to_string().contains("poison"), "{err}");
    drop(shared);

    // Restart-and-recover is the only exit: the reopened system is healthy
    // and serves every write acked before the fault.
    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.health(), SystemHealth::Healthy);
    let session = shared.session();
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));
    shared.writer().create(v1, "Person", &[("name", "mia".into())]).unwrap();
}

#[test]
fn fresh_directory_recovers_from_the_wal_alone() {
    // Satellite: DefineClass / CreateView are WAL frame kinds, so a fresh
    // directory that never checkpointed is fully recoverable — no seed
    // snapshot required.
    let dir = tmpdir("wal_only");
    let (shared, v1, oid) = seed(&dir);
    shared
        .define_base_class("Student", &["Person"], vec![])
        .unwrap();
    let vall = shared.create_view_all("ALL").unwrap();
    drop(shared);

    assert!(snapshot_files(&dir).is_empty(), "no snapshot may exist before a checkpoint");

    let shared = SharedSystem::open(&dir).unwrap();
    assert!(shared.telemetry().counter("recovery.replayed") >= 4);
    let session = shared.session();
    assert_eq!(session.current_view("VS").unwrap().id, v1);
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));
    assert_eq!(session.extent(vall, "Person").unwrap().len(), 1);
    // The replayed schema accepts new subclass objects immediately.
    shared.writer().create(v1, "Person", &[("name", "ned".into())]).unwrap();
}

#[test]
fn multi_generation_fallback_and_scrub_quarantine() {
    // Satellite: corrupt the two newest snapshot generations; recovery must
    // land on the oldest valid one, and the scrubber must quarantine both
    // corpses so no future recovery trips over them.
    let dir = tmpdir("multigen");
    let (shared, v1, oid) = seed(&dir);
    assert_eq!(shared.checkpoint().unwrap(), 1);
    shared.writer().create(v1, "Person", &[("name", "gen2".into())]).unwrap();
    assert_eq!(shared.checkpoint().unwrap(), 2);
    shared.writer().create(v1, "Person", &[("name", "gen3".into())]).unwrap();
    assert_eq!(shared.checkpoint().unwrap(), 3);
    drop(shared);

    corrupt(&snapshot_path(&dir, 3));
    corrupt(&snapshot_path(&dir, 2));

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.snapshots_skipped"), 2);
    assert_eq!(shared.generation(), Some(1));
    let session = shared.session();
    // Stale by the checkpointed delta, but consistent.
    assert_eq!(session.extent(v1, "Person").unwrap(), vec![oid]);
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));

    let report = shared.scrub_now().unwrap();
    let mut quarantined = report.quarantined.clone();
    quarantined.sort_unstable();
    assert_eq!(quarantined, vec![2, 3]);
    assert!(!report.manifest_ok, "manifest still names the quarantined generation 3");
    assert_eq!(shared.telemetry().counter("scrub.quarantined"), 2);
    for gen in [2u64, 3] {
        let snap = snapshot_path(&dir, gen);
        assert!(!snap.exists(), "gen {gen} must be moved aside");
        let mut q = snap.into_os_string();
        q.push(".quarantine");
        assert!(PathBuf::from(q).exists(), "gen {gen} quarantine file missing");
    }

    // The next checkpoint repairs the manifest; a second scrub is clean.
    assert_eq!(shared.checkpoint().unwrap(), 2);
    assert!(shared.scrub_now().unwrap().clean());

    // The background scrubber drives the same pass on a timer.
    let runs_before = shared.telemetry().counter("scrub.runs");
    let handle = shared.start_scrubber(Duration::from_millis(5));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while shared.telemetry().counter("scrub.runs") == runs_before {
        assert!(std::time::Instant::now() < deadline, "background scrubber never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.stop();
}

#[test]
fn full_replay_rebuilds_when_every_snapshot_is_corrupt() {
    // Checkpoint crashes between the snapshot rename and the manifest
    // write, then the orphaned snapshot rots: with zero readable
    // generations but a complete log (first frame lsn 1), recovery rebuilds
    // the whole system from the WAL instead of refusing to start.
    let dir = tmpdir("full_replay");
    let (shared, v1, oid) = seed(&dir);
    shared.failpoints().arm("durable.manifest_write", 1, FailAction::Crash);
    assert!(shared.checkpoint().is_err());
    assert_eq!(shared.health(), SystemHealth::Healthy, "a crashed checkpoint is not a health fault");
    drop(shared);

    assert!(snapshot_path(&dir, 1).exists());
    corrupt(&snapshot_path(&dir, 1));

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.full_replay"), 1);
    assert_eq!(shared.telemetry().counter("recovery.snapshots_skipped"), 1);
    assert_eq!(shared.generation(), Some(1), "corrupt generation number stays reserved");
    let session = shared.session();
    assert_eq!(session.get(v1, oid, "Person", "name").unwrap(), Value::Str("ann".into()));

    // Life goes on: the next checkpoint opens generation 2 and the corrupt
    // generation 1 is the scrubber's to quarantine.
    assert_eq!(shared.checkpoint().unwrap(), 2);
    let report = shared.scrub_now().unwrap();
    assert_eq!(report.quarantined, vec![1]);
}

#[test]
fn an_injected_fault_is_counted_whichever_write_op_it_fires_under() {
    // The first write of an attribute an evolve added materialises the
    // object's slice of the new class — a `storage.insert` under an op that
    // is neither `create` nor `set`. The same op's WAL append is the other
    // place a fault can fire, and must be counted once too.
    for site in ["storage.insert", "durable.wal_append"] {
        let dir = tmpdir("fault_counted");
        let (shared, _v1, oid) = seed(&dir);
        let v2 = shared.evolve_cmd("VS", "add_attribute rank: int = 0 to Person").unwrap().view;
        let writer = shared.writer();

        shared.failpoints().arm(site, 1, FailAction::Error);
        let err = writer
            .update_where(v2, "Person", "name == \"ann\"", &[("rank", Value::Int(7))])
            .unwrap_err();
        assert!(matches!(err, ModelError::Storage(StorageError::Injected(_))), "{site}: {err}");
        let telemetry = shared.telemetry();
        assert_eq!(telemetry.counter("fault.injected"), 1, "{site}: the forensics gate sees it");
        assert_eq!(shared.health(), SystemHealth::Healthy, "{site}: clean, not a log fault");

        // One shot: the same op goes through afterwards.
        assert_eq!(
            writer
                .update_where(v2, "Person", "name == \"ann\"", &[("rank", Value::Int(7))])
                .unwrap(),
            1
        );
        assert_eq!(shared.session().get(v2, oid, "Person", "rank").unwrap(), Value::Int(7));
        assert_eq!(telemetry.counter("fault.injected"), 1, "{site}");
    }
}

#[test]
fn an_injected_fault_in_a_composite_evolve_is_counted_once() {
    // `insert_class` expands into two primitives, each a nested evolve. A
    // fault in the first is counted once, by the shared system's evolve,
    // not once per nesting level it unwinds through.
    let shared = SharedSystem::new();
    shared.define_base_class("Person", &[], vec![]).unwrap();
    shared.define_base_class("Student", &["Person"], vec![]).unwrap();
    shared.create_view("VS", &["Person", "Student"]).unwrap();
    shared.failpoints().arm("evolve.translate", 1, FailAction::Error);
    let err = shared.evolve_cmd("VS", "insert_class Mid between Person - Student").unwrap_err();
    assert!(matches!(err, ModelError::Storage(StorageError::Injected(_))), "{err}");
    let telemetry = shared.telemetry();
    assert_eq!(telemetry.counter("fault.injected"), 1);
    assert_eq!(telemetry.journal_lines().matches("fault.fired").count(), 1);
}
