//! Fault-injected durability tests: the system is killed at every
//! registered failpoint site and must recover to a consistent state from
//! disk, with the outcome visible in the `recovery.*` / `fault.*`
//! telemetry counters.

use std::path::{Path, PathBuf};

use tse_core::{SchemaChange, SharedSystem, SystemHealth, TseCode, TseError, TseSystem};
use tse_object_model::{Oid, PropertyDef, Value, ValueType};
use tse_storage::durable::read_snapshot_file;
use tse_storage::{FailAction, StoreConfig};
use tse_view::ViewId;

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_crash_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open a fresh durable system, build the base schema and one view with an
/// object, and checkpoint so the baseline is on disk.
fn seed(dir: &Path) -> (SharedSystem, ViewId, Oid) {
    let sys = SharedSystem::open(dir).unwrap();
    sys.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
    )
    .unwrap();
    sys.define_base_class("Student", &["Person"], vec![]).unwrap();
    sys.define_base_class("TA", &["Student"], vec![]).unwrap();
    let v1 = sys.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let oid = sys.writer().create(v1, "Student", &[("name", "ann".into())]).unwrap();
    sys.checkpoint().unwrap();
    (sys, v1, oid)
}

/// The encoded system, as a checkpoint writes it: the one way to the bytes
/// of a live system is the snapshot generation it leaves on disk.
fn image(sys: &SharedSystem, dir: &Path) -> Vec<u8> {
    let generation = sys.checkpoint().unwrap();
    read_snapshot_file(dir, generation).unwrap().1
}

/// Structural consistency: every registered view version resolves, the
/// seeded object still answers, and the whole system snapshot round-trips.
/// Takes a checkpoint, so generation and WAL length are asserted before it.
fn check_consistency(sys: &SharedSystem, dir: &Path, v1: ViewId, oid: Oid) {
    let session = sys.session();
    let views = session.meta().views();
    for fam in views.families() {
        views.current(fam).unwrap();
        for vid in views.versions(fam).unwrap() {
            views.view(*vid).unwrap();
        }
    }
    assert_eq!(session.get(v1, oid, "Student", "name").unwrap(), Value::Str("ann".into()));
    TseSystem::decode(image(sys, dir).into(), StoreConfig::default()).unwrap();
}

fn versions(sys: &SharedSystem) -> Vec<ViewId> {
    sys.session().meta().views().versions("VS").unwrap().to_vec()
}

const EVOLVE_SITES: [&str; 4] =
    ["evolve.translate", "evolve.classify", "evolve.view_regen", "evolve.swap_in"];

#[test]
fn durable_roundtrip_and_wal_replay() {
    let dir = tmpdir("roundtrip");
    let (sys, v1, oid) = seed(&dir);
    // Schema change and data write after the checkpoint live only in the WAL.
    let v2 = sys
        .evolve_cmd("VS", "add_attribute register: bool = false to Student")
        .unwrap()
        .view;
    sys.writer().set(v2, oid, "Student", &[("register", Value::Bool(true))]).unwrap();
    drop(sys);

    let sys = SharedSystem::open(&dir).unwrap();
    check_consistency(&sys, &dir, v1, oid);
    assert_eq!(sys.telemetry().counter("recovery.replayed"), 2);
    assert_eq!(sys.telemetry().counter("recovery.torn_bytes"), 0);
    // Both replayed: every mutation of a durable system is a WAL frame.
    assert_eq!(versions(&sys).len(), 2);
    assert_eq!(sys.session().get(v2, oid, "Student", "register").unwrap(), Value::Bool(true));
    assert!(sys.telemetry().journal_lines().contains("recovery.complete"));
}

#[test]
fn checkpoint_empties_wal_and_survives_reopen() {
    let dir = tmpdir("checkpoint");
    let (sys, v1, oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    assert!(sys.wal_len().unwrap() > 0);
    let gen = sys.checkpoint().unwrap();
    assert_eq!(sys.wal_len(), Some(0));
    // Generation 1 is the one from `seed` (a fresh directory writes no
    // seed snapshot — the base schema lives in the WAL), 2 this one.
    assert_eq!(gen, 2);
    drop(sys);

    let sys = SharedSystem::open(&dir).unwrap();
    // Everything came from the snapshot, nothing from the WAL.
    assert_eq!(sys.telemetry().counter("recovery.replayed"), 0);
    assert_eq!(sys.generation(), Some(2));
    assert_eq!(versions(&sys).len(), 2);
    check_consistency(&sys, &dir, v1, oid);
}

#[test]
fn crash_at_every_evolve_phase_redoes_the_change_on_reopen() {
    for site in EVOLVE_SITES {
        let dir = tmpdir(&format!("crash_{}", site.replace('.', "_")));
        let (sys, v1, oid) = seed(&dir);
        sys.failpoints().arm(site, 1, FailAction::Crash);
        let err = sys
            .evolve_cmd("VS", "add_attribute register: bool = false to Student")
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{site}: {err}");
        assert!(sys.failpoints().fired(site), "{site} did not fire");
        drop(sys);

        // The WAL frame was written before the change ran, so recovery
        // redoes it: the evolved view version exists after reopen.
        let sys = SharedSystem::open(&dir).unwrap();
        check_consistency(&sys, &dir, v1, oid);
        assert_eq!(sys.telemetry().counter("recovery.replayed"), 1, "at {site}");
        assert_eq!(versions(&sys).len(), 2, "at {site}");
        let v2 = *versions(&sys).last().unwrap();
        assert_eq!(
            sys.session().get(v2, oid, "Student", "register").unwrap(),
            Value::Bool(false),
            "at {site}"
        );
    }
}

/// A crash inside a logged change leaves its frame for redo, and the live
/// system never applied the change: a data frame or a second change
/// appended after the frame would replay against a state the live system
/// never had. So the crash poisons the log, and everything is refused until
/// a reopen redoes the change.
#[test]
fn a_crash_mid_change_poisons_the_log_until_a_reopen_redoes_it() {
    let dir = tmpdir("crash_poisons");
    let (sys, v1, oid) = seed(&dir);
    sys.failpoints().arm("evolve.classify", 1, FailAction::Crash);
    let err = sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap_err();
    assert!(err.to_string().contains("simulated crash"), "{err}");
    let wal = sys.wal_len();

    let refused = sys.evolve_cmd("VS", "add_attribute ok: int = 0 to Student").unwrap_err();
    assert_eq!(TseError::from(refused).code(), TseCode::Poisoned);
    let refused = sys.writer().create(v1, "Student", &[("name", "bob".into())]).unwrap_err();
    assert_eq!(TseError::from(refused).code(), TseCode::Poisoned);
    assert_eq!(sys.wal_len(), wal, "nothing appended after the crashed change");
    assert_eq!(sys.health(), SystemHealth::Poisoned);
    drop(sys);

    let sys = SharedSystem::open(&dir).unwrap();
    check_consistency(&sys, &dir, v1, oid);
    assert_eq!(sys.telemetry().counter("recovery.replayed"), 1);
    assert_eq!(versions(&sys).len(), 2);
    assert_eq!(sys.session().extent(v1, "Student").unwrap(), vec![oid], "the refused create");
}

/// The poisoned log turns a write away before it applies: the refusal
/// carries the WAL's own error, the live extent never holds the refused
/// object, and nothing reaches the log.
#[test]
fn a_poisoned_system_refuses_a_write_before_applying_it() {
    let dir = tmpdir("poisoned_write");
    let (sys, v1, oid) = seed(&dir);
    sys.failpoints().arm("evolve.view_regen", 1, FailAction::Crash);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap_err();
    assert_eq!(sys.health(), SystemHealth::Poisoned);
    let wal = sys.wal_len();

    let refused = sys.writer().create(v1, "Student", &[("name", "bob".into())]).unwrap_err();
    assert!(refused.to_string().contains("wal poisoned"), "{refused}");
    assert_eq!(TseError::from(refused).code(), TseCode::Poisoned);
    assert_eq!(sys.session().extent(v1, "Student").unwrap(), vec![oid], "the refused create applied");
    assert_eq!(sys.wal_len(), wal, "the refused create reached the log");
}

#[test]
fn crash_in_storage_insert_loses_only_the_unlogged_write() {
    let dir = tmpdir("storage_insert");
    let (sys, v1, oid) = seed(&dir);
    // Acked after the checkpoint: on disk as a WAL frame only.
    let carl = sys.writer().create(v1, "Student", &[("name", "carl".into())]).unwrap();
    sys.failpoints().arm("storage.insert", 1, FailAction::Crash);
    assert!(sys.writer().create(v1, "Student", &[("name", "bob".into())]).is_err());
    assert!(sys.telemetry().counter("fault.crashes") >= 1);
    drop(sys);

    let sys = SharedSystem::open(&dir).unwrap();
    check_consistency(&sys, &dir, v1, oid);
    // The create that crashed mid-apply never reached the log and was never
    // acked: it is absent. Everything acked before it is present.
    assert_eq!(sys.session().extent(v1, "Student").unwrap(), vec![oid, carl]);
    assert_eq!(sys.session().get(v1, carl, "Student", "name").unwrap(), Value::Str("carl".into()));
}

#[test]
fn clean_phase_failures_roll_back_to_byte_identical_state() {
    for site in EVOLVE_SITES {
        let dir = tmpdir(&format!("clean_{}", site.replace('.', "_")));
        let (sys, v1, oid) = seed(&dir);
        let before = image(&sys, &dir);
        let wal_before = sys.wal_len();
        let classes_before = sys.session().meta().schema().class_count();

        sys.failpoints().arm(site, 1, FailAction::Error);
        let err = sys
            .evolve_cmd("VS", "add_attribute register: bool = false to Student")
            .unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{site}: {err}");

        // All-or-nothing: no partial classes, no view version, the WAL
        // frame was truncated away, and identical snapshot bytes.
        assert_eq!(sys.session().meta().schema().class_count(), classes_before, "at {site}");
        assert_eq!(versions(&sys).len(), 1, "at {site}");
        assert_eq!(sys.wal_len(), wal_before, "at {site}");
        assert_eq!(image(&sys, &dir), before, "at {site}");
        assert!(sys.telemetry().counter("evolve.rollbacks") >= 1, "at {site}");
        assert!(sys.telemetry().counter("fault.injected") >= 1, "at {site}");

        // The same system keeps working without a reopen…
        sys.evolve_cmd("VS", "add_attribute ok: int = 0 to Student").unwrap();
        drop(sys);
        // …and a reopen replays only the successful change.
        let sys = SharedSystem::open(&dir).unwrap();
        check_consistency(&sys, &dir, v1, oid);
        assert_eq!(sys.telemetry().counter("recovery.replayed"), 1, "at {site}");
        assert_eq!(versions(&sys).len(), 2, "at {site}");
    }
}

#[test]
fn torn_wal_append_is_truncated_on_reopen() {
    for keep in [1usize, 8, 15, 16, 25] {
        let dir = tmpdir(&format!("torn_wal_{keep}"));
        let (sys, v1, oid) = seed(&dir);
        sys.failpoints().arm("durable.wal_append", 1, FailAction::TornWrite { keep_bytes: keep });
        let err = sys
            .evolve_cmd("VS", "add_attribute register: bool = false to Student")
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "keep={keep}: {err}");
        drop(sys);

        // The frame never became valid, so the change is gone — exactly
        // what a crash before the WAL fsync returned means.
        let sys = SharedSystem::open(&dir).unwrap();
        assert_eq!(sys.wal_len(), Some(0), "keep={keep}");
        check_consistency(&sys, &dir, v1, oid);
        assert_eq!(sys.telemetry().counter("recovery.torn_bytes"), keep as u64);
        assert_eq!(sys.telemetry().counter("recovery.replayed"), 0, "keep={keep}");
        assert_eq!(versions(&sys).len(), 1, "keep={keep}");
    }
}

#[test]
fn torn_snapshot_write_falls_back_and_wal_still_replays() {
    for keep in [0usize, 7, 40] {
        let dir = tmpdir(&format!("torn_snap_{keep}"));
        let (sys, v1, oid) = seed(&dir);
        sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
        sys.failpoints()
            .arm("durable.snapshot_write", 1, FailAction::TornWrite { keep_bytes: keep });
        assert!(sys.checkpoint().is_err());
        drop(sys);

        // The torn generation was never renamed into place; the manifest
        // still points at the seed snapshot and the WAL replays on top.
        let sys = SharedSystem::open(&dir).unwrap();
        assert_eq!(sys.generation(), Some(1), "keep={keep}");
        check_consistency(&sys, &dir, v1, oid);
        assert_eq!(sys.telemetry().counter("recovery.replayed"), 1, "keep={keep}");
        assert_eq!(versions(&sys).len(), 2, "keep={keep}");
    }
}

#[test]
fn crash_between_snapshot_and_manifest_recovers() {
    let dir = tmpdir("manifest_crash");
    let (sys, v1, oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    sys.failpoints().arm("durable.manifest_write", 1, FailAction::Crash);
    assert!(sys.checkpoint().is_err());
    drop(sys);

    // Generation 2 exists on disk but the manifest still names 1 and the
    // WAL was not reset: recovery from gen 1 + replay gives the same state.
    let sys = SharedSystem::open(&dir).unwrap();
    check_consistency(&sys, &dir, v1, oid);
    assert_eq!(versions(&sys).len(), 2);
    assert_eq!(sys.telemetry().counter("recovery.replayed"), 1);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_older_generation() {
    let dir = tmpdir("corrupt_snap");
    let (sys, v1, oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    sys.checkpoint().unwrap(); // generation 2, WAL emptied
    drop(sys);

    // Bit-rot the newest snapshot on disk.
    let snap2 = tse_storage::durable::snapshot_path(&dir, 2);
    let mut bytes = std::fs::read(&snap2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap2, bytes).unwrap();

    // Recovery skips generation 2 and serves generation 1 — stale by the
    // checkpointed delta (its WAL frames are gone), but consistent.
    let sys = SharedSystem::open(&dir).unwrap();
    assert_eq!(sys.telemetry().counter("recovery.snapshots_skipped"), 1);
    assert_eq!(sys.generation(), Some(1));
    assert_eq!(versions(&sys).len(), 1);
    check_consistency(&sys, &dir, v1, oid);
}

#[test]
fn a_flipped_byte_in_the_newest_generation_s_header_or_payload_falls_back() {
    // The snapshot file's CRC is the payload's only check: a flip anywhere
    // in the newest generation — its header fields or any section of its
    // payload — must make recovery skip it and serve the older one.
    let dir = tmpdir("flip_gen");
    let (sys, _v1, _oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    sys.checkpoint().unwrap(); // generation 2, WAL emptied
    drop(sys);

    let snap2 = tse_storage::durable::snapshot_path(&dir, 2);
    let good = std::fs::read(&snap2).unwrap();
    // The 28-byte header (magic, LSN, length, CRC), then a spread of
    // payload bytes through every section, the last byte included.
    let header = 0..28;
    let payload = (28..good.len()).step_by(13).chain([good.len() - 1]);
    for byte in header.chain(payload) {
        let mut bad = good.clone();
        bad[byte] ^= 1 << (byte % 8);
        std::fs::write(&snap2, &bad).unwrap();
        let sys = SharedSystem::open(&dir).unwrap();
        assert_eq!(
            sys.telemetry().counter("recovery.snapshots_skipped"),
            1,
            "flip in byte {byte} of {}",
            good.len()
        );
        assert_eq!(sys.generation(), Some(1), "flip in byte {byte}");
        assert_eq!(versions(&sys).len(), 1, "flip in byte {byte}");
    }
    std::fs::write(&snap2, &good).unwrap();
    let sys = SharedSystem::open(&dir).unwrap();
    assert_eq!(sys.telemetry().counter("recovery.snapshots_skipped"), 0);
    assert_eq!(versions(&sys).len(), 2);
}

#[test]
fn snapshot_encode_failpoint_blocks_checkpoint_cleanly() {
    let dir = tmpdir("encode_fp");
    let (sys, v1, oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    sys.failpoints().arm("snapshot.encode", 1, FailAction::Error);
    assert!(sys.checkpoint().is_err());
    // Nothing was written; the next checkpoint succeeds.
    assert_eq!(sys.generation(), Some(1));
    assert_eq!(sys.checkpoint().unwrap(), 2);
    check_consistency(&sys, &dir, v1, oid);
}

#[test]
fn composite_macro_failing_halfway_rolls_back_byte_identically() {
    // delete_class2 on TA expands into edge surgery followed by the class
    // drop; failing the *second* swap-in kills the macro mid-flight.
    // Evolve must restore the byte-identical pre-state — view history,
    // rename maps, and policy included — and keep doing so on a retry.
    let dir = tmpdir("composite");
    let (sys, v1, oid) = seed(&dir);
    let before = image(&sys, &dir);
    let versions_before = versions(&sys).len();
    let change = SchemaChange::DeleteClass2 { class: "Student".into() };

    for attempt in [1, 2] {
        sys.failpoints().arm("evolve.swap_in", 2, FailAction::Error);
        let result = sys.evolve("VS", &change);
        assert!(result.is_err(), "attempt={attempt}");
        assert!(sys.failpoints().fired("evolve.swap_in"), "attempt={attempt}");
        sys.failpoints().disarm("evolve.swap_in");
        assert_eq!(image(&sys, &dir), before, "attempt={attempt}");
        assert_eq!(versions(&sys).len(), versions_before);
        check_consistency(&sys, &dir, v1, oid);
    }
    assert!(sys.telemetry().counter("evolve.rollbacks") >= 2);

    // With no failpoint armed the same macro succeeds.
    let evolved = sys.evolve("VS", &change).unwrap().view;
    assert!(sys.session().meta().resolve(evolved, "Student").is_err());
}

#[test]
fn reopening_twice_is_idempotent() {
    let dir = tmpdir("idempotent");
    let (sys, v1, oid) = seed(&dir);
    sys.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
    drop(sys);
    // A second copy of the directory as the crash left it, to recover once.
    let twin = tmpdir("idempotent_twin");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), twin.join(entry.file_name())).unwrap();
    }

    // A recovery consumes nothing: the second one redoes the same frame.
    let first = SharedSystem::open(&dir).unwrap();
    assert_eq!(first.telemetry().counter("recovery.replayed"), 1);
    drop(first);
    let second = SharedSystem::open(&dir).unwrap();
    assert_eq!(second.telemetry().counter("recovery.replayed"), 1);
    // Replay is deterministic: two recoveries produce identical systems.
    let once = SharedSystem::open(&twin).unwrap();
    assert_eq!(image(&second, &dir), image(&once, &twin));
    check_consistency(&second, &dir, v1, oid);
}
