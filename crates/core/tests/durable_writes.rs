//! Full-durability tests for the shared system: typed redo frames for
//! data-plane writes, structural changes logged from every entry point,
//! group commit, fsync poisoning (fail-stop), and auto-checkpointing.

use std::path::{Path, PathBuf};

use tse_core::{SchemaChange, SharedSystem, TseSystem};
use tse_object_model::{ModelError, PropertyDef, Value, ValueType};
use tse_storage::durable::{GroupWal, Wal, WAL_FILE};
use tse_storage::{FailAction, FailpointRegistry, RetryPolicy, StoreConfig};
use tse_telemetry::Telemetry;
use tse_view::ViewId;

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_durw_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open a durable shared system, build the base schema and one view, and
/// checkpoint so the baseline is on disk (schema setup itself is a
/// metadata write, persisted by checkpoints, not the WAL).
fn seed(dir: &Path) -> (SharedSystem, ViewId) {
    let shared = SharedSystem::open(dir).unwrap();
    seed_schema(&shared)
}

fn seed_with(dir: &Path, config: StoreConfig) -> (SharedSystem, ViewId) {
    let shared = TseSystem::builder(dir).store_config(config).open().unwrap();
    seed_schema(&shared)
}

fn seed_schema(shared: &SharedSystem) -> (SharedSystem, ViewId) {
    shared
        .define_base_class(
            "Person",
            &[],
            vec![
                PropertyDef::stored("name", ValueType::Str, Value::Null),
                PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
            ],
        )
        .unwrap();
    shared.define_base_class("Student", &["Person"], vec![]).unwrap();
    let view = shared.create_view("VS", &["Person", "Student"]).unwrap();
    shared.checkpoint().unwrap();
    (shared.clone(), view)
}

#[test]
fn acked_data_writes_replay_after_crash() {
    let dir = tmpdir("data_replay");
    let (shared, view) = seed(&dir);
    let w = shared.writer();
    let a = w.create(view, "Student", &[("name", "ann".into()), ("age", Value::Int(21))]).unwrap();
    let b = w.create(view, "Student", &[("name", "bob".into()), ("age", Value::Int(17))]).unwrap();
    w.set(view, a, "Student", &[("age", Value::Int(22))]).unwrap();
    let touched = w.update_where(view, "Student", "age < 20", &[("age", Value::Int(20))]).unwrap();
    assert_eq!(touched, 1);
    let c = w.create(view, "Student", &[("name", "doomed".into())]).unwrap();
    w.delete_objects(&[c]).unwrap();
    // No checkpoint: everything above lives only in the WAL. Dropping the
    // system without one is the crash.
    drop(w);
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    let telemetry = shared.telemetry();
    assert_eq!(telemetry.counter("recovery.replayed"), 6);
    let s = shared.session();
    // Replay reissued the original oids bit-for-bit.
    assert_eq!(s.get(view, a, "Student", "name").unwrap(), Value::Str("ann".into()));
    assert_eq!(s.get(view, a, "Student", "age").unwrap(), Value::Int(22));
    assert_eq!(s.get(view, b, "Student", "age").unwrap(), Value::Int(20));
    let extent = s.extent(view, "Student").unwrap();
    assert_eq!(extent.len(), 2, "the deleted object must not resurrect");
    assert!(!extent.contains(&c));
    // Fresh allocations never collide with replayed oids.
    let d = shared.writer().create(view, "Student", &[("name", "new".into())]).unwrap();
    assert!(d != a && d != b && d != c);
}

#[test]
fn structured_evolve_is_logged_and_replays_after_simulated_crash() {
    let dir = tmpdir("evolve_struct");
    let (shared, _view) = seed(&dir);
    // Crash inside the swap-in phase: the frame was fsync'd before the
    // fork evolved, so recovery redoes the change even though no epoch was
    // ever published.
    shared.failpoints().arm("evolve.swap_in", 1, FailAction::Crash);
    let epoch_before = shared.epoch();
    let change = SchemaChange::AddAttribute {
        class: "Student".into(),
        name: "register".into(),
        vtype: ValueType::Bool,
        default: Value::Bool(false),
        required: false,
    };
    let err = shared.evolve("VS", &change).unwrap_err();
    assert!(err.to_string().contains("simulated crash"), "{err}");
    assert_eq!(shared.epoch(), epoch_before, "no epoch published for the crashed change");
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.replayed"), 1);
    let mut s = shared.session();
    let versions = s.meta().views().versions("VS").unwrap().to_vec();
    assert_eq!(versions.len(), 2, "the structured change replayed");
    let v2 = *versions.last().unwrap();
    let oid = shared.writer().create(v2, "Student", &[("name", "ann".into())]).unwrap();
    // The session pinned its epoch before the create; re-pin to see it.
    s.refresh();
    assert_eq!(s.get(v2, oid, "Student", "register").unwrap(), Value::Bool(false));
}

#[test]
fn structured_evolve_round_trips_through_the_log() {
    // The renderer is what makes `SharedSystem::evolve` loggable: apply a
    // structured change whose rendering exercises quoted defaults, drop
    // without checkpointing, and verify the replay reproduced it.
    let dir = tmpdir("evolve_rt");
    let (shared, _view) = seed(&dir);
    let change = SchemaChange::AddAttribute {
        class: "Student".into(),
        name: "motto".into(),
        vtype: ValueType::Str,
        default: Value::Str("went to the required connected_to store".into()),
        required: false,
    };
    let v2 = shared.evolve("VS", &change).unwrap().view;
    let oid = shared.writer().create(v2, "Student", &[("name", "ann".into())]).unwrap();
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    let s = shared.session();
    assert_eq!(
        s.get(v2, oid, "Student", "motto").unwrap(),
        Value::Str("went to the required connected_to store".into())
    );
}

#[test]
fn an_evolve_s_wal_frame_shows_in_the_wal_metrics() {
    // The structural frame goes through the group-commit log like a data
    // frame; under the exclusive swap latch it is a group of one.
    let dir = tmpdir("evolve_wal_metrics");
    let (shared, _view) = seed(&dir);
    let before = shared.telemetry().snapshot();
    shared.evolve_cmd("VS", "add_attribute gpa: float = 0.0 to Student").unwrap();
    let after = shared.telemetry().snapshot();
    let (fsync_before, fsync_after) =
        (&before.histograms["wal.fsync_ns"], &after.histograms["wal.fsync_ns"]);
    assert_eq!(fsync_after.count, fsync_before.count + 1);
    assert!(fsync_after.sum > fsync_before.sum, "the wait itself is recorded");
    let (group_before, group_after) =
        (&before.histograms["wal.group_size"], &after.histograms["wal.group_size"]);
    assert_eq!(group_after.count, group_before.count + 1);
    assert_eq!(group_after.sum, group_before.sum + 1);
}

#[test]
fn unrenderable_changes_are_rejected_before_logging() {
    let dir = tmpdir("unrenderable");
    let (shared, _view) = seed(&dir);
    let wal_before = shared.wal_len().unwrap();
    let change = SchemaChange::AddClass { name: "bad name".into(), connected_to: None };
    assert!(shared.evolve("VS", &change).is_err());
    assert_eq!(shared.wal_len().unwrap(), wal_before, "nothing was logged");
    assert_eq!(shared.session().meta().views().versions("VS").unwrap().len(), 1);
}

#[test]
fn fsync_failure_poisons_the_data_plane_fail_stop() {
    let dir = tmpdir("poison");
    let (shared, view) = seed(&dir);
    let w = shared.writer();
    w.create(view, "Student", &[("name", "ok".into())]).unwrap();

    shared.failpoints().arm("durable.wal_fsync", 1, FailAction::Error);
    let err = w.create(view, "Student", &[("name", "doomed".into())]).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");

    // Fail-stop: after a failed fsync the kernel may have dropped the dirty
    // pages, so no further append may be acknowledged.
    let err = w.create(view, "Student", &[("name", "after".into())]).unwrap_err();
    assert!(err.to_string().contains("wal poisoned"), "{err}");
    let err = w.set(view, tse_object_model::Oid(1), "Student", &[("age", Value::Int(1))])
        .unwrap_err();
    assert!(err.to_string().contains("wal poisoned"), "{err}");
    assert_eq!(shared.telemetry().counter("wal.poisoned"), 1);

    // Reopening from disk recovers every *acked* write.
    drop(w);
    drop(shared);
    let shared = SharedSystem::open(&dir).unwrap();
    let names: Vec<_> = shared
        .session()
        .extent(view, "Student")
        .unwrap()
        .iter()
        .map(|o| shared.session().get(view, *o, "Student", "name").unwrap())
        .collect();
    assert!(names.contains(&Value::Str("ok".into())));
    assert!(!names.contains(&Value::Str("after".into())), "unacked write must not survive");
}

#[test]
fn wal_crossing_threshold_triggers_an_automatic_checkpoint() {
    // Once as is, once with the first auto-checkpoint's snapshot write
    // failing: that fault is counted once, and a later one succeeds.
    for fault in [None, Some(FailAction::Error)] {
        let dir = tmpdir("autockpt");
        let config = StoreConfig { wal_autocheckpoint_bytes: 512, ..StoreConfig::default() };
        let (shared, view) = seed_with(&dir, config);
        if let Some(action) = fault {
            shared.failpoints().arm("durable.snapshot_write", 1, action);
        }
        let gen_before = shared.generation().unwrap();
        let w = shared.writer();
        for i in 0..64 {
            w.create(view, "Student", &[("name", format!("s{i}").as_str().into())]).unwrap();
        }
        assert!(
            shared.telemetry().counter("durable.autocheckpoints") >= 1,
            "64 creates × ~50-byte frames must cross the 512-byte threshold"
        );
        assert!(shared.generation().unwrap() > gen_before);
        assert!(
            shared.wal_len().unwrap() < 512,
            "the log was reset by the last auto-checkpoint"
        );
        let injected = u64::from(fault.is_some());
        assert_eq!(shared.telemetry().counter("fault.injected"), injected, "{fault:?}");
        let fired = shared.telemetry().journal_lines().matches("fault.fired").count();
        assert_eq!(fired as u64, injected, "{fault:?}");

        // Crash + reopen: snapshots and the WAL tail together hold all 64.
        drop(w);
        drop(shared);
        let shared = SharedSystem::open(&dir).unwrap();
        assert_eq!(shared.session().extent(view, "Student").unwrap().len(), 64);
    }
}

#[test]
fn concurrent_writers_group_commit_and_all_survive() {
    let dir = tmpdir("group");
    let (shared, view) = seed(&dir);
    let (threads, per) = (8usize, 16usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let shared = shared.clone();
            s.spawn(move || {
                let w = shared.writer();
                for i in 0..per {
                    w.create(view, "Student", &[("name", format!("t{t}i{i}").as_str().into())])
                        .unwrap();
                }
            });
        }
    });
    let snap = shared.telemetry().snapshot();
    let sizes = snap.histograms.get("wal.group_size").expect("group commit recorded batches");
    assert!(sizes.count >= 1);
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(
        shared.session().extent(view, "Student").unwrap().len(),
        threads * per,
        "every acked concurrent create recovered"
    );
}

#[test]
fn checkpoint_markers_survive_a_crashed_checkpoint_and_are_skipped() {
    let dir = tmpdir("marker");
    let (shared, view) = seed(&dir);
    let w = shared.writer();
    let oid = w.create(view, "Student", &[("name", "ann".into())]).unwrap();
    // Crash after the marker is in the log but before the snapshot lands.
    shared.failpoints().arm("durable.snapshot_write", 1, FailAction::Crash);
    assert!(shared.checkpoint().is_err());
    drop(w);
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    // The marker is forensic only: replay skips it, redoes the create.
    assert_eq!(shared.telemetry().counter("recovery.replayed"), 1);
    assert_eq!(shared.telemetry().counter("recovery.skipped"), 0);
    assert_eq!(
        shared.session().get(view, oid, "Student", "name").unwrap(),
        Value::Str("ann".into())
    );
}

#[test]
fn evolve_cmd_and_data_writes_interleave_durably() {
    let dir = tmpdir("interleave");
    let (shared, view) = seed(&dir);
    let a = shared.writer().create(view, "Student", &[("name", "ann".into())]).unwrap();
    let v2 = shared.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap().view;
    shared.writer().set(v2, a, "Student", &[("register", Value::Bool(true))]).unwrap();
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.replayed"), 3);
    let s = shared.session();
    assert_eq!(s.get(v2, a, "Student", "register").unwrap(), Value::Bool(true));
    assert_eq!(s.meta().views().versions("VS").unwrap().len(), 2);
}

/// Does the published schema carry a constraint on `Student`?
fn student_is_constrained(shared: &SharedSystem, view: ViewId) -> bool {
    let session = shared.session();
    let class = session.meta().resolve(view, "Student").unwrap();
    session.meta().schema().class(class).unwrap().constraint().is_some()
}

#[test]
fn a_constraint_is_logged_and_survives_reopen_without_a_checkpoint() {
    let dir = tmpdir("constraint");
    let (shared, view) = seed(&dir);
    shared.set_constraint(view, "Student", Some("age >= 18")).unwrap();
    // (`age` first: a create checks the constraint after every value.)
    let minor = [("age", Value::Int(12)), ("name", "kid".into())];
    assert!(shared.writer().create(view, "Student", &minor).is_err());
    // No checkpoint: the constraint lives only in the WAL.
    drop(shared);

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.replayed"), 1);
    assert!(student_is_constrained(&shared, view));
    assert!(shared.writer().create(view, "Student", &minor).is_err(), "still enforced");
    let adult = [("age", Value::Int(30)), ("name", "ann".into())];
    shared.writer().create(view, "Student", &adult).unwrap();

    // Clearing it is a frame too.
    shared.set_constraint(view, "Student", None).unwrap();
    drop(shared);
    let shared = SharedSystem::open(&dir).unwrap();
    assert!(!student_is_constrained(&shared, view));
    shared.writer().create(view, "Student", &minor).unwrap();
}

/// A refused update names the constraint's expression, before and after
/// the constraint is replayed from the log.
#[test]
fn a_refused_update_names_the_constraint_it_broke() {
    let dir = tmpdir("constraint_text");
    let shared = SharedSystem::open(&dir).unwrap();
    let balance = PropertyDef::stored("balance", ValueType::Int, Value::Int(0));
    shared.define_base_class("Acct", &[], vec![balance]).unwrap();
    let view = shared.create_view("VA", &["Acct"]).unwrap();
    shared.checkpoint().unwrap();
    shared.set_constraint(view, "Acct", Some("balance >= 0")).unwrap();
    let overdrawn = [("balance", Value::Int(-5))];
    let refusal = |shared: &SharedSystem| {
        shared.writer().create(view, "Acct", &overdrawn).unwrap_err().to_string()
    };
    let err = refusal(&shared);
    assert!(err.contains("class constraint of Acct refused"), "{err}");
    assert!(err.contains("balance >= 0"), "{err}");
    drop(shared);
    let shared = SharedSystem::open(&dir).unwrap();
    let err = refusal(&shared);
    assert!(err.contains("balance >= 0"), "{err}");
}

#[test]
fn a_constraint_that_crashes_in_the_wal_append_is_wholly_absent_after_reopen() {
    for action in [FailAction::Crash, FailAction::TornWrite { keep_bytes: 9 }] {
        let dir = tmpdir("constraint_crash");
        let (shared, view) = seed(&dir);
        shared.failpoints().arm("durable.wal_append", 1, action);
        let err = shared.set_constraint(view, "Student", Some("age >= 18")).unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        // Logged before applied: the frame never became valid, so the
        // constraint was never enforced either.
        assert!(!student_is_constrained(&shared, view));
        drop(shared);

        let shared = SharedSystem::open(&dir).unwrap();
        assert_eq!(shared.telemetry().counter("recovery.replayed"), 0);
        assert_eq!(shared.telemetry().counter("recovery.skipped"), 0);
        assert!(!student_is_constrained(&shared, view));
        let minor = [("age", Value::Int(12)), ("name", "kid".into())];
        shared.writer().create(view, "Student", &minor).unwrap();
        // The recovered system takes the constraint on a second try (the
        // minor already in the extent does not stop it: a constraint is
        // checked on create and set).
        shared.set_constraint(view, "Student", Some("age >= 18")).unwrap();
        assert!(shared.writer().create(view, "Student", &minor).is_err());
    }
}

#[test]
fn a_degraded_system_refuses_a_constraint() {
    let dir = tmpdir("constraint_degraded");
    let (shared, view) = seed(&dir);
    shared.failpoints().arm("durable.wal_append", 1, FailAction::DiskFull);
    assert!(shared.writer().create(view, "Student", &[("name", "eve".into())]).is_err());
    shared.failpoints().disarm("durable.wal_append");

    let err = shared.set_constraint(view, "Student", Some("age >= 18")).unwrap_err();
    assert!(matches!(err, ModelError::Unavailable { .. }), "{err}");
    assert!(!student_is_constrained(&shared, view), "refused means not applied");
}

#[test]
fn a_flipped_bit_in_a_logged_create_cuts_the_log_there() {
    // A typed record has no check of its own: the WAL frame's CRC is its
    // one check. Every bit flip in the middle `Create` frame (its header
    // and its record) must cut the log at that frame, and replay must
    // never turn the damaged bytes into some other record.
    let dir = tmpdir("create_flip");
    let (shared, view) = seed(&dir);
    // The frames end at the log's logical length; the file holds
    // pre-written zeros past it until a reopen cuts them.
    let log_len = || shared.wal_len().unwrap() as usize;
    let file_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() as usize;
    let w = shared.writer();
    let first = w.create(view, "Person", &[("name", "ann".into()), ("age", Value::Int(30))]);
    let first = first.unwrap();
    let start = log_len();
    w.create(view, "Person", &[("name", "bob".into()), ("age", Value::Int(40))]).unwrap();
    let end = log_len();
    assert!(start < end);
    w.create(view, "Person", &[("name", "cy".into())]).unwrap();
    drop((w, shared));
    let good = std::fs::read(dir.join(WAL_FILE)).unwrap();

    for byte in start..end {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            std::fs::write(dir.join(WAL_FILE), &bad).unwrap();
            let shared = SharedSystem::open(&dir).unwrap();
            let what = format!("bit {bit} of byte {byte}");
            assert_eq!(shared.telemetry().counter("recovery.replayed"), 1, "{what}");
            assert_eq!(file_len(), start, "{what}: log cut at the damaged frame");
            let s = shared.session();
            assert_eq!(s.extent(view, "Person").unwrap(), vec![first], "{what}");
            assert_eq!(s.get(view, first, "Person", "age").unwrap(), Value::Int(30), "{what}");
        }
    }
}

#[test]
fn a_frame_with_another_version_byte_is_skipped_not_replayed() {
    let dir = tmpdir("text_frame");
    let shared = SharedSystem::open(&dir).unwrap();
    shared.define_base_class("Person", &[], vec![]).unwrap();
    shared.create_view("VS", &["Person"]).unwrap();
    drop(shared);
    // The frame of the first WAL format, `u32 family_len | family | command`:
    // well-formed UTF-8 naming a change that would apply.
    let mut text = 2u32.to_be_bytes().to_vec();
    text.extend_from_slice(b"VSadd_attribute age: int = 0 to Person");
    let (wal, _) = Wal::open(&dir, FailpointRegistry::new()).unwrap();
    GroupWal::new(wal, Telemetry::new(), RetryPolicy::none()).append(&text).unwrap();

    let shared = SharedSystem::open(&dir).unwrap();
    assert_eq!(shared.telemetry().counter("recovery.replayed"), 2);
    assert_eq!(shared.telemetry().counter("recovery.skipped"), 1);
    assert_eq!(shared.session().meta().views().versions("VS").unwrap().len(), 1);
}
