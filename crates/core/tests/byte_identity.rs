//! The in-memory layout of objects and records is not a format: a snapshot
//! of a seeded, populated and evolved database and the WAL of a fixed op
//! script must encode to the same bytes whatever the engine holds in
//! memory. The digests were first recorded before the object table, the
//! flat object entries and the inline version chains replaced the maps and
//! vectors they were taken from, and re-recorded when the snapshot payload
//! lost its nested magics, lengths and CRCs and the typed WAL record its
//! own length and CRC; a change to either format must update them on
//! purpose.

mod support;

use std::path::PathBuf;

use tse_core::{parse_expr, SharedSystem};
use bytes::BytesMut;
use tse_object_model::{Predicate, PropertyDef, Value, ValueType};
use tse_storage::durable::{snapshot_path, WAL_FILE};
use tse_workload::university::{build_university, populate_university};

use support::digest;

/// The university of Figure 2, 600 people, two capacity-augmenting
/// evolves, and writes, reclassifications and deletes through old and new
/// versions.
fn populated_snapshot() -> Vec<u8> {
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view_all("U").unwrap();
    let oids = populate_university(&mut tse, v1, 600).unwrap();
    for (i, oid) in oids.iter().enumerate().step_by(7) {
        tse.set(v1, *oid, "Person", &[("age", Value::Int(i as i64))]).unwrap();
    }
    tse.evolve_cmd("U", "add_attribute email: str to Person").unwrap();
    tse.evolve_cmd("U", "add_attribute credits: int = 3 to Student").unwrap();
    let newest = *tse.views().versions("U").unwrap().last().unwrap();
    for (i, oid) in oids.iter().enumerate().step_by(5) {
        tse.set(newest, *oid, "Person", &[("email", Value::Str(format!("e{i}")))]).unwrap();
    }
    // Straight into the engine, below the data plane.
    let (db, policy) = (tse.db(), tse.policy());
    let class = |view, name| tse.view(view).unwrap().lookup(db, name).unwrap();
    let student = class(newest, "Student");
    let young = Predicate::Expr(parse_expr("age < 30").unwrap());
    let matched = tse_algebra::select_objects(db, student, young).unwrap();
    tse_algebra::set(db, policy, &matched, student, &[("credits", Value::Int(9))]).unwrap();
    tse.create(newest, "Grad", &[("name", "new".into()), ("credits", Value::Int(1))]).unwrap();
    tse_algebra::add(db, policy, &oids[..20], class(v1, "Staff")).unwrap();
    tse_algebra::remove(db, policy, &oids[28..29], class(v1, "Student")).unwrap();
    tse_algebra::delete(db, &oids[40..60]).unwrap();
    let mut buf = BytesMut::new();
    db.encode_into(&mut buf);
    buf.as_ref().to_vec()
}

/// A fresh durable directory holding a two-class schema, then the WAL of
/// creates, sets, an update, an evolve, reclassification and deletes.
fn scripted_wal() -> (Vec<u8>, Vec<u8>) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tse_byte_identity_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let shared = SharedSystem::open(&dir).unwrap();
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
    let w = shared.writer();
    let mut oids = Vec::new();
    for i in 0..40i64 {
        let class = if i % 3 == 0 { "Person" } else { "Student" };
        let values = [("name", Value::Str(format!("n{i}"))), ("age", Value::Int(15 + i))];
        oids.push(w.create(view, class, &values).unwrap());
    }
    w.set(view, oids[1], "Student", &[("age", Value::Int(99))]).unwrap();
    w.update_where(view, "Person", "age < 20", &[("age", Value::Int(20))]).unwrap();
    shared.evolve_cmd("VS", "add_attribute tag: int = 7 to Person").unwrap();
    let mut w = shared.writer();
    w.refresh();
    let v2 = *w.meta().views().versions("VS").unwrap().last().unwrap();
    w.set(v2, oids[2], "Person", &[("tag", Value::Int(1))]).unwrap();
    w.create(v2, "Student", &[("name", "late".into()), ("tag", Value::Int(2))]).unwrap();
    w.add_to(view, &oids[..3], "Student").unwrap();
    w.delete_objects(&oids[30..]).unwrap();
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    shared.checkpoint().unwrap();
    let generation = shared.generation().unwrap();
    let snapshot = std::fs::read(snapshot_path(&dir, generation)).unwrap();
    drop((w, shared));
    let _ = std::fs::remove_dir_all(&dir);
    (wal, snapshot)
}

#[test]
fn snapshot_and_wal_bytes_match_the_recorded_digests() {
    let (wal, checkpoint) = scripted_wal();
    assert_eq!(digest(&populated_snapshot()), "2fe1c71772c16cc3/57092", "snapshot encoding");
    assert_eq!(digest(&wal), "01e9a1d578a969f1/3099", "wal.log");
    assert_eq!(digest(&checkpoint), "6ba2cfffb88ca926/3160", "checkpoint generation");
}
