//! Long-haul stress: hundreds of schema changes, snapshot round-trips at
//! checkpoints, every version probed. Run with `--release` (it is in the
//! default suite; sizes are tuned to stay in CI budgets).

use tse::core::TseSystem;
use tse::object_model::Value;
use tse::storage::StoreConfig;
use tse::workload::trace::{generate_and_apply_trace, TraceMix};
use tse::workload::university::{build_university, populate_university};

#[test]
fn two_hundred_changes_with_snapshot_checkpoints() {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("dev", &["Person", "Student", "Staff", "TeachingStaff", "SupportStaff"])
        .unwrap();
    tse.create_view("obs", &["Person", "Grad"]).unwrap();
    let loader = tse.create_view_all("loader").unwrap();
    let oids = populate_university(&mut tse, loader, 100).unwrap();

    let chunks = if cfg!(debug_assertions) { 2 } else { 8 };
    let per_chunk = 25;
    for chunk in 0..chunks {
        generate_and_apply_trace(&mut tse, "dev", per_chunk, &TraceMix::default(), 1000 + chunk)
            .unwrap();
        // Checkpoint: snapshot, restore, and keep going with the restored
        // system.
        let restored = TseSystem::decode(tse.encode(), StoreConfig::default()).unwrap();
        tse = restored;
        // Invariants at every checkpoint.
        assert!(tse.views_unaffected_except("dev").unwrap());
        assert_eq!(tse.db().object_count(), oids.len());
        let v1 = tse.views().versions("dev").unwrap()[0];
        assert_eq!(
            tse.get(v1, oids[0], "Person", "name").unwrap(),
            Value::Str("p0".into())
        );
    }
    let versions = tse.views().versions("dev").unwrap().len();
    assert_eq!(versions, chunks as usize * per_chunk + 1);

    // Spot-probe a spread of historical versions.
    let all = tse.views().versions("dev").unwrap().to_vec();
    for idx in [0, all.len() / 3, 2 * all.len() / 3, all.len() - 1] {
        let vid = all[idx];
        let view = tse.view(vid).unwrap();
        let person = view.lookup(tse.db(), "Person");
        assert!(person.is_ok(), "version {idx} lost Person");
        assert!(tse.get(vid, oids[1], "Person", "name").is_ok());
    }
}

#[test]
fn wide_random_schema_absorbs_changes() {
    use tse::workload::random::{random_schema, RandomSchemaParams};
    let r = random_schema(&RandomSchemaParams {
        classes: 24,
        max_supers: 3,
        props_per_class: 3,
        objects: 150,
        seed: 99,
    })
    .unwrap();
    let mut tse = r.tse;
    let n = if cfg!(debug_assertions) { 10 } else { 40 };
    generate_and_apply_trace(&mut tse, "R", n, &TraceMix::default(), 4242).unwrap();
    assert_eq!(tse.db().object_count(), 150);
    assert_eq!(tse.views().versions("R").unwrap().len(), n + 1);
    // Full persistence round-trip of the big state.
    let restored = TseSystem::decode(tse.encode(), StoreConfig::default()).unwrap();
    assert_eq!(restored.views().view_count(), tse.views().view_count());
    assert_eq!(restored.db().object_count(), 150);
}
