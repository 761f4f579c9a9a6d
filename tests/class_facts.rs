//! What the schema knows about a class — its resolved type, its intent
//! type, its access plans — survives every schema change that does not
//! touch the class's lineage, and rides through every `Schema::clone`
//! (DESIGN.md §4). These tests hold the surviving facts against a cold
//! schema along the repo benchmark's frozen trace, and count what a fork and
//! a published snapshot still have to resolve: nothing.

mod support;

use support::assert_facts_equal_a_cold_schema;
use tse::core::{SharedSystem, TseSystem};
use tse::workload::trace::{generate_and_apply_trace, TraceMix};
use tse::workload::university::{build_university, populate_university};

const FAMILY: &str = "U";

/// The university of Figure 2 under one whole-schema view.
fn university() -> TseSystem {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all(FAMILY).unwrap();
    tse
}

#[test]
fn cached_facts_equal_a_cold_schema_after_every_change_of_the_trace() {
    // The benchmark's frozen trace: 105 changes, default mix, seed 1.
    let trace = generate_and_apply_trace(&mut university(), FAMILY, 105, &TraceMix::default(), 1)
        .unwrap()
        .changes;
    let mut tse = university();
    let v1 = tse.current_view(FAMILY).unwrap().id;
    let oids = populate_university(&mut tse, v1, 18).unwrap();
    for (i, change) in trace.iter().enumerate() {
        let report = tse.evolve(FAMILY, change).unwrap();
        let db = tse.db();
        let cold = assert_facts_equal_a_cold_schema(db, &format!("change {i}"));

        // And the reads through the new view version, planned against the
        // surviving facts: same values, same errors, same slice hops.
        let (hops, cold_hops) = (db.slicing_stats().slice_hops, cold.slicing_stats().slice_hops);
        for &class in &tse.view(report.view).unwrap().classes {
            let resolved = db.schema().resolved_type(class).unwrap();
            for name in resolved.props.keys().map(String::as_str).chain(["no_such_attribute"]) {
                for &oid in &oids {
                    assert_eq!(
                        db.read_attr(oid, class, name),
                        cold.read_attr(oid, class, name),
                        "change {i}: {name} of {oid} through {class}"
                    );
                }
            }
        }
        assert_eq!(
            db.slicing_stats().slice_hops - hops,
            cold.slicing_stats().slice_hops - cold_hops,
            "change {i}: slice hops"
        );
    }
    assert_eq!(tse.db().schema().class_count(), 519);
}

#[test]
fn a_fork_and_a_published_snapshot_resolve_nothing_the_change_left_alone() {
    let tse = university();
    let schema = tse.db().schema();
    for class in schema.class_ids() {
        schema.resolved_type(class).unwrap();
    }

    // The fork of a warm system is warm.
    let fork = tse.fork_shared();
    let forked = fork.db().schema();
    let resolved = forked.types_resolved();
    for class in forked.class_ids() {
        forked.resolved_type(class).unwrap();
    }
    assert_eq!(forked.types_resolved(), resolved, "the fork resolved a type again");
    drop(fork);

    // So is the snapshot an evolve publishes, for every class off the
    // lineage that changed: Student gains an attribute; the Staff side of
    // the hierarchy (and Person above) is read without one resolution.
    let shared = SharedSystem::from_system(tse);
    shared.evolve_cmd(FAMILY, "add_attribute nick: str to Student").unwrap();
    let session = shared.session();
    let published = session.meta().schema();
    let resolved = published.types_resolved();
    for name in ["Person", "Staff", "TeachingStaff", "SupportStaff"] {
        let class = published.by_name(name).unwrap();
        assert!(!published.resolved_type(class).unwrap().contains_name("nick"));
    }
    assert_eq!(published.types_resolved(), resolved, "a reader of the snapshot resolved a type");
    // The changed lineage was resolved by the classifier on the way in.
    let primed = session.current_view(FAMILY).unwrap().lookup_in(published, "Student").unwrap();
    assert!(published.resolved_type(primed).unwrap().contains_name("nick"));
    assert_eq!(published.types_resolved(), resolved);
}
