//! The classifier's subsumption prover lives as long as the schema it
//! describes (DESIGN.md §4, §10). These tests hold it against a from-scratch
//! saturation — the batch fixpoint it replaced, kept as a test oracle in
//! `crates/classifier/src/batch.rs` — along the frozen Sjøberg trace of the
//! repo benchmark, across aborted evolves that hand class ids out again,
//! across a reopen, and against the data. The schema's fact cache lives the
//! same life, so the abort tests hold it against a cold schema at the same
//! points (the rest of its contract is in `tests/class_facts.rs`).

#[path = "../crates/classifier/src/batch.rs"]
mod batch;
mod support;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use batch::BatchClosure;
use tse::classifier::Subsumption;
use tse::core::{EvolutionReport, SchemaChange, SharedSystem, TseSystem};
use tse::object_model::{Database, PropertyDef, Schema, Value, ValueType};
use tse::storage::{FailAction, SegmentId};
use tse::telemetry::JournalRecord;
use tse::workload::trace::{generate_and_apply_trace, TraceMix};
use tse::workload::university::{build_university, populate_university};

const FAMILY: &str = "U";

/// The university of Figure 2 under one whole-schema view.
fn university() -> TseSystem {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all(FAMILY).unwrap();
    tse
}

/// The university with 180 objects spread over its base classes.
fn populated_university() -> TseSystem {
    let mut tse = university();
    let view = tse.current_view(FAMILY).unwrap().id;
    populate_university(&mut tse, view, 180).unwrap();
    tse
}

/// What a change must leave alone in the store it shares with the live
/// system: the record write counters and the segments. A change adds
/// capacity and moves no data, so it writes nothing there.
fn store_footprint(db: &Database) -> ([u64; 4], Vec<(SegmentId, String)>) {
    let stats = db.store_stats();
    let counts =
        [stats.records_allocated, stats.records_freed, stats.record_writes, stats.record_moves];
    (counts, db.store().segments())
}

/// The benchmark's frozen trace: 105 changes, default mix, seed 1.
fn frozen_trace() -> Vec<SchemaChange> {
    generate_and_apply_trace(&mut university(), FAMILY, 105, &TraceMix::default(), 1)
        .unwrap()
        .changes
}

/// `prover` — brought up to date with the classes created since the last
/// classification — must equal a from-scratch saturation of `schema`, bit
/// for bit.
fn assert_equals_from_scratch(prover: &Subsumption, schema: &Schema, context: &str) {
    let mut prover = prover.clone();
    prover.advance(schema);
    assert_eq!(prover.known(), schema.class_count());
    let oracle = BatchClosure::new(schema);
    for a in schema.class_ids() {
        for b in schema.class_ids() {
            assert_eq!(
                prover.subsumes(a, b),
                oracle.subsumes(a, b),
                "{context}: {a} ⊆ {b} (persistent vs from scratch)"
            );
        }
    }
}

#[test]
fn the_prover_equals_a_from_scratch_saturation_after_every_change_of_the_trace() {
    let mut tse = populated_university();
    let footprint = store_footprint(tse.db());
    assert!(!footprint.1.is_empty(), "the objects have segments");
    let mut duplicates = 0;
    for (i, change) in frozen_trace().iter().enumerate() {
        duplicates += tse.evolve(FAMILY, change).unwrap().duplicates_folded;
        assert_equals_from_scratch(&tse.prover(), tse.db().schema(), &format!("change {i}"));
        assert_eq!(store_footprint(tse.db()), footprint, "change {i} wrote to the store");
    }
    // As at the commit before the prover became persistent (the repo
    // benchmark reports the same 519, and 48 of the 76 folds: it counts its
    // measured half of the trace). A different placement anywhere along the
    // trace moves at least one of the two.
    let classes = tse.db().schema().class_count();
    assert_eq!((classes, duplicates), (519, 76));

    // Cost follows what a class touches: the classes examined per
    // classification (its provable relatives) stay a small part of the
    // schema, read off the journal's `classifier.classify` spans.
    let mut candidates: Vec<u64> = tse
        .telemetry()
        .journal()
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Span { name, fields, .. } if name == "classifier.classify" => fields
                .iter()
                .find(|(key, _)| key == "candidates")
                .and_then(|(_, value)| value.as_u64()),
            _ => None,
        })
        .collect();
    candidates.sort_unstable();
    assert!(candidates.len() > 105, "one span per classification: {}", candidates.len());
    let median = candidates[candidates.len() / 2] as usize;
    assert!(median * 10 < classes, "median {median} candidates of {classes} classes");
    let observed = tse.telemetry().snapshot().histograms["classifier.candidates"].count;
    assert_eq!(observed as usize, candidates.len());
}

/// Changes applied before the aborted evolve, and after it.
const BEFORE_ABORT: [&str; 2] =
    ["add_attribute nick: str to Person", "delete_attribute salary from Staff"];
const AFTER_ABORT: [&str; 4] = [
    "add_class Visitor connected_to Person",
    "add_attribute badge: int to Staff",
    "insert_class Intern between Person - Student",
    "add_method senior: bool := age >= 40 to Person",
];

/// A composite change whose second primitive fails after its first created
/// and classified classes, then changes that are handed the same class ids.
fn abort_then_reuse(
    evolve: &dyn Fn(&str) -> tse::object_model::ModelResult<EvolutionReport>,
    failpoints: &tse::storage::FailpointRegistry,
    class_count: &dyn Fn() -> usize,
) -> Vec<EvolutionReport> {
    let mut reports: Vec<_> = BEFORE_ABORT.iter().map(|command| evolve(command).unwrap()).collect();
    let classes = class_count();
    failpoints.arm("evolve.classify", 2, FailAction::Error);
    let aborted = evolve("insert_class Intern between Person - Student");
    failpoints.disarm("evolve.classify");
    assert!(aborted.is_err());
    assert_eq!(class_count(), classes, "the aborted evolve left classes behind");
    reports.extend(AFTER_ABORT.iter().map(|command| evolve(command).unwrap()));
    assert!(reports[2].created.iter().any(|(_, id)| id.0 as usize >= classes), "ids reused");
    reports
}

/// The same successful changes on a system that never saw the abort.
fn uninterrupted_twin() -> (TseSystem, Vec<EvolutionReport>) {
    let mut twin = university();
    let reports = BEFORE_ABORT
        .iter()
        .chain(&AFTER_ABORT)
        .map(|command| twin.evolve_cmd(FAMILY, command).unwrap())
        .collect();
    (twin, reports)
}

fn assert_same_outcome(got: &[EvolutionReport], schema: &Schema) {
    let (twin, want) = uninterrupted_twin();
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.created, want.created, "{}", want.op);
        assert_eq!(got.duplicates_folded, want.duplicates_folded, "{}", want.op);
    }
    assert_eq!(schema.class_count(), twin.db().schema().class_count());
    for id in schema.class_ids() {
        let (got, want) = (schema.class(id).unwrap(), twin.db().schema().class(id).unwrap());
        assert_eq!(got.name, want.name);
        assert_eq!(got.direct_supers(), want.direct_supers(), "supers of {}", want.name);
        assert_eq!(got.direct_subs(), want.direct_subs(), "subs of {}", want.name);
        // No fact of a rolled-back class answers for the one that got its id.
        assert_eq!(schema.resolved_type(id), twin.db().schema().resolved_type(id), "{}", want.name);
    }
}

#[test]
fn an_aborted_evolve_leaves_nothing_in_the_prover_of_an_in_memory_system() {
    let tse = std::cell::RefCell::new(populated_university());
    let failpoints = tse.borrow().failpoints().clone();
    let footprint = store_footprint(tse.borrow().db());
    let reports = abort_then_reuse(
        &|command| {
            let out = tse.borrow_mut().evolve_cmd(FAMILY, command);
            let tse = tse.borrow();
            // Failed or not, the change wrote nothing to the store.
            assert_eq!(store_footprint(tse.db()), footprint, "{command}");
            // After a rollback the prover knows no class the schema lacks.
            assert!(tse.prover().known() <= tse.db().schema().class_count());
            assert_equals_from_scratch(&tse.prover(), tse.db().schema(), command);
            // Nor does the fact cache: the rollback restored the one that
            // never saw the rolled-back classes.
            support::assert_facts_equal_a_cold_schema(tse.db(), command);
            out
        },
        &failpoints,
        &|| tse.borrow().db().schema().class_count(),
    );
    assert_same_outcome(&reports, tse.borrow().db().schema());
}

#[test]
fn an_aborted_evolve_leaves_nothing_in_the_prover_of_a_shared_system() {
    let shared = SharedSystem::from_system(university());
    let reports = abort_then_reuse(
        &|command| {
            let out = shared.evolve_cmd(FAMILY, command);
            let session = shared.session();
            assert_equals_from_scratch(&shared.prover(), session.meta().schema(), command);
            out
        },
        &shared.failpoints(),
        &|| shared.session().meta().schema().class_count(),
    );
    assert_same_outcome(&reports, shared.session().meta().schema());
}

/// An evolve moves the live system's prover into its fork and brings it back
/// with the swap, so a read of the prover that ran beside an evolve would
/// copy the empty slot the move left. It waits for the evolve instead: over
/// a trace of successful changes, what it reads never shrinks.
#[test]
fn a_prover_read_beside_an_evolve_never_sees_the_moved_out_prover() {
    let shared = SharedSystem::from_system(university());
    let trace = frozen_trace();
    let done = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let (mut last, mut polls) = (shared.prover().known(), 0);
            while !done.load(Ordering::Acquire) {
                let known = shared.prover().known();
                assert!(known >= last, "poll {polls}: the prover shrank from {last} to {known}");
                (last, polls) = (known, polls + 1);
            }
            polls
        });
        for change in &trace {
            shared.evolve(FAMILY, change).unwrap();
        }
        done.store(true, Ordering::Release);
        poller.join().unwrap()
    });
    assert!(polls > 0);
    let session = shared.session();
    assert_equals_from_scratch(&shared.prover(), session.meta().schema(), "after the trace");
}

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_prover_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BASES: [(&str, &[&str], &[&str]); 5] = [
    ("Person", &[], &["name", "age"]),
    ("Student", &["Person"], &["gpa"]),
    ("Staff", &["Person"], &["salary"]),
    ("TA", &["Student", "Staff"], &["lecture"]),
    ("Grad", &["Student"], &[]),
];

fn props(names: &[&str]) -> Vec<tse::object_model::PendingProp> {
    names.iter().map(|n| PropertyDef::stored(n, ValueType::Int, Value::Int(0))).collect()
}

fn durable(dir: &std::path::Path) -> SharedSystem {
    let shared = TseSystem::builder(dir).open().unwrap();
    for (name, supers, attrs) in BASES {
        shared.define_base_class(name, supers, props(attrs)).unwrap();
    }
    shared.create_view(FAMILY, &BASES.map(|(name, ..)| name)).unwrap();
    shared
}

#[test]
fn a_reopened_system_classifies_like_one_that_never_closed() {
    // 21 commands that apply to the schema above, from an in-memory twin.
    let mut twin = TseSystem::new();
    for (name, supers, attrs) in BASES {
        twin.define_base_class(name, supers, props(attrs)).unwrap();
    }
    twin.create_view(FAMILY, &BASES.map(|(name, ..)| name)).unwrap();
    let commands: Vec<String> =
        generate_and_apply_trace(&mut twin, FAMILY, 21, &TraceMix::default(), 7)
            .unwrap()
            .changes
            .iter()
            .map(|change| change.render().unwrap())
            .collect();
    let (history, next) = commands.split_at(20);

    let (dir_a, dir_b) = (tmpdir("reopened"), tmpdir("uninterrupted"));
    let (reopened, uninterrupted) = (durable(&dir_a), durable(&dir_b));
    for (i, command) in history.iter().enumerate() {
        reopened.evolve_cmd(FAMILY, command).unwrap();
        uninterrupted.evolve_cmd(FAMILY, command).unwrap();
        if i == 9 {
            // Half the history comes back from a snapshot (no prover on
            // disk), the other half from WAL redo.
            reopened.checkpoint().unwrap();
        }
    }
    drop(reopened);
    let reopened = TseSystem::builder(&dir_a).open().unwrap();
    assert_equals_from_scratch(&reopened.prover(), reopened.session().meta().schema(), "reopened");

    let got = reopened.evolve_cmd(FAMILY, &next[0]).unwrap();
    let want = uninterrupted.evolve_cmd(FAMILY, &next[0]).unwrap();
    assert_eq!(got.created, want.created);
    assert_eq!(got.duplicates_folded, want.duplicates_folded);
    assert_equals_from_scratch(&reopened.prover(), reopened.session().meta().schema(), &next[0]);
    assert_eq!(reopened.prover().known(), uninterrupted.prover().known());
    drop((reopened, uninterrupted));
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

/// What a recovery left: class names in id order, the family's view
/// versions, how far the prover got, and every fact it holds.
fn recovered(sys: &SharedSystem) -> (Vec<String>, Vec<tse::view::ViewId>, usize, Vec<bool>) {
    let session = sys.session();
    let schema = session.meta().schema();
    let prover = sys.prover();
    assert_equals_from_scratch(&prover, schema, "recovered");
    let ids: Vec<_> = schema.class_ids().collect();
    (
        ids.iter().map(|c| schema.class(*c).unwrap().name.clone()).collect(),
        session.meta().views().versions(FAMILY).unwrap().to_vec(),
        prover.known(),
        ids.iter().flat_map(|a| ids.iter().map(|b| prover.subsumes(*a, *b))).collect(),
    )
}

#[test]
fn both_ways_to_open_a_directory_recover_the_same_system() {
    let dir = tmpdir("two_opens");
    let shared = durable(&dir);
    shared.evolve_cmd(FAMILY, "add_attribute email: str to Person").unwrap();
    // One change comes back from the snapshot, two from WAL redo.
    shared.checkpoint().unwrap();
    shared.evolve_cmd(FAMILY, "delete_attribute salary from Staff").unwrap();
    shared.evolve_cmd(FAMILY, "add_class Tutor connected_to Student").unwrap();
    drop(shared);

    let handle = SharedSystem::open(&dir).unwrap();
    let through_the_handle = recovered(&handle);
    drop(handle);
    let built = TseSystem::builder(&dir).open().unwrap();
    assert_eq!(recovered(&built), through_the_handle);
    assert_eq!(through_the_handle.1.len(), 4);
    drop(built);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn everything_the_prover_claims_holds_on_the_data() {
    let mut tse = university();
    let view = tse.current_view(FAMILY).unwrap().id;
    populate_university(&mut tse, view, 180).unwrap();
    generate_and_apply_trace(&mut tse, FAMILY, 105, &TraceMix::default(), 1).unwrap();

    let schema = tse.db().schema();
    let mut prover = tse.prover().clone();
    prover.advance(schema);
    let mut claims = 0;
    for a in schema.class_ids() {
        let inner = tse.db().extent(a).unwrap();
        for b in prover.related(a).into_iter().filter(|b| prover.subsumes(a, *b)) {
            claims += 1;
            assert!(
                inner.is_subset(&*tse.db().extent(b).unwrap()),
                "the prover claims {} ⊆ {}, the extents disagree",
                schema.class(a).unwrap().name,
                schema.class(b).unwrap().name
            );
        }
    }
    assert!(claims > schema.class_count(), "{claims} claims checked");
}
