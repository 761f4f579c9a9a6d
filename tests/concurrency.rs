//! Shared-access correctness: the legacy whole-system `RwLock` sharing
//! model (readers and writers both serialize on one lock), and the
//! control-plane / data-plane split of `SharedSystem`, where read sessions
//! pin epoch-published metadata snapshots and evolution only takes the
//! exclusive lock for the final swap-in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;

use tse::core::{SharedSystem, TseClient, TseSystem, TseWriter};
use tse::object_model::{PropertyDef, Value, ValueType};
use tse::storage::FailAction;
use tse::telemetry::json::validate_lines;
use tse::workload::history::{History, Op, Outcome};

fn build() -> (TseSystem, Vec<tse::object_model::Oid>, tse::view::ViewId) {
    let mut sys = TseSystem::new();
    sys.define_base_class(
        "Person",
        &[],
        vec![
            PropertyDef::stored("name", ValueType::Str, Value::Null),
            PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
        ],
    )
    .unwrap();
    let v = sys.create_view("VS", &["Person"]).unwrap();
    let mut oids = Vec::new();
    for i in 0..200 {
        oids.push(
            sys.create(
                v,
                "Person",
                &[("name", Value::Str(format!("p{i}"))), ("age", Value::Int(i as i64))],
            )
            .unwrap(),
        );
    }
    (sys, oids, v)
}

#[test]
fn parallel_readers_see_consistent_data() {
    let (sys, oids, v) = build();
    let shared = Arc::new(RwLock::new(sys));
    std::thread::scope(|scope| {
        for t in 0..8 {
            let shared = Arc::clone(&shared);
            let oids = oids.clone();
            scope.spawn(move || {
                for round in 0..50 {
                    let sys = shared.read();
                    let idx = (t * 31 + round * 7) % oids.len();
                    let age = sys.get(v, oids[idx], "Person", "age").unwrap();
                    assert_eq!(age, Value::Int(idx as i64));
                    // Extent evaluation (cache-refreshing) under read locks.
                    assert_eq!(sys.extent(v, "Person").unwrap().len(), oids.len());
                    // Query pipeline too.
                    let n = sys.select_where(v, "Person", "age >= 100").unwrap().len();
                    assert_eq!(n, 100);
                }
            });
        }
    });
}

#[test]
fn readers_interleaved_with_writers_stay_coherent() {
    let (sys, oids, v) = build();
    let shared = Arc::new(RwLock::new(sys));
    std::thread::scope(|scope| {
        // A writer bumps ages by 1000 one at a time.
        {
            let shared = Arc::clone(&shared);
            let oids = oids.clone();
            scope.spawn(move || {
                for (i, oid) in oids.iter().enumerate() {
                    let sys = shared.write();
                    sys.set(v, *oid, "Person", &[("age", Value::Int(1000 + i as i64))]).unwrap();
                }
            });
        }
        // Readers observe either the old or the new value, never junk.
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            let oids = oids.clone();
            scope.spawn(move || {
                for (i, oid) in oids.iter().enumerate() {
                    let sys = shared.read();
                    match sys.get(v, *oid, "Person", "age").unwrap() {
                        Value::Int(x) => {
                            assert!(
                                x == i as i64 || x == 1000 + i as i64,
                                "age of {oid} was {x}"
                            );
                        }
                        other => panic!("non-int age {other:?}"),
                    }
                }
            });
        }
    });
    // Final state: all bumped.
    let sys = shared.read();
    assert_eq!(sys.get(v, oids[5], "Person", "age").unwrap(), Value::Int(1005));
}

#[test]
fn evolution_under_lock_with_concurrent_old_version_readers() {
    let (sys, oids, v1) = build();
    let shared = Arc::new(RwLock::new(sys));
    std::thread::scope(|scope| {
        {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for i in 0..5 {
                    let mut sys = shared.write();
                    sys.evolve_cmd("VS", &format!("add_attribute extra{i}: int to Person"))
                        .unwrap();
                }
            });
        }
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            let oids = oids.clone();
            scope.spawn(move || {
                for oid in &oids {
                    let sys = shared.read();
                    // The old view keeps answering regardless of how far
                    // evolution has progressed.
                    assert!(sys.get(v1, *oid, "Person", "name").is_ok());
                }
            });
        }
    });
    let sys = shared.read();
    assert_eq!(sys.views().versions("VS").unwrap().len(), 6);
}

/// Person ← Student system with a two-class view — the shape a composite
/// `insert_class` macro needs (it splices a class between the two).
fn build_two_level() -> (TseSystem, Vec<tse::object_model::Oid>, tse::view::ViewId) {
    let mut sys = TseSystem::new();
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
    let v = sys.create_view("VS", &["Person", "Student"]).unwrap();
    let mut oids = Vec::new();
    for i in 0..100 {
        oids.push(
            sys.create(
                v,
                "Student",
                &[("name", Value::Str(format!("s{i}"))), ("age", Value::Int(i as i64))],
            )
            .unwrap(),
        );
    }
    (sys, oids, v)
}

#[test]
fn shared_system_readers_never_observe_torn_epoch() {
    // A composite macro (insert_class = add_class + add_edge) registers TWO
    // view versions. Under fork–evolve–swap both publish in one epoch, so a
    // reader must see the family at 1 version (old epoch) or 3 versions
    // (new epoch) — never the intermediate 2.
    let (sys, oids, v1) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    let epoch_before = shared.epoch();
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let shared = shared.clone();
            let done = Arc::clone(&done);
            scope.spawn(move || {
                shared
                    .evolve_cmd("VS", "insert_class Mid between Person - Student")
                    .unwrap();
                done.store(true, Ordering::Release);
            });
        }
        for t in 0..4 {
            let shared = shared.clone();
            let done = Arc::clone(&done);
            let oids = oids.clone();
            scope.spawn(move || {
                let mut rounds = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    // A fresh session pins whatever epoch is current.
                    let session = shared.session();
                    let versions = session.meta().views().versions("VS").unwrap().len();
                    assert!(
                        versions == 1 || versions == 3,
                        "torn epoch: reader saw {versions} view versions"
                    );
                    let current = session.current_view("VS").unwrap();
                    assert!(
                        current.version == 1 || current.version == 3,
                        "torn epoch: current view at version {}",
                        current.version
                    );
                    // The session's pinned metadata keeps answering queries
                    // against the live system mid-evolution.
                    let idx = (t * 13 + rounds * 7) % oids.len();
                    assert_eq!(
                        session.get(v1, oids[idx], "Student", "age").unwrap(),
                        Value::Int(idx as i64)
                    );
                    assert_eq!(
                        session.select_where(v1, "Student", "age >= 50").unwrap().len(),
                        50
                    );
                    rounds += 1;
                    if finished {
                        break;
                    }
                }
                assert!(rounds > 0);
            });
        }
    });

    // One composite change = one published epoch, two new view versions.
    assert_eq!(shared.epoch(), epoch_before + 1);
    let session = shared.session();
    assert_eq!(session.meta().views().versions("VS").unwrap().len(), 3);
    assert_eq!(session.current_view("VS").unwrap().version, 3);
    // Old sessions' class resolution stays valid against the new system.
    assert!(session.select_where(v1, "Mid", "age >= 0").is_err(), "v1 predates Mid");
}

#[test]
fn shared_system_aborted_evolve_publishes_no_epoch() {
    let (sys, oids, v1) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    let epoch_before = shared.epoch();
    let session_before = shared.session();
    let versions_before = session_before.meta().views().versions("VS").unwrap().len();

    // The failpoint fires inside the *private fork* (fork shares the
    // registry); the live system and its epoch must be untouched.
    shared.failpoints().arm("evolve.classify", 1, FailAction::Error);
    let err = shared.evolve_cmd("VS", "add_attribute gpa: float = 0.0 to Student");
    assert!(err.is_err());
    shared.failpoints().disarm("evolve.classify");

    assert_eq!(shared.epoch(), epoch_before, "aborted evolve published an epoch");
    let session = shared.session();
    assert_eq!(session.meta().views().versions("VS").unwrap().len(), versions_before);
    assert!(session.get(v1, oids[0], "Student", "gpa").is_err(), "no trace of the change");
    assert_eq!(session.get(v1, oids[7], "Student", "age").unwrap(), Value::Int(7));

    // The same change succeeds once the failpoint is gone — the live
    // system was never poisoned by the aborted fork.
    shared.evolve_cmd("VS", "add_attribute gpa: float = 0.0 to Student").unwrap();
    assert_eq!(shared.epoch(), epoch_before + 1);
    let mut session = session_before;
    session.refresh();
    assert_eq!(
        session.get(session.current_view("VS").unwrap().id, oids[0], "Student", "gpa").unwrap(),
        Value::Float(0.0)
    );
}

#[test]
fn shared_system_data_writes_interleave_with_readers() {
    let (sys, oids, v) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    std::thread::scope(|scope| {
        {
            let writer = shared.writer();
            let oids = oids.clone();
            scope.spawn(move || {
                for (i, oid) in oids.iter().enumerate() {
                    writer.set(v, *oid, "Student", &[("age", Value::Int(1000 + i as i64))]).unwrap();
                }
            });
        }
        for _ in 0..3 {
            let session = shared.session();
            let oids = oids.clone();
            scope.spawn(move || {
                for (i, oid) in oids.iter().enumerate() {
                    match session.get(v, *oid, "Student", "age").unwrap() {
                        Value::Int(x) => assert!(
                            x == i as i64 || x == 1000 + i as i64,
                            "age of {oid} was {x}"
                        ),
                        other => panic!("non-int age {other:?}"),
                    }
                }
            });
        }
    });
    let session = shared.session();
    assert_eq!(session.get(v, oids[5], "Student", "age").unwrap(), Value::Int(1005));
    // Data writes do not publish epochs; metadata is untouched.
    assert_eq!(shared.epoch(), 1);
}

/// Two unrelated base classes → two store segments → (usually) two lock
/// stripes. The striped write path must let concurrent `create` batches on
/// them proceed without losing a single record.
fn build_two_segments() -> (SharedSystem, tse::view::ViewId) {
    let mut sys = TseSystem::new();
    sys.define_base_class(
        "Sensor",
        &[],
        vec![PropertyDef::stored("unit", ValueType::Str, Value::Null)],
    )
    .unwrap();
    sys.define_base_class(
        "Reading",
        &[],
        vec![PropertyDef::stored("celsius", ValueType::Int, Value::Int(0))],
    )
    .unwrap();
    let shared = SharedSystem::from_system(sys);
    let v = shared.create_view("LAB", &["Sensor", "Reading"]).unwrap();
    (shared, v)
}

#[test]
fn concurrent_create_batches_on_two_classes_lose_nothing() {
    let (shared, v) = build_two_segments();
    const PER_THREAD: usize = 250;
    std::thread::scope(|scope| {
        for t in 0..4 {
            let writer = shared.writer();
            scope.spawn(move || {
                let (class, attr) = if t % 2 == 0 { ("Sensor", "unit") } else { ("Reading", "celsius") };
                for i in 0..PER_THREAD {
                    let value = if t % 2 == 0 {
                        Value::Str(format!("u{t}-{i}"))
                    } else {
                        Value::Int((t * PER_THREAD + i) as i64)
                    };
                    writer.create(v, class, &[(attr, value)]).unwrap();
                }
            });
        }
    });
    let session = shared.session();
    assert_eq!(session.extent(v, "Sensor").unwrap().len(), 2 * PER_THREAD);
    assert_eq!(session.extent(v, "Reading").unwrap().len(), 2 * PER_THREAD);
    // The stripe metrics are registered (conflicts may legitimately be 0
    // on an uncontended run, but the counter must exist).
    let snap = shared.telemetry().snapshot();
    assert!(
        snap.counters.contains_key("stripe.conflicts"),
        "stripe.conflicts missing from telemetry"
    );
}

#[test]
fn cross_segment_delete_objects_does_not_deadlock_same_stripe_writers() {
    // Students slice across two segments: "name" homes in Person's segment,
    // "gpa" in Student's. delete_objects therefore frees records in both
    // segments while another writer keeps hammering one of them.
    let mut sys = TseSystem::new();
    sys.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
    )
    .unwrap();
    sys.define_base_class(
        "Student",
        &["Person"],
        vec![PropertyDef::stored("gpa", ValueType::Int, Value::Int(0))],
    )
    .unwrap();
    let shared = SharedSystem::from_system(sys);
    let v = shared.create_view("VS", &["Person", "Student"]).unwrap();

    let writer = shared.writer();
    let mut doomed = Vec::new();
    for i in 0..200 {
        let oid = writer
            .create(
                v,
                "Student",
                &[("name", Value::Str(format!("s{i}"))), ("gpa", Value::Int(i))],
            )
            .unwrap();
        doomed.push(oid);
    }

    std::thread::scope(|scope| {
        // Deleter: cross-segment frees, batch by batch.
        {
            let writer = shared.writer();
            let doomed = doomed.clone();
            scope.spawn(move || {
                for chunk in doomed.chunks(10) {
                    writer.delete_objects(chunk).unwrap();
                }
            });
        }
        // Same-stripe writers: keep creating/updating Students while the
        // deleter holds and releases the same segments' stripes.
        for t in 0..2 {
            let writer = shared.writer();
            scope.spawn(move || {
                for i in 0..100 {
                    let oid = writer
                        .create(
                            v,
                            "Student",
                            &[("name", Value::Str(format!("w{t}-{i}"))), ("gpa", Value::Int(i))],
                        )
                        .unwrap();
                    writer.set(v, oid, "Student", &[("gpa", Value::Int(i + 1))]).unwrap();
                }
            });
        }
    });

    // Every doomed object is gone; every late create survived.
    let session = shared.session();
    assert_eq!(session.extent(v, "Student").unwrap().len(), 200);
    assert_eq!(session.select_where(v, "Student", "gpa >= 1").unwrap().len(), 200);
}

#[test]
fn fork_mid_write_batch_sees_all_or_none() {
    // A write batch = one WriteSession operation (here: one `update_where`
    // touching every object). The swap latch makes fork–evolve–swap wait
    // out in-flight batches and blocks new ones until the swap, so no
    // batch can half-land in the forked successor. Evidence: after many
    // concurrent evolutions, the final state reflects the *last complete
    // batch* — nothing was lost at any swap, nothing tore.
    let (sys, oids, v) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    const ROUNDS: i64 = 30;

    std::thread::scope(|scope| {
        {
            let writer = shared.writer();
            scope.spawn(move || {
                for k in 1..=ROUNDS {
                    let n = writer
                        .update_where(v, "Student", "age >= 0", &[("age", Value::Int(10_000 + k))])
                        .unwrap();
                    assert_eq!(n, 100);
                }
            });
        }
        {
            let shared = shared.clone();
            scope.spawn(move || {
                for i in 0..6 {
                    shared
                        .evolve_cmd("VS", &format!("add_attribute extra{i}: int to Student"))
                        .unwrap();
                }
            });
        }
    });

    // Uniform final state: every object carries the last batch's value. A
    // swap that dropped half a batch would leave a mix of round values.
    let session = shared.session();
    for oid in &oids {
        assert_eq!(
            session.get(v, *oid, "Student", "age").unwrap(),
            Value::Int(10_000 + ROUNDS),
            "write batch torn across an epoch swap"
        );
    }
    // Each evolve forks copy-free: the shared fork never quiesces the
    // stripes for a physical copy, and the version chains it layered on
    // the live store are observable as the `mvcc.versions` gauge.
    let snap = shared.telemetry().snapshot();
    assert!(
        snap.counters.contains_key("mvcc.versions"),
        "mvcc.versions gauge missing from telemetry"
    );
}

#[test]
fn read_session_pinned_mid_batch_sees_all_or_none() {
    // A ReadSession opened while an `update_where` batch is installing
    // must observe the pre-batch state or the whole batch — never a mix.
    // The batch's write ticket holds the stable epoch below its stamp
    // until every record version is installed, so no session can pin an
    // epoch that straddles it.
    let (sys, oids, v) = build();
    let shared = SharedSystem::from_system(sys);
    // Uniform starting state so a torn snapshot is detectable as a mix.
    shared
        .writer()
        .update_where(v, "Person", "age >= 0", &[("age", Value::Int(10_000))])
        .unwrap();
    const ROUNDS: i64 = 25;
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let writer = shared.writer();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for k in 1..=ROUNDS {
                    let n = writer
                        .update_where(v, "Person", "age >= 0", &[("age", Value::Int(10_000 + k))])
                        .unwrap();
                    assert_eq!(n, 200);
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..4 {
            let shared = shared.clone();
            let oids = oids.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let session = shared.session();
                    let first = session.get(v, oids[0], "Person", "age").unwrap();
                    for oid in &oids {
                        let age = session.get(v, *oid, "Person", "age").unwrap();
                        assert_eq!(age, first, "session observed a half-installed batch");
                    }
                    // Repeatable: re-reading under the same session returns
                    // the same value even though the writer has moved on.
                    assert_eq!(session.get(v, oids[0], "Person", "age").unwrap(), first);
                }
            });
        }
    });

    let session = shared.session();
    assert_eq!(session.get(v, oids[7], "Person", "age").unwrap(), Value::Int(10_000 + ROUNDS));
}

#[test]
fn session_spanning_evolve_swap_keeps_pre_swap_state_until_drop() {
    // A session pinned before a write burst and an evolution swap keeps
    // answering from its pinned epoch for its whole lifetime: the original
    // extent, the original attribute values, no late creates, no deletes.
    // Only a session opened (or refreshed) after the swap sees the new
    // world.
    let (sys, oids, v) = build();
    let shared = SharedSystem::from_system(sys);
    let session = shared.session(); // pinned before everything below

    let writer = shared.writer();
    let mut created = Vec::new();
    for i in 0..50 {
        created.push(
            writer
                .create(
                    v,
                    "Person",
                    &[("name", Value::Str(format!("late{i}"))), ("age", Value::Int(1000 + i))],
                )
                .unwrap(),
        );
    }
    writer.delete_objects(&oids[..20]).unwrap();
    writer.update_where(v, "Person", "age >= 0", &[("age", Value::Int(7777))]).unwrap();
    shared.evolve_cmd("VS", "add_attribute extra: int to Person").unwrap();

    let extent = session.extent(v, "Person").unwrap();
    assert_eq!(extent.len(), 200, "pre-swap extent changed under a pinned session");
    assert!(created.iter().all(|c| !extent.contains(c)), "late create leaked into pinned session");
    assert_eq!(session.get(v, oids[0], "Person", "age").unwrap(), Value::Int(0));
    assert_eq!(session.get(v, oids[150], "Person", "age").unwrap(), Value::Int(150));
    assert_eq!(session.select_where(v, "Person", "age >= 100").unwrap().len(), 100);
    drop(session);

    // A fresh session observes everything: 200 − 20 + 50 objects, the
    // uniform update, and the deletions.
    let session = shared.session();
    let extent = session.extent(v, "Person").unwrap();
    assert_eq!(extent.len(), 230);
    assert!(session.get(v, oids[0], "Person", "age").is_err(), "deleted object resurrected");
    assert_eq!(session.get(v, oids[150], "Person", "age").unwrap(), Value::Int(7777));
}

/// Every class a session can name: `(view version, view-local name)` over
/// all versions of the family its metadata snapshot knows.
fn named_classes(session: &tse::core::ReadSession) -> Vec<(tse::view::ViewId, String)> {
    let meta = session.meta();
    let mut out = Vec::new();
    for version in meta.views().versions("VS").unwrap() {
        let view = meta.view(*version).unwrap();
        for class in &view.classes {
            out.push((*version, view.local_name_in(meta.schema(), *class).unwrap()));
        }
    }
    out
}

fn assert_extents_match_uncached(session: &tse::core::ReadSession, step: usize) {
    for (view, class) in named_classes(session) {
        assert_eq!(
            session.extent(view, &class).unwrap(),
            session.extent_uncached(view, &class).unwrap(),
            "step {step}: cached extent of {class} in {view:?} differs at pinned epoch {}",
            session.pinned_epoch()
        );
    }
}

#[test]
fn cached_extents_match_an_uncached_computation_at_every_pin() {
    // Differential test of the extent cache: a seeded interleaving of
    // creates, deletes, add/remove, value sets, evolves and sessions pinned
    // at different epochs; after every step every class of every view
    // version is compared, through every live pin, with a computation that
    // reads and writes no cache.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let (sys, oids, _) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    let mut rng = StdRng::seed_from_u64(0x0e47_e275);
    let mut live = oids;
    let mut pins = std::collections::VecDeque::new();
    let class_count = |shared: &SharedSystem| shared.session().meta().schema().class_count();

    for step in 0..160 {
        let writer = shared.writer();
        let newest = writer.meta().current_view("VS").unwrap().id;
        let pick = live[rng.gen_range(0..live.len())];
        // Membership ops may be refused (removing a non-member, setting
        // through a class the object left); the cache must be right either way.
        match rng.gen_range(0..12) {
            0..=2 => {
                let class = ["Person", "Student"][rng.gen_range(0..2)];
                let age = Value::Int(rng.gen_range(0..90));
                live.push(writer.create(newest, class, &[("age", age)]).unwrap());
            }
            3 if live.len() > 1 => {
                let doomed = live.swap_remove(rng.gen_range(0..live.len()));
                writer.delete_objects(&[doomed]).unwrap();
            }
            4 => drop(writer.add_to(newest, &[pick], "Student")),
            5 => drop(writer.remove_from(newest, &[pick], "Student")),
            6 | 7 => drop(writer.set(newest, pick, "Person", &[("age", Value::Int(step as i64))])),
            8 => {
                let class = ["Person", "Student"][rng.gen_range(0..2)];
                shared.evolve_cmd("VS", &format!("add_attribute a{step}: int to {class}")).unwrap();
            }
            _ => {
                pins.push_back(shared.session());
                if pins.len() > 4 {
                    pins.pop_front();
                }
            }
        }
        if step % 50 == 25 {
            // An evolve aborted after its first primitive created classes
            // (the failpoint fires in the composite's second primitive),
            // then one that succeeds and is handed the same class ids.
            let classes = class_count(&shared);
            let created = shared.telemetry().counter("evolve.classes_created");
            shared.failpoints().arm("evolve.classify", 2, FailAction::Error);
            let aborted = shared.evolve_cmd("VS", "insert_class Intern between Person - Student");
            shared.failpoints().disarm("evolve.classify");
            assert!(aborted.is_err());
            assert!(shared.telemetry().counter("evolve.classes_created") > created);
            assert_eq!(class_count(&shared), classes, "the aborted evolve left classes behind");
            assert_extents_match_uncached(&shared.session(), step);
            shared.evolve_cmd("VS", &format!("add_attribute b{step}: int to Student")).unwrap();
            assert!(class_count(&shared) > classes);
        }
        for session in pins.iter().chain([&shared.session()]) {
            assert_extents_match_uncached(session, step);
        }
    }
}

#[test]
fn first_extent_read_of_a_primed_class_after_the_swap_scans_nothing() {
    let (sys, _, v1) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    let telemetry = shared.telemetry();
    assert_eq!(shared.session().extent(v1, "Person").unwrap().len(), 100);

    let v2 = shared.evolve_cmd("VS", "add_attribute nick: str to Person").unwrap().view;
    let rebuilds = telemetry.counter("extent.rebuilds");
    let hits = telemetry.counter("extent.cache_hits");
    assert_eq!(shared.session().extent(v2, "Person").unwrap().len(), 100);
    assert_eq!(telemetry.counter("extent.rebuilds"), rebuilds, "the swap-in lost Person's extent");
    assert_eq!(telemetry.counter("extent.cache_hits"), hits + 1, "derived from its source's entry");
}

#[test]
fn creates_through_an_evolved_view_rebuild_no_extent() {
    let (sys, _, _) = build_two_level();
    let shared = SharedSystem::from_system(sys);
    for i in 0..8 {
        shared.evolve_cmd("VS", &format!("add_attribute extra{i}: int to Person")).unwrap();
    }
    let writer = shared.writer();
    let newest = writer.meta().current_view("VS").unwrap().id;
    let telemetry = shared.telemetry();
    let rebuilds = telemetry.counter("extent.rebuilds");
    for i in 0..1000 {
        let values = [("age", Value::Int(i)), ("extra7", Value::Int(i))];
        writer.create(newest, "Student", &values).unwrap();
    }
    assert_eq!(telemetry.counter("extent.rebuilds"), rebuilds, "a create built an extent");
    // The counter is live: reading the extent after those creates does rebuild.
    assert_eq!(shared.session().extent(newest, "Student").unwrap().len(), 1100);
    assert!(telemetry.counter("extent.rebuilds") > rebuilds);
}

fn bank_schema(sys: &SharedSystem) {
    sys.define_base_class(
        "Account",
        &[],
        vec![
            PropertyDef::stored("tag", ValueType::Int, Value::Int(-1)),
            PropertyDef::stored("balance", ValueType::Int, Value::Int(0)),
        ],
    )
    .unwrap();
    sys.create_view("BANK", &["Account"]).unwrap();
}

/// Pinned readers vs writer churn vs an evolution swap: four readers pin a
/// session *before* the churn starts and re-read the accounts for the whole
/// run, while two writers rewrite every balance each round and grow the
/// extent and the main thread swaps a schema evolution in underneath them.
/// Every sweep's digest must equal the reader's pin-time digest (repeatable
/// reads, frozen extent). Once the pins drop, the epoch GC must reclaim the
/// superseded versions, and the journal of the race must pass the gate.
#[test]
fn pinned_readers_keep_their_snapshot_under_churn_and_an_evolve() {
    const ACCOUNTS: i64 = 64;
    const READER_ROUNDS: usize = 25;
    const WRITER_ROUNDS: i64 = 40;

    let shared = SharedSystem::new();
    bank_schema(&shared);
    let mut history = History::new("BANK", "Account", "tag", bank_schema);
    let bank = shared.client("BANK");
    for tag in 0..ACCOUNTS {
        let values = vec![("balance".to_string(), Value::Int(tag))];
        history.issue(&bank, Op::Create { tag, values }).unwrap();
    }
    let history = history.check(&bank).unwrap();
    let telemetry = shared.telemetry();
    // Journal the data plane too (every op becomes a slow-op event), and
    // start fresh so every record belongs to the race below.
    telemetry.reset();
    telemetry.set_slow_op_threshold_ns(1);

    let start = std::sync::Barrier::new(7); // 4 readers + 2 writers + evolver
    std::thread::scope(|scope| {
        for r in 0..4 {
            let (shared, history, start) = (&shared, &history, &start);
            scope.spawn(move || {
                let pinned = shared.client("BANK").session().unwrap();
                let frozen = history.digest(&pinned).unwrap();
                assert_eq!(frozen.len(), ACCOUNTS as usize);
                start.wait();
                for round in 0..READER_ROUNDS {
                    let now = history.digest(&pinned).unwrap();
                    assert_eq!(now, frozen, "reader {r} round {round}: pinned read drifted");
                }
            });
        }
        for w in 0..2i64 {
            let (shared, start) = (&shared, &start);
            scope.spawn(move || {
                let writer = shared.client("BANK").writer().unwrap();
                start.wait();
                for i in 0..WRITER_ROUNDS {
                    // Rewrite every seeded balance (a new version per
                    // object, per round) and grow the live extent.
                    let balance = [("balance", Value::Int(1_000 + w * 100 + i))];
                    writer.update_where("Account", "balance >= 0", &balance).unwrap();
                    let tag = Value::Int(ACCOUNTS + w * WRITER_ROUNDS + i);
                    writer.create("Account", &[("tag", tag), ("balance", Value::Int(-1))]).unwrap();
                }
            });
        }
        start.wait();
        shared
            .evolve_cmd("BANK", "add_attribute frozen: bool = false to Account")
            .expect("schema evolution under pinned sessions");
    });

    // Every pin has dropped: the whole churn backlog sits below the GC
    // watermark now.
    shared.gc_now();
    let reclaimed = telemetry.counter("mvcc.gc_reclaimed");
    assert!(reclaimed > 0, "GC must reclaim superseded versions once pins drop");
    telemetry.journal_metrics_snapshot();
    let lines = telemetry.journal_lines();
    let records = validate_lines(&lines).expect("journal is well-formed JSON-lines");
    assert!(records > 100, "journal must capture the race, got {records}");
    assert!(lines.contains("mvcc.gc_reclaimed"), "snapshot must carry the GC counters");
    assert_eq!(telemetry.journal_dropped(), 0, "default capacity must not drop");
    let report = tse_inspect::Journal::parse(&lines).unwrap().check();
    assert!(report.problems.is_empty(), "the race's journal fails the gate: {:?}", report.problems);
}

/// Known lost write: a create whose MVCC write ticket is older than a
/// racing `update_where`'s installs its values below the update's version
/// of the record (`Segment::modify` copies the newest version,
/// `push_version` inserts by stamp), so they never become current.
#[test]
#[ignore = "lost write between a create and a racing update_where (ROADMAP, open item 0)"]
fn a_create_racing_an_update_where_keeps_its_values() {
    for _ in 0..30 {
        let shared = SharedSystem::new();
        bank_schema(&shared);
        let history = Mutex::new(History::new("BANK", "Account", "tag", bank_schema));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for w in 0..2i64 {
                let (shared, history, start) = (&shared, &history, &start);
                scope.spawn(move || {
                    let bank = shared.client("BANK");
                    let (reader, writer) = (bank.session().unwrap(), bank.writer().unwrap());
                    start.wait();
                    for tag in w * 100..w * 100 + 40 {
                        let values = vec![("balance".to_string(), Value::Int(-1))];
                        let op = Op::Create { tag, values };
                        op.write(&writer, &reader, "Account", "tag").unwrap();
                        history.lock().unwrap().record(op, 1, Outcome::Acked);
                        // A complete create (balance -1) never matches.
                        let zero = [("balance", Value::Int(0))];
                        writer.update_where("Account", "balance >= 0", &zero).unwrap();
                    }
                });
            }
        });
        history.into_inner().unwrap().check(&shared.client("BANK")).unwrap();
    }
}
