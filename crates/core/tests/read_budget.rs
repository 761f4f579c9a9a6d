//! The budget of the read path, so its gain cannot rot silently: what a
//! `get`, a `select_where` (run as a pass, or served from the extent cache)
//! and a session's open and drop may allocate — on a buffer pool with room
//! to spare and on a full one that evicts — and that the slice-hop counter a
//! read feeds still counts the is-a distance a search of the class DAG finds.
//! Plus the budget of an evolve beside those reads: what one change
//! allocates follows the change, not the number of classes the schema holds
//! (its fork moves the classifier's prover and shares the class names).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tse_core::{SharedSystem, TseSystem};
use tse_object_model::{PropKind, PropertyDef, Value, ValueType};
use tse_storage::StoreConfig;
use tse_workload::university::{build_university, populate_university};

/// The system allocator plus a per-thread count of `alloc`/`realloc` calls
/// and of the bytes they asked for (per thread, so tests running beside this
/// one do not show up in it). A `realloc` counts its new size in full.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a bump of two const-initialised
// thread-local `Cell`s, which neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: as for `dealloc`, with the caller's layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while `f` runs.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, n, _) = allocs_and_bytes(f);
    (out, n)
}

/// Allocations the calling thread makes while `f` runs, and their bytes.
fn allocs_and_bytes<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

const MEMBERS: usize = 64;

/// `Person(name, age) ← Student(gpa)` read through the first view version
/// and, after two capacity-augmenting evolutions, through the third; plus a
/// `Seminar` of exactly [`MEMBERS`] people.
fn evolved(config: StoreConfig) -> (SharedSystem, Vec<tse_object_model::Oid>) {
    let mut sys = TseSystem::with_config(config);
    sys.define_base_class(
        "Person",
        &[],
        vec![
            PropertyDef::stored("name", ValueType::Str, Value::Null),
            PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
        ],
    )
    .unwrap();
    sys.define_base_class(
        "Student",
        &["Person"],
        vec![PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0))],
    )
    .unwrap();
    sys.define_base_class("Seminar", &["Person"], vec![]).unwrap();
    let v1 = sys.create_view("VS", &["Person", "Student", "Seminar"]).unwrap();
    let mut oids = Vec::new();
    for i in 0..MEMBERS as i64 {
        let values = [("name", Value::Str(format!("p{i}"))), ("age", Value::Int(18 + i))];
        oids.push(sys.create(v1, "Seminar", &values).unwrap());
        sys.create(v1, "Student", &values).unwrap();
    }
    let shared = SharedSystem::from_system(sys);
    shared.evolve_cmd("VS", "add_attribute email: str to Person").unwrap();
    shared.evolve_cmd("VS", "add_attribute credits: int = 0 to Student").unwrap();
    (shared, oids)
}

#[test]
fn a_get_allocates_only_the_value_it_returns() {
    let (shared, oids) = evolved(StoreConfig::default());
    let session = shared.session();
    let versions = session.meta().views().versions("VS").unwrap();
    let (v1, newest) = (versions[0], *versions.last().unwrap());
    assert_eq!(session.view(v1).unwrap().version, 1);
    assert_eq!(session.view(newest).unwrap().version, 3);
    for view in [v1, newest] {
        // The first read of a (view, class, attribute) compiles its plan,
        // builds the view's name table and sets this thread's telemetry up.
        let read = |attr| session.get(view, oids[0], "Seminar", attr).unwrap();
        assert_eq!(read("age"), Value::Int(18));
        assert_eq!(read("name"), Value::Str("p0".into()));

        let (_, ints) = allocs(|| {
            for oid in &oids {
                assert!(matches!(session.get(view, *oid, "Seminar", "age"), Ok(Value::Int(_))));
            }
        });
        assert_eq!(ints, 0, "a get of an Int attribute through {view} allocates");
        let (_, strs) = allocs(|| {
            for oid in &oids {
                assert!(matches!(session.get(view, *oid, "Seminar", "name"), Ok(Value::Str(_))));
            }
        });
        assert!(
            strs <= oids.len() as u64,
            "{strs} allocations for {} gets of a Str attribute through {view}",
            oids.len()
        );
    }
}

/// Pages of 64 bytes hold one slice record each and the pool holds 4 of
/// them, so a pass over the members evicts on every get while rereading one
/// member hits: neither may allocate (no index growth or rehash on a read).
#[test]
fn a_get_allocates_nothing_on_a_full_evicting_pool() {
    let config = StoreConfig { page_size: 64, buffer_pages: 4, ..StoreConfig::default() };
    let (shared, oids) = evolved(config);
    let session = shared.session();
    let newest = *session.meta().views().versions("VS").unwrap().last().unwrap();
    let age = |oid| session.get(newest, oid, "Seminar", "age");
    for oid in &oids {
        assert!(matches!(age(*oid), Ok(Value::Int(_))), "warm-up fills the pool");
    }

    let before = session.stats();
    let (_, evicting) = allocs(|| {
        for oid in &oids {
            assert!(matches!(age(*oid), Ok(Value::Int(_))));
        }
    });
    let missed = session.stats().delta_since(&before);
    assert_eq!(missed.page_misses, oids.len() as u64, "every get of the pass evicts: {missed:?}");
    assert_eq!(evicting, 0, "a get that evicts a page allocates");

    age(oids[0]).unwrap();
    let before = session.stats();
    let (_, hitting) = allocs(|| {
        for _ in &oids {
            assert!(matches!(age(oids[0]), Ok(Value::Int(_))));
        }
    });
    let hit = session.stats().delta_since(&before);
    assert_eq!(hit.page_hits, oids.len() as u64, "rereading one member hits: {hit:?}");
    assert_eq!(hitting, 0, "a get that hits a full pool allocates");
}

/// A thread's telemetry in a system is set up by its first measured
/// operation: its context and its metric shard, registered with the
/// domain. Every later get records into that shard and allocates nothing.
#[test]
fn a_threads_first_get_allocates_its_shard_and_no_later_get_allocates() {
    let (shared, oids) = evolved(StoreConfig::default());
    let session = shared.session();
    let newest = *session.meta().views().versions("VS").unwrap().last().unwrap();
    let age = |oid| session.get(newest, oid, "Seminar", "age");
    // Plans and name tables are the system's, not the thread's: warm them
    // here, so the new thread's first get sets up only its telemetry.
    for oid in &oids {
        assert!(matches!(age(*oid), Ok(Value::Int(_))));
    }
    let (first, later) = std::thread::scope(|s| {
        s.spawn(|| {
            let (_, first, bytes) = allocs_and_bytes(|| age(oids[0]).unwrap());
            let (_, later) = allocs(|| {
                for oid in &oids {
                    assert!(matches!(age(*oid), Ok(Value::Int(_))));
                }
            });
            ((first, bytes), later)
        })
        .join()
        .unwrap()
    });
    let (first, bytes) = first;
    assert!(
        (1..=10).contains(&first) && bytes >= 1_000,
        "a thread's first get made {first} allocations of {bytes} bytes"
    );
    assert_eq!(later, 0, "a get after the thread's first allocates");
    assert_eq!(shared.telemetry().counter("op.get"), 2 * oids.len() as u64 + 1);
}

/// A select the extent cache cannot serve: a value write to a non-member
/// kills the answer the warm-up cached (an ad-hoc select depends on every
/// value), so the call runs the pass again.
#[test]
fn a_select_resolves_its_names_once_not_once_per_member() {
    let (shared, _) = evolved(StoreConfig::default());
    let warm = shared.session();
    let newest = *warm.meta().views().versions("VS").unwrap().last().unwrap();
    let found = warm.select_where(newest, "Seminar", "age >= 30").unwrap();
    assert_eq!(found.len(), MEMBERS - 12, "warm-up, and the answer");
    let outsider = warm.select_where(newest, "Student", "age == 18").unwrap()[0];
    shared.writer().set(newest, outsider, "Student", &[("age", Value::Int(99))]).unwrap();
    let session = shared.session();
    let before = shared.telemetry().counter("extent.rebuilds");
    let (found, n) = allocs(|| session.select_where(newest, "Seminar", "age >= 30").unwrap());
    assert_eq!(shared.telemetry().counter("extent.rebuilds"), before + 1, "the call ran a pass");
    assert_eq!(found.len(), MEMBERS - 12);
    // The parsed expression (9), the result vector (sized once from the
    // extent), the bound names (2) and the answer kept for the next caller:
    // nothing per member (406 before access plans, 13 since the read pass).
    assert!(n <= 13, "select_where over {MEMBERS} members made {n} allocations");
}

/// A repeated select is served from the extent cache: no pass, and no
/// allocation but the parsed expression's and the returned list's.
#[test]
fn a_repeated_select_is_served_without_a_pass() {
    let (shared, _) = evolved(StoreConfig::default());
    let session = shared.session();
    let newest = *session.meta().views().versions("VS").unwrap().last().unwrap();
    let select = || session.select_where(newest, "Seminar", "age >= 30").unwrap();
    assert_eq!(select().len(), MEMBERS - 12, "warm-up, and the answer");
    let before = shared.telemetry().counter("extent.rebuilds");
    let (found, n) = allocs(select);
    assert_eq!(shared.telemetry().counter("extent.rebuilds"), before, "a hit ran a pass");
    assert_eq!(found.len(), MEMBERS - 12);
    let (_, parse) = allocs(|| tse_core::parse_expr("age >= 30").unwrap());
    // 9 to parse, 1 for the list returned (13 while every call ran the pass).
    assert!(n <= parse + 1 && n <= 10, "a served select_where made {n} allocations");
}

/// Opening and dropping a session sets the `mvcc.pinned_epochs` gauge
/// twice, in place: 4 allocations (6 while each set re-keyed the gauge).
#[test]
fn a_session_opens_and_drops_within_its_allocations() {
    let (shared, _) = evolved(StoreConfig::default());
    drop(shared.session());
    let (_, n) = allocs(|| drop(shared.session()));
    assert!(n <= 4, "opening and dropping a session made {n} allocations");
}

/// One `add_attribute` to `Item` on an in-memory system whose schema also
/// holds `unrelated` base classes no view of `F0` reaches: its allocations
/// and their bytes, after a warm-up change that classified every class once.
fn one_add_attribute(unrelated: usize) -> (u64, u64) {
    let mut sys = TseSystem::new();
    let name = PropertyDef::stored("name", ValueType::Str, Value::Null);
    sys.define_base_class("Item", &[], vec![name]).unwrap();
    for i in 0..unrelated {
        sys.define_base_class(&format!("Unrelated{i}"), &[], vec![]).unwrap();
    }
    sys.create_view("F0", &["Item"]).unwrap();
    let shared = SharedSystem::from_system(sys);
    shared.evolve_cmd("F0", "add_attribute warm: int to Item").unwrap();
    let (_, n, bytes) =
        allocs_and_bytes(|| shared.evolve_cmd("F0", "add_attribute probe: int to Item").unwrap());
    (n, bytes)
}

/// An evolve pays for what it changes. Its fork moves the classifier's
/// prover instead of copying two bit matrices of the whole schema, and the
/// copy of the name index it makes on its first new class bumps one
/// refcount per name instead of cloning a `String`. What is left grows with
/// the schema only through pointer spines (class list, fact cache, name
/// table): ≈ 310 bytes per class. With the copies it was ≈ 1.2 KB per class
/// (mostly the prover's) and one more allocation per class (a name's).
#[test]
fn an_evolve_allocates_for_its_change_not_for_the_schema() {
    let sizes = [0, 300, 1_000];
    let [(n0, b0), (n300, b300), (n1000, b1000)] = sizes.map(one_add_attribute);
    let counts = [n0, n300, n1000];
    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
    assert!(spread <= 8, "allocations of one add_attribute at {sizes:?} classes: {counts:?}");
    let per_class = b1000.saturating_sub(b0) / 1_000;
    assert!(
        per_class < 600,
        "one add_attribute allocates {per_class} more bytes per unrelated class \
         ({b0} / {b300} / {b1000} bytes at {sizes:?})"
    );
}

/// On the Figure-2 university schema every read adds to
/// `SlicingStats::slice_hops` exactly the is-a distance between the
/// perspective and the class whose slice holds the value, as a breadth-first
/// search of the schema (`Schema::up_distance`) measures it.
#[test]
fn slice_hops_per_read_are_the_searched_distance() {
    let (mut tse, _) = build_university().unwrap();
    let loader = tse.create_view_all("loader").unwrap();
    let oids = populate_university(&mut tse, loader, 27).unwrap();
    let db = tse.db();
    let schema = db.schema();
    let stored_names = |class| -> Vec<(String, tse_object_model::ClassId)> {
        let resolved = schema.resolved_type(class).unwrap();
        resolved
            .props
            .keys()
            .filter_map(|name| {
                let cand = resolved.get_unique(class, name).ok()?;
                let (_, def) = schema.def_by_key(cand.key).ok()?;
                matches!(def.kind, PropKind::Stored { .. }).then(|| (name.clone(), cand.def_class))
            })
            .collect()
    };
    // Write every attribute once, so each has a home slice (a never-written
    // attribute reads as its default and hops nowhere).
    for &oid in &oids {
        for class in db.direct_classes(oid).unwrap() {
            for (name, _) in stored_names(class) {
                let value = db.read_attr(oid, class, &name).unwrap();
                db.write_attr(oid, class, &name, value).unwrap();
            }
        }
    }
    db.reset_slice_hops();
    let (mut reads, mut searched) = (0u64, 0u64);
    for &oid in &oids {
        for via in schema.class_ids().filter(|c| db.is_member(oid, *c).unwrap()) {
            for (name, home) in stored_names(via) {
                db.read_attr(oid, via, &name).unwrap();
                reads += 1;
                searched += schema
                    .up_distance(via, home)
                    .or_else(|| schema.up_distance(home, via))
                    .unwrap_or(1) as u64;
            }
        }
    }
    assert!(reads > 200 && searched > reads / 2, "{reads} reads, {searched} hops");
    assert_eq!(db.slicing_stats().slice_hops, searched);
}
