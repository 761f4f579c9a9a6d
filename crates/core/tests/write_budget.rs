//! The budget of the write path, so that a write keeps costing what its
//! object touches and not what the schema holds: what a create, the first
//! write of an attribute added by an evolution (through the evolved view
//! class) and a steady `set` may allocate, on the Figure-2 university
//! evolved to about 100 classes and to about 500. Each count must be the
//! same at both sizes, and an is-a test allocates nothing at all.
//!
//! `cargo test --release -p tse-core --test write_budget -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tse_core::SharedSystem;
use tse_object_model::{ClassId, Oid, Value};
use tse_view::ViewId;
use tse_workload::university::{build_university, populate_university};

/// The system allocator plus a per-thread count of `alloc`/`realloc` calls
/// (per thread, so tests running beside this one do not show up in it).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a bump of a const-initialised
// thread-local `Cell`, which neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, with the caller's layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while `f` runs.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Objects the university is populated with before it evolves.
const POPULATION: usize = 90;
/// Operations measured of each kind.
const OPS: usize = 40;
/// The classes `add_attribute` steps cycle over, as the repo benchmark's
/// history does, so primed classes appear all over the DAG.
const TARGETS: [&str; 8] =
    ["Person", "Student", "Staff", "TeachingStaff", "TA", "Grad", "Undergrad", "SupportStaff"];

/// The university, populated and evolved by `add_attribute h<k>` steps
/// until its schema holds at least `classes` classes. Returns the system,
/// its newest view and the population.
fn evolved(classes: usize) -> (SharedSystem, ViewId, Vec<Oid>) {
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view_all("uni").unwrap();
    let oids = populate_university(&mut tse, v1, POPULATION).unwrap();
    let shared = SharedSystem::from_system(tse);
    let mut newest = v1;
    for k in 0.. {
        if shared.session().meta().schema().class_count() >= classes {
            break;
        }
        let command = format!("add_attribute h{k}: int = {k} to {}", TARGETS[k % TARGETS.len()]);
        newest = shared.evolve_cmd("uni", &command).unwrap().view;
    }
    (shared, newest, oids)
}

/// The allocations of each of `ops` runs of `op`, sorted: the median is
/// what one op costs, amortized growth of a table aside.
fn per_op(ops: usize, mut op: impl FnMut(usize)) -> Vec<u64> {
    let mut counts: Vec<u64> = (0..ops).map(|i| allocs(|| op(i)).1).collect();
    counts.sort_unstable();
    counts
}

/// What a create, a first write of `h0` and a steady set each allocate:
/// the median of [`OPS`] runs.
#[derive(Debug, PartialEq)]
struct Budget {
    create: u64,
    first_write: u64,
    steady_set: u64,
}

/// The [`Budget`] of the university evolved to `classes` classes, and how
/// many classes that is.
fn measure(classes: usize) -> (Budget, usize) {
    let (shared, newest, oids) = evolved(classes);
    let writer = shared.writer();
    let session = shared.session();
    let schema = session.meta().schema();
    let class_count = schema.class_count();

    // Warm-up: plans, the fact cache's entries and this thread's telemetry.
    let values = |i: usize| [("name", Value::Str(format!("w{i}"))), ("age", Value::Int(i as i64))];
    let warm = writer.create(newest, "Person", &values(0)).unwrap();
    writer.set(newest, warm, "Person", &[("h0", Value::Int(1))]).unwrap();
    writer.set(newest, warm, "Person", &[("age", Value::Int(2))]).unwrap();

    // The name strings are made outside the count; a create clones each
    // value once, into its slice.
    let named: Vec<_> = (1..=OPS).map(values).collect();
    let create = per_op(OPS, |i| {
        writer.create(newest, "Person", &named[i]).unwrap();
    });
    let first_write = per_op(OPS, |i| {
        writer.set(newest, oids[i], "Person", &[("h0", Value::Int(i as i64))]).unwrap();
    });
    let steady_set = per_op(OPS, |i| {
        writer.set(newest, oids[i], "Person", &[("age", Value::Int(-(i as i64)))]).unwrap();
    });
    let median = |counts: &[u64]| counts[counts.len() / 2];
    println!(
        "{class_count} classes: create {:?}, first write of h0 {:?}, steady set {:?}",
        create, first_write, steady_set
    );
    let budget = Budget {
        create: median(&create),
        first_write: median(&first_write),
        steady_set: median(&steady_set),
    };
    (budget, class_count)
}

#[test]
fn a_write_allocates_the_same_at_100_and_at_500_classes() {
    let (small, small_classes) = measure(100);
    let (large, large_classes) = measure(500);
    println!("{small_classes} classes: {small:?}");
    println!("{large_classes} classes: {large:?}");
    assert!(large_classes >= 4 * small_classes, "{small_classes} vs {large_classes} classes");
    assert!(small.first_write <= 10, "a first write of an added attribute: {small:?}");
    assert_eq!(small, large, "a write's allocations follow the schema's size");
}

/// The is-a test reads one bit of the ancestor set the fact cache keeps:
/// once the sets are built, asking it about every pair allocates nothing.
#[test]
fn an_is_a_test_allocates_nothing() {
    let (shared, _, _) = evolved(200);
    let session = shared.session();
    let schema = session.meta().schema();
    let classes: Vec<_> = schema.class_ids().collect();
    let below = |a: &ClassId| classes.iter().filter(|b| schema.is_sub_of(*a, **b)).count();
    let ask = || classes.iter().map(below).sum::<usize>();
    let warm = ask();
    let (again, n) = allocs(ask);
    assert_eq!(again, warm);
    assert!(warm > classes.len(), "every class is a subclass of itself and of the root");
    assert_eq!(n, 0, "{} is-a tests allocated {n} times", classes.len() * classes.len());
}
