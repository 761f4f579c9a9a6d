//! What an object costs resident, so the gain of the flat layout — one
//! inline version per record and per membership behind one spill pointer,
//! exact boxed fields, one sorted block of bindings per object instead of
//! trees and hash maps, an oid-indexed object table holding only live
//! entries — cannot rot silently.
//!
//! The university of Figure 2 is populated, evolved three times with writes
//! through the newest version, and garbage-collected. A live-byte counting
//! allocator measures what building it kept; `Database::resident_bytes`
//! says which owner holds it. Both are held to ceilings per object. A
//! second case deletes all but one object in a thousand: the object table
//! must then cost about what its survivors store, not what every oid ever
//! handed out would.
//! `cargo test --release -p tse-core --test object_budget -- --nocapture`
//! prints the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tse_object_model::{ResidentBytes, Value};
use tse_workload::university::{build_university, populate_university};

/// The system allocator plus a count of the bytes currently allocated.
/// The tests of this file take [`ONE_AT_A_TIME`], so nothing else allocates
/// beside the one measuring.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is an atomic add or subtract, which neither
// allocates nor touches allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`, with the caller's layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const OBJECTS: usize = 12_000;

/// Ceilings in bytes per object: the measured cost plus ~15%. Measured
/// (x86-64, release and debug alike): object table 56, membership 0,
/// slices 19 (the bindings block's count word and its slice triples),
/// home_of 27, record chains 86, fields 72; 283–284 live in all (373 with
/// a spill `Vec` per chain, `Vec` fields and two map `Vec`s per object;
/// 980 before the flat layout, with maps, trees and four-slot version
/// vectors).
const CEILINGS: [(&str, usize); 7] = [
    ("object table", 64),
    ("membership", 4),
    ("slices", 22),
    ("home_of", 31),
    ("record chains", 99),
    ("fields", 83),
    ("live, all owners", 327),
];

#[test]
fn an_object_costs_what_it_stores() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE.load(Ordering::Relaxed);
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view_all("U").unwrap();
    let oids = populate_university(&mut tse, v1, OBJECTS).unwrap();
    let evolves = [
        ("add_attribute email: str to Person", "Person", "email"),
        ("add_attribute credits: int = 0 to Student", "Student", "credits"),
        ("add_attribute office: int = 0 to Staff", "Staff", "office"),
    ];
    for (i, (command, class, attr)) in evolves.into_iter().enumerate() {
        tse.evolve_cmd("U", command).unwrap();
        let newest = *tse.views().versions("U").unwrap().last().unwrap();
        for oid in oids.iter().skip(i).step_by(4) {
            // Not every object is a member of `class`: those refuse.
            let _ = tse.set(newest, *oid, class, &[(attr, Value::Int(7))]);
        }
        for oid in oids.iter().step_by(9) {
            tse.set(newest, *oid, "Person", &[("age", Value::Int(i as i64))]).unwrap();
        }
    }
    // What `SharedSystem::gc_now` does: no pin is held, everything
    // superseded is reclaimable.
    let db = tse.db();
    assert!(db.gc(db.store().clock().gc_watermark()) > 0);
    assert_eq!(db.store().version_backlog(), 0, "one version per record after GC");
    let live = LIVE.load(Ordering::Relaxed) - before;

    let ResidentBytes { object_table, membership, slices, home_of, record_chains, fields } =
        db.resident_bytes();
    let owners = [
        ("object table", object_table),
        ("membership", membership),
        ("slices", slices),
        ("home_of", home_of),
        ("record chains", record_chains),
        ("fields", fields),
        ("live, all owners", live),
    ];
    let objects = db.object_count();
    assert_eq!(objects, OBJECTS);
    let mut over = Vec::new();
    for ((owner, bytes), (_, ceiling)) in owners.into_iter().zip(CEILINGS) {
        let per_object = bytes / objects;
        println!("{owner:>16}: {per_object:>5} B/object (ceiling {ceiling})");
        if per_object > ceiling {
            over.push(format!("{owner}: {per_object} B/object > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Objects created by the thinned-out case, and how many it keeps.
const CHURNED: usize = 16_384;
const KEEP_ONE_IN: usize = 1_000;

/// Object-table bytes per survivor of the thinned-out case, plus ~15%.
/// Measured (x86-64): 1 019 — the survivor's entry and the chunk headers of
/// the oids around it (1 075 with 112-byte entries; ≈ 114 700 with fully
/// allocated 1 024-slot chunks).
const THINNED_TABLE_CEILING: usize = 1_172;

#[test]
fn a_thinned_out_table_costs_what_its_survivors_store() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view_all("U").unwrap();
    let oids = populate_university(&mut tse, v1, CHURNED).unwrap();
    let doomed: Vec<_> =
        oids.iter().enumerate().filter(|(i, _)| i % KEEP_ONE_IN != 0).map(|(_, o)| *o).collect();
    let db = tse.db();
    tse_algebra::delete(db, &doomed).unwrap();
    db.gc(db.store().clock().gc_watermark());
    let survivors = db.object_count();
    assert_eq!(survivors, CHURNED.div_ceil(KEEP_ONE_IN));
    let per_survivor = db.resident_bytes().object_table / survivors;
    println!(
        "    object table: {per_survivor:>5} B/survivor, one kept in {KEEP_ONE_IN} \
         (ceiling {THINNED_TABLE_CEILING})"
    );
    assert!(
        per_survivor <= THINNED_TABLE_CEILING,
        "the thinned-out table holds {per_survivor} B per survivor > {THINNED_TABLE_CEILING}"
    );
}
