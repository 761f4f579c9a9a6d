//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **Duplicate folding** — re-issued identical schema changes fold onto the
//!   classes created the first time; without that, every user's change would
//!   grow the global schema. Measured as schema growth + evolve latency for
//!   repeated identical vs repeated distinct changes.
//! * **Buffer pool size** — the locality argument of Table 1 depends on a
//!   buffer; sweep the pool size and record scan cost. A page touch must
//!   cost the same however large the pool is: the medians of a hot read loop
//!   on a full pool of 8, 256 and 4 096 pages land in `BENCH_ablation.json`.
//! * **Select pass** — a select reads its extent in one pass, so a member
//!   costs it less than a get of that member does: the per-member medians
//!   of a 64-member select pass and of 64 gets on a full pool land in
//!   `BENCH_ablation.json`, and beside them the per-call median of a
//!   repeated identical select, which the extent cache serves.
//! * **Saturation prover** — the cost of one more schema change as the
//!   number of virtual classes earlier changes left behind grows (the prover
//!   is extended per class, not rebuilt; the change should cost what it
//!   touches). The per-preload medians land in `BENCH_ablation.json`.
//! * **Op record** — a data-plane op's metrics land in a shard owned by the
//!   recording thread, so a second thread recording on the same domain
//!   costs the first nothing: the ns per recorded op from 1 and from 2
//!   threads land in `BENCH_ablation.json`.
//! * **Op scaffold** — where a warm `ReadSession::get` goes besides its
//!   read: the ns per op of the clock pair, the trace scope with
//!   `finish_op`, the view-name resolve, the epoch guard,
//!   `Database::read_attr` and the whole get land in
//!   `BENCH_ablation.json`. Ungated.
//! * **Read scaling** — what a second reader costs the first: the ns per
//!   warm `ReadSession::get` from 1 thread, from 2 threads on one
//!   `SharedSystem` and from 2 threads on two systems land in
//!   `BENCH_ablation.json`, stamped with `cpu_cores`. Ungated.
//! * **Op write** — a write costs what its object touches, not what the
//!   schema holds: the ns per op of a create, of a first write of an
//!   attribute an evolution added (through view version 17) and of a
//!   steady set, on the 104-class schema of the repo benchmark's
//!   `local_read` and on the same family evolved to ≈ 500 classes, land in
//!   `BENCH_ablation.json`.
//! * **Evolve flush** — what durability adds to a schema change: the p50 ns
//!   of an `add_attribute` evolve on an in-memory system and on a durable
//!   one with the same schema (whose frame is fsynced while its fork
//!   evolves), beside a bare `fdatasync` p50 in the same directory, land in
//!   `BENCH_ablation.json`. Ungated: the disk varies.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use tse_core::{SharedSystem, TseSystem};
use tse_object_model::{BinOp, MethodBody, Predicate, PropertyDef, Value, ValueType};
use tse_storage::{SliceStore, StoreConfig};
use tse_telemetry::{op_name, JsonValue, Telemetry};
use tse_workload::university::{build_university, populate_university};

fn families(n: usize) -> TseSystem {
    let mut tse = TseSystem::new();
    let mut props = vec![PropertyDef::stored("name", ValueType::Str, Value::Null)];
    for i in 0..32 {
        props.push(PropertyDef::stored(&format!("d{i}"), ValueType::Int, Value::Int(0)));
    }
    tse.define_base_class("Item", &[], props).unwrap();
    for i in 0..n {
        tse.create_view(&format!("F{i}"), &["Item"]).unwrap();
    }
    tse
}

/// N families issuing the *same* change: all but the first fold onto
/// duplicates, so schema growth is O(1) in N — vs distinct changes at O(N).
/// (Deletions are used because hide classes carry no fresh definitions;
/// capacity-augmenting additions are *deliberately* never folded — two users
/// adding a same-named attribute get distinct stored attributes, Fig. 16.)
fn bench_duplicate_folding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/duplicate_folding");
    group.sample_size(10);
    for n in [4usize, 16] {
        group.bench_function(BenchmarkId::new("identical_changes", n), |b| {
            b.iter_batched(
                || families(n),
                |mut tse| {
                    let before = tse.db().schema().live_class_count();
                    for i in 0..n {
                        tse.evolve_cmd(&format!("F{i}"), "delete_attribute d0 from Item")
                            .unwrap();
                    }
                    let grown = tse.db().schema().live_class_count() - before;
                    assert_eq!(grown, 1, "identical changes share one derived class");
                    tse
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("distinct_changes", n), |b| {
            b.iter_batched(
                || families(n),
                |mut tse| {
                    let before = tse.db().schema().live_class_count();
                    for i in 0..n {
                        tse.evolve_cmd(&format!("F{i}"), &format!("delete_attribute d{i} from Item"))
                            .unwrap();
                    }
                    let grown = tse.db().schema().live_class_count() - before;
                    assert_eq!(grown, n, "distinct changes each derive a class");
                    tse
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Cold-scan cost as the buffer pool shrinks: below the working set the scan
/// faults every revisit; at or above it, the second pass is free.
fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/buffer_pool_scan");
    for pool in [2usize, 8, 64] {
        group.bench_function(BenchmarkId::new("double_scan", pool), |b| {
            let store: SliceStore<tse_object_model::Value> =
                SliceStore::new(StoreConfig { page_size: 1024, buffer_pages: pool, ..StoreConfig::default() });
            let seg = store.create_segment("items");
            for i in 0..2_000 {
                store.insert(seg, vec![Value::Int(i)]).unwrap();
            }
            b.iter(|| {
                store.clear_buffer();
                store.reset_stats();
                store.scan(seg, |_, _| {}).unwrap();
                store.scan(seg, |_, _| {}).unwrap();
                store.stats().page_misses
            })
        });
    }
    group.finish();
}

/// Reads of a hot set of records on a full pool, timed per pool size: every
/// read touches its page, so the per-read median follows the cost of one
/// touch. The hot records sit on distinct pages at the MRU end — the far end
/// of a scan from the LRU side. Timed here rather than through the criterion
/// driver, like the prover rows below.
fn buffer_pool_touch_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 15;
    const READS: usize = 20_000;
    const HOT: usize = 8;
    let mut rows = Vec::new();
    for pool in [8usize, 256, 4_096] {
        // 64-byte pages hold two one-`Int` records each.
        let config =
            StoreConfig { page_size: 64, buffer_pages: pool, write_stripes: 1, ..StoreConfig::default() };
        let store: SliceStore<Value> = SliceStore::new(config);
        let seg = store.create_segment("items");
        let records: Vec<_> =
            (0..4 * pool as i64).map(|i| store.insert(seg, vec![Value::Int(i)]).unwrap()).collect();
        let hot: Vec<_> = records.iter().rev().step_by(2).take(HOT).copied().collect();
        store.scan(seg, |_, _| {}).unwrap();
        for rec in &hot {
            store.read_field(*rec, 0).unwrap();
        }
        let before = store.stats();
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for i in 0..READS {
                    black_box(store.read_field(hot[i % HOT], 0).unwrap());
                }
                start.elapsed().as_nanos() as u64 / READS as u64
            })
            .collect();
        let window = store.stats().delta_since(&before);
        assert_eq!(window.page_misses, 0, "the hot set stays resident in a pool of {pool}");
        ns.sort_unstable();
        let median = ns[SAMPLES / 2];
        println!(
            "bench ablation/buffer_pool_touch/hot_read_full_pool/{pool:<5} {median:>6} ns/read  (median of {SAMPLES})"
        );
        rows.push(JsonValue::obj(vec![
            ("pool_pages", (pool as u64).into()),
            ("median_ns", median.into()),
            ("samples", (SAMPLES as u64).into()),
        ]));
    }
    rows
}

/// The per-member cost of a 64-member select pass against the cost of a get
/// of the same members on a full pool: a pass reads its extent once (one
/// object-table guard, one stripe guard at a time, page touches flushed
/// once, the comparison made in place), so a member costs it less than a
/// get does. The pass is timed directly — bind the names, evaluate the
/// predicate over the extent — since a repeated `select_objects` is served
/// from the extent cache; that hit is the `select_hit` row, per call.
/// Timed here rather than through the criterion driver.
fn select_pass_rows() -> (Vec<JsonValue>, Vec<JsonValue>) {
    const SAMPLES: usize = 15;
    const REPS: usize = 400;
    const MEMBERS: usize = 64;
    // 512-byte pages hold a dozen slices: 4 000 people fill far more than
    // the pool's 64 pages, so the pool is full and every read's page is
    // found resident at the MRU end.
    let config = StoreConfig { page_size: 512, buffer_pages: 64, ..StoreConfig::default() };
    let mut db = tse_object_model::Database::new(config);
    let schema = db.schema_mut();
    let person = schema.create_base_class("Person", &[]).unwrap();
    let seminar = schema.create_base_class("Seminar", &[person]).unwrap();
    let age = PropertyDef::stored("age", ValueType::Int, Value::Int(0));
    schema.add_local_prop(person, age, None).unwrap();
    for i in 0..4_000 {
        db.create_object(person, &[("age", Value::Int(i % 70))]).unwrap();
    }
    let members: Vec<_> = (0..MEMBERS as i64)
        .map(|i| db.create_object(seminar, &[("age", Value::Int(18 + i))]).unwrap())
        .collect();
    let pred = Predicate::Expr(MethodBody::bin(
        BinOp::Ge,
        MethodBody::Attr("age".into()),
        MethodBody::Const(Value::Int(30)),
    ));
    let extent = db.extent(seminar).unwrap();
    let pass = || {
        let bound = db.bind_attrs(seminar);
        extent.iter().filter(|oid| pred.eval(&bound.source(**oid)).unwrap()).count()
    };
    assert_eq!(pass(), MEMBERS - 12);
    assert_eq!(tse_algebra::select_objects(&db, seminar, pred.clone()).unwrap().len(), MEMBERS - 12);
    let before = db.store_stats();
    let median_ns = |per_rep: usize, f: &dyn Fn()| {
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..REPS {
                    f();
                }
                start.elapsed().as_nanos() as u64 / (REPS * per_rep) as u64
            })
            .collect();
        ns.sort_unstable();
        ns[SAMPLES / 2]
    };
    let select = median_ns(MEMBERS, &|| {
        black_box(pass());
    });
    let get = median_ns(MEMBERS, &|| {
        for oid in &members {
            black_box(db.read_attr(*oid, seminar, "age").unwrap());
        }
    });
    let hit = median_ns(1, &|| {
        black_box(tse_algebra::select_objects(&db, seminar, pred.clone()).unwrap());
    });
    let window = db.store_stats().delta_since(&before);
    assert_eq!(window.page_misses, 0, "the members' pages stay resident");
    let ratio = select as f64 / get.max(1) as f64;
    let pass_per_call = select * MEMBERS as u64;
    let hit_ratio = hit as f64 / pass_per_call.max(1) as f64;
    println!(
        "bench ablation/select_pass/{MEMBERS}_members  select {select:>4} ns/member, get {get:>4} ns/member, x{ratio:.2}"
    );
    println!(
        "bench ablation/select_hit/{MEMBERS}_members  hit {hit:>5} ns/call, pass {pass_per_call:>5} ns/call, x{hit_ratio:.2}"
    );
    let pass_row = JsonValue::obj(vec![
        ("members", (MEMBERS as u64).into()),
        ("select_ns_per_member", select.into()),
        ("get_ns_per_member", get.into()),
        ("samples", (SAMPLES as u64).into()),
    ]);
    let hit_row = JsonValue::obj(vec![
        ("members", (MEMBERS as u64).into()),
        ("hit_ns_per_call", hit.into()),
        ("pass_ns_per_call", pass_per_call.into()),
        ("samples", (SAMPLES as u64).into()),
    ]);
    (vec![pass_row], vec![hit_row])
}

/// Classification overhead vs accumulated schema size: evolve repeatedly in
/// one family and measure the next change. Timed here rather than through
/// the criterion driver, which reports no per-benchmark figure back: the
/// per-preload medians are the paper-facing number (EXPERIMENTS.md,
/// *Classification vs schema size*).
fn prover_growth_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 15;
    let mut rows = Vec::new();
    for preload in [0usize, 40, 160] {
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let mut tse = families(1);
                for i in 0..preload {
                    tse.evolve_cmd("F0", &format!("add_attribute p{i}: int to Item")).unwrap();
                }
                let start = Instant::now();
                black_box(tse.evolve_cmd("F0", "add_attribute probe: int to Item").unwrap());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        ns.sort_unstable();
        let median = ns[SAMPLES / 2];
        println!(
            "bench ablation/classification_vs_schema_size/evolve_after_n_changes/{preload:<4} {:>12.2?}/iter  (median of {SAMPLES})",
            Duration::from_nanos(median)
        );
        rows.push(JsonValue::obj(vec![
            ("preload_changes", (preload as u64).into()),
            ("median_ns", median.into()),
            ("samples", (SAMPLES as u64).into()),
        ]));
    }
    rows
}

/// What a data-plane op's bookkeeping costs besides its clocks and its
/// read: enter the session's trace, then count the op, record its latency
/// and a tracked wait, and leave the trace — from 1 and from
/// 2 threads recording on one domain at once. Each thread records into its
/// own metric shard; while every op took the registry mutex, 2 threads
/// cost up to 4.6× what 1 did. Per sample, the slower thread's ns per op.
fn op_record_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 15;
    const OPS: u64 = 20_000;
    let t = Telemetry::new();
    let get = t.op(&op_name!("get"));
    let trace = t.mint_trace("read_session");
    let ns_per_op = |threads: usize| {
        let barrier = Barrier::new(threads);
        let record = || {
            barrier.wait();
            let start = Instant::now();
            for _ in 0..OPS {
                let scope = t.enter_trace(trace);
                t.finish_op(scope, &get, black_box(500), Some(("lock.write_wait_ns", 1)));
            }
            start.elapsed().as_nanos() as u64 / OPS
        };
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..threads).map(|_| s.spawn(record)).collect();
            runs.into_iter().map(|run| run.join().unwrap()).max().unwrap()
        })
    };
    let rows: Vec<(usize, u64)> = [1, 2]
        .into_iter()
        .map(|threads| {
            let mut ns: Vec<u64> = (0..SAMPLES).map(|_| ns_per_op(threads)).collect();
            ns.sort_unstable();
            (threads, ns[SAMPLES / 2])
        })
        .collect();
    let ratio = rows[1].1 as f64 / rows[0].1.max(1) as f64;
    println!(
        "bench ablation/op_record  1 thread {} ns/op, 2 threads {} ns/op, x{ratio:.2}",
        rows[0].1, rows[1].1
    );
    rows.into_iter()
        .map(|(threads, ns)| {
            JsonValue::obj(vec![
                ("threads", (threads as u64).into()),
                ("ns_per_op", ns.into()),
                ("samples", (SAMPLES as u64).into()),
            ])
        })
        .collect()
}

/// Where a warm `ReadSession::get` of an `Int` goes, in ns per op on one
/// populated `SharedSystem`: the op's clock pair, its trace scope with
/// `finish_op`, the view-name resolve, `Database::read_attr` and the whole
/// get, each timed alone over the same objects. The epoch guard is
/// private to the session, so its row is the get minus the other parts
/// (floored at 0).
fn op_scaffold_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 15;
    const OPS: usize = 20_000;
    const OBJECTS: usize = 2_000;
    let (mut tse, university) = build_university().unwrap();
    let v1 = tse.create_view_all("U").unwrap();
    let oids = populate_university(&mut tse, v1, OBJECTS).unwrap();
    // Each part runs one untimed round first: the first round after the
    // population read ≈ 3× slower than the rest.
    let median = |op: &mut dyn FnMut(usize)| {
        (0..OPS).for_each(|i| op(i % OBJECTS));
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for i in 0..OPS {
                    op(i % OBJECTS);
                }
                start.elapsed().as_nanos() as u64 / OPS as u64
            })
            .collect();
        ns.sort_unstable();
        ns[SAMPLES / 2]
    };
    let read_attr = median(&mut |i| {
        black_box(tse.db().read_attr(oids[i], university.person, "age").unwrap());
    });
    let shared = SharedSystem::from_system(tse);
    let session = shared.session();
    let t = shared.telemetry();
    let get_op = t.op(&op_name!("get"));
    let trace = t.mint_trace("read_session");
    let clock_pair = median(&mut |_| {
        let started = Instant::now();
        black_box(started.elapsed().as_nanos());
    });
    let trace_finish = median(&mut |_| {
        let scope = t.enter_trace(trace);
        t.finish_op(scope, &get_op, black_box(500), Some(("lock.write_wait_ns", 1)));
    });
    let resolve = median(&mut |_| {
        black_box(session.meta().resolve(v1, "Person").unwrap());
    });
    let get = median(&mut |i| {
        black_box(session.get(v1, oids[i], "Person", "age").unwrap());
    });
    let epoch_guard = get.saturating_sub(clock_pair + trace_finish + resolve + read_attr);
    let parts = [
        ("clock_pair", clock_pair),
        ("trace_finish_op", trace_finish),
        ("resolve", resolve),
        ("epoch_guard", epoch_guard),
        ("read_attr", read_attr),
        ("session_get", get),
    ];
    println!(
        "bench ablation/op_scaffold  {}",
        parts.map(|(part, ns)| format!("{part} {ns} ns")).join(", ")
    );
    parts
        .into_iter()
        .map(|(part, ns)| {
            JsonValue::obj(vec![
                ("part", part.into()),
                ("ns_per_op", ns.into()),
                ("by_difference", (part == "epoch_guard").into()),
                ("samples", (SAMPLES as u64).into()),
            ])
        })
        .collect()
}

/// A populated university behind one `SharedSystem`: its whole-schema
/// view and its objects.
type Populated = (SharedSystem, tse_view::ViewId, Vec<tse_object_model::Oid>);

/// ns per warm `ReadSession::get` of an `Int`, per thread: from 1 thread,
/// from 2 threads each with its own session on one `SharedSystem`, and from
/// 2 threads on two systems built alike. Per sample, the slower thread's ns
/// per get. Where one system's two readers cost more than two systems' do,
/// the difference is cache lines the readers share, not work.
fn read_scaling_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 15;
    const OPS: usize = 20_000;
    const OBJECTS: usize = 2_000;
    let populated = || -> Populated {
        let (mut tse, _) = build_university().unwrap();
        let v1 = tse.create_view_all("U").unwrap();
        let oids = populate_university(&mut tse, v1, OBJECTS).unwrap();
        (SharedSystem::from_system(tse), v1, oids)
    };
    let (first, second) = (populated(), populated());
    let ns_per_get = |systems: &[&Populated]| {
        let barrier = Barrier::new(systems.len());
        let read = |(shared, view, oids): &Populated| {
            let session = shared.session();
            let get = |i: usize| {
                black_box(session.get(*view, oids[i % OBJECTS], "Person", "age").unwrap());
            };
            (0..OPS).for_each(get);
            barrier.wait();
            let start = Instant::now();
            (0..OPS).for_each(get);
            start.elapsed().as_nanos() as u64 / OPS as u64
        };
        std::thread::scope(|s| {
            let runs: Vec<_> = systems.iter().map(|sys| s.spawn(move || read(sys))).collect();
            runs.into_iter().map(|run| run.join().unwrap()).max().unwrap()
        })
    };
    let arms = [
        ("one_thread", vec![&first]),
        ("two_threads_one_system", vec![&first, &first]),
        ("two_threads_two_systems", vec![&first, &second]),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let rows: Vec<(&str, usize, u64)> = arms
        .iter()
        .map(|(arm, systems)| {
            let mut ns: Vec<u64> = (0..SAMPLES).map(|_| ns_per_get(systems)).collect();
            ns.sort_unstable();
            (*arm, systems.len(), ns[SAMPLES / 2])
        })
        .collect();
    let parts: Vec<String> = rows.iter().map(|(arm, _, ns)| format!("{arm} {ns} ns/get")).collect();
    println!("bench ablation/read_scaling  {} ({cores} cores)", parts.join(", "));
    rows.into_iter()
        .map(|(arm, threads, ns)| {
            JsonValue::obj(vec![
                ("arm", arm.into()),
                ("threads", (threads as u64).into()),
                ("ns_per_get", ns.into()),
                ("samples", (SAMPLES as u64).into()),
                ("cpu_cores", cores.into()),
            ])
        })
        .collect()
}

/// ns per op of a create, a first write of `h0` through view version 17
/// and a steady set, all through one `WriteSession`, on the university with
/// 8 seminars evolved by the repo benchmark's history (`add_attribute
/// h<k>` cycling over 8 classes): 16 changes (104 classes, `local_read`'s
/// schema), then on until the schema holds ≈ 500. Version 17 is the same
/// view at both sizes, so only the schema around it grows. While a write
/// scanned every class for its homes, a create at 500 classes cost 3.1×
/// one at 104 and a first write 1.3×.
fn op_write_rows() -> Vec<JsonValue> {
    const SAMPLES: usize = 9;
    const OPS: usize = 1_000;
    const TARGETS: [&str; 8] =
        ["Person", "Student", "Staff", "TeachingStaff", "TA", "Grad", "Undergrad", "SupportStaff"];
    let (mut tse, _) = build_university().unwrap();
    for k in 0..8 {
        tse.define_base_class(&format!("Seminar{k}"), &["Student"], vec![]).unwrap();
    }
    let v1 = tse.create_view_all("uni").unwrap();
    let shared = SharedSystem::from_system(tse);
    let mut steps = 0;
    let mut evolve_to = |classes: usize| {
        while steps < 16 || shared.session().meta().schema().class_count() < classes {
            let target = TARGETS[steps % TARGETS.len()];
            let command = format!("add_attribute h{steps}: int = {steps} to {target}");
            shared.evolve_cmd("uni", &command).unwrap();
            steps += 1;
        }
    };
    let median_ns = |f: &mut dyn FnMut(usize)| {
        let mut ns: Vec<u64> = (0..SAMPLES)
            .map(|sample| {
                let start = Instant::now();
                for i in 0..OPS {
                    f(sample * OPS + i);
                }
                start.elapsed().as_nanos() as u64 / OPS as u64
            })
            .collect();
        ns.sort_unstable();
        ns[SAMPLES / 2]
    };
    let mut rows = Vec::new();
    for target in [104, 500] {
        evolve_to(target);
        let writer = shared.writer();
        let classes = writer.meta().schema().class_count();
        let v17 = writer.meta().views().versions("uni").unwrap()[16];
        let named: Vec<_> = (0..SAMPLES * OPS)
            .map(|i| [("name", Value::Str(format!("w{i}"))), ("age", Value::Int(i as i64))])
            .collect();
        let mut oids = Vec::with_capacity(named.len());
        let create = median_ns(&mut |i| {
            oids.push(writer.create(v1, "Person", &named[i]).unwrap());
        });
        let first_write = median_ns(&mut |i| {
            writer.set(v17, oids[i], "Person", &[("h0", Value::Int(i as i64))]).unwrap();
        });
        let steady_set = median_ns(&mut |i| {
            writer.set(v17, oids[i], "Person", &[("age", Value::Int(-(i as i64)))]).unwrap();
        });
        println!(
            "bench ablation/op_write/{classes}_classes  create {create} ns/op, first write {first_write} ns/op, steady set {steady_set} ns/op"
        );
        rows.push(JsonValue::obj(vec![
            ("classes", (classes as u64).into()),
            ("create_ns_per_op", create.into()),
            ("first_write_ns_per_op", first_write.into()),
            ("steady_set_ns_per_op", steady_set.into()),
            ("samples", (SAMPLES as u64).into()),
        ]));
    }
    rows
}

fn evolve_flush_rows() -> Vec<JsonValue> {
    const EVOLVES: usize = 41;
    let dir =
        std::env::temp_dir().join(format!("tse_ablation_evolve_flush_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // One schema for both: the university with a whole-schema view,
    // recovered by the durable system from a snapshot generation.
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all("uni").unwrap();
    let image = tse.encode();
    let fp = tse_storage::FailpointRegistry::new();
    tse_storage::durable::write_snapshot_file(&dir, 1, 0, &image, &fp).unwrap();
    tse_storage::durable::write_manifest(&dir, 1, &fp).unwrap();
    let memory =
        SharedSystem::from_system(TseSystem::decode(image, StoreConfig::default()).unwrap());
    let durable = SharedSystem::open(&dir).unwrap();
    let p50 = |mut ns: Vec<u64>| {
        ns.sort_unstable();
        ns[ns.len() / 2]
    };
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as u64
    };
    // Alternate the two systems, so both see the schema at each size.
    let (mut in_memory, mut on_disk) = (Vec::new(), Vec::new());
    for i in 0..EVOLVES {
        let command = format!("add_attribute f{i}: int = {i} to Student");
        in_memory.push(timed(&mut || drop(memory.evolve_cmd("uni", &command).unwrap())));
        on_disk.push(timed(&mut || drop(durable.evolve_cmd("uni", &command).unwrap())));
    }
    drop(durable);
    let file = std::fs::File::create(dir.join("fdatasync.probe")).unwrap();
    let fdatasync: Vec<u64> = (0..EVOLVES)
        .map(|_| {
            timed(&mut || {
                std::io::Write::write_all(&mut &file, &[0u8; 64]).unwrap();
                file.sync_data().unwrap();
            })
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let (in_memory, on_disk, fdatasync) = (p50(in_memory), p50(on_disk), p50(fdatasync));
    println!(
        "bench ablation/evolve_flush  in memory {in_memory} ns/evolve, durable {on_disk} ns/evolve, fdatasync p50 {fdatasync} ns"
    );
    vec![JsonValue::obj(vec![
        ("memory_ns_per_evolve", in_memory.into()),
        ("durable_ns_per_evolve", on_disk.into()),
        ("fdatasync_p50_ns", fdatasync.into()),
        ("evolves", (EVOLVES as u64).into()),
    ])]
}

/// The self-timed medians, as `BENCH_ablation.json`.
fn bench_timed_medians(_c: &mut Criterion) {
    let (select_pass, select_hit) = select_pass_rows();
    let json = JsonValue::obj(vec![
        ("bench", "ablation".into()),
        ("buffer_pool_touch", JsonValue::Arr(buffer_pool_touch_rows())),
        ("select_pass", JsonValue::Arr(select_pass)),
        ("select_hit", JsonValue::Arr(select_hit)),
        ("classification_vs_schema_size", JsonValue::Arr(prover_growth_rows())),
        ("op_record", JsonValue::Arr(op_record_rows())),
        ("op_scaffold", JsonValue::Arr(op_scaffold_rows())),
        ("read_scaling", JsonValue::Arr(read_scaling_rows())),
        ("op_write", JsonValue::Arr(op_write_rows())),
        ("evolve_flush", JsonValue::Arr(evolve_flush_rows())),
    ]);
    let path = tse_bench::write_bench_json("ablation", &json).expect("write BENCH_ablation.json");
    println!("buffer-pool-touch, select-pass, select-hit, classification-vs-schema-size, op-record, op-scaffold, read-scaling, op-write and evolve-flush medians written to {path}");
}

criterion_group!(benches, bench_duplicate_folding, bench_buffer_pool, bench_timed_medians);
criterion_main!(benches);
