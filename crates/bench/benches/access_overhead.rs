//! Access overhead after schema evolution: reading *old* objects through the
//! *new* schema version.
//!
//! TSE resolves through the view's (primed) classes; CLOSQL runs conversion
//! functions per access; Encore runs exception handlers; Rose auto-resolves;
//! Orion reads its frozen copies. The paper argues CLOSQL's per-access
//! "computation time for conversion might be a significant overhead".
//!
//! The criterion driver reports no figure back, so each mechanism is also
//! timed here (median of [`SAMPLES`] passes over the same objects) and the
//! medians land in `BENCH_access_overhead.json` — the row EXPERIMENTS.md
//! quotes (*Cross-version access overhead*).

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};

use tse_baselines::{Closql, Encore, EvolvingSystem, Orion, Rose, TseAdapter};
use tse_object_model::Value;
use tse_telemetry::JsonValue;

const OBJECTS: usize = 200;
/// Timed passes per mechanism behind each median.
const SAMPLES: usize = 31;

fn prime<S: EvolvingSystem>(sys: &mut S) -> (usize, Vec<usize>) {
    let v1 = sys.current_version();
    let mut objs = Vec::with_capacity(OBJECTS);
    for i in 0..OBJECTS {
        objs.push(sys.create_object(v1, &[("name", Value::Str(format!("o{i}")))]).unwrap());
    }
    let v2 = sys.add_attribute("extra", Value::Int(7)).unwrap();
    (v2, objs)
}

fn read_all<S: EvolvingSystem>(sys: &S, v: usize, objs: &[usize]) -> i64 {
    let mut acc = 0;
    for o in objs {
        if let Ok(Value::Int(i)) = sys.read(v, *o, "extra") {
            acc += i;
        }
        if let Ok(Value::Str(s)) = sys.read(v, *o, "name") {
            acc += s.len() as i64;
        }
    }
    acc
}

/// Prime one mechanism, run it through the criterion driver, and return its
/// artifact row: the median pass over the [`OBJECTS`] old objects.
fn measure<S: EvolvingSystem>(group: &mut BenchmarkGroup<'_>, name: &str, mut sys: S) -> JsonValue {
    let (v, objs) = prime(&mut sys);
    group.bench_function(name, |b| b.iter(|| read_all(&sys, v, &objs)));
    let mut ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(read_all(&sys, v, &objs));
            start.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let median = ns[SAMPLES / 2];
    println!(
        "bench access_overhead/old_objects_via_new_version/{name:<28} {:>12.2?}/pass  (median of {SAMPLES})",
        Duration::from_nanos(median)
    );
    JsonValue::obj(vec![
        ("mechanism", name.into()),
        ("median_ns", median.into()),
        ("samples", (SAMPLES as u64).into()),
    ])
}

fn bench_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_overhead/old_objects_via_new_version");
    let rows = vec![
        measure(&mut group, "tse_view_resolution", TseAdapter::new()),
        measure(&mut group, "closql_conversion_fns", Closql::new()),
        measure(&mut group, "encore_exception_handlers", Encore::new()),
        measure(&mut group, "rose_auto_resolution", Rose::new()),
        measure(&mut group, "orion_frozen_copies", Orion::new()),
    ];
    group.finish();

    let json = JsonValue::obj(vec![
        ("bench", "access_overhead".into()),
        ("objects", (OBJECTS as u64).into()),
        ("reads_per_pass", (2 * OBJECTS as u64).into()),
        ("old_objects_via_new_version", JsonValue::Arr(rows)),
    ]);
    let path = tse_bench::write_bench_json("access_overhead", &json)
        .expect("write BENCH_access_overhead.json");
    println!("cross-version access medians written to {path}");
}

criterion_group!(benches, bench_access);
criterion_main!(benches);
