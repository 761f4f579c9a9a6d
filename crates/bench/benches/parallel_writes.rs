//! Multi-threaded writer throughput on the striped data plane: the
//! measurement behind the sharded write path.
//!
//! The paper's object-slicing model clusters each class's slices in its own
//! segment (§5, Table 1); the store maps segments onto lock stripes, so
//! `create`/`set` batches on *different* classes should scale with writer
//! count instead of serializing through one exclusive lock. Two
//! configurations run the same per-thread workload (alternating `create`
//! and `set` through a [`WriteSession`]):
//!
//! * **disjoint** — N writer threads, each owning its own class (its own
//!   segment → its own stripe), for N in {1, 2, 4}. The headline figure is
//!   `scaling_4_over_1`: 4-thread throughput over 1-thread throughput.
//! * **contended** — 4 writer threads all hammering ONE class, so every
//!   record operation fights for the same stripe. This is the control: it
//!   shows the stripes (not some accident) are what the disjoint case is
//!   exploiting, and it exercises the `stripe.conflicts` /
//!   `lock.stripe_wait_ns` contended path.
//!
//! What a logged write costs and how group commit batches are the repo
//! benchmark's (`core.durable_over_unlogged`, `storage.wal_group_size_mean`);
//! pinned readers beside writer churn are
//! `tests/concurrency.rs::pinned_readers_keep_their_snapshot_under_churn_and_an_evolve`.
//!
//! Emits `BENCH_parallel_writes.json` at the workspace root. The JSON
//! records `cpu_cores`: on a single-core host every configuration
//! timeslices onto the same CPU and the scaling figure is meaningless —
//! CI's 1.5× gate applies it only on multi-core runners. `--quick` runs a
//! reduced scale.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use tse_bench::write_bench_json;
use tse_core::{SharedSystem, TseSystem, WriteSession};
use tse_object_model::{PropertyDef, Value, ValueType};
use tse_telemetry::JsonValue;
use tse_view::ViewId;

/// Disjoint writer classes (each gets its own store segment).
const CLASSES: usize = 4;

struct Config {
    /// Mutations per writer thread per run.
    ops_per_thread: usize,
    /// Trials per configuration; best throughput wins (noise floor).
    trials: usize,
}

fn shard_name(i: usize) -> String {
    format!("Shard{i}")
}

/// A fresh system with `CLASSES` unrelated base classes in one view, each
/// class's segment pre-materialized (first slice creation assigns it) so
/// the measured window contains only steady-state record traffic.
fn build() -> (SharedSystem, ViewId) {
    let mut sys = TseSystem::new();
    for c in 0..CLASSES {
        sys.define_base_class(
            &shard_name(c),
            &[],
            vec![PropertyDef::stored("payload", ValueType::Int, Value::Int(0))],
        )
        .unwrap();
    }
    let shared = SharedSystem::from_system(sys);
    let names: Vec<String> = (0..CLASSES).map(shard_name).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let view = shared.create_view("SHARDS", &name_refs).unwrap();
    let writer = shared.writer();
    for c in 0..CLASSES {
        writer.create(view, &shard_name(c), &[("payload", Value::Int(-1))]).unwrap();
    }
    (shared, view)
}

/// One writer thread's measured loop: alternate `create` (grows the
/// segment) and `set` (rewrites the newest record), all against one class.
fn writer_loop(writer: &WriteSession, view: ViewId, class: &str, ops: usize) {
    let mut last = None;
    for i in 0..ops {
        match last {
            Some(oid) if i % 2 == 1 => writer
                .set(view, oid, class, &[("payload", Value::Int(-(i as i64)))])
                .unwrap(),
            _ => {
                last = Some(
                    writer.create(view, class, &[("payload", Value::Int(i as i64))]).unwrap(),
                );
            }
        }
    }
}

/// Run `threads` writers and return (total ops, wall-clock ns). `class_of`
/// picks each thread's target class. The clock starts when the barrier
/// releases all writers and stops when the scope joins them.
fn timed_run(
    shared: &SharedSystem,
    view: ViewId,
    threads: usize,
    ops_per_thread: usize,
    class_of: impl Fn(usize) -> usize + Copy,
) -> (usize, u64) {
    let start = Arc::new(Barrier::new(threads + 1));
    let begun_cell = Arc::new(Mutex::new(None::<Instant>));
    std::thread::scope(|scope| {
        // Clock starts *before* the release barrier: once every writer is
        // parked at `start`, the barrier opens ~immediately after this
        // timestamp. (Stamping after `start.wait()` undercounts badly on a
        // single-core host, where the writers can run to completion before
        // the main thread is rescheduled.)
        for t in 0..threads {
            let writer = shared.writer();
            let start = Arc::clone(&start);
            let class = shard_name(class_of(t));
            scope.spawn(move || {
                start.wait();
                writer_loop(&writer, view, &class, ops_per_thread);
            });
        }
        *begun_cell.lock().unwrap() = Some(Instant::now());
        start.wait();
    });
    let begun = begun_cell.lock().unwrap().take().unwrap();
    let elapsed = begun.elapsed().as_nanos() as u64;
    (threads * ops_per_thread, elapsed)
}

fn throughput(ops: usize, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        0.0
    } else {
        ops as f64 / (elapsed_ns as f64 / 1e9)
    }
}

/// Best-of-trials run on a fresh system per trial (so segment sizes are
/// comparable across thread counts).
fn best_of(
    cfg: &Config,
    threads: usize,
    class_of: impl Fn(usize) -> usize + Copy,
) -> (f64, u64, usize) {
    let mut best = (0.0f64, u64::MAX, 0usize);
    for _ in 0..cfg.trials {
        let (shared, view) = build();
        let (ops, elapsed) = timed_run(&shared, view, threads, cfg.ops_per_thread, class_of);
        let tput = throughput(ops, elapsed);
        if tput > best.0 {
            best = (tput, elapsed, ops);
        }
    }
    best
}

fn run_json(tput: f64, elapsed_ns: u64, ops: usize, threads: usize) -> JsonValue {
    JsonValue::obj(vec![
        ("threads", threads.into()),
        ("ops", ops.into()),
        ("elapsed_ns", elapsed_ns.into()),
        ("ops_per_sec", tput.into()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Config { ops_per_thread: 400, trials: 2 }
    } else {
        Config { ops_per_thread: 2000, trials: 3 }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Disjoint segments: thread t owns class t.
    let mut disjoint = Vec::new();
    let mut by_threads: Vec<(usize, f64)> = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let (tput, elapsed, ops) = best_of(&cfg, threads, |t| t % CLASSES);
        println!("disjoint {threads} writer(s): {tput:.0} ops/s ({ops} ops)");
        by_threads.push((threads, tput));
        disjoint.push(run_json(tput, elapsed, ops, threads));
    }
    let one = by_threads.iter().find(|(t, _)| *t == 1).map(|(_, f)| *f).unwrap_or(0.0);
    let four = by_threads.iter().find(|(t, _)| *t == 4).map(|(_, f)| *f).unwrap_or(0.0);
    let scaling = if one > 0.0 { four / one } else { 0.0 };
    println!("scaling 4/1 = {scaling:.2}x on {cores} core(s)");

    // Contended control: all four writers on one class/segment/stripe.
    let (c_tput, c_elapsed, c_ops) = best_of(&cfg, 4, |_| 0);
    println!("contended 4 writers on one segment: {c_tput:.0} ops/s");

    // Stripe telemetry evidence, from a dedicated run kept alive for
    // inspection: the contended path populates `stripe.conflicts` when
    // try-lock fails and times the blocking acquisitions into
    // `lock.stripe_wait_ns`. (An evolve's fork copies nothing and takes
    // no stripe, so contention is the only source of stripe waits.)
    let (shared, view) = build();
    let _ = timed_run(&shared, view, 4, cfg.ops_per_thread.min(800), |_| 0);
    shared.evolve_cmd("SHARDS", "add_attribute extra: int to Shard0").unwrap();
    let snap = shared.telemetry().snapshot();
    let conflicts = snap.counter("stripe.conflicts");
    let wait = snap.histograms.get("lock.stripe_wait_ns");
    let evidence = JsonValue::obj(vec![
        ("stripe_conflicts", conflicts.into()),
        ("stripe_wait_present", wait.is_some().into()),
        ("stripe_wait_count", wait.map(|h| h.count).unwrap_or(0).into()),
        ("stripe_wait_max_ns", wait.map(|h| h.max).unwrap_or(0).into()),
        ("write_stripes", shared.store_stripes().into()),
    ]);

    let json = JsonValue::obj(vec![
        ("bench", "parallel_writes".into()),
        ("quick", quick.into()),
        ("cpu_cores", cores.into()),
        ("ops_per_thread", cfg.ops_per_thread.into()),
        ("disjoint", JsonValue::Arr(disjoint)),
        ("scaling_4_over_1", scaling.into()),
        ("contended_4_threads", run_json(c_tput, c_elapsed, c_ops, 4)),
        ("stripe_evidence", evidence),
    ]);
    let path = write_bench_json("parallel_writes", &json).expect("write BENCH_parallel_writes.json");
    println!("wrote {path}");
}
