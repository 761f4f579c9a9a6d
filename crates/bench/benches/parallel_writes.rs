//! Multi-threaded writer throughput on the striped data plane: the
//! measurement behind the sharded write path.
//!
//! The paper's object-slicing model clusters each class's slices in its own
//! segment (§5, Table 1); the store maps segments onto lock stripes, so
//! `create`/`set` batches on *different* classes should scale with writer
//! count instead of serializing through one exclusive lock. Three
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
//! * **serialized baseline** — 4 disjoint-class threads funneled through
//!   one external mutex, reproducing the pre-stripe `with_write` world
//!   where every data write held the system lock exclusively.
//!
//! One MVCC arm rides along: **versioned reads** (4 pinned sessions
//! sweeping a record set while 4 writers churn the same class — neither
//! side blocks the other).
//!
//! Emits `BENCH_parallel_writes.json` at the workspace root. The JSON
//! records `cpu_cores`: on a single-core host every configuration
//! timeslices onto the same CPU and the scaling figure is meaningless —
//! CI's 1.5× gate applies it only on multi-core runners. `--quick` runs a
//! reduced scale.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// picks each thread's target class; `gate` optionally serializes every
/// operation through one external mutex (the pre-stripe baseline). The
/// clock starts when the barrier releases all writers and stops when the
/// scope joins them.
fn timed_run(
    shared: &SharedSystem,
    view: ViewId,
    threads: usize,
    ops_per_thread: usize,
    class_of: impl Fn(usize) -> usize + Copy,
    gate: Option<Arc<Mutex<()>>>,
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
            let gate = gate.clone();
            scope.spawn(move || {
                start.wait();
                match &gate {
                    Some(m) => {
                        let mut last = None;
                        for i in 0..ops_per_thread {
                            let _g = m.lock().unwrap();
                            match last {
                                Some(oid) if i % 2 == 1 => writer
                                    .set(
                                        view,
                                        oid,
                                        &class,
                                        &[("payload", Value::Int(-(i as i64)))],
                                    )
                                    .unwrap(),
                                _ => {
                                    last = Some(
                                        writer
                                            .create(
                                                view,
                                                &class,
                                                &[("payload", Value::Int(i as i64))],
                                            )
                                            .unwrap(),
                                    );
                                }
                            }
                        }
                    }
                    None => writer_loop(&writer, view, &class, ops_per_thread),
                }
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
    gated: bool,
) -> (f64, u64, usize) {
    let mut best = (0.0f64, u64::MAX, 0usize);
    for _ in 0..cfg.trials {
        let (shared, view) = build();
        let gate = gated.then(|| Arc::new(Mutex::new(())));
        let (ops, elapsed) = timed_run(&shared, view, threads, cfg.ops_per_thread, class_of, gate);
        let tput = throughput(ops, elapsed);
        if tput > best.0 {
            best = (tput, elapsed, ops);
        }
    }
    best
}

/// The durable twin of [`build`]: same classes and pre-materialized
/// segments, but opened on disk so every mutation pays WAL append + group
/// fsync. Prefers tmpfs (`/dev/shm`) so the figure isolates the logging
/// protocol cost rather than rotational-disk latency.
fn build_durable(dir: &std::path::Path) -> (SharedSystem, ViewId) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let shared = SharedSystem::open(dir).unwrap();
    for c in 0..CLASSES {
        shared
            .define_base_class(
                &shard_name(c),
                &[],
                vec![PropertyDef::stored("payload", ValueType::Int, Value::Int(0))],
            )
            .unwrap();
    }
    let names: Vec<String> = (0..CLASSES).map(shard_name).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let view = shared.create_view("SHARDS", &name_refs).unwrap();
    let writer = shared.writer();
    for c in 0..CLASSES {
        writer.create(view, &shard_name(c), &[("payload", Value::Int(-1))]).unwrap();
    }
    shared.checkpoint().unwrap();
    (shared, view)
}

fn scratch_dir() -> std::path::PathBuf {
    let base = std::path::Path::new("/dev/shm");
    let base =
        if base.is_dir() { base.to_path_buf() } else { std::env::temp_dir() };
    base.join(format!("tse_bench_durable_{}", std::process::id()))
}

/// Versioned-read arm: 4 writers churn one contended class while 4
/// readers sweep a fixed record set, each sweep under a freshly pinned
/// `ReadSession`. MVCC readers resolve versions at their pinned epoch and
/// never block (or get blocked by) the writers, so both throughputs come
/// from the same wall-clock window.
fn versioned_read_arm(cfg: &Config) -> JsonValue {
    let (shared, view) = build();
    let writer = shared.writer();
    let mut oids = Vec::new();
    for i in 0..256 {
        oids.push(writer.create(view, &shard_name(0), &[("payload", Value::Int(i))]).unwrap());
    }
    drop(writer);

    let stop = Arc::new(AtomicBool::new(false));
    let read_ops = Arc::new(AtomicU64::new(0));
    let begun = Instant::now();
    let mut writer_ns = 0u64;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = shared.clone();
            let oids = oids.clone();
            let stop = Arc::clone(&stop);
            let read_ops = Arc::clone(&read_ops);
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let session = shared.session();
                    for oid in &oids {
                        session.get(view, *oid, "Shard0", "payload").unwrap();
                        n += 1;
                    }
                }
                read_ops.fetch_add(n, Ordering::AcqRel);
            });
        }
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let writer = shared.writer();
                let ops = cfg.ops_per_thread;
                scope.spawn(move || writer_loop(&writer, view, "Shard0", ops))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        writer_ns = begun.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Release);
    });
    let total_ns = begun.elapsed().as_nanos() as u64;
    let reads = read_ops.load(Ordering::Acquire);
    let write_ops = 4 * cfg.ops_per_thread;
    let write_tput = throughput(write_ops, writer_ns);
    let read_tput = throughput(reads as usize, total_ns);
    println!(
        "versioned reads: {read_tput:.0} pinned reads/s alongside {write_tput:.0} writes/s"
    );
    JsonValue::obj(vec![
        ("reader_threads", 4usize.into()),
        ("writer_threads", 4usize.into()),
        ("pinned_read_ops", reads.into()),
        ("pinned_reads_per_sec", read_tput.into()),
        ("concurrent_write_ops", write_ops.into()),
        ("concurrent_writes_per_sec", write_tput.into()),
    ])
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
        let (tput, elapsed, ops) = best_of(&cfg, threads, |t| t % CLASSES, false);
        println!("disjoint {threads} writer(s): {tput:.0} ops/s ({ops} ops)");
        by_threads.push((threads, tput));
        disjoint.push(run_json(tput, elapsed, ops, threads));
    }
    let one = by_threads.iter().find(|(t, _)| *t == 1).map(|(_, f)| *f).unwrap_or(0.0);
    let four = by_threads.iter().find(|(t, _)| *t == 4).map(|(_, f)| *f).unwrap_or(0.0);
    let scaling = if one > 0.0 { four / one } else { 0.0 };
    println!("scaling 4/1 = {scaling:.2}x on {cores} core(s)");

    // Contended control: all four writers on one class/segment/stripe.
    let (c_tput, c_elapsed, c_ops) = best_of(&cfg, 4, |_| 0, false);
    println!("contended 4 writers on one segment: {c_tput:.0} ops/s");

    // Serialized baseline: disjoint classes, one external mutex — the
    // pre-stripe write path (every mutation exclusive).
    let (s_tput, s_elapsed, s_ops) = best_of(&cfg, 4, |t| t % CLASSES, true);
    println!("serialized baseline 4 writers: {s_tput:.0} ops/s");

    // Durable arm: the same 4-writer contended workload (one class, one
    // stripe) with every mutation logged and group-committed. Contention is
    // deliberate — concurrent appends are what group commit batches, and
    // `wal.group_size` is the evidence. Ratio is against the *unlogged*
    // contended figure so it isolates the WAL protocol cost.
    let dir = scratch_dir();
    let mut d_best = (0.0f64, u64::MAX, 0usize);
    for _ in 0..cfg.trials {
        let (shared, view) = build_durable(&dir);
        let (ops, elapsed) = timed_run(&shared, view, 4, cfg.ops_per_thread, |_| 0, None);
        let tput = throughput(ops, elapsed);
        if tput > d_best.0 {
            d_best = (tput, elapsed, ops);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (d_tput, d_elapsed, d_ops) = d_best;
    let durable_over_unlogged = if c_tput > 0.0 { d_tput / c_tput } else { 0.0 };
    println!("durable 4 writers on one segment: {d_tput:.0} ops/s ({durable_over_unlogged:.2}x of unlogged)");

    // Group-commit evidence wants a *blocking* fsync: on tmpfs the leader
    // returns before any follower queues, so every batch is 1. Run a short
    // contended burst on the real filesystem, where the leader parks in the
    // syscall and followers pile onto the next batch.
    let disk_dir = std::env::temp_dir().join(format!("tse_bench_group_{}", std::process::id()));
    let mut group = (0u64, 0u64); // (batches, max batch size)
    {
        let (shared, view) = build_durable(&disk_dir);
        let _ = timed_run(&shared, view, 4, cfg.ops_per_thread.min(400), |_| 0, None);
        if let Some(h) = shared.telemetry().snapshot().histograms.get("wal.group_size") {
            group = (h.count, h.max);
        }
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
    println!("group commit on disk: {} batches, max batch size {}", group.0, group.1);

    // Versioned-read arm: pinned MVCC readers alongside writer churn.
    let versioned = versioned_read_arm(&cfg);

    // Stripe telemetry evidence, from a dedicated run kept alive for
    // inspection: the contended path populates `stripe.conflicts` when
    // try-lock fails and times the blocking acquisitions into
    // `lock.stripe_wait_ns`. (An evolve's fork copies nothing and takes
    // no stripe, so contention is the only source of stripe waits.)
    let (shared, view) = build();
    let _ = timed_run(&shared, view, 4, cfg.ops_per_thread.min(800), |_| 0, None);
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
        ("serialized_baseline_4_threads", run_json(s_tput, s_elapsed, s_ops, 4)),
        ("durable_4_threads", run_json(d_tput, d_elapsed, d_ops, 4)),
        ("durable_over_unlogged", durable_over_unlogged.into()),
        (
            "group_commit_evidence",
            JsonValue::obj(vec![
                ("wal_group_batches", group.0.into()),
                ("wal_group_max", group.1.into()),
            ]),
        ),
        ("stripe_evidence", evidence),
        ("versioned_read_4r_4w", versioned),
    ]);
    let path = write_bench_json("parallel_writes", &json).expect("write BENCH_parallel_writes.json");
    println!("wrote {path}");
}
