//! Randomized fault-schedule torture loop for the shared durable system,
//! with three arms selected by `CRASH_TORTURE_MODE`:
//!
//! - `kill` (default): each iteration runs a random workload (creates,
//!   sets, single-target query-updates, deletes, structural evolutions,
//!   checkpoints) with one failpoint site armed to kill the "process"
//!   (simulated crash, torn write, or injected error) at a random point —
//!   across WAL append, fsync, data apply, snapshot write, and the
//!   fork–evolve–swap pipeline. The moment a fault fires (or the workload
//!   finishes), the system is dropped without a clean shutdown and
//!   reopened from disk.
//! - `chaos`: injects *recoverable* fault schedules — transient stalls
//!   inside the retry budget under a create or an evolve (which must ride
//!   out invisibly, counted in `fault.retries`), and
//!   exhausted-transient / disk-full faults (which must degrade the
//!   system to read-only with typed `Unavailable` backpressure, then heal
//!   via `try_heal()` and resume) — with zero acknowledged-write loss,
//!   verified against the oracle after periodic pulled plugs.
//! - `poison`: injects a *permanent* fsync fault. The system must
//!   fail-stop (`Poisoned`) without acknowledging the unsynced frame,
//!   refuse to heal in place, and recover cleanly on restart.
//!
//! The invariant is checked against an in-memory oracle: a non-durable
//! system replaying exactly the **acknowledged** operations. The recovered
//! state must be semantically equal to the oracle — or, when one operation
//! was in flight at the kill, to the oracle plus that single operation
//! (apply-then-log means an unacknowledged frame may or may not have
//! reached the disk; both outcomes are correct, a partial one is not).
//!
//! The schedule is driven by a fixed-seed xorshift generator (override
//! with `CRASH_TORTURE_SEED`; iterations with `CRASH_TORTURE_ITERS`), so
//! any failure reproduces exactly. The process exits nonzero on a violated
//! invariant and prints the seed plus the recovery journal. When
//! `CRASH_TORTURE_JOURNAL` names a file, the run's telemetry journal
//! (with an embedded metrics snapshot) is written there for
//! `tse-inspect --check`: the chaos arm's journal must pass the gate,
//! the poison arm's must fail it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tse_core::{DegradedReason, SharedSystem, SystemHealth, TseSystem};
use tse_object_model::{ModelError, Oid, PropertyDef, Value, ValueType};
use tse_storage::{FailAction, StoreConfig};
use tse_view::ViewId;

const SITES: [&str; 10] = [
    "durable.wal_append",
    "durable.wal_fsync",
    "storage.insert",
    "durable.snapshot_write",
    "durable.manifest_write",
    "snapshot.encode",
    "evolve.translate",
    "evolve.classify",
    "evolve.view_regen",
    "evolve.swap_in",
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic, no external crates.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One logical operation, described abstractly so it can be applied to the
/// durable system and replayed verbatim on the in-memory oracle. Objects
/// are addressed by their unique `tag` (stored in the `age` attribute):
/// oids are assigned by each side's allocator and may legitimately differ
/// once faults skip allocations, so they never appear in the digest.
#[derive(Clone, Debug)]
enum Op {
    Create { name: String, tag: i64 },
    Set { tag: i64, attr: String, value: Value },
    UpdateWhere { tag: i64, attr: String, value: Value },
    Delete { tag: i64 },
    AddAttr { attr: String, default: i64 },
    Checkpoint,
}

/// Apply one op to a system. `oids` maps tag → oid on *that* side.
/// Returns the created oid for `Create`.
fn apply(
    shared: &SharedSystem,
    oids: &mut BTreeMap<i64, Oid>,
    op: &Op,
) -> tse_object_model::ModelResult<()> {
    let view = current_view(shared);
    match op {
        Op::Create { name, tag } => {
            let oid = shared.writer().create(
                view,
                "Student",
                &[("name", Value::Str(name.clone())), ("age", Value::Int(*tag))],
            )?;
            oids.insert(*tag, oid);
        }
        Op::Set { tag, attr, value } => {
            let oid = oids[tag];
            shared.writer().set(view, oid, "Student", &[(attr, value.clone())])?;
        }
        Op::UpdateWhere { tag, attr, value } => {
            // Single-target by construction: `age` tags are unique, so the
            // update touches at most one object and is atomic under crash.
            shared.writer().update_where(
                view,
                "Student",
                &format!("age == {tag}"),
                &[(attr, value.clone())],
            )?;
        }
        Op::Delete { tag } => {
            let oid = oids[tag];
            shared.writer().delete_objects(&[oid])?;
            oids.remove(tag);
        }
        Op::AddAttr { attr, default } => {
            shared.evolve_cmd("VS", &format!("add_attribute {attr}: int = {default} to Student"))?;
        }
        Op::Checkpoint => {
            shared.checkpoint()?;
        }
    }
    Ok(())
}

/// A create of the next unused tag.
fn fresh_create(next_tag: &mut i64) -> Op {
    let tag = *next_tag;
    *next_tag += 1;
    Op::Create { name: format!("s{tag}"), tag }
}

/// An evolve adding the next unused attribute name, with a random default.
fn fresh_add_attr(rng: &mut Rng, next_attr: &mut u64) -> Op {
    let attr = format!("a{next_attr}");
    *next_attr += 1;
    Op::AddAttr { attr, default: rng.below(100) as i64 }
}

fn current_view(shared: &SharedSystem) -> ViewId {
    let s = shared.session();
    *s.meta().views().versions("VS").expect("VS exists").last().expect("one version")
}

/// Semantic digest of the Student extent: one sorted row per object over
/// the given attribute set. Oids are deliberately excluded (see [`Op`]).
fn digest(shared: &SharedSystem, attrs: &[String]) -> String {
    let s = shared.session();
    let view = current_view(shared);
    let mut rows = Vec::new();
    for oid in s.extent(view, "Student").expect("extent readable") {
        let mut row = Vec::new();
        for attr in attrs {
            let v = s
                .get(view, oid, "Student", attr)
                .map(|v| format!("{v:?}"))
                .unwrap_or_else(|_| "<missing>".into());
            row.push(format!("{attr}={v}"));
        }
        rows.push(row.join(";"));
    }
    rows.sort();
    rows.join("\n")
}

/// Build a fresh in-memory oracle and replay `ops` through it.
fn oracle_replay(ops: &[Op]) -> (SharedSystem, Vec<String>) {
    let shared = SharedSystem::new();
    seed_schema(&shared);
    let mut oids = BTreeMap::new();
    let mut attrs = vec!["name".to_string(), "age".to_string()];
    for op in ops {
        if matches!(op, Op::Checkpoint) {
            continue; // durability-only; no semantic effect to mirror
        }
        apply(&shared, &mut oids, op).expect("oracle replay is fault-free");
        if let Op::AddAttr { attr, .. } = op {
            attrs.push(attr.clone());
        }
    }
    (shared, attrs)
}

fn seed_schema(shared: &SharedSystem) {
    shared
        .define_base_class(
            "Person",
            &[],
            vec![
                PropertyDef::stored("name", ValueType::Str, Value::Null),
                PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
            ],
        )
        .unwrap();
    shared.define_base_class("Student", &["Person"], vec![]).unwrap();
    shared.create_view("VS", &["Person", "Student"]).unwrap();
}

fn reopen(dir: &Path, config: StoreConfig, seed: u64, iteration: u64) -> SharedSystem {
    TseSystem::builder(dir).store_config(config).open().unwrap_or_else(|e| {
        eprintln!("seed={seed:#x} iteration={iteration}: recovery failed: {e}");
        std::process::exit(1);
    })
}

fn fail(shared: &SharedSystem, seed: u64, iteration: u64, msg: &str) -> ! {
    eprintln!("seed={seed:#x} iteration={iteration}: {msg}");
    eprintln!("--- recovery journal ---");
    eprint!("{}", shared.telemetry().journal_lines());
    std::process::exit(1);
}

/// Compare `shared` against the oracle's replay of `acked`, tolerating at
/// most one `in_flight` operation that may legitimately have landed either
/// way. When it did land, it becomes part of durable history: it is folded
/// into `acked` and the live-side tag maps, so every later comparison (and
/// every future recovery) accounts for it. Returns true in that case;
/// exits nonzero when the state matches neither world.
fn reconcile(
    shared: &SharedSystem,
    acked: &mut Vec<Op>,
    live_oids: &mut BTreeMap<i64, Oid>,
    live_attrs: &mut Vec<String>,
    in_flight: Option<Op>,
    seed: u64,
    iteration: u64,
) -> bool {
    let (oracle_a, attrs_a) = oracle_replay(acked);
    let expect_a = digest(&oracle_a, &attrs_a);
    let got_a = digest(shared, &attrs_a);
    if got_a == expect_a {
        return false;
    }
    let Some(op) = in_flight else {
        fail(
            shared,
            seed,
            iteration,
            &format!(
                "state lost acknowledged operations\n\
                 --- expected ---\n{expect_a}\n--- got ---\n{got_a}"
            ),
        );
    };
    let mut with = acked.clone();
    with.push(op.clone());
    let (oracle_b, attrs_b) = oracle_replay(&with);
    let expect_b = digest(&oracle_b, &attrs_b);
    let got_b = digest(shared, &attrs_b);
    if got_b != expect_b {
        fail(
            shared,
            seed,
            iteration,
            &format!(
                "state matches neither acked-only nor acked+in-flight\n\
                 in-flight: {op:?}\n--- acked-only ---\n{expect_a}\n\
                 --- acked+in-flight ---\n{expect_b}\n--- got ---\n{got_a}"
            ),
        );
    }
    *acked = with;
    match op {
        Op::Create { tag, .. } => {
            // Resolve its oid on the live side so later ops can target it
            // like any acknowledged object.
            let s = shared.session();
            let view = current_view(shared);
            let found = s
                .select_where(view, "Student", &format!("age == {tag}"))
                .expect("extent readable");
            assert_eq!(found.len(), 1, "in-flight create present exactly once");
            live_oids.insert(tag, found[0]);
        }
        Op::Delete { tag } => {
            live_oids.remove(&tag);
        }
        Op::AddAttr { attr, .. } => {
            live_attrs.push(attr);
        }
        _ => {}
    }
    true
}

/// When `CRASH_TORTURE_JOURNAL` is set, embed a metrics snapshot and dump
/// the live journal there for offline gating with `tse-inspect --check`.
fn write_journal(shared: &SharedSystem) {
    if let Ok(path) = std::env::var("CRASH_TORTURE_JOURNAL") {
        shared.telemetry().journal_metrics_snapshot();
        std::fs::write(&path, shared.telemetry().journal_lines()).expect("write journal file");
        println!("journal written to {path}");
    }
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_crash_torture_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn main() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7042_7475_7265_5EED_u64);
    let iterations: u64 = std::env::var("CRASH_TORTURE_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let mode = std::env::var("CRASH_TORTURE_MODE").unwrap_or_else(|_| "kill".into());
    match mode.as_str() {
        "kill" => run_kill(seed, iterations),
        "chaos" => run_chaos(seed, iterations),
        "poison" => run_poison(seed),
        other => {
            eprintln!("crash_torture: unknown CRASH_TORTURE_MODE `{other}` (kill|chaos|poison)");
            std::process::exit(2);
        }
    }
}

/// The original arm: kill at a random failpoint, reopen, compare.
fn run_kill(seed: u64, iterations: u64) {
    // Odd multiplier keeps the state nonzero and distinct for every seed
    // (a plain `seed | 1` would alias each even seed with its successor).
    let mut rng = Rng(seed.wrapping_mul(2).wrapping_add(1));
    println!("crash_torture[kill]: seed={seed:#x} iterations={iterations}");

    // A small auto-checkpoint threshold so checkpoints also happen *inside*
    // the torture window, not only when the workload asks for one.
    let config = StoreConfig { wal_autocheckpoint_bytes: 640, ..StoreConfig::default() };
    let dir = scratch_dir("kill");

    // Seed a durable baseline on disk.
    {
        let shared = TseSystem::builder(&dir).store_config(config).open().expect("fresh open");
        seed_schema(&shared);
        shared.checkpoint().unwrap();
    }

    // Oracle state: the exact sequence of acknowledged operations, plus the
    // live system's tag → oid map (survives recovery because replay
    // reissues logged oids).
    let mut acked: Vec<Op> = Vec::new();
    let mut live_oids = BTreeMap::new();
    // Attributes known to exist on the live side (acknowledged AddAttrs);
    // mutation targets are drawn from here so every generated op is
    // well-typed against both the live schema and the oracle's.
    let mut live_attrs: Vec<String> = Vec::new();
    let mut next_tag: i64 = 0;
    let mut next_attr: u64 = 0;
    let mut kills = 0u64;
    let mut faults = 0u64;
    let mut matched_present = 0u64;
    let mut matched_absent = 0u64;
    let mut autocheckpoints = 0u64;

    for iteration in 0..iterations {
        let shared = reopen(&dir, config, seed, iteration);

        // Arm one random site most iterations; some iterations kill with no
        // fault at all, exercising pure pull-the-plug recovery.
        let armed = if rng.below(5) > 0 {
            let site = SITES[rng.below(SITES.len() as u64) as usize];
            let action = match rng.below(4) {
                0 => FailAction::Error,
                1 | 2 => FailAction::Crash,
                _ => FailAction::TornWrite { keep_bytes: rng.below(48) as usize },
            };
            shared.failpoints().arm(site, 1 + rng.below(4), action);
            Some(site)
        } else {
            None
        };

        // Run random ops until a fault fires or the budget is spent. The
        // op that errors (or that an async-swallowed fault interrupted) is
        // the single in-flight candidate.
        let mut in_flight: Option<Op> = None;
        for _ in 0..(2 + rng.below(6)) {
            let tags: Vec<i64> = live_oids.keys().copied().collect();
            let op = match rng.below(8) {
                0..=2 => fresh_create(&mut next_tag),
                3 | 4 if !tags.is_empty() => {
                    let tag = tags[rng.below(tags.len() as u64) as usize];
                    // Never touch `age` — it is the tag objects are
                    // addressed by. Mutate an evolved attribute when one
                    // exists, else rewrite the name.
                    let (attr, value) = if !live_attrs.is_empty() && rng.below(2) == 0 {
                        let a = &live_attrs[rng.below(live_attrs.len() as u64) as usize];
                        (a.clone(), Value::Int(rng.below(1000) as i64))
                    } else {
                        ("name".to_string(), Value::Str(format!("n{}", rng.below(1000))))
                    };
                    if rng.below(2) == 0 {
                        Op::Set { tag, attr, value }
                    } else {
                        Op::UpdateWhere { tag, attr, value }
                    }
                }
                5 if !tags.is_empty() => {
                    Op::Delete { tag: tags[rng.below(tags.len() as u64) as usize] }
                }
                6 => fresh_add_attr(&mut rng, &mut next_attr),
                7 => Op::Checkpoint,
                _ => continue,
            };
            match apply(&shared, &mut live_oids, &op) {
                Ok(()) => {
                    if let Op::AddAttr { attr, .. } = &op {
                        live_attrs.push(attr.clone());
                    }
                    acked.push(op);
                    // A fault swallowed inside an auto-checkpoint still
                    // means the plug gets pulled here.
                    if armed.is_some_and(|s| shared.failpoints().fired(s)) {
                        faults += 1;
                        break;
                    }
                }
                Err(e) => {
                    let fired = armed.is_some_and(|s| shared.failpoints().fired(s));
                    let poisoned = e.to_string().contains("wal poisoned");
                    if !fired && !poisoned {
                        fail(&shared, seed, iteration, &format!("non-injected error: {e}"));
                    }
                    faults += 1;
                    in_flight = Some(op);
                    break;
                }
            }
        }

        // Pull the plug. (Telemetry dies with the process, so roll the
        // auto-checkpoint count into the harness total first.)
        autocheckpoints += shared.telemetry().counter("durable.autocheckpoints");
        drop(shared);
        kills += 1;

        // Recover and compare against the oracle.
        let recovered = reopen(&dir, config, seed, iteration);
        if reconcile(
            &recovered,
            &mut acked,
            &mut live_oids,
            &mut live_attrs,
            in_flight,
            seed,
            iteration,
        ) {
            matched_present += 1;
        } else {
            matched_absent += 1;
        }
        drop(recovered);
    }

    // Final recovery must also be self-consistent and telemetry-visible.
    let shared = reopen(&dir, config, seed, iterations);
    let journal = shared.telemetry().journal_lines();
    assert!(journal.contains("recovery.complete"), "final journal missing recovery.complete");
    assert!(faults > 0, "no failpoint ever fired — the schedule is broken");
    write_journal(&shared);
    println!(
        "crash_torture[kill] ok: seed={seed:#x} kills={kills} faults={faults} \
         inflight_present={matched_present} inflight_absent={matched_absent} \
         acked_ops={} generation={:?} autocheckpoints={autocheckpoints}",
        acked.len(),
        shared.generation(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful-degradation arm: recoverable fault schedules only. Small
/// transient stalls must ride out inside the retry budget; exhausted
/// transients and ENOSPC must degrade → heal → resume, losing nothing.
fn run_chaos(seed: u64, iterations: u64) {
    let mut rng = Rng(seed.wrapping_mul(2).wrapping_add(1));
    println!("crash_torture[chaos]: seed={seed:#x} iterations={iterations}");
    let config = StoreConfig::default();
    let dir = scratch_dir("chaos");

    let mut shared = TseSystem::builder(&dir).store_config(config).open().expect("fresh open");
    seed_schema(&shared);
    shared.checkpoint().unwrap();
    // Backoff sleeps accumulate on the virtual clock: the schedule is
    // deterministic and the run takes no real wall-clock delay.
    shared.failpoints().set_virtual_clock(true);

    let mut acked: Vec<Op> = Vec::new();
    let mut live_oids = BTreeMap::new();
    let mut live_attrs: Vec<String> = Vec::new();
    let mut next_tag: i64 = 0;
    let mut next_attr: u64 = 0;
    let mut rideouts = 0u64;
    let mut degrades = 0u64;
    let mut heals = 0u64;
    let mut rejected = 0u64;
    let mut plugs = 0u64;

    for iteration in 0..iterations {
        // Occasionally interleave a calm, unarmed op (a set or a schema
        // evolution) so degrade episodes land on a varied history.
        if rng.below(3) == 0 {
            let tags: Vec<i64> = live_oids.keys().copied().collect();
            let op = if !tags.is_empty() && rng.below(2) == 0 {
                let tag = tags[rng.below(tags.len() as u64) as usize];
                Op::Set { tag, attr: "name".into(), value: Value::Str(format!("n{iteration}")) }
            } else {
                fresh_add_attr(&mut rng, &mut next_attr)
            };
            if let Err(e) = apply(&shared, &mut live_oids, &op) {
                fail(&shared, seed, iteration, &format!("calm op failed: {e}"));
            }
            if let Op::AddAttr { attr, .. } = &op {
                live_attrs.push(attr.clone());
            }
            acked.push(op);
        }

        let retries_before = shared.telemetry().counter("fault.retries");
        match rng.below(3) {
            0 => {
                // Transient stall inside the retry budget, under a data
                // write or an evolve (whose frame is structural): the caller
                // never sees it, health never moves, and the retries count.
                let site =
                    if rng.below(2) == 0 { "durable.wal_fsync" } else { "durable.wal_append" };
                let succeed_after = 1 + rng.below(3);
                shared.failpoints().arm(site, 1, FailAction::TransientError { succeed_after });
                let op = if rng.below(2) == 0 {
                    fresh_create(&mut next_tag)
                } else {
                    fresh_add_attr(&mut rng, &mut next_attr)
                };
                if let Err(e) = apply(&shared, &mut live_oids, &op) {
                    fail(&shared, seed, iteration, &format!("ride-out {op:?} failed: {e}"));
                }
                if let Op::AddAttr { attr, .. } = &op {
                    live_attrs.push(attr.clone());
                }
                acked.push(op);
                if shared.health() != SystemHealth::Healthy {
                    fail(&shared, seed, iteration, "health moved on a rode-out transient");
                }
                if shared.telemetry().counter("fault.retries") == retries_before {
                    fail(&shared, seed, iteration, "transient schedule spent no retries");
                }
                shared.failpoints().disarm(site);
                // The rode-out op is acknowledged: the live state must now
                // equal the oracle's replay of the history that ends in it.
                let (oids, attrs) = (&mut live_oids, &mut live_attrs);
                reconcile(&shared, &mut acked, oids, attrs, None, seed, iteration);
                rideouts += 1;
            }
            kind => {
                // A fault that outlasts the retry budget (kind 1) or
                // ENOSPC (kind 2): the write fails, the system degrades.
                let (action, want) = if kind == 1 {
                    (
                        FailAction::TransientError { succeed_after: 1_000 },
                        DegradedReason::RetriesExhausted,
                    )
                } else {
                    (FailAction::DiskFull, DegradedReason::DiskFull)
                };
                shared.failpoints().arm("durable.wal_append", 1, action);
                let op = fresh_create(&mut next_tag);
                let err = match apply(&shared, &mut live_oids, &op) {
                    Err(e) => e,
                    Ok(()) => fail(&shared, seed, iteration, "armed fault did not fire"),
                };
                if shared.health() != (SystemHealth::Degraded { reason: want }) {
                    fail(
                        &shared,
                        seed,
                        iteration,
                        &format!(
                            "expected degraded ({}) after `{err}`, got {}",
                            want.name(),
                            shared.health()
                        ),
                    );
                }
                degrades += 1;

                // While degraded: writers get typed backpressure, readers
                // keep serving.
                let probe = Op::Create { name: "rejected".into(), tag: next_tag };
                match apply(&shared, &mut live_oids, &probe) {
                    Err(ModelError::Unavailable { .. }) => rejected += 1,
                    other => fail(
                        &shared,
                        seed,
                        iteration,
                        &format!("degraded write was not rejected as Unavailable: {other:?}"),
                    ),
                }
                let (_, attrs) = oracle_replay(&acked);
                let _ = digest(&shared, &attrs); // reads must not error

                // The operator clears the fault and heals without restart.
                shared.failpoints().disarm("durable.wal_append");
                match shared.try_heal() {
                    Ok(SystemHealth::Healthy) => heals += 1,
                    other => fail(&shared, seed, iteration, &format!("try_heal: {other:?}")),
                }
                // The failed op had applied in memory before its log append
                // failed, so the healing checkpoint may have made it
                // durable — fold it into history if so; losing anything
                // *acknowledged* is fatal.
                reconcile(
                    &shared,
                    &mut acked,
                    &mut live_oids,
                    &mut live_attrs,
                    Some(op),
                    seed,
                    iteration,
                );
            }
        }

        // Periodically pull the plug mid-run: heals must never have
        // compromised durability of the acknowledged history.
        if rng.below(8) == 0 {
            drop(shared);
            plugs += 1;
            shared = reopen(&dir, config, seed, iteration);
            shared.failpoints().set_virtual_clock(true);
            reconcile(&shared, &mut acked, &mut live_oids, &mut live_attrs, None, seed, iteration);
        }
    }

    // Force one deterministic degrade→heal episode at the end so the
    // captured journal always demonstrates a full recovered cycle.
    shared.failpoints().arm("durable.wal_append", 1, FailAction::DiskFull);
    let tag = next_tag;
    let op = Op::Create { name: format!("s{tag}"), tag };
    if apply(&shared, &mut live_oids, &op).is_ok() {
        fail(&shared, seed, iterations, "final disk-full fault did not fire");
    }
    shared.failpoints().disarm("durable.wal_append");
    if shared.try_heal() != Ok(SystemHealth::Healthy) {
        fail(&shared, seed, iterations, "final heal failed");
    }
    heals += 1;
    degrades += 1;
    reconcile(&shared, &mut acked, &mut live_oids, &mut live_attrs, Some(op), seed, iterations);

    let virtual_slept_ms = shared.failpoints().virtual_slept_ns() / 1_000_000;
    let journal = shared.telemetry().journal_lines();
    assert!(journal.contains("health.transition"), "journal missing health transitions");
    assert!(shared.telemetry().counter("durable.heals") >= 1);
    assert_eq!(shared.health(), SystemHealth::Healthy, "chaos run must end healthy");
    write_journal(&shared);
    drop(shared);

    // Final pulled plug: recovery must reproduce the acked history exactly.
    let shared = reopen(&dir, config, seed, iterations);
    reconcile(&shared, &mut acked, &mut live_oids, &mut live_attrs, None, seed, iterations);
    let report = shared.scrub_now().unwrap_or_else(|e| {
        fail(&shared, seed, iterations, &format!("final scrub failed: {e}"))
    });
    if !report.clean() {
        fail(&shared, seed, iterations, "final scrub found damage after a chaos run");
    }
    assert!(degrades > 0 && rideouts > 0, "schedule never exercised both arms");
    assert_eq!(heals, degrades, "every degradation must heal");
    println!(
        "crash_torture[chaos] ok: seed={seed:#x} rideouts={rideouts} degrades={degrades} \
         heals={heals} rejected_writes={rejected} plugs={plugs} acked_ops={} \
         virtual_backoff_ms={virtual_slept_ms} generation={:?}",
        acked.len(),
        shared.generation(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fail-stop arm: a permanent fsync fault must poison the system
/// without acknowledging the unsynced frame, refuse an in-place heal, and
/// recover cleanly only through a restart.
fn run_poison(seed: u64) {
    println!("crash_torture[poison]: seed={seed:#x}");
    let config = StoreConfig::default();
    let dir = scratch_dir("poison");

    let shared = TseSystem::builder(&dir).store_config(config).open().expect("fresh open");
    seed_schema(&shared);
    shared.checkpoint().unwrap();

    let mut acked: Vec<Op> = Vec::new();
    let mut live_oids = BTreeMap::new();
    let mut live_attrs: Vec<String> = Vec::new();
    for tag in 0..5i64 {
        let op = Op::Create { name: format!("s{tag}"), tag };
        apply(&shared, &mut live_oids, &op).expect("pre-fault writes ack");
        acked.push(op);
    }

    // A permanent (non-transient, non-ENOSPC) fsync failure: the log's
    // durable contents are unknowable, so the system must fail-stop.
    shared.failpoints().arm("durable.wal_fsync", 1, FailAction::Error);
    let in_flight = Op::Create { name: "s5".into(), tag: 5 };
    if apply(&shared, &mut live_oids, &in_flight).is_ok() {
        fail(&shared, seed, 0, "write acked through a failed fsync");
    }
    if shared.health() != SystemHealth::Poisoned {
        fail(&shared, seed, 0, &format!("expected poisoned, got {}", shared.health()));
    }
    if shared.try_heal().is_ok() {
        fail(&shared, seed, 0, "try_heal healed a poisoned system in place");
    }
    let probe = Op::Create { name: "s6".into(), tag: 6 };
    match apply(&shared, &mut live_oids, &probe) {
        Err(e) if e.to_string().contains("poison") => {}
        other => fail(&shared, seed, 0, &format!("poisoned write not fail-stopped: {other:?}")),
    }
    // The captured journal carries the unrecovered transition and the
    // poisoned-log counter — `tse-inspect --check` must FAIL on it.
    write_journal(&shared);
    drop(shared);

    // Restart-and-recover: every acked write present; the unsynced frame
    // may have reached the disk but was never acknowledged — either world
    // is correct.
    let shared = reopen(&dir, config, seed, 1);
    if shared.health() != SystemHealth::Healthy {
        fail(&shared, seed, 1, "reopened system not healthy");
    }
    let present = reconcile(
        &shared,
        &mut acked,
        &mut live_oids,
        &mut live_attrs,
        Some(in_flight),
        seed,
        1,
    );
    let next = Op::Create { name: "s7".into(), tag: 7 };
    apply(&shared, &mut live_oids, &next).expect("writes resume after restart");
    println!(
        "crash_torture[poison] ok: seed={seed:#x} acked_ops={} unsynced_frame_landed={present}",
        acked.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
