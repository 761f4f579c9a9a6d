//! Seeded fault-schedule torture of the durable shared system, in three
//! arms:
//!
//! - `kill`: a random workload (creates, sets, single-target
//!   query-updates, deletes, evolutions, checkpoints) with one failpoint
//!   site armed to crash, tear a write or inject an error — across WAL
//!   append and fsync, data apply, snapshot write and the
//!   fork–evolve–swap pipeline — then a pulled plug and a reopen.
//! - `chaos`: transient stalls inside the retry budget under a create or
//!   an evolve must ride out invisibly (counted in `fault.retries`);
//!   exhausted transients and ENOSPC must degrade to read-only with typed
//!   `Unavailable` backpressure, heal via `try_heal()` and resume; plugs
//!   are pulled mid-run.
//! - `poison`: a permanent fsync fault under a create or an evolve must
//!   fail-stop (`Poisoned`) without acking the unsynced frame or publishing
//!   the evolve, refuse to heal in place, and recover on restart.
//!
//! Every recovered or healed state is audited by
//! [`History::check`](tse::workload::history::History::check). Each arm
//! runs once per seed (`TSE_SEED` overrides the default); a red seed's
//! panic message prints the command that reruns it.

use std::path::{Path, PathBuf};

use tse::core::{
    DegradedReason, SharedSystem, SystemHealth, TseClient, TseCode, TseError, TseSystem,
};
use tse::object_model::{PropertyDef, Value, ValueType};
use tse::storage::{FailAction, StoreConfig};
use tse::workload::history::{seeded, History, Op};
use tse_inspect::Journal;

const DEFAULT_SEED: u64 = 0x7042_7475_7265_5EED;
const ITERATIONS: u64 = 48;

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
    /// Odd multiplier keeps the state nonzero and distinct for every seed
    /// (a plain `seed | 1` would alias each even seed with its successor).
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2).wrapping_add(1))
    }

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

/// Students are tagged in `age`, which no generated op rewrites.
fn new_history() -> History {
    History::new("VS", "Student", "age", seed_schema)
}

fn create(tag: i64, name: &str) -> Op {
    Op::Create { tag, values: vec![("name".into(), Value::Str(name.into()))] }
}

/// A create of the next unused tag.
fn fresh_create(next_tag: &mut i64) -> Op {
    let tag = *next_tag;
    *next_tag += 1;
    create(tag, &format!("s{tag}"))
}

/// An evolve adding the next unused attribute name, with a random default.
fn fresh_add_attr(rng: &mut Rng, next_attr: &mut u64) -> Op {
    let attr = format!("a{next_attr}");
    *next_attr += 1;
    let default = rng.below(100);
    Op::Evolve { command: format!("add_attribute {attr}: int = {default} to Student") }
}

fn open(dir: &Path, config: StoreConfig) -> SharedSystem {
    TseSystem::builder(dir)
        .store_config(config)
        .open()
        .unwrap_or_else(|e| panic!("recovery failed: {e}"))
}

/// The store behind `shared` checked against `history`; a violation dumps
/// the journal before it fails.
fn check(shared: &SharedSystem, history: &History, when: &str) -> History {
    history.check(&shared.client("VS")).unwrap_or_else(|e| {
        eprint!("--- journal ---\n{}", shared.telemetry().journal_lines());
        panic!("{when}: {e}")
    })
}

/// The journal gate `tse-inspect --check` applies, over the live journal
/// with a metrics snapshot embedded.
fn journal_problems(shared: &SharedSystem) -> Vec<String> {
    shared.telemetry().journal_metrics_snapshot();
    let lines = shared.telemetry().journal_lines();
    Journal::parse(&lines).expect("journal parses").check().problems
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_torture_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill() {
    seeded("--test torture -- kill", &[DEFAULT_SEED], run_kill);
}

#[test]
fn chaos() {
    seeded("--test torture -- chaos", &[DEFAULT_SEED], run_chaos);
}

#[test]
fn poison() {
    seeded("--test torture -- poison", &[DEFAULT_SEED], run_poison);
}

/// Kill at a random failpoint, reopen, check.
fn run_kill(seed: u64) {
    let mut rng = Rng::new(seed);
    // A small auto-checkpoint threshold so checkpoints also happen *inside*
    // the torture window, not only when the workload asks for one.
    let config = StoreConfig { wal_autocheckpoint_bytes: 640, ..StoreConfig::default() };
    let dir = scratch_dir("kill");
    {
        let shared = open(&dir, config);
        seed_schema(&shared);
        shared.checkpoint().unwrap();
    }

    let mut history = new_history();
    let mut next_tag: i64 = 0;
    let mut next_attr: u64 = 0;
    let mut faults = 0u64;

    for iteration in 0..ITERATIONS {
        let shared = open(&dir, config);
        let client = shared.client("VS");

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

        // Run random ops (`None` is a checkpoint) until a fault fires or
        // the budget is spent.
        for _ in 0..(2 + rng.below(6)) {
            let tags = history.live_tags();
            let step = match rng.below(8) {
                0..=2 => Some(fresh_create(&mut next_tag)),
                3 | 4 if !tags.is_empty() => {
                    let tag = tags[rng.below(tags.len() as u64) as usize];
                    // Mutate an evolved attribute when one exists, else
                    // rewrite the name.
                    let added = history.added_attributes();
                    let (attr, value) = if !added.is_empty() && rng.below(2) == 0 {
                        let a = &added[rng.below(added.len() as u64) as usize];
                        (a.clone(), Value::Int(rng.below(1000) as i64))
                    } else {
                        ("name".to_string(), Value::Str(format!("n{}", rng.below(1000))))
                    };
                    Some(if rng.below(2) == 0 {
                        Op::Set { tag, attr, value }
                    } else {
                        Op::UpdateWhere { tag, attr, value }
                    })
                }
                5 if !tags.is_empty() => {
                    Some(Op::Delete { tag: tags[rng.below(tags.len() as u64) as usize] })
                }
                6 => Some(fresh_add_attr(&mut rng, &mut next_attr)),
                7 => None,
                _ => continue,
            };
            let result = match step {
                Some(op) => history.issue(&client, op),
                None => shared.checkpoint().map(drop).map_err(TseError::from),
            };
            // A fault swallowed inside an auto-checkpoint still means the
            // plug gets pulled here.
            let fired = armed.is_some_and(|s| shared.failpoints().fired(s));
            match result {
                Ok(()) if !fired => continue,
                Ok(()) => {}
                Err(e) if fired || e.code() == TseCode::Poisoned => {}
                Err(e) => panic!("iteration {iteration}: non-injected error: {e}"),
            }
            faults += 1;
            break;
        }

        // Pull the plug, recover, check.
        drop((client, shared));
        let recovered = open(&dir, config);
        history = check(&recovered, &history, &format!("iteration {iteration}"));
    }

    let shared = open(&dir, config);
    let journal = shared.telemetry().journal_lines();
    assert!(journal.contains("recovery.complete"), "final journal missing recovery.complete");
    assert!(faults > 0, "no failpoint ever fired — the schedule is broken");
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recoverable fault schedules only. Small transient stalls must ride out
/// inside the retry budget; exhausted transients and ENOSPC must degrade →
/// heal → resume, losing nothing.
fn run_chaos(seed: u64) {
    let mut rng = Rng::new(seed);
    let config = StoreConfig::default();
    let dir = scratch_dir("chaos");

    let mut shared = open(&dir, config);
    seed_schema(&shared);
    shared.checkpoint().unwrap();
    // Backoff sleeps accumulate on the virtual clock: the schedule is
    // deterministic and the run takes no real wall-clock delay.
    shared.failpoints().set_virtual_clock(true);

    let mut history = new_history();
    let mut next_tag: i64 = 0;
    let mut next_attr: u64 = 0;
    let mut rideouts = 0u64;
    let mut degrades = 0u64;
    let mut heals = 0u64;

    for iteration in 0..ITERATIONS {
        let at = format!("iteration {iteration}");
        let client = shared.client("VS");
        // Occasionally interleave a calm, unarmed op (a set or a schema
        // evolution) so degrade episodes land on a varied history.
        if rng.below(3) == 0 {
            let tags = history.live_tags();
            let op = if !tags.is_empty() && rng.below(2) == 0 {
                let tag = tags[rng.below(tags.len() as u64) as usize];
                Op::Set { tag, attr: "name".into(), value: Value::Str(format!("n{iteration}")) }
            } else {
                fresh_add_attr(&mut rng, &mut next_attr)
            };
            history.issue(&client, op).unwrap_or_else(|e| panic!("{at}: calm op failed: {e}"));
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
                history.issue(&client, op).unwrap_or_else(|e| panic!("{at}: ride-out failed: {e}"));
                assert_eq!(shared.health(), SystemHealth::Healthy, "{at}: a rode-out transient");
                let retries = shared.telemetry().counter("fault.retries");
                assert!(retries > retries_before, "{at}: transient schedule spent no retries");
                shared.failpoints().disarm(site);
                history = check(&shared, &history, &at);
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
                let err = history.issue(&client, fresh_create(&mut next_tag)).expect_err(&at);
                assert_eq!(shared.health(), SystemHealth::Degraded { reason: want }, "{at}: {err}");
                degrades += 1;

                // While degraded: writers get typed backpressure, readers
                // keep serving.
                let tag = next_tag;
                next_tag += 1;
                let probe = history.issue(&client, create(tag, "rejected"));
                assert!(
                    matches!(&probe, Err(e) if e.code() == TseCode::Unavailable),
                    "{at}: degraded write was not rejected as Unavailable: {probe:?}"
                );
                client.session().and_then(|r| history.digest(&r)).expect("degraded reads serve");

                // The operator clears the fault and heals without restart.
                // The failed create applied in memory before its log append
                // failed, so the healing checkpoint may have made it
                // durable; the check resolves it either way.
                shared.failpoints().disarm("durable.wal_append");
                assert_eq!(shared.try_heal(), Ok(SystemHealth::Healthy), "{at}");
                heals += 1;
                history = check(&shared, &history, &at);
            }
        }

        // Periodically pull the plug mid-run: heals must never have
        // compromised durability of the acknowledged history.
        if rng.below(8) == 0 {
            drop((client, shared));
            shared = open(&dir, config);
            shared.failpoints().set_virtual_clock(true);
            history = check(&shared, &history, &format!("{at}, after a pulled plug"));
        }
    }

    // Force one deterministic degrade→heal episode at the end so the
    // journal always demonstrates a full recovered cycle.
    shared.failpoints().arm("durable.wal_append", 1, FailAction::DiskFull);
    let out = history.issue(&shared.client("VS"), fresh_create(&mut next_tag));
    assert!(out.is_err(), "final disk-full fault did not fire");
    shared.failpoints().disarm("durable.wal_append");
    assert_eq!(shared.try_heal(), Ok(SystemHealth::Healthy), "final heal");
    heals += 1;
    degrades += 1;
    history = check(&shared, &history, "final heal");

    assert!(shared.telemetry().journal_lines().contains("health.transition"));
    assert!(shared.telemetry().counter("durable.heals") >= 1);
    assert_eq!(shared.health(), SystemHealth::Healthy, "chaos run must end healthy");
    let problems = journal_problems(&shared);
    assert!(problems.is_empty(), "the chaos journal fails the gate: {problems:?}");
    drop(shared);

    // Final pulled plug: recovery must reproduce the acked history exactly.
    let shared = open(&dir, config);
    check(&shared, &history, "final recovery");
    assert!(shared.scrub_now().unwrap().clean(), "final scrub found damage after a chaos run");
    assert!(degrades > 0 && rideouts > 0, "schedule never exercised both arms");
    assert_eq!(heals, degrades, "every degradation must heal");
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rounds of the `poison` arm, each on a fresh directory.
const POISON_ROUNDS: u64 = 3;

/// A permanent fsync fault — under a create, or on some rounds under an
/// evolve whose fork runs while its frame is flushed — must poison the
/// system without acknowledging the unsynced frame or publishing the
/// evolve, refuse an in-place heal, and recover cleanly only through a
/// restart.
fn run_poison(seed: u64) {
    let mut rng = Rng::new(seed);
    let config = StoreConfig::default();
    let mut evolved = false;
    for round in 0..POISON_ROUNDS {
        let at = format!("round {round}");
        let dir = scratch_dir(&format!("poison{round}"));
        let shared = open(&dir, config);
        seed_schema(&shared);
        shared.checkpoint().unwrap();
        let client = shared.client("VS");
        let mut history = new_history();
        for tag in 0..5 {
            history.issue(&client, create(tag, &format!("s{tag}"))).expect("pre-fault writes ack");
        }

        // A permanent (non-transient, non-ENOSPC) fsync failure: the log's
        // durable contents are unknowable, so the system must fail-stop.
        let evolve = rng.below(2) == 0 || (round + 1 == POISON_ROUNDS && !evolved);
        evolved |= evolve;
        let op = if evolve { fresh_add_attr(&mut rng, &mut 0) } else { create(5, "s5") };
        let epoch = shared.epoch();
        shared.failpoints().arm("durable.wal_fsync", 1, FailAction::Error);
        let out = history.issue(&client, op);
        assert!(out.is_err(), "{at}: acked through a failed fsync");
        assert_eq!(shared.health(), SystemHealth::Poisoned, "{at}");
        assert_eq!(shared.epoch(), epoch, "{at}: an epoch published through a failed fsync");
        assert!(shared.try_heal().is_err(), "{at}: try_heal healed a poisoned system in place");
        let probe = history.issue(&client, create(6, "s6"));
        assert!(
            matches!(&probe, Err(e) if e.code() == TseCode::Poisoned),
            "{at}: poisoned write not fail-stopped: {probe:?}"
        );
        // Live, the refused op has not landed; its frame may still redo at
        // the restart, so the poisoned check leaves it unresolved.
        history = check(&shared, &history, &format!("{at}, poisoned"));
        // The unrecovered transition and the poisoned-log counter are
        // exactly what the journal gate exists to flag.
        let problems = journal_problems(&shared);
        assert!(
            problems.iter().any(|p| p.starts_with("wal.poisoned")),
            "{at}: the poison journal passes the gate: {problems:?}"
        );
        drop((client, shared));

        // Restart and recover: every acked write present; the unsynced
        // frame may have reached the disk but was never acknowledged —
        // either world is correct.
        let shared = open(&dir, config);
        assert_eq!(shared.health(), SystemHealth::Healthy, "{at}: reopened system not healthy");
        history = check(&shared, &history, &format!("{at}, restart"));
        history.issue(&shared.client("VS"), create(7, "s7")).expect("writes resume after restart");
        check(&shared, &history, &format!("{at}, after resuming"));
        drop(shared);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
