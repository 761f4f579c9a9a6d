//! Workload 2 — `durable_write`: one closed-loop thread creating and
//! updating objects on a durable directory under the shipped flush policy
//! (group-commit fsync before ack, 4 MiB auto-checkpoint), reading back what
//! it just wrote, then dropping, reopening and auditing every acked object.
//!
//! Why: `walcodec`, `GroupWal` fsync, `write_attr`, MVCC chains, GC and
//! checkpointing do the work; view resolution does little. The reads sit
//! beside the writes, so a read-path gain that costs the write path — or
//! longer chains that cost reads — shows here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{SharedSystem, TseClient, TseReader, TseResult, TseSystem, TseWriter};
use tse_object_model::{Oid, Value};
use tse_storage::StoreConfig;

use tse_telemetry::JsonValue;

use crate::contract::{
    check_load_threads, fs_type, put, put_client_tails, put_tracing_cost, Config, Outcome,
};
use crate::harness::{
    hist_p50, median, repeat_setup, run_phase, StreamHash, Tally, Tracer, BLOCK, ROUNDS,
    WARMUP_SHARE,
};
use crate::population::{define_university, shuffle, FAMILY};

/// Objects created durably during set-up, before the measured phase (sized
/// so a set-up takes over a second).
pub const INITIAL_POPULATION: usize = 10_000;
/// The mix: 50% create / 40% set / 10% get. A unit of scale `k` holds
/// `15k` create and `12k` set blocks in a seeded order, then `3k` get blocks
/// as one burst through one session, reading back the unit's most recent
/// writes. (One long burst rather than many short ones: the first blocks
/// after an `fsync` find the caches cold, and the median block should show
/// the version chain, not how long the disk kept the thread asleep.)
const UNIT_MIX: [(Kind, usize); 3] = [(Kind::Create, 15), (Kind::Set, 12), (Kind::Get, 3)];
const UNIT_BLOCKS: usize = 30;
/// Frozen size of the measured phase: one unit of this scale (19 200 ops)
/// per round, sized once so the phase takes about `run_seconds` at the
/// commit that defined the benchmark.
const ROUND_SCALE: usize = 10;
/// Auto-checkpoints the measured phase must span.
const MIN_AUTOCHECKPOINTS: u64 = 4;
/// Creates cycle over these classes (one to three slices per object).
const CLASSES: [&str; 4] = ["Student", "TeachingStaff", "SupportStaff", "TA"];
/// Pads names so a write frame carries a document-sized payload (and the
/// measured phase spans at least four 4 MiB auto-checkpoints).
const PAD: &str = "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Create,
    Set,
    Get,
}

const KINDS: [&str; 3] = ["client.create", "client.set", "client.get"];

/// One op on the object with creation index `idx`: the age it writes (for
/// a get: the age the read must return) and, for a set, which rewrite of
/// the object's name this is.
#[derive(Debug, Clone, Copy)]
struct Op {
    idx: u32,
    age: i64,
    rename: u32,
}

/// One block of [`BLOCK`] same-kind ops.
struct Block {
    kind: Kind,
    ops: Vec<Op>,
}

/// The expectation: every object's latest acked state, by creation index.
#[derive(Default)]
struct Model {
    oids: Vec<Oid>,
    age: Vec<i64>,
    /// How often the object's name was rewritten (0 = as created).
    renames: Vec<u32>,
}

fn name_of(idx: u32, renames: u32) -> String {
    format!("w{idx:08}.{renames}-{PAD}")
}

/// Generate the op stream. Object indices are assigned in creation order,
/// so the stream is fully determined before anything runs; the returned
/// model holds the state every object must end in. Also returns the ages
/// the initial population is created with.
fn generate(seed: u64, unit_scales: &[usize]) -> (Vec<Block>, Model, Vec<i64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6477_7274);
    let mut hash = StreamHash::default();
    let mut model = Model::default();
    for _ in 0..INITIAL_POPULATION {
        model.age.push(rng.gen_range(18..68));
        model.renames.push(0);
    }
    let initial_ages = model.age.clone();
    let [(_, creates), (_, sets), (_, gets)] = UNIT_MIX;
    let mut blocks = Vec::new();
    for scale in unit_scales {
        // The most recent writes, oldest first: what the read-back burst reads.
        let mut recent: Vec<u32> = Vec::new();
        let mut unit: Vec<Kind> = std::iter::repeat_n(Kind::Create, creates * scale)
            .chain(std::iter::repeat_n(Kind::Set, sets * scale))
            .collect();
        shuffle(&mut rng, &mut unit);
        for kind in unit {
            let ops: Vec<Op> = (0..BLOCK)
                .map(|_| {
                    let n = model.age.len();
                    let idx = match kind {
                        Kind::Create => {
                            model.age.push(0);
                            model.renames.push(0);
                            n
                        }
                        // 80/20: four sets in five hit the oldest fifth.
                        _ if rng.gen_range(0..5) < 4 => rng.gen_range(0..n / 5),
                        _ => rng.gen_range(0..n),
                    };
                    let age = rng.gen_range(18..68);
                    model.age[idx] = age;
                    model.renames[idx] += (kind == Kind::Set) as u32;
                    Op {
                        idx: idx as u32,
                        age,
                        rename: model.renames[idx],
                    }
                })
                .collect();
            recent.extend(ops.iter().map(|op| op.idx));
            blocks.push(Block { kind, ops });
        }
        for burst in recent[recent.len() - gets * scale * BLOCK..].chunks(BLOCK) {
            let ops = burst
                .iter()
                .map(|i| Op {
                    idx: *i,
                    age: model.age[*i as usize],
                    rename: 0,
                })
                .collect();
            blocks.push(Block {
                kind: Kind::Get,
                ops,
            });
        }
    }
    for block in &blocks {
        hash.feed(block.kind as u64);
        for op in &block.ops {
            hash.feed((op.idx as u64) << 32 | op.age as u64);
        }
    }
    (blocks, model, initial_ages, hash.0)
}

/// Open a fresh durable directory, define the schema and create the initial
/// population. Returns the system and the oids in creation order.
fn setup(dir: &Path, ages: &[i64]) -> TseResult<(SharedSystem, Vec<Oid>)> {
    let sys = TseSystem::builder(dir).open()?;
    let client = sys.client(FAMILY);
    define_university(&client)?;
    let writer = client.writer()?;
    let mut oids = Vec::with_capacity(ages.len());
    for (idx, age) in ages.iter().enumerate() {
        oids.push(create(&writer, idx as u32, *age)?);
    }
    Ok((sys, oids))
}

fn create(writer: &impl TseWriter, idx: u32, age: i64) -> TseResult<Oid> {
    let class = CLASSES[idx as usize % CLASSES.len()];
    writer.create(
        class,
        &[
            ("name", Value::Str(name_of(idx, 0))),
            ("age", Value::Int(age)),
        ],
    )
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> TseResult<Outcome> {
    check_load_threads(1);
    // The warm-up is one smaller unit, then one unit per round.
    let warm_scale = ((ROUND_SCALE * ROUNDS) as f64 * WARMUP_SHARE) as usize;
    let mut unit_scales = [ROUND_SCALE; 1 + ROUNDS];
    unit_scales[0] = warm_scale;
    let (blocks, mut model, initial_ages, stream_hash) = generate(cfg.seed, &unit_scales);
    let (warmup, measured) = blocks.split_at(warm_scale * UNIT_BLOCKS);

    let ((sys, oids, dir), setup_s) = repeat_setup(
        |i| {
            let dir = cfg.fresh_dir(&i.to_string());
            let (sys, oids) = setup(&dir, &initial_ages)?;
            Ok((sys, oids, dir))
        },
        |(sys, _, dir): (SharedSystem, Vec<Oid>, PathBuf)| {
            drop(sys);
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;
    model.oids = oids;

    let client = sys.client(FAMILY);
    let writer = client.writer()?;
    let mut tally = Tally::default();
    let mut created: Vec<TseResult<Oid>> = Vec::with_capacity(BLOCK);
    let mut acks: Vec<TseResult<()>> = Vec::with_capacity(BLOCK);
    let mut values: Vec<TseResult<Value>> = Vec::with_capacity(BLOCK);
    let mut names: Vec<String> = Vec::with_capacity(BLOCK);
    let mut wal_bytes = 0u64;
    let mut wal_prev = sys.wal_len().unwrap_or(0);
    let traced = cfg.trace;
    let telemetry = sys.telemetry();

    let mut reader = None;
    // Counters and histograms describe the measured phase only.
    let phase = run_phase(
        tracer,
        &KINDS,
        (warmup, measured),
        || telemetry.reset(),
        |block, ctx| {
            match block.kind {
                Kind::Create => {
                    reader = None;
                    created.clear();
                    ctx.timed(Kind::Create as usize, BLOCK, |i| {
                        created.push(create(&writer, block.ops[i].idx, block.ops[i].age));
                    });
                    for (got, op) in created.iter().zip(&block.ops) {
                        tally.check(got.is_ok(), || {
                            format!("create of object {}: {got:?}", op.idx)
                        });
                        model.oids.push(*got.as_ref().unwrap_or(&Oid(0)));
                    }
                }
                Kind::Set => {
                    reader = None;
                    acks.clear();
                    names.clear();
                    names.extend(block.ops.iter().map(|op| name_of(op.idx, op.rename)));
                    ctx.timed(Kind::Set as usize, BLOCK, |i| {
                        let op = block.ops[i];
                        let name = Value::Str(std::mem::take(&mut names[i]));
                        acks.push(writer.set(
                            model.oids[op.idx as usize],
                            "Person",
                            &[("age", Value::Int(op.age)), ("name", name)],
                        ));
                    });
                    for (got, op) in acks.iter().zip(&block.ops) {
                        tally.check(got.is_ok(), || format!("set of object {}: {got:?}", op.idx));
                    }
                }
                Kind::Get => {
                    values.clear();
                    // A fresh session per read-back burst: it sees the writes
                    // just acked, and dropping it lets the MVCC GC run.
                    let reader =
                        reader.get_or_insert_with(|| client.session().expect("view is bound"));
                    ctx.timed(Kind::Get as usize, BLOCK, |i| {
                        let oid = model.oids[block.ops[i].idx as usize];
                        values.push(reader.get(oid, "Person", "age"));
                    });
                    for (got, op) in values.iter().zip(&block.ops) {
                        tally.check(got.as_ref().ok() == Some(&Value::Int(op.age)), || {
                            format!("read-back of object {}: {got:?} != {}", op.idx, op.age)
                        });
                    }
                }
            }
            if traced {
                // The WAL shrinks at a checkpoint; only growth is appended bytes.
                let len = sys.wal_len().unwrap_or(0);
                wal_bytes += len.saturating_sub(wal_prev);
                wal_prev = len;
            }
        },
    );
    let snap = telemetry.snapshot();
    drop((reader, writer));

    let t = Instant::now();
    let reclaimed = sys.gc_now();
    let gc_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    sys.checkpoint()?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let disk_bytes = dir_bytes(&dir);

    // Recovery check (not a crash check): drop, reopen, audit every acked
    // object's final state.
    drop(client);
    drop(sys);
    let t = Instant::now();
    let sys = TseSystem::builder(&dir).open()?;
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let reader = sys.client(FAMILY).session()?;
    let mut user_bytes = 0u64;
    for idx in 0..model.oids.len() {
        let (oid, age, name) = (
            model.oids[idx],
            model.age[idx],
            name_of(idx as u32, model.renames[idx]),
        );
        user_bytes += name.len() as u64 + 8;
        let got = reader.get(oid, "Person", "age");
        tally.check(got.as_ref().ok() == Some(&Value::Int(age)), || {
            format!("after reopen, age of object {idx}: {got:?} != {age}")
        });
        let got = reader.get(oid, "Person", "name");
        tally.check(got.as_ref().ok() == Some(&Value::Str(name.clone())), || {
            format!("after reopen, name of object {idx}: {got:?} != {name}")
        });
    }
    drop(reader);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);

    const WRITES: [usize; 2] = [Kind::Create as usize, Kind::Set as usize];
    const READS: [usize; 1] = [Kind::Get as usize];
    let mut out = Outcome {
        setup_s: median(&setup_s),
        ops_per_s: phase.rate(false),
        op_p50_us: phase.latency_ns(&WRITES) / 1e3,
        read_p50_us: phase.latency_ns(&READS) / 1e3,
        ..Outcome::default()
    };
    let autocheckpoints = snap.counter("durable.autocheckpoints");
    tally.check(autocheckpoints >= MIN_AUTOCHECKPOINTS, || {
        format!("the measured phase spanned {autocheckpoints} auto-checkpoints, not {MIN_AUTOCHECKPOINTS}")
    });
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    if cfg.trace {
        let write_ops = (measured.iter().filter(|b| b.kind != Kind::Get).count() * BLOCK) as f64;
        let fsyncs = snap.histograms.get("wal.fsync_ns");
        put(
            &mut out.layers,
            "storage.wal_bytes_per_op",
            wal_bytes as f64 / write_ops,
        );
        put(
            &mut out.layers,
            "storage.wal_fsyncs_per_op",
            fsyncs.map_or(0.0, |h| h.count as f64) / write_ops,
        );
        put(
            &mut out.layers,
            "storage.wal_group_size_mean",
            snap.histograms
                .get("wal.group_size")
                .map_or(0.0, |h| h.mean()),
        );
        put(
            &mut out.layers,
            "storage.fsync_p50_us",
            hist_p50(fsyncs) / 1e3,
        );
        put(
            &mut out.layers,
            "storage.autocheckpoints",
            autocheckpoints as f64,
        );
        put(&mut out.layers, "storage.checkpoint_ms", checkpoint_ms);
        put(
            &mut out.layers,
            "storage.disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes as f64,
        );
        put(
            &mut out.layers,
            "storage.mvcc_versions",
            snap.counter("mvcc.versions") as f64,
        );
        put(
            &mut out.layers,
            "storage.gc_reclaimed",
            (snap.counter("mvcc.gc_reclaimed") + reclaimed) as f64,
        );
        put(&mut out.layers, "storage.gc_ms", gc_ms);
        put(&mut out.layers, "core.recovery_ms", recovery_ms);
        put_client_tails(
            &mut out.layers,
            &phase.pooled(&WRITES),
            &phase.pooled(&READS),
        );
        put_tracing_cost(&mut out.layers, &phase);
    }
    let config = StoreConfig::default();
    out.stamp = vec![
        ("setup_samples_s", JsonValue::Arr(setup_s.iter().map(|s| (*s).into()).collect())),
        ("initial_population_objects", INITIAL_POPULATION.into()),
        ("final_population_objects", model.oids.len().into()),
        ("measured_ops", (measured.len() * BLOCK).into()),
        ("warmup_ops", (warmup.len() * BLOCK).into()),
        ("rounds", ROUNDS.into()),
        ("op_stream_hash", format!("{stream_hash:016x}").into()),
        ("durable_dir_fs", fs_type(dir.parent().unwrap_or(&dir)).into()),
        (
            "flush_policy",
            format!(
                "shipped default: group-commit fsync before ack, auto-checkpoint at {} bytes of WAL",
                config.wal_autocheckpoint_bytes
            )
            .into(),
        ),
        ("autocheckpoints_in_measured_phase", autocheckpoints.into()),
        ("load_threads", 1usize.into()),
        ("loop", "closed".into()),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream() {
        let (a, ma, _, ha) = generate(3, &[1, 2, 2]);
        let (_, mb, _, hb) = generate(3, &[1, 2, 2]);
        let (.., hc) = generate(4, &[1, 2, 2]);
        assert_eq!(ha, hb);
        assert_eq!((ma.age, ma.renames), (mb.age, mb.renames));
        assert_ne!(ha, hc);
        // Every unit holds exactly the 50/40/10 mix, the gets as its tail.
        let (first, rest) = a.split_at(UNIT_BLOCKS);
        for unit in [first].into_iter().chain(rest.chunks(2 * UNIT_BLOCKS)) {
            let count = |k: Kind| unit.iter().filter(|b| b.kind == k).count();
            let scale = unit.len() / UNIT_BLOCKS;
            assert_eq!(
                (count(Kind::Create), count(Kind::Set), count(Kind::Get)),
                (15 * scale, 12 * scale, 3 * scale)
            );
            assert!(unit[unit.len() - 3 * scale..]
                .iter()
                .all(|b| b.kind == Kind::Get));
        }
    }

    #[test]
    fn read_back_blocks_expect_the_latest_write() {
        let (blocks, _, initial_ages, _) = generate(9, &[1, 3, 3]);
        let mut age: std::collections::HashMap<u32, i64> = initial_ages
            .iter()
            .enumerate()
            .map(|(i, a)| (i as u32, *a))
            .collect();
        for block in &blocks {
            for op in &block.ops {
                match block.kind {
                    Kind::Get => assert_eq!(age[&op.idx], op.age, "object {}", op.idx),
                    _ => {
                        age.insert(op.idx, op.age);
                    }
                }
            }
        }
    }
}
