//! Workload 1 — `local_read`: one closed-loop thread reading a 50 000-object
//! university through an in-memory `SharedSystem`, half the gets through a
//! reader pinned at view v1 and half through v17.
//!
//! Why: view name resolution, `Database::read_attr` slice routing, the
//! `SliceStore` version chain and per-op telemetry do nearly all the work;
//! WAL, wire and classifier do none. Access plans and cached predicates
//! must show here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{LocalReader, TseClient, TseReader, TseResult};
use tse_object_model::{Oid, Value};
use tse_storage::StoreConfig;

use tse_telemetry::JsonValue;

use crate::contract::{
    check_load_threads, put, put_client_tails, put_tracing_cost, Config, Outcome,
};
use crate::harness::{
    median, repeat_setup, run_phase, StreamHash, Tally, Tracer, BLOCK, ROUNDS, WARMUP_SHARE,
};
use crate::population::{
    build, evolve_shared, first_and_newest, pick_hot_cold, seminar, shuffle, visible_pairs,
    Evolved, Pair, SEMINARS, SEMINAR_SIZE,
};

/// Round-robin university objects (the seminars come on top).
pub const POPULATION: usize = 50_000;
/// Evolution steps: objects created under v1 are read through v17.
pub const HISTORY: usize = 16;
/// The mix, as blocks per unit of 100: 90% get / 8% select_where / 2% extent.
const UNIT: [(Kind, usize); 3] = [(Kind::Get, 90), (Kind::Select, 8), (Kind::Extent, 2)];
/// Frozen size of the measured phase: units of 100 blocks (6 400 ops), sized
/// once so the phase takes about `run_seconds` at the commit that defined
/// the benchmark.
const MEASURED_UNITS: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Get,
    Select,
    Extent,
}

/// Span names by sample kind; gets are kept apart by reader.
const KINDS: [&str; 4] = [
    "client.get_v1",
    "client.get_newest",
    "client.select_where",
    "client.extent",
];
const GET_V1: usize = 0;
const GET_NEWEST: usize = 1;
const SELECT: usize = 2;
const EXTENT: usize = 3;

/// One block of [`BLOCK`] same-kind ops through one reader (0 = v1, 1 = v17).
struct Block {
    kind: Kind,
    reader: usize,
    /// Get: `(pair, object index)`. Select: `(query, _)`. Extent: `(seminar, _)`.
    ops: Vec<(u32, u32)>,
}

/// A pre-rendered `select_where` with its expected cardinality.
struct Query {
    class: String,
    expr: String,
    expected: usize,
}

fn generate(seed: u64, units: usize, pairs: &[Vec<Pair>; 2], queries: usize) -> (Vec<Block>, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c72_6561);
    let mut hash = StreamHash::default();
    let mut blocks = Vec::with_capacity(units * 100);
    for _ in 0..units {
        // Every unit holds exactly the mix, alternating readers, in a seeded
        // order: the composition (and so the cost) does not vary with the seed.
        let mut unit: Vec<(Kind, usize)> = UNIT
            .iter()
            .flat_map(|(kind, n)| (0..*n).map(move |i| (*kind, i % 2)))
            .collect();
        shuffle(&mut rng, &mut unit);
        for (kind, reader) in unit {
            let ops: Vec<(u32, u32)> = (0..BLOCK)
                .map(|_| match kind {
                    Kind::Get => {
                        let p = rng.gen_range(0..pairs[reader].len());
                        (p as u32, pick_hot_cold(&mut rng, &pairs[reader][p].members))
                    }
                    Kind::Select => (rng.gen_range(0..queries) as u32, 0),
                    Kind::Extent => (rng.gen_range(0..SEMINARS) as u32, 0),
                })
                .collect();
            hash.feed(kind as u64 * 2 + reader as u64);
            for (a, b) in &ops {
                hash.feed((*a as u64) << 32 | *b as u64);
            }
            blocks.push(Block { kind, reader, ops });
        }
    }
    (blocks, hash.0)
}

/// Every seminar × age threshold, with the cardinality the model predicts.
fn queries(ev: &Evolved) -> Vec<Query> {
    let n = ev.model.len();
    let first_seminar = n - SEMINARS * SEMINAR_SIZE;
    let mut out = Vec::new();
    for k in 0..SEMINARS {
        let members = first_seminar + k * SEMINAR_SIZE..first_seminar + (k + 1) * SEMINAR_SIZE;
        for threshold in (20..68).step_by(4) {
            let expected = members
                .clone()
                .filter(|i| matches!(ev.model.expect("age", *i as u32), Value::Int(a) if *a >= threshold))
                .count();
            out.push(Query {
                class: seminar(k),
                expr: format!("age >= {threshold}"),
                expected,
            });
        }
    }
    out
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> TseResult<Outcome> {
    check_load_threads(1);
    let (ev, setup_s) = repeat_setup(
        |_| evolve_shared(build(cfg.seed, POPULATION)?, HISTORY),
        drop,
    )?;

    let probe = ev.sys.session();
    let (v1, newest) = first_and_newest(&probe)?;
    let pairs = [
        visible_pairs(&probe, v1, &ev.model)?,
        visible_pairs(&probe, newest, &ev.model)?,
    ];
    let queries = queries(&ev);
    let warm_units = (MEASURED_UNITS as f64 * WARMUP_SHARE) as usize;
    let (blocks, stream_hash) =
        generate(cfg.seed, warm_units + MEASURED_UNITS, &pairs, queries.len());
    let (warmup, measured) = blocks.split_at(warm_units * 100);

    let readers: [LocalReader; 2] = [ev.legacy.session()?, ev.admin.session()?];
    let mut tally = Tally::default();
    tally.check(readers[0].view_version() == 1, || {
        "legacy reader is not at v1".into()
    });
    tally.check(readers[1].view_version() == 1 + HISTORY as u32, || {
        "admin reader is not at v17".into()
    });
    // Cardinality of the root extent: every object the population created.
    let people = readers[0].extent("Person")?.len();
    tally.check(people == ev.model.len(), || {
        format!("Person extent {people} != {}", ev.model.len())
    });

    let seminars: Vec<String> = (0..SEMINARS).map(seminar).collect();
    let before = probe.stats();
    let mut values: Vec<TseResult<Value>> = Vec::with_capacity(BLOCK);
    let mut sets: Vec<TseResult<Vec<Oid>>> = Vec::with_capacity(BLOCK);
    let phase = run_phase(
        tracer,
        &KINDS,
        (warmup, measured),
        || (),
        |block, ctx| {
            let reader = &readers[block.reader];
            match block.kind {
                Kind::Get => {
                    let pairs = &pairs[block.reader];
                    values.clear();
                    ctx.timed([GET_V1, GET_NEWEST][block.reader], BLOCK, |i| {
                        let (p, idx) = block.ops[i];
                        let pair = &pairs[p as usize];
                        values.push(reader.get(
                            ev.model.oids[idx as usize],
                            &pair.class,
                            &pair.attr,
                        ));
                    });
                    for (got, (p, idx)) in values.iter().zip(&block.ops) {
                        let attr = &pairs[*p as usize].attr;
                        let want = ev.model.expect(attr, *idx);
                        tally.check(got.as_ref().ok() == Some(want), || {
                            format!(
                                "get {attr} of object {idx} via v{}: {got:?} != {want:?}",
                                reader.view_version()
                            )
                        });
                    }
                }
                Kind::Select => {
                    sets.clear();
                    ctx.timed(SELECT, BLOCK, |i| {
                        let q = &queries[block.ops[i].0 as usize];
                        sets.push(reader.select_where(&q.class, &q.expr));
                    });
                    for (got, (q, _)) in sets.iter().zip(&block.ops) {
                        let q = &queries[*q as usize];
                        tally.check(got.as_ref().map(Vec::len).ok() == Some(q.expected), || {
                            format!(
                                "select {} where {}: {:?} != {}",
                                q.class,
                                q.expr,
                                got.as_ref().map(Vec::len),
                                q.expected
                            )
                        });
                    }
                }
                Kind::Extent => {
                    sets.clear();
                    ctx.timed(EXTENT, BLOCK, |i| {
                        sets.push(reader.extent(&seminars[block.ops[i].0 as usize]));
                    });
                    for got in &sets {
                        tally.check(
                            got.as_ref().map(Vec::len).ok() == Some(SEMINAR_SIZE),
                            || format!("seminar extent: {:?}", got.as_ref().map(Vec::len)),
                        );
                    }
                }
            }
        },
    );
    let after = probe.stats();

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        setup_s: median(&setup_s),
        ops_per_s: phase.rate(false),
        op_p50_us: phase.latency_ns(&[GET_V1, GET_NEWEST]) / 1e3,
        read_p50_us: phase.latency_ns(&[GET_NEWEST]) / 1e3,
        ..Outcome::default()
    };
    if cfg.trace {
        let delta = after.delta_since(&before);
        put(&mut out.layers, "storage.page_hit_rate", delta.hit_ratio());
        put_client_tails(
            &mut out.layers,
            &phase.pooled(&[GET_V1, GET_NEWEST]),
            &phase.pooled(&[GET_NEWEST]),
        );
        put_tracing_cost(&mut out.layers, &phase);
        let classes = probe.meta().schema().class_count();
        put(
            &mut out.layers,
            "object_model.schema_classes_final",
            classes as f64,
        );
    }
    let config = StoreConfig::default();
    out.stamp = vec![
        (
            "setup_samples_s",
            JsonValue::Arr(setup_s.iter().map(|s| (*s).into()).collect()),
        ),
        ("population_objects", ev.model.len().into()),
        ("view_versions", (1 + HISTORY).into()),
        ("measured_ops", (measured.len() * BLOCK).into()),
        ("warmup_ops", (warmup.len() * BLOCK).into()),
        ("rounds", ROUNDS.into()),
        ("op_stream_hash", format!("{stream_hash:016x}").into()),
        ("store_bytes", probe.store_bytes().into()),
        (
            "buffer_pool_bytes",
            (config.buffer_pages * config.page_size * config.write_stripes).into(),
        ),
        ("load_threads", 1usize.into()),
        ("loop", "closed".into()),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> [Vec<Pair>; 2] {
        let p = |class: &str| Pair {
            class: class.into(),
            attr: "age".into(),
            members: (0..500).collect(),
        };
        [
            vec![p("Person"), p("Student")],
            vec![p("Person"), p("Student"), p("TA")],
        ]
    }

    #[test]
    fn same_seed_same_op_stream() {
        let (a, ha) = generate(7, 2, &pairs(), 10);
        let (b, hb) = generate(7, 2, &pairs(), 10);
        let (_, hc) = generate(8, 2, &pairs(), 10);
        assert_eq!(ha, hb);
        assert_ne!(ha, hc, "the seed must change the stream");
        assert_eq!(a.len(), b.len());
        // Every unit holds exactly the 90/8/2 mix whatever the seed.
        for unit in a.chunks(100) {
            let count = |k: Kind| unit.iter().filter(|b| b.kind == k).count();
            assert_eq!(
                (count(Kind::Get), count(Kind::Select), count(Kind::Extent)),
                (90, 8, 2)
            );
            assert_eq!(unit.iter().filter(|b| b.reader == 0).count(), 50);
        }
    }
}
