//! Workload 3 — `served_mixed`: 90% get / 10% set through one
//! `RemoteClient` connection to an in-process `TseServer` over loopback, on
//! a 2 000-object population that fits the buffer pool. Phase A is a closed
//! loop (throughput, read latency); phase B is an **open loop** at one
//! frozen rate, latency measured from the intended send time.
//!
//! Why: frame codec, socket round-trip, `dispatch`, admission and dedup
//! dominate (about 12 µs against under 2 µs of data-plane work). A
//! `local_read` gain should barely move it; a server-side gain should move
//! only it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{TseClient, TseCode, TseError, TseReader, TseResult, TseWriter};
use tse_object_model::Value;
use tse_server::{RemoteClient, RemoteReader, ServerConfig, TseServer};

use tse_telemetry::JsonValue;

use crate::contract::{
    check_load_threads, put, put_client_tails, put_tracing_cost, Config, Outcome,
};
use crate::harness::{
    hist_p50, median, open_loop, quantile_of, repeat_setup, run_phase, Clock, OneCpu, OpenLoopRun,
    StreamHash, Tally, Tracer, WallClock, ROUNDS, WARMUP_SHARE,
};
use crate::population::{
    build, evolve_shared, first_and_newest, pick_hot_cold, visible_pairs, Evolved, Model, Pair,
    FAMILY,
};

/// Round-robin objects: sized so a set-up takes over a second while the
/// records (with the seminars) still fit the 2 MiB buffer pool.
pub const POPULATION: usize = 18_000;
pub const HISTORY: usize = 16;
/// The reader is a short-lived batch handle: it is reopened this often, so
/// it sees the sets before it and its MVCC pin never holds GC back for long.
const READER_BATCH: usize = 1024;
/// Frozen closed-loop size, in reader batches.
const CLOSED_BATCHES: usize = 650;
/// Frozen open-loop rate, about 40% of the closed-loop capacity at the
/// commit that defined the benchmark, and how many requests phase B sends
/// at it. Both phases together take about `run_seconds`.
pub const OPEN_RATE: u64 = 30_000;
const OPEN_OPS: usize = 180_000;
/// The rate ladder of the traced run and its latency limit.
const LADDER: [u64; 5] = [10_000, 20_000, 30_000, 40_000, 50_000];
const LADDER_P99_LIMIT_NS: f64 = 1e6;
const LADDER_STEP_SECONDS: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
enum Op {
    Get { pair: u32, idx: u32 },
    Set { idx: u32, age: i64 },
}

fn generate(seed: u64, n: usize, pairs: &[Pair], people: &[u32]) -> (Vec<Op>, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7372_7664);
    let mut hash = StreamHash::default();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        // Units of ten hold exactly nine gets and one set, at a seeded slot.
        let set_at = rng.gen_range(0..10);
        for slot in 0..10 {
            let op = if slot == set_at {
                Op::Set {
                    idx: pick_hot_cold(&mut rng, people),
                    age: rng.gen_range(18..68),
                }
            } else {
                let pair = rng.gen_range(0..pairs.len());
                Op::Get {
                    pair: pair as u32,
                    idx: pick_hot_cold(&mut rng, &pairs[pair].members),
                }
            };
            match op {
                Op::Get { pair, idx } => hash.feed((pair as u64) << 32 | idx as u64),
                Op::Set { idx, age } => hash.feed(1 << 63 | (idx as u64) << 32 | age as u64),
            }
            ops.push(op);
        }
    }
    ops.truncate(n);
    (ops, hash.0)
}

/// A served system: the evolved population behind a loopback server, with
/// one remote client bound to the newest view version.
struct Served {
    ev: Evolved,
    server: TseServer,
    client: RemoteClient,
}

fn setup(seed: u64) -> TseResult<Served> {
    let ev = evolve_shared(build(seed, POPULATION)?, HISTORY)?;
    let server = TseServer::start(ev.sys.clone(), "127.0.0.1:0", ServerConfig::default())?;
    let client = RemoteClient::open(server.addr().to_string(), FAMILY)?;
    Ok(Served { ev, server, client })
}

impl Served {
    fn shut_down(self) {
        let Served {
            ev,
            mut server,
            client,
        } = self;
        drop(client);
        server.drain();
        drop(ev);
    }
}

/// What the server answered.
enum Reply {
    Value(TseResult<Value>),
    Ack(TseResult<()>),
}

const GET: usize = 0;
const SET: usize = 1;
/// Closed-loop span names by sample kind.
const CLOSED_KINDS: [&str; 2] = ["client.remote_get", "client.remote_set"];
const OPEN: usize = 0;
const LAG: usize = 1;
/// Open-loop sample kinds: latency from the intended send time, and how
/// late the scheduler sent.
const OPEN_KINDS: [&str; 2] = ["client.open_request", "bench.sched_lag"];

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Get { .. } => GET,
            Op::Set { .. } => SET,
        }
    }
}

/// The client side of the workload: issues ops, keeps the expectation of
/// what the (batch-pinned) reader can see, and checks every answer.
struct Driver<'a> {
    client: &'a RemoteClient,
    writer: <RemoteClient as TseClient>::Writer,
    reader: Option<RemoteReader>,
    model: &'a Model,
    pairs: &'a [Pair],
    /// Ages as the current reader sees them, and the sets acked since it
    /// was opened (visible only to the next reader).
    visible_age: Vec<i64>,
    pending: Vec<(u32, i64)>,
    since_reopen: usize,
    tally: Tally,
}

impl<'a> Driver<'a> {
    fn new(served: &'a Served, pairs: &'a [Pair]) -> TseResult<Self> {
        let model = &served.ev.model;
        let visible_age = (0..model.len() as u32)
            .map(|i| match model.expect("age", i) {
                Value::Int(a) => *a,
                other => unreachable!("age is an int, got {other:?}"),
            })
            .collect();
        Ok(Driver {
            client: &served.client,
            writer: served.client.writer()?,
            reader: Some(served.client.session()?),
            model,
            pairs,
            visible_age,
            pending: Vec::new(),
            since_reopen: 0,
            tally: Tally::default(),
        })
    }

    /// Reopen the reader when its batch is used up (untimed housekeeping).
    fn reopen_if_due(&mut self) {
        if self.since_reopen == READER_BATCH {
            self.reader = None; // close before reopening: one handle at a time
            self.reader = self.client.session().ok();
            for (idx, age) in self.pending.drain(..) {
                self.visible_age[idx as usize] = age;
            }
            self.since_reopen = 0;
        }
        self.since_reopen += 1;
    }

    /// One wire request: the part that is timed.
    fn call(&self, op: Op) -> Reply {
        match op {
            Op::Get { pair, idx } => {
                let pair = &self.pairs[pair as usize];
                let oid = self.model.oids[idx as usize];
                Reply::Value(match &self.reader {
                    Some(r) => r.get(oid, &pair.class, &pair.attr),
                    None => Err(TseError::new(TseCode::Internal, "no reader")),
                })
            }
            Op::Set { idx, age } => Reply::Ack(self.writer.set(
                self.model.oids[idx as usize],
                "Person",
                &[("age", Value::Int(age))],
            )),
        }
    }

    /// Check the answer against the expectation.
    fn check(&mut self, op: Op, reply: Reply) {
        match (op, reply) {
            (Op::Get { pair, idx }, Reply::Value(got)) => {
                let pair = &self.pairs[pair as usize];
                let age;
                let want = if pair.attr == "age" {
                    age = Value::Int(self.visible_age[idx as usize]);
                    &age
                } else {
                    self.model.expect(&pair.attr, idx)
                };
                self.tally.check(got.as_ref().ok() == Some(want), || {
                    format!(
                        "remote get {}.{} of object {idx}: {got:?} != {want:?}",
                        pair.class, pair.attr
                    )
                });
            }
            (Op::Set { idx, age }, Reply::Ack(got)) => {
                self.tally.check(got.is_ok(), || {
                    format!("remote set of object {idx}: {got:?}")
                });
                self.pending.push((idx, age));
            }
            _ => unreachable!("a get is answered with a value, a set with an ack"),
        }
    }

    /// One open-loop run of `ops` at `rate` requests per second.
    fn open_loop(&mut self, ops: &[Op], rate: u64) -> OpenLoopRun {
        let mut clock = WallClock::start();
        open_loop(&mut clock, ops.len(), 1_000_000_000 / rate, |clock, i| {
            self.reopen_if_due();
            let reply = self.call(ops[i]);
            let done = clock.now_ns();
            self.check(ops[i], reply);
            done
        })
    }
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> TseResult<Outcome> {
    check_load_threads(1);
    // Client, accept and handler threads all inherit the one-CPU mask.
    let placement = OneCpu::pin();
    let (served, setup_s) = repeat_setup(|_| setup(cfg.seed), Served::shut_down)?;

    let probe = served.ev.sys.session();
    let (_, newest) = first_and_newest(&probe)?;
    let pairs = visible_pairs(&probe, newest, &served.ev.model)?;
    let people = pairs
        .iter()
        .find(|p| p.class == "Person")
        .expect("Person is in the view")
        .members
        .clone();
    drop(probe);

    let closed_n = CLOSED_BATCHES * READER_BATCH;
    let warm_n = (CLOSED_BATCHES as f64 * WARMUP_SHARE) as usize * READER_BATCH;
    let open_warm_n = (OPEN_OPS as f64 * WARMUP_SHARE) as usize;
    let ladder_n: usize = if cfg.trace {
        LADDER
            .iter()
            .map(|r| (*r as f64 * LADDER_STEP_SECONDS) as usize)
            .sum()
    } else {
        0
    };
    let (ops, stream_hash) = generate(
        cfg.seed,
        warm_n + closed_n + open_warm_n + OPEN_OPS + ladder_n,
        &pairs,
        &people,
    );
    let (closed_ops, rest) = ops.split_at(warm_n + closed_n);
    let (open_ops, mut ladder_ops) = rest.split_at(open_warm_n + OPEN_OPS);

    let mut driver = Driver::new(&served, &pairs)?;
    let telemetry = served.ev.sys.telemetry();
    let store_before = served.ev.sys.session().stats();

    // Phase A — closed loop: every request timed singly.
    let batches: Vec<&[Op]> = closed_ops.chunks(READER_BATCH).collect();
    let closed = run_phase(
        tracer,
        &CLOSED_KINDS,
        batches.split_at(warm_n / READER_BATCH),
        || telemetry.reset(),
        |batch, ctx| {
            for op in batch.iter() {
                driver.reopen_if_due();
                let mut reply = None;
                ctx.timed(op.kind(), 1, |_| reply = Some(driver.call(*op)));
                driver.check(*op, reply.expect("the request was issued"));
            }
        },
    );
    let request_ns_p50 = hist_p50(telemetry.snapshot().histograms.get("server.request_ns"));

    // Phase B — open loop at the frozen rate: one scheduler run per round,
    // latency from the intended send time.
    let chunks: Vec<&[Op]> = std::iter::once(&open_ops[..open_warm_n])
        .chain(open_ops[open_warm_n..].chunks(OPEN_OPS / ROUNDS))
        .collect();
    let open = run_phase(
        tracer,
        &OPEN_KINDS,
        chunks.split_at(1),
        || (),
        |chunk, ctx| {
            let run = driver.open_loop(chunk, OPEN_RATE);
            run.latency_ns.iter().for_each(|ns| ctx.sample(OPEN, *ns));
            run.sched_lag_ns.iter().for_each(|ns| ctx.sample(LAG, *ns));
            ctx.busy(chunk.len() as u64, run.elapsed_ns as f64);
        },
    );
    // Most requests that were due but unsent at any completion.
    let backlog_max = open.pooled(&[OPEN]).iter().fold(0.0, |a: f64, b| a.max(*b)) as u64
        / (1_000_000_000 / OPEN_RATE);

    let mut out = Outcome {
        setup_s: median(&setup_s),
        ops_per_s: closed.rate(false),
        op_p50_us: open.latency_ns(&[OPEN]) / 1e3,
        read_p50_us: closed.latency_ns(&[GET]) / 1e3,
        ..Outcome::default()
    };
    if cfg.trace {
        // The ladder: the highest rate whose p99 (from intended send time)
        // stays under the limit with the backlog drained at the end.
        let mut max_rate = 0;
        for rate in LADDER {
            let (step, rest) = ladder_ops.split_at((rate as f64 * LADDER_STEP_SECONDS) as usize);
            ladder_ops = rest;
            let run = driver.open_loop(step, rate);
            // "Drained": the last twentieth of the step is not still queueing.
            let drained =
                median(&run.latency_ns[run.latency_ns.len() * 19 / 20..]) < LADDER_P99_LIMIT_NS;
            if quantile_of(&run.latency_ns, 0.99) < LADDER_P99_LIMIT_NS && drained {
                max_rate = rate;
            }
        }
        put(&mut out.layers, "server.request_ns_p50", request_ns_p50);
        put(
            &mut out.layers,
            "served.open_p99_us",
            quantile_of(&open.pooled(&[OPEN]), 0.99) / 1e3,
        );
        put(
            &mut out.layers,
            "served.sched_lag_p99_us",
            quantile_of(&open.pooled(&[LAG]), 0.99) / 1e3,
        );
        put(&mut out.layers, "served.backlog_max", backlog_max as f64);
        put(&mut out.layers, "served.max_rate_p99_1ms", max_rate as f64);
        put_client_tails(
            &mut out.layers,
            &closed.pooled(&[GET, SET]),
            &closed.pooled(&[GET]),
        );
        put_tracing_cost(&mut out.layers, &closed);
        let session = served.ev.sys.session();
        put(
            &mut out.layers,
            "storage.page_hit_rate",
            session.stats().delta_since(&store_before).hit_ratio(),
        );
        put(
            &mut out.layers,
            "object_model.schema_classes_final",
            session.meta().schema().class_count() as f64,
        );
    }
    out.attempted = driver.tally.attempted;
    out.failed = driver.tally.failed;
    out.stamp = vec![
        (
            "setup_samples_s",
            JsonValue::Arr(setup_s.iter().map(|s| (*s).into()).collect()),
        ),
        ("population_objects", served.ev.model.len().into()),
        ("view_versions", (1 + HISTORY).into()),
        (
            "link",
            "loopback (127.0.0.1), one connection, in-process server".into(),
        ),
        (
            "placement",
            match placement.cpu {
                Some(cpu) => format!("client and handler threads pinned to cpu {cpu}"),
                None => "unpinned (sched_setaffinity refused)".to_string(),
            }
            .into(),
        ),
        ("closed_loop_ops", closed_n.into()),
        ("warmup_ops", warm_n.into()),
        ("rounds", ROUNDS.into()),
        ("open_loop_ops", OPEN_OPS.into()),
        ("open_loop_rate_per_s", OPEN_RATE.into()),
        ("open_loop_achieved_per_s", open.rate(false).into()),
        ("open_loop_backlog_max", backlog_max.into()),
        ("op_stream_hash", format!("{stream_hash:016x}").into()),
        ("load_threads", 1usize.into()),
        ("server_threads", 1usize.into()),
    ];
    drop(driver);
    served.shut_down();
    drop(placement);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream_and_exact_mix() {
        let pairs = vec![Pair {
            class: "Person".into(),
            attr: "age".into(),
            members: (0..100).collect(),
        }];
        let people: Vec<u32> = (0..100).collect();
        let (a, ha) = generate(5, 1000, &pairs, &people);
        let (_, hb) = generate(5, 1000, &pairs, &people);
        let (_, hc) = generate(6, 1000, &pairs, &people);
        assert_eq!(ha, hb);
        assert_ne!(ha, hc);
        assert_eq!(
            a.iter().filter(|op| matches!(op, Op::Set { .. })).count(),
            100
        );
    }
}
