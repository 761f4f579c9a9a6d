//! The outside-in layer stack of a `--trace 1` run: the same
//! `(oid, class, attr)` issued at each public boundary of one small seeded
//! system, from `SliceStore::read_field` up to a `RemoteClient` over
//! loopback, plus the write-path and control-plane boundaries.
//!
//! Every layer reports `*_ns` (median of 64-op blocks), `*_self_ns` (the
//! layer minus the next-lower one, so the self times telescope to
//! `core.client_get_ns` exactly; a wrapper thinner than the noise can come
//! out slightly negative) and `*_allocs` (exact, from the counting
//! allocator). One op per block is also recorded as a span per layer, all
//! sharing an op id, parents pointing at the next-higher layer.
//!
//! The probe is workload-independent: it depends on `--seed` only, so the
//! same stack accompanies every workload's traced numbers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::walcodec::{encode_frame, WalRecord};
use tse_core::{parse_change, SharedSystem, TseClient, TseReader, TseResult, TseSystem, TseWriter};
use tse_object_model::{Oid, Value};
use tse_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use tse_server::{RemoteClient, ServerConfig, TseServer};
use tse_storage::{RecordId, SliceStore, StoreConfig};
use tse_telemetry::Telemetry;

use crate::contract::{put, Config, Layers, Outcome};
use crate::harness::{count_allocs, hist_p50, median, time_block, OneCpu, Tally, Tracer, BLOCK};
use crate::population::{build, define_university, evolve_single, seminar, FAMILY};

const POPULATION: usize = 2_000;
const HISTORY: usize = 4;
/// Blocks per layer pass.
const BLOCKS: usize = 64;
/// Perspectives the sampled reads go through; the attribute is always one
/// of `Person`'s, so its slice lives in `Person`'s segment at every one.
const PERSPECTIVES: [&str; 5] = ["Person", "Student", "Staff", "TA", "Grader"];

/// One sampled read, resolved for every boundary.
struct Sample {
    oid: Oid,
    class: &'static str,
    attr: &'static str,
    expect: Value,
    record: RecordId,
    field: usize,
}

/// What the passes over the samples through one layer measured.
struct Pass {
    ns: f64,
    allocs: f64,
}

/// One boundary of the stack: its span name and the call that issues a
/// sample there, returning whether the answer was right.
type Layer<'a> = (&'static str, &'a mut dyn FnMut(&Sample) -> bool);

/// Repetitions of the timed layer passes; the block samples are pooled.
const REPS: usize = 3;

/// Run every sample through every layer, lowest layer first in `layers`.
/// Each layer gets whole passes of its own (interleaving layers per block
/// lets the first layer warm the cache for the rest and inverts the order),
/// repeated [`REPS`] times round-robin so drift hits every layer alike.
/// Then one exact allocation count per layer, and per block one
/// singly-timed op recorded as a span per layer: top layer first, each the
/// parent of the next-lower.
fn stack_pass(
    tracer: &mut Tracer,
    tally: &mut Tally,
    samples: &[Sample],
    layers: &mut [Layer],
    chained: usize,
) -> Vec<Pass> {
    let mut wrong = 0u64;
    let mut ns = vec![Vec::with_capacity(REPS * BLOCKS); layers.len()];
    for rep in 0..=REPS {
        for (l, (_, call)) in layers.iter_mut().enumerate() {
            for block in samples.chunks_exact(BLOCK) {
                let t = time_block(BLOCK, |i| {
                    wrong += !std::hint::black_box(call(&block[i])) as u64
                });
                if rep > 0 {
                    ns[l].push(t); // repetition 0 is the warm-up
                }
            }
        }
    }
    let mut passes = Vec::with_capacity(layers.len());
    for (l, (_, call)) in layers.iter_mut().enumerate() {
        let ((), allocs) = count_allocs(|| {
            for s in samples {
                wrong += !call(s) as u64;
            }
        });
        passes.push(Pass {
            ns: median(&ns[l]),
            allocs: allocs as f64 / samples.len() as f64,
        });
    }
    for block in samples.chunks_exact(BLOCK) {
        let op = tracer.next_op();
        let mut parent = None;
        for (name, call) in layers[..chained].iter_mut().rev() {
            let start = tracer.now_ns();
            wrong += !call(&block[0]) as u64;
            parent = tracer.record(name, start, tracer.now_ns(), parent, op);
        }
    }
    tally.check(wrong == 0, || {
        format!("{wrong} wrong answers in the layer stack")
    });
    passes
}

/// Median per-op nanoseconds of `f` over [`BLOCKS`] blocks.
fn blocks_ns(mut f: impl FnMut(usize)) -> f64 {
    let ns: Vec<f64> = (0..BLOCKS)
        .map(|b| time_block(BLOCK, |i| f(b * BLOCK + i)))
        .collect();
    median(&ns)
}

/// Pick the samples and resolve each one's slice record below the object
/// model: scan `Person`'s segment and match records to objects by name.
fn samples(
    pop: &crate::population::Population,
    newest: tse_view::ViewId,
    seed: u64,
) -> TseResult<Vec<Sample>> {
    let db = pop.tse.db();
    let person = db.schema().by_name("Person")?;
    let segment = db
        .segment_of(person)
        .expect("Person has a segment once populated");
    let key = |attr: &str| -> TseResult<usize> {
        let cand = db.resolve(person, attr)?;
        Ok(db
            .schema()
            .class(person)?
            .layout_index(cand.key)
            .expect("stored in Person's layout"))
    };
    let (name_field, age_field) = (key("name")?, key("age")?);
    let mut record_of = std::collections::HashMap::new();
    db.store()
        .scan(segment, |rid, fields| {
            if let Value::Str(name) = &fields[name_field] {
                record_of.insert(name.clone(), rid);
            }
        })
        .map_err(tse_object_model::ModelError::Storage)?;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61_7965);
    let members: Vec<Vec<Oid>> = PERSPECTIVES
        .iter()
        .map(|class| pop.tse.extent(newest, class))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(BLOCKS * BLOCK);
    for _ in 0..BLOCKS * BLOCK {
        let p = rng.gen_range(0..PERSPECTIVES.len());
        let oid = members[p][rng.gen_range(0..members[p].len())];
        let idx = pop.model.index_of(oid).expect("population oid");
        let (attr, field) = if rng.gen() {
            ("name", name_field)
        } else {
            ("age", age_field)
        };
        let Value::Str(name) = pop.model.expect("name", idx) else {
            unreachable!("names are strings")
        };
        out.push(Sample {
            oid,
            class: PERSPECTIVES[p],
            attr,
            expect: pop.model.expect(attr, idx).clone(),
            record: record_of[name],
            field,
        });
    }
    Ok(out)
}

/// Run the whole probe and fill the per-layer metrics it owns.
pub fn probe(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) -> TseResult<()> {
    let mut tally = Tally::default();
    let mut layers = Layers::new();
    // Two identical builds: the bottom three boundaries need the bare
    // `TseSystem`, the upper ones the same system wrapped for sharing
    // (`SharedSystem::from_system` consumes it), and interleaving the timed
    // passes needs both alive at once.
    let mut pop = build(cfg.seed, POPULATION)?;
    let newest = evolve_single(&mut pop, HISTORY)?;
    let mut twin = build(cfg.seed, POPULATION)?;
    let v1 = twin.v1;
    evolve_single(&mut twin, HISTORY)?;
    let samples = samples(&pop, newest, cfg.seed)?;
    let db = pop.tse.db();
    let class_ids: std::collections::HashMap<&str, _> = PERSPECTIVES
        .iter()
        .map(|c| -> TseResult<_> { Ok((*c, pop.tse.view(newest)?.lookup(db, c)?)) })
        .collect::<TseResult<_>>()?;
    let sys = SharedSystem::from_system(twin.tse);
    let session = sys.session();
    let client = sys.client(FAMILY);
    let reader = client.session()?;

    // --- read stack and wire: one interleaved pass --------------------------
    // Same placement as `served_mixed`: client and handler on one CPU.
    let placement = OneCpu::pin();
    let mut server = TseServer::start(sys.clone(), "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.addr().to_string();
    let remote = RemoteClient::open(addr.clone(), FAMILY)?;
    let remote_reader = remote.session()?;
    let passes = stack_pass(
        tracer,
        &mut tally,
        &samples,
        &mut [
            ("storage.read_field", &mut |s| {
                db.store().read_field(s.record, s.field).ok().as_ref() == Some(&s.expect)
            }),
            ("object_model.read_attr", &mut |s| {
                db.read_attr(s.oid, class_ids[s.class], s.attr)
                    .ok()
                    .as_ref()
                    == Some(&s.expect)
            }),
            ("core.system_get", &mut |s| {
                pop.tse.get(newest, s.oid, s.class, s.attr).ok().as_ref() == Some(&s.expect)
            }),
            ("core.session_get", &mut |s| {
                session.get(newest, s.oid, s.class, s.attr).ok().as_ref() == Some(&s.expect)
            }),
            ("core.client_get", &mut |s| {
                reader.get(s.oid, s.class, s.attr).ok().as_ref() == Some(&s.expect)
            }),
            ("server.remote_get", &mut |s| {
                remote_reader.get(s.oid, s.class, s.attr).ok().as_ref() == Some(&s.expect)
            }),
            // Not part of the chain: the old view, and the codec alone.
            ("core.session_get_v1", &mut |s| {
                session.get(v1, s.oid, s.class, s.attr).ok().as_ref() == Some(&s.expect)
            }),
            ("server.codec_get", &mut |s| {
                let request = Request::Get {
                    sid: 1,
                    oid: s.oid,
                    class: s.class.into(),
                    attr: s.attr.into(),
                };
                let decoded = decode_request(&encode_request(&request));
                let response = decode_response(&encode_response(&Response::Val(s.expect.clone())));
                matches!(decoded, Ok(Request::Get { oid, .. }) if oid == s.oid)
                    && matches!(&response, Ok(Response::Val(v)) if *v == s.expect)
            }),
        ],
        6,
    );
    let [l_store, l_model, l_system, l_session, l_client, l_remote, l_old, l_codec] = &passes[..]
    else {
        unreachable!("eight layers went in");
    };
    let connects: Vec<f64> = (0..32)
        .map(|_| {
            let t = Instant::now();
            let c = RemoteClient::open(addr.clone(), FAMILY);
            let ns = t.elapsed().as_nanos() as f64;
            tally.check(c.is_ok(), || format!("connect: {:?}", c.as_ref().err()));
            ns
        })
        .collect();
    drop((remote_reader, remote));
    server.drain();
    drop(placement);

    db.reset_slice_hops();
    for s in &samples {
        std::hint::black_box(db.read_attr(s.oid, class_ids[s.class], s.attr)).ok();
    }
    put(
        &mut layers,
        "object_model.slice_hops_per_get",
        db.slicing_stats().slice_hops as f64 / samples.len() as f64,
    );

    // --- other read-side boundaries -----------------------------------------
    put(
        &mut layers,
        "core.session_open_ns",
        blocks_ns(|_| drop(std::hint::black_box(sys.session()))),
    );
    let (class, expr) = (seminar(3), "age >= 30");
    let select_ns: Vec<f64> = (0..8)
        .map(|_| {
            time_block(BLOCK, |_| {
                drop(std::hint::black_box(
                    session.select_where(newest, &class, expr),
                ))
            })
        })
        .collect();
    let (_, select_allocs) = count_allocs(|| drop(session.select_where(newest, &class, expr)));
    let extent_ns = blocks_ns(|_| drop(std::hint::black_box(session.extent(newest, &class))));
    let telemetry = Telemetry::new();
    put(
        &mut layers,
        "telemetry.span_ns",
        blocks_ns(|_| {
            std::hint::black_box(telemetry.span("probe").finish());
        }),
    );

    // --- control plane ------------------------------------------------------
    put(
        &mut layers,
        "core.fork_shared_us",
        blocks_ns(|_| drop(std::hint::black_box(pop.tse.fork_shared()))) / 1e3,
    );
    put(
        &mut layers,
        "core.parse_change_us",
        blocks_ns(|i| {
            let command = format!("add_attribute probe{i}: int = {i} to Student");
            std::hint::black_box(parse_change(&command)).expect("parses");
        }) / 1e3,
    );

    // --- write stack, bottom up ---------------------------------------------
    let store: SliceStore<Value> = SliceStore::new(StoreConfig::default());
    let seg = store.create_segment("probe");
    let mut records = Vec::with_capacity(BLOCKS * BLOCK);
    put(
        &mut layers,
        "storage.insert_ns",
        blocks_ns(|i| {
            records.push(
                store
                    .insert(seg, vec![Value::Str(format!("r{i}")), Value::Int(i as i64)])
                    .expect("insert"),
            );
        }),
    );
    put(
        &mut layers,
        "storage.write_field_ns",
        blocks_ns(|i| {
            store
                .write_field(records[i], 1, Value::Int(-(i as i64)))
                .expect("write_field");
        }),
    );
    let staff = db.schema().by_name("Staff")?;
    let mut created = Vec::with_capacity(BLOCKS * BLOCK);
    put(
        &mut layers,
        "object_model.create_object_ns",
        blocks_ns(|i| {
            let values = [
                ("name", Value::Str(format!("c{i}"))),
                ("age", Value::Int(i as i64)),
            ];
            created.push(db.create_object(staff, &values).expect("create_object"));
        }),
    );
    put(
        &mut layers,
        "object_model.write_attr_ns",
        blocks_ns(|i| {
            db.write_attr(created[i], staff, "age", Value::Int(-(i as i64)))
                .expect("write_attr");
        }),
    );
    put(
        &mut layers,
        "core.walcodec_encode_ns",
        blocks_ns(|i| {
            let record = WalRecord::Create {
                class: staff,
                oid: created[i],
                values: vec![
                    ("name".into(), Value::Str(format!("c{i}"))),
                    ("age".into(), Value::Int(i as i64)),
                ],
            };
            std::hint::black_box(encode_frame(&record));
        }),
    );
    // The same create through a writer, on two fresh systems that differ
    // only in having a directory: unlogged against durable.
    const CREATES: usize = 16 * BLOCK;
    let writer_create_ns = |sys: &SharedSystem| -> TseResult<f64> {
        let client = sys.client(FAMILY);
        define_university(&client)?;
        let writer = client.writer()?;
        sys.telemetry().reset();
        let ns: Vec<f64> = (0..CREATES / BLOCK)
            .map(|b| {
                time_block(BLOCK, |i| {
                    let values = [
                        ("name", Value::Str(format!("d{b}_{i}"))),
                        ("age", Value::Int(i as i64)),
                    ];
                    writer
                        .create("Staff", &values)
                        .expect("create through a writer");
                })
            })
            .collect();
        Ok(median(&ns))
    };
    let unlogged_ns = writer_create_ns(&SharedSystem::new())?;
    let dir = cfg.fresh_dir("probe");
    let durable = TseSystem::builder(&dir).open()?;
    let wal_before = durable.wal_len().unwrap_or(0);
    let durable_ns = writer_create_ns(&durable)?;
    // The device side of those creates, from the system's own counters, then
    // one checkpoint and one reopen. (`durable_write` reports the same
    // metrics over its own, much longer run.)
    let snap = durable.telemetry().snapshot();
    let fsyncs = snap.histograms.get("wal.fsync_ns");
    put(
        &mut layers,
        "storage.wal_bytes_per_op",
        (durable.wal_len().unwrap_or(0) - wal_before) as f64 / CREATES as f64,
    );
    put(
        &mut layers,
        "storage.wal_fsyncs_per_op",
        fsyncs.map_or(0.0, |h| h.count as f64) / CREATES as f64,
    );
    put(
        &mut layers,
        "storage.wal_group_size_mean",
        snap.histograms
            .get("wal.group_size")
            .map_or(0.0, |h| h.mean()),
    );
    put(&mut layers, "storage.fsync_p50_us", hist_p50(fsyncs) / 1e3);
    let t = Instant::now();
    durable.checkpoint()?;
    put(
        &mut layers,
        "storage.checkpoint_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    drop(durable);
    let t = Instant::now();
    let reopened = TseSystem::builder(&dir).open()?;
    put(
        &mut layers,
        "core.recovery_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    // --- report -------------------------------------------------------------
    put(&mut layers, "storage.read_field_ns", l_store.ns);
    put(&mut layers, "storage.read_field_allocs", l_store.allocs);
    put(&mut layers, "object_model.read_attr_ns", l_model.ns);
    put(
        &mut layers,
        "object_model.read_attr_self_ns",
        l_model.ns - l_store.ns,
    );
    put(&mut layers, "object_model.read_attr_allocs", l_model.allocs);
    put(&mut layers, "core.system_get_ns", l_system.ns);
    put(
        &mut layers,
        "core.system_get_self_ns",
        l_system.ns - l_model.ns,
    );
    put(&mut layers, "core.system_get_allocs", l_system.allocs);
    put(&mut layers, "core.session_get_ns", l_session.ns);
    put(
        &mut layers,
        "core.session_get_self_ns",
        l_session.ns - l_system.ns,
    );
    put(&mut layers, "core.session_get_allocs", l_session.allocs);
    put(&mut layers, "core.client_get_ns", l_client.ns);
    put(
        &mut layers,
        "core.client_get_self_ns",
        l_client.ns - l_session.ns,
    );
    put(&mut layers, "core.client_get_allocs", l_client.allocs);
    put(&mut layers, "core.get_old_view_ns", l_old.ns);
    put(&mut layers, "core.get_new_view_ns", l_session.ns);
    put(
        &mut layers,
        "core.cross_version_ratio",
        l_session.ns / l_old.ns,
    );
    put(
        &mut layers,
        "core.select_where_us",
        median(&select_ns) / 1e3,
    );
    put(
        &mut layers,
        "core.select_where_allocs",
        select_allocs as f64,
    );
    put(&mut layers, "core.extent_us", extent_ns / 1e3);
    put(&mut layers, "server.codec_get_ns", l_codec.ns);
    put(&mut layers, "server.codec_get_allocs", l_codec.allocs);
    put(&mut layers, "server.remote_get_us", l_remote.ns / 1e3);
    put(
        &mut layers,
        "server.wire_self_us",
        (l_remote.ns - l_client.ns - l_codec.ns) / 1e3,
    );
    put(&mut layers, "server.connect_us", median(&connects) / 1e3);
    put(
        &mut layers,
        "core.writer_create_unlogged_us",
        unlogged_ns / 1e3,
    );
    put(
        &mut layers,
        "core.writer_create_durable_us",
        durable_ns / 1e3,
    );
    put(
        &mut layers,
        "core.durable_over_unlogged",
        durable_ns / unlogged_ns,
    );

    out.attempted += tally.attempted;
    out.failed += tally.failed;
    // The workload's own values win where both report a metric.
    for (name, value) in layers {
        out.layers.entry(name).or_insert(value);
    }
    Ok(())
}
