//! End-to-end service-layer tests: multi-user tenancy over the wire,
//! pinned reads across a live evolution, graceful drain with in-flight
//! requests, admission control, error-code parity between the in-process
//! and remote transports, and exactly-once writes across network faults
//! and live evolutions (audited by the `tse-workload` history checker).

mod netfault;

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tse_core::{
    SharedSystem, TseClient, TseCode, TseReader, TseSystem, TseWriter,
};
use tse_object_model::{PendingProp, PropertyDef, Value, ValueType};
use tse_server::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use tse_server::{ClientConfig, RemoteClient, ServerConfig, TseServer};
use tse_storage::{FailAction, RetryPolicy};
use tse_telemetry::Telemetry;
use tse_workload::history::{seeded, History, Op, Outcome};
use tse_workload::trace::{generate_and_apply_trace, TraceMix};

use netfault::{ChaosConfig, NetFault};

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_server_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(sys: SharedSystem, config: ServerConfig) -> TseServer {
    TseServer::start(sys, "127.0.0.1:0", config).unwrap()
}

/// `Person`'s properties, spelled once for the server, the history's model
/// and the scratch system a schema-change trace is generated on. `tag`
/// names an object in a [`History`].
fn person_props() -> Vec<PendingProp> {
    vec![
        PropertyDef::stored("name", ValueType::Str, Value::Null),
        PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
        PropertyDef::stored("tag", ValueType::Int, Value::Int(-1)),
    ]
}

/// Define the Person schema and the client's "VS" view.
fn seed_schema<C: TseClient>(admin: &C) {
    admin.define_class("Person", &[], person_props()).unwrap();
    assert_eq!(admin.create_view(&["Person"]).unwrap(), 1);
}

/// A history of tagged `Person` writes in family "VS".
fn person_history() -> History {
    History::new("VS", "Person", "tag", |sys| seed_schema(&sys.client("VS")))
}

/// The create of a tagged `Person`.
fn person(tag: i64, name: String, age: i64) -> Op {
    Op::Create { tag, values: vec![("name".into(), name.into()), ("age".into(), Value::Int(age))] }
}

#[test]
fn users_are_tenants_bound_to_their_view_families() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let addr = server.addr().to_string();

    // "VS" is both a user identity and the view family it owns.
    let admin = RemoteClient::open(addr.clone(), "VS").unwrap();
    seed_schema(&admin);
    let w = admin.writer().unwrap();
    let ann = w.create("Person", &[("name", "ann".into()), ("age", Value::Int(30))]).unwrap();

    // A second user starts in their own (empty) family and re-binds.
    let mut legacy = RemoteClient::open(addr.clone(), "legacy").unwrap();
    assert_eq!(legacy.versions().unwrap(), 0);
    assert_eq!(legacy.bind("VS").unwrap(), 1);
    let r = legacy.session().unwrap();
    assert_eq!(r.get(ann, "Person", "name").unwrap(), Value::Str("ann".into()));
    assert_eq!(r.select_where("Person", "age == 30").unwrap(), vec![ann]);
    assert!(admin.describe().unwrap().contains("version 1"));

    // The admin evolves; only the admin's binding moves to v2.
    let summary = admin.evolve("add_attribute rank: int = 5 to Person").unwrap();
    assert_eq!(summary.version, 2);
    let modern = admin.session().unwrap();
    assert_eq!(modern.view_version(), 2);
    assert_eq!(modern.get(ann, "Person", "rank").unwrap(), Value::Int(5));

    let still_v1 = legacy.session().unwrap();
    assert_eq!(still_v1.view_version(), 1);
    let err = still_v1.get(ann, "Person", "rank").unwrap_err();
    assert_eq!(err.code(), TseCode::NotFound);

    drop((r, modern, still_v1, w, admin, legacy));
    server.drain();
}

#[test]
fn pinned_reader_survives_evolution_until_it_completes() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let addr = server.addr().to_string();
    let admin = RemoteClient::open(addr.clone(), "VS").unwrap();
    seed_schema(&admin);
    let w = admin.writer().unwrap();
    for i in 0..5 {
        w.create("Person", &[("name", format!("p{i}").into()), ("age", Value::Int(i))])
            .unwrap();
    }

    // Reader opened (and epoch-pinned) before the evolution.
    let mut legacy = RemoteClient::open(addr, "reader").unwrap();
    legacy.bind("VS").unwrap();
    let mut pinned = legacy.session().unwrap();
    assert_eq!(pinned.extent("Person").unwrap().len(), 5);

    admin.evolve("add_attribute rank: int = 1 to Person").unwrap();
    w.create("Person", &[("name", "post".into()), ("age", Value::Int(99))]).unwrap();

    // The evolution did not sever the connection, and the pinned handle
    // keeps its pre-swap view and data epoch: the post-evolve object and
    // the new attribute are both invisible.
    assert_eq!(pinned.extent("Person").unwrap().len(), 5, "pinned reader must not see churn");
    let some = pinned.extent("Person").unwrap()[0];
    assert_eq!(pinned.get(some, "Person", "rank").unwrap_err().code(), TseCode::NotFound);

    // refresh() advances the data epoch, never the bound view version.
    pinned.refresh().unwrap();
    assert_eq!(pinned.extent("Person").unwrap().len(), 6);
    assert_eq!(pinned.view_version(), 1);

    drop((pinned, w, admin, legacy));
    server.drain();
}

#[test]
fn drain_finishes_in_flight_requests_and_refuses_new_connections() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let addr = server.addr().to_string();
    let admin = RemoteClient::open(addr.clone(), "VS").unwrap();
    seed_schema(&admin);
    let w = admin.writer().unwrap();
    for i in 0..50 {
        w.create("Person", &[("name", format!("p{i}").into())]).unwrap();
    }

    // A loop of sequential extents races the drain. Every call must either
    // return the complete, correct extent or a clean connection error —
    // a short or corrupt response would decode as Protocol garbage.
    let stop = Arc::new(AtomicBool::new(false));
    let stop_reader = Arc::clone(&stop);
    let reader_addr = addr.clone();
    let reads = std::thread::spawn(move || {
        let mut rc = RemoteClient::open(reader_addr, "looper").unwrap();
        rc.bind("VS").unwrap();
        let session = rc.session().unwrap();
        let mut complete = 0u32;
        while !stop_reader.load(Ordering::SeqCst) {
            match session.extent("Person") {
                Ok(oids) => {
                    assert_eq!(oids.len(), 50, "drained mid-response: torn extent");
                    complete += 1;
                }
                Err(e) => {
                    // Connection closed by drain — must be a transport
                    // error, never a mis-framed payload.
                    assert_eq!(e.code(), TseCode::Io, "unexpected failure: {e}");
                    break;
                }
            }
        }
        complete
    });
    // Let the loop get going, then drain underneath it.
    while server.active_connections() < 2 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.drain();
    stop.store(true, Ordering::SeqCst);
    let complete = reads.join().unwrap();
    assert!(complete > 0, "no request completed before the drain");

    // Post-drain connections are refused outright.
    assert!(RemoteClient::open(addr, "late").is_err());
}

#[test]
fn admission_cap_returns_typed_retry() {
    let config =
        ServerConfig { max_connections: 1, retry_after_ms: 42, ..ServerConfig::default() };
    let mut server = start(SharedSystem::new(), config);
    let addr = server.addr().to_string();

    let held = RemoteClient::open(addr.clone(), "one").unwrap();
    held.ping().unwrap();

    let err = RemoteClient::open(addr.clone(), "two").err().expect("cap must refuse");
    assert_eq!(err.code(), TseCode::Unavailable);
    assert_eq!(err.retry_after_ms(), 42);

    // The slot frees once the first client leaves.
    drop(held);
    while server.active_connections() > 0 {
        std::thread::yield_now();
    }
    let ok = RemoteClient::open(addr, "two").unwrap();
    ok.ping().unwrap();
    drop(ok);
    server.drain();
}

#[test]
fn requests_before_hello_are_rejected() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &encode_request(&Request::OpenReader)).unwrap();
    let frame = read_frame(&mut raw).unwrap().unwrap();
    match decode_response(&frame).unwrap() {
        Response::Err { code, .. } => {
            assert_eq!(TseCode::from_u16(code), TseCode::FailedPrecondition)
        }
        other => panic!("expected Err, got {other:?}"),
    }
    drop(raw);
    server.drain();
}

#[test]
fn client_rides_out_repeated_severs_with_exactly_once_writes() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let addr = server.addr().to_string();
    let admin = RemoteClient::open(addr.clone(), "VS").unwrap();
    seed_schema(&admin);

    // Every proxied connection is severed shortly after it starts talking,
    // so the client must redial, re-Hello, re-bind, and re-open its
    // handles over and over — while each acked write applies exactly once.
    let chaos = ChaosConfig {
        seed: 7,
        sever_one_in: 1,
        black_hole_one_in: 0,
        fragment_one_in: 0,
        max_delay_ms: 0,
        trigger_window_bytes: 512,
    };
    let proxy = NetFault::start(addr.clone(), chaos).unwrap();
    let telemetry = tse_telemetry::Telemetry::new();
    let config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 16,
            base_backoff_ns: 1_000_000,
            max_backoff_ns: 10_000_000,
        },
        read_timeout_ms: 2_000,
        connect_timeout_ms: 1_000,
        telemetry: Some(telemetry.clone()),
        ..ClientConfig::default()
    };
    let mut hammer =
        RemoteClient::open_with(proxy.addr().to_string(), "hammer", config).unwrap();
    hammer.bind("VS").unwrap();
    let writer = hammer.writer().unwrap();
    let mut reader = hammer.session().unwrap();
    let mut history = person_history();
    for i in 0..15 {
        let op = person(i as i64, format!("h{i}"), 0);
        op.write(&writer, &reader, "Person", "tag").unwrap();
        history.record(op, reader.view_version(), Outcome::Acked);
        // Interleave reads so handle re-establishment is exercised on
        // both the reader and the writer slot. A refresh advances the
        // pinned data epoch, so every acked create so far must be
        // visible — exactly once each, even when the ack was retried.
        reader.refresh().unwrap();
        assert_eq!(reader.extent("Person").unwrap().len(), i + 1);
    }
    drop((reader, writer, hammer));
    let stats = proxy.stop();
    assert!(stats.severed > 0, "the proxy never severed: test proved nothing");
    assert!(telemetry.counter("client.reconnects") > 0, "no reconnect happened");

    // Audit through a clean direct connection.
    history.check(&admin).unwrap();

    drop(admin);
    server.drain();
}

/// Requests per chaos connection, schema changes replayed meanwhile, and
/// the first chaos tag (connection `c` owns `CHAOS_TAGS * (c + 1) ..`).
const REQUESTS: usize = 200;
const EVOLVES: usize = 8;
const CHAOS_TAGS: i64 = 1_000_000;

#[test]
fn chaos_load_across_live_evolves_applies_every_acked_write_exactly_once() {
    seeded(
        "-p tse-server --test server -- chaos_load_across_live_evolves",
        &[9],
        run_chaos_load,
    );
}

/// Four connections read and write through a seeded `netfault` proxy
/// (severs, black holes, delays, byte-level fragmentation) while an admin,
/// over a direct connection, replays a Sjøberg-shaped schema-change trace
/// from `tse-workload`. Afterwards the history checker audits the store
/// through a clean direct connection: no acked write lost, none applied
/// twice. The shared journal must pass the gate, which also fails on a
/// dedup-window overflow.
fn run_chaos_load(seed: u64) {
    let sys = SharedSystem::new();
    let mut server = start(sys.clone(), ServerConfig::default());
    let addr = server.addr().to_string();
    let admin = RemoteClient::open(addr.clone(), "VS").unwrap();
    seed_schema(&admin);
    let mut history = person_history();
    for tag in 0..100i64 {
        history.issue(&admin, person(tag, format!("p{tag}"), tag % 90)).expect("seed object");
    }

    // The changes to replay, generated against a scratch system with the
    // identical schema so every command is valid in order.
    let commands: Vec<String> = {
        let mut scratch = TseSystem::new();
        scratch.define_base_class("Person", &[], person_props()).unwrap();
        scratch.create_view("VS", &["Person"]).unwrap();
        let trace =
            generate_and_apply_trace(&mut scratch, "VS", EVOLVES, &TraceMix::default(), seed)
                .unwrap();
        trace.changes.iter().map(|c| c.render().unwrap()).collect()
    };

    let proxy = NetFault::start(addr.clone(), ChaosConfig::seeded(seed)).unwrap();
    let proxy_addr = proxy.addr().to_string();
    // The evolver holds the history across each evolve, so a write issued
    // through a version is always recorded after the evolve that made it.
    let history = Mutex::new(history);
    std::thread::scope(|scope| {
        for c in 0..4 {
            let (proxy_addr, history) = (&proxy_addr, &history);
            let telemetry = sys.telemetry();
            scope.spawn(move || chaos_connection(proxy_addr, c, telemetry, history));
        }
        for command in &commands {
            let evolve = Op::Evolve { command: command.clone() };
            history.lock().unwrap().issue(&admin, evolve).expect("evolve during chaos");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    });
    let stats = proxy.stop();
    assert_eq!(admin.versions().unwrap(), 1 + commands.len() as u32, "every change applies");
    assert!(stats.severed > 0, "the schedule never severed anything: the run proved nothing");
    assert!(sys.telemetry().counter("client.reconnects") > 0, "no client reconnected");

    let mut verifier = RemoteClient::open(addr, "chaos-verify").unwrap();
    verifier.bind("VS").unwrap();
    let history = history.into_inner().unwrap().check(&verifier).unwrap();
    let acked = history.entries().iter().filter(|e| e.op.tag() >= Some(CHAOS_TAGS)).count();
    assert!(acked > 0, "no write was ever acked under chaos");

    drop((verifier, admin));
    server.drain();
    let telemetry = sys.telemetry();
    telemetry.journal_metrics_snapshot();
    let report = tse_inspect::Journal::parse(&telemetry.journal_lines()).unwrap().check();
    assert!(report.problems.is_empty(), "the chaos journal fails the gate: {:?}", report.problems);
}

/// One connection: a read-heavy mix with every fourth op a create, driven
/// through the fault proxy with a generous retry budget and a short read
/// timeout (so black holes cost half a second, not ten). Every create is
/// recorded: acked, or unknown when the call failed.
fn chaos_connection(proxy: &str, index: usize, telemetry: Telemetry, history: &Mutex<History>) {
    let config = ClientConfig {
        // A connection may draw several hostile fault plans in a row
        // before a clean one; severs are cheap, so retry hard.
        retry: RetryPolicy {
            max_retries: 16,
            base_backoff_ns: 2_000_000,
            max_backoff_ns: 50_000_000,
        },
        read_timeout_ms: 500,
        connect_timeout_ms: 1_000,
        telemetry: Some(telemetry),
        ..ClientConfig::default()
    };
    let user = format!("chaos{index}");
    let mut client = RemoteClient::open_with(proxy.to_string(), &user, config).unwrap();
    client.bind("VS").unwrap();
    let mut reader = client.session().unwrap();
    let writer = client.writer().unwrap();
    for i in 0..REQUESTS {
        if i % 4 == 3 {
            let op = person(CHAOS_TAGS * (index as i64 + 1) + i as i64, format!("{user}-{i}"), 41);
            let acked = op.write(&writer, &reader, "Person", "tag").is_ok();
            let outcome = if acked { Outcome::Acked } else { Outcome::Unknown };
            // After a reconnect both handles re-pin to the family's current
            // version; the reader's is the one the client can see.
            history.lock().unwrap().record(op, reader.view_version(), outcome);
        } else if i % 8 == 1 {
            let _ = reader.extent("Person");
        } else {
            let _ = reader.select_where("Person", "age >= 60");
        }
        if i % 64 == 63 {
            let _ = reader.refresh();
        }
    }
}

#[test]
fn duplicate_idempotency_ids_replay_the_cached_response() {
    let mut server = start(SharedSystem::new(), ServerConfig::default());
    let admin = RemoteClient::open(server.addr().to_string(), "VS").unwrap();
    seed_schema(&admin);

    // Raw wire session as the same user: Hello hands out the nonce
    // idempotency ids must be minted from.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &encode_request(&Request::Hello { user: "VS".into() })).unwrap();
    let nonce = match decode_response(&read_frame(&mut raw).unwrap().unwrap()).unwrap() {
        Response::Welcome { nonce, .. } => nonce,
        other => panic!("expected Welcome, got {other:?}"),
    };
    assert!(nonce > 0);
    write_frame(&mut raw, &encode_request(&Request::OpenWriter)).unwrap();
    let wid = match decode_response(&read_frame(&mut raw).unwrap().unwrap()).unwrap() {
        Response::WriterOpened { wid } => wid,
        other => panic!("expected WriterOpened, got {other:?}"),
    };

    // The same logical write sent twice — a retry after a lost ack.
    let create = Request::Create {
        wid,
        idem: (nonce << 32) | 1,
        class: "Person".into(),
        values: vec![("name".into(), Value::Str("dup".into()))],
    };
    write_frame(&mut raw, &encode_request(&create)).unwrap();
    let first = read_frame(&mut raw).unwrap().unwrap();
    write_frame(&mut raw, &encode_request(&create)).unwrap();
    let second = read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(first, second, "the dedup window must replay the identical response");
    assert!(!matches!(decode_response(&first).unwrap(), Response::Err { .. }));

    // Exactly one object exists, despite two acknowledged sends.
    let audit = admin.session().unwrap();
    assert_eq!(audit.extent("Person").unwrap().len(), 1);

    drop((audit, raw, admin));
    server.drain();
}

#[test]
fn idle_connections_are_reaped_after_the_deadline() {
    let config = ServerConfig { idle_timeout_ms: 60, ..ServerConfig::default() };
    let mut server = start(SharedSystem::new(), config);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &encode_request(&Request::Hello { user: "quiet".into() })).unwrap();
    let frame = read_frame(&mut raw).unwrap().unwrap();
    assert!(matches!(decode_response(&frame).unwrap(), Response::Welcome { .. }));

    // Go silent past the idle budget: the server must hang up cleanly.
    std::thread::sleep(std::time::Duration::from_millis(400));
    assert!(
        read_frame(&mut raw).unwrap().is_none(),
        "idle connection survived its deadline"
    );
    while server.active_connections() > 0 {
        std::thread::yield_now();
    }
    drop(raw);
    server.drain();
}

#[test]
fn retry_policy_none_restores_fail_fast_connects() {
    // A dead address: bind a port, then drop the listener so nothing
    // answers there.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let config = ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() };
    let started = std::time::Instant::now();
    let err = RemoteClient::open_with(dead, "nobody", config).err().expect("dead addr");
    assert_eq!(err.code(), TseCode::Io);
    // One attempt, no backoff: failure is immediate, not a retry storm.
    assert!(started.elapsed() < std::time::Duration::from_secs(2));

    // Under an admission cap the typed Retry hint also surfaces verbatim
    // instead of being retried into a different error.
    let cap = ServerConfig { max_connections: 1, retry_after_ms: 7, ..ServerConfig::default() };
    let mut server = start(SharedSystem::new(), cap);
    let held = RemoteClient::open(server.addr().to_string(), "one").unwrap();
    let fast = ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() };
    let err = RemoteClient::open_with(server.addr().to_string(), "two", fast)
        .err()
        .expect("cap must refuse");
    assert_eq!(err.code(), TseCode::Unavailable);
    assert_eq!(err.retry_after_ms(), 7);
    drop(held);
    while server.active_connections() > 0 {
        std::thread::yield_now();
    }
    server.drain();
}

#[test]
fn degraded_writes_surface_the_same_code_locally_and_remotely() {
    let dir = tmpdir("degraded_parity");
    let sys = TseSystem::builder(&dir).open().unwrap();
    let mut server = start(sys.clone(), ServerConfig::default());
    let addr = server.addr().to_string();

    let admin = RemoteClient::open(addr, "VS").unwrap();
    seed_schema(&admin);
    let remote_writer = admin.writer().unwrap();
    remote_writer.create("Person", &[("name", "pre".into())]).unwrap();

    // Fill the disk: the next durable write fails once and the system
    // degrades to read-only.
    let fp = sys.failpoints();
    fp.set_virtual_clock(true);
    fp.arm("durable.wal_append", 1, FailAction::DiskFull);
    let tripped = remote_writer.create("Person", &[("name", "trip".into())]).unwrap_err();
    assert_eq!(tripped.code(), TseCode::Io);

    // In-process rejection through the same client API…
    let mut local = sys.client("local");
    local.bind("VS").unwrap();
    let local_err =
        local.writer().unwrap().create("Person", &[("name", "l".into())]).unwrap_err();
    assert_eq!(local_err.code(), TseCode::Unavailable);
    assert!(local_err.retry_after_ms() >= 1);

    // …and over the wire: the identical numeric code and backoff hint.
    let remote_err =
        remote_writer.create("Person", &[("name", "r".into())]).unwrap_err();
    assert_eq!(remote_err.code(), local_err.code());
    assert_eq!(remote_err.retry_after_ms(), local_err.retry_after_ms());

    // Health is visible through both transports too.
    let remote_health = admin.health().unwrap();
    let local_health = local.health().unwrap();
    assert_eq!(remote_health, local_health);
    assert_eq!(remote_health.name(), "degraded");

    drop((remote_writer, admin, local));
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
