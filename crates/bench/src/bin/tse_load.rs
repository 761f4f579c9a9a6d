//! `tse-load` — drive a self-hosted `tse-server` through a seeded
//! `tse-netfault` proxy while the schema evolves, then audit every acked
//! write for exactly-once application.
//!
//! ```text
//! cargo run --release -p tse-bench --bin tse-load -- \
//!     [--requests N] [--evolves N] [--seed N] [--journal PATH]
//! ```
//!
//! - `--requests`: requests per connection (default 400).
//! - `--evolves`: schema changes replayed while the load runs (default 12).
//! - `--seed`: seeds both the schema-change trace and the proxy's fault
//!   schedule (default 9).
//! - `--journal`: stream the shared telemetry journal (server *and*
//!   client counters — `client.{reconnects,retries,dedup_hits}`,
//!   `server.{idle_reaped,dedup_window,dedup_hits}`) to this JSONL file,
//!   ending with a metrics snapshot so `tse-inspect --check` can gate it.
//!
//! Four connections read and write through the proxy (severs, black holes,
//! delays, byte-level fragmentation) while an admin, over a direct
//! connection, replays the Sjøberg-shaped schema-change trace from
//! `tse-workload`; afterwards a direct reader compares the store with the
//! acked-write oracle. What the served path costs is the repo benchmark's
//! `served_mixed` workload; this binary only checks what that workload
//! cannot — no lost and no doubled write on a hostile network across live
//! evolutions. Emits `BENCH_server.json`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tse_bench::write_bench_json;
use tse_core::{SharedSystem, TseClient, TseReader, TseSystem, TseWriter};
use tse_netfault::{ChaosConfig, NetFault};
use tse_object_model::{PendingProp, PropertyDef, Value, ValueType};
use tse_server::{ClientConfig, RemoteClient, ServerConfig, TseServer};
use tse_storage::RetryPolicy;
use tse_telemetry::{JsonValue, Telemetry};
use tse_workload::trace::{generate_and_apply_trace, TraceMix};

struct Args {
    requests: usize,
    evolves: usize,
    seed: u64,
    journal: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { requests: 400, evolves: 12, seed: 9, journal: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let num = |name: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{name} must be a number"))
        };
        match flag.as_str() {
            "--requests" => args.requests = num("--requests", value("--requests")?)? as usize,
            "--evolves" => args.evolves = num("--evolves", value("--evolves")?)? as usize,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--journal" => args.journal = Some(PathBuf::from(value("--journal")?)),
            "--help" | "-h" => {
                println!(
                    "usage: tse-load [--requests N] [--evolves N] [--seed N] [--journal PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

const FAMILY: &str = "VS";
const CONNECTIONS: usize = 4;

/// `Person`'s properties, spelled once: the server is seeded with them over
/// the wire and the scratch system the trace is generated on locally.
fn person_props() -> Vec<PendingProp> {
    vec![
        PropertyDef::stored("name", ValueType::Str, Value::Null),
        PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
    ]
}

/// Seed `Person`, the view family and 100 objects through the wire.
fn seed_remote(admin: &RemoteClient) {
    admin.define_class("Person", &[], person_props()).expect("define Person");
    admin.create_view(&["Person"]).expect("create view");
    let w = admin.writer().expect("writer");
    for i in 0..100i64 {
        w.create("Person", &[("name", format!("p{i}").into()), ("age", Value::Int(i % 90))])
            .expect("seed object");
    }
}

/// Render the schema changes to replay: generate the trace against a
/// scratch in-memory system seeded with the identical schema, so every
/// command is valid when replayed in order against the server's family.
fn evolve_commands(n: usize, seed: u64) -> Vec<String> {
    let mut scratch = TseSystem::new();
    scratch.define_base_class("Person", &[], person_props()).expect("scratch class");
    scratch.create_view(FAMILY, &["Person"]).expect("scratch view");
    let trace = generate_and_apply_trace(&mut scratch, FAMILY, n, &TraceMix::default(), seed)
        .expect("trace generation");
    trace.changes.iter().map(|c| c.render().expect("renderable change")).collect()
}

/// One connection: a read-heavy mix with every fourth op a create, driven
/// through the fault proxy with a generous retry budget and a short read
/// timeout (so black holes cost half a second, not ten). Returns the names
/// of every *acked* create — the oracle the post-run audit replays against
/// the real store.
fn chaos_connection(
    proxy_addr: &str,
    index: usize,
    requests: usize,
    telemetry: Telemetry,
    failed_ops: &AtomicU64,
) -> Vec<String> {
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
    let mut client =
        RemoteClient::open_with(proxy_addr.to_string(), &user, config).expect("chaos connect");
    client.bind(FAMILY).expect("chaos bind");
    let mut reader = client.session().expect("chaos session");
    let writer = client.writer().expect("chaos writer");
    let mut acked = Vec::with_capacity(requests / 4 + 1);
    for i in 0..requests {
        if i % 4 == 3 {
            let name = format!("{user}-{i}");
            match writer
                .create("Person", &[("name", name.clone().into()), ("age", Value::Int(41))])
            {
                Ok(_) => acked.push(name),
                // An un-acked write may or may not have applied; the
                // audit only demands it did not apply twice.
                Err(_) => {
                    failed_ops.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            let op = if i % 8 == 1 {
                reader.extent("Person").map(|_| ())
            } else {
                reader.select_where("Person", "age >= 60").map(|_| ())
            };
            if op.is_err() {
                failed_ops.fetch_add(1, Ordering::Relaxed);
            }
        }
        if i % 64 == 63 {
            let _ = reader.refresh();
        }
    }
    acked
}

/// The run: the workload goes through a seeded `tse-netfault` proxy
/// (severs, black holes, delays, fragmentation) while the admin keeps
/// evolving the family over a *direct* connection. Afterwards a direct
/// reader audits the store against the acked-write oracle: every acked
/// name present exactly once, and no chaos-minted name duplicated.
fn run_chaos(
    sys: &SharedSystem,
    direct_addr: &str,
    admin: &RemoteClient,
    args: &Args,
) -> JsonValue {
    let proxy = NetFault::start(direct_addr.to_string(), ChaosConfig::seeded(args.seed))
        .expect("start netfault proxy");
    let proxy_addr = proxy.addr().to_string();
    let commands = evolve_commands(args.evolves, args.seed);

    let failed_ops = AtomicU64::new(0);
    let started = Instant::now();
    let (acked, evolves_applied) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let proxy_addr = proxy_addr.clone();
                let telemetry = sys.telemetry();
                let failed_ops = &failed_ops;
                scope.spawn(move || {
                    chaos_connection(&proxy_addr, c, args.requests, telemetry, failed_ops)
                })
            })
            .collect();
        let evolver = scope.spawn(|| {
            let mut applied = 0u64;
            for cmd in &commands {
                admin.evolve(cmd).expect("evolve during chaos");
                applied += 1;
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            applied
        });
        let acked: Vec<String> =
            handles.into_iter().flat_map(|h| h.join().expect("chaos thread")).collect();
        (acked, evolver.join().expect("evolver thread"))
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let stats = proxy.stop();
    assert_eq!(evolves_applied, commands.len() as u64, "every generated change must apply");
    assert_eq!(admin.versions().expect("versions"), 1 + commands.len() as u32);

    // The audit reads through a clean direct connection at the latest
    // view version. Seeded attributes are never dropped by the generated
    // trace, so `name` is readable at every version.
    let mut verifier =
        RemoteClient::open(direct_addr.to_string(), "chaos-verify").expect("verifier connect");
    verifier.bind(FAMILY).expect("verifier bind");
    let reader = verifier.session().expect("verifier session");
    let mut counts: HashMap<String, u32> = HashMap::new();
    for oid in reader.extent("Person").expect("verify extent") {
        if let Value::Str(name) = reader.get(oid, "Person", "name").expect("verify get") {
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    for name in &acked {
        assert_eq!(
            counts.get(name).copied().unwrap_or(0),
            1,
            "acked write {name:?} must be applied exactly once"
        );
    }
    let duplicated: Vec<&String> = counts
        .iter()
        .filter(|(name, &n)| name.starts_with("chaos") && n > 1)
        .map(|(name, _)| name)
        .collect();
    assert!(duplicated.is_empty(), "writes applied more than once: {duplicated:?}");

    println!(
        "chaos   conns={CONNECTIONS}  acked={}  failed={}  evolves={evolves_applied}  \
         proxied={}  severed={}  black_holed={}  exactly-once verified",
        acked.len(),
        failed_ops.load(Ordering::Relaxed),
        stats.connections,
        stats.severed,
        stats.black_holed,
    );

    JsonValue::obj(vec![
        ("seed", JsonValue::U64(args.seed)),
        ("connections", JsonValue::U64(CONNECTIONS as u64)),
        ("elapsed_ns", JsonValue::U64(elapsed_ns)),
        ("acked_writes", JsonValue::U64(acked.len() as u64)),
        ("failed_ops", JsonValue::U64(failed_ops.load(Ordering::Relaxed))),
        ("evolves_applied", JsonValue::U64(evolves_applied)),
        ("exactly_once_verified", JsonValue::Bool(true)),
        (
            "proxy",
            JsonValue::obj(vec![
                ("proxied_connections", JsonValue::U64(stats.connections)),
                ("severed", JsonValue::U64(stats.severed)),
                ("black_holed", JsonValue::U64(stats.black_holed)),
                ("fragmented", JsonValue::U64(stats.fragmented)),
                ("forwarded_bytes", JsonValue::U64(stats.forwarded_bytes)),
            ]),
        ),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tse-load: {msg}");
            std::process::exit(2);
        }
    };

    let sys = SharedSystem::new();
    if let Some(journal) = &args.journal {
        if let Err(e) = sys.telemetry().attach_sink(journal) {
            eprintln!("tse-load: journal sink {} failed: {e}", journal.display());
            std::process::exit(1);
        }
    }
    let mut server = TseServer::start(sys.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("self-hosted server");
    let addr = server.addr().to_string();

    let admin = RemoteClient::open(addr.clone(), FAMILY).expect("admin connect");
    seed_remote(&admin);
    let chaos = run_chaos(&sys, &addr, &admin, &args);

    let report = JsonValue::obj(vec![
        ("bench", JsonValue::Str("server_load".to_string())),
        ("transport", JsonValue::Str("tcp_loopback".to_string())),
        ("requests_per_connection", JsonValue::U64(args.requests as u64)),
        ("chaos", chaos),
    ]);
    match write_bench_json("server", &report) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("tse-load: writing BENCH_server.json failed: {e}");
            std::process::exit(1);
        }
    }

    drop(admin);
    server.drain();
    // Embed the final metrics snapshot (client and server counters) so an
    // attached journal passes the `tse-inspect --check` forensics gate.
    sys.telemetry().journal_metrics_snapshot();
}
