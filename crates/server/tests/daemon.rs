//! The `tse-server` binary end to end: start on a durable directory with a
//! journal sink, serve a session that spans an evolution, stop over the
//! wire, and come back with everything that was acknowledged.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use tse_core::{TseClient, TseReader, TseWriter};
use tse_object_model::{Oid, PropertyDef, Value, ValueType};
use tse_server::RemoteClient;

/// A unique, empty scratch directory per test.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_daemon_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon; killed on drop so a failed assertion leaves no process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start the binary on `dir` at an ephemeral port and wait for its
    /// `listening on <addr>` line.
    fn start(dir: &Path, journal: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tse-server"))
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .arg("--journal")
            .arg(journal)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn tse-server");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).expect("daemon stdout");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    /// Wait for the process to exit by itself.
    fn wait(mut self, deadline: Duration) -> ExitStatus {
        let until = Instant::now() + deadline;
        loop {
            if let Some(status) = self.child.try_wait().expect("wait for tse-server") {
                return status;
            }
            assert!(Instant::now() < until, "tse-server still running {deadline:?} after Shutdown");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One daemon lifetime on `dir`: define a class and a view, write through
/// v1, evolve, write and read through v2 while a second client stays on v1,
/// then `Shutdown` over the wire. Returns the three objects created.
fn serve_once(dir: &Path, journal: &Path) -> Vec<Oid> {
    let daemon = Daemon::start(dir, journal);
    let admin = RemoteClient::open(daemon.addr.clone(), "VS").unwrap();
    admin
        .define_class(
            "Person",
            &[],
            vec![
                PropertyDef::stored("name", ValueType::Str, Value::Null),
                PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
            ],
        )
        .unwrap();
    assert_eq!(admin.create_view(&["Person"]).unwrap(), 1);
    let w1 = admin.writer().unwrap();
    let ann = w1.create("Person", &[("name", "ann".into()), ("age", Value::Int(30))]).unwrap();
    let bob = w1.create("Person", &[("name", "bob".into()), ("age", Value::Int(70))]).unwrap();
    let r1 = admin.session().unwrap();
    assert_eq!(r1.get(ann, "Person", "name").unwrap(), Value::Str("ann".into()));
    assert_eq!(r1.select_where("Person", "age >= 60").unwrap(), vec![bob]);

    // A second client binds v1 before the family evolves and stays there.
    let mut legacy = RemoteClient::open(daemon.addr.clone(), "legacy").unwrap();
    assert_eq!(legacy.bind("VS").unwrap(), 1);

    assert_eq!(admin.evolve("add_attribute rank: int = 5 to Person").unwrap().version, 2);
    let w2 = admin.writer().unwrap();
    let cyd = w2
        .create("Person", &[("name", "cyd".into()), ("age", Value::Int(41)), ("rank", Value::Int(9))])
        .unwrap();
    w2.set(ann, "Person", &[("rank", Value::Int(7))]).unwrap();
    let r2 = admin.session().unwrap();
    assert_eq!(r2.view_version(), 2);
    assert_eq!(r2.get(ann, "Person", "rank").unwrap(), Value::Int(7));

    // v1 reads what v2 wrote, and still has no `rank`.
    let old = legacy.session().unwrap();
    assert_eq!(old.view_version(), 1);
    assert_eq!(old.get(cyd, "Person", "name").unwrap(), Value::Str("cyd".into()));
    assert_eq!(old.extent("Person").unwrap().len(), 3);
    assert!(old.get(cyd, "Person", "rank").is_err());

    admin.shutdown_server().unwrap();
    drop((r1, r2, old, w1, w2, admin, legacy));
    let status = daemon.wait(Duration::from_secs(20));
    assert!(status.success(), "tse-server exited with {status}");
    vec![ann, bob, cyd]
}

#[test]
fn the_daemon_serves_journals_and_stops_over_the_wire() {
    let dir = tmpdir("serve");
    let journal = dir.join("server.jsonl");
    serve_once(&dir.join("db"), &journal);
    let journal = std::fs::read_to_string(&journal).unwrap();
    assert!(journal.lines().any(|l| l.contains("metrics.snapshot")), "no final snapshot in the journal");
}

#[test]
fn what_the_daemon_acknowledged_is_there_after_a_restart() {
    let dir = tmpdir("restart");
    let oids = serve_once(&dir.join("db"), &dir.join("first.jsonl"));

    let daemon = Daemon::start(&dir.join("db"), &dir.join("second.jsonl"));
    let client = RemoteClient::open(daemon.addr.clone(), "VS").unwrap();
    assert_eq!(client.versions().unwrap(), 2);
    let reader = client.session().unwrap();
    assert_eq!(reader.view_version(), 2);
    let mut extent = reader.extent("Person").unwrap();
    extent.sort();
    assert_eq!(extent, oids);
    let (ann, cyd) = (oids[0], oids[2]);
    assert_eq!(reader.get(ann, "Person", "rank").unwrap(), Value::Int(7));
    assert_eq!(reader.get(cyd, "Person", "name").unwrap(), Value::Str("cyd".into()));
    assert_eq!(reader.select_where("Person", "rank == 9").unwrap(), vec![cyd]);

    client.shutdown_server().unwrap();
    drop((reader, client));
    assert!(daemon.wait(Duration::from_secs(20)).success());
}
