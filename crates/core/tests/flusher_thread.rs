//! The WAL's flusher thread lives exactly as long as the log: it starts on
//! a durable system's first evolve and is joined when the system drops. A
//! test binary of its own, so no other test's threads move the count.
#![cfg(target_os = "linux")]

use tse_core::SharedSystem;
use tse_object_model::{PropertyDef, Value, ValueType};

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn fifty_durable_systems_that_evolve_once_leave_no_thread_behind() {
    let dir = std::env::temp_dir().join(format!("tse_flusher_thread_{}", std::process::id()));
    let start = threads();
    for round in 0..50 {
        let _ = std::fs::remove_dir_all(&dir);
        let sys = SharedSystem::open(&dir).unwrap();
        sys.define_base_class(
            "Person",
            &[],
            vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
        )
        .unwrap();
        sys.create_view("VS", &["Person"]).unwrap();
        sys.evolve_cmd("VS", "add_attribute age: int = 0 to Person").unwrap();
        assert_eq!(threads(), start + 1, "round {round}: one flusher while the system lives");
        drop(sys);
        assert_eq!(threads(), start, "round {round}: the dropped system left a thread behind");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
