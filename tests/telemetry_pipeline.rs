//! End-to-end telemetry integration: the evolution pipeline's spans,
//! counters, and phase timings, observed through the public facade.

use tse::core::{SharedSystem, TseClient, TseReader, TseWriter};
use tse::object_model::Value;
use tse::telemetry::json::validate_lines;
use tse::workload::university::build_university;

/// A fixed mixed workload through the client: one evolution, then each
/// data-plane operation once.
fn run_workload() -> SharedSystem {
    let (tse, _) = build_university().unwrap();
    let sys = SharedSystem::from_system(tse);
    let client = sys.client("VS1");
    client.create_view(&["Person", "Student", "TA", "Staff"]).unwrap();
    client.evolve("add_attribute register: bool = false to Student").unwrap();
    let w = client.writer().unwrap();
    let o = w.create("Student", &[("register", Value::Bool(true))]).unwrap();
    w.set(o, "Student", &[("age", Value::Int(20))]).unwrap();
    w.add_to(&[o], "Staff").unwrap();
    w.remove_from(&[o], "Staff").unwrap();
    let r = client.session().unwrap();
    assert_eq!(r.get(o, "Student", "register").unwrap(), Value::Bool(true));
    assert_eq!(r.invoke(o, "Student", "age").unwrap(), Value::Int(20));
    assert_eq!(r.extent("Student").unwrap(), vec![o]);
    assert_eq!(r.select_where("Student", "register == true").unwrap(), vec![o]);
    let updated =
        w.update_where("Student", "register == true", &[("register", Value::Bool(false))]);
    assert_eq!(updated.unwrap(), 1);
    w.delete_objects(&[o]).unwrap();
    sys
}

#[test]
fn evolution_report_phase_timings_populated_and_disjoint() {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS1", &["Person", "Student", "TA"]).unwrap();
    let report = tse
        .evolve_cmd("VS1", "add_attribute register: bool = false to Student")
        .unwrap();
    let t = &report.timings;
    assert!(t.translate_ns > 0, "translate phase untimed");
    assert!(t.classify_ns > 0, "classify phase untimed");
    assert!(t.view_regen_ns > 0, "view-regen phase untimed");
    assert!(t.swap_in_ns > 0, "swap-in phase untimed");
    // The phases are measured on disjoint sub-intervals of the evolve span.
    assert!(t.phases_sum_ns() <= t.total_ns, "phases overlap the total");
}

#[test]
fn composite_macro_total_covers_all_expanded_primitives() {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all("VS").unwrap();
    let report = tse.evolve_cmd("VS", "insert_class Assistant between Student - TA").unwrap();
    // The report describes the last primitive; its total spans the whole
    // composite, so it dominates the last primitive's own phases.
    assert!(report.timings.phases_sum_ns() <= report.timings.total_ns);
    // One outer evolve + two nested primitives.
    assert!(tse.telemetry().snapshot().counter("evolve.count") >= 3);
}

#[test]
fn snapshot_counters_deterministic_across_identical_runs() {
    let a = run_workload().telemetry().snapshot();
    let b = run_workload().telemetry().snapshot();
    // Durations vary run to run; everything countable must not.
    assert_eq!(a.counters, b.counters, "counters diverged between identical runs");
    let names_a: Vec<&String> = a.histograms.keys().collect();
    let names_b: Vec<&String> = b.histograms.keys().collect();
    assert_eq!(names_a, names_b, "histogram sets diverged");
    for (name, h) in &a.histograms {
        assert_eq!(h.count, b.histograms[name].count, "{name}: observation count diverged");
    }
}

#[test]
fn journal_is_valid_json_lines_with_pipeline_spans() {
    let tse = run_workload();
    let lines = tse.telemetry().journal_lines();
    let records = validate_lines(&lines).expect("well-formed JSON-lines");
    assert!(records >= 5, "expected a real journal, got {records} records");
    for phase in ["evolve", "evolve.translate", "evolve.classify", "evolve.view_regen",
                  "evolve.swap_in", "view.generate", "classifier.classify"] {
        assert!(
            lines.lines().any(|l| l.contains(&format!("\"name\":\"{phase}\""))),
            "journal is missing the {phase} span"
        );
    }
}

#[test]
fn evolve_journal_records_share_one_trace() {
    let tse = run_workload();
    let lines = tse.telemetry().journal_lines();
    let journal = tse_inspect::Journal::parse(&lines).unwrap();
    // Every evolve-pipeline span carries the evolve's trace id — one trace
    // for the whole expansion tree.
    let traces: Vec<Option<u64>> = journal
        .records
        .iter()
        .filter(|r| {
            r.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n == "evolve" || n.starts_with("evolve."))
        })
        .map(|r| r.get("trace").and_then(|t| t.as_u64()))
        .collect();
    assert!(!traces.is_empty());
    assert!(traces.iter().all(|t| t.is_some()), "untraced evolve span");
    assert_eq!(
        traces.iter().collect::<std::collections::BTreeSet<_>>().len(),
        1,
        "evolve pipeline fragmented across traces: {traces:?}"
    );
    assert!(journal.causality_errors().is_empty());
    // And the offline reconstruction is complete.
    assert!(journal.evolve_timelines().iter().any(|tl| tl.complete));
}

#[test]
fn data_plane_counters_and_latency_histograms_recorded() {
    let snap = run_workload().telemetry().snapshot();
    let ops = [
        "create", "get", "set", "extent", "select_where", "update_where", "invoke", "add_to",
        "remove_from", "delete_objects",
    ];
    for op in ops {
        assert_eq!(snap.counter(&format!("op.{op}")), 1, "op.{op}: one call, one count");
        let h = snap.histograms.get(&format!("latency.{op}")).unwrap_or_else(|| {
            panic!("latency.{op} histogram missing");
        });
        assert_eq!(h.count, 1, "latency.{op}: one call, one sample");
        assert!(h.min >= 1, "latency.{op} is zero");
    }
    // Store gauges are published on every evolve, and the fact cache's
    // two counters with them.
    assert!(snap.counters.contains_key("store.hit_ratio_bp"));
    assert!(snap.counter("schema.types_resolved") >= 1);
    assert!(snap.counters.contains_key("schema.types_invalidated"));
}

#[test]
fn a_session_update_where_counts_itself_once_and_no_select() {
    let (tse, _) = build_university().unwrap();
    let sys = SharedSystem::from_system(tse);
    let client = sys.client("VS1");
    client.create_view(&["Person", "Student"]).unwrap();
    let w = client.writer().unwrap();
    w.create("Person", &[("age", Value::Int(20))]).unwrap();
    let count = |op: &str| sys.telemetry().snapshot().counter(op);
    let before = (count("op.update_where"), count("op.select_where"));
    w.update_where("Person", "age >= 0", &[("age", Value::Int(30))]).unwrap();
    // A failing set is still one update_where.
    w.update_where("Person", "age >= 0", &[("age", Value::Str("old".into()))]).unwrap_err();
    let after = (count("op.update_where"), count("op.select_where"));
    assert_eq!(after, (before.0 + 2, before.1), "(update_where, select_where) counts");
}

/// A university system with one `Student` behind view family `VS1`.
fn one_student() -> (SharedSystem, tse::object_model::Oid) {
    let (tse, _) = build_university().unwrap();
    let sys = SharedSystem::from_system(tse);
    let client = sys.client("VS1");
    client.create_view(&["Person", "Student"]).unwrap();
    let o = client.writer().unwrap().create("Student", &[("age", Value::Int(20))]).unwrap();
    (sys, o)
}

/// Per-thread metric shards sum exactly: three reader threads have exited
/// (their shards folded into the domain's totals) and a fourth is still
/// alive (its shard summed live) when the snapshot is taken.
#[test]
fn gets_from_four_threads_are_counted_exactly() {
    const GETS: u64 = 10_000;
    let (sys, o) = one_student();
    // Sessions open here, so the reset below leaves only the gets to count.
    let mut readers: Vec<_> = (0..4).map(|_| sys.client("VS1").session().unwrap()).collect();
    sys.telemetry().reset();
    let read_all = move |r: &dyn TseReader| {
        for _ in 0..GETS {
            assert_eq!(r.get(o, "Student", "age").unwrap(), Value::Int(20));
        }
    };
    let last = readers.pop().unwrap();
    let exited: Vec<_> = readers
        .into_iter()
        .map(|r| std::thread::spawn(move || read_all(&r)))
        .collect();
    for handle in exited {
        handle.join().unwrap();
    }
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
    let alive = std::thread::spawn(move || {
        read_all(&last);
        done_tx.send(()).unwrap();
        exit_rx.recv().unwrap();
    });
    done_rx.recv().unwrap();
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter("op.get"), 4 * GETS);
    assert_eq!(snap.histograms["latency.get"].count, 4 * GETS);
    exit_tx.send(()).unwrap();
    alive.join().unwrap();
    assert_eq!(sys.telemetry().snapshot().counter("op.get"), 4 * GETS, "after the last exit");
}

/// A reset reaches a shard its owner filled before it: the next get on that
/// thread counts from zero.
#[test]
fn a_get_after_a_reset_counts_once_on_a_thread_that_counted_before() {
    let (sys, o) = one_student();
    let reader = sys.client("VS1").session().unwrap();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        while go_rx.recv().is_ok() {
            reader.get(o, "Student", "age").unwrap();
            done_tx.send(()).unwrap();
        }
    });
    for _ in 0..3 {
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
    }
    assert_eq!(sys.telemetry().counter("op.get"), 3);
    sys.telemetry().reset();
    go_tx.send(()).unwrap();
    done_rx.recv().unwrap();
    let snap = sys.telemetry().snapshot();
    assert_eq!(snap.counter("op.get"), 1);
    assert_eq!(snap.histograms["latency.get"].count, 1);
    drop(go_tx);
    worker.join().unwrap();
}

#[test]
fn two_systems_read_on_one_thread_count_apart() {
    let (a, oa) = one_student();
    let (b, ob) = one_student();
    let (ra, rb) = (a.client("VS1").session().unwrap(), b.client("VS1").session().unwrap());
    for _ in 0..3 {
        ra.get(oa, "Student", "age").unwrap();
    }
    rb.get(ob, "Student", "age").unwrap();
    assert_eq!(a.telemetry().snapshot().counter("op.get"), 3);
    assert_eq!(b.telemetry().snapshot().counter("op.get"), 1);
}

/// With a threshold set, a set over it journals a `slow_op` event carrying
/// its wait for the swap latch and `meta`, stamped with the session's trace;
/// a slow get (which waits for no lock) journals its op and trace.
#[test]
fn a_slow_set_journals_its_waits() {
    let (sys, o) = one_student();
    let client = sys.client("VS1");
    let writer = client.writer().unwrap();
    let reader = client.session().unwrap();
    sys.telemetry().set_slow_op_threshold_ns(1);
    writer.set(o, "Student", &[("age", Value::Int(21))]).unwrap();
    reader.get(o, "Student", "age").unwrap();
    assert_eq!(sys.telemetry().counter("slow_op.count"), 2);
    let lines = sys.telemetry().journal_lines();
    let slow = |op: &str| {
        let tag = format!("\"op\":\"{op}\"");
        lines
            .lines()
            .find(|l| l.contains("\"name\":\"slow_op\"") && l.contains(&tag))
            .unwrap_or_else(|| panic!("slow_op event for {op}"))
            .to_string()
    };
    let set = slow("set");
    assert!(set.contains("\"lock.write_wait_ns\":"), "{set}");
    assert!(!set.contains("\"trace\":null"), "{set}");
    let get = slow("get");
    assert!(!get.contains("\"trace\":null"), "{get}");
}
