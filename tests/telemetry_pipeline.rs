//! End-to-end telemetry integration: the evolution pipeline's spans,
//! counters, and phase timings, observed through the public facade.

use tse::core::TseSystem;
use tse::object_model::Value;
use tse::telemetry::json::validate_lines;
use tse::workload::university::build_university;

/// A fixed mixed workload: one evolution plus a few data-plane operations.
fn run_workload() -> TseSystem {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS1", &["Person", "Student", "TA"]).unwrap();
    let report = tse
        .evolve_cmd("VS1", "add_attribute register: bool = false to Student")
        .unwrap();
    let o = tse.create(report.view, "Student", &[("register", Value::Bool(true))]).unwrap();
    assert_eq!(tse.get(report.view, o, "Student", "register").unwrap(), Value::Bool(true));
    assert_eq!(tse.select_where(report.view, "Student", "register == true").unwrap(), vec![o]);
    tse.update_where(report.view, "Student", "register == true", &[("register", Value::Bool(false))])
        .unwrap();
    tse
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
    let tse = run_workload();
    let snap = tse.telemetry().snapshot();
    for op in ["create", "get", "select_where", "update_where"] {
        assert!(snap.counter(&format!("op.{op}")) >= 1, "op.{op} not counted");
        let h = snap.histograms.get(&format!("latency.{op}")).unwrap_or_else(|| {
            panic!("latency.{op} histogram missing");
        });
        assert!(h.count >= 1 && h.min >= 1, "latency.{op} empty or zero");
    }
    // Store gauges are published on every evolve, and the fact cache's
    // two counters with them.
    assert!(snap.counters.contains_key("store.hit_ratio_bp"));
    assert!(snap.counter("schema.types_resolved") >= 1);
    assert!(snap.counters.contains_key("schema.types_invalidated"));
}

#[test]
fn a_bare_system_update_where_counts_itself_once_and_no_select() {
    let (mut tse, _) = build_university().unwrap();
    let v = tse.create_view("VS1", &["Person", "Student"]).unwrap();
    tse.create(v, "Person", &[("age", Value::Int(20))]).unwrap();
    let count = |tse: &TseSystem, op: &str| tse.telemetry().snapshot().counter(op);
    let before = (count(&tse, "op.update_where"), count(&tse, "op.select_where"));
    tse.update_where(v, "Person", "age >= 0", &[("age", Value::Int(30))]).unwrap();
    // A failing set is still one update_where.
    tse.update_where(v, "Person", "age >= 0", &[("age", Value::Str("old".into()))]).unwrap_err();
    let after = (count(&tse, "op.update_where"), count(&tse, "op.select_where"));
    assert_eq!(after, (before.0 + 2, before.1), "(update_where, select_where) counts");
}
