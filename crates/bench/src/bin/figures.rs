//! Reproduce every figure of the paper as a printed scenario.
//!
//! ```text
//! cargo run -p tse-bench --bin figures            # all figures
//! cargo run -p tse-bench --bin figures -- fig3    # one figure
//! ```
//!
//! Each figure prints the scenario, the generated view-specification script
//! where applicable, and the before/after view schemas, and asserts the
//! paper's stated outcome (so the binary doubles as a demo and a check).

use tse_object_model::{PropertyDef, Value, ValueType};
use tse_workload::university::{build_cars, build_university};

fn banner(name: &str, caption: &str) {
    println!("\n=== {name}: {caption}");
    println!("{}", "-".repeat(72));
}

fn fig1() {
    banner("Figure 1", "the TSE approach: view change instead of global change");
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS1", &["Person", "Student", "TA"]).unwrap();
    tse.create_view("VS2", &["Person", "Staff"]).unwrap();
    let before = tse.db().schema().live_class_count();
    let report = tse.evolve_cmd("VS1", "add_attribute register: bool to Student").unwrap();
    println!("user VS1 asked:   add_attribute register to Student");
    println!("global schema:    {} -> {} classes (augmented, not modified in place)",
        before, tse.db().schema().live_class_count());
    println!("view VS1:         replaced by version {}", tse.view(report.view).unwrap().version);
    println!("view VS2:         untouched: {}", tse.views_unaffected_except("VS1").unwrap());
    assert!(tse.views_unaffected_except("VS1").unwrap());
}

fn fig2() {
    banner("Figure 2", "the university database (base global schema)");
    let (mut tse, _) = build_university().unwrap();
    let v = tse.create_view_all("ALL").unwrap();
    print!("{}", tse.view(v).unwrap().render(tse.db()));
}

fn fig3_7() {
    banner("Figures 3 & 7", "add_attribute register to Student — the full pipeline");
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view("VS1", &["Person", "Student", "TA"]).unwrap();
    println!("-- old view:");
    print!("{}", tse.view(v1).unwrap().render(tse.db()));
    let report = tse.evolve_cmd("VS1", "add_attribute register: bool = false to Student").unwrap();
    println!("-- generated view specification (Figure 7(b)):");
    print!("{}", report.script);
    println!("-- new view (primed classes renamed back — transparency):");
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    let o = tse.create(report.view, "Student", &[("register", Value::Bool(true))]).unwrap();
    assert_eq!(tse.get(report.view, o, "Student", "register").unwrap(), Value::Bool(true));
    assert!(tse.get(v1, o, "Student", "register").is_err());
    println!("register readable in VS2, absent in VS1; object shared by both. OK");
}

fn fig4() {
    banner("Figure 4", "virtual class creation: AgelessPerson = hide age from Person");
    let (mut tse, u) = build_university().unwrap();
    let ageless = tse_algebra::define_vc(
        tse.db_mut(),
        "AgelessPerson",
        &tse_algebra::Query::hide(tse_algebra::Query::class(u.person), &["age"]),
    )
    .unwrap();
    let placement =
        tse_classifier::classify_with(&mut Default::default(), tse.db_mut(), ageless).unwrap();
    println!("classified AgelessPerson: supers={:?} subs={:?}", placement.supers, placement.subs);
    assert_eq!(placement.subs, vec![u.person], "superclass of its source class");
    let t = tse.db().schema().resolved_type(ageless).unwrap();
    assert!(!t.contains_name("age"));
    println!("type of AgelessPerson: {:?} (age hidden). OK", t.props.keys().collect::<Vec<_>>());
}

fn fig5() {
    banner("Figure 5", "two implementations of multiple classification (o1: Jeep & Imported)");
    // Slicing backend.
    let (mut tse, _, jeep, imported) = build_cars().unwrap();
    let v = tse.create_view_all("CARS").unwrap();
    let o1 = tse.create(v, "Jeep", &[("model", "tj".into())]).unwrap();
    tse.db_mut().add_to_class(o1, imported).unwrap();
    tse.set(v, o1, "Imported", &[("nation", "jp".into())]).unwrap();
    let stats = tse.db().slicing_stats();
    println!("object slicing:      o1 member of Jeep & Imported; oids for o1 = {}", stats.oids);
    assert!(tse.db().is_member(o1, jeep).unwrap() && tse.db().is_member(o1, imported).unwrap());

    // Intersection backend.
    use tse_object_model::intersection::IntersectionDb;
    let mut idb = IntersectionDb::default();
    let car = idb
        .define_class("Car", &[], vec![PropertyDef::stored("model", ValueType::Str, Value::Null)])
        .unwrap();
    let ijeep = idb.define_class("Jeep", &[car], vec![]).unwrap();
    let iimp = idb.define_class("Imported", &[car], vec![
        PropertyDef::stored("nation", ValueType::Str, Value::Null),
    ]).unwrap();
    let io1 = idb.create_object(ijeep, &[("model", "tj".into())]).unwrap();
    idb.classify_into(io1, iimp).unwrap();
    let istats = idb.stats();
    println!(
        "intersection-class:  o1 moved into {:?}; hidden classes created = {}",
        idb.schema().class(idb.class_of(io1).unwrap()).unwrap().name,
        istats.intersection_classes
    );
    assert_eq!(istats.intersection_classes, 1);
}

fn fig8() {
    banner("Figure 8", "delete_attribute gpa from Student — hidden, not destroyed");
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let o = tse.create(v1, "Student", &[("gpa", Value::Float(3.5))]).unwrap();
    let report = tse.evolve_cmd("VS", "delete_attribute gpa from Student").unwrap();
    println!("-- generated script:");
    print!("{}", report.script);
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    assert!(tse.get(report.view, o, "Student", "gpa").is_err());
    assert_eq!(tse.get(v1, o, "Student", "gpa").unwrap(), Value::Float(3.5));
    println!("gpa invisible in the new view, intact in the old one. OK");
}

fn fig9() {
    banner("Figure 9", "add_edge SupportStaff - TA: inheritance + extent union");
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse
        .create_view("VS", &["Person", "Staff", "TeachingStaff", "SupportStaff", "TA", "Grader"])
        .unwrap();
    let ta_member = tse.create(v1, "TA", &[]).unwrap();
    let support_before = tse.extent(v1, "SupportStaff").unwrap().len();
    let report = tse.evolve_cmd("VS", "add_edge SupportStaff - TA").unwrap();
    println!("-- generated script:");
    print!("{}", report.script);
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    let support_after = tse.extent(report.view, "SupportStaff").unwrap();
    println!(
        "extent(SupportStaff): {} -> {} (TA members absorbed)",
        support_before,
        support_after.len()
    );
    assert!(support_after.contains(&ta_member));
    assert!(tse.get(report.view, ta_member, "TA", "boss").is_ok());
}

fn fig10_11() {
    banner("Figures 10 & 11", "delete_edge TeachingStaff - TA connected_to Staff");
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse
        .create_view("VS", &["Person", "Staff", "TeachingStaff", "TA", "Grader"])
        .unwrap();
    let ta_member = tse.create(v1, "TA", &[]).unwrap();
    let report = tse.evolve_cmd("VS", "delete_edge TeachingStaff - TA connected_to Staff").unwrap();
    println!("-- generated script (note commonSub/diff/union structure):");
    print!("{}", report.script);
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    assert!(tse.get(report.view, ta_member, "TA", "lecture").is_err(), "lecture hidden");
    assert!(!tse.extent(report.view, "TeachingStaff").unwrap().contains(&ta_member));
    assert!(tse.extent(report.view, "Staff").unwrap().contains(&ta_member), "reattached");
    println!("TA detached from TeachingStaff, reattached under Staff. OK");
}

fn fig12_13() {
    banner("Figures 12 & 13", "add_class HonorParttimeStudent under virtual HonorStudent");
    let (mut tse, u) = build_university().unwrap();
    let honor = tse_algebra::define_vc(
        tse.db_mut(),
        "HonorStudent",
        &tse_algebra::Query::select(
            tse_algebra::Query::class(u.student),
            tse_object_model::Predicate::cmp("gpa", tse_object_model::BinOp::Ge, 3.5),
        ),
    )
    .unwrap();
    tse_classifier::classify_with(&mut Default::default(), tse.db_mut(), honor).unwrap();
    let v = tse.create_view("VH", &["Person", "Student", "HonorStudent"]).unwrap();
    let star = tse.create(v, "Student", &[("gpa", Value::Float(3.9))]).unwrap();
    let report = tse
        .evolve_cmd("VH", "add_class HonorParttimeStudent connected_to HonorStudent")
        .unwrap();
    println!("-- generated script (origin substitution + derivation replay):");
    print!("{}", report.script);
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    assert!(tse.extent(report.view, "HonorParttimeStudent").unwrap().is_empty(),
        "Figure 13(d/e): the new class must start EMPTY");
    assert!(tse.extent(report.view, "HonorStudent").unwrap().contains(&star));
    // Figure 13(a): an insert violating the membership constraint of the
    // connection point must not be possible.
    assert!(tse
        .create(report.view, "HonorParttimeStudent", &[("gpa", Value::Float(1.0))])
        .is_err());
    let ok = tse
        .create(report.view, "HonorParttimeStudent", &[("gpa", Value::Float(3.8))])
        .unwrap();
    assert!(tse.extent(report.view, "HonorStudent").unwrap().contains(&ok),
        "new members are visible to the superclass");
    println!("empty at birth, constraint enforced, inserts visible upward. OK");
}

fn fig14() {
    banner("Figure 14", "insert_class macro: add_class + add_edge");
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let report = tse.evolve_cmd("VS", "insert_class Assistant between Student - TA").unwrap();
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    let view = tse.view(report.view).unwrap();
    let mid = view.lookup(tse.db(), "Assistant").unwrap();
    let student = view.lookup(tse.db(), "Student").unwrap();
    let ta = view.lookup(tse.db(), "TA").unwrap();
    assert!(view.is_sub_in_view(mid, student) && view.is_sub_in_view(ta, mid));
    println!("Assistant inserted between Student and TA. OK");
}

fn fig15() {
    banner("Figure 15", "delete_class_2 macro: splice Student out");
    let (mut tse, _) = build_university().unwrap();
    let v1 = tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let o = tse.create(v1, "TA", &[("gpa", Value::Float(3.0))]).unwrap();
    let report = tse.evolve_cmd("VS", "delete_class_2 Student").unwrap();
    print!("{}", tse.view(report.view).unwrap().render(tse.db()));
    let view = tse.view(report.view).unwrap();
    assert!(view.lookup(tse.db(), "Student").is_err());
    assert!(tse.get(report.view, o, "TA", "gpa").is_err(), "Student's local prop gone");
    assert!(tse.get(report.view, o, "TA", "name").is_ok(), "Person's props kept");
    assert_eq!(tse.get(v1, o, "Student", "gpa").unwrap(), Value::Float(3.0), "old view intact");
    println!("Student spliced out; TA under Person; old view still works. OK");
}

fn fig16() {
    banner("Figure 16", "version merging: VS.1 + VS.2 -> VS.3");
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS.1", &["Person", "Student"]).unwrap();
    tse.create_view("VS.2", &["Person", "Student"]).unwrap();
    tse.evolve_cmd("VS.1", "add_attribute register: bool to Student").unwrap();
    tse.evolve_cmd("VS.2", "add_attribute student_id: int to Student").unwrap();
    let merged = tse.merge_views("VS.1", "VS.2", "VS.3").unwrap();
    print!("{}", tse.view(merged).unwrap().render(tse.db()));
    let view = tse.view(merged).unwrap();
    assert!(view.lookup(tse.db(), "Student.v1").is_ok());
    assert!(view.lookup(tse.db(), "Student.v2").is_ok());
    let o = tse.create(merged, "Student.v1", &[]).unwrap();
    assert!(tse.extent(merged, "Student.v2").unwrap().contains(&o));
    println!("identical Person folded; distinct Students suffixed; objects shared. OK");
}

fn fig6() {
    banner("Figure 6", "system architecture walk-through (one change, all modules)");
    let (mut tse, _) = build_university().unwrap();
    tse.create_view("VS", &["Person", "Student"]).unwrap();
    let report = tse.evolve_cmd("VS", "add_attribute email: str to Person").unwrap();
    println!("TSEM received:       add_attribute email to Person   (1)");
    println!("TSE Translator:      {} statement(s) of extended algebra (2)", report.script.lines().count());
    println!("Classifier:          {} classes integrated, {} duplicates folded (3)",
        report.created.len(), report.duplicates_folded);
    println!("View Manager:        registered version {} in the view history",
        tse.view(report.view).unwrap().version);
    assert_eq!(tse.views().versions("VS").unwrap().len(), 2);
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let all = arg.is_empty();
    let want = |name: &str| all || arg == name;
    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig3") || want("fig7") {
        fig3_7();
    }
    if want("fig4") {
        fig4();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") || want("fig11") {
        fig10_11();
    }
    if want("fig12") || want("fig13") {
        fig12_13();
    }
    if want("fig14") {
        fig14();
    }
    if want("fig15") {
        fig15();
    }
    if want("fig16") {
        fig16();
    }
    if all || arg == "phases" {
        phases();
    }
    println!("\nall requested figures reproduced.");
}

/// Run the canonical evolution workload and leave a machine-readable
/// per-phase breakdown (`BENCH_figures.json`) next to the printed figures.
fn phases() {
    banner("Phase breakdown", "per-phase evolution timings + metrics snapshot");
    let (tse, samples) = tse_bench::run_phase_workload();
    for s in &samples {
        let t = &s.timings;
        println!(
            "{:<55} total {:>9}ns = translate {:>7} + classify {:>9} + view_regen {:>7} + swap_in {:>9} (+glue)",
            s.command, t.total_ns, t.translate_ns, t.classify_ns, t.view_regen_ns, t.swap_in_ns
        );
        assert!(t.phases_sum_ns() <= t.total_ns);
    }
    let json = tse_bench::phase_breakdown_json("figures", &tse, &samples);
    let path = tse_bench::write_bench_json("figures", &json).expect("write BENCH_figures.json");
    println!("phase breakdown written to {path}");
}
