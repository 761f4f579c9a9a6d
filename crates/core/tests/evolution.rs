//! End-to-end tests for the TSE system: one test per paper figure/scenario,
//! exercising translate → execute → classify → view generation → transparent
//! renaming, plus data interoperability across view versions.

use tse_core::{SchemaChange, SharedSystem, TseSystem};
use tse_object_model::{PropertyDef, Value, ValueType};
use tse_storage::{FailAction, SegmentId};

/// The university database of Figure 2 (restricted to the classes the §6
/// examples use), with the view VS1 = {Person, Student, TA} of Figure 3.
fn university() -> TseSystem {
    let mut tse = TseSystem::new();
    tse.define_base_class(
        "Person",
        &[],
        vec![
            PropertyDef::stored("name", ValueType::Str, Value::Null),
            PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
        ],
    )
    .unwrap();
    tse.define_base_class(
        "Student",
        &["Person"],
        vec![PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0))],
    )
    .unwrap();
    tse.define_base_class(
        "TA",
        &["Student"],
        vec![PropertyDef::stored("lecture", ValueType::Str, Value::Null)],
    )
    .unwrap();
    tse.define_base_class("Grad", &["Student"], vec![]).unwrap();
    tse
}

#[test]
fn figure_3_and_7_add_attribute_end_to_end() {
    let mut tse = university();
    let v1 = tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();

    // Old application data created through VS1.
    let kim = tse.create(v1, "TA", &[("name", "kim".into())]).unwrap();

    let report = tse
        .evolve_cmd("VS", "add_attribute register: bool = false to Student")
        .unwrap();
    let v2 = report.view;

    // The generated script matches Figure 7(b): a refine for Student, a
    // shared-definition refine for TA — and nothing for Grad (not in view).
    assert!(report.script.contains("defineVC Student' as (refine register for Student)"),
        "script was:\n{}", report.script);
    assert!(report.script.contains("defineVC TA' as (refine Student':register for TA)"),
        "script was:\n{}", report.script);
    assert_eq!(report.classes_touched, 2, "only the view's subtree is primed");

    // Transparency: the new view still exposes Person/Student/TA by name.
    for name in ["Person", "Student", "TA"] {
        assert!(tse.view(v2).unwrap().lookup(tse.db(), name).is_ok(), "missing {name}");
    }
    // The new attribute exists in VS2…
    let ann = tse
        .create(v2, "Student", &[("name", "ann".into()), ("register", Value::Bool(true))])
        .unwrap();
    assert_eq!(tse.get(v2, ann, "Student", "register").unwrap(), Value::Bool(true));
    // …and is inherited by TA in VS2.
    assert_eq!(tse.get(v2, kim, "TA", "register").unwrap(), Value::Bool(false));
    tse.set(v2, kim, "TA", &[("register", Value::Bool(true))]).unwrap();
    assert_eq!(tse.get(v2, kim, "TA", "register").unwrap(), Value::Bool(true));

    // The old view is untouched: no `register` there, but shared data is.
    assert!(tse.get(v1, kim, "TA", "register").is_err());
    assert_eq!(tse.get(v1, kim, "TA", "name").unwrap(), Value::Str("kim".into()));
    // Interop: object created under VS2 is visible to the VS1 application.
    assert_eq!(tse.get(v1, ann, "Student", "name").unwrap(), Value::Str("ann".into()));
    // And writes via the old view are seen through the new one.
    tse.set(v1, kim, "TA", &[("age", Value::Int(27))]).unwrap();
    assert_eq!(tse.get(v2, kim, "TA", "age").unwrap(), Value::Int(27));

    // Grad (outside the view) was not touched by the evolution.
    assert!(tse
        .db()
        .schema()
        .by_name("Grad'")
        .is_err());
}

#[test]
fn add_attribute_rejects_existing_name() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student"]).unwrap();
    assert!(tse.evolve_cmd("VS", "add_attribute name: str to Student").is_err());
    // Inherited names clash too.
    assert!(tse.evolve_cmd("VS", "add_attribute age: int to Student").is_err());
}

#[test]
fn add_method_is_invocable_and_tracks_stored_state() {
    let mut tse = university();
    let _v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
    let report = tse
        .evolve_cmd("VS", "add_method is_adult: bool := age >= 18 to Person")
        .unwrap();
    let v2 = report.view;
    let o = tse.create(v2, "Student", &[("age", Value::Int(30))]).unwrap();
    assert_eq!(tse.get(v2, o, "Student", "is_adult").unwrap(), Value::Bool(true));
    tse.set(v2, o, "Student", &[("age", Value::Int(10))]).unwrap();
    assert_eq!(tse.get(v2, o, "Student", "is_adult").unwrap(), Value::Bool(false));
}

#[test]
fn figure_8_delete_attribute_hides_without_destroying_data() {
    let mut tse = university();
    let v1 = tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let o = tse.create(v1, "Student", &[("gpa", Value::Float(3.5))]).unwrap();

    let report = tse.evolve_cmd("VS", "delete_attribute gpa from Student").unwrap();
    let v2 = report.view;

    // Gone in VS2, for Student and TA alike.
    assert!(tse.get(v2, o, "Student", "gpa").is_err());
    let ta = tse.create(v2, "TA", &[]).unwrap();
    assert!(tse.get(v2, ta, "TA", "gpa").is_err());
    // Still visible (with data!) through the old view.
    assert_eq!(tse.get(v1, o, "Student", "gpa").unwrap(), Value::Float(3.5));
    // Other attributes survive in VS2.
    tse.set(v2, o, "Student", &[("age", Value::Int(22))]).unwrap();
    assert_eq!(tse.get(v1, o, "Student", "age").unwrap(), Value::Int(22));
}

#[test]
fn delete_attribute_requires_view_locality() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    // `age` is defined at Person — not local to Student in this view.
    assert!(tse.evolve_cmd("VS", "delete_attribute age from Student").is_err());
    // Unknown attribute.
    assert!(tse.evolve_cmd("VS", "delete_attribute salary from Student").is_err());
    // But deleting at the uppermost class holding it works.
    assert!(tse.evolve_cmd("VS", "delete_attribute age from Person").is_ok());
}

#[test]
fn delete_attribute_restores_suppressed_property() {
    // Student locally overrides Person.nickname; deleting Student's copy
    // restores the suppressed inherited one (§6.2.1).
    let mut tse = TseSystem::new();
    tse.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("nickname", ValueType::Str, Value::Str("none".into()))],
    )
    .unwrap();
    tse.define_base_class(
        "Student",
        &["Person"],
        vec![PropertyDef::stored("nickname", ValueType::Str, Value::Str("stu".into()))],
    )
    .unwrap();
    let v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
    let o = tse.create(v1, "Student", &[]).unwrap();
    assert_eq!(tse.get(v1, o, "Student", "nickname").unwrap(), Value::Str("stu".into()));

    let report = tse.evolve_cmd("VS", "delete_attribute nickname from Student").unwrap();
    let v2 = report.view;
    // The suppressed Person.nickname is visible again (its default applies —
    // the object never wrote the Person copy).
    assert_eq!(tse.get(v2, o, "Student", "nickname").unwrap(), Value::Str("none".into()));
    // Writing through VS2 hits Person's attribute, visible via Person too.
    tse.set(v2, o, "Student", &[("nickname", Value::Str("ann".into()))]).unwrap();
    assert_eq!(tse.get(v2, o, "Person", "nickname").unwrap(), Value::Str("ann".into()));
    // The old view still sees the overriding copy.
    assert_eq!(tse.get(v1, o, "Student", "nickname").unwrap(), Value::Str("stu".into()));
}

/// The staff schema of Figures 9/10: Person ← TeachingStaff, SupportStaff;
/// TeachingStaff ← TA ← Grader, with the figures' objects o1..o6.
fn staff_system() -> (TseSystem, Vec<tse_object_model::Oid>) {
    let mut tse = TseSystem::new();
    tse.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
    )
    .unwrap();
    tse.define_base_class(
        "TeachingStaff",
        &["Person"],
        vec![PropertyDef::stored("lecture", ValueType::Str, Value::Null)],
    )
    .unwrap();
    tse.define_base_class(
        "SupportStaff",
        &["Person"],
        vec![PropertyDef::stored("boss", ValueType::Str, Value::Null)],
    )
    .unwrap();
    tse.define_base_class("TA", &["TeachingStaff"], vec![]).unwrap();
    tse.define_base_class("Grader", &["TA"], vec![]).unwrap();
    let v = tse
        .create_view("VS", &["Person", "TeachingStaff", "SupportStaff", "TA", "Grader"])
        .unwrap();
    // Figure 9/10 extents: o1 Person, o2 TeachingStaff, o3 SupportStaff,
    // o4 TA, o5 TA, o6 Grader.
    let o1 = tse.create(v, "Person", &[]).unwrap();
    let o2 = tse.create(v, "TeachingStaff", &[]).unwrap();
    let o3 = tse.create(v, "SupportStaff", &[]).unwrap();
    let o4 = tse.create(v, "TA", &[]).unwrap();
    let o5 = tse.create(v, "TA", &[]).unwrap();
    let o6 = tse.create(v, "Grader", &[]).unwrap();
    (tse, vec![o1, o2, o3, o4, o5, o6])
}

#[test]
fn figure_9_add_edge_inherits_properties_and_extends_extents() {
    let (mut tse, o) = staff_system();
    let report = tse.evolve_cmd("VS", "add_edge SupportStaff - TA").unwrap();
    let v2 = report.view;

    // TA and Grader now carry `boss`.
    assert_eq!(tse.get(v2, o[3], "TA", "boss").unwrap(), Value::Null);
    tse.set(v2, o[5], "Grader", &[("boss", Value::Str("pat".into()))]).unwrap();
    assert_eq!(tse.get(v2, o[5], "Grader", "boss").unwrap(), Value::Str("pat".into()));

    // SupportStaff's extent in VS2 is {o3} ∪ {o4, o5, o6} (the paper's
    // {o2 o3} → {o2 o3 o4 o5 o6} uses its own numbering; ours tracks the
    // creation order above).
    let mut support = tse.extent(v2, "SupportStaff").unwrap();
    support.sort();
    assert_eq!(support, vec![o[2], o[3], o[4], o[5]]);
    // Person's extent is unchanged (TA was already below Person).
    assert_eq!(tse.extent(v2, "Person").unwrap().len(), 6);
    // The view hierarchy shows SupportStaff above TA.
    let view = tse.view(v2).unwrap();
    let sup = view.lookup(tse.db(), "SupportStaff").unwrap();
    let ta = view.lookup(tse.db(), "TA").unwrap();
    assert!(view.is_sub_in_view(ta, sup));
    // Old view unaffected.
    let (support_old, _) = ( tse.extent(tse.views().versions("VS").unwrap()[0], "SupportStaff").unwrap(), ());
    assert_eq!(support_old, vec![o[2]]);
}

#[test]
fn figure_10_delete_edge_hides_properties_and_shrinks_extents() {
    let (mut tse, o) = staff_system();
    let report = tse
        .evolve_cmd("VS", "delete_edge TeachingStaff - TA connected_to Person")
        .unwrap();
    let v2 = report.view;

    // `lecture` no longer inherited by TA / Grader in VS2.
    assert!(tse.get(v2, o[3], "TA", "lecture").is_err());
    assert!(tse.get(v2, o[5], "Grader", "lecture").is_err());
    // TeachingStaff's extent dropped the TAs: {o2}.
    assert_eq!(tse.extent(v2, "TeachingStaff").unwrap(), vec![o[1]]);
    // Person keeps everyone (TA reattached below Person).
    assert_eq!(tse.extent(v2, "Person").unwrap().len(), 6);
    let view = tse.view(v2).unwrap();
    let person = view.lookup(tse.db(), "Person").unwrap();
    let ta = view.lookup(tse.db(), "TA").unwrap();
    let teaching = view.lookup(tse.db(), "TeachingStaff").unwrap();
    assert!(view.is_sub_in_view(ta, person));
    assert!(!view.is_sub_in_view(ta, teaching));
    // `name` (from Person) is still available on TA.
    assert!(tse.get(v2, o[3], "TA", "name").is_ok());
    // Old view still sees the original hierarchy & extent.
    let v1 = tse.views().versions("VS").unwrap()[0];
    assert_eq!(tse.extent(v1, "TeachingStaff").unwrap().len(), 4);
    assert!(tse.get(v1, o[3], "TA", "lecture").is_ok());
}

#[test]
fn figure_11_delete_edge_keeps_instances_visible_through_other_paths() {
    // The diamond of Figure 11: v above C_sup and another class M; C_sub
    // below C_sup; C1 below both C_sub and M. After deleting C_sup–C_sub,
    // C1's instances must stay visible to v (via M).
    let mut tse = TseSystem::new();
    tse.define_base_class("V", &[], vec![]).unwrap();
    tse.define_base_class("Csup", &["V"], vec![]).unwrap();
    tse.define_base_class("M", &["V"], vec![]).unwrap();
    tse.define_base_class("Csub", &["Csup"], vec![]).unwrap();
    tse.define_base_class("C1", &["Csub", "M"], vec![]).unwrap();
    let v1 = tse.create_view("VS", &["V", "Csup", "M", "Csub", "C1"]).unwrap();
    let in_c1 = tse.create(v1, "C1", &[]).unwrap();
    let in_csub = tse.create(v1, "Csub", &[]).unwrap();

    let report = tse.evolve_cmd("VS", "delete_edge Csup - Csub").unwrap();
    let v2 = report.view;
    let vext = tse.extent(v2, "V").unwrap();
    assert!(vext.contains(&in_c1), "C1 members stay visible via M (commonSub)");
    let csup_ext = tse.extent(v2, "Csup").unwrap();
    assert!(!csup_ext.contains(&in_csub), "direct Csub member left Csup");
    // C1 has no remaining path to Csup (only to V via M), so its members
    // leave Csup as well.
    assert!(!csup_ext.contains(&in_c1));
    // The V extent keeps the direct Csub member? No: in_csub's only path to
    // V was through Csup; it is hidden from V too.
    assert!(!vext.contains(&in_csub));
}

#[test]
fn figure_12_add_class_under_virtual_class_starts_empty() {
    // HonorStudent is a select view class; adding HonorParttimeStudent below
    // it must create an *empty* class that still obeys the selection.
    let mut tse = TseSystem::new();
    tse.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
    )
    .unwrap();
    tse.define_base_class(
        "Student",
        &["Person"],
        vec![PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0))],
    )
    .unwrap();
    let v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
    // Build the HonorStudent view class through an evolution-provided select?
    // The paper derives it as a view customization; we emulate by defining it
    // via the algebra and adding it to a fresh view.
    let student = tse.db().schema().by_name("Student").unwrap();
    let honor = tse_algebra::define_vc(
        tse.db_mut(),
        "HonorStudent",
        &tse_algebra::Query::select(
            tse_algebra::Query::class(student),
            tse_object_model::Predicate::cmp("gpa", tse_object_model::BinOp::Ge, 3.5),
        ),
    )
    .unwrap();
    tse_classifier::classify_with(&mut Default::default(), tse.db_mut(), honor).unwrap();
    let _ = v1;
    let v_honor = tse.create_view("VH", &["Person", "Student", "HonorStudent"]).unwrap();
    let star = tse.create(v_honor, "Student", &[("gpa", Value::Float(3.9))]).unwrap();
    assert!(tse.extent(v_honor, "HonorStudent").unwrap().contains(&star));

    let report = tse
        .evolve_cmd("VH", "add_class HonorParttimeStudent connected_to HonorStudent")
        .unwrap();
    let v2 = report.view;
    // Empty at birth, despite HonorStudent having members.
    assert_eq!(tse.extent(v2, "HonorParttimeStudent").unwrap(), vec![]);
    // It sits below HonorStudent in the view.
    let view = tse.view(v2).unwrap();
    let hps = view.lookup(tse.db(), "HonorParttimeStudent").unwrap();
    let hs = view.lookup(tse.db(), "HonorStudent").unwrap();
    assert!(view.is_sub_in_view(hps, hs));
    // Members created in it satisfy the honor constraint and appear above.
    let newbie = tse
        .create(v2, "HonorParttimeStudent", &[("gpa", Value::Float(3.8))])
        .unwrap();
    assert!(tse.extent(v2, "HonorStudent").unwrap().contains(&newbie));
    assert!(tse.extent(v2, "Student").unwrap().contains(&newbie));
    // Figure 13(a)'s violation cannot happen: creating an object violating
    // the predicate through the new class is rejected (value closure).
    assert!(tse
        .create(v2, "HonorParttimeStudent", &[("gpa", Value::Float(1.0))])
        .is_err());
}

#[test]
fn figure_14_insert_class_macro() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let report = tse
        .evolve(
            "VS",
            &SchemaChange::InsertClass {
                name: "GradAssistant".into(),
                sup: "Student".into(),
                sub: "TA".into(),
            },
        )
        .unwrap();
    let v = report.view;
    let view = tse.view(v).unwrap();
    let student = view.lookup(tse.db(), "Student").unwrap();
    let mid = view.lookup(tse.db(), "GradAssistant").unwrap();
    let ta = view.lookup(tse.db(), "TA").unwrap();
    assert!(view.is_sub_in_view(mid, student));
    assert!(view.is_sub_in_view(ta, mid));
    // The inserted class's extent contains TA's members (global extent).
    let kim = tse.create(v, "TA", &[]).unwrap();
    assert!(tse.extent(v, "GradAssistant").unwrap().contains(&kim));
    // And its type matches Student's (plus nothing).
    assert!(tse.get(v, kim, "GradAssistant", "gpa").is_ok());
}

#[test]
fn figure_15_delete_class_2_macro() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let v1 = tse.views().versions("VS").unwrap()[0];
    let o = tse.create(v1, "TA", &[("gpa", Value::Float(3.0))]).unwrap();

    let report = tse
        .evolve("VS", &SchemaChange::DeleteClass2 { class: "Student".into() })
        .unwrap();
    let v2 = report.view;
    let view = tse.view(v2).unwrap();
    assert!(view.lookup(tse.db(), "Student").is_err(), "Student gone from the view");
    let person = view.lookup(tse.db(), "Person").unwrap();
    let ta = view.lookup(tse.db(), "TA").unwrap();
    assert!(view.is_sub_in_view(ta, person), "TA reattached under Person");
    // TA no longer inherits Student's local property…
    assert!(tse.get(v2, o, "TA", "gpa").is_err());
    // …but keeps Person's.
    assert!(tse.get(v2, o, "TA", "name").is_ok());
    // Old view unaffected, data shared.
    assert_eq!(tse.get(v1, o, "Student", "gpa").unwrap(), Value::Float(3.0));
}

#[test]
fn figure_16_version_merging() {
    let mut tse = university();
    tse.create_view("VS1", &["Person", "Student"]).unwrap();
    tse.create_view("VS2", &["Person", "Student"]).unwrap();
    tse.evolve_cmd("VS1", "add_attribute register: bool = false to Student").unwrap();
    tse.evolve_cmd("VS2", "add_attribute student_id: int = 0 to Student").unwrap();

    let merged = tse.merge_views("VS1", "VS2", "VS3").unwrap();
    let view = tse.view(merged).unwrap();
    // Person was found identical (same global class) — appears once.
    assert!(view.lookup(tse.db(), "Person").is_ok());
    // The two Students are distinct and version-suffixed.
    let s1 = view.lookup(tse.db(), "Student.v1").unwrap();
    let s2 = view.lookup(tse.db(), "Student.v2").unwrap();
    assert_ne!(s1, s2);
    assert!(view.lookup(tse.db(), "Student").is_err());
    // Each carries its own addition; both share the same objects.
    let o = tse.create(merged, "Student.v1", &[("register", Value::Bool(true))]).unwrap();
    assert_eq!(tse.get(merged, o, "Student.v1", "register").unwrap(), Value::Bool(true));
    assert!(tse.extent(merged, "Student.v2").unwrap().contains(&o));
    assert_eq!(tse.get(merged, o, "Student.v2", "student_id").unwrap(), Value::Int(0));
    // No duplicate fields: the attributes are distinct definitions.
    assert!(tse.get(merged, o, "Student.v1", "student_id").is_err());
}

#[test]
fn proposition_b_other_views_never_affected() {
    let mut tse = university();
    tse.create_view("A", &["Person", "Student", "TA"]).unwrap();
    tse.create_view("B", &["Person", "Student"]).unwrap();
    tse.evolve_cmd("A", "add_attribute register: bool to Student").unwrap();
    assert!(tse.views_unaffected_except("A").unwrap());
    tse.evolve_cmd("A", "delete_attribute register from Student").unwrap();
    assert!(tse.views_unaffected_except("A").unwrap());
    tse.evolve_cmd("A", "delete_edge Student - TA").unwrap();
    assert!(tse.views_unaffected_except("A").unwrap());
    // And B can still evolve independently afterwards.
    tse.evolve_cmd("B", "add_attribute email: str to Person").unwrap();
    assert!(tse.views_unaffected_except("B").unwrap());
}

#[test]
fn repeating_a_change_folds_onto_duplicates() {
    let mut tse = university();
    tse.create_view("A", &["Person", "Student"]).unwrap();
    tse.create_view("B", &["Person", "Student"]).unwrap();
    let classes_before = tse.db().schema().live_class_count();
    tse.evolve_cmd("A", "delete_attribute gpa from Student").unwrap();
    let classes_mid = tse.db().schema().live_class_count();
    // The same change for B re-derives identical classes → all duplicates.
    let report = tse.evolve_cmd("B", "delete_attribute gpa from Student").unwrap();
    assert!(report.duplicates_folded >= 1, "report: {report:?}");
    assert_eq!(tse.db().schema().live_class_count(), classes_mid, "no new live classes for B");
    assert!(classes_mid > classes_before);
}

#[test]
fn version_chain_remains_fully_operational() {
    let mut tse = university();
    let v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
    let o = tse.create(v1, "Student", &[("name", "x".into())]).unwrap();
    let v2 = tse.evolve_cmd("VS", "add_attribute a1: int to Student").unwrap().view;
    let v3 = tse.evolve_cmd("VS", "add_attribute a2: int to Student").unwrap().view;
    let v4 = tse.evolve_cmd("VS", "delete_attribute a1 from Student").unwrap().view;

    // Every version answers queries against the same shared object.
    assert!(tse.get(v1, o, "Student", "a1").is_err());
    assert_eq!(tse.get(v2, o, "Student", "a1").unwrap(), Value::Int(0));
    tse.set(v3, o, "Student", &[("a1", Value::Int(5)), ("a2", Value::Int(7))]).unwrap();
    assert_eq!(tse.get(v2, o, "Student", "a1").unwrap(), Value::Int(5));
    assert!(tse.get(v4, o, "Student", "a1").is_err(), "a1 hidden in v4");
    assert_eq!(tse.get(v4, o, "Student", "a2").unwrap(), Value::Int(7));
    assert_eq!(tse.views().versions("VS").unwrap().len(), 4);
}

#[test]
fn rename_class_is_view_local() {
    let mut tse = university();
    let v1 = tse.create_view("A", &["Person", "Student"]).unwrap();
    tse.create_view("B", &["Person", "Student"]).unwrap();
    let o = tse.create(v1, "Student", &[("name", "x".into())]).unwrap();

    let v2 = tse.evolve_cmd("A", "rename_class Student to Pupil").unwrap().view;
    // New name works in the new version, old name is gone there…
    assert_eq!(tse.get(v2, o, "Pupil", "name").unwrap(), Value::Str("x".into()));
    assert!(tse.get(v2, o, "Student", "name").is_err());
    // …the old version and the other family are untouched.
    assert_eq!(tse.get(v1, o, "Student", "name").unwrap(), Value::Str("x".into()));
    assert!(tse.views_unaffected_except("A").unwrap());
    // Collisions and unknown names are rejected.
    assert!(tse.evolve_cmd("A", "rename_class Pupil to Person").is_err());
    assert!(tse.evolve_cmd("A", "rename_class Ghost to Thing").is_err());
    // Renaming back to the global name clears the alias.
    let v3 = tse.evolve_cmd("A", "rename_class Pupil to Student").unwrap().view;
    assert!(tse.view(v3).unwrap().renames.is_empty());
}

#[test]
fn a_failing_macro_rolls_back_everything() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let classes_before = tse.db().schema().class_count();
    let versions_before = tse.views().versions("VS").unwrap().len();

    // insert_class is a macro: its first primitive (add_class) succeeds and
    // its second (add_edge TA under the new class… sup/sub reversed to force
    // a cycle error) fails — the whole macro rolls back, including the
    // intermediate version its first primitive registered.
    let bad = SchemaChange::InsertClass {
        name: "Mid".into(),
        sup: "TA".into(),
        sub: "Person".into(), // Person is an ancestor of TA → add_edge rejects
    };
    assert!(tse.evolve("VS", &bad).is_err());
    assert_eq!(tse.db().schema().class_count(), classes_before, "no leftover classes");
    assert_eq!(tse.views().versions("VS").unwrap().len(), versions_before, "no leftover versions");
    assert!(tse.telemetry().counter("evolve.rollbacks") >= 1);
    // The rolled-back system still evolves normally afterwards.
    tse.evolve_cmd("VS", "add_class Ok connected_to Person").unwrap();
}

/// The bare system's counterpart of `crash_recovery.rs`'s
/// `clean_phase_failures_roll_back_to_byte_identical_state`: a change that
/// fails cleanly in any phase drops its fork, so the system encodes to the
/// same bytes as before it and the next change succeeds.
/// What a change must leave alone in the store it shares with the live
/// system: the record write counters and the segments. A change adds
/// capacity and moves no data, so it writes nothing there.
fn store_footprint(tse: &TseSystem) -> ([u64; 4], Vec<(SegmentId, String)>) {
    let stats = tse.db().store_stats();
    let counts =
        [stats.records_allocated, stats.records_freed, stats.record_writes, stats.record_moves];
    (counts, tse.db().store().segments())
}

#[test]
fn clean_phase_failures_drop_the_fork_byte_identically() {
    // add_edge's script routes the union class it derives (`RouteUnion`),
    // so a failure after classification drops a fork whose policy grew.
    let changes = ["add_attribute register: bool = false to Person", "add_edge SupportStaff - TA"];
    for site in ["evolve.translate", "evolve.classify", "evolve.view_regen", "evolve.swap_in"] {
        for command in changes {
            let (mut tse, _) = staff_system();
            let before = tse.encode();
            let footprint = store_footprint(&tse);
            tse.failpoints().arm(site, 1, FailAction::Error);
            let err = tse.evolve_cmd("VS", command).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{site}, {command}: {err}");
            assert_eq!(tse.encode(), before, "{site}, {command}");
            assert_eq!(store_footprint(&tse), footprint, "{site}, {command}");
            assert_eq!(tse.telemetry().counter("evolve.rollbacks"), 1, "{site}, {command}");

            tse.evolve_cmd("VS", command).unwrap();
            assert_ne!(tse.encode(), before, "{site}, {command}");
        }
    }
    let (mut tse, _) = staff_system();
    tse.evolve_cmd("VS", changes[1]).unwrap();
    assert!(!tse.policy().union_routes.is_empty(), "add_edge routes a union");
}

/// A simulated crash drops the fork as a clean failure does: the system is
/// unchanged, even when the crash hits a composite macro after its first
/// primitive registered a version. An in-memory system has no log to
/// disagree with, so its next change runs, and lands as on a twin that
/// never crashed (a durable system poisons its log instead:
/// `crash_recovery.rs`).
#[test]
fn a_crash_leaves_the_system_unchanged_and_the_next_change_runs() {
    let mut tse = university();
    tse.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let mut twin = university();
    twin.create_view("VS", &["Person", "Student", "TA"]).unwrap();
    let before = tse.encode();
    // insert_class = add_class, then add_edge: crash in the second's
    // classification.
    tse.failpoints().arm("evolve.classify", 2, FailAction::Crash);
    let insert =
        SchemaChange::InsertClass { name: "Mid".into(), sup: "Person".into(), sub: "Student".into() };
    let err = tse.evolve("VS", &insert).unwrap_err();
    assert!(err.to_string().contains("simulated crash"), "{err}");
    assert_eq!(tse.encode(), before);

    assert_eq!(twin.encode(), before);
    tse.evolve_cmd("VS", "add_class Ok connected_to Person").unwrap();
    twin.evolve_cmd("VS", "add_class Ok connected_to Person").unwrap();
    assert_eq!(tse.encode(), twin.encode());
}

#[test]
fn type_closed_views_pull_in_referenced_classes() {
    use tse_object_model::{PropertyDef, ValueType};
    let mut tse = TseSystem::new();
    tse.define_base_class("Department", &[], vec![]).unwrap();
    let dept = tse.db().schema().by_name("Department").unwrap();
    tse.define_base_class(
        "Employee",
        &[],
        vec![PropertyDef::stored("dept", ValueType::Ref(dept), Value::Null)],
    )
    .unwrap();
    // A plain view misses the referenced class; the closed one includes it.
    let open = tse.create_view("open", &["Employee"]).unwrap();
    assert!(tse.view(open).unwrap().lookup(tse.db(), "Department").is_err());
    let closed = tse.create_view_closed("closed", &["Employee"]).unwrap();
    assert!(tse.view(closed).unwrap().lookup(tse.db(), "Department").is_ok());
    // And the closed view evolves like any other.
    let r = tse.evolve_cmd("closed", "add_attribute budget: int to Department").unwrap();
    assert_eq!(r.classes_touched, 1);
}

#[test]
fn select_where_and_update_where_pipeline() {
    let mut tse = university();
    let v = tse.create_view("VS", &["Person", "Student"]).unwrap();
    let shared = SharedSystem::from_system(tse);
    let w = shared.writer();
    let a = w.create(v, "Student", &[("age", Value::Int(17))]).unwrap();
    let b = w.create(v, "Student", &[("age", Value::Int(25))]).unwrap();
    let c = w.create(v, "Student", &[("age", Value::Int(40))]).unwrap();

    let adults = shared.session().select_where(v, "Student", "age >= 18").unwrap();
    assert_eq!(adults, vec![b, c]);
    // Update the matches in one pipeline.
    let n = w.update_where(v, "Student", "age >= 18", &[("gpa", Value::Float(4.0))]).unwrap();
    assert_eq!(n, 2);
    let r = shared.session();
    assert_eq!(r.get(v, b, "Student", "gpa").unwrap(), Value::Float(4.0));
    assert_eq!(r.get(v, a, "Student", "gpa").unwrap(), Value::Float(0.0));
    // Bad expressions are rejected.
    assert!(r.select_where(v, "Student", "age >=").is_err());
    assert!(r.select_where(v, "Student", "salary > 3").is_err());
}

#[test]
fn constraints_apply_through_views_and_survive_evolution() {
    let mut tse = university();
    let v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
    tse.set_constraint(v1, "Student", Some("gpa >= 0.0 and gpa <= 4.0")).unwrap();

    let o = tse.create(v1, "Student", &[("gpa", Value::Float(3.0))]).unwrap();
    assert!(tse.set(v1, o, "Student", &[("gpa", Value::Float(9.0))]).is_err());
    assert_eq!(tse.get(v1, o, "Student", "gpa").unwrap(), Value::Float(3.0));

    // The constraint keeps holding after a transparent schema change (it is
    // attached to the base class both versions resolve to).
    let v2 = tse.evolve_cmd("VS", "add_attribute register: bool to Student").unwrap().view;
    assert!(tse.set(v2, o, "Student", &[("gpa", Value::Float(-1.0))]).is_err());
    tse.set(v2, o, "Student", &[("gpa", Value::Float(3.9))]).unwrap();
    // Clearing it re-permits.
    tse.set_constraint(v1, "Student", None).unwrap();
    tse.set(v2, o, "Student", &[("gpa", Value::Float(9.0))]).unwrap();
}

#[test]
fn hiding_a_required_attribute_blocks_creation_footnote_4() {
    use tse_object_model::{PropertyDef, ValueType};
    // Footnote 4: default-value workarounds "don't always work especially
    // when the hidden attributes are declared as REQUIRED" — creating
    // through a view that cannot supply the REQUIRED value must fail.
    let mut tse = TseSystem::new();
    tse.define_base_class(
        "Person",
        &[],
        vec![
            PropertyDef::stored("name", ValueType::Str, Value::Null),
            PropertyDef::required("ssn", ValueType::Str, Value::Null),
        ],
    )
    .unwrap();
    let v1 = tse.create_view("VS", &["Person"]).unwrap();
    // With the REQUIRED value supplied, creation works.
    assert!(tse.create(v1, "Person", &[("ssn", "1".into())]).is_ok());
    // Delete (hide) the REQUIRED attribute in the view…
    let v2 = tse.evolve_cmd("VS", "delete_attribute ssn from Person").unwrap().view;
    // …creation through the new view can no longer satisfy it.
    assert!(tse.create(v2, "Person", &[("name", "x".into())]).is_err());
    // The old view still creates fine.
    assert!(tse.create(v1, "Person", &[("ssn", "2".into())]).is_ok());
}
