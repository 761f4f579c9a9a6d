//! Proposition A, executable (§6.x "Verification of the Translation
//! Process"): for every primitive schema-change operator, the view TSE
//! computes (`S''`) is equivalent to the schema a normal destructive
//! modification would produce (`S'`) — same classes, same computed types,
//! same extents, same generalization reachability.
//!
//! Fixed scenarios cover each operator on the university schema; the
//! property tests sweep randomized schemas and change sequences.

mod support;

use proptest::prelude::*;

use tse::core::oracle::SimpleSchema;
use tse::core::{SchemaChange, TseSystem};
use tse::object_model::{Value, ValueType};
use tse::workload::random::{random_schema, RandomSchemaParams};
use tse::workload::university::{build_university, populate_university};

/// Apply `change` through TSE and through the oracle; panic with a diff if
/// the results diverge. Returns false if the change was rejected (in which
/// case both sides must reject).
fn check_equivalence(tse: &mut TseSystem, family: &str, change: &SchemaChange) -> bool {
    let view = tse.current_view(family).unwrap().clone();
    let before = SimpleSchema::snapshot(tse.db(), &view).unwrap();

    let tse_result = tse.evolve(family, change);
    let mut direct = before.clone();
    let oracle_result = direct.apply(change);

    match (&tse_result, &oracle_result) {
        (Ok(report), Ok(())) => {
            let new_view = tse.view(report.view).unwrap().clone();
            let after = SimpleSchema::snapshot(tse.db(), &new_view).unwrap();
            assert!(
                after.equivalent(&direct).unwrap(),
                "S'' != S' for {change:?}\n{}",
                after.diff(&direct)
            );
            true
        }
        (Err(_), Err(_)) => false,
        (Ok(_), Err(e)) => panic!("TSE accepted but oracle rejected {change:?}: {e}"),
        (Err(e), Ok(())) => panic!("oracle accepted but TSE rejected {change:?}: {e}"),
    }
}

fn university_sys() -> TseSystem {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view(
        "VS",
        &["Person", "Student", "Staff", "TeachingStaff", "SupportStaff", "TA", "Grader"],
    )
    .unwrap();
    let loader = tse.create_view_all("loader").unwrap();
    populate_university(&mut tse, loader, 40).unwrap();
    tse
}

fn add_attr(class: &str, name: &str) -> SchemaChange {
    SchemaChange::AddAttribute {
        class: class.into(),
        name: name.into(),
        vtype: ValueType::Int,
        default: Value::Int(0),
        required: false,
    }
}

#[test]
fn fixed_add_attribute_matches_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(&mut tse, "VS", &add_attr("Student", "register")));
    assert!(check_equivalence(&mut tse, "VS", &add_attr("Person", "email")));
    // Rejected on both sides: the name exists.
    assert!(!check_equivalence(&mut tse, "VS", &add_attr("Student", "gpa")));
}

#[test]
fn fixed_delete_attribute_matches_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteAttribute { class: "Student".into(), name: "gpa".into() }
    ));
    // Non-local deletion rejected by both.
    assert!(!check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteAttribute { class: "TA".into(), name: "name".into() }
    ));
}

#[test]
fn fixed_method_ops_match_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddMethod {
            class: "Person".into(),
            name: "is_adult".into(),
            vtype: ValueType::Bool,
            body: tse::core::parse_expr("age >= 18").unwrap(),
        }
    ));
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteMethod { class: "Person".into(), name: "is_adult".into() }
    ));
}

#[test]
fn fixed_add_edge_matches_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddEdge { sup: "SupportStaff".into(), sub: "TA".into() }
    ));
    // Already a superclass → both reject.
    assert!(!check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddEdge { sup: "Person".into(), sub: "TA".into() }
    ));
    // Cycle → both reject.
    assert!(!check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddEdge { sup: "TA".into(), sub: "Person".into() }
    ));
}

#[test]
fn fixed_delete_edge_matches_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteEdge {
            sup: "TeachingStaff".into(),
            sub: "TA".into(),
            connected_to: Some("Staff".into()),
        }
    ));
    // Edge no longer exists → both reject.
    assert!(!check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteEdge {
            sup: "TeachingStaff".into(),
            sub: "TA".into(),
            connected_to: None,
        }
    ));
}

#[test]
fn fixed_class_ops_match_direct() {
    let mut tse = university_sys();
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddClass { name: "Intern".into(), connected_to: Some("Staff".into()) }
    ));
    assert!(check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::DeleteClass { class: "Grader".into() }
    ));
    // Duplicate class name → both reject.
    assert!(!check_equivalence(
        &mut tse,
        "VS",
        &SchemaChange::AddClass { name: "Person".into(), connected_to: None }
    ));
}

/// Derive a (possibly invalid) change from fuzz input over the current view.
fn derive_change(
    tse: &TseSystem,
    family: &str,
    op: usize,
    a: usize,
    b: usize,
    tag: usize,
) -> Option<SchemaChange> {
    let view = tse.current_view(family).ok()?.clone();
    let mut names: Vec<String> = view
        .classes
        .iter()
        .map(|c| view.local_name(tse.db(), *c).unwrap())
        .collect();
    names.sort();
    let pick = |i: usize| names[i % names.len()].clone();
    Some(match op % 7 {
        0 => add_attr(&pick(a), &format!("fz_{tag}")),
        1 => {
            // Delete some locally defined property of the picked class.
            let class = pick(a);
            let id = view.lookup(tse.db(), &class).ok()?;
            let locals = tse.db().schema().class(id).ok()?.locals().to_vec();
            let name = locals.get(b % locals.len().max(1))?.def.name.clone();
            SchemaChange::DeleteAttribute { class, name }
        }
        2 => SchemaChange::AddEdge { sup: pick(a), sub: pick(b) },
        3 => {
            let (sup, sub) = *view
                .edges
                .get(a % view.edges.len().max(1))
                .or_else(|| view.edges.first())?;
            SchemaChange::DeleteEdge {
                sup: view.local_name(tse.db(), sup).ok()?,
                sub: view.local_name(tse.db(), sub).ok()?,
                connected_to: None,
            }
        }
        4 => SchemaChange::AddClass {
            name: format!("K_{tag}"),
            connected_to: Some(pick(a)),
        },
        5 => SchemaChange::DeleteClass { class: pick(a) },
        _ => SchemaChange::RenameClass { old: pick(a), new: format!("R_{tag}") },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Randomized Proposition A: sequences of derived changes on random
    /// schemas stay equivalent to direct modification at every step.
    #[test]
    fn random_change_sequences_match_direct(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..7, 0usize..16, 0usize..16), 1..6),
    ) {
        let r = random_schema(&RandomSchemaParams {
            classes: 7,
            objects: 20,
            seed,
            ..Default::default()
        }).unwrap();
        let mut tse = r.tse;
        let mut applied = 0usize;
        for (tag, (op, a, b)) in ops.into_iter().enumerate() {
            if let Some(change) = derive_change(&tse, "R", op, a, b, tag) {
                if check_equivalence(&mut tse, "R", &change) {
                    applied += 1;
                }
            }
        }
        let _ = applied;
    }

    /// Proposition B, randomized: other views are never affected.
    #[test]
    fn random_changes_leave_other_views_untouched(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..7, 0usize..16, 0usize..16), 1..5),
    ) {
        let r = random_schema(&RandomSchemaParams {
            classes: 7,
            objects: 10,
            seed,
            ..Default::default()
        }).unwrap();
        let mut tse = r.tse;
        // A second family over a subset of classes.
        let subset: Vec<&str> = r.class_names.iter().take(4).map(|s| s.as_str()).collect();
        tse.create_view("OTHER", &subset).unwrap();
        let other_before = tse.current_view("OTHER").unwrap().clone();
        for (tag, (op, a, b)) in ops.into_iter().enumerate() {
            if let Some(change) = derive_change(&tse, "R", op, a, b, tag) {
                let _ = tse.evolve("R", &change);
                prop_assert!(tse.views_unaffected_except("R").unwrap());
                prop_assert_eq!(&other_before, tse.current_view("OTHER").unwrap());
            }
        }
    }

    /// Class facts through real evolutions: after every step of a random
    /// evolve / rename / promote sequence, every class's resolved and intent
    /// type and every `(member, class, attr)` read through the live
    /// database — whose fact cache has been warm since the first step —
    /// answer exactly as a cold twin of it (an encode/decode round trip: a
    /// fork would carry the cache along), which works everything out from
    /// scratch. (The verbatim pre-plan reader is `#[cfg(test)]` in
    /// `tse-object-model` and is compared there, over object-model-level
    /// sequences.)
    #[test]
    fn planned_reads_stay_fresh_across_random_evolutions(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..10, 0usize..16, 0usize..16), 1..5),
    ) {
        let r = random_schema(&RandomSchemaParams {
            classes: 6,
            objects: 8,
            seed,
            ..Default::default()
        }).unwrap();
        let mut tse = r.tse;
        // Reads that succeeded at the last step: their plans are cached, so
        // they are repeated even when their name has since been renamed
        // away and no type lists it any more.
        let mut hot = Vec::new();
        for (tag, (op, a, b)) in ops.into_iter().enumerate() {
            let classes: Vec<_> = tse.db().schema().class_ids().collect();
            let class = classes[a % classes.len()];
            let locals = tse.db().schema().class(class).unwrap().locals();
            let local = locals.get(b % locals.len().max(1)).map(|lp| lp.def.name.clone());
            match (op, local) {
                // Below the translator: the schema mutations an evolve is
                // built from, applied to the global schema directly.
                (7, Some(name)) => {
                    let schema = tse.db_mut().schema_mut();
                    let _ = schema.rename_local_prop(class, &name, &format!("rn_{tag}"));
                }
                (8, _) => {
                    let _ = tse.db_mut().schema_mut().rename_class(class, &format!("RC_{tag}"));
                }
                (9, Some(name)) => {
                    let schema = tse.db_mut().schema_mut();
                    let up = schema.create_base_class(&format!("UP_{tag}"), &[]).unwrap();
                    if schema.add_edge(up, class).is_ok() {
                        let _ = schema.promote_prop(class, &name, up);
                    }
                }
                _ => {
                    if let Some(change) = derive_change(&tse, "R", op, a, b, tag) {
                        let _ = tse.evolve("R", &change);
                    }
                }
            }
            let db = tse.db();
            let cold = support::assert_facts_equal_a_cold_schema(db, &format!("step {tag}"));
            let mut names = std::collections::BTreeSet::new();
            for class in cold.schema().class_ids() {
                names.extend(cold.schema().resolved_type(class).unwrap().props.keys().cloned());
            }
            let mut triples = std::mem::take(&mut hot);
            for oid in db.all_objects() {
                for class in db.schema().class_ids() {
                    triples.extend(names.iter().map(|name| (oid, class, name.clone())));
                }
            }
            for (oid, class, name) in triples {
                let warm = db.read_attr(oid, class, &name);
                prop_assert_eq!(
                    &warm,
                    &cold.read_attr(oid, class, &name),
                    "{} of {} through {}", name, oid, class
                );
                if warm.is_ok() {
                    hot.push((oid, class, name));
                }
            }
        }
    }
}
