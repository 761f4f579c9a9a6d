//! Object-model invariants under randomized operation sequences:
//! membership closure, extent consistency for every operator, and
//! attribute-write round-trips through arbitrary perspectives.

use proptest::prelude::*;

use tse_object_model::{
    ClassId, ClassKind, CmpOp, Database, Derivation, Oid, Predicate, PropertyDef, Value,
    ValueType,
};

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Add(usize, usize),
    Remove(usize, usize),
    Delete(usize),
    Write(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4).prop_map(Op::Create),
        (0usize..32, 0usize..4).prop_map(|(o, c)| Op::Add(o, c)),
        (0usize..32, 0usize..4).prop_map(|(o, c)| Op::Remove(o, c)),
        (0usize..32).prop_map(Op::Delete),
        (0usize..32, -50i64..50).prop_map(|(o, v)| Op::Write(o, v)),
    ]
}

/// Base diamond + one virtual class per operator.
fn build() -> (Database, Vec<ClassId>, Vec<ClassId>) {
    let mut db = Database::default();
    let top = db.schema_mut().create_base_class("Top", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(top, PropertyDef::stored("score", ValueType::Int, Value::Int(0)), None)
        .unwrap();
    let left = db.schema_mut().create_base_class("Left", &[top]).unwrap();
    let right = db.schema_mut().create_base_class("Right", &[top]).unwrap();
    let bottom = db.schema_mut().create_base_class("Bottom", &[left, right]).unwrap();
    let bases = vec![top, left, right, bottom];

    let s = db.schema_mut();
    let virtuals = vec![
        s.create_virtual_class(
            "VSel",
            Derivation::Select { src: top, pred: Predicate::cmp("score", CmpOp::Ge, 10) },
        )
        .unwrap(),
        s.create_virtual_class("VHide", Derivation::Hide { src: left, hidden: vec![] }).unwrap(),
        s.create_refine_class(
            "VRef",
            right,
            vec![PropertyDef::stored("extra", ValueType::Int, Value::Int(0))],
            vec![],
        )
        .unwrap(),
        s.create_virtual_class("VUni", Derivation::Union { a: left, b: right }).unwrap(),
        s.create_virtual_class("VDiff", Derivation::Difference { a: top, b: left }).unwrap(),
        s.create_virtual_class("VInt", Derivation::Intersect { a: left, b: right }).unwrap(),
    ];
    (db, bases, virtuals)
}

fn check_invariants(db: &Database, bases: &[ClassId], virtuals: &[ClassId]) {
    let all_oids: Vec<_> = db.all_objects().collect();
    // 1. Extent = membership = the uncached reference, for every class.
    for &c in bases.iter().chain(virtuals) {
        let ext = db.extent(c).unwrap();
        assert_eq!(ext.as_ref(), &db.extent_uncached(c).unwrap(), "cached extent of {c} is stale");
        for o in &all_oids {
            assert_eq!(
                ext.contains(o),
                db.is_member(*o, c).unwrap(),
                "extent/membership mismatch at {c} for {o}"
            );
        }
    }
    // 2. Subclass extents are subsets along every is-a edge.
    for &c in bases.iter().chain(virtuals) {
        let ext = db.extent(c).unwrap();
        for sup in db.schema().class(c).unwrap().direct_supers() {
            let sup_ext = db.extent(*sup).unwrap();
            assert!(
                ext.is_subset(&sup_ext),
                "extent({c}) ⊄ extent({sup})"
            );
        }
    }
    // 3. Operator semantics hold extensionally.
    for &v in virtuals {
        let ext = db.extent(v).unwrap();
        match db.schema().class(v).unwrap().kind.clone() {
            ClassKind::Virtual(Derivation::Select { src, pred }) => {
                let src_ext = db.extent(src).unwrap();
                for o in src_ext.iter() {
                    let score = db.read_attr(*o, src, "score").unwrap();
                    let expected = matches!(score, Value::Int(i) if i >= 10);
                    assert_eq!(ext.contains(o), expected, "select semantics at {o}");
                    let _ = &pred;
                }
            }
            ClassKind::Virtual(Derivation::Hide { src, .. })
            | ClassKind::Virtual(Derivation::Refine { src, .. }) => {
                assert_eq!(ext.as_ref(), db.extent(src).unwrap().as_ref());
            }
            ClassKind::Virtual(Derivation::Union { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.union(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Virtual(Derivation::Difference { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.difference(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Virtual(Derivation::Intersect { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.intersection(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Base => unreachable!(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn membership_and_extent_invariants_hold_under_churn(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let (db, bases, virtuals) = build();
        let mut live: Vec<tse_object_model::Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Create(c) => {
                    live.push(db.create_object(bases[c % bases.len()], &[]).unwrap());
                }
                Op::Add(o, c) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        db.add_to_class(oid, bases[c % bases.len()]).unwrap();
                    }
                }
                Op::Remove(o, c) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        let _ = db.remove_from_class(oid, bases[c % bases.len()]);
                    }
                }
                Op::Delete(o) => {
                    if !live.is_empty() {
                        let oid = live.remove(o % live.len());
                        db.delete_object(oid).unwrap();
                    }
                }
                Op::Write(o, v) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        // Write through the most specific direct class.
                        let via = *db.direct_classes(oid).unwrap().iter().next().unwrap_or(&bases[0]);
                        if db.direct_classes(oid).unwrap().is_empty() {
                            continue;
                        }
                        db.write_attr(oid, via, "score", Value::Int(v)).unwrap();
                        prop_assert_eq!(db.read_attr(oid, via, "score").unwrap(), Value::Int(v));
                    }
                }
            }
            check_invariants(&db, &bases, &virtuals);
        }
    }

    #[test]
    fn snapshot_preserves_all_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..25),
    ) {
        let (db, bases, virtuals) = build();
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Create(c) => live.push(db.create_object(bases[c % bases.len()], &[]).unwrap()),
                Op::Write(o, v) if !live.is_empty() => {
                    let oid = live[o % live.len()];
                    if let Some(via) = db.direct_classes(oid).unwrap().iter().next().copied() {
                        db.write_attr(oid, via, "score", Value::Int(v)).unwrap();
                    }
                }
                _ => {}
            }
        }
        let restored =
            tse_object_model::decode_database(tse_object_model::encode_database(&db)).unwrap();
        check_invariants(&restored, &bases, &virtuals);
        for &c in bases.iter().chain(&virtuals) {
            let (ea, eb) = (db.extent(c).unwrap(), restored.extent(c).unwrap());
            prop_assert_eq!(ea.as_ref(), eb.as_ref());
        }
        for o in db.all_objects() {
            if let Some(via) = db.direct_classes(o).unwrap().iter().next().copied() {
                prop_assert_eq!(
                    db.read_attr(o, via, "score").unwrap(),
                    restored.read_attr(o, via, "score").unwrap()
                );
            }
        }
    }
}

/// Late binding: `invoke` dispatches to the object's most specific
/// overriding definition, while `read_attr` stays perspective-static.
#[test]
fn dynamic_dispatch_picks_the_overriding_definition() {
    use tse_object_model::MethodBody;
    let mut db = Database::default();
    let animal = db.schema_mut().create_base_class("Animal", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(
            animal,
            PropertyDef::method(
                "speak",
                ValueType::Str,
                MethodBody::Const(Value::Str("...".into())),
            ),
            None,
        )
        .unwrap();
    let dog = db.schema_mut().create_base_class("Dog", &[animal]).unwrap();
    db.schema_mut()
        .add_local_prop(
            dog,
            PropertyDef::method(
                "speak",
                ValueType::Str,
                MethodBody::Const(Value::Str("woof".into())),
            ),
            None,
        )
        .unwrap();

    let generic = db.create_object(animal, &[]).unwrap();
    let rex = db.create_object(dog, &[]).unwrap();

    // Static (perspective) resolution: the Animal view of rex runs the
    // Animal definition…
    assert_eq!(db.read_attr(rex, animal, "speak").unwrap(), Value::Str("...".into()));
    // …dynamic dispatch runs Dog's override even through Animal.
    assert_eq!(db.invoke(rex, animal, "speak").unwrap(), Value::Str("woof".into()));
    assert_eq!(db.invoke(generic, animal, "speak").unwrap(), Value::Str("...".into()));
    // Unknown names still error.
    assert!(db.invoke(rex, animal, "fly").is_err());
}

/// Incomparable overriding definitions from two direct classes are
/// ambiguous under dynamic dispatch (the paper defers such conflicts to
/// user renaming).
#[test]
fn dynamic_dispatch_reports_cross_class_ambiguity() {
    use tse_object_model::MethodBody;
    let mut db = Database::default();
    let thing = db.schema_mut().create_base_class("Thing", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(
            thing,
            PropertyDef::method("id", ValueType::Str, MethodBody::Const(Value::Str("t".into()))),
            None,
        )
        .unwrap();
    let a = db.schema_mut().create_base_class("A", &[thing]).unwrap();
    let b = db.schema_mut().create_base_class("B", &[thing]).unwrap();
    for (c, v) in [(a, "a"), (b, "b")] {
        db.schema_mut()
            .add_local_prop(
                c,
                PropertyDef::method("id", ValueType::Str, MethodBody::Const(Value::Str(v.into()))),
                None,
            )
            .unwrap();
    }
    let o = db.create_object(a, &[]).unwrap();
    db.add_to_class(o, b).unwrap();
    // Through Thing, the object has two incomparable overrides.
    assert!(matches!(
        db.invoke(o, thing, "id"),
        Err(tse_object_model::ModelError::AmbiguousProperty { .. })
    ));
    // Each perspective still works statically.
    assert_eq!(db.read_attr(o, a, "id").unwrap(), Value::Str("a".into()));
    assert_eq!(db.read_attr(o, b, "id").unwrap(), Value::Str("b".into()));
}

/// §3.3's type-specific update behaviour: class constraints are checked on
/// create and set, refusing violating updates — and survive snapshots.
#[test]
fn class_constraints_refuse_updates() {
    let mut db = Database::default();
    let acct = db.schema_mut().create_base_class("Account", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(acct, PropertyDef::stored("balance", ValueType::Int, Value::Int(0)), None)
        .unwrap();
    db.schema_mut()
        .set_class_constraint(acct, Some(Predicate::cmp("balance", CmpOp::Ge, 0)))
        .unwrap();

    // Valid create and update pass.
    let o = db.create_object(acct, &[("balance", Value::Int(100))]).unwrap();
    db.write_attr(o, acct, "balance", Value::Int(20)).unwrap();
    // Violating create is refused and leaves nothing behind.
    let n = db.object_count();
    assert!(db.create_object(acct, &[("balance", Value::Int(-5))]).is_err());
    assert_eq!(db.object_count(), n);
    // Violating update is refused and rolled back.
    assert!(db.write_attr(o, acct, "balance", Value::Int(-1)).is_err());
    assert_eq!(db.read_attr(o, acct, "balance").unwrap(), Value::Int(20));

    // The constraint survives a database snapshot.
    let restored =
        tse_object_model::decode_database(tse_object_model::encode_database(&db)).unwrap();
    assert!(restored.write_attr(o, acct, "balance", Value::Int(-1)).is_err());
    restored.write_attr(o, acct, "balance", Value::Int(7)).unwrap();

    // Clearing the constraint re-permits the update.
    db.schema_mut().set_class_constraint(acct, None).unwrap();
    db.write_attr(o, acct, "balance", Value::Int(-1)).unwrap();
}

/// A class constraint judges a new object once all its initial values are
/// in, not the defaults of the values still to come: `age >= 18` with a
/// default of 0 must admit `[name, age = 30]` in either order.
#[test]
fn class_constraints_judge_a_complete_new_object() {
    let mut db = Database::default();
    let adult = db.schema_mut().create_base_class("Adult", &[]).unwrap();
    let s = db.schema_mut();
    s.add_local_prop(adult, PropertyDef::stored("name", ValueType::Str, Value::Null), None).unwrap();
    s.add_local_prop(adult, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None).unwrap();
    s.set_class_constraint(adult, Some(Predicate::cmp("age", CmpOp::Ge, 18))).unwrap();

    let (name, age) = (("name", Value::Str("ann".into())), ("age", Value::Int(30)));
    let age_first = db.create_object(adult, &[age.clone(), name.clone()]).unwrap();
    let name_first = db.create_object(adult, &[name.clone(), age]).unwrap();
    for o in [age_first, name_first] {
        assert_eq!(db.read_attr(o, adult, "age").unwrap(), Value::Int(30));
        assert_eq!(db.read_attr(o, adult, "name").unwrap(), Value::Str("ann".into()));
    }

    // A violating create fails — by an explicit value or by the default —
    // and leaves no half-created object.
    let before = db.object_count();
    let next = Oid(name_first.0 + 1);
    let refused = db.create_object(adult, &[name.clone(), ("age", Value::Int(17))]);
    assert!(refused.unwrap_err().to_string().contains("class constraint of Adult"));
    assert!(!db.object_exists(next));
    assert!(db.create_object(adult, &[name]).is_err());
    assert_eq!(db.object_count(), before);
}
