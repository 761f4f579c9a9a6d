//! Theorem 1, executable: "any virtual class defined by our object algebra
//! is updatable in terms of the generic update operators" — randomized over
//! derivation DAGs built from all six operators.

use proptest::prelude::*;

use tse::algebra::{self, define_vc, Query, UpdatePolicy};
use tse::classifier::{classify_with, Subsumption};
use tse::core::TseSystem;
use tse::object_model::{
    BinOp, ClassId, Database, Derivation, PropKey, PropKind, Predicate, PropertyDef, Schema, Value,
    ValueType,
};
use tse::workload::trace::{generate_and_apply_trace, TraceMix};
use tse::workload::university::build_university;

/// Base schema: two sibling base classes under a common parent.
fn base() -> (Database, ClassId, ClassId, ClassId) {
    let mut db = Database::default();
    let root = db.schema_mut().create_base_class("Thing", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(root, PropertyDef::stored("rank", ValueType::Int, Value::Int(0)), None)
        .unwrap();
    let a = db.schema_mut().create_base_class("A", &[root]).unwrap();
    let b = db.schema_mut().create_base_class("B", &[root]).unwrap();
    (db, root, a, b)
}

/// Build a random single-operator layer over existing classes.
fn layer(db: &mut Database, op: usize, x: ClassId, y: ClassId, tag: usize) -> Option<ClassId> {
    let name = format!("V{tag}");
    let query = match op % 6 {
        0 => Query::select(Query::class(x), Predicate::cmp("rank", BinOp::Ge, 0)),
        1 => Query::hide(Query::class(x), &[]),
        2 => Query::refine(
            Query::class(x),
            vec![PropertyDef::stored(&format!("extra{tag}"), ValueType::Int, Value::Int(0))],
        ),
        3 => Query::union(Query::class(x), Query::class(y)),
        4 => Query::difference(Query::class(x), Query::class(y)),
        _ => Query::intersect(Query::class(x), Query::class(y)),
    };
    let id = define_vc(db, &name, &query).ok()?;
    let placement = classify_with(&mut Subsumption::default(), db, id).ok()?;
    Some(placement.class)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every class in a random derivation DAG supports create / set / read /
    /// add / remove / delete through the generic operators, and updates made
    /// through the virtual class are observable at its origin base classes
    /// (and vice versa).
    #[test]
    fn theorem_1_every_derived_class_is_updatable(
        ops in proptest::collection::vec((0usize..6, 0usize..8, 0usize..8), 1..6),
    ) {
        let (mut db, _root, a, b) = base();
        let mut classes: Vec<ClassId> = vec![a, b];
        for (tag, (op, xi, yi)) in ops.into_iter().enumerate() {
            let x = classes[xi % classes.len()];
            let y = classes[yi % classes.len()];
            if x == y && op % 6 >= 3 {
                continue; // skip degenerate self set-ops
            }
            if let Some(id) = layer(&mut db, op, x, y, tag) {
                classes.push(id);
            }
        }
        // Allow value-closure anomalies: e.g. creating through
        // `difference(X, A)` necessarily lands in A when X's creation target
        // is inside A — §3.4 explicitly leaves this to policy.
        let policy =
            UpdatePolicy { value_closure: tse::algebra::ValueClosure::Allow, ..Default::default() };
        for &class in &classes {
            // Create through the class…
            let oid = match algebra::create(&db, &policy, class, &[("rank", Value::Int(5))]) {
                Ok(oid) => oid,
                Err(e) => return Err(TestCaseError::fail(format!("create via {class}: {e}"))),
            };
            if !db.is_member(oid, class).unwrap() {
                // Value-closure anomaly: object exists at the base but is
                // invisible through this class; nothing further to check.
                algebra::delete(&db, &[oid]).unwrap();
                continue;
            }
            // …it reaches the origin base classes:
            let origins = algebra::origin_classes(db.schema(), class).unwrap();
            let targets = algebra::creation_targets(&db, &policy, class).unwrap();
            for t in &targets {
                prop_assert!(origins.contains(t));
                prop_assert!(db.is_member(oid, *t).unwrap());
            }
            // set through the class is visible at a base target:
            algebra::set(&db, &policy, &[oid], class, &[("rank", Value::Int(9))]).unwrap();
            if !db.is_member(oid, class).unwrap() {
                // The set pushed it out of a select class (allowed policy).
                algebra::delete(&db, &[oid]).unwrap();
                continue;
            }
            prop_assert_eq!(db.read_attr(oid, targets[0], "rank").unwrap(), Value::Int(9));
            // and a write at the base is visible through the class:
            db.write_attr(oid, targets[0], "rank", Value::Int(11)).unwrap();
            prop_assert_eq!(db.read_attr(oid, class, "rank").unwrap(), Value::Int(11));
            // remove / delete:
            algebra::remove(&db, &policy, &[oid], class).unwrap();
            prop_assert!(!db.is_member(oid, class).unwrap(), "removed from {class}");
            prop_assert!(db.object_exists(oid), "remove is not delete");
            algebra::delete(&db, &[oid]).unwrap();
            prop_assert!(!db.object_exists(oid));
        }
    }

    /// Classified classes always satisfy the type-agreement invariant:
    /// hierarchy-resolved type == operator-intent type. And each class's
    /// cached value sensitivity agrees with a recursion over the
    /// derivations, whatever mix of the six operators built it.
    #[test]
    fn classification_preserves_type_agreement(
        ops in proptest::collection::vec((0usize..6, 0usize..8, 0usize..8), 1..8),
    ) {
        let (mut db, _root, a, b) = base();
        let mut classes: Vec<ClassId> = vec![a, b];
        for (tag, (op, xi, yi)) in ops.into_iter().enumerate() {
            let x = classes[xi % classes.len()];
            let y = classes[yi % classes.len()];
            if x == y && op % 6 >= 3 {
                continue;
            }
            if let Some(id) = layer(&mut db, op, x, y, tag) {
                classes.push(id);
            }
        }
        for &class in &classes {
            let resolved = db.schema().type_keys(class).unwrap();
            let intent = tse::algebra::intent_type(&db, class).unwrap();
            prop_assert_eq!(resolved, intent, "type agreement at {}", class);
            prop_assert_eq!(
                db.schema().value_sensitive(class).unwrap(), select_below(db.schema(), class),
                "value sensitivity of {}", class
            );
        }
    }
}

/// The university of Figure 2 under one whole-schema view.
fn university() -> TseSystem {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all("U").unwrap();
    tse
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Type agreement holds through evolution, not only after one layering:
    /// after every change of a seeded Sjøberg-mix trace, every live virtual
    /// class resolves to its operator-intent type. The classifier places a
    /// new class by its candidates' intent types on the strength of this.
    #[test]
    fn type_agreement_holds_after_every_change_of_a_trace(seed in 0u64..1_000_000) {
        let mix = TraceMix::default();
        let trace = generate_and_apply_trace(&mut university(), "U", 100, &mix, seed).unwrap();
        let mut tse = university();
        for (i, change) in trace.changes.iter().enumerate() {
            tse.evolve("U", change).unwrap();
            let db = tse.db();
            for class in db.schema().class_ids() {
                if db.schema().is_retired(class) || db.schema().class(class).unwrap().is_base() {
                    continue;
                }
                let resolved = db.schema().type_keys(class).unwrap();
                let intent = tse::algebra::intent_type(db, class).unwrap();
                prop_assert_eq!(resolved, intent, "change {} ({:?}): {}", i, change, class);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The classified order is the is-a order: after every change of a
    /// seeded Sjøberg-mix trace (100 changes, 8 cases, drawn as above), for
    /// live classes `a ≠ b`, `a` is strictly below `b` — extent by the
    /// prover and type by intent, not both ways — exactly when
    /// `is_sub_of(a, b)`. Only a pair the prover relates can be strictly
    /// ordered, so the pairs it relates are compared, and for the rest no
    /// is-a pair may exist: each proper ancestor of `a` (by the walk
    /// `is_sub_of` is held against in
    /// `write_facts_agree_with_their_references_…`) must be related to it.
    #[test]
    fn strict_order_is_the_is_a_order_after_every_change_of_a_trace(seed in 0u64..1_000_000) {
        let mix = TraceMix::default();
        let trace = generate_and_apply_trace(&mut university(), "U", 100, &mix, seed).unwrap();
        let mut tse = university();
        for (i, change) in trace.changes.iter().enumerate() {
            tse.evolve("U", change).unwrap();
            // The prover as the next classification will see it: advanced
            // over classes created since the last one.
            let mut prover = tse.prover().clone();
            let db = tse.db();
            let schema = db.schema();
            prover.advance(schema);
            let live = |c: &ClassId| !schema.is_retired(*c);
            let types: Vec<_> = schema
                .class_ids()
                .map(|c| live(&c).then(|| algebra::intent_type(db, c).unwrap()))
                .collect();
            let mut seen = vec![false; schema.class_count()];
            for a in schema.class_ids().filter(live) {
                let ta = types[a.0 as usize].as_ref().unwrap();
                let related = prover.related(a);
                // Each related pair once, both ways.
                for &b in related.iter().filter(|b| **b > a && live(b)) {
                    let tb = types[b.0 as usize].as_ref().unwrap();
                    let below = prover.subsumes(a, b) && algebra::type_includes(ta, tb);
                    let above = prover.subsumes(b, a) && algebra::type_includes(tb, ta);
                    prop_assert_eq!(
                        below && !above, schema.is_sub_of(a, b),
                        "seed {} change {} ({:?}): {} below {}", seed, i, change, a, b
                    );
                    prop_assert_eq!(
                        above && !below, schema.is_sub_of(b, a),
                        "seed {} change {} ({:?}): {} below {}", seed, i, change, b, a
                    );
                }
                for b in proper_ancestors(schema, a, &mut seen).into_iter().filter(live) {
                    prop_assert!(
                        related.binary_search(&b).is_ok(),
                        "seed {} change {} ({:?}): {} is-a {}, unrelated by the prover",
                        seed, i, change, a, b
                    );
                }
            }
        }
    }
}

/// The classes `from` reaches by walking up the direct supers, itself
/// excluded. `seen` is all false, and is left so.
fn proper_ancestors(schema: &Schema, from: ClassId, seen: &mut [bool]) -> Vec<ClassId> {
    let mut reached = Vec::new();
    let mut stack = schema.class(from).unwrap().direct_supers().to_vec();
    while let Some(class) = stack.pop() {
        if !std::mem::replace(&mut seen[class.0 as usize], true) {
            reached.push(class);
            stack.extend(schema.class(class).unwrap().direct_supers());
        }
    }
    for class in &reached {
        seen[class.0 as usize] = false;
    }
    reached
}

/// The classes `from` reaches by walking up the direct supers, itself
/// included, by class id: the is-a test as `Schema::is_sub_of` answered it
/// before the fact cache kept ancestor sets.
fn reached_upward(schema: &Schema, from: ClassId) -> Vec<bool> {
    let mut seen = vec![false; schema.class_count()];
    let mut stack = vec![from];
    while let Some(class) = stack.pop() {
        if !std::mem::replace(&mut seen[class.0 as usize], true) {
            stack.extend(schema.class(class).unwrap().direct_supers());
        }
    }
    seen
}

/// Whether a `Select` is anywhere in `class`'s derivation closure, by
/// recursion over the derivations.
fn select_below(schema: &Schema, class: ClassId) -> bool {
    match schema.class(class).unwrap().derivation() {
        None => false,
        Some(Derivation::Select { .. }) => true,
        Some(derivation) => derivation.sources().into_iter().any(|src| select_below(schema, src)),
    }
}

/// The REQUIRED attributes defaulting to null, read off the resolved type
/// name by name, the way a create checked them before the fact cache kept
/// them.
fn required_by_name(schema: &Schema, class: ClassId) -> Vec<PropKey> {
    let resolved = schema.resolved_type(class).unwrap();
    let mut required = Vec::new();
    for name in resolved.props.keys() {
        let Ok(candidate) = resolved.get_unique(class, name) else { continue };
        let (_, def) = schema.def_by_key(candidate.key).unwrap();
        if let PropKind::Stored { required: true, default: Value::Null, .. } = &def.kind {
            required.push(candidate.key);
        }
    }
    required
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The write path's facts agree with their references through
    /// evolution: after every change of a seeded Sjøberg-mix trace, the
    /// is-a test of every class pair agrees with a walk up the supers, and
    /// every class's value sensitivity and REQUIRED keys with a recursion
    /// over its derivations and a reading of its resolved type.
    #[test]
    fn write_facts_agree_with_their_references_after_every_change_of_a_trace(
        seed in 0u64..1_000_000,
    ) {
        // The university plus a class with a REQUIRED attribute, so that
        // the changes derive classes that must be given it.
        let university = || {
            let (mut tse, _) = build_university().unwrap();
            let badge = PropertyDef::required("code", ValueType::Str, Value::Null);
            tse.define_base_class("Badge", &["Staff"], vec![badge]).unwrap();
            tse.create_view_all("U").unwrap();
            tse
        };
        let mix = TraceMix::default();
        let trace = generate_and_apply_trace(&mut university(), "U", 100, &mix, seed).unwrap();
        let mut tse = university();
        let badge = tse.db().schema().by_name("Badge").unwrap();
        prop_assert_eq!(required_by_name(tse.db().schema(), badge).len(), 1);
        for (i, change) in trace.changes.iter().enumerate() {
            tse.evolve("U", change).unwrap();
            let schema = tse.db().schema();
            for sub in schema.class_ids() {
                let reached = reached_upward(schema, sub);
                for sup in schema.class_ids() {
                    prop_assert_eq!(
                        schema.is_sub_of(sub, sup), reached[sup.0 as usize],
                        "change {} ({:?}): {} below {}", i, change, sub, sup
                    );
                }
                prop_assert_eq!(
                    schema.value_sensitive(sub).unwrap(), select_below(schema, sub),
                    "change {} ({:?}): value sensitivity of {}", i, change, sub
                );
                prop_assert_eq!(
                    &schema.required_keys(sub).unwrap()[..], &required_by_name(schema, sub)[..],
                    "change {} ({:?}): REQUIRED keys of {}", i, change, sub
                );
            }
        }
    }
}

#[test]
fn union_substitution_policy_matches_section_6_5_4() {
    // The create on a union class replacing a source class must propagate to
    // the *substituted* class, so the subclass extent is not polluted.
    let (mut db, _root, a, b) = base();
    let u = define_vc(&mut db, "U", &Query::union(Query::class(a), Query::class(b))).unwrap();
    classify_with(&mut Subsumption::default(), &mut db, u).unwrap();
    let mut policy = UpdatePolicy::default();
    policy.union_routes.insert(u, tse::algebra::UnionRoute::First);
    let oid = algebra::create(&db, &policy, u, &[]).unwrap();
    assert!(db.is_member(oid, a).unwrap(), "routed to the substituted (first) source");
    assert!(
        !db.is_member(oid, b).unwrap(),
        "creating through the superclass must not pollute the sibling subclass"
    );
}
