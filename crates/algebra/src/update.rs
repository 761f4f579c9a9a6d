//! Generic update operators over base and virtual classes (§3.3–3.4).
//!
//! `create`, `delete`, `add`, `remove` and `set` work uniformly on any class.
//! Applied to a virtual class, the update is rewritten onto the source
//! classes (recursively down to the origin base classes), following the
//! per-operator rules of §3.4:
//!
//! * select / difference — propagate to the (first) source; creations or
//!   value updates that violate the predicate raise the **value-closure
//!   problem**, handled by a policy (reject or allow);
//! * hide — propagate to the source (hidden attributes take defaults);
//! * refine — propagate to the source; `set` of a refining attribute is
//!   absorbed by the refine class's slice (the database layer routes it);
//! * union — `create`/`add` need a routing decision (first, second or both
//!   sources; TSE routes to the *substituted* source class, §6.5.4);
//!   `delete`/`remove`/`set` go to both sources where the object is a member;
//! * intersect — `create`/`add` go to both sources; `remove` is ambiguous
//!   and takes a policy.

use std::collections::BTreeMap;

use tse_object_model::{
    ClassId, ClassKind, Database, Derivation, ModelError, ModelResult, Oid, Value,
};

/// Where union-class creations/additions are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnionRoute {
    /// Propagate to the first source class (the class a union virtual class
    /// *substitutes* in TSE-generated views).
    #[default]
    First,
    /// Propagate to the second source class.
    Second,
    /// Propagate to both source classes.
    Both,
}

/// How `remove` on an intersection class is disambiguated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectRemove {
    /// Remove from both sources (the object fully loses the intersection).
    #[default]
    Both,
    /// Remove from the first source only.
    First,
    /// Remove from the second source only.
    Second,
}

/// Value-closure handling for select/difference classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueClosure {
    /// Reject updates that would produce an instance invisible to the class
    /// it was created/added through.
    #[default]
    Reject,
    /// Allow them (the object silently falls out of the virtual class).
    Allow,
}

/// Update-propagation policy.
#[derive(Debug, Clone, Default)]
pub struct UpdatePolicy {
    /// Value-closure behaviour.
    pub value_closure: ValueClosure,
    /// Per-union-class routing overrides (set by the TSE translator to the
    /// substituted source class).
    pub union_routes: BTreeMap<ClassId, UnionRoute>,
    /// Default route when no override exists.
    pub default_union_route: UnionRoute,
    /// Intersection-remove behaviour.
    pub intersect_remove: IntersectRemove,
}

impl UpdatePolicy {
    fn route_for(&self, class: ClassId) -> UnionRoute {
        self.union_routes.get(&class).copied().unwrap_or(self.default_union_route)
    }
}

/// The base classes a `create`/`add` on `class` propagates to.
pub fn creation_targets(
    db: &Database,
    policy: &UpdatePolicy,
    class: ClassId,
) -> ModelResult<Vec<ClassId>> {
    let mut out = Vec::new();
    collect_targets(db, policy, class, &mut out)?;
    out.dedup();
    Ok(out)
}

fn collect_targets(
    db: &Database,
    policy: &UpdatePolicy,
    class: ClassId,
    out: &mut Vec<ClassId>,
) -> ModelResult<()> {
    match &db.schema().class(class)?.kind {
        ClassKind::Base => {
            if !out.contains(&class) {
                out.push(class);
            }
        }
        ClassKind::Virtual(d) => match *d {
            Derivation::Select { src, .. }
            | Derivation::Hide { src, .. }
            | Derivation::Refine { src, .. } => collect_targets(db, policy, src, out)?,
            Derivation::Difference { a, .. } => collect_targets(db, policy, a, out)?,
            Derivation::Union { a, b } => match policy.route_for(class) {
                UnionRoute::First => collect_targets(db, policy, a, out)?,
                UnionRoute::Second => collect_targets(db, policy, b, out)?,
                UnionRoute::Both => {
                    collect_targets(db, policy, a, out)?;
                    collect_targets(db, policy, b, out)?;
                }
            },
            Derivation::Intersect { a, b } => {
                collect_targets(db, policy, a, out)?;
                collect_targets(db, policy, b, out)?;
            }
        },
    }
    Ok(())
}

/// `( <class> create [assignments] )`: create an object as an instance of
/// `class` (base or virtual) with the given attribute values.
pub fn create(
    db: &Database,
    policy: &UpdatePolicy,
    class: ClassId,
    values: &[(&str, Value)],
) -> ModelResult<Oid> {
    let targets = creation_targets(db, policy, class)?;
    let first = *targets
        .first()
        .ok_or_else(|| ModelError::Invalid("no creation target".into()))?;

    // Values resolvable at the first base target are set at creation (this
    // satisfies REQUIRED attributes); the rest are written through the
    // requested class afterwards (refine attributes, other-branch values).
    // Both parts stay borrowed: each value is cloned once, into its slice.
    let first_type = db.schema().resolved_type(first)?;
    let at_first = |(name, _): &&(&str, Value)| first_type.get_unique(first, name).is_ok();

    let oid = db.create_object(first, values.iter().filter(at_first))?;
    for t in targets.iter().skip(1) {
        db.add_to_class(oid, *t)?;
    }
    for (name, value) in values.iter().filter(|v| !at_first(v)) {
        if let Err(e) = db.write_attr(oid, class, name, value.clone()) {
            db.delete_object(oid)?;
            return Err(e);
        }
    }
    // Value closure: the created object must be visible through `class`.
    if !db.is_member(oid, class)? {
        match policy.value_closure {
            ValueClosure::Reject => {
                db.delete_object(oid)?;
                return Err(ModelError::Invalid(format!(
                    "value closure: created object does not satisfy the predicate of {class}"
                )));
            }
            ValueClosure::Allow => {}
        }
    }
    Ok(oid)
}

/// `( <set-expr> delete )`: destroy the objects entirely.
pub fn delete(db: &Database, oids: &[Oid]) -> ModelResult<()> {
    for oid in oids {
        db.delete_object(*oid)?;
    }
    Ok(())
}

/// `( <set-expr> add <class> )`: the objects acquire the type of `class`.
pub fn add(
    db: &Database,
    policy: &UpdatePolicy,
    oids: &[Oid],
    class: ClassId,
) -> ModelResult<()> {
    let targets = creation_targets(db, policy, class)?;
    for oid in oids {
        for t in &targets {
            db.add_to_class(*oid, *t)?;
        }
        if !db.is_member(*oid, class)? {
            match policy.value_closure {
                ValueClosure::Reject => {
                    for t in &targets {
                        // Roll back the memberships we just granted.
                        let _ = db.remove_from_class(*oid, *t);
                    }
                    return Err(ModelError::Invalid(format!(
                        "value closure: object {oid} does not satisfy the predicate of {class}"
                    )));
                }
                ValueClosure::Allow => {}
            }
        }
    }
    Ok(())
}

/// `( <set-expr> remove <class> )`: the objects lose the type of `class`.
pub fn remove(
    db: &Database,
    policy: &UpdatePolicy,
    oids: &[Oid],
    class: ClassId,
) -> ModelResult<()> {
    for oid in oids {
        remove_one(db, policy, *oid, class)?;
    }
    Ok(())
}

fn remove_one(
    db: &Database,
    policy: &UpdatePolicy,
    oid: Oid,
    class: ClassId,
) -> ModelResult<()> {
    match &db.schema().class(class)?.kind {
        ClassKind::Base => db.remove_from_class(oid, class),
        ClassKind::Virtual(d) => match *d {
            Derivation::Select { src, .. }
            | Derivation::Hide { src, .. }
            | Derivation::Refine { src, .. } => remove_one(db, policy, oid, src),
            Derivation::Difference { a, .. } => remove_one(db, policy, oid, a),
            Derivation::Union { a, b } => {
                // Propagate to both sources where the object is a member.
                let mut any = false;
                if db.is_member(oid, a)? {
                    remove_one(db, policy, oid, a)?;
                    any = true;
                }
                if db.is_member(oid, b)? {
                    remove_one(db, policy, oid, b)?;
                    any = true;
                }
                if any {
                    Ok(())
                } else {
                    Err(ModelError::NotAMember { oid, class })
                }
            }
            Derivation::Intersect { a, b } => match policy.intersect_remove {
                IntersectRemove::Both => {
                    // Guarded like union: both propagations may bottom out
                    // at the same base class; remove only where the object
                    // is (still) a member.
                    let mut any = false;
                    if db.is_member(oid, a)? {
                        remove_one(db, policy, oid, a)?;
                        any = true;
                    }
                    if db.is_member(oid, b)? {
                        remove_one(db, policy, oid, b)?;
                        any = true;
                    }
                    if any {
                        Ok(())
                    } else {
                        Err(ModelError::NotAMember { oid, class })
                    }
                }
                IntersectRemove::First => remove_one(db, policy, oid, a),
                IntersectRemove::Second => remove_one(db, policy, oid, b),
            },
        },
    }
}

/// `( <set-expr> set [assignments] )` through a class perspective.
///
/// Writes route to the correct slice automatically (base attribute → base
/// class slice, refining attribute → refine-class slice). With
/// [`ValueClosure::Reject`], assignments that would make an object invisible
/// to `class` are rolled back and rejected. Only a class whose membership
/// reads values (a `Select` in its derivation closure,
/// [`tse_object_model::Schema::value_sensitive`]) can lose an object to a
/// write: through any other, the old values are not read and membership is
/// not asked again.
pub fn set(
    db: &Database,
    policy: &UpdatePolicy,
    oids: &[Oid],
    class: ClassId,
    assignments: &[(&str, Value)],
) -> ModelResult<()> {
    for oid in oids {
        if !db.is_member(*oid, class)? {
            return Err(ModelError::NotAMember { oid: *oid, class });
        }
        let closure_checked = matches!(policy.value_closure, ValueClosure::Reject)
            && db.schema().value_sensitive(class)?;
        if !closure_checked {
            for (name, value) in assignments {
                db.write_attr(*oid, class, name, value.clone())?;
            }
            continue;
        }
        let mut old: Vec<(&str, Value)> = Vec::with_capacity(assignments.len());
        for (name, value) in assignments {
            let prev = db.read_attr(*oid, class, name)?;
            db.write_attr(*oid, class, name, value.clone())?;
            old.push((name, prev));
        }
        if !db.is_member(*oid, class)? {
            for (name, prev) in old.into_iter().rev() {
                db.write_attr(*oid, class, name, prev)?;
            }
            return Err(ModelError::Invalid(format!(
                "value closure: set would remove {oid} from {class}"
            )));
        }
    }
    Ok(())
}

/// Evaluate a set-expression: the extent of a class filtered by a predicate
/// (helper for user-level `( select from C where p ) set […]` pipelines).
/// An ad-hoc select is an unnamed `Select` class: [`Database::select`]
/// evaluates it and caches its answer like such a class's extent. The
/// predicate is handed over so that a miss keeps it without a copy.
pub fn select_objects(
    db: &Database,
    class: ClassId,
    pred: tse_object_model::Predicate,
) -> ModelResult<Vec<Oid>> {
    db.select(class, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::define::define_vc;
    use crate::query::Query;
    use tse_object_model::{BinOp, Predicate, PropertyDef, ValueType};

    fn setup() -> (Database, ClassId, ClassId) {
        let mut db = Database::default();
        let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
        let student = db.schema_mut().create_base_class("Student", &[person]).unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(
                student,
                PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0)),
                None,
            )
            .unwrap();
        (db, person, student)
    }

    #[test]
    fn create_through_select_class_enforces_value_closure() {
        let (mut db, person, _) = setup();
        let adult = define_vc(
            &mut db,
            "Adult",
            &Query::select(Query::class(person), Predicate::cmp("age", BinOp::Ge, 18)),
        )
        .unwrap();
        let policy = UpdatePolicy::default(); // Reject

        // Satisfying creation works and lands in the base class.
        let o = create(&db, &policy, adult, &[("age", Value::Int(30))]).unwrap();
        assert!(db.is_member(o, person).unwrap());
        assert!(db.is_member(o, adult).unwrap());

        // Violating creation is rejected and leaves nothing behind.
        let n_before = db.object_count();
        assert!(create(&db, &policy, adult, &[("age", Value::Int(10))]).is_err());
        assert_eq!(db.object_count(), n_before);

        // With Allow, the object is created in the source but invisible here.
        let policy = UpdatePolicy { value_closure: ValueClosure::Allow, ..Default::default() };
        let o2 = create(&db, &policy, adult, &[("age", Value::Int(10))]).unwrap();
        assert!(db.is_member(o2, person).unwrap());
        assert!(!db.is_member(o2, adult).unwrap());
    }

    #[test]
    fn create_through_refine_class_sets_refining_attribute() {
        let (mut db, _, student) = setup();
        let sp = define_vc(
            &mut db,
            "Student'",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        let policy = UpdatePolicy::default();
        let o = create(
            &db,
            &policy,
            sp,
            &[("gpa", Value::Float(3.2)), ("register", Value::Bool(true))],
        )
        .unwrap();
        assert!(db.is_member(o, student).unwrap(), "create propagated to source");
        assert_eq!(db.read_attr(o, sp, "register").unwrap(), Value::Bool(true));
        assert_eq!(db.read_attr(o, sp, "gpa").unwrap(), Value::Float(3.2));
    }

    #[test]
    fn union_routes_follow_policy() {
        let (mut db, person, student) = setup();
        let staff = db.schema_mut().create_base_class("Staff", &[person]).unwrap();
        let u = define_vc(
            &mut db,
            "U",
            &Query::union(Query::class(staff), Query::class(student)),
        )
        .unwrap();

        let policy = UpdatePolicy::default(); // First
        let o1 = create(&db, &policy, u, &[]).unwrap();
        assert!(db.is_member(o1, staff).unwrap());
        assert!(!db.is_member(o1, student).unwrap());

        let mut policy2 = UpdatePolicy::default();
        policy2.union_routes.insert(u, UnionRoute::Second);
        let o2 = create(&db, &policy2, u, &[]).unwrap();
        assert!(db.is_member(o2, student).unwrap());

        let mut policy3 = UpdatePolicy::default();
        policy3.union_routes.insert(u, UnionRoute::Both);
        let o3 = create(&db, &policy3, u, &[]).unwrap();
        assert!(db.is_member(o3, staff).unwrap() && db.is_member(o3, student).unwrap());
    }

    #[test]
    fn remove_through_union_hits_both_memberships() {
        let (mut db, person, student) = setup();
        let staff = db.schema_mut().create_base_class("Staff", &[person]).unwrap();
        let u = define_vc(
            &mut db,
            "U",
            &Query::union(Query::class(staff), Query::class(student)),
        )
        .unwrap();
        let policy = UpdatePolicy::default();
        let o = db.create_object(student, &[]).unwrap();
        db.add_to_class(o, staff).unwrap();
        remove(&db, &policy, &[o], u).unwrap();
        assert!(!db.is_member(o, student).unwrap());
        assert!(!db.is_member(o, staff).unwrap());
        assert!(db.object_exists(o), "remove is not delete");
    }

    #[test]
    fn intersect_create_adds_both_and_remove_respects_policy() {
        let (mut db, person, student) = setup();
        let staff = db.schema_mut().create_base_class("Staff", &[person]).unwrap();
        let i = define_vc(
            &mut db,
            "WorkingStudent",
            &Query::intersect(Query::class(staff), Query::class(student)),
        )
        .unwrap();
        let policy = UpdatePolicy::default();
        let o = create(&db, &policy, i, &[]).unwrap();
        assert!(db.is_member(o, staff).unwrap() && db.is_member(o, student).unwrap());
        assert!(db.is_member(o, i).unwrap());

        let policy_first =
            UpdatePolicy { intersect_remove: IntersectRemove::First, ..Default::default() };
        remove(&db, &policy_first, &[o], i).unwrap();
        assert!(!db.is_member(o, staff).unwrap());
        assert!(db.is_member(o, student).unwrap());
        assert!(!db.is_member(o, i).unwrap());
    }

    #[test]
    fn set_through_select_class_rolls_back_on_value_closure() {
        let (mut db, person, _) = setup();
        let adult = define_vc(
            &mut db,
            "Adult",
            &Query::select(Query::class(person), Predicate::cmp("age", BinOp::Ge, 18)),
        )
        .unwrap();
        let policy = UpdatePolicy::default();
        let o = create(&db, &policy, adult, &[("age", Value::Int(30))]).unwrap();
        // Setting age below 18 would drop it from Adult → rejected, rolled back.
        assert!(set(&db, &policy, &[o], adult, &[("age", Value::Int(10))]).is_err());
        assert_eq!(db.read_attr(o, person, "age").unwrap(), Value::Int(30));
        // Through Person it is fine.
        set(&db, &policy, &[o], person, &[("age", Value::Int(10))]).unwrap();
        assert_eq!(db.read_attr(o, person, "age").unwrap(), Value::Int(10));
        assert!(!db.is_member(o, adult).unwrap());
    }

    #[test]
    fn delete_through_any_class_destroys() {
        let (mut db, person, _) = setup();
        let adult = define_vc(
            &mut db,
            "Adult",
            &Query::select(Query::class(person), Predicate::cmp("age", BinOp::Ge, 18)),
        )
        .unwrap();
        let policy = UpdatePolicy::default();
        let o = create(&db, &policy, adult, &[("age", Value::Int(44))]).unwrap();
        delete(&db, &[o]).unwrap();
        assert!(!db.object_exists(o));
        assert!(db.extent(adult).unwrap().is_empty());
    }

    #[test]
    fn select_objects_filters_via_perspective() {
        let (db, person, _) = setup();
        let o1 = db.create_object(person, &[("age", Value::Int(10))]).unwrap();
        let o2 = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let picked =
            select_objects(&db, person, Predicate::cmp("age", BinOp::Gt, 18)).unwrap();
        assert_eq!(picked, vec![o2]);
        let all = select_objects(&db, person, Predicate::TRUE).unwrap();
        assert_eq!(all, vec![o1, o2]);
    }

    #[test]
    fn updatability_theorem1_every_operator_chain_is_updatable() {
        // Build a derivation DAG mixing all six operators and check that
        // create/add/remove/set/delete all succeed through the top class.
        let (mut db, person, student) = setup();
        let staff = db.schema_mut().create_base_class("Staff", &[person]).unwrap();
        db.schema_mut()
            .add_local_prop(
                staff,
                PropertyDef::stored("salary", ValueType::Int, Value::Int(0)),
                None,
            )
            .unwrap();
        let q = Query::refine(
            Query::select(
                Query::union(Query::class(staff), Query::class(student)),
                Predicate::cmp("age", BinOp::Ge, 0),
            ),
            vec![PropertyDef::stored("badge", ValueType::Int, Value::Int(0))],
        );
        let top = define_vc(&mut db, "Top", &q).unwrap();
        let policy = UpdatePolicy::default();

        let o = create(&db, &policy, top, &[("badge", Value::Int(7))]).unwrap();
        assert!(db.is_member(o, top).unwrap());
        assert_eq!(db.read_attr(o, top, "badge").unwrap(), Value::Int(7));
        set(&db, &policy, &[o], top, &[("badge", Value::Int(8))]).unwrap();
        assert_eq!(db.read_attr(o, top, "badge").unwrap(), Value::Int(8));

        let o2 = db.create_object(student, &[]).unwrap();
        add(&db, &policy, &[o2], top).unwrap();
        assert!(db.is_member(o2, staff).unwrap(), "add routed to first source");

        remove(&db, &policy, &[o], top).unwrap();
        assert!(!db.is_member(o, top).unwrap());
        delete(&db, &[o2]).unwrap();
        assert!(!db.object_exists(o2));
    }
}
