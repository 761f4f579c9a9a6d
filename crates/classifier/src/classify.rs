//! The classification algorithm.
//!
//! Integrates a freshly derived virtual class into the one consistent global
//! schema \[17\]: finds its most specific superclasses and most general
//! subclasses by *provable* extent subsumption plus type inclusion, inserts
//! the is-a edges (dropping edges made redundant), detects duplicate classes,
//! and performs upward property promotion so that inheritance-based type
//! resolution agrees with the operator-intent type ("true upwards method
//! resolution for both base and virtual classes").

use std::sync::Arc;

use tse_algebra::{intent_type, TypeKeys};
use tse_object_model::{ClassId, Database, ModelError, ModelResult};
use tse_telemetry::Telemetry;

use crate::subsume::Subsumption;

/// Result of classifying one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The class that should be *used* from now on: the input class, or the
    /// pre-existing duplicate it was folded into.
    pub class: ClassId,
    /// `Some(existing)` when the new class duplicated an existing one and
    /// was retired.
    pub duplicate_of: Option<ClassId>,
    /// Direct superclasses chosen.
    pub supers: Vec<ClassId>,
    /// Direct subclasses chosen.
    pub subs: Vec<ClassId>,
    /// `(from, property)` promotions performed.
    pub promoted: Vec<(ClassId, String)>,
}

/// Create the classifier's histograms empty, so snapshots carry them before
/// the first classification: `classifier.candidates` (classes provably
/// related to the new one, i.e. examined as super/sub/duplicate candidates)
/// and `classifier.prover_advance_ns` (extending the prover over the classes
/// created since the last classification).
pub fn register_metrics(telemetry: &Telemetry) {
    telemetry.register_histogram("classifier.candidates");
    telemetry.register_histogram("classifier.prover_advance_ns");
}

/// Classify a virtual class into the global schema, one-shot: the prover is
/// built for this call and dropped. A caller that classifies more than once
/// over a growing schema keeps a [`Subsumption`] and calls
/// [`classify_with`].
pub fn classify(db: &mut Database, class: ClassId) -> ModelResult<Placement> {
    classify_with(&mut Subsumption::default(), db, class)
}

/// Classify a virtual class into the global schema (see the module docs),
/// advancing `prover` over every class created since it was last used. The
/// prover must have been advanced over this schema only — see
/// [`Subsumption`] for when to drop it.
///
/// Telemetry: spans as `classifier.classify` (recording `duplicate`,
/// `supers`, `subs` and `candidates`), bumps `classifier.classifications` /
/// `classifier.duplicates_folded` / `classifier.promotions` and observes the
/// [`register_metrics`] histograms in the database's registry.
pub fn classify_with(
    prover: &mut Subsumption,
    db: &mut Database,
    class: ClassId,
) -> ModelResult<Placement> {
    let telemetry = db.telemetry().clone();
    let span = telemetry.span("classifier.classify");
    let mut candidates = 0;
    let result = classify_inner(prover, db, class, &telemetry, &mut candidates);
    telemetry.incr("classifier.classifications", 1);
    if let Ok(p) = &result {
        if p.duplicate_of.is_some() {
            telemetry.incr("classifier.duplicates_folded", 1);
        }
        if !p.promoted.is_empty() {
            telemetry.incr("classifier.promotions", p.promoted.len() as u64);
        }
        telemetry.observe_ns("classifier.candidates", candidates as u64);
        span.record("duplicate", p.duplicate_of.is_some());
        span.record("supers", p.supers.len());
        span.record("subs", p.subs.len());
        span.record("candidates", candidates);
    }
    result
}

fn classify_inner(
    prover: &mut Subsumption,
    db: &mut Database,
    class: ClassId,
    telemetry: &Telemetry,
    candidates: &mut usize,
) -> ModelResult<Placement> {
    if db.schema().class(class)?.is_base() {
        return Err(ModelError::NotAVirtualClass(class));
    }
    let target_type: Arc<TypeKeys> = intent_type(db, class)?;
    telemetry.time("classifier.prover_advance_ns", || prover.advance(db.schema()));

    // Candidate supers / subs: a class the prover relates to `class` in
    // neither direction can be none of super, sub or duplicate, so only the
    // new class's row and column are examined, in id order.
    let mut super_cands: Vec<(ClassId, Arc<TypeKeys>)> = Vec::new();
    let mut sub_cands: Vec<(ClassId, Arc<TypeKeys>)> = Vec::new();
    for other in prover.related(class) {
        if db.schema().is_retired(other) {
            continue;
        }
        *candidates += 1;
        let other_type = db.schema().type_keys(other)?;
        let ext_below = prover.subsumes(class, other);
        let ext_above = prover.subsumes(other, class);
        if ext_below && ext_above && other_type == target_type {
            // Duplicate: same provable extent, same type.
            db.schema_mut().retire_class(class)?;
            return Ok(Placement {
                class: other,
                duplicate_of: Some(other),
                supers: vec![],
                subs: vec![],
                promoted: vec![],
            });
        }
        if ext_below && other_type.is_subset(&target_type) {
            super_cands.push((other, Arc::clone(&other_type)));
        }
        if ext_above && target_type.is_subset(&other_type) {
            sub_cands.push((other, other_type));
        }
    }

    // Most specific supers: drop any candidate with another candidate
    // strictly below it.
    let supers: Vec<ClassId> = super_cands
        .iter()
        .filter(|(s1, t1)| {
            !super_cands.iter().any(|(s2, t2)| {
                s2 != s1
                    && prover.subsumes(*s2, *s1)
                    && t1.is_subset(t2)
                    && !(prover.subsumes(*s1, *s2) && t2.is_subset(t1))
            })
        })
        .map(|(s, _)| *s)
        .collect();
    let supers = if supers.is_empty() { vec![db.schema().root()] } else { supers };

    // Most general subs: drop any candidate with another candidate
    // strictly above it.
    let subs: Vec<ClassId> = sub_cands
        .iter()
        .filter(|(x1, t1)| {
            // Never pick a sub that is also (effectively) a super.
            if supers.contains(x1) {
                return false;
            }
            !sub_cands.iter().any(|(x2, t2)| {
                x2 != x1
                    && prover.subsumes(*x1, *x2)
                    && t2.is_subset(t1)
                    && !(prover.subsumes(*x2, *x1) && t1.is_subset(t2))
            })
        })
        .map(|(x, _)| *x)
        .collect();

    // Wire the class in.
    for s in &supers {
        db.schema_mut().add_edge(*s, class)?;
    }
    for x in &subs {
        db.schema_mut().add_edge(class, *x)?;
    }
    // Remove edges made redundant by the insertion.
    for s in &supers {
        for x in &subs {
            if db.schema().class(*x)?.direct_supers().contains(s) {
                db.schema_mut().remove_edge(*s, *x)?;
            }
        }
    }

    // Upward property promotion: definitions held locally by a new direct
    // subclass but included in the new class's type move up into it.
    let mut promoted = Vec::new();
    for x in &subs {
        let shared: Vec<(String, tse_object_model::PropKey)> = target_type
            .iter()
            .filter(|(_, key)| db.schema().class(*x).map(|c| c.local_by_key(*key).is_some()).unwrap_or(false))
            .cloned()
            .collect();
        for (name, _key) in shared {
            if db.schema().class(class)?.local(&name).is_some() {
                continue; // the class already owns a local with that name
            }
            db.schema_mut().promote_prop(*x, &name, class)?;
            promoted.push((*x, name));
        }
    }

    // Repair step: any operator-intent property that the placement +
    // promotion still cannot resolve (e.g. a hide class whose source
    // inherits from a class outside the evolving view, so no primed
    // counterpart exists to sit under) is attached by reference — a shared
    // definition, exactly like `refine C1:x for C2`.
    let resolved = db.schema().type_keys(class)?;
    for (_, key) in target_type.difference(&resolved) {
        db.schema_mut().add_extra_ref(class, *key)?;
    }

    Ok(Placement { class, duplicate_of: None, supers, subs, promoted })
}

/// Debug/test helper: check that a classified class's hierarchy-resolved
/// type agrees with its operator-intent type.
pub fn check_type_agreement(db: &Database, class: ClassId) -> ModelResult<bool> {
    let resolved = db.schema().type_keys(class)?;
    let intent = intent_type(db, class)?;
    Ok(resolved == intent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_algebra::{define_vc, Query};
    use tse_object_model::{
        CmpOp, Predicate, PropertyDef, Value, ValueType,
    };

    /// Person(name, age) ← Student(gpa) ← TA(lecture); Person ← Staff(salary).
    fn setup() -> (Database, ClassId, ClassId, ClassId, ClassId) {
        let mut db = Database::default();
        let s = db.schema_mut();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student]).unwrap();
        let staff = s.create_base_class("Staff", &[person]).unwrap();
        s.add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        s.add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        s.add_local_prop(student, PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0)), None)
            .unwrap();
        s.add_local_prop(ta, PropertyDef::stored("lecture", ValueType::Str, Value::Null), None)
            .unwrap();
        s.add_local_prop(staff, PropertyDef::stored("salary", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        (db, person, student, ta, staff)
    }

    #[test]
    fn select_class_lands_below_its_source() {
        let (mut db, person, _, _, _) = setup();
        let adult = define_vc(
            &mut db,
            "Adult",
            &Query::select(Query::class(person), Predicate::cmp("age", CmpOp::Ge, 18)),
        )
        .unwrap();
        let p = classify(&mut db, adult).unwrap();
        assert_eq!(p.supers, vec![person]);
        assert!(p.subs.is_empty());
        assert!(p.duplicate_of.is_none());
        assert!(check_type_agreement(&db, adult).unwrap());
    }

    #[test]
    fn figure4_hide_class_becomes_superclass_with_promotion() {
        let (mut db, person, _, _, _) = setup();
        let ageless =
            define_vc(&mut db, "AgelessPerson", &Query::hide(Query::class(person), &["age"]))
                .unwrap();
        let p = classify(&mut db, ageless).unwrap();
        assert_eq!(p.supers, vec![db.schema().root()]);
        assert_eq!(p.subs, vec![person]);
        // `name` was promoted from Person into AgelessPerson.
        assert!(p.promoted.iter().any(|(from, n)| *from == person && n == "name"));
        assert!(db.schema().class(ageless).unwrap().local("name").is_some());
        assert!(db.schema().class(person).unwrap().local("name").is_none());
        // Person still *resolves* name (inherited back down).
        assert!(db.schema().resolved_type(person).unwrap().contains_name("name"));
        // And age stayed local to Person, invisible to AgelessPerson.
        assert!(!db.schema().resolved_type(ageless).unwrap().contains_name("age"));
        assert!(check_type_agreement(&db, ageless).unwrap());
    }

    #[test]
    fn refine_chain_of_figure7_add_attribute() {
        let (mut db, _, student, ta, _) = setup();
        // Student' = refine register for Student.
        let sp = define_vc(
            &mut db,
            "Student'",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        let p1 = classify(&mut db, sp).unwrap();
        assert_eq!(p1.supers, vec![student]);

        // TA' = refine Student':register for TA.
        let tap = define_vc(
            &mut db,
            "TA'",
            &Query::refine_inherit(Query::class(ta), vec![(sp, "register")]),
        )
        .unwrap();
        let p2 = classify(&mut db, tap).unwrap();
        let mut sup = p2.supers.clone();
        sup.sort();
        let mut expect = vec![ta, sp];
        expect.sort();
        assert_eq!(sup, expect, "TA' sits under both TA and Student'");
        assert!(check_type_agreement(&db, sp).unwrap());
        assert!(check_type_agreement(&db, tap).unwrap());

        // The shared register definition has a single key.
        let k1 = db.schema().resolved_type(sp).unwrap().get_unique(sp, "register").unwrap().key;
        let k2 = db.schema().resolved_type(tap).unwrap().get_unique(tap, "register").unwrap().key;
        assert_eq!(k1, k2);
    }

    #[test]
    fn figure8_delete_attribute_hide_chain() {
        let (mut db, person, student, ta, _) = setup();
        let sp = define_vc(&mut db, "Student'", &Query::hide(Query::class(student), &["gpa"]))
            .unwrap();
        classify(&mut db, sp).unwrap();
        let tap = define_vc(&mut db, "TA'", &Query::hide(Query::class(ta), &["gpa"])).unwrap();
        let p2 = classify(&mut db, tap).unwrap();
        // Student' under Person, above Student. TA' under Student', above TA.
        assert!(db.schema().is_sub_of(sp, person));
        assert!(db.schema().is_sub_of(student, sp));
        assert_eq!(p2.supers, vec![sp]);
        assert_eq!(p2.subs, vec![ta]);
        assert!(!db.schema().resolved_type(tap).unwrap().contains_name("gpa"));
        assert!(db.schema().resolved_type(tap).unwrap().contains_name("lecture"));
        assert!(check_type_agreement(&db, tap).unwrap());
    }

    #[test]
    fn union_class_sits_between_sources_and_common_ancestor() {
        let (mut db, person, student, _, staff) = setup();
        let u = define_vc(
            &mut db,
            "Uni",
            &Query::union(Query::class(student), Query::class(staff)),
        )
        .unwrap();
        let p = classify(&mut db, u).unwrap();
        assert_eq!(p.supers, vec![person]);
        let mut subs = p.subs.clone();
        subs.sort();
        assert_eq!(subs, vec![student, staff]);
        assert!(check_type_agreement(&db, u).unwrap());
        // The direct Person→Student / Person→Staff edges became redundant.
        assert!(!db.schema().class(student).unwrap().direct_supers().contains(&person));
        assert!(db.schema().is_sub_of(student, person), "still transitively below");
    }

    #[test]
    fn duplicate_classes_are_detected_and_retired() {
        let (mut db, person, _, _, _) = setup();
        let a = define_vc(
            &mut db,
            "Adult",
            &Query::select(Query::class(person), Predicate::cmp("age", CmpOp::Ge, 18)),
        )
        .unwrap();
        classify(&mut db, a).unwrap();
        let b = define_vc(
            &mut db,
            "GrownUp",
            &Query::select(Query::class(person), Predicate::cmp("age", CmpOp::Ge, 18)),
        )
        .unwrap();
        let p = classify(&mut db, b).unwrap();
        assert_eq!(p.duplicate_of, Some(a));
        assert_eq!(p.class, a);
        assert!(db.schema().by_name("GrownUp").is_err(), "duplicate name freed");
    }

    #[test]
    fn same_name_different_definitions_are_not_duplicates() {
        let (mut db, person, student, _, _) = setup();
        // Two capacity-augmenting refines with the same attribute *name*
        // create distinct stored attributes (distinct keys) — VS.1/VS.2 of
        // Figure 16 stay distinct.
        let r1 = define_vc(
            &mut db,
            "Student'",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        classify(&mut db, r1).unwrap();
        let r2 = define_vc(
            &mut db,
            "Student''",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        let p = classify(&mut db, r2).unwrap();
        assert!(p.duplicate_of.is_none());
        let _ = person;
    }

    #[test]
    fn classify_rejects_base_classes() {
        let (mut db, person, _, _, _) = setup();
        assert!(classify(&mut db, person).is_err());
    }

    #[test]
    fn intersect_class_positions_between_sources_and_their_common_subclasses() {
        let (mut db, _, student, _, staff) = setup();
        let working = db
            .schema_mut()
            .create_base_class("WorkingStudent", &[student, staff])
            .unwrap();
        let i = define_vc(
            &mut db,
            "Both",
            &Query::intersect(Query::class(student), Query::class(staff)),
        )
        .unwrap();
        let p = classify(&mut db, i).unwrap();
        let mut sup = p.supers.clone();
        sup.sort();
        assert_eq!(sup, vec![student, staff]);
        assert_eq!(p.subs, vec![working]);
        assert!(check_type_agreement(&db, i).unwrap());
    }

    #[test]
    fn extents_respect_placement_after_classification() {
        let (mut db, person, student, _, staff) = setup();
        let o_s = db.create_object(student, &[]).unwrap();
        let o_t = db.create_object(staff, &[]).unwrap();
        let u = define_vc(
            &mut db,
            "Uni",
            &Query::union(Query::class(student), Query::class(staff)),
        )
        .unwrap();
        classify(&mut db, u).unwrap();
        let ext = db.extent(u).unwrap();
        assert!(ext.contains(&o_s) && ext.contains(&o_t));
        assert!(db.extent(person).unwrap().len() >= 2);
    }
}
