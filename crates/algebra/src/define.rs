//! `defineVC <name> as <query>` — materializing virtual classes.
//!
//! Nested sub-queries are flattened into intermediate virtual classes (named
//! after the target with a suffix), so every registered class carries exactly
//! one operator — the normalized form the classifier and updatability
//! machinery work with.

use tse_object_model::{ClassId, Database, Derivation, ModelResult};

use crate::query::{ClassRef, Query};
use crate::typing::{validate_hide, validate_refine, validate_select};

fn resolve_ref(db: &Database, r: &ClassRef) -> ModelResult<ClassId> {
    match r {
        ClassRef::Id(id) => {
            db.schema().class(*id)?;
            Ok(*id)
        }
        ClassRef::Name(name) => db.schema().by_name(name),
    }
}

/// Define a virtual class named `name` by `query`. Returns the new class id.
///
/// The class is created in the global schema but **not yet classified** —
/// callers (the TSEM, or tests) run the classifier afterwards to wire the
/// is-a edges. Extents and intent types are fully functional without
/// classification.
pub fn define_vc(db: &mut Database, name: &str, query: &Query) -> ModelResult<ClassId> {
    let mut counter = 0u32;
    define_rec(db, name, query, &mut counter)
}

fn define_rec(
    db: &mut Database,
    name: &str,
    query: &Query,
    counter: &mut u32,
) -> ModelResult<ClassId> {
    // Sub-queries become their own (intermediate) virtual classes.
    let materialize =
        |db: &mut Database, sub: &Query, counter: &mut u32| -> ModelResult<ClassId> {
            match sub {
                Query::Class(id) => {
                    db.schema().class(*id)?;
                    Ok(*id)
                }
                Query::ClassName(name) => db.schema().by_name(name),
                _ => {
                    *counter += 1;
                    let sub_name = db.schema().fresh_name(&format!("{name}#{counter}"));
                    define_rec(db, &sub_name, sub, counter)
                }
            }
        };

    match query {
        Query::Class(_) | Query::ClassName(_) => {
            // `defineVC X as C` — an alias class: the algebra has no alias
            // operator; reuse select with `True`.
            let src = match query {
                Query::Class(id) => {
                    db.schema().class(*id)?;
                    *id
                }
                Query::ClassName(n) => db.schema().by_name(n)?,
                _ => unreachable!(),
            };
            let schema = db.schema_mut();
            schema.create_virtual_class(
                name,
                Derivation::Select { src, pred: tse_object_model::Predicate::TRUE },
            )
        }
        Query::Select { src, pred } => {
            let src = materialize(db, src, counter)?;
            validate_select(db, src, &pred.referenced_attrs())?;
            db.schema_mut()
                .create_virtual_class(name, Derivation::Select { src, pred: pred.clone() })
        }
        Query::Hide { src, props } => {
            let src = materialize(db, src, counter)?;
            validate_hide(db, src, props)?;
            db.schema_mut()
                .create_virtual_class(name, Derivation::Hide { src, hidden: props.clone() })
        }
        Query::Refine { src, new_props, inherited } => {
            let src = materialize(db, src, counter)?;
            let new_names: Vec<String> = new_props.iter().map(|p| p.name.clone()).collect();
            // Resolve inherited (class, prop-name) pairs to keys.
            let mut inh = Vec::with_capacity(inherited.len());
            let mut inh_names = Vec::with_capacity(inherited.len());
            for (cls_ref, prop_name) in inherited {
                let cls = resolve_ref(db, cls_ref)?;
                let rt = db.schema().resolved_type(cls)?;
                let cand = rt.get_unique(cls, prop_name)?;
                inh.push((cls, cand.key));
                inh_names.push(prop_name.clone());
            }
            validate_refine(db, src, &new_names, &inh_names)?;
            db.schema_mut().create_refine_class(name, src, new_props.clone(), inh)
        }
        Query::Union(a, b) => {
            let a = materialize(db, a, counter)?;
            let b = materialize(db, b, counter)?;
            db.schema_mut().create_virtual_class(name, Derivation::Union { a, b })
        }
        Query::Difference(a, b) => {
            let a = materialize(db, a, counter)?;
            let b = materialize(db, b, counter)?;
            db.schema_mut().create_virtual_class(name, Derivation::Difference { a, b })
        }
        Query::Intersect(a, b) => {
            let a = materialize(db, a, counter)?;
            let b = materialize(db, b, counter)?;
            db.schema_mut().create_virtual_class(name, Derivation::Intersect { a, b })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typing::intent_type;
    use tse_object_model::{BinOp, Predicate, PropertyDef, Value, ValueType};

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
    fn figure4_hide_creates_ageless_person() {
        let (mut db, person, _) = setup();
        let v = define_vc(&mut db, "AgelessPerson", &Query::hide(Query::class(person), &["age"]))
            .unwrap();
        assert_eq!(db.schema().by_name("AgelessPerson").unwrap(), v);
        assert!(intent_type(&db, v).unwrap().is_empty());
        // Extent equals the source's.
        let o = db.create_object(person, &[]).unwrap();
        assert!(db.is_member(o, v).unwrap());
    }

    #[test]
    fn nested_queries_materialize_intermediates() {
        let (mut db, person, student) = setup();
        let before = db.schema().class_count();
        let q = Query::union(
            Query::difference(Query::class(person), Query::class(student)),
            Query::select(Query::class(student), Predicate::cmp("gpa", BinOp::Ge, 3.0)),
        );
        let v = define_vc(&mut db, "Mixed", &q).unwrap();
        // Target + two intermediates.
        assert_eq!(db.schema().class_count(), before + 3);
        let p = db.create_object(person, &[]).unwrap();
        let s_low = db.create_object(student, &[]).unwrap();
        let s_high = db.create_object(student, &[]).unwrap();
        db.write_attr(s_high, student, "gpa", Value::Float(3.9)).unwrap();
        let ext = db.extent(v).unwrap();
        assert!(ext.contains(&p));
        assert!(ext.contains(&s_high));
        assert!(!ext.contains(&s_low));
    }

    #[test]
    fn define_validates_operator_arguments() {
        let (mut db, person, _) = setup();
        assert!(define_vc(
            &mut db,
            "Bad1",
            &Query::hide(Query::class(person), &["salary"])
        )
        .is_err());
        assert!(define_vc(
            &mut db,
            "Bad2",
            &Query::select(Query::class(person), Predicate::cmp("salary", BinOp::Gt, 0))
        )
        .is_err());
        assert!(define_vc(
            &mut db,
            "Bad3",
            &Query::refine(
                Query::class(person),
                vec![PropertyDef::stored("age", ValueType::Int, Value::Int(0))]
            )
        )
        .is_err());
    }

    #[test]
    fn duplicate_name_rejected() {
        let (mut db, person, _) = setup();
        define_vc(&mut db, "V", &Query::hide(Query::class(person), &["age"])).unwrap();
        assert!(define_vc(&mut db, "V", &Query::hide(Query::class(person), &["age"])).is_err());
    }

    #[test]
    fn refine_inherit_shares_the_definition_key() {
        let (mut db, person, student) = setup();
        // A refine class introducing `register` on Person…
        let r1 = define_vc(
            &mut db,
            "Person+reg",
            &Query::refine(
                Query::class(person),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        // …and a second refine class inheriting it by reference for Student.
        // (Student's intent type does not contain `register` because Student
        // is not a subclass of Person+reg — no classification ran.)
        let r2 = define_vc(
            &mut db,
            "Student+reg",
            &Query::refine_inherit(Query::class(student), vec![(r1, "register")]),
        )
        .unwrap();
        let t1 = intent_type(&db, r1).unwrap();
        let t2 = intent_type(&db, r2).unwrap();
        let register = |t: &[tse_object_model::PropKey]| {
            *t.iter().find(|k| db.schema().def_by_key(**k).unwrap().1.name == "register").unwrap()
        };
        assert_eq!(register(&t1), register(&t2), "shared definition, same key");
    }

    #[test]
    fn alias_definition_selects_all() {
        let (mut db, person, _) = setup();
        let v = define_vc(&mut db, "People", &Query::class(person)).unwrap();
        let o = db.create_object(person, &[]).unwrap();
        assert!(db.is_member(o, v).unwrap());
        assert_eq!(
            intent_type(&db, v).unwrap(),
            intent_type(&db, person).unwrap()
        );
    }
}
