//! Operator typing rules and definition-time validation.
//!
//! Each algebra operator determines the *intent type* of the virtual class it
//! derives, as a set of `(name, key)` pairs:
//!
//! * `select` / `difference` — type of the (first) source, unchanged;
//! * `hide` — source type minus the hidden names (a supertype);
//! * `refine` — source type plus the new/inherited properties (a subtype);
//! * `union` — the lowest common supertype: properties shared by both inputs
//!   (same definition, i.e. same key);
//! * `intersect` — the greatest common subtype: all properties of both.
//!
//! The intent type is what the classifier positions a freshly derived class
//! by; once the class is wired into the DAG and promotions have run, the
//! hierarchy-resolved type agrees with it (a tested invariant).

use std::collections::BTreeSet;
use std::sync::Arc;

use tse_object_model::{
    ClassId, ClassKind, Database, Derivation, ModelError, ModelResult, PropKey,
};

/// `(name, key)` type view used for subsumption.
pub type TypeKeys = BTreeSet<(String, PropKey)>;

/// Compute the intent type of a class: for base classes the hierarchy
/// resolution; for virtual classes the operator rule over the sources'
/// intent types (usable *before* the class has been classified into the
/// DAG).
///
/// Memoised per class in the schema's fact cache
/// ([`tse_object_model::Schema::intent_type_with`]): derivations form a DAG
/// with heavy sharing (replayed chains, unions), and a family's hundredth
/// change reads its source's intent instead of re-deriving the chain down
/// to the base classes.
pub fn intent_type(db: &Database, class: ClassId) -> ModelResult<Arc<TypeKeys>> {
    db.schema().intent_type_with(class, || derive_intent(db, class))
}

/// The operator rule, one level: the sources' intent types come from
/// [`intent_type`].
fn derive_intent(db: &Database, class: ClassId) -> ModelResult<Arc<TypeKeys>> {
    let schema = db.schema();
    let cls = schema.class(class)?;
    let by_operator = match &cls.kind {
        ClassKind::Base => schema.type_keys(class)?,
        ClassKind::Virtual(derivation) => match derivation {
            Derivation::Select { src, .. } | Derivation::Difference { a: src, .. } => {
                intent_type(db, *src)?
            }
            Derivation::Hide { src, hidden } => {
                let mut t = TypeKeys::clone(&*intent_type(db, *src)?);
                t.retain(|(name, _)| !hidden.contains(name));
                Arc::new(t)
            }
            Derivation::Refine { src, new_props, inherited } => {
                let mut t = TypeKeys::clone(&*intent_type(db, *src)?);
                for key in new_props {
                    // New props are locals of this very class — unless a
                    // later classification promoted the definition upward
                    // (the key is stable, so look it up globally then).
                    let name = match cls.local_by_key(*key) {
                        Some(lp) => lp.def.name.clone(),
                        None => schema.def_by_key(*key)?.1.name.clone(),
                    };
                    t.insert((name, *key));
                }
                for (_, key) in inherited {
                    let (_, def) = schema.def_by_key(*key)?;
                    t.insert((def.name.clone(), *key));
                }
                // Plus any locals added after creation (promotion targets).
                for lp in cls.locals() {
                    t.insert((lp.def.name.clone(), lp.def.key));
                }
                Arc::new(t)
            }
            Derivation::Union { a, b } => {
                let (ta, tb) = (intent_type(db, *a)?, intent_type(db, *b)?);
                Arc::new(ta.intersection(&tb).cloned().collect())
            }
            Derivation::Intersect { a, b } => {
                let (ta, tb) = (intent_type(db, *a)?, intent_type(db, *b)?);
                Arc::new(ta.union(&tb).cloned().collect())
            }
        },
    };
    // Classifier-attached by-reference inclusions are part of the type for
    // every operator.
    if cls.extra_refs().is_empty() {
        return Ok(by_operator);
    }
    let mut t = TypeKeys::clone(&by_operator);
    t.extend(
        cls.extra_refs()
            .iter()
            .filter_map(|(_, k)| schema.def_by_key(*k).ok().map(|(_, d)| (d.name.clone(), *k))),
    );
    Ok(Arc::new(t))
}

/// Definition-time validation for `select`: every referenced attribute must
/// resolve (unambiguously) in the source's type.
pub fn validate_select(db: &Database, src: ClassId, attrs: &[String]) -> ModelResult<()> {
    let t = intent_type(db, src)?;
    for attr in attrs {
        let matches: Vec<_> = t.iter().filter(|(n, _)| n == attr).collect();
        match matches.len() {
            0 => {
                return Err(ModelError::UnknownProperty { class: src, name: attr.clone() });
            }
            1 => {}
            _ => {
                return Err(ModelError::AmbiguousProperty { class: src, name: attr.clone() });
            }
        }
    }
    Ok(())
}

/// Definition-time validation for `hide`: hidden names must exist in the
/// source type.
pub fn validate_hide(db: &Database, src: ClassId, props: &[String]) -> ModelResult<()> {
    let t = intent_type(db, src)?;
    for p in props {
        if !t.iter().any(|(n, _)| n == p) {
            return Err(ModelError::UnknownProperty { class: src, name: p.clone() });
        }
    }
    Ok(())
}

/// Definition-time validation for `refine`: "each property name ... must be
/// different from all existing functions defined for the type of the
/// `<class>`".
pub fn validate_refine(
    db: &Database,
    src: ClassId,
    new_names: &[String],
    inherited_names: &[String],
) -> ModelResult<()> {
    let t = intent_type(db, src)?;
    for name in new_names.iter().chain(inherited_names) {
        if t.iter().any(|(n, _)| n == name) {
            return Err(ModelError::PropertyExists { class: src, name: name.clone() });
        }
    }
    // No duplicates among the additions themselves.
    let mut seen = BTreeSet::new();
    for name in new_names.iter().chain(inherited_names) {
        if !seen.insert(name.clone()) {
            return Err(ModelError::PropertyExists { class: src, name: name.clone() });
        }
    }
    Ok(())
}

/// Does type `a` subsume (⊇) type `b`? I.e. is `a` a valid *subclass* type
/// of `b`'s class (more properties = more specific)?
pub fn type_includes(a: &TypeKeys, b: &TypeKeys) -> bool {
    b.is_subset(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::{PropertyDef, Value, ValueType};

    fn db_with_person() -> (Database, ClassId) {
        let mut db = Database::default();
        let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        (db, person)
    }

    #[test]
    fn hide_removes_names_from_intent_type() {
        let (mut db, person) = db_with_person();
        let v = db
            .schema_mut()
            .create_virtual_class(
                "AgelessPerson",
                Derivation::Hide { src: person, hidden: vec!["age".into()] },
            )
            .unwrap();
        let t = intent_type(&db, v).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.iter().any(|(n, _)| n == "name"));
    }

    #[test]
    fn refine_adds_and_union_intersects() {
        let (mut db, person) = db_with_person();
        let r = db
            .schema_mut()
            .create_refine_class(
                "Person+",
                person,
                vec![PropertyDef::stored("email", ValueType::Str, Value::Null)],
                vec![],
            )
            .unwrap();
        let tr = intent_type(&db, r).unwrap();
        assert_eq!(tr.len(), 3);

        // Union of Person+ and Person keeps the common two properties.
        let u = db
            .schema_mut()
            .create_virtual_class("U", Derivation::Union { a: r, b: person })
            .unwrap();
        assert_eq!(intent_type(&db, u).unwrap().len(), 2);

        // Intersect takes everything.
        let i = db
            .schema_mut()
            .create_virtual_class("I", Derivation::Intersect { a: r, b: person })
            .unwrap();
        assert_eq!(intent_type(&db, i).unwrap().len(), 3);
    }

    #[test]
    fn a_memoised_intent_follows_its_sources() {
        let (mut db, person) = db_with_person();
        let other = db.schema_mut().create_base_class("Other", &[]).unwrap();
        let email = PropertyDef::stored("email", ValueType::Str, Value::Null);
        let hide = Derivation::Hide { src: person, hidden: vec!["age".into()] };
        let h = db.schema_mut().create_virtual_class("H", hide).unwrap();
        let u = db
            .schema_mut()
            .create_virtual_class("U", Derivation::Union { a: person, b: h })
            .unwrap();
        // A chain: the select's intent is the hide's, one level down.
        let pred = tse_object_model::Predicate::IsSet("name".into());
        let s = db
            .schema_mut()
            .create_virtual_class("S", Derivation::Select { src: h, pred })
            .unwrap();
        let names = |db: &Database, class| -> Vec<String> {
            intent_type(db, class).unwrap().iter().map(|(n, _)| n.clone()).collect()
        };
        for class in [h, u, s] {
            assert_eq!(names(&db, class), ["name"]);
        }
        let memoised = intent_type(&db, s).unwrap();
        assert!(Arc::ptr_eq(&memoised, &intent_type(&db, s).unwrap()));
        assert!(Arc::ptr_eq(&memoised, &intent_type(&db, h).unwrap()), "shared with the source");

        // A change elsewhere keeps the memo; a change to the source reaches
        // every class derived from it, upward operators included.
        db.schema_mut().add_local_prop(other, email.clone(), None).unwrap();
        assert!(Arc::ptr_eq(&memoised, &intent_type(&db, s).unwrap()));
        db.schema_mut().add_local_prop(person, email, None).unwrap();
        for class in [h, u, s] {
            assert_eq!(names(&db, class), ["email", "name"]);
        }
        db.schema_mut().rename_local_prop(person, "name", "called").unwrap();
        for class in [h, u, s] {
            assert_eq!(names(&db, class), ["called", "email"]);
        }
    }

    #[test]
    fn validations_reject_bad_names() {
        let (db, person) = db_with_person();
        assert!(validate_hide(&db, person, &["age".into()]).is_ok());
        assert!(validate_hide(&db, person, &["salary".into()]).is_err());
        assert!(validate_select(&db, person, &["age".into()]).is_ok());
        assert!(validate_select(&db, person, &["salary".into()]).is_err());
        assert!(validate_refine(&db, person, &["email".into()], &[]).is_ok());
        assert!(validate_refine(&db, person, &["age".into()], &[]).is_err());
        assert!(validate_refine(&db, person, &["x".into(), "x".into()], &[]).is_err());
    }

    #[test]
    fn type_inclusion_is_subset_on_pairs() {
        let (mut db, person) = db_with_person();
        let r = db
            .schema_mut()
            .create_refine_class(
                "R",
                person,
                vec![PropertyDef::stored("email", ValueType::Str, Value::Null)],
                vec![],
            )
            .unwrap();
        let tp = intent_type(&db, person).unwrap();
        let tr = intent_type(&db, r).unwrap();
        assert!(type_includes(&tr, &tp));
        assert!(!type_includes(&tp, &tr));
    }
}
