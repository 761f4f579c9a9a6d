//! Operator typing rules and definition-time validation.
//!
//! Each algebra operator determines the *intent type* of the virtual class it
//! derives, as a sorted array of property keys ([`TypeKeys`]):
//!
//! * `select` / `difference` — type of the (first) source, unchanged;
//! * `hide` — source type minus the hidden names (a supertype);
//! * `refine` — source type plus the new/inherited properties (a subtype);
//! * `union` — the lowest common supertype: properties shared by both inputs
//!   (same definition, i.e. same key);
//! * `intersect` — the greatest common subtype: all properties of both.
//!
//! A key has exactly one name at any schema state
//! ([`tse_object_model::Schema::def_by_key`]), so a type is its keys; the
//! rules that need names — `hide` and the validations — read them from the
//! definitions.
//!
//! The intent type is what the classifier positions a freshly derived class
//! by; once the class is wired into the DAG and promotions have run, the
//! hierarchy-resolved type agrees with it (a tested invariant).

use std::collections::BTreeSet;
use std::sync::Arc;

use tse_object_model::{
    ClassId, ClassKind, Database, Derivation, ModelError, ModelResult, PropKey,
};

/// A type as used for subsumption: the keys of its properties, sorted and
/// deduplicated, so that inclusion and equality are merges over the keys.
pub type TypeKeys = [PropKey];

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
                let mut kept = Vec::new();
                for &key in intent_type(db, *src)?.iter() {
                    if !hidden.contains(&schema.def_by_key(key)?.1.name) {
                        kept.push(key);
                    }
                }
                kept.into()
            }
            Derivation::Refine { src, new_props, inherited } => {
                let mut t = intent_type(db, *src)?.to_vec();
                // New props are locals of this very class — unless a later
                // classification promoted the definition upward — and
                // inherited ones are held elsewhere: the key is stable, and
                // it must still have a definition.
                for &key in new_props.iter().chain(inherited.iter().map(|(_, k)| k)) {
                    schema.def_by_key(key)?;
                    t.push(key);
                }
                // Plus any locals added after creation (promotion targets).
                t.extend(cls.locals().iter().map(|lp| lp.def.key));
                key_array(t)
            }
            Derivation::Union { a, b } => {
                let (ta, tb) = (intent_type(db, *a)?, intent_type(db, *b)?);
                ta.iter().copied().filter(|k| tb.binary_search(k).is_ok()).collect()
            }
            Derivation::Intersect { a, b } => {
                let (ta, tb) = (intent_type(db, *a)?, intent_type(db, *b)?);
                key_array(ta.iter().chain(tb.iter()).copied().collect())
            }
        },
    };
    // Classifier-attached by-reference inclusions are part of the type for
    // every operator.
    if cls.extra_refs().is_empty() {
        return Ok(by_operator);
    }
    let mut t = by_operator.to_vec();
    t.extend(cls.extra_refs().iter().map(|(_, k)| *k).filter(|k| schema.def_by_key(*k).is_ok()));
    Ok(key_array(t))
}

/// Sort and deduplicate `keys` into a type.
fn key_array(mut keys: Vec<PropKey>) -> Arc<TypeKeys> {
    keys.sort_unstable();
    keys.dedup();
    keys.into()
}

/// The name of each key of `t`, in key order (an ambiguous name appears
/// once per definition).
fn names<'a>(db: &'a Database, t: &TypeKeys) -> ModelResult<Vec<&'a str>> {
    t.iter().map(|&key| Ok(db.schema().def_by_key(key)?.1.name.as_str())).collect()
}

/// Definition-time validation for `select`: every referenced attribute must
/// resolve (unambiguously) in the source's type.
pub fn validate_select(db: &Database, src: ClassId, attrs: &[String]) -> ModelResult<()> {
    let names = names(db, &intent_type(db, src)?)?;
    for attr in attrs {
        match names.iter().filter(|n| **n == attr).count() {
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
    let names = names(db, &intent_type(db, src)?)?;
    for p in props {
        if !names.contains(&p.as_str()) {
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
    let names = names(db, &intent_type(db, src)?)?;
    for name in new_names.iter().chain(inherited_names) {
        if names.contains(&name.as_str()) {
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
/// of `b`'s class (more properties = more specific)? One merge over the two
/// sorted arrays.
pub fn type_includes(a: &TypeKeys, b: &TypeKeys) -> bool {
    let mut rest = a.iter();
    b.len() <= a.len() && b.iter().all(|k| rest.find(|x| *x >= k) == Some(k))
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
        assert_eq!(names(&db, &t).unwrap(), ["name"]);
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
        let pred = tse_object_model::Predicate::is_set("name");
        let s = db
            .schema_mut()
            .create_virtual_class("S", Derivation::Select { src: h, pred })
            .unwrap();
        let names = |db: &Database, class| -> Vec<String> {
            let t = intent_type(db, class).unwrap();
            let mut sorted: Vec<String> =
                names(db, &t).unwrap().into_iter().map(Into::into).collect();
            sorted.sort();
            sorted
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
    fn type_inclusion_is_subset_on_keys() {
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

        // The merge, on hand-made arrays: a miss below, between and above
        // the other side's keys.
        let k = |keys: &[u64]| -> Vec<PropKey> { keys.iter().map(|&k| PropKey(k)).collect() };
        assert!(type_includes(&k(&[1, 2, 3]), &k(&[1, 3])));
        assert!(type_includes(&k(&[1, 2, 3]), &k(&[])));
        assert!(!type_includes(&k(&[1, 2, 3]), &k(&[0, 1])));
        assert!(!type_includes(&k(&[1, 3]), &k(&[2])));
        assert!(!type_includes(&k(&[1, 3]), &k(&[3, 4])));
        assert!(!type_includes(&k(&[1]), &k(&[1, 2])));
    }
}
