//! Derivation tracing: source relationships and origin classes.
//!
//! "For each virtual class, following the source relationships leads to a set
//! of base classes. They are called the *origin classes* of the virtual
//! class ... the base classes to which an update on the virtual class
//! eventually propagated" (§3.4).

use std::collections::BTreeSet;

use tse_object_model::{ClassId, ClassKind, ModelResult, Schema};

/// Direct source classes of a class (empty for base classes).
pub fn sources(schema: &Schema, class: ClassId) -> ModelResult<Vec<ClassId>> {
    Ok(match &schema.class(class)?.kind {
        ClassKind::Base => Vec::new(),
        ClassKind::Virtual(d) => d.sources(),
    })
}

/// The origin (base) classes of a class: itself for a base class, otherwise
/// the base classes reached by transitively following source relationships.
pub fn origin_classes(schema: &Schema, class: ClassId) -> ModelResult<BTreeSet<ClassId>> {
    let mut origins = BTreeSet::new();
    let mut stack = vec![class];
    let mut seen = BTreeSet::new();
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        match &schema.class(c)?.kind {
            ClassKind::Base => {
                origins.insert(c);
            }
            ClassKind::Virtual(d) => stack.extend(d.sources()),
        }
    }
    Ok(origins)
}

/// All classes (virtual) that are directly derived from `class` — the
/// forward edges of the derivation DAG. O(#classes); used by schema-change
/// translation, not hot paths.
pub fn derived_from(schema: &Schema, class: ClassId) -> Vec<ClassId> {
    schema
        .class_ids()
        .filter(|c| {
            schema
                .class(*c)
                .ok()
                .and_then(|cls| cls.derivation().map(|d| d.sources().contains(&class)))
                .unwrap_or(false)
        })
        .collect()
}

/// The derivation *chain* from `class` down to its origins, in dependency
/// order (origins excluded, `class` last). Used by `add_class` to replay a
/// derivation over substituted origins.
pub fn derivation_chain(schema: &Schema, class: ClassId) -> ModelResult<Vec<ClassId>> {
    let mut order = Vec::new();
    let mut seen = BTreeSet::new();
    fn visit(
        schema: &Schema,
        c: ClassId,
        seen: &mut BTreeSet<ClassId>,
        order: &mut Vec<ClassId>,
    ) -> ModelResult<()> {
        if !seen.insert(c) {
            return Ok(());
        }
        if let ClassKind::Virtual(d) = &schema.class(c)?.kind {
            for s in d.sources() {
                visit(schema, s, seen, order)?;
            }
            order.push(c);
        }
        Ok(())
    }
    visit(schema, class, &mut seen, &mut order)?;
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::{Database, Derivation, Predicate};

    fn setup() -> (Database, ClassId, ClassId, ClassId, ClassId) {
        let mut db = Database::default();
        let a = db.schema_mut().create_base_class("A", &[]).unwrap();
        let b = db.schema_mut().create_base_class("B", &[]).unwrap();
        let v1 = db
            .schema_mut()
            .create_virtual_class("V1", Derivation::Select { src: a, pred: Predicate::TRUE })
            .unwrap();
        let v2 = db
            .schema_mut()
            .create_virtual_class("V2", Derivation::Union { a: v1, b })
            .unwrap();
        (db, a, b, v1, v2)
    }

    #[test]
    fn origins_trace_to_base_classes() {
        let (db, a, b, v1, v2) = setup();
        assert_eq!(origin_classes(db.schema(), a).unwrap(), BTreeSet::from([a]));
        assert_eq!(origin_classes(db.schema(), v1).unwrap(), BTreeSet::from([a]));
        assert_eq!(origin_classes(db.schema(), v2).unwrap(), BTreeSet::from([a, b]));
    }

    #[test]
    fn sources_and_derived_from_are_inverse() {
        let (db, a, b, v1, v2) = setup();
        assert_eq!(sources(db.schema(), v2).unwrap(), vec![v1, b]);
        assert_eq!(derived_from(db.schema(), a), vec![v1]);
        assert_eq!(derived_from(db.schema(), v1), vec![v2]);
        assert_eq!(derived_from(db.schema(), v2), vec![]);
    }

    #[test]
    fn chain_lists_virtuals_in_dependency_order() {
        let (db, _, _, v1, v2) = setup();
        assert_eq!(derivation_chain(db.schema(), v2).unwrap(), vec![v1, v2]);
        assert_eq!(derivation_chain(db.schema(), v1).unwrap(), vec![v1]);
    }
}
