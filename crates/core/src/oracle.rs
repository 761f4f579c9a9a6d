//! The direct-modification oracle.
//!
//! The paper verifies each translation algorithm by comparing the view TSE
//! computes (`S''`) against the schema a *normal, destructive* schema
//! modification would produce (`S'`), proving `S' = S''` (Propositions A).
//! This module makes that argument executable: [`SimpleSchema`] is a plain
//! value-level schema with Orion-style in-place change semantics; tests
//! snapshot a view, apply the change both ways, and check equivalence.
//!
//! Scope notes (mirroring the paper's assumptions):
//! * property identity is `(name, signature)` — two same-named properties
//!   with identical signatures are "the same" for comparison purposes;
//! * the restoration of a *suppressed* property whose definition lives
//!   outside the view is covered by dedicated unit tests, not the oracle
//!   (a view-confined snapshot cannot see the shadowed definition).

use std::collections::{BTreeMap, BTreeSet};

use tse_object_model::{Database, ModelError, ModelResult, Oid, PropKind};
use tse_view::ViewSchema;

use crate::change::SchemaChange;

/// Signature of a property, as far as equivalence checking is concerned.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PropSig {
    /// `"stored"` or `"method"`.
    pub kind: &'static str,
    /// Rendered value type.
    pub vtype: String,
}

/// One class of the simple schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimpleClass {
    /// Locally defined (or first-appearing-in-view) properties.
    pub locals: BTreeMap<String, BTreeSet<PropSig>>,
    /// Objects whose most specific view class is this one.
    pub local_extent: BTreeSet<Oid>,
    /// Direct superclasses (by view-local name).
    pub supers: BTreeSet<String>,
}

/// A plain-value schema with destructive change semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimpleSchema {
    /// Classes by view-local name.
    pub classes: BTreeMap<String, SimpleClass>,
}

/// Canonical comparison form of one class:
/// `(computed type, computed global extent, transitive superclass names)`.
pub type CanonicalClass =
    (BTreeMap<String, BTreeSet<PropSig>>, BTreeSet<Oid>, BTreeSet<String>);

fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Invalid(msg.into())
}

impl SimpleSchema {
    /// Snapshot a view of the live system into a simple schema.
    pub fn snapshot(db: &Database, view: &ViewSchema) -> ModelResult<SimpleSchema> {
        let mut out = SimpleSchema::default();
        for &class in &view.classes {
            let local = view.local_name(db, class)?;
            let mut sc = SimpleClass::default();
            // Direct supers within the view.
            for sup in view.supers_in_view(class) {
                sc.supers.insert(view.local_name(db, sup)?);
            }
            // Locals: candidates not already provided by a view-super.
            let rt = db.schema().resolved_type(class)?;
            let mut inherited_keys = BTreeSet::new();
            for sup in view.supers_in_view(class) {
                inherited_keys
                    .extend(db.schema().resolved_type(sup)?.keys().iter().copied());
            }
            for (name, rp) in &rt.props {
                for cand in &rp.candidates {
                    if inherited_keys.contains(&cand.key) {
                        continue;
                    }
                    let (_, def) = db.schema().def_by_key(cand.key)?;
                    let sig = match &def.kind {
                        PropKind::Stored { vtype, .. } => {
                            PropSig { kind: "stored", vtype: vtype.describe() }
                        }
                        PropKind::Method { vtype, .. } => {
                            PropSig { kind: "method", vtype: vtype.describe() }
                        }
                    };
                    sc.locals.entry(name.clone()).or_default().insert(sig);
                }
            }
            // Local extent: members not in any direct view-subclass.
            let mut ext = db.extent(class)?.as_ref().clone();
            for sub in view.subs_in_view(class) {
                for oid in db.extent(sub)?.iter() {
                    ext.remove(oid);
                }
            }
            sc.local_extent = ext;
            out.classes.insert(local, sc);
        }
        Ok(out)
    }

    fn class(&self, name: &str) -> ModelResult<&SimpleClass> {
        self.classes.get(name).ok_or_else(|| err(format!("oracle: no class {name:?}")))
    }

    fn class_mut(&mut self, name: &str) -> ModelResult<&mut SimpleClass> {
        self.classes.get_mut(name).ok_or_else(|| err(format!("oracle: no class {name:?}")))
    }

    /// Direct subclasses of `name`.
    fn subs(&self, name: &str) -> Vec<String> {
        self.classes
            .iter()
            .filter(|(_, c)| c.supers.contains(name))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All classes reachable downward from `name`, inclusive.
    fn descendants(&self, name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![name.to_string()];
        while let Some(c) = stack.pop() {
            if out.insert(c.clone()) {
                stack.extend(self.subs(&c));
            }
        }
        out
    }

    /// All classes reachable upward from `name`, inclusive.
    fn ancestors(&self, name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![name.to_string()];
        while let Some(c) = stack.pop() {
            if out.insert(c.clone()) {
                if let Ok(cls) = self.class(&c) {
                    stack.extend(cls.supers.iter().cloned());
                }
            }
        }
        out
    }

    /// The computed (inherited) type of a class: name → signature set.
    /// Local definitions shadow inherited ones; same-signature candidates
    /// from different paths collapse.
    pub fn computed_type(&self, name: &str) -> ModelResult<BTreeMap<String, BTreeSet<PropSig>>> {
        let mut memo = BTreeMap::new();
        self.computed_type_rec(name, &mut memo)
    }

    fn computed_type_rec(
        &self,
        name: &str,
        memo: &mut BTreeMap<String, BTreeMap<String, BTreeSet<PropSig>>>,
    ) -> ModelResult<BTreeMap<String, BTreeSet<PropSig>>> {
        if let Some(t) = memo.get(name) {
            return Ok(t.clone());
        }
        let cls = self.class(name)?;
        let mut merged: BTreeMap<String, BTreeSet<PropSig>> = BTreeMap::new();
        for sup in &cls.supers {
            for (pname, sigs) in self.computed_type_rec(sup, memo)? {
                merged.entry(pname).or_default().extend(sigs);
            }
        }
        for (pname, sigs) in &cls.locals {
            merged.insert(pname.clone(), sigs.clone());
        }
        memo.insert(name.to_string(), merged.clone());
        Ok(merged)
    }

    /// The computed global extent of a class.
    pub fn global_extent(&self, name: &str) -> ModelResult<BTreeSet<Oid>> {
        let mut out = BTreeSet::new();
        for c in self.descendants(name) {
            out.extend(self.class(&c)?.local_extent.iter().copied());
        }
        Ok(out)
    }

    // ----- direct (destructive) change semantics ---------------------------

    /// Apply a primitive schema change in place, with the §6.x.1 semantics.
    pub fn apply(&mut self, change: &SchemaChange) -> ModelResult<()> {
        match change {
            SchemaChange::AddAttribute { class, name, vtype, .. } => {
                self.add_prop(class, name, PropSig { kind: "stored", vtype: vtype.describe() })
            }
            SchemaChange::AddMethod { class, name, vtype, .. } => {
                self.add_prop(class, name, PropSig { kind: "method", vtype: vtype.describe() })
            }
            SchemaChange::DeleteAttribute { class, name }
            | SchemaChange::DeleteMethod { class, name } => self.delete_prop(class, name),
            SchemaChange::AddEdge { sup, sub } => {
                self.class(sup)?;
                self.class(sub)?;
                if self.descendants(sub).contains(sup) {
                    return Err(err("oracle: edge would create a cycle"));
                }
                if self.ancestors(sub).contains(sup) {
                    return Err(err("oracle: already a superclass"));
                }
                self.class_mut(sub)?.supers.insert(sup.clone());
                Ok(())
            }
            SchemaChange::DeleteEdge { sup, sub, connected_to } => {
                if !self.class(sub)?.supers.contains(sup) {
                    return Err(err("oracle: no such edge"));
                }
                self.class_mut(sub)?.supers.remove(sup);
                if let Some(upper) = connected_to {
                    self.class(upper)?;
                    self.class_mut(sub)?.supers.insert(upper.clone());
                }
                Ok(())
            }
            SchemaChange::AddClass { name, connected_to } => {
                if self.classes.contains_key(name) {
                    return Err(err("oracle: class exists"));
                }
                let mut sc = SimpleClass::default();
                if let Some(sup) = connected_to {
                    self.class(sup)?;
                    sc.supers.insert(sup.clone());
                }
                self.classes.insert(name.clone(), sc);
                Ok(())
            }
            SchemaChange::DeleteClass { class } => {
                // §6.8: the class is dropped from the view; its local extent
                // stays visible to its superclasses and its local properties
                // stay inherited by its subclasses.
                let doomed = self.class(class)?.clone();
                for sub in self.subs(class) {
                    let sub_cls = self.class_mut(&sub)?;
                    sub_cls.supers.remove(class);
                    sub_cls.supers.extend(doomed.supers.iter().cloned());
                    for (pname, sigs) in &doomed.locals {
                        sub_cls.locals.entry(pname.clone()).or_default().extend(sigs.iter().cloned());
                    }
                }
                for sup in &doomed.supers {
                    let sup_cls = self.class_mut(sup)?;
                    sup_cls.local_extent.extend(doomed.local_extent.iter().copied());
                }
                self.classes.remove(class);
                Ok(())
            }
            SchemaChange::RenameClass { old, new } => {
                if self.classes.contains_key(new) {
                    return Err(err("oracle: rename target exists"));
                }
                let cls = self
                    .classes
                    .remove(old)
                    .ok_or_else(|| err(format!("oracle: no class {old:?}")))?;
                self.classes.insert(new.clone(), cls);
                for c in self.classes.values_mut() {
                    if c.supers.remove(old) {
                        c.supers.insert(new.clone());
                    }
                }
                Ok(())
            }
            SchemaChange::InsertClass { .. } | SchemaChange::DeleteClass2 { .. } => {
                Err(err("oracle: expand composite operators into primitives first"))
            }
        }
    }

    fn add_prop(&mut self, class: &str, name: &str, sig: PropSig) -> ModelResult<()> {
        if self.computed_type(class)?.contains_key(name) {
            return Err(err(format!("oracle: property {name:?} already in type of {class:?}")));
        }
        self.class_mut(class)?.locals.insert(name.to_string(), BTreeSet::from([sig]));
        Ok(())
    }

    fn delete_prop(&mut self, class: &str, name: &str) -> ModelResult<()> {
        if !self.class(class)?.locals.contains_key(name) {
            return Err(err(format!(
                "oracle: {name:?} is not locally defined at {class:?}; only local properties \
                 can be deleted"
            )));
        }
        self.class_mut(class)?.locals.remove(name);
        Ok(())
    }

    // ----- equivalence --------------------------------------------------------

    /// Canonical form: per class, the computed type, the computed global
    /// extent, and the set of (transitive) superclass names. Transitive
    /// closure makes the comparison insensitive to redundant direct edges.
    pub fn canonical(&self) -> ModelResult<BTreeMap<String, CanonicalClass>> {
        let mut out = BTreeMap::new();
        for name in self.classes.keys() {
            let mut ancestors = self.ancestors(name);
            ancestors.remove(name);
            out.insert(
                name.clone(),
                (self.computed_type(name)?, self.global_extent(name)?, ancestors),
            );
        }
        Ok(out)
    }

    /// Are two simple schemas equivalent (same classes, types, extents,
    /// generalization reachability)?
    pub fn equivalent(&self, other: &SimpleSchema) -> ModelResult<bool> {
        Ok(self.canonical()? == other.canonical()?)
    }

    /// Human-readable diff for failing comparisons.
    pub fn diff(&self, other: &SimpleSchema) -> String {
        let a = match self.canonical() {
            Ok(c) => c,
            Err(e) => return format!("left canonicalization failed: {e}"),
        };
        let b = match other.canonical() {
            Ok(c) => c,
            Err(e) => return format!("right canonicalization failed: {e}"),
        };
        let mut out = String::new();
        let names: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        for name in names {
            match (a.get(name), b.get(name)) {
                (Some(x), Some(y)) if x == y => {}
                (Some(x), Some(y)) => {
                    out.push_str(&format!("class {name}: differs\n"));
                    if x.0 != y.0 {
                        out.push_str(&format!("  type left  = {:?}\n  type right = {:?}\n", x.0, y.0));
                    }
                    if x.1 != y.1 {
                        out.push_str(&format!("  extent left  = {:?}\n  extent right = {:?}\n", x.1, y.1));
                    }
                    if x.2 != y.2 {
                        out.push_str(&format!("  supers left  = {:?}\n  supers right = {:?}\n", x.2, y.2));
                    }
                }
                (Some(_), None) => out.push_str(&format!("class {name}: only in left\n")),
                (None, Some(_)) => out.push_str(&format!("class {name}: only in right\n")),
                (None, None) => unreachable!(),
            }
        }
        if out.is_empty() {
            out.push_str("(equivalent)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::ValueType;

    fn sig_stored() -> PropSig {
        PropSig { kind: "stored", vtype: "int".into() }
    }

    fn tiny() -> SimpleSchema {
        let mut s = SimpleSchema::default();
        s.classes.insert(
            "Person".into(),
            SimpleClass {
                locals: BTreeMap::from([("age".to_string(), BTreeSet::from([sig_stored()]))]),
                local_extent: BTreeSet::from([Oid(1)]),
                supers: BTreeSet::new(),
            },
        );
        s.classes.insert(
            "Student".into(),
            SimpleClass {
                locals: BTreeMap::new(),
                local_extent: BTreeSet::from([Oid(2)]),
                supers: BTreeSet::from(["Person".to_string()]),
            },
        );
        s
    }

    #[test]
    fn computed_type_inherits_and_shadows() {
        let mut s = tiny();
        assert!(s.computed_type("Student").unwrap().contains_key("age"));
        // Shadowing local.
        s.class_mut("Student")
            .unwrap()
            .locals
            .insert("age".into(), BTreeSet::from([PropSig { kind: "stored", vtype: "str".into() }]));
        let t = s.computed_type("Student").unwrap();
        assert_eq!(t["age"].len(), 1);
        assert_eq!(t["age"].iter().next().unwrap().vtype, "str");
    }

    #[test]
    fn extents_roll_up() {
        let s = tiny();
        assert_eq!(s.global_extent("Person").unwrap(), BTreeSet::from([Oid(1), Oid(2)]));
        assert_eq!(s.global_extent("Student").unwrap(), BTreeSet::from([Oid(2)]));
    }

    #[test]
    fn direct_add_and_delete_attribute() {
        let mut s = tiny();
        s.apply(&SchemaChange::AddAttribute {
            class: "Student".into(),
            name: "gpa".into(),
            vtype: ValueType::Float,
            default: tse_object_model::Value::Float(0.0),
            required: false,
        })
        .unwrap();
        assert!(s.computed_type("Student").unwrap().contains_key("gpa"));
        assert!(!s.computed_type("Person").unwrap().contains_key("gpa"));
        // Re-adding is rejected; deleting inherited is rejected.
        assert!(s
            .apply(&SchemaChange::AddAttribute {
                class: "Student".into(),
                name: "age".into(),
                vtype: ValueType::Int,
                default: tse_object_model::Value::Int(0),
                required: false,
            })
            .is_err());
        assert!(s
            .apply(&SchemaChange::DeleteAttribute { class: "Student".into(), name: "age".into() })
            .is_err());
        s.apply(&SchemaChange::DeleteAttribute { class: "Student".into(), name: "gpa".into() })
            .unwrap();
        assert!(!s.computed_type("Student").unwrap().contains_key("gpa"));
    }

    #[test]
    fn direct_edge_ops_change_types_and_extents() {
        let mut s = tiny();
        s.classes.insert(
            "Staff".into(),
            SimpleClass {
                locals: BTreeMap::from([("salary".to_string(), BTreeSet::from([sig_stored()]))]),
                local_extent: BTreeSet::from([Oid(3)]),
                supers: BTreeSet::from(["Person".to_string()]),
            },
        );
        s.apply(&SchemaChange::AddEdge { sup: "Staff".into(), sub: "Student".into() }).unwrap();
        assert!(s.computed_type("Student").unwrap().contains_key("salary"));
        assert_eq!(s.global_extent("Staff").unwrap(), BTreeSet::from([Oid(2), Oid(3)]));
        s.apply(&SchemaChange::DeleteEdge {
            sup: "Staff".into(),
            sub: "Student".into(),
            connected_to: None,
        })
        .unwrap();
        assert!(!s.computed_type("Student").unwrap().contains_key("salary"));
        assert_eq!(s.global_extent("Staff").unwrap(), BTreeSet::from([Oid(3)]));
        assert!(s
            .apply(&SchemaChange::DeleteEdge {
                sup: "Staff".into(),
                sub: "Student".into(),
                connected_to: None
            })
            .is_err());
    }

    #[test]
    fn delete_class_keeps_extent_and_inheritance() {
        let mut s = tiny();
        s.classes.insert(
            "TA".into(),
            SimpleClass {
                locals: BTreeMap::new(),
                local_extent: BTreeSet::from([Oid(4)]),
                supers: BTreeSet::from(["Student".to_string()]),
            },
        );
        s.class_mut("Student")
            .unwrap()
            .locals
            .insert("gpa".into(), BTreeSet::from([sig_stored()]));
        s.apply(&SchemaChange::DeleteClass { class: "Student".into() }).unwrap();
        assert!(!s.classes.contains_key("Student"));
        // TA still inherits gpa (copied down) and is under Person.
        assert!(s.computed_type("TA").unwrap().contains_key("gpa"));
        assert!(s.ancestors("TA").contains("Person"));
        // Student's local extent stayed visible to Person.
        assert!(s.global_extent("Person").unwrap().contains(&Oid(2)));
    }

    #[test]
    fn equivalence_and_diff() {
        let a = tiny();
        let mut b = tiny();
        assert!(a.equivalent(&b).unwrap());
        assert_eq!(a.diff(&b), "(equivalent)");
        b.class_mut("Person").unwrap().local_extent.insert(Oid(99));
        assert!(!a.equivalent(&b).unwrap());
        assert!(a.diff(&b).contains("extent"));
    }
}
