//! Classes: base and virtual.

use crate::derivation::Derivation;
use crate::ids::{ClassId, PropKey};
use crate::property::LocalProp;

/// Base (stores instances) vs virtual (derived by a query).
#[derive(Debug, Clone, PartialEq)]
pub enum ClassKind {
    /// A base class: objects can be created directly in it.
    Base,
    /// A virtual class: its extent is defined by a derivation over other
    /// classes. Persistent and named just like a base class — "the only
    /// difference is that the extent ... is defined by the query expression".
    Virtual(Derivation),
}

/// One class of the global schema.
#[derive(Debug, Clone)]
pub struct Class {
    /// Identity within the schema.
    pub id: ClassId,
    /// Globally unique name. Views may rename classes locally; this is the
    /// global name.
    pub name: String,
    /// Base or virtual.
    pub kind: ClassKind,
    /// Locally defined properties (definitions this class *owns*).
    pub(crate) locals: Vec<LocalProp>,
    /// Direct superclasses.
    pub(crate) supers: Vec<ClassId>,
    /// Direct subclasses.
    pub(crate) subs: Vec<ClassId>,
    /// The virtual classes whose derivation names this class as a source,
    /// in creation order: the reverse of [`Derivation::sources`]. Like
    /// `subs` it is an index, not persisted, and it only grows — a retired
    /// class stays listed. `Schema::invalidate` walks it.
    pub(crate) derived: Vec<ClassId>,
    /// Stored-attribute capability: keys this class can provide slice
    /// storage for, in record field order. Grows append-only (dynamic
    /// restructuring adds fields at the end).
    pub(crate) stored_layout: Vec<PropKey>,
    /// Property definitions included in this class's type *by reference*
    /// (shared definitions, no code duplication). The classifier adds these
    /// when a class's operator-intent type contains definitions that neither
    /// its placement nor promotion can deliver — e.g. a hide class whose
    /// source inherits from a class outside the evolving view.
    pub(crate) extra_refs: Vec<(ClassId, PropKey)>,
    /// Storage segment for this class's slices (created lazily).
    pub segment: Option<tse_storage::SegmentId>,
    /// Optional class constraint: a predicate every member must satisfy
    /// after any `create`/`set` touching it — the paper's "type-specific
    /// update methods ... to check some constraints ... or even to refuse
    /// the update" (§3.3), in declarative form.
    pub(crate) constraint: Option<crate::predicate::Predicate>,
}

impl Class {
    pub(crate) fn new(id: ClassId, name: String, kind: ClassKind) -> Self {
        Class {
            id,
            name,
            kind,
            locals: Vec::new(),
            supers: Vec::new(),
            subs: Vec::new(),
            derived: Vec::new(),
            stored_layout: Vec::new(),
            extra_refs: Vec::new(),
            segment: None,
            constraint: None,
        }
    }

    /// Is this a base class?
    pub fn is_base(&self) -> bool {
        matches!(self.kind, ClassKind::Base)
    }

    /// The derivation, if virtual.
    pub fn derivation(&self) -> Option<&Derivation> {
        match &self.kind {
            ClassKind::Base => None,
            ClassKind::Virtual(d) => Some(d),
        }
    }

    /// The distinct source classes of the derivation; none for a base
    /// class. Each lists this class in its `derived`.
    pub(crate) fn sources(&self) -> Vec<ClassId> {
        let mut sources = self.derivation().map(Derivation::sources).unwrap_or_default();
        sources.dedup();
        sources
    }

    /// Locally defined properties.
    pub fn locals(&self) -> &[LocalProp] {
        &self.locals
    }

    /// Find a local property by name.
    pub fn local(&self, name: &str) -> Option<&LocalProp> {
        self.locals.iter().find(|p| p.def.name == name)
    }

    /// Find a local property by key.
    pub fn local_by_key(&self, key: PropKey) -> Option<&LocalProp> {
        self.locals.iter().find(|p| p.def.key == key)
    }

    /// Direct superclasses.
    pub fn direct_supers(&self) -> &[ClassId] {
        &self.supers
    }

    /// Direct subclasses.
    pub fn direct_subs(&self) -> &[ClassId] {
        &self.subs
    }

    /// Field index of a key in this class's slice records.
    pub fn layout_index(&self, key: PropKey) -> Option<usize> {
        self.stored_layout.iter().position(|k| *k == key)
    }

    /// Stored-attribute capability keys in field order.
    pub fn stored_layout(&self) -> &[PropKey] {
        &self.stored_layout
    }

    /// By-reference property inclusions (see the field docs).
    pub fn extra_refs(&self) -> &[(ClassId, PropKey)] {
        &self.extra_refs
    }

    /// The class constraint, if any.
    pub fn constraint(&self) -> Option<&crate::predicate::Predicate> {
        self.constraint.as_ref()
    }
}
