//! Class derivations: how a virtual class is defined.
//!
//! Each virtual class records the (already normalized, class-over-class)
//! object-algebra operation that derives it. Nested algebra queries are
//! flattened by `tse-algebra` into chains of these single-operator
//! derivations, mirroring how MultiView registers every derived class in the
//! global schema.

use crate::ids::{ClassId, PropKey};
use crate::predicate::Predicate;

/// The derivation of a virtual class (one object-algebra operator applied to
/// source classes).
#[derive(Debug, Clone, PartialEq)]
pub enum Derivation {
    /// `select from src where pred` — subset extent, same type.
    Select {
        /// Source class.
        src: ClassId,
        /// Membership predicate.
        pred: Predicate,
    },
    /// `hide props from src` — same extent, supertype.
    Hide {
        /// Source class.
        src: ClassId,
        /// Names hidden from the source's type.
        hidden: Vec<String>,
    },
    /// `refine prop-defs for src` — same extent, subtype. The *extended*
    /// capacity-augmenting refine: `new_props` may contain stored attributes,
    /// and `inherited` lists properties pulled in from other classes by key
    /// (the `refine C1:x for C2` form), sharing the definition.
    Refine {
        /// Source class.
        src: ClassId,
        /// Keys of properties freshly defined on this virtual class (their
        /// definitions are the class's local properties).
        new_props: Vec<PropKey>,
        /// `(class, key)` pairs inherited by reference from other classes.
        inherited: Vec<(ClassId, PropKey)>,
    },
    /// `union a b` — extent union, lowest common supertype.
    Union {
        /// First source.
        a: ClassId,
        /// Second source.
        b: ClassId,
    },
    /// `difference a b` — extent of `a` minus extent of `b`, type of `a`.
    Difference {
        /// First source (kept).
        a: ClassId,
        /// Second source (subtracted).
        b: ClassId,
    },
    /// `intersect a b` — extent intersection, greatest common subtype.
    Intersect {
        /// First source.
        a: ClassId,
        /// Second source.
        b: ClassId,
    },
}

impl Derivation {
    /// Direct source classes of the derivation (the reverse edges of the
    /// paper's derivation DAG; following them transitively reaches the
    /// *origin classes*).
    pub fn sources(&self) -> Vec<ClassId> {
        match self {
            Derivation::Select { src, .. }
            | Derivation::Hide { src, .. }
            | Derivation::Refine { src, .. } => vec![*src],
            Derivation::Union { a, b }
            | Derivation::Difference { a, b }
            | Derivation::Intersect { a, b } => vec![*a, *b],
        }
    }

    /// Operator name for display.
    pub fn operator_name(&self) -> &'static str {
        match self {
            Derivation::Select { .. } => "select",
            Derivation::Hide { .. } => "hide",
            Derivation::Refine { .. } => "refine",
            Derivation::Union { .. } => "union",
            Derivation::Difference { .. } => "difference",
            Derivation::Intersect { .. } => "intersect",
        }
    }

    /// Is this derivation *object-preserving*? All six operators of the
    /// paper's algebra are (Theorem 1 rests on this); the enum exists so the
    /// updatability code documents its assumption explicitly.
    pub fn object_preserving(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_match_arity() {
        let s = Derivation::Select { src: ClassId(1), pred: Predicate::TRUE };
        assert_eq!(s.sources(), vec![ClassId(1)]);
        let u = Derivation::Union { a: ClassId(1), b: ClassId(2) };
        assert_eq!(u.sources(), vec![ClassId(1), ClassId(2)]);
        assert_eq!(u.operator_name(), "union");
        assert!(u.object_preserving());
    }
}
