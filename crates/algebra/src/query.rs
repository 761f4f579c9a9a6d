//! The object-algebra query AST.
//!
//! Arbitrary nesting is allowed, "exactly as in relational DBMSs":
//! `defineVC <name> as <query>`. Nested sub-queries are materialized as
//! intermediate virtual classes when the definition is executed (see
//! [`crate::define_vc`]).

use tse_object_model::{ClassId, PendingProp, Predicate};

/// A reference to a class by id or by (possibly not-yet-defined) global
/// name. The TSE Translator emits whole scripts up front, so later
/// statements reference classes earlier statements will create — exactly as
/// the paper's generated view specifications do (`refine C':x for C_sub`).
#[derive(Debug, Clone, PartialEq)]
pub enum ClassRef {
    /// An existing class.
    Id(ClassId),
    /// A class resolved by global name at execution time.
    Name(String),
}

impl From<ClassId> for ClassRef {
    fn from(id: ClassId) -> Self {
        ClassRef::Id(id)
    }
}

impl From<&str> for ClassRef {
    fn from(name: &str) -> Self {
        ClassRef::Name(name.to_string())
    }
}

/// A (possibly nested) object-algebra query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// An existing class (base or virtual) by id.
    Class(ClassId),
    /// A class referenced by global name, resolved at execution time.
    ClassName(String),
    /// `select from <src> where <pred>`.
    Select {
        /// Input query.
        src: Box<Query>,
        /// Selection predicate.
        pred: Predicate,
    },
    /// `hide <props> from <src>`.
    Hide {
        /// Input query.
        src: Box<Query>,
        /// Property names to hide.
        props: Vec<String>,
    },
    /// `refine <prop-defs> for <src>` — the extended, capacity-augmenting
    /// refine: `new_props` may contain stored attributes; `inherited` pulls
    /// in properties from other classes by reference
    /// (`refine C1:x for C2`).
    Refine {
        /// Input query.
        src: Box<Query>,
        /// Freshly defined properties.
        new_props: Vec<PendingProp>,
        /// `(class, property-name)` pairs inherited by reference.
        inherited: Vec<(ClassRef, String)>,
    },
    /// `union <a> and <b>`.
    Union(Box<Query>, Box<Query>),
    /// `difference <a> and <b>`.
    Difference(Box<Query>, Box<Query>),
    /// `intersect <a> and <b>`.
    Intersect(Box<Query>, Box<Query>),
}

impl Query {
    /// Shorthand: class reference.
    pub fn class(id: ClassId) -> Query {
        Query::Class(id)
    }

    /// Shorthand: select on a class.
    pub fn select(src: Query, pred: Predicate) -> Query {
        Query::Select { src: Box::new(src), pred }
    }

    /// Shorthand: hide properties.
    pub fn hide(src: Query, props: &[&str]) -> Query {
        Query::Hide { src: Box::new(src), props: props.iter().map(|s| s.to_string()).collect() }
    }

    /// Shorthand: refine with fresh property definitions only.
    pub fn refine(src: Query, new_props: Vec<PendingProp>) -> Query {
        Query::Refine { src: Box::new(src), new_props, inherited: vec![] }
    }

    /// Shorthand: class reference by name.
    pub fn class_name(name: impl Into<String>) -> Query {
        Query::ClassName(name.into())
    }

    /// Shorthand: refine that inherits properties by reference.
    pub fn refine_inherit(src: Query, inherited: Vec<(impl Into<ClassRef>, &str)>) -> Query {
        Query::Refine {
            src: Box::new(src),
            new_props: vec![],
            inherited: inherited.into_iter().map(|(c, n)| (c.into(), n.to_string())).collect(),
        }
    }

    /// Shorthand: union.
    pub fn union(a: Query, b: Query) -> Query {
        Query::Union(Box::new(a), Box::new(b))
    }

    /// Shorthand: difference.
    pub fn difference(a: Query, b: Query) -> Query {
        Query::Difference(Box::new(a), Box::new(b))
    }

    /// Shorthand: intersect.
    pub fn intersect(a: Query, b: Query) -> Query {
        Query::Intersect(Box::new(a), Box::new(b))
    }

    /// Render with a class-name lookup (for printed view definitions).
    pub fn render(&self, name_of: &dyn Fn(ClassId) -> String) -> String {
        match self {
            Query::Class(c) => name_of(*c),
            Query::ClassName(n) => n.clone(),
            Query::Select { src, pred } => {
                format!("(select from {} where {})", src.render(name_of), pred.render())
            }
            Query::Hide { src, props } => {
                format!("(hide {} from {})", props.join(", "), src.render(name_of))
            }
            Query::Refine { src, new_props, inherited } => {
                let mut parts: Vec<String> =
                    new_props.iter().map(|p| p.name.clone()).collect();
                parts.extend(inherited.iter().map(|(c, n)| {
                    let cname = match c {
                        ClassRef::Id(id) => name_of(*id),
                        ClassRef::Name(n) => n.clone(),
                    };
                    format!("{cname}:{n}")
                }));
                format!("(refine {} for {})", parts.join(", "), src.render(name_of))
            }
            Query::Union(a, b) => {
                format!("(union {} and {})", a.render(name_of), b.render(name_of))
            }
            Query::Difference(a, b) => {
                format!("(difference {} and {})", a.render(name_of), b.render(name_of))
            }
            Query::Intersect(a, b) => {
                format!("(intersect {} and {})", a.render(name_of), b.render(name_of))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::BinOp;

    #[test]
    fn builders_and_render() {
        let q = Query::union(
            Query::select(Query::class(ClassId(1)), Predicate::cmp("age", BinOp::Ge, 18)),
            Query::hide(Query::class(ClassId(2)), &["ssn"]),
        );
        let rendered = q.render(&|c| format!("C{}", c.0));
        assert!(rendered.contains("select from C1"));
        assert!(rendered.contains("hide ssn from C2"));
        assert!(rendered.starts_with("(union"));
    }
}
