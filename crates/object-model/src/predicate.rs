//! Predicates for the `select` operator.
//!
//! A predicate is a boolean expression over an object's attributes —
//! structurally a [`MethodBody`] restricted to boolean results, but kept as a
//! distinct type because predicates are *schema artifacts*: they appear in
//! class derivations, must be comparable for duplicate-class detection, and
//! are displayed when views are printed.

use crate::error::ModelResult;
use crate::method::{compare, eval_body, values_eq, AttrSource, MethodBody};
use crate::value::Value;

/// Comparison operators usable in atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A selection predicate.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Predicate {
    /// Always true (select-all).
    True,
    /// Compare an attribute with a constant.
    Cmp {
        /// Attribute name on the candidate object.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// The attribute is non-null.
    IsSet(String),
    /// Evaluate an arbitrary boolean expression (escape hatch that keeps
    /// parity with the paper's "arbitrary queries").
    Expr(MethodBody),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a property source for the candidate object.
    pub fn eval(&self, src: &dyn AttrSource) -> ModelResult<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { attr, op, value } => {
                let actual = src.get(attr)?;
                Ok(match op {
                    CmpOp::Eq => values_eq(&actual, value),
                    CmpOp::Ne => !values_eq(&actual, value),
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match compare(&actual, value)
                    {
                        Some(ord) => match op {
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        },
                        // Null (or cross-kind) comparisons are simply false,
                        // as in SQL three-valued logic collapsed to boolean.
                        None => false,
                    },
                })
            }
            Predicate::IsSet(attr) => Ok(src.get(attr)? != Value::Null),
            Predicate::Expr(body) => Ok(eval_body(body, src)?.truthy()),
            Predicate::And(a, b) => Ok(a.eval(src)? && b.eval(src)?),
            Predicate::Or(a, b) => Ok(a.eval(src)? || b.eval(src)?),
            Predicate::Not(a) => Ok(!a.eval(src)?),
        }
    }

    /// Attribute names the predicate reads.
    pub fn referenced_attrs(&self) -> Vec<String> {
        fn walk(p: &Predicate, out: &mut Vec<String>) {
            match p {
                Predicate::True => {}
                Predicate::Cmp { attr, .. } | Predicate::IsSet(attr) => out.push(attr.clone()),
                Predicate::Expr(body) => out.extend(body.referenced_attrs()),
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Not(a) => walk(a, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Human-readable rendering (used when printing view definitions).
    pub fn render(&self) -> String {
        match self {
            Predicate::True => "true".into(),
            Predicate::Cmp { attr, op, value } => {
                format!("{attr} {} {value:?}", op.symbol())
            }
            Predicate::IsSet(attr) => format!("{attr} is set"),
            Predicate::Expr(_) => "<expr>".into(),
            Predicate::And(a, b) => format!("({} and {})", a.render(), b.render()),
            Predicate::Or(a, b) => format!("({} or {})", a.render(), b.render()),
            Predicate::Not(a) => format!("(not {})", a.render()),
        }
    }

    /// Shorthand: `attr op value`.
    pub fn cmp(attr: &str, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp { attr: attr.to_string(), op, value: value.into() }
    }

    /// Shorthand conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Shorthand disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Shorthand negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;
    use std::collections::HashMap;

    struct MapSource(HashMap<String, Value>);
    impl AttrSource for MapSource {
        fn get(&self, name: &str) -> ModelResult<Value> {
            self.0
                .get(name)
                .cloned()
                .ok_or_else(|| ModelError::MethodEval(format!("no attr {name}")))
        }
    }

    fn person(age: i64, name: &str) -> MapSource {
        let mut m = HashMap::new();
        m.insert("age".to_string(), Value::Int(age));
        m.insert("name".to_string(), Value::Str(name.into()));
        m.insert("advisor".to_string(), Value::Null);
        MapSource(m)
    }

    #[test]
    fn comparisons_work() {
        let src = person(30, "ann");
        assert!(Predicate::cmp("age", CmpOp::Ge, 18).eval(&src).unwrap());
        assert!(!Predicate::cmp("age", CmpOp::Lt, 18).eval(&src).unwrap());
        assert!(Predicate::cmp("name", CmpOp::Eq, "ann").eval(&src).unwrap());
        assert!(Predicate::cmp("name", CmpOp::Lt, "bob").eval(&src).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let src = person(30, "ann");
        let p = Predicate::cmp("age", CmpOp::Ge, 18).and(Predicate::cmp("name", CmpOp::Ne, "bob"));
        assert!(p.eval(&src).unwrap());
        let q = Predicate::cmp("age", CmpOp::Lt, 18).or(Predicate::True);
        assert!(q.eval(&src).unwrap());
        assert!(!Predicate::True.not().eval(&src).unwrap());
    }

    #[test]
    fn null_comparison_is_false_but_is_set_detects() {
        let src = person(30, "ann");
        assert!(!Predicate::cmp("advisor", CmpOp::Gt, 0).eval(&src).unwrap());
        assert!(!Predicate::IsSet("advisor".into()).eval(&src).unwrap());
        assert!(Predicate::IsSet("age".into()).eval(&src).unwrap());
    }

    #[test]
    fn missing_attribute_propagates_error() {
        let src = person(30, "ann");
        assert!(Predicate::cmp("salary", CmpOp::Gt, 0).eval(&src).is_err());
    }

    #[test]
    fn referenced_attrs_and_render() {
        let p = Predicate::cmp("age", CmpOp::Ge, 18).and(Predicate::IsSet("name".into()));
        assert_eq!(p.referenced_attrs(), vec!["age".to_string(), "name".to_string()]);
        assert!(p.render().contains(">="));
        assert!(p.render().contains("is set"));
    }
}
