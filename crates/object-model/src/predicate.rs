//! Predicates for the `select` operator and for class constraints.

use crate::error::ModelResult;
use crate::method::{eval_body, render_expr, AttrSource, BinOp, MethodBody};
use crate::value::Value;

/// One boolean expression over the candidate object: the predicate of a
/// `select` and a class's constraint. It is a [`MethodBody`], evaluated by
/// [`eval_body`] and read by its truthiness, so it answers exactly as the
/// same text given to `select_where` does. An ordering comparison of values
/// that do not compare (`null`, NaN, mixed kinds) is an error, not `false`.
///
/// Two predicates that spell the same expression are equal and hash alike,
/// which is what duplicate-class detection compares.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Predicate {
    /// The expression (the only shape).
    Expr(MethodBody),
}

impl Predicate {
    /// Always true (select-all).
    pub const TRUE: Predicate = Predicate::Expr(MethodBody::Const(Value::Bool(true)));

    /// The expression.
    pub(crate) fn body(&self) -> &MethodBody {
        let Predicate::Expr(body) = self;
        body
    }

    fn into_body(self) -> MethodBody {
        let Predicate::Expr(body) = self;
        body
    }

    /// Evaluate against a property source for the candidate object.
    pub fn eval(&self, src: &dyn AttrSource) -> ModelResult<bool> {
        Ok(eval_body(self.body(), src)?.truthy())
    }

    /// Attribute names the predicate reads.
    pub fn referenced_attrs(&self) -> Vec<String> {
        self.body().referenced_attrs()
    }

    /// The expression's text (used when printing view definitions and
    /// refused updates); the debug form for the few bodies the grammar
    /// cannot spell.
    pub fn render(&self) -> String {
        render_expr(self.body()).unwrap_or_else(|_| format!("{:?}", self.body()))
    }

    /// Shorthand: `attr op value`.
    pub fn cmp(attr: &str, op: BinOp, value: impl Into<Value>) -> Predicate {
        let (attr, value) = (MethodBody::Attr(attr.into()), MethodBody::Const(value.into()));
        Predicate::Expr(MethodBody::bin(op, attr, value))
    }

    /// Shorthand: `attr != null`.
    pub fn is_set(attr: &str) -> Predicate {
        Predicate::cmp(attr, BinOp::Ne, Value::Null)
    }

    /// Shorthand conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::Expr(MethodBody::bin(BinOp::And, self.into_body(), other.into_body()))
    }

    /// Shorthand disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Expr(MethodBody::bin(BinOp::Or, self.into_body(), other.into_body()))
    }

    /// Shorthand negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Expr(MethodBody::Not(Box::new(self.into_body())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;
    use crate::method::parse_expr;
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
        assert!(Predicate::cmp("age", BinOp::Ge, 18).eval(&src).unwrap());
        assert!(!Predicate::cmp("age", BinOp::Lt, 18).eval(&src).unwrap());
        assert!(Predicate::cmp("name", BinOp::Eq, "ann").eval(&src).unwrap());
        assert!(Predicate::cmp("name", BinOp::Lt, "bob").eval(&src).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let src = person(30, "ann");
        let p = Predicate::cmp("age", BinOp::Ge, 18).and(Predicate::cmp("name", BinOp::Ne, "bob"));
        assert!(p.eval(&src).unwrap());
        let q = Predicate::cmp("age", BinOp::Lt, 18).or(Predicate::TRUE);
        assert!(q.eval(&src).unwrap());
        assert!(!Predicate::TRUE.not().eval(&src).unwrap());
    }

    /// An ordering comparison with `null` fails as the same text given to
    /// `select_where` does; `is_set` still tells a null from a value.
    #[test]
    fn null_ordering_errors_as_its_text_does_but_is_set_detects() {
        let src = person(30, "ann");
        let refused = Err(ModelError::MethodEval("cannot compare null with int".into()));
        assert_eq!(Predicate::cmp("advisor", BinOp::Gt, 0).eval(&src), refused);
        assert_eq!(Predicate::Expr(parse_expr("advisor > 0").unwrap()).eval(&src), refused);
        assert!(!Predicate::is_set("advisor").eval(&src).unwrap());
        assert!(Predicate::is_set("age").eval(&src).unwrap());
    }

    #[test]
    fn missing_attribute_propagates_error() {
        let src = person(30, "ann");
        assert!(Predicate::cmp("salary", BinOp::Gt, 0).eval(&src).is_err());
    }

    #[test]
    fn referenced_attrs_and_render() {
        let p = Predicate::cmp("age", BinOp::Ge, 18).and(Predicate::is_set("name"));
        assert_eq!(p.referenced_attrs(), vec!["age".to_string(), "name".to_string()]);
        assert_eq!(p.render(), "((age >= 18) and (name != null))");
        assert_eq!(parse_expr(&p.render()).unwrap(), *p.body());
        assert_eq!(Predicate::TRUE.render(), "true");
    }

    #[test]
    fn a_built_predicate_equals_its_parsed_text() {
        use std::hash::{BuildHasher, RandomState};
        let built = Predicate::cmp("age", BinOp::Ge, 18);
        let parsed = Predicate::Expr(parse_expr("age >= 18").unwrap());
        assert_eq!(built, parsed);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&built), hasher.hash_one(&parsed));
        assert_eq!(Predicate::TRUE, Predicate::Expr(parse_expr("true").unwrap()));
    }
}
