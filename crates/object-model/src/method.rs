//! Method bodies: a small expression interpreter.
//!
//! The paper's methods are Opal (Smalltalk) code blocks; what matters to TSE
//! is that methods are *properties carried by types* — they get added,
//! deleted, inherited, overridden and promoted exactly like attributes, and
//! they compute derived values from stored state. A deterministic expression
//! language over `self`'s attributes reproduces all of that behaviour.
//!
//! The same language is the one boolean expression of the `select`
//! operator and of a class constraint ([`crate::Predicate`]). This module
//! owns the type, its evaluator, and (in `expr`) its parser and renderer.

use crate::error::{ModelError, ModelResult};
use crate::value::Value;

mod expr;
pub use expr::{parse_expr, render_expr};

/// Binary operators available in method bodies and predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Numeric addition / string concatenation / list concatenation.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division (errors on division by zero).
    Div,
    /// Equality on values.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than on ints/floats/strings.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and (on truthiness).
    And,
    /// Logical or (on truthiness).
    Or,
}

/// A method body: an expression over `self`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum MethodBody {
    /// Literal constant.
    Const(Value),
    /// Read a property of `self` (stored attribute or another method —
    /// resolution happens in the evaluation context).
    Attr(String),
    /// Binary operation.
    Bin(BinOp, Box<MethodBody>, Box<MethodBody>),
    /// Logical negation of truthiness.
    Not(Box<MethodBody>),
    /// Conditional.
    If(Box<MethodBody>, Box<MethodBody>, Box<MethodBody>),
    /// Length of a string or list.
    Len(Box<MethodBody>),
}

impl MethodBody {
    /// Convenience constructor for `Bin`.
    pub fn bin(op: BinOp, a: MethodBody, b: MethodBody) -> MethodBody {
        MethodBody::Bin(op, Box::new(a), Box::new(b))
    }

    /// All attribute names this body reads (transitively through the AST).
    /// Used by e.g. `delete_attribute` validity warnings and tests.
    pub fn referenced_attrs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<String>) {
        match self {
            MethodBody::Const(_) => {}
            MethodBody::Attr(n) => out.push(n.clone()),
            MethodBody::Bin(_, a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            MethodBody::Not(a) | MethodBody::Len(a) => a.collect_attrs(out),
            MethodBody::If(c, t, e) => {
                c.collect_attrs(out);
                t.collect_attrs(out);
                e.collect_attrs(out);
            }
        }
    }
}

/// Source of `self`'s property values during evaluation. The database layer
/// implements this with full name resolution (so `Attr` may itself resolve to
/// another method).
pub trait AttrSource {
    /// Look up a property value by name on `self`.
    fn get(&self, name: &str) -> ModelResult<Value>;
}

/// Evaluate a method body against a property source.
pub fn eval_body(body: &MethodBody, src: &dyn AttrSource) -> ModelResult<Value> {
    match body {
        MethodBody::Const(v) => Ok(v.clone()),
        MethodBody::Attr(name) => src.get(name),
        MethodBody::Not(a) => Ok(Value::Bool(!eval_body(a, src)?.truthy())),
        MethodBody::Len(a) => match eval_body(a, src)? {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            other => Err(ModelError::MethodEval(format!("len of {}", other.kind_name()))),
        },
        MethodBody::If(c, t, e) => {
            if eval_body(c, src)?.truthy() {
                eval_body(t, src)
            } else {
                eval_body(e, src)
            }
        }
        MethodBody::Bin(op, a, b) => {
            // `attr op const`, the shape of most predicates: compared in
            // place, the constant neither cloned nor moved.
            if let (MethodBody::Attr(name), MethodBody::Const(k)) = (&**a, &**b) {
                if op.is_comparison() {
                    return compare_op(*op, &src.get(name)?, k);
                }
            }
            let va = eval_body(a, src)?;
            // Short-circuit logical operators.
            match op {
                BinOp::And if !va.truthy() => return Ok(Value::Bool(false)),
                BinOp::Or if va.truthy() => return Ok(Value::Bool(true)),
                _ => {}
            }
            let vb = eval_body(b, src)?;
            apply_bin(*op, va, vb)
        }
    }
}

fn apply_bin(op: BinOp, a: Value, b: Value) -> ModelResult<Value> {
    use BinOp::*;
    use Value::*;
    let err = |msg: String| Err(ModelError::MethodEval(msg));
    match op {
        And => Ok(Bool(a.truthy() && b.truthy())),
        Or => Ok(Bool(a.truthy() || b.truthy())),
        Eq | Ne | Lt | Le | Gt | Ge => compare_op(op, &a, &b),
        Add => match (a, b) {
            (Int(x), Int(y)) => Ok(Int(x.wrapping_add(y))),
            (Float(x), Float(y)) => Ok(Float(x + y)),
            (Int(x), Float(y)) | (Float(y), Int(x)) => Ok(Float(x as f64 + y)),
            (Str(x), Str(y)) => Ok(Str(x + &y)),
            (List(mut x), List(y)) => {
                x.extend(y);
                Ok(List(x))
            }
            (a, b) => err(format!("cannot add {} and {}", a.kind_name(), b.kind_name())),
        },
        Sub | Mul | Div => {
            let (x, y) = match (&a, &b) {
                (Int(x), Int(y)) => {
                    return match op {
                        Sub => Ok(Int(x.wrapping_sub(*y))),
                        Mul => Ok(Int(x.wrapping_mul(*y))),
                        Div => {
                            if *y == 0 {
                                err("division by zero".to_string())
                            } else {
                                Ok(Int(x / y))
                            }
                        }
                        _ => unreachable!(),
                    };
                }
                (Int(x), Float(y)) => (*x as f64, *y),
                (Float(x), Int(y)) => (*x, *y as f64),
                (Float(x), Float(y)) => (*x, *y),
                _ => {
                    return err(format!(
                        "numeric op on {} and {}",
                        a.kind_name(),
                        b.kind_name()
                    ))
                }
            };
            Ok(Float(match op {
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return err("division by zero".to_string());
                    }
                    x / y
                }
                _ => unreachable!(),
            }))
        }
    }
}

impl BinOp {
    /// `Eq`, `Ne`, `Lt`, `Le`, `Gt` or `Ge`.
    fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

/// Apply a comparison operator to two borrowed values.
fn compare_op(op: BinOp, a: &Value, b: &Value) -> ModelResult<Value> {
    use BinOp::*;
    let ord = match op {
        Eq => return Ok(Value::Bool(values_eq(a, b))),
        Ne => return Ok(Value::Bool(!values_eq(a, b))),
        _ => compare(a, b).ok_or_else(|| {
            ModelError::MethodEval(format!(
                "cannot compare {} with {}",
                a.kind_name(),
                b.kind_name()
            ))
        })?,
    };
    Ok(Value::Bool(match op {
        Lt => ord.is_lt(),
        Le => ord.is_le(),
        Gt => ord.is_gt(),
        Ge => ord.is_ge(),
        _ => unreachable!("not a comparison: {op:?}"),
    }))
}

/// Value equality used by `Eq`/`Ne` (int/float cross-compare allowed).
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        _ => a == b,
    }
}

/// Partial ordering across comparable value kinds.
fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Float(x), Float(y)) => x.partial_cmp(y),
        (Int(x), Float(y)) => (*x as f64).partial_cmp(y),
        (Float(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct MapSource(HashMap<String, Value>);

    impl AttrSource for MapSource {
        fn get(&self, name: &str) -> ModelResult<Value> {
            self.0.get(name).cloned().ok_or_else(|| ModelError::MethodEval(format!("no {name}")))
        }
    }

    fn src() -> MapSource {
        let mut m = HashMap::new();
        m.insert("age".to_string(), Value::Int(30));
        m.insert("name".to_string(), Value::Str("ann".into()));
        m.insert("salary".to_string(), Value::Float(1000.0));
        MapSource(m)
    }

    #[test]
    fn arithmetic_and_attrs() {
        let body = MethodBody::bin(
            BinOp::Add,
            MethodBody::Attr("age".into()),
            MethodBody::Const(Value::Int(5)),
        );
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Int(35));
    }

    #[test]
    fn mixed_numeric_promotes_to_float() {
        let body = MethodBody::bin(
            BinOp::Mul,
            MethodBody::Attr("salary".into()),
            MethodBody::Const(Value::Int(2)),
        );
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Float(2000.0));
    }

    #[test]
    fn comparisons_and_conditionals() {
        let body = MethodBody::If(
            Box::new(MethodBody::bin(
                BinOp::Ge,
                MethodBody::Attr("age".into()),
                MethodBody::Const(Value::Int(18)),
            )),
            Box::new(MethodBody::Const(Value::Str("adult".into()))),
            Box::new(MethodBody::Const(Value::Str("minor".into()))),
        );
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Str("adult".into()));
    }

    #[test]
    fn string_concat_and_len() {
        let body = MethodBody::Len(Box::new(MethodBody::bin(
            BinOp::Add,
            MethodBody::Attr("name".into()),
            MethodBody::Const(Value::Str("!".into())),
        )));
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Int(4));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // Right side references a missing attribute; And short-circuits.
        let body = MethodBody::bin(
            BinOp::And,
            MethodBody::Const(Value::Bool(false)),
            MethodBody::Attr("missing".into()),
        );
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Bool(false));
        let body = MethodBody::bin(
            BinOp::Or,
            MethodBody::Const(Value::Bool(true)),
            MethodBody::Attr("missing".into()),
        );
        assert_eq!(eval_body(&body, &src()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_errors() {
        let body = MethodBody::bin(
            BinOp::Div,
            MethodBody::Const(Value::Int(1)),
            MethodBody::Const(Value::Int(0)),
        );
        assert!(eval_body(&body, &src()).is_err());
    }

    #[test]
    fn type_errors_are_reported() {
        let body = MethodBody::bin(
            BinOp::Sub,
            MethodBody::Attr("name".into()),
            MethodBody::Const(Value::Int(1)),
        );
        assert!(matches!(eval_body(&body, &src()), Err(ModelError::MethodEval(_))));
    }

    #[test]
    fn referenced_attrs_are_collected_and_deduped() {
        let body = MethodBody::If(
            Box::new(MethodBody::Attr("age".into())),
            Box::new(MethodBody::Attr("name".into())),
            Box::new(MethodBody::Attr("age".into())),
        );
        assert_eq!(body.referenced_attrs(), vec!["age".to_string(), "name".to_string()]);
    }

    /// `attr op const` is compared in place; every comparison of every
    /// pair of value kinds (Null, cross-kind, NaN included) answers or
    /// errors exactly as the general path through `apply_bin` does.
    #[test]
    fn in_place_comparison_matches_apply_bin() {
        let values = [
            Value::Null,
            Value::Int(2),
            Value::Int(-7),
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Str("ann".into()),
            Value::Str("bob".into()),
            Value::List(vec![Value::Int(1)]),
        ];
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        for op in ops {
            for attr in &values {
                let src = MapSource([("x".to_string(), attr.clone())].into());
                for k in &values {
                    let in_place = MethodBody::bin(
                        op,
                        MethodBody::Attr("x".into()),
                        MethodBody::Const(k.clone()),
                    );
                    // Not of the `attr op const` shape: takes the general path.
                    let general = MethodBody::If(
                        Box::new(MethodBody::Const(Value::Bool(true))),
                        Box::new(MethodBody::bin(
                            op,
                            MethodBody::If(
                                Box::new(MethodBody::Const(Value::Bool(true))),
                                Box::new(MethodBody::Attr("x".into())),
                                Box::new(MethodBody::Const(Value::Null)),
                            ),
                            MethodBody::Const(k.clone()),
                        )),
                        Box::new(MethodBody::Const(Value::Null)),
                    );
                    assert_eq!(
                        eval_body(&in_place, &src),
                        apply_bin(op, attr.clone(), k.clone()),
                        "{attr:?} {op:?} {k:?}"
                    );
                    assert_eq!(eval_body(&in_place, &src), eval_body(&general, &src));
                }
            }
            // A missing attribute fails the same way on both paths.
            let missing = MethodBody::bin(
                op,
                MethodBody::Attr("missing".into()),
                MethodBody::Const(Value::Int(1)),
            );
            assert_eq!(
                eval_body(&missing, &src()),
                Err(ModelError::MethodEval("no missing".into()))
            );
        }
    }

    #[test]
    fn int_float_equality_crosses_kinds() {
        assert!(values_eq(&Value::Int(2), &Value::Float(2.0)));
        assert!(!values_eq(&Value::Int(2), &Value::Float(2.5)));
    }
}
