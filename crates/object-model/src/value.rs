//! Values and value types.
//!
//! Attribute values of the TSE object model. `Value` implements the storage
//! layer's [`Payload`] trait so slices can be stored directly in
//! [`tse_storage::SliceStore`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tse_storage::{Payload, StorageError, StorageResult};

use crate::ids::{ClassId, Oid};

/// A runtime attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (unset optional attribute).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Reference to another object (aggregation edge in the schema graph).
    Ref(Oid),
    /// Homogeneous-ish list of values.
    List(Vec<Value>),
}

impl Value {
    /// Short type tag for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Ref(_) => "ref",
            Value::List(_) => "list",
        }
    }

    /// Truthiness used by predicates and method conditionals.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Ref(_) => true,
            Value::List(l) => !l.is_empty(),
        }
    }
}

/// Consistent with the derived `PartialEq`: values that compare equal hash
/// equal. Floats are the one case that needs care — `0.0 == -0.0` with
/// different bit patterns, so zero is hashed by one of them; `NaN` equals
/// nothing, so any hash will do for it.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => (if *f == 0.0 { 0.0f64 } else { *f }).to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Ref(oid) => oid.hash(state),
            Value::List(items) => items.hash(state),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Ref(v)
    }
}

/// Declared type of an attribute or method result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueType {
    /// Any value, including `Null`.
    Any,
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Float.
    Float,
    /// String.
    Str,
    /// Reference to an instance of the given class — this is what ties the
    /// aggregation graph into the view type-closure check.
    Ref(ClassId),
    /// List with the given element type.
    List(Box<ValueType>),
}

impl ValueType {
    /// Shallow conformance: does `v` fit this type? `Null` is admitted by
    /// every type (optional attributes); `Ref` class membership is enforced
    /// at the database layer where extents are known.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (ValueType::Any, _) => true,
            (ValueType::Bool, Value::Bool(_)) => true,
            (ValueType::Int, Value::Int(_)) => true,
            (ValueType::Float, Value::Float(_)) => true,
            (ValueType::Float, Value::Int(_)) => true, // widening
            (ValueType::Str, Value::Str(_)) => true,
            (ValueType::Ref(_), Value::Ref(_)) => true,
            (ValueType::List(elem), Value::List(items)) => items.iter().all(|i| elem.admits(i)),
            _ => false,
        }
    }

    /// Human-readable rendering for error messages.
    pub fn describe(&self) -> String {
        match self {
            ValueType::Any => "any".into(),
            ValueType::Bool => "bool".into(),
            ValueType::Int => "int".into(),
            ValueType::Float => "float".into(),
            ValueType::Str => "string".into(),
            ValueType::Ref(c) => format!("ref<{c}>"),
            ValueType::List(e) => format!("list<{}>", e.describe()),
        }
    }

    /// If this type (or a nested list element) references a class, return it.
    /// Used by the view manager's type-closure check.
    pub fn referenced_class(&self) -> Option<ClassId> {
        match self {
            ValueType::Ref(c) => Some(*c),
            ValueType::List(e) => e.referenced_class(),
            _ => None,
        }
    }
}

impl Payload for Value {
    fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Ref(_) => 9,
            Value::List(items) => 5 + items.iter().map(|i| i.byte_size()).sum::<usize>(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Null => buf.put_u8(0),
            Value::Bool(b) => {
                buf.put_u8(1);
                buf.put_u8(*b as u8);
            }
            Value::Int(i) => {
                buf.put_u8(2);
                buf.put_i64(*i);
            }
            Value::Float(x) => {
                buf.put_u8(3);
                buf.put_f64(*x);
            }
            Value::Str(s) => {
                buf.put_u8(4);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Ref(o) => {
                buf.put_u8(5);
                buf.put_u64(o.0);
            }
            Value::List(items) => {
                buf.put_u8(6);
                buf.put_u32(items.len() as u32);
                for i in items {
                    i.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &mut Bytes) -> StorageResult<Self> {
        if buf.remaining() < 1 {
            return Err(StorageError::Corrupt("truncated value tag".into()));
        }
        Ok(match buf.get_u8() {
            0 => Value::Null,
            1 => {
                if buf.remaining() < 1 {
                    return Err(StorageError::Corrupt("truncated bool".into()));
                }
                Value::Bool(buf.get_u8() != 0)
            }
            2 => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated int".into()));
                }
                Value::Int(buf.get_i64())
            }
            3 => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated float".into()));
                }
                Value::Float(buf.get_f64())
            }
            4 => {
                if buf.remaining() < 4 {
                    return Err(StorageError::Corrupt("truncated str len".into()));
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(StorageError::Corrupt("truncated str body".into()));
                }
                let s = std::str::from_utf8(&buf.chunk()[..len])
                    .map_err(|_| StorageError::Corrupt("non-utf8 str".into()))?
                    .to_owned();
                buf.advance(len);
                Value::Str(s)
            }
            5 => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated ref".into()));
                }
                Value::Ref(Oid(buf.get_u64()))
            }
            6 => {
                if buf.remaining() < 4 {
                    return Err(StorageError::Corrupt("truncated list len".into()));
                }
                let len = buf.get_u32() as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(Value::decode(buf)?);
                }
                Value::List(items)
            }
            t => return Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(Value::decode(&mut bytes).unwrap(), v);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Int(-42));
        roundtrip(Value::Float(2.5));
        roundtrip(Value::Str("Ünïversity".into()));
        roundtrip(Value::Ref(Oid(991)));
        roundtrip(Value::List(vec![Value::Int(1), Value::List(vec![Value::Str("x".into())])]));
    }

    #[test]
    fn admits_checks_shapes() {
        assert!(ValueType::Int.admits(&Value::Int(3)));
        assert!(!ValueType::Int.admits(&Value::Str("3".into())));
        assert!(ValueType::Int.admits(&Value::Null), "null fits optional attributes");
        assert!(ValueType::Float.admits(&Value::Int(3)), "widening allowed");
        assert!(ValueType::Any.admits(&Value::Ref(Oid(1))));
        assert!(ValueType::List(Box::new(ValueType::Int))
            .admits(&Value::List(vec![Value::Int(1), Value::Int(2)])));
        assert!(!ValueType::List(Box::new(ValueType::Int))
            .admits(&Value::List(vec![Value::Str("no".into())])));
    }

    #[test]
    fn truthiness_follows_content() {
        assert!(!Value::Null.truthy());
        assert!(Value::Int(5).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Ref(Oid(0)).truthy());
    }

    #[test]
    fn referenced_class_sees_through_lists() {
        assert_eq!(ValueType::Ref(ClassId(4)).referenced_class(), Some(ClassId(4)));
        assert_eq!(
            ValueType::List(Box::new(ValueType::Ref(ClassId(2)))).referenced_class(),
            Some(ClassId(2))
        );
        assert_eq!(ValueType::Int.referenced_class(), None);
    }
}
