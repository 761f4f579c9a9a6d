//! Binary encoders/decoders for schema artifacts (types, method bodies,
//! predicates, derivations, property definitions) — the building blocks of
//! whole-database snapshots. Hand-rolled length-prefixed format, matching
//! the storage crate's `Payload` conventions.

use bytes::{Buf, BufMut, Bytes, BytesMut};
pub(crate) use tse_storage::payload::{get_str, get_u32, get_u64, get_u8, put_str};
use tse_storage::{Payload, StorageError, StorageResult};

use crate::derivation::Derivation;
use crate::ids::{ClassId, Oid, PropKey};
use crate::method::{BinOp, MethodBody};
use crate::predicate::Predicate;
use crate::property::{LocalProp, PropKind, PropertyDef};
use crate::value::{Value, ValueType};

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.to_string())
}

// ----- Oid lists and assignments ----------------------------------------------
//
// The shapes a WAL frame and a wire frame share (the string and integer
// primitives are `tse_storage::payload`'s).

/// Encode an oid list: a u32 count, then each oid as a u64.
pub fn put_oids(buf: &mut BytesMut, oids: &[Oid]) {
    buf.put_u32(oids.len() as u32);
    for oid in oids {
        buf.put_u64(oid.0);
    }
}

/// Decode a list written by [`put_oids`]; the count is checked against the
/// bytes left before anything is allocated.
pub fn get_oids(buf: &mut Bytes) -> StorageResult<Vec<Oid>> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n * 8 {
        return Err(corrupt("truncated oid list"));
    }
    Ok((0..n).map(|_| Oid(buf.get_u64())).collect())
}

/// Encode `(attribute, value)` assignments: a u32 count, then each name
/// through `put_str` and each value through its [`Payload`] encoding.
pub fn put_pairs(buf: &mut BytesMut, pairs: &[(String, Value)]) {
    buf.put_u32(pairs.len() as u32);
    for (name, value) in pairs {
        put_str(buf, name);
        value.encode(buf);
    }
}

/// Decode assignments written by [`put_pairs`].
pub fn get_pairs(buf: &mut Bytes) -> StorageResult<Vec<(String, Value)>> {
    let n = get_u32(buf)? as usize;
    let mut pairs = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        pairs.push((get_str(buf)?, Value::decode(buf)?));
    }
    Ok(pairs)
}

// ----- ValueType -------------------------------------------------------------

pub(crate) fn put_vtype(buf: &mut BytesMut, t: &ValueType) {
    match t {
        ValueType::Any => buf.put_u8(0),
        ValueType::Bool => buf.put_u8(1),
        ValueType::Int => buf.put_u8(2),
        ValueType::Float => buf.put_u8(3),
        ValueType::Str => buf.put_u8(4),
        ValueType::Ref(c) => {
            buf.put_u8(5);
            buf.put_u32(c.0);
        }
        ValueType::List(inner) => {
            buf.put_u8(6);
            put_vtype(buf, inner);
        }
    }
}

pub(crate) fn get_vtype(buf: &mut Bytes) -> StorageResult<ValueType> {
    Ok(match get_u8(buf)? {
        0 => ValueType::Any,
        1 => ValueType::Bool,
        2 => ValueType::Int,
        3 => ValueType::Float,
        4 => ValueType::Str,
        5 => ValueType::Ref(ClassId(get_u32(buf)?)),
        6 => ValueType::List(Box::new(get_vtype(buf)?)),
        t => return Err(corrupt(&format!("unknown vtype tag {t}"))),
    })
}

// ----- MethodBody -------------------------------------------------------------

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Eq => 4,
        BinOp::Ne => 5,
        BinOp::Lt => 6,
        BinOp::Le => 7,
        BinOp::Gt => 8,
        BinOp::Ge => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    }
}

fn binop_from(tag: u8) -> StorageResult<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Eq,
        5 => BinOp::Ne,
        6 => BinOp::Lt,
        7 => BinOp::Le,
        8 => BinOp::Gt,
        9 => BinOp::Ge,
        10 => BinOp::And,
        11 => BinOp::Or,
        t => return Err(corrupt(&format!("unknown binop tag {t}"))),
    })
}

pub(crate) fn put_body(buf: &mut BytesMut, body: &MethodBody) {
    match body {
        MethodBody::Const(v) => {
            buf.put_u8(0);
            v.encode(buf);
        }
        MethodBody::Attr(name) => {
            buf.put_u8(1);
            put_str(buf, name);
        }
        MethodBody::Bin(op, a, b) => {
            buf.put_u8(2);
            buf.put_u8(binop_tag(*op));
            put_body(buf, a);
            put_body(buf, b);
        }
        MethodBody::Not(a) => {
            buf.put_u8(3);
            put_body(buf, a);
        }
        MethodBody::If(c, t, e) => {
            buf.put_u8(4);
            put_body(buf, c);
            put_body(buf, t);
            put_body(buf, e);
        }
        MethodBody::Len(a) => {
            buf.put_u8(5);
            put_body(buf, a);
        }
    }
}

pub(crate) fn get_body(buf: &mut Bytes) -> StorageResult<MethodBody> {
    Ok(match get_u8(buf)? {
        0 => MethodBody::Const(Value::decode(buf)?),
        1 => MethodBody::Attr(get_str(buf)?),
        2 => {
            let op = binop_from(get_u8(buf)?)?;
            MethodBody::Bin(op, Box::new(get_body(buf)?), Box::new(get_body(buf)?))
        }
        3 => MethodBody::Not(Box::new(get_body(buf)?)),
        4 => MethodBody::If(
            Box::new(get_body(buf)?),
            Box::new(get_body(buf)?),
            Box::new(get_body(buf)?),
        ),
        5 => MethodBody::Len(Box::new(get_body(buf)?)),
        t => return Err(corrupt(&format!("unknown body tag {t}"))),
    })
}

// ----- Predicate -------------------------------------------------------------

/// The constant true is tag 0; any other predicate is tag 3 and its body.
/// Tags 1, 2, 4, 5 and 6 named predicate shapes that are no longer written.
pub(crate) fn put_pred(buf: &mut BytesMut, pred: &Predicate) {
    if *pred == Predicate::TRUE {
        buf.put_u8(0);
    } else {
        buf.put_u8(3);
        put_body(buf, pred.body());
    }
}

pub(crate) fn get_pred(buf: &mut Bytes) -> StorageResult<Predicate> {
    Ok(match get_u8(buf)? {
        0 => Predicate::TRUE,
        3 => Predicate::Expr(get_body(buf)?),
        t => return Err(corrupt(&format!("unknown predicate tag {t}"))),
    })
}

// ----- Derivation -------------------------------------------------------------

pub(crate) fn put_derivation(buf: &mut BytesMut, d: &Derivation) {
    match d {
        Derivation::Select { src, pred } => {
            buf.put_u8(0);
            buf.put_u32(src.0);
            put_pred(buf, pred);
        }
        Derivation::Hide { src, hidden } => {
            buf.put_u8(1);
            buf.put_u32(src.0);
            buf.put_u32(hidden.len() as u32);
            for h in hidden {
                put_str(buf, h);
            }
        }
        Derivation::Refine { src, new_props, inherited } => {
            buf.put_u8(2);
            buf.put_u32(src.0);
            buf.put_u32(new_props.len() as u32);
            for k in new_props {
                buf.put_u64(k.0);
            }
            buf.put_u32(inherited.len() as u32);
            for (c, k) in inherited {
                buf.put_u32(c.0);
                buf.put_u64(k.0);
            }
        }
        Derivation::Union { a, b } => {
            buf.put_u8(3);
            buf.put_u32(a.0);
            buf.put_u32(b.0);
        }
        Derivation::Difference { a, b } => {
            buf.put_u8(4);
            buf.put_u32(a.0);
            buf.put_u32(b.0);
        }
        Derivation::Intersect { a, b } => {
            buf.put_u8(5);
            buf.put_u32(a.0);
            buf.put_u32(b.0);
        }
    }
}

pub(crate) fn get_derivation(buf: &mut Bytes) -> StorageResult<Derivation> {
    Ok(match get_u8(buf)? {
        0 => Derivation::Select { src: ClassId(get_u32(buf)?), pred: get_pred(buf)? },
        1 => {
            let src = ClassId(get_u32(buf)?);
            let n = get_u32(buf)? as usize;
            let mut hidden = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                hidden.push(get_str(buf)?);
            }
            Derivation::Hide { src, hidden }
        }
        2 => {
            let src = ClassId(get_u32(buf)?);
            let n = get_u32(buf)? as usize;
            let mut new_props = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                new_props.push(PropKey(get_u64(buf)?));
            }
            let n = get_u32(buf)? as usize;
            let mut inherited = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                inherited.push((ClassId(get_u32(buf)?), PropKey(get_u64(buf)?)));
            }
            Derivation::Refine { src, new_props, inherited }
        }
        3 => Derivation::Union { a: ClassId(get_u32(buf)?), b: ClassId(get_u32(buf)?) },
        4 => Derivation::Difference { a: ClassId(get_u32(buf)?), b: ClassId(get_u32(buf)?) },
        5 => Derivation::Intersect { a: ClassId(get_u32(buf)?), b: ClassId(get_u32(buf)?) },
        t => return Err(corrupt(&format!("unknown derivation tag {t}"))),
    })
}

// ----- properties -------------------------------------------------------------

pub(crate) fn put_local_prop(buf: &mut BytesMut, lp: &LocalProp) {
    buf.put_u64(lp.def.key.0);
    put_str(buf, &lp.def.name);
    match &lp.def.kind {
        PropKind::Stored { vtype, default, required } => {
            buf.put_u8(0);
            put_vtype(buf, vtype);
            default.encode(buf);
            buf.put_u8(*required as u8);
        }
        PropKind::Method { body, vtype } => {
            buf.put_u8(1);
            put_body(buf, body);
            put_vtype(buf, vtype);
        }
    }
    match lp.promoted_from {
        None => buf.put_u8(0),
        Some(c) => {
            buf.put_u8(1);
            buf.put_u32(c.0);
        }
    }
}

/// Encode a [`crate::PendingProp`] (a property definition not yet keyed by a
/// class). Public because the core crate's WAL codec logs `DefineClass`
/// frames carrying the pending definitions verbatim.
pub fn put_pending_prop(buf: &mut BytesMut, p: &crate::property::PendingProp) {
    put_str(buf, &p.name);
    match &p.kind {
        PropKind::Stored { vtype, default, required } => {
            buf.put_u8(0);
            put_vtype(buf, vtype);
            default.encode(buf);
            buf.put_u8(*required as u8);
        }
        PropKind::Method { body, vtype } => {
            buf.put_u8(1);
            put_body(buf, body);
            put_vtype(buf, vtype);
        }
    }
}

/// Decode a [`crate::PendingProp`] written by [`put_pending_prop`].
pub fn get_pending_prop(buf: &mut Bytes) -> StorageResult<crate::property::PendingProp> {
    let name = get_str(buf)?;
    let kind = match get_u8(buf)? {
        0 => {
            let vtype = get_vtype(buf)?;
            let default = Value::decode(buf)?;
            let required = get_u8(buf)? != 0;
            PropKind::Stored { vtype, default, required }
        }
        1 => {
            let body = get_body(buf)?;
            let vtype = get_vtype(buf)?;
            PropKind::Method { body, vtype }
        }
        t => return Err(corrupt(&format!("unknown pending prop kind tag {t}"))),
    };
    Ok(crate::property::PendingProp { name, kind })
}

pub(crate) fn get_local_prop(buf: &mut Bytes) -> StorageResult<LocalProp> {
    let key = PropKey(get_u64(buf)?);
    let name = get_str(buf)?;
    let kind = match get_u8(buf)? {
        0 => {
            let vtype = get_vtype(buf)?;
            let default = Value::decode(buf)?;
            let required = get_u8(buf)? != 0;
            PropKind::Stored { vtype, default, required }
        }
        1 => {
            let body = get_body(buf)?;
            let vtype = get_vtype(buf)?;
            PropKind::Method { body, vtype }
        }
        t => return Err(corrupt(&format!("unknown prop kind tag {t}"))),
    };
    let promoted_from = match get_u8(buf)? {
        0 => None,
        1 => Some(ClassId(get_u32(buf)?)),
        t => return Err(corrupt(&format!("bad promoted flag {t}"))),
    };
    Ok(LocalProp { def: PropertyDef { key, name, kind }, promoted_from })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_pred(p: Predicate) {
        let mut buf = BytesMut::new();
        put_pred(&mut buf, &p);
        let mut b = buf.freeze();
        assert_eq!(get_pred(&mut b).unwrap(), p);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn predicates_roundtrip() {
        roundtrip_pred(Predicate::TRUE);
        roundtrip_pred(Predicate::cmp("age", BinOp::Ge, 18).and(Predicate::is_set("x")));
        roundtrip_pred(
            Predicate::Expr(MethodBody::bin(
                BinOp::Add,
                MethodBody::Attr("a".into()),
                MethodBody::Const(Value::Float(1.5)),
            ))
            .or(Predicate::TRUE.not()),
        );
    }

    /// The constant true is one tag byte; any other predicate is tag 3 then
    /// its body, the bytes the same body has as a method.
    #[test]
    fn a_predicate_is_tag_three_and_its_body() {
        let mut buf = BytesMut::new();
        put_pred(&mut buf, &Predicate::TRUE);
        assert_eq!(buf.as_ref(), [0]);
        let pred = Predicate::cmp("x", BinOp::Lt, 5);
        let (mut p, mut b) = (BytesMut::new(), BytesMut::new());
        put_pred(&mut p, &pred);
        put_body(&mut b, pred.body());
        assert_eq!(p.as_ref()[0], 3);
        assert_eq!(&p.as_ref()[1..], b.as_ref());
    }

    #[test]
    fn derivations_roundtrip() {
        let cases = vec![
            Derivation::Select { src: ClassId(3), pred: Predicate::cmp("x", BinOp::Lt, 5) },
            Derivation::Hide { src: ClassId(1), hidden: vec!["a".into(), "b".into()] },
            Derivation::Refine {
                src: ClassId(2),
                new_props: vec![PropKey(7)],
                inherited: vec![(ClassId(4), PropKey(9))],
            },
            Derivation::Union { a: ClassId(1), b: ClassId(2) },
            Derivation::Difference { a: ClassId(1), b: ClassId(2) },
            Derivation::Intersect { a: ClassId(1), b: ClassId(2) },
        ];
        for d in cases {
            let mut buf = BytesMut::new();
            put_derivation(&mut buf, &d);
            let mut b = buf.freeze();
            assert_eq!(get_derivation(&mut b).unwrap(), d);
        }
    }

    #[test]
    fn local_props_roundtrip() {
        let cases = vec![
            LocalProp {
                def: PropertyDef::required("ssn", ValueType::Str, Value::Null).with_key(PropKey(1)),
                promoted_from: None,
            },
            LocalProp {
                def: PropertyDef::method(
                    "m",
                    ValueType::List(Box::new(ValueType::Ref(ClassId(9)))),
                    MethodBody::If(
                        Box::new(MethodBody::Attr("c".into())),
                        Box::new(MethodBody::Len(Box::new(MethodBody::Attr("s".into())))),
                        Box::new(MethodBody::Const(Value::Int(0))),
                    ),
                )
                .with_key(PropKey(2)),
                promoted_from: Some(ClassId(5)),
            },
        ];
        for lp in cases {
            let mut buf = BytesMut::new();
            put_local_prop(&mut buf, &lp);
            let mut b = buf.freeze();
            assert_eq!(get_local_prop(&mut b).unwrap(), lp);
        }
    }

    #[test]
    fn truncation_errors_not_panics() {
        let mut buf = BytesMut::new();
        put_derivation(
            &mut buf,
            &Derivation::Select { src: ClassId(3), pred: Predicate::cmp("x", BinOp::Lt, 5) },
        );
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            let _ = get_derivation(&mut b); // must not panic
        }
        // A retired predicate tag (an attribute comparison, `is set`, and,
        // or, not) is corrupt, not read as another shape.
        for tag in [1u8, 2, 4, 5, 6] {
            let mut b = Bytes::from(vec![tag, 0, 0, 0, 1, b'x', 0]);
            let expected = format!("unknown predicate tag {tag}");
            assert!(matches!(get_pred(&mut b), Err(StorageError::Corrupt(m)) if m == expected));
        }
    }
}
