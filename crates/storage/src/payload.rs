//! The payload abstraction: what a record field can hold.
//!
//! The storage layer is generic over the field type so that it does not need
//! to know about the object model's `Value` enum (which lives one crate up).
//! A payload must report its approximate byte footprint (used for page
//! placement accounting) and must be binary-encodable for snapshots.
//!
//! The module also holds the workspace's one set of checked length-prefixed
//! byte primitives ([`put_str`] / [`get_str`], [`put_strs`] / [`get_strs`],
//! [`get_u8`] / [`get_u32`] / [`get_u64`]): every snapshot, WAL-frame and
//! wire-frame codec above this crate reads and writes through them, and a
//! short or malformed buffer is always [`StorageError::Corrupt`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{StorageError, StorageResult};

/// A value that can be stored as a record field.
pub trait Payload: Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Approximate number of bytes this value occupies on a page.
    ///
    /// This drives page placement and the storage-overhead figures of the
    /// paper's Table 1; it does not need to match the snapshot encoding size
    /// exactly, but should be a faithful model of an on-disk layout.
    fn byte_size(&self) -> usize;

    /// Append a binary encoding of `self` to `buf` (snapshot format).
    fn encode(&self, buf: &mut BytesMut);

    /// Decode a value previously written by [`Payload::encode`].
    fn decode(buf: &mut Bytes) -> StorageResult<Self>;
}

/// A small self-describing payload used by the storage crate's own tests and
/// by any caller that does not need a richer value model.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplePayload {
    /// Absence of a value.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
}

impl Payload for SimplePayload {
    fn byte_size(&self) -> usize {
        match self {
            SimplePayload::Null => 1,
            SimplePayload::Int(_) => 9,
            SimplePayload::Str(s) => 5 + s.len(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SimplePayload::Null => buf.put_u8(0),
            SimplePayload::Int(i) => {
                buf.put_u8(1);
                buf.put_i64(*i);
            }
            SimplePayload::Str(s) => {
                buf.put_u8(2);
                put_str(buf, s);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> StorageResult<Self> {
        match get_u8(buf)? {
            0 => Ok(SimplePayload::Null),
            1 => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated int payload".into()));
                }
                Ok(SimplePayload::Int(buf.get_i64()))
            }
            2 => Ok(SimplePayload::Str(get_str(buf)?)),
            t => Err(StorageError::Corrupt(format!("unknown payload tag {t}"))),
        }
    }
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.to_string())
}

/// Encode a UTF-8 string with a u32 length prefix.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a string written by [`put_str`].
pub fn get_str(buf: &mut Bytes) -> StorageResult<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(corrupt("truncated string body"));
    }
    // Checked in place and copied once, straight into the `String`.
    let s = std::str::from_utf8(&buf.chunk()[..len]).map_err(|_| corrupt("non-utf8 string"))?;
    let s = s.to_owned();
    buf.advance(len);
    Ok(s)
}

/// Encode a list of strings: a u32 count, then each through [`put_str`].
pub fn put_strs(buf: &mut BytesMut, strs: &[String]) {
    buf.put_u32(strs.len() as u32);
    for s in strs {
        put_str(buf, s);
    }
}

/// Decode a list written by [`put_strs`]. The count is not trusted for the
/// allocation: a hostile prefix cannot reserve more than the buffer holds.
pub fn get_strs(buf: &mut Bytes) -> StorageResult<Vec<String>> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        out.push(get_str(buf)?);
    }
    Ok(out)
}

/// Read one byte, or fail on an empty buffer.
pub fn get_u8(buf: &mut Bytes) -> StorageResult<u8> {
    if buf.remaining() < 1 {
        return Err(corrupt("truncated u8"));
    }
    Ok(buf.get_u8())
}

/// Read a big-endian u32, or fail on a short buffer.
pub fn get_u32(buf: &mut Bytes) -> StorageResult<u32> {
    if buf.remaining() < 4 {
        return Err(corrupt("truncated u32"));
    }
    Ok(buf.get_u32())
}

/// Read a big-endian u64, or fail on a short buffer.
pub fn get_u64(buf: &mut Bytes) -> StorageResult<u64> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated u64"));
    }
    Ok(buf.get_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: SimplePayload) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = SimplePayload::decode(&mut bytes).unwrap();
        assert_eq!(p, back);
        assert_eq!(bytes.remaining(), 0, "decoder must consume exactly its encoding");
    }

    #[test]
    fn simple_payload_roundtrips() {
        roundtrip(SimplePayload::Null);
        roundtrip(SimplePayload::Int(0));
        roundtrip(SimplePayload::Int(i64::MIN));
        roundtrip(SimplePayload::Int(i64::MAX));
        roundtrip(SimplePayload::Str(String::new()));
        roundtrip(SimplePayload::Str("hello, TSE".into()));
        roundtrip(SimplePayload::Str("ünïcödé ✓".into()));
    }

    #[test]
    fn byte_sizes_reflect_content() {
        assert_eq!(SimplePayload::Null.byte_size(), 1);
        assert_eq!(SimplePayload::Int(7).byte_size(), 9);
        assert_eq!(SimplePayload::Str("abcd".into()).byte_size(), 9);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut bytes = Bytes::from_static(&[9, 9, 9]);
        assert!(SimplePayload::decode(&mut bytes).is_err());
        let mut empty = Bytes::new();
        assert!(SimplePayload::decode(&mut empty).is_err());
    }

    #[test]
    fn str_helper_roundtrips() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "schema");
        let mut bytes = buf.freeze();
        assert_eq!(get_str(&mut bytes).unwrap(), "schema");
    }
}
