//! Whole-system persistence: database + view history + update policy in one
//! snapshot. A TSE deployment survives restarts with every schema version
//! still addressable and every object intact.
//!
//! Format `TSESYS02`: each section (database blob, view blob, policy) is
//! followed by a CRC32 covering its length framing and content, so any
//! single-bit corruption anywhere in the blob — and any other magic — is
//! detected as [`tse_storage::StorageError::Corrupt`] rather than silently
//! misread. The blob is the payload of a checkpoint's snapshot generation
//! (`crate::durable`); it has no other on-disk home.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tse_algebra::{UnionRoute, UpdatePolicy};
use tse_object_model::{ClassId, ModelError, ModelResult};
use tse_storage::Crc32;
use tse_view::{decode_manager, encode_manager};

use crate::system::TseSystem;

const MAGIC: &[u8; 8] = b"TSESYS02";

fn corrupt(msg: &str) -> ModelError {
    ModelError::Storage(tse_storage::StorageError::Corrupt(msg.to_string()))
}

fn route_tag(r: UnionRoute) -> u8 {
    match r {
        UnionRoute::First => 0,
        UnionRoute::Second => 1,
        UnionRoute::Both => 2,
    }
}

fn route_from(tag: u8) -> ModelResult<UnionRoute> {
    Ok(match tag {
        0 => UnionRoute::First,
        1 => UnionRoute::Second,
        2 => UnionRoute::Both,
        t => return Err(corrupt(&format!("unknown union route {t}"))),
    })
}

/// Append `u64 len | blob | u32 crc(len ‖ blob)`.
fn put_section(buf: &mut BytesMut, blob: &[u8]) {
    let len = (blob.len() as u64).to_be_bytes();
    buf.put_slice(&len);
    buf.put_slice(blob);
    let mut h = Crc32::new();
    h.update(&len);
    h.update(blob);
    buf.put_u32(h.finalize());
}

/// Read a section written by [`put_section`], verifying its CRC.
fn get_section(bytes: &mut Bytes, what: &str) -> ModelResult<Bytes> {
    if bytes.remaining() < 8 {
        return Err(corrupt(&format!("truncated {what} length")));
    }
    let len = bytes.get_u64() as usize;
    if bytes.remaining() < len.saturating_add(4) {
        return Err(corrupt(&format!("truncated {what} blob")));
    }
    let blob = bytes.copy_to_bytes(len);
    let mut h = Crc32::new();
    h.update(&(len as u64).to_be_bytes());
    h.update(blob.as_ref());
    if bytes.get_u32() != h.finalize() {
        return Err(corrupt(&format!("{what} section crc mismatch")));
    }
    Ok(blob)
}

impl TseSystem {
    /// Serialize the whole system (format `TSESYS02`).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        put_section(&mut buf, &tse_object_model::encode_database(&self.db));
        put_section(&mut buf, &encode_manager(&self.views));
        // Policy: union routes (the value-closure and intersect defaults are
        // configuration, not state; they reset to defaults on load).
        let mut pol = BytesMut::new();
        pol.put_u32(self.policy.union_routes.len() as u32);
        for (class, route) in &self.policy.union_routes {
            pol.put_u32(class.0);
            pol.put_u8(route_tag(*route));
        }
        let pol = pol.freeze();
        buf.put_slice(pol.as_ref());
        buf.put_u32(tse_storage::crc32(pol.as_ref()));
        buf.freeze()
    }

    /// Restore a system from [`TseSystem::encode`] output. Corruption
    /// anywhere — flipped bit, truncation, trailing garbage — is an error,
    /// never a misread system.
    pub fn decode(bytes: Bytes) -> ModelResult<TseSystem> {
        Self::decode_with_config(bytes, tse_storage::StoreConfig::default())
    }

    /// Like [`TseSystem::decode`], but threads runtime store knobs (stripe
    /// count, auto-checkpoint threshold) through to the restored store.
    /// Persisted layout parameters (`page_size`, `buffer_pages`) still win.
    pub fn decode_with_config(
        mut bytes: Bytes,
        runtime: tse_storage::StoreConfig,
    ) -> ModelResult<TseSystem> {
        if bytes.remaining() < MAGIC.len() {
            return Err(corrupt("system snapshot too short"));
        }
        let mut magic = [0u8; 8];
        bytes.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(corrupt("bad system snapshot magic"));
        }
        let db = tse_object_model::decode_database_with(
            get_section(&mut bytes, "database")?,
            runtime,
        )?;
        let views = decode_manager(get_section(&mut bytes, "views")?)?;
        if bytes.remaining() < 4 {
            return Err(corrupt("truncated policy"));
        }
        let n = bytes.get_u32() as usize;
        let need = n.checked_mul(5).ok_or_else(|| corrupt("policy count overflow"))?;
        if bytes.remaining() < need + 4 {
            return Err(corrupt("truncated policy routes"));
        }
        let sect = bytes.copy_to_bytes(need);
        let mut h = Crc32::new();
        h.update(&(n as u32).to_be_bytes());
        h.update(sect.as_ref());
        if bytes.get_u32() != h.finalize() {
            return Err(corrupt("policy section crc mismatch"));
        }
        let mut policy = UpdatePolicy::default();
        let mut s = sect;
        for _ in 0..n {
            let class = ClassId(s.get_u32());
            let route = route_from(s.get_u8())?;
            policy.union_routes.insert(class, route);
        }
        if bytes.remaining() > 0 {
            return Err(corrupt("trailing bytes after system snapshot"));
        }
        Ok(TseSystem::assemble(db, views, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::{PropertyDef, Value, ValueType};

    fn build() -> (TseSystem, tse_object_model::Oid, tse_view::ViewId, tse_view::ViewId) {
        let mut tse = TseSystem::new();
        tse.define_base_class(
            "Person",
            &[],
            vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
        )
        .unwrap();
        tse.define_base_class("Student", &["Person"], vec![]).unwrap();
        let v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
        let o = tse.create(v1, "Student", &[("name", "ann".into())]).unwrap();
        let v2 = tse
            .evolve_cmd("VS", "add_attribute register: bool = false to Student")
            .unwrap()
            .view;
        tse.set(v2, o, "Student", &[("register", Value::Bool(true))]).unwrap();
        // A second change exercising unions (edge ops) so the policy carries
        // union routes.
        tse.define_base_class("Staff", &["Person"], vec![]).unwrap();
        (tse, o, v1, v2)
    }

    #[test]
    fn whole_system_roundtrips() {
        let (tse, o, v1, v2) = build();
        let restored = TseSystem::decode(tse.encode()).unwrap();
        // Both view versions still answer over the same object.
        assert_eq!(
            restored.get(v2, o, "Student", "register").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(restored.get(v1, o, "Student", "name").unwrap(), Value::Str("ann".into()));
        assert!(restored.get(v1, o, "Student", "register").is_err());
        assert_eq!(restored.views().versions("VS").unwrap().len(), 2);
    }

    #[test]
    fn restored_system_keeps_evolving() {
        let (tse, o, _v1, v2) = build();
        let mut restored = TseSystem::decode(tse.encode()).unwrap();
        let v3 = restored
            .evolve_cmd("VS", "add_attribute email: str to Person")
            .unwrap()
            .view;
        restored.set(v3, o, "Person", &[("email", Value::Str("a@x".into()))]).unwrap();
        assert_eq!(
            restored.get(v3, o, "Student", "email").unwrap(),
            Value::Str("a@x".into())
        );
        // Old version still clean.
        assert!(restored.get(v2, o, "Student", "email").is_err());
    }

    #[test]
    fn an_unchecksummed_version_one_blob_is_refused() {
        // `TSESYS01` was the same sections without their CRCs.
        let (tse, ..) = build();
        let mut old = BytesMut::new();
        old.put_slice(b"TSESYS01");
        for blob in [tse_object_model::encode_database(&tse.db), encode_manager(&tse.views)] {
            old.put_u64(blob.len() as u64);
            old.put_slice(blob.as_ref());
        }
        old.put_u32(0);
        let refused = TseSystem::decode(old.freeze()).err().expect("refused");
        assert!(
            matches!(refused, ModelError::Storage(tse_storage::StorageError::Corrupt(_))),
            "{refused}"
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let (tse, ..) = build();
        // Every strict prefix must be rejected, never panic or misread.
        let good = tse.encode();
        for cut in 0..good.len() {
            assert!(TseSystem::decode(good.slice(..cut)).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage is rejected too.
        let mut padded: Vec<u8> = good.as_slice().to_vec();
        padded.push(0);
        assert!(TseSystem::decode(Bytes::from(padded)).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (tse, ..) = build();
        let good = tse.encode();
        let base: Vec<u8> = good.as_slice().to_vec();
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut bad = base.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    TseSystem::decode(Bytes::from(bad)).is_err(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }
}
