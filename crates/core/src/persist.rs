//! Whole-system persistence: database + view history + update policy as
//! the payload of one snapshot generation. A TSE deployment survives
//! restarts with every schema version still addressable and every object
//! intact.
//!
//! ```text
//! store | schema | objects   (Database::encode_into)
//! views                      (ViewManager::encode_into)
//! u32 n_routes | (u32 class | u8 route)…
//! ```
//!
//! The payload is written in one pass into one buffer and carries no
//! magic, length prefix or checksum of its own. Its one integrity check is
//! the CRC of the snapshot file that holds it
//! ([`tse_storage::durable::write_snapshot_file`]); it has no other on-disk
//! home. [`TseSystem::decode`] still refuses truncation, unknown tags and
//! trailing bytes as [`tse_storage::StorageError::Corrupt`].

use bytes::{BufMut, Bytes, BytesMut};

use tse_algebra::{UnionRoute, UpdatePolicy};
use tse_object_model::{ClassId, Database, ModelError, ModelResult};
use tse_storage::payload::{get_u32, get_u8};
use tse_storage::StoreConfig;
use tse_view::ViewManager;

use crate::system::TseSystem;

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

impl TseSystem {
    /// Serialize the whole system in one pass: store, schema, objects,
    /// views, policy. The output is an **unchecked** payload: its check is
    /// the CRC of the snapshot file a checkpoint writes it into.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.db.encode_into(&mut buf);
        self.views.encode_into(&mut buf);
        // Policy: union routes (the value-closure and intersect defaults are
        // configuration, not state; they reset to defaults on load).
        buf.put_u32(self.policy.union_routes.len() as u32);
        for (class, route) in &self.policy.union_routes {
            buf.put_u32(class.0);
            buf.put_u8(route_tag(*route));
        }
        buf.freeze()
    }

    /// Restore a system from [`TseSystem::encode`] output, threading
    /// `runtime` store knobs (stripe count, auto-checkpoint threshold)
    /// through to the restored store; persisted layout parameters
    /// (`page_size`, `buffer_pages`) still win. Truncation, an unknown tag
    /// or a trailing byte is an error, never a misread system.
    pub fn decode(mut bytes: Bytes, runtime: StoreConfig) -> ModelResult<TseSystem> {
        let db = Database::decode_from(&mut bytes, runtime)?;
        let views = ViewManager::decode_from(&mut bytes)?;
        let mut policy = UpdatePolicy::default();
        for _ in 0..get_u32(&mut bytes)? {
            let class = ClassId(get_u32(&mut bytes)?);
            let route = route_from(get_u8(&mut bytes)?)?;
            policy.union_routes.insert(class, route);
        }
        if !bytes.is_empty() {
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
        let restored = TseSystem::decode(tse.encode(), StoreConfig::default()).unwrap();
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
        let mut restored = TseSystem::decode(tse.encode(), StoreConfig::default()).unwrap();
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
    fn truncation_and_trailing_bytes_are_rejected() {
        let (tse, ..) = build();
        // Every strict prefix must be rejected, never panic or misread.
        let good = tse.encode();
        for cut in 0..good.len() {
            assert!(TseSystem::decode(good.slice(..cut), StoreConfig::default()).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage is rejected too.
        let mut padded: Vec<u8> = good.as_slice().to_vec();
        padded.push(0);
        assert!(TseSystem::decode(Bytes::from(padded), StoreConfig::default()).is_err());
    }
}
