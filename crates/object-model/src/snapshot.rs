//! Whole-database snapshots: store, schema and objects as one section of
//! a snapshot payload. A TSE database survives process restarts with every
//! class, view-relevant derivation, object slice and attribute value
//! intact.
//!
//! ```text
//! store (tse_storage) | schema | objects | u64 next_oid
//! ```
//!
//! The section carries no magic, length or checksum of its own: its one
//! check is the CRC of the snapshot file that holds the payload, and the
//! payload's outermost decoder refuses bytes after its last section.

use bytes::{Bytes, BytesMut};

use tse_storage::{SliceStore, StoreConfig};

use crate::database::Database;
use crate::error::ModelResult;
use crate::schema::Schema;

impl Database {
    /// Append the whole database to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        self.store().encode_into(buf);
        // Fold late (data-plane-assigned) segments into the persisted schema
        // so the restored database needs no overlay.
        self.schema_for_snapshot().encode_into(buf);
        self.encode_objects_into(buf);
    }

    /// Read a database written by [`Database::encode_into`], threading
    /// `runtime` store knobs (stripe count, auto-checkpoint threshold)
    /// through to the restored store; persisted `page_size`/`buffer_pages`
    /// still win — they shape the stored layout.
    pub fn decode_from(buf: &mut Bytes, runtime: StoreConfig) -> ModelResult<Database> {
        let store = SliceStore::decode_from(buf, runtime)?;
        let schema = Schema::decode_from(buf)?;
        let (objects, next_oid) = Database::decode_objects_from(buf)?;
        Ok(Database::from_parts(schema, store, objects, next_oid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;

    use crate::derivation::Derivation;
    use crate::method::BinOp;
    use crate::predicate::Predicate;
    use crate::property::PropertyDef;
    use crate::value::{Value, ValueType};

    fn encode_database(db: &Database) -> Bytes {
        let mut buf = BytesMut::new();
        db.encode_into(&mut buf);
        buf.freeze()
    }

    /// Decode a whole blob: every byte must belong to the database.
    fn decode_database(mut bytes: Bytes) -> ModelResult<Database> {
        let db = Database::decode_from(&mut bytes, StoreConfig::default())?;
        assert_eq!(bytes.remaining(), 0, "decode left bytes unread");
        Ok(db)
    }

    fn build() -> Database {
        let mut db = Database::default();
        let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        let student = db.schema_mut().create_base_class("Student", &[person]).unwrap();
        db.schema_mut()
            .create_virtual_class(
                "Adult",
                Derivation::Select { src: person, pred: Predicate::cmp("age", BinOp::Ge, 18) },
            )
            .unwrap();
        db.schema_mut()
            .create_refine_class(
                "Student+",
                student,
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
                vec![],
            )
            .unwrap();
        let o1 = db.create_object(person, &[("name", "ann".into()), ("age", Value::Int(30))]).unwrap();
        let o2 = db.create_object(student, &[("name", "bob".into())]).unwrap();
        let splus = db.schema().by_name("Student+").unwrap();
        db.write_attr(o2, splus, "register", Value::Bool(true)).unwrap();
        let _ = o1;
        db
    }

    #[test]
    fn database_roundtrips_completely() {
        let db = build();
        let bytes = encode_database(&db);
        let restored = decode_database(bytes).unwrap();

        // Schema identity.
        assert_eq!(restored.schema().class_count(), db.schema().class_count());
        for id in db.schema().class_ids() {
            let a = db.schema().class(id).unwrap();
            let b = restored.schema().class(id).unwrap();
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.direct_supers(), b.direct_supers());
            assert_eq!(a.stored_layout(), b.stored_layout());
            assert_eq!(db.schema().type_keys(id).unwrap(), restored.schema().type_keys(id).unwrap());
        }
        // Objects and values.
        let person = restored.schema().by_name("Person").unwrap();
        let splus = restored.schema().by_name("Student+").unwrap();
        let oids: Vec<_> = restored.all_objects().collect();
        assert_eq!(oids.len(), 2);
        assert_eq!(
            restored.read_attr(oids[0], person, "name").unwrap(),
            Value::Str("ann".into())
        );
        assert_eq!(restored.read_attr(oids[1], splus, "register").unwrap(), Value::Bool(true));
        // Derived extents still work.
        let adult = restored.schema().by_name("Adult").unwrap();
        assert!(restored.extent(adult).unwrap().contains(&oids[0]));
        assert!(!restored.extent(adult).unwrap().contains(&oids[1]));
    }

    #[test]
    fn restored_database_accepts_further_mutation() {
        let db = build();
        let mut restored = decode_database(encode_database(&db)).unwrap();
        let person = restored.schema().by_name("Person").unwrap();
        let o3 = restored.create_object(person, &[("name", "carol".into())]).unwrap();
        assert!(restored.extent(person).unwrap().contains(&o3));
        // Fresh oids don't collide with restored ones.
        assert_eq!(restored.object_count(), 3);
        // New property keys don't collide either.
        let key = restored
            .schema_mut()
            .add_local_prop(person, PropertyDef::stored("zzz", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        for id in restored.schema().class_ids().collect::<Vec<_>>() {
            for lp in restored.schema().class(id).unwrap().locals() {
                if lp.def.name != "zzz" {
                    assert_ne!(lp.def.key, key);
                }
            }
        }
    }

    #[test]
    fn blob_roundtrip_keeps_every_object() {
        let restored = decode_database(encode_database(&build())).unwrap();
        assert_eq!(restored.object_count(), 2);
    }

    #[test]
    fn corrupt_snapshots_error_not_panic() {
        assert!(decode_database(Bytes::from_static(b"nope")).is_err());
        let good = encode_database(&build());
        for cut in 0..good.len() {
            assert!(
                Database::decode_from(&mut good.slice(..cut), StoreConfig::default()).is_err(),
                "prefix {cut} accepted"
            );
        }
        // A trailing byte is left for the payload's outermost decoder.
        let mut padded = good.to_vec();
        padded.push(0);
        let mut padded = Bytes::from(padded);
        Database::decode_from(&mut padded, StoreConfig::default()).unwrap();
        assert_eq!(padded.remaining(), 1, "trailing byte consumed");
    }
}
