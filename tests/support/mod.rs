//! Shared by the integration tests that hold the schema's fact cache
//! against a schema that has none.

use bytes::BytesMut;
use tse::algebra::intent_type;
use tse::object_model::Database;
use tse::storage::StoreConfig;

/// Every class's resolved type, intent type, REQUIRED keys and value
/// sensitivity, as `db`'s schema has them cached (or works them out now),
/// equal those of a cold twin: the same
/// database through an encode/decode round trip, its schema's fact cache
/// empty, so that every fact it hands out is worked out from scratch.
/// Returns the twin.
pub fn assert_facts_equal_a_cold_schema(db: &Database, context: &str) -> Database {
    let mut buf = BytesMut::new();
    db.encode_into(&mut buf);
    let cold = Database::decode_from(&mut buf.freeze(), StoreConfig::default()).unwrap();
    for class in db.schema().class_ids() {
        assert_eq!(
            db.schema().resolved_type(class),
            cold.schema().resolved_type(class),
            "{context}: resolved type of {class} (cached vs from scratch)"
        );
        assert_eq!(
            intent_type(db, class),
            intent_type(&cold, class),
            "{context}: intent type of {class} (cached vs from scratch)"
        );
        assert_eq!(
            db.schema().required_keys(class),
            cold.schema().required_keys(class),
            "{context}: REQUIRED keys of {class} (cached vs from scratch)"
        );
        assert_eq!(
            db.schema().value_sensitive(class),
            cold.schema().value_sensitive(class),
            "{context}: value sensitivity of {class} (cached vs from scratch)"
        );
    }
    cold
}
