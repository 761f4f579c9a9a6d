//! # tse-classifier — global schema classification
//!
//! The Classifier module of the TSE architecture (§5, \[17\]): it reclassifies
//! the global schema to integrate newly created virtual classes into one
//! consistent class hierarchy, detecting duplicate classes and promoting
//! shared property definitions upward so that both base and virtual classes
//! resolve inherited properties correctly.
//!
//! ```
//! use tse_algebra::{define_vc, Query};
//! use tse_classifier::{classify_with, Subsumption};
//! use tse_object_model::{Database, PropertyDef, Value, ValueType};
//!
//! let mut db = Database::default();
//! let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
//! db.schema_mut().add_local_prop(
//!     person,
//!     PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
//!     None,
//! ).unwrap();
//! let ageless = define_vc(&mut db, "Ageless",
//!     &Query::hide(Query::class(person), &["age"])).unwrap();
//!
//! let placement = classify_with(&mut Subsumption::default(), &mut db, ageless).unwrap();
//! // A hide class becomes a *superclass* of its source, with the remaining
//! // properties promoted up into it.
//! assert_eq!(placement.subs, vec![person]);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod batch;
mod classify;
mod subsume;

pub use classify::{check_type_agreement, classify_with, register_metrics, Placement};
pub use subsume::Subsumption;
