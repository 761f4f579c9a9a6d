//! # tse-object-model — the TSE object model
//!
//! Implements the object model layer of the TSE system (§4–5 of Ra &
//! Rundensteiner): classes with multiple inheritance in one global schema
//! DAG, properties (stored attributes + interpreted methods) with
//! inheritance/overriding/ambiguity semantics, **multiple classification via
//! object slicing**, dynamic (re)classification and casting, derived extents
//! for virtual classes, and dynamic restructuring of object representations
//! when capacity-augmenting refinement adds stored attributes.
//!
//! The alternative **intersection-class** architecture of §4.1 is provided in
//! [`intersection`] so both columns of the paper's Table 1 can be measured on
//! identical workloads.

#![warn(missing_docs)]

mod access;
mod class;
mod codec;
mod database;
mod derivation;
mod error;
mod ids;
pub mod intersection;
mod method;
mod predicate;
mod property;
mod schema;
pub mod snapshot;
mod value;

pub use access::{AttrBindings, ObjAttrSource};
pub use class::{Class, ClassKind};
pub use codec::{get_oids, get_pairs, get_pending_prop, put_oids, put_pairs, put_pending_prop};
pub use database::{Database, EvolutionTxn, ObjRef, SlicingStats};
pub use derivation::Derivation;
pub use error::{ModelError, ModelResult};
pub use ids::{ClassId, Oid, PropKey};
pub use method::{eval_body, AttrSource, BinOp, MethodBody};
pub use predicate::{CmpOp, Predicate};
pub use property::{LocalProp, PendingProp, PropKind, PropertyDef};
pub use schema::{Candidate, ResolvedProp, ResolvedType, Schema, ROOT_CLASS};
pub use snapshot::{decode_database, decode_database_with, encode_database};
pub use value::{Value, ValueType};
