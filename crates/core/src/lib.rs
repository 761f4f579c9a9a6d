//! # tse-core — Transparent Schema Evolution
//!
//! The paper's primary contribution (Ra & Rundensteiner, ICDE 1995): schema
//! changes specified against a *view* are translated into capacity-augmenting
//! object-algebra view definitions, classified into the one global schema,
//! and delivered back as a **new view version** that replaces the user's view
//! transparently — while every other view (and every application program
//! written against it) keeps working, and all versions share the same
//! persistent objects.
//!
//! [`TseSystem`] is the in-memory control plane. Build a base schema, give
//! each user a view ([`TseSystem::create_view`]), then evolve with
//! [`TseSystem::evolve`] / [`TseSystem::evolve_cmd`]. [`SharedSystem`] is
//! the one handle around that core: in memory ([`SharedSystem::new`],
//! [`SharedSystem::from_system`]) or on a directory
//! ([`SharedSystem::open`]), shareable across threads, with every mutation
//! of a directory-backed system write-ahead logged. Its sessions
//! ([`ReadSession`], [`WriteSession`]) are the one data plane, and
//! [`TseClient`] is their public face, implemented over a `SharedSystem`
//! and over the wire:
//!
//! ```
//! use tse_core::{SharedSystem, TseClient, TseReader, TseSystem, TseWriter};
//! use tse_object_model::{PropertyDef, Value, ValueType};
//!
//! let mut tse = TseSystem::new();
//! tse.define_base_class("Person", &[], vec![
//!     PropertyDef::stored("name", ValueType::Str, Value::Null),
//! ]).unwrap();
//! tse.define_base_class("Student", &["Person"], vec![]).unwrap();
//! tse.create_view("alice", &["Person", "Student"]).unwrap();
//!
//! // The user asks for a new stored attribute through their view:
//! tse.evolve_cmd("alice", "add_attribute register: bool = false to Student").unwrap();
//!
//! // Alice's client binds to the newest version of her view family.
//! let alice = SharedSystem::from_system(tse).client("alice");
//! assert_eq!(alice.bound_version(), Some(2));
//! // Transparent: the evolved view still calls the class "Student".
//! let writer = alice.writer().unwrap();
//! let oid = writer.create("Student", &[("name", "ann".into())]).unwrap();
//! writer.set(oid, "Student", &[("register", Value::Bool(true))]).unwrap();
//! let reader = alice.session().unwrap();
//! assert_eq!(reader.get(oid, "Student", "register").unwrap(), Value::Bool(true));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod change;
mod durable;
pub mod health;
mod merge;
pub mod oracle;
mod persist;
mod shared;
mod system;
mod translate;
pub mod walcodec;

pub use api::{
    EvolveSummary, HealthStatus, LocalClient, LocalReader, LocalWriter, SystemBuilder,
    TseClient, TseCode, TseError, TseReader, TseResult, TseWriter,
};
pub use change::{parse_change, parse_expr, render_expr, SchemaChange};
pub use health::{DegradedReason, SystemHealth};
pub use shared::{MetaSnapshot, ReadSession, ScrubberHandle, SharedSystem, WriteSession};
pub use system::{EvolutionReport, PhaseTimings, TseSystem};
pub use translate::{translate, ChangePlan};
