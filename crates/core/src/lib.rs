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
//! [`TseSystem`] is the in-memory core. Build a base schema, give each user a view
//! ([`TseSystem::create_view`]), then evolve with [`TseSystem::evolve`] /
//! [`TseSystem::evolve_cmd`]:
//!
//! ```
//! use tse_core::TseSystem;
//! use tse_object_model::{PropertyDef, Value, ValueType};
//!
//! let mut tse = TseSystem::new();
//! tse.define_base_class("Person", &[], vec![
//!     PropertyDef::stored("name", ValueType::Str, Value::Null),
//! ]).unwrap();
//! tse.define_base_class("Student", &["Person"], vec![]).unwrap();
//! let _v1 = tse.create_view("VS", &["Person", "Student"]).unwrap();
//!
//! // The user asks for a new stored attribute through their view:
//! let report = tse.evolve_cmd("VS", "add_attribute register: bool = false to Student").unwrap();
//! let v2 = report.view;
//!
//! // Transparent: the evolved view still calls the class "Student".
//! let oid = tse.create(v2, "Student", &[("name", "ann".into())]).unwrap();
//! tse.set(v2, oid, "Student", &[("register", Value::Bool(true))]).unwrap();
//! assert_eq!(tse.get(v2, oid, "Student", "register").unwrap(), Value::Bool(true));
//! ```
//!
//! [`SharedSystem`] is the one handle around that core: in memory
//! ([`SharedSystem::new`], [`SharedSystem::from_system`]) or on a directory
//! ([`SharedSystem::open`]), shareable across threads, with every mutation
//! of a directory-backed system write-ahead logged. [`TseClient`] is the
//! public face, implemented over a `SharedSystem` and over the wire.

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
