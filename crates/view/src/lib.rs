//! # tse-view — view schemas for the TSE system
//!
//! Complete view schemas over the global schema (§3.1, \[21\]): class
//! selection, automatic generation of the view generalization hierarchy,
//! view-local renaming (the TSE transparency device), type-closure checking,
//! and the view manager with per-family version history.
//!
//! ```
//! use std::collections::BTreeSet;
//! use tse_object_model::Database;
//! use tse_view::ViewManager;
//!
//! let mut db = Database::default();
//! let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
//! let student = db.schema_mut().create_base_class("Student", &[person]).unwrap();
//! let ta = db.schema_mut().create_base_class("TA", &[student]).unwrap();
//!
//! let mut vm = ViewManager::new();
//! // Select Person and TA only: the generated hierarchy bridges the gap.
//! let v = vm.create_view(&db, "VS", BTreeSet::from([person, ta])).unwrap();
//! let view = vm.view(v).unwrap();
//! assert_eq!(view.edges, vec![(person, ta)]);
//! ```

#![warn(missing_docs)]

mod closure;
mod manager;
mod schema;
mod snapshot;

pub use closure::{closed_selection, closure_violations, ClosureViolation};
pub use manager::ViewManager;
pub use schema::{build_view, generate_edges, ViewId, ViewSchema};
