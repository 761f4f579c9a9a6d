//! # tse-workload — workloads for the TSE reproduction
//!
//! Builders for the paper's example schemas (the Figure 2 university
//! database, the Figure 5 car schema), synthetic shapes for the benchmark
//! sweeps (chains, fans, mixins), seeded random schemas, and schema-evolution
//! traces shaped after the field studies the paper cites (Sjøberg; Marche),
//! and the one checker of what a history of acked writes must leave behind
//! ([`history`]).

#![warn(missing_docs)]

pub mod history;
pub mod random;
pub mod shapes;
pub mod trace;
pub mod university;

pub use random::{random_schema, RandomSchema, RandomSchemaParams};
pub use shapes::{build_chain, build_fan, build_mixins};
pub use trace::{generate_and_apply_trace, Trace, TraceMix};
pub use university::{build_cars, build_university, populate_university, University};
