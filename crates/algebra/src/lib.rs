//! # tse-algebra — the extended (capacity-augmenting) object algebra
//!
//! MultiView's set-oriented object algebra (§3.2 of the paper) with the TSE
//! extensions: `refine` can add **stored** attributes (augmenting database
//! capacity, not just deriving data) and can inherit properties from other
//! classes by reference (`refine C1:x for C2`). The crate also implements the
//! generic update operators of §3.3 with the §3.4 propagation rules that make
//! every virtual class updatable (Theorem 1).
//!
//! ```
//! use tse_algebra::{define_vc, create, Query, UpdatePolicy};
//! use tse_object_model::{parse_expr, BinOp, Database, Predicate, PropertyDef, Value, ValueType};
//!
//! let mut db = Database::default();
//! let person = db.schema_mut().create_base_class("Person", &[]).unwrap();
//! db.schema_mut().add_local_prop(
//!     person,
//!     PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
//!     None,
//! ).unwrap();
//!
//! // A capacity-augmenting virtual class: same objects, one *new stored*
//! // attribute.
//! let vip = define_vc(&mut db, "Vip", &Query::refine(
//!     Query::class(person),
//!     vec![PropertyDef::stored("level", ValueType::Int, Value::Int(1))],
//! )).unwrap();
//!
//! // Updatable (Theorem 1): create through the virtual class reaches Person.
//! let policy = UpdatePolicy::default();
//! let o = create(&mut db, &policy, vip, &[("age", Value::Int(30)), ("level", Value::Int(3))]).unwrap();
//! assert!(db.is_member(o, person).unwrap());
//! assert_eq!(db.read_attr(o, vip, "level").unwrap(), Value::Int(3));
//!
//! // A select: its predicate is one boolean expression, built or parsed.
//! let adults = Predicate::cmp("age", BinOp::Ge, 18);
//! assert_eq!(adults, Predicate::Expr(parse_expr("age >= 18").unwrap()));
//! let adult = define_vc(&mut db, "Adult", &Query::select(Query::class(person), adults)).unwrap();
//! assert!(db.is_member(o, adult).unwrap());
//! ```

#![warn(missing_docs)]

mod define;
mod origin;
mod query;
mod script;
mod typing;
mod update;

pub use define::define_vc;
pub use origin::{derivation_chain, derived_from, origin_classes, sources};
pub use query::{ClassRef, Query};
pub use script::{Script, ScriptOutput, Stmt};
pub use typing::{
    intent_type, type_includes, validate_hide, validate_refine, validate_select, TypeKeys,
};
pub use update::{
    add, create, creation_targets, delete, remove, select_objects, set, IntersectRemove,
    UnionRoute, UpdatePolicy, ValueClosure,
};
