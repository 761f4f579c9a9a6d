//! Attribute access: slice routing through compiled access plans.
//!
//! Reading or writing a property through a class perspective means
//! resolving the name at that class to a property definition, finding the
//! slice of the object that stores it (its *home* class, bound on first
//! write), and touching one field of that slice's record. Methods evaluate
//! their body against the same object instead.
//!
//! Everything about that which does not depend on the object — the
//! definition's key, its default or method body, and for every class able
//! to store it the field index and the slice-hop distance — is compiled once
//! per `(class, name)` into an access plan kept in the class's entry of the
//! schema's fact cache (`Schema::access_plan`; it dies with the entry, and
//! with any edge or layout mutation). A read is then one plan lookup, one look
//! at the object map and one store read. The only resolution left per
//! object is the slow path behind a plan miss: a hide or union class that is
//! not classified into the DAG yet has no type of its own, and delegates to
//! whichever source the object belongs to.

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::RwLockReadGuard;
use tse_storage::{current_read_epoch, ReadCursor, StorageError, WriteStampGuard};

use crate::class::ClassKind;
use crate::database::{Database, ObjectTable, Unpublished};
use crate::derivation::Derivation;
use crate::error::{ModelError, ModelResult};
use crate::ids::{ClassId, Oid};
use crate::method::{eval_body, AttrSource};
use crate::schema::{AccessPlan, Candidate, PlanKind};
use crate::value::Value;

#[cfg(test)]
mod reference;

/// Maximum method-evaluation recursion depth (methods calling methods).
const MAX_METHOD_DEPTH: u32 = 32;

/// Names one binding scope keeps bound; a name past them is resolved per
/// object, as a hide/union fallback name is.
const BOUND_NAMES: usize = 8;

/// One bound name and its plan.
type Bound = OnceCell<(Box<str>, Arc<AccessPlan>)>;

impl Database {
    /// Resolve a property name at a class perspective.
    pub fn resolve(&self, class: ClassId, name: &str) -> ModelResult<Candidate> {
        let rt = self.schema.resolved_type(class)?;
        Ok(rt.get_unique(class, name)?.clone())
    }

    /// Read a property (stored attribute or method) through a perspective:
    /// a pass of one object.
    pub fn read_attr(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Value> {
        let bindings = self.bind_attrs(via);
        let plan = bindings.pass.plan(oid, via, name, None)?;
        bindings.eval(oid, &plan, 0)
    }

    /// Open a read pass through `via` over any number of objects (see
    /// [`AttrBindings`]): every name a predicate or method body mentions is
    /// resolved to its plan the first time it is read and reused for every
    /// further object, and the pass takes the object table's and the
    /// store's locks once, not once per object.
    pub fn bind_attrs(&self, via: ClassId) -> AttrBindings<'_> {
        AttrBindings { pass: Pass::new(self), scope: Scope::new(via, None) }
    }

    /// Invoke a property with *dynamic dispatch* (late binding): instead of
    /// resolving at the caller's perspective class, resolve at the object's
    /// own most specific classes — an overriding definition in a subclass
    /// wins even when the caller only knows the superclass, exactly as in
    /// the Smalltalk-style model the paper builds on. Distinct definitions
    /// from incomparable direct classes are ambiguous.
    pub fn invoke(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Value> {
        // The static resolution must exist (the caller's type must know the
        // name at all).
        Pass::new(self).plan(oid, via, name, None)?;
        let direct = self
            .objects
            .read()
            .get(oid)
            .and_then(|e| e.direct_at(current_read_epoch()))
            .cloned()
            .ok_or(ModelError::UnknownObject(oid))?;
        // Gather the candidates seen from each direct class.
        let mut winners: Vec<(ClassId, Candidate)> = Vec::new();
        for &d in direct.as_slice() {
            if let Ok(c) = self.resolve(d, name) {
                if !winners.iter().any(|(_, w)| w.key == c.key) {
                    winners.push((d, c));
                }
            }
        }
        // Keep the most specific definitions: drop any whose defining class
        // is a strict ancestor of another winner's defining class.
        let keep: Vec<(ClassId, Candidate)> = winners
            .iter()
            .filter(|(_, c)| {
                !winners.iter().any(|(_, other)| {
                    other.key != c.key && self.schema.is_sub_of(other.def_class, c.def_class)
                })
            })
            .cloned()
            .collect();
        match keep.len() {
            0 => self.read_attr(oid, via, name),
            1 => self.read_attr(oid, keep[0].0, name),
            _ => Err(ModelError::AmbiguousProperty { class: via, name: name.to_string() }),
        }
    }

    /// Write a stored attribute through a perspective.
    ///
    /// Data-plane: takes `&self`; the touched state (object map, store
    /// stripe of the home class's segment) is locked internally, so writes
    /// to different class segments proceed concurrently.
    pub fn write_attr(
        &self,
        oid: Oid,
        via: ClassId,
        name: &str,
        value: Value,
    ) -> ModelResult<()> {
        let plan = self.plan_for_write(oid, via, name, &value)?;
        if self.schema.constraint_count() == 0 {
            return self.write_stored(oid, via, &plan, value);
        }
        let old = self.read_attr(oid, via, name)?;
        self.write_stored(oid, via, &plan, value)?;
        if let Err(e) = self.check_constraints(oid) {
            // Refuse the update: restore the previous value (§3.3's
            // "or even to refuse the update").
            self.write_stored(oid, via, &plan, old)?;
            return Err(e);
        }
        Ok(())
    }

    /// The plan of a stored attribute about to be written, once `value` is
    /// known to fit its definition.
    pub(crate) fn plan_for_write(
        &self,
        oid: Oid,
        via: ClassId,
        name: &str,
        value: &Value,
    ) -> ModelResult<Arc<AccessPlan>> {
        let plan = Pass::new(self).plan(oid, via, name, None)?;
        check_write(&plan, name, value)?;
        Ok(plan)
    }

    fn write_stored(
        &self,
        oid: Oid,
        via: ClassId,
        plan: &AccessPlan,
        value: Value,
    ) -> ModelResult<()> {
        let home = self.bind_home(oid, via, plan)?;
        let idx = plan.home(home)?.index;
        // The store stamps the write with the ambient stamp, so the values
        // clock and the record version agree on when it happened.
        let stamp = self.write_stamp();
        let _as_stamp = WriteStampGuard::new(stamp);
        let _mutation = self.values.begin(stamp);
        self.write_slice(oid, home, idx, value)
    }
}

/// Does `value` fit the stored attribute `plan` describes, as `name`?
pub(crate) fn check_write(plan: &AccessPlan, name: &str, value: &Value) -> ModelResult<()> {
    let PlanKind::Stored { vtype, required, .. } = &plan.kind else {
        return Err(ModelError::NotStored(name.to_string()));
    };
    if !vtype.admits(value) {
        return Err(ModelError::TypeMismatch {
            name: name.to_string(),
            expected: vtype.describe(),
            got: format!("{value:?}"),
        });
    }
    if *required && *value == Value::Null {
        return Err(ModelError::TypeMismatch {
            name: name.to_string(),
            expected: "non-null (REQUIRED)".into(),
            got: "null".into(),
        });
    }
    Ok(())
}

/// The locks and deferred counts of one read pass, shared by every binding
/// scope the pass opens (a `Select` source's predicate checked inside the
/// hide/union fallback is one).
///
/// Lock order: the object table, then store stripes. The table's read guard
/// is taken at the pass's first look at an object and held to its end; the
/// store is read through one [`ReadCursor`], which holds at most one
/// stripe's guard and only after the table's. Nothing inside a pass takes
/// either lock again — `std`'s `RwLock` can deadlock on a recursive read
/// while a writer is queued — and no writer holds a stripe lock while it
/// asks for the table. Slice hops are counted here and added to the
/// database's counter once, when the pass drops.
pub(crate) struct Pass<'a> {
    db: &'a Database,
    objects: OnceCell<RwLockReadGuard<'a, ObjectTable>>,
    cursor: RefCell<ReadCursor<'a, Value>>,
    hops: Cell<u64>,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        Pass {
            db,
            objects: OnceCell::new(),
            cursor: RefCell::new(db.store.cursor()),
            hops: Cell::new(0),
        }
    }

    fn epoch(&self) -> Option<u64> {
        self.cursor.borrow().epoch()
    }

    fn objects(&self) -> &ObjectTable {
        self.objects.get_or_init(|| self.db.objects.read())
    }

    /// Is `oid` — or the `Unpublished` object — a member of `class`?
    pub(crate) fn member(
        &self,
        oid: Oid,
        class: ClassId,
        object: Option<Unpublished<'_>>,
    ) -> ModelResult<bool> {
        match object {
            Some(o) => self.member_via(oid, &[o.class], class, object),
            None => match self.objects().get(oid).and_then(|e| e.direct_at(self.epoch())) {
                Some(direct) => self.member_via(oid, direct.as_slice(), class, None),
                None => Ok(false),
            },
        }
    }

    fn member_via(
        &self,
        oid: Oid,
        direct: &[ClassId],
        class: ClassId,
        object: Option<Unpublished<'_>>,
    ) -> ModelResult<bool> {
        let schema = &self.db.schema;
        let derivation = match &schema.class(class)?.kind {
            ClassKind::Base => return Ok(direct.iter().any(|d| schema.is_sub_of(*d, class))),
            ClassKind::Virtual(derivation) => derivation,
        };
        Ok(match derivation {
            Derivation::Select { src, pred } => {
                self.member_via(oid, direct, *src, object)?
                    && pred.eval(&self.source(&Scope::new(*src, object), oid))?
            }
            Derivation::Hide { src, .. } | Derivation::Refine { src, .. } => {
                self.member_via(oid, direct, *src, object)?
            }
            Derivation::Union { a, b } => {
                self.member_via(oid, direct, *a, object)?
                    || self.member_via(oid, direct, *b, object)?
            }
            Derivation::Difference { a, b } => {
                self.member_via(oid, direct, *a, object)?
                    && !self.member_via(oid, direct, *b, object)?
            }
            Derivation::Intersect { a, b } => {
                self.member_via(oid, direct, *a, object)?
                    && self.member_via(oid, direct, *b, object)?
            }
        })
    }

    /// The attribute source of one object under `scope`'s bindings.
    pub(crate) fn source<'s>(&'s self, scope: &'s Scope<'s>, oid: Oid) -> ObjAttrSource<'s, 'a> {
        ObjAttrSource { pass: self, scope, oid, depth: 0 }
    }

    /// The access plan of `name` for a specific object seen through `via`:
    /// the plan of `(via, name)`, or — when `via` does not know the name —
    /// the slow path of [`Pass::plan_via_sources`].
    fn plan(
        &self,
        oid: Oid,
        via: ClassId,
        name: &str,
        object: Option<Unpublished<'_>>,
    ) -> ModelResult<Arc<AccessPlan>> {
        match self.db.schema.access_plan(via, name) {
            Err(err @ ModelError::UnknownProperty { .. }) => {
                self.plan_via_sources(oid, via, name, err, object)
            }
            plan => plan,
        }
    }

    /// Upward-operator fallback: a hide/union class that has not (yet) been
    /// classified into the DAG owns no inherited properties, but an *object*
    /// accessed through it can still delegate resolution to the source
    /// class(es) it belongs to — the value is identical by object
    /// preservation. Which source answers depends on the object, so nothing
    /// here is cached; the plan returned is the source's own.
    fn plan_via_sources(
        &self,
        oid: Oid,
        via: ClassId,
        name: &str,
        err: ModelError,
        object: Option<Unpublished<'_>>,
    ) -> ModelResult<Arc<AccessPlan>> {
        if let ClassKind::Virtual(d) = &self.db.schema.class(via)?.kind {
            match d {
                Derivation::Hide { src, hidden } if !hidden.iter().any(|h| h == name) => {
                    return self.plan(oid, *src, name, object);
                }
                Derivation::Union { a, b } => {
                    if self.member(oid, *a, object)? {
                        if let Ok(plan) = self.plan(oid, *a, name, object) {
                            return Ok(plan);
                        }
                    }
                    if self.member(oid, *b, object)? {
                        return self.plan(oid, *b, name, object);
                    }
                }
                _ => {}
            }
        }
        Err(err)
    }

    /// Read a stored attribute of `oid` as `plan` describes it: find the
    /// object's home slice for the plan's key and read the one field.
    fn read_stored(&self, oid: Oid, plan: &AccessPlan, default: &Value) -> ModelResult<Value> {
        let epoch = self.epoch();
        let entry = self.objects().get(oid).ok_or(ModelError::UnknownObject(oid))?;
        if entry.direct_at(epoch).is_none() {
            // Dead at (or created after) the reader's epoch.
            return Err(ModelError::UnknownObject(oid));
        }
        let Some(home) = entry.home(plan.key) else {
            // Never written → default value, no storage materialized.
            return Ok(default.clone());
        };
        let slot = plan.home(home)?;
        // Slice-hop accounting: distance between perspective and home class.
        self.hops.set(self.hops.get() + slot.hops);
        let Some(rec) = entry.slice(home) else {
            return Ok(default.clone());
        };
        match self.cursor.borrow_mut().read_field(rec, slot.index) {
            Ok(value) => Ok(value),
            // Slice predates a layout extension: value was never written.
            Err(StorageError::FieldOutOfBounds { .. }) => Ok(default.clone()),
            // The slice was materialized after this reader's pinned epoch:
            // at that epoch the attribute had never been written.
            Err(StorageError::UnknownRecord { .. }) if epoch.is_some() => Ok(default.clone()),
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        let hops = self.hops.get();
        if hops > 0 {
            self.db.slice_hops.fetch_add(hops, Ordering::Relaxed);
        }
    }
}

/// Property names bound to their access plans at one class perspective,
/// for the objects one pass reads through it. Only names the perspective
/// itself knows are bound; a name that takes the hide/union fallback is
/// resolved per object. Bound plans are lent out, not cloned.
pub(crate) struct Scope<'a> {
    via: ClassId,
    /// The new object being checked, whose values are not in the store yet.
    object: Option<Unpublished<'a>>,
    /// Made at the first bind: a get of a stored attribute binds nothing.
    bound: OnceCell<Box<[Bound; BOUND_NAMES]>>,
}

impl<'a> Scope<'a> {
    pub(crate) fn new(via: ClassId, object: Option<Unpublished<'a>>) -> Self {
        Scope { via, object, bound: OnceCell::new() }
    }

    fn slots(&self) -> impl Iterator<Item = &Bound> {
        self.bound.get().into_iter().flat_map(|slots| slots.iter())
    }

    fn bound(&self, name: &str) -> Option<&AccessPlan> {
        self.slots().map_while(OnceCell::get).find(|(n, _)| **n == *name).map(|(_, plan)| &**plan)
    }

    /// Bind `name` to `plan` in the first free slot, or hand the plan back
    /// when every slot is taken.
    fn bind(&self, name: &str, plan: Arc<AccessPlan>) -> Result<&AccessPlan, Arc<AccessPlan>> {
        let slots = self.bound.get_or_init(Default::default);
        match slots.iter().find(|slot| slot.get().is_none()) {
            Some(slot) => Ok(&slot.get_or_init(|| (name.into(), plan)).1),
            None => Err(plan),
        }
    }
}

/// A read pass over any number of objects through one class perspective
/// (see [`Database::bind_attrs`]). It holds the object table's read guard
/// from its first read to its drop, and a store read cursor, so while it
/// lives its thread must not write to the database.
pub struct AttrBindings<'a> {
    pass: Pass<'a>,
    scope: Scope<'a>,
}

impl<'a> AttrBindings<'a> {
    /// The attribute source of one object under these bindings.
    pub fn source(&self, oid: Oid) -> ObjAttrSource<'_, 'a> {
        self.pass.source(&self.scope, oid)
    }

    /// Read what `plan` describes for `oid`.
    fn eval(&self, oid: Oid, plan: &AccessPlan, depth: u32) -> ModelResult<Value> {
        ObjAttrSource { depth, ..self.source(oid) }.eval(plan)
    }
}

/// Attribute source for method/predicate evaluation against one object.
pub struct ObjAttrSource<'s, 'a> {
    pass: &'s Pass<'a>,
    scope: &'s Scope<'s>,
    oid: Oid,
    depth: u32,
}

impl ObjAttrSource<'_, '_> {
    /// Read what `plan` describes; a method evaluates its body against the
    /// same object, one level deeper, under the same bindings.
    fn eval(&self, plan: &AccessPlan) -> ModelResult<Value> {
        match &plan.kind {
            PlanKind::Stored { default, .. } => match self.scope.object {
                Some(object) => Ok(object.value(plan.key).unwrap_or(default).clone()),
                None => self.pass.read_stored(self.oid, plan, default),
            },
            PlanKind::Method { body } => {
                eval_body(body, &ObjAttrSource { depth: self.depth + 1, ..*self })
            }
        }
    }
}

impl AttrSource for ObjAttrSource<'_, '_> {
    fn get(&self, name: &str) -> ModelResult<Value> {
        if self.depth > MAX_METHOD_DEPTH {
            return Err(ModelError::MethodEval(format!("recursion limit at {name:?}")));
        }
        if let Some(plan) = self.scope.bound(name) {
            return self.eval(plan);
        }
        let scope = self.scope;
        match self.pass.db.schema.access_plan(scope.via, name) {
            Ok(plan) => match scope.bind(name, plan) {
                Ok(plan) => self.eval(plan),
                Err(plan) => self.eval(&plan),
            },
            Err(err @ ModelError::UnknownProperty { .. }) => {
                let plan =
                    self.pass.plan_via_sources(self.oid, scope.via, name, err, scope.object)?;
                self.eval(&plan)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use tse_storage::{ReadEpochGuard, StoreConfig};

    use super::reference::Reference;
    use super::*;
    use crate::method::{BinOp, MethodBody};
    use crate::predicate::Predicate;
    use crate::property::PropertyDef;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn attr(name: &str) -> MethodBody {
        MethodBody::Attr(name.into())
    }

    fn int(default: i64) -> impl Fn(&str) -> crate::property::PendingProp {
        move |name| PropertyDef::stored(name, ValueType::Int, Value::Int(default))
    }

    /// A database under random evolution, with everything a read can name.
    struct World {
        db: Database,
        oids: Vec<Oid>,
        /// Every property name ever in use, including renamed-away ones
        /// (they must fail the same way on both paths).
        names: BTreeSet<String>,
    }

    /// The university diamond with stored attributes of three types, a
    /// method, and a method calling a method. Objects are created with some
    /// attributes written and the rest left at their defaults.
    fn world() -> World {
        world_with(StoreConfig::default())
    }

    fn world_with(config: StoreConfig) -> World {
        let mut db = Database::new(config);
        let s = db.schema_mut();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let staff = s.create_base_class("Staff", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student, staff]).unwrap();
        let stored = |n: &str, t, d| PropertyDef::stored(n, t, d);
        s.add_local_prop(person, stored("name", ValueType::Str, Value::Null), None).unwrap();
        s.add_local_prop(person, int(0)("age"), None).unwrap();
        s.add_local_prop(student, stored("gpa", ValueType::Float, Value::Float(0.0)), None)
            .unwrap();
        s.add_local_prop(staff, int(100)("salary"), None).unwrap();
        s.add_local_prop(ta, stored("lecture", ValueType::Str, Value::Null), None).unwrap();
        let adult = MethodBody::bin(BinOp::Ge, attr("age"), MethodBody::Const(Value::Int(18)));
        s.add_local_prop(person, PropertyDef::method("is_adult", ValueType::Bool, adult), None)
            .unwrap();
        let paid = MethodBody::bin(
            BinOp::And,
            attr("is_adult"),
            MethodBody::bin(BinOp::Gt, attr("salary"), MethodBody::Const(Value::Int(0))),
        );
        s.add_local_prop(staff, PropertyDef::method("paid_adult", ValueType::Bool, paid), None)
            .unwrap();

        let mut oids = Vec::new();
        for (i, class) in [person, student, staff, ta, ta, student].into_iter().enumerate() {
            let name = Value::Str(format!("o{i}"));
            let o = match i % 3 {
                0 => db.create_object(class, &[]).unwrap(),
                1 => db.create_object(class, &[("name", name)]).unwrap(),
                _ => db.create_object(class, &[("name", name), ("age", Value::Int(17 + i as i64))])
                    .unwrap(),
            };
            oids.push(o);
        }
        let names =
            ["name", "age", "gpa", "salary", "lecture", "is_adult", "paid_adult", "nope"]
                .map(String::from)
                .into();
        World { db, oids, names }
    }

    impl World {
        fn class(&self, pick: usize) -> ClassId {
            let ids: Vec<ClassId> = self.db.schema().class_ids().collect();
            ids[pick % ids.len()]
        }

        /// A live, named class with a local property; `None` if the pick has none.
        fn local_of(&self, pick: usize, nth: usize) -> Option<(ClassId, String)> {
            let class = self.class(pick);
            let locals = self.db.schema().class(class).ok()?.locals();
            Some((class, locals.get(nth % locals.len().max(1))?.def.name.clone()))
        }

        /// One random mutation of the schema or the population. None may
        /// leave a fact behind — a resolved type, a plan — that the mutation
        /// made wrong.
        fn step(&mut self, tag: usize, op: usize, a: usize, b: usize) {
            let (ca, cb) = (self.class(a), self.class(b));
            match op % 10 {
                // Unclassified hide: its type is empty, reads take the slow path.
                0 => {
                    let hidden = self.local_of(a, b).map(|(_, n)| vec![n]).unwrap_or_default();
                    let d = Derivation::Hide { src: ca, hidden };
                    let _ = self.db.schema_mut().create_virtual_class(&format!("H{tag}"), d);
                }
                // Unclassified union: the answering source depends on the object.
                1 => {
                    let d = Derivation::Union { a: ca, b: cb };
                    let _ = self.db.schema_mut().create_virtual_class(&format!("U{tag}"), d);
                }
                2 => {
                    let pred = Predicate::cmp("age", BinOp::Ge, (a % 30) as i64);
                    let d = Derivation::Select { src: ca, pred };
                    let _ = self.db.schema_mut().create_virtual_class(&format!("S{tag}"), d);
                }
                // What an evolve does: a refine class with a new stored
                // attribute, wired below its source, written for some members.
                3 => {
                    let name = format!("x{tag}");
                    // Every third one also includes a definition of some
                    // other class by reference (`refine C1:x for C2`).
                    let shared = match self.local_of(b, a) {
                        Some((cb, n)) if b.is_multiple_of(3) => {
                            let holder = self.db.schema().class(cb).unwrap();
                            vec![(cb, holder.local(&n).unwrap().def.key)]
                        }
                        _ => vec![],
                    };
                    let made = self.db.schema_mut().create_refine_class(
                        &format!("R{tag}"),
                        ca,
                        vec![int(tag as i64)(&name)],
                        shared,
                    );
                    if let Ok(refined) = made {
                        let _ = self.db.schema_mut().add_edge(ca, refined);
                        for (i, o) in self.oids.clone().into_iter().enumerate() {
                            if i % 2 == b % 2 {
                                let _ = self.db.write_attr(o, refined, &name, Value::Int(7));
                            }
                        }
                        self.names.insert(name);
                    }
                }
                // Layout extension: slices written before it are one field short.
                4 => {
                    let name = format!("y{tag}");
                    if self.db.schema().class(ca).is_ok_and(|c| c.is_base())
                        && self.db.schema_mut().add_local_prop(ca, int(-1)(&name), None).is_ok()
                    {
                        let o = self.oids[b % self.oids.len()];
                        let _ = self.db.write_attr(o, ca, &name, Value::Int(tag as i64));
                        self.names.insert(name);
                    }
                }
                5 => {
                    if let Some((class, old)) = self.local_of(a, b) {
                        let new = format!("r{tag}");
                        if self.db.schema_mut().rename_local_prop(class, &old, &new).is_ok() {
                            self.names.insert(new);
                        }
                    }
                }
                6 => {
                    let _ = self.db.schema_mut().rename_class(ca, &format!("K{tag}"));
                }
                // Promotion as hide/union classification does it: the
                // definition moves up, the storage capability stays.
                7 => {
                    if let Some((class, name)) = self.local_of(a, b) {
                        let s = self.db.schema_mut();
                        // Into a new class, or into a base class (no
                        // derivation to lead back down) whose facts are warm.
                        let up = match s.class(cb) {
                            Ok(warm) if warm.is_base() && b % 2 == 1 => cb,
                            _ => s.create_base_class(&format!("Up{tag}"), &[]).unwrap(),
                        };
                        if s.add_edge(up, class).is_ok() {
                            let _ = s.promote_prop(class, &name, up);
                        }
                    }
                }
                8 => {
                    let o = self.oids[a % self.oids.len()];
                    let name = self.names.iter().nth(b % self.names.len()).unwrap().clone();
                    for class in self.db.schema().class_ids().collect::<Vec<_>>() {
                        let value = Value::Int(tag as i64 + 40);
                        if self.db.write_attr(o, class, &name, value).is_ok() {
                            break;
                        }
                    }
                }
                _ => {
                    if a % 2 == 1 {
                        if let Ok(o) = self.db.create_object(ca, &[]) {
                            self.oids.push(o);
                        }
                    } else {
                        let _ = self.db.delete_object(self.oids[b % self.oids.len()]);
                    }
                }
            }
        }

        /// Planned and unplanned reads of every `(object, class, name)`
        /// agree — on the value, on the error, and (where the perspective
        /// itself knows the name) on the slice hops counted — and every fact
        /// the schema's cache holds equals the one a cold schema (the same
        /// schema through an encode/decode round trip, its cache empty)
        /// works out from scratch. (A hit validates nothing, so a fact left
        /// stale stays stale however often it is asked for.)
        fn check(&self) -> Result<(), TestCaseError> {
            let hops = |db: &Database| db.slice_hops.load(Ordering::Relaxed);
            let mut buf = bytes::BytesMut::new();
            self.db.schema.encode_into(&mut buf);
            let cold = Schema::decode_from(&mut buf.freeze()).unwrap();
            for class in cold.class_ids() {
                prop_assert_eq!(
                    self.db.schema.resolved_type(class),
                    cold.resolved_type(class),
                    "resolved type of {}", class
                );
                for name in &self.names {
                    // A plan carries no identity beyond its contents.
                    prop_assert_eq!(
                        format!("{:?}", self.db.schema.access_plan(class, name)),
                        format!("{:?}", cold.access_plan(class, name)),
                        "plan of {} at {}", name, class
                    );
                }
            }
            let mut triples = Vec::new();
            for class in self.db.schema().class_ids() {
                for name in &self.names {
                    triples.extend(self.oids.iter().map(|oid| (*oid, class, name.clone())));
                }
            }
            let mut reads = Vec::new();
            for (oid, class, name) in triples {
                let before = hops(&self.db);
                let planned = self.db.read_attr(oid, class, &name);
                reads.push((oid, class, name, planned, hops(&self.db) - before));
            }
            let reference = Reference::new(&self.db);
            for (oid, class, name, planned, planned_hops) in reads {
                let before = reference.slice_hops.load(Ordering::Relaxed);
                let unplanned = reference.read_attr(oid, class, &name);
                prop_assert_eq!(
                    &planned, &unplanned,
                    "read of {} through {} of {}", name, class, oid
                );
                if self.db.resolve(class, &name).is_ok() {
                    prop_assert_eq!(
                        planned_hops,
                        reference.slice_hops.load(Ordering::Relaxed) - before,
                        "hops of {} through {} of {}", name, class, oid
                    );
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// After every step of a random define / evolve / extend / rename /
        /// promote / write sequence, the planned read path answers exactly
        /// as the from-scratch reference does: for stored attributes and
        /// methods, written and never-written attributes, slices older than
        /// a layout extension, unclassified hide and union classes, names
        /// that no longer resolve — at the latest epoch and for a reader
        /// pinned before any of the sequence's slices existed.
        #[test]
        fn planned_reads_match_the_unplanned_reference(
            ops in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64), 1..12),
        ) {
            let mut w = world();
            let early = w.db.store().pin_read();
            w.check()?;
            for (tag, (op, a, b)) in ops.into_iter().enumerate() {
                w.step(tag, op, a, b);
                w.check()?;
                let _pinned = ReadEpochGuard::new(early.epoch());
                w.check()?;
            }
        }
    }

    /// Choices drawn by the predicate builder, reused cyclically.
    struct Picks(Vec<usize>, usize);

    impl Picks {
        fn next(&mut self, n: usize) -> usize {
            self.1 += 1;
            self.0[self.1 % self.0.len()] % n
        }

        fn name(&mut self, w: &World) -> String {
            w.names.iter().nth(self.next(w.names.len())).unwrap().clone()
        }

        /// A constant of any kind: comparisons with the attributes cross
        /// kinds and meet `Null`.
        fn constant(&mut self) -> Value {
            match self.next(6) {
                0 => Value::Null,
                1 => Value::Int(self.next(40) as i64),
                2 => Value::Float(self.next(80) as f64 / 2.0),
                3 => Value::Str(format!("o{}", self.next(6))),
                4 => Value::Bool(self.next(2) == 1),
                _ => Value::Int(18),
            }
        }

        fn bin_op(&mut self) -> BinOp {
            let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
            ops[self.next(6)]
        }

        /// A method body: `attr op const` (compared in place), `const op
        /// attr` (the general path), a bare name (a method calls methods
        /// through it), and nested and/or/not/if.
        fn body(&mut self, w: &World, depth: u32) -> MethodBody {
            let b = |p: &mut Self| Box::new(p.body(w, depth - 1));
            match self.next(if depth == 0 { 3 } else { 7 }) {
                0 => MethodBody::bin(
                    self.bin_op(),
                    MethodBody::Attr(self.name(w)),
                    MethodBody::Const(self.constant()),
                ),
                1 => MethodBody::Attr(self.name(w)),
                2 => MethodBody::bin(
                    self.bin_op(),
                    MethodBody::Const(self.constant()),
                    MethodBody::Attr(self.name(w)),
                ),
                3 => MethodBody::Bin(BinOp::And, b(self), b(self)),
                4 => MethodBody::Bin(BinOp::Or, b(self), b(self)),
                5 => MethodBody::Not(b(self)),
                _ => MethodBody::If(b(self), b(self), b(self)),
            }
        }

        /// The constant true, or a body (comparisons, and/or/not and
        /// `is set` are among the shapes it draws).
        fn predicate(&mut self, w: &World) -> Predicate {
            match self.next(4) {
                0 => Predicate::TRUE,
                _ => Predicate::Expr(self.body(w, 3)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// One pass over every object through every class answers each
        /// random predicate exactly as a pass per object does — the same
        /// value or the same error per object — and leaves the same slice
        /// hops, record reads, page hits and misses, and the same pages in
        /// the same recency order in every stripe's pool. Twin worlds take
        /// the two paths; pools of two pages over two stripes evict all the
        /// time. Checked at the latest epoch and pinned before the random
        /// steps, so slices older than a layout extension, slices created
        /// after the pin, unclassified hide/union classes and names that no
        /// longer resolve all come up.
        #[test]
        fn a_pass_answers_as_one_pass_per_object(
            ops in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64), 0..10),
            picks in proptest::collection::vec(0usize..1000, 1..64),
        ) {
            let config =
                StoreConfig { page_size: 128, buffer_pages: 2, write_stripes: 2, ..StoreConfig::default() };
            let (mut by_pass, mut one_by_one) = (world_with(config), world_with(config));
            let early = (by_pass.db.store().pin_read(), one_by_one.db.store().pin_read());
            prop_assert_eq!(early.0.epoch(), early.1.epoch());
            for (tag, (op, a, b)) in ops.into_iter().enumerate() {
                by_pass.step(tag, op, a, b);
                one_by_one.step(tag, op, a, b);
            }
            let mut picks = Picks(picks, 0);
            let preds: Vec<Predicate> = (0..4).map(|_| picks.predicate(&by_pass)).collect();
            let probe = |db: &Database| {
                (db.slice_hops.load(Ordering::Relaxed), db.store_stats(), db.store().resident_pages())
            };
            for pinned in [false, true] {
                let _at = pinned.then(|| ReadEpochGuard::new(early.0.epoch()));
                for pred in &preds {
                    for class in by_pass.db.schema().class_ids() {
                        let pass = by_pass.db.bind_attrs(class);
                        let answers: Vec<_> =
                            by_pass.oids.iter().map(|o| pred.eval(&pass.source(*o))).collect();
                        drop(pass);
                        let db = &one_by_one.db;
                        let each: Vec<_> = one_by_one
                            .oids
                            .iter()
                            .map(|o| pred.eval(&db.bind_attrs(class).source(*o)))
                            .collect();
                        prop_assert_eq!(
                            &answers, &each,
                            "{} through {} (pinned: {})", pred.render(), class, pinned
                        );
                        prop_assert_eq!(probe(&by_pass.db), probe(db), "{}", pred.render());
                    }
                }
            }
        }
    }

    #[test]
    fn plans_die_with_their_entry_and_with_any_edge_or_layout_mutation() {
        let mut db = Database::default();
        let c = db.schema_mut().create_base_class("C", &[]).unwrap();
        let other = db.schema_mut().create_base_class("Other", &[]).unwrap();
        db.schema_mut().add_local_prop(c, int(1)("x"), None).unwrap();
        let o = db.create_object(c, &[]).unwrap();
        assert_eq!(db.read_attr(o, c, "x").unwrap(), Value::Int(1));
        let plan = |db: &Database| db.schema().access_plan(c, "x").unwrap();
        let first = plan(&db);
        assert!(Arc::ptr_eq(&first, &plan(&db)), "a second lookup is served from the cache");

        // With its entry: the name moves to another definition with another
        // default, and the old plan's key and default are not served again.
        db.schema_mut().rename_local_prop(c, "x", "was_x").unwrap();
        db.schema_mut().add_local_prop(c, int(2)("x"), None).unwrap();
        let second = plan(&db);
        assert_ne!(first.key, second.key);
        assert_eq!(db.read_attr(o, c, "x").unwrap(), Value::Int(2));
        assert_eq!(db.read_attr(o, c, "was_x").unwrap(), Value::Int(1));

        // A mutation elsewhere that moves neither an edge nor a layout
        // leaves it alone.
        let method = PropertyDef::method("m", ValueType::Int, MethodBody::Const(Value::Int(0)));
        db.schema_mut().add_local_prop(other, method, None).unwrap();
        db.schema_mut().rename_class(other, "Elsewhere").unwrap();
        assert!(Arc::ptr_eq(&second, &plan(&db)));

        // An edge or a layout anywhere drops every plan: a plan lists all
        // the homes of its key and the hops to each.
        type Mutation<'a> = &'a dyn Fn(&mut Schema) -> ModelResult<()>;
        let key = second.key;
        let wholesale: [Mutation; 4] = [
            &|s| s.create_base_class("Sub", &[other]).map(drop),
            &|s| s.remove_edge(other, s.by_name("Sub")?),
            &|s| s.add_local_prop(other, int(0)("y"), None).map(drop),
            &|s| s.add_stored_capability(other, key),
        ];
        let mut last = second;
        for mutate in wholesale {
            mutate(db.schema_mut()).unwrap();
            let next = plan(&db);
            assert!(!Arc::ptr_eq(&last, &next));
            last = next;
        }
        assert!(last.home(other).is_ok(), "the recompiled plan knows the new home");

        // Misses are not cached: a name that starts to resolve is found.
        assert!(matches!(db.read_attr(o, c, "z"), Err(ModelError::UnknownProperty { .. })));
        db.schema_mut().add_local_prop(c, int(3)("z"), None).unwrap();
        assert_eq!(db.read_attr(o, c, "z").unwrap(), Value::Int(3));
    }

    #[test]
    fn a_predicate_pass_binds_each_name_once() {
        let w = world();
        let person = w.db.schema().by_name("Person").unwrap();
        let bound = w.db.bind_attrs(person);
        let pred = Predicate::cmp("age", BinOp::Ge, 18).and(Predicate::is_set("name"));
        for &oid in &w.oids {
            let through_bindings = pred.eval(&bound.source(oid)).unwrap();
            let one_by_one = pred.eval(&w.db.bind_attrs(person).source(oid)).unwrap();
            assert_eq!(through_bindings, one_by_one);
        }
        let names: Vec<&str> =
            bound.scope.slots().map_while(OnceCell::get).map(|(n, _)| &**n).collect();
        assert_eq!(names, ["age", "name"], "two names, bound once each for six objects");
    }
}
