//! Attribute access: slice routing.
//!
//! Reading or writing a property through a class perspective means
//! resolving the name at that class to a property definition, finding the
//! slice of the object that stores it (its *home* class, bound on first
//! write), and touching one field of that slice's record. Methods evaluate
//! their body against the same object instead.

use std::sync::atomic::Ordering;

use tse_storage::{current_read_epoch, StorageError, WriteStampGuard};

use crate::class::ClassKind;
use crate::database::Database;
use crate::derivation::Derivation;
use crate::error::{ModelError, ModelResult};
use crate::ids::{ClassId, Oid, PropKey};
use crate::method::{eval_body, AttrSource};
use crate::property::PropKind;
use crate::schema::Candidate;
use crate::value::Value;

/// Maximum method-evaluation recursion depth (methods calling methods).
const MAX_METHOD_DEPTH: u32 = 32;

impl Database {
    /// Resolve a property name at a class perspective.
    pub fn resolve(&self, class: ClassId, name: &str) -> ModelResult<Candidate> {
        let rt = self.schema.resolved_type(class)?;
        Ok(rt.get_unique(class, name)?.clone())
    }

    /// Resolve a property for a specific object, with an upward-operator
    /// fallback: a hide/union class that has not (yet) been classified into
    /// the DAG owns no inherited properties, but an *object* accessed through
    /// it can still delegate resolution to the source class(es) it belongs
    /// to — the value is identical by object preservation.
    fn resolve_for_object(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Candidate> {
        match self.resolve(via, name) {
            Ok(c) => Ok(c),
            Err(err @ ModelError::UnknownProperty { .. }) => {
                if let ClassKind::Virtual(d) = &self.schema.class(via)?.kind {
                    match d.clone() {
                        Derivation::Hide { src, hidden } if !hidden.iter().any(|h| h == name) => {
                            return self.resolve_for_object(oid, src, name);
                        }
                        Derivation::Union { a, b } => {
                            if self.is_member(oid, a)? {
                                if let Ok(c) = self.resolve_for_object(oid, a, name) {
                                    return Ok(c);
                                }
                            }
                            if self.is_member(oid, b)? {
                                return self.resolve_for_object(oid, b, name);
                            }
                        }
                        _ => {}
                    }
                }
                Err(err)
            }
            Err(e) => Err(e),
        }
    }

    /// Read a property (stored attribute or method) through a perspective.
    pub fn read_attr(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Value> {
        self.read_attr_depth(oid, via, name, 0)
    }

    fn read_attr_depth(
        &self,
        oid: Oid,
        via: ClassId,
        name: &str,
        depth: u32,
    ) -> ModelResult<Value> {
        if depth > MAX_METHOD_DEPTH {
            return Err(ModelError::MethodEval(format!("recursion limit at {name:?}")));
        }
        let cand = self.resolve_for_object(oid, via, name)?;
        let (_, def) = self.schema.def_by_key(cand.key)?;
        match def.kind.clone() {
            PropKind::Stored { default, .. } => self.read_stored(oid, via, cand.key, default),
            PropKind::Method { body, .. } => {
                let src = ObjAttrSource { db: self, oid, via, depth: depth + 1 };
                eval_body(&body, &src)
            }
        }
    }

    fn read_stored(
        &self,
        oid: Oid,
        via: ClassId,
        key: PropKey,
        default: Value,
    ) -> ModelResult<Value> {
        let epoch = current_read_epoch();
        let (home, rec) = {
            let objects = self.objects.read();
            let entry = objects.get(&oid).ok_or(ModelError::UnknownObject(oid))?;
            if entry.direct_at(epoch).is_none() {
                // Dead at (or created after) the reader's epoch.
                return Err(ModelError::UnknownObject(oid));
            }
            let home = match entry.home_of.get(&key) {
                Some(h) => *h,
                // Never written → default value, no storage materialized.
                None => return Ok(default),
            };
            (home, entry.slices.get(&home).copied())
        };
        // Slice-hop accounting: distance between perspective and home class.
        let hops = self
            .schema
            .up_distance(via, home)
            .or_else(|| self.schema.up_distance(home, via))
            .unwrap_or(1) as u64;
        self.slice_hops.fetch_add(hops, Ordering::Relaxed);
        let rec = match rec {
            Some(r) => r,
            None => return Ok(default),
        };
        let idx = self
            .schema
            .class(home)?
            .layout_index(key)
            .ok_or_else(|| ModelError::Invalid(format!("home {home} lost layout for {key}")))?;
        let len = match self.store.field_count(rec) {
            Ok(len) => len,
            // The slice was materialized after this reader's pinned epoch:
            // at that epoch the attribute had never been written.
            Err(StorageError::UnknownRecord { .. }) if epoch.is_some() => return Ok(default),
            Err(e) => return Err(e.into()),
        };
        if idx >= len {
            // Slice predates a layout extension: value was never written.
            return Ok(default);
        }
        Ok(self.store.read_field(rec, idx)?)
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
        self.resolve_for_object(oid, via, name)?;
        let direct = self
            .objects
            .read()
            .get(&oid)
            .and_then(|e| e.direct_at(current_read_epoch()))
            .cloned()
            .ok_or(ModelError::UnknownObject(oid))?;
        // Gather the candidates seen from each direct class.
        let mut winners: Vec<(ClassId, Candidate)> = Vec::new();
        for d in direct {
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
        let cand = self.resolve_for_object(oid, via, name)?;
        let (_, def) = self.schema.def_by_key(cand.key)?;
        let (vtype, required) = match &def.kind {
            PropKind::Stored { vtype, required, .. } => (vtype.clone(), *required),
            PropKind::Method { .. } => return Err(ModelError::NotStored(name.to_string())),
        };
        if !vtype.admits(&value) {
            return Err(ModelError::TypeMismatch {
                name: name.to_string(),
                expected: vtype.describe(),
                got: format!("{value:?}"),
            });
        }
        if required && value == Value::Null {
            return Err(ModelError::TypeMismatch {
                name: name.to_string(),
                expected: "non-null (REQUIRED)".into(),
                got: "null".into(),
            });
        }
        if self.schema.constraint_count() == 0 {
            return self.write_stored(oid, via, cand.key, value);
        }
        let old = self.read_attr(oid, via, name)?;
        self.write_stored(oid, via, cand.key, value)?;
        if let Err(e) = self.check_constraints(oid) {
            // Refuse the update: restore the previous value (§3.3's
            // "or even to refuse the update").
            self.write_stored(oid, via, cand.key, old)?;
            return Err(e);
        }
        Ok(())
    }

    fn write_stored(
        &self,
        oid: Oid,
        via: ClassId,
        key: PropKey,
        value: Value,
    ) -> ModelResult<()> {
        let home = self.bind_home(oid, via, key)?;
        let rec = self.ensure_slice(oid, home)?;
        let idx = self
            .schema
            .class(home)?
            .layout_index(key)
            .ok_or_else(|| ModelError::Invalid(format!("home {home} lost layout for {key}")))?;
        // The store stamps the write with the ambient stamp, so the values
        // clock and the record version agree on when it happened.
        let stamp = self.write_stamp();
        let _as_stamp = WriteStampGuard::new(stamp);
        let _mutation = self.values.begin(stamp);
        // Dynamic restructuring: extend the slice record if the class layout
        // grew after the slice was created.
        while self.store.field_count(rec)? <= idx {
            let fill_key = self.schema.class(home)?.stored_layout()[self.store.field_count(rec)?];
            let fill = self.default_for(fill_key);
            self.store.append_field(rec, fill)?;
        }
        self.store.write_field(rec, idx, value)?;
        Ok(())
    }
}

/// Attribute source for method/predicate evaluation against one object.
pub(crate) struct ObjAttrSource<'a> {
    pub(crate) db: &'a Database,
    pub(crate) oid: Oid,
    pub(crate) via: ClassId,
    pub(crate) depth: u32,
}

impl AttrSource for ObjAttrSource<'_> {
    fn get(&self, name: &str) -> ModelResult<Value> {
        self.db.read_attr_depth(self.oid, self.via, name, self.depth)
    }
}
