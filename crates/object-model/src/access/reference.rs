//! The read path as it was before access plans: every read resolves its
//! name from scratch, clones the definition, walks the class DAG for the hop
//! count and asks the store twice. Kept only as the oracle the planned path
//! is tested against (like the classifier's `batch.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use tse_storage::{current_read_epoch, StorageError};

use crate::class::ClassKind;
use crate::database::Database;
use crate::derivation::Derivation;
use crate::error::{ModelError, ModelResult};
use crate::ids::{ClassId, Oid, PropKey};
use crate::method::{eval_body, AttrSource};
use crate::property::PropKind;
use crate::schema::Candidate;
use crate::value::Value;

use super::MAX_METHOD_DEPTH;

/// The unplanned reader over one database, with its own hop counter.
pub(crate) struct Reference<'a> {
    pub(crate) db: &'a Database,
    pub(crate) slice_hops: AtomicU64,
}

impl<'a> Reference<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        Reference { db, slice_hops: AtomicU64::new(0) }
    }

    fn resolve_for_object(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Candidate> {
        let db = self.db;
        match db.resolve(via, name) {
            Ok(c) => Ok(c),
            Err(err @ ModelError::UnknownProperty { .. }) => {
                if let ClassKind::Virtual(d) = &db.schema.class(via)?.kind {
                    match d.clone() {
                        Derivation::Hide { src, hidden } if !hidden.iter().any(|h| h == name) => {
                            return self.resolve_for_object(oid, src, name);
                        }
                        Derivation::Union { a, b } => {
                            if db.is_member(oid, a)? {
                                if let Ok(c) = self.resolve_for_object(oid, a, name) {
                                    return Ok(c);
                                }
                            }
                            if db.is_member(oid, b)? {
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

    pub(crate) fn read_attr(&self, oid: Oid, via: ClassId, name: &str) -> ModelResult<Value> {
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
        let (_, def) = self.db.schema.def_by_key(cand.key)?;
        match def.kind.clone() {
            PropKind::Stored { default, .. } => self.read_stored(oid, via, cand.key, default),
            PropKind::Method { body, .. } => {
                let src = Source { reader: self, oid, via, depth: depth + 1 };
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
        let db = self.db;
        let epoch = current_read_epoch();
        let (home, rec) = {
            let objects = db.objects.read();
            let entry = objects.get(oid).ok_or(ModelError::UnknownObject(oid))?;
            if entry.direct_at(epoch).is_none() {
                // Dead at (or created after) the reader's epoch.
                return Err(ModelError::UnknownObject(oid));
            }
            let Some(home) = entry.home(key) else {
                // Never written → default value, no storage materialized.
                return Ok(default);
            };
            (home, entry.slice(home))
        };
        // Slice-hop accounting: distance between perspective and home class.
        let hops = db
            .schema
            .up_distance(via, home)
            .or_else(|| db.schema.up_distance(home, via))
            .unwrap_or(1) as u64;
        self.slice_hops.fetch_add(hops, Ordering::Relaxed);
        let rec = match rec {
            Some(r) => r,
            None => return Ok(default),
        };
        let idx = db
            .schema
            .class(home)?
            .layout_index(key)
            .ok_or_else(|| ModelError::Invalid(format!("home {home} lost layout for {key}")))?;
        let len = match db.store.field_count(rec) {
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
        Ok(db.store.read_field(rec, idx)?)
    }
}

struct Source<'a> {
    reader: &'a Reference<'a>,
    oid: Oid,
    via: ClassId,
    depth: u32,
}

impl AttrSource for Source<'_> {
    fn get(&self, name: &str) -> ModelResult<Value> {
        self.reader.read_attr_depth(self.oid, self.via, name, self.depth)
    }
}
