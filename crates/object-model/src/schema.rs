//! The global schema: one DAG of base and virtual classes.
//!
//! Every view in TSE is a subset of this one schema; every object is
//! associated with it. This module owns the class arena, the generalization
//! (is-a) DAG, property registration and promotion, and *type resolution* —
//! computing the full type of a class from local definitions plus
//! inheritance, with the paper's overriding and conflict rules:
//!
//! * a local property overrides inherited ones of the same name;
//! * two same-named properties inherited from different superclasses are
//!   both present but **ambiguous** until the user renames one;
//! * exception: a definition that was *promoted* out of class `C` into a
//!   superclass wins conflicts when resolving at `C` (§6.2.3's
//!   multiple-inheritance priority rule).
//!
//! What resolution works out is kept per class in the *fact cache* (resolved
//! type, intent type, access plans). A schema change adds classes beside the
//! old ones and leaves the rest untouched, and so does the cache: an entry
//! dies when its class, or a class its facts are built from, is mutated
//! (`Schema::invalidate`) and at no other time, and it rides through every
//! `Schema::clone`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::class::{Class, ClassKind};
use crate::derivation::Derivation;
use crate::error::{ModelError, ModelResult};
use crate::ids::{ClassId, PropKey};
use crate::method::MethodBody;
use crate::property::{LocalProp, PendingProp, PropKind, PropertyDef};
use crate::value::{Value, ValueType};

/// Name of the implicit root class (the paper's `OBJECT`/`ROOT`).
pub const ROOT_CLASS: &str = "Object";

/// Name prefix of the tombstone a retired duplicate class leaves behind.
/// Reserved: [`Schema::is_retired`] recognises tombstones by it.
const RETIRED_PREFIX: &str = "__retired_";

fn check_not_reserved(name: &str) -> ModelResult<()> {
    if name.starts_with(RETIRED_PREFIX) {
        return Err(ModelError::Invalid(format!(
            "class name {name:?} uses the reserved prefix {RETIRED_PREFIX:?}"
        )));
    }
    Ok(())
}

/// One way a name resolves at a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Class currently holding the definition.
    pub def_class: ClassId,
    /// Identity of the definition.
    pub key: PropKey,
    /// `Some(c)` if the definition was promoted out of class `c`.
    pub promoted_from: Option<ClassId>,
}

/// Resolution of one property name at a class.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedProp {
    /// All distinct definitions the name resolves to (len > 1 = ambiguous).
    pub candidates: Vec<Candidate>,
}

impl ResolvedProp {
    /// Is the name ambiguous at this class?
    pub fn is_ambiguous(&self) -> bool {
        self.candidates.len() > 1
    }
}

/// The full resolved type of a class: name → definition(s).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolvedType {
    /// Properties by name.
    pub props: BTreeMap<String, ResolvedProp>,
    /// The keys of every candidate in `props`, sorted and deduplicated,
    /// computed once when the type is built: the classifier compares these
    /// arrays for every candidate.
    keys: Arc<[PropKey]>,
}

impl ResolvedType {
    fn new(props: BTreeMap<String, ResolvedProp>) -> Self {
        let mut keys: Vec<PropKey> =
            props.values().flat_map(|rp| rp.candidates.iter().map(|c| c.key)).collect();
        keys.sort_unstable();
        keys.dedup();
        ResolvedType { props, keys: keys.into() }
    }

    /// The type as a sorted key array — what the classifier compares for
    /// type subsumption. Ambiguous names contribute all their candidates. A
    /// key has one name at any schema state ([`Schema::def_by_key`]), so
    /// the keys determine the names.
    pub fn keys(&self) -> &[PropKey] {
        &self.keys
    }

    /// Does the type contain this property name (ambiguous or not)?
    pub fn contains_name(&self, name: &str) -> bool {
        self.props.contains_key(name)
    }

    /// Resolve a name to its unique candidate, with the paper's error
    /// behaviour for missing and ambiguous names.
    pub fn get_unique(&self, class: ClassId, name: &str) -> ModelResult<&Candidate> {
        match self.props.get(name) {
            None => Err(ModelError::UnknownProperty { class, name: name.to_string() }),
            Some(rp) if rp.is_ambiguous() => {
                Err(ModelError::AmbiguousProperty { class, name: name.to_string() })
            }
            Some(rp) => Ok(&rp.candidates[0]),
        }
    }

    /// Number of property names.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// True when the type has no properties.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }
}

/// How one property name is accessed through one class: the name resolved
/// ahead of time to a definition, what reading or writing it needs from that
/// definition, and where its value can live. Compiled on the first access of
/// `(class, name)` and kept in the class's fact-cache entry (see
/// [`Schema::access_plan`] for when it dies).
#[derive(Debug)]
pub(crate) struct AccessPlan {
    /// Identity of the definition the name resolves to.
    pub(crate) key: PropKey,
    pub(crate) kind: PlanKind,
    /// Every class with storage capability for `key`. An object's value
    /// lives in the slice of exactly one of them (its home, bound on first
    /// write); which one is a per-object fact, so the plan lists them all.
    homes: Vec<HomeSlot>,
}

/// What the definition behind a plan is.
#[derive(Debug)]
pub(crate) enum PlanKind {
    /// A stored attribute: the value read when nothing was ever written,
    /// and what a write is checked against.
    Stored { default: Value, vtype: ValueType, required: bool },
    /// A method: the body every evaluation shares.
    Method { body: MethodBody },
}

/// One possible home of a plan's property.
#[derive(Debug)]
pub(crate) struct HomeSlot {
    class: ClassId,
    /// Field index of the property in the home's slice records.
    pub(crate) index: usize,
    /// Slice hops from the plan's class to the home: the is-a distance
    /// upward, else downward, else 1 for unrelated classes.
    pub(crate) hops: u64,
}

impl AccessPlan {
    /// Every class with storage capability for the plan's key, by class id.
    pub(crate) fn homes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.homes.iter().map(|slot| slot.class)
    }

    /// The slot of `home`, the class an object's value for this property
    /// is bound to. Homes are only ever bound to classes that can store the
    /// key, and layouts only grow, so a miss is a broken invariant.
    pub(crate) fn home(&self, home: ClassId) -> ModelResult<&HomeSlot> {
        self.homes.iter().find(|slot| slot.class == home).ok_or_else(|| {
            ModelError::Invalid(format!("home {home} lost layout for {}", self.key))
        })
    }
}

/// What the schema remembers about one class between mutations: its
/// resolved type, its intent type (the operator rule of `tse-algebra`,
/// memoised through [`Schema::intent_type_with`]), the facts a write asks
/// for (its ancestors, its REQUIRED keys, whether its membership reads
/// values) and the access plans compiled so far. See [`Schema::invalidate`]
/// for when an entry dies.
#[derive(Clone, Default)]
struct ClassFacts {
    resolved: Option<Arc<ResolvedType>>,
    intent: Option<Arc<[PropKey]>>,
    /// The class and its is-a ancestors, one bit per class id: built from
    /// the direct supers' sets.
    ancestors: Option<Arc<[u64]>>,
    /// The REQUIRED stored attributes that default to null, in name order:
    /// the keys a create must give a value. Built from the resolved type.
    required: Option<Arc<[PropKey]>>,
    /// Is there a `Select` in the class's derivation closure? Built from the
    /// derivation sources' facts; a base class's membership reads no value.
    value_sensitive: Option<bool>,
    plans: HashMap<Box<str>, Arc<AccessPlan>>,
}

impl ClassFacts {
    fn is_empty(&self) -> bool {
        self.resolved.is_none()
            && self.intent.is_none()
            && self.ancestors.is_none()
            && self.required.is_none()
            && self.value_sensitive.is_none()
            && self.plans.is_empty()
    }
}

/// The fact cache's entries, one per class of a schema of `classes`
/// classes, for a fill that recurses through other classes' entries.
fn spine(entries: &mut Arc<Vec<ClassFacts>>, classes: usize) -> &mut [ClassFacts] {
    let entries = Arc::make_mut(entries);
    if entries.len() < classes {
        entries.resize_with(classes, ClassFacts::default);
    }
    entries
}

/// Is bit `class` set in `bits`?
fn has_bit(bits: &[u64], class: ClassId) -> bool {
    let idx = class.0 as usize;
    bits.get(idx / 64).is_some_and(|word| word >> (idx % 64) & 1 == 1)
}

/// The fact cache: one [`ClassFacts`] per class id (shorter than the class
/// list until a fill reaches the newer classes). The spine is shared with
/// every clone of the schema until one side fills or drops an entry.
#[derive(Clone, Default)]
struct FactCache {
    entries: Arc<Vec<ClassFacts>>,
    /// Does any entry hold a plan? Lets the wholesale plan drop of an edge
    /// or layout mutation cost nothing while none was compiled — the state
    /// an evolve runs in.
    plans_live: bool,
    /// Class types resolved (cache misses, counted per class resolved).
    resolved: u64,
    /// Non-empty entries dropped by [`Schema::invalidate`].
    invalidated: u64,
}

impl FactCache {
    fn entry(&self, class: ClassId) -> Option<&ClassFacts> {
        self.entries.get(class.0 as usize)
    }

    /// The entry of `class` (which must exist in the schema), for filling.
    fn entry_mut(&mut self, class: ClassId) -> &mut ClassFacts {
        let entries = Arc::make_mut(&mut self.entries);
        let idx = class.0 as usize;
        if entries.len() <= idx {
            entries.resize_with(idx + 1, ClassFacts::default);
        }
        &mut entries[idx]
    }
}

/// The global schema.
///
/// Everything that grows with the schema sits behind an `Arc` — the class
/// list (and each class in it), the name index, the definition homes, the
/// fact cache's spine — so cloning the schema, which every evolution fork
/// *and* every epoch snapshot of the shared-system control plane does, is a
/// handful of pointer copies. The clone shares all of it until one side
/// mutates: the first mutation pays for one copy of the spine it touches
/// (`Arc::make_mut`), and a class is copied when `Schema::class_mut` first
/// reaches it. The name index is keyed by shared `Arc<str>` names, so its
/// copy is one table allocation and a refcount bump per class, not a
/// `String` per class.
pub struct Schema {
    classes: Arc<Vec<Arc<Class>>>,
    by_name: Arc<HashMap<Arc<str>, ClassId>>,
    root: ClassId,
    next_prop_key: u64,
    /// Current holder of each property definition (moves on promotion).
    prop_home: Arc<HashMap<PropKey, ClassId>>,
    /// Number of classes carrying a constraint (fast path: the database
    /// skips constraint checking entirely when zero).
    constraint_count: usize,
    facts: RwLock<FactCache>,
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema").field("classes", &self.classes.len()).finish()
    }
}

/// Cloning a schema is the fork primitive of evolution (every change
/// evolves a clone, which is published on success and dropped on failure)
/// and the snapshot primitive of epoch publication (the shared system
/// clones it into each `MetaSnapshot`): pointer copies, whatever the size
/// of the schema — and the name index's copy on a later write clones no
/// name (its keys are shared `Arc<str>`s). The fact cache rides along —
/// its entries are `Arc`s and every mutator keeps it consistent with the
/// schema it sits in (`Schema::invalidate`) — so a fork starts warm, the
/// original's cache never sees a dropped fork's classes, and a published
/// snapshot is warm for its first reader.
impl Clone for Schema {
    fn clone(&self) -> Self {
        Schema {
            classes: Arc::clone(&self.classes),
            by_name: Arc::clone(&self.by_name),
            root: self.root,
            next_prop_key: self.next_prop_key,
            prop_home: Arc::clone(&self.prop_home),
            constraint_count: self.constraint_count,
            facts: RwLock::new(self.facts.read().clone()),
        }
    }
}

impl Default for Schema {
    fn default() -> Self {
        Self::new()
    }
}

impl Schema {
    /// A fresh schema containing only the root class.
    pub fn new() -> Self {
        let root = Class::new(ClassId(0), ROOT_CLASS.to_string(), ClassKind::Base);
        Schema {
            classes: Arc::new(vec![Arc::new(root)]),
            by_name: Arc::new(HashMap::from([(Arc::from(ROOT_CLASS), ClassId(0))])),
            root: ClassId(0),
            next_prop_key: 0,
            prop_home: Arc::default(),
            constraint_count: 0,
            facts: RwLock::default(),
        }
    }

    /// The root class (`Object`).
    pub fn root(&self) -> ClassId {
        self.root
    }

    // ----- class access ----------------------------------------------------

    /// Look up a class by id.
    pub fn class(&self, id: ClassId) -> ModelResult<&Class> {
        self.classes.get(id.0 as usize).map(|c| c.as_ref()).ok_or(ModelError::UnknownClass(id))
    }

    /// Copy-on-write mutable access: if the class is shared with a snapshot
    /// (an epoch's `MetaSnapshot` or the system an evolution forked), the first
    /// mutation clones it; snapshots keep the pre-mutation version.
    pub(crate) fn class_mut(&mut self, id: ClassId) -> ModelResult<&mut Class> {
        Arc::make_mut(&mut self.classes)
            .get_mut(id.0 as usize)
            .map(Arc::make_mut)
            .ok_or(ModelError::UnknownClass(id))
    }

    /// Look up a class id by global name.
    pub fn by_name(&self, name: &str) -> ModelResult<ClassId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownClassName(name.to_string()))
    }

    /// All class ids, in creation order.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// Number of classes (including the root and retired tombstones).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Has the class been retired as a duplicate?
    pub fn is_retired(&self, id: ClassId) -> bool {
        self.class(id).map(|c| c.name.starts_with(RETIRED_PREFIX)).unwrap_or(true)
    }

    /// Number of live (non-retired) classes, including the root.
    pub fn live_class_count(&self) -> usize {
        self.class_ids().filter(|c| !self.is_retired(*c)).count()
    }

    /// Find an unused global class name based on `base` (`base`, `base'`,
    /// `base''`, … like the paper's primed classes, falling back to numeric
    /// suffixes).
    pub fn fresh_name(&self, base: &str) -> String {
        if !self.by_name.contains_key(base) {
            return base.to_string();
        }
        let mut candidate = format!("{base}'");
        for _ in 0..8 {
            if !self.by_name.contains_key(candidate.as_str()) {
                return candidate;
            }
            candidate.push('\'');
        }
        for i in 2.. {
            let candidate = format!("{base}~{i}");
            if !self.by_name.contains_key(candidate.as_str()) {
                return candidate;
            }
        }
        unreachable!()
    }

    // ----- class creation ----------------------------------------------------

    /// Create a base class. With no supers given it is attached under the
    /// root class.
    pub fn create_base_class(&mut self, name: &str, supers: &[ClassId]) -> ModelResult<ClassId> {
        self.create_class(name, ClassKind::Base, supers)
    }

    /// Create a virtual class with the given derivation. The classifier is
    /// responsible for wiring it into the is-a DAG afterwards; creation only
    /// validates that the derivation's sources exist.
    pub fn create_virtual_class(
        &mut self,
        name: &str,
        derivation: Derivation,
    ) -> ModelResult<ClassId> {
        for src in derivation.sources() {
            self.class(src)?;
        }
        self.create_class(name, ClassKind::Virtual(derivation), &[])
    }

    /// Create a refine virtual class in one step: the class, its freshly
    /// defined local properties (`new_props`), and by-reference inherited
    /// properties (`inherited`, the `refine C1:x for C2` form — stored ones
    /// get storage capability on the new class because its instances "assign
    /// a new storage for the property").
    pub fn create_refine_class(
        &mut self,
        name: &str,
        src: ClassId,
        new_props: Vec<PendingProp>,
        inherited: Vec<(ClassId, PropKey)>,
    ) -> ModelResult<ClassId> {
        self.class(src)?;
        for (cls, key) in &inherited {
            self.class(*cls)?;
            self.def_by_key(*key)?;
        }
        let id = self.create_class(
            name,
            ClassKind::Virtual(Derivation::Refine {
                src,
                new_props: Vec::new(),
                inherited: inherited.clone(),
            }),
            &[],
        )?;
        let mut keys = Vec::with_capacity(new_props.len());
        for prop in new_props {
            keys.push(self.add_local_prop(id, prop, None)?);
        }
        // Patch the derivation with the issued keys.
        if let ClassKind::Virtual(Derivation::Refine { new_props, .. }) =
            &mut self.class_mut(id)?.kind
        {
            *new_props = keys;
        }
        // Storage capability for inherited stored properties.
        for (_, key) in inherited {
            let (_, def) = self.def_by_key(key)?;
            if def.kind.is_stored() {
                self.add_stored_capability(id, key)?;
            }
        }
        // The derivation patched above is part of the class's intent type.
        self.invalidate(&[id]);
        Ok(id)
    }

    fn create_class(
        &mut self,
        name: &str,
        kind: ClassKind,
        supers: &[ClassId],
    ) -> ModelResult<ClassId> {
        check_not_reserved(name)?;
        if self.by_name.contains_key(name) {
            return Err(ModelError::DuplicateClassName(name.to_string()));
        }
        for s in supers {
            self.class(*s)?;
        }
        let id = ClassId(self.classes.len() as u32);
        let effective: Vec<ClassId> =
            if supers.is_empty() && matches!(kind, ClassKind::Base) && id != self.root {
                vec![self.root]
            } else {
                supers.to_vec()
            };
        // A new id has no cache entry — classes are never removed, and a
        // failed change's classes die with its fork's schema and cache — so
        // creation itself invalidates nothing.
        let class = Class::new(id, name.to_string(), kind);
        let sources = class.sources();
        Arc::make_mut(&mut self.classes).push(Arc::new(class));
        Arc::make_mut(&mut self.by_name).insert(Arc::from(name), id);
        for src in sources {
            self.class_mut(src)?.derived.push(id);
        }
        for s in effective {
            self.add_edge(s, id)?;
        }
        Ok(id)
    }

    /// Retire a class that turned out to be a duplicate of an existing one
    /// (the classifier "will discover this duplicate and discard the new
    /// class"). The class must be virtual and unconnected (freshly created,
    /// not yet classified). Its name is freed, its edges removed, and its
    /// local property definitions unregistered.
    pub fn retire_class(&mut self, id: ClassId) -> ModelResult<()> {
        if id == self.root {
            return Err(ModelError::Invalid("cannot retire the root class".into()));
        }
        if self.class(id)?.is_base() {
            return Err(ModelError::NotAVirtualClass(id));
        }
        let cls = self.class(id)?;
        let name = cls.name.clone();
        let supers = cls.supers.clone();
        let subs = cls.subs.clone();
        for s in supers {
            self.remove_edge(s, id)?;
        }
        for s in subs {
            self.remove_edge(id, s)?;
        }
        let keys: Vec<PropKey> =
            self.class(id)?.locals.iter().map(|lp| lp.def.key).collect();
        let mut changed = vec![id];
        for key in keys {
            Arc::make_mut(&mut self.prop_home).remove(&key);
            changed.extend(self.classes_referring_to(key));
        }
        self.class_mut(id)?.locals.clear();
        let by_name = Arc::make_mut(&mut self.by_name);
        by_name.remove(name.as_str());
        let tombstone = format!("{RETIRED_PREFIX}{}", id.0);
        by_name.insert(Arc::from(tombstone.as_str()), id);
        self.class_mut(id)?.name = tombstone;
        self.invalidate(&changed);
        Ok(())
    }

    /// Rename a class globally (view-local renames live in `tse-view`).
    pub fn rename_class(&mut self, id: ClassId, new_name: &str) -> ModelResult<()> {
        check_not_reserved(new_name)?;
        if self.by_name.contains_key(new_name) {
            return Err(ModelError::DuplicateClassName(new_name.to_string()));
        }
        let old = self.class(id)?.name.clone();
        let by_name = Arc::make_mut(&mut self.by_name);
        by_name.remove(old.as_str());
        by_name.insert(Arc::from(new_name), id);
        self.class_mut(id)?.name = new_name.to_string();
        Ok(())
    }

    // ----- is-a edges ----------------------------------------------------

    /// Add a direct is-a edge `sup -> sub`. Rejects cycles and duplicates
    /// (duplicates are ignored silently — re-deriving the same placement is
    /// common during classification).
    pub fn add_edge(&mut self, sup: ClassId, sub: ClassId) -> ModelResult<()> {
        self.class(sup)?;
        self.class(sub)?;
        if sup == sub {
            return Err(ModelError::CycleDetected { sup, sub });
        }
        if self.class(sub)?.supers.contains(&sup) {
            return Ok(());
        }
        // Cycle check: sup must not be a (transitive) subclass of sub.
        if self.descendants(sub).contains(&sup) {
            return Err(ModelError::CycleDetected { sup, sub });
        }
        self.class_mut(sub)?.supers.push(sup);
        self.class_mut(sup)?.subs.push(sub);
        self.invalidate(&[sub]);
        self.drop_plans();
        Ok(())
    }

    /// Remove a direct is-a edge.
    pub fn remove_edge(&mut self, sup: ClassId, sub: ClassId) -> ModelResult<()> {
        let present = self.class(sub)?.supers.contains(&sup);
        if !present {
            return Err(ModelError::UnknownEdge { sup, sub });
        }
        self.class_mut(sub)?.supers.retain(|s| *s != sup);
        self.class_mut(sup)?.subs.retain(|s| *s != sub);
        self.invalidate(&[sub]);
        self.drop_plans();
        Ok(())
    }

    /// All ancestors of `c` including `c` itself.
    pub fn ancestors(&self, c: ClassId) -> BTreeSet<ClassId> {
        let mut out = BTreeSet::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            if out.insert(x) {
                if let Ok(cls) = self.class(x) {
                    stack.extend(cls.supers.iter().copied());
                }
            }
        }
        out
    }

    /// All descendants of `c` including `c` itself.
    pub fn descendants(&self, c: ClassId) -> BTreeSet<ClassId> {
        let mut out = BTreeSet::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            if out.insert(x) {
                if let Ok(cls) = self.class(x) {
                    stack.extend(cls.subs.iter().copied());
                }
            }
        }
        out
    }

    /// Is `sub` a (transitive or reflexive) subclass of `sup`? One bit of
    /// `sub`'s ancestor set in the fact cache: no walk, and no allocation
    /// once the set is built.
    pub fn is_sub_of(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        if sub.0 as usize >= self.classes.len() {
            return false;
        }
        if let Some(bits) = self.facts.read().entry(sub).and_then(|f| f.ancestors.as_ref()) {
            return has_bit(bits, sup);
        }
        let entries = &mut self.facts.write().entries;
        has_bit(&self.ancestors_rec(sub, spine(entries, self.classes.len())), sup)
    }

    /// The ancestor set of `class` (itself included), built into `memo`
    /// from the direct supers' sets.
    fn ancestors_rec(&self, class: ClassId, memo: &mut [ClassFacts]) -> Arc<[u64]> {
        if let Some(bits) = &memo[class.0 as usize].ancestors {
            return Arc::clone(bits);
        }
        let idx = class.0 as usize;
        let mut bits = vec![0u64; idx / 64 + 1];
        bits[idx / 64] |= 1 << (idx % 64);
        for &sup in &self.classes[idx].supers {
            let above = self.ancestors_rec(sup, memo);
            if bits.len() < above.len() {
                bits.resize(above.len(), 0);
            }
            for (word, up) in bits.iter_mut().zip(above.iter()) {
                *word |= up;
            }
        }
        let bits: Arc<[u64]> = bits.into();
        memo[idx].ancestors = Some(Arc::clone(&bits));
        bits
    }

    /// Length of the shortest upward is-a path from `from` to `to`
    /// (`Some(0)` when equal, `None` when `to` is not an ancestor).
    /// This is the slice-hop distance of the object-slicing cost model.
    pub fn up_distance(&self, from: ClassId, to: ClassId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut frontier = vec![from];
        let mut seen: BTreeSet<ClassId> = frontier.iter().copied().collect();
        let mut dist = 0u32;
        while !frontier.is_empty() {
            dist += 1;
            let mut next = Vec::new();
            for c in frontier {
                if let Ok(cls) = self.class(c) {
                    for s in &cls.supers {
                        if *s == to {
                            return Some(dist);
                        }
                        if seen.insert(*s) {
                            next.push(*s);
                        }
                    }
                }
            }
            frontier = next;
        }
        None
    }

    // ----- properties ----------------------------------------------------

    /// Issue a fresh property key.
    pub fn fresh_prop_key(&mut self) -> PropKey {
        let key = PropKey(self.next_prop_key);
        self.next_prop_key += 1;
        key
    }

    /// Register a new local property on a class. Fails if the class already
    /// locally defines the name.
    pub fn add_local_prop(
        &mut self,
        class: ClassId,
        prop: PendingProp,
        promoted_from: Option<ClassId>,
    ) -> ModelResult<PropKey> {
        if self.class(class)?.local(&prop.name).is_some() {
            return Err(ModelError::PropertyExists { class, name: prop.name });
        }
        let key = self.fresh_prop_key();
        let def = prop.with_key(key);
        let is_stored = def.kind.is_stored();
        let cls = self.class_mut(class)?;
        cls.locals.push(LocalProp { def, promoted_from });
        if is_stored {
            cls.stored_layout.push(key);
        }
        Arc::make_mut(&mut self.prop_home).insert(key, class);
        self.invalidate(&[class]);
        if is_stored {
            self.drop_plans();
        }
        Ok(key)
    }

    /// Register storage *capability* for an existing shared definition
    /// (`refine C1:x for C2` with a stored `x`: C2's instances "assign a new
    /// storage for the property"). The definition stays at its home class.
    pub fn add_stored_capability(&mut self, class: ClassId, key: PropKey) -> ModelResult<()> {
        let (_, def) = self.def_by_key(key)?;
        if !def.kind.is_stored() {
            return Err(ModelError::NotStored(def.name.clone()));
        }
        let cls = self.class_mut(class)?;
        if cls.stored_layout.contains(&key) {
            return Ok(());
        }
        cls.stored_layout.push(key);
        // No type changes; every plan of `key` gains a home.
        self.drop_plans();
        Ok(())
    }

    /// Attach (or clear) a class constraint: a predicate every member must
    /// satisfy after any mutation touching it. The database layer enforces
    /// it on `create_object` and `write_attr` ("the class predicate is
    /// checked", §3.3).
    pub fn set_class_constraint(
        &mut self,
        class: ClassId,
        constraint: Option<crate::predicate::Predicate>,
    ) -> ModelResult<()> {
        let cls = self.class_mut(class)?;
        match (&cls.constraint, &constraint) {
            (None, Some(_)) => self.constraint_count += 1,
            (Some(_), None) => self.constraint_count -= 1,
            _ => {}
        }
        self.class_mut(class)?.constraint = constraint;
        Ok(())
    }

    /// Number of classes carrying constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraint_count
    }

    /// Include an existing definition in a class's type *by reference* (the
    /// classifier's repair step for operator-intent properties that neither
    /// placement nor promotion can deliver). Stored definitions do not get a
    /// new storage home — the objects' values stay where they were written.
    pub fn add_extra_ref(&mut self, class: ClassId, key: PropKey) -> ModelResult<()> {
        let (holder, _) = self.def_by_key(key)?;
        let cls = self.class_mut(class)?;
        if cls.extra_refs.iter().any(|(_, k)| *k == key) {
            return Ok(());
        }
        cls.extra_refs.push((holder, key));
        self.invalidate(&[class]);
        Ok(())
    }

    /// Remove a local property definition from a class, returning it.
    /// Storage capability is retained (existing slice data stays readable by
    /// key) — the definition simply no longer contributes to types.
    pub fn remove_local_prop(&mut self, class: ClassId, name: &str) -> ModelResult<LocalProp> {
        let cls = self.class_mut(class)?;
        let idx = cls
            .locals
            .iter()
            .position(|p| p.def.name == name)
            .ok_or_else(|| ModelError::UnknownProperty { class, name: name.to_string() })?;
        let lp = cls.locals.remove(idx);
        Arc::make_mut(&mut self.prop_home).remove(&lp.def.key);
        self.invalidate_definition(&[class], lp.def.key);
        Ok(lp)
    }

    /// Promote a local property from `from` to `to` (MultiView code
    /// promotion: "methods and instance variables that had been locally
    /// defined have now moved upward"). The definition keeps its key; the
    /// origin class keeps its storage capability so existing slice data stays
    /// where it is. The moved definition is tagged with `promoted_from` so
    /// the priority rule can favour it at `from`.
    pub fn promote_prop(&mut self, from: ClassId, name: &str, to: ClassId) -> ModelResult<PropKey> {
        self.class(to)?;
        let from_cls = self.class_mut(from)?;
        let idx = from_cls
            .locals
            .iter()
            .position(|p| p.def.name == name)
            .ok_or_else(|| ModelError::UnknownProperty { class: from, name: name.to_string() })?;
        let mut lp = from_cls.locals.remove(idx);
        let key = lp.def.key;
        lp.promoted_from = Some(from);
        let to_cls = self.class_mut(to)?;
        if to_cls.local(name).is_some() {
            // Put it back before failing.
            let from_cls = self.class_mut(from)?;
            lp.promoted_from = None;
            from_cls.locals.push(lp);
            return Err(ModelError::PropertyExists { class: to, name: name.to_string() });
        }
        to_cls.locals.push(lp);
        Arc::make_mut(&mut self.prop_home).insert(key, to);
        self.invalidate_definition(&[from, to], key);
        Ok(key)
    }

    /// Rename a local property (the user-level disambiguation step for
    /// multiple-inheritance conflicts).
    pub fn rename_local_prop(
        &mut self,
        class: ClassId,
        old: &str,
        new: &str,
    ) -> ModelResult<()> {
        if self.class(class)?.local(new).is_some() {
            return Err(ModelError::PropertyExists { class, name: new.to_string() });
        }
        let cls = self.class_mut(class)?;
        let lp = cls
            .locals
            .iter_mut()
            .find(|p| p.def.name == old)
            .ok_or_else(|| ModelError::UnknownProperty { class, name: old.to_string() })?;
        lp.def.name = new.to_string();
        let key = lp.def.key;
        self.invalidate_definition(&[class], key);
        Ok(())
    }

    /// Current definition for a key: `(holder class, def)`.
    pub fn def_by_key(&self, key: PropKey) -> ModelResult<(ClassId, &PropertyDef)> {
        let holder = self
            .prop_home
            .get(&key)
            .copied()
            .ok_or_else(|| ModelError::Invalid(format!("no definition for {key}")))?;
        let def = self
            .class(holder)?
            .local_by_key(key)
            .map(|lp| &lp.def)
            .ok_or_else(|| ModelError::Invalid(format!("stale home for {key}")))?;
        Ok((holder, def))
    }

    // ----- the fact cache ---------------------------------------------------
    //
    // One rule: an entry of class C dies when C, or a class C's facts are
    // built from, is mutated. C's facts are built from its is-a ancestors
    // (inheritance), its derivation sources (the operator rule of the
    // resolved and the intent type) and the holders of the definitions it
    // includes by reference. The mutator pushes the invalidation — it holds
    // `&mut self`, so no lock is taken and no reader can be looking — and a
    // hit therefore validates nothing: one lock, one lookup.

    /// Drop the cache entries of `changed` and of every class whose facts
    /// are built from theirs: the closure of `changed` under the is-a
    /// edges downward and the derivation edges from source to derived
    /// class. Every mutator of a class's locals, supers, by-reference
    /// inclusions or derivation calls this with the class; a class's name,
    /// constraint, segment and `subs` list are no fact.
    fn invalidate(&mut self, changed: &[ClassId]) {
        let Schema { classes, facts, .. } = self;
        let cache = facts.get_mut();
        let mut seen = vec![false; classes.len()];
        let mut stack = changed.to_vec();
        while let Some(class) = stack.pop() {
            let idx = class.0 as usize;
            if std::mem::replace(&mut seen[idx], true) {
                continue;
            }
            if cache.entry(class).is_some_and(|facts| !facts.is_empty()) {
                *cache.entry_mut(class) = ClassFacts::default();
                cache.invalidated += 1;
            }
            let cls = &classes[idx];
            stack.extend(cls.subs.iter().chain(&cls.derived));
        }
    }

    /// [`Schema::invalidate`] for a mutation that moved, renamed or removed
    /// the definition `key`: the classes including it by reference are built
    /// from it too, wherever they sit in the DAG.
    fn invalidate_definition(&mut self, changed: &[ClassId], key: PropKey) {
        let mut changed = changed.to_vec();
        changed.extend(self.classes_referring_to(key));
        self.invalidate(&changed);
    }

    /// The classes that name `key` without holding it: a refine class's
    /// inherited (or promoted-away new) properties and the classifier's
    /// extra references.
    fn classes_referring_to(&self, key: PropKey) -> Vec<ClassId> {
        let refers = |cls: &Class| {
            cls.extra_refs.iter().any(|(_, k)| *k == key)
                || matches!(
                    &cls.kind,
                    ClassKind::Virtual(Derivation::Refine { new_props, inherited, .. })
                        if new_props.contains(&key) || inherited.iter().any(|(_, k)| *k == key)
                )
        };
        self.classes.iter().filter(|cls| refers(cls)).map(|cls| cls.id).collect()
    }

    /// Drop every access plan. A plan lists every class able to store its
    /// key and the is-a distance to each, so beyond its own class's facts it
    /// depends on *other* classes' layouts and on the shape of the DAG: any
    /// edge or layout mutation drops them all. An evolve compiles none, so
    /// nothing it needs is lost.
    fn drop_plans(&mut self) {
        let cache = self.facts.get_mut();
        if std::mem::take(&mut cache.plans_live) {
            for facts in Arc::make_mut(&mut cache.entries) {
                facts.plans.clear();
            }
        }
    }

    /// Class types resolved so far by this schema and the schemas it was
    /// cloned from (every miss of the fact cache, counted per class).
    pub fn types_resolved(&self) -> u64 {
        self.facts.read().resolved
    }

    /// Cache entries dropped so far by mutations of this schema and of the
    /// schemas it was cloned from.
    pub fn types_invalidated(&self) -> u64 {
        self.facts.read().invalidated
    }

    // ----- type resolution -------------------------------------------------

    /// The resolved type of a class, from the fact cache.
    pub fn resolved_type(&self, class: ClassId) -> ModelResult<Arc<ResolvedType>> {
        self.class(class)?;
        if let Some(resolved) = self.facts.read().entry(class).and_then(|f| f.resolved.as_ref()) {
            return Ok(Arc::clone(resolved));
        }
        // A miss resolves straight into the cache, which doubles as the
        // recursion memo: shared ancestors are resolved once and a miss
        // costs what it resolves, not the size of the cache.
        let mut cache = self.facts.write();
        let FactCache { entries, resolved, .. } = &mut *cache;
        self.resolve_rec(class, spine(entries, self.classes.len()), resolved)
    }

    /// The REQUIRED stored attributes of `class` that default to null, in
    /// name order: the keys a create must be given a non-null value for. An
    /// ambiguous name is not enforced. From the fact cache, built from the
    /// resolved type, so it dies with it.
    pub fn required_keys(&self, class: ClassId) -> ModelResult<Arc<[PropKey]>> {
        self.class(class)?;
        if let Some(required) = self.facts.read().entry(class).and_then(|f| f.required.as_ref()) {
            return Ok(Arc::clone(required));
        }
        let resolved = self.resolved_type(class)?;
        let mut required = Vec::new();
        for rp in resolved.props.values().filter(|rp| !rp.is_ambiguous()) {
            let key = rp.candidates[0].key;
            let (_, def) = self.def_by_key(key)?;
            if matches!(&def.kind, PropKind::Stored { required: true, default: Value::Null, .. }) {
                required.push(key);
            }
        }
        let required: Arc<[PropKey]> = required.into();
        self.facts.write().entry_mut(class).required = Some(Arc::clone(&required));
        Ok(required)
    }

    /// Can a write of an attribute value change whether an object belongs
    /// to `class`? Only through a `Select` somewhere in its derivation
    /// closure: every other operator's membership follows explicit base
    /// membership alone. From the fact cache, built from the derivation
    /// sources' facts.
    pub fn value_sensitive(&self, class: ClassId) -> ModelResult<bool> {
        self.class(class)?;
        if let Some(sensitive) = self.facts.read().entry(class).and_then(|f| f.value_sensitive) {
            return Ok(sensitive);
        }
        let entries = &mut self.facts.write().entries;
        Ok(self.value_sensitive_rec(class, spine(entries, self.classes.len())))
    }

    fn value_sensitive_rec(&self, class: ClassId, memo: &mut [ClassFacts]) -> bool {
        if let Some(sensitive) = memo[class.0 as usize].value_sensitive {
            return sensitive;
        }
        let sensitive = match &self.classes[class.0 as usize].kind {
            ClassKind::Base => false,
            ClassKind::Virtual(Derivation::Select { .. }) => true,
            ClassKind::Virtual(
                Derivation::Hide { src, .. } | Derivation::Refine { src, .. },
            ) => self.value_sensitive_rec(*src, memo),
            ClassKind::Virtual(
                Derivation::Union { a, b }
                | Derivation::Difference { a, b }
                | Derivation::Intersect { a, b },
            ) => self.value_sensitive_rec(*a, memo) || self.value_sensitive_rec(*b, memo),
        };
        memo[class.0 as usize].value_sensitive = Some(sensitive);
        sensitive
    }

    /// The intent type of `class` — what the operator that derived it says
    /// its type is, see `tse_algebra::intent_type`, which owns the rule and
    /// passes it as `derive` — memoised in the class's cache entry. `derive`
    /// must read nothing but the class itself, the definitions it names and
    /// the intent types of its derivation sources (through this method):
    /// that is what the invalidation (`Schema::invalidate`) follows.
    pub fn intent_type_with(
        &self,
        class: ClassId,
        derive: impl FnOnce() -> ModelResult<Arc<[PropKey]>>,
    ) -> ModelResult<Arc<[PropKey]>> {
        self.class(class)?;
        if let Some(intent) = self.facts.read().entry(class).and_then(|f| f.intent.as_ref()) {
            return Ok(Arc::clone(intent));
        }
        // Not under the lock: `derive` comes back for the sources.
        let mut intent = derive()?;
        let mut cache = self.facts.write();
        let facts = cache.entry_mut(class);
        // Once a class is classified its two types agree: keep one array.
        if let Some(resolved) = facts.resolved.as_ref().filter(|r| r.keys == intent) {
            intent = Arc::clone(&resolved.keys);
        }
        facts.intent = Some(Arc::clone(&intent));
        Ok(intent)
    }

    /// The access plan of `name` at `class`: one lookup in the class's cache
    /// entry. A plan dies with its entry (the name may resolve differently)
    /// and with any edge or layout mutation (`Schema::drop_plans`). A miss
    /// resolves the name the long way (with the errors of
    /// [`ResolvedType::get_unique`], which are not cached) and compiles the
    /// plan; classification and `evolve` never do.
    pub(crate) fn access_plan(&self, class: ClassId, name: &str) -> ModelResult<Arc<AccessPlan>> {
        if let Some(plan) = self.facts.read().entry(class).and_then(|f| f.plans.get(name)) {
            return Ok(Arc::clone(plan));
        }
        let resolved = self.resolved_type(class)?;
        let key = resolved.get_unique(class, name)?.key;
        let plan = Arc::new(self.compile_plan(class, key)?);
        let mut cache = self.facts.write();
        cache.entry_mut(class).plans.insert(name.into(), Arc::clone(&plan));
        cache.plans_live = true;
        Ok(plan)
    }

    fn compile_plan(&self, class: ClassId, key: PropKey) -> ModelResult<AccessPlan> {
        let (_, def) = self.def_by_key(key)?;
        let (vtype, default, required) = match &def.kind {
            PropKind::Stored { vtype, default, required } => (vtype, default, *required),
            PropKind::Method { body, .. } => {
                let kind = PlanKind::Method { body: body.clone() };
                return Ok(AccessPlan { key, kind, homes: Vec::new() });
            }
        };
        let mut homes = Vec::new();
        for home in self.classes.iter() {
            if let Some(index) = home.layout_index(key) {
                let hops = self
                    .up_distance(class, home.id)
                    .or_else(|| self.up_distance(home.id, class))
                    .unwrap_or(1) as u64;
                homes.push(HomeSlot { class: home.id, index, hops });
            }
        }
        let kind =
            PlanKind::Stored { default: default.clone(), vtype: vtype.clone(), required };
        Ok(AccessPlan { key, kind, homes })
    }

    fn resolve_rec(
        &self,
        class: ClassId,
        memo: &mut [ClassFacts],
        resolutions: &mut u64,
    ) -> ModelResult<Arc<ResolvedType>> {
        if let Some(resolved) = &memo[class.0 as usize].resolved {
            return Ok(Arc::clone(resolved));
        }
        let cls = self.class(class)?;
        let mut merged: BTreeMap<String, Vec<Candidate>> = BTreeMap::new();
        // Almost every name has one candidate, and a resolved type now lives
        // until its class's lineage changes: start the vectors at one slot
        // (a `push` would start them at four).
        let one_candidate = || Vec::with_capacity(1);

        // 1. Inherit from all direct superclasses, deduplicating by key.
        for sup in cls.supers.clone() {
            let sup_type = self.resolve_rec(sup, memo, resolutions)?;
            for (name, rp) in &sup_type.props {
                let entry = merged.entry(name.clone()).or_insert_with(one_candidate);
                for cand in &rp.candidates {
                    if !entry.iter().any(|c| c.key == cand.key) {
                        entry.push(cand.clone());
                    }
                }
            }
        }

        // 2. Derivation contributions. "Downward" operators (select, refine,
        //    difference, intersect) derive classes positioned *below* their
        //    sources, so following the derivation cannot revisit this class;
        //    merging the source types here makes the resolved type correct
        //    even before classification has wired the is-a edges. "Upward"
        //    operators (hide, union) get their types via property promotion
        //    instead — following their derivations would recurse back up
        //    through the source's inheritance into this very class.
        let mut hidden_names: Option<Vec<String>> = None;
        if let ClassKind::Virtual(derivation) = &cls.kind {
            let mut source_types: Vec<Arc<ResolvedType>> = Vec::new();
            match derivation {
                Derivation::Select { src, .. } => {
                    source_types.push(self.resolve_rec(*src, memo, resolutions)?);
                }
                Derivation::Refine { src, .. } => {
                    source_types.push(self.resolve_rec(*src, memo, resolutions)?);
                }
                Derivation::Difference { a, .. } => {
                    source_types.push(self.resolve_rec(*a, memo, resolutions)?);
                }
                Derivation::Intersect { a, b } => {
                    source_types.push(self.resolve_rec(*a, memo, resolutions)?);
                    source_types.push(self.resolve_rec(*b, memo, resolutions)?);
                }
                Derivation::Hide { hidden, .. } => {
                    hidden_names = Some(hidden.clone());
                }
                Derivation::Union { .. } => {}
            }
            for st in source_types {
                for (name, rp) in &st.props {
                    let entry = merged.entry(name.clone()).or_insert_with(one_candidate);
                    for cand in &rp.candidates {
                        if !entry.iter().any(|c| c.key == cand.key) {
                            entry.push(cand.clone());
                        }
                    }
                }
            }
        }
        if let Some(hidden) = hidden_names {
            for name in hidden {
                merged.remove(&name);
            }
        }

        // 3. Multiple-inheritance priority rule (§6.2.3): at class C, a
        //    candidate promoted *out of C* beats other same-named candidates.
        for cands in merged.values_mut() {
            if cands.len() > 1 {
                let winners: Vec<usize> = cands
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.promoted_from == Some(class))
                    .map(|(i, _)| i)
                    .collect();
                if winners.len() == 1 {
                    let winner = cands[winners[0]].clone();
                    *cands = vec![winner];
                }
            }
        }

        // 4. Refine-by-reference properties (`refine C1:x for C2`) and
        //    classifier-attached extra references join the type without
        //    being locals.
        let mut ref_keys: Vec<PropKey> = Vec::new();
        if let ClassKind::Virtual(Derivation::Refine { inherited, .. }) = &cls.kind {
            ref_keys.extend(inherited.iter().map(|(_, k)| *k));
        }
        ref_keys.extend(cls.extra_refs.iter().map(|(_, k)| *k));
        for key in ref_keys {
            if let Ok((holder, def)) = self.def_by_key(key) {
                let entry = merged.entry(def.name.clone()).or_insert_with(one_candidate);
                if !entry.iter().any(|c| c.key == key) {
                    entry.push(Candidate { def_class: holder, key, promoted_from: None });
                }
            }
        }

        // 5. Local definitions override everything of the same name.
        for lp in &cls.locals {
            merged.insert(
                lp.def.name.clone(),
                vec![Candidate {
                    def_class: class,
                    key: lp.def.key,
                    promoted_from: lp.promoted_from,
                }],
            );
        }

        let resolved = Arc::new(ResolvedType::new(
            merged
                .into_iter()
                .map(|(name, candidates)| (name, ResolvedProp { candidates }))
                .collect(),
        ));
        memo[class.0 as usize].resolved = Some(Arc::clone(&resolved));
        *resolutions += 1;
        Ok(resolved)
    }

    /// A class's type as a sorted key array (the classifier's subsumption
    /// basis), shared with the cached [`ResolvedType`].
    pub fn type_keys(&self, class: ClassId) -> ModelResult<Arc<[PropKey]>> {
        Ok(Arc::clone(&self.resolved_type(class)?.keys))
    }

    // ----- snapshot support ---------------------------------------------------

    pub(crate) fn encode_into(&self, buf: &mut bytes::BytesMut) {
        use crate::codec::{put_derivation, put_local_prop, put_str};
        use bytes::BufMut;
        buf.put_u32(self.classes.len() as u32);
        for cls in self.classes.iter() {
            put_str(buf, &cls.name);
            match &cls.kind {
                ClassKind::Base => buf.put_u8(0),
                ClassKind::Virtual(d) => {
                    buf.put_u8(1);
                    put_derivation(buf, d);
                }
            }
            buf.put_u32(cls.locals.len() as u32);
            for lp in &cls.locals {
                put_local_prop(buf, lp);
            }
            buf.put_u32(cls.supers.len() as u32);
            for s in &cls.supers {
                buf.put_u32(s.0);
            }
            buf.put_u32(cls.stored_layout.len() as u32);
            for k in &cls.stored_layout {
                buf.put_u64(k.0);
            }
            buf.put_u32(cls.extra_refs.len() as u32);
            for (c, k) in &cls.extra_refs {
                buf.put_u32(c.0);
                buf.put_u64(k.0);
            }
            match cls.segment {
                None => buf.put_u8(0),
                Some(seg) => {
                    buf.put_u8(1);
                    buf.put_u32(seg.0);
                }
            }
            match &cls.constraint {
                None => buf.put_u8(0),
                Some(pred) => {
                    buf.put_u8(1);
                    crate::codec::put_pred(buf, pred);
                }
            }
        }
        buf.put_u64(self.next_prop_key);
    }

    pub(crate) fn decode_from(buf: &mut bytes::Bytes) -> ModelResult<Schema> {
        use crate::codec::{get_derivation, get_local_prop, get_str, get_u32, get_u64, get_u8};
        let n = get_u32(buf)? as usize;
        let mut constraint_count = 0usize;
        let mut classes = Vec::with_capacity(n.min(1 << 20));
        let mut by_name = HashMap::new();
        let mut prop_home = HashMap::new();
        for i in 0..n {
            let id = ClassId(i as u32);
            let name = get_str(buf)?;
            let kind = match get_u8(buf)? {
                0 => ClassKind::Base,
                1 => ClassKind::Virtual(get_derivation(buf)?),
                t => return Err(ModelError::Storage(tse_storage::StorageError::Corrupt(
                    format!("unknown class kind {t}"),
                ))),
            };
            let mut cls = Class::new(id, name, kind);
            let n_locals = get_u32(buf)? as usize;
            for _ in 0..n_locals {
                let lp = get_local_prop(buf)?;
                prop_home.insert(lp.def.key, id);
                cls.locals.push(lp);
            }
            let n_supers = get_u32(buf)? as usize;
            for _ in 0..n_supers {
                cls.supers.push(ClassId(get_u32(buf)?));
            }
            let n_layout = get_u32(buf)? as usize;
            for _ in 0..n_layout {
                cls.stored_layout.push(PropKey(get_u64(buf)?));
            }
            let n_refs = get_u32(buf)? as usize;
            for _ in 0..n_refs {
                cls.extra_refs.push((ClassId(get_u32(buf)?), PropKey(get_u64(buf)?)));
            }
            cls.segment = match get_u8(buf)? {
                0 => None,
                _ => Some(tse_storage::SegmentId(get_u32(buf)?)),
            };
            cls.constraint = match get_u8(buf)? {
                0 => None,
                _ => {
                    constraint_count += 1;
                    Some(crate::codec::get_pred(buf)?)
                }
            };
            by_name.insert(Arc::from(cls.name.as_str()), id);
            classes.push(cls);
        }
        let next_prop_key = get_u64(buf)?;
        // Rebuild the sub lists from the supers lists.
        let mut subs: Vec<Vec<ClassId>> = vec![Vec::new(); classes.len()];
        for cls in &classes {
            for sup in &cls.supers {
                let idx = sup.0 as usize;
                if idx >= classes.len() {
                    return Err(ModelError::UnknownClass(*sup));
                }
                subs[idx].push(cls.id);
            }
        }
        for (cls, sub_list) in classes.iter_mut().zip(subs) {
            cls.subs = sub_list;
        }
        // And the derived lists from the derivations, in creation order.
        for idx in 0..classes.len() {
            for src in classes[idx].sources() {
                let source = classes.get_mut(src.0 as usize).ok_or(ModelError::UnknownClass(src))?;
                source.derived.push(ClassId(idx as u32));
            }
        }
        Ok(Schema {
            classes: Arc::new(classes.into_iter().map(Arc::new).collect()),
            by_name: Arc::new(by_name),
            root: ClassId(0),
            next_prop_key,
            prop_home: Arc::new(prop_home),
            constraint_count,
            facts: RwLock::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueType};

    fn stored(name: &str) -> PendingProp {
        PropertyDef::stored(name, ValueType::Int, Value::Int(0))
    }

    /// Person <- Student <- TA (chain), Person has name, Student gpa, TA lecture.
    fn chain() -> (Schema, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student]).unwrap();
        s.add_local_prop(person, stored("name"), None).unwrap();
        s.add_local_prop(student, stored("gpa"), None).unwrap();
        s.add_local_prop(ta, stored("lecture"), None).unwrap();
        (s, person, student, ta)
    }

    #[test]
    fn root_exists_and_new_classes_attach_under_it() {
        let (s, person, _, _) = chain();
        assert_eq!(s.by_name(ROOT_CLASS).unwrap(), s.root());
        assert!(s.is_sub_of(person, s.root()));
    }

    #[test]
    fn inheritance_accumulates_down_the_chain() {
        let (s, person, student, ta) = chain();
        assert_eq!(s.resolved_type(person).unwrap().len(), 1);
        assert_eq!(s.resolved_type(student).unwrap().len(), 2);
        let ta_type = s.resolved_type(ta).unwrap();
        assert_eq!(ta_type.len(), 3);
        assert!(ta_type.contains_name("name"));
        assert!(ta_type.contains_name("gpa"));
        assert!(ta_type.contains_name("lecture"));
    }

    #[test]
    fn local_overrides_inherited() {
        let (mut s, _, student, ta) = chain();
        // Student overrides name.
        let override_key = s.add_local_prop(student, stored("name"), None);
        // Student already inherits "name" but does not *locally* define it,
        // so adding a local with that name is allowed (override).
        let override_key = override_key.unwrap();
        let ta_type = s.resolved_type(ta).unwrap();
        let cand = ta_type.get_unique(ta, "name").unwrap();
        assert_eq!(cand.key, override_key);
        assert_eq!(cand.def_class, student);
    }

    #[test]
    fn duplicate_local_name_rejected() {
        let (mut s, person, _, _) = chain();
        assert!(matches!(
            s.add_local_prop(person, stored("name"), None),
            Err(ModelError::PropertyExists { .. })
        ));
    }

    #[test]
    fn multiple_inheritance_creates_ambiguity() {
        let mut s = Schema::new();
        let a = s.create_base_class("A", &[]).unwrap();
        let b = s.create_base_class("B", &[]).unwrap();
        let c = s.create_base_class("C", &[a, b]).unwrap();
        s.add_local_prop(a, stored("x"), None).unwrap();
        s.add_local_prop(b, stored("x"), None).unwrap();
        let t = s.resolved_type(c).unwrap();
        assert!(t.props["x"].is_ambiguous());
        assert!(matches!(
            t.get_unique(c, "x"),
            Err(ModelError::AmbiguousProperty { .. })
        ));
    }

    #[test]
    fn diamond_inheritance_of_one_def_is_not_ambiguous() {
        let mut s = Schema::new();
        let top = s.create_base_class("Top", &[]).unwrap();
        let l = s.create_base_class("L", &[top]).unwrap();
        let r = s.create_base_class("R", &[top]).unwrap();
        let bottom = s.create_base_class("Bottom", &[l, r]).unwrap();
        s.add_local_prop(top, stored("x"), None).unwrap();
        let t = s.resolved_type(bottom).unwrap();
        assert!(!t.props["x"].is_ambiguous(), "same key via two paths dedups");
    }

    #[test]
    fn promotion_moves_definition_and_priority_rule_applies() {
        let mut s = Schema::new();
        let student = s.create_base_class("Student", &[]).unwrap();
        s.add_local_prop(student, stored("register"), None).unwrap();
        // Create the hide-superclass (as the classifier would) and promote.
        let hidden = s.create_base_class("StudentPrime", &[]).unwrap();
        s.add_edge(hidden, student).unwrap();
        let key = s.promote_prop(student, "register", hidden).unwrap();
        // Definition now lives at hidden, Student inherits it.
        assert!(s.class(student).unwrap().local("register").is_none());
        let (holder, _) = s.def_by_key(key).unwrap();
        assert_eq!(holder, hidden);
        let t = s.resolved_type(student).unwrap();
        assert_eq!(t.get_unique(student, "register").unwrap().key, key);

        // A conflicting same-named prop inherited from another superclass
        // loses against the promoted definition at Student.
        let other = s.create_base_class("Other", &[]).unwrap();
        s.add_local_prop(other, stored("register"), None).unwrap();
        s.add_edge(other, student).unwrap();
        let t = s.resolved_type(student).unwrap();
        let cand = t.get_unique(student, "register").unwrap();
        assert_eq!(cand.key, key, "promoted definition wins at its origin class");
        assert_eq!(cand.promoted_from, Some(student));
    }

    #[test]
    fn promotion_keeps_storage_capability_at_origin() {
        let mut s = Schema::new();
        let c = s.create_base_class("C", &[]).unwrap();
        let key = s.add_local_prop(c, stored("x"), None).unwrap();
        let up = s.create_base_class("Up", &[]).unwrap();
        s.add_edge(up, c).unwrap();
        s.promote_prop(c, "x", up).unwrap();
        assert!(s.class(c).unwrap().stored_layout().contains(&key));
        assert!(!s.class(up).unwrap().stored_layout().contains(&key));
    }

    #[test]
    fn cycle_detection_rejects_back_edges_and_self_edges() {
        let (mut s, person, _, ta) = chain();
        assert!(matches!(
            s.add_edge(ta, person),
            Err(ModelError::CycleDetected { .. })
        ));
        assert!(matches!(s.add_edge(person, person), Err(ModelError::CycleDetected { .. })));
    }

    #[test]
    fn duplicate_edge_is_idempotent() {
        let (mut s, person, student, _) = chain();
        s.add_edge(person, student).unwrap();
        assert_eq!(
            s.class(student).unwrap().direct_supers().iter().filter(|c| **c == person).count(),
            1
        );
    }

    #[test]
    fn remove_edge_works_and_errors_on_missing() {
        let (mut s, person, student, _) = chain();
        s.remove_edge(person, student).unwrap();
        assert!(!s.is_sub_of(student, person));
        assert!(matches!(
            s.remove_edge(person, student),
            Err(ModelError::UnknownEdge { .. })
        ));
    }

    #[test]
    fn up_distance_measures_slice_hops() {
        let (s, person, student, ta) = chain();
        assert_eq!(s.up_distance(ta, ta), Some(0));
        assert_eq!(s.up_distance(ta, student), Some(1));
        assert_eq!(s.up_distance(ta, person), Some(2));
        assert_eq!(s.up_distance(person, ta), None);
    }

    #[test]
    fn fresh_name_primes_then_numbers() {
        let (s, _, _, _) = chain();
        assert_eq!(s.fresh_name("Student"), "Student'");
        assert_eq!(s.fresh_name("Unseen"), "Unseen");
    }

    #[test]
    fn rename_class_updates_index() {
        let (mut s, person, _, _) = chain();
        s.rename_class(person, "Human").unwrap();
        assert_eq!(s.by_name("Human").unwrap(), person);
        assert!(s.by_name("Person").is_err());
        assert!(s.rename_class(person, "Student").is_err());
    }

    #[test]
    fn retired_prefix_is_reserved() {
        let (mut s, person, _, _) = chain();
        let live = s.live_class_count();
        assert!(matches!(
            s.create_base_class("__retired_x", &[]),
            Err(ModelError::Invalid(_))
        ));
        let d = Derivation::Hide { src: person, hidden: vec![] };
        assert!(matches!(s.create_virtual_class("__retired_7", d), Err(ModelError::Invalid(_))));
        assert!(matches!(s.rename_class(person, "__retired_1"), Err(ModelError::Invalid(_))));
        assert_eq!(s.by_name("Person").unwrap(), person, "a refused rename changes nothing");
        assert!(!s.is_retired(person));
        assert_eq!(s.live_class_count(), live);
    }

    #[test]
    fn rename_prop_disambiguates() {
        let mut s = Schema::new();
        let a = s.create_base_class("A", &[]).unwrap();
        let b = s.create_base_class("B", &[]).unwrap();
        let c = s.create_base_class("C", &[a, b]).unwrap();
        s.add_local_prop(a, stored("x"), None).unwrap();
        s.add_local_prop(b, stored("x"), None).unwrap();
        s.rename_local_prop(a, "x", "x_from_a").unwrap();
        let t = s.resolved_type(c).unwrap();
        assert!(t.get_unique(c, "x").is_ok());
        assert!(t.get_unique(c, "x_from_a").is_ok());
    }

    /// Every class's resolved type and (memoised through a stand-in rule)
    /// intent type, to be compared by pointer after a mutation: a surviving
    /// entry hands the same `Arc` out again, a dropped one is rebuilt.
    type Facts = (Arc<ResolvedType>, Arc<[PropKey]>);
    fn facts(s: &Schema) -> BTreeMap<ClassId, Facts> {
        s.class_ids()
            .map(|c| {
                let intent = s.intent_type_with(c, || Ok(Arc::from([]))).unwrap();
                (c, (s.resolved_type(c).unwrap(), intent))
            })
            .collect()
    }

    /// The classes whose resolved type or intent type was rebuilt between
    /// `before` and now.
    fn died(s: &Schema, before: &BTreeMap<ClassId, Facts>) -> BTreeSet<ClassId> {
        let after = facts(s);
        before
            .iter()
            .filter(|(c, (resolved, intent))| {
                !Arc::ptr_eq(resolved, &after[c].0) || !Arc::ptr_eq(intent, &after[c].1)
            })
            .map(|(c, _)| *c)
            .collect()
    }

    #[test]
    fn facts_die_along_the_lineage_that_changed_and_nowhere_else() {
        let (mut s, person, student, ta) = chain();
        let gpa = s.class(student).unwrap().local("gpa").unwrap().def.key;
        let staff = s.create_base_class("Staff", &[person]).unwrap();
        // An unrelated family.
        let car = s.create_base_class("Car", &[]).unwrap();
        let jeep = s.create_base_class("Jeep", &[car]).unwrap();
        let lab = s.create_base_class("Lab", &[]).unwrap();
        // One class per operator over Student, unclassified: only the
        // derivation ties them to it.
        let pred = crate::predicate::Predicate::cmp("gpa", crate::method::BinOp::Ge, 3);
        let derive = |s: &mut Schema, name: &str, d| s.create_virtual_class(name, d).unwrap();
        let select = derive(&mut s, "Sel", Derivation::Select { src: student, pred });
        let refine = s.create_refine_class("Ref", student, vec![stored("x")], vec![]).unwrap();
        let differ = derive(&mut s, "Dif", Derivation::Difference { a: student, b: staff });
        let inter = derive(&mut s, "Int", Derivation::Intersect { a: staff, b: student });
        let hide = derive(&mut s, "Hid", Derivation::Hide { src: student, hidden: vec![] });
        let union = derive(&mut s, "Uni", Derivation::Union { a: staff, b: student });
        // A class of the other family including Student's `gpa` by reference.
        let includer = s.create_refine_class("Inc", lab, vec![], vec![(student, gpa)]).unwrap();
        let lineage = BTreeSet::from([student, ta, select, refine, differ, inter, hide, union]);

        // A new local property: the class, its descendants and everything
        // derived from it — for the intent type, hide and union too.
        let before = facts(&s);
        let invalidated = s.types_invalidated();
        s.add_local_prop(student, stored("year"), None).unwrap();
        assert_eq!(s.types_invalidated() - invalidated, lineage.len() as u64);
        assert_eq!(died(&s, &before), lineage);
        for c in [student, ta, select, refine, differ, inter] {
            assert!(s.resolved_type(c).unwrap().contains_name("year"), "{c}");
        }

        // A new edge: the lower end's lineage, and the other family's facts
        // survive it as they survived the property.
        let before = facts(&s);
        let resolved = s.types_resolved();
        s.add_edge(car, lab).unwrap();
        assert_eq!(died(&s, &before), BTreeSet::from([lab, includer]));
        assert_eq!(s.types_resolved() - resolved, 2);
        let before = facts(&s);
        s.add_edge(staff, ta).unwrap();
        assert_eq!(died(&s, &before), BTreeSet::from([ta]));
        assert!(Arc::ptr_eq(&before[&jeep].0, &s.resolved_type(jeep).unwrap()));

        // A definition that moves, is renamed or goes takes its includers
        // by reference along, wherever they sit.
        let mut with_includer = lineage.clone();
        with_includer.insert(includer);
        let before = facts(&s);
        s.rename_local_prop(student, "gpa", "grade").unwrap();
        assert_eq!(died(&s, &before), with_includer);
        assert!(s.resolved_type(includer).unwrap().contains_name("grade"));
        let before = facts(&s);
        let up = s.create_base_class("Up", &[]).unwrap();
        s.add_edge(up, student).unwrap();
        s.promote_prop(student, "grade", up).unwrap();
        assert!(died(&s, &before).is_superset(&with_includer));
        assert_eq!(s.resolved_type(includer).unwrap().props["grade"].candidates[0].def_class, up);
        let before = facts(&s);
        s.remove_local_prop(up, "grade").unwrap();
        assert!(died(&s, &before).is_superset(&with_includer));
        assert!(!s.resolved_type(includer).unwrap().contains_name("grade"));

        // What is no fact drops nothing.
        let before = facts(&s);
        s.rename_class(student, "Pupil").unwrap();
        s.set_class_constraint(student, None).unwrap();
        assert!(died(&s, &before).is_empty());
    }

    #[test]
    fn a_clone_carries_the_facts_and_each_side_drops_its_own() {
        let (mut s, person, student, ta) = chain();
        let warm = facts(&s);
        let mut fork = s.clone();
        let resolved = fork.types_resolved();
        assert!(died(&fork, &warm).is_empty(), "the clone starts warm");
        assert_eq!(fork.types_resolved(), resolved, "and resolves nothing again");

        fork.add_local_prop(student, stored("year"), None).unwrap();
        assert_eq!(died(&fork, &warm), BTreeSet::from([student, ta]));
        assert!(died(&s, &warm).is_empty(), "the original never saw the change");
        assert_eq!(s.resolved_type(ta).unwrap().len(), 3);
        assert_eq!(fork.resolved_type(ta).unwrap().len(), 4);

        // The checkpoint idiom: swapping the clone back in restores a cache
        // that never saw what the other side created.
        let v = fork.create_refine_class("V", ta, vec![stored("extra")], vec![]).unwrap();
        assert_eq!(fork.resolved_type(v).unwrap().len(), 5);
        let reissued = s.create_base_class("W", &[person]).unwrap();
        assert_eq!(reissued, v, "the same id, handed out again");
        assert_eq!(s.resolved_type(reissued).unwrap().len(), 1);
    }

    #[test]
    fn virtual_class_creation_validates_sources() {
        let mut s = Schema::new();
        let bad = Derivation::Union { a: ClassId(77), b: ClassId(78) };
        assert!(s.create_virtual_class("V", bad).is_err());
        let person = s.create_base_class("Person", &[]).unwrap();
        let d = Derivation::Hide { src: person, hidden: vec!["age".into()] };
        let v = s.create_virtual_class("AgelessPerson", d).unwrap();
        assert!(!s.class(v).unwrap().is_base());
        assert!(s.class(v).unwrap().direct_supers().is_empty(), "classifier wires edges");
    }
}
