//! The database: schema + objects under the object-slicing architecture.
//!
//! A *conceptual object* (one [`Oid`]) owns a set of *implementation
//! objects* — slices — one per class that provides storage for some of its
//! stored attributes. Slices live in per-class segments of the paged store,
//! which is exactly the clustering the paper's Table 1 analyses. Reading an
//! attribute through a class "perspective" may hop from the perspective's
//! slice to the slice of the defining class; those hops are counted.
//!
//! Extents:
//! * base-class extents are maintained from explicit membership
//!   (`direct` classes per object; membership of a class implies membership
//!   of all its superclasses);
//! * virtual-class extents are *derived* from the class's [`Derivation`],
//!   evaluated recursively from whatever the sources have cached; entries
//!   are invalidated by the mutations on their lineage, never by a schema
//!   change (see [`Database::extent`]).
//!
//! MVCC: the store already versions every record; this layer versions the
//! *membership map* the same way. Each object's direct-class set is a small
//! version chain stamped by the store's epoch clock, deletion is a
//! tombstone stamp, and every reader resolves the chain against the calling
//! thread's ambient read epoch ([`tse_storage::current_read_epoch`]), so a
//! pinned session sees one consistent object population no matter what
//! writers install concurrently. [`Database::fork_shared`] clones handles
//! instead of data, and [`Database::gc`] prunes what no pin can reach.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::num::NonZeroU64;
use std::slice::ChunksExact;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tse_storage::{
    current_read_epoch, current_write_stamp, FailpointRegistry, RecordId, SegmentId, SliceStore,
    StoreConfig, StoreStats, VersionChain, WriteStampGuard,
};

use crate::access::{check_write, Pass, Scope};
use crate::class::ClassKind;
use crate::derivation::Derivation;
use crate::error::{ModelError, ModelResult};
use crate::ids::{ClassId, Oid, PropKey};
use crate::predicate::Predicate;
use crate::property::PropKind;
use crate::schema::{AccessPlan, Schema};
use crate::value::Value;

/// A typed handle: an object viewed *as* an instance of a class. Casting in
/// the object-slicing architecture is "switching the representative
/// implementation object" — here, switching the perspective class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// The conceptual object.
    pub oid: Oid,
    /// The class perspective.
    pub class: ClassId,
}

/// A new object as [`Database::create_object`] checks it, before it joins
/// the object map: its base class and its initial stored values, each with
/// the plan it was checked against. Every stored attribute without an
/// initial value reads as its default.
#[derive(Clone, Copy)]
pub(crate) struct Unpublished<'a> {
    pub(crate) class: ClassId,
    pub(crate) values: &'a [(Arc<AccessPlan>, Value)],
}

impl Unpublished<'_> {
    pub(crate) fn value(&self, key: PropKey) -> Option<&Value> {
        self.values.iter().find(|(plan, _)| plan.key == key).map(|(_, v)| v)
    }
}

/// An object's most specific base classes: a small sorted set, almost
/// always of exactly one class, which is then held inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Classes {
    One(ClassId),
    /// Sorted and free of duplicates; never exactly one class.
    Many(Box<[ClassId]>),
}

impl Classes {
    pub(crate) fn as_slice(&self) -> &[ClassId] {
        match self {
            Classes::One(class) => std::slice::from_ref(class),
            Classes::Many(classes) => classes,
        }
    }

    fn contains(&self, class: ClassId) -> bool {
        self.as_slice().binary_search(&class).is_ok()
    }

    /// The set with each class of `classes` made a member (`member`) or not.
    fn edited(&self, classes: &[ClassId], member: bool) -> Classes {
        let kept = self.as_slice().iter().copied().filter(|c| member || !classes.contains(c));
        kept.chain(classes.iter().copied().filter(|_| member)).collect()
    }
}

impl FromIterator<ClassId> for Classes {
    fn from_iter<I: IntoIterator<Item = ClassId>>(iter: I) -> Self {
        let mut classes: Vec<ClassId> = iter.into_iter().collect();
        classes.sort_unstable();
        classes.dedup();
        match classes[..] {
            [one] => Classes::One(one),
            _ => Classes::Many(classes.into_boxed_slice()),
        }
    }
}

/// One conceptual object: its membership, its slices and where each of its
/// stored attributes lives. Kept flat: an object written once and never
/// reclassified holds no heap block but its one block of bindings.
#[derive(Debug, Clone)]
pub(crate) struct ObjectEntry {
    /// Versioned membership: the most specific base classes, stamped by the
    /// store's epoch clock. A reader resolves the newest version at or
    /// below its epoch — the rule the store applies to record chains, with
    /// the same chain type. Stamp 0 is the bootstrap stamp (restored
    /// objects), visible at every epoch.
    pub(crate) directs: VersionChain<Classes>,
    /// Deletion stamp, if the object has been destroyed (a delete is never
    /// stamped 0, the bootstrap stamp). The entry (and its tombstoned slice
    /// records) linger until [`Database::gc`] proves no pinned reader can
    /// still observe the object.
    pub(crate) dead: Option<NonZeroU64>,
    /// Implementation objects and attribute homes.
    bindings: Bindings,
}

impl ObjectEntry {
    fn new(stamp: u64, classes: Classes, bindings: Bindings) -> Self {
        ObjectEntry { directs: VersionChain::new(stamp, classes), dead: None, bindings }
    }

    /// Membership visible at `epoch` (`None` = latest). `None` for an
    /// object dead at the epoch or created after it.
    pub(crate) fn direct_at(&self, epoch: Option<u64>) -> Option<&Classes> {
        match (epoch, self.dead) {
            (None, Some(_)) => None,
            (Some(e), Some(dead)) if dead.get() <= e => None,
            _ => self.directs.at(epoch),
        }
    }

    /// Whether the object was deleted at or below `watermark`.
    fn dead_at(&self, watermark: u64) -> bool {
        self.dead.is_some_and(|dead| dead.get() <= watermark)
    }

    /// Install a membership edit stamped `stamp` that makes each class of
    /// `classes` a member (`member`) or not. In stamp order the edit is
    /// applied to the newest set and goes on top. A late edit (DESIGN.md
    /// §13, *Late writes*) is applied to the set visible at its stamp — the
    /// first set, for an object younger than the edit — and spliced in
    /// there; each class is then carried into every newer version, oldest
    /// first, until one of them changed that class itself. It is the rule of
    /// a late record write, with a class in place of a field.
    fn reclassify(&mut self, stamp: u64, classes: &[ClassId], member: bool) {
        let (below, newer) = self.directs.split_late(stamp);
        let base = below.or(newer.first().map(|set| &**set)).expect("a chain is never empty");
        let spliced = base.edited(classes, member);
        // Each class with its membership in the version below the next
        // newer one; `None` while there is no such version.
        let mut carried: Vec<(ClassId, Option<bool>)> =
            classes.iter().map(|&class| (class, below.map(|set| set.contains(class)))).collect();
        for set in newer {
            carried.retain_mut(|(class, below)| {
                let own = set.contains(*class);
                below.replace(own).is_none_or(|below| below == own)
            });
            if !carried.is_empty() {
                let classes: Vec<ClassId> = carried.iter().map(|(class, _)| *class).collect();
                *set = set.edited(&classes, member);
            }
        }
        self.directs.push(stamp, spliced);
    }

    /// The slice record of `class`, if materialized.
    pub(crate) fn slice(&self, class: ClassId) -> Option<RecordId> {
        self.bindings.slice(class)
    }

    /// The class whose slice stores `key`, if bound.
    pub(crate) fn home(&self, key: PropKey) -> Option<ClassId> {
        self.bindings.home(key)
    }
}

/// One binding of an object: a slice `[class, segment, slot]` or a home
/// `[key low, key high, home class]`.
type Binding = [u32; 3];

/// Words per [`Binding`].
const BINDING: usize = 3;

fn slice_binding(class: ClassId, rec: RecordId) -> Binding {
    [class.0, rec.segment.0, rec.slot]
}

fn home_binding(key: PropKey, home: ClassId) -> Binding {
    [key.0 as u32, (key.0 >> 32) as u32, home.0]
}

fn binding_record(binding: &[u32]) -> RecordId {
    RecordId { segment: tse_storage::SegmentId(binding[1]), slot: binding[2] }
}

fn binding_key(binding: &[u32]) -> PropKey {
    PropKey((u64::from(binding[1]) << 32) | u64::from(binding[0]))
}

/// The slice and the home bindings in a block's words, one
/// [`BINDING`]-word chunk each.
fn regions(words: &[u32]) -> (ChunksExact<'_, u32>, ChunksExact<'_, u32>) {
    let (slices, homes) = match words.split_first() {
        Some((&slices, rest)) => rest.split_at(BINDING * slices as usize),
        None => (&[][..], &[][..]),
    };
    (slices.chunks_exact(BINDING), homes.chunks_exact(BINDING))
}

/// The binding of a slice (`slice`) or home with `binding`'s key, binding
/// it at its sorted place first if there is none. `words` grows only if it
/// lacks room.
fn bind_in(words: &mut Vec<u32>, binding: Binding, slice: bool) -> Binding {
    let key = |b: &[u32]| if slice { u64::from(b[0]) } else { binding_key(b).0 };
    let (slices, homes) = regions(words);
    let (region, mut index) = if slice { (slices, 0) } else { (homes, slices.len()) };
    for bound in region {
        if key(bound) == key(&binding) {
            return bound.try_into().expect("a binding is BINDING words");
        }
        if key(bound) > key(&binding) {
            break;
        }
        index += 1;
    }
    if words.is_empty() {
        words.push(0);
    }
    let at = 1 + BINDING * index;
    words.extend_from_slice(&binding);
    words[at..].rotate_right(BINDING);
    words[0] += u32::from(slice);
    binding
}

/// An object's implementation objects and the homes of its stored
/// attributes, in one exact boxed block of `u32` words: the slice count,
/// then a `[class, segment, slot]` per slice sorted by class, then a
/// `[key low, key high, home class]` per attribute sorted by key. One
/// allocation per object (none for an object with neither), and a lookup
/// is a short scan of it.
///
/// Not versioned: bindings only grow (delete tombstones the records, not
/// the block), and a record invisible at a reader's epoch resolves to the
/// attribute default, which is exactly what the pre-binding state read as.
#[derive(Debug, Clone, Default)]
struct Bindings(Box<[u32]>);

impl Bindings {
    /// `(class, slice record)` for every slice, by class.
    fn slices(&self) -> impl ExactSizeIterator<Item = (ClassId, RecordId)> + '_ {
        regions(&self.0).0.map(|b| (ClassId(b[0]), binding_record(b)))
    }

    /// `(attribute, home class)` for every bound attribute, by key.
    fn homes(&self) -> impl ExactSizeIterator<Item = (PropKey, ClassId)> + '_ {
        regions(&self.0).1.map(|b| (binding_key(b), ClassId(b[2])))
    }

    /// Slices bound.
    fn slice_count(&self) -> usize {
        regions(&self.0).0.len()
    }

    fn slice(&self, class: ClassId) -> Option<RecordId> {
        regions(&self.0).0.find(|b| b[0] == class.0).map(binding_record)
    }

    fn home(&self, key: PropKey) -> Option<ClassId> {
        regions(&self.0).1.find(|b| binding_key(b) == key).map(|b| ClassId(b[2]))
    }

    /// The slice record bound to `class`, binding `rec` first if there is
    /// none.
    fn bind_slice(&mut self, class: ClassId, rec: RecordId) -> RecordId {
        match self.slice(class) {
            Some(bound) => bound,
            None => binding_record(&self.grow(slice_binding(class, rec), true)),
        }
    }

    /// The home bound to `key`, binding `home` first if there is none.
    fn bind_home(&mut self, key: PropKey, home: ClassId) -> ClassId {
        match self.home(key) {
            Some(bound) => bound,
            None => ClassId(self.grow(home_binding(key, home), false)[2]),
        }
    }

    /// Bind a new binding, reallocating the block to its exact new size.
    fn grow(&mut self, binding: Binding, slice: bool) -> Binding {
        let mut words = std::mem::take(&mut self.0).into_vec();
        words.reserve_exact(BINDING + usize::from(words.is_empty()));
        let bound = bind_in(&mut words, binding, slice);
        self.0 = words.into_boxed_slice();
        bound
    }

    /// Bytes the block holds for the slices (its count word included) and
    /// for the homes.
    fn resident_bytes(&self) -> (usize, usize) {
        let word = std::mem::size_of::<u32>();
        let home_bytes = regions(&self.0).1.len() * BINDING * word;
        (self.0.len() * word - home_bytes, home_bytes)
    }
}

/// Oid slots per chunk of the object table: one occupancy bit each.
const TABLE_CHUNK: usize = u64::BITS as usize;

/// The entries of [`TABLE_CHUNK`] consecutive oids: an occupancy word and
/// the entries of the occupied slots, in slot order. An entry's index is
/// the number of occupied slots below it.
#[derive(Debug, Default)]
struct Chunk {
    occupied: u64,
    entries: Vec<ObjectEntry>,
}

impl Chunk {
    /// The index in `entries` of slot `at`, if it is occupied.
    fn index(&self, at: usize) -> Option<usize> {
        let below = self.occupied & ((1 << at) - 1);
        ((self.occupied >> at) & 1 == 1).then_some(below.count_ones() as usize)
    }

    /// The occupied slots, ascending.
    fn slots(&self) -> impl Iterator<Item = usize> {
        let mut word = self.occupied;
        std::iter::from_fn(move || {
            let at = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(at)
        })
    }
}

/// The object map: entries indexed by oid, in chunks of [`TABLE_CHUNK`]
/// oids that hold only their occupied slots. A lookup is an index and a
/// popcount. Memory follows the live entries, plus one small chunk header
/// per [`TABLE_CHUNK`] oids ever handed out, so a table GC has thinned out
/// costs about what a tree of its survivors would. A vacant slot is an oid
/// that was never created (a gap a restored snapshot left) or that GC
/// reclaimed — an oid is never handed out twice.
#[derive(Debug, Default)]
pub(crate) struct ObjectTable {
    chunks: Vec<Chunk>,
}

impl ObjectTable {
    fn position(oid: Oid) -> (usize, usize) {
        let index = oid.0 as usize;
        (index / TABLE_CHUNK, index % TABLE_CHUNK)
    }

    pub(crate) fn get(&self, oid: Oid) -> Option<&ObjectEntry> {
        let (chunk, at) = Self::position(oid);
        let chunk = self.chunks.get(chunk)?;
        Some(&chunk.entries[chunk.index(at)?])
    }

    pub(crate) fn get_mut(&mut self, oid: Oid) -> Option<&mut ObjectEntry> {
        let (chunk, at) = Self::position(oid);
        let chunk = self.chunks.get_mut(chunk)?;
        let index = chunk.index(at)?;
        Some(&mut chunk.entries[index])
    }

    /// Occupy `oid`'s slot, which must be vacant.
    fn insert(&mut self, oid: Oid, entry: ObjectEntry) {
        let (chunk, at) = Self::position(oid);
        if self.chunks.len() <= chunk {
            self.chunks.resize_with(chunk + 1, Chunk::default);
        }
        let chunk = &mut self.chunks[chunk];
        debug_assert!(chunk.index(at).is_none(), "oid {oid} created twice");
        chunk.occupied |= 1 << at;
        let index = chunk.index(at).expect("just occupied");
        chunk.entries.insert(index, entry);
    }

    /// Every entry with its oid, in ascending oid order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &ObjectEntry)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let oids = chunk.slots().map(move |at| Oid((c * TABLE_CHUNK + at) as u64));
            oids.zip(&chunk.entries)
        })
    }

    /// Keep the entries `keep` says to, vacating the others' slots and
    /// giving back the room they took.
    fn retain(&mut self, mut keep: impl FnMut(&mut ObjectEntry) -> bool) {
        for chunk in &mut self.chunks {
            let mut slots = chunk.slots();
            let mut kept = 0u64;
            chunk.entries.retain_mut(|entry| {
                let at = slots.next().expect("one entry per occupied slot");
                let stays = keep(entry);
                kept |= u64::from(stays) << at;
                stays
            });
            if kept != chunk.occupied {
                chunk.occupied = kept;
                chunk.entries.shrink_to_fit();
            }
        }
    }

    /// Entries held, dead ones awaiting GC included.
    fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.entries.len()).sum()
    }

    /// Bytes the table holds: the chunk headers and the entries' room.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.chunks.capacity() * size_of::<Chunk>()
            + self.chunks.iter().map(|c| c.entries.capacity()).sum::<usize>()
                * size_of::<ObjectEntry>()
    }
}

/// A mutation clock for one kind of state cached extents are derived from
/// (object membership, attribute values).
///
/// `gen` moves when a mutation *begins* and again when it *ends*, so a
/// reader that finds the same value before and after computing an extent
/// knows no mutation started or finished in between, and an extent built
/// while a mutation was half-applied stops being served the moment the rest
/// of it lands. `stamp` is the newest MVCC write stamp a mutation began
/// under; it is raised *before* `gen`, so a reader that observes the bump
/// also observes the stamp.
#[derive(Debug, Default)]
pub(crate) struct MutationClock {
    gen: AtomicU64,
    stamp: AtomicU64,
}

impl MutationClock {
    /// Open a mutation installing under write stamp `stamp`; dropping the
    /// guard closes it.
    pub(crate) fn begin(&self, stamp: u64) -> Mutation<'_> {
        self.stamp.fetch_max(stamp, Ordering::AcqRel);
        self.gen.fetch_add(1, Ordering::AcqRel);
        Mutation(self)
    }

    /// `(gen, stamp)`, read in the order that pairs with [`Self::begin`].
    fn now(&self) -> (u64, u64) {
        let gen = self.gen.load(Ordering::Acquire);
        (gen, self.stamp.load(Ordering::Acquire))
    }
}

/// A fork starts at the original's position: the two handles describe the
/// same contents, so entries cached under one clock are valid under the
/// other.
impl Clone for MutationClock {
    fn clone(&self) -> Self {
        let (gen, stamp) = self.now();
        MutationClock { gen: AtomicU64::new(gen), stamp: AtomicU64::new(stamp) }
    }
}

/// An open mutation (see [`MutationClock::begin`]).
pub(crate) struct Mutation<'a>(&'a MutationClock);

impl Drop for Mutation<'_> {
    fn drop(&mut self) {
        self.0.gen.fetch_add(1, Ordering::AcqRel);
    }
}

/// What one extent read resolves against: the reader's epoch and both
/// mutation clocks as observed before the read touched any data.
#[derive(Clone, Copy)]
struct ReadPoint {
    epoch: Option<u64>,
    mem_gen: u64,
    mem_stamp: u64,
    val_gen: u64,
    val_stamp: u64,
}

impl ReadPoint {
    /// The newest mutation stamp an extent computed now reflects.
    fn stamp_for(&self, value_sensitive: bool) -> u64 {
        if value_sensitive {
            self.mem_stamp.max(self.val_stamp)
        } else {
            self.mem_stamp
        }
    }

    /// The reader's epoch, if it is pinned before `stamp` and so misses
    /// that mutation. Unpinned readers see everything installed.
    fn pinned_before(&self, stamp: u64) -> Option<u64> {
        self.epoch.filter(|e| *e < stamp)
    }
}

/// One cached extent: the generations it was computed at and the MVCC
/// stamp of the last mutation it reflects. Base-class extents depend only
/// on membership; `Select`-derived extents also read attribute values, so
/// they carry `value_sensitive` and are additionally invalidated by value
/// writes. The generations say whether the entry is still current; the
/// stamp says which readers are new enough to share it: every reader
/// pinned at or after it, and every unpinned one. A class's entry holds a
/// set; an ad-hoc select's holds its answer as the list it returns.
#[derive(Clone)]
struct CachedExtent<E = Arc<BTreeSet<Oid>>> {
    mem_gen: u64,
    val_gen: u64,
    value_sensitive: bool,
    stamp: u64,
    extent: E,
}

impl<E> CachedExtent<E> {
    fn serves(&self, at: &ReadPoint) -> bool {
        !self.is_dead(at) && at.pinned_before(self.stamp).is_none()
    }

    /// A generation it depends on moved: it can never serve again.
    fn is_dead(&self, now: &ReadPoint) -> bool {
        self.mem_gen != now.mem_gen || (self.value_sensitive && self.val_gen != now.val_gen)
    }
}

/// One ad-hoc select's answer (see [`Database::select`]): `Select { class,
/// pred }` without a class to name it, cached under a class entry's rule.
/// `Predicate` is not `Eq` (float constants), so the entry keeps its
/// predicate and a hit compares it; a `NaN` constant never hits.
#[derive(Clone)]
struct CachedSelect {
    class: ClassId,
    pred: Predicate,
    /// Insertion order: the oldest entry is evicted first.
    seq: u64,
    found: CachedExtent<Arc<[Oid]>>,
}

/// Hard bound on current class entries (there is at most one per class;
/// the map is cleared when a schema outgrows it rather than tracking
/// eviction), and separately on ad-hoc select entries (oldest evicted
/// first), so a stream of distinct selects never evicts a class's extent.
const EXTENT_CACHE_CAP: usize = 1024;

/// Extents kept for readers pinned before the last mutation.
const OLD_EPOCH_ENTRIES: usize = 8;

/// The extent cache: one current entry per class, shared by every reader
/// that already sees the last mutation the entry reflects, plus a short
/// FIFO of extents requested at older pinned epochs. What a pinned epoch
/// sees never changes, so the old-epoch entries need no invalidation;
/// they only age out.
///
/// No schema change invalidates an entry: classes are append-only and a
/// class's derivation never changes; a new class has none, and its first
/// read derives from its sources' entries.
///
/// Ad-hoc selects live beside the class entries, keyed by a hash of
/// (source class, predicate), and serve readers by the same rule.
#[derive(Clone, Default)]
struct ExtentCache {
    current: HashMap<ClassId, CachedExtent>,
    old_epochs: VecDeque<(ClassId, u64, Arc<BTreeSet<Oid>>)>,
    selects: HashMap<u64, CachedSelect>,
    next_seq: u64,
}

impl ExtentCache {
    /// The current entry of `class` (extent, value-sensitive), if it
    /// serves a reader at `at`.
    fn current_for(&self, class: ClassId, at: &ReadPoint) -> Option<(Arc<BTreeSet<Oid>>, bool)> {
        let entry = self.current.get(&class)?;
        entry.serves(at).then(|| (Arc::clone(&entry.extent), entry.value_sensitive))
    }

    /// The extent kept for `class` at the reader's own pinned epoch, if any.
    fn at_old_epoch(&self, class: ClassId, at: &ReadPoint) -> Option<Arc<BTreeSet<Oid>>> {
        let epoch = at.epoch?;
        let (_, _, extent) = self.old_epochs.iter().find(|(c, e, _)| *c == class && *e == epoch)?;
        Some(Arc::clone(extent))
    }

    /// The cached answer of `select from class where pred` under `key`, if
    /// it serves a reader at `at`.
    fn select_for(
        &self,
        key: u64,
        class: ClassId,
        pred: &Predicate,
        at: &ReadPoint,
    ) -> Option<Arc<[Oid]>> {
        let entry = self.selects.get(&key)?;
        (entry.class == class && entry.pred == *pred && entry.found.serves(at))
            .then(|| Arc::clone(&entry.found.extent))
    }

    /// Keep an ad-hoc select's answer. A new key first drops the entries no
    /// reader can be served again (`now` is past their generations), then
    /// the oldest while the bound is reached.
    fn keep_select(
        &mut self,
        key: u64,
        (class, pred): (ClassId, Predicate),
        found: CachedExtent<Arc<[Oid]>>,
        now: &ReadPoint,
    ) {
        if !self.selects.contains_key(&key) && self.selects.len() >= EXTENT_CACHE_CAP {
            self.selects.retain(|_, e| !e.found.is_dead(now));
            if self.selects.len() >= EXTENT_CACHE_CAP {
                let oldest = self.selects.iter().min_by_key(|(_, e)| e.seq).map(|(k, _)| *k);
                self.selects.remove(&oldest.expect("the map is full"));
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.selects.insert(key, CachedSelect { class, pred, seq, found });
    }
}

/// The key of an ad-hoc select: a hash of (source class, predicate). Two
/// selects that collide only evict each other.
fn select_key(class: ClassId, pred: &Predicate) -> u64 {
    let mut hasher = DefaultHasher::new();
    (class, pred).hash(&mut hasher);
    hasher.finish()
}

/// Work done by one [`Database::extent`] call: what it computed (class →
/// extent, value-sensitive) and the counts for the `extent.*` metrics.
#[derive(Default)]
struct Rebuild {
    memo: HashMap<ClassId, (Arc<BTreeSet<Oid>>, bool)>,
    hits: u64,
    built: u64,
}

/// Bytes the objects of a database hold in memory, by owner (see
/// [`Database::resident_bytes`]). Each counts what its containers have
/// reserved, not only what they use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// The object table: one inline entry per object (membership head and
    /// spill pointer, deletion stamp, the bindings block's pointer) and its
    /// chunk headers.
    pub object_table: usize,
    /// Spilled membership versions and the class sets of objects in more
    /// than one base class.
    pub membership: usize,
    /// The slice part of each object's bindings block: its count word and
    /// a `(class, segment, slot)` per slice.
    pub slices: usize,
    /// The home part of each object's bindings block: an `(attribute,
    /// home class)` per bound attribute.
    pub home_of: usize,
    /// The store's slot tables and spilled record versions.
    pub record_chains: usize,
    /// The boxed fields of every record version.
    pub fields: usize,
}

/// Aggregate slicing statistics (Table 1 rows for the slicing column).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicingStats {
    /// Conceptual objects.
    pub objects: u64,
    /// Implementation objects (slices) across all objects.
    pub implementation_objects: u64,
    /// Object identifiers: `Σ (1 + N_impl)` per the paper.
    pub oids: u64,
    /// Managerial storage: `(1+N_impl)·sizeof(oid) + N_impl·2·sizeof(ptr)`.
    pub managerial_bytes: u64,
    /// Attribute-access slice hops since the last reset.
    pub slice_hops: u64,
    /// Classes in the global schema.
    pub classes: u64,
}

/// The object database (slicing backend).
///
/// Data-plane mutation (`create_object`, `write_attr`, membership changes)
/// takes `&self`: the object map sits behind its own `RwLock`, record
/// storage behind the store's per-segment lock stripes, and the generation
/// counters are atomics. Schema mutation (`schema_mut`, evolution) still
/// requires `&mut self`, which is what the control plane's exclusive lock
/// provides.
pub struct Database {
    pub(crate) schema: Schema,
    pub(crate) store: SliceStore<Value>,
    /// Shared with every [`Database::fork_shared`] handle — the map itself
    /// is MVCC (versioned entries), so sharing it is what makes the fork
    /// copy-free.
    pub(crate) objects: Arc<RwLock<ObjectTable>>,
    next_oid: AtomicU64,
    /// Membership mutations (create/delete/add/remove): every cached
    /// extent depends on these.
    membership: MutationClock,
    /// Attribute-value writes: only value-sensitive (`Select`-derived)
    /// cached extents depend on these.
    pub(crate) values: MutationClock,
    /// Segments assigned to classes lazily *after* the schema was last
    /// mutated via `&mut` (data-plane slice creation can't touch the
    /// copy-on-write `Class` records). Resolved by [`Database::segment_of`];
    /// merged into the schema clone used for snapshots. Shared with
    /// `fork_shared` handles, like the object map.
    late_segments: Arc<RwLock<BTreeMap<ClassId, SegmentId>>>,
    extent_cache: Mutex<ExtentCache>,
    pub(crate) slice_hops: AtomicU64,
    /// Telemetry domain shared by every layer operating on this database
    /// (classifier, view manager, TSE system) — one coherent journal per DB.
    telemetry: tse_telemetry::Telemetry,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("classes", &self.schema.class_count())
            .field("objects", &self.objects.read().len())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl Database {
    /// Create an empty database.
    pub fn new(config: StoreConfig) -> Self {
        let telemetry = tse_telemetry::Telemetry::new();
        let mut store = SliceStore::new(config);
        store.set_telemetry(telemetry.clone());
        register_extent_metrics(&telemetry);
        Database {
            schema: Schema::new(),
            store,
            objects: Arc::new(RwLock::new(ObjectTable::default())),
            next_oid: AtomicU64::new(1),
            membership: MutationClock::default(),
            values: MutationClock::default(),
            late_segments: Arc::new(RwLock::new(BTreeMap::new())),
            extent_cache: Mutex::new(ExtentCache::default()),
            slice_hops: AtomicU64::new(0),
            telemetry,
        }
    }

    /// This database's telemetry domain (spans, counters, journal). The
    /// handle is cheap to clone; all layers above record into it.
    pub fn telemetry(&self) -> &tse_telemetry::Telemetry {
        &self.telemetry
    }

    /// Publish the store's cumulative access counters into the telemetry
    /// registry under `store.*` (page touches, hit ratio, …), and next to
    /// them what the schema's fact cache did: `schema.types_resolved`
    /// (class types resolved, i.e. cache misses) and
    /// `schema.types_invalidated` (entries dropped by schema mutations).
    pub fn publish_store_stats(&self) {
        self.store.stats().publish(&self.telemetry, "store");
        self.telemetry.set_gauge("schema.types_resolved", self.schema.types_resolved());
        self.telemetry.set_gauge("schema.types_invalidated", self.schema.types_invalidated());
    }

    /// Read access to the global schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the global schema (classifier / algebra layers).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Read access to the underlying store (bench counters).
    pub fn store(&self) -> &SliceStore<Value> {
        &self.store
    }

    /// Store access counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The fault-injection registry shared by this database's store (site
    /// `storage.insert`) and consulted by the evolution pipeline above.
    pub fn failpoints(&self) -> &FailpointRegistry {
        self.store.failpoints()
    }

    /// Share one registry between this database, the durable layer, and
    /// the evolution pipeline of one system.
    pub fn set_failpoints(&mut self, failpoints: FailpointRegistry) {
        self.store.set_failpoints(failpoints);
    }

    /// A **copy-free** fork: a second handle onto the *same* store
    /// contents, object map, and late-segment overlay, sharing the
    /// original's epoch clock. The schema is still cloned (pointer copies,
    /// copy-on-write, its fact cache riding along — the fork knows every
    /// class the original knew): an evolution mutates the fork's schema
    /// privately and the swap-in publishes it. A schema change adds
    /// capacity and moves no data, so it writes nothing to the shared store
    /// or object map, and a failed change is undone by dropping the fork.
    ///
    /// Cost is a handful of `Arc` clones regardless of data volume. The
    /// caller must quiesce data-plane writers (the
    /// `SharedSystem` swap latch does) for the fork's lifetime — the
    /// handles are shared, so concurrent writers through both would
    /// interleave.
    ///
    /// The fork starts with a copy of the extent cache's entry map (the
    /// extents themselves are `Arc`-shared) and with the mutation clocks at
    /// the original's position: both handles read the same objects, so
    /// every extent cached for one is valid for the other, and a swapped-in
    /// fork inherits them all. It is a copy and not the same map so that
    /// what a failed evolution cached for classes it created dies with the
    /// fork — their ids are handed out again.
    pub fn fork_shared(&self) -> Database {
        Database {
            schema: self.schema.clone(),
            store: self.store.fork_shared(),
            objects: Arc::clone(&self.objects),
            next_oid: AtomicU64::new(self.next_oid.load(Ordering::Acquire)),
            membership: self.membership.clone(),
            values: self.values.clone(),
            late_segments: Arc::clone(&self.late_segments),
            extent_cache: Mutex::new(self.extent_cache.lock().clone()),
            slice_hops: AtomicU64::new(self.slice_hops.load(Ordering::Relaxed)),
            telemetry: self.telemetry.clone(),
        }
    }

    /// The write stamp for a mutation: the ambient batch stamp when a
    /// `WriteStampGuard` is active (sessions, evolutions), else a fresh
    /// solo stamp from the store's clock.
    pub(crate) fn write_stamp(&self) -> u64 {
        current_write_stamp().unwrap_or_else(|| self.store.clock().solo_stamp())
    }

    // ----- object lifecycle ------------------------------------------------

    /// Force the next [`Database::create_object`] to assign exactly
    /// `oid`. **Replay only**: WAL recovery uses this to make re-executed
    /// `Create` frames hand out the same oids the original run acked.
    /// Never call it while other writers are live — a forced counter can
    /// collide with an existing object.
    pub fn set_next_oid(&self, oid: u64) {
        self.next_oid.store(oid, Ordering::Release);
    }

    /// Raise the oid counter to at least `min` (replay epilogue: after
    /// forcing individual oids, restore monotonicity past everything seen).
    pub fn ensure_next_oid(&self, min: u64) {
        self.next_oid.fetch_max(min, Ordering::AcqRel);
    }

    /// Create an object as a member of a *base* class, with initial
    /// attribute values by name. Unspecified stored attributes take their
    /// defaults; REQUIRED attributes must end up non-null.
    ///
    /// The object is checked — homes of its values, required attributes,
    /// class constraints — on its complete initial values *before* it joins
    /// the object map, and each slice record is inserted holding its
    /// initial values as one version, under the same write stamp as the
    /// membership. No writer can see, match or modify a half-created
    /// object, and a refused create publishes nothing.
    ///
    /// `values` is borrowed (a slice, or a filter over one): each value is
    /// cloned once, into the slice of its home. A value refused by its
    /// definition spends no oid.
    pub fn create_object<'v, 'n: 'v>(
        &self,
        class: ClassId,
        values: impl IntoIterator<Item = &'v (&'n str, Value)>,
    ) -> ModelResult<Oid> {
        if !self.schema.class(class)?.is_base() {
            return Err(ModelError::NotABaseClass(class));
        }
        // The initial values, each with the plan of its name at the class —
        // a base class knows every name it has — which it is checked
        // against and written by. A name given twice keeps its last value.
        let values = values.into_iter();
        let mut initial: Vec<(Arc<AccessPlan>, Value)> =
            Vec::with_capacity(values.size_hint().1.unwrap_or_default());
        for (name, value) in values {
            let plan = self.schema.access_plan(class, name)?;
            check_write(&plan, name, value)?;
            match initial.iter_mut().find(|(given, _)| given.key == plan.key) {
                Some((_, old)) => *old = value.clone(),
                None => initial.push((plan, value.clone())),
            }
        }
        let oid = Oid(self.next_oid.fetch_add(1, Ordering::AcqRel));
        let object = Unpublished { class, values: &initial };
        let mut home_of = Vec::with_capacity(initial.len());
        for (plan, _) in &initial {
            home_of.push((plan.key, self.choose_home(oid, class, plan, Some(object))?));
        }
        // Required-attribute check (explicit values, else defaults).
        for &key in self.schema.required_keys(class)?.iter() {
            if object.value(key).is_none_or(|value| *value == Value::Null) {
                return Err(ModelError::TypeMismatch {
                    name: self.schema.def_by_key(key)?.1.name.clone(),
                    expected: "non-null (REQUIRED)".into(),
                    got: "null".into(),
                });
            }
        }
        // Class constraints ("the class predicate is checked", §3.3).
        self.check_constraints_of(oid, Some(object))?;

        let stamp = self.write_stamp();
        let bindings = self.insert_slices(initial, home_of, stamp)?;
        let entry = ObjectEntry::new(stamp, Classes::One(class), bindings);
        let _mutation = self.membership.begin(stamp);
        self.objects.write().insert(oid, entry);
        Ok(oid)
    }

    /// Insert the slice records of a new object, stamped `stamp`: one per
    /// home class, in the order the values first name it, each holding its
    /// initial values (moved in, not cloned; defaults elsewhere).
    /// `home_of[i]` is the home of `initial[i]`. Returns the object's
    /// bindings: those slices and `home_of`, sorted by key, built in one
    /// exact block. On a failure the records already inserted are freed.
    fn insert_slices(
        &self,
        mut initial: Vec<(Arc<AccessPlan>, Value)>,
        mut home_of: Vec<(PropKey, ClassId)>,
        stamp: u64,
    ) -> ModelResult<Bindings> {
        let _as_stamp = WriteStampGuard::new(stamp);
        let named_first = |i: usize| home_of[..i].iter().all(|(_, home)| *home != home_of[i].1);
        let slices = (0..home_of.len()).filter(|i| named_first(*i)).count();
        let words = if home_of.is_empty() { 0 } else { 1 + BINDING * (slices + home_of.len()) };
        let mut words = Vec::with_capacity(words);
        for i in 0..home_of.len() {
            if !named_first(i) {
                continue;
            }
            let home = home_of[i].1;
            let mut insert = || -> ModelResult<RecordId> {
                let seg = self.segment_for(home)?;
                let fields = self.schema.class(home)?.stored_layout().iter().map(|key| {
                    let given = home_of.iter().position(|&bound| bound == (*key, home));
                    match given {
                        Some(at) => std::mem::replace(&mut initial[at].1, Value::Null),
                        None => self.default_for(*key),
                    }
                });
                Ok(self.store.insert(seg, fields.collect())?)
            };
            match insert() {
                Ok(rec) => {
                    bind_in(&mut words, slice_binding(home, rec), true);
                }
                Err(e) => {
                    for binding in regions(&words).0 {
                        let _ = self.store.free(binding_record(binding));
                    }
                    return Err(e);
                }
            }
        }
        home_of.sort_unstable_by_key(|(key, _)| *key);
        for &(key, home) in &home_of {
            bind_in(&mut words, home_binding(key, home), false);
        }
        Ok(Bindings(words.into_boxed_slice()))
    }

    /// Destroy an object entirely ("removed from all the classes which they
    /// belong to"). MVCC: the entry is stamped dead and its slice records
    /// tombstoned rather than erased — readers pinned before the delete
    /// keep resolving the pre-delete object; [`Database::gc`] reclaims the
    /// remains once no pin can reach them.
    pub fn delete_object(&self, oid: Oid) -> ModelResult<()> {
        let stamp = self.write_stamp();
        let _mutation = self.membership.begin(stamp);
        let slices: Vec<RecordId> = {
            let mut objects = self.objects.write();
            let entry = objects.get_mut(oid).ok_or(ModelError::UnknownObject(oid))?;
            if entry.dead.is_some() {
                return Err(ModelError::UnknownObject(oid));
            }
            entry.dead = Some(NonZeroU64::new(stamp).expect("a delete is stamped above 0"));
            entry.bindings.slices().map(|(_, rec)| rec).collect()
        };
        for rec in slices {
            // A dangling record would be a leak, not a correctness issue;
            // propagate errors anyway.
            self.store.free(rec)?;
        }
        Ok(())
    }

    /// Add an existing object to a base class (generic `add` operator at the
    /// base level). The object acquires the class's type.
    pub fn add_to_class(&self, oid: Oid, class: ClassId) -> ModelResult<()> {
        if !self.schema.class(class)?.is_base() {
            return Err(ModelError::NotABaseClass(class));
        }
        let stamp = self.write_stamp();
        let _mutation = self.membership.begin(stamp);
        let mut objects = self.objects.write();
        let entry = objects.get_mut(oid).ok_or(ModelError::UnknownObject(oid))?;
        entry.direct_at(None).ok_or(ModelError::UnknownObject(oid))?;
        entry.reclassify(stamp, &[class], true);
        Ok(())
    }

    /// Remove an object from a base class (generic `remove`): it loses the
    /// class's type, and with it every subclass's type.
    pub fn remove_from_class(&self, oid: Oid, class: ClassId) -> ModelResult<()> {
        if !self.schema.class(class)?.is_base() {
            return Err(ModelError::NotABaseClass(class));
        }
        let doomed = self.schema.descendants(class);
        let stamp = self.write_stamp();
        let _mutation = self.membership.begin(stamp);
        let mut objects = self.objects.write();
        let entry = objects.get_mut(oid).ok_or(ModelError::UnknownObject(oid))?;
        let cur = entry.direct_at(None).ok_or(ModelError::UnknownObject(oid))?.as_slice();
        if !cur.iter().any(|c| doomed.contains(c)) {
            return Err(ModelError::NotAMember { oid, class });
        }
        entry.reclassify(stamp, &doomed.into_iter().collect::<Vec<_>>(), false);
        Ok(())
    }

    /// Does the object exist at the calling thread's read epoch?
    pub fn object_exists(&self, oid: Oid) -> bool {
        let epoch = current_read_epoch();
        self.objects.read().get(oid).is_some_and(|e| e.direct_at(epoch).is_some())
    }

    /// The object's explicit (base-class) memberships.
    pub fn direct_classes(&self, oid: Oid) -> ModelResult<BTreeSet<ClassId>> {
        let epoch = current_read_epoch();
        self.objects
            .read()
            .get(oid)
            .and_then(|e| e.direct_at(epoch))
            .map(|classes| classes.as_slice().iter().copied().collect())
            .ok_or(ModelError::UnknownObject(oid))
    }

    /// All objects live at the calling thread's read epoch, in oid order.
    pub fn all_objects(&self) -> impl Iterator<Item = Oid> {
        let epoch = current_read_epoch();
        self.objects
            .read()
            .iter()
            .filter(|(_, e)| e.direct_at(epoch).is_some())
            .map(|(oid, _)| oid)
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Number of objects live at the calling thread's read epoch.
    pub fn object_count(&self) -> usize {
        let epoch = current_read_epoch();
        self.objects.read().iter().filter(|(_, e)| e.direct_at(epoch).is_some()).count()
    }

    // ----- membership and extents -------------------------------------------

    /// Is `oid` a member of `class`? A point check for the one object: base
    /// classes by explicit membership closure, virtual classes by walking
    /// the derivation (`Select` evaluates its predicate on the object). It
    /// never builds an extent, so a write through a view pays for one
    /// object, not for the view's population.
    pub fn is_member(&self, oid: Oid, class: ClassId) -> ModelResult<bool> {
        Pass::new(self).member(oid, class, None)
    }

    fn read_point(&self) -> ReadPoint {
        let (mem_gen, mem_stamp) = self.membership.now();
        let (val_gen, val_stamp) = self.values.now();
        ReadPoint { epoch: current_read_epoch(), mem_gen, mem_stamp, val_gen, val_stamp }
    }

    /// The (global) extent of a class, at the calling thread's read epoch.
    ///
    /// Cached per class. An entry stays current until a membership
    /// mutation (or, for predicate-derived extents, a value write) begins,
    /// and is shared by every reader that sees the last mutation it
    /// reflects; a reader pinned before that mutation computes its own
    /// extent (kept briefly per epoch). A class with no entry derives from
    /// whatever its sources have cached, so the first read of a freshly
    /// evolved view class costs at most a pass over its source's extent,
    /// never a scan of the object map. Concurrent rebuilds are benign: an
    /// extent becomes an entry only if no mutation began or ended while it
    /// was being computed.
    pub fn extent(&self, class: ClassId) -> ModelResult<Arc<BTreeSet<Oid>>> {
        self.schema.class(class)?;
        let at = self.read_point();
        let hit = {
            let cache = self.extent_cache.lock();
            match cache.current_for(class, &at) {
                Some((extent, _)) => Some(extent),
                None => cache.at_old_epoch(class, &at),
            }
        };
        if let Some(hit) = hit {
            self.telemetry.incr("extent.cache_hits", 1);
            return Ok(hit);
        }
        let started = std::time::Instant::now();
        let mut work = Rebuild::default();
        let (result, _) = self.extent_rec(class, &at, &mut work)?;
        self.cache_rebuilt(class, &at, work.memo);
        if work.hits > 0 {
            self.telemetry.incr("extent.cache_hits", work.hits);
        }
        if work.built > 0 {
            self.telemetry.incr("extent.rebuilds", work.built);
            self.telemetry.observe_ns("extent.rebuild_ns", started.elapsed().as_nanos() as u64);
        }
        Ok(result)
    }

    /// `select from class where pred`: the members of `class`'s extent
    /// that satisfy `pred`, in oid order, at the calling thread's read
    /// epoch. An ad-hoc select is an unnamed `Select` class, and its answer
    /// is cached under the rule of [`Database::extent`]: value-sensitive,
    /// kept only when no mutation began or ended during the pass and the
    /// reader sees the last mutation it reflects, served to every reader
    /// that does. A hit costs a hash, one lookup and a copy of the answer.
    /// At most `EXTENT_CACHE_CAP` answers are kept, beside the class
    /// entries and never in place of one.
    pub fn select(&self, class: ClassId, pred: Predicate) -> ModelResult<Vec<Oid>> {
        let key = select_key(class, &pred);
        let at = self.read_point();
        let hit = self.extent_cache.lock().select_for(key, class, &pred, &at);
        if let Some(found) = hit {
            self.telemetry.incr("extent.cache_hits", 1);
            return Ok(found.to_vec());
        }
        let base = self.extent(class)?;
        let started = std::time::Instant::now();
        let found = self.select_pass(class, &base, &pred)?;
        self.telemetry.incr("extent.rebuilds", 1);
        self.telemetry.observe_ns("extent.rebuild_ns", started.elapsed().as_nanos() as u64);
        let stamp = at.stamp_for(true);
        let now = self.read_point();
        let quiescent = now.mem_gen == at.mem_gen && now.val_gen == at.val_gen;
        if quiescent && at.pinned_before(stamp).is_none() {
            let entry = CachedExtent {
                mem_gen: at.mem_gen,
                val_gen: at.val_gen,
                value_sensitive: true,
                stamp,
                extent: Arc::from(found.as_slice()),
            };
            self.extent_cache.lock().keep_select(key, (class, pred), entry, &now);
        }
        Ok(found)
    }

    /// `Select { src, pred }` over `base`, the extent of `src`: one read
    /// pass (the names `pred` mentions resolve once, the locks are taken
    /// once, not once per member), ending before the caller writes. The
    /// one routine both a `Select` class and an ad-hoc select evaluate by.
    fn select_pass(
        &self,
        src: ClassId,
        base: &BTreeSet<Oid>,
        pred: &Predicate,
    ) -> ModelResult<Vec<Oid>> {
        let bound = self.bind_attrs(src);
        let mut out = Vec::with_capacity(base.len());
        for oid in base {
            if pred.eval(&bound.source(*oid))? {
                out.push(*oid);
            }
        }
        Ok(out)
    }

    /// The extent of `class` computed from the object map and the
    /// derivations alone, reading and writing no cache: the reference the
    /// cache is tested against.
    #[doc(hidden)]
    pub fn extent_uncached(&self, class: ClassId) -> ModelResult<BTreeSet<Oid>> {
        let derivation = match &self.schema.class(class)?.kind {
            ClassKind::Base => {
                let epoch = current_read_epoch();
                let objects = self.objects.read();
                return Ok(objects
                    .iter()
                    .filter(|(_, entry)| {
                        entry.direct_at(epoch).is_some_and(|s| {
                            s.as_slice().iter().any(|d| self.schema.is_sub_of(*d, class))
                        })
                    })
                    .map(|(oid, _)| oid)
                    .collect());
            }
            ClassKind::Virtual(derivation) => derivation,
        };
        Ok(match derivation {
            Derivation::Select { src, pred } => {
                let mut out = BTreeSet::new();
                for oid in self.extent_uncached(*src)? {
                    if pred.eval(&self.bind_attrs(*src).source(oid))? {
                        out.insert(oid);
                    }
                }
                out
            }
            Derivation::Hide { src, .. } | Derivation::Refine { src, .. } => {
                self.extent_uncached(*src)?
            }
            Derivation::Union { a, b } => &self.extent_uncached(*a)? | &self.extent_uncached(*b)?,
            Derivation::Difference { a, b } => {
                &self.extent_uncached(*a)? - &self.extent_uncached(*b)?
            }
            Derivation::Intersect { a, b } => {
                &self.extent_uncached(*a)? & &self.extent_uncached(*b)?
            }
        })
    }

    /// Keep what one `extent(class)` call computed. What a reader new
    /// enough to see every mutation built while none was in flight becomes
    /// the classes' current entries; a reader pinned before the last
    /// mutation keeps only the extent it asked for, under its own epoch.
    fn cache_rebuilt(
        &self,
        class: ClassId,
        at: &ReadPoint,
        memo: HashMap<ClassId, (Arc<BTreeSet<Oid>>, bool)>,
    ) {
        let now = self.read_point();
        let mut cache = self.extent_cache.lock();
        if cache.current.len() + memo.len() > EXTENT_CACHE_CAP {
            cache.current.clear();
        }
        for (id, (extent, value_sensitive)) in memo {
            let stamp = at.stamp_for(value_sensitive);
            let quiescent =
                now.mem_gen == at.mem_gen && (!value_sensitive || now.val_gen == at.val_gen);
            match at.pinned_before(stamp) {
                Some(epoch) if id == class => {
                    if cache.old_epochs.len() == OLD_EPOCH_ENTRIES {
                        cache.old_epochs.pop_front();
                    }
                    cache.old_epochs.push_back((class, epoch, extent));
                }
                None if quiescent => {
                    let entry = CachedExtent {
                        mem_gen: at.mem_gen,
                        val_gen: at.val_gen,
                        value_sensitive,
                        stamp,
                        extent,
                    };
                    cache.current.insert(id, entry);
                }
                _ => {}
            }
        }
    }

    fn extent_rec(
        &self,
        class: ClassId,
        at: &ReadPoint,
        work: &mut Rebuild,
    ) -> ModelResult<(Arc<BTreeSet<Oid>>, bool)> {
        if let Some((e, s)) = work.memo.get(&class) {
            return Ok((Arc::clone(e), *s));
        }
        if let Some(hit) = self.extent_cache.lock().current_for(class, at) {
            work.hits += 1;
            return Ok(hit);
        }
        let (extent, value_sensitive) = match &self.schema.class(class)?.kind {
            ClassKind::Base => {
                // One descendant set per rebuild, one lookup per object.
                let below = self.schema.descendants(class);
                let objects = self.objects.read();
                let out: BTreeSet<Oid> = objects
                    .iter()
                    .filter(|(_, entry)| {
                        entry
                            .direct_at(at.epoch)
                            .is_some_and(|s| s.as_slice().iter().any(|d| below.contains(d)))
                    })
                    .map(|(oid, _)| oid)
                    .collect();
                (out, false)
            }
            ClassKind::Virtual(derivation) => match derivation {
                Derivation::Select { src, pred } => {
                    let (base, _) = self.extent_rec(*src, at, work)?;
                    (self.select_pass(*src, &base, pred)?.into_iter().collect(), true)
                }
                Derivation::Hide { src, .. } | Derivation::Refine { src, .. } => {
                    // The same objects as the source: share its set.
                    let (extent, value_sensitive) = self.extent_rec(*src, at, work)?;
                    work.memo.insert(class, (Arc::clone(&extent), value_sensitive));
                    return Ok((extent, value_sensitive));
                }
                Derivation::Union { a, b } => {
                    let (ea, sa) = self.extent_rec(*a, at, work)?;
                    let (eb, sb) = self.extent_rec(*b, at, work)?;
                    (ea.as_ref() | eb.as_ref(), sa || sb)
                }
                Derivation::Difference { a, b } => {
                    let (ea, sa) = self.extent_rec(*a, at, work)?;
                    let (eb, sb) = self.extent_rec(*b, at, work)?;
                    (ea.as_ref() - eb.as_ref(), sa || sb)
                }
                Derivation::Intersect { a, b } => {
                    let (ea, sa) = self.extent_rec(*a, at, work)?;
                    let (eb, sb) = self.extent_rec(*b, at, work)?;
                    (ea.as_ref() & eb.as_ref(), sa || sb)
                }
            },
        };
        work.built += 1;
        let extent = Arc::new(extent);
        work.memo.insert(class, (Arc::clone(&extent), value_sensitive));
        Ok((extent, value_sensitive))
    }

    /// Cast an object to a class perspective (validating membership).
    pub fn cast(&self, oid: Oid, class: ClassId) -> ModelResult<ObjRef> {
        if self.is_member(oid, class)? {
            Ok(ObjRef { oid, class })
        } else {
            Err(ModelError::NotAMember { oid, class })
        }
    }

    /// Check every class constraint that applies to `oid` (constraints of
    /// base classes the object belongs to).
    pub(crate) fn check_constraints(&self, oid: Oid) -> ModelResult<()> {
        self.check_constraints_of(oid, None)
    }

    /// [`Database::check_constraints`], on an `Unpublished` object's initial
    /// values when there is one.
    fn check_constraints_of(&self, oid: Oid, object: Option<Unpublished<'_>>) -> ModelResult<()> {
        if self.schema.constraint_count() == 0 {
            return Ok(());
        }
        let constrained: Vec<ClassId> = self
            .schema
            .class_ids()
            .filter(|c| {
                self.schema.class(*c).map(|cls| cls.constraint().is_some()).unwrap_or(false)
            })
            .collect();
        let pass = Pass::new(self);
        for c in constrained {
            if !pass.member(oid, c, object)? {
                continue;
            }
            let pred = self.schema.class(c)?.constraint().expect("filtered");
            if !pred.eval(&pass.source(&Scope::new(c, object), oid))? {
                return Err(ModelError::Invalid(format!(
                    "class constraint of {} refused the update on {oid}: {}",
                    self.schema.class(c)?.name,
                    pred.render()
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn default_for(&self, key: PropKey) -> Value {
        match self.schema.def_by_key(key) {
            Ok((_, def)) => match &def.kind {
                PropKind::Stored { default, .. } => default.clone(),
                PropKind::Method { .. } => Value::Null,
            },
            Err(_) => Value::Null,
        }
    }

    /// Decide (and remember) which class's slice stores `plan`'s key for
    /// `oid`: an already-bound home, else [`Database::choose_home`]'s.
    pub(crate) fn bind_home(
        &self,
        oid: Oid,
        via: ClassId,
        plan: &AccessPlan,
    ) -> ModelResult<ClassId> {
        let key = plan.key;
        let bound = self.objects.read().get(oid).ok_or(ModelError::UnknownObject(oid))?.home(key);
        if let Some(home) = bound {
            return Ok(home);
        }
        let chosen = self.choose_home(oid, via, plan, None)?;
        // Publish the binding; if a concurrent writer bound this key first,
        // its choice wins so both writers target the same slice.
        let mut objects = self.objects.write();
        let entry = objects.get_mut(oid).ok_or(ModelError::UnknownObject(oid))?;
        Ok(entry.bindings.bind_home(key, chosen))
    }

    /// The class whose slice should store `plan`'s key for `oid` (or for an
    /// `Unpublished` object): the most specific of the plan's homes — the
    /// classes with storage capability for the key, by class id — that the
    /// object is a member of, the first by class id if several are. Whether
    /// one home is below another is a bit test; an object's membership of a
    /// home is asked once, plus once per home above a member it is below.
    fn choose_home(
        &self,
        oid: Oid,
        via: ClassId,
        plan: &AccessPlan,
        object: Option<Unpublished<'_>>,
    ) -> ModelResult<ClassId> {
        let pass = Pass::new(self);
        for home in plan.homes() {
            if !pass.member(oid, home, object)? {
                continue;
            }
            let mut most_specific = true;
            for other in plan.homes() {
                if other != home
                    && self.schema.is_sub_of(other, home)
                    && pass.member(oid, other, object)?
                {
                    most_specific = false;
                    break;
                }
            }
            if most_specific {
                return Ok(home);
            }
        }
        Err(ModelError::Invalid(format!(
            "object {oid} (via {via}) has no storage-capable class for {}",
            plan.key
        )))
    }

    /// The storage segment assigned to `class`, if any: the one baked into
    /// the schema, or one assigned by a `&self` writer since the schema was
    /// last rebuilt (the `late_segments` overlay).
    pub fn segment_of(&self, class: ClassId) -> Option<SegmentId> {
        match self.schema.class(class) {
            Ok(cls) => cls.segment.or_else(|| self.late_segments.read().get(&class).copied()),
            Err(_) => None,
        }
    }

    /// The segment for `class`, creating it on first use. Schema classes are
    /// immutable from the data plane (`&self`), so freshly created segments
    /// live in the `late_segments` overlay until the next schema rebuild
    /// folds them in (see `schema_for_snapshot`).
    fn segment_for(&self, class: ClassId) -> ModelResult<SegmentId> {
        if let Some(s) = self.schema.class(class)?.segment {
            return Ok(s);
        }
        if let Some(s) = self.late_segments.read().get(&class) {
            return Ok(*s);
        }
        let name = self.schema.class(class)?.name.clone();
        // Double-checked under the write lock so racing writers agree on one
        // segment per class. Lock order: late_segments → store stripe.
        let mut late = self.late_segments.write();
        if let Some(s) = late.get(&class) {
            return Ok(*s);
        }
        let seg = self.store.create_segment(&name);
        late.insert(class, seg);
        Ok(seg)
    }

    /// Write `value` into field `idx` of `oid`'s slice of `home`, under the
    /// ambient write stamp. A slice not yet materialized is inserted
    /// already holding the value (defaults elsewhere): one insert, one
    /// version. If a concurrent writer materialized it first, theirs wins,
    /// the speculative record is freed and the value written into theirs.
    pub(crate) fn write_slice(
        &self,
        oid: Oid,
        home: ClassId,
        idx: usize,
        mut value: Value,
    ) -> ModelResult<()> {
        let bound = self.objects.read().get(oid).ok_or(ModelError::UnknownObject(oid))?.slice(home);
        let rec = match bound {
            Some(rec) => rec,
            None => {
                let seg = self.segment_for(home)?;
                let layout = self.schema.class(home)?.stored_layout();
                let mut fields: Vec<Value> = layout.iter().map(|k| self.default_for(*k)).collect();
                fields[idx] = value;
                // Create the record outside the object-map lock, then
                // publish it.
                let rec = self.store.insert(seg, fields)?;
                let winner = {
                    let mut objects = self.objects.write();
                    match objects.get_mut(oid) {
                        Some(entry) => entry.bindings.bind_slice(home, rec),
                        None => {
                            drop(objects);
                            let _ = self.store.free(rec);
                            return Err(ModelError::UnknownObject(oid));
                        }
                    }
                };
                if winner == rec {
                    return Ok(());
                }
                value = self.store.free(rec)?.swap_remove(idx);
                winner
            }
        };
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

    /// Number of implementation objects (slices) an object currently has.
    pub fn slice_count(&self, oid: Oid) -> ModelResult<usize> {
        let epoch = current_read_epoch();
        let objects = self.objects.read();
        let entry = objects.get(oid).ok_or(ModelError::UnknownObject(oid))?;
        if entry.direct_at(epoch).is_none() {
            return Err(ModelError::UnknownObject(oid));
        }
        Ok(entry.bindings.slice_count())
    }

    // ----- statistics ---------------------------------------------------------

    /// Table 1 statistics for the slicing backend.
    pub fn slicing_stats(&self) -> SlicingStats {
        const OID_BYTES: u64 = 8;
        const PTR_BYTES: u64 = 8;
        let mut stats = SlicingStats {
            classes: self.schema.class_count() as u64,
            slice_hops: self.slice_hops.load(Ordering::Relaxed),
            ..Default::default()
        };
        for (_, entry) in self.objects.read().iter() {
            if entry.dead.is_some() {
                continue; // awaiting GC; not part of the live population
            }
            let n_impl = entry.bindings.slice_count() as u64;
            stats.objects += 1;
            stats.implementation_objects += n_impl;
            stats.oids += 1 + n_impl;
            stats.managerial_bytes += (1 + n_impl) * OID_BYTES + n_impl * 2 * PTR_BYTES;
        }
        stats
    }

    /// What the objects hold in memory, by owner. A diagnostic: it walks
    /// the object table and every record.
    pub fn resident_bytes(&self) -> ResidentBytes {
        use std::mem::size_of;
        let objects = self.objects.read();
        let mut bytes =
            ResidentBytes { object_table: objects.resident_bytes(), ..ResidentBytes::default() };
        for (_, entry) in objects.iter() {
            bytes.membership += entry.directs.spill_bytes();
            for (_, classes) in entry.directs.iter() {
                if let Classes::Many(many) = classes {
                    bytes.membership += many.len() * size_of::<ClassId>();
                }
            }
            let (slices, home_of) = entry.bindings.resident_bytes();
            bytes.slices += slices;
            bytes.home_of += home_of;
        }
        drop(objects);
        (bytes.record_chains, bytes.fields) = self.store.resident_bytes();
        bytes
    }

    /// Reset the slice-hop counter.
    pub fn reset_slice_hops(&self) {
        self.slice_hops.store(0, Ordering::Relaxed);
    }

    // ----- MVCC garbage collection --------------------------------------------

    /// Reclaim MVCC garbage that no current or future reader can observe:
    /// superseded record versions and unpinned tombstoned slots in the
    /// store, plus superseded membership versions and dead object entries
    /// in the map. `watermark` is normally the store clock's
    /// `gc_watermark()`. Returns the number of versions/entries reclaimed.
    ///
    /// Safe to run concurrently with readers and writers: everything it
    /// removes is invisible at every epoch ≥ `watermark`, and the clock
    /// guarantees no pin below the watermark exists or will ever be taken.
    pub fn gc(&self, watermark: u64) -> u64 {
        let mut reclaimed = self.store.gc(watermark);
        let mut objects = self.objects.write();
        objects.retain(|entry| {
            if entry.dead_at(watermark) {
                reclaimed += 1;
                return false;
            }
            reclaimed += entry.directs.gc(watermark) as u64;
            true
        });
        reclaimed
    }

    // ----- snapshot support ---------------------------------------------------

    /// The schema as it should be persisted: the in-memory schema with the
    /// `late_segments` overlay folded into the class records, so a restored
    /// database sees the segment assignments without the overlay.
    pub(crate) fn schema_for_snapshot(&self) -> Schema {
        let late = self.late_segments.read();
        if late.is_empty() {
            return self.schema.clone();
        }
        let mut schema = self.schema.clone();
        for (class, seg) in late.iter() {
            if let Ok(cls) = schema.class_mut(*class) {
                if cls.segment.is_none() {
                    cls.segment = Some(*seg);
                }
            }
        }
        schema
    }

    pub(crate) fn encode_objects_into(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        let objects = self.objects.read();
        // Snapshots persist only the latest state: dead entries (and
        // superseded membership versions) are MVCC garbage a restored
        // database has no pins into.
        let live: Vec<(Oid, &ObjectEntry)> =
            objects.iter().filter(|(_, e)| e.dead.is_none()).collect();
        buf.put_u32(live.len() as u32);
        for (oid, entry) in live {
            buf.put_u64(oid.0);
            let direct = entry.direct_at(None).map_or(&[][..], Classes::as_slice);
            buf.put_u32(direct.len() as u32);
            for c in direct {
                buf.put_u32(c.0);
            }
            buf.put_u32(entry.bindings.slice_count() as u32);
            for (class, rec) in entry.bindings.slices() {
                buf.put_u32(class.0);
                buf.put_u32(rec.segment.0);
                buf.put_u32(rec.slot);
            }
            buf.put_u32(entry.bindings.homes().len() as u32);
            for (key, class) in entry.bindings.homes() {
                buf.put_u64(key.0);
                buf.put_u32(class.0);
            }
        }
        buf.put_u64(self.next_oid.load(Ordering::Acquire));
    }

    pub(crate) fn decode_objects_from(buf: &mut bytes::Bytes) -> ModelResult<(ObjectTable, u64)> {
        use crate::codec::{get_u32, get_u64};
        let n = get_u32(buf)? as usize;
        let mut entries = Vec::new();
        for _ in 0..n {
            let oid = Oid(get_u64(buf)?);
            let n_direct = get_u32(buf)? as usize;
            let direct = (0..n_direct)
                .map(|_| Ok(ClassId(get_u32(buf)?)))
                .collect::<ModelResult<Classes>>()?;
            // Bootstrap stamp 0: restored membership is visible at every
            // epoch, mirroring how the store stamps restored records.
            let mut words = Vec::new();
            let n_slices = get_u32(buf)? as usize;
            for _ in 0..n_slices {
                let binding = [get_u32(buf)?, get_u32(buf)?, get_u32(buf)?];
                bind_in(&mut words, binding, true);
            }
            let n_homes = get_u32(buf)? as usize;
            for _ in 0..n_homes {
                let key = PropKey(get_u64(buf)?);
                let class = ClassId(get_u32(buf)?);
                bind_in(&mut words, home_binding(key, class), false);
            }
            let bindings = Bindings(words.into_boxed_slice());
            entries.push((oid, ObjectEntry::new(0, direct, bindings)));
        }
        let next_oid = get_u64(buf)?;
        // The table is sized by the largest oid, so a corrupt oid must not
        // reach it: encoding writes ascending oids the counter handed out.
        let mut previous = None;
        for (oid, _) in &entries {
            if previous >= Some(*oid) || oid.0 >= next_oid {
                let msg = format!("object {oid} out of order or at/after next oid {next_oid}");
                return Err(ModelError::Storage(tse_storage::StorageError::Corrupt(msg)));
            }
            previous = Some(*oid);
        }
        let mut objects = ObjectTable::default();
        for (oid, entry) in entries {
            objects.insert(oid, entry);
        }
        Ok((objects, next_oid))
    }

    pub(crate) fn from_parts(
        schema: Schema,
        store: SliceStore<Value>,
        objects: ObjectTable,
        next_oid: u64,
    ) -> Database {
        let telemetry = tse_telemetry::Telemetry::new();
        let mut store = store;
        store.set_telemetry(telemetry.clone());
        register_extent_metrics(&telemetry);
        Database {
            schema,
            store,
            objects: Arc::new(RwLock::new(objects)),
            next_oid: AtomicU64::new(next_oid),
            membership: MutationClock::default(),
            values: MutationClock::default(),
            late_segments: Arc::new(RwLock::new(BTreeMap::new())),
            extent_cache: Mutex::new(ExtentCache::default()),
            slice_hops: AtomicU64::new(0),
            telemetry,
        }
    }
}

/// Register the extent-cache metrics (at zero / empty) so snapshots always
/// carry them. They are touched on the `extent`/`select_where` path only.
fn register_extent_metrics(telemetry: &tse_telemetry::Telemetry) {
    telemetry.incr("extent.cache_hits", 0);
    telemetry.incr("extent.rebuilds", 0);
    telemetry.register_histogram("extent.rebuild_ns");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_storage::WriteStampGuard;

    use crate::method::{BinOp, MethodBody};
    use crate::predicate::Predicate;
    use crate::property::PropertyDef;
    use crate::value::ValueType;

    fn university() -> (Database, ClassId, ClassId, ClassId) {
        let mut db = Database::default();
        let s = db.schema_mut();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student]).unwrap();
        s.add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        s.add_local_prop(person, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        s.add_local_prop(
            student,
            PropertyDef::stored("gpa", ValueType::Float, Value::Float(0.0)),
            None,
        )
        .unwrap();
        s.add_local_prop(ta, PropertyDef::stored("lecture", ValueType::Str, Value::Null), None)
            .unwrap();
        (db, person, student, ta)
    }

    #[test]
    fn create_and_read_defaults() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[("name", "ann".into())]).unwrap();
        assert_eq!(db.read_attr(o, student, "name").unwrap(), Value::Str("ann".into()));
        assert_eq!(db.read_attr(o, student, "age").unwrap(), Value::Int(0));
        assert_eq!(db.read_attr(o, student, "gpa").unwrap(), Value::Float(0.0));
    }

    #[test]
    fn membership_closure_up_the_hierarchy() {
        let (db, person, student, ta) = university();
        let o = db.create_object(ta, &[]).unwrap();
        assert!(db.is_member(o, ta).unwrap());
        assert!(db.is_member(o, student).unwrap());
        assert!(db.is_member(o, person).unwrap());
        assert!(db.is_member(o, db.schema().root()).unwrap());
        let p = db.create_object(person, &[]).unwrap();
        assert!(!db.is_member(p, student).unwrap());
    }

    #[test]
    fn extents_include_subclass_members() {
        let (db, person, student, ta) = university();
        let o1 = db.create_object(person, &[]).unwrap();
        let o2 = db.create_object(student, &[]).unwrap();
        let o3 = db.create_object(ta, &[]).unwrap();
        let ext = db.extent(person).unwrap();
        assert_eq!(ext.len(), 3);
        assert!(ext.contains(&o1) && ext.contains(&o2) && ext.contains(&o3));
        assert_eq!(db.extent(student).unwrap().len(), 2);
        assert_eq!(db.extent(ta).unwrap().len(), 1);
    }

    #[test]
    fn writes_are_visible_through_any_perspective() {
        let (db, person, student, ta) = university();
        let o = db.create_object(ta, &[("name", "kim".into())]).unwrap();
        db.write_attr(o, ta, "age", Value::Int(25)).unwrap();
        assert_eq!(db.read_attr(o, person, "age").unwrap(), Value::Int(25));
        db.write_attr(o, person, "age", Value::Int(26)).unwrap();
        assert_eq!(db.read_attr(o, student, "age").unwrap(), Value::Int(26));
    }

    #[test]
    fn type_checking_on_write() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[]).unwrap();
        assert!(matches!(
            db.write_attr(o, student, "age", Value::Str("old".into())),
            Err(ModelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.write_attr(o, student, "nope", Value::Int(1)),
            Err(ModelError::UnknownProperty { .. })
        ));
    }

    #[test]
    fn required_attributes_enforced_on_create_and_write() {
        let mut db = Database::default();
        let c = db.schema_mut().create_base_class("C", &[]).unwrap();
        db.schema_mut()
            .add_local_prop(c, PropertyDef::required("ssn", ValueType::Str, Value::Null), None)
            .unwrap();
        assert!(db.create_object(c, &[]).is_err(), "missing REQUIRED value");
        let o = db.create_object(c, &[("ssn", "123".into())]).unwrap();
        assert!(db.write_attr(o, c, "ssn", Value::Null).is_err());
    }

    #[test]
    fn methods_compute_from_stored_state() {
        let (mut db, person, _, _) = university();
        let body = MethodBody::bin(
            BinOp::Ge,
            MethodBody::Attr("age".into()),
            MethodBody::Const(Value::Int(18)),
        );
        db.schema_mut()
            .add_local_prop(person, PropertyDef::method("is_adult", ValueType::Bool, body), None)
            .unwrap();
        let o = db.create_object(person, &[("age", Value::Int(30))]).unwrap();
        assert_eq!(db.read_attr(o, person, "is_adult").unwrap(), Value::Bool(true));
        db.write_attr(o, person, "age", Value::Int(10)).unwrap();
        assert_eq!(db.read_attr(o, person, "is_adult").unwrap(), Value::Bool(false));
        assert!(matches!(
            db.write_attr(o, person, "is_adult", Value::Bool(true)),
            Err(ModelError::NotStored(_))
        ));
    }

    #[test]
    fn method_recursion_is_bounded() {
        let mut db = Database::default();
        let c = db.schema_mut().create_base_class("C", &[]).unwrap();
        db.schema_mut()
            .add_local_prop(
                c,
                PropertyDef::method("loop", ValueType::Any, MethodBody::Attr("loop".into())),
                None,
            )
            .unwrap();
        let o = db.create_object(c, &[]).unwrap();
        assert!(matches!(db.read_attr(o, c, "loop"), Err(ModelError::MethodEval(_))));
    }

    #[test]
    fn select_virtual_extent_filters_and_tracks_updates() {
        let (mut db, person, _, _) = university();
        let adult = db
            .schema_mut()
            .create_virtual_class(
                "Adult",
                Derivation::Select { src: person, pred: Predicate::cmp("age", BinOp::Ge, 18) },
            )
            .unwrap();
        let kid = db.create_object(person, &[("age", Value::Int(10))]).unwrap();
        let grown = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let ext = db.extent(adult).unwrap();
        assert!(ext.contains(&grown) && !ext.contains(&kid));
        // Value update changes derived membership.
        db.write_attr(kid, person, "age", Value::Int(20)).unwrap();
        assert!(db.extent(adult).unwrap().contains(&kid));
        assert!(db.is_member(kid, adult).unwrap());
    }

    #[test]
    fn set_operation_extents() {
        let (mut db, person, student, ta) = university();
        let o_p = db.create_object(person, &[]).unwrap();
        let o_s = db.create_object(student, &[]).unwrap();
        let o_t = db.create_object(ta, &[]).unwrap();
        let schema = db.schema_mut();
        let uni = schema
            .create_virtual_class("U", Derivation::Union { a: student, b: person })
            .unwrap();
        let diff = schema
            .create_virtual_class("D", Derivation::Difference { a: person, b: student })
            .unwrap();
        let inter = schema
            .create_virtual_class("I", Derivation::Intersect { a: person, b: ta })
            .unwrap();
        assert_eq!(db.extent(uni).unwrap().len(), 3);
        let d = db.extent(diff).unwrap();
        assert_eq!(d.as_ref(), &BTreeSet::from([o_p]));
        let i = db.extent(inter).unwrap();
        assert_eq!(i.as_ref(), &BTreeSet::from([o_t]));
        let _ = o_s;
    }

    #[test]
    fn refine_virtual_class_carries_new_stored_attribute() {
        let (mut db, _, student, ta) = university();
        // Student' = refine register for Student (capacity augmentation).
        let sp = db
            .schema_mut()
            .create_refine_class(
                "Student'",
                student,
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
                vec![],
            )
            .unwrap();
        let o = db.create_object(ta, &[]).unwrap();
        // o is a member of Student' (extent = extent(Student)).
        assert!(db.is_member(o, sp).unwrap());
        assert_eq!(db.read_attr(o, sp, "register").unwrap(), Value::Bool(false));
        db.write_attr(o, sp, "register", Value::Bool(true)).unwrap();
        assert_eq!(db.read_attr(o, sp, "register").unwrap(), Value::Bool(true));
    }

    #[test]
    fn slices_materialize_lazily_per_defining_class() {
        let (db, person, student, ta) = university();
        let o = db.create_object(ta, &[]).unwrap();
        assert_eq!(db.slice_count(o).unwrap(), 0, "no writes yet → no slices");
        db.write_attr(o, ta, "name", "kim".into()).unwrap();
        assert_eq!(db.slice_count(o).unwrap(), 1, "name lives in the Person slice");
        db.write_attr(o, ta, "lecture", "db101".into()).unwrap();
        assert_eq!(db.slice_count(o).unwrap(), 2);
        // Slices land in the defining classes' segments.
        let _ = (person, student);
    }

    #[test]
    fn slice_hops_count_distance_to_defining_class() {
        let (db, person, _, ta) = university();
        let o = db.create_object(ta, &[]).unwrap();
        db.write_attr(o, ta, "name", "kim".into()).unwrap();
        db.reset_slice_hops();
        let _ = db.read_attr(o, ta, "name").unwrap();
        let hops_inherited = db.slicing_stats().slice_hops;
        db.reset_slice_hops();
        let _ = db.read_attr(o, person, "name").unwrap();
        let hops_local = db.slicing_stats().slice_hops;
        assert!(hops_inherited > hops_local, "inherited access hops more");
        assert_eq!(hops_local, 0);
        assert_eq!(hops_inherited, 2, "TA → Student → Person");
    }

    #[test]
    fn remove_from_class_loses_subtypes_too() {
        let (db, person, student, ta) = university();
        let o = db.create_object(ta, &[]).unwrap();
        db.add_to_class(o, person).unwrap();
        db.remove_from_class(o, student).unwrap();
        assert!(!db.is_member(o, ta).unwrap());
        assert!(!db.is_member(o, student).unwrap());
        assert!(db.is_member(o, person).unwrap(), "explicit Person membership survives");
        assert!(matches!(
            db.remove_from_class(o, student),
            Err(ModelError::NotAMember { .. })
        ));
    }

    #[test]
    fn delete_object_frees_slices_and_extents() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[("name", "x".into())]).unwrap();
        assert_eq!(db.store_stats().records_allocated, 1);
        db.delete_object(o).unwrap();
        assert!(!db.object_exists(o));
        assert_eq!(db.store_stats().records_freed, 1);
        assert!(db.extent(student).unwrap().is_empty());
        assert!(db.delete_object(o).is_err());
    }

    #[test]
    fn cast_validates_membership() {
        let (db, person, student, _) = university();
        let o = db.create_object(person, &[]).unwrap();
        assert!(db.cast(o, person).is_ok());
        assert!(matches!(db.cast(o, student), Err(ModelError::NotAMember { .. })));
    }

    #[test]
    fn dynamic_classification_add_then_remove() {
        let (db, _, student, _) = university();
        let mut dbm = db;
        let c2 = dbm.schema_mut().create_base_class("Employee", &[]).unwrap();
        dbm.schema_mut()
            .add_local_prop(
                c2,
                PropertyDef::stored("salary", ValueType::Int, Value::Int(0)),
                None,
            )
            .unwrap();
        let o = dbm.create_object(student, &[]).unwrap();
        dbm.add_to_class(o, c2).unwrap();
        assert!(dbm.is_member(o, c2).unwrap());
        dbm.write_attr(o, c2, "salary", Value::Int(900)).unwrap();
        assert_eq!(dbm.read_attr(o, c2, "salary").unwrap(), Value::Int(900));
        dbm.remove_from_class(o, c2).unwrap();
        assert!(!dbm.is_member(o, c2).unwrap());
        assert!(dbm.is_member(o, student).unwrap());
    }

    #[test]
    fn pinned_reader_survives_delete_and_membership_change() {
        let (db, person, student, _) = university();
        let o = db.create_object(student, &[("name", "ann".into())]).unwrap();
        db.write_attr(o, student, "gpa", Value::Float(3.0)).unwrap();
        let pin = db.store().pin_read();
        db.write_attr(o, student, "gpa", Value::Float(4.0)).unwrap();
        db.delete_object(o).unwrap();
        assert!(!db.object_exists(o), "latest view: gone");
        {
            let _g = tse_storage::ReadEpochGuard::new(pin.epoch());
            assert!(db.object_exists(o), "pinned view: still there");
            assert_eq!(db.read_attr(o, student, "gpa").unwrap(), Value::Float(3.0));
            assert!(db.extent(person).unwrap().contains(&o));
        }
        assert!(db.extent(person).unwrap().is_empty());
        drop(pin);
    }

    /// An entry holds its membership head and spill pointer, its death
    /// stamp and the pointer to its one block of bindings, nothing more.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_object_entry_costs_at_most_56_bytes() {
        let entry = std::mem::size_of::<ObjectEntry>();
        println!("object entry: {entry} B");
        assert!(entry <= 56, "an object entry is {entry} B");
    }

    #[test]
    fn bindings_stay_sorted_exact_and_first_bound_wins() {
        let rec = |slot| RecordId { segment: tse_storage::SegmentId(9), slot };
        let mut bindings = Bindings::default();
        assert_eq!(bindings.resident_bytes(), (0, 0), "no block while nothing is bound");
        let big = PropKey(u64::MAX - 1);
        assert_eq!(bindings.bind_home(big, ClassId(1)), ClassId(1));
        assert_eq!(bindings.bind_slice(ClassId(5), rec(50)), rec(50));
        assert_eq!(bindings.bind_home(PropKey(3), ClassId(5)), ClassId(5));
        assert_eq!(bindings.bind_slice(ClassId(2), rec(20)), rec(20));
        assert_eq!(bindings.bind_slice(ClassId(5), rec(51)), rec(50), "the first binding wins");
        assert_eq!(bindings.bind_home(big, ClassId(2)), ClassId(1), "the first binding wins");
        let slices: Vec<_> = bindings.slices().collect();
        assert_eq!(slices, [(ClassId(2), rec(20)), (ClassId(5), rec(50))]);
        let homes: Vec<_> = bindings.homes().collect();
        assert_eq!(homes, [(PropKey(3), ClassId(5)), (big, ClassId(1))]);
        assert_eq!((bindings.slice(ClassId(2)), bindings.slice(ClassId(3))), (Some(rec(20)), None));
        assert_eq!((bindings.home(big), bindings.home(PropKey(4))), (Some(ClassId(1)), None));
        // The count word and two slices, then two homes; nothing spare.
        assert_eq!(bindings.resident_bytes(), (4 + 2 * 12, 2 * 12));
    }

    #[test]
    fn the_object_table_keeps_oid_order_across_gaps_and_gives_room_back() {
        let class_of = |e: &ObjectEntry| e.directs.current().as_slice()[0].0 as u64;
        let mut table = ObjectTable::default();
        for oid in [130u64, 3, 64, 5, 63] {
            let entry = ObjectEntry::new(1, Classes::One(ClassId(oid as u32)), Bindings::default());
            table.insert(Oid(oid), entry);
        }
        let held: Vec<(u64, u64)> = table.iter().map(|(oid, e)| (oid.0, class_of(e))).collect();
        assert_eq!(held, [(3, 3), (5, 5), (63, 63), (64, 64), (130, 130)]);
        assert_eq!(table.get(Oid(63)).map(class_of), Some(63));
        assert!(table.get(Oid(4)).is_none() && table.get(Oid(1 << 40)).is_none());
        table.retain(|e| class_of(e) % 2 == 1);
        let held: Vec<u64> = table.iter().map(|(oid, _)| oid.0).collect();
        assert_eq!(held, [3, 5, 63]);
        assert_eq!(table.len(), 3);
        let room: Vec<usize> = table.chunks.iter().map(|c| c.entries.capacity()).collect();
        assert_eq!(room[1..], [0, 0], "emptied chunks hold no room");
    }

    #[test]
    fn gc_reclaims_dead_entries_once_unpinned() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[("name", "x".into())]).unwrap();
        let pin = db.store().pin_read();
        db.delete_object(o).unwrap();
        db.gc(db.store().clock().gc_watermark());
        assert!(db.objects.read().get(o).is_some(), "pin holds the dead entry");
        drop(pin);
        let freed = db.gc(db.store().clock().gc_watermark());
        assert!(freed > 0, "tombstones and the entry are reclaimable now");
        assert!(db.objects.read().get(o).is_none());
    }

    #[test]
    fn fork_shared_is_a_handle_onto_the_same_database() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[("name", "a".into())]).unwrap();
        let fork = db.fork_shared();
        assert!(fork.store().shares_contents_with(db.store()));
        assert_eq!(fork.read_attr(o, student, "name").unwrap(), Value::Str("a".into()));
        let o2 = fork.create_object(student, &[]).unwrap();
        assert!(db.object_exists(o2), "shared object map: both handles see new objects");
    }

    fn rebuilds(db: &Database) -> u64 {
        db.telemetry().counter("extent.rebuilds")
    }

    fn cache_hits(db: &Database) -> u64 {
        db.telemetry().counter("extent.cache_hits")
    }

    #[test]
    fn readers_that_see_the_last_mutation_share_one_entry() {
        let (db, person, student, _) = university();
        let o = db.create_object(student, &[("name", "ann".into())]).unwrap();
        let early = db.store().pin_read();
        let built = db.extent(person).unwrap();
        assert_eq!(rebuilds(&db), 1);
        {
            // Pinned at the last membership mutation: the same entry.
            let _g = tse_storage::ReadEpochGuard::new(early.epoch());
            assert!(Arc::ptr_eq(&db.extent(person).unwrap(), &built));
        }
        // A value write leaves base extents alone, for every reader.
        db.write_attr(o, student, "age", Value::Int(30)).unwrap();
        let late = db.store().pin_read();
        for pin in [&early, &late] {
            let _g = tse_storage::ReadEpochGuard::new(pin.epoch());
            assert!(Arc::ptr_eq(&db.extent(person).unwrap(), &built));
        }
        assert_eq!(rebuilds(&db), 1);

        // After a membership mutation both pins are too old for the new
        // entry: they rebuild once at their epoch and then reuse that.
        let p = db.create_object(person, &[]).unwrap();
        assert_eq!(*db.extent(person).unwrap(), BTreeSet::from([o, p]));
        assert_eq!(rebuilds(&db), 2);
        let _g = tse_storage::ReadEpochGuard::new(late.epoch());
        assert_eq!(*db.extent(person).unwrap(), BTreeSet::from([o]));
        assert_eq!(*db.extent(person).unwrap(), BTreeSet::from([o]));
        assert_eq!(rebuilds(&db), 3);
    }

    #[test]
    fn entry_from_a_half_applied_batch_is_not_served_once_the_batch_lands() {
        let (db, person, student, _) = university();
        let clock = Arc::clone(db.store().clock());
        let ticket = clock.begin_write();
        let create = || {
            let _stamp = WriteStampGuard::new(ticket.stamp());
            db.create_object(student, &[]).unwrap()
        };
        let first = create();
        // An unpinned reader racing the batch sees, and caches, the half
        // that is installed.
        assert_eq!(*db.extent(person).unwrap(), BTreeSet::from([first]));
        // A reader pinned now is older than the batch: not its entry.
        let before = clock.pin();
        {
            let _g = tse_storage::ReadEpochGuard::new(before.epoch());
            assert!(db.extent(person).unwrap().is_empty());
        }
        let second = create();
        ticket.end();
        let both = BTreeSet::from([first, second]);
        assert_eq!(*db.extent(person).unwrap(), both);
        let after = clock.pin();
        let _g = tse_storage::ReadEpochGuard::new(after.epoch());
        assert_eq!(*db.extent(person).unwrap(), both);
    }

    #[test]
    fn fork_shared_inherits_every_cached_extent() {
        let (db, person, student, _) = university();
        db.create_object(student, &[]).unwrap();
        let cached = db.extent(person).unwrap();
        let (built, hits) = (rebuilds(&db), cache_hits(&db));

        let mut fork = db.fork_shared();
        assert!(Arc::ptr_eq(&fork.extent(person).unwrap(), &cached));
        // A class the fork adds derives its first extent from its source's
        // entry: the same set, no scan of the object map.
        let primed = fork
            .schema_mut()
            .create_refine_class(
                "Person'",
                person,
                vec![PropertyDef::stored("nick", ValueType::Str, Value::Null)],
                vec![],
            )
            .unwrap();
        assert!(Arc::ptr_eq(&fork.extent(primed).unwrap(), &cached));
        assert_eq!(rebuilds(&fork), built);
        assert_eq!(cache_hits(&fork), hits + 2);
        // What the fork cached stays with the fork.
        assert!(!db.extent_cache.lock().current.contains_key(&primed));
    }

    #[test]
    fn rollback_leaves_nothing_cached_under_a_reused_class_id() {
        let (db, person, _, _) = university();
        let kid = db.create_object(person, &[("age", Value::Int(10))]).unwrap();
        let grown = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let select = |op| Derivation::Select { src: person, pred: Predicate::cmp("age", op, 18) };

        // A failed change: its fork caches an extent for a class it
        // created, aborts and is dropped.
        let mut fork = db.fork_shared();
        let adult = fork.schema_mut().create_virtual_class("Adult", select(BinOp::Ge)).unwrap();
        assert_eq!(*fork.extent(adult).unwrap(), BTreeSet::from([grown]));
        drop(fork);

        let mut fork = db.fork_shared();
        let minor = fork.schema_mut().create_virtual_class("Minor", select(BinOp::Lt)).unwrap();
        assert_eq!(minor, adult, "the dropped fork's id is handed out again");
        assert_eq!(*fork.extent(minor).unwrap(), BTreeSet::from([kid]));
    }

    fn ge_18() -> Predicate {
        Predicate::cmp("age", BinOp::Ge, 18)
    }

    #[test]
    fn an_ad_hoc_select_dies_on_any_value_write_and_any_membership_write() {
        let (mut db, person, _, _) = university();
        let course = db.schema_mut().create_base_class("Course", &[]).unwrap();
        let title = PropertyDef::stored("title", ValueType::Str, Value::Null);
        db.schema_mut().add_local_prop(course, title, None).unwrap();
        let outsider = db.create_object(course, &[]).unwrap();
        db.create_object(person, &[("age", Value::Int(10))]).unwrap();
        let grown = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let adult = || db.select(person, ge_18()).unwrap();
        assert_eq!(adult(), vec![grown]);
        let (built, hits) = (rebuilds(&db), cache_hits(&db));
        assert_eq!(adult(), vec![grown]);
        assert_eq!((rebuilds(&db), cache_hits(&db)), (built, hits + 1), "served");

        // A value write to an object outside the class kills the answer.
        db.write_attr(outsider, course, "title", Value::Str("db".into())).unwrap();
        assert_eq!(adult(), vec![grown]);
        assert_eq!(rebuilds(&db), built + 1, "a value write anywhere kills the answer");
        let built = rebuilds(&db);
        assert_eq!(adult(), vec![grown]);
        assert_eq!(rebuilds(&db), built, "the new answer is served");

        // So does a membership write, with Person's extent under it.
        db.create_object(course, &[]).unwrap();
        assert_eq!(adult(), vec![grown]);
        assert_eq!(rebuilds(&db), built + 2, "the extent and the pass rebuilt");
    }

    #[test]
    fn a_reader_pinned_before_an_answer_gets_its_own_and_stores_nothing() {
        let (db, person, _, _) = university();
        let grown = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let early = db.store().pin_read();
        let late = db.create_object(person, &[("age", Value::Int(50))]).unwrap();
        let adult = || db.select(person, ge_18()).unwrap();
        assert_eq!(adult(), vec![grown, late]);
        let stamp_of = |db: &Database| {
            let cache = db.extent_cache.lock();
            let entries: Vec<u64> = cache.selects.values().map(|e| e.found.stamp).collect();
            entries
        };
        let kept = stamp_of(&db);
        assert_eq!(kept.len(), 1);
        {
            let _g = tse_storage::ReadEpochGuard::new(early.epoch());
            let built = rebuilds(&db);
            assert_eq!(adult(), vec![grown], "the pinned answer");
            assert_eq!(adult(), vec![grown], "and again");
            assert_eq!(rebuilds(&db), built + 3, "two passes and its own extent");
            assert_eq!(stamp_of(&db), kept, "nothing stored for a pinned reader");
        }
        let built = rebuilds(&db);
        assert_eq!(adult(), vec![grown, late]);
        assert_eq!(rebuilds(&db), built, "the unpinned answer is still served");
    }

    #[test]
    fn a_select_from_a_half_applied_batch_is_not_served_once_the_batch_lands() {
        let (db, person, student, _) = university();
        let clock = Arc::clone(db.store().clock());
        let ticket = clock.begin_write();
        let stamped = |write: &dyn Fn() -> Oid| {
            let _stamp = WriteStampGuard::new(ticket.stamp());
            write()
        };
        let first = stamped(&|| db.create_object(student, &[("age", Value::Int(30))]).unwrap());
        let adult = || db.select(person, ge_18()).unwrap();
        // An unpinned reader racing the batch sees, and caches, the half
        // that is installed.
        assert_eq!(adult(), vec![first]);
        // A reader pinned now is older than the batch: not its answer.
        let before = clock.pin();
        {
            let _g = tse_storage::ReadEpochGuard::new(before.epoch());
            assert!(adult().is_empty());
        }
        let second = stamped(&|| db.create_object(student, &[("age", Value::Int(40))]).unwrap());
        stamped(&|| {
            db.write_attr(first, student, "age", Value::Int(5)).unwrap();
            first
        });
        ticket.end();
        assert_eq!(adult(), vec![second]);
        let after = clock.pin();
        let _g = tse_storage::ReadEpochGuard::new(after.epoch());
        assert_eq!(adult(), vec![second]);
    }

    #[test]
    fn a_fork_carries_ad_hoc_answers_and_a_rollback_clears_them() {
        let (db, person, _, _) = university();
        let kid = db.create_object(person, &[("age", Value::Int(10))]).unwrap();
        let grown = db.create_object(person, &[("age", Value::Int(40))]).unwrap();
        let adult = |db: &Database| db.select(person, ge_18()).unwrap();
        let minor = |db: &Database| db.select(person, Predicate::cmp("age", BinOp::Lt, 18)).unwrap();
        assert_eq!(adult(&db), vec![grown]);
        let built = rebuilds(&db);
        let fork = db.fork_shared();
        assert_eq!(adult(&fork), vec![grown]);
        assert_eq!(rebuilds(&fork), built, "the fork is served what the original cached");

        // An answer the fork caches inside a failed change dies with it.
        assert_eq!(minor(&fork), vec![kid]);
        assert_eq!(fork.extent_cache.lock().selects.len(), 2);
        drop(fork);
        assert_eq!(db.extent_cache.lock().selects.len(), 1, "only the original's answer");
        let built = rebuilds(&db);
        assert_eq!(adult(&db), vec![grown]);
        assert_eq!(rebuilds(&db), built, "the original's answer is still served");
        assert_eq!(minor(&db), vec![kid]);
        assert_eq!(rebuilds(&db), built + 1, "the dropped fork's answer is computed again");
    }

    #[test]
    fn a_nan_predicate_answers_correctly_and_never_hits() {
        let (db, _, student, _) = university();
        let a = db.create_object(student, &[("gpa", Value::Float(3.5))]).unwrap();
        let b = db.create_object(student, &[("gpa", Value::Float(f64::NAN))]).unwrap();
        // An ordering with NaN fails as `select_where` does; it caches nothing.
        let unordered = Err(ModelError::MethodEval("cannot compare float with float".into()));
        let cases = [(BinOp::Ne, Ok(vec![a, b])), (BinOp::Eq, Ok(vec![])), (BinOp::Lt, unordered)];
        for (op, expected) in cases {
            let nan = || db.select(student, Predicate::cmp("gpa", op, f64::NAN));
            assert_eq!(nan(), expected);
            let (built, hits) = (rebuilds(&db), cache_hits(&db));
            assert_eq!(nan(), expected);
            let passes = u64::from(expected.is_ok());
            assert_eq!(rebuilds(&db), built + passes, "a NaN constant equals nothing, itself too");
            assert_eq!(cache_hits(&db), hits + 1, "only the source's extent is served");
        }
    }

    /// `tse_workload::history` checks with a point-select per tag: a stream
    /// of distinct selects must not push the class extents out.
    #[test]
    fn distinct_point_selects_never_evict_a_class_extent() {
        let (db, person, _, _) = university();
        for age in 0..64 {
            db.create_object(person, &[("age", Value::Int(age))]).unwrap();
        }
        let people = db.extent(person).unwrap();
        let built = rebuilds(&db);
        for k in 0..10_000 {
            let found = db.select(person, Predicate::cmp("age", BinOp::Eq, k)).unwrap();
            assert_eq!(found.len(), usize::from(k < 64));
            assert!(db.extent_cache.lock().selects.len() <= EXTENT_CACHE_CAP);
        }
        assert_eq!(rebuilds(&db), built + 10_000, "one pass each, and Person's extent never");
        assert!(Arc::ptr_eq(&db.extent(person).unwrap(), &people));
        assert_eq!(db.extent_cache.lock().selects.len(), EXTENT_CACHE_CAP);
    }

    /// A late membership edit lands on the version visible at its stamp,
    /// reaches the head, and does not leak the newer edit to readers
    /// between the two stamps.
    #[test]
    fn a_late_membership_edit_reaches_the_head_and_hides_newer_edits_below_it() {
        let mut db = Database::default();
        let [a, b, c] =
            ["A", "B", "C"].map(|name| db.schema_mut().create_base_class(name, &[]).unwrap());
        let oid = {
            let _stamp = WriteStampGuard::new(1);
            db.create_object(a, &[]).unwrap()
        };
        let edit = |stamp, add: bool, class| {
            let _stamp = WriteStampGuard::new(stamp);
            if add {
                db.add_to_class(oid, class)
            } else {
                db.remove_from_class(oid, class)
            }
            .unwrap();
        };
        let classes = |epoch: Option<u64>| {
            let _pin = epoch.map(tse_storage::ReadEpochGuard::new);
            db.direct_classes(oid).unwrap()
        };
        edit(5, true, b);
        edit(3, true, c); // late
        assert_eq!(classes(None), BTreeSet::from([a, b, c]));
        assert_eq!(classes(Some(4)), BTreeSet::from([a, c]));
        assert_eq!(classes(Some(2)), BTreeSet::from([a]));

        // A late removal is carried the same way, and a newer version that
        // changed the class itself keeps its own answer.
        edit(7, false, c);
        edit(6, false, a); // late
        edit(4, true, a); // late, and below a version that removed `a`
        assert_eq!(classes(None), BTreeSet::from([b]));
        assert_eq!(classes(Some(6)), BTreeSet::from([b, c]));
        assert_eq!(classes(Some(5)), BTreeSet::from([a, b, c]));
        assert_eq!(classes(Some(4)), BTreeSet::from([a, c]));
    }

    #[test]
    fn slicing_stats_follow_table1_formulas() {
        let (db, _, student, _) = university();
        let o = db.create_object(student, &[("name", "a".into())]).unwrap();
        db.write_attr(o, student, "gpa", Value::Float(3.5)).unwrap();
        let stats = db.slicing_stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.implementation_objects, 2);
        assert_eq!(stats.oids, 3); // 1 + N_impl
        assert_eq!(stats.managerial_bytes, 3 * 8 + 2 * 2 * 8);
    }
}
