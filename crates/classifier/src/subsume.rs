//! Extent subsumption reasoning.
//!
//! The classifier needs to *prove* `extent(A) ⊆ extent(B)` from schema
//! structure alone (extents change with every update; placements must be
//! intensional). Provable facts:
//!
//! * is-a edge `sub → sup` implies `sub ⊆ sup` (membership closure);
//! * `select(C,p) ⊆ C`; `difference(A,B) ⊆ A`; `intersect(A,B) ⊆ A, B`;
//! * `hide(C) ≡ C` and `refine(C) ≡ C` (object-preserving, extent equal);
//! * `A ⊆ union(A,B)`, `B ⊆ union(A,B)`;
//! * two classes with *identical derivations* are extent-equal (‡);
//! * `union(A,B) ⊆ Y` if `A ⊆ Y` and `B ⊆ Y` (conjunction);
//! * `X ⊆ intersect(A,B)` if `X ⊆ A` and `X ⊆ B` (conjunction);
//! * `X ⊆ (A ∖ B)` if `X ⊆ A` and `X` provably disjoint from `B`
//!   (disjointness: one side is a difference that subtracted the other);
//! * monotonicity: `select(A,p) ⊆ select(B,p)` if `A ⊆ B`, and
//!   `(A ∖ C) ⊆ (B ∖ D)` if `A ⊆ B` and `D ⊆ C` (‡) — the paper's §6.7.3
//!   argument ("the derivation procedure of C_add is the same as that of
//!   C_sup except that C_add's origin classes are subclasses of C_sup's");
//! * transitivity of all of the above.
//!
//! (‡) These two follow from the others and have no code of their own.
//! `(A ∖ C) ⊆ A ⊆ B`, and `A ∖ C` subtracted a superset of `D`, so the
//! disjointness rule puts it inside `B ∖ D`. Identical derivations are
//! extent-equal operator by operator: hide and refine through their source,
//! select by monotonicity over `A ⊆ A`, union and intersect by their
//! conjunction rules, difference by the line above. The test oracle
//! (`batch.rs`) keeps both as explicit rules.
//!
//! The prover keeps the **saturated** pairwise relation (bitset rows), so
//! queries are O(1) and the rule set stays obviously terminating — a naive
//! recursive search over these rules is exponential because the
//! extent-equality edges make the proof graph cyclic.
//!
//! The relation **lives as long as the schema it describes** and is extended
//! one class at a time ([`Subsumption::advance`]). Every rule above only
//! ever *adds* facts, and the base facts only grow: classes are append-only,
//! a derivation is fixed before its class is classified, and the only is-a
//! edges ever removed (a duplicate's, or one the classifier found redundant)
//! stay implied by what remains. So the least fixpoint reached from the
//! previous fixpoint plus the new class's facts *is* the least fixpoint of
//! the whole schema, and inserting a class costs what its row and column
//! touch: each new fact `a ⊆ b` is closed transitively through the
//! predecessors of `a`, and only the rules indexed under `a` or `b` are
//! tried again. A rule is tried when its owner is inserted (against the
//! facts that already hold) and whenever one of its premises becomes true
//! later, so whichever premise comes last finds the others set.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use tse_object_model::{ClassId, Derivation, Predicate, Schema};

/// End of an intrusive list.
const NONE: u32 = u32::MAX;

/// Indices of the bits set in `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| w as u32 * 64 + bits.trailing_zeros())
    })
}

/// Square boolean matrix with u64-packed rows, growable by one row and
/// column at a time. The row stride doubles when the columns outgrow it, so
/// crossing a multiple of 64 classes re-lays the rows out O(log n) times.
#[derive(Clone, Default)]
struct BitMatrix {
    n: usize,
    stride: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    fn push(&mut self) {
        self.n += 1;
        if self.n > self.stride * 64 {
            let stride = (self.stride * 2).max(1);
            let mut data = vec![0; self.data.len() / self.stride.max(1) * stride];
            for (old, new) in self.data.chunks(self.stride.max(1)).zip(data.chunks_mut(stride)) {
                new[..old.len()].copy_from_slice(old);
            }
            self.stride = stride;
            self.data = data;
        }
        self.data.resize(self.n * self.stride, 0);
    }

    #[inline]
    fn get(&self, a: u32, b: u32) -> bool {
        self.data[a as usize * self.stride + b as usize / 64] & (1 << (b % 64)) != 0
    }

    #[inline]
    fn set(&mut self, a: u32, b: u32) {
        self.data[a as usize * self.stride + b as usize / 64] |= 1 << (b % 64);
    }

    fn row(&self, a: u32) -> &[u64] {
        &self.data[a as usize * self.stride..][..self.stride]
    }

    fn row_mut(&mut self, a: u32) -> &mut [u64] {
        &mut self.data[a as usize * self.stride..][..self.stride]
    }
}

/// Append-only multimap from a class to small `Copy` items, stored as
/// intrusive lists in two flat vectors (a clone is two `memcpy`s, and a walk
/// holds no borrow between steps).
#[derive(Clone)]
struct Chains<T> {
    head: Vec<u32>,
    links: Vec<(T, u32)>,
}

impl<T> Default for Chains<T> {
    fn default() -> Self {
        Chains { head: Vec::new(), links: Vec::new() }
    }
}

impl<T: Copy> Chains<T> {
    fn push(&mut self, key: u32, item: T) {
        self.links.push((item, self.head[key as usize]));
        self.head[key as usize] = self.links.len() as u32 - 1;
    }

    /// Cursor to the first item filed under `key`.
    fn first(&self, key: u32) -> u32 {
        self.head[key as usize]
    }

    /// The item at `cursor` and the cursor after it; `None` at the end.
    fn at(&self, cursor: u32) -> Option<(T, u32)> {
        self.links.get(cursor as usize).copied()
    }
}

/// Hash index from a fingerprint to the classes carrying it, newest first
/// (`prev` links every class to the one filed before it under the same
/// fingerprint). Colliding fingerprints share a list; callers confirm.
#[derive(Clone, Default)]
struct Buckets {
    newest: HashMap<u64, u32>,
    prev: Vec<u32>,
}

impl Buckets {
    /// File `class` and return the class filed before it, if any.
    fn insert(&mut self, fingerprint: u64, class: u32) -> u32 {
        let before = self.newest.insert(fingerprint, class).unwrap_or(NONE);
        self.prev[class as usize] = before;
        before
    }
}

fn fingerprint(item: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    item.hash(&mut hasher);
    hasher.finish()
}

/// What the rules need to know about a class's derivation.
#[derive(Clone, Copy)]
enum Shape {
    /// Base, hide and refine classes: base facts only, no rule of their own.
    Plain,
    /// `pred` names the predicate: the first class that selected by an
    /// equal one.
    Select {
        src: u32,
        pred: u32,
    },
    Union {
        a: u32,
        b: u32,
    },
    Intersect {
        a: u32,
        b: u32,
    },
    Difference {
        a: u32,
        b: u32,
    },
}

/// How a rule's owner uses an operand class.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    UnionArg,
    IntersectArg,
    SelectSrc,
    Minuend,
    Subtrahend,
}

fn select_pred(schema: &Schema, class: u32) -> Option<&Predicate> {
    match schema.class(ClassId(class)).ok()?.derivation()? {
        Derivation::Select { pred, .. } => Some(pred),
        _ => None,
    }
}

/// The subsumption prover: the saturated `⊆` relation over the classes of
/// one schema, extended as the schema grows (see the module docs). Queries
/// are O(1); classes the prover has not been advanced over are related to
/// nothing.
///
/// The state must be dropped ([`Default`]) whenever class ids can be handed
/// out again — after a rolled-back evolution — because [`advance`] only
/// looks at classes it has not seen. It is never persisted: a fresh prover
/// advances over the whole schema on first use.
///
/// [`advance`]: Subsumption::advance
#[derive(Clone, Default)]
pub struct Subsumption {
    /// `above.get(a, b)`: `a ⊆ b` is proven. Reflexive, and transitively
    /// closed whenever `pending` is empty.
    above: BitMatrix,
    /// The transpose: row `b` holds everything proven `⊆ b`.
    below: BitMatrix,
    shapes: Vec<Shape>,
    /// Operand class → `(role, owner)` of every rule that mentions it.
    uses: Chains<(Role, u32)>,
    by_predicate: Buckets,
    /// New facts whose consequences are still to be drawn.
    pending: Vec<(u32, u32)>,
}

impl Subsumption {
    /// Number of classes advanced over.
    pub fn known(&self) -> usize {
        self.shapes.len()
    }

    /// Is `extent(a) ⊆ extent(b)` provable?
    pub fn subsumes(&self, a: ClassId, b: ClassId) -> bool {
        (a.0 as usize) < self.known() && (b.0 as usize) < self.known() && self.above.get(a.0, b.0)
    }

    /// Are the extents provably equal?
    pub fn extent_equal(&self, a: ClassId, b: ClassId) -> bool {
        self.subsumes(a, b) && self.subsumes(b, a)
    }

    /// Every other class whose extent provably contains, or is contained
    /// in, `class`'s — its row and its column — in id order.
    pub fn related(&self, class: ClassId) -> Vec<ClassId> {
        if class.0 as usize >= self.known() {
            return Vec::new();
        }
        let (row, column) = (self.above.row(class.0), self.below.row(class.0));
        let either: Vec<u64> = row.iter().zip(column).map(|(r, c)| r | c).collect();
        ones(&either).map(ClassId).filter(|other| *other != class).collect()
    }

    /// Extend the relation over the classes of `schema` not seen yet
    /// (`known()..class_count()`), in id order. Each reads its own
    /// derivation and its direct supers *and* subs, so base classes, the
    /// sub-query classes `define_vc` flattens out, and classes created
    /// straight through `schema_mut()` are all picked up, whatever created
    /// them. Is-a edges between two classes already known are not re-read.
    pub fn advance(&mut self, schema: &Schema) {
        for class in self.known() as u32..schema.class_count() as u32 {
            self.insert(schema, class);
            while let Some((p, q)) = self.pending.pop() {
                self.fire(p, q);
            }
        }
    }

    fn insert(&mut self, schema: &Schema, c: u32) {
        self.above.push();
        self.below.push();
        self.above.set(c, c);
        self.below.set(c, c);
        self.shapes.push(Shape::Plain);
        self.uses.head.push(NONE);
        self.by_predicate.prev.push(NONE);
        let cls = schema.class(ClassId(c)).expect("advance stays below class_count");

        // Edges to classes not inserted yet are read when those are.
        for sup in cls.direct_supers().iter().filter(|s| s.0 < c) {
            self.add(c, sup.0);
        }
        for sub in cls.direct_subs().iter().filter(|s| s.0 < c) {
            self.add(sub.0, c);
        }
        let Some(derivation) = cls.derivation() else { return };

        match derivation {
            Derivation::Hide { src, .. } | Derivation::Refine { src, .. } => {
                self.add(c, src.0);
                self.add(src.0, c);
            }
            Derivation::Select { src, pred } => {
                let newest = self.by_predicate.insert(fingerprint(pred), c);
                let mut name = c;
                let mut other = newest;
                while other != NONE {
                    if select_pred(schema, other) == Some(pred) {
                        if let Shape::Select { pred, .. } = self.shapes[other as usize] {
                            name = pred;
                        }
                        break;
                    }
                    other = self.by_predicate.prev[other as usize];
                }
                self.shapes[c as usize] = Shape::Select { src: src.0, pred: name };
                self.uses.push(src.0, (Role::SelectSrc, c));
                self.add(c, src.0);
                let mut other = newest;
                while other != NONE {
                    self.try_select_pair(c, other);
                    self.try_select_pair(other, c);
                    other = self.by_predicate.prev[other as usize];
                }
            }
            Derivation::Union { a, b } => {
                self.shapes[c as usize] = Shape::Union { a: a.0, b: b.0 };
                self.uses.push(a.0, (Role::UnionArg, c));
                self.uses.push(b.0, (Role::UnionArg, c));
                self.add(a.0, c);
                self.add(b.0, c);
                let both: Vec<u64> = self
                    .above
                    .row(a.0)
                    .iter()
                    .zip(self.above.row(b.0))
                    .map(|(x, y)| x & y)
                    .collect();
                for q in ones(&both) {
                    self.add(c, q);
                }
            }
            Derivation::Intersect { a, b } => {
                self.shapes[c as usize] = Shape::Intersect { a: a.0, b: b.0 };
                self.uses.push(a.0, (Role::IntersectArg, c));
                self.uses.push(b.0, (Role::IntersectArg, c));
                self.add(c, a.0);
                self.add(c, b.0);
                let both: Vec<u64> = self
                    .below
                    .row(a.0)
                    .iter()
                    .zip(self.below.row(b.0))
                    .map(|(x, y)| x & y)
                    .collect();
                for p in ones(&both) {
                    self.add(p, c);
                }
            }
            Derivation::Difference { a, b } => {
                self.shapes[c as usize] = Shape::Difference { a: a.0, b: b.0 };
                self.uses.push(a.0, (Role::Minuend, c));
                self.uses.push(b.0, (Role::Subtrahend, c));
                self.add(c, a.0);
                let inside: Vec<u32> = ones(self.below.row(a.0)).collect();
                for p in inside {
                    self.try_into_difference(p, c);
                }
            }
        }
    }

    /// Record `a ⊆ b` and close it transitively: everything below `a` is now
    /// below everything above `b`. Every pair this proves for the first
    /// time is queued for [`Subsumption::fire`].
    fn add(&mut self, a: u32, b: u32) {
        if self.above.get(a, b) {
            return;
        }
        let targets = self.above.row(b).to_vec();
        let sources: Vec<u32> = ones(self.below.row(a)).collect();
        for p in sources {
            for (w, target) in targets.iter().enumerate() {
                let fresh = target & !self.above.row(p)[w];
                if fresh == 0 {
                    continue;
                }
                self.above.row_mut(p)[w] |= fresh;
                for q in ones(&[fresh]) {
                    let q = w as u32 * 64 + q;
                    self.below.set(q, p);
                    self.pending.push((p, q));
                }
            }
        }
    }

    /// Call `f` with the owner of every rule that uses `operand` as `role`.
    fn each_use(&mut self, operand: u32, role: Role, mut f: impl FnMut(&mut Self, u32)) {
        let mut cursor = self.uses.first(operand);
        while let Some(((found, owner), next)) = self.uses.at(cursor) {
            if found == role {
                f(self, owner);
            }
            cursor = next;
        }
    }

    /// `p ⊆ q` has just been proven: try every rule it can be a premise of.
    fn fire(&mut self, p: u32, q: u32) {
        // A union over p fits under q once its other operand does.
        self.each_use(p, Role::UnionArg, |prover, u| prover.try_union(u, q));
        // Anything under both operands is under their intersection.
        self.each_use(q, Role::IntersectArg, |prover, i| prover.try_intersect(p, i));
        // select(p, f) ⊆ select(q, f).
        self.each_use(p, Role::SelectSrc, |prover, s1| {
            prover.each_use(q, Role::SelectSrc, |prover, s2| prover.try_select_pair(s1, s2));
        });
        // x = (_ ∖ q) subtracted a superset of p, so it is disjoint from p
        // and may fit into any d = (_ ∖ p).
        self.each_use(p, Role::Subtrahend, |prover, d| {
            prover.each_use(q, Role::Subtrahend, |prover, x| prover.try_into_difference(x, d));
        });
        // p inside a minuend may be inside the difference.
        self.each_use(q, Role::Minuend, |prover, d| prover.try_into_difference(p, d));
        // e = (_ ∖ q) is disjoint from p, so p may fit into any (_ ∖ e).
        self.each_use(q, Role::Subtrahend, |prover, e| {
            prover.each_use(e, Role::Subtrahend, |prover, d| prover.try_into_difference(p, d));
        });
    }

    /// `union(x,y) ⊆ q` when `x ⊆ q` and `y ⊆ q`.
    fn try_union(&mut self, u: u32, q: u32) {
        if let Shape::Union { a, b } = self.shapes[u as usize] {
            if self.above.get(a, q) && self.above.get(b, q) {
                self.add(u, q);
            }
        }
    }

    /// `p ⊆ intersect(x,y)` when `p ⊆ x` and `p ⊆ y`.
    fn try_intersect(&mut self, p: u32, i: u32) {
        if let Shape::Intersect { a, b } = self.shapes[i as usize] {
            if self.above.get(p, a) && self.above.get(p, b) {
                self.add(p, i);
            }
        }
    }

    /// `select(A,f) ⊆ select(B,f)` when `A ⊆ B`.
    fn try_select_pair(&mut self, s1: u32, s2: u32) {
        if let (Shape::Select { src: a, pred: f }, Shape::Select { src: b, pred: g }) =
            (self.shapes[s1 as usize], self.shapes[s2 as usize])
        {
            if s1 != s2 && f == g && self.above.get(a, b) {
                self.add(s1, s2);
            }
        }
    }

    /// `x ⊆ (c ∖ e)` when `x ⊆ c` and `x` is disjoint from `e`: `e`
    /// subtracted something `x` lies in, or `x` subtracted something `e`
    /// lies in.
    fn try_into_difference(&mut self, x: u32, d: u32) {
        let Shape::Difference { a: c, b: e } = self.shapes[d as usize] else { return };
        if self.above.get(x, d) || !self.above.get(x, c) {
            return;
        }
        let subtracted = |class: u32| match self.shapes[class as usize] {
            Shape::Difference { b, .. } => Some(b),
            _ => None,
        };
        if subtracted(e).is_some_and(|s| self.above.get(x, s))
            || subtracted(x).is_some_and(|s| self.above.get(e, s))
        {
            self.add(x, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClosure;
    use proptest::prelude::*;
    use tse_object_model::BinOp;

    fn saturated(schema: &Schema) -> Subsumption {
        let mut prover = Subsumption::default();
        prover.advance(schema);
        prover
    }

    /// Bit-for-bit comparison with the from-scratch oracle.
    fn diverges_from_batch(prover: &Subsumption, schema: &Schema) -> Option<String> {
        let oracle = BatchClosure::new(schema);
        for a in schema.class_ids() {
            for b in schema.class_ids() {
                if prover.subsumes(a, b) != oracle.subsumes(a, b) {
                    return Some(format!(
                        "{a} ⊆ {b}: persistent {}, from scratch {}",
                        prover.subsumes(a, b),
                        oracle.subsumes(a, b)
                    ));
                }
            }
        }
        None
    }

    fn schema() -> (Schema, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let staff = s.create_base_class("Staff", &[person]).unwrap();
        (s, person, student, staff)
    }

    #[test]
    fn isa_edges_imply_subsumption() {
        let (s, person, student, staff) = schema();
        let sub = saturated(&s);
        assert!(sub.subsumes(student, person));
        assert!(!sub.subsumes(person, student));
        assert!(!sub.subsumes(student, staff));
        assert!(sub.subsumes(student, s.root()));
    }

    #[test]
    fn operator_rules() {
        let (mut s, person, student, staff) = schema();
        let sel = s
            .create_virtual_class("Sel", Derivation::Select { src: person, pred: Predicate::TRUE })
            .unwrap();
        let hid = s
            .create_virtual_class("Hid", Derivation::Hide { src: student, hidden: vec![] })
            .unwrap();
        let refi = s.create_refine_class("Ref", student, vec![], vec![]).unwrap();
        let uni =
            s.create_virtual_class("Uni", Derivation::Union { a: student, b: staff }).unwrap();
        let dif = s
            .create_virtual_class("Dif", Derivation::Difference { a: person, b: student })
            .unwrap();
        let int =
            s.create_virtual_class("Int", Derivation::Intersect { a: student, b: staff }).unwrap();
        let mut sub = saturated(&s);
        // select ⊆ src, not conversely.
        assert!(sub.subsumes(sel, person));
        assert!(!sub.subsumes(person, sel));
        // hide/refine ≡ src.
        assert!(sub.extent_equal(hid, student));
        assert!(sub.extent_equal(refi, student));
        // sources ⊆ union; union ⊆ common ancestors (conjunction).
        assert!(sub.subsumes(student, uni));
        assert!(sub.subsumes(staff, uni));
        assert!(sub.subsumes(uni, person), "union of subclasses fits under Person");
        assert!(!sub.subsumes(uni, student));
        // diff ⊆ first arg.
        assert!(sub.subsumes(dif, person));
        assert!(!sub.subsumes(dif, student));
        // intersect ⊆ both; things below both ⊆ intersect (conjunction) —
        // also for a class that arrives after the intersection.
        assert!(sub.subsumes(int, student) && sub.subsumes(int, staff));
        let working = s.create_base_class("WorkingStudent", &[student, staff]).unwrap();
        assert!(!sub.subsumes(working, int), "not advanced over yet");
        sub.advance(&s);
        assert!(sub.subsumes(working, int));
    }

    #[test]
    fn transitivity_through_mixed_chains() {
        let (mut s, person, student, _) = schema();
        let honor = s
            .create_virtual_class(
                "Honor",
                Derivation::Select { src: student, pred: Predicate::TRUE },
            )
            .unwrap();
        let honor_plus = s.create_refine_class("Honor+", honor, vec![], vec![]).unwrap();
        let sub = saturated(&s);
        assert!(sub.subsumes(honor_plus, person));
        assert!(sub.extent_equal(honor_plus, honor));
        assert!(!sub.extent_equal(honor_plus, student));
    }

    #[test]
    fn no_false_positives_between_siblings() {
        let (mut s, _, student, staff) = schema();
        let a = s
            .create_virtual_class("A", Derivation::Select { src: student, pred: Predicate::TRUE })
            .unwrap();
        let b = s
            .create_virtual_class("B", Derivation::Select { src: staff, pred: Predicate::TRUE })
            .unwrap();
        let sub = saturated(&s);
        assert!(!sub.subsumes(a, b));
        assert!(!sub.subsumes(b, a));
        assert!(!sub.extent_equal(a, b));
        assert!(!sub.related(a).contains(&b));
    }

    #[test]
    fn monotone_select_rule() {
        // select(Sub, p) ⊆ select(Sup, p) — the §6.7.3 add-class argument.
        let (mut s, person, student, _) = schema();
        let p = Predicate::TRUE;
        let big = s
            .create_virtual_class("Big", Derivation::Select { src: person, pred: p.clone() })
            .unwrap();
        let small =
            s.create_virtual_class("Small", Derivation::Select { src: student, pred: p }).unwrap();
        let sub = saturated(&s);
        assert!(sub.subsumes(small, big));
        assert!(!sub.subsumes(big, small));
    }

    #[test]
    fn difference_disjointness_rule() {
        // TA-like class is provably inside diff(Person, Student ∖ TA).
        let mut s = Schema::new();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student]).unwrap();
        let s_minus_ta =
            s.create_virtual_class("SmT", Derivation::Difference { a: student, b: ta }).unwrap();
        let p_minus = s
            .create_virtual_class("PmSmT", Derivation::Difference { a: person, b: s_minus_ta })
            .unwrap();
        let sub = saturated(&s);
        assert!(sub.subsumes(ta, p_minus), "TA ⊆ Person ∖ (Student ∖ TA)");
        assert!(!sub.subsumes(student, p_minus));
    }

    #[test]
    fn identical_derivations_are_extent_equal() {
        let (mut s, person, _, _) = schema();
        let a = s
            .create_virtual_class("A", Derivation::Select { src: person, pred: Predicate::TRUE })
            .unwrap();
        let b = s
            .create_virtual_class("B", Derivation::Select { src: person, pred: Predicate::TRUE })
            .unwrap();
        let sub = saturated(&s);
        assert!(sub.extent_equal(a, b));
    }

    #[test]
    fn equal_predicates_with_different_bits_share_the_index() {
        // 0.0 == -0.0: the hash index must file both predicates together.
        let (mut s, person, student, _) = schema();
        let at = |zero: f64| Predicate::cmp("x", BinOp::Ge, zero);
        let big = s
            .create_virtual_class("Big", Derivation::Select { src: person, pred: at(0.0) })
            .unwrap();
        let small = s
            .create_virtual_class("Small", Derivation::Select { src: student, pred: at(-0.0) })
            .unwrap();
        let twin = s
            .create_virtual_class("Twin", Derivation::Select { src: person, pred: at(-0.0) })
            .unwrap();
        let sub = saturated(&s);
        assert!(sub.subsumes(small, big));
        assert!(sub.extent_equal(twin, big));
        assert_eq!(diverges_from_batch(&sub, &s), None);
    }

    #[test]
    fn a_new_class_brings_its_supers_and_its_subs() {
        // A base class spliced in above an existing one through
        // `schema_mut()`-style calls: the edge to the old class hangs off
        // the *new* class's sub list.
        let (mut s, person, student, staff) = schema();
        let mut sub = saturated(&s);
        let member = s.create_base_class("Member", &[person]).unwrap();
        s.add_edge(member, student).unwrap();
        sub.advance(&s);
        assert!(sub.subsumes(student, member) && sub.subsumes(member, person));
        assert!(!sub.subsumes(staff, member));
        assert_eq!(sub.known(), s.class_count());
        assert_eq!(diverges_from_batch(&sub, &s), None);
    }

    #[test]
    fn the_matrix_survives_growing_past_its_stride() {
        let mut s = Schema::new();
        let mut sub = Subsumption::default();
        let mut last = s.root();
        for i in 0..200 {
            last = s.create_base_class(&format!("C{i}"), &[last]).unwrap();
            if i % 7 == 0 {
                sub.advance(&s);
            }
        }
        sub.advance(&s);
        for a in s.class_ids() {
            for b in s.class_ids() {
                assert_eq!(sub.subsumes(a, b), a >= b, "a chain: {a} ⊆ {b}");
            }
        }
    }

    /// One step of a random schema history.
    #[derive(Debug, Clone)]
    enum Step {
        Base {
            sup: usize,
            sub: usize,
        },
        Derive {
            op: usize,
            x: usize,
            y: usize,
            pred: usize,
        },
        /// What the classifier does after a placement: add an implied edge
        /// and drop one that became redundant.
        Wire {
            a: usize,
            b: usize,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..64, 0usize..64).prop_map(|(sup, sub)| Step::Base { sup, sub }),
            (0usize..10, 0usize..64, 0usize..64, 0usize..4)
                .prop_map(|(op, x, y, pred)| Step::Derive { op, x, y, pred }),
            (0usize..10, 0usize..64, 0usize..64, 0usize..4)
                .prop_map(|(op, x, y, pred)| Step::Derive { op, x, y, pred }),
            (0usize..10, 0usize..64, 0usize..64, 0usize..4)
                .prop_map(|(op, x, y, pred)| Step::Derive { op, x, y, pred }),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Wire { a, b }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Random derivation DAGs over all six operators, base classes with
        /// edges in both directions and classifier-style rewiring: after
        /// every step the persistent relation equals a from-scratch one.
        #[test]
        fn persistent_relation_equals_a_from_scratch_saturation(
            steps in proptest::collection::vec(step(), 1..60),
            lag in 1usize..4,
        ) {
            let preds = [
                Predicate::TRUE,
                Predicate::is_set("x"),
                Predicate::cmp("x", BinOp::Ge, 0.0),
                Predicate::cmp("x", BinOp::Ge, -0.0),
            ];
            let (mut s, ..) = schema();
            let mut prover = Subsumption::default();
            for (i, step) in steps.iter().enumerate() {
                // Operands come from the first few classes or the latest
                // few, so that rules with several premises meet them.
                let n = s.class_count();
                let pick = |k: usize| {
                    ClassId(if k < 32 { k % n.min(5) } else { n - 1 - k % n.min(6) } as u32)
                };
                let name = format!("V{i}");
                match *step {
                    Step::Base { sup, sub } => {
                        let (sup, sub) = (pick(sup), pick(sub));
                        let id = s.create_base_class(&name, &[sup]).unwrap();
                        // Refused when it would close a cycle.
                        let _ = s.add_edge(id, sub);
                    }
                    Step::Derive { op, x, y, pred } => {
                        let (a, b) = (pick(x), pick(y));
                        let derivation = match op {
                            0 | 1 => Derivation::Select { src: a, pred: preds[pred].clone() },
                            2 => Derivation::Hide { src: a, hidden: vec![] },
                            3 => Derivation::Union { a, b },
                            4 => Derivation::Intersect { a, b },
                            5..=8 => Derivation::Difference { a, b },
                            _ => {
                                s.create_refine_class(&name, a, vec![], vec![]).unwrap();
                                continue;
                            }
                        };
                        s.create_virtual_class(&name, derivation).unwrap();
                    }
                    Step::Wire { a, b } => {
                        // Only between classes the prover has seen and
                        // relates, as the classifier does.
                        prover.advance(&s);
                        let (a, b) = (pick(a), pick(b));
                        if a != b && prover.subsumes(a, b) && s.add_edge(b, a).is_ok() {
                            let above_b = s.class(b).unwrap().direct_supers().to_vec();
                            for top in above_b {
                                if s.class(a).unwrap().direct_supers().contains(&top) {
                                    s.remove_edge(top, a).unwrap();
                                }
                            }
                        }
                    }
                }
                // Advance over one class or several at a time.
                if i % lag == 0 {
                    prover.advance(&s);
                    prop_assert_eq!(diverges_from_batch(&prover, &s), None, "after step {}", i);
                }
            }
            prover.advance(&s);
            prop_assert_eq!(diverges_from_batch(&prover, &s), None);
            prop_assert_eq!(diverges_from_batch(&saturated(&s), &s), None);
        }
    }
}
