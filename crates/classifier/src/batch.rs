//! Test oracle: the subsumption relation saturated **from scratch** by
//! whole-matrix sweeps, with every rule written as a loop over all classes.
//!
//! This is the batch fixpoint the persistent prover (`subsume.rs`) replaced.
//! It shares no code with it and uses nothing but the public schema API, so
//! the differential tests — this crate's unit tests and, through a `#[path]`
//! include, the workspace's `tests/prover.rs` — can compare the two bit for
//! bit. It is not part of the library.

use tse_object_model::{ClassId, ClassKind, Derivation, Schema};

/// Row `a`, bit `b`: `extent(a) ⊆ extent(b)` is provable.
pub struct BatchClosure {
    rows: Vec<Vec<u64>>,
}

fn get(rows: &[Vec<u64>], a: usize, b: usize) -> bool {
    rows[a][b / 64] & (1 << (b % 64)) != 0
}

/// Set the bit; `true` when it was clear.
fn set(rows: &mut [Vec<u64>], a: usize, b: usize) -> bool {
    let fresh = !get(rows, a, b);
    rows[a][b / 64] |= 1 << (b % 64);
    fresh
}

impl BatchClosure {
    /// Initialise the one-step relation of `schema` and saturate it.
    pub fn new(schema: &Schema) -> Self {
        let n = schema.class_count();
        let mut rows = vec![vec![0u64; n.div_ceil(64)]; n];

        let mut unions: Vec<(usize, usize, usize)> = Vec::new();
        let mut intersects: Vec<(usize, usize, usize)> = Vec::new();
        let mut diffs: Vec<(usize, usize, usize)> = Vec::new();
        let mut selects: Vec<(usize, usize, &Derivation)> = Vec::new();
        let mut virtuals: Vec<(usize, &Derivation)> = Vec::new();

        for id in schema.class_ids() {
            let i = id.0 as usize;
            set(&mut rows, i, i);
            let cls = schema.class(id).expect("id from class_ids");
            for sup in cls.direct_supers() {
                set(&mut rows, i, sup.0 as usize);
            }
            let ClassKind::Virtual(d) = &cls.kind else { continue };
            virtuals.push((i, d));
            match d {
                Derivation::Select { src, .. } => {
                    set(&mut rows, i, src.0 as usize);
                    selects.push((i, src.0 as usize, d));
                }
                Derivation::Hide { src, .. } | Derivation::Refine { src, .. } => {
                    set(&mut rows, i, src.0 as usize);
                    set(&mut rows, src.0 as usize, i);
                }
                Derivation::Union { a, b } => {
                    set(&mut rows, a.0 as usize, i);
                    set(&mut rows, b.0 as usize, i);
                    unions.push((i, a.0 as usize, b.0 as usize));
                }
                Derivation::Difference { a, b } => {
                    set(&mut rows, i, a.0 as usize);
                    diffs.push((i, a.0 as usize, b.0 as usize));
                }
                Derivation::Intersect { a, b } => {
                    set(&mut rows, i, a.0 as usize);
                    set(&mut rows, i, b.0 as usize);
                    intersects.push((i, a.0 as usize, b.0 as usize));
                }
            }
        }

        // Identical derivations ⇒ identical extents.
        for (i, (ca, da)) in virtuals.iter().enumerate() {
            for (cb, db) in virtuals.iter().skip(i + 1) {
                if da == db {
                    set(&mut rows, *ca, *cb);
                    set(&mut rows, *cb, *ca);
                }
            }
        }

        // Monotone-select candidate pairs (same predicate).
        let mut select_pairs: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (i, (s1, src1, d1)) in selects.iter().enumerate() {
            for (s2, src2, d2) in selects.iter().skip(i + 1) {
                let same_pred = match (d1, d2) {
                    (Derivation::Select { pred: p1, .. }, Derivation::Select { pred: p2, .. }) => {
                        p1 == p2
                    }
                    _ => false,
                };
                if same_pred {
                    select_pairs.push((*s1, *src1, *s2, *src2));
                    select_pairs.push((*s2, *src2, *s1, *src1));
                }
            }
        }
        let subtrahend_of =
            |c: usize| diffs.iter().find(|(d, _, _)| *d == c).map(|(_, _, sub)| *sub);

        let mut changed = true;
        while changed {
            changed = false;
            // Transitivity: row(a) |= row(b) for every b that a reaches.
            for a in 0..n {
                for b in 0..n {
                    if a != b && get(&rows, a, b) {
                        for w in 0..rows[a].len() {
                            let merged = rows[a][w] | rows[b][w];
                            changed |= merged != rows[a][w];
                            rows[a][w] = merged;
                        }
                    }
                }
            }
            // union(x,y) ⊆ everything both x and y are ⊆ of.
            for &(u, x, y) in &unions {
                for q in 0..n {
                    if get(&rows, x, q) && get(&rows, y, q) {
                        changed |= set(&mut rows, u, q);
                    }
                }
            }
            // a ⊆ intersect(x,y) when a ⊆ x and a ⊆ y.
            for &(i, x, y) in &intersects {
                for a in 0..n {
                    if get(&rows, a, x) && get(&rows, a, y) {
                        changed |= set(&mut rows, a, i);
                    }
                }
            }
            // a ⊆ (c ∖ e) when a ⊆ c and a is disjoint from e: e subtracted
            // something a lies in, or a subtracted something e lies in.
            for &(d, c, e) in &diffs {
                for a in 0..n {
                    if !get(&rows, a, c) {
                        continue;
                    }
                    let disjoint = subtrahend_of(e).is_some_and(|s| get(&rows, a, s))
                        || subtrahend_of(a).is_some_and(|s| get(&rows, e, s));
                    if disjoint {
                        changed |= set(&mut rows, a, d);
                    }
                }
            }
            // Monotone select: select(A,p) ⊆ select(B,p) when A ⊆ B.
            for &(s1, src1, s2, src2) in &select_pairs {
                if get(&rows, src1, src2) {
                    changed |= set(&mut rows, s1, s2);
                }
            }
            // Monotone difference: (A ∖ C) ⊆ (B ∖ D) when A ⊆ B and D ⊆ C.
            for &(d1, a1, b1) in &diffs {
                for &(d2, a2, b2) in &diffs {
                    if d1 != d2 && get(&rows, a1, a2) && get(&rows, b2, b1) {
                        changed |= set(&mut rows, d1, d2);
                    }
                }
            }
        }
        BatchClosure { rows }
    }

    /// Is `extent(a) ⊆ extent(b)` provable?
    pub fn subsumes(&self, a: ClassId, b: ClassId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        a < self.rows.len() && b < self.rows.len() && get(&self.rows, a, b)
    }
}
