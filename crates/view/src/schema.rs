//! View schemas and the view-schema generation algorithm.
//!
//! A view schema is "the schema containing a subset of both base and virtual
//! classes as required by a particular user". Unlike per-class view
//! mechanisms, a MultiView/TSE view is a *complete schema graph*: its
//! generalization edges are generated automatically \[21\] as the transitive
//! reduction of the global DAG's reachability restricted to the selected
//! classes — relieving the user of drawing (and possibly corrupting) the is-a
//! hierarchy by hand.

use std::collections::{BTreeMap, BTreeSet};

use tse_object_model::{ClassId, Database, ModelError, ModelResult, Schema};

/// Identifies a view schema (one *version*; a view family is a sequence of
/// these, see the manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u32);

impl std::fmt::Display for ViewId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One version of a user's view schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSchema {
    /// Identity of this version.
    pub id: ViewId,
    /// View family name (shared by all versions, e.g. `VS1` → `VS1.2`).
    pub family: String,
    /// Version number within the family (1-based).
    pub version: u32,
    /// Selected global classes.
    pub classes: BTreeSet<ClassId>,
    /// View-local renames (global class → name shown in this view). The TSE
    /// transparency trick: `Student'` is renamed back to `Student` "within
    /// the context of the view".
    pub renames: BTreeMap<ClassId, String>,
    /// Generated generalization edges `(sup, sub)`.
    pub edges: Vec<(ClassId, ClassId)>,
}

impl ViewSchema {
    /// Does the view contain this global class?
    pub fn contains(&self, class: ClassId) -> bool {
        self.classes.contains(&class)
    }

    /// The name a class carries inside this view.
    pub fn local_name(&self, db: &Database, class: ClassId) -> ModelResult<String> {
        self.local_name_in(db.schema(), class)
    }

    /// [`ViewSchema::local_name`] against an explicit schema — the form the
    /// shared system's read sessions use, resolving against an epoch's
    /// immutable schema snapshot instead of the live database.
    pub fn local_name_in(&self, schema: &Schema, class: ClassId) -> ModelResult<String> {
        if !self.contains(class) {
            return Err(ModelError::UnknownClass(class));
        }
        if let Some(n) = self.renames.get(&class) {
            return Ok(n.clone());
        }
        Ok(schema.class(class)?.name.clone())
    }

    /// Resolve a view-local name to the global class.
    pub fn lookup(&self, db: &Database, name: &str) -> ModelResult<ClassId> {
        self.lookup_in(db.schema(), name)
    }

    /// [`ViewSchema::lookup`] against an explicit schema — the form the
    /// shared system's read sessions use, resolving against an epoch's
    /// immutable schema snapshot instead of the live database.
    pub fn lookup_in(&self, schema: &Schema, name: &str) -> ModelResult<ClassId> {
        // Renames take precedence (and shadow the global names they mask).
        for (class, local) in &self.renames {
            if local == name {
                return Ok(*class);
            }
        }
        for class in &self.classes {
            if self.renames.contains_key(class) {
                continue;
            }
            if schema.class(*class)?.name == name {
                return Ok(*class);
            }
        }
        Err(ModelError::UnknownClassName(name.to_string()))
    }

    /// Direct superclasses of `class` *within this view*.
    pub fn supers_in_view(&self, class: ClassId) -> Vec<ClassId> {
        self.edges.iter().filter(|(_, sub)| *sub == class).map(|(sup, _)| *sup).collect()
    }

    /// Direct subclasses of `class` *within this view*.
    pub fn subs_in_view(&self, class: ClassId) -> Vec<ClassId> {
        self.edges.iter().filter(|(sup, _)| *sup == class).map(|(_, sub)| *sub).collect()
    }

    /// Classes with no superclass inside the view (the view's roots).
    pub fn roots(&self) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| self.supers_in_view(**c).is_empty())
            .copied()
            .collect()
    }

    /// Is `sub` (transitively) below `sup` within the view?
    pub fn is_sub_in_view(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let mut stack = vec![sup];
        let mut seen = BTreeSet::new();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            for s in self.subs_in_view(c) {
                if s == sub {
                    return true;
                }
                stack.push(s);
            }
        }
        false
    }

    /// Render the view as an indented tree with each class's resolved
    /// properties (the "complete customized interface" a developer sees).
    pub fn render_with_types(&self, db: &Database) -> String {
        let mut out = format!("view {} (version {})\n", self.family, self.version);
        let mut roots = self.roots();
        roots.sort_by_key(|c| self.local_name(db, *c).unwrap_or_default());
        for root in roots {
            self.render_typed_rec(db, root, 1, &mut out, &mut BTreeSet::new());
        }
        out
    }

    fn render_typed_rec(
        &self,
        db: &Database,
        class: ClassId,
        depth: usize,
        out: &mut String,
        seen: &mut BTreeSet<ClassId>,
    ) {
        let local = self.local_name(db, class).unwrap_or_else(|_| class.to_string());
        let props = match db.schema().resolved_type(class) {
            Ok(rt) => {
                let mut names: Vec<String> = rt
                    .props
                    .iter()
                    .map(|(n, rp)| if rp.is_ambiguous() { format!("{n}(!)") } else { n.clone() })
                    .collect();
                names.sort();
                names.join(", ")
            }
            Err(_) => String::from("?"),
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{local} ({props})\n"));
        if !seen.insert(class) {
            return;
        }
        let mut subs = self.subs_in_view(class);
        subs.sort_by_key(|c| self.local_name(db, *c).unwrap_or_default());
        for sub in subs {
            self.render_typed_rec(db, sub, depth + 1, out, seen);
        }
    }

    /// Render the view as an indented tree (figures harness output).
    pub fn render(&self, db: &Database) -> String {
        let mut out = format!("view {} (version {})\n", self.family, self.version);
        let mut roots = self.roots();
        roots.sort_by_key(|c| self.local_name(db, *c).unwrap_or_default());
        for root in roots {
            self.render_rec(db, root, 1, &mut out, &mut BTreeSet::new());
        }
        out
    }

    fn render_rec(
        &self,
        db: &Database,
        class: ClassId,
        depth: usize,
        out: &mut String,
        seen: &mut BTreeSet<ClassId>,
    ) {
        let local = self.local_name(db, class).unwrap_or_else(|_| class.to_string());
        let global = db
            .schema()
            .class(class)
            .map(|c| c.name.clone())
            .unwrap_or_else(|_| class.to_string());
        out.push_str(&"  ".repeat(depth));
        if local == global {
            out.push_str(&format!("{local}\n"));
        } else {
            out.push_str(&format!("{local} (= {global})\n"));
        }
        if !seen.insert(class) {
            return;
        }
        let mut subs = self.subs_in_view(class);
        subs.sort_by_key(|c| self.local_name(db, *c).unwrap_or_default());
        for sub in subs {
            self.render_rec(db, sub, depth + 1, out, seen);
        }
    }
}

/// The view-schema generation algorithm \[21\]: compute the generalization
/// edges for a class selection as the transitive reduction of global
/// reachability restricted to the selection. `(sup, sub)` is an edge when
/// `sub` is below `sup` and no third selected class sits strictly between
/// them; edges come out ordered by `sup`, then `sub`.
///
/// One upward walk of the global DAG per selected class fills two bit
/// matrices over the selection — who is above whom, and its transpose —
/// and every "is `x` below `y`" of the reduction is then a bit test.
pub fn generate_edges(
    db: &Database,
    classes: &BTreeSet<ClassId>,
) -> ModelResult<Vec<(ClassId, ClassId)>> {
    let schema = db.schema();
    let selected: Vec<ClassId> = classes.iter().copied().collect();
    const UNSELECTED: usize = usize::MAX;
    let mut position = vec![UNSELECTED; schema.class_count()];
    for (i, c) in selected.iter().enumerate() {
        schema.class(*c)?;
        position[c.0 as usize] = i;
    }
    let n = selected.len();
    // `above[i]`: the selected classes `selected[i]` is below or equal to.
    // `below[j]`: the selected classes below or equal to `selected[j]`.
    let mut above = BitMatrix::new(n);
    let mut below = BitMatrix::new(n);
    let mut visited_by = vec![UNSELECTED; schema.class_count()];
    let mut stack = Vec::new();
    for (i, start) in selected.iter().enumerate() {
        stack.push(*start);
        while let Some(c) = stack.pop() {
            if std::mem::replace(&mut visited_by[c.0 as usize], i) == i {
                continue;
            }
            let j = position[c.0 as usize];
            if j != UNSELECTED {
                above.set(i, j);
                below.set(j, i);
            }
            stack.extend_from_slice(schema.class(c)?.direct_supers());
        }
    }
    let mut edges = Vec::new();
    for sup in 0..n {
        for sub in 0..n {
            if sup == sub || !above.get(sub, sup) {
                continue;
            }
            // Transitive reduction: skip if an intermediate selected class
            // sits strictly between — below `sup` and above `sub`, and
            // (guarding against classes equivalent to either end collapsing
            // the reduction) neither above `sup` nor below `sub`, which
            // also rules out the two ends themselves.
            let between = (0..above.words).any(|w| {
                above.row(sub)[w] & below.row(sup)[w] & !above.row(sup)[w] & !below.row(sub)[w] != 0
            });
            if !between {
                edges.push((selected[sup], selected[sub]));
            }
        }
    }
    Ok(edges)
}

/// A square bit matrix, one row of `words` machine words per index.
struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix { words, bits: vec![0; n * words] }
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] & (1 << (col % 64)) != 0
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }
}

/// Build a complete view schema from a class selection (used by the manager;
/// exposed for tests and the TSEM).
pub fn build_view(
    db: &Database,
    id: ViewId,
    family: &str,
    version: u32,
    classes: BTreeSet<ClassId>,
    renames: BTreeMap<ClassId, String>,
) -> ModelResult<ViewSchema> {
    // Renames must target selected classes and be unique.
    let mut used: BTreeSet<String> = BTreeSet::new();
    for (class, name) in &renames {
        if !classes.contains(class) {
            return Err(ModelError::UnknownClass(*class));
        }
        if !used.insert(name.clone()) {
            return Err(ModelError::DuplicateClassName(name.clone()));
        }
    }
    // Unrenamed classes must not collide with the renames or each other.
    for class in &classes {
        if renames.contains_key(class) {
            continue;
        }
        let n = db.schema().class(*class)?.name.clone();
        if !used.insert(n.clone()) {
            return Err(ModelError::DuplicateClassName(n));
        }
    }
    let edges = generate_edges(db, &classes)?;
    Ok(ViewSchema { id, family: family.to_string(), version, classes, renames, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_algebra::{define_vc, Query};
    use tse_classifier::{classify_with, Subsumption};
    use tse_object_model::{PropertyDef, Value, ValueType};

    fn setup() -> (Database, ClassId, ClassId, ClassId, ClassId) {
        let mut db = Database::default();
        let s = db.schema_mut();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        let ta = s.create_base_class("TA", &[student]).unwrap();
        let grad = s.create_base_class("Grad", &[student]).unwrap();
        s.add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        (db, person, student, ta, grad)
    }

    #[test]
    fn edges_are_transitive_reduction_of_selection() {
        let (db, person, student, ta, _) = setup();
        let classes = BTreeSet::from([person, student, ta]);
        let edges = generate_edges(&db, &classes).unwrap();
        assert!(edges.contains(&(person, student)));
        assert!(edges.contains(&(student, ta)));
        assert!(!edges.contains(&(person, ta)), "transitive edge reduced");
    }

    /// The definition, written out: every ordered pair of the selection,
    /// every third class, one `Schema::is_sub_of` per question.
    fn edges_by_definition(db: &Database, classes: &BTreeSet<ClassId>) -> Vec<(ClassId, ClassId)> {
        let below = |a: ClassId, b: ClassId| db.schema().is_sub_of(a, b);
        let mut edges = Vec::new();
        for &sup in classes {
            for &sub in classes {
                if sup == sub || !below(sub, sup) {
                    continue;
                }
                let between = classes.iter().any(|&mid| {
                    mid != sup
                        && mid != sub
                        && below(mid, sup)
                        && below(sub, mid)
                        && !(below(sup, mid) || below(mid, sub))
                });
                if !between {
                    edges.push((sup, sub));
                }
            }
        }
        edges
    }

    use proptest::collection::vec;

    proptest::proptest! {
        /// On random DAGs and random selections — more than one machine
        /// word of classes, diamonds, paths through unselected classes —
        /// the generated edges equal the definition's, in content and order.
        #[test]
        fn generated_edges_equal_the_definition(
            supers in vec(vec(0usize..150, 0..4), 1..150),
            picks in vec(0usize..150, 0..100),
        ) {
            let mut db = Database::default();
            let mut ids = vec![db.schema().root()];
            for (i, sups) in supers.iter().enumerate() {
                // Supers among the classes created so far: acyclic by construction.
                let sups: Vec<ClassId> = sups.iter().map(|s| ids[s % ids.len()]).collect();
                ids.push(db.schema_mut().create_base_class(&format!("C{i}"), &sups).unwrap());
            }
            let classes: BTreeSet<ClassId> = picks.iter().map(|p| ids[p % ids.len()]).collect();
            proptest::prop_assert_eq!(
                generate_edges(&db, &classes).unwrap(),
                edges_by_definition(&db, &classes)
            );
        }
    }

    #[test]
    fn skipping_a_class_bridges_the_edge() {
        let (db, person, _, ta, _) = setup();
        let classes = BTreeSet::from([person, ta]);
        let edges = generate_edges(&db, &classes).unwrap();
        assert_eq!(edges, vec![(person, ta)]);
    }

    #[test]
    fn view_navigation_and_roots() {
        let (db, person, student, ta, grad) = setup();
        let classes = BTreeSet::from([person, student, ta, grad]);
        let v = build_view(&db, ViewId(0), "VS1", 1, classes, BTreeMap::new()).unwrap();
        assert_eq!(v.roots(), vec![person]);
        let mut subs = v.subs_in_view(student);
        subs.sort();
        assert_eq!(subs, vec![ta, grad]);
        assert!(v.is_sub_in_view(ta, person));
        assert!(!v.is_sub_in_view(person, ta));
        assert!(!v.is_sub_in_view(grad, ta));
    }

    #[test]
    fn renames_resolve_and_shadow() {
        let (mut db, person, student, _, _) = setup();
        // Student' virtual class renamed back to Student in the view.
        let sp = define_vc(
            &mut db,
            "Student'",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        classify_with(&mut Subsumption::default(), &mut db, sp).unwrap();
        let classes = BTreeSet::from([person, sp]);
        let renames = BTreeMap::from([(sp, "Student".to_string())]);
        let v = build_view(&db, ViewId(0), "VS2", 2, classes, renames).unwrap();
        assert_eq!(v.lookup(&db, "Student").unwrap(), sp, "rename resolves to the primed class");
        assert_eq!(v.local_name(&db, sp).unwrap(), "Student");
        assert_eq!(v.lookup(&db, "Person").unwrap(), person);
        assert!(v.lookup(&db, "Student'").is_err(), "global name hidden inside the view");
    }

    #[test]
    fn rename_collisions_are_rejected() {
        let (db, person, student, _, _) = setup();
        let classes = BTreeSet::from([person, student]);
        let renames = BTreeMap::from([(student, "Person".to_string())]);
        assert!(build_view(&db, ViewId(0), "V", 1, classes, renames).is_err());
    }

    #[test]
    fn render_shows_renames() {
        let (mut db, person, student, _, _) = setup();
        let sp = define_vc(&mut db, "Student'", &Query::hide(Query::class(student), &["name"]))
            .unwrap();
        classify_with(&mut Subsumption::default(), &mut db, sp).unwrap();
        let classes = BTreeSet::from([person, sp]);
        let renames = BTreeMap::from([(sp, "Student".to_string())]);
        let v = build_view(&db, ViewId(3), "VS2", 2, classes, renames).unwrap();
        let text = v.render(&db);
        assert!(text.contains("Student (= Student')"), "render was:\n{text}");
    }
}

#[cfg(test)]
mod typed_render_tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use tse_object_model::{Database, PropertyDef, Value, ValueType};

    #[test]
    fn typed_render_lists_properties_and_flags_ambiguity() {
        let mut db = Database::default();
        let a = db.schema_mut().create_base_class("A", &[]).unwrap();
        let b = db.schema_mut().create_base_class("B", &[]).unwrap();
        let c = db.schema_mut().create_base_class("C", &[a, b]).unwrap();
        db.schema_mut()
            .add_local_prop(a, PropertyDef::stored("x", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(b, PropertyDef::stored("x", ValueType::Str, Value::Null), None)
            .unwrap();
        db.schema_mut()
            .add_local_prop(c, PropertyDef::stored("y", ValueType::Int, Value::Int(0)), None)
            .unwrap();
        let v = build_view(
            &db,
            ViewId(0),
            "V",
            1,
            BTreeSet::from([a, b, c]),
            BTreeMap::new(),
        )
        .unwrap();
        let text = v.render_with_types(&db);
        assert!(text.contains("C (x(!), y)"), "ambiguous x flagged: {text}");
        assert!(text.contains("A (x)"));
    }
}
