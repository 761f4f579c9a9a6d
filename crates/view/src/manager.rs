//! The View Manager and View Schema History.
//!
//! The manager registers view schemas and keeps, per view family, the
//! version chain the TSE system builds as schema changes replace a user's
//! view by a recomputed one ("the dictionary keeps track of the history of
//! each view schema, allowing for the substitution of the old view by the
//! newly created one"). Old versions remain addressable — that is precisely
//! what keeps old application programs running.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tse_object_model::{ClassId, Database, ModelError, ModelResult};

use crate::schema::{build_view, ViewId, ViewSchema};

/// Registry of all view schemas plus the per-family history. `Clone` exists
/// for transactional evolution (the TSEM checkpoints the manager before a
/// schema change and restores the clone on rollback) and for epoch snapshot
/// publication in the shared system. View schemas are immutable once
/// registered, so they live behind `Arc`s: cloning the manager copies only
/// the vector of pointers plus the family histories, never the view bodies.
#[derive(Debug, Default, Clone)]
pub struct ViewManager {
    views: Vec<Arc<ViewSchema>>,
    history: BTreeMap<String, Vec<ViewId>>,
}

impl ViewManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// `build_view` wrapped in telemetry: spans as `view.generate`, bumps
    /// `view.versions_registered`, and feeds `view.classes_per_view`.
    fn generate(
        db: &Database,
        id: ViewId,
        family: &str,
        version: u32,
        classes: BTreeSet<ClassId>,
        renames: BTreeMap<ClassId, String>,
    ) -> ModelResult<ViewSchema> {
        let telemetry = db.telemetry().clone();
        let span = telemetry.span("view.generate");
        span.record("family", family);
        span.record("version", version as u64);
        span.record("classes", classes.len());
        let view = build_view(db, id, family, version, classes, renames)?;
        telemetry.incr("view.versions_registered", 1);
        telemetry.observe_ns("view.classes_per_view", view.classes.len() as u64);
        Ok(view)
    }

    /// Rebuild a manager from persisted views. Ids must be dense (0..n in
    /// vector order); family histories are reconstructed from the views'
    /// family and version fields.
    pub fn from_views(views: Vec<ViewSchema>) -> ModelResult<Self> {
        for (i, v) in views.iter().enumerate() {
            if v.id.0 as usize != i {
                return Err(ModelError::Invalid(format!(
                    "view snapshot ids not dense: slot {i} holds {}",
                    v.id
                )));
            }
        }
        let mut history: BTreeMap<String, Vec<ViewId>> = BTreeMap::new();
        let mut by_family: BTreeMap<String, Vec<(u32, ViewId)>> = BTreeMap::new();
        for v in &views {
            by_family.entry(v.family.clone()).or_default().push((v.version, v.id));
        }
        for (family, mut versions) in by_family {
            versions.sort();
            history.insert(family, versions.into_iter().map(|(_, id)| id).collect());
        }
        Ok(ViewManager { views: views.into_iter().map(Arc::new).collect(), history })
    }

    /// Create the first version of a view family from a class selection.
    pub fn create_view(
        &mut self,
        db: &Database,
        family: &str,
        classes: BTreeSet<ClassId>,
    ) -> ModelResult<ViewId> {
        if self.history.contains_key(family) {
            return Err(ModelError::Invalid(format!("view family {family:?} already exists")));
        }
        let id = ViewId(self.views.len() as u32);
        let view = Self::generate(db, id, family, 1, classes, BTreeMap::new())?;
        self.views.push(Arc::new(view));
        self.history.insert(family.to_string(), vec![id]);
        Ok(id)
    }

    /// Register a new version of an existing family (the TSE "replace the
    /// old view with the new one" step). The old version stays readable.
    pub fn push_version(
        &mut self,
        db: &Database,
        family: &str,
        classes: BTreeSet<ClassId>,
        renames: BTreeMap<ClassId, String>,
    ) -> ModelResult<ViewId> {
        let versions = self
            .history
            .get(family)
            .ok_or_else(|| ModelError::Invalid(format!("no view family {family:?}")))?;
        let version = versions.len() as u32 + 1;
        let id = ViewId(self.views.len() as u32);
        let view = Self::generate(db, id, family, version, classes, renames)?;
        self.views.push(Arc::new(view));
        self.history.get_mut(family).unwrap().push(id);
        Ok(id)
    }

    /// Register a brand-new family whose first version carries renames
    /// (used by version merging, where same-named distinct classes must be
    /// disambiguated).
    pub fn create_view_renamed(
        &mut self,
        db: &Database,
        family: &str,
        classes: BTreeSet<ClassId>,
        renames: BTreeMap<ClassId, String>,
    ) -> ModelResult<ViewId> {
        if self.history.contains_key(family) {
            return Err(ModelError::Invalid(format!("view family {family:?} already exists")));
        }
        let id = ViewId(self.views.len() as u32);
        let view = Self::generate(db, id, family, 1, classes, renames)?;
        self.views.push(Arc::new(view));
        self.history.insert(family.to_string(), vec![id]);
        Ok(id)
    }

    /// Fetch any registered version.
    pub fn view(&self, id: ViewId) -> ModelResult<&ViewSchema> {
        self.views
            .get(id.0 as usize)
            .map(|v| v.as_ref())
            .ok_or_else(|| ModelError::Invalid(format!("unknown view {id}")))
    }

    /// The current (latest) version of a family.
    pub fn current(&self, family: &str) -> ModelResult<&ViewSchema> {
        let versions = self
            .history
            .get(family)
            .ok_or_else(|| ModelError::Invalid(format!("no view family {family:?}")))?;
        self.view(*versions.last().expect("family has at least one version"))
    }

    /// The whole version chain of a family, oldest first.
    pub fn versions(&self, family: &str) -> ModelResult<&[ViewId]> {
        self.history
            .get(family)
            .map(|v| v.as_slice())
            .ok_or_else(|| ModelError::Invalid(format!("no view family {family:?}")))
    }

    /// All family names.
    pub fn families(&self) -> impl Iterator<Item = &str> {
        self.history.keys().map(|s| s.as_str())
    }

    /// Number of registered view schemas (all versions).
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Regenerate a registered view's edges against the current global
    /// schema and check it is unchanged — the executable form of the
    /// paper's *view independence* property (Propositions B): schema changes
    /// made for one view must leave every other view's schema intact.
    pub fn is_unaffected(&self, db: &Database, id: ViewId) -> ModelResult<bool> {
        let view = self.view(id)?;
        let regenerated = crate::schema::generate_edges(db, &view.classes)?;
        let mut a = view.edges.clone();
        let mut b = regenerated;
        a.sort();
        b.sort();
        Ok(a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_algebra::{define_vc, Query};
    use tse_classifier::classify;
    use tse_object_model::{PropertyDef, Value, ValueType};

    fn setup() -> (Database, ClassId, ClassId) {
        let mut db = Database::default();
        let s = db.schema_mut();
        let person = s.create_base_class("Person", &[]).unwrap();
        let student = s.create_base_class("Student", &[person]).unwrap();
        s.add_local_prop(person, PropertyDef::stored("name", ValueType::Str, Value::Null), None)
            .unwrap();
        (db, person, student)
    }

    #[test]
    fn families_version_chains() {
        let (db, person, student) = setup();
        let mut vm = ViewManager::new();
        let v1 = vm.create_view(&db, "VS", BTreeSet::from([person, student])).unwrap();
        assert_eq!(vm.current("VS").unwrap().id, v1);
        let v2 = vm
            .push_version(&db, "VS", BTreeSet::from([person]), BTreeMap::new())
            .unwrap();
        assert_eq!(vm.current("VS").unwrap().id, v2);
        assert_eq!(vm.versions("VS").unwrap(), &[v1, v2]);
        // Old version still fully readable.
        assert!(vm.view(v1).unwrap().contains(student));
        assert!(!vm.view(v2).unwrap().contains(student));
        assert_eq!(vm.view(v1).unwrap().version, 1);
        assert_eq!(vm.view(v2).unwrap().version, 2);
    }

    #[test]
    fn duplicate_family_rejected_and_missing_family_errors() {
        let (db, person, _) = setup();
        let mut vm = ViewManager::new();
        vm.create_view(&db, "VS", BTreeSet::from([person])).unwrap();
        assert!(vm.create_view(&db, "VS", BTreeSet::from([person])).is_err());
        assert!(vm.push_version(&db, "ZZ", BTreeSet::from([person]), BTreeMap::new()).is_err());
        assert!(vm.current("ZZ").is_err());
    }

    #[test]
    fn view_independence_survives_unrelated_schema_growth() {
        let (mut db, person, student) = setup();
        let mut vm = ViewManager::new();
        let v1 = vm.create_view(&db, "VS", BTreeSet::from([person, student])).unwrap();
        // Another user's schema change adds classes the view doesn't select.
        let sp = define_vc(
            &mut db,
            "Student'",
            &Query::refine(
                Query::class(student),
                vec![PropertyDef::stored("register", ValueType::Bool, Value::Bool(false))],
            ),
        )
        .unwrap();
        classify(&mut db, sp).unwrap();
        assert!(vm.is_unaffected(&db, v1).unwrap());
    }
}
