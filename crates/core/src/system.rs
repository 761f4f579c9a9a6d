//! The Transparent Schema Evolution Manager (TSEM).
//!
//! The control module of Figure 6: it takes a schema-change request against
//! a view, calls the Translator, executes the generated algebra script, runs
//! the Classifier on every created class, asks the View Manager to generate
//! and register the new view version, and renames primed classes back to
//! their old names — so the user "will have the perception that she has
//! actually modified her original schema".

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;

use parking_lot::Mutex;
use tse_algebra::{define_vc, ClassRef, Query, Stmt, UpdatePolicy};
use tse_classifier::{classify_with, Subsumption};
use tse_object_model::{
    ClassId, Database, ModelError, ModelResult, Oid, PendingProp, Value,
};
use tse_storage::{FailpointRegistry, StoreConfig};
use tse_view::{ViewId, ViewManager, ViewSchema};

use crate::change::{parse_change, SchemaChange};
use crate::shared::is_crash;
use crate::translate::{translate, ChangePlan};

/// Outcome of one schema evolution.
#[derive(Debug, Clone)]
pub struct EvolutionReport {
    /// The new view version.
    pub view: ViewId,
    /// View family evolved.
    pub family: String,
    /// Operator applied.
    pub op: String,
    /// Rendered algebra script (the Figure 7(b) artifact).
    pub script: String,
    /// Classes created by the script (script name → effective class).
    pub created: Vec<(String, ClassId)>,
    /// How many newly derived classes were folded onto existing duplicates.
    pub duplicates_folded: usize,
    /// View classes replaced by primed counterparts — the subschema-evolution
    /// cost metric (how much of the schema a change touches).
    pub classes_touched: usize,
    /// Wall-clock phase breakdown of this evolution.
    pub timings: PhaseTimings,
}

/// Per-phase wall-clock breakdown of one schema evolution, in nanoseconds.
///
/// The phases mirror the Figure 6 pipeline: the Translator turns the view
/// change into an algebra script, the script is executed with interleaved
/// classification, the new view selection is regenerated, and the new
/// version is swapped into the family history. The phases are measured on
/// disjoint intervals, so `phases_sum_ns() <= total_ns` always holds.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// The whole `evolve` call, including composite-macro expansion (for a
    /// composite change this covers every expanded primitive).
    pub total_ns: u64,
    /// `evolve.translate`: change → rendered algebra script.
    pub translate_ns: u64,
    /// `evolve.classify`: script execution plus classification of every
    /// defined class.
    pub classify_ns: u64,
    /// `evolve.view_regen`: regenerating the view selection (replacements,
    /// additions, removals, carried renames).
    pub view_regen_ns: u64,
    /// `evolve.swap_in`: generating the new view schema and registering it
    /// as the family's current version.
    pub swap_in_ns: u64,
}

impl PhaseTimings {
    /// Sum of the four measured phases (excludes untimed glue between them).
    pub fn phases_sum_ns(&self) -> u64 {
        self.translate_ns + self.classify_ns + self.view_regen_ns + self.swap_in_ns
    }
}

/// The TSE system: one shared database, many evolving views. This is the
/// control plane — base schema, views, evolution. Data operations go
/// through the sessions of a [`crate::SharedSystem`] built over it; the
/// unobserved [`TseSystem::create`], [`TseSystem::get`], [`TseSystem::set`]
/// and [`TseSystem::extent`] only build populations below that layer.
pub struct TseSystem {
    pub(crate) db: Database,
    pub(crate) views: ViewManager,
    pub(crate) policy: UpdatePolicy,
    /// The classifier's subsumption prover, kept next to the schema it
    /// describes so a change pays for the classes it adds, not for every
    /// class earlier changes left behind. It has one owner at a time:
    /// [`TseSystem::fork_shared`] moves it into the fork (the lock is only
    /// there to let a fork taken through `&self` empty this slot), the
    /// swap-in carries it back with the fork, and a failed fork drops it.
    /// An emptied or never-filled prover is the state of a loaded or
    /// recovered system too (it is never persisted): the next
    /// classification advances it over the whole schema.
    prover: Mutex<Subsumption>,
}

impl Default for TseSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl TseSystem {
    /// A fresh system with default storage configuration.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// A fresh system with explicit storage configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        Self::assemble(Database::new(config), ViewManager::new(), UpdatePolicy::default())
    }

    /// A system over the given parts, with an empty prover.
    pub(crate) fn assemble(db: Database, views: ViewManager, policy: UpdatePolicy) -> Self {
        tse_classifier::register_metrics(db.telemetry());
        TseSystem { db, views, policy, prover: Mutex::default() }
    }

    /// The shared database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A **copy-free** fork for fork–evolve–swap, the one way a change
    /// runs ([`TseSystem::evolve`]): the returned system shares the store
    /// contents and object map with `self` (see [`Database::fork_shared`])
    /// — only schema/view/policy metadata is (shallowly) cloned, once per
    /// change. A change adds capacity and moves no data, so the fork writes
    /// nothing to what it shares: the swap-in is a metadata publish, not a
    /// data migration, and a failed change is undone by dropping the fork.
    /// The classifier's prover is **moved**, not copied: the fork takes it
    /// and `self` is left with an empty one, so the fork must replace
    /// `self` (the swap-in) or be dropped — after which `self` re-derives
    /// what it knew at its next classification. The caller must quiesce
    /// writers for the fork's lifetime and serialize forks.
    pub fn fork_shared(&self) -> TseSystem {
        TseSystem {
            db: self.db.fork_shared(),
            views: self.views.clone(),
            policy: self.policy.clone(),
            prover: Mutex::new(std::mem::take(&mut *self.prover.lock())),
        }
    }

    /// Mutable database access (base-schema construction).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The view registry.
    pub fn views(&self) -> &ViewManager {
        &self.views
    }

    /// The update-propagation policy (owned; grows union routes as schema
    /// changes create union classes).
    pub fn policy(&self) -> &UpdatePolicy {
        &self.policy
    }

    /// The classifier's subsumption prover, as far as the last
    /// classification advanced it (it may trail the schema by the classes
    /// created since, and is empty while a fork holds it). The guard holds
    /// the prover's lock: drop it before [`TseSystem::fork_shared`].
    pub fn prover(&self) -> impl Deref<Target = Subsumption> + '_ {
        self.prover.lock()
    }

    /// The telemetry domain shared by every layer of this system — storage,
    /// object model, classifier, view manager, and the evolution pipeline
    /// all record into it, producing one coherent journal per system.
    pub fn telemetry(&self) -> &tse_telemetry::Telemetry {
        self.db.telemetry()
    }

    /// The fault-injection registry shared by every layer of this system.
    /// Arm a site (e.g. `evolve.classify`, `storage.insert`) to make the
    /// matching operation fail or simulate a crash deterministically.
    pub fn failpoints(&self) -> &FailpointRegistry {
        self.db.failpoints()
    }

    fn check_failpoint(&self, site: &str) -> ModelResult<()> {
        self.db.failpoints().check(site)?;
        Ok(())
    }

    // ----- base schema construction ----------------------------------------

    /// Define a base class with local properties (global-schema setup).
    pub fn define_base_class(
        &mut self,
        name: &str,
        supers: &[&str],
        props: Vec<PendingProp>,
    ) -> ModelResult<ClassId> {
        let mut sup_ids = Vec::with_capacity(supers.len());
        for s in supers {
            sup_ids.push(self.db.schema().by_name(s)?);
        }
        let id = self.db.schema_mut().create_base_class(name, &sup_ids)?;
        for p in props {
            self.db.schema_mut().add_local_prop(id, p, None)?;
        }
        Ok(id)
    }

    // ----- views -------------------------------------------------------------

    /// Create a view over the named global classes.
    pub fn create_view(&mut self, family: &str, class_names: &[&str]) -> ModelResult<ViewId> {
        let mut classes = BTreeSet::new();
        for n in class_names {
            classes.insert(self.db.schema().by_name(n)?);
        }
        self.views.create_view(&self.db, family, classes)
    }

    /// Create a view over the named classes, automatically *type-closing*
    /// the selection: every class referenced by a `Ref`-typed attribute of a
    /// selected class is pulled in transitively (§5: "we can check the
    /// type-closure of a view schema and incorporate necessary classes").
    pub fn create_view_closed(
        &mut self,
        family: &str,
        class_names: &[&str],
    ) -> ModelResult<ViewId> {
        let mut classes = BTreeSet::new();
        for n in class_names {
            classes.insert(self.db.schema().by_name(n)?);
        }
        let probe = tse_view::build_view(
            &self.db,
            ViewId(u32::MAX),
            family,
            0,
            classes,
            BTreeMap::new(),
        )?;
        let closed = tse_view::closed_selection(&self.db, &probe)?;
        self.views.create_view(&self.db, family, closed)
    }

    /// Create a view containing every non-root base class (a convenient
    /// "whole schema" view).
    pub fn create_view_all(&mut self, family: &str) -> ModelResult<ViewId> {
        let root = self.db.schema().root();
        let classes: BTreeSet<ClassId> = self
            .db
            .schema()
            .class_ids()
            .filter(|c| *c != root)
            .filter(|c| self.db.schema().class(*c).map(|x| x.is_base()).unwrap_or(false))
            .collect();
        self.views.create_view(&self.db, family, classes)
    }

    /// The current version of a view family.
    pub fn current_view(&self, family: &str) -> ModelResult<&ViewSchema> {
        self.views.current(family)
    }

    /// A specific registered view version (old applications hold on to
    /// these — that is the interoperability story).
    pub fn view(&self, id: ViewId) -> ModelResult<&ViewSchema> {
        self.views.view(id)
    }

    // ----- schema evolution ----------------------------------------------------

    /// Apply a schema change to a view family: the family's *current*
    /// version is evolved and a new version registered. Composite macros
    /// expand into primitive sequences (§6.9); the report describes the last
    /// primitive.
    ///
    /// Every call runs under an `evolve` telemetry span (composite macros
    /// nest one `evolve` span per expanded primitive), bumps the `evolve.*`
    /// counters, and republishes the `store.*` and `schema.*` gauges, so the
    /// journal records the full expansion tree of each change.
    ///
    /// Each call is **all-or-nothing** because it runs on a fork, the one
    /// evolve path a [`crate::SharedSystem`] takes too: the change evolves a
    /// [`TseSystem::fork_shared`] of `self`, which replaces `self` on success
    /// and is dropped on failure, so no partially created class, view
    /// version or union route survives a failed change. A simulated crash
    /// (`FailAction::Crash`) drops the fork too, so `self` is unchanged; an
    /// in-memory system has no log to disagree with, so its next change
    /// runs (a durable [`crate::SharedSystem`] poisons its log instead).
    pub fn evolve(&mut self, family: &str, change: &SchemaChange) -> ModelResult<EvolutionReport> {
        let mut fork = self.fork_shared();
        let report = fork.evolve_fork(family, change)?;
        *self = fork;
        Ok(report)
    }

    /// Run a change on `self`, a fork that its caller swaps in on success
    /// and drops on failure. Nothing needs undoing: the change writes
    /// nothing to the store and object map it shares with the live system,
    /// and the fork's schema, views, policy, extent cache and prover are
    /// private to it and die with it. A clean failure counts one
    /// `evolve.rollbacks` and journals an `evolve.rollback` event; a
    /// simulated crash records nothing, as a dead process would not.
    pub(crate) fn evolve_fork(
        &mut self,
        family: &str,
        change: &SchemaChange,
    ) -> ModelResult<EvolutionReport> {
        let telemetry = self.db.telemetry().clone();
        // One trace per top-level change: a composite macro's sub-changes
        // nest in it, so the whole expansion tree shares one trace id in
        // the journal.
        let _trace = telemetry.ensure_trace("evolve");
        let result = self.evolve_spanned(family, change);
        if let Some(e) = result.as_ref().err().filter(|e| !is_crash(e)) {
            telemetry.incr("evolve.rollbacks", 1);
            telemetry.event(
                "evolve.rollback",
                &[
                    ("family", family.into()),
                    ("op", change.op_name().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
        result
    }

    /// One change, or one sub-change of a composite macro, under its own
    /// `evolve` span and counters.
    fn evolve_spanned(
        &mut self,
        family: &str,
        change: &SchemaChange,
    ) -> ModelResult<EvolutionReport> {
        let telemetry = self.db.telemetry().clone();
        let span = telemetry.span_with(
            "evolve",
            &[("family", family.into()), ("op", change.op_name().into())],
        );
        match self.evolve_inner(family, change) {
            Ok(mut report) => {
                span.record("classes_created", report.created.len());
                span.record("duplicates_folded", report.duplicates_folded);
                let total = span.finish();
                // The outer span strictly contains the phase intervals, but
                // each is clamped to >= 1ns; keep the invariant exact.
                report.timings.total_ns = total.max(report.timings.phases_sum_ns());
                telemetry.incr("evolve.count", 1);
                telemetry.incr("evolve.classes_created", report.created.len() as u64);
                telemetry.incr("evolve.duplicates_folded", report.duplicates_folded as u64);
                self.db.publish_store_stats();
                Ok(report)
            }
            Err(e) => {
                span.record("error", true);
                span.finish();
                telemetry.incr("evolve.errors", 1);
                Err(e)
            }
        }
    }

    fn evolve_inner(
        &mut self,
        family: &str,
        change: &SchemaChange,
    ) -> ModelResult<EvolutionReport> {
        match change {
            SchemaChange::InsertClass { name, sup, sub } => {
                // §6.9.1: add_class + add_edge.
                self.evolve_spanned(
                    family,
                    &SchemaChange::AddClass {
                        name: name.clone(),
                        connected_to: Some(sup.clone()),
                    },
                )?;
                self.evolve_spanned(
                    family,
                    &SchemaChange::AddEdge { sup: name.clone(), sub: sub.clone() },
                )
            }
            SchemaChange::DeleteClass2 { class } => {
                // §6.9.2: splice out, reconnect subs to supers, drop.
                let view = self.views.current(family)?.clone();
                let c = view.lookup(&self.db, class)?;
                let subs: Vec<String> = view
                    .subs_in_view(c)
                    .into_iter()
                    .map(|s| view.local_name(&self.db, s))
                    .collect::<ModelResult<_>>()?;
                let sups: Vec<String> = view
                    .supers_in_view(c)
                    .into_iter()
                    .map(|s| view.local_name(&self.db, s))
                    .collect::<ModelResult<_>>()?;
                for v in &subs {
                    self.evolve_spanned(
                        family,
                        &SchemaChange::DeleteEdge {
                            sup: class.clone(),
                            sub: v.clone(),
                            connected_to: None,
                        },
                    )?;
                    for u in &sups {
                        self.evolve_spanned(
                            family,
                            &SchemaChange::AddEdge { sup: u.clone(), sub: v.clone() },
                        )?;
                    }
                }
                for u in &sups {
                    self.evolve_spanned(
                        family,
                        &SchemaChange::DeleteEdge {
                            sup: u.clone(),
                            sub: class.clone(),
                            connected_to: None,
                        },
                    )?;
                }
                self.evolve_spanned(family, &SchemaChange::DeleteClass { class: class.clone() })
            }
            SchemaChange::RenameClass { old, new } => {
                // A pure view change: same classes, updated rename map.
                let view = self.views.current(family)?.clone();
                let target = view.lookup(&self.db, old)?;
                if view.lookup(&self.db, new).is_ok() {
                    return Err(ModelError::DuplicateClassName(new.clone()));
                }
                let mut renames = view.renames.clone();
                if self.db.schema().class(target)?.name == *new {
                    renames.remove(&target);
                } else {
                    renames.insert(target, new.clone());
                }
                self.check_failpoint("evolve.swap_in")?;
                let span = self.db.telemetry().clone().span("evolve.swap_in");
                let new_view =
                    self.views.push_version(&self.db, family, view.classes.clone(), renames)?;
                let swap_in_ns = span.finish();
                Ok(EvolutionReport {
                    view: new_view,
                    family: family.to_string(),
                    op: change.op_name().to_string(),
                    script: String::new(),
                    created: vec![],
                    duplicates_folded: 0,
                    classes_touched: 0,
                    timings: PhaseTimings { swap_in_ns, ..PhaseTimings::default() },
                })
            }
            primitive => self.evolve_primitive(family, primitive),
        }
    }

    /// Parse and apply a textual schema-change command.
    pub fn evolve_cmd(&mut self, family: &str, command: &str) -> ModelResult<EvolutionReport> {
        let change = parse_change(command)?;
        self.evolve(family, &change)
    }

    fn evolve_primitive(
        &mut self,
        family: &str,
        change: &SchemaChange,
    ) -> ModelResult<EvolutionReport> {
        let telemetry = self.db.telemetry().clone();
        let view = self.views.current(family)?.clone();

        // Phase 1 — translation: view change → algebra script. On an error
        // path the guard's Drop still closes the span.
        self.check_failpoint("evolve.translate")?;
        let span = telemetry.span("evolve.translate");
        let plan = translate(&self.db, &view, change)?;
        let script_text = plan.script.render(&self.db);
        span.record("statements", plan.script.stmts.len());
        let translate_ns = span.finish();

        // Phase 2 — script execution with interleaved classification.
        self.check_failpoint("evolve.classify")?;
        let span = telemetry.span("evolve.classify");
        let (map, duplicates_folded) = self.execute_plan(&plan)?;
        let classify_ns = span.finish();

        // Phase 3 — regenerate the view selection: replace primed classes,
        // apply additions and removals, carry renames for untouched classes.
        self.check_failpoint("evolve.view_regen")?;
        let span = telemetry.span("evolve.view_regen");
        let mut classes = view.classes.clone();
        let mut renames: BTreeMap<ClassId, String> = BTreeMap::new();
        for (c, local) in &view.renames {
            if plan.replacements.iter().all(|(old, _)| old != c) && !plan.removals.contains(c) {
                renames.insert(*c, local.clone());
            }
        }
        for (old, script_name) in &plan.replacements {
            let new = *map
                .get(script_name)
                .ok_or_else(|| ModelError::Invalid(format!("plan lost class {script_name}")))?;
            classes.remove(old);
            classes.insert(new);
            if new != *old {
                // Transparency: the replacement carries the old local name.
                let local = view.local_name(&self.db, *old)?;
                if self.db.schema().class(new)?.name != local {
                    renames.insert(new, local);
                }
            } else if let Some(local) = view.renames.get(old) {
                renames.insert(*old, local.clone());
            }
        }
        for (script_name, local) in &plan.additions {
            let new = *map
                .get(script_name)
                .ok_or_else(|| ModelError::Invalid(format!("plan lost class {script_name}")))?;
            classes.insert(new);
            if &self.db.schema().class(new)?.name != local {
                renames.insert(new, local.clone());
            }
        }
        for r in &plan.removals {
            classes.remove(r);
            renames.remove(r);
        }
        let view_regen_ns = span.finish();

        // Phase 4 — swap-in: generate the new view schema and register it as
        // the family's current version (the `view.generate` span nests here).
        self.check_failpoint("evolve.swap_in")?;
        let span = telemetry.span("evolve.swap_in");
        let new_view = self.views.push_version(&self.db, family, classes, renames)?;
        let swap_in_ns = span.finish();

        Ok(EvolutionReport {
            view: new_view,
            family: family.to_string(),
            op: change.op_name().to_string(),
            script: script_text,
            created: map.into_iter().collect(),
            duplicates_folded,
            classes_touched: plan.replacements.len(),
            timings: PhaseTimings {
                total_ns: 0, // filled in by `evolve`
                translate_ns,
                classify_ns,
                view_regen_ns,
                swap_in_ns,
            },
        })
    }

    /// Execute a plan's script with interleaved classification: every
    /// defined class is immediately integrated into the global schema (and
    /// possibly folded onto a duplicate), and later statements referencing it
    /// by name are resolved through the fold map.
    fn execute_plan(
        &mut self,
        plan: &ChangePlan,
    ) -> ModelResult<(BTreeMap<String, ClassId>, usize)> {
        let mut map: BTreeMap<String, ClassId> = BTreeMap::new();
        let mut duplicates = 0usize;
        for stmt in &plan.script.stmts {
            match stmt {
                Stmt::DefineVc { name, query } => {
                    let query = substitute(query, &map);
                    let id = define_vc(&mut self.db, name, &query)?;
                    let placement = classify_with(self.prover.get_mut(), &mut self.db, id)?;
                    if placement.duplicate_of.is_some() {
                        duplicates += 1;
                    }
                    map.insert(name.clone(), placement.class);
                }
                Stmt::DefineBase { name, supers } => {
                    let mut sup_ids = Vec::with_capacity(supers.len());
                    for s in supers {
                        sup_ids.push(match s {
                            ClassRef::Id(id) => *id,
                            ClassRef::Name(n) => match map.get(n) {
                                Some(id) => *id,
                                None => self.db.schema().by_name(n)?,
                            },
                        });
                    }
                    let id = self.db.schema_mut().create_base_class(name, &sup_ids)?;
                    map.insert(name.clone(), id);
                }
                Stmt::RouteUnion { name, route } => {
                    let id = match map.get(name) {
                        Some(id) => *id,
                        None => self.db.schema().by_name(name)?,
                    };
                    self.policy.union_routes.insert(id, *route);
                }
            }
        }
        Ok((map, duplicates))
    }

    // ----- population helpers ---------------------------------------------------

    fn resolve_in(&self, view: ViewId, class_local: &str) -> ModelResult<ClassId> {
        self.views.view(view)?.lookup(&self.db, class_local)
    }

    /// Create an object through a view class: a helper for building a
    /// population below the sharing layer, unobserved and unlogged. The
    /// data plane is [`crate::WriteSession::create`].
    pub fn create(
        &self,
        view: ViewId,
        class_local: &str,
        values: &[(&str, Value)],
    ) -> ModelResult<Oid> {
        let class = self.resolve_in(view, class_local)?;
        tse_algebra::create(&self.db, &self.policy, class, values)
    }

    /// Read an attribute through a view class: a helper below the sharing
    /// layer, unobserved and unlogged. The data plane is
    /// [`crate::ReadSession::get`].
    pub fn get(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        attr: &str,
    ) -> ModelResult<Value> {
        let class = self.resolve_in(view, class_local)?;
        self.db.read_attr(oid, class, attr)
    }

    /// Set attributes through a view class: a helper for building a
    /// population below the sharing layer, unobserved and unlogged. The
    /// data plane is [`crate::WriteSession::set`].
    pub fn set(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        assignments: &[(&str, Value)],
    ) -> ModelResult<()> {
        let class = self.resolve_in(view, class_local)?;
        tse_algebra::set(&self.db, &self.policy, &[oid], class, assignments)
    }

    /// The extent of a view class: a helper below the sharing layer,
    /// unobserved and unlogged. The data plane is
    /// [`crate::ReadSession::extent`].
    pub fn extent(&self, view: ViewId, class_local: &str) -> ModelResult<Vec<Oid>> {
        let class = self.resolve_in(view, class_local)?;
        Ok(self.db.extent(class)?.iter().copied().collect())
    }

    /// Attach a class constraint through a view: every member must satisfy
    /// the boolean expression after any create/set (§3.3's type-specific
    /// update behaviour — constraint checking and update refusal).
    pub fn set_constraint(
        &mut self,
        view: ViewId,
        class_local: &str,
        expr: Option<&str>,
    ) -> ModelResult<()> {
        let class = self.resolve_in(view, class_local)?;
        let pred = match expr {
            Some(e) => Some(tse_object_model::Predicate::Expr(crate::change::parse_expr(e)?)),
            None => None,
        };
        self.db.schema_mut().set_class_constraint(class, pred)
    }

    /// Proposition B, executable: are all *other* registered views
    /// structurally unaffected (same classes, same generated edges)?
    pub fn views_unaffected_except(&self, family: &str) -> ModelResult<bool> {
        for fam in self.views.families().map(|s| s.to_string()).collect::<Vec<_>>() {
            if fam == family {
                continue;
            }
            for vid in self.views.versions(&fam)?.to_vec() {
                if !self.views.is_unaffected(&self.db, vid)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// Replace by-name references that were folded onto other classes.
fn substitute(query: &Query, map: &BTreeMap<String, ClassId>) -> Query {
    match query {
        Query::Class(id) => Query::Class(*id),
        Query::ClassName(n) => match map.get(n) {
            Some(id) => Query::Class(*id),
            None => Query::ClassName(n.clone()),
        },
        Query::Select { src, pred } => {
            Query::Select { src: Box::new(substitute(src, map)), pred: pred.clone() }
        }
        Query::Hide { src, props } => {
            Query::Hide { src: Box::new(substitute(src, map)), props: props.clone() }
        }
        Query::Refine { src, new_props, inherited } => Query::Refine {
            src: Box::new(substitute(src, map)),
            new_props: new_props.clone(),
            inherited: inherited
                .iter()
                .map(|(r, n)| {
                    let r = match r {
                        ClassRef::Name(name) => match map.get(name) {
                            Some(id) => ClassRef::Id(*id),
                            None => ClassRef::Name(name.clone()),
                        },
                        ClassRef::Id(id) => ClassRef::Id(*id),
                    };
                    (r, n.clone())
                })
                .collect(),
        },
        Query::Union(a, b) => {
            Query::Union(Box::new(substitute(a, map)), Box::new(substitute(b, map)))
        }
        Query::Difference(a, b) => {
            Query::Difference(Box::new(substitute(a, map)), Box::new(substitute(b, map)))
        }
        Query::Intersect(a, b) => {
            Query::Intersect(Box::new(substitute(a, map)), Box::new(substitute(b, map)))
        }
    }
}
