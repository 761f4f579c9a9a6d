//! The Transparent Schema Evolution Manager (TSEM).
//!
//! The control module of Figure 6: it takes a schema-change request against
//! a view, calls the Translator, executes the generated algebra script, runs
//! the Classifier on every created class, asks the View Manager to generate
//! and register the new view version, and renames primed classes back to
//! their old names — so the user "will have the perception that she has
//! actually modified her original schema".

use std::collections::{BTreeMap, BTreeSet};

use tse_algebra::{define_vc, ClassRef, Query, Stmt, UpdatePolicy};
use tse_classifier::{classify_with, Subsumption};
use tse_object_model::{
    ClassId, Database, EvolutionTxn, ModelError, ModelResult, Oid, PendingProp, Value,
};
use tse_storage::{FailpointRegistry, StorageError, StoreConfig};
use tse_view::{ViewId, ViewManager, ViewSchema};

use crate::change::{parse_change, SchemaChange};
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

/// The TSE system: one shared database, many evolving views.
pub struct TseSystem {
    pub(crate) db: Database,
    pub(crate) views: ViewManager,
    pub(crate) policy: UpdatePolicy,
    /// The classifier's subsumption prover, kept next to the schema it
    /// describes so a change pays for the classes it adds, not for every
    /// class earlier changes left behind. Cloned into a fork, carried
    /// through the swap-in with it, dropped with a failed one, and emptied
    /// after a rollback. Never persisted: a loaded or recovered system
    /// starts with an empty prover that the first classification advances
    /// over the whole schema.
    prover: Subsumption,
}

/// Pre-change state captured by the outermost `evolve` call: the store
/// transaction (which undoes record/segment mutations) plus clones of the
/// cheap control-plane structures the undo log does not cover.
struct ChangeCheckpoint {
    txn: EvolutionTxn,
    views: ViewManager,
    policy: UpdatePolicy,
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
        TseSystem { db, views, policy, prover: Subsumption::default() }
    }

    /// The shared database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A **copy-free** fork for fork–evolve–swap: the returned system
    /// shares the store contents and object map with `self` (see
    /// [`Database::fork_shared`]) — only schema/view/policy metadata is
    /// (shallowly) cloned. Mutations the fork installs are MVCC versions on
    /// the shared data, invisible to readers pinned before them and
    /// undo-poppable on rollback, so the swap-in is a metadata publish, not
    /// a data migration. The caller must quiesce writers for the fork's
    /// lifetime. Fails if an evolution transaction is open.
    pub fn fork_shared(&self) -> ModelResult<TseSystem> {
        Ok(TseSystem {
            db: self.db.fork_shared()?,
            views: self.views.clone(),
            policy: self.policy.clone(),
            prover: self.prover.clone(),
        })
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
    /// created since).
    pub fn prover(&self) -> &Subsumption {
        &self.prover
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
    /// Each top-level call is **all-or-nothing**: the outermost frame opens
    /// a storage transaction and checkpoints the schema, views, and policy;
    /// on any error the store rolls record/segment mutations back through
    /// its undo log and the control-plane clones are restored, so no
    /// partially created classes survive a failed change. The recursive
    /// sub-evolves a composite macro expands into join the outer
    /// transaction and leave rollback to this frame.
    pub fn evolve(&mut self, family: &str, change: &SchemaChange) -> ModelResult<EvolutionReport> {
        let telemetry = self.db.telemetry().clone();
        // One trace per top-level change: a composite macro's recursive
        // sub-evolves re-enter the same trace, so the whole expansion tree
        // shares one trace id in the journal.
        let _trace = telemetry.ensure_trace("evolve");
        let checkpoint = if self.db.in_evolution() {
            None
        } else {
            Some(ChangeCheckpoint {
                txn: self.db.begin_evolution()?,
                views: self.views.clone(),
                policy: self.policy.clone(),
            })
        };
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
                if let Some(cp) = checkpoint {
                    self.db.commit_evolution(cp.txn)?;
                }
                self.db.publish_store_stats();
                Ok(report)
            }
            Err(e) => {
                span.record("error", true);
                span.finish();
                telemetry.incr("evolve.errors", 1);
                note_fault(&telemetry, &e);
                if let Some(cp) = checkpoint {
                    if is_crash(&e) {
                        // A simulated crash deliberately leaves the
                        // in-memory state torn mid-change (the transaction
                        // stays open, poisoning further evolves): recovery
                        // is exercised by re-opening the system from disk,
                        // not by in-memory rollback.
                    } else {
                        self.views = cp.views;
                        self.policy = cp.policy;
                        self.db.rollback_evolution(cp.txn)?;
                        // The restored schema hands the rolled-back class
                        // ids out again: whatever the prover learnt about
                        // them must not outlive them.
                        if self.prover.known() > self.db.schema().class_count() {
                            self.prover = Subsumption::default();
                        }
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
                }
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
                self.evolve(
                    family,
                    &SchemaChange::AddClass {
                        name: name.clone(),
                        connected_to: Some(sup.clone()),
                    },
                )?;
                self.evolve(
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
                    self.evolve(
                        family,
                        &SchemaChange::DeleteEdge {
                            sup: class.clone(),
                            sub: v.clone(),
                            connected_to: None,
                        },
                    )?;
                    for u in &sups {
                        self.evolve(
                            family,
                            &SchemaChange::AddEdge { sup: u.clone(), sub: v.clone() },
                        )?;
                    }
                }
                for (i, u) in sups.iter().enumerate() {
                    let is_last = i + 1 == sups.len();
                    self.evolve(
                        family,
                        &SchemaChange::DeleteEdge {
                            sup: u.clone(),
                            sub: class.clone(),
                            connected_to: None,
                        },
                    )?;
                    let _ = is_last;
                }
                self.evolve(family, &SchemaChange::DeleteClass { class: class.clone() })
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
                    let placement = classify_with(&mut self.prover, &mut self.db, id)?;
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

    // ----- user data operations through views ------------------------------------

    fn resolve_in(&self, view: ViewId, class_local: &str) -> ModelResult<ClassId> {
        self.views.view(view)?.lookup(&self.db, class_local)
    }

    /// Create an object through a view class.
    pub fn create(
        &self,
        view: ViewId,
        class_local: &str,
        values: &[(&str, Value)],
    ) -> ModelResult<Oid> {
        let started = std::time::Instant::now();
        let class = self.resolve_in(view, class_local)?;
        let out = tse_algebra::create(&self.db, &self.policy, class, values);
        if let Err(e) = &out {
            note_fault(self.db.telemetry(), e);
        }
        observe_op(self.db.telemetry(), &ops::CREATE, started);
        out
    }

    /// Read an attribute through a view class.
    pub fn get(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        attr: &str,
    ) -> ModelResult<Value> {
        let started = std::time::Instant::now();
        let class = self.resolve_in(view, class_local)?;
        let out = self.db.read_attr(oid, class, attr);
        observe_op(self.db.telemetry(), &ops::GET, started);
        out
    }

    /// Set attributes through a view class.
    pub fn set(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        assignments: &[(&str, Value)],
    ) -> ModelResult<()> {
        let started = std::time::Instant::now();
        let class = self.resolve_in(view, class_local)?;
        let out = tse_algebra::set(&self.db, &self.policy, &[oid], class, assignments);
        if let Err(e) = &out {
            note_fault(self.db.telemetry(), e);
        }
        observe_op(self.db.telemetry(), &ops::SET, started);
        out
    }

    /// Add existing objects to a view class.
    pub fn add_to(&self, view: ViewId, oids: &[Oid], class_local: &str) -> ModelResult<()> {
        let class = self.resolve_in(view, class_local)?;
        tse_algebra::add(&self.db, &self.policy, oids, class)
    }

    /// Remove objects from a view class.
    pub fn remove_from(
        &self,
        view: ViewId,
        oids: &[Oid],
        class_local: &str,
    ) -> ModelResult<()> {
        let class = self.resolve_in(view, class_local)?;
        tse_algebra::remove(&self.db, &self.policy, oids, class)
    }

    /// Destroy objects.
    pub fn delete_objects(&self, oids: &[Oid]) -> ModelResult<()> {
        tse_algebra::delete(&self.db, oids)
    }

    /// The extent of a view class.
    pub fn extent(&self, view: ViewId, class_local: &str) -> ModelResult<Vec<Oid>> {
        let class = self.resolve_in(view, class_local)?;
        Ok(self.db.extent(class)?.iter().copied().collect())
    }

    /// `select from <Class> where <expr>` — evaluate a textual boolean
    /// expression over each member of a view class and return the matches.
    ///
    /// ```text
    /// tse.select_where(v, "Student", "gpa >= 3.5 and age < 30")
    /// ```
    pub fn select_where(
        &self,
        view: ViewId,
        class_local: &str,
        expr: &str,
    ) -> ModelResult<Vec<Oid>> {
        let started = std::time::Instant::now();
        let class = self.resolve_in(view, class_local)?;
        let body = crate::change::parse_expr(expr)?;
        let pred = tse_object_model::Predicate::Expr(body);
        let out = tse_algebra::select_objects(&self.db, class, &pred);
        observe_op(self.db.telemetry(), &ops::SELECT_WHERE, started);
        out
    }

    /// `( select from <Class> where <expr> ) set [assignments]` — the
    /// user-level query-update pipeline of §3.3.
    pub fn update_where(
        &self,
        view: ViewId,
        class_local: &str,
        expr: &str,
        assignments: &[(&str, Value)],
    ) -> ModelResult<usize> {
        let started = std::time::Instant::now();
        let class = self.resolve_in(view, class_local)?;
        let pred = tse_object_model::Predicate::Expr(crate::change::parse_expr(expr)?);
        let out = tse_algebra::select_objects(&self.db, class, &pred).and_then(|oids| {
            tse_algebra::set(&self.db, &self.policy, &oids, class, assignments)?;
            Ok(oids.len())
        });
        observe_op(self.db.telemetry(), &ops::UPDATE_WHERE, started);
        out
    }

    /// Invoke a property with dynamic dispatch (late binding) through a view
    /// class — an overriding definition on the object's own class wins even
    /// if this view only knows a superclass.
    pub fn invoke(
        &self,
        view: ViewId,
        oid: Oid,
        class_local: &str,
        name: &str,
    ) -> ModelResult<Value> {
        let class = self.resolve_in(view, class_local)?;
        self.db.invoke(oid, class, name)
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

/// Did the error originate from a simulated-crash failpoint?
pub(crate) fn is_crash(e: &ModelError) -> bool {
    matches!(e, ModelError::Storage(s) if s.is_crash())
}

/// Surface a fired failpoint in the `fault.*` counters and the journal, so
/// the observability layer sees every injected fault.
pub(crate) fn note_fault(telemetry: &tse_telemetry::Telemetry, e: &ModelError) {
    let (site, kind) = match e {
        ModelError::Storage(StorageError::Injected(site)) => (site, "error"),
        ModelError::Storage(StorageError::SimulatedCrash(site)) => (site, "crash"),
        _ => return,
    };
    telemetry.incr("fault.injected", 1);
    if kind == "crash" {
        telemetry.incr("fault.crashes", 1);
    }
    telemetry.event("fault.fired", &[("site", site.as_str().into()), ("kind", kind.into())]);
}

/// The data-plane operations, with their `op.<name>` / `latency.<name>`
/// metric names interned (DESIGN.md §8).
pub(crate) mod ops {
    use tse_telemetry::{op_name, OpName};

    pub(crate) const CREATE: OpName = op_name!("create");
    pub(crate) const GET: OpName = op_name!("get");
    pub(crate) const SET: OpName = op_name!("set");
    pub(crate) const EXTENT: OpName = op_name!("extent");
    pub(crate) const SELECT_WHERE: OpName = op_name!("select_where");
    pub(crate) const UPDATE_WHERE: OpName = op_name!("update_where");
    pub(crate) const INVOKE: OpName = op_name!("invoke");
    pub(crate) const ADD_TO: OpName = op_name!("add_to");
    pub(crate) const REMOVE_FROM: OpName = op_name!("remove_from");
    pub(crate) const DELETE_OBJECTS: OpName = op_name!("delete_objects");
}

/// Count a data-plane operation (`op.<name>`) and record its wall-clock
/// latency into the `latency.<name>` histogram.
pub(crate) fn observe_op(
    telemetry: &tse_telemetry::Telemetry,
    op: &tse_telemetry::OpName,
    started: std::time::Instant,
) {
    telemetry.observe_op(op, started.elapsed().as_nanos() as u64, None);
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
