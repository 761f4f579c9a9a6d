//! Acked-write histories and the one checker of what they must leave
//! behind.
//!
//! A harness records every write it issues as an [`Op`] together with the
//! view version it went through and its [`Outcome`]: `Acked`, or `Unknown`
//! when the call returned an error (or may have been sent) so the write may
//! or may not have landed. Objects are addressed by a unique integer
//! **tag** stored in an attribute the harness names — never by oid, since
//! two allocators (the system under test and the model) may legitimately
//! hand out different oids once a fault skips an allocation.
//!
//! The model is the engine itself: [`History::check`] folds the acked ops,
//! in ack order, through a fresh in-memory [`SharedSystem`] seeded with the
//! harness's schema, replaying every data op **through the view version it
//! was issued at** — the transparency contract of the paper — so there is
//! no second description of TSE semantics to keep in step. Every
//! client-visible state is then a fold of the acknowledged prefix (Living
//! Databases), and the store read back through any [`TseReader`] must
//! equal it tag for tag, with each tag present at most once.
//!
//! Seeded tests take their seeds from [`seeds`] (`TSE_SEED` overrides the
//! defaults) and run through [`seeded`], whose panic message names the
//! command that reproduces a red seed.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use tse_core::{
    parse_change, HealthStatus, ReadSession, SchemaChange, SharedSystem, TseClient, TseCode,
    TseError, TseReader, TseResult, TseWriter, WriteSession,
};
use tse_object_model::{Oid, Value};
use tse_view::ViewId;

/// One write of a history. Data ops name their object by tag; an
/// `UpdateWhere` targets exactly the object whose tag equals `tag`.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Create the object carrying `tag`, with `values` for other attributes.
    Create {
        /// The new object's tag.
        tag: i64,
        /// Attribute values besides the tag.
        values: Vec<(String, Value)>,
    },
    /// Set one attribute of the object carrying `tag`.
    Set {
        /// Target object.
        tag: i64,
        /// Attribute to write.
        attr: String,
        /// New value.
        value: Value,
    },
    /// `select where <tag attr> == tag` then set: a single-target
    /// query-update.
    UpdateWhere {
        /// Target object.
        tag: i64,
        /// Attribute to write.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Destroy the object carrying `tag`.
    Delete {
        /// Target object.
        tag: i64,
    },
    /// A textual schema change applied to the history's view family.
    Evolve {
        /// The command, as [`TseClient::evolve`] takes it.
        command: String,
    },
}

impl Op {
    /// The tag a data op touches; `None` for an evolve.
    pub fn tag(&self) -> Option<i64> {
        match self {
            Op::Create { tag, .. }
            | Op::Set { tag, .. }
            | Op::UpdateWhere { tag, .. }
            | Op::Delete { tag } => Some(*tag),
            Op::Evolve { .. } => None,
        }
    }

    /// Issue a data op through `writer`; `Set` and `Delete` find their
    /// object through `reader`. An evolve goes through
    /// [`TseClient::evolve`] instead (see [`History::issue`]).
    pub fn write<W: TseWriter, R: TseReader>(
        &self,
        writer: &W,
        reader: &R,
        class: &str,
        tag_attr: &str,
    ) -> TseResult<()> {
        let only = |tag: i64| -> TseResult<Oid> {
            let found = reader.select_where(class, &format!("{tag_attr} == {tag}"))?;
            match found[..] {
                [oid] => Ok(oid),
                _ => Err(TseError::new(
                    TseCode::FailedPrecondition,
                    format!("tag {tag} names {} objects, not one", found.len()),
                )),
            }
        };
        match self {
            Op::Create { tag, values } => {
                let mut all: Vec<(&str, Value)> =
                    values.iter().map(|(a, v)| (a.as_str(), v.clone())).collect();
                all.push((tag_attr, Value::Int(*tag)));
                writer.create(class, &all).map(drop)
            }
            Op::Set { tag, attr, value } => {
                writer.set(only(*tag)?, class, &[(attr, value.clone())])
            }
            Op::UpdateWhere { tag, attr, value } => writer
                .update_where(class, &format!("{tag_attr} == {tag}"), &[(attr, value.clone())])
                .map(drop),
            Op::Delete { tag } => writer.delete_objects(&[only(*tag)?]),
            Op::Evolve { command } => Err(TseError::new(
                TseCode::InvalidArgument,
                format!("`{command}` is an evolve, not a data write"),
            )),
        }
    }
}

/// What the harness knows about an op once its call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Acknowledged: it must be in the store.
    Acked,
    /// The call failed or may have been sent: it landed whole or not at all.
    Unknown,
}

/// One recorded op.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The op.
    pub op: Op,
    /// The view version (1-based, within the family) it was issued through.
    pub version: u32,
    /// Acked or unknown.
    pub outcome: Outcome,
}

/// Rows of a store, keyed by tag: one rendered row per object carrying the
/// tag (`attr=value;…`, an unreadable attribute as `<missing>`). Objects
/// whose tag is unreadable sit under `None`.
pub type Digest = BTreeMap<Option<i64>, Vec<String>>;

/// An ordered record of the writes a harness issued to one class of one
/// view family, and the checker of what they must leave behind.
#[derive(Debug, Clone)]
pub struct History {
    family: String,
    class: String,
    tag_attr: String,
    seed: fn(&SharedSystem),
    entries: Vec<Entry>,
}

impl History {
    /// An empty history of writes to `class` of view family `family`,
    /// tagged in `tag_attr`. `seed` builds the schema (classes and the
    /// family's first view) the harness started from; the model folds from
    /// it.
    pub fn new(family: &str, class: &str, tag_attr: &str, seed: fn(&SharedSystem)) -> History {
        History {
            family: family.to_string(),
            class: class.to_string(),
            tag_attr: tag_attr.to_string(),
            seed,
            entries: Vec::new(),
        }
    }

    /// The recorded ops, in ack order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Record an op. An `Unknown` op blocks further ops on its tag — and an
    /// `Unknown` evolve further evolves — until [`History::check`] resolves
    /// it; recording one anyway is a harness bug and panics.
    pub fn record(&mut self, op: Op, version: u32, outcome: Outcome) {
        let blocked = self.entries.iter().any(|e| {
            e.outcome == Outcome::Unknown
                && match (&e.op, &op) {
                    (Op::Evolve { .. }, Op::Evolve { .. }) => true,
                    (a, b) => a.tag().is_some() && a.tag() == b.tag(),
                }
        });
        assert!(!blocked, "{op:?} recorded behind an unresolved Unknown op");
        self.entries.push(Entry { op, version, outcome });
    }

    /// Issue `op` through `client` at its bound version and record it:
    /// `Acked` on success, `Unknown` on an error from the op itself, which
    /// is returned. A failure to open the handles returns before anything
    /// is sent and records nothing.
    pub fn issue<C: TseClient>(&mut self, client: &C, op: Op) -> TseResult<()> {
        let (version, out) = match &op {
            Op::Evolve { command } => (client.versions()?, client.evolve(command).map(drop)),
            data => {
                let reader = client.session()?;
                let writer = client.writer()?;
                (reader.view_version(), data.write(&writer, &reader, &self.class, &self.tag_attr))
            }
        };
        let outcome = if out.is_ok() { Outcome::Acked } else { Outcome::Unknown };
        self.record(op, version, outcome);
        out
    }

    /// Tags of objects an acked create made and no acked delete removed,
    /// with no `Unknown` op pending — the valid targets of a next op.
    pub fn live_tags(&self) -> Vec<i64> {
        let mut live = BTreeSet::new();
        for e in &self.entries {
            let Some(tag) = e.op.tag() else { continue };
            match (&e.op, e.outcome) {
                (Op::Create { .. }, Outcome::Acked) => live.insert(tag),
                (Op::Delete { .. }, _) | (_, Outcome::Unknown) => live.remove(&tag),
                _ => false,
            };
        }
        live.into_iter().collect()
    }

    /// Attributes the acked `add_attribute` evolves added, in order.
    pub fn added_attributes(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.outcome == Outcome::Acked)
            .filter_map(|e| added_attribute(&e.op))
            .collect()
    }

    /// The digest of the history's class as `reader` sees it, over the tag,
    /// every attribute the history writes and every attribute its evolves
    /// add.
    pub fn digest<R: TseReader>(&self, reader: &R) -> TseResult<Digest> {
        let mut attrs = BTreeSet::new();
        for e in &self.entries {
            match &e.op {
                Op::Create { values, .. } => attrs.extend(values.iter().map(|(a, _)| a.clone())),
                Op::Set { attr, .. } | Op::UpdateWhere { attr, .. } => {
                    attrs.insert(attr.clone());
                }
                op => attrs.extend(added_attribute(op)),
            }
        }
        attrs.remove(&self.tag_attr);
        let mut digest = Digest::new();
        for oid in reader.extent(&self.class)? {
            let read = |attr: &str| reader.get(oid, &self.class, attr).ok();
            let render =
                |v: &Option<Value>| v.as_ref().map_or("<missing>".into(), |v| format!("{v:?}"));
            let tag = read(&self.tag_attr);
            let mut row = format!("{}={}", self.tag_attr, render(&tag));
            for attr in &attrs {
                row.push_str(&format!(";{attr}={}", render(&read(attr))));
            }
            let key = match tag {
                Some(Value::Int(t)) => Some(t),
                _ => None,
            };
            digest.entry(key).or_default().push(row);
        }
        for rows in digest.values_mut() {
            rows.sort();
        }
        Ok(digest)
    }

    /// Check the store behind `client` (read at its bound version) against
    /// the history:
    ///
    /// 1. `Unknown` evolves are resolved by the family's version count (the
    ///    earliest ones landed).
    /// 2. Every tag's rows must equal the acked-only fold's; a tag with an
    ///    `Unknown` op may instead equal the fold that also applies every
    ///    `Unknown` data op. No tag may appear twice (exactly-once), and no
    ///    object may lack a readable tag.
    ///
    /// Returns the resolved history — landed `Unknown` ops promoted to
    /// `Acked`, the rest dropped — so the harness can keep going.
    ///
    /// A resolution holds only for a state no redo can change. While
    /// `client.health()` reports `Poisoned`, a reopen may still redo the
    /// frame of an op the live store does not show, or lose the frame of a
    /// data op it does show (a data op applies before its frame is
    /// appended). So a poisoned check still compares the store with both
    /// folds, but leaves every in-flight data op and every evolve that has
    /// not landed `Unknown`; a published evolve was durable before it was
    /// published, and is promoted as usual.
    pub fn check<C: TseClient>(&self, client: &C) -> Result<History, String> {
        let poisoned = matches!(client.health(), Ok(HealthStatus::Poisoned));
        let versions = client.versions().map_err(|e| format!("read version count: {e}"))?;
        let mut resolved = self.clone();
        let mut acked = self.fold(false)?;
        let have =
            acked.session().meta().views().versions(&self.family).map_or(0, |v| v.len() as u32);
        let unknown_evolves = self
            .entries
            .iter()
            .filter(|e| e.outcome == Outcome::Unknown && e.op.tag().is_none())
            .count() as u32;
        if versions < have || versions > have + unknown_evolves {
            return Err(format!(
                "family {:?} has {versions} versions; the acked evolves give {have} and \
                 {unknown_evolves} more were in flight",
                self.family
            ));
        }
        let mut landed = versions - have;
        resolved.entries.retain_mut(|e| {
            if e.outcome == Outcome::Acked || e.op.tag().is_some() {
                return true;
            }
            if landed == 0 {
                return poisoned;
            }
            landed -= 1;
            e.outcome = Outcome::Acked;
            true
        });
        if versions > have {
            acked = resolved.fold(false)?;
        }

        let pending: BTreeSet<i64> = resolved
            .entries
            .iter()
            .filter(|e| e.outcome == Outcome::Unknown)
            .filter_map(|e| e.op.tag())
            .collect();
        let reader = client.session().map_err(|e| format!("open reader: {e}"))?;
        let at = reader.view_version();
        let got = resolved.digest(&reader).map_err(|e| format!("read the store: {e}"))?;
        let want = resolved.model_digest(&acked, at)?;
        let with_unknown = if pending.is_empty() {
            want.clone()
        } else {
            resolved.model_digest(&resolved.fold(true)?, at)?
        };

        if let Some(rows) = got.get(&None) {
            return Err(format!("{} object(s) without a readable tag: {rows:?}", rows.len()));
        }
        let none = Vec::new();
        let mut landed_tags = BTreeSet::new();
        let keys: BTreeSet<&Option<i64>> =
            got.keys().chain(want.keys()).chain(with_unknown.keys()).collect();
        for key in keys {
            let tag = key.expect("untagged rows were rejected above");
            let row = |d: &Digest| d.get(key).unwrap_or(&none).clone();
            let (g, a, b) = (row(&got), row(&want), row(&with_unknown));
            if g.len() > 1 {
                return Err(format!("tag {tag} is present {} times: {g:?}", g.len()));
            }
            if g == a {
                continue;
            }
            if pending.contains(&tag) && g == b {
                landed_tags.insert(tag);
                continue;
            }
            let in_flight = if pending.contains(&tag) {
                format!("\n  with its in-flight op: {b:?}")
            } else {
                String::new()
            };
            return Err(format!(
                "tag {tag} through version {at}\n  acked history leaves: {a:?}{in_flight}\n  \
                 store holds:           {g:?}"
            ));
        }
        resolved.entries.retain_mut(|e| match e.op.tag() {
            Some(_) if poisoned => true,
            Some(tag) if e.outcome == Outcome::Unknown => {
                e.outcome = Outcome::Acked;
                landed_tags.contains(&tag)
            }
            _ => true,
        });
        Ok(resolved)
    }

    /// A fresh model: the seed schema, then the acked ops (plus every
    /// `Unknown` data op when `with_unknown`), each data op through the
    /// version it was issued at. A model that refuses an acked op is an
    /// error; one that refuses an `Unknown` op shows that op never landed.
    fn fold(&self, with_unknown: bool) -> Result<SharedSystem, String> {
        let model = SharedSystem::new();
        (self.seed)(&model);
        for e in &self.entries {
            let unknown = e.outcome == Outcome::Unknown;
            let out = match &e.op {
                Op::Evolve { .. } if unknown => continue,
                Op::Evolve { command } => {
                    model.evolve_cmd(&self.family, command).map(drop).map_err(|e| e.to_string())
                }
                _ if unknown && !with_unknown => continue,
                op => {
                    let at = Pinned::at(&model, &self.family, e.version)?;
                    op.write(&at, &at, &self.class, &self.tag_attr).map_err(|e| e.to_string())
                }
            };
            if !unknown {
                out.map_err(|err| format!("the model refused acked {:?}: {err}", e.op))?;
            }
        }
        Ok(model)
    }

    fn model_digest(&self, model: &SharedSystem, version: u32) -> Result<Digest, String> {
        let at = Pinned::at(model, &self.family, version)?;
        self.digest(&at).map_err(|e| format!("read the model: {e}"))
    }
}

/// The attribute an `add_attribute` evolve adds.
fn added_attribute(op: &Op) -> Option<String> {
    match op {
        Op::Evolve { command } => match parse_change(command) {
            Ok(SchemaChange::AddAttribute { name, .. }) => Some(name),
            _ => None,
        },
        _ => None,
    }
}

/// The model read and written through one view version, fresh per use so
/// every read sees every earlier write.
struct Pinned {
    session: ReadSession,
    writer: WriteSession,
    view: ViewId,
}

impl Pinned {
    fn at(model: &SharedSystem, family: &str, version: u32) -> Result<Pinned, String> {
        let session = model.session();
        let view = session
            .meta()
            .views()
            .versions(family)
            .ok()
            .and_then(|v| v.get((version as usize).wrapping_sub(1)).copied())
            .ok_or_else(|| format!("the model has no version {version} of {family:?}"))?;
        Ok(Pinned { session, writer: model.writer(), view })
    }
}

impl TseReader for Pinned {
    fn view_version(&self) -> u32 {
        self.session.meta().view(self.view).map_or(0, |v| v.version)
    }
    fn get(&self, oid: Oid, class: &str, attr: &str) -> TseResult<Value> {
        Ok(self.session.get(self.view, oid, class, attr)?)
    }
    fn extent(&self, class: &str) -> TseResult<Vec<Oid>> {
        Ok(self.session.extent(self.view, class)?)
    }
    fn select_where(&self, class: &str, expr: &str) -> TseResult<Vec<Oid>> {
        Ok(self.session.select_where(self.view, class, expr)?)
    }
    fn invoke(&self, oid: Oid, class: &str, name: &str) -> TseResult<Value> {
        Ok(self.session.invoke(self.view, oid, class, name)?)
    }
    fn refresh(&mut self) -> TseResult<()> {
        self.session.refresh();
        Ok(())
    }
}

impl TseWriter for Pinned {
    fn create(&self, class: &str, values: &[(&str, Value)]) -> TseResult<Oid> {
        Ok(self.writer.create(self.view, class, values)?)
    }
    fn set(&self, oid: Oid, class: &str, assignments: &[(&str, Value)]) -> TseResult<()> {
        Ok(self.writer.set(self.view, oid, class, assignments)?)
    }
    fn update_where(
        &self,
        class: &str,
        expr: &str,
        assignments: &[(&str, Value)],
    ) -> TseResult<usize> {
        Ok(self.writer.update_where(self.view, class, expr, assignments)?)
    }
    fn add_to(&self, oids: &[Oid], class: &str) -> TseResult<()> {
        Ok(self.writer.add_to(self.view, oids, class)?)
    }
    fn remove_from(&self, oids: &[Oid], class: &str) -> TseResult<()> {
        Ok(self.writer.remove_from(self.view, oids, class)?)
    }
    fn delete_objects(&self, oids: &[Oid]) -> TseResult<()> {
        Ok(self.writer.delete_objects(oids)?)
    }
    fn refresh(&mut self) -> TseResult<()> {
        self.writer.refresh();
        Ok(())
    }
}

/// The seeds a seeded test runs: `TSE_SEED` when set, else `defaults`.
pub fn seeds(defaults: &[u64]) -> Vec<u64> {
    match std::env::var("TSE_SEED") {
        Ok(seed) => vec![seed.trim().parse().expect("TSE_SEED must be an unsigned integer")],
        Err(_) => defaults.to_vec(),
    }
}

/// Run `body` once per seed of [`seeds`]. A failing seed re-panics with
/// the command that reruns just it: `TSE_SEED=<n> cargo test --release
/// <target>`, where `target` selects the test (`--test torture -- kill`).
pub fn seeded(target: &str, defaults: &[u64], body: impl Fn(u64)) {
    for seed in seeds(defaults) {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("seed {seed} failed: {msg}\nreproduce: TSE_SEED={seed} cargo test --release {target}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::{PropertyDef, ValueType};

    fn seed(sys: &SharedSystem) {
        sys.define_base_class(
            "Item",
            &[],
            vec![
                PropertyDef::stored("tag", ValueType::Int, Value::Int(-1)),
                PropertyDef::stored("name", ValueType::Str, Value::Null),
            ],
        )
        .unwrap();
        sys.create_view("V", &["Item"]).unwrap();
    }

    fn create(tag: i64) -> Op {
        Op::Create { tag, values: vec![("name".into(), Value::Str(format!("i{tag}")))] }
    }

    /// A store with three acked creates and an acked rename of tag 1.
    fn store() -> (SharedSystem, History) {
        let sys = SharedSystem::new();
        seed(&sys);
        let mut history = History::new("V", "Item", "tag", seed);
        let client = sys.client("V");
        for tag in 0..3 {
            history.issue(&client, create(tag)).unwrap();
        }
        let set = Op::Set { tag: 1, attr: "name".into(), value: Value::Str("renamed".into()) };
        history.issue(&client, set).unwrap();
        (sys, history)
    }

    /// Write `op` to the store behind the history's back.
    fn tamper(sys: &SharedSystem, op: &Op) {
        let client = sys.client("V");
        match op {
            Op::Evolve { command } => drop(client.evolve(command).unwrap()),
            op => op
                .write(&client.writer().unwrap(), &client.session().unwrap(), "Item", "tag")
                .unwrap(),
        }
    }

    const RANK: &str = "add_attribute rank: int = 4 to Item";

    #[test]
    fn every_injected_discrepancy_fails_the_check() {
        let older = Op::Set { tag: 1, attr: "name".into(), value: Value::Str("i1".into()) };
        let cases = [
            (Op::Delete { tag: 2 }, "tag 2 through"), // an acked create is missing
            (create(0), "tag 0 is present 2 times"),  // an acked create applied twice
            (older, "renamed"),                       // an acked set holds an older value
            (create(99), "tag 99 through"),           // a tag the history never wrote
            (Op::Evolve { command: RANK.into() }, "versions"), // an evolve it never made
        ];
        for (op, expect) in cases {
            let (sys, history) = store();
            let resolved = history.check(&sys.client("V")).unwrap();
            assert_eq!(resolved.entries(), history.entries());
            tamper(&sys, &op);
            let err = history.check(&sys.client("V")).unwrap_err();
            assert!(err.contains(expect), "{op:?}: {err}");
        }
    }

    #[test]
    fn an_unknown_op_may_land_or_not() {
        for op in [create(7), Op::Evolve { command: RANK.into() }] {
            for landed in [false, true] {
                let (sys, mut history) = store();
                if landed {
                    tamper(&sys, &op);
                }
                history.record(op.clone(), 1, Outcome::Unknown);
                assert_eq!(history.live_tags(), vec![0, 1, 2], "pending tags are no targets");
                let resolved = history.check(&sys.client("V")).unwrap();
                assert_eq!(resolved.entries().last().unwrap().op == op, landed, "{op:?} {landed}");
                assert!(resolved.entries().iter().all(|e| e.outcome == Outcome::Acked));
            }
        }
    }

    /// On a poisoned system a reopen may still redo the frame of an
    /// evolve that did not publish, so the live check leaves it `Unknown`
    /// (and keeps it, where a healthy check would drop it).
    #[test]
    fn a_poisoned_live_check_leaves_an_in_flight_evolve_unknown() {
        let dir = std::env::temp_dir().join(format!("tse_history_poison_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sys = SharedSystem::open(&dir).unwrap();
        seed(&sys);
        let client = sys.client("V");
        let mut history = History::new("V", "Item", "tag", seed);
        history.issue(&client, create(0)).unwrap();
        sys.failpoints().arm("durable.wal_fsync", 1, tse_storage::FailAction::Error);
        assert!(history.issue(&client, Op::Evolve { command: RANK.into() }).is_err());
        assert_eq!(client.health().unwrap(), HealthStatus::Poisoned);
        let resolved = history.check(&client).unwrap();
        assert_eq!(resolved.entries(), history.entries());
        assert_eq!(resolved.entries().last().unwrap().outcome, Outcome::Unknown);
        drop((client, sys));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "unresolved Unknown")]
    fn an_op_behind_an_unknown_op_on_its_tag_is_refused() {
        let (_, mut history) = store();
        history.record(Op::Delete { tag: 0 }, 1, Outcome::Unknown);
        history.record(Op::Delete { tag: 0 }, 1, Outcome::Acked);
    }

    #[test]
    fn data_written_through_an_old_version_is_replayed_through_it() {
        let (sys, mut history) = store();
        let client = sys.client("V");
        let old = sys.client("V");
        history.issue(&client, Op::Evolve { command: RANK.into() }).unwrap();
        // `old` was bound before the evolve: its write goes through v1.
        let reader = old.session().unwrap();
        assert_eq!(reader.view_version(), 1);
        history.issue(&old, create(5)).unwrap();
        assert_eq!(history.entries().last().unwrap().version, 1);
        history
            .issue(&client, Op::Set { tag: 5, attr: "rank".into(), value: Value::Int(9) })
            .unwrap();
        history.check(&client).unwrap();
    }
}
