//! The seeded university population shared by the read-side workloads and
//! the layer probes, with the in-memory expectation every `get` is checked
//! against.
//!
//! Schema: the `tse-workload` university (Figure 2) plus [`SEMINARS`] small
//! leaf classes under `Student`, so `select_where`/`extent` have ~64-object
//! extents to scan. History: [`history`] — `add_attribute` steps cycling
//! over the classes, a share of whose values is then written *through the
//! evolved view*, so reads of old objects through new versions hit primed
//! slices rather than defaults.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{
    LocalClient, ReadSession, SharedSystem, TseClient, TseResult, TseSystem, TseWriter,
};
use tse_object_model::{ModelResult, Oid, PendingProp, Value};
use tse_view::ViewId;
use tse_workload::{build_university, populate_university};

/// The one view family every workload evolves.
pub const FAMILY: &str = "uni";
/// Small leaf classes under `Student`.
pub const SEMINARS: usize = 8;
/// Members per seminar: the "roughly 64-object extent".
pub const SEMINAR_SIZE: usize = 64;
/// One stored attribute's expected contents: the default plus what was
/// written, by object index.
#[derive(Debug)]
struct Attr {
    default: Value,
    written: HashMap<u32, Value>,
}

/// The seeded in-memory expectation.
#[derive(Debug, Default)]
pub struct Model {
    attrs: HashMap<String, Attr>,
    /// Object index → oid, in creation order.
    pub oids: Vec<Oid>,
    index: HashMap<Oid, u32>,
}

impl Model {
    fn declare(&mut self, attr: &str, default: Value) {
        self.attrs.insert(
            attr.to_string(),
            Attr {
                default,
                written: HashMap::new(),
            },
        );
    }

    /// Record a write of `attr` on object `idx`.
    pub fn write(&mut self, attr: &str, idx: u32, value: Value) {
        self.attrs
            .get_mut(attr)
            .expect("declared attribute")
            .written
            .insert(idx, value);
    }

    /// Does the model know this attribute (stored, declared)?
    pub fn knows(&self, attr: &str) -> bool {
        self.attrs.contains_key(attr)
    }

    /// The value a read of `attr` on object `idx` must return.
    pub fn expect(&self, attr: &str, idx: u32) -> &Value {
        let a = &self.attrs[attr];
        a.written.get(&idx).unwrap_or(&a.default)
    }

    /// Object index of an oid the population created.
    pub fn index_of(&self, oid: Oid) -> Option<u32> {
        self.index.get(&oid).copied()
    }

    fn push(&mut self, oid: Oid) -> u32 {
        let idx = self.oids.len() as u32;
        self.oids.push(oid);
        self.index.insert(oid, idx);
        idx
    }

    pub fn len(&self) -> usize {
        self.oids.len()
    }
}

/// Define the `tse-workload` university schema through the client API and
/// create view v1 of the client's family over all of it. The classes are
/// read back from `build_university`, which can only build a bare
/// `TseSystem`; durable and served systems are defined through the client.
pub fn define_university<C: TseClient>(client: &C) -> TseResult<()> {
    let (twin, _) = build_university()?;
    let schema = twin.db().schema();
    let mut names = Vec::new();
    for id in schema.class_ids().filter(|id| *id != schema.root()) {
        let class = schema.class(id)?;
        let supers = class
            .direct_supers()
            .iter()
            .filter(|s| **s != schema.root())
            .map(|s| Ok(schema.class(*s)?.name.as_str()))
            .collect::<ModelResult<Vec<&str>>>()?;
        let props = class
            .locals()
            .iter()
            .map(|p| PendingProp {
                name: p.def.name.clone(),
                kind: p.def.kind.clone(),
            })
            .collect();
        client.define_class(&class.name, &supers, props)?;
        names.push(class.name.as_str());
    }
    client.create_view(&names)?;
    Ok(())
}

/// A populated single-threaded system at view version 1.
pub struct Population {
    pub tse: TseSystem,
    pub v1: ViewId,
    pub model: Model,
}

pub fn seminar(k: usize) -> String {
    format!("Seminar{k}")
}

/// Build the schema, view v1 and `n` round-robin objects plus the seminar
/// members, with seeded `gpa`/`salary`/seminar ages.
pub fn build(seed: u64, n: usize) -> ModelResult<Population> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_7075);
    let (mut tse, _) = build_university()?;
    for k in 0..SEMINARS {
        tse.define_base_class(&seminar(k), &["Student"], vec![])?;
    }
    let v1 = tse.create_view_all(FAMILY)?;
    let mut model = Model::default();
    model.declare("name", Value::Null);
    model.declare("age", Value::Int(0));
    model.declare("gpa", Value::Float(0.0));
    model.declare("salary", Value::Int(0));
    model.declare("lecture", Value::Null);
    model.declare("boss", Value::Null);

    for (i, oid) in populate_university(&mut tse, v1, n)?
        .into_iter()
        .enumerate()
    {
        let idx = model.push(oid);
        model.write("name", idx, Value::Str(format!("p{i}")));
        model.write("age", idx, Value::Int(18 + (i as i64 % 50)));
    }
    // Which class each object landed in is `populate_university`'s business:
    // ask the extents who has a gpa and who has a salary (sorted, so the
    // seeded values land on the same objects every run).
    let sorted_extent = |tse: &TseSystem, class: &str| -> ModelResult<Vec<Oid>> {
        let mut oids = tse.extent(v1, class)?;
        oids.sort_unstable();
        Ok(oids)
    };
    for oid in sorted_extent(&tse, "Student")? {
        let gpa = Value::Float(rng.gen_range(0..400) as f64 / 100.0);
        tse.set(v1, oid, "Student", &[("gpa", gpa.clone())])?;
        model.write("gpa", model.index[&oid], gpa);
    }
    for oid in sorted_extent(&tse, "Staff")? {
        let salary = Value::Int(rng.gen_range(30_000..90_000));
        tse.set(v1, oid, "Staff", &[("salary", salary.clone())])?;
        model.write("salary", model.index[&oid], salary);
    }
    for k in 0..SEMINARS {
        for j in 0..SEMINAR_SIZE {
            let name = Value::Str(format!("s{k}_{j}"));
            let age = Value::Int(rng.gen_range(18..68));
            let oid = tse.create(
                v1,
                &seminar(k),
                &[("name", name.clone()), ("age", age.clone())],
            )?;
            let idx = model.push(oid);
            model.write("name", idx, name);
            model.write("age", idx, age);
        }
    }
    Ok(Population { tse, v1, model })
}

/// One step of the evolution history.
pub struct HistoryStep {
    pub command: String,
    pub class: &'static str,
    pub attr: String,
    pub default: i64,
}

/// `steps` schema changes: `add_attribute h<k>: int = <k>` cycling over the
/// university classes (so primed classes appear all over the DAG).
pub fn history(steps: usize) -> Vec<HistoryStep> {
    const TARGETS: [&str; 8] = [
        "Person",
        "Student",
        "Staff",
        "TeachingStaff",
        "TA",
        "Grad",
        "Undergrad",
        "SupportStaff",
    ];
    (0..steps)
        .map(|k| {
            let class = TARGETS[k % TARGETS.len()];
            HistoryStep {
                command: format!("add_attribute h{k}: int = {k} to {class}"),
                class,
                attr: format!("h{k}"),
                default: k as i64,
            }
        })
        .collect()
}

/// The value written to evolved attribute `k` of object `idx`, for the
/// sixteenth of the members that get one.
fn evolved_value(k: usize, idx: u32) -> Option<Value> {
    idx.is_multiple_of(16)
        .then(|| Value::Int(1_000_000 * k as i64 + idx as i64))
}

/// A shared system whose family was evolved `steps` times, with one client
/// still bound to version 1 and one re-bound to the newest version.
pub struct Evolved {
    pub sys: SharedSystem,
    /// The "old program": bound to v1 before the history ran.
    pub legacy: LocalClient,
    /// The evolving user: bound to the newest version.
    pub admin: LocalClient,
    pub model: Model,
}

/// Wrap a population for sharing and run the history through the public
/// client API (fork–evolve–swap), writing evolved attributes through the
/// newest view.
pub fn evolve_shared(pop: Population, steps: usize) -> TseResult<Evolved> {
    let Population { tse, mut model, .. } = pop;
    let sys = SharedSystem::from_system(tse);
    let legacy = sys.client(FAMILY);
    let admin = sys.client(FAMILY);
    let plan = history(steps);
    for step in &plan {
        admin.evolve(&step.command)?;
        model.declare(&step.attr, Value::Int(step.default));
    }
    let writer = admin.writer()?;
    let session = sys.session();
    let newest = *session
        .meta()
        .views()
        .versions(FAMILY)?
        .last()
        .expect("view exists");
    for (k, step) in plan.iter().enumerate() {
        for oid in session.extent(newest, step.class)? {
            let idx = model.index_of(oid).expect("population oid");
            if let Some(v) = evolved_value(k, idx) {
                writer.set(oid, step.class, &[(&step.attr, v.clone())])?;
                model.write(&step.attr, idx, v);
            }
        }
    }
    drop((writer, session));
    Ok(Evolved {
        sys,
        legacy,
        admin,
        model,
    })
}

/// The same history applied below the sharing layer, for probes that need
/// the bare [`TseSystem`]. Returns the newest view.
pub fn evolve_single(pop: &mut Population, steps: usize) -> ModelResult<ViewId> {
    let mut newest = pop.v1;
    for (k, step) in history(steps).iter().enumerate() {
        newest = pop.tse.evolve_cmd(FAMILY, &step.command)?.view;
        pop.model.declare(&step.attr, Value::Int(step.default));
        for oid in pop.tse.extent(newest, step.class)? {
            let idx = pop.model.index_of(oid).expect("population oid");
            if let Some(v) = evolved_value(k, idx) {
                pop.tse
                    .set(newest, oid, step.class, &[(&step.attr, v.clone())])?;
                pop.model.write(&step.attr, idx, v);
            }
        }
    }
    Ok(newest)
}

/// One `(class, attr)` pair visible through a view, with the indices of the
/// objects that can be read through it.
#[derive(Debug, Clone)]
pub struct Pair {
    pub class: String,
    pub attr: String,
    pub members: Vec<u32>,
}

/// Every `(view class, stored attribute)` pair visible through `view`
/// (classes with no members are skipped), in a deterministic order.
pub fn visible_pairs(session: &ReadSession, view: ViewId, model: &Model) -> ModelResult<Vec<Pair>> {
    let schema = session.meta().schema();
    let vs = session.view(view)?;
    let mut pairs = Vec::new();
    for class_id in &vs.classes {
        let class = vs.local_name_in(schema, *class_id)?;
        let mut members: Vec<u32> = session
            .extent(view, &class)?
            .into_iter()
            .filter_map(|oid| model.index_of(oid))
            .collect();
        members.sort_unstable();
        if members.is_empty() {
            continue;
        }
        let rt = schema.resolved_type(*class_id)?;
        for (attr, prop) in &rt.props {
            if model.knows(attr) && !prop.is_ambiguous() {
                pairs.push(Pair {
                    class: class.clone(),
                    attr: attr.clone(),
                    members: members.clone(),
                });
            }
        }
    }
    pairs.sort_by(|a, b| (&a.class, &a.attr).cmp(&(&b.class, &b.attr)));
    Ok(pairs)
}

/// The first and newest view versions of [`FAMILY`].
pub fn first_and_newest(session: &ReadSession) -> ModelResult<(ViewId, ViewId)> {
    let versions = session.meta().views().versions(FAMILY)?;
    Ok((
        *versions.first().expect("v1"),
        *versions.last().expect("newest"),
    ))
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// 80/20 hot/cold pick from `members`: four draws in five land in the first
/// fifth of the list.
pub fn pick_hot_cold(rng: &mut StdRng, members: &[u32]) -> u32 {
    let hot = (members.len() / 5).max(1);
    if rng.gen_range(0..5) < 4 {
        members[rng.gen_range(0..hot)]
    } else {
        members[rng.gen_range(0..members.len())]
    }
}
