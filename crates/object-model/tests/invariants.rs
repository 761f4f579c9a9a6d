//! Object-model invariants under randomized operation sequences:
//! membership closure, extent consistency for every operator, ad-hoc
//! selects (cached or not) against a filter of the uncached extent, and
//! attribute-write round-trips through arbitrary perspectives.

use std::collections::BTreeSet;

use bytes::BytesMut;
use proptest::prelude::*;

use tse_object_model::{
    BinOp, ClassId, ClassKind, Database, Derivation, Oid, Predicate, PropertyDef, Value,
    ValueType,
};
use tse_storage::StoreConfig;

/// The database through an encode/decode round trip.
fn restored(db: &Database) -> Database {
    let mut buf = BytesMut::new();
    db.encode_into(&mut buf);
    Database::decode_from(&mut buf.freeze(), StoreConfig::default()).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Add(usize, usize),
    Remove(usize, usize),
    Delete(usize),
    Write(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4).prop_map(Op::Create),
        (0usize..32, 0usize..4).prop_map(|(o, c)| Op::Add(o, c)),
        (0usize..32, 0usize..4).prop_map(|(o, c)| Op::Remove(o, c)),
        (0usize..32).prop_map(Op::Delete),
        (0usize..32, -50i64..50).prop_map(|(o, v)| Op::Write(o, v)),
    ]
}

/// Base diamond + one virtual class per operator.
fn build() -> (Database, Vec<ClassId>, Vec<ClassId>) {
    let mut db = Database::default();
    let top = db.schema_mut().create_base_class("Top", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(top, PropertyDef::stored("score", ValueType::Int, Value::Int(0)), None)
        .unwrap();
    let left = db.schema_mut().create_base_class("Left", &[top]).unwrap();
    let right = db.schema_mut().create_base_class("Right", &[top]).unwrap();
    let bottom = db.schema_mut().create_base_class("Bottom", &[left, right]).unwrap();
    let bases = vec![top, left, right, bottom];

    let s = db.schema_mut();
    let virtuals = vec![
        s.create_virtual_class(
            "VSel",
            Derivation::Select { src: top, pred: Predicate::cmp("score", BinOp::Ge, 10) },
        )
        .unwrap(),
        s.create_virtual_class("VHide", Derivation::Hide { src: left, hidden: vec![] }).unwrap(),
        s.create_refine_class(
            "VRef",
            right,
            vec![PropertyDef::stored("extra", ValueType::Int, Value::Int(0))],
            vec![],
        )
        .unwrap(),
        s.create_virtual_class("VUni", Derivation::Union { a: left, b: right }).unwrap(),
        s.create_virtual_class("VDiff", Derivation::Difference { a: top, b: left }).unwrap(),
        s.create_virtual_class("VInt", Derivation::Intersect { a: left, b: right }).unwrap(),
    ];
    (db, bases, virtuals)
}

fn check_invariants(db: &Database, bases: &[ClassId], virtuals: &[ClassId]) {
    let all_oids: Vec<_> = db.all_objects().collect();
    // 1. Extent = membership = the uncached reference, for every class.
    for &c in bases.iter().chain(virtuals) {
        let ext = db.extent(c).unwrap();
        assert_eq!(ext.as_ref(), &db.extent_uncached(c).unwrap(), "cached extent of {c} is stale");
        for o in &all_oids {
            assert_eq!(
                ext.contains(o),
                db.is_member(*o, c).unwrap(),
                "extent/membership mismatch at {c} for {o}"
            );
        }
    }
    // 2. Subclass extents are subsets along every is-a edge.
    for &c in bases.iter().chain(virtuals) {
        let ext = db.extent(c).unwrap();
        for sup in db.schema().class(c).unwrap().direct_supers() {
            let sup_ext = db.extent(*sup).unwrap();
            assert!(
                ext.is_subset(&sup_ext),
                "extent({c}) ⊄ extent({sup})"
            );
        }
    }
    // 3. Operator semantics hold extensionally.
    for &v in virtuals {
        let ext = db.extent(v).unwrap();
        match db.schema().class(v).unwrap().kind.clone() {
            ClassKind::Virtual(Derivation::Select { src, pred }) => {
                let src_ext = db.extent(src).unwrap();
                for o in src_ext.iter() {
                    let score = db.read_attr(*o, src, "score").unwrap();
                    let expected = matches!(score, Value::Int(i) if i >= 10);
                    assert_eq!(ext.contains(o), expected, "select semantics at {o}");
                    let _ = &pred;
                }
            }
            ClassKind::Virtual(Derivation::Hide { src, .. })
            | ClassKind::Virtual(Derivation::Refine { src, .. }) => {
                assert_eq!(ext.as_ref(), db.extent(src).unwrap().as_ref());
            }
            ClassKind::Virtual(Derivation::Union { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.union(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Virtual(Derivation::Difference { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.difference(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Virtual(Derivation::Intersect { a, b }) => {
                let (ea, eb) = (db.extent(a).unwrap(), db.extent(b).unwrap());
                let expected: std::collections::BTreeSet<_> =
                    ea.intersection(&eb).copied().collect();
                assert_eq!(ext.as_ref(), &expected);
            }
            ClassKind::Base => unreachable!(),
        }
    }
}

const CMP_OPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

/// `score <op> k`: the predicates the ad-hoc selects of a case ask.
fn select_strategy() -> impl Strategy<Value = (BinOp, i64)> {
    (0usize..CMP_OPS.len(), -50i64..50).prop_map(|(op, k)| (CMP_OPS[op], k))
}

/// Every ad-hoc select, asked twice (the second is served from the cache
/// when nothing moved), equals the members of the uncached extent whose
/// score satisfies it.
fn check_selects(db: &Database, classes: &[ClassId], selects: &[(BinOp, i64)]) {
    for &c in classes {
        let extent = db.extent_uncached(c).unwrap();
        for &(op, k) in selects {
            let expected: Vec<Oid> = extent
                .iter()
                .copied()
                .filter(|o| {
                    let Value::Int(score) = db.read_attr(*o, c, "score").unwrap() else {
                        panic!("score of {o} is not an Int");
                    };
                    match op {
                        BinOp::Eq => score == k,
                        BinOp::Ne => score != k,
                        BinOp::Lt => score < k,
                        BinOp::Le => score <= k,
                        BinOp::Gt => score > k,
                        BinOp::Ge => score >= k,
                        other => unreachable!("not in CMP_OPS: {other:?}"),
                    }
                })
                .collect();
            for _ in 0..2 {
                let found = db.select(c, Predicate::cmp("score", op, k)).unwrap();
                assert_eq!(found, expected, "select from {c} where score {op:?} {k}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn membership_and_extent_invariants_hold_under_churn(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        selects in proptest::collection::vec(select_strategy(), 1..4),
    ) {
        let (db, bases, virtuals) = build();
        let mut live: Vec<tse_object_model::Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Create(c) => {
                    live.push(db.create_object(bases[c % bases.len()], &[]).unwrap());
                }
                Op::Add(o, c) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        db.add_to_class(oid, bases[c % bases.len()]).unwrap();
                    }
                }
                Op::Remove(o, c) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        let _ = db.remove_from_class(oid, bases[c % bases.len()]);
                    }
                }
                Op::Delete(o) => {
                    if !live.is_empty() {
                        let oid = live.remove(o % live.len());
                        db.delete_object(oid).unwrap();
                    }
                }
                Op::Write(o, v) => {
                    if !live.is_empty() {
                        let oid = live[o % live.len()];
                        // Write through the most specific direct class.
                        let via = *db.direct_classes(oid).unwrap().iter().next().unwrap_or(&bases[0]);
                        if db.direct_classes(oid).unwrap().is_empty() {
                            continue;
                        }
                        db.write_attr(oid, via, "score", Value::Int(v)).unwrap();
                        prop_assert_eq!(db.read_attr(oid, via, "score").unwrap(), Value::Int(v));
                    }
                }
            }
            check_invariants(&db, &bases, &virtuals);
            let classes: Vec<ClassId> = bases.iter().chain(&virtuals).copied().collect();
            check_selects(&db, &classes, &selects);
        }
    }

    #[test]
    fn snapshot_preserves_all_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..25),
    ) {
        let (db, bases, virtuals) = build();
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Create(c) => live.push(db.create_object(bases[c % bases.len()], &[]).unwrap()),
                Op::Write(o, v) if !live.is_empty() => {
                    let oid = live[o % live.len()];
                    if let Some(via) = db.direct_classes(oid).unwrap().iter().next().copied() {
                        db.write_attr(oid, via, "score", Value::Int(v)).unwrap();
                    }
                }
                _ => {}
            }
        }
        let restored = restored(&db);
        check_invariants(&restored, &bases, &virtuals);
        for &c in bases.iter().chain(&virtuals) {
            let (ea, eb) = (db.extent(c).unwrap(), restored.extent(c).unwrap());
            prop_assert_eq!(ea.as_ref(), eb.as_ref());
        }
        for o in db.all_objects() {
            if let Some(via) = db.direct_classes(o).unwrap().iter().next().copied() {
                prop_assert_eq!(
                    db.read_attr(o, via, "score").unwrap(),
                    restored.read_attr(o, via, "score").unwrap()
                );
            }
        }
    }
}

/// Late binding: `invoke` dispatches to the object's most specific
/// overriding definition, while `read_attr` stays perspective-static.
#[test]
fn dynamic_dispatch_picks_the_overriding_definition() {
    use tse_object_model::MethodBody;
    let mut db = Database::default();
    let animal = db.schema_mut().create_base_class("Animal", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(
            animal,
            PropertyDef::method(
                "speak",
                ValueType::Str,
                MethodBody::Const(Value::Str("...".into())),
            ),
            None,
        )
        .unwrap();
    let dog = db.schema_mut().create_base_class("Dog", &[animal]).unwrap();
    db.schema_mut()
        .add_local_prop(
            dog,
            PropertyDef::method(
                "speak",
                ValueType::Str,
                MethodBody::Const(Value::Str("woof".into())),
            ),
            None,
        )
        .unwrap();

    let generic = db.create_object(animal, &[]).unwrap();
    let rex = db.create_object(dog, &[]).unwrap();

    // Static (perspective) resolution: the Animal view of rex runs the
    // Animal definition…
    assert_eq!(db.read_attr(rex, animal, "speak").unwrap(), Value::Str("...".into()));
    // …dynamic dispatch runs Dog's override even through Animal.
    assert_eq!(db.invoke(rex, animal, "speak").unwrap(), Value::Str("woof".into()));
    assert_eq!(db.invoke(generic, animal, "speak").unwrap(), Value::Str("...".into()));
    // Unknown names still error.
    assert!(db.invoke(rex, animal, "fly").is_err());
}

/// Incomparable overriding definitions from two direct classes are
/// ambiguous under dynamic dispatch (the paper defers such conflicts to
/// user renaming).
#[test]
fn dynamic_dispatch_reports_cross_class_ambiguity() {
    use tse_object_model::MethodBody;
    let mut db = Database::default();
    let thing = db.schema_mut().create_base_class("Thing", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(
            thing,
            PropertyDef::method("id", ValueType::Str, MethodBody::Const(Value::Str("t".into()))),
            None,
        )
        .unwrap();
    let a = db.schema_mut().create_base_class("A", &[thing]).unwrap();
    let b = db.schema_mut().create_base_class("B", &[thing]).unwrap();
    for (c, v) in [(a, "a"), (b, "b")] {
        db.schema_mut()
            .add_local_prop(
                c,
                PropertyDef::method("id", ValueType::Str, MethodBody::Const(Value::Str(v.into()))),
                None,
            )
            .unwrap();
    }
    let o = db.create_object(a, &[]).unwrap();
    db.add_to_class(o, b).unwrap();
    // Through Thing, the object has two incomparable overrides.
    assert!(matches!(
        db.invoke(o, thing, "id"),
        Err(tse_object_model::ModelError::AmbiguousProperty { .. })
    ));
    // Each perspective still works statically.
    assert_eq!(db.read_attr(o, a, "id").unwrap(), Value::Str("a".into()));
    assert_eq!(db.read_attr(o, b, "id").unwrap(), Value::Str("b".into()));
}

/// §3.3's type-specific update behaviour: class constraints are checked on
/// create and set, refusing violating updates — and survive snapshots.
#[test]
fn class_constraints_refuse_updates() {
    let mut db = Database::default();
    let acct = db.schema_mut().create_base_class("Account", &[]).unwrap();
    db.schema_mut()
        .add_local_prop(acct, PropertyDef::stored("balance", ValueType::Int, Value::Int(0)), None)
        .unwrap();
    db.schema_mut()
        .set_class_constraint(acct, Some(Predicate::cmp("balance", BinOp::Ge, 0)))
        .unwrap();

    // Valid create and update pass.
    let o = db.create_object(acct, &[("balance", Value::Int(100))]).unwrap();
    db.write_attr(o, acct, "balance", Value::Int(20)).unwrap();
    // Violating create is refused and leaves nothing behind.
    let n = db.object_count();
    assert!(db.create_object(acct, &[("balance", Value::Int(-5))]).is_err());
    assert_eq!(db.object_count(), n);
    // Violating update is refused and rolled back.
    assert!(db.write_attr(o, acct, "balance", Value::Int(-1)).is_err());
    assert_eq!(db.read_attr(o, acct, "balance").unwrap(), Value::Int(20));

    // The constraint survives a database snapshot.
    let restored = restored(&db);
    assert!(restored.write_attr(o, acct, "balance", Value::Int(-1)).is_err());
    restored.write_attr(o, acct, "balance", Value::Int(7)).unwrap();

    // Clearing the constraint re-permits the update.
    db.schema_mut().set_class_constraint(acct, None).unwrap();
    db.write_attr(o, acct, "balance", Value::Int(-1)).unwrap();
}

/// A class constraint judges a new object once all its initial values are
/// in, not the defaults of the values still to come: `age >= 18` with a
/// default of 0 must admit `[name, age = 30]` in either order.
#[test]
fn class_constraints_judge_a_complete_new_object() {
    let mut db = Database::default();
    let adult = db.schema_mut().create_base_class("Adult", &[]).unwrap();
    let s = db.schema_mut();
    s.add_local_prop(adult, PropertyDef::stored("name", ValueType::Str, Value::Null), None).unwrap();
    s.add_local_prop(adult, PropertyDef::stored("age", ValueType::Int, Value::Int(0)), None).unwrap();
    s.set_class_constraint(adult, Some(Predicate::cmp("age", BinOp::Ge, 18))).unwrap();

    let (name, age) = (("name", Value::Str("ann".into())), ("age", Value::Int(30)));
    let age_first = db.create_object(adult, &[age.clone(), name.clone()]).unwrap();
    let name_first = db.create_object(adult, &[name.clone(), age]).unwrap();
    for o in [age_first, name_first] {
        assert_eq!(db.read_attr(o, adult, "age").unwrap(), Value::Int(30));
        assert_eq!(db.read_attr(o, adult, "name").unwrap(), Value::Str("ann".into()));
    }

    // A violating create fails — by an explicit value or by the default —
    // and leaves no half-created object.
    let before = db.object_count();
    let next = Oid(name_first.0 + 1);
    let refused = db.create_object(adult, &[name.clone(), ("age", Value::Int(17))]);
    assert!(refused.unwrap_err().to_string().contains("class constraint of Adult"));
    assert!(!db.object_exists(next));
    assert!(db.create_object(adult, &[name]).is_err());
    assert_eq!(db.object_count(), before);
}

/// One object of the reference model: its membership, its deletion stamp
/// and its `score` slice, each a plain stamp-sorted `Vec` of versions.
#[derive(Debug, Default)]
struct RefObject {
    directs: Vec<(u64, BTreeSet<ClassId>)>,
    dead: Option<u64>,
    /// `None` until the slice is materialized; `None` fields = tombstone.
    score: Option<Vec<(u64, Option<i64>)>>,
}

/// Install a version keeping a chain stamp-sorted: a straggler goes below
/// every newer stamp, and a version at an existing version's stamp
/// replaces it.
fn splice<T>(chain: &mut Vec<(u64, T)>, stamp: u64, value: T) {
    let at = chain.partition_point(|(s, _)| *s <= stamp);
    match at.checked_sub(1).map(|below| &mut chain[below]) {
        Some((s, version)) if *s == stamp => *version = value,
        _ => chain.insert(at, (stamp, value)),
    }
}

/// Install a write of `value` the way the store does. In stamp order it
/// goes on top. A late write is spliced in at its stamp and carried up
/// through the newer versions until one of them rewrote the value or is a
/// tombstone — even when the newest version already holds `value`.
fn write(chain: &mut Vec<(u64, Option<i64>)>, stamp: u64, value: i64) {
    let (newest, _) = *chain.last().unwrap();
    if stamp >= newest {
        splice(chain, stamp, Some(value));
        return;
    }
    let at = chain.partition_point(|(s, _)| *s <= stamp);
    let stops = |k: usize| match (k.checked_sub(1).and_then(|j| chain[j].1), chain[k].1) {
        (_, None) => true,
        (Some(prev), Some(v)) => prev != v,
        (None, Some(_)) => false,
    };
    let stop = (at..chain.len()).find(|k| stops(*k)).unwrap_or(chain.len());
    for (_, version) in &mut chain[at..stop] {
        *version = Some(value);
    }
    splice(chain, stamp, Some(value));
}

/// Install a membership edit the way the object model does: each class of
/// `classes` made a member (`member`) or not in the set visible at `stamp`
/// (the oldest set when every version is newer), which is spliced in there.
/// Each class is carried up through the newer versions until one of them
/// changed that class; in stamp order the edit simply goes on top.
fn reclassify(
    chain: &mut Vec<(u64, BTreeSet<ClassId>)>,
    stamp: u64,
    classes: &BTreeSet<ClassId>,
    member: bool,
) {
    let set_member = |set: &mut BTreeSet<ClassId>, class: ClassId| {
        if member {
            set.insert(class);
        } else {
            set.remove(&class);
        }
    };
    let at = chain.partition_point(|(s, _)| *s <= stamp);
    let mut spliced = chain[at.saturating_sub(1)].1.clone();
    for &class in classes {
        set_member(&mut spliced, class);
        let changed =
            |k: usize| k > 0 && chain[k - 1].1.contains(&class) != chain[k].1.contains(&class);
        let stop = (at..chain.len()).find(|k| changed(*k)).unwrap_or(chain.len());
        for (_, set) in &mut chain[at..stop] {
            set_member(set, class);
        }
    }
    splice(chain, stamp, spliced);
}

fn visible<T>(chain: &[(u64, T)], epoch: Option<u64>) -> Option<&T> {
    match epoch {
        None => chain.last().map(|(_, v)| v),
        Some(e) => chain.iter().rev().find(|(s, _)| *s <= e).map(|(_, v)| v),
    }
}

/// Drop what no reader at `watermark` or later reaches; the count dropped.
fn prune<T>(chain: &mut Vec<(u64, T)>, watermark: u64) -> u64 {
    let keep = chain.iter().rposition(|(s, _)| *s <= watermark).unwrap_or(0);
    chain.drain(..keep);
    keep as u64
}

impl RefObject {
    fn classes_at(&self, epoch: Option<u64>) -> Option<&BTreeSet<ClassId>> {
        match (epoch, self.dead) {
            (None, Some(_)) => None,
            (Some(e), Some(d)) if d <= e => None,
            _ => visible(&self.directs, epoch),
        }
    }

    fn score_at(&self, epoch: Option<u64>) -> i64 {
        self.score.as_deref().and_then(|c| visible(c, epoch)).copied().flatten().unwrap_or(0)
    }
}

#[derive(Debug, Clone)]
enum ChainOp {
    /// Class pick, initial score (if any), stamp lag.
    Create(usize, Option<i64>, u64),
    Add(usize, usize, u64),
    Remove(usize, usize, u64),
    Write(usize, i64, u64),
    Delete(usize, u64),
    /// Watermark lag behind the clock.
    Gc(u64),
}

fn chain_op() -> impl Strategy<Value = ChainOp> {
    let lag = || 0u64..3;
    prop_oneof![
        (0usize..4, -5i64..25, lag())
            .prop_map(|(c, v, l)| ChainOp::Create(c, (v < 20).then_some(v), l)),
        (0usize..16, 0usize..4, lag()).prop_map(|(o, c, l)| ChainOp::Add(o, c, l)),
        (0usize..16, 0usize..4, lag()).prop_map(|(o, c, l)| ChainOp::Remove(o, c, l)),
        (0usize..16, -5i64..20, lag()).prop_map(|(o, v, l)| ChainOp::Write(o, v, l)),
        (0usize..16, -5i64..20, lag()).prop_map(|(o, v, l)| ChainOp::Write(o, v, l)),
        (0usize..16, lag()).prop_map(|(o, l)| ChainOp::Delete(o, l)),
        (0u64..4).prop_map(ChainOp::Gc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// The object model's version chains — membership, deletion and the
    /// slice records under them — answer like plain stamp-sorted `Vec`s of
    /// versions under random creates, reclassifications, writes and deletes
    /// stamped out of order, and GCs: membership, existence and values at
    /// every epoch a reader may still hold, the store's version backlog, and
    /// what each GC reclaims.
    #[test]
    fn version_chains_match_the_vec_reference_at_every_epoch(
        ops in proptest::collection::vec(chain_op(), 1..40),
    ) {
        use tse_storage::{ReadEpochGuard, WriteStampGuard};
        let (db, bases, _) = build();
        let top = bases[0];
        let mut model: Vec<(Oid, RefObject)> = Vec::new();
        // Slice records whose entry GC reclaimed while they still held a
        // live version (a write landed above a straggler delete's tombstone).
        let mut orphans: Vec<Vec<(u64, Option<i64>)>> = Vec::new();
        let (mut clock, mut floor) = (10u64, 0u64);
        for op in ops {
            clock += 1;
            let stamp_for = |lag: u64| clock.saturating_sub(lag).max(floor + 1);
            match op {
                ChainOp::Create(c, score, lag) => {
                    let (class, stamp) = (bases[c % bases.len()], stamp_for(lag));
                    let _at = WriteStampGuard::new(stamp);
                    let values: Vec<(&str, Value)> =
                        score.iter().map(|v| ("score", Value::Int(*v))).collect();
                    let oid = db.create_object(class, &values).unwrap();
                    let object = RefObject {
                        directs: vec![(stamp, BTreeSet::from([class]))],
                        score: score.map(|v| vec![(stamp, Some(v))]),
                        ..RefObject::default()
                    };
                    model.push((oid, object));
                }
                ChainOp::Add(o, c, lag) | ChainOp::Remove(o, c, lag) if !model.is_empty() => {
                    let at = o % model.len();
                    let (oid, object) = (model[at].0, &mut model[at].1);
                    let (class, stamp) = (bases[c % bases.len()], stamp_for(lag));
                    let _at = WriteStampGuard::new(stamp);
                    let adding = matches!(op, ChainOp::Add(..));
                    let ours = if adding { db.add_to_class(oid, class) } else { db.remove_from_class(oid, class) };
                    // The newest set decides whether the edit applies.
                    let edited = match adding {
                        true => BTreeSet::from([class]),
                        false => db.schema().descendants(class),
                    };
                    let applies = object
                        .classes_at(None)
                        .is_some_and(|set| adding || set.iter().any(|c| edited.contains(c)));
                    prop_assert_eq!(ours.is_ok(), applies, "{:?} on {}", op, oid);
                    if applies {
                        reclassify(&mut object.directs, stamp, &edited, adding);
                    }
                }
                ChainOp::Write(o, v, lag) if !model.is_empty() => {
                    let at = o % model.len();
                    let (oid, object) = (model[at].0, &mut model[at].1);
                    let stamp = stamp_for(lag);
                    let _at = WriteStampGuard::new(stamp);
                    let ours = db.write_attr(oid, top, "score", Value::Int(v));
                    // A bound slice takes the write while its newest version
                    // is live (a straggler delete's tombstone can sit below
                    // it); an unbound one needs a class to bind to.
                    let lands = match &object.score {
                        Some(chain) => matches!(chain.last(), Some((_, Some(_)))),
                        None => object.classes_at(None).is_some_and(|set| !set.is_empty()),
                    };
                    prop_assert_eq!(ours.is_ok(), lands, "write to {}", oid);
                    if lands {
                        let chain = object.score.get_or_insert_with(|| vec![(stamp, Some(0))]);
                        write(chain, stamp, v);
                    }
                }
                ChainOp::Delete(o, lag) if !model.is_empty() => {
                    let at = o % model.len();
                    let (oid, object) = (model[at].0, &mut model[at].1);
                    let stamp = stamp_for(lag);
                    let _at = WriteStampGuard::new(stamp);
                    let alive = object.classes_at(None).is_some();
                    prop_assert_eq!(db.delete_object(oid).is_ok(), alive);
                    if alive {
                        object.dead = Some(stamp);
                        if let Some(chain) = &mut object.score {
                            splice(chain, stamp, None);
                        }
                    }
                }
                ChainOp::Gc(lag) => {
                    let watermark = clock.saturating_sub(lag).max(floor);
                    floor = watermark;
                    let mut expected = 0;
                    let mut prune_record = |record: &mut Option<Vec<(u64, Option<i64>)>>| {
                        if let Some(chain) = record {
                            expected += prune(chain, watermark);
                            if matches!(chain[..], [(s, None)] if s <= watermark) {
                                *record = None;
                                expected += 1;
                            }
                        }
                    };
                    for (_, object) in &mut model {
                        prune_record(&mut object.score);
                    }
                    orphans = std::mem::take(&mut orphans)
                        .into_iter()
                        .filter_map(|chain| {
                            let mut record = Some(chain);
                            prune_record(&mut record);
                            record
                        })
                        .collect();
                    model.retain_mut(|(_, object)| {
                        if object.dead.is_some_and(|d| d <= watermark) {
                            expected += 1;
                            orphans.extend(object.score.take());
                            return false;
                        }
                        expected += prune(&mut object.directs, watermark);
                        true
                    });
                    prop_assert_eq!(db.gc(watermark), expected, "reclaimed at {}", watermark);
                }
                _ => {}
            }
            let backlog: u64 = model
                .iter()
                .filter_map(|(_, o)| o.score.as_ref())
                .chain(&orphans)
                .map(|c| c.len() as u64 - u64::from(c.last().is_some_and(|(_, v)| v.is_some())))
                .sum();
            prop_assert_eq!(db.store().version_backlog(), backlog, "version backlog");
            for epoch in [None].into_iter().chain((floor..=clock + 1).map(Some)) {
                let _pin = epoch.map(ReadEpochGuard::new);
                for (oid, object) in &model {
                    let classes = object.classes_at(epoch);
                    prop_assert_eq!(db.object_exists(*oid), classes.is_some(), "{} at {:?}", oid, epoch);
                    let ours = db.direct_classes(*oid).ok();
                    prop_assert_eq!(ours.as_ref(), classes, "{} at {:?}", oid, epoch);
                    if classes.is_some() {
                        prop_assert_eq!(
                            db.read_attr(*oid, top, "score").unwrap(),
                            Value::Int(object.score_at(epoch)),
                            "score of {} at {:?}", oid, epoch
                        );
                    }
                }
            }
        }
    }
}
