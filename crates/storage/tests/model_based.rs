//! Model-based property tests: the paged store must behave exactly like a
//! plain in-memory map of records under arbitrary operation sequences, with
//! snapshots thrown in.

use proptest::prelude::*;
use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use tse_storage::{RecordId, SimplePayload, SliceStore, StoreConfig};

fn encode_store(store: &SliceStore<SimplePayload>) -> Bytes {
    let mut buf = BytesMut::new();
    store.encode_into(&mut buf);
    buf.freeze()
}

fn decode_store(mut bytes: Bytes) -> tse_storage::StorageResult<SliceStore<SimplePayload>> {
    SliceStore::decode_from(&mut bytes, StoreConfig::default())
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, i64),
    WriteField(usize, usize, i64),
    AppendField(usize, i64),
    Free(usize),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, any::<i64>()).prop_map(|(s, v)| Op::Insert(s, v)),
        (0usize..64, 0usize..4, any::<i64>()).prop_map(|(r, f, v)| Op::WriteField(r, f, v)),
        (0usize..64, any::<i64>()).prop_map(|(r, v)| Op::AppendField(r, v)),
        (0usize..64).prop_map(Op::Free),
        Just(Op::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn store_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        page_size in 64usize..512,
    ) {
        let mut store: SliceStore<SimplePayload> =
            SliceStore::new(StoreConfig { page_size, buffer_pages: 4, ..StoreConfig::default() });
        let mut segs = Vec::new();
        for i in 0..4 {
            segs.push(store.create_segment(&format!("s{i}")));
        }
        let mut model: HashMap<RecordId, Vec<i64>> = HashMap::new();
        let mut live: Vec<RecordId> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(s, v) => {
                    let rec = store
                        .insert(segs[s % segs.len()], vec![SimplePayload::Int(v)])
                        .unwrap();
                    model.insert(rec, vec![v]);
                    live.push(rec);
                }
                Op::WriteField(r, f, v) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rec = live[r % live.len()];
                    let fields = model.get_mut(&rec).unwrap();
                    let idx = f % (fields.len() + 1); // may be out of bounds
                    let res = store.write_field(rec, idx, SimplePayload::Int(v));
                    if idx < fields.len() {
                        prop_assert!(res.is_ok());
                        fields[idx] = v;
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                Op::AppendField(r, v) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rec = live[r % live.len()];
                    let idx = store.append_field(rec, SimplePayload::Int(v)).unwrap();
                    let fields = model.get_mut(&rec).unwrap();
                    prop_assert_eq!(idx, fields.len());
                    fields.push(v);
                }
                Op::Free(r) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rec = live.remove(r % live.len());
                    let freed = store.free(rec).unwrap();
                    let expected = model.remove(&rec).unwrap();
                    let expected: Vec<SimplePayload> =
                        expected.into_iter().map(SimplePayload::Int).collect();
                    prop_assert_eq!(freed, expected);
                }
                Op::Snapshot => {
                    let restored: SliceStore<SimplePayload> =
                        decode_store(encode_store(&store)).unwrap();
                    for (rec, fields) in &model {
                        let expected: Vec<SimplePayload> =
                            fields.iter().map(|v| SimplePayload::Int(*v)).collect();
                        prop_assert_eq!(restored.read(*rec).unwrap(), expected);
                    }
                    store = restored;
                }
            }
            // Invariant: every live record reads back its model value.
            for (rec, fields) in &model {
                let expected: Vec<SimplePayload> =
                    fields.iter().map(|v| SimplePayload::Int(*v)).collect();
                prop_assert_eq!(store.read(*rec).unwrap(), expected);
            }
        }
    }
}
