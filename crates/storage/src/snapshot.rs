//! Binary snapshot codec: the store's section of a snapshot payload.
//!
//! [`SliceStore::encode_into`] appends the whole store to a buffer and
//! [`SliceStore::decode_from`] reads it back from the same position. The
//! format is a hand-rolled length-prefixed encoding (the workspace
//! deliberately carries no serde format crate), with no magic and no
//! checksum of its own: it is one section of a snapshot payload, whose one
//! check is the CRC of the snapshot file that holds it (`durable`).
//!
//! ```text
//! u32 page_size | u32 buffer_pages | u32 n_segment_slots
//! per segment slot: u8 present
//!   if present: str name | u32 n_record_slots
//!     per record slot: u8 present
//!       if present: u32 n_fields | fields…
//! ```
//!
//! Truncation anywhere is refused as
//! [`StorageError::Corrupt`](crate::StorageError::Corrupt); the
//! payload's outermost decoder refuses bytes after its last section.
//!
//! Record slot **indices are preserved**, so every `RecordId` taken before a
//! snapshot remains valid after a restore — the property the object model
//! relies on to keep its oid → record maps stable across persistence cycles.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::StorageResult;
use crate::payload::{get_str, get_u32, get_u8, put_str, Payload};
use crate::segment::Segment;
use crate::store::{SliceStore, StoreConfig};

impl<P: Payload> SliceStore<P> {
    /// Append the whole store to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        self.with_segment_slots(|segments| {
            buf.put_u32(self.config().page_size as u32);
            buf.put_u32(self.config().buffer_pages as u32);
            buf.put_u32(segments.len() as u32);
            for seg in segments {
                encode_segment(buf, *seg);
            }
        })
    }

    /// Read a store written by [`SliceStore::encode_into`], taking
    /// `page_size`/`buffer_pages` from the bytes (they shape the persisted
    /// layout) and every runtime knob — stripe count, auto-checkpoint
    /// threshold — from `runtime`.
    pub fn decode_from(buf: &mut Bytes, runtime: StoreConfig) -> StorageResult<Self> {
        let page_size = get_u32(buf)? as usize;
        let buffer_pages = get_u32(buf)? as usize;
        let n_segments = get_u32(buf)? as usize;
        let config = StoreConfig { page_size, buffer_pages, ..runtime };
        let mut segments: Vec<Option<Segment<P>>> =
            Vec::with_capacity(n_segments.min(buf.remaining()));
        for _ in 0..n_segments {
            segments.push(decode_segment(buf, page_size)?);
        }
        Ok(SliceStore::rebuild(config, segments))
    }
}

/// One segment slot: present flag, then name and records. Only the
/// **current** version of each record is persisted — version history is
/// runtime state for pinned readers, not durable state — and tombstoned
/// or freed slots are written as absent, so a restored store starts
/// single-version with every slot hole genuinely free.
fn encode_segment<P: Payload>(buf: &mut BytesMut, seg: Option<&Segment<P>>) {
    let seg = match seg {
        None => {
            buf.put_u8(0);
            return;
        }
        Some(seg) => seg,
    };
    buf.put_u8(1);
    put_str(buf, &seg.name);
    let cap = seg.slot_capacity() as u32;
    buf.put_u32(cap);
    let mut records: Vec<Option<&[P]>> = vec![None; cap as usize];
    for (slot, fields) in seg.iter_at(None) {
        records[slot as usize] = Some(fields);
    }
    for fields in records {
        match fields {
            None => buf.put_u8(0),
            Some(fields) => {
                buf.put_u8(1);
                buf.put_u32(fields.len() as u32);
                for f in fields {
                    f.encode(buf);
                }
            }
        }
    }
}

/// Decode one segment slot written by [`encode_segment`].
fn decode_segment<P: Payload>(
    bytes: &mut Bytes,
    page_size: usize,
) -> StorageResult<Option<Segment<P>>> {
    if get_u8(bytes)? == 0 {
        return Ok(None);
    }
    let name = get_str(bytes)?;
    let n_slots = get_u32(bytes)? as usize;
    let mut seg = Segment::new(name);
    // Gather live records first so freed slots in between stay freed.
    let mut live: Vec<(u32, Vec<P>)> = Vec::new();
    for slot in 0..n_slots {
        if get_u8(bytes)? == 0 {
            continue;
        }
        let n_fields = get_u32(bytes)? as usize;
        let mut fields = Vec::with_capacity(n_fields.min(bytes.remaining()));
        for _ in 0..n_fields {
            fields.push(P::decode(bytes)?);
        }
        live.push((slot as u32, fields));
    }
    for (slot, fields) in live {
        seg.restore(slot, fields, page_size);
    }
    Ok(Some(seg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::SimplePayload as SP;
    use crate::store::RecordId;

    fn encode_store(st: &SliceStore<SP>) -> Bytes {
        let mut buf = BytesMut::new();
        st.encode_into(&mut buf);
        buf.freeze()
    }

    /// Decode a whole blob: every byte must belong to the store.
    fn decode_store(mut bytes: Bytes) -> StorageResult<SliceStore<SP>> {
        let st = SliceStore::decode_from(&mut bytes, StoreConfig::default())?;
        assert_eq!(bytes.remaining(), 0, "decode left bytes unread");
        Ok(st)
    }

    fn populated() -> (SliceStore<SP>, RecordId, RecordId, RecordId) {
        let st = SliceStore::<SP>::new(StoreConfig {
            page_size: 256,
            buffer_pages: 8,
            ..StoreConfig::default()
        });
        let people = st.create_segment("Person");
        let cars = st.create_segment("Car");
        let r1 = st.insert(people, vec![SP::Str("ann".into()), SP::Int(31)]).unwrap();
        let r2 = st.insert(people, vec![SP::Str("bob".into()), SP::Int(27)]).unwrap();
        let r3 = st.insert(cars, vec![SP::Str("jeep".into())]).unwrap();
        st.free(r2).unwrap();
        (st, r1, r2, r3)
    }

    #[test]
    fn roundtrip_preserves_records_and_ids() {
        let (st, r1, r2, r3) = populated();
        let bytes = encode_store(&st);
        let restored: SliceStore<SP> = decode_store(bytes).unwrap();

        assert_eq!(restored.read(r1).unwrap(), vec![SP::Str("ann".into()), SP::Int(31)]);
        assert_eq!(restored.read(r3).unwrap(), vec![SP::Str("jeep".into())]);
        assert!(restored.read(r2).is_err(), "freed record stays freed");
        assert_eq!(restored.segment_name(r1.segment).unwrap(), "Person");
        assert_eq!(restored.segment_name(r3.segment).unwrap(), "Car");
        assert_eq!(restored.config().page_size, 256);
    }

    #[test]
    fn roundtrip_preserves_dropped_segment_holes() {
        let st = SliceStore::<SP>::default();
        let a = st.create_segment("a");
        let b = st.create_segment("b");
        st.insert(b, vec![SP::Int(1)]).unwrap();
        st.drop_segment(a).unwrap();
        let restored: SliceStore<SP> = decode_store(encode_store(&st)).unwrap();
        assert!(restored.segment_name(a).is_err());
        assert_eq!(restored.segment_name(b).unwrap(), "b");
        // Ids continue after the hole, exactly as in the original.
        let c = restored.create_segment("c");
        assert_eq!(c.0, 2);
    }

    #[test]
    fn freed_slot_is_reusable_after_restore() {
        let st = SliceStore::<SP>::default();
        let seg = st.create_segment("s");
        let r1 = st.insert(seg, vec![SP::Int(1)]).unwrap();
        st.insert(seg, vec![SP::Int(2)]).unwrap();
        st.free(r1).unwrap();
        let restored: SliceStore<SP> = decode_store(encode_store(&st)).unwrap();
        let r_new = restored.insert(seg, vec![SP::Int(3)]).unwrap();
        // Slot of r1 was freed; restore must keep it available (either reuse
        // or fresh slot — but never colliding with the live record).
        assert_eq!(restored.read_field(r_new, 0).unwrap(), SP::Int(3));
        assert_eq!(
            restored.read_field(RecordId { segment: seg, slot: 1 }, 0).unwrap(),
            SP::Int(2)
        );
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicking() {
        assert!(decode_store(Bytes::from_static(b"short")).is_err());
        assert!(decode_store(Bytes::from_static(b"WRONGMAG00000000")).is_err());
        let (st, ..) = populated();
        let good = encode_store(&st);
        // Every proper prefix must actually be rejected, never panic and
        // never decode to a store.
        for cut in 0..good.len() {
            assert!(
                SliceStore::<SP>::decode_from(&mut good.slice(..cut), StoreConfig::default())
                    .is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                good.len()
            );
        }
        // A trailing byte is not the store's: it is left for the payload's
        // outermost decoder to refuse.
        let mut padded = good.to_vec();
        padded.push(0);
        let mut padded = Bytes::from(padded);
        SliceStore::<SP>::decode_from(&mut padded, StoreConfig::default()).unwrap();
        assert_eq!(padded.remaining(), 1, "trailing byte consumed");
    }
}
