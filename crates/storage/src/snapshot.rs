//! Binary snapshot codec.
//!
//! Persists an entire store to bytes and restores it. The format is a
//! hand-rolled length-prefixed encoding (the workspace deliberately carries
//! no serde format crate). Every section carries a CRC32 so torn and
//! bit-rotted blobs are *rejected* instead of mis-decoded:
//!
//! ```text
//! magic "TSESNAP2" | u32 page_size | u32 buffer_pages | u32 n_segment_slots
//! u32 crc32(magic ‖ header fields)
//! per segment slot:
//!   section: u8 present
//!     if present: str name | u32 n_record_slots
//!       per record slot: u8 present
//!         if present: u32 n_fields | fields…
//!   u32 crc32(section bytes)
//! ```
//!
//! A blob with any other magic, and trailing garbage after the last
//! section, are refused as [`StorageError::Corrupt`].
//!
//! Record slot **indices are preserved**, so every `RecordId` taken before a
//! snapshot remains valid after a restore — the property the object model
//! relies on to keep its oid → record maps stable across persistence cycles.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::payload::{get_str, put_str, Payload};
use crate::segment::Segment;
use crate::store::{SliceStore, StoreConfig};

const MAGIC: &[u8; 8] = b"TSESNAP2";

/// Serialize the whole store.
pub fn encode_store<P: Payload>(store: &SliceStore<P>) -> Bytes {
    store.with_segment_slots(|segments| {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32(store.config().page_size as u32);
        buf.put_u32(store.config().buffer_pages as u32);
        buf.put_u32(segments.len() as u32);
        let header_crc = crc32(buf.as_ref());
        buf.put_u32(header_crc);
        for seg in segments {
            let mut section = BytesMut::new();
            encode_segment(&mut section, *seg);
            let crc = crc32(section.as_ref());
            buf.put_slice(section.as_ref());
            buf.put_u32(crc);
        }
        buf.freeze()
    })
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
        records[slot as usize] = Some(fields.as_slice());
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

/// Restore a store from bytes produced by [`encode_store`]. Runtime knobs
/// (`write_stripes`, `wal_autocheckpoint_bytes`) take the process default;
/// see [`decode_store_with`] to supply them.
pub fn decode_store<P: Payload>(bytes: Bytes) -> StorageResult<SliceStore<P>> {
    decode_store_with(bytes, StoreConfig::default())
}

/// Restore a store, taking `page_size`/`buffer_pages` from the snapshot
/// (they shape the persisted layout) and every runtime knob — stripe
/// count, auto-checkpoint threshold — from `runtime`.
pub fn decode_store_with<P: Payload>(
    all: Bytes,
    runtime: StoreConfig,
) -> StorageResult<SliceStore<P>> {
    if all.remaining() < 8 {
        return Err(StorageError::Corrupt("snapshot too short".into()));
    }
    if &all[..8] != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    if all.remaining() < 8 + 12 + 4 {
        return Err(StorageError::Corrupt("truncated header".into()));
    }
    let expected = crc32(&all[..20]);
    let mut bytes = all.clone();
    bytes.advance(8);
    let page_size = bytes.get_u32() as usize;
    let buffer_pages = bytes.get_u32() as usize;
    let n_segments = bytes.get_u32() as usize;
    if bytes.get_u32() != expected {
        return Err(StorageError::Corrupt("header crc mismatch".into()));
    }
    let config = StoreConfig { page_size, buffer_pages, ..runtime };
    let mut segments: Vec<Option<Segment<P>>> =
        Vec::with_capacity(n_segments.min(bytes.remaining()));
    for _ in 0..n_segments {
        let start = all.len() - bytes.remaining();
        let seg = decode_segment(&mut bytes, page_size)?;
        let end = all.len() - bytes.remaining();
        if bytes.remaining() < 4 {
            return Err(StorageError::Corrupt("truncated section crc".into()));
        }
        if bytes.get_u32() != crc32(&all[start..end]) {
            return Err(StorageError::Corrupt("section crc mismatch".into()));
        }
        segments.push(seg);
    }
    if bytes.remaining() > 0 {
        return Err(StorageError::Corrupt("trailing bytes after snapshot".into()));
    }
    Ok(SliceStore::rebuild(config, segments))
}

/// Decode one segment slot (the caller checks the section CRC around this).
fn decode_segment<P: Payload>(
    bytes: &mut Bytes,
    page_size: usize,
) -> StorageResult<Option<Segment<P>>> {
    if bytes.remaining() < 1 {
        return Err(StorageError::Corrupt("truncated segment flag".into()));
    }
    if bytes.get_u8() == 0 {
        return Ok(None);
    }
    let name = get_str(bytes)?;
    if bytes.remaining() < 4 {
        return Err(StorageError::Corrupt("truncated slot count".into()));
    }
    let n_slots = bytes.get_u32() as usize;
    let mut seg = Segment::new(name);
    // Gather live records first so freed slots in between stay freed.
    let mut live: Vec<(u32, Vec<P>)> = Vec::new();
    for slot in 0..n_slots {
        if bytes.remaining() < 1 {
            return Err(StorageError::Corrupt("truncated record flag".into()));
        }
        if bytes.get_u8() == 0 {
            continue;
        }
        if bytes.remaining() < 4 {
            return Err(StorageError::Corrupt("truncated field count".into()));
        }
        let n_fields = bytes.get_u32() as usize;
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
    fn an_unchecksummed_version_one_blob_is_refused() {
        // `TSESNAP1` was the same layout without the CRCs: strip them and
        // swap the magic, and the blob must be refused, not decoded.
        let st = SliceStore::<SP>::default();
        let mut old = encode_store(&st).to_vec();
        old[..8].copy_from_slice(b"TSESNAP1");
        old.truncate(20);
        let refused = decode_store::<SP>(Bytes::from(old)).unwrap_err();
        assert!(matches!(refused, StorageError::Corrupt(_)), "{refused}");
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
        assert!(decode_store::<SP>(Bytes::from_static(b"short")).is_err());
        assert!(decode_store::<SP>(Bytes::from_static(b"WRONGMAG00000000")).is_err());
        let (st, ..) = populated();
        let good = encode_store(&st);
        // Every proper prefix must actually be rejected, never panic and
        // never decode to a store.
        for cut in 0..good.len() {
            assert!(
                decode_store::<SP>(good.slice(..cut)).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                good.len()
            );
        }
        // Appending garbage must be rejected too.
        let mut padded = good.to_vec();
        padded.push(0);
        assert!(
            decode_store::<SP>(Bytes::from(padded)).is_err(),
            "trailing byte accepted"
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (st, ..) = populated();
        let good = encode_store(&st);
        for byte in 0..good.len() {
            for bit in 0..8u8 {
                let mut bad = good.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_store::<SP>(Bytes::from(bad)).is_err(),
                    "bit flip at {byte}.{bit} decoded successfully"
                );
            }
        }
    }
}
