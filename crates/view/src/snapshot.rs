//! Binary persistence for view schemas and the view history — the "View
//! Schema History" dictionary of the TSE architecture survives restarts
//! together with the database, as one section of a snapshot payload:
//!
//! ```text
//! u32 n_views | per view: u32 id | str family | u32 version
//!   | u32 n_classes | classes… | u32 n_renames | (class, str)…
//!   | u32 n_edges | (class, class)…
//! ```
//!
//! The section carries no magic or checksum of its own: its one check is
//! the CRC of the snapshot file that holds the payload.

use bytes::{BufMut, Bytes, BytesMut};

use tse_object_model::{ClassId, ModelResult};
use tse_storage::payload::{get_str, get_u32, put_str};

use crate::manager::ViewManager;
use crate::schema::{ViewId, ViewSchema};

fn encode_view(buf: &mut BytesMut, view: &ViewSchema) {
    buf.put_u32(view.id.0);
    put_str(buf, &view.family);
    buf.put_u32(view.version);
    buf.put_u32(view.classes.len() as u32);
    for c in &view.classes {
        buf.put_u32(c.0);
    }
    buf.put_u32(view.renames.len() as u32);
    for (c, name) in &view.renames {
        buf.put_u32(c.0);
        put_str(buf, name);
    }
    buf.put_u32(view.edges.len() as u32);
    for (a, b) in &view.edges {
        buf.put_u32(a.0);
        buf.put_u32(b.0);
    }
}

fn decode_view(buf: &mut Bytes) -> ModelResult<ViewSchema> {
    let id = ViewId(get_u32(buf)?);
    let family = get_str(buf)?;
    let version = get_u32(buf)?;
    let n = get_u32(buf)? as usize;
    let mut classes = std::collections::BTreeSet::new();
    for _ in 0..n {
        classes.insert(ClassId(get_u32(buf)?));
    }
    let n = get_u32(buf)? as usize;
    let mut renames = std::collections::BTreeMap::new();
    for _ in 0..n {
        let c = ClassId(get_u32(buf)?);
        renames.insert(c, get_str(buf)?);
    }
    let n = get_u32(buf)? as usize;
    let mut edges = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        edges.push((ClassId(get_u32(buf)?), ClassId(get_u32(buf)?)));
    }
    Ok(ViewSchema { id, family, version, classes, renames, edges })
}

impl ViewManager {
    /// Append every view (and so every family history) to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.view_count() as u32);
        for i in 0..self.view_count() as u32 {
            encode_view(buf, self.view(ViewId(i)).expect("dense view ids"));
        }
    }

    /// Read a manager written by [`ViewManager::encode_into`]. The
    /// per-family histories are rebuilt from the views' family/version
    /// fields.
    pub fn decode_from(buf: &mut Bytes) -> ModelResult<ViewManager> {
        let n = get_u32(buf)? as usize;
        let mut views = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            views.push(decode_view(buf)?);
        }
        ViewManager::from_views(views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use std::collections::BTreeSet;
    use tse_object_model::Database;

    fn encode_manager(vm: &ViewManager) -> Bytes {
        let mut buf = BytesMut::new();
        vm.encode_into(&mut buf);
        buf.freeze()
    }

    /// Decode a whole blob: every byte must belong to the manager.
    fn decode_manager(mut bytes: Bytes) -> ModelResult<ViewManager> {
        let vm = ViewManager::decode_from(&mut bytes)?;
        assert_eq!(bytes.remaining(), 0, "decode left bytes unread");
        Ok(vm)
    }

    fn setup() -> (Database, ViewManager) {
        let mut db = Database::default();
        let a = db.schema_mut().create_base_class("A", &[]).unwrap();
        let b = db.schema_mut().create_base_class("B", &[a]).unwrap();
        let mut vm = ViewManager::new();
        vm.create_view(&db, "VS", BTreeSet::from([a, b])).unwrap();
        vm.push_version(
            &db,
            "VS",
            BTreeSet::from([a]),
            std::collections::BTreeMap::from([(a, "Alpha".to_string())]),
        )
        .unwrap();
        vm.create_view(&db, "OTHER", BTreeSet::from([b])).unwrap();
        (db, vm)
    }

    #[test]
    fn manager_roundtrips_with_history() {
        let (db, vm) = setup();
        let restored = decode_manager(encode_manager(&vm)).unwrap();
        assert_eq!(restored.view_count(), vm.view_count());
        assert_eq!(restored.versions("VS").unwrap(), vm.versions("VS").unwrap());
        assert_eq!(restored.current("VS").unwrap(), vm.current("VS").unwrap());
        assert_eq!(
            restored.current("VS").unwrap().local_name(&db, db.schema().by_name("A").unwrap()).unwrap(),
            "Alpha"
        );
        assert_eq!(restored.versions("OTHER").unwrap().len(), 1);
    }

    #[test]
    fn corrupt_inputs_error() {
        assert!(decode_manager(Bytes::from_static(b"junk")).is_err());
        let (_, vm) = setup();
        let good = encode_manager(&vm);
        for cut in 0..good.len() {
            assert!(ViewManager::decode_from(&mut good.slice(..cut)).is_err(), "prefix {cut}");
        }
        // A trailing byte is left for the payload's outermost decoder.
        let mut padded = good.to_vec();
        padded.push(0);
        let mut padded = Bytes::from(padded);
        ViewManager::decode_from(&mut padded).unwrap();
        assert_eq!(padded.remaining(), 1, "trailing byte consumed");
    }
}
