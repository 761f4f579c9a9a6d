//! Typed WAL frame codec: the versioned binary payload format every
//! mutation — structural *and* data-plane — is redo-logged in.
//!
//! Record layout (all integers big-endian):
//!
//! ```text
//! u8 version (0xA3) | u8 kind | body
//! ```
//!
//! A record is the payload of one WAL frame, and carries no length or
//! checksum of its own: the frame's `u32 len | u32 crc(lsn ‖ payload)`
//! (`tse_storage::durable`) bounds it and is its one integrity check. A
//! payload whose first byte is anything but `0xA3` is refused as corrupt,
//! as are an unknown kind, a truncated body and trailing bytes.
//!
//! Data frames log **logical ops with their resolved targets**: `Create`
//! carries the oid the original call assigned (recovery forces the
//! allocator to reissue it), `UpdateWhere` carries the oids its predicate
//! resolved to (re-evaluating the predicate against a half-replayed store
//! could match a different set), and every frame carries resolved
//! *global* [`ClassId`]s rather than view-local names, so replay does not
//! depend on view state. They are not effects: replay re-runs the op
//! (`tse_algebra::set` and its kin, constraint checks included), so a
//! state-dependent op can decide differently at recovery than it did live
//! (ROADMAP items 0 and 18).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tse_object_model::{
    get_oids, get_pairs, get_pending_prop, put_oids, put_pairs, put_pending_prop, ClassId,
    ModelError, ModelResult, Oid, PendingProp, Value,
};
use tse_storage::payload::{get_str, get_strs, get_u32, get_u64, get_u8, put_str, put_strs};
use tse_storage::StorageError;
use tse_view::ViewId;

/// Version byte of the typed record format.
pub const FRAME_VERSION: u8 = 0xA3;

fn corrupt(msg: impl Into<String>) -> ModelError {
    ModelError::Storage(StorageError::Corrupt(msg.into()))
}

/// Discriminates the operation a WAL frame redoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A structural schema change (rendered command text).
    Evolve = 1,
    /// `WriteSession::create` — carries the assigned oid.
    Create = 2,
    /// `WriteSession::set`.
    Set = 3,
    /// `WriteSession::update_where` — carries the resolved oids.
    UpdateWhere = 4,
    /// `WriteSession::add_to`.
    AddTo = 5,
    /// `WriteSession::remove_from`.
    RemoveFrom = 6,
    /// `WriteSession::delete_objects`.
    Delete = 7,
    /// Checkpoint marker, appended before a snapshot is cut. A successful
    /// checkpoint resets the log (wiping the marker); one surviving a
    /// crash is skipped on replay and serves as forensic evidence of how
    /// far the checkpoint got.
    Checkpoint = 8,
    /// `define_base_class` — carries the pending property definitions, so
    /// a fresh directory replays its schema without needing a seed
    /// checkpoint.
    DefineClass = 9,
    /// `create_view` / `create_view_closed` / `create_view_all`.
    CreateView = 10,
    /// `set_constraint` — attach or clear a class constraint.
    SetConstraint = 11,
}

impl FrameKind {
    fn from_u8(b: u8) -> ModelResult<FrameKind> {
        Ok(match b {
            1 => FrameKind::Evolve,
            2 => FrameKind::Create,
            3 => FrameKind::Set,
            4 => FrameKind::UpdateWhere,
            5 => FrameKind::AddTo,
            6 => FrameKind::RemoveFrom,
            7 => FrameKind::Delete,
            8 => FrameKind::Checkpoint,
            9 => FrameKind::DefineClass,
            10 => FrameKind::CreateView,
            11 => FrameKind::SetConstraint,
            other => return Err(corrupt(format!("unknown wal frame kind {other}"))),
        })
    }
}

/// One decoded redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Structural change: re-run `evolve_cmd(family, command)`.
    Evolve {
        /// View family the change targets.
        family: String,
        /// Rendered command text ([`crate::SchemaChange::render`]).
        command: String,
    },
    /// Re-run `create` and force the allocator to hand out `oid`.
    Create {
        /// Resolved global class.
        class: ClassId,
        /// The oid the original (acked) call assigned.
        oid: Oid,
        /// Initial attribute values by name.
        values: Vec<(String, Value)>,
    },
    /// Re-run `set` on the logged oids (also used for `update_where`,
    /// which logs its resolved oid set under [`FrameKind::UpdateWhere`]).
    Set {
        /// Resolved global class.
        class: ClassId,
        /// Target objects.
        oids: Vec<Oid>,
        /// Attribute assignments by name.
        assignments: Vec<(String, Value)>,
        /// True when the frame was logged by `update_where` (kind
        /// round-trips so forensics can tell the entry points apart).
        from_update_where: bool,
    },
    /// Re-run `add` (view-class membership).
    AddTo {
        /// Resolved global class.
        class: ClassId,
        /// Objects added.
        oids: Vec<Oid>,
    },
    /// Re-run `remove`.
    RemoveFrom {
        /// Resolved global class.
        class: ClassId,
        /// Objects removed.
        oids: Vec<Oid>,
    },
    /// Re-run `delete`.
    Delete {
        /// Objects destroyed.
        oids: Vec<Oid>,
    },
    /// Checkpoint marker — skipped on replay.
    Checkpoint,
    /// Re-run `define_base_class(name, supers, props)`.
    DefineClass {
        /// Class name.
        name: String,
        /// Superclass names (resolved at replay time, like the original
        /// call resolved them).
        supers: Vec<String>,
        /// Property definitions, logged verbatim.
        props: Vec<PendingProp>,
    },
    /// Re-run view creation for `family`.
    CreateView {
        /// View family name.
        family: String,
        /// Member class names (empty for [`ViewMode::All`]).
        classes: Vec<String>,
        /// Which `create_view*` entry point was used.
        mode: ViewMode,
    },
    /// Re-run `set_constraint(view, class_local, expr)`.
    SetConstraint {
        /// The view version the class name is local to.
        view: ViewId,
        /// View-local class name (resolved at replay time, like the
        /// original call resolved it).
        class_local: String,
        /// The constraint's expression text; `None` clears the constraint.
        expr: Option<String>,
    },
}

/// Which view-creation entry point a [`WalRecord::CreateView`] frame logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// `create_view(family, classes)`.
    Plain,
    /// `create_view_closed(family, classes)` — type-closure probe included.
    Closed,
    /// `create_view_all(family)` — every base class.
    All,
}

impl ViewMode {
    fn to_u8(self) -> u8 {
        match self {
            ViewMode::Plain => 0,
            ViewMode::Closed => 1,
            ViewMode::All => 2,
        }
    }

    fn from_u8(b: u8) -> ModelResult<ViewMode> {
        Ok(match b {
            0 => ViewMode::Plain,
            1 => ViewMode::Closed,
            2 => ViewMode::All,
            other => return Err(corrupt(format!("unknown view mode {other}"))),
        })
    }
}

impl WalRecord {
    /// The frame kind this record encodes as.
    pub fn kind(&self) -> FrameKind {
        match self {
            WalRecord::Evolve { .. } => FrameKind::Evolve,
            WalRecord::Create { .. } => FrameKind::Create,
            WalRecord::Set { from_update_where: false, .. } => FrameKind::Set,
            WalRecord::Set { from_update_where: true, .. } => FrameKind::UpdateWhere,
            WalRecord::AddTo { .. } => FrameKind::AddTo,
            WalRecord::RemoveFrom { .. } => FrameKind::RemoveFrom,
            WalRecord::Delete { .. } => FrameKind::Delete,
            WalRecord::Checkpoint => FrameKind::Checkpoint,
            WalRecord::DefineClass { .. } => FrameKind::DefineClass,
            WalRecord::CreateView { .. } => FrameKind::CreateView,
            WalRecord::SetConstraint { .. } => FrameKind::SetConstraint,
        }
    }
}

/// Encode `record` into a complete typed frame (version byte through body).
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut body = BytesMut::new();
    match record {
        WalRecord::Evolve { family, command } => {
            put_str(&mut body, family);
            put_str(&mut body, command);
        }
        WalRecord::Create { class, oid, values } => {
            body.put_u32(class.0);
            body.put_u64(oid.0);
            put_pairs(&mut body, values);
        }
        WalRecord::Set { class, oids, assignments, .. } => {
            body.put_u32(class.0);
            put_oids(&mut body, oids);
            put_pairs(&mut body, assignments);
        }
        WalRecord::AddTo { class, oids } | WalRecord::RemoveFrom { class, oids } => {
            body.put_u32(class.0);
            put_oids(&mut body, oids);
        }
        WalRecord::Delete { oids } => {
            put_oids(&mut body, oids);
        }
        WalRecord::Checkpoint => {}
        WalRecord::DefineClass { name, supers, props } => {
            put_str(&mut body, name);
            put_strs(&mut body, supers);
            body.put_u32(props.len() as u32);
            for p in props {
                put_pending_prop(&mut body, p);
            }
        }
        WalRecord::CreateView { family, classes, mode } => {
            put_str(&mut body, family);
            put_strs(&mut body, classes);
            body.put_u8(mode.to_u8());
        }
        WalRecord::SetConstraint { view, class_local, expr } => {
            body.put_u32(view.0);
            put_str(&mut body, class_local);
            match expr {
                Some(expr) => {
                    body.put_u8(1);
                    put_str(&mut body, expr);
                }
                None => body.put_u8(0),
            }
        }
    }
    let mut frame = Vec::with_capacity(2 + body.len());
    frame.push(FRAME_VERSION);
    frame.push(record.kind() as u8);
    frame.extend_from_slice(body.as_ref());
    frame
}

/// Decode one WAL frame payload. A version, kind, truncation or
/// trailing-byte violation is an error; a frame never decodes "partially".
pub fn decode_frame(payload: &[u8]) -> ModelResult<WalRecord> {
    let (version, kind_byte, body) = match payload {
        [version, kind, body @ ..] => (*version, *kind, body),
        _ => return Err(corrupt("wal frame: truncated typed header")),
    };
    if version != FRAME_VERSION {
        return Err(corrupt("wal frame: unknown version byte"));
    }
    let kind = FrameKind::from_u8(kind_byte)?;
    let mut buf = Bytes::from(body);
    let record = match kind {
        FrameKind::Evolve => {
            WalRecord::Evolve { family: get_str(&mut buf)?, command: get_str(&mut buf)? }
        }
        FrameKind::Create => WalRecord::Create {
            class: ClassId(get_u32(&mut buf)?),
            oid: Oid(get_u64(&mut buf)?),
            values: get_pairs(&mut buf)?,
        },
        FrameKind::Set | FrameKind::UpdateWhere => WalRecord::Set {
            class: ClassId(get_u32(&mut buf)?),
            oids: get_oids(&mut buf)?,
            assignments: get_pairs(&mut buf)?,
            from_update_where: kind == FrameKind::UpdateWhere,
        },
        FrameKind::AddTo => {
            WalRecord::AddTo { class: ClassId(get_u32(&mut buf)?), oids: get_oids(&mut buf)? }
        }
        FrameKind::RemoveFrom => {
            WalRecord::RemoveFrom { class: ClassId(get_u32(&mut buf)?), oids: get_oids(&mut buf)? }
        }
        FrameKind::Delete => WalRecord::Delete { oids: get_oids(&mut buf)? },
        FrameKind::Checkpoint => WalRecord::Checkpoint,
        FrameKind::DefineClass => {
            let name = get_str(&mut buf)?;
            let supers = get_strs(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            let mut props = Vec::with_capacity(n.min(buf.remaining()));
            for _ in 0..n {
                props.push(get_pending_prop(&mut buf)?);
            }
            WalRecord::DefineClass { name, supers, props }
        }
        FrameKind::CreateView => WalRecord::CreateView {
            family: get_str(&mut buf)?,
            classes: get_strs(&mut buf)?,
            mode: ViewMode::from_u8(get_u8(&mut buf)?)?,
        },
        FrameKind::SetConstraint => WalRecord::SetConstraint {
            view: ViewId(get_u32(&mut buf)?),
            class_local: get_str(&mut buf)?,
            expr: match get_u8(&mut buf)? {
                0 => None,
                1 => Some(get_str(&mut buf)?),
                other => return Err(corrupt(format!("unknown constraint flag {other}"))),
            },
        },
    };
    if buf.remaining() > 0 {
        return Err(corrupt("wal frame: trailing bytes in body"));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Evolve {
                family: "STUDENTS".into(),
                command: "add_attribute gpa: float to Student".into(),
            },
            WalRecord::Create {
                class: ClassId(3),
                oid: Oid(41),
                values: vec![
                    ("name".into(), Value::Str("ann".into())),
                    ("age".into(), Value::Int(30)),
                    ("tags".into(), Value::List(vec![Value::Str("a".into()), Value::Null])),
                ],
            },
            WalRecord::Set {
                class: ClassId(9),
                oids: vec![Oid(1), Oid(2)],
                assignments: vec![("payload".into(), Value::Float(2.5))],
                from_update_where: false,
            },
            WalRecord::Set {
                class: ClassId(9),
                oids: vec![Oid(7)],
                assignments: vec![("flag".into(), Value::Bool(true))],
                from_update_where: true,
            },
            WalRecord::AddTo { class: ClassId(2), oids: vec![Oid(5)] },
            WalRecord::RemoveFrom { class: ClassId(2), oids: vec![Oid(5), Oid(6)] },
            WalRecord::Delete { oids: vec![Oid(8)] },
            WalRecord::Checkpoint,
            WalRecord::DefineClass {
                name: "Student".into(),
                supers: vec!["Person".into()],
                props: vec![tse_object_model::PropertyDef::stored(
                    "gpa",
                    tse_object_model::ValueType::Float,
                    Value::Float(0.0),
                )],
            },
            WalRecord::DefineClass { name: "Root".into(), supers: vec![], props: vec![] },
            WalRecord::CreateView {
                family: "VS".into(),
                classes: vec!["Person".into(), "Student".into()],
                mode: ViewMode::Plain,
            },
            WalRecord::CreateView {
                family: "VC".into(),
                classes: vec!["Person".into()],
                mode: ViewMode::Closed,
            },
            WalRecord::CreateView { family: "VA".into(), classes: vec![], mode: ViewMode::All },
            WalRecord::SetConstraint {
                view: ViewId(4),
                class_local: "Student".into(),
                expr: Some("age >= 18".into()),
            },
            WalRecord::SetConstraint { view: ViewId(1), class_local: "Person".into(), expr: None },
        ]
    }

    #[test]
    fn every_record_round_trips() {
        for record in sample_records() {
            let frame = encode_frame(&record);
            assert_eq!(frame[0], FRAME_VERSION);
            let decoded = decode_frame(&frame).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn every_other_version_byte_is_refused() {
        // Among them `00 00 00 07 COURSES delete_attribute …`, the
        // length-prefixed text frame of the first WAL format.
        let mut text = 7u32.to_be_bytes().to_vec();
        text.extend_from_slice(b"COURSESdelete_attribute units from Course");
        let typed = encode_frame(&WalRecord::Checkpoint);
        for first in (0..=u8::MAX).filter(|b| *b != FRAME_VERSION) {
            for mut payload in [text.clone(), typed.clone()] {
                payload[0] = first;
                let refused = decode_frame(&payload).unwrap_err();
                assert!(
                    matches!(refused, ModelError::Storage(StorageError::Corrupt(_))),
                    "first byte {first:#04x}: {refused}"
                );
            }
        }
    }

    #[test]
    fn truncated_tails_are_rejected() {
        for record in sample_records() {
            let good = encode_frame(&record);
            for cut in 0..good.len() {
                assert!(
                    decode_frame(&good[..cut]).is_err(),
                    "truncation to {cut} bytes of {record:?} decoded"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefixes_error_cleanly() {
        // A record whose oid count claims more oids than its body holds.
        let mut frame = encode_frame(&WalRecord::Delete { oids: vec![Oid(8)] });
        frame[2] = 0xFF; // oid count high byte
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for record in sample_records() {
            let mut padded = encode_frame(&record);
            padded.push(0);
            assert!(decode_frame(&padded).is_err(), "trailing byte after {record:?} decoded");
        }
    }
}
