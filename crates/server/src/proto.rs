//! The TSE wire protocol: versioned, CRC32-framed binary request/response
//! messages, reusing the WAL's framing discipline.
//!
//! Frame layout (all integers big-endian), identical in both directions:
//!
//! ```text
//! u8 version (0xB4) | u8 kind | u32 body_len | u32 crc32(kind ‖ body_len ‖ body) | body
//! ```
//!
//! The version byte is `0xB4` for the same reason the WAL's is `0xA3`: it
//! is not a small integer, so a single-bit flip never turns it into another
//! valid version, and everything after it is covered by the CRC — every
//! single-bit corruption of a frame is detected (see the fuzz tests).
//! (`0xB3` was the pre-idempotency framing; v2 stamps an idempotency id
//! into every data-write body and a session nonce into `Welcome`, so the
//! two dialects are mutually unintelligible by design.)
//! Request kinds occupy `1..=63`, response kinds `64..`, so a frame
//! accidentally decoded in the wrong direction fails on its kind byte
//! instead of mis-parsing.
//!
//! Error payloads are [`TseError`] verbatim — `u16 code | u64 retry_after |
//! string message` — so a remote caller matches on exactly the numeric
//! codes an in-process caller gets. Value and property-definition bodies
//! reuse the storage layer's [`Payload`] codecs; nothing is re-specified.

use std::io::{self, BufReader, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tse_core::{TseCode, TseError, TseResult};
use tse_object_model::{
    get_oids, get_pairs, get_pending_prop, put_oids, put_pairs, put_pending_prop, Oid,
    PendingProp, Value,
};
use tse_storage::payload::{get_str, get_strs, get_u32, get_u64, get_u8, put_str, put_strs};
use tse_storage::{Crc32, Payload, StorageError, StorageResult};

/// Version byte of the wire frame format.
pub const WIRE_VERSION: u8 = 0xB4;

/// Frame header length: version, kind, body length, CRC.
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body. Large enough for any realistic extent or
/// batch, small enough that a corrupt length prefix cannot make a peer
/// allocate gigabytes.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

fn protocol(msg: impl Into<String>) -> TseError {
    TseError::protocol(msg)
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// A client → server message. `sid`/`wid` are server-assigned handle ids
/// from [`Response::ReaderOpened`]/[`Response::WriterOpened`]; every data
/// operation goes through such a pinned handle.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First frame on every connection: authenticate as `user`, binding
    /// the connection to the user's view family.
    Hello {
        /// User identity (doubles as the initial view family).
        user: String,
    },
    /// Re-bind the connection to another view family's current version.
    Bind {
        /// Family name.
        family: String,
    },
    /// Open a pinned read handle at the connection's bound view version.
    OpenReader,
    /// Close a read handle.
    CloseReader {
        /// Handle id.
        sid: u64,
    },
    /// Re-pin a read handle to the newest data epoch.
    RefreshReader {
        /// Handle id.
        sid: u64,
    },
    /// [`tse_core::TseReader::get`].
    Get {
        /// Handle id.
        sid: u64,
        /// Target object.
        oid: Oid,
        /// View-local class name.
        class: String,
        /// Attribute name.
        attr: String,
    },
    /// [`tse_core::TseReader::extent`].
    Extent {
        /// Handle id.
        sid: u64,
        /// View-local class name.
        class: String,
    },
    /// [`tse_core::TseReader::select_where`].
    SelectWhere {
        /// Handle id.
        sid: u64,
        /// View-local class name.
        class: String,
        /// Predicate expression text.
        expr: String,
    },
    /// [`tse_core::TseReader::invoke`].
    Invoke {
        /// Handle id.
        sid: u64,
        /// Target object.
        oid: Oid,
        /// View-local class name.
        class: String,
        /// Property name.
        name: String,
    },
    /// Open a pinned write handle at the connection's bound view version.
    OpenWriter,
    /// Close a write handle.
    CloseWriter {
        /// Handle id.
        wid: u64,
    },
    /// Re-pin a write handle to the newest metadata epoch.
    RefreshWriter {
        /// Handle id.
        wid: u64,
    },
    /// [`tse_core::TseWriter::create`].
    Create {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// View-local class name.
        class: String,
        /// Initial attribute values.
        values: Vec<(String, Value)>,
    },
    /// [`tse_core::TseWriter::set`].
    SetAttrs {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// Target object.
        oid: Oid,
        /// View-local class name.
        class: String,
        /// Attribute assignments.
        assignments: Vec<(String, Value)>,
    },
    /// [`tse_core::TseWriter::update_where`].
    UpdateWhere {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// View-local class name.
        class: String,
        /// Predicate expression text.
        expr: String,
        /// Attribute assignments.
        assignments: Vec<(String, Value)>,
    },
    /// [`tse_core::TseWriter::add_to`].
    AddTo {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// View-local class name.
        class: String,
        /// Objects to add.
        oids: Vec<Oid>,
    },
    /// [`tse_core::TseWriter::remove_from`].
    RemoveFrom {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// View-local class name.
        class: String,
        /// Objects to remove.
        oids: Vec<Oid>,
    },
    /// [`tse_core::TseWriter::delete_objects`].
    Delete {
        /// Handle id.
        wid: u64,
        /// Idempotency id (0 = no dedup requested).
        idem: u64,
        /// Objects to destroy.
        oids: Vec<Oid>,
    },
    /// [`tse_core::TseClient::define_class`].
    DefineClass {
        /// Class name.
        name: String,
        /// Superclass names.
        supers: Vec<String>,
        /// Property definitions.
        props: Vec<PendingProp>,
    },
    /// [`tse_core::TseClient::create_view`] over the bound family.
    CreateView {
        /// Global class names the view exposes.
        classes: Vec<String>,
    },
    /// [`tse_core::TseClient::evolve`] on the bound family.
    Evolve {
        /// Schema-change command text.
        command: String,
    },
    /// [`tse_core::TseClient::describe`].
    Describe,
    /// [`tse_core::TseClient::versions`].
    Versions,
    /// [`tse_core::TseClient::health`].
    Health,
    /// Liveness probe.
    Ping,
    /// Ask the whole server to drain and exit (used by CI smoke runs and
    /// operators; in-flight requests on other connections finish first).
    Shutdown,
    /// Clean connection close.
    Bye,
}

impl Request {
    /// The idempotency id stamped into a data-write request, if any.
    /// `Some(0)` means the client declined dedup for this write; reads,
    /// handle management, and schema DDL return [`None`] — retrying a
    /// read is free and retrying DDL is observable (an extra view
    /// version), so the server's dedup window only tracks data writes.
    pub fn idem(&self) -> Option<u64> {
        match self {
            Request::Create { idem, .. }
            | Request::SetAttrs { idem, .. }
            | Request::UpdateWhere { idem, .. }
            | Request::AddTo { idem, .. }
            | Request::RemoveFrom { idem, .. }
            | Request::Delete { idem, .. } => Some(*idem),
            _ => None,
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Hello`]: the connection is authenticated and
    /// bound (version 0 = the family has no view yet).
    Welcome {
        /// Bound view version.
        version: u32,
        /// Server-minted session nonce. Clients derive idempotency ids
        /// from it (`nonce << 32 | counter`) so ids never collide across
        /// a user's concurrent or successive connections.
        nonce: u64,
    },
    /// Reply to [`Request::Bind`].
    Bound {
        /// Bound view version (0 = none yet).
        version: u32,
    },
    /// Reply to [`Request::OpenReader`].
    ReaderOpened {
        /// Handle id for subsequent read requests.
        sid: u64,
        /// The view version the handle is pinned to.
        version: u32,
    },
    /// Reply to [`Request::OpenWriter`].
    WriterOpened {
        /// Handle id for subsequent write requests.
        wid: u64,
    },
    /// Handle closed.
    Closed,
    /// Handle re-pinned.
    Refreshed,
    /// A single value.
    Val(
        /// The value.
        Value,
    ),
    /// A single object id.
    OidIs(
        /// The oid.
        Oid,
    ),
    /// A list of object ids.
    Oids(
        /// The oids.
        Vec<Oid>,
    ),
    /// A count (e.g. objects matched by `update_where`).
    Count(
        /// The count.
        u64,
    ),
    /// Success with no payload.
    Unit,
    /// A view version number (create_view, versions).
    ViewVersion(
        /// The version.
        u32,
    ),
    /// Reply to [`Request::Evolve`].
    Evolved {
        /// The family's new view version.
        version: u32,
        /// View classes replaced by primed counterparts.
        classes_touched: u64,
        /// Newly derived classes folded onto duplicates.
        duplicates_folded: u64,
        /// Generated view specification script.
        script: String,
    },
    /// Reply to [`Request::Describe`].
    Described(
        /// Rendered view text.
        String,
    ),
    /// Reply to [`Request::Health`]. `status` is 0 = healthy, 1 =
    /// degraded, 2 = poisoned.
    HealthIs {
        /// Status discriminant.
        status: u8,
        /// Degradation reason ("" unless degraded).
        reason: String,
        /// Suggested write backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Liveness reply.
    Pong,
    /// Admission control: the server is at its connection cap (or
    /// draining) and did not register this connection. Reconnect after
    /// the hint.
    Retry {
        /// Suggested reconnect backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed; payload is a [`TseError`] verbatim.
    Err {
        /// Stable numeric code ([`TseCode`]).
        code: u16,
        /// Backoff hint, milliseconds (0 = none).
        retry_after_ms: u64,
        /// Human-readable context.
        message: String,
    },
    /// Clean close acknowledgement.
    Bye,
}

impl Response {
    /// Build the error response carrying `err` verbatim.
    pub fn from_error(err: &TseError) -> Response {
        Response::Err {
            code: err.code().as_u16(),
            retry_after_ms: err.retry_after_ms(),
            message: err.message().to_string(),
        }
    }

    /// Reconstruct the [`TseError`] an error response carries.
    pub fn to_error(code: u16, retry_after_ms: u64, message: &str) -> TseError {
        TseError::new(TseCode::from_u16(code), message).with_retry_after_ms(retry_after_ms)
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Request::Hello { .. } => 1,
            Request::Bind { .. } => 2,
            Request::OpenReader => 3,
            Request::CloseReader { .. } => 4,
            Request::RefreshReader { .. } => 5,
            Request::Get { .. } => 6,
            Request::Extent { .. } => 7,
            Request::SelectWhere { .. } => 8,
            Request::Invoke { .. } => 9,
            Request::OpenWriter => 10,
            Request::CloseWriter { .. } => 11,
            Request::RefreshWriter { .. } => 12,
            Request::Create { .. } => 13,
            Request::SetAttrs { .. } => 14,
            Request::UpdateWhere { .. } => 15,
            Request::AddTo { .. } => 16,
            Request::RemoveFrom { .. } => 17,
            Request::Delete { .. } => 18,
            Request::DefineClass { .. } => 19,
            Request::CreateView { .. } => 20,
            Request::Evolve { .. } => 21,
            Request::Describe => 22,
            Request::Versions => 23,
            Request::Health => 24,
            Request::Ping => 25,
            Request::Shutdown => 26,
            Request::Bye => 27,
        }
    }

    /// The encoded body's length, so that a frame is allocated once at its
    /// final size. Exact for every kind but `DefineClass`, a cold DDL frame
    /// whose property definitions are not measured: its buffer may regrow.
    fn body_len(&self) -> usize {
        match self {
            Request::Hello { user: s }
            | Request::Bind { family: s }
            | Request::Evolve { command: s } => str_len(s),
            Request::OpenReader
            | Request::OpenWriter
            | Request::Describe
            | Request::Versions
            | Request::Health
            | Request::Ping
            | Request::Shutdown
            | Request::Bye => 0,
            Request::CloseReader { .. }
            | Request::RefreshReader { .. }
            | Request::CloseWriter { .. }
            | Request::RefreshWriter { .. } => 8,
            Request::Get { class, attr: name, .. } | Request::Invoke { class, name, .. } => {
                16 + str_len(class) + str_len(name)
            }
            Request::Extent { class, .. } => 8 + str_len(class),
            Request::SelectWhere { class, expr, .. } => 8 + str_len(class) + str_len(expr),
            Request::Create { class, values, .. } => 16 + str_len(class) + pairs_len(values),
            Request::SetAttrs { class, assignments, .. } => {
                24 + str_len(class) + pairs_len(assignments)
            }
            Request::UpdateWhere { class, expr, assignments, .. } => {
                16 + str_len(class) + str_len(expr) + pairs_len(assignments)
            }
            Request::AddTo { class, oids, .. } | Request::RemoveFrom { class, oids, .. } => {
                16 + str_len(class) + oids_len(oids)
            }
            Request::Delete { oids, .. } => 16 + oids_len(oids),
            Request::DefineClass { name, supers, .. } => str_len(name) + strs_len(supers) + 4,
            Request::CreateView { classes } => strs_len(classes),
        }
    }

    fn encode_body(&self, body: &mut BytesMut) {
        match self {
            Request::Hello { user } => put_str(body, user),
            Request::Bind { family } => put_str(body, family),
            Request::OpenReader
            | Request::OpenWriter
            | Request::Describe
            | Request::Versions
            | Request::Health
            | Request::Ping
            | Request::Shutdown
            | Request::Bye => {}
            Request::CloseReader { sid }
            | Request::RefreshReader { sid } => body.put_u64(*sid),
            Request::CloseWriter { wid } | Request::RefreshWriter { wid } => body.put_u64(*wid),
            Request::Get { sid, oid, class, attr } => {
                body.put_u64(*sid);
                body.put_u64(oid.0);
                put_str(body, class);
                put_str(body, attr);
            }
            Request::Extent { sid, class } => {
                body.put_u64(*sid);
                put_str(body, class);
            }
            Request::SelectWhere { sid, class, expr } => {
                body.put_u64(*sid);
                put_str(body, class);
                put_str(body, expr);
            }
            Request::Invoke { sid, oid, class, name } => {
                body.put_u64(*sid);
                body.put_u64(oid.0);
                put_str(body, class);
                put_str(body, name);
            }
            Request::Create { wid, idem, class, values } => {
                body.put_u64(*wid);
                body.put_u64(*idem);
                put_str(body, class);
                put_pairs(body, values);
            }
            Request::SetAttrs { wid, idem, oid, class, assignments } => {
                body.put_u64(*wid);
                body.put_u64(*idem);
                body.put_u64(oid.0);
                put_str(body, class);
                put_pairs(body, assignments);
            }
            Request::UpdateWhere { wid, idem, class, expr, assignments } => {
                body.put_u64(*wid);
                body.put_u64(*idem);
                put_str(body, class);
                put_str(body, expr);
                put_pairs(body, assignments);
            }
            Request::AddTo { wid, idem, class, oids }
            | Request::RemoveFrom { wid, idem, class, oids } => {
                body.put_u64(*wid);
                body.put_u64(*idem);
                put_str(body, class);
                put_oids(body, oids);
            }
            Request::Delete { wid, idem, oids } => {
                body.put_u64(*wid);
                body.put_u64(*idem);
                put_oids(body, oids);
            }
            Request::DefineClass { name, supers, props } => {
                put_str(body, name);
                put_strs(body, supers);
                body.put_u32(props.len() as u32);
                for p in props {
                    put_pending_prop(body, p);
                }
            }
            Request::CreateView { classes } => put_strs(body, classes),
            Request::Evolve { command } => put_str(body, command),
        }
    }

    fn decode_body(kind: u8, buf: &mut Bytes) -> StorageResult<Request> {
        Ok(match kind {
            1 => Request::Hello { user: get_str(buf)? },
            2 => Request::Bind { family: get_str(buf)? },
            3 => Request::OpenReader,
            4 => Request::CloseReader { sid: get_u64(buf)? },
            5 => Request::RefreshReader { sid: get_u64(buf)? },
            6 => Request::Get {
                sid: get_u64(buf)?,
                oid: Oid(get_u64(buf)?),
                class: get_str(buf)?,
                attr: get_str(buf)?,
            },
            7 => Request::Extent { sid: get_u64(buf)?, class: get_str(buf)? },
            8 => Request::SelectWhere {
                sid: get_u64(buf)?,
                class: get_str(buf)?,
                expr: get_str(buf)?,
            },
            9 => Request::Invoke {
                sid: get_u64(buf)?,
                oid: Oid(get_u64(buf)?),
                class: get_str(buf)?,
                name: get_str(buf)?,
            },
            10 => Request::OpenWriter,
            11 => Request::CloseWriter { wid: get_u64(buf)? },
            12 => Request::RefreshWriter { wid: get_u64(buf)? },
            13 => Request::Create {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                class: get_str(buf)?,
                values: get_pairs(buf)?,
            },
            14 => Request::SetAttrs {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                oid: Oid(get_u64(buf)?),
                class: get_str(buf)?,
                assignments: get_pairs(buf)?,
            },
            15 => Request::UpdateWhere {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                class: get_str(buf)?,
                expr: get_str(buf)?,
                assignments: get_pairs(buf)?,
            },
            16 => Request::AddTo {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                class: get_str(buf)?,
                oids: get_oids(buf)?,
            },
            17 => Request::RemoveFrom {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                class: get_str(buf)?,
                oids: get_oids(buf)?,
            },
            18 => Request::Delete {
                wid: get_u64(buf)?,
                idem: get_u64(buf)?,
                oids: get_oids(buf)?,
            },
            19 => {
                let name = get_str(buf)?;
                let supers = get_strs(buf)?;
                let n = get_u32(buf)? as usize;
                let mut props = Vec::with_capacity(n.min(buf.remaining()));
                for _ in 0..n {
                    props.push(get_pending_prop(buf)?);
                }
                Request::DefineClass { name, supers, props }
            }
            20 => Request::CreateView { classes: get_strs(buf)? },
            21 => Request::Evolve { command: get_str(buf)? },
            22 => Request::Describe,
            23 => Request::Versions,
            24 => Request::Health,
            25 => Request::Ping,
            26 => Request::Shutdown,
            27 => Request::Bye,
            other => return Err(StorageError::Corrupt(format!("unknown request kind {other}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

impl Response {
    fn kind(&self) -> u8 {
        match self {
            Response::Welcome { .. } => 64,
            Response::Bound { .. } => 65,
            Response::ReaderOpened { .. } => 66,
            Response::WriterOpened { .. } => 67,
            Response::Closed => 68,
            Response::Refreshed => 69,
            Response::Val(_) => 70,
            Response::OidIs(_) => 71,
            Response::Oids(_) => 72,
            Response::Count(_) => 73,
            Response::Unit => 74,
            Response::ViewVersion(_) => 75,
            Response::Evolved { .. } => 76,
            Response::Described(_) => 77,
            Response::HealthIs { .. } => 78,
            Response::Pong => 79,
            Response::Retry { .. } => 80,
            Response::Err { .. } => 81,
            Response::Bye => 82,
        }
    }

    /// The encoded body's length, exact for every kind, so that a frame is
    /// allocated once at its final size.
    fn body_len(&self) -> usize {
        match self {
            Response::Welcome { .. } | Response::ReaderOpened { .. } => 12,
            Response::Bound { .. } | Response::ViewVersion(_) => 4,
            Response::WriterOpened { .. }
            | Response::OidIs(_)
            | Response::Count(_)
            | Response::Retry { .. } => 8,
            Response::Closed | Response::Refreshed | Response::Unit | Response::Pong
            | Response::Bye => 0,
            // A value's page size is its encoded length (`Value::encode`).
            Response::Val(v) => v.byte_size(),
            Response::Oids(oids) => oids_len(oids),
            Response::Evolved { script, .. } => 20 + str_len(script),
            Response::Described(text) => str_len(text),
            Response::HealthIs { reason, .. } => 9 + str_len(reason),
            Response::Err { message, .. } => 10 + str_len(message),
        }
    }

    fn encode_body(&self, body: &mut BytesMut) {
        match self {
            Response::Welcome { version, nonce } => {
                body.put_u32(*version);
                body.put_u64(*nonce);
            }
            Response::Bound { version } => body.put_u32(*version),
            Response::ReaderOpened { sid, version } => {
                body.put_u64(*sid);
                body.put_u32(*version);
            }
            Response::WriterOpened { wid } => body.put_u64(*wid),
            Response::Closed | Response::Refreshed | Response::Unit | Response::Pong
            | Response::Bye => {}
            Response::Val(v) => v.encode(body),
            Response::OidIs(oid) => body.put_u64(oid.0),
            Response::Oids(oids) => put_oids(body, oids),
            Response::Count(n) => body.put_u64(*n),
            Response::ViewVersion(v) => body.put_u32(*v),
            Response::Evolved { version, classes_touched, duplicates_folded, script } => {
                body.put_u32(*version);
                body.put_u64(*classes_touched);
                body.put_u64(*duplicates_folded);
                put_str(body, script);
            }
            Response::Described(text) => put_str(body, text),
            Response::HealthIs { status, reason, retry_after_ms } => {
                body.put_u8(*status);
                put_str(body, reason);
                body.put_u64(*retry_after_ms);
            }
            Response::Retry { retry_after_ms } => body.put_u64(*retry_after_ms),
            Response::Err { code, retry_after_ms, message } => {
                body.put_u16(*code);
                body.put_u64(*retry_after_ms);
                put_str(body, message);
            }
        }
    }

    fn decode_body(kind: u8, buf: &mut Bytes) -> StorageResult<Response> {
        Ok(match kind {
            64 => Response::Welcome {
                version: get_u32(buf)?,
                nonce: get_u64(buf)?,
            },
            65 => Response::Bound { version: get_u32(buf)? },
            66 => Response::ReaderOpened {
                sid: get_u64(buf)?,
                version: get_u32(buf)?,
            },
            67 => Response::WriterOpened { wid: get_u64(buf)? },
            68 => Response::Closed,
            69 => Response::Refreshed,
            70 => Response::Val(Value::decode(buf)?),
            71 => Response::OidIs(Oid(get_u64(buf)?)),
            72 => Response::Oids(get_oids(buf)?),
            73 => Response::Count(get_u64(buf)?),
            74 => Response::Unit,
            75 => Response::ViewVersion(get_u32(buf)?),
            76 => Response::Evolved {
                version: get_u32(buf)?,
                classes_touched: get_u64(buf)?,
                duplicates_folded: get_u64(buf)?,
                script: get_str(buf)?,
            },
            77 => Response::Described(get_str(buf)?),
            78 => Response::HealthIs {
                status: get_u8(buf)?,
                reason: get_str(buf)?,
                retry_after_ms: get_u64(buf)?,
            },
            79 => Response::Pong,
            80 => Response::Retry { retry_after_ms: get_u64(buf)? },
            81 => Response::Err {
                code: {
                    if buf.remaining() < 2 {
                        return Err(StorageError::Corrupt("truncated error code".into()));
                    }
                    buf.get_u16()
                },
                retry_after_ms: get_u64(buf)?,
                message: get_str(buf)?,
            },
            82 => Response::Bye,
            other => return Err(StorageError::Corrupt(format!("unknown response kind {other}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Lengths of the body shapes `put_str`, `put_strs`, `put_oids` and
/// `put_pairs` write.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

fn strs_len(strs: &[String]) -> usize {
    4 + strs.iter().map(|s| str_len(s)).sum::<usize>()
}

fn oids_len(oids: &[Oid]) -> usize {
    4 + 8 * oids.len()
}

fn pairs_len(pairs: &[(String, Value)]) -> usize {
    4 + pairs.iter().map(|(name, value)| str_len(name) + value.byte_size()).sum::<usize>()
}

/// Encode one frame into a single buffer sized for `body_len` body bytes:
/// the header is reserved, the body written after it, and the header
/// filled in once the body's length and CRC are known.
fn encode_frame(kind: u8, body_len: usize, encode_body: impl FnOnce(&mut BytesMut)) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + body_len);
    buf.put_slice(&[0; HEADER_LEN]);
    encode_body(&mut buf);
    let mut frame = Vec::from(buf);
    let len = ((frame.len() - HEADER_LEN) as u32).to_be_bytes();
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&len);
    crc.update(&frame[HEADER_LEN..]);
    frame[0] = WIRE_VERSION;
    frame[1] = kind;
    frame[2..6].copy_from_slice(&len);
    frame[6..HEADER_LEN].copy_from_slice(&crc.finalize().to_be_bytes());
    frame
}

/// Encode a request into a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_frame(req.kind(), req.body_len(), |body| req.encode_body(body))
}

/// Encode a response into a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_frame(resp.kind(), resp.body_len(), |body| resp.encode_body(body))
}

/// Validate a complete frame (version, length, CRC) and hand back the kind
/// byte and the body, which stays where it is in the frame the check takes.
/// Shared by both decode directions.
fn check_frame(frame: Vec<u8>) -> TseResult<(u8, Bytes)> {
    if frame.first() != Some(&WIRE_VERSION) {
        return Err(protocol(format!(
            "unsupported protocol version {:#04x} (expected {WIRE_VERSION:#04x})",
            frame.first().copied().unwrap_or(0)
        )));
    }
    if frame.len() < HEADER_LEN {
        return Err(protocol("frame: truncated header"));
    }
    let kind = frame[1];
    let body_len = u32::from_be_bytes(frame[2..6].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(frame[6..10].try_into().unwrap());
    let body = &frame[HEADER_LEN..];
    if body.len() != body_len {
        return Err(protocol(format!(
            "frame: body is {} bytes, header says {body_len}",
            body.len()
        )));
    }
    let mut h = Crc32::new();
    h.update(&[kind]);
    h.update(&(body_len as u32).to_be_bytes());
    h.update(body);
    if h.finalize() != crc {
        return Err(protocol("frame: crc mismatch"));
    }
    let mut body = Bytes::from(frame);
    body.advance(HEADER_LEN);
    Ok((kind, body))
}

/// Decode a checked frame's body and require that it was consumed whole.
/// The one place a body codec's [`StorageError`] becomes
/// [`TseCode::Protocol`].
fn decode_body<T>(
    frame: Vec<u8>,
    decode: impl FnOnce(u8, &mut Bytes) -> StorageResult<T>,
) -> TseResult<T> {
    let (kind, mut buf) = check_frame(frame)?;
    let msg = decode(kind, &mut buf).map_err(|e| protocol(format!("frame: {e}")))?;
    if buf.remaining() > 0 {
        return Err(protocol("frame: trailing bytes in body"));
    }
    Ok(msg)
}

/// Decode one complete request frame, taking it: the body is read where
/// it was received, with no copy.
pub fn decode_request_owned(frame: Vec<u8>) -> TseResult<Request> {
    decode_body(frame, Request::decode_body)
}

/// Decode one complete response frame, taking it: the body is read where
/// it was received, with no copy.
pub fn decode_response_owned(frame: Vec<u8>) -> TseResult<Response> {
    decode_body(frame, Response::decode_body)
}

/// Decode one complete request frame from a borrowed buffer, which is
/// copied once.
pub fn decode_request(frame: &[u8]) -> TseResult<Request> {
    decode_request_owned(frame.to_vec())
}

/// Decode one complete response frame from a borrowed buffer, which is
/// copied once.
pub fn decode_response(frame: &[u8]) -> TseResult<Response> {
    decode_response_owned(frame.to_vec())
}

/// Bytes a connection's reader buffers: one `read` takes in a whole frame
/// of any common request or response, where reading straight from the
/// socket takes three (the version byte, the rest of the header, the body).
const READ_BUFFER: usize = 8 * 1024;

/// The reader a connection's frames come through, on the server and the
/// client alike. [`read_frame`] and [`read_frame_idle`] run over it
/// unchanged: the header is still checked before the body is read, and a
/// read timeout still means idle before a frame's first byte and a stall
/// after it, since a buffered read reports the same timeout as the socket.
pub(crate) fn frame_reader<R: Read>(inner: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUFFER, inner)
}

/// Outcome of [`read_frame_idle`]: a frame, a clean EOF, or an idle tick.
#[derive(Debug)]
pub enum FrameRead {
    /// One complete frame.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The socket read timeout fired before the first byte of a frame
    /// arrived: the peer is idle, not broken or stalled. The caller
    /// decides whether to keep waiting (and for how long).
    Idle,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// `read_exact` for bytes *inside* a frame: once the first byte of a frame
/// has arrived, a read timeout no longer means "idle" — the peer stalled
/// mid-frame, which is a deadline violation, not quiet.
fn read_exact_mid_frame(r: &mut impl Read, buf: &mut [u8]) -> TseResult<()> {
    r.read_exact(buf).map_err(|e| {
        if is_timeout(&e) {
            TseError::new(
                TseCode::DeadlineExceeded,
                "peer stalled mid-frame (read timeout elapsed)",
            )
        } else {
            io_error(e)
        }
    })
}

/// Read the remainder of a frame whose first (version) byte is `first`.
/// The header is validated (version byte, body-length cap) **before** the
/// body is read, so a corrupt length prefix can never make the peer
/// allocate or block on gigabytes.
fn finish_frame(r: &mut impl Read, first: u8) -> TseResult<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_mid_frame(r, &mut header[1..])?;
    if header[0] != WIRE_VERSION {
        return Err(protocol(format!(
            "unsupported protocol version {:#04x} (expected {WIRE_VERSION:#04x})",
            header[0]
        )));
    }
    let body_len = u32::from_be_bytes(header[2..6].try_into().unwrap()) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(protocol(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
        )));
    }
    let mut frame = vec![0u8; HEADER_LEN + body_len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    read_exact_mid_frame(r, &mut frame[HEADER_LEN..])?;
    Ok(frame)
}

/// Read one complete frame from a stream. Returns `Ok(None)` on clean EOF
/// at a frame boundary. A read timeout — before the first byte or mid-frame
/// — surfaces as [`TseCode::DeadlineExceeded`]; callers that want to treat
/// pre-frame quiet as benign use [`read_frame_idle`] instead.
pub fn read_frame(r: &mut impl Read) -> TseResult<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(TseError::new(
                    TseCode::DeadlineExceeded,
                    "timed out waiting for a frame",
                ))
            }
            Err(e) => return Err(io_error(e)),
        }
    }
    finish_frame(r, first[0]).map(Some)
}

/// Like [`read_frame`], but a read timeout before the first byte of a
/// frame returns [`FrameRead::Idle`] instead of an error, so a server
/// handler can use its socket read timeout as an idle-reaping tick
/// without conflating "quiet client" with "stalled client". A timeout
/// *mid-frame* is still an error (the slow-client read budget).
pub fn read_frame_idle(r: &mut impl Read) -> TseResult<FrameRead> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Ok(FrameRead::Idle),
            Err(e) => return Err(io_error(e)),
        }
    }
    finish_frame(r, first[0]).map(FrameRead::Frame)
}

/// Write one complete frame and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> TseResult<()> {
    w.write_all(frame).map_err(io_error)?;
    w.flush().map_err(io_error)
}

fn io_error(e: io::Error) -> TseError {
    TseError::new(TseCode::Io, format!("connection i/o failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        use tse_object_model::{PropertyDef, ValueType};
        vec![
            Request::Hello { user: "alice".into() },
            Request::Bind { family: "VS".into() },
            Request::OpenReader,
            Request::CloseReader { sid: 7 },
            Request::RefreshReader { sid: 7 },
            Request::Get { sid: 7, oid: Oid(3), class: "Person".into(), attr: "name".into() },
            Request::Extent { sid: 7, class: "Person".into() },
            Request::SelectWhere { sid: 7, class: "Person".into(), expr: "age > 3".into() },
            Request::Invoke { sid: 7, oid: Oid(3), class: "Person".into(), name: "id".into() },
            Request::OpenWriter,
            Request::CloseWriter { wid: 9 },
            Request::RefreshWriter { wid: 9 },
            Request::Create {
                wid: 9,
                idem: (11 << 32) | 1,
                class: "Person".into(),
                values: vec![("name".into(), Value::Str("ann".into()))],
            },
            Request::SetAttrs {
                wid: 9,
                idem: (11 << 32) | 2,
                oid: Oid(3),
                class: "Person".into(),
                assignments: vec![("age".into(), Value::Int(30))],
            },
            Request::UpdateWhere {
                wid: 9,
                idem: (11 << 32) | 3,
                class: "Person".into(),
                expr: "age == 0".into(),
                assignments: vec![("age".into(), Value::Int(1))],
            },
            Request::AddTo {
                wid: 9,
                idem: 0,
                class: "Club".into(),
                oids: vec![Oid(1), Oid(2)],
            },
            Request::RemoveFrom { wid: 9, idem: 4, class: "Club".into(), oids: vec![Oid(2)] },
            Request::Delete { wid: 9, idem: 5, oids: vec![Oid(1), Oid(2), Oid(3)] },
            Request::DefineClass {
                name: "Person".into(),
                supers: vec!["Agent".into()],
                props: vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
            },
            Request::CreateView { classes: vec!["Person".into(), "Agent".into()] },
            Request::Evolve { command: "add_attribute age: int = 0 to Person".into() },
            Request::Describe,
            Request::Versions,
            Request::Health,
            Request::Ping,
            Request::Shutdown,
            Request::Bye,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Welcome { version: 2, nonce: 41 },
            Response::Bound { version: 0 },
            Response::ReaderOpened { sid: 7, version: 2 },
            Response::WriterOpened { wid: 9 },
            Response::Closed,
            Response::Refreshed,
            Response::Val(Value::Str("ann".into())),
            Response::OidIs(Oid(3)),
            Response::Oids(vec![Oid(1), Oid(2)]),
            Response::Count(41),
            Response::Unit,
            Response::ViewVersion(3),
            Response::Evolved {
                version: 2,
                classes_touched: 4,
                duplicates_folded: 1,
                script: "define view ...".into(),
            },
            Response::Described("view VS (version 2)".into()),
            Response::HealthIs { status: 1, reason: "disk_full".into(), retry_after_ms: 64 },
            Response::Pong,
            Response::Retry { retry_after_ms: 100 },
            Response::Err { code: 5, retry_after_ms: 64, message: "service degraded".into() },
            Response::Bye,
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "round trip of {req:?}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in sample_responses() {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp, "round trip of {resp:?}");
        }
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut pipe: Vec<u8> = Vec::new();
        for req in sample_requests() {
            write_frame(&mut pipe, &encode_request(&req)).unwrap();
        }
        let mut cursor = io::Cursor::new(pipe);
        for req in sample_requests() {
            let frame = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(decode_request(&frame).unwrap(), req);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after last frame");
    }

    // ---- fuzz suite mirroring walcodec's ---------------------------------

    #[test]
    fn every_single_bit_flip_is_detected() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut mutated = frame.clone();
                    mutated[byte] ^= 1 << bit;
                    match decode_request(&mutated) {
                        Err(_) => {}
                        Ok(decoded) => panic!(
                            "bit flip at byte {byte} bit {bit} of {req:?} \
                             decoded silently as {decoded:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_tails_are_rejected() {
        for resp in sample_responses() {
            let frame = encode_response(&resp);
            for keep in 0..frame.len() {
                assert!(
                    decode_response(&frame[..keep]).is_err(),
                    "truncation to {keep} bytes of {resp:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefixes_error_cleanly() {
        let mut frame = encode_request(&Request::Ping);
        frame[2..6].copy_from_slice(&(u32::MAX).to_be_bytes());
        // Direct decode: header/body length mismatch.
        assert!(decode_request(&frame).is_err());
        // Stream read: rejected by the cap before any allocation, read
        // straight or through the connection's buffer.
        let mut cursor = io::Cursor::new(frame.clone());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.code(), TseCode::Protocol);
        assert!(err.message().contains("cap"), "unexpected message: {}", err.message());
        let err = read_frame(&mut frame_reader(io::Cursor::new(frame))).unwrap_err();
        assert!(err.message().contains("cap"), "unexpected message: {}", err.message());
    }

    #[test]
    fn v_next_version_byte_is_refused_not_misparsed() {
        let mut frame = encode_request(&Request::Hello { user: "alice".into() });
        frame[0] = 0xB5; // hypothetical v-next
        let err = decode_request(&frame).unwrap_err();
        assert_eq!(err.code(), TseCode::Protocol);
        assert!(err.message().contains("version"));
        let mut cursor = io::Cursor::new(frame);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn v_prev_version_byte_is_refused_not_misparsed() {
        // The pre-idempotency dialect (0xB3) must be refused up front, not
        // decoded against the v2 body shapes.
        let mut frame = encode_request(&Request::Ping);
        frame[0] = 0xB3;
        assert_eq!(decode_request(&frame).unwrap_err().code(), TseCode::Protocol);
    }

    #[test]
    fn only_data_writes_carry_idempotency_ids() {
        for req in sample_requests() {
            let dedupable = matches!(
                req,
                Request::Create { .. }
                    | Request::SetAttrs { .. }
                    | Request::UpdateWhere { .. }
                    | Request::AddTo { .. }
                    | Request::RemoveFrom { .. }
                    | Request::Delete { .. }
            );
            assert_eq!(req.idem().is_some(), dedupable, "idem() of {req:?}");
        }
    }

    // ---- adversarial transport behaviour ---------------------------------

    /// A reader that hands back at most one byte per `read` call — the
    /// worst legal TCP fragmentation.
    struct OneByteAtATime<R>(R);

    impl<R: Read> Read for OneByteAtATime<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// A reader that yields `limit` bytes, then stalls (WouldBlock, as a
    /// socket with `set_read_timeout` surfaces an expired timer).
    struct StallAfter {
        data: io::Cursor<Vec<u8>>,
        limit: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.limit == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"));
            }
            let n = buf.len().min(self.limit);
            let read = self.data.read(&mut buf[..n])?;
            self.limit -= read;
            Ok(read)
        }
    }

    /// A reader that counts the `read` calls reaching it — the syscalls a
    /// socket would see.
    struct CountingReads<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for CountingReads<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn byte_at_a_time_fragmented_reads_reassemble_every_frame() {
        let mut pipe: Vec<u8> = Vec::new();
        for req in sample_requests() {
            write_frame(&mut pipe, &encode_request(&req)).unwrap();
        }
        fn reassemble(fragmented: &mut impl Read) {
            for req in sample_requests() {
                let frame = read_frame(fragmented).unwrap().expect("frame present");
                assert_eq!(decode_request(&frame).unwrap(), req);
            }
            assert!(read_frame(fragmented).unwrap().is_none(), "clean EOF at the end");
        }
        reassemble(&mut OneByteAtATime(io::Cursor::new(pipe.clone())));
        reassemble(&mut frame_reader(OneByteAtATime(io::Cursor::new(pipe))));
    }

    #[test]
    fn mid_frame_disconnect_is_an_io_error_not_a_clean_eof() {
        let frame = encode_request(&Request::Evolve { command: "drop_attribute x".into() });
        fn severed(r: &mut impl Read, keep: usize) {
            let err = read_frame(r).expect_err(&format!("sever after {keep} bytes must error"));
            assert_eq!(err.code(), TseCode::Io, "sever after {keep} bytes: {err}");
        }
        // Sever at every interior byte boundary: mid-header and mid-body.
        for keep in 1..frame.len() {
            severed(&mut io::Cursor::new(frame[..keep].to_vec()), keep);
            severed(&mut frame_reader(io::Cursor::new(frame[..keep].to_vec())), keep);
        }
        // Severing at the frame boundary (0 bytes) is the one clean EOF.
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        assert!(read_frame(&mut frame_reader(io::Cursor::new(Vec::new()))).unwrap().is_none());
    }

    #[test]
    fn write_stalled_between_header_and_body_trips_the_deadline() {
        let frame = encode_request(&Request::Bind { family: "VS".into() });
        // The peer sends the full header, then nothing: a mid-frame stall
        // is a deadline violation for both read entry points, read straight
        // or through the connection's buffer.
        let trips = |wrap: fn(StallAfter) -> Box<dyn Read>| {
            let stalled =
                || wrap(StallAfter { data: io::Cursor::new(frame.clone()), limit: HEADER_LEN });
            let err = read_frame(&mut stalled()).unwrap_err();
            assert_eq!(err.code(), TseCode::DeadlineExceeded);
            assert!(err.message().contains("mid-frame"), "unexpected message: {}", err.message());
            let err = match read_frame_idle(&mut stalled()) {
                Err(e) => e,
                Ok(other) => panic!("mid-frame stall must error, got {other:?}"),
            };
            assert_eq!(err.code(), TseCode::DeadlineExceeded);
        };
        trips(|r| Box::new(r));
        trips(|r| Box::new(frame_reader(r)));
    }

    #[test]
    fn pre_frame_quiet_is_idle_for_the_server_and_a_deadline_for_the_client() {
        fn check(wrap: fn(StallAfter) -> Box<dyn Read>) {
            // No bytes at all: read_frame_idle reports Idle (reap-eligible,
            // not an error); read_frame treats it as a missed response.
            let quiet = || wrap(StallAfter { data: io::Cursor::new(Vec::new()), limit: 0 });
            assert!(matches!(read_frame_idle(&mut quiet()).unwrap(), FrameRead::Idle));
            assert_eq!(read_frame(&mut quiet()).unwrap_err().code(), TseCode::DeadlineExceeded);
            // One byte then quiet: now *both* entry points call it a stall.
            let frame = encode_request(&Request::Ping);
            let stall = || wrap(StallAfter { data: io::Cursor::new(frame.clone()), limit: 1 });
            assert!(read_frame_idle(&mut stall()).is_err());
            assert!(read_frame(&mut stall()).is_err());
        }
        check(|r| Box::new(r));
        check(|r| Box::new(frame_reader(r)));
    }

    #[test]
    fn a_buffered_connection_reads_a_whole_frame_with_one_read() {
        let frame = encode_request(&Request::Get {
            sid: 7,
            oid: Oid(3),
            class: "Person".into(),
            attr: "name".into(),
        });
        // Straight from the stream: the version byte, the rest of the
        // header, then the body.
        let mut raw = CountingReads { inner: io::Cursor::new(frame.clone()), reads: 0 };
        assert_eq!(read_frame(&mut raw).unwrap().as_deref(), Some(&frame[..]));
        assert_eq!(raw.reads, 3);
        // Through the connection's buffer: one.
        let mut buffered = frame_reader(CountingReads { inner: io::Cursor::new(frame), reads: 0 });
        assert!(read_frame(&mut buffered).unwrap().is_some());
        assert_eq!(buffered.get_ref().reads, 1);
    }

    #[test]
    fn frames_coalesced_into_one_read_come_back_in_order() {
        // Three frames that land in one read, then one larger than the
        // buffer, which is read past it.
        let sent = [
            Request::Ping,
            Request::Bind { family: "VS".into() },
            Request::CloseReader { sid: 7 },
        ];
        let mut pipe: Vec<u8> = Vec::new();
        for req in &sent {
            write_frame(&mut pipe, &encode_request(req)).unwrap();
        }
        let big = Request::Evolve { command: "x".repeat(3 * READ_BUFFER) };
        write_frame(&mut pipe, &encode_request(&big)).unwrap();
        let mut reader = frame_reader(CountingReads { inner: io::Cursor::new(pipe), reads: 0 });
        for req in &sent {
            let frame = read_frame(&mut reader).unwrap().expect("frame present");
            assert_eq!(&decode_request(&frame).unwrap(), req);
        }
        assert_eq!(reader.get_ref().reads, 1, "the first three frames cost one read");
        let frame = read_frame(&mut reader).unwrap().expect("frame present");
        assert_eq!(decode_request(&frame).unwrap(), big);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF, nothing lost");
    }

    #[test]
    fn every_body_is_sized_before_it_is_encoded() {
        // The size a frame's buffer is allocated at is the body's length,
        // so the encoder never regrows it (DefineClass excepted: its
        // property definitions are not measured).
        for req in sample_requests() {
            if matches!(req, Request::DefineClass { .. }) {
                continue;
            }
            let frame = encode_request(&req);
            assert_eq!(req.body_len(), frame.len() - HEADER_LEN, "body of {req:?}");
        }
        let mut responses = sample_responses();
        responses.extend([
            Response::Val(Value::Int(4)),
            Response::Val(Value::List(vec![Value::Null, Value::Str("ab".into())])),
        ]);
        for resp in responses {
            let frame = encode_response(&resp);
            assert_eq!(resp.body_len(), frame.len() - HEADER_LEN, "body of {resp:?}");
        }
    }

    #[test]
    fn error_payload_is_a_tse_error_verbatim() {
        let original = TseError::new(TseCode::Unavailable, "service degraded: disk_full")
            .with_retry_after_ms(64);
        let frame = encode_response(&Response::from_error(&original));
        match decode_response(&frame).unwrap() {
            Response::Err { code, retry_after_ms, message } => {
                let rebuilt = Response::to_error(code, retry_after_ms, &message);
                assert_eq!(rebuilt, original);
            }
            other => panic!("expected Err response, got {other:?}"),
        }
    }
}
