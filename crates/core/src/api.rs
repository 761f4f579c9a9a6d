//! The redesigned public client API: one trait, two transports.
//!
//! The paper's per-user views *are* a tenancy model: every user owns a view
//! family and keeps working against it while the shared schema evolves
//! underneath. [`TseClient`] captures exactly that contract — a client is
//! opened *as* a user, is bound to that user's view family, and hands out
//! pinned [`TseReader`]/[`TseWriter`] handles — and is implemented by both
//! the in-process [`LocalClient`] (over [`SharedSystem`]) and the remote
//! `tse_server::RemoteClient` (over the wire protocol). Examples, shells,
//! and load generators are written once against the trait and run unchanged
//! in-process or across a socket.
//!
//! Errors cross the same boundary: every trait method returns [`TseError`],
//! whose **stable numeric codes** ([`TseCode`]) are used verbatim as the
//! wire protocol's error payload — an in-process caller matching on
//! [`TseCode::Unavailable`] and a remote caller decoding the same frame see
//! the identical code. Direct [`ModelError`] returns from [`SharedSystem`]
//! entry points are superseded by this surface (they remain available for
//! engine-internal callers, but new code should speak [`TseClient`]).
//!
//! View binding semantics (the transparency contract, §2.3 of the paper):
//! a client binds to its family's **current** view version at open. Its own
//! [`TseClient::evolve`] re-binds it to the version the evolution produced;
//! other clients of the same family keep the version they bound — old
//! programs keep their old view, the evolving user transparently gets the
//! new one. Readers and writers capture the client's bound version at
//! handle-open and keep it for their lifetime (an in-flight handle never
//! changes meaning mid-use, even across an epoch swap).

use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use tse_object_model::{ModelError, Oid, PendingProp, Value};
use tse_storage::{StorageError, StoreConfig};
use tse_view::ViewId;

use crate::health::SystemHealth;
use crate::shared::{ReadSession, SharedSystem, WriteSession};
use crate::system::TseSystem;

/// Result alias for the public client API.
pub type TseResult<T> = Result<T, TseError>;

/// Stable numeric error codes shared by every transport. The `u16` values
/// are **wire format**: they are encoded verbatim into error frames and
/// must never be renumbered, only appended to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum TseCode {
    /// A named entity (class, object, property, view, family) does not
    /// exist or is not visible through the caller's view.
    NotFound = 1,
    /// The entity being created already exists (duplicate class name,
    /// clashing property).
    AlreadyExists = 2,
    /// The request is malformed or violates a model constraint (type
    /// mismatch, cycle, parse error, wrong class kind).
    InvalidArgument = 3,
    /// The operation needs state the caller has not established (no view
    /// bound to the family yet, handle used after close).
    FailedPrecondition = 4,
    /// The system is degraded to read-only and refuses writes as
    /// backpressure; retry after [`TseError::retry_after_ms`].
    Unavailable = 5,
    /// On-disk state failed a checksum; recovery or scrubbing is needed.
    Corrupt = 6,
    /// A durable-path I/O failure that is not corruption (including
    /// transient faults that exhausted their in-line handling).
    Io = 7,
    /// The WAL fail-stopped after a failed fsync; restart and recover.
    Poisoned = 8,
    /// A wire-protocol violation: bad frame, unexpected response kind,
    /// unsupported protocol version, oversized payload.
    Protocol = 9,
    /// Anything that does not fit the categories above (injected test
    /// faults, internal invariant violations).
    Internal = 10,
    /// A deadline elapsed: a per-operation timeout expired client-side,
    /// or a peer stalled mid-frame past the socket read/write budget.
    /// Unlike [`TseCode::Io`], the operation *may* have executed — the
    /// network layer retries it only when it is idempotent.
    DeadlineExceeded = 11,
}

impl TseCode {
    /// The stable wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decode a wire value; unknown codes (from a newer peer) land on
    /// [`TseCode::Internal`] rather than failing the frame.
    pub fn from_u16(v: u16) -> TseCode {
        match v {
            1 => TseCode::NotFound,
            2 => TseCode::AlreadyExists,
            3 => TseCode::InvalidArgument,
            4 => TseCode::FailedPrecondition,
            5 => TseCode::Unavailable,
            6 => TseCode::Corrupt,
            7 => TseCode::Io,
            8 => TseCode::Poisoned,
            9 => TseCode::Protocol,
            11 => TseCode::DeadlineExceeded,
            _ => TseCode::Internal,
        }
    }

    /// Stable lowercase name (telemetry fields, rendered errors).
    pub fn name(self) -> &'static str {
        match self {
            TseCode::NotFound => "not_found",
            TseCode::AlreadyExists => "already_exists",
            TseCode::InvalidArgument => "invalid_argument",
            TseCode::FailedPrecondition => "failed_precondition",
            TseCode::Unavailable => "unavailable",
            TseCode::Corrupt => "corrupt",
            TseCode::Io => "io",
            TseCode::Poisoned => "poisoned",
            TseCode::Protocol => "protocol",
            TseCode::Internal => "internal",
            TseCode::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// The unified public error: a stable code, a human-readable message, and
/// (for [`TseCode::Unavailable`]) a client backoff hint. In-process callers
/// get it from [`LocalClient`]; remote callers decode the identical triple
/// from an error frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TseError {
    code: TseCode,
    message: String,
    retry_after_ms: u64,
}

impl TseError {
    /// Build an error from parts (used by transports; in-process callers
    /// get errors via the `From` conversions).
    pub fn new(code: TseCode, message: impl Into<String>) -> TseError {
        TseError { code, message: message.into(), retry_after_ms: 0 }
    }

    /// Attach a backoff hint (milliseconds).
    pub fn with_retry_after_ms(mut self, ms: u64) -> TseError {
        self.retry_after_ms = ms;
        self
    }

    /// The stable numeric code.
    pub fn code(&self) -> TseCode {
        self.code
    }

    /// Human-readable context. Not stable; match on [`TseError::code`].
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Suggested client backoff before retrying, milliseconds (0 = no
    /// hint). Nonzero only for [`TseCode::Unavailable`].
    pub fn retry_after_ms(&self) -> u64 {
        self.retry_after_ms
    }

    /// Shorthand for a [`TseCode::Protocol`] violation.
    pub fn protocol(message: impl Into<String>) -> TseError {
        TseError::new(TseCode::Protocol, message)
    }
}

impl std::fmt::Display for TseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} {}] {}", self.code.as_u16(), self.code.name(), self.message)?;
        if self.retry_after_ms > 0 {
            write!(f, " (retry after {}ms)", self.retry_after_ms)?;
        }
        Ok(())
    }
}

impl std::error::Error for TseError {}

impl From<StorageError> for TseError {
    fn from(e: StorageError) -> TseError {
        let code = match &e {
            StorageError::UnknownSegment(_) | StorageError::UnknownRecord { .. } => {
                TseCode::NotFound
            }
            StorageError::Corrupt(_) => TseCode::Corrupt,
            StorageError::Io(_) | StorageError::Transient(_) | StorageError::DiskFull(_) => {
                TseCode::Io
            }
            StorageError::Poisoned(_) => TseCode::Poisoned,
            StorageError::FieldOutOfBounds { .. }
            | StorageError::Injected(_)
            | StorageError::SimulatedCrash(_) => TseCode::Internal,
        };
        TseError::new(code, e.to_string())
    }
}

impl From<ModelError> for TseError {
    fn from(e: ModelError) -> TseError {
        match e {
            ModelError::UnknownClass(_)
            | ModelError::UnknownClassName(_)
            | ModelError::UnknownEdge { .. }
            | ModelError::UnknownProperty { .. }
            | ModelError::UnknownObject(_)
            | ModelError::NotAMember { .. } => TseError::new(TseCode::NotFound, e.to_string()),
            ModelError::DuplicateClassName(_) | ModelError::PropertyExists { .. } => {
                TseError::new(TseCode::AlreadyExists, e.to_string())
            }
            ModelError::CycleDetected { .. }
            | ModelError::TypeMismatch { .. }
            | ModelError::AmbiguousProperty { .. }
            | ModelError::NotStored(_)
            | ModelError::NotABaseClass(_)
            | ModelError::NotAVirtualClass(_)
            | ModelError::MethodEval(_)
            | ModelError::Invalid(_) => TseError::new(TseCode::InvalidArgument, e.to_string()),
            ModelError::Unavailable { ref reason, retry_after_ms } => {
                TseError::new(TseCode::Unavailable, format!("service degraded: {reason}"))
                    .with_retry_after_ms(retry_after_ms.max(1))
            }
            ModelError::Storage(se) => se.into(),
        }
    }
}

/// Service health as seen through the client API (transport-neutral
/// mirror of [`SystemHealth`], with the backoff hint resolved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthStatus {
    /// Normal operation.
    Healthy,
    /// Read-only; writes get [`TseCode::Unavailable`] backpressure.
    Degraded {
        /// Root cause name (`disk_full`, `retries_exhausted`).
        reason: String,
        /// Suggested write backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Fail-stop; restart and recover from disk.
    Poisoned,
}

impl HealthStatus {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded { .. } => "degraded",
            HealthStatus::Poisoned => "poisoned",
        }
    }

    pub(crate) fn from_system(health: SystemHealth, retry_after_ms: u64) -> HealthStatus {
        match health {
            SystemHealth::Healthy => HealthStatus::Healthy,
            SystemHealth::Degraded { reason } => HealthStatus::Degraded {
                reason: reason.name().to_string(),
                retry_after_ms: retry_after_ms.max(1),
            },
            SystemHealth::Poisoned => HealthStatus::Poisoned,
        }
    }
}

/// What a successful [`TseClient::evolve`] reports back: the family's new
/// version number plus the measures the paper's experiments track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveSummary {
    /// The family's new view version (1-based).
    pub version: u32,
    /// View classes replaced by primed counterparts.
    pub classes_touched: u64,
    /// Newly derived classes folded onto existing duplicates.
    pub duplicates_folded: u64,
    /// The generated view specification script.
    pub script: String,
}

/// A pinned read handle: every read resolves names against the view
/// version the owning client was bound to when the handle was opened, and
/// record/membership reads are repeatable (MVCC-pinned) for the handle's
/// lifetime — including across evolution swap-ins.
pub trait TseReader {
    /// The view version this handle resolves names against.
    fn view_version(&self) -> u32;
    /// Read an attribute of `oid` through the bound view.
    fn get(&self, oid: Oid, class: &str, attr: &str) -> TseResult<Value>;
    /// The extent of a view class.
    fn extent(&self, class: &str) -> TseResult<Vec<Oid>>;
    /// `select from <class> where <expr>`.
    fn select_where(&self, class: &str, expr: &str) -> TseResult<Vec<Oid>>;
    /// Invoke a property with dynamic dispatch.
    fn invoke(&self, oid: Oid, class: &str, name: &str) -> TseResult<Value>;
    /// Re-pin to the newest data epoch. The bound view version does not
    /// change — only record visibility advances.
    fn refresh(&mut self) -> TseResult<()>;
}

/// A write handle bound the same way as [`TseReader`]. Writes are
/// acknowledged only once durable (on durable systems) and surface
/// [`TseCode::Unavailable`] backpressure while the system is degraded.
pub trait TseWriter {
    /// Create an object through the bound view.
    fn create(&self, class: &str, values: &[(&str, Value)]) -> TseResult<Oid>;
    /// Set attributes of one object.
    fn set(&self, oid: Oid, class: &str, assignments: &[(&str, Value)]) -> TseResult<()>;
    /// Query-then-update as one operation; returns how many objects matched.
    fn update_where(
        &self,
        class: &str,
        expr: &str,
        assignments: &[(&str, Value)],
    ) -> TseResult<usize>;
    /// Add existing objects to a view class.
    fn add_to(&self, oids: &[Oid], class: &str) -> TseResult<()>;
    /// Remove objects from a view class.
    fn remove_from(&self, oids: &[Oid], class: &str) -> TseResult<()>;
    /// Destroy objects.
    fn delete_objects(&self, oids: &[Oid]) -> TseResult<()>;
    /// Re-pin to the newest metadata epoch (bound view unchanged).
    fn refresh(&mut self) -> TseResult<()>;
}

/// One user's handle onto a TSE system, local or remote. See the module
/// docs for the identity/binding model.
pub trait TseClient {
    /// Pinned read handle type.
    type Reader: TseReader;
    /// Pinned write handle type.
    type Writer: TseWriter;
    /// What [`TseClient::open`] connects to: a [`SharedSystem`] handle
    /// in-process, a `host:port` address over the wire.
    type Target;

    /// Open a client as `user`, binding it to the user's view family (the
    /// family named after the user; re-bindable via [`TseClient::bind`]).
    fn open(target: Self::Target, user: &str) -> TseResult<Self>
    where
        Self: Sized;

    /// The authenticated user identity.
    fn user(&self) -> &str;

    /// The view family this client is currently bound to.
    fn family(&self) -> String;

    /// Re-bind to another view family (current version). Returns the bound
    /// version, or 0 when the family has no view yet (create one with
    /// [`TseClient::create_view`]).
    fn bind(&mut self, family: &str) -> TseResult<u32>;

    /// Open a pinned read handle at the client's bound view version.
    fn session(&self) -> TseResult<Self::Reader>;

    /// Open a pinned write handle at the client's bound view version.
    fn writer(&self) -> TseResult<Self::Writer>;

    /// Define a base class in the shared global schema.
    fn define_class(&self, name: &str, supers: &[&str], props: Vec<PendingProp>)
        -> TseResult<()>;

    /// Create version 1 of the bound family's view over the named global
    /// classes, and bind this client to it. Returns the version (1).
    fn create_view(&self, classes: &[&str]) -> TseResult<u32>;

    /// Apply a textual schema-change command to the bound family and
    /// re-bind this client to the produced version. Other clients bound to
    /// the same family keep their version — that is the transparency
    /// contract.
    fn evolve(&self, command: &str) -> TseResult<EvolveSummary>;

    /// Render the bound view (classes, local names).
    fn describe(&self) -> TseResult<String>;

    /// How many versions the bound family has.
    fn versions(&self) -> TseResult<u32>;

    /// Current service health.
    fn health(&self) -> TseResult<HealthStatus>;
}

// ---------------------------------------------------------------------------
// In-process implementation over SharedSystem
// ---------------------------------------------------------------------------

/// The in-process [`TseClient`]: a [`SharedSystem`] handle plus a user
/// identity and a bound view version. Cheap to open (no I/O); open one per
/// user, clone the underlying [`SharedSystem`] freely.
pub struct LocalClient {
    sys: SharedSystem,
    user: String,
    family: Mutex<String>,
    bound: Mutex<Option<ViewId>>,
}

impl LocalClient {
    /// The underlying shared system (engine-internal escape hatch; the
    /// trait surface covers normal use).
    pub fn system(&self) -> &SharedSystem {
        &self.sys
    }

    /// The view version this client is bound to, or `None` before the
    /// family's first [`TseClient::create_view`].
    pub fn bound_version(&self) -> Option<u32> {
        let id = (*self.bound.lock())?;
        self.version_number(id).ok()
    }

    fn bound_view(&self) -> TseResult<ViewId> {
        self.bound.lock().ok_or_else(|| {
            TseError::new(
                TseCode::FailedPrecondition,
                format!("no view bound for family {:?}; create_view first", self.family()),
            )
        })
    }

    fn latest_version_of(sys: &SharedSystem, family: &str) -> Option<ViewId> {
        let session = sys.session();
        session.meta().views().versions(family).ok().and_then(|v| v.last().copied())
    }

    fn version_number(&self, id: ViewId) -> TseResult<u32> {
        let session = self.sys.session();
        Ok(session.meta().view(id)?.version)
    }
}

impl TseClient for LocalClient {
    type Reader = LocalReader;
    type Writer = LocalWriter;
    type Target = SharedSystem;

    fn open(target: SharedSystem, user: &str) -> TseResult<LocalClient> {
        let bound = Self::latest_version_of(&target, user);
        Ok(LocalClient {
            sys: target,
            user: user.to_string(),
            family: Mutex::new(user.to_string()),
            bound: Mutex::new(bound),
        })
    }

    fn user(&self) -> &str {
        &self.user
    }

    fn family(&self) -> String {
        self.family.lock().clone()
    }

    fn bind(&mut self, family: &str) -> TseResult<u32> {
        let bound = Self::latest_version_of(&self.sys, family);
        *self.family.lock() = family.to_string();
        *self.bound.lock() = bound;
        match bound {
            Some(id) => self.version_number(id),
            None => Ok(0),
        }
    }

    fn session(&self) -> TseResult<LocalReader> {
        let view = self.bound_view()?;
        let session = self.sys.session();
        let version = session.meta().view(view)?.version;
        Ok(LocalReader { session, view, version })
    }

    fn writer(&self) -> TseResult<LocalWriter> {
        let view = self.bound_view()?;
        Ok(LocalWriter { writer: self.sys.writer(), view })
    }

    fn define_class(
        &self,
        name: &str,
        supers: &[&str],
        props: Vec<PendingProp>,
    ) -> TseResult<()> {
        self.sys.define_base_class(name, supers, props)?;
        Ok(())
    }

    fn create_view(&self, classes: &[&str]) -> TseResult<u32> {
        let family = self.family();
        let id = self.sys.create_view(&family, classes)?;
        *self.bound.lock() = Some(id);
        self.version_number(id)
    }

    fn evolve(&self, command: &str) -> TseResult<EvolveSummary> {
        let family = self.family();
        let report = self.sys.evolve_cmd(&family, command)?;
        *self.bound.lock() = Some(report.view);
        Ok(EvolveSummary {
            version: self.version_number(report.view)?,
            classes_touched: report.classes_touched as u64,
            duplicates_folded: report.duplicates_folded as u64,
            script: report.script,
        })
    }

    fn describe(&self) -> TseResult<String> {
        let view = self.bound_view()?;
        Ok(self.sys.describe_view(view)?)
    }

    fn versions(&self) -> TseResult<u32> {
        let family = self.family();
        let session = self.sys.session();
        Ok(session.meta().views().versions(&family).map(|v| v.len() as u32).unwrap_or(0))
    }

    fn health(&self) -> TseResult<HealthStatus> {
        Ok(HealthStatus::from_system(self.sys.health(), self.sys.backoff_hint_ms()))
    }
}

/// In-process [`TseReader`]: a [`ReadSession`] plus the bound view.
pub struct LocalReader {
    session: ReadSession,
    view: ViewId,
    version: u32,
}

impl TseReader for LocalReader {
    fn view_version(&self) -> u32 {
        self.version
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

/// In-process [`TseWriter`]: a [`WriteSession`] plus the bound view.
pub struct LocalWriter {
    writer: WriteSession,
    view: ViewId,
}

impl TseWriter for LocalWriter {
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

// ---------------------------------------------------------------------------
// Builder-style open
// ---------------------------------------------------------------------------

/// Opens a durable system on a directory:
///
/// ```
/// use tse_core::TseSystem;
/// let dir = std::env::temp_dir().join(format!("tse_builder_doc_{}", std::process::id()));
/// let sys = TseSystem::builder(&dir).open().unwrap();
/// assert_eq!(sys.epoch(), 1);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
///
/// [`SystemBuilder::store_config`] replaces the default [`StoreConfig`];
/// the persisted layout parameters of an existing directory win over it.
/// In-memory systems come from [`SharedSystem::new`] and
/// [`SharedSystem::from_system`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    dir: PathBuf,
    config: StoreConfig,
}

impl SystemBuilder {
    /// The runtime store knobs (stripe count, auto-checkpoint threshold,
    /// retry policy) and the layout parameters of a fresh directory.
    pub fn store_config(mut self, config: StoreConfig) -> SystemBuilder {
        self.config = config;
        self
    }

    /// Open the system: recover the directory, or start it if it is empty
    /// ([`SharedSystem::open`] with this builder's [`StoreConfig`]).
    pub fn open(self) -> TseResult<SharedSystem> {
        Ok(SharedSystem::open_impl(&self.dir, self.config)?)
    }
}

impl SharedSystem {
    /// Open an in-process client for `user` on this system (binding it to
    /// the user's view family). The trait-level entry point is
    /// [`TseClient::open`]; this is the ergonomic spelling.
    pub fn client(&self, user: &str) -> LocalClient {
        LocalClient::open(self.clone(), user).expect("local open is infallible")
    }
}

impl TseSystem {
    /// Start opening a durable system rooted at `dir`. `open()` returns the
    /// concurrent [`SharedSystem`].
    pub fn builder(dir: &Path) -> SystemBuilder {
        SystemBuilder { dir: dir.to_path_buf(), config: StoreConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::{PropertyDef, ValueType};

    fn seeded() -> SharedSystem {
        let sys = SharedSystem::new();
        sys.define_base_class(
            "Person",
            &[],
            vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
        )
        .unwrap();
        sys
    }

    #[test]
    fn error_codes_are_stable_and_round_trip() {
        for code in [
            TseCode::NotFound,
            TseCode::AlreadyExists,
            TseCode::InvalidArgument,
            TseCode::FailedPrecondition,
            TseCode::Unavailable,
            TseCode::Corrupt,
            TseCode::Io,
            TseCode::Poisoned,
            TseCode::Protocol,
            TseCode::Internal,
            TseCode::DeadlineExceeded,
        ] {
            assert_eq!(TseCode::from_u16(code.as_u16()), code);
        }
        // Renumbering breaks the wire format; pin the assignments.
        assert_eq!(TseCode::NotFound.as_u16(), 1);
        assert_eq!(TseCode::Unavailable.as_u16(), 5);
        assert_eq!(TseCode::Protocol.as_u16(), 9);
        assert_eq!(TseCode::DeadlineExceeded.as_u16(), 11);
        // A v-next peer's unknown code degrades, not fails.
        assert_eq!(TseCode::from_u16(999), TseCode::Internal);
    }

    #[test]
    fn model_errors_map_to_codes() {
        let e: TseError = ModelError::UnknownClassName("X".into()).into();
        assert_eq!(e.code(), TseCode::NotFound);
        let e: TseError = ModelError::DuplicateClassName("X".into()).into();
        assert_eq!(e.code(), TseCode::AlreadyExists);
        let e: TseError =
            ModelError::Unavailable { reason: "disk_full".into(), retry_after_ms: 7 }.into();
        assert_eq!(e.code(), TseCode::Unavailable);
        assert_eq!(e.retry_after_ms(), 7);
        let e: TseError = ModelError::Storage(StorageError::Corrupt("x".into())).into();
        assert_eq!(e.code(), TseCode::Corrupt);
        let e: TseError = ModelError::Storage(StorageError::Poisoned("x".into())).into();
        assert_eq!(e.code(), TseCode::Poisoned);
    }

    #[test]
    fn local_client_binds_evolves_and_isolates_versions() {
        let sys = seeded();
        let client = sys.client("alice");
        assert_eq!(client.versions().unwrap(), 0);
        let err = client.session().err().expect("unbound family cannot open a reader");
        assert_eq!(err.code(), TseCode::FailedPrecondition);
        assert_eq!(client.create_view(&["Person"]).unwrap(), 1);

        let w = client.writer().unwrap();
        let ann = w.create("Person", &[("name", "ann".into())]).unwrap();

        // A second client of the same family stays on its bound version
        // while the first evolves.
        let mut legacy = sys.client("bob");
        legacy.bind("alice").unwrap();
        let summary = client.evolve("add_attribute age: int = 30 to Person").unwrap();
        assert_eq!(summary.version, 2);
        assert_eq!(client.versions().unwrap(), 2);

        let modern = client.session().unwrap();
        assert_eq!(modern.view_version(), 2);
        assert_eq!(modern.get(ann, "Person", "age").unwrap(), Value::Int(30));

        let old = legacy.session().unwrap();
        assert_eq!(old.view_version(), 1);
        assert_eq!(old.get(ann, "Person", "name").unwrap(), Value::Str("ann".into()));
        let err = old.get(ann, "Person", "age").unwrap_err();
        assert_eq!(err.code(), TseCode::NotFound);
    }

    #[test]
    fn builder_opens_a_directory_with_its_store_config() {
        let dir =
            std::env::temp_dir().join(format!("tse_api_builder_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig { write_stripes: 3, ..StoreConfig::default() };
        let durable = TseSystem::builder(&dir).store_config(config).open().unwrap();
        assert_eq!(durable.store_stripes(), 3);
        durable
            .define_base_class(
                "Doc",
                &[],
                vec![PropertyDef::stored("title", ValueType::Str, Value::Null)],
            )
            .unwrap();
        assert!(durable.wal_len().unwrap() > 0);
        drop(durable);
        let reopened = TseSystem::builder(&dir).open().unwrap();
        let client = reopened.client("u");
        client.create_view(&["Doc"]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_refresh_advances_data_but_not_view() {
        let sys = seeded();
        let client = sys.client("carol");
        client.create_view(&["Person"]).unwrap();
        let w = client.writer().unwrap();
        w.create("Person", &[("name", "a".into())]).unwrap();

        let mut reader = client.session().unwrap();
        assert_eq!(reader.extent("Person").unwrap().len(), 1);
        w.create("Person", &[("name", "b".into())]).unwrap();
        // Pinned: the new object is invisible until refresh.
        assert_eq!(reader.extent("Person").unwrap().len(), 1);
        reader.refresh().unwrap();
        assert_eq!(reader.extent("Person").unwrap().len(), 2);
        assert_eq!(reader.view_version(), 1);
    }
}
