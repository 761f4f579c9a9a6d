//! [`RemoteClient`]: the wire-protocol implementation of [`TseClient`],
//! with transparent network fault tolerance.
//!
//! One TCP connection per client; requests serialize through a mutex
//! (write frame, read matching response), so a client plus its readers and
//! writers can be shared across threads the same way a
//! [`tse_core::LocalClient`] can. Error frames decode back into
//! [`TseError`] verbatim — the numeric code a remote caller matches on is
//! the one the server's in-process call produced.
//!
//! **Reconnect-with-rebind**: on connection loss (or a server `Retry`
//! frame), the client backs off per its [`RetryPolicy`] — honoring the
//! server's `retry_after_ms` hint — redials, re-sends `Hello { user }`,
//! re-binds the view family, and lazily re-opens reader/writer handles
//! before their next request. A re-opened reader is pinned to the family's
//! *current* view version and data epoch, exactly as if
//! [`TseReader::refresh`] had run — drains and failovers surface as the
//! documented refresh semantics, never as torn reads.
//!
//! **Idempotent retries**: reads retry freely. Data writes are stamped
//! with a client-minted idempotency id (`session nonce << 32 | counter`,
//! stable across retries of one logical write), and the server's per-user
//! dedup window turns a retried acked write into a cache hit — it applies
//! exactly once. Schema DDL (`define_class`, `create_view`, `evolve`) and
//! `Shutdown` are **not** retried once the request may have reached the
//! server: re-executing them is observable (an extra view version).
//!
//! **Deadlines**: every operation gets a wall-clock budget across all its
//! attempts ([`ClientConfig::op_timeout_ms`]), and the socket carries
//! read/write timeouts so a stalled server surfaces as
//! [`TseCode::DeadlineExceeded`] instead of blocking forever.

use std::cell::Cell;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tse_core::{
    EvolveSummary, HealthStatus, TseClient, TseCode, TseError, TseReader, TseResult, TseWriter,
};
use tse_object_model::{Oid, PendingProp, Value};
use tse_storage::RetryPolicy;
use tse_telemetry::Telemetry;

use crate::proto::{
    decode_response_owned, encode_request, frame_reader, read_frame, write_frame, Request, Response,
};

/// Client-side fault-tolerance knobs.
#[derive(Clone)]
pub struct ClientConfig {
    /// Retry budget and backoff curve shared by reconnects, server
    /// `Retry` frames, and idempotent-op retries. [`RetryPolicy::none`]
    /// restores fail-fast behaviour (one attempt, no redial).
    pub retry: RetryPolicy,
    /// Wall-clock budget for one operation across all of its attempts,
    /// milliseconds (0 = unbounded).
    pub op_timeout_ms: u64,
    /// Socket read timeout, milliseconds (0 = none). A response that
    /// takes longer surfaces as [`TseCode::DeadlineExceeded`].
    pub read_timeout_ms: u64,
    /// Socket write timeout, milliseconds (0 = none).
    pub write_timeout_ms: u64,
    /// TCP dial timeout, milliseconds (0 = the OS default).
    pub connect_timeout_ms: u64,
    /// Telemetry domain for `client.{reconnects,retries,dedup_hits}`;
    /// `None` drops the counters.
    pub telemetry: Option<Telemetry>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            retry: RetryPolicy::default(),
            op_timeout_ms: 30_000,
            read_timeout_ms: 10_000,
            write_timeout_ms: 5_000,
            connect_timeout_ms: 5_000,
            telemetry: None,
        }
    }
}

/// How a failed attempt of an operation may be retried.
#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    /// Free to retry after any failure — re-execution is invisible.
    Read,
    /// Data write carrying an idempotency id: safe to retry, the server's
    /// dedup window makes re-application a cache hit.
    IdemWrite,
    /// Schema DDL / shutdown: once the request may have reached the
    /// server, a transport failure is terminal — re-execution would be
    /// observable (an extra view version, a second drain).
    Once,
}

/// A live connection: the socket, read through one buffer and written
/// through `get_ref()`.
struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    /// One raw request/response exchange. `Retry` and `Err` frames come
    /// back as `Ok(Response::...)` — classification is the retry loop's
    /// job, not the transport's.
    fn exchange(&mut self, req: &Request) -> TseResult<Response> {
        write_frame(&mut self.stream.get_ref(), &encode_request(req))?;
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            TseError::new(TseCode::Io, "server closed the connection mid-request")
        })?;
        decode_response_owned(frame)
    }
}

/// Collapse `Retry`/`Err` frames into the [`TseError`] they carry; every
/// other response passes through. A `Retry`-derived error is recognizable
/// downstream as `Unavailable` with a non-zero hint — the server's promise
/// that the request was **not** executed.
fn typed(resp: Response) -> TseResult<Response> {
    match resp {
        Response::Err { code, retry_after_ms, message } => {
            Err(Response::to_error(code, retry_after_ms, &message))
        }
        Response::Retry { retry_after_ms } => Err(TseError::new(
            TseCode::Unavailable,
            "server backpressure: retry later",
        )
        .with_retry_after_ms(retry_after_ms)),
        other => Ok(other),
    }
}

/// True for errors born from a `Retry` frame: the server refused without
/// executing, so the attempt is retryable regardless of idempotency.
fn is_backpressure(e: &TseError) -> bool {
    e.code() == TseCode::Unavailable && e.retry_after_ms() > 0
}

fn unexpected(what: &str, got: &Response) -> TseError {
    TseError::protocol(format!("expected {what} response, got {got:?}"))
}

/// Mutable connection state, all guarded by one mutex: the live socket
/// (if any), the generation stamp handles compare against, the session
/// nonce, and the family to re-bind after a reconnect.
struct ConnInner {
    conn: Option<Conn>,
    /// Bumped on every successful (re)connect. A handle slot stamped with
    /// an older generation re-opens itself before its next request.
    generation: u64,
    /// Server-minted session nonce from the latest `Welcome`.
    nonce: u64,
    /// Idempotency counter within the current nonce.
    next_op: u64,
    /// The family this client is bound to (re-bound on reconnect).
    family: String,
}

impl ConnInner {
    /// Mint an idempotency id: unique across this user's concurrent and
    /// successive connections because the nonce prefix is server-unique.
    /// Never zero (nonces start at 1), so it always engages the dedup
    /// window.
    fn mint_idem(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        (self.nonce << 32) | (op & 0xFFFF_FFFF)
    }
}

/// The shared heart of a [`RemoteClient`] and its handles: target, user,
/// config, and the guarded connection state, plus the reconnect/retry
/// machinery every operation funnels through.
struct ConnCore {
    target: String,
    user: String,
    config: ClientConfig,
    inner: Mutex<ConnInner>,
}

impl ConnCore {
    fn note(&self, name: &str) {
        if let Some(t) = &self.config.telemetry {
            t.incr(name, 1);
        }
    }

    fn dial(&self) -> TseResult<Conn> {
        let io = |e: std::io::Error| {
            TseError::new(TseCode::Io, format!("connect {} failed: {e}", self.target))
        };
        let stream = if self.config.connect_timeout_ms > 0 {
            let timeout = Duration::from_millis(self.config.connect_timeout_ms);
            let mut last: Option<TseError> = None;
            let mut stream = None;
            for addr in self.target.to_socket_addrs().map_err(io)? {
                match TcpStream::connect_timeout(&addr, timeout) {
                    Ok(s) => {
                        stream = Some(s);
                        break;
                    }
                    Err(e) => last = Some(io(e)),
                }
            }
            stream.ok_or_else(|| {
                last.unwrap_or_else(|| {
                    TseError::new(
                        TseCode::Io,
                        format!("connect {} failed: no addresses resolved", self.target),
                    )
                })
            })?
        } else {
            TcpStream::connect(&self.target).map_err(io)?
        };
        let _ = stream.set_nodelay(true);
        if self.config.read_timeout_ms > 0 {
            let _ = stream
                .set_read_timeout(Some(Duration::from_millis(self.config.read_timeout_ms)));
        }
        if self.config.write_timeout_ms > 0 {
            let _ = stream
                .set_write_timeout(Some(Duration::from_millis(self.config.write_timeout_ms)));
        }
        Ok(Conn { stream: frame_reader(stream) })
    }

    /// Dial + `Hello` + re-bind if the connection is down. On success the
    /// generation advances, which invalidates every handle slot minted on
    /// the previous connection (they re-open lazily).
    fn ensure_connected(&self, inner: &mut ConnInner) -> TseResult<()> {
        if inner.conn.is_some() {
            return Ok(());
        }
        let reconnect = inner.generation > 0;
        let mut conn = self.dial()?;
        match typed(conn.exchange(&Request::Hello { user: self.user.clone() })?)? {
            Response::Welcome { nonce, .. } => inner.nonce = nonce,
            other => return Err(unexpected("Welcome", &other)),
        }
        if inner.family != self.user {
            match typed(conn.exchange(&Request::Bind { family: inner.family.clone() })?)? {
                Response::Bound { .. } => {}
                other => return Err(unexpected("Bound", &other)),
            }
        }
        inner.conn = Some(conn);
        inner.generation += 1;
        if reconnect {
            self.note("client.reconnects");
        }
        Ok(())
    }

    /// Re-open a read handle whose slot predates the current connection
    /// generation. The re-opened handle is pinned to the family's current
    /// view version and data epoch — the documented `refresh()` semantics.
    fn ensure_reader(
        &self,
        inner: &mut ConnInner,
        slot: &Mutex<(u64, u64)>,
        version: &AtomicU32,
    ) -> TseResult<u64> {
        let mut s = slot.lock();
        if s.1 == inner.generation {
            return Ok(s.0);
        }
        let conn = inner.conn.as_mut().expect("connected before handle use");
        match typed(conn.exchange(&Request::OpenReader)?)? {
            Response::ReaderOpened { sid, version: v } => {
                *s = (sid, inner.generation);
                version.store(v, Ordering::SeqCst);
                Ok(sid)
            }
            other => Err(unexpected("ReaderOpened", &other)),
        }
    }

    /// Re-open a write handle whose slot predates the current connection
    /// generation.
    fn ensure_writer(&self, inner: &mut ConnInner, slot: &Mutex<(u64, u64)>) -> TseResult<u64> {
        let mut s = slot.lock();
        if s.1 == inner.generation {
            return Ok(s.0);
        }
        let conn = inner.conn.as_mut().expect("connected before handle use");
        match typed(conn.exchange(&Request::OpenWriter)?)? {
            Response::WriterOpened { wid } => {
                *s = (wid, inner.generation);
                Ok(wid)
            }
            other => Err(unexpected("WriterOpened", &other)),
        }
    }

    /// The reconnect/retry loop every operation funnels through.
    ///
    /// Each attempt: (re)connect, rebuild the request (`build` re-opens
    /// handles and keeps idempotency ids stable), exchange, classify.
    /// Failures before the request is sent are always retryable; `Retry`
    /// frames are retryable because the server did not execute; transport
    /// failures mid-exchange retry only if `kind` permits re-execution.
    /// Backoff is the larger of the policy curve and the server's hint,
    /// bounded by both the retry budget and the op deadline. `on_success`
    /// runs under the connection lock so callers can stamp handle slots
    /// against the exact generation that served the response.
    fn call_with(
        &self,
        kind: OpKind,
        build: &mut dyn FnMut(&ConnCore, &mut ConnInner) -> TseResult<Request>,
        on_success: &mut dyn FnMut(&mut ConnInner, &Response),
    ) -> TseResult<Response> {
        let deadline = (self.config.op_timeout_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(self.config.op_timeout_ms));
        let mut attempt: u32 = 0;
        loop {
            let mut inner = self.inner.lock();
            let prep = self.ensure_connected(&mut inner).and_then(|()| build(self, &mut inner));
            let (err, sent) = match prep {
                Ok(req) => {
                    let conn = inner.conn.as_mut().expect("connected");
                    match conn.exchange(&req) {
                        Ok(resp) => match typed(resp) {
                            Ok(resp) => {
                                on_success(&mut inner, &resp);
                                drop(inner);
                                if attempt > 0 && kind == OpKind::IdemWrite {
                                    // The ack may have come from the
                                    // server's dedup window; the counter
                                    // tracks retried-then-acked writes.
                                    self.note("client.dedup_hits");
                                }
                                return Ok(resp);
                            }
                            // Backpressure: refused, not executed.
                            Err(e) if is_backpressure(&e) => (e, false),
                            // Typed failure: deterministic, terminal.
                            Err(e) => return Err(e),
                        },
                        Err(e) => {
                            // Transport failure mid-exchange: the stream
                            // position (and whether the server executed
                            // the request) is unknown — drop the socket.
                            inner.conn = None;
                            (e, true)
                        }
                    }
                }
                Err(e) => {
                    // Connection/handle establishment failed; nothing
                    // user-visible was sent. A transport error here also
                    // invalidates the socket.
                    if matches!(
                        e.code(),
                        TseCode::Io | TseCode::DeadlineExceeded | TseCode::Protocol
                    ) {
                        inner.conn = None;
                    }
                    (e, false)
                }
            };
            drop(inner);
            if err.code() == TseCode::Protocol {
                return Err(err); // framing desync is never retryable
            }
            if sent && kind == OpKind::Once {
                return Err(err);
            }
            if attempt >= self.config.retry.max_retries {
                return Err(err);
            }
            let hint_ns = err.retry_after_ms().saturating_mul(1_000_000);
            let backoff =
                Duration::from_nanos(self.config.retry.backoff_ns(attempt).max(hint_ns));
            if let Some(deadline) = deadline {
                if Instant::now() + backoff >= deadline {
                    return Err(TseError::new(
                        TseCode::DeadlineExceeded,
                        format!(
                            "op deadline exhausted after {} attempt(s); last error: {err}",
                            attempt + 1
                        ),
                    ));
                }
            }
            std::thread::sleep(backoff);
            attempt += 1;
            self.note("client.retries");
        }
    }

    fn call(
        &self,
        kind: OpKind,
        build: &mut dyn FnMut(&ConnCore, &mut ConnInner) -> TseResult<Request>,
    ) -> TseResult<Response> {
        self.call_with(kind, build, &mut |_, _| {})
    }

    /// Fixed-request op (no handles, no idempotency id).
    fn rpc(&self, kind: OpKind, req: Request) -> TseResult<Response> {
        self.call(kind, &mut |_, _| Ok(req.clone()))
    }
}

/// A [`TseClient`] over the TSE wire protocol, with transparent
/// reconnect-with-rebind, idempotent retries, and per-op deadlines (see
/// the module docs). `Target` is the server address (`"host:port"`).
pub struct RemoteClient {
    core: Arc<ConnCore>,
    user: String,
}

impl RemoteClient {
    /// Connect with explicit [`ClientConfig`] knobs (the [`TseClient::open`]
    /// trait constructor uses the defaults).
    pub fn open_with(target: String, user: &str, config: ClientConfig) -> TseResult<RemoteClient> {
        let core = Arc::new(ConnCore {
            target,
            user: user.to_string(),
            config,
            inner: Mutex::new(ConnInner {
                conn: None,
                generation: 0,
                nonce: 0,
                next_op: 1,
                family: user.to_string(),
            }),
        });
        // Establish (and verify) the connection through the same retry
        // loop every other op uses: admission `Retry` frames honor the
        // server's hint instead of surfacing as instant failures.
        match core.rpc(OpKind::Read, Request::Ping)? {
            Response::Pong => {}
            other => return Err(unexpected("Pong", &other)),
        }
        Ok(RemoteClient { user: user.to_string(), core })
    }

    /// Liveness probe.
    pub fn ping(&self) -> TseResult<()> {
        match self.core.rpc(OpKind::Read, Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Ask the server to drain and exit (in-flight requests on all
    /// connections finish first). The connection is closed afterwards.
    pub fn shutdown_server(&self) -> TseResult<()> {
        match self.core.rpc(OpKind::Once, Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }
}

impl TseClient for RemoteClient {
    type Reader = RemoteReader;
    type Writer = RemoteWriter;
    type Target = String;

    fn open(target: String, user: &str) -> TseResult<RemoteClient> {
        RemoteClient::open_with(target, user, ClientConfig::default())
    }

    fn user(&self) -> &str {
        &self.user
    }

    fn family(&self) -> String {
        self.core.inner.lock().family.clone()
    }

    fn bind(&mut self, family: &str) -> TseResult<u32> {
        let req = Request::Bind { family: family.to_string() };
        match self.core.call_with(
            OpKind::Read,
            &mut |_, _| Ok(req.clone()),
            // Record the family under the lock so a reconnect racing this
            // op re-binds to what the server last acknowledged.
            &mut |inner, resp| {
                if matches!(resp, Response::Bound { .. }) {
                    inner.family = family.to_string();
                }
            },
        )? {
            Response::Bound { version } => Ok(version),
            other => Err(unexpected("Bound", &other)),
        }
    }

    fn session(&self) -> TseResult<RemoteReader> {
        let mut opened = (0u64, 0u64, 0u32);
        match self.core.call_with(
            OpKind::Read,
            &mut |_, _| Ok(Request::OpenReader),
            &mut |inner, resp| {
                if let Response::ReaderOpened { sid, version } = resp {
                    opened = (*sid, inner.generation, *version);
                }
            },
        )? {
            Response::ReaderOpened { .. } => Ok(RemoteReader {
                core: Arc::clone(&self.core),
                slot: Mutex::new((opened.0, opened.1)),
                version: AtomicU32::new(opened.2),
            }),
            other => Err(unexpected("ReaderOpened", &other)),
        }
    }

    fn writer(&self) -> TseResult<RemoteWriter> {
        let mut opened = (0u64, 0u64);
        match self.core.call_with(
            OpKind::Read,
            &mut |_, _| Ok(Request::OpenWriter),
            &mut |inner, resp| {
                if let Response::WriterOpened { wid } = resp {
                    opened = (*wid, inner.generation);
                }
            },
        )? {
            Response::WriterOpened { .. } => Ok(RemoteWriter {
                core: Arc::clone(&self.core),
                slot: Mutex::new((opened.0, opened.1)),
            }),
            other => Err(unexpected("WriterOpened", &other)),
        }
    }

    fn define_class(
        &self,
        name: &str,
        supers: &[&str],
        props: Vec<PendingProp>,
    ) -> TseResult<()> {
        let req = Request::DefineClass {
            name: name.to_string(),
            supers: supers.iter().map(|s| s.to_string()).collect(),
            props,
        };
        match self.core.rpc(OpKind::Once, req)? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", &other)),
        }
    }

    fn create_view(&self, classes: &[&str]) -> TseResult<u32> {
        let req =
            Request::CreateView { classes: classes.iter().map(|s| s.to_string()).collect() };
        match self.core.rpc(OpKind::Once, req)? {
            Response::ViewVersion(version) => Ok(version),
            other => Err(unexpected("ViewVersion", &other)),
        }
    }

    fn evolve(&self, command: &str) -> TseResult<EvolveSummary> {
        match self.core.rpc(OpKind::Once, Request::Evolve { command: command.to_string() })? {
            Response::Evolved { version, classes_touched, duplicates_folded, script } => {
                Ok(EvolveSummary { version, classes_touched, duplicates_folded, script })
            }
            other => Err(unexpected("Evolved", &other)),
        }
    }

    fn describe(&self) -> TseResult<String> {
        match self.core.rpc(OpKind::Read, Request::Describe)? {
            Response::Described(text) => Ok(text),
            other => Err(unexpected("Described", &other)),
        }
    }

    fn versions(&self) -> TseResult<u32> {
        match self.core.rpc(OpKind::Read, Request::Versions)? {
            Response::ViewVersion(n) => Ok(n),
            other => Err(unexpected("ViewVersion", &other)),
        }
    }

    fn health(&self) -> TseResult<HealthStatus> {
        match self.core.rpc(OpKind::Read, Request::Health)? {
            Response::HealthIs { status: 0, .. } => Ok(HealthStatus::Healthy),
            Response::HealthIs { status: 1, reason, retry_after_ms } => {
                Ok(HealthStatus::Degraded { reason, retry_after_ms })
            }
            Response::HealthIs { status: 2, .. } => Ok(HealthStatus::Poisoned),
            other => Err(unexpected("HealthIs", &other)),
        }
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        // Best-effort courtesy close; never redial just to say goodbye.
        let mut inner = self.core.inner.lock();
        if let Some(conn) = inner.conn.as_mut() {
            let _ = conn.exchange(&Request::Bye);
        }
    }
}

/// A pinned remote read handle ([`TseReader`] over the wire). After a
/// reconnect it transparently re-opens on the new connection, re-pinned to
/// the family's current view version and data epoch (the documented
/// `refresh()` semantics); [`TseReader::view_version`] reflects the
/// re-pinned version.
pub struct RemoteReader {
    core: Arc<ConnCore>,
    /// `(sid, generation)` — stale once the core's generation moves on.
    slot: Mutex<(u64, u64)>,
    version: AtomicU32,
}

impl RemoteReader {
    fn rpc(&self, make: impl Fn(u64) -> Request) -> TseResult<Response> {
        self.core.call(OpKind::Read, &mut |core, inner| {
            let sid = core.ensure_reader(inner, &self.slot, &self.version)?;
            Ok(make(sid))
        })
    }
}

impl TseReader for RemoteReader {
    fn view_version(&self) -> u32 {
        self.version.load(Ordering::SeqCst)
    }

    fn get(&self, oid: Oid, class: &str, attr: &str) -> TseResult<Value> {
        match self.rpc(|sid| Request::Get {
            sid,
            oid,
            class: class.to_string(),
            attr: attr.to_string(),
        })? {
            Response::Val(v) => Ok(v),
            other => Err(unexpected("Val", &other)),
        }
    }

    fn extent(&self, class: &str) -> TseResult<Vec<Oid>> {
        match self.rpc(|sid| Request::Extent { sid, class: class.to_string() })? {
            Response::Oids(oids) => Ok(oids),
            other => Err(unexpected("Oids", &other)),
        }
    }

    fn select_where(&self, class: &str, expr: &str) -> TseResult<Vec<Oid>> {
        match self.rpc(|sid| Request::SelectWhere {
            sid,
            class: class.to_string(),
            expr: expr.to_string(),
        })? {
            Response::Oids(oids) => Ok(oids),
            other => Err(unexpected("Oids", &other)),
        }
    }

    fn invoke(&self, oid: Oid, class: &str, name: &str) -> TseResult<Value> {
        match self.rpc(|sid| Request::Invoke {
            sid,
            oid,
            class: class.to_string(),
            name: name.to_string(),
        })? {
            Response::Val(v) => Ok(v),
            other => Err(unexpected("Val", &other)),
        }
    }

    fn refresh(&mut self) -> TseResult<()> {
        match self.rpc(|sid| Request::RefreshReader { sid })? {
            Response::Refreshed => Ok(()),
            other => Err(unexpected("Refreshed", &other)),
        }
    }
}

impl Drop for RemoteReader {
    fn drop(&mut self) {
        // Best-effort close, only if the handle is live on the current
        // connection — a stale slot died with its connection server-side.
        let mut inner = self.core.inner.lock();
        let (sid, generation) = *self.slot.lock();
        if generation == inner.generation {
            if let Some(conn) = inner.conn.as_mut() {
                let _ = conn.exchange(&Request::CloseReader { sid });
            }
        }
    }
}

/// A pinned remote write handle ([`TseWriter`] over the wire). Every data
/// write carries an idempotency id minted once per logical operation, so
/// a retry after a lost ack is deduplicated server-side; after a
/// reconnect the handle re-opens transparently at the family's current
/// version.
pub struct RemoteWriter {
    core: Arc<ConnCore>,
    /// `(wid, generation)` — stale once the core's generation moves on.
    slot: Mutex<(u64, u64)>,
}

impl RemoteWriter {
    /// A deduplicated data write: `make` receives the (possibly re-opened)
    /// handle id and the operation's idempotency id, which stays stable
    /// across every retry of this one logical write.
    fn write_rpc(&self, make: impl Fn(u64, u64) -> Request) -> TseResult<Response> {
        let minted = Cell::new(0u64);
        self.core.call(OpKind::IdemWrite, &mut |core, inner| {
            let wid = core.ensure_writer(inner, &self.slot)?;
            if minted.get() == 0 {
                minted.set(inner.mint_idem());
            }
            Ok(make(wid, minted.get()))
        })
    }

    /// A non-deduplicated writer op (refresh/close are idempotent by
    /// nature and carry no id).
    fn rpc(&self, make: impl Fn(u64) -> Request) -> TseResult<Response> {
        self.core.call(OpKind::Read, &mut |core, inner| {
            let wid = core.ensure_writer(inner, &self.slot)?;
            Ok(make(wid))
        })
    }
}

impl TseWriter for RemoteWriter {
    fn create(&self, class: &str, values: &[(&str, Value)]) -> TseResult<Oid> {
        match self.write_rpc(|wid, idem| Request::Create {
            wid,
            idem,
            class: class.to_string(),
            values: values.iter().map(|(n, v)| (n.to_string(), v.clone())).collect(),
        })? {
            Response::OidIs(oid) => Ok(oid),
            other => Err(unexpected("OidIs", &other)),
        }
    }

    fn set(&self, oid: Oid, class: &str, assignments: &[(&str, Value)]) -> TseResult<()> {
        match self.write_rpc(|wid, idem| Request::SetAttrs {
            wid,
            idem,
            oid,
            class: class.to_string(),
            assignments: assignments.iter().map(|(n, v)| (n.to_string(), v.clone())).collect(),
        })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", &other)),
        }
    }

    fn update_where(
        &self,
        class: &str,
        expr: &str,
        assignments: &[(&str, Value)],
    ) -> TseResult<usize> {
        match self.write_rpc(|wid, idem| Request::UpdateWhere {
            wid,
            idem,
            class: class.to_string(),
            expr: expr.to_string(),
            assignments: assignments.iter().map(|(n, v)| (n.to_string(), v.clone())).collect(),
        })? {
            Response::Count(n) => Ok(n as usize),
            other => Err(unexpected("Count", &other)),
        }
    }

    fn add_to(&self, oids: &[Oid], class: &str) -> TseResult<()> {
        match self.write_rpc(|wid, idem| Request::AddTo {
            wid,
            idem,
            class: class.to_string(),
            oids: oids.to_vec(),
        })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", &other)),
        }
    }

    fn remove_from(&self, oids: &[Oid], class: &str) -> TseResult<()> {
        match self.write_rpc(|wid, idem| Request::RemoveFrom {
            wid,
            idem,
            class: class.to_string(),
            oids: oids.to_vec(),
        })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", &other)),
        }
    }

    fn delete_objects(&self, oids: &[Oid]) -> TseResult<()> {
        match self.write_rpc(|wid, idem| Request::Delete { wid, idem, oids: oids.to_vec() })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", &other)),
        }
    }

    fn refresh(&mut self) -> TseResult<()> {
        match self.rpc(|wid| Request::RefreshWriter { wid })? {
            Response::Refreshed => Ok(()),
            other => Err(unexpected("Refreshed", &other)),
        }
    }
}

impl Drop for RemoteWriter {
    fn drop(&mut self) {
        let mut inner = self.core.inner.lock();
        let (wid, generation) = *self.slot.lock();
        if generation == inner.generation {
            if let Some(conn) = inner.conn.as_mut() {
                let _ = conn.exchange(&Request::CloseWriter { wid });
            }
        }
    }
}
