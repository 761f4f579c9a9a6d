//! The TSE service: a std-only thread-per-connection TCP server over a
//! [`SharedSystem`].
//!
//! **Authentication is identity is tenancy**: the first frame on every
//! connection is `Hello { user }`, and the user name binds the connection
//! to that user's view family — the paper's per-user views *are* the
//! tenancy model, so there is no separate namespace machinery. Every
//! subsequent request executes through an in-process [`LocalClient`] owned
//! by the connection's handler thread, which means the wire surface cannot
//! drift from the in-process API: same code paths, same [`TseError`]
//! codes, by construction.
//!
//! **Admission control**: past `max_connections`, a new connection gets a
//! single `Retry { retry_after_ms }` frame and is closed without a handler
//! thread — bounded threads, typed backpressure. The same `Retry` shape
//! carries request-level `Unavailable` backpressure while the system is
//! degraded.
//!
//! **Graceful drain**: [`TseServer::drain`] stops the accept loop, then
//! half-closes (read side only) every live connection. A handler blocked
//! waiting for its peer's next request wakes with EOF and exits; a handler
//! mid-request keeps its write side and finishes — the response is
//! computed against the reader's pinned epoch and flushed before the
//! connection closes. Evolutions never drain anything: an epoch swap is
//! invisible to the server, and pinned handles keep their pre-swap view
//! (see the drain-across-evolve test).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tse_core::{
    HealthStatus, LocalClient, LocalReader, LocalWriter, SharedSystem, TseClient, TseCode,
    TseError, TseReader, TseResult, TseWriter,
};
use tse_object_model::Value;
use tse_telemetry::{CounterHandle, HistogramHandle};

use crate::proto::{
    decode_request_owned, encode_response, frame_reader, read_frame_idle, write_frame, FrameRead,
    Request, Response,
};

/// Server runtime knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-control cap on concurrently served connections; the
    /// `max_connections + 1`-th connection gets a `Retry` frame.
    pub max_connections: usize,
    /// Backoff hint (milliseconds) carried in admission-control `Retry`
    /// frames.
    pub retry_after_ms: u64,
    /// Reap a connection that sends no frame for this long (0 disables).
    /// Doubles as the slow-client *read* budget: once a frame has started,
    /// stalling mid-frame past this window drops the connection.
    pub idle_timeout_ms: u64,
    /// Slow-client write budget: a response write blocked for this long
    /// drops the connection instead of pinning its handler thread forever
    /// (0 disables).
    pub write_timeout_ms: u64,
    /// Per-user idempotency dedup window: successful data-write responses
    /// remembered per user, so a retried acked write is answered from the
    /// cache instead of applied twice. Evicting past this bound is an
    /// overflow (`server.dedup_overflow`) — size it above the largest
    /// write burst a client could still be retrying.
    pub dedup_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            retry_after_ms: 100,
            idle_timeout_ms: 60_000,
            write_timeout_ms: 5_000,
            dedup_capacity: 1024,
        }
    }
}

/// One user's bounded dedup window: insertion order + cached responses.
#[derive(Default)]
struct DedupWindow {
    order: VecDeque<u64>,
    cached: HashMap<u64, Response>,
}

struct Shared {
    sys: SharedSystem,
    config: ServerConfig,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    active: AtomicUsize,
    next_conn: AtomicU64,
    /// Session-nonce mint for `Welcome` frames (idempotency-id prefixes).
    next_nonce: AtomicU64,
    /// Per-user idempotency windows. Keyed by user, not connection: a
    /// retried write arrives on a *new* connection after a reconnect.
    dedup: Mutex<HashMap<String, DedupWindow>>,
    /// Read-half clones of live connections, so drain can wake handlers
    /// blocked in `read_frame` without severing their write side.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// `server.requests` and `server.request_ns`, resolved once: each
    /// handler records every request into its own thread's shard.
    requests: CounterHandle,
    request_ns: HistogramHandle,
}

impl Shared {
    fn dedup_lookup(&self, user: &str, idem: u64) -> Option<Response> {
        self.dedup.lock().get(user).and_then(|w| w.cached.get(&idem).cloned())
    }

    fn dedup_record(&self, user: &str, idem: u64, response: &Response) {
        let mut windows = self.dedup.lock();
        let window = windows.entry(user.to_string()).or_default();
        if window.cached.insert(idem, response.clone()).is_none() {
            window.order.push_back(idem);
        }
        let mut overflowed = 0u64;
        while window.order.len() > self.config.dedup_capacity.max(1) {
            if let Some(evicted) = window.order.pop_front() {
                window.cached.remove(&evicted);
                overflowed += 1;
            }
        }
        let total: u64 = windows.values().map(|w| w.order.len() as u64).sum();
        drop(windows);
        let telemetry = self.sys.telemetry();
        if overflowed > 0 {
            // An evicted id could in principle still be retried — the
            // exactly-once guarantee is weakened. CI treats this as fatal.
            telemetry.incr("server.dedup_overflow", overflowed);
        }
        telemetry.set_gauge("server.dedup_window", total);
    }
}

/// A running TSE server. Dropping the handle does **not** stop the server;
/// call [`TseServer::drain`] for a graceful shutdown.
pub struct TseServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl TseServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections on a background thread.
    pub fn start(sys: SharedSystem, addr: &str, config: ServerConfig) -> TseResult<TseServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| TseError::new(TseCode::Io, format!("bind {addr} failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| TseError::new(TseCode::Io, format!("local_addr failed: {e}")))?;
        let telemetry = sys.telemetry();
        let shared = Arc::new(Shared {
            requests: telemetry.counter_handle("server.requests"),
            request_ns: telemetry.histogram_handle("server.request_ns"),
            sys,
            config,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(1),
            next_nonce: AtomicU64::new(1),
            dedup: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("tse-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| TseError::new(TseCode::Io, format!("spawn accept thread: {e}")))?;
        Ok(TseServer { addr: local, shared, accept: Some(accept) })
    }

    /// The bound address (resolves the ephemeral port of `":0"` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// True once a client has asked the server to shut down
    /// ([`Request::Shutdown`]); the embedding process should then call
    /// [`TseServer::drain`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Gracefully drain: stop accepting, let every in-flight request
    /// finish and flush its response, then close all connections and join
    /// all threads. Idempotent.
    pub fn drain(&mut self) {
        let start = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks the flag per connection,
        // so one throwaway self-connect gets it past the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Wake handlers blocked on an idle read; write sides stay open so
        // in-flight responses still flush.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock());
        for h in handlers {
            let _ = h.join();
        }
        let telemetry = self.shared.sys.telemetry();
        telemetry.observe_ns("server.drain_ns", start.elapsed().as_nanos() as u64);
        telemetry.set_gauge("server.connections", 0);
        telemetry.event("server.drained", &[]);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let telemetry = shared.sys.telemetry();
        let _ = stream.set_nodelay(true);
        // Admission control: refuse beyond the cap with typed backpressure
        // instead of queueing unbounded handler threads.
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
            telemetry.incr("server.rejected", 1);
            let retry = Response::Retry { retry_after_ms: shared.config.retry_after_ms };
            let mut stream = stream;
            let _ = write_frame(&mut stream, &encode_response(&retry));
            continue;
        }
        // One trace per connection, minted here and adopted by the handler
        // thread so every journal record of the connection's requests
        // carries the same trace id.
        let trace = telemetry.mint_trace("server.conn");
        let guard = telemetry.enter_trace(trace);
        let handoff = telemetry.handoff();
        drop(guard);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        if let Ok(read_half) = stream.try_clone() {
            shared.conns.lock().insert(conn_id, read_half);
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        telemetry.incr("server.accepted", 1);
        telemetry.set_gauge("server.connections", shared.active.load(Ordering::SeqCst) as u64);
        let handler_shared = Arc::clone(&shared);
        let handler = std::thread::Builder::new()
            .name(format!("tse-conn-{conn_id}"))
            .spawn(move || {
                let telemetry = handler_shared.sys.telemetry().clone();
                let _trace = handoff.map(|h| telemetry.adopt(h));
                serve_connection(stream, &handler_shared);
                handler_shared.conns.lock().remove(&conn_id);
                handler_shared.active.fetch_sub(1, Ordering::SeqCst);
                telemetry.set_gauge(
                    "server.connections",
                    handler_shared.active.load(Ordering::SeqCst) as u64,
                );
            });
        match handler {
            Ok(h) => shared.handlers.lock().push(h),
            Err(_) => {
                shared.conns.lock().remove(&conn_id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Per-connection state: the authenticated client plus its open handles.
struct ConnState {
    client: Option<LocalClient>,
    /// The authenticated user — the dedup-window key.
    user: Option<String>,
    readers: HashMap<u64, LocalReader>,
    writers: HashMap<u64, LocalWriter>,
    next_handle: u64,
}

impl ConnState {
    fn client(&self) -> TseResult<&LocalClient> {
        self.client.as_ref().ok_or_else(|| {
            TseError::new(TseCode::FailedPrecondition, "authenticate first (Hello frame)")
        })
    }

    fn reader(&self, sid: u64) -> TseResult<&LocalReader> {
        self.readers.get(&sid).ok_or_else(|| {
            TseError::new(TseCode::FailedPrecondition, format!("no open reader {sid}"))
        })
    }

    fn reader_mut(&mut self, sid: u64) -> TseResult<&mut LocalReader> {
        self.readers.get_mut(&sid).ok_or_else(|| {
            TseError::new(TseCode::FailedPrecondition, format!("no open reader {sid}"))
        })
    }

    fn writer(&self, wid: u64) -> TseResult<&LocalWriter> {
        self.writers.get(&wid).ok_or_else(|| {
            TseError::new(TseCode::FailedPrecondition, format!("no open writer {wid}"))
        })
    }

    fn writer_mut(&mut self, wid: u64) -> TseResult<&mut LocalWriter> {
        self.writers.get_mut(&wid).ok_or_else(|| {
            TseError::new(TseCode::FailedPrecondition, format!("no open writer {wid}"))
        })
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let telemetry = shared.sys.telemetry().clone();
    // Deadlines: the read timeout is both the idle-reaping tick (no frame
    // started) and the slow-client read budget (frame started, then
    // stalled); the write timeout bounds how long one hung peer can pin
    // this handler thread on a response flush.
    if shared.config.idle_timeout_ms > 0 {
        let _ = stream
            .set_read_timeout(Some(Duration::from_millis(shared.config.idle_timeout_ms)));
    }
    if shared.config.write_timeout_ms > 0 {
        let _ = stream
            .set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    }
    let mut state = ConnState {
        client: None,
        user: None,
        readers: HashMap::new(),
        writers: HashMap::new(),
        next_handle: 1,
    };
    let mut reader = frame_reader(&stream);
    loop {
        let frame = match read_frame_idle(&mut reader) {
            Ok(FrameRead::Frame(frame)) => frame,
            // Clean EOF: the peer closed, or drain half-closed our read
            // side after the last in-flight response flushed.
            Ok(FrameRead::Eof) => break,
            // A full idle budget passed without even a first byte: reap
            // the connection so quiet peers cannot pin handler threads.
            Ok(FrameRead::Idle) => {
                telemetry.incr("server.idle_reaped", 1);
                telemetry.event("server.idle_reaped", &[]);
                break;
            }
            Err(e) => {
                if e.code() == TseCode::DeadlineExceeded {
                    telemetry.incr("server.slow_client_dropped", 1);
                }
                break;
            }
        };
        let started = Instant::now();
        telemetry.add(&shared.requests, 1);
        let (response, close) = match decode_request_owned(frame) {
            Ok(request) => {
                let close = matches!(request, Request::Bye | Request::Shutdown);
                (dispatch(shared, &mut state, request), close)
            }
            // A malformed frame poisons the stream position; answer with
            // the typed error, then hang up rather than guess at framing.
            Err(e) => (Response::from_error(&e), true),
        };
        telemetry.record(&shared.request_ns, started.elapsed().as_nanos() as u64);
        if write_frame(&mut &stream, &encode_response(&response)).is_err() {
            break;
        }
        if close {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Execute one request against the connection's [`LocalClient`]. Every
/// failure is a [`TseError`]; `Unavailable` backpressure becomes a wire
/// `Retry` frame, everything else an `Err` frame carrying the code
/// verbatim.
///
/// Data writes carrying a non-zero idempotency id consult the user's
/// dedup window first: a retried write whose original ack was lost in
/// transit is answered from the cache, never applied twice. Only
/// *successful* responses are cached — a `Retry` frame means the write
/// was never executed, and typed errors are deterministic replays.
fn dispatch(shared: &Shared, state: &mut ConnState, request: Request) -> Response {
    let idem = request.idem().filter(|&i| i != 0);
    if let (Some(idem), Some(user)) = (idem, state.user.as_deref()) {
        if let Some(cached) = shared.dedup_lookup(user, idem) {
            shared.sys.telemetry().incr("server.dedup_hits", 1);
            return cached;
        }
    }
    let response = match apply(shared, state, request) {
        Ok(response) => response,
        Err(e) if e.code() == TseCode::Unavailable && e.retry_after_ms() > 0 => {
            Response::Retry { retry_after_ms: e.retry_after_ms() }
        }
        Err(e) => Response::from_error(&e),
    };
    if let (Some(idem), Some(user)) = (idem, state.user.as_deref()) {
        if !matches!(response, Response::Retry { .. } | Response::Err { .. }) {
            shared.dedup_record(user, idem, &response);
        }
    }
    response
}

fn apply(shared: &Shared, state: &mut ConnState, request: Request) -> TseResult<Response> {
    Ok(match request {
        Request::Hello { user } => {
            let client = LocalClient::open(shared.sys.clone(), &user)?;
            let version = client.bound_version().unwrap_or(0);
            shared.sys.telemetry().event("server.hello", &[("user", user.as_str().into())]);
            state.client = Some(client);
            state.user = Some(user);
            let nonce = shared.next_nonce.fetch_add(1, Ordering::SeqCst);
            Response::Welcome { version, nonce }
        }
        Request::Bind { family } => {
            state.client()?;
            let version = state.client.as_mut().expect("checked").bind(&family)?;
            Response::Bound { version }
        }
        Request::OpenReader => {
            let reader = state.client()?.session()?;
            let version = reader.view_version();
            let sid = state.next_handle;
            state.next_handle += 1;
            state.readers.insert(sid, reader);
            Response::ReaderOpened { sid, version }
        }
        Request::CloseReader { sid } => {
            state.readers.remove(&sid);
            Response::Closed
        }
        Request::RefreshReader { sid } => {
            state.reader_mut(sid)?.refresh()?;
            Response::Refreshed
        }
        Request::Get { sid, oid, class, attr } => {
            Response::Val(state.reader(sid)?.get(oid, &class, &attr)?)
        }
        Request::Extent { sid, class } => Response::Oids(state.reader(sid)?.extent(&class)?),
        Request::SelectWhere { sid, class, expr } => {
            Response::Oids(state.reader(sid)?.select_where(&class, &expr)?)
        }
        Request::Invoke { sid, oid, class, name } => {
            Response::Val(state.reader(sid)?.invoke(oid, &class, &name)?)
        }
        Request::OpenWriter => {
            let writer = state.client()?.writer()?;
            let wid = state.next_handle;
            state.next_handle += 1;
            state.writers.insert(wid, writer);
            Response::WriterOpened { wid }
        }
        Request::CloseWriter { wid } => {
            state.writers.remove(&wid);
            Response::Closed
        }
        Request::RefreshWriter { wid } => {
            state.writer_mut(wid)?.refresh()?;
            Response::Refreshed
        }
        Request::Create { wid, class, values, .. } => {
            let borrowed: Vec<(&str, Value)> =
                values.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            Response::OidIs(state.writer(wid)?.create(&class, &borrowed)?)
        }
        Request::SetAttrs { wid, oid, class, assignments, .. } => {
            let borrowed: Vec<(&str, Value)> =
                assignments.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            state.writer(wid)?.set(oid, &class, &borrowed)?;
            Response::Unit
        }
        Request::UpdateWhere { wid, class, expr, assignments, .. } => {
            let borrowed: Vec<(&str, Value)> =
                assignments.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            Response::Count(state.writer(wid)?.update_where(&class, &expr, &borrowed)? as u64)
        }
        Request::AddTo { wid, class, oids, .. } => {
            state.writer(wid)?.add_to(&oids, &class)?;
            Response::Unit
        }
        Request::RemoveFrom { wid, class, oids, .. } => {
            state.writer(wid)?.remove_from(&oids, &class)?;
            Response::Unit
        }
        Request::Delete { wid, oids, .. } => {
            state.writer(wid)?.delete_objects(&oids)?;
            Response::Unit
        }
        Request::DefineClass { name, supers, props } => {
            let supers: Vec<&str> = supers.iter().map(String::as_str).collect();
            state.client()?.define_class(&name, &supers, props)?;
            Response::Unit
        }
        Request::CreateView { classes } => {
            let classes: Vec<&str> = classes.iter().map(String::as_str).collect();
            Response::ViewVersion(state.client()?.create_view(&classes)?)
        }
        Request::Evolve { command } => {
            let summary = state.client()?.evolve(&command)?;
            Response::Evolved {
                version: summary.version,
                classes_touched: summary.classes_touched,
                duplicates_folded: summary.duplicates_folded,
                script: summary.script,
            }
        }
        Request::Describe => Response::Described(state.client()?.describe()?),
        Request::Versions => Response::ViewVersion(state.client()?.versions()?),
        Request::Health => {
            let (status, reason, retry_after_ms) = match state.client()?.health()? {
                HealthStatus::Healthy => (0, String::new(), 0),
                HealthStatus::Degraded { reason, retry_after_ms } => {
                    (1, reason, retry_after_ms)
                }
                HealthStatus::Poisoned => (2, String::new(), 0),
            };
            Response::HealthIs { status, reason, retry_after_ms }
        }
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            state.client()?;
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            shared.sys.telemetry().event("server.shutdown_requested", &[]);
            Response::Bye
        }
        Request::Bye => Response::Bye,
    })
}
