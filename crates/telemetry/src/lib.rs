//! # tse-telemetry — workspace-wide observability, std-only.
//!
//! The paper's evaluation is entirely *measured* behaviour — page touches,
//! classification cost, view-regeneration overhead — so every layer of the
//! workspace reports into this crate:
//!
//! * **Spans** ([`Telemetry::span`]): hierarchical RAII timing guards over
//!   the schema-evolution pipeline (`evolve` → `evolve.translate` →
//!   `evolve.classify` → `evolve.view_regen` → `evolve.swap_in`). Closing a
//!   span appends a record to the journal and feeds the
//!   `span.<name>` histogram. Span nesting is **per thread**: each thread
//!   owns its own span stack inside the shared domain, so concurrent
//!   sessions can never misattribute parentage or close one another's
//!   spans.
//! * **Traces** ([`Telemetry::ensure_trace`], [`Telemetry::enter_trace`]):
//!   every journal record is stamped with the trace id active on its
//!   thread, and cross-thread causality is linked explicitly via
//!   [`Telemetry::handoff`]/[`Telemetry::adopt`] (`follows_from` on the
//!   adopted thread's root spans) rather than implied by a global stack.
//! * **Metrics registry** ([`Telemetry::incr`], [`Telemetry::observe_ns`],
//!   [`Telemetry::set_gauge`]): named `u64` counters/gauges and log₂-bucket
//!   histograms, snapshotted deterministically with
//!   [`Telemetry::snapshot`].
//! * **Flight recorder** ([`Telemetry::journal_lines`]): every closed span
//!   and explicit event lands in a **bounded ring buffer** (default
//!   [`DEFAULT_JOURNAL_CAPACITY`] records; overflow evicts the oldest
//!   record and bumps `journal.dropped`) and, when a sink is attached
//!   ([`Telemetry::attach_sink`]), is also streamed to a JSON-lines file so
//!   long runs keep full history on disk with bounded memory. The [`json`]
//!   module carries the writer and a validating parser.
//! * **Slow-op log** ([`Telemetry::set_slow_op_threshold_ns`]): operations
//!   measured through [`Telemetry::observe_op`] that exceed the threshold
//!   emit a `slow_op` journal event enriched with the lock/WAL waits the
//!   thread accumulated during the operation, so tail latency is
//!   attributable offline.
//!
//! A [`Telemetry`] is a cheap cloneable handle (`Arc` inside); the
//! object-model `Database` owns one and every layer above reaches it through
//! the database, so one evolution produces one coherent journal.

#![warn(missing_docs)]

pub mod hist;
pub mod json;

mod registry;
mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use json::JsonValue;
pub use registry::MetricsSnapshot;
pub use span::{JournalRecord, SpanGuard};

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Default capacity of the in-memory journal ring buffer (~64Ki records).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 64 * 1024;

/// Wait histograms that also accumulate into the observing thread's
/// operation context, so a `slow_op` event can attribute where a slow
/// operation spent its time. Every name here is observed *on the thread
/// performing the operation* (lock acquisition and group-commit waits run
/// inline), which is what makes the attribution causally correct.
const TRACKED_WAITS: &[&str] = &[
    "lock.stripe_wait_ns",
    "lock.read_wait_ns",
    "lock.write_wait_ns",
    "lock.control_wait_ns",
    "wal.fsync_ns",
    "wal.commit_wait_ns",
];

/// A data-plane operation name with its metric names spelled out once, so
/// counting an operation formats and allocates nothing: `op.<name>` (the
/// counter) and `latency.<name>` (the histogram). Build one per operation
/// with [`op_name!`] and keep it in a `const`.
#[derive(Debug, Clone, Copy)]
pub struct OpName {
    name: &'static str,
    counter: &'static str,
    latency: &'static str,
}

impl OpName {
    #[doc(hidden)]
    pub const fn from_parts(
        name: &'static str,
        counter: &'static str,
        latency: &'static str,
    ) -> Self {
        OpName { name, counter, latency }
    }

    /// The bare operation name (`get`, `create`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// The [`OpName`] of a literal operation name: `op_name!("get")`.
#[macro_export]
macro_rules! op_name {
    ($name:literal) => {
        $crate::OpName::from_parts($name, concat!("op.", $name), concat!("latency.", $name))
    };
}

/// One trace scope entered on a thread (innermost last on the stack).
pub(crate) struct TraceScope {
    pub(crate) trace: u64,
    /// Span id (possibly from another thread) the first root span opened
    /// under this scope should link to with `follows_from`.
    pub(crate) follows_span: Option<u64>,
}

/// What one thread keeps for one domain without sharing it: the trace
/// scopes it has entered and the waits of its current operation. Both are
/// only ever touched by the thread itself, so they live in a thread-local
/// and entering a trace or accumulating a wait takes no lock.
struct LocalCtx {
    domain: u64,
    /// Dead once the domain is dropped: the context is then garbage.
    owner: std::sync::Weak<Inner>,
    traces: Vec<TraceScope>,
    /// Tracked waits accumulated since the last [`Telemetry::observe_op`]
    /// on this thread (name → summed ns).
    waits: Vec<(&'static str, u64)>,
}

impl LocalCtx {
    /// Nothing entered, nothing accumulated, or nobody left to report to.
    fn is_idle(&self) -> bool {
        (self.traces.is_empty() && self.waits.is_empty()) || self.owner.strong_count() == 0
    }

    fn add_wait(&mut self, name: &'static str, ns: u64) {
        match self.waits.iter_mut().find(|(n, _)| *n == name) {
            Some((_, sum)) => *sum += ns,
            None => self.waits.push((name, ns)),
        }
    }
}

thread_local! {
    /// This thread's contexts, one per domain it is active in. An idle
    /// context is kept (with its capacity) until the thread turns to a
    /// domain it has no context for, so steady traffic on one domain
    /// allocates nothing and domains that come and go leave nothing behind.
    static LOCAL: RefCell<Vec<LocalCtx>> = const { RefCell::new(Vec::new()) };
}

static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(1);

/// Run `f` on the calling thread's context for `domain`, creating it (and
/// dropping other domains' idle contexts) on first touch. `None` only while
/// the thread is being torn down.
fn with_local<R>(domain: &Arc<Inner>, f: impl FnOnce(&mut LocalCtx) -> R) -> Option<R> {
    LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            let at = match local.iter().position(|c| c.domain == domain.id) {
                Some(at) => at,
                None => {
                    local.retain(|c| !c.is_idle());
                    local.push(LocalCtx {
                        domain: domain.id,
                        owner: Arc::downgrade(domain),
                        traces: Vec::new(),
                        waits: Vec::new(),
                    });
                    local.len() - 1
                }
            };
            f(&mut local[at])
        })
        .ok()
}

/// One thread's open spans in the shared domain. Span guards may be closed
/// from any thread, so — unlike trace scopes — the stacks are shared state.
pub(crate) struct ThreadCtx {
    /// Dense per-domain thread index (1-based), stamped on journal records
    /// as `tid`.
    pub(crate) tid: u64,
    pub(crate) stack: Vec<span::OpenSpan>,
}

pub(crate) struct State {
    pub(crate) counters: HashMap<String, u64>,
    pub(crate) histograms: HashMap<String, Histogram>,
    pub(crate) threads: HashMap<ThreadId, ThreadCtx>,
    /// Dense 1-based thread numbering, assigned on first touch and **kept
    /// for the domain's lifetime** even when the heavy [`ThreadCtx`] is
    /// GC'd — a thread's `tid` in the journal never changes.
    pub(crate) tids: HashMap<ThreadId, u64>,
    pub(crate) next_tid: u64,
    pub(crate) journal: VecDeque<JournalRecord>,
    pub(crate) journal_capacity: usize,
    pub(crate) sink: Option<std::io::BufWriter<std::fs::File>>,
    pub(crate) sink_records: u64,
    pub(crate) next_span_id: u64,
    pub(crate) next_trace_id: u64,
    pub(crate) slow_op_threshold_ns: u64,
}

impl State {
    /// The calling thread's dense id, numbering it on first touch.
    pub(crate) fn tid(&mut self) -> u64 {
        let next_tid = &mut self.next_tid;
        *self.tids.entry(std::thread::current().id()).or_insert_with(|| {
            let tid = *next_tid;
            *next_tid += 1;
            tid
        })
    }

    /// The calling thread's span stack, creating it on first touch.
    pub(crate) fn ctx(&mut self) -> &mut ThreadCtx {
        let tid = self.tid();
        self.threads
            .entry(std::thread::current().id())
            .or_insert_with(|| ThreadCtx { tid, stack: Vec::new() })
    }

    /// The calling thread's innermost open span, if any.
    pub(crate) fn innermost_span(&self) -> Option<&span::OpenSpan> {
        self.threads.get(&std::thread::current().id()).and_then(|ctx| ctx.stack.last())
    }

    /// Drop a thread's span stack once it is empty, so thread churn cannot
    /// grow the map without bound.
    pub(crate) fn gc_ctx(&mut self, key: ThreadId) {
        if self.threads.get(&key).is_some_and(|ctx| ctx.stack.is_empty()) {
            self.threads.remove(&key);
        }
    }

    /// Add `by` to a counter without allocating when it exists.
    pub(crate) fn bump(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Record into a histogram without allocating when it exists.
    pub(crate) fn record(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(hist) => hist.record(value),
            None => self.histograms.entry(name.to_string()).or_default().record(value),
        }
    }

    /// Append one record: stream it to the sink (if any), then push it into
    /// the bounded ring, evicting (and counting) the oldest on overflow.
    ///
    /// A sink write failure is retried once (a transient stall — a signal,
    /// a momentarily full pipe — usually clears immediately); a second
    /// failure detaches the sink cleanly so journaling never turns a
    /// telemetry fault into a mutation fault. The detachment itself is
    /// recorded: `journal.sink_errors` + `journal.sink_detached` counters
    /// and a synthetic `journal.sink_detached` event in the ring, so an
    /// offline `tse-inspect` run can tell "quiet system" from "sink died".
    pub(crate) fn push_record(&mut self, rec: JournalRecord) {
        if let Some(sink) = &mut self.sink {
            let mut line = rec.to_json().render();
            line.push('\n');
            let wrote = sink.write_all(line.as_bytes()).or_else(|_| {
                *self.counters.entry("journal.sink_errors".into()).or_insert(0) += 1;
                sink.write_all(line.as_bytes())
            });
            if wrote.is_ok() {
                self.sink_records += 1;
            } else {
                *self.counters.entry("journal.sink_errors".into()).or_insert(0) += 1;
                *self.counters.entry("journal.sink_detached".into()).or_insert(0) += 1;
                self.sink = None;
                self.sink_records = 0;
                let tid = self.tid();
                let at_ns = match &rec {
                    JournalRecord::Event { at_ns, .. } => *at_ns,
                    JournalRecord::Span { start_ns, dur_ns, .. } => start_ns + dur_ns,
                };
                let detached = JournalRecord::Event {
                    name: "journal.sink_detached".into(),
                    at_ns,
                    parent: None,
                    trace: None,
                    tid,
                    fields: vec![(
                        "hint".to_string(),
                        "sink write failed twice; detached".into(),
                    )],
                };
                while self.journal.len() >= self.journal_capacity.max(1) {
                    self.journal.pop_front();
                    *self.counters.entry("journal.dropped".into()).or_insert(0) += 1;
                }
                self.journal.push_back(detached);
            }
        }
        while self.journal.len() >= self.journal_capacity.max(1) {
            self.journal.pop_front();
            *self.counters.entry("journal.dropped".into()).or_insert(0) += 1;
        }
        self.journal.push_back(rec);
    }
}

pub(crate) struct Inner {
    /// Process-unique id: keys this domain's thread-local contexts.
    pub(crate) id: u64,
    pub(crate) epoch: Instant,
    pub(crate) state: Mutex<State>,
}

/// A cloneable handle to one telemetry domain (registry + journal + the
/// per-thread span/trace contexts). All methods take `&self` and are
/// internally synchronised.
#[derive(Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

/// Captured cross-thread causality: the trace active on the capturing
/// thread plus its innermost open span. Pass it to another thread and
/// [`Telemetry::adopt`] it there — root spans on the adopting thread carry
/// `follows_from` links back to the captured span instead of corrupting the
/// capturing thread's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHandoff {
    /// The trace the capturing thread was in.
    pub trace: u64,
    /// The innermost span open on the capturing thread, if any.
    pub span: Option<u64>,
}

/// RAII guard for one trace scope on the current thread; leaving the scope
/// (drop) pops it. The guard must be dropped on the thread that entered it
/// (debug-asserted); traces themselves move across threads via
/// [`Telemetry::handoff`] / [`Telemetry::adopt`].
#[must_use = "a trace scope ends as soon as the guard drops"]
pub struct TraceGuard {
    domain: u64,
    /// Checked on drop in debug builds only: reading the thread id clones
    /// and drops an `Arc<Thread>`, a cost every session op would pay.
    #[cfg(debug_assertions)]
    owner: ThreadId,
    trace: u64,
}

impl TraceGuard {
    /// The trace id this guard keeps active.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.owner,
            std::thread::current().id(),
            "TraceGuard dropped on a different thread than it was entered on"
        );
        // The guard holds no handle on the domain: if its context is gone
        // (thread teardown, domain dropped and pruned) there is nothing to pop.
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            if let Some(ctx) = local.iter_mut().find(|c| c.domain == self.domain) {
                if let Some(pos) = ctx.traces.iter().rposition(|s| s.trace == self.trace) {
                    ctx.traces.remove(pos);
                }
            }
        });
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock().unwrap();
        f.debug_struct("Telemetry")
            .field("counters", &st.counters.len())
            .field("histograms", &st.histograms.len())
            .field("journal_records", &st.journal.len())
            .field("threads", &st.threads.len())
            .field("open_spans", &st.threads.values().map(|c| c.stack.len()).sum::<usize>())
            .finish()
    }
}

impl Telemetry {
    /// A fresh, empty telemetry domain with the default journal capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A fresh domain whose journal ring holds at most `capacity` records
    /// (clamped to ≥ 1). Overflow evicts the oldest record and bumps the
    /// `journal.dropped` counter.
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                id: NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                state: Mutex::new(State {
                    counters: Default::default(),
                    histograms: Default::default(),
                    threads: HashMap::new(),
                    tids: HashMap::new(),
                    next_tid: 1,
                    journal: VecDeque::new(),
                    journal_capacity: capacity.max(1),
                    sink: None,
                    sink_records: 0,
                    next_span_id: 1,
                    next_trace_id: 1,
                    slow_op_threshold_ns: 0,
                }),
            }),
        }
    }

    /// Nanoseconds since this domain's epoch (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    // ----- counters / gauges -------------------------------------------------

    /// Add `by` to the named counter (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        self.inner.state.lock().unwrap().bump(name, by);
    }

    /// Set the named counter to an absolute value (gauge semantics),
    /// without allocating when it exists.
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut st = self.inner.state.lock().unwrap();
        match st.counters.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                st.counters.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of a counter/gauge (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.state.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    // ----- histograms --------------------------------------------------------

    /// Record one observation (e.g. nanoseconds) into the named log₂
    /// histogram. Tracked wait names (`lock.*_wait_ns`, `wal.fsync_ns`,
    /// `wal.commit_wait_ns`) additionally accumulate into the calling
    /// thread's operation context for slow-op attribution.
    pub fn observe_ns(&self, name: &str, value: u64) {
        self.inner.state.lock().unwrap().record(name, value);
        if let Some(tracked) = TRACKED_WAITS.iter().find(|w| **w == name) {
            with_local(&self.inner, |ctx| ctx.add_wait(tracked, value));
        }
    }

    /// Create the named histogram empty, so snapshots carry it before its
    /// first observation.
    pub fn register_histogram(&self, name: &str) {
        self.inner.state.lock().unwrap().histograms.entry(name.to_string()).or_default();
    }

    /// Time a closure into the named histogram; returns its result.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observe_ns(name, span::nonzero_ns(start.elapsed()));
        out
    }

    // ----- operations / slow-op log -----------------------------------------

    /// Operations measured through [`Telemetry::observe_op`] that take at
    /// least `ns` nanoseconds emit a `slow_op` journal event enriched with
    /// the thread's tracked waits. `0` (the default) disables the log.
    pub fn set_slow_op_threshold_ns(&self, ns: u64) {
        self.inner.state.lock().unwrap().slow_op_threshold_ns = ns;
    }

    /// Count one data-plane operation (`op.<name>`), record its latency
    /// into `latency.<name>`, and — when a slow-op threshold is configured
    /// and exceeded — emit a `slow_op` event carrying the operation name,
    /// duration, and every tracked wait the calling thread accumulated
    /// since its previous measured operation (stripe/lock waits, WAL fsync
    /// and group-commit waits). The wait accumulators reset either way.
    ///
    /// `waited` is a tracked wait the caller measured itself during the
    /// operation (`(histogram name, ns)`, e.g. its `lock.read_wait_ns`): it
    /// is observed exactly as [`Telemetry::observe_ns`] would, but under
    /// the lock this call takes anyway, so a fast operation costs one
    /// acquisition of the registry, not two.
    pub fn observe_op(&self, op: &OpName, dur_ns: u64, waited: Option<(&'static str, u64)>) {
        let dur_ns = dur_ns.max(1);
        let mut st = self.inner.state.lock().unwrap();
        st.bump(op.counter, 1);
        st.record(op.latency, dur_ns);
        if let Some((name, ns)) = waited {
            st.record(name, ns);
        }
        let threshold = st.slow_op_threshold_ns;
        let slow = threshold > 0 && dur_ns >= threshold;
        // The thread's accumulated waits end with the operation; a slow one
        // takes them along.
        let waits = with_local(&self.inner, |ctx| {
            if let Some((name, ns)) = waited {
                ctx.add_wait(name, ns);
            }
            let waits = if slow { ctx.waits.clone() } else { Vec::new() };
            ctx.waits.clear();
            waits
        });
        if slow {
            st.bump("slow_op.count", 1);
            let mut fields: Vec<(String, JsonValue)> = vec![
                ("op".into(), op.name.into()),
                ("dur_ns".into(), dur_ns.into()),
                ("threshold_ns".into(), threshold.into()),
            ];
            for (name, sum) in waits.unwrap_or_default() {
                fields.push((name.to_string(), sum.into()));
            }
            let at_ns = self.now_ns();
            let (tid, trace, parent) = self.stamp(&mut st);
            let rec = JournalRecord::Event { name: "slow_op".into(), at_ns, parent, trace, tid, fields };
            st.push_record(rec);
        }
    }

    // ----- traces ------------------------------------------------------------

    /// Mint a fresh trace id and journal a `trace.begin` event stamped with
    /// it (without entering the trace on this thread). Use this to give a
    /// long-lived session its identity once, then [`Telemetry::enter_trace`]
    /// per operation.
    pub fn mint_trace(&self, kind: &str) -> u64 {
        let at_ns = self.now_ns();
        let mut st = self.inner.state.lock().unwrap();
        let trace = st.next_trace_id;
        st.next_trace_id += 1;
        let tid = st.tid();
        let rec = JournalRecord::Event {
            name: "trace.begin".into(),
            at_ns,
            parent: None,
            trace: Some(trace),
            tid,
            fields: vec![("kind".into(), kind.into())],
        };
        st.push_record(rec);
        trace
    }

    /// Enter an existing trace on the current thread; spans and events
    /// opened while the guard lives are stamped with it. The scope is the
    /// thread's own, so entering and leaving it takes no lock.
    pub fn enter_trace(&self, trace: u64) -> TraceGuard {
        self.push_scope(TraceScope { trace, follows_span: None })
    }

    fn push_scope(&self, scope: TraceScope) -> TraceGuard {
        let trace = scope.trace;
        with_local(&self.inner, |ctx| ctx.traces.push(scope));
        TraceGuard {
            domain: self.inner.id,
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
            trace,
        }
    }

    /// The calling thread's innermost trace scope: `(trace, follows_span)`.
    pub(crate) fn scope(&self) -> Option<(u64, Option<u64>)> {
        with_local(&self.inner, |ctx| ctx.traces.last().map(|s| (s.trace, s.follows_span)))
            .flatten()
    }

    /// Enter the trace already active on this thread, or mint a new one
    /// (journaling `trace.begin` with `kind`) when there is none. This is
    /// how `evolve` gets a trace from every entry point without double-
    /// minting inside composite macros.
    pub fn ensure_trace(&self, kind: &str) -> TraceGuard {
        if let Some(trace) = self.current_trace() {
            return self.enter_trace(trace);
        }
        let trace = self.mint_trace(kind);
        self.enter_trace(trace)
    }

    /// Mint and enter a **new** trace even when one is active — for work
    /// that is causally triggered by the current operation but is its own
    /// unit (e.g. an opportunistic auto-checkpoint riding a write). The
    /// `trace.begin` event carries a `follows_from_trace` link to the
    /// enclosing trace when there is one.
    pub fn new_trace(&self, kind: &str) -> TraceGuard {
        let at_ns = self.now_ns();
        let prev = self.current_trace();
        let mut st = self.inner.state.lock().unwrap();
        let trace = st.next_trace_id;
        st.next_trace_id += 1;
        let follows_span = st.innermost_span().map(|s| s.id);
        let tid = st.tid();
        let mut fields: Vec<(String, JsonValue)> = vec![("kind".into(), kind.into())];
        if let Some(p) = prev {
            fields.push(("follows_from_trace".into(), p.into()));
        }
        let rec = JournalRecord::Event {
            name: "trace.begin".into(),
            at_ns,
            parent: None,
            trace: Some(trace),
            tid,
            fields,
        };
        st.push_record(rec);
        drop(st);
        self.push_scope(TraceScope { trace, follows_span })
    }

    /// The trace active on the calling thread, if any.
    pub fn current_trace(&self) -> Option<u64> {
        self.scope().map(|(trace, _)| trace)
    }

    /// Capture the calling thread's trace context for handoff to another
    /// thread. `None` when no trace is active.
    pub fn handoff(&self) -> Option<TraceHandoff> {
        let trace = self.current_trace()?;
        let span = self.inner.state.lock().unwrap().innermost_span().map(|s| s.id);
        Some(TraceHandoff { trace, span })
    }

    /// Adopt a handed-off trace context on the current thread: the same
    /// trace continues here, and root spans opened under the guard carry a
    /// `follows_from` link back to the captured span — explicit cross-
    /// thread causality instead of a corrupted global stack.
    pub fn adopt(&self, h: TraceHandoff) -> TraceGuard {
        self.push_scope(TraceScope { trace: h.trace, follows_span: h.span })
    }

    // ----- events ------------------------------------------------------------

    /// Current thread's journal stamp: `(tid, active trace, innermost open
    /// span)`. Falls back to the innermost open span's trace when no trace
    /// scope is entered (a span guard held across a scope exit keeps
    /// attributing).
    fn stamp(&self, st: &mut State) -> (u64, Option<u64>, Option<u64>) {
        let innermost = st.innermost_span().map(|s| (s.id, s.trace));
        let trace = self.current_trace().or_else(|| innermost.and_then(|(_, trace)| trace));
        (st.tid(), trace, innermost.map(|(id, _)| id))
    }

    /// Append a free-form event record to the journal, stamped with the
    /// calling thread's id and active trace.
    pub fn event(&self, name: &str, fields: &[(&str, JsonValue)]) {
        let at_ns = self.now_ns();
        let mut st = self.inner.state.lock().unwrap();
        let (tid, trace, parent) = self.stamp(&mut st);
        let rec = JournalRecord::Event {
            name: name.to_string(),
            at_ns,
            parent,
            trace,
            tid,
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        st.push_record(rec);
    }

    // ----- flight recorder ---------------------------------------------------

    /// Resize the journal ring buffer. Shrinking evicts the oldest records
    /// (counted in `journal.dropped`).
    pub fn set_journal_capacity(&self, capacity: usize) {
        let mut st = self.inner.state.lock().unwrap();
        st.journal_capacity = capacity.max(1);
        while st.journal.len() > st.journal_capacity {
            st.journal.pop_front();
            *st.counters.entry("journal.dropped".into()).or_insert(0) += 1;
        }
    }

    /// The journal ring's current capacity in records.
    pub fn journal_capacity(&self) -> usize {
        self.inner.state.lock().unwrap().journal_capacity
    }

    /// Records evicted from the ring so far (the `journal.dropped`
    /// counter). A sink, if attached early, still holds them on disk.
    pub fn journal_dropped(&self) -> u64 {
        self.counter("journal.dropped")
    }

    /// Stream every subsequent journal record to a JSON-lines file as it is
    /// appended, so the in-memory ring can stay bounded while long runs
    /// keep full history on disk. Replaces any previous sink (flushing it
    /// first). Write failures bump `journal.sink_errors` and do not fail
    /// the instrumented operation.
    pub fn attach_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut st = self.inner.state.lock().unwrap();
        if let Some(mut old) = st.sink.take() {
            let _ = old.flush();
        }
        st.sink = Some(std::io::BufWriter::new(file));
        st.sink_records = 0;
        Ok(())
    }

    /// Detach the sink, flushing it; returns the record count it received.
    pub fn detach_sink(&self) -> std::io::Result<u64> {
        let mut st = self.inner.state.lock().unwrap();
        let n = st.sink_records;
        if let Some(mut sink) = st.sink.take() {
            sink.flush()?;
        }
        st.sink_records = 0;
        Ok(n)
    }

    // ----- snapshot / journal ------------------------------------------------

    /// A deterministic point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.inner.state.lock().unwrap();
        MetricsSnapshot {
            counters: st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: st.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }

    /// Embed the current metrics snapshot in the journal as a
    /// `metrics.snapshot` event, so an offline reader (`tse-inspect`) can
    /// report counters and histograms alongside the trace timeline.
    pub fn journal_metrics_snapshot(&self) {
        let snap = self.snapshot().to_json();
        self.event("metrics.snapshot", &[("snapshot", snap)]);
    }

    /// The journal records currently in the ring (oldest first). Under
    /// sustained load with a full ring this is the *tail* of history; the
    /// sink keeps the rest.
    pub fn journal(&self) -> Vec<JournalRecord> {
        self.inner.state.lock().unwrap().journal.iter().cloned().collect()
    }

    /// The in-ring journal serialised as JSON-lines (one object per line).
    pub fn journal_lines(&self) -> String {
        let st = self.inner.state.lock().unwrap();
        let mut out = String::new();
        for rec in &st.journal {
            out.push_str(&rec.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Drop all recorded state (counters, histograms, journal ring). Open
    /// span guards and entered traces keep working; their records land in
    /// the fresh journal. An attached sink is left in place.
    pub fn reset(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.counters.clear();
        st.histograms.clear();
        st.journal.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::new();
        t.incr("op.create", 1);
        t.incr("op.create", 2);
        t.set_gauge("store.pages", 7);
        assert_eq!(t.counter("op.create"), 3);
        assert_eq!(t.counter("store.pages"), 7);
        assert_eq!(t.counter("missing"), 0);
        let snap = t.snapshot();
        assert_eq!(snap.counters["op.create"], 3);
    }

    #[test]
    fn time_feeds_histogram() {
        let t = Telemetry::new();
        let v = t.time("h", || 41 + 1);
        assert_eq!(v, 42);
        let snap = t.snapshot();
        assert_eq!(snap.histograms["h"].count, 1);
        assert!(snap.histograms["h"].sum > 0);
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::new();
        t.incr("c", 1);
        t.observe_ns("h", 5);
        t.event("e", &[]);
        t.reset();
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
        assert!(t.journal().is_empty());
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        let t = Telemetry::with_capacity(8);
        for i in 0..20u64 {
            t.event("e", &[("i", i.into())]);
        }
        let journal = t.journal();
        assert_eq!(journal.len(), 8, "ring bounded at capacity");
        assert_eq!(t.journal_dropped(), 12, "evictions counted");
        // The ring holds the *newest* records.
        match &journal[0] {
            JournalRecord::Event { fields, .. } => {
                assert_eq!(fields[0].1, JsonValue::U64(12));
            }
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let t = Telemetry::with_capacity(16);
        for _ in 0..10 {
            t.event("e", &[]);
        }
        t.set_journal_capacity(4);
        assert_eq!(t.journal().len(), 4);
        assert_eq!(t.journal_dropped(), 6);
        assert_eq!(t.journal_capacity(), 4);
    }

    #[test]
    fn sink_receives_all_records_past_ring_capacity() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tse_sink_test_{}.jsonl", std::process::id()));
        let t = Telemetry::with_capacity(4);
        t.attach_sink(&path).unwrap();
        for i in 0..33u64 {
            t.event("e", &[("i", i.into())]);
        }
        let sunk = t.detach_sink().unwrap();
        assert_eq!(sunk, 33, "sink saw every record");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::json::validate_lines(&text).unwrap(), 33);
        assert_eq!(t.journal().len(), 4);
        assert_eq!(t.journal_dropped() + t.journal().len() as u64, 33);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failing_sink_detaches_after_one_retry_and_journaling_survives() {
        // /dev/full fails every flushed write with ENOSPC (Linux); skip
        // elsewhere.
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let t = Telemetry::new();
        t.attach_sink(full).unwrap();
        // Enough bytes to force the BufWriter to hit the device.
        let pad = "x".repeat(512);
        for _ in 0..64 {
            t.event("spam", &[("pad", pad.as_str().into())]);
        }
        assert_eq!(t.counter("journal.sink_detached"), 1, "sink detaches exactly once");
        assert!(t.counter("journal.sink_errors") >= 2, "first failure retried before detach");
        assert!(t.journal_lines().contains("journal.sink_detached"));
        // Ring-only journaling keeps working after the detach.
        t.event("after_detach", &[]);
        assert!(t.journal_lines().contains("after_detach"));
    }

    #[test]
    fn tid_is_stable_across_context_gc() {
        let t = Telemetry::new();
        // Each enter/exit cycle empties and GCs the thread's heavy context;
        // the dense tid must survive the churn.
        let tid_of = |t: &Telemetry| {
            let tr = t.mint_trace("probe");
            let g = t.enter_trace(tr);
            t.event("probe", &[]);
            drop(g);
            t.journal().last().unwrap().tid()
        };
        let first = tid_of(&t);
        let again = tid_of(&t);
        assert_eq!(first, again, "tid changed after context GC");
        // A different thread still gets its own distinct tid.
        let t2 = t.clone();
        let other = std::thread::spawn(move || tid_of(&t2)).join().unwrap();
        assert_ne!(first, other);
    }

    #[test]
    fn trace_mint_enter_and_stamping() {
        let t = Telemetry::new();
        assert_eq!(t.current_trace(), None);
        let tr = t.mint_trace("session");
        {
            let guard = t.enter_trace(tr);
            assert_eq!(guard.trace(), tr);
            assert_eq!(t.current_trace(), Some(tr));
            t.event("inside", &[]);
        }
        assert_eq!(t.current_trace(), None);
        t.event("outside", &[]);
        let journal = t.journal();
        // trace.begin, inside, outside.
        assert_eq!(journal.len(), 3);
        match &journal[1] {
            JournalRecord::Event { name, trace, .. } => {
                assert_eq!(name, "inside");
                assert_eq!(*trace, Some(tr));
            }
            other => panic!("expected event, got {other:?}"),
        }
        match &journal[2] {
            JournalRecord::Event { trace, .. } => assert_eq!(*trace, None),
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn ensure_trace_reuses_and_new_trace_links() {
        let t = Telemetry::new();
        let outer = t.ensure_trace("evolve");
        let inner = t.ensure_trace("evolve");
        assert_eq!(outer.trace(), inner.trace(), "ensure_trace reuses the active trace");
        let fresh = t.new_trace("autocheckpoint");
        assert_ne!(fresh.trace(), outer.trace());
        let journal = t.journal();
        // One trace.begin from ensure_trace's mint, one from new_trace.
        let begins: Vec<_> = journal
            .iter()
            .filter(|r| r.name() == "trace.begin")
            .collect();
        assert_eq!(begins.len(), 2);
        match begins[1] {
            JournalRecord::Event { fields, .. } => {
                assert!(fields.iter().any(|(k, v)| {
                    k == "follows_from_trace" && *v == JsonValue::U64(outer.trace())
                }));
            }
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn slow_op_log_fires_over_threshold_with_waits() {
        let t = Telemetry::new();
        t.set_slow_op_threshold_ns(1000);
        t.observe_ns("lock.stripe_wait_ns", 77);
        t.observe_op(&op_name!("fast"), 999, None);
        assert_eq!(t.counter("slow_op.count"), 0, "below threshold: no event");
        t.observe_ns("lock.stripe_wait_ns", 500);
        t.observe_ns("lock.stripe_wait_ns", 11);
        // A wait the caller measured itself rides the same call: observed
        // into its histogram and attributed like any other tracked wait.
        t.observe_op(&op_name!("slow"), 5000, Some(("lock.read_wait_ns", 9)));
        assert_eq!(t.counter("slow_op.count"), 1);
        assert_eq!(t.snapshot().histograms["lock.read_wait_ns"].sum, 9);
        let journal = t.journal();
        let slow = journal.iter().find(|r| r.name() == "slow_op").expect("slow_op event");
        match slow {
            JournalRecord::Event { fields, .. } => {
                assert!(fields.iter().any(|(k, v)| k == "op" && *v == JsonValue::Str("slow".into())));
                assert!(fields.iter().any(|(k, v)| k == "dur_ns" && *v == JsonValue::U64(5000)));
                // Waits drained by the earlier fast op do not leak in; only
                // the 500+11 accumulated since then are attributed.
                assert!(fields
                    .iter()
                    .any(|(k, v)| k == "lock.stripe_wait_ns" && *v == JsonValue::U64(511)));
                assert!(fields
                    .iter()
                    .any(|(k, v)| k == "lock.read_wait_ns" && *v == JsonValue::U64(9)));
            }
            other => panic!("expected event, got {other:?}"),
        }
        // op counter and latency histogram still fed.
        assert_eq!(t.counter("op.slow"), 1);
        assert_eq!(t.snapshot().histograms["latency.slow"].count, 1);
    }

    #[test]
    fn handoff_and_adopt_cross_threads() {
        let t = Telemetry::new();
        let tr = t.mint_trace("pipeline");
        let _guard = t.enter_trace(tr);
        let root = t.span("stage1");
        let h = t.handoff().expect("trace active");
        assert_eq!(h.trace, tr);
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _g = t2.adopt(h);
            let _s = t2.span("stage2");
        })
        .join()
        .unwrap();
        root.finish();
        let journal = t.journal();
        let stage2 = journal
            .iter()
            .find(|r| r.name() == "stage2")
            .expect("adopted thread's span journaled");
        match stage2 {
            JournalRecord::Span { trace, parent, follows_from, .. } => {
                assert_eq!(*trace, Some(tr), "same trace continues on the adopting thread");
                assert_eq!(*parent, None, "no fake same-thread parent");
                assert!(follows_from.is_some(), "explicit follows_from link");
            }
            other => panic!("expected span, got {other:?}"),
        }
    }
}
