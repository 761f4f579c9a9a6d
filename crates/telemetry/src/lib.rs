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
//!   [`Telemetry::snapshot`]. A name resolves once to a dense slot
//!   ([`Telemetry::op`], [`Telemetry::counter_handle`],
//!   [`Telemetry::histogram_handle`]); counters and histograms are then
//!   recorded into a **shard owned by the recording thread**, which takes
//!   no lock and hashes no name. A snapshot sums the domain's totals and
//!   every live shard; a thread's shard is folded into the totals when its
//!   context drops, and a reset starts a new generation that each owner
//!   applies to its own shard. Gauges stay domain-wide.
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

mod metrics;
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
/// inline), which is what makes the attribution causally correct. Every
/// domain resolves them at its creation, to the histogram slots of their
/// positions here, so a wait passed to [`Telemetry::observe_op`] by name
/// finds its slot without the registry.
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

/// A counter resolved to its slot in one domain ([`Telemetry::counter_handle`]):
/// [`Telemetry::add`] records through it without a lock.
#[derive(Debug, Clone, Copy)]
pub struct CounterHandle {
    domain: u64,
    slot: usize,
}

/// A histogram resolved to its slot in one domain
/// ([`Telemetry::histogram_handle`]): [`Telemetry::record`] records through
/// it without a lock.
#[derive(Debug, Clone, Copy)]
pub struct HistogramHandle {
    domain: u64,
    slot: usize,
    /// The name, when it is one of the tracked waits.
    tracked: Option<&'static str>,
}

/// An operation's `op.<name>` counter and `latency.<name>` histogram
/// resolved in one domain ([`Telemetry::op`]).
#[derive(Debug, Clone, Copy)]
pub struct OpHandle {
    name: &'static str,
    count: CounterHandle,
    latency: HistogramHandle,
}

/// One trace scope entered on a thread (innermost last on the stack).
pub(crate) struct TraceScope {
    pub(crate) trace: u64,
    /// Span id (possibly from another thread) the first root span opened
    /// under this scope should link to with `follows_from`.
    pub(crate) follows_span: Option<u64>,
}

/// What one thread keeps for one domain without sharing it: the trace
/// scopes it has entered, the waits of its current operation and its
/// metric shard. All are only ever written by the thread itself, so they
/// live in a thread-local, and entering a trace, accumulating a wait or
/// recording a metric takes no lock.
struct LocalCtx {
    domain: u64,
    /// Dead once the domain is dropped: the context is then garbage.
    owner: std::sync::Weak<Inner>,
    traces: Vec<TraceScope>,
    /// Tracked waits accumulated since the last [`Telemetry::observe_op`]
    /// on this thread (name → summed ns).
    waits: Vec<(&'static str, u64)>,
    /// This thread's cells of the domain's metrics, registered with the
    /// domain on the first recording and folded into its totals on drop.
    shard: Option<Arc<metrics::Shard>>,
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

    /// Pop the innermost scope of `trace`.
    fn leave(&mut self, trace: u64) {
        if let Some(pos) = self.traces.iter().rposition(|s| s.trace == trace) {
            self.traces.remove(pos);
        }
    }

    /// This thread's shard, with room for counter slots below `counters`
    /// and histogram slots below `hists`: registered with the domain on
    /// first touch, regrown once the domain has resolved more names, and
    /// zeroed by its owner — this thread — once a reset came since.
    fn shard(&mut self, inner: &Inner, counters: usize, hists: usize) -> &metrics::Shard {
        if !self.shard.as_ref().is_some_and(|s| s.fits(counters, hists)) {
            let old = self.shard.take();
            self.shard = Some(inner.lock().metrics.register(old, counters, hists));
        }
        let shard = self.shard.as_deref().expect("registered above");
        let generation = inner.reset_generation.load(Ordering::Acquire);
        if shard.generation() < generation {
            shard.restart(generation);
        }
        shard
    }
}

impl Drop for LocalCtx {
    /// Fold the shard into the domain's totals, so a thread that is gone
    /// leaves its counts and nothing else behind.
    fn drop(&mut self) {
        if let (Some(shard), Some(inner)) = (self.shard.take(), self.owner.upgrade()) {
            // A registry poisoned by a panic has lost more than this shard;
            // a drop must not panic on top of it.
            if let Ok(mut st) = inner.state.lock() {
                st.metrics.fold(&shard);
            }
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
///
/// Never called with a domain's registry lock held: dropping an idle
/// context folds its shard under its domain's lock, and a first recording
/// registers a shard under this one's.
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
                        shard: None,
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
    pub(crate) metrics: metrics::Metrics,
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

    /// Add `by` to a counter's domain total, without allocating when the
    /// name exists.
    pub(crate) fn bump(&mut self, name: &str, by: u64) {
        self.metrics.bump(name, by);
    }

    /// Record into a histogram's domain total, without allocating when the
    /// name exists.
    pub(crate) fn record(&mut self, name: &str, value: u64) {
        let slot = self.metrics.touch_hist(name);
        self.metrics.record(slot, value);
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
                self.metrics.bump("journal.sink_errors", 1);
                sink.write_all(line.as_bytes())
            });
            if wrote.is_ok() {
                self.sink_records += 1;
            } else {
                self.bump("journal.sink_errors", 1);
                self.bump("journal.sink_detached", 1);
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
                self.push_into_ring(detached);
            }
        }
        self.push_into_ring(rec);
    }

    /// Push onto the ring, evicting (and counting) the oldest on overflow.
    fn push_into_ring(&mut self, rec: JournalRecord) {
        while self.journal.len() >= self.journal_capacity.max(1) {
            self.journal.pop_front();
            self.bump("journal.dropped", 1);
        }
        self.journal.push_back(rec);
    }
}

/// The calling thread's journal stamp: `(tid, trace, innermost open
/// span)`, for a record made under `trace` (the thread's active trace, read
/// before the lock was taken). Falls back to the innermost open span's
/// trace when no trace scope is entered (a span guard held across a scope
/// exit keeps attributing).
fn stamp(st: &mut State, trace: Option<u64>) -> (u64, Option<u64>, Option<u64>) {
    let innermost = st.innermost_span().map(|s| (s.id, s.trace));
    let trace = trace.or_else(|| innermost.and_then(|(_, trace)| trace));
    (st.tid(), trace, innermost.map(|(id, _)| id))
}

pub(crate) struct Inner {
    /// Process-unique id: keys this domain's thread-local contexts.
    pub(crate) id: u64,
    pub(crate) epoch: Instant,
    /// The metrics' reset generation, read by each shard's owner without
    /// the lock (written under it).
    reset_generation: AtomicU64,
    /// 0 = the slow-op log is off.
    slow_op_threshold_ns: AtomicU64,
    pub(crate) state: Mutex<State>,
}

impl Inner {
    /// The registry lock.
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a thread panicked while holding the telemetry registry")
    }
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
                ctx.leave(self.trace);
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
        let st = self.inner.lock();
        let (counters, histograms) = st.metrics.len();
        f.debug_struct("Telemetry")
            .field("counters", &counters)
            .field("histograms", &histograms)
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
                reset_generation: AtomicU64::new(0),
                slow_op_threshold_ns: AtomicU64::new(0),
                state: Mutex::new(State {
                    metrics: metrics::Metrics::new(TRACKED_WAITS),
                    threads: HashMap::new(),
                    tids: HashMap::new(),
                    next_tid: 1,
                    journal: VecDeque::new(),
                    journal_capacity: capacity.max(1),
                    sink: None,
                    sink_records: 0,
                    next_span_id: 1,
                    next_trace_id: 1,
                }),
            }),
        }
    }

    /// Nanoseconds since this domain's epoch (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    // ----- counters / gauges -------------------------------------------------

    /// Add `by` to the named counter (creating it at zero). The name is
    /// looked up under the registry lock, then recorded as through
    /// [`Telemetry::add`].
    pub fn incr(&self, name: &str, by: u64) {
        let slot = self.inner.lock().metrics.touch_counter(name);
        self.add(&CounterHandle { domain: self.inner.id, slot }, by);
    }

    /// Set the named counter to an absolute value (gauge semantics),
    /// without allocating when it exists. Gauges are domain-wide: they are
    /// set under the registry lock, not sharded.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.inner.lock().metrics.set(name, value);
    }

    /// Current value of a counter/gauge (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().metrics.counter(name)
    }

    /// The named counter resolved to its slot, for [`Telemetry::add`]. A
    /// counter resolved but never added to stays out of snapshots.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        CounterHandle { domain: self.inner.id, slot: self.inner.lock().metrics.counter_slot(name) }
    }

    /// Add `by` to a resolved counter, in the calling thread's shard: no
    /// lock, no name lookup.
    pub fn add(&self, counter: &CounterHandle, by: u64) {
        debug_assert_eq!(counter.domain, self.inner.id, "a CounterHandle of another domain");
        let slot = counter.slot;
        let added = with_local(&self.inner, |ctx| ctx.shard(&self.inner, slot + 1, 0).add(slot, by));
        if added.is_none() {
            self.inner.lock().metrics.add(slot, by);
        }
    }

    // ----- histograms --------------------------------------------------------

    /// Record one observation (e.g. nanoseconds) into the named log₂
    /// histogram. Tracked wait names (`lock.*_wait_ns`, `wal.fsync_ns`,
    /// `wal.commit_wait_ns`) additionally accumulate into the calling
    /// thread's operation context for slow-op attribution. The name is
    /// looked up under the registry lock, then recorded as through
    /// [`Telemetry::record`].
    pub fn observe_ns(&self, name: &str, value: u64) {
        let slot = self.inner.lock().metrics.touch_hist(name);
        let tracked = TRACKED_WAITS.iter().find(|w| **w == name).copied();
        self.record(&HistogramHandle { domain: self.inner.id, slot, tracked }, value);
    }

    /// The named histogram resolved to its slot, for
    /// [`Telemetry::record`]. A histogram resolved but never recorded into
    /// stays out of snapshots.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        let slot = self.inner.lock().metrics.hist_slot(name);
        let tracked = TRACKED_WAITS.iter().find(|w| **w == name).copied();
        HistogramHandle { domain: self.inner.id, slot, tracked }
    }

    /// Record one observation into a resolved histogram, in the calling
    /// thread's shard: no lock, no name lookup. A tracked wait also
    /// accumulates for slow-op attribution, as through
    /// [`Telemetry::observe_ns`].
    pub fn record(&self, hist: &HistogramHandle, value: u64) {
        debug_assert_eq!(hist.domain, self.inner.id, "a HistogramHandle of another domain");
        let (slot, tracked) = (hist.slot, hist.tracked);
        let recorded = with_local(&self.inner, |ctx| {
            ctx.shard(&self.inner, 0, slot + 1).record(slot, value);
            if let Some(name) = tracked {
                ctx.add_wait(name, value);
            }
        });
        if recorded.is_none() {
            self.inner.lock().metrics.record(slot, value);
        }
    }

    /// Create the named histogram empty, so snapshots carry it before its
    /// first observation.
    pub fn register_histogram(&self, name: &str) {
        self.inner.lock().metrics.touch_hist(name);
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
        self.inner.slow_op_threshold_ns.store(ns, Ordering::Relaxed);
    }

    fn slow_op_threshold(&self) -> u64 {
        self.inner.slow_op_threshold_ns.load(Ordering::Relaxed)
    }

    /// An operation's `op.<name>` counter and `latency.<name>` histogram
    /// resolved once, for [`Telemetry::observe_op`] and
    /// [`Telemetry::finish_op`].
    pub fn op(&self, name: &OpName) -> OpHandle {
        let mut st = self.inner.lock();
        let count = CounterHandle { domain: self.inner.id, slot: st.metrics.counter_slot(name.counter) };
        let latency = HistogramHandle {
            domain: self.inner.id,
            slot: st.metrics.hist_slot(name.latency),
            tracked: None,
        };
        OpHandle { name: name.name, count, latency }
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
    /// is observed and attributed exactly as [`Telemetry::observe_ns`]
    /// would, in the same visit to the thread's context.
    ///
    /// Everything lands in the calling thread's metric shard. Given a
    /// tracked wait, an operation under the threshold takes no lock and
    /// hashes no name; only a slow one takes the registry lock, to journal
    /// its event.
    pub fn observe_op(&self, op: &OpHandle, dur_ns: u64, waited: Option<(&'static str, u64)>) {
        self.op_done(op, dur_ns, waited, None);
    }

    /// [`Telemetry::observe_op`], then leave `scope` (the operation's trace
    /// scope) in the same visit to the thread's context. A slow operation's
    /// event is stamped with the scope's trace.
    pub fn finish_op(
        &self,
        scope: TraceGuard,
        op: &OpHandle,
        dur_ns: u64,
        waited: Option<(&'static str, u64)>,
    ) {
        self.op_done(op, dur_ns, waited, Some(scope));
    }

    fn op_done(
        &self,
        op: &OpHandle,
        dur_ns: u64,
        waited: Option<(&'static str, u64)>,
        scope: Option<TraceGuard>,
    ) {
        debug_assert_eq!(op.count.domain, self.inner.id, "an OpHandle of another domain");
        let dur_ns = dur_ns.max(1);
        let wait = waited.map(|(name, ns)| (name, self.wait_slot(name), ns));
        let threshold = self.slow_op_threshold();
        let slow = threshold > 0 && dur_ns >= threshold;
        let (count, latency) = (op.count.slot, op.latency.slot);
        let hists = wait.map_or(latency, |(_, slot, _)| slot.max(latency)) + 1;
        let visited = with_local(&self.inner, |ctx| {
            let shard = ctx.shard(&self.inner, count + 1, hists);
            shard.add(count, 1);
            shard.record(latency, dur_ns);
            if let Some((_, slot, ns)) = wait {
                shard.record(slot, ns);
            }
            // The thread's accumulated waits end with the operation; a slow
            // one takes them along. Nobody reads them without a threshold,
            // so the operation's own wait joins them only under one.
            let mut journaled = None;
            if threshold > 0 {
                if let Some((name, _, ns)) = wait {
                    ctx.add_wait(name, ns);
                }
                if slow {
                    journaled = Some((ctx.waits.clone(), ctx.traces.last().map(|s| s.trace)));
                }
            }
            ctx.waits.clear();
            if let Some(scope) = &scope {
                ctx.leave(scope.trace);
            }
            journaled
        });
        let journaled = match visited {
            Some(journaled) => {
                // Already left above; the guard has nothing left to pop.
                std::mem::forget(scope);
                journaled
            }
            // The thread is being torn down: no context, so the totals.
            None => {
                let mut st = self.inner.lock();
                st.metrics.add(count, 1);
                st.metrics.record(latency, dur_ns);
                if let Some((_, slot, ns)) = wait {
                    st.metrics.record(slot, ns);
                }
                slow.then(|| (Vec::new(), None))
            }
        };
        if let Some((waits, trace)) = journaled {
            let mut fields: Vec<(String, JsonValue)> = vec![
                ("op".into(), op.name.into()),
                ("dur_ns".into(), dur_ns.into()),
                ("threshold_ns".into(), threshold.into()),
            ];
            for (name, sum) in waits {
                fields.push((name.to_string(), sum.into()));
            }
            let at_ns = self.now_ns();
            let mut st = self.inner.lock();
            st.bump("slow_op.count", 1);
            let (tid, trace, parent) = stamp(&mut st, trace);
            let rec = JournalRecord::Event { name: "slow_op".into(), at_ns, parent, trace, tid, fields };
            st.push_record(rec);
        }
    }

    /// The histogram slot of a wait passed by name: a tracked wait's is
    /// fixed at the domain's creation; any other name is looked up.
    fn wait_slot(&self, name: &str) -> usize {
        match TRACKED_WAITS.iter().position(|w| *w == name) {
            Some(slot) => slot,
            None => self.inner.lock().metrics.hist_slot(name),
        }
    }

    // ----- traces ------------------------------------------------------------

    /// Mint a fresh trace id and journal a `trace.begin` event stamped with
    /// it (without entering the trace on this thread). Use this to give a
    /// long-lived session its identity once, then [`Telemetry::enter_trace`]
    /// per operation.
    pub fn mint_trace(&self, kind: &str) -> u64 {
        let at_ns = self.now_ns();
        let mut st = self.inner.lock();
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
        let mut st = self.inner.lock();
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
        let span = self.inner.lock().innermost_span().map(|s| s.id);
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

    /// Append a free-form event record to the journal, stamped with the
    /// calling thread's id and active trace.
    pub fn event(&self, name: &str, fields: &[(&str, JsonValue)]) {
        let at_ns = self.now_ns();
        let trace = self.current_trace();
        let mut st = self.inner.lock();
        let (tid, trace, parent) = stamp(&mut st, trace);
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
        let mut st = self.inner.lock();
        st.journal_capacity = capacity.max(1);
        while st.journal.len() > st.journal_capacity {
            st.journal.pop_front();
            st.bump("journal.dropped", 1);
        }
    }

    /// The journal ring's current capacity in records.
    pub fn journal_capacity(&self) -> usize {
        self.inner.lock().journal_capacity
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
        let mut st = self.inner.lock();
        if let Some(mut old) = st.sink.take() {
            let _ = old.flush();
        }
        st.sink = Some(std::io::BufWriter::new(file));
        st.sink_records = 0;
        Ok(())
    }

    /// Detach the sink, flushing it; returns the record count it received.
    pub fn detach_sink(&self) -> std::io::Result<u64> {
        let mut st = self.inner.lock();
        let n = st.sink_records;
        if let Some(mut sink) = st.sink.take() {
            sink.flush()?;
        }
        st.sink_records = 0;
        Ok(n)
    }

    // ----- snapshot / journal ------------------------------------------------

    /// A deterministic point-in-time copy of every counter and histogram:
    /// the domain's totals plus every live thread's shard.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().metrics.snapshot()
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
        self.inner.lock().journal.iter().cloned().collect()
    }

    /// The in-ring journal serialised as JSON-lines (one object per line).
    pub fn journal_lines(&self) -> String {
        let st = self.inner.lock();
        let mut out = String::new();
        for rec in &st.journal {
            out.push_str(&rec.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Drop all recorded state (counters, histograms, journal ring). Open
    /// span guards and entered traces keep working; their records land in
    /// the fresh journal. An attached sink is left in place. Resolved
    /// handles stay valid. Each thread's shard is zeroed by that thread
    /// when it next records; until then its cells count as empty.
    pub fn reset(&self) {
        let mut st = self.inner.lock();
        let generation = st.metrics.reset();
        self.inner.reset_generation.store(generation, Ordering::Release);
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
        let (fast, slow) = (t.op(&op_name!("fast")), t.op(&op_name!("slow")));
        t.observe_op(&fast, 999, None);
        assert_eq!(t.counter("slow_op.count"), 0, "below threshold: no event");
        t.observe_ns("lock.stripe_wait_ns", 500);
        t.observe_ns("lock.stripe_wait_ns", 11);
        // A wait the caller measured itself rides the same call: observed
        // into its histogram and attributed like any other tracked wait.
        t.observe_op(&slow, 5000, Some(("lock.read_wait_ns", 9)));
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

    /// Four threads record through one resolved op on one domain; three
    /// have exited (their shards folded into the totals) and one is still
    /// alive (its shard summed live) when the snapshot is taken.
    #[test]
    fn sharded_counts_are_exact_across_live_and_exited_threads() {
        const OPS: u64 = 10_000;
        let t = Telemetry::new();
        let get = t.op(&op_name!("get"));
        let work = move |t: Telemetry| {
            for i in 0..OPS {
                t.observe_op(&get, 100 + i % 7, Some(("lock.read_wait_ns", 1)));
            }
        };
        let joined: Vec<_> = (0..3)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || work(t))
            })
            .collect();
        for handle in joined {
            handle.join().unwrap();
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let alive = {
            let t = t.clone();
            std::thread::spawn(move || {
                work(t);
                done_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
        };
        done_rx.recv().unwrap();
        let check = |snap: &MetricsSnapshot| {
            assert_eq!(snap.counter("op.get"), 4 * OPS);
            assert_eq!(snap.histograms["latency.get"].count, 4 * OPS);
            assert_eq!(snap.histograms["lock.read_wait_ns"].count, 4 * OPS);
            assert_eq!(snap.histograms["lock.read_wait_ns"].sum, 4 * OPS);
        };
        check(&t.snapshot());
        assert_eq!(t.counter("op.get"), 4 * OPS);
        exit_tx.send(()).unwrap();
        alive.join().unwrap();
        check(&t.snapshot());
    }

    #[test]
    fn a_reset_empties_a_shard_that_predates_it() {
        let t = Telemetry::new();
        let get = t.op(&op_name!("get"));
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = {
            let t = t.clone();
            std::thread::spawn(move || {
                while go_rx.recv().is_ok() {
                    t.observe_op(&get, 10, None);
                    done_tx.send(()).unwrap();
                }
            })
        };
        for _ in 0..5 {
            go_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        }
        assert_eq!(t.counter("op.get"), 5);
        t.reset();
        assert_eq!(t.counter("op.get"), 0, "the worker's shard predates the reset");
        assert!(t.snapshot().counters.is_empty());
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        assert_eq!(t.counter("op.get"), 1);
        assert_eq!(t.snapshot().histograms["latency.get"].count, 1);
        drop(go_tx);
        worker.join().unwrap();
        assert_eq!(t.counter("op.get"), 1, "folded at exit");
    }

    #[test]
    fn two_domains_on_one_thread_do_not_mix() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        let (get_a, get_b) = (a.op(&op_name!("get")), b.op(&op_name!("get")));
        let hits = b.counter_handle("hits");
        for _ in 0..3 {
            a.observe_op(&get_a, 5, None);
        }
        b.observe_op(&get_b, 5, None);
        b.add(&hits, 2);
        assert_eq!((a.counter("op.get"), b.counter("op.get")), (3, 1));
        assert_eq!((a.counter("hits"), b.counter("hits")), (0, 2));
        // A third domain drops the idle contexts of the first two, folding
        // their shards: nothing is lost or moved.
        let c = Telemetry::new();
        c.incr("x", 1);
        assert_eq!((a.counter("op.get"), b.counter("op.get"), c.counter("x")), (3, 1, 1));
    }

    #[test]
    fn a_resolved_name_stays_absent_until_recorded() {
        let t = Telemetry::new();
        let hits = t.counter_handle("hits");
        let lat = t.histogram_handle("lat");
        let _op = t.op(&op_name!("get"));
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty(), "{snap:?}");
        // Through the registry a zero still creates the counter, as before.
        t.incr("zero", 0);
        t.add(&hits, 4);
        t.record(&lat, 9);
        let snap = t.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!((snap.counter("zero"), snap.counter("hits")), (0, 4));
        assert_eq!(snap.histograms["lat"].sum, 9);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn a_shard_regrows_for_names_resolved_after_it() {
        let t = Telemetry::new();
        let first = t.counter_handle("first");
        t.add(&first, 1);
        // Enough names after the shard was registered to outgrow its room.
        let later: Vec<_> = (0..100).map(|i| t.counter_handle(&format!("later{i}"))).collect();
        for (i, handle) in later.iter().enumerate() {
            t.add(handle, i as u64 + 1);
            t.observe_ns(&format!("h{i}"), i as u64);
        }
        t.add(&first, 1);
        assert_eq!(t.counter("first"), 2);
        assert_eq!(t.counter("later99"), 100);
        assert_eq!(t.snapshot().histograms.len(), 100);
    }

    #[test]
    fn finish_op_journals_a_slow_op_under_its_scope_and_leaves_it() {
        let t = Telemetry::new();
        let create = t.op(&op_name!("create"));
        t.set_slow_op_threshold_ns(1000);
        let trace = t.mint_trace("write_session");
        let scope = t.enter_trace(trace);
        t.observe_ns("lock.stripe_wait_ns", 40);
        t.finish_op(scope, &create, 5000, Some(("lock.write_wait_ns", 2)));
        assert_eq!(t.current_trace(), None, "the scope was left");
        assert_eq!(t.counter("slow_op.count"), 1);
        let journal = t.journal();
        let slow = journal.iter().find(|r| r.name() == "slow_op").expect("slow_op event");
        assert_eq!(slow.trace(), Some(trace));
        let JournalRecord::Event { fields, .. } = slow else { panic!("{slow:?}") };
        for (name, ns) in [("lock.stripe_wait_ns", 40), ("lock.write_wait_ns", 2)] {
            assert!(fields.iter().any(|(k, v)| k == name && *v == JsonValue::U64(ns)), "{fields:?}");
        }
        assert_eq!(t.snapshot().histograms["lock.write_wait_ns"].count, 1);
    }
}
