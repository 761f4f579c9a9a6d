//! Hierarchical spans with RAII timing guards — **per-thread** contexts.
//!
//! A [`SpanGuard`] opens on [`Telemetry::span`] and closes on drop (or
//! explicit [`SpanGuard::finish`]); closing appends a [`JournalRecord::Span`]
//! to the journal, records the duration into the `span.<name>` histogram,
//! and bumps the `span.<name>.count` counter.
//!
//! Spans nest per thread: the guard opened most recently *on the same
//! thread* (and not yet closed) is the parent of the next one — concurrent
//! threads never see each other's stacks, so parentage cannot be
//! misattributed and closing a span can never discard another thread's open
//! spans. Cross-thread causality is explicit: a span opened under an
//! adopted trace ([`Telemetry::adopt`]) with no same-thread parent carries a
//! `follows_from` link to the span captured at handoff.

use std::time::Duration;

use crate::json::JsonValue;
use crate::Telemetry;

/// Clamp a duration to a nonzero nanosecond count (sub-nanosecond work
/// rounds up to 1 so "this phase ran" is always visible in the journal).
pub(crate) fn nonzero_ns(d: Duration) -> u64 {
    (d.as_nanos() as u64).max(1)
}

/// An open span on one thread's stack.
pub(crate) struct OpenSpan {
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) trace: Option<u64>,
    pub(crate) follows_from: Option<u64>,
    pub(crate) name: String,
    pub(crate) start_ns: u64,
    pub(crate) fields: Vec<(String, JsonValue)>,
}

/// One record of the event journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A closed span.
    Span {
        /// Span id (unique within the domain, 1-based).
        id: u64,
        /// Enclosing span id — always a span of the **same thread** and
        /// trace; cross-thread causality uses `follows_from` instead.
        parent: Option<u64>,
        /// Trace this span belongs to (the trace active on its thread when
        /// it opened), if any.
        trace: Option<u64>,
        /// Dense id of the thread that opened the span (1-based, stable for
        /// the thread's lifetime within the domain).
        tid: u64,
        /// Span (possibly on another thread) this span causally follows,
        /// set on root spans of an adopted trace context.
        follows_from: Option<u64>,
        /// Span name, e.g. `evolve.translate`.
        name: String,
        /// Nesting depth on its thread at open time (0 = root).
        depth: u32,
        /// Start offset from the telemetry epoch, nanoseconds.
        start_ns: u64,
        /// Wall-clock duration, nanoseconds (≥ 1).
        dur_ns: u64,
        /// Attached key/value fields.
        fields: Vec<(String, JsonValue)>,
    },
    /// A point event.
    Event {
        /// Event name.
        name: String,
        /// Offset from the telemetry epoch, nanoseconds.
        at_ns: u64,
        /// Enclosing span id on the emitting thread, if any.
        parent: Option<u64>,
        /// Trace active on the emitting thread, if any.
        trace: Option<u64>,
        /// Dense id of the emitting thread.
        tid: u64,
        /// Attached key/value fields.
        fields: Vec<(String, JsonValue)>,
    },
}

impl JournalRecord {
    /// Serialise to one JSON object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            JournalRecord::Span {
                id,
                parent,
                trace,
                tid,
                follows_from,
                name,
                depth,
                start_ns,
                dur_ns,
                fields,
            } => {
                let mut pairs: Vec<(&str, JsonValue)> = vec![
                    ("kind", "span".into()),
                    ("id", (*id).into()),
                    (
                        "parent",
                        parent.map(JsonValue::U64).unwrap_or(JsonValue::Null),
                    ),
                    ("trace", trace.map(JsonValue::U64).unwrap_or(JsonValue::Null)),
                    ("tid", (*tid).into()),
                    ("name", name.as_str().into()),
                    ("depth", (*depth as u64).into()),
                    ("start_ns", (*start_ns).into()),
                    ("dur_ns", (*dur_ns).into()),
                ];
                if let Some(f) = follows_from {
                    pairs.push(("follows_from", (*f).into()));
                }
                if !fields.is_empty() {
                    pairs.push((
                        "fields",
                        JsonValue::Obj(fields.clone()),
                    ));
                }
                JsonValue::obj(pairs)
            }
            JournalRecord::Event { name, at_ns, parent, trace, tid, fields } => {
                let mut pairs: Vec<(&str, JsonValue)> = vec![
                    ("kind", "event".into()),
                    ("name", name.as_str().into()),
                    (
                        "parent",
                        parent.map(JsonValue::U64).unwrap_or(JsonValue::Null),
                    ),
                    ("trace", trace.map(JsonValue::U64).unwrap_or(JsonValue::Null)),
                    ("tid", (*tid).into()),
                    ("at_ns", (*at_ns).into()),
                ];
                if !fields.is_empty() {
                    pairs.push(("fields", JsonValue::Obj(fields.clone())));
                }
                JsonValue::obj(pairs)
            }
        }
    }

    /// The record's name (span or event).
    pub fn name(&self) -> &str {
        match self {
            JournalRecord::Span { name, .. } | JournalRecord::Event { name, .. } => name,
        }
    }

    /// The trace the record is stamped with, if any.
    pub fn trace(&self) -> Option<u64> {
        match self {
            JournalRecord::Span { trace, .. } | JournalRecord::Event { trace, .. } => *trace,
        }
    }

    /// The dense thread id the record was emitted from.
    pub fn tid(&self) -> u64 {
        match self {
            JournalRecord::Span { tid, .. } | JournalRecord::Event { tid, .. } => *tid,
        }
    }
}

/// RAII guard for one span; closes (journals + measures) on drop. The guard
/// may be finished from any thread — it always closes the span on the stack
/// of the thread that *opened* it.
#[must_use = "a span measures nothing unless held"]
pub struct SpanGuard {
    telemetry: Telemetry,
    id: u64,
    owner: std::thread::ThreadId,
    closed: bool,
}

impl Telemetry {
    /// Open a span nested under the calling thread's innermost open span.
    /// The returned guard closes it on drop.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Open a nested span with initial fields.
    ///
    /// Parentage is per-thread and per-trace: the parent is the calling
    /// thread's innermost open span *when it belongs to the same trace
    /// scope*; otherwise the span is a root and — under an adopted trace —
    /// carries a `follows_from` link to the handed-off span.
    pub fn span_with(&self, name: &str, fields: &[(&str, JsonValue)]) -> SpanGuard {
        let owner = std::thread::current().id();
        let scope = self.scope();
        let scope_trace = scope.map(|(trace, _)| trace);
        let mut st = self.inner.lock();
        // A span runs from after this lock to before the one that closes
        // it, both on the domain's one clock: a child's interval lies inside
        // its parent's however long either waited for the registry.
        let start_ns = self.now_ns();
        let id = st.next_span_id;
        st.next_span_id += 1;
        let ctx = st.ctx();
        let (parent, trace, follows_from) = match ctx.stack.last() {
            // Same-trace nesting (both None counts: untraced spans nest
            // under untraced spans, exactly the old behaviour per thread).
            Some(top) if top.trace == scope_trace => (Some(top.id), scope_trace, None),
            _ => (None, scope_trace, scope.and_then(|(_, follows_span)| follows_span)),
        };
        ctx.stack.push(OpenSpan {
            id,
            parent,
            trace,
            follows_from,
            name: name.to_string(),
            start_ns,
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
        drop(st);
        SpanGuard { telemetry: self.clone(), id, owner, closed: false }
    }
}

impl SpanGuard {
    /// Attach a field to this span (visible in its journal record).
    pub fn record(&self, key: &str, value: impl Into<JsonValue>) {
        let mut st = self.telemetry.inner.lock();
        if let Some(ctx) = st.threads.get_mut(&self.owner) {
            if let Some(frame) = ctx.stack.iter_mut().find(|f| f.id == self.id) {
                frame.fields.push((key.to_string(), value.into()));
            }
        }
    }

    /// Close the span now and return its duration in nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        if self.closed {
            return 0;
        }
        self.closed = true;
        let end_ns = self.telemetry.now_ns();
        let mut st = self.telemetry.inner.lock();
        // Pop this span — and any still-open children above it on the SAME
        // thread's stack (a child guard outliving its parent). Children are
        // force-closed so journal parent links stay consistent, but each
        // one is surfaced in the `span.leaked` counter instead of silently
        // vanishing. Other threads' stacks are untouched by construction.
        let mut frames = Vec::new();
        {
            let Some(ctx) = st.threads.get_mut(&self.owner) else {
                return 0;
            };
            let Some(pos) = ctx.stack.iter().position(|f| f.id == self.id) else {
                return 0; // already force-closed by its parent's guard
            };
            while ctx.stack.len() > pos {
                let frame = ctx.stack.pop().expect("stack nonempty by loop bound");
                let depth = ctx.stack.len() as u32;
                frames.push((frame, depth, ctx.tid));
            }
        }
        st.gc_ctx(self.owner);
        let mut dur_of_self = 0;
        for (frame, depth, tid) in frames {
            let dur_ns = end_ns.saturating_sub(frame.start_ns).max(1);
            if frame.id == self.id {
                dur_of_self = dur_ns;
            } else {
                st.bump("span.leaked", 1);
            }
            st.record(&format!("span.{}", frame.name), dur_ns);
            st.bump(&format!("span.{}.count", frame.name), 1);
            st.push_record(JournalRecord::Span {
                id: frame.id,
                parent: frame.parent,
                trace: frame.trace,
                tid,
                follows_from: frame.follows_from,
                name: frame.name,
                depth,
                start_ns: frame.start_ns,
                dur_ns,
                fields: frame.fields,
            });
        }
        dur_of_self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn spans_nest_and_order_in_journal() {
        let t = Telemetry::new();
        {
            let root = t.span("evolve");
            root.record("op", "add_attribute");
            {
                let _translate = t.span("evolve.translate");
            }
            {
                let classify = t.span("evolve.classify");
                classify.record("classes", 3u64);
            }
        }
        let journal = t.journal();
        let names: Vec<&str> = journal.iter().map(|r| r.name()).collect();
        // Children close before the root; order is close order.
        assert_eq!(names, vec!["evolve.translate", "evolve.classify", "evolve"]);
        // Parent links point at the root span.
        let root_id = match &journal[2] {
            JournalRecord::Span { id, parent, depth, fields, .. } => {
                assert_eq!(*parent, None);
                assert_eq!(*depth, 0);
                assert_eq!(fields[0].0, "op");
                *id
            }
            other => panic!("expected span, got {other:?}"),
        };
        for rec in &journal[..2] {
            match rec {
                JournalRecord::Span { parent, depth, dur_ns, .. } => {
                    assert_eq!(*parent, Some(root_id));
                    assert_eq!(*depth, 1);
                    assert!(*dur_ns > 0);
                }
                other => panic!("expected span, got {other:?}"),
            }
        }
        // Metrics side-channel fed too.
        assert_eq!(t.counter("span.evolve.count"), 1);
        assert_eq!(t.snapshot().histograms["span.evolve.classify"].count, 1);
    }

    #[test]
    fn out_of_order_close_closes_same_thread_children_and_counts_leaks() {
        let t = Telemetry::new();
        let outer = t.span("outer");
        let _inner = t.span("inner");
        // Closing the parent first force-closes the child — same thread, so
        // it genuinely is a child — but the leak is surfaced.
        outer.finish();
        let journal = t.journal();
        let names: Vec<&str> = journal.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["inner", "outer"]);
        assert_eq!(t.counter("span.leaked"), 1, "force-closed child counted");
        // The leaked inner guard's drop is now a no-op.
        drop(_inner);
        assert_eq!(t.journal().len(), 2);
    }

    /// The PR-1 regression: two threads open concurrent spans on one
    /// domain. With the old single global stack, thread B's root span
    /// parented off whatever thread A had open, and finishing one thread's
    /// span force-closed the other's. Per-thread contexts must keep the
    /// threads fully independent.
    #[test]
    fn concurrent_threads_do_not_misattribute_or_cross_close() {
        let t = Telemetry::new();
        let a = t.span("thread_a.root");
        let (tx, rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let t2 = t.clone();
        let handle = std::thread::spawn(move || {
            // Opened while thread A's span is open on the shared domain.
            let b = t2.span("thread_b.root");
            let b_child = t2.span("thread_b.child");
            tx.send(()).unwrap();
            // Hold both open until the main thread has closed its span.
            done_rx.recv().unwrap();
            b_child.finish();
            b.finish();
        });
        rx.recv().unwrap();
        // Thread A closes its span while B's spans are still open. The old
        // stack force-closed B's spans here.
        let _a_child = t.span("thread_a.child");
        drop(_a_child);
        a.finish();
        assert_eq!(
            t.journal().iter().filter(|r| r.name().starts_with("thread_b")).count(),
            0,
            "closing thread A's spans must not close thread B's"
        );
        done_tx.send(()).unwrap();
        handle.join().unwrap();

        let journal = t.journal();
        let find = |name: &str| {
            journal
                .iter()
                .find_map(|r| match r {
                    JournalRecord::Span { id, parent, tid, name: n, .. } if n == name => {
                        Some((*id, *parent, *tid))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let (a_id, a_parent, a_tid) = find("thread_a.root");
        let (_, a_child_parent, _) = find("thread_a.child");
        let (b_id, b_parent, b_tid) = find("thread_b.root");
        let (_, b_child_parent, b_child_tid) = find("thread_b.child");
        // Roots are roots — B's root must NOT parent off A's open span.
        assert_eq!(a_parent, None);
        assert_eq!(b_parent, None, "cross-thread parent misattribution");
        // Children parent within their own thread.
        assert_eq!(a_child_parent, Some(a_id));
        assert_eq!(b_child_parent, Some(b_id));
        assert_eq!(b_child_tid, b_tid);
        assert_ne!(a_tid, b_tid, "threads get distinct tids");
        assert_eq!(t.counter("span.leaked"), 0, "nothing was force-closed");
    }

    #[test]
    fn journal_lines_are_valid_json() {
        let t = Telemetry::new();
        {
            let s = t.span("weird \"name\"\n");
            s.record("k", "v\\");
        }
        t.event("note", &[("detail", "x".into())]);
        let lines = t.journal_lines();
        assert_eq!(crate::json::validate_lines(&lines).unwrap(), 2);
    }

    #[test]
    fn finish_returns_duration() {
        let t = Telemetry::new();
        let s = t.span("timed");
        std::hint::black_box((0..100).sum::<u64>());
        assert!(s.finish() > 0);
    }

    #[test]
    fn spans_inherit_the_thread_trace() {
        let t = Telemetry::new();
        let tr = t.mint_trace("op");
        let g = t.enter_trace(tr);
        {
            let _root = t.span("outer");
            let _child = t.span("inner");
        }
        drop(g);
        // A span opened after the trace scope ends is untraced.
        drop(t.span("later"));
        let journal = t.journal();
        for name in ["outer", "inner"] {
            let rec = journal.iter().find(|r| r.name() == name).unwrap();
            assert_eq!(rec.trace(), Some(tr), "{name} stamped with the trace");
        }
        let later = journal.iter().find(|r| r.name() == "later").unwrap();
        assert_eq!(later.trace(), None);
    }

    #[test]
    fn new_trace_breaks_parentage_across_traces() {
        let t = Telemetry::new();
        let _outer_trace = t.ensure_trace("write");
        let outer_span = t.span("write.op");
        // A causally-linked but distinct unit starts under the open span.
        let inner_trace = t.new_trace("autocheckpoint");
        let inner_span = t.span("checkpoint.work");
        inner_span.finish();
        drop(inner_trace);
        let outer_id = {
            let mut st = t.inner.state.lock().unwrap();
            st.ctx().stack.last().unwrap().id
        };
        outer_span.finish();
        let journal = t.journal();
        let work = journal.iter().find(|r| r.name() == "checkpoint.work").unwrap();
        match work {
            JournalRecord::Span { parent, follows_from, .. } => {
                assert_eq!(*parent, None, "cross-trace spans must not parent-link");
                assert_eq!(*follows_from, Some(outer_id), "causality kept via follows_from");
            }
            other => panic!("expected span, got {other:?}"),
        }
    }
}
